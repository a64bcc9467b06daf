"""Built-in defense and attack plugins for the matrix registry.

Importing this module registers every locking scheme in
:mod:`repro.locking` and every attack in :mod:`repro.attack` (plus
DynUnlock itself) with :mod:`repro.matrix.registry`.  Each attack
adapter normalises its attack's native result type into an
:class:`~repro.matrix.registry.AttackOutcome`, including the
*verified-equivalence bit*: either the attack already embeds oracle
replay refinement (DynUnlock, ScanSAT, ScanSAT-dyn, scramble-SAT and
brute force all accept only candidates that reproduce live responses),
or the adapter replays the recovered key against the oracle itself
(shift-and-leak, plain SAT attack).

Adding a scheme is ~30 lines: write a lock factory following the
``lock_fn(netlist, key_bits, rng)`` shape, pick (or write) an attack
adapter, and register both -- see ``docs/matrix.md`` for a worked
example.
"""

from __future__ import annotations

import random
from functools import partial

from repro.attack.satattack import SatAttack, SatAttackConfig
from repro.attack.scansat import scansat_attack
from repro.attack.scansat_dyn import scansat_dyn_attack
from repro.attack.scramble_sat import scramble_sat_attack
from repro.attack.shift_and_leak import shift_and_leak_attack
from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.locking.dfs import DfsLock, lock_with_dfs
from repro.locking.dos import lock_with_dos
from repro.locking.eff import lock_with_eff
from repro.locking.effdyn import lock_with_effdyn
from repro.locking.iolock import IoLock, lock_core_with_rll
from repro.locking.sarlock import lock_with_sarlock
from repro.locking.scramble import lock_with_scramble
from repro.matrix.registry import (
    AttackOutcome,
    register_attack,
    register_defense,
)
from repro.reports.profiles import ExperimentProfile
from repro.sim.logicsim import CombinationalSimulator
from repro.util.bitvec import random_bits

_VERIFY_PATTERNS = 16
_BRUTEFORCE_MAX_KEY_BITS = 14


def _iterations_detail(iterations: int, runtime_s: float) -> str:
    return f"{iterations} iterations, {runtime_s:.1f}s"


# ----------------------------------------------------------------------
# attack adapters (native result -> AttackOutcome)
# ----------------------------------------------------------------------
def _attack_dynunlock(
    lock,
    *,
    profile: ExperimentProfile,
    timeout_s: float | None,
    opt_level: int | None = None,
) -> AttackOutcome:
    oracle = lock.make_oracle()
    result = dynunlock(
        lock.netlist,
        lock.public_view(),
        oracle,
        DynUnlockConfig(
            timeout_s=timeout_s,
            candidate_limit=profile.candidate_limit,
            opt_level=opt_level,
        ),
    )
    # DynUnlock's success criterion *is* replay verification: the
    # surviving seed reproduced fresh scrambled responses.
    return AttackOutcome(
        success=bool(result.success),
        recovered_key=result.recovered_seed,
        iterations=result.iterations,
        queries=result.oracle_queries,
        runtime_s=result.runtime_s,
        verified=bool(result.success),
        detail=(
            f"{result.iterations} iterations, "
            f"{result.n_seed_candidates} candidates, "
            f"{result.runtime_s:.1f}s"
        ),
        timed_out=result.timed_out,
    )


def _attack_replay_verified(
    attack_fn,
    lock,
    *,
    profile: ExperimentProfile,
    timeout_s: float | None,
    opt_level: int | None = None,
) -> AttackOutcome:
    """Adapter for ``attack_fn(netlist, public_view, oracle, ...)``.

    ScanSAT, ScanSAT-dyn and scramble-SAT run
    :func:`repro.attack.bruteforce.attack_and_replay`, so their success
    criterion *is* replay verification.
    """
    oracle = lock.make_oracle()
    result = attack_fn(
        lock.netlist,
        lock.public_view(),
        oracle,
        candidate_limit=profile.candidate_limit,
        timeout_s=timeout_s,
        opt_level=opt_level,
    )
    return AttackOutcome(
        success=bool(result.success),
        recovered_key=result.recovered_key,
        iterations=result.iterations,
        queries=oracle.query_count,
        runtime_s=result.runtime_s,
        verified=bool(result.success),
        detail=_iterations_detail(result.iterations, result.runtime_s),
        timed_out=result.timed_out,
    )


def _verify_dfs_key(lock: DfsLock, oracle, key, rng: random.Random) -> bool:
    """Replay: the recovered key predicts PO responses for random states."""
    sim = CombinationalSimulator(lock.netlist)
    functional = oracle.functional_inputs
    for _ in range(_VERIFY_PATTERNS):
        state = random_bits(lock.netlist.n_dffs, rng)
        pi = random_bits(len(functional), rng)
        observed = oracle.load_and_observe(state, pi)
        inputs = dict(zip(functional, pi))
        inputs.update(zip(lock.rll.key_inputs, key))
        state_map = dict(zip(lock.netlist.dff_q_nets(), state))
        values = sim.run(inputs, state_map)
        if [values[net] for net in lock.netlist.outputs] != observed:
            return False
    return True


def _attack_shift_and_leak(
    lock: DfsLock,
    *,
    profile: ExperimentProfile,
    timeout_s: float | None,
    opt_level: int | None = None,
) -> AttackOutcome:
    oracle = lock.make_oracle()
    result = shift_and_leak_attack(
        lock.netlist,
        lock.public_view(),
        oracle,
        candidate_limit=min(64, profile.candidate_limit),
        timeout_s=timeout_s,
        opt_level=opt_level,
    )
    verified = False
    if result.recovered_key is not None:
        verified = _verify_dfs_key(
            lock, oracle, result.recovered_key, random.Random(0x5A1F)
        )
    return AttackOutcome(
        success=bool(result.success) and verified,
        recovered_key=result.recovered_key,
        iterations=result.iterations,
        queries=oracle.query_count,
        runtime_s=result.runtime_s,
        verified=verified,
        detail=_iterations_detail(result.iterations, result.runtime_s),
        timed_out=result.timed_out,
    )


def _verify_io_key(lock: IoLock, oracle, key, rng: random.Random) -> bool:
    """Replay: the locked core with the recovered key matches the oracle."""
    sim = CombinationalSimulator(lock.locked)
    x_nets = [net for net in lock.locked.inputs if net not in set(lock.key_inputs)]
    for _ in range(_VERIFY_PATTERNS):
        x = random_bits(len(x_nets), rng)
        inputs = dict(zip(x_nets, x))
        inputs.update(zip(lock.key_inputs, key))
        values = sim.run(inputs)
        if [values[net] for net in lock.locked.outputs] != oracle.query(x):
            return False
    return True


def _attack_sat(
    lock: IoLock,
    *,
    profile: ExperimentProfile,
    timeout_s: float | None,
    opt_level: int | None = None,
) -> AttackOutcome:
    oracle = lock.make_oracle()
    attack = SatAttack(
        locked=lock.locked,
        key_inputs=lock.key_inputs,
        oracle_fn=oracle.query,
        config=SatAttackConfig(
            candidate_limit=profile.candidate_limit,
            timeout_s=timeout_s,
            opt_level=opt_level,
        ),
    )
    result = attack.run()
    recovered = (
        result.key_candidates[0]
        if result.converged and result.key_candidates
        else None
    )
    verified = recovered is not None and _verify_io_key(
        lock, oracle, recovered, random.Random(0x10CA)
    )
    return AttackOutcome(
        success=verified,
        recovered_key=recovered,
        iterations=result.iterations,
        queries=oracle.query_count,
        runtime_s=result.runtime_s,
        verified=verified,
        detail=_iterations_detail(result.iterations, result.runtime_s),
        timed_out=result.timed_out,
    )


def _attack_bruteforce(
    lock,
    *,
    profile: ExperimentProfile,
    timeout_s: float | None,
    opt_level: int | None = None,
) -> AttackOutcome:
    """Exhaustive key search by bit-parallel oracle replay.

    Every key occupies one packed simulator lane, so one replayed
    pattern tests the whole key space at once; infeasible widths are
    reported as an (honest) failure, which is exactly the data point
    that makes small-key point functions look weak and large-key ones
    resilient in the matrix.
    """
    from repro.attack.bruteforce import refine_candidates_by_replay
    from repro.core.modeling import CombinationalModel, build_combinational_model
    from repro.locking.eff import EffStaticLock
    from repro.util.timing import Stopwatch

    watch = Stopwatch().start()
    k = lock.key_bits
    if k > _BRUTEFORCE_MAX_KEY_BITS:
        watch.stop()
        return AttackOutcome(
            success=False,
            recovered_key=None,
            iterations=0,
            queries=0,
            runtime_s=watch.total,
            verified=False,
            detail=f"2^{k} key space; brute force not attempted",
        )
    candidates = [[(i >> b) & 1 for b in range(k)] for i in range(2**k)]
    oracle = lock.make_oracle()

    if isinstance(lock, EffStaticLock):
        model = build_combinational_model(
            lock.netlist,
            spec=lock.spec,
            taps=None,
            key_bits=lock.spec.n_keygates,
            mode="static",
        )

        def replay(scan_in: list[int], pi: list[int]) -> list[int]:
            return model.observe(oracle.query(scan_in, pi))

    elif isinstance(lock, IoLock):
        x_nets = [
            net for net in lock.locked.inputs if net not in set(lock.key_inputs)
        ]
        model = CombinationalModel(
            netlist=lock.locked,
            a_inputs=[],
            pi_inputs=x_nets,
            key_inputs=list(lock.key_inputs),
            b_outputs=[],
            po_outputs=list(lock.locked.outputs),
        )

        def replay(scan_in: list[int], pi: list[int]) -> list[int]:
            return oracle.query(pi)

    else:
        raise TypeError(
            f"brute force has no replay model for {type(lock).__name__}"
        )

    from repro.opt import optimize, resolve_level

    if resolve_level(opt_level) > 0:
        # One packed lane per candidate key: the replay netlist is the
        # whole per-pattern cost, so shrink it before the sweep.
        model.netlist = optimize(model.netlist, level=opt_level).netlist

    refinement = refine_candidates_by_replay(
        model,
        candidates,
        replay,
        random.Random(0xB2F0),
        n_patterns=_VERIFY_PATTERNS,
        stop_at_one=False,
    )
    watch.stop()
    # Success requires a *unique* survivor: random replay patterns
    # cannot tell point-function keys apart (each wrong key errs on a
    # single input), so a surviving crowd means the search failed --
    # declaring survivors[0] broken would publish a wrong key.
    recovered = refinement.survivors[0] if refinement.unique else None
    detail = f"{len(candidates)} keys replayed, {watch.total:.1f}s"
    if len(refinement.survivors) > 1:
        detail = (
            f"{len(refinement.survivors)}/{len(candidates)} keys "
            f"indistinguishable under random replay, {watch.total:.1f}s"
        )
    return AttackOutcome(
        success=recovered is not None,
        recovered_key=recovered,
        iterations=len(candidates),
        queries=oracle.query_count,
        runtime_s=watch.total,
        verified=recovered is not None,
        detail=detail,
    )


# ----------------------------------------------------------------------
# registrations (order = rendered matrix row/column order)
# ----------------------------------------------------------------------
register_defense(
    "eff",
    lock_with_eff,
    oracle_model="scan-static",
    display="EFF (2018)",
    obfuscation="Static",
    paper_attack="scansat",
)
register_defense(
    "dfs",
    lock_with_dfs,
    oracle_model="po-only",
    display="DFS (2018)",
    obfuscation="Static",
    paper_attack="shift-and-leak",
)
register_defense(
    "dos",
    lock_with_dos,
    oracle_model="scan-per-pattern",
    params={"period_p": 1},
    display="DOS (2017)",
    obfuscation="Dynamic (per pattern)",
    paper_attack="scansat-dyn",
)
register_defense(
    "effdyn",
    lock_with_effdyn,
    oracle_model="scan-per-cycle",
    display="EFF-Dyn (2019)",
    obfuscation="Dynamic (per cycle)",
    paper_attack="dynunlock",
)
register_defense(
    "rll",
    lock_core_with_rll,
    oracle_model="comb-io",
    display="RLL (2012)",
    obfuscation="None (logic locking)",
    paper_attack="sat",
)
register_defense(
    "sarlock",
    lock_with_sarlock,
    oracle_model="comb-io",
    display="SARLock-PF (new)",
    obfuscation="None (point function)",
    default_key_bits=6,
)
register_defense(
    "scramble",
    lock_with_scramble,
    oracle_model="scan-permutation",
    display="ScanScramble (new)",
    obfuscation="Static (chain permutation)",
    default_key_bits=4,
)

register_attack(
    "scansat",
    partial(_attack_replay_verified, scansat_attack),
    applicable_to=("eff",),
    display="ScanSAT",
)
register_attack(
    "shift-and-leak",
    _attack_shift_and_leak,
    applicable_to=("dfs",),
    display="Shift-and-leak",
)
register_attack(
    "scansat-dyn",
    partial(_attack_replay_verified, scansat_dyn_attack),
    applicable_to=("dos",),
    display="ScanSAT-dyn",
)
register_attack(
    "dynunlock",
    _attack_dynunlock,
    applicable_to=("effdyn",),
    display="DynUnlock (this work)",
)
# Targets the whole comb-io oracle family: any present or future defense
# registered with oracle_model="comb-io" gets this column automatically.
register_attack(
    "sat",
    _attack_sat,
    applicable_to=("comb-io",),
    display="SAT attack",
)
register_attack(
    "scramble-sat",
    partial(_attack_replay_verified, scramble_sat_attack),
    applicable_to=("scramble",),
    display="Scramble-SAT",
)
register_attack(
    "bruteforce",
    _attack_bruteforce,
    applicable_to=("eff", "comb-io"),
    display="Brute force",
)
