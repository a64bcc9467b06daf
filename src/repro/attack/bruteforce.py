"""Candidate refinement by oracle replay.

Tables II and III of the paper report benchmarks where the SAT attack
leaves up to 128 seed candidates, "which can be easily brute forced to
obtain the correct seed".  This module implements that brute-force step:
replay fresh random patterns against the real chip and keep only the
candidates whose *predicted* scrambled responses match.

Prediction evaluates the combinational attack model with the candidate
seed plugged into its key inputs -- the same artifact the SAT attack ran
on, so no additional modeling code is trusted here.  Evaluation is
bit-parallel: each surviving candidate occupies one packed lane, so a
single pass of the :class:`repro.sim.logicsim.BitParallelSimulator`
checks every candidate against one replayed pattern at once.

:func:`attack_and_replay` is the pipeline every replay-verified scan
attack runs (ScanSAT, ScanSAT-dyn, scramble-SAT, multi-chain
DynUnlock): the SAT attack on a :class:`CombinationalModel`, then this
refinement, which picks the recovered key among its survivors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.attack.satattack import AttackResult, SatAttack, SatAttackConfig
from repro.core.modeling import CombinationalModel
from repro.sim.logicsim import BitParallelSimulator, broadcast_inputs
from repro.util.bitvec import broadcast_bit, lane_mask, pack_lanes, random_bits
from repro.util.timing import Stopwatch


@dataclass
class RefinementResult:
    """Surviving candidates after oracle-replay filtering."""
    survivors: list[list[int]]
    n_patterns_used: int
    n_candidates_in: int

    @property
    def unique(self) -> bool:
        """True when exactly one candidate survived."""
        return len(self.survivors) == 1


def refine_candidates_by_replay(
    model: CombinationalModel,
    candidates: Sequence[Sequence[int]],
    oracle_query: Callable[[list[int], list[int]], list[int]],
    rng: random.Random,
    n_patterns: int = 16,
    stop_at_one: bool = True,
) -> RefinementResult:
    """Filter seed candidates against the live oracle.

    ``oracle_query(scan_in, primary_inputs)`` must return the observed
    bits in the model's output order (scan-out by position, then POs).
    Candidates that mispredict any replayed pattern are eliminated.  With
    ``stop_at_one`` the loop ends as soon as a single survivor remains.

    Per pattern, the scan-in/PI bits are broadcast across all candidate
    lanes and the candidate seeds are column-packed into the key inputs,
    so the whole candidate set is simulated in one bit-parallel pass.
    """
    sim = BitParallelSimulator(model.netlist)
    survivors = [list(c) for c in candidates]
    n_a = len(model.a_inputs)
    n_pi = len(model.pi_inputs)
    patterns_used = 0

    for _ in range(n_patterns):
        if not survivors or (stop_at_one and len(survivors) == 1):
            break
        scan_in = random_bits(n_a, rng)
        pi = random_bits(n_pi, rng)
        observed = list(oracle_query(scan_in, pi))
        if len(observed) != len(model.observed_outputs):
            raise ValueError("oracle returned wrong number of output bits")
        patterns_used += 1

        n_lanes = len(survivors)
        packed = broadcast_inputs(model.a_inputs, scan_in, n_lanes)
        packed.update(broadcast_inputs(model.pi_inputs, pi, n_lanes))
        packed.update(zip(model.key_inputs, pack_lanes(survivors)))

        values = sim.run_packed(packed, n_lanes)
        mismatch = 0
        for net, bit in zip(model.observed_outputs, observed):
            mismatch |= values[net] ^ broadcast_bit(bit, n_lanes)
            if mismatch == lane_mask(n_lanes):
                break  # every remaining lane already mispredicts
        survivors = [
            seed
            for lane, seed in enumerate(survivors)
            if not (mismatch >> lane) & 1
        ]

    return RefinementResult(
        survivors=survivors,
        n_patterns_used=patterns_used,
        n_candidates_in=len(candidates),
    )


def attack_and_replay(
    model: CombinationalModel,
    query: Callable[[list[int], list[int]], list[int]],
    watch: Stopwatch,
    *,
    candidate_limit: int,
    timeout_s: float | None,
    opt_level: int | None,
    verify_patterns: int,
    rng_seed: int,
    stop_at_one: bool = True,
    choose: Callable[[list[list[int]]], list[int] | None] = (
        lambda survivors: survivors[0] if survivors else None
    ),
) -> AttackResult:
    """SAT-attack ``model`` through ``query``, then refine by replay.

    ``query(scan_in, pi)`` follows :func:`refine_candidates_by_replay`.
    :class:`SatAttack` optimizes the model at ``opt_level``, and replay
    simulates the netlist it encoded.  ``verify_patterns``, ``rng_seed``
    and ``stop_at_one`` set the replay (they fix the oracle query
    count).  ``choose`` picks the recovered key from the survivors (by
    default the first).  ``watch`` is the caller's running stopwatch, so
    ``runtime_s`` also covers building the model.
    """
    n_a = len(model.a_inputs)
    attack = SatAttack(
        locked=model.netlist,
        key_inputs=model.key_inputs,
        oracle_fn=lambda x_bits: query(x_bits[:n_a], x_bits[n_a:]),
        config=SatAttackConfig(
            candidate_limit=candidate_limit,
            timeout_s=timeout_s,
            opt_level=opt_level,
        ),
    )
    result = attack.run()

    recovered: list[int] | None = None
    if result.key_candidates:
        survivors = refine_candidates_by_replay(
            replace(model, netlist=attack.locked),
            result.key_candidates,
            query,
            random.Random(rng_seed),
            n_patterns=verify_patterns,
            stop_at_one=stop_at_one,
        ).survivors
        recovered = choose(survivors)

    watch.stop()
    return AttackResult(
        success=recovered is not None,
        recovered_key=recovered,
        key_candidates=result.key_candidates,
        iterations=result.iterations,
        runtime_s=watch.total,
        timed_out=result.timed_out,
    )
