"""Metamorphic invariants the fuzzer checks on every trial.

Three per-trial invariants live here; all are *differential*: each
compares two independent computation paths that must agree, so a
violation localises a soundness bug rather than a tuning regression.

``key-equivalence``
    The locked design operated with its correct key is functionally
    identical to the original netlist.  The reference side is a
    bit-parallel replay (:class:`~repro.sim.logicsim.BitParallelSimulator`
    over packed pattern lanes) of the *unlocked* netlist; the measured
    side is whatever "authorized user" surface the lock family exposes
    (authenticated oracle, obfuscation bypass, correct-key netlist).

``attack-replay``
    Any key/seed an attack reports as recovered must reproduce the live
    oracle's responses when replayed through an independently
    constructed oracle -- and a successful outcome must carry the
    verified bit.  This is deliberately *not* the attack adapter's own
    verification: the replay oracle here is rebuilt from the recovered
    secret by this module, so an adapter that rubber-stamps its own
    answer still gets caught.

``opt-equivalence``
    The :mod:`repro.opt` optimizer applied to the trial's sampled
    netlist must preserve the interface exactly and the replay
    behaviour bit-for-bit at every level -- the adversarial test bed
    for the pass pipeline that every attack now encodes through.

Both checkers dispatch on the concrete lock class (every family needs a
different notion of "operate with the correct key"), draw all patterns
from the caller's rng, and return plain violation records so results
stay JSON-safe for the runner cache and the crash corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.locking.dfs import DfsLock
from repro.locking.dos import DosLock, PerPatternKeystream
from repro.locking.eff import ConstantKeystream, EffStaticLock
from repro.locking.effdyn import EffDynLock
from repro.locking.iolock import IoLock
from repro.locking.scramble import ScrambleLock, swap_index_map
from repro.netlist.netlist import Netlist
from repro.prng.lfsr import FibonacciLfsr, Keystream
from repro.scan.oracle import ScanOracle
from repro.sim.logicsim import BitParallelSimulator
from repro.util.bitvec import pack_lanes, random_bits

#: Invariant names (= crash-corpus subdirectories).
KEY_EQUIVALENCE = "key-equivalence"
ATTACK_REPLAY = "attack-replay"
OPT_EQUIVALENCE = "opt-equivalence"
EXEC_STABILITY = "exec-stability"
CACHE_STABILITY = "cache-stability"
CRASH = "crash"  # the trial cell raised instead of returning a result

#: The invariants a corpus entry can deterministically re-demonstrate in
#: a single process (the stability pair needs a pool/store to diverge).
REPLAYABLE_INVARIANTS = (KEY_EQUIVALENCE, ATTACK_REPLAY, OPT_EQUIVALENCE, CRASH)

#: Scan-protocol queries per differential check.  Protocol simulation is
#: the slow side, so this stays small; the bit-parallel reference side is
#: effectively free at any width.
N_SCAN_PATTERNS = 6
#: Packed lanes per combinational check (one bitwise pass evaluates all).
N_COMB_PATTERNS = 32


@dataclass(frozen=True)
class InvariantViolation:
    """One observed invariant failure (JSON-safe)."""

    invariant: str
    detail: str

    def as_dict(self) -> dict:
        return {"invariant": self.invariant, "detail": self.detail}


# ----------------------------------------------------------------------
# bit-parallel reference predictions
# ----------------------------------------------------------------------
def predict_capture(
    netlist: Netlist,
    states: Sequence[Sequence[int]],
    pis: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Ground-truth single-capture scan responses, one packed pass.

    For each lane: load ``states[j]`` (chain position ``l`` = flop ``l``
    in the netlist's canonical order), apply ``pis[j]``, one functional
    edge.  Returns ``(scan_out_rows, po_rows)`` -- the captured
    next-state per flop and the primary outputs sampled before the edge,
    exactly the protocol semantics of an unobfuscated
    :meth:`~repro.scan.oracle.ScanOracle.query`.
    """
    n_lanes = len(states)
    sim = BitParallelSimulator(netlist)
    packed = dict(zip(netlist.inputs, pack_lanes([list(p) for p in pis])))
    packed.update(
        zip(netlist.dff_q_nets(), pack_lanes([list(s) for s in states]))
    )
    words = sim.run_packed(packed, n_lanes)
    scan_rows = [
        [(words[d] >> lane) & 1 for d in netlist.dff_d_nets()]
        for lane in range(n_lanes)
    ]
    po_rows = [
        [(words[o] >> lane) & 1 for o in netlist.outputs]
        for lane in range(n_lanes)
    ]
    return scan_rows, po_rows


def _comb_outputs_packed(
    netlist: Netlist,
    free_values: dict[str, list[list[int]]],
) -> list[list[int]]:
    """Output rows of a flop-free netlist for per-net pattern columns."""
    n_lanes = len(next(iter(free_values.values())))
    sim = BitParallelSimulator(netlist)
    packed = {
        net: sum((bit & 1) << lane for lane, bit in enumerate(column))
        for net, column in free_values.items()
    }
    out_words = sim.run_packed_outputs(packed, n_lanes)
    return [
        [(word >> lane) & 1 for word in out_words] for lane in range(n_lanes)
    ]


# ----------------------------------------------------------------------
# key-equivalence
# ----------------------------------------------------------------------
def check_key_equivalence(
    lock, rng: random.Random, n_patterns: int | None = None
) -> list[InvariantViolation]:
    """Correct-key behaviour == original netlist, per lock family."""
    if isinstance(lock, (EffStaticLock, DosLock, EffDynLock)):
        return _check_scan_overlay(lock, rng, n_patterns or N_SCAN_PATTERNS)
    if isinstance(lock, ScrambleLock):
        return _check_scramble(lock, rng, n_patterns or N_SCAN_PATTERNS)
    if isinstance(lock, DfsLock):
        return _check_dfs(lock, rng, n_patterns or N_COMB_PATTERNS)
    if isinstance(lock, IoLock):
        return _check_iolock(lock, rng, n_patterns or N_COMB_PATTERNS)
    return [
        InvariantViolation(
            KEY_EQUIVALENCE,
            f"no equivalence checker for lock type {type(lock).__name__}",
        )
    ]


def _check_scan_overlay(lock, rng, n_patterns) -> list[InvariantViolation]:
    """EFF / DOS / EFF-Dyn: bypassed obfuscation == bit-parallel replay."""
    netlist = lock.netlist
    states = [random_bits(netlist.n_dffs, rng) for _ in range(n_patterns)]
    pis = [random_bits(len(netlist.inputs), rng) for _ in range(n_patterns)]
    want_scan, want_po = predict_capture(netlist, states, pis)

    violations: list[InvariantViolation] = []
    oracle = lock.make_oracle()
    for j in range(n_patterns):
        response = oracle.unlocked_query(states[j], pis[j])
        if response.scan_out != want_scan[j] or (
            response.primary_outputs != want_po[j]
        ):
            violations.append(
                InvariantViolation(
                    KEY_EQUIVALENCE,
                    f"unlocked_query diverges from bit-parallel replay on "
                    f"pattern {j}",
                )
            )
            break

    # EFF-Dyn additionally exposes the authenticated-tester path: the
    # correct TPM key must make the oracle fully transparent.
    if isinstance(lock, EffDynLock) and not violations:
        auth = lock.make_oracle(test_key=list(lock.secret_key))
        for j in range(n_patterns):
            response = auth.query(states[j], pis[j])
            if response.scan_out != want_scan[j] or (
                response.primary_outputs != want_po[j]
            ):
                violations.append(
                    InvariantViolation(
                        KEY_EQUIVALENCE,
                        f"authenticated oracle is not transparent on "
                        f"pattern {j}",
                    )
                )
                break
    return violations


def _check_scramble(lock, rng, n_patterns) -> list[InvariantViolation]:
    """A tester holding the key sees the documented chain order."""
    netlist = lock.netlist
    mapping = swap_index_map(lock.chains, lock.swap_pairs, lock.secret_key)
    states = [random_bits(netlist.n_dffs, rng) for _ in range(n_patterns)]
    pis = [random_bits(len(netlist.inputs), rng) for _ in range(n_patterns)]
    want_scan, want_po = predict_capture(netlist, states, pis)
    oracle = lock.make_oracle()
    for j in range(n_patterns):
        # Pre-permute the pattern and post-permute the response with the
        # correct key (the map is an involution); the result must be the
        # clean multi-chain behaviour = the bit-parallel prediction.
        routed_in = [states[j][mapping[g]] for g in range(len(mapping))]
        response = oracle.query(routed_in, pis[j])
        descrambled = [
            response.scan_out[mapping[g]] for g in range(len(mapping))
        ]
        if descrambled != want_scan[j] or (
            response.primary_outputs != want_po[j]
        ):
            return [
                InvariantViolation(
                    KEY_EQUIVALENCE,
                    f"descrambled response diverges from bit-parallel "
                    f"replay on pattern {j}",
                )
            ]
    return []


def _check_dfs(lock: DfsLock, rng, n_patterns) -> list[InvariantViolation]:
    """DFS: the PO-only oracle == the original (pre-lock) netlist's POs."""
    original = lock.rll.original
    oracle = lock.make_oracle()
    functional = oracle.functional_inputs
    for j in range(n_patterns):
        state = random_bits(original.n_dffs, rng)
        pi = random_bits(len(functional), rng)
        observed = oracle.load_and_observe(state, pi)
        _, want_po = predict_capture(original, [state], [pi])
        if observed != want_po[0]:
            return [
                InvariantViolation(
                    KEY_EQUIVALENCE,
                    f"load_and_observe diverges from the original netlist "
                    f"on pattern {j}",
                )
            ]
    return []


def _check_iolock(lock: IoLock, rng, n_patterns) -> list[InvariantViolation]:
    """Comb-IO locks: locked core + secret key == original core, packed."""
    mismatch = _io_key_mismatch(lock, list(lock.secret_key), rng, n_patterns)
    if mismatch is not None:
        return [
            InvariantViolation(
                KEY_EQUIVALENCE,
                f"locked core with the secret key diverges from the "
                f"original on pattern {mismatch}",
            )
        ]
    return []


def _io_key_mismatch(
    lock: IoLock, key: Sequence[int], rng, n_patterns
) -> int | None:
    """First pattern index where locked(key) != original, else None."""
    key_set = set(lock.key_inputs)
    x_nets = [net for net in lock.locked.inputs if net not in key_set]
    if set(lock.original.inputs) != set(x_nets):
        # A plugin whose locked core renames or drops oracle inputs has
        # no by-name alignment; surface that as a loud plugin bug (the
        # campaign records the raised error as a crash violation).
        raise ValueError(
            "locked core's non-key inputs do not match the original's: "
            f"{sorted(x_nets)} vs {sorted(lock.original.inputs)}"
        )
    x_rows = [random_bits(len(x_nets), rng) for _ in range(n_patterns)]
    # Columns are keyed by net NAME on both sides, so an IoLock that
    # interleaves or reorders key inputs still compares like with like.
    x_columns = {
        net: [row[i] for row in x_rows] for i, net in enumerate(x_nets)
    }
    free = dict(x_columns)
    free.update(
        {
            net: [int(bit)] * n_patterns
            for net, bit in zip(lock.key_inputs, key)
        }
    )
    locked_rows = _comb_outputs_packed(lock.locked, free)
    original_rows = _comb_outputs_packed(lock.original, x_columns)
    # Align output orders by name: the locked core re-declares the same
    # output nets, but defensively map instead of assuming identical order.
    locked_index = {net: k for k, net in enumerate(lock.locked.outputs)}
    order = [locked_index[net] for net in lock.original.outputs]
    for j in range(n_patterns):
        if [locked_rows[j][k] for k in order] != original_rows[j]:
            return j
    return None


# ----------------------------------------------------------------------
# opt-equivalence
# ----------------------------------------------------------------------
def check_opt_equivalence(
    netlist: Netlist,
    rng: random.Random,
    n_patterns: int | None = None,
) -> list[InvariantViolation]:
    """``optimize(netlist) == netlist`` under bit-parallel replay.

    The optimizer (level 1; level 0 is the identity by definition) must
    keep the interface (input/output/flop names and order)
    byte-identical and the observed behaviour -- captured next-state per
    flop plus primary outputs, the exact :func:`predict_capture`
    semantics -- equal on random packed pattern lanes.  This is how the
    optimizer is adversarially tested by the campaign machinery: every
    sampled circuit shape exercises it, failures shrink and land in the
    crash corpus like any other bug.
    """
    from repro.opt import optimize

    n = n_patterns or N_COMB_PATTERNS
    states = [random_bits(netlist.n_dffs, rng) for _ in range(n)]
    pis = [random_bits(len(netlist.inputs), rng) for _ in range(n)]
    want = predict_capture(netlist, states, pis)

    optimized = optimize(netlist, level=1).netlist
    if (
        optimized.inputs != netlist.inputs
        or optimized.outputs != netlist.outputs
        or list(optimized.dffs) != list(netlist.dffs)
        or [d.d for d in optimized.dffs.values()]
        != [d.d for d in netlist.dffs.values()]
    ):
        return [
            InvariantViolation(
                OPT_EQUIVALENCE,
                "level 1 optimization altered the netlist interface "
                "(pinned nets must survive unchanged)",
            )
        ]
    if predict_capture(optimized, states, pis) != want:
        return [
            InvariantViolation(
                OPT_EQUIVALENCE,
                "level 1 optimization diverges from the original netlist "
                "under bit-parallel replay",
            )
        ]
    return []


# ----------------------------------------------------------------------
# attack-replay
# ----------------------------------------------------------------------
def check_attack_replay(
    lock, outcome, rng: random.Random, n_patterns: int | None = None
) -> list[InvariantViolation]:
    """A claimed success must survive independent oracle replay.

    ``outcome`` is the normalised
    :class:`~repro.matrix.registry.AttackOutcome`.  Failed attacks are
    fine (the defense may genuinely resist at this size); *successful*
    ones must (a) carry the verified bit and (b) hold a key/seed that
    reproduces the real oracle's responses through a replay oracle built
    here, from scratch, out of the recovered secret.
    """
    if not outcome.success:
        return []
    violations: list[InvariantViolation] = []
    if not outcome.verified:
        violations.append(
            InvariantViolation(
                ATTACK_REPLAY, "successful outcome without the verified bit"
            )
        )
    if outcome.recovered_key is None:
        violations.append(
            InvariantViolation(
                ATTACK_REPLAY, "successful outcome without a recovered key"
            )
        )
        return violations
    key = [int(b) for b in outcome.recovered_key]
    try:
        detail = _replay_mismatch(
            lock, key, rng, n_patterns or N_SCAN_PATTERNS
        )
    except Exception as exc:  # degenerate key (e.g. all-zero LFSR seed)
        detail = f"replay oracle rejected the recovered key: {exc}"
    if detail is not None:
        violations.append(InvariantViolation(ATTACK_REPLAY, detail))
    return violations


def _replay_mismatch(
    lock, key: list[int], rng, n_patterns
) -> str | None:
    """None when the recovered key replays cleanly, else a description."""
    if isinstance(lock, EffStaticLock):
        replay = ScanOracle(lock.netlist, lock.spec, ConstantKeystream(key))
        return _compare_scan_oracles(lock, replay, rng, n_patterns)
    if isinstance(lock, EffDynLock):
        replay = ScanOracle(
            lock.netlist,
            lock.spec,
            Keystream(
                FibonacciLfsr(
                    width=len(key), seed_bits=key, taps=lock.lfsr_taps
                )
            ),
        )
        return _compare_scan_oracles(lock, replay, rng, n_patterns)
    if isinstance(lock, DosLock):
        lfsr = FibonacciLfsr(
            width=len(key), seed_bits=key, taps=lock.lfsr_taps
        )
        replay = ScanOracle(
            lock.netlist,
            lock.spec,
            PerPatternKeystream(
                lfsr, 2 * lock.spec.n_flops, lock.period_p
            ),
        )
        return _compare_scan_oracles(lock, replay, rng, n_patterns)
    if isinstance(lock, ScrambleLock):
        recovered_map = swap_index_map(lock.chains, lock.swap_pairs, key)
        true_map = swap_index_map(
            lock.chains, lock.swap_pairs, lock.secret_key
        )
        if recovered_map == true_map:
            return None
        # Distinct permutations can still be observationally correct
        # when the circuit is symmetric under the swapped flops (the
        # fuzzer found exactly this on 1x1x1 chains), so fall back to a
        # behavioural comparison instead of flagging the key shape.
        from repro.locking.scramble import ScrambleScanOracle

        replay = ScrambleScanOracle(
            lock.netlist, lock.chains, lock.swap_pairs, key
        )
        return _compare_scan_oracles(lock, replay, rng, n_patterns)
    if isinstance(lock, DfsLock):
        return _replay_dfs(lock, key, rng, n_patterns)
    if isinstance(lock, IoLock):
        mismatch = _io_key_mismatch(lock, key, rng, N_COMB_PATTERNS)
        if mismatch is not None:
            return (
                f"recovered key diverges from the oracle on pattern "
                f"{mismatch}"
            )
        return None
    return f"no replay model for lock type {type(lock).__name__}"


def _compare_scan_oracles(lock, replay, rng, n_patterns) -> str | None:
    """Replay oracle must reproduce the live oracle query-for-query."""
    live = lock.make_oracle()
    n = lock.netlist.n_dffs
    for j in range(n_patterns):
        pattern = random_bits(n, rng)
        pis = random_bits(len(lock.netlist.inputs), rng)
        a = live.query(pattern, pis)
        b = replay.query(pattern, pis)
        if a.scan_out != b.scan_out or a.primary_outputs != b.primary_outputs:
            return f"recovered key diverges from the oracle on query {j}"
    return None


def _replay_dfs(lock: DfsLock, key, rng, n_patterns) -> str | None:
    """Recovered RLL key must predict the PO-only oracle's answers."""
    oracle = lock.make_oracle()
    locked = lock.rll.locked
    functional = oracle.functional_inputs
    from repro.sim.logicsim import CombinationalSimulator

    sim = CombinationalSimulator(locked)
    for j in range(n_patterns):
        state = random_bits(locked.n_dffs, rng)
        pi = random_bits(len(functional), rng)
        observed = oracle.load_and_observe(state, pi)
        inputs = dict(zip(functional, pi))
        inputs.update(zip(lock.rll.key_inputs, key))
        values = sim.run(inputs, dict(zip(locked.dff_q_nets(), state)))
        if [values[net] for net in locked.outputs] != observed:
            return f"recovered key diverges from the oracle on query {j}"
    return None
