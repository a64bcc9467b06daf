"""The DOS adjustment: DynUnlock against per-pattern dynamic keys.

DOS updates its LFSR key every ``p`` patterns rather than every cycle.
The paper notes DynUnlock "can be adjusted to break other less rigorous
scan locking techniques"; the adjustment is embarrassingly small given
the power-on-reset threat model: restarting the chip before each query
freezes the key at the first LFSR update, ``T @ seed``.  The attack then
runs the ``dos_restart`` model -- a *static* overlay whose key bits are
the one-step-unrolled LFSR outputs -- and recovers the seed directly
(the LFSR equations are part of the model, so candidates are seeds, not
intermediate keys).  The attack runs
:func:`repro.attack.bruteforce.attack_and_replay` and picks the seed
among the replay survivors with a full keystream replay.
"""

from __future__ import annotations

import random

from repro.attack.bruteforce import attack_and_replay
from repro.attack.satattack import AttackResult
from repro.core.modeling import build_combinational_model
from repro.locking.dos import DosPublicView
from repro.netlist.netlist import Netlist
from repro.scan.oracle import ScanOracle
from repro.util.timing import Stopwatch

# Replay patterns per refinement step, and the seed they come from.
_VERIFY_PATTERNS = 16
_RNG_SEED = 0xD05


def scansat_dyn_attack(
    netlist: Netlist,
    public_view: DosPublicView,
    oracle: ScanOracle,
    candidate_limit: int = 256,
    timeout_s: float | None = None,
    opt_level: int | None = None,
) -> AttackResult:
    """Recover the DOS LFSR seed (works for any update period ``p``).

    ``recovered_key`` is the seed.
    """
    watch = Stopwatch().start()
    model = build_combinational_model(
        netlist,
        spec=public_view.spec,
        taps=public_view.lfsr_taps,
        key_bits=public_view.lfsr_width,
        mode="dos_restart",
    )
    return attack_and_replay(
        model,
        lambda scan_in, pi: model.observe(oracle.query(scan_in, pi)),
        watch,
        candidate_limit=candidate_limit,
        timeout_s=timeout_s,
        opt_level=opt_level,
        verify_patterns=_VERIFY_PATTERNS,
        rng_seed=_RNG_SEED,
        choose=lambda survivors: _full_replay_survivor(
            netlist,
            public_view,
            oracle,
            survivors,
            random.Random(_RNG_SEED ^ 0x51D),
            _VERIFY_PATTERNS,
        ),
    )


def _full_replay_survivor(
    netlist: Netlist,
    public_view: DosPublicView,
    oracle: ScanOracle,
    survivors: list[list[int]],
    rng: random.Random,
    n_patterns: int,
) -> list[int] | None:
    """First survivor whose *full* keystream replay matches the chip.

    The ``dos_restart`` model only observes the first LFSR update, so
    seeds sharing ``T @ seed`` are indistinguishable to the model-based
    refinement even when their later keystream diverges (the boundary
    edge of a query can consume the second update).  Rebuild the real
    per-pattern keystream oracle from each candidate seed and demand
    query-for-query agreement with the live chip -- the same criterion
    the fuzzer's independent attack-replay invariant applies.
    """
    from repro.locking.dos import PerPatternKeystream
    from repro.prng.lfsr import FibonacciLfsr
    from repro.util.bitvec import random_bits

    if not survivors:
        return None
    n = public_view.spec.n_flops
    patterns = [
        (random_bits(n, rng), random_bits(len(netlist.inputs), rng))
        for _ in range(n_patterns)
    ]
    live = [oracle.query(scan_in, pi) for scan_in, pi in patterns]
    for seed in survivors:
        try:
            lfsr = FibonacciLfsr(
                width=len(seed), seed_bits=seed, taps=public_view.lfsr_taps
            )
        except ValueError:  # degenerate seed (e.g. all-zero)
            continue
        replay = ScanOracle(
            netlist,
            public_view.spec,
            PerPatternKeystream(lfsr, 2 * n, public_view.period_p),
        )
        matches = True
        for (scan_in, pi), want in zip(patterns, live):
            got = replay.query(scan_in, pi)
            if (
                got.scan_out != want.scan_out
                or got.primary_outputs != want.primary_outputs
            ):
                matches = False
                break
        if matches:
            return seed
    return None

