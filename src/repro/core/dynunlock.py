"""The DynUnlock attack driver (the paper's Fig. 3 flowchart).

Pipeline per round:

1. **Model** — build the combinational locked circuit whose key inputs
   are the LFSR seed bits (:mod:`repro.core.modeling`).
2. **SAT attack** — run the oracle-guided DIP loop until no
   distinguishing pattern remains (:mod:`repro.attack.satattack`); the
   oracle is the physical chip queried through its obfuscated scan
   chain.  The whole loop shares one incremental solver session per
   round: the miter is encoded once and each DIP only appends clauses.
3. **Enumerate** — extract every seed assignment still consistent with
   all DIP responses ("seed candidates", Tables II/III).
4. **Restart** — if the candidate space is too large, rebuild the model
   with one more capture cycle, carrying over the seed bits already
   pinned down, and run again (the paper's restart step; none of the
   paper's benchmarks needed it and ours rarely do either).
5. **Refine** — brute-force the remaining candidates against the live
   oracle with fresh random patterns (:mod:`repro.attack.bruteforce`).

Success criterion: the surviving seed reproduces the chip's scrambled
responses on verification patterns, i.e. the attacker now owns transparent
scan access.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.attack.bruteforce import refine_candidates_by_replay
from repro.attack.satattack import SatAttack, SatAttackConfig, SatAttackResult
from repro.core.modeling import CombinationalModel, build_combinational_model
from repro.locking.effdyn import EffDynPublicView
from repro.netlist.netlist import Netlist
from repro.observability import spans as obs
from repro.scan.oracle import ScanOracle
from repro.util.timing import Stopwatch

# Capture cycles the restart refinement may grow the model to.
_MAX_CAPTURES = 3
# Random patterns the brute-force step replays, and the seed they come from.
_VERIFY_PATTERNS = 24
_VERIFY_RNG_SEED = 0xD15C0


@dataclass
class DynUnlockConfig:
    """Attack configuration.

    ``candidate_limit`` bounds candidate enumeration per round (the paper
    observes at most 128 candidates for practical key sizes);
    ``timeout_s`` is the wall-clock budget of each round's SAT attack.
    ``opt_level`` selects the :mod:`repro.opt` preprocessing level the
    combinational model is rewritten at before SAT encoding and
    bit-parallel replay (None = the default level, 0 = attack the raw
    model); the optimizer pins the model's interface, so recovered seeds
    are identical at every level.
    """

    candidate_limit: int = 256
    timeout_s: float | None = None
    opt_level: int | None = None


@dataclass
class RoundRecord:
    """Diagnostics for one model/SAT-attack round.

    ``conflicts``/``learned_clauses`` come from the round's incremental
    solver session and quantify how hard the SAT search actually was
    (wall-clock alone conflates search with oracle latency).
    """

    n_captures: int
    iterations: int
    n_candidates: int
    candidates_exhausted: bool
    converged: bool
    fixed_bits_carried: int
    runtime_s: float
    conflicts: int = 0
    learned_clauses: int = 0


@dataclass
class DynUnlockResult:
    """Attack outcome, aligned with the paper's reported columns."""

    success: bool
    recovered_seed: list[int] | None
    seed_candidates: list[list[int]]
    iterations: int  # total DIPs across rounds (paper: "# Iterations")
    n_seed_candidates: int  # paper: "# Seed candidates" (pre-brute-force)
    runtime_s: float  # paper: "Execution time"
    n_captures_used: int
    oracle_queries: int
    rounds: list[RoundRecord] = field(default_factory=list)
    sat_result: SatAttackResult | None = field(default=None, repr=False)
    model: CombinationalModel | None = field(default=None, repr=False)
    #: True when a round's SAT attack ran out of its wall-clock budget
    #: (:attr:`SatAttackResult.timed_out`); such an outcome depends on
    #: the machine's speed.
    timed_out: bool = False


class DynUnlock:
    """One attack instance bound to a public view, netlist and oracle.

    ``netlist`` is the reverse-engineered functional netlist (public
    under the threat model); the secrets live only inside ``oracle``.
    """

    def __init__(
        self,
        netlist: Netlist,
        public_view: EffDynPublicView,
        oracle: ScanOracle,
        config: DynUnlockConfig | None = None,
    ):
        self.netlist = netlist
        self.view = public_view
        self.oracle = oracle
        self.config = config or DynUnlockConfig()

    # ------------------------------------------------------------------
    def _build_model(self, n_captures: int) -> CombinationalModel:
        with obs.phase("model"):
            return build_combinational_model(
                self.netlist,
                spec=self.view.spec,
                taps=self.view.lfsr_taps,
                key_bits=self.view.lfsr_width,
                mode="dynamic",
                n_captures=n_captures,
            )

    def _oracle_fn(self, model: CombinationalModel, n_captures: int):
        n_a = len(model.a_inputs)

        def query(x_bits: list[int]) -> list[int]:
            return model.observe(
                self.oracle.query(
                    x_bits[:n_a], x_bits[n_a:], n_captures=n_captures
                )
            )

        return query

    # ------------------------------------------------------------------
    def run(self) -> DynUnlockResult:
        cfg = self.config
        watch = Stopwatch().start()
        queries_before = self.oracle.query_count

        rounds: list[RoundRecord] = []
        total_iterations = 0
        fixed_bits: dict[int, int] = {}
        model: CombinationalModel | None = None
        sat_result: SatAttackResult | None = None
        candidates: list[list[int]] = []

        timed_out = False
        for n_captures in range(1, _MAX_CAPTURES + 1):
            model = self._build_model(n_captures)
            oracle_fn = self._oracle_fn(model, n_captures)
            attack = SatAttack(
                locked=model.netlist,
                key_inputs=model.key_inputs,
                oracle_fn=oracle_fn,
                config=SatAttackConfig(
                    candidate_limit=cfg.candidate_limit,
                    timeout_s=cfg.timeout_s,
                    opt_level=cfg.opt_level,
                ),
                fixed_key_bits=fixed_bits,
            )
            # Replay simulates the netlist the attack encoded.
            model = replace(model, netlist=attack.locked)
            sat_result = attack.run()
            total_iterations += sat_result.iterations
            timed_out = timed_out or sat_result.timed_out
            rounds.append(
                RoundRecord(
                    n_captures=n_captures,
                    iterations=sat_result.iterations,
                    n_candidates=sat_result.n_candidates,
                    candidates_exhausted=sat_result.candidates_exhausted,
                    converged=sat_result.converged,
                    fixed_bits_carried=len(fixed_bits),
                    runtime_s=sat_result.runtime_s,
                    conflicts=sat_result.solver_stats.conflicts,
                    learned_clauses=sat_result.solver_stats.learned,
                )
            )
            candidates = sat_result.key_candidates
            needs_restart = sat_result.converged and sat_result.candidates_exhausted
            if not sat_result.converged:
                break  # budget exhausted; report what we have
            if not needs_restart:
                break
            # Restart step: carry pinned seed bits into a deeper model.
            fixed_bits = dict(sat_result.fixed_key_bits)

        n_captures_used = rounds[-1].n_captures if rounds else 1
        n_candidates_reported = len(candidates)

        # Brute-force refinement against the live oracle.
        recovered: list[int] | None = None
        if candidates and model is not None:
            with obs.phase("replay"):
                survivors = refine_candidates_by_replay(
                    model,
                    candidates,
                    lambda scan_in, pi: oracle_fn(scan_in + pi),
                    random.Random(_VERIFY_RNG_SEED),
                    n_patterns=_VERIFY_PATTERNS,
                    stop_at_one=False,
                ).survivors
            if survivors:
                recovered = survivors[0]

        watch.stop()
        if obs.active():
            obs.incr("rounds", len(rounds))
            obs.incr(
                "oracle_queries",
                # SatAttack already counted its DIP-loop queries; add the
                # brute-force replay traffic so the span total matches
                # the oracle's own ledger.
                max(0, self.oracle.query_count - queries_before - total_iterations),
            )
        return DynUnlockResult(
            success=recovered is not None,
            recovered_seed=recovered,
            seed_candidates=candidates,
            iterations=total_iterations,
            n_seed_candidates=n_candidates_reported,
            runtime_s=watch.total,
            n_captures_used=n_captures_used,
            oracle_queries=self.oracle.query_count - queries_before,
            rounds=rounds,
            sat_result=sat_result,
            model=model,
            timed_out=timed_out,
        )


def dynunlock(
    netlist: Netlist,
    public_view: EffDynPublicView,
    oracle: ScanOracle,
    config: DynUnlockConfig | None = None,
) -> DynUnlockResult:
    """Convenience wrapper: construct and run a :class:`DynUnlock`."""
    return DynUnlock(netlist, public_view, oracle, config).run()
