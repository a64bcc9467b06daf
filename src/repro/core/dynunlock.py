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
from dataclasses import dataclass, field

from repro.attack.bruteforce import refine_candidates_by_replay
from repro.attack.satattack import SatAttack, SatAttackConfig, SatAttackResult
from repro.core.modeling import CombinationalModel, build_combinational_model
from repro.locking.effdyn import EffDynPublicView
from repro.netlist.netlist import Netlist
from repro.observability import spans as obs
from repro.opt import optimize, resolve_level
from repro.scan.oracle import ScanOracle
from repro.util.timing import Stopwatch


@dataclass
class DynUnlockConfig:
    """Attack configuration.

    ``candidate_limit`` bounds candidate enumeration per round (the paper
    observes at most 128 candidates for practical key sizes);
    ``max_captures`` bounds the restart refinement; ``verify_patterns``
    sets the replay budget of the brute-force step.  ``opt_level``
    selects the :mod:`repro.opt` preprocessing level the combinational
    model is rewritten at before SAT encoding and bit-parallel replay
    (None = the default level, 0 = attack the raw model); the
    optimizer pins the model's interface, so recovered seeds are
    identical at every level.
    """

    candidate_limit: int = 256
    max_iterations: int = 10_000
    timeout_s: float | None = None
    max_captures: int = 3
    verify_patterns: int = 24
    include_pos: bool = True
    verify_rng_seed: int = 0xD15C0
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
            model = build_combinational_model(
                self.netlist,
                spec=self.view.spec,
                taps=self.view.lfsr_taps,
                key_bits=self.view.lfsr_width,
                mode="dynamic",
                n_captures=n_captures,
                include_pos=self.config.include_pos,
            )
        # Optimize once per round so the SAT session *and* the replay
        # refinement both consume the reduced netlist (the interface is
        # pinned, so a_inputs/key_inputs/b_outputs wiring is unchanged).
        if resolve_level(self.config.opt_level) > 0:
            model.netlist = optimize(
                model.netlist, level=self.config.opt_level
            ).netlist
        return model

    def _oracle_fn(self, model: CombinationalModel, n_captures: int):
        n_a = len(model.a_inputs)

        def query(x_bits: list[int]) -> list[int]:
            scan_in = x_bits[:n_a]
            pi = x_bits[n_a:]
            response = self.oracle.query(scan_in, pi, n_captures=n_captures)
            observed = list(response.scan_out)
            if model.po_outputs:
                observed += list(response.primary_outputs)
            return observed

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
        for n_captures in range(1, cfg.max_captures + 1):
            model = self._build_model(n_captures)
            attack = SatAttack(
                locked=model.netlist,
                key_inputs=model.key_inputs,
                oracle_fn=self._oracle_fn(model, n_captures),
                config=SatAttackConfig(
                    max_iterations=cfg.max_iterations,
                    candidate_limit=cfg.candidate_limit,
                    timeout_s=cfg.timeout_s,
                    opt_level=0,  # the model above is already optimized
                ),
                fixed_key_bits=fixed_bits,
            )
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
        survivors: list[list[int]] = []
        if candidates and model is not None:
            rng = random.Random(cfg.verify_rng_seed)

            def replay(scan_in: list[int], pi: list[int]) -> list[int]:
                response = self.oracle.query(
                    scan_in, pi, n_captures=n_captures_used
                )
                observed = list(response.scan_out)
                if model.po_outputs:
                    observed += list(response.primary_outputs)
                return observed

            with obs.phase("replay"):
                refinement = refine_candidates_by_replay(
                    model,
                    candidates,
                    replay,
                    rng,
                    n_patterns=cfg.verify_patterns,
                    stop_at_one=False,
                )
            survivors = refinement.survivors
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
