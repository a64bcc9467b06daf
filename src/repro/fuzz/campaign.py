"""The seeded differential-fuzzing campaign driver.

One campaign = ``trials`` independent trials drawn from a single seeded
RNG stream: trial ``i``'s circuit shape, key width and (attack, defense)
pair are all derived from ``hash_label(seed, "fuzz/trial/i")``, so a
campaign is fully described by ``(profile, trials, seed)`` -- rerunning
it reproduces every trial, every violation, and every corpus entry
byte-for-byte, regardless of ``--jobs``.

Trials execute as ``"fuzz"`` :class:`~repro.runner.spec.JobSpec`s
through the cached parallel scheduler, which makes campaigns parallel,
resumable and memoised like every other experiment grid.  Trial results
deliberately contain *no wall-clock fields*: determinism is the product
being tested, so the cell's output must be a pure function of its spec.

On top of the per-trial invariants (checked inside the cell), the driver
itself runs two meta-invariants on a deterministic subsample of trials:

* ``exec-stability``  -- the scheduler-returned result must equal an
  in-process re-execution of the same spec (covers serial vs ``--jobs
  N`` and, for cache hits, cache-replay vs fresh);
* ``cache-stability`` -- a result-store round-trip must hand back the
  fresh result byte-for-byte.

Failing trials are shrunk (:mod:`repro.fuzz.shrink`) and persisted to
the crash corpus (:mod:`repro.fuzz.corpus`).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bench_suite.generator import (
    config_from_dict,
    config_to_dict,
    generate_circuit,
    sample_config,
)
from repro.fuzz.corpus import CrashEntry, write_entry
from repro.fuzz.invariants import (
    CACHE_STABILITY,
    CRASH,
    EXEC_STABILITY,
    REPLAYABLE_INVARIANTS,
    check_attack_replay,
    check_key_equivalence,
    check_opt_equivalence,
)
from repro.fuzz.shrink import shrink_trial
from repro.matrix.registry import (
    get_attack,
    get_defense,
    sample_applicable_pair,
)
from repro.runner.scheduler import JobOutcome, run_jobs
from repro.runner.spec import JobSpec
from repro.util.rng import hash_label

#: Widest key the fuzzer samples.  Keys beyond this blow up the
#: exhaustive attacks (brute force, point-function SAT) without adding
#: shape diversity, which is what the fuzzer is for.
FUZZ_MAX_KEY_BITS = 6

#: Every how many trials the driver runs the stability meta-checks.
STABILITY_EVERY = 8


def sample_trial_params(
    campaign_seed: int, index: int, opt_level: int | None = None
) -> dict[str, Any]:
    """Derive trial ``index``'s full parameter dict from the campaign seed.

    All randomness flows through one ``hash_label`` stream keyed by the
    campaign seed and the trial index; the resulting dict is flat and
    JSON-safe so it can live in a :class:`JobSpec` and a corpus entry.

    The resolved netlist-optimization level is captured into the params
    (not sampled): it participates in the spec hash and is persisted in
    every crash-corpus entry, so ``fuzz-replay`` re-runs a shrunk trial
    at the level the failure was recorded at -- replays stay
    reproducible even after the default level changes.
    """
    from repro.opt import resolve_level

    rng = random.Random(hash_label(campaign_seed, f"fuzz/trial/{index}"))
    config = sample_config(rng)
    attack, defense = sample_applicable_pair(rng)
    cap = get_defense(defense).default_key_bits or FUZZ_MAX_KEY_BITS
    cap = max(1, min(cap, FUZZ_MAX_KEY_BITS, config.n_flops - 1))
    key_bits = rng.randint(1, cap)
    return {
        "attack": attack,
        "defense": defense,
        "key_bits": key_bits,
        "opt_level": resolve_level(opt_level),
        "trial_seed": hash_label(campaign_seed, f"fuzz/circuit/{index}"),
        # Via the serialization hook, not hand-enumeration: a field
        # added to GeneratorConfig automatically joins the spec hash,
        # the cache key, and the crash corpus.
        **config_to_dict(config),
    }


def fuzz_trial_specs(
    profile, trials: int, seed: int, opt_level: int | None = None
) -> list[JobSpec]:
    """Enumerate a whole campaign as scheduler specs."""
    return [
        JobSpec.make("fuzz", profile, **sample_trial_params(seed, i, opt_level))
        for i in range(trials)
    ]


def fuzz_cell(
    profile,
    *,
    attack: str,
    defense: str,
    key_bits: int,
    trial_seed: int,
    n_flops: int,
    n_inputs: int,
    n_outputs: int,
    gates_per_flop: float,
    max_fanin: int,
    locality: int,
    opt_level: int | None = None,
) -> dict[str, Any]:
    """Run one fuzz trial: build, check equivalence, attack, check replay.

    Returns a JSON-safe dict with **no wall-clock fields** -- the result
    must be a pure function of the spec (that purity is itself one of
    the invariants under test).  A lock that cannot be built at this
    shape (e.g. scramble with no equal-length chain pair) is an honest
    structural skip, not a violation.

    ``opt_level`` is the optimization level the trial's attack runs at
    (recorded by :func:`sample_trial_params`, persisted in corpus
    entries); the opt-equivalence invariant checks the optimizer on the
    sampled circuit whatever level the attack runs at.
    """
    from repro.matrix.registry import call_attack
    from repro.opt import resolve_level

    config = config_from_dict(
        {
            "n_flops": n_flops,
            "n_inputs": n_inputs,
            "n_outputs": n_outputs,
            "gates_per_flop": gates_per_flop,
            "max_fanin": max_fanin,
            "locality": locality,
        }
    )
    attack_spec = get_attack(attack)
    defense_spec = get_defense(defense)
    level = resolve_level(opt_level)
    rng = random.Random(hash_label(trial_seed, f"fuzz/{defense}/{attack}"))
    netlist = generate_circuit(config, rng, name=f"fuzz{trial_seed % 0xFFFF:04x}")
    kb = max(1, min(key_bits, netlist.n_dffs - 1))
    base = {
        "attack": attack,
        "defense": defense,
        "n_flops": netlist.n_dffs,
        "built": False,
        "key_bits": kb,
        "opt_level": level,
        "success": False,
        "verified": False,
        "iterations": 0,
        "queries": 0,
        "violations": [],
    }
    violations = [v.as_dict() for v in check_opt_equivalence(netlist, rng)]
    try:
        lock = defense_spec.build(netlist, kb, rng)
    except ValueError as exc:
        base["skip_reason"] = str(exc)
        base["violations"] = violations
        return base
    base["built"] = True
    base["key_bits"] = int(getattr(lock, "key_bits", kb))

    violations += [v.as_dict() for v in check_key_equivalence(lock, rng)]
    outcome = call_attack(
        attack_spec,
        lock,
        profile=profile,
        timeout_s=profile.timeout_s,
        opt_level=level,
    )
    violations += [v.as_dict() for v in check_attack_replay(lock, outcome, rng)]
    base.update(
        success=bool(outcome.success),
        verified=bool(outcome.verified),
        iterations=int(outcome.iterations),
        queries=int(outcome.queries),
        violations=violations,
    )
    return base


def _canonical(result: dict | None) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


@dataclass
class CampaignReport:
    """Everything one campaign produced, in trial order."""

    seed: int
    n_trials: int
    outcomes: list[JobOutcome] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    n_not_run: int = 0  # trials skipped by the time budget
    n_cached: int = 0
    n_computed: int = 0
    wall_s: float = 0.0
    corpus_paths: list[str] = field(default_factory=list)

    @property
    def n_skipped_builds(self) -> int:
        """Trials whose lock was structurally impossible at that shape."""
        return sum(
            1
            for o in self.outcomes
            if o.ok and not o.result.get("built", False)
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        # outcomes holds only dispatched trials; n_not_run is the rest.
        ran = len(self.outcomes)
        parts = [
            f"{ran}/{self.n_trials} trial(s) run "
            f"({self.n_computed} computed, {self.n_cached} cached, "
            f"{self.n_skipped_builds} unbuildable)",
            f"{len(self.violations)} violation(s)",
            f"{self.wall_s:.2f}s wall",
        ]
        if self.n_not_run:
            parts.insert(1, f"{self.n_not_run} not run (time budget)")
        return "; ".join(parts)


FUZZ_HEADERS = [
    "Defense",
    "Attack",
    "Trials",
    "Unbuildable",
    "Broken",
    "Violations",
]


def campaign_rows(report: CampaignReport) -> list[list]:
    """Aggregate trial outcomes per (defense, attack) pair, sampled order."""
    grouped: dict[tuple[str, str], dict[str, int]] = {}
    for outcome in report.outcomes:
        if not outcome.ok or outcome.result is None:
            continue
        key = (
            outcome.spec.params["defense"],
            outcome.spec.params["attack"],
        )
        stats = grouped.setdefault(
            key, {"trials": 0, "unbuildable": 0, "broken": 0, "violations": 0}
        )
        stats["trials"] += 1
        if not outcome.result.get("built", False):
            stats["unbuildable"] += 1
        if outcome.result.get("success") and outcome.result.get("verified"):
            stats["broken"] += 1
        stats["violations"] += len(outcome.result.get("violations", []))
    for violation in report.violations:
        # Cell-level violations were already counted out of the result
        # dicts above; driver-level ones (stability pair, crashes) are
        # added here.  A pair whose every trial crashed has no ok
        # outcome, so the group may not exist yet -- create it rather
        # than silently dropping the row from the table and artifact.
        if violation["invariant"] not in (
            EXEC_STABILITY,
            CACHE_STABILITY,
            CRASH,
        ):
            continue
        trial = violation.get("trial", {})
        key = (trial.get("defense", "?"), trial.get("attack", "?"))
        stats = grouped.setdefault(
            key, {"trials": 0, "unbuildable": 0, "broken": 0, "violations": 0}
        )
        stats["violations"] += 1
        if violation["invariant"] == CRASH:
            # A crashed trial produced no ok outcome, so the first loop
            # never counted it; keep the Trials column honest.
            stats["trials"] += 1
    return [
        [defense, attack, s["trials"], s["unbuildable"], s["broken"], s["violations"]]
        for (defense, attack), s in sorted(grouped.items())
    ]


ProgressFn = Callable[[str], None]


def run_campaign(
    profile,
    *,
    trials: int,
    seed: int,
    jobs: int = 1,
    store=None,
    time_budget_s: float | None = None,
    corpus_dir: str | None = None,
    progress: ProgressFn | None = None,
    stability_every: int = STABILITY_EVERY,
    shrink_limit: int = 8,
    shrink_evals: int = 48,
    opt_level: int | None = None,
    observer=None,
) -> CampaignReport:
    """Run one seeded campaign end to end; see the module docstring.

    ``time_budget_s`` bounds *scheduling*: the driver dispatches trials
    in chunks and stops starting new ones once the budget is spent
    (already-dispatched chunks finish).  Violations are shrunk (up to
    ``shrink_limit`` of them) and written to ``corpus_dir`` when given.
    ``opt_level`` overrides the optimization level recorded into every
    trial (None = the default level).  ``observer`` (a
    :class:`~repro.observability.session.RunObserver`) instruments the
    trial scheduling; the invariant checks and shrinking run in-process
    and are reported only through campaign-level metrics.
    """
    started = time.perf_counter()
    say = progress if progress is not None else (lambda _msg: None)
    specs = fuzz_trial_specs(profile, trials, seed, opt_level)
    report = CampaignReport(seed=seed, n_trials=trials)

    from repro.reports.experiments import adapt_progress

    # Without a budget there is no reason to pay per-chunk pool spin-up.
    chunk_size = max(1, jobs) * 4 if time_budget_s is not None else len(specs)
    cursor = 0
    while cursor < len(specs):
        if (
            time_budget_s is not None
            and cursor > 0
            and time.perf_counter() - started > time_budget_s
        ):
            break
        chunk = specs[cursor : cursor + chunk_size]
        chunk_report = run_jobs(
            chunk,
            jobs=jobs,
            store=store,
            progress=adapt_progress(say),
            observer=observer,
        )
        for outcome in chunk_report.outcomes:
            outcome.index += cursor  # chunk-local -> campaign-global
        report.outcomes.extend(chunk_report.outcomes)
        report.n_cached += chunk_report.n_cached
        report.n_computed += chunk_report.n_computed
        cursor += len(chunk)
    report.n_not_run = len(specs) - len(report.outcomes)

    collect_violations(report, stability_every, say)
    shrink_and_persist(
        report, profile, corpus_dir, shrink_limit, shrink_evals, say
    )
    report.wall_s = time.perf_counter() - started
    return report


def collect_violations(
    report: CampaignReport,
    stability_every: int,
    say: ProgressFn,
) -> None:
    """Gather cell-level violations, crashes, and stability mismatches.

    The cache-stability probe deliberately uses an isolated throwaway
    store (not the campaign's own): resume state must not be able to
    mask a JSON-encoding instability.
    """
    from repro.reports.cells import run_cell
    from repro.runner.stores import open_store

    for outcome in report.outcomes:
        trial = dict(outcome.spec.params)
        if not outcome.ok:
            report.violations.append(
                {
                    "invariant": CRASH,
                    "detail": outcome.error or "trial raised",
                    "index": outcome.index,
                    "trial": trial,
                }
            )
            continue
        for violation in outcome.result.get("violations", []):
            report.violations.append(
                {
                    "invariant": violation["invariant"],
                    "detail": violation["detail"],
                    "index": outcome.index,
                    "trial": trial,
                }
            )

        if stability_every and outcome.index % stability_every == 0:
            try:
                fresh = run_cell(outcome.spec)
            except Exception as exc:
                # The pool run succeeded but the in-process rerun
                # raised: a nondeterministic crash is itself a finding,
                # not a reason to abort the campaign.
                report.violations.append(
                    {
                        "invariant": EXEC_STABILITY,
                        "detail": (
                            "in-process re-execution raised although the "
                            f"scheduler run succeeded: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                        "index": outcome.index,
                        "trial": trial,
                    }
                )
                say(f"stability rerun crashed on trial {outcome.index}")
                continue
            if _canonical(fresh) != _canonical(outcome.result):
                invariant = (
                    CACHE_STABILITY if outcome.cached else EXEC_STABILITY
                )
                report.violations.append(
                    {
                        "invariant": invariant,
                        "detail": (
                            "cached result differs from fresh re-execution"
                            if outcome.cached
                            else "scheduler result differs from in-process "
                            "re-execution"
                        ),
                        "index": outcome.index,
                        "trial": trial,
                    }
                )
                say(f"stability mismatch on trial {outcome.index}")
                continue
            # Store round-trip: byte-stability of the JSON encoding,
            # checked against an isolated throwaway store so the
            # campaign's own resume state cannot mask a mismatch.  The
            # probe honours REPRO_CACHE_BACKEND, so a campaign run on
            # the sqlite backend also fuzzes the sqlite round-trip.
            import tempfile

            with tempfile.TemporaryDirectory() as scratch:
                with open_store(scratch, version="fuzzprobe") as probe:
                    probe.put(outcome.spec, fresh)
                    replayed = probe.get(outcome.spec)
            if _canonical(replayed) != _canonical(fresh):
                report.violations.append(
                    {
                        "invariant": CACHE_STABILITY,
                        "detail": "store round-trip altered the result",
                        "index": outcome.index,
                        "trial": trial,
                    }
                )
                say(f"cache mismatch on trial {outcome.index}")


def shrink_and_persist(
    report: CampaignReport,
    profile,
    corpus_dir: str | None,
    shrink_limit: int,
    shrink_evals: int,
    say: ProgressFn,
    sink: Callable[[CrashEntry], str | None] | None = None,
) -> None:
    """Minimize violations and persist them.

    The default destination is the flat crash corpus under
    ``corpus_dir`` (:func:`repro.fuzz.corpus.write_entry`); callers
    with their own store -- the farm's deduplicating
    :class:`~repro.farm.corpus.FarmCorpus` -- pass ``sink``, a
    callable from entry to the path written (or ``None`` when the
    entry was dropped, e.g. as a duplicate).
    """
    from repro.reports.profiles import profile_to_dict

    if sink is None and corpus_dir is not None:
        directory = corpus_dir

        def sink(entry: CrashEntry) -> str | None:
            return str(write_entry(directory, entry))

    # One trial can violate the same invariant in several ways (e.g. a
    # missing verified bit AND a diverging key); those share a corpus
    # file and one shrink, so group before spending any budget.
    grouped: dict[tuple[int, str], list[dict]] = {}
    for violation in report.violations:
        violation["shrunk_trial"] = dict(violation["trial"])
        violation["shrink_evals"] = 0
        key = (violation["index"], violation["invariant"])
        grouped.setdefault(key, []).append(violation)

    shrunk_budget = shrink_limit
    for (index, invariant), group in grouped.items():
        trial = group[0]["trial"]
        shrunk, evals = dict(trial), 0
        if invariant in REPLAYABLE_INVARIANTS and shrunk_budget > 0:
            shrunk_budget -= 1
            say(f"shrinking trial {index} ({invariant})")
            shrunk, evals = shrink_trial(
                trial, invariant, profile, max_evals=shrink_evals
            )
        for violation in group:
            violation["shrunk_trial"] = shrunk
            violation["shrink_evals"] = evals
        if sink is not None:
            entry = CrashEntry(
                invariant=invariant,
                detail="; ".join(v["detail"] for v in group),
                trial=shrunk,
                original_trial=trial,
                profile=profile_to_dict(profile),
                shrink_evals=evals,
                meta={"campaign_seed": report.seed, "index": index},
            )
            path = sink(entry)
            if path is None:
                continue
            for violation in group:
                violation["corpus_path"] = str(path)
            report.corpus_paths.append(str(path))
