"""The fuzz trial cell and the per-round collection steps.

A trial is one flat, JSON-safe parameter dict: circuit shape, key width
and an applicable (attack, defense) pair.  :func:`sample_trial_params`
derives trial ``i`` of a seeded stream from ``hash_label(seed,
"fuzz/trial/i")``; the farm's scheduler (:mod:`repro.farm.schedule`)
draws the same shape from its own coverage-weighted stream.  Either way
the trial runs as a ``"fuzz"`` :class:`~repro.runner.spec.JobSpec`
whose cell is :func:`fuzz_cell`.  Trial results deliberately contain
*no wall-clock fields*: determinism is the product being tested, so the
cell's output must be a pure function of its spec.

One farm round (:mod:`repro.farm.driver`) hands its scheduler outcomes
to :func:`collect_violations`, which also runs two meta-invariants on a
deterministic subsample of trials:

* ``exec-stability``  -- the scheduler-returned result must equal an
  in-process re-execution of the same spec (covers serial vs ``--jobs
  N`` and, for cache hits, cache-replay vs fresh);
* ``cache-stability`` -- a result-store round-trip must hand back the
  fresh result byte-for-byte.

:func:`shrink_and_persist` then minimizes failing trials
(:mod:`repro.fuzz.shrink`) and hands each one, as a
:class:`~repro.fuzz.corpus.CrashEntry`, to the caller's corpus sink.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bench_suite.generator import (
    config_from_dict,
    config_to_dict,
    generate_circuit,
    sample_config,
)
from repro.fuzz.corpus import CrashEntry
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
from repro.runner.scheduler import JobOutcome
from repro.util.rng import hash_label

#: Widest key the fuzzer samples.  Keys beyond this blow up the
#: exhaustive attacks (brute force, point-function SAT) without adding
#: shape diversity, which is what the fuzzer is for.
FUZZ_MAX_KEY_BITS = 6


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
    """One round's trial outcomes and the violations found in them."""

    seed: int
    outcomes: list[JobOutcome] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    n_cached: int = 0
    n_computed: int = 0


ProgressFn = Callable[[str], None]


def collect_violations(
    report: CampaignReport,
    stability_every: int,
    say: ProgressFn,
) -> None:
    """Gather cell-level violations, crashes, and stability mismatches.

    The cache-stability probe deliberately uses an isolated throwaway
    store (not the run's own): resume state must not be able to
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
                # not a reason to abort the round.
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
            # run's own resume state cannot mask a mismatch.  The probe
            # honours REPRO_CACHE_BACKEND, so a farm run on the sqlite
            # backend also fuzzes the sqlite round-trip.
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
    shrink_limit: int,
    shrink_evals: int,
    say: ProgressFn,
    sink: Callable[[CrashEntry], str | None],
) -> None:
    """Minimize violations and hand each one to ``sink``.

    ``sink`` is a callable from entry to the path written, or ``None``
    when the entry was dropped (e.g. as a duplicate); the farm passes
    its deduplicating :class:`~repro.farm.corpus.FarmCorpus`.  A path
    written is recorded on its violations as ``corpus_path``.
    """
    from repro.reports.profiles import profile_to_dict

    # One trial can violate the same invariant in several ways (e.g. a
    # missing verified bit AND a diverging key); those share a corpus
    # file and one shrink, so group before spending any budget.
    grouped: dict[tuple[int, str], list[dict]] = {}
    for violation in report.violations:
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
