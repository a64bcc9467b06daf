"""The rolling farm campaign driver.

A farm run is a sequence of *rounds*.  Each round: decay the
scheduler's hot scores, plan ``round_trials`` trials from the frozen
weights, execute them as ordinary ``"fuzz"`` JobSpecs through the
cached parallel scheduler, collect violations (including the stability
meta-probes, :func:`~repro.fuzz.campaign.collect_violations`), shrink
and route every finding into the deduplicating
:class:`~repro.farm.corpus.FarmCorpus` (plus near-miss and novel-shape
entries), account the outcomes back into the scheduler, and only then
atomically commit ``state.json``.

Because the commit is the last step and every corpus write is
content-addressed and idempotent, a farm killed at *any* point -- even
mid-corpus-commit -- resumes by replaying its torn round from the last
checkpoint and converges on byte-identical state: nothing persisted
depends on wall clocks, process ids, or scheduling order.

Budgets: ``budget_s`` bounds one invocation's wall clock (the farm
stops *starting* rounds past it); ``max_rounds`` bounds the farm's
lifetime total round count and is the deterministic budget -- two
invocations with the same (seed, max_rounds) produce the same state no
matter how they were interrupted.  With neither budget set, one
invocation runs exactly one round: ``farm run --round-trials N --seed S``
on a fresh state dir is the seeded N-trial campaign, byte-identical at
any ``--jobs``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.farm.corpus import FarmCorpus, content_hash
from repro.farm.schedule import FarmScheduler, cell_key, shape_bucket
from repro.fuzz.campaign import (
    CampaignReport,
    collect_violations,
    shrink_and_persist,
)
from repro.fuzz.corpus import CrashEntry
from repro.fuzz.invariants import CRASH
from repro.runner.spec import JobSpec

STATE_SCHEMA_VERSION = 1

ProgressFn = Callable[[str], None]


class FarmStateError(ValueError):
    """A state dir is unreadable or disagrees with the requested config."""


@dataclass
class FarmConfig:
    """Everything that shapes a farm run (all JSON-safe)."""

    seed: int = 0
    round_trials: int = 24
    max_rounds: int = 0  # lifetime total; 0 = unbounded
    budget_s: float | None = None  # per-invocation wall clock
    concurrency: int = 1
    state_dir: str = ".repro_farm"
    bias: float = 4.0
    stability_every: int = 8
    shrink_limit: int = 8
    shrink_evals: int = 48
    opt_level: int | None = None
    attacks: list[str] | None = None
    defenses: list[str] | None = None


@dataclass
class FarmRound:
    """One committed round's accounting."""

    index: int
    trials: int
    violations: int
    new_entries: int
    minimized: int
    duplicates: int
    n_cached: int
    n_computed: int
    wall_s: float


@dataclass
class FarmReport:
    """What one ``run()`` invocation did."""

    seed: int
    rounds: list[FarmRound] = field(default_factory=list)
    total_rounds: int = 0  # lifetime, from state
    total_trials: int = 0
    total_violations: int = 0
    corpus_stats: dict[str, Any] = field(default_factory=dict)
    coverage: tuple[int, int] = (0, 0)
    hot_cells: list[tuple[str, dict[str, float]]] = field(default_factory=list)
    stopped: str = "rounds"
    wall_s: float = 0.0

    @property
    def trials_this_run(self) -> int:
        return sum(r.trials for r in self.rounds)

    @property
    def violations_this_run(self) -> int:
        return sum(r.violations for r in self.rounds)

    def summary(self) -> str:
        covered, total = self.coverage
        return (
            f"{len(self.rounds)} round(s) this run "
            f"({self.trials_this_run} trials, "
            f"{self.violations_this_run} violations); farm totals: "
            f"{self.total_rounds} rounds, {self.total_trials} trials, "
            f"{self.total_violations} violations; corpus "
            f"{self.corpus_stats.get('entries', 0)} entr"
            f"{'y' if self.corpus_stats.get('entries', 0) == 1 else 'ies'}; "
            f"cells {covered}/{total}; stopped: {self.stopped}; "
            f"{self.wall_s:.2f}s wall"
        )


def _applicable_pairs(config: FarmConfig) -> list[tuple[str, str]]:
    from repro.matrix.registry import applicable_pairs

    return applicable_pairs(config.attacks or None, config.defenses or None)


class FarmDriver:
    """Owns one state dir: corpus + scheduler + checkpointed rounds."""

    def __init__(
        self,
        profile,
        config: FarmConfig,
        *,
        store=None,
        observer=None,
        progress: ProgressFn | None = None,
    ):
        self.profile = profile
        self.config = config
        self.store = store
        self.observer = observer
        self.say: ProgressFn = progress if progress is not None else (
            lambda _msg: None
        )
        self.state_dir = Path(config.state_dir)
        self.state_path = self.state_dir / "state.json"
        self.corpus = FarmCorpus(self.state_dir)
        pairs = _applicable_pairs(config)
        self.scheduler = FarmScheduler(pairs, bias=config.bias)
        self.round_index = 0  # completed rounds so far
        self.totals = {"trials": 0, "violations": 0}
        self._load_state(pairs)

    # -- state ------------------------------------------------------------

    def _load_state(self, pairs: list[tuple[str, str]]) -> None:
        if not self.state_path.is_file():
            return
        state = _read_state(self.state_path, seed=self.config.seed, pairs=pairs)
        self.scheduler = state.scheduler
        self.round_index = state.rounds
        self.totals = state.totals

    def _commit_state(self) -> None:
        """Atomically checkpoint after a round.  No wall-clock fields."""
        payload = {
            "schema_version": STATE_SCHEMA_VERSION,
            "seed": self.config.seed,
            "rounds": self.round_index,
            "round_trials": self.config.round_trials,
            "pairs": [list(pair) for pair in self.scheduler.pairs],
            "scheduler": self.scheduler.to_dict(),
            "totals": dict(sorted(self.totals.items())),
        }
        self.state_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.state_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.state_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- rounds -----------------------------------------------------------

    def _corpus_sink(
        self, round_index: int, dispositions: Counter
    ) -> Callable[[CrashEntry], str | None]:
        def sink(entry: CrashEntry) -> str | None:
            trial = entry.trial
            cell = cell_key(
                str(trial.get("attack", "?")),
                str(trial.get("defense", "?")),
                shape_bucket(int(trial.get("n_flops", 0))),
            )
            kind = "crash" if entry.invariant == CRASH else "violation"
            disposition = self.corpus.add(
                entry, kind=kind, cell=cell, round_index=round_index
            )
            dispositions[disposition] += 1
            if disposition in ("new", "minimized"):
                digest = content_hash(entry.invariant, entry.trial)
                return str(
                    self.corpus.entries_dir / entry.invariant / f"{digest}.json"
                )
            return None

        return sink

    def _harvest_shapes(
        self, report: CampaignReport, round_index: int, dispositions: Counter
    ) -> None:
        """Near-miss and novel-shape corpus entries (beyond violations)."""
        from repro.reports.profiles import profile_to_dict

        profile_dict = profile_to_dict(self.profile)
        for outcome in report.outcomes:
            if not outcome.ok or outcome.result is None:
                continue
            trial = dict(outcome.spec.params)
            cell = cell_key(
                str(trial.get("attack", "?")),
                str(trial.get("defense", "?")),
                shape_bucket(int(trial.get("n_flops", 0))),
            )
            signature = self.scheduler.novel_shape(trial)
            if signature is not None:
                entry = CrashEntry(
                    invariant="novel-shape",
                    detail=f"first circuit with shape {signature}",
                    trial=trial,
                    original_trial=trial,
                    profile=profile_dict,
                    meta={"farm_seed": self.config.seed, "round": round_index},
                )
                dispositions[
                    self.corpus.add(
                        entry,
                        kind="novel-shape",
                        cell=cell,
                        round_index=round_index,
                        identity=f"novel-shape|{signature}",
                    )
                ] += 1
            result = outcome.result
            if (
                result.get("built")
                and not result.get("success")
                and not result.get("violations")
            ):
                entry = CrashEntry(
                    invariant="near-miss",
                    detail=(
                        f"attack {trial.get('attack')} failed against "
                        f"{trial.get('defense')} "
                        f"(iterations={result.get('iterations')}, "
                        f"queries={result.get('queries')})"
                    ),
                    trial=trial,
                    original_trial=trial,
                    profile=profile_dict,
                    meta={"farm_seed": self.config.seed, "round": round_index},
                )
                dispositions[
                    self.corpus.add(
                        entry,
                        kind="near-miss",
                        cell=cell,
                        round_index=round_index,
                    )
                ] += 1

    def _emit_round(self, stats: FarmRound) -> None:
        """Stream one round's outcome through the observability session."""
        if self.observer is None:
            return
        covered, total = self.scheduler.coverage()
        self.observer.session.emit(
            {
                "kind": "farm_round",
                "round": stats.index,
                "trials": stats.trials,
                "violations": stats.violations,
                "new_entries": stats.new_entries,
                "trials_total": self.totals["trials"],
                "violations_total": self.totals["violations"],
                "corpus_entries": len(self.corpus),
                "cells_covered": covered,
                "n_cells": total,
                "trials_per_s": (
                    stats.trials / stats.wall_s if stats.wall_s > 0 else 0.0
                ),
                "hot_cells": [
                    [key, int(stat["trials"]), int(stat["violations"])]
                    for key, stat in self.scheduler.hot_cells()
                ],
                "t": time.time(),
            }
        )

    def run_round(self) -> FarmRound:
        """Execute and commit exactly one round."""
        from repro.reports.experiments import adapt_progress
        from repro.runner.scheduler import run_jobs

        started = time.perf_counter()
        index = self.round_index
        self.scheduler.begin_round()
        params_list = self.scheduler.plan_round(
            self.config.seed,
            index,
            self.config.round_trials,
            self.config.opt_level,
        )
        specs = [
            JobSpec.make("fuzz", self.profile, **params) for params in params_list
        ]
        self.say(f"round {index}: {len(specs)} trial(s)")
        chunk = run_jobs(
            specs,
            jobs=self.config.concurrency,
            store=self.store,
            progress=adapt_progress(self.say),
            observer=self.observer,
        )
        report = CampaignReport(
            seed=self.config.seed,
            outcomes=chunk.outcomes,
            n_cached=chunk.n_cached,
            n_computed=chunk.n_computed,
        )
        collect_violations(report, self.config.stability_every, self.say)
        dispositions: Counter = Counter()
        shrink_and_persist(
            report,
            self.profile,
            self.config.shrink_limit,
            self.config.shrink_evals,
            self.say,
            sink=self._corpus_sink(index, dispositions),
        )
        for violation in report.violations:
            where = violation.get("corpus_path")
            self.say(
                f"round {index}: trial {violation['index']} violated "
                f"{violation['invariant']}: {violation['detail']}"
                + (f" -> {where}" if where else "")
            )
        self._harvest_shapes(report, index, dispositions)

        per_index = Counter(v["index"] for v in report.violations)
        for outcome in report.outcomes:
            self.scheduler.record_trial(
                dict(outcome.spec.params), per_index.get(outcome.index, 0)
            )
        self.totals["trials"] += len(report.outcomes)
        self.totals["violations"] += len(report.violations)
        self.round_index = index + 1
        self._commit_state()

        stats = FarmRound(
            index=index,
            trials=len(report.outcomes),
            violations=len(report.violations),
            new_entries=dispositions.get("new", 0),
            minimized=dispositions.get("minimized", 0),
            duplicates=dispositions.get("duplicate", 0)
            + dispositions.get("ignored", 0),
            n_cached=report.n_cached,
            n_computed=report.n_computed,
            wall_s=time.perf_counter() - started,
        )
        self._emit_round(stats)
        self.say(
            f"round {index} done: {stats.trials} trials, "
            f"{stats.violations} violation(s), "
            f"{stats.new_entries + stats.minimized} corpus write(s), "
            f"corpus={len(self.corpus)}"
        )
        return stats

    def run(self) -> FarmReport:
        """Run rounds until the budget/round cap/interrupt stops us."""
        started = time.perf_counter()
        report = FarmReport(seed=self.config.seed)
        stopped = "rounds"
        while True:
            if (
                self.config.max_rounds
                and self.round_index >= self.config.max_rounds
            ):
                stopped = "rounds"
                break
            elapsed = time.perf_counter() - started
            if (
                self.config.budget_s is not None
                and elapsed >= self.config.budget_s
            ):
                stopped = "budget"
                break
            if not self.config.max_rounds and self.config.budget_s is None:
                # No budget at all: run exactly one round rather than
                # looping forever on a misconfigured invocation.
                if report.rounds:
                    stopped = "rounds"
                    break
            try:
                report.rounds.append(self.run_round())
            except KeyboardInterrupt:
                # The torn round was never committed; a resume replays
                # it from the checkpoint and converges on the same bytes.
                stopped = "interrupted"
                break
        report.total_rounds = self.round_index
        report.total_trials = self.totals["trials"]
        report.total_violations = self.totals["violations"]
        report.corpus_stats = self.corpus.stats()
        report.coverage = self.scheduler.coverage()
        report.hot_cells = self.scheduler.hot_cells()
        report.stopped = stopped
        report.wall_s = time.perf_counter() - started
        return report


def run_farm(
    profile,
    config: FarmConfig,
    *,
    store=None,
    observer=None,
    progress: ProgressFn | None = None,
) -> FarmReport:
    """Convenience wrapper: build a driver for ``config`` and run it."""
    driver = FarmDriver(
        profile, config, store=store, observer=observer, progress=progress
    )
    return driver.run()


@dataclass
class _Checkpoint:
    """The parsed fields of a ``state.json``."""

    seed: int
    rounds: int
    totals: dict[str, int]
    scheduler: FarmScheduler


def _read_state(
    state_path: Path,
    seed: int | None = None,
    pairs: list[tuple[str, str]] | None = None,
) -> _Checkpoint:
    """Parse a checkpoint; a damaged one is a :class:`FarmStateError`.

    So is a checkpoint whose seed or attack/defense pairs differ from
    the given ``seed`` and ``pairs``; that is checked first.
    """
    try:
        data = json.loads(state_path.read_text())
    except (OSError, ValueError) as exc:
        raise FarmStateError(f"unreadable farm state {state_path}: {exc}")
    if not isinstance(data, dict):
        raise FarmStateError(f"farm state {state_path} is not a JSON object")

    def parse_field(name: str, parse: Callable[[Any], Any]) -> Any:
        try:
            return parse(data[name])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FarmStateError(
                f"farm state {state_path} has a missing or malformed "
                f"{name!r} field ({type(exc).__name__}: {exc})"
            ) from None

    stored_seed = parse_field("seed", int)
    if seed is not None and stored_seed != seed:
        raise FarmStateError(
            f"state dir {state_path.parent} holds a farm with seed "
            f"{stored_seed}; pass --seed {stored_seed} or a "
            "fresh --state directory"
        )
    stored_pairs = parse_field(
        "pairs", lambda value: [tuple(pair) for pair in value]
    )
    if pairs is not None and stored_pairs != pairs:
        raise FarmStateError(
            f"state dir {state_path.parent} was built with different "
            "attack/defense filters; use a fresh --state directory"
        )
    return _Checkpoint(
        seed=stored_seed,
        rounds=parse_field("rounds", int),
        totals=parse_field(
            "totals",
            lambda value: {key: int(value[key]) for key in ("trials", "violations")},
        ),
        scheduler=parse_field("scheduler", FarmScheduler.from_dict),
    )


def load_status(state_dir: str | Path) -> dict[str, Any]:
    """Summarize a farm state dir without running anything.

    Raises :class:`FarmStateError` for an unreadable or damaged
    ``state.json`` and :class:`~repro.fuzz.corpus.CorpusError` for a
    damaged corpus entry.
    """
    state_dir = Path(state_dir)
    state_path = state_dir / "state.json"
    status: dict[str, Any] = {"state_dir": str(state_dir), "exists": False}
    if state_path.is_file():
        state = _read_state(state_path)
        covered, total = state.scheduler.coverage()
        status.update(
            exists=True,
            seed=state.seed,
            rounds=state.rounds,
            totals=state.totals,
            cells_covered=covered,
            n_cells=total,
            hot_cells=[
                [key, int(stat["trials"]), int(stat["violations"])]
                for key, stat in state.scheduler.hot_cells()
            ],
        )
    corpus = FarmCorpus(state_dir)
    status["corpus"] = corpus.stats()
    return status
