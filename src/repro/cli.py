"""Command-line interface.

Subcommands mirror the library's main entry points::

    dynunlock info s5378                  # benchmark stats at a scale
    dynunlock selftest                    # end-to-end attack on s27
    dynunlock attack s13207 --key-bits 8  # DynUnlock one circuit
    dynunlock table1|table2|table3        # regenerate the paper tables
    dynunlock scaling                     # Section IV scalability study
    dynunlock ablation                    # Section V nonlinear-PRNG study
    dynunlock matrix                      # attack x defense resilience grid
    dynunlock farm run --round-trials 200 # one seeded differential-fuzz round
    dynunlock fuzz-replay                 # re-demonstrate crash-corpus entries
    dynunlock opt s5378                   # netlist-optimization statistics
    dynunlock opt-bench --emit-json out   # opt vs raw attack-pipeline bench
    dynunlock run table2 scaling --jobs 4 # several grids through the runner
    dynunlock cache stats|gc|prune        # manage the result store
    dynunlock top results/metrics         # live view over a run's metrics

``dynunlock matrix`` executes every applicable (attack, defense) pair
from the plugin registry over the smallest registry benchmarks, prints
the resilience grid (verdicts ``broken``/``resilient``/``partial``/
``n/a``), and exits non-zero when a measured verdict disagrees with the
paper's Table I expectations (``--no-check-paper`` to disable).
``--attacks/--defenses/--benchmarks`` filter the grid.

Attacks preprocess their locked netlists through the :mod:`repro.opt`
optimizer by default; ``--no-opt`` (or ``--opt-level 0``) on any attack
or grid command is the escape hatch.

All table commands accept ``--profile quick|full|paper`` (or the
``REPRO_PROFILE`` environment variable) plus the runner surfaces:
``--jobs N`` fans the experiment grid across N worker processes (0 =
one per CPU core); ``--resume`` (default) memoises finished cells in
``--cache-dir`` (default ``.repro_cache``, override with
``$REPRO_CACHE_DIR``) so interrupted or repeated runs only recompute
stale cells -- pass ``--no-resume`` to force recomputation; and
``--emit-json DIR`` writes ``BENCH_<experiment>.json`` + ``.csv``
artifacts that CI uploads and diffs against the checked-in baseline.

The result store keeps one JSON file per cell; ``dynunlock cache``
inspects, garbage-collects and prunes it (see ``docs/caching.md``).

Observability (``docs/observability.md``): every grid/attack/farm
command accepts ``--metrics-dir DIR`` (``run.json``, the streamed
per-job ``spans.jsonl`` and a ``BENCH_obs.json``/``.csv`` summary land
in DIR; ``$REPRO_METRICS_DIR`` sets a default).  ``dynunlock top DIR``
renders a live ``top(1)``-style view over a running or finished
instrumented run.  Without it, instrumentation is fully off: no spans
are collected, and results/cache bytes are identical.

Declarative configs (``docs/configs.md``): ``--config FILE`` on
``farm run``, ``matrix`` and every grid command resolves flags
through a checked TOML/JSON profile (explicit CLI flags win; the
resolved config is stamped into artifact provenance).  ``dynunlock
config check --strict`` validates profiles, rejecting unknown keys,
type mismatches and policy-violating values with dotted-path errors.

Differential fuzzing runs through the farm (``docs/fuzzing.md``):
``dynunlock farm run --budget 10m --config farm.toml`` runs
time-budgeted rolling rounds that persist a deduplicating corpus plus
coverage-scheduler state under ``--state`` and checkpoint after every
round, so a killed farm resumes byte-identically.  With neither
``--budget`` nor ``--max-rounds`` it runs exactly one round, so
``farm run --round-trials N --seed S`` on a fresh ``--state`` is the
seeded N-trial campaign.  ``dynunlock farm status`` summarizes a state
dir, and ``dynunlock fuzz-replay <state>/corpus`` replays the farmed
corpus as a regression suite.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager

from repro import api
from repro.bench_suite.registry import (
    PAPER_BENCHMARKS,
    build_benchmark_netlist,
    get_benchmark,
)
from repro.locking.effdyn import lock_with_effdyn
from repro.opt import DEFAULT_LEVEL, MAX_LEVEL
from repro.reports.experiments import GRID
from repro.reports.profiles import PROFILES, active_profile
from repro.reports.tables import render_table
from repro.runner.artifacts import write_artifact
from repro.runner.spec import code_version
from repro.runner.stores import JsonFileStore

#: The ``--opt-level`` / ``opt --level`` choices.
OPT_LEVELS = tuple(range(MAX_LEVEL + 1))


def _progress(message: str) -> None:
    print(f"  [.] {message}", file=sys.stderr)


def _profile_from_args(args: argparse.Namespace):
    if getattr(args, "profile", None):
        return PROFILES[args.profile]
    return active_profile()


def _jobs_from_args(args: argparse.Namespace) -> int:
    jobs = getattr(args, "jobs", 1)
    if jobs is None:  # config-covered flag left unresolved
        jobs = 1
    return max(1, os.cpu_count() or 1) if jobs == 0 else max(1, jobs)


def _resolve_config(args: argparse.Namespace, command: str):
    """Resolve ``--config``-covered flags (CLI > file > default).

    Always runs, file or not, so config-covered flags (argparse default
    ``None``) pick up their built-in defaults in exactly one place.
    The provenance block lands on ``args.config_provenance`` for
    :func:`_emit_artifact` to stamp into artifacts.
    """
    from repro.config import ConfigError, apply_config

    try:
        provenance = apply_config(
            args,
            command,
            warn=lambda message: print(f"  [!] {message}", file=sys.stderr),
        )
    except ConfigError as exc:
        print(f"dynunlock: {exc}", file=sys.stderr)
        raise SystemExit(2)
    args.config_provenance = provenance
    return provenance


@contextmanager
def _observation(args: argparse.Namespace, command: str, existing=None):
    """Yield a RunObserver for this invocation, or ``None`` when off.

    One observability session spans the whole command; passing an
    ``existing`` observer (``dynunlock run`` driving several grids)
    reuses it instead of opening a nested session.  Without
    ``--metrics-dir``/``$REPRO_METRICS_DIR`` this yields ``None`` and
    touches nothing -- the zero-cost-by-default path.
    """
    metrics_dir = getattr(args, "metrics_dir", None) or os.environ.get(
        "REPRO_METRICS_DIR"
    )
    if existing is not None or not metrics_dir:
        yield existing
        return
    from repro.observability import RunObserver, end_session, start_session

    session = start_session(
        metrics_dir=metrics_dir,
        command=command,
        argv=getattr(args, "argv", ()),
    )
    try:
        yield RunObserver(session)
    finally:
        end_session()
        print(f"  [=] wrote metrics to {metrics_dir}", file=sys.stderr)


def _store_from_args(args: argparse.Namespace) -> JsonFileStore | None:
    if not getattr(args, "resume", True):
        return None
    return JsonFileStore(getattr(args, "cache_dir", None))


def _emit_artifact(
    args: argparse.Namespace,
    name: str,
    headers,
    row_cells,
    *,
    title: str,
    profile_name: str,
    report,
    extra_meta: dict | None = None,
) -> None:
    """Write the BENCH_* JSON/CSV pair when ``--emit-json`` was given.

    One meta block for every grid command, so artifact consumers
    (``scripts/check_bench_regression.py``, CI) see a uniform shape.
    """
    if not getattr(args, "emit_json", None):
        return
    times = [o.result.get("time_s", 0.0) for o in report.outcomes]
    meta = {
        "jobs": _jobs_from_args(args),
        "n_jobs_total": len(report.outcomes),
        "n_cached": report.n_cached,
        "n_computed": report.n_computed,
        "total_attack_time_s": sum(times),
        "wall_s": report.wall_s,
        "code_version": code_version()[:20],
    }
    provenance = getattr(args, "config_provenance", None)
    if provenance is not None:
        meta["config"] = provenance
    meta.update(extra_meta or {})
    path = write_artifact(
        args.emit_json,
        name,
        headers,
        row_cells,
        title=title,
        profile=profile_name,
        meta=meta,
    )
    print(f"  [=] wrote {path}", file=sys.stderr)


def _run_experiment(
    args: argparse.Namespace, name: str, observer=None, **spec_kwargs
) -> int:
    """Run one named grid through :mod:`repro.api` and print/emit its table."""
    profile = _profile_from_args(args)
    opt_level = getattr(args, "opt_level", None)
    if opt_level is not None:
        spec_kwargs["opt_level"] = opt_level
    with _observation(args, name, observer) as obs:
        grid = api.run_grid(
            name,
            profile=profile,
            jobs=_jobs_from_args(args),
            store=_store_from_args(args),
            progress=_progress,
            observer=obs,
            **spec_kwargs,
        )
        # Emit inside the observation so the artifact's run block shares
        # the session's run_id with the spans it was measured under.
        print(render_table(grid.headers, grid.as_cells(), title=grid.title))
        print(f"  [=] {grid.report.summary()}", file=sys.stderr)
        _emit_artifact(
            args,
            name,
            grid.headers,
            grid.as_cells(),
            title=grid.title,
            profile_name=profile.name,
            report=grid.report,
        )
    return 0


def _unknown_benchmarks(names: list[str]) -> bool:
    """Report names missing from the registry as a usage error.

    Prints one ``dynunlock: unknown benchmark(s)`` line listing the
    known names and returns True when any name is unknown; the calling
    command then exits 2 before building or attacking anything.
    """
    unknown = [name for name in names if name not in PAPER_BENCHMARKS]
    if unknown:
        print(
            f"dynunlock: unknown benchmark(s): {', '.join(unknown)}; "
            f"known: {', '.join(PAPER_BENCHMARKS)}",
            file=sys.stderr,
        )
    return bool(unknown)


def cmd_info(args: argparse.Namespace) -> int:
    """``dynunlock info``: print a benchmark's structural statistics."""
    if _unknown_benchmarks([args.benchmark]):
        return 2
    spec = get_benchmark(args.benchmark)
    netlist = build_benchmark_netlist(args.benchmark, scale=args.scale)
    print(f"benchmark    : {spec.name} ({spec.suite})")
    print(f"paper flops  : {spec.n_scan_flops}")
    print(f"scale        : 1/{args.scale}")
    for key, value in netlist.stats().items():
        print(f"{key:13}: {value}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """``dynunlock list``: enumerate the registry benchmarks."""
    for name, spec in PAPER_BENCHMARKS.items():
        print(f"{name:10} {spec.suite:8} {spec.n_scan_flops:6} scan flops")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """``dynunlock selftest``: end-to-end DynUnlock on the genuine s27."""
    from repro.bench_suite.iscas import s27_netlist
    from repro.core.dynunlock import dynunlock
    from repro.sat.solver import solver_core

    netlist = s27_netlist()
    lock = lock_with_effdyn(netlist, key_bits=2, rng=random.Random(7))
    result = dynunlock(netlist, lock.public_view(), lock.make_oracle())
    exact = result.recovered_seed == list(lock.seed)
    print(
        f"s27 self-test: success={result.success} exact_seed={exact} "
        f"iterations={result.iterations} time={result.runtime_s:.2f}s "
        f"solver_core={solver_core()}"
    )
    return 0 if (result.success and exact) else 1


def cmd_attack(args: argparse.Namespace) -> int:
    """``dynunlock attack``: lock one benchmark with EFF-Dyn and break it."""
    if _unknown_benchmarks([args.benchmark]):
        return 2
    with _observation(args, "attack") as observer:
        run = api.run_attack(
            args.benchmark,
            profile=_profile_from_args(args),
            key_bits=args.key_bits,
            scale=args.scale,
            lock_seed=args.lock_seed,
            timeout_s=args.timeout,
            opt_level=args.opt_level,
            observer=observer,
            progress=lambda message: print(message, file=sys.stderr),
        )
    result = run.result
    print(f"success          : {result.success}")
    print(f"timed out        : {result.timed_out}")
    print(f"exact seed       : {run.exact_seed}")
    print(f"seed candidates  : {result.n_seed_candidates}")
    print(f"iterations       : {result.iterations}")
    print(f"oracle queries   : {result.oracle_queries}")
    print(f"captures used    : {result.n_captures_used}")
    print(f"execution time   : {result.runtime_s:.2f}s")
    return 0 if result.success else 1


def cmd_export(args: argparse.Namespace) -> int:
    """Export a registry benchmark (optionally EFF-Dyn locked) to disk."""
    from pathlib import Path

    from repro.netlist.bench_io import write_bench
    from repro.netlist.verilog_io import write_verilog
    from repro.scan.structural import build_scan_netlist

    if _unknown_benchmarks([args.benchmark]):
        return 2
    netlist = build_benchmark_netlist(args.benchmark, scale=args.scale)
    if args.lock:
        rng = random.Random(args.lock_seed)
        key_bits = min(args.key_bits or 8, netlist.n_dffs - 1)
        lock = lock_with_effdyn(netlist, key_bits=key_bits, rng=rng)
        netlist, pins = build_scan_netlist(netlist, lock.spec)
        print(
            f"locked with {key_bits} key gates at positions "
            f"{lock.spec.keygate_positions}",
            file=sys.stderr,
        )
    text = (
        write_verilog(netlist) if args.format == "verilog" else write_bench(netlist)
    )
    out = Path(args.output) if args.output else None
    if out is None:
        print(text, end="")
    else:
        out.write_text(text)
        print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """``dynunlock table1``: regenerate the defense-evolution table."""
    _resolve_config(args, "grid")
    return _run_experiment(args, "table1")


def cmd_table2(args: argparse.Namespace) -> int:
    """``dynunlock table2``: regenerate the paper's main results table."""
    _resolve_config(args, "grid")
    if _unknown_benchmarks(args.benchmarks):
        return 2
    return _run_experiment(args, "table2", benchmarks=args.benchmarks or None)


def cmd_table3(args: argparse.Namespace) -> int:
    """``dynunlock table3``: regenerate the key-size scaling table."""
    _resolve_config(args, "grid")
    if _unknown_benchmarks(args.benchmarks):
        return 2
    return _run_experiment(args, "table3", benchmarks=args.benchmarks or None)


def cmd_scaling(args: argparse.Namespace) -> int:
    """``dynunlock scaling``: regenerate the Section IV flop-count study."""
    _resolve_config(args, "grid")
    return _run_experiment(args, "scaling")


def cmd_ablation(args: argparse.Namespace) -> int:
    """``dynunlock ablation``: regenerate the Section V nonlinear-PRNG study."""
    _resolve_config(args, "grid")
    return _run_experiment(args, "ablation")


def cmd_matrix(args: argparse.Namespace) -> int:
    """``dynunlock matrix``: run the attack x defense resilience grid."""
    from repro.matrix.grid import PAPER_EXPECTATIONS
    from repro.matrix.registry import attack_names, defense_names

    _resolve_config(args, "matrix")
    profile = _profile_from_args(args)
    attacks = args.attacks or None
    defenses = args.defenses or None
    unknown = [a for a in (attacks or []) if a not in attack_names()]
    unknown += [d for d in (defenses or []) if d not in defense_names()]
    if unknown:
        print(
            f"unknown attack/defense name(s): {', '.join(unknown)}; "
            f"attacks: {', '.join(attack_names())}; "
            f"defenses: {', '.join(defense_names())}",
            file=sys.stderr,
        )
        return 2
    if _unknown_benchmarks(args.benchmarks):
        return 2
    with _observation(args, "matrix") as observer:
        grid = api.run_matrix(
            profile=profile,
            jobs=_jobs_from_args(args),
            store=_store_from_args(args),
            progress=_progress,
            attacks=attacks,
            defenses=defenses,
            benchmarks=args.benchmarks or None,
            opt_level=args.opt_level,
            observer=observer,
        )
        rows = grid.rows
        print(render_table(grid.headers, grid.as_cells(), title=grid.title))
        print(f"  [=] {grid.report.summary()}", file=sys.stderr)

        mismatches = (
            api.check_matrix_against_paper(rows) if args.check_paper else []
        )
        _emit_artifact(
            args,
            "matrix",
            grid.headers,
            grid.as_cells(),
            title=grid.title,
            profile_name=profile.name,
            report=grid.report,
            extra_meta={
                "verdicts": {f"{r.attack}|{r.defense}": r.verdict for r in rows},
                # None (not 0) when the check was disabled, so artifact
                # consumers can tell "clean" from "never ran".
                "paper_checked": bool(args.check_paper),
                "n_paper_mismatches": len(mismatches) if args.check_paper else None,
            },
        )
    for mismatch in mismatches:
        print(f"  [!] paper disagreement: {mismatch}", file=sys.stderr)
    if mismatches:
        return 1
    if args.check_paper:
        checked = sum(
            1 for r in rows if (r.attack, r.defense) in PAPER_EXPECTATIONS
        )
        print(
            f"  [=] paper check: {checked} pair(s) agree with Table I",
            file=sys.stderr,
        )
    return 0


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """``dynunlock fuzz-replay``: re-demonstrate every crash-corpus entry.

    Exit codes (pinned by tests): 0 -- every replayable entry still
    reproduces (or the corpus is empty); 1 -- at least one entry no
    longer reproduces (the stale files are listed); 2 -- the corpus
    directory is damaged (unreadable or malformed entries).
    """
    from repro.fuzz.corpus import CorpusError, load_corpus, replay_entry
    from repro.fuzz.invariants import CACHE_STABILITY, EXEC_STABILITY

    try:
        entries = load_corpus(args.corpus)
    except CorpusError as exc:
        print(f"corpus {args.corpus} is damaged: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"corpus {args.corpus} is empty; nothing to replay")
        return 0
    profile = PROFILES[args.profile] if args.profile else None
    reproduced_count = skipped = 0
    stale_paths: list[str] = []
    for path, entry in entries:
        reproduced = replay_entry(entry, profile)
        if reproduced is None:
            status = (
                "SKIP (needs a pool/store to reproduce)"
                if entry.invariant in (EXEC_STABILITY, CACHE_STABILITY)
                else "SKIP (records no failure)"
            )
            skipped += 1
        elif reproduced:
            status = "reproduced"
            reproduced_count += 1
        else:
            status = "NO LONGER REPRODUCES"
            stale_paths.append(str(path))
        print(f"{path}: {entry.invariant} ... {status}")
        if args.verbose:
            print(f"    detail : {entry.detail}")
            print(f"    trial  : {entry.trial}")
    print(
        f"  [=] {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}: "
        f"{reproduced_count} reproduced, {len(stale_paths)} stale, "
        f"{skipped} skipped"
    )
    if stale_paths:
        stale = len(stale_paths)
        print(
            f"  [!] {stale} entr{'y' if stale == 1 else 'ies'} no longer "
            "reproduce -- the bug is fixed; delete the file(s) to retire "
            "them:",
            file=sys.stderr,
        )
        for path in stale_paths:
            print(f"  [!]   {path}", file=sys.stderr)
        return 1
    return 0


FARM_HEADERS = ["Attack", "Defense", "Bucket", "Trials", "Violations", "Hot"]


def cmd_farm_run(args: argparse.Namespace) -> int:
    """``dynunlock farm run``: rolling, checkpointed fuzz-farm rounds.

    Exit codes: 0 -- this invocation's rounds found no violations;
    1 -- at least one violation (reproducers are in the corpus);
    2 -- usage/state errors (bad config, mismatched or damaged state
    dir, damaged corpus entry).
    """
    from repro.farm import FarmConfig, FarmDriver
    from repro.farm.driver import FarmStateError
    from repro.fuzz.corpus import CorpusError

    _resolve_config(args, "farm")
    profile = _profile_from_args(args)
    config = FarmConfig(
        seed=args.seed,
        round_trials=args.round_trials,
        max_rounds=args.max_rounds,
        budget_s=args.budget,
        concurrency=_jobs_from_args(args),
        state_dir=args.state,
        bias=args.bias,
        stability_every=args.stability_every,
        shrink_limit=args.shrink_limit,
        opt_level=args.opt_level,
        attacks=args.attacks or None,
        defenses=args.defenses or None,
    )

    # SIGTERM (a CI timeout, a container stop) must behave like C-c:
    # the torn round is abandoned and the last checkpoint stands, so
    # the next invocation resumes byte-identically.
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        with _observation(args, "farm") as observer:
            try:
                driver = FarmDriver(
                    profile,
                    config,
                    store=_store_from_args(args),
                    observer=observer,
                    progress=_progress,
                )
            except (FarmStateError, CorpusError) as exc:
                print(f"dynunlock: {exc}", file=sys.stderr)
                return 2
            report = driver.run()
            rows = [
                [*key.split("|"), int(stat["trials"]), int(stat["violations"]),
                 f"{stat['hot']:.2f}"]
                for key, stat in sorted(driver.scheduler.stats.items())
                if stat["trials"] > 0
            ]
            title = (
                f"Fuzz farm (seed={config.seed}, profile={profile.name}, "
                f"round {report.total_rounds})"
            )
            print(render_table(FARM_HEADERS, rows, title=title))
            print(f"  [=] {report.summary()}", file=sys.stderr)
            if args.emit_json:
                covered, total = report.coverage
                meta = {
                    "seed": config.seed,
                    "rounds_this_run": len(report.rounds),
                    "trials_this_run": report.trials_this_run,
                    "violations_this_run": report.violations_this_run,
                    "total_rounds": report.total_rounds,
                    "total_trials": report.total_trials,
                    "total_violations": report.total_violations,
                    "corpus": report.corpus_stats,
                    "cells_covered": covered,
                    "n_cells": total,
                    "stopped": report.stopped,
                    "wall_s": report.wall_s,
                    "trials_per_s": (
                        report.trials_this_run / report.wall_s
                        if report.wall_s > 0
                        else 0.0
                    ),
                    "state_dir": str(config.state_dir),
                    "code_version": code_version()[:20],
                }
                provenance = getattr(args, "config_provenance", None)
                if provenance is not None:
                    meta["config"] = provenance
                path = write_artifact(
                    args.emit_json,
                    "farm",
                    FARM_HEADERS,
                    rows,
                    title=title,
                    profile=profile.name,
                    meta=meta,
                )
                print(f"  [=] wrote {path}", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 1 if report.violations_this_run else 0


def cmd_farm_status(args: argparse.Namespace) -> int:
    """``dynunlock farm status``: summarize a farm state directory.

    Exit codes: 0 -- a farm state was summarized; 1 -- no state there;
    2 -- the state or corpus is damaged.
    """
    import json as json_mod

    from repro.farm.driver import FarmStateError, load_status
    from repro.fuzz.corpus import CorpusError

    try:
        status = load_status(args.state)
    except (FarmStateError, CorpusError) as exc:
        print(f"dynunlock: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json_mod.dumps(status, indent=1, sort_keys=True))
        return 0 if status["exists"] else 1
    if not status["exists"]:
        print(f"no farm state at {args.state}")
        return 1
    totals = status.get("totals", {})
    corpus = status.get("corpus", {})
    print(f"state dir    : {status['state_dir']}")
    print(f"seed         : {status['seed']}")
    print(f"rounds       : {status['rounds']}")
    print(f"trials       : {totals.get('trials', 0)}")
    print(f"violations   : {totals.get('violations', 0)}")
    print(
        f"coverage     : {status['cells_covered']}/{status['n_cells']} cells"
    )
    print(
        f"corpus       : {corpus.get('entries', 0)} entries "
        f"{json_mod.dumps(corpus.get('by_kind', {}), sort_keys=True)}"
    )
    for key, trials, violations in status.get("hot_cells", []):
        print(f"  cell {key}: {trials} trials, {violations} violations")
    return 0


def cmd_config_check(args: argparse.Namespace) -> int:
    """``dynunlock config check``: validate config profiles.

    Exit codes: 0 -- every file is valid; 1 -- at least one issue
    (each printed as ``file: dotted.path: message``).
    """
    from repro.config import ConfigError, check_config, load_config_file

    failed = False
    for path in args.files:
        try:
            data = load_config_file(path)
        except ConfigError as exc:
            for issue in exc.issues:
                print(f"{path}: {issue}")
            failed = True
            continue
        values, issues = check_config(data, strict=args.strict)
        if issues:
            for issue in issues:
                print(f"{path}: {issue}")
            failed = True
        else:
            print(f"{path}: OK ({len(values)} value(s))")
    return 1 if failed else 0


def cmd_config_show(args: argparse.Namespace) -> int:
    """``dynunlock config show``: print a profile's resolved values."""
    import json as json_mod

    from repro.config import ConfigError, load_and_check

    try:
        resolved = load_and_check(args.file, strict=False)
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"{args.file}: {issue}", file=sys.stderr)
        return 1
    print(json_mod.dumps(resolved.values, indent=1, sort_keys=True))
    return 0


def cmd_opt(args: argparse.Namespace) -> int:
    """``dynunlock opt``: netlist-optimization statistics for a benchmark.

    Optimizes both the raw benchmark netlist and its EFF-Dyn attack
    model (the circuit every DIP iteration actually encodes), printing
    per-pass gate counts and timings.
    """
    from repro.core.modeling import build_combinational_model
    from repro.locking.effdyn import lock_with_effdyn
    from repro.opt import optimize, resolve_level

    if _unknown_benchmarks([args.benchmark]):
        return 2
    profile = _profile_from_args(args)
    level = resolve_level(args.level)
    scale = profile.scale if args.scale is None else args.scale
    netlist = build_benchmark_netlist(args.benchmark, scale=scale)
    key_bits = profile.effective_key_bits(netlist.n_dffs, args.key_bits)
    lock = lock_with_effdyn(
        netlist, key_bits=key_bits, rng=random.Random(args.lock_seed)
    )
    model = build_combinational_model(
        netlist, lock.spec, lock.lfsr_taps, key_bits
    )

    headers = ["Target", "Pass", "Gates before", "Gates after", "Time (s)"]
    rows: list[list] = []
    summaries: dict[str, dict] = {}
    for label, target in (("netlist", netlist), ("effdyn-model", model.netlist)):
        result = optimize(target, level=level)
        stats = result.stats
        for record in stats.passes:
            rows.append(
                [
                    label,
                    record.name,
                    record.gates_before,
                    record.gates_after,
                    f"{record.time_s:.3f}",
                ]
            )
        rows.append(
            [label, "TOTAL", stats.gates_before, stats.gates_after, f"{stats.time_s:.3f}"]
        )
        summaries[label] = stats.as_dict()
        print(
            f"  [=] {label}: {stats.gates_before} -> {stats.gates_after} gates "
            f"({stats.reduction:.1%} removed), "
            f"{len(stats.unused_inputs)} unused input(s)",
            file=sys.stderr,
        )
    title = (
        f"Netlist optimization (benchmark={args.benchmark}, scale=1/{scale}, "
        f"level={level}, key_bits={key_bits})"
    )
    print(render_table(headers, rows, title=title))
    if args.emit_json:
        path = write_artifact(
            args.emit_json,
            "opt",
            headers,
            rows,
            title=title,
            profile=profile.name,
            meta={
                "benchmark": args.benchmark,
                "scale": scale,
                "level": level,
                "key_bits": key_bits,
                "targets": summaries,
            },
        )
        print(f"  [=] wrote {path}", file=sys.stderr)
    return 0


def cmd_opt_bench(args: argparse.Namespace) -> int:
    """``dynunlock opt-bench``: measure the optimized vs raw attack pipeline.

    Runs the Table II grid twice -- once with optimization disabled,
    once at the default level -- cache-less so the timings are honest.
    Both arms go through one scheduler run that alternates them cell by
    cell, so a burst of host noise lands on both arms rather than on
    one.  Then it writes ``BENCH_opt.json`` and fails
    (exit 1) when the optimized pipeline is slower than the raw one by
    more than ``--threshold``, or when optimization changed any cell's
    attack outcome (success / exact-seed bits).
    """
    from repro.core.modeling import build_combinational_model
    from repro.opt import optimize
    from repro.reports.cells import build_table2_lock
    from repro.reports.experiments import adapt_progress, table2_specs
    from repro.runner.scheduler import run_jobs

    if _unknown_benchmarks(args.benchmarks):
        return 2
    profile = _profile_from_args(args)
    level = DEFAULT_LEVEL
    benchmarks = args.benchmarks or None
    jobs = _jobs_from_args(args)

    with _observation(args, "opt-bench") as observer:
        print("  [.] running table2 arms no-opt/opt cell by cell", file=sys.stderr)
        arms = zip(
            table2_specs(profile, benchmarks, opt_level=0),
            table2_specs(profile, benchmarks, opt_level=level),
        )
        report = run_jobs(
            [spec for pair in arms for spec in pair],
            jobs=jobs,
            store=None,
            progress=adapt_progress(_progress),
            observer=observer,
        )
        report.raise_on_error()

    def by_cell(arm_level):
        return {
            (o.spec.params["benchmark"], o.spec.params["seed_index"]): o.result
            for o in report.outcomes
            if o.spec.params["opt_level"] == arm_level
        }

    raw, opt = by_cell(0), by_cell(level)
    outcome_mismatches = []
    for (bench, seed), raw_cell in raw.items():
        opt_cell = opt[(bench, seed)]
        if (raw_cell["success"], raw_cell["exact_seed"]) != (
            opt_cell["success"],
            opt_cell["exact_seed"],
        ):
            outcome_mismatches.append(
                f"{bench}/seed{seed}: success {raw_cell['success']}->"
                f"{opt_cell['success']}, exact_seed "
                f"{raw_cell['exact_seed']}->{opt_cell['exact_seed']}"
            )

    headers = [
        "Benchmark",
        "Model gates",
        "Opt gates",
        "Reduction",
        "No-opt time (s)",
        "Opt time (s)",
        "Speedup",
    ]
    rows: list[list] = []
    total_raw = total_opt = 0.0
    bench_names = list(dict.fromkeys(bench for bench, _ in raw))
    for bench in bench_names:
        cells_raw = [v for (b, _), v in raw.items() if b == bench]
        cells_opt = [v for (b, _), v in opt.items() if b == bench]
        t_raw = sum(c["time_s"] for c in cells_raw)
        t_opt = sum(c["time_s"] for c in cells_opt)
        total_raw += t_raw
        total_opt += t_opt
        netlist, lock, kb = build_table2_lock(profile, bench)
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, kb
        )
        stats = optimize(model.netlist, level=level).stats
        rows.append(
            [
                bench,
                stats.gates_before,
                stats.gates_after,
                f"{stats.reduction:.0%}",
                f"{t_raw:.2f}",
                f"{t_opt:.2f}",
                f"{t_raw / t_opt:.2f}x" if t_opt > 0 else "-",
            ]
        )

    ratio = total_opt / total_raw if total_raw > 0 else 1.0
    regressed = total_opt > total_raw * (1.0 + args.threshold)
    title = f"Optimized vs raw attack pipeline (profile={profile.name}, level={level})"
    print(render_table(headers, rows, title=title))
    print(
        f"  [=] total attack time: no-opt {total_raw:.2f}s, "
        f"opt {total_opt:.2f}s (ratio {ratio:.2f}, budget "
        f"{1.0 + args.threshold:.2f})",
        file=sys.stderr,
    )
    if args.emit_json:
        path = write_artifact(
            args.emit_json,
            "opt",
            headers,
            rows,
            title=title,
            profile=profile.name,
            meta={
                "level": level,
                "threshold": args.threshold,
                "jobs": jobs,
                "total_no_opt_time_s": total_raw,
                "total_opt_time_s": total_opt,
                "total_attack_time_s": total_opt,
                "ratio": ratio,
                "outcome_mismatches": outcome_mismatches,
                "regressed": bool(regressed),
                "code_version": code_version()[:20],
            },
        )
        print(f"  [=] wrote {path}", file=sys.stderr)
    for mismatch in outcome_mismatches:
        print(f"  [!] outcome changed under optimization: {mismatch}", file=sys.stderr)
    if regressed:
        print(
            f"  [!] optimized pipeline exceeds the no-opt budget: "
            f"{total_opt:.2f}s > {total_raw:.2f}s * {1.0 + args.threshold:.2f}",
            file=sys.stderr,
        )
    return 1 if (regressed or outcome_mismatches) else 0


def _positive_seconds(text: str) -> float:
    """Parse a wall-clock budget in seconds; it must be positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Parse a count or divisor such as ``--scale``; it must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def _parse_size(text: str) -> int:
    """Parse a byte count with optional K/M/G/T suffix (binary units)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
    cleaned = text.strip().lower().removesuffix("b")
    factor = 1
    if cleaned and cleaned[-1] in units:
        factor = units[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = int(float(cleaned) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0: {text!r}")
    return value


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """``dynunlock cache stats``: describe the result store."""
    import json as json_mod

    stats = JsonFileStore(args.cache_dir).stats()
    if args.json:
        print(json_mod.dumps(stats, indent=1, sort_keys=True))
        return 0
    for key in sorted(stats):
        value = stats[key]
        if isinstance(value, (list, dict)):
            value = json_mod.dumps(value, sort_keys=True)
        print(f"{key:14}: {value}")
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    """``dynunlock cache gc``: LRU-evict down to a size bound."""
    report = JsonFileStore(args.cache_dir).gc(args.max_bytes, dry_run=args.dry_run)
    print(f"  [=] {report.summary()}", file=sys.stderr)
    if args.verbose:
        for experiment, key in report.evicted:
            print(f"  [-] {experiment}/{key}", file=sys.stderr)
    return 0


def cmd_cache_prune(args: argparse.Namespace) -> int:
    """``dynunlock cache prune``: drop entries from other code versions."""
    removed = JsonFileStore(args.cache_dir).prune()
    print(f"  [=] pruned {removed} stale unit(s)", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``dynunlock run``: push one or more experiment grids through the runner."""
    _resolve_config(args, "grid")
    if _unknown_benchmarks(args.benchmarks):
        return 2
    names = list(GRID) if "all" in args.experiments else args.experiments
    seen: list[str] = []
    for name in names:
        if name not in seen:
            seen.append(name)
    # One observability session spans all requested grids; each grid's
    # spans stay distinguishable by their experiment field.
    with _observation(args, "run") as observer:
        for name in seen:
            kwargs = {}
            if name in ("table2", "table3") and args.benchmarks:
                kwargs["benchmarks"] = args.benchmarks
            code = _run_experiment(args, name, observer=observer, **kwargs)
            if code != 0:
                return code
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """``dynunlock top``: live view over a run's metrics directory."""
    from repro.observability.top import watch

    metrics_dir = args.metrics_dir or os.environ.get(
        "REPRO_METRICS_DIR", ".repro_metrics"
    )
    return watch(metrics_dir, interval=args.interval, once=args.once)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree for the ``dynunlock`` CLI."""
    parser = argparse.ArgumentParser(
        prog="dynunlock",
        description="DynUnlock (DATE 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile", choices=sorted(PROFILES), default=None,
            help="experiment size profile (default: $REPRO_PROFILE or quick)",
        )

    def add_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--opt-level", type=int, choices=OPT_LEVELS, default=None,
            help="netlist-optimization preprocessing level "
                 f"(default: {DEFAULT_LEVEL})",
        )
        p.add_argument(
            "--no-opt", dest="opt_level", action="store_const", const=0,
            help="disable netlist optimization (same as --opt-level 0)",
        )

    def add_config(p: argparse.ArgumentParser) -> None:
        # Config-covered flags use a None/[] argparse default so
        # explicit-vs-absent stays detectable; repro.config fills in
        # (file value > built-in default) for everything not given.
        p.add_argument(
            "--config", default=None, metavar="FILE",
            help="resolve flags through a TOML/JSON config profile "
                 "(explicit flags win; see docs/configs.md)",
        )

    def add_runner(p: argparse.ArgumentParser) -> None:
        add_config(p)
        p.add_argument(
            "-j", "--jobs", type=int, default=None, metavar="N",
            help="worker processes for the experiment grid "
                 "(default 1 = serial, 0 = one per CPU core)",
        )
        p.add_argument(
            "--resume", action=argparse.BooleanOptionalAction, default=None,
            help="reuse cached cells from --cache-dir and store new ones "
                 "(default: on; --no-resume recomputes everything)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="result store location (default: $REPRO_CACHE_DIR "
                 "or .repro_cache)",
        )
        p.add_argument(
            "--emit-json", default=None, metavar="DIR",
            help="write BENCH_<experiment>.json + .csv artifacts to DIR",
        )

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics-dir", default=None, metavar="DIR",
            help="record per-job spans into DIR "
                 "(run.json, spans.jsonl, BENCH_obs.json; default: "
                 "$REPRO_METRICS_DIR, unset = instrumentation off)",
        )

    p = sub.add_parser("info", help="show benchmark statistics")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=_positive_int, default=16)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("list", help="list registry benchmarks")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("selftest", help="end-to-end attack on s27")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("export", help="export a benchmark as .bench/.v")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=_positive_int, default=16)
    p.add_argument("--format", choices=["bench", "verilog"], default="bench")
    p.add_argument("--lock", action="store_true",
                   help="insert an EFF-Dyn locked scan chain first")
    p.add_argument("--key-bits", type=int, default=None)
    p.add_argument("--lock-seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("attack", help="run DynUnlock on one benchmark")
    p.add_argument("benchmark")
    p.add_argument("--key-bits", type=int, default=None)
    p.add_argument("--scale", type=_positive_int, default=None)
    p.add_argument("--lock-seed", type=int, default=0)
    p.add_argument(
        "--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
        help="wall-clock budget for the attack (default: the profile's)",
    )
    add_profile(p)
    add_opt(p)
    add_obs(p)
    p.set_defaults(func=cmd_attack)

    for name, func, has_benchmarks in [
        ("table1", cmd_table1, False),
        ("table2", cmd_table2, True),
        ("table3", cmd_table3, True),
        ("scaling", cmd_scaling, False),
        ("ablation", cmd_ablation, False),
    ]:
        p = sub.add_parser(name, help=f"regenerate {name}")
        if has_benchmarks:
            p.add_argument("benchmarks", nargs="*", default=[])
        add_profile(p)
        add_runner(p)
        add_opt(p)
        add_obs(p)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "opt", help="netlist-optimization statistics for a benchmark"
    )
    p.add_argument("benchmark")
    p.add_argument("--scale", type=_positive_int, default=None,
                   help="flop-count divisor (default: the profile's scale)")
    p.add_argument("--level", type=int, choices=OPT_LEVELS, default=None,
                   help=f"optimization level (default: {DEFAULT_LEVEL})")
    p.add_argument("--key-bits", type=int, default=None)
    p.add_argument("--lock-seed", type=int, default=0)
    p.add_argument("--emit-json", default=None, metavar="DIR",
                   help="write BENCH_opt.json + .csv artifacts to DIR")
    add_profile(p)
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser(
        "opt-bench",
        help="measure the optimized vs raw attack pipeline (Table II grid)",
    )
    p.add_argument(
        "--benchmarks", nargs="*", default=[],
        help="restrict the grid to these benchmarks (default: all of "
             "Table II)",
    )
    p.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRACTION",
        help="fail when opt total time exceeds no-opt by this fraction "
             "(default 0.10)",
    )
    p.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = serial, 0 = one per CPU core)",
    )
    p.add_argument("--emit-json", default=None, metavar="DIR",
                   help="write BENCH_opt.json + .csv artifacts to DIR")
    add_profile(p)
    add_obs(p)
    p.set_defaults(func=cmd_opt_bench)

    p = sub.add_parser(
        "matrix", help="run the attack x defense resilience grid"
    )
    p.add_argument(
        "--attacks", nargs="*", default=[],
        help="restrict the grid to these registered attacks",
    )
    p.add_argument(
        "--defenses", nargs="*", default=[],
        help="restrict the grid to these registered defenses",
    )
    p.add_argument(
        "--benchmarks", nargs="*", default=[],
        help="benchmarks to lock (default: the two smallest at the "
             "profile's scale)",
    )
    p.add_argument(
        "--check-paper", action=argparse.BooleanOptionalAction, default=True,
        help="exit non-zero when a measured verdict disagrees with the "
             "paper's Table I (default: on)",
    )
    add_profile(p)
    add_runner(p)
    add_opt(p)
    add_obs(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "fuzz-replay",
        help="re-demonstrate every crash-corpus entry",
        description="Replay a farm's crash corpus (<state>/corpus). "
                    "Exit 0: every replayable entry still reproduces (or "
                    "the corpus is empty); exit 1: at least one entry no "
                    "longer reproduces; exit 2: the corpus is damaged.",
    )
    p.add_argument(
        "corpus", nargs="?", default=".repro_farm/corpus",
        help="corpus directory (default .repro_farm/corpus)",
    )
    p.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="replay under this profile instead of the recorded one",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="print each entry's detail and trial params",
    )
    p.set_defaults(func=cmd_fuzz_replay)

    def _duration(text: str) -> float:
        from repro.config import parse_duration

        try:
            return parse_duration(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    p = sub.add_parser(
        "farm", help="continuous fuzz farm (rolling, resumable rounds)"
    )
    farm_sub = p.add_subparsers(dest="farm_command", required=True)

    fp = farm_sub.add_parser(
        "run",
        help="run budgeted farm rounds against a state directory",
        description="Run coverage-scheduled fuzz rounds, persisting a "
                    "deduplicating corpus and checkpointing state after "
                    "every round (a killed run resumes byte-identically). "
                    "With neither --budget nor --max-rounds, run exactly "
                    "one round: on a fresh --state that is the seeded "
                    "--round-trials campaign. "
                    "Exit 0: no violations this run; 1: violations found; "
                    "2: usage/state error.",
    )
    fp.add_argument(
        "--state", default=None, metavar="DIR",
        help="farm state directory: corpus + journal + checkpoint "
             "(default .repro_farm)",
    )
    fp.add_argument(
        "--budget", type=_duration, default=None, metavar="DURATION",
        help="wall-clock budget for this invocation, e.g. 90, 10m, 1h30m "
             "(stops starting new rounds past it)",
    )
    fp.add_argument(
        "--max-rounds", type=int, default=None, metavar="N",
        help="stop once the farm's lifetime round count reaches N "
             "(deterministic budget; default 0 = unbounded)",
    )
    fp.add_argument(
        "--round-trials", type=int, default=None, metavar="N",
        help="trials per round (default 24)",
    )
    fp.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="farm seed; must match the state directory's (default 0)",
    )
    fp.add_argument(
        "--attacks", nargs="*", default=[],
        help="restrict scheduling to these registered attacks",
    )
    fp.add_argument(
        "--defenses", nargs="*", default=[],
        help="restrict scheduling to these registered defenses",
    )
    add_profile(fp)
    add_runner(fp)
    add_opt(fp)
    add_obs(fp)
    fp.set_defaults(func=cmd_farm_run)

    fp = farm_sub.add_parser(
        "status", help="summarize a farm state directory"
    )
    fp.add_argument(
        "state", nargs="?", default=".repro_farm",
        help="farm state directory (default .repro_farm)",
    )
    fp.add_argument(
        "--json", action="store_true",
        help="emit the status block as JSON",
    )
    fp.set_defaults(func=cmd_farm_status)

    p = sub.add_parser(
        "config", help="validate and inspect experiment config profiles"
    )
    config_sub = p.add_subparsers(dest="config_command", required=True)

    cfp = config_sub.add_parser(
        "check",
        help="validate config profiles against the schema",
        description="Validate TOML/JSON config profiles. Every problem "
                    "is reported with its dotted key path (e.g. "
                    "farm.concurrency). Exit 0: all valid; 1: any issue.",
    )
    cfp.add_argument(
        "files", nargs="+", metavar="FILE",
        help="config profile(s) to validate",
    )
    cfp.add_argument(
        "--strict", action="store_true",
        help="also reject unknown keys and sections",
    )
    cfp.set_defaults(func=cmd_config_check)

    cfp = config_sub.add_parser(
        "show", help="print a profile's validated values as JSON"
    )
    cfp.add_argument("file", help="config profile to show")
    cfp.set_defaults(func=cmd_config_show)

    p = sub.add_parser(
        "cache", help="inspect and manage the result store"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    def add_cache_args(cp: argparse.ArgumentParser) -> None:
        cp.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="result store location (default: $REPRO_CACHE_DIR "
                 "or .repro_cache)",
        )

    cp = cache_sub.add_parser("stats", help="describe the store's contents")
    add_cache_args(cp)
    cp.add_argument("--json", action="store_true",
                    help="emit the stats block as JSON")
    cp.set_defaults(func=cmd_cache_stats)

    cp = cache_sub.add_parser(
        "gc", help="evict oldest entries down to a size bound"
    )
    add_cache_args(cp)
    cp.add_argument(
        "--max-bytes", type=_parse_size, required=True, metavar="SIZE",
        help="size bound for the current version's entries "
             "(suffixes K/M/G/T accepted, e.g. 500M)",
    )
    cp.add_argument("--dry-run", action="store_true",
                    help="report what would be evicted without deleting")
    cp.add_argument("-v", "--verbose", action="store_true",
                    help="list each evicted entry")
    cp.set_defaults(func=cmd_cache_gc)

    cp = cache_sub.add_parser(
        "prune", help="drop entries from other code versions"
    )
    add_cache_args(cp)
    cp.set_defaults(func=cmd_cache_prune)

    p = sub.add_parser(
        "run", help="run experiment grids through the parallel runner"
    )
    p.add_argument(
        "experiments", nargs="+", choices=sorted(GRID) + ["all"],
        help="which grids to run (or 'all')",
    )
    p.add_argument(
        "--benchmarks", nargs="*", default=[],
        help="restrict table2/table3 to these benchmarks",
    )
    add_profile(p)
    add_runner(p)
    add_opt(p)
    add_obs(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "top", help="live view over an instrumented run's metrics directory"
    )
    p.add_argument(
        "metrics_dir", nargs="?", default=None,
        help="metrics directory of the run to watch "
             "(default: $REPRO_METRICS_DIR or .repro_metrics)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2.0)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    p.set_defaults(func=cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    args.argv = list(argv)  # recorded in run.json by _observation
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
