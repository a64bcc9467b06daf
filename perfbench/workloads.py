"""The benchmark's workloads: fixed attack cells, run in a seeded order.

Every workload is a list of :class:`Cell`\\ s built by its ``build(seed)``
function (the set-up the benchmark times as ``setup_s``).  Running a
cell performs one attack through the public ``repro`` API, serially, in
this process, with no result store, and returns its outcome: a JSON-safe
dict with no wall-clock fields, so two runs of the same cell can be
compared for equality.  ``work`` in an outcome holds solver counters
that must repeat exactly within one code version but may change with
the solver; it is left out of the outcome digest.

* ``table2-quick`` -- the paper's Table II at the quick profile: every
  registry benchmark at LFSR seed index 0, 16-bit keys (clamped to the
  chain), default optimisation level.
* ``keysweep-b17`` -- b17 at 20 and 24 key bits, Table III style (the
  16-bit point is in ``table2-quick``).
* ``fuzz-mix`` -- a fixed set of differential-fuzz trials from fuzz
  campaign seed 0, stratified so every registered (attack, defense)
  pair gets the same number of trials; no corpus, no shrinking.

Every workload attacks fixed instances whose outcomes are recorded in
``expected.json``; the benchmark seed only sets the order the cells run
in.  Varying the instances with the seed would make the run-to-run
spread of the end-to-end metrics that of the instance mix (about 10%
on ``fuzz-mix``'s total, over 20% on its slowest trial) rather than of
the code being measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import api
from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.fuzz.campaign import fuzz_cell, sample_trial_params
from repro.matrix.registry import applicable_pairs
from repro.reports.cells import build_table2_lock

PROFILE = "quick"
KEYSWEEP_BITS = (20, 24)
FUZZ_CAMPAIGN_SEED = 0
#: Fuzz trials per registered (attack, defense) pair.
FUZZ_TRIALS_PER_PAIR = 20

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Cell:
    """One attack: ``run()`` returns its outcome (see the module docstring)."""

    id: str
    run: Callable[[], dict]
    expected: dict | None = None


def _dynunlock_cell(profile, benchmark: str, seed_index: int, key_bits, opt_level):
    netlist, lock, kb = build_table2_lock(profile, benchmark, seed_index, key_bits)
    config = DynUnlockConfig(
        timeout_s=profile.timeout_s,
        candidate_limit=profile.candidate_limit,
        opt_level=opt_level,
    )

    def run() -> dict:
        result = dynunlock(netlist, lock.public_view(), lock.make_oracle(), config)
        stats = result.sat_result.solver_stats
        return {
            "benchmark": benchmark,
            "key_bits": kb,
            "n_seed_candidates": result.n_seed_candidates,
            "iterations": result.iterations,
            "success": bool(result.success),
            "exact_seed": result.recovered_seed == list(lock.seed),
            "oracle_queries": result.oracle_queries,
            "work": {
                "rounds": [[r.conflicts, r.learned_clauses] for r in result.rounds],
                "decisions": stats.decisions,
                "propagations": stats.propagations,
            },
        }

    return run


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _shuffled(cells: list[Cell], seed: int) -> list[Cell]:
    random.Random(seed).shuffle(cells)
    return cells


def build_table2(seed: int) -> list[Cell]:
    profile = api.resolve_profile(PROFILE)
    expected = _expected()["table2-quick"]["cells"]
    cells = []
    for spec in api.grid_specs("table2", profile):
        p = spec.params
        cell_id = f"{p['benchmark']}@{p['seed_index']}"
        run = _dynunlock_cell(
            profile, p["benchmark"], p["seed_index"], p.get("key_bits"), p.get("opt_level")
        )
        cells.append(Cell(cell_id, run, expected.get(cell_id)))
    return _shuffled(cells, seed)


def build_keysweep(seed: int) -> list[Cell]:
    profile = api.resolve_profile(PROFILE)
    expected = _expected()["keysweep-b17"]["cells"]
    cells = []
    for key_bits in KEYSWEEP_BITS:
        cell_id = f"b17/{key_bits}"
        run = _dynunlock_cell(profile, "b17", 0, key_bits, None)
        cells.append(Cell(cell_id, run, expected.get(cell_id)))
    return _shuffled(cells, seed)


def fuzz_trials(
    campaign_seed: int = FUZZ_CAMPAIGN_SEED, per_pair: int = FUZZ_TRIALS_PER_PAIR
) -> list[dict]:
    """The campaign's first ``per_pair`` trials of every applicable pair.

    Trials come from the fuzzer's own seeded stream in index order; a
    trial whose pair is already full is skipped, so every pair gets the
    same number of trials.
    """
    wanted = {pair: per_pair for pair in applicable_pairs()}
    trials = []
    index = 0
    while any(wanted.values()):
        params = sample_trial_params(campaign_seed, index)
        pair = (params["attack"], params["defense"])
        if wanted[pair]:
            wanted[pair] -= 1
            trials.append({"index": index, **params})
        index += 1
    return trials


def build_fuzz(seed: int) -> list[Cell]:
    profile = api.resolve_profile(PROFILE)
    cells = []
    for trial in fuzz_trials():
        params = {k: v for k, v in trial.items() if k != "index"}

        def run(params=params) -> dict:
            result = fuzz_cell(profile, **params)
            return {**result, "oracle_queries": result["queries"]}

        cell_id = f"{trial['index']}:{trial['attack']}/{trial['defense']}"
        cells.append(Cell(cell_id, run))
    return _shuffled(cells, seed)


def check(cell: Cell, outcome: dict) -> list[str]:
    """Why ``outcome`` is wrong for ``cell`` (empty when it is right).

    A fuzz trial is wrong when it violated an invariant; a recorded cell
    is wrong when it was not broken, its key width or seed-candidate
    count differs from the recorded one, or it missed a recorded exact
    seed.
    """
    problems = [
        f"{v['invariant']}: {v['detail']}" for v in outcome.get("violations", [])
    ]
    if cell.expected is not None:
        if not outcome["success"]:
            problems.append("not broken")
        for key, want in cell.expected.items():
            got = outcome.get(key)
            if key == "exact_seed" and want and not got:
                problems.append("missed the recorded exact seed")
            elif key != "exact_seed" and got != want:
                problems.append(f"{key}={got!r}, recorded {want!r}")
    return problems


def digest(outcomes: dict[str, dict]) -> str:
    """Short hash of every cell's outcome without its ``work`` counters."""
    canonical = json.dumps(
        {
            cell_id: {k: v for k, v in outcome.items() if k != "work"}
            for cell_id, outcome in outcomes.items()
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def recorded_digest(workload: str) -> str | None:
    """The workload's recorded outcome digest, if one is recorded."""
    return _expected()[workload].get("digest")


#: Workload name -> the function building its cells from the seed.
WORKLOADS: dict[str, Callable[[int], list[Cell]]] = {
    "table2-quick": build_table2,
    "keysweep-b17": build_keysweep,
    "fuzz-mix": build_fuzz,
}
