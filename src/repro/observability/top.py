"""``dynunlock top``: a live text view over a run's metrics directory.

The view is reconstructed purely from the files an
:class:`~repro.observability.session.ObsSession` streams to disk
(``run.json`` + ``spans.jsonl``), so it works on a run in progress in
another process, on a finished run, or on a copy of the directory
downloaded from CI.  A job counts as *running* when its ``submitted``
record has no matching ``span`` record yet -- which is exactly how you
spot a stuck cell from the outside.

:func:`load_snapshot` is tolerant by construction: missing files give
an empty snapshot, and a torn trailing JSONL line (the writer may be
mid-append) is skipped rather than fatal.  :func:`render_top` is a pure
function of the snapshot and a clock, so tests can render canned runs
deterministically.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.observability.session import SUMMARY_PHASES, aggregate_spans


@dataclass
class RunSnapshot:
    """Everything :func:`render_top` needs, parsed from one metrics dir."""

    run: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    submitted: dict[int, dict] = field(default_factory=dict)
    farm_rounds: list[dict] = field(default_factory=list)

    @property
    def running(self) -> list[dict]:
        """Submitted records with no finished span yet (oldest first)."""
        done = {span.get("job_id") for span in self.spans}
        live = [rec for job_id, rec in self.submitted.items() if job_id not in done]
        return sorted(live, key=lambda rec: rec.get("t", 0.0))


def load_snapshot(metrics_dir: str | Path) -> RunSnapshot:
    """Parse ``run.json`` + ``spans.jsonl`` from ``metrics_dir``."""
    root = Path(metrics_dir)
    snapshot = RunSnapshot()
    run_path = root / "run.json"
    if run_path.is_file():
        try:
            snapshot.run = json.loads(run_path.read_text())
        except ValueError:
            snapshot.run = {}
    spans_path = root / "spans.jsonl"
    if spans_path.is_file():
        for line in spans_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn trailing write
            if not isinstance(record, dict):
                continue
            kind = record.get("kind")
            if kind == "span":
                snapshot.spans.append(record)
            elif kind == "submitted":
                snapshot.submitted[record.get("job_id", -1)] = record
            elif kind == "farm_round":
                snapshot.farm_rounds.append(record)
    return snapshot


def _fmt_age(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m{seconds % 60:.0f}s"
    return f"{seconds / 3600:.1f}h"


def _props_per_s(span: dict) -> float | None:
    """Solver propagations per second of ``solve`` phase, if both known."""
    propagations = (span.get("counts") or {}).get("solver_propagations")
    solve_s = float((span.get("phases") or {}).get("solve", 0.0))
    if not propagations or solve_s <= 0.0:
        return None
    return propagations / solve_s


def render_top(
    snapshot: RunSnapshot,
    *,
    now: float | None = None,
    max_running: int = 8,
    max_slowest: int = 5,
) -> str:
    """Render one frame of the live view as plain text."""
    from repro.reports.tables import render_table

    now = time.time() if now is None else now
    run = snapshot.run
    lines: list[str] = []
    run_id = run.get("run_id", "?")
    command = run.get("command") or "?"
    started = run.get("started_unix")
    uptime = f"  up {_fmt_age(now - started)}" if started else ""
    n_done = len(snapshot.spans)
    n_cached = sum(1 for s in snapshot.spans if s.get("status") == "cached")
    n_failed = sum(1 for s in snapshot.spans if s.get("status") == "failed")
    running = snapshot.running
    lines.append(f"run {run_id} ({command}){uptime}")
    lines.append(
        f"jobs: {n_done} done ({n_cached} cached, {n_failed} failed), "
        f"{len(running)} running"
    )
    if snapshot.farm_rounds:
        latest = snapshot.farm_rounds[-1]
        lines.append(
            f"farm: round {latest.get('round', 0) + 1} done, "
            f"{latest.get('trials_total', 0)} trials, "
            f"{latest.get('violations_total', 0)} violation(s), "
            f"corpus {latest.get('corpus_entries', 0)}, "
            f"cells {latest.get('cells_covered', 0)}"
            f"/{latest.get('n_cells', 0)}, "
            f"{float(latest.get('trials_per_s', 0.0)):.1f} trials/s"
        )
        hot = latest.get("hot_cells") or []
        for cell in hot[:3]:
            try:
                key, trials, violations = cell
            except (TypeError, ValueError):
                continue
            lines.append(
                f"  hot cell {key}: {trials} trials, "
                f"{violations} violation(s)"
            )
    if snapshot.spans:
        headers, rows = aggregate_spans(snapshot.spans)
        lines.append("")
        lines.append(render_table(headers, rows, title="Where the time went"))
    if running:
        lines.append("")
        lines.append("running jobs:")
        for rec in running[:max_running]:
            age = _fmt_age(now - rec.get("t", now))
            lines.append(f"  #{rec.get('job_id', '?')} {rec.get('label', '?')} — {age}")
        if len(running) > max_running:
            lines.append(f"  ... and {len(running) - max_running} more")
    computed = [s for s in snapshot.spans if s.get("status") == "computed"]
    if computed:
        slowest = sorted(
            computed, key=lambda s: -float(s.get("duration_s", 0.0))
        )[:max_slowest]
        lines.append("")
        lines.append("slowest completed:")
        for span in slowest:
            detail = ", ".join(
                f"{p}={float(span.get('phases', {}).get(p, 0.0)):.2f}s"
                for p in SUMMARY_PHASES
                if p != "queue" and span.get("phases", {}).get(p)
            )
            counts = span.get("counts") or {}
            if counts.get("dips"):
                detail += f"{', ' if detail else ''}dips={counts['dips']}"
            rate = _props_per_s(span)
            if rate is not None:
                detail += f"{', ' if detail else ''}props/s={rate / 1e6:.2f}M"
            suffix = f" ({detail})" if detail else ""
            lines.append(
                f"  {span.get('label', '?')} — "
                f"{float(span.get('duration_s', 0.0)):.2f}s{suffix}"
            )
    return "\n".join(lines) + "\n"


def watch(
    metrics_dir: str | Path,
    *,
    interval: float = 2.0,
    once: bool = False,
    out=None,
) -> int:
    """The ``dynunlock top`` loop: render, sleep, repeat until Ctrl-C."""
    import sys

    out = sys.stdout if out is None else out
    root = Path(metrics_dir)
    if not root.is_dir():
        print(f"error: no metrics directory at {root}", file=sys.stderr)
        return 2
    while True:
        frame = render_top(load_snapshot(root))
        if once:
            out.write(frame)
            return 0
        # ANSI clear-screen + home keeps the frame in place like top(1).
        out.write("\x1b[2J\x1b[H" + frame)
        out.flush()
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
