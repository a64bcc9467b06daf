"""A dependency-free Prometheus-style metrics registry.

Three instrument kinds cover everything the runner and the farm
need:

* :class:`Counter` -- a monotonically increasing sum per label set
  (jobs finished, store hits, DIPs enumerated, seconds spent per
  phase);
* :class:`Gauge` -- a settable/up-down value per label set (the farm's
  corpus entries and scheduler cells covered);
* :class:`Histogram` -- cumulative-bucket distributions per label set
  (job durations, queue latency), with the classic Prometheus
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` exposition.

A :class:`MetricsRegistry` owns the instruments and renders them either
as Prometheus text exposition (:meth:`MetricsRegistry.render_prom`,
scrape-compatible) or as a JSON-safe dict
(:meth:`MetricsRegistry.as_dict`, embedded in ``BENCH_obs.json``).
Everything is plain in-process Python -- no sockets, no threads, no
third-party client library -- because the runner only needs to
*export* metrics at the end of a run, not serve them.

Rendering is deterministic: metric names, label keys, and label sets
are all emitted in sorted order, so two runs that observe the same
events produce byte-identical ``metrics.prom`` files.
"""

from __future__ import annotations

from typing import Iterable, Mapping

#: Default histogram buckets, in seconds: solver cells span ~10ms
#: (cached/selfcheck) to minutes (paper-profile Table III rows).
DEFAULT_BUCKETS = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing metric, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (default 1) to the series selected by ``labels``."""
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {value})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        """Current value of one series (0 if never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> list[tuple[LabelKey, float]]:
        """All ``(label_key, value)`` pairs, sorted for determinism."""
        return sorted(self._series.items())

    def render(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} counter")
        for key, value in self.series():
            lines.append(f"{self.name}{_format_labels(key)} {_format_value(value)}")
        return lines

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value} for key, value in self.series()
            ],
        }


class Gauge:
    """A value that can go up, down, or be set outright; per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        self._series[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (default 1; may be negative) to one series."""
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels: object) -> None:
        """Subtract ``value`` (default 1) from one series."""
        self.inc(-value, **labels)

    def value(self, **labels: object) -> float:
        """Current value of one series (0 if never touched)."""
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> list[tuple[LabelKey, float]]:
        """All ``(label_key, value)`` pairs, sorted for determinism."""
        return sorted(self._series.items())

    def render(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} gauge")
        for key, value in self.series():
            lines.append(f"{self.name}{_format_labels(key)} {_format_value(value)}")
        return lines

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value} for key, value in self.series()
            ],
        }


class Histogram:
    """A cumulative-bucket distribution, one series per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(set(buckets if buckets is not None else DEFAULT_BUCKETS)))
        if not self.buckets:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        # Per label set: per-bucket counts (non-cumulative, +Inf last),
        # running sum, and observation count.
        self._series: dict[LabelKey, dict] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation in the series selected by ``labels``."""
        key = _label_key(labels)
        entry = self._series.get(key)
        if entry is None:
            entry = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
            self._series[key] = entry
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                entry["counts"][i] += 1
                break
        else:
            entry["counts"][-1] += 1
        entry["sum"] += value
        entry["count"] += 1

    def stats(self, **labels: object) -> tuple[int, float]:
        """``(count, sum)`` of one series (``(0, 0.0)`` if empty)."""
        entry = self._series.get(_label_key(labels))
        if entry is None:
            return 0, 0.0
        return entry["count"], entry["sum"]

    def series(self) -> list[tuple[LabelKey, dict]]:
        return sorted(self._series.items())

    def _cumulative(self, entry: dict) -> list[int]:
        out, running = [], 0
        for count in entry["counts"]:
            running += count
            out.append(running)
        return out

    def render(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} histogram")
        for key, entry in self.series():
            cumulative = self._cumulative(entry)
            bounds = [_format_value(float(b)) for b in self.buckets] + ["+Inf"]
            for bound, count in zip(bounds, cumulative):
                bucket_key = key + (("le", bound),)
                lines.append(
                    f"{self.name}_bucket{_format_labels(bucket_key)} {count}"
                )
            lines.append(
                f"{self.name}_sum{_format_labels(key)} {_format_value(entry['sum'])}"
            )
            lines.append(f"{self.name}_count{_format_labels(key)} {entry['count']}")
        return lines

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": dict(key),
                    "count": entry["count"],
                    "sum": entry["sum"],
                    "bucket_counts": list(entry["counts"]),
                }
                for key, entry in self.series()
            ],
        }


class MetricsRegistry:
    """Owns counters, gauges, and histograms; get-or-create by name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """Return the counter called ``name``, creating it on first use."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Return the gauge called ``name``, creating it on first use."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] | None = None
    ) -> Histogram:
        """Return the histogram called ``name``, creating it on first use."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name} already registered as {metric.kind}")
        return metric

    def _get_or_create(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {name} already registered as {metric.kind}")
        return metric

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def render_prom(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: list[str] = []
        for metric in self:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> dict:
        """JSON-safe snapshot, keyed by metric name."""
        return {metric.name: metric.as_dict() for metric in self}
