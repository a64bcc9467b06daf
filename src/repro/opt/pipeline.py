"""The composable optimization pipeline: ``optimize(netlist, level=...)``.

Levels:

* ``0`` -- no-op: the input netlist is returned untouched.
* ``1`` (default) -- rounds of structural hashing followed by a
  cone-of-influence sweep (:func:`repro.opt.structhash.optimize_round`),
  until another round could change nothing.  Pure graph rewriting,
  linear in the netlist per round; almost every netlist takes one
  round.  This is the level every attack encodes through unless told
  otherwise.

The pipeline pins the whole netlist interface automatically: primary
inputs (hence key inputs), primary outputs, and flip-flop Q/D nets are
never renamed, reordered or removed, so recovered keys and oracle
wirings map back to the original netlist unchanged.  Extra nets can be
pinned with ``pin=``.

The level is chosen per call (``level=``; ``None`` means
:data:`DEFAULT_LEVEL`).  Every pass reports an :class:`OptStats` entry
(gates before/after, wall time), two per round, so callers -- the
``dynunlock opt`` CLI, the opt bench -- can show where the reduction
came from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.netlist.netlist import Netlist
from repro.observability import spans as obs
from repro.opt.structhash import optimize_round

#: The level attacks preprocess with when nothing is specified.
DEFAULT_LEVEL = 1
MAX_LEVEL = 1

#: Safety bound on the rounds (reached only by pathological
#: oscillation, which the rewrites are not expected to exhibit).
_MAX_FIXPOINT_ROUNDS = 8


def resolve_level(level: int | None) -> int:
    """Normalise an optimization level request (``None`` = the default)."""
    level = DEFAULT_LEVEL if level is None else int(level)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(
            f"optimization level must be in 0..{MAX_LEVEL}, got {level}"
        )
    return level


@dataclass(frozen=True)
class PassStats:
    """One pass's contribution: gate delta and wall time."""

    name: str
    gates_before: int
    gates_after: int
    time_s: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "time_s": self.time_s,
            "detail": dict(self.detail),
        }


@dataclass
class OptStats:
    """Whole-pipeline accounting (JSON-safe via :meth:`as_dict`)."""

    level: int
    gates_before: int
    gates_after: int
    time_s: float
    passes: list[PassStats] = field(default_factory=list)
    unused_inputs: list[str] = field(default_factory=list)

    @property
    def gates_removed(self) -> int:
        return self.gates_before - self.gates_after

    @property
    def reduction(self) -> float:
        """Fraction of gates removed (0.0 on an empty netlist)."""
        if self.gates_before == 0:
            return 0.0
        return self.gates_removed / self.gates_before

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "gates_removed": self.gates_removed,
            "reduction": self.reduction,
            "time_s": self.time_s,
            "unused_inputs": list(self.unused_inputs),
            "passes": [p.as_dict() for p in self.passes],
        }


@dataclass
class OptResult:
    """The optimized netlist plus the stats that produced it."""

    netlist: Netlist
    stats: OptStats


def _interface_pins(netlist: Netlist, extra: frozenset[str]) -> frozenset[str]:
    pins = set(extra)
    pins.update(netlist.outputs)
    for dff in netlist.dffs.values():
        pins.add(dff.d)
        pins.add(dff.q)
    return frozenset(pins)


def optimize(
    netlist: Netlist,
    level: int | None = None,
    *,
    pin: tuple[str, ...] = (),
) -> OptResult:
    """Optimize ``netlist`` at ``level``; see the module docstring.

    The input netlist is never mutated; at level 0 it is returned as-is
    (same object) with empty stats.
    """
    level = resolve_level(level)
    started = time.perf_counter()
    gates_before = netlist.n_gates
    stats = OptStats(
        level=level,
        gates_before=gates_before,
        gates_after=gates_before,
        time_s=0.0,
    )
    if level == 0:
        return OptResult(netlist=netlist, stats=stats)

    pinned = _interface_pins(netlist, frozenset(pin))
    current = _level1_fixpoint(netlist, pinned, stats)
    stats.gates_after = current.n_gates
    stats.time_s = time.perf_counter() - started
    # Every round ends on its sweep pass.
    stats.unused_inputs = list(stats.passes[-1].detail["unused_inputs"])
    if obs.active():
        # One span update per pipeline run; nothing on the per-pass path.
        obs.add_phase("opt", stats.time_s)
        obs.incr("opt_gates_removed", stats.gates_removed)
    return OptResult(netlist=current, stats=stats)


def _level1_fixpoint(
    netlist: Netlist, pinned: frozenset[str], stats: OptStats
) -> Netlist:
    """Run rounds until another round could change nothing.

    Each round records its rewrite walk (``structhash``) and its sweep as
    two passes.  The loop stops on the first settled round (the rule and
    its argument are in :mod:`repro.opt.structhash`), so it returns what
    repeating rounds until the gate set stops changing returns, one
    round sooner.
    """
    current = netlist
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        step = optimize_round(current, pinned)
        stats.passes.extend(PassStats(*record) for record in step.passes)
        current = step.netlist
        if step.settled:
            break
    return current
