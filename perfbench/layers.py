"""Per-layer tracing of the attack stack, installed from outside ``src/``.

:class:`Tracer` replaces the public entry point of every layer with a
timing wrapper and puts the originals back on exit.  Nothing under
``src/`` knows about it, so the traced program is the program.

A name bound with ``from x import y`` is a separate reference in every
importing module, so a function is replaced under *every* module
attribute of a loaded ``repro`` module that holds it; methods are
replaced once, on the class that defines them.  Modules imported while
the tracer is installed would keep a wrapper after exit, so
:func:`import_layers` imports them all first; a stray wrapper is a plain
pass-through once its tracer is no longer installed.

Each wrapper keeps a span stack.  A layer's *self time* is its span's
duration minus the time of the spans nested in it, so solves run inside
model enumeration count as ``solve``, not ``enumerate``.  A call into the
layer that is already on top of the stack is not a new span (helpers of
one layer calling each other).  The benchmark opens an ``unattributed``
span around each cell; its self time is the cell time no layer covers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Solver counters reported, summed over every solver created while
#: tracing (``SolverStats`` fields).  Summing whole-solver totals rather
#: than per-``solve`` deltas also counts the top-level propagation that
#: adding unit clauses does between solve calls.
SOLVER_COUNTERS = (
    "conflicts",
    "decisions",
    "propagations",
    "learned",
    "deleted",
    "restarts",
)

#: The layers in pipeline order; ``diff.py`` reports them in this order.
LAYERS = (
    "bench_suite",
    "locking",
    "model",
    "opt",
    "encode",
    "solve",
    "oracle",
    "enumerate",
    "replay",
    "sim",
    "invariants",
    "attack",
    "unattributed",
)

#: (layer, module, attribute) for every plainly timed entry point.
#: ``Class.method`` attributes are patched on the class.
TIMED = (
    ("bench_suite", "repro.bench_suite.registry", "build_benchmark_netlist"),
    ("bench_suite", "repro.bench_suite.generator", "generate_circuit"),
    ("locking", "repro.matrix.registry", "DefenseSpec.build"),
    ("locking", "repro.locking.effdyn", "lock_with_effdyn"),
    ("model", "repro.core.modeling", "build_combinational_model"),
    ("encode", "repro.sat.tseitin", "encoding_for"),
    ("encode", "repro.sat.tseitin", "CircuitEncoder.stamp"),
    ("encode", "repro.sat.tseitin", "CircuitEncoder.encode_netlist"),
    ("encode", "repro.attack.satattack", "SatAttack.add_dip_constraint"),
    ("oracle", "repro.scan.oracle", "ScanOracle.query"),
    ("oracle", "repro.scan.multichain", "MultiChainScanOracle.query"),
    ("oracle", "repro.locking.scramble", "ScrambleScanOracle.query"),
    ("oracle", "repro.locking.iolock", "IoOracle.query"),
    ("oracle", "repro.locking.dfs", "DfsOracle.load_and_observe"),
    ("replay", "repro.attack.bruteforce", "refine_candidates_by_replay"),
    ("sim", "repro.sim.logicsim", "evaluate"),
    ("sim", "repro.sim.logicsim", "evaluate_many"),
    ("sim", "repro.sim.logicsim", "CombinationalSimulator.run_many"),
    ("sim", "repro.sim.logicsim", "BitParallelSimulator.run_packed"),
    ("sim", "repro.sim.logicsim", "BitParallelSimulator.run_patterns"),
    ("invariants", "repro.fuzz.invariants", "check_key_equivalence"),
    ("invariants", "repro.fuzz.invariants", "check_opt_equivalence"),
    ("invariants", "repro.fuzz.invariants", "check_attack_replay"),
    ("attack", "repro.attack.satattack", "SatAttack.__init__"),
    ("attack", "repro.core.dynunlock", "DynUnlock.run"),
    ("attack", "repro.matrix.registry", "call_attack"),
)

#: Modules whose names the tracer patches (plus everything they import).
LAYER_MODULES = sorted({module for _, module, _ in TIMED}) + [
    "repro.sat.solver",
    "repro.sat.incremental",
    "repro.sat.enumerate",
    "repro.opt.pipeline",
    "repro.attack",
    "repro.matrix.plugins",
    "repro.fuzz.campaign",
    "repro.reports.cells",
]


def import_layers() -> None:
    """Import every module the tracer patches (see the module docstring)."""
    for name in LAYER_MODULES:
        importlib.import_module(name)


class Tracer:
    """Self time, calls and counts per layer while installed.

    Use as a context manager: entering patches the layers, leaving
    restores the originals.  ``self_s``/``calls`` are keyed by layer;
    ``counts`` and ``seconds`` by metric name (``attack.dips``,
    ``solve.sat_s``, ...).  :meth:`layer_metrics` gives them all.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._solver_stats: list = []
        # Each frame is [layer, seconds covered by nested spans].
        self._stack: list[list] = [["outside", 0.0]]
        self._patches: list[tuple[object, str, object]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def timed(self, layer: str, fn, args, kwargs):
        """Run ``fn`` as a ``layer`` span; returns ``(result, seconds)``.

        ``seconds`` is None when no span was opened (tracer not
        installed, or ``layer`` already on top of the stack).
        """
        if not self._installed or self._stack[-1][0] == layer:
            return fn(*args, **kwargs), None
        frame = [layer, 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self._stack[-1][1] += elapsed
            self.self_s[layer] += elapsed - frame[1]
            self.calls[layer] += 1
        return result, elapsed

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` under a ``layer`` span and return its result."""
        return self.timed(layer, fn, args, kwargs)[0]

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _plain(self, layer: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.timed(layer, original, args, kwargs)[0]

        return wrapper

    def _optimize(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result, seconds = self.timed("opt", original, args, kwargs)
            if seconds is not None:
                self.counts["opt.gates_removed"] += result.stats.gates_removed
            return result

        return wrapper

    def _absorb(self, original):
        @functools.wraps(original)
        def wrapper(solver, cnf, already_synced=0):
            synced, _ = self.timed(
                "encode", original, (solver, cnf, already_synced), {}
            )
            self.counts["encode.clauses"] += synced - already_synced
            return synced

        return wrapper

    def _solver_init(self, original):
        @functools.wraps(original)
        def wrapper(solver, *args, **kwargs):
            original(solver, *args, **kwargs)
            if self._installed:
                self._solver_stats.append(solver.stats)

        return wrapper

    def _solve(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result, seconds = self.timed("solve", original, args, kwargs)
            if seconds is not None:
                outcome = {True: "sat", False: "unsat"}.get(
                    result.satisfiable, "unknown"
                )
                self.seconds[f"solve.{outcome}_s"] += seconds
                if seconds > self.seconds["solve.max_call_s"]:
                    self.seconds["solve.max_call_s"] = seconds
            return result

        return wrapper

    def _attack_run(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result, _ = self.timed("attack", original, args, kwargs)
            self.counts["attack.dips"] += result.iterations
            return result

        return wrapper

    def _enumerate(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            models = original(*args, **kwargs)
            while True:
                try:
                    model, _ = self.timed("enumerate", next, (models,), {})
                except StopIteration:
                    return
                self.counts["enumerate.candidates"] += 1
                yield model

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch_function(self, module_name: str, name: str, make) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapper = make(original)
        for module_key, module in list(sys.modules.items()):
            if module is None or not module_key.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _patch_method(self, module_name: str, path: str, make) -> None:
        class_name, method = path.split(".")
        cls = getattr(sys.modules[module_name], class_name)
        original = cls.__dict__[method]
        setattr(cls, method, make(original))
        self._patches.append((cls, method, original))

    def _patch(self, module_name: str, path: str, make) -> None:
        if "." in path:
            self._patch_method(module_name, path, make)
        else:
            self._patch_function(module_name, path, make)

    def __enter__(self) -> "Tracer":
        import_layers()
        for layer, module_name, path in TIMED:
            self._patch(
                module_name,
                path,
                lambda original, layer=layer: self._plain(layer, original),
            )
        self._patch("repro.sat.solver", "CdclSolver.__init__", self._solver_init)
        self._patch("repro.sat.solver", "CdclSolver.solve", self._solve)
        self._patch("repro.sat.incremental", "IncrementalSolver.absorb", self._absorb)
        self._patch("repro.opt.pipeline", "optimize", self._optimize)
        self._patch("repro.attack.satattack", "SatAttack.run", self._attack_run)
        self._patch("repro.sat.enumerate", "enumerate_models", self._enumerate)
        self._installed = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._installed = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values by name (see BENCHMARK.json)."""
        solve_s = self.self_s["solve"]
        metrics: dict[str, float] = {
            f"{layer}.s": self.self_s[layer]
            for layer in LAYERS
            if layer != "unattributed"
        }
        metrics.update(
            {
                "solve.sat_s": self.seconds["solve.sat_s"],
                "solve.unsat_s": self.seconds["solve.unsat_s"],
                "solve.calls": self.calls["solve"],
                "solve.max_call_s": self.seconds["solve.max_call_s"],
            }
        )
        for name in SOLVER_COUNTERS:
            metrics[f"solve.{name}"] = sum(
                getattr(stats, name) for stats in self._solver_stats
            )
        metrics["solve.props_per_s"] = (
            metrics["solve.propagations"] / solve_s if solve_s else 0.0
        )
        metrics.update(
            {
                "opt.calls": self.calls["opt"],
                "opt.gates_removed": self.counts["opt.gates_removed"],
                "encode.clauses": self.counts["encode.clauses"],
                "model.calls": self.calls["model"],
                "oracle.queries": self.calls["oracle"],
                "enumerate.candidates": self.counts["enumerate.candidates"],
                "sim.calls": self.calls["sim"],
                "attack.dips": self.counts["attack.dips"],
                "unattributed_s": self.self_s["unattributed"],
            }
        )
        return metrics
