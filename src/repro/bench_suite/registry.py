"""Named benchmark registry mirroring the paper's evaluation circuits.

Each entry reproduces the *post-synthesis scan flop count* the paper
reports in Table II (its footnote 2 explains why these differ from the
original benchmark flop counts).  The functional logic is synthetic (see
DESIGN.md substitutions); primary input/output counts follow the original
benchmark documentation where known and are otherwise plausible.

Scaling: the paper ran on a 24-core Xeon with lingeling; this repo runs
its own CDCL solver (a native C search core).
``build_benchmark_netlist(..., scale=...)`` divides the flop count (and
the experiment harness shrinks the key size) so the full table
regenerates in about a second by default; ``scale=1`` gives paper-size
instances (``REPRO_PROFILE=paper`` in the benches, see
:mod:`repro.reports.profiles`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.netlist.netlist import Netlist
from repro.util.rng import hash_label


@dataclass(frozen=True)
class BenchmarkSpec:
    """One named benchmark with its paper-reported scan profile."""

    name: str
    suite: str  # "ISCAS-89" or "ITC-99"
    n_scan_flops: int  # post-synthesis count from Table II
    n_inputs: int
    n_outputs: int
    gates_per_flop: float = 3.0

    def generator_config(self, scale: int = 1) -> GeneratorConfig:
        if scale < 1:
            raise ValueError("scale divides the flop count; must be >= 1")
        n_flops = max(16, self.n_scan_flops // scale)
        return GeneratorConfig(
            n_flops=n_flops,
            n_inputs=self.n_inputs,
            n_outputs=self.n_outputs,
            gates_per_flop=self.gates_per_flop,
        )


PAPER_BENCHMARKS: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        # Table II, ISCAS-89 (flop counts are the paper's column 2).
        BenchmarkSpec("s5378", "ISCAS-89", 160, 35, 49),
        BenchmarkSpec("s13207", "ISCAS-89", 202, 62, 152),
        BenchmarkSpec("s15850", "ISCAS-89", 442, 77, 150),
        BenchmarkSpec("s38584", "ISCAS-89", 1233, 38, 304),
        BenchmarkSpec("s38417", "ISCAS-89", 1564, 28, 106),
        BenchmarkSpec("s35932", "ISCAS-89", 1728, 35, 320),
        # Table II, ITC-99.
        BenchmarkSpec("b20", "ITC-99", 429, 32, 22),
        BenchmarkSpec("b21", "ITC-99", 429, 32, 22),
        BenchmarkSpec("b22", "ITC-99", 611, 32, 22),
        BenchmarkSpec("b17", "ITC-99", 864, 37, 97),
    ]
}

TABLE2_BENCHMARKS: list[str] = list(PAPER_BENCHMARKS.keys())
TABLE3_BENCHMARKS: list[str] = ["s38584", "s38417", "s35932"]


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a named paper benchmark, raising KeyError with the known names."""
    try:
        return PAPER_BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(PAPER_BENCHMARKS)}"
        ) from None


def smallest_benchmarks(n: int = 2, scale: int = 1) -> list[str]:
    """The ``n`` registry benchmarks with the fewest *scaled* flops.

    Ties (common at high scales, where the 16-flop floor kicks in) break
    by name, so the selection is deterministic -- the matrix grid and
    the CI smoke job both lean on that.
    """
    def scaled_flops(spec: BenchmarkSpec) -> int:
        return spec.generator_config(scale).n_flops

    ranked = sorted(
        PAPER_BENCHMARKS.values(), key=lambda s: (scaled_flops(s), s.name)
    )
    return [spec.name for spec in ranked[:n]]


def build_benchmark_netlist(name: str, scale: int = 1) -> Netlist:
    """Materialise the named benchmark (deterministic per name+scale)."""
    spec = get_benchmark(name)
    rng = random.Random(hash_label(0xB36C, f"{name}/scale={scale}"))
    return generate_circuit(spec.generator_config(scale), rng, name=name)
