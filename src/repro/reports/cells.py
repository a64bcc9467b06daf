"""Single experiment cells: the unit of work the runner distributes.

Each function here computes exactly one grid cell of the paper's
evaluation -- one (benchmark, lock scheme, attack, profile, seed)
combination -- and returns a plain JSON-safe dict, so the result can be
pickled back from a worker process, memoised in the result store
(:mod:`repro.runner.stores`), and serialised into artifacts.

A cell whose attack ran out of its wall-clock budget says so with a
true ``timed_out``; the scheduler reports such a result but never
stores it, because it depends on the speed of the machine that ran it.

Determinism contract: every cell derives all randomness from
``hash_label`` streams keyed by its own parameters, and rebuilds its
netlist/lock from scratch.  That makes a cell's output independent of
which process runs it and of whatever ran before it in the same process
-- the property the parallel-equals-serial tests pin down.  The
aggregation back into paper-style rows lives in
:mod:`repro.reports.experiments`; keep averaging out of this module.

``CELL_RUNNERS`` is the name -> function registry the worker resolves
:class:`~repro.runner.spec.JobSpec.experiment` against.  Note Table III
reuses the ``table2`` cell *function* (same computation, wider keys) but
keeps its own experiment name, so the two tables' cache namespaces stay
distinct -- a table3 run never reads or clobbers table2 entries.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.fuzz.campaign import fuzz_cell
from repro.matrix.grid import matrix_cell
from repro.netlist.netlist import Netlist
from repro.reports.profiles import ExperimentProfile
from repro.util.rng import hash_label


def build_table2_lock(
    profile: ExperimentProfile,
    benchmark: str,
    seed_index: int = 0,
    key_bits: int | None = None,
):
    """The exact (netlist, lock, key_bits) a table2 cell attacks.

    Shared by :func:`table2_cell`, the ``dynunlock opt-bench`` gate,
    and the opt benches, so the RNG-label convention
    (``hash_label(seed_index, "table2/<benchmark>")``) and the key-width
    derivation live in one place.
    """
    from repro.bench_suite.registry import build_benchmark_netlist
    from repro.locking.effdyn import lock_with_effdyn

    netlist = build_benchmark_netlist(benchmark, scale=profile.scale)
    kb = profile.effective_key_bits(netlist.n_dffs, key_bits)
    rng = random.Random(hash_label(seed_index, f"table2/{benchmark}"))
    lock = lock_with_effdyn(netlist, key_bits=kb, rng=rng)
    return netlist, lock, kb


def table2_cell(
    profile: ExperimentProfile,
    *,
    benchmark: str,
    seed_index: int,
    key_bits: int | None = None,
    opt_level: int | None = None,
) -> dict[str, Any]:
    """Attack one Table II benchmark under one LFSR seed.

    ``opt_level`` pins the :mod:`repro.opt` preprocessing level; the
    spec builders always bake the resolved level into the params, so it
    participates in the cache key (None = resolve the default level
    here, for direct callers).
    """
    netlist, lock, kb = build_table2_lock(
        profile, benchmark, seed_index, key_bits
    )
    result = dynunlock(
        netlist,
        lock.public_view(),
        lock.make_oracle(),
        DynUnlockConfig(
            timeout_s=profile.timeout_s,
            candidate_limit=profile.candidate_limit,
            opt_level=opt_level,
        ),
    )
    return {
        "benchmark": benchmark,
        "seed_index": seed_index,
        "n_scan_flops": netlist.n_dffs,
        "key_bits": kb,
        "n_seed_candidates": result.n_seed_candidates,
        "iterations": result.iterations,
        "time_s": result.runtime_s,
        "success": bool(result.success),
        "exact_seed": result.recovered_seed == list(lock.seed),
        "timed_out": result.timed_out,
    }


_TABLE1_DEFENSES = ("eff", "dfs", "dos", "effdyn")

# Historical RNG stream indices -- the original hand-written wiring
# numbered the defenses in this order, and the labels participate in
# the cache key, so they are preserved across the registry refactor.
_TABLE1_RNG_INDEX = {name: i + 1 for i, name in enumerate(_TABLE1_DEFENSES)}


def table1_cell(
    profile: ExperimentProfile,
    *,
    defense: str,
    netlist: Netlist | None = None,
    opt_level: int | None = None,
) -> dict[str, Any]:
    """Break one Table I defense with its published attack.

    Both sides resolve through the :mod:`repro.matrix.registry` plugin
    registry: the defense names its ``paper_attack`` and the adapter
    normalises the attack's result, so this cell carries no per-scheme
    wiring of its own.  ``netlist`` is only for callers holding a custom
    circuit (those runs bypass the cache); grid runs rebuild the
    deterministic default.
    """
    from repro.bench_suite.registry import build_benchmark_netlist
    from repro.matrix.registry import call_attack, get_attack, get_defense

    if defense not in _TABLE1_DEFENSES:
        raise ValueError(
            f"unknown table1 defense {defense!r}; known: {_TABLE1_DEFENSES}"
        )
    defense_spec = get_defense(defense)
    attack_spec = get_attack(defense_spec.paper_attack)
    if netlist is None:
        netlist = build_benchmark_netlist("s5378", scale=max(profile.scale, 8))
    key_bits = profile.effective_key_bits(netlist.n_dffs, min(8, profile.key_bits))

    rng = random.Random(
        hash_label(_TABLE1_RNG_INDEX[defense], f"table1/{defense}")
    )
    lock = defense_spec.build(netlist, key_bits, rng)
    outcome = call_attack(
        attack_spec,
        lock,
        profile=profile,
        timeout_s=profile.timeout_s,
        opt_level=opt_level,
    )
    return {
        "defense": defense_spec.display,
        "obfuscation_type": defense_spec.obfuscation,
        "attack": attack_spec.display,
        "broken": bool(outcome.success),
        "detail": outcome.detail,
        "time_s": outcome.runtime_s,
    }


def scaling_cell(
    profile: ExperimentProfile,
    *,
    n_flops: int,
    seed_index: int,
    key_bits: int,
    n_inputs: int = 6,
    n_outputs: int = 6,
    opt_level: int | None = None,
) -> dict[str, Any]:
    """One point of the Section IV flop-scaling study, one seed."""
    from repro.bench_suite.generator import GeneratorConfig, generate_circuit
    from repro.locking.effdyn import lock_with_effdyn

    rng = random.Random(hash_label(seed_index, f"scaling/{n_flops}"))
    config = GeneratorConfig(n_flops=n_flops, n_inputs=n_inputs, n_outputs=n_outputs)
    netlist = generate_circuit(config, rng, name=f"scale{n_flops}")
    lock = lock_with_effdyn(netlist, key_bits=key_bits, rng=rng)
    result = dynunlock(
        netlist,
        lock.public_view(),
        lock.make_oracle(),
        DynUnlockConfig(timeout_s=profile.timeout_s, opt_level=opt_level),
    )
    return {
        "n_flops": n_flops,
        "seed_index": seed_index,
        "key_bits": key_bits,
        "n_seed_candidates": result.n_seed_candidates,
        "iterations": result.iterations,
        "time_s": result.runtime_s,
        "timed_out": result.timed_out,
    }


def ablation_cell(
    profile: ExperimentProfile,
    *,
    prng: str,
    n_flops: int,
    key_bits: int,
    opt_level: int | None = None,
) -> dict[str, Any]:
    """One PRNG variant of the Section V limitation study."""
    from repro.bench_suite.generator import GeneratorConfig, generate_circuit
    from repro.core.modeling import build_combinational_model
    from repro.locking.effdyn import lock_with_effdyn
    from repro.prng.nonlinear import NonlinearPrng
    from repro.scan.oracle import ScanOracle
    from repro.sim.logicsim import CombinationalSimulator
    from repro.util.bitvec import random_bits

    rng = random.Random(hash_label(0, "ablation/nonlinear"))
    config = GeneratorConfig(n_flops=n_flops, n_inputs=4, n_outputs=3)
    netlist = generate_circuit(config, rng, name="ablation")
    lock = lock_with_effdyn(netlist, key_bits=key_bits, rng=rng)

    if prng == "lfsr":
        oracle = lock.make_oracle()
    elif prng == "nonlinear-filter":
        oracle = ScanOracle(
            netlist,
            lock.spec,
            NonlinearPrng(
                width=key_bits, seed_bits=list(lock.seed), taps=lock.lfsr_taps
            ),
        )
    else:
        raise ValueError(f"unknown ablation prng {prng!r}")

    # Model validity probe: does the linear model with the true seed
    # reproduce the oracle?
    model = build_combinational_model(netlist, lock.spec, lock.lfsr_taps, key_bits)
    sim = CombinationalSimulator(model.netlist)
    probe_rng = random.Random(1)
    model_valid = True
    for _ in range(6):
        pattern = random_bits(n_flops, probe_rng)
        pis = random_bits(len(netlist.inputs), probe_rng)
        response = oracle.query(pattern, pis)
        inputs = dict(zip(model.a_inputs, pattern))
        inputs.update(zip(model.pi_inputs, pis))
        inputs.update(zip(model.key_inputs, lock.seed))
        values = sim.run(inputs)
        if [values[n] for n in model.b_outputs] != response.scan_out:
            model_valid = False
            break

    result = dynunlock(
        netlist,
        lock.public_view(),
        oracle,
        DynUnlockConfig(timeout_s=profile.timeout_s, opt_level=opt_level),
    )
    return {
        "prng": prng,
        "modeled_correctly": model_valid,
        "attack_success": bool(result.success),
        "exact_seed": result.recovered_seed == list(lock.seed),
        "time_s": result.runtime_s,
        "timed_out": result.timed_out,
    }


def selfcheck_cell(
    profile: ExperimentProfile,
    *,
    duration_s: float = 0.0,
    fail_marker: str | None = None,
    payload: Any = None,
) -> dict[str, Any]:
    """Trivial cell for exercising the scheduler itself (tests, CI smoke).

    Sleeps ``duration_s`` (timeout tests), echoes ``payload``, and --
    when ``fail_marker`` names a path that does not exist yet -- creates
    it and raises once, so retry logic can be observed across processes.
    """
    if duration_s:
        time.sleep(duration_s)
    if fail_marker is not None:
        marker = Path(fail_marker)
        if not marker.exists():
            marker.write_text("failed once\n")
            raise RuntimeError("selfcheck: injected one-shot failure")
    return {"payload": payload, "slept_s": duration_s}


CellFn = Callable[..., dict]

CELL_RUNNERS: dict[str, CellFn] = {
    "table1": table1_cell,
    "table2": table2_cell,
    # Table III is the same computation at explicit key widths; it shares
    # the cell function but not the cache namespace (distinct experiment).
    "table3": table2_cell,
    "scaling": scaling_cell,
    "ablation": ablation_cell,
    "matrix": matrix_cell,
    "fuzz": fuzz_cell,
    "selfcheck": selfcheck_cell,
}


def run_cell(spec) -> dict[str, Any]:
    """Resolve and execute ``spec`` (a :class:`JobSpec`) in this process."""
    from repro.reports.profiles import profile_from_dict

    try:
        fn = CELL_RUNNERS[spec.experiment]
    except KeyError:
        raise KeyError(
            f"unknown experiment {spec.experiment!r}; known: {sorted(CELL_RUNNERS)}"
        ) from None
    profile = profile_from_dict(spec.profile)
    return fn(profile, **spec.params)
