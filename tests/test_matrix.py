"""Tests for the attack x defense matrix (registry + grid driver).

The guarantees pinned down here are the ones the ``matrix-smoke`` CI
job leans on: duplicate plugin names rejected, ``applicable_to``
filtering by defense name and by oracle model, n/a pairs skipped (never
executed), serial/parallel row equality, resume from a partially
completed grid, and the Table I expectation diff.
"""

import pytest

from repro.matrix.grid import (
    MATRIX_HEADERS,
    MatrixRow,
    PAPER_EXPECTATIONS,
    check_against_paper,
    default_matrix_benchmarks,
    matrix_cell,
    matrix_rows,
    matrix_specs,
    run_matrix,
)
from repro.matrix.registry import (
    RegistryError,
    applicable_pairs,
    attack_names,
    defense_names,
    get_attack,
    get_defense,
    is_applicable,
    register_attack,
    register_defense,
    temporary_registrations,
)
from repro.reports.profiles import ExperimentProfile
from repro.runner.scheduler import run_jobs
from repro.runner.stores import JsonFileStore

TINY = ExperimentProfile(
    name="tiny",
    scale=64,
    key_bits=6,
    n_seeds=1,
    timeout_s=120.0,
    table3_key_sizes=(6,),
)

# A fast sub-grid: two defenses, three attacks, four applicable pairs.
SUB_DEFENSES = ["eff", "rll"]
SUB_ATTACKS = ["scansat", "sat", "bruteforce"]
SUB_BENCH = ["s5378"]


def _dummy_lock(netlist, key_bits, rng, **params):
    raise NotImplementedError


def _dummy_attack(lock, *, profile, timeout_s):
    raise NotImplementedError


class TestRegistry:
    def test_builtins_registered(self):
        assert set(PAPER_EXPECTATIONS) <= set(applicable_pairs())
        assert {"sarlock", "scramble"} <= set(defense_names())
        assert {"scramble-sat", "bruteforce"} <= set(attack_names())

    def test_duplicate_defense_rejected(self):
        with temporary_registrations():
            register_defense("dup-d", _dummy_lock, oracle_model="x")
            with pytest.raises(RegistryError, match="already registered"):
                register_defense("dup-d", _dummy_lock, oracle_model="x")

    def test_duplicate_attack_rejected(self):
        with temporary_registrations():
            register_attack("dup-a", _dummy_attack, applicable_to=("x",))
            with pytest.raises(RegistryError, match="already registered"):
                register_attack("dup-a", _dummy_attack, applicable_to=("x",))

    def test_attack_needs_targets(self):
        with temporary_registrations():
            with pytest.raises(RegistryError, match="at least one defense"):
                register_attack("aimless", _dummy_attack, applicable_to=())

    def test_unknown_names_raise_with_known_list(self):
        with pytest.raises(KeyError, match="known"):
            get_defense("nope")
        with pytest.raises(KeyError, match="known"):
            get_attack("nope")

    def test_applicability_by_name_and_by_oracle_model(self):
        with temporary_registrations():
            d1 = register_defense("d1", _dummy_lock, oracle_model="modelA")
            d2 = register_defense("d2", _dummy_lock, oracle_model="modelB")
            by_name = register_attack(
                "by-name", _dummy_attack, applicable_to=("d1",)
            )
            by_model = register_attack(
                "by-model", _dummy_attack, applicable_to=("modelB",)
            )
            assert is_applicable(by_name, d1) and not is_applicable(by_name, d2)
            assert is_applicable(by_model, d2) and not is_applicable(by_model, d1)
            # A later defense sharing modelB picks up the attack for free.
            d3 = register_defense("d3", _dummy_lock, oracle_model="modelB")
            assert is_applicable(by_model, d3)

    def test_builtin_sat_attack_targets_comb_io_family(self):
        sat = get_attack("sat")
        assert is_applicable(sat, get_defense("rll"))
        assert is_applicable(sat, get_defense("sarlock"))
        assert not is_applicable(sat, get_defense("effdyn"))


class TestTemporaryRegistrations:
    """The context manager the fuzzer's throwaway plugins rely on: what
    happens inside must not leak out, in any order-observable way."""

    def test_restores_registration_order_exactly(self):
        defenses_before = defense_names()
        attacks_before = attack_names()
        with temporary_registrations():
            register_defense("zz-temp", _dummy_lock, oracle_model="zz")
            register_attack("zz-hit", _dummy_attack, applicable_to=("zz",))
            # Inside: appended at the end, original prefix untouched.
            assert defense_names() == defenses_before + ["zz-temp"]
            assert attack_names() == attacks_before + ["zz-hit"]
        # Outside: the exact original sequences (order is the rendered
        # matrix row order, so order equality matters, not set equality).
        assert defense_names() == defenses_before
        assert attack_names() == attacks_before

    def test_duplicates_of_builtins_rejected_inside_the_context(self):
        existing_defense = defense_names()[0]
        existing_attack = attack_names()[0]
        with temporary_registrations():
            with pytest.raises(RegistryError, match="already registered"):
                register_defense(
                    existing_defense, _dummy_lock, oracle_model="x"
                )
            with pytest.raises(RegistryError, match="already registered"):
                register_attack(
                    existing_attack, _dummy_attack, applicable_to=("x",)
                )

    def test_inner_registrations_are_unknown_after_exit(self):
        with temporary_registrations():
            register_defense("ghost-d", _dummy_lock, oracle_model="g")
            register_attack("ghost-a", _dummy_attack, applicable_to=("g",))
        with pytest.raises(KeyError):
            get_defense("ghost-d")
        with pytest.raises(KeyError):
            get_attack("ghost-a")
        # Re-registering after exit works: nothing half-leaked.
        with temporary_registrations():
            register_defense("ghost-d", _dummy_lock, oracle_model="g")

    def test_restores_even_when_the_body_raises(self):
        defenses_before = defense_names()
        with pytest.raises(RuntimeError):
            with temporary_registrations():
                register_defense("doomed", _dummy_lock, oracle_model="d")
                raise RuntimeError("boom")
        assert defense_names() == defenses_before


class TestSpecEnumeration:
    def test_na_pairs_never_enumerated(self):
        specs = matrix_specs(TINY, benchmarks=SUB_BENCH)
        pairs = {(s.params["attack"], s.params["defense"]) for s in specs}
        assert pairs == set(applicable_pairs())
        assert ("scansat", "dfs") not in pairs
        assert ("dynunlock", "eff") not in pairs

    def test_na_cell_refuses_to_run(self):
        with pytest.raises(ValueError, match="n/a cells must be skipped"):
            matrix_cell(
                TINY,
                attack="scansat",
                defense="dfs",
                benchmark="s5378",
                seed_index=0,
            )

    def test_default_benchmarks_are_the_two_smallest(self):
        from repro.bench_suite.registry import smallest_benchmarks

        assert default_matrix_benchmarks(TINY) == smallest_benchmarks(
            2, scale=TINY.scale
        )
        assert len(default_matrix_benchmarks(TINY)) == 2

    def test_filtered_specs_respect_lists(self):
        specs = matrix_specs(
            TINY, attacks=SUB_ATTACKS, defenses=SUB_DEFENSES, benchmarks=SUB_BENCH
        )
        assert {(s.params["attack"], s.params["defense"]) for s in specs} == {
            ("scansat", "eff"),
            ("bruteforce", "eff"),
            ("sat", "rll"),
            ("bruteforce", "rll"),
        }


class TestGridExecution:
    def _run(self, *, jobs=1, store=None):
        return run_matrix(
            TINY,
            jobs=jobs,
            store=store,
            attacks=SUB_ATTACKS,
            defenses=SUB_DEFENSES,
            benchmarks=SUB_BENCH,
        )

    @staticmethod
    def _stable(row: MatrixRow) -> tuple:
        """Row identity minus the wall-clock column."""
        return (
            row.defense,
            row.attack,
            row.verdict,
            row.n_cells,
            row.n_broken,
            row.key_bits,
            row.iterations,
            row.queries,
            row.verified,
        )

    def test_rows_cover_full_subgrid_with_na(self):
        rows, report = self._run()
        assert len(rows) == len(SUB_DEFENSES) * len(SUB_ATTACKS)
        verdicts = {(r.attack, r.defense): r.verdict for r in rows}
        assert verdicts[("scansat", "eff")] == "broken"
        assert verdicts[("sat", "rll")] == "broken"
        assert verdicts[("sat", "eff")] == "n/a"
        assert verdicts[("scansat", "rll")] == "n/a"
        assert report.n_computed == 4
        for row in rows:
            assert len(row.as_cells()) == len(MATRIX_HEADERS)

    def test_parallel_rows_equal_serial_rows(self):
        serial, _ = self._run(jobs=1)
        parallel, _ = self._run(jobs=2)
        assert [self._stable(r) for r in serial] == [
            self._stable(r) for r in parallel
        ]

    def test_jobs1_and_jobsN_byte_identical_through_store(self, tmp_path):
        store = JsonFileStore(tmp_path)
        serial, first = self._run(jobs=1, store=store)
        parallel, second = self._run(jobs=2, store=store)
        assert serial == parallel  # dataclass equality, time column included
        assert first.n_computed == 4 and second.n_cached == 4

    def test_resume_from_partially_completed_grid(self, tmp_path):
        store = JsonFileStore(tmp_path)
        specs = matrix_specs(
            TINY, attacks=SUB_ATTACKS, defenses=SUB_DEFENSES, benchmarks=SUB_BENCH
        )
        # Simulate an interrupted grid: only the first half completed.
        partial = run_jobs(specs[: len(specs) // 2], store=store)
        assert partial.n_computed == len(specs) // 2
        rows, report = self._run(store=store)
        assert report.n_cached == len(specs) // 2
        assert report.n_computed == len(specs) - len(specs) // 2
        assert all(r.verdict in ("broken", "n/a") for r in rows)

    def test_aggregation_requires_matching_lists(self):
        _, report = self._run()
        with pytest.raises(ValueError, match="no cells for applicable pair"):
            matrix_rows(report.outcomes)  # defaults cover the full registry

    def test_mixed_key_widths_render_as_a_range(self):
        from types import SimpleNamespace

        from repro.runner.spec import JobSpec

        def outcome(benchmark, key_bits):
            spec = JobSpec.make(
                "matrix",
                TINY,
                attack="scansat",
                defense="eff",
                benchmark=benchmark,
                seed_index=0,
            )
            return SimpleNamespace(
                spec=spec,
                result={
                    "key_bits": key_bits,
                    "success": True,
                    "verified": True,
                    "iterations": 1,
                    "queries": 1,
                    "time_s": 0.1,
                },
            )

        rows = matrix_rows(
            [outcome("s5378", 4), outcome("s35932", 6)],
            attacks=["scansat"],
            defenses=["eff"],
        )
        assert rows[0].key_bits == "4-6"
        uniform = matrix_rows(
            [outcome("s5378", 4), outcome("s35932", 4)],
            attacks=["scansat"],
            defenses=["eff"],
        )
        assert uniform[0].key_bits == 4


class TestPaperCheck:
    @staticmethod
    def _row(attack, defense, verdict):
        return MatrixRow(
            defense=defense,
            attack=attack,
            defense_display=defense,
            attack_display=attack,
            verdict=verdict,
            n_cells=2,
            n_broken=2 if verdict == "broken" else 0,
            key_bits=8,
            iterations=1.0,
            queries=1.0,
            time_s=0.1,
            verified=verdict == "broken",
        )

    def test_agreement_is_silent(self):
        rows = [self._row(a, d, "broken") for (a, d) in PAPER_EXPECTATIONS]
        assert check_against_paper(rows) == []

    def test_disagreement_is_reported(self):
        rows = [self._row("scansat", "eff", "resilient")]
        mismatches = check_against_paper(rows)
        assert len(mismatches) == 1
        assert "scansat vs eff" in mismatches[0]
        assert "paper says broken" in mismatches[0]

    def test_unlisted_pairs_are_ignored(self):
        rows = [self._row("bruteforce", "sarlock", "resilient")]
        assert check_against_paper(rows) == []


class TestMatrixCellDeterminism:
    def test_cell_is_reproducible(self):
        kwargs = dict(
            attack="scansat", defense="eff", benchmark="s5378", seed_index=0
        )
        first = matrix_cell(TINY, **kwargs)
        second = matrix_cell(TINY, **kwargs)
        first.pop("time_s"), second.pop("time_s")
        first.pop("detail"), second.pop("detail")
        assert first == second

    def test_cell_reports_realised_key_bits(self):
        cell = matrix_cell(
            TINY,
            attack="scramble-sat",
            defense="scramble",
            benchmark="s5378",
            seed_index=0,
        )
        # The scramble lock realises one key bit per equal-length chain
        # pair; on the tiny 16-flop instance that is the default 4.
        assert cell["key_bits"] == 4
        assert cell["success"] and cell["verified"]

    def test_bruteforce_refuses_ambiguous_point_function_survivors(self):
        # Random replay cannot distinguish point-function keys (each
        # wrong key errs on exactly one input), so brute force must
        # report failure rather than bless an arbitrary survivor.
        cell = matrix_cell(
            TINY,
            attack="bruteforce",
            defense="sarlock",
            benchmark="s5378",
            seed_index=0,
        )
        assert not cell["success"] and not cell["verified"]
        assert "indistinguishable" in cell["detail"]

    def test_defense_default_key_bits_apply(self):
        cell = matrix_cell(
            TINY, attack="sat", defense="sarlock", benchmark="s5378", seed_index=0
        )
        assert cell["key_bits"] == 6  # the sarlock plugin's default width
        # The point function's signature cost: ~one DIP per wrong key.
        assert cell["iterations"] >= 2**6 - 4
