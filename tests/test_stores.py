"""Cross-backend conformance suite for :mod:`repro.runner.stores`.

Every guarantee the original single-backend store regressions pinned
-- round-trip byte-identity, corruption/truncation degrading to a miss,
foreign-version pruning, never-stored invalidation conjuring nothing --
is re-stated here *parametrized over every backend*, so
a new backend is correct-by-construction once this file passes.  On top
of that: LRU garbage-collection policy units, hypothesis property tests
(round-trip identity for arbitrary JSON-safe payloads; GC never evicts
below the survivor set nor out of age order), byte-for-byte migration
between every ordered backend pair, and the acceptance pins that
``dynunlock matrix`` / ``dynunlock farm run`` produce byte-identical
rows and artifacts no matter which backend serves the cache.
"""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.reports.profiles import ExperimentProfile
from repro.runner.artifacts import load_artifact
from repro.runner.spec import JobSpec
from repro.runner.stores import (
    BACKENDS,
    JsonFileStore,
    SqliteStore,
    encode_entry,
    entry_key,
    migrate,
    open_store,
    resolve_backend,
)
from repro.runner.stores import codecs

ALL_BACKENDS = sorted(BACKENDS)
VERSION = "v" * 20

TINY = ExperimentProfile(
    name="tiny",
    scale=64,
    key_bits=6,
    n_seeds=1,
    timeout_s=120.0,
    table3_key_sizes=(6,),
)


def spec_of(payload="x", **extra):
    return JobSpec.make("selfcheck", TINY, payload=payload, **extra)


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def store(backend, tmp_path):
    with open_store(tmp_path / "cache", backend=backend, version=VERSION) as s:
        yield s


def sibling_store(store, *, version=VERSION):
    """Another handle on the same root/backend (a different version's view)."""
    return open_store(store.root, backend=store.name, version=version)


def corrupt_storage(store, spec, data: bytes) -> None:
    """Overwrite ``spec``'s payload with raw garbage *at the storage layer*."""
    if isinstance(store, SqliteStore):
        conn = store._connect(create=True)
        with conn:
            conn.execute(
                "UPDATE cells SET payload = ?, codec = 'zlib'"
                " WHERE spec_hash = ?",
                (data, entry_key(spec)),
            )
    else:
        store.path_for(spec).write_bytes(data)


class TestConformance:
    """The legacy single-backend store regressions, over every backend."""

    def test_miss_then_hit(self, store):
        spec = spec_of()
        assert store.get(spec) is None
        store.put(spec, {"value": 42}, duration_s=0.1)
        assert store.get(spec) == {"value": 42}
        assert len(store) == 1

    def test_profile_change_is_a_miss(self, store):
        quick = ExperimentProfile(
            name="tiny2",
            scale=64,
            key_bits=6,
            n_seeds=1,
            timeout_s=120.0,
            table3_key_sizes=(6,),
        )
        store.put(JobSpec.make("e", TINY, x=1), {"value": 1})
        assert store.get(JobSpec.make("e", quick, x=1)) is None

    def test_code_version_change_is_a_miss(self, store):
        store.put(spec_of(), {"value": 1})
        other = sibling_store(store, version="b" * 20)
        assert other.get(spec_of()) is None
        assert len(other) == 0
        other.close()

    def test_invalidate(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        assert store.invalidate(spec)
        assert store.get(spec) is None
        assert not store.invalidate(spec)

    def test_corrupt_storage_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        corrupt_storage(store, spec, b"{not json")
        assert store.get(spec) is None

    def test_truncated_entry_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        intact = encode_entry(spec, {"value": 1})
        # Simulate a torn write: every strict prefix must read as a miss.
        for cut in (0, 1, len(intact) // 2, len(intact) - 1):
            store.put_raw(spec.experiment, entry_key(spec), intact[:cut])
            assert store.get(spec) is None, f"cut at {cut} bytes"
        store.put_raw(spec.experiment, entry_key(spec), intact)
        assert store.get(spec) == {"value": 1}

    def test_truncated_storage_degrades_to_miss(self, store):
        # Same torn-write drill, but at the storage layer (compressed
        # blob / file bytes), not the logical entry bytes.
        spec = spec_of()
        store.put(spec, {"value": 1})
        corrupt_storage(store, spec, b"")
        assert store.get(spec) is None

    def test_tampered_spec_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        entry = json.loads(encode_entry(spec, {"value": 1}))
        entry["spec"] = "something else"
        store.put_raw(
            spec.experiment, entry_key(spec), json.dumps(entry).encode()
        )
        assert store.get(spec) is None

    def test_non_dict_json_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        store.put_raw(spec.experiment, entry_key(spec), b"[1, 2]")
        assert store.get(spec) is None

    def test_non_dict_result_degrades_to_miss(self, store):
        spec = spec_of()
        entry = json.loads(encode_entry(spec, {"value": 1}))
        entry["result"] = [1, 2, 3]
        store.put_raw(
            spec.experiment, entry_key(spec), json.dumps(entry).encode()
        )
        assert store.get(spec) is None

    def test_prune_drops_other_versions_only(self, store):
        old = sibling_store(store, version="a" * 20)
        old.put(spec_of(), {"value": 1})
        old.close()
        store.put(spec_of(), {"value": 2})
        assert store.prune() >= 1
        assert store.get(spec_of()) == {"value": 2}
        reopened = sibling_store(store, version="a" * 20)
        assert reopened.get(spec_of()) is None
        reopened.close()

    def test_never_stored_invalidate_conjures_nothing(self, backend, tmp_path):
        root = tmp_path / "never"
        store = open_store(root, backend=backend, version=VERSION)
        assert store.invalidate(spec_of()) is False
        store.close()
        # Must not conjure directories or database files as a side effect.
        assert not root.exists()

    def test_read_only_probes_conjure_nothing(self, backend, tmp_path):
        root = tmp_path / "never"
        store = open_store(root, backend=backend, version=VERSION)
        assert store.get(spec_of()) is None
        assert len(store) == 0
        assert store.prune() == 0
        assert list(store.iterate()) == []
        assert store.gc(0).n_before == 0
        assert store.stats()["entries"] == 0
        store.close()
        assert not root.exists()

    def test_round_trip_bytes_are_canonical(self, store):
        spec = spec_of()
        store.put(spec, {"value": 7}, duration_s=1.5)
        entries = list(store.iterate())
        assert len(entries) == 1
        assert entries[0].raw == encode_entry(spec, {"value": 7}, duration_s=1.5)
        assert entries[0].experiment == spec.experiment
        assert entries[0].key == entry_key(spec)

    def test_iterate_order_is_deterministic(self, store):
        specs = [spec_of(payload=i) for i in range(5)]
        for index, spec in enumerate(specs):
            store.put(spec, {"value": index})
        first = [(e.experiment, e.key) for e in store.iterate()]
        second = [(e.experiment, e.key) for e in store.iterate()]
        assert first == second == sorted(first)

    def test_stats_shape(self, store):
        store.put(spec_of(), {"value": 1})
        stats = store.stats()
        assert stats["backend"] == store.name
        assert stats["version"] == VERSION
        assert stats["entries"] == 1
        assert stats["stored_bytes"] > 0
        assert stats["experiments"] == ["selfcheck"]


class TestSqliteSpecifics:
    """Per-row codec bookkeeping (mixed caches must read back correctly)."""

    def make(self, tmp_path):
        return SqliteStore(tmp_path / "cache", version=VERSION)

    def test_codec_recorded_per_row(self, tmp_path):
        store = self.make(tmp_path)
        store.put(spec_of(), {"value": 1})
        assert store.stats()["codecs"] == {"zlib": 1}

    def test_mixed_codecs_read_back(self, tmp_path):
        store = self.make(tmp_path)
        zlib_spec, raw_spec = spec_of(payload="a"), spec_of(payload="b")
        store.put(zlib_spec, {"value": 1})
        codec, blob = codecs.encode_blob(
            encode_entry(raw_spec, {"value": 2}), "raw"
        )
        conn = store._connect(create=True)
        with conn:
            conn.execute(
                "INSERT INTO cells VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (VERSION, raw_spec.experiment, entry_key(raw_spec), codec,
                 blob, len(blob), len(blob), 1.0),
            )
        assert store.get(zlib_spec) == {"value": 1}
        assert store.get(raw_spec) == {"value": 2}
        assert set(store.stats()["codecs"]) == {"zlib", "raw"}

    def test_undecodable_codec_degrades_to_miss(self, tmp_path):
        # A row in a codec this code cannot decode (zstd, written by
        # older versions) degrades to a miss instead of crashing.
        store = self.make(tmp_path)
        spec = spec_of()
        store.put(spec, {"value": 1})
        conn = store._connect(create=True)
        with conn:
            conn.execute("UPDATE cells SET codec = 'zstd'")
        assert store.get(spec) is None

    def test_locked_wal_switch_waits_instead_of_failing(
        self, tmp_path, monkeypatch
    ):
        # Two processes opening a fresh database at once: the loser's
        # switch to WAL fails with "database is locked" straight away,
        # without waiting out the busy timeout.  A write must still land.
        import sqlite3

        refusals = []

        class LockedOnFirstWalSwitch:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql == "PRAGMA journal_mode=WAL" and not refusals:
                    refusals.append(sql)
                    raise sqlite3.OperationalError("database is locked")
                return self._conn.execute(sql, *args)

            def __enter__(self):
                return self._conn.__enter__()

            def __exit__(self, *exc_info):
                return self._conn.__exit__(*exc_info)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3,
            "connect",
            lambda *args, **kwargs: LockedOnFirstWalSwitch(
                real_connect(*args, **kwargs)
            ),
        )
        store = self.make(tmp_path)
        store.put(spec_of(), {"value": 1})
        assert refusals, "the fake lock never fired"
        assert store.get(spec_of()) == {"value": 1}
        conn = store._connect(create=False)
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        store.close()

    def test_foreign_db_file_degrades_to_miss(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / SqliteStore.DB_FILENAME).write_bytes(b"definitely not sqlite")
        store = SqliteStore(root, version=VERSION)
        assert store.get(spec_of()) is None
        assert len(store) == 0
        assert store.prune() == 0


class TestBackendResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        assert resolve_backend("json") == "json"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        assert resolve_backend() == "sqlite"

    def test_empty_env_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "")
        assert resolve_backend() == "json"

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            resolve_backend("lmdb")

    def test_open_store_constructs_the_right_class(self, tmp_path):
        classes = {"json": JsonFileStore, "sqlite": SqliteStore}
        for name, cls in classes.items():
            store = open_store(tmp_path / name, backend=name, version=VERSION)
            assert type(store) is cls
            store.close()

    def test_env_drives_cli_store_selection(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        root = tmp_path / "cache"
        assert main(["farm", "run", "--round-trials", "2", "--seed", "0",
                     "--state", str(tmp_path / "farm"),
                     "--cache-dir", str(root)]) == 0
        assert (root / SqliteStore.DB_FILENAME).is_file()


class TestMigration:
    """`cache migrate` must preserve every entry byte-for-byte."""

    def populate(self, store):
        specs = [spec_of(payload=i, shard=i % 3) for i in range(6)]
        for index, spec in enumerate(specs):
            store.put(spec, {"value": index, "blob": "xy" * 40},
                      duration_s=0.25 * index)
        return {(e.experiment, e.key): (e.raw, e.mtime)
                for e in store.iterate()}

    @pytest.mark.parametrize(
        "src_name,dst_name",
        [(a, b) for a, b in itertools.product(ALL_BACKENDS, ALL_BACKENDS)
         if a != b],
    )
    def test_every_ordered_pair_is_byte_identical(
        self, tmp_path, src_name, dst_name
    ):
        src = open_store(tmp_path / "src", backend=src_name, version=VERSION)
        baseline = self.populate(src)
        dst = open_store(tmp_path / "dst", backend=dst_name, version=VERSION)
        assert migrate(src, dst) == len(baseline)
        migrated = {(e.experiment, e.key): (e.raw, e.mtime)
                    for e in dst.iterate()}
        assert {k: raw for k, (raw, _) in migrated.items()} == {
            k: raw for k, (raw, _) in baseline.items()
        }
        # LRU order survives: mtimes are carried over (file systems may
        # round, so compare to microsecond precision).
        for key, (_, mtime) in baseline.items():
            assert migrated[key][1] == pytest.approx(mtime, abs=1e-5)
        # And the migrated cache actually *hits*.
        assert dst.get(spec_of(payload=0, shard=0)) is not None
        src.close()
        dst.close()

    def test_round_trip_through_every_backend_returns_home(self, tmp_path):
        first = open_store(tmp_path / "a", backend="json", version=VERSION)
        baseline = self.populate(first)
        chain = [first]
        for index, name in enumerate(["sqlite", "json"]):
            nxt = open_store(tmp_path / f"hop{index}", backend=name,
                             version=VERSION)
            migrate(chain[-1], nxt)
            chain.append(nxt)
        final = {(e.experiment, e.key): e.raw for e in chain[-1].iterate()}
        assert final == {k: raw for k, (raw, _) in baseline.items()}
        for store in chain:
            store.close()


class TestGarbageCollection:
    """LRU-by-mtime, survivor-set semantics, deterministic ties."""

    def seed(self, store, sizes_ages):
        for index, (size, age) in enumerate(sizes_ages):
            store.put_raw("gc", f"{index:032x}", b"e" * size, mtime=float(age))

    def test_evicts_oldest_first(self, store):
        self.seed(store, [(10, 1), (10, 2), (10, 3)])
        metas = {m.key: m for m in store._entries()}
        per_entry = metas[f"{0:032x}"].nbytes
        report = store.gc(2 * per_entry)
        assert report.n_evicted == 1
        assert report.evicted == [("gc", f"{0:032x}")]  # the oldest
        assert len(store) == 2

    def test_one_oversized_newest_entry_evicts_everything(self, store):
        self.seed(store, [(500, 3), (10, 2), (10, 1)])
        newest = max(store._entries(), key=lambda m: m.mtime)
        # A bound the newest entry alone overflows: LRU order forbids
        # skipping it to keep older, smaller entries, so nothing stays.
        report = store.gc(newest.nbytes - 1)
        assert report.n_evicted == report.n_before == 3
        assert len(store) == 0

    def test_zero_bound_empties_the_store(self, store):
        self.seed(store, [(10, 1), (10, 2)])
        assert store.gc(0).n_evicted == 2
        assert len(store) == 0

    def test_dry_run_deletes_nothing(self, store):
        self.seed(store, [(10, 1), (10, 2)])
        report = store.gc(0, dry_run=True)
        assert report.n_evicted == 2 and report.dry_run
        assert len(store) == 2

    def test_everything_fits_evicts_nothing(self, store):
        self.seed(store, [(10, 1), (10, 2)])
        report = store.gc(10**9)
        assert report.n_evicted == 0
        assert report.bytes_after == report.bytes_before
        assert len(store) == 2

    def test_age_ties_break_deterministically(self, store):
        self.seed(store, [(10, 5), (10, 5), (10, 5)])
        first = store.gc(10**9, dry_run=True)
        assert first.n_evicted == 0
        metas = sorted(store._entries(), key=lambda m: (-m.mtime, m.experiment, m.key))
        per_entry = metas[0].nbytes
        report = store.gc(per_entry, dry_run=True)
        # Same mtime everywhere: the survivor must be the (experiment,
        # key)-smallest, every time.
        assert report.evicted == [(m.experiment, m.key) for m in metas[1:]]


# -- hypothesis property suites ---------------------------------------------

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)
_RESULTS = st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4)

_spec_counter = itertools.count()


class TestRoundTripProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(result=_RESULTS, duration=st.none() | st.floats(0, 1e6))
    def test_round_trip_is_identity_on_every_backend(
        self, store, result, duration
    ):
        spec = spec_of(payload=next(_spec_counter))
        store.put(spec, result, duration_s=duration)
        assert store.get(spec) == result


class TestGCProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        sizes_ages=st.lists(
            st.tuples(st.integers(1, 60), st.integers(0, 40)), max_size=10
        ),
        bound=st.integers(0, 400),
    )
    def test_gc_keeps_exactly_the_survivor_set(
        self, backend, tmp_path_factory, sizes_ages, bound
    ):
        root = tmp_path_factory.mktemp("gcprop")
        with open_store(root, backend=backend, version=VERSION) as store:
            for index, (size, age) in enumerate(sizes_ages):
                store.put_raw(
                    "gc", f"{index:032x}", b"p" * size, mtime=float(age)
                )
            metas = sorted(
                store._entries(), key=lambda m: (-m.mtime, m.experiment, m.key)
            )
            kept = 0
            expected_survivors = []
            overflowed = False
            for meta in metas:  # the policy, restated independently
                if overflowed or kept + meta.nbytes > bound:
                    overflowed = True
                else:
                    kept += meta.nbytes
                    expected_survivors.append(meta)
            report = store.gc(bound)
            remaining = sorted(
                store._entries(), key=lambda m: (-m.mtime, m.experiment, m.key)
            )
            # 1. Exactly the survivor set remains -- GC never evicts
            #    below it and never spares anything older.
            assert [(m.experiment, m.key) for m in remaining] == [
                (m.experiment, m.key) for m in expected_survivors
            ]
            # 2. The survivors respect the bound.
            assert sum(m.nbytes for m in remaining) <= bound
            # 3. No evicted entry is newer than any survivor.
            if report.evicted and remaining:
                newest_evicted = max(
                    m.mtime for m in metas
                    if (m.experiment, m.key) in set(report.evicted)
                )
                assert newest_evicted <= min(m.mtime for m in remaining)
            # 4. The report's accounting matches reality.
            assert report.n_evicted == len(metas) - len(remaining)
            assert report.bytes_after == sum(m.nbytes for m in remaining)


# -- acceptance: identical grid/fuzz output across backends ------------------


class TestCrossBackendRuns:
    """Backend choice must never change what a run computes or emits."""

    MATRIX_ARGS = [
        "matrix", "--attacks", "scansat", "--defenses", "eff",
        "--benchmarks", "s5378", "--profile", "quick", "--no-check-paper",
    ]

    def _artifact(self, path):
        data = load_artifact(path)
        return data["headers"], data["rows"], data["title"]

    def test_matrix_rows_and_artifacts_identical_across_backends(
        self, tmp_path, capsys
    ):
        # Compute the grid once (json backend), migrate the cache into
        # every other backend, then replay: rows and artifacts -- time
        # columns included -- must be byte-identical no matter which
        # backend serves the cells.
        roots = {name: tmp_path / f"cache-{name}" for name in ALL_BACKENDS}
        outs = {name: tmp_path / f"out-{name}" for name in ALL_BACKENDS}
        seed_args = self.MATRIX_ARGS + [
            "--cache-dir", str(roots["json"]), "--cache-backend", "json",
        ]
        assert main(seed_args) == 0
        capsys.readouterr()
        for name in ALL_BACKENDS:
            if name != "json":
                assert main([
                    "cache", "migrate", "--cache-dir", str(roots["json"]),
                    "--cache-backend", "json", "--to", name,
                    "--to-dir", str(roots[name]),
                ]) == 0
        capsys.readouterr()
        tables, artifacts, verdicts = {}, {}, {}
        for name in ALL_BACKENDS:
            argv = self.MATRIX_ARGS + [
                "--cache-dir", str(roots[name]), "--cache-backend", name,
                "--emit-json", str(outs[name]),
            ]
            assert main(argv) == 0
            tables[name] = capsys.readouterr().out
            artifact = load_artifact(outs[name] / "BENCH_matrix.json")
            assert artifact["meta"]["n_computed"] == 0
            assert artifact["meta"]["n_cached"] == artifact["meta"]["n_jobs_total"]
            artifacts[name] = self._artifact(outs[name] / "BENCH_matrix.json")
            verdicts[name] = artifact["meta"]["verdicts"]
        assert tables["json"] == tables["sqlite"]
        assert artifacts["json"] == artifacts["sqlite"]
        assert verdicts["json"] == verdicts["sqlite"]

    def test_fuzz_rows_and_artifacts_identical_across_backends(
        self, tmp_path, capsys
    ):
        # Fuzz results carry no wall-clock fields, so even *freshly
        # computed* farm rounds must emit identical rows and state per
        # backend.
        tables, artifacts, states = {}, {}, {}
        for name in ALL_BACKENDS:
            out = tmp_path / f"out-{name}"
            state = tmp_path / f"farm-{name}"
            argv = [
                "farm", "run", "--round-trials", "5", "--seed", "2",
                "--state", str(state),
                "--cache-dir", str(tmp_path / f"cache-{name}"),
                "--cache-backend", name, "--emit-json", str(out),
            ]
            assert main(argv) == 0
            tables[name] = capsys.readouterr().out
            data = load_artifact(out / "BENCH_farm.json")
            artifacts[name] = (
                data["headers"], data["rows"], data["meta"]["corpus"]
            )
            states[name] = {
                str(path.relative_to(state)): path.read_bytes()
                for path in sorted(state.rglob("*"))
                if path.is_file()
            }
        assert tables["json"] == tables["sqlite"]
        assert artifacts["json"] == artifacts["sqlite"]
        assert states["json"] == states["sqlite"]


class TestFingerprintSharing:
    def test_source_walk_runs_once_no_matter_how_many_stores_open(
        self, tmp_path, monkeypatch
    ):
        # The code-version fingerprint reads every file under src/repro;
        # opening N stores (any mix of backends) must hash the tree at
        # most once per process, not once per store.
        import repro.runner.spec as spec_mod

        real_walk = spec_mod._fingerprint_source_tree
        calls = []

        def counting_walk(root):
            calls.append(root)
            return real_walk(root)

        monkeypatch.setattr(spec_mod, "_fingerprint_source_tree", counting_walk)
        monkeypatch.setattr(spec_mod, "_CODE_VERSION", None)
        first = spec_mod.code_version()
        stores = [
            open_store(tmp_path / name, backend=name) for name in ALL_BACKENDS
        ]
        try:
            assert all(s.version == first[:20] for s in stores)
        finally:
            for s in stores:
                s.close()
        assert len(calls) == 1


class TestStoreBenchCommand:
    def test_emits_gateable_artifact(self, tmp_path, capsys):
        assert main([
            "store-bench", "--entries", "40", "--payload-bytes", "128",
            "--emit-json", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Result-store head-to-head" in out
        data = load_artifact(tmp_path / "BENCH_store.json")
        assert [row[0] for row in data["rows"]] == ALL_BACKENDS
        meta = data["meta"]
        assert meta["default_backend"] == "json"
        assert meta["default_total_s"] > 0
        for name in ALL_BACKENDS:
            assert meta["backends"][name]["entries"] == 40

    def test_workload_is_deterministic(self):
        from repro.runner.stores.bench import synthetic_workload

        first = synthetic_workload(10, 256, seed=4)
        second = synthetic_workload(10, 256, seed=4)
        assert [(s.spec_hash, r) for s, r in first] == [
            (s.spec_hash, r) for s, r in second
        ]
