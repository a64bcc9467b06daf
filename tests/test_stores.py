"""Tests for :mod:`repro.runner.stores`, the one-file-per-cell JSON store.

Pins the on-disk contract with a literal golden entry, then the
conformance cases -- get/put/invalidate, code-version and profile
misses, corruption, truncation and tampering degrading to a miss,
foreign-version pruning, read-only probes conjuring nothing -- the LRU
garbage-collection policy units, hypothesis property tests (round-trip
identity for arbitrary JSON-safe payloads; GC never evicts below the
survivor set nor out of age order), and the ``dynunlock cache``
commands.
"""

import itertools
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.reports.profiles import ExperimentProfile
from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore, encode_entry, entry_key

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


@pytest.fixture
def store(tmp_path):
    return JsonFileStore(tmp_path / "cache", version=VERSION)


def plant(store, experiment, key, data: bytes, mtime: float) -> None:
    """Write raw entry bytes with a chosen age straight into the tree."""
    path = store.root / store.version / experiment / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    os.utime(path, (mtime, mtime))


# -- the on-disk contract ----------------------------------------------------

GOLDEN_SPEC = JobSpec(
    experiment="table2",
    params={"benchmark": "s27", "seed_index": 3},
    profile={"name": "golden", "key_bits": 8},
)
GOLDEN_RESULT = {"success": True, "dips": 2, "candidates": [5, 9], "time_s": 0.125}
GOLDEN_PATH = "vvvvvvvvvvvvvvvvvvvv/table2/974dc4573ac272e90e0cd1c122ccf5f7.json"
GOLDEN_BYTES = (
    b'{\n "duration_s": 1.5,\n'
    b' "label": "table2[benchmark=s27,seed_index=3]@golden",\n'
    b' "result": {\n  "candidates": [\n   5,\n   9\n  ],\n'
    b'  "dips": 2,\n  "success": true,\n  "time_s": 0.125\n },\n'
    b' "spec": "{\\"experiment\\":\\"table2\\",\\"params\\":'
    b'{\\"benchmark\\":\\"s27\\",\\"seed_index\\":3},\\"profile\\":'
    b'{\\"key_bits\\":8,\\"name\\":\\"golden\\"}}"\n}'
)


class TestGoldenEntry:
    """Existing ``.repro_cache`` trees must stay readable, byte for byte.

    The path and bytes below are literals, not computed by the code
    under test, so any change to the layout or the entry encoding fails
    here.
    """

    def test_put_writes_the_golden_path_and_bytes(self, tmp_path):
        store = JsonFileStore(tmp_path, version=VERSION)
        store.put(GOLDEN_SPEC, GOLDEN_RESULT, duration_s=1.5)
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert [p.relative_to(tmp_path).as_posix() for p in files] == [GOLDEN_PATH]
        assert files[0].read_bytes() == GOLDEN_BYTES

    def test_hand_written_golden_tree_is_a_hit(self, tmp_path):
        path = tmp_path / GOLDEN_PATH
        path.parent.mkdir(parents=True)
        path.write_bytes(GOLDEN_BYTES)
        store = JsonFileStore(tmp_path, version=VERSION)
        assert store.get(GOLDEN_SPEC) == GOLDEN_RESULT


class TestConformance:
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
        other = JsonFileStore(store.root, version="b" * 20)
        assert other.get(spec_of()) is None
        assert len(other) == 0

    def test_invalidate(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        assert store.invalidate(spec)
        assert store.get(spec) is None
        assert not store.invalidate(spec)

    def test_corrupt_storage_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        store.path_for(spec).write_bytes(b"{not json")
        assert store.get(spec) is None

    def test_truncated_entry_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        intact = encode_entry(spec, {"value": 1})
        # Simulate a torn write: every strict prefix must read as a miss.
        for cut in (0, 1, len(intact) // 2, len(intact) - 1):
            store.path_for(spec).write_bytes(intact[:cut])
            assert store.get(spec) is None, f"cut at {cut} bytes"
        store.path_for(spec).write_bytes(intact)
        assert store.get(spec) == {"value": 1}

    def test_truncated_storage_degrades_to_miss(self, store):
        # A write torn before its first byte leaves an empty file.
        spec = spec_of()
        store.put(spec, {"value": 1})
        store.path_for(spec).write_bytes(b"")
        assert store.get(spec) is None

    def test_tampered_spec_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        entry = json.loads(encode_entry(spec, {"value": 1}))
        entry["spec"] = "something else"
        store.path_for(spec).write_text(json.dumps(entry))
        assert store.get(spec) is None

    def test_non_dict_json_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        store.path_for(spec).write_bytes(b"[1, 2]")
        assert store.get(spec) is None

    def test_non_dict_result_degrades_to_miss(self, store):
        spec = spec_of()
        store.put(spec, {"value": 1})
        entry = json.loads(store.path_for(spec).read_bytes())
        entry["result"] = [1, 2, 3]
        store.path_for(spec).write_text(json.dumps(entry))
        assert store.get(spec) is None

    def test_prune_drops_other_versions_only(self, store):
        old = JsonFileStore(store.root, version="a" * 20)
        old.put(spec_of(), {"value": 1})
        store.put(spec_of(), {"value": 2})
        assert store.prune() >= 1
        assert store.get(spec_of()) == {"value": 2}
        assert JsonFileStore(store.root, version="a" * 20).get(spec_of()) is None

    def test_never_stored_invalidate_conjures_nothing(self, tmp_path):
        root = tmp_path / "never"
        store = JsonFileStore(root, version=VERSION)
        assert store.invalidate(spec_of()) is False
        assert not root.exists()

    def test_read_only_probes_conjure_nothing(self, tmp_path):
        root = tmp_path / "never"
        store = JsonFileStore(root, version=VERSION)
        assert store.get(spec_of()) is None
        assert len(store) == 0
        assert store.prune() == 0
        assert store.gc(0).n_before == 0
        assert store.stats()["entries"] == 0
        assert not root.exists()

    def test_round_trip_bytes_are_canonical(self, store):
        spec = spec_of()
        store.put(spec, {"value": 7}, duration_s=1.5)
        path = store.path_for(spec)
        assert path == store.root / VERSION / spec.experiment / f"{entry_key(spec)}.json"
        assert path.read_bytes() == encode_entry(spec, {"value": 7}, duration_s=1.5)
        # The atomic write leaves no temp file behind.
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_stats_shape(self, store):
        store.put(spec_of(), {"value": 1})
        stats = store.stats()
        assert set(stats) == {"root", "version", "entries", "stored_bytes", "experiments"}
        assert stats["version"] == VERSION
        assert stats["entries"] == 1
        assert stats["stored_bytes"] == store.path_for(spec_of()).stat().st_size
        assert stats["experiments"] == ["selfcheck"]


class TestGarbageCollection:
    """LRU-by-mtime, survivor-set semantics, deterministic ties."""

    def seed(self, store, sizes_ages):
        for index, (size, age) in enumerate(sizes_ages):
            plant(store, "gc", f"{index:032x}", b"e" * size, float(age))

    def test_evicts_oldest_first(self, store):
        self.seed(store, [(10, 1), (10, 2), (10, 3)])
        report = store.gc(20)
        assert report.n_evicted == 1
        assert report.evicted == [("gc", f"{0:032x}")]  # the oldest
        assert len(store) == 2

    def test_one_oversized_newest_entry_evicts_everything(self, store):
        self.seed(store, [(500, 3), (10, 2), (10, 1)])
        # A bound the newest entry alone overflows: LRU order forbids
        # skipping it to keep older, smaller entries, so nothing stays.
        report = store.gc(499)
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
        assert store.gc(10**9, dry_run=True).n_evicted == 0
        report = store.gc(10, dry_run=True)
        # Same mtime everywhere: the survivor must be the (experiment,
        # key)-smallest, every time.
        assert report.evicted == [("gc", f"{1:032x}"), ("gc", f"{2:032x}")]


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
    def test_round_trip_is_identity(self, store, result, duration):
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
        self, tmp_path_factory, sizes_ages, bound
    ):
        store = JsonFileStore(tmp_path_factory.mktemp("gcprop"), version=VERSION)
        for index, (size, age) in enumerate(sizes_ages):
            plant(store, "gc", f"{index:032x}", b"p" * size, float(age))
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
        # 1. Exactly the survivor set remains -- GC never evicts below
        #    it and never spares anything older.
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


# -- the CLI surface ---------------------------------------------------------


class TestCacheCommand:
    def test_stats_gc_and_prune(self, tmp_path, capsys):
        root = tmp_path / "cache"
        store = JsonFileStore(root)  # the current code version, as the CLI
        for index in range(2):
            store.put(spec_of(payload=index), {"value": index})
        foreign = JsonFileStore(root, version="f" * 20)
        foreign.put(spec_of(), {"value": 0})

        assert main(["cache", "stats", "--cache-dir", str(root), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2 and stats["version"] == store.version

        assert main(["cache", "prune", "--cache-dir", str(root)]) == 0
        assert "pruned 1 stale" in capsys.readouterr().err
        assert not (root / foreign.version).exists()

        argv = ["cache", "gc", "--cache-dir", str(root), "--max-bytes", "0"]
        assert main(argv + ["--dry-run"]) == 0
        assert "would evict 2/2" in capsys.readouterr().err
        assert len(store) == 2
        assert main(argv) == 0
        assert "evicted 2/2" in capsys.readouterr().err
        assert len(store) == 0


class TestFingerprintSharing:
    def test_source_walk_runs_once_no_matter_how_many_stores_open(
        self, tmp_path, monkeypatch
    ):
        # The code-version fingerprint reads every file under src/repro;
        # opening N stores must hash the tree at most once per process,
        # not once per store.
        import repro.runner.spec as spec_mod

        real_walk = spec_mod._fingerprint_source_tree
        calls = []

        def counting_walk(root):
            calls.append(root)
            return real_walk(root)

        monkeypatch.setattr(spec_mod, "_fingerprint_source_tree", counting_walk)
        monkeypatch.setattr(spec_mod, "_CODE_VERSION", None)
        first = spec_mod.code_version()
        stores = [JsonFileStore(tmp_path / str(index)) for index in range(3)]
        assert all(s.version == first[:20] for s in stores)
        assert len(calls) == 1
