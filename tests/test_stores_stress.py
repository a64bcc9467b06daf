"""Concurrent-writer stress: N processes hammer one result store.

Every worker repeatedly puts and gets the same pool of specs in a
shuffled order, so writers overlap on identical keys while readers race
the in-flight replacements.  Because each spec's payload is a pure
function of its index, every writer writes *identical bytes* -- which
turns the invariants into sharp assertions:

* no torn reads: every ``get`` is either a miss or exactly the expected
  result (the store guarantees this via atomic ``os.replace``);
* no lost results: after the stampede, every spec is present;
* byte-identical get-after-put: the surviving raw entry equals
  ``encode_entry`` output exactly.
"""

import random
from concurrent.futures import ProcessPoolExecutor

from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore, encode_entry

VERSION = "w" * 20
N_WORKERS = 4
N_SPECS = 10
ROUNDS = 6


def _spec(index: int) -> JobSpec:
    return JobSpec(
        experiment=f"stress{index % 2}",
        params={"cell": index},
        profile={"name": "stress"},
    )


def _expected(index: int) -> dict:
    # Deterministic per spec so concurrent writers all write the same
    # bytes; any deviation observed by a reader is a torn read.
    return {"cell": index, "keystream": "ab" * (8 * (index + 1))}


def _hammer(root: str, worker_seed: int) -> list[str]:
    """One worker process; returns observed anomalies (empty == clean)."""
    rng = random.Random(worker_seed)
    anomalies: list[str] = []
    store = JsonFileStore(root, version=VERSION)
    for round_index in range(ROUNDS):
        order = list(range(N_SPECS))
        rng.shuffle(order)
        for index in order:
            spec = _spec(index)
            store.put(spec, _expected(index), duration_s=1.0)
            got = store.get(spec)
            if got != _expected(index):
                anomalies.append(
                    f"worker {worker_seed} round {round_index}: "
                    f"get-after-put for cell {index} returned {got!r}"
                )
        for index in range(N_SPECS):
            got = store.get(_spec(index))
            if got is not None and got != _expected(index):
                anomalies.append(
                    f"worker {worker_seed} round {round_index}: "
                    f"torn read for cell {index}: {got!r}"
                )
    return anomalies


def test_concurrent_writers_never_tear_or_lose_results(tmp_path):
    root = tmp_path / "cache"
    with ProcessPoolExecutor(max_workers=N_WORKERS) as pool:
        futures = [
            pool.submit(_hammer, str(root), worker) for worker in range(N_WORKERS)
        ]
        anomalies = [a for future in futures for a in future.result(timeout=300)]
    assert anomalies == []

    store = JsonFileStore(root, version=VERSION)
    # No lost results: every completed put is visible afterwards, and no
    # temp file of an atomic write is left behind.
    assert len(store) == N_SPECS
    assert not list(root.rglob("*.tmp"))
    for index in range(N_SPECS):
        spec = _spec(index)
        assert store.get(spec) == _expected(index)
        # Byte-identical survivors: whichever writer won last, the raw
        # entry bytes equal the canonical encoding exactly.
        expected_raw = encode_entry(spec, _expected(index), duration_s=1.0)
        assert store.path_for(spec).read_bytes() == expected_raw
