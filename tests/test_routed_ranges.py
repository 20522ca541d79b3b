"""The routed scan of a cell-major layout equals the postings scan and the oracle.

Once ``maintenance()`` has grouped a routed codec index's code rows
cell-major, a probe reads its cells as row ranges (``IndexBody._cell_bounds``)
instead of gathering ids from the inverted lists and sorting their rows.  The
check is generated from the model rather than from pinned outputs: at every
probe count and batch size, the range path must hand the rank the rows, in
the order, and the scan scores, to the bit, of the postings path of the same
index (its cell offsets dropped), and return the hits, to the score bit, and
the ``scan_stats`` of

* that postings path, and
* ``tests/reference_scan.py::reference_search``, whose candidates are the
  rows the inverted lists name for the cells ``best_cells`` picks,

with the ``scan_stats`` also counted from those lists.  A layout changed since
its last ``maintenance()`` must not use the offsets at all.  The rank's ``ε``
band is computed at most once per search, however many probes it ranks.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.index import QuantizedIndex, load_index, make_index, save_index
from repro.index.routing import best_cells

from index_streams import hit_signature
from reference_scan import reference_search

DIM = 16
NLIST = 12
TOP_K = 5
BATCHES = (1, 5, 64)


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _model_stats(index: QuantizedIndex, queries: np.ndarray) -> dict:
    """``scan_stats`` of one search, counted from the inverted lists."""
    router = index._router
    cscores = _unit(queries).astype(np.float32) @ router.centroids.T
    probes = best_cells(cscores, min(router.nprobe, router.nlist))
    sizes = [[len(router.lists[c]) for c in cells] for cells in probes]
    return {
        "probes_scanned": sum(1 for row in sizes for s in row if s),
        "rows_scanned": sum(sum(row) for row in sizes),
    }


def _search(index: QuantizedIndex, queries: np.ndarray):
    """Hits, ``scan_stats`` and each probe's ``(rows, scan scores)`` as ranked."""
    handed = []
    rank = index._rank

    def spy(*args):  # (..., qi, cand_rows, cand_scores)
        handed.append((np.array(args[-2]), args[-1].tobytes()))
        return rank(*args)

    index.reset_scan_stats()
    index._rank = spy
    try:
        hits = index.search(queries, top_k=TOP_K)
    finally:
        del index._rank
    return hit_signature(hits), index.scan_stats, handed


def _check(index: QuantizedIndex, queries: np.ndarray) -> None:
    """Range path == postings path == oracle, hits and counters, at every shape."""
    bounds = index._cell_bounds
    for nprobe in (1, 3, NLIST):
        index.nprobe = nprobe
        for size in BATCHES:
            q = queries[:size]
            got, stats, scanned = _search(index, q)
            index._cell_bounds = None
            via_lists, list_stats, list_scanned = _search(index, q)
            index._cell_bounds = bounds
            expected = hit_signature(reference_search(index, q, TOP_K))
            where = f"nprobe={nprobe} batch={size}"
            assert got == via_lists == expected, where
            assert stats == list_stats == _model_stats(index, q), where
            assert len(scanned) == len(list_scanned), where
            for (rows, scores), (list_rows, list_scores) in zip(scanned, list_scanned):
                assert np.array_equal(rows, list_rows) and scores == list_scores, where


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    vectors = rng.normal(size=(620, DIM))
    vectors[300:306] = vectors[10]  # exact ties: the lowest row must win
    queries = np.vstack([vectors[[10, 50, 400]], rng.normal(size=(61, DIM))])
    return vectors, queries


def _maintained(vectors: np.ndarray) -> QuantizedIndex:
    """A compacted ``ivf+sq8`` index with one emptied cell."""
    index = QuantizedIndex(routed=True, nlist=NLIST, min_train_size=64, seed=3)
    index.add_batch(vectors[:600])
    assert index.maintenance() == {"layout_compacted": True}
    router = index._router
    cell = min(range(NLIST), key=lambda c: (len(router.lists[c]), c))
    for id in router.lists[cell].view().tolist():
        index.remove(id)
    assert index.maintenance() == {"layout_compacted": True}
    bounds = index._cell_bounds
    assert bounds[cell] == bounds[cell + 1]  # the empty cell is an empty range
    assert router.nlist == NLIST and router.trainings == 1
    return index


def test_a_maintained_index_reads_cells_as_ranges_and_matches_the_oracle(data):
    vectors, queries = data
    index = _maintained(vectors)
    bounds = index._cell_bounds
    cells = index._router.cells[: len(index)]
    assert bounds[0] == 0 and bounds[-1] == len(index)
    for c in range(NLIST):
        assert (cells[bounds[c] : bounds[c + 1]] == c).all()
    _check(index, queries)


def test_a_mutated_layout_takes_the_postings_path_until_maintained(data):
    vectors, queries = data
    index = _maintained(vectors)
    index.add(vectors[600])
    assert index._cell_bounds is None
    _check(index, queries)
    index.remove(int(index.ids[3]))
    index.add(vectors[601])
    assert index._cell_bounds is None
    _check(index, queries)
    index.remove(int(index.ids[-1]))
    _check(index, queries)

    assert index.maintenance() == {"layout_compacted": True}
    assert index._cell_bounds is not None
    _check(index, queries)


def test_float_ivf_rows_keep_arrival_order_and_the_postings_path(data):
    vectors, _ = data
    index = make_index("ivf", dim=DIM, nlist=NLIST, min_train_size=64, seed=3)
    index.add_batch(vectors[:600])
    assert index.maintenance() == {}
    assert index._cell_bounds is None


def test_a_clustered_snapshot_restores_its_cell_offsets(data, tmp_path):
    vectors, queries = data
    index = _maintained(vectors)
    index.add_batch(vectors[600:610])
    index.maintenance()
    path = save_index(index, tmp_path / "clustered")
    loaded = load_index(path)
    assert np.array_equal(loaded._cell_bounds, index._cell_bounds)
    _check(loaded, queries)
    index.nprobe = loaded.nprobe
    assert hit_signature(loaded.search(queries, top_k=TOP_K)) == hit_signature(
        index.search(queries, top_k=TOP_K)
    )


def test_a_snapshot_claiming_a_layout_it_lacks_scans_the_postings(data, tmp_path):
    vectors, queries = data
    index = QuantizedIndex(routed=True, nlist=NLIST, min_train_size=64, seed=3)
    index.add_batch(vectors[:600])  # arrival order: no maintenance() yet
    path = save_index(index, tmp_path / "arrival")
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["state"]["layout_clustered"] is False
    manifest["state"]["layout_clustered"] = True
    (path / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_index(path)
    assert loaded._cell_bounds is None
    _check(loaded, queries)
    assert loaded.maintenance() == {"layout_compacted": True}
    _check(loaded, queries)


def test_a_refit_of_a_clustered_layout_drops_its_offsets(data, tmp_path):
    vectors, queries = data
    index = _maintained(vectors)
    path = save_index(index, tmp_path / "due")
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["state"]["repartition_due"] = True  # a refit owed on a grouped layout
    (path / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_index(path)
    assert loaded._cell_bounds is not None
    _check(loaded, queries)
    done = loaded.maintenance()
    assert done["repartitioned"] and done["layout_compacted"]
    assert loaded._router.trainings == 1
    _check(loaded, queries)


def test_a_search_computes_its_band_at_most_once(data):
    vectors, queries = data
    index = _maintained(vectors)
    index.nprobe = NLIST
    expected = hit_signature(index.search(queries, top_k=TOP_K))
    calls = []
    band = index._band

    def counted():
        calls.append(1)
        return band()

    index._band = counted
    try:
        assert hit_signature(index.search(queries, top_k=TOP_K)) == expected
    finally:
        del index._band
    assert len(calls) == 1  # 64 probes, each ranking more rows than the band floor
