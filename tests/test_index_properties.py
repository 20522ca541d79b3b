"""Property-based randomized suite: cross-backend index invariants.

Every registered backend must behave like the brute-force oracle (a plain
``{id: vector}`` dict searched with float64 cosine) up to its documented
score tolerance, under *any* interleaving of add / add_batch / remove /
clear / search.  Two drivers exercise that:

* seeded ``numpy`` random operation sequences (deterministic, long), and
* Hypothesis-generated operation lists (``derandomize=True`` so CI is
  stable), which shrink to minimal failing sequences.

Checked invariants (the ISSUE 4 checklist):

* **round-trips** — ``len``/``ids``/``in``/``get`` agree with the oracle
  after every operation, including swap-delete churn and clears;
* **search sanity** — returned ids are live, unique, scores are descending,
  inside [-1, 1], respect ``score_threshold``, and match the true cosine of
  the returned entry within the backend's tolerance; the exact backend must
  reproduce the oracle's top-k scores;
* **monotone top-k** — growing ``top_k`` never changes the head of the
  ranking (exact backend), and every hit list is sorted;
* **id-namespace integrity** — explicit ids, duplicate rejection, unknown
  removes, auto-id monotonicity across ``clear(reset_ids=False)``;
* **nbytes accounting** — the documented per-entry identities hold for the
  flat-storage backends and for both phases (staging / coded) of the
  quantized backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import QuantizedIndex, make_index

DIM = 16

_ROUTED = {"min_train_size": 24, "nprobe": 4, "seed": 7}
_SQ8 = {"min_train_size": 24, "seed": 7}

#: composition name -> (constructor params sized for fast tests, score
#: tolerance vs the float64 oracle).  A name is a registry backend, optionally
#: followed by ``-variant``: float64 storage, deferred repartition, a
#: multi-chunk unrouted scan, or no exact rescore.  Tolerances: the float32
#: storage of the exact backends rounds at ~1e-7; SQ8 adds per-dim int8
#: quantization error.
BACKENDS = {
    "flat": ({}, 1e-5),
    "flat-f64": ({"dtype": "float64"}, 1e-5),
    "ivf": (dict(_ROUTED), 1e-5),
    "ivf-deferred": ({**_ROUTED, "auto_repartition": False}, 1e-5),
    # SQ8's tolerance is loose here because ranges trained on only 24
    # vectors clip later out-of-range adds; at production training sizes the
    # error is ~1e-3 (benchmarks/test_bench_index.py pins recall instead).
    # It still catches structural bugs — a stale or swapped row scores a
    # random cosine, |error| ~ 0.5-1.
    "sq8": (dict(_SQ8), 0.35),
    "sq8-chunked": ({**_SQ8, "chunk_size": 16}, 0.35),
    "sq8-rescore1": ({**_SQ8, "rescore": 1, "chunk_size": 16}, 0.35),
    "ivf+sq8": (dict(_ROUTED), 0.35),
    "ivf+sq8-rescore1": ({**_ROUTED, "rescore": 1}, 0.35),
    "ivf+sq8-deferred": ({**_ROUTED, "auto_repartition": False}, 0.35),
}

BACKEND_NAMES = sorted(BACKENDS)


def registry_name(name: str) -> str:
    """The registry backend a composition name builds."""
    return name.split("-")[0]


def make_backend(name: str):
    params, _tol = BACKENDS[name]
    return make_index(registry_name(name), dim=DIM, **params)


# --------------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------------- #
def oracle_cosine(query: np.ndarray, vector: np.ndarray) -> float:
    q = np.asarray(query, dtype=np.float64)
    v = np.asarray(vector, dtype=np.float64)
    qn = np.linalg.norm(q)
    vn = np.linalg.norm(v)
    if qn < 1e-12 or vn < 1e-12:
        return 0.0
    return float(np.dot(q, v) / (qn * vn))


def oracle_topk(oracle: dict, query: np.ndarray, top_k: int):
    """Brute-force (score, id) ranking, best first."""
    scored = sorted(
        ((oracle_cosine(query, v), i) for i, v in oracle.items()),
        key=lambda pair: -pair[0],
    )
    return scored[:top_k]


# --------------------------------------------------------------------------- #
# Invariant checks
# --------------------------------------------------------------------------- #
def check_state(index, oracle: dict, name: str) -> None:
    """Structural round-trip invariants after any operation."""
    assert len(index) == len(oracle)
    ids = index.ids
    assert len(ids) == len(set(ids)), "duplicate ids exposed"
    assert set(ids) == set(oracle)
    for i in list(oracle)[:5]:
        assert i in index
    assert (max(oracle) + 10 if oracle else 10**9) not in index
    # nbytes accounting: zero iff empty, and the documented identity.
    if not oracle:
        assert index.nbytes == 0
    else:
        assert index.nbytes == expected_nbytes(index, len(oracle))


def expected_nbytes(index, n: int) -> int:
    """The per-entry storage identity each backend documents."""
    if isinstance(index, QuantizedIndex):
        if index.is_trained:
            return n * (index.code_width + 4 + 8)
        return n * (DIM * 4 + 4 + 8)
    # Flat storage (flat/ivf): dim floats + one float norm + int64 id, in
    # the storage dtype.
    itemsize = index.dtype.itemsize
    return n * (DIM * itemsize + itemsize + 8)


def check_search(index, oracle: dict, query: np.ndarray, name: str, tol: float) -> None:
    """Search-result invariants against the brute-force oracle."""
    top_k = 5
    hits = index.search(query, top_k=top_k)[0]
    assert len(hits) <= min(top_k, len(oracle))
    ids = [h.id for h in hits]
    assert len(ids) == len(set(ids)), "duplicate ids in one hit list"
    scores = [h.score for h in hits]
    assert all(-1.0 <= s <= 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True), "scores not descending"
    for hit in hits:
        assert hit.id in oracle, "search returned a dead id"
        true = oracle_cosine(query, oracle[hit.id])
        assert abs(hit.score - true) <= tol, (
            f"{name}: reported score {hit.score} vs true cosine {true}"
        )
    # Thresholded search is a filtered version of the same ranking.
    cut = index.search(query, top_k=top_k, score_threshold=0.5)[0]
    assert all(h.score >= 0.5 for h in cut)
    assert [h.id for h in cut] == [h.id for h in hits if h.score >= 0.5]
    if registry_name(name) == "flat" and oracle:
        truth = oracle_topk(oracle, query, top_k)
        assert len(hits) == min(top_k, len(oracle))
        np.testing.assert_allclose(
            scores, [s for s, _ in truth], atol=tol, rtol=0.0
        )


def check_get(index, oracle: dict, name: str) -> None:
    """Stored-vector reconstruction: exact or codec-approximate."""
    for i in list(oracle)[:3]:
        got = index.get(i)
        true = np.asarray(oracle[i], dtype=np.float64)
        if isinstance(index, QuantizedIndex) and index.is_trained:
            # Approximate reconstruction: direction and magnitude survive up
            # to codec error (the decoded unit row is not exactly unit).
            assert oracle_cosine(got, true) > 0.5
            true_norm = float(np.linalg.norm(true))
            assert abs(float(np.linalg.norm(got)) - true_norm) <= 0.3 * max(
                true_norm, 1e-9
            )
        else:
            np.testing.assert_allclose(got, true, atol=1e-5, rtol=0.0)


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def apply_op(index, oracle: dict, op, rng: np.random.Generator) -> None:
    """Apply one (kind, *args) operation to the index and the oracle."""
    kind = op[0]
    if kind == "add":
        vec = np.random.default_rng(op[1]).normal(size=DIM)
        oracle[index.add(vec)] = vec
    elif kind == "add_batch":
        vecs = np.random.default_rng(op[2]).normal(size=(op[1], DIM))
        for i, v in zip(index.add_batch(vecs), vecs):
            oracle[i] = v
    elif kind == "remove":
        if oracle:
            victim = sorted(oracle)[op[1] % len(oracle)]
            index.remove(victim)
            del oracle[victim]
        else:
            with pytest.raises(KeyError):
                index.remove(12345)
    elif kind == "clear":
        before_next = max(oracle) + 1 if oracle else 0
        index.clear(reset_ids=op[1])
        oracle.clear()
        if not op[1] and before_next:
            # Auto-ids must stay monotonic across a non-resetting clear.
            probe = np.random.default_rng(0).normal(size=DIM)
            new_id = index.add(probe)
            assert new_id >= before_next
            oracle[new_id] = probe
    elif kind == "search":
        pass  # the post-op check always searches
    else:  # pragma: no cover - strategy bug
        raise AssertionError(kind)


def run_sequence(name: str, ops, rng: np.random.Generator) -> None:
    _params, tol = BACKENDS[name]
    index = make_backend(name)
    oracle: dict = {}
    for op in ops:
        apply_op(index, oracle, op, rng)
        check_state(index, oracle, name)
        if oracle:
            query = rng.normal(size=DIM)
            check_search(index, oracle, query, name, tol)
            # Probing with a stored vector must surface it (exact backends)
            # or at least stay score-consistent (approximate ones).
            some_id = sorted(oracle)[0]
            check_search(index, oracle, oracle[some_id], name, tol)
            check_get(index, oracle, name)
        else:
            assert index.search(rng.normal(size=DIM), top_k=3) == [[]]


def random_ops(rng: np.random.Generator, n_ops: int):
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.45:
            ops.append(("add", int(rng.integers(0, 2**31))))
        elif r < 0.6:
            ops.append(("add_batch", int(rng.integers(1, 7)), int(rng.integers(0, 2**31))))
        elif r < 0.85:
            ops.append(("remove", int(rng.integers(0, 2**31))))
        elif r < 0.9:
            ops.append(("clear", bool(rng.integers(0, 2))))
        else:
            ops.append(("search", int(rng.integers(0, 2**31))))
    return ops


# --------------------------------------------------------------------------- #
# Seeded random sequences (long, deterministic)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_operation_sequences(name, seed):
    rng = np.random.default_rng(seed * 1000 + 17)
    ops = random_ops(rng, 60)
    run_sequence(name, ops, rng)


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_growth_past_training_threshold(name):
    """Sequences long enough to cross lazy-training/repartition boundaries."""
    rng = np.random.default_rng(99)
    ops = [("add_batch", 6, int(rng.integers(0, 2**31))) for _ in range(20)]
    ops += random_ops(rng, 30)
    run_sequence(name, ops, rng)
    index = make_backend(name)
    index.add_batch(np.random.default_rng(5).normal(size=(120, DIM)))
    if isinstance(index, QuantizedIndex):
        assert index.is_trained
        assert index.nbytes < 120 * (DIM * 4 + 4 + 8)


# --------------------------------------------------------------------------- #
# Hypothesis-generated sequences (shrinking)
# --------------------------------------------------------------------------- #
_op_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 2**31 - 1)),
    st.tuples(st.just("add_batch"), st.integers(1, 6), st.integers(0, 2**31 - 1)),
    st.tuples(st.just("remove"), st.integers(0, 2**31 - 1)),
    st.tuples(st.just("clear"), st.booleans()),
    st.tuples(st.just("search"), st.integers(0, 2**31 - 1)),
)


@pytest.mark.parametrize("name", BACKEND_NAMES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(ops=st.lists(_op_strategy, min_size=1, max_size=30))
def test_hypothesis_operation_sequences(name, ops):
    run_sequence(name, ops, np.random.default_rng(1234))


# --------------------------------------------------------------------------- #
# Id-namespace integrity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_id_namespace_integrity(name):
    index = make_backend(name)
    rng = np.random.default_rng(3)
    first = index.add(rng.normal(size=DIM))
    explicit = index.add(rng.normal(size=DIM), id=1000)
    assert explicit == 1000
    with pytest.raises(ValueError):
        index.add(rng.normal(size=DIM), id=1000)
    with pytest.raises(ValueError):
        index.add_batch(rng.normal(size=(2, DIM)), ids=[first, 2000])
    with pytest.raises(ValueError):
        index.add_batch(rng.normal(size=(2, DIM)), ids=[7, 7])
    with pytest.raises(KeyError):
        index.remove(999)
    # Auto ids continue past the explicit maximum.
    assert index.add(rng.normal(size=DIM)) == 1001
    with pytest.raises(ValueError):
        index.add(rng.normal(size=DIM + 1))
    with pytest.raises(ValueError):
        index.search(rng.normal(size=DIM + 1))


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_monotone_topk_head(name):
    """Growing top_k keeps every hit list a descending, duplicate-free
    ranking; on the exact backend the head is literally a prefix."""
    index = make_backend(name)
    rng = np.random.default_rng(11)
    index.add_batch(rng.normal(size=(80, DIM)))
    query = rng.normal(size=DIM)
    previous = None
    for top_k in (1, 2, 4, 7):
        hits = index.search(query, top_k=top_k)[0]
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert len({h.id for h in hits}) == len(hits)
        if registry_name(name) == "flat" and previous is not None:
            assert [h.id for h in hits][: len(previous)] == previous
        previous = [h.id for h in hits]


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_rebuild_round_trip(name):
    _params, tol = BACKENDS[name]
    index = make_backend(name)
    rng = np.random.default_rng(21)
    vecs = rng.normal(size=(60, DIM))
    index.add_batch(vecs)
    keep = list(range(0, 60, 2))
    index.rebuild(vecs[keep], ids=keep)
    oracle = {i: vecs[i] for i in keep}
    check_state(index, oracle, name)
    check_search(index, oracle, rng.normal(size=DIM), name, tol)
    with pytest.raises(ValueError):
        index.rebuild(vecs[:3], ids=[1, 2])


# --------------------------------------------------------------------------- #
# Hot-path optimizations are decision-invariant (ISSUE 7)
# --------------------------------------------------------------------------- #
# The fused ADC scans, scratch-buffer reuse, cell-major layout compaction and
# snapshot restore must all return the *same* hits as the straightforward
# decode-to-float64 scan (``tests/reference_scan.py``).  "Same" is exact
# (id, score) equality, not approximate: final scores come from the float64
# decode-and-rescore of a deterministic candidate set (``det_topk`` is
# tie-closed), so any drift is a real bug in candidate selection or row
# bookkeeping, not floating-point noise.

from reference_scan import reference_search  # noqa: E402  (section-local import)
from repro.index import load_index  # noqa: E402

# The reference equals a quantized scan exactly only under an exact rescore,
# so the ``rescore1`` compositions sit out the parity cases.
QUANTIZED_NAMES = ("sq8", "sq8-chunked", "ivf+sq8", "ivf+sq8-deferred")
STOP_SCORE_NAMES = tuple(name for name in BACKEND_NAMES if registry_name(name) != "flat")


def hits_fingerprint(results):
    """Exact (id, score) transcript of a batched search result."""
    return [[(h.id, h.score) for h in hits] for hits in results]


def same_ranking(got, want, atol: float) -> bool:
    """Identical ids in identical order, scores equal within ``atol``."""
    if [[i for i, _ in hits] for hits in got] != [[i for i, _ in hits] for hits in want]:
        return False
    return all(
        abs(sg - sw) <= atol
        for hits_got, hits_want in zip(got, want)
        for (_, sg), (_, sw) in zip(hits_got, hits_want)
    )


def build_mutated(name: str, rng: np.random.Generator, n: int = 160):
    """A trained index that has seen growth, deletes and re-adds.

    Returns ``(index, oracle)`` so callers can keep checking structural
    invariants after maintenance or snapshot restore.
    """
    index = make_backend(name)
    oracle: dict = {}
    vecs = rng.normal(size=(n, DIM))
    for i, v in zip(index.add_batch(vecs), vecs):
        oracle[i] = v
    victims = sorted(oracle)[::3][: n // 4]
    for victim in victims:
        index.remove(victim)
        del oracle[victim]
    extra = rng.normal(size=(n // 4, DIM))
    for i, v in zip(index.add_batch(extra), extra):
        oracle[i] = v
    return index, oracle


@pytest.mark.parametrize("name", QUANTIZED_NAMES)
@pytest.mark.parametrize("maintained", [False, True])
def test_fused_scan_parity_on_mutated_index(name, maintained):
    """Fused scans == the reference decode scan, exactly, on churned indexes.

    Covers both the freshly-mutated layout and the post-``maintenance()``
    (repartitioned + cell-major compacted) layout.
    """
    rng = np.random.default_rng(42)
    index, oracle = build_mutated(name, rng)
    assert isinstance(index, QuantizedIndex) and index.is_trained
    if maintained:
        index.maintenance()
        check_state(index, oracle, name)
    queries = rng.normal(size=(8, DIM))
    reference = hits_fingerprint(reference_search(index, queries, top_k=5))
    assert [
        hits_fingerprint(index.search(q, top_k=5))[0] for q in queries
    ] == reference
    # Batch size must not change decisions either (small batches take the
    # latency path, large ones the blocked batch path).  The
    # unrouted batch path cuts each chunk with ``argpartition``, which hands
    # the rescore the same candidates in another order than the oracle's
    # ascending rows, and a float64 gemv is order-dependent in the last bit.
    batch = hits_fingerprint(index.search(queries, top_k=5))
    assert batch == reference if index.routed else same_ranking(batch, reference, 1e-12)
    for qi, hits in enumerate(reference):
        assert hits, f"query {qi} returned no hits"


@pytest.mark.parametrize("name", QUANTIZED_NAMES)
def test_snapshot_restore_parity(name, tmp_path):
    """Live, restored and restored-reference hits are identical.

    Snapshots preserve row order byte-for-byte and the canonical scan order
    is a pure function of stored rows, so a restored index must replay the
    exact same decisions — including after ``maintenance()`` compacted the
    layout.
    """
    rng = np.random.default_rng(13)
    index, oracle = build_mutated(name, rng)
    index.maintenance()
    queries = rng.normal(size=(5, DIM))
    live = hits_fingerprint(index.search(queries, top_k=5))
    restored = load_index(index.save(tmp_path / name.replace("+", "_")))
    check_state(restored, oracle, name)
    assert hits_fingerprint(restored.search(queries, top_k=5)) == live
    reference = hits_fingerprint(reference_search(restored, queries, top_k=5))
    # (the 5-query unrouted batch orders its rescore gemv by argpartition)
    assert live == reference if index.routed else same_ranking(live, reference, 1e-12)


@pytest.mark.parametrize("name", ("ivf+sq8", "ivf+sq8-deferred"))
def test_maintenance_compacts_and_is_idempotent(name):
    rng = np.random.default_rng(7)
    index, oracle = build_mutated(name, rng)
    queries = rng.normal(size=(4, DIM))
    first = index.maintenance()
    assert first.get("layout_compacted") is True
    check_state(index, oracle, name)
    before = hits_fingerprint(index.search(queries, top_k=3))
    # A second call finds nothing to do and must not disturb decisions.
    second = index.maintenance()
    assert "layout_compacted" not in second
    assert hits_fingerprint(index.search(queries, top_k=3)) == before
    # Any mutation re-dirties the layout; maintenance compacts again.
    index.add(rng.normal(size=DIM))
    oracle[max(oracle) + 1] = None  # id bookkeeping not needed below
    third = index.maintenance()
    assert third.get("layout_compacted") is True


@pytest.mark.parametrize("name", STOP_SCORE_NAMES)
def test_stop_score_early_termination_invariant(name):
    """Threshold early termination is lossy only *above* the threshold.

    With an unreachable ``stop_score`` the scan must be exhaustive and
    byte-identical to a plain search; with a reachable one, either the scan
    still completed (identical hits) or it stopped early, in which case the
    returned top-1 must already satisfy the threshold (up to codec error)
    and the ``early_stops`` counter must record the shortcut.
    """
    params, tol = BACKENDS[name]
    rng = np.random.default_rng(31)
    index, oracle = build_mutated(name, rng)
    assert index.supports_stop_score
    probe_id = sorted(oracle)[len(oracle) // 2]
    query = oracle[probe_id]
    exhaustive = hits_fingerprint(index.search(query, top_k=3))

    def same_decisions(got, want):
        # The unrouted quantized scans take one path with or without
        # ``stop_score``: byte-identical transcripts.  The routed ones
        # rescore the same candidates in float64, but the per-cell
        # ``probe_scan`` and the single-block ``probe_scan_batched`` hand
        # them to the rescore gemv in different orders — identical ids,
        # scores equal to a float64 ulp.  The float IVF backend and the
        # routed quantized one without a rescore report raw float32 scan
        # scores, and BLAS picks different kernels for the two candidate
        # shapes — identical ids, scores equal to float32 ulps.
        if registry_name(name) == "ivf" or name == "ivf+sq8-rescore1":
            return same_ranking(got, want, 1e-6)
        if name.startswith("ivf+"):
            return same_ranking(got, want, 1e-12)
        return got == want

    # Unreachable threshold: never stops, identical decisions.
    assert same_decisions(
        hits_fingerprint(index.search(query, top_k=3, stop_score=2.0)), exhaustive
    )
    # Reachable threshold: a stored-vector query scores ~1.0, so any cell
    # containing it clears 0.5 immediately.
    index.reset_scan_stats()
    stopped = hits_fingerprint(index.search(query, top_k=3, stop_score=0.5))[0]
    assert stopped, "stop_score search returned nothing for a stored vector"
    if not same_decisions([stopped], [exhaustive[0]]):
        assert index.scan_stats["early_stops"] >= 1
    assert stopped[0][1] >= 0.5 - tol
    if "chunk_size" in params:
        # A multi-chunk flat scan may stop at an earlier chunk whose best row
        # already clears the threshold: the stored vector is then not seen.
        assert stopped[0][0] in oracle
    else:
        assert stopped[0][0] == probe_id


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_scratch_reuse_keeps_searches_deterministic(name):
    """Interleaving batch shapes (which resizes/reuses the shared scratch
    buffers) never changes what an identical repeated query returns."""
    index = make_backend(name)
    rng = np.random.default_rng(17)
    index.add_batch(rng.normal(size=(120, DIM)))
    big = rng.normal(size=(8, DIM))
    small = rng.normal(size=(2, DIM))
    single = rng.normal(size=DIM)
    first = hits_fingerprint(index.search(big, top_k=5))
    for _ in range(3):
        index.search(single, top_k=7)
        index.search(small, top_k=1)
        assert hits_fingerprint(index.search(big, top_k=5)) == first
