"""Every flat search against the brute-force oracle of the one ranking rule.

With duplicated rows (the same text cached under several contexts) the order
among exactly equal scores decides which entries' context chains Algorithm 1
gets to verify, so it is fixed by one rule, the same for every backend and
host: every row above the k-th score is kept, ties at the cut are filled from
the lowest row, and hits are listed by ``(-score, id)``.  The oracle in
``tests/reference_topk.py`` sorts every score; the cases are generated, not
hand-picked: duplicated rows, ``k`` from 1 to past the corpus size, one to
four probes, both float widths, ``chunk_size`` below ``k``, inside the corpus
and above it, swap-deleted rows.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from conftest import make_tiny_encoder
from reference_scan import reference_search as reference_scan_search
from reference_topk import reference_search
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.index import FlatIndex, QuantizedIndex, make_index
from repro.index import postings
from repro.index.postings import det_topk, exact_scan, topk_hits


def make_case(seed: int, n: int, distinct: int, q: int, dim: int, dtype, unit: bool):
    """A corpus of ``n`` rows drawn (with repeats) from ``distinct`` vectors,
    and ``q`` probes of which the first repeats a corpus row exactly."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((distinct, dim))
    corpus = base[rng.integers(0, distinct, size=n)]
    queries = rng.standard_normal((q, dim))
    queries[0] = corpus[rng.integers(0, n)]
    if unit:
        corpus = corpus / np.linalg.norm(corpus, axis=1, keepdims=True)
    queries = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    return queries.astype(dtype), np.ascontiguousarray(corpus.astype(dtype))


def chunk_sizes(n: int, k: int):
    """Below ``k``, mid-corpus, exactly the corpus, and above it (the single
    block every small cache runs)."""
    return sorted({1, max(1, k - 1), max(1, n // 2), n, n + 3, 65536})


def hit_stream(results):
    """``(id, score bits)`` per hit."""
    return [[(hit.id, float(hit.score).hex()) for hit in hits] for hits in results]


def assert_matches_reference(index, probes, top_k, threshold=None):
    got = index.search(probes, top_k, threshold)
    assert hit_stream(got) == hit_stream(reference_search(index, probes, top_k, threshold))


#: A unit row whose products with itself are exact in any summation order,
#: so ``n`` copies of it tie exactly, in every BLAS kernel.
EXACT_ROW = np.zeros(16)
EXACT_ROW[[1, 4, 9, 12]] = 0.5


def tied_index(n: int, dtype, chunk_size: int) -> FlatIndex:
    """``n`` copies of :data:`EXACT_ROW` under shuffled ids, after a swap-delete."""
    ids = np.random.default_rng(n).permutation(n + 1) + 10
    index = FlatIndex(dtype=dtype, chunk_size=chunk_size)
    index.add_batch(np.tile(EXACT_ROW, (n + 1, 1)), ids=ids)
    index.remove(int(ids[n // 2]))  # the last row swaps into its slot
    return index


# --------------------------------------------------------------------------- #
# FlatIndex.search against the oracle
# --------------------------------------------------------------------------- #
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    distinct_share=st.floats(0.0, 1.0),
    q=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    top_k=st.integers(1, 8),
    chunk_size=st.sampled_from([1, 3, 7, 40, 65536]),
    threshold=st.sampled_from([None, -1.0, 0.0, 0.5, 1.0]),
)
def test_flat_search_matches_reference(
    seed, n, distinct_share, q, dtype, top_k, chunk_size, threshold
):
    queries, corpus = make_case(
        seed, n, max(1, round(distinct_share * n)), q, 8, np.float64, unit=False
    )
    index = FlatIndex(dtype=dtype, chunk_size=chunk_size)
    index.add_batch(corpus, ids=list(range(100, 100 + n)))
    for victim in range(100, 100 + n, 3)[: n // 4]:  # swap-deletes reorder the rows
        index.remove(victim)
    if len(index) == 0:
        return
    # The batch, the (d,) single-probe form and the (1, d) matrix a cache
    # lookup hands over.
    for probes in (queries, queries[0], queries[:1]):
        assert_matches_reference(index, probes, top_k, threshold)


def test_flat_search_matches_reference_seeded_sweep():
    """2,000 seeded cases on top of the Hypothesis ones: 0 mismatches."""
    rng = np.random.default_rng(2024)
    multi_chunk = below_k = 0
    for case in range(2000):
        n = int(rng.integers(1, 48))
        k = int(rng.integers(1, n + 3))
        chunk_size = int(rng.choice(chunk_sizes(n, k)))
        queries, corpus = make_case(
            seed=case,
            n=n,
            distinct=int(rng.integers(1, n + 1)),
            q=int(rng.integers(1, 5)),
            dim=int(rng.integers(1, 9)),
            dtype=np.float64,
            unit=bool(case % 2),
        )
        index = FlatIndex(dtype=(np.float32, np.float64)[(case // 2) % 2], chunk_size=chunk_size)
        index.add_batch(corpus, ids=rng.permutation(n) + 10)
        if n > 2:
            index.remove(int(index.ids[0]))
        assert_matches_reference(index, queries, k)
        assert_matches_reference(index, queries[:1], k)
        multi_chunk += chunk_size < len(index)
        below_k += chunk_size < min(k, len(index))
    assert multi_chunk > 500 and below_k > 200  # the sweep reaches both


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 5, 22, 64, 257])
def test_all_rows_equal_rank_by_the_rule(n, dtype):
    """Every score ties exactly (a row whose products are exact): the hits
    are the ``k`` lowest rows, listed by ascending id — for one probe and a
    batch, with one block or many."""
    row = EXACT_ROW
    for chunk_size in chunk_sizes(n, min(5, n)):
        index = tied_index(n, dtype, chunk_size)
        live = index._ids[:n].tolist()
        for k in sorted({1, min(5, n), n, n + 2}):
            want = [(id, (1.0).hex()) for id in sorted(live[:k])]
            assert hit_stream(index.search(row, k)) == [want]
            got = index.search(np.stack([row, -row]), k)
            assert hit_stream(got[:1]) == [want]
            assert [h.id for h in got[1]] == sorted(live[:k])
            assert_matches_reference(index, np.stack([row, -row]), k)


def test_all_duplicate_index_returns_the_same_ids_in_the_same_order():
    row = np.random.default_rng(7).standard_normal(32)
    for n in (3, 6, 22, 70):
        index = FlatIndex(chunk_size=16)
        index.add_batch(np.tile(row, (n, 1)), ids=list(range(10, 10 + n)))
        index.remove(10 + n // 2)
        for top_k in (1, 5, n + 1):
            got = index.search(row, top_k=top_k)
            assert hit_stream(got) == hit_stream(reference_search(index, row, top_k))
            scores = [h.score for h in got[0]]
            assert scores == [scores[0]] * len(scores)  # one dot per row: exact ties


def test_same_text_under_many_contexts_keeps_its_candidate_order(tiny_encoder):
    """More than ``top_k`` entries share one embedding (one text, different
    conversations): which of them are retrieved — hence verified against the
    probe's context — is decided by the ranking rule alone."""
    cache = MeanCache(tiny_encoder, MeanCacheConfig(top_k=3, similarity_threshold=0.9))
    text = "change the color to red"
    parents = [f"how do I draw a {shape} in matplotlib" for shape in
               ("circle", "square", "line", "histogram", "heatmap", "violin plot", "pie")]
    ids = [cache.insert(text, f"answer {i}", context=[p]) for i, p in enumerate(parents)]
    cache.insert("an unrelated question about sourdough hydration", "72 percent")
    cache.remove(ids[1])  # the last row swaps into its slot
    for parent in (parents[4], parents[0], "something never cached"):
        decision = cache.lookup(text, context=[parent])
        want = reference_search(cache.index, decision.embedding, top_k=3)[0]
        assert [(h.id, h.score.hex()) for h in decision.candidates] == [
            (h.id, h.score.hex()) for h in want
        ]
        scores = [h.score for h in decision.candidates]
        assert scores == [scores[0]] * len(scores)
        assert {h.id for h in decision.candidates} <= set(ids)


# --------------------------------------------------------------------------- #
# The ranking kernels themselves
# --------------------------------------------------------------------------- #
def test_det_topk_keeps_every_row_above_the_cut_and_fills_ties_from_the_lowest_row():
    scores = np.array([0.5, 0.9, 0.5, 0.7, 0.5, 0.9])
    want = {1: [1], 2: [1, 5], 3: [1, 3, 5], 4: [0, 1, 3, 5], 5: [0, 1, 2, 3, 5]}
    for k, rows in want.items():
        assert det_topk(scores, k).tolist() == rows
    rng = np.random.default_rng(11)
    for _ in range(500):  # few distinct values: most cuts fall inside a tie
        n = int(rng.integers(1, 40))
        scores = rng.integers(-3, 4, size=n).astype(rng.choice([np.float32, np.float64]))
        k = int(rng.integers(1, n + 1))
        stable = np.argsort(-scores, kind="stable")[:k]
        assert det_topk(scores, k).tolist() == sorted(stable.tolist())


def test_det_topk_ranks_nan_below_every_number():
    scores = np.array([np.nan, 0.1, np.nan, -0.3, 0.2])
    assert det_topk(scores, 2).tolist() == [1, 4]
    assert det_topk(scores, 3).tolist() == [1, 3, 4]


def test_topk_hits_never_returns_a_nan_score():
    ids = np.array([40, 41, 42, 43])
    scores = np.array([np.nan, 0.25, np.nan, 0.5], dtype=np.float32)
    hits = topk_hits(ids, scores, 4, None)
    assert [(h.id, h.score) for h in hits] == [(43, 0.5), (41, 0.25)]
    assert topk_hits(ids, scores, 4, -1.0) == hits


def test_topk_hits_threshold_is_an_exact_comparison():
    """A float32 score one rounding below a float64 threshold is not a hit."""
    score = np.float32(0.7)
    ids = np.array([7])
    scores = np.array([score])
    assert [h.id for h in topk_hits(ids, scores, 1, float(score))] == [7]
    assert topk_hits(ids, scores, 1, float(np.nextafter(float(score), 1.0))) == []


def test_topk_hits_clips_scores_into_the_cosine_range():
    ids = np.array([1, 2, 3])
    scores = np.array([np.nextafter(np.float32(1), np.float32(2)), 0.5,
                       np.nextafter(np.float32(-1), np.float32(-2))], dtype=np.float32)
    hits = topk_hits(ids, scores, 3, None)
    assert [(h.id, h.score) for h in hits] == [(1, 1.0), (2, 0.5), (3, -1.0)]


def rule_hits(scores: np.ndarray, ids: np.ndarray, top_k: int):
    """The ranking rule by sorting every score: the first ``top_k`` by
    (-score, row), NaN last, listed by (-score, id) with scores clipped into
    [-1, 1]; a NaN is never a hit."""
    top = np.lexsort((np.arange(scores.shape[0]), -scores))[:top_k]
    top = top[np.lexsort((ids[top], -scores[top]))]
    clipped = np.clip(scores[top].astype(np.float64), -1.0, 1.0)
    return [(int(ids[i]), s.hex()) for i, s in zip(top, clipped.tolist()) if s == s]


def assert_scan_follows_the_rule(rows, queries, ids, top_k, chunk_sizes):
    """``exact_scan`` over rows × probes blocks, at each chunk size and with
    its cut lowered by no band or a wide one, keeps what :func:`rule_hits`
    keeps from the whole corpus.  Every chunk is a slice of one product, so
    no chunk shape moves a score bit."""
    n = rows.shape[0]
    block = rows @ queries.T
    want = [rule_hits(block[:, qi], ids, top_k) for qi in range(queries.shape[0])]

    def score(start, stop):
        return block[start:stop]

    def rank(qi, cand_rows, cand_scores):
        return topk_hits(ids[cand_rows], cand_scores, top_k, None)

    for chunk_size in chunk_sizes:
        for eps in (0.0, 0.3):
            got = exact_scan(score, n, top_k, chunk_size, rank, lambda: eps)
            assert hit_stream(got) == want, (n, top_k, chunk_size, eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_exact_scan_ranks_by_the_rule_over_any_number_of_blocks(dtype):
    """Rows of ±0.5 and 0 in four dimensions: every product is exact and
    most scores tie, so one block and many must keep the very same rows."""
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 50))
        rows = (rng.integers(-1, 2, size=(n, 4)) * 0.5).astype(dtype)
        queries = (rng.integers(-1, 2, size=(int(rng.integers(1, 4)), 4)) * 0.5).astype(dtype)
        ids = rng.permutation(n) + 100
        top_k = int(rng.integers(1, n + 3))
        assert_scan_follows_the_rule(
            rows, queries, ids, top_k, sorted({1, 2, 5, max(1, n // 2), n, 65536})
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_exact_scan_cut_keeps_what_the_rule_keeps(dtype):
    """Past the cut threshold (``_CUT_MIN_GROUPS·_CUT_GROUP`` rows per kept
    row): corpora from just below it to ~3× it, rows repeated so that ties
    straddle the bound, NaN rows and one all-NaN group, 1, 3 and 64 probes,
    ``keep`` 1–20, one block and several."""
    per_keep = postings._CUT_MIN_GROUPS * postings._CUT_GROUP
    rng = np.random.default_rng(7)
    for case in range(18):
        top_k = int(rng.integers(1, 21)) if case % 3 else int(rng.integers(1, 4))
        q = (1, 3, 64)[case % 3]
        n = int(rng.integers(per_keep * top_k - 3, 3 * per_keep * top_k))
        if case % 2:  # exact products in few values: ties everywhere
            rows = rng.integers(-1, 2, size=(n, 4)) * 0.5
            queries = rng.integers(-1, 2, size=(q, 4)) * 0.5
        else:  # repeats of a few hundred rows
            base = rng.standard_normal((int(rng.integers(50, 400)), 8))
            rows = base[rng.integers(0, base.shape[0], size=n)]
            queries = rng.standard_normal((q, 8))
        rows[-1] = queries[0]  # probe 0's own vector, in the last (often short) group
        # NaN beside probe 0's best rows, inside their groups, and elsewhere.
        top = np.argsort(-(rows @ queries[0]), kind="stable")[:top_k]
        beside = np.setdiff1d(top ^ 1, top)
        rows[beside[beside < n - 1]] = np.nan
        rows[rng.integers(0, n - 1, size=5)] = np.nan
        if case % 4 < 2:
            group = int(rng.integers(0, n // postings._CUT_GROUP))
            rows[group * postings._CUT_GROUP : (group + 1) * postings._CUT_GROUP] = np.nan
        ids = rng.permutation(n) + 100
        chunks = (n, n + 7, n // 3 + 1, max(top_k, 1000), top_k)
        assert_scan_follows_the_rule(
            rows.astype(dtype), queries.astype(dtype), ids, top_k, chunks
        )


def test_a_scan_with_fewer_numeric_groups_than_kept_rows_ranks_every_row():
    """Two groups hold a number and three rows are kept: no bound exists,
    and the three numeric rows are the hits."""
    rows = np.full((3000, 4), np.nan)
    rows[[5, 6, 2999]] = [[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0.5, 0.5, 0, 0]]
    queries = np.ones((2, 4))
    assert_scan_follows_the_rule(rows, queries, np.arange(3000), 3, (3000, 2000))
    assert_scan_follows_the_rule(np.full((3000, 4), np.nan), queries, np.arange(3000), 3, (3000,))


def test_a_bulk_flat_search_ranks_a_few_rows_per_probe(monkeypatch):
    """A 64-probe search of 20,000 float32 rows hands each probe's rank at
    most a few hundred rows, and finds what ranking every row finds."""
    rng = np.random.default_rng(51)
    index = FlatIndex(dim=64)
    index.add_batch(rng.standard_normal((20_000, 64)))
    queries = rng.standard_normal((64, 64))
    queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True)).astype(np.float32)
    handed = []
    rank = index._rank

    def spy(unit, top_k, threshold, qi, cand_rows, cand_scores):
        handed.append(cand_scores.shape[0])
        return rank(unit, top_k, threshold, qi, cand_rows, cand_scores)

    monkeypatch.setattr(index, "_rank", spy)
    got = index.search(queries, 5, prenormalized=True)
    assert len(handed) == 64 and max(handed) <= 300
    block = np.vecdot(index._rows[:20_000, None], queries)  # every row's own dot
    want = [topk_hits(index._ids[:20_000], block[:, qi], 5, None) for qi in range(64)]
    assert hit_stream(got) == hit_stream(want)


def near_tie_case(rng, top_k: int, dim: int):
    """Past the cut threshold (``512·top_k`` rows or more): 40 rows a hair
    apart around one row that scores ~0.9 against the probe (their scan
    scores straddle the ``top_k``-th within the rank's band), 5 exact copies
    of it among them, and random rows elsewhere; plus three probes."""
    n = 512 * top_k + int(rng.integers(0, 600))
    rows = rng.standard_normal((n, dim))
    probe = rng.standard_normal(dim)
    base = probe / np.linalg.norm(probe) + 0.5 * rng.standard_normal(dim) / np.sqrt(dim)
    near = rng.choice(n, size=40, replace=False)
    scale = 10.0 ** rng.integers(-8, -4, size=(40, 1))
    rows[near] = base + scale * rng.standard_normal((40, dim))
    rows[near[:5]] = base
    probes = np.stack([probe, rows[near[7]], rng.standard_normal(dim)])
    return rows, probes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_cut_path_ranks_near_ties_as_the_row_local_oracle(dtype):
    """Rows within the rank's band of the ``top_k``-th scan score, exact
    copies among them, rank as the brute force over every row's own dot
    ranks them: one block or several, one probe or three."""
    rng = np.random.default_rng(52)
    for case in range(6):
        top_k = int(rng.integers(1, 4))
        rows, probes = near_tie_case(rng, top_k, (16, 64, 384)[case % 3])
        n = rows.shape[0]
        ids = rng.permutation(n) + 10
        for chunk_size in (65536, n // 3 + 1, 700):
            index = FlatIndex(dtype=dtype, chunk_size=chunk_size)
            index.add_batch(rows, ids=ids)
            for batch in (probes, probes[0]):
                assert_matches_reference(index, batch, top_k)


def test_a_trained_quantized_cut_path_ranks_near_ties_as_the_decode_oracle():
    """The same near ties in a trained ``sq8`` index: its hits equal the
    decode-to-float64 brute force over every row, at any chunk size."""
    rng = np.random.default_rng(53)
    for case in range(6):
        top_k = int(rng.integers(1, 4))
        rows, probes = near_tie_case(rng, top_k, (16, 64, 384)[case % 3])
        n = rows.shape[0]
        for chunk_size in (65536, n // 3 + 1, 700):
            index = QuantizedIndex(chunk_size=chunk_size)
            index.add_batch(rows)
            assert index.is_trained
            want = hit_stream(reference_scan_search(index, probes, top_k))
            assert hit_stream(index.search(probes, top_k)) == want
            assert hit_stream(index.search(probes[0], top_k)) == want[:1]


@pytest.mark.parametrize("chunk_size", [7, 65536])
def test_the_untrained_quantized_staging_scan_ranks_by_the_rule(chunk_size):
    """Below its training size a quantized index scans its float32 staging
    rows exactly: the same hits, bit for bit, as a float32 flat index."""
    ids = np.random.default_rng(5).permutation(41) + 10
    quantized = QuantizedIndex(chunk_size=chunk_size)
    flat = FlatIndex(dtype=np.float32, chunk_size=chunk_size)
    for index in (quantized, flat):
        index.add_batch(np.tile(EXACT_ROW, (41, 1)), ids=ids)
        index.remove(int(ids[20]))
    assert not quantized.is_trained
    rows = quantized._ids[:40].tolist()  # in row order, after the swap-delete
    probes = np.stack([EXACT_ROW, -EXACT_ROW])
    for k in (1, 5, 40, 45):
        got = quantized.search(probes, k)
        assert [h.id for h in got[0]] == sorted(rows[:k])
        assert hit_stream(got) == hit_stream(flat.search(probes, k))


# --------------------------------------------------------------------------- #
# The order does not depend on the host
# --------------------------------------------------------------------------- #
def tie_streams() -> dict:
    """The hit streams of the tie cases, keyed by case, plus whether numpy
    dispatches its AVX-512 (``X86_V4``) kernels in this process."""
    from numpy._core._multiarray_umath import __cpu_features__

    streams: dict = {"x86_v4": bool(__cpu_features__.get("X86_V4"))}
    row = EXACT_ROW
    other = np.random.default_rng(4).standard_normal(16)
    for dtype in (np.float32, np.float64):
        for chunk_size in (65536, 64):  # one block, several
            index = tied_index(300, dtype, chunk_size)
            index.add(other)
            for name, probes in (("one", row), ("batch", np.stack([row, other, -row]))):
                for k in (1, 5, 32):
                    key = f"{np.dtype(dtype).name}/{chunk_size}/{name}/{k}"
                    streams[key] = hit_stream(index.search(probes, k))
    cache = MeanCache(make_tiny_encoder(), MeanCacheConfig(top_k=3, similarity_threshold=0.9))
    text = "change the color to red"
    parents = [f"how do I draw a {shape} in matplotlib" for shape in
               ("circle", "square", "line", "histogram", "heatmap", "violin plot", "pie")]
    ids = [cache.insert(text, f"answer {i}", context=[p]) for i, p in enumerate(parents)]
    cache.remove(ids[2])
    for parent in parents + ["something never cached"]:
        decision = cache.lookup(text, context=[parent])
        streams[f"cache/{parent}"] = [
            decision.hit,
            [(h.id, float(h.score).hex()) for h in decision.candidates],
        ]
    return streams


def test_the_tie_order_is_the_same_with_and_without_avx512_dispatch():
    """The tie cases run in two processes, one with numpy's AVX-512 kernels
    switched off (what an AVX2-only host runs), and return equal hits."""
    tests = Path(__file__).resolve().parent
    path = [str(Path(repro.__file__).resolve().parents[1]), str(tests)]
    script = "import json, test_topk_differential as t; print(json.dumps(t.tie_streams()))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for disable in (None, "X86_V4,AVX512_ICL,AVX512_SPR"):
        if disable:
            env["NPY_DISABLE_CPU_FEATURES"] = disable
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    with_avx512, without = runs
    assert without.pop("x86_v4") is False
    with_avx512.pop("x86_v4")
    assert with_avx512 == without


# --------------------------------------------------------------------------- #
# Duplicated entries in a trained quantized index: one winner at every batch size
# --------------------------------------------------------------------------- #
def tied_tier_winners() -> dict:
    """Default ``QuantizedTier``s (``sq8``, trained at 256 entries) that hold
    eight entries with one embedding and different responses, among 300
    others: per tier, the lowest of the eight ids and the winner of each
    probe row when ``match`` gets 1, 4, 5 or 8 probes of that embedding."""
    from repro.core.tiered import QuantizedTier

    cases = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        tier = QuantizedTier()
        for i in range(300):
            tier.insert(f"question {i}", f"answer {i}", rng.standard_normal(32))
        tied = rng.standard_normal(32)
        ids = [tier.insert("the tied question", f"tied answer {i}", tied) for i in range(8)]
        assert tier.index.is_trained
        winners = {}
        for q in (1, 4, 5, 8):
            found = tier.match(np.tile(tied, (q, 1)), 5, [0.9] * q)
            winners[q] = [entry.entry_id for entry, _ in found]
        cases.append({"lowest": min(ids), "winners": winners})
    return {"cases": cases}


def assert_lowest_id_wins(streams: dict) -> None:
    for case in streams["cases"]:
        for q, winners in case["winners"].items():
            assert winners == [case["lowest"]] * int(q), (q, winners, case["lowest"])


def test_a_tied_quantized_tier_matches_the_lowest_id_at_every_probe_count():
    assert_lowest_id_wins(tied_tier_winners())


def test_a_tied_quantized_tier_matches_the_lowest_id_without_avx512_dispatch():
    """The same tiers in a process with numpy's AVX-512 kernels switched off."""
    tests = Path(__file__).resolve().parent
    path = [str(Path(repro.__file__).resolve().parents[1]), str(tests)]
    script = "import json, test_topk_differential as t; print(json.dumps(t.tied_tier_winners()))"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(path),
        "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR",
    }
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert_lowest_id_wins(json.loads(done.stdout.splitlines()[-1]))


def test_a_tied_sq8_meancache_decides_the_same_one_probe_at_a_time_and_batched():
    """``lookup`` per probe and one ``lookup_batch`` of six probes pick the
    same entries, the lowest of the tied ids among them."""
    tied_text = "change the color to red"
    probes = [tied_text, "how do I sort a list", tied_text, "what is a monad", tied_text,
              "change the colour to red"]

    def build():
        cache = MeanCache(make_tiny_encoder(), MeanCacheConfig(index_backend="sq8"))
        rng = np.random.default_rng(11)
        for i in range(300):
            cache.insert(f"question {i}", f"answer {i}", embedding=rng.standard_normal(64))
        tied, _ = cache.embed(tied_text)
        ids = [cache.insert(tied_text, f"tied answer {i}", embedding=tied) for i in range(8)]
        assert cache.index.is_trained
        return cache, min(ids)

    def decided(decision):
        return (decision.hit, decision.entry_id, decision.response,
                [hit.id for hit in decision.candidates])

    one, lowest = build()
    batched, _ = build()
    singles = [decided(one.lookup(text)) for text in probes]
    assert [decided(d) for d in batched.lookup_batch(probes)] == singles
    assert [entry_id for hit, entry_id, _, _ in singles[::2] if hit] == [lowest] * 3


# --------------------------------------------------------------------------- #
# Copies of one random embedding: exact ties on every backend and kernel set
# --------------------------------------------------------------------------- #
#: registry name -> the storage dtypes it takes (a quantized index has one)
DUPLICATE_BACKENDS = {
    "flat": ("float32", "float64"),
    "ivf": ("float32", "float64"),
    "sq8": (None,),
    "ivf+sq8": (None,),
}


def duplicated_rows_streams() -> dict:
    """Indexes holding 2–13 copies of one random embedding among 2–13 (never
    trained) or 300–340 (trained) random rows, in shuffled row order under
    ascending, gapped ids.  Per index: the copies' ids, whether it trained,
    and per probe count (1–8 probes of the embedding) the ``top_k=1`` winner
    and the ``top_k=copies`` hits of each probe, with score bits."""
    cases = []
    for seed in range(6):
        for name, dtypes in DUPLICATE_BACKENDS.items():
            for dtype in dtypes:
                for large in (False, True):
                    rng = np.random.default_rng([seed, large])
                    dim = (24, 64, 768)[seed % 3]
                    n_copies = int(rng.integers(2, 14))
                    n_others = int(rng.integers(300, 341) if large else rng.integers(2, 14))
                    embedding = rng.standard_normal(dim)
                    rows = np.vstack([rng.standard_normal((n_others, dim)),
                                      np.tile(embedding, (n_copies, 1))])
                    order = rng.permutation(rows.shape[0])
                    ids = np.sort(rng.choice(10 * rows.shape[0], rows.shape[0], replace=False))
                    params = {} if dtype is None else {"dtype": dtype}
                    index = make_index(name, **params)
                    index.add_batch(rows[order], ids=ids)
                    copies = sorted(ids[order >= n_others].tolist())
                    found = {}
                    for q in (1, 2, 5, 8):
                        probes = np.tile(embedding, (q, 1))
                        found[q] = {
                            "top1": [hits[0].id for hits in index.search(probes, 1)],
                            "all": hit_stream(index.search(probes, n_copies)),
                        }
                    cases.append({"case": [seed, name, dtype, large], "copies": copies,
                                  "trained": bool(getattr(index, "is_trained", False)),
                                  "found": found})
    return {"cases": cases}


def assert_copies_tie_and_the_lowest_id_wins(streams: dict) -> None:
    for case in streams["cases"]:
        name, large = case["case"][1], case["case"][3]
        assert case["trained"] == (large and name != "flat"), case["case"]
        lowest = case["copies"][0]
        for q, found in case["found"].items():
            assert found["top1"] == [lowest] * int(q), (case["case"], q, found["top1"])
            for hits in found["all"]:
                assert [id for id, _ in hits] == case["copies"], (case["case"], q)
                assert len({score for _, score in hits}) == 1, (case["case"], q, hits)


def test_copies_of_one_embedding_tie_exactly_and_the_lowest_id_wins():
    """Random (not :data:`EXACT_ROW`) copies score the same bits on every
    backend, trained or not, at any probe count, so the lowest id wins."""
    assert_copies_tie_and_the_lowest_id_wins(duplicated_rows_streams())


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE=Haswell names an x86-64 kernel set",
)
def test_copies_of_one_embedding_tie_exactly_under_the_haswell_kernels():
    """The same indexes in a process running OpenBLAS's Haswell (AVX2-only)
    kernels, whose tails sum a row by its position in other ways."""
    tests = Path(__file__).resolve().parent
    path = [str(Path(repro.__file__).resolve().parents[1]), str(tests)]
    script = (
        "import json, test_topk_differential as t; print(json.dumps(t.duplicated_rows_streams()))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "OPENBLAS_CORETYPE": "Haswell"}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert_copies_tie_and_the_lowest_id_wins(json.loads(done.stdout.splitlines()[-1]))
