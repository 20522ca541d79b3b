import inspect

import pytest

from mcbench.tracing import (
    Recorder,
    Span,
    Tracer,
    aggregate,
    attribute_flush_encodes,
    in_window,
    per_request_seconds,
    self_times,
    top_level_busy,
)


def hand_built_tree():
    """root [0,10) > a [1,4) > a1 [2,3);  root > b [5,9);  lone [20,21)."""
    root = Span("root", 0.0, 10.0, requests=(1, 2))
    a = Span("stage", 1.0, 4.0, parent=root, count=3)
    a1 = Span("leaf", 2.0, 3.0, parent=a)
    b = Span("stage", 5.0, 9.0, parent=root, count=5)
    lone = Span("lone", 20.0, 21.0, requests=(3,))
    return root, a, a1, b, lone


def test_self_time_is_duration_minus_child_cover():
    root, a, a1, b, lone = spans = hand_built_tree()
    own = self_times(spans)
    assert own[id(root)] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[id(a)] == pytest.approx(3.0 - 1.0)
    assert own[id(a1)] == pytest.approx(1.0)
    assert own[id(b)] == pytest.approx(4.0)
    assert own[id(lone)] == pytest.approx(1.0)
    # self times of a tree add up to its root's duration
    assert sum(own[id(s)] for s in (root, a, a1, b)) == pytest.approx(root.duration)


def test_overlapping_children_are_not_subtracted_twice():
    root = Span("root", 0.0, 10.0)
    first = Span("x", 1.0, 6.0, parent=root)
    second = Span("x", 4.0, 8.0, parent=root)
    assert self_times([root, first, second])[id(root)] == pytest.approx(10.0 - 7.0)


def test_aggregate_and_top_level():
    spans = hand_built_tree()
    rows = aggregate(spans)
    assert rows["stage"] == {
        "calls": 2,
        "count": 8,
        "extra": 0,
        "busy_s": pytest.approx(7.0),
        "self_s": pytest.approx(6.0),
    }
    assert top_level_busy(spans) == pytest.approx(11.0)
    assert [s.name for s in in_window(spans, 0.0, 10.0)] == ["root", "stage", "leaf", "stage"]
    assert per_request_seconds(spans) == {1: 5.0, 2: 5.0, 3: 1.0}


def test_flush_encode_gets_the_ids_of_its_flush():
    encode_1 = Span("embeddings.encode", 0.0, 1.0, thread=7)
    execute_1a = Span("serving.execute", 1.0, 2.0, thread=7, requests=(10, 11))
    execute_1b = Span("serving.execute", 2.0, 3.0, thread=7, requests=(12,))
    encode_2 = Span("embeddings.encode", 4.0, 5.0, thread=7)
    execute_2 = Span("serving.execute", 5.0, 6.0, thread=7, requests=(13,))
    attribute_flush_encodes([execute_2, encode_2, execute_1b, execute_1a, encode_1])
    assert encode_1.requests == (10, 11, 12)
    assert encode_2.requests == (13,)


def test_recorder_nests_spans_per_thread():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.tag((42,))
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    assert inner.parent is outer and outer.parent is None
    assert outer.requests == (42,) and inner.requests == ()
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)


def test_wrappers_preserve_what_the_library_sniffs():
    """CacheAdapter and BatchExecutor read inspect.signature(...) to decide
    whether to pass contexts / embeddings / now; a wrapper that hid the real
    parameters would silently turn those paths off."""
    from repro.core.cache import MeanCache, MeanCacheConfig
    from repro.core.tiered import TieredCache
    from repro.embeddings.zoo import load_encoder
    from repro.index.flat import FlatIndex
    from repro.llm.service import SimulatedLLMService
    from repro.serving.scheduling import BatchExecutor, CacheAdapter

    encoder = load_encoder("albert-sim", pretrained=False)
    original_lookup = MeanCache.__dict__["lookup_batch"]
    assert "maintenance" not in FlatIndex.__dict__  # inherited: uninstall must delete
    tracer = Tracer(Recorder())
    tracer.install()
    try:
        assert MeanCache.__dict__["lookup_batch"] is not original_lookup
        for cache in (
            MeanCache(encoder, MeanCacheConfig()),
            TieredCache(encoder, MeanCacheConfig()),
        ):
            adapter = CacheAdapter(cache)
            assert adapter._accepts_embeddings and adapter._accepts_contexts
        service = SimulatedLLMService()
        assert "now" in inspect.signature(service.query).parameters
        executor = BatchExecutor(lambda user_id: MeanCache(encoder), service)
        assert executor._service_accepts_now
    finally:
        tracer.uninstall()
    assert MeanCache.__dict__["lookup_batch"] is original_lookup
    assert "maintenance" not in FlatIndex.__dict__


def test_traced_calls_record_spans_with_counts():
    from repro.core.cache import MeanCache, MeanCacheConfig
    from repro.embeddings.zoo import load_encoder

    encoder = load_encoder("albert-sim", pretrained=False)
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        cache = MeanCache(encoder, MeanCacheConfig())
        cache.insert("how do I bake bread", "like this")
        cache.lookup_batch(["how do I bake bread", "what is a monad"])
    finally:
        tracer.uninstall()
    rows = aggregate(recorder.spans)
    assert rows["core.cache.lookup"]["count"] == 2
    assert rows["embeddings.encode"]["count"] == 3
    # "how do I bake bread" was encoded twice: once to insert, once to probe
    assert rows["embeddings.encode"]["extra"] == 1
    assert rows["embeddings.tokenize"]["calls"] == 3
    assert rows["index.search"]["count"] == 2 and rows["index.search"]["extra"] == 2
    lookup = next(s for s in recorder.spans if s.name == "core.cache.lookup")
    search = next(s for s in recorder.spans if s.name == "index.search")
    assert search.parent is lookup
