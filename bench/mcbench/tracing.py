"""Outside-in stage tracing: spans recorded by wrappers around public entry points.

Nothing in ``src/repro`` knows about this module.  :class:`Tracer` swaps the
public methods named in :func:`Tracer.install` for signature-preserving
wrappers that record one :class:`Span` per call into a :class:`Recorder`, and
puts the originals back in :func:`Tracer.uninstall`.  The wrappers use
``functools.wraps`` so ``inspect.signature`` still sees the real parameters:
``CacheAdapter`` and ``BatchExecutor`` sniff ``contexts``/``embeddings``/``now``
that way, and a bare ``*args, **kwargs`` wrapper silently switches off
cross-user flush encoding and context passing.

Install **before** the caches, clients and server of a repeat are built:
``MeanCache`` binds ``self.insert`` into its enrol stage at construction, so a
cache built earlier keeps calling the unwrapped method.

The span-tree arithmetic (:func:`self_times`, :func:`aggregate`,
:func:`top_level_busy`) is pure and works on any list of spans, which is how
``bench/tests`` checks it on a hand-built tree.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed call: ``[start, end)`` on ``thread``, caused by ``parent``."""

    __slots__ = ("name", "start", "end", "parent", "thread", "count", "extra", "requests")

    def __init__(
        self,
        name: str,
        start: float,
        end: float = 0.0,
        parent: "Optional[Span]" = None,
        thread: int = 0,
        count: float = 0,
        extra: float = 0,
        requests: Tuple[int, ...] = (),
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        #: work done by the call (texts, probes, queries, events, bytes ...)
        self.count = count
        #: a second per-call number (rows scanned, repeated texts ...)
        self.extra = extra
        #: ids of the requests this span served; set on top-level spans only,
        #: children inherit through ``parent``
        self.requests = requests

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        #: exact strings the encoder has seen since :meth:`reset`
        self.seen_texts: set = set()
        #: user id -> id of that user's one outstanding request (server loops)
        self.inflight: Dict[str, int] = {}

    def reset(self) -> None:
        self.spans = []
        self.seen_texts = set()
        self.inflight = {}

    def tag(self, requests: Tuple[int, ...]) -> None:
        """Request ids given to top-level spans opened next on this thread."""
        self._local.requests = requests

    def begin(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span = Span(
            name,
            self.clock(),
            parent=parent,
            thread=threading.get_ident(),
            requests=() if parent is not None else getattr(self._local, "requests", ()),
        )
        stack.append(span)
        return span

    def current(self) -> Span:
        """The innermost span open on this thread."""
        return self._local.stack[-1]

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._local.stack.pop()
        # list.append is atomic under the GIL; order across threads is by end
        # time and nothing below depends on it.
        self.spans.append(span)


# --------------------------------------------------------------------------- #
# Span-tree arithmetic
# --------------------------------------------------------------------------- #
def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span)`` -> its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return {
        id(span): span.duration
        - _covered(span.start, span.end, children.get(id(span), ()))
        for span in spans
    }


def in_window(spans: Sequence[Span], start: float, end: float) -> List[Span]:
    """Spans lying wholly inside the timed window."""
    return [s for s in spans if s.start >= start and s.end <= end]


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``count``, ``extra``, ``busy_s``, ``self_s``."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(
            span.name, {"calls": 0, "count": 0, "extra": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["count"] += span.count
        row["extra"] += span.extra
        row["busy_s"] += span.duration
        row["self_s"] += own[id(span)]
    return totals


def top_level_busy(spans: Sequence[Span]) -> float:
    """Seconds covered by spans that no other span caused."""
    return sum(s.duration for s in spans if s.parent is None)


def attribute_flush_encodes(spans: Sequence[Span]) -> None:
    """Give each top-level flush encode the request ids of its flush.

    Behind the server the flush-wide ``embeddings.encode`` call sees only
    texts, so its span starts without ids; the ``serving.execute`` spans that
    follow on the same thread, up to the next top-level encode, are the same
    flush and carry the ids of the requests it served.
    """
    by_thread: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is None:
            by_thread.setdefault(span.thread, []).append(span)
    for tops in by_thread.values():
        tops.sort(key=lambda s: s.start)
        pending: Optional[Span] = None
        ids: List[int] = []
        for span in tops:
            if span.name == "embeddings.encode" and not span.requests:
                if pending is not None:
                    pending.requests = tuple(ids)
                pending, ids = span, []
            elif pending is not None and span.name == "serving.execute":
                ids.extend(span.requests)
        if pending is not None:
            pending.requests = tuple(ids)


def per_request_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Request id -> traced seconds, each top-level span split evenly among
    the requests it served."""
    share: Dict[int, float] = {}
    for span in spans:
        if span.parent is None and span.requests:
            part = span.duration / len(span.requests)
            for request in span.requests:
                share[request] = share.get(request, 0.0) + part
    return share


def write_spans(spans: Sequence[Span], path: Path) -> None:
    """One JSON line per span: name, start, end, parent index, thread, ids."""
    index = {id(span): i for i, span in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(
                json.dumps(
                    {
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": index.get(id(span.parent)) if span.parent else None,
                        "thread": span.thread,
                        "count": span.count,
                        "requests": list(span.requests),
                    }
                )
                + "\n"
            )


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #
def traced(
    recorder: Recorder,
    name: str,
    fn: Callable,
    count: Optional[Callable[..., Tuple[float, float]]] = None,
    when: Optional[Callable[..., bool]] = None,
) -> Callable:
    """Wrap ``fn`` so each call records one span, keeping its signature.

    ``count(*args, **kwargs)`` returns the span's ``(count, extra)``;
    ``when(*args, **kwargs)`` false lets the call through unrecorded.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args, **kwargs):
            return fn(*args, **kwargs)
        span = recorder.begin(name)
        if count is not None:
            span.count, span.extra = count(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


def _n(items) -> int:
    return 1 if isinstance(items, str) else len(items)


def tree_bytes(path: "str | os.PathLike") -> int:
    """Total size of the regular files under ``path`` (0 when absent)."""
    total = 0
    stack = [os.fspath(path)]
    while stack:
        try:
            with os.scandir(stack.pop()) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        stack.append(entry.path)
                    elif entry.is_file(follow_symlinks=False):
                        total += entry.stat(follow_symlinks=False).st_size
        except FileNotFoundError:
            continue
    return total


class Tracer:
    """Installs and removes the wrappers on the library's public methods."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[type, str, object, bool]] = []

    def wrap(self, owner: type, attr: str, name: str, count=None, when=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (classmethods too)."""
        own = attr in owner.__dict__
        raw = owner.__dict__[attr] if own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(
                traced(self.recorder, name, raw.__func__, count, when)
            )
        else:
            wrapped = traced(self.recorder, name, raw, count, when)
        self._undo.append((owner, attr, raw, own))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, own in reversed(self._undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._undo = []

    def install(self) -> None:
        """Wrap every public entry point the per-layer metrics are built from."""
        from repro.core.cache import MeanCache
        from repro.core.client import MeanCacheClient
        from repro.core.context import ContextChain
        from repro.core.tiered import QuantizedTier
        from repro.embeddings.featurizer import HashedFeaturizer
        from repro.embeddings.model import SiameseEncoder
        from repro.embeddings.pca import PCA
        from repro.embeddings.tokenizer import Tokenizer
        from repro.index.flat import FlatIndex
        from repro.index.quantized import QuantizedIndex
        from repro.llm.service import SimulatedLLMService
        from repro.serving.scheduling import BatchExecutor

        rec = self.recorder

        def encode_count(self, texts, compress=True):
            batch = [texts] if isinstance(texts, str) else list(texts)
            seen = rec.seen_texts
            repeats = sum(1 for t in batch if t in seen)
            seen.update(batch)
            return len(batch), repeats

        self.wrap(SiameseEncoder, "encode", "embeddings.encode", encode_count)
        self.wrap(SiameseEncoder, "forward", "embeddings.forward")
        self.wrap(
            HashedFeaturizer,
            "transform_batch",
            "embeddings.featurize",
            lambda self, texts: (_n(texts), 0),
        )
        self.wrap(Tokenizer, "tokenize", "embeddings.tokenize")
        self.wrap(PCA, "transform", "embeddings.pca")
        self.wrap(
            ContextChain,
            "from_texts",
            "core.context.embed",
            lambda cls, texts, encoder=None: (sum(1 for t in texts if t), 0),
            when=lambda cls, texts, encoder=None: encoder is not None and any(texts),
        )
        self.wrap(
            MeanCache, "lookup", "core.cache.lookup", lambda self, query, context=(): (1, 0)
        )
        self.wrap(
            MeanCache,
            "lookup_batch",
            "core.cache.lookup",
            lambda self, queries, contexts=None, embeddings=None: (len(queries), 0),
        )
        self.wrap(MeanCache, "insert", "core.cache.insert")
        self.wrap(
            MeanCacheClient,
            "query",
            "core.client.query",
            lambda self, text, *a, **k: (1, 0),
        )
        self.wrap(
            MeanCacheClient,
            "query_many",
            "core.client.query",
            lambda self, texts, *a, **k: (len(texts), 0),
        )
        for index_cls in (FlatIndex, QuantizedIndex):
            self.wrap(
                index_cls,
                "search",
                "index.search",
                # count = query rows, extra = rows the scan could visit
                lambda self, queries, *a, **k: (
                    1 if getattr(queries, "ndim", 2) == 1 else len(queries),
                    (1 if getattr(queries, "ndim", 2) == 1 else len(queries)) * len(self),
                ),
            )
            self.wrap(index_cls, "add", "index.add", lambda self, *a, **k: (1, 0))
            self.wrap(
                index_cls,
                "add_batch",
                "index.add",
                lambda self, vectors, *a, **k: (len(vectors), 0),
            )
            self.wrap(index_cls, "remove", "index.remove")
            self.wrap(index_cls, "maintenance", "index.maintenance")
        self.wrap(QuantizedTier, "match", "core.tiered.l2_match")
        self.wrap(QuantizedTier, "pop", "core.tiered.promote")
        self.wrap(QuantizedTier, "insert", "core.tiered.demote")
        self._wrap_snapshot_writer(QuantizedTier, "flush", "index.snapshot.flush", delta=True)
        self._wrap_snapshot_writer(QuantizedTier, "save", "index.snapshot.compact", delta=False)
        self.wrap(QuantizedTier, "load", "index.snapshot.load")
        self.wrap(SimulatedLLMService, "query", "llm.query")

        def execute_count(self, events, embeddings=None):
            ids = tuple(
                rec.inflight[e.user_id] for e in events if e.user_id in rec.inflight
            )
            # execute is top-level on the server's worker thread, which no
            # harness code tags: give the span just opened its ids here.
            rec.current().requests = ids
            return len(events), 0

        self.wrap(BatchExecutor, "execute", "serving.execute", execute_count)
        self.wrap(BatchExecutor, "maintenance", "serving.maintenance")

    def _wrap_snapshot_writer(self, owner: type, attr: str, name: str, delta: bool) -> None:
        """Trace a snapshot write; the span's count is the bytes it left on disk.

        The directory is sized outside the span, so the walk does not count as
        snapshot time.  A delta append is the growth of the directory; a full
        save replaces the directory, so all of it was written.
        """
        fn = owner.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            target = args[0] if args else kwargs.get("path", self.snapshot_dir)
            before = tree_bytes(target) if delta and target is not None else 0
            span = recorder.begin(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                recorder.end(span)
                if target is not None:
                    span.count = max(0, tree_bytes(target) - before)

        self._undo.append((owner, attr, fn, True))
        setattr(owner, attr, wrapper)
