"""Golden-snapshot collector: on-disk formats and restored behaviour, pinned.

The storage refactor (one row store under every index backend, one snapshot
envelope under every cache) must not move a byte of any on-disk format nor a
bit of any restored search.  This module builds one small instance of every
persistable thing — the seven index backends (trained where trainable, after
a few removes), a :class:`~repro.core.tiered.QuantizedTier` with a
two-record delta log, a ``MeanCache``, a ``GPTCache`` and a ``TieredCache``
— and writes

* ``tests/fixtures/snapshots/<name>/`` — the snapshot directories exactly as
  the generating commit's ``save`` wrote them, and
* ``tests/fixtures/snapshots/expected.json`` — what loading them must
  reproduce: ``(id, score.hex())`` search results, ``mmap_backed`` per load
  mode, ``CacheDecision`` fields, and the SHA-256 of every file a
  load → save cycle writes.

The fixtures were generated at the commit *before* the refactor via::

    PYTHONPATH=src:tests python -m golden_snapshots

``tests/test_persistence.py`` loads each one eagerly and memory-mapped and
compares exactly.  Regenerate only for a deliberate, documented format
change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "snapshots"
EXPECTED_PATH = FIXTURE_DIR / "expected.json"

DIM = 8
N_ROWS = 300
REMOVED = (3, 77, 150, 299)

#: backend -> constructor params; 300 rows pass the default
#: ``min_train_size`` of 256, so every trainable backend is trained.
INDEX_BACKENDS: Dict[str, Dict[str, object]] = {
    "flat": {},
    "ivf": {"nprobe": 4, "seed": 3},
    "lsh": {"n_tables": 4, "n_bits": 5, "multiprobe": 2, "seed": 3},
    "sq8": {"seed": 3},
    "pq": {"m": 4, "ksub": 16, "seed": 3},
    "ivf+sq8": {"nprobe": 4, "seed": 3},
    "ivf+pq": {"m": 4, "ksub": 16, "nprobe": 4, "seed": 3},
}

CACHE_NAMES = ("tier", "meancache", "gptcache", "tiered")


def fixture_name(backend: str) -> str:
    """Directory name of an index backend's fixture."""
    return "index-" + backend


# --------------------------------------------------------------------------- #
# Observations (shared by the generator and the test)
# --------------------------------------------------------------------------- #
def hit_signature(results) -> List[List[List[object]]]:
    """Bit-exact JSON form of a search result set."""
    return [[[int(h.id), float(h.score).hex()] for h in hits] for hits in results]


def tree_hashes(root: Path) -> Dict[str, str]:
    """Relative path -> SHA-256 of every file under ``root``."""
    return {
        str(file.relative_to(root)): hashlib.sha256(file.read_bytes()).hexdigest()
        for file in sorted(Path(root).rglob("*"))
        if file.is_file()
    }


def index_queries() -> np.ndarray:
    """The fixed probe set of the index fixtures."""
    return np.random.default_rng(11).normal(size=(6, DIM))


def observe_index(index) -> Dict[str, object]:
    """Everything a restored index must reproduce."""
    queries = index_queries()
    live = index.ids
    seen: Dict[str, object] = {
        "len": len(index),
        "ids": [int(i) for i in live],
        "nbytes": int(index.nbytes),
        "single": [hit_signature(index.search(q, top_k=5)) for q in queries[:3]],
        "batch": hit_signature(index.search(queries, top_k=4)),
        "get": [[float(x).hex() for x in index.get(i)] for i in (live[0], live[-1])],
    }
    if index.supports_stop_score:
        seen["stop"] = hit_signature(index.search(queries[4], top_k=3, stop_score=0.5))
    return seen


def decision_fields(decisions) -> List[Dict[str, object]]:
    """The ``CacheDecision`` fields a restored cache must reproduce."""
    return [
        {
            "hit": bool(d.hit),
            "response": d.response,
            "matched_query": d.matched_query,
            "top_candidate_query": d.top_candidate_query,
            "entry_id": d.entry_id,
            "similarity": float(d.similarity).hex(),
            "candidates": [[int(h.id), float(h.score).hex()] for h in d.candidates],
            "context_verified": bool(d.context_verified),
        }
        for d in decisions
    ]


_TOPICS = [
    "bake sourdough bread",
    "fix a flat bicycle tire",
    "learn spanish verbs",
    "train for a marathon",
    "grow tomatoes indoors",
    "file quarterly taxes",
    "tune a guitar",
    "brew cold coffee",
    "paint a wooden fence",
    "reset a router password",
    "knit a wool scarf",
    "plan a trip to kyoto",
    "debug a memory leak",
    "adopt a rescue dog",
]
CACHE_QUERIES = [f"how do I {topic}" for topic in _TOPICS]
CACHE_CONTEXTS = [["weekend hobby projects"] if i % 3 == 0 else [] for i in range(14)]
#: exact repeats (one under a mismatching context), rephrasings and a stranger,
#: so the stream mixes hits, τ misses and context-verification misses.
CACHE_PROBES = (
    CACHE_QUERIES[::2]
    + [f"what is the best way to {topic}" for topic in _TOPICS[1:6:2]]
    + ["why is the sky blue today"]
)
CACHE_PROBE_CONTEXTS = (
    [CACHE_CONTEXTS[0], ["tax season paperwork"]]
    + CACHE_CONTEXTS[4::2]
    + [[], ["weekend hobby projects"], ["tax season paperwork"], []]
)
CACHE_THRESHOLD = 0.8


def observe_meancache(cache) -> Dict[str, object]:
    """Probe a (restored) MeanCache / TieredCache with the fixed probe set."""
    decisions = cache.lookup_batch(CACHE_PROBES, contexts=CACHE_PROBE_CONTEXTS)
    return {"len": len(cache), "decisions": decision_fields(decisions)}


def observe_gptcache(cache) -> Dict[str, object]:
    """Probe a (restored) GPTCache with the fixed probe set."""
    return {
        "len": len(cache),
        "users": cache.users(),
        "decisions": decision_fields(cache.lookup_batch(CACHE_PROBES)),
    }


def tier_vectors() -> np.ndarray:
    """The embeddings the tier fixture enrols (and is probed with)."""
    return np.random.default_rng(21).normal(size=(40, DIM))


def observe_tier(tier) -> Dict[str, object]:
    """Match every enrolled vector against a (restored) QuantizedTier."""
    from repro.core.context import ContextChain

    chain = ContextChain(texts=("earlier turn",), embedding=np.ones(DIM) / np.sqrt(DIM))
    matches = []
    for vector in tier_vectors()[::4]:
        found = tier.match(vector, top_k=3, threshold=0.5, probe_context=lambda: chain)
        matches.append(None if found is None else [found[0], float(found[1]).hex()])
    return {
        "len": len(tier),
        "ids": [e.entry_id for e in tier.entries],
        "index_ids": [int(i) for i in tier.index.ids],
        "matches": matches,
    }


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #
def build_index(backend: str):
    """One populated instance of ``backend`` (trained, after a few removes)."""
    from repro.index import make_index

    index = make_index(backend, dim=DIM, **INDEX_BACKENDS[backend])
    vectors = np.random.default_rng(7).normal(size=(N_ROWS, DIM))
    index.add_batch(vectors[:200])
    for row in vectors[200:]:
        index.add(row)
    for victim in REMOVED:
        index.remove(victim)
    index.maintenance()
    return index


class _Ticks:
    """Deterministic clock so entry timestamps do not depend on wall time."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def build_tier(path: Path):
    """A QuantizedTier whose snapshot at ``path`` carries a two-record delta log."""
    from repro.core.context import ContextChain
    from repro.core.tiered import QuantizedTier

    tier = QuantizedTier(
        dim=DIM, backend="sq8", params={"min_train_size": 16, "seed": 3}, snapshot_dir=path
    )
    vectors = tier_vectors()
    chain = ContextChain(texts=("earlier turn",), embedding=np.ones(DIM) / np.sqrt(DIM))

    def enrol(i: int) -> int:
        return tier.insert(
            f"tier query {i}", f"tier answer {i}", vectors[i], chain if i % 4 == 0 else None
        )

    ids = [enrol(i) for i in range(24)]
    tier.flush()  # baseline full snapshot
    ids += [enrol(i) for i in range(24, 32)]
    tier.pop(ids[2])
    tier.flush()  # delta record 1
    ids += [enrol(i) for i in range(32, 40)]
    tier.pop(ids[30])
    tier.flush()  # delta record 2
    return tier


def build_meancache():
    """A small contextual MeanCache with non-trivial stats and policy state."""
    from conftest import make_tiny_encoder
    from repro.core.cache import MeanCache, MeanCacheConfig

    cache = MeanCache(
        make_tiny_encoder(),
        MeanCacheConfig(max_entries=12, similarity_threshold=CACHE_THRESHOLD),
        clock=_Ticks(),
    )
    cache.populate(CACHE_QUERIES, contexts=CACHE_CONTEXTS)
    cache.lookup_batch(CACHE_QUERIES[:6], contexts=CACHE_CONTEXTS[:6])
    return cache


def build_gptcache():
    """A small two-user GPTCache."""
    from conftest import make_tiny_encoder
    from repro.baselines.gptcache import GPTCache, GPTCacheConfig

    cache = GPTCache(
        make_tiny_encoder(), GPTCacheConfig(similarity_threshold=CACHE_THRESHOLD)
    )
    cache.populate(CACHE_QUERIES[:10], user_id="alice")
    cache.populate(CACHE_QUERIES[10:], user_id="bob")
    cache.lookup_batch(CACHE_QUERIES[:4])
    return cache


def build_tiered():
    """A TieredCache whose small L1 has demoted most entries into L2."""
    from conftest import make_tiny_encoder
    from repro.core.cache import MeanCacheConfig
    from repro.core.tiered import TieredCache

    cache = TieredCache(
        make_tiny_encoder(),
        MeanCacheConfig(max_entries=4, similarity_threshold=CACHE_THRESHOLD),
        l2_params={"min_train_size": 8, "seed": 3},
    )
    cache.set_clock(_Ticks())
    for query, context in zip(CACHE_QUERIES, CACHE_CONTEXTS):
        cache.insert(query, f"answer to: {query}", context=context)
    cache.lookup_batch(CACHE_QUERIES[:3], contexts=CACHE_CONTEXTS[:3])
    return cache


def load_fixture(name: str, path: Path, mmap: bool = False):
    """Load the fixture ``name`` from (a copy at) ``path``."""
    from conftest import make_tiny_encoder
    from repro.baselines.gptcache import GPTCache
    from repro.core.cache import MeanCache
    from repro.core.tiered import QuantizedTier, TieredCache
    from repro.index import load_index

    if name.startswith("index-"):
        return load_index(path, mmap=mmap)
    if name == "tier":
        return QuantizedTier.load(path, mmap=mmap)
    if name == "meancache":
        return MeanCache.load(path, make_tiny_encoder())
    if name == "gptcache":
        return GPTCache.load(path, encoder=make_tiny_encoder())
    return TieredCache.load(path, make_tiny_encoder(), mmap=mmap)


def observe(name: str, loaded) -> Dict[str, object]:
    """Dispatch to the observation matching fixture ``name``."""
    if name.startswith("index-"):
        return observe_index(loaded)
    if name == "tier":
        return observe_tier(loaded)
    if name == "gptcache":
        return observe_gptcache(loaded)
    return observe_meancache(loaded)


def storage_index(name: str, loaded):
    """The index whose ``mmap_backed`` flag the fixture pins."""
    if name.startswith("index-"):
        return loaded
    if name == "tiered":
        return loaded.l2.index
    return loaded.index


def supports_mmap(name: str) -> bool:
    """Whether fixture ``name``'s loader takes ``mmap=True``."""
    return name not in ("meancache", "gptcache")


# --------------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------------- #
def generate() -> None:
    """Write every fixture directory and ``expected.json``."""
    if FIXTURE_DIR.exists():
        shutil.rmtree(FIXTURE_DIR)
    FIXTURE_DIR.mkdir(parents=True)
    for backend in INDEX_BACKENDS:
        build_index(backend).save(FIXTURE_DIR / fixture_name(backend))
    build_tier(FIXTURE_DIR / "tier")
    build_meancache().save(FIXTURE_DIR / "meancache")
    build_gptcache().save(FIXTURE_DIR / "gptcache")
    build_tiered().save(FIXTURE_DIR / "tiered")

    expected: Dict[str, object] = {}
    names = [fixture_name(b) for b in INDEX_BACKENDS] + list(CACHE_NAMES)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            record: Dict[str, object] = {}
            for mmap in (False, True) if supports_mmap(name) else (False,):
                work = Path(tmp) / f"{name}-{int(mmap)}"
                shutil.copytree(FIXTURE_DIR / name, work)
                loaded = load_fixture(name, work, mmap=mmap)
                mode = "mmap" if mmap else "eager"
                record[mode + "_mmap_backed"] = bool(storage_index(name, loaded).mmap_backed)
                resaved = Path(tmp) / f"{name}-{int(mmap)}-resaved"
                loaded.save(resaved)
                hashes = tree_hashes(resaved)
                assert record.setdefault("resave", hashes) == hashes, name
                seen = observe(name, loaded)
                assert record.setdefault("observed", seen) == seen, name
            if name != "tier":
                # No delta log to fold: a load -> save cycle is the identity.
                assert record["resave"] == tree_hashes(FIXTURE_DIR / name), name
            expected[name] = record
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    generate()
    print(f"wrote {EXPECTED_PATH}")
