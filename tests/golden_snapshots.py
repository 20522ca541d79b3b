"""Golden-snapshot collector: on-disk formats and restored behaviour, pinned.

The storage refactor (one row store under every index backend, one snapshot
envelope under every cache) must not move a byte of any on-disk format nor a
bit of any restored search.  This module builds one small instance of every
persistable thing — the four index backends (trained where trainable, after
a few removes), a :class:`~repro.core.tiered.QuantizedTier` with a
two-record delta log, a ``MeanCache``, a ``MeanCache`` in the GPTCache
baseline's configuration and a ``TieredCache`` — and writes

* ``tests/fixtures/snapshots/<name>/`` — the snapshot directories exactly as
  the generating commit's ``save`` wrote them, and
* ``tests/fixtures/snapshots/expected.json`` — what loading them must
  reproduce: ``(id, score.hex())`` search results, ``mmap_backed`` per load
  mode, ``CacheDecision`` fields, and the SHA-256 of every file a
  load → save cycle writes.

The fixtures are generated by::

    PYTHONPATH=src:tests python -m golden_snapshots

``tests/test_persistence.py`` loads each one eagerly and memory-mapped and
compares exactly.  Regenerate only for a deliberate, documented format
change (the last: quantized index manifests no longer carry ``rescore``,
which the rank's computed band replaced; the four ``sq8``/``ivf+sq8``
manifests — ``index-sq8``, ``index-ivf+sq8``, ``tier/index``,
``tiered/l2/index`` — and their resave digests moved, every decision
stayed) or a value-level re-pin:

* decision level (hit/miss, matched entry, response, victim, tier,
  ``decision_sha256``) is exact and never re-pinned without a ROADMAP line;
* value level (``float.hex()`` scores, on-disk float arrays) may be re-pinned
  by a PR that shows decision-level equality on every fixture and on the four
  bench workloads seed by seed, regenerates with the command above only, and
  lists each changed value with old/new hex and ulp distance (the last, in
  the same commit as the format change: every search's hits are scored one
  dot per row, which moved 86 float32 scores of ``index-flat``,
  ``index-ivf``, ``meancache``, ``gptcache`` and ``tiered`` by 1 to 3 ulp).

``--check`` regenerates into a temporary directory instead and reports every
file that differs from the committed one; tier-1 runs it, so the committed
bytes are always what the tree generates and never "generated at commit X" on
trust.

``legacy-v2/`` and ``legacy-v3/`` are the exception: the ``meancache``,
``gptcache`` and ``tiered/l1`` (as ``tiered-l1``) snapshots exactly as the
last format-v2 build wrote them, the ``meancache`` and ``tiered-l1`` ones as
the last format-v3 build did (entry records with time stamps), and the
``gptcache`` one as the last build with a ``repro-gptcache`` writer did.  No
build can write them again, so the generator leaves both directories alone
and ``--check`` does not compare them; the test loads each (a ``gptcache``
through :func:`repro.baselines.load_gptcache_snapshot`) and requires the
decisions of its current successor.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "snapshots"
EXPECTED_PATH = FIXTURE_DIR / "expected.json"
#: format-v2 and format-v3 snapshots kept as written (see the module docstring)
LEGACY_DIR = FIXTURE_DIR / "legacy-v2"
LEGACY_V3_DIR = FIXTURE_DIR / "legacy-v3"
LEGACY_DIRS = (LEGACY_DIR.name, LEGACY_V3_DIR.name)
#: legacy fixture name -> the current fixture that succeeds it
LEGACY_NAMES = {"meancache": "meancache", "gptcache": "gptcache", "tiered-l1": "tiered/l1"}

DIM = 8
N_ROWS = 300
REMOVED = (3, 77, 150, 299)

#: backend -> constructor params; 300 rows pass the default
#: ``min_train_size`` of 256, so every trainable backend is trained.
INDEX_BACKENDS: Dict[str, Dict[str, object]] = {
    "flat": {},
    "ivf": {"nprobe": 4, "seed": 3},
    "sq8": {"seed": 3},
    "ivf+sq8": {"nprobe": 4, "seed": 3},
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


def tier_vectors() -> np.ndarray:
    """The embeddings the tier fixture enrols (and is probed with)."""
    return np.random.default_rng(21).normal(size=(40, DIM))


def observe_tier(tier) -> Dict[str, object]:
    """Match every enrolled vector against a (restored) QuantizedTier."""
    from repro.core.context import ContextChain

    chain = ContextChain(texts=("earlier turn",), embedding=np.ones(DIM) / np.sqrt(DIM))
    matches = []
    for vector in tier_vectors()[::4]:
        (found,) = tier.match(vector[None], 3, [0.5], [lambda: chain])
        matches.append(
            None if found is None else [found[0].entry_id, float(found[1]).hex()]
        )
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
    )
    cache.populate(CACHE_QUERIES, contexts=CACHE_CONTEXTS)
    cache.lookup_batch(CACHE_QUERIES[:6], contexts=CACHE_CONTEXTS[:6])
    return cache


def build_gptcache():
    """A small central cache in the GPTCache baseline's configuration,
    populated in the two batches the retired baseline's fixture used."""
    from dataclasses import replace

    from conftest import make_tiny_encoder
    from repro.baselines import GPTCACHE_CONFIG
    from repro.core.cache import MeanCache

    cache = MeanCache(
        make_tiny_encoder(), replace(GPTCACHE_CONFIG, similarity_threshold=CACHE_THRESHOLD)
    )
    cache.populate(CACHE_QUERIES[:10])
    cache.populate(CACHE_QUERIES[10:])
    cache.lookup_batch(CACHE_QUERIES[:4])
    return cache


def build_tiered():
    """A TieredCache whose small L1 has demoted most entries into L2."""
    from conftest import make_tiny_encoder
    from repro.core.cache import MeanCacheConfig
    from repro.core.tiered import QuantizedTier, TieredCache

    cache = TieredCache(
        make_tiny_encoder(),
        MeanCacheConfig(max_entries=4, similarity_threshold=CACHE_THRESHOLD),
        l2=QuantizedTier(params={"min_train_size": 8, "seed": 3}),
    )
    for query, context in zip(CACHE_QUERIES, CACHE_CONTEXTS):
        cache.insert(query, f"answer to: {query}", context=context)
    cache.lookup_batch(CACHE_QUERIES[:3], contexts=CACHE_CONTEXTS[:3])
    return cache


def load_fixture(name: str, path: Path, mmap: bool = False):
    """Load the fixture ``name`` from (a copy at) ``path``."""
    from conftest import make_tiny_encoder
    from repro.core.cache import MeanCache
    from repro.core.tiered import QuantizedTier, TieredCache
    from repro.index import load_index

    if name.startswith("index-"):
        return load_index(path, mmap=mmap)
    if name == "tier":
        return QuantizedTier.load(path, mmap=mmap)
    if name in ("meancache", "gptcache"):
        return MeanCache.load(path, make_tiny_encoder())
    return TieredCache.load(path, make_tiny_encoder(), mmap=mmap)


def observe(name: str, loaded) -> Dict[str, object]:
    """Dispatch to the observation matching fixture ``name``."""
    if name.startswith("index-"):
        return observe_index(loaded)
    if name == "tier":
        return observe_tier(loaded)
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
def generate(root: Path = FIXTURE_DIR) -> None:
    """Write every fixture directory and ``expected.json`` under ``root``
    (leaving ``legacy-v2/`` and ``legacy-v3/`` as they are)."""
    root.mkdir(parents=True, exist_ok=True)
    for child in root.iterdir():
        if child.name in LEGACY_DIRS:
            continue
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()
    for backend in INDEX_BACKENDS:
        build_index(backend).save(root / fixture_name(backend))
    build_tier(root / "tier")
    build_meancache().save(root / "meancache")
    build_gptcache().save(root / "gptcache")
    build_tiered().save(root / "tiered")

    expected: Dict[str, object] = {}
    names = [fixture_name(b) for b in INDEX_BACKENDS] + list(CACHE_NAMES)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            record: Dict[str, object] = {}
            for mmap in (False, True) if supports_mmap(name) else (False,):
                work = Path(tmp) / f"{name}-{int(mmap)}"
                shutil.copytree(root / name, work)
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
                assert record["resave"] == tree_hashes(root / name), name
            expected[name] = record
    (root / EXPECTED_PATH.name).write_text(
        json.dumps(expected, indent=1) + "\n", encoding="utf-8"
    )


def check() -> List[str]:
    """Regenerate every fixture into a temporary directory; one report per
    file that is not byte for byte the committed one (empty when none)."""
    reports: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / FIXTURE_DIR.name
        generate(fresh)
        committed = {
            name: digest
            for name, digest in tree_hashes(FIXTURE_DIR).items()
            if name.split("/", 1)[0] not in LEGACY_DIRS
        }
        generated = tree_hashes(fresh)
        for name in sorted(set(committed) | set(generated)):
            if committed.get(name) == generated.get(name):
                continue
            if name not in generated or name not in committed:
                where = "committed" if name in committed else "generated"
                reports.append(f"{name}: only in the {where} tree")
            elif name.endswith((".json", ".jsonl")):
                old = (FIXTURE_DIR / name).read_text(encoding="utf-8").splitlines()
                new = (fresh / name).read_text(encoding="utf-8").splitlines()
                diff = difflib.unified_diff(old, new, "committed", "generated", n=0, lineterm="")
                reports.append(f"{name}:\n" + "\n".join(line[:200] for line in list(diff)[:40]))
            else:
                reports.append(
                    f"{name}: sha256 {committed[name][:12]} committed, "
                    f"{generated[name][:12]} generated"
                )
    return reports


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        differing = check()
        print("\n".join(differing) or f"{FIXTURE_DIR} is what this tree generates")
        sys.exit(1 if differing else 0)
    generate()
    print(f"wrote {EXPECTED_PATH}")
