"""Differential search-stream collector: every index composition, pinned bit for bit.

A refactor of the index layer (who owns a scan, which class a registry name
builds) must not move one bit of one score.  This module drives every
registered backend — plus the deferred-repartition, float64 and
multi-chunk variants — through one fixed add / add_batch /
remove / id-reuse / repartition / maintenance / save+load / rebuild / clear
script and records, at each checkpoint, what a caller can observe:

* ``(id, score.hex())`` transcripts of single, 2-, 4-, 5- and 64-query
  searches, with ``score_threshold``, and ``prenormalized`` in both float
  widths; each batched one also as an ids-only ``*_ids`` digest, so a
  re-pin can tell a change of which entries a search returns from a change
  of score bits alone;
* ``scan_stats`` after those searches and every ``*_nbytes`` figure;
* ``get`` reconstructions and whatever ``maintenance()`` reported.

Single-query transcripts are stored in full (a mismatch is then readable);
the bulky ones as 64-bit SHA-256 prefixes of their JSON form.

``tests/fixtures/index_streams.json`` was generated at the commit *before*
the refactor it guards via::

    PYTHONPATH=src:tests python -m index_streams

``tests/test_index_streams.py`` replays the script and compares exactly.
Regenerate only for a deliberate, documented change of search arithmetic
or of what the script observes, first at the old code when the script
changes (the last: every search's hits are scored one dot per row and the
``rescore=1`` compositions went with the knob; score bits of every
composition moved, by at most 3 float32 ulp or 3 float64 ulp in the
readable transcripts, and every surviving ``*_ids`` digest held).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "index_streams.json"

DIM = 24
_ROUTED = {"min_train_size": 32, "nprobe": 4, "seed": 5}

#: name -> (registry backend, constructor params).  ``chunk_size=48`` makes
#: the unrouted quantized scans multi-chunk at the script's sizes.
COMPOSITIONS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "flat": ("flat", {}),
    "flat-f64": ("flat", {"dtype": "float64"}),
    "ivf": ("ivf", dict(_ROUTED)),
    "ivf-f64": ("ivf", {**_ROUTED, "dtype": "float64"}),
    "ivf-deferred": ("ivf", {**_ROUTED, "auto_repartition": False}),
    "sq8": ("sq8", {"min_train_size": 32, "seed": 5}),
    "sq8-chunked": ("sq8", {"min_train_size": 32, "seed": 5, "chunk_size": 48}),
    "ivf+sq8": ("ivf+sq8", dict(_ROUTED)),
    "ivf+sq8-deferred": ("ivf+sq8", {**_ROUTED, "auto_repartition": False}),
}

_NBYTES = ("nbytes", "allocated_nbytes", "codec_nbytes", "routing_nbytes", "scan_nbytes")


def hit_signature(results) -> List[str]:
    """Bit-exact JSON form of a search result set: one ``id:score.hex()`` line per query."""
    return [" ".join(f"{int(h.id)}:{float(h.score).hex()}" for h in hits) for hits in results]


def _sha(value: object) -> str:
    blob = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _digest(results) -> str:
    return _sha(hit_signature(results))


def _digest_ids(results) -> str:
    """Ids-only digest: which entries a search returns, in rank order, without score bits."""
    return _sha([[int(h.id) for h in hits] for hits in results])


def _record(seen: Dict[str, object], key: str, results) -> None:
    """Pin a batched result at both levels: ``key`` (score bits) and ``key_ids``."""
    seen[key] = _digest(results)
    seen[key + "_ids"] = _digest_ids(results)


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def observe(index, queries: np.ndarray, stored: np.ndarray) -> Dict[str, object]:
    """Everything one checkpoint pins; ``stored`` is a live row (scores ~1)."""
    seen: Dict[str, object] = {
        "len": len(index),
        "ids": _sha(index.ids),
        "single": [hit_signature(index.search(q, top_k=5))[0] for q in queries[:3]],
        "single_top1": hit_signature(index.search(stored, top_k=1)),
        "threshold": hit_signature(index.search(queries[3], top_k=5, score_threshold=0.3)),
    }
    for size in (2, 4, 5, 64):
        _record(seen, f"batch{size}", index.search(queries[:size], top_k=5))
    _record(
        seen, "batch5_top2_threshold", index.search(queries[:5], top_k=2, score_threshold=0.2)
    )
    unit = _unit(queries[:6])
    _record(seen, "prenormalized_f64", index.search(unit, top_k=4, prenormalized=True))
    unit32 = np.ascontiguousarray(unit, dtype=np.float32)
    _record(seen, "prenormalized_f32", index.search(unit32, top_k=4, prenormalized=True))
    seen["prenormalized_single"] = hit_signature(
        index.search(unit32[0], top_k=3, prenormalized=True)
    )
    if hasattr(index, "scan_stats"):
        seen["scan_stats"] = dict(index.scan_stats)
    for name in _NBYTES:
        if hasattr(index, name):
            seen[name] = int(getattr(index, name))
    live = index.ids
    seen["get"] = _sha([[float(x).hex() for x in index.get(i)] for i in (live[0], live[-1])])
    return seen


def run_composition(name: str) -> Dict[str, object]:
    """Drive one composition through the script; checkpoint label -> observation."""
    from repro.index import load_index, make_index

    backend, params = COMPOSITIONS[name]
    index = make_index(backend, dim=DIM, **params)
    rng = np.random.default_rng(2024)
    vectors = rng.normal(size=(400, DIM))
    queries = rng.normal(size=(64, DIM))
    out: Dict[str, object] = {}

    for row in vectors[:20]:  # below every min_train_size: staging / exact phase
        index.add(row)
    out["staging"] = observe(index, queries, vectors[7])

    index.add_batch(vectors[20:90])  # crosses the training threshold in one batch
    out["trained"] = observe(index, queries, vectors[40])

    victims = list(range(0, 90, 5))
    for victim in victims:
        index.remove(victim)
    for victim in victims[:6]:  # id reuse: fresh vectors under retired ids
        index.add(vectors[300 + victim], id=victim)
    out["churned"] = observe(index, queries, vectors[41])

    index.add_batch(vectors[90:200])  # growth past repartition_growth x trained size
    for row in vectors[200:230]:
        index.add(row)
    out["grown"] = observe(index, queries, vectors[150])

    out["maintenance"] = {k: v for k, v in sorted(index.maintenance().items())}
    out["maintained"] = observe(index, queries, vectors[150])
    index.remove(151)
    index.add(vectors[231])
    out["maintenance_again"] = {k: v for k, v in sorted(index.maintenance().items())}
    out["remaintained"] = observe(index, queries, vectors[150])

    with tempfile.TemporaryDirectory() as tmp:
        path = index.save(Path(tmp) / "snap")
        for mmap in (False, True):
            loaded = load_index(path, mmap=mmap)
            label = "loaded_mmap" if mmap else "loaded"
            # Whole observations as one digest each: they repeat "remaintained".
            out[label] = _sha(observe(loaded, queries, vectors[150]))
            loaded.add(vectors[232])  # materializes an adopted mapping
            loaded.remove(152)
            out[label + "_mutated"] = _sha(observe(loaded, queries, vectors[150]))

    keep = list(range(100, 190, 2))
    index.rebuild(vectors[keep], ids=keep)
    out["rebuilt"] = observe(index, queries, vectors[120])

    index.clear(reset_ids=False)
    index.add_batch(vectors[240:280])
    out["cleared_refilled"] = observe(index, queries, vectors[250])
    out["next_id"] = int(index.add(vectors[281]))
    return out


def generate() -> None:
    """Write ``index_streams.json`` from the working tree's ``repro.index``."""
    streams = {name: run_composition(name) for name in COMPOSITIONS}
    FIXTURE_PATH.write_text(json.dumps(streams, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    generate()
    print(f"wrote {FIXTURE_PATH}")
