"""Versioned, crash-safe snapshot persistence for indexes (and caches).

A snapshot is a directory holding:

* ``manifest.json`` — a versioned JSON document carrying the format tag, the
  backend's registry name, the constructor parameters needed to rebuild an
  empty instance, the small scalar state (next id, training counters, RNG
  state) and the names of the arrays the snapshot must contain;
* ``arrays/<name>.npy`` — every numpy array of the live state (the storage
  matrix or code matrix, norms, ids, centroids, …) as a raw ``.npy`` file, so
  :func:`load_index` can memory-map them (``mmap=True``) without copying;
* optionally ``deltas.jsonl`` — an append-only delta log of mutations applied
  since the full snapshot, one self-contained JSON line per record
  (:func:`append_delta`), folded back in by :func:`compact_snapshot` or
  replaced whole by one record of the same changes
  (:func:`replace_delta_log`, a shared tier's minor fold).

Crash-safety contract
---------------------
Every full snapshot write stages the complete directory inside a ``tmp-``
sibling, fsyncs it, and publishes it with ``os.replace``
(:func:`atomic_snapshot_dir`). The manifest is written *last* inside the
stage, so a torn stage (crash mid-write) never contains a complete
manifest+arrays pair and is rejected by :func:`read_manifest` /
:func:`read_arrays`; the previous generation at the target path survives
byte-for-byte, moved back by the next load or publish if a crash caught it
moved aside. Publishing replaces the *whole* directory, so files a smaller
new generation does not write (stale deltas, larger prior arrays) cannot
leak into it. A delta append — one record, or a group of them — is one
write and one fsync of ``deltas.jsonl`` and touches no other file: a crash
leaves a prefix of its records whole, then nothing or a torn trailing
line, which readers ignore and the next appender cuts off.  Replacing the
log writes a temp file beside it and renames it over the log: a crash
leaves the old log or the new one, and at worst a torn temp file no reader
opens.

Loading validates the manifest *before* touching any array: a missing file,
undecodable JSON, a foreign ``format`` tag or an unsupported ``version``
raise :class:`SnapshotError` with a message naming the offending field, so a
corrupted or future-format checkpoint is rejected instead of half-restored.

Cache snapshot envelope
-----------------------
``MeanCache`` and ``QuantizedTier`` snapshots (and the legacy
``repro-gptcache`` ones :func:`repro.baselines.load_gptcache_snapshot`
reads) are one envelope around an index snapshot, written by :func:`save_cache_snapshot` and read by
:func:`load_cache_snapshot`: ``entries.json`` (per-entry texts and
metadata), ``arrays/`` (per-entry embeddings at the index's native float
dtype — :func:`native_float_dtype`), the vector index's own snapshot nested
under ``index/``, and the cache's ``manifest.json`` (its own format tag)
written last — all staged and published as one directory, so one recursive
copy is a complete warm-start image.  Composite saves (``TieredCache``, the
fleet checkpoint) only nest such envelopes under one more atomic stage.
"""

from __future__ import annotations

import base64
import json
import os
import re
import shutil
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

INDEX_FORMAT = "repro-index"
#: Version 2 stores per-array raw ``.npy`` files (mmap-able).
INDEX_VERSION = 2

MANIFEST_NAME = "manifest.json"
ARRAYS_DIR = "arrays"  # one raw .npy per array
ENTRIES_NAME = "entries.json"  # cache envelopes: per-entry texts + metadata
INDEX_DIR = "index"  # cache envelopes: the nested index snapshot
DELTAS_NAME = "deltas.jsonl"

_ARRAY_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.+-]*$")

#: Constructor params older manifests carry for knobs that no longer exist:
#: ``scan_threads`` went with the thread-pool probe scan (always 1 — nothing
#: ever set it), ``fused_scan`` with the decode-to-float64 reference scan
#: (now ``tests/reference_scan.py``), the probe-pruning flag with threshold
#: early stop (the routed scan now always reads every probed cell), ``rescore``
#: with the rank's computed band.  Dropped on load; any other unknown key is
#: still rejected by the backend constructor.
_RETIRED_PARAMS = ("scan_threads", "fused_scan", "prune_probes", "rescore")

#: Backends that no longer exist, each with the registered name that
#: replaces it (each lost to its replacement on recall at no fewer bytes per
#: entry; ``docs/benchmarks.md``).  A snapshot of one is refused with a
#: message naming the replacement.
_RETIRED_BACKENDS = {"lsh": "ivf", "pq": "sq8", "ivf+pq": "ivf+sq8"}


class SnapshotError(ValueError):
    """A snapshot is missing, corrupted, foreign or version-incompatible."""


# --------------------------------------------------------------------------- #
# Durability helpers
# --------------------------------------------------------------------------- #
def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    # Windows cannot open directories for fsync; directory-entry durability
    # is a POSIX concept anyway, so silently skip there.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(root: Path) -> None:
    """fsync every file and directory under ``root`` (bottom-up)."""
    for dirpath, _dirnames, filenames in os.walk(root, topdown=False):
        for name in filenames:
            _fsync_file(Path(dirpath) / name)
        _fsync_dir(Path(dirpath))


def _work_root(target: Path) -> Path:
    """Where publishes at ``target`` stage: ``tmp-<name>`` beside it, one
    work directory per publish inside (more than one only after a crash),
    so finding what an interrupted publish left reads this directory, not
    the parent."""
    return target.parent / f"tmp-{target.name}"


def _recover_previous(target: Path) -> None:
    """Put back the generation a publish moved aside, when a hard crash
    stopped it before the new one took ``target``'s place (in-process
    failures roll back themselves)."""
    if target.exists():
        return
    for previous in _work_root(target).glob("*/previous"):
        if (previous / MANIFEST_NAME).is_file():
            os.replace(previous, target)
            _fsync_dir(target.parent)
            return


@contextmanager
def atomic_snapshot_dir(path: "str | Path") -> Iterator[Path]:
    """Stage a snapshot directory and atomically publish it at ``path``.

    Yields a fresh stage inside the ``tmp-<name>`` sibling to write into.
    On clean exit the stage is fsynced and renamed over ``path`` (the
    previous generation, if any, is moved into the stage's work directory
    first), so readers only ever observe a complete old or a complete new
    snapshot — never a mix. On an exception the target is left as it was:
    one raised between the two renames moves the previous generation back.
    A hard crash between them leaves ``path`` missing and the previous
    generation in the work directory; the next load of ``path``
    (:func:`read_manifest`) or publish at it moves that back first.  Every
    publish ends by removing ``tmp-<name>``, with whatever an interrupted
    publish left there — so one publisher writes a path at a time, and a
    name starting ``tmp-`` is not a snapshot path.
    """
    target = Path(path)
    root = _work_root(target)
    root.mkdir(parents=True, exist_ok=True)
    _recover_previous(target)
    work = Path(tempfile.mkdtemp(dir=root))
    stage, previous = work / "stage", work / "previous"
    try:
        stage.mkdir()
        yield stage
        _fsync_tree(stage)
        if target.exists():
            os.replace(target, previous)
        try:
            os.replace(stage, target)
        except BaseException:
            if previous.exists():
                os.replace(previous, target)
            raise
        _fsync_dir(target.parent)
    finally:
        # A failed move back leaves the only complete generation here: put
        # it back (or raise) before anything is removed.
        _recover_previous(target)
        shutil.rmtree(root, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Manifest + array payload
# --------------------------------------------------------------------------- #
def write_manifest(path: Path, manifest: Mapping[str, object]) -> None:
    """Serialize ``manifest`` as the snapshot directory's manifest.json.

    Callers write the manifest *last* (after every array): under the atomic
    staging of :func:`atomic_snapshot_dir` its presence marks a complete
    stage, so a torn ``tmp-`` directory is never loadable.
    """
    path.mkdir(parents=True, exist_ok=True)
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8"
    )


def read_manifest(
    path: Path, expected_format: str, max_version: int
) -> Dict[str, object]:
    """Read and validate a snapshot manifest; raises :class:`SnapshotError`.

    Checks, in order: the directory and manifest exist, the JSON decodes to
    an object, the ``format`` tag matches ``expected_format``, and the
    ``version`` is an integer in ``[1, max_version]``.  A path that a hard
    crash left without its snapshot mid-publish gets the previous
    generation back first (see :func:`atomic_snapshot_dir`).
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        _recover_previous(path)
    if not manifest_path.is_file():
        raise SnapshotError(f"no snapshot manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"corrupted snapshot manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(f"corrupted snapshot manifest {manifest_path}: not an object")
    got_format = manifest.get("format")
    if got_format != expected_format:
        raise SnapshotError(
            f"snapshot at {path} has format {got_format!r}, expected {expected_format!r}"
        )
    version = manifest.get("version")
    if not isinstance(version, int) or not 1 <= version <= max_version:
        raise SnapshotError(
            f"snapshot at {path} has unsupported version {version!r} "
            f"(this build reads versions 1..{max_version})"
        )
    return manifest


def write_arrays(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write the snapshot's numpy payload as raw per-array ``.npy`` files.

    One file per array under ``arrays/`` keeps every matrix individually
    memory-mappable on load (an npz member cannot be mmapped through the zip
    container).  A snapshot without arrays has no ``arrays/`` directory.
    """
    if not arrays:
        return
    arrays_dir = Path(path) / ARRAYS_DIR
    arrays_dir.mkdir(parents=True, exist_ok=True)
    for name, value in arrays.items():
        if not _ARRAY_NAME_RE.match(name):
            raise SnapshotError(f"array name {name!r} is not snapshot-safe")
        np.save(arrays_dir / f"{name}.npy", np.asarray(value))


def read_arrays(
    path: Path,
    mmap: bool = False,
    expected: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Load the snapshot's numpy payload; raises :class:`SnapshotError`.

    ``mmap=True`` returns read-only ``np.memmap`` views of the per-array
    files — no bytes are copied until a consumer touches the pages.
    ``expected`` names arrays that must be present — a stage torn before all
    arrays landed is rejected instead of half-restored.
    """
    path = Path(path)
    arrays_dir = path / ARRAYS_DIR
    if not arrays_dir.is_dir():
        if expected is not None and not expected:
            return {}  # nothing to read: the snapshot was written without arrays
        raise SnapshotError(f"no snapshot arrays at {arrays_dir}")
    out: Dict[str, np.ndarray] = {}
    for file in sorted(arrays_dir.glob("*.npy")):
        try:
            out[file.stem] = np.load(
                file,
                mmap_mode="r" if mmap else None,
                allow_pickle=False,
            )
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"corrupted snapshot array {file}: {exc}") from exc
    if expected is not None:
        missing = sorted(set(expected) - set(out))
        if missing:
            raise SnapshotError(
                f"snapshot at {path} is missing arrays {missing} (torn write?)"
            )
    return out


# --------------------------------------------------------------------------- #
# Index snapshots
# --------------------------------------------------------------------------- #
def _write_index(index: object, directory: Path) -> None:
    """Write ``index``'s snapshot into ``directory``: arrays, then manifest.

    No staging and no fsync: the caller's :func:`atomic_snapshot_dir`
    stage does both once for everything it holds.
    """
    backend = getattr(index, "snapshot_backend", None)
    if backend is None:
        raise SnapshotError(
            f"{type(index).__name__} does not support snapshots "
            "(no snapshot_backend name)"
        )
    arrays = index._snapshot_arrays()
    manifest = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "backend": backend,
        "params": index._snapshot_params(),
        "state": index._snapshot_state(),
        "arrays": sorted(arrays),
    }
    write_arrays(directory, arrays)
    write_manifest(directory, manifest)


def save_index(index: object, path: "str | Path") -> Path:
    """Snapshot any backend implementing the snapshot protocol to ``path``.

    The manifest records the backend's registry name and constructor
    parameters, so :func:`load_index` can rebuild it without the caller
    knowing the concrete class. The write is atomic (see
    :func:`atomic_snapshot_dir`): the previous snapshot at ``path`` —
    including any delta log accumulated on top of it — is replaced wholesale
    only once the new generation is completely on disk.
    """
    path = Path(path)
    with atomic_snapshot_dir(path) as stage:
        _write_index(index, stage)
    return path


def load_index(
    path: "str | Path", mmap: bool = False, replay_deltas: bool = True
) -> object:
    """Rebuild an index from a :func:`save_index` snapshot.

    Returns a fresh instance of the saved backend with identical live state
    (rows, ids, routing structures, codec tables, RNG), so searches on the
    loaded index reproduce the saved index's results bit-for-bit.

    ``mmap=True`` hands the backend read-only memory-mapped arrays instead
    of in-memory copies; the flat and non-routed quantized backends adopt
    the mapped storage/code matrices directly (zero-copy warm start — bytes
    are paged in on first search, and the first mutation transparently
    materializes a private copy). Backends with derived routing structures
    (``ivf``, ``ivf+sq8``) still rebuild those structures and gain only the
    smaller read.

    ``replay_deltas`` applies the snapshot's append-only delta log (if any)
    on top of the restored base — see :func:`append_delta`. Replaying
    mutations materializes mmap-adopted storage; a compacted snapshot
    (:func:`compact_snapshot`) keeps the warm start zero-copy.
    """
    from repro.index.registry import make_index, validate_backend

    path = Path(path)
    manifest = read_manifest(path, INDEX_FORMAT, INDEX_VERSION)
    retired = str(manifest.get("backend")).strip().lower()
    if retired in _RETIRED_BACKENDS:
        raise SnapshotError(
            f"snapshot at {path} is of the retired {retired!r} backend; "
            f"rebuild it as {_RETIRED_BACKENDS[retired]!r} from the source vectors"
        )
    try:
        backend = validate_backend(str(manifest.get("backend")))
    except ValueError as exc:
        # An absent/unknown backend name (e.g. a snapshot from a newer build
        # with backends this one lacks) is a snapshot problem, not a caller
        # bug — keep the documented exception contract.
        raise SnapshotError(f"snapshot at {path}: {exc}") from exc
    params = manifest.get("params") or {}
    if not isinstance(params, dict):
        raise SnapshotError(f"snapshot at {path} has a corrupted params block")
    state = manifest.get("state")
    if not isinstance(state, dict):
        raise SnapshotError(f"snapshot at {path} has a corrupted state block")
    expected = manifest.get("arrays")
    if expected is not None and not isinstance(expected, list):
        raise SnapshotError(f"snapshot at {path} has a corrupted arrays block")
    arrays = read_arrays(path, mmap=mmap, expected=expected)
    params = {k: v for k, v in params.items() if k not in _RETIRED_PARAMS}
    try:
        index = make_index(backend, **params)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot at {path} has params the {backend!r} backend rejects: {exc}"
        ) from exc
    index._restore(state, arrays)
    if replay_deltas:
        for record in read_deltas(path):
            try:
                record.apply(index)
            except (KeyError, ValueError) as exc:
                raise record.error(path, exc) from exc
    return index


# --------------------------------------------------------------------------- #
# Cache snapshot envelope (entries.json + arrays/ + index/ + manifest last)
# --------------------------------------------------------------------------- #
_T = TypeVar("_T")


def native_float_dtype(index: object) -> np.dtype:
    """The float dtype caches store context-chain embeddings at.

    The index's storage dtype when it is a float type (``flat``/``ivf``),
    else float32 (quantized backends, custom indexes) — so the
    snapshot's bytes agree with the restored in-memory size.
    """
    native = np.dtype(getattr(index, "dtype", np.float32))
    return native if native.kind == "f" else np.dtype(np.float32)


def stack_rows(rows: Sequence[np.ndarray], dim: int, dtype: np.dtype) -> np.ndarray:
    """``rows`` as one ``(n, dim)`` matrix of ``dtype`` (``(0, dim)`` when empty)."""
    if not rows:
        return np.zeros((0, dim), dtype=dtype)
    return np.stack(rows).astype(dtype, copy=False)


def save_cache_snapshot(
    path: "str | Path",
    format_tag: str,
    version: int,
    payload: Mapping[str, object],
    records: Sequence[Mapping[str, object]],
    arrays: Mapping[str, np.ndarray],
    index: object,
) -> Path:
    """Atomically publish one cache snapshot envelope at ``path``.

    ``payload`` is the cache's own manifest content (config, counters, …);
    ``records`` — the entry records, in entry order — become
    ``entries.json`` (``json.dumps(records, indent=1)``), ``arrays`` the
    per-array ``.npy`` files and ``index`` the nested ``index/`` snapshot,
    written straight into the one stage (which fsyncs each file once).  The
    manifest is written last, so a torn stage is never loadable; the
    previous generation at ``path`` is replaced wholesale (stale delta logs
    or larger prior arrays cannot survive into the new one).
    """
    path = Path(path)
    with atomic_snapshot_dir(path) as stage:
        (stage / ENTRIES_NAME).write_text(
            json.dumps(list(records), indent=1) + "\n", encoding="utf-8"
        )
        write_arrays(stage, arrays)
        _write_index(index, stage / INDEX_DIR)
        write_manifest(
            stage,
            {
                "format": format_tag,
                "version": version,
                **payload,
                "arrays": sorted(arrays),
            },
        )
    return path


def load_cache_snapshot(
    path: "str | Path",
    format_tag: str,
    max_version: int,
    build: Callable[[Mapping[str, object]], _T],
    required: Sequence[str],
    mmap: bool = False,
) -> "Tuple[_T, object, List[Dict[str, object]], Dict[str, np.ndarray]]":
    """Read a :func:`save_cache_snapshot` envelope; raises :class:`SnapshotError`.

    Returns ``(build(manifest), index, entries.json records, arrays)``.
    The manifest is validated before anything else is touched; ``build``
    turns its payload into the (still empty) cache, and a manifest whose
    format and version pass but whose payload is truncated or renamed
    (``KeyError`` / ``TypeError`` / ``ValueError`` from ``build``) is still
    a corrupted snapshot, not a caller bug.  ``required`` names the arrays
    the caller reads, on top of the manifest's own list; ``mmap`` is
    forwarded to :func:`load_index`.
    """
    path = Path(path)
    manifest = read_manifest(path, format_tag, max_version)
    try:
        built = build(manifest)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot at {path} has a corrupted manifest payload: {exc}"
        ) from exc
    index = load_index(path / INDEX_DIR, mmap=mmap)
    try:
        records = json.loads((path / ENTRIES_NAME).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise SnapshotError(f"snapshot at {path} has no {ENTRIES_NAME}") from exc
    listed = manifest.get("arrays")
    expected = set(required) | set(listed if isinstance(listed, list) else ())
    return built, index, records, read_arrays(path, expected=sorted(expected))


# --------------------------------------------------------------------------- #
# Append-only delta log
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeltaRecord:
    """One committed entry of a snapshot's append-only delta log."""

    seq: int
    ids: Tuple[int, ...]
    removed: Tuple[int, ...]
    #: vectors added by this delta, aligned with ``ids`` (None for pure
    #: removals); bit-equal to the append call's rows and read-only.
    vectors: Optional[np.ndarray]
    #: opaque JSON payload the caller attached (e.g. the tier's entry texts)
    meta: Optional[object] = None
    #: for a record not yet written: its ``meta`` already encoded as JSON
    #: text (see :func:`delta_line`); a record read back carries ``meta``
    encoded_meta: Optional[str] = None
    #: for a record read back: its 1-based line in the log
    line: Optional[int] = None

    def apply(self, index) -> None:
        """Replay this delta against a restored index."""
        if self.vectors is not None and len(self.ids):
            index.add_batch(self.vectors, ids=list(self.ids))
        for removed_id in self.removed:
            index.remove(int(removed_id))

    def error(self, path: "str | Path", exc: Exception) -> SnapshotError:
        """What a load raises when this record, read from the log of the
        snapshot at ``path``, does not replay onto what came before it (an
        id added twice, say)."""
        return _log_error(Path(path), self.line, self.seq, exc)


def _log_error(path: Path, line: Optional[int], seq: object, exc: Exception) -> SnapshotError:
    return SnapshotError(
        f"delta log {path / DELTAS_NAME}: line {line} (seq {seq}): {type(exc).__name__}: {exc}"
    )


def _delta_lines(path: Path, repair: bool = False) -> List[Tuple[int, Dict[str, object]]]:
    """``(1-based line, parsed record)`` of ``deltas.jsonl``, tolerating a torn tail.

    A line that fails to decode is the uncommitted tail of a crashed append
    when (and only when) it is the last non-empty line — anything earlier is
    real corruption and raises :class:`SnapshotError`.

    ``repair=True`` is for a caller about to append (:func:`open_delta_log`):
    the torn tail is cut off the file, and a complete record the crash left
    without its newline is terminated instead.
    """
    log = path / DELTAS_NAME
    if not log.is_file():
        return []
    data = log.read_bytes()
    raw_lines = data.splitlines(keepends=True)
    last = max((i for i, line in enumerate(raw_lines) if line.strip()), default=-1)
    records: List[Tuple[int, Dict[str, object]]] = []
    committed = offset = 0  # bytes of the log holding committed records / scanned
    for i, line in enumerate(raw_lines[: last + 1]):
        offset += len(line)
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or a fragment cut mid-character
            if i == last:
                break  # torn trailing append; the log is valid up to here
            raise SnapshotError(f"corrupted delta log {log}: line {i + 1}: {exc}") from exc
        if not isinstance(record, dict):
            raise SnapshotError(f"corrupted delta log {log}: line {i + 1} is not an object")
        records.append((i + 1, record))
        committed = offset
    if repair:
        unterminated = committed > 0 and not data[:committed].endswith(b"\n")
        if unterminated or data[committed:].strip():
            with open(log, "r+b") as fh:
                fh.truncate(committed)
                if unterminated:
                    fh.seek(committed)
                    fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
    return records


_ROW_KINDS = "fiu"  #: dtype kinds of a delta's rows: their bytes are the value (never ``object``)


def read_deltas(path: "str | Path") -> List[DeltaRecord]:
    """The snapshot's committed delta records, in append order.

    A line that decodes as JSON is committed, so a ``vectors`` field that
    does not decode to ``len(ids)`` rows (bad base64, byte count, shape or
    dtype; ``ids`` without it) raises :class:`SnapshotError` naming the log,
    the line and the ``seq``, as does a line of the former format (non-null
    ``file``); only a crashed append's torn trailing line is dropped.
    """
    path = Path(path)
    records: List[DeltaRecord] = []
    for i, (lineno, line) in enumerate(_delta_lines(path)):
        field, vectors = line.get("vectors"), None
        try:
            seq = int(line.get("seq", i + 1))
            ids = tuple(int(x) for x in line.get("ids", ()))
            removed = tuple(int(x) for x in line.get("removed", ()))
            if line.get("file") is not None:
                raise ValueError(
                    f"rows kept in {line['file']!r}: written by the per-delta .npy format, which "
                    "this build does not read — compact the log with the version that wrote it"
                )
            if field is None and ids:
                raise ValueError("ids given without vectors")
            if field is not None:
                name, shape = field["dtype"], field["shape"]
                dtype = np.dtype(name) if isinstance(name, str) else None
                if dtype is None or dtype.kind not in _ROW_KINDS:
                    raise ValueError(f"dtype {name!r} is not a plain float/int dtype")
                raw = base64.b64decode(field["b64"], validate=True)
                vectors = np.frombuffer(raw, dtype=dtype).reshape(shape)  # or raises: bad length
                if list(vectors.shape) != shape or vectors.shape[:1] != (len(ids),):
                    raise ValueError(f"{vectors.shape} rows for shape {shape}, {len(ids)} ids")
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise _log_error(path, lineno, line.get("seq"), exc) from exc
        records.append(DeltaRecord(seq, ids, removed, vectors, line.get("meta"), line=lineno))
    return records


def delta_line(
    seq: int,
    vectors: Optional[np.ndarray],
    ids: Optional[Sequence[int]],
    removed: Sequence[int] = (),
    meta: Optional[object] = None,
    encoded_meta: Optional[str] = None,
) -> bytes:
    """One record's ``deltas.jsonl`` line (validated, newline-terminated).

    ``encoded_meta`` is a ``meta`` the caller has already encoded as JSON
    text, spliced in as it is: a record whose payload is kept rendered
    piece by piece (a :class:`~repro.core.tiered.QuantizedTier`'s entries)
    is not encoded again whole.
    """
    encoded: Optional[Dict[str, object]] = None
    if vectors is not None:
        rows = np.ascontiguousarray(np.atleast_2d(np.asarray(vectors)))
        if ids is None or len(ids) != rows.shape[0]:
            raise ValueError("ids must align with vectors")
        if rows.dtype.kind not in _ROW_KINDS:
            raise ValueError(f"delta vectors must be float or int, got {rows.dtype}")
        b64 = base64.b64encode(rows).decode("ascii")
        encoded = {"dtype": rows.dtype.str, "shape": list(rows.shape), "b64": b64}
    elif ids:
        raise ValueError("ids given without vectors")
    if meta is not None and encoded_meta is not None:
        raise ValueError("pass meta or encoded_meta, not both")
    record: Dict[str, object] = {
        "seq": seq,
        "ids": [int(i) for i in (ids or ())],
        "removed": [int(i) for i in removed],
        "vectors": encoded,
    }
    if meta is not None:
        record["meta"] = meta
    line = json.dumps(record)
    if encoded_meta is not None:
        line = f'{line[:-1]}, "meta": {encoded_meta}}}'
    return (line + "\n").encode("utf-8")


def append_delta(
    path: "str | Path",
    vectors: Optional[np.ndarray] = None,
    ids: Optional[Sequence[int]] = None,
    removed: Sequence[int] = (),
    meta: Optional[object] = None,
    seq: Optional[int] = None,
    records: Optional[Sequence[DeltaRecord]] = None,
) -> int:
    """Append mutation records to the snapshot's delta log; returns the last seq.

    Cost is proportional to the delta, not the snapshot: each record is one
    JSON line, the lines are appended to ``deltas.jsonl`` with one write and
    fsynced once, and nothing else is created or rewritten.  The added rows
    are in the line, as ``{"dtype", "shape", "b64"}`` of their C-contiguous
    bytes, whatever their size (a 1,000 x 768 float32 delta is one ~4 MB
    line).  The log is folded back into a full snapshot by
    :func:`compact_snapshot` (or implicitly by the next :func:`save_index`,
    whose atomic directory replace discards it), or replaced whole by
    :func:`replace_delta_log`.

    One record is given by its fields.  Without ``seq`` the call checks that
    a snapshot exists at ``path`` and numbers the record from the log
    (:func:`open_delta_log`, which also cuts off a crashed append's torn
    tail).  An appender that has done that once and counts its own records
    passes ``seq`` — the count so far plus one — and the call touches
    neither the manifest nor the log's existing lines.

    ``records`` instead commits several :class:`DeltaRecord` at once, each
    as its own line under its own ``seq`` (the caller counts): group commit,
    one write and one fsync for all of them.  Every line is encoded (and
    validated) before the log is opened.
    """
    path = Path(path)
    if records is None:
        if seq is None:
            if not (path / MANIFEST_NAME).is_file():
                raise SnapshotError(f"no snapshot at {path} to append a delta to")
            seq = open_delta_log(path) + 1
        data = delta_line(seq, vectors, ids, removed, meta)
    elif vectors is not None or ids or removed or meta is not None or seq is not None:
        raise ValueError("pass records, or one record's fields, not both")
    elif not records:
        raise ValueError("no records to append")
    else:
        seq = records[-1].seq
        data = b"".join(
            delta_line(r.seq, r.vectors, r.ids, r.removed, r.meta, r.encoded_meta)
            for r in records
        )
    # The fsynced write is the commit point: a crash before it leaves the log
    # as it was, a crash mid-append leaves whole records and then a torn
    # trailing line, which readers skip and the next appender's
    # open_delta_log cuts off.  An append that fails in-process takes all of
    # its bytes back off the log, so the caller's retry of the same records
    # is not a duplicate.
    with open(path / DELTAS_NAME, "ab") as fh:
        committed = fh.seek(0, os.SEEK_END)
        try:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        except BaseException:
            with suppress(OSError):
                fh.truncate(committed)
            raise
    return seq


#: the prefix of the temp file :func:`replace_delta_log` writes beside the log
_LOG_TEMP_PREFIX = f"tmp-{DELTAS_NAME}-"


def replace_delta_log(path: "str | Path", data: bytes) -> None:
    """Atomically replace the snapshot's delta log with ``data``.

    ``data`` is whole records (:func:`delta_line`); a fold that writes what
    changed since the full snapshot as one record ends the log it folded
    this way.  The bytes go to a temp file in the snapshot directory with
    one write and one fsync, ``os.replace`` puts it in the log's place and
    the directory is fsynced: a crash leaves the old log or the new one,
    plus at worst a torn temp file, which no reader opens and the next call
    removes.  An in-process failure removes its temp file.
    """
    path = Path(path)
    for stray in path.glob(_LOG_TEMP_PREFIX + "*"):
        stray.unlink()
    fd, temp = tempfile.mkstemp(prefix=_LOG_TEMP_PREFIX, dir=path)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path / DELTAS_NAME)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise
    _fsync_dir(path)


def snapshot_nbytes(path: "str | Path") -> int:
    """Bytes of the full snapshot at ``path``: every file under it bar the
    delta log and a :func:`replace_delta_log` temp file."""
    path = Path(path)
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        top = Path(dirpath) == path
        for name in filenames:
            if top and (name == DELTAS_NAME or name.startswith(_LOG_TEMP_PREFIX)):
                continue
            total += os.stat(os.path.join(dirpath, name)).st_size
    return total


def open_delta_log(path: "str | Path") -> int:
    """Make the delta log at ``path`` safe to append to; returns its record count.

    What an appender does once before its first record (numbered count + 1):
    a torn trailing line — the uncommitted tail of an append a crash
    interrupted — is cut off the file, so the next record is not glued onto
    the fragment and lost with it.  A missing log counts 0.
    """
    return len(_delta_lines(Path(path), repair=True))


def delta_log_size(path: "str | Path") -> Tuple[int, int]:
    """(number of committed delta records, total rows they add)."""
    lines = _delta_lines(Path(path))
    return len(lines), sum(len(line.get("ids", ())) for _, line in lines)


def compact_snapshot(path: "str | Path", mmap: bool = False) -> object:
    """Fold the delta log into a new full snapshot; returns the loaded index.

    Loads the base snapshot plus deltas, then atomically republishes the
    result as a fresh full snapshot (dropping the log). Runs off the query
    path. Cache tiers do not call it: ``QuantizedTier.maintenance`` folds
    its log through ``save``.
    """
    index = load_index(path, mmap=mmap, replay_deltas=True)
    save_index(index, path)
    return index
