"""The encoder "model zoo".

The paper evaluates three sentence encoders:

* **MPNet** (all-mpnet-base-v2): 768-d embeddings, ~420 MB, the strongest.
* **ALBERT** (paraphrase-albert-small-v2): 768-d embeddings, ~43 MB, lighter
  and slightly weaker; GPTCache's default.
* **Llama-2 7B**: 4096-d embeddings, ~30 GB, slow to embed and — as the paper
  shows in §IV-G — poorly suited to sentence-similarity out of the box.

This module provides the equivalent configurations of the NumPy
:class:`~repro.embeddings.model.SiameseEncoder`.  The analogues preserve the
properties the evaluation depends on:

==============  ======  ===========  ==============================  =========
name            emb dim  per-query    relative embedding compute      semantic
                         storage      (hidden width × feature width)  quality
==============  ======  ===========  ==============================  =========
``mpnet-sim``   768     6 KB (f64)   medium                           best
``albert-sim``  768     6 KB (f64)   small                            good
``llama2-sim``  4096    32 KB (f64)  large                            poor
==============  ======  ===========  ==============================  =========

Per-embedding storage matches the paper exactly because the paper also counts
float64/float32 vectors of the same dimensionalities (768 → 6 KB, 4096 →
32 KB).  The ``llama2-sim`` configuration disables the identity-residual
initialisation and adds no similarity-oriented structure, reproducing the
finding that a general-purpose LLM's raw embeddings are a weak similarity
signal.

Pretrained checkpoints
----------------------
As in the paper, a client loads a pretrained encoder and only fine-tunes it.
The weights of every entry that pretrains ship under
``checkpoints/<name>/`` as a snapshot directory (``manifest.json`` with the
``repro-encoder`` format tag, a spec fingerprint and the SHA-256 of the
parameter bytes, plus one float64 ``.npy`` per parameter), so
:func:`load_encoder` reads them instead of re-running the pretraining pass.
:func:`_pretrain` stays the one definition they are generated from::

    python -m repro.embeddings.zoo --write-checkpoints   # regenerate all
    python -m repro.embeddings.zoo --check               # retrain, compare bytes

The pass is byte-reproducible only at a fixed BLAS thread count (OpenBLAS
rounds some of the loss's small products differently with more threads, by
~1e-17 per gradient component), so both commands pretrain in a process
pinned to one thread (:data:`PRETRAIN_ENV`), as ``bench/run.py`` does.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.featurizer import FeaturizerConfig, HashedFeaturizer
from repro.embeddings.model import EncoderConfig, SiameseEncoder
from repro.embeddings.optim import Adam
from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig
from repro.index.snapshot import (
    SnapshotError,
    atomic_snapshot_dir,
    read_arrays,
    read_manifest,
    write_arrays,
    write_manifest,
)

logger = logging.getLogger("repro.embeddings.zoo")

#: One snapshot directory per zoo entry that pretrains (``<root>/<name>/``).
CHECKPOINT_ROOT = Path(__file__).resolve().parent / "checkpoints"
CHECKPOINT_FORMAT = "repro-encoder"
CHECKPOINT_VERSION = 1
#: Named by every error about an unusable checkpoint.
REGEN_COMMAND = "python -m repro.embeddings.zoo --write-checkpoints"
#: Environment the checkpoints are pretrained under.  BLAS reads it once,
#: when NumPy loads, so it pins a fresh process, not a running one.
PRETRAIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Domains used to synthesise the "public pretraining corpus" the zoo models
#: are pretrained on (mirroring how MPNet/ALBERT sentence encoders are
#: pretrained on public paraphrase corpora before any user-specific
#: fine-tuning).  Deliberately *half* of the full domain set so federated
#: fine-tuning on the users' query distribution still has headroom.
PRETRAIN_DOMAINS: Tuple[str, ...] = (
    "programming",
    "cooking",
    "health",
    "science",
    "writing",
    "fitness",
    "gardening",
    "home",
    "entertainment",
    "education",
)
#: Seed of the pretraining corpus/data generation (shared by every zoo entry).
PRETRAIN_SEED: int = 7_777


@dataclass(frozen=True)
class EncoderSpec:
    """Static description of a zoo entry.

    Attributes
    ----------
    name:
        Zoo key, e.g. ``"mpnet-sim"``.
    paper_model:
        The model the entry stands in for.
    config:
        The :class:`EncoderConfig` used to instantiate it.
    model_size_mb:
        Nominal on-disk size of the *paper's* model, used for reporting.
    trainable:
        Whether the reproduction fine-tunes this encoder with FL (the paper
        never fine-tunes Llama-2; it is only probed as a frozen embedder).
    pretrain_epochs:
        Epochs of "public corpus" pretraining baked into the checkpoint that
        :func:`load_encoder` returns.  0 means the raw random initialisation
        (used for the llama2 analogue, which is not a sentence encoder).
    pretrain_pairs:
        Number of pretraining pairs generated from the pretraining corpus.
    pretrain_lr:
        Learning rate of the pretraining pass.
    """

    name: str
    paper_model: str
    config: EncoderConfig
    model_size_mb: float
    trainable: bool = True
    pretrain_epochs: int = 0
    pretrain_pairs: int = 800
    pretrain_lr: float = 1e-2

    @property
    def embedding_dim(self) -> int:
        """Embedding dimensionality produced by this encoder."""
        return self.config.output_dim

    @property
    def embedding_bytes(self) -> int:
        """Per-query embedding storage in bytes (float64 vectors)."""
        return self.config.output_dim * 8


ENCODER_SPECS: Dict[str, EncoderSpec] = {
    "mpnet-sim": EncoderSpec(
        name="mpnet-sim",
        paper_model="sentence-transformers/all-mpnet-base-v2 (MPNet)",
        config=EncoderConfig(
            n_features=2048,
            hidden_dim=512,
            output_dim=768,
            seed=11,
            init_scale=1.0,
            identity_residual=True,
            anisotropy=0.3,
            text_noise=0.0,
        ),
        model_size_mb=420.0,
        pretrain_epochs=5,
        pretrain_pairs=1400,
    ),
    "albert-sim": EncoderSpec(
        name="albert-sim",
        paper_model="paraphrase-albert-small-v2 (ALBERT)",
        config=EncoderConfig(
            n_features=2048,
            hidden_dim=256,
            output_dim=768,
            seed=23,
            init_scale=1.0,
            identity_residual=True,
            anisotropy=0.3,
            text_noise=0.05,
        ),
        model_size_mb=43.0,
        pretrain_epochs=5,
        pretrain_pairs=1400,
    ),
    "llama2-sim": EncoderSpec(
        name="llama2-sim",
        paper_model="Llama-2 7B (last-hidden-state mean pooling)",
        config=EncoderConfig(
            n_features=8192,
            hidden_dim=2048,
            output_dim=4096,
            seed=37,
            init_scale=1.0,
            identity_residual=False,
            anisotropy=0.5,
            text_noise=0.5,
        ),
        model_size_mb=30000.0,
        trainable=False,
    ),
}


#: Cache of pretrained parameter lists, keyed by (zoo name, seed, pretrain flag).
#: The arrays are read-only and shared by every encoder loaded from them.
_PRETRAINED_CACHE: Dict[Tuple[str, int, bool], List[np.ndarray]] = {}


def _pretraining_pairs(n_pairs: int) -> List[Tuple[str, str, int]]:
    """Generate the shared "public corpus" pretraining pair set."""
    # Imported lazily to avoid a hard dependency cycle at import time
    # (datasets never import the zoo).
    from repro.datasets.corpus import Corpus
    from repro.datasets.semantic_pairs import generate_pair_dataset

    corpus = Corpus(seed=PRETRAIN_SEED, domains=list(PRETRAIN_DOMAINS))
    dataset = generate_pair_dataset(
        n_pairs=n_pairs,
        duplicate_fraction=0.5,
        hard_negative_fraction=0.6,
        corpus=corpus,
        seed=PRETRAIN_SEED,
    )
    return dataset.as_tuples()


def _pretrain(encoder: SiameseEncoder, spec: EncoderSpec) -> None:
    """Run the spec's pretraining pass in place (no-op for 0 epochs).

    The definition of the shipped checkpoints: ``--write-checkpoints`` stores
    what this produces and ``--check`` compares against it byte for byte.
    """
    if spec.pretrain_epochs <= 0:
        return
    pairs = _pretraining_pairs(spec.pretrain_pairs)
    encoder.train_on_pairs(
        pairs,
        epochs=spec.pretrain_epochs,
        batch_size=128,
        optimizer=Adam(lr=spec.pretrain_lr),
        shuffle_seed=PRETRAIN_SEED,
    )


def _spec_fingerprint(spec: EncoderSpec) -> str:
    """SHA-256 of the spec fields and module constants the pretraining reads."""
    fields = {
        "config": dataclasses.asdict(spec.config),
        "pretrain_epochs": spec.pretrain_epochs,
        "pretrain_pairs": spec.pretrain_pairs,
        "pretrain_lr": spec.pretrain_lr,
        "pretrain_seed": PRETRAIN_SEED,
        "pretrain_domains": list(PRETRAIN_DOMAINS),
    }
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def _parameter_digest(params: Sequence[np.ndarray]) -> str:
    """SHA-256 of the parameter arrays' bytes, in ``PARAM_NAMES`` order.

    Each array's C-order buffer is hashed in place; only a non-contiguous
    array is copied first.
    """
    digest = hashlib.sha256()
    for array in params:
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _read_checkpoint(name: str, encoder: SiameseEncoder) -> List[np.ndarray]:
    """The shipped parameters of zoo entry ``name``, verified.

    ``encoder`` (the entry's architecture) supplies each array's expected
    shape and dtype.  Raises :class:`SnapshotError` naming the directory and
    :data:`REGEN_COMMAND` when the checkpoint is missing or foreign, an array
    is missing or mis-shaped, the bytes do not hash to the manifest's digest,
    or the manifest was written for a different spec.
    """
    directory = CHECKPOINT_ROOT / name
    try:
        manifest = read_manifest(directory, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
        if manifest.get("fingerprint") != _spec_fingerprint(ENCODER_SPECS[name]):
            raise SnapshotError(
                f"it was written for a different spec of {name!r} "
                "(the spec was edited without regenerating)"
            )
        arrays = read_arrays(directory, expected=SiameseEncoder.PARAM_NAMES)
        params = [arrays[key] for key in SiameseEncoder.PARAM_NAMES]
        for key, array in zip(SiameseEncoder.PARAM_NAMES, params):
            want = getattr(encoder, key)
            if array.shape != want.shape or array.dtype != want.dtype:
                raise SnapshotError(
                    f"array {key} is {array.dtype}{array.shape}, "
                    f"expected {want.dtype}{want.shape}"
                )
        digest = _parameter_digest(params)
        if digest != manifest.get("params_sha256"):
            raise SnapshotError(
                f"parameter SHA-256 {digest} does not match the manifest's "
                f"{manifest.get('params_sha256')}"
            )
    except SnapshotError as exc:
        raise SnapshotError(
            f"zoo checkpoint {directory} is unusable: {exc}; regenerate it with "
            f"`{REGEN_COMMAND}`"
        ) from None
    logger.debug("loaded %s from %s (sha256 %s)", name, directory, digest)
    return params


def _pinned_env() -> Dict[str, str]:
    """Environment for a child process that pretrains: this one's, with
    :data:`PRETRAIN_ENV` applied and this package importable."""
    path = [str(Path(__file__).resolve().parents[2]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, **PRETRAIN_ENV, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _write_checkpoint(name: str, encoder: SiameseEncoder) -> Path:
    """Publish ``encoder``'s parameters as zoo entry ``name``'s checkpoint."""
    state = encoder.state_dict()
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "encoder": name,
        "fingerprint": _spec_fingerprint(ENCODER_SPECS[name]),
        "params_sha256": _parameter_digest(list(state.values())),
        "arrays": list(state),
    }
    directory = CHECKPOINT_ROOT / name
    with atomic_snapshot_dir(directory) as stage:
        write_arrays(stage, state)
        write_manifest(stage, manifest)
    return directory


def load_encoder(name: str, seed: int | None = None, pretrained: bool = True) -> SiameseEncoder:
    """Instantiate a zoo encoder by name.

    Parameters
    ----------
    name:
        One of :data:`ENCODER_SPECS` keys (``mpnet-sim``, ``albert-sim``,
        ``llama2-sim``).
    seed:
        Optional seed override (changes the "pretrained checkpoint" while
        keeping the architecture).  No checkpoint ships for a seed other than
        the spec's own, so such a load runs the pretraining pass (seconds;
        logged at INFO).
    pretrained:
        When True (default) the returned encoder carries the spec's
        "public corpus" pretraining, read from its shipped checkpoint (cached
        per process, so repeated loads are cheap).  Every encoder loaded from
        the cache shares its arrays read-only; the first in-place write, such
        as fine-tuning, gives that encoder its own copies
        (:meth:`SiameseEncoder.writable_parameters`), so what one encoder
        learns never reaches another or a later load.  When False the raw
        random initialisation is returned.

    Raises
    ------
    KeyError
        If ``name`` is not a known zoo entry.
    SnapshotError
        If the shipped checkpoint is missing, corrupted or stale (see
        :func:`_read_checkpoint`); it is never silently retrained.
    """
    try:
        spec = ENCODER_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(ENCODER_SPECS))
        raise KeyError(f"unknown encoder {name!r}; known encoders: {known}") from None
    config = spec.config
    if seed is not None:
        config = EncoderConfig(
            n_features=config.n_features,
            hidden_dim=config.hidden_dim,
            output_dim=config.output_dim,
            seed=seed,
            init_scale=config.init_scale,
            identity_residual=config.identity_residual,
            anisotropy=config.anisotropy,
            text_noise=config.text_noise,
            dtype=config.dtype,
        )
    if name == "llama2-sim":
        # Llama-2 is not a sentence-similarity model: no stop-word filtering
        # or subword/char-n-gram robustness tuned for paraphrase retrieval.
        tokenizer = Tokenizer(TokenizerConfig(remove_stopwords=False, char_ngram_max=0))
    else:
        tokenizer = Tokenizer(TokenizerConfig())
    featurizer = HashedFeaturizer(
        FeaturizerConfig(n_features=config.n_features, seed=config.seed),
        tokenizer,
    )
    encoder = SiameseEncoder(config, featurizer)
    if not pretrained or spec.pretrain_epochs <= 0:
        return encoder
    cache_key = (name, config.seed, True)
    cached = _PRETRAINED_CACHE.get(cache_key)
    if cached is None:
        if config.seed == spec.config.seed:
            cached = _read_checkpoint(name, encoder)
        else:
            logger.info("pretraining %s at seed %d: no checkpoint for this seed", name, config.seed)
            _pretrain(encoder, spec)
            cached = encoder.get_parameters()
        _PRETRAINED_CACHE[cache_key] = cached
    encoder.share_parameters(cached)
    return encoder


def spec_for(name: str) -> EncoderSpec:
    """Return the :class:`EncoderSpec` for ``name`` (KeyError if unknown)."""
    if name not in ENCODER_SPECS:
        known = ", ".join(sorted(ENCODER_SPECS))
        raise KeyError(f"unknown encoder {name!r}; known encoders: {known}")
    return ENCODER_SPECS[name]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Regenerate (``--write-checkpoints``) or verify (``--check``) every
    shipped checkpoint by re-running its pretraining; returns the exit code
    (1 when ``--check`` finds a checkpoint unusable or not byte-equal)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.embeddings.zoo",
        description="Pretrain every zoo entry that pretrains and write or verify its checkpoint.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write-checkpoints", action="store_true", help="rewrite every checkpoint")
    mode.add_argument("--check", action="store_true", help="exit 1 on any byte difference")
    args = parser.parse_args(argv)
    if any(os.environ.get(key) != value for key, value in PRETRAIN_ENV.items()):
        flag = "--write-checkpoints" if args.write_checkpoints else "--check"
        rerun = f"import sys; from repro.embeddings.zoo import main; sys.exit(main([{flag!r}]))"
        return subprocess.call([sys.executable, "-c", rerun], env=_pinned_env())
    failed = False
    for name, spec in ENCODER_SPECS.items():
        if spec.pretrain_epochs <= 0:
            continue
        encoder = load_encoder(name, pretrained=False)
        _pretrain(encoder, spec)
        if args.write_checkpoints:
            print(f"wrote {_write_checkpoint(name, encoder)}")
            continue
        try:
            shipped = _read_checkpoint(name, encoder)
        except SnapshotError as exc:
            print(f"FAIL {exc}")
            failed = True
            continue
        differ = [
            key
            for key, array in zip(SiameseEncoder.PARAM_NAMES, shipped)
            if array.tobytes() != getattr(encoder, key).tobytes()
        ]
        if differ:
            print(f"FAIL {CHECKPOINT_ROOT / name}: {differ} differ from a fresh pretraining pass")
            failed = True
        else:
            print(f"ok   {CHECKPOINT_ROOT / name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
