"""The trainable siamese sentence encoder.

Architecture (per query)::

    text --tokenize--> tokens --hash--> x  (n_features,)
    h = tanh(x @ W1 + b1)                 (hidden_dim,)
    z = h @ W2 + b2                       (output_dim,)
    v = z / ||z|| + anisotropy * u        (u: a fixed unit direction)
    e = v / ||v||                         (unit-norm embedding)
    e = normalise(e + text_noise * n_t)   (n_t: unit noise keyed on the text)

``x`` is sparse — a query sets ~50 of 2,048 hashed features — so at inference
the first layer is what it is in every real sentence encoder, an embedding
lookup: ``x @ W1`` is computed as ``x[nz] @ W1[nz]`` over the row's non-zero
features ``nz`` alone.  Training (``forward(X, cache)``) keeps the dense
product, whose ``backward`` needs the dense ``X`` anyway and whose arithmetic
defines the pretrained checkpoints.  The two sum the same products in a
different order and agree to within ``8 * 2**-53`` per embedding component;
both round to the same float32, the width every index stores and scores with
(``tests/test_forward_differential.py`` checks both against the old all-dense
body).

The encoder is the NumPy stand-in for the paper's MPNet/ALBERT sentence
transformers.  It is *siamese*: the same weights encode both sides of a query
pair, and training minimises the multitask objective of
:mod:`repro.embeddings.losses`.  Parameters are exposed as a flat list of
arrays (``get_parameters`` / ``set_parameters``) in a fixed order so the
federated-learning layer can serialize, average and redistribute them.

An optional PCA compression head (``attach_pca``) projects embeddings to a
lower dimension at inference time, mirroring MeanCache's Figure 3 design where
the learned principal components become an extra layer of the deployed model.

A serving-time encoder is a pure function of its text, so :meth:`freeze`
marks the weights read-only and lets ``encode`` answer texts it has already
encoded from a bounded text -> row memo (:data:`MEMO_ROWS`); every method that
changes the weights or the PCA head thaws the encoder and drops the memo.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.featurizer import FeaturizerConfig, HashedFeaturizer, stable_token_hash
from repro.embeddings.losses import combined_multitask_loss
from repro.embeddings.optim import Adam, Optimizer
from repro.embeddings.pca import PCA
from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig


@dataclass(frozen=True)
class EncoderConfig:
    """Hyper-parameters of :class:`SiameseEncoder`.

    Attributes
    ----------
    n_features:
        Input width (hashed feature space size).
    hidden_dim:
        Width of the single hidden layer.
    output_dim:
        Embedding dimensionality (768 for the MPNet/ALBERT analogues,
        4096 for the Llama-2 analogue).
    seed:
        Seed for weight initialisation and the featurizer hash.
    init_scale:
        Scale multiplier on the (Xavier-style) random initialisation.  The
        "pretrained" checkpoints in the model zoo rely on the fact that a
        random projection of overlapping sparse features already preserves
        cosine similarity reasonably well.
    identity_residual:
        If True, W1 is initialised with a partial identity-like structure
        (sparse pass-through of input features), which strengthens the
        untrained ("pretrained") similarity signal.  Disabled for the
        llama2-sim configuration to reproduce its poor out-of-the-box
        semantic-matching behaviour.
    anisotropy:
        Strength of the common (anisotropic) embedding component.  Pretrained
        transformer sentence encoders are famously anisotropic: all sentence
        embeddings share a dominant direction, so cosine similarities
        concentrate in a narrow high band (duplicates ~0.8+, unrelated texts
        ~0.6+).  The encoder reproduces this by adding ``anisotropy * u`` (a
        fixed unit direction) to the normalised projection before the final
        re-normalisation.  This is what makes a *fixed* 0.7 threshold behave
        as it does for GPTCache (high recall, many false hits on lexically
        close non-duplicates).  Set to 0 to disable.
    text_noise:
        Weight of a deterministic per-text noise component added at
        ``encode`` time (a unit direction keyed on the text itself).
        ``albert-sim`` sets a little (0.05) and ``llama2-sim`` a lot (0.5),
        the latter to reproduce the paper's finding that raw LLM embeddings
        are a weak sentence-similarity signal; 0 disables it.
    dtype:
        Parameter dtype.  float64 keeps the FL averaging exact in tests.
    """

    n_features: int = 2048
    hidden_dim: int = 512
    output_dim: int = 768
    seed: int = 0
    init_scale: float = 1.0
    identity_residual: bool = True
    anisotropy: float = 1.3
    text_noise: float = 0.0
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.n_features < 2 or self.hidden_dim < 1 or self.output_dim < 1:
            raise ValueError("n_features, hidden_dim and output_dim must be positive")
        if self.anisotropy < 0:
            raise ValueError("anisotropy must be non-negative")
        if self.text_noise < 0:
            raise ValueError("text_noise must be non-negative")


#: Rows a frozen encoder's text -> embedding memo holds before the oldest is
#: dropped (FIFO); about 3 MB of float64 at 768 dimensions.
MEMO_ROWS = 512


class _RowMemo:
    """What exists only while an encoder is frozen: rows, counters, a lock.

    ``rows`` maps a text to its uncompressed embedding (one memo serves both
    ``compress`` settings); ``locked`` lists the arrays :meth:`freeze` made
    read-only, so :meth:`unfreeze` restores exactly those.
    """

    def __init__(self, locked: List[np.ndarray]) -> None:
        self.rows: Dict[str, np.ndarray] = {}
        self.locked = locked
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.lock = threading.Lock()

    def stats(self) -> Dict[str, int]:
        with self.lock:
            return {
                "rows": len(self.rows),
                "bytes": sum(row.nbytes for row in self.rows.values()),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def lookup(self, texts: Sequence[str]) -> List[Optional[np.ndarray]]:
        """The held row of each text, ``None`` where there is none (a hit each)."""
        with self.lock:
            found = [self.rows.get(text) for text in texts]
            self.hits += sum(row is not None for row in found)
        return found

    def store(self, texts: Sequence[str], rows: np.ndarray) -> None:
        """Keep own copies of the just-encoded ``rows`` (a miss each)."""
        with self.lock:
            self.misses += len(texts)
            for text, row in zip(texts[-MEMO_ROWS:], rows[-MEMO_ROWS:]):
                self.rows[text] = row.copy()
            while len(self.rows) > MEMO_ROWS:
                del self.rows[next(iter(self.rows))]
                self.evictions += 1


class SiameseEncoder:
    """Two-layer MLP sentence encoder with L2-normalised outputs."""

    #: order of arrays returned by :meth:`get_parameters`
    PARAM_NAMES: Tuple[str, ...] = ("W1", "b1", "W2", "b2")

    def __init__(
        self,
        config: EncoderConfig | None = None,
        featurizer: HashedFeaturizer | None = None,
    ) -> None:
        self.config = config or EncoderConfig()
        if featurizer is None:
            featurizer = HashedFeaturizer(
                FeaturizerConfig(n_features=self.config.n_features, seed=self.config.seed),
                Tokenizer(TokenizerConfig()),
            )
        if featurizer.n_features != self.config.n_features:
            raise ValueError(
                "featurizer width does not match encoder config "
                f"({featurizer.n_features} != {self.config.n_features})"
            )
        self.featurizer = featurizer
        self.pca: Optional[PCA] = None
        self._memo: Optional[_RowMemo] = None  # not None <=> frozen
        self._init_weights()

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def _init_weights(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        dtype = np.dtype(cfg.dtype)
        limit1 = np.sqrt(6.0 / (cfg.n_features + cfg.hidden_dim))
        limit2 = np.sqrt(6.0 / (cfg.hidden_dim + cfg.output_dim))
        self.W1 = (cfg.init_scale * rng.uniform(-limit1, limit1, (cfg.n_features, cfg.hidden_dim))).astype(dtype)
        self.b1 = np.zeros(cfg.hidden_dim, dtype=dtype)
        self.W2 = (cfg.init_scale * rng.uniform(-limit2, limit2, (cfg.hidden_dim, cfg.output_dim))).astype(dtype)
        self.b2 = np.zeros(cfg.output_dim, dtype=dtype)
        if cfg.identity_residual:
            # Strengthen the untrained similarity signal: make part of the
            # hidden layer an (overlapping) random sign pass-through of the
            # input so cosine structure of the hashed features survives the
            # projection.  This emulates "pretrained" sentence encoders that
            # are already useful before fine-tuning.
            cols = np.arange(cfg.hidden_dim)
            rows = rng.integers(0, cfg.n_features, size=cfg.hidden_dim)
            signs = rng.choice([-1.0, 1.0], size=cfg.hidden_dim)
            self.W1[rows, cols] += signs * 1.0
        # Fixed common direction for the anisotropic component (not trainable;
        # identical across FL clients because it only depends on the config).
        aniso_rng = np.random.default_rng(cfg.seed + 90_001)
        direction = aniso_rng.normal(size=cfg.output_dim)
        self._aniso_dir = (direction / np.linalg.norm(direction)).astype(dtype)

    def get_parameters(self) -> List[np.ndarray]:
        """Return copies of the trainable parameters, in a fixed order."""
        return [self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy()]

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Replace the trainable parameters (shapes must match, values finite).

        All four arrays are checked before any is replaced, so a rejected call
        leaves the old weights (and a frozen encoder's memo) in place; an
        accepted one thaws the encoder.  The encoder keeps copies.
        """
        self._check_parameters(params)
        self.unfreeze()
        dtype = np.dtype(self.config.dtype)
        self.W1, self.b1, self.W2, self.b2 = (np.array(p, dtype=dtype) for p in params)

    def share_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Adopt ``params`` themselves as the weights, read-only.

        For arrays that many encoders read at once, such as a zoo checkpoint
        (:func:`repro.embeddings.zoo.load_encoder`): nothing is copied, the
        arrays are made read-only, and the first in-place write copies them
        (:meth:`writable_parameters`), so no encoder's training reaches
        another.  Checked as :meth:`set_parameters` checks; the arrays must
        already have the config's dtype.
        """
        self._check_parameters(params)
        dtype = np.dtype(self.config.dtype)
        for name, p in zip(self.PARAM_NAMES, params):
            if p.dtype != dtype:
                raise ValueError(f"parameter {name} is {p.dtype}, expected {dtype}")
        self.unfreeze()
        for p in params:
            p.flags.writeable = False
        self.W1, self.b1, self.W2, self.b2 = params

    def writable_parameters(self) -> List[np.ndarray]:
        """The four weight arrays themselves, ready for an in-place update.

        Thaws the encoder, then replaces each array it cannot write (one it
        shares, see :meth:`share_parameters`) with a private copy.  Every
        in-place writer of the weights goes through this.
        """
        self.unfreeze()
        self.W1, self.b1, self.W2, self.b2 = (
            p if p.flags.writeable else p.copy() for p in (self.W1, self.b1, self.W2, self.b2)
        )
        return [self.W1, self.b1, self.W2, self.b2]

    def _check_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Raise ``ValueError`` unless ``params`` are four finite arrays of
        this encoder's shapes."""
        if len(params) != 4:
            raise ValueError(f"expected 4 parameter arrays, got {len(params)}")
        expected = [self.W1.shape, self.b1.shape, self.W2.shape, self.b2.shape]
        for name, p, shape in zip(self.PARAM_NAMES, params, expected):
            if p.shape != shape:
                raise ValueError(f"parameter shape mismatch: {p.shape} != {shape}")
            if not np.isfinite(p).all():
                raise ValueError(f"parameter {name} has non-finite values")

    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return sum(int(np.prod(p.shape)) for p in self.get_parameters())

    # ------------------------------------------------------------------ #
    # Frozen (serving-time) state
    # ------------------------------------------------------------------ #
    def freeze(self) -> None:
        """Declare the weights fixed: ``encode`` may now reuse rows.

        The four weight arrays and an attached PCA head's arrays become
        read-only, so an in-place writer raises instead of leaving the memo
        stale.  ``set_parameters``, ``share_parameters``,
        ``writable_parameters``, ``load_state_dict``, ``train_on_pairs``,
        ``attach_pca``, ``detach_pca`` and ``fit_pca`` thaw the encoder again.
        Arrays already read-only (shared ones) are left out of the lock, so
        :meth:`unfreeze` never makes them writable.  No-op when already
        frozen.
        """
        if self._memo is not None:
            return
        arrays = [self.W1, self.b1, self.W2, self.b2]
        if self.pca is not None:
            arrays += [self.pca.mean_, self.pca.components_, self.pca.explained_variance_]
        locked = [a for a in arrays if a.flags.writeable]
        for array in locked:
            array.flags.writeable = False
        self._memo = _RowMemo(locked)

    def unfreeze(self) -> Dict[str, int]:
        """Make the weights writable again and drop the memo.

        Returns the memo's final :meth:`memo_stats` (zeros when the encoder
        was not frozen).
        """
        stats = self.memo_stats()
        if self._memo is not None:
            for array in self._memo.locked:
                array.flags.writeable = True
            self._memo = None
        return stats

    def memo_stats(self) -> Dict[str, int]:
        """``rows``/``bytes`` held and ``hits``/``misses``/``evictions`` counted
        by the memo since :meth:`freeze`; all zero when unfrozen."""
        if self._memo is None:
            return {"rows": 0, "bytes": 0, "hits": 0, "misses": 0, "evictions": 0}
        return self._memo.stats()

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def featurize(self, texts: Sequence[str]) -> np.ndarray:
        """Hash a batch of texts into the encoder's input space."""
        return self.featurizer.transform_batch(texts)

    def forward(self, X: np.ndarray, cache: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
        """Forward pass from feature vectors ``X`` to unit-norm embeddings.

        The pipeline is ``x -> tanh(xW1+b1) -> zW2+b2 -> normalise -> add the
        anisotropic component -> normalise``.

        Without ``cache`` (inference) the first layer is an embedding lookup:
        each row sums only the rows of ``W1`` its non-zero features select, so
        a hashed text (~50 features of 2,048) reads ~50 rows instead of the
        whole matrix, and a row's activations do not depend on what it was
        batched with.  Cost grows with the non-zero count: a row with nine
        tenths of its features set costs about three times the dense product.
        A one-row batch, the shape of every on-device probe, runs the same
        arithmetic on vectors (:meth:`_forward_row`).

        With ``cache`` (training) the first layer is the dense ``X @ W1`` and
        the intermediates required by :meth:`backward` are stored in ``cache``.
        The two modes agree to within ``8 * 2**-53`` per embedding component,
        not bit for bit: they sum the same products in a different order.

        Raises ``ValueError`` when ``X`` is not ``n_features`` wide.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.W1.shape[0]:
            raise ValueError(
                f"feature matrix of shape {X.shape} does not match the encoder's "
                f"input width: {X.shape[-1]} != {self.W1.shape[0]}"
            )
        if cache is not None:
            pre_h = X @ self.W1 + self.b1
        elif X.shape[0] == 1:
            return self._forward_row(X[0])[np.newaxis]
        else:
            W1 = self.W1
            pre_h = np.empty((X.shape[0], W1.shape[1]), dtype=np.float64)
            for i, x in enumerate(X):
                nz = np.flatnonzero(x)
                pre_h[i] = x[nz] @ W1[nz]
            pre_h += self.b1
        h = np.tanh(pre_h)
        z = h @ self.W2 + self.b2
        z_norms = np.linalg.norm(z, axis=1, keepdims=True)
        z_norms = np.where(z_norms > 1e-12, z_norms, 1.0)
        zn = z / z_norms
        alpha = self.config.anisotropy
        if alpha > 0.0:
            v = zn + alpha * self._aniso_dir
            v_norms = np.linalg.norm(v, axis=1, keepdims=True)
            v_norms = np.where(v_norms > 1e-12, v_norms, 1.0)
            e = v / v_norms
        else:
            v_norms = np.ones_like(z_norms)
            e = zn
        if cache is not None:
            cache["X"] = X
            cache["h"] = h
            cache["zn"] = zn
            cache["z_norms"] = z_norms
            cache["v_norms"] = v_norms
            cache["e"] = e
        return e

    def _forward_row(self, x: np.ndarray) -> np.ndarray:
        """Inference :meth:`forward` of the one float64 row ``x``, on vectors.

        The ufuncs of the batched body in the same order, minus its 2-D
        bookkeeping: ``np.sqrt(np.add.reduce(z * z))`` is what
        ``np.linalg.norm(z, axis=1, keepdims=True)`` computes for a real row,
        and a Python ``if`` replaces the ``np.where`` guard, so the embedding
        is the bits a one-row batch gave.  A row of a larger batch may differ
        from it in the last bits (its ``h @ W2`` is a matrix product).  The
        non-zero features are found through a bool mask: the indices
        ``np.flatnonzero`` gives, at a quarter of its cost on a float row.
        """
        nz = (x != 0.0).nonzero()[0]
        pre_h = x[nz] @ self.W1[nz]
        pre_h += self.b1
        z = np.tanh(pre_h) @ self.W2 + self.b2
        norm = np.sqrt(np.add.reduce(z * z))
        e = z / (norm if norm > 1e-12 else 1.0)
        alpha = self.config.anisotropy
        if alpha > 0.0:
            v = e + alpha * self._aniso_dir
            norm = np.sqrt(np.add.reduce(v * v))
            e = v / (norm if norm > 1e-12 else 1.0)
        return e

    def backward(self, cache: Dict[str, np.ndarray], grad_e: np.ndarray) -> List[np.ndarray]:
        """Backpropagate ``dL/dE`` through the network.

        Returns gradients ``[dW1, db1, dW2, db2]`` matching
        :meth:`get_parameters` order.
        """
        X, h = cache["X"], cache["h"]
        zn, z_norms, v_norms, e = cache["zn"], cache["z_norms"], cache["v_norms"], cache["e"]
        grad_e = np.asarray(grad_e, dtype=np.float64)
        alpha = self.config.anisotropy
        if alpha > 0.0:
            # e = v / ||v||, v = zn + alpha*u (u constant)
            dot_e = np.sum(grad_e * e, axis=1, keepdims=True)
            dv = (grad_e - e * dot_e) / v_norms
            dzn = dv
        else:
            dzn = grad_e
        # zn = z / ||z||
        dot_z = np.sum(dzn * zn, axis=1, keepdims=True)
        dz = (dzn - zn * dot_z) / z_norms
        dW2 = h.T @ dz
        db2 = dz.sum(axis=0)
        dh = dz @ self.W2.T
        dpre_h = dh * (1.0 - h**2)
        dW1 = X.T @ dpre_h
        db1 = dpre_h.sum(axis=0)
        return [dW1, db1, dW2, db2]

    # ------------------------------------------------------------------ #
    # Encoding API (inference)
    # ------------------------------------------------------------------ #
    def encode(self, texts: Sequence[str] | str, compress: bool = True) -> np.ndarray:
        """Encode text(s) into embeddings.

        Parameters
        ----------
        texts:
            A single string or a sequence of strings.
        compress:
            If a PCA head is attached and ``compress`` is True, return the
            compressed embeddings (re-normalised to unit norm); otherwise the
            full ``output_dim`` embeddings.

        Returns
        -------
        ``(d,)`` array for a single string, ``(n, d)`` for a sequence.
        """
        single = isinstance(texts, str)
        batch = [texts] if single else list(texts)
        memo = self._memo
        E = self._embed(batch) if memo is None else self._embed_memoized(memo, batch)
        if compress and self.pca is not None:
            E = self.pca.transform(E)
            norms = np.linalg.norm(E, axis=1, keepdims=True)
            E = E / np.where(norms > 1e-12, norms, 1.0)
        return E[0] if single else E

    def _embed(self, batch: List[str]) -> np.ndarray:
        """Uncompressed ``(len(batch), output_dim)`` embeddings of ``batch``."""
        E = self.forward(self.featurize(batch))
        if self.config.text_noise > 0.0:
            E = self._apply_text_noise(E, batch)
        return E

    def _embed_memoized(self, memo: _RowMemo, batch: List[str]) -> np.ndarray:
        """:meth:`_embed` that encodes only the distinct texts ``memo`` lacks."""
        found = memo.lookup(batch)
        missing = list(dict.fromkeys(t for t, row in zip(batch, found) if row is None))
        if missing:
            fresh = self._embed(missing)
            memo.store(missing, fresh)
            if len(missing) == len(batch):
                return fresh
            fresh_row = dict(zip(missing, fresh))
            found = [fresh_row[t] if row is None else row for t, row in zip(batch, found)]
        return np.array(found, dtype=np.float64).reshape(len(batch), self.config.output_dim)

    def _apply_text_noise(self, E: np.ndarray, texts: Sequence[str]) -> np.ndarray:
        """Mix a deterministic per-text noise vector into each embedding, in place.

        Set by ``albert-sim`` (a little) and ``llama2-sim`` (a lot): raw LLM
        hidden states carry a lot of text-specific information that is
        irrelevant to sentence similarity, which is modelled here as a
        unit-norm pseudo-random direction keyed on the exact text.
        Paraphrases get *different* noise directions, which is precisely what
        degrades duplicate detection.  ``E`` is the float64 matrix
        :meth:`forward` just returned; each row is re-normalised
        (``math.sqrt(v.dot(v))`` is ``np.linalg.norm(v)`` for a real vector).
        """
        sigma = self.config.text_noise
        seed = self.config.seed
        for row, text in zip(E, texts):
            noise = np.random.default_rng(stable_token_hash(text, seed)).normal(size=row.shape[0])
            noise /= math.sqrt(noise.dot(noise))
            row += sigma * noise
            norm = math.sqrt(row.dot(row))
            if norm > 1e-12:
                row /= norm
        return E

    @property
    def embedding_dim(self) -> int:
        """Dimensionality of embeddings produced by :meth:`encode`."""
        if self.pca is not None:
            return self.pca.n_components
        return self.config.output_dim

    # ------------------------------------------------------------------ #
    # PCA compression head
    # ------------------------------------------------------------------ #
    def attach_pca(self, pca: PCA) -> None:
        """Attach a fitted PCA head (Figure 3-b: inference-time compression)."""
        if not pca.is_fitted:
            raise ValueError("PCA head must be fitted before attaching")
        if pca.n_features != self.config.output_dim:
            raise ValueError(
                f"PCA was fitted on {pca.n_features}-dim embeddings, "
                f"encoder outputs {self.config.output_dim}"
            )
        self.unfreeze()
        self.pca = pca

    def detach_pca(self) -> None:
        """Remove the PCA compression head."""
        self.unfreeze()
        self.pca = None

    def fit_pca(self, texts: Sequence[str], n_components: int = 64) -> PCA:
        """Learn a PCA head from the (uncompressed) embeddings of ``texts``.

        This implements Figure 3-a: embed the corpus, learn the principal
        components, and attach them as an additional projection layer.
        """
        self.unfreeze()
        E = self.encode(list(texts), compress=False)
        pca = PCA(n_components=n_components)
        pca.fit(E)
        self.attach_pca(pca)
        return pca

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train_on_pairs(
        self,
        pairs: Sequence[Tuple[str, str, int]],
        epochs: int = 1,
        batch_size: int = 32,
        optimizer: Optional[Optimizer] = None,
        margin: float = 1.3,
        mnr_scale: float = 20.0,
        contrastive_weight: float = 1.0,
        mnr_weight: float = 1.0,
        shuffle_seed: int = 0,
    ) -> List[float]:
        """Fine-tune the encoder on labelled query pairs.

        Parameters
        ----------
        pairs:
            Sequence of ``(query_a, query_b, label)`` with label 1 for
            duplicates and 0 for non-duplicates.
        epochs, batch_size:
            Standard minibatch training loop controls.
        optimizer:
            Defaults to :class:`repro.embeddings.optim.Adam` with lr=1e-2.

        Returns
        -------
        List of mean epoch losses (length ``epochs``).
        """
        self.unfreeze()
        if not pairs:
            return [0.0] * epochs
        optimizer = optimizer or Adam(lr=1e-2)
        rng = np.random.default_rng(shuffle_seed)
        texts_a = [p[0] for p in pairs]
        texts_b = [p[1] for p in pairs]
        labels = np.array([p[2] for p in pairs], dtype=np.float64)
        Xa = self.featurize(texts_a)
        Xb = self.featurize(texts_b)
        n = len(pairs)
        params = self.writable_parameters()
        epoch_losses: List[float] = []
        for _ in range(epochs):
            order = rng.permutation(n)
            losses: List[float] = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                cache_a: Dict[str, np.ndarray] = {}
                cache_b: Dict[str, np.ndarray] = {}
                Ea = self.forward(Xa[idx], cache_a)
                Eb = self.forward(Xb[idx], cache_b)
                loss, grad_a, grad_b = combined_multitask_loss(
                    Ea,
                    Eb,
                    labels[idx],
                    margin=margin,
                    mnr_scale=mnr_scale,
                    contrastive_weight=contrastive_weight,
                    mnr_weight=mnr_weight,
                )
                grads_a = self.backward(cache_a, grad_a)
                grads_b = self.backward(cache_b, grad_b)
                grads = [ga + gb for ga, gb in zip(grads_a, grads_b)]
                optimizer.step(params, grads)
                losses.append(loss)
            epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
        return epoch_losses

    # ------------------------------------------------------------------ #
    # Introspection / persistence helpers
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name -> array mapping of the parameters."""
        return dict(zip(self.PARAM_NAMES, self.get_parameters()))

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters from a :meth:`state_dict`-style mapping."""
        try:
            params = [state[name] for name in self.PARAM_NAMES]
        except KeyError as exc:  # pragma: no cover - defensive
            raise KeyError(f"missing parameter {exc} in state dict") from exc
        self.set_parameters(params)

    def clone(self) -> "SiameseEncoder":
        """Return a deep copy sharing no parameter storage with ``self``."""
        other = SiameseEncoder(self.config, self.featurizer)
        other.set_parameters(self.get_parameters())
        if self.pca is not None:
            other.pca = self.pca.clone()
        return other
