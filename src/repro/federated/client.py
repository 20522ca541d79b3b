"""The federated-learning client.

Each client owns a private shard of labelled query pairs (its own querying
history).  Per round it:

1. loads the global encoder weights it received,
2. fine-tunes locally for ``local_epochs`` epochs with the multitask loss
   (:meth:`~repro.embeddings.model.SiameseEncoder.train_on_pairs`, the loop
   zoo pretraining runs too),
3. searches its validation pairs for the locally-optimal cosine threshold,
4. returns (updated weights, threshold, sample count, training loss).

Nothing but the weight arrays, the scalar threshold and aggregate counts ever
leaves the client — queries stay local, which is the privacy property the
paper's design targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.semantic_pairs import QueryPairDataset
from repro.embeddings.model import SiameseEncoder
from repro.embeddings.optim import Adam
from repro.federated.threshold import find_optimal_threshold


@dataclass(frozen=True)
class ClientConfig:
    """Local-training hyper-parameters (paper §IV-E: 6 epochs, batch 128/256)."""

    local_epochs: int = 6
    batch_size: int = 128
    learning_rate: float = 1e-2
    margin: float = 1.3
    mnr_scale: float = 20.0
    contrastive_weight: float = 1.0
    mnr_weight: float = 1.0
    threshold_beta: float = 0.5
    threshold_grid: int = 101

    def __post_init__(self) -> None:
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class ClientUpdate:
    """What a client sends back to the server after local training."""

    client_id: str
    parameters: List[np.ndarray]
    num_samples: int
    local_threshold: float
    train_loss: float
    metrics: Dict[str, float] = field(default_factory=dict)


class FLClient:
    """A simulated user device participating in FL training."""

    def __init__(
        self,
        client_id: str,
        train_data: QueryPairDataset,
        val_data: QueryPairDataset,
        encoder: SiameseEncoder,
        config: Optional[ClientConfig] = None,
        seed: int = 0,
    ) -> None:
        self.client_id = client_id
        self.train_data = train_data
        self.val_data = val_data
        self.encoder = encoder
        self.config = config or ClientConfig()
        self.seed = seed

    # ------------------------------------------------------------------ #
    @property
    def num_train_samples(self) -> int:
        """Number of local training pairs (the FedAvg weight ``n_k``)."""
        return len(self.train_data)

    def _local_train(self) -> float:
        """Run local epochs; returns the mean loss of the final epoch."""
        cfg = self.config
        losses = self.encoder.train_on_pairs(
            self.train_data.as_tuples(),
            epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
            optimizer=Adam(lr=cfg.learning_rate),
            margin=cfg.margin,
            mnr_scale=cfg.mnr_scale,
            contrastive_weight=cfg.contrastive_weight,
            mnr_weight=cfg.mnr_weight,
            shuffle_seed=self.seed,
        )
        return losses[-1] if losses else 0.0

    def fit(
        self,
        global_parameters: Sequence[np.ndarray],
        global_threshold: float,
        round_number: int = 0,
    ) -> ClientUpdate:
        """One FL round of local work (steps 2–3 of Figure 2)."""
        self.encoder.set_parameters(list(global_parameters))
        train_loss = self._local_train()
        thresholds = np.linspace(0.0, 1.0, self.config.threshold_grid)
        # The threshold is tuned against the client's deployed cache
        # behaviour: validation pairs provide labelled probes, while the
        # client's full local query history (training queries) pads the
        # scratch cache so the best-match score distribution matches what the
        # real cache will see.
        history = [p.query_a for p in self.train_data.pairs]
        local_threshold = find_optimal_threshold(
            self.encoder,
            self.val_data.as_tuples(),
            thresholds=thresholds,
            beta=self.config.threshold_beta,
            default=global_threshold,
            extra_cache_texts=history,
        )
        return ClientUpdate(
            client_id=self.client_id,
            parameters=self.encoder.get_parameters(),
            num_samples=max(self.num_train_samples, 1),
            local_threshold=local_threshold,
            train_loss=train_loss,
            metrics={"round": float(round_number)},
        )

    def evaluate(
        self,
        global_parameters: Sequence[np.ndarray],
        threshold: float,
        beta: float = 0.5,
    ) -> Dict[str, float]:
        """Evaluate the global model on this client's validation pairs."""
        from repro.federated.threshold import pair_similarities
        from repro.metrics.classification import confusion_matrix

        self.encoder.set_parameters(list(global_parameters))
        pairs = self.val_data.as_tuples()
        if not pairs:
            return {"f_score": 0.0, "precision": 0.0, "recall": 0.0, "accuracy": 0.0, "n": 0.0}
        sims, labels = pair_similarities(self.encoder, pairs)
        cm = confusion_matrix(labels, sims >= threshold)
        metrics = cm.metrics(beta)
        metrics["n"] = float(len(pairs))
        return metrics
