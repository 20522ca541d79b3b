"""The federated-learning server.

Orchestrates the synchronous round loop of Figure 2: sample clients, ship the
global parameters and threshold, collect :class:`ClientUpdate`s, aggregate
with FedAvg, average thresholds, and (optionally) evaluate the new global
model on a held-out server-side test set of labelled pairs — producing the
per-round metric curves of Figures 11 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.model import SiameseEncoder
from repro.federated.aggregation import aggregate_thresholds, fedavg
from repro.federated.client import ClientUpdate, FLClient
from repro.federated.sampling import ClientSampler, UniformSampler
from repro.federated.threshold import pair_similarities
from repro.metrics.classification import confusion_matrix


@dataclass(frozen=True)
class ServerConfig:
    """Round-loop configuration (paper §IV-E: 50 rounds, 4 of 20 clients)."""

    n_rounds: int = 50
    clients_per_round: int = 4
    initial_threshold: float = 0.7
    evaluation_beta: float = 0.5

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.clients_per_round < 1:
            raise ValueError("clients_per_round must be >= 1")
        if not 0.0 <= self.initial_threshold <= 1.0:
            raise ValueError("initial_threshold must be in [0, 1]")


@dataclass
class RoundResult:
    """Outcome of one FL round."""

    round_number: int
    participating_clients: List[str]
    global_threshold: float
    mean_client_loss: float
    evaluation: Dict[str, float] = field(default_factory=dict)


class FLServer:
    """Synchronous FL server with FedAvg aggregation."""

    def __init__(
        self,
        global_encoder: SiameseEncoder,
        clients: Sequence[FLClient],
        config: Optional[ServerConfig] = None,
        sampler: Optional[ClientSampler] = None,
        test_pairs: Optional[Sequence[Tuple[str, str, int]]] = None,
        seed: int = 0,
    ) -> None:
        if not clients:
            raise ValueError("the server needs at least one client")
        self.global_encoder = global_encoder
        self.clients: Dict[str, FLClient] = {c.client_id: c for c in clients}
        if len(self.clients) != len(clients):
            raise ValueError("client ids must be unique")
        self.config = config or ServerConfig()
        self.sampler = sampler or UniformSampler(seed=seed)
        self.test_pairs = list(test_pairs) if test_pairs else []
        self.global_parameters = global_encoder.get_parameters()
        self.global_threshold = self.config.initial_threshold
        self.history: List[RoundResult] = []

    # ------------------------------------------------------------------ #
    @property
    def client_ids(self) -> List[str]:
        """All registered client ids in a stable order."""
        return sorted(self.clients)

    def evaluate_global(self, threshold: Optional[float] = None) -> Dict[str, float]:
        """Evaluate the current global model on the server-side test pairs."""
        if not self.test_pairs:
            return {}
        tau = self.global_threshold if threshold is None else threshold
        self.global_encoder.set_parameters(self.global_parameters)
        sims, labels = pair_similarities(self.global_encoder, self.test_pairs)
        cm = confusion_matrix(labels, sims >= tau)
        metrics = cm.metrics(self.config.evaluation_beta)
        metrics["threshold"] = float(tau)
        return metrics

    def run_round(self, round_number: int) -> RoundResult:
        """Execute one FL round (steps 1–4 of Figure 2)."""
        selected = self.sampler.sample(self.client_ids, self.config.clients_per_round, round_number)
        updates: List[ClientUpdate] = []
        for cid in selected:
            client = self.clients[cid]
            update = client.fit(self.global_parameters, self.global_threshold, round_number)
            updates.append(update)

        self.apply_updates(updates)
        evaluation = self.evaluate_global()
        result = RoundResult(
            round_number=round_number,
            participating_clients=selected,
            global_threshold=self.global_threshold,
            mean_client_loss=float(np.mean([u.train_loss for u in updates])) if updates else 0.0,
            evaluation=evaluation,
        )
        self.history.append(result)
        return result

    def apply_updates(self, updates: Sequence[ClientUpdate]) -> None:
        """Aggregate a set of client updates into the global state."""
        if not updates:
            raise ValueError("cannot aggregate an empty update set")
        parameter_sets = [u.parameters for u in updates]
        weights = [float(u.num_samples) for u in updates]
        self.global_parameters = fedavg(parameter_sets, weights)
        self.global_threshold = aggregate_thresholds([u.local_threshold for u in updates])
        self.global_encoder.set_parameters(self.global_parameters)

    def fit(self, n_rounds: Optional[int] = None) -> List[RoundResult]:
        """Run the full round loop and return the per-round history."""
        rounds = self.config.n_rounds if n_rounds is None else n_rounds
        for r in range(rounds):
            self.run_round(r)
        return self.history

    def training_curves(self) -> Dict[str, np.ndarray]:
        """Per-round metric series (the Figures 11/12 curves)."""
        if not self.history:
            return {}
        keys = ["f1", "f_score", "precision", "recall", "accuracy"]
        curves: Dict[str, np.ndarray] = {
            "round": np.array([r.round_number for r in self.history], dtype=np.int64),
            "threshold": np.array([r.global_threshold for r in self.history]),
            "client_loss": np.array([r.mean_client_loss for r in self.history]),
        }
        for key in keys:
            curves[key] = np.array([r.evaluation.get(key, np.nan) for r in self.history])
        return curves
