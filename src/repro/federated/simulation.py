"""End-to-end FL simulation harness (Flower's ``start_simulation`` analogue).

Builds the full experiment from a pair dataset: partitions data IID across
clients, instantiates per-client encoders, runs the server's round loop
(:meth:`~repro.federated.server.FLServer.fit`), and records the global-model
metric curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.datasets.partition import partition_pairs
from repro.datasets.semantic_pairs import QueryPairDataset
from repro.embeddings.model import SiameseEncoder
from repro.embeddings.zoo import load_encoder
from repro.federated.client import ClientConfig, FLClient
from repro.federated.sampling import ClientSampler, UniformSampler
from repro.federated.server import FLServer, RoundResult, ServerConfig


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a full FL simulation.

    Defaults mirror the paper's §IV-E setup scaled to the synthetic data:
    20 clients, 4 sampled per round, 6 local epochs, 50 rounds.
    """

    encoder_name: str = "mpnet-sim"
    n_clients: int = 20
    n_rounds: int = 50
    clients_per_round: int = 4
    local_epochs: int = 6
    batch_size: int = 128
    learning_rate: float = 1e-2
    initial_threshold: float = 0.7
    contrastive_weight: float = 1.0
    mnr_weight: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")


@dataclass
class SimulationResult:
    """Everything produced by a simulation run."""

    history: List[RoundResult]
    curves: Dict[str, np.ndarray]
    final_parameters: List[np.ndarray]
    final_threshold: float
    final_metrics: Dict[str, float]
    config: SimulationConfig

    @property
    def n_rounds(self) -> int:
        """Number of rounds actually executed."""
        return len(self.history)

    def improvement(self, metric: str = "precision") -> float:
        """Final-minus-initial value of a per-round metric curve."""
        series = self.curves.get(metric)
        if series is None or len(series) == 0:
            return 0.0
        finite = series[np.isfinite(series)]
        if len(finite) < 2:
            return 0.0
        return float(finite[-1] - finite[0])


class FLSimulation:
    """Builds clients + server from a dataset and runs the round loop."""

    def __init__(
        self,
        train_data: QueryPairDataset,
        val_data: QueryPairDataset,
        test_data: Optional[QueryPairDataset] = None,
        config: Optional[SimulationConfig] = None,
        sampler: Optional[ClientSampler] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        cfg = self.config
        self.train_data = train_data
        self.val_data = val_data
        self.test_data = test_data

        train_shards = partition_pairs(train_data, cfg.n_clients, seed=cfg.seed)
        val_shards = partition_pairs(val_data, cfg.n_clients, seed=cfg.seed + 1)

        client_config = ClientConfig(
            local_epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            contrastive_weight=cfg.contrastive_weight,
            mnr_weight=cfg.mnr_weight,
        )
        self.clients: List[FLClient] = []
        for i in range(cfg.n_clients):
            encoder = load_encoder(cfg.encoder_name)
            self.clients.append(
                FLClient(
                    client_id=f"client-{i:02d}",
                    train_data=train_shards[i],
                    val_data=val_shards[i],
                    encoder=encoder,
                    config=client_config,
                    seed=cfg.seed + 100 + i,
                )
            )

        global_encoder = load_encoder(cfg.encoder_name)
        server_config = ServerConfig(
            n_rounds=cfg.n_rounds,
            clients_per_round=cfg.clients_per_round,
            initial_threshold=cfg.initial_threshold,
        )
        test_pairs = test_data.as_tuples() if test_data is not None else None
        self.server = FLServer(
            global_encoder=global_encoder,
            clients=self.clients,
            config=server_config,
            sampler=sampler or UniformSampler(seed=cfg.seed),
            test_pairs=test_pairs,
            seed=cfg.seed,
        )

    # ------------------------------------------------------------------ #
    def run(self, n_rounds: Optional[int] = None) -> SimulationResult:
        """Execute the simulation and return curves + the final global state."""
        self.server.fit(n_rounds)
        curves = self.server.training_curves()
        final_metrics = self.server.evaluate_global()
        return SimulationResult(
            history=list(self.server.history),
            curves=curves,
            final_parameters=[p.copy() for p in self.server.global_parameters],
            final_threshold=self.server.global_threshold,
            final_metrics=final_metrics,
            config=self.config,
        )

    def trained_encoder(self) -> SiameseEncoder:
        """Return a fresh encoder loaded with the current global parameters."""
        encoder = load_encoder(self.config.encoder_name)
        encoder.set_parameters(self.server.global_parameters)
        return encoder
