"""Tests for the federated-learning substrate."""

import numpy as np
import pytest

from conftest import make_tiny_encoder
from repro.datasets.semantic_pairs import QueryPairDataset, generate_pair_dataset
from repro.embeddings.optim import Adam
from repro.federated.aggregation import aggregate_thresholds, fedavg
from repro.federated.client import ClientConfig, FLClient
from repro.federated.sampling import ClientSampler, UniformSampler
from repro.federated.server import FLServer, ServerConfig
from repro.federated.threshold import (
    cache_mode_threshold_sweep,
    find_optimal_threshold,
    score_sweep,
    threshold_sweep,
)


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
class TestFedAvg:
    def test_equal_weights_is_plain_mean(self):
        a = [np.ones((2, 2)), np.zeros(3)]
        b = [3 * np.ones((2, 2)), np.ones(3)]
        out = fedavg([a, b], [1, 1])
        assert np.allclose(out[0], 2.0)
        assert np.allclose(out[1], 0.5)

    def test_sample_weighting(self):
        a = [np.zeros(2)]
        b = [np.ones(2)]
        out = fedavg([a, b], [1, 3])
        assert np.allclose(out[0], 0.75)

    def test_single_client_identity(self, rng):
        a = [rng.normal(size=(3, 3))]
        out = fedavg([a], [10])
        assert np.allclose(out[0], a[0])

    def test_preserves_convex_hull(self, rng):
        clients = [[rng.normal(size=4)] for _ in range(5)]
        out = fedavg(clients, [1, 2, 3, 4, 5])[0]
        stacked = np.stack([c[0] for c in clients])
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            fedavg([], [])
        with pytest.raises(ValueError):
            fedavg([[np.ones(2)]], [1, 2])
        with pytest.raises(ValueError):
            fedavg([[np.ones(2)], [np.ones(3)]], [1, 1])
        with pytest.raises(ValueError):
            fedavg([[np.ones(2)], [np.ones(2)]], [0, 0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fedavg([[np.ones(2)], [np.ones(2)]], [3, -1])

    def test_zero_weight_client_is_ignored(self):
        out = fedavg([[np.full(3, 2.0)], [np.full(3, 100.0)]], [5, 0])
        assert np.array_equal(out[0], np.full(3, 2.0))

    def test_client_order_does_not_matter(self, rng):
        clients = [[rng.normal(size=(2, 3)), rng.normal(size=4)] for _ in range(4)]
        weights = [3, 1, 4, 2]
        forward = fedavg(clients, weights)
        backward = fedavg(clients[::-1], weights[::-1])
        for a, b in zip(forward, backward, strict=True):
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_returns_fresh_float64_arrays(self):
        a = [np.ones(3, dtype=np.float32)]
        out = fedavg([a], [1])
        assert out[0].dtype == np.float64
        out[0][0] = 7.0
        assert a[0][0] == 1.0  # the client's arrays are not aliased


class TestThresholdAggregation:
    def test_plain_mean(self):
        assert aggregate_thresholds([0.7, 0.9]) == pytest.approx(0.8)

    def test_weighted_mean(self):
        assert aggregate_thresholds([0.6, 1.0], num_samples=[3, 1], weighted=True) == pytest.approx(0.7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            aggregate_thresholds([1.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_thresholds([])

    def test_negative_sample_count_rejected(self):
        """A single negative weight must fail loudly, not skew the mean.

        The sum check alone passes [30, -10, 1] (sum 21 > 0) while the
        weighted mean it produces can leave the clients' threshold range.
        """
        with pytest.raises(ValueError, match="negative"):
            aggregate_thresholds([0.6, 0.8, 0.7], num_samples=[30, -10, 1], weighted=True)

    def test_weighted_requires_one_count_per_threshold(self):
        with pytest.raises(ValueError, match="one sample count"):
            aggregate_thresholds([0.6, 0.8], weighted=True)
        with pytest.raises(ValueError, match="one sample count"):
            aggregate_thresholds([0.6, 0.8], num_samples=[1], weighted=True)

    def test_weighted_zero_total_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            aggregate_thresholds([0.6, 0.8], num_samples=[0, 0], weighted=True)

    def test_plain_mean_ignores_sample_counts(self):
        assert aggregate_thresholds([0.6, 1.0], num_samples=[3, 1]) == pytest.approx(0.8)

    def test_weighted_equals_unweighted_for_equal_counts(self):
        """Parity: equal per-client counts reduce to the plain mean."""
        thresholds = [0.55, 0.7, 0.85, 0.6]
        assert aggregate_thresholds(
            thresholds, num_samples=[7, 7, 7, 7], weighted=True
        ) == pytest.approx(aggregate_thresholds(thresholds))


# --------------------------------------------------------------------------- #
# Sampling
# --------------------------------------------------------------------------- #
class TestSamplers:
    CLIENTS = [f"c{i}" for i in range(10)]

    def test_uniform_no_duplicates_and_deterministic_seed(self):
        a = UniformSampler(seed=1).sample(self.CLIENTS, 4, 0)
        b = UniformSampler(seed=1).sample(self.CLIENTS, 4, 0)
        assert len(set(a)) == 4
        assert a == b

    def test_uniform_caps_at_population(self):
        assert len(UniformSampler(seed=0).sample(self.CLIENTS, 50, 0)) == 10

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            UniformSampler().sample([], 1, 0)

    def test_uniform_rounds_draw_from_one_stream(self):
        """Successive rounds of one sampler differ; a same-seeded sampler
        replays the whole sequence."""
        a = UniformSampler(seed=3)
        b = UniformSampler(seed=3)
        rounds_a = [a.sample(self.CLIENTS, 4, r) for r in range(5)]
        rounds_b = [b.sample(self.CLIENTS, 4, r) for r in range(5)]
        assert rounds_a == rounds_b
        assert len({tuple(r) for r in rounds_a}) > 1

    def test_uniform_seeds_differ(self):
        draws = {tuple(UniformSampler(seed=s).sample(self.CLIENTS, 4, 0)) for s in range(6)}
        assert len(draws) > 1

    def test_uniform_selects_every_client_about_equally(self):
        sampler = UniformSampler(seed=0)
        counts = dict.fromkeys(self.CLIENTS, 0)
        for r in range(2000):
            for cid in sampler.sample(self.CLIENTS, 4, r):
                counts[cid] += 1
        # Expected 800 picks each (2000 rounds x 4 / 10 clients).
        assert all(700 < c < 900 for c in counts.values())

    def test_base_sampler_is_an_interface(self):
        with pytest.raises(NotImplementedError):
            ClientSampler().sample(self.CLIENTS, 1, 0)

    @pytest.mark.parametrize(
        "sampler_factory", [lambda: UniformSampler(seed=0)], ids=["uniform"]
    )
    def test_all_samplers_cap_at_population_and_reject_zero(self, sampler_factory):
        """Shared edge cases: n > len(clients) caps, n == 0 raises."""
        sampler = sampler_factory()
        picked = sampler.sample(self.CLIENTS, len(self.CLIENTS) + 25, 0)
        assert sorted(picked) == sorted(self.CLIENTS)  # capped, no duplicates
        with pytest.raises(ValueError):
            sampler_factory().sample(self.CLIENTS, 0, 0)


# --------------------------------------------------------------------------- #
# Threshold search
# --------------------------------------------------------------------------- #
class TestThresholdSearch:
    def _pairs(self):
        return [
            ("How can I sort a list in python?", "What is the best way to order a python list?", 1),
            ("Tips for how to bake chocolate chip cookies", "How do I make cookies with chocolate chips?", 1),
            ("How do I extend my phone battery life?", "Tips for improving my smartphone battery", 1),
            ("How can I sort a list in python?", "How do I plan a trip to japan?", 0),
            ("Tips for how to bake chocolate chip cookies", "How do I reset my wifi router?", 0),
            ("How do I extend my phone battery life?", "How do I write a cover letter?", 0),
        ] * 4

    def test_pairwise_sweep_curves_monotone_recall(self, tiny_encoder):
        sweep = threshold_sweep(tiny_encoder, self._pairs(), thresholds=np.linspace(0, 1, 21))
        # Recall is non-increasing in the threshold.
        assert np.all(np.diff(sweep.recalls) <= 1e-12)
        assert 0.0 <= sweep.optimal_threshold <= 1.0

    def test_recall_one_at_zero_threshold(self, tiny_encoder):
        sweep = threshold_sweep(tiny_encoder, self._pairs(), thresholds=np.array([0.0]))
        assert sweep.recalls[0] == pytest.approx(1.0)

    def test_cache_mode_sweep_runs_and_selects_valid_tau(self, tiny_encoder):
        sweep = cache_mode_threshold_sweep(tiny_encoder, self._pairs(), thresholds=np.linspace(0, 1, 21))
        assert 0.0 <= sweep.optimal_threshold <= 1.0
        assert sweep.metadata["mode"] == 1.0

    def test_cache_mode_extra_history_changes_nothing_for_empty(self, tiny_encoder):
        pairs = self._pairs()
        a = cache_mode_threshold_sweep(tiny_encoder, pairs)
        b = cache_mode_threshold_sweep(tiny_encoder, pairs, extra_cache_texts=[])
        assert a.optimal_threshold == b.optimal_threshold

    def _sweep_scores(self, monkeypatch, cache_embs, probe_embs):
        """The best-match score per probe the cache-mode sweep hands on."""
        import repro.federated.threshold as threshold

        class Encoder:
            def encode(self, texts, compress=True):
                return cache_embs if texts[0] == "cached" else probe_embs

        seen = {}
        monkeypatch.setattr(
            threshold, "score_sweep", lambda scores, labels, **kw: seen.setdefault("s", scores)
        )
        pairs = [("cached", "probe", 1)] * len(probe_embs)
        cache_mode_threshold_sweep(
            Encoder(), pairs, extra_cache_texts=["cached"] * (len(cache_embs) - len(pairs))
        )
        return seen["s"]

    def test_cache_mode_sweep_scores_the_best_finite_similarity(self, monkeypatch):
        rng = np.random.default_rng(2)
        cache = rng.standard_normal((5, 8))
        probes = rng.standard_normal((3, 8))
        probes[1] = cache[3]
        want = (probes / np.linalg.norm(probes, axis=1, keepdims=True)) @ (
            cache / np.linalg.norm(cache, axis=1, keepdims=True)
        ).T
        cache[0] = np.nan  # a non-finite row is skipped, not propagated
        best = self._sweep_scores(monkeypatch, cache, probes)
        assert best.tolist() == pytest.approx(want[:, 1:].max(axis=1).tolist(), abs=1e-12)
        assert best[1] == pytest.approx(1.0)

    def test_cache_mode_sweep_scores_a_probe_with_no_finite_similarity_minus_one(
        self, monkeypatch
    ):
        rng = np.random.default_rng(3)
        cache = rng.standard_normal((4, 8))
        probes = rng.standard_normal((3, 8))
        probes[2] = np.nan
        best = self._sweep_scores(monkeypatch, cache, probes)
        assert best[2] == -1.0
        assert np.all(np.isfinite(best)) and np.all(best[:2] > -1.0)

    def test_find_optimal_threshold_is_the_cache_mode_optimum(self, tiny_encoder):
        pairs = self._pairs()
        grid = np.linspace(0, 1, 21)
        history = ["How do I fix a flat bicycle tire?", "Best way to learn piano"]
        want = cache_mode_threshold_sweep(
            tiny_encoder, pairs, thresholds=grid, beta=0.5, extra_cache_texts=history
        ).optimal_threshold
        got = find_optimal_threshold(
            tiny_encoder, pairs, thresholds=grid, beta=0.5, extra_cache_texts=history
        )
        assert got == want

    def test_find_optimal_threshold_only_negatives_returns_default(self, tiny_encoder):
        only_neg = [("a b c", "x y z", 0), ("d e f", "u v w", 0)]
        assert find_optimal_threshold(tiny_encoder, only_neg, default=0.42) == 0.42

    def test_find_optimal_threshold_defaults(self, tiny_encoder):
        assert find_optimal_threshold(tiny_encoder, [], default=0.66) == 0.66
        only_pos = [("a b c", "a b c d", 1)]
        assert find_optimal_threshold(tiny_encoder, only_pos, default=0.66) == 0.66

    def test_trained_encoder_has_higher_optimum_than_random_guess(self, tiny_encoder):
        pairs = self._pairs()
        tiny_encoder.train_on_pairs(pairs, epochs=5, batch_size=8)
        sweep = threshold_sweep(tiny_encoder, pairs)
        assert sweep.f_scores[sweep.optimal_index] > 0.8

    def test_score_sweep_matches_pairwise_sweep(self, tiny_encoder):
        """The extracted score-space core reproduces the encoder sweep."""
        from repro.federated.threshold import pair_similarities

        pairs = self._pairs()
        grid = np.linspace(0, 1, 21)
        via_encoder = threshold_sweep(tiny_encoder, pairs, thresholds=grid)
        sims, labels = pair_similarities(tiny_encoder, pairs)
        via_scores = score_sweep(sims, labels, thresholds=grid)
        assert via_scores.optimal_threshold == via_encoder.optimal_threshold
        assert np.allclose(via_scores.f_scores, via_encoder.f_scores)
        assert np.allclose(via_scores.precisions, via_encoder.precisions)

    def test_score_sweep_validation(self):
        with pytest.raises(ValueError):
            score_sweep(np.array([0.5]), np.array([True]), thresholds=np.array([]))
        with pytest.raises(ValueError):
            score_sweep(np.array([0.5]), np.array([True]), thresholds=np.array([1.5]))
        with pytest.raises(ValueError):
            score_sweep(np.array([0.5, 0.6]), np.array([True]))

    def test_score_sweep_separable_scores_find_the_gap(self):
        scores = np.array([0.9, 0.95, 0.85, 0.2, 0.3, 0.25])
        labels = np.array([True, True, True, False, False, False])
        sweep = score_sweep(scores, labels, thresholds=np.linspace(0, 1, 101), beta=1.0)
        assert 0.3 < sweep.optimal_threshold <= 0.85
        assert sweep.f_scores[sweep.optimal_index] == pytest.approx(1.0)
        assert sweep.metadata["positive_fraction"] == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# Client / server round trip
# --------------------------------------------------------------------------- #
def _make_clients(n_clients=3, pairs_per_client=24):
    dataset = generate_pair_dataset(n_pairs=n_clients * pairs_per_client, seed=17)
    shards = [
        QueryPairDataset(dataset.pairs[i::n_clients], seed=i) for i in range(n_clients)
    ]
    clients = []
    for i, shard in enumerate(shards):
        train, val, _ = shard.split(0.6, 0.3, seed=i)
        clients.append(
            FLClient(
                client_id=f"client-{i}",
                train_data=train,
                val_data=val,
                encoder=make_tiny_encoder(seed=5),
                config=ClientConfig(local_epochs=1, batch_size=16, threshold_grid=21),
                seed=i,
            )
        )
    return clients


class _FirstClientsSampler(ClientSampler):
    """Picks the first ``n`` client ids, so a test chooses the participants."""

    def sample(self, client_ids, n, round_number):
        return list(client_ids[: self._check(client_ids, n)])


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        [{"local_epochs": -1}, {"batch_size": 0}, {"learning_rate": 0.0}],
        ids=["negative_epochs", "zero_batch", "zero_lr"],
    )
    def test_invalid_client_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClientConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_rounds": 0}, {"clients_per_round": 0}, {"initial_threshold": 1.5}],
        ids=["zero_rounds", "zero_clients", "threshold_above_one"],
    )
    def test_invalid_server_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)


class TestFLClientServer:
    def test_client_fit_returns_update(self):
        client = _make_clients(1)[0]
        global_params = make_tiny_encoder(seed=5).get_parameters()
        update = client.fit(global_params, 0.7, round_number=0)
        assert update.num_samples == max(len(client.train_data), 1)
        assert 0.0 <= update.local_threshold <= 1.0
        assert len(update.parameters) == 4
        # Local training must actually change the weights.
        assert any(not np.allclose(p, g) for p, g in zip(update.parameters, global_params))

    def test_client_fit_is_the_encoders_training_then_threshold_search(self):
        """A client's local work is ``train_on_pairs`` under its config and
        seed, then the cache-mode τ search: the returned weights are
        byte-equal to that reference, and so are the loss and τ."""
        client = _make_clients(1)[0]
        cfg = ClientConfig(
            local_epochs=2,
            batch_size=8,
            learning_rate=5e-3,
            margin=1.1,
            mnr_scale=15.0,
            contrastive_weight=0.5,
            mnr_weight=2.0,
            threshold_grid=21,
        )
        client.config = cfg
        global_params = make_tiny_encoder(seed=5).get_parameters()
        update = client.fit(global_params, 0.7)

        reference = make_tiny_encoder(seed=5)
        reference.set_parameters(global_params)
        losses = reference.train_on_pairs(
            client.train_data.as_tuples(),
            epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
            optimizer=Adam(lr=cfg.learning_rate),
            margin=cfg.margin,
            mnr_scale=cfg.mnr_scale,
            contrastive_weight=cfg.contrastive_weight,
            mnr_weight=cfg.mnr_weight,
            shuffle_seed=client.seed,
        )
        for got, want in zip(update.parameters, reference.get_parameters(), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert update.train_loss == losses[-1]
        tau = find_optimal_threshold(
            reference,
            client.val_data.as_tuples(),
            thresholds=np.linspace(0.0, 1.0, cfg.threshold_grid),
            beta=cfg.threshold_beta,
            default=0.7,
            extra_cache_texts=[p.query_a for p in client.train_data.pairs],
        )
        assert update.local_threshold == tau

    def test_client_zero_epochs_keeps_global_weights(self):
        client = _make_clients(1)[0]
        client.config = ClientConfig(local_epochs=0, threshold_grid=21)
        global_params = make_tiny_encoder(seed=5).get_parameters()
        update = client.fit(global_params, 0.7)
        assert all(np.allclose(p, g) for p, g in zip(update.parameters, global_params))

    def test_client_evaluate_returns_metrics(self):
        client = _make_clients(1)[0]
        metrics = client.evaluate(make_tiny_encoder(seed=5).get_parameters(), threshold=0.7)
        assert set(metrics) >= {"f_score", "precision", "recall", "accuracy"}

    def test_server_round_updates_global_state(self):
        clients = _make_clients(3)
        test_pairs = generate_pair_dataset(n_pairs=40, seed=5).as_tuples()
        server = FLServer(
            global_encoder=make_tiny_encoder(seed=5),
            clients=clients,
            config=ServerConfig(n_rounds=2, clients_per_round=2, initial_threshold=0.7),
            test_pairs=test_pairs,
            seed=0,
        )
        initial_params = [p.copy() for p in server.global_parameters]
        result = server.run_round(0)
        assert len(result.participating_clients) == 2
        assert 0.0 <= server.global_threshold <= 1.0
        assert any(
            not np.allclose(p, q) for p, q in zip(initial_params, server.global_parameters)
        )
        assert "f_score" in result.evaluation

    def test_server_fit_builds_history_and_curves(self):
        clients = _make_clients(3)
        server = FLServer(
            global_encoder=make_tiny_encoder(seed=5),
            clients=clients,
            config=ServerConfig(n_rounds=2, clients_per_round=2),
            test_pairs=generate_pair_dataset(n_pairs=30, seed=6).as_tuples(),
            seed=1,
        )
        history = server.fit()
        assert len(history) == 2
        curves = server.training_curves()
        assert len(curves["round"]) == 2
        assert "precision" in curves

    def test_client_fit_is_deterministic_from_the_global_state(self):
        """A client restarts from the weights it is sent: two fits from one
        global state return byte-equal updates."""
        client = _make_clients(1)[0]
        global_params = make_tiny_encoder(seed=5).get_parameters()
        first = client.fit(global_params, 0.7)
        second = client.fit(global_params, 0.7)
        for a, b in zip(first.parameters, second.parameters, strict=True):
            assert a.tobytes() == b.tobytes()
        assert (first.train_loss, first.local_threshold) == (
            second.train_loss,
            second.local_threshold,
        )

    def test_server_round_uses_the_injected_sampler(self):
        clients = _make_clients(3)
        server = FLServer(
            make_tiny_encoder(seed=5),
            clients,
            config=ServerConfig(n_rounds=1, clients_per_round=2),
            sampler=_FirstClientsSampler(),
        )
        result = server.run_round(0)
        assert result.participating_clients == ["client-0", "client-1"]
        assert result.evaluation == {}  # no server-side test pairs

    def test_server_round_is_fedavg_of_the_client_updates(self):
        """One round's global state is FedAvg of the selected clients' fits
        and the plain mean of their thresholds."""
        clients = _make_clients(2)
        server = FLServer(
            make_tiny_encoder(seed=5),
            clients,
            config=ServerConfig(n_rounds=1, clients_per_round=2, initial_threshold=0.7),
            sampler=_FirstClientsSampler(),
        )
        start = [p.copy() for p in server.global_parameters]
        result = server.run_round(0)

        replay = _make_clients(2)
        updates = [c.fit(start, 0.7, 0) for c in replay]
        want = fedavg([u.parameters for u in updates], [u.num_samples for u in updates])
        for got, exp in zip(server.global_parameters, want, strict=True):
            assert got.tobytes() == exp.tobytes()
        assert server.global_threshold == pytest.approx(
            np.mean([u.local_threshold for u in updates])
        )
        assert result.mean_client_loss == pytest.approx(
            np.mean([u.train_loss for u in updates])
        )

    def test_server_fit_rounds_argument_overrides_config(self):
        server = FLServer(
            make_tiny_encoder(seed=5),
            _make_clients(2),
            config=ServerConfig(n_rounds=5, clients_per_round=1),
            seed=2,
        )
        history = server.fit(1)
        assert [r.round_number for r in history] == [0]
        assert server.training_curves()["round"].tolist() == [0]

    def test_server_requires_unique_client_ids(self):
        clients = _make_clients(2)
        clients[1].client_id = clients[0].client_id
        with pytest.raises(ValueError):
            FLServer(make_tiny_encoder(), clients)

    def test_server_rejects_empty_updates(self):
        server = FLServer(make_tiny_encoder(seed=5), _make_clients(1))
        with pytest.raises(ValueError):
            server.apply_updates([])

    def test_fedavg_of_identical_updates_is_identity(self):
        clients = _make_clients(2)
        server = FLServer(make_tiny_encoder(seed=5), clients, seed=0)
        params = server.global_parameters
        from repro.federated.client import ClientUpdate

        updates = [
            ClientUpdate("a", [p.copy() for p in params], 10, 0.8, 0.0),
            ClientUpdate("b", [p.copy() for p in params], 30, 0.6, 0.0),
        ]
        server.apply_updates(updates)
        assert all(np.allclose(p, q) for p, q in zip(params, server.global_parameters))
        assert server.global_threshold == pytest.approx(0.7)
