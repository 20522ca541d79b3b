"""Integration-level tests: encoder zoo, full FL simulation, experiment smoke runs.

These use the real zoo encoders (loaded from their checkpoints once per
session) and the quick experiment scale, so they are the slowest tests in
the suite.
"""

import numpy as np
import pytest

from repro.datasets.semantic_pairs import generate_pair_dataset
from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.zoo import ENCODER_SPECS, load_encoder, spec_for
from repro.federated.simulation import FLSimulation, SimulationConfig


class TestZoo:
    def test_specs_cover_three_paper_models(self):
        assert set(ENCODER_SPECS) == {"mpnet-sim", "albert-sim", "llama2-sim"}

    def test_embedding_storage_matches_paper(self):
        # 768-d float64 -> 6 KB; 4096-d float64 -> 32 KB (paper Figure 15).
        assert spec_for("mpnet-sim").embedding_bytes == 6 * 1024
        assert spec_for("albert-sim").embedding_bytes == 6 * 1024
        assert spec_for("llama2-sim").embedding_bytes == 32 * 1024

    def test_unknown_encoder_rejected(self):
        with pytest.raises(KeyError):
            load_encoder("bert-sim")

    def test_pretrained_encoder_is_cached_and_deterministic(self, albert_encoder):
        again = load_encoder("albert-sim")
        text = "how do I sort a list in python"
        assert np.allclose(albert_encoder.encode(text), again.encode(text))

    def test_pretrained_beats_untrained_on_paraphrases(self, albert_encoder):
        raw = load_encoder("albert-sim", pretrained=False)
        q = "How can I sort a list in python?"
        dup = "What is the best way to order a python list?"
        neg = "How do I plan a trip to japan?"
        def gap(enc):
            return cosine_similarity(enc.encode(q), enc.encode(dup)) - cosine_similarity(
                enc.encode(q), enc.encode(neg)
            )
        assert gap(albert_encoder) > gap(raw)

    def test_llama_embedding_dim_and_quality(self):
        llama = load_encoder("llama2-sim")
        emb = llama.encode("a single query")
        assert emb.shape == (4096,)
        # The llama2 analogue must be a *worse* duplicate detector than the
        # pretrained small encoders (paper §IV-G).
        albert = load_encoder("albert-sim")
        q = "How can I sort a list in python?"
        dup = "What is the best way to order a python list?"
        neg = "How can I reverse a list in python?"
        gap_llama = cosine_similarity(llama.encode(q), llama.encode(dup)) - cosine_similarity(
            llama.encode(q), llama.encode(neg)
        )
        gap_albert = cosine_similarity(albert.encode(q), albert.encode(dup)) - cosine_similarity(
            albert.encode(q), albert.encode(neg)
        )
        assert gap_llama < gap_albert


class TestFLSimulation:
    @pytest.fixture(scope="class")
    def sim_result(self):
        pairs = generate_pair_dataset(n_pairs=240, seed=31)
        train, val, test = pairs.split(0.7, 0.15, seed=1)
        config = SimulationConfig(
            encoder_name="albert-sim",
            n_clients=4,
            n_rounds=2,
            clients_per_round=2,
            local_epochs=1,
            batch_size=64,
            seed=0,
        )
        sim = FLSimulation(train, val, test_data=test, config=config)
        return sim, sim.run()

    def test_runs_requested_rounds(self, sim_result):
        _, result = sim_result
        assert result.n_rounds == 2
        assert len(result.curves["round"]) == 2

    def test_threshold_in_range_and_metrics_present(self, sim_result):
        _, result = sim_result
        assert 0.0 <= result.final_threshold <= 1.0
        assert {"f_score", "precision", "recall", "accuracy"} <= set(result.final_metrics)

    def test_trained_encoder_differs_from_pretrained(self, sim_result):
        sim, result = sim_result
        pretrained = load_encoder("albert-sim")
        trained = sim.trained_encoder()
        assert any(
            not np.allclose(a, b)
            for a, b in zip(pretrained.get_parameters(), trained.get_parameters())
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_clients=0)

    def test_clients_hold_disjoint_iid_shards_of_the_training_data(self, sim_result):
        sim, _ = sim_result
        assert [c.client_id for c in sim.clients] == [f"client-{i:02d}" for i in range(4)]
        held = [id(p) for c in sim.clients for p in c.train_data.pairs]
        assert len(held) == len(set(held))
        assert set(held) == {id(p) for p in sim.train_data.pairs}
        sizes = [len(c.train_data) for c in sim.clients]
        assert max(sizes) - min(sizes) <= 1

    def test_clients_train_under_the_simulation_config(self, sim_result):
        sim, _ = sim_result
        cfg = sim.config
        for i, client in enumerate(sim.clients):
            assert client.seed == cfg.seed + 100 + i
            assert (client.config.local_epochs, client.config.batch_size) == (
                cfg.local_epochs,
                cfg.batch_size,
            )
            assert client.config.learning_rate == cfg.learning_rate

    def test_result_is_the_servers_final_state(self, sim_result):
        sim, result = sim_result
        assert result.history == sim.server.history
        assert result.final_threshold == sim.server.global_threshold
        for got, want in zip(result.final_parameters, sim.server.global_parameters, strict=True):
            assert got.tobytes() == want.tobytes()


class TestExperimentSmoke:
    """End-to-end smoke tests of the experiment harness at a tiny scale."""

    @pytest.fixture(scope="class")
    def tiny_bundle(self):
        from repro.experiments.common import ExperimentScale, build_system_bundle

        scale = ExperimentScale(
            name="tiny",
            n_pairs=240,
            n_cached=80,
            n_probes=80,
            fl_rounds=2,
            fl_clients=4,
            fl_clients_per_round=2,
            fl_local_epochs=1,
            contextual_cached_standalone=20,
            contextual_cached_followups=20,
            contextual_dup_standalone=15,
            contextual_dup_contextual=15,
            contextual_unique=20,
            compression_cache_sizes=(40, 80),
            latency_probe_count=30,
            threshold_grid=26,
        )
        return build_system_bundle(scale, seed=1, train_albert=False)

    def test_table1_runs_and_reports_all_systems(self, tiny_bundle):
        from repro.experiments.table1 import run_table1

        result = run_table1(bundle=tiny_bundle, include_albert=False)
        assert "GPTCache" in result.systems and "MeanCache (MPNet)" in result.systems
        for ev in result.systems.values():
            assert ev.matrix.total == tiny_bundle.scale.n_probes
        assert "Table I" in result.format()

    def test_contextual_experiment_context_check_reduces_trap_hits(self, tiny_bundle):
        from repro.experiments.contextual import run_contextual

        result = run_contextual(bundle=tiny_bundle)
        with_ctx = result.systems["MeanCache"].trap_false_hits
        without_ctx = result.systems["MeanCache (no context check)"].trap_false_hits
        assert with_ctx <= without_ctx

    def test_fig04_matches_paper_average(self):
        from repro.experiments.fig04_userstudy import run_fig04

        result = run_fig04()
        assert result.mean_rate == pytest.approx(0.31, abs=0.02)
        assert len(result.totals) == 20

    def test_fig05_latency_shape(self, tiny_bundle):
        from repro.experiments.fig05_latency import run_fig05

        result = run_fig05(bundle=tiny_bundle, n_probes=20)
        assert set(result.traces) == {"Llama 2", "Llama 2 + GPTCache", "Llama 2 + MeanCache"}
        # Cached configurations must be no slower than the raw service overall
        # and strictly faster on true duplicates.
        assert result.traces["Llama 2 + MeanCache"].mean_latency_s <= result.traces["Llama 2"].mean_latency_s * 1.2
        assert result.speedup_on_duplicates("Llama 2 + MeanCache") > 1.0

    def test_fig10_compression_saves_storage(self, tiny_bundle):
        from repro.experiments.fig10_compression import run_fig10

        result = run_fig10(bundle=tiny_bundle, include_albert=False, n_components=16)
        saving = result.storage_saving()
        assert saving > 0.5
        systems = result.systems()
        assert "GPTCache" in systems and "MeanCache-Compressed (MPNet)" in systems

    def test_fig11_curves_available(self, tiny_bundle):
        from repro.experiments.fig11_12_fl_training import run_fig11_12

        result = run_fig11_12(bundle=tiny_bundle, include_albert=False)
        assert len(result.mpnet.curves["precision"]) == tiny_bundle.scale.fl_rounds

    def test_fig13_threshold_sweep(self, tiny_bundle):
        from repro.experiments.fig13_14_threshold import run_fig13_14

        result = run_fig13_14(bundle=tiny_bundle, include_albert=False)
        assert 0.0 <= result.mpnet.optimal_metrics["threshold"] <= 1.0

    def test_fig15_model_cost_ordering(self):
        from repro.experiments.fig15_model_cost import run_fig15

        result = run_fig15(n_queries=20, repeats=1)
        llama = result.row("llama2-sim")
        mpnet = result.row("mpnet-sim")
        albert = result.row("albert-sim")
        assert llama.embedding_storage_kb == pytest.approx(32.0)
        assert mpnet.embedding_storage_kb == pytest.approx(6.0)
        # Llama-class embedding must cost more compute than the small models.
        assert llama.mean_embed_time_s > mpnet.mean_embed_time_s
        assert llama.mean_embed_time_s > albert.mean_embed_time_s

    def test_fig16_llama_is_weak(self, tiny_bundle):
        from repro.experiments.fig16_llama_threshold import run_fig16

        result = run_fig16(bundle=tiny_bundle)
        assert result.max_f1 < 0.9
