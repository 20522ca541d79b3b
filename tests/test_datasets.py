"""Tests for the synthetic dataset generators (corpus, pairs, workloads,
contextual conversations, user study, partitioning)."""

import numpy as np
import pytest

from repro.datasets.contextual import FOLLOWUP_TEMPLATES, generate_contextual_dataset
from repro.datasets.corpus import Corpus, QueryIntent, TEMPLATES
from repro.datasets.paraphrase import Paraphraser
from repro.datasets.partition import partition_iid, partition_pairs
from repro.datasets.semantic_pairs import generate_cache_workload, generate_pair_dataset
from repro.datasets.userstudy import (
    FIGURE4_PARTICIPANT_COUNTS,
    generate_user_study,
    mean_duplicate_rate,
    study_summary,
)


class TestCorpus:
    def test_has_many_intents(self, corpus):
        assert len(corpus) > 1000

    def test_domain_restriction(self):
        sub = Corpus(seed=0, domains=["programming", "cooking"])
        assert set(sub.domains) == {"programming", "cooking"}
        assert all(i.domain in {"programming", "cooking"} for i in sub.intents)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            Corpus(domains=["astrology"])

    def test_realize_contains_action_or_synonym_and_object_words(self, corpus):
        intent = QueryIntent("programming", "sort", "a list in python")
        text = corpus.realize(intent, rng=np.random.default_rng(0)).lower()
        assert any(syn in text for syn in corpus.action_synonyms(intent))
        assert "list" in text or "array" in text

    def test_realize_deterministic_with_pinned_indices(self, corpus):
        intent = corpus.intents[0]
        a = corpus.realize(intent, template_index=2, action_index=0, object_index=0, filler_index=0)
        b = corpus.realize(intent, template_index=2, action_index=0, object_index=0, filler_index=0)
        assert a == b

    def test_hard_negative_same_domain(self, corpus, rng):
        intent = corpus.intents[10]
        neg = corpus.hard_negative(intent, rng)
        assert neg.domain == intent.domain and neg != intent

    def test_easy_negative_other_domain(self, corpus, rng):
        intent = corpus.intents[10]
        neg = corpus.easy_negative(intent, rng)
        assert neg.domain != intent.domain

    def test_object_keys_cover_all_intents(self, corpus):
        keys = set(corpus.object_keys())
        assert all(i.object_key in keys for i in corpus.intents)

    def test_sample_intents_without_replacement(self, corpus, rng):
        sample = corpus.sample_intents(50, rng)
        assert len({i.key for i in sample}) == 50


class TestParaphraser:
    def test_pair_is_distinct_but_same_intent(self, corpus):
        para = Paraphraser(corpus, seed=1)
        intent = corpus.intents[5]
        q1, q2 = para.realization_pair(intent)
        assert q1 != q2


class TestPairDataset:
    def test_sizes_and_fractions(self):
        ds = generate_pair_dataset(n_pairs=200, duplicate_fraction=0.4, seed=1)
        assert len(ds) == 200
        assert ds.duplicate_fraction == pytest.approx(0.4, abs=0.01)

    def test_duplicate_pairs_share_intent(self):
        ds = generate_pair_dataset(n_pairs=100, seed=2)
        for pair in ds.pairs:
            if pair.label == 1:
                assert pair.intent_a == pair.intent_b
            else:
                assert pair.intent_a != pair.intent_b

    def test_hard_negatives_share_domain(self):
        ds = generate_pair_dataset(n_pairs=200, hard_negative_fraction=1.0, seed=3)
        negs = [p for p in ds.pairs if p.label == 0]
        assert negs
        assert all(p.intent_a.split("|")[0] == p.intent_b.split("|")[0] for p in negs if p.hard_negative)

    def test_split_partitions_everything(self):
        ds = generate_pair_dataset(n_pairs=120, seed=4)
        train, val, test = ds.split(0.7, 0.15, seed=0)
        assert len(train) + len(val) + len(test) == 120
        assert len(test) > 0

    def test_split_fraction_validation(self):
        ds = generate_pair_dataset(n_pairs=20, seed=4)
        with pytest.raises(ValueError):
            ds.split(0.9, 0.2)

    def test_balanced_is_balanced(self):
        ds = generate_pair_dataset(n_pairs=150, duplicate_fraction=0.3, seed=5)
        balanced = ds.balanced()
        assert balanced.duplicate_fraction == pytest.approx(0.5)

    def test_subsample(self):
        ds = generate_pair_dataset(n_pairs=100, seed=6)
        assert len(ds.subsample(30)) == 30
        assert len(ds.subsample(500)) == 100

    def test_deterministic_generation(self):
        a = generate_pair_dataset(n_pairs=50, seed=9)
        b = generate_pair_dataset(n_pairs=50, seed=9)
        assert [p.query_a for p in a.pairs] == [p.query_a for p in b.pairs]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_pair_dataset(n_pairs=0)
        with pytest.raises(ValueError):
            generate_pair_dataset(duplicate_fraction=1.5)


class TestCacheWorkload:
    def test_composition(self, small_workload):
        assert small_workload.n_cached == 60
        assert small_workload.n_probes == 60
        assert small_workload.duplicate_fraction == pytest.approx(0.3, abs=0.05)

    def test_duplicate_probes_reference_cached_entries(self, small_workload):
        for probe in small_workload.probes:
            if probe.should_hit:
                idx = probe.matching_cache_index
                assert 0 <= idx < small_workload.n_cached
                assert small_workload.cached_intents[idx] == probe.intent_key
            else:
                assert probe.matching_cache_index == -1

    def test_unique_probes_do_not_duplicate_cached_intents(self, small_workload):
        cached = set(small_workload.cached_intents)
        for probe in small_workload.probes:
            if not probe.should_hit:
                assert probe.intent_key not in cached

    def test_fresh_unique_probes_have_uncached_objects(self):
        wl = generate_cache_workload(
            n_cached=80, n_probes=80, hard_negative_fraction=0.0, seed=21
        )
        cached_objects = {k.rsplit("|", 1)[0] + "|" + k.split("|")[2] for k in wl.cached_intents}
        cached_obj_keys = {"|".join([k.split("|")[0], k.split("|")[2]]) for k in wl.cached_intents}
        for probe in wl.probes:
            if not probe.should_hit:
                obj_key = "|".join([probe.intent_key.split("|")[0], probe.intent_key.split("|")[2]])
                assert obj_key not in cached_obj_keys

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_cache_workload(n_cached=0)
        with pytest.raises(ValueError):
            generate_cache_workload(fresh_object_holdout=1.5)


class TestContextualDataset:
    def test_composition_matches_paper_defaults(self):
        ds = generate_contextual_dataset(seed=3)
        assert ds.n_cached == 200
        assert ds.n_probes == 250
        assert int(ds.true_labels.sum()) == 150

    def test_followups_have_context(self):
        ds = generate_contextual_dataset(
            n_standalone_cached=20,
            n_contextual_cached=20,
            n_duplicate_standalone_probes=10,
            n_duplicate_contextual_probes=10,
            n_unique_probes=20,
            seed=4,
        )
        followups = [t for t in ds.cached_turns if t.is_followup]
        assert len(followups) == 20
        assert all(t.has_context for t in followups)

    def test_context_traps_are_unique_followups(self):
        ds = generate_contextual_dataset(seed=5)
        traps = [p for p in ds.probes if p.is_context_trap]
        assert traps
        assert all(not p.should_hit and p.is_followup and p.context for p in traps)

    def test_followup_templates_have_slots(self):
        for key, (templates, slots) in FOLLOWUP_TEMPLATES.items():
            assert templates and slots
            if "{slot}" in templates[0]:
                assert any(s for s in slots)

    def test_more_followups_than_parents_rejected(self):
        with pytest.raises(ValueError):
            generate_contextual_dataset(n_standalone_cached=5, n_contextual_cached=10)


class TestUserStudy:
    def test_paper_counts_mean_rate(self):
        assert mean_duplicate_rate() == pytest.approx(0.31, abs=0.02)

    def test_counts_have_20_participants(self):
        assert len(FIGURE4_PARTICIPANT_COUNTS) == 20

    def test_generated_logs_match_counts(self):
        participants = generate_user_study(
            counts=[(50, 20), (30, 5)], generate_texts=True, seed=0
        )
        assert participants[0].total_queries == 50
        assert len(participants[0].queries) == 50
        assert sum(participants[0].is_duplicate) == 20

    def test_log_capping(self):
        participants = generate_user_study(
            counts=[(1000, 300)], generate_texts=True, max_log_length=100, seed=0
        )
        assert len(participants[0].queries) == 100
        # Aggregate counts remain the original ones.
        assert participants[0].total_queries == 1000

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_user_study(counts=[(10, 20)])

    def test_summary_fields(self):
        summary = study_summary(generate_user_study(generate_texts=False))
        assert summary["n_participants"] == 20
        assert 0.25 < summary["mean_duplicate_rate"] < 0.40


class TestPartitioning:
    def test_iid_partition_covers_all_items(self):
        items = list(range(103))
        shards = partition_iid(items, 7, seed=0)
        assert sum(len(s) for s in shards) == 103
        assert sorted(x for s in shards for x in s) == items

    def test_iid_partition_is_balanced(self):
        shards = partition_iid(list(range(100)), 8, seed=1)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_partition_pairs(self, small_pair_dataset):
        shards = partition_pairs(small_pair_dataset, 5, seed=2)
        assert len(shards) == 5
        assert sum(len(s) for s in shards) == len(small_pair_dataset)

    def test_iid_partition_is_deterministic_per_seed(self):
        items = list(range(50))
        assert partition_iid(items, 4, seed=3) == partition_iid(items, 4, seed=3)
        assert partition_iid(items, 4, seed=3) != partition_iid(items, 4, seed=4)

    def test_more_clients_than_items_leaves_empty_shards(self):
        shards = partition_iid(["a", "b"], 5, seed=0)
        assert sorted(len(s) for s in shards) == [0, 0, 0, 1, 1]
        assert sorted(x for s in shards for x in s) == ["a", "b"]

    def test_partition_pairs_shards_are_disjoint_and_keep_pairs(self, small_pair_dataset):
        shards = partition_pairs(small_pair_dataset, 4, seed=1)
        seen = [id(p) for shard in shards for p in shard.pairs]
        assert len(seen) == len(set(seen))  # no pair lands on two clients
        assert set(seen) == {id(p) for p in small_pair_dataset.pairs}

    def test_invalid_client_counts(self):
        with pytest.raises(ValueError):
            partition_iid([1, 2, 3], 0)
