"""Tests for size accounting, the LRU eviction order and context chains."""

import numpy as np
import pytest

from conftest import make_tiny_encoder
from repro.core.context import ContextChain, context_matches
from repro.core.policy import LRUPolicy
from repro.core.storage import object_nbytes


class TestObjectNbytes:
    def test_array_counts_buffer(self):
        assert object_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_string_counts_utf8(self):
        assert object_nbytes("abcd") == 4

    def test_containers_sum_members(self):
        assert object_nbytes(["ab", "cd"]) == 4
        assert object_nbytes({"k": "vv"}) == 3


class TestPolicies:
    def test_lru_evicts_least_recently_used(self):
        policy = LRUPolicy()
        for i in range(3):
            policy.record_insert(i)
        policy.record_access(0)  # 0 becomes most recent; 1 is oldest now
        assert policy.select_victim() == 1

    def test_remove_forgets_entry(self):
        policy = LRUPolicy()
        policy.record_insert(1)
        policy.record_insert(2)
        policy.record_remove(1)
        assert policy.select_victim() == 2
        assert len(policy) == 1

    def test_empty_policy_raises(self):
        with pytest.raises(LookupError):
            LRUPolicy().select_victim()

    def test_state_round_trip_and_duplicate_ids_rejected(self):
        policy = LRUPolicy()
        for i in (3, 1, 2):
            policy.record_insert(i)
        policy.record_access(3)
        restored = LRUPolicy()
        restored.load_state_dict(policy.state_dict())
        assert restored.state_dict() == {"order": [1, 2, 3]}
        with pytest.raises(ValueError, match="twice"):
            restored.load_state_dict({"order": [1, 2, 1]})


class TestContextChain:
    def test_empty_chain(self):
        chain = ContextChain.empty()
        assert chain.is_empty and chain.depth == 0

    def test_from_texts_builds_embedding(self):
        enc = make_tiny_encoder()
        chain = ContextChain.from_texts(["draw a line plot in python"], encoder=enc)
        assert chain.embedding is not None
        assert np.isclose(np.linalg.norm(chain.embedding), 1.0)

    def test_standalone_matches_standalone(self):
        assert context_matches(ContextChain.empty(), ContextChain.empty())

    def test_standalone_never_matches_contextual(self):
        enc = make_tiny_encoder()
        contextual = ContextChain.from_texts(["draw a plot"], encoder=enc)
        assert not context_matches(ContextChain.empty(), contextual)
        assert not context_matches(contextual, ContextChain.empty())

    def test_similar_contexts_match(self):
        enc = make_tiny_encoder()
        a = ContextChain.from_texts(["How can I plot a line plot in matplotlib?"], encoder=enc)
        b = ContextChain.from_texts(["Please show me how to draw a line plot in matplotlib"], encoder=enc)
        c = ContextChain.from_texts(["Tips for how to grill salmon fillets"], encoder=enc)
        assert a.similarity_to(b) > a.similarity_to(c)

    def test_missing_embedding_never_matches(self):
        a = ContextChain(texts=("x",), embedding=None)
        b = ContextChain(texts=("y",), embedding=None)
        assert not context_matches(a, b)

    def test_empty_similarity_conventions(self):
        assert ContextChain.empty().similarity_to(ContextChain.empty()) == 1.0
        a = ContextChain(texts=("x",), embedding=np.ones(4))
        assert ContextChain.empty().similarity_to(a) == 0.0
