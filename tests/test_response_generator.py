"""The LLM stand-in's text is pinned against its former per-word body."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_responses import reference_generate

from repro.llm.responses import ResponseGenerator, count_tokens


@pytest.mark.parametrize("n_tokens", [1, 3, 7, 50, 120])
def test_sized_draw_reproduces_the_per_word_text(n_tokens):
    """2,500 seeded queries per length (12,500 in all), text for text."""
    generator = ResponseGenerator(response_tokens=n_tokens)
    for i in range(2500):
        query = f"seeded query {i} about topic {i % 37} at length {n_tokens}"
        assert generator.generate(query) == reference_generate(query, n_tokens)


@settings(max_examples=200, deadline=None)
@given(query=st.text(max_size=40), n_tokens=st.integers(1, 400))
def test_any_query_and_length_matches_the_reference(query, n_tokens):
    text = ResponseGenerator().generate(query, response_tokens=n_tokens)
    assert text == reference_generate(query, n_tokens)
    assert count_tokens(text) == n_tokens


def test_default_and_override_lengths_agree():
    generator = ResponseGenerator(response_tokens=9)
    assert generator.generate("q") == generator.generate("q", response_tokens=9)
    with pytest.raises(ValueError, match="response_tokens"):
        generator.generate("q", response_tokens=0)
