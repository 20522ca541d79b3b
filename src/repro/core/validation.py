"""Shared query- and context-text validation used by every cache front door."""

from __future__ import annotations

from typing import List, Sequence, Tuple


def require_query_text(query: str) -> str:
    """Reject anything but a non-empty, non-blank query string."""
    if not isinstance(query, str) or not query.strip():
        raise ValueError("query must be a non-empty string")
    return query


def require_query_texts(queries: Sequence[str]) -> List[str]:
    """Validate a batch of query strings, returning them as a list.

    A bare ``str`` is rejected: iterating it would probe each character.
    """
    if isinstance(queries, str):
        raise ValueError("queries must be a sequence of strings, not one string")
    queries = list(queries)
    for query in queries:
        if not isinstance(query, str) or not query.strip():
            raise ValueError("every query must be a non-empty string")
    return queries


def require_context_texts(context: Sequence[str]) -> Tuple[str, ...]:
    """Validate one conversational context, returning its turns as a tuple.

    A bare ``str`` is rejected (iterating it would store one turn per
    character), and so is any turn that is not a string.
    """
    if isinstance(context, str):
        raise ValueError("context must be a sequence of strings, not one string")
    turns = tuple(context)
    for turn in turns:
        if not isinstance(turn, str):
            raise ValueError("every context turn must be a string")
    return turns
