"""Shared query-text validation used by every cache front door."""

from __future__ import annotations

from typing import List, Sequence


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
