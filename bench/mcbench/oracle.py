"""The response check every timed or traced request passes through.

The harness owns a :class:`~repro.llm.responses.ResponseGenerator` and, per
cache scope, a map *response text -> intent key* filled at every enrolment the
harness causes (warm installs, filler rows, and each miss it observes).  A
miss must return exactly ``generate(query)``; a hit must return a text that
was enrolled earlier in the scope the request's cache can see, and that text's
intent decides true hit against false hit.  Anything else is a failure, so a
"faster" cache that answers wrongly fails the run instead of winning it.

``generate`` costs ~150 us, a tenth of a cheap request, so the expected miss
responses are computed once per run by :func:`expected_responses`, outside
both set-up time and the timed phase; the timed check is two dict lookups.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.llm.responses import ResponseGenerator

TRUE_HIT, FALSE_HIT, MISS, FAILED = "true_hit", "false_hit", "miss", "failed"

#: scope key of workloads whose caches share entries across users
GLOBAL_SCOPE = ""


def expected_responses(queries: Iterable[str]) -> Dict[str, str]:
    """What the LLM service must answer for each distinct query."""
    generator = ResponseGenerator()
    return {query: generator.generate(query) for query in set(queries)}


class ResponseOracle:
    """Verifies responses and classifies hits for one repeat."""

    def __init__(
        self,
        expected: Dict[str, str],
        per_user_scope: bool,
        installed: Iterable[Tuple[str, str, Optional[str]]] = (),
    ) -> None:
        """``installed`` lists ``(user_id, response, intent_key)`` for entries
        placed in the caches before the timed phase; filler rows carry
        ``None`` as intent, so serving one is always a false hit."""
        self.expected = expected
        self.per_user_scope = per_user_scope
        self._enrolled: Dict[str, Dict[str, Optional[str]]] = {}
        for user_id, response, intent_key in installed:
            self.enrol(user_id, response, intent_key)

    def _scope(self, user_id: str) -> Dict[str, Optional[str]]:
        key = user_id if self.per_user_scope else GLOBAL_SCOPE
        return self._enrolled.setdefault(key, {})

    def enrol(self, user_id: str, response: str, intent_key: Optional[str]) -> None:
        self._scope(user_id)[response] = intent_key

    def check(
        self, user_id: str, query: str, intent_key: str, hit: bool, response: Optional[str]
    ) -> str:
        """Classify one answered request; a miss enrols what the LLM said."""
        if not hit:
            if response is None or response != self.expected.get(query):
                return FAILED
            self.enrol(user_id, response, intent_key)
            return MISS
        scope = self._scope(user_id)
        if response not in scope:
            return FAILED
        return TRUE_HIT if scope[response] == intent_key else FALSE_HIT
