"""The end-user client session (Figure 1's full workflow).

:class:`MeanCacheClient` wires a local :class:`~repro.core.cache.MeanCache` to
an LLM web service: every user query is first looked up in the local cache;
on a miss the query (plus conversational context) is forwarded to the service
and the new (query, response) pair is enrolled in the cache.  The client also
tracks conversational state so follow-up queries automatically carry their
context chain, and keeps latency/cost accounting used by the Figure 5
experiment.

The client holds running totals (:class:`ClientStats`), not a history: each
answer goes back to the caller and is not kept, so a device's memory does
not grow with the number of queries it has answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.cache import CacheDecision, MeanCache
from repro.llm.service import SimulatedLLMService


@dataclass
class ClientQueryResult:
    """What the user gets back for one query."""

    query: str
    response: str
    from_cache: bool
    decision: CacheDecision
    llm_latency_s: float = 0.0
    cache_overhead_s: float = 0.0
    cost_usd: float = 0.0

    @property
    def total_latency_s(self) -> float:
        """End-to-end simulated latency experienced by the user.

        Cache overhead (embedding + search) is measured wall-clock; the LLM
        round trip is the simulated latency from the latency model (zero on a
        cache hit).
        """
        return self.llm_latency_s + self.cache_overhead_s


@dataclass
class ClientStats:
    """Running totals over every answer a :class:`MeanCacheClient` gave.

    Folding answers in the order they were given sums exactly what a sum over
    the list of answers would, so the client's aggregates need no history.
    """

    n_queries: int = 0
    n_hits: int = 0
    total_cost_usd: float = 0.0
    total_latency_s: float = 0.0

    def record(self, result: ClientQueryResult) -> None:
        """Fold one answer into the running totals."""
        self.n_queries += 1
        self.n_hits += result.from_cache
        self.total_cost_usd += result.cost_usd
        self.total_latency_s += result.total_latency_s


@dataclass
class ConversationState:
    """Rolling conversational history used to build context chains.

    Only the last ``max_depth`` turns are ever read, so only those are kept.
    """

    turns: List[str] = field(default_factory=list)
    max_depth: int = 3

    def context_for_next_query(self) -> List[str]:
        """The parent queries (most recent last) for the next follow-up."""
        return self.turns[-self.max_depth :]

    def add_turn(self, query: str) -> None:
        """Record that ``query`` was asked."""
        self.turns.append(query)
        del self.turns[: -self.max_depth]

    def reset(self) -> None:
        """Start a fresh conversation."""
        self.turns.clear()


class MeanCacheClient:
    """A user device running MeanCache in front of an LLM web service."""

    def __init__(
        self,
        cache: MeanCache,
        service: SimulatedLLMService,
        client_id: str = "user-0",
        max_context_depth: int = 3,
    ) -> None:
        self.cache = cache
        self.service = service
        self.client_id = client_id
        self.conversation = ConversationState(max_depth=max_context_depth)
        self.stats = ClientStats()

    # ------------------------------------------------------------------ #
    def query(
        self,
        text: str,
        context: Optional[Sequence[str]] = None,
        is_followup: bool = False,
        enroll_on_miss: bool = True,
    ) -> ClientQueryResult:
        """Answer a user query via the cache, falling back to the LLM service.

        Parameters
        ----------
        text:
            The user's query.
        context:
            Explicit conversational context (parent queries).  When ``None``,
            the client supplies the running conversation history if
            ``is_followup`` is True, else treats the query as standalone.
        is_followup:
            Whether the query continues the current conversation.
        enroll_on_miss:
            Whether to insert the LLM's response into the cache on a miss.
        """
        if context is None:
            context = self.conversation.context_for_next_query() if is_followup else []
        context = list(context)

        decision = self.cache.lookup(text, context=context)
        result = self._result_for(text, context, decision, enroll_on_miss)

        if is_followup or context:
            self.conversation.add_turn(text)
        else:
            self.conversation.reset()
            self.conversation.add_turn(text)
        self.stats.record(result)
        return result

    def query_many(
        self,
        texts: Sequence[str],
        contexts: Optional[Sequence[Sequence[str]]] = None,
        enroll_on_miss: bool = True,
    ) -> List[ClientQueryResult]:
        """Answer a whole probe list through one batched cache lookup.

        All probes go through :meth:`MeanCache.lookup_batch` (one encoder
        call plus one index matmul); each miss is then forwarded to the LLM
        service and, when ``enroll_on_miss``, enrolled in the cache.  Every
        probe gets its own :class:`ClientQueryResult` with the same per-result
        accounting as :meth:`query`, folded into :attr:`stats` in probe
        order.

        Unlike the sequential :meth:`query` loop, misses are enrolled only
        *after* the whole batch is classified, so a probe cannot hit an entry
        enrolled by an earlier probe of the same batch.  The batch also does
        not advance the rolling conversation state — pass explicit
        ``contexts`` for contextual probes.

        Parameters
        ----------
        texts:
            The probe queries.
        contexts:
            Optional per-probe conversational contexts aligned with
            ``texts``; ``None`` treats every probe as standalone.
        enroll_on_miss:
            Whether to insert each miss's LLM response into the cache.
        """
        texts = list(texts)
        if contexts is not None and len(contexts) != len(texts):
            raise ValueError("contexts must align with texts")
        ctx_lists: List[List[str]] = (
            [list(c) for c in contexts] if contexts is not None else [[] for _ in texts]
        )
        decisions = self.cache.lookup_batch(texts, contexts=contexts)
        batch_results = [
            self._result_for(text, context, decision, enroll_on_miss)
            for text, context, decision in zip(texts, ctx_lists, decisions)
        ]
        for result in batch_results:
            self.stats.record(result)
        return batch_results

    def _result_for(
        self,
        text: str,
        context: List[str],
        decision: CacheDecision,
        enroll_on_miss: bool,
    ) -> ClientQueryResult:
        """Resolve one decision: serve a hit locally, fall back to the LLM
        (enrolling the response when asked) on a miss, with the shared
        per-result latency/cost accounting."""
        if decision.hit:
            return ClientQueryResult(
                query=text,
                response=decision.response or "",
                from_cache=True,
                decision=decision,
                llm_latency_s=0.0,
                cache_overhead_s=decision.total_overhead_s,
                cost_usd=0.0,
            )
        llm_response = self.service.query(text, client_id=self.client_id, context=context)
        if enroll_on_miss:
            # Reuse the lookup's embedding so enrolment skips a re-encode.
            self.cache.insert(
                text, llm_response.text, context=context, embedding=decision.embedding
            )
        return ClientQueryResult(
            query=text,
            response=llm_response.text,
            from_cache=False,
            decision=decision,
            llm_latency_s=llm_response.latency_s,
            cache_overhead_s=decision.total_overhead_s,
            cost_usd=llm_response.cost_usd,
        )

    # ------------------------------------------------------------------ #
    def new_conversation(self) -> None:
        """Explicitly start a fresh conversation (clears the context chain)."""
        self.conversation.reset()

    @property
    def hit_rate(self) -> float:
        """Fraction of this client's queries served from the local cache."""
        if not self.stats.n_queries:
            return 0.0
        return self.stats.n_hits / self.stats.n_queries

    @property
    def total_cost_usd(self) -> float:
        """Total simulated spend on the LLM service."""
        return self.stats.total_cost_usd

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency across all queries."""
        if not self.stats.n_queries:
            return 0.0
        return self.stats.total_latency_s / self.stats.n_queries
