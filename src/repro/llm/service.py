"""The simulated LLM web service facade.

Plays the role of the remote "LLM-based web service (e.g., ChatGPT, Bing
Copilot)" in Figure 1 and of the local Llama-2 service in the Figure 5 timing
experiment.  The service:

* generates a deterministic response per query (:class:`ResponseGenerator`),
* attributes a *simulated* latency to each request (:class:`LatencyModel`),
* keeps per-client accounting (request counts, token counts, simulated cost),
  which the cost-saving analyses use.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.llm.latency import LatencyModel, LatencyModelConfig
from repro.llm.responses import ResponseGenerator, count_tokens


@dataclass(frozen=True)
class LLMServiceConfig:
    """Configuration of the simulated service.

    Attributes
    ----------
    response_tokens:
        Nominal response length (the paper limits responses to 50 tokens).
    latency:
        Latency model configuration.
    price_per_1k_prompt_tokens, price_per_1k_response_tokens:
        Simulated pricing (USD) used by the cost-saving accounting; defaults
        approximate public per-token API pricing.
    seed:
        Seed for latency jitter.
    jitter_mode:
        ``"hashed"`` (default) derives each request's latency jitter from a
        hash of ``(client_id, prompt)``, so a given request costs the same
        simulated latency no matter how fleet traffic interleaves —
        simulation results become independent of arrival order.
        ``"sequential"`` restores the historical behaviour: jitter drawn
        from one shared RNG in request order.
    """

    response_tokens: int = 50
    latency: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    price_per_1k_prompt_tokens: float = 0.0005
    price_per_1k_response_tokens: float = 0.0015
    seed: int = 0
    jitter_mode: str = "hashed"

    def __post_init__(self) -> None:
        if self.jitter_mode not in ("hashed", "sequential"):
            raise ValueError("jitter_mode must be 'hashed' or 'sequential'")


@dataclass(frozen=True)
class LLMResponse:
    """The result of one service request.

    ``issued_at_s``/``completed_at_s`` are stamps on the *caller's* clock,
    set from the request's ``now``: a replay's trace time, or the submit
    time on a live server's clock.  They stay ``None`` without ``now``.
    """

    query: str
    text: str
    prompt_tokens: int
    response_tokens: int
    latency_s: float
    cost_usd: float
    issued_at_s: Optional[float] = None
    completed_at_s: Optional[float] = None


@dataclass
class ServiceStats:
    """Cumulative accounting for the service (or one client of it)."""

    n_requests: int = 0
    prompt_tokens: int = 0
    response_tokens: int = 0
    total_latency_s: float = 0.0
    total_cost_usd: float = 0.0

    def record(self, response: LLMResponse) -> None:
        """Fold one response into the running totals."""
        self.n_requests += 1
        self.prompt_tokens += response.prompt_tokens
        self.response_tokens += response.response_tokens
        self.total_latency_s += response.latency_s
        self.total_cost_usd += response.cost_usd


class SimulatedLLMService:
    """Deterministic, offline substitute for an LLM web service.

    The service reads no clock of its own: a caller that wants its
    requests stamped passes ``now`` on its own clock (the server passes
    each request's trace time in a replay and its submit time live), and
    the response carries ``issued_at_s``/``completed_at_s`` on that clock.

    ``thread_safe=True`` guards the accounting (`stats`, per-client totals)
    with a lock; the historical unsynchronized ``+=`` updates lose requests
    under the server's multi-threaded miss path.
    """

    def __init__(
        self,
        config: Optional[LLMServiceConfig] = None,
        thread_safe: bool = False,
    ) -> None:
        self.config = config or LLMServiceConfig()
        self._latency = LatencyModel(self.config.latency, seed=self.config.seed)
        self._responses = ResponseGenerator(self.config.response_tokens)
        self.stats = ServiceStats()
        self._per_client: Dict[str, ServiceStats] = {}
        self._lock = threading.Lock() if thread_safe else None

    def query(
        self,
        prompt: str,
        client_id: str = "default",
        context: Optional[List[str]] = None,
        response_tokens: Optional[int] = None,
        now: Optional[float] = None,
    ) -> LLMResponse:
        """Answer ``prompt`` (optionally with conversational ``context``).

        The context contributes to prompt-token accounting and latency (longer
        prefill) but not to the response content, matching how the evaluation
        treats the service as a black box.  ``now`` stamps the request on the
        caller's clock; without it the response carries no stamps.
        """
        if not isinstance(prompt, str) or not prompt.strip():
            raise ValueError("prompt must be a non-empty string")
        full_prompt = "\n".join([*(context or []), prompt])
        prompt_tokens = count_tokens(full_prompt)
        text = self._responses.generate(prompt, response_tokens)
        resp_tokens = count_tokens(text)
        jitter_key = (
            f"{client_id}\x1f{prompt}" if self.config.jitter_mode == "hashed" else None
        )
        latency = self._latency.sample(prompt_tokens, resp_tokens, key=jitter_key)
        cost = (
            prompt_tokens / 1000.0 * self.config.price_per_1k_prompt_tokens
            + resp_tokens / 1000.0 * self.config.price_per_1k_response_tokens
        )
        response = LLMResponse(
            query=prompt,
            text=text,
            prompt_tokens=prompt_tokens,
            response_tokens=resp_tokens,
            latency_s=latency,
            cost_usd=cost,
            issued_at_s=now,
            completed_at_s=None if now is None else now + latency,
        )
        with self._lock or contextlib.nullcontext():
            self.stats.record(response)
            self._per_client.setdefault(client_id, ServiceStats()).record(response)
        return response

    def client_stats(self, client_id: str) -> ServiceStats:
        """Accounting for a single client (zeros if the client never called)."""
        return self._per_client.get(client_id, ServiceStats())

    def reset_stats(self) -> None:
        """Clear all accounting."""
        self.stats = ServiceStats()
        self._per_client.clear()
