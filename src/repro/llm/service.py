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
from typing import Callable, Dict, List, Optional

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

    ``issued_at_s``/``completed_at_s`` are stamps on the *caller's* clock —
    the simulator's virtual event clock or the live server's monotonic wall
    clock (see :class:`SimulatedLLMService`'s ``clock`` parameter).  They
    stay ``None`` when neither a ``now`` argument nor a service clock is
    available, which is the historical behaviour.
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

    Two clocks can drive a deployment of this service, and the historical
    implementation silently assumed the first:

    * the **virtual event clock** — a server's replay runs a trace at
      virtual arrival times and passes each request's ``now`` explicitly;
    * the **wall clock** — the live threaded server issues requests in real
      time, so request stamps must come from ``time.monotonic``.

    ``clock`` makes the choice injectable: a zero-argument callable the
    service reads whenever a request arrives without an explicit ``now``.
    Responses then carry ``issued_at_s``/``completed_at_s`` on whichever
    clock applied, so callers never mix modelled virtual latencies into
    measured wall-clock sums (the latent bug the live server surfaced).
    With neither ``clock`` nor ``now`` the stamps stay ``None`` and
    behaviour is byte-identical to the historical service.

    ``thread_safe=True`` guards the accounting (`stats`, per-client totals)
    with a lock; the historical unsynchronized ``+=`` updates lose requests
    under the server's multi-threaded miss path.
    """

    def __init__(
        self,
        config: Optional[LLMServiceConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        thread_safe: bool = False,
    ) -> None:
        self.config = config or LLMServiceConfig()
        self.clock = clock
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
        caller's clock (the simulator passes virtual arrival times); when it
        is omitted the service falls back to its injected ``clock``.
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
        issued_at = now
        if issued_at is None and self.clock is not None:
            issued_at = float(self.clock())
        response = LLMResponse(
            query=prompt,
            text=text,
            prompt_tokens=prompt_tokens,
            response_tokens=resp_tokens,
            latency_s=latency,
            cost_usd=cost,
            issued_at_s=issued_at,
            completed_at_s=None if issued_at is None else issued_at + latency,
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
