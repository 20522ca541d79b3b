"""Simulated LLM web service.

Stands in for the Llama-2-based local LLM service used in the paper's
Figure 5 response-time experiment and for the remote LLM-based web service
(ChatGPT-style) that MeanCache forwards cache misses to.

* :mod:`repro.llm.latency` — a calibrated latency model (prefill + per-token
  decode + network round trip + jitter).
* :mod:`repro.llm.responses` — deterministic synthetic response generation.
* :mod:`repro.llm.service` — the service facade with request accounting.
"""
