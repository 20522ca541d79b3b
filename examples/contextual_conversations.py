"""Contextual queries and context-chain verification (paper §II, §IV-C).

Run with::

    python examples/contextual_conversations.py

Reproduces the paper's motivating scenario: the user asks "Draw a line plot in
Python" and then "Change the color to red" (a follow-up).  Later, in a
*different* conversation about drawing a circle, they again ask "Change the
color to red".  A context-oblivious semantic cache returns the cached (wrong)
response; MeanCache's context-chain verification correctly treats it as a
miss and forwards it to the LLM.
"""

from __future__ import annotations

from repro import GPTCACHE_CONFIG, MeanCache, MeanCacheConfig, load_encoder
from repro.core.client import MeanCacheClient
from repro.llm.service import SimulatedLLMService


def main() -> None:
    encoder = load_encoder("mpnet-sim")
    cache = MeanCache(
        encoder,
        # The pretrained (not yet FL-fine-tuned) encoder keeps "draw a line
        # plot" and "draw a circle" fairly close, so the context check uses a
        # stricter threshold here; the FL-trained encoder separates them on
        # its own (see examples/federated_training.py).
        MeanCacheConfig(similarity_threshold=0.85, context_threshold=0.9, verify_context=True),
    )
    client = MeanCacheClient(cache, SimulatedLLMService(), client_id="bob")

    print("--- conversation 1: line plot ---")
    q1 = client.query("Draw a line plot in Python")
    q2 = client.query("Change the color to red", is_followup=True)
    print(f"  {q1.query!r:<45} from_cache={q1.from_cache}")
    print(f"  {q2.query!r:<45} from_cache={q2.from_cache}")

    print("--- conversation 2: circle ---")
    client.new_conversation()
    q3 = client.query("Draw a circle in Python")
    q4 = client.query("Change the color to red", is_followup=True)
    print(f"  {q3.query!r:<45} from_cache={q3.from_cache}")
    print(f"  {q4.query!r:<45} from_cache={q4.from_cache}   <- context differs, correctly a miss")

    print("--- conversation 3: line plot again (paraphrased) ---")
    client.new_conversation()
    q5 = client.query("Please show me how to draw a line plot in Python")
    q6 = client.query("Could you change the color to red?", is_followup=True)
    print(f"  {q5.query!r:<45} from_cache={q5.from_cache}   <- duplicate standalone, hit")
    print(f"  {q6.query!r:<45} from_cache={q6.from_cache}   <- same context as conv. 1, hit")

    # The same trap against a context-oblivious server-side cache.
    print("\n--- the same trap against a context-oblivious GPTCache ---")
    gpt = MeanCache(load_encoder("albert-sim"), GPTCACHE_CONFIG)
    gpt.insert("Draw a line plot in Python", "matplotlib.pyplot.plot(...)")
    gpt.insert(
        "Change the color to red",
        "plt.plot(x, y, color='red')  # for the LINE PLOT",
        context=["Draw a line plot in Python"],
    )
    trap = gpt.lookup("Change the color to red", context=["Draw a circle in Python"])
    print(f"  GPTCache returns a hit: {trap.hit} (the cached answer refers to the wrong context)")


if __name__ == "__main__":
    main()
