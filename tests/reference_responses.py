"""``ResponseGenerator.generate`` as it stood before the sized draw: the oracle.

``reference_generate`` is the former body of
:meth:`repro.llm.responses.ResponseGenerator.generate`, moved here verbatim
(the ``tests/reference_topk.py`` convention): one scalar ``rng.integers``
call per body word.  The production routine draws the body in one sized call
and must return the same text, because ``bench/mcbench/oracle.py`` builds its
expected answers with the same class and so cannot see a drift.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.llm.responses import _BODY_WORDS, _OPENERS, _stable_seed


def reference_generate(query: str, n_tokens: int) -> str:
    if n_tokens < 1:
        raise ValueError("response_tokens must be >= 1")
    rng = np.random.default_rng(_stable_seed(query))
    opener = _OPENERS[int(rng.integers(len(_OPENERS)))]
    words: List[str] = opener.split()
    while len(words) < n_tokens:
        words.append(_BODY_WORDS[int(rng.integers(len(_BODY_WORDS)))])
    return " ".join(words[:n_tokens])
