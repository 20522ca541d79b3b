"""What a device process keeps resident: imports, answers, encoder weights.

A process that only serves loads no SciPy (``PCA.fit`` imports it), a
``MeanCacheClient`` keeps running totals rather than every answer it gave,
and zoo encoders share the process's verified checkpoint arrays read-only,
copying them on the first in-place write.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from conftest import make_tiny_encoder
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.client import ConversationState, MeanCacheClient
from repro.datasets.semantic_pairs import generate_pair_dataset
from repro.embeddings import zoo
from repro.embeddings.model import SiameseEncoder
from repro.federated.client import ClientConfig, FLClient
from repro.llm.service import SimulatedLLMService

PARAM_NAMES = SiameseEncoder.PARAM_NAMES
TEXTS = ["sort a list in python", "grill salmon fillets", "plan a trip to japan"]

_IMPORT_SCRIPT = """
import sys
import repro, repro.serving.server, repro.core.tiered, repro.core.client, repro.embeddings.zoo
loaded = [m for m in ("scipy", "numpy.f2py", "charset_normalizer") if m in sys.modules]
assert not loaded, loaded

import numpy as np
from repro.embeddings.pca import PCA
X = np.random.default_rng(0).normal(size=(40, 8)) * np.arange(1, 9)
pca = PCA(n_components=3).fit(X)
assert "scipy" in sys.modules
assert np.allclose(pca.components_ @ pca.components_.T, np.eye(3))
assert np.all(np.diff(pca.explained_variance_) <= 0)
assert pca.transform(X).shape == (40, 3)
"""


def test_serving_imports_load_no_scipy_until_a_pca_fit():
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env, check=True)


# --------------------------------------------------------------------------- #
# MeanCacheClient keeps totals, not answers
# --------------------------------------------------------------------------- #
_WORDS = (
    "alpha beta gamma delta sort list python trip japan salmon grill battery "
    "phone letter cover plan write order reverse string"
).split()


def _query(i: int) -> str:
    """Distinct queries over a 20-word vocabulary (the tokenizer memos stay put)."""
    return " ".join(_WORDS[(i // 20**k) % 20] for k in range(4))


def test_client_memory_does_not_grow_with_the_query_count():
    config = MeanCacheConfig(max_entries=16, similarity_threshold=0.99)
    cache = MeanCache(make_tiny_encoder(), config)
    client = MeanCacheClient(cache, SimulatedLLMService())
    traced = {}
    tracemalloc.start()
    try:
        for i in range(3000):
            client.query(_query(i))
            if i + 1 in (1000, 3000):
                traced[i + 1] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Keeping every answer costs ~2.5 KB a query here (~5 MB over these 2,000).
    assert traced[3000] - traced[1000] < 100_000
    assert client.stats.n_queries == 3000 and len(cache) == 16


@pytest.mark.parametrize("batched", [False, True])
def test_a_dropped_answer_is_freed(tiny_encoder, batched):
    client = MeanCacheClient(MeanCache(tiny_encoder), SimulatedLLMService())
    answer = client.query_many(TEXTS)[1] if batched else client.query(TEXTS[0])
    decision = weakref.ref(answer.decision)
    probes = weakref.ref(answer.decision.embedding.base)  # the lookup's probe matrix
    del answer
    gc.collect()
    assert decision() is None and probes() is None


def test_totals_are_the_sums_over_the_answers(tiny_encoder):
    cache = MeanCache(tiny_encoder, MeanCacheConfig(similarity_threshold=0.99))
    client = MeanCacheClient(cache, SimulatedLLMService())
    answers = [client.query(text) for text in TEXTS + TEXTS[:2]]
    answers += client.query_many(TEXTS[1:] + ["write a cover letter"])
    assert client.stats.n_queries == len(answers)
    assert client.hit_rate == sum(a.from_cache for a in answers) / len(answers)
    assert client.total_cost_usd == float(sum(a.cost_usd for a in answers))
    assert client.mean_latency_s == float(sum(a.total_latency_s for a in answers) / len(answers))


def test_conversation_keeps_only_the_turns_it_reads():
    state, asked = ConversationState(max_depth=3), []
    for i in range(10):
        assert state.context_for_next_query() == asked[-3:]
        state.add_turn(f"turn {i}")
        asked.append(f"turn {i}")
        assert state.turns == asked[-3:]


# --------------------------------------------------------------------------- #
# Zoo encoders share their checkpoint arrays read-only
# --------------------------------------------------------------------------- #
def _bytes(encoder):
    return [getattr(encoder, key).tobytes() for key in PARAM_NAMES]


def test_loads_share_read_only_weights_that_stay_read_only():
    first, second = zoo.load_encoder("albert-sim"), zoo.load_encoder("albert-sim")
    assert np.shares_memory(first.W1, second.W1)
    assert not any(getattr(first, key).flags.writeable for key in PARAM_NAMES)
    first.freeze()
    first.encode(TEXTS)
    first.unfreeze()
    assert not any(getattr(first, key).flags.writeable for key in PARAM_NAMES)
    with pytest.raises(ValueError, match="read-only"):
        second.W1[0, 0] = 0.0


def test_shared_weights_encode_the_bits_private_copies_do():
    shared = zoo.load_encoder("albert-sim")
    private = zoo.load_encoder("albert-sim", pretrained=False)
    private.set_parameters([getattr(shared, key) for key in PARAM_NAMES])
    assert not np.shares_memory(private.W1, shared.W1)
    assert np.array_equal(shared.encode(TEXTS), private.encode(TEXTS))


def _fl_client(encoder):
    dataset = generate_pair_dataset(n_pairs=24, seed=17)
    train, val, _ = dataset.split(0.6, 0.3, seed=0)
    config = ClientConfig(local_epochs=1, batch_size=8, threshold_grid=11)
    return FLClient("c0", train, val, encoder, config=config)


def _nudged(encoder):
    rng = np.random.default_rng(0)
    return [p + rng.normal(scale=1e-3, size=p.shape) for p in encoder.get_parameters()]


WRITERS = {
    "train_on_pairs": lambda e: e.train_on_pairs(zoo._pretraining_pairs(16), batch_size=8),
    "set_parameters": lambda e: e.set_parameters(_nudged(e)),
    "FLClient.fit": lambda e: _fl_client(e).fit(_nudged(e), 0.7),
    "FLClient._local_train": lambda e: _fl_client(e)._local_train(e.get_parameters()),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_writer_changes_only_its_own_encoder(writer):
    written, other = zoo.load_encoder("albert-sim"), zoo.load_encoder("albert-sim")
    before = _bytes(other)
    WRITERS[writer](written)
    assert _bytes(written) != before
    assert _bytes(other) == before
    assert _bytes(zoo.load_encoder("albert-sim")) == before
    assert written.W1.flags.writeable and not np.shares_memory(written.W1, other.W1)


def test_share_parameters_checks_what_set_parameters_checks(tiny_encoder):
    params = make_tiny_encoder(seed=9).get_parameters()
    with pytest.raises(ValueError, match="float64"):
        tiny_encoder.share_parameters([params[0].astype(np.float32), *params[1:]])
    params[2].flat[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        tiny_encoder.share_parameters(params)


def test_the_checkpoint_digest_hashes_in_place():
    encoder = zoo.load_encoder("mpnet-sim")
    params = [getattr(encoder, key) for key in PARAM_NAMES]
    expected = hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest()
    tracemalloc.start()
    try:
        digest = zoo._parameter_digest(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == expected
    assert peak < 100_000  # tobytes() copied 8 MB of W1 alone
    strided = [params[0].T, params[1][::2]]
    assert zoo._parameter_digest(strided) == hashlib.sha256(
        b"".join(p.tobytes() for p in strided)
    ).hexdigest()
