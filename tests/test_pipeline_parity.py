"""Golden-decision regression: rewriting the lookup rule changes no decision.

``tests/fixtures/golden_decisions_quick.json`` was generated from the seed's
monolithic ``lookup``/``_decide``/``insert`` loops by
``tests/golden_decisions.py``; the three functions of
``repro.core.pipeline`` are the third implementation it pins.  This test
re-runs Table I (standalone), Table I (contextual) and Figure 5 on the
current code and asserts every system's hit/miss stream, similarity stream (bit-exact via
``float.hex``) and matched-entry stream are byte-identical to the fixture.
"""

from __future__ import annotations

import json

import pytest

from golden_decisions import FIXTURE_PATH, GOLDEN_SCALE, GOLDEN_SEED, collect_decision_summary

from repro.experiments.common import cached_system_bundle


@pytest.fixture(scope="module")
def golden():
    assert FIXTURE_PATH.exists(), (
        "golden fixture missing; regenerate with "
        "`PYTHONPATH=src:tests python -m golden_decisions`"
    )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    bundle = cached_system_bundle(GOLDEN_SCALE, seed=GOLDEN_SEED, train_albert=True)
    return collect_decision_summary(bundle)


def test_fixture_metadata(golden):
    assert golden["scale"] == GOLDEN_SCALE
    assert golden["seed"] == GOLDEN_SEED


def test_table1_decisions_byte_identical(golden, current):
    assert set(current["table1"]) == set(golden["table1"])
    for system, expected in golden["table1"].items():
        got = current["table1"][system]
        assert got["hits"] == expected["hits"], f"{system}: hit/miss stream changed"
        assert got["sims"] == expected["sims"], f"{system}: similarity stream changed"
        assert got["matches"] == expected["matches"], f"{system}: matched entries changed"


def test_contextual_decisions_byte_identical(golden, current):
    assert set(current["contextual"]) == set(golden["contextual"])
    for system, expected in golden["contextual"].items():
        got = current["contextual"][system]
        assert got["hits"] == expected["hits"], f"{system}: hit/miss stream changed"


def test_fig05_decisions_byte_identical(golden, current):
    assert set(current["fig05"]) == set(golden["fig05"])
    for system, expected in golden["fig05"].items():
        got = current["fig05"][system]
        assert got["hits"] == expected["hits"], f"{system}: hit/miss stream changed"
