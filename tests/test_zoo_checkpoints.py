"""The zoo's shipped pretrained checkpoints (``repro/embeddings/checkpoints``).

The oracle is :func:`repro.embeddings.zoo._pretrain` itself, re-run in a
process pinned to :data:`~repro.embeddings.zoo.PRETRAIN_ENV` (the pass is
byte-reproducible only at a fixed BLAS thread count): every committed array
must be byte-equal to what it produces and hash to the manifest's digest, and
``load_encoder`` must return exactly those bytes.  The failure cases run on a
copy of a checkpoint under a monkeypatched ``CHECKPOINT_ROOT``; every one of
them raises ``SnapshotError`` naming the directory and the regen command,
never a silently retrained encoder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.embeddings import zoo
from repro.embeddings.model import SiameseEncoder
from repro.index.snapshot import SnapshotError

SHIPPED = [name for name, spec in zoo.ENCODER_SPECS.items() if spec.pretrain_epochs > 0]
PARAM_NAMES = SiameseEncoder.PARAM_NAMES

_PRETRAIN_SCRIPT = """
import sys
import numpy as np
from repro.embeddings.zoo import ENCODER_SPECS, _pretrain, load_encoder
for name, out in zip(sys.argv[1::2], sys.argv[2::2]):
    encoder = load_encoder(name, pretrained=False)
    _pretrain(encoder, ENCODER_SPECS[name])
    np.savez(out, **encoder.state_dict())
"""


def committed(name: str):
    """The committed arrays and manifest of ``name``, read without the zoo."""
    directory = zoo.CHECKPOINT_ROOT / name
    arrays = {key: np.load(directory / "arrays" / f"{key}.npy") for key in PARAM_NAMES}
    manifest = json.loads((directory / "manifest.json").read_text())
    return arrays, manifest


def sha256_of(arrays) -> str:
    digest = hashlib.sha256()
    for key in PARAM_NAMES:
        digest.update(arrays[key].tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Each shipped entry pretrained from scratch, in a pinned process."""
    out = tmp_path_factory.mktemp("pretrained")
    args = [arg for name in SHIPPED for arg in (name, str(out / f"{name}.npz"))]
    subprocess.run(
        [sys.executable, "-c", _PRETRAIN_SCRIPT, *args], env=zoo._pinned_env(), check=True
    )
    return {name: dict(np.load(out / f"{name}.npz")) for name in SHIPPED}


@pytest.fixture()
def isolated(monkeypatch):
    """An empty per-process cache, so every load below really reads."""
    monkeypatch.setattr(zoo, "_PRETRAINED_CACHE", {})


@pytest.fixture()
def albert_copy(tmp_path, monkeypatch, isolated) -> Path:
    """A copy of albert-sim's checkpoint that the zoo reads instead."""
    shutil.copytree(zoo.CHECKPOINT_ROOT / "albert-sim", tmp_path / "albert-sim")
    monkeypatch.setattr(zoo, "CHECKPOINT_ROOT", tmp_path)
    return tmp_path / "albert-sim"


def test_every_pretraining_entry_ships_and_nothing_else():
    assert sorted(SHIPPED) == ["albert-sim", "mpnet-sim"]
    shipped = sorted(p.name for p in zoo.CHECKPOINT_ROOT.iterdir() if p.is_dir())
    assert shipped == sorted(SHIPPED)


@pytest.mark.parametrize("name", SHIPPED)
def test_committed_bytes_are_what_pretraining_produces(name, fresh):
    arrays, manifest = committed(name)
    for key in PARAM_NAMES:
        assert arrays[key].dtype == np.float64
        assert arrays[key].tobytes() == fresh[name][key].tobytes(), key
    assert sha256_of(arrays) == manifest["params_sha256"]
    assert sha256_of(fresh[name]) == manifest["params_sha256"]
    assert manifest["format"] == zoo.CHECKPOINT_FORMAT
    assert manifest["fingerprint"] == zoo._spec_fingerprint(zoo.ENCODER_SPECS[name])


@pytest.mark.parametrize("name", SHIPPED)
def test_load_encoder_returns_exactly_the_committed_parameters(name, isolated):
    arrays, _ = committed(name)
    for cached_load in (False, True):
        encoder = zoo.load_encoder(name)
        for key, param in zip(PARAM_NAMES, encoder.get_parameters()):
            assert param.tobytes() == arrays[key].tobytes(), (key, cached_load)


def test_seed_override_and_raw_init_read_no_checkpoint(tmp_path, monkeypatch, isolated):
    monkeypatch.setattr(zoo, "CHECKPOINT_ROOT", tmp_path / "nothing-here")
    pretrained = []
    monkeypatch.setattr(zoo, "_pretrain", lambda encoder, spec: pretrained.append(spec.name))
    for name in zoo.ENCODER_SPECS:
        zoo.load_encoder(name, seed=99)
        zoo.load_encoder(name, pretrained=False)
    assert pretrained == SHIPPED
    # The default seed does read it, and a missing one is an error, not a
    # silent pretraining pass.
    with pytest.raises(SnapshotError, match="no snapshot manifest"):
        zoo.load_encoder("albert-sim")
    assert pretrained == SHIPPED


def test_fine_tuning_a_loaded_encoder_leaves_later_loads_unchanged(isolated):
    arrays, _ = committed("albert-sim")
    tuned = zoo.load_encoder("albert-sim")
    pairs = zoo._pretraining_pairs(32)
    tuned.train_on_pairs(pairs, epochs=1, batch_size=16)
    assert tuned.W1.tobytes() != arrays["W1"].tobytes()
    again = zoo.load_encoder("albert-sim")
    for key, param in zip(PARAM_NAMES, again.get_parameters()):
        assert param.tobytes() == arrays[key].tobytes(), key


def _corrupt_digest(directory: Path) -> None:
    W1 = np.load(directory / "arrays" / "W1.npy")
    W1[0, 0] += 1e-3
    np.save(directory / "arrays" / "W1.npy", W1)


def _drop_array(directory: Path) -> None:
    (directory / "arrays" / "b2.npy").unlink()


def _wrong_shape(directory: Path) -> None:
    b1 = np.load(directory / "arrays" / "b1.npy")
    np.save(directory / "arrays" / "b1.npy", np.append(b1, 0.0))


def _wrong_dtype(directory: Path) -> None:
    W2 = np.load(directory / "arrays" / "W2.npy")
    np.save(directory / "arrays" / "W2.npy", W2.astype(np.float32))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_digest, "does not match the manifest"),
        (_drop_array, r"missing arrays \['b2'\]"),
        (_wrong_shape, r"array b1 is float64\(257,\), expected float64\(256,\)"),
        (_wrong_dtype, r"array W2 is float32\(256, 768\), expected float64"),
    ],
)
def test_a_damaged_checkpoint_is_refused(albert_copy, corrupt, message):
    corrupt(albert_copy)
    with pytest.raises(SnapshotError, match=message) as raised:
        zoo.load_encoder("albert-sim")
    assert str(albert_copy) in str(raised.value)
    assert zoo.REGEN_COMMAND in str(raised.value)


def test_a_spec_edited_without_regenerating_is_refused(albert_copy, monkeypatch):
    spec = zoo.ENCODER_SPECS["albert-sim"]
    monkeypatch.setitem(zoo.ENCODER_SPECS, "albert-sim", dataclasses.replace(spec, pretrain_lr=0.02))
    with pytest.raises(SnapshotError, match="different spec") as raised:
        zoo.load_encoder("albert-sim")
    assert str(albert_copy) in str(raised.value)
    assert zoo.REGEN_COMMAND in str(raised.value)


def test_loads_log_at_debug_and_pretraining_at_info(albert_copy, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="repro.embeddings.zoo")
    zoo.load_encoder("albert-sim")
    _, manifest = committed("albert-sim")
    [loaded] = caplog.records
    assert loaded.levelno == logging.DEBUG
    assert str(albert_copy) in loaded.getMessage()
    assert manifest["params_sha256"] in loaded.getMessage()

    caplog.clear()
    zoo.load_encoder("albert-sim")  # cached: no record
    assert caplog.records == []
    monkeypatch.setattr(zoo, "_pretrain", lambda encoder, spec: None)
    zoo.load_encoder("albert-sim", seed=99)
    [pretrained] = caplog.records
    assert pretrained.levelno == logging.INFO
    assert "albert-sim" in pretrained.getMessage()
    assert "99" in pretrained.getMessage()
    assert "no checkpoint" in pretrained.getMessage()


def test_regen_cli_writes_and_checks(tmp_path, monkeypatch, isolated, capsys):
    # A cheap stand-in pass: the CLI's plumbing, not pretraining, is under test.
    def fake_pretrain(encoder, spec):
        encoder.b1 += spec.pretrain_lr

    monkeypatch.setattr(zoo, "_pretrain", fake_pretrain)
    monkeypatch.setattr(zoo, "CHECKPOINT_ROOT", tmp_path)
    for key, value in zoo.PRETRAIN_ENV.items():
        monkeypatch.setenv(key, value)
    assert zoo.main(["--write-checkpoints"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SHIPPED)
    assert zoo.main(["--check"]) == 0
    assert zoo.load_encoder("albert-sim").b1[0] == zoo.ENCODER_SPECS["albert-sim"].pretrain_lr

    def drifted_pretrain(encoder, spec):
        encoder.b1 += 2 * spec.pretrain_lr

    monkeypatch.setattr(zoo, "_pretrain", drifted_pretrain)
    capsys.readouterr()
    assert zoo.main(["--check"]) == 1
    assert "['b1'] differ" in capsys.readouterr().out
    _drop_array(tmp_path / "mpnet-sim")
    assert zoo.main(["--check"]) == 1
    assert f"FAIL zoo checkpoint {tmp_path / 'mpnet-sim'}" in capsys.readouterr().out
