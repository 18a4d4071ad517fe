import re

import numpy as np
import pytest

from lavabridge.bench import run_training
from lavabridge.checkpoint import load_checkpoint, save_checkpoint
from lavabridge.cli import _learner_from_checkpoint
from lavabridge.demos import save_archive
from lavabridge.learner import LearnerConfig, SACLearner

from test_bench import tiny_config


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    nets = {
        "policy": [rng.standard_normal((4, 8)), rng.standard_normal(8).astype(np.float32)],
        "q1": [rng.standard_normal((6, 8)), rng.standard_normal(8), rng.standard_normal((8, 1))],
    }
    path = tmp_path / "ck.bin"
    save_checkpoint(path, nets)
    assert not (tmp_path / "ck.bin.npz").exists()  # written to the path as given
    loaded = load_checkpoint(path)
    assert list(loaded) == ["policy", "q1"]
    for name in nets:
        assert len(loaded[name]) == len(nets[name])
        for a, b in zip(nets[name], loaded[name]):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_arrays_load_in_index_order(tmp_path):
    # As strings, "policy/10" sorts before "policy/2".
    nets = {"policy": [np.full(3, float(i)) for i in range(12)]}
    path = tmp_path / "ck.npz"
    save_checkpoint(path, nets)
    assert [a[0] for a in load_checkpoint(path)["policy"]] == [float(i) for i in range(12)]
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == sorted(f"policy/{i}" for i in range(12))


def test_learner_networks_round_trip(tmp_path):
    cfg = LearnerConfig(hidden=(8, 8), batch_size=4, buffer_capacity=16)
    learner = SACLearner(cfg, init_rng=np.random.default_rng(1),
                         noise_rng=np.random.default_rng(2))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, learner.named_networks())
    loaded = load_checkpoint(path)
    assert set(loaded) == {"policy", "q1", "q2", "q1_target", "q2_target"}
    for name, params in learner.named_networks().items():
        for a, b in zip(params, loaded[name]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_run_checkpoint_restores_learner_bitwise(dtype, demo_archive, tmp_path):
    archive = tmp_path / "demos.csv"
    save_archive(demo_archive, archive)
    cfg = tiny_config("auxss", archive, t_max=400, eval_interval=400,
                      learner=LearnerConfig(batch_size=32, buffer_capacity=2000,
                                            hidden=(16, 16), dtype=dtype))
    result = run_training(cfg, out_dir=tmp_path / "run")
    restored = _learner_from_checkpoint(tmp_path / "run" / "checkpoint.npz", cfg)
    want = result.learner.named_networks()
    got = restored.named_networks()
    assert list(got) == list(want)
    for name in want:
        for a, b in zip(want[name], got[name], strict=True):
            assert a.dtype == b.dtype == np.dtype(dtype)
            assert a.tobytes() == b.tobytes()


def test_bad_magic_rejected(tmp_path):
    # A file in the retired LBCKPT01 layout is not an .npz archive.
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b"LBCKPT01" + (1).to_bytes(4, "little") + b"\x00" * 32)
    with pytest.raises(ValueError, match="not an .npz checkpoint"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(path, {"p": [np.ones((4, 4))]})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="not an .npz checkpoint"):
        load_checkpoint(path)


def test_missing_array_index_rejected(tmp_path):
    path = tmp_path / "ck.npz"
    np.savez(path, **{"p/0": np.ones(2), "p/2": np.ones(2)})
    with pytest.raises(ValueError, match=r"'p' has array indices \[0, 2\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["weights", "policy/a"])
def test_foreign_key_rejected_with_path_and_key(tmp_path, key):
    path = tmp_path / "foreign.npz"
    np.savez(path, **{"policy/0": np.ones(2), key: np.ones(2)})
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: key '{re.escape(key)}'"):
        load_checkpoint(path)
