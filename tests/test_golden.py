"""Golden behaviour digests: one tiny training run per method.

Each case pins the sha256 of the run's ``metrics.csv`` and of its final
network parameters (raw bytes, in ``named_networks()`` order). A refactor
that leaves behaviour alone leaves both digests alone; a change that moves a
digest on purpose must say why.

The metrics digest alone cannot tell ``sac`` from ``hysac`` at this size,
because every episode times out; the parameter digest can. ``omega`` runs
with ``k_safety=20``: for k <= 10 every demo state is fully safe under the
random policy, so every omega weight is 1.0 and the run would be
byte-identical to ``uniform``.
"""

import hashlib

import numpy as np
import pytest

from lavabridge.bench import run_training
from lavabridge.demos import load_archive, save_archive, subsample_states
from lavabridge.env import LavaBridgeEnv
from lavabridge.rngs import substream
from lavabridge.safety import safety_field
from lavabridge.samplers import SafetyWeightedSampler, SamplerConfig

from test_bench import tiny_config

GOLDEN = {
    "auxss": (
        "4a290b48e361fc5cbd7a2351dc598f911e684543b47efa8c7fe21a000b6219a4",
        "4aa78c4300e6ac967ab219a5cb59cd5233051aec36ef06178fc7e3f3ff75bada",
    ),
    "uniform": (
        "5a3ef9b9b9c166628ed875ca40bdca31233e7f732cf54679338de4abcac6c82e",
        "fba00f29f989c1435fe8f487ff79c373ed11937549a2891a128aa02337fbb1e2",
    ),
    "goaldist": (
        "fc22a078cf1fa39b09c67fab15b4e1c7ffd6c09d2853668a8d45e74256802e49",
        "870f89bea31c31a4f9fa1c1dfbfb0b3a8f4be35b450df64ffc779b5b5db8c2ad",
    ),
    "omega": (
        "3ca9769c318639aedf6b19cd42391d08b72749843223b55b37c762c94fb50dbf",
        "bb0190fbc7ceeac98b83c3ef6b37f7ae967b969ad9f7fdea86079a612dab091a",
    ),
    "sac": (
        "5e8d0cdbb2604ba0667cfdb11f900ee19665466b2dd94e80da72096a0d3c1e3e",
        "a05c48b79ba17ce3c10ff46f18adcc206956d36987df662546cde463cd3acb0f",
    ),
    "hysac": (
        "5e8d0cdbb2604ba0667cfdb11f900ee19665466b2dd94e80da72096a0d3c1e3e",
        "daacf6dd4489810690702c0174f11adc0df02a7a0e00c7f16ada1722b62aa75f",
    ),
    "hysac-auxss": (
        "4cc4a720b471556224c336e18b252d8504568e01ec3e20aae5ea89313e91d3cc",
        "25ef63d076f88d9a3339f94f2f4af075ede29bd64689919ac40a6846d3170d44",
    ),
    "jsrl": (
        "014ba26b31eddb8ff8971a96fdc37d66c3339b0735a80bc8cf5263c529210d69",
        "b9e0af9b3c2dfe751951ff544305401afb3e81f210e251bc29d172d6c5a26772",
    ),
}


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, demo_archive):
    path = tmp_path_factory.mktemp("golden") / "demos.csv"
    save_archive(demo_archive, path)
    return path


def params_digest(learner) -> str:
    h = hashlib.sha256()
    for arrays in learner.named_networks().values():
        for arr in arrays:
            h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_golden_digests(method, archive_path, tmp_path):
    kw = {}
    if method == "omega":
        kw["sampler"] = SamplerConfig(n_safety_rollouts=8, k_safety=20)
    cfg = tiny_config(method, archive_path, t_max=400, eval_interval=400, **kw)
    result = run_training(cfg, out_dir=tmp_path)
    metrics = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert (metrics, params_digest(result.learner)) == GOLDEN[method]


# The safety estimator's own digests. The omega weights of the golden omega
# case (seed-7 archive, 40-state subset, k_safety=20, n_safety_rollouts=8)
# take 3 distinct values, and 12 of the 40 move when the rollout streams
# change, yet no run digest above moves with them. The safety_field grid
# (8 x 8, k=20, n=8) reads only 0.0 and 1.0 at these inputs, so its digest
# pins the grid layout, the terminal cells and the row order, not the
# rollout streams. Both were pinned at the blocked stream layout of
# ``estimate_safety`` (one spawned child per block of rollout rows).
OMEGA_WEIGHTS = "99f116ccef838416127cc5f604909d40bb790f577497888c2ba2190c9ede15b9"
SAFETY_FIELD = "703a80e191b69e04581e7c77603035decaee92c9a50f4a9d59bd0559ce26d49f"


def test_golden_omega_weights(demo_archive, archive_path):
    cfg = tiny_config("omega", archive_path, sampler=SamplerConfig(n_safety_rollouts=8, k_safety=20))
    demo = subsample_states(demo_archive, cfg.demo_subset, cfg.seed)
    sampler = SafetyWeightedSampler(demo, cfg.env.build(cfg.horizon), cfg.sampler,
                                    substream(cfg.seed, "sampler", 1))
    assert hashlib.sha256(sampler.weights.w.tobytes()).hexdigest() == OMEGA_WEIGHTS


def test_golden_safety_field():
    rows = safety_field(LavaBridgeEnv(), 20, 8, np.random.default_rng(0), nx=8, ny=8)
    digest = hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()
    assert digest == SAFETY_FIELD


# The CSV writer's own digest: the conftest archive (400 transitions, seed 7)
# as save_archive writes it. The run digests above see the demo states and
# the prefilled transitions, but not the bytes of the file.
ARCHIVE_BYTES = "f3082cd694ad21c12c38b604f6e2d7a98385bb352f1662a7fcf241cbcc76122e"


def test_golden_archive_bytes(demo_archive, tmp_path):
    path = tmp_path / "demos.csv"
    save_archive(demo_archive, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ARCHIVE_BYTES
    again = tmp_path / "again.csv"
    save_archive(load_archive(path), again)
    assert again.read_bytes() == path.read_bytes()
