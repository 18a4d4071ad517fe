from dataclasses import fields, is_dataclass, replace

import pytest

from lavabridge.config import (
    EnvSettings,
    RunConfig,
    config_from_mapping,
    load_run_config,
    parse_kv_text,
)
from lavabridge.env import LavaBridgeEnv
from lavabridge.learner import LearnerConfig
from lavabridge.samplers import SamplerConfig

# A config.txt as written before to_text was derived from the dataclasses:
# it omits sampler.kind, and omits run.demo_archive when unset.
LEGACY_TEXT = """\
run.method = hysac-auxss
run.t_max = 12345
run.horizon = 321
run.seed = 9
run.eval_interval = 777
run.eval_episodes = 5
run.demo_subset = 99
run.demo_archive = runs/demos.csv
env.world = 0.0,0.0,10.0,10.0
env.lava = 4.0,0.0,6.0,4.25 ; 4.0,5.75,6.0,10.0
env.goal = 9.0,5.0
env.goal_radius = 0.35
env.start_blobs = 1.0,2.5,0.3 ; 1.0,7.5,0.3
env.ood_points = 1.0,5.0 ; 2.5,1.0 ; 2.5,9.0 ; 3.5,4.0 ; 3.5,6.0 ; 0.5,0.5
env.ood_jitter = 0.15
env.dt = 0.05
env.f_max = 1.0
env.v_max = 2.0
env.drag = 0.1
env.goal_reward = 1.0
env.lava_reward = -1.0
sampler.delta = 0.05
sampler.sigma = 0.25
sampler.scale = 1.0,1.0,2.0,2.0
sampler.epsilon = 0.05
sampler.k_safety = 20
sampler.n_safety_rollouts = 64
sampler.tau0 = 0.5
sampler.tau1 = 5.0
sampler.cause_aware = true
learner.gamma = 0.99
learner.lr = 0.001
learner.batch_size = 64
learner.tau = 0.005
learner.alpha = 0.002
learner.hidden = 32,16
learner.grad_steps = 1
learner.buffer_capacity = 10000
learner.log_std_min = -3.0
learner.log_std_max = 1.0
learner.dtype = float64
"""

# Valid non-default values for the fields whose type cannot be perturbed
# arithmetically.
OTHER_STRINGS = {"method": "sac", "demo_archive": "runs/demos.csv", "kind": "omega",
                 "dtype": "float64"}

BASE = RunConfig(demo_archive="demos.csv")


def all_keys():
    """(section, name) for every field of RunConfig and of its sections."""
    keys = []
    for f in fields(RunConfig):
        sub = getattr(BASE, f.name)
        if is_dataclass(sub):
            keys += [(f.name, g.name) for g in fields(sub)]
        else:
            keys.append(("run", f.name))
    return keys


def other_value(name, value):
    """A valid value different from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, tuple):
        return tuple(other_value(name, v) for v in value)
    return OTHER_STRINGS[name]


class TestParsing:
    def test_basic_lines(self):
        kv = parse_kv_text("""
        # a comment
        run.method = auxss
        run.t_max = 1000   # trailing comment
        env.dt = 0.05
        """)
        assert kv == {"run.method": "auxss", "run.t_max": "1000", "env.dt": "0.05"}

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_kv_text("not a config line")

    def test_duplicate_key_last_wins(self):
        kv = parse_kv_text("run.seed = 1\nrun.seed = 2\n")
        assert kv["run.seed"] == "2"


class TestMapping:
    def test_defaults_without_keys(self):
        cfg = config_from_mapping({"run.method": "sac"})
        assert cfg.t_max == 150_000
        assert cfg.horizon == 500
        assert cfg.learner.buffer_capacity == 10_000
        assert cfg.sampler.delta == 0.05
        assert cfg.env.dt == 0.1

    def test_env_geometry_keys(self):
        cfg = config_from_mapping({
            "run.method": "sac",
            "env.lava": "4,0,6,4.5 ; 4,5.5,6,10",
            "env.goal": "9,5",
            "env.start_blobs": "1,2.5,0.3 ; 1,7.5,0.3",
            "env.dt": "0.05",
        })
        env = cfg.env.build(horizon=100)
        assert env.dt == 0.05
        assert len(env.geometry.lava) == 2
        env.geometry.validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"run.method": "sac", "env.gravity": "9.8"})

    def test_unnamespaced_key_rejected(self):
        with pytest.raises(ValueError, match="namespaced"):
            config_from_mapping({"method": "sac"})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            config_from_mapping({"run.method": "dreamer"})

    def test_demo_methods_require_archive(self):
        with pytest.raises(ValueError, match="demo_archive"):
            config_from_mapping({"run.method": "auxss"})
        cfg = config_from_mapping({"run.method": "auxss", "run.demo_archive": "demos.csv"})
        assert cfg.demo_archive == "demos.csv"

    def test_learner_keys(self):
        cfg = config_from_mapping({
            "run.method": "sac",
            "learner.hidden": "32,32",
            "learner.alpha": "0.01",
            "learner.batch_size": "64",
        })
        assert cfg.learner.hidden == (32, 32)
        assert cfg.learner.alpha == 0.01
        assert cfg.learner.batch_size == 64


class TestRoundTrip:
    def test_to_text_round_trips(self):
        cfg = config_from_mapping({
            "run.method": "goaldist",
            "run.demo_archive": "demos.csv",
            "run.seed": "9",
            "run.t_max": "12345",
            "env.dt": "0.05",
            "sampler.tau0": "0.25",
            "learner.hidden": "16,16",
        })
        again = config_from_mapping(parse_kv_text(cfg.to_text()))
        assert again == cfg

    def test_default_round_trip(self):
        cfg = RunConfig(method="sac")
        assert config_from_mapping(parse_kv_text(cfg.to_text())) == cfg

    def test_every_field_is_written(self):
        written = set(parse_kv_text(BASE.to_text()))
        assert written == {f"{section}.{name}" for section, name in all_keys()}
        assert len(written) == 42

    @pytest.mark.parametrize("section,name", all_keys(), ids=lambda k: k)
    def test_every_field_round_trips(self, section, name, tmp_path):
        if section == "run":
            cfg = replace(BASE, **{name: other_value(name, getattr(BASE, name))})
        else:
            sub = getattr(BASE, section)
            value = other_value(name, getattr(sub, name))
            cfg = replace(BASE, **{section: replace(sub, **{name: value})})
        assert cfg != BASE
        path = tmp_path / "config.txt"
        path.write_text(cfg.to_text())
        assert load_run_config(path) == cfg

    def test_legacy_text_loads(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(LEGACY_TEXT)
        assert load_run_config(path) == RunConfig(
            method="hysac-auxss", t_max=12345, horizon=321, seed=9, eval_interval=777,
            eval_episodes=5, demo_archive="runs/demos.csv", demo_subset=99,
            env=EnvSettings(dt=0.05, goal_radius=0.35,
                            lava=((4.0, 0.0, 6.0, 4.25), (4.0, 5.75, 6.0, 10.0))),
            sampler=SamplerConfig(sigma=0.25, scale=(1.0, 1.0, 2.0, 2.0), k_safety=20,
                                  cause_aware=True),
            learner=LearnerConfig(hidden=(32, 16), lr=1e-3, dtype="float64", batch_size=64),
        )

    def test_unset_archive_round_trips(self):
        cfg = RunConfig(method="sac")
        assert "run.demo_archive =\n" in cfg.to_text()
        assert config_from_mapping(parse_kv_text(cfg.to_text())).demo_archive is None


class TestValidation:
    @pytest.mark.parametrize("key,value", [
        ("env.world", "1,2"),
        ("env.goal", "9,5,1"),
        ("env.lava", "4,0,6 ; 4,5.5,6,10"),
        ("sampler.scale", "1,1"),
    ])
    def test_wrong_tuple_arity_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"config key {key}: expected"):
            config_from_mapping({"run.method": "sac", key: value})

    @pytest.mark.parametrize("key,value", [
        ("learner.grad_steps", "0"),
        ("learner.batch_size", "0"),
        ("learner.batch_size", "-4"),
        ("learner.hidden", "0"),
        ("learner.hidden", "64,0"),
        ("learner.log_std_min", "2"),      # above the default log_std_max of 1
        ("learner.log_std_max", "-3"),     # equal to the default log_std_min
        ("learner.log_std_min", "nan"),
        ("learner.log_std_max", "inf"),
        ("learner.lr", "-1"),
        ("learner.tau", "2"),
        ("learner.alpha", "-0.5"),
        ("learner.dtype", "int8"),
        ("sampler.scale", "0,1,1,1"),
        ("sampler.n_safety_rollouts", "0"),
        ("run.demo_subset", "0"),
        ("run.demo_archive", "runs/#1/demos.csv"),  # would reload cut at the comment
        ("run.demo_archive", "runs/a\nb.csv"),
        ("sampler.kind", "a#b"),
    ])
    def test_out_of_range_rejected(self, key, value):
        with pytest.raises(ValueError, match=key.split(".")[1]):
            config_from_mapping({"run.method": "sac", key: value})

    @pytest.mark.parametrize("kw,match", [
        ({"batch_size": 0}, "batch_size"),           # was ZeroDivisionError at the first update
        ({"hidden": (0,)}, "hidden"),                 # was ZeroDivisionError in MLP.__init__
        ({"hidden": (64, -1)}, "hidden"),
        ({"log_std_min": 2.0, "log_std_max": -1.0}, "log_std_min"),  # was a silently flipped bound
        ({"log_std_min": 0.5, "log_std_max": 0.5}, "log_std_min"),
        ({"log_std_min": float("-inf")}, "finite"),
        ({"log_std_max": float("nan")}, "finite"),
    ])
    def test_learner_config_rejects_at_construction(self, kw, match):
        with pytest.raises(ValueError, match=match):
            LearnerConfig(**kw)

    def test_bad_scalar_names_its_key(self):
        with pytest.raises(ValueError, match="config key learner.batch_size"):
            config_from_mapping({"run.method": "sac", "learner.batch_size": "many"})


class TestLoadRunConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.method = sac\nrun.seed = 4\n")
        cfg = load_run_config(path, {"run.seed": "7"})
        assert cfg.seed == 7
        assert cfg.method == "sac"

    def test_overrides_only(self):
        cfg = load_run_config(None, {"run.method": "sac", "run.t_max": "100"})
        assert cfg.t_max == 100


class TestEnvSettings:
    def test_build_uses_defaults(self):
        env = EnvSettings().build(horizon=500)
        assert env.horizon == 500
        assert env.geometry.goal_radius == 0.4
        assert env.geometry_hash() == EnvSettings().build(horizon=500).geometry_hash()

    @pytest.mark.parametrize("horizon", [1, 500])
    def test_defaults_match_env(self, horizon):
        assert (EnvSettings().build(horizon).geometry_hash()
                == LavaBridgeEnv(horizon=horizon).geometry_hash())
