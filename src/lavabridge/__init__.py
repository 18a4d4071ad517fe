"""Lava Bridge start-state-distribution RL lab."""

from .env import (
    Cause,
    EnvSettings,
    EpisodeOverError,
    InvalidResetError,
    LavaBridgeEnv,
    Rect,
    State,
    StepResult,
    Vec2,
)
from .samplers import SamplerConfig, SamplerWeights
from .safety import SafetyEstimate, estimate_safety
from .replay import ReplayBuffer, prefill_demo
from .learner import (
    DivergenceError,
    EpisodeResult,
    LearnerConfig,
    SACLearner,
    train_for_one_episode,
)
from .demos import DemoArchive, DemoTrajectory, generate_demos, load_archive, save_archive, subsample_states
from .config import RunConfig, load_run_config
from .bench import TrainingRun, evaluate, run_training, sweep

__version__ = "0.1.0"
