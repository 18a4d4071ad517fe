"""``bench.evaluate`` against its former snapshot loop, ``eval_oracle.snapshot_evaluate``.

Both must give the same success rate and mean return bit for bit, from the
same ``act_batch`` calls on the same inputs, for learned and scripted
policies, both start sets, 1-50 episodes, and horizons below, at and above
the env's own. The near-goal geometry puts one start blob beside the goal
disc and one at the mouth of the bridge, so goal endings, lava endings and
timeouts mix within one call. The moved geometry does the same with every
dynamics, bounds, lava, goal and reward constant off its default.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eval_oracle import snapshot_evaluate
from lavabridge.bench import evaluate
from lavabridge.env import Cause, EnvSettings, LavaBridgeEnv, Rect, Vec2
from lavabridge.learner import LearnerConfig, SACLearner

NEAR_GOAL = EnvSettings(start_blobs=((Vec2(7.5, 5.0), 0.6), (Vec2(3.0, 5.0), 0.8)))
# Starts beside the goal, before a narrow gap and far back, under slower dynamics.
MOVED = EnvSettings(world=Rect(0.0, 0.0, 10.5, 9.5), lava=(Rect(4.5, 0.0, 5.5, 2.5), Rect(4.5, 3.5, 5.5, 9.5)),
                    goal=Vec2(7.0, 3.0), goal_radius=0.6,
                    start_blobs=((Vec2(6.0, 3.0), 0.6), (Vec2(2.5, 3.0), 1.0), (Vec2(0.5, 3.0), 0.2)),
                    dt=0.08, f_max=0.9, v_max=1.2, drag=0.2, goal_reward=2.0, lava_reward=-0.5)


class GoalSeeker:
    """Duck-typed policy: a damped pull toward the goal plus a constant push."""

    def __init__(self, geometry, gain, damping, push):
        self.goal = np.array([geometry.goal.x, geometry.goal.y])
        self.gain, self.damping, self.push = gain, damping, np.array(push)

    def act_batch(self, states):
        return self.gain * (self.goal - states[:, :2]) - self.damping * states[:, 2:] + self.push


class Recorder:
    """Passes ``act_batch`` through and keeps the bytes of every input."""

    def __init__(self, policy):
        self.policy = policy
        self.inputs = []

    def act_batch(self, states):
        self.inputs.append((states.shape, states.tobytes()))
        return self.policy.act_batch(states)


def scaled_learner(seed, scale):
    learner = SACLearner(LearnerConfig(), init_rng=np.random.default_rng(seed),
                         noise_rng=np.random.default_rng(seed + 1))
    for p in learner.policy.params[-2:]:
        p *= scale
    return learner


@st.composite
def policies(draw, geometry):
    if draw(st.booleans()):
        return scaled_learner(draw(st.integers(0, 2**16)),
                              draw(st.sampled_from([1.0, 0.3, 0.1, 0.0]) | st.floats(0.0, 1.5)))
    unit = st.floats(-0.6, 0.6)
    return GoalSeeker(geometry, draw(st.floats(0.0, 2.5)), draw(st.floats(0.0, 2.0)),
                      (draw(unit), draw(unit)))


@st.composite
def eval_cases(draw):
    geometry = draw(st.sampled_from([EnvSettings(), NEAR_GOAL, MOVED]))
    env_horizon = draw(st.sampled_from([30, 60, 150]))
    horizon = draw(st.sampled_from([1, env_horizon // 2, env_horizon - 1, env_horizon,
                                    env_horizon + 1, 2 * env_horizon]))
    return dict(geometry=geometry, env_horizon=env_horizon, policy=draw(policies(geometry)),
                which=draw(st.sampled_from(["p0", "ood"])), n_episodes=draw(st.integers(1, 50)),
                horizon=horizon, gamma=draw(st.floats(0.01, 0.999)),
                seed=draw(st.integers(0, 2**32 - 1)))


def run_both(geometry, env_horizon, policy, which, n_episodes, horizon, gamma, seed):
    """Results and ``act_batch`` inputs of ``evaluate`` and the oracle, each on its own env."""
    env = LavaBridgeEnv(geometry, horizon=env_horizon)
    env.reset_to([2.0, 3.0, 0.5, -0.5])
    env.step((0.3, 0.2))
    before = env.snapshot()
    got_policy, want_policy = Recorder(policy), Recorder(policy)
    got = evaluate(got_policy, env, which, n_episodes, horizon, gamma, np.random.default_rng(seed))
    assert env.snapshot() == before
    want = snapshot_evaluate(want_policy, LavaBridgeEnv(geometry, horizon=env_horizon), which,
                             n_episodes, horizon, gamma, np.random.default_rng(seed))
    return (got, got_policy.inputs), (want, want_policy.inputs)


def bits(pair):
    return [float(x).hex() for x in pair]


@settings(max_examples=200, deadline=None)
@given(case=eval_cases())
def test_evaluate_equals_snapshot_oracle(case):
    (got, got_inputs), (want, want_inputs) = run_both(**case)
    assert bits(got) == bits(want)
    assert got_inputs == want_inputs


def test_near_goal_case_mixes_goal_lava_and_timeout_endings():
    assert_fixed_case_mixes_endings(NEAR_GOAL)


def test_moved_case_mixes_goal_lava_and_timeout_endings():
    assert_fixed_case_mixes_endings(MOVED)


def assert_fixed_case_mixes_endings(geometry):
    # The fixed case the property test's draws of ``geometry`` stand for, with
    # each episode's ending and length found by rolling it out on its own.
    case = dict(geometry=geometry, env_horizon=60, policy=GoalSeeker(geometry, 0.5, 0.0, (0.0, 0.0)),
                which="p0", n_episodes=20, horizon=60, gamma=0.99, seed=0)
    (got, _), (want, _) = run_both(**case)
    assert bits(got) == bits(want)
    env = LavaBridgeEnv(geometry, horizon=60)
    rng = np.random.default_rng(0)
    endings = []
    for _ in range(20):
        env.reset_to(env.sample_start("p0", rng))
        while not env.terminated:
            res = env.step(case["policy"].act_batch(env.state[None])[0].tolist())
        endings.append((res.cause, env.steps))
    causes = [cause for cause, _ in endings]
    assert {Cause.GOAL, Cause.LAVA, Cause.TIMEOUT} <= set(causes)
    assert got[0] == causes.count(Cause.GOAL) / 20
    assert len({steps for _, steps in endings}) > 10
