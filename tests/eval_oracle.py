"""Oracle ``bench.evaluate`` is tested against: its former loop over ``reset_to``, ``step`` and snapshots.

``snapshot_evaluate`` draws the start states in episode order, resets the env
to each and keeps its snapshot; then each step makes one ``act_batch`` call
over the episodes still running and steps each of them on the env from its
own snapshot. It shares no code with ``evaluate``'s walk over
``LavaBridgeEnv.transition``: timeouts come from the env's step counter and
every step's reward is added, zero or not.
"""

from __future__ import annotations

import numpy as np

from lavabridge.env import Cause, LavaBridgeEnv


def snapshot_evaluate(
    learner,
    env: LavaBridgeEnv,
    which: str,
    n_episodes: int,
    horizon: int,
    gamma: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """(success rate, mean discounted return), as ``evaluate`` computed them before.

    ``env`` is left in the state of the last episode stepped.
    """
    if n_episodes < 1:
        raise ValueError("evaluation needs at least one episode")
    snaps = []
    for _ in range(n_episodes):
        env.reset_to(env.sample_start(which, rng))
        snaps.append(env.snapshot())
    returns = [0.0] * n_episodes
    successes = 0
    active = list(range(n_episodes))
    discount = 1.0
    for _ in range(horizon):
        if not active:
            break
        forces = learner.act_batch(np.array([snaps[i][:4] for i in active]))
        running = []
        for i, force in zip(active, forces.tolist()):
            env.restore(snaps[i])
            res = env.step(force)
            returns[i] += discount * res.reward
            if res.terminated:
                successes += res.cause is Cause.GOAL
            else:
                snaps[i] = env.snapshot()
                running.append(i)
        active = running
        discount *= gamma
    total_return = 0.0
    # Added in episode order like the one-at-a-time loop; not sum(), which
    # compensates rounding on Python >= 3.12.
    for ep_return in returns:
        total_return += ep_return
    return successes / n_episodes, total_return / n_episodes
