"""Ring replay buffer with a freezable demonstration prefix.

A transition is stored as one packed row ``[s | a | s2 | r | done]``: state
``(4,)``, force ``(2,)``, next state ``(4,)``, reward and ``done``, 12
columns in all. ``done`` marks true environment termination (goal or lava),
never timeouts, so bootstrapping stays horizon-agnostic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReplayBuffer", "prefill_demo"]


class ReplayBuffer:
    """Fixed-capacity FIFO storage over one packed ``(capacity, width)`` array.

    Rows are held in ``dtype``, the learner's training dtype, so a sampled
    batch goes to the networks without conversion; ``states``, ``actions``,
    ``next_states``, ``rewards`` and ``dones`` are column views of ``rows``.
    The first ``frozen_prefix_len`` rows are exempt from eviction: online
    insertions cycle through the remaining slots oldest-first. Sampling is
    uniform over everything currently stored, frozen rows included.
    """

    def __init__(self, capacity: int, dtype=np.float64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.rows = np.zeros((capacity, 12), dtype=dtype)
        self.states = self.rows[:, :4]
        self.actions = self.rows[:, 4:6]
        self.next_states = self.rows[:, 6:10]
        self.rewards = self.rows[:, -2]
        self.dones = self.rows[:, -1]
        self.frozen_prefix_len = 0
        self._size = 0
        self._pos = 0  # next online slot

    def __len__(self) -> int:
        return self._size

    @property
    def online_size(self) -> int:
        """Insertions currently stored outside the frozen prefix."""
        return self._size - self.frozen_prefix_len

    def add(self, s, a, r: float, s2, done: bool) -> None:
        """Store one online transition: state, ``(fx, fy)`` force, reward, next state, done."""
        if self.frozen_prefix_len >= self.capacity:
            raise ValueError("buffer is fully frozen; no online slots left")
        i = self._pos
        self.states[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_states[i] = s2
        self.dones[i] = 1.0 if done else 0.0
        self._pos += 1
        if self._pos >= self.capacity:
            self._pos = self.frozen_prefix_len  # wrap into the evictable region
        if self._size < self.capacity:
            self._size += 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """``batch_size`` packed rows drawn uniformly with replacement, as one
        ``(batch_size, width)`` array; ``split`` names its columns."""
        if batch_size > self._size:
            raise ValueError(f"batch size {batch_size} exceeds buffer size {self._size}")
        return self.rows[rng.integers(self._size, size=batch_size)]

    def split(self, rows: np.ndarray):
        """Column views ``(s, a, r, s2, done)`` of packed rows, such as a sampled batch."""
        sd = self.states.shape[1]
        sa = sd + self.actions.shape[1]
        return rows[:, :sd], rows[:, sd:sa], rows[:, -2], rows[:, sa:sa + sd], rows[:, -1]

    def state_actions(self, rows: np.ndarray) -> np.ndarray:
        """The ``[s | a]`` columns of packed rows as one strided view, no copy."""
        return rows[:, : self.states.shape[1] + self.actions.shape[1]]


def prefill_demo(buffer: ReplayBuffer, states, actions, rewards, next_states, dones) -> None:
    """Add n demonstration transitions, given as five arrays of n rows, as the frozen prefix.

    Must be called on a fresh buffer; the prefix is never evicted afterwards.
    """
    n = len(rewards)
    if len(buffer) != 0 or buffer.frozen_prefix_len != 0:
        raise ValueError("prefill requires an empty buffer")
    if n > buffer.capacity:
        raise ValueError(f"{n} demo transitions exceed capacity {buffer.capacity}")
    for row in zip(states, actions, rewards, next_states, dones):
        buffer.add(*row)
    buffer.frozen_prefix_len = n
