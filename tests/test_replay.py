import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lavabridge.demos import generate_demos
from lavabridge.env import LavaBridgeEnv
from lavabridge.replay import ReplayBuffer, prefill_demo


def mk_transition(tag: float, done=False):
    """(state, force, reward, next state, done) of one step, tagged by position."""
    return (np.array([tag, tag, 0.0, 0.0]), (0.1, -0.1), 0.0,
            np.array([tag + 0.5, tag, 0.1, 0.0]), done)


def prefill(buf, transitions):
    """prefill_demo with the transitions stacked into its five arrays."""
    s, a, r, s2, done = ([t[k] for t in transitions] for k in range(5))
    prefill_demo(buf, np.reshape(s, (-1, 4)), np.reshape(a, (-1, 2)), np.array(r, dtype=float),
                 np.reshape(s2, (-1, 4)), np.array(done, dtype=float))


def stored_tags(buf):
    return sorted(buf.states[: buf.size, 0].tolist())


class TestRingBehavior:
    def test_fifo_eviction_exact(self):
        buf = ReplayBuffer(capacity=8)
        for i in range(13):  # 5 past capacity: tags 0..4 evicted exactly
            buf.add(*mk_transition(float(i)))
        assert buf.size == 8
        assert stored_tags(buf) == [float(i) for i in range(5, 13)]

    def test_size_tracks_until_capacity(self):
        buf = ReplayBuffer(capacity=4)
        for i in range(3):
            buf.add(*mk_transition(float(i)))
        assert len(buf) == 3
        buf.add(*mk_transition(3.0))
        buf.add(*mk_transition(4.0))
        assert len(buf) == 4

    def test_done_flag_roundtrip(self):
        buf = ReplayBuffer(capacity=4)
        buf.add(*mk_transition(1.0, done=True))
        buf.add(*mk_transition(2.0, done=False))
        assert buf.dones[0] == 1.0
        assert buf.dones[1] == 0.0


class TestFrozenPrefix:
    def test_prefill_sets_prefix(self):
        buf = ReplayBuffer(capacity=10)
        prefill(buf, [mk_transition(float(i), done=(i == 4)) for i in range(5)])
        assert buf.frozen_prefix_len == 5
        assert buf.size == 5
        assert buf.online_size == 0

    def test_prefill_empty_is_noop(self):
        buf = ReplayBuffer(capacity=10)
        prefill(buf, [])
        assert buf.frozen_prefix_len == 0
        assert buf.size == 0

    def test_prefill_overflow_rejected(self):
        buf = ReplayBuffer(capacity=3)
        with pytest.raises(ValueError, match="capacity"):
            prefill(buf, [mk_transition(float(i)) for i in range(4)])

    def test_prefill_requires_fresh_buffer(self):
        buf = ReplayBuffer(capacity=4)
        buf.add(*mk_transition(0.0))
        with pytest.raises(ValueError, match="empty"):
            prefill(buf, [mk_transition(1.0)])

    def test_eviction_cycles_online_region_only(self):
        buf = ReplayBuffer(capacity=6)
        prefill(buf, [mk_transition(100.0 + i) for i in range(2)])
        for i in range(9):  # online region holds 4; the last 4 survive
            buf.add(*mk_transition(float(i)))
        assert stored_tags(buf) == [5.0, 6.0, 7.0, 8.0, 100.0, 101.0]

    def test_prefix_bitwise_stable_under_stress(self):
        buf = ReplayBuffer(capacity=512)
        prefill(buf, [mk_transition(1000.0 + i, done=(i % 7 == 0)) for i in range(50)])

        def prefix_digest():
            h = hashlib.sha256()
            n = buf.frozen_prefix_len
            for arr in (buf.states, buf.actions, buf.rewards, buf.next_states, buf.dones):
                h.update(arr[:n].tobytes())
            return h.hexdigest()

        before = prefix_digest()
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 10, size=4)
        for i in range(1_000_000):
            buf.add(s, (0.1, -0.1), 0.0, s, False)
        assert prefix_digest() == before
        assert buf.size == 512

    @settings(max_examples=50, deadline=None)
    @given(capacity=st.integers(2, 24), data=st.data())
    def test_ring_never_touches_prefix(self, capacity, data):
        n = data.draw(st.integers(0, capacity - 1), label="prefix")
        adds = data.draw(st.integers(0, 3 * capacity), label="online adds")
        buf = ReplayBuffer(capacity=capacity)
        prefill(buf, [mk_transition(100.0 + i, done=(i % 3 == 0)) for i in range(n)])
        arrays = (buf.states, buf.actions, buf.rewards, buf.next_states, buf.dones)
        before = [a[:n].tobytes() for a in arrays]
        for i in range(adds):
            buf.add(*mk_transition(float(i)))
            assert [a[:n].tobytes() for a in arrays] == before
        assert buf.frozen_prefix_len == n
        assert buf.size == min(capacity, n + adds)

    def test_fully_frozen_buffer_rejects_online_adds(self):
        buf = ReplayBuffer(capacity=3)
        prefill(buf, [mk_transition(float(i)) for i in range(3)])
        with pytest.raises(ValueError, match="frozen"):
            buf.add(*mk_transition(9.0))


    def test_prefill_copies_archive_arrays_bitwise(self):
        archive = generate_demos(LavaBridgeEnv(), n_transitions=150, seed=3)
        arrays = archive.transition_arrays()
        buf = ReplayBuffer(capacity=200)
        prefill_demo(buf, *arrays)
        n = archive.n_transitions
        assert (buf.frozen_prefix_len, buf.size, buf.online_size) == (n, n, 0)
        stored = (buf.states, buf.actions, buf.rewards, buf.next_states, buf.dones)
        for want, got in zip(arrays, stored):
            assert want.dtype == np.float64
            assert got[:n].tobytes() == want.tobytes()
        assert not buf.states[n:].any()  # nothing past the prefix
        # Only each trajectory's last transition is done, and it chains into the next state.
        ends = np.cumsum([len(t) for t in archive.trajectories]) - 1
        assert np.flatnonzero(buf.dones[:n]).tolist() == ends.tolist()
        starts = np.setdiff1d(np.arange(1, n), ends + 1)
        assert np.array_equal(buf.states[starts], buf.next_states[starts - 1])


class TestSampling:
    def test_batch_larger_than_size_rejected(self):
        buf = ReplayBuffer(capacity=8)
        buf.add(*mk_transition(0.0))
        with pytest.raises(ValueError, match="batch"):
            buf.sample(2, np.random.default_rng(0))

    def test_sample_shapes(self):
        buf = ReplayBuffer(capacity=8)
        for i in range(6):
            buf.add(*mk_transition(float(i)))
        rows = buf.sample(4, np.random.default_rng(1))
        assert rows.shape == (4, 12)
        s, a, r, s2, done = buf.split(rows)
        assert s.shape == (4, 4) and a.shape == (4, 2)
        assert r.shape == (4,) and s2.shape == (4, 4) and done.shape == (4,)

    def test_sampling_covers_frozen_and_online(self):
        buf = ReplayBuffer(capacity=16)
        prefill(buf, [mk_transition(100.0)] * 4)
        for i in range(4):
            buf.add(*mk_transition(0.0))
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(200):
            s, *_ = buf.split(buf.sample(2, rng))
            seen.update(s[:, 0].tolist())
        assert seen == {100.0, 0.0}


class TestPackedRows:
    def test_layout_is_s_a_s2_r_done(self):
        buf = ReplayBuffer(capacity=4)
        buf.add(np.array([1.0, 2.0, 3.0, 4.0]), (5.0, 6.0), 11.0, np.array([7.0, 8.0, 9.0, 10.0]), True)
        assert buf.rows[0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 1.0]
        for view in (buf.states, buf.actions, buf.next_states, buf.rewards, buf.dones):
            assert view.base is buf.rows

    def test_sample_gathers_the_drawn_rows(self):
        buf = ReplayBuffer(capacity=16)
        for i in range(10):
            buf.add(*mk_transition(float(i), done=i % 3 == 0))
        rows = buf.sample(8, np.random.default_rng(3))
        idx = np.random.default_rng(3).integers(10, size=8)
        assert np.array_equal(rows, buf.rows[idx])
        s, a, r, s2, done = buf.split(rows)
        for got, stored in zip((s, a, r, s2, done),
                               (buf.states, buf.actions, buf.rewards, buf.next_states, buf.dones)):
            assert np.array_equal(got, stored[idx])
        sa = buf.state_actions(rows)
        assert sa.base is rows and np.array_equal(sa, np.concatenate([s, a], axis=1))

    def test_float32_rows_equal_float64_rows_cast(self):
        # Storing in the learner's dtype rounds each value once, as the cast
        # of a float64 row would.
        rng = np.random.default_rng(4)
        b64 = ReplayBuffer(capacity=64)
        b32 = ReplayBuffer(capacity=64, dtype=np.float32)
        for _ in range(50):
            s, s2 = rng.uniform(-10, 10, 4), rng.uniform(-10, 10, 4)
            a = tuple(rng.uniform(-1, 1, 2).tolist())
            r, done = float(rng.standard_normal()), bool(rng.integers(2))
            b64.add(s, a, r, s2, done)
            b32.add(s, a, r, s2, done)
        assert b32.rows.dtype == np.float32
        assert b32.rows.tobytes() == b64.rows.astype(np.float32).tobytes()
