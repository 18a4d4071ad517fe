"""Small fully-connected networks with hand-written backprop.

Everything the actor-critic learner needs: one MLP class with a smooth
saturating activation, Adam, and the squashed-Gaussian policy head. Gradients
are coded by hand and checked against central finite differences in the test
suite, which is why every nonlinearity here is smooth (the hidden activation
is x / sqrt(1 + x^2); the log-std bound is tanh-shaped) rather than clipped or
rectified.

An MLP holds ``members`` same-shaped networks along a leading axis and runs
them together on a shared input batch: the policy is one member, the twin
critics (and their targets) are two. All parameters of an MLP live in a single
flat vector with per-layer views, so optimizer and target-averaging updates
are a handful of large vector ops. The training dtype is configurable:
float32 for the hot loop, float64 where finite-difference comparisons need the
headroom.

The forward cache holds, per hidden layer, the output ``h = z / s`` and the
root ``s = sqrt(1 + z^2)``: the activation's slope is ``1 / s^3``, so the
backward divides by ``s`` three times and keeps no other temporaries. A
forward-only pass (``keep_cache=False``) keeps nothing. The backward has two
modes beyond the full one: ``params=False`` skips every parameter gradient,
and ``input_cols`` returns the input gradient of some input columns only (or
none). The policy loss uses both to reach the action columns of the critics'
input gradient.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MLP", "Adam", "SquashedGaussianHead", "ema_update"]

LOG_2PI = math.log(2.0 * math.pi)


class MLP:
    """``members`` same-shaped feed-forward nets on one shared input batch.

    Hidden units are smooth and saturating, the output is linear. ``params``
    is the flat list [W0, b0, W1, b1, ...] of views into ``flat``, with
    weights (members, in, out) and biases (members, 1, out), so one batched
    matmul per layer advances every member. Weights initialize uniformly in
    +-1/sqrt(fan_in).
    """

    def __init__(self, sizes, rng: np.random.Generator | None = None, dtype=np.float64,
                 members: int = 1):
        self.sizes = tuple(int(s) for s in sizes)
        if len(self.sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.members = int(members)
        self.dtype = np.dtype(dtype)
        total = sum(self.members * (i + 1) * o for i, o in zip(self.sizes[:-1], self.sizes[1:]))
        self.flat = np.zeros(total, dtype=self.dtype)
        self.params: list[np.ndarray] = self._views(self.flat)
        if rng is not None:
            for fan_in, (w, b) in zip(self.sizes[:-1], zip(self.params[0::2], self.params[1::2])):
                bound = 1.0 / math.sqrt(fan_in)
                w[...] = rng.uniform(-bound, bound, size=w.shape)
                b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        views = []
        off = 0
        m = self.members
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            views.append(flat[off : off + m * fan_in * fan_out].reshape(m, fan_in, fan_out))
            off += m * fan_in * fan_out
            views.append(flat[off : off + m * fan_out].reshape(m, 1, fan_out))
            off += m * fan_out
        return views

    def member_params(self, i: int, flat: np.ndarray | None = None) -> list[np.ndarray]:
        """Member ``i``'s views [W0 (in,out), b0 (out,), ...] into ``flat``
        (default: the parameters; pass a flat gradient to split it the same way)."""
        views = self.params if flat is None else self._views(flat)
        out = []
        for w, b in zip(views[0::2], views[1::2]):
            out.append(w[i])
            out.append(b[i, 0])
        return out

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: np.ndarray, keep_cache: bool = True):
        """Input (batch, in); returns (output (members, batch, out), cache).

        The cache is [x, (h, s), ..., output] with each hidden layer's output
        ``h = z / s`` and the root ``s = sqrt(1 + z^2)`` of its activation;
        ``keep_cache=False`` makes a forward-only pass that returns ``None``
        for it.
        """
        acts = [x]
        h = x  # (batch, in) broadcasts against (members, in, out) on the first layer
        last = self.n_layers - 1
        for layer in range(self.n_layers):
            h = np.matmul(h, self.params[2 * layer])
            h += self.params[2 * layer + 1]
            if layer != last:
                s = np.multiply(h, h)  # activation z / sqrt(1 + z^2); slope 1 / s^3
                s += 1.0
                np.sqrt(s, out=s)
                h /= s
                if keep_cache:
                    acts.append((h, s))
        acts.append(h)
        return h, (acts if keep_cache else None)

    def backward(self, cache, dout: np.ndarray, params: bool = True, input_cols=slice(None)):
        """Gradient of a scalar loss given d(loss)/d(output) of shape (members, batch, out).

        Returns (flat_grad, dx) with dx of shape (members, batch, in): the
        input gradient through each member separately. ``member_params`` splits
        the flat gradient per member; each call allocates a fresh gradient
        buffer. ``params=False`` computes no parameter gradient (``flat_grad``
        is ``None``); ``input_cols`` picks the input columns that ``dx``
        covers, and ``None`` skips it.
        """
        flat_grad = np.empty_like(self.flat) if params else None
        grads = self._views(flat_grad) if params else None
        ones = np.ones((1, dout.shape[1]), dtype=self.dtype) if params else None
        delta = dout
        for layer in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * layer]
            if params:
                a_in = cache[layer] if layer == 0 else cache[layer][0]
                # The shared first-layer input is 2-D, hidden activations are 3-D.
                np.matmul(np.swapaxes(a_in, -1, -2), delta, out=grads[2 * layer])
                np.matmul(ones, delta, out=grads[2 * layer + 1])  # bias: column sums
            if layer == 0:
                if input_cols is None:
                    return flat_grad, None
                return flat_grad, np.matmul(delta, np.swapaxes(w[:, input_cols, :], -1, -2))
            delta = np.matmul(delta, np.swapaxes(w, -1, -2))
            s = cache[layer][1]
            delta /= s
            delta /= s
            delta /= s

    @staticmethod
    def cache_rows(cache, rows: slice):
        """The rows ``rows`` of a forward's cache, for a backward through part of the batch."""
        x, *hidden, out = cache
        return [x[rows], *((h[:, rows], s[:, rows]) for h, s in hidden), out[:, rows]]

    def copy_from(self, other: "MLP") -> None:
        self.flat[...] = other.flat


class Adam:
    """Standard Adam with bias correction over a network's flat parameters.

    ``step`` works in two preallocated buffers and makes no temporaries.
    """

    def __init__(self, net: MLP, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)
        self.t = 0
        self._num = np.empty_like(net.flat)
        self._den = np.empty_like(net.flat)

    def step(self, flat_grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        num, den = self._num, self._den
        self.m *= b1
        self.m += np.multiply(flat_grad, 1.0 - b1, out=num)
        self.v *= b2
        np.multiply(flat_grad, flat_grad, out=num)
        self.v += np.multiply(num, 1.0 - b2, out=num)
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        # flat -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(self.m, c1, out=num)
        num *= self.lr
        np.divide(self.v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        self.net.flat -= num


def ema_update(target, source, tau: float) -> None:
    """Polyak averaging over flat parameters: target <- (1-tau)*target + tau*source."""
    target.flat *= 1.0 - tau
    target.flat += tau * source.flat


class SquashedGaussianHead:
    """Maps raw net output [mu | raw] to a tanh-squashed Gaussian action.

    The log standard deviation is bounded smoothly:
        log_std = lo + 0.5 * (hi - lo) * (tanh(raw) + 1)
    and actions are a = a_max * tanh(mu + std * xi) for unit normal xi.
    """

    def __init__(self, act_dim: int, a_max: float, log_std_min: float, log_std_max: float):
        self.act_dim = act_dim
        self.a_max = a_max
        self.lo = log_std_min
        self.half_span = 0.5 * (log_std_max - log_std_min)

    def split(self, out: np.ndarray):
        return out[:, : self.act_dim], out[:, self.act_dim :]

    def log_std(self, raw: np.ndarray) -> np.ndarray:
        return self.lo + self.half_span * (np.tanh(raw) + 1.0)

    def sample(self, out: np.ndarray, xi: np.ndarray):
        """Reparameterized draw. Returns (action, log_prob, cache)."""
        mu, raw = self.split(out)
        t_raw = np.tanh(raw)
        log_std = self.lo + self.half_span * (t_raw + 1.0)
        std = np.exp(log_std)
        u = mu + std * xi
        t_u = np.tanh(u)
        a = self.a_max * t_u
        # log pi(a) = log N(u; mu, std) - sum log |da/du|, with
        # log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)) for stability.
        log_det = 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u)) + math.log(self.a_max)
        log_prob = np.sum(-0.5 * xi**2 - log_std - 0.5 * LOG_2PI - log_det, axis=1)
        cache = (xi, std, u, t_u, t_raw)
        return a, log_prob, cache

    def backward(self, cache, d_action: np.ndarray, d_log_prob: np.ndarray) -> np.ndarray:
        """Gradient wrt the raw net output given gradients at (action, log_prob)."""
        xi, std, u, t_u, t_raw = cache
        dlp = d_log_prob[:, None]
        # d log_prob / du = 2 tanh(u); d a / du = a_max (1 - tanh(u)^2)
        du = d_action * self.a_max * (1.0 - t_u**2) + dlp * (2.0 * t_u)
        d_mu = du
        # u = mu + std * xi, and log_prob carries an explicit -log_std term.
        d_log_std = du * (std * xi) - dlp
        d_raw = d_log_std * self.half_span * (1.0 - t_raw**2)
        return np.concatenate([d_mu, d_raw], axis=1)

    def mean_action(self, out: np.ndarray) -> np.ndarray:
        mu, _ = self.split(out)
        return self.a_max * np.tanh(mu)
