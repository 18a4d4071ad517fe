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

Buffers and lifetimes. Each MLP owns reusable arrays for its hidden layers:
the forward's matmul output ``h`` and root ``s``, and the backward's
``delta``, one set per input shape. The forward and backward write into them
with ``out=``, which runs the same kernels as a fresh result, so the bits do
not change; a training update then allocates no large array, and the heap
top is not returned to the OS and faulted back in on every update. The
rules that follow:

- A forward's output, the backward's flat gradient and its ``dx`` are fresh
  arrays and stay valid.
- The hidden ``(h, s)`` of a cache stay valid until the next forward of the
  same net with an input of the same shape and dtype; a forward at another
  row count, or of another net, leaves them alone.
- Buffers are only used when the input (for the backward, ``dout``) has the
  net's dtype. A float64 input to a float32 net, as ``act`` and
  ``act_batch`` pass, runs in float64 on fresh arrays.
- Memory grows with the number of distinct input shapes a net sees: one
  per training pass, plus, in a float64 net, one per row count that acting
  uses (at most one per lockstep evaluation episode).

Fan-out 1. Where a layer has one output unit (the critics' output layer),
the backward's ``delta @ W^T`` is a ``(batch, 1) @ (1, in)`` product per
member. numpy's matmul sends such a column-times-row product to its own
non-BLAS loop, which at the default critic shape takes longer than a full
hidden-layer gemm. With
one term per element that loop computes ``0 + d * w``, so the backward
computes the broadcast product ``d * w`` instead. The two differ only where
the product is an exact zero, in its sign; every consumer of ``delta`` is a
matmul whose sums start at +0, so the backward's outputs do not change.
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
        self._buffers: dict[tuple, np.ndarray] = {}
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
        for it. The output is a fresh array. When ``x`` has the net's dtype,
        the hidden ``(h, s)`` live in this net's buffers for that input
        shape, so the cache stays valid until the next forward of this net
        with an input of the same shape and dtype.
        """
        acts = [x]
        h = x  # (batch, in) broadcasts against (members, in, out) on the first layer
        last = self.n_layers - 1
        reuse = x.dtype == self.dtype  # other inputs (act's float64 rows) get fresh arrays
        if reuse:  # hidden arrays are (members or x's leading axes, batch, width)
            lead = ((self.members,) if x.ndim == 2
                    else np.broadcast_shapes(x.shape[:-2], (self.members,)))
            rows = (*lead, x.shape[-2])
        for layer in range(self.n_layers):
            w = self.params[2 * layer]
            hidden = layer != last
            out = self._buffer(("h", layer), (*rows, w.shape[-1])) if hidden and reuse else None
            h = np.matmul(h, w, out=out)
            h += self.params[2 * layer + 1]
            if hidden:
                # activation z / sqrt(1 + z^2); slope 1 / s^3
                s = np.multiply(h, h, out=self._buffer(("s", layer), h.shape) if reuse else None)
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
        buffer, and ``dx`` is fresh too, so both stay valid. ``params=False``
        computes no parameter gradient (``flat_grad`` is ``None``);
        ``input_cols`` picks the input columns that ``dx`` covers, and
        ``None`` skips it. The hidden layers' deltas are internal and live in
        this net's buffers when ``dout`` has the net's dtype; ``cache`` is
        only read.
        """
        flat_grad = np.empty_like(self.flat) if params else None
        grads = self._views(flat_grad) if params else None
        ones = np.ones((1, dout.shape[1]), dtype=self.dtype) if params else None
        reuse = dout.dtype == self.dtype
        delta = dout
        for layer in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * layer]
            if params:
                a_in = cache[layer] if layer == 0 else cache[layer][0]
                # The shared first-layer input is 2-D, hidden activations are 3-D.
                np.matmul(a_in.swapaxes(-1, -2), delta, out=grads[2 * layer])
                np.matmul(ones, delta, out=grads[2 * layer + 1])  # bias: column sums
            if layer == 0:
                if input_cols is None:
                    return flat_grad, None
                return flat_grad, np.matmul(delta, w[:, input_cols, :].swapaxes(-1, -2))
            out = self._buffer(("d", layer), (*delta.shape[:-1], w.shape[-2])) if reuse else None
            if w.shape[-1] == 1:  # fan-out 1: see "Fan-out 1" in the module docstring
                delta = np.multiply(delta, w.swapaxes(-1, -2), out=out)
            else:
                delta = np.matmul(delta, w.swapaxes(-1, -2), out=out)
            s = cache[layer][1]
            delta /= s
            delta /= s
            delta /= s

    def _buffer(self, key, shape: tuple) -> np.ndarray:
        """This net's reusable array of its dtype for ``key`` and ``shape``, made on first use."""
        buf = self._buffers.get((key, shape))
        if buf is None:
            buf = self._buffers[key, shape] = np.empty(shape, self.dtype)
        return buf

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

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's published defaults

    def __init__(self, net: MLP, lr: float):
        self.net = net
        self.lr = lr
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
    target.flat += np.multiply(source.flat, tau, out=target._buffer("ema", target.flat.shape))


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

    def _squash(self, out: np.ndarray, xi: np.ndarray):
        """The action a_max * tanh(mu + std * xi) and the (log_std, std, u, t_u, t_raw) behind it."""
        mu, raw = self.split(out)
        t_raw = np.tanh(raw)
        log_std = self.lo + self.half_span * (t_raw + 1.0)
        std = np.exp(log_std)
        u = mu + std * xi
        t_u = np.tanh(u)
        return self.a_max * t_u, (log_std, std, u, t_u, t_raw)

    def action(self, out: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The action of ``sample(out, xi)``, bit for bit, without its log-prob or cache."""
        return self._squash(out, xi)[0]

    def sample(self, out: np.ndarray, xi: np.ndarray):
        """Reparameterized draw. Returns (action, log_prob, cache)."""
        a, (log_std, std, u, t_u, t_raw) = self._squash(out, xi)
        # log pi(a) = log N(u; mu, std) - sum log |da/du|, with
        # log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)) for stability.
        log_det = 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u)) + math.log(self.a_max)
        terms = -0.5 * xi**2 - log_std - 0.5 * LOG_2PI - log_det
        # Columns added left to right: at act_dim = 2 this is np.sum(terms, axis=1)
        # bit for bit, without the reduction's per-call cost.
        log_prob = terms[:, 0]
        for j in range(1, self.act_dim):
            log_prob = log_prob + terms[:, j]
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
