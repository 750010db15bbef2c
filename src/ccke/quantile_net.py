"""Pinball-loss quantile regression on small numpy networks.

Two architectures cover the two simulators: a plain feedforward net for
scalar-KPI link-level contexts, and a permutation-equivariant two-block
self-attention net for per-user scheduling contexts (shared token-wise
MLPs keep the user ordering irrelevant).  Gradients are computed by hand
so that training is bit-reproducible from a seed and the whole parameter
state is a single flat vector.

Both networks emit a pair of quantile estimates (lower, upper) per KPI;
nothing constrains the pair against crossing - downstream calibration
tolerates it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import ContractViolationError

__all__ = [
    "FeedforwardArch",
    "AttentionArch",
    "TrainConfig",
    "QuantileModel",
    "TrainingDivergedError",
    "pinball_loss",
    "pinball_output_grad",
    "pinball_gradient",
    "batch_loss",
    "init_model",
    "train",
]


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or parameters; carries the epoch index."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite training loss at epoch {epoch}")


# ---------------------------------------------------------------------------
# architectures and parameter layout


@dataclass(frozen=True)
class FeedforwardArch:
    """Dense network; ``widths`` runs input -> hidden... -> output.

    The default instance is the link-level regressor: input 2, hidden
    (10, 10, 5), output 2 (the two quantile heads of the scalar KPI).
    ``feature_scale`` divides the raw inputs before the first layer.
    """

    widths: tuple = (2, 10, 10, 5, 2)
    feature_scale: tuple = (1.0, 1.0)

    def __post_init__(self):
        _freeze(self, "widths", "feature_scale")

    @property
    def kind(self) -> str:
        return "feedforward"

    def param_shapes(self):
        shapes = []
        for i in range(len(self.widths) - 1):
            shapes.append((f"W{i}", (self.widths[i + 1], self.widths[i])))
            shapes.append((f"b{i}", (self.widths[i + 1],)))
        return shapes


@dataclass(frozen=True)
class AttentionArch:
    """Two self-attention blocks with shared token-wise MLPs in between.

    Tokens are ``token_dim``-vectors (one per user); the net maps a
    ``token_dim x K`` context to a ``2 x K`` output, equivariantly in K.
    ``mlp1``/``mlp2`` list the layer output widths of the shared MLPs.
    """

    d_h: int = 10
    d_o: int = 10
    d_e: int = 10
    mlp1: tuple = (10, 10, 10)
    mlp2: tuple = (10, 10, 2)
    token_dim: int = 2
    feature_scale: tuple = (1.0, 1.0)

    def __post_init__(self):
        _freeze(self, "mlp1", "mlp2", "feature_scale")

    @property
    def kind(self) -> str:
        return "attention"

    def param_shapes(self):
        shapes = [("Wq", (self.d_h, self.token_dim)), ("Wk", (self.d_h, self.token_dim)),
                  ("Wv", (self.d_o, self.token_dim))]
        w_in = self.d_o
        for i, w_out in enumerate(self.mlp1):
            shapes.append((f"m1W{i}", (w_out, w_in)))
            shapes.append((f"m1b{i}", (w_out,)))
            w_in = w_out
        if w_in != self.d_e:
            raise ContractViolationError("mlp1 must end at width d_e")
        shapes += [("Wq2", (self.d_h, self.d_e)), ("Wk2", (self.d_h, self.d_e)),
                   ("Wv2", (self.d_o, self.d_e))]
        w_in = self.d_o
        for i, w_out in enumerate(self.mlp2):
            shapes.append((f"m2W{i}", (w_out, w_in)))
            shapes.append((f"m2b{i}", (w_out,)))
            w_in = w_out
        if w_in != 2:
            raise ContractViolationError("mlp2 must end at width 2 (two quantile heads)")
        return shapes


def _freeze(arch, *names):
    """Store sequence fields as tuples, so that archs hash and compare by value."""
    for name in names:
        object.__setattr__(arch, name, tuple(getattr(arch, name)))


@functools.lru_cache(maxsize=64)
def _layout(arch):
    """Slice table of (name, shape, start, stop) rows and the flat length, once per arch."""
    table, stop = [], 0
    for name, shape in arch.param_shapes():
        start, stop = stop, stop + math.prod(shape)
        table.append((name, shape, start, stop))
    return tuple(table), stop


@dataclass
class QuantileModel:
    """Architecture descriptor + flat parameter vector + trained level."""

    arch: object
    alpha: float
    params: np.ndarray
    loss_history: list = field(default_factory=list)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        _, n = _layout(self.arch)
        if self.params.shape != (n,):
            raise ContractViolationError(
                f"parameter vector of length {self.params.size}, arch wants {n}")

    def view(self, name: str) -> np.ndarray:
        return self.views()[name]

    def views(self) -> dict:
        return {nm: self.params[a:b].reshape(shape) for nm, shape, a, b in _layout(self.arch)[0]}

    def predict(self, x: np.ndarray):
        """Batched quantile heads; returns (lo, hi) arrays of shape (B, K)."""
        out, _ = _forward_cached(self, x)
        return out


def init_model(arch, alpha: float, seed: int) -> QuantileModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per tensor."""
    rng = np.random.Generator(np.random.PCG64(seed))
    table, n = _layout(arch)
    flat = np.empty(n)
    for _, shape, a, b in table:
        bound = 1.0 / math.sqrt(shape[-1])  # fan-in: columns of a weight, length of a bias
        flat[a:b] = rng.uniform(-bound, bound, b - a)
    return QuantileModel(arch=arch, alpha=alpha, params=flat)


# ---------------------------------------------------------------------------
# losses


def pinball_loss(y, q, tau: float):
    """max(tau * (y - q), -(1 - tau) * (y - q)); elementwise on arrays."""
    if not 0.0 < tau < 1.0:
        raise ContractViolationError(f"tau must lie in (0, 1), got {tau}")
    r = np.asarray(y, dtype=float) - np.asarray(q, dtype=float)
    out = np.maximum(tau * r, -(1.0 - tau) * r)
    return float(out) if out.ndim == 0 else out

def pinball_output_grad(y, q, tau: float):
    """d loss / d q.  At the kink y == q the tau-side slope (-tau) applies."""
    r = np.asarray(y, dtype=float) - np.asarray(q, dtype=float)
    return np.where(r >= 0.0, -tau, 1.0 - tau)


# ---------------------------------------------------------------------------
# forward / backward


def _scale(arch, x):
    s = np.asarray(arch.feature_scale, dtype=float)
    if arch.kind == "feedforward":
        if x.ndim != 2 or x.shape[1] != len(s):
            raise ContractViolationError(
                f"feedforward input must be (B, {len(s)}), got {x.shape}"
            )
        return x / s
    if x.ndim != 3 or x.shape[1] != arch.token_dim:
        raise ContractViolationError(
            f"attention input must be (B, {arch.token_dim}, K), got {x.shape}"
        )
    return x / s[None, :, None]


def _softmax_rows(a):
    m = a.max(axis=-1, keepdims=True)
    e = np.exp(a - m)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_fwd(x, wq, wk, wv, d_h):
    # broadcastable matmuls; einsum dispatch is too slow at these sizes
    q = wq @ x
    k = wk @ x
    v = wv @ x
    a = k.transpose(0, 2, 1) @ q / math.sqrt(d_h)
    s = _softmax_rows(a)
    out = v @ s
    return out, (x, q, k, v, s, wq, wk, wv)


def _attention_bwd(d_out, cache, d_h):
    x, q, k, v, s, wq, wk, wv = cache
    dv = d_out @ s.transpose(0, 2, 1)
    ds = v.transpose(0, 2, 1) @ d_out
    da = s * (ds - np.sum(ds * s, axis=-1)[:, :, None])
    da /= math.sqrt(d_h)
    dq = k @ da
    dk = q @ da.transpose(0, 2, 1)
    grads = [np.tensordot(d, x, axes=([0, 2], [0, 2])) for d in (dq, dk, dv)]
    dx = wq.T @ dq + wk.T @ dk + wv.T @ dv
    return dx, grads


def _mlp_fwd(x_tokens, weights, biases):
    """Shared dense stack on (N, d) token rows; ReLU on all but the last."""
    acts = [x_tokens]
    h = x_tokens
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        h = z if i == len(weights) - 1 else np.maximum(z, 0.0)
        acts.append(h)
    return h, acts


def _mlp_bwd(d_out, acts, weights):
    """Input gradient plus the per-layer gradients in layout order (W0, b0, W1, ...)."""
    grads = [None] * (2 * len(weights))
    d = d_out
    for i in range(len(weights) - 1, -1, -1):
        if i != len(weights) - 1:
            d = d * (acts[i + 1] > 0.0)
        grads[2 * i] = d.T @ acts[i]
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ weights[i]
    return d, grads


def _forward_cached(model: QuantileModel, x: np.ndarray):
    arch, p = model.arch, model.views()
    xs = _scale(arch, np.asarray(x, dtype=float))
    if arch.kind == "feedforward":
        ws = [p[f"W{i}"] for i in range(len(arch.widths) - 1)]
        bs = [p[f"b{i}"] for i in range(len(arch.widths) - 1)]
        out, acts = _mlp_fwd(xs, ws, bs)
        return (out[:, 0:1], out[:, 1:2]), ("ff", acts, ws)
    b, _, kk = xs.shape
    att1, c1 = _attention_fwd(xs, p["Wq"], p["Wk"], p["Wv"], arch.d_h)
    t1 = att1.transpose(0, 2, 1).reshape(b * kk, arch.d_o)
    w1 = [p[f"m1W{i}"] for i in range(len(arch.mlp1))]
    b1 = [p[f"m1b{i}"] for i in range(len(arch.mlp1))]
    e_tokens, acts1 = _mlp_fwd(t1, w1, b1)
    xe = e_tokens.reshape(b, kk, arch.d_e).transpose(0, 2, 1)
    att2, c2 = _attention_fwd(xe, p["Wq2"], p["Wk2"], p["Wv2"], arch.d_h)
    t2 = att2.transpose(0, 2, 1).reshape(b * kk, arch.d_o)
    w2 = [p[f"m2W{i}"] for i in range(len(arch.mlp2))]
    b2 = [p[f"m2b{i}"] for i in range(len(arch.mlp2))]
    out_tokens, acts2 = _mlp_fwd(t2, w2, b2)
    out = out_tokens.reshape(b, kk, 2)
    cache = ("att", (b, kk), c1, acts1, w1, c2, acts2, w2)
    return (out[:, :, 0], out[:, :, 1]), cache


def _pinball_sum(model: QuantileModel, y, lo, hi):
    """Summed two-head pinball loss of the heads, plus the targets as (B, K)."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    tau_lo, tau_hi = model.alpha / 2.0, 1.0 - model.alpha / 2.0
    return float(np.sum(pinball_loss(y, lo, tau_lo)) + np.sum(pinball_loss(y, hi, tau_hi))), y


def _loss_and_grad(model: QuantileModel, x, y, grad=None):
    """Summed two-head pinball loss over the batch, plus its gradient with respect
    to the flat parameter vector (written into ``grad`` when a buffer is given)."""
    arch = model.arch
    (lo, hi), cache = _forward_cached(model, x)
    loss, y = _pinball_sum(model, y, lo, hi)
    d_lo = pinball_output_grad(y, lo, model.alpha / 2.0)
    d_hi = pinball_output_grad(y, hi, 1.0 - model.alpha / 2.0)
    if cache[0] == "ff":
        _, acts, ws = cache
        _, grads = _mlp_bwd(np.concatenate([d_lo, d_hi], axis=1), acts, ws)
    else:
        _, (b, kk), c1, acts1, w1, c2, acts2, w2 = cache
        d_out_tokens = np.stack([d_lo, d_hi], axis=2).reshape(b * kk, 2)
        d_t2, g2 = _mlp_bwd(d_out_tokens, acts2, w2)
        d_att2 = d_t2.reshape(b, kk, arch.d_o).transpose(0, 2, 1)
        d_xe, ga2 = _attention_bwd(d_att2, c2, arch.d_h)
        d_e_tokens = d_xe.transpose(0, 2, 1).reshape(b * kk, arch.d_e)
        d_t1, g1 = _mlp_bwd(d_e_tokens, acts1, w1)
        d_att1 = d_t1.reshape(b, kk, arch.d_o).transpose(0, 2, 1)
        _, ga1 = _attention_bwd(d_att1, c1, arch.d_h)
        grads = ga1 + g1 + ga2 + g2  # layout order
    grad = np.zeros_like(model.params) if grad is None else grad
    grad.fill(0.0)  # add into zeros, not assign: a -0.0 gradient becomes +0.0
    for (_, _, a, b), g in zip(_layout(arch)[0], grads):
        grad[a:b] += g.ravel()
    return loss, grad


def pinball_gradient(model: QuantileModel, batch) -> np.ndarray:
    """Gradient of the summed two-head pinball loss over a batch.

    ``batch`` is an ``(x, y)`` pair.  At kink points the tau-side slope
    is used (fixed subgradient convention; the event has measure zero).
    """
    x, y = batch
    if np.asarray(x).shape[0] == 0:
        raise ContractViolationError("batch must be nonempty")
    _, grad = _loss_and_grad(model, x, y)
    return grad


def batch_loss(model: QuantileModel, x, y) -> float:
    """Mean per-sample two-head pinball loss (summed over KPIs); forward only, in
    cache-sized chunks of about 2048 tokens (rows x KPIs).  A row's heads do not
    depend on its chunk, and the loss is summed over the whole batch at once."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        raise ContractViolationError("batch must be nonempty")
    rows = max(1, 2048 // (x.shape[-1] if model.arch.kind == "attention" else 1))
    heads = [_forward_cached(model, x[i : i + rows])[0] for i in range(0, x.shape[0], rows)]
    return _pinball_sum(model, y, *(np.concatenate(h) for h in zip(*heads)))[0] / x.shape[0]


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    step_size: float = 1e-2
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.step_size <= 0.0:
            raise ContractViolationError("epochs >= 0, batch_size >= 1, step_size > 0 required")


def train(data, arch, alpha: float, cfg: TrainConfig) -> QuantileModel:
    """Fit both quantile heads by mini-batch gradient descent with momentum.

    ``data`` is an ``(x, y)`` pair covering the whole training split.
    The update uses the batch-mean gradient; identical data, arch, alpha
    and config reproduce the parameter vector bit for bit.

    ``loss_history`` holds ``epochs + 1`` entries.  Entry 0 is
    ``batch_loss`` of the initial model over the whole split; entry
    ``e + 1`` is epoch ``e``'s mean minibatch loss: the summed losses of
    its minibatches, each taken before that batch's update, in batch
    order, over n.  No epoch makes a full-data pass; call ``batch_loss``
    for the loss of the final model.  Raises ``TrainingDivergedError``
    on a non-finite minibatch loss or non-finite parameters at an epoch's
    end.
    """
    x, y = data
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ContractViolationError("training split must be nonempty")
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError(f"alpha must lie in (0, 1), got {alpha}")
    model = init_model(arch, alpha, cfg.seed)
    rng = np.random.Generator(np.random.PCG64(cfg.seed + 1))
    model.loss_history.append(batch_loss(model, x, y))
    velocity = np.zeros_like(model.params)
    grad = np.zeros_like(model.params)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, _ = _loss_and_grad(model, x[idx], y[idx], grad)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            epoch_sum += loss
            # velocity = momentum * velocity - step_size * (grad / batch), in place
            grad /= idx.size
            grad *= cfg.step_size
            velocity *= cfg.momentum
            velocity -= grad
            model.params += velocity
        if not np.isfinite(model.params).all():  # the last update overflowed
            raise TrainingDivergedError(epoch, f"non-finite parameters after epoch {epoch}")
        model.loss_history.append(epoch_sum / n)
    return model
