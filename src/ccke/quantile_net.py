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

Training, ``batch_loss`` and ``predict`` run one forward code path in a
workspace made once per call: every cache, activation and backward buffer
is allocated up front and written through ``out=``, so a training step
after the first allocates no array.  The backward pass writes each
gradient straight into its view of one flat vector, and it never forms
the first attention block's input gradient, which nothing reads.
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
    "PREDICT_ROWS",
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
        return _views(self.params, self.arch)

    def predict(self, x: np.ndarray):
        """Batched quantile heads; returns (lo, hi) arrays of shape (B, K).

        The rows run through one workspace in passes of about
        ``PREDICT_ROWS`` rows, which keeps its (b, K, K) buffers small; a
        row's heads do not depend on the rows around it."""
        xs = _scale(self.arch, np.asarray(x, dtype=float))
        return _heads(self, xs, PREDICT_ROWS)


def _views(flat: np.ndarray, arch) -> dict:
    """Each named tensor of ``arch`` as a view into the flat vector ``flat``."""
    return {nm: flat[a:b].reshape(shape) for nm, shape, a, b in _layout(arch)[0]}


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


def _tokens(arch, xs) -> int:
    """Tokens per row: K for attention, 1 for the feedforward net."""
    return xs.shape[-1] if arch.kind == "attention" else 1


def _targets(y, n: int, k: int) -> np.ndarray:
    """Targets as the (n, k) array the heads are compared with; (n,) is (n, 1)."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (n, k):
        raise ContractViolationError(f"targets must be ({n}, {k}), got {np.shape(y)}")
    return y


def _pinball_sum(alpha: float, y, lo, hi) -> float:
    """Summed two-head pinball loss of (n, k) heads against (n, k) targets."""
    return float(np.sum(pinball_loss(y, lo, alpha / 2.0))
                 + np.sum(pinball_loss(y, hi, 1.0 - alpha / 2.0)))


def _merged(a, axes, out) -> np.ndarray:
    """``a.transpose(axes).reshape(out.shape)`` for a C-contiguous (b, d, K)
    ``a``, without a temporary.  numpy's reshape returns a view when b, d or
    K is 1 and a copy otherwise, and the BLAS products and pairwise sums
    that read the result round by its memory layout; so take the view where
    numpy would, else copy into ``out``."""
    t = a.transpose(axes)
    if 1 in a.shape:
        return t.reshape(out.shape)
    np.copyto(out.reshape(t.shape), t)
    return out


def _buffer_shapes(arch, b: int, k: int, backward: bool) -> dict:
    """Shape of every workspace buffer for a pass over b rows of k tokens."""
    n = b * k
    if arch.kind == "feedforward":
        shapes = {f"m{i}": (n, w) for i, w in enumerate(arch.widths[1:])}
        widths, x = arch.widths, (b, arch.widths[0])
    else:
        p = 2 * arch.d_h + arch.d_o
        shapes = {"qkv1": (b, p, k), "qkv2": (b, p, k), "s1": (b, k, k), "s2": (b, k, k),
                  "mx": (b, k, 1), "den": (b, k, 1), "att1": (b, arch.d_o, k),
                  "att2": (b, arch.d_o, k), "t1": (n, arch.d_o), "t2": (n, arch.d_o)}
        shapes.update({f"m1_{i}": (n, w) for i, w in enumerate(arch.mlp1)})
        shapes.update({f"m2_{i}": (n, w) for i, w in enumerate(arch.mlp2)})
        widths, x = (arch.d_o, arch.d_e, *arch.mlp1, *arch.mlp2), (b, arch.token_dim, k)
    if backward:
        wide = (n, max(widths))
        shapes.update(x=x, y=(b, k), r=(b, k), l1=(b, k), l2=(b, k), ge=(b, k),
                      d_out=(n, 2), d0=wide, d1=wide, alive=wide, factor=wide)
        if arch.kind == "attention":
            shapes.update(xT=(n, arch.token_dim), dq=(b, arch.d_h, k), dk=(b, arch.d_h, k),
                          dv=(b, arch.d_o, k), at=(max(arch.d_h, arch.d_o), n),
                          ds=(b, k, k), prod=(b, k, k), rowsum=(b, k),
                          dx=(b, arch.d_e, k), dx_tmp=(b, arch.d_e, k))
    return shapes


class _Workspace:
    """Every buffer of a pass over at most ``rows`` rows of ``k`` tokens, made once.

    A pass over b <= rows rows works in leading slices of the same flat
    buffers, and every write goes through ``out=``, so no pass after the
    first allocates an array.  Forward caches are kept per block and per
    layer, because the backward pass reads them.  The (b, K, K) backward
    temporaries, the projection gradients and the MLP backward buffers are
    shared by the two blocks, because block 2's backward pass ends before
    block 1's starts.  Every operand of a BLAS product or a sum keeps the
    memory layout it had when each step allocated its temporaries, so every
    value keeps its bits.  With ``grad`` given, the workspace also holds the
    loss and backward buffers and writes each parameter's gradient
    straight into its view of ``grad``.
    """

    def __init__(self, model: QuantileModel, rows: int, k: int, grad=None):
        arch = self.arch = model.arch
        self.alpha, self.k, self.grad = model.alpha, k, grad
        p = _views(model.params, arch)
        g = _views(grad, arch) if grad is not None else dict.fromkeys(p)

        def mlp(prefix, count):
            return [(p[f"{prefix}W{i}"], p[f"{prefix}b{i}"], g[f"{prefix}W{i}"], g[f"{prefix}b{i}"])
                    for i in range(count)]

        if arch.kind == "feedforward":
            self.mlp = mlp("", len(arch.widths) - 1)
        else:
            h, o = arch.d_h, arch.d_o
            self.qkv_rows = (slice(0, h), slice(h, 2 * h), slice(2 * h, 2 * h + o))
            # Wq, Wk and Wv sit next to each other in the layout, so block 1
            # projects with one (2 d_h + d_o, token_dim) view.  Block 2 keeps
            # three matmuls: at K = 1 they are BLAS gemv calls, and a taller
            # gemv rounds some rows differently.
            table = {nm: (a, b) for nm, _, a, b in _layout(arch)[0]}
            wqkv = model.params[table["Wq"][0]:table["Wv"][1]].reshape(-1, arch.token_dim)
            self.proj1 = [(wqkv, slice(None))]
            self.proj2 = list(zip((p["Wq2"], p["Wk2"], p["Wv2"]), self.qkv_rows))
            self.dx_weights = (p["Wq2"].T, p["Wk2"].T, p["Wv2"].T)
            self.grads1 = (g["Wq"], g["Wk"], g["Wv"])
            self.grads2 = (g["Wq2"], g["Wk2"], g["Wv2"])
            self.mlp1, self.mlp2 = mlp("m1", len(arch.mlp1)), mlp("m2", len(arch.mlp2))
        shapes = _buffer_shapes(arch, rows, k, grad is not None)
        self._flat = {name: np.empty(math.prod(shape), dtype=bool if name in ("ge", "alive") else float)
                      for name, shape in shapes.items()}
        self._views = {}

    def _v(self, name: str, shape: tuple) -> np.ndarray:
        """Leading slice of buffer ``name``, as an array of ``shape``."""
        view = self._views.get((name, shape))
        if view is None:
            view = self._views[name, shape] = self._flat[name][:math.prod(shape)].reshape(shape)
        return view

    def gather(self, xs, y, idx):
        """Rows ``idx`` of the scaled inputs and (n, k) targets, copied into the workspace."""
        xb, yb = self._v("x", (idx.size, *xs.shape[1:])), self._v("y", (idx.size, self.k))
        np.take(xs, idx, axis=0, out=xb, mode="clip")  # "raise" would buffer the copy
        np.take(y, idx, axis=0, out=yb, mode="clip")
        return xb, yb

    # forward

    def forward(self, x) -> np.ndarray:
        """Heads of the scaled input rows ``x``, as a (b, k, 2) view."""
        b, k = x.shape[0], self.k
        if self.arch.kind == "feedforward":
            return self._mlp_fwd(x, "m", self.mlp).reshape(b, 1, 2)
        t1 = self._attention_fwd(1, x, self.proj1)
        e = self._mlp_fwd(t1, "m1_", self.mlp1)
        t2 = self._attention_fwd(2, e.reshape(b, k, self.arch.d_e).transpose(0, 2, 1), self.proj2)
        self.mlp_inputs = t1, t2  # for the backward pass
        return self._mlp_fwd(t2, "m2_", self.mlp2).reshape(b, k, 2)

    def _attention_fwd(self, j: int, x, proj) -> np.ndarray:
        """Block j on x (b, d, K); returns its output as (b K, d_o) token rows."""
        arch, k, b = self.arch, self.k, x.shape[0]
        # broadcastable matmuls; einsum dispatch is too slow at these sizes
        qkv = self._v(f"qkv{j}", (b, self.qkv_rows[-1].stop, k))
        for w, rows in proj:
            np.matmul(w, x, out=qkv[:, rows])
        q, kk, v = (qkv[:, rows] for rows in self.qkv_rows)
        s = self._v(f"s{j}", (b, k, k))
        np.matmul(kk.transpose(0, 2, 1), q, out=s)
        np.divide(s, math.sqrt(arch.d_h), out=s)
        mx, den = self._v("mx", (b, k, 1)), self._v("den", (b, k, 1))
        np.max(s, axis=-1, keepdims=True, out=mx)  # row softmax, in place
        np.subtract(s, mx, out=s)
        np.exp(s, out=s)
        np.sum(s, axis=-1, keepdims=True, out=den)
        np.divide(s, den, out=s)
        att = self._v(f"att{j}", (b, arch.d_o, k))
        np.matmul(v, s, out=att)
        return _merged(att, (0, 2, 1), self._v(f"t{j}", (b * k, arch.d_o)))

    def _mlp_fwd(self, h, prefix: str, layers) -> np.ndarray:
        """Shared dense stack on (N, d) token rows; ReLU on all but the last layer."""
        for i, (w, bias, _, _) in enumerate(layers):
            z = self._v(f"{prefix}{i}", (h.shape[0], w.shape[0]))
            np.matmul(h, w.T, out=z)
            np.add(z, bias, out=z)
            if i != len(layers) - 1:
                np.maximum(z, 0.0, out=z)
            h = z
        return h

    # loss and backward

    def loss_and_grad(self, x, y) -> float:
        """Summed two-head pinball loss of the scaled rows ``x`` against their
        (b, k) targets ``y``; writes its gradient into ``grad``."""
        b, k = y.shape
        out = self.forward(x)
        r, l1, l2, ge = (self._v(name, (b, k)) for name in ("r", "l1", "l2", "ge"))
        d_out = self._v("d_out", (b * k, 2))
        sums = []
        for head, tau in enumerate((self.alpha / 2.0, 1.0 - self.alpha / 2.0)):
            # one residual gives the head's loss and its output gradient
            np.subtract(y, out[:, :, head], out=r)
            np.multiply(tau, r, out=l1)
            np.multiply(-(1.0 - tau), r, out=l2)
            np.maximum(l1, l2, out=l1)
            sums.append(np.sum(l1))
            np.greater_equal(r, 0.0, out=ge)  # the kink takes the tau-side slope
            d_head = d_out.reshape(b, k, 2)[:, :, head]
            d_head[...] = 1.0 - tau
            np.copyto(d_head, -tau, where=ge)
        if self.arch.kind == "feedforward":
            self._mlp_bwd(d_out, x, "m", self.mlp, input_grad=False)
        else:
            n, arch = b * k, self.arch
            t1, t2 = self.mlp_inputs
            d_t2 = self._mlp_bwd(d_out, t2, "m2_", self.mlp2)
            e = self._v(f"m1_{len(self.mlp1) - 1}", (n, arch.d_e))
            # mlp1's backward pass reads its output gradient from the d buffer
            # its last layer does not write
            d_e = self._attention_bwd(2, d_t2, e, self.grads2, dx_to=f"d{len(self.mlp1) % 2}")
            d_t1 = self._mlp_bwd(d_e, t1, "m1_", self.mlp1)
            # x as token rows, once for all three weight dots of block 1
            x_tokens = _merged(x, (0, 2, 1), self._v("xT", (n, arch.token_dim)))
            self._attention_bwd(1, d_t1, x_tokens, self.grads1)  # block 1's dx is never formed
        self.grad += 0.0  # a -0.0 gradient becomes +0.0, as when summed into zeros
        return float(sums[0] + sums[1])

    def _mlp_bwd(self, d, h, prefix: str, layers, input_grad: bool = True):
        """Backward pass of a dense stack whose input was ``h`` and whose output
        gradient is ``d``: writes the layer gradients and returns the input
        gradient.  The gradient of layer i's input goes to buffer d{i % 2}."""
        last = len(layers) - 1
        for i in range(last, -1, -1):
            w, _, gw, gb = layers[i]
            if i != last:
                # d * (z > 0) as 1.0 / 0.0 factors, cast without a buffer
                z = self._v(f"{prefix}{i}", (d.shape[0], w.shape[0]))
                alive, factor = self._v("alive", z.shape), self._v("factor", z.shape)
                np.greater(z, 0.0, out=alive)
                np.copyto(factor, alive)
                np.multiply(d, factor, out=d)
            np.matmul(d.T, self._v(f"{prefix}{i - 1}", (d.shape[0], w.shape[1])) if i else h,
                      out=gw)
            np.sum(d, axis=0, out=gb)
            if i or input_grad:
                d_in = self._v(f"d{i % 2}", (d.shape[0], w.shape[1]))
                np.matmul(d, w, out=d_in)
                d = d_in
        return d

    def _attention_bwd(self, j: int, d_t, tokens, grads, dx_to=None):
        """Backward pass of block j from the gradient of its output token rows
        ``d_t``; ``tokens`` is its input as (b K, d) rows.  Writes the three
        projection gradients.  With ``dx_to``, also returns the input gradient
        as (b K, d_e) rows in that buffer."""
        arch, k = self.arch, self.k
        n = d_t.shape[0]
        b = n // k
        qkv, s = self._v(f"qkv{j}", (b, self.qkv_rows[-1].stop, k)), self._v(f"s{j}", (b, k, k))
        q, kk, v = (qkv[:, rows] for rows in self.qkv_rows)
        d_att = d_t.reshape(b, k, arch.d_o).transpose(0, 2, 1)
        dq, dk, dv = (self._v(name, (b, rows.stop - rows.start, k))
                      for name, rows in zip(("dq", "dk", "dv"), self.qkv_rows))
        np.matmul(d_att, s.transpose(0, 2, 1), out=dv)
        ds, prod, rowsum = self._v("ds", (b, k, k)), self._v("prod", (b, k, k)), self._v("rowsum", (b, k))
        np.matmul(v.transpose(0, 2, 1), d_att, out=ds)
        np.multiply(ds, s, out=prod)
        np.sum(prod, axis=-1, out=rowsum)
        np.subtract(ds, rowsum[:, :, None], out=ds)
        np.multiply(s, ds, out=ds)
        np.divide(ds, math.sqrt(arch.d_h), out=ds)
        np.matmul(kk, ds, out=dq)
        np.matmul(q, ds.transpose(0, 2, 1), out=dk)
        for g, d in zip(grads, (dq, dk, dv)):
            np.dot(_merged(d, (1, 0, 2), self._v("at", (d.shape[1], n))), tokens, out=g)
        if dx_to is None:
            return None
        dx, tmp = self._v("dx", (b, arch.d_e, k)), self._v("dx_tmp", (b, arch.d_e, k))
        wq, wk, wv = self.dx_weights
        np.matmul(wq, dq, out=dx)
        np.matmul(wk, dk, out=tmp)
        dx += tmp
        np.matmul(wv, dv, out=tmp)
        dx += tmp
        return _merged(dx, (0, 2, 1), self._v(dx_to, (n, arch.d_e)))


def _loss_and_grad(model: QuantileModel, x, y, grad=None):
    """Summed two-head pinball loss over the batch, plus its gradient with respect
    to the flat parameter vector (written into ``grad`` when a buffer is given)."""
    xs = _scale(model.arch, np.asarray(x, dtype=float))
    k = _tokens(model.arch, xs)
    grad = np.empty_like(model.params) if grad is None else grad
    loss = _Workspace(model, xs.shape[0], k, grad).loss_and_grad(xs, _targets(y, xs.shape[0], k))
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


PREDICT_ROWS = 128  # rows per forward pass of QuantileModel.predict


def _heads(model: QuantileModel, xs, rows: int):
    """(lo, hi) heads, each (n, K), of the scaled rows ``xs``, run through
    one workspace in passes of ``rows`` >= 2 rows, each a leading slice of
    the same buffers.  No pass has 1 row unless ``xs`` has: a 1-row pass
    takes BLAS gemv, which rounds differently, so a last row left alone
    joins the pass before it.  Any other pass gives each row the heads a
    call on all rows at once would."""
    n, k = xs.shape[0], _tokens(model.arch, xs)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        del starts[-1]
    ws = _Workspace(model, min(n, rows + 1), k)
    lo, hi = np.empty((n, k)), np.empty((n, k))
    for a, b in zip(starts, starts[1:] + [n]):
        out = ws.forward(xs[a:b])
        lo[a:b], hi[a:b] = out[:, :, 0], out[:, :, 1]
    return lo, hi


def batch_loss(model: QuantileModel, x, y) -> float:
    """Mean per-sample two-head pinball loss (summed over KPIs); forward only, in
    cache-sized passes of about 2048 tokens (rows x KPIs) through one workspace
    (``_heads``).  A row's heads do not depend on its pass, and the loss is
    summed over the whole batch at once."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        raise ContractViolationError("batch must be nonempty")
    xs = _scale(model.arch, x)
    n, k = xs.shape[0], _tokens(model.arch, xs)
    y = _targets(y, n, k)
    lo, hi = _heads(model, xs, max(2, 2048 // k))
    return _pinball_sum(model.alpha, y, lo, hi) / n


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
        if self.epochs < 0 or self.batch_size < 1:
            raise ContractViolationError("epochs >= 0 and batch_size >= 1 required")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ContractViolationError(f"step_size must be finite and > 0, got {self.step_size!r}")
        if not (math.isfinite(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ContractViolationError(f"momentum must lie in [0, 1), got {self.momentum!r}")


def train(data, arch, alpha: float, cfg: TrainConfig) -> QuantileModel:
    """Fit both quantile heads by mini-batch gradient descent with momentum.

    ``data`` is an ``(x, y)`` pair covering the whole training split.
    The update uses the batch-mean gradient; identical data, arch, alpha
    and config reproduce the parameter vector bit for bit.

    The features are scaled once.  One workspace, sized for a full batch,
    holds every cache, activation and backward buffer of the step; each
    batch is gathered into it, the last partial batch uses leading slices
    of the same buffers, and the gradient is written straight into views
    of one flat vector.  So no step after the first allocates an array.
    Block 1's input gradient is never formed, because nothing reads it.

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
    xs = _scale(arch, x)  # row by row, so gathering scaled rows equals scaling gathered ones
    k = _tokens(arch, xs)
    y = _targets(y, n, k)
    velocity = np.zeros_like(model.params)
    grad = np.empty_like(model.params)
    ws = _Workspace(model, min(cfg.batch_size, n), k, grad)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss = ws.loss_and_grad(*ws.gather(xs, y, idx))
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
