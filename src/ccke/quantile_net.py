"""Pinball-loss quantile regression on small numpy networks.

Two fixed networks cover the two simulators: ``FEEDFORWARD``, a plain
dense net (2 inputs, hidden widths 10, 10 and 5) for scalar-KPI
link-level contexts, and ``ATTENTION``, a permutation-equivariant
two-block self-attention net (tokens of 2 features, query, key and value
width 10, shared token-wise MLPs of widths (10, 10, 10) and (10, 10, 2))
for per-user scheduling contexts; the shared MLPs keep the user ordering
irrelevant.  Each network's parameter layout is built once, at import.
The inputs arrive scaled: each environment's ``features(ctx)`` divides
its raw contexts by their ranges, and the nets take them as given.
Gradients are computed by hand so that training is bit-reproducible from
a seed and the whole parameter state is a single flat vector.

Both networks emit a pair of quantile estimates (lower, upper) per KPI;
nothing constrains the pair against crossing - downstream calibration
tolerates it.

Training and ``predict`` run one forward code path in a workspace made
once per call: every cache, activation and backward buffer is allocated
up front and written through ``out=``, so a training step after the
first allocates no array.  The backward pass writes each gradient
straight into its view of one flat vector, and it never forms the first
attention block's input gradient, which nothing reads.  Training makes
no full-data pass: every entry of its loss history is a minibatch loss,
entry 0 the initial model's on the first minibatch, which the first step
computes anyway.

A training step runs in two phases.  The row phase does all that is done
row by row: the forward pass, the residuals and output gradient, the
ReLU masks, every ``d @ W``, the attention backward pass and the
token-row merges.  The sum phase does every reduction over the batch's
rows: the loss sums, each ``d.T @ h``, each projection gradient's dot
and each bias gradient's sum, on the full arrays in the same layouts as
in one pass.  In one process each reduction runs as soon as the row
phase has formed its operands, while they are in cache.  A row's values
do not depend on the rows beside it in its pass (a pass of one row
aside, which takes BLAS gemv), so the row phase may run in parts.

``train`` runs an attention model of at least ``SPLIT_TOKENS`` tokens in
two processes, with the workspace, the parameters and the gradient in
shared memory.  A forked worker runs the row phase of half of each batch
and then the input side's share of the sum phase: MLP1's sums and block
1's projection dots.  The parent runs the other half of the rows, then
the output side's share (the loss, MLP2's sums and block 2's projection
dots) and the update.  Each share makes whole reductions on the full
arrays, so every byte stays; each attention block has transpose buffers
of its own, as the two blocks' dots run at the same time.  The rule is
set by the step's cost per row: with few tokens a step is bound by
per-call overhead (a 32-row step costs 64% of a 64-row one at K = 8, 52%
at K = 32), so the pipe round trips cost about what half the rows save.
Training alone, two processes over one (1500 rows, 2 epochs, best of 3,
three runs, on a 2-core Xeon with one BLAS thread): K = 8 0.90-1.05,
K = 12 0.81-0.83, K = 16 0.79-0.81, K = 24 0.62-0.80, K = 32 0.63-0.74.
Two more runs read 0.84 and 1.09 at K = 12, so ``SPLIT_TOKENS`` stays at
16 until more runs settle K = 12.  The feedforward net's step (about
60 µs) stays in one process.

A step issues as few numpy calls as keep every bit.  The views of each
pass size are bound once.  Both pinball heads take their residual, loss
and output gradient in one pass over (2, b, k) arrays, with two sums.
The softmax row max is a running ``np.maximum`` over the K columns when
the pass has at least K rows and its (b, K, K) block fits in 1 MiB, and
``np.max`` otherwise (``_rowmax``); a max never rounds, so the rule only
sets the speed.  Sums call ``np.add.reduce`` without the ``np.sum``
wrapper.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import _fork
from ._rowmax import row_max
from .conformal import ContractViolationError, require_integers

__all__ = [
    "ATTENTION",
    "FEEDFORWARD",
    "TrainConfig",
    "QuantileModel",
    "TrainingDivergedError",
    "train",
]


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or parameters; carries the epoch index."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite training loss at epoch {epoch}")


# ---------------------------------------------------------------------------
# the two networks and their parameter layouts

# the attention net: tokens of TOKEN_DIM features (one token per user),
# query/key width D_H, value width D_O, and the layer output widths of the
# two shared token-wise MLPs; MLP1 ends at the block-1 embedding width D_E,
# MLP2 at the two quantile heads
D_H = D_O = D_E = 10
TOKEN_DIM = 2
MLP1 = (10, 10, 10)
MLP2 = (10, 10, 2)
# the feedforward net: input 2 -> hidden (10, 10, 5) -> the two quantile heads
FEEDFORWARD_WIDTHS = (2, 10, 10, 5, 2)


class _Net(NamedTuple):
    """One of the two networks: its kind, and its parameter layout as
    (name, shape, start, stop) slices of a flat vector of ``size`` entries."""

    kind: str
    layout: tuple
    size: int


def _net(kind: str, shapes: list) -> _Net:
    table, stop = [], 0
    for name, shape in shapes:
        start, stop = stop, stop + math.prod(shape)
        table.append((name, shape, start, stop))
    return _Net(kind, tuple(table), stop)


def _dense(prefix: str, widths: tuple) -> list:
    """(name, shape) of each weight and bias of a dense stack over ``widths``."""
    shapes = []
    for i in range(len(widths) - 1):
        shapes += [(f"{prefix}W{i}", (widths[i + 1], widths[i])), (f"{prefix}b{i}", (widths[i + 1],))]
    return shapes


# two self-attention blocks with the shared MLPs after each: maps a
# TOKEN_DIM x K context to a 2 x K output, equivariantly in K
ATTENTION = _net("attention",
                 [("Wq", (D_H, TOKEN_DIM)), ("Wk", (D_H, TOKEN_DIM)), ("Wv", (D_O, TOKEN_DIM))]
                 + _dense("m1", (D_O,) + MLP1)
                 + [("Wq2", (D_H, D_E)), ("Wk2", (D_H, D_E)), ("Wv2", (D_O, D_E))]
                 + _dense("m2", (D_O,) + MLP2))
# the link-level regressor of a scalar KPI
FEEDFORWARD = _net("feedforward", _dense("", FEEDFORWARD_WIDTHS))


@dataclass
class QuantileModel:
    """Network (``ATTENTION`` or ``FEEDFORWARD``) + flat parameter vector +
    trained level."""

    arch: _Net
    alpha: float
    params: np.ndarray
    loss_history: list = field(default_factory=list)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.arch.size,):
            raise ContractViolationError(
                f"parameter vector of length {self.params.size}, arch wants {self.arch.size}")

    def predict(self, x: np.ndarray):
        """Batched quantile heads; returns (lo, hi) arrays of shape (B, K).

        The rows run through one workspace in passes of about
        ``PREDICT_ROWS`` rows, which keeps its (b, K, K) buffers small; a
        row's heads do not depend on the rows around it."""
        return _heads(self, _inputs(self.arch, x), PREDICT_ROWS)


def _views(flat: np.ndarray, arch) -> dict:
    """Each named tensor of ``arch`` as a view into the flat vector ``flat``."""
    return {nm: flat[a:b].reshape(shape) for nm, shape, a, b in arch.layout}


def init_model(arch, alpha: float, seed: int) -> QuantileModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per tensor."""
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = np.empty(arch.size)
    for _, shape, a, b in arch.layout:
        bound = 1.0 / math.sqrt(shape[-1])  # fan-in: columns of a weight, length of a bias
        flat[a:b] = rng.uniform(-bound, bound, b - a)
    return QuantileModel(arch=arch, alpha=alpha, params=flat)


# ---------------------------------------------------------------------------
# forward / backward


def _inputs(arch, x) -> np.ndarray:
    """``x`` as a float array, once its shape fits the net.  The inputs come
    scaled: each environment's ``features`` divides by its own ranges."""
    x = np.asarray(x, dtype=float)
    if arch.kind == "feedforward":
        width = FEEDFORWARD_WIDTHS[0]
        if x.ndim != 2 or x.shape[1] != width:
            raise ContractViolationError(f"feedforward input must be (B, {width}), got {x.shape}")
    elif x.ndim != 3 or x.shape[1] != TOKEN_DIM or x.shape[2] == 0:
        raise ContractViolationError(
            f"attention input must be (B, {TOKEN_DIM}, K) with K >= 1, got {x.shape}")
    return x


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


def _merger(a, axes, out) -> tuple:
    """``a.transpose(axes).reshape(out.shape)`` for a C-contiguous (b, d, K)
    ``a``, without a temporary, as a (result, copy) pair that ``_merge``
    carries out.  numpy's reshape returns a view when b, d or K is 1 and a
    copy otherwise, and the BLAS products and pairwise sums that read the
    result round by its memory layout; so take the view where numpy would,
    else copy into ``out``."""
    t = a.transpose(axes)
    if 1 in a.shape:
        return t.reshape(out.shape), None
    return out, (out.reshape(t.shape), t)


def _merge(merger) -> np.ndarray:
    """The result of a ``_merger`` pair, its copy made."""
    result, copy = merger
    if copy is not None:
        np.copyto(*copy)
    return result


def _shared(sizes: dict) -> dict:
    """Empty flat arrays, ``name -> (size, dtype)``, in one anonymous
    shared mapping, which a forked worker reads and writes too.  Each
    starts on a 64-byte boundary."""
    starts, stop = {}, 0
    for name, (size, dtype) in sizes.items():
        starts[name] = stop
        stop += -(-size * np.dtype(dtype).itemsize // 64) * 64
    memory = mmap.mmap(-1, max(stop, 1))
    return {name: np.frombuffer(memory, dtype=dtype, count=size, offset=starts[name])
            for name, (size, dtype) in sizes.items()}


class _Workspace:
    """Every buffer of a pass over at most ``rows`` rows of ``k`` tokens, made once.

    A pass over b <= rows rows works in leading slices of the same flat
    buffers, and every write goes through ``out=``, so no pass after the
    first allocates an array.  The first pass over rows [lo, hi) of a
    batch of b rows binds those rows' slices, and the transposes and
    merges the pass takes of them, once (``_pass``), so a step looks up no
    view.  Every operand of a BLAS product or a sum keeps the memory
    layout it had when each step allocated its temporaries, so every value
    keeps its bits.

    With ``grad`` given, the workspace also holds the loss and backward
    buffers, and a step (``loss_and_grad``) has two phases.  The row
    phase (``rows``) does all that is done row by row: the forward pass,
    the residuals and output gradient, the ReLU masks, every ``d @ W``,
    the attention backward pass and the token-row merges.  The sum phase
    does every reduction over the batch's rows, on the full arrays: the
    loss sums, the weight and bias gradients, and the transpose copies
    the projection gradients read.  It writes each parameter's gradient
    straight into its view of ``grad``.  After the whole row phase it
    runs in two shares, which may run at the same time: the output
    side's (``output_sums``: the loss, MLP2 and block 2) and the input
    side's (``input_sums``: MLP1 and block 1).  So each layer's masked
    output gradient and each block's query, key and value gradients have
    buffers of their own, and so does each block's transpose copy; the
    (b, K, K) backward temporaries, the ReLU masks and the attention
    blocks' output gradients, which only the row phase reads, are
    shared.  With ``shared``, the buffers live in anonymous shared
    memory, where a forked worker (``worker``, see ``train``) runs the
    row phase of part of each batch and the input side's share of the
    sum phase.
    """

    def __init__(self, model: QuantileModel, rows: int, k: int, grad=None, shared=False):
        arch = self.arch = model.arch
        self.k, self.grad, self.worker = k, grad, None
        # per head, as (2, 1, 1) columns against (2, b, k) arrays: the level
        # tau, the loss slope below the quantile, and the output gradient at
        # or above it (the kink takes the tau side) and below it
        lo, hi = model.alpha / 2.0, 1.0 - model.alpha / 2.0
        per_head = [[lo, -(1.0 - lo), -lo, 1.0 - lo], [hi, -(1.0 - hi), -hi, 1.0 - hi]]
        self.tau, self.slope_below, self.d_at_or_above, self.d_below = \
            np.array(per_head).T.reshape(4, 2, 1, 1)
        p = _views(model.params, arch)
        g = _views(grad, arch) if grad is not None else dict.fromkeys(p)

        def mlp(prefix, count):
            return [(p[f"{prefix}W{i}"], p[f"{prefix}W{i}"].T, p[f"{prefix}b{i}"],
                     g[f"{prefix}W{i}"], g[f"{prefix}b{i}"]) for i in range(count)]

        if arch.kind == "feedforward":
            self.mlp = mlp("", len(FEEDFORWARD_WIDTHS) - 1)
        else:
            self.qkv_rows = (slice(0, D_H), slice(D_H, 2 * D_H), slice(2 * D_H, 2 * D_H + D_O))
            self.root_dh = math.sqrt(D_H)
            # Wq, Wk and Wv sit next to each other in the layout, so block 1
            # projects with one (2 D_H + D_O, TOKEN_DIM) view.  Block 2 keeps
            # three matmuls: at K = 1 they are BLAS gemv calls, and a taller
            # gemv rounds some rows differently.
            wqkv = model.params[:(2 * D_H + D_O) * TOKEN_DIM].reshape(-1, TOKEN_DIM)
            self.proj = ([wqkv], [p["Wq2"], p["Wk2"], p["Wv2"]])
            self.grads = ((g["Wq"], g["Wk"], g["Wv"]), (g["Wq2"], g["Wk2"], g["Wv2"]))
            self.dx_weights = (p["Wq2"].T, p["Wk2"].T, p["Wv2"].T)
            self.mlp1, self.mlp2 = mlp("m1", len(MLP1)), mlp("m2", len(MLP2))
        self._flat, self._sizes, self._passes = {}, {}, {}
        self._bind(rows, 0, rows)  # a dry run of the largest pass sizes every buffer
        sizes = {name: (size, bool if name in ("ge", "alive") else float)
                 for name, size in self._sizes.items()}
        self._flat = (_shared(sizes) if shared else
                      {name: np.empty(size, dtype=dtype) for name, (size, dtype) in sizes.items()})

    def _buf(self, name: str, shape: tuple) -> np.ndarray:
        """Leading slice of buffer ``name``, as an array of ``shape``.  Before
        the buffers exist, a stand-in that records the size ``name`` needs."""
        size = math.prod(shape)
        if name not in self._flat:
            self._sizes[name] = max(self._sizes.get(name, 0), size)
            return np.empty(shape)
        return self._flat[name][:size].reshape(shape)

    def _pass(self, b: int, lo: int = 0, hi: int = None) -> dict:
        """The views of rows [lo, hi) (by default all) of a pass over b
        rows, bound on the first pass over them."""
        key = (b, lo, b if hi is None else hi)
        if key not in self._passes:
            self._passes[key] = self._bind(*key)
        return self._passes[key]

    def _bind(self, b: int, lo: int, hi: int) -> dict:
        """Every buffer's slice of rows [lo, hi) of a pass over b rows, and
        the slices, transposes and merges the pass takes of them.  The sum
        phase reads the views of a pass over all b rows."""
        arch, k = self.arch, self.k
        m, backward = hi - lo, self.grad is not None

        def buf(name, *shape, tokens=False):
            # rows [lo, hi) of buffer ``name`` as b rows of ``shape``, or
            # as b K token rows
            per = k if tokens else 1
            return self._buf(name, (b * per, *shape))[lo * per:hi * per]

        v = {}
        if arch.kind == "feedforward":
            v["m"] = self._mlp_views("m", self.mlp, buf, backward, input_grad=False)
            out = v["m"][-1][0].reshape(m, 1, 2)
            v["x"] = buf("x", FEEDFORWARD_WIDTHS[0]) if backward else None
        else:
            mx, den = buf("mx", k), buf("den", k)
            v.update(mx=mx, mx_col=mx[:, :, None], den=den, den_col=den[:, :, None])
            for j, prefix, layers in ((1, "m1_", self.mlp1), (2, "m2_", self.mlp2)):
                qkv, s = buf(f"qkv{j}", self.qkv_rows[-1].stop, k), buf(f"s{j}", k, k)
                q, kk, vv = (qkv[:, rows] for rows in self.qkv_rows)
                att = buf(f"att{j}", D_O, k)
                t = _merger(att, (0, 2, 1), buf(f"t{j}", D_O, tokens=True))
                proj = list(zip(self.proj[j - 1], [qkv] if j == 1 else [q, kk, vv]))
                v[j] = SimpleNamespace(proj=proj, q=q, kk=kk, kT=kk.transpose(0, 2, 1), v=vv,
                                       vT=vv.transpose(0, 2, 1), s=s, sT=s.transpose(0, 2, 1),
                                       att=att, merge_t=t, t=t[0], grads=self.grads[j - 1])
                if backward:
                    dqkv = tuple(buf(f"{name}{j}", rows.stop - rows.start, k)
                                 for name, rows in zip(("dq", "dk", "dv"), self.qkv_rows))
                    v[j].dqkv = dqkv
                    v[j].at = [_merger(d, (1, 0, 2), self._buf(f"at{j}", (d.shape[1], m * k)))
                               for d in dqkv]
                v[prefix] = self._mlp_views(prefix, layers, buf, backward, input_grad=True)
            v["e"] = v["m1_"][-1][0]
            v["e_in"] = v["e"].reshape(m, k, D_E).transpose(0, 2, 1)  # block 2's input
            out = v["m2_"][-1][0].reshape(m, k, 2)
            if backward:
                ds, rowsum, dx = buf("ds", k, k), buf("rowsum", k), buf("dx", D_E, k)
                # block 2's input gradient terms go to the buffer of its
                # output gradient, which only its dv and ds read
                v.update(x=buf("x", TOKEN_DIM, k), xT=buf("xT", TOKEN_DIM, tokens=True),
                         ds=ds, dsT=ds.transpose(0, 2, 1), prod=buf("prod", k, k),
                         rowsum_col=rowsum[:, :, None], rowsum=rowsum, dx=dx,
                         dx_tmp=buf("d_att", D_O, tokens=True).reshape(m, D_E, k),
                         d_e=_merger(dx, (0, 2, 1), buf("d_e", D_E, tokens=True)))
        v["out"] = out
        if backward:
            v.update((name, self._buf(name, (2, b, k))[:, lo:hi]) for name in ("r", "l1", "l2", "ge"))
            v.update(y=buf("y", k), heads=out.transpose(2, 0, 1), d_out=buf("d_out", 2, tokens=True))
            v["d_heads"] = v["d_out"].reshape(m, k, 2).transpose(2, 0, 1)
        return v

    def _mlp_views(self, prefix: str, layers, buf, backward: bool, input_grad: bool) -> list:
        """(output, ReLU mask, mask factors, input gradient) views of each
        layer of a dense stack, as token rows.  The sum phase reads each
        layer's masked output gradient, the next layer's input gradient, so
        each layer but the first writes its input gradient to a buffer of
        its own.  The first layer's, with ``input_grad``, is the gradient
        of the attention output, which goes to buffer ``d_att``."""
        views, last = [], len(layers) - 1
        for i, (w, *_) in enumerate(layers):
            width, fan_in = w.shape
            z = buf(f"{prefix}{i}", width, tokens=True)
            mask = (buf("alive", width, tokens=True), buf("factor", width, tokens=True)) \
                if backward and i != last else (None, None)
            d_in = None
            if backward and (i or input_grad):
                d_in = buf(f"{prefix}d{i}" if i else "d_att", fan_in, tokens=True)
            views.append((z, *mask, d_in))
        return views

    def gather(self, xs, y, idx):
        """Rows ``idx`` of the inputs and (n, k) targets, copied into the workspace."""
        v = self._pass(idx.size)
        np.take(xs, idx, axis=0, out=v["x"], mode="clip")  # "raise" would buffer the copy
        np.take(y, idx, axis=0, out=v["y"], mode="clip")
        return v["x"], v["y"]

    # forward

    def forward(self, x) -> np.ndarray:
        """Heads of the input rows ``x``, as a (b, k, 2) view."""
        v = self._pass(x.shape[0])
        self._forward(x, v)
        return v["out"]

    def _forward(self, x, v) -> None:
        if self.arch.kind == "feedforward":
            self._mlp_fwd(x, self.mlp, v["m"])
        else:
            self._mlp_fwd(self._attention_fwd(x, v[1], v), self.mlp1, v["m1_"])
            self._mlp_fwd(self._attention_fwd(v["e_in"], v[2], v), self.mlp2, v["m2_"])

    def _attention_fwd(self, x, blk, v) -> np.ndarray:
        """Block ``blk`` on x (b, d, K); returns its output as (b K, d_o) token rows."""
        # broadcastable matmuls; einsum dispatch is too slow at these sizes
        for w, out in blk.proj:
            np.matmul(w, x, out=out)
        s = blk.s
        np.matmul(blk.kT, blk.q, out=s)
        np.divide(s, self.root_dh, out=s)
        row_max(s, out=v["mx"])  # row softmax, in place
        np.subtract(s, v["mx_col"], out=s)
        np.exp(s, out=s)
        np.add.reduce(s, axis=-1, out=v["den"])
        np.divide(s, v["den_col"], out=s)
        np.matmul(blk.v, s, out=blk.att)
        return _merge(blk.merge_t)

    def _mlp_fwd(self, h, layers, views) -> np.ndarray:
        """Shared dense stack on (N, d) token rows; ReLU on all but the last layer."""
        last = len(layers) - 1
        for i, ((_, w_t, bias, _, _), (z, *_)) in enumerate(zip(layers, views)):
            np.matmul(h, w_t, out=z)
            np.add(z, bias, out=z)
            if i != last:
                np.maximum(z, 0.0, out=z)
            h = z
        return h

    # loss and backward

    def loss_and_grad(self, x, y) -> float:
        """Summed two-head pinball loss of the input rows ``x`` against their
        (b, k) targets ``y``; writes its gradient into ``grad``.

        In one process the sum phase runs inside the row phase, each
        reduction as soon as its operands are formed, while they are in
        cache: run after the whole row phase, the same calls made a K = 8
        step 5% slower.  With a ``worker`` and at least 4 rows, the worker
        runs the row phase of rows [b // 2, b) while this process runs rows
        [0, b // 2).  Once both are done, the worker runs the input side's
        share of the sum phase (``input_sums``) while this process runs
        the output side's (``output_sums``).  A half of one row would take
        BLAS gemv, which rounds differently."""
        b = y.shape[0]
        if self.worker is None or b < 4:
            return self.rows(x, y, 0, b, sums=True)
        self.worker.send(b)
        self.rows(x, y, 0, b // 2)
        self.worker.send(b)  # this half is done: after its own, the worker may sum
        self.worker.wait()  # the worker's half of the row phase
        loss = self.output_sums(b)
        self.worker.wait()  # the worker's share of the sum phase
        self.grad += 0.0  # a -0.0 gradient becomes +0.0, as when summed into zeros
        return loss

    def serve(self, link) -> None:
        """The worker's loop, until its pipe closes: for each batch of b
        rows the parent gathered, the row phase of rows [b // 2, b), then,
        on the parent's second command, which it sends once its own rows
        are done, the input side's share of the sum phase."""
        while (b := link.receive()) is not None:
            v = self._pass(b)
            self.rows(v["x"], v["y"], b // 2, b)
            link.ack()
            if link.receive() is None:
                return
            self.input_sums(b)
            link.ack()

    def rows(self, x, y, lo: int, hi: int, sums: bool = False):
        """The row phase of a step on rows [lo, hi) of the batch ``x`` and
        its (b, k) targets ``y``.  With ``sums``, on all b rows, the sum
        phase runs within it, and the loss is returned."""
        v = self._pass(y.shape[0], lo, hi)
        x, y = x[lo:hi], y[lo:hi]
        self._forward(x, v)
        r, l1, l2, ge, d_heads = v["r"], v["l1"], v["l2"], v["ge"], v["d_heads"]
        # both heads at once, as (2, b, k): one residual gives each head's
        # loss terms and its output gradient
        np.subtract(y, v["heads"], out=r)
        np.multiply(self.tau, r, out=l1)
        np.multiply(self.slope_below, r, out=l2)
        np.maximum(l1, l2, out=l1)
        loss = _loss(l1) if sums else None
        np.greater_equal(r, 0.0, out=ge)
        np.copyto(d_heads, self.d_below)
        np.copyto(d_heads, self.d_at_or_above, where=ge)
        if self.arch.kind == "feedforward":
            self._mlp_rows(v["d_out"], self.mlp, v["m"], x if sums else None)
        else:
            d_t2 = self._mlp_rows(v["d_out"], self.mlp2, v["m2_"], v[2].t if sums else None)
            d_e = self._attention_rows(d_t2, v[2], v, v["e"] if sums else None, input_grad=True)
            d_t1 = self._mlp_rows(d_e, self.mlp1, v["m1_"], v[1].t if sums else None)
            x_tokens = _merge(_merger(x, (0, 2, 1), v["xT"]))  # for block 1's weight dots
            self._attention_rows(d_t1, v[1], v, x_tokens if sums else None)  # no dx: unread
        if sums:
            self.grad += 0.0  # a -0.0 gradient becomes +0.0, as when summed into zeros
        return loss

    # the sum phase of an attention step in two shares, each on the full
    # arrays of the b rows, after the row phase of all of them; they write
    # disjoint views of ``grad`` and each reads its block's own ``at`` buffers

    def output_sums(self, b: int) -> float:
        """The output side's share: returns the loss, and writes MLP2's
        weight and bias gradients and block 2's projection gradients."""
        v = self._pass(b)
        loss = _loss(v["l1"])
        self._mlp_sums(v["d_out"], v[2].t, self.mlp2, v["m2_"])
        _attention_sums(v["e"], v[2])
        return loss

    def input_sums(self, b: int) -> None:
        """The input side's share: writes MLP1's weight and bias gradients
        and block 1's projection gradients."""
        v = self._pass(b)
        self._mlp_sums(v["d_e"][0], v[1].t, self.mlp1, v["m1_"])
        _attention_sums(_merger(v["x"], (0, 2, 1), v["xT"])[0], v[1])

    def _mlp_rows(self, d, layers, views, h=None):
        """The row phase of the backward pass of a dense stack from its
        output gradient ``d``: masks each layer's output gradient in place
        and forms its input gradient.  Given the stack's input ``h``, also
        writes each layer's gradients.  Returns the stack's input gradient."""
        last = len(layers) - 1
        for i in range(last, -1, -1):
            z, alive, factor, d_in = views[i]
            if i != last:
                # d * (z > 0) as 1.0 / 0.0 factors, cast without a buffer
                np.greater(z, 0.0, out=alive)
                np.copyto(factor, alive)
                np.multiply(d, factor, out=d)
            if h is not None:
                _layer_sums(layers[i], d, views[i - 1][0] if i else h)
            if d_in is not None:
                np.matmul(d, layers[i][0], out=d_in)
                d = d_in
        return d

    def _mlp_sums(self, d, h, layers, views) -> None:
        """The sum phase of a dense stack whose input was ``h`` and whose
        output gradient is ``d``: writes the layer gradients."""
        for i in range(len(layers) - 1, -1, -1):
            _layer_sums(layers[i], d, views[i - 1][0] if i else h)
            d = views[i][3]  # the masked output gradient of layer i - 1

    def _attention_rows(self, d_t, blk, v, tokens=None, input_grad: bool = False):
        """The row phase of the backward pass of block ``blk`` from the
        gradient of its output token rows ``d_t``: its query, key and value
        gradients.  Given its input as (b K, d) rows ``tokens``, also writes
        its projection gradients.  With ``input_grad``, returns the input
        gradient as (b K, d_e) rows."""
        b, k = blk.s.shape[:2]
        d_att = d_t.reshape(b, k, D_O).transpose(0, 2, 1)
        (dq, dk, dv), ds = blk.dqkv, v["ds"]
        np.matmul(d_att, blk.sT, out=dv)
        np.matmul(blk.vT, d_att, out=ds)
        np.multiply(ds, blk.s, out=v["prod"])
        np.add.reduce(v["prod"], axis=-1, out=v["rowsum"])
        np.subtract(ds, v["rowsum_col"], out=ds)
        np.multiply(blk.s, ds, out=ds)
        np.divide(ds, self.root_dh, out=ds)
        np.matmul(blk.kk, ds, out=dq)
        np.matmul(blk.q, v["dsT"], out=dk)
        if tokens is not None:
            _attention_sums(tokens, blk)
        if not input_grad:
            return None
        dx, tmp = v["dx"], v["dx_tmp"]
        wq, wk, wv = self.dx_weights
        np.matmul(wq, dq, out=dx)
        np.matmul(wk, dk, out=tmp)
        dx += tmp
        np.matmul(wv, dv, out=tmp)
        dx += tmp
        return _merge(v["d_e"])


def _loss(l1) -> float:
    """The summed loss of both heads' (2, b, k) loss terms."""
    return float(np.add.reduce(l1[0], axis=None) + np.add.reduce(l1[1], axis=None))


def _layer_sums(layer, d, h) -> None:
    """The weight and bias gradients of a dense layer whose input was the
    token rows ``h`` and whose masked output gradient is ``d``."""
    _, _, _, gw, gb = layer
    np.matmul(d.T, h, out=gw)
    np.add.reduce(d, axis=0, out=gb)


def _attention_sums(tokens, blk) -> None:
    """The projection gradients of attention block ``blk``, whose input was
    the (b K, d) rows ``tokens``: one transpose copy and one dot each."""
    for g, at in zip(blk.grads, blk.at):
        np.dot(_merge(at), tokens, out=g)


def _loss_and_grad(model: QuantileModel, x, y):
    """Summed two-head pinball loss over a nonempty batch, plus its gradient
    with respect to the flat parameter vector.  At kink points the tau-side
    slope is used (fixed subgradient convention; the event has measure zero)."""
    x = _inputs(model.arch, x)
    n, k = x.shape[0], _tokens(model.arch, x)
    if n == 0:
        raise ContractViolationError("batch must be nonempty")
    grad = np.empty_like(model.params)
    return _Workspace(model, n, k, grad).loss_and_grad(x, _targets(y, n, k)), grad


PREDICT_ROWS = 128  # rows per forward pass of QuantileModel.predict


def _heads(model: QuantileModel, xs, rows: int):
    """(lo, hi) heads, each (n, K), of the input rows ``xs``, run through
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


# ---------------------------------------------------------------------------
# training


MOMENTUM = 0.9  # heavy-ball momentum of every training step
# the fewest tokens at which ``train`` runs an attention model's steps in
# two processes (see the module docstring for the timings behind it)
SPLIT_TOKENS = 16


@dataclass(frozen=True)
class TrainConfig:
    """Settings of ``train``; every step uses the momentum ``MOMENTUM``."""

    epochs: int = 200
    batch_size: int = 64
    step_size: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "epochs", "batch_size", "seed")
        if self.epochs < 0 or self.batch_size < 1:
            raise ContractViolationError("epochs >= 0 and batch_size >= 1 required")
        if self.seed < 0:  # numpy seeds no generator from it
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ContractViolationError(f"step_size must be finite and > 0, got {self.step_size!r}")


def train(data, arch, alpha: float, cfg: TrainConfig) -> QuantileModel:
    """Fit both quantile heads by mini-batch gradient descent with momentum.

    ``data`` is an ``(x, y)`` pair covering the whole training split.
    The update uses the batch-mean gradient; identical data, arch, alpha
    and config reproduce the parameter vector bit for bit.

    One workspace, sized for a full batch, holds every cache, activation
    and backward buffer of the step; each batch is gathered into it, the
    last partial batch uses leading slices of the same buffers, and the
    gradient is written straight into views of one flat vector.  So no
    step after the first allocates an array.  Block 1's input gradient is
    never formed, because nothing reads it.

    Each step has a row phase, all that is done row by row, and a sum
    phase, every reduction over the batch's rows (see ``_Workspace``).  An
    attention model of at least ``SPLIT_TOKENS`` tokens, with batches of
    at least 4 rows, trains in two processes where the package's fork
    rule allows it (``_fork``: Linux, more than one CPU and no other
    thread).  The workspace, the parameter vector and the gradient then
    live in anonymous shared memory, and one worker, forked once per
    call, runs the row phase of rows [b // 2, b) of each batch of b rows
    while this process runs rows [0, b // 2).  Once both halves are done
    the worker runs the input side's share of the sum phase while this
    process runs the output side's; after the worker's acknowledgement
    this process makes the update.  Each share runs on the same full
    arrays as in one process, so every byte stays.  A batch of fewer
    than 4 rows runs both phases here.  The worker leaves when its
    command pipe closes, before ``train`` returns; a failure in the
    worker is raised here with the worker's traceback as its cause, and a
    failure here kills and reaps the worker.  If the fork fails, training
    runs in this process alone.

    ``loss_history`` holds ``epochs + 1`` entries, each a minibatch
    estimate; training makes no full-data pass.  Entry 0 is the initial
    model's mean loss on epoch 0's first minibatch, which the first step
    takes anyway; with ``epochs=0`` it is still taken, and no step
    follows.  Entry ``e + 1`` is epoch ``e``'s mean minibatch loss: the
    summed losses of its minibatches, each taken before that batch's
    update, in batch order, over n.  Raises ``ContractViolationError``,
    before any step, on a row with a non-finite feature or target, and
    ``TrainingDivergedError`` on a non-finite minibatch loss or non-finite
    parameters at an epoch's end.
    """
    x, y = data
    x = _inputs(arch, x)
    n, k = x.shape[0], _tokens(arch, x)
    if n == 0:
        raise ContractViolationError("training split must be nonempty")
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError(f"alpha must lie in (0, 1), got {alpha}")
    y = _targets(y, n, k)
    bad = np.flatnonzero(~(np.isfinite(x.reshape(n, -1)).all(axis=1) & np.isfinite(y).all(axis=1)))
    if bad.size:
        raise ContractViolationError(f"training row {bad[0]} has a non-finite feature or target")
    model = init_model(arch, alpha, cfg.seed)
    rows = min(cfg.batch_size, n)
    split = k >= SPLIT_TOKENS and rows >= 4
    grad = np.empty(arch.size)
    if split:  # where the worker reads them, and writes its share of the gradient
        shared = _shared({"params": (arch.size, float), "grad": (arch.size, float)})
        shared["params"][:] = model.params
        model.params, grad = shared["params"], shared["grad"]
    ws = _Workspace(model, rows, k, grad, shared=split)
    if split:
        ws.worker = _fork.start(lambda: _fork.Child(ws.serve, commands=True))
    try:
        _descend(model, ws, x, y, cfg)
        if ws.worker is not None:
            ws.worker.result()  # the worker leaves once its pipe closes
    finally:
        if ws.worker is not None:
            ws.worker.close()
    if split:
        model.params = model.params.copy()  # out of the shared mapping
    return model


def _descend(model: QuantileModel, ws: _Workspace, x, y, cfg: TrainConfig) -> None:
    """``train``'s steps, on the model's parameters in place, with
    gradients from ``ws``; appends to the model's loss history."""
    n, grad = x.shape[0], ws.grad
    rng = np.random.Generator(np.random.PCG64(cfg.seed + 1))
    velocity = np.zeros_like(model.params)
    # the first step's loss and gradient, at the initial parameters; that
    # loss over the batch's rows is entry 0 of the history
    order = rng.permutation(n)
    idx = order[: cfg.batch_size]
    loss = ws.loss_and_grad(*ws.gather(x, y, idx))
    model.loss_history.append(loss / idx.size)
    for epoch in range(cfg.epochs):
        if epoch:
            order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            if epoch or start:  # epoch 0's first loss and gradient are in hand
                idx = order[start : start + cfg.batch_size]
                loss = ws.loss_and_grad(*ws.gather(x, y, idx))
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            epoch_sum += loss
            # velocity = momentum * velocity - step_size * (grad / batch), in place
            grad /= idx.size
            grad *= cfg.step_size
            velocity *= MOMENTUM
            velocity -= grad
            model.params += velocity
        if not np.isfinite(model.params).all():  # the last update overflowed
            raise TrainingDivergedError(epoch, f"non-finite parameters after epoch {epoch}")
        model.loss_history.append(epoch_sum / n)
