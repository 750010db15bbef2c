"""Quantile regression tests: loss conventions, hand-checked and
finite-difference gradients, equivariance, and training behavior."""

import errno
import itertools
import math
import os
import resource
import threading
import time

import numpy as np
import pytest

from ccke.conformal import ContractViolationError
from ccke.quantile_net import (
    ATTENTION,
    FEEDFORWARD,
    QuantileModel,
    TrainConfig,
    TrainingDivergedError,
    init_model,
    train,
)
from ccke import _fork, quantile_net
from ccke.quantile_net import _loss_and_grad, _views


# ---------------------------------------------------------------------------
# pinball loss: the elementwise oracles of reference_loss_and_grad (training
# fuses its own loss and output gradient)


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


def test_pinball_zero_residual():
    assert pinball_loss(3.0, 3.0, 0.4) == 0.0


def test_pinball_median_case():
    assert pinball_loss(2.0, 0.0, 0.5) == 1.0


def test_pinball_asymmetric_case():
    assert pinball_loss(-1.0, 0.0, 0.9) == pytest.approx(0.1)


def test_pinball_tau_out_of_range():
    with pytest.raises(ContractViolationError):
        pinball_loss(1.0, 0.0, 1.0)


def test_pinball_subgradient_convention():
    # residual positive: slope -tau; at the kink the tau side applies
    assert pinball_output_grad(1.0, 0.0, 0.5) == -0.5
    assert pinball_output_grad(0.0, 0.0, 0.3) == pytest.approx(-0.3)
    assert pinball_output_grad(-1.0, 0.0, 0.3) == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# gradients


def _fd_gradient(model, x, y, eps=1e-5):
    g = np.zeros_like(model.params)
    for i in range(model.params.size):
        p0 = model.params[i]
        model.params[i] = p0 + eps
        lp, _ = _loss_and_grad(model, x, y)
        model.params[i] = p0 - eps
        lm, _ = _loss_and_grad(model, x, y)
        model.params[i] = p0
        g[i] = (lp - lm) / (2.0 * eps)
    return g


@pytest.mark.parametrize("arch,shape", [
    (FEEDFORWARD, (6, 2)),
    (ATTENTION, (3, 2, 5)),
])
def test_gradient_matches_finite_differences(arch, shape):
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, shape)
    y = rng.uniform(-1.0, 1.0, (shape[0],) if arch.kind == "feedforward"
                    else (shape[0], shape[2]))
    model = init_model(arch, 0.2, seed=5)
    _, g = _loss_and_grad(model, x, y)
    g_fd = _fd_gradient(model, x, y)
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) <= 1e-4
    floor = 1e-3 * np.abs(g_fd).max()  # FD cancellation noise floor
    rel = np.abs(g - g_fd) / np.maximum(np.abs(g_fd), floor)
    assert rel.max() <= 1e-4


def test_pinball_gradient_empty_batch_rejected():
    model = init_model(FEEDFORWARD, 0.2, 0)
    with pytest.raises(ContractViolationError):
        _loss_and_grad(model, np.zeros((0, 2)), np.zeros(0))


def test_gradient_is_summed_over_batch():
    rng = np.random.default_rng(3)
    model = init_model(FEEDFORWARD, 0.2, 1)
    x = rng.uniform(-1, 1, (4, 2))
    y = rng.uniform(-1, 1, 4)
    _, total = _loss_and_grad(model, x, y)
    parts = sum(_loss_and_grad(model, x[i:i + 1], y[i:i + 1])[1] for i in range(4))
    assert np.allclose(total, parts, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# forward pass structure


def test_permutation_equivariance():
    rng = np.random.default_rng(0)
    for k in (2, 8, 16, 32):
        for trial in range(100):
            model = init_model(ATTENTION, 0.2, seed=1000 * k + trial)
            x = rng.uniform(-2.0, 2.0, (1, 2, k))
            perm = rng.permutation(k)
            lo, hi = model.predict(x)
            lo_p, hi_p = model.predict(x[:, :, perm])
            np.testing.assert_allclose(lo_p, lo[:, perm], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(hi_p, hi[:, perm], rtol=1e-9, atol=1e-12)


def test_single_token_attention_is_mlp_composition():
    # softmax over one key is the constant 1, so the whole net collapses
    # to the two projection/MLP stacks applied to that token
    model = init_model(ATTENTION, 0.2, seed=9)
    x = np.array([[[0.7], [-0.3]]])
    lo, hi = model.predict(x)

    def mlp(v, prefix, n_layers, views):
        for i in range(n_layers):
            v = views[f"{prefix}W{i}"] @ v + views[f"{prefix}b{i}"]
            if i != n_layers - 1:
                v = np.maximum(v, 0.0)
        return v

    views = _views(model.params, model.arch)
    token = x[0, :, 0]
    v = views["Wv"] @ token
    v = mlp(v, "m1", 3, views)
    v = views["Wv2"] @ v
    out = mlp(v, "m2", 3, views)
    np.testing.assert_allclose([lo[0, 0], hi[0, 0]], out, rtol=1e-12)


def test_zero_parameters_give_zero_output():
    arch = ATTENTION
    model = init_model(arch, 0.2, 0)
    model.params[:] = 0.0
    lo, hi = model.predict(np.ones((2, 2, 4)))
    assert np.all(lo == 0.0) and np.all(hi == 0.0)


def test_forward_shape_mismatch():
    model = init_model(FEEDFORWARD, 0.2, 0)
    with pytest.raises(ContractViolationError):
        model.predict(np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# training


def test_train_constant_target():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (256, 2))
    c = 4.0
    y = np.full(256, c)
    model = train((x, y), FEEDFORWARD, 0.2,
                  TrainConfig(epochs=150, seed=2))
    lo, hi = model.predict(x)
    assert np.all(np.abs(lo - c) <= 0.1 * abs(c) + 0.1)
    assert np.all(np.abs(hi - c) <= 0.1 * abs(c) + 0.1)


def with_zero_column(x):
    """One-feature rows (n, 1) as inputs of the 2-input net: a zero second column."""
    return np.hstack([x, np.zeros_like(x)])


def test_train_uniform_noise_quantiles():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, (3000, 1))
    y = x[:, 0] + rng.uniform(-1.0, 1.0, 3000)
    model = train((with_zero_column(x), y), FEEDFORWARD, 0.2, TrainConfig(epochs=250, seed=3))
    grid = np.linspace(-0.9, 0.9, 13)[:, None]
    lo, hi = model.predict(with_zero_column(grid))
    np.testing.assert_allclose(lo[:, 0], grid[:, 0] - 0.8, atol=0.15)
    np.testing.assert_allclose(hi[:, 0], grid[:, 0] + 0.8, atol=0.15)


def test_train_zero_epochs_returns_seeded_init():
    x = np.zeros((4, 2))
    y = np.zeros(4)
    model = train((x, y), FEEDFORWARD, 0.2, TrainConfig(epochs=0, seed=7))
    init = init_model(FEEDFORWARD, 0.2, 7)
    assert np.array_equal(model.params, init.params)


def test_train_deterministic_bit_identical():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (128, 2))
    y = rng.uniform(-1, 1, 128)
    cfg = TrainConfig(epochs=20, seed=5)
    a = train((x, y), FEEDFORWARD, 0.2, cfg)
    b = train((x, y), FEEDFORWARD, 0.2, cfg)
    assert np.array_equal(a.params, b.params)


def test_train_divergence_reports_epoch():
    # the piecewise-linear loss never overflows on its own, and train rejects
    # non-finite data, so drive the non-finite guard with a step so large
    # that the first update overflows the next batch's heads
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (64, 2))
    y = rng.uniform(-1, 1, 64)
    with pytest.raises(TrainingDivergedError) as err, np.errstate(over="ignore", invalid="ignore"):
        train((x, y), FEEDFORWARD, 0.2,
              TrainConfig(epochs=5, batch_size=16, step_size=1e300, seed=6))
    assert err.value.epoch == 0


@pytest.mark.parametrize("where", ["feature", "target"])
def test_train_rejects_non_finite_rows_before_any_step(where, monkeypatch):
    def refuse(ws, x, y):
        raise AssertionError("train must not step on non-finite data")

    monkeypatch.setattr(quantile_net._Workspace, "loss_and_grad", refuse)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (64, 2))
    y = rng.uniform(-1, 1, 64)
    if where == "feature":
        x[17, 1] = np.nan
    else:
        y[10] = np.inf
    with pytest.raises(ContractViolationError, match=f"row {17 if where == 'feature' else 10} "):
        train((x, y), FEEDFORWARD, 0.2, TrainConfig(epochs=5, seed=6))


def test_attention_input_without_tokens_rejected():
    model = init_model(ATTENTION, 0.2, 0)
    x, y = np.zeros((3, 2, 0)), np.zeros((3, 0))
    with pytest.raises(ContractViolationError):
        model.predict(x)
    with pytest.raises(ContractViolationError):
        train((x, y), ATTENTION, 0.2, TrainConfig(epochs=1))


def test_train_divergence_on_final_update_reports_last_epoch(monkeypatch):
    # every minibatch loss is finite; only the last update of the last
    # epoch overflows (max / 16 * 32), so the end-of-epoch parameter
    # check is what raises
    real, calls = quantile_net._Workspace.loss_and_grad, []

    def overflow_last_step(ws, x, y):
        loss = real(ws, x, y)
        calls.append(loss)
        if len(calls) == 3 * 4:
            ws.grad[0] = np.finfo(float).max
        return loss

    monkeypatch.setattr(quantile_net._Workspace, "loss_and_grad", overflow_last_step)
    x, y = _training_data(FEEDFORWARD, 64, 1, seed=12)
    with pytest.raises(TrainingDivergedError) as err, np.errstate(over="ignore"):
        train((x, y), FEEDFORWARD, 0.2,
              TrainConfig(epochs=3, batch_size=16, step_size=32.0, seed=6))
    assert err.value.epoch == 3 - 1
    assert len(calls) == 3 * 4 and all(np.isfinite(calls))


@pytest.mark.parametrize("arch,k", [(FEEDFORWARD, 1), (ATTENTION, 8)])
def test_initial_loss_is_batch_loss_of_init(arch, k):
    # entry 0 is the initial model's loss on epoch 0's first minibatch, over
    # its rows, also when no step follows
    x, y = _training_data(arch, 300, k, seed=13)
    first = np.random.Generator(np.random.PCG64(5 + 1)).permutation(300)[:64]
    want = reference_loss_and_grad(init_model(arch, 0.2, 5), x[first], y[first])[0] / first.size
    for epochs in (0, 3):
        model = train((x, y), arch, 0.2, TrainConfig(epochs=epochs, batch_size=64, seed=5))
        assert model.loss_history[0].hex() == want.hex()
        assert len(model.loss_history) == epochs + 1


def training_forward_rows(monkeypatch):
    """The row count of every forward pass of a training workspace, as it is made."""
    rows, forward = [], quantile_net._Workspace._forward

    def recording(ws, x, v):
        if ws.grad is not None:
            rows.append(x.shape[0])
        return forward(ws, x, v)

    monkeypatch.setattr(quantile_net._Workspace, "_forward", recording)
    return rows


def test_train_makes_no_full_data_pass(monkeypatch):
    # the forward passes cover each step's batch once: epoch 0's first
    # batch, whose loss is entry 0, then every other batch of each epoch
    rows = training_forward_rows(monkeypatch)
    x, y = _training_data(FEEDFORWARD, 200, 1, seed=14)
    for epochs in (0, 4):
        rows.clear()
        model = train((x, y), FEEDFORWARD, 0.2, TrainConfig(epochs=epochs, seed=1))
        assert len(model.loss_history) == epochs + 1
        assert max(rows) <= 64 and sum(rows) == (epochs * 200 if epochs else 64)


def test_final_loss_not_above_initial():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, (256, 2))
    y = x[:, 0] + rng.uniform(-0.5, 0.5, 256)
    model = train((x, y), FEEDFORWARD, 0.2, TrainConfig(epochs=80, seed=7))
    assert model.loss_history[-1] <= model.loss_history[0]


def test_loss_improves_in_median_over_seeds():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, (400, 1))
    y = x[:, 0] + rng.uniform(-1, 1, 400)
    initial, final = [], []
    for seed in range(10):
        model = train((with_zero_column(x), y), FEEDFORWARD, 0.2, TrainConfig(epochs=30, seed=seed))
        initial.append(model.loss_history[0])
        final.append(model.loss_history[-1])
    assert np.median(final) < np.median(initial)


# ---------------------------------------------------------------------------
# frozen oracle: the forward and backward passes as they were before the
# training step moved into one preallocated workspace.  Every step allocated
# its temporaries, the three projections were separate matmuls, the weight
# gradients came from tensordot, block 1's input gradient was formed and
# dropped, and the gradient was summed into zeros.  The production path must
# match it bit for bit.


def _reference_softmax_rows(a):
    m = a.max(axis=-1, keepdims=True)
    e = np.exp(a - m)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_attention_fwd(x, wq, wk, wv, d_h):
    q = wq @ x
    k = wk @ x
    v = wv @ x
    a = k.transpose(0, 2, 1) @ q / math.sqrt(d_h)
    s = _reference_softmax_rows(a)
    return v @ s, (x, q, k, v, s, wq, wk, wv)


def _reference_attention_bwd(d_out, cache, d_h):
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


def _reference_mlp_fwd(x_tokens, weights, biases):
    acts = [x_tokens]
    h = x_tokens
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        h = z if i == len(weights) - 1 else np.maximum(z, 0.0)
        acts.append(h)
    return h, acts


def _reference_mlp_bwd(d_out, acts, weights):
    grads = [None] * (2 * len(weights))
    d = d_out
    for i in range(len(weights) - 1, -1, -1):
        if i != len(weights) - 1:
            d = d * (acts[i + 1] > 0.0)
        grads[2 * i] = d.T @ acts[i]
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ weights[i]
    return d, grads


def reference_forward(model, x):
    """Heads (lo, hi) of the oracle's forward pass, plus its backward cache."""
    q, p = quantile_net, _views(model.params, model.arch)
    x = np.asarray(x, dtype=float)
    if model.arch.kind == "feedforward":
        ws = [p[f"W{i}"] for i in range(len(q.FEEDFORWARD_WIDTHS) - 1)]
        bs = [p[f"b{i}"] for i in range(len(q.FEEDFORWARD_WIDTHS) - 1)]
        out, acts = _reference_mlp_fwd(x, ws, bs)
        return (out[:, 0:1], out[:, 1:2]), ("ff", acts, ws)
    b, _, kk = x.shape
    att1, c1 = _reference_attention_fwd(x, p["Wq"], p["Wk"], p["Wv"], q.D_H)
    t1 = att1.transpose(0, 2, 1).reshape(b * kk, q.D_O)
    w1 = [p[f"m1W{i}"] for i in range(len(q.MLP1))]
    b1 = [p[f"m1b{i}"] for i in range(len(q.MLP1))]
    e_tokens, acts1 = _reference_mlp_fwd(t1, w1, b1)
    xe = e_tokens.reshape(b, kk, q.D_E).transpose(0, 2, 1)
    att2, c2 = _reference_attention_fwd(xe, p["Wq2"], p["Wk2"], p["Wv2"], q.D_H)
    t2 = att2.transpose(0, 2, 1).reshape(b * kk, q.D_O)
    w2 = [p[f"m2W{i}"] for i in range(len(q.MLP2))]
    b2 = [p[f"m2b{i}"] for i in range(len(q.MLP2))]
    out_tokens, acts2 = _reference_mlp_fwd(t2, w2, b2)
    out = out_tokens.reshape(b, kk, 2)
    return (out[:, :, 0], out[:, :, 1]), ("att", (b, kk), c1, acts1, w1, c2, acts2, w2)


def _reference_pinball_sum(model, y, lo, hi):
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    tau_lo, tau_hi = model.alpha / 2.0, 1.0 - model.alpha / 2.0
    return float(np.sum(pinball_loss(y, lo, tau_lo)) + np.sum(pinball_loss(y, hi, tau_hi))), y


def reference_grads(model, x, y):
    """The oracle's loss and its per-tensor gradients in layout order, before
    they are summed into the flat vector."""
    q = quantile_net
    (lo, hi), cache = reference_forward(model, x)
    loss, y = _reference_pinball_sum(model, y, lo, hi)
    d_lo = pinball_output_grad(y, lo, model.alpha / 2.0)
    d_hi = pinball_output_grad(y, hi, 1.0 - model.alpha / 2.0)
    if cache[0] == "ff":
        _, acts, ws = cache
        _, grads = _reference_mlp_bwd(np.concatenate([d_lo, d_hi], axis=1), acts, ws)
        return loss, grads
    _, (b, kk), c1, acts1, w1, c2, acts2, w2 = cache
    d_out_tokens = np.stack([d_lo, d_hi], axis=2).reshape(b * kk, 2)
    d_t2, g2 = _reference_mlp_bwd(d_out_tokens, acts2, w2)
    d_att2 = d_t2.reshape(b, kk, q.D_O).transpose(0, 2, 1)
    d_xe, ga2 = _reference_attention_bwd(d_att2, c2, q.D_H)
    d_e_tokens = d_xe.transpose(0, 2, 1).reshape(b * kk, q.D_E)
    d_t1, g1 = _reference_mlp_bwd(d_e_tokens, acts1, w1)
    d_att1 = d_t1.reshape(b, kk, q.D_O).transpose(0, 2, 1)
    _, ga1 = _reference_attention_bwd(d_att1, c1, q.D_H)
    return loss, ga1 + g1 + ga2 + g2


def reference_loss_and_grad(model, x, y):
    """The oracle's summed loss and flat gradient: each tensor's gradient added
    into zeros, so a -0.0 entry becomes +0.0."""
    loss, grads = reference_grads(model, x, y)
    grad = np.zeros_like(model.params)
    for (_, _, a, b), g in zip(model.arch.layout, grads):
        grad[a:b] += g.ravel()
    return loss, grad


def reference_train(data, arch, alpha, cfg):
    """The original training loop on the oracle: a fresh gradient array per
    step and an out-of-place momentum update.  Entry 0 of the loss history
    is the initial model's loss on epoch 0's first minibatch, over its rows;
    each epoch's loss is the sum of its minibatch losses, taken before each
    update in batch order, over n."""
    x, y = (np.asarray(a, dtype=float) for a in data)
    n = x.shape[0]
    model = init_model(arch, alpha, cfg.seed)
    rng = np.random.Generator(np.random.PCG64(cfg.seed + 1))
    order = rng.permutation(n)
    first = order[: cfg.batch_size]
    model.loss_history.append(reference_loss_and_grad(model, x[first], y[first])[0] / first.size)
    velocity = np.zeros_like(model.params)
    for epoch in range(cfg.epochs):
        if epoch:
            order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = reference_loss_and_grad(model, x[idx], y[idx])
            epoch_sum += loss
            velocity = quantile_net.MOMENTUM * velocity - cfg.step_size * (grad / idx.size)
            model.params = model.params + velocity
        model.loss_history.append(epoch_sum / n)
    return model


# the two nets again, as objects of their own, whose training data
# _training_data divides by 0.02: inputs that far out leave some ReLU units
# dead for every row, and their gradients exact zeros
DEAD_FF, DEAD_ATT = quantile_net._Net(*FEEDFORWARD), quantile_net._Net(*ATTENTION)


def _training_data(arch, n, k, seed):
    rng = np.random.default_rng(seed)
    if arch.kind == "feedforward":
        x, y = rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.0, 1.0, n)
    else:
        x, y = rng.uniform(0.0, 3.0, (n, 2, k)), rng.uniform(0.0, 3.0, (n, k))
    if arch is DEAD_FF or arch is DEAD_ATT:
        x = x / 0.02
    return x, y


# n is not a multiple of the batch size 64; n = 129 leaves a last batch of one
# row.  At K = 3 and K = 33 the full batches take the softmax's column-wise row
# max and the one-row batch np.max
@pytest.mark.parametrize("arch,k,n", [(FEEDFORWARD, 1, 2100), (ATTENTION, 1, 2100),
                                      (ATTENTION, 8, 600), (ATTENTION, 32, 129),
                                      (FEEDFORWARD, 1, 129), (ATTENTION, 8, 129),
                                      (DEAD_FF, 1, 300), (DEAD_ATT, 8, 300),
                                      (ATTENTION, 3, 129), (ATTENTION, 33, 129)])
@pytest.mark.parametrize("epochs", [0, 3])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_train_matches_reference_bytes(arch, k, n, epochs, momentum, monkeypatch):
    # momentum 0 (plain gradient steps) through the module constant, which
    # train and reference_train both read
    monkeypatch.setattr(quantile_net, "MOMENTUM", momentum)
    data = _training_data(arch, n, k, seed=8)
    cfg = TrainConfig(epochs=epochs, batch_size=64, step_size=0.05, seed=4)
    got = train(data, arch, 0.2, cfg)
    want = reference_train(data, arch, 0.2, cfg)
    assert got.params.tobytes() == want.params.tobytes()
    assert np.array(got.loss_history).tobytes() == np.array(want.loss_history).tobytes()
    assert len(got.loss_history) == epochs + 1


@pytest.mark.parametrize("arch,k", [(FEEDFORWARD, 1), (ATTENTION, 1),
                                    (ATTENTION, 2), (ATTENTION, 8),
                                    (ATTENTION, 32), (ATTENTION, 3),
                                    (ATTENTION, 33)])
@pytest.mark.parametrize("b", [1, 2, 64])
def test_step_and_predict_match_reference_bytes(arch, k, b):
    # b = 1 and K = 1 are where numpy's reshapes return views, whose memory
    # layout the BLAS products and pairwise sums round by; at K = 3 and
    # K = 33, b = 64 takes the softmax's column-wise row max and b < K np.max
    x, y = _training_data(arch, b, k, seed=15)
    model = init_model(arch, 0.2, seed=6)
    loss, grad = _loss_and_grad(model, x, y)
    want_loss, want_grad = reference_loss_and_grad(model, x, y)
    assert loss.hex() == want_loss.hex() and grad.tobytes() == want_grad.tobytes()
    (want_lo, want_hi), _ = reference_forward(model, x)
    lo, hi = model.predict(x)
    assert lo.shape == want_lo.shape and lo.tobytes() == want_lo.tobytes()
    assert hi.shape == want_hi.shape and hi.tobytes() == want_hi.tobytes()


@pytest.mark.parametrize("arch,k", [(FEEDFORWARD, 1), (ATTENTION, 1),
                                    (ATTENTION, 8)])
def test_predict_passes_match_one_pass_reference_bytes(arch, k):
    # PREDICT_ROWS + 1 and 2 PREDICT_ROWS + 1 rows leave one row after the
    # whole passes.  At K = 1 a 1-row pass takes BLAS gemv, which rounds
    # about a third of the rows differently, so that row joins the pass
    # before it, and every row keeps the heads of one pass over all rows
    model = init_model(arch, 0.2, seed=6)
    model.params += np.random.default_rng(19).normal(scale=0.5, size=model.params.size)
    rows = quantile_net.PREDICT_ROWS
    for n, seed in itertools.product((2, rows + 1, 2 * rows + 1), range(6)):
        x, _ = _training_data(arch, n, k, seed=seed)
        (want_lo, want_hi), _ = reference_forward(model, x)
        lo, hi = model.predict(x)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes(), (n, seed)


@pytest.mark.parametrize("arch,k", [(DEAD_FF, 1), (DEAD_ATT, 8)])
def test_dead_unit_gradients_match_reference_bytes(arch, k):
    x, y = _training_data(arch, 64, k, seed=8)
    model = init_model(arch, 0.2, seed=4)
    _, grads = reference_grads(model, x, y)
    # the case is exercised: some unit's incoming weights get no gradient from any row
    assert any(np.all(g == 0.0, axis=1).any() for g in grads if g.ndim == 2)
    loss, grad = _loss_and_grad(model, x, y)
    want_loss, want_grad = reference_loss_and_grad(model, x, y)
    assert loss == want_loss and grad.tobytes() == want_grad.tobytes()
    assert not np.signbit(grad[grad == 0.0]).any()


def test_train_calls_share_no_workspace_state():
    att, ff = ATTENTION, FEEDFORWARD
    data = {att: _training_data(att, 130, 8, seed=16), ff: _training_data(ff, 130, 1, seed=17)}
    cfg = TrainConfig(epochs=2, batch_size=64, seed=3)
    for arch, other in ((att, ff), (ff, att)):
        first = train(data[arch], arch, 0.2, cfg)
        train(data[other], other, 0.2, cfg)
        second = train(data[arch], arch, 0.2, cfg)
        assert first.params.tobytes() == second.params.tobytes()
        assert first.loss_history == second.loss_history


def test_train_step_does_not_churn_pages():
    # a mac-k32-pfca-sized call (3000 rows of 32 tokens, 2 epochs): allocating
    # each step's temporaries afresh took about 76,000 minor page faults, as
    # glibc returned them to the OS and faulted them back in; one workspace
    # is touched once
    x, y = _training_data(ATTENTION, 3000, 32, seed=18)
    x = x * 30.0 / np.array([100.0, 15.0])[:, None]  # backlog-like and CQI-like, scaled
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train((x, y), ATTENTION, 0.2, TrainConfig(epochs=2, seed=0))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 10_000


@pytest.mark.parametrize("field,value", [("step_size", float("nan")), ("step_size", float("inf")),
                                         ("step_size", 0.0)])
def test_train_config_rejects_bad_step_size_and_momentum(field, value):
    with pytest.raises(ContractViolationError):
        TrainConfig(**{field: value})


def test_train_rejects_targets_of_another_shape():
    x, y = _training_data(ATTENTION, 40, 4, seed=19)
    with pytest.raises(ContractViolationError):
        train((x, y[:, :3]), ATTENTION, 0.2, TrainConfig(epochs=1))


def test_train_never_calls_predict(monkeypatch):
    def refuse(self, x):
        raise AssertionError("train must not call QuantileModel.predict")

    monkeypatch.setattr(QuantileModel, "predict", refuse)
    for arch, k in ((FEEDFORWARD, 1), (ATTENTION, 4)):
        train(_training_data(arch, 80, k, seed=10), arch, 0.2, TrainConfig(epochs=2, seed=1))


# ---------------------------------------------------------------------------
# training in two processes: a forked worker runs the row phase of half of
# each batch at K >= SPLIT_TOKENS


def train_inline(data, arch, cfg, monkeypatch):
    """``train`` in this process alone, as off Linux."""
    with monkeypatch.context() as m:
        m.setattr(_fork, "LINUX", False)
        return train(data, arch, 0.2, cfg)


def model_bytes(model):
    return model.params.tobytes(), np.array(model.loss_history).tobytes()


@pytest.mark.parametrize("arch", [ATTENTION, DEAD_ATT], ids=["scale 1", "scale 0.02"])
@pytest.mark.parametrize("k", [16, 17, 32, 33])
def test_worker_train_matches_inline_and_reference_bytes(arch, k, forked_pids, monkeypatch):
    # n = 129 to 133 leave last batches of 1 to 5 rows: below 4 rows both
    # phases run in this process, from 4 the worker takes the larger half
    cfg = TrainConfig(epochs=2, batch_size=64, step_size=0.05, seed=4)
    for n in range(129, 134):
        data = _training_data(arch, n, k, seed=n)
        got = model_bytes(train(data, arch, 0.2, cfg))
        assert got == model_bytes(train_inline(data, arch, cfg, monkeypatch)), n
        assert got == model_bytes(reference_train(data, arch, 0.2, cfg)), n
    assert len(forked_pids) == 5


@pytest.mark.parametrize("k,forks", [(8, 0), (15, 0), (16, 1)])
def test_worker_forked_once_per_train_call_from_16_tokens(k, forks, forked_pids):
    data = _training_data(ATTENTION, 100, k, seed=20)
    for calls in (1, 2):
        train(data, ATTENTION, 0.2, TrainConfig(epochs=1, seed=2))
        assert len(forked_pids) == forks * calls


def _refuse_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("case", ["fork fails", "one CPU", "another thread"])
def test_worker_not_forked_when_it_cannot_or_should_not_fork(case, forked_pids, monkeypatch):
    data, cfg = _training_data(ATTENTION, 130, 16, seed=21), TrainConfig(epochs=2, seed=3)
    expected = model_bytes(train_inline(data, ATTENTION, cfg, monkeypatch))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if case == "fork fails":
        monkeypatch.setattr(os, "fork", _refuse_fork)
    elif case == "one CPU":  # the worker would only compete with this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:  # a worker forked beside it could inherit a lock it holds
        other.start()
    try:
        got = model_bytes(train(data, ATTENTION, 0.2, cfg))
    finally:
        release.set()
        if other.is_alive():
            other.join()
    assert forked_pids == [] and got == expected


def test_worker_failure_raises_with_its_traceback(forked_pids, monkeypatch):
    parent, rows, calls = os.getpid(), quantile_net._Workspace.rows, []

    def failing(ws, x, y, lo, hi):
        if os.getpid() != parent:
            calls.append(lo)
            if len(calls) == 3:
                raise FloatingPointError("row phase failed in the worker")
        return rows(ws, x, y, lo, hi)

    monkeypatch.setattr(quantile_net._Workspace, "rows", failing)
    start = time.perf_counter()
    with pytest.raises(FloatingPointError, match="row phase failed in the worker") as info:
        train(_training_data(ATTENTION, 300, 16, seed=22), ATTENTION, 0.2,
              TrainConfig(epochs=2, seed=3))
    assert time.perf_counter() - start < 30.0
    assert len(forked_pids) == 1
    assert isinstance(info.value.__cause__, _fork.ChildTraceback)
    worker_traceback = str(info.value.__cause__)
    assert "in failing" in worker_traceback and "in serve" in worker_traceback


@pytest.mark.parametrize("failure", ["diverged", "sum phase"])
def test_worker_killed_and_reaped_when_the_parent_fails(failure, forked_pids, monkeypatch):
    # the forked_pids fixture checks that no child is left and no descriptor open
    data = _training_data(ATTENTION, 300, 16, seed=23)
    if failure == "diverged":  # the first update overflows the next batch's heads
        cfg, error = TrainConfig(epochs=3, step_size=1e300, seed=3), TrainingDivergedError
    else:
        cfg, error, sums, calls = TrainConfig(epochs=3, seed=3), ArithmeticError, \
            quantile_net._Workspace.output_sums, []

        def failing(ws, b):  # the parent's share of the sum phase
            calls.append(b)
            if len(calls) == 4:
                raise ArithmeticError("the parent failed")
            return sums(ws, b)

        monkeypatch.setattr(quantile_net._Workspace, "output_sums", failing)
    with pytest.raises(error), np.errstate(over="ignore", invalid="ignore"):
        train(data, ATTENTION, 0.2, cfg)
    assert len(forked_pids) == 1


SUM_SHARES = ("input_sums", "output_sums")  # the worker's and the parent's


def test_worker_runs_the_input_side_of_the_sum_phase(forked_pids, monkeypatch, tmp_path):
    # 300 rows in batches of 64 leave a last batch of 44: 5 split steps an
    # epoch, and the output side's share stays in this process
    log, parent = tmp_path / "sums.log", os.getpid()
    shares = {name: getattr(quantile_net._Workspace, name) for name in SUM_SHARES}

    def recording(name):
        def share(ws, b):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()} {b}\n")
            return shares[name](ws, b)
        return share

    for name in shares:
        monkeypatch.setattr(quantile_net._Workspace, name, recording(name))
    data, cfg = _training_data(ATTENTION, 300, 16, seed=24), TrainConfig(epochs=2, seed=3)
    got = model_bytes(train(data, ATTENTION, 0.2, cfg))
    calls = [line.split() for line in log.read_text().splitlines()]
    assert len(forked_pids) == 1
    worker = str(forked_pids[0])
    for name, pid in (("input_sums", worker), ("output_sums", str(parent))):
        steps = [(p, int(b)) for n, p, b in calls if n == name]
        assert steps == ([(pid, 64)] * 4 + [(pid, 44)]) * 2
    assert got == model_bytes(train_inline(data, ATTENTION, cfg, monkeypatch))


def test_worker_failure_in_its_sums_raises_with_its_traceback(forked_pids, monkeypatch):
    sums, calls = quantile_net._Workspace.input_sums, []

    def failing(ws, b):
        calls.append(b)
        if len(calls) == 3:
            raise FloatingPointError("sum phase failed in the worker")
        return sums(ws, b)

    monkeypatch.setattr(quantile_net._Workspace, "input_sums", failing)
    start = time.perf_counter()
    with pytest.raises(FloatingPointError, match="sum phase failed in the worker") as info:
        train(_training_data(ATTENTION, 300, 16, seed=22), ATTENTION, 0.2,
              TrainConfig(epochs=2, seed=3))
    assert time.perf_counter() - start < 30.0
    assert len(forked_pids) == 1 and calls == []  # the calls were the worker's
    assert isinstance(info.value.__cause__, _fork.ChildTraceback)
    worker_traceback = str(info.value.__cause__)
    assert "in failing" in worker_traceback and "in serve" in worker_traceback


def test_worker_killed_in_its_sums_when_the_parent_fails(forked_pids, monkeypatch):
    # the worker sleeps in its share of the sum phase of step 2 while the
    # parent fails in its own: the parent must kill it, not wait for it
    shares = {name: getattr(quantile_net._Workspace, name) for name in SUM_SHARES}
    calls = []  # each process counts its own share's calls

    def slow(ws, b):
        calls.append(b)
        if len(calls) == 2:
            time.sleep(60.0)
        return shares["input_sums"](ws, b)

    def failing(ws, b):
        calls.append(b)
        if len(calls) == 2:
            raise ArithmeticError("the parent failed")
        return shares["output_sums"](ws, b)

    monkeypatch.setattr(quantile_net._Workspace, "input_sums", slow)
    monkeypatch.setattr(quantile_net._Workspace, "output_sums", failing)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="the parent failed"):
        train(_training_data(ATTENTION, 300, 16, seed=23), ATTENTION, 0.2,
              TrainConfig(epochs=3, seed=3))
    assert time.perf_counter() - start < 30.0  # killed, not waited for
    assert len(forked_pids) == 1
