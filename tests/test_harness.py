"""Harness tests: the batch environment protocol and counterfactual
truth, metrics, experiment execution, report emission, and the
command-line interface."""

import contextlib
import csv
import errno
import math
import os
import re
import subprocess
import sys
import threading
import time
import typing
import warnings

import numpy as np
import pytest
from scipy import stats

from ccke import _fork, cli, harness, mac_sim, phy_sim, quantile_net
from ccke.conformal import ContractViolationError, weighted_corrections
from ccke.harness import (
    ExperimentConfig,
    ExperimentReport,
    MacEnvironment,
    PhyEnvironment,
    SyntheticEnvironment,
    TrialResult,
    rng_for,
    run_experiment,
)
from ccke.reporting import (
    TRIAL_COLUMNS,
    aggregate_rows,
    emit_report,
    read_trial_rows,
    write_aggregate,
)


# ---------------------------------------------------------------------------
# environments and counterfactual truth


def rows_of(ctx):
    """Each context of a batch as a batch of one."""
    if isinstance(ctx, mac_sim.MacContexts):
        return [mac_sim.MacContexts(ctx.backlogs[i:i + 1], ctx.cqis[i:i + 1])
                for i in range(len(ctx))]
    if isinstance(ctx, phy_sim.PhyContexts):
        return [phy_sim.PhyContexts(ctx.snr_db[i:i + 1], ctx.paths[i:i + 1])
                for i in range(len(ctx))]
    return [ctx[i:i + 1] for i in range(len(ctx))]


def test_counterfactual_truth_replay():
    env = MacEnvironment(n_users=4, temperature=1.0)
    ctx = env.sample_contexts_given_app(mac_sim.PFCA, 5, rng_for(8, 1))
    a = env.rollout(mac_sim.RR, ctx, rng_for(8, 2))
    b = env.rollout(mac_sim.RR, ctx, rng_for(8, 2))
    assert a.shape == (5, 4) and np.array_equal(a, b)


def test_counterfactual_truth_empty_backlogs():
    env = MacEnvironment(n_users=3, temperature=1.0)
    ctx = mac_sim.MacContexts(backlogs=[[0, 0, 0]], cqis=[[4, 9, 13]])
    assert np.array_equal(env.rollout(mac_sim.RR, ctx, rng_for(9, 1)), np.zeros((1, 3)))


def test_counterfactual_truth_distribution_matches_direct_rollout():
    # one rollout of a batch of 1000 copies against 1000 rollouts of the context alone
    env = SyntheticEnvironment()
    rng = rng_for(10, 1)
    a = env.rollout("base", np.full(1000, 0.3), rng)[:, 0]
    b = np.array([env.rollout("base", np.array([0.3]), rng)[0, 0] for _ in range(1000)])
    assert stats.ks_2samp(a, b).pvalue > 0.01


ENVIRONMENTS = {
    "mac": (lambda: MacEnvironment(n_users=4, temperature=1.0), mac_sim.MAC_APPS),
    "phy": (PhyEnvironment, phy_sim.PHY_APPS),
    "synthetic": (SyntheticEnvironment, ("base", "alt")),
}


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_batch_protocol_matches_per_row_calls(name):
    # a mac or synthetic batch rollout makes the draws of one rollout per
    # row, in row order; a phy batch is one round-major arq_latencies call,
    # which replays from its seed.  Every per-context quantity of a batch
    # is that of its rows.
    make, apps = ENVIRONMENTS[name]
    env = make()
    ctx = env.sample_contexts_given_app(apps[0], 30, rng_for(14, 1))
    rows = rows_of(ctx)
    assert len(ctx) == 30
    for app in apps:
        batch_rng, row_rng = rng_for(14, 2), rng_for(14, 2)
        batch = env.rollout(app, ctx, batch_rng)
        if name == "phy":
            want = phy_sim.arq_latencies(app, ctx, env.arq, row_rng)[:, None]
            assert np.array_equal(env.rollout(app, ctx, rng_for(14, 2)), batch)
        else:
            want = np.concatenate([env.rollout(app, r, row_rng) for r in rows])
        assert batch.dtype == float and np.array_equal(batch, want)
        assert batch_rng.random() == row_rng.random()
        w = env.weight(ctx, app, apps[0])
        assert w.shape == (30,)
        assert w.tobytes() == np.concatenate([env.weight(r, app, apps[0]) for r in rows]).tobytes()
    for method in ("features", "normalizers", "domains"):
        got = getattr(env, method)(ctx)
        assert np.array_equal(got, np.concatenate([getattr(env, method)(r) for r in rows]))
    assert env.domains(ctx).shape == (30, 2)


def test_selection_logistic_stable_at_sharp_temperature():
    env = SyntheticEnvironment(selection_temperature=0.01)
    x = np.array([-10.0, -1e-3, -0.0, 0.0, 1e-3, 10.0])
    with np.errstate(over="raise"):
        p = env._p_alt(x)
    z = x / 0.01
    with np.errstate(over="ignore", invalid="ignore"):
        two_branch = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    assert np.array_equal(p, two_branch)
    assert p[0] == 0.0 and p[-1] == 1.0


def reference_mac_contexts_given_app(env, app, n, rng):
    """The MAC rejection sampler with its original two-branch logistic,
    whose discarded branch may overflow; returns the kept rows and the
    rounds."""
    table, temp = env.policy.payload_table, env.policy.temperature
    out, batch, rounds = [], max(1024, 2 * n), 0
    while len(out) < n:
        rounds += 1
        b = rng.integers(mac_sim.BACKLOG_MIN, mac_sim.BACKLOG_MAX + 1, size=(batch, env.n_users))
        c = rng.integers(1, 16, size=(batch, env.n_users))
        z = -np.max(b - table[c - 1] / env.n_users, axis=1) / temp
        with np.errstate(over="ignore", invalid="ignore"):
            p_rr = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-np.minimum(z, 700.0))),
                            np.exp(np.maximum(z, -700.0))
                            / (1.0 + np.exp(np.maximum(z, -700.0))))
        p_app = p_rr if app == mac_sim.RR else 1.0 - p_rr
        accept = rng.random(batch) < p_app
        out += [(b[i], c[i]) for i in np.flatnonzero(accept)][: n - len(out)]
    return out, rounds


def reference_synthetic_contexts_given_app(env, app, n, rng, reshape=None):
    """The synthetic rejection sampler as a per-draw loop: each round draws
    the candidates, then one uniform per candidate, and keeps candidates in
    draw order until n are kept.  ``reshape`` maps the (n,) p(alt | x) of a
    round to the p(alt | x) used; returns the kept rows and the rounds."""
    out, batch, rounds = [], max(1024, 2 * n), 0
    while len(out) < n:
        rounds += 1
        x = rng.normal(size=batch)
        z = x / env.selection_temperature
        with np.errstate(over="ignore"):
            p_alt = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        if reshape is not None:
            p_alt = reshape(p_alt)
        u = rng.random(batch)
        for xi, pi, ui in zip(x.tolist(), p_alt.tolist(), u.tolist()):
            if len(out) < n and ui < (pi if app == "alt" else 1.0 - pi):
                out.append(xi)
    return out, rounds


def rare_app_policy(app, n_users=8):
    """A MAC policy that selects ``app`` for about 2% of contexts."""
    balance = 0.02 if app == mac_sim.RR else 0.98
    return mac_sim.MacPolicy.default(n_users, 0.05, sign_balance=balance)


def record_accept_rows(monkeypatch, env):
    """Wrap ``env._accept_prob``; returns the list of row counts it is asked for."""
    sizes, accept_prob = [], env._accept_prob

    def recording(app, *rows):
        sizes.append(len(rows[0]))
        return accept_prob(app, *rows)

    monkeypatch.setattr(env, "_accept_prob", recording)
    return sizes


@pytest.mark.parametrize("app", mac_sim.MAC_APPS + ("base", "alt"))
def test_mac_sampler_matches_two_branch_logistic(app, monkeypatch):
    # each case draws from one generator through the sampler and through
    # the reference; the rows and the generator's final state must agree
    if app in mac_sim.MAC_APPS:
        reference = reference_mac_contexts_given_app
        cases = [("one round", MacEnvironment(n_users=8, temperature=1.0), 300),
                 ("one row", MacEnvironment(n_users=8, temperature=1.0), 1),
                 ("many rounds", MacEnvironment(n_users=32, policy=rare_app_policy(app, 32)),
                  300),
                 ("short head", MacEnvironment(n_users=8, policy=rare_app_policy(app)), 50)]
    else:
        reference = reference_synthetic_contexts_given_app
        # n sits near one round's acceptances at 1500: "alt" takes a second
        # round, "base" keeps the first n of one
        # the synthetic policy accepts half of all candidates, so the last
        # two cases squeeze p(app | x) 3- and 25-fold, in the sampler and
        # the reference alike
        cases = [("one round", SyntheticEnvironment(selection_temperature=0.3), 1500),
                 ("one row", SyntheticEnvironment(selection_temperature=0.3), 1),
                 ("many rounds", SyntheticEnvironment(selection_temperature=1.0), 300),
                 ("short head", SyntheticEnvironment(selection_temperature=0.3), 200)]
    for label, env, n in cases:
        sizes = record_accept_rows(monkeypatch, env)
        kwargs = {}
        if app in ("base", "alt") and label in ("many rounds", "short head"):
            f = 3.0 if label == "many rounds" else 25.0
            squeeze = {"alt": lambda p: p / f, "base": lambda p: 1.0 - (1.0 - p) / f}[app]
            p_alt = env._p_alt
            monkeypatch.setattr(env, "_p_alt", lambda x: squeeze(p_alt(x)))
            kwargs["reshape"] = squeeze
        rng, ref_rng = rng_for(12, 1), rng_for(12, 1)
        got = env.sample_contexts_given_app(app, n, rng)
        want, rounds = reference(env, app, n, ref_rng, **kwargs)
        assert len(got) == len(want) == n, label
        if app in mac_sim.MAC_APPS:
            assert got.backlogs.dtype == got.cqis.dtype == np.int64
            for b, c, (wb, wc) in zip(got.backlogs, got.cqis, want):
                assert np.array_equal(b, wb) and np.array_equal(c, wc), label
        else:
            assert got.dtype == float and got.tolist() == want, label
        assert rng.bit_generator.state == ref_rng.bit_generator.state, label
        assert len(sizes) >= rounds
        if label == "many rounds":
            assert rounds > 1
        if label == "short head":
            # some round evaluated a head and then the rest of the round
            assert len(sizes) > rounds and sum(sizes) % max(1024, 2 * n) == 0
        monkeypatch.undo()


def accept_prob_cases():
    rng = rng_for(12, 3)
    for k in (8, 32):
        env = MacEnvironment(n_users=k, temperature=1.0)
        rows = (rng.integers(mac_sim.BACKLOG_MIN, mac_sim.BACKLOG_MAX + 1, size=(1024, k)),
                rng.integers(1, 16, size=(1024, k)))
        for app in mac_sim.MAC_APPS:
            yield f"mac-k{k}-{app}", env, app, rows
    env = SyntheticEnvironment(selection_temperature=0.3)
    for app in ("base", "alt"):
        yield f"synthetic-{app}", env, app, (rng.normal(size=1024),)


@pytest.mark.parametrize("case", list(accept_prob_cases()), ids=lambda case: case[0])
def test_accept_prob_of_a_prefix_is_that_prefix_bitwise(case):
    # the sampler evaluates a round's head first and its rest only when
    # the head keeps too few rows, so a prefix must give the same bits
    _, env, app, rows = case
    full = env._accept_prob(app, *rows)
    assert full.shape == (1024,)
    for m in range(1, 1025):
        assert env._accept_prob(app, *(r[:m] for r in rows)).tobytes() == full[:m].tobytes(), m


@pytest.mark.parametrize("app", mac_sim.MAC_APPS)
def test_mac_sampler_no_overflow_at_sharp_temperature(app):
    env = MacEnvironment(n_users=8, temperature=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        contexts = env.sample_contexts_given_app(app, 50, rng_for(12, 2))
    assert len(contexts) == 50


@pytest.mark.parametrize("temperature", [1e-3, 1e-6])
def test_phy_sampler_draws_every_app_at_sharp_temperature(temperature):
    # at these temperatures every cell of some app has p(app | cell) below
    # the smallest float, so only a posterior taken in log space keeps a
    # support for that app
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = PhyEnvironment(temperature=temperature)
        for app in phy_sim.PHY_APPS:
            ctx = env.sample_contexts_given_app(app, 50, rng_for(12, 2))
            assert len(ctx) == 50, app
            assert np.all((ctx.snr_db >= phy_sim.SNR_DB_MIN) & (ctx.snr_db < phy_sim.SNR_DB_MAX))


def rejection_phy_contexts(env, app, n, rng, chunk=1_000_000):
    """n contexts of p(x | app) by rejection, apart from the sampler's cell
    posterior and SNR law: SNR from N(SNR_DB_MEAN, SNR_DB_SIGMA) truncated to
    [SNR_DB_MIN, SNR_DB_MAX), m uniform on 1..PATHS_MAX, each candidate kept
    with probability p(app | x) from the policy."""
    a = phy_sim.PHY_APPS.index(app)
    snrs, paths = [], []
    while sum(map(len, snrs)) < n:
        snr = rng.normal(phy_sim.SNR_DB_MEAN, phy_sim.SNR_DB_SIGMA, chunk)
        m = rng.integers(1, phy_sim.PATHS_MAX + 1, chunk)
        inside = (snr >= phy_sim.SNR_DB_MIN) & (snr < phy_sim.SNR_DB_MAX)
        ctx = phy_sim.PhyContexts(snr_db=snr[inside], paths=m[inside])
        p_app = np.exp(env.policy.log_app_probabilities(ctx)[:, a])
        keep = rng.uniform(size=len(ctx)) < p_app
        snrs.append(ctx.snr_db[keep])
        paths.append(ctx.paths[keep])
    return phy_sim.PhyContexts(snr_db=np.concatenate(snrs)[:n], paths=np.concatenate(paths)[:n])


PHY_LAW_P_MIN = 1e-3  # per statistic: 6 in all, so under 0.6% false alarms


@pytest.mark.parametrize("app", ["multiplexing_qpsk", "alamouti_qpsk"])
def test_phy_exact_draw_follows_the_context_law_given_the_app(app):
    # the workload's two apps at T=1, where each is selected in under 1% of
    # contexts: the exact draw against rejection sampling of p(x | app), by
    # its (SNR bin, m) cell counts, its SNRs, and each SNR's place in its
    # bin, measured from the edge nearer the mean, where the normal law is
    # denser (a uniform draw within the bin fails only the last)
    env = PhyEnvironment(temperature=1.0)
    app = env.parse_app(app)
    n = 10_000
    a = phy_sim.PHY_APPS.index(app)
    got = env.sample_contexts_given_app(app, n, rng_for(31, a))
    want = rejection_phy_contexts(env, app, n, np.random.default_rng([32, a]))

    def cells(ctx):
        b = np.floor(ctx.snr_db - phy_sim.SNR_DB_MIN).astype(np.int64)
        return np.bincount(b * phy_sim.PATHS_MAX + ctx.paths - 1,
                           minlength=phy_sim.N_SNR_BINS * phy_sim.PATHS_MAX)

    table = np.stack([cells(got), cells(want)])
    # cells with fewer than 10 draws in both samples pooled into one column
    small = table.sum(axis=0) < 10
    pooled = [table[:, small].sum(axis=1, keepdims=True)] if small.any() else []
    table = np.hstack([table[:, ~small]] + pooled)
    p_cells = stats.chi2_contingency(table, correction=False).pvalue
    p_snr = stats.ks_2samp(got.snr_db, want.snr_db).pvalue

    def from_inner_edge(ctx):
        low = np.floor(ctx.snr_db)
        return np.where(low + 0.5 < phy_sim.SNR_DB_MEAN, low + 1.0 - ctx.snr_db, ctx.snr_db - low)

    p_in_bin = stats.ks_2samp(from_inner_edge(got), from_inner_edge(want)).pvalue
    assert min(p_cells, p_snr, p_in_bin) >= PHY_LAW_P_MIN, (p_cells, p_snr, p_in_bin)


SELECTION_BUILDERS = {
    "mac": lambda t: MacEnvironment(n_users=4, temperature=t),
    "phy": lambda t: PhyEnvironment(temperature=t),
    "synthetic": lambda t: SyntheticEnvironment(selection_temperature=t),
}


@pytest.mark.parametrize("name", sorted(SELECTION_BUILDERS))
def test_nan_selection_temperature_rejected_when_built(name):
    # NaN passed `temperature <= 0`: mac and synthetic then rejection-sampled
    # 50M candidates before a misleading "too rare", phy raised numpy's
    # "Probabilities contain NaN"
    with pytest.raises(ContractViolationError, match="temperature"):
        SELECTION_BUILDERS[name](math.nan)


@pytest.mark.parametrize("name", sorted(SELECTION_BUILDERS))
def test_infinite_selection_temperature_selects_uniformly(name):
    env = SELECTION_BUILDERS[name](math.inf)
    apps = ENVIRONMENTS[name][1]
    ctx = env.sample_contexts_given_app(apps[0], 20, rng_for(16, 1))
    assert np.array_equal(env.weight(ctx, apps[1], apps[0]), np.ones(20))


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_sampler_draws_nothing_for_no_rows_and_rejects_negative_counts(name):
    make, apps = ENVIRONMENTS[name]
    env = make()
    full = env.sample_contexts_given_app(apps[0], 3, rng_for(15, 1))
    rng = rng_for(15, 1)
    state = rng.bit_generator.state
    empty = env.sample_contexts_given_app(apps[0], 0, rng)
    assert type(empty) is type(full) and len(empty) == 0
    assert rng.bit_generator.state == state
    pairs = ([(empty, full)] if isinstance(full, np.ndarray)
             else [(vars(empty)[f], a) for f, a in vars(full).items()])
    for got, want in pairs:  # each array empty, of the dtype and row shape of a draw
        assert got.dtype == want.dtype and got.shape == (0,) + want.shape[1:]
    with pytest.raises(ContractViolationError, match="cannot draw -1 contexts"):
        env.sample_contexts_given_app(apps[0], -1, rng)
    assert rng.bit_generator.state == state


def test_conditional_sampler_matches_rejection_frequencies():
    env = SyntheticEnvironment()
    xs = np.array(env.sample_contexts_given_app("alt", 4000, rng_for(11, 1)))
    # under p(x|alt) the mean shifts positive: E[x | alt] = E[x sigma(x)] / P(alt)
    grid = np.linspace(-6, 6, 4001)
    density = stats.norm.pdf(grid) * (1.0 / (1.0 + np.exp(-grid)))
    density /= np.trapezoid(density, grid)
    expected_mean = np.trapezoid(grid * density, grid)
    assert abs(xs.mean() - expected_mean) < 0.05


def assert_same_table(a, b):
    assert np.array_equal(a.values, b.values)
    assert (a.n_mc, a.seed) == (b.n_mc, b.seed)


def test_phy_default_table_loads_shipped_copy(monkeypatch, tmp_path):
    def no_build(*args, **kwargs):
        raise AssertionError("the default SER table must be loaded, not built")

    monkeypatch.setattr(phy_sim.SerTable, "build", no_build)
    shipped = phy_sim.SerTable.default()
    assert shipped.values.shape == (len(phy_sim.PHY_APPS), 20, phy_sim.PATHS_MAX)
    assert (shipped.n_mc, shipped.seed) == (10_000, 20139)
    assert np.isfinite(shipped.values).all()
    assert_same_table(harness.build_environment(ExperimentConfig(environment="phy"))
                      .policy.ser_table, shipped)
    assert_same_table(harness.PhyEnvironment().policy.ser_table, shipped)
    path = tmp_path / "ser.csv"
    shipped.save(path)
    env = harness.build_environment(ExperimentConfig(environment="phy", ser_table_path=str(path)))
    assert_same_table(env.policy.ser_table, shipped)


PHY_DRAW = """
import sys
import ccke
from ccke import harness
env = harness.build_environment(harness.ExperimentConfig(environment="phy"))
env.sample_contexts_given_app(env.parse_app("multiplexing_qpsk"), 1, harness.rng_for(0, 0))
print("scipy.stats" in sys.modules)
"""


def test_phy_draw_does_not_import_scipy_stats():
    # scipy.stats costs most of a second to import; the phy path takes its
    # normal law from the standard library (phy_sim.SNR_LAW)
    out = subprocess.run([sys.executable, "-c", PHY_DRAW], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


PHY_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import ccke
from ccke import harness, phy_sim
cfg = harness.ExperimentConfig(environment="phy", actual_app="multiplexing_qpsk",
                               target_app="alamouti_qpsk", n_train=200, train_epochs=1,
                               n_trials=2)
env = harness.build_environment(cfg)
phy_sim.snr_bin_masses()
harness.run_experiment(cfg, env)
print(sorted(name for name, mod in sys.modules.items() if name.startswith("scipy") and mod))
"""


def test_phy_experiment_runs_without_scipy():
    out = subprocess.run([sys.executable, "-c", PHY_WITHOUT_SCIPY], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]"]


def test_synthetic_rollout_segments_equal_per_segment_calls():
    env = SyntheticEnvironment()
    ctx = np.random.default_rng(30).normal(size=31)
    sizes = (10, 0, 20, 1)
    segments = [(np.random.default_rng([30, i]), n) for i, n in enumerate(sizes)]
    got = env.rollout("alt", ctx, segments)
    edges = np.cumsum((0,) + sizes)
    for i, ((rng, _), a, b) in enumerate(zip(segments, edges[:-1], edges[1:])):
        alone = np.random.default_rng([30, i])
        assert got[a:b].tobytes() == env.rollout("alt", ctx[a:b], alone).tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state


# ---------------------------------------------------------------------------
# metrics


def coverage(lo, hi, q, truths):
    """``harness._coverage`` of one set: (n, K) bounds, (n,) corrections
    and (n, K) truths."""
    lo, hi, truths = (np.asarray(a, dtype=float) for a in (lo, hi, truths))
    return harness._coverage(harness._scores(lo, hi, truths)[None],
                             np.asarray(q, dtype=float)[None])[0]


def inefficiency(lo, hi, q, normalizers, domains=None):
    """``harness._inefficiency`` of one set: (n, K) bounds, (n,) corrections
    and normalizers and (n, 2) domains (default (0, 10)); returns
    ``(clipped, raw, n_unbounded)``."""
    if domains is None:
        domains = [(0.0, 10.0)] * len(q)
    arrays = [np.asarray(a, dtype=float)[None] for a in (lo, hi, q, normalizers, domains)]
    return tuple(v[0] for v in harness._inefficiency(*arrays))


def test_coverage_unbounded_and_empty():
    assert coverage([[0.0]] * 4, [[0.0]] * 4, [math.inf] * 4, [[1], [2], [3], [4]]) == 1.0
    # crossed: the empty set
    assert coverage([[5.0]] * 4, [[2.0]] * 4, [0.0] * 4, [[3.0]] * 4) == 0.0


def test_coverage_requires_all_kpis():
    truths = [[0.5, 5.0]] * 3  # second KPI always outside
    assert coverage([[0.0, 0.0]] * 3, [[1.0, 1.0]] * 3, [0.0] * 3, truths) == 0.0


def test_inefficiency_examples():
    assert inefficiency([[1.0]] * 2, [[1.0]] * 2, [0.0, 0.0], [1.0, 1.0])[0] == 0.0
    clipped, raw, n_unbounded = inefficiency([[0.0]], [[4.0]], [0.0], [2.0])
    assert clipped == 2.0 and raw == 2.0 and n_unbounded == 0
    halved = inefficiency([[0.0]], [[4.0]], [0.0], [4.0])
    assert halved[0] == pytest.approx(clipped / 2.0)


def test_inefficiency_unbounded_handling():
    clipped, raw, n_unbounded = inefficiency([[0.0], [0.0]], [[4.0], [0.0]], [0.0, math.inf],
                                             [1.0, 1.0], domains=[(0, 10), (0, 10)])
    assert n_unbounded == 1
    assert raw == 4.0            # bounded sets only
    assert clipped == pytest.approx((4.0 + 10.0) / 2.0)
    with pytest.raises(ContractViolationError):
        inefficiency([[0.0]], [[0.0]], [math.inf], [1.0], domains=[(10, 0)])  # empty domain


def test_inefficiency_rejects_nonpositive_normalizer():
    with pytest.raises(ContractViolationError):
        inefficiency([[0.0]], [[1.0]], [0.0], [0.0])


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_inefficiency_rejects_nonfinite_normalizer(eps):
    with pytest.raises(ContractViolationError):
        inefficiency([[0.0]], [[1.0]], [0.0], [eps])


def test_coverage_rejects_empty():
    with pytest.raises(ContractViolationError):
        coverage(np.zeros((0, 1)), np.zeros((0, 1)), [], np.zeros((0, 1)))


def test_inefficiency_rejects_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError):
            inefficiency(np.zeros((0, 1)), np.zeros((0, 1)), [], [], np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# experiment execution


def test_methods_filter():
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=30, n_test=2, n_trials=5, base_seed=1, methods=("CKE",))
    rep = run_experiment(cfg)
    assert {t.method for t in rep.trials} == {"CKE"}
    assert len(rep.trials) == 5


@pytest.mark.parametrize("accessor", ["trials_for", "mean_coverage", "mean_inefficiency"])
def test_report_rejects_a_method_it_did_not_run(accessor):
    # this read NaN, with numpy's "Mean of empty slice" warning
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=30, n_test=2, n_trials=2, base_seed=1, methods=("CKE",))
    rep = run_experiment(cfg)
    with pytest.raises(ContractViolationError, match=r"'CCKE'.*\('CKE',\)"):
        getattr(rep, accessor)("CCKE")


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_noise_spec_rejects_non_finite_sigma(sigma):
    # these failed only after the draws or the training rollouts
    with pytest.raises(ContractViolationError, match=r"^kpi_noise: 0 <= sigma < inf required"):
        ExperimentConfig(kpi_noise=sigma)


def test_config_validation():
    with pytest.raises(ContractViolationError):
        ExperimentConfig(alpha=0.005, n_cal=50)  # below 1/(n_cal+1)
    for methods in (("CCKE", "XYZ"), (), ("CCKE", "CCKE")):
        with pytest.raises(ContractViolationError, match="method"):
            ExperimentConfig(methods=methods)
    with pytest.raises(ContractViolationError):
        ExperimentConfig(n_trials=0)


@pytest.mark.parametrize("field,value", [("train_batch", 0), ("train_epochs", -1)])
def test_config_rejects_bad_training_fields_when_built(field, value):
    # these failed only inside run_experiment, after the training rollouts
    with pytest.raises(ContractViolationError):
        ExperimentConfig(**{field: value})


INTEGER_FIELDS = {ExperimentConfig: ("n_train", "n_cal", "n_test", "n_trials", "n_users",
                                     "train_epochs", "train_batch", "base_seed"),
                  quantile_net.TrainConfig: ("epochs", "batch_size", "seed")}


@pytest.mark.parametrize("cls,field,value", [(cls, field, value)
                                             for cls, names in INTEGER_FIELDS.items()
                                             for field in names for value in (1.5, 64.0, True)])
def test_configs_reject_non_integer_counts_and_seeds(cls, field, value):
    # a float count failed only after the training rollouts, and a float
    # seed ran as its integer part; a bool is no count either
    with pytest.raises(ContractViolationError, match=f"^{field} must be an integer"):
        cls(**{field: value})
    default = getattr(cls(), field)
    assert getattr(cls(**{field: np.int64(default)}), field) == default  # numpy integers pass


@pytest.mark.parametrize("cls,field", [(ExperimentConfig, "base_seed"),
                                       (quantile_net.TrainConfig, "seed")])
def test_configs_reject_negative_seeds(cls, field):
    # a negative seed constructed and then failed inside the run, with
    # numpy's message, which names no field
    with pytest.raises(ContractViolationError, match=f"^{field} must be >= 0, got -1$"):
        cls(**{field: -1})
    assert getattr(cls(**{field: 0}), field) == 0


def test_experiment_makes_no_full_data_loss_pass(monkeypatch):
    # training records its initial loss from the first step's minibatch:
    # its forward passes cover the one epoch's 300 rows once, in batches
    rows, forward = [], quantile_net._Workspace._forward

    def recording(ws, x, v):
        if ws.grad is not None:
            rows.append(x.shape[0])
        return forward(ws, x, v)

    monkeypatch.setattr(quantile_net._Workspace, "_forward", recording)
    cfg = ExperimentConfig(environment="mac", n_users=4, n_train=300, n_cal=20, n_test=5,
                           n_trials=2, train_epochs=1, base_seed=24)
    assert len(run_experiment(cfg).trials) == 2 * len(cfg.methods)
    assert max(rows) <= cfg.train_batch and sum(rows) == cfg.n_train


def test_experiment_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=40, n_test=3, n_trials=8, base_seed=21)
    paths = []
    for name in ("a", "b"):
        rep = run_experiment(cfg)
        paths.append(emit_report(rep, tmp_path / name))
    assert (tmp_path / "a" / "trials.csv").read_bytes() == \
           (tmp_path / "b" / "trials.csv").read_bytes()
    assert (tmp_path / "a" / "aggregate.csv").read_bytes() == \
           (tmp_path / "b" / "aggregate.csv").read_bytes()


def test_progress_reports_trial_rate(tmp_path, capsys):
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=30, n_test=2, n_trials=50, base_seed=21)
    emit_report(run_experiment(cfg), tmp_path / "quiet")
    assert capsys.readouterr().out == ""
    emit_report(run_experiment(cfg, progress=True), tmp_path / "progress")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("(")[0] for line in lines] == ["  trial 25/50 ", "  trial 50/50 "]
    for line in lines:
        assert re.fullmatch(r"  trial \d+/50 \(\d+\.\d trials/s\)", line), line
    for name in ("trials.csv", "aggregate.csv"):
        assert (tmp_path / "quiet" / name).read_bytes() == \
               (tmp_path / "progress" / name).read_bytes()


def test_report_times_its_stages():
    cfg = ExperimentConfig(environment="mac", n_users=3, n_train=60, n_cal=20, n_test=5,
                           n_trials=harness.TRIAL_BLOCK + 1, train_epochs=1, base_seed=21)
    rep = run_experiment(cfg)
    assert tuple(rep.stage_seconds) == harness.STAGES
    assert all(seconds > 0.0 for seconds in rep.stage_seconds.values())
    exact = run_experiment(ExperimentConfig(environment="synthetic", actual_app="alt",
                                            target_app="base", n_trials=3))
    assert exact.stage_seconds["train"] < exact.stage_seconds["draw"]  # nothing to train


# ---------------------------------------------------------------------------
# trial draws in a forked child while the model trains

OVERLAP_CASES = {
    "phy": dict(environment="phy", actual_app="multiplexing_qpsk",
                target_app="alamouti_qpsk", n_train=200),
    "mac": dict(environment="mac", n_users=3, n_train=60, weight_perturbation=0.1,
                kpi_noise=0.5),
}


def overlap_config(name, n_trials=2 * harness.TRIAL_BLOCK + 1):
    """By default three trial blocks: a child draws the first two, the
    parent the last."""
    return ExperimentConfig(**OVERLAP_CASES[name], n_cal=20, n_test=5, n_trials=n_trials,
                            train_epochs=1, base_seed=23)


@pytest.fixture
def forks(monkeypatch):
    """The number of blocks of each child run_experiment forks, with two
    CPUs in the affinity mask whatever the box has.  After the test no
    child is left, live or zombie, and no descriptor is left open."""
    if not _fork.LINUX:
        pytest.skip("run_experiment forks on Linux only")
    assert threading.active_count() == 1  # else run_experiment would never fork
    fds = set(os.listdir("/proc/self/fd"))
    made = []

    class Counting(harness._ForkedDraws):
        def __init__(self, draw, blocks):
            made.append(len(blocks))
            super().__init__(draw, blocks)

    monkeypatch.setattr(harness, "_ForkedDraws", Counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/proc/self/fd")) == fds


def in_child_only(monkeypatch, action):
    """Make phy rollouts run ``action()`` first in any process but this one."""
    parent, rollout = os.getpid(), harness.PhyEnvironment.rollout

    def child_rollout(self, app, ctx, rng):
        if os.getpid() != parent:
            action()
        return rollout(self, app, ctx, rng)

    monkeypatch.setattr(harness.PhyEnvironment, "rollout", child_rollout)


def inline_bytes(cfg, monkeypatch, out_dir):
    """``trials.csv`` and ``aggregate.csv`` of ``cfg`` with every block
    drawn, and the model trained, in this process, as off Linux."""
    with monkeypatch.context() as m:
        m.setattr(_fork, "LINUX", False)
        emit_report(run_experiment(cfg), out_dir)
    return [(out_dir / name).read_bytes() for name in ("trials.csv", "aggregate.csv")]


@pytest.mark.parametrize("name", sorted(OVERLAP_CASES))
def test_overlap_forked_draws_give_the_same_bytes(name, forks, monkeypatch, tmp_path):
    cfg = overlap_config(name)
    emit_report(run_experiment(cfg), tmp_path / "forked")
    forked = [(tmp_path / "forked" / n).read_bytes() for n in ("trials.csv", "aggregate.csv")]
    assert forked == inline_bytes(cfg, monkeypatch, tmp_path / "inline")
    assert forks == [2]


def record_draws(monkeypatch, log):
    """Make ``_draw_block`` log the pid that draws each block, and the
    block's first and last-plus-one trial, to the file ``log``."""
    draw_block = harness._draw_block

    def recording(env, cfg, target, actual, block):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {block.start} {block.stop}\n")
        return draw_block(env, cfg, target, actual, block)

    monkeypatch.setattr(harness, "_draw_block", recording)


def test_overlap_child_draws_every_block_but_the_last(forks, monkeypatch, tmp_path):
    log, parent = tmp_path / "draws.log", os.getpid()
    record_draws(monkeypatch, log)
    run_experiment(overlap_config("phy"))
    assert forks == [2]
    draws = [[int(v) for v in line.split()] for line in log.read_text().splitlines()]
    assert len({pid for pid, _, _ in draws if pid != parent}) == 1
    assert [range(a, b) for pid, a, b in draws if pid != parent] == [range(0, 25),
                                                                     range(25, 50)]
    assert [range(a, b) for pid, a, b in draws if pid == parent] == [range(50, 51)]


@pytest.mark.parametrize("name", sorted(OVERLAP_CASES))
def test_overlap_child_draws_a_lone_block(name, forks, monkeypatch, tmp_path):
    # one block of 10 trials: the child draws it while the model trains,
    # and the parent draws nothing
    cfg, log, parent = overlap_config(name, n_trials=10), tmp_path / "draws.log", os.getpid()
    expected = inline_bytes(cfg, monkeypatch, tmp_path / "inline")
    record_draws(monkeypatch, log)
    emit_report(run_experiment(cfg), tmp_path / "forked")
    assert forks == [1]
    draws = [[int(v) for v in line.split()] for line in log.read_text().splitlines()]
    assert len(draws) == 1 and draws[0][0] != parent
    assert range(*draws[0][1:]) == range(0, 10)
    assert [(tmp_path / "forked" / n).read_bytes()
            for n in ("trials.csv", "aggregate.csv")] == expected


def _refuse_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("case", ["fork fails", "one CPU", "another thread"])
def test_overlap_draws_inline_when_it_cannot_or_should_not_fork(case, forks, monkeypatch,
                                                                 tmp_path):
    cfg = overlap_config("mac")
    expected = inline_bytes(cfg, monkeypatch, tmp_path / "inline")
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if case == "fork fails":
        monkeypatch.setattr(os, "fork", _refuse_fork)
    elif case == "one CPU":  # the child would only compete with training
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:  # a child forked beside it could inherit a lock it holds
        other.start()
    try:
        emit_report(run_experiment(cfg), tmp_path / "run")
    finally:
        release.set()
        if other.is_alive():
            other.join()
    assert forks == ([2] if case == "fork fails" else [])  # tried, then drew inline
    assert [(tmp_path / "run" / n).read_bytes()
            for n in ("trials.csv", "aggregate.csv")] == expected


@pytest.mark.parametrize("picklable", [True, False])
def test_overlap_child_failure_raises_with_its_traceback(picklable, forks, monkeypatch):
    class LocalError(Exception):  # pickles by a name no process can import
        pass

    error = FloatingPointError if picklable else LocalError

    def fail():
        raise error("rollout failed in the child")

    in_child_only(monkeypatch, fail)
    with pytest.raises(FloatingPointError if picklable else RuntimeError,
                       match="rollout failed in the child") as info:
        run_experiment(overlap_config("phy"))
    assert forks == [2]
    child_traceback = str(info.value.__cause__)
    assert "in fail" in child_traceback and "in _draw_block" in child_traceback


@pytest.mark.parametrize("stage", ["_train_model", "_draw_block"])
def test_overlap_parent_failure_kills_and_reaps_the_child(stage, forks, monkeypatch):
    # the parent fails in training, or in its draw of the last block: the
    # two stages it runs while the child draws
    parent, original = os.getpid(), getattr(harness, stage)

    def fail(*args, **kwargs):
        if os.getpid() != parent:
            return original(*args, **kwargs)
        raise ArithmeticError("the parent failed")

    in_child_only(monkeypatch, lambda: time.sleep(60.0))
    monkeypatch.setattr(harness, stage, fail)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="the parent failed"):
        run_experiment(overlap_config("phy"))
    assert forks == [2]
    assert time.perf_counter() - start < 30.0  # killed, not waited for


def test_overlap_progress_prints_each_line_once(capfd, forks):
    # stdout is block-buffered, as when it goes to a file or a pipe, and the
    # child flushes it before it leaves: the parent must flush its buffered
    # lines before the fork, or the child writes them again to fd 1, which
    # capsys would not see.  The parent prints the child's blocks' lines
    # when it reads them, in order
    with open(os.dup(1), "w") as stdout, contextlib.redirect_stdout(stdout):
        print("before the run")
        run_experiment(overlap_config("mac"), progress=True)
    lines = capfd.readouterr().out.splitlines()
    assert forks == [2]
    assert [line.split("(")[0] for line in lines] == \
           ["before the run", "  trial 25/51 ", "  trial 50/51 "]


def test_worker_trains_mac_k16_to_the_same_bytes(forked_pids, monkeypatch, tmp_path):
    # two forks: the draw child, which draws the one trial block, and
    # training's worker
    cfg = ExperimentConfig(environment="mac", n_users=16, n_train=150, n_cal=20, n_test=5,
                           n_trials=2, train_epochs=1, base_seed=25)
    emit_report(run_experiment(cfg), tmp_path / "forked")
    forked = [(tmp_path / "forked" / n).read_bytes() for n in ("trials.csv", "aggregate.csv")]
    assert len(forked_pids) == 2
    assert forked == inline_bytes(cfg, monkeypatch, tmp_path / "inline")


def test_noise_generators_made_only_when_drawn_from(monkeypatch):
    made, rng_for_ = [], harness.rng_for

    def recording(base_seed, stream, index=0):
        made.append(stream)
        return rng_for_(base_seed, stream, index)

    monkeypatch.setattr(harness, "rng_for", recording)
    monkeypatch.setattr(_fork, "LINUX", False)  # a forked child would make the trials' own
    base = dict(environment="mac", n_users=3, n_train=60, n_cal=20, n_test=5, n_trials=3,
                train_epochs=1, base_seed=22)
    # no noise: none; KPI noise: training's and one per trial; weight
    # perturbation alone: one per trial
    for extra, count in (({}, 0), ({"kpi_noise": 0.5}, 4),
                         ({"weight_perturbation": 0.1}, 3)):
        made.clear()
        run_experiment(ExperimentConfig(**base, **extra))
        assert made.count(harness._STREAM_TRIAL_NOISE) == count, extra


def test_synthetic_exact_weights_cover():
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           alpha=0.2, n_cal=50, n_test=1, n_trials=400, base_seed=2)
    rep = run_experiment(cfg)
    assert rep.mean_coverage("CCKE") >= 0.8 - 3.0 * math.sqrt(0.16 / 400)


def test_method_ordering_ccke_contains_cke():
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=50, n_test=10, n_trials=40, base_seed=3)
    rep = run_experiment(cfg)
    ccke = {t.trial: t for t in rep.trials_for("CCKE")}
    cke = {t.trial: t for t in rep.trials_for("CKE")}
    for trial, t in ccke.items():
        if np.all(t.corrections >= 0.0):
            assert t.inefficiency_clipped >= cke[trial].inefficiency_clipped - 1e-12


def test_weight_perturbation_is_measured():
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=40, n_test=1, n_trials=60, base_seed=4,
                           weight_perturbation=0.3, methods=("CCKE",))
    rep = run_experiment(cfg)
    assert rep.weight_error_mean is not None and rep.weight_error_mean > 0.0


def test_kpi_noise_lemma_bound_quick():
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           alpha=0.2, n_cal=50, n_test=1, n_trials=300, base_seed=5,
                           kpi_noise=1.0, methods=("CCKE",))
    rep = run_experiment(cfg)
    bound = 1.0 - 2.0 * 0.2 - 3.0 * math.sqrt(0.24 / 300)
    assert rep.mean_coverage("CCKE") >= bound


def test_nccke_approaches_ccke_at_large_temperature():
    # corrections computed under a fixed seeded model; at T = 1e4 the
    # density-ratio weights are ~1 so both calibrations nearly coincide
    cfg = ExperimentConfig(environment="mac", n_users=4, temperature=1e4,
                           n_train=80, n_cal=50, n_test=4, n_trials=200,
                           train_epochs=0, base_seed=6, methods=("CCKE", "NCCKE"))
    rep = run_experiment(cfg)
    ccke = {t.trial: t.corrections for t in rep.trials_for("CCKE")}
    nccke = {t.trial: t.corrections for t in rep.trials_for("NCCKE")}
    diffs, spreads = [], []
    for trial in ccke:
        a, b = ccke[trial], nccke[trial]
        finite = np.isfinite(a) & np.isfinite(b)
        if finite.any():
            diffs.append(np.median(np.abs(a[finite] - b[finite])))
        spreads.extend(a[finite])
    iqr = np.subtract(*np.percentile(spreads, [75, 25]))
    assert np.median(diffs) <= max(0.01 * abs(iqr), 1e-9)


# ---------------------------------------------------------------------------
# reference: the per-point trial path
#
# run_experiment computes each trial as array operations on batches of
# contexts.  The functions below are the per-point path it replaced: they
# call the environment once per context and share no quantile,
# weight-normalization or metric code with the library, and the tests
# require equal bytes.


def reference_quantile(scores, probs, alpha):
    """The weighted quantile of one point-mass vector: sort, cumsum,
    searchsorted."""
    n = scores.size
    threshold = (1.0 - alpha) * (n + 1) / n
    order = np.argsort(scores, kind="stable")
    cum = np.cumsum(probs[order])
    idx = int(np.searchsorted(cum, threshold, side="left"))
    return math.inf if idx >= n else float(scores[order][idx])


def reference_ccke_correction(scores, w_cal, w_test, alpha):
    """The weighted quantile of one test weight's score distribution."""
    denom = float(w_cal.sum()) + w_test
    return reference_quantile(scores, w_cal / denom, alpha)


def reference_score(lo, hi, y):
    """The worst-case signed interval violation of one KPI vector."""
    return float(np.max(np.maximum(lo - y, y - hi)))


def reference_coverage(bounds, corrections, truths):
    """Share of test points whose set, the (lo, hi) bounds widened by the
    correction, holds every KPI: unbounded, or score within the correction."""
    covered = [math.isinf(q) or reference_score(lo, hi, y) <= q
               for (lo, hi), q, y in zip(bounds, corrections, truths)]
    return sum(covered) / len(covered)


def reference_inefficiency(bounds, corrections, normalizers, domains):
    raw_terms, clipped_terms, n_unbounded = [], [], 0
    for (lo, hi), q, eps, (d_lo, d_hi) in zip(bounds, corrections, normalizers, domains):
        if math.isinf(q):
            n_unbounded += 1
            clipped_terms.append(float(np.mean(np.full(lo.size, d_hi - d_lo))) / eps)
        else:
            term = float(np.mean(np.maximum((hi + q) - (lo - q), 0.0))) / eps
            raw_terms.append(term)
            clipped_terms.append(term)
    raw = float(np.mean(raw_terms)) if raw_terms else math.inf
    return float(np.mean(clipped_terms)), raw, n_unbounded


def reference_rollouts(env, app, contexts, rng):
    """Each context's KPI row: one rollout per context, except on phy, whose
    batch draws round-major (``phy_sim.arq_latencies``), not row by row."""
    if isinstance(env, PhyEnvironment):
        return list(env.rollout(app, contexts, rng))
    return [env.rollout(app, row, rng)[0] for row in rows_of(contexts)]


def reference_draw_labeled(env, app, n, rng, sigma, noise_rng):
    """One batch of contexts, then their rollouts, then one noise draw of
    standard deviation ``sigma`` per context."""
    contexts = env.sample_contexts_given_app(app, n, rng)
    kpis = reference_rollouts(env, app, contexts, rng)
    if sigma is not None:
        kpis = [k + noise_rng.normal(0.0, sigma, size=k.shape) for k in kpis]
    return contexts, kpis


def reference_run(cfg):
    """run_experiment with the per-point trial body: one rollout, weight,
    interval, correction and metric input per context.  Returns
    ``(trials, weight_error_mean)`` with trials as
    ``(method, trial, coverage, raw, clipped, n_unbounded, corrections)``."""
    env = harness.build_environment(cfg)
    target, actual = env.parse_app(cfg.target_app), env.parse_app(cfg.actual_app)
    if not env.has_exact_model:
        contexts, kpis = reference_draw_labeled(
            env, target, cfg.n_train, rng_for(cfg.base_seed, harness._STREAM_TRAIN_DATA),
            cfg.kpi_noise, rng_for(cfg.base_seed, harness._STREAM_TRIAL_NOISE))
        model = harness._train_model(env, cfg, contexts, np.stack(kpis), seed=cfg.base_seed)

    def intervals_for_batch(contexts):
        """Each context's (lo, hi) bounds, as two (K,) arrays."""
        if env.has_exact_model:
            spread = (1.0 - cfg.alpha) * env.HALF_WIDTH
            mids = [env.OFFSETS[target] + float(c) for c in contexts]
            return [(np.array([m - spread]), np.array([m + spread])) for m in mids]
        lo, hi = model.predict(np.concatenate([env.features(r) for r in rows_of(contexts)]))
        return [(lo[i], hi[i]) for i in range(len(contexts))]

    trials, weight_errors = [], []
    for t in range(cfg.n_trials):
        rng_cal = rng_for(cfg.base_seed, harness._STREAM_TRIAL_CAL, t)
        rng_test = rng_for(cfg.base_seed, harness._STREAM_TRIAL_TEST, t)
        rng_noise = rng_for(cfg.base_seed, harness._STREAM_TRIAL_NOISE, t + 1)
        cal_ctx, cal_kpi = reference_draw_labeled(env, target, cfg.n_cal, rng_cal,
                                                  cfg.kpi_noise, rng_noise)
        scores = np.array([reference_score(lo, hi, y)
                           for (lo, hi), y in zip(intervals_for_batch(cal_ctx), cal_kpi)])
        test_ctx = env.sample_contexts_given_app(actual, cfg.n_test, rng_test)
        test_rows = rows_of(test_ctx)
        truths = reference_rollouts(env, target, test_ctx, rng_test)
        test_intervals = intervals_for_batch(test_ctx)

        # calibration points first, then test points
        w_exact = [float(env.weight(r, actual, target)[0])
                   for r in rows_of(cal_ctx) + test_rows]
        if cfg.weight_perturbation is not None:
            delta = cfg.weight_perturbation
            w_used = [w * (1.0 + rng_noise.uniform(-delta, delta)) for w in w_exact]
            weight_errors.extend(abs(u - w) for u, w in zip(w_used[:cfg.n_cal], w_exact))
        else:
            w_used = w_exact
        w_cal = np.array(w_used[:cfg.n_cal], dtype=float)

        normalizers = [float(env.normalizers(r)[0]) for r in test_rows]
        domains = [tuple(env.domains(r)[0]) for r in test_rows]
        for method in cfg.methods:
            corrections = []
            for i in range(len(test_rows)):
                if method == "CCKE":
                    q = reference_ccke_correction(scores, w_cal, w_used[cfg.n_cal + i],
                                                  cfg.alpha)
                elif method == "NCCKE":
                    q = reference_quantile(scores, np.full(scores.size, 1.0 / (scores.size + 1)),
                                           cfg.alpha)
                else:
                    q = 0.0
                corrections.append(q)
            clipped, raw, n_unbounded = reference_inefficiency(test_intervals, corrections,
                                                               normalizers, domains)
            trials.append((method, t, reference_coverage(test_intervals, corrections, truths),
                           raw, clipped, n_unbounded, np.array(corrections)))
    return trials, (float(np.mean(weight_errors)) if weight_errors else None)


_SYNTHETIC = dict(environment="synthetic", actual_app="base", target_app="alt", n_trials=12)
REFERENCE_CASES = {
    "synthetic": _SYNTHETIC,
    "perturbed-weights": dict(_SYNTHETIC, weight_perturbation=0.3),
    "kpi-noise": dict(_SYNTHETIC, kpi_noise=1.0),
    # 1/8 masses hit the level (1 - 15/64) * 8 / 7 = 7/8 exactly: a threshold tie
    "unbounded": dict(_SYNTHETIC, n_cal=7, alpha=15 / 64, n_test=40),
    "mac-k3": dict(environment="mac", n_users=3, n_train=60, n_cal=20, n_test=10,
                   n_trials=4, train_epochs=0),
    "mac-pfca-noisy": dict(environment="mac", n_users=3, actual_app="RR", target_app="PFCA",
                           n_train=60, n_cal=20, n_test=10, n_trials=3, train_epochs=1,
                           kpi_noise=2.0, weight_perturbation=0.2),
    "phy": dict(environment="phy", actual_app="multiplexing_qpsk", target_app="alamouti_qpsk",
                n_train=60, n_cal=20, n_test=10, n_trials=3, train_epochs=1,
                kpi_noise=0.5),
    "cke-only": dict(_SYNTHETIC, n_trials=4, methods=("CKE",)),
    "nccke-ccke": dict(_SYNTHETIC, n_trials=4, methods=("NCCKE", "CCKE")),
    # at K=1 a 1-row prediction takes BLAS gemv, which rounds differently
    # from a longer pass: a trial's 1-point set must still be predicted alone
    "mac-k1-one-test-point": dict(environment="mac", n_users=1, n_train=60, n_cal=20,
                                  n_test=1, n_trials=4, train_epochs=1),
    # alpha=0.5, the smallest feasible at n_cal=1, sets the level to 1, so
    # every calibrated set is unbounded; at 0.9 the one score is the correction
    "mac-k1-one-cal-point": dict(environment="mac", n_users=1, n_train=60, n_cal=1,
                                 alpha=0.5, n_test=10, n_trials=4, train_epochs=1),
    "mac-k1-one-cal-point-finite": dict(environment="mac", n_users=1, n_train=60, n_cal=1,
                                        alpha=0.9, n_test=10, n_trials=12, train_epochs=1),
    # several trial blocks, the last one partial
    "synthetic-trial-blocks": dict(_SYNTHETIC, n_cal=20, n_test=10,
                                   n_trials=2 * harness.TRIAL_BLOCK + 3),
    # a block's pooled ARQ rows (5 trials x 30) cross a decode chunk
    "phy-pooled-chunks": dict(environment="phy", actual_app="multiplexing_qpsk",
                              target_app="alamouti_qpsk", n_train=60, n_cal=20, n_test=10,
                              n_trials=5, train_epochs=1),
}
assert 5 * 30 * (phy_sim.ArqConfig().symbols_per_packet // 2) > phy_sim.DECODE_CHUNK_BLOCKS


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_run_experiment_matches_per_point_reference(case):
    cfg = ExperimentConfig(**REFERENCE_CASES[case])
    rep = run_experiment(cfg)
    want, want_error = reference_run(cfg)
    assert len(rep.trials) == len(want) == cfg.n_trials * len(cfg.methods)
    for got, (method, t, cov, raw, clipped, n_unbounded, corrections) in zip(rep.trials, want):
        assert (got.method, got.trial) == (method, t)
        assert repr(got.coverage) == repr(cov)
        assert repr(got.inefficiency_raw) == repr(raw)
        assert repr(got.inefficiency_clipped) == repr(clipped)
        assert got.n_unbounded == n_unbounded
        assert got.corrections.dtype == corrections.dtype
        assert got.corrections.tobytes() == corrections.tobytes()
    assert repr(rep.weight_error_mean) == repr(want_error)
    if case == "unbounded":
        ccke = np.concatenate([t.corrections for t in rep.trials_for("CCKE")])
        assert sum(t.n_unbounded for t in rep.trials) > 0 and np.isfinite(ccke).any()
        # the tie resolves to the largest score, never to the atom at +inf
        assert all(t.n_unbounded == 0 for t in rep.trials_for("NCCKE"))


def _alpha_for_threshold(target, n):
    """An alpha whose level (1 - alpha) * (n + 1) / n is exactly ``target``."""
    alpha = 1.0 - target * n / (n + 1)
    for _ in range(64):
        level = (1.0 - alpha) * (n + 1) / n
        if level == target:
            return alpha if 1.0 / (n + 1) <= alpha < 1.0 else None
        alpha = np.nextafter(alpha, 2.0 if level > target else -1.0)
    return None


def test_weighted_corrections_match_reference_at_threshold_ties():
    # Where a cumulative mass equals the level exactly, the last bit of
    # every mass decides the correction: this pins the rounding of the
    # calibration-order weight sum and the searchsorted side.
    rng = np.random.default_rng(31)
    ties = 0
    for _ in range(400):
        n = int(rng.integers(2, 40))
        scores = rng.normal(size=n)
        w_cal = rng.lognormal(sigma=2.0, size=n)
        w_cal[rng.uniform(size=n) < 0.1] = 0.0
        w_test = rng.lognormal(sigma=2.0, size=5)
        order = np.argsort(scores, kind="stable")
        cum = np.cumsum((w_cal / (float(w_cal.sum()) + w_test[0]))[order])
        alpha = _alpha_for_threshold(float(cum[rng.integers(0, n)]), n)
        if alpha is None:
            continue
        ties += 1
        got = weighted_corrections(scores, w_cal, w_test, alpha)
        want = [reference_ccke_correction(scores, w_cal, float(w), alpha) for w in w_test]
        assert got.tobytes() == np.array(want).tobytes()
    assert ties >= 100


# ---------------------------------------------------------------------------
# reporting


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=30, n_test=5, n_trials=25, base_seed=8)
    return run_experiment(cfg)


def reference_trials_csv(report, path):
    """``trials.csv`` as written with ``csv.DictWriter``, one dict per row."""
    cfg = report.config
    k = cfg.n_users if cfg.environment == "mac" else 1
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, TRIAL_COLUMNS)
        writer.writeheader()
        writer.writerows(dict(zip(TRIAL_COLUMNS, (
            cfg.environment, t.method, float(cfg.temperature), k, float(cfg.alpha), t.trial,
            float(t.coverage), float(t.inefficiency_raw), float(t.inefficiency_clipped),
            t.n_unbounded, t.seed))) for t in report.trials)


def test_trials_csv_matches_dictwriter_reference_bytes(tmp_path):
    cfg = ExperimentConfig(environment="mac", n_users=4, temperature=0.5, alpha=0.1,
                           n_cal=30, methods=("CCKE", "CKE"), base_seed=3)
    # (coverage, raw, clipped, unbounded): an unbounded set's inf, -0.0, a
    # subnormal, NaN coverage and a numpy float
    values = [(np.float64(0.7), math.inf, 2.5, 3), (-0.0, 0.0, -0.0, 0),
              (5e-324, 1e-310, 2.2250738585072014e-308 / 3, 0), (math.nan, 1e300, 0.1, 7)]
    trials = tuple(TrialResult(method=method, trial=i, coverage=c, inefficiency_raw=raw,
                               inefficiency_clipped=clipped, n_unbounded=u, seed=3)
                   for i, (c, raw, clipped, u) in enumerate(values) for method in cfg.methods)
    report = ExperimentReport(config=cfg, trials=trials)
    trials_path, agg_path = emit_report(report, tmp_path / "out")
    reference_trials_csv(report, tmp_path / "want.csv")
    assert (tmp_path / "out" / "trials.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    # the aggregate of the rows read back is the emitted one, byte for byte
    write_aggregate(read_trial_rows(trials_path), tmp_path / "agg.csv")
    assert (tmp_path / "agg.csv").read_bytes() == (tmp_path / "out" / "aggregate.csv").read_bytes()


def test_report_roundtrip_bit_exact(small_report, tmp_path):
    trials_path, _ = emit_report(small_report, tmp_path)
    rows = read_trial_rows(trials_path)
    by_key = {(r["method"], r["trial"]): r for r in rows}
    for t in small_report.trials:
        r = by_key[(t.method, t.trial)]
        assert r["coverage"] == t.coverage
        assert r["inefficiency_raw"] == t.inefficiency_raw
        assert r["inefficiency_clipped"] == t.inefficiency_clipped
        assert r["n_unbounded"] == t.n_unbounded and r["seed"] == t.seed


def test_report_writes_the_temperature_the_environment_ran_at(tmp_path):
    # synthetic's policy reads selection_temperature; T read 1.0 for both, and
    # `ccke report` merged the two sweeps into one group
    rows = []
    for t in (0.3, 3.0):
        cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                               n_cal=30, n_test=2, n_trials=2, selection_temperature=t)
        trials_path, _ = emit_report(run_experiment(cfg), tmp_path / str(t))
        rows += read_trial_rows(trials_path)
    assert sorted({r["T"] for r in rows}) == [0.3, 3.0]
    assert len(aggregate_rows(rows)) == 2 * 3 * 3  # temperatures x methods x metrics
    mac = ExperimentConfig(environment="mac", n_users=3, temperature=0.5, n_train=60,
                           n_cal=20, n_test=5, n_trials=1, train_epochs=1,
                           selection_temperature=3.0)
    trials_path, _ = emit_report(run_experiment(mac), tmp_path / "mac")
    assert {r["T"] for r in read_trial_rows(trials_path)} == {0.5}


def test_aggregate_median_matches_oracle(small_report, tmp_path):
    trials_path, agg_path = emit_report(small_report, tmp_path)
    rows = read_trial_rows(trials_path)
    with open(agg_path, newline="") as fh:
        agg = list(csv.DictReader(fh))
    for record in agg:
        if record["metric"] != "coverage":
            continue
        vals = [r["coverage"] for r in rows if r["method"] == record["method"]]
        assert float(record["median"]) == float(np.median(vals))
        assert float(record["mean"]) == float(np.mean(vals))


def test_aggregate_whiskers_within_tukey_fences(small_report, tmp_path):
    _, agg_path = emit_report(small_report, tmp_path)
    with open(agg_path, newline="") as fh:
        agg = list(csv.DictReader(fh))
    assert len(agg) == 3 * 3  # three methods x three metrics
    for record in agg:
        q1, q3, lo, hi, median = (float(record[k]) for k in
                                  ("q1", "q3", "whisker_lo", "whisker_hi", "median"))
        if not math.isfinite(median):
            continue
        iqr = q3 - q1
        assert lo >= q1 - 1.5 * iqr - 1e-12
        assert hi <= q3 + 1.5 * iqr + 1e-12
        assert lo <= q1 and hi >= q3


def test_aggregate_rows_from_files(small_report, tmp_path):
    trials_path, _ = emit_report(small_report, tmp_path)
    rows = read_trial_rows(trials_path)
    agg = aggregate_rows(rows)
    assert len(agg) == 3 * 3  # three methods x three metrics
    assert all(len(r) == 13 for r in agg)


def test_read_rejects_wrong_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ContractViolationError):
        read_trial_rows(bad)


# ---------------------------------------------------------------------------
# cli


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ccke.cli", *args],
                          capture_output=True, text=True)


def test_cli_run_and_report(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "environment = synthetic\n"
        "actual_app = alt\n"
        "target_app = base\n"
        "n_cal = 30\n"
        "n_test = 2\n"
        "n_trials = 4\n"
        "base_seed = 9\n"
        "# comment lines are fine\n")
    out = run_cli("run", "--config", str(cfgfile), "--set", "n_trials=6",
                  "--out-dir", str(tmp_path / "rep"))
    assert out.returncode == 0, out.stderr
    assert re.search(r"^stage seconds: train \d+\.\d{3}, draw \d+\.\d{3}, predict "
                     r"\d+\.\d{3}, calibrate \d+\.\d{3}, metrics \d+\.\d{3}$",
                     out.stdout, re.M), out.stdout
    assert re.search(r"^report seconds: \d+\.\d{3}$", out.stdout, re.M), out.stdout
    rows = read_trial_rows(tmp_path / "rep" / "trials.csv")
    assert len(rows) == 3 * 6  # override applied
    agg_out = run_cli("report", str(tmp_path / "rep" / "trials.csv"),
                      "--out", str(tmp_path / "agg.csv"))
    assert agg_out.returncode == 0, agg_out.stderr
    assert (tmp_path / "agg.csv").exists()


def test_cli_ser_table(tmp_path):
    out = run_cli("ser-table", "--out", str(tmp_path / "ser.csv"), "--n-mc", "200")
    assert out.returncode == 0, out.stderr
    from ccke.phy_sim import SerTable

    table = SerTable.load(tmp_path / "ser.csv")
    assert table.values.shape == (4, 20, 10)


def test_cli_ser_table_rejects_one_symbol_per_cell(tmp_path):
    out = run_cli("ser-table", "--out", str(tmp_path / "ser.csv"), "--n-mc", "1")
    assert out.returncode == 1
    assert "n_symbols" in out.stderr
    assert not (tmp_path / "ser.csv").exists()


@pytest.mark.parametrize("methods", ["", "CCKE,ccke"])
def test_cli_rejects_empty_or_repeated_methods(methods, tmp_path, capsys):
    # both ran every draw and exited 0: header-only CSVs, or every CCKE row twice
    argv = ["run", "--set", f"methods={methods}", "--set", "environment=synthetic",
            "--set", "actual_app=base", "--set", "target_app=alt",
            "--out-dir", str(tmp_path / "rep")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "method" in err
    assert not (tmp_path / "rep").exists()


def test_cli_bad_config_fails_cleanly(tmp_path):
    out = run_cli("run", "--set", "environment=marsrover", "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert "error:" in out.stderr


ENVIRONMENT_APPS = {"mac": ("RR", "PFCA"),
                    "phy": ("alamouti_bpsk", "alamouti_qpsk", "multiplexing_bpsk",
                            "multiplexing_qpsk"),
                    "synthetic": ("base", "alt")}


@pytest.mark.parametrize("field", ["target_app", "actual_app"])
@pytest.mark.parametrize("environment", sorted(ENVIRONMENT_APPS))
def test_unknown_app_names_its_field_and_the_apps(environment, field):
    # phy said only "unknown space-time code 'RR'", synthetic "unknown
    # synthetic app 'RR'": neither named the field or the valid apps
    apps = ENVIRONMENT_APPS[environment]
    values = {"actual_app": apps[0], "target_app": apps[1], field: "RR_8psk"}
    cfg = ExperimentConfig(environment=environment, n_trials=1, **values)
    want = f"unknown {field} 'RR_8psk'; choose one of {', '.join(apps)}"
    with pytest.raises(ContractViolationError, match=f"^{want}$"):
        run_experiment(cfg)


def test_cli_phy_run_without_apps_names_target_app(tmp_path, capsys):
    # the default apps are mac apps
    assert cli.main(["run", "--set", "environment=phy", "--out-dir", str(tmp_path / "rep")]) == 1
    apps = ", ".join(ENVIRONMENT_APPS["phy"])
    assert capsys.readouterr().err == f"error: unknown target_app 'RR'; choose one of {apps}\n"
    assert not (tmp_path / "rep").exists()


OPTIONAL_FIELDS = {"kpi_noise": ("0.5", 0.5),
                   "weight_perturbation": ("0.1", 0.1),
                   "ser_table_path": ("table.csv", "table.csv")}


def test_cli_optional_fields_are_the_ones_tested():
    hints = typing.get_type_hints(ExperimentConfig)
    assert {name for name, kind in hints.items()
            if type(None) in typing.get_args(kind)} == set(OPTIONAL_FIELDS)


@pytest.mark.parametrize("raw", ["none", "None", ""])
@pytest.mark.parametrize("name", sorted(OPTIONAL_FIELDS))
def test_cli_none_clears_every_optional_field(name, raw, tmp_path):
    # `--set ser_table_path=none` tried to open a file named "none"
    text, value = OPTIONAL_FIELDS[name]
    assert getattr(cli.load_config(overrides=[f"{name}={text}"]), name) == value
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"{name} = {text}\n")
    assert getattr(cli.load_config(cfgfile, [f"{name}={raw}"]), name) is None
