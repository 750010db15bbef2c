"""Harness tests: dataset operations, metrics, experiment execution,
report emission, and the command-line interface."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from ccke import harness, mac_sim
from ccke.conformal import (
    ContractViolationError,
    CorrectionQuantile,
    IntervalSet,
    PredictionSet,
    compute_score,
    weighted_corrections,
)
from ccke.harness import (
    ExperimentConfig,
    MacEnvironment,
    NoiseSpec,
    SyntheticEnvironment,
    counterfactual_truth,
    evaluate_coverage,
    evaluate_inefficiency,
    log_dataset,
    rng_for,
    run_experiment,
    select_and_split,
)
from ccke.reporting import aggregate_rows, emit_report, read_trial_rows


def interval(lo, hi, q=0.0):
    return PredictionSet(naive=IntervalSet(lo=lo, hi=hi),
                         correction=CorrectionQuantile(q))


UNBOUNDED = PredictionSet(naive=IntervalSet(lo=[0.0], hi=[0.0]),
                          correction=CorrectionQuantile.infinite())


# ---------------------------------------------------------------------------
# dataset operations


def test_log_dataset_deterministic():
    env = SyntheticEnvironment()
    a = log_dataset(env, 50, rng_for(3, 1))
    b = log_dataset(env, 50, rng_for(3, 1))
    assert all(s.context == t.context and s.app == t.app and np.array_equal(s.kpi, t.kpi)
               for s, t in zip(a, b))


def test_log_dataset_app_frequencies_match_policy():
    env = SyntheticEnvironment()
    data = log_dataset(env, 10_000, rng_for(4, 1))
    freq = np.mean([s.app == "alt" for s in data])
    mean_p = np.mean([env.app_probability(s.context, "alt") for s in data])
    # binomial 3-sigma around the average selection probability
    assert abs(freq - mean_p) < 3.0 * math.sqrt(0.25 / 10_000) + 0.01


def test_log_dataset_supports_training_scale():
    env = SyntheticEnvironment()
    data = log_dataset(env, 200, rng_for(5, 1))
    assert len(data) == 200


def test_select_and_split_errors_and_sizes():
    env = SyntheticEnvironment()
    data = log_dataset(env, 300, rng_for(6, 1))
    with pytest.raises(ContractViolationError) as err:
        select_and_split(data, "nonexistent-app", 10, rng_for(6, 2))
    assert "0 samples" in str(err.value)
    train, cal = select_and_split(data, "alt", 20, rng_for(6, 2))
    n_alt = sum(1 for s in data if s.app == "alt")
    assert len(cal) == 20 and len(train) == n_alt - 20
    ids = {id(s) for s in train} | {id(s) for s in cal}
    assert len(ids) == n_alt  # disjoint split covering the selection


def test_select_and_split_degenerate_policy_keeps_everything():
    env = SyntheticEnvironment()
    data = [s for s in log_dataset(env, 100, rng_for(7, 1))]
    forced = [type(s)(context=s.context, app="alt", kpi=s.kpi) for s in data]
    train, cal = select_and_split(forced, "alt", 10, rng_for(7, 2))
    assert len(train) + len(cal) == 100


def test_counterfactual_truth_replay():
    env = MacEnvironment(n_users=4, temperature=1.0)
    ctx = env.sample_context(rng_for(8, 1))
    a = counterfactual_truth(env, ctx, mac_sim.RR, rng_for(8, 2))
    b = counterfactual_truth(env, ctx, mac_sim.RR, rng_for(8, 2))
    assert np.array_equal(a, b)


def test_counterfactual_truth_empty_backlogs():
    env = MacEnvironment(n_users=3, temperature=1.0)
    ctx = mac_sim.MacContext(initial_backlogs=[0, 0, 0], cqis=[4, 9, 13])
    assert np.array_equal(counterfactual_truth(env, ctx, mac_sim.RR, rng_for(9, 1)),
                          np.zeros(3))


def test_counterfactual_truth_distribution_matches_direct_rollout():
    env = SyntheticEnvironment()
    ctx = 0.3
    rng = rng_for(10, 1)
    a = np.array([counterfactual_truth(env, ctx, "base", rng)[0] for _ in range(1000)])
    b = np.array([env.rollout("base", ctx, rng)[0] for _ in range(1000)])
    assert stats.ks_2samp(a, b).pvalue > 0.01


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
    whose discarded branch may overflow."""
    table, temp = env.policy.payload_table, env.policy.temperature
    out, batch = [], max(1024, 2 * n)
    while len(out) < n:
        b = rng.integers(mac_sim.BACKLOG_MIN, mac_sim.BACKLOG_MAX + 1, size=(batch, env.n_users))
        c = rng.integers(1, 16, size=(batch, env.n_users))
        z = -np.max(b - table[c - 1] / env.n_users, axis=1) / temp
        with np.errstate(over="ignore"):
            p_rr = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-np.minimum(z, 700.0))),
                            np.exp(np.maximum(z, -700.0))
                            / (1.0 + np.exp(np.maximum(z, -700.0))))
        p_app = p_rr if app == mac_sim.RR else 1.0 - p_rr
        accept = rng.random(batch) < p_app
        out += [(b[i], c[i]) for i in np.flatnonzero(accept)][: n - len(out)]
    return out


@pytest.mark.parametrize("app", mac_sim.MAC_APPS)
def test_mac_sampler_matches_two_branch_logistic(app):
    env = MacEnvironment(n_users=8, temperature=1.0)
    got = env.sample_contexts_given_app(app, 300, rng_for(12, 1))
    want = reference_mac_contexts_given_app(env, app, 300, rng_for(12, 1))
    assert len(got) == len(want) == 300
    for ctx, (b, c) in zip(got, want):
        assert np.array_equal(ctx.initial_backlogs, b) and np.array_equal(ctx.cqis, c)


@pytest.mark.parametrize("app", mac_sim.MAC_APPS)
def test_mac_sampler_no_overflow_at_sharp_temperature(app):
    env = MacEnvironment(n_users=8, temperature=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        contexts = env.sample_contexts_given_app(app, 50, rng_for(12, 2))
    assert len(contexts) == 50


def test_conditional_sampler_matches_rejection_frequencies():
    env = SyntheticEnvironment()
    xs = np.array(env.sample_contexts_given_app("alt", 4000, rng_for(11, 1)))
    # under p(x|alt) the mean shifts positive: E[x | alt] = E[x sigma(x)] / P(alt)
    grid = np.linspace(-6, 6, 4001)
    density = stats.norm.pdf(grid) * (1.0 / (1.0 + np.exp(-grid)))
    density /= np.trapezoid(density, grid)
    expected_mean = np.trapezoid(grid * density, grid)
    assert abs(xs.mean() - expected_mean) < 0.05


# ---------------------------------------------------------------------------
# metrics


def test_coverage_unbounded_and_empty():
    assert evaluate_coverage([UNBOUNDED] * 4, [np.array([v]) for v in (1, 2, 3, 4)]) == 1.0
    empty = interval([5.0], [2.0])  # crossed: empty set
    assert evaluate_coverage([empty] * 4, [np.array([3.0])] * 4) == 0.0


def test_coverage_requires_all_kpis():
    ps = interval([0.0, 0.0], [1.0, 1.0])
    truths = [np.array([0.5, 5.0])] * 3  # second KPI always outside
    assert evaluate_coverage([ps] * 3, truths) == 0.0


def test_coverage_length_mismatch():
    with pytest.raises(ContractViolationError):
        evaluate_coverage([UNBOUNDED], [np.array([1.0]), np.array([2.0])])


def test_inefficiency_examples():
    zero = interval([1.0], [1.0])
    assert evaluate_inefficiency([zero, zero], [1.0, 1.0]).clipped == 0.0
    wide = interval([0.0], [4.0])
    r = evaluate_inefficiency([wide], [2.0])
    assert r.clipped == 2.0 and r.raw == 2.0 and r.n_unbounded == 0
    halved = evaluate_inefficiency([wide], [4.0])
    assert halved.clipped == pytest.approx(r.clipped / 2.0)


def test_inefficiency_unbounded_handling():
    wide = interval([0.0], [4.0])
    r = evaluate_inefficiency([wide, UNBOUNDED], [1.0, 1.0], domains=[(0, 10), (0, 10)])
    assert r.n_unbounded == 1
    assert r.raw == 4.0            # bounded sets only
    assert r.clipped == pytest.approx((4.0 + 10.0) / 2.0)
    with pytest.raises(ContractViolationError):
        evaluate_inefficiency([UNBOUNDED], [1.0])  # domain required


def test_inefficiency_rejects_nonpositive_normalizer():
    with pytest.raises(ContractViolationError):
        evaluate_inefficiency([interval([0.0], [1.0])], [0.0])


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_inefficiency_rejects_nonfinite_normalizer(eps):
    with pytest.raises(ContractViolationError):
        evaluate_inefficiency([interval([0.0], [1.0])], [eps])


def test_coverage_rejects_empty():
    with pytest.raises(ContractViolationError):
        evaluate_coverage([], [])


def test_inefficiency_rejects_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError):
            evaluate_inefficiency([], [])


# ---------------------------------------------------------------------------
# experiment execution


def test_methods_filter():
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt", target_app="base",
                           n_cal=30, n_test=2, n_trials=5, base_seed=1, methods=("CKE",))
    rep = run_experiment(cfg)
    assert {t.method for t in rep.trials} == {"CKE"}
    assert len(rep.trials) == 5


def test_config_validation():
    with pytest.raises(ContractViolationError):
        ExperimentConfig(alpha=0.005, n_cal=50)  # below 1/(n_cal+1)
    with pytest.raises(ContractViolationError):
        ExperimentConfig(methods=("CCKE", "XYZ"))
    with pytest.raises(ContractViolationError):
        ExperimentConfig(n_trials=0)


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
                           kpi_noise=NoiseSpec(sigma=1.0), methods=("CCKE",))
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


def test_retrain_per_trial_flag():
    cfg = ExperimentConfig(environment="mac", n_users=3, temperature=1.0,
                           n_train=60, n_cal=20, n_test=3, n_trials=2,
                           train_epochs=2, base_seed=7, retrain_per_trial=True,
                           methods=("CKE",))
    rep = run_experiment(cfg)
    assert len(rep.trials) == 2


# ---------------------------------------------------------------------------
# reference: the per-point trial path
#
# run_experiment computes each trial as array operations.  The functions
# below are the per-point path it replaced, self-contained (they share no
# quantile, weight-normalization or metric code with the library), and
# the tests require equal bytes.


def reference_quantile(scores, probs, alpha):
    """weighted_quantile on one point-mass vector: sort, cumsum, searchsorted."""
    n = scores.size
    threshold = (1.0 - alpha) * (n + 1) / n
    order = np.argsort(scores, kind="stable")
    cum = np.cumsum(probs[order])
    idx = int(np.searchsorted(cum, threshold, side="left"))
    return math.inf if idx >= n else float(scores[order][idx])


def reference_ccke_correction(scores, w_cal, w_test, alpha):
    """compute_weight_probabilities + weighted_quantile for one test weight."""
    denom = float(w_cal.sum()) + w_test
    return reference_quantile(scores, w_cal / denom, alpha)


def reference_coverage(sets, truths):
    return sum(1 for s, y in zip(sets, truths) if s.contains(y)) / len(sets)


def reference_inefficiency(sets, normalizers, domains):
    raw_terms, clipped_terms, n_unbounded = [], [], 0
    for i, (s, eps) in enumerate(zip(sets, normalizers)):
        if s.unbounded:
            n_unbounded += 1
            lo, hi = domains[i]
            clipped_terms.append(float(np.mean(s.clipped_widths(lo, hi))) / eps)
        else:
            term = float(np.mean(s.widths())) / eps
            raw_terms.append(term)
            clipped_terms.append(term)
    raw = float(np.mean(raw_terms)) if raw_terms else math.inf
    return float(np.mean(clipped_terms)), raw, n_unbounded


def reference_run(cfg):
    """run_experiment with the per-point trial body: id()-keyed weights,
    one prediction set per test point, per-set metrics.  Returns
    ``(trials, weight_error_mean)`` with trials as
    ``(method, trial, coverage, raw, clipped, n_unbounded, corrections)``."""
    env = harness.build_environment(cfg)
    target, actual = env.parse_app(cfg.target_app), env.parse_app(cfg.actual_app)
    exact_model = getattr(env, "has_exact_model", False)
    if not exact_model:
        contexts, kpis = harness._draw_labeled(
            env, target, cfg.n_train, rng_for(cfg.base_seed, harness._STREAM_TRAIN_DATA),
            cfg.kpi_noise, rng_for(cfg.base_seed, harness._STREAM_TRIAL_NOISE))
        model = harness._train_model(env, cfg, contexts, kpis, seed=cfg.base_seed)

    def intervals_for_batch(contexts):
        if exact_model:
            spread = (1.0 - cfg.alpha) * env.half_width
            mids = [env.offsets[target] + float(c) for c in contexts]
            return [IntervalSet(lo=[m - spread], hi=[m + spread]) for m in mids]
        lo, hi = model.predict(np.stack([env.model_features(c) for c in contexts]))
        return [IntervalSet(lo=lo[i], hi=hi[i]) for i in range(len(contexts))]

    trials, weight_errors = [], []
    for t in range(cfg.n_trials):
        rng_cal = rng_for(cfg.base_seed, harness._STREAM_TRIAL_CAL, t)
        rng_test = rng_for(cfg.base_seed, harness._STREAM_TRIAL_TEST, t)
        rng_noise = rng_for(cfg.base_seed, harness._STREAM_TRIAL_NOISE, t + 1)
        cal_ctx, cal_kpi = harness._draw_labeled(env, target, cfg.n_cal, rng_cal,
                                                 cfg.kpi_noise, rng_noise)
        scores = np.array([compute_score(iv, y)
                           for iv, y in zip(intervals_for_batch(cal_ctx), cal_kpi)])
        test_ctx = env.sample_contexts_given_app(actual, cfg.n_test, rng_test)
        truths = [counterfactual_truth(env, c, target, rng_test) for c in test_ctx]
        test_intervals = intervals_for_batch(test_ctx)

        w_exact = {id(c): env.weight(c, actual, target) for c in cal_ctx}
        for c in test_ctx:
            w_exact[id(c)] = env.weight(c, actual, target)
        if cfg.weight_perturbation is not None:
            delta = cfg.weight_perturbation
            w_used = {k: w * (1.0 + rng_noise.uniform(-delta, delta))
                      for k, w in w_exact.items()}
            weight_errors.extend(abs(w_used[id(c)] - w_exact[id(c)]) for c in cal_ctx)
        else:
            w_used = w_exact
        w_cal = np.array([w_used[id(c)] for c in cal_ctx], dtype=float)

        normalizers = [env.inefficiency_normalizer(c) for c in test_ctx]
        domains = [env.clip_domain(c) for c in test_ctx]
        for method in cfg.methods:
            sets = []
            for i, ctx in enumerate(test_ctx):
                if method == "CCKE":
                    q = reference_ccke_correction(scores, w_cal, float(w_used[id(ctx)]),
                                                  cfg.alpha)
                elif method == "NCCKE":
                    q = reference_quantile(scores, np.full(scores.size, 1.0 / (scores.size + 1)),
                                           cfg.alpha)
                else:
                    q = 0.0
                sets.append(PredictionSet(naive=test_intervals[i],
                                          correction=CorrectionQuantile(q)))
            clipped, raw, n_unbounded = reference_inefficiency(sets, normalizers, domains)
            trials.append((method, t, reference_coverage(sets, truths), raw, clipped,
                           n_unbounded, np.array([s.correction.value for s in sets])))
    return trials, (float(np.mean(weight_errors)) if weight_errors else None)


_SYNTHETIC = dict(environment="synthetic", actual_app="base", target_app="alt", n_trials=12)
REFERENCE_CASES = {
    "synthetic": _SYNTHETIC,
    "perturbed-weights": dict(_SYNTHETIC, weight_perturbation=0.3),
    "kpi-noise": dict(_SYNTHETIC, kpi_noise=NoiseSpec(1.0)),
    # 1/8 masses hit the level (1 - 15/64) * 8 / 7 = 7/8 exactly: a threshold tie
    "unbounded": dict(_SYNTHETIC, n_cal=7, alpha=15 / 64, n_test=40),
    "mac-k3": dict(environment="mac", n_users=3, n_train=60, n_cal=20, n_test=10,
                   n_trials=4, train_epochs=0),
    "cke-only": dict(_SYNTHETIC, n_trials=4, methods=("CKE",)),
    "nccke-ccke": dict(_SYNTHETIC, n_trials=4, methods=("NCCKE", "CCKE")),
}


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


def test_aggregate_median_matches_oracle(small_report, tmp_path):
    trials_path, agg_path = emit_report(small_report, tmp_path)
    rows = read_trial_rows(trials_path)
    import csv

    with open(agg_path, newline="") as fh:
        agg = list(csv.DictReader(fh))
    for record in agg:
        if record["metric"] != "coverage":
            continue
        vals = [r["coverage"] for r in rows if r["method"] == record["method"]]
        assert float(record["median"]) == float(np.median(vals))
        assert float(record["mean"]) == float(np.mean(vals))


def test_aggregate_whiskers_within_tukey_fences(small_report, tmp_path):
    stats_map = small_report.aggregates()
    for (method, metric), s in stats_map.items():
        if not math.isfinite(s.median):
            continue
        iqr = s.q3 - s.q1
        assert s.whisker_lo >= s.q1 - 1.5 * iqr - 1e-12
        assert s.whisker_hi <= s.q3 + 1.5 * iqr + 1e-12
        assert s.whisker_lo <= s.q1 and s.whisker_hi >= s.q3


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
    rows = read_trial_rows(tmp_path / "rep" / "trials.csv")
    assert len(rows) == 3 * 6  # override applied
    agg_out = run_cli("report", str(tmp_path / "rep" / "trials.csv"),
                      "--out", str(tmp_path / "agg.csv"))
    assert agg_out.returncode == 0, agg_out.stderr
    assert (tmp_path / "agg.csv").exists()


def test_cli_train_checkpoint(tmp_path):
    out = run_cli("train", "--set", "environment=mac", "--set", "n_users=3",
                  "--set", "n_train=40", "--set", "train_epochs=2",
                  "--set", "target_app=RR", "--out", str(tmp_path / "m.ckpt"))
    assert out.returncode == 0, out.stderr
    from ccke.quantile_net import load_checkpoint

    model = load_checkpoint(tmp_path / "m.ckpt")
    assert model.arch.kind == "attention"


def test_cli_ser_table(tmp_path):
    out = run_cli("ser-table", "--out", str(tmp_path / "ser.csv"), "--n-mc", "200")
    assert out.returncode == 0, out.stderr
    from ccke.phy_sim import SerTable

    table = SerTable.load(tmp_path / "ser.csv")
    assert table.values.shape == (4, 20, 10)


def test_cli_bad_config_fails_cleanly(tmp_path):
    out = run_cli("run", "--set", "environment=marsrover", "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert "error:" in out.stderr
