"""Acceptance suite.

Every criterion below runs at its stated scale and tolerance and prints
one PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).
The expensive experiment sweeps are shared session fixtures; a full run
takes several minutes on a laptop core.

Criteria:
  1  scheduling coverage across selection temperatures
  2  baseline failure modes (sharp T) and convergence (large T)
  3  inefficiency ordering against the uncalibrated baseline
  4  scalability in the number of users
  5  link-level coverage across temperatures
  6  exact-weight coverage guarantee (synthetic oracle environment)
  7  coverage under multiplicative weight error
  8  coverage under symmetric KPI observation noise
  9  unit/property suite spot checks (oracle equivalence, gradients,
     equivariance, normalization, reciprocity, bounds, replay)
"""

import hashlib
import math
import platform
from importlib import resources

import numpy as np
import pytest

from ccke import mac_sim, phy_sim
from ccke.conformal import _denominators, weighted_quantile
from ccke.harness import (
    ExperimentConfig,
    MacEnvironment,
    NoiseSpec,
    PhyEnvironment,
    SyntheticEnvironment,
    rng_for,
    run_experiment,
)
from ccke.reporting import emit_report

ALPHA = 0.2
FULL = dict(n_train=3000, n_cal=50, n_test=100, n_trials=200)
MAC_TEMPS = (0.5, 1.0, 10.0, 100.0)
PHY_TEMPS = (0.1, 1.0, 10.0)
LEMMA_TRIALS = 2000


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def binom_3sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# shared experiment sweeps


@pytest.fixture(scope="session")
def ser_table():
    return phy_sim.SerTable.build(n_mc=10_000, seed=20139)


# sha256 of the saved default table, as shipped in the package data; the
# table build may get faster, but a change that moves any cell changes these
# bytes.  The pin was taken with numpy 2.4 on x86-64 with AVX-512 (the
# Skylake-X feature group): another numpy build or CPU may round cos, exp or
# a complex multiply differently in the last bit, with no fault in the
# program.  The in-process reference tests in test_phy_sim.py hold on every
# platform.
DEFAULT_SER_TABLE_SHA256 = "20e92b76818e7baf613503f473491ffbfd4cf720512db85c25c07d4c274a041f"


def _on_pinned_platform():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        return False
    return (np.__version__.startswith("2.4.") and platform.machine() == "x86_64"
            and bool(__cpu_features__.get("AVX512_SKX")))


def _shipped_ser_table_bytes():
    return (resources.files("ccke") / "data" / phy_sim.DEFAULT_SER_TABLE).read_bytes()


def test_shipped_ser_table_hash():
    assert hashlib.sha256(_shipped_ser_table_bytes()).hexdigest() == DEFAULT_SER_TABLE_SHA256


@pytest.mark.skipif(not _on_pinned_platform(),
                    reason="the table's sha256 was pinned on numpy 2.4, x86-64, AVX512_SKX")
def test_default_ser_table_bytes(ser_table, tmp_path):
    path = tmp_path / "ser.csv"
    ser_table.save(path)
    assert path.read_bytes() == _shipped_ser_table_bytes()


@pytest.fixture(scope="session")
def mac_reports():
    out = {}
    for temp in MAC_TEMPS:
        cfg = ExperimentConfig(environment="mac", n_users=8, temperature=temp,
                               alpha=ALPHA, base_seed=1000 + int(temp * 10), **FULL)
        out[temp] = run_experiment(cfg)
    return out


@pytest.fixture(scope="session")
def mac_k_reports(mac_reports):
    out = {8: mac_reports[1.0]}
    for k in (16, 32):
        cfg = ExperimentConfig(environment="mac", n_users=k, temperature=1.0,
                               alpha=ALPHA, base_seed=2000 + k, **FULL)
        out[k] = run_experiment(cfg)
    return out


@pytest.fixture(scope="session")
def phy_reports(ser_table):
    out = {}
    for temp in PHY_TEMPS:
        env = PhyEnvironment(temperature=temp, ser_table=ser_table)
        cfg = ExperimentConfig(environment="phy", temperature=temp, alpha=ALPHA,
                               actual_app="multiplexing_qpsk",
                               target_app="alamouti_qpsk",
                               base_seed=3000 + int(temp * 10), **FULL)
        out[temp] = run_experiment(cfg, environment=env)
    return out


def synthetic_config(**kw):
    base = dict(environment="synthetic", actual_app="alt", target_app="base",
                alpha=ALPHA, n_cal=50, n_test=1, n_trials=LEMMA_TRIALS,
                methods=("CCKE",))
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# criteria 1-4: scheduling experiments


def test_criterion_1_mac_coverage(mac_reports):
    for temp in MAC_TEMPS:
        cov = mac_reports[temp].mean_coverage("CCKE")
        check(f"criterion 1 (T={temp})", cov >= 0.78,
              f"CCKE mean coverage {cov:.4f} >= 0.78")


def test_criterion_2_baseline_failure_modes(mac_reports):
    sharp = mac_reports[0.5]
    cke, ccke = sharp.mean_coverage("CKE"), sharp.mean_coverage("CCKE")
    check("criterion 2 (T=0.5, CKE < CCKE)", cke < ccke,
          f"CKE {cke:.4f} < CCKE {ccke:.4f}")
    nccke = sharp.mean_coverage("NCCKE")
    check("criterion 2 (T=0.5, NCCKE fails)", nccke < 0.78,
          f"NCCKE mean coverage {nccke:.4f} < 0.78")
    smooth = mac_reports[100.0]
    gap = abs(smooth.mean_coverage("NCCKE") - smooth.mean_coverage("CCKE"))
    check("criterion 2 (T=100, NCCKE ~ CCKE)", gap <= 0.02,
          f"|NCCKE - CCKE| = {gap:.4f} <= 0.02")


def test_criterion_3_inefficiency_ordering(mac_reports):
    for temp in MAC_TEMPS:
        rep = mac_reports[temp]
        nonneg_trials = np.mean([np.all(t.corrections >= 0.0)
                                 for t in rep.trials_for("CCKE")])
        if nonneg_trials < 0.95:
            check(f"criterion 3 (T={temp})", True,
                  f"vacuous: corrections nonneg in only {nonneg_trials:.0%} of trials")
            continue
        cke = rep.mean_inefficiency("CKE")
        ccke = rep.mean_inefficiency("CCKE")
        check(f"criterion 3 (T={temp})", cke <= ccke,
              f"CKE inefficiency {cke:.4f} <= CCKE {ccke:.4f} "
              f"(corrections nonneg in {nonneg_trials:.0%} of trials)")


def test_criterion_4_user_scaling(mac_k_reports):
    ineffs = {}
    for k in (8, 16, 32):
        cov = mac_k_reports[k].mean_coverage("CCKE")
        ineffs[k] = mac_k_reports[k].mean_inefficiency("CCKE")
        check(f"criterion 4 (K={k} coverage)", cov >= 0.78,
              f"CCKE mean coverage {cov:.4f} >= 0.78")
    directional = (ineffs[16] >= 0.95 * ineffs[8]
                   and ineffs[32] >= 0.95 * ineffs[16])
    check("criterion 4 (inefficiency vs K)", directional,
          f"nondecreasing within 5% slack: "
          f"{ineffs[8]:.4f}, {ineffs[16]:.4f}, {ineffs[32]:.4f}")


# ---------------------------------------------------------------------------
# criterion 5: link-level experiments


def test_criterion_5_phy_coverage(phy_reports):
    for temp in PHY_TEMPS:
        cov = phy_reports[temp].mean_coverage("CCKE")
        check(f"criterion 5 (T={temp})", cov >= 0.78,
              f"CCKE mean coverage {cov:.4f} >= 0.78")
    rep = phy_reports[10.0]
    gap = abs(rep.mean_coverage("NCCKE") - rep.mean_coverage("CCKE"))
    check("criterion 5 (T=10, NCCKE ~ CCKE)", gap <= 0.02,
          f"|NCCKE - CCKE| = {gap:.4f} <= 0.02")


# ---------------------------------------------------------------------------
# criteria 6-8: coverage guarantees in the synthetic oracle environment


def test_criterion_6_exact_weight_guarantee():
    rep = run_experiment(synthetic_config(base_seed=600))
    cov = rep.mean_coverage("CCKE")
    bound = 1.0 - ALPHA - binom_3sigma(1.0 - ALPHA, LEMMA_TRIALS)
    check("criterion 6", cov >= bound, f"coverage {cov:.4f} >= {bound:.4f} "
          f"(exact quantiles, exact weights, {LEMMA_TRIALS} trials)")


def test_criterion_7_weight_error_guarantee():
    env = SyntheticEnvironment()
    rng = rng_for(700, 99)
    contexts = env.sample_contexts_given_app("base", 20_000, rng)
    mean_w = float(np.mean(env.weight(contexts, "alt", "base")))
    target_err = 0.2
    delta = min(2.0 * target_err / mean_w, 1.0)
    rep = run_experiment(synthetic_config(base_seed=700, weight_perturbation=delta))
    measured = rep.weight_error_mean
    check("criterion 7 (noise level)", abs(measured - target_err) <= 0.05,
          f"measured E|w_hat - w| = {measured:.4f} (target {target_err})")
    cov = rep.mean_coverage("CCKE")
    floor = 1.0 - ALPHA - measured / 2.0
    bound = floor - binom_3sigma(max(min(floor, 1.0), 0.05), LEMMA_TRIALS)
    check("criterion 7 (coverage)", cov >= bound,
          f"coverage {cov:.4f} >= {bound:.4f} under weight error {measured:.3f}")


def test_criterion_8_kpi_noise_guarantee():
    rep = run_experiment(synthetic_config(base_seed=800,
                                          kpi_noise=NoiseSpec(sigma=1.0)))
    cov = rep.mean_coverage("CCKE")
    floor = 1.0 - 2.0 * ALPHA
    bound = floor - binom_3sigma(floor, LEMMA_TRIALS)
    check("criterion 8", cov >= bound,
          f"coverage {cov:.4f} >= {bound:.4f} (symmetric noise, skew bound 0.5)")


# ---------------------------------------------------------------------------
# criterion 9: unit/property spot checks


def test_criterion_9a_weighted_quantile_oracle():
    def oracle(scores, probs, p_inf, alpha):
        n = len(scores)
        thr = (1 - alpha) * (n + 1) / n
        for s in sorted(set(scores)):
            if sum(p for sc, p in zip(scores, probs) if sc <= s) >= thr:
                return float(s)
        return math.inf

    rng = np.random.default_rng(90)
    checked = 0
    for n in range(1, 13):
        for _ in range(200):
            scores = rng.normal(size=n)
            w = rng.uniform(0, 1, size=n + 1)
            w /= w.sum()
            alpha = float(rng.uniform(1.0 / (n + 1), 0.95))
            assert weighted_quantile(scores, w[:-1], alpha) == \
                oracle(scores.tolist(), w[:-1].tolist(), w[-1], alpha)
            checked += 1
    check("criterion 9 (quantile oracle)", True,
          f"{checked} random cases, every calibration size 1..12, exact match")


def test_criterion_9b_gradient_check():
    from ccke.quantile_net import ATTENTION, FEEDFORWARD, init_model
    from ccke.quantile_net import _loss_and_grad

    rng = np.random.default_rng(91)
    worst = 0.0
    for arch, shape in ((FEEDFORWARD, (6, 2)), (ATTENTION, (3, 2, 5))):
        x = rng.uniform(-1, 1, shape)
        y = rng.uniform(-1, 1, (shape[0],) if arch.kind == "feedforward"
                        else (shape[0], shape[2]))
        model = init_model(arch, ALPHA, seed=17)
        _, g = _loss_and_grad(model, x, y)
        eps = 1e-5
        g_fd = np.zeros_like(g)
        for i in range(model.params.size):
            p0 = model.params[i]
            model.params[i] = p0 + eps
            lp, _ = _loss_and_grad(model, x, y)
            model.params[i] = p0 - eps
            lm, _ = _loss_and_grad(model, x, y)
            model.params[i] = p0
            g_fd[i] = (lp - lm) / (2 * eps)
        worst = max(worst, np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd))
    check("criterion 9 (pinball gradient)", worst <= 1e-4,
          f"finite-difference relative error {worst:.2e} <= 1e-4")


def test_criterion_9c_equivariance():
    from ccke.quantile_net import ATTENTION, init_model

    rng = np.random.default_rng(92)
    worst = 0.0
    for k in (2, 8, 16, 32):
        for trial in range(25):
            model = init_model(ATTENTION, ALPHA, seed=7000 + 100 * k + trial)
            x = rng.uniform(-2, 2, (1, 2, k))
            perm = rng.permutation(k)
            lo, hi = model.predict(x)
            lo_p, hi_p = model.predict(x[:, :, perm])
            worst = max(worst,
                        float(np.abs(lo_p - lo[:, perm]).max()),
                        float(np.abs(hi_p - hi[:, perm]).max()))
    check("criterion 9 (equivariance)", worst <= 1e-9,
          f"max deviation under token permutation {worst:.2e}")


def sample_phy_context(rng):
    """One phy context, as a batch of one: SNR from a rejection-sampled
    truncated Gaussian, m uniform on 1..10."""
    while True:
        snr = rng.normal(phy_sim.SNR_DB_MEAN, phy_sim.SNR_DB_SIGMA)
        if phy_sim.SNR_DB_MIN <= snr <= phy_sim.SNR_DB_MAX:
            return phy_sim.PhyContexts(snr_db=[float(snr)],
                                       paths=[int(rng.integers(1, phy_sim.PATHS_MAX + 1))])


def sample_mac_context(n_users, rng):
    """One mac context, as a batch of one: backlogs i.i.d. uniform over
    BACKLOG_MIN..BACKLOG_MAX, then CQIs i.i.d. uniform over 1..15."""
    return mac_sim.MacContexts(
        backlogs=rng.integers(mac_sim.BACKLOG_MIN, mac_sim.BACKLOG_MAX + 1, size=(1, n_users)),
        cqis=rng.integers(1, 16, size=(1, n_users)))


def test_criterion_9d_probability_normalization(ser_table):
    rng = np.random.default_rng(93)
    pol = phy_sim.PhyPolicy(temperature=2.0, ser_table=ser_table)
    worst = 0.0
    for _ in range(200):
        ctx = sample_phy_context(rng)
        worst = max(worst, abs(float(pol.app_probabilities(ctx)[0].sum()) - 1.0))
    for _ in range(200):
        w = [float(rng.uniform(0, 5)) for _ in range(11)]
        w_cal, w_test, denom = _denominators(w[:10], [w[10]])
        total = float((w_cal / denom).sum()) + float(w_test[0] / denom[0])
        worst = max(worst, abs(total - 1.0))
    check("criterion 9 (normalization)", worst <= 1e-9,
          f"max |sum - 1| = {worst:.2e}")


def test_criterion_9e_weight_reciprocity(ser_table):
    rng = np.random.default_rng(94)
    mac_pol = mac_sim.MacPolicy.default(8, 0.8)
    phy_pol = phy_sim.PhyPolicy(temperature=1.0, ser_table=ser_table)
    worst = 0.0
    for _ in range(100):
        ctx = sample_mac_context(8, rng)
        worst = max(worst, abs(float(mac_pol.weight(ctx, mac_sim.RR, mac_sim.PFCA)[0])
                               * float(mac_pol.weight(ctx, mac_sim.PFCA, mac_sim.RR)[0]) - 1.0))
        pctx = sample_phy_context(rng)
        for a in phy_sim.PHY_APPS:
            for b in phy_sim.PHY_APPS:
                worst = max(worst, abs(float(phy_pol.weight(pctx, a, b)[0])
                                       * float(phy_pol.weight(pctx, b, a)[0]) - 1.0))
    check("criterion 9 (weight reciprocity)", worst <= 1e-9,
          f"max |w_fwd * w_rev - 1| = {worst:.2e}")


def test_criterion_9f_kpi_bounds_and_conservation(ser_table):
    rng = np.random.default_rng(95)
    arq = phy_sim.ArqConfig(max_retx=10)
    ok_phy = True
    for _ in range(150):
        ctx = sample_phy_context(rng)
        app = phy_sim.PHY_APPS[int(rng.integers(0, 4))]
        y = phy_sim.transmit_arq(app, float(ctx.snr_db[0]), int(ctx.paths[0]), arq, rng)
        ok_phy &= 1 <= y <= 10
    env = MacEnvironment(n_users=8, temperature=1.0)
    ok_mac = True
    for _ in range(150):
        ctx = sample_mac_context(env.n_users, rng)
        for app in mac_sim.MAC_APPS:
            out = env.rollout(app, ctx, rng)
            ok_mac &= bool(np.all(out >= 0) and np.all(out <= ctx.backlogs))
    check("criterion 9 (KPI bounds / conservation)", ok_phy and ok_mac,
          "latency in [1, 10]; final backlogs within [0, initial]")


def test_criterion_9g_bit_exact_replay(tmp_path):
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt",
                           target_app="base", alpha=ALPHA, n_cal=40, n_test=5,
                           n_trials=15, base_seed=96)
    blobs = []
    for name in ("x", "y"):
        rep = run_experiment(cfg)
        emit_report(rep, tmp_path / name)
        blobs.append((tmp_path / name / "trials.csv").read_bytes()
                     + (tmp_path / name / "aggregate.csv").read_bytes())
    check("criterion 9 (bit-exact replay)", blobs[0] == blobs[1],
          f"two runs from base_seed={cfg.base_seed} emit identical report bytes")
