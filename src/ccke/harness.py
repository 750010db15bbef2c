"""End-to-end counterfactual KPI experiments.

The harness wires a simulator, its app-selection policy, a quantile
model and the conformal calibration layer into repeatable experiments:
log data under the selection policy, keep the target app's samples,
train, then per trial draw fresh calibration/test sets, compute the
CCKE / NCCKE / CKE corrections of the whole test set as arrays, and
score coverage and normalized inefficiency.

A fully synthetic scalar environment with analytically known quantiles
and exact density ratios backs the coverage-guarantee test suites
(exact weights, perturbed weights, noisy KPI observations).

Randomness derives from one base seed through fixed stream labels, so
any trial is reproducible in isolation and full runs are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import mac_sim, phy_sim, quantile_net
from .conformal import (
    ContractViolationError,
    DegeneratePolicyError,
    PredictionSet,
    compute_score,
    weighted_corrections,
)
# unused here, but bound: perfbench/tracer.py wraps these names in this module's namespace
from .conformal import ccke_prediction_set, cke_prediction_set, nccke_prediction_set  # noqa: F401

__all__ = [
    "LoggedSample",
    "NoiseSpec",
    "ExperimentConfig",
    "TrialResult",
    "ExperimentReport",
    "MacEnvironment",
    "PhyEnvironment",
    "SyntheticEnvironment",
    "build_environment",
    "rng_for",
    "log_dataset",
    "select_and_split",
    "evaluate_coverage",
    "evaluate_inefficiency",
    "InefficiencyReport",
    "counterfactual_truth",
    "run_experiment",
    "METHODS",
]

METHODS = ("CCKE", "NCCKE", "CKE")

# rng stream labels (SeedSequence entropy path: [base_seed, stream, index])
_STREAM_TRAIN_DATA = 1
_STREAM_TRAIN_MODEL = 2
_STREAM_TRIAL_CAL = 3
_STREAM_TRIAL_TEST = 4
_STREAM_TRIAL_NOISE = 5

_MAX_REJECTION_DRAWS = 50_000_000


def rng_for(base_seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream, index); stable across runs."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(base_seed), int(stream), int(index)])))


@dataclass(frozen=True)
class LoggedSample:
    """One observation: the context, the app that ran, and its KPI vector."""

    context: object
    app: object
    kpi: np.ndarray


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian KPI observation noise.

    ``skew_bound`` is min(P(eps >= 0), P(eps <= 0)); 0.5 for any
    symmetric distribution, and the coverage floor degrades to
    1 - alpha / skew_bound.
    """

    sigma: float = 1.0
    skew_bound: float = 0.5

    def __post_init__(self):
        if self.sigma < 0.0 or not 0.0 < self.skew_bound <= 0.5:
            raise ContractViolationError("sigma >= 0 and 0 < skew_bound <= 0.5 required")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=size)


# ---------------------------------------------------------------------------
# environments


class MacEnvironment:
    """Scheduling simulator bundle: K users, logistic policy, frame config."""

    name = "mac"

    def __init__(self, n_users: int = 8, temperature: float = 1.0,
                 policy: Optional[mac_sim.MacPolicy] = None,
                 frame_cfg: Optional[mac_sim.FrameConfig] = None):
        self.n_users = n_users
        self.policy = policy or mac_sim.MacPolicy.default(n_users, temperature)
        self.frame_cfg = frame_cfg or mac_sim.FrameConfig()
        self.apps = mac_sim.MAC_APPS
        self.kpi_count = n_users

    def parse_app(self, label: str) -> str:
        if label not in self.apps:
            raise ContractViolationError(f"unknown MAC app {label!r}")
        return label

    def app_label(self, app) -> str:
        return app

    def sample_context(self, rng):
        return mac_sim.generate_context(self.n_users, rng)

    def app_probability(self, ctx, app) -> float:
        return self.policy.app_probability(ctx, app)

    def weight(self, ctx, numer_app, denom_app) -> float:
        return self.policy.weight(ctx, numer_app, denom_app)

    def rollout(self, app, ctx, rng) -> np.ndarray:
        return mac_sim.run_frame(app, ctx, self.policy, self.frame_cfg, rng).astype(float)

    def sample_contexts_given_app(self, app, n, rng):
        """Rejection sampling from p(x | app); batched and vectorized."""
        table = self.policy.payload_table
        temp = self.policy.temperature
        out, total = [], 0
        batch = max(1024, 2 * n)
        while len(out) < n:
            if total > _MAX_REJECTION_DRAWS:
                raise DegeneratePolicyError(
                    f"app {app!r} too rare under the selection policy "
                    f"({len(out)}/{n} contexts after {total} draws)")
            b = rng.integers(mac_sim.BACKLOG_MIN, mac_sim.BACKLOG_MAX + 1,
                             size=(batch, self.n_users))
            c = rng.integers(1, 16, size=(batch, self.n_users))
            resid = np.max(b - table[c - 1] / self.n_users, axis=1)
            z = -resid / temp
            e = np.exp(-np.minimum(np.abs(z), 700.0))  # exp(-z) for z >= 0, exp(z) below
            p_rr = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
            p_app = p_rr if app == mac_sim.RR else 1.0 - p_rr
            accept = rng.random(batch) < p_app
            for i in np.flatnonzero(accept):
                out.append(mac_sim.MacContext(initial_backlogs=b[i], cqis=c[i]))
                if len(out) == n:
                    break
            total += batch
        return out

    def model_features(self, ctx) -> np.ndarray:
        return ctx.features()

    def make_arch(self):
        return quantile_net.AttentionArch(feature_scale=(float(mac_sim.BACKLOG_MAX), 15.0))

    def inefficiency_normalizer(self, ctx) -> float:
        return float(np.max(ctx.initial_backlogs))

    def clip_domain(self, ctx):
        return 0.0, float(np.max(ctx.initial_backlogs))


class PhyEnvironment:
    """Link simulator bundle: SER-softmax policy plus ARQ configuration."""

    name = "phy"

    def __init__(self, temperature: float = 1.0,
                 ser_table: Optional[phy_sim.SerTable] = None,
                 arq: Optional[phy_sim.ArqConfig] = None):
        if ser_table is None:
            ser_table = phy_sim.SerTable.build()
        self.policy = phy_sim.PhyPolicy(temperature=temperature, ser_table=ser_table)
        self.arq = arq or phy_sim.ArqConfig()
        self.apps = phy_sim.PHY_APPS
        self.kpi_count = 1

    def parse_app(self, label: str):
        return phy_sim.TransmissionApp.from_key(label)

    def app_label(self, app) -> str:
        return app.key

    def sample_context(self, rng):
        return phy_sim.sample_context(rng)

    def app_probability(self, ctx, app) -> float:
        return self.policy.app_probability(ctx, app)

    def weight(self, ctx, numer_app, denom_app) -> float:
        return self.policy.weight(ctx, numer_app, denom_app)

    def rollout(self, app, ctx, rng) -> np.ndarray:
        return np.array([float(phy_sim.transmit_arq(app, ctx, self.arq, rng))])

    def sample_contexts_given_app(self, app, n, rng):
        """Exact draw from p(x | app).

        The policy is piecewise constant on (SNR bin, m) cells, so the
        app-conditional context law factors exactly into a categorical
        over cells times the context law restricted to the cell.  This
        stays usable at sharp temperatures where the selected app is so
        rare that rejection sampling would never terminate.
        """
        from scipy.special import logsumexp
        from scipy.stats import norm

        table = self.policy.ser_table
        a = phy_sim.PHY_APPS.index(app)
        u = 1.0 / (table.values * self.policy.temperature)  # (4, bins, m)
        log_p_app = u[a] - logsumexp(u, axis=0)              # (bins, m)
        bin_mass = phy_sim.snr_bin_masses(table.snr_lo, table.bin_width, table.n_bins)
        log_post = np.log(bin_mass)[:, None] - math.log(phy_sim.PATHS_MAX) + log_p_app
        flat = log_post.ravel()
        flat = flat - logsumexp(flat)
        post = np.exp(flat)
        post = post / post.sum()
        cells = rng.choice(post.size, size=n, p=post)
        bins, m_idx = np.unravel_index(cells, log_post.shape)
        lo_edges = table.snr_lo + bins * table.bin_width
        mu, sd = phy_sim.SNR_DB_MEAN, phy_sim.SNR_DB_SIGMA
        c_lo = norm.cdf((lo_edges - mu) / sd)
        c_hi = norm.cdf((lo_edges + table.bin_width - mu) / sd)
        snrs = mu + sd * norm.ppf(rng.uniform(c_lo, c_hi))
        snrs = np.clip(snrs, lo_edges, np.nextafter(lo_edges + table.bin_width, -np.inf))
        return [phy_sim.PhyContext(snr_db=float(s), paths=int(m) + 1)
                for s, m in zip(snrs, m_idx)]

    def model_features(self, ctx) -> np.ndarray:
        return ctx.features()

    def make_arch(self):
        return quantile_net.FeedforwardArch(
            widths=(2, 10, 10, 5, 2),
            feature_scale=(phy_sim.SNR_DB_MAX, float(phy_sim.PATHS_MAX)))

    def inefficiency_normalizer(self, ctx) -> float:
        return 1.0

    def clip_domain(self, ctx):
        return 1.0, float(self.arq.max_retx)


class SyntheticEnvironment:
    """Scalar toy environment with closed-form quantiles and exact weights.

    Context x ~ N(0, 1); the "alt" app is chosen with logistic probability
    sigma(x / selection_temperature); KPI under app a is
    ``offset_a + x + Uniform(-half_width, half_width)``.  Because every
    conditional quantile is known in closed form, the calibration layer
    can be exercised with zero model error.
    """

    name = "synthetic"
    has_exact_model = True

    def __init__(self, selection_temperature: float = 1.0,
                 offsets=(0.0, 0.5), half_width: float = 1.0):
        if selection_temperature <= 0.0 or half_width <= 0.0:
            raise ContractViolationError("temperature and half_width must be positive")
        self.selection_temperature = selection_temperature
        self.offsets = {"base": float(offsets[0]), "alt": float(offsets[1])}
        self.half_width = float(half_width)
        self.apps = ("base", "alt")
        self.kpi_count = 1

    def parse_app(self, label: str) -> str:
        if label not in self.apps:
            raise ContractViolationError(f"unknown synthetic app {label!r}")
        return label

    def app_label(self, app) -> str:
        return app

    def sample_context(self, rng) -> float:
        return float(rng.normal())

    def _p_alt(self, x):
        z = np.asarray(x, dtype=float) / self.selection_temperature
        e = np.exp(-np.abs(z))  # exp(-z) on the first branch, exp(z) on the second
        return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def app_probability(self, ctx, app) -> float:
        p = float(self._p_alt(ctx))
        return p if app == "alt" else 1.0 - p

    def weight(self, ctx, numer_app, denom_app) -> float:
        if numer_app == denom_app:
            return 1.0
        z = float(ctx) / self.selection_temperature
        if numer_app == "base":
            z = -z
        return math.exp(min(max(z, -700.0), 700.0))

    def rollout(self, app, ctx, rng) -> np.ndarray:
        y = self.offsets[app] + float(ctx) + rng.uniform(-self.half_width, self.half_width)
        return np.array([y])

    def sample_contexts_given_app(self, app, n, rng):
        out, total = [], 0
        batch = max(1024, 2 * n)
        while len(out) < n:
            if total > _MAX_REJECTION_DRAWS:
                raise DegeneratePolicyError(f"app {app!r} too rare under the policy")
            x = rng.normal(size=batch)
            p = self._p_alt(x)
            if app == "base":
                p = 1.0 - p
            accept = rng.random(batch) < p
            out.extend(float(v) for v in x[accept][: n - len(out)])
            total += batch
        return out

    def exact_bounds(self, contexts, app, alpha: float):
        """True (alpha/2, 1-alpha/2) conditional quantiles of the KPI, as
        (n, 1) lower and upper bounds."""
        mid = self.offsets[app] + np.asarray(contexts, dtype=float)[:, None]
        spread = (1.0 - alpha) * self.half_width
        return mid - spread, mid + spread

    def model_features(self, ctx) -> np.ndarray:
        return np.array([float(ctx)])

    def inefficiency_normalizer(self, ctx) -> float:
        return 1.0

    def clip_domain(self, ctx):
        return -10.0, 10.0


# ---------------------------------------------------------------------------
# dataset operations


def log_dataset(env, n: int, rng: np.random.Generator):
    """n i.i.d. (context, app, KPI) observations under the selection policy."""
    if n < 1:
        raise ContractViolationError("n must be >= 1")
    samples = []
    for _ in range(n):
        ctx = env.sample_context(rng)
        u, app = rng.random(), env.apps[-1]
        acc = 0.0
        for candidate in env.apps:
            acc += env.app_probability(ctx, candidate)
            if u < acc:
                app = candidate
                break
        samples.append(LoggedSample(context=ctx, app=app, kpi=env.rollout(app, ctx, rng)))
    return samples


def select_and_split(data: Sequence[LoggedSample], target_app, n_cal: int,
                     rng: np.random.Generator):
    """Keep the target app's samples; random calibration/training split."""
    selected = [s for s in data if s.app == target_app]
    n_sel = len(selected)
    if n_sel < n_cal + 1:
        raise ContractViolationError(
            f"only {n_sel} samples logged under app {target_app!r}; "
            f"need at least {n_cal + 1} for a size-{n_cal} calibration split")
    order = rng.permutation(n_sel)
    cal = [selected[i] for i in order[:n_cal]]
    train = [selected[i] for i in order[n_cal:]]
    return train, cal


def counterfactual_truth(env, context, target_app, rng: np.random.Generator) -> np.ndarray:
    """KPI the target app would attain under this very context.

    Only the simulator can grant this: it reruns the environment with
    the same context under the alternative app, which the real system
    never observes.
    """
    return env.rollout(target_app, context, rng)


# ---------------------------------------------------------------------------
# metrics


def _scores(lo: np.ndarray, hi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``compute_score`` of every row of (n, K) bounds against (n, K) KPIs."""
    return np.max(np.maximum(lo - y, y - hi), axis=1)


def _corrections(sets: Sequence[PredictionSet]) -> np.ndarray:
    return np.array([s.correction.value for s in sets], dtype=float)


def _coverage(scores: np.ndarray, corrections: np.ndarray) -> float:
    """Fraction of rows covered: unbounded, or score within the correction."""
    if scores.size == 0:
        raise ContractViolationError("no test samples to evaluate")
    covered = np.count_nonzero(np.isinf(corrections) | (scores <= corrections))
    return int(covered) / scores.size


def evaluate_coverage(sets: Sequence[PredictionSet], truths: Sequence) -> float:
    """Fraction of test samples whose every KPI lies in its interval."""
    if len(sets) != len(truths):
        raise ContractViolationError(f"{len(sets)} sets against {len(truths)} truths")
    scores = [compute_score(s.naive, y) for s, y in zip(sets, truths)]
    return _coverage(np.array(scores, dtype=float), _corrections(sets))


@dataclass(frozen=True)
class InefficiencyReport:
    """Mean normalized widths.  ``clipped`` replaces unbounded sets with
    the KPI-domain width; ``raw`` averages the bounded sets only."""

    clipped: float
    raw: float
    n_unbounded: int


def _inefficiency(lo: np.ndarray, hi: np.ndarray, corrections: np.ndarray,
                  normalizers: np.ndarray, domains: Optional[Sequence]) -> InefficiencyReport:
    """:func:`evaluate_inefficiency` on (n, K) bounds and (n,) corrections."""
    if corrections.size == 0:
        raise ContractViolationError("no prediction sets to evaluate")
    ok = np.isfinite(normalizers) & (normalizers > 0.0)
    if not ok.all():
        raise ContractViolationError(f"normalizer {normalizers[~ok][0]} must be finite and positive")
    unbounded = np.isinf(corrections)
    q = corrections[:, None]
    widths = np.maximum((hi + q) - (lo - q), 0.0)
    if unbounded.any():
        if domains is None:
            raise ContractViolationError("unbounded prediction set needs a clipping domain")
        dom = np.asarray(domains, dtype=float)[unbounded]
        span = dom[:, 1] - dom[:, 0]
        if np.any(span < 0.0):
            raise ContractViolationError("empty clipping domain")
        widths[unbounded] = span[:, None]
    terms = np.mean(widths, axis=1) / normalizers
    raw = float(np.mean(terms[~unbounded])) if not unbounded.all() else math.inf
    return InefficiencyReport(clipped=float(np.mean(terms)), raw=raw,
                              n_unbounded=int(np.count_nonzero(unbounded)))


def evaluate_inefficiency(sets: Sequence[PredictionSet], normalizers: Sequence[float],
                          domains: Optional[Sequence] = None) -> InefficiencyReport:
    """Mean over samples of (1/K) sum_k |interval_k| / normalizer.

    ``domains`` supplies per-sample (lo, hi) KPI bounds; required as soon
    as any set is unbounded.
    """
    if len(sets) != len(normalizers):
        raise ContractViolationError("one normalizer per prediction set required")
    if not sets:
        raise ContractViolationError("no prediction sets to evaluate")
    lo = np.stack([s.naive.lo for s in sets])
    hi = np.stack([s.naive.hi for s in sets])
    return _inefficiency(lo, hi, _corrections(sets), np.asarray(normalizers, dtype=float),
                         domains)


# ---------------------------------------------------------------------------
# experiment configuration and execution


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str = "mac"
    alpha: float = 0.2
    temperature: float = 1.0
    actual_app: str = "PFCA"
    target_app: str = "RR"
    n_train: int = 3000
    n_cal: int = 50
    n_test: int = 100
    n_trials: int = 200
    base_seed: int = 0
    methods: tuple = METHODS
    weight_perturbation: Optional[float] = None  # uniform half-width of (1+u) factor
    kpi_noise: Optional[NoiseSpec] = None
    n_users: int = 8
    y_max: int = 10
    symbols_per_packet: int = 8
    ser_table_path: Optional[str] = None
    retrain_per_trial: bool = False
    train_epochs: int = 200
    train_batch: int = 64
    train_step: float = 1e-2
    selection_temperature: float = 1.0  # synthetic environment only

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ContractViolationError("alpha must lie in (0, 1)")
        if min(self.n_train, self.n_cal, self.n_test, self.n_trials) < 1:
            raise ContractViolationError("n_train, n_cal, n_test, n_trials must be >= 1")
        if self.alpha < 1.0 / (self.n_cal + 1):
            raise ContractViolationError(
                f"alpha={self.alpha} below the feasible minimum "
                f"{1.0 / (self.n_cal + 1)} for n_cal={self.n_cal}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ContractViolationError(f"unknown methods {sorted(unknown)}")
        if self.weight_perturbation is not None and not 0.0 <= self.weight_perturbation <= 1.0:
            raise ContractViolationError("weight_perturbation must lie in [0, 1]")


@dataclass(frozen=True)
class TrialResult:
    method: str
    trial: int
    coverage: float
    inefficiency_raw: float
    inefficiency_clipped: float
    n_unbounded: int
    seed: int
    corrections: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class BoxStats:
    median: float
    mean: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outlier_count: int

    @classmethod
    def from_values(cls, values) -> "BoxStats":
        v = np.asarray(values, dtype=float)
        if v.size == 0 or not np.all(np.isfinite(v)):
            inf = math.inf
            return cls(median=inf, mean=inf, q1=inf, q3=inf,
                       whisker_lo=inf, whisker_hi=inf, outlier_count=0)
        q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = v[(v >= lo_fence) & (v <= hi_fence)]
        return cls(median=float(med), mean=float(v.mean()), q1=float(q1), q3=float(q3),
                   whisker_lo=float(inside.min()), whisker_hi=float(inside.max()),
                   outlier_count=int(np.sum((v < lo_fence) | (v > hi_fence))))


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    trials: tuple
    weight_error_mean: Optional[float] = None  # measured E|w_hat - w| if perturbed

    def trials_for(self, method: str):
        return [t for t in self.trials if t.method == method]

    def mean_coverage(self, method: str) -> float:
        return float(np.mean([t.coverage for t in self.trials_for(method)]))

    def mean_inefficiency(self, method: str, clipped: bool = True) -> float:
        key = "inefficiency_clipped" if clipped else "inefficiency_raw"
        vals = [getattr(t, key) for t in self.trials_for(method)]
        return float(np.mean(vals))

    def aggregates(self) -> dict:
        """(method, metric) -> BoxStats for coverage and both inefficiencies."""
        out = {}
        for method in self.config.methods:
            rows = self.trials_for(method)
            out[(method, "coverage")] = BoxStats.from_values([t.coverage for t in rows])
            out[(method, "inefficiency_clipped")] = BoxStats.from_values(
                [t.inefficiency_clipped for t in rows])
            finite_raw = [t.inefficiency_raw for t in rows if math.isfinite(t.inefficiency_raw)]
            out[(method, "inefficiency_raw")] = BoxStats.from_values(
                finite_raw if finite_raw else [math.inf])
        return out


def build_environment(cfg: ExperimentConfig):
    if cfg.environment == "mac":
        return MacEnvironment(n_users=cfg.n_users, temperature=cfg.temperature)
    if cfg.environment == "phy":
        if cfg.ser_table_path:
            table = phy_sim.SerTable.load(cfg.ser_table_path)
        else:
            table = phy_sim.SerTable.build()
        arq = phy_sim.ArqConfig(max_retx=cfg.y_max,
                                symbols_per_packet=cfg.symbols_per_packet)
        return PhyEnvironment(temperature=cfg.temperature, ser_table=table, arq=arq)
    if cfg.environment == "synthetic":
        return SyntheticEnvironment(selection_temperature=cfg.selection_temperature)
    raise ContractViolationError(f"unknown environment {cfg.environment!r}")


def _train_model(env, cfg: ExperimentConfig, contexts, kpis, seed: int):
    x = np.stack([env.model_features(c) for c in contexts])
    y = np.stack([np.asarray(k, dtype=float) for k in kpis])
    if y.shape[1] == 1:
        y = y[:, 0]
    train_cfg = quantile_net.TrainConfig(epochs=cfg.train_epochs,
                                         batch_size=cfg.train_batch,
                                         step_size=cfg.train_step, seed=seed)
    return quantile_net.train((x, y), env.make_arch(), cfg.alpha, train_cfg)


def _draw_labeled(env, app, n, rng, noise: Optional[NoiseSpec], noise_rng):
    """Contexts from p(x | app) with lazily materialized KPI rollouts."""
    contexts = env.sample_contexts_given_app(app, n, rng)
    kpis = [env.rollout(app, c, rng) for c in contexts]
    if noise is not None:
        kpis = [k + noise.draw(noise_rng, k.shape) for k in kpis]
    return contexts, kpis


def run_experiment(cfg: ExperimentConfig, environment=None,
                   progress: bool = False) -> ExperimentReport:
    """Execute one full experiment; never emits a partial report.

    The quantile model is trained once on a fixed training split and
    reused across trials (per-trial retraining sits behind
    ``retrain_per_trial``).  Each trial draws a fresh calibration set
    under the target app and a fresh test set under the actual app; all
    requested methods see identical test data.
    """
    env = environment if environment is not None else build_environment(cfg)
    target = env.parse_app(cfg.target_app)
    actual = env.parse_app(cfg.actual_app)
    if target == actual:
        raise ContractViolationError("target and actual app must differ")

    exact_model = getattr(env, "has_exact_model", False)
    model = None
    if not exact_model and not cfg.retrain_per_trial:
        rng_tr = rng_for(cfg.base_seed, _STREAM_TRAIN_DATA)
        noise_rng = rng_for(cfg.base_seed, _STREAM_TRIAL_NOISE)
        contexts, kpis = _draw_labeled(env, target, cfg.n_train, rng_tr,
                                       cfg.kpi_noise, noise_rng)
        model = _train_model(env, cfg, contexts, kpis, seed=cfg.base_seed)

    def bounds_for(contexts):
        """(n, K) lower and upper quantile bounds of the target app."""
        if exact_model:
            return env.exact_bounds(contexts, target, cfg.alpha)
        return model.predict(np.stack([env.model_features(c) for c in contexts]))

    def weights(contexts) -> np.ndarray:
        return np.array([env.weight(c, actual, target) for c in contexts], dtype=float)

    trials = []
    weight_errors = []
    for t in range(cfg.n_trials):
        rng_cal = rng_for(cfg.base_seed, _STREAM_TRIAL_CAL, t)
        rng_test = rng_for(cfg.base_seed, _STREAM_TRIAL_TEST, t)
        rng_noise = rng_for(cfg.base_seed, _STREAM_TRIAL_NOISE, t + 1)

        if cfg.retrain_per_trial and not exact_model:
            contexts, kpis = _draw_labeled(env, target, cfg.n_train, rng_cal,
                                           cfg.kpi_noise, rng_noise)
            model = _train_model(env, cfg, contexts, kpis, seed=cfg.base_seed + t)

        cal_ctx, cal_kpi = _draw_labeled(env, target, cfg.n_cal, rng_cal,
                                         cfg.kpi_noise, rng_noise)
        cal_scores = _scores(*bounds_for(cal_ctx), np.stack(cal_kpi))

        test_ctx = env.sample_contexts_given_app(actual, cfg.n_test, rng_test)
        truths = np.stack([counterfactual_truth(env, c, target, rng_test) for c in test_ctx])
        test_lo, test_hi = bounds_for(test_ctx)
        test_scores = _scores(test_lo, test_hi, truths)

        # exact density-ratio weights, optionally perturbed once per point
        # (calibration points first, then test points)
        w_cal, w_test = weights(cal_ctx), weights(test_ctx)
        if cfg.weight_perturbation is not None:
            delta = cfg.weight_perturbation
            factor = 1.0 + rng_noise.uniform(-delta, delta, size=cfg.n_cal + cfg.n_test)
            w_cal, w_exact = w_cal * factor[:cfg.n_cal], w_cal
            w_test = w_test * factor[cfg.n_cal:]
            weight_errors.append(np.abs(w_cal - w_exact))

        normalizers = np.array([env.inefficiency_normalizer(c) for c in test_ctx],
                               dtype=float)
        domains = [env.clip_domain(c) for c in test_ctx]
        for method in cfg.methods:
            if method == "CCKE":
                corrections = weighted_corrections(cal_scores, w_cal, w_test, cfg.alpha)
            elif method == "NCCKE":
                corrections = weighted_corrections(cal_scores, np.ones(cfg.n_cal),
                                                   np.ones(cfg.n_test), cfg.alpha)
            else:
                corrections = np.zeros(cfg.n_test)
            ineff = _inefficiency(test_lo, test_hi, corrections, normalizers, domains)
            trials.append(TrialResult(
                method=method, trial=t, coverage=_coverage(test_scores, corrections),
                inefficiency_raw=ineff.raw, inefficiency_clipped=ineff.clipped,
                n_unbounded=ineff.n_unbounded, seed=cfg.base_seed,
                corrections=corrections))
        if progress and (t + 1) % 25 == 0:
            done = sum(1 for _ in trials)
            print(f"  trial {t + 1}/{cfg.n_trials} ({done} results)")

    weight_error_mean = (float(np.mean(np.concatenate(weight_errors)))
                         if weight_errors else None)
    return ExperimentReport(config=cfg, trials=tuple(trials),
                            weight_error_mean=weight_error_mean)
