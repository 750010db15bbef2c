"""End-to-end counterfactual KPI experiments.

The harness wires a simulator, its app-selection policy, a quantile
model and the conformal calibration layer into repeatable experiments:
log data under the selection policy, keep the target app's samples,
train, then per trial draw fresh calibration/test sets, compute the
CCKE / NCCKE / CKE corrections of the whole test set as arrays, and
score coverage and normalized inefficiency.

Trials run in blocks of ``TRIAL_BLOCK``, in three phases per block.  The
draw phase makes every trial's draws from its own generators, in the
order a trial run alone makes them, with the block's rollouts in one
call of one generator segment per set.  The predict phase computes the
bounds and weights of every row of the block at once.  The calibrate
and metrics phases compute scores, corrections, coverage and
inefficiency of all trials as stacked (T, n) arrays.  A trial's numbers
do not depend on its block, and the report carries each stage's wall
seconds.

On Linux a forked child draws every trial block but the last, or a lone
block, while the model trains, and large attention models train in two
processes; ``run_experiment`` says when it forks and what that costs.

A fully synthetic scalar environment with analytically known quantiles
and exact density ratios backs the coverage-guarantee test suites
(exact weights, perturbed weights, noisy KPI observations).

Randomness derives from one base seed through fixed stream labels, so
any trial is reproducible in isolation and full runs are byte-stable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import _fork, mac_sim, phy_sim, quantile_net
from ._rowmax import row_max
from .conformal import (
    ContractViolationError,
    DegeneratePolicyError,
    clipped_exp,
    require_integers,
    rng_segments,
    weighted_corrections,
)

# placeholders for perfbench/layers.py, whose tracer wraps these names in this
# module; ROADMAP item 1 re-points its spans at the array path and removes them
ccke_prediction_set = nccke_prediction_set = cke_prediction_set = None
compute_score = evaluate_coverage = evaluate_inefficiency = None

__all__ = [
    "NoiseSpec",
    "ExperimentConfig",
    "TrialResult",
    "ExperimentReport",
    "MacEnvironment",
    "PhyEnvironment",
    "SyntheticEnvironment",
    "build_environment",
    "rng_for",
    "run_experiment",
    "METHODS",
    "STAGES",
    "TRIAL_BLOCK",
]

METHODS = ("CCKE", "NCCKE", "CKE")

# rng stream labels (SeedSequence entropy path: [base_seed, stream, index])
_STREAM_TRAIN_DATA = 1
_STREAM_TRIAL_CAL = 3
_STREAM_TRIAL_TEST = 4
_STREAM_TRIAL_NOISE = 5

_MAX_REJECTION_DRAWS = 50_000_000


def rng_for(base_seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream, index); stable across runs."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(base_seed), int(stream), int(index)])))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian KPI observation noise, standard deviation ``sigma``."""

    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ContractViolationError(f"0 <= sigma < inf required, got {self.sigma!r}")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=size)


# ---------------------------------------------------------------------------
# environments
#
# Every environment works on a batch of n contexts held as arrays (mac:
# ``MacContexts`` of (n, K) backlogs and CQIs; phy: ``PhyContexts`` of (n,)
# SNRs and path counts; synthetic: an (n,) float array) through one
# protocol: ``sample_contexts_given_app(app, n, rng)``, ``rollout(app, ctx,
# rng) -> (n, K)``, ``weight(ctx, numer, denom) -> (n,)``, and the model
# and metric inputs ``features(ctx)``, ``normalizers(ctx) -> (n,)`` and
# ``domains(ctx) -> (n, 2)``.  ``has_exact_model`` says whether the
# environment supplies ``exact_bounds`` in place of a trained model; if
# not, its class attribute ``arch`` names the quantile network
# (``quantile_net.ATTENTION`` or ``FEEDFORWARD``), and ``features(ctx)``
# returns that network's inputs already scaled, each context field over
# its range.  A rollout's ``rng`` is a generator or a sequence of
# (generator, row count) segments (``conformal.rng_segments``); each
# segment draws exactly as a rollout of its rows alone would, so the
# trials of a block share one rollout call while each keeps its own
# generators.


def _row_count(n) -> int:
    """``n`` as a number of contexts to draw; a negative count raises."""
    if n < 0:
        raise ContractViolationError(f"cannot draw {n} contexts")
    return n


def _rejection_sample(draw, accept_prob, n: int, rng: np.random.Generator, app):
    """n >= 1 rows from p(x | app) by rejection: ``draw(batch)`` returns a
    tuple of candidate arrays (rows along axis 0), and row i is kept when a
    uniform from ``rng`` falls below ``accept_prob(*candidates)[i]``.

    Rounds are drawn whole: the candidates first, then ``rng.random(batch)``,
    so the draws never depend on how many rows a round keeps.  Acceptance is
    evaluated only as far as needed: over a head of the round sized from the
    rows still needed, and over the rest of the round only if the head keeps
    too few.  ``accept_prob`` is row-wise, so its value on a slice of rows is
    that slice of its value on the round.  The first n kept rows, in draw
    order, are returned as a tuple of arrays.
    """
    parts, have, total = [], 0, 0
    batch = max(1024, 2 * n)
    while have < n:
        if total > _MAX_REJECTION_DRAWS:
            raise DegeneratePolicyError(
                f"app {app!r} too rare under the selection policy "
                f"({have}/{n} contexts after {total} draws)")
        candidates = draw(batch)
        u = rng.random(batch)
        need = n - have
        # at an acceptance rate of a third or more the head all but surely
        # keeps the rows needed; the default mac and synthetic policies
        # accept 35-65% of candidates
        head = min(batch, 4 * need + 64)
        keep = np.flatnonzero(u[:head] < accept_prob(*(c[:head] for c in candidates)))[:need]
        if keep.size < need and head < batch:
            rest = np.flatnonzero(u[head:] < accept_prob(*(c[head:] for c in candidates)))
            keep = np.concatenate([keep, head + rest[:need - keep.size]])
        parts.append([c[keep] for c in candidates])
        have += keep.size
        total += batch
    return tuple(np.concatenate(column) for column in zip(*parts))


class MacEnvironment:
    """Scheduling simulator bundle: K users, logistic policy, frame config."""

    has_exact_model = False
    arch = quantile_net.ATTENTION

    def __init__(self, n_users: int = 8, temperature: float = 1.0,
                 policy: Optional[mac_sim.MacPolicy] = None,
                 frame_cfg: Optional[mac_sim.FrameConfig] = None):
        self.n_users = n_users
        self.policy = policy or mac_sim.MacPolicy.default(n_users, temperature)
        self.frame_cfg = frame_cfg or mac_sim.FrameConfig()

    def parse_app(self, label: str) -> str:
        if label not in mac_sim.MAC_APPS:
            raise ContractViolationError(f"unknown MAC app {label!r}")
        return label

    def sample_contexts_given_app(self, app, n, rng) -> mac_sim.MacContexts:
        """Rejection sampling from p(x | app): backlogs, then CQIs, per
        round.  ``n = 0`` gives an empty batch and draws nothing."""
        if _row_count(n) == 0:
            empty = np.empty((0, self.n_users), dtype=np.int64)
            return mac_sim.MacContexts(empty, empty)

        def draw(batch):
            size = (batch, self.n_users)
            return (rng.integers(mac_sim.BACKLOG_MIN, mac_sim.BACKLOG_MAX + 1, size=size),
                    rng.integers(1, 16, size=size))

        return mac_sim.MacContexts(*_rejection_sample(
            draw, lambda b, c: self._accept_prob(app, b, c), n, rng, app))

    def _accept_prob(self, app, backlogs, cqis) -> np.ndarray:
        """p(app | x) of candidate rows, row by row."""
        return self.policy.app_probability(mac_sim.MacContexts(backlogs, cqis), app)

    def weight(self, ctx, numer_app, denom_app) -> np.ndarray:
        return self.policy.weight(ctx, numer_app, denom_app)

    def rollout(self, app, ctx, rng) -> np.ndarray:
        """(n, K) KPIs of ``app`` under each context, one frame per row in
        order.  Only the simulator can grant this for the app that did not
        run: it reruns the very context under the alternative app, which
        the real system never observes (the counterfactual truth)."""
        return mac_sim.run_frame(app, ctx, self.policy, self.frame_cfg, rng).astype(float)

    def features(self, ctx) -> np.ndarray:
        """(n, 2, K) token matrices, the quantile model's inputs: backlogs
        over ``BACKLOG_MAX`` and CQIs over 15."""
        return np.stack([ctx.backlogs / mac_sim.BACKLOG_MAX, ctx.cqis / 15.0], axis=1)

    def normalizers(self, ctx) -> np.ndarray:
        return row_max(ctx.backlogs).astype(float)

    def domains(self, ctx) -> np.ndarray:
        hi = self.normalizers(ctx)
        return np.stack([np.zeros_like(hi), hi], axis=1)


class PhyEnvironment:
    """Link simulator bundle: SER-softmax policy plus ARQ configuration.

    Without a ``ser_table`` the policy uses the shipped default grid
    (``SerTable.default``).  The exact draw from p(x | app) takes p(app |
    x) from the policy (``PhyPolicy.log_app_probabilities``) and the SNR
    law from ``phy_sim.SNR_LAW``, so each law has one definition.
    """

    has_exact_model = False
    arch = quantile_net.FEEDFORWARD

    def __init__(self, temperature: float = 1.0,
                 ser_table: Optional[phy_sim.SerTable] = None,
                 arq: Optional[phy_sim.ArqConfig] = None):
        if ser_table is None:
            ser_table = phy_sim.SerTable.default()
        self.policy = phy_sim.PhyPolicy(temperature=temperature, ser_table=ser_table)
        self.arq = arq or phy_sim.ArqConfig()
        # p(cell | app) over the flattened (SNR bin, m) cells, m fastest: bin
        # mass times the policy's p(app | cell centre) (m is uniform), taken
        # in log space and shifted by each app's likeliest cell, so an app
        # the policy all but never selects keeps the cells it is likeliest in
        m_max = phy_sim.PATHS_MAX
        centres = phy_sim.PhyContexts(snr_db=np.repeat(phy_sim.SNR_BIN_LOWS + 0.5, m_max),
                                      paths=np.tile(np.arange(1, m_max + 1), phy_sim.N_SNR_BINS))
        log_post = (np.log(np.repeat(phy_sim.snr_bin_masses(), m_max))[:, None]
                    + self.policy.log_app_probabilities(centres))
        post = np.exp(log_post - log_post.max(axis=0))
        post /= post.sum(axis=0)
        self._cell_posteriors = dict(zip(phy_sim.PHY_APPS, np.ascontiguousarray(post.T)))

    def parse_app(self, label: str):
        return phy_sim.TransmissionApp.from_key(label)

    def weight(self, ctx, numer_app, denom_app) -> np.ndarray:
        return self.policy.weight(ctx, numer_app, denom_app)

    def rollout(self, app, ctx, rng) -> np.ndarray:
        """(n, 1) ARQ latencies of ``app`` under each context, from one
        ``arq_latencies`` batch (the counterfactual truth when ``app`` did
        not run; see ``MacEnvironment.rollout``)."""
        return phy_sim.arq_latencies(app, ctx, self.arq, rng).astype(float)[:, None]

    def sample_contexts_given_app(self, app, n, rng) -> phy_sim.PhyContexts:
        """Exact draw from p(x | app).

        The policy is piecewise constant on (SNR bin, m) cells, so the
        app-conditional context law factors exactly into a categorical
        over cells times the context law restricted to the cell.  This
        stays usable at sharp temperatures where the selected app is so
        rare that rejection sampling would never terminate.

        Within the cell, the SNR is ``SNR_LAW.inv_cdf`` of a uniform
        between ``SNR_EDGE_CDF`` at the bin's edges, one row at a time,
        clipped into the bin against rounding.  ``n = 0`` gives an empty
        batch and draws nothing.
        """
        _row_count(n)
        post = self._cell_posteriors[app]
        cells = rng.choice(post.size, size=n, p=post)
        bins, m_idx = np.unravel_index(cells, (phy_sim.N_SNR_BINS, phy_sim.PATHS_MAX))
        lo_edges = phy_sim.SNR_BIN_LOWS[bins]
        u = rng.uniform(phy_sim.SNR_EDGE_CDF[bins], phy_sim.SNR_EDGE_CDF[bins + 1])
        snrs = np.array([phy_sim.SNR_LAW.inv_cdf(p) for p in u.tolist()], dtype=float)
        snrs = np.clip(snrs, lo_edges, np.nextafter(lo_edges + 1.0, -np.inf))
        return phy_sim.PhyContexts(snr_db=snrs, paths=m_idx + 1)

    def features(self, ctx) -> np.ndarray:
        """(n, 2) rows, the quantile model's inputs: SNR in dB over
        ``SNR_DB_MAX`` and path count over ``PATHS_MAX``."""
        return np.stack([ctx.snr_db / phy_sim.SNR_DB_MAX, ctx.paths / phy_sim.PATHS_MAX], axis=1)

    def normalizers(self, ctx) -> np.ndarray:
        return np.ones(len(ctx))

    def domains(self, ctx) -> np.ndarray:
        return np.tile([1.0, float(self.arq.max_retx)], (len(ctx), 1))


class SyntheticEnvironment:
    """Scalar toy environment with closed-form quantiles and exact weights.

    Context x ~ N(0, 1), held as an (n,) float array; the "alt" app is
    chosen with logistic probability sigma(x / selection_temperature); KPI
    under app a is ``OFFSETS[a] + x + Uniform(-HALF_WIDTH, HALF_WIDTH)``.
    Because every conditional quantile is known in closed form, the
    calibration layer can be exercised with zero model error.
    """

    has_exact_model = True
    OFFSETS = {"base": 0.0, "alt": 0.5}
    HALF_WIDTH = 1.0

    def __init__(self, selection_temperature: float = 1.0):
        if not selection_temperature > 0.0:  # NaN fails too
            raise ContractViolationError(
                f"temperature must be positive, got {selection_temperature!r}")
        self.selection_temperature = selection_temperature

    def parse_app(self, label: str) -> str:
        if label not in self.OFFSETS:
            raise ContractViolationError(f"unknown synthetic app {label!r}")
        return label

    def _p_alt(self, x):
        z = np.asarray(x, dtype=float) / self.selection_temperature
        e = np.exp(-np.abs(z))  # exp(-z) on the first branch, exp(z) on the second
        return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def weight(self, ctx, numer_app, denom_app) -> np.ndarray:
        if numer_app == denom_app:
            return np.ones(len(ctx))
        z = ctx / self.selection_temperature
        if numer_app == "base":
            z = -z
        return clipped_exp(z)

    def rollout(self, app, ctx, rng) -> np.ndarray:
        """(n, 1) KPIs of ``app`` under each context (the counterfactual
        truth when ``app`` did not run; see ``MacEnvironment.rollout``):
        one uniform per row, each segment's from its own generator."""
        noise = np.concatenate([g.uniform(-self.HALF_WIDTH, self.HALF_WIDTH, size=rows)
                                for g, rows in rng_segments(rng, len(ctx))])
        return (self.OFFSETS[app] + ctx + noise)[:, None]

    def sample_contexts_given_app(self, app, n, rng) -> np.ndarray:
        """Rejection sampling from p(x | app).  ``n = 0`` gives an empty
        batch and draws nothing."""
        if _row_count(n) == 0:
            return np.empty(0)
        (x,) = _rejection_sample(lambda batch: (rng.normal(size=batch),),
                                 lambda x: self._accept_prob(app, x), n, rng, app)
        return x

    def _accept_prob(self, app, x) -> np.ndarray:
        """p(app | x) of candidate rows, row by row."""
        p = self._p_alt(x)
        return 1.0 - p if app == "base" else p

    def exact_bounds(self, contexts, app, alpha: float):
        """True (alpha/2, 1-alpha/2) conditional quantiles of the KPI, as
        (n, 1) lower and upper bounds."""
        mid = self.OFFSETS[app] + np.asarray(contexts, dtype=float)[:, None]
        spread = (1.0 - alpha) * self.HALF_WIDTH
        return mid - spread, mid + spread

    def features(self, ctx) -> np.ndarray:
        return ctx[:, None]

    def normalizers(self, ctx) -> np.ndarray:
        return np.ones(len(ctx))

    def domains(self, ctx) -> np.ndarray:
        return np.tile([-10.0, 10.0], (len(ctx), 1))


# ---------------------------------------------------------------------------
# metrics


def _scores(lo: np.ndarray, hi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nonconformity scores of every row of (..., K) bounds against (..., K)
    KPIs: the worst-case signed interval violation
    ``max_k max(lo[k] - y[k], y[k] - hi[k])``, positive iff some KPI lies
    outside its interval."""
    return row_max(np.maximum(lo - y, y - hi))


def _coverage(scores: np.ndarray, corrections: np.ndarray) -> list:
    """For each of T sets of (T, n) scores and corrections, the fraction of
    rows covered: unbounded, or score within the correction."""
    n = scores.shape[-1]
    if n == 0:
        raise ContractViolationError("no test samples to evaluate")
    covered = np.count_nonzero(np.isinf(corrections) | (scores <= corrections), axis=-1)
    return [c / n for c in covered.tolist()]


def _inefficiency(lo: np.ndarray, hi: np.ndarray, corrections: np.ndarray,
                  normalizers: np.ndarray, domains: np.ndarray) -> tuple:
    """Mean normalized width ``(1/K) sum_k |interval_k| / normalizer`` of
    each of T sets, from (T, n, K) bounds, (T, n) corrections and
    normalizers and (T, n, 2) KPI domains.  An interval widened by ``q``
    spans ``(hi + q) - (lo - q)``, 0 when crossed; an unbounded set counts
    its domain's width.  Returns the lists of T clipped means, raw means
    (of the bounded sets only; +inf if there are none) and unbounded
    counts."""
    if corrections.shape[-1] == 0:
        raise ContractViolationError("no prediction sets to evaluate")
    ok = np.isfinite(normalizers) & (normalizers > 0.0)
    if not ok.all():
        raise ContractViolationError(f"normalizer {normalizers[~ok][0]} must be finite and positive")
    unbounded = np.isinf(corrections)
    q = corrections[..., None]
    widths = np.maximum((hi + q) - (lo - q), 0.0)
    if unbounded.any():
        dom = domains[unbounded]
        span = dom[:, 1] - dom[:, 0]
        if np.any(span < 0.0):
            raise ContractViolationError("empty clipping domain")
        widths[unbounded] = span[:, None]
    terms = np.mean(widths, axis=-1) / normalizers
    clipped = np.mean(terms, axis=-1).tolist()
    n_unbounded = np.count_nonzero(unbounded, axis=-1).tolist()
    raw = list(clipped)
    for t in np.flatnonzero(n_unbounded):
        # the mean of the bounded terms alone: masking them in place would
        # change the order in which numpy's pairwise sum adds them
        bounded = terms[t][~unbounded[t]]
        raw[t] = float(np.mean(bounded)) if bounded.size else math.inf
    return clipped, raw, n_unbounded


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
    train_epochs: int = 200
    train_batch: int = 64
    train_step: float = 1e-2
    selection_temperature: float = 1.0  # synthetic environment only

    def __post_init__(self):
        # counts and seeds are whole numbers, or a run fails after its
        # training rollouts (a count) or runs as another seed (a seed)
        require_integers(self, "n_train", "n_cal", "n_test", "n_trials", "n_users", "y_max",
                         "symbols_per_packet", "train_epochs", "train_batch", "base_seed")
        if self.base_seed < 0:  # numpy seeds no generator from it
            raise ContractViolationError(f"base_seed must be >= 0, got {self.base_seed}")
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
        if not self.methods:
            raise ContractViolationError("methods must name at least one method")
        if len(set(self.methods)) < len(self.methods):  # would write its rows twice
            raise ContractViolationError(f"methods {tuple(self.methods)} name a method twice")
        if self.weight_perturbation is not None and not 0.0 <= self.weight_perturbation <= 1.0:
            raise ContractViolationError("weight_perturbation must lie in [0, 1]")
        # bad training fields fail here, not after the training rollouts
        quantile_net.TrainConfig(epochs=self.train_epochs, batch_size=self.train_batch,
                                 step_size=self.train_step)


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
class ExperimentReport:
    """An experiment's trials.  ``stage_seconds`` maps each of ``STAGES``
    to the wall seconds ``run_experiment`` spent in it (see there); it is
    not written to the report CSVs."""

    config: ExperimentConfig
    trials: tuple
    weight_error_mean: Optional[float] = None  # measured E|w_hat - w| if perturbed
    stage_seconds: dict = field(default_factory=dict, compare=False)

    def trials_for(self, method: str):
        if method not in self.config.methods:
            raise ContractViolationError(
                f"method {method!r} did not run; the report holds {self.config.methods}")
        return [t for t in self.trials if t.method == method]

    def mean_coverage(self, method: str) -> float:
        return float(np.mean([t.coverage for t in self.trials_for(method)]))

    def mean_inefficiency(self, method: str, clipped: bool = True) -> float:
        key = "inefficiency_clipped" if clipped else "inefficiency_raw"
        vals = [getattr(t, key) for t in self.trials_for(method)]
        return float(np.mean(vals))


def build_environment(cfg: ExperimentConfig):
    if cfg.environment == "mac":
        return MacEnvironment(n_users=cfg.n_users, temperature=cfg.temperature)
    if cfg.environment == "phy":
        table = phy_sim.SerTable.load(cfg.ser_table_path) if cfg.ser_table_path else None
        arq = phy_sim.ArqConfig(max_retx=cfg.y_max,
                                symbols_per_packet=cfg.symbols_per_packet)
        return PhyEnvironment(temperature=cfg.temperature, ser_table=table, arq=arq)
    if cfg.environment == "synthetic":
        return SyntheticEnvironment(selection_temperature=cfg.selection_temperature)
    raise ContractViolationError(f"unknown environment {cfg.environment!r}")


def _train_model(env, cfg: ExperimentConfig, contexts, kpis: np.ndarray, seed: int):
    y = kpis[:, 0] if kpis.shape[1] == 1 else kpis
    train_cfg = quantile_net.TrainConfig(epochs=cfg.train_epochs,
                                         batch_size=cfg.train_batch,
                                         step_size=cfg.train_step, seed=seed)
    return quantile_net.train((env.features(contexts), y), env.arch, cfg.alpha, train_cfg)


TRIAL_BLOCK = 25  # trials per block of run_experiment: bounds its (T, n_test, n_cal) masses
STAGES = ("train", "draw", "predict", "calibrate", "metrics")


class _StageClock:
    """Wall seconds per stage: ``lap(stage)`` charges the time since the
    previous lap to ``stage``."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] += now - self._last
        self._last = now


def _batch(parts):
    """The context batches ``parts`` as one batch, in order."""
    first = parts[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return type(first)(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(first)))


def _draw_block(env, cfg: ExperimentConfig, target, actual, block: range):
    """Phase 1 of a block of trials: every draw, each from its trial's own
    generators, in the order a trial run alone makes them.

    Per trial: the calibration contexts, then their rollouts (``rng_cal``);
    the test contexts, then their truths (``rng_test``); the KPI noise on
    the calibration KPIs, then the weight perturbation (``rng_noise``,
    made only when ``kpi_noise`` or ``weight_perturbation`` is set).
    The block's rollouts are one call with one generator segment per set.
    Returns the block's contexts as one batch, every trial's calibration
    set and then every trial's test set; their (rows, K) KPIs (noisy
    calibration KPIs, then the test truths); and the (T, n_cal + n_test)
    weight perturbation factors, or None.
    """
    noisy = cfg.kpi_noise is not None or cfg.weight_perturbation is not None
    gens = [(rng_for(cfg.base_seed, _STREAM_TRIAL_CAL, t),
             rng_for(cfg.base_seed, _STREAM_TRIAL_TEST, t),
             rng_for(cfg.base_seed, _STREAM_TRIAL_NOISE, t + 1) if noisy else None)
            for t in block]
    cal = [env.sample_contexts_given_app(target, cfg.n_cal, rng_cal) for rng_cal, _, _ in gens]
    test = [env.sample_contexts_given_app(actual, cfg.n_test, rng_test) for _, rng_test, _ in gens]
    segments = ([(rng_cal, cfg.n_cal) for rng_cal, _, _ in gens]
                + [(rng_test, cfg.n_test) for _, rng_test, _ in gens])
    ctx = _batch(cal + test)
    kpis = env.rollout(target, ctx, segments)  # on the test rows: the counterfactual truths
    factors = []
    for i, (_, _, rng_noise) in enumerate(gens):
        if cfg.kpi_noise is not None:
            cal_kpis = kpis[i * cfg.n_cal:(i + 1) * cfg.n_cal]
            cal_kpis += cfg.kpi_noise.draw(rng_noise, cal_kpis.shape)
        if cfg.weight_perturbation is not None:
            # one factor per point, calibration points first, then test points
            delta = cfg.weight_perturbation
            factors.append(1.0 + rng_noise.uniform(-delta, delta, size=cfg.n_cal + cfg.n_test))
    return ctx, kpis, np.array(factors) if factors else None


def _bounds(env, cfg: ExperimentConfig, model, target, ctx, sets: int):
    """Phase 2: (rows, K) lower and upper quantile bounds of the target app
    for a block's contexts, which hold ``sets`` calibration sets and then
    ``sets`` test sets."""
    if env.has_exact_model:
        return env.exact_bounds(ctx, target, cfg.alpha)
    x = env.features(ctx)
    if min(cfg.n_cal, cfg.n_test) > 1:
        return model.predict(x)  # a row's bounds do not depend on the rows around it
    # a 1-row prediction takes BLAS gemv, which rounds differently from a
    # longer pass: predict each set on its own, as a trial run alone would
    edges = np.cumsum([0] + [cfg.n_cal] * sets + [cfg.n_test] * sets)
    parts = [model.predict(x[a:b]) for a, b in zip(edges[:-1], edges[1:])]
    return np.concatenate([lo for lo, _ in parts]), np.concatenate([hi for _, hi in parts])


class _ForkedDraws(_fork.Child):
    """``draw(block)`` of each of ``blocks``, run in a forked child while
    the parent goes on; ``result()`` returns the list of their results."""

    def __init__(self, draw, blocks):
        super().__init__(lambda link: [draw(block) for block in blocks])


def run_experiment(cfg: ExperimentConfig, environment=None,
                   progress: bool = False) -> ExperimentReport:
    """Execute one full experiment; never emits a partial report.

    The quantile model is trained once on a fixed training split and
    reused across trials.  Each trial draws a fresh calibration set under
    the target app and a fresh test set under the actual app, from its own
    generators; all requested methods see identical test data.

    The trials run in blocks of ``TRIAL_BLOCK``, each in three phases:

    1. draw (``_draw_block``): each trial's contexts, KPI noise and weight
       perturbation from its own generators, and the rollouts of the whole
       block in one call, one generator segment per set;
    2. predict: the bounds (``QuantileModel.predict`` or ``exact_bounds``)
       and the weights of every row of the block at once;
    3. calibrate, then metrics: scores, CCKE and NCCKE corrections,
       coverage and inefficiency of all trials of the block as stacked
       (T, n) arrays.

    No trial's numbers depend on its block: each is what the trial run
    alone would give, bit for bit.  ``stage_seconds`` of the report holds
    the wall seconds of training (with its rollouts) and of each phase,
    summed over the blocks.  With ``progress``, the draw phase prints the
    trial count and rate every 25 trials.

    The draws do not depend on the model.  So, with a model to train, one
    forked child (``_ForkedDraws``) draws every block but the last, or
    the only block if there is one, while the parent samples its
    training data and trains, where the package's fork rule allows it
    (``_fork``: Linux, more than one CPU in ``os.sched_getaffinity`` and
    no other thread; a cgroup CPU quota is not read).  After training
    the parent draws its last block, then reads the child's blocks, and
    holds all of their draws at once (about 180 KB for the benchmark's
    phy workload: 50 trials of 150 rows of 24 bytes); the draw stage
    counts the last block plus the wait for the child.  With one block
    the parent draws nothing, and the draw stage counts only the wait for
    the child and the read of its block (1.1 MB pickled for the
    benchmark's mac-k32-pfca workload).  If ``os.pipe`` or ``os.fork``
    fails, and where the rule does not allow a fork, the parent draws
    every block itself.  Training may fork a second kind of child under
    the same rule: for an attention model of at least
    ``quantile_net.SPLIT_TOKENS`` tokens, a worker that runs half of
    each training step's rows and a share of its sums (see
    ``quantile_net.train``), and that leaves before ``train`` returns.
    A failure in a child is raised here with the child's traceback as its
    cause; a failure in the parent kills and reaps every child first.
    """
    clock = _StageClock()
    env = environment if environment is not None else build_environment(cfg)
    target = env.parse_app(cfg.target_app)
    actual = env.parse_app(cfg.actual_app)
    if target == actual:
        raise ContractViolationError("target and actual app must differ")

    blocks = [range(first, min(first + TRIAL_BLOCK, cfg.n_trials))
              for first in range(0, cfg.n_trials, TRIAL_BLOCK)]
    child = None
    if not env.has_exact_model:  # every block but the last, or the only one
        child = _fork.start(lambda: _ForkedDraws(
            lambda block: _draw_block(env, cfg, target, actual, block), blocks[:-1] or blocks))
    try:
        return _run_blocks(env, cfg, target, actual, blocks, child, clock, progress)
    finally:
        if child is not None:
            child.close()


def _run_blocks(env, cfg: ExperimentConfig, target, actual, blocks, child,
                clock: _StageClock, progress: bool) -> ExperimentReport:
    """``run_experiment`` after the environment is built: training, then
    the three phases of each block; ``child``, if not None, draws
    ``blocks[:-1]``, or ``blocks`` if there is one."""
    model = None
    if not env.has_exact_model:
        rng_tr = rng_for(cfg.base_seed, _STREAM_TRAIN_DATA)
        contexts = env.sample_contexts_given_app(target, cfg.n_train, rng_tr)
        kpis = env.rollout(target, contexts, rng_tr)
        if cfg.kpi_noise is not None:
            kpis += cfg.kpi_noise.draw(rng_for(cfg.base_seed, _STREAM_TRIAL_NOISE), kpis.shape)
        model = _train_model(env, cfg, contexts, kpis, seed=cfg.base_seed)
    clock.lap("train")

    n_cal, n_test = cfg.n_cal, cfg.n_test
    trials, weight_errors, drawn = [], [], []  # drawn: every block, when forked, not yet used
    start = time.perf_counter()
    if child is not None:  # the parent's own block first, while the child may still draw
        last = [_draw_block(env, cfg, target, actual, blocks[-1])] if len(blocks) > 1 else []
        drawn = child.result() + last
    for block in blocks:
        ctx, kpis, factors = (drawn.pop(0) if drawn
                              else _draw_block(env, cfg, target, actual, block))
        if progress and len(block) == TRIAL_BLOCK:  # every 25 trials
            rate = (block[-1] + 1) / (time.perf_counter() - start)
            print(f"  trial {block[-1] + 1}/{cfg.n_trials} ({rate:.1f} trials/s)")
        clock.lap("draw")

        n_sets, c = len(block), len(block) * n_cal  # c: the block's calibration rows
        lo, hi = _bounds(env, cfg, model, target, ctx, n_sets)
        w = env.weight(ctx, actual, target)
        clock.lap("predict")

        scores = _scores(lo, hi, kpis)
        cal_scores = scores[:c].reshape(n_sets, n_cal)
        w_cal, w_test = w[:c].reshape(n_sets, n_cal), w[c:].reshape(n_sets, n_test)
        if factors is not None:
            w_cal, w_exact = w_cal * factors[:, :n_cal], w_cal
            w_test = w_test * factors[:, n_cal:]
            weight_errors.append(np.abs(w_cal - w_exact).ravel())
        corrections = {}
        for method in cfg.methods:
            if method == "CCKE":
                corrections[method] = weighted_corrections(cal_scores, w_cal, w_test, cfg.alpha)
            elif method == "NCCKE":
                # unit weights give all test points of a trial one correction
                q = weighted_corrections(cal_scores, np.ones((n_sets, n_cal)),
                                         np.ones((n_sets, 1)), cfg.alpha)
                corrections[method] = np.repeat(q, n_test, axis=1)
            else:
                corrections[method] = np.zeros((n_sets, n_test))
        clock.lap("calibrate")

        k = lo.shape[1]
        test_lo, test_hi = lo[c:].reshape(n_sets, n_test, k), hi[c:].reshape(n_sets, n_test, k)
        test_scores = scores[c:].reshape(n_sets, n_test)
        normalizers = env.normalizers(ctx)[c:].reshape(n_sets, n_test)
        domains = env.domains(ctx)[c:].reshape(n_sets, n_test, 2)
        metrics = {method: (_coverage(test_scores, q),
                            *_inefficiency(test_lo, test_hi, q, normalizers, domains))
                   for method, q in corrections.items()}
        for i, t in enumerate(block):
            for method in cfg.methods:
                coverage, clipped, raw, n_unbounded = metrics[method]
                trials.append(TrialResult(
                    method=method, trial=t, coverage=coverage[i], inefficiency_raw=raw[i],
                    inefficiency_clipped=clipped[i], n_unbounded=n_unbounded[i],
                    seed=cfg.base_seed, corrections=corrections[method][i]))
        clock.lap("metrics")

    weight_error_mean = (float(np.mean(np.concatenate(weight_errors)))
                         if weight_errors else None)
    return ExperimentReport(config=cfg, trials=tuple(trials),
                            weight_error_mean=weight_error_mean,
                            stage_seconds=clock.seconds)
