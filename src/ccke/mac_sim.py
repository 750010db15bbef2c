"""Frame-level uplink multi-access simulator with scheduler selection.

One scheduling frame serves K user queues over F resource blocks.  The
context is the pair (initial backlogs, CQIs); the logged app is either
round-robin (RR) or proportional fair channel aware (PFCA) scheduling;
the KPI vector is the per-user backlog remaining at frame end.

The controller picks RR with a logistic probability driven by a cheap
analytic estimate of RR's worst residual backlog, so app selection is
context dependent and induces the covariate shift the calibration layer
has to absorb.  All randomness flows through explicit generator handles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rowmax import row_max
from .conformal import ContractViolationError, clipped_exp, rng_segments

__all__ = [
    "RR",
    "PFCA",
    "MAC_APPS",
    "CQI_EFFICIENCY",
    "MacContexts",
    "MacPolicy",
    "FrameConfig",
    "default_payload_table",
    "generate_context",
    "estimate_rr_residual",
    "run_frame",
]

RR = "RR"
PFCA = "PFCA"
MAC_APPS = (RR, PFCA)

# Spectral efficiency (bits/symbol) per CQI index 1..15, TS 36.213 Rel-11
# Table 7.2.3-1.  Transcribed, not invented.
CQI_EFFICIENCY = np.array([
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770,
    1.1758, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
])

BACKLOG_MIN = 10
BACKLOG_MAX = 100


@dataclass(frozen=True)
class MacContexts:
    """A batch of n contexts: initial per-user packet backlogs and CQI
    indices (1..15), each an (n, K) int64 array, validated once here."""

    backlogs: np.ndarray
    cqis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.backlogs, dtype=np.int64)
        c = np.asarray(self.cqis, dtype=np.int64)
        if b.shape != c.shape or b.ndim != 2 or b.shape[1] < 1:
            raise ContractViolationError("backlogs and CQIs must be equal (n, K) arrays, K >= 1")
        if np.any(b < 0):
            raise ContractViolationError("backlogs must be nonnegative")
        if np.any((c < 1) | (c > 15)):
            raise ContractViolationError("CQIs must lie in 1..15")
        object.__setattr__(self, "backlogs", b)
        object.__setattr__(self, "cqis", c)

    def __len__(self) -> int:
        return self.backlogs.shape[0]


def default_payload_table(
    n_users: int,
    packets_per_efficiency: float = 3.0,
    sign_balance: float = 0.35,
) -> np.ndarray:
    """Expected full-frame payload g(c) in packets per CQI index.

    Per-user payload share is affine in spectral efficiency,
    ``g(c)/K = base + packets_per_efficiency * eff(c)``, with the base
    solved so that the RR residual-backlog estimate is negative for
    roughly ``sign_balance`` of random contexts at this K.  Keeping both
    signs populated at O(10) magnitudes is what makes every selection
    temperature usable: sharper temperatures still log both apps, and
    large temperatures genuinely approach context-free selection.
    """
    if n_users < 1:
        raise ContractViolationError("n_users must be >= 1")
    if packets_per_efficiency < 0.0:
        raise ContractViolationError("packets_per_efficiency must be >= 0")
    target_single = sign_balance ** (1.0 / n_users)
    n_levels = BACKLOG_MAX - BACKLOG_MIN + 1

    def below_fraction(base):
        thresholds = base + packets_per_efficiency * CQI_EFFICIENCY
        counts = np.clip(np.floor(thresholds) - BACKLOG_MIN + 1, 0, n_levels)
        return float(np.mean(counts / n_levels))

    lo, hi = 0.0, BACKLOG_MAX + packets_per_efficiency * CQI_EFFICIENCY[-1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if below_fraction(mid) < target_single:
            lo = mid
        else:
            hi = mid
    base = 0.5 * (lo + hi)
    return n_users * (base + packets_per_efficiency * CQI_EFFICIENCY)


@dataclass(frozen=True)
class MacPolicy:
    """Logistic scheduler-selection policy.

    ``payload_table[c-1]`` maps CQI c to the expected payload if the
    whole frame served one user; the temperature controls how sharply
    the RR-residual estimate drives the choice.
    """

    temperature: float
    payload_table: np.ndarray

    def __post_init__(self):
        if not self.temperature > 0.0:  # NaN fails too; +inf selects uniformly
            raise ContractViolationError(
                f"temperature must be positive, got {self.temperature!r}")
        g = np.asarray(self.payload_table, dtype=float)
        if g.shape != (15,):
            raise ContractViolationError("payload_table must have 15 CQI entries")
        if not (np.isfinite(g).all() and g.min() >= 0.0):
            raise ContractViolationError("payload must be finite and nonnegative")
        if g.max() > 2.0 ** 53:
            # bounds every quantum and quanta * successes <= payload + F/2 in int64
            raise ContractViolationError(f"payload must not exceed 2**53, got {g.max()}")
        if np.any(np.diff(g) < 0.0):
            raise ContractViolationError("payload must be nondecreasing in CQI")
        object.__setattr__(self, "payload_table", g)

    @classmethod
    def default(cls, n_users: int, temperature: float,
                packets_per_efficiency: float = 3.0,
                sign_balance: float = 0.35) -> "MacPolicy":
        return cls(temperature=temperature,
                   payload_table=default_payload_table(
                       n_users, packets_per_efficiency, sign_balance))

    def payload(self, cqis) -> np.ndarray:
        return self.payload_table[np.asarray(cqis, dtype=np.int64) - 1]

    def app_probability(self, ctx: MacContexts, app: str) -> np.ndarray:
        """(n,) p(app | x), with p(RR | x) = logistic(-residual_estimate / T)
        taken on the branch whose exp cannot overflow."""
        if app not in MAC_APPS:
            raise ContractViolationError(f"unknown app {app!r}")
        z = -estimate_rr_residual(ctx, self) / self.temperature
        e = np.exp(-np.minimum(np.abs(z), 700.0))  # exp(-z) for z >= 0, exp(z) below
        p_rr = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        return p_rr if app == RR else 1.0 - p_rr

    def weight(self, ctx: MacContexts, numer_app: str, denom_app: str) -> np.ndarray:
        """(n,) density ratios p(numer|x)/p(denom|x), computed in log space.

        For the logistic pair the ratio is exactly exp(+-residual/T);
        the exponent is clipped to keep the result finite.
        """
        for app in (numer_app, denom_app):
            if app not in MAC_APPS:
                raise ContractViolationError(f"unknown app {app!r}")
        if numer_app == denom_app:
            return np.ones(len(ctx))
        z = estimate_rr_residual(ctx, self) / self.temperature
        if numer_app == RR:
            z = -z
        return clipped_exp(z)


@dataclass(frozen=True)
class FrameConfig:
    """Frame dynamics: F resource blocks and a per-RB success probability.

    ``per_rb_success_prob`` is evaluated once, at construction, for CQI
    1..15; ``success_table[c-1]`` holds its value for CQI c.
    """

    resource_blocks: int = 50
    per_rb_success_prob: Callable[[int], float] = None
    pfca_smoothing: float = 0.1
    pfca_floor: float = 1e-6
    success_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.resource_blocks < 1:
            raise ContractViolationError("resource_blocks must be >= 1")
        if not (math.isfinite(self.pfca_floor) and self.pfca_floor > 0.0):
            raise ContractViolationError("pfca_floor must be finite and > 0")
        if not 0.0 <= self.pfca_smoothing <= 1.0:
            raise ContractViolationError("pfca_smoothing must lie in [0, 1]")
        if self.per_rb_success_prob is None:
            object.__setattr__(self, "per_rb_success_prob", default_rb_success_prob)
        p = np.array([self.per_rb_success_prob(c) for c in range(1, 16)], dtype=float)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ContractViolationError("per_rb_success_prob must lie in [0, 1]")
        object.__setattr__(self, "success_table", p)


def default_rb_success_prob(cqi: int) -> float:
    return 0.9 + 0.1 * (cqi - 1) / 14.0


def generate_context(n_users: int, rng: np.random.Generator,
                     backlog_range=(BACKLOG_MIN, BACKLOG_MAX)) -> MacContexts:
    """One context, as a batch of one: backlogs i.i.d. uniform integers
    over ``backlog_range``; CQIs i.i.d. uniform over 1..15."""
    if n_users < 1:
        raise ContractViolationError("n_users must be >= 1")
    lo, hi = backlog_range
    return MacContexts(backlogs=rng.integers(lo, hi + 1, size=(1, n_users)),
                       cqis=rng.integers(1, 16, size=(1, n_users)))


def estimate_rr_residual(ctx: MacContexts, policy: MacPolicy) -> np.ndarray:
    """(n,) worst-case analytic residual backlogs if RR served the frame:
    max_k (b_k - g(c_k)/K) per context."""
    return row_max(ctx.backlogs - policy.payload(ctx.cqis) / ctx.backlogs.shape[1])


def run_frame(app: str, ctx: MacContexts, policy: MacPolicy,
              frame_cfg: FrameConfig, rng) -> np.ndarray:
    """Simulate one scheduling frame per context of the batch; returns the
    (n, K) int64 final backlogs, row i for context i.  ``rng`` is a
    ``Generator`` or a sequence of (generator, row count) segments that
    cover the rows in order (``conformal.rng_segments``).

    Each scheduled RB drains ``round(g(c)/F)`` packets from the chosen
    user with probability ``per_rb_success_prob(c)`` (zero otherwise),
    never below an empty queue.  RR hands RBs out cyclically in user
    order; PFCA gives each RB to the backlogged user with the largest
    expected-rate / smoothed-throughput ratio (the first such user on a
    tie).

    Draws: F uniforms per frame, one per RB, in RB order, frame after
    frame in row order, for both apps.  Each segment is one ``(rows, F)``
    draw from its own generator, segment after segment, so every segment
    leaves its generator exactly where a call on its rows alone, or on
    each of them one at a time, would; an empty segment draws nothing.
    The frames of all segments then run together.  PFCA stops stepping
    once every queue of the batch is empty; its remaining uniforms are
    drawn all the same.
    """
    if app not in MAC_APPS:
        raise ContractViolationError(f"unknown app {app!r}")
    n, k = ctx.backlogs.shape
    f = frame_cfg.resource_blocks
    if f < k:
        raise ContractViolationError(f"{f} RBs cannot serve {k} users round-robin")
    quanta = np.rint(policy.payload(ctx.cqis) / f).astype(np.int64)
    success_p = frame_cfg.success_table[ctx.cqis - 1]
    u, first = np.empty((n, f)), 0
    for g, rows in rng_segments(rng, n):
        g.random(out=u[first:first + rows])
        first += rows
    if app == RR:
        # drains never depend on other users, so the cyclic allocation
        # collapses to counting each user's successful RBs: RB r serves
        # user r % K, so the whole rounds of K RBs, viewed as (n, rounds,
        # K), and then the last partial round sum to the per-user counts
        whole, rest = f - f % k, f % k
        successes = (u[:, :whole].reshape(n, f // k, k) < success_p[:, None, :]).sum(axis=1)
        successes[:, :rest] += u[:, whole:] < success_p[:, :rest]
        return np.maximum(ctx.backlogs - quanta * successes, 0)
    # PFCA in lockstep over the batch, one RB at a time: metric
    # rate / max(avg, floor), argmax over users, avg <- (1 - beta) * avg +
    # beta * served.  An empty queue's rate reads -inf, and so does its
    # metric, so a row with a backlog serves a backlogged user; a row whose
    # queues are all empty drains nothing until the whole batch is empty.
    backlog = ctx.backlogs.copy()
    rates = np.where(backlog > 0, quanta * success_p, -np.inf)
    avg = np.zeros((n, k))
    rows = np.arange(n)
    beta = frame_cfg.pfca_smoothing
    for rb in range(f):
        if not backlog.any():
            break
        # rate / 5e-324 overflows to an intended inf metric; equal metrics,
        # inf among them, go to the first user
        with np.errstate(over="ignore"):
            metric = rates / np.maximum(avg, frame_cfg.pfca_floor)
        user = metric.argmax(axis=1)
        left = backlog[rows, user]
        drained = np.where(u[:, rb] < success_p[rows, user],
                           np.minimum(quanta[rows, user], left), 0)
        backlog[rows, user] = left - drained
        emptied = left == drained
        rates[rows[emptied], user[emptied]] = -np.inf
        avg *= 1.0 - beta
        avg[rows, user] += beta * drained
    return backlog
