"""Scheduling simulator tests: context generation, the analytic residual
estimate, the logistic selection policy, and frame dynamics against the
per-RB reference loop."""

import itertools
import math
import warnings

import numpy as np
import pytest

from ccke.conformal import ContractViolationError
from ccke.mac_sim import (
    CQI_EFFICIENCY,
    PFCA,
    RR,
    FrameConfig,
    BACKLOG_MAX,
    BACKLOG_MIN,
    MacContexts,
    MacPolicy,
    default_payload_table,
    estimate_rr_residual,
    run_frame,
)
from ccke.harness import MacEnvironment


def flat_policy(payload, temperature=1.0):
    return MacPolicy(temperature=temperature, payload_table=np.full(15, float(payload)))


def one(backlogs, cqis):
    """A single context, as a batch of one."""
    return MacContexts(backlogs=[backlogs], cqis=[cqis])


def generate_context(n_users, rng):
    """One context, as a batch of one: backlogs i.i.d. uniform over
    BACKLOG_MIN..BACKLOG_MAX, then CQIs i.i.d. uniform over 1..15."""
    return MacContexts(backlogs=rng.integers(BACKLOG_MIN, BACKLOG_MAX + 1, size=(1, n_users)),
                       cqis=rng.integers(1, 16, size=(1, n_users)))


# ---------------------------------------------------------------------------
# contexts


# the three tests below check the contexts a run draws:
# MacEnvironment.sample_contexts_given_app, under each app


def test_context_replay_deterministic():
    env = MacEnvironment(n_users=8)
    for app in (RR, PFCA):
        a = env.sample_contexts_given_app(app, 5, np.random.default_rng(42))
        b = env.sample_contexts_given_app(app, 5, np.random.default_rng(42))
        assert np.array_equal(a.backlogs, b.backlogs)
        assert np.array_equal(a.cqis, b.cqis)


def test_context_shapes():
    env = MacEnvironment(n_users=8)
    for app in (RR, PFCA):
        ctx = env.sample_contexts_given_app(app, 1, np.random.default_rng(0))
        assert len(ctx) == 1
        assert ctx.backlogs.shape == (1, 8) and ctx.cqis.shape == (1, 8)


def test_context_distribution_bounds():
    env, rng = MacEnvironment(n_users=4), np.random.default_rng(1)
    for app in (RR, PFCA):
        ctx = env.sample_contexts_given_app(app, 2500, rng)
        b, c = ctx.backlogs, ctx.cqis
        assert b.min() >= 10 and b.max() <= 100
        assert c.min() >= 1 and c.max() <= 15
        # all levels actually hit
        assert set(np.unique(c)) == set(range(1, 16))


def test_context_validation():
    with pytest.raises(ContractViolationError):
        one([-1], [5])
    with pytest.raises(ContractViolationError):
        one([3], [16])


# ---------------------------------------------------------------------------
# residual estimate


def test_residual_single_user_exact_drain():
    ctx = one([10], [8])
    assert estimate_rr_residual(ctx, flat_policy(10.0)) == 0.0


def test_residual_identical_users_reduce_to_single():
    pol = MacPolicy(temperature=1.0, payload_table=np.linspace(10, 150, 15))
    single = one([40], [7])
    many = one([40] * 4, [7] * 4)
    single_share = estimate_rr_residual(single, pol)  # b - g/1
    # with K identical users each gets g/K, so shift by the share change
    expected = 40 - pol.payload_table[6] / 4
    assert estimate_rr_residual(many, pol) == pytest.approx(expected)
    assert single_share == pytest.approx(40 - pol.payload_table[6])


def test_residual_zero_service():
    ctx = one([12, 99, 40], [1, 8, 15])
    assert estimate_rr_residual(ctx, flat_policy(0.0)) == 99.0


def test_payload_table_monotone_and_scaled():
    g = default_payload_table(8)
    assert np.all(np.diff(g) >= 0.0)
    # affine in the standardized efficiency column
    slopes = np.diff(g) / np.diff(CQI_EFFICIENCY * 8 * 3.0)
    assert np.allclose(slopes, slopes[0])


def test_payload_sign_balance_across_k():
    rng = np.random.default_rng(3)
    for k in (2, 8, 16, 32):
        pol = MacPolicy.default(k, 1.0)
        resid = [estimate_rr_residual(generate_context(k, rng), pol)
                 for _ in range(2000)]
        frac = np.mean(np.array(resid) < 0)
        assert 0.2 < frac < 0.55, (k, frac)


# ---------------------------------------------------------------------------
# selection policy


def test_selection_probability_at_zero_residual():
    pol = flat_policy(50.0, temperature=2.0)
    ctx = one([50], [8])  # residual exactly 0
    assert pol.app_probability(ctx, RR) == pytest.approx(0.5)


def test_selection_probability_tends_to_half_for_large_t():
    ctx = one([90, 20], [3, 12])
    for t, tol in ((1e3, 0.02), (1e6, 1e-4)):
        pol = MacPolicy(temperature=t, payload_table=default_payload_table(2))
        assert abs(pol.app_probability(ctx, RR) - 0.5) < tol


def test_selection_probability_hand_inversion():
    t = 2.5
    pol = flat_policy(0.0, temperature=t)
    b = t * math.log(3.0)
    ctx = one([int(round(b))], [8])
    # integer backlogs: evaluate through the formula at the exact residual
    p = math.exp(-b / t) / (1.0 + math.exp(-b / t))
    assert p == pytest.approx(0.25)
    assert pol.app_probability(one([3], [8]), RR) == pytest.approx(
        math.exp(-3 / t) / (1 + math.exp(-3 / t)))


def test_selection_monotonicity_in_residual_and_temperature():
    pol = flat_policy(50.0, temperature=1.0)
    backlogs = [20, 40, 60, 80, 100]
    probs = [pol.app_probability(one([b], [8]), RR)
             for b in backlogs]
    assert all(p1 > p2 for p1, p2 in zip(probs, probs[1:]))
    # positive residual: p(RR) rises toward 0.5 as T grows
    ctx = one([80], [8])
    by_t = [flat_policy(50.0, temperature=t).app_probability(ctx, RR)
            for t in (0.5, 2.0, 10.0, 100.0)]
    assert all(p1 < p2 < 0.5 + 1e-12 for p1, p2 in zip(by_t, by_t[1:]))


def test_weight_reciprocity():
    pol = MacPolicy.default(8, 0.7)
    rng = np.random.default_rng(8)
    for _ in range(100):
        ctx = generate_context(8, rng)
        prod = (pol.weight(ctx, RR, PFCA) * pol.weight(ctx, PFCA, RR))
        assert prod == pytest.approx(1.0, rel=1e-12)
    assert pol.weight(ctx, RR, RR) == 1.0


def test_weight_matches_probability_ratio():
    pol = MacPolicy.default(8, 1.3)
    rng = np.random.default_rng(9)
    for _ in range(50):
        ctx = generate_context(8, rng)
        w = pol.weight(ctx, PFCA, RR)
        ratio = pol.app_probability(ctx, PFCA) / pol.app_probability(ctx, RR)
        assert w == pytest.approx(ratio, rel=1e-9)


def test_batch_weight_is_per_element_math_exp():
    # exponents past both clip edges and between them, where numpy's
    # vectorized exp differs from math.exp in the last bit on some inputs
    t = 0.02
    pol = MacPolicy.default(8, t)
    rng = np.random.default_rng(13)
    ctx = MacContexts(backlogs=rng.integers(0, 101, size=(4000, 8)),
                      cqis=rng.integers(1, 16, size=(4000, 8)))
    resid = [float(np.max(b - pol.payload(c) / 8)) for b, c in zip(ctx.backlogs, ctx.cqis)]
    for numer, denom, sign in ((PFCA, RR, 1.0), (RR, PFCA, -1.0)):
        z = [sign * r / t for r in resid]
        assert min(z) < -700.0 and max(z) > 700.0
        want = np.array([math.exp(min(max(v, -700.0), 700.0)) for v in z])
        assert np.array_equal(pol.weight(ctx, numer, denom), want)
        assert not np.array_equal(np.exp(np.clip(z, -700.0, 700.0)), want)


# ---------------------------------------------------------------------------
# frame dynamics


def test_frame_nothing_to_serve():
    pol = MacPolicy.default(3, 1.0)
    for app in (RR, PFCA):
        out = run_frame(app, one([0, 0, 0], [5, 9, 14]), pol, FrameConfig(),
                        np.random.default_rng(0))
        assert out.shape == (1, 3) and np.all(out == 0)


def test_frame_full_drain_single_user():
    pol = flat_policy(600.0)
    cfg = FrameConfig(per_rb_success_prob=lambda c: 1.0)
    out = run_frame(RR, one([100], [8]), pol, cfg, np.random.default_rng(0))
    assert out[0, 0] == 0


def test_frame_rr_one_rb_each():
    k = 5
    pol = MacPolicy(temperature=1.0, payload_table=np.linspace(50, 400, 15))
    cfg = FrameConfig(resource_blocks=k, per_rb_success_prob=lambda c: 1.0)
    cqis = [1, 4, 8, 12, 15]
    out = run_frame(RR, one([100] * k, cqis), pol, cfg, np.random.default_rng(0))
    quanta = np.rint(pol.payload(cqis) / k).astype(int)
    expected = np.maximum(100 - np.minimum(quanta, 100), 0)
    assert np.array_equal(out, [expected])


def test_frame_conservation_property():
    rng = np.random.default_rng(10)
    pol = MacPolicy.default(6, 1.0)
    cfg = FrameConfig()
    for _ in range(200):
        ctx = generate_context(6, rng)
        for app in (RR, PFCA):
            out = run_frame(app, ctx, pol, cfg, rng)
            assert np.all(out >= 0)
            assert np.all(out <= ctx.backlogs)


def test_frame_replay_deterministic():
    pol = MacPolicy.default(8, 1.0)
    cfg = FrameConfig()
    ctx = generate_context(8, np.random.default_rng(11))
    assert np.array_equal(run_frame(PFCA, ctx, pol, cfg, np.random.default_rng(123)),
                          run_frame(PFCA, ctx, pol, cfg, np.random.default_rng(123)))


def test_frame_rejects_more_users_than_rbs():
    pol = MacPolicy.default(4, 1.0)
    ctx = generate_context(4, np.random.default_rng(0))
    with pytest.raises(ContractViolationError):
        run_frame(RR, ctx, pol, FrameConfig(resource_blocks=3), np.random.default_rng(0))


def test_pfca_beats_rr_on_skewed_channels():
    # one strong user among weak ones: channel-aware allocation should
    # drain at least as much in expectation (3-sigma test)
    pol = MacPolicy.default(8, 1.0)
    cfg = FrameConfig()
    drained_rr, drained_pf = [], []
    for i in range(1000):
        ctx = one([100] * 8, [15, 1, 1, 1, 1, 1, 1, 1])
        rr = run_frame(RR, ctx, pol, cfg, np.random.default_rng(50_000 + i))
        pf = run_frame(PFCA, ctx, pol, cfg, np.random.default_rng(50_000 + i))
        drained_rr.append(800 - rr.sum())
        drained_pf.append(800 - pf.sum())
    gap = np.mean(drained_pf) - np.mean(drained_rr)
    se = math.sqrt((np.var(drained_pf) + np.var(drained_rr)) / 1000)
    assert gap >= -3.0 * se, (gap, se)


def test_policy_rejects_negative_or_non_finite_payload():
    for table in (np.full(15, -1.0), np.full(15, math.nan), np.full(15, math.inf)):
        with pytest.raises(ContractViolationError):
            MacPolicy(temperature=1.0, payload_table=table)


def test_policy_rejects_payload_above_2_pow_53():
    # a 1e30 payload wrapped the int64 quantum cast, and RR returned [0, 60]
    with pytest.raises(ContractViolationError):
        MacPolicy(temperature=1.0, payload_table=np.full(15, 1e30))
    pol = flat_policy(2.0 ** 53)
    cfg = FrameConfig(per_rb_success_prob=lambda c: 1.0)
    for app in (RR, PFCA):
        assert np.array_equal(run_frame(app, one([50, 60], [3, 9]), pol, cfg,
                                        np.random.default_rng(0)), [[0, 0]])


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_frame_rejects_success_probability_outside_unit_interval(p):
    # checked once, when FrameConfig tabulates the callable
    with pytest.raises(ContractViolationError):
        FrameConfig(per_rb_success_prob=lambda c: p)
    with pytest.raises(ContractViolationError):
        FrameConfig(per_rb_success_prob=lambda c: p if c == 15 else 0.5)


def test_success_probability_tabulated_once_per_config():
    calls = []

    def prob(c):
        calls.append(c)
        return 0.5 + c / 30.0

    cfg = FrameConfig(per_rb_success_prob=prob)
    assert calls == list(range(1, 16))
    assert cfg.success_table.tolist() == [0.5 + c / 30.0 for c in range(1, 16)]
    pol = MacPolicy.default(4, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        ctx = generate_context(4, rng)
        for app in (RR, PFCA):
            run_frame(app, ctx, pol, cfg, rng)
    assert len(calls) == 15


@pytest.mark.parametrize("floor", [0.0, -1e-6, math.inf, math.nan])
def test_frame_config_rejects_bad_pfca_floor(floor):
    with pytest.raises(ContractViolationError):
        FrameConfig(pfca_floor=floor)


@pytest.mark.parametrize("beta", [-0.1, 1.1, math.nan])
def test_frame_config_rejects_bad_pfca_smoothing(beta):
    with pytest.raises(ContractViolationError):
        FrameConfig(pfca_smoothing=beta)


def test_frame_config_accepts_pfca_edges():
    FrameConfig(pfca_floor=5e-324, pfca_smoothing=0.0)
    FrameConfig(pfca_floor=1e300, pfca_smoothing=1.0)


# ---------------------------------------------------------------------------
# frame dynamics against the per-RB reference loop


def reference_run_frame(app, backlogs, cqis, policy, frame_cfg, rng):
    """The per-RB numpy loop for one frame: F uniforms drawn up front, one
    per RB, and PFCA's metric, argmax and smoothed-throughput update on
    arrays until every queue is empty."""
    if app not in (RR, PFCA):
        raise ContractViolationError(f"unknown app {app!r}")
    backlogs, cqis = np.asarray(backlogs), np.asarray(cqis)
    n = backlogs.size
    f = frame_cfg.resource_blocks
    if f < n:
        raise ContractViolationError(f"{f} RBs cannot serve {n} users round-robin")
    backlog = backlogs.astype(np.int64).copy()
    quanta = np.rint(policy.payload(cqis) / f).astype(np.int64)
    success_p = np.array([frame_cfg.per_rb_success_prob(int(c)) for c in cqis])
    if app == RR:
        users = np.arange(f) % n
        hits = rng.random(f) < success_p[users]
        successes = np.bincount(users[hits], minlength=n)
        return np.maximum(backlog - quanta * successes, 0)
    rate = quanta * success_p
    avg = np.zeros(n)
    beta = frame_cfg.pfca_smoothing
    draws = rng.random(f)
    for rb in range(f):
        eligible = backlog > 0
        if not eligible.any():
            break
        with np.errstate(over="ignore"):
            metric = np.where(eligible, rate / np.maximum(avg, frame_cfg.pfca_floor), -np.inf)
        u = int(np.argmax(metric))
        drained = min(quanta[u], backlog[u]) if draws[rb] < success_p[u] else 0
        backlog[u] -= drained
        served = np.zeros(n)
        served[u] = drained
        avg = (1.0 - beta) * avg + beta * served
    return backlog


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox)
SUCCESS_PROBS = (None, lambda c: 0.0, lambda c: 1.0, lambda c: (7 * c % 15) / 14.0)


def assert_frame_matches_reference(app, backlogs, cqis, policy, cfg, bit_generator, seed):
    """run_frame on the (n, K) batch against the reference run on its rows
    one after another, from one generator: same bits, same generator end."""
    ref_rng = np.random.Generator(bit_generator(seed))
    rng = np.random.Generator(bit_generator(seed))
    want = np.array([reference_run_frame(app, b, c, policy, cfg, ref_rng)
                     for b, c in zip(backlogs, cqis)], dtype=np.int64).reshape(np.shape(backlogs))
    got = run_frame(app, MacContexts(backlogs, cqis), policy, cfg, rng)
    assert got.dtype == want.dtype and np.array_equal(got, want), (app, backlogs, cqis, cfg)
    assert np.array_equal(rng.random(4), ref_rng.random(4)), (app, backlogs, cqis, cfg)
    return got


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
def test_run_frame_matches_reference(bit_generator):
    gen = np.random.default_rng(20)
    settings = itertools.cycle(itertools.product(
        SUCCESS_PROBS, (0.0, 0.1, 1.0), ("default", "zero", "triple")))
    pfca_drained = pfca_left = 0
    for k in range(1, 33):
        for f in sorted({k, int(gen.integers(k, 201)), 200}):
            prob, beta, table = next(settings)
            payload = {"default": default_payload_table(k), "zero": np.zeros(15),
                       "triple": 3.0 * default_payload_table(k)}[table]
            policy = MacPolicy(temperature=1.0, payload_table=payload)
            cfg = FrameConfig(resource_blocks=f, per_rb_success_prob=prob,
                              pfca_smoothing=beta)
            backlogs = gen.integers(0, 101, size=(1, k))
            backlogs[gen.random((1, k)) < 0.3] = 0
            cqis = gen.integers(1, 16, size=(1, k))
            for app in (RR, PFCA):
                seed = int(gen.integers(2**32))
                out = assert_frame_matches_reference(app, backlogs, cqis, policy, cfg,
                                                     bit_generator, seed)
                if app == PFCA:
                    pfca_drained += not out.any()
                    pfca_left += bool(out.any())
    # both frames that empty every queue (and stop early) and frames that
    # keep a backlog to the last RB were covered
    assert pfca_drained > 20 and pfca_left > 20


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
def test_run_frame_matches_reference_on_a_long_frame(bit_generator):
    # a high-rate user that almost always fails keeps the served low-rate
    # user waiting for hundreds of RBs, long enough for that user's average
    # to underflow to 0.0 before it is served again
    f = 8000
    policy = MacPolicy(temperature=1.0,
                       payload_table=np.array([10.0 * f] * 14 + [1e5 * f]))
    cfg = FrameConfig(resource_blocks=f, pfca_smoothing=0.9,
                      per_rb_success_prob=lambda c: 1e-3 if c == 15 else 1.0)
    for seed in range(3):
        out = assert_frame_matches_reference(PFCA, [[10**9, 10**6]], [[15, 1]], policy, cfg,
                                             bit_generator, seed)
        assert np.all(out > 0)


@pytest.mark.parametrize("app", (RR, PFCA))
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
def test_run_frame_batch_is_its_rows_in_order(bit_generator, app):
    # K=1, F = K, F % K != 0 and F % K == 0, under the zero and triple
    # payload tables too, in batches of 0 (which must draw nothing), 1 and
    # several rows
    gen = np.random.default_rng(21)
    settings = itertools.cycle(SUCCESS_PROBS)
    for k, f in ((1, 1), (1, 50), (3, 3), (3, 50), (8, 50), (8, 64), (32, 50)):
        for table in (default_payload_table(k), np.zeros(15), 3.0 * default_payload_table(k)):
            policy = MacPolicy(temperature=1.0, payload_table=table)
            cfg = FrameConfig(resource_blocks=f, per_rb_success_prob=next(settings))
            for n in (0, 1, 7):
                backlogs = gen.integers(0, 101, size=(n, k))
                backlogs[gen.random((n, k)) < 0.3] = 0
                cqis = gen.integers(1, 16, size=(n, k))
                out = assert_frame_matches_reference(app, backlogs, cqis, policy, cfg,
                                                     bit_generator, int(gen.integers(2**32)))
                assert out.shape == (n, k)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
def test_pfca_batch_draws_n_times_f_doubles(bit_generator):
    # every frame takes its F uniforms, also one that empties every queue
    # at its first RBs or starts empty; an empty batch draws nothing
    k, f = 4, 50
    policy = flat_policy(1000.0)
    cfg = FrameConfig(resource_blocks=f, per_rb_success_prob=lambda c: 1.0)
    gen = np.random.default_rng(22)
    for n in (0, 1, 7, 300):
        backlogs = gen.integers(0, 41, size=(n, k))
        backlogs[gen.random((n, k)) < 0.3] = 0
        ctx = MacContexts(backlogs, gen.integers(1, 16, size=(n, k)))
        rng = np.random.Generator(bit_generator(n))
        after = np.random.Generator(bit_generator(n))
        after.random(n * f)
        out = run_frame(PFCA, ctx, policy, cfg, rng)
        assert not out.any()
        np.testing.assert_equal(rng.bit_generator.state, after.bit_generator.state, err_msg=str(n))


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("floor", [5e-324, 1e300])
def test_pfca_numeric_edges_match_reference_without_warnings(floor, beta):
    # at floor 5e-324 a zero average makes every positive metric inf, a
    # tie that goes to the first backlogged user; at 1e300 the floor always
    # binds, so the averages never matter
    gen = np.random.default_rng(23)
    for k, f in ((1, 1), (3, 7), (8, 50), (32, 200)):
        for table in (default_payload_table(k), np.zeros(15)):
            policy = MacPolicy(temperature=1.0, payload_table=table)
            cfg = FrameConfig(resource_blocks=f, pfca_floor=floor, pfca_smoothing=beta)
            backlogs = gen.integers(0, 101, size=(7, k))
            backlogs[gen.random((7, k)) < 0.3] = 0
            cqis = gen.integers(1, 16, size=(7, k))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_frame_matches_reference(PFCA, backlogs, cqis, policy, cfg,
                                               np.random.PCG64, int(gen.integers(2**32)))


@pytest.mark.parametrize("app", (RR, PFCA))
def test_run_frame_segments_equal_per_segment_calls(app):
    # each segment draws from its own generator as a call on its rows alone
    # would, an empty segment draws nothing, and the frames of all segments
    # run together with the same bits
    gen = np.random.default_rng(24)
    k, sizes = 8, (3, 0, 40, 1, 17)
    policy, cfg = MacPolicy.default(k, 1.0), FrameConfig()
    backlogs = gen.integers(0, 101, size=(sum(sizes), k))
    backlogs[gen.random(backlogs.shape) < 0.3] = 0
    cqis = gen.integers(1, 16, size=backlogs.shape)
    seeds = [int(s) for s in gen.integers(2**32, size=len(sizes))]
    segments = [(np.random.default_rng(s), n) for s, n in zip(seeds, sizes)]
    got = run_frame(app, MacContexts(backlogs, cqis), policy, cfg, segments)
    edges = np.cumsum((0,) + sizes)
    for (rng, _), seed, a, b in zip(segments, seeds, edges[:-1], edges[1:]):
        alone = np.random.default_rng(seed)
        want = run_frame(app, MacContexts(backlogs[a:b], cqis[a:b]), policy, cfg, alone)
        assert got[a:b].dtype == want.dtype and got[a:b].tobytes() == want.tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state
    with pytest.raises(ContractViolationError):
        run_frame(app, MacContexts(backlogs, cqis), policy, cfg, segments[:-1])
