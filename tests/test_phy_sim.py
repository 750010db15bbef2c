"""Link-simulator tests: context sampling, channel statistics, ARQ
latency, the Monte-Carlo SER grid, and softmax app selection."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from ccke import phy_sim
from ccke.conformal import ContractViolationError
from ccke.phy_sim import (
    ALAMOUTI,
    ANTENNA_SEPARATION,
    ARQ_BLOCK_ROWS,
    BPSK,
    MULTIPLEXING,
    PATHS_MAX,
    PHY_APPS,
    QPSK,
    SER_CLAMP,
    SNR_DB_CEILING,
    ArqConfig,
    ConfigurationError,
    PhyContexts,
    PhyPolicy,
    SerTable,
    TransmissionApp,
    arq_latencies,
    estimate_ser,
    sample_context,
    snr_bin_masses,
    transmit_arq,
)
from ccke.phy_sim import (
    _CONSTELLATIONS,
    _alamouti_block,
    _attempt_decodes,
    _channel_batch,
    _decode_nearest,
    _draw_noise,
    _mirror_images,
    _multiplexing_block,
    _sent_is_nearest,
    _steering_second,
    _zero_forcing,
)

AQ = TransmissionApp(ALAMOUTI, QPSK)
AB = TransmissionApp(ALAMOUTI, BPSK)
MQ = TransmissionApp(MULTIPLEXING, QPSK)
MB = TransmissionApp(MULTIPLEXING, BPSK)


@pytest.fixture(scope="module")
def small_table():
    return SerTable.build(n_mc=3000, seed=77)


# ---------------------------------------------------------------------------
# context sampling


def test_single_context_sampler_matches_invariants():
    rng = np.random.default_rng(2)
    for _ in range(200):
        ctx = sample_context(rng)
        assert len(ctx) == 1
        assert -5.0 <= ctx.snr_db[0] <= 15.0
        assert 1 <= ctx.paths[0] <= 10


def test_bin_masses_normalized_and_centered():
    m = snr_bin_masses(-5.0, 1.0, 20)
    assert m.sum() == pytest.approx(1.0)
    assert np.argmax(m) in (9, 10)  # mode at the 5 dB mean


def test_ndtr_ndtri_match_norm_bitwise():
    # the phy path calls scipy.special's ndtr/ndtri in place of
    # scipy.stats.norm.cdf/ppf; the swap must not move a bit
    from scipy.special import ndtr, ndtri

    tiny = np.finfo(float).tiny
    edges = np.array([-np.inf, -40.0, -38.5, -8.0, -1.0, -0.0, 0.0, 1.0, 8.0, 38.5, np.inf])
    x = np.concatenate([edges, np.random.default_rng(3).normal(0.0, 3.0, 20_000)])
    np.testing.assert_array_equal(ndtr(x).view(np.int64), stats.norm.cdf(x).view(np.int64))
    u = np.concatenate([[0.0, 5e-324, tiny, 1e-300, 1e-16, 0.5, 1.0 - 2.0 ** -53, 1.0],
                        np.random.default_rng(4).uniform(0.0, 1.0, 20_000)])
    np.testing.assert_array_equal(ndtri(u).view(np.int64), stats.norm.ppf(u).view(np.int64))


# ---------------------------------------------------------------------------
# channel model


def test_steering_vector_broadside():
    # the first entry is 1/sqrt(2) at every angle
    v = _steering_second(np.array([math.pi / 2.0]))
    np.testing.assert_allclose(v, [1.0 / math.sqrt(2.0)], atol=1e-12)


def test_steering_vector_unit_norm():
    rng = np.random.default_rng(3)
    phis = rng.uniform(0, 2 * math.pi, 64)
    v = _steering_second(phis)
    np.testing.assert_allclose(0.5 + np.abs(v) ** 2, 1.0, atol=1e-12)


def test_single_path_channel_rank_one():
    rng = np.random.default_rng(4)
    s = np.linalg.svd(_channel_batch(10.0, 1, 50, rng), compute_uv=False)
    assert np.all(s[:, 1] <= 1e-10 * np.maximum(s[:, 0], 1.0))


def test_channel_second_moment():
    rng = np.random.default_rng(5)
    snr_db = 7.0
    snr_lin = 10.0 ** (snr_db / 10.0)
    for m in (1, 4, 10):
        sq = np.sum(np.abs(_channel_batch(snr_db, m, 10_000, rng)) ** 2, axis=(1, 2))
        assert np.mean(sq) == pytest.approx(2.0 * snr_lin, rel=0.05)


# ---------------------------------------------------------------------------
# ARQ


def test_arq_noiseless_alamouti_first_attempt():
    rng = np.random.default_rng(6)
    arq = ArqConfig()
    for constellation in (BPSK, QPSK):
        app = TransmissionApp(ALAMOUTI, constellation)
        for _ in range(20):
            ctx = sample_context(rng)
            assert transmit_arq(app, ctx.snr_db[0], ctx.paths[0], arq, rng, noise_std=0.0) == 1


def test_arq_batch_noiseless_alamouti_reads_one():
    rng = np.random.default_rng(60)
    snr_db = rng.uniform(-5.0, 15.0, 2000)
    ctx = PhyContexts(snr_db=snr_db, paths=1 + np.arange(2000) % PATHS_MAX)
    for app in (AB, AQ):
        assert np.all(arq_latencies(app, ctx, ArqConfig(), rng, noise_std=0.0) == 1), app


def test_arq_dead_channel_saturates_at_cap():
    # every distance ties at -400 dB; a tie must not decode, even when
    # both sent symbols are point 0 (1 in 4 BPSK attempts at 2 symbols;
    # the last attempt returns the cap either way)
    arq = ArqConfig(max_retx=3, symbols_per_packet=2)
    ctx = PhyContexts(snr_db=np.full(1000, -400.0), paths=1 + np.arange(1000) % PATHS_MAX)
    for seed in range(3):
        rng = np.random.default_rng([7, seed])
        for app in PHY_APPS:
            y = arq_latencies(app, ctx, arq, rng)
            assert np.all(y == 3), (app, seed, np.flatnonzero(y != 3))


def test_arq_zero_amplitude_channel_saturates_at_cap():
    # at -8000 dB the amplitude underflows to exactly 0, so H = 0 and
    # ||H||^2 = 0: every estimate is 0, where every distance ties
    assert math.sqrt(10.0 ** (-8000.0 / 10.0)) == 0.0
    arq = ArqConfig(max_retx=3, symbols_per_packet=2)
    ctx = PhyContexts(snr_db=np.full(400, -8000.0), paths=1 + np.arange(400) % PATHS_MAX)
    for noise_std in (1.0, 0.0):
        rng = np.random.default_rng(67)
        for app in PHY_APPS:
            y = arq_latencies(app, ctx, arq, rng, noise_std)
            assert np.all(y == 3), (app, noise_std, np.flatnonzero(y != 3))


def test_arq_bounds_always_hold():
    rng = np.random.default_rng(8)
    arq = ArqConfig(max_retx=7)
    for _ in range(300):
        ctx = sample_context(rng)
        app = PHY_APPS[int(rng.integers(0, 4))]
        y = transmit_arq(app, ctx.snr_db[0], ctx.paths[0], arq, rng)
        assert type(y) is int and 1 <= y <= 7
    ctx = PhyContexts(snr_db=rng.uniform(-5.0, 15.0, 1500), paths=rng.integers(1, 11, 1500))
    for app in PHY_APPS:
        y = arq_latencies(app, ctx, arq, rng)
        assert y.dtype == np.int64 and y.shape == (1500,)
        assert np.all((1 <= y) & (y <= 7))


def test_arq_geometric_attempt_ratio():
    # attempts are i.i.d., so P(y = t+1) / P(y = t) estimates the
    # per-attempt packet error rate below the cap
    rng = np.random.default_rng(9)
    arq = ArqConfig(max_retx=10)
    app = AQ
    n_pkt = 3000
    # independent per-attempt error estimate: did the first attempt fail
    def at(n):
        return PhyContexts(snr_db=np.full(n, 4.0), paths=np.full(n, 6))

    per = np.mean(arq_latencies(app, at(n_pkt), ArqConfig(max_retx=2), rng) > 1)
    ys = arq_latencies(app, at(6000), arq, rng)
    p1 = np.mean(ys == 1)
    p2 = np.mean(ys == 2)
    assert p1 > 0.05 and p2 > 0.02
    assert p2 / p1 == pytest.approx(per, abs=0.08)


def test_arq_empty_batch_draws_nothing():
    rng = np.random.default_rng(61)
    state = rng.bit_generator.state
    for app in PHY_APPS:
        y = arq_latencies(app, PhyContexts(snr_db=[], paths=np.array([], dtype=np.int64)),
                          ArqConfig(), rng)
        assert y.shape == (0,) and y.dtype == np.int64
    assert rng.bit_generator.state == state


def test_arq_batch_across_blocks_replays_byte_stable():
    # 1,025 rows: two full blocks of ARQ_BLOCK_ROWS and one row
    assert ARQ_BLOCK_ROWS == 512
    rng = np.random.default_rng(62)
    ctx = PhyContexts(snr_db=rng.uniform(-5.0, 15.0, 1025), paths=rng.integers(1, 11, 1025))
    for app in PHY_APPS:
        a, b = np.random.default_rng([63, 1]), np.random.default_rng([63, 1])
        first = arq_latencies(app, ctx, ArqConfig(), a)
        assert first.tobytes() == arq_latencies(app, ctx, ArqConfig(), b).tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        assert len(np.unique(first)) > 1


@pytest.mark.parametrize("noise_std", [math.nan, math.inf, -math.inf, -1.0])
def test_arq_rejects_bad_noise_std(noise_std):
    # a NaN noise made every estimate NaN, and every packet decoded at once
    ctx = PhyContexts(snr_db=[5.0, 10.0], paths=[3, 1])
    for app in PHY_APPS:
        with pytest.raises(ContractViolationError, match="noise_std"):
            arq_latencies(app, ctx, ArqConfig(), np.random.default_rng(0), noise_std)
        with pytest.raises(ContractViolationError, match="noise_std"):
            transmit_arq(app, 5.0, 3, ArqConfig(), np.random.default_rng(0), noise_std)


@pytest.mark.parametrize("field", ["max_retx", "symbols_per_packet"])
@pytest.mark.parametrize("value", [2.5, 4.0, True, False, "4", None, np.float64(4.0)])
def test_arq_config_rejects_non_integers(field, value):
    # max_retx=2.5 used to fail later, as a bare TypeError inside range
    with pytest.raises(ContractViolationError, match=field):
        ArqConfig(**{field: value})


def test_arq_config_accepts_numpy_integers():
    arq = ArqConfig(max_retx=np.int64(3), symbols_per_packet=np.int32(4))
    ctx = PhyContexts(snr_db=[5.0], paths=[2])
    assert 1 <= arq_latencies(AQ, ctx, arq, np.random.default_rng(0))[0] <= 3


def test_arq_odd_packet_size_rejected():
    with pytest.raises(ContractViolationError):
        ArqConfig(symbols_per_packet=7)


@pytest.mark.parametrize("paths", [0, -1, 11, 2.5, "3"])
def test_context_rejects_invalid_paths(paths):
    # a zero-path channel is all zeros and would saturate the KPI silently
    with pytest.raises(ContractViolationError):
        PhyContexts(snr_db=[5.0], paths=[paths])


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
def test_context_rejects_non_finite_snr(snr_db):
    with pytest.raises(ContractViolationError):
        PhyContexts(snr_db=[snr_db], paths=[3])


@pytest.mark.parametrize("snr_db", [3100.0, 1000.5, 1e300])
def test_context_rejects_snr_above_ceiling(snr_db):
    # at 3,100 dB the channel power overflowed, and a perfect channel read
    # the cap (with an "overflow encountered in power" warning)
    assert SNR_DB_CEILING < 3000.0
    with pytest.raises(ContractViolationError, match="snr_db"):
        PhyContexts(snr_db=[5.0, snr_db], paths=[3, 2])
    with pytest.raises(ContractViolationError, match="snr_db"):
        transmit_arq(AQ, snr_db, 2, ArqConfig(), np.random.default_rng(0))


def test_arq_decodes_at_very_high_snr():
    # 320 dB is far above the grid but under the ceiling: noise is
    # negligible, so every packet decodes at once (rank-1 single-path
    # channels cannot carry multiplexing's two streams, so m >= 2 there)
    rng = np.random.default_rng(68)
    for snr_db in (320.0, SNR_DB_CEILING):
        for app in PHY_APPS:
            low = 1 if app.code == ALAMOUTI else 2
            ctx = PhyContexts(snr_db=np.full(300, snr_db), paths=low + np.arange(300) % (11 - low))
            assert np.all(arq_latencies(app, ctx, ArqConfig(), rng) == 1), (app, snr_db)


def test_context_accepts_grid_edges_and_dead_channel():
    for snr_db, paths in ((-400.0, 1), (-5.0, 10), (15.0, np.int64(4))):
        assert PhyContexts(snr_db=[snr_db], paths=[paths]).paths[0] == paths


# ---------------------------------------------------------------------------
# reference oracles: separate draws, stacked steering vectors, one complex
# einsum over paths, and zero-forcing through pinv of every channel


def reference_steering(phi):
    """Two-element array response; unit norm.  phi shape (...,) -> (..., 2)."""
    second = np.exp(-2j * math.pi * ANTENNA_SEPARATION * np.cos(phi))
    return np.stack([np.ones_like(second), second], axis=-1) / math.sqrt(2.0)


def reference_channel_batch(snr_db, paths, n, rng):
    """Separate gain and angle draws, stacked steering vectors and one
    3-operand complex einsum over paths."""
    snr_lin = 10.0 ** (snr_db / 10.0)
    gains = (rng.standard_normal((n, paths)) + 1j * rng.standard_normal((n, paths)))
    gains /= math.sqrt(paths)
    phi_r = rng.uniform(0.0, 2.0 * math.pi, size=(n, paths))
    phi_t = rng.uniform(0.0, 2.0 * math.pi, size=(n, paths))
    e_r = reference_steering(phi_r)  # (n, m, 2)
    e_t = reference_steering(phi_t)
    h = np.einsum("nm,nmi,nmj->nij", gains, e_r, np.conj(e_t))
    return math.sqrt(snr_lin) * h


def reference_estimates(app, h, sym, rng, noise_std=1.0):
    """Batched detector outputs; multiplexing zero-forces through the
    batched-SVD pseudo-inverse of every channel."""
    s = _CONSTELLATIONS[app.constellation][sym]
    if app.code == ALAMOUTI:
        return _alamouti_block(h, s, rng, noise_std)
    r = np.einsum("nij,nj->ni", h, s / math.sqrt(2.0)) + _draw_noise(s.shape, rng, noise_std)
    return math.sqrt(2.0) * np.einsum("nij,nj->ni", np.linalg.pinv(h), r)


def reference_send_blocks(app, h, sym, rng, noise_std=1.0):
    """Batched detection, ties to the first point (np.argmin)."""
    return _decode_nearest(reference_estimates(app, h, sym, rng, noise_std),
                           _CONSTELLATIONS[app.constellation])


def reference_estimate_ser(app, snr_db, paths, rng, n_symbols):
    """SER over reference channels and reference detection."""
    constellation = _CONSTELLATIONS[app.constellation]
    blocks = n_symbols // 2
    h = reference_channel_batch(snr_db, paths, blocks, rng)
    sym = rng.integers(0, constellation.size, size=(blocks, 2))
    ser = np.mean(reference_send_blocks(app, h, sym, rng) != sym)
    return float(np.clip(ser, SER_CLAMP, 1.0 - SER_CLAMP))


# ---------------------------------------------------------------------------
# round-major ARQ batches against per-row references


def reference_transmit_arq(app, snr_db, paths, arq, rng, noise_std=1.0):
    """The batched per-attempt loop: one numpy channel draw repeated over
    the blocks, numpy estimates of every block, then a whole-packet check
    that each sent point is strictly nearest its estimate."""
    constellation = _CONSTELLATIONS[app.constellation]
    blocks = arq.symbols_per_packet // 2
    for attempt in range(1, arq.max_retx + 1):
        h = reference_channel_batch(snr_db, paths, 1, rng)
        hb = np.repeat(h, blocks, axis=0)
        sym = rng.integers(0, constellation.size, size=(blocks, 2))
        d = np.abs(reference_estimates(app, hb, sym, rng, noise_std)[..., None] - constellation)
        d_sent = np.take_along_axis(d, sym[..., None], axis=-1)
        if np.all(np.sum(d <= d_sent, axis=-1) == 1):
            return attempt
    return arq.max_retx


def reference_packet_ok(app, h, sym, w):
    """Textbook detection of one packet on one channel: ``sym`` holds the
    (blocks, 2) sent point indices, ``w`` each slot's complex noise.
    Alamouti sends (s0, s1) then (-s1*, s0*), each over sqrt(2), and
    combines orthogonally; multiplexing zero-forces through pinv."""
    points = _CONSTELLATIONS[app.constellation]
    s = points[sym]
    if app.code == ALAMOUTI:
        r1 = s @ h.T / math.sqrt(2.0) + w[0]
        r2 = np.stack([-np.conj(s[:, 1]), np.conj(s[:, 0])], axis=1) @ h.T / math.sqrt(2.0) + w[1]
        z0 = r1 @ np.conj(h[:, 0]) + np.conj(r2) @ h[:, 1]
        z1 = r1 @ np.conj(h[:, 1]) - np.conj(r2) @ h[:, 0]
        gain = np.sum(np.abs(h) ** 2)
        est = math.sqrt(2.0) * np.stack([z0, z1], axis=1) / (gain if gain > 0.0 else np.inf)
    else:
        r = s @ h.T / math.sqrt(2.0) + w[0]
        est = math.sqrt(2.0) * r @ np.linalg.pinv(h).T
    d = np.abs(est[..., None] - points)
    d_sent = np.take_along_axis(d, sym[..., None], axis=-1)
    return bool(np.all(np.sum(d <= d_sent, axis=-1) == 1))


def reference_arq_latencies(app, ctx, arq, rng, noise_std=1.0):
    """The draw contract of ``arq_latencies`` (blocks of ARQ_BLOCK_ROWS rows,
    rounds over the rows still undecoded, one merged draw of each kind per
    round), with each row's channel and packet worked out on its own from
    its first m paths by the reference steering, a 3-operand einsum and
    ``reference_packet_ok``."""
    points = _CONSTELLATIONS[app.constellation]
    blocks = arq.symbols_per_packet // 2
    slots = 2 if app.code == ALAMOUTI else 1
    latency = np.full(len(ctx), arq.max_retx)
    for start in range(0, len(ctx), ARQ_BLOCK_ROWS):
        active = list(range(start, min(start + ARQ_BLOCK_ROWS, len(ctx))))
        for attempt in range(1, arq.max_retx + 1):
            n = len(active)
            g = rng.standard_normal((2, n, PATHS_MAX))
            phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, n, PATHS_MAX))
            sym = rng.integers(0, points.size, size=(n, blocks, 2))
            w = np.zeros((2 * slots, n, blocks, 2))
            if noise_std != 0.0:
                w = rng.standard_normal((2 * slots, n, blocks, 2))
            w = noise_std / math.sqrt(2.0) * (w[0::2] + 1j * w[1::2])
            undecoded = []
            for j, row in enumerate(active):
                m = ctx.paths[row]
                gains = (g[0, j, :m] + 1j * g[1, j, :m]) / math.sqrt(m)
                e_r, e_t = reference_steering(phi[0, j, :m]), reference_steering(phi[1, j, :m])
                h = (math.sqrt(10.0 ** (ctx.snr_db[row] / 10.0))
                     * np.einsum("m,mi,mj->ij", gains, e_r, np.conj(e_t)))
                if reference_packet_ok(app, h, sym[j], w[:, j]):
                    latency[row] = attempt
                else:
                    undecoded.append(row)
            active = undecoded
            if not active:
                break
    return latency


def reference_decodes(est, sym, points):
    """The decode rule over every point: the sent point must be the only
    point no farther from the estimate than itself."""
    d = np.abs(est[..., None] - points)
    d_sent = np.take_along_axis(d, sym[..., None], axis=-1)
    return np.sum(d <= d_sent, axis=-1) == 1


@pytest.mark.parametrize("constellation", [BPSK, QPSK])
def test_mirror_point_decode_matches_reference_rule(constellation):
    # estimates at scales 1..1e20 around the points, on the axes (where
    # mirror images tie), at the points, and exactly 0 or NaN in a part
    points = _CONSTELLATIONS[constellation]
    mirrors = _mirror_images(points)
    assert np.array_equal(mirrors[0], points)
    for j in range(points.size):  # each sent point's candidates are all the points
        assert np.array_equal(np.sort_complex(mirrors[:, j]), np.sort_complex(points))
    rng = np.random.default_rng(69)
    for rows in (1, 5, 7, 83, 500):
        for scale in 10.0 ** np.arange(0, 21, 4):
            sym = rng.integers(0, points.size, size=(rows, 4, 2))
            est = points[sym] + scale * (rng.standard_normal(sym.shape)
                                         + 1j * rng.standard_normal(sym.shape)) / 1e4
            kind = rng.integers(0, 8, size=sym.shape)
            est[kind == 1] = 0.0
            est[kind == 2] = est[kind == 2].real
            est[kind == 3] = 1j * est[kind == 3].imag
            est[kind == 4] = complex(math.nan, 1.0)
            est[kind == 5] = complex(0.5, math.nan)
            est[kind == 6] = points[sym][kind == 6]
            got = _sent_is_nearest(est, np.take(mirrors, sym, axis=1))
            want = reference_decodes(est, sym, points)
            assert got.dtype == bool and np.array_equal(got, want), (rows, scale)
            assert not got[(kind == 1) | (kind == 4) | (kind == 5)].any()


def reference_attempt_decodes(app, amp, paths, blocks, rng, noise_std):
    """One ARQ attempt as the round-major rollouts first wrote it: the
    PATHS_MAX-wide channel with masked gains, repeated over the blocks,
    ``_alamouti_block`` or ``_multiplexing_block``, and the decode rule
    over every point.  Returns the (n,) decisions and the (n * blocks, 2)
    estimates."""
    points = _CONSTELLATIONS[app.constellation]
    g = rng.standard_normal((2, amp.size, PATHS_MAX))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, amp.size, PATHS_MAX))
    live = np.arange(PATHS_MAX) < paths[:, None]
    a = (g[0] + 1j * g[1]) * np.where(live, (amp / np.sqrt(paths))[:, None], 0.0)
    er, et = _steering_second(phi)
    et = np.conj(et)
    ar = a * er
    s = 1.0 / math.sqrt(2.0)
    h = np.stack([0.5 * a.sum(axis=1), s * (a * et).sum(axis=1),
                  s * ar.sum(axis=1), (ar * et).sum(axis=1)], axis=1)
    h = np.repeat(h.reshape(-1, 2, 2), blocks, axis=0)
    sym = rng.integers(0, points.size, size=(h.shape[0], 2))
    block = _alamouti_block if app.code == ALAMOUTI else _multiplexing_block
    est = block(h, points[sym], rng, noise_std)
    return reference_decodes(est, sym, points).reshape(amp.size, -1).all(axis=1), est


@pytest.mark.parametrize("app", PHY_APPS, ids=lambda a: a.key)
def test_attempt_decodes_match_repeated_channel_reference(app, monkeypatch):
    # same draws, same arithmetic: equal estimates (so equal bits, but for
    # the sign of a zero on an exactly zero channel), equal decisions and
    # generator states on rounds of 1 to 512 rows, across chunks, with
    # dead (-400 dB), exactly zero (-8000 dB) and noiseless (300 dB) channels
    estimates = []

    def spy(est, cand):
        estimates.append(est.copy())
        return _sent_is_nearest(est, cand)

    monkeypatch.setattr(phy_sim, "_sent_is_nearest", spy)
    rng = np.random.default_rng([70, PHY_APPS.index(app)])
    for n in (1, 2, 7, 83, 129, 512):
        snr_db = rng.uniform(-5.0, 15.0, n)
        snr_db[::11], snr_db[3::13], snr_db[5::17] = -400.0, -8000.0, 300.0
        paths = rng.integers(1, PATHS_MAX + 1, n)
        amp = np.sqrt(10.0 ** (snr_db / 10.0))
        live = np.arange(PATHS_MAX) < paths[:, None]
        for blocks, noise_std in ((4, 1.0), (1, 1.0), (3, 0.0)):
            seed = rng.integers(1 << 32)
            ref_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want, want_est = reference_attempt_decodes(app, amp, paths, blocks, ref_rng, noise_std)
            estimates.clear()
            got = _attempt_decodes(app, np.where(live, (amp / np.sqrt(paths))[:, None], 0.0),
                                   live, blocks, got_rng, noise_std)
            got_est = np.concatenate(estimates, axis=-1).transpose(2, 1, 0).reshape(-1, 2)
            for part in ("real", "imag"):
                a, b = getattr(got_est, part), getattr(want_est, part)
                assert np.array_equal(a, b, equal_nan=True), (n, blocks, noise_std, part)
            assert np.array_equal(got, want), (n, blocks, noise_std, np.flatnonzero(got != want))
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            assert 0 < want.sum() < n or n < 83


@pytest.mark.parametrize("app", PHY_APPS, ids=lambda a: a.key)
def test_arq_latencies_follow_their_draw_contract(app):
    # 600 rows cross a block boundary; -400 dB rows are dead channels,
    # m=1 rows rank-1 channels that multiplexing zero-forces through pinv
    rng = np.random.default_rng([64, PHY_APPS.index(app)])
    snr_db = rng.uniform(-5.0, 15.0, 600)
    snr_db[::50] = -400.0
    ctx = PhyContexts(snr_db=snr_db, paths=1 + np.arange(600) % PATHS_MAX)
    for case, (noise_std, spp, max_retx) in enumerate(((1.0, 8, 10), (0.0, 2, 3), (1.0, 2, 1))):
        arq = ArqConfig(max_retx=max_retx, symbols_per_packet=spp)
        ref_rng = np.random.default_rng([65, case])
        got_rng = np.random.default_rng([65, case])
        want = reference_arq_latencies(app, ctx, arq, ref_rng, noise_std)
        got = arq_latencies(app, ctx, arq, got_rng, noise_std)
        assert np.array_equal(got, want), (arq, noise_std, np.flatnonzero(got != want))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


# Fixed before the results were seen: a two-proportion z test of the
# first-attempt success probability, |z| <= 4, and a chi-square test of
# homogeneity of the whole latency law (cells with no draws on either
# side dropped), p >= 1e-4.  With 16 cells of two tests each, a correct
# program fails one by chance with probability below 0.3%.
LAW_POINTS = ((0.0, 1), (0.0, 10), (8.0, 1), (8.0, 10))
LAW_Z_MAX = 4.0
LAW_P_MIN = 1e-4


@pytest.mark.parametrize("app", PHY_APPS, ids=lambda a: a.key)
def test_arq_latencies_law_matches_reference(app):
    arq = ArqConfig(max_retx=4, symbols_per_packet=8)
    n_ref, n_batch = 1200, 20_000
    for point, (snr_db, m) in enumerate(LAW_POINTS):
        rng = np.random.default_rng([66, PHY_APPS.index(app), point])
        want = np.array([reference_transmit_arq(app, snr_db, m, arq, rng) for _ in range(n_ref)])
        ctx = PhyContexts(snr_db=np.full(n_batch, snr_db), paths=np.full(n_batch, m))
        got = arq_latencies(app, ctx, arq, rng)
        p_ref, p_got = np.mean(want == 1), np.mean(got == 1)
        pooled = (p_ref * n_ref + p_got * n_batch) / (n_ref + n_batch)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_ref + 1.0 / n_batch))
        z = 0.0 if se == 0.0 else (p_got - p_ref) / se
        assert abs(z) <= LAW_Z_MAX, (snr_db, m, p_ref, p_got, z)
        table = np.array([[np.sum(y == t) for t in range(1, arq.max_retx + 1)]
                          for y in (want, got)])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] > 1:
            p = stats.chi2_contingency(table, correction=False).pvalue
            assert p >= LAW_P_MIN, (snr_db, m, table, p)


# ---------------------------------------------------------------------------
# SER-table fast path against the reference


SER_SNRS_DB = (-400.0, -5.0, 5.0, 15.0, 40.0)


def test_channel_batch_matches_reference_bytes():
    for seed, m, snr_db, n in itertools.product(range(3), range(1, PATHS_MAX + 1),
                                                SER_SNRS_DB, (1, 7, 64)):
        ref_rng = np.random.default_rng([seed, m, n])
        rng = np.random.default_rng([seed, m, n])
        want = reference_channel_batch(snr_db, m, n, ref_rng)
        got = _channel_batch(snr_db, m, n, rng)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (seed, m, snr_db, n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("app", PHY_APPS, ids=lambda a: a.key)
def test_estimate_ser_matches_pinv_reference(app):
    for seed, m, snr_db, n_symbols in itertools.product(
            range(3), range(1, PATHS_MAX + 1), SER_SNRS_DB, (2, 41, 400)):
        ref_rng = np.random.default_rng([seed, m, n_symbols])
        rng = np.random.default_rng([seed, m, n_symbols])
        want = reference_estimate_ser(app, snr_db, m, ref_rng, n_symbols)
        got = estimate_ser(app, snr_db, m, rng, n_symbols)
        assert repr(got) == repr(want), (seed, m, snr_db, n_symbols)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_zero_forcing_pinv_where_in_doubt_inverse_where_clear():
    rng = np.random.default_rng(16)
    single = _channel_batch(10.0, 1, 300, rng)   # rank-1: all in doubt
    multi = np.concatenate([_channel_batch(snr_db, m, 200, rng)
                            for m in range(2, PATHS_MAX + 1) for snr_db in (-400.0, 5.0)])
    edge = np.array([np.zeros((2, 2)),
                     [[1.0 + 2.0j, 2.0 - 1.0j], [2.0 + 4.0j, 4.0 - 2.0j]],  # det exactly 0
                     [[1e-160, 2e-160], [3e-160, 1e-160j]],  # det below the normal range
                     [[1e150, 2e150], [3e150, 1e150j]],
                     [[1e200, 2e200], [3e200, 1e200j]]],  # ||H||_F^2 overflows
                    dtype=complex)
    h = np.concatenate([single, multi, edge])
    got = _zero_forcing(h)
    want = np.linalg.pinv(h)
    assert np.all(np.isfinite(got))
    # rows in doubt are pinv's, bit for bit
    n1 = single.shape[0]
    assert got[:n1].tobytes() == want[:n1].tobytes()
    for k in (0, 1, 2, 4):
        assert got[-5 + k].tobytes() == want[-5 + k].tobytes()
    # clear rows are the inverse to rounding: error about eps * cond(H)
    clear = slice(n1, n1 + multi.shape[0])
    scale = np.max(np.abs(want[clear]), axis=(1, 2))
    rel = np.max(np.abs(got[clear] - want[clear]), axis=(1, 2)) / scale
    cond = np.linalg.cond(h[clear])
    assert np.all(rel <= np.maximum(1e-12, 10.0 * np.finfo(float).eps * cond))
    np.testing.assert_allclose(got[-2], want[-2], rtol=1e-12)


def test_zero_forcing_sends_nan_channels_to_pinv():
    # a NaN det fails the clear test, so pinv's own error surfaces
    h = np.array([[[1.0, 2.0], [3.0, 4.0]], [[math.nan, 1.0], [1.0, 1.0]]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.pinv(h[1:])
    with pytest.raises(np.linalg.LinAlgError):
        _zero_forcing(h)


# ---------------------------------------------------------------------------
# SER estimation and table


def test_ser_clamped_into_open_interval():
    rng = np.random.default_rng(10)
    hi = estimate_ser(AB, 60.0, 10, rng, n_symbols=2000)   # error-free regime
    lo = estimate_ser(MQ, -60.0, 1, rng, n_symbols=2000)   # hopeless regime
    assert hi == pytest.approx(1e-6)
    assert lo <= 1.0 - 1e-6


@pytest.mark.parametrize("n_symbols", [1, 0])
def test_estimate_ser_rejects_fewer_than_one_block(n_symbols):
    # one symbol makes no 2-symbol block; the mean over none was NaN
    with pytest.raises(ContractViolationError):
        estimate_ser(AB, 5.0, 3, np.random.default_rng(0), n_symbols=n_symbols)


def test_table_build_rejects_one_symbol_per_cell():
    with pytest.raises(ContractViolationError):
        SerTable.build(n_mc=1)


@pytest.mark.parametrize("bin_width", [0.0, -1.0, math.nan, math.inf])
def test_table_build_rejects_bad_bin_width(bin_width):
    with pytest.raises(ContractViolationError):
        SerTable.build(n_mc=2, bin_width=bin_width)


@pytest.mark.parametrize("snr_lo, snr_hi", [(5.0, 5.0), (15.0, -5.0), (math.nan, 15.0),
                                            (-5.0, math.inf), (0.0, 0.4)])
def test_table_build_rejects_empty_or_non_finite_range(snr_lo, snr_hi):
    # (0, 0.4) with 1 dB bins rounds to zero bins
    with pytest.raises(ContractViolationError):
        SerTable.build(n_mc=2, snr_lo=snr_lo, snr_hi=snr_hi)


def test_table_monotone_in_snr(small_table):
    # 3-sigma Monte-Carlo wiggle allowance at n_mc=3000
    tol = 0.03
    v = small_table.values
    for a in range(4):
        for m in range(10):
            col = v[a, :, m]
            assert np.all(np.diff(col) <= tol), (PHY_APPS[a].key, m + 1)
            assert col[-1] < col[0]


def test_table_diversity_gap_at_high_snr(small_table):
    # full-diversity BPSK decays far below rank-deficient-prone QPSK mux
    ab = small_table.values[PHY_APPS.index(AB)]
    mq = small_table.values[PHY_APPS.index(MQ)]
    assert np.all(ab[-4:, :] < mq[-4:, :])


def test_table_alamouti_slope_steeper(small_table):
    # compare log-SER slopes at m=10 over the window where both are
    # comfortably above the clamp
    bins = np.arange(small_table.n_bins)
    ab = np.log10(small_table.values[PHY_APPS.index(AB), :, 9])
    mb = np.log10(small_table.values[PHY_APPS.index(MB), :, 9])
    window = (small_table.values[PHY_APPS.index(AB), :, 9] > 1e-3)
    slope_ab = np.polyfit(bins[window], ab[window], 1)[0]
    slope_mb = np.polyfit(bins[window], mb[window], 1)[0]
    assert slope_ab < slope_mb < 0.0


def test_table_multiplexing_improves_with_paths(small_table):
    # richer multipath decorrelates the streams; asserted for m >= 2 on
    # the upper half of the SNR grid where spatial structure (not noise)
    # dominates.  m=1 is excluded: the exactly rank-1 channel is a
    # different detection regime (pseudo-inverse projection) that can
    # beat a barely-full-rank m=2 channel under zero forcing.
    tol = 0.03
    for app in (MB, MQ):
        v = small_table.values[PHY_APPS.index(app)]
        upper = v[10:, 1:]
        assert np.all(np.diff(upper, axis=1) <= tol), app.key
        assert np.all(upper[:, -1] < upper[:, 0])


def test_table_roundtrip(tmp_path, small_table):
    path = tmp_path / "ser.csv"
    small_table.save(path)
    loaded = SerTable.load(path)
    assert np.array_equal(loaded.values, small_table.values)
    assert loaded.snr_lo == small_table.snr_lo
    assert loaded.n_mc == small_table.n_mc and loaded.seed == small_table.seed
    header = path.read_text().splitlines()[0]
    assert header == "app,snr_bin_low_db,m,ser,n_mc,seed"


def test_table_build_reproducible():
    a = SerTable.build(n_mc=400, seed=5)
    b = SerTable.build(n_mc=400, seed=5)
    assert np.array_equal(a.values, b.values)


def test_table_lookup_out_of_grid():
    t = SerTable.build(n_mc=200, seed=6)
    with pytest.raises(ConfigurationError):
        t.lookup(AB, 0.0, 99)
    # snr outside the grid clamps to the edge bins
    assert t.lookup(AB, [-50.0, 50.0], [3, 3]).tolist() == [t.values[0, 0, 2], t.values[0, -1, 2]]


def test_table_lookup_rejects_unset_cell():
    t = SerTable.build(n_mc=200, seed=6)
    t.values[1, 4, 2] = np.nan
    assert np.isfinite(t.lookup(AQ, [-1.5, 0.5], [3, 3])).all()  # bins 3 and 5
    with pytest.raises(ConfigurationError, match="unset"):
        t.lookup(AQ, [0.5, -0.5], [3, 3])  # bin 4


# ---------------------------------------------------------------------------
# selection policy


def constant_table(eps_by_app):
    values = np.zeros((4, 20, 10))
    for a, app in enumerate(PHY_APPS):
        values[a] = eps_by_app[app.key]
    return SerTable(values=values, snr_lo=-5.0, bin_width=1.0, n_mc=0, seed=0)


def test_equal_sers_give_uniform_selection():
    table = constant_table({a.key: 0.3 for a in PHY_APPS})
    pol = PhyPolicy(temperature=1.0, ser_table=table)
    p = pol.app_probabilities(PhyContexts(snr_db=[3.0], paths=[4]))
    np.testing.assert_allclose(p, 0.25)


def test_large_temperature_tends_uniform(small_table):
    pol = PhyPolicy(temperature=1e6, ser_table=small_table)
    p = pol.app_probabilities(PhyContexts(snr_db=[8.0], paths=[5]))
    np.testing.assert_allclose(p, 0.25, atol=1e-3)


def test_softmax_hand_evaluation():
    # two live apps with ser 0.1 and 0.2 at T=1: odds e^10 : e^5
    table = constant_table({"alamouti_bpsk": 0.1, "alamouti_qpsk": 0.2,
                            "multiplexing_bpsk": 1 - 1e-6, "multiplexing_qpsk": 1 - 1e-6})
    pol = PhyPolicy(temperature=1.0, ser_table=table)
    p = pol.app_probabilities(PhyContexts(snr_db=[0.0], paths=[1]))
    ratio = p[0, 0] / (p[0, 0] + p[0, 1])
    assert ratio == pytest.approx(math.exp(10) / (math.exp(10) + math.exp(5)), rel=1e-9)
    assert p[0, 0] / p[0, 1] == pytest.approx(math.exp(5), rel=1e-9)


def test_softmax_probabilities_sum_to_one(small_table):
    # normalized arithmetic: exact up to a final-rounding ulp
    pol = PhyPolicy(temperature=2.0, ser_table=small_table)
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = pol.app_probabilities(sample_context(rng))
        assert abs(p.sum() - 1.0) <= 5e-16


def test_weight_reciprocity_all_pairs(small_table):
    pol = PhyPolicy(temperature=1.0, ser_table=small_table)
    rng = np.random.default_rng(12)
    for _ in range(50):
        ctx = sample_context(rng)
        for a in PHY_APPS:
            for b in PHY_APPS:
                prod = pol.weight(ctx, a, b) * pol.weight(ctx, b, a)
                assert prod == pytest.approx(1.0, rel=1e-12)


def test_batch_weight_is_per_element_math_exp():
    # exponents past both clip edges (where one app's SER sits at the clamp)
    # and between them, where numpy's vectorized exp differs from math.exp
    # in the last bit on some inputs
    t = 100.0
    pol = PhyPolicy(temperature=t, ser_table=SerTable.default())
    snr_db = np.repeat(np.arange(-5.0, 15.0, 0.25), PATHS_MAX)
    paths = np.tile(np.arange(1, PATHS_MAX + 1), snr_db.size // PATHS_MAX)
    ctx = PhyContexts(snr_db=snr_db, paths=paths)

    def utility(app, s, m):
        return 1.0 / (float(pol.ser_table.lookup(app, s, m)[0]) * t)

    exponents = []
    for numer, denom in ((AB, AQ), (AQ, AB), (MQ, MB)):
        z = [utility(numer, s, m) - utility(denom, s, m) for s, m in zip(snr_db, paths)]
        want = np.array([math.exp(min(max(v, -700.0), 700.0)) for v in z])
        assert np.array_equal(pol.weight(ctx, numer, denom), want)
        assert not np.array_equal(np.exp(np.clip(z, -700.0, 700.0)), want)
        exponents += z
    assert min(exponents) < -700.0 and max(exponents) > 700.0
