"""Link-simulator tests: context sampling, channel statistics, ARQ
latency, the Monte-Carlo SER grid, and softmax app selection."""

import csv
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
    N_SNR_BINS,
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
    snr_bin_masses,
    transmit_arq,
)
from ccke.phy_sim import (
    _CONSTELLATIONS,
    _attempt_decodes,
    _channels,
    _mirror_images,
    _path_amplitudes,
    _sent_is_nearest,
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


def sample_context(rng):
    """One context, as a batch of one: SNR from a rejection-sampled
    truncated Gaussian, m uniform on 1..10."""
    while True:
        snr = rng.normal(phy_sim.SNR_DB_MEAN, phy_sim.SNR_DB_SIGMA)
        if phy_sim.SNR_DB_MIN <= snr <= phy_sim.SNR_DB_MAX:
            return PhyContexts(snr_db=[float(snr)], paths=[int(rng.integers(1, PATHS_MAX + 1))])


def test_bin_masses_normalized_and_centered():
    m = snr_bin_masses()
    assert m.sum() == pytest.approx(1.0)
    assert np.argmax(m) in (9, 10)  # mode at the 5 dB mean


# ---------------------------------------------------------------------------
# channel model: the link kernel's channels


def kernel_channels(snr_db, paths, n, rng, width=None):
    """n channels of the link kernel, (n, 2, 2), from gains and angles
    drawn at ``width`` path slots (default m; ``PATHS_MAX`` masks the
    slots beyond m, as the ARQ rollouts do)."""
    width = paths if width is None else width
    ctx = PhyContexts(snr_db=np.full(n, snr_db), paths=np.full(n, paths))
    amp, live = _path_amplitudes(ctx, width)
    g = rng.standard_normal((2, n, width))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, n, width))
    return _channels(amp, live, g, phi).transpose(2, 1, 0)


def unit_gain_channels(phi):
    """Single-path channels e_r(phi_r) e_t(phi_t)^H of gain 1, (n, 2, 2),
    for (2, n) receive and transmit angles."""
    n = phi.shape[1]
    g = np.stack([np.ones((n, 1)), np.zeros((n, 1))])
    return _channels(np.ones((n, 1)), np.ones((n, 1), dtype=bool), g,
                     phi[:, :, None]).transpose(2, 1, 0)


def test_steering_vector_broadside():
    # the first entry is 1/sqrt(2) at every angle, so h_00 is a / 2 exactly;
    # at broadside the second entry is 1/sqrt(2) as well
    rng = np.random.default_rng(3)
    h = unit_gain_channels(rng.uniform(0, 2 * math.pi, (2, 64)))
    assert np.all(h[:, 0, 0] == 0.5)
    h = unit_gain_channels(np.full((2, 1), math.pi / 2.0))
    np.testing.assert_allclose(h[0], np.full((2, 2), 0.5), atol=1e-12)


def test_steering_vector_unit_norm():
    rng = np.random.default_rng(3)
    h = unit_gain_channels(rng.uniform(0, 2 * math.pi, (2, 64)))
    np.testing.assert_allclose(np.sum(np.abs(h) ** 2, axis=(1, 2)), 1.0, atol=1e-12)


def test_single_path_channel_rank_one():
    rng = np.random.default_rng(4)
    for width in (1, PATHS_MAX):
        s = np.linalg.svd(kernel_channels(10.0, 1, 50, rng, width), compute_uv=False)
        assert np.all(s[:, 1] <= 1e-10 * np.maximum(s[:, 0], 1.0))


def test_channel_second_moment():
    rng = np.random.default_rng(5)
    snr_db = 7.0
    snr_lin = 10.0 ** (snr_db / 10.0)
    for m in (1, 4, 10):
        for width in (m, PATHS_MAX):
            h = kernel_channels(snr_db, m, 10_000, rng, width)
            sq = np.sum(np.abs(h) ** 2, axis=(1, 2))
            assert np.mean(sq) == pytest.approx(2.0 * snr_lin, rel=0.05)


# ---------------------------------------------------------------------------
# ARQ


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
    rng = np.random.default_rng(67)
    for app in PHY_APPS:
        y = arq_latencies(app, ctx, arq, rng)
        assert np.all(y == 3), (app, np.flatnonzero(y != 3))


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
# einsum over paths, and zero-forcing through pinv of every channel; and
# textbook detection of one 2-symbol block on each channel, whose
# arithmetic the link kernel must keep bit for bit


def frozen_steering_second(phi):
    """Second entry of the unit-norm two-element array response, as
    numpy's complex exp (the first entry is 1/sqrt(2) at every angle)."""
    second = np.exp(-2j * math.pi * ANTENNA_SEPARATION * np.cos(phi))
    second *= 1.0 / math.sqrt(2.0)
    return second


def frozen_draw_noise(shape, rng):
    scale = 1.0 / math.sqrt(2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def frozen_alamouti_block(h, s, rng):
    """(n,2,2) channels x (n,2) symbol values -> (n,2) soft estimates."""
    tx1 = s / math.sqrt(2.0)
    tx2 = np.stack([-np.conj(s[:, 1]), np.conj(s[:, 0])], axis=1) / math.sqrt(2.0)
    r1 = np.einsum("nij,nj->ni", h, tx1) + frozen_draw_noise(s.shape, rng)
    r2 = np.einsum("nij,nj->ni", h, tx2) + frozen_draw_noise(s.shape, rng)
    h1, h2 = h[:, :, 0], h[:, :, 1]
    z1 = np.sum(np.conj(h1) * r1, axis=1) + np.conj(np.sum(np.conj(h2) * r2, axis=1))
    z2 = np.sum(np.conj(h2) * r1, axis=1) - np.conj(np.sum(np.conj(h1) * r2, axis=1))
    gain = np.sum(np.abs(h) ** 2, axis=(1, 2))
    gain = np.where(gain > 0.0, gain, np.inf)  # dead channel estimates 0
    return math.sqrt(2.0) * np.stack([z1, z2], axis=1) / gain[:, None]


def frozen_multiplexing_block(h, s, rng):
    """One slot, one independent symbol per antenna, zero-forcing receive."""
    r = np.einsum("nij,nj->ni", h, s / math.sqrt(2.0)) + frozen_draw_noise(s.shape, rng)
    return math.sqrt(2.0) * np.einsum("nij,nj->ni", _zero_forcing(h), r)


def reference_decodes(est, sym, points):
    """The decode rule over every point: the sent point must be the only
    point no farther from the estimate than itself."""
    d = np.abs(est[..., None] - points)
    d_sent = np.take_along_axis(d, sym[..., None], axis=-1)
    return np.sum(d <= d_sent, axis=-1) == 1


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


def reference_estimates(app, h, sym, rng):
    """Batched detector outputs; multiplexing zero-forces through the
    batched-SVD pseudo-inverse of every channel."""
    s = _CONSTELLATIONS[app.constellation][sym]
    if app.code == ALAMOUTI:
        return frozen_alamouti_block(h, s, rng)
    r = np.einsum("nij,nj->ni", h, s / math.sqrt(2.0)) + frozen_draw_noise(s.shape, rng)
    return math.sqrt(2.0) * np.einsum("nij,nj->ni", np.linalg.pinv(h), r)


def reference_estimate_ser(app, snr_db, paths, rng, n_symbols):
    """SER over reference channels and reference detection; a tie is a
    symbol error."""
    points = _CONSTELLATIONS[app.constellation]
    blocks = n_symbols // 2
    h = reference_channel_batch(snr_db, paths, blocks, rng)
    sym = rng.integers(0, points.size, size=(blocks, 2))
    ser = np.mean(~reference_decodes(reference_estimates(app, h, sym, rng), sym, points))
    return float(np.clip(ser, SER_CLAMP, 1.0 - SER_CLAMP))


# ---------------------------------------------------------------------------
# round-major ARQ batches against per-row references


def reference_transmit_arq(app, snr_db, paths, arq, rng):
    """The batched per-attempt loop: one numpy channel draw repeated over
    the blocks, numpy estimates of every block, then a whole-packet check
    that each sent point is strictly nearest its estimate."""
    constellation = _CONSTELLATIONS[app.constellation]
    blocks = arq.symbols_per_packet // 2
    for attempt in range(1, arq.max_retx + 1):
        h = reference_channel_batch(snr_db, paths, 1, rng)
        hb = np.repeat(h, blocks, axis=0)
        sym = rng.integers(0, constellation.size, size=(blocks, 2))
        d = np.abs(reference_estimates(app, hb, sym, rng)[..., None] - constellation)
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


def reference_arq_latencies(app, ctx, arq, rng):
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
            w = rng.standard_normal((2 * slots, n, blocks, 2))
            w = 1.0 / math.sqrt(2.0) * (w[0::2] + 1j * w[1::2])
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


def reference_attempt_decodes(app, amp, paths, blocks, rng):
    """One ARQ attempt as the round-major rollouts first wrote it: the
    PATHS_MAX-wide channel with masked gains, repeated over the blocks,
    ``frozen_alamouti_block`` or ``frozen_multiplexing_block``, and the
    decode rule over every point.  Returns the (2 * blocks, n) per-symbol
    decisions, laid out as ``_attempt_decodes`` lays them out, and the (n
    * blocks, 2) estimates."""
    points = _CONSTELLATIONS[app.constellation]
    g = rng.standard_normal((2, amp.size, PATHS_MAX))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, amp.size, PATHS_MAX))
    live = np.arange(PATHS_MAX) < paths[:, None]
    a = (g[0] + 1j * g[1]) * np.where(live, (amp / np.sqrt(paths))[:, None], 0.0)
    er, et = frozen_steering_second(phi)
    et = np.conj(et)
    ar = a * er
    s = 1.0 / math.sqrt(2.0)
    h = np.stack([0.5 * a.sum(axis=1), s * (a * et).sum(axis=1),
                  s * ar.sum(axis=1), (ar * et).sum(axis=1)], axis=1)
    h = np.repeat(h.reshape(-1, 2, 2), blocks, axis=0)
    sym = rng.integers(0, points.size, size=(h.shape[0], 2))
    block = frozen_alamouti_block if app.code == ALAMOUTI else frozen_multiplexing_block
    est = block(h, points[sym], rng)
    ok = reference_decodes(est, sym, points).reshape(amp.size, blocks, 2)
    return ok.transpose(2, 1, 0).reshape(-1, amp.size), est


@pytest.mark.parametrize("app", PHY_APPS, ids=lambda a: a.key)
def test_attempt_decodes_match_repeated_channel_reference(app, monkeypatch):
    # same draws, same arithmetic: equal estimates (so equal bits, but for
    # the sign of a zero on an exactly zero channel), equal decisions and
    # generator states on rounds of 1 to 512 rows, across chunks, with
    # dead (-400 dB), exactly zero (-8000 dB) and all but noiseless (300 dB) channels
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
        for blocks in (4, 1, 3):
            seed = rng.integers(1 << 32)
            ref_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want, want_est = reference_attempt_decodes(app, amp, paths, blocks, ref_rng)
            estimates.clear()
            got = _attempt_decodes(app, np.where(live, (amp / np.sqrt(paths))[:, None], 0.0),
                                   live, blocks, got_rng)
            got_est = np.concatenate(estimates, axis=-1).transpose(2, 1, 0).reshape(-1, 2)
            for part in ("real", "imag"):
                a, b = getattr(got_est, part), getattr(want_est, part)
                assert np.array_equal(a, b, equal_nan=True), (n, blocks, part)
            assert np.array_equal(got, want), (n, blocks, np.flatnonzero(got != want))
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            assert 0 < want.all(axis=0).sum() < n or n < 83


@pytest.mark.parametrize("app", PHY_APPS, ids=lambda a: a.key)
def test_arq_latencies_follow_their_draw_contract(app):
    # 600 rows cross a block boundary; -400 dB rows are dead channels,
    # m=1 rows rank-1 channels that multiplexing zero-forces through pinv
    rng = np.random.default_rng([64, PHY_APPS.index(app)])
    snr_db = rng.uniform(-5.0, 15.0, 600)
    snr_db[::50] = -400.0
    ctx = PhyContexts(snr_db=snr_db, paths=1 + np.arange(600) % PATHS_MAX)
    for case, (spp, max_retx) in enumerate(((8, 10), (2, 3), (2, 1))):
        arq = ArqConfig(max_retx=max_retx, symbols_per_packet=spp)
        ref_rng = np.random.default_rng([65, case])
        got_rng = np.random.default_rng([65, case])
        want = reference_arq_latencies(app, ctx, arq, ref_rng)
        got = arq_latencies(app, ctx, arq, got_rng)
        assert np.array_equal(got, want), (arq, np.flatnonzero(got != want))
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
# SER estimates of the link kernel against the reference


SER_SNRS_DB = (-400.0, -5.0, 5.0, 15.0, 40.0)


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


def test_estimate_ser_across_decode_chunks_matches_reference():
    # 515 one-block rows: a full decode chunk of DECODE_CHUNK_BLOCKS rows and 3
    n_symbols = 2 * (phy_sim.DECODE_CHUNK_BLOCKS + 3)
    for app, m in itertools.product(PHY_APPS, (1, PATHS_MAX)):
        ref_rng, rng = np.random.default_rng([17, m]), np.random.default_rng([17, m])
        want = reference_estimate_ser(app, 3.0, m, ref_rng, n_symbols)
        assert repr(estimate_ser(app, 3.0, m, rng, n_symbols)) == repr(want), (app, m)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_zero_forcing_pinv_where_in_doubt_inverse_where_clear():
    rng = np.random.default_rng(16)
    single = kernel_channels(10.0, 1, 300, rng)   # rank-1: all in doubt
    multi = np.concatenate([kernel_channels(snr_db, m, 200, rng)
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


@pytest.mark.parametrize("snr_db", [3100.0, 1000.5, math.nan, math.inf])
def test_estimate_ser_rejects_snr_above_ceiling(snr_db):
    # at 3,100 dB the channel gain overflowed into a bare OverflowError
    for app in PHY_APPS:
        with pytest.raises(ContractViolationError, match="snr_db"):
            estimate_ser(app, snr_db, 2, np.random.default_rng(0), 2000)


def test_estimate_ser_accepts_the_ceiling():
    for app in PHY_APPS:
        ser = estimate_ser(app, SNR_DB_CEILING, 2, np.random.default_rng(0), 2000)
        assert SER_CLAMP <= ser <= 1.0 - SER_CLAMP


@pytest.mark.parametrize("paths", [0, 11, 2.5])
def test_estimate_ser_rejects_invalid_paths(paths):
    # paths=0 raised a bare ZeroDivisionError and paths=11 simulated an
    # 11-path channel
    for app in PHY_APPS:
        with pytest.raises(ContractViolationError, match="paths"):
            estimate_ser(app, 5.0, paths, np.random.default_rng(0), 2000)


def test_ser_of_dead_and_hopeless_channels_reads_the_clamp():
    # at -8000 dB H = 0 and every estimate is 0; at -400 dB the estimate is
    # so large that every distance rounds to a tie.  A tie is a symbol error
    for snr_db, app, m in itertools.product((-8000.0, -400.0), PHY_APPS, (1, 4, PATHS_MAX)):
        ser = estimate_ser(app, snr_db, m, np.random.default_rng([18, m]), 2000)
        assert ser == 1.0 - SER_CLAMP, (snr_db, app, m, ser)


def test_table_build_rejects_one_symbol_per_cell():
    with pytest.raises(ContractViolationError):
        SerTable.build(n_mc=1)


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
    bins = np.arange(N_SNR_BINS)
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
    assert loaded.n_mc == small_table.n_mc and loaded.seed == small_table.seed
    header = path.read_text().splitlines()[0]
    assert header == "app,snr_bin_low_db,m,ser,n_mc,seed"


def write_ser_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["app", "snr_bin_low_db", "m", "ser", "n_mc", "seed"])
        writer.writerows([key, repr(low), m, 0.25, 1, 0] for key, low, m in rows)


def test_table_save_load_round_trips_bit_for_bit(tmp_path):
    values = np.random.default_rng(19).uniform(SER_CLAMP, 1.0 - SER_CLAMP,
                                               (len(PHY_APPS), N_SNR_BINS, PATHS_MAX))
    table = SerTable(values=values, n_mc=7, seed=3)
    table.save(tmp_path / "a.csv")
    loaded = SerTable.load(tmp_path / "a.csv")
    assert loaded.values.tobytes() == values.tobytes()
    assert (loaded.n_mc, loaded.seed) == (7, 3)
    loaded.save(tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    # the rows may come in any order
    lines = (tmp_path / "a.csv").read_text().splitlines()
    (tmp_path / "c.csv").write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    assert SerTable.load(tmp_path / "c.csv").values.tobytes() == values.tobytes()


def _with_ser(text):
    """Row 5 (file line 6, the cell alamouti_bpsk at -5 dB and m=5) with
    its SER field set to ``text``."""
    return lambda rows: rows[:5] + [rows[5][:3] + [text] + rows[5][4:]] + rows[6:]


# each case edits the rows of the saved default table (row 0 the header) and
# gives what the error must say after the file name.  Before load checked
# them, a zero or NaN cell and a missing row loaded and then failed at the
# first draw as numpy's "Probabilities contain NaN"; -0.5, 1.5 and a
# duplicated row (the last one won) ran silently; a short row and a
# non-number raised a bare ValueError
BAD_TABLE_FILES = {
    "zero": (_with_ser("0.0"), r", line 6: SER 0\.0 is not in \(0, 1\)"),
    "negative": (_with_ser("-0.5"), r", line 6: SER -0\.5 is not in \(0, 1\)"),
    "above-one": (_with_ser("1.5"), r", line 6: SER 1\.5 is not in \(0, 1\)"),
    "nan": (_with_ser("nan"), r", line 6: SER nan is not in \(0, 1\)"),
    "missing-row": (lambda rows: rows[:5] + rows[6:],
                    r": no row for cell \(alamouti_bpsk, -5\.0, m=5\), one of 1 missing"),
    "duplicated-row": (lambda rows: rows + [rows[5]],
                       r", line 802: a second row for cell \(alamouti_bpsk, -5\.0, m=5\)"),
    "short-row": (lambda rows: rows[:5] + [rows[5][:4]] + rows[6:],
                  r", line 6: not enough values to unpack \(expected 6, got 4\)"),
    "not-a-number": (_with_ser("0.1x"), r", line 6: could not convert string to float: '0\.1x'"),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLE_FILES))
def test_table_load_names_the_bad_line_or_cell(tmp_path, case):
    edit, match = BAD_TABLE_FILES[case]
    SerTable.default().save(tmp_path / "good.csv")
    with open(tmp_path / "good.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(tmp_path / "bad.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))
    with pytest.raises(ConfigurationError, match=rf"bad\.csv{match}"):
        SerTable.load(tmp_path / "bad.csv")


@pytest.mark.parametrize("lows", [(-5.0, -4.0, -3.5), (-5.0, -4.0, 15.0),
                                  (-5.0, -4.0, -3.0 + 1e-9)])
def test_table_load_rejects_lows_off_the_grid(tmp_path, lows):
    # 15 dB is the grid's top edge, not the low of a bin
    path = tmp_path / "ser.csv"
    write_ser_rows(path, [(AB.key, low, m) for low in lows for m in range(1, PATHS_MAX + 1)])
    bad_line = 2 + 2 * PATHS_MAX  # header, then two bins of good rows
    with pytest.raises(ConfigurationError,
                       match=rf"ser\.csv, line {bad_line}: SNR bin low {lows[2]!r} is not on"):
        SerTable.load(path)


def test_table_load_rejects_an_unknown_app(tmp_path):
    path = tmp_path / "ser.csv"
    write_ser_rows(path, [(AB.key, -5.0, 1), (AB.key, -4.0, 1), ("alamouti_8psk", -5.0, 2)])
    with pytest.raises(ConfigurationError, match=r"ser\.csv, line 4: unknown app 'alamouti_8psk'"):
        SerTable.load(path)


@pytest.mark.parametrize("m", [0, PATHS_MAX + 1])
def test_table_load_rejects_a_path_count_off_the_grid(tmp_path, m):
    # m = 0 used to land silently in the m = PATHS_MAX column
    path = tmp_path / "ser.csv"
    write_ser_rows(path, [(AB.key, -5.0, 1), (AB.key, -4.0, m)])
    with pytest.raises(ConfigurationError, match=rf"ser\.csv, line 3: path count {m} is not in"):
        SerTable.load(path)


def test_table_build_reproducible():
    a = SerTable.build(n_mc=400, seed=5)
    b = SerTable.build(n_mc=400, seed=5)
    assert np.array_equal(a.values, b.values)


def test_table_lookup_out_of_grid():
    t = SerTable.build(n_mc=200, seed=6)
    with pytest.raises(ConfigurationError, match="no app"):
        t.lookup(AB.key, PhyContexts(snr_db=[0.0], paths=[3]))
    with pytest.raises(ContractViolationError, match="paths"):  # no context reaches the table
        PhyContexts(snr_db=[0.0], paths=[99])
    # snr outside the grid clamps to the edge bins
    ctx = PhyContexts(snr_db=[-50.0, 50.0], paths=[3, 3])
    assert t.lookup(AB, ctx).tolist() == [t.values[0, 0, 2], t.values[0, -1, 2]]


@pytest.mark.parametrize("value", [math.nan, 0.0, 1.0, -0.5, math.inf])
def test_table_rejects_a_cell_outside_0_1(value):
    # a NaN cell used to fail only at a lookup that read it, a zero one ran
    # with divide warnings
    values = np.full((len(PHY_APPS), N_SNR_BINS, PATHS_MAX), 0.25)
    values[1, 4, 2] = value
    with pytest.raises(ConfigurationError,
                       match=rf"cell \(alamouti_qpsk, -1\.0, m=3\) is {value!r}, not in \(0, 1\)"):
        SerTable(values=values, n_mc=1, seed=0)
    with pytest.raises(ConfigurationError, match=r"shape \(4, 20, 10\), got \(4, 19, 10\)"):
        SerTable(values=values[:, 1:], n_mc=1, seed=0)


# ---------------------------------------------------------------------------
# selection policy


def constant_table(eps_by_app):
    values = np.zeros((4, 20, 10))
    for a, app in enumerate(PHY_APPS):
        values[a] = eps_by_app[app.key]
    return SerTable(values=values, n_mc=0, seed=0)


def test_equal_sers_give_uniform_selection():
    table = constant_table({a.key: 0.3 for a in PHY_APPS})
    pol = PhyPolicy(temperature=1.0, ser_table=table)
    p = np.exp(pol.log_app_probabilities(PhyContexts(snr_db=[3.0], paths=[4])))
    np.testing.assert_allclose(p, 0.25)


def test_large_temperature_tends_uniform(small_table):
    pol = PhyPolicy(temperature=1e6, ser_table=small_table)
    p = np.exp(pol.log_app_probabilities(PhyContexts(snr_db=[8.0], paths=[5])))
    np.testing.assert_allclose(p, 0.25, atol=1e-3)


def test_softmax_hand_evaluation():
    # two live apps with ser 0.1 and 0.2 at T=1: odds e^10 : e^5
    table = constant_table({"alamouti_bpsk": 0.1, "alamouti_qpsk": 0.2,
                            "multiplexing_bpsk": 1 - 1e-6, "multiplexing_qpsk": 1 - 1e-6})
    pol = PhyPolicy(temperature=1.0, ser_table=table)
    p = np.exp(pol.log_app_probabilities(PhyContexts(snr_db=[0.0], paths=[1])))
    ratio = p[0, 0] / (p[0, 0] + p[0, 1])
    assert ratio == pytest.approx(math.exp(10) / (math.exp(10) + math.exp(5)), rel=1e-9)
    assert p[0, 0] / p[0, 1] == pytest.approx(math.exp(5), rel=1e-9)


def test_softmax_probabilities_sum_to_one(small_table):
    # normalized arithmetic: exact up to a final-rounding ulp
    pol = PhyPolicy(temperature=2.0, ser_table=small_table)
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = np.exp(pol.log_app_probabilities(sample_context(rng)))
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
        return 1.0 / (float(pol.ser_table.lookup(app, PhyContexts([s], [m]))[0]) * t)

    exponents = []
    for numer, denom in ((AB, AQ), (AQ, AB), (MQ, MB)):
        z = [utility(numer, s, m) - utility(denom, s, m) for s, m in zip(snr_db, paths)]
        want = np.array([math.exp(min(max(v, -700.0), 700.0)) for v in z])
        assert np.array_equal(pol.weight(ctx, numer, denom), want)
        assert not np.array_equal(np.exp(np.clip(z, -700.0, 700.0)), want)
        exponents += z
    assert min(exponents) < -700.0 and max(exponents) > 700.0


@pytest.mark.parametrize("app", PHY_APPS, ids=lambda a: a.key)
def test_arq_segments_equal_per_segment_calls(app):
    # segments of 0 and 1 rows, and of 600, whose blocks run one after
    # another; the pooled rounds cross decode chunks.  At both packet
    # shapes, each segment's latencies and generator state are those of a
    # call on its rows alone
    rng = np.random.default_rng([66, PHY_APPS.index(app)])
    sizes = (90, 0, 600, 1, 40)
    assert sizes[2] > ARQ_BLOCK_ROWS and sizes[-2] + sizes[-1] < ARQ_BLOCK_ROWS
    n = sum(sizes)
    ctx = PhyContexts(snr_db=rng.uniform(-5.0, 15.0, n), paths=rng.integers(1, PATHS_MAX + 1, n))
    edges = np.cumsum((0,) + sizes)
    for arq in (ArqConfig(), ArqConfig(max_retx=3, symbols_per_packet=2)):
        seeds = [int(s) for s in rng.integers(2**32, size=len(sizes))]
        segments = [(np.random.default_rng(s), c) for s, c in zip(seeds, sizes)]
        got = arq_latencies(app, ctx, arq, segments)
        for (g, _), seed, a, b in zip(segments, seeds, edges[:-1], edges[1:]):
            alone = np.random.default_rng(seed)
            part = PhyContexts(snr_db=ctx.snr_db[a:b], paths=ctx.paths[a:b])
            want = arq_latencies(app, part, arq, alone)
            assert got[a:b].tobytes() == want.tobytes(), (arq, a)
            assert g.bit_generator.state == alone.bit_generator.state
        assert len(np.unique(got)) > 2  # rows that need several rounds
