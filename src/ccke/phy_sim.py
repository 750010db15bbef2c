"""2x2 MIMO link simulator with space-time scheme selection and ARQ.

The context is (average SNR in dB, number of multipath components m).
A transmission app pairs a space-time code (Alamouti or per-antenna
multiplexing) with a constellation (BPSK or QPSK).  The KPI is the ARQ
latency: transmission attempts until the first error-free packet, capped
at the retransmission limit.  ``arq_latencies`` simulates a whole batch
of contexts round-major: it takes the rows in blocks of
``ARQ_BLOCK_ROWS`` (512), and each round of a block makes one attempt,
with one set of generator draws, for every row that has not decoded yet.
So a context's latency has the same law in any batch, but its draws
depend on the batch it is in.  A batch may be split into segments, each
with its own generator: every segment draws as a batch of its own would,
and the rounds of all segments are decoded together.

The controller selects apps through a softmax over inverse symbol error
rates; the SER estimates come from a Monte-Carlo table on a (1 dB SNR
bin) x (m) grid, persisted as delimited text.  The default table ships
with the package (``SerTable.default``); ``SerTable.build`` makes it, or
any other grid, afresh.  Receivers
assume perfect CSI: orthogonal combining for Alamouti, zero-forcing for
multiplexing (the 2x2 inverse, or the pseudo-inverse of a rank-1 channel).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr
from .conformal import ContractViolationError, clipped_exp, rng_segments

__all__ = [
    "ALAMOUTI",
    "MULTIPLEXING",
    "BPSK",
    "QPSK",
    "PHY_APPS",
    "TransmissionApp",
    "PhyContexts",
    "ArqConfig",
    "SerTable",
    "PhyPolicy",
    "ConfigurationError",
    "sample_context",
    "arq_latencies",
    "transmit_arq",
    "estimate_ser",
]


class ConfigurationError(RuntimeError):
    """A required lookup table entry or configuration value is missing."""


ALAMOUTI = "alamouti"
MULTIPLEXING = "multiplexing"
BPSK = "bpsk"
QPSK = "qpsk"

SNR_DB_MIN = -5.0
SNR_DB_MAX = 15.0
SNR_DB_MEAN = 5.0
SNR_DB_SIGMA = 5.0
SNR_DB_CEILING = 1000.0  # channel power about 1e100, far from float64 overflow
PATHS_MAX = 10
ANTENNA_SEPARATION = 0.5
SER_CLAMP = 1e-6
DEFAULT_SER_TABLE = "ser_table_default.csv"  # package data, see SerTable.default

_CONSTELLATIONS = {
    BPSK: np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    QPSK: np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0),
}


@dataclass(frozen=True)
class TransmissionApp:
    code: str
    constellation: str

    def __post_init__(self):
        if self.code not in (ALAMOUTI, MULTIPLEXING):
            raise ContractViolationError(f"unknown space-time code {self.code!r}")
        if self.constellation not in (BPSK, QPSK):
            raise ContractViolationError(f"unknown constellation {self.constellation!r}")

    @property
    def key(self) -> str:
        return f"{self.code}_{self.constellation}"

    @classmethod
    def from_key(cls, key: str) -> "TransmissionApp":
        code, _, constellation = key.partition("_")
        return cls(code=code, constellation=constellation)


PHY_APPS = (
    TransmissionApp(ALAMOUTI, BPSK),
    TransmissionApp(ALAMOUTI, QPSK),
    TransmissionApp(MULTIPLEXING, BPSK),
    TransmissionApp(MULTIPLEXING, QPSK),
)


@dataclass(frozen=True)
class PhyContexts:
    """A batch of n contexts: average SNRs in dB (nominally -5..15, at
    most ``SNR_DB_CEILING``) and multipath counts m in 1..10, each an (n,)
    array, validated once here."""

    snr_db: np.ndarray
    paths: np.ndarray

    def __post_init__(self):
        snr = np.asarray(self.snr_db, dtype=float)
        m = np.asarray(self.paths)
        if snr.ndim != 1 or m.shape != snr.shape:
            raise ContractViolationError("snr_db and paths must be equal-length vectors")
        # a zero-path or non-finite channel would saturate the KPI silently
        if not np.issubdtype(m.dtype, np.integer):
            raise ContractViolationError(f"paths must be integers, got dtype {m.dtype}")
        bad = (m < 1) | (m > PATHS_MAX)
        if bad.any():
            raise ContractViolationError(f"paths must lie in 1..{PATHS_MAX}, got {m[bad][0]}")
        if not np.all(np.isfinite(snr)):
            raise ContractViolationError(f"snr_db must be finite, got {snr[~np.isfinite(snr)][0]}")
        # the channel power overflows float64 near 3,080 dB, where even a
        # perfect channel would saturate the KPI silently
        if np.any(snr > SNR_DB_CEILING):
            raise ContractViolationError(
                f"snr_db must be at most {SNR_DB_CEILING} dB, got {snr[snr > SNR_DB_CEILING][0]}")
        object.__setattr__(self, "snr_db", snr)
        object.__setattr__(self, "paths", m.astype(np.int64))

    def __len__(self) -> int:
        return self.snr_db.size


@dataclass(frozen=True)
class ArqConfig:
    max_retx: int = 10
    symbols_per_packet: int = 8

    def __post_init__(self):
        for name in ("max_retx", "symbols_per_packet"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractViolationError(f"{name} must be an integer, got {value!r}")
        if self.max_retx < 1 or self.symbols_per_packet < 1:
            raise ContractViolationError("max_retx and symbols_per_packet must be >= 1")
        if self.symbols_per_packet % 2 != 0:
            raise ContractViolationError("symbols_per_packet must be even (2 symbols per block)")


def sample_context(rng: np.random.Generator) -> PhyContexts:
    """One context, as a batch of one: SNR from a rejection-sampled
    truncated Gaussian, m uniform on 1..10."""
    while True:
        snr = rng.normal(SNR_DB_MEAN, SNR_DB_SIGMA)
        if SNR_DB_MIN <= snr <= SNR_DB_MAX:
            break
    return PhyContexts(snr_db=[float(snr)], paths=[int(rng.integers(1, PATHS_MAX + 1))])


def snr_bin_masses(snr_lo: float, bin_width: float, n_bins: int) -> np.ndarray:
    """Context-law probability of each SNR bin under the truncated Gaussian."""
    edges = snr_lo + bin_width * np.arange(n_bins + 1)
    cdf = ndtr((edges - SNR_DB_MEAN) / SNR_DB_SIGMA)
    masses = np.diff(cdf)
    return masses / masses.sum()


_STEER_PHASE = -2j * math.pi * ANTENNA_SEPARATION


def _steering_second(phi: np.ndarray) -> np.ndarray:
    """Second entry of the unit-norm two-element array response at angle
    phi; the first entry is 1/sqrt(2) at every angle.

    Scaling in place by 1/sqrt(2) gives the bits of z / sqrt(2): numpy
    divides a complex by a real s as z * (1/s), and the two agree wherever
    neither part of z is zero, which cos and exp never give here.
    """
    second = np.exp(_STEER_PHASE * np.cos(phi))
    second *= 1.0 / math.sqrt(2.0)
    return second


def _channel_batch(snr_db: float, paths: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. channel draws sqrt(SNR) * sum_i a_i e_r(phi_r,i) e_t(phi_t,i)^H,
    shape (n, 2, 2).

    Per-component gain variance is 1/m, so E|a_i|^2 = 2/m and
    E||H||_F^2 = 2*SNR.  Generator use is fixed: the gains are one
    ``standard_normal((2, n, m))`` draw (real parts, then imaginary), the
    angles one ``uniform(0, 2*pi, (2, n, m))`` draw (receive, then
    transmit).  The sum over paths is the complex multiply-accumulate
    ``(a * e_r) * conj(e_t)`` of a plain einsum, written out in real
    arithmetic with separate multiplies and adds, summed over paths in
    order from zero, so the bits do not depend on whether numpy fuses
    multiply-adds in its complex multiply.
    """
    # work path-major, (.., m, n), so the sum over paths adds whole rows
    gains = np.empty((2, paths, n))
    np.multiply(rng.standard_normal((2, n, paths)).transpose(0, 2, 1),
                1.0 / math.sqrt(paths), out=gains)  # complex gains / sqrt(m), bit for bit
    gr, gi = gains
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, n, paths))
    second = _steering_second(np.ascontiguousarray(phi.transpose(0, 2, 1)))
    rr, ri = second[0].real, second[0].imag
    tr, ti = second[1].real, second[1].imag
    s = 1.0 / math.sqrt(2.0)  # the first steering entry, (s, +0)
    # a = gain * e_r[i]; each product below is a * conj(e_t[j])
    a0r, a0i = gr * s, gi * s
    a1r, a1i = gr * rr - gi * ri, gr * ri + gi * rr
    prods = np.empty((8, paths, n))
    np.multiply(a0r, s, out=prods[0])  # h00
    np.multiply(a0i, s, out=prods[1])
    np.add(a0r * tr, a0i * ti, out=prods[2])  # h01
    np.subtract(a0i * tr, a0r * ti, out=prods[3])
    np.multiply(a1r, s, out=prods[4])  # h10
    np.multiply(a1i, s, out=prods[5])
    np.add(a1r * tr, a1i * ti, out=prods[6])  # h11
    np.subtract(a1i * tr, a1r * ti, out=prods[7])
    acc = np.zeros((8, n))
    for k in range(paths):
        acc += prods[:, k]
    acc *= math.sqrt(10.0 ** (snr_db / 10.0))
    return np.ascontiguousarray(acc.T).view(complex).reshape(n, 2, 2)


# ---------------------------------------------------------------------------
# modulation and detection (batched over blocks of 2 symbols)


def _draw_noise(shape, rng, noise_std):
    if noise_std == 0.0:
        return np.zeros(shape, dtype=complex)
    scale = noise_std / math.sqrt(2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _decode_nearest(estimates, constellation):
    d = np.abs(estimates[..., None] - constellation)
    return np.argmin(d, axis=-1)


def _alamouti_block(h, s, rng, noise_std):
    """(n,2,2) channels x (n,2) symbol values -> (n,2) soft estimates."""
    tx1 = s / math.sqrt(2.0)
    tx2 = np.stack([-np.conj(s[:, 1]), np.conj(s[:, 0])], axis=1) / math.sqrt(2.0)
    r1 = np.einsum("nij,nj->ni", h, tx1) + _draw_noise(s.shape, rng, noise_std)
    r2 = np.einsum("nij,nj->ni", h, tx2) + _draw_noise(s.shape, rng, noise_std)
    h1, h2 = h[:, :, 0], h[:, :, 1]
    z1 = np.sum(np.conj(h1) * r1, axis=1) + np.conj(np.sum(np.conj(h2) * r2, axis=1))
    z2 = np.sum(np.conj(h2) * r1, axis=1) - np.conj(np.sum(np.conj(h1) * r2, axis=1))
    gain = np.sum(np.abs(h) ** 2, axis=(1, 2))
    gain = np.where(gain > 0.0, gain, np.inf)  # dead channel decodes arbitrarily
    return math.sqrt(2.0) * np.stack([z1, z2], axis=1) / gain[:, None]


# Zero-forcing takes adj(H) / det H only where that is clearly the inverse
# pinv would give: |det H| > ZF_CLEAR_RATIO * ||H||_F^2, i.e. sigma2/sigma1
# above about ZF_CLEAR_RATIO, far from pinv's rank cutoff (1e-15 * sigma1),
# and |det H| a normal float, so 1/det cannot overflow.  Every other channel
# is "in doubt" and keeps pinv: single-path (m=1) channels are rank-1, with
# sigma2/sigma1 at most ~3e-16 on the default table's draws (multipath ones
# there have at least ~2e-10), and NaN fails the comparison.
ZF_CLEAR_RATIO = 1e-6
_DET_MIN = np.finfo(float).tiny


def _zero_forcing(h: np.ndarray) -> np.ndarray:
    """Zero-forcing receive matrices of (n, 2, 2) channels: adj(H) / det H
    for clear channels, ``np.linalg.pinv`` for the rows in doubt."""
    h00, h01, h10, h11 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN go to pinv
        det = h00 * h11 - h01 * h10
        fro2 = (np.einsum("nij,nij->n", h.real, h.real)
                + np.einsum("nij,nij->n", h.imag, h.imag))
        clear = np.abs(det) > np.maximum(ZF_CLEAR_RATIO * fro2, _DET_MIN)
    out = np.empty_like(h)
    adj = np.stack([h11[clear], -h01[clear], -h10[clear], h00[clear]], axis=-1)
    out[clear] = (adj * (1.0 / det[clear])[:, None]).reshape(-1, 2, 2)
    doubt = ~clear
    if doubt.any():
        out[doubt] = np.linalg.pinv(h[doubt])
    return out


def _multiplexing_block(h, s, rng, noise_std):
    """One slot, one independent symbol per antenna, zero-forcing receive."""
    r = np.einsum("nij,nj->ni", h, s / math.sqrt(2.0)) + _draw_noise(s.shape, rng, noise_std)
    return math.sqrt(2.0) * np.einsum("nij,nj->ni", _zero_forcing(h), r)


def _send_blocks(app: TransmissionApp, h, sym_idx, rng, noise_std=1.0):
    """Decode symbol-index pairs through batched channels; returns indices."""
    constellation = _CONSTELLATIONS[app.constellation]
    s = constellation[sym_idx]
    if app.code == ALAMOUTI:
        est = _alamouti_block(h, s, rng, noise_std)
    else:
        est = _multiplexing_block(h, s, rng, noise_std)
    return _decode_nearest(est, constellation)


ARQ_BLOCK_ROWS = 512  # rows per block of arq_latencies
ARQ_CHUNK_ROWS = 128  # rows decoded at a time: bounds the working arrays


def _mirror_images(points: np.ndarray) -> np.ndarray:
    """(M, M): row 0 is the points, the other rows their mirror images,
    which are the other points: -conj, conj and - for QPSK, - for BPSK."""
    if points.size == 2:
        return np.stack([points, -points])
    return np.stack([points, -np.conj(points), np.conj(points), -points])


def _arq_tables(app: TransmissionApp) -> tuple:
    """The transmit vectors of every sent index pair (i, j), (slots, 2,
    M*M) indexed by M*i + j: Alamouti sends (s_i, s_j) then (-conj(s_j),
    conj(s_i)), multiplexing (s_i, s_j), each over sqrt(2); and
    ``_mirror_images``."""
    points = _CONSTELLATIONS[app.constellation]
    s0, s1 = np.repeat(points, points.size), np.tile(points, points.size)
    slots = [[s0, s1]]
    if app.code == ALAMOUTI:
        slots.append([-np.conj(s1), np.conj(s0)])
    return np.array(slots) / math.sqrt(2.0), _mirror_images(points)


_ARQ_TABLES = {app: _arq_tables(app) for app in PHY_APPS}
# h_ij is _H_SCALE[j, i] times the sum of its path terms: the steering
# entries that are 1/sqrt(2) at every angle, with 0.5 exact for h_00
_H_SCALE = np.array([[0.5, 1.0 / math.sqrt(2.0)],
                     [1.0 / math.sqrt(2.0), 1.0]])[:, :, None, None]
# -pi for the receive phases; +pi for the transmit ones: cos is even and sin
# odd, bit for bit, so their steering comes out conjugated
_CONJ_PHASE = np.array([-math.pi, math.pi])[:, None, None]


def _sent_is_nearest(est: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Whether each estimate decodes to its sent point, ``est.shape`` bool:
    ``cand[0]`` holds the sent points and ``cand[1:]`` their mirror images,
    so the rule is that the sent point is the only point no farther from
    the estimate than itself.  A tie or a NaN estimate is a symbol error."""
    d = np.abs(est - cand)
    return d[0] < functools.reduce(np.minimum, d[1:])


def _attempt_draws(app: TransmissionApp, n: int, blocks: int, rng, noise_std) -> tuple:
    """One ARQ attempt's draws for n rows, in the order ``arq_latencies``
    lists them: gains and angles, (2, n, PATHS_MAX); symbol indices, (n,
    blocks, 2); and the noise, (slots, 2, n, blocks, 2) and scaled, or
    None when ``noise_std`` is 0."""
    tx_table, mirrors = _ARQ_TABLES[app]
    g = rng.standard_normal((2, n, PATHS_MAX))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, n, PATHS_MAX))
    sym = rng.integers(0, mirrors.shape[1], size=(n, blocks, 2))
    w = None
    if noise_std != 0.0:
        w = rng.standard_normal((tx_table.shape[0], 2, n, blocks, 2))
        w *= noise_std / math.sqrt(2.0)
    return g, phi, sym, w


def _attempt_decodes(app: TransmissionApp, amp, live, blocks: int, rng, noise_std) -> np.ndarray:
    """One ARQ attempt of every row: whether its packet of ``blocks``
    2-symbol blocks on one fresh channel decodes error free, (n,) bool.

    ``live`` (n, PATHS_MAX) marks each row's first m paths and ``amp``
    holds sqrt(SNR/m) on them, 0 beyond.  ``rng`` is a generator or a
    list of (generator, row count) segments: each segment makes the
    round's draws for its rows, as ``arq_latencies`` lists them, segment
    after segment.  Then all rows are decoded ``ARQ_CHUNK_ROWS`` at a
    time, which keeps the working arrays small; a row's result does not
    depend on its chunk.  A tie, a NaN estimate or a dead channel is a
    symbol error."""
    n = amp.shape[0]
    draws = [_attempt_draws(app, rows, blocks, g, noise_std) for g, rows in rng_segments(rng, n)]
    g, phi, sym, w = (parts[0] if len(parts) == 1 or parts[0] is None
                      else np.concatenate(parts, axis=axis)
                      for axis, parts in zip((1, 1, 0, 2), zip(*draws)))
    ok = np.empty(n, dtype=bool)
    for lo in range(0, n, ARQ_CHUNK_ROWS):
        rows = slice(lo, lo + ARQ_CHUNK_ROWS)
        ok[rows] = _packet_decodes(app, amp[rows], live[rows], g[:, rows], phi[:, rows],
                                   sym[rows], None if w is None else w[:, :, rows])
    return ok


def _packet_decodes(app: TransmissionApp, amp, live, g, phi, sym, w) -> np.ndarray:
    """Whether each row's packet decodes error free, (n,) bool, given its
    gains ``g`` and angles ``phi``, (2, n, PATHS_MAX); symbol indices
    ``sym``, (n, blocks, 2); and noise ``w``, (slots, 2, n, blocks, 2),
    already scaled, or None.

    Each row's 2x2 channel is formed once, from its live paths only, and
    serves every block.  The estimates are, bit for bit (but for the sign
    of a zero on an exactly zero channel), those of the masked
    PATHS_MAX-wide channel repeated per block through ``_alamouti_block``
    or ``_multiplexing_block``.  So sums keep numpy's order, the received
    signal is a plain complex einsum, and every other complex product is a
    numpy complex multiply into an output that overlaps no input (numpy
    fuses its multiply-adds except in the scalar loop it takes for
    overlaps).  Arrays run (.., block, row), rows innermost.  A dead
    channel (||H|| = 0) estimates 0, where every distance ties."""
    n = amp.shape[0]
    tx_table, mirrors = _ARQ_TABLES[app]
    sym = np.ascontiguousarray(sym.transpose(2, 1, 0))

    # the steering e_r and conj(e_t) of live paths only, as cos and sin of
    # the phase -pi cos(phi), and of its negation for conj(e_t); dead paths
    # keep e = 0 and gains a = 0
    phase = np.cos(phi, out=np.zeros_like(phi), where=live)
    phase *= _CONJ_PHASE
    e = np.zeros((2, n, PATHS_MAX, 2))
    np.cos(phase, out=e[..., 0], where=live)
    np.sin(phase, out=e[..., 1], where=live)
    e *= 1.0 / math.sqrt(2.0)
    er, et = e.view(complex)[..., 0]
    # path terms [[a, a e_r], [a conj(e_t), a e_r conj(e_t)]], a = (g_re + i g_im) sqrt(SNR/m)
    terms = np.empty((2, 2, n, PATHS_MAX), dtype=complex)
    np.multiply(g[0], amp, out=terms[0, 0].real)
    np.multiply(g[1], amp, out=terms[0, 0].imag)
    np.multiply(terms[0, 0], er, out=terms[0, 1])
    np.multiply(terms[0], et, out=terms[1])
    h = terms.sum(axis=-1)  # h[j, i] is channel entry h_ij of every row
    h.view(float).reshape(2, 2, n, 2)[...] *= _H_SCALE

    tx = np.take(tx_table, sym[0] * mirrors.shape[1] + sym[1], axis=2)
    r = np.empty(tx.shape, dtype=complex)
    np.einsum("jin,sjbn->sibn", h, tx, out=r)  # einsum picks a slow layout without out=
    if w is not None:
        r.real += w[:, 0].transpose(0, 3, 2, 1)
        r.imag += w[:, 1].transpose(0, 3, 2, 1)
    if app.code == ALAMOUTI:
        # z_0 = sum_i conj(h_i0) r1_i + conj(sum_i conj(h_i1) r2_i),
        # z_1 = sum_i conj(h_i1) r1_i - conj(sum_i conj(h_i0) r2_i)
        prod = np.conj(h)[None, :, :, None] * r[:, None]
        comb = prod[:, :, 0] + prod[:, :, 1]
        est = np.conj(comb[1, ::-1])
        np.negative(est[1], out=est[1])
        est += comb[0]
        power = np.empty((4, n))  # |h_00|^2, |h_01|^2, |h_10|^2, |h_11|^2
        np.abs(h.transpose(1, 0, 2), out=power.reshape(2, 2, n))
        np.square(power, out=power)
        gain = power.sum(axis=0)
        est.view(float)[...] *= math.sqrt(2.0)
        est *= 1.0 / np.where(gain > 0.0, gain, np.inf)
    else:
        zf = _zero_forcing(np.ascontiguousarray(h.transpose(2, 1, 0))).transpose(2, 1, 0)
        est = np.empty(r.shape[1:], dtype=complex)
        np.einsum("jin,jbn->ibn", zf, r[0], out=est)
        est.view(float)[...] *= math.sqrt(2.0)
    return _sent_is_nearest(est, np.take(mirrors, sym, axis=1)).reshape(-1, n).all(axis=0)


def arq_latencies(app: TransmissionApp, ctx: PhyContexts, arq: ArqConfig,
                  rng, noise_std: float = 1.0) -> np.ndarray:
    """ARQ latency KPI of every context, (n,) int64: attempts until one
    packet decodes error free, capped at ``max_retx`` (persistent failure
    saturates the KPI).  ``rng`` is a ``Generator`` or a sequence of
    (generator, row count) segments that cover the rows in order
    (``conformal.rng_segments``).

    Every attempt rides a fresh channel realization and carries
    ``symbols_per_packet`` random symbols.  Each segment's rows run in
    blocks of ``ARQ_BLOCK_ROWS``, in row order, one block after another.
    A block runs in rounds: round t makes attempt t of every row of the
    block that has not decoded yet, and a row that decodes reads t.
    Byte-stable replay rests on the draws of a round over its
    ``n_active`` rows, in this order, from the segment's generator, with
    ``blocks = symbols_per_packet // 2``:

    1. gains ``standard_normal((2, n_active, PATHS_MAX))``: real parts,
       then imaginary, masked beyond each row's m;
    2. angles ``uniform(0, 2*pi, (2, n_active, PATHS_MAX))``: receive,
       then transmit;
    3. symbol indices ``integers(0, M, (n_active, blocks, 2))``;
    4. unless ``noise_std == 0``, noise ``standard_normal((k, n_active,
       blocks, 2))``, real then imaginary parts of each slot: k = 4 for
       Alamouti's two slots, k = 2 for multiplexing's one.

    A block whose rows have all decoded draws no further round, and an
    empty segment draws nothing, so each segment's draws are those of a
    call on that segment alone.  The blocks of all segments, in order,
    are packed into pools of at most ``ARQ_BLOCK_ROWS`` rows, which run
    one after another; so a segment's blocks still run one after another,
    and a pool's rounds serve several small segments at once.  In each
    round of a pool, every block draws for its live rows, in segment
    order, before all live rows are decoded together, ``ARQ_CHUNK_ROWS``
    at a time.

    An attempt forms each row's 2x2 channel once, from its first m paths,
    and sends every block of the packet through it.  Alamouti combines
    orthogonally; multiplexing zero-forces through ``_zero_forcing``,
    which keeps pinv for every rank-1 single-path channel.  A symbol
    decodes only when its sent point is the only point no farther from
    the estimate than itself, so a tie, a NaN estimate or a dead channel
    (||H|| = 0, every distance tied) is a symbol error.  Each row's
    latency has the law of attempts drawn one row after another, so only
    the stream, not the law, depends on the segment.
    """
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ContractViolationError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    blocks = arq.symbols_per_packet // 2
    scale = np.sqrt(10.0 ** (ctx.snr_db / 10.0)) / np.sqrt(ctx.paths)  # sqrt(SNR/m)
    live = np.arange(PATHS_MAX) < ctx.paths[:, None]  # each row's first m paths
    amp = np.where(live, scale[:, None], 0.0)
    latency = np.full(len(ctx), arq.max_retx, dtype=np.int64)
    # pools of (generator, rows) lanes, one lane per segment block
    pools, pooled, first = [], ARQ_BLOCK_ROWS, 0
    for g, count in rng_segments(rng, len(ctx)):
        for lo in range(first, first + count, ARQ_BLOCK_ROWS):
            rows = np.arange(lo, min(lo + ARQ_BLOCK_ROWS, first + count))
            if pooled + rows.size > ARQ_BLOCK_ROWS:
                pools.append([])
                pooled = 0
            pools[-1].append((g, rows))
            pooled += rows.size
        first += count
    for lanes in pools:  # a lane's rows: those of its block not decoded yet
        for attempt in range(1, arq.max_retx + 1):
            rows = np.concatenate([lane for _, lane in lanes])
            ok = _attempt_decodes(app, amp[rows], live[rows], blocks,
                                  [(g, lane.size) for g, lane in lanes], noise_std)
            latency[rows[ok]] = attempt
            split = np.cumsum([lane.size for _, lane in lanes])[:-1]
            lanes = [(g, lane[~lane_ok]) for (g, lane), lane_ok in zip(lanes, np.split(ok, split))]
            lanes = [(g, lane) for g, lane in lanes if lane.size]
            if not lanes:
                break
    return latency


def transmit_arq(app: TransmissionApp, snr_db: float, paths: int, arq: ArqConfig,
                 rng: np.random.Generator, noise_std: float = 1.0) -> int:
    """ARQ latency KPI of one context, given as its SNR and path count:
    ``arq_latencies`` of a batch of one."""
    ctx = PhyContexts(snr_db=[snr_db], paths=[paths])
    return int(arq_latencies(app, ctx, arq, rng, noise_std)[0])


# ---------------------------------------------------------------------------
# Monte-Carlo SER table


def estimate_ser(app: TransmissionApp, snr_db: float, paths: int,
                 rng: np.random.Generator, n_symbols: int = 10_000) -> float:
    """Symbol-error frequency over fresh channels, clamped into (0, 1).

    One channel draw per 2-symbol block; the clamp keeps the softmax
    selection's exp(1/(ser*T)) finite on error-free cells.
    """
    if n_symbols < 2:
        raise ContractViolationError(
            f"n_symbols must be >= 2 (one 2-symbol block), got {n_symbols!r}")
    if not (math.isfinite(snr_db) and snr_db <= SNR_DB_CEILING):
        raise ContractViolationError(
            f"snr_db must be finite and at most {SNR_DB_CEILING} dB, got {snr_db!r}")
    constellation = _CONSTELLATIONS[app.constellation]
    blocks = n_symbols // 2
    h = _channel_batch(snr_db, paths, blocks, rng)
    sym = rng.integers(0, constellation.size, size=(blocks, 2))
    decoded = _send_blocks(app, h, sym, rng)
    ser = np.mean(decoded != sym)
    return float(np.clip(ser, SER_CLAMP, 1.0 - SER_CLAMP))


@dataclass(frozen=True)
class SerTable:
    """Dense SER grid: apps x 1-dB SNR bins x path counts.

    Cells are estimated at bin centers with a per-cell seeded stream, so
    the table is reproducible and independent of build order.
    """

    values: np.ndarray  # (n_apps, n_bins, PATHS_MAX)
    snr_lo: float
    bin_width: float
    n_mc: int
    seed: int

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    def bin_index(self, snr_db) -> np.ndarray:
        """SNR bin of each entry of ``snr_db``; values off the grid clamp to
        the edge bins."""
        idx = np.floor((np.asarray(snr_db, dtype=float) - self.snr_lo) / self.bin_width)
        return np.clip(idx, 0, self.n_bins - 1).astype(np.int64)

    def lookup(self, app: TransmissionApp, snr_db, paths) -> np.ndarray:
        """SER of ``app`` at each (snr_db, paths) pair, as an (n,) array."""
        try:
            a = PHY_APPS.index(app)
        except ValueError:
            raise ConfigurationError(f"SER table has no app {app!r}")
        snr, m = np.atleast_1d(snr_db), np.atleast_1d(paths)
        off_grid = (m < 1) | (m > self.values.shape[2])
        if off_grid.any():
            raise ConfigurationError(f"SER table has no entry for m={m[off_grid][0]}")
        v = self.values[a, self.bin_index(snr), m - 1]
        unset = ~np.isfinite(v)
        if unset.any():
            i = np.flatnonzero(unset)[0]
            raise ConfigurationError(f"SER table cell ({app.key}, snr={snr[i]}, m={m[i]}) is unset")
        return v

    @classmethod
    def build(cls, n_mc: int = 10_000, seed: int = 20139,
              snr_lo: float = SNR_DB_MIN, snr_hi: float = SNR_DB_MAX,
              bin_width: float = 1.0) -> "SerTable":
        if not (math.isfinite(bin_width) and bin_width > 0.0):
            raise ContractViolationError(
                f"bin_width must be finite and positive, got {bin_width!r}")
        if not (math.isfinite(snr_lo) and math.isfinite(snr_hi) and snr_hi > snr_lo):
            raise ContractViolationError(
                f"need finite snr_lo < snr_hi, got {snr_lo!r}, {snr_hi!r}")
        if snr_hi > SNR_DB_CEILING:
            raise ContractViolationError(
                f"snr_hi must be at most {SNR_DB_CEILING} dB, got {snr_hi!r}")
        n_bins = int(round((snr_hi - snr_lo) / bin_width))
        if n_bins < 1:
            raise ContractViolationError(
                f"[{snr_lo!r}, {snr_hi!r}] holds no bin of width {bin_width!r}")
        values = np.full((len(PHY_APPS), n_bins, PATHS_MAX), np.nan)
        for a, app in enumerate(PHY_APPS):
            for b in range(n_bins):
                center = snr_lo + (b + 0.5) * bin_width
                for m in range(1, PATHS_MAX + 1):
                    rng = np.random.Generator(np.random.PCG64(
                        np.random.SeedSequence([seed, a, b, m])))
                    values[a, b, m - 1] = estimate_ser(app, center, m, rng, n_mc)
        return cls(values=values, snr_lo=snr_lo, bin_width=bin_width, n_mc=n_mc, seed=seed)

    @classmethod
    def default(cls) -> "SerTable":
        """The table ``build()`` makes with its default arguments, loaded
        from the copy shipped as package data (its bytes were pinned on
        numpy 2.4, x86-64 with AVX-512; see the acceptance tests)."""
        from importlib import resources

        with resources.as_file(resources.files(__package__) / "data" / DEFAULT_SER_TABLE) as path:
            return cls.load(path)

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["app", "snr_bin_low_db", "m", "ser", "n_mc", "seed"])
            for a, app in enumerate(PHY_APPS):
                for b in range(self.n_bins):
                    low = self.snr_lo + b * self.bin_width
                    for m in range(1, PATHS_MAX + 1):
                        writer.writerow([app.key, repr(low), m,
                                         repr(float(self.values[a, b, m - 1])),
                                         self.n_mc, self.seed])

    @classmethod
    def load(cls, path) -> "SerTable":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                rows.append(row)
        if not rows:
            raise ConfigurationError(f"empty SER table file {path}")
        lows = sorted({float(r[1]) for r in rows})
        snr_lo = lows[0]
        bin_width = lows[1] - lows[0] if len(lows) > 1 else 1.0
        n_bins = len(lows)
        values = np.full((len(PHY_APPS), n_bins, PATHS_MAX), np.nan)
        n_mc, seed = int(rows[0][4]), int(rows[0][5])
        keys = [app.key for app in PHY_APPS]
        for line, (app_key, low, m, ser, _, _) in enumerate(rows, start=2):
            if app_key not in keys:
                raise ConfigurationError(f"{path}, line {line}: unknown app {app_key!r}")
            low = float(low)
            b = int(round((low - snr_lo) / bin_width))
            # save writes snr_lo + b * w; bin_width, a difference of two
            # lows, may miss w by an ulp, which b products can multiply
            slack = 2 * (b + 2) * math.ulp(abs(snr_lo) + abs(low) + bin_width)
            if not (b < n_bins and abs(low - (snr_lo + b * bin_width)) <= slack):
                raise ConfigurationError(
                    f"{path}, line {line}: SNR bin low {low!r} is not on the grid "
                    f"{snr_lo!r} + b * {bin_width!r}, b < {n_bins}")
            if not 1 <= int(m) <= PATHS_MAX:
                raise ConfigurationError(
                    f"{path}, line {line}: path count {m} is not in 1..{PATHS_MAX}")
            values[keys.index(app_key), b, int(m) - 1] = float(ser)
        return cls(values=values, snr_lo=snr_lo, bin_width=bin_width, n_mc=n_mc, seed=seed)


# ---------------------------------------------------------------------------
# app selection policy


@dataclass(frozen=True)
class PhyPolicy:
    """Softmax selection over inverse SER: p(a|x) prop. to exp(1/(ser*T))."""

    temperature: float
    ser_table: SerTable

    def __post_init__(self):
        if not self.temperature > 0.0:  # NaN fails too; +inf selects uniformly
            raise ContractViolationError(
                f"temperature must be positive, got {self.temperature!r}")

    def _utilities(self, ctx: PhyContexts) -> np.ndarray:
        """(n, apps) utilities 1/(ser*T)."""
        ser = np.stack([self.ser_table.lookup(app, ctx.snr_db, ctx.paths) for app in PHY_APPS],
                       axis=1)
        return 1.0 / (ser * self.temperature)

    def app_probabilities(self, ctx: PhyContexts) -> np.ndarray:
        """(n, apps) selection probabilities (normalized softmax; each row
        sums to 1 to floating-point roundoff)."""
        u = self._utilities(ctx)
        e = np.exp(u - u.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def weight(self, ctx: PhyContexts, numer_app: TransmissionApp,
               denom_app: TransmissionApp) -> np.ndarray:
        """(n,) density ratios p(numer|x)/p(denom|x) in log space (clipped finite)."""
        if numer_app == denom_app:
            return np.ones(len(ctx))
        u = self._utilities(ctx)
        return clipped_exp(u[:, PHY_APPS.index(numer_app)] - u[:, PHY_APPS.index(denom_app)])
