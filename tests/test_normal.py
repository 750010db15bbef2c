"""The numpy ports of scipy.special's ndtr, ndtri and logsumexp must give
scipy's bits: the phy context law and every phy number rest on them."""

import math

import numpy as np
import pytest
from scipy import special

from ccke import _normal, harness, phy_sim


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_ndtr_matches_scipy_bitwise():
    # erf gives way to erfc at |x| / sqrt(2) = 1, and erfc's P/Q to R/S at 8
    splits = [s * math.sqrt(2.0) for s in (1.0, -1.0, 8.0, -8.0)]
    near = [np.nextafter(s, t) for s in splits for t in (-np.inf, np.inf)]
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, *splits, *near, 38.5, -38.5, 40.0, -40.0]
    rng = np.random.default_rng(17)
    x = np.concatenate([edges, rng.normal(size=100_000), rng.uniform(-40.0, 40.0, 100_000)])
    assert_same_bits(_normal.ndtr(x), special.ndtr(x))


def test_ndtri_matches_scipy_bitwise():
    # exp(-2) and 1 - exp(-2) split the central branch from the tails
    e2 = math.exp(-2.0)
    splits = [e2, 1.0 - e2]
    near = [np.nextafter(s, t) for s in splits for t in (0.0, 1.0)]
    edges = [0.0, 5e-324, np.finfo(float).tiny, 1e-300, *splits, *near, 0.5,
             1.0 - 2.0 ** -53, 1.0, -0.0, -1e-300, -1.0, 1.0 + 2.0 ** -52, 2.0,
             np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(18)
    tails = 10.0 ** rng.uniform(-320.0, math.log10(e2), 50_000)
    y = np.concatenate([edges, rng.uniform(size=100_000), tails, 1.0 - tails])
    assert_same_bits(_normal.ndtri(y), special.ndtri(y))


def test_logsumexp_matches_scipy_bitwise_with_tied_maxima():
    rng = np.random.default_rng(19)
    for i in range(300):
        scale = 10.0 ** rng.uniform(-2.0, 3.0)
        if i % 2:  # few distinct values: most slices tie at their maximum
            a = rng.integers(-2, 3, size=(4, 6, 5)) * scale
        else:
            a = rng.normal(0.0, scale, size=(4, 6, 5))
        for axis in (None, 0, -1, (1, 2)):
            assert_same_bits(_normal.logsumexp(a, axis=axis), special.logsumexp(a, axis=axis))
    for a in ([-np.inf, -np.inf], [-np.inf, 0.0], [np.inf, 1.0], [np.nan, 1.0], [2.5], 3.0):
        assert_same_bits(_normal.logsumexp(a), special.logsumexp(a))


@pytest.mark.parametrize("temperature", [0.1, 1.0, 10.0])
def test_cell_posterior_logsumexp_matches_scipy_bitwise(monkeypatch, temperature):
    # the exact (4, bins, m) and flat arrays the default table's posteriors pass
    calls = []

    def recording(a, axis=None):
        calls.append((np.array(a), axis))
        return _normal.logsumexp(a, axis=axis)

    monkeypatch.setattr(harness, "logsumexp", recording)
    harness.PhyEnvironment(temperature=temperature)
    n_apps = len(phy_sim.PHY_APPS)
    assert [a.shape for a, _ in calls] == [(n_apps, 20, phy_sim.PATHS_MAX),
                                           (20 * phy_sim.PATHS_MAX,)] * n_apps
    for a, axis in calls:
        assert_same_bits(_normal.logsumexp(a, axis=axis), special.logsumexp(a, axis=axis))
