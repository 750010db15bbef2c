"""Row maxima over a short last axis: every path equals ``np.max``."""

import numpy as np
import pytest

from ccke import _rowmax
from ccke._rowmax import row_max

KS = [1, 2, 3, 7, 8, 9, 16, 17, 32, 33]
ROWS = [1, 2, 64, 257]


def _rows(m: int, k: int, seed: int) -> tuple:
    """(m, k) normal draws whose rows take turns holding a NaN, a +inf, a
    -inf, a +0/-0 tie at the max, or nothing special; also the mask of the
    tie rows."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    kind = np.arange(m) % 5
    cols = rng.integers(0, k, size=(m, 2))
    r = np.arange(m)
    a[r[kind == 0], cols[kind == 0, 0]] = np.nan
    a[r[kind == 1], cols[kind == 1, 0]] = np.inf
    a[r[kind == 2], cols[kind == 2, 0]] = -np.inf
    tie = kind == 3
    a[tie] = -np.abs(a[tie]) - 1.0
    a[r[tie], cols[tie, 1]] = -0.0
    a[r[tie], cols[tie, 0]] = 0.0  # the same entry when the two columns agree
    return a, tie


def _softmax(a, mx) -> np.ndarray:
    e = np.exp(a - mx[..., None])
    return e / e.sum(axis=-1, keepdims=True)


class _Spy:
    """Stands in for numpy inside ``_rowmax``, recording which path a call takes."""

    def __init__(self):
        self.paths = set()
        spy = self

        class Maximum:
            def __call__(self, *args, **kwargs):
                spy.paths.add("columns")
                return np.maximum(*args, **kwargs)

            def reduce(self, *args, **kwargs):
                spy.paths.add("reduce")
                return np.maximum.reduce(*args, **kwargs)

        self.maximum = Maximum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("block", [False, True], ids=["rows", "softmax-block"])
def test_row_max_equals_np_max(k, rows, block, monkeypatch):
    # block: (rows, k, k), the softmax's shape, with rows * k rows; so every
    # K >= 2 takes the column path at 64 rows and np.max at 1 row
    a, tie = _rows(rows * k if block else rows, k, seed=rows * 100 + k)
    shape = (rows, k, k) if block else (rows, k)
    a, tie = a.reshape(shape), tie.reshape(shape[:-1])
    spy = _Spy()
    monkeypatch.setattr(_rowmax, "np", spy)
    got, into = row_max(a), np.full(shape[:-1], 7.0)
    assert row_max(a, out=into) is into
    monkeypatch.undo()
    want = np.max(a, axis=-1)
    for out in (got, into):
        assert out.shape == want.shape and out.dtype == want.dtype
        assert np.array_equal(np.isnan(out), np.isnan(want))
        plain = ~tie & ~np.isnan(want)
        assert out[plain].tobytes() == want[plain].tobytes()
        # a +0/-0 tie may come out with either sign; the softmax does not see it
        assert np.array_equal(out[tie], want[tie])
        assert _softmax(a[tie], out[tie]).tobytes() == _softmax(a[tie], want[tie]).tobytes()
    columns = k >= 2 and a.size >= k ** 3 and a.nbytes <= 1 << 20
    assert spy.paths == {"columns" if columns else "reduce"}


@pytest.mark.parametrize("shape", [(3000, 8), (1024, 32), (5, 3)])
def test_row_max_integer_rows(shape):
    # MacEnvironment.normalizers takes the row max of integer backlogs
    a = np.random.default_rng(3).integers(-50, 50, size=shape)
    assert np.array_equal(row_max(a), np.max(a, axis=-1)) and row_max(a).dtype == a.dtype


def test_row_max_of_no_columns_raises_as_np_max():
    with pytest.raises(ValueError):
        row_max(np.zeros((4, 0)))


def test_row_max_into_strided_out_takes_reduce():
    a = np.random.default_rng(4).normal(size=(256, 8))
    out = np.zeros((256, 2))[:, 0]
    row_max(a, out=out)
    assert out.tobytes() == np.max(a, axis=-1).tobytes()
