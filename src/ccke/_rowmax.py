"""Maxima over a short last axis, bit for bit as ``np.max(a, axis=-1)``.

numpy reduces each row of a (..., K) array in its own short inner loop,
which costs most when the rows are many and K is small.  A running
``np.maximum`` over the K columns makes K calls instead, each over every
row.  A max never rounds, so the two give the same values and NaN rows,
and the choice between them sets only the speed.  A tie of +0.0 and -0.0
may come out with either sign.

The columns win when there are at least K^2 rows and the array fits in
1 MiB.  With fewer rows the K calls cost more than the rows' loops; in a
larger array each column pass reads every cache line from beyond the
cache.  For a softmax's (b, K, K) scores the rule reads: at least K rows
and a block of at most 1 MiB.  Timings on a 2-core Xeon (µs, ``np.max``
-> columns): (64, 8, 8) 34 -> 6, (512, 32, 32) 1271 -> 2951,
(1, 16, 16) 4 -> 8.
"""

import numpy as np

_COLUMN_BYTES = 1 << 20


def row_max(a: np.ndarray, out=None) -> np.ndarray:
    """``np.max(a, axis=-1)``, written into ``out`` (shape ``a.shape[:-1]``) when given."""
    k = a.shape[-1]
    if k < 2 or a.size < k ** 3 or a.nbytes > _COLUMN_BYTES or (
            out is not None and not out.flags.c_contiguous):
        return np.maximum.reduce(a, axis=-1, out=out)
    if out is None:
        out = np.empty(a.shape[:-1], dtype=a.dtype)
    cols, flat = a.reshape(-1, k).T, out.reshape(-1)
    np.maximum(cols[0], cols[1], out=flat)
    for col in cols[2:]:
        np.maximum(flat, col, out=flat)
    return out
