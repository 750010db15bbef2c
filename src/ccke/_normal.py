"""Standard normal CDF, its inverse and logsumexp, bit for bit as scipy.

``ndtr`` and ``ndtri`` port cephes (as scipy 1.17 ships it through xsf);
``logsumexp`` ports scipy 1.17's ``_logsumexp`` for real input.  They keep
``import scipy.special``, most of a phy run's cold start, off the phy path.

Bit equality rests on two things.  Polynomials take one rounded multiply
and one rounded add per coefficient, as compiled cephes does (Python and
numpy never fuse them).  Every ``exp``/``log`` that cephes takes from libm
is ``math.exp``/``math.log``, one element at a time: numpy's SIMD ``exp``
and ``log`` round a few inputs differently.
"""

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_EXPM2 = 0.13533528323661269189  # exp(-2), the split between ndtri's branches
_S2PI = 2.50662827463100050242

# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) for x >= 8;
# erf(x) = x T(x^2)/U(x^2) for |x| < 1.  Q, S and U have a leading 1.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: |y - 1/2| <= 3/8 (P0/Q0); z = sqrt(-2 log y) in [2, 8) (P1/Q1)
# and [8, 64) (P2/Q2).  The Q's have a leading 1.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule; ``x`` is a float or an array."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Horner's rule with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr1(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:  # 0.5 + 0.5 erf(x), erf odd
        s = -x if x < 0.0 else x
        e = s * _polevl(s * s, _T) / _p1evl(s * s, _U)
        return 0.5 + 0.5 * (-e if x < 0.0 else e)
    # 0.5 erfc(z), z >= 1
    if -z * z < -_MAXLOG:
        y = 0.0
    else:
        p, q = (_polevl(z, _P), _p1evl(z, _Q)) if z < 8.0 else (_polevl(z, _R), _p1evl(z, _S))
        y = 0.5 * (math.exp(-z * z) * p / q)
    return 1.0 - y if x > 0.0 else y


def ndtr(x) -> np.ndarray:
    """Standard normal CDF of each entry, as ``scipy.special.ndtr``."""
    x = np.asarray(x, dtype=float)
    return np.array([_ndtr1(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _log(v: np.ndarray) -> np.ndarray:
    """libm's log of each entry of the 1-d ``v``."""
    return np.fromiter(map(math.log, v.tolist()), float, count=v.size)


def ndtri(y) -> np.ndarray:
    """Inverse of the standard normal CDF, as ``scipy.special.ndtri``.

    Each branch runs on its entries as arrays; only the logs of the tails
    go one at a time.
    """
    y = np.asarray(y, dtype=float)
    upper = y > 1.0 - _EXPM2
    v = np.where(upper, 1.0 - y, y)  # cephes folds the upper tail onto the lower
    central = v > _EXPM2  # never after a fold
    tail = ~central & (v > 0.0)
    x = np.empty(y.shape)
    c = v[central] - 0.5
    c2 = c * c
    x[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    r = np.sqrt(-2.0 * _log(v[tail]))
    z = 1.0 / r
    q = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = r >= 8.0
    if far.any():
        q[far] = z[far] * _polevl(z[far], _P2) / _p1evl(z[far], _Q2)
    t = r - _log(r) / r - q
    x[tail] = np.where(upper[tail], t, -t)
    rest = ~(central | tail)  # 0, 1, off [0, 1] and NaN, which cephes's tail negates
    if rest.any():
        e = y[rest]
        x[rest] = np.select([e == 0.0, e == 1.0, np.isnan(e)], [-np.inf, np.inf, -e], np.nan)
    return x


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` for real ``a``, as
    ``scipy.special.logsumexp``: the maxima are taken out of the sum and
    counted, and a non-finite result falls back to the direct formula."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max.astype(float), axis=axis, keepdims=True)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        out = np.where(np.isfinite(out), out,
                       np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out
