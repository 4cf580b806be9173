"""Numerically stable special functions used throughout the package.

Everything here is a pure function of scalars (or numpy arrays broadcast
along the argument), safe to call concurrently.

``hurwitz_zeta`` and ``digamma`` run, in Python floats, the Cephes
algorithms behind ``scipy.special.zeta`` and ``scipy.special.psi``, so
they return the same bits without importing scipy, which would otherwise
cost most of the start-up time of every command.
"""

import math

import numpy as np

__all__ = ["laguerre", "laguerre_rows", "hurwitz_zeta", "digamma"]

_MACHEP = 1.11022302462515654042e-16
_EULER = 0.577215664901532860606512090082402431

#: Euler-Maclaurin denominators (2k)!/B_2k of the Hurwitz zeta tail (Cephes zeta.c)
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)

#: asymptotic series of digamma in 1/x^2 (Cephes psi.c)
_PSI_A = (
    8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
    -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)

#: Boost's rational approximation of digamma on [1, 2], about its positive root
_PSI_P = (
    -0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
    -0.65031853770896507, -0.32555031186804491, 0.25479851061131551,
)
_PSI_Q = (
    -0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
    0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0,
)
_PSI_Y = 0.99558162689208984  # a float32 literal in Boost, exact in double
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19


def laguerre_rows(kmax, alpha, x):
    """L_k^(alpha)(x) for k = 0..kmax, stacked along a new leading axis.

    Evaluated by the three-term recurrence

        (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1},

    which reproduces the defining falling-product sum exactly in exact
    arithmetic and is far better conditioned for large degree. Returns an
    array of shape ``(kmax + 1,) + x.shape``.
    """
    if kmax < 0:
        raise ValueError(f"degree must be nonnegative, got {kmax}")
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax == 0:
        return out
    out[1] = 1.0 + alpha - x
    for k in range(1, kmax):
        out[k + 1] = ((2 * k + 1 + alpha - x) * out[k] - (k + alpha) * out[k - 1]) / (k + 1.0)
    return out


def laguerre(m, alpha, x):
    """Generalized Laguerre polynomial L_m^(alpha)(x).

    Valid for any real ``alpha``, including negative integers down to
    ``-m`` (where the polynomial picks up a zero of order ``-alpha`` at
    the origin). The last row of :func:`laguerre_rows`.

    Parameters
    ----------
    m : int
        Degree, m >= 0.
    alpha : float
        Upper index.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray
    """
    val = laguerre_rows(m, alpha, x)[m]
    return val[()] if val.ndim == 0 else val


def _polevl(x, coef):
    """Horner evaluation, highest coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def hurwitz_zeta(s, q):
    """Hurwitz zeta sum_{j>=0} (j+q)^(-s) for s > 1, q > 0, as a float.

    Euler-Maclaurin summation (DLMF 25.11; Cephes ``zeta.c``): the terms
    are summed directly until at least ten are in and j + q > 9, then up
    to twelve Bernoulli corrections follow. For q > 1e8 it returns the
    two-term asymptotic form, whose next term is smaller by
    s (s - 1) / (12 q^2). Bit-identical to ``scipy.special.zeta(s, q)``,
    which returns nan or inf outside the domain; this raises ValueError.
    """
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1 (got s={s})")
    if q <= 0.0:
        raise ValueError(f"q must be positive (got q={q})")
    s = float(s)
    q = float(q)
    if q > 1e8:
        return (1.0 / (s - 1.0) + 1.0 / (2.0 * q)) * math.pow(q, 1.0 - s)
    total = math.pow(q, -s)
    a = q
    i = 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -s)
        total += b
        if abs(b / total) < _MACHEP:
            return total
    w = a
    total += b * w / (s - 1.0)
    total -= 0.5 * b
    a = 1.0
    k = 0.0
    for denom in _ZETA_A:
        a *= s + k
        b /= w
        t = a * b / denom
        total += t
        if abs(t / total) < _MACHEP:
            return total
        k += 1.0
        a *= s + k
        b /= w
        k += 1.0
    return total


def digamma(x):
    """Digamma psi(x) = Gamma'(x)/Gamma(x) for x > 0, as a float.

    Integers up to 10 sum the harmonic series. Other x below 10 recur
    into [1, 2], where Boost's rational approximation applies; from 10 up
    the asymptotic series does (DLMF 5.11.2; Cephes ``psi.c``).
    Bit-identical to ``scipy.special.psi(x)`` on this domain; raises
    ValueError outside it.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"digamma is evaluated for x > 0 only (got x={x})")
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 1.0:
        y = -1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if x <= 2.0:
        g = x - _PSI_ROOT1
        g -= _PSI_ROOT2
        g -= _PSI_ROOT3
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    z = 1.0 / (x * x) if x < 1e17 else 0.0
    return y + (math.log(x) - 0.5 / x - z * _polevl(z, _PSI_A))
