"""Numerically stable special functions used throughout the package.

Everything here is a pure function of scalars (or numpy arrays broadcast
along the argument), safe to call concurrently.
"""

import numpy as np
from scipy.special import zeta

__all__ = ["laguerre", "laguerre_rows", "hurwitz_zeta"]


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


def hurwitz_zeta(s, q):
    """Hurwitz zeta sum_{j>=0} (j+q)^(-s) for s > 1, q > 0 (``scipy.special.zeta``).

    scipy returns nan or inf outside that domain; this raises ValueError.
    """
    if s <= 1.0:
        raise ValueError(f"series diverges for s <= 1 (got s={s})")
    if q <= 0.0:
        raise ValueError(f"q must be positive (got q={q})")
    return zeta(s, q)
