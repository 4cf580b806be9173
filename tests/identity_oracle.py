"""Point-by-point oracle of the four-fold integral identity of ``kernels.verify_integral_identity``.

It sums the integrand on the full O(q^4) product of Gauss-Legendre nodes,
so it checks the separable contraction, and it is the only evaluation of
the literal variant (weight L_j(|u|), phase +i f), which does not separate.
"""

import numpy as np

from landautrace.specfun import laguerre


def identity_weight(j, u1, u2, squared_argument):
    r2 = u1 ** 2 + u2 ** 2
    arg = r2 if squared_argument else np.sqrt(r2)
    return np.exp(-r2 / 2.0) * laguerre(j, 0.0, arg)


def identity_pointwise(j, cut, q, variant="rederived", x=(0.0, 0.0)):
    """Point-by-point O(q^4) Gauss-Legendre sum of the four-fold identity.

    The reference for the separable contraction of
    ``verify_integral_identity`` on the same nodes and weights, and the
    only evaluation of the literal variant, which does not separate.
    """
    x1c, x2c = float(x[0]), float(x[1])
    phase_sign = +1.0 if variant == "literal" else -1.0
    squared = variant == "rederived"
    nodes, wts = np.polynomial.legendre.leggauss(q)
    nodes = nodes * cut
    wts = wts * cut
    Y1, Y2 = np.meshgrid(nodes, nodes, indexing="ij")
    y1, y2 = Y1.ravel(), Y2.ravel()
    wy = np.outer(wts, wts).ravel()
    # weight factors at x-y and z-x
    g_xy = identity_weight(j, x1c - y1, x2c - y2, squared)
    g_zx = identity_weight(j, y1 - x1c, y2 - x2c, squared)
    total = 0.0 + 0.0j
    block = 512
    for lo in range(0, len(y1), block):
        hi = min(lo + block, len(y1))
        yb1 = y1[lo:hi][:, None]
        yb2 = y2[lo:hi][:, None]
        z1 = y1[None, :]
        z2 = y2[None, :]
        f = (x1c * z2 - x2c * z1) + (z1 * yb2 - z2 * yb1) + (yb1 * x2c - yb2 * x1c)
        g_yz = identity_weight(j, yb1 - z1, yb2 - z2, squared)
        inner = np.sum(wy[None, :] * f * np.exp(phase_sign * 1j * f) * g_yz * g_zx[None, :], axis=1)
        total += np.sum(wy[lo:hi] * g_xy[lo:hi] * inner)
    return total
