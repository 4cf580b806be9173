"""Position-space eigenfunctions, projection kernels and 2D quadrature.

The eigenfunction family is

    psi_{(n1,n2)}(x) = psi_0(x) sqrt(n1!/n2!) w^(n2-n1) L_{n1}^{(n2-n1)}(rho)

with w = (x1 + i x2)/(ell sqrt2), rho = |x|^2/(2 ell^2) and
psi_0 = exp(-|x|^2 / 4 ell^2) / (ell sqrt(2 pi)); the level-j projection
has the closed-form kernel

    Pi_j(x,y) = exp(-|x-y|^2/(4 ell^2)) exp(-i x^y/(2 ell^2))
                L_j^(0)(|x-y|^2/(2 ell^2)) / (2 pi ell^2),

x^y = x1 y2 - x2 y1. Note this concrete realization is the complex
conjugate of the one generated by the ladder matrices of
:mod:`landautrace.fock`: phase-insensitive quantities (diagonals, traces,
norms) agree between the two, while the position commutator kernels of
``deriv_kernel`` realize the ladder-side derivations with the 1 <-> 2
axes exchanged (see ``tests/test_kernels.py``).

The four-fold integral identity (``verify_integral_identity``) is a
Gauss-Legendre sum over (y, z) in R^2 x R^2, evaluated as traces of q x q
matrix products around the 4-cycle y1 - z1 - y2 - z2 of its node axes:
the magnetic phase and f = x^z + z^y + y^x split into edge factors and
vertex factors, and each weight exp(-|u|^2/2) L_j(|u|^2) splits into
j + 1 products of one-axis factors by the Laguerre addition formula
L_j(a + b) = sum_k L_k^(-1/2)(a) L_{j-k}^(-1/2)(b). The cost is
O((j+1)^2 q^3) instead of O(q^4). The identity is often quoted in a
literal form, f e^{+i f} with weight L_j(|u|); that form misses
pi^2/(2i) and is evaluated only by the point-by-point oracle of the test
suite.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fock import ModelParams
from .specfun import laguerre, laguerre_rows

__all__ = [
    "Region",
    "QuadratureRule",
    "gauss_legendre",
    "QuadratureConvergenceError",
    "psi_eval",
    "basis_matrix",
    "landau_kernel",
    "landau_kernel_levels",
    "deriv_kernel",
    "integrate_refined",
    "integrate_kernel_diagonal",
    "verify_integral_identity",
    "matrix_diagonal_values",
]

TARGET_IDENTITY = np.pi ** 2 / 2j


class QuadratureConvergenceError(RuntimeError):
    """Raised when successive quadrature refinements fail to agree."""


@functools.lru_cache(maxsize=None)
def gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    rule = leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (N, 2)
    weights: np.ndarray  # (N,)


class Region:
    """Centered square (side L) or centered disk (radius R)."""

    def __init__(self, shape, size):
        if shape not in ("square", "disk"):
            raise ValueError(f"unknown region shape {shape!r}")
        if size <= 0:
            raise ValueError("region size must be positive")
        self.shape = shape
        self.size = float(size)

    @classmethod
    def square(cls, side):
        return cls("square", side)

    @classmethod
    def disk(cls, radius):
        return cls("disk", radius)

    @property
    def measure(self):
        if self.shape == "square":
            return self.size ** 2
        return np.pi * self.size ** 2

    def rule(self, order):
        """Tensor Gauss-Legendre (square) or polar GL x trapezoid (disk)."""
        if order < 2:
            raise ValueError("order must be >= 2")
        x, w = gauss_legendre(order)
        if self.shape == "square":
            half = self.size / 2.0
            xs = x * half
            ws = w * half
            X, Y = np.meshgrid(xs, xs, indexing="ij")
            W = np.outer(ws, ws)
            pts = np.column_stack([X.ravel(), Y.ravel()])
            return QuadratureRule(pts, W.ravel())
        # disk: radial nodes on [0, R] with Jacobian r, uniform angles
        r = (x + 1.0) * (self.size / 2.0)
        wr = w * (self.size / 2.0) * r
        n_ang = 2 * order + 1
        theta = np.arange(n_ang) * (2 * np.pi / n_ang)
        wt = np.full(n_ang, 2 * np.pi / n_ang)
        R, T = np.meshgrid(r, theta, indexing="ij")
        W = np.outer(wr, wt)
        pts = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
        return QuadratureRule(pts, W.ravel())

    def __repr__(self):
        return f"Region({self.shape}, size={self.size})"


def psi_eval(n, x, params=None):
    """Eigenfunction psi_n, n = (n1, n2), at point(s) x; x is (2,) or (..., 2)."""
    if params is None:
        params = ModelParams()
    n1, n2 = int(n[0]), int(n[1])
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = x[None, :] if scalar else x.reshape(-1, 2)
    ell = params.ell_B
    w = (pts[:, 0] + 1j * pts[:, 1]) / (ell * np.sqrt(2))
    rho = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / (2 * ell ** 2)
    psi0 = np.exp(-rho / 2.0) / (ell * np.sqrt(2 * np.pi))
    if n2 >= n1:
        pref = np.exp(0.5 * (math.lgamma(n1 + 1.0) - math.lgamma(n2 + 1.0)))
        val = psi0 * pref * w ** (n2 - n1) * laguerre(n1, n2 - n1, rho)
    else:
        # equivalent closed form regular at the origin:
        # L_m^(-k)(z) = (-z)^k (m-k)!/m! L_{m-k}^(k)(z) folded into the prefactor
        k = n1 - n2
        pref = np.exp(0.5 * (math.lgamma(n2 + 1.0) - math.lgamma(n1 + 1.0)))
        val = psi0 * pref * (-1.0) ** k * np.conj(w) ** k * laguerre(n2, k, rho)
    if scalar:
        return complex(val[0])
    return val.reshape(x.shape[:-1])


def basis_matrix(basis, points, params=None):
    """All basis eigenfunctions at the given points, shape (dim, npts).

    Evaluated stripe-by-stripe at fixed n2 - n1 with the degree recurrence,
    so the cost is O(dim * npts).
    """
    if params is None:
        params = ModelParams()
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ell = params.ell_B
    w = (pts[:, 0] + 1j * pts[:, 1]) / (ell * np.sqrt(2))
    rho = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / (2 * ell ** 2)
    psi0 = np.exp(-rho / 2.0) / (ell * np.sqrt(2 * np.pi))
    out = np.empty((basis.dim, len(pts)), dtype=complex)
    nmax = basis.nmax
    wbar = np.conj(w)
    for d in range(0, nmax + 1):
        kmax = (nmax - d) // 2  # state (k, k+d) needs 2k + d <= nmax
        # stripe n2 - n1 = +d (and its mirror n1 - n2 = d when d > 0)
        L = laguerre_rows(kmax, d, rho)
        wd = w ** d
        wbd = (-1.0) ** d * wbar ** d
        for k in range(kmax + 1):
            pref = np.exp(0.5 * (math.lgamma(k + 1.0) - math.lgamma(k + d + 1.0)))
            row = psi0 * pref * L[k]
            out[basis.index_of(k, k + d)] = row * wd
            if d:
                out[basis.index_of(k + d, k)] = row * wbd
    return out


def landau_kernel_levels(levels, x, y, params=None):
    """Pi_j(x, y) for each j of ``levels``, one pass, yielded one level at a time.

    |x - y|^2 / (2 ell^2), x^y / (2 ell^2), the phase
    exp(-d^2/2) exp(-i x^y / (2 ell^2)) and one Laguerre recurrence up to
    max(levels) are computed once; level j is phase * L_j / (2 pi ell^2).
    Each yielded array has the broadcast shape of x and y less their last
    axis. No level holds the others, and empty ``levels`` compute nothing.
    """
    levels = list(levels)
    if not levels:
        return
    if min(levels) < 0:
        raise ValueError("level must be nonnegative")
    if params is None:
        params = ModelParams()
    ell = params.ell_B
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    y1, y2 = y[..., 0], y[..., 1]
    d2 = ((x1 - y1) ** 2 + (x2 - y2) ** 2) / (2 * ell ** 2)
    wedge = (x1 * y2 - x2 * y1) / (2 * ell ** 2)
    phase = np.exp(-d2 / 2.0) * np.exp(-1j * wedge)
    norm = 2 * np.pi * ell ** 2
    rows = laguerre_rows(max(levels), 0.0, np.atleast_1d(d2))
    for j in levels:
        yield (phase * rows[j] / norm).reshape(np.shape(d2))


def landau_kernel(j, x, y, params=None):
    """Closed-form level-j projection kernel Pi_j(x, y); broadcasts.

    The one level of :func:`landau_kernel_levels`; a Python complex for two points.
    """
    (val,) = landau_kernel_levels((j,), x, y, params)
    return complex(val) if val.ndim == 0 else val


def deriv_kernel(i, j, x, y, params=None):
    """Kernel of the position-commutator derivation: -i (x_i - y_i) Pi_j(x,y)."""
    if i not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    delta = x[..., i - 1] - y[..., i - 1]
    return -1j * delta * landau_kernel(j, x, y, params)


def matrix_diagonal_values(T, points, params=None):
    """Diagonal T(x, x) of the basis-expansion kernel at the given points."""
    V = basis_matrix(T.basis, points, params)
    if T.spin_dim != 1:
        raise ValueError("kernel expansion needs a spinless operator")
    diag = np.diag(T.entries)
    if np.count_nonzero(T.entries - np.diag(diag)) == 0:
        return np.einsum("i,ip->p", diag, np.abs(V) ** 2)
    return np.einsum("ip,ij,jp->p", np.conj(V), T.entries, V, optimize=True)


def integrate_refined(region, values, tol, order):
    """Integral of values(points) over the region at twice the order, checked at the order."""
    coarse, fine = (complex(np.sum(rule.weights * values(rule.points)))
                    for rule in (region.rule(order), region.rule(2 * order)))
    moved = abs(fine - coarse)
    if moved > tol * max(1.0, abs(fine)):
        raise QuadratureConvergenceError(f"refinement moved the integral by {moved:.2e}")
    return fine


def integrate_kernel_diagonal(T, region, params=None, tol=1e-8, order=64):
    """integral over the region of T(x,x), T expanded in the eigenbasis, refined once."""
    return integrate_refined(region, lambda pts: matrix_diagonal_values(T, pts, params), tol, order)


def _gauss_laguerre_factors(j, u):
    """h_k(u) = exp(-u^2/2) L_k^(-1/2)(u^2) for k = 0..j, shape (j+1,) + u.shape.

    By the Laguerre addition formula L_j(a + b) = sum_k L_k^(-1/2)(a)
    L_{j-k}^(-1/2)(b) (DLMF 18.18.12), the weight exp(-|u|^2/2) L_j(|u|^2)
    equals sum_k h_k(u_1) h_{j-k}(u_2).
    """
    return np.exp(-u ** 2 / 2.0) * laguerre_rows(j, -0.5, u ** 2)


def verify_integral_identity(j, cutoff=6.0, tol=1e-4, x=(0.0, 0.0), order=64):
    """Four-fold integral of the triple-kernel curvature density.

    With f_x(y,z) = x^z + z^y + y^x the integrand is f e^{-i f} times the
    weights exp(-|u|^2/2) L_j(|u|^2) at x-y, y-z and z-x, the form
    re-derived by substituting the closed-form projection kernel into the
    trace of the curvature density; it evaluates to pi^2/(2i). The
    literal form usually quoted, f e^{+i f} with weight L_j(|u|), gives
    the complex conjugate at j = 0 and misses pi^2/(2i) at j = 1; it does
    not separate, so only the point-by-point oracle in
    ``tests/identity_oracle.py`` evaluates it.

    The integral is the tensor Gauss-Legendre sum over |y_i|, |z_i| <=
    cutoff (component-wise, boxes centered at the origin), contracted
    around the 4-cycle y1 - z1 - y2 - z2 of q x q matrices on the nodes:

    * f = z1 (y2 - x2) + z2 (x1 - y1) + (y1 x2 - y2 x1), so the phase and
      f split into a z1-y2 edge factor, a z2-y1 edge factor and a function
      of y alone;
    * the weight at y - z splits by the Laguerre addition formula into
      j + 1 products of y1-z1 and y2-z2 edge factors (see
      ``_gauss_laguerre_factors``), and so does the weight at z - x into
      z1 and z2 vertex factors; the weight at x - y stays a q x q matrix
      in (y1, y2), the pair at which the cycle is closed by a trace.

    That costs O((j+1)^2 q^3) instead of the O(q^4) of the point-by-point
    sum. The sum is re-evaluated on a refined cutoff/order pair; it raises
    QuadratureConvergenceError if the two disagree beyond tol.
    """
    if j < 0:
        raise ValueError("level must be nonnegative")
    x1c, x2c = float(x[0]), float(x[1])

    def evaluate(cut, q):
        nodes, wts = gauss_legendre(q)
        t = nodes * cut
        w = wts * cut
        # y-vertex matrix (rows y1, columns y2): weight at x-y, phase of y^x
        fy = np.subtract.outer(t * x2c, t * x1c)
        r2 = np.add.outer((x1c - t) ** 2, (x2c - t) ** 2)
        gy = np.outer(w, w) * np.exp(-r2 / 2.0) * laguerre(j, 0.0, r2) * np.exp(-1j * fy)
        # edges y1-z1 and y2-z2: h_l(y1 - z1) h_{j-l}(y2 - z2)
        h_edge = _gauss_laguerre_factors(j, np.subtract.outer(t, t))
        # z vertices: w h_m(z1 - x1) and w h_{j-m}(z2 - x2)
        hz1 = w * _gauss_laguerre_factors(j, t - x1c)
        hz2 = w * _gauss_laguerre_factors(j, t - x2c)
        # edges z1-y2 and z2-y1 carry the rest of f and of the phase,
        # each next to its f-weighted copy
        f_z1y2 = np.outer(t, t - x2c)
        f_z2y1 = np.outer(t, x1c - t)
        z1y2 = np.hstack([np.exp(-1j * f_z1y2), f_z1y2 * np.exp(-1j * f_z1y2)])
        z2y1 = np.hstack([np.exp(-1j * f_z2y1), f_z2y1 * np.exp(-1j * f_z2y1)])
        total = 0.0 + 0.0j
        for l in range(j + 1):
            for m in range(j + 1):
                # both halves indexed (y1, y2); rows q.. of right and
                # columns q.. of left are the f-weighted parts
                left = (h_edge[l] * hz1[m]) @ z1y2                # y1 -> z1 -> y2
                right = ((h_edge[j - l] * hz2[j - m]) @ z2y1).T   # y2 -> z2 -> y1
                weighted = (fy * left[:, :q] + left[:, q:]) * right[:q] + left[:, :q] * right[q:]
                total += np.sum(gy * weighted)
        return total

    coarse = evaluate(cutoff, order)
    fine = evaluate(1.25 * cutoff, order + order // 2)
    if abs(fine - coarse) > max(tol, 1e-12):
        raise QuadratureConvergenceError(
            f"cutoff refinement moved the integral by {abs(fine - coarse):.2e}"
        )
    return fine
