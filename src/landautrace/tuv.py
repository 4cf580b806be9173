"""Trace per unit volume over Folner families and the singular-trace bridge.

The density limit Tr(chi_L T chi_L)/|L| over an exhausting family of
regions equals TrDix((Q + 2 xi)^{-1} T) / (2 pi ell^2) for operators in
the closed span of the level projections, independently of xi and of the
family. Both sides are computed numerically here and compared.
"""

from dataclasses import dataclass

import numpy as np

from .fock import ModelParams
from .kernels import Region, landau_kernel_levels, integrate_kernel_diagonal, integrate_refined
from .singtrace import dixmier_via_zeta_residue, trace_Q_power_proj

__all__ = [
    "FolnerFamily",
    "LandauCombination",
    "TuvEstimate",
    "restricted_trace",
    "tuv_limit",
    "level_residues",
    "dixmier_density",
    "compare_tuv_dixmier",
    "idos",
]


@dataclass(frozen=True)
class LandauCombination:
    """Finite combination sum_j t_j P_j given by its coefficient vector."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(t) for t in self.coeffs))

    def kernel_diagonal(self, points, params):
        """Closed-form diagonal sum_j t_j Pi_j(x, x) at the given points.

        The levels with t_j != 0 come from one pass of
        :func:`~landautrace.kernels.landau_kernel_levels` and are added in
        ascending j, one level at a time.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        out = np.zeros(len(pts), dtype=complex)
        used = [j for j, t in enumerate(self.coeffs) if t]
        for j, level in zip(used, landau_kernel_levels(used, pts, pts, params)):
            out += self.coeffs[j] * level
        return out


class FolnerFamily:
    """Nested centered squares or disks with strictly increasing scales.

    The scale is the half-width for squares and the radius for disks, in
    units of the magnetic length.
    """

    def __init__(self, shape, scales):
        if shape not in ("squares", "disks"):
            raise ValueError(f"unknown family shape {shape!r}")
        scales = [float(s) for s in scales]
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ValueError("scales must be strictly increasing")
        self.shape = shape
        self.scales = scales

    @classmethod
    def default(cls, shape="squares"):
        return cls(shape, (4.0, 6.0, 8.0, 12.0))

    def regions(self, params):
        ell = params.ell_B
        if self.shape == "squares":
            return [Region.square(2.0 * s * ell) for s in self.scales]
        return [Region.disk(s * ell) for s in self.scales]


@dataclass
class TuvEstimate:
    value: float
    samples: list
    residual: float
    converged: bool


def restricted_trace(T, region, params=None, order=64, tol=1e-8):
    """Tr(chi_L T chi_L) = integral over the region of T(x, x).

    T is either an OperatorMatrix (basis-expansion kernel) or a
    LandauCombination (closed-form kernel diagonal). Both refine the
    quadrature once and raise QuadratureConvergenceError when it moves.
    """
    if params is None:
        params = ModelParams()
    if isinstance(T, LandauCombination):
        out = integrate_refined(region, lambda pts: T.kernel_diagonal(pts, params), tol, order)
    else:
        out = integrate_kernel_diagonal(T, region, params, tol=tol, order=order)
    if abs(out.imag) > 1e-9 * max(1.0, abs(out.real)):
        raise ValueError("restricted trace of a non-self-adjoint operator")
    return float(out.real)


def tuv_limit(T, family=None, params=None, tolerance=1e-6, order=64):
    """Extrapolated density limit over the family, model c0 + c1/scale."""
    if params is None:
        params = ModelParams()
    if family is None:
        family = FolnerFamily.default()
    if len(family.scales) < 4:
        raise ValueError("need at least 4 family members")
    samples = []
    for scale, region in zip(family.scales, family.regions(params)):
        raw = restricted_trace(T, region, params, order=order)
        samples.append((scale, raw, raw / region.measure))
    x = 1.0 / np.array([s for s, _, _ in samples])
    y = np.array([v for _, _, v in samples])
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.abs(A @ coef - y).max())
    return TuvEstimate(float(coef[0]), samples, resid, resid <= tolerance)


def level_residues(xi, levels):
    """Zeta-residue estimates of TrDix((Q + 2 xi)^{-1} P_j) for j = 0 .. levels - 1."""
    return [dixmier_via_zeta_residue(lambda s, j=j: trace_Q_power_proj(s, xi, j))
            for j in range(levels)]


def dixmier_density(coeffs, per_level, params):
    """TrDix((Q + 2 xi)^{-1} T) / (2 pi ell^2) for T = sum_j t_j P_j.

    The singular trace is assembled by linearity from the per-level
    zeta-residue estimates of :func:`level_residues` at xi, which may
    cover more levels than ``coeffs``. Returns (density, singular trace,
    the singular trace's residual).
    """
    coeffs = [float(t) for t in coeffs]
    dix = sum(t * est.value for t, est in zip(coeffs, per_level))
    dix_resid = sum(abs(t) * est.residual for t, est in zip(coeffs, per_level))
    omega = np.pi * params.ell_B ** 2
    return dix / (2.0 * omega), dix, dix_resid


def compare_tuv_dixmier(coeffs, xi=0.0, params=None, tolerance=1e-3, family=None):
    """Both sides of the density formula for T = sum_j t_j P_j.

    The left side is :func:`dixmier_density`; the right side is the
    extrapolated trace per unit volume, which does not depend on xi.
    Returns a report dict and never raises on disagreement.
    """
    if params is None:
        params = ModelParams()
    lhs, dix, dix_resid = dixmier_density(coeffs, level_residues(xi, len(coeffs)), params)
    rhs = tuv_limit(LandauCombination(coeffs), family, params)
    diff = abs(lhs - rhs.value)
    return {
        "lhs": lhs,
        "rhs": rhs.value,
        "diff": diff,
        "ok": bool(diff <= tolerance),
        "dixmier_value": dix,
        "dixmier_residual": dix_resid,
        "tuv_samples": rhs.samples,
        "tuv_residual": rhs.residual,
        "xi": xi,
    }


def idos(E, params=None):
    """Integrated density of states: level count below E per unit area."""
    if params is None:
        params = ModelParams()
    if E < params.eps_B / 2.0:
        return 0.0
    count = int(np.floor(E / params.eps_B + 0.5))
    return count / (2.0 * np.pi * params.ell_B ** 2)
