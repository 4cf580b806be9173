"""Topological invariants of spectral projections via singular traces.

Rank and first Chern number of a projection P are computed as

    rank  = TrDix( Q_xi^{-1} P )
    chern = (i / ell^2) TrDix( Q_xi^{-1} P [d1(P), d2(P)] ),

d_i(A) = -i [X_i, A], with certified nearest-integer rounding: a rounded
value is accepted only when |estimate - integer| <= 3x the estimator
residual. Position commutators are taken in the ladder representation
(exact shell arithmetic); the kernel realization of the same derivations
is validated independently in :mod:`landautrace.kernels`.

The invariants and the curvature-identity check conserve the second
mode number n2 and run sector by sector in :mod:`landautrace.sectors`:
the curvature shell sums in factored form, O(s r^2) per sector, and the
Landau curvature identities on one window of at most 3 x 3, whatever
Nmax. Projections come from there as per-sector columns, which this
module passes on without reading their rows: to ``sectors.shell_sums``
and to ``sectors.symmetry_residual`` with the spin twist of each symmetry
([[1]] for Theta, diag(1, i) for Xi, sigma2 for Xi'). Only
:func:`classify_symmetry` and the dense derivation
:func:`partial_derivative` take dense matrices; the dense forms of the
other computations are the test oracles.
"""

from dataclasses import dataclass, field

import numpy as np

from . import sectors
from .fock import derived_operator, tensor_with_spin
from .models import NoGapError, jc_angles, _gaps_from_levels
from .singtrace import (
    DixmierEstimate,
    dixmier_from_shell_sums,
    dixmier_via_gamma_fit,
    dixmier_via_zeta_residue,
    q_level_sequence,
    trace_Q_power_proj,
)

__all__ = [
    "TopologicalReport",
    "verify_curvature_identity",
    "invariants_landau",
    "invariants_jc",
    "invariants_quaternionic",
    "classify_symmetry",
]

SYMMETRY_TOL = 1e-8
LEVEL_MARGIN = sectors.LEVEL_MARGIN


@dataclass
class TopologicalReport:
    rank_estimate: DixmierEstimate
    chern_estimate: DixmierEstimate
    rank_rounded: int           # None when the estimate is not finite
    chern_rounded: int
    rank_certified: bool
    chern_certified: bool
    symmetry: str               # "Real(+1)", "Quaternionic(-1)" or "none"
    symmetry_residual: float
    parity_ok: bool
    identity_residuals: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "rank": {
                "estimate": self.rank_estimate.to_dict(),
                "rounded": self.rank_rounded,
                "certified": self.rank_certified,
            },
            "chern": {
                "estimate": self.chern_estimate.to_dict(),
                "rounded": self.chern_rounded,
                "certified": self.chern_certified,
            },
            "symmetry": self.symmetry,
            "symmetry_residual": self.symmetry_residual,
            "parity_ok": self.parity_ok,
            "identity_residuals": {k: float(v) for k, v in self.identity_residuals.items()},
        }


def _certify(estimate):
    """(nearest integer, certified); a non-finite estimate rounds to None, uncertified."""
    if not np.isfinite(estimate.value):
        return None, False
    rounded = int(np.rint(estimate.value))
    ok = abs(estimate.value - rounded) <= 3.0 * estimate.residual and estimate.converged
    return rounded, bool(ok)


def partial_derivative(T, i, params=None):
    """d_i(T) = -i [X_i, T] on dense matrices; X_i acts on the spatial factor.

    No computation of this module uses it: it is the dense derivation the
    tests check the sector forms against.
    """
    if i not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    X = derived_operator(T.basis, f"X{i}", params)
    if T.spin_dim == 2:
        X = tensor_with_spin(X, np.eye(2))
    return -1j * X.commutator(T)


def verify_curvature_identity(j, nmax, params):
    """Residuals of the two curvature identities on the margin-3 interior.

    (a)  [d1 P_j, d2 P_j] = -i ell^2 (P_j + j P_{j-1} - (j+1) P_{j+1})
    (b)  P_j [d1 P_j, d2 P_j] = -i ell^2 P_j

    The neighbor coefficients in (a) are j and j+1: expanding through the
    level-shift relations gives [[a+,P],[a-,P]] = P + j P_{j-1}
    - (j+1) P_{j+1}, and only 1 + j - (j+1) = 0 makes the commutator
    traceless per unit volume. (A lower coefficient j-1 sometimes quoted
    for the middle term fails both checks; see the test suite.) Identity
    (b) is insensitive to the neighbors by orthogonality.

    Both sides conserve n2 and are checked per sector on the window of
    levels j-1..j+1 that holds all their nonzero entries
    (:func:`sectors.landau_identity_residuals`). That window is the same
    in every sector that reaches it, so one 3 x 3 window decides both
    residuals: the cost does not grow with Nmax and no dense matrix is
    built. The dense form on the whole truncated basis is the test oracle.
    """
    res_a, res_b = sectors.landau_identity_residuals(nmax, j, params.ell_B)
    return {"commutator_identity": res_a, "curvature_identity": res_b}


def _theta_projection_residual(nmax, j):
    """Residual of Theta P_j Theta^{-1} = P_j, sector by sector."""
    return sectors.symmetry_residual(sectors.landau_columns(nmax, j), np.ones((1, 1)))


def invariants_landau(j, nmax, params):
    """Rank and Chern number of the level-j projection.

    The rank runs through both closed-form estimators (zeta residue and
    gamma fit on the exact singular sequence) and reports their spread;
    the Chern number runs through the graded-diagonal estimator on the
    numerically assembled curvature density (sector decomposition, ladder
    representation).
    """
    if j > nmax - LEVEL_MARGIN:
        raise ValueError(f"need j <= Nmax - {LEVEL_MARGIN}")
    xi = params.xi
    zeta_est = dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, xi, j))
    gamma_est = dixmier_via_gamma_fit(q_level_sequence(xi, j))
    spread = abs(zeta_est.value - gamma_est.value)
    rank_est = DixmierEstimate(
        zeta_est.value,
        "zeta_residue+gamma_fit",
        zeta_est.samples,
        zeta_est.converged and gamma_est.converged and spread <= 1e-3,
        max(zeta_est.residual, spread),
    )
    _, chern_sums = sectors.landau_shell_sums(nmax, j, xi)
    chern_est = dixmier_from_shell_sums(chern_sums)
    rank_rounded, rank_ok = _certify(rank_est)
    chern_rounded, chern_ok = _certify(chern_est)
    residuals = verify_curvature_identity(j, nmax, params)
    sym_res = _theta_projection_residual(nmax, j)
    return TopologicalReport(
        rank_est, chern_est, rank_rounded, chern_rounded, rank_ok, chern_ok,
        "Real(+1)" if sym_res <= SYMMETRY_TOL else "none", sym_res, True,
        dict(residuals, estimator_spread=spread),
    )


def invariants_jc(j, sign, nmax, params):
    """Rank and Chern number of the spin-orbit pair projection P_j^sign.

    Also reports the interior residual of the spin-traced curvature
    against its closed form -i ell^2 (sin^2 P_{j-1} + cos^2 P_j).
    """
    if j < 1 or j + 1 > nmax - LEVEL_MARGIN:
        raise ValueError(f"need 1 <= j and j + 1 <= Nmax - {LEVEL_MARGIN}")
    theta = jc_angles(j, params.c_b)[0 if sign in ("+", 1) else 1]
    rank_sums, chern_sums, closed_resid = sectors.jc_shell_sums(nmax, j, theta, params.xi)
    rank_est = dixmier_from_shell_sums(rank_sums)
    chern_est = dixmier_from_shell_sums(chern_sums)
    rank_rounded, rank_ok = _certify(rank_est)
    chern_rounded, chern_ok = _certify(chern_est)
    sym_res = _jc_symmetry_residual(nmax, j, theta)
    return TopologicalReport(
        rank_est, chern_est, rank_rounded, chern_rounded, rank_ok, chern_ok,
        "Real(+1)" if sym_res <= SYMMETRY_TOL else "none", sym_res, True,
        {"spin_trace_closed_form": closed_resid},
    )


def _jc_symmetry_residual(nmax, j, theta):
    """Residual of Xi P Xi^{-1} = P, sector by sector; Xi twists the spin by diag(1, i)."""
    return sectors.symmetry_residual(sectors.jc_columns(nmax, j, theta), np.diag([1, 1j]))


def invariants_quaternionic(energy, nmax, params, gap_threshold=None):
    """Rank and Chern number of the Fermi projection of the quaternionic model.

    Requires the energy to fall in a numerically certified gap (both
    neighboring interior eigenvalues exist and are separated by more than
    the threshold); raises NoGapError otherwise. Parity of both rounded
    invariants is reported via ``parity_ok``.
    """
    if gap_threshold is None:
        gap_threshold = 0.05 * params.eps_B
    secs, evs, flags = sectors.quaternionic_sector_eigensystem(nmax, params, energy)
    gaps = _gaps_from_levels(evs[flags], gap_threshold)
    if not any(g.contains(energy) for g in gaps):
        raise NoGapError(f"no certified gap around E = {energy}")
    rank_sums, chern_sums = sectors.quaternionic_shell_sums(nmax, params, energy, secs)
    # spin-doubled densities double the extrapolation spread; 0.1 is the
    # documented certification budget for the quaternionic invariants
    rank_est = dixmier_from_shell_sums(rank_sums, tolerance=1e-1)
    chern_est = dixmier_from_shell_sums(chern_sums, tolerance=1e-1)
    rank_rounded, rank_ok = _certify(rank_est)
    chern_rounded, chern_ok = _certify(chern_est)
    sym_res = _quaternionic_symmetry_residual(secs)
    parity_ok = (
        rank_ok and chern_ok and rank_rounded % 2 == 0 and chern_rounded % 2 == 0
    )
    kramers = _kramers_residual(evs[flags])
    return TopologicalReport(
        rank_est, chern_est, rank_rounded, chern_rounded, rank_ok, chern_ok,
        "Quaternionic(-1)" if sym_res <= SYMMETRY_TOL else "none", sym_res, parity_ok,
        {"kramers_pairing": kramers, "n_gaps": float(len(gaps))},
    )


def _quaternionic_symmetry_residual(secs):
    """Residual of Xi' P_E Xi'^{-1} = P_E, sector by sector; Xi' twists the spin by sigma2.

    ``secs`` is :func:`sectors.quaternionic_sector_eigensystem` at the
    Fermi energy, whose columns V span P_E = V V^dagger per sector.
    """
    return sectors.symmetry_residual([(b, V) for b, _w, V, _fl in secs], sectors.SIGMA2)


def _kramers_residual(levels, tol=1e-8):
    """Worst odd-cluster defect: every eigenvalue cluster must have even size.

    Clusters split where a gap exceeds tol. An odd cluster scores the gap to
    its nearest neighbour (inf without one). The rotated quaternionic solver
    doubles every eigenvalue by construction, so this checks that doubling.
    """
    levels = np.sort(levels)
    gaps = np.diff(levels)
    cut = np.flatnonzero(gaps > tol)  # cluster k ends at index cut[k]
    sizes = np.diff(np.concatenate(([-1], cut, [len(levels) - 1])))
    edges = np.concatenate(([np.inf], gaps[cut], [np.inf]))  # gaps around each cluster
    nearest = np.minimum(edges[:-1], edges[1:])
    return float(nearest[sizes % 2 == 1].max(initial=0.0))


def classify_symmetry(H, candidates, tol=SYMMETRY_TOL, margin=2):
    """Label a Hamiltonian by the first anti-unitary candidate commuting with it.

    Returns (label, residual) with label "Real", "Quaternionic" or "none";
    the residual is measured on the margin-restricted interior block. H
    must be hermitian to 1e-10 relative to its largest entry.
    """
    from .fock import interior_block

    if not H.is_hermitian(1e-10 * max(1.0, H.max_abs())):
        raise ValueError("Hamiltonian must be hermitian")
    best = ("none", np.inf)
    for rep in candidates:
        conj = rep.conjugate_operator(H)
        resid = interior_block(H.basis, conj - H, margin).max_abs()
        if resid <= tol:
            label = "Real" if rep.square_sign() > 0 else "Quaternionic"
            return label, float(resid)
        best = min(best, ("none", float(resid)), key=lambda t: t[1])
    return best
