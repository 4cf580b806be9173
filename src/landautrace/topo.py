"""Topological invariants of spectral projections via singular traces.

Rank and first Chern number of a projection P are computed as

    rank  = TrDix( Q_xi^{-1} P )
    chern = (i / ell^2) TrDix( Q_xi^{-1} P [d1(P), d2(P)] ),

d_i(A) = -i [X_i, A], each by one or more routes (Dixmier estimates)
under one certification rule (:func:`_certify`): the invariant is the
nearest integer of its first route, accepted only when every route is
converged, rounds to it and lies within 3x its own residual of it. The
Landau rank has two routes, the zeta residue and the gamma fit on its
closed forms; every other invariant has one. Position commutators are
taken in the ladder representation (exact shell arithmetic); the kernel
realization of the same derivations is validated independently in
:mod:`landautrace.kernels`.

The invariants and the curvature-identity check conserve the second
mode number n2 and run sector by sector in :mod:`landautrace.sectors`:
the curvature shell sums in factored form, the core once per stack at
O(L r^2) for a window of L levels and only the shell weights per sector,
and the Landau curvature identities on one window of at most 3 x 3,
whatever Nmax. Projections come from there as sector stacks
(sectors, n0, V), one column block V for a range of sectors, which this
module passes on without reading their rows: to ``sectors.shell_sums``
and to ``sectors.symmetry_residual`` with the spin twist of each symmetry
(``sectors.THETA_TWIST`` for Theta, the model record's twist for Xi and
Xi'), which also decides the label; :func:`_report` makes every report.
:func:`classify_symmetry` and :func:`partial_derivative` take dense
matrices: like the dense Hamiltonians, ``models.jc_trs`` and
``quaternionic_trs``, they are test oracles.
"""

from dataclasses import dataclass, field

import numpy as np

from . import sectors
from .fock import derived_operator, tensor_with_spin
from .models import GAP_FRACTION, NoGapError, jc_angles, _gaps_from_levels
from .singtrace import (
    dixmier_from_shell_sums,
    dixmier_via_gamma_fit,
    dixmier_via_zeta_residue,
    gamma_schedule,
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
    rank_routes: tuple          # DixmierEstimate per route; the first is the reported estimate
    chern_routes: tuple
    rank_rounded: int           # None when the first route is not finite
    chern_rounded: int
    rank_certified: bool
    chern_certified: bool
    symmetry: str               # "Real(+1)", "Quaternionic(-1)" or "none"
    symmetry_residual: float
    parity_ok: bool
    identity_residuals: dict = field(default_factory=dict)

    @property
    def certified(self):
        """Rank, Chern number and parity all pass."""
        return self.rank_certified and self.chern_certified and self.parity_ok

    def to_dict(self):
        return {
            "rank": _entry(self.rank_routes, self.rank_rounded, self.rank_certified),
            "chern": _entry(self.chern_routes, self.chern_rounded, self.chern_certified),
            "symmetry": self.symmetry,
            "symmetry_residual": self.symmetry_residual,
            "parity_ok": self.parity_ok,
            "identity_residuals": {k: float(v) for k, v in self.identity_residuals.items()},
        }


def _entry(routes, rounded, certified):
    """JSON form of one invariant: its first route as the estimate, the others as cross-checks."""
    first, *rest = routes
    return {"estimate": first.to_dict(), "cross_checks": [r.to_dict() for r in rest],
            "rounded": rounded, "certified": certified}


def _certify(routes):
    """(nearest integer of the first route, certified); None, uncertified, when it is not finite.

    Certified when every route is converged, rounds to that integer and
    lies within 3x its own residual of it.
    """
    if not np.isfinite(routes[0].value):
        return None, False
    rounded = int(np.rint(routes[0].value))
    ok = all(r.converged and np.rint(r.value) == rounded
             and abs(r.value - rounded) <= 3.0 * r.residual for r in routes)
    return rounded, bool(ok)


def _report(rank_routes, chern_routes, twist, sym_res, residuals, parity=False):
    """Certify both route tuples, label the twist ("none" over SYMMETRY_TOL), check parity if asked."""
    rank_rounded, rank_ok = _certify(rank_routes)
    chern_rounded, chern_ok = _certify(chern_routes)
    label = sectors.symmetry_label(twist) if sym_res <= SYMMETRY_TOL else "none"
    parity_ok = not parity or (rank_ok and chern_ok and rank_rounded % 2 == chern_rounded % 2 == 0)
    return TopologicalReport(
        rank_routes, chern_routes, rank_rounded, chern_rounded, rank_ok, chern_ok,
        label, sym_res, parity_ok, residuals,
    )


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
    return sectors.symmetry_residual(sectors.landau_stacks(nmax, j), sectors.THETA_TWIST)


def invariants_landau(j, nmax, params):
    """Rank and Chern number of the level-j projection.

    The rank has two routes on the closed forms, the zeta residue and the
    gamma fit on the exact singular sequence; the Chern number runs
    through the graded-diagonal estimator on the numerically assembled
    curvature density (sector decomposition, ladder representation).
    """
    if j > nmax - LEVEL_MARGIN:
        raise ValueError(f"need j <= Nmax - {LEVEL_MARGIN}")
    xi = params.xi
    rank_routes = (dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, xi, j)),
                   dixmier_via_gamma_fit(q_level_sequence(xi, j), schedule=gamma_schedule(j + 2 + 2 * xi)))
    _, chern_sums = sectors.landau_shell_sums(nmax, j, xi)
    chern_est = dixmier_from_shell_sums(chern_sums, xi)
    residuals = verify_curvature_identity(j, nmax, params)
    sym_res = _theta_projection_residual(nmax, j)
    return _report(rank_routes, (chern_est,), sectors.THETA_TWIST, sym_res, residuals)


def invariants_jc(j, sign, nmax, params):
    """Rank and Chern number of the spin-orbit pair projection P_j^sign.

    Also reports the interior residual of the spin-traced curvature
    against its closed form -i ell^2 (sin^2 P_{j-1} + cos^2 P_j).
    """
    if j < 1 or j + 1 > nmax - LEVEL_MARGIN:
        raise ValueError(f"need 1 <= j and j + 1 <= Nmax - {LEVEL_MARGIN}")
    theta = jc_angles(j, params.c_b)[0 if sign in ("+", 1) else 1]
    rank_sums, chern_sums, closed_resid = sectors.jc_shell_sums(nmax, j, theta, params.xi)
    rank_est = dixmier_from_shell_sums(rank_sums, params.xi)
    chern_est = dixmier_from_shell_sums(chern_sums, params.xi)
    sym_res = _jc_symmetry_residual(nmax, j, theta)
    return _report((rank_est,), (chern_est,), sectors.JC.twist, sym_res,
                   {"spin_trace_closed_form": closed_resid})


def _jc_symmetry_residual(nmax, j, theta):
    """Residual of Xi P Xi^{-1} = P, sector by sector, with the spin-orbit record's twist."""
    return sectors.symmetry_residual(sectors.jc_stacks(nmax, j, theta), sectors.JC.twist)


def invariants_quaternionic(energy, nmax, params, gap_threshold=None):
    """Rank and Chern number of the Fermi projection of the quaternionic model.

    Requires the energy to fall in a numerically certified gap (both
    neighboring interior eigenvalues exist and are separated by more than
    the threshold); raises NoGapError otherwise. Parity of both rounded
    invariants is reported via ``parity_ok``.
    """
    if gap_threshold is None:
        gap_threshold = GAP_FRACTION * params.eps_B
    secs, evs, flags = sectors.quaternionic_sector_eigensystem(nmax, params, energy)
    gaps = _gaps_from_levels(evs[flags], gap_threshold)
    if not any(g.contains(energy) for g in gaps):
        raise NoGapError(f"no certified gap around E = {energy}")
    stacks = sectors.fermi_stacks(secs)
    rank_sums, chern_sums = sectors.quaternionic_shell_sums(nmax, params, stacks)
    rank_est = dixmier_from_shell_sums(rank_sums, params.xi)
    chern_est = dixmier_from_shell_sums(chern_sums, params.xi)
    sym_res = _quaternionic_symmetry_residual(stacks)
    return _report((rank_est,), (chern_est,), sectors.QUATERNIONIC.twist, sym_res, {}, parity=True)


def _quaternionic_symmetry_residual(stacks):
    """Residual of Xi' P_E Xi'^{-1} = P_E, sector by sector, with the quaternionic record's twist.

    ``stacks`` are the :func:`sectors.fermi_stacks` of P_E.
    """
    return sectors.symmetry_residual(stacks, sectors.QUATERNIONIC.twist)


def classify_symmetry(H, candidates, tol=SYMMETRY_TOL, margin=2):
    """Label a Hamiltonian by the first anti-unitary candidate commuting with it.

    Returns (label, residual) with label "Real", "Quaternionic" or "none";
    the residual is measured on the margin-restricted interior block. H
    must be hermitian to 1e-10 relative to its largest entry. A test oracle
    of ``sectors.SpinHalfModel.twist_residual``, which ``verify --check
    symmetries`` uses.
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
