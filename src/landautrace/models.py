"""Concrete Hamiltonians: Landau, spin-orbit (Jaynes-Cummings), quaternionic.

Both spin-1/2 models are H = eps_B (K1^2 + K2^2)/2 with non-Abelian
kinetic momenta K_i = K_i x 1 - c_b 1 x gamma_i, each one record of
:mod:`landautrace.sectors` (``sectors.JC``, ``sectors.QUATERNIONIC``)
whose builder gives the dense Hamiltonians here:

* Jaynes-Cummings: gamma = (-sigma_2, sigma_1) (Rashba type); exactly
  solvable, levels E_0 = eps_B(1/2 + c_b^2) and
  E_j^+- = eps_B(j +- sqrt(1 + 8 j c_b^2)/2 + c_b^2).
* Quaternionic: gamma_1 = -alpha, gamma_2 = sigma_2 alpha sigma_2 with a
  real symmetric alpha parametrized by (r0, r1, r2). Its gauge matrix is
  normal, so up to a fixed spin rotation and a phase gauge the model is
  Landau x C^2: levels eps_B(n + 1/2), each doubled (the rotated form is
  in :mod:`landautrace.sectors`). Gaps are read off the truncated
  spectrum like those of the other models.

The anti-unitary symmetries are Theta = F C (scalar) and (F x twist) C
with the record's twist: diag(1, i) for Xi, sigma_2 for Xi'. The twist
of Xi must be diag(1, i) rather than the often-seen diag(1, -i): with
coefficient-wise complex conjugation only the former intertwines the
spin-orbit Hamiltonian (the latter maps c_b -> -c_b); both square to +1.
"""

from dataclasses import dataclass

import numpy as np

from . import sectors
from .fock import AntiUnitaryRep, OperatorMatrix, ladder, landau_projection, tensor_with_spin

__all__ = [
    "SpectrumTable",
    "GapRecord",
    "landau_levels",
    "jc_angles",
    "jc_spectrum",
    "jc_hamiltonian",
    "jc_projection",
    "jc_trs",
    "quaternionic_hamiltonian",
    "quaternionic_trs",
    "quaternionic_ground_modes",
    "diagonalize_and_gaps",
    "fermi_projection",
    "riesz_projection",
    "nonabelian_field_check",
    "NoGapError",
]

SIGMA1 = sectors.SIGMA1
SIGMA2 = sectors.SIGMA2
SIGMA3 = sectors.SIGMA3


class NoGapError(RuntimeError):
    """Requested energy does not sit inside a certified spectral gap."""


@dataclass
class SpectrumTable:
    """Ascending eigenvalues with provenance and interior certification."""

    eigenvalues: np.ndarray
    provenance: str                 # "closed_form" or "diagonalized"
    interior: np.ndarray = None         # None for closed forms
    labels: list = None                 # level names, closed forms only

    def interior_eigenvalues(self):
        if self.interior is None:
            return np.asarray(self.eigenvalues)
        return np.asarray(self.eigenvalues)[self.interior]


@dataclass
class GapRecord:
    lower: float
    upper: float

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, energy):
        return self.lower < energy < self.upper


def landau_levels(params, jmax):
    """Closed-form scalar levels E_j = eps_B (j + 1/2), j = 0..jmax, labelled E_j."""
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    ev = params.eps_B * (np.arange(jmax + 1) + 0.5)
    return SpectrumTable(ev, "closed_form", labels=[f"E_{j}" for j in range(jmax + 1)])


def jc_angles(j, c_b):
    """Mixing angles of the j-th spin-orbit pair, principal branch.

    theta_j^+- = atan( sqrt(8 c_b^2 j) / (1 +- sqrt(1 + 8 c_b^2 j)) ).
    The lower branch tends to -pi/2 as c_b -> 0. Both roots are formed
    from c_b sqrt(8 j), so they stay finite wherever c_b is.
    """
    if j < 1:
        raise ValueError("pair levels start at j = 1; level 0 is the scalar state")
    if c_b == 0:
        return 0.0, -np.pi / 2.0
    num = c_b * np.sqrt(8.0 * j)
    root = np.hypot(1.0, num)
    return float(np.arctan(num / (1.0 + root))), float(np.arctan(num / (1.0 - root)))


def jc_spectrum(params, jmax):
    """Closed-form spin-orbit levels up to pair index jmax, ascending.

    The labels name each level: E_0, then E_j- and E_j+ for each pair j.
    """
    vals = [params.eps_B * (0.5 + params.c_b ** 2)]
    labels = ["E_0"]
    for j in range(1, jmax + 1):
        root = np.hypot(1.0, params.c_b * np.sqrt(8.0 * j))
        vals.append(params.eps_B * (j - root / 2.0 + params.c_b ** 2))
        vals.append(params.eps_B * (j + root / 2.0 + params.c_b ** 2))
        labels += [f"E_{j}-", f"E_{j}+"]
    order = np.argsort(vals)
    return SpectrumTable(
        np.array(vals)[order], "closed_form", labels=[labels[i] for i in order]
    )


def jc_hamiltonian(basis, params):
    """H = H_B x 1 + c_b eps_B (K1 x s2 - K2 x s1) + c_b^2 eps_B."""
    h = sectors.JC.hamiltonian(ladder(basis, "a-").entries, basis.n1, params)
    return OperatorMatrix(basis, h, spin_dim=2)


def jc_projection(basis, params, j, sign=None):
    """Spectral projection of the level E_j^sign (E_0 for j = 0).

    The j = 0 eigenvectors have vanishing upper spin component, so the
    scalar-level projection is P_0 placed in the lower spin slot.
    """
    if j == 0:
        return tensor_with_spin(landau_projection(basis, 0), np.diag([0.0, 1.0]))
    if sign not in ("+", "-", 1, -1):
        raise ValueError("sign must be '+' or '-' for pair levels")
    if j + 1 > basis.nmax:
        raise ValueError(f"pair level {j} needs Nmax >= {j + 1}")
    theta = jc_angles(j, params.c_b)[0 if sign in ("+", 1) else 1]
    s, c = np.sin(theta), np.cos(theta)
    pj = landau_projection(basis, j).entries
    pjm1 = landau_projection(basis, j - 1).entries
    am = ladder(basis, "a-").entries
    ap = ladder(basis, "a+").entries
    e11 = np.array([[1, 0], [0, 0]], dtype=complex)
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = np.array([[0, 0], [1, 0]], dtype=complex)
    e22 = np.array([[0, 0], [0, 1]], dtype=complex)
    block = (
        np.kron(s * s * pjm1, e11)
        + np.kron(-1j * s * c / np.sqrt(j) * (am @ pj), e12)
        + np.kron(+1j * s * c / np.sqrt(j) * (pj @ ap), e21)
        + np.kron(c * c * pj, e22)
    )
    return OperatorMatrix(basis, block, spin_dim=2)


def jc_trs(basis):
    """Even anti-unitary symmetry Xi = (F x diag(1, i)) C; F C carries the phase i^(n1 + n2)."""
    u = sectors.JC.symmetry_unitary(basis.shell)
    return AntiUnitaryRep(OperatorMatrix(basis, u, spin_dim=2))


def quaternionic_hamiltonian(basis, params):
    """H = eps_B (A+ A- + 1/2) with A- = a x 1 + c_b 1 x M, the record's M normal."""
    h = sectors.QUATERNIONIC.hamiltonian(ladder(basis, "a-").entries, basis.n1, params)
    return OperatorMatrix(basis, h, spin_dim=2)


def quaternionic_trs(basis):
    """Odd anti-unitary symmetry Xi' = (F x sigma_2) C; squares to -1."""
    u = sectors.QUATERNIONIC.symmetry_unitary(basis.shell)
    return AntiUnitaryRep(OperatorMatrix(basis, u, spin_dim=2))


def quaternionic_ground_modes(basis, params, m):
    """The two lowest-shell eigenvectors of A- built on psi_(0, m).

    A- Phi^+- = c_b e^{i pi/4} (r0 +- i sqrt(r1^2 + r2^2)) Phi^+-.
    Requires r1^2 + r2^2 > 0 and a nonvanishing normalization branch.
    """
    r0, r1, r2 = params.r
    rho = np.sqrt(r1 ** 2 + r2 ** 2)
    if rho == 0:
        raise ValueError("spin eigenvectors need r1^2 + r2^2 > 0")
    out = []
    for sgn in (+1.0, -1.0):
        denom = 2 * rho ** 2 + 2 * sgn * r2 * rho
        if denom <= 0:
            raise ValueError("degenerate normalization branch")
        spinor = np.array([r1, -(r2 + sgn * rho)], dtype=complex) / np.sqrt(denom)
        vec = np.zeros(2 * basis.dim, dtype=complex)
        i = basis.index_of(0, m)
        vec[2 * i: 2 * i + 2] = spinor
        eig = params.c_b * np.exp(1j * np.pi / 4) * (r0 + sgn * 1j * rho)
        out.append((vec, eig))
    return out


def diagonalize_and_gaps(H, gap_threshold):
    """Dense hermitian eigendecomposition with interior-certified gap list.

    The dense oracle of :func:`sectors.jc_sector_eigensystem` and
    :func:`sectors.quaternionic_sector_eigensystem`, which ``spectrum`` and
    the invariants use. An eigenvector is interior when less than 1e-8 of
    its probability mass sits on the two outermost shells; gaps are scanned
    over interior eigenvalues only and must exceed the threshold. The
    eigenvalues agree with the sector path, the interior flags need not:
    they depend on the eigenbasis LAPACK picks inside eigenspaces that
    several n2 sectors share, where an interior and an edge vector can mix
    (spin-orbit model at Nmax 40, c_b = 0.7: 1519 of the 1521 interior
    eigenvalues certified).
    """
    if not H.is_hermitian(1e-10):
        raise ValueError("Hamiltonian must be hermitian-certified")
    w, v = np.linalg.eigh(H.entries)
    basis = H.basis
    shell = np.repeat(basis.shell, H.spin_dim)
    edge = shell > basis.nmax - sectors.EDGE_SHELLS
    mass = (np.abs(v) ** 2)[edge].sum(axis=0)
    interior = mass < sectors.INTERIOR_MASS
    table = SpectrumTable(w, "diagonalized", interior=interior)
    gaps = _gaps_from_levels(w[interior], gap_threshold)
    return table, gaps


#: default gap threshold of ``spectrum`` and the quaternionic invariants, in units of eps_B
GAP_FRACTION = 0.05


def _gaps_from_levels(levels, threshold):
    gap = np.diff(levels) > threshold
    return [GapRecord(a, b) for a, b in zip(levels[:-1][gap].tolist(), levels[1:][gap].tolist())]


def fermi_projection(H, energy, gap_threshold=0.05):
    """Sum of eigenprojections below an energy inside a certified gap."""
    table, gaps = diagonalize_and_gaps(H, gap_threshold)
    if not any(g.contains(energy) for g in gaps):
        raise NoGapError(f"no certified gap around E = {energy}")
    w, v = np.linalg.eigh(H.entries)
    keep = w <= energy
    V = v[:, keep]
    return OperatorMatrix(H.basis, V @ V.conj().T, H.spin_dim)


def riesz_projection(H, contour_center, contour_radius, quad_points=64):
    """Spectral projection by trapezoidal contour quadrature of the resolvent.

    (i / 2 pi) times the counterclockwise circle integral of (H - z)^{-1};
    exponentially convergent in the number of contour points for circles
    staying away from the spectrum. Raises when the contour passes within
    1e-6 of an interior eigenvalue.
    """
    if not H.is_hermitian(1e-10):
        raise ValueError("Hamiltonian must be hermitian-certified")
    w = np.linalg.eigvalsh(H.entries)
    dist = np.abs(np.abs(w - contour_center) - contour_radius).min()
    if dist < 1e-6:
        raise ValueError(f"contour passes within {dist:.2e} of an eigenvalue")
    n = H.dim
    acc = np.zeros((n, n), dtype=complex)
    theta = (np.arange(quad_points) + 0.5) * (2 * np.pi / quad_points)
    for t in theta:
        z = contour_center + contour_radius * np.exp(1j * t)
        dz = 1j * contour_radius * np.exp(1j * t)
        acc += np.linalg.solve(H.entries - z * np.eye(n), np.eye(n)) * dz
    acc *= (1j / (2 * np.pi)) * (2 * np.pi / quad_points)
    return OperatorMatrix(H.basis, acc, H.spin_dim)


def nonabelian_field_check(params, model):
    """Orthogonal part of the non-Abelian field: B x 1 - i (b^2/hbar)[g1, g2].

    For the spin-orbit model the commutator term is +2 sigma_3 in units of
    b^2/hbar; for the quaternionic model the gammas commute and the field
    stays purely Abelian. Returns the coefficient pattern as a report.
    """
    if model not in ("JC", "Q"):
        raise ValueError("model must be 'JC' or 'Q'")
    gamma1, gamma2 = (sectors.JC if model == "JC" else sectors.QUATERNIONIC).gammas(params)
    comm = gamma1 @ gamma2 - gamma2 @ gamma1
    su2_part = -1j * comm
    return {
        "model": model,
        "commutator_norm": float(np.abs(comm).max()),
        "su2_part": su2_part,
        "sigma3_coefficient": complex(np.trace(su2_part @ SIGMA3) / 2.0),
        "abelian": float(np.abs(comm).max()) < 1e-14,
    }
