"""Truncated two-mode oscillator space and explicit operator matrices.

The basis holds the joint number states |n1, n2> of two commuting boson
modes with graded cutoff n1 + n2 <= Nmax, ordered level-major: ascending
shell s = n1 + n2, then ascending n1, so |n1, n2> has index
s(s+1)/2 + n1. :class:`TruncatedBasis` keeps the enumeration as integer
arrays, from which each matrix is filled by one fancy-index assignment.
Shells align with the eigenspaces of the harmonic regulator
Q = a+a- + b+b- + 2, which is what the singular-trace engine sums over.

Mode conventions (hbar = 1):

    a-|n1,n2> = sqrt(n1) |n1-1,n2>      b-|n1,n2> = sqrt(n2) |n1,n2-1>
    K1 = (a+ + a-)/sqrt2                G1 = -(b+ + b-)/sqrt2
    K2 = (a+ - a-)/(i sqrt2)            G2 = -(b+ - b-)/(i sqrt2)
    X1 = ell_B (K2 - G1)                X2 = ell_B (G2 - K1)
    H  = eps_B (a+a- + 1/2)             Q  = a+a- + b+b- + 2
    L3 = a+a- - b+b-

Matrices are stored dense, and products cost O(dim^3) (dim ~ 2e3 at
Nmax 60). No command builds them: the commands run sector by sector in
:mod:`landautrace.sectors`, and ``verify --check commutators`` on the
bands of the sector blocks. The dense matrices, :class:`AntiUnitaryRep`
and :func:`flip_and_conjugation` among them, serve the test oracles.
"""

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "TruncatedBasis",
    "OperatorMatrix",
    "AntiUnitaryRep",
    "ModelParams",
    "ParamsError",
    "build_basis",
    "ladder",
    "derived_operator",
    "landau_projection",
    "flip_and_conjugation",
    "tensor_with_spin",
    "interior_block",
]

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12


def _shell_start(s):
    """Index of |0, s>, the first state of shell s; broadcasts."""
    return s * (s + 1) // 2


class TruncatedBasis:
    """Graded basis of states with n1 + n2 <= Nmax, level-major ordering.

    State i is |n1[i], n2[i]> on shell[i] = n1[i] + n2[i]; ``index_of``
    is the inverse map.
    """

    def __init__(self, nmax):
        if nmax < 0:
            raise ValueError("Nmax must be nonnegative")
        self.nmax = int(nmax)
        self.shell = np.repeat(np.arange(self.nmax + 1), np.arange(1, self.nmax + 2))
        self.n1 = np.arange(self.dim) - _shell_start(self.shell)
        self.n2 = self.shell - self.n1

    @property
    def dim(self):
        return _shell_start(self.nmax + 1)

    def index_of(self, n1, n2):
        """Index of |n1, n2>; broadcasts over arrays, KeyError outside the truncation."""
        n1, n2 = np.asarray(n1), np.asarray(n2)
        if np.any((n1 < 0) | (n2 < 0) | (n1 + n2 > self.nmax)):
            raise KeyError(f"state outside n1, n2 >= 0, n1 + n2 <= {self.nmax}")
        index = _shell_start(n1 + n2) + n1
        return index if index.ndim else int(index)

    def __repr__(self):
        return f"TruncatedBasis(nmax={self.nmax}, dim={self.dim})"

    def shell_slice(self, s):
        """Contiguous index range of shell s."""
        return slice(_shell_start(s), _shell_start(s + 1))


class ParamsError(ValueError):
    """An invalid ``ModelParams`` field; ``field`` names it (``"r"`` for any component of r)."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


@dataclass
class ModelParams:
    """Physical parameters shared by every model.

    ell_B, eps_B set the magnetic length and energy scales; xi >= 0 is the
    resolvent shift of the harmonic regulator; c_b is the non-Abelian
    coupling; r = (r0, r1, r2) are the quaternionic couplings, normalized
    to r0^2 + r1^2 + r2^2 = 1. An invalid field raises ``ParamsError``.
    """

    ell_B: float = 1.0
    eps_B: float = 1.0
    xi: float = 0.0
    c_b: float = 0.0
    r: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        for field in ("ell_B", "eps_B", "xi", "c_b", "r"):
            if not np.all(np.isfinite(getattr(self, field))):
                raise ParamsError(field, f"{field} must be finite")
        for field in ("ell_B", "eps_B"):
            if getattr(self, field) <= 0:
                raise ParamsError(field, f"{field} must be positive")
        # the derived scales the models and kernels use must neither overflow nor vanish
        ell2, cb2 = self.ell_B * self.ell_B, self.c_b * self.c_b
        if not (0 < ell2 and math.isfinite(ell2) and math.isfinite(1.0 / ell2)):
            raise ParamsError("ell_B", f"ell_B^2 or 1/ell_B^2 overflows or vanishes: ell_B = {self.ell_B}")
        if not math.isfinite(cb2) or (self.c_b > 0 and cb2 == 0):
            raise ParamsError("c_b", f"c_b^2 overflows or vanishes: c_b = {self.c_b}")
        if self.xi < 0:
            raise ParamsError("xi", "xi must be nonnegative")
        if self.c_b < 0:
            raise ParamsError("c_b", "c_b must be nonnegative")
        if len(self.r) != 3:
            raise ParamsError("r", "r must have three components")
        norm = sum(v * v for v in self.r)
        if abs(norm - 1.0) > 1e-12:
            raise ParamsError("r", f"r must be normalized: |r|^2 = {norm}")


class OperatorMatrix:
    """Dense complex matrix over a truncated basis, optionally spin-doubled.

    The spin index is fastest-varying: row spin_dim*i + s is basis state i
    with spin component s.
    """

    def __init__(self, basis, entries, spin_dim=1):
        entries = np.asarray(entries, dtype=complex)
        expected = basis.dim * spin_dim
        if entries.shape != (expected, expected):
            raise ValueError(f"entries must be {expected}x{expected}, got {entries.shape}")
        self.basis = basis
        self.spin_dim = int(spin_dim)
        self.entries = entries

    @property
    def dim(self):
        return self.entries.shape[0]

    def is_hermitian(self, tol=HERMITIAN_TOL):
        return float(np.abs(self.entries - self.entries.conj().T).max()) <= tol

    def dagger(self):
        return OperatorMatrix(self.basis, self.entries.conj().T, self.spin_dim)

    def __matmul__(self, other):
        self._check_compatible(other)
        return OperatorMatrix(self.basis, self.entries @ other.entries, self.spin_dim)

    def __add__(self, other):
        self._check_compatible(other)
        return OperatorMatrix(self.basis, self.entries + other.entries, self.spin_dim)

    def __sub__(self, other):
        self._check_compatible(other)
        return OperatorMatrix(self.basis, self.entries - other.entries, self.spin_dim)

    def __mul__(self, scalar):
        return OperatorMatrix(self.basis, self.entries * scalar, self.spin_dim)

    __rmul__ = __mul__

    def __neg__(self):
        return OperatorMatrix(self.basis, -self.entries, self.spin_dim)

    def commutator(self, other):
        self._check_compatible(other)
        a, b = self.entries, other.entries
        return OperatorMatrix(self.basis, a @ b - b @ a, self.spin_dim)

    def trace(self):
        return complex(np.trace(self.entries))

    def max_abs(self):
        return float(np.abs(self.entries).max())

    def _check_compatible(self, other):
        if self.basis is not other.basis and self.basis.nmax != other.basis.nmax:
            raise ValueError("operators live on different bases")
        if self.spin_dim != other.spin_dim:
            raise ValueError("spin dimensions differ")

    def __repr__(self):
        return f"OperatorMatrix(nmax={self.basis.nmax}, spin_dim={self.spin_dim})"


@dataclass
class AntiUnitaryRep:
    """Anti-unitary operator U * (complex conjugation of coefficients)."""

    unitary_part: OperatorMatrix

    def __post_init__(self):
        u = self.unitary_part.entries
        dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
        if dev > UNITARY_TOL:
            raise ValueError(f"unitary part fails unitarity by {dev:.2e}")

    def apply(self, vec):
        return self.unitary_part.entries @ np.asarray(vec, dtype=complex).conj()

    def conjugate_operator(self, op):
        """Return (anti-unitary) A op A^{-1} as a matrix."""
        u = self.unitary_part.entries
        return OperatorMatrix(op.basis, u @ op.entries.conj() @ u.conj().T, op.spin_dim)

    def square_sign(self):
        """Sign of A^2, which is +-1 for the symmetries built here."""
        u = self.unitary_part.entries
        sq = u @ u.conj()
        d = sq.shape[0]
        if np.abs(sq - np.eye(d)).max() < 1e-10:
            return +1
        if np.abs(sq + np.eye(d)).max() < 1e-10:
            return -1
        raise ValueError("square is not +-identity")


def build_basis(nmax):
    """Truncated basis with graded cutoff n1 + n2 <= nmax."""
    return TruncatedBasis(nmax)


def ladder(basis, which):
    """Matrix of a creation/annihilation operator: 'a+', 'a-', 'b+' or 'b-'.

    Raising matrix elements whose target leaves the truncation are
    dropped, so 'a+' is exactly the adjoint of 'a-' on the retained space.
    """
    if which not in ("a-", "a+", "b-", "b+"):
        raise ValueError(f"unknown ladder operator {which!r}")
    mode_a = which[0] == "a"
    n = basis.n1 if mode_a else basis.n2
    src = np.flatnonzero(n)  # states with n = 0 are annihilated
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[basis.index_of(basis.n1[src] - mode_a, basis.n2[src] - (not mode_a)), src] = np.sqrt(n[src])
    lower = OperatorMatrix(basis, mat)
    return lower if which[1] == "-" else lower.dagger()


_DERIVED = ("K1", "K2", "G1", "G2", "X1", "X2", "L3", "H_B", "Q_B")


def derived_operator(basis, name, params=None):
    """Composite operators assembled from the ladder matrices.

    H_B, Q_B and L3 are built directly as exact diagonals; the momenta and
    positions come from the ladder combinations quoted in the module
    docstring.
    """
    if params is None:
        params = ModelParams()
    if name not in _DERIVED:
        raise ValueError(f"unknown derived operator {name!r}")
    if name == "H_B":
        diag = params.eps_B * (basis.n1 + 0.5)
        return OperatorMatrix(basis, np.diag(diag.astype(complex)))
    if name == "Q_B":
        diag = (basis.shell + 2).astype(complex)
        return OperatorMatrix(basis, np.diag(diag))
    if name == "L3":
        diag = (basis.n1 - basis.n2).astype(complex)
        return OperatorMatrix(basis, np.diag(diag))
    # K uses the first mode, G the second, the positions both
    modes = {"K": "a", "G": "b"}.get(name[0], "ab")
    ap, am, bp, bm = (
        ladder(basis, w).entries if w[0] in modes else None for w in ("a+", "a-", "b+", "b-")
    )
    if name == "K1":
        m = (ap + am) / np.sqrt(2)
    elif name == "K2":
        m = (ap - am) / (1j * np.sqrt(2))
    elif name == "G1":
        m = -(bp + bm) / np.sqrt(2)
    elif name == "G2":
        m = -(bp - bm) / (1j * np.sqrt(2))
    elif name == "X1":
        m = params.ell_B * ((ap - am) / (1j * np.sqrt(2)) + (bp + bm) / np.sqrt(2))
    else:  # X2
        m = params.ell_B * (-(bp - bm) / (1j * np.sqrt(2)) - (ap + am) / np.sqrt(2))
    return OperatorMatrix(basis, m)


def landau_projection(basis, j):
    """Diagonal 0/1 projection onto all retained states with n1 == j."""
    if j < 0 or j > basis.nmax:
        raise ValueError(f"level {j} outside truncation Nmax={basis.nmax}")
    diag = (basis.n1 == j).astype(complex)
    return OperatorMatrix(basis, np.diag(diag))


def flip_and_conjugation(basis):
    """The flip F, complex conjugation C and their composite Theta = F C.

    On the number basis

        F |n1,n2> = (-1)^(n1+n2) |n2,n1>
        C |n1,n2> = (-i)^(n1+n2) |n2,n1>   (plus coefficient conjugation)

    so Theta = F C carries the diagonal unitary i^(n1+n2). The phase of C
    is forced by conjugating the explicit kinetic/dual momenta: it is the
    unique diagonal-phase swap under which C a+ C = -i b+, C b+ C = -i a+,
    and hence Theta K1 Theta = -K2, Theta K2 Theta = -K1 with Theta^2 = 1.
    A plain unphased swap would instead give the identity for Theta's
    unitary part and break those contracts.
    """
    d = basis.dim
    swap, src = basis.index_of(basis.n2, basis.n1), np.arange(d)
    fmat = np.zeros((d, d), dtype=complex)
    cmat = np.zeros((d, d), dtype=complex)
    fmat[swap, src] = (-1.0) ** basis.shell
    # one Python complex power per shell: numpy's power signs some zeros differently
    cmat[swap, src] = np.array([(-1j) ** s for s in range(basis.nmax + 1)])[basis.shell]
    F = OperatorMatrix(basis, fmat)
    C = AntiUnitaryRep(OperatorMatrix(basis, cmat))
    theta_u = OperatorMatrix(basis, fmat @ cmat)
    Theta = AntiUnitaryRep(theta_u)
    return F, C, Theta


def tensor_with_spin(op, spin_matrix):
    """Kronecker product with a 2x2 spin matrix (spin index fastest)."""
    if op.spin_dim != 1:
        raise ValueError("operator already carries a spin factor")
    spin_matrix = np.asarray(spin_matrix, dtype=complex)
    if spin_matrix.shape != (2, 2):
        raise ValueError("spin matrix must be 2x2")
    return OperatorMatrix(op.basis, np.kron(op.entries, spin_matrix), spin_dim=2)


def interior_block(basis, op, margin):
    """Restriction of op to states with n1 + n2 <= Nmax - margin.

    The level-major ordering makes the restricted states a contiguous
    prefix, so this is a leading principal submatrix. Identity checks
    involving ladder products of total order <= margin are exact there.
    """
    if margin < 0 or margin > basis.nmax:
        raise ValueError("margin must lie in [0, Nmax]")
    if margin == 0:
        return op
    sub = TruncatedBasis(basis.nmax - margin)
    keep = sub.dim * op.spin_dim
    return OperatorMatrix(sub, op.entries[:keep, :keep].copy(), op.spin_dim)
