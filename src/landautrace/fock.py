"""Truncated two-mode oscillator space and explicit operator matrices.

The basis is the family of joint number states |n1, n2> of two commuting
boson modes, truncated by the graded cutoff n1 + n2 <= Nmax and ordered
level-major: ascending shell s = n1 + n2, then ascending n1. Shells align
with the eigenspaces of the harmonic regulator Q = a+a- + b+b- + 2, which
is what the singular-trace engine sums over.

Mode conventions (hbar = 1):

    a-|n1,n2> = sqrt(n1) |n1-1,n2>      b-|n1,n2> = sqrt(n2) |n1,n2-1>
    K1 = (a+ + a-)/sqrt2                G1 = -(b+ + b-)/sqrt2
    K2 = (a+ - a-)/(i sqrt2)            G2 = -(b+ - b-)/(i sqrt2)
    X1 = ell_B (K2 - G1)                X2 = ell_B (G2 - K1)
    H  = eps_B (a+a- + 1/2)             Q  = a+a- + b+b- + 2
    L3 = a+a- - b+b-

Matrices are stored dense, and products cost O(dim^3) (dim ~ 2e3 at
Nmax 60). The ``spectrum`` and ``invariants`` commands and ``verify
--check curvature`` build none of them: they run sector by sector in
:mod:`landautrace.sectors`. Dense matrices serve the other ``verify``
checks and the test oracles.
"""

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "FockIndex",
    "TruncatedBasis",
    "OperatorMatrix",
    "AntiUnitaryRep",
    "ModelParams",
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


@dataclass(frozen=True)
class FockIndex:
    """Two-mode occupation (n1, n2)."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError(f"occupations must be nonnegative: {(self.n1, self.n2)}")

    @property
    def shell(self):
        return self.n1 + self.n2


class TruncatedBasis:
    """Graded basis of states with n1 + n2 <= Nmax, level-major ordering."""

    def __init__(self, nmax):
        if nmax < 0:
            raise ValueError("Nmax must be nonnegative")
        self.nmax = int(nmax)
        states = []
        for s in range(self.nmax + 1):
            for n1 in range(s + 1):
                states.append(FockIndex(n1, s - n1))
        self.states = tuple(states)
        self._index = {(st.n1, st.n2): i for i, st in enumerate(states)}
        # vectorized copies of the occupation numbers
        self.n1 = np.array([st.n1 for st in states], dtype=np.int64)
        self.n2 = np.array([st.n2 for st in states], dtype=np.int64)
        self.shell = self.n1 + self.n2

    @property
    def dim(self):
        return len(self.states)

    def index_of(self, n1, n2):
        return self._index[(n1, n2)]

    def __contains__(self, key):
        return tuple(key) in self._index

    def __repr__(self):
        return f"TruncatedBasis(nmax={self.nmax}, dim={self.dim})"

    def shell_slice(self, s):
        """Contiguous index range of shell s."""
        start = s * (s + 1) // 2
        return slice(start, start + s + 1)


@dataclass
class ModelParams:
    """Physical parameters shared by every model.

    ell_B, eps_B set the magnetic length and energy scales; xi >= 0 is the
    resolvent shift of the harmonic regulator; c_b is the non-Abelian
    coupling; r = (r0, r1, r2) are the quaternionic couplings, normalized
    to r0^2 + r1^2 + r2^2 = 1.
    """

    ell_B: float = 1.0
    eps_B: float = 1.0
    xi: float = 0.0
    c_b: float = 0.0
    r: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.ell_B, self.eps_B, self.xi, self.c_b, *self.r)):
            raise ValueError("parameters must be finite")
        if self.ell_B <= 0 or self.eps_B <= 0:
            raise ValueError("ell_B and eps_B must be positive")
        # the derived scales the models and kernels use must neither overflow nor vanish
        ell2, cb2 = self.ell_B * self.ell_B, self.c_b * self.c_b
        if not (0 < ell2 and math.isfinite(ell2) and math.isfinite(1.0 / ell2)):
            raise ValueError(f"ell_B^2 or 1/ell_B^2 overflows or vanishes: ell_B = {self.ell_B}")
        if not math.isfinite(cb2) or (self.c_b > 0 and cb2 == 0):
            raise ValueError(f"c_b^2 overflows or vanishes: c_b = {self.c_b}")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.c_b < 0:
            raise ValueError("c_b must be nonnegative")
        if len(self.r) != 3:
            raise ValueError("r must have three components")
        norm = sum(v * v for v in self.r)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"r must be normalized: |r|^2 = {norm}")


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
    conjugates: bool = True

    def __post_init__(self):
        u = self.unitary_part.entries
        dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
        if dev > UNITARY_TOL:
            raise ValueError(f"unitary part fails unitarity by {dev:.2e}")

    def apply(self, vec):
        vec = np.asarray(vec, dtype=complex)
        if self.conjugates:
            vec = vec.conj()
        return self.unitary_part.entries @ vec

    def conjugate_operator(self, op):
        """Return (anti-unitary) A op A^{-1} as a matrix."""
        u = self.unitary_part.entries
        m = op.entries.conj() if self.conjugates else op.entries
        return OperatorMatrix(op.basis, u @ m @ u.conj().T, op.spin_dim)

    def square_sign(self):
        """Sign of A^2, which is +-1 for the symmetries built here."""
        u = self.unitary_part.entries
        sq = u @ u.conj() if self.conjugates else u @ u
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
    d = basis.dim
    mat = np.zeros((d, d), dtype=complex)
    lowering = which in ("a-", "b-")
    mode_a = which in ("a-", "a+")
    if which not in ("a-", "a+", "b-", "b+"):
        raise ValueError(f"unknown ladder operator {which!r}")
    for i, st in enumerate(basis.states):
        n = st.n1 if mode_a else st.n2
        if n == 0:
            continue
        tgt = (st.n1 - 1, st.n2) if mode_a else (st.n1, st.n2 - 1)
        mat[basis.index_of(*tgt), i] = np.sqrt(n)
    lower = OperatorMatrix(basis, mat)
    if lowering:
        return lower
    return lower.dagger()


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
    fmat = np.zeros((d, d), dtype=complex)
    cmat = np.zeros((d, d), dtype=complex)
    for i, st in enumerate(basis.states):
        jswap = basis.index_of(st.n2, st.n1)
        s = st.shell
        fmat[jswap, i] = (-1.0) ** s
        cmat[jswap, i] = (-1j) ** s
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
