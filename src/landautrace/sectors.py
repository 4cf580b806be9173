"""Second-mode sector decomposition for large-truncation estimates.

Every operator the topological estimates need (level projections, the
model Hamiltonians, and position commutators against them) conserves the
second mode number n2: the spin-orbit and quaternionic couplings are
built from the first-mode ladders alone, and the second-mode parts of the
position operators drop out of every commutator with such operators. In
the sector n2 = b the first mode is a plain truncated oscillator of size
s_b = Nmax + 1 - b, so an Nmax ~ 120 estimate decomposes into ~120 small
dense problems instead of one dim ~ 7e3 dense one.

Shell bookkeeping: the state (n1, b) sits in shell l = n1 + b of the
harmonic regulator, so sector results accumulate into shells at offset b.

Projections leave this module in one format, a list of sector stacks
(sectors, n0, V) with P = (+)_b V V^dagger over the b of ``sectors``, a
range. Every projection here factorizes as P_1 x 1 over the second mode,
so one column block is the projection in each sector that holds it clear
of that sector's top: V has shape (L spin, r) and holds the levels
n1 = n0..n0 + L - 1 (spin fastest) with orthonormal columns, the same in
every sector of the stack. Rows past a sector's top level Nmax - b fall
on shells past Nmax and are dropped, and a+ is masked past the top of
the stack's last sector, which is exact in the sectors below it because
V vanishes from that level on. A level projection is two stacks on a
window one level wider than its support on each side: the sectors
b < Nmax - j, then b = Nmax - j, whose top is level j itself
(:func:`landau_stacks`, :func:`jc_stacks`). The quaternionic Fermi
projection is one stack per solve of the eigensolver, its columns up to
one level past their last nonzero one
(:func:`quaternionic_sector_eigensystem`): the run of sectors from b = 0
that one solve serves, and one sector for every other solve. Two loops
over stacks consume them for all three models, :func:`shell_sums` and
:func:`symmetry_residual`, which compute each stack's rows once and
spread only the shell weights over its sectors; no other module reads
the rows.

Each spin-1/2 model is one :class:`SpinHalfModel` record (:data:`JC`,
:data:`QUATERNIONIC`): its gauge matrices (gamma_1, gamma_2) and its spin
twist, which decides the symmetry label (:func:`symmetry_label`; Theta's
twist is :data:`THETA_TWIST`). Theta = F C maps K_1 to -K_2 and K_2 to
-K_1, so (F x twist) C commutes with H = eps_B (K_1^2 + K_2^2)/2,
K_i x 1 - c_b 1 x gamma_i, and its sector blocks when the twist maps
conj(gamma_1) to -gamma_2 and conj(gamma_2) to -gamma_1, whatever Nmax,
eps_B and c_b (:meth:`SpinHalfModel.twist_residual`). With
M = -(gamma_1 - i gamma_2)/sqrt2, H is

    eps_B (n x 1 + c_b (a+ x M + a x M^dagger) + 1 x (c_b^2 G + 1/2)),
    G = M^dagger M + (i/2)[gamma_1, gamma_2] = (gamma_1^2 + gamma_2^2)/2,

which :meth:`SpinHalfModel.hamiltonian` builds for the dense test oracles
of :mod:`landautrace.models`.

Spectra: one solver (:func:`_sector_eigensystem`) diagonalizes the sector
blocks of the spin-1/2 Hamiltonians and flags the interior eigenvalues;
the ``spectrum`` command and the quaternionic Fermi projections use it. It
takes the bands of a real tridiagonal b = 0 block, whose leading principal
submatrices are the other sector blocks, and solves the sectors in turn
by LAPACK dstevd from numpy's own library, or by ``eigh`` of the band
matrix without it, bit for bit as ``eigh`` of each sector block. At a
Fermi energy only the pairs the projection and its gap test read are
solved: one Sturm pass over the b = 0 bands counts each sector's
eigenvalues below the energy, and dstevr solves the pairs up to the first
interior one above it. Every sector whose block has converged holds the
same pairs (the n2 factorization), so the b = 0 window, once solved,
serves each sector that holds it to rounding with its columns cut to the
sector's size (:func:`_shared_run`); only the small sectors near the top
are solved on their own, about 25 of 141 at Nmax 140. Landau's block is
diagonal, so its eigenvalues and flags need no solver
(:func:`landau_sector_eigensystem`). The spin-1/2 blocks become
real tridiagonal under a unitary within each level, which moves no
probability between levels, so the interior flags come from the real
eigenvectors directly. For JC, M = [[0, 0], [i sqrt2, 0]] and G = 1
couple (n, up) only to (n + 1, down), by i eps_B c_b sqrt(2 (n + 1)), over
the diagonal eps_B (n + 1/2 + c_b^2) of both spins; with each level
ordered (n down, n up) and the down states multiplied by i, a sector of s
levels is the direct sum of the real pairs (j - 1, up), (j, down), with
the levels E_j^+- of :func:`models.jc_spectrum`, and the ends (0, down)
at E_0 and (s - 1, up) at eps_B (s - 1/2 + c_b^2).

The quaternionic blocks are solved in a rotated basis, an independent
route to the same spectrum. The record's gauge matrix
M = e^{i pi/4} r0 1 + e^{-i pi/4} S, with S = r1 sigma1 + r2 sigma3
Hermitian, is normal: the fixed 2 x 2 spin rotation W that diagonalizes S
gives W^dagger M W = diag(mu+, mu-), mu = e^{i pi/4} r0 + e^{-i pi/4}
lambda(S). Conjugated by 1 x W, the sector block eps_B (A+ A- + 1/2)
splits into two displaced oscillators
eps_B ((a + c_b mu_k)^dagger (a + c_b mu_k) + 1/2). The phase gauge
u_n -> e^{i n arg mu_k} u_n makes each one real tridiagonal, with
diagonal eps_B (n + 1/2 + c_b^2 |mu_k|^2) and off-diagonal
eps_B c_b |mu_k| sqrt(n). Since lambda(S) = +-sqrt(r1^2 + r2^2), both
channels have |mu_k| = |r|: they share one tridiagonal matrix, so every
sector eigenvalue is doubled (the Kramers pairs of the odd symmetry) and
the interior ones are eps_B (n + 1/2), as for Landau x C^2. Only the
columns of a Fermi projection are mapped back to the spin-fastest basis.
The gauge covariance of the trace per unit volume behind this
equivalence is that of Bellissard, van Elst and Schulz-Baldes,
J. Math. Phys. 35 (1994) 5373.

Curvature in factored form (:func:`_curvature`): every projection here
is P = V V^dagger with orthonormal columns V of low rank r per sector (one
for a level, two per Landau level below the Fermi energy for the
quaternionic model), so R = i P [d1 P, d2 P] = V K V^dagger with an
r x r core K from row shifts of V, once for all the sectors of a stack.
The truncated ladders carry the edge row of a- a+ - a+ a- (-(s-1), not 1)
exactly, and diag(R) costs O(L r^2) per stack instead of the O(s^3) of
dense products per sector.

The Landau curvature identities are checked per sector too
(:func:`landau_identity_residuals`): all their nonzero entries sit on the
levels j-1..j+1, the same 3 x 3 window in every sector that reaches them,
so the largest sector alone gives the largest residual.
"""

import ctypes
from dataclasses import dataclass
import functools
import os
from typing import Callable

import numpy as np

__all__ = [
    "LEVEL_MARGIN",
    "SpinHalfModel",
    "JC",
    "QUATERNIONIC",
    "THETA_TWIST",
    "symmetry_label",
    "lowering_block",
    "landau_identity_residuals",
    "landau_stacks",
    "jc_stacks",
    "shell_sums",
    "symmetry_residual",
    "landau_shell_sums",
    "jc_shell_sums",
    "landau_sector_eigensystem",
    "jc_sector_eigensystem",
    "quaternionic_sector_eigensystem",
    "quaternionic_shell_sums",
]

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
EDGE_SHELLS = 2  # eigenvector mass on the outer this-many shells decides interior status
INTERIOR_MASS = 1e-8
#: levels need j <= Nmax - LEVEL_MARGIN (pairs: j + 1): the curvature checks
#: and closed forms hold on the interior, LEVEL_MARGIN shells from the edge
LEVEL_MARGIN = 3


@dataclass(frozen=True, eq=False)
class SpinHalfModel:
    """A spin-1/2 model: ``gammas(params)`` = (gamma_1, gamma_2) and its spin twist."""

    gammas: Callable
    twist: np.ndarray

    def lowering(self, params):
        """M = -(gamma_1 - i gamma_2)/sqrt2, the spin part of A- = a x 1 + c_b 1 x M."""
        gamma1, gamma2 = self.gammas(params)
        return -(gamma1 - 1j * gamma2) / np.sqrt(2)

    def hamiltonian(self, lowering, occupations, params):
        """H for lowering matrix a, diag(a+ a) = occupations: krons and 2 x 2 products only."""
        gamma1, gamma2 = self.gammas(params)
        hop = params.c_b * np.kron(lowering.conj().T, self.lowering(params))
        onsite = params.c_b ** 2 * (gamma1 @ gamma1 + gamma2 @ gamma2) / 2 + 0.5 * np.eye(2)
        h = hop + hop.conj().T + np.kron(np.eye(len(occupations)), onsite)
        h[np.diag_indices_from(h)] += np.repeat(occupations, 2)
        return params.eps_B * h

    def twist_residual(self, params):
        """max |twist conj(gamma_i) twist^dagger + gamma_j|, (i, j) = (1, 2), (2, 1); 0 for a symmetry."""
        gamma1, gamma2 = self.gammas(params)
        return float(max(np.abs(self.twist @ g.conj() @ self.twist.conj().T + other).max()
                         for g, other in ((gamma1, gamma2), (gamma2, gamma1))))

    def symmetry_unitary(self, shell):
        """diag(i^shell) x twist, the unitary part of the symmetry (F x twist) C."""
        return np.kron(np.diag(_i_power(shell)), self.twist)


def _commuting_gammas(params):
    """gamma_1 = -(r0 + S), gamma_2 = r0 - S with S = r1 sigma1 + r2 sigma3."""
    S = params.r[1] * SIGMA1 + params.r[2] * SIGMA3
    return -(params.r[0] * np.eye(2) + S), params.r[0] * np.eye(2) - S


JC = SpinHalfModel(lambda params: (-SIGMA2, SIGMA1), np.diag([1, 1j]))
QUATERNIONIC = SpinHalfModel(_commuting_gammas, SIGMA2)
THETA_TWIST = np.ones((1, 1))  # Theta = F C of the Landau model


def symmetry_label(twist):
    """"Real(+1)" or "Quaternionic(-1)": (F x twist) C squares to twist conj(twist) = +-1."""
    square = twist @ twist.conj()
    for sign, label in ((1, "Real(+1)"), (-1, "Quaternionic(-1)")):
        if np.allclose(square, sign * np.eye(len(twist)), rtol=0, atol=1e-12):
            return label
    raise ValueError(f"twist conj(twist) is not +-1: {square.tolist()}")


def _i_power(exponent):
    """i^exponent, cycling exactly through 1, i, -1, -i: complex pow rounds at large exponents."""
    return np.array([1, 1j, -1, -1j])[np.asarray(exponent) % 4]


def lowering_block(size):
    """First-mode lowering operator on a sector of spatial size ``size``."""
    m = np.zeros((size, size), dtype=complex)
    n = np.arange(1, size)
    m[n - 1, n] = np.sqrt(n)
    return m


def _curvature(nmax, stack, spin):
    """r x r core K of the curvature density R = i P [d1 P, d2 P] = V K V^dagger in a stack's sectors.

    ``stack`` is one sector stack (sectors, n0, V) (module docstring): V
    holds orthonormal columns (spin fastest) with P = V V^dagger; ell_B = 1,
    the magnetic length cancels against the 1/ell^2 of the Chern formula.
    The ladder-side derivations are d1 = -(1/sqrt2)([a+,P] - [a-,P]) and
    d2 = (i/sqrt2)([a+,P] + [a-,P]), so [d1 P, d2 P] = -i [[a+,P],[a-,P]]
    and R = P [[a+,P],[a-,P]]. Expanding with P^2 = P, the four terms
    that do not end in P cancel in pairs:

        R = P a+ P a- P - P a+ a- P - P a- P a+ P + P a- a+ P,

    and P = V V^dagger with (V^dagger a+ V)^dagger = V^dagger a- V gives
    K = V^dagger (a- a+ - a+ a-) V + [V^dagger a+ V, V^dagger a- V].
    The ladders act on the window: a+ into a level past the top of the
    stack's last sector is masked, and the levels just outside the window
    are left out, which is exact when V vanishes on the window's outer
    levels or the window reaches level 0 and the sector's top.
    """
    bs, n0, V = stack
    level = np.arange(n0 + 1, n0 + len(V) // spin)
    root = np.repeat(np.where(level + bs[-1] <= nmax, np.sqrt(level), 0.0), spin)[:, None]
    up = np.zeros_like(V)  # a+ V
    up[spin:] = root * V[:-spin]
    down = np.zeros_like(V)  # a- V
    down[:-spin] = root * V[spin:]
    raise_core = V.conj().T @ up  # V^dagger a+ V; its adjoint is V^dagger a- V
    return (
        up.conj().T @ up - down.conj().T @ down
        + raise_core @ raise_core.conj().T - raise_core.conj().T @ raise_core
    )


def _level_stacks(nmax, j, n0, V):
    """The stacks of the column block V of a level j: the sectors b < Nmax - j, then b = Nmax - j.

    The top of sector Nmax - j is level j, so a+ out of it is masked there
    alone. No sector holds a level past Nmax.
    """
    runs = (range(nmax - j), range(nmax - j, nmax + 1 - j)) if j <= nmax else ()
    return [(bs, n0, V) for bs in runs if bs]


def landau_stacks(nmax, j):
    """Sector stacks of the level-j projection, the unit vector at n1 = j in each sector b = 0..Nmax - j.

    Its window is the levels max(j - 1, 0)..j + 1.
    """
    n0 = max(j - 1, 0)
    V = np.zeros((j + 2 - n0, 1), dtype=complex)
    V[j - n0] = 1.0
    return _level_stacks(nmax, j, n0, V)


def shell_sums(nmax, stacks, spin, xi):
    """Shell sums of (Q^-1 P, i/ell^2 Q^-1 R) for the sector stacks (sectors, n0, V) of P.

    The rank and curvature diagonals of a stack are computed once; each
    sector weights them by 1/(l + 2 + 2 xi), l = n1 + b, before the spin
    components of its shell are summed. Shells take their sectors in
    ascending b, and rows past a sector's top fall on shells past Nmax and
    are dropped.
    """
    rank = np.zeros(nmax + 1)
    chern = np.zeros(nmax + 1)
    for stack in stacks:
        bs, n0, V = stack
        if not V.shape[1]:
            continue
        shells = np.arange(n0, n0 + len(V) // spin) + np.arange(bs.start, bs.stop)[:, None]  # (B, L)
        weights = 1.0 / (np.repeat(shells, spin, axis=1) + 2.0 + 2.0 * xi)
        K = _curvature(nmax, stack, spin)
        for sums, diag in ((rank, np.einsum("kp,kp->k", V, V.conj())),
                           (chern, np.einsum("kp,pq,kq->k", V, K, V.conj()))):
            per_shell = (diag.real * weights).reshape(shells.shape + (spin,)).sum(axis=2)
            sums += np.bincount(shells.ravel(), per_shell.ravel(), minlength=nmax + 1)[:nmax + 1]
    return rank, chern


def symmetry_residual(stacks, twist):
    """max |U conj(P) U^dagger - P| for the sector stacks (sectors, n0, V) of P, U = diag(i^(n1 + b)) x twist.

    Per sector U conj(P) U^dagger = (U conj(V)) (U conj(V))^dagger. The
    sectors of a stack differ in U conj(V) by the unit factor i^b alone,
    which cancels, so its rows are computed once, in its first sector; the
    entries of U are exact. Both sides vanish off the rows where V or
    U conj(V) is nonzero.
    """
    spin = len(twist)
    worst = 0.0
    for bs, n0, V in stacks:
        phase = _i_power(np.arange(n0, n0 + len(V) // spin) + bs.start)
        UV = np.einsum("n,ab,nbr->nar", phase, twist,
                       V.conj().reshape(len(phase), spin, V.shape[1])).reshape(V.shape)
        rows = (V != 0).any(axis=1) | (UV != 0).any(axis=1)
        UV, V = UV[rows], V[rows]
        worst = max(worst, float(np.abs(UV @ UV.conj().T - V @ V.conj().T).max(initial=0.0)))
    return worst


def landau_shell_sums(nmax, j, xi):
    """Shell sums of (Q^-1 P_j, i/ell^2 Q^-1 R_j) for the scalar model."""
    return shell_sums(nmax, landau_stacks(nmax, j), 1, xi)


def _landau_curvature_window(j, ell_B):
    """[d1 P_j, d2 P_j] on the levels j-1..j+1 of a sector that holds them.

    Returns (levels, commutator). P_j is diagonal in n1 and the b-ladders
    keep n1, so the second-mode parts of X1 and X2 commute with P_j to
    exactly zero and d_i P_j = -i [x_i, P_j] with the first-mode parts
    x1 = ell (a+ - a-)/(i sqrt2), x2 = -ell (a+ + a-)/sqrt2. Every nonzero
    entry of d_i P_j has one index equal to j and the other j +- 1, so
    the window of levels max(j-1, 0)..j+1 holds all of them, and the
    products over the window are those of the whole sector.
    """
    level = np.arange(max(j - 1, 0), j + 2)
    am = np.diag(np.sqrt(level[1:].astype(complex)), 1)  # a- restricted to the window
    ap = am.conj().T
    P = np.diag((level == j).astype(complex))
    x1 = ell_B * ((ap - am) / (1j * np.sqrt(2)))
    x2 = ell_B * (-(ap + am) / np.sqrt(2))
    d1 = -1j * (x1 @ P - P @ x1)
    d2 = -1j * (x2 @ P - P @ x2)
    return level, d1 @ d2 - d2 @ d1


def landau_identity_residuals(nmax, j, ell_B):
    """Interior residuals of the two Landau curvature identities, per n2 sector.

    (a)  [d1 P_j, d2 P_j] + i ell^2 (P_j + j P_{j-1} - (j+1) P_{j+1})
    (b)  P_j [d1 P_j, d2 P_j] + i ell^2 P_j

    Both sides conserve n2, so each identity splits into the sectors
    n2 = b, where the first mode is the oscillator of size s = nmax + 1 - b
    and the interior n1 + n2 <= nmax - LEVEL_MARGIN is n1 < s - LEVEL_MARGIN.
    Every nonzero entry of either side lies on the levels j-1..j+1
    (:func:`_landau_curvature_window`). A sector whose interior reaches
    level j-1 has s > j - 1 + LEVEL_MARGIN levels, so it holds the whole
    window, with the same entries as every other such sector (they depend
    on the level alone), and its interior is a prefix of the interior of
    the largest sector, b = 0. That sector therefore carries the largest
    residual of all: one window of at most 3 x 3, whatever nmax.
    Returns (res_a, res_b), the largest entry magnitudes.
    """
    if j > nmax - LEVEL_MARGIN:
        raise ValueError(f"need j <= Nmax - {LEVEL_MARGIN}")
    level, comm = _landau_curvature_window(j, ell_B)
    interior = level <= nmax - LEVEL_MARGIN  # rows and columns of the b = 0 sector
    inner = np.ix_(interior, interior)
    ell2 = ell_B ** 2
    P = np.diag((level == j).astype(complex))
    rhs = np.diag(1.0 * (level == j) + j * (level == j - 1) - (j + 1.0) * (level == j + 1))
    res_a = np.abs(comm + (1j * ell2) * rhs)[inner].max()
    res_b = np.abs(P @ comm + (1j * ell2) * P)[inner].max()
    return float(res_a), float(res_b)


def jc_stacks(nmax, j, theta):
    """Sector stacks of the spin-orbit pair projection P_j^theta, j >= 1.

    Its column in every sector b = 0..Nmax - j is sin(theta) on (j - 1, up)
    and i cos(theta) on (j, down), on the window of levels max(j - 2, 0)..j + 1.
    """
    n0 = max(j - 2, 0)
    V = np.zeros((2 * (j + 2 - n0), 1), dtype=complex)
    V[2 * (j - 1 - n0)] = np.sin(theta)
    V[2 * (j - n0) + 1] = 1j * np.cos(theta)
    return _level_stacks(nmax, j, n0, V)


def jc_shell_sums(nmax, j, theta, xi):
    """Shell sums of rank and Chern densities for a spin-orbit pair level.

    Also returns the worst interior deviation of the spin-traced curvature
    from -i (sin^2 P_{j-1} + cos^2 P_j), margin 3 shells, read off the
    levels j-1, j of the b = 0 sector: both sides vanish elsewhere, every
    sector with s >= j + 2 has the same window, the edge sector's interior
    misses it, and b = 0 has the largest interior.
    """
    if j < 1:
        raise ValueError("pair levels start at j = 1")
    stacks = jc_stacks(nmax, j, theta)
    rank, chern = shell_sums(nmax, stacks, 2, xi)
    if not stacks:
        return rank, chern, 0.0
    level = np.array([j - 1, j])
    _, n0, V = stacks[0]  # its sectors start at b = 0
    rows = (V @ _curvature(nmax, stacks[0], 2)).reshape(-1, 2, 1)[level - n0]
    Rspin = np.einsum("iar,jar->ij", rows, V.conj().reshape(-1, 2, 1)[level - n0]) / 1j
    target = np.diag([-1j * np.sin(theta) ** 2, -1j * np.cos(theta) ** 2])
    inner = level <= nmax - LEVEL_MARGIN
    closed_resid = np.abs(Rspin - target)[np.ix_(inner, inner)].max(initial=0.0)
    return rank, chern, float(closed_resid)


_LAPACKE_ARGTYPES = {
    # (layout, jobz, n, d, e, z, ldz)
    "dstevd": (ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
               ctypes.c_void_p, ctypes.c_int64),
    # (layout, jobz, range, n, d, e, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz)
    "dstevr": (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p,
               ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
               ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
               ctypes.c_void_p),
}


@functools.cache
def _numpy_openblas():
    """The OpenBLAS with LAPACK that numpy's wheels bundle in ``numpy.libs``, or None without it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else ():
        if name.startswith("libscipy_openblas64_"):
            lib = ctypes.CDLL(os.path.join(libs, name))
            if all(hasattr(lib, f"scipy_LAPACKE_{f}64_") for f in _LAPACKE_ARGTYPES):
                for f, argtypes in _LAPACKE_ARGTYPES.items():
                    getattr(lib, f"scipy_LAPACKE_{f}64_").restype = ctypes.c_int64
                    getattr(lib, f"scipy_LAPACKE_{f}64_").argtypes = argtypes
                return lib
    return None


def _tridiagonal_eigh(lib, d, e, count=None):
    """``np.linalg.eigh`` of the real symmetric tridiagonal matrix with diagonal d and subdiagonal e.

    LAPACK from numpy's own library ``lib``. The whole eigensystem is
    dstevd (divide and conquer): on such a matrix eigh's dsyevd runs the
    same dstedc on the same (d, e), since its Householder reduction meets
    columns that are already reduced and every reflector is the identity.
    The results are bit-identical, at about half the cost (no O(s^3)
    reduction and back-transformation). With a ``count`` under the size,
    only the lowest ``count`` pairs are solved, by dstevr with range 'I'
    (bisection and inverse iteration), at O(s count) instead of O(s^2).
    A dstevr that finds fewer pairs, as on overflowing bands, raises
    LinAlgError as a failed solve does.
    """
    s = len(d)
    w = np.array(d, dtype=np.float64)
    e = np.append(e, 0.0)  # dstevd and dstevr read work arrays of length max(s - 1, 1)
    if count is None or count >= s:
        v = np.empty((s, s), order="F")  # column-major
        info = lib.scipy_LAPACKE_dstevd64_(102, b"V", s, w.ctypes.data, e.ctypes.data, v.ctypes.data, s)
        name = "dstevd"
    else:
        found = np.zeros(1, dtype=np.int64)
        v = np.empty((s, count), order="F")
        support = np.empty(2 * count, dtype=np.int64)
        d = w.copy()  # dstevr overwrites (d, e) and returns the eigenvalues in w
        abstol = 2 * np.finfo(float).tiny  # LAPACK's bisection tolerance for the most accurate eigenvalues
        info = lib.scipy_LAPACKE_dstevr64_(102, b"V", b"I", s, d.ctypes.data, e.ctypes.data, 0.0, 0.0,
                                           1, count, abstol, found.ctypes.data, w.ctypes.data,
                                           v.ctypes.data, s, support.ctypes.data)
        w, v = w[:found[0]], v[:, :found[0]]
        name = "dstevr"
    if info:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge ({name} info {info})")
    if count is not None and len(w) < min(count, s):
        raise np.linalg.LinAlgError(f"{name} found {len(w)} of {count} eigenpairs")
    return w, v


def _sturm_counts(d, e, energy):
    """#{w < energy} of every leading principal submatrix of the tridiagonal (d, e), by size - 1.

    One pass of the LDL^T pivots q_k = d_k - energy - e_{k-1}^2 / q_{k-1}:
    the pivots of a leading submatrix are the leading pivots, and by
    Sylvester's law of inertia the negative ones count its eigenvalues
    below the energy. A pivot too small to divide by is taken as negative,
    as LAPACK's bisection does.
    """
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(np.square(e), initial=0.0)))
    q, negative = 1.0, []
    for dk, ek2 in zip((np.asarray(d) - energy).tolist(), np.square(np.append(0.0, e)).tolist()):
        q = dk - ek2 / q
        if abs(q) < pivmin:
            q = -pivmin
        negative.append(q < 0)
    return np.cumsum(negative)


def _solve_sector(lib, d, e, spin, energy=None, below=None):
    """(eigenvalues, eigenvectors, interior flags) of one sector block, bands (d, e), spin fastest.

    :func:`_tridiagonal_eigh`, or ``eigh`` of the band matrix without
    numpy's OpenBLAS (it reads the lower triangle): the bits of ``eigh`` of
    the sector block. An eigenvector is interior when less than
    INTERIOR_MASS of its probability sits on the outer EDGE_SHELLS shells.
    With an energy and its count ``below`` of eigenvalues under it, only
    the pairs up to index below + 1 are solved (``eigh`` slices them), the
    last one the first at or above the energy. The sector is solved whole
    when none of them above the energy is interior, or when one lies
    within the rounding of a solve, n eps ||T||, of the energy: there the
    windowed and the whole solve may put it on different sides.
    """
    window = None if energy is None else below + 1
    if lib is None:
        w, v = np.linalg.eigh(np.diag(d) + np.diag(e, -1))
        w, v = w[:window], v[:, :window]
    else:
        w, v = _tridiagonal_eigh(lib, d, e, window)
    flags = _edge_mass(v, len(d) // spin) < INTERIOR_MASS
    if len(w) < len(d):
        rounding = len(d) * np.finfo(float).eps * (np.abs(d).max() + 2 * np.abs(e).max(initial=0.0))
        if not (flags & (w > energy)).any() or (np.abs(w - energy) <= rounding).any():
            return _solve_sector(lib, d, e, spin)
    return w, v, flags


def _sorted_levels(secs):
    """The eigenvalues and interior flags of all (sectors, w, V, flags) blocks, in ascending eigenvalue.

    A block counts once for each sector of its range.
    """
    ev = np.concatenate([w for bs, w, _, _ in secs for _ in bs])
    fl = np.concatenate([flags for bs, _, _, flags in secs for _ in bs])
    order = np.argsort(ev)
    return ev[order], fl[order]


def _last_level(v, spin):
    """The last level of the columns v, ``spin`` rows each, that holds a nonzero entry; None without one."""
    rows = np.flatnonzero(v.any(axis=1))
    return rows[-1] // spin if len(rows) else None


def _shared_run(nmax, spin, below, v, flags):
    """How many sectors, from b = 0 on, take the b = 0 window: eigenvectors v and their interior flags.

    ``v`` has its entries of magnitude <= machine epsilon set to zero, so
    it vanishes past its first t levels. Sector b takes the pairs of b = 0
    when every one of them is interior, its Sturm count in ``below`` is
    theirs, and s_b >= t + EDGE_SHELLS. The columns cut to s_b levels then
    leave a residual |e_{s-1} u_s| <= eps ||T|| on its block, the backward
    error of the solver itself, so they are its eigenpairs to rounding
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, 4.5); and they
    stay EDGE_SHELLS levels clear of its top, so their interior flags and
    curvature core (:func:`_curvature`) are those of b = 0. Neither the
    size nor the Sturm count grows with b (Cauchy interlacing), so the
    sectors that qualify are b = 0..run - 1.
    """
    if not flags.all():
        return 1
    t = _last_level(v, spin) + 1
    counts = below[spin - 1::spin]  # by sector size s = 1..Nmax + 1
    smallest = max(int(np.searchsorted(counts, counts[-1])) + 1, t + EDGE_SHELLS)
    return max(nmax + 2 - smallest, 1)


def _sector_eigensystem(nmax, d, e, energy=None):
    """Per-sector eigendecomposition of the real tridiagonal b = 0 block with diagonal d, subdiagonal e.

    The block is spin fastest, and sector b takes its leading part
    (d[:spin s], e[:spin s - 1]), s = Nmax + 1 - b, solved by
    :func:`_solve_sector`. Without an energy every sector is solved whole,
    on its own, so the interior flags do not depend on the basis LAPACK
    picks inside eigenspaces that several sectors share, and no
    eigenvectors are kept. With one, a single Sturm pass over the b = 0
    bands (:func:`_sturm_counts`) counts every sector's eigenvalues below
    it, and a solve takes only those pairs and the next. The b = 0 window
    serves every sector that holds it to rounding (:func:`_shared_run`);
    the other sectors are solved on their own. A solve keeps its
    eigenvectors with eigenvalue <= energy, their entries of magnitude
    <= machine epsilon set to zero, cut one level past their last nonzero
    level. (Inverse iteration leaves entries near 1e-49 where the whole
    solve gives exact zeros.) The zeros reach well below the sector's top,
    so the cut keeps few rows, and the zero level left on top keeps the
    window exact for :func:`_curvature`, which takes a+ out of the last
    nonzero level. Columns without a nonzero row are kept whole. A solve
    that serves a run of sectors holds its cut columns clear of every one
    of their tops. The interior pairs next to the energy are those of the
    whole solve, so the gap test on them is unchanged. Returns a list of
    (sectors, eigenvalues, kept eigenvectors or None, interior flags), one
    per solve, in ascending b, with ``sectors`` the range of b that share
    it, and the globally sorted (eigenvalues, interior flags).
    """
    spin = len(d) // (nmax + 1)
    lib = _numpy_openblas()
    below = None if energy is None else _sturm_counts(d, e, energy)
    secs, b = [], 0
    while b <= nmax:
        k = spin * (nmax + 1 - b)
        if energy is None:
            w, _, flags = _solve_sector(lib, d[:k], e[:k - 1], spin)
            kept, run = None, 1
        else:
            w, v, flags = _solve_sector(lib, d[:k], e[:k - 1], spin, energy, below[k - 1])
            v[np.abs(v) <= np.finfo(float).eps] = 0.0
            run = _shared_run(nmax, spin, below, v, flags) if b == 0 else 1
            kept = v[:, w <= energy]
            last = _last_level(kept, spin)
            if last is not None:
                kept = kept[:spin * (last + 2)]
        secs.append((range(b, b + run), w, kept, flags))
        b += run
    return (secs,) + _sorted_levels(secs)


def landau_sector_eigensystem(nmax, params):
    """Eigenvalues of the truncated Landau Hamiltonian eps_B (n1 + 1/2), by sector.

    Every sector block is diagonal, so no solver runs: its eigenvalues are
    its diagonal, each with a unit eigenvector, interior below the outer
    EDGE_SHELLS levels. Bit for bit ``eigh`` of each block. Returns
    (eigenvalues, interior flags) over all sectors combined.
    """
    d = params.eps_B * (np.arange(nmax + 1) + 0.5)
    secs = [(range(nmax + 1 - s, nmax + 2 - s), d[:s], None, np.arange(s) < s - EDGE_SHELLS)
            for s in range(nmax + 1, 0, -1)]
    return _sorted_levels(secs)


def jc_sector_eigensystem(nmax, params):
    """(eigenvalues, interior flags) of the truncated spin-orbit Hamiltonian, all sectors, from its real bands."""
    n = np.arange(nmax + 1)
    e = np.zeros(2 * nmax + 1)
    e[1::2] = params.eps_B * params.c_b * np.sqrt(2.0 * n[1:])
    _, evs, flags = _sector_eigensystem(nmax, np.repeat(params.eps_B * (n + 0.5 + params.c_b ** 2), 2), e)
    return evs, flags


def _edge_mass(vectors, s):
    """Probability mass of each eigencolumn of a size-s sector on the outer EDGE_SHELLS shells.

    Those are its top levels n1 >= s - EDGE_SHELLS (shells n1 + b > Nmax - EDGE_SHELLS).
    """
    spin = len(vectors) // s
    edge = vectors[spin * max(s - EDGE_SHELLS, 0):]
    return (np.abs(edge) ** 2).reshape(-1, spin, vectors.shape[1]).sum(axis=1).sum(axis=0)


def quaternionic_sector_eigensystem(nmax, params, energy=None):
    """Per-sector eigendecomposition of the quaternionic Hamiltonian.

    Each sector solves the one real tridiagonal block both spin channels
    share (module docstring), so every eigenvalue appears twice. Without
    an energy every sector is solved whole and no eigenvectors are kept.
    With one, a solve returns only its window of eigenvalues, up to its
    first interior one above the energy, and one solve serves the run of
    sectors from b = 0 that hold its window (:func:`_sector_eigensystem`).
    Its kept columns, those with eigenvalue <= energy cut one level past
    their last nonzero level, are mapped back to the spin-fastest basis,
    v[n, a] = e^{i n arg mu_k} u_n W[a, k] for both channels k, with the
    rows of its first sector; the map is elementwise, so the cut rows stay
    zero. Returns the Fermi projection as sector stacks (sectors, 0, V),
    one per solve (none without an energy), and the globally sorted
    (eigenvalues, interior flags).
    """
    lam, W = np.linalg.eigh(params.r[1] * SIGMA1 + params.r[2] * SIGMA3)
    mu = np.exp(1j * np.pi / 4) * params.r[0] + np.exp(-1j * np.pi / 4) * lam  # W^dagger M W = diag(mu)
    shift = params.c_b * np.linalg.norm(params.r)  # c_b |mu_k| = c_b |r| for both k
    # the bands of the b = 0 block and its gauge phases; sector b takes the leading s x s part
    n = np.arange(nmax + 1)
    d = params.eps_B * (n + 0.5 + shift ** 2)
    e = params.eps_B * shift * np.sqrt(n[1:])
    phases = np.exp(1j * np.outer(n, np.angle(mu)))
    secs, evs, flags = _sector_eigensystem(nmax, d, e, energy)
    stacks = [(bs, 0, np.einsum("nk,nc,ak->nakc", phases[:len(u)], u, W).reshape(2 * len(u), -1))
              for bs, _, u, _ in secs if u is not None]
    return stacks, np.repeat(evs, 2), np.repeat(flags, 2)


def quaternionic_shell_sums(nmax, params, stacks):
    """Rank and Chern shell sums of the Fermi projection from its stacks, as the eigensystem hands them out."""
    return shell_sums(nmax, stacks, 2, params.xi)
