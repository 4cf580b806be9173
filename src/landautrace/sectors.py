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

Projections leave this module in one format, per-sector columns
[(b, V_b)] with P = (+)_b V_b V_b^dagger: the rows of V_b are the states
n1 = 0..s_b - 1, spin fastest, and its columns are orthonormal. Two loops
consume them for all three models, :func:`shell_sums` and
:func:`symmetry_residual`; no other module reads the rows.

Spectra: one loop (:func:`_sector_eigensystem`) diagonalizes the sector
blocks of all three Hamiltonians and flags the interior eigenvalues; the
``spectrum`` command and the quaternionic Fermi projections use it.

The quaternionic blocks are solved in a rotated basis. The gauge matrix
m- = e^{i pi/4} r0 1 + e^{-i pi/4} S, with S = r1 sigma1 + r2 sigma3
Hermitian, is normal: the fixed 2 x 2 spin rotation W that diagonalizes S
gives W^dagger m- W = diag(mu+, mu-), mu = e^{i pi/4} r0 + e^{-i pi/4}
lambda(S). Conjugated by 1 x W, the sector block eps_B (A+ A- + 1/2) with
A- = a x 1 + c_b 1 x m- splits into two displaced oscillators
eps_B ((a + c_b mu_k)^dagger (a + c_b mu_k) + 1/2). The phase gauge
u_n -> e^{i n arg mu_k} u_n makes each one real tridiagonal, with
diagonal eps_B (n + 1/2 + c_b^2 |mu_k|^2) and off-diagonal
eps_B c_b |mu_k| sqrt(n). Since lambda(S) = +-sqrt(r1^2 + r2^2), both
channels have |mu_k| = |r|: they share one tridiagonal matrix, so every
sector eigenvalue is doubled (the Kramers pairs of the odd symmetry) and
the interior ones are eps_B (n + 1/2), as for Landau x C^2. Neither W nor
the diagonal phases move probability between spatial levels, so the
interior flags come from the real eigenvectors directly; only the
columns of a Fermi projection are mapped back to the spin-fastest basis.
The gauge covariance of the trace per unit volume behind this
equivalence is that of Bellissard, van Elst and Schulz-Baldes,
J. Math. Phys. 35 (1994) 5373.

Curvature in factored form: every projection here has low rank r per
sector (one column for a level, two per Landau level below the Fermi
energy for the quaternionic model) and is given as P = V V^dagger by
columns V (s*spin x r) with V^dagger V = 1. Under that precondition the
curvature density is

    R = i P [d1 P, d2 P] = V K V^dagger,
    K = V^dagger (a- a+ - a+ a-) V + [V^dagger a+ V, V^dagger a- V],

with the truncated first-mode ladders a+-, so the edge row of
a- a+ - a+ a- (which is -(s-1), not 1) is carried exactly. a+ V and a- V
are row shifts of V scaled by sqrt(n), and diag(R) costs O(s r^2) per
sector instead of the O(s^3) of dense products.

The Landau curvature identities are checked per sector too
(:func:`landau_identity_residuals`): all their nonzero entries sit on the
levels j-1..j+1, the same 3 x 3 window in every sector that reaches them,
so the largest sector alone gives the largest residual.
"""

import numpy as np

__all__ = [
    "LEVEL_MARGIN",
    "lowering_block",
    "landau_identity_residuals",
    "landau_columns",
    "jc_columns",
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


def lowering_block(size):
    """First-mode lowering operator on a sector of spatial size ``size``."""
    m = np.zeros((size, size), dtype=complex)
    n = np.arange(1, size)
    m[n - 1, n] = np.sqrt(n)
    return m


def _curvature(V, spin):
    """r x r core K of the curvature density R = i P [d1 P, d2 P] = V K V^dagger.

    V holds orthonormal columns (spin fastest) with P = V V^dagger; ell_B = 1,
    the magnetic length cancels against the 1/ell^2 of the Chern formula.
    The ladder-side derivations are d1 = -(1/sqrt2)([a+,P] - [a-,P]) and
    d2 = (i/sqrt2)([a+,P] + [a-,P]), so [d1 P, d2 P] = -i [[a+,P],[a-,P]]
    and R = P [[a+,P],[a-,P]]. Expanding with P^2 = P, the four terms
    that do not end in P cancel in pairs:

        R = P a+ P a- P - P a+ a- P - P a- P a+ P + P a- a+ P,

    and P = V V^dagger with (V^dagger a+ V)^dagger = V^dagger a- V gives
    K = V^dagger (a- a+ - a+ a-) V + [V^dagger a+ V, V^dagger a- V].
    """
    root = np.repeat(np.sqrt(np.arange(1.0, V.shape[0] // spin)), spin)[:, None]
    up = np.zeros_like(V)  # a+ V
    up[spin:] = root * V[:-spin]
    down = np.zeros_like(V)  # a- V
    down[:-spin] = root * V[spin:]
    raise_core = V.conj().T @ up  # V^dagger a+ V; its adjoint is V^dagger a- V
    return (
        up.conj().T @ up - down.conj().T @ down
        + raise_core @ raise_core.conj().T - raise_core.conj().T @ raise_core
    )


def landau_columns(nmax, j):
    """Per-sector columns (b, V_b) of the level-j projection: the unit vector at n1 = j."""
    return [(b, np.eye(nmax + 1 - b, 1, -j, dtype=complex)) for b in range(nmax + 1 - j)]


def shell_sums(nmax, columns, spin, xi):
    """Shell sums of (Q^-1 P, i/ell^2 Q^-1 R) for the per-sector columns (b, V_b) of P.

    Each row is weighted by 1/(l + 2 + 2 xi), l = n1 + b, before the spin
    components of its shell are summed.
    """
    rank = np.zeros(nmax + 1)
    chern = np.zeros(nmax + 1)
    for b, V in columns:
        if not V.shape[1]:
            continue
        s = V.shape[0] // spin
        weights = 1.0 / (np.repeat(np.arange(s), spin) + b + 2.0 + 2.0 * xi)
        K = _curvature(V, spin)
        for sums, diag in ((rank, np.einsum("kp,kp->k", V, V.conj())),
                           (chern, np.einsum("kp,pq,kq->k", V, K, V.conj()))):
            sums[b:b + s] += (diag.real * weights).reshape(s, spin).sum(axis=1)
    return rank, chern


def symmetry_residual(columns, twist):
    """max |U conj(P) U^dagger - P| for the per-sector columns (b, V_b) of P.

    U = diag(i^(n1 + b)) x twist is the unitary part of the symmetry:
    twist [[1]] for Theta, diag(1, i) for Xi, sigma2 for Xi'. Per sector
    U conj(P) U^dagger = (U conj(V)) (U conj(V))^dagger, and both sides
    vanish off the rows where V or U conj(V) is nonzero. The phases cycle
    exactly through 1, i, -1, -i: complex pow rounds at large exponents.
    """
    spin = len(twist)
    worst = 0.0
    for b, V in columns:
        s = V.shape[0] // spin
        phases = np.array([1, 1j, -1, -1j])[(np.arange(s) + b) % 4]
        UV = np.einsum(
            "n,ab,nbr->nar", phases, twist, V.conj().reshape(s, spin, -1)
        ).reshape(spin * s, -1)
        rows = (V != 0).any(axis=1) | (UV != 0).any(axis=1)
        UV, V = UV[rows], V[rows]
        worst = max(worst, float(np.abs(UV @ UV.conj().T - V @ V.conj().T).max(initial=0.0)))
    return worst


def landau_shell_sums(nmax, j, xi):
    """Shell sums of (Q^-1 P_j, i/ell^2 Q^-1 R_j) for the scalar model."""
    return shell_sums(nmax, landau_columns(nmax, j), 1, xi)


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


def _jc_sector_vector(s, j, theta):
    """Eigenvector column (spin fastest) of the level-(j, theta) pair state."""
    v = np.zeros(2 * s, dtype=complex)
    v[2 * (j - 1) + 0] = np.sin(theta)
    v[2 * j + 1] = 1j * np.cos(theta)
    return v


def jc_columns(nmax, j, theta):
    """Per-sector columns (b, V_b) of the spin-orbit pair projection P_j^theta."""
    return [(b, _jc_sector_vector(nmax + 1 - b, j, theta)[:, None]) for b in range(nmax + 1 - j)]


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
    columns = jc_columns(nmax, j, theta)
    rank, chern = shell_sums(nmax, columns, 2, xi)
    if not columns:
        return rank, chern, 0.0
    V = columns[0][1]
    level = np.array([j - 1, j])
    Rspin = np.einsum(
        "iar,jar->ij",
        (V @ _curvature(V, 2)).reshape(-1, 2, 1)[level], V.conj().reshape(-1, 2, 1)[level],
    ) / 1j
    target = np.diag([-1j * np.sin(theta) ** 2, -1j * np.cos(theta) ** 2])
    inner = level <= nmax - LEVEL_MARGIN
    closed_resid = np.abs(Rspin - target)[np.ix_(inner, inner)].max(initial=0.0)
    return rank, chern, float(closed_resid)


def _sector_eigensystem(nmax, block, columns=None):
    """Per-sector eigendecomposition of the blocks ``block(s)``, s = Nmax + 1 - b.

    An eigenvector is interior when less than INTERIOR_MASS of its
    probability sits on the outer EDGE_SHELLS shells. The sectors share no
    state, so the flags do not depend on the basis LAPACK picks inside
    eigenspaces that several sectors share. ``columns(w, v)`` returns the
    eigenvectors a caller keeps of a sector; without it none are kept.
    Returns a list of (b, eigenvalues, kept eigenvectors or None, interior
    flags) and the globally sorted (eigenvalues, interior flags).
    """
    secs = []
    for b in range(nmax + 1):
        s = nmax + 1 - b
        w, v = np.linalg.eigh(block(s))
        flags = _edge_mass(v, s, b, nmax) < INTERIOR_MASS
        secs.append((b, w, None if columns is None else columns(w, v), flags))
    ev = np.concatenate([w for _, w, _, _ in secs])
    fl = np.concatenate([flags for _, _, _, flags in secs])
    order = np.argsort(ev)
    return secs, ev[order], fl[order]


def landau_sector_eigensystem(nmax, params):
    """Eigenvalues of the truncated Landau Hamiltonian eps_B (n1 + 1/2), by sector.

    Returns (eigenvalues, interior flags) over all sectors combined.
    """
    _, evs, flags = _sector_eigensystem(
        nmax, lambda s: np.diag(params.eps_B * (np.arange(s) + 0.5))
    )
    return evs, flags


def jc_sector_eigensystem(nmax, params):
    """Eigenvalues of the truncated spin-orbit Hamiltonian, sector by sector.

    Returns (eigenvalues, interior flags) over all sectors combined.
    """

    def block(s):
        am1 = lowering_block(s)
        num = np.kron(np.diag(np.arange(s, dtype=complex)), np.eye(2))
        hb = params.eps_B * (num + 0.5 * (1.0 + 2.0 * params.c_b ** 2) * np.eye(2 * s, dtype=complex))
        hb += params.eps_B * params.c_b * np.sqrt(2) * (
            -1j * np.kron(am1, np.array([[0, 1], [0, 0]]))
            + 1j * np.kron(am1.conj().T, np.array([[0, 0], [1, 0]]))
        )
        return hb

    _, evs, flags = _sector_eigensystem(nmax, block)
    return evs, flags


def _edge_mass(vectors, s, b, nmax):
    """Probability mass of each eigencolumn on the outer EDGE_SHELLS shells."""
    prob = np.abs(vectors) ** 2
    spatial = prob.reshape(s, -1, vectors.shape[1]).sum(axis=1)
    n1_edge = np.arange(s) + b > nmax - EDGE_SHELLS
    if not n1_edge.any():
        return np.zeros(vectors.shape[1])
    return spatial[n1_edge].sum(axis=0)


def _quaternionic_blocks(params):
    """The 2 x 2 gauge matrix m- = e^{i pi/4} r0 1 + e^{-i pi/4} (r1 sigma1 + r2 sigma3)."""
    e4 = np.exp(1j * np.pi / 4)
    r0, r1, r2 = params.r
    S = r1 * SIGMA1 + r2 * SIGMA3
    m_minus = e4 * r0 * np.eye(2) + np.conj(e4) * S
    return m_minus


def quaternionic_sector_eigensystem(nmax, params, energy=None):
    """Per-sector eigendecomposition of the quaternionic Hamiltonian.

    Each sector solves the one real tridiagonal block both spin channels
    share (module docstring), so every eigenvalue appears twice. The
    eigenvectors with eigenvalue <= energy are mapped back to the
    spin-fastest basis, v[n, a] = e^{i n arg mu_k} u_n W[a, k] for both
    channels k; without an energy no eigenvectors are kept. Returns a list
    of (b, eigenvalues, those columns or None, interior flags) and the
    globally sorted (eigenvalues, interior flags).
    """
    lam, W = np.linalg.eigh(params.r[1] * SIGMA1 + params.r[2] * SIGMA3)
    mu = np.exp(1j * np.pi / 4) * params.r[0] + np.exp(-1j * np.pi / 4) * lam  # W^dagger m- W = diag(mu)
    shift = params.c_b * np.linalg.norm(params.r)  # c_b |mu_k| = c_b |r| for both k

    def block(s):
        n = np.arange(s)
        T = np.diag(params.eps_B * (n + 0.5 + shift ** 2))
        off = params.eps_B * shift * np.sqrt(n[1:])
        T[n[1:], n[:-1]] = off
        T[n[:-1], n[1:]] = off
        return T

    def columns(w, u):
        phases = np.exp(1j * np.outer(np.arange(len(w)), np.angle(mu)))
        return np.einsum("nk,nc,ak->nakc", phases, u[:, w <= energy], W).reshape(2 * len(w), -1)

    secs, evs, flags = _sector_eigensystem(nmax, block, None if energy is None else columns)
    secs = [(b, np.repeat(w, 2), V, np.repeat(fl, 2)) for b, w, V, fl in secs]
    return secs, np.repeat(evs, 2), np.repeat(flags, 2)


def quaternionic_shell_sums(nmax, params, energy, sectors=None):
    """Shell sums of rank and Chern densities of the Fermi projection.

    ``sectors`` is the output of :func:`quaternionic_sector_eigensystem`
    at the same energy; it is computed when not given.
    """
    if sectors is None:
        sectors, _, _ = quaternionic_sector_eigensystem(nmax, params, energy)
    return shell_sums(nmax, [(b, V) for b, _w, V, _flags in sectors], 2, params.xi)
