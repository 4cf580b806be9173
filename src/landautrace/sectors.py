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
"""

import numpy as np

__all__ = [
    "lowering_block",
    "landau_shell_sums",
    "jc_shell_sums",
    "jc_sector_eigensystem",
    "quaternionic_sector_eigensystem",
    "quaternionic_shell_sums",
]

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
EDGE_SHELLS = 2  # eigenvector mass on the outer this-many shells decides interior status
INTERIOR_MASS = 1e-8


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


def _accumulate(shell_sums, sector_offset, diag, spin_dim):
    """Add sector diagonal values into global shells l = n1 + offset."""
    if spin_dim > 1:
        diag = diag.reshape(-1, spin_dim).sum(axis=1)
    n1 = np.arange(len(diag))
    np.add.at(shell_sums, n1 + sector_offset, diag)


def _add_sector(rank, chern, b, V, spin, xi):
    """Accumulate the weighted rank and curvature densities of P = V V^dagger.

    Returns the curvature core K of the sector (see :func:`_curvature`).
    """
    s = V.shape[0] // spin
    weights = 1.0 / (np.repeat(np.arange(s), spin) + b + 2.0 + 2.0 * xi)
    K = _curvature(V, spin)
    _accumulate(rank, b, np.einsum("kp,kp->k", V, V.conj()).real * weights, spin)
    _accumulate(chern, b, np.einsum("kp,pq,kq->k", V, K, V.conj()).real * weights, spin)
    return K


def landau_shell_sums(nmax, j, xi):
    """Shell sums of (Q^-1 P_j, i/ell^2 Q^-1 R_j) for the scalar model."""
    rank = np.zeros(nmax + 1)
    chern = np.zeros(nmax + 1)
    for b in range(nmax + 1):
        s = nmax + 1 - b
        if j >= s:
            continue
        V = np.zeros((s, 1), dtype=complex)
        V[j, 0] = 1.0
        _add_sector(rank, chern, b, V, 1, xi)
    return rank, chern


def _jc_sector_vector(s, j, theta):
    """Eigenvector column (spin fastest) of the level-(j, theta) pair state."""
    v = np.zeros(2 * s, dtype=complex)
    v[2 * (j - 1) + 0] = np.sin(theta)
    v[2 * j + 1] = 1j * np.cos(theta)
    return v


def jc_shell_sums(nmax, j, theta, xi):
    """Shell sums of rank and Chern densities for a spin-orbit pair level.

    Also returns the worst interior deviation of the spin-traced curvature
    from -i (sin^2 P_{j-1} + cos^2 P_j), margin 3 shells.
    """
    if j < 1:
        raise ValueError("pair levels start at j = 1")
    rank = np.zeros(nmax + 1)
    chern = np.zeros(nmax + 1)
    closed_resid = 0.0
    for b in range(nmax + 1):
        s = nmax + 1 - b
        if j >= s:
            continue
        V = _jc_sector_vector(s, j, theta)[:, None]
        K = _add_sector(rank, chern, b, V, 2, xi)
        # spin-traced curvature against the closed form, interior rows only
        interior = s if b + s - 1 <= nmax - 3 else max(0, nmax - 2 - b)
        if interior > 0:
            Rspin = np.einsum(
                "iar,jar->ij", (V @ K).reshape(s, 2, -1), V.conj().reshape(s, 2, -1)
            ) / 1j
            target = np.zeros((s, s), dtype=complex)
            target[j - 1, j - 1] = -1j * np.sin(theta) ** 2
            target[j, j] = -1j * np.cos(theta) ** 2
            dev = np.abs((Rspin - target)[:interior, :interior]).max()
            closed_resid = max(closed_resid, float(dev))
    return rank, chern, closed_resid


def jc_sector_eigensystem(nmax, params):
    """Eigenvalues of the truncated spin-orbit Hamiltonian, sector by sector.

    Returns (eigenvalues, interior flags) over all sectors combined.
    """
    evs = []
    flags = []
    for b in range(nmax + 1):
        s = nmax + 1 - b
        am1 = lowering_block(s)
        num = np.kron(np.diag(np.arange(s, dtype=complex)), np.eye(2))
        hb = params.eps_B * (num + 0.5 * (1.0 + 2.0 * params.c_b ** 2) * np.eye(2 * s, dtype=complex))
        hb += params.eps_B * params.c_b * np.sqrt(2) * (
            -1j * np.kron(am1, np.array([[0, 1], [0, 0]]))
            + 1j * np.kron(am1.conj().T, np.array([[0, 0], [1, 0]]))
        )
        w, v = np.linalg.eigh(hb)
        mass = _edge_mass(v, s, b, nmax)
        evs.append(w)
        flags.append(mass < INTERIOR_MASS)
    evs = np.concatenate(evs)
    flags = np.concatenate(flags)
    order = np.argsort(evs)
    return evs[order], flags[order]


def _edge_mass(vectors, s, b, nmax):
    """Probability mass of each eigencolumn on the outer EDGE_SHELLS shells."""
    prob = np.abs(vectors) ** 2
    spatial = prob.reshape(s, -1, vectors.shape[1]).sum(axis=1)
    n1_edge = np.arange(s) + b > nmax - EDGE_SHELLS
    if not n1_edge.any():
        return np.zeros(vectors.shape[1])
    return spatial[n1_edge].sum(axis=0)


def _quaternionic_blocks(params):
    e4 = np.exp(1j * np.pi / 4)
    r0, r1, r2 = params.r
    S = r1 * SIGMA1 + r2 * SIGMA3
    m_minus = e4 * r0 * np.eye(2) + np.conj(e4) * S
    return m_minus


def quaternionic_sector_eigensystem(nmax, params):
    """Per-sector eigendecomposition of the quaternionic Hamiltonian.

    Returns a list of (b, eigenvalues, eigenvectors, interior_flags) and
    the globally sorted (eigenvalues, interior_flags).
    """
    m_minus = _quaternionic_blocks(params)
    sectors = []
    all_ev = []
    all_fl = []
    for b in range(nmax + 1):
        s = nmax + 1 - b
        am1 = lowering_block(s)
        A_minus = np.kron(am1, np.eye(2)) + params.c_b * np.kron(np.eye(s), m_minus)
        A_plus = A_minus.conj().T
        hb = params.eps_B * (A_plus @ A_minus + 0.5 * np.eye(2 * s))
        w, v = np.linalg.eigh(hb)
        mass = _edge_mass(v, s, b, nmax)
        flags = mass < INTERIOR_MASS
        sectors.append((b, w, v, flags))
        all_ev.append(w)
        all_fl.append(flags)
    ev = np.concatenate(all_ev)
    fl = np.concatenate(all_fl)
    order = np.argsort(ev)
    return sectors, ev[order], fl[order]


def quaternionic_shell_sums(nmax, params, energy, sectors=None):
    """Shell sums of rank and Chern densities of the Fermi projection."""
    if sectors is None:
        sectors, _, _ = quaternionic_sector_eigensystem(nmax, params)
    xi = params.xi
    rank = np.zeros(nmax + 1)
    chern = np.zeros(nmax + 1)
    for b, w, v, _flags in sectors:
        keep = w <= energy
        if keep.any():
            _add_sector(rank, chern, b, v[:, keep], 2, xi)
    return rank, chern
