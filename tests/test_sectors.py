"""Sector eigensystems, factored curvature and symmetry residuals against dense references.

The dense forms are the reference implementations: the spectra from
``eigvalsh`` of the Hamiltonians on the whole truncated basis, the
curvature density i P [d1 P, d2 P] from full 2s x 2s ladder products,
and the symmetry residuals from U conj(P) U^dagger with U as a matrix.
The rotated quaternionic solver is checked against a complex ``eigh`` of
the dense 2s x 2s sector blocks.
"""

import numpy as np
import pytest

from landautrace import models, sectors, topo
from landautrace.fock import ModelParams, build_basis, derived_operator
from landautrace.models import jc_angles

NMAX = 20
XI = 0.5


SPECTRUM_PARAMS = [
    ModelParams(c_b=0.3, r=(0.0, 1.0, 0.0)),
    ModelParams(c_b=0.7, r=(0.36, 0.48, 0.8)),
    ModelParams(eps_B=1.3, c_b=1.0, r=(0.6, 0.0, -0.8)),
]


@pytest.mark.parametrize("params", SPECTRUM_PARAMS)
@pytest.mark.parametrize("nmax", [6, 12, 20])
@pytest.mark.parametrize("model", ["landau", "jaynes_cummings", "quaternionic"])
def test_sector_eigenvalues_match_dense(model, nmax, params):
    basis = build_basis(nmax)
    if model == "landau":
        evs, _ = sectors.landau_sector_eigensystem(nmax, params)
        dense = derived_operator(basis, "H_B", params)
    elif model == "jaynes_cummings":
        evs, _ = sectors.jc_sector_eigensystem(nmax, params)
        dense = models.jc_hamiltonian(basis, params)
    else:
        _, evs, _ = sectors.quaternionic_sector_eigensystem(nmax, params)
        dense = models.quaternionic_hamiltonian(basis, params)
    np.testing.assert_allclose(evs, np.linalg.eigvalsh(dense.entries), rtol=1e-12, atol=0)


@pytest.mark.parametrize("nmax", [6, 12, 40])
def test_jc_interior_count(nmax):
    # sector b holds its ground state and the pairs (n1 - 1 up, n1 down) with
    # n1 + b <= nmax - 2 exactly: 1 + 2 (nmax - 2 - b) interior eigenvectors.
    # The dense path mixes such vectors with edge ones of the same energy in
    # other sectors and certifies fewer (23 of 25 at nmax 6, c_b 0.7).
    _, flags = sectors.jc_sector_eigensystem(nmax, ModelParams(c_b=0.7))
    assert flags.sum() == (nmax - 1) ** 2


def dense_curvature(P, ap, am):
    """(i) P [d1 P, d2 P] with d_i the ladder-side derivations, ell_B = 1.

    d1 = -(1/sqrt2)([a+,P] - [a-,P]), d2 = (i/sqrt2)([a+,P] + [a-,P]).
    """
    cp = ap @ P - P @ ap
    cm = am @ P - P @ am
    d1 = -(cp - cm) / np.sqrt(2)
    d2 = 1j * (cp + cm) / np.sqrt(2)
    return 1j * (P @ (d1 @ d2 - d2 @ d1))


def dense_ladders(s, spin):
    am = np.kron(sectors.lowering_block(s), np.eye(spin))
    return am.conj().T, am


def random_columns(rng, n, rank):
    """Orthonormal columns: eigenvectors of a random Hermitian matrix."""
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    _, U = np.linalg.eigh(A + A.conj().T)
    return U[:, rng.choice(n, rank, replace=False)]


def dense_shell_sums(nmax, columns, spin, xi):
    """Shell sums from dense P = V V^dagger and dense curvature, sector by sector."""
    rank = np.zeros(nmax + 1)
    chern = np.zeros(nmax + 1)
    for b, V in columns:
        s = V.shape[0] // spin
        P = V @ V.conj().T
        R = dense_curvature(P, *dense_ladders(s, spin))
        weights = 1.0 / (np.arange(s) + b + 2.0 + 2.0 * xi)
        rank[b:b + s] += np.diag(P).real.reshape(s, spin).sum(axis=1) * weights
        chern[b:b + s] += np.diag(R).real.reshape(s, spin).sum(axis=1) * weights
    return rank, chern


@pytest.mark.parametrize("spin", [1, 2])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [4, 9, 23])
def test_factored_curvature_matches_dense(spin, rank, s):
    rng = np.random.default_rng(100 * spin + 10 * rank + s)
    V = random_columns(rng, s * spin, rank)
    assert np.abs(V[-spin:]).max() > 1e-3  # weight on the truncation edge j = s - 1
    R = dense_curvature(V @ V.conj().T, *dense_ladders(s, spin))
    K = sectors._curvature(V, spin)
    assert np.abs(V @ K @ V.conj().T - R).max() <= 1e-12
    diag = np.einsum("kp,pq,kq->k", V, K, V.conj())
    assert np.abs(diag - np.diag(R)).max() <= 1e-12


@pytest.mark.parametrize("spin", [1, 2])
def test_edge_row_of_ladder_commutator(spin):
    # on the edge row a- a+ - a+ a- = -(s-1), not 1
    s = 7
    V = np.zeros((s * spin, 1), dtype=complex)
    V[-1, 0] = 1.0
    R = dense_curvature(V @ V.conj().T, *dense_ladders(s, spin))
    K = sectors._curvature(V, spin)
    assert K[0, 0] == pytest.approx(-(s - 1), abs=1e-12)
    assert np.abs(V @ K @ V.conj().T - R).max() <= 1e-12


@pytest.mark.parametrize("j", [0, 2])
def test_landau_shell_sums_match_dense(j):
    columns = []
    for b in range(NMAX + 1):
        s = NMAX + 1 - b
        if j < s:
            V = np.zeros((s, 1), dtype=complex)
            V[j, 0] = 1.0
            columns.append((b, V))
    rank, chern = sectors.landau_shell_sums(NMAX, j, XI)
    ref_rank, ref_chern = dense_shell_sums(NMAX, columns, 1, XI)
    np.testing.assert_allclose(rank, ref_rank, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chern, ref_chern, rtol=0, atol=1e-12)


@pytest.mark.parametrize("j, branch", [(1, 0), (2, 1)])
def test_jc_shell_sums_match_dense(j, branch):
    theta = jc_angles(j, 0.4)[branch]
    columns = []
    closed = 0.0
    for b in range(NMAX + 1):
        s = NMAX + 1 - b
        if j >= s:
            continue
        V = sectors._jc_sector_vector(s, j, theta)[:, None]
        columns.append((b, V))
        interior = s if b + s - 1 <= NMAX - 3 else max(0, NMAX - 2 - b)
        if interior > 0:
            R = dense_curvature(V @ V.conj().T, *dense_ladders(s, 2))
            Rspin = np.einsum("isjs->ij", (R / 1j).reshape(s, 2, s, 2))
            target = np.zeros((s, s), dtype=complex)
            target[j - 1, j - 1] = -1j * np.sin(theta) ** 2
            target[j, j] = -1j * np.cos(theta) ** 2
            closed = max(closed, np.abs((Rspin - target)[:interior, :interior]).max())
    rank, chern, closed_resid = sectors.jc_shell_sums(NMAX, j, theta, XI)
    ref_rank, ref_chern = dense_shell_sums(NMAX, columns, 2, XI)
    np.testing.assert_allclose(rank, ref_rank, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chern, ref_chern, rtol=0, atol=1e-12)
    assert closed_resid == pytest.approx(closed, abs=1e-13)
    assert closed_resid <= 1e-12


def dense_jc_symmetry_residual(nmax, j, theta):
    worst = 0.0
    for b in range(nmax + 1):
        s = nmax + 1 - b
        if j >= s:
            continue
        v = sectors._jc_sector_vector(s, j, theta)
        P = np.outer(v, v.conj())
        U = np.diag(np.kron((1j) ** (np.arange(s) + b), np.array([1.0, 1j])))
        worst = max(worst, np.abs(U @ P.conj() @ U.conj().T - P).max())
    return worst


def test_jc_symmetry_residual_matches_dense(monkeypatch):
    theta = jc_angles(2, 0.4)[0]
    res = topo._jc_symmetry_residual(NMAX, 2, theta)
    assert res == pytest.approx(dense_jc_symmetry_residual(NMAX, 2, theta), abs=1e-13)
    assert res <= topo.SYMMETRY_TOL
    # vectors that break the symmetry: both forms give the same O(1) residual
    rng = np.random.default_rng(5)
    vectors = {s: rng.normal(size=2 * s) + 1j * rng.normal(size=2 * s) for s in range(1, NMAX + 2)}
    monkeypatch.setattr(sectors, "_jc_sector_vector", lambda s, j, theta: vectors[s])
    res = topo._jc_symmetry_residual(NMAX, 2, theta)
    ref = dense_jc_symmetry_residual(NMAX, 2, theta)
    assert res > 1e-1
    assert res == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("j", [1, 2, 5])
def test_jc_symmetry_residual_is_exact(j):
    # with the exact phase cycle 1, i, -1, -i the residual shows no rounding,
    # even where i**(n1 + b) by complex pow is off by 1e-14 (Nmax 140)
    for theta in jc_angles(j, 0.5):
        assert topo._jc_symmetry_residual(140, j, theta) == 0.0


def dense_quaternionic_symmetry_residual(columns):
    """max |U conj(P) U^dagger - P| per sector, P = V V^dagger from (b, V) columns."""
    worst = 0.0
    for b, V in columns:
        if V.shape[1] == 0:
            continue
        P = V @ V.conj().T
        s = V.shape[0] // 2
        U = np.kron(np.diag((1j) ** (np.arange(s) + b)), sectors.SIGMA2)
        worst = max(worst, np.abs(U @ P.conj() @ U.conj().T - P).max())
    return worst


TWISTS = {"Theta": np.ones((1, 1)), "Xi": np.diag([1, 1j]), "Xi-prime": sectors.SIGMA2}


def dense_symmetry_residual(columns, twist):
    """max |U conj(P) U^dagger - P| with U = diag(i^(n1 + b)) x twist as a matrix."""
    worst = 0.0
    for b, V in columns:
        s = V.shape[0] // len(twist)
        U = np.kron(np.diag((1j) ** (np.arange(s) + b)), twist)
        P = V @ V.conj().T
        worst = max(worst, np.abs(U @ P.conj() @ U.conj().T - P).max())
    return worst


@pytest.mark.parametrize("name", TWISTS)
def test_symmetry_residual_matches_dense(name):
    twist = TWISTS[name]
    spin = len(twist)
    rng = np.random.default_rng(len(name))
    columns = []
    for b in range(NMAX + 1):
        n = spin * (NMAX + 1 - b)
        V = random_columns(rng, n, min(1 + b % 3, n))
        # zero rows: the supports of V and U conj(V) differ (sigma2 swaps the spins)
        V[rng.random(n) < 0.5] = 0.0
        columns.append((b, V))
    res = sectors.symmetry_residual(columns, twist)
    assert res > 1e-1
    assert res == pytest.approx(dense_symmetry_residual(columns, twist), rel=1e-12)
    # one spin component alone breaks Xi', which moves it to the other spin
    e = np.zeros((2 * spin, 1), dtype=complex)
    e[0] = 1.0
    expected = 1.0 if name == "Xi-prime" else 0.0
    assert sectors.symmetry_residual([(3, e)], twist) == expected


def _unit(v):
    return tuple(np.asarray(v, dtype=float) / np.linalg.norm(v))


QUAT_CASES = [
    ModelParams(xi=XI, c_b=0.7, r=_unit(np.random.default_rng(11).normal(size=3))),
    ModelParams(xi=XI, c_b=0.5, r=(1.0, 0.0, 0.0)),  # S = 0: both channels coincide
    ModelParams(xi=XI, eps_B=1.3, c_b=0.6, r=(0.0, 0.6, -0.8)),  # r0 = 0
    ModelParams(xi=XI, c_b=0.0, r=(0.36, 0.48, 0.8)),  # no coupling: Landau x C^2
]
QUAT_IDS = ["random-r", "S=0", "r0=0", "c_b=0"]


def dense_quaternionic_block(s, params):
    """Sector block eps_B (A+ A- + 1/2), A- = a x 1 + c_b 1 x m-, spin fastest."""
    A_minus = (np.kron(sectors.lowering_block(s), np.eye(2))
               + params.c_b * np.kron(np.eye(s), sectors._quaternionic_blocks(params)))
    return params.eps_B * (A_minus.conj().T @ A_minus + 0.5 * np.eye(2 * s))


def dense_quaternionic_sectors(nmax, params):
    """(b, eigenvalues, eigenvectors, interior flags) from a complex eigh of each block."""
    secs = []
    for b in range(nmax + 1):
        s = nmax + 1 - b
        w, v = np.linalg.eigh(dense_quaternionic_block(s, params))
        spatial = (np.abs(v) ** 2).reshape(s, 2, -1).sum(axis=1)
        edge = spatial[np.arange(s) + b > nmax - sectors.EDGE_SHELLS].sum(axis=0)
        secs.append((b, w, v, edge < sectors.INTERIOR_MASS))
    return secs


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
@pytest.mark.parametrize("nmax", [6, 20, 40])
def test_quaternionic_rotated_sectors_match_dense_blocks(nmax, params):
    secs, _, _ = sectors.quaternionic_sector_eigensystem(nmax, params)
    dense = dense_quaternionic_sectors(nmax, params)
    assert len(secs) == len(dense)
    for (b, w, V, flags), (db, dw, _, dflags) in zip(secs, dense):
        assert b == db and V is None  # no energy: no eigenvectors kept
        np.testing.assert_allclose(w, dw, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(flags, dflags)


def rotated_and_dense_columns(energy):
    """Fermi-projection columns of both paths, for every case at Nmax 6, 20 and 40."""
    for params in QUAT_CASES:
        for nmax in (6, 20, 40):
            secs, _, _ = sectors.quaternionic_sector_eigensystem(nmax, params, energy)
            dense = dense_quaternionic_sectors(nmax, params)
            columns = [(b, v[:, w <= energy]) for b, w, v, _ in dense]
            for (_, _, V, _), (_, dV) in zip(secs, columns):
                assert V.shape == dV.shape
                P = V @ V.conj().T
                assert np.abs(P - dV @ dV.conj().T).max() <= 1e-12
                assert np.abs(P @ P - P).max() <= 1e-12
            yield nmax, params, secs, columns


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_quaternionic_shell_sums_match_dense(energy):
    for nmax, params, secs, columns in rotated_and_dense_columns(energy):
        rank, chern = sectors.quaternionic_shell_sums(nmax, params, energy, secs)
        ref_rank, ref_chern = dense_shell_sums(nmax, columns, 2, params.xi)
        np.testing.assert_allclose(rank, ref_rank, rtol=0, atol=1e-12)
        np.testing.assert_allclose(chern, ref_chern, rtol=0, atol=1e-12)


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_quaternionic_symmetry_residual_matches_dense(energy):
    for _, _, secs, columns in rotated_and_dense_columns(energy):
        res = topo._quaternionic_symmetry_residual(secs)
        assert res == pytest.approx(dense_quaternionic_symmetry_residual(columns), abs=1e-13)
        assert res <= topo.SYMMETRY_TOL
    # random orthonormal columns break the symmetry; both forms must still agree
    rng = np.random.default_rng(int(energy))
    secs, _, _ = sectors.quaternionic_sector_eigensystem(NMAX, QUAT_CASES[0], energy)
    broken = [(b, w, random_columns(rng, V.shape[0], V.shape[1]), fl) for b, w, V, fl in secs]
    res = topo._quaternionic_symmetry_residual(broken)
    ref = dense_quaternionic_symmetry_residual([(b, V) for b, _, V, _ in broken])
    assert res > 1e-1
    assert res == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
@pytest.mark.parametrize("nmax", [6, 20, 40])
def test_quaternionic_closed_form(nmax, params):
    # Landau x C^2 up to a gauge: interior levels eps_B (n + 1/2), each an even
    # number of times per sector. An interior vector leaves under INTERIOR_MASS
    # on the edge shells, which moves its eigenvalue by less than that many eps_B.
    secs, _, flags = sectors.quaternionic_sector_eigensystem(nmax, params)
    assert flags.any() or nmax == 6
    for _, w, _, interior in secs:
        level = w[interior] / params.eps_B - 0.5
        n = np.rint(level)
        assert np.abs(level - n).max(initial=0.0) <= sectors.INTERIOR_MASS
        assert (np.unique(n, return_counts=True)[1] % 2 == 0).all()
