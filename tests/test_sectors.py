"""Factored sector curvature and symmetry residuals against dense references.

The dense forms below are the reference implementations: the curvature
density i P [d1 P, d2 P] from full 2s x 2s ladder products, and the
symmetry residuals from U conj(P) U^dagger with U as a matrix.
"""

import numpy as np
import pytest

from landautrace import sectors, topo
from landautrace.fock import ModelParams, build_basis
from landautrace.models import jc_angles

NMAX = 20
XI = 0.5


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


QUAT_PARAMS = ModelParams(xi=XI, c_b=0.4, r=(0.36, 0.48, 0.8))


@pytest.fixture(scope="module")
def quaternionic_sectors():
    secs, _, _ = sectors.quaternionic_sector_eigensystem(NMAX, QUAT_PARAMS)
    return secs


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_quaternionic_shell_sums_match_dense(quaternionic_sectors, energy):
    columns = [(b, v[:, w <= energy]) for b, w, v, _ in quaternionic_sectors
               if (w <= energy).any()]
    rank, chern = sectors.quaternionic_shell_sums(NMAX, QUAT_PARAMS, energy, quaternionic_sectors)
    ref_rank, ref_chern = dense_shell_sums(NMAX, columns, 2, XI)
    np.testing.assert_allclose(rank, ref_rank, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chern, ref_chern, rtol=0, atol=1e-12)


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


def dense_quaternionic_symmetry_residual(secs, energy):
    worst = 0.0
    for b, w, v, _ in secs:
        V = v[:, w <= energy]
        if V.shape[1] == 0:
            continue
        P = V @ V.conj().T
        s = V.shape[0] // 2
        U = np.kron(np.diag((1j) ** (np.arange(s) + b)), sectors.SIGMA2)
        worst = max(worst, np.abs(U @ P.conj() @ U.conj().T - P).max())
    return worst


def test_jc_symmetry_residual_matches_dense(monkeypatch):
    basis = build_basis(NMAX)
    theta = jc_angles(2, 0.4)[0]
    res = topo._jc_symmetry_residual(basis, QUAT_PARAMS, 2, theta)
    assert res == pytest.approx(dense_jc_symmetry_residual(NMAX, 2, theta), abs=1e-13)
    assert res <= topo.SYMMETRY_TOL
    # vectors that break the symmetry: both forms give the same O(1) residual
    rng = np.random.default_rng(5)
    vectors = {s: rng.normal(size=2 * s) + 1j * rng.normal(size=2 * s) for s in range(1, NMAX + 2)}
    monkeypatch.setattr(sectors, "_jc_sector_vector", lambda s, j, theta: vectors[s])
    res = topo._jc_symmetry_residual(basis, QUAT_PARAMS, 2, theta)
    ref = dense_jc_symmetry_residual(NMAX, 2, theta)
    assert res > 1e-1
    assert res == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_quaternionic_symmetry_residual_matches_dense(quaternionic_sectors, energy):
    res = topo._quaternionic_symmetry_residual(quaternionic_sectors, energy, NMAX)
    ref = dense_quaternionic_symmetry_residual(quaternionic_sectors, energy)
    assert res == pytest.approx(ref, abs=1e-13)
    assert res <= topo.SYMMETRY_TOL
    # random orthonormal columns break the symmetry; both forms must still agree
    rng = np.random.default_rng(int(energy))
    broken = [(b, w, random_columns(rng, v.shape[0], v.shape[1]), fl)
              for b, w, v, fl in quaternionic_sectors]
    res = topo._quaternionic_symmetry_residual(broken, energy, NMAX)
    ref = dense_quaternionic_symmetry_residual(broken, energy)
    assert res > 1e-1
    assert res == pytest.approx(ref, rel=1e-12)
