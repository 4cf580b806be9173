"""Sector eigensystems, factored curvature and symmetry residuals against dense references.

The dense forms are the reference implementations: the spectra from
``eigvalsh`` of the Hamiltonians on the whole truncated basis, the
curvature density i P [d1 P, d2 P] from full 2s x 2s ladder products,
the symmetry residuals from U conj(P) U^dagger with U as a matrix, and
the twist relation of each spin-1/2 record from the dense symmetry
classification of its Hamiltonian.
The rotated quaternionic solver is checked against a complex ``eigh`` of
the dense 2s x 2s sector blocks, and the JC bands against the record's
sector blocks, reordered and phase-gauged. The sector stacks are checked
bit for bit against the per-sector loops they replace, kept here as
oracles, and so are the sector eigensystems, sliced from the b = 0 bands,
against a serial loop that builds every sector block on its own. The
windowed solve at a Fermi energy is checked against the whole solve.
"""

import contextlib
import dataclasses
import os
import threading

import numpy as np
import pytest

from landautrace import cli, models, sectors, topo
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


@pytest.mark.parametrize("params", SPECTRUM_PARAMS)
@pytest.mark.parametrize("nmax", [6, 20])
def test_jc_sector_blocks_are_dense_rows(nmax, params):
    # the record's builder gives the sector block n2 = b, edge rows included, and
    # the dense Hamiltonian couples no other state to that sector
    H = models.jc_hamiltonian(build_basis(nmax), params).entries
    n2 = np.repeat(build_basis(nmax).n2, 2)
    for b in range(nmax + 1):
        s = nmax + 1 - b
        block = sectors.JC.hamiltonian(sectors.lowering_block(s), np.arange(s), params)
        rows = n2 == b  # level-major order lists n1 ascending within the sector
        assert np.abs(H[np.ix_(rows, rows)] - block).max() <= 1e-14
        assert not H[np.ix_(rows, ~rows)].any()


@pytest.mark.parametrize("nmax", [6, 12, 40])
def test_jc_interior_count(nmax):
    # sector b holds its ground state and the pairs (n1 - 1 up, n1 down) with
    # n1 + b <= nmax - 2 exactly: 1 + 2 (nmax - 2 - b) interior eigenvectors.
    # The dense path mixes such vectors with edge ones of the same energy in
    # other sectors and certifies fewer (23 of 25 at nmax 6, c_b 0.7).
    _, flags = sectors.jc_sector_eigensystem(nmax, ModelParams(c_b=0.7))
    assert flags.sum() == (nmax - 1) ** 2


def serial_sector_eigensystem(nmax, block, energy=None, columns=None, share=True):
    """The serial loop over the sectors, the block of each built on its own by ``block(s)``.

    Without an energy each block goes to ``eigh``. With one, each block's
    bands go to the windowed routine with a Sturm count of that block alone,
    and its columns with eigenvalue <= energy, entries up to machine epsilon
    set to zero, to ``columns``. With ``share``, a sector takes the b = 0
    window instead where the sharing rule allows it: every pair of that
    window interior, the same Sturm count, and s >= t + EDGE_SHELLS with t
    the levels through the window's last nonzero entry.
    """
    secs = []
    for b in range(nmax + 1):
        s = nmax + 1 - b
        kept = None
        if energy is None:
            w, v = np.linalg.eigh(block(s))
            flags = sectors._edge_mass(v, s) < sectors.INTERIOR_MASS
        else:
            A = block(s)
            d, e = np.diag(A).copy(), np.diag(A, -1).copy()
            spin = len(d) // s
            below = sectors._sturm_counts(d, e, energy)[-1]
            if b == 0:
                w0, v0, flags0 = sectors._solve_sector(sectors._numpy_openblas(), d, e, spin, energy, below)
                v0[np.abs(v0) <= np.finfo(float).eps] = 0.0
                m0, t = below, -(-(np.flatnonzero(v0.any(axis=1))[-1] + 1) // spin)
            if share and flags0.all() and below == m0 and s >= t + sectors.EDGE_SHELLS:
                w, v, flags = w0, v0[:spin * s], flags0
            else:
                w, v, flags = sectors._solve_sector(sectors._numpy_openblas(), d, e, spin, energy, below)
                v[np.abs(v) <= np.finfo(float).eps] = 0.0
            kept = columns(v[:, w <= energy])
        secs.append((b, w, kept, flags))
    ev = np.concatenate([w for _, w, _, _ in secs])
    fl = np.concatenate([flags for _, _, _, flags in secs])
    order = np.argsort(ev)
    return secs, ev[order], fl[order]


def per_sector(nmax, secs):
    """The (b, eigenvalues, columns, flags) of every sector: a shared solve repeated, its columns cut to size."""
    out = []
    for bs, w, V, fl in secs:
        for b in bs:
            cut = None if V is None else V[:len(V) // (nmax + 1 - bs.start) * (nmax + 1 - b)]
            out.append((b, w, cut, fl))
    return out


def band_matrix(d, e):
    """The real symmetric tridiagonal matrix with diagonal d and subdiagonal e."""
    return np.diag(d) + np.diag(e, -1) + np.diag(e, 1)


def jc_band(s, params):
    """The JC sector block of size s, levels ordered (n down, n up), i on down, built for that size alone."""
    n = np.arange(s)
    e = np.zeros(2 * s - 1)
    e[1::2] = params.eps_B * params.c_b * np.sqrt(2.0 * n[1:])
    return band_matrix(np.repeat(params.eps_B * (n + 0.5 + params.c_b ** 2), 2), e)


def quaternionic_tridiagonal(s, params):
    """The rotated quaternionic sector block of size s, built for that size alone."""
    shift = params.c_b * np.linalg.norm(params.r)
    n = np.arange(s)
    return band_matrix(params.eps_B * (n + 0.5 + shift ** 2), params.eps_B * shift * np.sqrt(n[1:]))


#: name -> (the eigensystem, the block of one sector of size s built on its own)
#: Landau's diagonal blocks go to no solver: its eigensystem is held against the serial loop itself
EIGENSYSTEMS = {
    "landau": (sectors.landau_sector_eigensystem,
               lambda s, p: np.diag(p.eps_B * (np.arange(s) + 0.5))),
    "jc": (sectors.jc_sector_eigensystem, jc_band),
    "quaternionic": (sectors.quaternionic_sector_eigensystem, quaternionic_tridiagonal),
    "quaternionic-E2": (lambda nmax, p: sectors.quaternionic_sector_eigensystem(nmax, p, 2.0),
                        quaternionic_tridiagonal),
}


def serial_run(name, nmax, params, monkeypatch):
    """The eigensystem ``name`` with :func:`serial_sector_eigensystem` in place of the pooled solver."""
    run, block = EIGENSYSTEMS[name]
    if name == "landau":
        return serial_sector_eigensystem(nmax, lambda s: block(s, params))[1:]
    calls = []

    def serial(nmax, d, e, energy=None, columns=None):
        calls.append(1)
        return serial_sector_eigensystem(nmax, lambda s: block(s, params), energy, columns)

    with monkeypatch.context() as m:
        m.setattr(sectors, "_sector_eigensystem", serial)
        out = run(nmax, params)
    assert calls == [1]
    return out


def expanded(nmax, out):
    """An eigensystem's output with its solves listed per sector (:func:`per_sector`)."""
    return (per_sector(nmax, out[0]),) + out[1:] if len(out) == 3 else out


def flat_bytes(out):
    """Every array, None and sector index of an eigensystem's output, as bytes."""
    if isinstance(out, (tuple, list)):
        return [x for item in out for x in flat_bytes(item)]
    return [None if out is None else np.asarray(out).tobytes()]


@contextlib.contextmanager
def blas_on(threads):
    """numpy's OpenBLAS on ``threads`` threads, at most the usable CPUs, inside the block.

    None keeps its default count. More threads than CPUs oversubscribe them:
    on two CPUs a Nmax-140 quaternionic solve took 37 ms on one or two
    threads and 3.8-5.5 s on three.
    """
    lib = sectors._numpy_openblas()
    if threads is None or lib is None:
        yield
        return
    default = lib.scipy_openblas_get_num_threads64_()
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    lib.scipy_openblas_set_num_threads64_(min(threads, usable))
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(default)


@pytest.mark.parametrize("blas_threads", [1, 3, None])
@pytest.mark.parametrize("name", EIGENSYSTEMS)
@pytest.mark.parametrize("nmax", [0, 1, 2, 13, 40, 140])
def test_pooled_eigensystems_match_the_serial_loop_bit_for_bit(nmax, name, blas_threads, monkeypatch):
    # blocks sliced from b = 0, with counts from one Sturm pass over its bands,
    # and solved with the BLAS on one thread, on three (or every usable CPU, where
    # fewer) and on its default count, against blocks built for each size on their own
    run = EIGENSYSTEMS[name][0]
    params = ModelParams(c_b=0.6, r=(0.6, 0.0, -0.8))
    with blas_on(blas_threads):
        new = expanded(nmax, run(nmax, params))
    assert flat_bytes(new) == flat_bytes(serial_run(name, nmax, params, monkeypatch))


def test_sector_commands_start_no_thread(tmp_path, monkeypatch):
    # spectrum of every model and the quaternionic invariants solve their
    # sectors in the calling thread
    started = []

    def refuse(thread):
        started.append(thread.name)
        raise RuntimeError("a sector command started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for model in ("landau", "jaynes_cummings", "quaternionic"):
        argv = ["--model", model, "--nmax", "40", "--out", str(tmp_path / model), "spectrum"]
        assert cli.main(argv) == cli.EXIT_OK, model
    cfg = tmp_path / "quaternionic.cfg"
    cfg.write_text("model = quaternionic\nnmax = 40\nfermi_energy = 2\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "invariants"), "invariants"]) == cli.EXIT_OK
    assert started == []


def test_sector_solve_error_propagates(monkeypatch, tmp_path, capsys):
    # LAPACK giving up on one sector size, on the whole or the windowed solve,
    # reaches the caller and ends the command in exit 3; at these couplings and
    # Nmax 20 no quaternionic sector takes a shared solve
    eigh = np.linalg.eigh

    def failing(a, *args, **kwargs):
        if len(a) == 14:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    tridiagonal = sectors._tridiagonal_eigh

    def failing_tridiagonal(lib, d, e, count=None):
        if len(d) == 14:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return tridiagonal(lib, d, e, count)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(sectors, "_tridiagonal_eigh", failing_tridiagonal)
    params = ModelParams(c_b=0.6, r=(0.6, 0.0, -0.8))
    for run in (lambda: sectors.jc_sector_eigensystem(20, params),
                lambda: sectors.quaternionic_sector_eigensystem(20, params, 2.0)):
        with pytest.raises(np.linalg.LinAlgError):
            run()
    for model, command, extra in (("jaynes_cummings", "spectrum", ""),
                                  ("quaternionic", "invariants", "fermi_energy = 2\nparams.c_b = 0.6\n"
                                   "params.r0 = 0.6\nparams.r1 = 0\nparams.r2 = -0.8\n")):
        cfg = tmp_path / f"{model}.cfg"
        cfg.write_text(f"model = {model}\nnmax = 20\n{extra}")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path), command]) == cli.EXIT_NOCONV
        assert "non-convergence: Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["landau", "jc", "quaternionic-E2"])
def test_eigh_fallback_matches_the_serial_loop_bit_for_bit(name, monkeypatch):
    # without numpy's OpenBLAS the band matrices go to eigh, windows sliced from it
    run = EIGENSYSTEMS[name][0]
    params = ModelParams(c_b=0.6, r=(0.6, 0.0, -0.8))
    monkeypatch.setattr(sectors, "_numpy_openblas", lambda: None)
    monkeypatch.setattr(sectors, "_tridiagonal_eigh", None)
    for nmax in (0, 13, 140):
        new = expanded(nmax, run(nmax, params))
        assert flat_bytes(new) == flat_bytes(serial_run(name, nmax, params, monkeypatch))


def test_tridiagonal_eigh_reports_lapack_failure():
    lib = sectors._numpy_openblas()
    if lib is None:
        pytest.skip("numpy's LAPACK is not the OpenBLAS of its wheels")
    w, v = sectors._tridiagonal_eigh(lib, np.array([2.0]), np.array([]))
    assert (w.tolist(), v.tolist()) == ([2.0], [[1.0]])
    for count in (None, 1):  # dstevd and dstevr
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            sectors._tridiagonal_eigh(lib, np.array([1.0, np.nan, 0.0]), np.array([0.5, 0.5]), count)


def spy_solver(monkeypatch):
    """(d, e, per-sector results) of every call of the sector solver, in call order."""
    calls = []
    solver = sectors._sector_eigensystem

    def spy(nmax, d, e, energy=None, columns=None):
        out = solver(nmax, d, e, energy, columns)
        calls.append((d, e, out[0]))
        return out

    monkeypatch.setattr(sectors, "_sector_eigensystem", spy)
    return calls


@pytest.mark.parametrize("params", SPECTRUM_PARAMS)
@pytest.mark.parametrize("nmax", [6, 20])
def test_jc_bands_are_the_gauged_sector_blocks(nmax, params, monkeypatch):
    # each level reordered to (n down, n up) and the down states multiplied by i
    # turn the record's sector block into the band matrix the solver is given
    calls = spy_solver(monkeypatch)
    sectors.jc_sector_eigensystem(nmax, params)
    (d, e, _), = calls
    for s in range(1, nmax + 2):
        block = sectors.JC.hamiltonian(sectors.lowering_block(s), np.arange(s), params)
        order = np.arange(2 * s).reshape(s, 2)[:, ::-1].ravel()
        gauge = np.tile([1j, 1.0], s)
        gauged = gauge.conj()[:, None] * block[np.ix_(order, order)] * gauge
        assert np.abs(gauged - band_matrix(d[:2 * s], e[:2 * s - 1])).max() <= 1e-14


@pytest.mark.parametrize("model", ["landau", "jaynes_cummings", "quaternionic"])
def test_spectrum_solves_no_sector_block_with_eigh(model, tmp_path, monkeypatch):
    # with numpy's OpenBLAS every sector goes to dstevd; the one eigh left is
    # the quaternionic record's fixed 2 x 2 spin rotation
    if sectors._numpy_openblas() is None:
        pytest.skip("numpy's LAPACK is not the OpenBLAS of its wheels")
    eigh, shapes = np.linalg.eigh, []

    def refuse(a, *args, **kwargs):
        shapes.append(np.shape(a))
        if np.shape(a) != (2, 2):
            raise AssertionError(f"eigh of a {np.shape(a)} matrix")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    argv = ["--model", model, "--nmax", "40", "--out", str(tmp_path), "spectrum"]
    assert cli.main(argv) == cli.EXIT_OK
    assert shapes == ([(2, 2)] if model == "quaternionic" else [])


@pytest.mark.parametrize("params", SPECTRUM_PARAMS)
def test_jc_sector_eigenvalues_match_their_closed_form(params, monkeypatch):
    # sector s: E_0, the pairs E_j+- for j = 1..s-1 and the unpaired top (s - 1, up)
    calls = spy_solver(monkeypatch)
    nmax = 140
    sectors.jc_sector_eigensystem(nmax, params)
    (_, _, secs), = calls
    assert [bs for bs, _, _, _ in secs] == [range(b, b + 1) for b in range(nmax + 1)]
    for bs, w, _, _ in secs:
        s = nmax + 1 - bs.start
        top = params.eps_B * (s - 0.5 + params.c_b ** 2)
        closed = np.sort(np.append(models.jc_spectrum(params, s - 1).eigenvalues, top))
        np.testing.assert_allclose(w, closed, rtol=1e-12, atol=0)


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


def loop_curvature(V, spin):
    """The per-sector curvature core on a whole sector of size V.shape[0] // spin."""
    root = np.repeat(np.sqrt(np.arange(1.0, V.shape[0] // spin)), spin)[:, None]
    up = np.zeros_like(V)
    up[spin:] = root * V[:-spin]
    down = np.zeros_like(V)
    down[:-spin] = root * V[spin:]
    raise_core = V.conj().T @ up
    return (
        up.conj().T @ up - down.conj().T @ down
        + raise_core @ raise_core.conj().T - raise_core.conj().T @ raise_core
    )


def loop_shell_sums(nmax, columns, spin, xi):
    """Shell sums sector by sector from per-sector columns (b, V_b)."""
    rank = np.zeros(nmax + 1)
    chern = np.zeros(nmax + 1)
    for b, V in columns:
        if not V.shape[1]:
            continue
        s = V.shape[0] // spin
        weights = 1.0 / (np.repeat(np.arange(s), spin) + b + 2.0 + 2.0 * xi)
        K = loop_curvature(V, spin)
        for sums, diag in ((rank, np.einsum("kp,kp->k", V, V.conj())),
                           (chern, np.einsum("kp,pq,kq->k", V, K, V.conj()))):
            sums[b:b + s] += (diag.real * weights).reshape(s, spin).sum(axis=1)
    return rank, chern


def loop_twist(Z, b, twist):
    spin = len(twist)
    s = Z.shape[0] // spin
    return np.einsum(
        "n,ab,nbr->nar", sectors._i_power(np.arange(s) + b), twist, Z.conj().reshape(s, spin, -1)
    ).reshape(spin * s, -1)


def loop_symmetry_residual(columns, twist):
    """max |U conj(P) U^dagger - P| sector by sector from per-sector columns (b, V_b)."""
    worst = 0.0
    for b, V in columns:
        UV = loop_twist(V, b, twist)
        rows = (V != 0).any(axis=1) | (UV != 0).any(axis=1)
        UV, V = UV[rows], V[rows]
        worst = max(worst, float(np.abs(UV @ UV.conj().T - V @ V.conj().T).max(initial=0.0)))
    return worst


def landau_columns(nmax, j):
    """Per-sector columns (b, V_b) of the level-j projection: the unit vector at n1 = j."""
    return [(b, np.eye(nmax + 1 - b, 1, -j, dtype=complex)) for b in range(nmax + 1 - j)]


def jc_sector_vector(s, j, theta):
    """Eigenvector column (spin fastest) of the level-(j, theta) pair state."""
    v = np.zeros(2 * s, dtype=complex)
    v[2 * (j - 1) + 0] = np.sin(theta)
    v[2 * j + 1] = 1j * np.cos(theta)
    return v


def jc_columns(nmax, j, theta):
    """Per-sector columns (b, V_b) of the spin-orbit pair projection P_j^theta."""
    return [(b, jc_sector_vector(nmax + 1 - b, j, theta)[:, None]) for b in range(nmax + 1 - j)]


def loop_jc_closed_form(nmax, j, theta):
    """The spin-trace closed-form residual on the b = 0 sector's whole column."""
    V = jc_columns(nmax, j, theta)[0][1]
    level = np.array([j - 1, j])
    Rspin = np.einsum(
        "iar,jar->ij",
        (V @ loop_curvature(V, 2)).reshape(-1, 2, 1)[level], V.conj().reshape(-1, 2, 1)[level],
    ) / 1j
    target = np.diag([-1j * np.sin(theta) ** 2, -1j * np.cos(theta) ** 2])
    inner = level <= nmax - sectors.LEVEL_MARGIN
    return float(np.abs(Rspin - target)[np.ix_(inner, inner)].max(initial=0.0))


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def check_level_stacks(nmax):
    # j = 0, 1 clip the window at n0 = 0, j = Nmax - 3 puts it near the top
    # sectors, at j = Nmax - 1 the shared run is one sector and at j = Nmax
    # only the top sector, whose top cuts the window, is left
    for j in (0, 1, 2, nmax - 3, nmax - 1, nmax):
        for xi in (0.0, 0.5, 1.0):
            new = sectors.landau_shell_sums(nmax, j, xi)
            old = loop_shell_sums(nmax, landau_columns(nmax, j), 1, xi)
            assert all(map(same_bytes, new, old)), (j, xi)
        assert same_bytes(topo._theta_projection_residual(nmax, j),
                          loop_symmetry_residual(landau_columns(nmax, j), sectors.THETA_TWIST))
        if j < 1:
            continue
        for theta in jc_angles(j, 0.4):
            for xi in (0.0, 0.5, 1.0):
                new = sectors.jc_shell_sums(nmax, j, theta, xi)
                old = loop_shell_sums(nmax, jc_columns(nmax, j, theta), 2, xi)
                assert all(map(same_bytes, new[:2], old)), (j, theta, xi)
                assert same_bytes(new[2], loop_jc_closed_form(nmax, j, theta))
            assert same_bytes(topo._jc_symmetry_residual(nmax, j, theta),
                              loop_symmetry_residual(jc_columns(nmax, j, theta), sectors.JC.twist))


@pytest.mark.parametrize("nmax", [12, 13, 40, 140, 300])
def test_stacks_match_the_sector_loop_bit_for_bit(nmax):
    check_level_stacks(nmax)


def test_one_stack_over_every_sector_fails_the_sector_loop_check(monkeypatch):
    # a mutant that keeps the top sector b = Nmax - j in the shared stack masks
    # a+ out of level j + 1 in every sector, and the check above catches it
    monkeypatch.setattr(sectors, "_level_stacks",
                        lambda nmax, j, n0, V: [(range(nmax + 1 - j), n0, V)] if j <= nmax else [])
    with pytest.raises(AssertionError):
        check_level_stacks(40)


@pytest.mark.parametrize("nmax", [12, 40])
def test_a_level_past_nmax_has_no_stack(nmax):
    # no sector holds level Nmax + 1: no stack, and zero sums as the loop gives
    assert sectors.landau_stacks(nmax, nmax + 1) == []
    assert sectors.jc_stacks(nmax, nmax + 1, 0.3) == []
    for new in (sectors.landau_shell_sums(nmax, nmax + 1, XI),
                sectors.jc_shell_sums(nmax, nmax + 1, 0.3, XI)):
        assert all(map(same_bytes, new[:2], loop_shell_sums(nmax, [], 1, XI)))


@pytest.mark.parametrize("spin", [1, 2])
@pytest.mark.parametrize("nmax", [12, 40])
def test_one_sector_stacks_match_the_sector_loop_bit_for_bit(nmax, spin):
    # a list of one-sector stacks, rank-2 columns on every row of each
    # sector, zero past its top: each shell sums many sectors, in ascending b
    # as the loop does
    rng = np.random.default_rng(nmax + spin)
    V = np.zeros((nmax + 1, spin * (nmax + 1), 2), dtype=complex)
    for b in range(nmax + 1):
        n = spin * (nmax + 1 - b)
        V[b, :n] = random_columns(rng, n, min(2, n))
    columns = [(b, V[b, :spin * (nmax + 1 - b)]) for b in range(nmax + 1)]
    new = sectors.shell_sums(nmax, [(range(b, b + 1), 0, V[b]) for b in range(nmax + 1)], spin, XI)
    assert all(map(same_bytes, new, loop_shell_sums(nmax, columns, spin, XI)))


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_fermi_stacks_match_the_sector_loop_bit_for_bit(energy):
    for params in QUAT_CASES:
        secs, _, _ = sectors.quaternionic_sector_eigensystem(40, params, energy)
        columns = [(b, V) for b, _, V, _ in per_sector(40, secs)]
        stacks = sectors.fermi_stacks(secs)
        new = sectors.quaternionic_shell_sums(40, params, stacks)
        assert all(map(same_bytes, new, loop_shell_sums(40, columns, 2, params.xi)))
        assert same_bytes(topo._quaternionic_symmetry_residual(stacks),
                          loop_symmetry_residual(columns, sectors.QUATERNIONIC.twist))


@pytest.mark.parametrize("energy", [1.0, 2.0])
@pytest.mark.parametrize("nmax", [40, 140])
def test_trimmed_fermi_stacks_match_whole_columns_bit_for_bit(nmax, energy):
    # the columns are cut after their last nonzero level and one zero level;
    # a sector with no column (r = 0: eps_B 1.3 puts its one level above E = 1)
    # keeps V whole; the stack of a run of sectors holds one cut V for all of them
    trimmed = empty = 0
    for params in QUAT_CASES:
        secs, _, _ = sectors.quaternionic_sector_eigensystem(nmax, params, energy)
        whole = [(range(b, b + 1), 0, V) for b, _, V, _ in per_sector(nmax, secs)]
        stacks = sectors.fermi_stacks(secs)
        sector_rows = [(b, V) for bs, _, V in stacks for b in bs]
        assert [b for b, _ in sector_rows] == [bs.start for bs, _, _ in whole]
        for (_, V), (_, _, W) in zip(sector_rows, whole):
            assert len(V) % 2 == 0 and same_bytes(V, W[:len(V)]) and not W[len(V):].any()
            trimmed += len(V) < len(W)
            empty += W.shape[1] == 0 and V.shape == W.shape
        assert all(map(same_bytes, sectors.shell_sums(nmax, stacks, 2, params.xi),
                       sectors.shell_sums(nmax, whole, 2, params.xi)))
        twist = sectors.QUATERNIONIC.twist
        assert same_bytes(sectors.symmetry_residual(stacks, twist),
                          sectors.symmetry_residual(whole, twist))
    assert trimmed > 0
    assert empty > 0 or energy == 2.0


def test_curvature_calls_do_not_grow_with_nmax(monkeypatch):
    # a level projection is two stacks whatever Nmax, not one call per sector
    calls = []
    curvature = sectors._curvature
    monkeypatch.setattr(sectors, "_curvature", lambda *args: calls.append(1) or curvature(*args))
    params = ModelParams(c_b=0.4)
    counts = {}
    for nmax in (40, 300):
        for name, run in (("landau", lambda: topo.invariants_landau(1, nmax, params)),
                          ("jc", lambda: topo.invariants_jc(1, "+", nmax, params))):
            calls.clear()
            run()
            counts[name, nmax] = len(calls)
    assert counts["landau", 40] == counts["landau", 300] > 0
    assert counts["jc", 40] == counts["jc", 300] > 0


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
    K = sectors._curvature(s - 1, (range(1), 0, V), spin)
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
    K = sectors._curvature(s - 1, (range(1), 0, V), spin)
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
        V = jc_sector_vector(s, j, theta)[:, None]
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


def dense_jc_symmetry_residual(nmax, j, vector):
    """The Xi residual with U as a matrix, from the column vector(s) of each sector holding j."""
    worst = 0.0
    for b in range(nmax + 1):
        s = nmax + 1 - b
        if j >= s:
            continue
        v = vector(s)
        P = np.outer(v, v.conj())
        U = np.diag(np.kron((1j) ** (np.arange(s) + b), np.array([1.0, 1j])))
        worst = max(worst, np.abs(U @ P.conj() @ U.conj().T - P).max())
    return worst


def test_jc_symmetry_residual_matches_dense():
    theta = jc_angles(2, 0.4)[0]
    res = topo._jc_symmetry_residual(NMAX, 2, theta)
    ref = dense_jc_symmetry_residual(NMAX, 2, lambda s: jc_sector_vector(s, 2, theta))
    assert res == pytest.approx(ref, abs=1e-13)
    assert res <= topo.SYMMETRY_TOL
    # a stack of random dense rows per sector breaks the symmetry: both forms
    # give the same O(1) residual; rows past each sector's top stay zero
    rng = np.random.default_rng(5)
    vectors = {s: rng.normal(size=2 * s) + 1j * rng.normal(size=2 * s) for s in range(1, NMAX + 2)}
    V = np.zeros((NMAX - 1, 2 * (NMAX + 1), 1), dtype=complex)  # sectors b = 0..NMAX - 2
    for b in range(len(V)):
        V[b, :2 * (NMAX + 1 - b), 0] = vectors[NMAX + 1 - b]
    res = sectors.symmetry_residual([(range(b, b + 1), 0, V[b]) for b in range(len(V))], sectors.JC.twist)
    ref = dense_jc_symmetry_residual(NMAX, 2, vectors.get)
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


def test_symmetry_labels_from_twists():
    assert sectors.symmetry_label(sectors.THETA_TWIST) == "Real(+1)"
    assert sectors.symmetry_label(sectors.JC.twist) == "Real(+1)"
    # squares to +1 as well, though it maps c_b -> -c_b (see models)
    assert sectors.symmetry_label(np.diag([1, -1j])) == "Real(+1)"
    assert sectors.symmetry_label(sectors.QUATERNIONIC.twist) == "Quaternionic(-1)"
    with pytest.raises(ValueError, match="not"):
        sectors.symmetry_label(np.array([[0, 1], [1j, 0]]))  # unitary, squares to diag(-i, i)


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
    res = sectors.symmetry_residual([(range(b, b + 1), 0, V) for b, V in columns], twist)
    assert res > 1e-1
    assert res == pytest.approx(dense_symmetry_residual(columns, twist), rel=1e-12)
    # one spin component alone breaks Xi', which moves it to the other spin
    e = np.zeros((2 * spin, 1), dtype=complex)
    e[0] = 1.0
    expected = 1.0 if name == "Xi-prime" else 0.0
    assert sectors.symmetry_residual([(range(3, 4), 0, e)], twist) == expected


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
    """Sector block eps_B (A+ A- + 1/2), A- = a x 1 + c_b 1 x M, spin fastest."""
    A_minus = (np.kron(sectors.lowering_block(s), np.eye(2))
               + params.c_b * np.kron(np.eye(s), sectors.QUATERNIONIC.lowering(params)))
    return params.eps_B * (A_minus.conj().T @ A_minus + 0.5 * np.eye(2 * s))


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
def test_record_gammas_fix_the_nonabelian_field(params):
    # the field's su(2) part -i [gamma_1, gamma_2]: 2 sigma_3 for the spin-orbit
    # record, none for the quaternionic one, whose gammas commute
    g1, g2 = sectors.JC.gammas(params)
    assert np.abs(-1j * (g1 @ g2 - g2 @ g1) - 2.0 * sectors.SIGMA3).max() <= 1e-15
    g1, g2 = sectors.QUATERNIONIC.gammas(params)
    assert np.abs(g1 @ g2 - g2 @ g1).max() <= 1e-14


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
def test_rotation_diagonalizes_record_lowering(params):
    # W and mu as the rotated solver forms them; M from the quaternionic record
    lam, W = np.linalg.eigh(params.r[1] * sectors.SIGMA1 + params.r[2] * sectors.SIGMA3)
    mu = np.exp(1j * np.pi / 4) * params.r[0] + np.exp(-1j * np.pi / 4) * lam
    M = sectors.QUATERNIONIC.lowering(params)
    assert np.abs(W.conj().T @ M @ W - np.diag(mu)).max() <= 1e-15
    assert np.abs(np.abs(mu) - np.linalg.norm(params.r)).max() <= 1e-15


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
    for (bs, w, V, flags), (db, dw, _, dflags) in zip(secs, dense):
        assert bs == range(db, db + 1) and V is None  # no energy: every sector solved, no eigenvectors kept
        np.testing.assert_allclose(w, dw, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(flags, dflags)


def whole_sector_eigensystem(nmax, params, energy, monkeypatch):
    """The quaternionic eigensystem at an energy with every sector solved whole.

    A Sturm count of every eigenvalue makes each window the whole sector.
    """
    with monkeypatch.context() as m:
        m.setattr(sectors, "_sturm_counts", lambda d, e, energy: np.arange(1, len(d) + 1))
        return sectors.quaternionic_sector_eigensystem(nmax, params, energy)


def has_gap(energy, evs, flags, params):
    """The gap test of the quaternionic invariants: False where they raise NoGapError."""
    gaps = models._gaps_from_levels(evs[flags], models.GAP_FRACTION * params.eps_B)
    return any(g.contains(energy) for g in gaps)


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
@pytest.mark.parametrize("nmax", [0, 1, 2, 13, 40, 140])
def test_windowed_solve_matches_the_whole_solve(nmax, params, monkeypatch):
    # below the spectrum, at an eigenvalue, and at E = 1, 2, 3: the same gap
    # decision, the same flags and eigenvalues on the solved pairs, and the
    # same Fermi projection in every sector, shared solves included
    _, evs, _ = sectors.quaternionic_sector_eigensystem(nmax, params)
    for energy in (0.0, float(evs[len(evs) // 8]), 1.0, 2.0, 3.0):
        secs, evs_w, flags_w = sectors.quaternionic_sector_eigensystem(nmax, params, energy)
        whole, evs_f, flags_f = whole_sector_eigensystem(nmax, params, energy, monkeypatch)
        assert has_gap(energy, evs_w, flags_w, params) == has_gap(energy, evs_f, flags_f, params)
        for (b, w, V, fl), (bf, wf, Vf, flf) in zip(per_sector(nmax, secs), per_sector(nmax, whole),
                                                    strict=True):
            assert b == bf and len(w) <= len(wf)
            np.testing.assert_array_equal(fl, flf[:len(w)])
            assert np.abs(w - wf[:len(w)]).max() <= 1e-13 * params.eps_B
            assert V.shape == Vf.shape
            assert np.abs(V @ V.conj().T - Vf @ Vf.conj().T).max(initial=0.0) <= 1e-12


def own_solves(nmax, params, energy, monkeypatch):
    """Each quaternionic sector at the energy solved on its own, as (b, eigenvalues, columns, flags)."""
    def serial(nmax, d, e, energy=None, columns=None):
        return serial_sector_eigensystem(nmax, lambda s: quaternionic_tridiagonal(s, params), energy,
                                         columns, share=False)

    with monkeypatch.context() as m:
        m.setattr(sectors, "_sector_eigensystem", serial)
        return sectors.quaternionic_sector_eigensystem(nmax, params, energy)[0]


def check_shared_sectors(nmax, params, monkeypatch):
    """Every sector of a shared solve against its own solve; returns how many sectors shared one.

    The same count of eigenvalues below the energy, eigenvalues within
    1e-13 eps_B, V V^dagger within 1e-12 and edge mass below
    INTERIOR_MASS, below the spectrum, at an eigenvalue and at E = 1, 2, 3.
    The eigenvalue comes from the sectors of Nmax <= 40, the leading blocks
    of every larger truncation.
    """
    shared = 0
    _, evs, _ = sectors.quaternionic_sector_eigensystem(min(nmax, 40), params)
    for energy in (0.0, float(evs[len(evs) // 8]), 1.0, 2.0, 3.0):
        secs, _, _ = sectors.quaternionic_sector_eigensystem(nmax, params, energy)
        if len(secs[0][0]) == 1:
            continue  # the shared run starts at b = 0: here every sector is solved on its own
        own = own_solves(nmax, params, energy, monkeypatch)
        run, w, V, _ = secs[0]
        for b in run[1:]:
            s = nmax + 1 - b
            _, w_own, V_own, fl_own = own[b]
            assert (w < energy).sum() == (w_own < energy).sum(), (b, energy)
            assert len(w) <= len(w_own) and fl_own[:len(w)].all()
            assert np.abs(w - w_own[:len(w)]).max() <= 1e-13 * params.eps_B, (b, energy)
            cut = V[:2 * s]
            rows = (cut != 0).any(axis=1) | (V_own != 0).any(axis=1)
            P, P_own = cut[rows] @ cut[rows].conj().T, V_own[rows] @ V_own[rows].conj().T
            assert cut.shape == V_own.shape and np.abs(P - P_own).max(initial=0.0) <= 1e-12
            edge = np.abs(cut[2 * max(s - sectors.EDGE_SHELLS, 0):]) ** 2
            assert edge.sum(axis=0).max(initial=0.0) < sectors.INTERIOR_MASS, (b, energy)
            shared += 1
    return shared


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
@pytest.mark.parametrize("nmax", [0, 1, 2, 13, 40, 140, 400])
def test_shared_sectors_match_their_own_solve(nmax, params, monkeypatch):
    # the b = 0 window serves the sectors that hold it to rounding
    shared = check_shared_sectors(nmax, params, monkeypatch)
    assert shared > 0 or nmax < 40


def test_sharing_past_the_edge_shells_fails_the_shared_sector_check(monkeypatch):
    # a mutant rule without s >= t + EDGE_SHELLS shares the b = 0 window with
    # every sector of the same Sturm count, and the check above catches it
    def mutant(nmax, spin, below, v, flags):
        counts = below[spin - 1::spin]
        return nmax + 1 - int(np.searchsorted(counts, counts[-1])) if flags.all() else 1

    monkeypatch.setattr(sectors, "_shared_run", mutant)
    with pytest.raises(AssertionError):
        check_shared_sectors(40, QUAT_CASES[0], monkeypatch)


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
def test_fermi_projection_solves_few_sectors(params, monkeypatch):
    # at Nmax 140, E = 2 the shared solve leaves at most 40 of the 141 sectors to solve
    solve, calls = sectors._solve_sector, []
    monkeypatch.setattr(sectors, "_solve_sector", lambda *args: calls.append(1) or solve(*args))
    sectors.quaternionic_sector_eigensystem(140, params, 2.0)
    assert 0 < len(calls) <= 40


@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
def test_fermi_stacks_keep_under_half_the_sector_rows(params):
    # inverse iteration leaves tiny entries up to each sector's top; set to zero,
    # they no longer hold the trim there
    secs, _, _ = sectors.quaternionic_sector_eigensystem(140, params, 2.0)
    kept = sum(len(bs) * len(V) for bs, _, V in sectors.fermi_stacks(secs))
    assert kept < sum(V.shape[0] for _, _, V, _ in per_sector(140, secs)) / 2


def rotated_and_dense_columns(energy):
    """Fermi-projection columns of both paths, for every case at Nmax 6, 20 and 40."""
    for params in QUAT_CASES:
        for nmax in (6, 20, 40):
            secs, _, _ = sectors.quaternionic_sector_eigensystem(nmax, params, energy)
            dense = dense_quaternionic_sectors(nmax, params)
            columns = [(b, v[:, w <= energy]) for b, w, v, _ in dense]
            for (_, _, V, _), (_, dV) in zip(per_sector(nmax, secs), columns, strict=True):
                assert V.shape == dV.shape
                P = V @ V.conj().T
                assert np.abs(P - dV @ dV.conj().T).max() <= 1e-12
                assert np.abs(P @ P - P).max() <= 1e-12
            yield nmax, params, secs, columns


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_quaternionic_shell_sums_match_dense(energy):
    for nmax, params, secs, columns in rotated_and_dense_columns(energy):
        rank, chern = sectors.quaternionic_shell_sums(nmax, params, sectors.fermi_stacks(secs))
        ref_rank, ref_chern = dense_shell_sums(nmax, columns, 2, params.xi)
        np.testing.assert_allclose(rank, ref_rank, rtol=0, atol=1e-12)
        np.testing.assert_allclose(chern, ref_chern, rtol=0, atol=1e-12)


@pytest.mark.parametrize("energy", [1.0, 2.0])
def test_quaternionic_symmetry_residual_matches_dense(energy):
    for _, _, secs, columns in rotated_and_dense_columns(energy):
        res = topo._quaternionic_symmetry_residual(sectors.fermi_stacks(secs))
        assert res == pytest.approx(dense_quaternionic_symmetry_residual(columns), abs=1e-13)
        assert res <= topo.SYMMETRY_TOL
    # random orthonormal columns break the symmetry; both forms must still agree
    rng = np.random.default_rng(int(energy))
    secs, _, _ = sectors.quaternionic_sector_eigensystem(NMAX, QUAT_CASES[0], energy)
    broken = [(range(b, b + 1), w, random_columns(rng, V.shape[0], V.shape[1]), fl)
              for b, w, V, fl in per_sector(NMAX, secs)]
    res = topo._quaternionic_symmetry_residual(sectors.fermi_stacks(broken))
    ref = dense_quaternionic_symmetry_residual([(bs.start, V) for bs, _, V, _ in broken])
    assert res > 1e-1
    assert res == pytest.approx(ref, rel=1e-12)


#: each spin-1/2 record's dense oracle (Hamiltonian, symmetry, class) and a twist that breaks it
DENSE_SYMMETRIES = {
    "JC": (models.jc_hamiltonian, models.jc_trs, "Real", np.diag([1, -1j])),
    "QUATERNIONIC": (models.quaternionic_hamiltonian, models.quaternionic_trs, "Quaternionic",
                     np.diag([1, 1j])),
}


@pytest.mark.parametrize("eps_B", [1.0, 2e7])
@pytest.mark.parametrize("params", QUAT_CASES, ids=QUAT_IDS)
@pytest.mark.parametrize("nmax", [6, 12, 20])
def test_block_symmetry_residual_matches_dense(nmax, params, eps_B, monkeypatch):
    # the symmetry of every block, read off the record's twist relation, against
    # classify_symmetry on the dense H: the relation holds exactly where the dense
    # route finds the class, and a wrong twist fails both routes while c_b > 0 (but
    # where S = 0 makes both gammas scalar, every diagonal twist is a symmetry); at
    # c_b = 0 a wrong twist still commutes with H, and only the relation flags it
    p = dataclasses.replace(params, eps_B=eps_B)
    basis = build_basis(nmax)
    tol = topo.SYMMETRY_TOL * max(1.0, eps_B)
    for name, (hamiltonian, trs, label, wrong_twist) in DENSE_SYMMETRIES.items():
        H = hamiltonian(basis, p)
        model = getattr(sectors, name)
        assert model.twist_residual(p) == 0.0
        assert topo.classify_symmetry(H, [trs(basis)], tol=tol)[0] == label
        with monkeypatch.context() as m:  # the dense symmetry reads its twist from the record
            m.setattr(sectors, name, dataclasses.replace(model, twist=wrong_twist))
            broken = getattr(sectors, name).twist_residual(p) > topo.SYMMETRY_TOL
            found, _ = topo.classify_symmetry(H, [trs(basis)], tol=tol)
        assert broken == (name == "JC" or any(p.r[1:]))
        assert (found == "none") == (broken and p.c_b > 0)


def test_twist_residual_agrees_with_projection_residual():
    # at c_b 0.5 a twist satisfies the record's relation exactly when it leaves a
    # computed projection invariant: JC level 2+ and the quaternionic Fermi
    # projection at E = 2, where r1 = 0 makes sigma_1 a symmetry too
    nmax = 40
    p = ModelParams(xi=XI, c_b=0.5, r=(0.6, 0.0, -0.8))
    secs, _, _ = sectors.quaternionic_sector_eigensystem(nmax, p, 2.0)
    for model, stacks, twists in (
        (sectors.JC, sectors.jc_stacks(nmax, 2, jc_angles(2, p.c_b)[0]),
         [(sectors.JC.twist, True), (np.diag([1, -1j]), False)]),
        (sectors.QUATERNIONIC, sectors.fermi_stacks(secs),
         [(sectors.SIGMA2, True), (sectors.SIGMA1, True), (sectors.SIGMA3, False),
          (np.diag([1, 1j]), False)]),
    ):
        for twist, symmetric in twists:
            relation = dataclasses.replace(model, twist=twist).twist_residual(p)
            projection = sectors.symmetry_residual(stacks, twist)
            assert (relation <= topo.SYMMETRY_TOL) == (projection <= topo.SYMMETRY_TOL) == symmetric


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
