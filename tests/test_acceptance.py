"""Acceptance suite: the ten headline criteria at their stated tolerances.

Each test prints one pass/fail line (visible with pytest -s or in captured
output) and asserts both the stated tolerance and the runtime budget.
"""

import time

import numpy as np
import pytest

from identity_oracle import identity_pointwise
from landautrace import sectors
from landautrace.fock import (
    ModelParams,
    build_basis,
    derived_operator,
    flip_and_conjugation,
)
from landautrace.kernels import (
    Region,
    TARGET_IDENTITY,
    landau_kernel,
    verify_integral_identity,
)
from landautrace.models import (
    NoGapError,
    diagonalize_and_gaps,
    jc_hamiltonian,
    jc_spectrum,
    jc_trs,
    quaternionic_hamiltonian,
    quaternionic_trs,
)
from landautrace.singtrace import (
    dixmier_via_gamma_fit,
    dixmier_via_zeta_residue,
    q_level_sequence,
    q_resolvent_sequence,
    trace_Q_power,
    trace_Q_power_proj,
)
from landautrace.topo import (
    classify_symmetry,
    invariants_jc,
    invariants_landau,
    invariants_quaternionic,
    verify_curvature_identity,
)
from landautrace.tuv import (
    FolnerFamily,
    LandauCombination,
    compare_tuv_dixmier,
    restricted_trace,
)


class Budget:
    """Times a criterion, prints its pass/fail line, enforces the budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "pass" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name} ({elapsed:.1f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded runtime budget"
        return False


def brute_trace_q_power(s, xi, shells=2000):
    """Tr (Q + 2 xi)^-s: the shell sum of (l + 1) (l + 2 + 2 xi)^-s and its Euler-Maclaurin tail."""
    ell = np.arange(shells, dtype=float)
    head = np.sum((ell + 1.0) / (ell + 2.0 + 2.0 * xi) ** s)
    a = float(shells)

    def g(l):
        return (l + 1.0) / (l + 2.0 + 2.0 * xi) ** s

    def gp(l):
        b = l + 2.0 + 2.0 * xi
        return b ** (-s) - s * (l + 1.0) * b ** (-s - 1.0)

    def gppp(l):
        b = l + 2.0 + 2.0 * xi
        return (
            -3.0 * s * (s + 1.0) * b ** (-s - 2.0)
            + s * (s + 1.0) * (s + 2.0) * (l + 1.0) * b ** (-s - 3.0)
        )

    # exact integral int_a^inf (l+1)(l+c)^-s dl with u = l + c:
    c = 2.0 + 2.0 * xi
    u = a + c
    integral = u ** (2.0 - s) / (s - 2.0) + (1.0 - c) * u ** (1.0 - s) / (s - 1.0)
    tail = integral + 0.5 * g(a) - gp(a) / 12.0 + gppp(a) / 720.0
    return head + tail


def test_ac01_closed_form_traces():
    with Budget("AC-1 closed-form traces vs brute-force shell sums (1e-10 rel)", 1.0):
        for s in (2.5, 3.0, 4.0):
            for xi in (0.0, 0.5, 1.0):
                ref = brute_trace_q_power(s, xi)
                val = trace_Q_power(s, xi)
                assert abs(val - ref) <= 1e-10 * abs(ref)
        for s in (1.5, 2.0, 3.0):
            for xi in (0.0, 0.5, 1.0):
                for j in (0, 3, 7):
                    a = j + 2.0 * (1.0 + xi)
                    ks = np.arange(20000, dtype=float)
                    head = np.sum((ks + a) ** (-s))
                    b = 20000.0 + a
                    tail = b ** (1 - s) / (s - 1) + 0.5 * b ** (-s) + s * b ** (-s - 1) / 12.0
                    tail -= s * (s + 1) * (s + 2) * b ** (-s - 3) / 720.0
                    ref = head + tail
                    val = trace_Q_power_proj(s, xi, j)
                    assert abs(val - ref) <= 1e-10 * abs(ref)


def test_ac02_dixmier_values():
    with Budget("AC-2 Dixmier values: levels -> 1 (1e-8), Q^-2 -> 1/2 (1e-6)", 5.0):
        for xi in (0.0, 0.5):
            for j in range(6):
                zeta = dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, xi, j))
                assert zeta.converged
                assert abs(zeta.value - 1.0) <= 1e-8
                fit = dixmier_via_gamma_fit(q_level_sequence(xi, j))
                assert abs(fit.value - zeta.value) <= 1e-3
        for xi in (0.0, 0.5):
            zeta = dixmier_via_zeta_residue(
                lambda s: trace_Q_power(2.0 * s, xi), tolerance=1e-6
            )
            assert abs(zeta.value - 0.5) <= 1e-6
            fit = dixmier_via_gamma_fit(q_resolvent_sequence(xi, power=2))
            assert abs(fit.value - zeta.value) <= 1e-3


def test_ac03_tuv_bridge():
    with Budget("AC-3 trace-per-unit-volume vs Dixmier on random combinations (1e-3)", 30.0):
        rng = np.random.default_rng(2024)
        disks = FolnerFamily.default("disks")
        for _ in range(5):
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            for xi in (0.0, 1.0):
                rep = compare_tuv_dixmier(coeffs, xi=xi, tolerance=1e-3)
                assert rep["ok"], rep
                rep_disk = compare_tuv_dixmier(coeffs, xi=xi, tolerance=1e-3, family=disks)
                assert rep_disk["ok"]
                assert abs(rep["rhs"] - rep_disk["rhs"]) <= 1e-3


def test_ac04_kernel_suite():
    with Budget("AC-4 kernel diagonal closed form + restricted traces (1e-6)", 20.0):
        params = ModelParams()
        target = 1.0 / (2 * np.pi)
        for j in (0, 1, 3, 6):
            for pt in ((0.0, 0.0), (1.2, -0.7), (3.0, 4.0)):
                x = np.array(pt)
                assert landau_kernel(j, x, x, params) == pytest.approx(target, rel=1e-14)
        for j in (0, 2):
            sq = Region.square(4.0)
            val = restricted_trace(LandauCombination([0.0] * j + [1.0]), sq, params)
            assert abs(val - sq.measure * target) <= 1e-6
            dk = Region.disk(3.0)
            val = restricted_trace(LandauCombination([0.0] * j + [1.0]), dk, params)
            assert abs(val - dk.measure * target) <= 1e-6


def test_ac05_curvature_identity():
    with Budget("AC-5 curvature identity residual <= 1e-10, j = 0..5, Nmax = 40", 10.0):
        params = ModelParams()
        for j in range(6):
            res = verify_curvature_identity(j, 40, params)
            assert res["curvature_identity"] <= 1e-10


def test_ac06_landau_invariants():
    with Budget("AC-6 scalar-model invariants rank = chern = 1, j = 0..5, Nmax = 120", 60.0):
        params = ModelParams()
        for j in range(6):
            rep = invariants_landau(j, 120, params)
            assert rep.rank_rounded == 1 and rep.rank_certified
            assert rep.chern_rounded == 1 and rep.chern_certified


def test_ac07_jc_model():
    with Budget("AC-7 spin-orbit model: spectra (1e-8), curvature (1e-9), invariants", 90.0):
        nmax = 40
        for c_b in (0.3, 1.0):
            params = ModelParams(c_b=c_b)
            evs, flags = sectors.jc_sector_eigensystem(nmax, params)
            interior = evs[flags]
            closed = jc_spectrum(params, nmax + 2).eigenvalues
            worst = max(np.abs(closed - e).min() for e in interior)
            assert worst <= 1e-8
        for c_b in (0.3, 1.0):
            params = ModelParams(c_b=c_b)
            for j in (1, 2, 3, 4):
                for sign in ("+", "-"):
                    rep = invariants_jc(j, sign, 120, params)
                    assert rep.identity_residuals["spin_trace_closed_form"] <= 1e-9
                    assert rep.rank_rounded == 1 and rep.rank_certified
                    assert rep.chern_rounded == 1 and rep.chern_certified


def test_ac08_integral_identity():
    with Budget("AC-8 triple-kernel integral identity = pi^2/(2i) (1e-4)", 120.0):
        val = verify_integral_identity(0, cutoff=6.0, tol=1e-4)
        assert abs(val - TARGET_IDENTITY) <= 1e-4
        # the literal display fails; the discrepancy is the recorded
        # conjugate-phase value (see decisions ledger and kernels docs)
        lit = identity_pointwise(0, 6.0, 48, "literal")
        assert abs(lit - np.conj(TARGET_IDENTITY)) <= 1e-4
        assert abs(lit - TARGET_IDENTITY) > 1.0


def test_ac09_symmetry_classification():
    with Budget("AC-9 symmetry classes Real/Real/Quaternionic (1e-8) + Kramers", 30.0):
        basis = build_basis(24)
        params = ModelParams(c_b=0.5, r=(0.36, 0.48, 0.8))
        _, _, theta = flip_and_conjugation(basis)
        hb = derived_operator(basis, "H_B", params)
        label, resid = classify_symmetry(hb, [theta])
        assert label == "Real" and resid <= 1e-8
        hjc = jc_hamiltonian(basis, params)
        label, resid = classify_symmetry(hjc, [jc_trs(basis)])
        assert label == "Real" and resid <= 1e-8
        hq = quaternionic_hamiltonian(basis, params)
        label, resid = classify_symmetry(hq, [quaternionic_trs(basis)])
        assert label == "Quaternionic" and resid <= 1e-8
        table, _ = diagonalize_and_gaps(hq, 0.05)
        levels = np.sort(table.eigenvalues[table.interior])
        i = 0
        while i < len(levels):
            k = i + 1
            while k < len(levels) and levels[k] - levels[k - 1] <= 1e-8:
                k += 1
            assert (k - i) % 2 == 0, "odd Kramers cluster"
            i = k


def test_ac10_quaternionic_parity():
    with Budget("AC-10 quaternionic parity: even certified invariants or no-gap", 180.0):
        nmax = 100
        # exact doubled scalar result at zero coupling
        p0 = ModelParams(c_b=0.0, r=(0.0, 1.0, 0.0))
        rep = invariants_quaternionic(1.0, nmax, p0)
        assert rep.rank_rounded == 2 and rep.rank_certified
        assert rep.chern_rounded == 2 and rep.chern_certified
        # nonzero coupling with a certified gap
        p1 = ModelParams(c_b=0.4, r=(0.0, 1.0, 0.0))
        rep = invariants_quaternionic(1.0, nmax, p1)
        assert rep.parity_ok
        assert rep.rank_rounded % 2 == 0 and rep.rank_certified
        assert rep.chern_rounded % 2 == 0 and rep.chern_certified
        # a sweep must never produce a certified odd value: either a
        # certified even pair or the no-gap signal
        for c_b, r, energy in (
            (0.5, (0.36, 0.48, 0.8), 1.0),
            (0.7, (0.0, 1.0, 0.0), 2.0),
            (0.3, (0.6, 0.8, 0.0), 1.0),
        ):
            params = ModelParams(c_b=c_b, r=r)
            try:
                rep = invariants_quaternionic(energy, nmax, params)
            except NoGapError:
                continue
            if rep.rank_certified:
                assert rep.rank_rounded % 2 == 0
            if rep.chern_certified:
                assert rep.chern_rounded % 2 == 0
