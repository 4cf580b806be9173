import json

import numpy as np
import pytest

from landautrace import sectors
from landautrace.fock import (
    ModelParams,
    OperatorMatrix,
    build_basis,
    derived_operator,
    flip_and_conjugation,
    interior_block,
    ladder,
    landau_projection,
    tensor_with_spin,
)
from landautrace.models import (
    NoGapError,
    jc_hamiltonian,
    jc_trs,
    quaternionic_hamiltonian,
    quaternionic_trs,
)
from landautrace.singtrace import (
    GRADED_MARGIN,
    GRADED_MIN_WINDOW,
    DixmierEstimate,
    dixmier_from_shell_sums,
    dixmier_graded,
)
from landautrace.topo import (
    LEVEL_MARGIN,
    SYMMETRY_TOL,
    _certify,
    _report,
    classify_symmetry,
    invariants_jc,
    invariants_landau,
    invariants_quaternionic,
    partial_derivative,
    verify_curvature_identity,
)


# --- dense oracle: the curvature identities on the whole truncated basis ----


def dense_curvature_identity(j, basis, params):
    """Residuals of identities (a) and (b) from dense products, margin 3."""
    ell2 = params.ell_B ** 2
    P = landau_projection(basis, j)
    d1 = partial_derivative(P, 1, params)
    d2 = partial_derivative(P, 2, params)
    comm = d1.commutator(d2)
    rhs = 1.0 * P
    if j >= 1:
        rhs = rhs + float(j) * landau_projection(basis, j - 1)
    rhs = rhs - float(j + 1) * landau_projection(basis, j + 1)
    res_a = interior_block(basis, comm + (1j * ell2) * rhs, LEVEL_MARGIN).max_abs()
    res_b = interior_block(basis, P @ comm + (1j * ell2) * P, LEVEL_MARGIN).max_abs()
    return {"commutator_identity": res_a, "curvature_identity": res_b}


@pytest.fixture(scope="module")
def basis40():
    return build_basis(40)


@pytest.fixture(scope="module")
def basis60():
    return build_basis(60)


class TestPartialDerivative:
    def test_identity_has_zero_derivative(self, basis40):
        eye = OperatorMatrix(basis40, np.eye(basis40.dim))
        for i in (1, 2):
            assert partial_derivative(eye, i).max_abs() <= 1e-14

    def test_ladder_commutator_forms(self, basis40):
        # d1 P = -(l/sqrt2)([a+,P] - [a-,P]); d2 P = i(l/sqrt2)([a+,P] + [a-,P])
        basis = basis40
        j = 2
        P = landau_projection(basis, j)
        ap, am = ladder(basis, "a+"), ladder(basis, "a-")
        cp, cm = ap.commutator(P), am.commutator(P)
        d1_expect = (-1.0 / np.sqrt(2)) * (cp - cm)
        d2_expect = (1j / np.sqrt(2)) * (cp + cm)
        assert (partial_derivative(P, 1) - d1_expect).max_abs() <= 1e-12
        assert (partial_derivative(P, 2) - d2_expect).max_abs() <= 1e-12

    def test_axis_validation(self, basis40):
        with pytest.raises(ValueError):
            partial_derivative(landau_projection(basis40, 0), 3)


class TestCurvatureIdentity:
    def test_curvature_residuals(self, basis40):
        for j in range(6):
            res = verify_curvature_identity(j, basis40.nmax, ModelParams())
            assert res["curvature_identity"] <= 1e-10
            assert res["commutator_identity"] <= 1e-10

    def test_edge_level_zero(self, basis40):
        # j = 0 drops the absent level below: commutator = -i(P_0 - P_1)
        basis = basis40
        P0, P1 = landau_projection(basis, 0), landau_projection(basis, 1)
        comm = partial_derivative(P0, 1).commutator(partial_derivative(P0, 2))
        expect = -1j * (P0 - P1)
        assert interior_block(basis, comm - expect, 3).max_abs() <= 1e-10

    def test_quoted_lower_coefficient_fails(self, basis40):
        """The j-1 middle coefficient sometimes quoted is off by one.

        With j-1 instead of j on the lower-neighbor projection the
        residual is exactly 1 (the defect sits on the whole level-(j-1)
        block), and the right-hand side stops being traceless per unit
        volume: 1 + (j-1) - (j+1) = -1.
        """
        basis = basis40
        j = 2
        P = landau_projection(basis, j)
        comm = partial_derivative(P, 1).commutator(partial_derivative(P, 2))
        wrong = P + float(j - 1) * landau_projection(basis, j - 1) \
            - float(j + 1) * landau_projection(basis, j + 1)
        res = interior_block(basis, comm + 1j * wrong, 3).max_abs()
        assert res == pytest.approx(1.0, abs=1e-10)

    def test_magnetic_length_scaling(self):
        basis = build_basis(16)
        params1, params2 = ModelParams(ell_B=1.0), ModelParams(ell_B=2.0)
        # residuals normalized by ell^2 agree (here: both are zero to fp noise)
        for route, truncation in ((verify_curvature_identity, basis.nmax),
                                  (dense_curvature_identity, basis)):
            res1 = route(1, truncation, params1)
            res2 = route(1, truncation, params2)
            assert res2["curvature_identity"] / 4.0 == pytest.approx(
                res1["curvature_identity"], abs=1e-12
            )
            assert res2["commutator_identity"] / 4.0 == pytest.approx(
                res1["commutator_identity"], abs=1e-12
            )

    def test_precondition(self, basis40):
        with pytest.raises(ValueError):
            verify_curvature_identity(basis40.nmax - 2, basis40.nmax, ModelParams())

    def test_quoted_lower_coefficient_fails_per_sector(self):
        # the sector window sees the same defect of exactly 1 on level j-1
        j = 2
        level, comm = sectors._landau_curvature_window(j, 1.0)
        wrong = np.diag(1.0 * (level == j) + (j - 1.0) * (level == j - 1)
                        - (j + 1.0) * (level == j + 1))
        assert np.abs(comm + 1j * wrong).max() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("ell_B", [1.0, 1.3])
@pytest.mark.parametrize("nmax", [12, 16, 24])
def test_sector_path_matches_dense_oracle(nmax, ell_B):
    basis = build_basis(nmax)
    params = ModelParams(ell_B=ell_B)
    for j in range(min(5, nmax - LEVEL_MARGIN) + 1):
        fast = verify_curvature_identity(j, nmax, params)
        dense = dense_curvature_identity(j, basis, params)
        assert fast.keys() == dense.keys()
        for key in dense:
            assert abs(fast[key] - dense[key]) <= 1e-14


class TestLandauInvariants:
    def test_rank_and_chern_one(self):
        for j in (0, 1, 4):
            rep = invariants_landau(j, 60, ModelParams())
            assert rep.rank_rounded == 1 and rep.rank_certified
            assert rep.chern_rounded == 1 and rep.chern_certified
            assert rep.symmetry == "Real(+1)"
            assert rep.parity_ok

    @pytest.mark.parametrize("j", [25, 37, 60])
    def test_high_level_rank_certified(self, j):
        # the gamma fit's 1/N column keeps its spread from the zeta residue small
        rep = invariants_landau(j, 300, ModelParams())
        assert rep.rank_rounded == 1 and rep.rank_certified
        zeta, gamma = rep.rank_routes
        assert max(zeta.residual, abs(zeta.value - gamma.value)) <= 1e-4

    def test_xi_independence(self):
        reps = [
            invariants_landau(2, 60, ModelParams(xi=xi)) for xi in (0.0, 0.5, 1.0)
        ]
        vals = [r.chern_routes[0].value for r in reps]
        resid = sum(r.chern_routes[0].residual for r in reps)
        assert max(vals) - min(vals) <= resid
        ranks = [r.rank_routes[0].value for r in reps]
        assert max(ranks) - min(ranks) <= 1e-6

    def test_zero_operator_gives_zero(self, basis60):
        est = dixmier_graded(0.0 * landau_projection(basis60, 0), 0.0)
        assert est.value == 0.0

    def test_report_serializes(self):
        rep = invariants_landau(0, 60, ModelParams())
        payload = json.dumps(rep.to_dict())
        assert "chern" in payload

    def test_precondition(self):
        with pytest.raises(ValueError):
            invariants_landau(59, 60, ModelParams())

    def test_same_residual_keys_at_every_truncation(self):
        keys = [
            set(invariants_landau(2, nmax, ModelParams()).identity_residuals)
            for nmax in (40, 60, 120)
        ]
        assert keys[0] == keys[1] == keys[2]
        assert {"commutator_identity", "curvature_identity"} <= keys[2]


@pytest.mark.parametrize("nmax", [100, 140, 300])
def test_no_level_certifies_a_wrong_integer(nmax):
    # every Landau level and JC pair level: a certified rank or Chern number is 1.
    # The graded window once started before the density of the top levels and
    # certified a Chern number of 0 (Landau 136 and 137 at Nmax 140).
    for xi in (0.0, 1.0):
        p = ModelParams(xi=xi, c_b=0.3)
        reports = [invariants_landau(j, nmax, p) for j in range(nmax - LEVEL_MARGIN + 1)]
        reports += [invariants_jc(j, sign, nmax, p) for j in range(1, nmax - LEVEL_MARGIN) for sign in "+-"]
        for rep in reports:
            assert rep.rank_rounded == 1 or not rep.rank_certified
            assert rep.chern_rounded == 1 or not rep.chern_certified


class TestJcInvariants:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_rank_and_chern_one(self, sign):
        rep = invariants_jc(2, sign, 60, ModelParams(c_b=0.3))
        assert rep.rank_rounded == 1 and rep.rank_certified
        assert rep.chern_rounded == 1 and rep.chern_certified
        assert rep.identity_residuals["spin_trace_closed_form"] <= 1e-9
        assert rep.symmetry == "Real(+1)"

    def test_zero_coupling_matches_landau(self):
        rep0 = invariants_landau(2, 60, ModelParams())
        rep = invariants_jc(2, "+", 60, ModelParams(c_b=0.0))
        assert abs(rep.rank_routes[0].value - rep0.rank_routes[0].value) <= 1e-2
        assert abs(rep.chern_routes[0].value - rep0.chern_routes[0].value) <= 1e-2

    def test_precondition(self):
        with pytest.raises(ValueError):
            invariants_jc(0, "+", 60, ModelParams(c_b=0.3))

    def test_huge_coupling_stays_finite(self):
        # c_b sqrt(8 j) replaces 8 c_b^2 j, which overflows near c_b = 1e154
        rep = invariants_jc(1, "+", 40, ModelParams(c_b=1e154))
        assert np.isfinite(rep.rank_routes[0].value) and np.isfinite(rep.chern_routes[0].value)
        assert rep.rank_rounded == rep.chern_rounded == 1


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_certify_non_finite_estimate(value):
    est = DixmierEstimate(value, "graded", [], True, 0.0)
    one = DixmierEstimate(1.0 + 1e-9, "graded", [], True, 1e-9)
    assert _certify((est,)) == (None, False)
    assert _certify((one,)) == (1, True)
    assert _certify((one, est)) == (1, False)  # a non-finite cross-check blocks it too


def test_report_step():
    # labels come from the twist below SYMMETRY_TOL; parity, when asked, needs even integers
    one, two = (DixmierEstimate(v, "graded", [], True, 1e-3) for v in (1.0, 2.0))
    rep = _report((one,), (one,), sectors.THETA_TWIST, 0.0, {})
    assert rep.symmetry == "Real(+1)" and rep.parity_ok and rep.certified
    rep = _report((one,), (one,), sectors.QUATERNIONIC.twist, 0.0, {}, parity=True)
    assert rep.symmetry == "Quaternionic(-1)" and not rep.parity_ok and not rep.certified
    rep = _report((two,), (two,), sectors.QUATERNIONIC.twist, 2 * SYMMETRY_TOL, {}, parity=True)
    assert rep.symmetry == "none" and rep.parity_ok and rep.certified
    nan = DixmierEstimate(np.nan, "graded", [], True, 0.0)
    rep = _report((two,), (nan,), sectors.JC.twist, 0.0, {})
    assert rep.rank_certified and not rep.certified


class TestQuaternionicInvariants:
    def test_zero_coupling_doubled_landau(self):
        p = ModelParams(c_b=0.0, r=(0.0, 1.0, 0.0))
        rep = invariants_quaternionic(1.0, 60, p)
        assert rep.rank_rounded == 2 and rep.rank_certified
        assert rep.chern_rounded == 2 and rep.chern_certified
        assert rep.parity_ok and rep.certified
        assert rep.symmetry == "Quaternionic(-1)"
        assert rep.symmetry_residual <= 1e-8

    def test_moderate_coupling_even(self):
        p = ModelParams(c_b=0.4, r=(0.0, 1.0, 0.0))
        rep = invariants_quaternionic(1.0, 60, p)
        assert rep.rank_rounded % 2 == 0
        assert rep.chern_rounded % 2 == 0
        assert rep.parity_ok

    def test_no_gap_raises(self):
        p = ModelParams(c_b=0.0, r=(0.0, 1.0, 0.0))
        with pytest.raises(NoGapError):
            invariants_quaternionic(0.5, 60, p)  # energy sits on a level


class TestHarmonicColumnFit:
    """The graded estimate is the slope of the cumulated shell sums against H_l.

    Where the n2 sectors have converged the cumulated sum is exactly
    T H_l + C, so levels that converge from the first shell come out at
    rounding level, and a truncation too short to settle never certifies.
    """

    @pytest.mark.parametrize("nmax", [14, 40])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_converged_levels_are_exact(self, nmax, xi):
        estimates = [invariants_landau(j, nmax, ModelParams(xi=xi)).chern_routes[0]
                     for j in (0, 3)]
        for c_b in (0.3, 0.8):
            for sign in "+-":
                rep = invariants_jc(1, sign, nmax, ModelParams(xi=xi, c_b=c_b))
                estimates += [rep.rank_routes[0], rep.chern_routes[0]]
        for est in estimates:
            assert abs(est.value - 1.0) <= 1e-12
            assert 0.0 < est.residual <= 1e-12 and est.converged

    @pytest.mark.parametrize("nmax", [140, 300, 1000])
    def test_every_landau_level_with_a_full_window_certifies(self, nmax):
        # a rounding floor of eps max|cum|, below the rounding of the cumulated sum
        # itself, refused 73 exact levels at Nmax 300 (j = 160: 0.999999999999977
        # against a residual of 5.2e-15). Only the top levels, whose density starts
        # past the shortest window, stay unconverged
        last = nmax + 1 - GRADED_MARGIN - GRADED_MIN_WINDOW  # shells 0..nmax
        for j in range(nmax - LEVEL_MARGIN + 1):
            for sums in sectors.landau_shell_sums(nmax, j, 0.0):
                est = dixmier_from_shell_sums(sums, 0.0)
                assert _certify((est,)) == ((1, True) if j <= last else (None, False)), j

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_dense_diagonal_is_exact(self, xi):
        est = dixmier_graded(landau_projection(build_basis(30), 1), xi)
        assert abs(est.value - 1.0) <= 1e-12
        assert 0.0 < est.residual <= 1e-12

    def test_short_quaternionic_truncations_certify_no_wrong_integer(self):
        # closed form: each Landau level below E contributes a Kramers pair
        skipped = 0
        for nmax in range(13, 32):
            for c_b in (0.5, 0.8):
                for energy in (2, 3):
                    expect = 2 * sum(n + 0.5 < energy for n in range(energy))
                    for xi in (0.0, 0.5, 1.0):
                        p = ModelParams(c_b=c_b, xi=xi, r=(0.6, 0.0, -0.8))
                        try:
                            rep = invariants_quaternionic(float(energy), nmax, p)
                        except NoGapError:
                            skipped += 1
                            continue
                        case = (nmax, c_b, energy, xi)
                        assert not rep.rank_certified or rep.rank_rounded == expect, case
                        assert not rep.chern_certified or rep.chern_rounded == expect, case
        assert skipped == 12


class TestClassifySymmetry:
    def test_three_models(self):
        basis = build_basis(16)
        params = ModelParams(c_b=0.5, r=(0.36, 0.48, 0.8))
        _, _, theta = flip_and_conjugation(basis)
        hb = derived_operator(basis, "H_B", params)
        assert classify_symmetry(hb, [theta])[0] == "Real"
        hjc = jc_hamiltonian(basis, params)
        label, resid = classify_symmetry(hjc, [jc_trs(basis)])
        assert label == "Real" and resid <= 1e-8
        hq = quaternionic_hamiltonian(basis, params)
        label, resid = classify_symmetry(hq, [quaternionic_trs(basis)])
        assert label == "Quaternionic" and resid <= 1e-8

    def test_hermiticity_relative_to_scale(self):
        # at eps_B 2e7 the rounding of the dense product A+ A- exceeds 1e-10
        # absolute, not 1e-10 relative (the package builds H without it)
        basis = build_basis(12)
        p = ModelParams(eps_B=2e7, c_b=0.5, r=(0.36, 0.48, 0.8))
        a_minus = np.kron(ladder(basis, "a-").entries, np.eye(2)) \
            + p.c_b * np.kron(np.eye(basis.dim), sectors.QUATERNIONIC.lowering(p))
        h = p.eps_B * (a_minus.conj().T @ a_minus + 0.5 * np.eye(2 * basis.dim))
        H = OperatorMatrix(basis, h, spin_dim=2)
        assert not H.is_hermitian(1e-10)
        _, res = classify_symmetry(H, [quaternionic_trs(basis)])
        assert res <= 1e-15 * H.max_abs()

    def test_wrong_candidate_gives_none(self):
        basis = build_basis(12)
        params = ModelParams(c_b=0.8)
        hjc = jc_hamiltonian(basis, params)
        F, C, theta = flip_and_conjugation(basis)
        theta_doubled = tensor_with_spin(theta.unitary_part, np.eye(2))
        from landautrace.fock import AntiUnitaryRep

        label, resid = classify_symmetry(hjc, [AntiUnitaryRep(theta_doubled)])
        assert label == "none"
        assert resid > 1e-3


class TestRobustnessAndAdditivity:
    def test_rank_sums_invariant_under_graded_unitary(self):
        # shell-preserving conjugations leave every shell trace, hence the
        # whole rank estimate, exactly invariant
        basis = build_basis(30)
        rng = np.random.default_rng(1)
        U = np.zeros((basis.dim, basis.dim), dtype=complex)
        for s in range(basis.nmax + 1):
            sl = basis.shell_slice(s)
            n = sl.stop - sl.start
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            w, v = np.linalg.eigh(h)
            U[sl, sl] = v @ np.diag(np.exp(0.5j * w)) @ v.conj().T
        P = landau_projection(basis, 1)
        Pg = OperatorMatrix(basis, U @ P.entries @ U.conj().T)
        a = dixmier_graded(P, 0.0)
        b = dixmier_graded(Pg, 0.0)
        assert abs(a.value - b.value) <= 1e-10

    def test_chern_invariant_under_symmetry_unitaries(self):
        # rotations generated by L3 and second-mode functions commute with
        # the level projections; the curvature estimate is exactly unchanged
        basis = build_basis(30)
        l3 = derived_operator(basis, "L3").entries
        U = OperatorMatrix(basis, np.diag(np.exp(0.37j * np.diag(l3))))
        P = landau_projection(basis, 1)
        Pg = OperatorMatrix(basis, U.entries @ P.entries @ U.entries.conj().T)
        def chern(proj):
            d1 = partial_derivative(proj, 1)
            d2 = partial_derivative(proj, 2)
            return dixmier_graded(1j * (proj @ d1.commutator(d2)), 0.0)
        a, b = chern(P), chern(Pg)
        assert abs(a.value - b.value) <= 1e-12

    def test_structure_breaking_conjugation_is_flagged(self):
        """A generic shell-block unitary destroys the level structure.

        The conjugated operator is no longer a translation-covariant
        spectral projection; its curvature estimate drifts far from any
        integer and the estimator must flag non-convergence rather than
        certify a wrong value.
        """
        basis = build_basis(40)
        rng = np.random.default_rng(0)
        U = np.zeros((basis.dim, basis.dim), dtype=complex)
        for s in range(basis.nmax + 1):
            sl = basis.shell_slice(s)
            n = sl.stop - sl.start
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            w, v = np.linalg.eigh(h)
            U[sl, sl] = v @ np.diag(np.exp(0.3j * w)) @ v.conj().T
        P = landau_projection(basis, 1)
        Pg = OperatorMatrix(basis, U @ P.entries @ U.conj().T)
        d1 = partial_derivative(Pg, 1)
        d2 = partial_derivative(Pg, 2)
        est = dixmier_graded(1j * (Pg @ d1.commutator(d2)), 0.0)
        assert not est.converged

    def test_additivity_of_invariants(self):
        basis = build_basis(60)
        xi = 0.0
        P = landau_projection(basis, 1) + landau_projection(basis, 3)
        rank = dixmier_graded(P, xi)
        d1 = partial_derivative(P, 1)
        d2 = partial_derivative(P, 2)
        chern = dixmier_graded(1j * (P @ d1.commutator(d2)), xi)
        singles = []
        for j in (1, 3):
            Pj = landau_projection(basis, j)
            singles.append(dixmier_graded(Pj, xi).value)
        assert rank.value == pytest.approx(sum(singles), abs=2 * rank.residual)
        assert chern.value == pytest.approx(2.0, abs=3 * chern.residual)
        assert int(np.rint(chern.value)) == 2
