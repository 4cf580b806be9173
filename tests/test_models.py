import numpy as np
import pytest

from landautrace import models
from landautrace.fock import (
    ModelParams,
    OperatorMatrix,
    build_basis,
    derived_operator,
    interior_block,
    ladder,
    landau_projection,
    tensor_with_spin,
)
from landautrace.models import (
    NoGapError,
    diagonalize_and_gaps,
    fermi_projection,
    jc_angles,
    jc_hamiltonian,
    jc_projection,
    jc_spectrum,
    jc_trs,
    landau_levels,
    nonabelian_field_check,
    quaternionic_ground_modes,
    quaternionic_hamiltonian,
    quaternionic_trs,
    riesz_projection,
)


def quaternionic_hamiltonian_alt(basis, params):
    """Second assembly of the quaternionic model: H_B x 1 + c_b eps_B W_Q + c_b^2 eps_B |r|^2."""
    hb = tensor_with_spin(derived_operator(basis, "H_B", params), np.eye(2))
    k1 = derived_operator(basis, "K1", params)
    k2 = derived_operator(basis, "K2", params)
    r0, r1, r2 = params.r
    S = r1 * models.SIGMA1 + r2 * models.SIGMA3
    w = tensor_with_spin(r0 * (k1 - k2), np.eye(2)) + tensor_with_spin(k1 + k2, S)
    out = hb + (params.c_b * params.eps_B) * w
    norm2 = r0 ** 2 + r1 ** 2 + r2 ** 2
    out = out + OperatorMatrix(
        basis, params.c_b ** 2 * params.eps_B * norm2 * np.eye(out.dim), spin_dim=2
    )
    return out


@pytest.fixture(scope="module")
def basis():
    return build_basis(20)


class TestLandauLevels:
    def test_values(self):
        tab = landau_levels(ModelParams(eps_B=2.0), 5)
        assert tab.eigenvalues[0] == pytest.approx(1.0)
        spacings = np.diff(tab.eigenvalues)
        assert np.allclose(spacings, 2.0)

    def test_single_entry(self):
        tab = landau_levels(ModelParams(), 0)
        assert len(tab.eigenvalues) == 1


class TestJcAngles:
    def test_zero_coupling(self):
        tp, tm = jc_angles(3, 0.0)
        assert tp == 0.0
        assert tm == pytest.approx(-np.pi / 2.0)

    def test_pythagoras(self):
        for j in (1, 2, 5):
            for cb in (0.3, 1.0):
                tp, tm = jc_angles(j, cb)
                assert np.sin(tp) ** 2 + np.cos(tp) ** 2 == pytest.approx(1.0)
                assert np.sin(tm) ** 2 + np.cos(tm) ** 2 == pytest.approx(1.0)

    def test_j1_unit_coupling(self):
        tp, _ = jc_angles(1, 1.0)
        assert np.tan(tp) == pytest.approx(np.sqrt(8.0) / 4.0, rel=1e-12)

    def test_branches_quarter_turn_apart(self):
        tp, tm = jc_angles(2, 0.7)
        assert tp - tm == pytest.approx(np.pi / 2.0, rel=1e-12)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            jc_angles(0, 0.5)


class TestJcSpectrum:
    def test_scalar_level_reduction(self):
        tab = jc_spectrum(ModelParams(c_b=0.0), 3)
        ref = landau_levels(ModelParams(), 4).eigenvalues
        # at zero coupling the pair levels collapse onto j +- 1/2
        assert tab.eigenvalues[0] == pytest.approx(0.5)
        for val in tab.eigenvalues:
            assert np.abs(ref - val).min() <= 1e-12

    def test_scalar_level_value(self):
        # the scalar level sits at eps (1/2 + c^2); at strong coupling the
        # lower pair branches dive below it, so membership is what's checked
        p = ModelParams(c_b=0.8, eps_B=1.3)
        tab = jc_spectrum(p, 2)
        e0 = 1.3 * (0.5 + 0.64)
        assert np.abs(tab.eigenvalues - e0).min() <= 1e-12
        root = np.sqrt(1.0 + 8.0 * 0.64)
        assert tab.eigenvalues.min() == pytest.approx(1.3 * (1.0 - root / 2.0 + 0.64), rel=1e-12)

    def test_labels_follow_values(self):
        p = ModelParams(c_b=0.5, eps_B=1.3)
        tab = jc_spectrum(p, 3)
        assert sorted(tab.labels) == sorted(["E_0"] + [f"E_{j}{s}" for j in (1, 2, 3) for s in "-+"])
        for lab, val in zip(tab.labels, tab.eigenvalues):
            if lab == "E_0":
                assert val == pytest.approx(1.3 * (0.5 + 0.25), rel=1e-14)
                continue
            j, sign = int(lab[2]), 1.0 if lab[3] == "+" else -1.0
            root = np.sqrt(1.0 + 8.0 * j * 0.25)
            assert val == pytest.approx(1.3 * (j + sign * root / 2.0 + 0.25), rel=1e-14)

    def test_matches_diagonalization_interior(self, basis):
        p = ModelParams(c_b=0.6)
        H = jc_hamiltonian(basis, p)
        table, _ = diagonalize_and_gaps(H, 0.02)
        interior = table.interior_eigenvalues()
        closed = jc_spectrum(p, basis.nmax + 2).eigenvalues
        worst = max(np.abs(closed - e).min() for e in interior)
        assert worst <= 1e-10


class TestJcHamiltonian:
    def test_matrix_form(self, basis):
        # eps [[N + (1+2c^2)/2, -i sqrt2 c a-], [i sqrt2 c a+, same diag]]
        p = ModelParams(c_b=0.9)
        H = jc_hamiltonian(basis, p)
        am = ladder(basis, "a-").entries
        ap = ladder(basis, "a+").entries
        num = np.diag(basis.n1.astype(complex))
        eye = np.eye(basis.dim)
        blocks = np.kron(num + 0.5 * (1 + 2 * p.c_b ** 2) * eye, np.eye(2))
        blocks += np.kron(-1j * np.sqrt(2) * p.c_b * am, np.array([[0, 1], [0, 0]]))
        blocks += np.kron(1j * np.sqrt(2) * p.c_b * ap, np.array([[0, 0], [1, 0]]))
        assert np.abs(H.entries - blocks).max() <= 1e-12

    def test_commutes_with_dual_momenta(self, basis):
        p = ModelParams(c_b=0.5)
        H = jc_hamiltonian(basis, p)
        for name in ("G1", "G2"):
            g = tensor_with_spin(derived_operator(basis, name), np.eye(2))
            assert interior_block(basis, H.commutator(g), 2).max_abs() <= 1e-10

    def test_nonabelian_momentum_commutator(self, basis):
        # [K1, K2] = -i (1 + 2 c^2 sigma3) for the spin-orbit coupling
        p = ModelParams(c_b=0.4)
        k1 = tensor_with_spin(derived_operator(basis, "K1"), np.eye(2)) \
            + p.c_b * tensor_with_spin(
                OperatorMatrix(basis, np.eye(basis.dim)), models.SIGMA2)
        k2 = tensor_with_spin(derived_operator(basis, "K2"), np.eye(2)) \
            - p.c_b * tensor_with_spin(
                OperatorMatrix(basis, np.eye(basis.dim)), models.SIGMA1)
        comm = k1.commutator(k2)
        gamma_comm = 2j * models.SIGMA3  # [gamma1, gamma2] for gamma = (-s2, s1)
        expect = tensor_with_spin(
            OperatorMatrix(basis, -1j * np.eye(basis.dim)), np.eye(2)
        ) + p.c_b ** 2 * tensor_with_spin(
            OperatorMatrix(basis, np.eye(basis.dim)), gamma_comm)
        assert interior_block(basis, comm - expect, 1).max_abs() <= 1e-10


class TestJcProjection:
    def test_axioms_on_interior(self, basis):
        p = ModelParams(c_b=0.8)
        for j, sign in ((1, "+"), (2, "-"), (3, "+")):
            P = jc_projection(basis, p, j, sign)
            assert P.is_hermitian(1e-10)
            assert interior_block(basis, P @ P - P, 1).max_abs() <= 1e-10

    def test_eigen_relation(self, basis):
        p = ModelParams(c_b=0.8)
        H = jc_hamiltonian(basis, p)
        for j, sign, s in ((1, "+", +1), (2, "-", -1)):
            P = jc_projection(basis, p, j, sign)
            root = np.sqrt(1.0 + 8.0 * j * p.c_b ** 2)
            energy = p.eps_B * (j + s * root / 2.0 + p.c_b ** 2)
            dev = interior_block(basis, H @ P - energy * P, 2).max_abs()
            assert dev <= 1e-8

    def test_scalar_level_in_lower_slot(self, basis):
        P = jc_projection(basis, ModelParams(c_b=0.5), 0)
        expect = tensor_with_spin(landau_projection(basis, 0), np.diag([0.0, 1.0]))
        assert (P - expect).max_abs() == 0.0

    def test_spin_trace_of_rank_density(self, basis):
        # Tr_spin P = sin^2 P_{j-1} + cos^2 P_j, summing to weight one per
        # angular slot
        p = ModelParams(c_b=1.0)
        j = 2
        tp, _ = jc_angles(j, p.c_b)
        P = jc_projection(basis, p, j, "+").entries.reshape(basis.dim, 2, basis.dim, 2)
        spin_traced = np.einsum("isjs->ij", P)
        expect = np.sin(tp) ** 2 * landau_projection(basis, j - 1).entries \
            + np.cos(tp) ** 2 * landau_projection(basis, j).entries
        assert np.abs(spin_traced - expect).max() <= 1e-12

    def test_pair_completeness(self, basis):
        # P_j^+ + P_j^- fills the full (j-1, up) + (j, down) subspace
        p = ModelParams(c_b=0.7)
        j = 3
        total = jc_projection(basis, p, j, "+") + jc_projection(basis, p, j, "-")
        expect = tensor_with_spin(landau_projection(basis, j - 1), np.diag([1.0, 0.0])) \
            + tensor_with_spin(landau_projection(basis, j), np.diag([0.0, 1.0]))
        assert interior_block(basis, total - expect, 1).max_abs() <= 1e-12

    def test_mutual_orthogonality_and_bound(self, basis):
        p = ModelParams(c_b=0.5)
        pr1 = jc_projection(basis, p, 1, "+")
        pr2 = jc_projection(basis, p, 2, "+")
        assert interior_block(basis, pr1 @ pr2, 2).max_abs() <= 1e-12
        acc = jc_projection(basis, p, 0).entries.copy()
        for j in range(1, 6):
            for sign in "+-":
                acc += jc_projection(basis, p, j, sign).entries
        ev = np.linalg.eigvalsh(acc)
        assert ev.max() <= 1.0 + 1e-10

    def test_truncation_precondition(self, basis):
        with pytest.raises(ValueError):
            jc_projection(basis, ModelParams(c_b=0.5), basis.nmax, "+")


class TestJcSymmetry:
    def test_square_sign(self, basis):
        assert jc_trs(basis).square_sign() == +1

    def test_fixes_hamiltonian_exactly(self, basis):
        p = ModelParams(c_b=1.2)
        H = jc_hamiltonian(basis, p)
        xi_rep = jc_trs(basis)
        assert (xi_rep.conjugate_operator(H) - H).max_abs() <= 1e-12

    def test_commutes_with_projections(self, basis):
        p = ModelParams(c_b=0.6)
        xi_rep = jc_trs(basis)
        for j, sign in ((1, "+"), (2, "-")):
            P = jc_projection(basis, p, j, sign)
            dev = interior_block(basis, xi_rep.conjugate_operator(P) - P, 1).max_abs()
            assert dev <= 1e-10


class TestQuaternionic:
    def test_zero_coupling_reduction(self, basis):
        p = ModelParams(c_b=0.0, r=(0.0, 1.0, 0.0))
        H = quaternionic_hamiltonian(basis, p)
        expect = tensor_with_spin(derived_operator(basis, "H_B"), np.eye(2))
        assert (H - expect).max_abs() <= 1e-12

    def test_two_assemblies_agree(self, basis):
        p = ModelParams(c_b=0.7, r=(0.36, 0.48, 0.8))
        a = quaternionic_hamiltonian(basis, p)
        b = quaternionic_hamiltonian_alt(basis, p)
        assert interior_block(basis, a - b, 1).max_abs() <= 1e-10

    def test_lowest_modes_of_lowering_block(self, basis):
        p = ModelParams(c_b=0.4, r=(0.6, 0.8, 0.0))
        from landautrace import sectors

        amat = np.kron(ladder(basis, "a-").entries, np.eye(2)) \
            + p.c_b * np.kron(np.eye(basis.dim), sectors.QUATERNIONIC.lowering(p))
        for vec, eig in quaternionic_ground_modes(basis, p, m=2):
            assert np.abs(amat @ vec - eig * vec).max() <= 1e-12
            expect_mod = p.c_b  # |r0 +- i rho| = |r| = 1
            assert abs(eig) == pytest.approx(expect_mod, rel=1e-12)

    def test_spectrum_bounded_below(self, basis):
        p = ModelParams(c_b=0.5, r=(0.0, 1.0, 0.0))
        H = quaternionic_hamiltonian(basis, p)
        table, _ = diagonalize_and_gaps(H, 0.05)
        interior = table.interior_eigenvalues()
        assert interior.min() >= 0.5 * p.eps_B - 1e-10

    def test_odd_symmetry(self, basis):
        p = ModelParams(c_b=0.5, r=(0.36, 0.48, 0.8))
        H = quaternionic_hamiltonian(basis, p)
        rep = quaternionic_trs(basis)
        assert rep.square_sign() == -1
        assert (rep.conjugate_operator(H) - H).max_abs() <= 1e-12

    def test_canonical_momentum_commutator(self, basis):
        # commuting gammas keep [K1, K2] = -i exactly
        p = ModelParams(c_b=0.6, r=(0.36, 0.48, 0.8))
        gamma1 = np.array([[-p.r[0] - p.r[2], -p.r[1]], [-p.r[1], -p.r[0] + p.r[2]]])
        gamma2 = np.array([[p.r[0] - p.r[2], -p.r[1]], [-p.r[1], p.r[0] + p.r[2]]])
        k1 = tensor_with_spin(derived_operator(basis, "K1"), np.eye(2)) \
            - p.c_b * tensor_with_spin(OperatorMatrix(basis, np.eye(basis.dim)), gamma1)
        k2 = tensor_with_spin(derived_operator(basis, "K2"), np.eye(2)) \
            - p.c_b * tensor_with_spin(OperatorMatrix(basis, np.eye(basis.dim)), gamma2)
        comm = k1.commutator(k2)
        expect = OperatorMatrix(basis, -1j * np.eye(2 * basis.dim), spin_dim=2)
        assert interior_block(basis, comm - expect, 1).max_abs() <= 1e-10

    def test_commutes_with_dual_momenta(self, basis):
        p = ModelParams(c_b=0.6, r=(0.36, 0.48, 0.8))
        H = quaternionic_hamiltonian(basis, p)
        for name in ("G1", "G2"):
            g = tensor_with_spin(derived_operator(basis, name), np.eye(2))
            assert interior_block(basis, H.commutator(g), 2).max_abs() <= 1e-10

    def test_kramers_pairing(self, basis):
        p = ModelParams(c_b=0.5, r=(0.36, 0.48, 0.8))
        H = quaternionic_hamiltonian(basis, p)
        table, _ = diagonalize_and_gaps(H, 0.05)
        levels = np.sort(table.interior_eigenvalues())
        i = 0
        while i < len(levels):
            k = i + 1
            while k < len(levels) and levels[k] - levels[k - 1] <= 1e-8:
                k += 1
            assert (k - i) % 2 == 0
            i = k


def loop_gaps(levels, threshold):
    """The gap scan one neighbor pair at a time: the reference of the masked form."""
    return [(float(a), float(b)) for a, b in zip(levels[:-1], levels[1:]) if b - a > threshold]


@pytest.mark.parametrize("levels, threshold", [
    (np.array([]), 0.05),
    (np.array([0.5]), 0.05),
    (np.array([0.0, 0.05, 0.1 + 1e-17, 1.0, np.nan, 3.0, 3.0]), 0.05),
    (np.repeat(np.arange(141) + 0.5, 2) + 1e-9 * np.sin(np.arange(282)), 0.5),
])
def test_gaps_from_levels_match_the_pair_loop(levels, threshold):
    gaps = models._gaps_from_levels(levels, threshold)
    assert [(g.lower, g.upper) for g in gaps] == loop_gaps(levels, threshold)
    assert all(type(g.lower) is float and type(g.upper) is float for g in gaps)


class TestFermiAndRiesz:
    def test_fermi_zero_coupling(self, basis):
        p = ModelParams(c_b=0.0, r=(0.0, 1.0, 0.0))
        H = quaternionic_hamiltonian(basis, p)
        P = fermi_projection(H, 1.0)
        expect = tensor_with_spin(landau_projection(basis, 0), np.eye(2))
        dev = interior_block(basis, P - expect, 2).max_abs()
        assert dev <= 1e-8
        assert (P @ P - P).max_abs() <= 1e-10
        assert P.is_hermitian(1e-10)

    def test_fermi_requires_gap(self, basis):
        p = ModelParams(c_b=0.0, r=(0.0, 1.0, 0.0))
        H = quaternionic_hamiltonian(basis, p)
        with pytest.raises(NoGapError):
            fermi_projection(H, 0.5)  # sits on a level, not in a gap

    def test_fermi_matches_jc_pair_sums(self, basis):
        # small coupling: the lowest cluster holds E_1^- and E_0; the Fermi
        # projection above it equals P_1^- + P_0
        p = ModelParams(c_b=0.15)
        H = jc_hamiltonian(basis, p)
        energy = 1.0  # inside the gap between the first and second clusters
        P = fermi_projection(H, energy, gap_threshold=0.2)
        expect = jc_projection(basis, p, 0) + jc_projection(basis, p, 1, "-")
        assert interior_block(basis, P - expect, 2).max_abs() <= 1e-8

    def test_riesz_recovers_level_projection(self, basis):
        H = derived_operator(basis, "H_B")
        for j in (0, 2):
            P = riesz_projection(H, j + 0.5, 0.5, quad_points=64)
            assert (P - landau_projection(basis, j)).max_abs() <= 1e-8

    def test_riesz_empty_contour(self, basis):
        H = derived_operator(basis, "H_B")
        P = riesz_projection(H, 0.25, 0.1, quad_points=32)
        assert P.max_abs() <= 1e-10

    def test_riesz_matches_fermi_difference(self, basis):
        p = ModelParams(c_b=0.15)
        H = jc_hamiltonian(basis, p)
        # circle enclosing the second cluster {E_2^-, E_1^+} ~ {1.44, 1.57}
        P = riesz_projection(H, 1.5, 0.13, quad_points=96)
        expect = jc_projection(basis, p, 2, "-") + jc_projection(basis, p, 1, "+")
        assert interior_block(basis, P - expect, 2).max_abs() <= 1e-8

    def test_riesz_rejects_touching_contour(self, basis):
        H = derived_operator(basis, "H_B")
        with pytest.raises(ValueError):
            riesz_projection(H, 0.5, 1.0)


class TestFieldCheck:
    def test_spin_orbit_field(self):
        rep = nonabelian_field_check(ModelParams(c_b=0.5), "JC")
        assert not rep["abelian"]
        assert rep["sigma3_coefficient"] == pytest.approx(2.0)
        assert np.abs(rep["su2_part"] - 2.0 * models.SIGMA3).max() <= 1e-14

    def test_quaternionic_field_is_abelian(self):
        rep = nonabelian_field_check(ModelParams(c_b=0.5, r=(0.36, 0.48, 0.8)), "Q")
        assert rep["abelian"]
        assert rep["commutator_norm"] <= 1e-14

    def test_zero_coupling_trivial(self):
        rep = nonabelian_field_check(ModelParams(c_b=0.0), "JC")
        # gamma structure unchanged; the field strength scales with c_b^2
        # outside this helper, so only the pattern is reported
        assert rep["sigma3_coefficient"] == pytest.approx(2.0)
