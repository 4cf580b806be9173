import numpy as np
import pytest

from landautrace import fock
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
from landautrace.kernels import psi_eval


@pytest.fixture(scope="module")
def basis():
    return build_basis(12)


class TestBasis:
    def test_smallest(self):
        b = build_basis(0)
        assert b.dim == 1
        assert (b.states[0].n1, b.states[0].n2) == (0, 0)

    def test_ordering_nmax2(self):
        b = build_basis(2)
        assert [(s.n1, s.n2) for s in b.states] == [
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
        ]

    def test_dimension_formula(self):
        assert build_basis(40).dim == 861
        b = build_basis(7)
        assert b.dim == 8 * 9 // 2

    def test_index_bijection(self, basis):
        for i, st in enumerate(basis.states):
            assert basis.index_of(st.n1, st.n2) == i

    def test_shells_contiguous(self, basis):
        for s in range(basis.nmax + 1):
            sl = basis.shell_slice(s)
            assert sl.stop - sl.start == s + 1
            assert all(basis.states[i].shell == s for i in range(sl.start, sl.stop))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_basis(-1)


class TestLadder:
    def test_lowering_amplitude(self, basis):
        am = ladder(basis, "a-")
        i, j = basis.index_of(0, 0), basis.index_of(1, 0)
        assert am.entries[i, j] == pytest.approx(1.0)

    def test_raising_amplitude(self, basis):
        ap = ladder(basis, "a+")
        i, j = basis.index_of(3, 3), basis.index_of(2, 3)
        assert ap.entries[i, j] == pytest.approx(np.sqrt(3.0))

    def test_b_annihilates_vacuum_mode(self, basis):
        bm = ladder(basis, "b-")
        for n in range(basis.nmax + 1):
            col = bm.entries[:, basis.index_of(n, 0)]
            assert np.abs(col).max() == 0.0

    def test_adjoint_pairing(self, basis):
        for lo, hi in (("a-", "a+"), ("b-", "b+")):
            low = ladder(basis, lo).entries
            high = ladder(basis, hi).entries
            assert np.abs(low.conj().T - high).max() == 0.0

    def test_ccr_on_interior(self, basis):
        sub_dim = build_basis(basis.nmax - 1).dim
        eye = np.eye(sub_dim)
        for lo, hi in (("a-", "a+"), ("b-", "b+")):
            comm = ladder(basis, lo).commutator(ladder(basis, hi))
            dev = np.abs(interior_block(basis, comm, 1).entries - eye).max()
            assert dev <= 1e-12
        cross = ladder(basis, "a-").commutator(ladder(basis, "b-"))
        assert interior_block(basis, cross, 1).max_abs() <= 1e-12
        cross = ladder(basis, "a+").commutator(ladder(basis, "b+"))
        assert interior_block(basis, cross, 1).max_abs() <= 1e-12

    def test_unknown_name(self, basis):
        with pytest.raises(ValueError):
            ladder(basis, "c+")


class TestDerivedOperators:
    def test_q_diagonal(self, basis):
        q = derived_operator(basis, "Q_B")
        i = basis.index_of(2, 4)
        assert q.entries[i, i] == pytest.approx(2 + 4 + 2)
        assert np.count_nonzero(q.entries - np.diag(np.diag(q.entries))) == 0

    def test_hb_diagonal(self):
        b = build_basis(12)
        params = ModelParams(eps_B=1.7)
        h = derived_operator(b, "H_B", params)
        i = b.index_of(3, 7)
        assert h.entries[i, i] == pytest.approx(1.7 * 3.5)

    def test_l3(self, basis):
        l3 = derived_operator(basis, "L3")
        assert l3.entries[basis.index_of(2, 2), basis.index_of(2, 2)] == 0.0
        h = derived_operator(basis, "H_B")
        assert h.commutator(l3).max_abs() == 0.0

    def test_momentum_ccr_interior(self, basis):
        params = ModelParams()
        k1 = derived_operator(basis, "K1", params)
        k2 = derived_operator(basis, "K2", params)
        g1 = derived_operator(basis, "G1", params)
        g2 = derived_operator(basis, "G2", params)
        sub = build_basis(basis.nmax - 1)
        eye = np.eye(sub.dim)
        assert np.abs(interior_block(basis, k1.commutator(k2), 1).entries + 1j * eye).max() <= 1e-12
        assert np.abs(interior_block(basis, g1.commutator(g2), 1).entries + 1j * eye).max() <= 1e-12
        for ki in (k1, k2):
            for gj in (g1, g2):
                assert interior_block(basis, ki.commutator(gj), 1).max_abs() <= 1e-12

    def test_hamiltonian_from_ladders(self, basis):
        # eps (a+a- + 1/2) agrees with the direct diagonal on the interior
        ap = ladder(basis, "a+")
        am = ladder(basis, "a-")
        built = ap @ am + 0.5 * OperatorMatrix(basis, np.eye(basis.dim))
        h = derived_operator(basis, "H_B")
        assert (built - h).max_abs() <= 1e-12

    def test_unknown(self, basis):
        with pytest.raises(ValueError):
            derived_operator(basis, "Z9")

    @pytest.mark.parametrize("name, used", [
        ("K1", ["a+", "a-"]), ("K2", ["a+", "a-"]), ("G1", ["b+", "b-"]), ("G2", ["b+", "b-"]),
        ("X1", ["a+", "a-", "b+", "b-"]), ("X2", ["a+", "a-", "b+", "b-"]), ("H_B", []),
    ])
    def test_builds_only_the_ladders_it_uses(self, basis, monkeypatch, name, used):
        built = []
        real = fock.ladder
        monkeypatch.setattr(fock, "ladder", lambda b, which: built.append(which) or real(b, which))
        derived_operator(basis, name)
        assert sorted(built) == used


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [
        dict(c_b=1e200),     # c_b^2 overflows
        dict(c_b=1e-200),    # c_b^2 vanishes although c_b > 0
        dict(ell_B=1e200),   # ell_B^2 overflows
        dict(ell_B=1e-200),  # ell_B^2 vanishes
        dict(ell_B=1e-160),  # ell_B^2 is subnormal, 1/ell_B^2 overflows
    ])
    def test_derived_scales_must_not_overflow_or_vanish(self, kwargs):
        with pytest.raises(ValueError, match="overflows or vanishes"):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(c_b=0.0), dict(c_b=1e150), dict(ell_B=1e150), dict(ell_B=1e-150),
    ])
    def test_representable_scales_accepted(self, kwargs):
        ModelParams(**kwargs)


class TestLandauProjection:
    def test_rank_at_small_truncation(self):
        b = build_basis(2)
        p0 = landau_projection(b, 0)
        assert np.trace(p0.entries).real == pytest.approx(3.0)
        hits = [i for i in range(b.dim) if p0.entries[i, i] == 1.0]
        assert hits == [b.index_of(0, m) for m in (0, 1, 2)]

    def test_orthogonality_and_axioms(self, basis):
        p1 = landau_projection(basis, 1)
        p3 = landau_projection(basis, 3)
        assert (p1 @ p3).max_abs() == 0.0
        assert (p1 @ p1 - p1).max_abs() == 0.0
        assert p1.is_hermitian(0.0)

    def test_shift_relation(self, basis):
        # a+ P_{j-1} a- / j = P_j on the interior
        j = 4
        ap = ladder(basis, "a+")
        am = ladder(basis, "a-")
        built = (1.0 / j) * (ap @ landau_projection(basis, j - 1) @ am)
        dev = interior_block(basis, built - landau_projection(basis, j), 1)
        assert dev.max_abs() <= 1e-12

    def test_out_of_range(self, basis):
        with pytest.raises(ValueError):
            landau_projection(basis, basis.nmax + 1)


class TestSymmetries:
    def test_flip_involution(self, basis):
        F, _, _ = flip_and_conjugation(basis)
        assert (F @ F - OperatorMatrix(basis, np.eye(basis.dim))).max_abs() == 0.0
        assert F.is_hermitian(0.0)

    def test_theta_squares_to_plus_one(self, basis):
        _, _, theta = flip_and_conjugation(basis)
        assert theta.square_sign() == +1

    def test_c_squares_to_plus_one(self, basis):
        _, C, _ = flip_and_conjugation(basis)
        assert C.square_sign() == +1

    def test_theta_fixes_hamiltonian(self, basis):
        _, _, theta = flip_and_conjugation(basis)
        h = derived_operator(basis, "H_B")
        assert (theta.conjugate_operator(h) - h).max_abs() <= 1e-12

    def test_theta_exchanges_momenta(self, basis):
        _, _, theta = flip_and_conjugation(basis)
        k1 = derived_operator(basis, "K1")
        k2 = derived_operator(basis, "K2")
        assert (theta.conjugate_operator(k1) + k2).max_abs() <= 1e-12
        assert (theta.conjugate_operator(k2) + k1).max_abs() <= 1e-12

    def test_theta_fixes_projections(self, basis):
        _, _, theta = flip_and_conjugation(basis)
        for j in (0, 2, 5):
            p = landau_projection(basis, j)
            assert (theta.conjugate_operator(p) - p).max_abs() == 0.0

    def test_cf_equals_fc(self, basis):
        F, C, _ = flip_and_conjugation(basis)
        # F (C psi) vs C (F psi) on a random vector
        rng = np.random.default_rng(2)
        v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        fc = F.entries @ C.apply(v)
        cf = C.apply(F.entries @ v)
        assert np.abs(fc - cf).max() <= 1e-12

    def test_conjugation_phase_oracle(self):
        """Position-space oracle for the conjugation phase on the basis.

        Pointwise conjugation of the closed-form eigenfunctions gives
        conj(psi_(n1,n2)) = (-1)^(n1+n2) psi_(n2,n1): that is the phase in
        the *conjugate* position realization (see kernels docstring). The
        ladder-side conjugation operator instead must carry (-i)^(n1+n2)
        to satisfy C a+ C = -i b+ and the Theta contracts; both facts are
        pinned here.
        """
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2.0, 2.0, size=(20, 2))
        for s in range(0, 7):
            for n1 in range(s + 1):
                n2 = s - n1
                lhs = np.conj(psi_eval((n1, n2), pts))
                rhs = (-1.0) ** s * psi_eval((n2, n1), pts)
                assert np.abs(lhs - rhs).max() <= 1e-12
        b = build_basis(6)
        _, C, _ = flip_and_conjugation(b)
        for s in range(0, 7):
            for n1 in range(s + 1):
                n2 = s - n1
                col = C.unitary_part.entries[:, b.index_of(n1, n2)]
                expect = np.zeros(b.dim, dtype=complex)
                expect[b.index_of(n2, n1)] = (-1j) ** s
                assert np.abs(col - expect).max() == 0.0

    def test_c_intertwines_ladders(self, basis):
        # C a+ C = -i b+ and C b+ C = -i a+
        _, C, _ = flip_and_conjugation(basis)
        ap = ladder(basis, "a+")
        bp = ladder(basis, "b+")
        assert (C.conjugate_operator(ap) - (-1j) * bp).max_abs() <= 1e-12
        assert (C.conjugate_operator(bp) - (-1j) * ap).max_abs() <= 1e-12


class TestTensorAndBlocks:
    def test_identity_doubling(self, basis):
        h = derived_operator(basis, "H_B")
        hh = tensor_with_spin(h, np.eye(2))
        assert hh.spin_dim == 2
        assert hh.entries[0, 0] == h.entries[0, 0]
        assert np.trace(hh.entries) == pytest.approx(2 * np.trace(h.entries))

    def test_projection_with_sigma3(self, basis):
        p = landau_projection(basis, 1)
        sz = np.diag([1.0, -1.0])
        ps = tensor_with_spin(p, sz)
        i = basis.index_of(1, 0)
        assert ps.entries[2 * i, 2 * i] == 1.0
        assert ps.entries[2 * i + 1, 2 * i + 1] == -1.0

    def test_kron_trace_factorizes(self, basis):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = derived_operator(basis, "Q_B")
        tm = tensor_with_spin(t, m)
        assert tm.trace() == pytest.approx(t.trace() * np.trace(m))

    def test_double_tensor_rejected(self, basis):
        p = tensor_with_spin(landau_projection(basis, 0), np.eye(2))
        with pytest.raises(ValueError):
            tensor_with_spin(p, np.eye(2))

    def test_margin_zero_is_identity(self, basis):
        t = derived_operator(basis, "K1")
        assert interior_block(basis, t, 0) is t

    def test_interior_block_spin(self, basis):
        p = tensor_with_spin(landau_projection(basis, 0), np.eye(2))
        sub = interior_block(basis, p, 2)
        assert sub.basis.nmax == basis.nmax - 2
        assert sub.dim == sub.basis.dim * 2
