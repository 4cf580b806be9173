import numpy as np
import pytest

from landautrace.fock import ModelParams, build_basis, interior_block, landau_projection
from landautrace.kernels import (
    Region,
    QuadratureConvergenceError,
    TARGET_IDENTITY,
    basis_matrix,
    deriv_kernel,
    gauss_legendre,
    integrate_kernel_diagonal,
    landau_kernel,
    landau_kernel_levels,
    matrix_diagonal_values,
    psi_eval,
    verify_integral_identity,
)
from landautrace import kernels
from landautrace.specfun import laguerre, laguerre_rows
from landautrace.topo import partial_derivative


def square_rule(half, order):
    x, w = np.polynomial.legendre.leggauss(order)
    x = x * half
    w = w * half
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return pts, np.outer(w, w).ravel()


class TestPsiEval:
    def test_ground_state_at_origin(self):
        params = ModelParams(ell_B=2.0)
        val = psi_eval((0, 0), (0.0, 0.0), params)
        assert val == pytest.approx(1.0 / (2.0 * np.sqrt(2 * np.pi)), rel=1e-14)

    def test_first_angular_state(self):
        params = ModelParams()
        x = np.array([0.7, -0.3])
        expect = psi_eval((0, 0), x, params) * (x[0] + 1j * x[1]) / np.sqrt(2)
        assert psi_eval((0, 1), x, params) == pytest.approx(expect, rel=1e-14)

    def test_vanishes_at_origin_off_diagonal(self):
        assert psi_eval((2, 0), (0.0, 0.0)) == 0.0
        assert psi_eval((0, 3), (0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("shell", [0, 1, 2, 3, 4])
    def test_orthonormality(self, shell):
        params = ModelParams()
        pts, w = square_rule(8.0, 90)
        states = [(n1, s - n1) for s in range(5) for n1 in range(s + 1)]
        vals = {n: psi_eval(n, pts, params) for n in states}
        for n1 in range(shell + 1):
            n = (n1, shell - n1)
            for m in states:
                ip = np.sum(np.conj(vals[n]) * vals[m] * w)
                expect = 1.0 if m == n else 0.0
                assert abs(ip - expect) <= 1e-8

    def test_basis_matrix_agrees_with_psi_eval(self):
        basis = build_basis(9)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-3, 3, size=(40, 2))
        V = basis_matrix(basis, pts)
        for idx in (0, 5, 17, 30, 54):
            ref = psi_eval((basis.n1[idx], basis.n2[idx]), pts)
            assert np.abs(V[idx] - ref).max() <= 1e-12


def formula_landau_kernel(j, x, y, params):
    """The closed-form kernel as one expression per level, oracle of the shared pass."""
    ell = params.ell_B
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    y1, y2 = y[..., 0], y[..., 1]
    d2 = ((x1 - y1) ** 2 + (x2 - y2) ** 2) / (2 * ell ** 2)
    wedge = (x1 * y2 - x2 * y1) / (2 * ell ** 2)
    lag = laguerre(j, 0.0, np.atleast_1d(d2))
    val = np.exp(-d2 / 2.0) * np.exp(-1j * wedge) * lag / (2 * np.pi * ell ** 2)
    if np.ndim(d2) == 0:
        return complex(val[0] if val.ndim else val)
    return val


def hexes(values):
    """float.hex of the real and imaginary part of every value, in order."""
    return list(map(float.hex, np.ravel(np.asarray(values, dtype=complex)).view(float).tolist()))


def kernel_shapes():
    """Off-diagonal point pairs of shapes (2,)x(2,), (1,2)x(N,2) and (N,2)x(N,2)."""
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-4, 4, size=(2, 2))
    xs, ys = rng.uniform(-4, 4, size=(2, 50, 2))
    return {"point": (x, y), "row": (x[None, :], ys), "pairs": (xs, ys)}


class TestLandauKernelLevels:
    @pytest.mark.parametrize("shape", ["point", "row", "pairs"])
    @pytest.mark.parametrize("ell_B", [1.0, 2.0])
    def test_levels_match_landau_kernel_bit_for_bit(self, shape, ell_B):
        params = ModelParams(ell_B=ell_B)
        x, y = kernel_shapes()[shape]
        levels = list(landau_kernel_levels(range(31), x, y, params))
        assert len(levels) == 31
        for j, level in enumerate(levels):
            single = landau_kernel(j, x, y, params)
            assert hexes(level) == hexes(single)
            assert hexes(single) == hexes(formula_landau_kernel(j, x, y, params))
            if shape == "point":
                assert type(single) is complex
            else:
                assert single.shape == np.broadcast_shapes(x.shape, y.shape)[:-1]

    def test_selected_levels_in_any_order(self):
        params = ModelParams()
        x, y = kernel_shapes()["pairs"]
        picked = list(landau_kernel_levels((7, 2, 30), x, y, params))
        assert [hexes(v) for v in picked] == [hexes(landau_kernel(j, x, y, params)) for j in (7, 2, 30)]

    def test_one_recurrence_for_all_levels(self, monkeypatch):
        calls = []

        def counted(kmax, alpha, x):
            calls.append(kmax)
            return laguerre_rows(kmax, alpha, x)

        monkeypatch.setattr(kernels, "laguerre_rows", counted)
        x, y = kernel_shapes()["pairs"]
        assert len(list(landau_kernel_levels((0, 3, 9), x, y))) == 3
        assert calls == [9]

    def test_no_levels_compute_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("laguerre_rows called for no level")

        monkeypatch.setattr(kernels, "laguerre_rows", refuse)
        x, y = kernel_shapes()["pairs"]
        assert list(landau_kernel_levels((), x, y)) == []
        assert list(landau_kernel_levels(range(0), x, y)) == []

    def test_negative_level_raises(self):
        x, y = kernel_shapes()["point"]
        with pytest.raises(ValueError):
            landau_kernel(-1, x, y)
        with pytest.raises(ValueError):
            list(landau_kernel_levels((0, -1), x, y))


class TestLandauKernel:
    def test_diagonal_value(self):
        params = ModelParams(ell_B=1.5)
        for j in (0, 1, 4):
            for pt in ((0.0, 0.0), (2.0, -1.0)):
                x = np.array(pt)
                val = landau_kernel(j, x, x, params)
                assert val == pytest.approx(1.0 / (2 * np.pi * 1.5 ** 2), rel=1e-14)

    def test_hermiticity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.uniform(-2, 2, size=(2, 2))
            for j in (0, 2):
                assert landau_kernel(j, x, y) == pytest.approx(
                    np.conj(landau_kernel(j, y, x)), rel=1e-14
                )

    def test_matches_eigenfunction_sum(self):
        # brute-force sum over 60 angular states reproduces the closed form
        rng = np.random.default_rng(1)
        for _ in range(6):
            x, y = rng.uniform(-2, 2, size=(2, 2))
            acc = 0.0
            for m in range(60):
                acc += psi_eval((0, m), x) * np.conj(psi_eval((0, m), y))
            assert abs(acc - landau_kernel(0, x, y)) <= 1e-8

    def test_reproducing_property(self):
        params = ModelParams()
        pts, w = square_rule(10.0, 110)
        for (j, m) in ((0, 0), (1, 2), (2, 1)):
            psi_y = psi_eval((j, m), pts, params)
            for xs in ((0.5, 0.2), (-1.0, 1.5)):
                x = np.array(xs)
                ker = landau_kernel(j, x[None, :], pts, params)
                val = np.sum(ker * psi_y * w)
                assert abs(val - psi_eval((j, m), x, params)) <= 1e-6

    def test_idempotency(self):
        params = ModelParams()
        pts, w = square_rule(10.0, 110)
        rng = np.random.default_rng(3)
        for j in (0, 1):
            for _ in range(3):
                x, z = rng.uniform(-1.5, 1.5, size=(2, 2))
                k_xy = landau_kernel(j, x[None, :], pts, params)
                k_yz = landau_kernel(j, pts, z[None, :], params)
                val = np.sum(k_xy * k_yz * w)
                assert abs(val - landau_kernel(j, x, z, params)) <= 1e-6

    def test_annihilates_other_levels(self):
        params = ModelParams()
        pts, w = square_rule(10.0, 110)
        psi_y = psi_eval((1, 1), pts, params)
        x = np.array([0.3, -0.8])
        ker = landau_kernel(0, x[None, :], pts, params)
        assert abs(np.sum(ker * psi_y * w)) <= 1e-6


class TestDerivKernel:
    def test_diagonal_vanishes(self):
        x = np.array([1.0, 2.0])
        for i in (1, 2):
            assert deriv_kernel(i, 0, x, x) == 0.0

    def test_commutator_kernel_selfadjoint(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            x, y = rng.uniform(-2, 2, size=(2, 2))
            for i in (1, 2):
                for j in (0, 3):
                    assert deriv_kernel(i, j, x, y) == pytest.approx(
                        np.conj(deriv_kernel(i, j, y, x)), rel=1e-13
                    )

    def test_matches_ladder_commutators_with_axes_swapped(self):
        """Position kernels realize the ladder derivations with axes exchanged.

        The closed-form eigenfunctions and kernels carry the conjugate
        orientation relative to the ladder matrices, so the quadrature
        matrix elements of the i = 1 kernel reproduce the ladder-side
        d_2 (and vice versa) -- not d_i itself. Asserted at 1e-8.
        """
        nmax, j = 20, 1
        basis = build_basis(nmax)
        params = ModelParams()
        # domain covers the interior (shell <= 18) states compared below:
        # 14.5 lengths leaves their mass outside below 1e-20
        pts, w = square_rule(14.5, 100)
        V = basis_matrix(basis, pts, params)
        VW = np.conj(V) * w
        WVt = (V * w).T
        P = landau_projection(basis, j)
        ladder_side = {i: partial_derivative(P, i) for i in (1, 2)}
        sub = build_basis(nmax - 2).dim
        for i, partner in ((1, 2), (2, 1)):
            acc = np.zeros((basis.dim, basis.dim), dtype=complex)
            for lo in range(0, len(pts), 1024):
                hi = min(lo + 1024, len(pts))
                K = deriv_kernel(i, j, pts[lo:hi, None, :], pts[None, :, :], params)
                acc += VW[:, lo:hi] @ (K @ WVt)
            expect = ladder_side[partner].entries
            dev = np.abs(acc - expect)[:sub, :sub].max()
            assert dev <= 1e-8
            anti = np.abs(acc - ladder_side[i].entries)[:sub, :sub].max()
            assert anti > 1e-2  # the unswapped pairing genuinely differs


class TestIntegrateKernelDiagonal:
    def test_projection_over_square(self):
        basis = build_basis(30)
        params = ModelParams()
        region = Region.square(4.0)
        val = integrate_kernel_diagonal(landau_projection(basis, 0), region, params, tol=1e-7)
        assert val.real == pytest.approx(16.0 / (2 * np.pi), abs=1e-6)
        assert abs(val.imag) <= 1e-12

    def test_zero_operator(self):
        basis = build_basis(16)
        z = 0.0 * landau_projection(basis, 0)
        val = integrate_kernel_diagonal(z, Region.square(3.0), ModelParams())
        assert val == 0.0

    def test_against_independent_nodewise_sum(self):
        # general (non-diagonal) operator cross-checked at doubled order
        basis = build_basis(12)
        params = ModelParams()
        from landautrace.fock import ladder

        p0 = landau_projection(basis, 0)
        num = ladder(basis, "a+") @ ladder(basis, "a-")
        T = p0 - p0 @ num  # interior combination, still n2-diagonal
        region = Region.square(5.0)
        val = integrate_kernel_diagonal(T, region, params, tol=1e-7, order=48)
        pts, w = square_rule(2.5, 128)
        V = basis_matrix(basis, pts, params)
        diag = np.einsum("ip,ij,jp->p", np.conj(V), T.entries, V, optimize=True)
        ref = np.sum(diag * w)
        assert val == pytest.approx(ref, abs=1e-8)

    def test_disk_region(self):
        basis = build_basis(30)
        region = Region.disk(2.0)
        val = integrate_kernel_diagonal(landau_projection(basis, 1), region, ModelParams(), tol=1e-7)
        assert val.real == pytest.approx(np.pi * 4.0 / (2 * np.pi), abs=1e-6)

    def test_convergence_flag(self):
        basis = build_basis(24)
        with pytest.raises(QuadratureConvergenceError):
            integrate_kernel_diagonal(
                landau_projection(basis, 0), Region.square(6.0), ModelParams(),
                tol=1e-14, order=4,
            )


class TestRegions:
    def test_measures(self):
        assert Region.square(3.0).measure == pytest.approx(9.0)
        assert Region.disk(2.0).measure == pytest.approx(np.pi * 4.0)

    def test_rules_integrate_polynomials(self):
        sq = Region.square(2.0).rule(12)
        val = np.sum(sq.weights * sq.points[:, 0] ** 2)
        assert val == pytest.approx(4.0 / 3.0, rel=1e-12)  # int x^2 over [-1,1]^2
        dk = Region.disk(1.0).rule(16)
        val = np.sum(dk.weights * (dk.points[:, 0] ** 2 + dk.points[:, 1] ** 2))
        assert val == pytest.approx(np.pi / 2.0, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 12, 64, 96, 128])
    def test_gauss_legendre_is_leggauss_read_only(self, order):
        x, w = gauss_legendre(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert gauss_legendre(order)[0] is x  # computed once per order

    @pytest.mark.parametrize("order", [12, 64])
    def test_rules_byte_identical_to_leggauss(self, order):
        # square_rule and the disk rule below take their nodes from numpy directly
        sq = Region.square(6.0).rule(order)
        pts, w = square_rule(3.0, order)
        assert sq.points.tobytes() == pts.tobytes() and sq.weights.tobytes() == w.tobytes()
        x, w = np.polynomial.legendre.leggauss(order)
        r = (x + 1.0) * (2.0 / 2.0)
        theta = np.arange(2 * order + 1) * (2 * np.pi / (2 * order + 1))
        R, T = np.meshgrid(r, theta, indexing="ij")
        W = np.outer(w * (2.0 / 2.0) * r, np.full(2 * order + 1, 2 * np.pi / (2 * order + 1)))
        dk = Region.disk(2.0).rule(order)
        assert dk.points.tobytes() == np.column_stack(
            [(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()]).tobytes()
        assert dk.weights.tobytes() == W.ravel().tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            Region("triangle", 1.0)
        with pytest.raises(ValueError):
            Region.square(-1.0)


def identity_weight(j, u1, u2, squared_argument):
    r2 = u1 ** 2 + u2 ** 2
    arg = r2 if squared_argument else np.sqrt(r2)
    return np.exp(-r2 / 2.0) * laguerre(j, 0.0, arg)


def identity_pointwise(j, cut, q, variant="rederived", x=(0.0, 0.0)):
    """Point-by-point O(q^4) Gauss-Legendre sum of the four-fold identity.

    The reference for the separable contraction of
    ``verify_integral_identity`` on the same nodes and weights; it also
    evaluates the literal variant at j >= 1, which does not separate.
    """
    x1c, x2c = float(x[0]), float(x[1])
    phase_sign = +1.0 if variant == "literal" else -1.0
    squared = variant == "rederived"
    nodes, wts = np.polynomial.legendre.leggauss(q)
    nodes = nodes * cut
    wts = wts * cut
    Y1, Y2 = np.meshgrid(nodes, nodes, indexing="ij")
    y1, y2 = Y1.ravel(), Y2.ravel()
    wy = np.outer(wts, wts).ravel()
    # weight factors at x-y and z-x
    g_xy = identity_weight(j, x1c - y1, x2c - y2, squared)
    g_zx = identity_weight(j, y1 - x1c, y2 - x2c, squared)
    total = 0.0 + 0.0j
    block = 512
    for lo in range(0, len(y1), block):
        hi = min(lo + block, len(y1))
        yb1 = y1[lo:hi][:, None]
        yb2 = y2[lo:hi][:, None]
        z1 = y1[None, :]
        z2 = y2[None, :]
        f = (x1c * z2 - x2c * z1) + (z1 * yb2 - z2 * yb1) + (yb1 * x2c - yb2 * x1c)
        g_yz = identity_weight(j, yb1 - z1, yb2 - z2, squared)
        inner = np.sum(wy[None, :] * f * np.exp(phase_sign * 1j * f) * g_yz * g_zx[None, :], axis=1)
        total += np.sum(wy[lo:hi] * g_xy[lo:hi] * inner)
    return total


@pytest.fixture(scope="module")
def identity_j0():
    return verify_integral_identity(0, cutoff=6.0, tol=1e-4, variant="rederived")


class TestIntegralIdentity:
    def test_rederived_j0(self, identity_j0):
        assert abs(identity_j0 - TARGET_IDENTITY) <= 1e-4

    def test_rederived_j1(self):
        val = verify_integral_identity(1, cutoff=7.0, tol=1e-4, variant="rederived", order=72)
        assert abs(val - TARGET_IDENTITY) <= 1e-4

    def test_literal_variant_disagrees(self):
        """The commonly quoted form evaluates to the conjugate value.

        At j = 0 the literal weight equals the re-derived one, so the sole
        discrepancy is the phase orientation: the integral comes out
        +i pi^2/2 = -pi^2/(2i). Recorded here as the documented deviation.
        """
        val = verify_integral_identity(0, cutoff=6.0, tol=1e-4, variant="literal")
        assert abs(val - np.conj(TARGET_IDENTITY)) <= 1e-4
        assert abs(val - TARGET_IDENTITY) > 9.0  # |2 * pi^2/2| apart

    def test_translation_covariance(self):
        a = verify_integral_identity(0, cutoff=6.5, tol=1e-4, variant="rederived", x=(0.0, 0.0))
        b = verify_integral_identity(0, cutoff=6.5, tol=1e-4, variant="rederived", x=(1.0, 1.0))
        assert abs(a - b) <= 1e-4

    def test_pure_imaginary_split(self, identity_j0):
        assert abs(identity_j0.real) <= 1e-4
        assert identity_j0.imag == pytest.approx(-np.pi ** 2 / 2.0, abs=1e-4)

    def test_level_five(self):
        val = verify_integral_identity(5, cutoff=8.0, tol=1e-4, variant="rederived", order=80)
        assert abs(val - TARGET_IDENTITY) <= 1e-4

    def test_literal_excited_level_rejected(self):
        with pytest.raises(ValueError):
            verify_integral_identity(1, variant="literal")

    def test_coarse_refinement_disagreement_raises(self):
        # a cutoff of 2 truncates the Gaussian weights at the 1e-1 level
        with pytest.raises(QuadratureConvergenceError):
            verify_integral_identity(0, cutoff=2.0, tol=1e-4, order=16)


SEPARABLE_CASES = [
    ("rederived", j, x) for j in (0, 1, 2, 4) for x in ((0.0, 0.0), (1.0, 1.0), (0.3, -0.7))
] + [("literal", 0, (0.0, 0.0)), ("literal", 0, (0.3, -0.7))]


@pytest.mark.parametrize("variant,j,x", SEPARABLE_CASES)
def test_separable_sum_matches_pointwise_oracle(variant, j, x):
    order, cutoff = 20, 5.0
    rep = verify_integral_identity(j, cutoff=cutoff, tol=10.0, variant=variant, x=x,
                                   order=order, full_report=True)
    coarse = identity_pointwise(j, cutoff, order, variant, x)
    fine = identity_pointwise(j, 1.25 * cutoff, order + order // 2, variant, x)
    assert abs(rep["coarse"] - coarse) <= 1e-12 * abs(coarse)
    assert abs(rep["value"] - fine) <= 1e-12 * abs(fine)


def test_literal_excited_level_misses_target():
    """The literal weight L_1(|u|) does not give pi^2/(2i) (oracle only)."""
    val = identity_pointwise(1, 7.0, 32, variant="literal")
    assert abs(val - TARGET_IDENTITY) > 1.0
