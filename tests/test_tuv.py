import numpy as np
import pytest

from landautrace import kernels, specfun
from landautrace.cli import _TUV_COMBINATIONS
from landautrace.fock import ModelParams, build_basis, landau_projection
from landautrace.kernels import QuadratureConvergenceError, Region, integrate_kernel_diagonal, landau_kernel
from landautrace.models import landau_levels
from landautrace.tuv import (
    FolnerFamily,
    LandauCombination,
    compare_tuv_dixmier,
    restricted_trace,
    tuv_limit,
)


def loop_kernel_diagonal(coeffs, points, params):
    """sum_j t_j Pi_j(x, x) with one landau_kernel call per level, oracle of the shared pass."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    out = np.zeros(len(pts), dtype=complex)
    for j, t in enumerate(coeffs):
        if t:
            out += t * landau_kernel(j, pts, pts, params)
    return out


def hexes(values):
    """float.hex of the real and imaginary part of every value, in order."""
    return list(map(float.hex, np.ravel(np.asarray(values, dtype=complex)).view(float).tolist()))


class TestKernelDiagonal:
    @pytest.mark.parametrize("coeffs", [*_TUV_COMBINATIONS, (0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("shape", ["squares", "disks"])
    @pytest.mark.parametrize("ell_B", [1.0, 2.0])
    def test_matches_the_level_loop_bit_for_bit(self, coeffs, shape, ell_B):
        params = ModelParams(ell_B=ell_B)
        combination = LandauCombination(coeffs)
        for region in FolnerFamily.default(shape).regions(params):
            for order in (64, 128):
                pts = region.rule(order).points
                assert hexes(combination.kernel_diagonal(pts, params)) == \
                    hexes(loop_kernel_diagonal(coeffs, pts, params))

    def test_one_recurrence_for_four_levels(self, monkeypatch):
        # every Laguerre recurrence passes through specfun.laguerre_rows or
        # the name kernels imported; the levels share one
        calls = []

        def counting(original):
            def counted(*args):
                calls.append(args[0])
                return original(*args)
            return counted

        for module in (kernels, specfun):
            monkeypatch.setattr(module, "laguerre_rows", counting(module.laguerre_rows))
        pts = Region.square(8.0).rule(16).points
        LandauCombination(_TUV_COMBINATIONS[0]).kernel_diagonal(pts, ModelParams())
        assert calls == [3]

    @pytest.mark.parametrize("coeffs", [[], [0.0], [0.0, 0.0, 0.0]])
    def test_no_level_reaches_the_recurrence(self, monkeypatch, coeffs):
        def refuse(*args):
            raise AssertionError("laguerre_rows called for a zero combination")

        for module in (kernels, specfun):
            monkeypatch.setattr(module, "laguerre_rows", refuse)
        pts = Region.square(3.0).rule(8).points
        diag = LandauCombination(coeffs).kernel_diagonal(pts, ModelParams())
        assert diag.shape == (len(pts),) and not diag.any()
        assert restricted_trace(LandauCombination(coeffs), Region.square(3.0), ModelParams()) == 0.0


class TestRestrictedTrace:
    def test_projection_square_area_law(self):
        params = ModelParams()
        for j in (0, 2):
            for side in (4.0, 7.0):
                val = restricted_trace(LandauCombination([0.0] * j + [1.0]), Region.square(side), params)
                assert val == pytest.approx(side ** 2 / (2 * np.pi), rel=1e-10)

    def test_projection_disk(self):
        params = ModelParams()
        val = restricted_trace(LandauCombination([1.0]), Region.disk(3.0), params)
        assert val == pytest.approx(np.pi * 9.0 / (2 * np.pi), rel=1e-10)
        assert val == pytest.approx(4.5, rel=1e-10)

    def test_zero(self):
        val = restricted_trace(LandauCombination([0.0, 0.0]), Region.square(3.0), ModelParams())
        assert val == 0.0

    def test_matrix_route_matches_closed_route(self):
        # basis-expansion route over a small region agrees with the
        # closed-form kernel diagonal once the basis saturates there
        params = ModelParams()
        basis = build_basis(36)
        region = Region.square(4.0)
        via_matrix = integrate_kernel_diagonal(landau_projection(basis, 1), region, params)
        via_kernel = restricted_trace(LandauCombination([0.0, 1.0]), region, params)
        assert abs(via_matrix.imag) <= 1e-9 * max(1.0, abs(via_matrix.real))  # self-adjoint
        assert via_matrix.real == pytest.approx(via_kernel, abs=1e-6)

    def test_monotone_in_region(self):
        params = ModelParams()
        t = LandauCombination([0.5, 0.25])
        vals = [
            restricted_trace(t, Region.square(side), params)
            for side in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_unresolved_refinement_raises(self, monkeypatch):
        # an integrand the refined rule does not resolve raises
        monkeypatch.setattr(LandauCombination, "kernel_diagonal",
                            lambda self, points, params: np.cos(40.0 * points[:, 0]))
        with pytest.raises(QuadratureConvergenceError):
            restricted_trace(LandauCombination([1.0]), Region.square(8.0), ModelParams())

    def test_scales_with_magnetic_length(self):
        val = restricted_trace(
            LandauCombination([1.0]), Region.square(4.0), ModelParams(ell_B=2.0)
        )
        assert val == pytest.approx(16.0 / (2 * np.pi * 4.0), rel=1e-10)


class TestTuvLimit:
    def test_projection_density(self):
        params = ModelParams()
        for j in (0, 1, 3):
            est = tuv_limit(LandauCombination([0.0] * j + [1.0]), params=params)
            assert est.converged
            assert est.value == pytest.approx(1.0 / (2 * np.pi), abs=1e-8)

    def test_level_independence(self):
        params = ModelParams()
        vals = [
            tuv_limit(LandauCombination([0.0] * j + [1.0]), params=params).value
            for j in (0, 2, 4)
        ]
        assert max(vals) - min(vals) <= 1e-8

    def test_linearity(self):
        params = ModelParams()
        t = (0.5, -0.25, 0.125, -0.0625)
        est = tuv_limit(LandauCombination(t), params=params)
        assert est.value == pytest.approx(sum(t) / (2 * np.pi), abs=1e-8)

    def test_shape_independence(self):
        params = ModelParams()
        t = (0.3, -0.6, 0.2)
        sq = tuv_limit(LandauCombination(t), FolnerFamily.default("squares"), params)
        dk = tuv_limit(LandauCombination(t), FolnerFamily.default("disks"), params)
        assert abs(sq.value - dk.value) <= 1e-3

    def test_needs_four_members(self):
        with pytest.raises(ValueError):
            tuv_limit(LandauCombination([1.0]), FolnerFamily("squares", (4.0, 8.0)), ModelParams())

    def test_family_validation(self):
        with pytest.raises(ValueError):
            FolnerFamily("squares", (4.0, 4.0, 8.0, 12.0))
        with pytest.raises(ValueError):
            FolnerFamily("hexagons", (1.0, 2.0, 3.0, 4.0))


class TestBridge:
    def test_single_projection(self):
        rep = compare_tuv_dixmier([1.0], xi=0.0)
        assert rep["ok"]
        assert rep["lhs"] == pytest.approx(1.0 / (2 * np.pi), abs=1e-6)
        assert rep["rhs"] == pytest.approx(1.0 / (2 * np.pi), abs=1e-6)

    def test_zero(self):
        rep = compare_tuv_dixmier([0.0, 0.0, 0.0], xi=0.5)
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert rep["rhs"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_random_four_term(self, xi):
        rng = np.random.default_rng(42)
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        rep = compare_tuv_dixmier(coeffs, xi=xi, tolerance=1e-3)
        assert rep["ok"]
        assert rep["diff"] <= 1e-3

    def test_xi_independence(self):
        coeffs = (0.5, -0.25, 0.125, -0.0625)
        lhs = [compare_tuv_dixmier(coeffs, xi=xi)["lhs"] for xi in (0.0, 0.5, 1.0)]
        assert max(lhs) - min(lhs) <= 1e-6


def fermi_density(E, params):
    """Trace per unit area of the Fermi projection onto the levels E_j <= E."""
    levels = landau_levels(params, 6).eigenvalues
    return tuv_limit(LandauCombination((levels <= E).astype(float)), params=params)


class TestIdos:
    """The integrated density of states is the level count below E per unit area."""

    def test_below_ground_level(self):
        assert fermi_density(0.4, ModelParams()).value == 0.0

    def test_first_step(self):
        est = fermi_density(1.0, ModelParams())
        assert est.converged
        assert est.value == pytest.approx(1.0 / (2 * np.pi), abs=1e-8)

    def test_five_levels(self):
        # E_j = j + 1/2 <= 5 for j <= 4, five levels in total
        est = fermi_density(5.0, ModelParams())
        assert est.converged
        assert est.value == pytest.approx(5.0 / (2 * np.pi), abs=1e-8)

    def test_scaling(self):
        p = ModelParams(ell_B=2.0, eps_B=3.0)
        est = fermi_density(3.0, p)
        assert est.converged
        assert est.value == pytest.approx(1.0 / (2 * np.pi * 4.0), abs=1e-8)
