import numpy as np
import pytest
from scipy.special import expi

from landautrace.fock import ModelParams, build_basis, landau_projection, tensor_with_spin
from landautrace.singtrace import (
    GAMMA_SCHEDULE,
    SingularSequence,
    cesaro_tau,
    dixmier_from_shell_sums,
    dixmier_graded,
    dixmier_via_gamma_fit,
    dixmier_via_zeta_residue,
    gamma_schedule,
    gamma_sequence,
    graded_diagonal,
    measurability_diagnostic,
    q_level_sequence,
    q_resolvent_sequence,
    sigma_partial,
    trace_Q_power,
    trace_Q_power_proj,
)
from landautrace.specfun import hurwitz_zeta


class TestSigmaPartial:
    def test_finite_rank_saturates(self):
        seq = SingularSequence.from_values(np.ones(4))
        assert sigma_partial(seq, 4) == pytest.approx(4.0)
        assert sigma_partial(seq, 15) == pytest.approx(4.0)

    def test_q_resolvent_shell_boundaries(self):
        # first N'(N'+1)/2 values sum to sum_{j=1}^{N'} j/(j+1)
        seq = q_resolvent_sequence(0.0)
        for nprime in (3, 10, 41):
            n = nprime * (nprime + 1) // 2
            js = np.arange(1, nprime + 1, dtype=float)
            assert sigma_partial(seq, n) == pytest.approx(np.sum(js / (js + 1.0)), rel=1e-14)

    def test_level_sequence_values(self):
        xi, j = 0.25, 3
        seq = q_level_sequence(xi, j)
        for n in (1, 7, 100):
            ks = np.arange(n, dtype=float)
            ref = np.sum(1.0 / (ks + j + 2.0 * (1.0 + xi)))
            assert sigma_partial(seq, n) == pytest.approx(ref, rel=1e-13)

    def test_exact_sigma_matches_generic_path(self):
        xi, j = 0.5, 2
        fast = q_level_sequence(xi, j)
        slow = SingularSequence(
            lambda k: 1.0 / (k + j + 2.0 + 2.0 * xi), lambda k: np.ones_like(k)
        )
        for n in (10, 1000, 65536):
            assert fast.sigma(n) == pytest.approx(slow.sigma(n), rel=1e-12)

    def test_zero_tail_past_the_rank(self):
        seq = SingularSequence.from_values(np.ones(3))
        assert sigma_partial(seq, 4) == 3.0
        assert seq.mu(np.array([2, 3, 1000])).tolist() == [1.0, 0.0, 0.0]

    def test_merged_sum_inequalities(self):
        # sigma_N(T1) + sigma_N(T2) >= sigma_N(T1 + T2) >= sigma_N(merged)
        rng = np.random.default_rng(9)
        for _ in range(20):
            t1 = np.sort(rng.uniform(0, 1, size=30))[::-1]
            t2 = np.sort(rng.uniform(0, 1, size=30))[::-1]
            s_sum = SingularSequence.from_values(np.sort(t1 + t2)[::-1])
            s1 = SingularSequence.from_values(t1)
            s2 = SingularSequence.from_values(t2)
            merged = SingularSequence.from_values(np.sort(np.concatenate([t1, t2]))[::-1])
            for n in (1, 5, 17, 30):
                a = sigma_partial(s1, n) + sigma_partial(s2, n)
                b = sigma_partial(s_sum, n)
                c = sigma_partial(merged, n)
                assert a >= b - 1e-12
                assert b >= c - 1e-12


class TestGammaSequence:
    def test_finite_rank_tends_to_zero(self):
        seq = SingularSequence.from_values(np.ones(5))
        gs = gamma_sequence(seq, [2 ** k for k in (4, 8, 12, 16)])
        vals = [g for _, g in gs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5

    def test_harmonic_bracket_at_1e6(self):
        seq = q_level_sequence(0.0, 0)
        (_, g), = gamma_sequence(seq, [10 ** 6])
        assert 0.9 < g < 1.1

    def test_doubling_ratio_bound(self):
        seq = q_level_sequence(0.0, 2)
        for n in (2 ** 10, 2 ** 16):
            (_, g1), (_, g2) = gamma_sequence(seq, [n, 2 * n])
            assert g2 / g1 <= 1.0 + 2.0 / np.log(n)

    def test_schedule_validation(self):
        seq = SingularSequence.from_values(np.ones(2))
        with pytest.raises(ValueError):
            gamma_sequence(seq, [16, 8])
        with pytest.raises(ValueError):
            gamma_sequence(seq, [1, 2])


def brute_cesaro(mu_of_n, lam, lam0, pts_per_unit=64):
    """Trapezoid integral of sigma_s/(s log s) with direct cumulative sums."""
    n_hi = int(np.ceil(lam))
    mu = mu_of_n(np.arange(n_hi + 1, dtype=float))
    sig_int = np.concatenate([[0.0], np.cumsum(mu)])

    def sigma(sv):
        k = np.floor(sv).astype(int)
        return sig_int[k] + (sv - k) * mu[np.minimum(k, n_hi)]

    s = np.linspace(lam0, lam, int((lam - lam0) * pts_per_unit) + 2)
    y = sigma(s) / (s * np.log(s))
    return np.trapezoid(y, s) / np.log(lam)


def per_segment_cesaro(seq, lam, lam0):
    """cesaro_tau with both antiderivatives evaluated at the two ends of every unit segment."""
    ns = np.arange(int(np.floor(lam0)), int(np.ceil(lam)), dtype=np.int64)
    mu_n, sig_n = seq.mu(ns), seq.sigma(ns)
    a = np.maximum(ns.astype(float), lam0)
    b = np.minimum(ns.astype(float) + 1.0, lam)
    const = sig_n - ns.astype(float) * mu_n
    part = const * (np.log(np.log(b)) - np.log(np.log(a)))
    part += mu_n * (expi(np.log(b)) - expi(np.log(a)))
    return float(np.sum(part) / np.log(lam))


class TestCesaro:
    @pytest.mark.parametrize("lam, lam0", [(1e3, 3.0), (1e5, 3.0), (5e4, 5.0), (10.5, 3.2), (3.9, 3.2)])
    def test_node_grid_matches_per_segment_form_bit_for_bit(self, lam, lam0):
        for seq in (q_level_sequence(0.0, 1),
                    SingularSequence(lambda j: 2.0 ** (-j.astype(float)),
                                     lambda j: np.ones_like(j))):
            assert cesaro_tau(seq, lam, lam0).hex() == per_segment_cesaro(seq, lam, lam0).hex()

    def test_matches_brute_force_harmonic(self):
        seq = SingularSequence(
            lambda j: 1.0 / (j + 1.0), lambda j: np.ones_like(j)
        )
        lam, lam0 = 2000.0, 3.0
        ref = brute_cesaro(lambda n: 1.0 / (n + 1.0), lam, lam0)
        assert cesaro_tau(seq, lam, lam0) == pytest.approx(ref, rel=1e-5)

    def test_harmonic_profile_near_one(self):
        seq = SingularSequence(
            lambda j: 1.0 / (j + 1.0), lambda j: np.ones_like(j)
        )
        for lam in (1e3, 1e5, 1e6):
            assert abs(cesaro_tau(seq, lam, 3.0) - 1.0) < 0.05

    def test_trace_class_decays_like_loglog_over_log(self):
        seq = SingularSequence(
            lambda j: 2.0 ** (-j.astype(float)), lambda j: np.ones_like(j)
        )
        lam0 = 3.0
        taus = [cesaro_tau(seq, lam, lam0) for lam in (1e3, 1e5, 1e7)]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        # sigma_s -> 2, so tau ~ 2 (loglog lam - loglog lam0)/log lam
        for lam, tau in zip((1e3, 1e5, 1e7), taus):
            model = 2.0 * (np.log(np.log(lam)) - np.log(np.log(lam0))) / np.log(lam)
            assert tau == pytest.approx(model, rel=0.05)

    def test_mean_value_bracket(self):
        seq = q_level_sequence(0.0, 1)
        lam, lam0 = 5e4, 5.0
        grid = np.unique(np.geomspace(lam0, lam, 200).astype(int))
        gammas = seq.sigma(grid) / np.log(grid)
        tau = cesaro_tau(seq, lam, lam0)
        assert gammas.min() - 1e-6 <= tau <= gammas.max() + 1e-6

    def test_domain_validation(self):
        seq = q_level_sequence(0.0, 0)
        with pytest.raises(ValueError):
            cesaro_tau(seq, 10.0, 20.0)
        with pytest.raises(ValueError):
            cesaro_tau(seq, 10.0, 2.0)


class TestGammaFit:
    @pytest.mark.parametrize("xi", [0.0, 0.5])
    @pytest.mark.parametrize("j", [0, 1, 3, 5, 25, 37, 60])
    def test_level_sequences_give_one(self, xi, j):
        est = dixmier_via_gamma_fit(q_level_sequence(xi, j))
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_q_squared_gives_half(self, xi):
        est = dixmier_via_gamma_fit(q_resolvent_sequence(xi, power=2))
        assert est.converged
        assert est.value == pytest.approx(0.5, abs=1e-3)

    def test_finite_rank_gives_zero(self):
        est = dixmier_via_gamma_fit(SingularSequence.from_values(np.ones(5)))
        assert est.value == pytest.approx(0.0, abs=1e-3)

    def test_from_matrix_projection(self):
        basis = build_basis(8)
        p = landau_projection(basis, 1)
        seq = SingularSequence.from_matrix(p)
        rank = basis.nmax  # states (1, m), m <= nmax - 1
        assert sigma_partial(seq, basis.dim) == pytest.approx(rank)
        assert sigma_partial(seq, rank) == pytest.approx(rank)  # saturated
        assert seq.mu(np.array([0, rank])).tolist() == [1.0, 0.0]

    def test_from_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            SingularSequence.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("offset", [2.0, 7.5, 16.0])
    def test_low_offsets_keep_the_default_schedule(self, offset):
        assert gamma_schedule(offset) == GAMMA_SCHEDULE

    def test_schedule_starts_past_the_offset(self):
        # 15 powers of two from 64 offset rounded up to a power of two
        assert gamma_schedule(16.5) == tuple(2 ** k for k in range(11, 26))
        assert gamma_schedule(327.0) == tuple(2 ** k for k in range(15, 30))  # 64 x 327 = 20928
        assert gamma_schedule(512.0)[0] == 2 ** 15  # 64 x 512 is a power of two

    @pytest.mark.parametrize("xi", [0.0, 5.0])
    @pytest.mark.parametrize("j", [325, 800, 2000])
    def test_high_levels_converge_on_their_schedule(self, xi, j):
        # on the default schedule these levels stay unconverged (1.0043 +- 0.0043 at j = 800)
        seq = q_level_sequence(xi, j)
        assert not dixmier_via_gamma_fit(seq).converged
        est = dixmier_via_gamma_fit(seq, schedule=gamma_schedule(j + 2 + 2 * xi))
        assert est.converged and est.residual <= 1e-5
        assert abs(est.value - 1.0) <= 3 * est.residual

    def test_nonconvergence_flag_not_exception(self):
        # sorted uniform draws: sigma_N grows like N, which L + c/log N cannot fit;
        # the schedule stays inside the 2^12 values, before the zero tail, with the
        # ten counts a fit and its refit need, so the fit itself fails
        rng = np.random.default_rng(1)
        vals = np.sort(rng.uniform(0, 1, size=2 ** 12))[::-1]
        schedule = [2 ** k for k in range(2, 12)]
        est = dixmier_via_gamma_fit(SingularSequence.from_values(vals), tolerance=1e-9, schedule=schedule)
        assert len(est.samples) == 10 and np.isfinite(est.value)
        assert est.converged is False

    @pytest.mark.parametrize("points", [5, 9])
    def test_too_few_counts_for_the_refit_are_unconverged(self, points):
        # five counts fit the four columns, and the upper-half refit needs five more
        seq = q_level_sequence(0.0, 0)
        est = dixmier_via_gamma_fit(seq, schedule=GAMMA_SCHEDULE[:points])
        assert np.isnan(est.value) and est.residual == np.inf and not est.converged
        assert dixmier_via_gamma_fit(seq, schedule=GAMMA_SCHEDULE[:10]).converged


class TestClosedFormTraces:
    def test_zeta_instances(self):
        assert trace_Q_power(3.0, 0.0) == pytest.approx(
            hurwitz_zeta(2.0, 1.0) - hurwitz_zeta(3.0, 1.0), rel=1e-14
        )
        assert trace_Q_power_proj(2.0, 0.0, 0) == pytest.approx(
            np.pi ** 2 / 6.0 - 1.0, rel=1e-12
        )

    @pytest.mark.parametrize("s", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_full_trace_vs_eigen_sum(self, s, xi):
        shells = 4000
        ells = np.arange(0, shells, dtype=float)
        direct = np.sum((ells + 1.0) / (ells + 2.0 + 2.0 * xi) ** s)
        # integral-plus-midpoint tail of g(l) = (l+1)(l+2+2xi)^-s from l = shells
        c = 2.0 + 2.0 * xi
        u = shells + c
        tail = u ** (2.0 - s) / (s - 2.0) + (1.0 - c) * u ** (1.0 - s) / (s - 1.0)
        tail += 0.5 * (shells + 1.0) / u ** s
        assert trace_Q_power(s, xi) == pytest.approx(direct + tail, rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            trace_Q_power(2.0, 0.0)
        with pytest.raises(ValueError):
            trace_Q_power_proj(1.0, 0.0, 0)


class TestZetaResidue:
    @pytest.mark.parametrize("xi", [0.0, 0.5])
    @pytest.mark.parametrize("j", [0, 3, 5])
    def test_level_traces(self, xi, j):
        est = dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, xi, j))
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_residual_has_a_rounding_floor(self):
        # the last tableau step of Landau level 0 at xi = 0 is exactly 0; alone it
        # would hold a value one ulp off 1 to a bound of 0 and never certify it
        est = dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, 0.0, 0))
        assert 0.0 < est.residual <= 1e-14
        assert abs(est.value - 1.0) <= est.residual

    def test_q_squared(self):
        est = dixmier_via_zeta_residue(lambda s: trace_Q_power(2.0 * s, 0.3), tolerance=1e-6)
        assert est.value == pytest.approx(0.5, abs=1e-6)

    def test_trace_class_zeta_gives_zero(self):
        # zeta of a trace-class operator stays finite at s = 1
        est = dixmier_via_zeta_residue(lambda s: hurwitz_zeta(2.0 * s, 1.0))
        assert est.value == pytest.approx(0.0, abs=1e-8)

    def test_agreement_between_estimators(self):
        for xi in (0.0, 0.5, 1.0):
            for j in (0, 2, 5):
                a = dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, xi, j))
                b = dixmier_via_gamma_fit(q_level_sequence(xi, j))
                assert abs(a.value - b.value) <= max(1e-3, a.residual + b.residual)
            a = dixmier_via_zeta_residue(lambda s: trace_Q_power(2.0 * s, xi), tolerance=1e-6)
            b = dixmier_via_gamma_fit(q_resolvent_sequence(xi, power=2))
            assert abs(a.value - b.value) <= max(1e-3, a.residual + b.residual)


class TestGraded:
    def test_tensor_doubling(self):
        basis = build_basis(60)
        m = tensor_with_spin(landau_projection(basis, 1), np.eye(2))
        est = dixmier_graded(m, 0.0)
        assert est.value == pytest.approx(2.0, abs=3 * est.residual)
        assert est.value == pytest.approx(2.0, abs=2e-2)

    def test_matches_gamma_fit_at_nmax_120(self):
        basis = build_basis(120)
        est = dixmier_graded(landau_projection(basis, 2), 0.0)
        ref = dixmier_via_gamma_fit(q_level_sequence(0.0, 2))
        assert abs(est.value - ref.value) <= 2e-2

    def test_zero_operator(self):
        basis = build_basis(20)
        z = 0.0 * landau_projection(basis, 0)
        est = dixmier_graded(z, 0.0)
        assert est.value == 0.0

    def test_linearity_exact(self):
        basis = build_basis(24)
        m1, m2 = landau_projection(basis, 0), landau_projection(basis, 2)
        a = dixmier_graded(0.7 * m1 + (-0.3) * m2, 0.0)
        b = dixmier_graded(m1, 0.0)
        c = dixmier_graded(m2, 0.0)
        assert a.value == pytest.approx(0.7 * b.value - 0.3 * c.value, abs=1e-12)

    def test_shell_sums_structure(self):
        basis = build_basis(16)
        sums = graded_diagonal(landau_projection(basis, 3), 0.5)
        ells = np.arange(17, dtype=float)
        expect = np.where(ells >= 3, 1.0 / (ells + 3.0), 0.0)
        assert np.abs(sums - expect).max() <= 1e-14

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    @pytest.mark.parametrize("j", [120, 133])
    def test_window_starts_at_the_first_nonzero_shell(self, xi, j):
        # a level density from shell j on, past the outer-half start (69 at
        # Nmax 140): the fit takes the shells j..138, none of the zero ones
        # before (on which the estimate of level 137 read 0.0024)
        ells = np.arange(141.0)
        est = dixmier_from_shell_sums(np.where(ells >= j, 1.0 / (ells + 2.0 + 2.0 * xi), 0.0), xi)
        assert len(est.samples) == 139 - j
        assert est.converged and est.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("j", [134, 137, 140])
    def test_too_few_shells_leave_the_fit_unconverged(self, j):
        # under GRADED_MIN_WINDOW = 6 shells from the first nonzero one to the edge margin
        ells = np.arange(141.0)
        est = dixmier_from_shell_sums(np.where(ells >= j, 1.0 / (ells + 2.0), 0.0), 0.0)
        assert np.isnan(est.value) and not est.converged and est.residual == np.inf

    def test_needs_enough_shells(self):
        basis = build_basis(10)
        with pytest.raises(ValueError):
            dixmier_graded(landau_projection(basis, 0), 0.0)


class TestMeasurability:
    def test_q_resolvent_profile(self):
        # distinct values 1/(l+2), multiplicities l+1: Mult*mu -> 1, alpha 1/2
        rep = measurability_diagnostic(q_resolvent_sequence(0.0))
        assert rep.C == pytest.approx(1.0, abs=0.05)
        assert rep.power == pytest.approx(0.0, abs=0.05)
        assert rep.alpha == pytest.approx(0.5, abs=0.02)
        assert rep.prediction == pytest.approx(0.5, abs=0.05)

    def test_level_profile(self):
        rep = measurability_diagnostic(q_level_sequence(0.0, 1))
        assert rep.C == pytest.approx(1.0, abs=0.05)
        assert rep.power == pytest.approx(1.0, abs=0.05)
        assert rep.alpha == pytest.approx(1.0, abs=1e-9)
        assert rep.prediction == pytest.approx(1.0, abs=0.05)

    def test_geometric_is_trace_class(self):
        seq = SingularSequence(
            lambda j: 2.0 ** (-j.astype(float)), lambda j: np.ones_like(j)
        )
        rep = measurability_diagnostic(seq, n_shells=256)
        assert rep.trace_class
        assert rep.prediction == 0.0


def macaev_profile(seq, p, schedule=tuple(2 ** k for k in range(10, 21, 2))):
    """N^((1-p)/p) sigma_N on a schedule: bounded exactly on the (p+)-class."""
    return np.array([n ** ((1.0 - p) / p) * seq.sigma(n) for n in schedule])


class TestMacaevProfile:
    def test_q_resolvent_profile_rises_to_sqrt_two(self):
        # values 1/(l+2) with multiplicity l+1: sigma_N ~ sqrt(2N) from below
        prof = macaev_profile(q_resolvent_sequence(0.0), p=2.0)
        assert np.all(np.diff(prof) > 0) and np.all(prof < np.sqrt(2.0))
        assert prof[-1] == pytest.approx(np.sqrt(2.0), rel=1e-2)

    def test_level_sequence_profile_decays(self):
        # N^-1/2 sigma_N of a log-divergent sequence decays: bounded
        prof = macaev_profile(q_level_sequence(0.0, 0), p=2.0)
        assert np.all(np.diff(prof) < 0) and prof[-1] < 0.02

    def test_supercritical_profile_grows_as_n_to_one_eighth(self):
        # mu_n ~ n^(-1/8) lies outside the 4+ class: N^(-3/4) sigma_N ~ N^(1/8)
        seq = SingularSequence(
            lambda j: (j + 1.0) ** (-0.125), lambda j: np.ones_like(j)
        )
        prof = macaev_profile(seq, p=4.0)
        assert prof[-1] / prof[-2] == pytest.approx(4.0 ** 0.125, rel=1e-2)
