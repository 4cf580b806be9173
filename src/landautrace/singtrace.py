"""Numerical Dixmier-trace engine.

Three independent estimators are provided for the coefficient of the
logarithmic divergence of singular-value partial sums:

* ``dixmier_via_gamma_fit`` - fits gamma_N = sigma_N / log N against
  1/log N over a geometric schedule of N;
* ``dixmier_via_zeta_residue`` - Richardson-extrapolates the residue
  lim_{s->1+} (s-1) zeta(s) of a trace zeta function;
* ``dixmier_graded`` - sums the diagonal of (Q + 2 xi)^{-1} M over the
  graded shells of the harmonic regulator Q = a+a- + b+b- + 2 and reads
  the trace as the slope of the cumulated sums against the exact
  harmonic column H_l = sum_{k<=l} 1/(k + 2 + 2 xi).

Only measurable operators are targeted, where every generalized-limit
state gives the same value; instead of an omega abstraction each estimate
carries a convergence flag, and independent estimators are cross-checked
in the test suite.
"""

from dataclasses import dataclass
import math

import numpy as np

from .specfun import digamma, hurwitz_zeta

__all__ = [
    "SingularSequence",
    "DixmierEstimate",
    "sigma_partial",
    "gamma_sequence",
    "cesaro_tau",
    "gamma_schedule",
    "dixmier_via_gamma_fit",
    "trace_Q_power",
    "trace_Q_power_proj",
    "dixmier_via_zeta_residue",
    "dixmier_graded",
    "graded_diagonal",
    "dixmier_from_shell_sums",
    "measurability_diagnostic",
    "q_resolvent_sequence",
    "q_level_sequence",
]

#: default geometric schedule for gamma fits, N = 2^10 .. 2^24
GAMMA_SCHEDULE = tuple(2 ** k for k in range(10, 25))

#: shells dropped at the truncation edge in graded estimates
GRADED_MARGIN = 2

#: fewest shells a graded fit takes; fewer leave the estimate unconverged
GRADED_MIN_WINDOW = 6

#: certification tolerance of the graded estimator, the same for every model
GRADED_TOL = 5e-2


class SingularSequence:
    """Non-increasing sequence of singular values with multiplicities.

    Backed by closed-form shell generators ``value(j)``, ``mult(j)`` (j
    indexes distinct values in decreasing order; both must accept numpy
    integer arrays). ``sigma_exact(N)``, when given, returns the partial
    sums at a float array of N in place of the shell tables.
    """

    def __init__(self, value_fn, mult_fn, sigma_exact=None, unit_multiplicity=False):
        self._value_fn = value_fn
        self._mult_fn = mult_fn
        self._sigma_exact = sigma_exact
        self._unit_mult = bool(unit_multiplicity)
        self._vals = np.empty(0)
        self._mults = np.empty(0, dtype=np.int64)
        self._rebuild_cum()

    @classmethod
    def from_values(cls, values):
        """The values sorted in decreasing order, followed by zeros: a finite-rank operator."""
        v = np.sort(np.asarray(values, dtype=float))[::-1]
        if v.size and v[-1] < -1e-15:
            raise ValueError("values must be nonnegative")
        v = np.append(np.maximum(v, 0.0), 0.0)  # the trailing 0.0 is every later value
        cum = np.concatenate([[0.0], np.cumsum(v[:-1])])

        def value(js):
            return v[np.minimum(js, v.size - 1)]

        def sigma_exact(N):
            return cum[np.minimum(N.astype(np.int64), v.size - 1)]

        return cls(value, np.ones_like, sigma_exact=sigma_exact, unit_multiplicity=True)

    @classmethod
    def from_matrix(cls, mat):
        """Eigenvalues of a positive-semidefinite matrix, followed by zeros."""
        entries = mat.entries if hasattr(mat, "entries") else np.asarray(mat)
        if np.abs(entries - entries.conj().T).max() > 1e-10:
            raise ValueError("matrix must be hermitian")
        ev = np.linalg.eigvalsh(entries)
        if ev.size and ev[0] < -1e-10 * max(1.0, abs(ev[-1])):
            raise ValueError("matrix must be positive semidefinite")
        return cls.from_values(np.maximum(ev, 0.0))

    # -- internals ---------------------------------------------------------

    def _rebuild_cum(self):
        self._cum_count = np.concatenate([[0], np.cumsum(self._mults)])
        self._cum_sum = np.concatenate([[0.0], np.cumsum(self._mults * self._vals)])

    def _ensure_count(self, n_target):
        """Grow the shell tables until at least n_target unrolled entries."""
        while self._cum_count[-1] < n_target:
            start = len(self._vals)
            grow = max(1024, start)
            js = np.arange(start, start + grow, dtype=np.int64)
            v = np.asarray(self._value_fn(js), dtype=float)
            m = np.asarray(self._mult_fn(js), dtype=np.int64)
            if np.any(m < 1):
                raise ValueError("multiplicities must be >= 1")
            self._vals = np.concatenate([self._vals, v])
            self._mults = np.concatenate([self._mults, m])
            self._rebuild_cum()

    def mu(self, n):
        """Unrolled singular values at 0-based positions n (array ok)."""
        n = np.asarray(n, dtype=np.int64)
        if np.any(n < 0):
            raise ValueError("positions must be nonnegative")
        self._ensure_count(int(n.max()) + 1 if n.size else 0)
        shell = np.searchsorted(self._cum_count, n, side="right") - 1
        return self._vals[shell]

    def sigma(self, N):
        """Partial sums of the first N unrolled singular values."""
        N = np.asarray(N, dtype=np.int64)
        scalar = N.ndim == 0
        Nv = N[None] if scalar else N
        if np.any(Nv < 0):
            raise ValueError("N must be nonnegative")
        if self._sigma_exact is not None:
            out = np.asarray(self._sigma_exact(Nv.astype(float)), dtype=float)
            return float(out[0]) if scalar else out
        self._ensure_count(int(Nv.max()) if Nv.size else 0)
        shell = np.searchsorted(self._cum_count, Nv, side="right") - 1
        shell = np.minimum(shell, len(self._vals) - 1)
        out = self._cum_sum[shell] + (Nv - self._cum_count[shell]) * self._vals[shell]
        return float(out[0]) if scalar else out

    def boundary_at_least(self, n):
        """Smallest multiplicity-block boundary >= n (unrolled count).

        Partial sums evaluated at these boundaries follow the smooth
        shell-subsequence profile instead of scalloping through the
        piecewise-linear interpolation inside a degenerate block.
        """
        n = int(n)
        if self._unit_mult:
            return n
        self._ensure_count(n)
        return int(self._cum_count[np.searchsorted(self._cum_count, n, side="left")])

    def distinct(self, n_shells):
        """First n_shells (value, mult) pairs of the distinct-value table."""
        while len(self._vals) < n_shells:
            self._ensure_count(self._cum_count[-1] + 1)
        return self._vals[:n_shells].copy(), self._mults[:n_shells].copy()


@dataclass
class DixmierEstimate:
    """Singular-trace estimate with convergence diagnostics."""

    value: float
    method: str
    samples: list
    converged: bool
    residual: float

    def to_dict(self):
        return {
            "value": self.value,
            "method": self.method,
            "residual": self.residual,
            "converged": self.converged,
            "samples": [list(map(float, s)) for s in self.samples],
        }


# ---------------------------------------------------------------------------
# partial sums and Cesaro machinery


def sigma_partial(seq, N):
    """Sum of the first N singular values (multiplicities unrolled)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return float(seq.sigma(int(N)))


def gamma_sequence(seq, schedule):
    """Regularized partial sums gamma_N = sigma_N / log N on a schedule."""
    schedule = [int(n) for n in schedule]
    if any(n < 2 for n in schedule):
        raise ValueError("schedule entries must be >= 2")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be increasing")
    sig = seq.sigma(np.asarray(schedule))
    return [(n, float(s) / np.log(n)) for n, s in zip(schedule, sig)]


def cesaro_tau(seq, lam, lam0):
    """Cesaro mean (1/log lam) * int_lam0^lam sigma_s/log s ds/s.

    sigma_s is the piecewise-linear interpolation of the partial sums (the
    scale-cutoff norm is exactly that interpolation, linear and concave
    between integer scales), so each unit segment integrates in closed
    form through log-log and logarithmic-integral antiderivatives.
    """
    from scipy.special import expi  # no command calls this; ROADMAP item 9 moves it or gives it one

    if not (lam > lam0 > np.e):
        raise ValueError("need lam > lam0 > e")
    ns = np.arange(int(np.floor(lam0)), int(np.ceil(lam)), dtype=np.int64)
    mu_n = seq.mu(ns)          # slope on [n, n+1]
    sig_n = seq.sigma(ns)      # value at the left endpoint
    # segment n is [max(n, lam0), min(n + 1, lam)], so the nodes are lam0, ns[1:] and lam;
    # each antiderivative is evaluated once per node
    log_nodes = np.log(np.concatenate([[lam0], ns[1:].astype(float), [lam]]))
    # int sigma_s/(s log s) ds = (sigma_n - n mu_n) loglog s + mu_n li(s)
    part = (sig_n - ns.astype(float) * mu_n) * np.diff(np.log(log_nodes))
    part += mu_n * np.diff(expi(log_nodes))
    return float(np.sum(part) / np.log(lam))


# ---------------------------------------------------------------------------
# estimators


def _sigma_slope(N, sig):
    """Slope of sigma_N = L log N + b + e / sqrt(N) + f / N and the gamma-unit deviation."""
    logn = np.log(N)
    A = np.vstack([logn, np.ones_like(N), N ** -0.5, 1.0 / N]).T
    coef, *_ = np.linalg.lstsq(A, sig, rcond=None)
    dev = float(np.abs((A @ coef - sig) / logn).max())
    return float(coef[0]), dev


def gamma_schedule(offset):
    """The schedule of a sequence 1/(k + offset): 15 powers of two, from max(2^10, 64 offset) rounded up.

    Its partial sums psi(N + offset) - psi(offset) reach their log N form
    only for N well past the offset, so a fixed schedule leaves the fit
    unconverged on high levels (Landau j >= 325 on 2^10..2^24). Every
    offset up to 16 keeps :data:`GAMMA_SCHEDULE`.
    """
    mantissa, exponent = math.frexp(64.0 * offset)  # 64 offset = mantissa 2^exponent, 1/2 <= mantissa < 1
    start = max(10, exponent - (mantissa == 0.5))
    return tuple(2 ** k for k in range(start, start + len(GAMMA_SCHEDULE)))


def dixmier_via_gamma_fit(seq, tolerance=1e-3, schedule=GAMMA_SCHEDULE):
    """Extrapolate gamma_N = sigma_N / log N over a geometric schedule.

    The model gamma_N = L + c/log N is fitted in partial-sum form
    sigma_N = L log N + c (least squares there keeps the intercept drift
    out of the slope), evaluated at multiplicity-block boundaries (the
    shell-subsequence trick) and augmented by a 1/sqrt(N) column that
    captures the shell-tail correction of graded families and a 1/N
    column for the (a - 1/2)/N term of digamma partial sums
    psi(N + a) - psi(a) (DLMF 5.11.2). The four-column fit needs at least
    five schedule points, so it never passes through every point. The
    residual combines the fit deviation (in gamma units) with the spread
    against a refit on the upper half of the schedule; non-convergence is
    reported through the flag, never raised. Counts past the int64 range
    are left out of the schedule; with fewer than five left (the Landau
    schedules from xi of about 2^51) the estimate is an unconverged NaN.
    """
    # snap to multiplicity-block boundaries (shell-subsequence evaluation)
    schedule = sorted({seq.boundary_at_least(n) for n in schedule if n <= np.iinfo(np.int64).max})
    if len(schedule) < 5:
        return DixmierEstimate(np.nan, "gamma_fit", [], False, np.inf)
    N = np.array(schedule, dtype=float)
    sig = seq.sigma(np.array(schedule))
    samples = [(int(n), float(s) / np.log(n)) for n, s in zip(N, sig)]
    value, dev = _sigma_slope(N, sig)
    half = len(N) // 2
    if len(N) - half >= 5:
        value_hi, _ = _sigma_slope(N[half:], sig[half:])
        residual = max(dev, abs(value - value_hi))
    else:
        residual = dev
    return DixmierEstimate(value, "gamma_fit", samples, residual <= tolerance, residual)


def trace_Q_power(s, xi):
    """Closed-form Tr (Q + 2 xi)^{-s}; trace class needs s > 2."""
    if s <= 2:
        raise ValueError(f"(Q + 2 xi)^(-s) is trace class only for s > 2 (got {s})")
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    return hurwitz_zeta(s - 1.0, 1.0 + 2.0 * xi) - (1.0 + 2.0 * xi) * hurwitz_zeta(s, 1.0 + 2.0 * xi)


def trace_Q_power_proj(s, xi, j):
    """Closed-form Tr (Q + 2 xi)^{-s} P_j; trace class needs s > 1."""
    if s <= 1:
        raise ValueError(f"(Q + 2 xi)^(-s) P_j is trace class only for s > 1 (got {s})")
    if xi < 0 or j < 0:
        raise ValueError("xi and j must be nonnegative")
    return hurwitz_zeta(s, j + 2.0 * (1.0 + xi))


def dixmier_via_zeta_residue(zeta_fn, tolerance=1e-8, k_range=range(3, 13)):
    """Estimate lim_{s->1+} (s-1) zeta_fn(s) by Richardson extrapolation.

    Samples s = 1 + 2^-k and eliminates the power corrections of the
    analytic function eps -> eps * zeta(1 + eps) on the halving grid.
    The residual is the last tableau step, floored by the tableau's own
    rounding bound: the same recursion run on machine eps * |f| with
    absolute weights (the last step alone can come out exactly 0).
    Divergence is flagged, not raised.
    """
    ks = list(k_range)
    eps = np.array([2.0 ** (-k) for k in ks])
    f = np.array([e * zeta_fn(1.0 + e) for e in eps])
    samples = [(1.0 + e, float(v)) for e, v in zip(eps, f)]
    # Neville tableau on the halving grid, with its rounding bound alongside
    tab, bound = [f.copy()], np.finfo(float).eps * np.abs(f)
    for m in range(1, len(f)):
        prev = tab[-1]
        fac = 2.0 ** m
        tab.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
        bound = (fac * bound[1:] + bound[:-1]) / (fac - 1.0)
    value = float(tab[-1][-1])
    step = abs(float(tab[-1][-1]) - float(tab[-2][-1])) if len(tab) > 1 else np.inf
    resid = max(step, float(bound[-1]))
    ok = np.isfinite(value) and resid <= tolerance
    return DixmierEstimate(value, "zeta_residue", samples, bool(ok), float(resid))


def graded_diagonal(M, xi):
    """Shell sums of the diagonal of (Q + 2 xi)^{-1} M, spin traced, as a real array."""
    basis = M.basis
    diag = np.diag(M.entries)
    if M.spin_dim > 1:
        diag = diag.reshape(basis.dim, M.spin_dim).sum(axis=1)
    weights = 1.0 / (basis.shell + 2.0 + 2.0 * xi)
    vals = diag * weights
    sums = np.zeros(basis.nmax + 1, dtype=complex)
    np.add.at(sums, basis.shell, vals)
    if np.abs(sums.imag).max() > 1e-9 * max(1.0, np.abs(sums.real).max()):
        raise ValueError("graded diagonal is not real; M is far from self-adjoint")
    return sums.real.copy()


def _harmonic_slope(H, cum):
    """Slope of cum = T H + C by least squares and the fit's max deviation."""
    A = np.vstack([H, np.ones_like(H)]).T
    coef, *_ = np.linalg.lstsq(A, cum, rcond=None)
    return float(coef[0]), float(np.abs(A @ coef - cum).max())


def dixmier_from_shell_sums(shell_sums, xi):
    """Dixmier trace from the shell sums s_l of a graded diagonal.

    Wherever the n2 sectors have converged, s_l = D(l) / (l + 2 + 2 xi)
    with D(l) settled at its limit T, so the cumulated sum is exactly
    T H_l + C with H_l = sum_{k<=l} 1 / (k + 2 + 2 xi)
    = psi(l + 3 + 2 xi) - psi(2 + 2 xi) (DLMF 5.5.2). T is the slope of
    a least-squares fit on the columns [H_l, 1] over the outer half of the
    shells left after the ``GRADED_MARGIN`` edge shells, or from the first
    nonzero shell on where the density starts later: shells before it
    would hold a zero D(l) that T H_l + C does not fit. With fewer than
    ``GRADED_MIN_WINDOW`` shells left the estimate is NaN, unconverged,
    with residual inf. The residual is the fit's max deviation plus a
    rounding floor, divided by the H span of the window, plus the spread
    against the same fit on the window's upper half; it is never exactly
    0. Converged means residual <= ``GRADED_TOL``.
    """
    shell_sums = np.asarray(shell_sums, dtype=float)
    n_shells = len(shell_sums)
    if n_shells < 12 + GRADED_MARGIN:
        raise ValueError(f"need at least {12 + GRADED_MARGIN} shells, got {n_shells}")
    keep = n_shells - GRADED_MARGIN
    start = max(keep // 2, int(np.argmax(shell_sums != 0)))  # argmax: the first nonzero shell, 0 if none
    if keep - start < GRADED_MIN_WINDOW:
        return DixmierEstimate(np.nan, "graded_diagonal", [], False, np.inf)
    cum = np.cumsum(shell_sums[:keep])[start:]
    H = np.cumsum(1.0 / (np.arange(keep) + 2.0 + 2.0 * xi))[start:]
    value, dev = _harmonic_slope(H, cum)
    upper, _ = _harmonic_slope(H[len(H) // 2:], cum[len(H) // 2:])
    floor = np.finfo(float).eps * max(1.0, float(np.abs(cum).max()))
    residual = float((dev + floor) / (H[-1] - H[0]) + abs(value - upper))
    samples = list(zip(H, cum))
    return DixmierEstimate(value, "graded_diagonal", samples, residual <= GRADED_TOL, residual)


def dixmier_graded(M, xi):
    """Dixmier trace of (Q + 2 xi)^{-1} M from the graded diagonal of M.

    Exactly linear in M by construction. Requires 12 + GRADED_MARGIN
    shells; the outer ``GRADED_MARGIN`` shells are dropped because ladder
    products of order <= 2 corrupt them at the truncation edge.
    """
    return dixmier_from_shell_sums(graded_diagonal(M, xi), xi)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class MeasurabilityReport:
    """Power-law diagnostic of a singular sequence's distinct-value table."""

    C: float
    power: float
    alpha: float
    prediction: float
    trace_class: bool
    inconclusive: bool
    fit_residual: float


def measurability_diagnostic(seq, n_shells=4096):
    """Regress Mult[mu_n] mu_n ~ C n^(-p) on the distinct-value tail.

    Reports the fitted C and p, the index-rescaling factor
    alpha = log(#distinct) / log(#unrolled) at the tail end, and the
    predicted common Dixmier value alpha * C. A sequence whose unrolled
    sum has already saturated is flagged trace class (prediction 0).
    Never raises on odd data; sets ``inconclusive`` instead.
    """
    vals, mults = seq.distinct(n_shells)
    n_avail = len(vals)
    if n_avail < 16:
        return MeasurabilityReport(0.0, 0.0, 1.0, 0.0, True, True, np.inf)
    nz = vals > 0
    vals, mults = vals[nz], mults[nz]
    n_avail = len(vals)
    if n_avail < 16:
        return MeasurabilityReport(0.0, 0.0, 1.0, 0.0, True, False, 0.0)
    n = np.arange(1, n_avail + 1, dtype=float)
    unrolled = np.cumsum(mults.astype(float))
    total = np.sum(vals * mults)
    half = np.sum((vals * mults)[: n_avail // 2])
    trace_class = (total - half) <= 1e-6 * max(total, 1e-300)

    sel = slice(n_avail // 2, n_avail)
    yx = np.log(np.maximum(vals[sel] * mults[sel], 1e-300))
    xx = np.log(n[sel])
    A = np.vstack([np.ones_like(xx), xx]).T
    coef, *_ = np.linalg.lstsq(A, yx, rcond=None)
    resid = float(np.abs(A @ coef - yx).max())
    C = float(np.exp(coef[0]))
    p = float(-coef[1])
    # alpha as the asymptotic slope of log(#distinct) vs log(#unrolled);
    # the plain endpoint ratio converges too slowly to be useful
    yu = np.log(unrolled[sel])
    Au = np.vstack([np.ones_like(yu), yu]).T
    coef_a, *_ = np.linalg.lstsq(Au, xx, rcond=None)
    alpha = float(coef_a[1]) if unrolled[-1] > n_avail else 1.0
    prediction = 0.0 if trace_class else alpha * C
    inconclusive = resid > 0.5
    return MeasurabilityReport(C, p, alpha, prediction, trace_class, inconclusive, resid)


# ---------------------------------------------------------------------------
# ready-made sequences


def q_resolvent_sequence(xi, power=1):
    """Singular values of (Q + 2 xi)^{-power}: value (l+2+2xi)^-power, mult l+1."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")

    def value(js):
        return (js + 2.0 + 2.0 * xi) ** (-float(power))

    def mult(js):
        return js + 1

    return SingularSequence(value, mult)


def q_level_sequence(xi, j):
    """Singular values of (Q + 2 xi)^{-1} P_j: simple values 1/(k+j+2+2xi).

    Ships an exact digamma partial sum so sigma_N is O(1) at any N.
    """
    if xi < 0 or j < 0:
        raise ValueError("xi and j must be nonnegative")
    a = j + 2.0 + 2.0 * xi

    def value(ks):
        return 1.0 / (ks + a)

    def mult(ks):
        return np.ones_like(ks)

    psi_a = digamma(a)

    def sigma_exact(N):
        return [digamma(n + a) - psi_a for n in N]

    return SingularSequence(value, mult, sigma_exact=sigma_exact, unit_multiplicity=True)
