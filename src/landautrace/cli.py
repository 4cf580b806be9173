"""Command-line front end: spectra, invariants, and the verification suite.

Configuration is a flat ``key = value`` file with dotted section names
(``params.c_b = 0.4``); any key can be overridden by an environment
variable with prefix ``LANDAU_`` (dots become double underscores, e.g.
``LANDAU_PARAMS__C_B``) and by command-line flags, which win. Each command
reads only its own keys (``RunConfig``); any other key, misspelled or read
by another command only, is a config error that names where it was set and
the command. Jaynes-Cummings level 0, the unpaired ground state, is not a
pair level and is a config error too.

Exit status: 0 ok, 2 config error, 3 non-convergence (including a missing
spectral gap and an eigensolver that gives up), 4 assertion failure
(including a check that overflows).

No command builds a dense matrix: ``verify --check commutators`` works on
the bands of the n2 sector blocks at the requested nmax, and ``verify
--check symmetries`` on each spin-1/2 model's 2 x 2 spin twist and gauge
matrices.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import models, sectors, singtrace, topo, tuv
from .fock import ModelParams, ParamsError
from .kernels import landau_kernel, verify_integral_identity, QuadratureConvergenceError, TARGET_IDENTITY
from .models import NoGapError
from .singtrace import (
    dixmier_via_gamma_fit,
    dixmier_via_zeta_residue,
    gamma_schedule,
    q_level_sequence,
    trace_Q_power,
    trace_Q_power_proj,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_ASSERT = 4

ENV_PREFIX = "LANDAU_"

_MODELS = ("landau", "jaynes_cummings", "quaternionic")


class ConfigError(Exception):
    pass


def parse_config_text(text, source="<config>"):
    """Flat key = value lines; '#' comments; dotted keys; line-precise errors."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        out[key.lower()] = (value, f"{source}:{lineno}")
    return out


def _apply_env(cfg):
    for name, value in os.environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        cfg[key] = (value, f"env:{name}")
    return cfg


def _get(cfg, key, default=None, cast=str):
    if key not in cfg:
        return default
    value, where = cfg[key]
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def _finite(v):
    x = float(v)
    if not np.isfinite(x):
        raise ValueError(f"not finite: {v!r}")
    return x


def _positive(v):
    x = _finite(v)
    if x <= 0:
        raise ValueError(f"not > 0: {v!r}")
    return x


class RunConfig:
    """Validated configuration of one subcommand, holding only the keys it reads.

    Every command reads ``nmax``, ``out`` and the ``params.*`` record;
    ``spectrum`` adds ``model``, ``jmax`` and ``gap_threshold``;
    ``invariants`` adds ``model`` and then ``levels`` (landau,
    jaynes_cummings) or ``fermi_energy`` and ``gap_threshold``
    (quaternionic); ``verify`` adds ``tol`` and ``check``. Any other key
    is a config error. Every config error is raised here, before a command
    writes anything, and names where the value at fault was set:
    ``file:line``, ``env:NAME``, ``flag`` or ``<default>``.
    """

    def __init__(self, cfg, command):
        read = set()

        def get(key, default=None, cast=str):
            read.add(key)
            return _get(cfg, key, default, cast)

        def where(key):
            return cfg.get(key, (None, "<default>"))[1]

        self.nmax = get("nmax", 40, int)
        if self.nmax < 0:
            raise ConfigError(f"{where('nmax')}: nmax must be nonnegative")
        try:
            self.params = ModelParams(
                ell_B=get("params.ell_b", 1.0, float),
                eps_B=get("params.eps_b", 1.0, float),
                xi=get("params.xi", 0.0, float),
                c_b=get("params.c_b", 0.0, float),
                r=(
                    get("params.r0", 0.0, float),
                    get("params.r1", 1.0, float),
                    get("params.r2", 0.0, float),
                ),
            )
        except ParamsError as exc:
            keys = [f"params.r{i}" for i in range(3)] if exc.field == "r" else [f"params.{exc.field.lower()}"]
            at = ", ".join(cfg[key][1] for key in keys if key in cfg) or "<default>"
            raise ConfigError(f"{at}: invalid params: {exc}") from exc
        self.out_dir = get("out", ".")
        reader = command
        if command == "verify":
            self.tol = get("tol", None, _positive)
            self.check = get("check", None)
        else:
            self.model = get("model", "landau")
            if self.model not in _MODELS:
                raise ConfigError(f"{where('model')}: unknown model {self.model!r} (pick from {_MODELS})")
        if command == "spectrum":
            self.jmax = get("jmax", min(5, self.nmax), int)
            self.gap_threshold = get("gap_threshold", None, _positive)
        elif command == "invariants":
            reader = f"{self.model} invariants"
            if self.model == "quaternionic":
                self.fermi_energy = get("fermi_energy", None, _finite)
                self.gap_threshold = get("gap_threshold", None, _positive)
            else:
                self.levels = self._parse_levels(get("levels", ""), where("levels"))
        unknown = [key for key in cfg if key not in read]
        if unknown:  # e.g. a misspelled key, which would otherwise run on its default
            raise ConfigError(f"{where(unknown[0])}: key {unknown[0]!r} is not read by {reader}")
        if command == "spectrum" and not 0 <= self.jmax <= self.nmax:
            raise ConfigError(f"{where('jmax')}: jmax must be in 0..nmax = {self.nmax}, got {self.jmax}")
        if command == "invariants":
            self._check_invariants(where)
        if command == "verify":
            # the commutator check compares ladder commutators on the interior one
            # shell in (the margin-1 interior), which must hold more than shell 0
            if self.nmax < 2:
                raise ConfigError(f"{where('nmax')}: verify needs nmax >= 2, got {self.nmax}")
            names = [c[0] for c in CHECKS]
            if self.check not in (None, *names):
                raise ConfigError(f"{where('check')}: unknown check {self.check!r} (pick from {names})")

    def _check_invariants(self, where):
        """The graded fit needs 12 + GRADED_MARGIN shells, levels an interior."""
        min_nmax = 12 + singtrace.GRADED_MARGIN - 1  # shells 0..nmax
        if self.nmax < min_nmax:
            raise ConfigError(f"{where('nmax')}: invariants need nmax >= {min_nmax}, got {self.nmax}")
        if self.model == "quaternionic":
            if self.fermi_energy is None:
                raise ConfigError(f"{where('fermi_energy')}: quaternionic invariants need fermi_energy")
            return
        top = self.nmax - topo.LEVEL_MARGIN
        at = where("levels")
        for sign, j in self.levels:
            if self.model == "landau":
                if sign:
                    raise ConfigError(f"{at}: landau levels take no sign (got {j}{sign})")
                if not 0 <= j <= top:
                    raise ConfigError(f"{at}: landau level {j} outside 0..nmax-{topo.LEVEL_MARGIN} = {top}")
            elif j == 0:
                raise ConfigError(
                    f"{at}: jaynes_cummings level {j}{sign} is the unpaired ground state; pair levels start at 1"
                )
            elif not sign:
                raise ConfigError(f"{at}: pair level {j} needs a sign, e.g. {j}+")
            elif j < 0 or j + 1 > top:
                raise ConfigError(
                    f"{at}: pair level {j}{sign} needs 1 <= j and j + 1 <= nmax-{topo.LEVEL_MARGIN} = {top}"
                )

    @staticmethod
    def _parse_levels(raw, at):
        levels = []
        for tok in str(raw).replace(";", ",").split(","):
            tok = tok.strip()
            if not tok:
                continue
            sign = ""
            if tok[-1] in "+-":
                sign, tok = tok[-1], tok[:-1]
            try:
                j = int(tok)
            except ValueError as exc:
                raise ConfigError(f"{at}: bad level token {tok!r}") from exc
            levels.append((sign, j))
        return levels


def load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config_text(fh.read(), source=args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    _apply_env(cfg)
    for key, val in (
        ("model", args.model),
        ("nmax", args.nmax),
        ("tol", args.tol),
        ("check", args.check),
        ("out", args.out),
    ):
        if val is not None:
            cfg[key] = (str(val), "flag")
    return RunConfig(cfg, args.command)


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _finite_or_null(value):
    """The payload with every NaN or infinite float as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path, payload):
    """Strict JSON: a NaN or infinite float, say an uncertified estimate, is written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(config):
    """Interior eigenvalues per n2 sector against the closed forms, and their gaps.

    Each closed-form level takes the nearest interior eigenvalue, NaN when
    there is none. A non-finite eigenvalue or a difference over 1e-6 exits 4.
    Gaps are wider than ``gap_threshold``, by default 0.02 eps_B for the
    spin-orbit model and ``models.GAP_FRACTION`` eps_B for the other two.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    params, nmax = config.params, config.nmax
    thr = models.GAP_FRACTION * params.eps_B
    if config.model == "landau":
        closed = models.landau_levels(params, config.jmax)
        evs, flags = sectors.landau_sector_eigensystem(nmax, params)
    elif config.model == "jaynes_cummings":
        closed = models.jc_spectrum(params, config.jmax)
        evs, flags = sectors.jc_sector_eigensystem(nmax, params)
        thr = 0.02 * params.eps_B
    else:  # Landau x C^2 up to a spin rotation and a gauge: each Landau level twice, listed once
        closed = models.landau_levels(params, config.jmax)
        _, evs, flags = sectors.quaternionic_sector_eigensystem(nmax, params)
    if config.gap_threshold is not None:
        thr = config.gap_threshold
    interior = evs[flags]
    rows = []
    for label, cv in zip(closed.labels, closed.eigenvalues):
        dv = interior[np.abs(interior - cv).argmin()] if len(interior) else np.nan
        rows.append([label, float(cv), float(dv), float(abs(cv - dv))])
    gap_rows = [[g.lower, g.upper, g.width] for g in models._gaps_from_levels(interior, thr)]
    _write_csv(os.path.join(config.out_dir, "spectrum.csv"),
               ["label", "closed_form", "diagonalized", "abs_diff"], rows)
    _write_csv(os.path.join(config.out_dir, "gaps.csv"),
               ["lower", "upper", "width"], gap_rows)
    bad = [r for r in rows if not (np.isfinite(r[2]) and r[3] <= 1e-6)]
    return EXIT_ASSERT if bad else EXIT_OK


def cmd_invariants(config):
    """One report per requested level; exit 3 when any report is not certified."""
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "invariants.json")
    if config.model == "landau":
        runs = [(f"{j}", topo.invariants_landau, (j,)) for _, j in config.levels or [("", 0)]]
    elif config.model == "jaynes_cummings":
        runs = [(f"{j}{sign}", topo.invariants_jc, (j, sign)) for sign, j in config.levels or [("+", 1)]]
    else:
        run = functools.partial(topo.invariants_quaternionic, gap_threshold=config.gap_threshold)
        runs = [(f"E={config.fermi_energy}", run, (config.fermi_energy,))]
    reports = []
    try:
        for level, run, args in runs:
            reports.append((level, run(*args, config.nmax, config.params)))
    except NoGapError as exc:
        _write_json(path, {"error": "no-gap", "detail": str(exc)})
        print(f"no-gap: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    _write_json(path, [dict(level=level, **rep.to_dict()) for level, rep in reports])
    return EXIT_OK if all(rep.certified for _, rep in reports) else EXIT_NOCONV


# --- verification suite -----------------------------------------------------


def _hurwitz_direct(t, a):
    """H(t, a) = sum_k (k + a)^-t: 100 direct terms and the Euler-Maclaurin tail to B6."""
    terms = 100
    u = terms + a
    tail = (u ** (1 - t) / (t - 1) + u ** -t / 2 + t * u ** (-t - 1) / 12
            - t * (t + 1) * (t + 2) * u ** (-t - 3) / 720
            + t * (t + 1) * (t + 2) * (t + 3) * (t + 4) * u ** (-t - 5) / 30240)
    return np.sum((np.arange(terms) + a) ** -t) + tail


def _check_zeta_closed_forms(config, tol):
    """Both closed forms against direct sums, with c = 2 + 2 xi.

    Tr (Q + 2 xi)^-s = sum_l (l + 1) (l + c)^-s = H(s - 1, c) - (c - 1) H(s, c),
    and Tr (Q + 2 xi)^-s P_j = H(s, j + c).
    """
    worst = 0.0
    for xi in (0.0, 0.5, 1.0):
        c = 2.0 + 2.0 * xi
        for s in (2.5, 3.0, 4.0):
            ref = _hurwitz_direct(s - 1, c) - (c - 1) * _hurwitz_direct(s, c)
            worst = max(worst, abs(trace_Q_power(s, xi) - ref) / abs(ref))
        for s in (1.5, 2.0, 3.0):
            for j in (0, 3, 7):
                ref = _hurwitz_direct(s, j + c)
                worst = max(worst, abs(trace_Q_power_proj(s, xi, j) - ref) / abs(ref))
    return worst


def _check_dixmier(config, tol):
    worst = 0.0
    for xi in (0.0, 0.5):
        for j in (0, 2, 5):
            est = dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, xi, j))
            worst = max(worst, abs(est.value - 1.0))
            fit = dixmier_via_gamma_fit(q_level_sequence(xi, j), schedule=gamma_schedule(j + 2 + 2 * xi))
            worst = max(worst, abs(fit.value - est.value))
    est = dixmier_via_zeta_residue(lambda s: trace_Q_power(2.0 * s, 0.0), tolerance=1e-6)
    worst = max(worst, abs(est.value - 0.5))
    return worst


_C, _CI = 1 / np.sqrt(2), 1 / (1j * np.sqrt(2))
#: first-mode coefficients (of a+, of a-) of the operators the commutators check compares:
#: the ladders, K_1 = (a+ + a-)/sqrt2, K_2 = -i (a+ - a-)/sqrt2 and G_i = -K_i
_COMMUTATOR_MODES = {"a-": (0.0, 1.0), "a+": (1.0, 0.0), "K1": (_C, _C), "K2": (_CI, -_CI),
                     "G1": (-_C, -_C), "G2": (-_CI, _CI)}


def _bands(mode, n):
    """(sub, sup) bands c+ sqrt(k), c- sqrt(k), k = 1..n, of c+ a+ + c- a- for mode = (c+, c-)."""
    root = np.sqrt(np.arange(1, n + 1, dtype=float))
    return mode[0] * root, mode[1] * root


def _tridiagonal_commutator(x, y, rows):
    """Diagonal and second bands of [X, Y] on its leading rows x rows block.

    X = x[0] a+ + x[1] a- and Y = y[0] a+ + y[1] a- act on one truncated
    mode of more than ``rows`` levels, so every entry of the block is a sum
    of products of two band entries (:func:`_bands`). The two factors of a
    diagonal product share their sqrt(k), so the product is c c' k with the
    squared ladder entry k exact: row n is x[1] y[0] (n + 1) + x[0] y[1] n
    less the same with X and Y swapped, and as floating-point
    multiplication commutes, that is (x[1] y[0] - x[0] y[1]) ((n + 1) - n),
    whose rounding does not grow with n.
    """
    square = np.arange(rows + 1, dtype=float)  # the squared ladder entries 0..rows
    diag = (x[1] * y[0] - x[0] * y[1]) * (square[1:] - square[:-1])
    top = max(rows - 2, 0)

    def second(p, q):  # n -> n + 1 -> n + 2 and n + 2 -> n + 1 -> n
        (p_sub, p_sup), (q_sub, q_sup) = _bands(p, top + 1), _bands(q, top + 1)
        return p_sup[:top] * q_sup[1:], p_sub[1:] * q_sub[:top]

    return [diag] + [a - b for a, b in zip(second(x, y), second(y, x))]


def _commutator_residuals(nmax):
    """Residual of each canonical commutator and of Theta, on the bands of sector b = 0.

    Sector b (n2 = b) holds n1 = 0..nmax - b. The first mode acts in it by
    the leading block of one tridiagonal matrix with (sub, sup) bands
    c+ sqrt(n), c- sqrt(n), n = 1, 2, ..., for c+ a+ + c- a-; the second
    mode maps it to sector b - 1 by the same bands along the sector index.
    No block is formed: every entry compared is a sum of products of two
    band entries, on the margin-1 interior, the first nmax - b rows of b;
    on the diagonal they are exact squares times the coefficients
    (:func:`_tridiagonal_commutator`), so no residual grows with nmax.

    Second-mode commutators run along the sector index. Every other row
    is evaluated on sector 0 alone, which holds its largest residual over
    all sectors. First-mode commutators of sector b compare a prefix of
    sector 0's entries. Theta, the phase i^(n1 + b) with complex
    conjugation, enters by the ratio of neighbouring phases, the exact
    unit i in every sector. Each entry of [K, G] between sectors b and
    b + 1 is one band entry of K times their coupling in either order;
    floating-point multiplication commutes, so it is 0 for every coupling.

    Two pairs of rows coincide bit for bit, so each is evaluated once. The
    second mode's ladders have the first mode's bands, so [b-,b+] - 1 is
    [a-,a+] - 1. G_i = -K_i exactly (negation does not round), and every
    compared entry is a sum of products of two band entries, whose signs
    cancel, so [G1,G2] + i is [K1,K2] + i.
    """
    lowering, raising, k1, k2, g1, g2 = map(_COMMUTATOR_MODES.get, ("a-", "a+", "K1", "K2", "G1", "G2"))
    phase = sectors._i_power(np.arange(nmax + 1))

    def residual(*parts):
        return max(0.0, *(float(np.abs(p).max(initial=0.0)) for p in parts))

    def commutator(x, y, target):
        diag, *bands = _tridiagonal_commutator(x, y, nmax)
        return residual(diag - target, *bands)

    def cross(x, g):  # [X, G] between sectors 0 and 1
        x, g = _bands(x, nmax), _bands(g, nmax)
        return residual(*(band[:-1] * g[i][0] - g[i][0] * band[:-1] for band in x for i in (0, 1)))

    def theta(x, y):  # Theta X Theta^-1 + Y
        x, y = _bands(x, nmax), _bands(y, nmax)
        sub = phase[1:] * x[0].conj() * phase[:-1].conj()
        sup = phase[:-1] * x[1].conj() * phase[1:].conj()
        return residual(sub + y[0], sup + y[1])

    ladder, k = commutator(lowering, raising, 1.0), commutator(k1, k2, -1j)
    return {
        "[a-,a+] - 1": ladder, "[b-,b+] - 1": ladder,
        "[K1,K2] + i": k, "[G1,G2] + i": k,
        "[K1,G1]": cross(k1, g1), "[K2,G2]": cross(k2, g2),
        "Theta K1 Theta^-1 + K2": theta(k1, k2), "Theta K2 Theta^-1 + K1": theta(k2, k1),
    }


def _check_commutators(config, tol):
    return max(_commutator_residuals(config.nmax).values())


def _check_curvature(config, tol):
    """Worst residual of the curvature identities (a) and (b), j = 0..5."""
    nmax = max(12, config.nmax)
    worst = 0.0
    for j in range(0, min(6, nmax - 3)):
        res = topo.verify_curvature_identity(j, nmax, config.params)
        worst = max(worst, res["commutator_identity"], res["curvature_identity"])
    return worst


#: two combinations drawn once, uniform on [-1, 1]^4 (numpy's default_rng(7)), kept
#: as literals so that no command imports numpy.random
_TUV_COMBINATIONS = (
    (0.25019093320933394, 0.794427601939151, 0.551371380490387, -0.5495856200188163),
    (-0.39966743017754913, 0.7471068907925238, -0.9894693908688506, 0.6424568367655326),
)


def _check_tuv_bridge(config, tol):
    """Density formula for two random combinations at xi = 0 and 1.

    The zeta residue of each (xi, level) is computed once and shared by
    both combinations. The trace per unit volume does not depend on xi and
    is integrated once per combination, all levels of its kernel diagonal
    from one pass; its samples are written once per (combination, xi).
    """
    levels = max(len(coeffs) for coeffs in _TUV_COMBINATIONS)
    per_level = {xi: tuv.level_residues(xi, levels) for xi in (0.0, 1.0)}
    worst = 0.0
    rows = []
    for coeffs in _TUV_COMBINATIONS:
        rhs = tuv.tuv_limit(tuv.LandauCombination(coeffs), params=config.params)
        for estimates in per_level.values():
            lhs, _, _ = tuv.dixmier_density(coeffs, estimates, config.params)
            worst = max(worst, abs(lhs - rhs.value))
            rows += [["squares", float(scale), float(raw), float(normalized)]
                     for scale, raw, normalized in rhs.samples]
    _write_csv(os.path.join(config.out_dir, "tuv_rows.csv"),
               ["family", "scale", "raw", "normalized"], rows)
    return worst


def _check_integral_identity(config, tol):
    value = verify_integral_identity(0, cutoff=6.0, tol=max(tol, 1e-4))
    return abs(value - TARGET_IDENTITY)


def _check_symmetries(config, tol):
    """Worst twist residual of the spin-1/2 records, inf where a symmetry has the wrong class.

    With the Theta rows of the commutators check, a zero twist residual
    proves a symmetry at every Nmax, eps_B and c_b; Landau's Theta needs its label only.
    """
    worst = 0.0 if sectors.symmetry_label(sectors.THETA_TWIST) == "Real(+1)" else np.inf
    for model, expected in ((sectors.JC, "Real(+1)"), (sectors.QUATERNIONIC, "Quaternionic(-1)")):
        res = model.twist_residual(config.params)
        ok = res <= topo.SYMMETRY_TOL and sectors.symmetry_label(model.twist) == expected
        worst = max(worst, res if ok else np.inf)
    return worst


def _check_kernels(config, tol):
    params = config.params
    worst = 0.0
    for j in (0, 2):
        for pt in ((0.0, 0.0), (1.3, -0.4)):
            x = np.array(pt)
            val = landau_kernel(j, x, x, params)
            worst = max(worst, abs(val - 1.0 / (2 * np.pi * params.ell_B ** 2)))
    return worst


CHECKS = (
    ("commutators", _check_commutators, 1e-12),
    ("curvature", _check_curvature, 1e-10),
    ("zeta_closed_forms", _check_zeta_closed_forms, 1e-10),
    ("dixmier", _check_dixmier, 1e-3),
    ("kernels", _check_kernels, 1e-12),
    ("tuv_bridge", _check_tuv_bridge, 1e-3),
    ("integral_identity", _check_integral_identity, 1e-4),
    ("symmetries", _check_symmetries, 1e-8),
)


def cmd_verify(config):
    os.makedirs(config.out_dir, exist_ok=True)
    selected = [c for c in CHECKS if config.check in (None, c[0])]
    rows = []
    status = EXIT_OK
    for name, fn, default_tol in selected:
        tol = config.tol if config.tol is not None else default_tol
        try:
            residual = float(fn(config, tol))
            failure = EXIT_OK if residual <= tol else EXIT_ASSERT
        except QuadratureConvergenceError as exc:
            residual, failure = float("nan"), EXIT_NOCONV
            print(f"{name}: non-convergence: {exc}", file=sys.stderr)
        except ArithmeticError as exc:  # a scale of the check overflows at these params
            residual, failure = float("nan"), EXIT_ASSERT
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = failure == EXIT_OK
        status = max(status, failure)
        rows.append([name, residual, tol, "pass" if ok else "FAIL"])
        print(f"{name:<22s} residual={residual:.3e} tol={tol:.1e} "
              f"{'pass' if ok else 'FAIL'}")
    _write_csv(os.path.join(config.out_dir, "verify.csv"),
               ["check", "residual", "tolerance", "status"], rows)
    return status


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="landautrace",
        description="Spectra and topological invariants of Landau-type models",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--nmax", type=int, help="basis truncation")
    parser.add_argument("--tol", type=float, help="tolerance override")
    parser.add_argument("--check", help="run a single verification check")
    parser.add_argument("--model", choices=_MODELS, help="model selection")
    parser.add_argument("command", choices=("spectrum", "invariants", "verify"))
    return parser


#: built once: a parser built per call looks up its messages through gettext,
#: whose first use imports locale inside the command
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        config = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "spectrum":
            return cmd_spectrum(config)
        if args.command == "invariants":
            return cmd_invariants(config)
        return cmd_verify(config)
    except np.linalg.LinAlgError as exc:  # LAPACK gave up, e.g. on overflowing blocks
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
