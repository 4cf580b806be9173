"""Command-line front end: spectra, invariants, and the verification suite.

Configuration is a flat ``key = value`` file with dotted section names
(``model.params.c_b = 0.4``); any key can be overridden by an environment
variable with prefix ``LANDAU_`` (dots become double underscores, e.g.
``LANDAU_MODEL__PARAMS__C_B``) and by command-line flags, which win.

Exit status: 0 ok, 2 config error, 3 non-convergence (including a missing
spectral gap and an eigensolver that gives up), 4 assertion failure
(including a check that overflows).
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import models, sectors, singtrace, topo, tuv
from .fock import ModelParams, build_basis, derived_operator, flip_and_conjugation, interior_block, ladder
from .kernels import landau_kernel, verify_integral_identity, QuadratureConvergenceError, TARGET_IDENTITY
from .models import NoGapError
from .singtrace import (
    dixmier_via_gamma_fit,
    dixmier_via_zeta_residue,
    q_level_sequence,
    q_resolvent_sequence,
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
    """Validated run configuration shared by all subcommands.

    ``command`` (spectrum, invariants or verify) adds the preconditions of
    that subcommand's engine.
    """

    def __init__(self, cfg, command):
        self.model = _get(cfg, "model", "landau")
        if self.model not in _MODELS:
            where = cfg.get("model", ("", "<default>"))[1]
            raise ConfigError(f"{where}: unknown model {self.model!r} (pick from {_MODELS})")
        self.nmax = _get(cfg, "nmax", 40, int)
        if self.nmax < 0:
            raise ConfigError("nmax must be nonnegative")
        try:
            self.params = ModelParams(
                ell_B=_get(cfg, "params.ell_b", 1.0, float),
                eps_B=_get(cfg, "params.eps_b", 1.0, float),
                xi=_get(cfg, "params.xi", 0.0, float),
                c_b=_get(cfg, "params.c_b", 0.0, float),
                r=(
                    _get(cfg, "params.r0", 0.0, float),
                    _get(cfg, "params.r1", 1.0, float),
                    _get(cfg, "params.r2", 0.0, float),
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid params: {exc}") from exc
        raw_levels = _get(cfg, "levels", "")
        self.levels = self._parse_levels(raw_levels)
        self.fermi_energy = _get(cfg, "fermi_energy", None, _finite)
        self.gap_threshold = _get(cfg, "gap_threshold", None, _positive)
        self.tol = _get(cfg, "tol", None, _positive)
        self.jmax = _get(cfg, "jmax", 5, int)
        if self.jmax < 0:
            raise ConfigError("jmax must be nonnegative")
        self.check = _get(cfg, "check", None)
        self.out_dir = _get(cfg, "out", ".")
        # module preconditions checked up front
        if self.model == "quaternionic" and any(s for s, _ in self.levels):
            raise ConfigError("quaternionic runs select a fermi_energy, not levels")
        for sign, j in self.levels:
            if self.model == "landau" and sign:
                raise ConfigError(f"landau levels take no sign (got {sign}{j})")
            if self.model == "jaynes_cummings" and j > 0 and not sign:
                raise ConfigError(f"pair level {j} needs a sign, e.g. {j}+")
            if j > self.nmax:
                raise ConfigError(f"level {j} exceeds nmax = {self.nmax}")
        if command == "invariants":
            self._check_invariants()
        # the commutator and symmetry checks compare interior blocks up to
        # two shells in (topo.classify_symmetry's margin)
        if command == "verify" and self.nmax < 2:
            raise ConfigError(f"verify needs nmax >= 2, got {self.nmax}")

    def _check_invariants(self):
        """The graded fit needs 12 + GRADED_MARGIN shells, levels an interior."""
        min_nmax = 12 + singtrace.GRADED_MARGIN - 1  # shells 0..nmax
        if self.nmax < min_nmax:
            raise ConfigError(f"invariants need nmax >= {min_nmax}, got {self.nmax}")
        top = self.nmax - topo.LEVEL_MARGIN
        for sign, j in self.levels:
            if self.model == "landau" and not 0 <= j <= top:
                raise ConfigError(f"landau level {j} outside 0..nmax-{topo.LEVEL_MARGIN} = {top}")
            # pair level 0 is the unpaired ground state and is skipped
            if self.model == "jaynes_cummings" and (j < 0 or (j > 0 and j + 1 > top)):
                raise ConfigError(
                    f"pair level {j}{sign} needs 1 <= j and j + 1 <= nmax-{topo.LEVEL_MARGIN} = {top}"
                )

    @staticmethod
    def _parse_levels(raw):
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
                raise ConfigError(f"bad level token {tok!r}") from exc
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


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(config):
    """Interior eigenvalues per n2 sector against the closed forms, and their gaps.

    Each closed-form level takes the nearest interior eigenvalue, NaN when
    there is none; the quaternionic model lists its lowest ones. A
    non-finite eigenvalue or a difference over 1e-6 exits 4.
    Gaps are wider than ``gap_threshold``, by default 0.02 eps_B for the
    spin-orbit model and 0.05 eps_B for the other two.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    params, nmax = config.params, config.nmax
    thr = 0.05 * params.eps_B
    if config.model == "landau":
        closed = models.landau_levels(params, config.jmax)
        evs, flags = sectors.landau_sector_eigensystem(nmax, params)
    elif config.model == "jaynes_cummings":
        closed = models.jc_spectrum(params, config.jmax)
        evs, flags = sectors.jc_sector_eigensystem(nmax, params)
        thr = 0.02 * params.eps_B
    else:
        closed = None
        _, evs, flags = sectors.quaternionic_sector_eigensystem(nmax, params)
    if config.gap_threshold is not None:
        thr = config.gap_threshold
    interior = evs[flags]
    if closed is None:
        rows = [[f"e_{k}", "", float(ev), 0.0]
                for k, ev in enumerate(interior[: 4 * (config.jmax + 1)])]
    else:
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
    os.makedirs(config.out_dir, exist_ok=True)
    params, nmax = config.params, config.nmax
    reports = []
    status = EXIT_OK
    if config.model == "landau":
        levels = [j for _, j in config.levels] or [0]
        for j in levels:
            rep = topo.invariants_landau(j, nmax, params)
            reports.append(dict(level=f"{j}", **rep.to_dict()))
            if not (rep.rank_certified and rep.chern_certified):
                status = EXIT_NOCONV
    elif config.model == "jaynes_cummings":
        levels = config.levels or [("+", 1)]
        for sign, j in levels:
            if j == 0:
                continue
            rep = topo.invariants_jc(j, sign or "+", nmax, params)
            reports.append(dict(level=f"{j}{sign or '+'}", **rep.to_dict()))
            if not (rep.rank_certified and rep.chern_certified):
                status = EXIT_NOCONV
    else:
        if config.fermi_energy is None:
            raise ConfigError("quaternionic invariants need fermi_energy")
        try:
            rep = topo.invariants_quaternionic(
                config.fermi_energy, nmax, params, config.gap_threshold
            )
        except NoGapError as exc:
            _write_json(os.path.join(config.out_dir, "invariants.json"),
                        {"error": "no-gap", "detail": str(exc)})
            print(f"no-gap: {exc}", file=sys.stderr)
            return EXIT_NOCONV
        reports.append(dict(level=f"E={config.fermi_energy}", **rep.to_dict()))
        if not (rep.rank_certified and rep.chern_certified and rep.parity_ok):
            status = EXIT_NOCONV
    _write_json(os.path.join(config.out_dir, "invariants.json"), reports)
    return status


# --- verification suite -----------------------------------------------------


def _brute_trace_q_power(s, xi, shells=2000):
    ell = np.arange(shells, dtype=float)
    head = np.sum((ell + 1.0) / (ell + 2.0 + 2.0 * xi) ** s)
    # Euler-Maclaurin tail of g(l) = (l+1) (l+2+2xi)^-s from l = shells
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


def _check_zeta_closed_forms(config, tol):
    worst = 0.0
    for s in (2.5, 3.0, 4.0):
        for xi in (0.0, 0.5, 1.0):
            ref = _brute_trace_q_power(s, xi)
            val = trace_Q_power(s, xi)
            worst = max(worst, abs(val - ref) / abs(ref))
    for s in (1.5, 2.0, 3.0):
        for xi in (0.0, 0.5, 1.0):
            for j in (0, 3, 7):
                seq = np.arange(200000, dtype=float)
                direct = np.sum((seq + j + 2.0 + 2.0 * xi) ** (-s))
                a = 200000.0 + j + 2.0 + 2.0 * xi
                direct += a ** (1 - s) / (s - 1) + 0.5 * a ** (-s) + s * a ** (-s - 1) / 12.0
                val = trace_Q_power_proj(s, xi, j)
                worst = max(worst, abs(val - direct) / abs(direct))
    return worst


def _check_dixmier(config, tol):
    worst = 0.0
    for xi in (0.0, 0.5):
        for j in (0, 2, 5):
            est = dixmier_via_zeta_residue(lambda s: trace_Q_power_proj(s, xi, j))
            worst = max(worst, abs(est.value - 1.0))
            fit = dixmier_via_gamma_fit(q_level_sequence(xi, j))
            worst = max(worst, abs(fit.value - est.value))
    est = dixmier_via_zeta_residue(lambda s: trace_Q_power(2.0 * s, 0.0), tolerance=1e-6)
    worst = max(worst, abs(est.value - 0.5))
    return worst


def _check_commutators(config, tol):
    basis = build_basis(min(config.nmax, 24))
    params = config.params
    eye = np.eye(build_basis(basis.nmax - 1).dim)  # the margin-1 interior
    am, ap = ladder(basis, "a-"), ladder(basis, "a+")
    bm, bp = ladder(basis, "b-"), ladder(basis, "b+")
    worst = 0.0
    for low, high in ((am, ap), (bm, bp)):
        comm = low.commutator(high)
        worst = max(worst, np.abs(interior_block(basis, comm, 1).entries - eye).max())
    k1 = derived_operator(basis, "K1", params)
    k2 = derived_operator(basis, "K2", params)
    g1 = derived_operator(basis, "G1", params)
    g2 = derived_operator(basis, "G2", params)
    worst = max(worst, np.abs(interior_block(basis, k1.commutator(k2), 1).entries + 1j * eye).max())
    worst = max(worst, np.abs(interior_block(basis, g1.commutator(g2), 1).entries + 1j * eye).max())
    worst = max(worst, interior_block(basis, k1.commutator(g1), 1).max_abs())
    worst = max(worst, interior_block(basis, k2.commutator(g2), 1).max_abs())
    _, _, theta = flip_and_conjugation(basis)
    worst = max(worst, (theta.conjugate_operator(k1) + k2).max_abs())
    worst = max(worst, (theta.conjugate_operator(k2) + k1).max_abs())
    return worst


def _check_curvature(config, tol):
    """Worst residual of the curvature identities (a) and (b), j = 0..5."""
    nmax = max(12, min(config.nmax, 40))
    worst = 0.0
    for j in range(0, min(6, nmax - 3)):
        res = topo.verify_curvature_identity(j, nmax, config.params)
        worst = max(worst, res["commutator_identity"], res["curvature_identity"])
    return worst


def _check_tuv_bridge(config, tol):
    rng = np.random.default_rng(7)
    worst = 0.0
    rows = []
    for _ in range(2):
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        for xi in (0.0, 1.0):
            rep = tuv.compare_tuv_dixmier(coeffs, xi=xi, params=config.params)
            worst = max(worst, rep["diff"])
            for scale, raw, normalized in rep["tuv_samples"]:
                rows.append(["squares", float(scale), float(raw), float(normalized)])
    _write_csv(os.path.join(config.out_dir, "tuv_rows.csv"),
               ["family", "scale", "raw", "normalized"], rows)
    return worst


def _check_integral_identity(config, tol):
    value = verify_integral_identity(0, cutoff=6.0, tol=max(tol, 1e-4), variant="rederived")
    return abs(value - TARGET_IDENTITY)


def _check_symmetries(config, tol):
    basis = build_basis(min(config.nmax, 20))
    params = config.params
    _, _, theta = flip_and_conjugation(basis)
    hb = derived_operator(basis, "H_B", params)
    label, res = topo.classify_symmetry(hb, [theta])
    worst = res if label == "Real" else np.inf
    p_jc = ModelParams(ell_B=params.ell_B, eps_B=params.eps_B, xi=params.xi,
                       c_b=params.c_b or 0.5, r=params.r)
    hjc = models.jc_hamiltonian(basis, p_jc)
    label, res = topo.classify_symmetry(hjc, [models.jc_trs(basis)])
    worst = max(worst, res if label == "Real" else np.inf)
    hq = models.quaternionic_hamiltonian(basis, p_jc)
    label, res = topo.classify_symmetry(hq, [models.quaternionic_trs(basis)])
    worst = max(worst, res if label == "Quaternionic" else np.inf)
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
    if not selected:
        raise ConfigError(f"unknown check {config.check!r} "
                          f"(choose from {[c[0] for c in CHECKS]})")
    rows = []
    status = EXIT_OK
    for name, fn, default_tol in selected:
        tol = config.tol if config.tol is not None else default_tol
        try:
            residual = float(fn(config, tol))
            ok = residual <= tol
        except QuadratureConvergenceError as exc:
            residual, ok = float("nan"), False
            status = max(status, EXIT_NOCONV)
            print(f"{name}: non-convergence: {exc}", file=sys.stderr)
        except ArithmeticError as exc:  # a scale of the check overflows at these params
            residual, ok = float("nan"), False
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        rows.append([name, residual, tol, "pass" if ok else "FAIL"])
        if not ok:
            status = max(status, EXIT_ASSERT)
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


def main(argv=None):
    args = build_parser().parse_args(argv)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoGapError as exc:
        print(f"no-gap: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except np.linalg.LinAlgError as exc:  # LAPACK gave up, e.g. on overflowing blocks
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
