"""Span tracer that times landautrace's layers from outside the package.

The tracer replaces functions of the package with timing wrappers. It
patches every name a caller looks up at call time: module attributes in
every ``landautrace`` namespace that holds the function (so
``cli.verify_integral_identity`` and ``tuv.landau_kernel`` are patched
along with ``kernels.*``), class attributes for methods, and the
entries of ``cli.CHECKS``. A name in ``TRACED`` that the package no
longer has is skipped and reported, never an error.

Spans live in memory as ``[name, start, end, parent, job]`` and are
written out when the pass ends. A span's layer is the part of its name
before the first dot. Self time is a span's duration minus the durations
of its direct child spans; calls are strictly nested in one thread, so
the children never overlap and the self times of all spans add up to the
durations of the root spans.
"""

from collections import Counter
import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "landautrace"

#: functions timed per layer; "Class.method" patches the class attribute
TRACED = {
    "cli": ("main", "cmd_spectrum", "cmd_invariants", "cmd_verify", "load_config"),
    "fock": (
        "build_basis", "ladder", "derived_operator", "landau_projection",
        "flip_and_conjugation", "tensor_with_spin", "interior_block",
        "OperatorMatrix.__matmul__", "OperatorMatrix.__add__", "OperatorMatrix.__sub__",
        "OperatorMatrix.__mul__", "OperatorMatrix.__rmul__", "OperatorMatrix.__neg__",
        "OperatorMatrix.commutator", "OperatorMatrix.dagger", "OperatorMatrix.max_abs",
        "OperatorMatrix.is_hermitian", "AntiUnitaryRep.conjugate_operator",
        "AntiUnitaryRep.square_sign",
    ),
    "kernels": (
        "landau_kernel", "deriv_kernel", "psi_eval", "basis_matrix",
        "matrix_diagonal_values", "integrate_kernel_diagonal", "verify_integral_identity",
    ),
    "models": (
        "landau_levels", "jc_angles", "jc_spectrum", "jc_hamiltonian", "jc_projection",
        "jc_trs", "quaternionic_hamiltonian", "quaternionic_trs", "diagonalize_and_gaps",
        "fermi_projection", "riesz_projection",
    ),
    "sectors": (
        "lowering_block", "_curvature", "landau_shell_sums", "jc_shell_sums",
        "jc_sector_eigensystem", "quaternionic_sector_eigensystem", "quaternionic_shell_sums",
    ),
    "singtrace": (
        "dixmier_via_gamma_fit", "dixmier_via_zeta_residue", "dixmier_from_shell_sums",
        "dixmier_graded", "graded_diagonal", "trace_Q_power", "trace_Q_power_proj",
        "q_level_sequence", "q_resolvent_sequence", "gamma_sequence", "sigma_partial",
        "cesaro_tau", "measurability_diagnostic",
    ),
    "specfun": ("laguerre", "hurwitz_zeta"),
    "topo": (
        "partial_derivative", "verify_curvature_identity", "invariants_landau",
        "invariants_jc", "invariants_quaternionic", "classify_symmetry",
        "_theta_projection_residual", "_jc_symmetry_residual",
        "_quaternionic_symmetry_residual",
    ),
    "tuv": ("restricted_trace", "tuv_limit", "compare_tuv_dixmier",
            "LandauCombination.kernel_diagonal"),
}

#: the verify checks of cli.CHECKS, each timed as span "cli.check.<name>"
CHECK_NAMES = (
    "commutators", "curvature", "zeta_closed_forms", "dixmier",
    "kernels", "tuv_bridge", "integral_identity", "symmetries",
)

#: inclusive times: metric -> span names (nested repeats are counted once)
GROUPS = {
    "sectors.shell_sums_s": ("sectors.landau_shell_sums", "sectors.jc_shell_sums",
                             "sectors.quaternionic_shell_sums"),
    "sectors.eigensystem_s": ("sectors.jc_sector_eigensystem",
                              "sectors.quaternionic_sector_eigensystem"),
    "sectors.curvature_s": ("sectors._curvature",),
    "topo.curvature_identity_s": ("topo.verify_curvature_identity",),
    "topo.invariants_s": ("topo.invariants_landau", "topo.invariants_jc",
                          "topo.invariants_quaternionic"),
    "topo.symmetry_residual_s": ("topo._theta_projection_residual",
                                 "topo._jc_symmetry_residual",
                                 "topo._quaternionic_symmetry_residual"),
    "fock.build_basis_s": ("fock.build_basis",),
    "models.diagonalize_s": ("models.diagonalize_and_gaps",),
    "kernels.integral_identity_s": ("kernels.verify_integral_identity",),
}
GROUPS.update({f"cli.check.{c}_s": (f"cli.check.{c}",) for c in CHECK_NAMES})

LAYERS = tuple(TRACED)


# ---------------------------------------------------------------------------
# counters, called with (counts, function, args, kwargs, result) after a call returns


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_blocks(counts, fn, args, kwargs, out):
    counts["sectors.blocks"] += int(_bound(fn, args, kwargs)["nmax"]) + 1


def _count_dense_bytes(counts, fn, args, kwargs, out):
    for item in out if isinstance(out, tuple) else (out,):
        entries = getattr(item, "entries", None)
        if entries is not None and hasattr(entries, "nbytes"):
            counts["fock.dense_bytes"] += int(entries.nbytes)


def _count_kernel_points(counts, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    if "order" in a:  # four-fold identity: coarse and refined tensor grids
        q = int(a["order"])
        counts["kernels.kernel_points"] += q ** 4 + (q + q // 2) ** 4
    elif "points" in a:
        counts["kernels.kernel_points"] += len(np.asarray(a["points"]).reshape(-1, 2))
    else:
        shape = np.broadcast_shapes(np.shape(a["x"])[:-1], np.shape(a["y"])[:-1])
        counts["kernels.kernel_points"] += int(np.prod(shape))


def _count_estimate(counts, fn, args, kwargs, out):
    counts["singtrace.estimates"] += 1
    counts["singtrace.converged"] += bool(out.converged)


def _count_report(counts, fn, args, kwargs, out):
    counts["topo.reports"] += 2
    counts["topo.certified"] += bool(out.rank_certified) + bool(out.chern_certified)


def _count_restricted(counts, fn, args, kwargs, out):
    counts["tuv.restricted_traces"] += 1


COUNTERS = {
    "sectors.landau_shell_sums": _count_blocks,
    "sectors.jc_shell_sums": _count_blocks,
    "sectors.jc_sector_eigensystem": _count_blocks,
    "sectors.quaternionic_sector_eigensystem": _count_blocks,
    "sectors.quaternionic_shell_sums": _count_blocks,
    "kernels.landau_kernel": _count_kernel_points,
    "kernels.matrix_diagonal_values": _count_kernel_points,
    "kernels.verify_integral_identity": _count_kernel_points,
    "singtrace.dixmier_via_gamma_fit": _count_estimate,
    "singtrace.dixmier_via_zeta_residue": _count_estimate,
    "singtrace.dixmier_from_shell_sums": _count_estimate,
    "topo.invariants_landau": _count_report,
    "topo.invariants_jc": _count_report,
    "topo.invariants_quaternionic": _count_report,
    "tuv.restricted_trace": _count_restricted,
}


class Tracer:
    """Records nested spans and counters for the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.skipped = []
        self.job = None
        self._stack = []
        self._restore = []

    def wrap(self, fn, name, counter=None):
        layer = name.split(".", 1)[0]
        calls_key, is_fock = f"{layer}.calls", layer == "fock"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            self.counts[calls_key] += 1
            try:
                if is_fock:
                    _count_dense_bytes(self.counts, fn, args, kwargs, out)
                if counter is not None:
                    counter(self.counts, fn, args, kwargs, out)
            except Exception as exc:  # a changed signature must not stop the pass
                self._skip(f"count:{name}", f"{type(exc).__name__}: {exc}")
            return out

        return traced

    def _skip(self, what, why):
        if not any(s[0] == what for s in self.skipped):
            self.skipped.append([what, why])

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, traced=TRACED, check_names=CHECK_NAMES):
        """Patch the package's loaded modules; returns the skipped names."""
        prefix = PACKAGE + "."
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for layer, names in traced.items():
            module = sys.modules.get(prefix + layer)
            for qual in names:
                name = f"{layer}.{qual}"
                if module is None:
                    self._skip(name, "module not loaded")
                    continue
                if "." in qual:
                    cls_name, meth = qual.split(".", 1)
                    cls = getattr(module, cls_name, None)
                    fn = vars(cls).get(meth) if isinstance(cls, type) else None
                    if not inspect.isfunction(fn):
                        self._skip(name, "no such method")
                        continue
                    self._set(cls, meth, self.wrap(fn, name, COUNTERS.get(name)))
                    continue
                fn = getattr(module, qual, None)
                if not inspect.isfunction(fn):
                    self._skip(name, "no such function")
                    continue
                wrapped = self.wrap(fn, name, COUNTERS.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, attr, wrapped)
        self._install_checks(sys.modules.get(prefix + "cli"), check_names)
        return self.skipped

    def _install_checks(self, cli, check_names):
        checks = getattr(cli, "CHECKS", None)
        try:
            entries = [tuple(c) for c in checks]
        except TypeError:
            entries = []
        if not entries or not all(len(e) >= 2 and isinstance(e[0], str) and callable(e[1])
                                  for e in entries):
            self._skip("cli.CHECKS", "not a sequence of (name, function, ...) entries")
            return
        names = [e[0] for e in entries]
        for missing in sorted(set(check_names) - set(names)):
            self._skip(f"cli.check.{missing}", "no such check")
        wrapped = tuple(
            (e[0], self.wrap(e[1], f"cli.check.{e[0]}")) + e[2:] for e in entries
        )
        self._set(cli, "CHECKS", type(checks)(wrapped) if isinstance(checks, tuple) else wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# accounting


def self_times(spans):
    """Self time of every span: duration minus its direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_n, start, end, _p, _j), c in zip(spans, child)]


def inclusive_time(spans, names):
    """Total duration of spans named in ``names``, nested repeats once."""
    names = set(names)
    total = 0.0
    for name, start, end, parent, _job in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass (every layer, zero if unused)."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        key = span[0].split(".", 1)[0] + ".self_s"
        out[key] = out.get(key, 0.0) + own
    for metric, names in GROUPS.items():
        out[metric] = inclusive_time(spans, names)
    out["run.traced_s"] = sum(end - start for _n, start, end, parent, _j in spans if parent < 0)
    for key in ("sectors.blocks", "fock.calls", "fock.dense_bytes", "kernels.kernel_points",
                "tuv.restricted_traces", "singtrace.estimates", "specfun.calls"):
        out[key] = counts.get(key, 0)
    out["topo.certified_ratio"] = _ratio(counts.get("topo.certified", 0),
                                         counts.get("topo.reports", 0))
    out["singtrace.converged_ratio"] = _ratio(counts.get("singtrace.converged", 0),
                                              counts.get("singtrace.estimates", 0))
    return out


def _ratio(num, den):
    return num / den if den else 0.0
