"""Tests of the benchmark itself: tracer accounting, oracle, metric names.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import os
import re
import sys

import pytest

import oracle
import run
import tracer
from workloads import WORKLOADS, Job, draw, quaternionic_expected

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def no_package(monkeypatch):
    """Hide any loaded landautrace modules so a synthetic package can stand in."""
    for name in [n for n in sys.modules if n.split(".")[0] == tracer.PACKAGE]:
        monkeypatch.delitem(sys.modules, name)
    return monkeypatch


SECTORS_SRC = """
def landau_shell_sums(nmax, j, xi):
    clock.t += 5.0
"""
TOPO_SRC = """
from landautrace import sectors
from landautrace.sectors import landau_shell_sums

def invariants_landau(j, basis, params):
    clock.t += 1.0
    sectors.landau_shell_sums(basis, j, 0.0)
    clock.t += 2.0
    landau_shell_sums(basis, j, 0.0)
    clock.t += 3.0
"""


def _synthetic(monkeypatch, clock):
    """A two-module stand-in package: topo calls sectors by both lookups."""
    import types

    pkg = types.ModuleType("landautrace")
    monkeypatch.setitem(sys.modules, "landautrace", pkg)
    mods = []
    for name, src in (("sectors", SECTORS_SRC), ("topo", TOPO_SRC)):
        mod = types.ModuleType(f"landautrace.{name}")
        mod.clock = clock
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        setattr(pkg, name, mod)
        exec(src, vars(mod))
        mods.append(mod)
    return mods


def test_self_time_of_nested_calls(no_package):
    clock = FakeClock()
    sectors, topo = _synthetic(no_package, clock)
    t = tracer.Tracer(clock=clock)
    skipped = t.install({"sectors": ("landau_shell_sums",), "topo": ("invariants_landau",)},
                        check_names=())
    try:
        assert topo.landau_shell_sums is sectors.landau_shell_sums
        t.job = "job-1"
        topo.invariants_landau(0, 40, None)
    finally:
        t.uninstall()
    assert [s[0] for s in t.spans] == ["topo.invariants_landau", "sectors.landau_shell_sums",
                                       "sectors.landau_shell_sums"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    assert {s[4] for s in t.spans} == {"job-1"}
    assert tracer.self_times(t.spans) == [6.0, 5.0, 5.0]
    m = tracer.layer_metrics(t.spans, t.counts)
    assert m["topo.self_s"] == 6.0 and m["sectors.self_s"] == 10.0
    assert m["sectors.shell_sums_s"] == 10.0 and m["run.traced_s"] == 16.0
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == m["run.traced_s"]
    assert m["sectors.blocks"] == 2 * 41
    assert ["cli.CHECKS", "not a sequence of (name, function, ...) entries"] in skipped
    # uninstall restores every patched name
    assert not hasattr(sectors.landau_shell_sums, "__wrapped__")


def test_missing_names_are_skipped_not_fatal(no_package):
    clock = FakeClock()
    _synthetic(no_package, clock)
    t = tracer.Tracer(clock=clock)
    skipped = dict(map(tuple, t.install({"sectors": ("gone", "Block.method"),
                                         "absent": ("f",)}, check_names=())))
    t.uninstall()
    assert skipped["sectors.gone"] == "no such function"
    assert skipped["sectors.Block.method"] == "no such method"
    assert skipped["absent.f"] == "module not loaded"


def test_tracer_on_the_package(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from landautrace import cli
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))
    original = cli.CHECKS
    t = tracer.Tracer()
    assert t.install() == []
    try:
        assert cli.main(["--out", str(tmp_path), "--check", "kernels", "verify"]) == 0
    finally:
        t.uninstall()
    assert cli.CHECKS is original
    names = [s[0] for s in t.spans]
    assert names[0] == "cli.main" and "cli.check.kernels" in names
    assert "kernels.landau_kernel" in names
    assert t.counts["kernels.kernel_points"] == 4


def _invariants_job(tmp_path, reports, expected):
    (tmp_path / "invariants.json").write_text(json.dumps(reports))
    return Job("j", "invariants", {}, expected)


def _report(level, value, rounded, certified, residual=0.01):
    est = {"value": value, "residual": residual}
    entry = {"estimate": est, "rounded": rounded, "certified": certified}
    return {"level": level, "rank": entry, "chern": entry, "parity_ok": certified}


def test_oracle_flags_wrong_integer(tmp_path):
    job = _invariants_job(tmp_path, [_report("0", 2.001, 2, True)], [1])
    v = oracle.judge(job, 0, str(tmp_path))
    assert v.status == oracle.WRONG and "certified 2, closed form 1" in v.detail


def test_oracle_accepts_and_measures(tmp_path):
    job = _invariants_job(tmp_path, [_report("0", 1.002, 1, True, 0.004)], [1])
    v = oracle.judge(job, 0, str(tmp_path))
    assert v.status == oracle.OK
    assert v.residual_max == 0.004 and math.isclose(v.error_max, 0.002)


def test_oracle_uncertified_is_not_wrong(tmp_path):
    job = _invariants_job(tmp_path, [_report("E=2.0", 3.9, 4, False, 0.13)], [4])
    assert oracle.judge(job, 3, str(tmp_path)).status == oracle.UNCERTIFIED
    assert oracle.judge(job, 0, str(tmp_path)).status == oracle.WRONG


def test_uncertified_counts_in_fail_frac_not_failed():
    verdicts = [oracle.Verdict(s) for s in (oracle.OK, oracle.UNCERTIFIED, oracle.FAILED)]
    passes = [{"jobs": [{"verdict": vars(v)} for v in verdicts]}]
    assert run.job_counts(passes) == (3, 1, 1)
    assert run.accuracy_metrics(passes)["fail_frac"] == 2 / 3


def test_oracle_flags_nan_spectrum_row(tmp_path):
    (tmp_path / "gaps.csv").write_text("lower,upper,width\r\n")
    (tmp_path / "spectrum.csv").write_text(
        "label,closed_form,diagonalized,abs_diff\r\nE_0,0.5,0.5,0\r\nE_1,1.5,nan,nan\r\n")
    v = oracle.judge(Job("s", "spectrum", {}), 0, str(tmp_path))
    assert v.status == oracle.WRONG and "E_1" in v.detail


def test_oracle_flags_failed_verify_row(tmp_path):
    (tmp_path / "verify.csv").write_text(
        "check,residual,tolerance,status\r\na,1e-13,1e-12,pass\r\nb,2e-3,1e-3,FAIL\r\n")
    v = oracle.judge(Job("v", "verify", {}), 4, str(tmp_path))
    assert v.status == oracle.WRONG and "check b" in v.detail


def test_exception_is_a_failed_job(tmp_path):
    v = oracle.judge(Job("v", "verify", {}), "exception", str(tmp_path))
    assert v.status == oracle.FAILED


def test_differing_output_bytes_are_flagged(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "verify.csv").write_bytes(b"check\r\n1\r\n")
    (b / "verify.csv").write_bytes(b"check\r\n2\r\n")
    passes = [{"index": i, "jobs": [{"id": "v", "digest": oracle.digest(str(d))}]}
              for i, d in enumerate((a, a, b))]
    assert run.determinism_problems(passes[:2]) == []
    assert run.determinism_problems(passes) == ["v: outputs of pass 2 differ from earlier"]


def test_metric_names_and_coverage():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    computed = set(tracer.layer_metrics([], {})) | {
        "run.cpu_s", "run.passes", "run.trace_overhead",
        "fail_frac", "inv_residual_max", "inv_error_max",
        "verify_tol_ratio_max", "spectrum_absdiff_max"}
    assert {m["name"] for m in spec["per_layer"]} == computed


def test_workloads_are_seeded():
    for make in WORKLOADS.values():
        assert [(j.id, j.config) for j in make(7)] == [(j.id, j.config) for j in make(7)]
    # the seed moves couplings, never truncations or job lists
    for make in WORKLOADS.values():
        shape = [(j.id, j.command, j.config.get("nmax")) for j in make(1)]
        assert shape == [(j.id, j.command, j.config.get("nmax")) for j in make(2)]
    couplings, _ = draw(3)
    assert abs(sum(v * v for v in couplings.r) - 1.0) < 1e-12
    assert [quaternionic_expected(e) for e in (0.4, 1.0, 2.0, 2.6)] == [0, 2, 4, 6]
