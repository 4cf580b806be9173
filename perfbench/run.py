"""Benchmark of the landautrace command line over three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload sector-invariants --seed 1 --seconds 36 --trace 0

A run runs passes in a closed loop: each pass is one fresh child
interpreter that runs every job of the workload through
``landautrace.cli.main(argv)``, one job at a time. The first pass
always runs; another starts only while it is expected to end within
``--seconds``. With ``--trace 1`` one more pass, counted in those
seconds, runs with the span tracer of ``tracer.py`` installed and the
per-layer metrics are printed; otherwise the end-to-end metrics are.
Job outputs must be byte-identical across the passes of a run.

``setup_s`` is the median time of ``import landautrace.cli`` over
SETUP_SAMPLES fresh interpreters, half before and half after the
passes, and the import of every pass. The last line of standard output
is the JSON result. A record of the run with its provenance (and the
spans of a traced pass) is written to ``.perfbench_runs/``.

BLAS and OpenMP threads are pinned to 1 in every child, and ``LANDAU_*``
variables are removed so the program receives only the generated configs.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 12
#: no pass starts when the run could then exceed this many seconds
RUN_BUDGET_S = 140.0
PASS_TIMEOUT_S = 150.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import landautrace.cli as cli; "
    "dt = time.perf_counter() - t; print(repr(dt)); print(cli.__file__)"
)
VERSION_PROBE = r"""
import contextlib, io, json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        numpy.show_config()
    blas = buf.getvalue()
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class HarnessError(RuntimeError):
    """The benchmark cannot measure: no source, a child that cannot start."""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _probe(code, env):
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise HarnessError(f"probe failed ({proc.returncode}): {proc.stderr.strip()[-800:]}")
    return proc.stdout


def measure_setup(env, count):
    """Import times of landautrace.cli (numpy and scipy included), one per interpreter."""
    samples = []
    for _ in range(count):
        seconds, path = _probe(IMPORT_PROBE, env).split("\n")[:2]
        if not os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep):
            raise HarnessError(f"landautrace imported from {path}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def provenance(args, env):
    def git_commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "landautrace")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "platform": platform.platform(), "threads": {v: env[v] for v in THREAD_VARS},
        **json.loads(_probe(VERSION_PROBE, env)),
    }


def run_pass(work, index, jobs, env, traced):
    """One child interpreter running every job; returns its record."""
    pass_dir = os.path.join(work, f"pass{index}")
    os.makedirs(pass_dir)
    spec = {
        "src": SRC, "trace": traced,
        "result": os.path.join(pass_dir, "result.json"),
        "spans": os.path.join(pass_dir, "spans.json"),
        "jobs": [{"id": j.id, "argv": ["--config", os.path.join(work, f"{j.id}.cfg"),
                                        "--out", os.path.join(pass_dir, j.id), j.command]}
                 for j in jobs],
    }
    spec_path = os.path.join(pass_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(pass_dir, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], env=env, cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + PASS_TIMEOUT_S
    pid = 0
    try:
        while not pid and time.monotonic() < deadline:
            time.sleep(0.02)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # timed out or interrupted: never leave the child running
            os.kill(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.isfile(spec["result"]):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise HarnessError(f"pass {index} child exited {proc.returncode}:\n{tail}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    record = {"index": index, "traced": traced, "wall_s": result["wall_s"],
              "import_s": result["import_s"], "cpu_s": usage.ru_utime + usage.ru_stime,
              "maxrss_mib": usage.ru_maxrss / 1024.0, "jobs": []}
    by_id = {j.id: j for j in jobs}
    for entry in result["jobs"]:
        out_dir = os.path.join(pass_dir, entry["id"])
        verdict = oracle.judge(by_id[entry["id"]], entry["status"], out_dir)
        record["jobs"].append({
            **entry, "verdict": vars(verdict),
            "digest": oracle.digest(out_dir) if os.path.isdir(out_dir) else None,
        })
    if traced:
        with open(spec["spans"], encoding="utf-8") as fh:
            record["spans"] = json.load(fh)
        record["counts"] = result["counts"]
        record["skipped"] = result["skipped"]
    return record


def accuracy_metrics(passes):
    verdicts = [j["verdict"] for p in passes for j in p["jobs"]]
    return {
        "fail_frac": sum(v["status"] != oracle.OK for v in verdicts) / len(verdicts),
        "inv_residual_max": max(v["residual_max"] for v in verdicts),
        "inv_error_max": max(v["error_max"] for v in verdicts),
        "verify_tol_ratio_max": max(v["tol_ratio_max"] for v in verdicts),
        "spectrum_absdiff_max": max(v["absdiff_max"] for v in verdicts),
    }


def job_counts(passes):
    """(attempted, failed, uncertified) jobs over all passes.

    A job failed when ``cli.main`` raised or exited without outputs that
    explain the exit. An uncertified result (exit 3) is an answer the
    oracle has checked, not a failure: it counts in ``fail_frac`` and in
    the third number only.
    """
    statuses = [j["verdict"]["status"] for p in passes for j in p["jobs"]]
    return len(statuses), statuses.count(oracle.FAILED), statuses.count(oracle.UNCERTIFIED)


def determinism_problems(passes):
    """Jobs whose output bytes differ from the first pass that produced them."""
    first, problems = {}, []
    for p in passes:
        for j in p["jobs"]:
            ref = first.setdefault(j["id"], j["digest"])
            if j["digest"] != ref:
                problems.append(f"{j['id']}: outputs of pass {p['index']} differ from earlier")
    return problems


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args):
    if not os.path.isfile(os.path.join(SRC, "landautrace", "cli.py")):
        raise HarnessError(f"no landautrace source under {SRC}")
    e2e_units, layer_units = load_metric_specs()
    jobs = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(RUNS, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        for job in jobs:
            with open(os.path.join(work, f"{job.id}.cfg"), "w", encoding="utf-8") as fh:
                fh.write(job.config_text())
        env = child_env()
        setup = measure_setup(env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        prov = provenance(args, env)
        passes = []
        start = time.monotonic()
        # the next pass starts only while it (and the traced pass) should
        # end within --seconds
        limit = min(args.seconds, RUN_BUDGET_S)
        while True:
            passes.append(run_pass(work, len(passes), jobs, env, traced=False))
            elapsed = time.monotonic() - start
            if elapsed + (1 + args.trace) * elapsed / len(passes) > limit:
                break
        if args.trace:
            passes.append(run_pass(work, len(passes), jobs, env, traced=True))
        setup += measure_setup(env, SETUP_SAMPLES // 2)
        setup += [p["import_s"] for p in passes]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    problems = determinism_problems(passes)
    wrong = [f"{j['id']} (pass {p['index']}): {j['verdict']['detail']}"
             for p in passes for j in p["jobs"] if j["verdict"]["status"] == oracle.WRONG]
    attempted, failed, uncertified = job_counts(passes)
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    accuracy = accuracy_metrics(passes)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["maxrss_mib"] for p in untraced),
        **accuracy,
        "run.cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "run.passes": len(untraced),
    }
    skipped = []
    if args.trace:
        traced = passes[-1]
        metrics.update(tracer.layer_metrics(traced["spans"], traced["counts"]))
        metrics["run.trace_overhead"] = traced["wall_s"] / wall_s - 1.0
        skipped = traced["skipped"]

    os.makedirs(RUNS, exist_ok=True)
    if args.trace:
        with open(os.path.join(RUNS, f"{tag}-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(passes[-1].pop("spans"), fh)
    record = {"provenance": prov, "setup_samples": setup, "passes": passes,
              "metrics": metrics, "wrong": wrong, "nondeterministic": problems,
              "trace_skipped": skipped}
    with open(os.path.join(RUNS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    blas = prov["blas"]
    if isinstance(blas, dict):
        blas = f"{blas.get('name')} {blas.get('version')}"
    print(f"# {tag}: commit {prov['git_commit']} src {prov['src_sha256'][:12]} "
          f"python {prov['python']} numpy {prov['numpy']} scipy {prov['scipy']} "
          f"blas {blas} nproc {prov['nproc']} threads pinned to 1")
    print(f"# wall_s median of {len(untraced)} untraced passes, "
          f"setup_s median of {len(setup)} imports")
    print(f"# jobs: {attempted} attempted, {uncertified} uncertified (exit 3), {failed} failed")
    print("# accuracy: " + " ".join(f"{k}={v:.4g}" for k, v in accuracy.items()))
    for job in jobs:
        runs = [j for p in passes for j in p["jobs"] if j["id"] == job.id]
        secs = statistics.median(j["seconds"] for p in untraced for j in p["jobs"]
                                 if j["id"] == job.id)
        states = sorted({j["verdict"]["status"] for j in runs})
        detail = next((j["verdict"]["detail"] for j in runs if j["verdict"]["detail"]), "")
        print(f"#   {job.id:<24s} {secs:8.3f} s  {'/'.join(states)}  {detail}")
    for what in wrong + problems + [f"trace skipped {a}: {b}" for a, b in skipped]:
        print(f"# ! {what}")
    units = layer_units if args.trace else e2e_units
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so a running pass child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        run(args)
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
