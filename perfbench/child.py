"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the directory landautrace must be imported from),
``jobs`` (a list of ``{"id", "argv"}``), ``trace`` (bool) and the
``result`` and ``spans`` paths to write. The jobs run one at a time
through ``landautrace.cli.main(argv)``. A job's status is its return
code, or ``"SystemExit(<code>)"``/``"exception"`` when ``main`` raised;
the pass goes on either way.
"""

import json
import os
import sys
import time
import traceback


def run_job(main, argv):
    """Call the CLI entry point; returns (status, error text or None)."""
    try:
        return main(argv), None
    except SystemExit as exc:
        return f"SystemExit({exc.code})", None
    except Exception:  # a traceback is a failed job, not a failed pass
        return "exception", traceback.format_exc()


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from landautrace import cli

    import_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"landautrace imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    start = time.perf_counter()
    for job in spec["jobs"]:
        if tracer is not None:
            tracer.job = job["id"]
        t = time.perf_counter()
        status, error = run_job(cli.main, job["argv"])
        jobs.append({"id": job["id"], "status": status, "error": error,
                     "seconds": time.perf_counter() - t})
    wall_s = time.perf_counter() - start
    result = {"import_s": import_s, "wall_s": wall_s, "jobs": jobs}
    if tracer is not None:
        tracer.uninstall()
        result["counts"] = dict(tracer.counts)
        result["skipped"] = tracer.skipped
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
