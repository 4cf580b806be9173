"""Correctness oracle for the outputs of one benchmark job.

A job ends in one of four verdicts:

* ``ok``: exit 0 and every output checks out;
* ``uncertified``: exit 3 with a report the program did not certify
  (or a ``no-gap`` error); the run stays valid and the job counts in
  ``fail_frac``, not in the top-level ``failed``;
* ``failed``: a traceback, ``SystemExit`` or an exit status that the
  outputs do not explain; counts in ``fail_frac`` and in ``failed``;
* ``wrong``: a certified integer that differs from the closed form, a
  ``FAIL`` or non-finite verify row, a spectrum ``abs_diff`` that is not
  finite or above ``SPECTRUM_TOL``, or a missing output. It invalidates
  the run.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

OK, UNCERTIFIED, FAILED, WRONG = "ok", "uncertified", "failed", "wrong"
EXIT_OK, EXIT_NOCONV = 0, 3
SPECTRUM_TOL = 1e-6


@dataclass
class Verdict:
    status: str
    detail: str = ""
    residual_max: float = 0.0
    error_max: float = 0.0
    tol_ratio_max: float = 0.0
    absdiff_max: float = 0.0


def digest(out_dir):
    """sha256 over the names and bytes of every file a job wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def judge(job, status, out_dir):
    """Verdict of one job from its exit status and the files in ``out_dir``."""
    if not isinstance(status, int):
        return Verdict(FAILED, f"cli.main raised: {status}")
    check = {"invariants": _invariants, "spectrum": _spectrum, "verify": _verify}[job.command]
    try:
        verdict = check(job, status, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(WRONG, f"unreadable output: {type(exc).__name__}: {exc}")
    if verdict.status == OK and status != EXIT_OK:
        verdict.status, verdict.detail = FAILED, f"exit {status} with valid outputs"
    return verdict


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _invariants(job, status, out_dir):
    with open(os.path.join(out_dir, "invariants.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if status == EXIT_NOCONV and data.get("error") == "no-gap":
            return Verdict(UNCERTIFIED, f"no-gap: {data.get('detail')}")
        return Verdict(WRONG, f"unexpected invariants.json object: {data}")
    if len(data) != len(job.expected):
        return Verdict(WRONG, f"{len(data)} reports, expected {len(job.expected)}")
    v = Verdict(OK)
    notes = []
    for report, expected in zip(data, job.expected):
        for kind in ("rank", "chern"):
            entry = report[kind]
            value, residual = entry["estimate"]["value"], entry["estimate"]["residual"]
            if not (_finite(value) and _finite(residual)):
                return Verdict(WRONG, f"{report['level']} {kind}: non-finite estimate")
            v.residual_max = max(v.residual_max, residual)
            v.error_max = max(v.error_max, abs(value - expected))
            if entry["certified"] and entry["rounded"] != expected:
                return Verdict(WRONG, f"{report['level']} {kind}: certified "
                                      f"{entry['rounded']}, closed form {expected}")
            if not entry["certified"]:
                notes.append(f"{report['level']} {kind} uncertified "
                             f"(estimate {value:.6g}, residual {residual:.3g})")
        if not report.get("parity_ok", True):
            notes.append(f"{report['level']} parity not certified")
    if notes:
        if status != EXIT_NOCONV:
            return Verdict(WRONG, f"exit {status} with " + "; ".join(notes))
        v.status, v.detail = UNCERTIFIED, "; ".join(notes)
    return v


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} has no rows")
    return rows


def _spectrum(job, status, out_dir):
    v = Verdict(OK)
    for row in _rows(os.path.join(out_dir, "spectrum.csv")):
        diff, diag = float(row["abs_diff"]), float(row["diagonalized"])
        if not (math.isfinite(diff) and math.isfinite(diag) and diff <= SPECTRUM_TOL):
            return Verdict(WRONG, f"{row['label']}: abs_diff {row['abs_diff']}, "
                                  f"diagonalized {row['diagonalized']}")
        v.absdiff_max = max(v.absdiff_max, diff)
    if not os.path.isfile(os.path.join(out_dir, "gaps.csv")):
        return Verdict(WRONG, "gaps.csv missing")
    return v


def _verify(job, status, out_dir):
    v = Verdict(OK)
    for row in _rows(os.path.join(out_dir, "verify.csv")):
        residual, tol = float(row["residual"]), float(row["tolerance"])
        if row["status"] != "pass" or not (math.isfinite(residual) and tol > 0
                                           and residual <= tol):
            return Verdict(WRONG, f"check {row['check']}: {row['status']}, "
                                  f"residual {row['residual']} tol {row['tolerance']}")
        v.tol_ratio_max = max(v.tol_ratio_max, residual / tol)
    return v
