"""Exit contract of the command line: every input ends in a documented status.

Random models, commands, small truncations, levels, couplings and
``LANDAU_*`` environment overrides must end in exit 0 (ok), 2 (config
error), 3 (non-convergence) or 4 (assertion failure), never in an
exception, and a key the command does not read must end in exit 2. The
examples are derandomized, so every run tests the same set.
"""

import contextlib
import io
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from landautrace.cli import CHECKS, EXIT_ASSERT, EXIT_CONFIG, EXIT_NOCONV, EXIT_OK, ENV_PREFIX, main


#: values that break scales: zero, negative, subnormal, tiny, huge, non-finite, or any float
EXTREME = st.one_of(
    st.sampled_from([0.0, -1.0, 5e-324, 1e-200, 1e-160, 1e150, 1e154, 1e200, 1.7e308,
                     math.inf, math.nan]),
    st.floats(),
)
FLOAT_KEYS = ("params.ell_b", "params.eps_b", "params.xi", "params.c_b", "params.r0",
              "fermi_energy", "gap_threshold", "tol")


def unit_vector():
    def normalize(v):
        norm = math.sqrt(sum(x * x for x in v))
        return tuple(x / norm for x in v)

    return st.tuples(*[st.floats(-1, 1)] * 3).filter(
        lambda v: sum(x * x for x in v) > 1e-3).map(normalize)


def level_list():
    level = st.builds("{}{}".format, st.integers(-1, 14), st.sampled_from(["", "+", "-"]))
    return st.lists(level, max_size=3).map(",".join)


#: ordinary values of the keys some commands read and others do not (None: unset)
OPTIONAL = {
    "model": st.sampled_from(["landau", "jaynes_cummings", "quaternionic"]),
    "levels": st.none() | st.none() | level_list(),
    "jmax": st.none() | st.integers(-1, 6),
    "fermi_energy": st.none() | st.floats(0.0, 4.0) | st.floats(0.0, 4.0),
    "gap_threshold": st.none() | st.floats(0.01, 0.5),
    "tol": st.none() | st.floats(1e-12, 1e-2),
    "check": st.sampled_from([c[0] for c in CHECKS]),
}

#: the optional keys each command reads, invariants by model
READS = {
    "spectrum": ("model", "jmax", "gap_threshold"),
    "landau": ("model", "levels"),
    "jaynes_cummings": ("model", "levels"),
    "quaternionic": ("model", "fermi_energy", "gap_threshold"),
    "verify": ("tol", "check"),
}


@st.composite
def runs(draw):
    """(command, config keys, keys moved to LANDAU_* variables, whether a stray key was added).

    Each command gets only the keys it reads, with ordinary values. Half of
    the examples push one or two of their floats to EXTREME values, one in
    four adds one key the command does not read, and one in four is left
    ordinary.
    """
    command = draw(st.sampled_from(["spectrum", "invariants", "verify"]))
    r = draw(unit_vector())
    keys = {
        "nmax": draw(st.integers(13, 16) | st.integers(-1, 16)),
        "params.ell_b": draw(st.floats(0.5, 2.0)),
        "params.eps_b": draw(st.floats(0.5, 2.0)),
        "params.xi": draw(st.floats(0.0, 1.0)),
        "params.c_b": draw(st.floats(0.0, 1.0)),
        "params.r0": r[0], "params.r1": r[1], "params.r2": r[2],
    }
    if command != "verify":
        keys["model"] = draw(OPTIONAL["model"])
    reads = READS[keys["model"] if command == "invariants" else command]
    keys.update({key: draw(OPTIONAL[key]) for key in reads if key != "model"})
    kind = draw(st.sampled_from(["extreme", "extreme", "ordinary", "stray"]))
    if kind == "extreme":
        floats = [key for key in FLOAT_KEYS if key.startswith("params.") or key in reads]
        for key in draw(st.sets(st.sampled_from(floats), min_size=1, max_size=2)):
            keys[key] = draw(EXTREME)
    if kind == "stray":
        key = draw(st.sampled_from(sorted(set(OPTIONAL) - set(reads))))
        keys[key] = draw(OPTIONAL[key].filter(lambda v: v is not None))
    keys = {k: v for k, v in keys.items() if v is not None}
    in_env = draw(st.sets(st.sampled_from(sorted(keys))))
    return command, keys, in_env, kind == "stray"


def text(value):
    return repr(value) if isinstance(value, float) else str(value)


def run_cli(command, keys, in_env=()):
    """Exit status of ``command`` with ``keys`` in a config file, those in ``in_env`` as LANDAU_*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    env.update({ENV_PREFIX + k.upper().replace(".", "__"): text(keys[k]) for k in in_env})
    config = "".join(f"{k} = {text(v)}\n" for k, v in keys.items() if k not in in_env)
    with tempfile.TemporaryDirectory() as out, mock.patch.dict(os.environ, env, clear=True):
        path = os.path.join(out, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["--config", path, "--out", out, command])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(runs())
def test_every_input_ends_in_a_documented_status(run):
    command, keys, in_env, stray = run
    status = run_cli(command, keys, in_env)
    if stray:  # a key the command does not read is a config error
        assert status == EXIT_CONFIG
    else:
        assert status in (EXIT_OK, EXIT_CONFIG, EXIT_NOCONV, EXIT_ASSERT)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, keys, status", [
    # the sector bands overflow: the tridiagonal solver returns NaN eigenvalues, and NaN rows fail
    ("spectrum", {"model": "jaynes_cummings", "nmax": 13, "params.eps_b": 1.7e308,
                  "params.c_b": 1.0}, EXIT_ASSERT),
    # the pair angles stay finite, and the harmonic-column fit is exact on the
    # converged sectors: rank = Chern = 1 certifies even at the shortest Nmax 13
    ("invariants", {"model": "jaynes_cummings", "nmax": 13, "params.c_b": 1e154}, EXIT_OK),
    # the areas of the Folner regions overflow: the check fails
    ("verify", {"nmax": 13, "params.ell_b": 1e154, "check": "tuv_bridge"}, EXIT_ASSERT),
    # the densities are of order 1e15 here; times ell_B^2 their difference is rounding
    ("verify", {"nmax": 13, "params.ell_b": 1e-8, "check": "tuv_bridge"}, EXIT_OK),
    # the commutators overflow to NaN, and the NaN residuals fail the row
    ("verify", {"nmax": 14, "params.ell_b": 1e154, "check": "curvature"}, EXIT_ASSERT),
    # c_b^2 itself is finite, and the pair angles are formed from c_b sqrt(8 j)
    ("invariants", {"model": "jaynes_cummings", "nmax": 40, "params.c_b": 1e154}, EXIT_OK),
    # the level-3 commutators overflow: NaN identity residuals leave the Chern number uncertified
    ("invariants", {"nmax": 14, "levels": 3, "params.ell_b": 1e154}, EXIT_NOCONV),
])
def test_overflow_inside_the_engines(command, keys, status):
    # inputs whose derived scales pass ModelParams but overflow further in
    assert run_cli(command, keys) == status


@pytest.mark.parametrize("keys", [
    {"nmax": 20, "jmax": 10 ** 18},  # the closed-form Landau table would hold 10^18 levels
    {"model": "jaynes_cummings", "nmax": 20, "jmax": 10 ** 9},  # 10^9 closed-form pairs
])
def test_jmax_past_nmax_is_a_config_error(keys):
    assert run_cli("spectrum", keys) == EXIT_CONFIG
