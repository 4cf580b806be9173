"""Exit contract of the command line: every input ends in a documented status.

Random models, commands, small truncations, levels, couplings and
``LANDAU_*`` environment overrides must end in exit 0 (ok), 2 (config
error), 3 (non-convergence) or 4 (assertion failure), never in an
exception. The examples are derandomized, so every run tests the same set.
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


@st.composite
def runs(draw):
    """(command, config keys, keys moved to LANDAU_* variables).

    Ordinary values, with one or two floats pushed to EXTREME values.
    """
    command = draw(st.sampled_from(["spectrum", "invariants", "verify"]))
    r = draw(unit_vector())
    keys = {
        "model": draw(st.sampled_from(["landau", "jaynes_cummings", "quaternionic"])),
        "nmax": draw(st.integers(13, 16) | st.integers(-1, 16)),
        "params.ell_b": draw(st.floats(0.5, 2.0)),
        "params.eps_b": draw(st.floats(0.5, 2.0)),
        "params.xi": draw(st.floats(0.0, 1.0)),
        "params.c_b": draw(st.floats(0.0, 1.0)),
        "params.r0": r[0], "params.r1": r[1], "params.r2": r[2],
        "levels": draw(st.none() | st.none() | level_list()),
        "jmax": draw(st.none() | st.integers(-1, 6)),
        "fermi_energy": draw(st.none() | st.floats(0.0, 4.0) | st.floats(0.0, 4.0)),
        "gap_threshold": draw(st.none() | st.floats(0.01, 0.5)),
        "tol": draw(st.none() | st.floats(1e-12, 1e-2)),
        "check": draw(st.sampled_from([c[0] for c in CHECKS])) if command == "verify" else None,
    }
    for key in draw(st.sets(st.sampled_from(FLOAT_KEYS), min_size=1, max_size=2)):
        keys[key] = draw(EXTREME)
    keys = {k: v for k, v in keys.items() if v is not None}
    in_env = draw(st.sets(st.sampled_from(sorted(keys))))
    return command, keys, in_env


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
    assert run_cli(*run) in (EXIT_OK, EXIT_CONFIG, EXIT_NOCONV, EXIT_ASSERT)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, keys, status", [
    # eigh gives up on the overflowing sector blocks: non-convergence
    ("spectrum", {"model": "jaynes_cummings", "nmax": 13, "params.eps_b": 1.7e308,
                  "params.c_b": 1.0}, EXIT_NOCONV),
    # 8 c_b^2 j overflows the pair angles: the NaN estimates stay uncertified
    ("invariants", {"model": "jaynes_cummings", "nmax": 13, "params.c_b": 1e154}, EXIT_NOCONV),
    # the areas of the Folner regions overflow: the check fails
    ("verify", {"nmax": 13, "params.ell_b": 1e154, "check": "tuv_bridge"}, EXIT_ASSERT),
])
def test_overflow_inside_the_engines(command, keys, status):
    # inputs whose derived scales pass ModelParams but overflow further in
    assert run_cli(command, keys) == status
