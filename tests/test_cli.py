import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dense_oracle import dense_commutator_residual, dense_commutator_residuals
from landautrace import cli, fock, sectors, topo, tuv
from landautrace.cli import (
    _MODELS,
    EXIT_ASSERT,
    EXIT_CONFIG,
    EXIT_NOCONV,
    EXIT_OK,
    ConfigError,
    _commutator_residuals,
    _tridiagonal_commutator,
    main,
    parse_config_text,
)
from landautrace.singtrace import GRADED_MARGIN, DixmierEstimate, dixmier_via_zeta_residue


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_strict_json(path):
    """JSON that a strict parser accepts: a NaN or Infinity token raises."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def per_sector_commutator_residuals(nmax):
    """The commutators check as a loop over every n2 sector b with interior rows."""
    root = np.sqrt(np.arange(1, nmax + 1, dtype=float))
    c, ci = 1 / np.sqrt(2), 1 / (1j * np.sqrt(2))

    def bands(mode):
        return mode[0] * root, mode[1] * root

    lowering, raising = (0.0, 1.0), (1.0, 0.0)  # coefficients of (a+, a-)
    k1, k2, g1, g2 = (c, c), (ci, -ci), (-c, -c), (-ci, ci)
    names = ("[a-,a+] - 1", "[b-,b+] - 1", "[K1,K2] + i", "[G1,G2] + i",
             "[K1,G1]", "[K2,G2]", "Theta K1 Theta^-1 + K2", "Theta K2 Theta^-1 + K1")
    worst = dict.fromkeys(names, 0.0)

    def record(name, *parts):
        worst[name] = max(worst[name], *(float(np.abs(p).max(initial=0.0)) for p in parts))

    def commutator(name, x, y, rows, target):
        diag, *bands = _tridiagonal_commutator(x, y, rows)
        record(name, diag - target, *bands)

    # second mode: along the sector index, over every sector with interior rows
    commutator("[b-,b+] - 1", lowering, raising, nmax, 1.0)
    commutator("[G1,G2] + i", g1, g2, nmax, -1j)
    for b in range(nmax):
        rows = nmax - b
        commutator("[a-,a+] - 1", lowering, raising, rows, 1.0)
        commutator("[K1,K2] + i", k1, k2, rows, -1j)
        for name, x, g in (("[K1,G1]", bands(k1), bands(g1)), ("[K2,G2]", bands(k2), bands(g2))):
            record(name, *(band[:rows - 1] * g[i][b] - g[i][b] * band[:rows - 1]
                           for band in x for i in (0, 1)))
        phase = sectors._i_power(np.arange(rows + 1) + b)
        for name, x, y in (("Theta K1 Theta^-1 + K2", bands(k1), bands(k2)),
                           ("Theta K2 Theta^-1 + K1", bands(k2), bands(k1))):
            sub = phase[1:] * x[0][:rows].conj() * phase[:-1].conj()
            sup = phase[:-1] * x[1][:rows].conj() * phase[1:].conj()
            record(name, sub + y[0][:rows], sup + y[1][:rows])
    return worst


class TestConfigParsing:
    def test_key_value_and_comments(self):
        cfg = parse_config_text("model = landau\n# note\nparams.c_b = 0.4\n")
        assert cfg["model"][0] == "landau"
        assert cfg["params.c_b"][0] == "0.4"

    def test_line_precise_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("model = landau\nbogus line\n", source="run.cfg")
        assert "run.cfg:2" in str(err.value)

    def test_bad_value_reports_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\nnmax = many\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG

    def test_unknown_model_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = hydrogen\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG

    def test_unknown_key_in_file_rejected(self, tmp_path, capsys):
        # a misspelled nmax used to run at the default nmax 40
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\nnmx = 60\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG
        assert f"{cfg}:2: key 'nmx' is not read by spectrum" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_unknown_key_in_env_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LANDAU_NMX", "3")
        rc = main(["--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG
        assert "env:LANDAU_NMX: key 'nmx' is not read by spectrum" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_env_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\nnmax = 10\n")
        monkeypatch.setenv("LANDAU_NMAX", "not-an-int")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG

    def test_level_sign_validation(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jaynes_cummings\nlevels = 2\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_CONFIG
        assert f"{cfg}:2: pair level 2 needs a sign" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["3", "3+", "0,1"])
    def test_quaternionic_rejects_levels(self, tmp_path, capsys, levels):
        # a quaternionic run selects a fermi_energy and reads no levels
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = quaternionic\nnmax = 20\nfermi_energy = 1\nlevels = {levels}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "invariants"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:4: key 'levels' is not read by quaternionic invariants" in err

    @pytest.mark.parametrize("command, model, key, value", [
        *[("spectrum", "landau", key, value) for key, value in (
            ("levels", "1"), ("fermi_energy", "2"), ("tol", "1e-6"), ("check", "kernels"))],
        *[("invariants", model, key, value)
          for model in ("landau", "jaynes_cummings")
          for key, value in (("jmax", "3"), ("gap_threshold", "0.1"), ("fermi_energy", "2"),
                             ("tol", "1e-6"), ("check", "kernels"))],
        *[("invariants", "quaternionic", key, value) for key, value in (
            ("levels", "1"), ("jmax", "3"), ("tol", "1e-6"), ("check", "kernels"))],
        *[("verify", None, key, value) for key, value in (
            ("model", "landau"), ("levels", "1"), ("jmax", "3"), ("fermi_energy", "2"),
            ("gap_threshold", "0.1"))],
    ])
    @pytest.mark.parametrize("where", ["file", "env"])
    def test_key_the_command_does_not_read_rejected(self, tmp_path, monkeypatch, capsys,
                                                    command, model, key, value, where):
        # a valid run of the command, plus one key that another command reads
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        lines = ["nmax = 20", *([f"model = {model}"] if model else []),
                 *(["fermi_energy = 1"] if model == "quaternionic" else [])]
        if where == "env":
            monkeypatch.setenv("LANDAU_" + key.upper(), value)
            origin = f"env:LANDAU_{key.upper()}"
        else:
            lines.append(f"{key} = {value}")
            origin = f"{cfg}:{len(lines)}"
        cfg.write_text("".join(line + "\n" for line in lines))
        rc = main(["--config", str(cfg), "--out", str(out), command])
        assert rc == EXIT_CONFIG
        reader = f"{model} invariants" if command == "invariants" else command
        assert f"{origin}: key '{key}' is not read by {reader}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, where", [
        (["--model", "quaternionic", "--check", "kernels", "verify"], "flag: key 'model'"),
        (["--check", "kernels", "--nmax", "20", "invariants"], "flag: key 'check'"),
        (["--tol", "1e-6", "spectrum"], "flag: key 'tol'"),
    ])
    def test_flag_the_command_does_not_read_rejected(self, tmp_path, capsys, argv, where):
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == EXIT_CONFIG
        assert f"{where} is not read by" in capsys.readouterr().err
        assert not out.exists()

    def test_quaternionic_needs_fermi_energy(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--model", "quaternionic", "--nmax", "20", "--out", str(out), "invariants"])
        assert rc == EXIT_CONFIG
        assert "<default>: quaternionic invariants need fermi_energy" in capsys.readouterr().err
        assert not out.exists()

    def test_landau_level_sign_echoed_as_written(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\nlevels = 2-\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "invariants"]) == EXIT_CONFIG
        assert f"{cfg}:2: landau levels take no sign (got 2-)" in capsys.readouterr().err

    def test_invariants_need_graded_shells(self, tmp_path, capsys):
        # shells 0..nmax feed the graded fit, which needs 12 + GRADED_MARGIN of them
        fewest = 12 + GRADED_MARGIN - 1
        rc = main(["--nmax", str(fewest - 1), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_CONFIG
        assert f"flag: invariants need nmax >= {fewest}" in capsys.readouterr().err
        rc = main(["--nmax", str(fewest), "--out", str(tmp_path), "invariants"])
        assert rc in (EXIT_OK, EXIT_NOCONV)
        # spectrum keeps working at small truncations
        assert main(["--nmax", str(fewest - 1), "--out", str(tmp_path), "spectrum"]) == EXIT_OK

    @pytest.mark.parametrize("model, nmax, level, ok", [
        ("landau", 10, "9", False),
        ("landau", 20, "18", False),
        ("landau", 20, "-1", False),
        ("landau", 20, "17", True),
        ("jaynes_cummings", 20, "17+", False),
        ("jaynes_cummings", 20, "-1+", False),
        ("jaynes_cummings", 20, "16-", True),
    ])
    def test_level_bounds_match_engine(self, tmp_path, capsys, model, nmax, level, ok):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\nparams.c_b = 0.3\nnmax = {nmax}\nlevels = {level}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert (rc in (EXIT_OK, EXIT_NOCONV)) if ok else rc == EXIT_CONFIG
        if not ok:  # a short truncation is blamed on nmax (line 3), the rest on levels (line 4)
            line = 3 if nmax < 12 + GRADED_MARGIN - 1 else 4
            assert f"config error: {cfg}:{line}: " in capsys.readouterr().err

    def test_non_finite_params_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LANDAU_PARAMS__XI", "nan")
        assert main(["--out", str(tmp_path), "invariants"]) == EXIT_CONFIG
        monkeypatch.delenv("LANDAU_PARAMS__XI")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jaynes_cummings\nparams.c_b = inf\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("model, command, key, value", [
        ("jaynes_cummings", "invariants", "params.c_b", "1e200"),
        ("jaynes_cummings", "spectrum", "params.c_b", "1e200"),
        ("landau", "verify", "params.c_b", "1e200"),
        ("landau", "verify", "params.ell_b", "1e-200"),
    ])
    def test_overflowing_scales_rejected(self, tmp_path, capsys, model, command, key, value):
        # c_b^2 overflowed in the JC angles and Hamiltonian, 1/ell_B^2 in the kernel check;
        # verify reads no model
        cfg = tmp_path / "run.cfg"
        head = "" if command == "verify" else f"model = {model}\n"
        cfg.write_text(f"{head}nmax = 16\n{key} = {value}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == EXIT_CONFIG
        line = 2 if command == "verify" else 3
        assert f"config error: {cfg}:{line}: invalid params: " in capsys.readouterr().err

    def test_overflowing_scale_from_env_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LANDAU_PARAMS__C_B", "1e200")
        rc = main(["--model", "jaynes_cummings", "--nmax", "20", "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_CONFIG
        assert "config error: env:LANDAU_PARAMS__C_B: invalid params: c_b^2 overflows" in capsys.readouterr().err

    def test_unnormalized_r_names_the_keys_that_were_set(self, tmp_path, monkeypatch, capsys):
        # r1 keeps its default 1, so only the r keys set in the file and the environment are named
        cfg = tmp_path / "run.cfg"
        cfg.write_text("params.r0 = 0.5\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == EXIT_CONFIG
        assert f"config error: {cfg}:1: invalid params: r must be normalized" in capsys.readouterr().err
        monkeypatch.setenv("LANDAU_PARAMS__R2", "0.3")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == EXIT_CONFIG
        assert f"config error: {cfg}:1, env:LANDAU_PARAMS__R2: invalid params: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, command", [
        ("tol", "nan", "verify"),
        ("tol", "-1", "verify"),
        ("tol", "0", "verify"),
        ("gap_threshold", "0", "spectrum"),
        ("gap_threshold", "-1", "spectrum"),
        ("gap_threshold", "nan", "spectrum"),
        ("gap_threshold", "inf", "spectrum"),
        ("fermi_energy", "nan", "invariants"),
        ("fermi_energy", "inf", "invariants"),
    ])
    def test_thresholds_and_tolerances_rejected(self, tmp_path, capsys, key, value, command):
        # tol and gap_threshold must be finite and > 0, fermi_energy finite
        cfg = tmp_path / "run.cfg"
        head = "check = kernels\n" if command == "verify" else "model = quaternionic\n"
        cfg.write_text(f"{head}nmax = 20\n{key} = {value}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == EXIT_CONFIG
        assert f"bad value for {key}" in capsys.readouterr().err


class TestSpectrum:
    @pytest.mark.parametrize("model, couplings", [
        ("landau", ""),
        # Landau x C^2 up to a spin rotation and a gauge: each Landau level, listed once
        ("quaternionic", "params.c_b = 0.5\nparams.r0 = 0.6\nparams.r1 = 0\nparams.r2 = -0.8\n"),
    ], ids=["landau", "quaternionic"])
    def test_landau_rows(self, tmp_path, model, couplings):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\njmax = 5\nnmax = 16\n{couplings}")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows[0] == ["label", "closed_form", "diagonalized", "abs_diff"]
        assert len(rows) == 7
        values = [float(r[1]) for r in rows[1:]]
        assert values == pytest.approx([j + 0.5 for j in range(6)])
        assert all(float(r[3]) <= 1e-8 for r in rows[1:])

    def test_jc_rows_match_closed_form(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jaynes_cummings\nparams.c_b = 1.0\njmax = 3\nnmax = 24\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "spectrum.csv")
        assert all(float(r[3]) <= 1e-8 for r in rows[1:])
        labels = [r[0] for r in rows[1:]]
        assert "E_1-" in labels and "E_1+" in labels and "E_0" in labels

    def test_empty_level_table(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\njmax = -1\nnmax = 10\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG  # negative jmax is a config error
        assert f"{cfg}:2: jmax must be in 0..nmax = 10, got -1" in capsys.readouterr().err
        cfg.write_text("model = landau\njmax = 0\nnmax = 10\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 2  # header + single level

    def test_default_jmax_stops_at_nmax(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for nmax, labels in ((3, ["E_0", "E_1", "E_2", "E_3"]), (8, [f"E_{j}" for j in range(6)])):
            cfg.write_text(f"model = landau\nnmax = {nmax}\n")
            main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
            assert [r[0] for r in read_csv(tmp_path / "spectrum.csv")[1:]] == labels

    def test_gap_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\njmax = 2\nnmax = 16\n")
        main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        gaps = read_csv(tmp_path / "gaps.csv")
        assert gaps[0] == ["lower", "upper", "width"]
        widths = [float(r[2]) for r in gaps[1:]]
        assert all(w == pytest.approx(1.0, abs=1e-8) for w in widths[:3])

    @pytest.mark.parametrize("model", ["landau", "jaynes_cummings"])
    def test_gap_threshold_honoured(self, tmp_path, model):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\nparams.c_b = 0.5\njmax = 2\nnmax = 12\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == EXIT_OK
        assert len(read_csv(tmp_path / "gaps.csv")) > 1
        cfg.write_text(cfg.read_text() + "gap_threshold = 2\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == EXIT_OK
        assert read_csv(tmp_path / "gaps.csv") == [["lower", "upper", "width"]]

    @pytest.mark.parametrize("model", ["landau", "jaynes_cummings", "quaternionic"])
    @pytest.mark.parametrize("nmax", [0, 1])
    def test_unresolved_levels_fail(self, tmp_path, model, nmax):
        # no interior eigenvalue to match: NaN rows must not pass as exit 0
        rc = main(["--model", model, "--nmax", str(nmax), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_ASSERT
        rows = read_csv(tmp_path / "spectrum.csv")
        assert any(r[3] == "nan" for r in rows[1:])

    def test_shifted_quaternionic_eigenvalues_fail(self, tmp_path, monkeypatch):
        # a detector: every eigenvalue of the sector solver moved by 1e-3 must exit 4
        solve = sectors.quaternionic_sector_eigensystem

        def shifted(*args, **kwargs):
            stacks, evs, flags = solve(*args, **kwargs)
            return stacks, evs + 1e-3, flags

        monkeypatch.setattr(sectors, "quaternionic_sector_eigensystem", shifted)
        rc = main(["--model", "quaternionic", "--nmax", "16", "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_ASSERT
        diffs = [float(r[3]) for r in read_csv(tmp_path / "spectrum.csv")[1:]]
        assert diffs == pytest.approx([1e-3] * 6, abs=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_quaternionic_non_finite_rows_fail(self, tmp_path):
        # eps_B (c_b |r|)^2 overflows the sector blocks: NaN eigenvalues must not pass as exit 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = quaternionic\nnmax = 5\nparams.c_b = 1e150\nparams.eps_b = 1e10\n"
                       "params.r0 = 1\nparams.r1 = 0\nparams.r2 = 0\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_ASSERT
        rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) > 1 and all(r[2] == "nan" for r in rows[1:])

    def test_nmax_above_old_caps(self, tmp_path):
        # the dense path capped the truncation at 40 and failed level 45 with exit 4
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\njmax = 45\nnmax = 50\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows[-1][0] == "E_45" and float(rows[-1][3]) == 0.0

    @pytest.mark.parametrize("model", ["landau", "jaynes_cummings", "quaternionic"])
    def test_builds_no_dense_matrix(self, tmp_path, monkeypatch, model):
        # spectrum runs per n2 sector and must not fall back to dense OperatorMatrix algebra
        def refuse(*args, **kwargs):
            raise AssertionError("dense OperatorMatrix built")

        monkeypatch.setattr(fock.OperatorMatrix, "__init__", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\nparams.c_b = 0.5\nnmax = 40\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_OK
        assert len(read_csv(tmp_path / "spectrum.csv")) > 1


class TestInvariants:
    def test_landau_level_zero(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\nlevels = 0\nnmax = 60\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_OK
        data = json.loads((tmp_path / "invariants.json").read_text())
        assert data[0]["rank"]["rounded"] == 1
        assert data[0]["chern"]["rounded"] == 1
        assert data[0]["rank"]["certified"] and data[0]["chern"]["certified"]

    def test_jc_level(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = jaynes_cummings\nparams.c_b = 0.3\nlevels = 2-\nnmax = 60\n"
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_OK
        data = json.loads((tmp_path / "invariants.json").read_text())
        assert data[0]["level"] == "2-"
        assert data[0]["rank"]["rounded"] == 1
        assert data[0]["chern"]["rounded"] == 1

    def test_quaternionic_no_gap_exit(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = quaternionic\nparams.c_b = 0\nparams.r0 = 0\nparams.r1 = 1\n"
            "params.r2 = 0\nfermi_energy = 0.5\nnmax = 40\n"
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_NOCONV
        data = json.loads((tmp_path / "invariants.json").read_text())
        assert data["error"] == "no-gap"

    def test_quaternionic_certified_gap(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = quaternionic\nparams.c_b = 0\nparams.r0 = 0\nparams.r1 = 1\n"
            "params.r2 = 0\nfermi_energy = 1.0\nnmax = 60\n"
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_OK
        data = json.loads((tmp_path / "invariants.json").read_text())
        assert data[0]["rank"]["rounded"] == 2
        assert data[0]["chern"]["rounded"] == 2
        assert data[0]["parity_ok"]

    def test_mixed_certification_exits_3_with_every_report(self, tmp_path):
        # level 0 certifies at Nmax 40; level 37, the last interior one, has an
        # uncertified Chern number there
        cfg = self._config(tmp_path, "landau", "0,37")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_NOCONV
        data = json.loads((tmp_path / "invariants.json").read_text())
        assert [r["level"] for r in data] == ["0", "37"]
        assert data[0]["rank"]["certified"] and data[0]["chern"]["certified"]
        assert not data[1]["chern"]["certified"]

    def test_disagreeing_rank_routes_stop_certification(self, tmp_path, monkeypatch):
        # the zeta residue gives 1; a gamma fit sure of 2 must keep the rank uncertified
        monkeypatch.setattr(topo, "dixmier_via_gamma_fit",
                            lambda seq, schedule: DixmierEstimate(2.0, "gamma_fit", [], True, 1e-6))
        cfg = self._config(tmp_path, "landau", "0")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "invariants"]) == EXIT_NOCONV
        report = json.loads((tmp_path / "invariants.json").read_text())[0]
        rank = report["rank"]
        assert rank["estimate"]["method"] == "zeta_residue" and rank["estimate"]["residual"] > 0
        assert [(c["method"], c["value"]) for c in rank["cross_checks"]] == [("gamma_fit", 2.0)]
        assert rank["rounded"] == 1 and not rank["certified"]
        assert report["chern"]["certified"] and report["chern"]["cross_checks"] == []

    def test_level_whose_density_starts_at_the_edge_exits_3(self, tmp_path, monkeypatch):
        # level 137 fills shells 137 and 138 before the edge margin, too few for the
        # graded fit; its Chern number was once certified as 0 (0.0024 +- 0.029)
        monkeypatch.setenv("LANDAU_LEVELS", "137")
        assert main(["--nmax", "140", "--out", str(tmp_path), "invariants"]) == EXIT_NOCONV
        report = read_strict_json(tmp_path / "invariants.json")[0]
        assert report["rank"]["rounded"] == 1 and report["rank"]["certified"]
        assert report["chern"]["rounded"] is None and not report["chern"]["certified"]
        # its NaN estimate and infinite residual are null, not the NaN and Infinity tokens
        assert report["chern"]["estimate"]["value"] is None
        assert report["chern"]["estimate"]["residual"] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_identity_residuals_are_strict_json(self, tmp_path, monkeypatch):
        # at ell_B = 1e154 the level-3 commutators overflow: NaN residuals, written as
        # null, leave the Chern number uncertified (it was once certified with exit 0)
        monkeypatch.setenv("LANDAU_LEVELS", "3")
        monkeypatch.setenv("LANDAU_PARAMS__ELL_B", "1e154")
        assert main(["--nmax", "14", "--out", str(tmp_path), "invariants"]) == EXIT_NOCONV
        report = read_strict_json(tmp_path / "invariants.json")[0]
        assert report["identity_residuals"] == {"commutator_identity": None, "curvature_identity": None}
        assert report["chern"]["rounded"] == 1 and not report["chern"]["certified"]
        assert report["rank"]["certified"]

    @pytest.mark.parametrize("xi", ["1e150", "1e15"])
    def test_gamma_fit_past_the_int64_range_is_unconverged(self, tmp_path, monkeypatch, xi):
        # the schedule of the offset 2 + 2 xi passes 2^63, at 1e150 from its first count
        # and at 1e15 after 6 of them, too few for the fit and its upper-half refit
        # (once 1.00309 +- 1.0e-5, converged): the gamma route is an unconverged NaN,
        # written as null, the rank is not certified, exit 3
        monkeypatch.setenv("LANDAU_PARAMS__XI", xi)
        assert main(["--nmax", "14", "--out", str(tmp_path), "invariants"]) == EXIT_NOCONV
        rank = read_strict_json(tmp_path / "invariants.json")[0]["rank"]
        (fit,) = rank["cross_checks"]
        assert fit["method"] == "gamma_fit" and fit["value"] is None and not fit["converged"]
        assert not rank["certified"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_quaternionic_bands_exit_3(self, tmp_path, monkeypatch, capsys):
        # at eps_B = 1.7e308 the bands overflow and dstevr finds no eigenpair
        monkeypatch.setenv("LANDAU_MODEL", "quaternionic")
        monkeypatch.setenv("LANDAU_FERMI_ENERGY", "1")
        monkeypatch.setenv("LANDAU_PARAMS__EPS_B", "1.7e308")
        assert main(["--nmax", "14", "--out", str(tmp_path), "invariants"]) == EXIT_NOCONV
        assert "non-convergence" in capsys.readouterr().err

    def test_landau_level_400_certifies(self, tmp_path, monkeypatch):
        # the gamma fit's schedule starts past the level's offset, the graded fit at its density
        monkeypatch.setenv("LANDAU_LEVELS", "400")
        assert main(["--nmax", "410", "--out", str(tmp_path), "invariants"]) == EXIT_OK
        report = json.loads((tmp_path / "invariants.json").read_text())[0]
        for key in ("rank", "chern"):
            assert report[key]["rounded"] == 1 and report[key]["certified"]
        assert report["chern"]["estimate"]["value"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("levels", ["0", "0,1+", "0+"])
    def test_jc_pair_level_zero_rejected(self, tmp_path, capsys, levels):
        # level 0 once wrote [] or was dropped from the list with exit 0
        cfg = self._config(tmp_path, "jaynes_cummings", levels, "params.c_b = 0.3\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "invariants"]) == EXIT_CONFIG
        assert f"{cfg}:3: jaynes_cummings level 0" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _config(tmp_path, model, levels, extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\nnmax = 40\nlevels = {levels}\n{extra}")
        return cfg

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\nlevels = 0,1\nnmax = 40\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--config", str(cfg), "--out", str(out1), "invariants"])
        main(["--config", str(cfg), "--out", str(out2), "invariants"])
        assert (out1 / "invariants.json").read_bytes() == (out2 / "invariants.json").read_bytes()


class TestVerify:
    def test_single_cheap_checks_pass(self, tmp_path):
        for name in ("commutators", "kernels", "zeta_closed_forms", "dixmier"):
            rc = main(["--check", name, "--out", str(tmp_path), "--nmax", "16", "verify"])
            assert rc == EXIT_OK, name
        rows = read_csv(tmp_path / "verify.csv")
        assert rows[0] == ["check", "residual", "tolerance", "status"]

    def test_tightened_tolerance_fails(self, tmp_path):
        rc = main([
            "--check", "dixmier", "--tol", "1e-15", "--out", str(tmp_path),
            "--nmax", "16", "verify",
        ])
        assert rc == EXIT_ASSERT
        rows = read_csv(tmp_path / "verify.csv")
        assert rows[1][3] == "FAIL"

    @pytest.mark.parametrize("nmax", [0, 1])
    def test_tiny_nmax_rejected(self, tmp_path, capsys, nmax):
        for check in ("commutators", "symmetries"):
            rc = main(["--check", check, "--nmax", str(nmax), "--out", str(tmp_path), "verify"])
            assert rc == EXIT_CONFIG
            assert f"flag: verify needs nmax >= 2, got {nmax}" in capsys.readouterr().err
        rc = main(["--check", "symmetries", "--nmax", "2", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK

    def test_curvature_and_landau_invariants_build_no_dense_matrix(self, tmp_path, monkeypatch):
        # these run per n2 sector and must not fall back to dense OperatorMatrix
        # algebra, nor build a Hamiltonian block
        def refuse(*args, **kwargs):
            raise AssertionError("dense OperatorMatrix or Hamiltonian block built")

        monkeypatch.setattr(fock.OperatorMatrix, "__init__", refuse)
        monkeypatch.setattr(sectors.SpinHalfModel, "hamiltonian", refuse)
        monkeypatch.setattr(sectors, "lowering_block", refuse)
        rc = main(["--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "verify.csv")[1:]
        assert len(rows) == 8 and all(row[3] == "pass" for row in rows)
        monkeypatch.setenv("LANDAU_LEVELS", "0,3")
        rc = main(["--model", "landau", "--nmax", "60", "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_OK
        reports = json.loads((tmp_path / "invariants.json").read_text())
        assert all("curvature_identity" in r["identity_residuals"] for r in reports)

    @pytest.mark.parametrize("nmax", range(2, 25))
    def test_commutators_match_dense_oracle(self, nmax):
        # cross and Theta entries are single products or exact sums on both
        # routes. The ladder, [K1,K2] and [G1,G2] diagonals are sums of squares
        # up to nmax: the dense route rounds them with sqrt(n)^2, the band route
        # takes the exact squares, so its residual is the rounding of the
        # coefficients alone, 0 or one eps, and never above the dense one
        sector = _commutator_residuals(nmax)
        dense = dense_commutator_residuals(nmax, fock.ModelParams())
        assert sector.keys() == dense.keys()
        eps = np.finfo(float).eps
        exact = {"[a-,a+] - 1": 0.0, "[b-,b+] - 1": 0.0, "[K1,K2] + i": eps, "[G1,G2] + i": eps}
        for name, residual in sector.items():
            if name in exact:
                assert residual == exact[name] <= dense[name] <= 4 * nmax * eps, name
            else:
                assert residual == dense[name], name

    def test_commutators_at_the_old_cap_are_within_the_dense_check(self, tmp_path):
        rc = main(["--check", "commutators", "--nmax", "24", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK
        residual = float(read_csv(tmp_path / "verify.csv")[1][1])
        assert residual == np.finfo(float).eps
        assert dense_commutator_residual(24, fock.ModelParams()) == 7.105427357601002e-15

    def test_commutators_at_large_truncation(self, tmp_path):
        # the dense check stopped at Nmax 24; the bands take every sector
        for nmax in ("300", "2000"):
            rc = main(["--check", "commutators", "--nmax", nmax, "--out", str(tmp_path), "verify"])
            assert rc == EXIT_OK
            assert float(read_csv(tmp_path / "verify.csv")[1][1]) <= 1e-12

    @pytest.mark.parametrize("nmax", [2115, 5000])
    def test_commutators_pass_where_square_roots_rounded_over_the_tolerance(self, tmp_path, nmax):
        # products sqrt(n) sqrt(n) took the [K1,K2] diagonal over 1e-12 from
        # Nmax 2115 on; the exact squares keep it at one eps, the tolerance stays
        rc = main(["--check", "commutators", "--nmax", str(nmax), "--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK
        _, residual, tol, status = read_csv(tmp_path / "verify.csv")[1]
        assert float(residual) == np.finfo(float).eps and float(tol) == 1e-12 and status == "pass"

    def test_flipped_k2_coefficient_fails_the_commutators(self, tmp_path, monkeypatch):
        # K2 with its a- coefficient flipped commutes with K1: [K1,K2] + i is i
        raising, lowering = cli._COMMUTATOR_MODES["K2"]
        monkeypatch.setitem(cli._COMMUTATOR_MODES, "K2", (raising, -lowering))
        rc = main(["--check", "commutators", "--nmax", "5000", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_ASSERT
        assert read_csv(tmp_path / "verify.csv")[1][3] == "FAIL"

    @pytest.mark.parametrize("nmax", [*range(2, 61), 120, 300, 700, 2114, 2115])
    def test_commutators_on_sector_zero_equal_every_sector(self, nmax):
        # sector 0 holds each row's largest residual over all sectors, bit for bit
        new = _commutator_residuals(nmax)
        old = per_sector_commutator_residuals(nmax)
        assert list(new) == list(old)
        assert {k: v.hex() for k, v in new.items()} == {k: v.hex() for k, v in old.items()}

    def test_commutators_cost_does_not_grow_with_sectors(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _tridiagonal_commutator(*args)

        monkeypatch.setattr(cli, "_tridiagonal_commutator", counted)
        counts = []
        for nmax in (10, 1000):
            calls.clear()
            _commutator_residuals(nmax)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_tuv_bridge_computes_each_zeta_residue_once(self, tmp_path, monkeypatch):
        # two xi times four levels, shared by both combinations
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dixmier_via_zeta_residue(*args, **kwargs)

        monkeypatch.setattr(tuv, "dixmier_via_zeta_residue", counted)
        assert main(["--check", "tuv_bridge", "--out", str(tmp_path), "verify"]) == EXIT_OK
        assert len(calls) == 8

    @pytest.mark.parametrize("eps_b", ["2e7", "1e12"])
    def test_symmetries_at_large_energy_scale(self, tmp_path, monkeypatch, eps_b):
        # the twist relation does not involve eps_B, so no rounding grows with it
        monkeypatch.setenv("LANDAU_PARAMS__EPS_B", eps_b)
        rc = main(["--check", "symmetries", "--nmax", "20", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK
        assert float(read_csv(tmp_path / "verify.csv")[1][1]) <= 1e-8

    @pytest.mark.parametrize("nmax", ["300", "1000000"])
    def test_symmetries_at_large_truncation(self, tmp_path, nmax):
        # the twist relation does not involve Nmax, so neither cost nor memory grows with it
        rc = main(["--check", "symmetries", "--nmax", nmax, "--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK
        assert float(read_csv(tmp_path / "verify.csv")[1][1]) <= 1e-8

    def test_symmetries_fail_on_a_wrong_twist_or_class(self, tmp_path, monkeypatch):
        argv = ["--check", "symmetries", "--nmax", "12", "--out", str(tmp_path), "verify"]
        # diag(1, -i) maps c_b -> -c_b: the spin-orbit block breaks it
        with monkeypatch.context() as m:
            m.setattr(sectors, "JC", dataclasses.replace(sectors.JC, twist=np.diag([1, -1j])))
            assert main(argv) == EXIT_ASSERT
        # sigma_2 read as Real: the quaternionic residual stays small, its class is wrong
        monkeypatch.setattr(sectors, "symmetry_label", lambda twist: "Real(+1)")
        assert main(argv) == EXIT_ASSERT
        assert read_csv(tmp_path / "verify.csv")[1][1] == "inf"

    def test_symmetries_independent_of_blas_threads(self, tmp_path):
        # seed-2 couplings of the benchmark's verify-suite, whose symmetries row
        # once came out differently at 1 and at 2 BLAS threads
        couplings = {"C_B": "0.25495087244304415", "R0": "-0.41817164447055993",
                     "R1": "0.49869878352203106", "R2": "0.759231189476851"}
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_")}
            env.update({f"LANDAU_PARAMS__{k}": v for k, v in couplings.items()})
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
            out = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-m", "landautrace.cli", "--check", "symmetries",
                 "--out", str(out), "verify"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append((out / "verify.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # invariants of all three models, spectrum and the full verify, each run at 1 and 2 BLAS threads
        couplings = ("params.c_b = 0.25495087244304415\nparams.r0 = -0.41817164447055993\n"
                     "params.r1 = 0.49869878352203106\nparams.r2 = 0.759231189476851\n")
        jobs = {
            "inv-landau": ("invariants", "model = landau\nnmax = 60\nlevels = 0,2\n"),
            "inv-jc": ("invariants", "model = jaynes_cummings\nnmax = 60\nlevels = 1+,2-\n"),
            "inv-quaternionic": ("invariants", "model = quaternionic\nnmax = 60\nfermi_energy = 1\n"),
        }
        jobs.update({f"spectrum-{m}": ("spectrum", f"model = {m}\nnmax = 40\n") for m in _MODELS})
        jobs["verify"] = ("verify", "")
        runs = []
        for name, (command, text) in jobs.items():
            (tmp_path / f"{name}.cfg").write_text(text + couplings)
            runs.append((name, str(tmp_path / f"{name}.cfg"), command))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        # one child per thread count runs every job; argv[1] is its output root
        script = ("import os, sys\nfrom landautrace.cli import main\n"
                  f"sys.exit(max(main(['--config', cfg, '--out', os.path.join(sys.argv[1], name), "
                  f"command]) for name, cfg, command in {runs!r}))")
        outputs = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_")}
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            files = sorted((tmp_path / threads).rglob("*.*"))
            outputs.append({f.relative_to(tmp_path / threads): f.read_bytes() for f in files})
        assert len(outputs[0]) == 3 + 2 * 3 + 2
        assert outputs[0] == outputs[1]

    def test_tuv_bridge_non_convergence_is_reported(self, tmp_path, monkeypatch, capsys):
        # a kernel diagonal the quadrature cannot resolve: the failed refinement
        # is a failed row with a NaN residual, not a traceback, and exits 3
        monkeypatch.setattr(tuv.LandauCombination, "kernel_diagonal",
                            lambda self, points, params: np.cos(40.0 * points[:, 0]))
        rc = main(["--check", "tuv_bridge", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_NOCONV
        assert "tuv_bridge: non-convergence" in capsys.readouterr().err
        assert read_csv(tmp_path / "verify.csv")[1][1:] == ["nan", "0.001", "FAIL"]

    def test_tolerance_failure_outranks_non_convergence(self, tmp_path, monkeypatch):
        # the same unresolved quadrature in the full suite at a tolerance no
        # check meets: the tolerance failures exit 4
        monkeypatch.setattr(tuv.LandauCombination, "kernel_diagonal",
                            lambda self, points, params: np.cos(40.0 * points[:, 0]))
        rc = main(["--tol", "1e-30", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_ASSERT
        rows = {r[0]: r for r in read_csv(tmp_path / "verify.csv")[1:]}
        assert rows["tuv_bridge"][1:] == ["nan", "1.0000000000000001e-30", "FAIL"]
        assert sum(r[3] == "FAIL" for r in rows.values()) > 1

    def test_unknown_check_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--check", "nonsense", "--out", str(out), "verify"])
        assert rc == EXIT_CONFIG
        assert "flag: unknown check 'nonsense'" in capsys.readouterr().err
        assert not out.exists()

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "landautrace.cli", "--check", "kernels",
             "--out", str(tmp_path), "verify"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "kernels" in proc.stdout


class TestImports:
    def test_commands_load_no_module_and_never_scipy(self, tmp_path):
        # import landautrace.cli in a fresh interpreter loads no scipy; every command
        # then runs on what that import loaded, so no import cost lands in a command
        jobs = [(f"spectrum-{m}", f"model = {m}\nnmax = 12\n", "spectrum") for m in _MODELS]
        jobs += [
            ("inv-landau", "model = landau\nnmax = 20\nlevels = 0,2\n", "invariants"),
            ("inv-jc", "model = jaynes_cummings\nnmax = 20\nlevels = 1+,2-\n", "invariants"),
            ("inv-quaternionic", "model = quaternionic\nnmax = 40\nfermi_energy = 2\n", "invariants"),
            ("verify", "nmax = 16\n", "verify"),
        ]
        runs = []
        for name, text, command in jobs:
            (tmp_path / f"{name}.cfg").write_text(text)
            runs.append(["--config", str(tmp_path / f"{name}.cfg"),
                         "--out", str(tmp_path / name), command])
        script = ("import json, sys\nfrom landautrace.cli import main\n"
                  "before = set(sys.modules)\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  "print(json.dumps({'codes': codes, "
                  "'scipy': sorted(m for m in before if m.split('.')[0] == 'scipy'), "
                  "'added': sorted(set(sys.modules) - before), "
                  "'removed': sorted(before - set(sys.modules))}))")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_")}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [EXIT_OK] * len(jobs)
        assert report["scipy"] == []
        assert report["added"] == [] and report["removed"] == []


def _traced():
    """``TRACED`` of the benchmark tracer, read from its file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("_tracer", os.path.join(root, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


class TestReach:
    def test_every_public_function_is_reached_or_traced(self, tmp_path):
        # the command configs of TestImports run under a profiler in a fresh interpreter
        # (so no cache filled by another test hides a call); a function in a module's
        # __all__ that none of them calls must at least be timed by the benchmark tracer
        jobs = [(f"spectrum-{m}", f"model = {m}\nnmax = 12\n", "spectrum") for m in _MODELS]
        jobs += [
            ("inv-landau", "model = landau\nnmax = 20\nlevels = 0,2\n", "invariants"),
            ("inv-jc", "model = jaynes_cummings\nnmax = 20\nlevels = 1+,2-\n", "invariants"),
            ("inv-quaternionic", "model = quaternionic\nnmax = 40\nfermi_energy = 2\n", "invariants"),
            ("verify", "nmax = 16\n", "verify"),
        ]
        runs = []
        for name, text, command in jobs:
            (tmp_path / f"{name}.cfg").write_text(text)
            runs.append(["--config", str(tmp_path / f"{name}.cfg"),
                         "--out", str(tmp_path / name), command])
        script = ("import importlib, inspect, json, pkgutil, sys\n"
                  "import landautrace\nfrom landautrace.cli import main\n"
                  "reached = set()\n"
                  "sys.setprofile(lambda frame, event, arg: event == 'call' and reached.add(frame.f_code))\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  "sys.setprofile(None)\n"
                  "unreached = []\n"
                  "for info in pkgutil.iter_modules(landautrace.__path__):\n"
                  "    module = importlib.import_module('landautrace.' + info.name)\n"
                  "    for name in getattr(module, '__all__', ()):\n"
                  "        fn = inspect.unwrap(getattr(module, name))\n"
                  "        if inspect.isfunction(fn) and fn.__code__ not in reached:\n"
                  "            unreached.append([info.name, name])\n"
                  "print(json.dumps({'codes': codes, 'unreached': unreached}))")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_")}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [EXIT_OK] * len(jobs)
        traced = _traced()
        assert [f"{m}.{n}" for m, n in report["unreached"] if n not in traced.get(m, ())] == []
