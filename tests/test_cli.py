import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from landautrace import fock
from landautrace.cli import (
    EXIT_ASSERT,
    EXIT_CONFIG,
    EXIT_NOCONV,
    EXIT_OK,
    ConfigError,
    main,
    parse_config_text,
)
from landautrace.singtrace import GRADED_MARGIN


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


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

    def test_env_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\nnmax = 10\n")
        monkeypatch.setenv("LANDAU_NMAX", "not-an-int")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG

    def test_level_sign_validation(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = jaynes_cummings\nlevels = 2\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_CONFIG

    def test_invariants_need_graded_shells(self, tmp_path, capsys):
        # shells 0..nmax feed the graded fit, which needs 12 + GRADED_MARGIN of them
        fewest = 12 + GRADED_MARGIN - 1
        rc = main(["--nmax", str(fewest - 1), "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_CONFIG
        assert f"nmax >= {fewest}" in capsys.readouterr().err
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
    def test_level_bounds_match_engine(self, tmp_path, model, nmax, level, ok):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\nparams.c_b = 0.3\nnmax = {nmax}\nlevels = {level}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "invariants"])
        assert (rc in (EXIT_OK, EXIT_NOCONV)) if ok else rc == EXIT_CONFIG

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
        # c_b^2 overflowed in the JC angles and Hamiltonian, 1/ell_B^2 in the kernel check
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\nnmax = 16\n{key} = {value}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == EXIT_CONFIG
        assert "invalid params" in capsys.readouterr().err

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
        cfg.write_text(f"model = quaternionic\nnmax = 12\ncheck = kernels\n{key} = {value}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == EXIT_CONFIG
        assert f"bad value for {key}" in capsys.readouterr().err


class TestSpectrum:
    def test_landau_rows(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\njmax = 5\nnmax = 16\n")
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

    def test_empty_level_table(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = landau\njmax = -1\nnmax = 10\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_CONFIG  # negative jmax is a config error
        cfg.write_text("model = landau\njmax = 0\nnmax = 10\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"])
        rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 2  # header + single level

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

    @pytest.mark.parametrize("model", ["landau", "jaynes_cummings"])
    @pytest.mark.parametrize("nmax", [0, 1])
    def test_unresolved_levels_fail(self, tmp_path, model, nmax):
        # no interior eigenvalue to match: NaN rows must not pass as exit 0
        rc = main(["--model", model, "--nmax", str(nmax), "--out", str(tmp_path), "spectrum"])
        assert rc == EXIT_ASSERT
        rows = read_csv(tmp_path / "spectrum.csv")
        assert any(r[3] == "nan" for r in rows[1:])

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
            assert "verify needs nmax >= 2" in capsys.readouterr().err
        rc = main(["--check", "symmetries", "--nmax", "2", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK

    def test_curvature_and_landau_invariants_build_no_dense_matrix(self, tmp_path, monkeypatch):
        # both run per n2 sector and must not fall back to dense OperatorMatrix algebra
        def refuse(*args, **kwargs):
            raise AssertionError("dense OperatorMatrix built")

        monkeypatch.setattr(fock.OperatorMatrix, "__init__", refuse)
        rc = main(["--check", "curvature", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_OK
        assert read_csv(tmp_path / "verify.csv")[1][3] == "pass"
        monkeypatch.setenv("LANDAU_LEVELS", "0,3")
        rc = main(["--model", "landau", "--nmax", "60", "--out", str(tmp_path), "invariants"])
        assert rc == EXIT_OK
        reports = json.loads((tmp_path / "invariants.json").read_text())
        assert all("curvature_identity" in r["identity_residuals"] for r in reports)

    def test_unknown_check_rejected(self, tmp_path):
        rc = main(["--check", "nonsense", "--out", str(tmp_path), "verify"])
        assert rc == EXIT_CONFIG

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "landautrace.cli", "--check", "kernels",
             "--out", str(tmp_path), "verify"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "kernels" in proc.stdout
