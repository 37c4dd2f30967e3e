"""CLI behavior: exit codes, JSON/CSV emission, sweeps, bisection, selftest."""

import json
import subprocess
import sys

import numpy as np
import pytest

from entwit.cli import _CLI_FAMILIES, SCAN_HEADER, SweepConfig, main, run_scan, scan_csv
from entwit.qstate import Dims, to_json, validate_density
from entwit.states import isotropic


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDetect:
    def test_isotropic_above_boundary(self, capsys):
        code, out, _ = run_cli(capsys, ["detect", "--family", "isotropic", "--d", "3", "--x", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["entangled"] is True
        assert set(doc) == {"entangled", "best_subspace", "nonlinear_max", "bell_max", "negativity"}

    def test_isotropic_below_boundary(self, capsys):
        code, out, _ = run_cli(capsys, ["detect", "--family", "isotropic", "--d", "3", "--x", "0.1"])
        assert code == 0
        assert json.loads(out)["entangled"] is False

    def test_product_state_file(self, capsys, tmp_path):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        path = tmp_path / "prod.json"
        path.write_text(to_json(validate_density(mat, Dims(2, 2))))
        code, out, _ = run_cli(capsys, ["detect", "--state", str(path)])
        assert code == 0
        assert json.loads(out)["entangled"] is False

    def test_json_file_output_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["detect", "--family", "isotropic", "--d", "3", "--x", "0.5", "--json", str(path)],
        )
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)


class TestBound:
    def test_max_entangled_qutrits(self, capsys):
        code, out, _ = run_cli(capsys, ["bound", "--family", "max_entangled", "--d", "3"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["bound"] - 1.0) < 1e-8
        assert doc["m"] == 3 and len(doc["subspaces"]) == 9

    def test_isotropic_boundary_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["bound", "--family", "isotropic", "--d", "3", "--x", "0.25"])
        assert code == 0
        assert abs(json.loads(out)["bound"]) < 1e-8

    def test_literal_min_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bound", "--family", "max_entangled", "--d", "3", "--literal-min"]
        )
        assert code == 0
        assert abs(json.loads(out)["bound"]) < 1e-8

    def test_csv_side_output(self, capsys, tmp_path):
        path = tmp_path / "subspaces.csv"
        code, _, _ = run_cli(
            capsys,
            ["bound", "--family", "isotropic", "--d", "3", "--x", "0.5", "--csv", str(path)],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("alpha_j,alpha_k") and len(lines) == 10


class TestExitCodes:
    def test_missing_state_selection(self, capsys):
        code, _, err = run_cli(capsys, ["detect"])
        assert code == 2 and "required" in err

    def test_both_state_and_family(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(to_json(isotropic(2, 0.0)))
        code, _, _ = run_cli(
            capsys, ["detect", "--state", str(path), "--family", "isotropic", "--d", "3", "--x", "0.1"]
        )
        assert code == 2

    def test_missing_family_param(self, capsys):
        code, _, err = run_cli(capsys, ["detect", "--family", "isotropic", "--d", "3"])
        assert code == 2 and "--x" in err

    def test_malformed_state_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["detect", "--state", str(path)])
        assert code == 3 and "error" in err

    def test_out_of_range_family_param(self, capsys):
        code, _, err = run_cli(capsys, ["detect", "--family", "isotropic", "--d", "3", "--x", "2.0"])
        assert code == 3 and "error" in err

    def test_non_finite_state_file(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        doc = json.loads(to_json(isotropic(2, 0.0)))
        doc["re"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["detect", "--state", str(path)])
        assert code == 3 and "NaN or infinite" in err and "Traceback" not in err

    def test_missing_state_file(self, capsys):
        code, _, _ = run_cli(capsys, ["detect", "--state", "/nonexistent/state.json"])
        assert code == 3

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["detect", "--family", "isotropic", "--d", "3", "--x", "0.5", "--bogus"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--family", "max_entangled", "--d", "200000000"],
            ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0:0.3",
             "--points", "100000000000000000"],
        ],
    )
    def test_impossible_allocation_exits_3(self, capsys, argv):
        # both arrays (6e17 and 8e17 bytes) exceed any 64-bit address space, so
        # the allocation fails at once whatever the overcommit setting
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and "error: Unable to allocate" in err and out == ""

    def test_nan_bisection_tolerance_exits_2(self, capsys):
        argv = ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0.1:0.4"]
        code, out, err = run_cli(capsys, argv + ["--points", "3", "--bisect", "--tol", "nan"])
        assert code == 2 and "bisect tolerance" in err and out == ""

    @pytest.mark.parametrize("flags", [["--restarts", "0"], ["--restarts", "-3"], ["--shots", "0"]])
    def test_selftest_takes_no_budget_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, ["selftest", *flags])
        assert code == 2 and "unrecognized arguments" in err and out == ""


class TestScan:
    def test_csv_shape_and_determinism(self, capsys):
        argv = [
            "scan", "--family", "isotropic", "--d", "3",
            "--scan-param", "x", "--range", "0.1:0.4", "--points", "7",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == SCAN_HEADER and len(lines) == 8
        params = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert params == sorted(params)

    def test_bisect_isotropic_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "scan", "--family", "isotropic", "--d", "3",
                "--scan-param", "x", "--range", "0.1:0.4", "--points", "7",
                "--bisect", "--tol", "1e-4",
            ],
        )
        assert code == 0
        doc = json.loads(out.strip().split("\n")[-1])
        assert doc["nonlinear"]["status"] == "ok"
        assert abs(doc["nonlinear"]["threshold"] - 0.25) < 1e-3

    def test_threshold_brackets_grid_crossing(self):
        cfg = SweepConfig(
            family="isotropic", fixed={"d": 3}, param_name="x",
            lo=0.1, hi=0.4, points=7, bisect=True, bisect_tol=1e-4,
        )
        result = run_scan(cfg)
        flags = [pt.nonlinear_d > 1e-8 for pt in result.points]
        first = flags.index(True)
        lo, hi = result.points[first - 1].param, result.points[first].param
        assert lo <= result.nonlinear.value <= hi

    def test_no_threshold_in_range(self, capsys):
        for rng_str in ("0.3:0.5", "0.0:0.2"):  # all-violating, none-violating
            code, out, _ = run_cli(
                capsys,
                [
                    "scan", "--family", "isotropic", "--d", "3",
                    "--scan-param", "x", "--range", rng_str, "--points", "5", "--bisect",
                ],
            )
            assert code == 0
            doc = json.loads(out.strip().split("\n")[-1])
            assert doc["nonlinear"]["threshold"] is None
            assert doc["nonlinear"]["status"] == "no threshold in range"

    def test_negative_range_start_needs_equals_form(self, capsys):
        argv = ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--points", "3"]
        code, out, _ = run_cli(capsys, argv + ["--range=-0.1:0.4"])
        assert code == 0
        assert [float(ln.split(",")[0]) for ln in out.splitlines()[1:]] == [-0.1, 0.15, 0.4]
        code, _, err = run_cli(capsys, argv + ["--range", "-0.1:0.4"])
        assert code == 2 and "expected one argument" in err

    def test_csv_file_side_output(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "scan", "--family", "isotropic", "--d", "3",
                "--scan-param", "x", "--range", "0.1:0.3", "--points", "3",
                "--csv", str(path),
            ],
        )
        assert code == 0
        assert path.read_text() == out
        assert "\r" not in out

    def test_bad_range_and_config(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0.4"],
        )
        assert code == 2
        with pytest.raises(ValueError):
            SweepConfig(family="isotropic", fixed={"d": 3}, param_name="x", lo=0.4, hi=0.1, points=5)
        with pytest.raises(ValueError):
            SweepConfig(family="isotropic", fixed={"d": 3}, param_name="x", lo=0.1, hi=0.4, points=1)
        with pytest.raises(ValueError):
            SweepConfig(
                family="isotropic", fixed={"d": 3, "x": 0.2}, param_name="x", lo=0.1, hi=0.4, points=5
            )

    def test_scan_requires_family(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--scan-param", "x", "--range", "0.1:0.4"])
        assert code == 2 and "--family" in err


class TestSelftest:
    def test_passes_and_is_deterministic(self, capsys):
        argv = ["selftest", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "FAIL" not in out1 and out1.count("PASS") == 4

    def test_literal_min_reports_divergence_without_failing(self, capsys):
        code, out, _ = run_cli(capsys, ["selftest", "--literal-min"])
        assert code == 0
        info = [ln for ln in out.splitlines() if ln.startswith("INFO") and "literal-min" in ln]
        assert len(info) == 1 and "divergence expected" in info[0]


# each CLI family: its required flags, and one of its parameters to scan
FAMILY_CASES = {
    "isotropic": (["--d", "3", "--x", "0.5"], ["--scan-param", "x", "--range", "0.1:0.4"]),
    "max_entangled": (["--d", "3"], ["--scan-param", "d", "--range", "2:4"]),
    "bennett_mix": (["--p", "0.3"], ["--scan-param", "p", "--range", "0:1"]),
    "rho_a_mix": (["--a", "0.236", "--p", "0.1"], ["--scan-param", "a", "--range", "0.2:0.8"]),
    "random_pure": (["--d", "3"], ["--scan-param", "d", "--range", "2:4"]),
    "random_density": (["--d", "3"], ["--scan-param", "d", "--range", "2:4"]),
}


class TestFamilies:
    def test_cases_cover_every_cli_family(self):
        assert set(FAMILY_CASES) == set(_CLI_FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_CASES))
    def test_detect_and_scan(self, capsys, family):
        flags, scan = FAMILY_CASES[family]
        code, out, err = run_cli(capsys, ["detect", "--family", family, *flags])
        assert code == 0, err
        assert set(json.loads(out)) >= {"entangled", "negativity"}
        code, out, err = run_cli(capsys, ["scan", "--family", family, *flags, *scan, "--points", "3"])
        assert code == 0, err
        assert out.splitlines()[0] == SCAN_HEADER and len(out.splitlines()) == 4

    @pytest.mark.parametrize(
        "command",
        [["detect"], ["bound"], ["scan", "--scan-param", "p", "--range", "0:1", "--points", "3"]],
    )
    def test_flag_the_family_does_not_take(self, capsys, command):
        code, out, err = run_cli(capsys, [*command, "--family", "bennett_mix", "--p", "0.3", "--x", "0.5"])
        assert code == 2 and "--x" in err and out == ""

    def test_family_flag_with_state_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(to_json(isotropic(2, 0.0)))
        code, out, err = run_cli(capsys, ["detect", "--state", str(path), "--d", "2"])
        assert code == 2 and "--d" in err and out == ""

    def test_sweep_config_checks_the_family_params(self):
        with pytest.raises(ValueError, match="--x"):
            SweepConfig(family="bennett_mix", fixed={"x": 0.5}, param_name="p", lo=0.0, hi=1.0, points=3)
        with pytest.raises(ValueError, match="--d"):
            SweepConfig(family="isotropic", fixed={}, param_name="x", lo=0.0, hi=1.0, points=3)

    def test_scan_value_outside_the_domain_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0:2", "--points", "3"],
        )
        assert code == 3 and "error" in err and out == ""

    def test_fractional_d_is_rejected_not_truncated(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["scan", "--family", "random_pure", "--d", "3", "--scan-param", "d", "--range", "2:4", "--points", "4"],
        )
        assert code == 3 and "d must be an integer" in err
        assert "2.666" not in out


class TestScanCsvApi:
    def test_round_trip_values(self):
        cfg = SweepConfig(family="isotropic", fixed={"d": 3}, param_name="x", lo=0.2, hi=0.3, points=3)
        result = run_scan(cfg)
        text = scan_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == SCAN_HEADER
        got = [float(v) for v in lines[-1].split(",")]
        pt = result.points[-1]
        want = [pt.param, pt.nonlinear_d, pt.bell_d, pt.bound, pt.negativity]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "entwit.cli", "detect", "--family", "isotropic", "--d", "3", "--x", "0.5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entangled"] is True


def test_cli_import_does_not_load_scipy():
    # start-up of detect, bound and scan stays free of the SciPy import
    proc = subprocess.run(
        [sys.executable, "-c", "import entwit.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
