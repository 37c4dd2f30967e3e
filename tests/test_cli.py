"""CLI behavior: exit codes, JSON/CSV emission, sweeps, bisection, selftest."""

import json
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from entwit import cli, cren, states
from entwit.cli import (
    _CHUNK,
    _CLI_FAMILIES,
    SCAN_HEADER,
    TAU_DETECT,
    SweepConfig,
    Threshold,
    _grid_values,
    _point_spec,
    _probe_differences,
    _scan_chunks,
    _scan_points,
    _thresholds,
    main,
    run_scan,
    scan_csv,
)
from entwit.cren import cren_lower_bound
from entwit.qstate import Dims, to_json, validate_densities, validate_density
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

    @pytest.mark.parametrize("dims, re", [([2.9, 2], None), ([2, 2], [[0.25, 0.0, 0.0, 0.0], [0.25]])])
    def test_malformed_state_document(self, capsys, tmp_path, dims, re):
        # a non-integral dims entry and a ragged matrix are malformed documents, never a truncation or a traceback
        doc = json.loads(to_json(isotropic(2, 0.0)))
        doc["dims"], doc["re"] = dims, re or doc["re"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["bound", "--state", str(path)])
        assert code == 3 and out == ""
        assert "malformed state document" in err and "Traceback" not in err

    def test_out_of_range_family_param(self, capsys):
        code, _, err = run_cli(capsys, ["detect", "--family", "isotropic", "--d", "3", "--x", "2.0"])
        assert code == 3 and "error" in err

    def test_nan_family_param_is_named(self, capsys):
        # NaN fails every comparison: the domain check must still reject it, naming the value
        code, out, err = run_cli(capsys, ["detect", "--family", "isotropic", "--d", "3", "--x", "nan"])
        assert code == 3 and out == "" and "x=nan outside positivity range" in err

    def test_non_positive_state_file_names_its_eigenvalue(self, capsys, tmp_path):
        path = tmp_path / "npsd.json"
        doc = json.loads(to_json(isotropic(2, 0.0)))
        doc["re"] = np.diag([1.5, -0.5, 0.0, 0.0]).tolist()
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["bound", "--state", str(path)])
        assert code == 3 and out == "" and "minimum eigenvalue -5.000e-01 below -1e-09" in err

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
            # the scan streams its grid, so the impossible allocation is the state at a grid point
            ["scan", "--family", "max_entangled", "--scan-param", "d", "--range", "200000000:200000001",
             "--points", "2"],
        ],
    )
    def test_impossible_allocation_exits_3(self, capsys, argv):
        # both state vectors (6e17 bytes) exceed any 64-bit address space, so
        # the allocation fails at once whatever the overcommit setting
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and "error: Unable to allocate" in err and out == ""

    def test_bisect_over_an_integer_parameter_exits_2_before_any_state(self, capsys, monkeypatch):
        # the probes' midpoints (2.5 first) are no integers; the scan used to print its grid, then exit 3
        argv = ["scan", "--family", "isotropic", "--x", "0.3", "--scan-param", "d", "--range", "2:5", "--points", "4"]

        def forbidden(*args, **kw):
            raise AssertionError("a state was built")

        with monkeypatch.context() as patch:
            patch.setattr(states.StateSpec, "matrix", forbidden)
            patch.setattr(states.StateSpec, "build", forbidden)
            code, out, err = run_cli(capsys, argv + ["--bisect"])
        assert code == 2 and out == "" and "d is an integer" in err
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and len(out.splitlines()) == 5
        with pytest.raises(ValueError, match="integer"):
            SweepConfig(family="random_density", fixed={}, param_name="d", lo=2, hi=4, points=3, bisect=True)

    def test_nan_bisection_tolerance_exits_2(self, capsys):
        argv = ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0.1:0.4"]
        code, out, err = run_cli(capsys, argv + ["--points", "3", "--bisect", "--tol", "nan"])
        assert code == 2 and "bisect tolerance" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest"],
            ["detect", "--family", "random_density", "--d", "3"],
            ["bound", "--family", "random_density", "--d", "3"],
            ["scan", "--family", "random_pure", "--scan-param", "d", "--range", "2:4", "--points", "3"],
        ],
    )
    def test_negative_seed_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + ["--seed", "-1"])
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 2 and out == "" and "Traceback" not in err
        assert errors == [f"entwit {argv[0]}: error: argument --seed: expected a non-negative integer, got '-1'"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bound", "--family", "max_entangled", "--d", "3"], "--csv"),
            (["detect", "--family", "isotropic", "--d", "3", "--x", "0.5"], "--json"),
            (["scan", "--family", "bennett_mix", "--scan-param", "p", "--range", "0:1", "--points", "5"], "--csv"),
        ],
    )
    def test_unwritable_output_path_exits_2(self, tmp_path, argv, flag):
        path = tmp_path / "missing" / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "entwit.cli", *argv, flag, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {path}: ") and proc.stderr.count("\n") == 1

    def test_output_path_is_checked_before_the_state_is_built(self, capsys, tmp_path):
        # x = 5 is outside the isotropic domain (exit 3), but the path fails first
        argv = ["bound", "--family", "isotropic", "--d", "3", "--x", "5", "--json", str(tmp_path / "missing" / "b.json")]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error: cannot write")

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

    @pytest.mark.parametrize("rng_arg", ["--range=0:inf", "--range=-inf:0.5", "--range=-1e308:1e308"])
    def test_infinite_or_overflowing_range_exits_2(self, capsys, rng_arg):
        argv = ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", rng_arg, "--points", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning on the way would raise here
            code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "finite" in err and "Warning" not in err and "Traceback" not in err

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


def point_by_point(cfg, values, seeds):
    """The scan figures of each value from its own cren_lower_bound and report rows."""
    out = []
    for value, seed in zip(values, seeds):
        rep = cren_lower_bound(_point_spec(cfg, value, seed).build())
        d_nl = max(r.nonlinear_max for r in rep.reports) - 1.0
        d_bell = max(r.bell_max / r.c if r.bell_max else 0.0 for r in rep.reports) - 2.0
        out.append((value, d_nl, d_bell, rep.bound, rep.negativity))
    return out


class TestChunkedScan:
    @pytest.mark.parametrize(
        "lo, hi, points",
        [(0.0, 1.0, 100), (0.1, 0.4, 64), (0.1, 0.4, 65), (-0.3, 0.7, 129), (1e-3, 2.5, 200), (0.0, 1e-320, 3)],
    )
    def test_grid_values_are_linspace(self, lo, hi, points):
        cfg = SweepConfig(family="isotropic", fixed={"d": 3}, param_name="x", lo=lo, hi=hi, points=points)
        got = [v for i0 in range(0, points, _CHUNK) for v in _grid_values(cfg, i0, min(i0 + _CHUNK, points))]
        assert np.array_equal(got, np.linspace(lo, hi, points))

    @pytest.mark.parametrize(
        "family, fixed, param, lo, hi, points",
        [
            ("isotropic", {"d": 3}, "x", -0.1, 1.0, 70),
            ("rho_a_mix", {"a": 0.3}, "p", 0.0, 1.0, 9),
            ("random_density", {}, "d", 2.0, 5.0, 4),
            ("random_pure", {}, "d", 2.0, 4.0, 3),
        ],
    )
    def test_run_scan_equals_point_by_point_evaluation(self, family, fixed, param, lo, hi, points):
        cfg = SweepConfig(family=family, fixed=fixed, param_name=param, lo=lo, hi=hi, points=points)
        result = run_scan(cfg, base_seed=11)
        grid = np.linspace(lo, hi, points).tolist()
        want = point_by_point(cfg, grid, range(11, 11 + points))
        assert [pt.param for pt in result.points] == grid
        assert np.max(np.abs(np.subtract(result.points, want))) <= 1e-12

    def test_a_smaller_block_budget_splits_stacks_and_keeps_the_scan(self, monkeypatch):
        # a budget of 20 blocks stacks 3x3 states (9 blocks each) two at a time, larger ones one at a time
        cfgs = {
            "readme": SweepConfig(bisect=True, **README_SCAN),
            "random_density_d": SweepConfig(family="random_density", fixed={}, param_name="d", lo=2, hi=5, points=4),
        }
        whole = {name: run_scan(cfg, base_seed=5) for name, cfg in cfgs.items()}
        sizes = []

        def spy(mats, dims):
            sizes.append(len(mats))
            return validate_densities(mats, dims)

        monkeypatch.setattr(cli, "_STACK_BLOCKS", 20)
        monkeypatch.setattr(cli, "validate_densities", spy)
        seen = {}
        for name, cfg in cfgs.items():
            sizes.clear()
            assert run_scan(cfg, base_seed=5) == whole[name]
            seen[name] = list(sizes)
        # the README scan: 100 grid points in chunks of 64 and 36, then 14 bisection probes of 2
        assert seen == {"readme": [2] * (32 + 18 + 14), "random_density_d": [1] * 4}

    def test_chunks_keep_only_the_first_crossings(self):
        cfg = SweepConfig(
            family="isotropic", fixed={"d": 3}, param_name="x",
            lo=0.0, hi=0.587, points=150, bisect=True, bisect_tol=1e-6,
        )
        crossings = {}
        chunks = list(_scan_chunks(cfg, 3, crossings))
        result = run_scan(cfg, base_seed=3)
        assert [len(chunk) for chunk in chunks] == [_CHUNK, _CHUNK, 150 - 2 * _CHUNK]
        assert [pt for chunk in chunks for pt in chunk] == result.points
        # the nonlinear onset x = 1/4 falls between the last point of chunk 0 and the first of chunk 1
        pts = result.points
        assert crossings["nonlinear_d"] == (pts[_CHUNK - 1].param, pts[_CHUNK].param)
        assert crossings["nonlinear_d"][0] <= result.nonlinear.value <= crossings["nonlinear_d"][1]
        assert abs(result.nonlinear.value - 0.25) < 1e-5
        # the Bell onset lies beyond the range
        assert "bell_d" not in crossings and result.bell.status == "no threshold in range"

    def test_build_error_exits_3_after_the_completed_chunks(self, capsys, tmp_path):
        # x runs 0..2 over 200 points: the first chunk stays below x = 1, the second crosses it
        csv_path = tmp_path / "scan.csv"
        argv = ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0:2",
                "--points", "200", "--csv", str(csv_path)]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and "outside positivity range" in err
        lines = out.splitlines()
        assert lines[0] == SCAN_HEADER and len(lines) == 1 + _CHUNK
        assert csv_path.read_text() == out

    def test_the_first_failing_value_speaks_also_when_a_later_one_fails_to_build(self, capsys, monkeypatch, tmp_path):
        # d = 2 reads a matrix of NaN, which validation rejects; d = 2.5 fails its own build later
        path = tmp_path / "nan.json"
        doc = json.loads(to_json(isotropic(2, 0.0)))
        doc["re"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        point_spec = cli._point_spec
        monkeypatch.setattr(
            cli, "_point_spec",
            lambda cfg, value, seed: states.StateSpec(states.FILE_FAMILY, {"path": str(path)}) if value == 2.0
            else point_spec(cfg, value, seed),
        )
        argv = ["scan", "--family", "isotropic", "--x", "0.5", "--scan-param", "d", "--range", "2:4", "--points", "5"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and "NaN or infinite" in err and out == ""

    def test_huge_grid_streams_its_first_rows(self):
        argv = [sys.executable, "-m", "entwit.cli", "scan", "--family", "isotropic", "--d", "3",
                "--scan-param", "x", "--range", "0:0.3", "--points", "1000000000"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        timer = threading.Timer(10.0, proc.kill)  # a scan that prints nothing in time reads as EOF
        timer.start()
        try:
            header, first = proc.stdout.readline(), proc.stdout.readline()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert header == SCAN_HEADER + "\n"
        assert first.startswith("0,") and first.endswith("\n")

    def test_closed_pipe_ends_the_scan_quietly(self, tmp_path):
        # as `entwit scan ... | head -2`: the reader leaves after two lines
        csv_path = tmp_path / "scan.csv"
        argv = [sys.executable, "-m", "entwit.cli", "scan", "--family", "isotropic", "--d", "3",
                "--scan-param", "x", "--range", "0:0.3", "--points", "100000", "--csv", str(csv_path)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            head = [proc.stdout.readline(), proc.stdout.readline()]
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0 and err == ""
        assert head[0] == SCAN_HEADER + "\n" and head[1].startswith("0,")
        # the chunks written before the pipe closed stay in the file, whole
        text = csv_path.read_text()
        lines = text.splitlines()
        assert text.startswith("".join(head)) and text.endswith("\n")
        assert len(lines) > 1 and (len(lines) - 1) % _CHUNK == 0


def serial_bisect_threshold(cfg, base_seed, crossing, field):
    """Oracle: the serial bisection of one onset that the lockstep loop replaced,
    one probe state per _probe_differences call (looked up on the module, so a spy sees it)."""
    if crossing is None or crossing[0] is None:
        # nothing violates, or everything does: no crossing inside the range
        return Threshold(None, "no threshold in range")
    lo, hi = crossing
    # probe seeds continue past the grid indices so bisection stays
    # deterministic for random families too
    seed = base_seed + cfg.points
    while hi - lo > cfg.bisect_tol:
        mid = 0.5 * (lo + hi)
        if cli._probe_differences(cfg, [field], [mid], seed)[0] > TAU_DETECT:
            hi = mid
        else:
            lo = mid
        seed += 1
    return Threshold(0.5 * (lo + hi), "ok")


def serial_thresholds(cfg, base_seed, crossings):
    return tuple(serial_bisect_threshold(cfg, base_seed, crossings.get(f), f) for f in ("nonlinear_d", "bell_d"))


def grid_crossings(cfg, base_seed):
    crossings = {}
    for _ in _scan_chunks(cfg, base_seed, crossings):
        pass
    return crossings


def exact(thresholds):
    """Thresholds as (repr of the value, status): equal only if bitwise equal."""
    return [(repr(t.value), t.status) for t in thresholds]


def stack_sizes(monkeypatch, limit=1000):
    """The number of probe states of each _probe_differences call from here on;
    more than `limit` calls fail the test rather than run on."""
    sizes = []

    def spy(cfg, fields, values, seed):
        sizes.append(len(values))
        assert len(sizes) <= limit, "the bisection does not end"
        return _probe_differences(cfg, fields, values, seed)

    monkeypatch.setattr(cli, "_probe_differences", spy)
    return sizes


README_SCAN = dict(family="bennett_mix", fixed={}, param_name="p", lo=0.0, hi=1.0, points=100, bisect_tol=1e-6)


class TestLockstepBisection:
    SCANS = {
        "readme_bennett_mix": README_SCAN,  # both onsets
        "rho_a_mix_over_p": dict(
            family="rho_a_mix", fixed={"a": 0.5}, param_name="p", lo=0.0, hi=1.0, points=20, bisect_tol=1e-9
        ),
        "rho_a_mix_over_a": dict(  # both onsets at the first grid point: no bracket
            family="rho_a_mix", fixed={"p": 0.3}, param_name="a", lo=0.05, hi=0.95, points=20, bisect_tol=1e-9
        ),
        "isotropic_d4": dict(family="isotropic", fixed={"d": 4}, param_name="x", lo=0.0, hi=1.0, points=150),
        "isotropic_d3_nonlinear_only": dict(
            family="isotropic", fixed={"d": 3}, param_name="x", lo=0.0, hi=0.5, points=5, bisect_tol=1e-12
        ),
        "isotropic_d3_7_points": dict(
            family="isotropic", fixed={"d": 3}, param_name="x", lo=0.1, hi=0.4, points=7, bisect_tol=1e-4
        ),
    }

    @pytest.mark.parametrize("name", SCANS)
    def test_thresholds_and_probes_are_the_serial_bisections(self, monkeypatch, name):
        cfg = SweepConfig(bisect=True, **self.SCANS[name])
        crossings = grid_crossings(cfg, 7)
        probes = []

        def spy(cfg, value, seed):
            probes.append((value, seed))
            return _point_spec(cfg, value, seed)

        monkeypatch.setattr(cli, "_point_spec", spy)
        lockstep = _thresholds(cfg, 7, crossings)
        lockstep_probes, probes[:] = sorted(probes), []
        serial = serial_thresholds(cfg, 7, crossings)
        assert exact(lockstep) == exact(serial)
        assert lockstep_probes == sorted(probes)
        result = run_scan(cfg, base_seed=7)
        assert exact((result.nonlinear, result.bell)) == exact(lockstep)

    def test_scans_cover_two_one_and_no_brackets(self):
        cases = set()
        for spec in self.SCANS.values():
            crossings = grid_crossings(SweepConfig(bisect=True, **spec), 0)
            cases.add(sum(1 for lo, _ in crossings.values() if lo is not None))
            cases.add("first point" if any(lo is None for lo, _ in crossings.values()) else "inside")
        assert cases == {0, 1, 2, "first point", "inside"}

    def test_a_narrower_bracket_drops_out_of_later_rounds(self, monkeypatch):
        cfg = SweepConfig(bisect=True, **self.SCANS["isotropic_d3_7_points"])
        crossings = {"nonlinear_d": (0.2, 0.3), "bell_d": (0.3, 0.9)}  # 10 steps and 13 steps
        sizes = stack_sizes(monkeypatch)
        lockstep = _thresholds(cfg, 0, crossings)
        assert sizes == [2] * 10 + [1] * 3
        assert exact(lockstep) == exact(serial_thresholds(cfg, 0, crossings))

    def test_a_tolerance_below_the_float_spacing_ends(self, monkeypatch):
        # once lo and hi are adjacent floats their midpoint rounds to one of them
        # and the bracket cannot narrow; the serial bisection looped forever here
        spec = self.SCANS["isotropic_d3_7_points"]
        cfg = SweepConfig(bisect=True, **{**spec, "bisect_tol": 1e-300})
        crossings = grid_crossings(cfg, 0)
        coarse = _thresholds(SweepConfig(bisect=True, **{**spec, "bisect_tol": 1e-12}), 0, crossings)[0]
        sizes = stack_sizes(monkeypatch, limit=64)
        nonlinear, bell = _thresholds(cfg, 0, crossings)
        lo, hi = crossings["nonlinear_d"]
        assert nonlinear.status == "ok" and lo < nonlinear.value < hi
        assert bell.status == "no threshold in range" and len(sizes) > 36  # tol 1e-12 stops at 36 rounds
        assert abs(nonlinear.value - coarse.value) <= 1e-12

    def test_readme_scan_makes_14_stacked_calls_in_place_of_28(self, monkeypatch):
        cfg = SweepConfig(bisect=True, **README_SCAN)
        crossings = grid_crossings(cfg, 0)
        sizes = stack_sizes(monkeypatch)
        _thresholds(cfg, 0, crossings)
        assert sizes == [2] * 14
        sizes.clear()
        serial_thresholds(cfg, 0, crossings)
        assert sizes == [1] * 28

    @pytest.mark.parametrize(
        "spec, crossings, solves, grams",
        [
            (README_SCAN, None, 14, 14),
            (SCANS["isotropic_d3_7_points"], {"nonlinear_d": (0.2, 0.3), "bell_d": (0.3, 0.9)}, 10, 13),
        ],
        ids=["readme", "narrower_bracket"],
    )
    def test_each_probe_solves_only_its_own_witness(self, monkeypatch, spec, crossings, solves, grams):
        # a nonlinear probe eigensolves its 9 partial transposes, a Bell probe the 9 Gram matrices
        # of their correlation tables; no SVD, no bound, no negativity
        cfg = SweepConfig(bisect=True, **spec)
        crossings = crossings or grid_crossings(cfg, 0)
        calls = {"eigvalsh": [], "svd": []}

        def spy(real, shapes):
            return lambda a, *args, **kw: shapes.append(np.shape(a)) or real(a, *args, **kw)

        for name, shapes in calls.items():
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name), shapes))

        def forbidden(*args, **kw):
            raise AssertionError("a bisection probe computed a bound or a negativity")

        monkeypatch.setattr(cren, "_negativities", forbidden)
        monkeypatch.setattr(cren, "_bound", forbidden)
        _thresholds(cfg, 0, crossings)
        assert sorted(calls["eigvalsh"]) == [(1, 9, 3, 3)] * grams + [(1, 9, 4, 4)] * solves
        assert calls["svd"] == []

    @pytest.mark.parametrize(
        "family, fixed, param, values",
        [
            ("bennett_mix", {}, "p", [0.1822, 0.5760, 0.0, 1.0]),
            ("rho_a_mix", {"a": 0.5}, "p", [0.3, 0.05, 0.9]),
            ("isotropic", {"d": 4}, "x", [0.2, 0.21, -0.05]),
            ("random_density", {}, "d", [2.0, 3.0, 3.0, 5.0]),
        ],
    )
    def test_probe_differences_are_the_scan_rows_fields(self, family, fixed, param, values):
        cfg = SweepConfig(family=family, fixed=fixed, param_name=param, lo=0.0, hi=10.0, points=3)
        for fields in (["nonlinear_d"] * len(values), ["bell_d"] * len(values), ["nonlinear_d", "bell_d"] * 2):
            fields = fields[: len(values)]
            want = [getattr(pt, f) for pt, f in zip(_scan_points(cfg, values, [5] * len(values)), fields)]
            assert _probe_differences(cfg, fields, values, 5) == want


    def test_readme_scan_validates_16_stacks_in_place_of_128_states(self, monkeypatch):
        cfg = SweepConfig(bisect=True, **README_SCAN)
        run_scan(cfg)  # the family's two constant states are validated once, here
        stacks, singles = [], []
        validate = cli.validate_densities
        monkeypatch.setattr(
            cli, "validate_densities", lambda mats, dims: stacks.append(len(mats)) or validate(mats, dims)
        )
        monkeypatch.setattr(states, "validate_density", lambda *args: singles.append(args))
        run_scan(cfg)
        assert stacks == [_CHUNK, 100 - _CHUNK] + [2] * 14 and sum(stacks) == 128
        assert singles == []


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
