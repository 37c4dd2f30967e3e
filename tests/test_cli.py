"""CLI behavior: exit codes, JSON/CSV emission, sweeps, bisection, selftest."""

import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwit import cli, cren, qstate, scan, states
from entwit.cli import _CLI_FAMILIES, main
from entwit.scan import (
    _CHUNK,
    SCAN_HEADER,
    SweepConfig,
    Threshold,
    _grid_values,
    _point_spec,
    _probe_differences,
    _scan_chunks,
    _scan_points,
    _thresholds,
    run_scan,
    scan_csv,
)
from entwit.cren import _bound, cren_lower_bound
from entwit.qstate import Dims, _checked, _negativities, to_json, validate_density
from entwit.states import isotropic, pure_from_schmidt
from entwit.witness import TAU_DETECT, _bell_d, _nonlinear_d, _reports, detect_entanglement


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class FullDevice:
    """A file on a full device: every write and flush raises ENOSPC; fileno is fd."""

    def __init__(self, fd=-1):
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        self.write("")

    def fileno(self):
        return self.fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


FULL_DEVICE_ERROR = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


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


    @pytest.mark.parametrize("d", [3, 8, 12, 16])
    def test_stdout_is_the_one_bound_document(self, capsys, tmp_path, d):
        # the document is built once: stdout is the compact report_to_json read back and indented,
        # byte for byte, and the --json file holds the same bytes
        path = tmp_path / "bound.json"
        code, out, _ = run_cli(capsys, ["bound", "--family", "random_density", "--d", str(d), "--json", str(path)])
        rep = cren_lower_bound(states.StateSpec("random_density", {"d": d, "rank": d * d, "seed": 0}).build())
        assert code == 0 and out == json.dumps(json.loads(cren.report_to_json(rep)), indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == out


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

    @pytest.mark.parametrize(
        "dims, re, im",
        [
            ([2.9, 2], None, None),
            ([2, 2], [[0.25, 0.0, 0.0, 0.0], [0.25]], None),
            ([2, 2], 0.25, None),
            ([2, 2], None, 0),
            ([2, 2], None, [[0.0, 0.0, 0.0, 0.0]]),
            ([2, 2], np.diag([10**400, 0, 0, 0]).tolist(), None),
            ([2, 2], [[str(v) for v in row] for row in np.eye(4) / 4], None),
            ([2, 2], None, [[False] * 4] * 4),
            ([2, 2], None, [[0.0] * 4] * 3 + [[0.0, 0.0, 0.0, None]]),
        ],
        ids=["dims0-None", "dims1-re1", "scalar-re", "scalar-im", "one-row-im", "int-past-the-float-range",
             "quoted-re", "boolean-im", "null-im-entry"],
    )
    def test_malformed_state_document(self, capsys, tmp_path, dims, re, im):
        # a non-integral dims entry, a ragged matrix, re and im of two shapes and an entry that is
        # not a JSON number are malformed documents, never a truncation, a conversion, a broadcast
        # or a traceback
        doc = json.loads(to_json(isotropic(2, 0.0)))
        doc["dims"] = dims
        doc["re"] = doc["re"] if re is None else re
        doc["im"] = doc["im"] if im is None else im
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["bound", "--state", str(path)])
        assert code == 3 and out == ""
        assert "malformed state document" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["detect", "bound"])
    def test_state_document_nested_past_the_decoder_stack(self, capsys, tmp_path, command):
        # json.loads raises RecursionError on it, which is a malformed document, not a traceback (exit 1)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, [command, "--state", str(path)])
        assert code == 3 and out == ""
        assert err.startswith("error: malformed state document: ") and err.count("\n") == 1

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

    def test_huge_finite_state_file_fails_its_trace_without_a_warning(self, capsys, tmp_path):
        # 1e308 + 1e308 overflows float64: validation must still name the trace, warning-free
        path = tmp_path / "huge.json"
        doc = json.loads(to_json(isotropic(2, 0.0)))
        doc["re"] = np.diag([1e308, 1e308, 0.0, 0.0]).tolist()
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, ["bound", "--state", str(path)])
        assert caught == []
        assert code == 3 and out == "" and "trace deviates from 1 by inf" in err and "Traceback" not in err

    @pytest.mark.parametrize("part, value", [("re", math.nan), ("im", math.inf)])
    def test_non_finite_state_file(self, capsys, tmp_path, part, value):
        # an infinite im entry used to take a NaN real part, with a RuntimeWarning, on its way to this error
        path = tmp_path / "nan.json"
        doc = json.loads(to_json(isotropic(2, 0.0)))
        doc[part][0][0] = value
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
        # both state vectors (3.2e17 bytes) exceed any 64-bit address space, so
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

    @pytest.mark.parametrize(
        "argv, kept",
        [
            (["bound", "--family", "max_entangled", "--d", "3", "--csv", "full.csv"], '{\n  "bound": '),
            (["detect", "--family", "isotropic", "--d", "3", "--x", "0.5", "--json", "full.json"], '{\n  "entangled": true'),
            (["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0:1", "--points", "5",
              "--csv", "full.csv"], SCAN_HEADER + "\n0,"),
        ],
        ids=["bound-csv", "detect-json", "scan-csv"],
    )
    def test_output_file_on_a_full_device_exits_2(self, capsys, monkeypatch, argv, kept):
        # the --csv or --json file opens but its write fails: one line and exit 2, and what
        # stdout already holds is kept
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDevice(), raising=False)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and err == FULL_DEVICE_ERROR
        assert out.startswith(kept)

    def test_stdout_on_a_full_device_exits_2(self, capsys, monkeypatch, tmp_path):
        # stdout fails on write and on flush, so it is pointed at devnull (here the
        # descriptor of a scratch file) and the command ends with one line and exit 2
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", FullDevice(fd))
            code = main(["detect", "--family", "isotropic", "--d", "3", "--x", "0.5"])
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == 2 and capsys.readouterr().err == FULL_DEVICE_ERROR

    @pytest.mark.parametrize("flags", [["--restarts", "0"], ["--restarts", "-3"], ["--shots", "0"]])
    def test_selftest_takes_no_budget_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, ["selftest", *flags])
        assert code == 2 and "unrecognized arguments" in err and out == ""


def reads(check):
    return lambda out, err, tmp: check(json.loads(out))


def says(message):
    return lambda out, err, tmp: out == "" and err.startswith("error: ") and err.count("\n") == 1 and message in err


def state_doc(re):
    """A 2 x 2 state document with the real part re and no imaginary part."""
    return json.dumps({"dims": [2, 2], "re": re, "im": np.zeros((4, 4)).tolist()})


# argv, the text of {tmp}/state.json (None: no file), the exit code and a check of (stdout, stderr, tmp)
COMMANDS = {
    "pplus-4": (["bound", "--family", "max_entangled", "--d", "4"], None, 0,
                reads(lambda doc: abs(doc["bound"] - 1) < 1e-8)),
    "pplus-16": (["bound", "--family", "max_entangled", "--d", "16"], None, 0,
                 reads(lambda doc: abs(doc["bound"] - 1) < 1e-8)),
    "isotropic-16": (["bound", "--family", "isotropic", "--d", "16", "--x", "0.5"], None, 0,
                     reads(lambda doc: abs(doc["negativity"] - 0.46875) < 1e-12)),
    "schmidt-12-state-file": (
        ["bound", "--state", "{tmp}/state.json"],
        to_json(pure_from_schmidt(np.random.default_rng(12).dirichlet(np.ones(12)), 12).projector()), 0,
        reads(lambda doc: abs(doc["bound"] - doc["negativity"]) < 1e-8 and doc["negativity"] > 0.5)),
    # every correlation table of the maximally mixed state is 0
    "maximally-mixed": (["detect", "--family", "isotropic", "--d", "3", "--x", "0"], None, 0,
                        reads(lambda doc: doc["entangled"] is False and doc["nonlinear_max"] == doc["bell_max"] == 0)),
    "random-density-12": (["detect", "--family", "random_density", "--d", "12"], None, 0,
                          reads(lambda doc: "entangled" in doc)),
    "not-hermitian": (["bound", "--state", "{tmp}/state.json"],
                      state_doc([[0.5, 0.1, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]), 3,
                      says("Hermiticity deviation 1.000e-01 exceeds 1e-10")),
    "bad-trace": (["bound", "--state", "{tmp}/state.json"], state_doc(np.diag([0.5, 0.5, 0.5, 0]).tolist()), 3,
                  says("trace deviates from 1 by 5.000e-01")),
    # the shape overflows before any allocation
    "huge-d": (["detect", "--family", "max_entangled", "--d", "99999999999999999999"], None, 3,
               says("Maximum allowed dimension exceeded")),
    # d * d - 1 past the float range: the isotropic domain check divides it as an exact integer
    "huge-d-isotropic": (["detect", "--family", "isotropic", "--d", "1" + "0" * 400, "--x", "0.5"], None, 3,
                         says("Maximum allowed dimension exceeded")),
    # d and its rank d^2 stay exact integers, so the rank is in range and the shape overflows
    "huge-d-random-density": (["detect", "--family", "random_density", "--d", "99999999999999999999"], None, 3,
                              says("Maximum allowed dimension exceeded")),
    # validated state by state; the --csv file is stdout without its threshold line
    "rho-a-mix-over-a": (
        ["scan", "--family", "rho_a_mix", "--p", "0.3", "--scan-param", "a", "--range", "0.05:0.95",
         "--points", "100", "--bisect", "--csv", "{tmp}/a.csv"], None, 0,
        lambda out, err, tmp: out[: out.rindex("\n", 0, -1) + 1] == (tmp / "a.csv").read_text()),
}


@pytest.mark.parametrize("argv, state, code, check", COMMANDS.values(), ids=COMMANDS)
def test_command(capsys, tmp_path, argv, state, code, check):
    if state is not None:
        (tmp_path / "state.json").write_text(state)
    got, out, err = run_cli(capsys, [arg.format(tmp=tmp_path) for arg in argv])
    assert got == code and check(out, err, tmp_path), err


# the valid documents that state_texts mutates
VALID_DOCS = [json.loads(to_json(rho)) for rho in (isotropic(2, 0.3), states.random_density(Dims(2, 3), 6, seed=0))]
JSON_VALUES = st.sampled_from([None, True, "0.5", [], {}, 0, -1, 0.5, 10**400, [[0.5]], {"re": 0}])


@st.composite
def state_texts(draw):
    """A valid state document, or one after one to three mutations: truncation,
    type swaps, extra nesting, NaN/Infinity entries, an entry quoted (or 0 and 1
    written as booleans), wrong or fractional dims."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(["entry", "non-finite", "truncate", "swap", "nest", "dims", "drop"] * 2
                                        + ["entry", "non-finite", "quote", "quote"]))
        entry = mutation in ("entry", "non-finite", "quote")
        key = draw(st.sampled_from(["re", "im"] if entry else ["dims", "re", "im"]))
        if not (isinstance(doc, dict) and isinstance(doc.get(key), list) and doc[key]):
            doc = draw(JSON_VALUES) if mutation == "swap" else doc
        elif mutation == "truncate":
            text = json.dumps(doc)
            return text[: draw(st.integers(0, len(text) - 1))]
        elif mutation == "swap":
            doc[key] = draw(JSON_VALUES)
        elif entry:
            row = doc[key][draw(st.integers(0, len(doc[key]) - 1))]
            if isinstance(row, list) and row:
                k = draw(st.integers(0, len(row) - 1))
                if mutation == "quote":  # the same matrix, were the entry read as a number
                    row[k] = draw(st.sampled_from([str(row[k])] + [bool(row[k])] * (row[k] in (0, 1))))
                else:
                    row[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]) if mutation == "non-finite"
                                  else JSON_VALUES)
        elif mutation == "nest":
            doc[key] = [doc[key]] if draw(st.booleans()) else [[entry] for entry in doc[key]]
        elif mutation == "dims":
            doc["dims"] = draw(st.sampled_from([[2.5, 2], [3, 3], [2, 3], [3, 2], [0, 4], [-2, -2], [True, 2],
                                                [1e300, 2], [2], [2, 2, 2], "2x2", [2.0, 2.0]]))
        else:
            del doc[key]
    return json.dumps(doc)


# values of --x, --p, --a and a --range end: most inside the families' domains
NUMBER_TEXTS = st.sampled_from(["0", "0.1", "0.25", "0.3", "0.5", "0.7", "1", "-1", "1.5", "2.5", "nan", "inf", "abc"])
FLAG_VALUES = {"d": st.integers(2, 5).map(str), "x": NUMBER_TEXTS, "p": NUMBER_TEXTS, "a": NUMBER_TEXTS}


@st.composite
def cli_argvs(draw, tmp):
    """A command with a family's flags or a state file, and now and then a flag
    too many or too few; --d and a swept d stay within 2..5, so no state takes
    more than a few MB."""
    command = draw(st.sampled_from(["detect", "bound", "scan"] * 3 + ["selftest"]))  # selftest takes 20-40 ms
    argv = [command]

    def rarely():
        return draw(st.sampled_from([False] * 7 + [True]))

    def maybe(flag, values=None):
        if draw(st.booleans()):
            argv.extend([flag] if values is None else [flag, draw(values)])

    if command == "selftest":
        maybe("--seed", st.sampled_from(["0", "7", "-1", "x"]))
        maybe("--literal-min")
        return argv
    family = draw(st.sampled_from(_CLI_FAMILIES))
    source = draw(st.sampled_from(["family"] * 4 + ["state", "both", "none"]))
    if source != "state":
        argv += ["--family", family]
    if source in ("state", "both"):
        argv += ["--state", f"{tmp}/state.json"]
    names = [] if source == "state" else [name for name in states._FAMILIES[family][0] if name in FLAG_VALUES]
    if rarely():
        names = names[1:]
    if rarely():
        names.append(draw(st.sampled_from(sorted(FLAG_VALUES))))
    for name in names:
        argv += [f"--{name}", draw(FLAG_VALUES[name])]
    maybe("--seed", st.sampled_from(["0", "3", "3", "3", "-1"]))
    outputs = st.sampled_from([f"{tmp}/out", f"{tmp}/out", f"{tmp}/missing/out"])
    if command == "scan":
        param = draw(st.sampled_from(names or sorted(FLAG_VALUES)))
        argv += ["--scan-param", param] if not rarely() else []
        ends = draw(st.lists(FLAG_VALUES["d"] if param == "d" else NUMBER_TEXTS, min_size=2, max_size=2, unique=True))
        if not rarely():  # most ranges run upwards
            ends.sort(key=lambda end: float(end) if end != "abc" else 0.0)
        argv += [f"--range={ends[0]}:{ends[1]}"] if not rarely() else []
        argv += ["--points", str(draw(st.integers(2, 20)))]
        maybe("--bisect")
        maybe("--tol", st.floats(1e-9, 1e-2).map(repr))
        maybe("--csv", outputs)
    else:
        maybe("--json", outputs)
        if command == "bound":
            maybe("--csv", outputs)
            maybe("--literal-min")
    if rarely():
        argv.append("--bogus")
    return argv


def non_numbers(value) -> list:
    """The entries of a JSON value, at any depth of its lists, that are not JSON numbers."""
    if isinstance(value, list):
        return [v for item in value for v in non_numbers(item)]
    return [] if type(value) in (int, float) else [value]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_any_input_exits_with_a_documented_code(data):
    state_only = data.draw(st.booleans(), "state file only")  # half the runs
    with tempfile.TemporaryDirectory() as tmp:
        if state_only:
            argv = [data.draw(st.sampled_from(["detect", "bound"]), "command"), "--state", f"{tmp}/state.json"]
        else:
            argv = data.draw(cli_argvs(tmp), "argv")
        if "--state" in argv:
            text = data.draw(state_texts(), "state")
            (Path(tmp) / "state.json").write_text(text)
        code, _, err = captured(argv)
    assert code in ({0, 2, 3, 4} if argv[0] == "selftest" else {0, 2, 3}), err
    assert "Traceback" not in err
    assert code == 0 or sum("error:" in line for line in err.splitlines()) == 1, err
    if state_only:  # a non-number in re or im, a quoted or boolean entry say, is a malformed document
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if isinstance(doc, dict) and any(non_numbers(doc.get(key, [])) for key in ("re", "im")):
            assert code == 3, err


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
        # a non-integral point count fails here, not later inside the scan
        for points in (2.5, 5.0, True, "5"):
            with pytest.raises(ValueError, match="points must be an integer >= 2, got"):
                SweepConfig(family="isotropic", fixed={"d": 3}, param_name="x", lo=0.1, hi=0.4, points=points)
        assert SweepConfig(family="isotropic", fixed={"d": 3}, param_name="x", lo=0.1, hi=0.4, points=np.int64(5))
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

    @pytest.mark.parametrize("flags", [[], ["--literal-min"]])
    def test_a_failing_check_exits_4_and_is_counted(self, capsys, monkeypatch, flags):
        # the max-entangled bound reads 0.5 in place of 1; the INFO lines count neither way
        monkeypatch.setattr(cren, "cren_lower_bound", lambda rho, literal_min=False: cren.CrenBoundReport(0.5, 0.0, 3, rho))
        code, out, _ = run_cli(capsys, ["selftest", *flags])
        lines = out.splitlines()
        assert code == 4
        assert [ln for ln in lines if ln.startswith("FAIL")] == ["FAIL max-entangled-bound: bound = 0.5 (exact CREN is 1)"]
        assert sum(ln.startswith("INFO") for ln in lines) == 1 + len(flags)
        assert lines[-1] == "4 checks gated, 3 passed, 1 failed"


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
        # a row of a state that is not rank one is bitwise the library's; a rank-one state's
        # row comes from the kernel, not the closed forms of the library, so it agrees to rounding
        cfg = SweepConfig(family=family, fixed=fixed, param_name=param, lo=lo, hi=hi, points=points)
        result = run_scan(cfg, base_seed=11)
        grid = np.linspace(lo, hi, points).tolist()
        seeds = range(11, 11 + points)
        want = point_by_point(cfg, grid, seeds)
        assert [pt.param for pt in result.points] == grid
        for pt, row, value, seed in zip(result.points, want, grid, seeds):
            if _point_spec(cfg, value, seed).build().vec is None:
                assert [repr(float(v)) for v in pt] == [repr(float(v)) for v in row]
            else:
                assert np.max(np.abs(np.subtract(pt, row))) <= 1e-12

    def test_a_smaller_block_budget_splits_stacks_and_keeps_the_scan(self, monkeypatch):
        # a budget of 20 blocks stacks 3x3 states (9 blocks each) two at a time, larger ones one at a time
        specs = {
            "readme": dict(bisect=True, **README_SCAN),
            "random_density_d": dict(family="random_density", fixed={}, param_name="d", lo=2, hi=5, points=4),
        }
        whole = {name: run_scan(SweepConfig(**spec), base_seed=5) for name, spec in specs.items()}
        sizes, checked = [], []
        stacks = scan._validated_stacks

        def spy(cfg, values, seeds):
            for dims, stack in stacks(cfg, values, seeds):
                sizes.append(len(stack))
                yield dims, stack

        def validate(mat, dims, *scale):
            checked.append(len(mat))
            return _checked(mat, dims, *scale)

        monkeypatch.setattr(scan, "_STACK_BLOCKS", 20)
        monkeypatch.setattr(scan, "_validated_stacks", spy)
        monkeypatch.setattr(scan, "_checked", validate)  # the range ends
        monkeypatch.setattr(qstate, "_checked", validate)  # validate_density, so StateSpec.build
        seen = {}
        for name, spec in specs.items():
            sizes.clear()
            checked.clear()
            assert run_scan(SweepConfig(**spec), base_seed=5) == whole[name]
            seen[name] = (list(sizes), list(checked))
        # the README scan: 100 grid points in chunks of 64 and 36, then bisection rounds of 28 and 9
        # probes, all certified by its two range ends, each checked on its own; the d scan validates each state
        readme = [2] * (32 + 18 + 14 + 4) + [1]
        assert seen == {"readme": (readme, [9, 9]), "random_density_d": ([1] * 4, [4, 9, 16, 25])}

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
        # above the onset only the three pairs with alpha = beta violate, so the bracket keeps those
        assert crossings["nonlinear_d"] == (
            pts[_CHUNK - 1].param, pts[_CHUNK].param, (0, 4, 8),
            *[(pt.param, pt.nonlinear_d) for pt in pts[_CHUNK - 1 : _CHUNK + 3]],
        )
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
        point_spec = scan._point_spec
        monkeypatch.setattr(
            scan, "_point_spec",
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
    """Oracle: the serial bisection of one onset that the speculative rounds replaced,
    one probe state per _probe_differences call (looked up on the module, so a spy sees it),
    each on the pairs the crossing keeps for its bracket."""
    if crossing is None or crossing[0] is None:
        # nothing violates, or everything does: no crossing inside the range
        return Threshold(None, "no threshold in range")
    lo, hi, pairs = crossing[:3]
    # probe seeds continue past the grid indices so bisection stays
    # deterministic for random families too
    seed = base_seed + cfg.points
    # a bracket whose ends are adjacent floats has no midpoint between them and stops too
    while hi - lo > cfg.bisect_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if scan._probe_differences(cfg, [field], [mid], [seed], {field: pairs})[0] > TAU_DETECT:
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


def probe_calls(monkeypatch, limit=1000):
    """The probes of each _probe_differences call from here on, each as (field,
    value, seed, difference); more than `limit` calls fail the test rather than run on."""
    calls = []

    def spy(cfg, fields, values, seeds, pairs=None):
        assert len(calls) < limit, "the bisection does not end"
        diffs = _probe_differences(cfg, fields, values, seeds, pairs)
        calls.append(list(zip(fields, values, seeds, diffs)))
        return diffs

    monkeypatch.setattr(scan, "_probe_differences", spy)
    return calls


def assert_serial_decisions(cfg, base_seed, crossings):
    """_thresholds gives the serial thresholds bitwise.  Every serial probe is
    among its solved ones, with its seed and its difference, so a serial walk
    over the solved probes reads exactly the serial ones.  It solves at most 3
    times the serial probes, in at most as many rounds as the serial bisection
    takes steps on its longer onset.  Returns (the probes of each round, the
    serial probes), both in probe_calls form."""
    with pytest.MonkeyPatch.context() as mp:
        calls = probe_calls(mp)
        got = _thresholds(cfg, base_seed, crossings)
        rounds = list(calls)
        calls.clear()
        serial = serial_thresholds(cfg, base_seed, crossings)
    solved, probes = [probe for call in rounds for probe in call], [probe for (probe,) in calls]
    assert exact(got) == exact(serial)
    assert set(probes) <= set(solved)
    assert len(solved) <= 3 * len(probes)
    assert len(rounds) <= max(Counter(field for field, *_ in probes).values(), default=0)
    return rounds, probes


README_SCAN = dict(family="bennett_mix", fixed={}, param_name="p", lo=0.0, hi=1.0, points=100, bisect_tol=1e-6)


class TestDetectionRule:
    """detect_entanglement and the scan decide through the one nonlinear_D, so
    their flags agree point for point."""

    @pytest.mark.parametrize(
        "spec, base_seed",
        [
            (README_SCAN, 0),
            (dict(family="isotropic", fixed={"d": 3}, param_name="x", lo=0.2, hi=0.3, points=41), 0),
            (dict(family="random_density", fixed={}, param_name="d", lo=2, hi=4, points=3), 11),
            (dict(family="random_pure", fixed={}, param_name="d", lo=2, hi=4, points=3), 5),
        ],
    )
    def test_detect_flag_is_the_scan_nonlinear_d_rule(self, spec, base_seed):
        cfg = SweepConfig(**spec)
        flags = []
        for i, pt in enumerate(run_scan(cfg, base_seed).points):
            flag, _ = detect_entanglement(_point_spec(cfg, pt.param, base_seed + i).build())
            assert flag is (pt.nonlinear_d > TAU_DETECT)
            flags.append(flag)
        if cfg.family in ("bennett_mix", "isotropic"):  # the grid crosses the onset
            assert flags[0] is False and flags[-1] is True


# a scan of rho_a mixtures over a, on a 10-point grid: its Bell detection ends inside the range
RHO_A_SCAN = dict(family="rho_a_mix", fixed={"p": 0.3}, param_name="a", lo=0.05, hi=0.95, points=10, bisect=True)


def test_rho_a_scan_bell_difference_falls_through_the_threshold_between_0_45_and_0_55():
    points = run_scan(SweepConfig(**RHO_A_SCAN)).points
    assert [round(pt.param, 2) for pt in points[4:6]] == [0.45, 0.55]
    assert points[4].bell_d > 0.011 and points[5].bell_d < -0.0028
    assert all(pt.bell_d > TAU_DETECT for pt in points[:5]) and all(pt.bell_d < 0.0 for pt in points[5:])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: a falling crossing is never reported; the scan prints \"threshold\": null",
)
def test_rho_a_scan_reports_the_bell_crossing_between_0_45_and_0_55():
    bell = run_scan(SweepConfig(**RHO_A_SCAN)).bell
    assert bell.value is not None and 0.45 <= bell.value <= 0.55


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
        built, stacks = [], scan._validated_stacks

        def spy(cfg, values, seeds):  # every probe enters here, built by broadcast or value by value
            built.extend(zip(values, seeds))
            return stacks(cfg, values, seeds)

        monkeypatch.setattr(scan, "_validated_stacks", spy)
        rounds, probes = assert_serial_decisions(cfg, 7, crossings)
        # the states built are the solved probes (the decisive serial ones and the rest), then the serial ones
        assert built == [(value, seed) for call in rounds + [probes] for _, value, seed, _ in call]
        result = run_scan(cfg, base_seed=7)
        assert exact((result.nonlinear, result.bell)) == exact(serial_thresholds(cfg, 7, crossings))

    FAMILIES = {  # (family, fixed, param): the domain of param
        ("bennett_mix", (), "p"): (0.0, 1.0),
        ("rho_a_mix", (("a", 0.5),), "p"): (0.0, 1.0),
        ("rho_a_mix", (("p", 0.3),), "a"): (0.01, 0.99),  # not affine in a: built state by state
        ("isotropic", (("d", 3),), "x"): (-1.0 / 8.0, 1.0),
        ("isotropic", (("d", 4),), "x"): (-1.0 / 15.0, 1.0),
    }

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(FAMILIES)), st.data())
    def test_speculative_rounds_take_the_serial_decisions(self, key, data):
        low, high = self.FAMILIES[key]
        # lo in the lower half of the domain and hi in the upper half, so that most ranges hold an onset
        lo = data.draw(st.floats(low, 0.5 * (low + high)), "lo")
        hi = data.draw(st.floats(0.5 * (low + high), high, exclude_min=True), "hi")
        points = data.draw(st.integers(2, 40), "points")
        tol = 10.0 ** -data.draw(st.integers(1, 300), "-log10 tol")
        family, fixed, param = key
        cfg = SweepConfig(family, dict(fixed), param, lo, hi, points, bisect=True, bisect_tol=tol)
        with pytest.MonkeyPatch.context() as mp:
            if data.draw(st.booleans(), "validated state by state"):
                mp.setattr(scan, "_CERT_MARGIN", -1.0)  # no trace deviation is below a negative tolerance
            assert_serial_decisions(cfg, 3, grid_crossings(cfg, 3))

    def test_scans_cover_two_one_and_no_brackets(self):
        cases = set()
        for spec in self.SCANS.values():
            crossings = grid_crossings(SweepConfig(bisect=True, **spec), 0)
            cases.add(sum(1 for lo, *_ in crossings.values() if lo is not None))
            cases.add("first point" if any(lo is None for lo, *_ in crossings.values()) else "inside")
        assert cases == {0, 1, 2, "first point", "inside"}

    def test_a_narrower_bracket_drops_out_of_later_rounds(self, monkeypatch):
        cfg = SweepConfig(bisect=True, **self.SCANS["isotropic_d3_7_points"])
        crossings = {"nonlinear_d": (0.2, 0.3, None), "bell_d": (0.3, 0.9, None)}  # 10 steps and 13 steps, no grid samples
        rounds, probes = assert_serial_decisions(cfg, 0, crossings)
        fields = [{field for field, *_ in call} for call in rounds]
        # without samples, a round takes one step of each bracket until two solved probes give a guess;
        # once the nonlinear bracket closes, the later rounds hold only Bell probes
        assert fields[0] == fields[1] == {"nonlinear_d", "bell_d"} and fields[-1] == {"bell_d"}
        last = max(i for i, f in enumerate(fields) if "nonlinear_d" in f)
        assert all(f == {"nonlinear_d", "bell_d"} for f in fields[: last + 1])
        assert [len(call) for call in rounds[:2]] == [2, 2] and len(probes) == 10 + 13

    def test_a_tolerance_below_the_float_spacing_ends(self, monkeypatch):
        # once lo and hi are adjacent floats their midpoint rounds to one of them
        # and the bracket cannot narrow; the serial bisection looped forever here
        spec = self.SCANS["isotropic_d3_7_points"]
        cfg = SweepConfig(bisect=True, **{**spec, "bisect_tol": 1e-300})
        crossings = grid_crossings(cfg, 0)
        coarse = _thresholds(SweepConfig(bisect=True, **{**spec, "bisect_tol": 1e-12}), 0, crossings)[0]
        rounds, probes = assert_serial_decisions(cfg, 0, crossings)
        nonlinear, bell = _thresholds(cfg, 0, crossings)
        lo, hi = crossings["nonlinear_d"][:2]
        assert nonlinear.status == "ok" and lo < nonlinear.value < hi
        assert bell.status == "no threshold in range" and len(probes) > 36  # tol 1e-12 stops at 36 steps
        assert abs(nonlinear.value - coarse.value) <= 1e-12
        assert len(probes) == 50 and len(rounds) <= 8

    def test_readme_scan_makes_at_most_3_stacked_calls_in_place_of_28(self, monkeypatch):
        cfg = SweepConfig(bisect=True, **README_SCAN)
        rounds, probes = assert_serial_decisions(cfg, 0, grid_crossings(cfg, 0))
        assert len(rounds) <= 3 and len(probes) == 28

    @pytest.mark.parametrize(
        "spec, crossings, solves, grams, kept",
        [
            (README_SCAN, None, 14, 14, {"nonlinear_d": 2, "bell_d": 3}),
            (
                SCANS["isotropic_d3_7_points"], {"nonlinear_d": (0.2, 0.3, None), "bell_d": (0.3, 0.9, None)}, 10, 13,
                {"nonlinear_d": 9, "bell_d": 9},
            ),
        ],
        ids=["readme", "narrower_bracket"],
    )
    def test_each_probe_solves_only_its_own_witness(self, monkeypatch, spec, crossings, solves, grams, kept):
        # per round, the nonlinear probes eigensolve the partial transposes of their bracket's kept pairs in
        # one batch, the Bell probes the Gram matrices of theirs in another; no SVD, bound or negativity.  The
        # README scan keeps pairs 0 and 8 for its nonlinear onset and 0, 4 and 8 for its Bell onset; crossings
        # given without their grid keep all 9
        cfg = SweepConfig(bisect=True, **spec)
        crossings = crossings or grid_crossings(cfg, 0)
        calls = {"eigvalsh": [], "svd": []}

        def spy(real, shapes):
            return lambda a, *args, **kw: shapes.append(np.shape(a)) or real(a, *args, **kw)

        for name, shapes in calls.items():
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name), shapes))

        def forbidden(*args, **kw):
            raise AssertionError("a bisection probe computed a bound or a negativity")

        monkeypatch.setattr(scan, "_negativities", forbidden)
        monkeypatch.setattr(scan, "_bound", forbidden)
        rounds = probe_calls(monkeypatch)
        _thresholds(cfg, 0, crossings)
        counts = [Counter(field for field, *_ in call) for call in rounds]
        want = [(n[f], kept[f], side, side) for n in counts for f, side in (("nonlinear_d", 4), ("bell_d", 3)) if n[f]]
        assert sorted(calls["eigvalsh"]) == sorted(want) and calls["svd"] == []
        nonlinear, bell = (sum(n[f] for n in counts) for f in ("nonlinear_d", "bell_d"))
        assert solves <= nonlinear <= 3 * solves and grams <= bell <= 3 * grams

    def test_a_failing_probe_raises_only_when_the_walk_reaches_it(self, capsys, monkeypatch):
        # the README scan validated state by state, with a builder that fails at one chosen probe
        argv = ["scan", "--family", "bennett_mix", "--scan-param", "p", "--range", "0:1", "--points", "100",
                "--bisect", "--tol", "1e-6"]
        cfg = SweepConfig(bisect=True, **README_SCAN)
        monkeypatch.setattr(scan, "_CERT_MARGIN", -1.0)
        crossings = grid_crossings(cfg, 0)
        rounds, probes = assert_serial_decisions(cfg, 0, crossings)
        decisive = [(value, seed) for _, value, seed, _ in probes]
        off_path = [(value, seed) for call in rounds for _, value, seed, _ in call if (value, seed) not in decisive]
        whole = run_cli(capsys, argv)
        point_spec = scan._point_spec

        def failing_at(bad):
            # p = 2 + value lies outside [0, 1], so the build raises, naming it
            return lambda cfg, value, seed: point_spec(cfg, 2.0 + value if (value, seed) == bad else value, seed)

        assert off_path and whole[0] == 0
        for bad in off_path[:1] + off_path[-1:]:  # never reached: nothing raises
            monkeypatch.setattr(scan, "_point_spec", failing_at(bad))
            assert exact(_thresholds(cfg, 0, crossings)) == exact(serial_thresholds(cfg, 0, crossings))
            assert run_cli(capsys, argv) == whole
        for bad in decisive[:1] + decisive[9:10] + decisive[-1:]:  # reached: the serial error
            monkeypatch.setattr(scan, "_point_spec", failing_at(bad))
            error = raised(lambda: serial_thresholds(cfg, 0, crossings))
            assert raised(lambda: _thresholds(cfg, 0, crossings)) == error
            assert error[1] == f"p={2.0 + bad[0]} outside [0, 1]"
            code, out, err = run_cli(capsys, argv)
            assert code == 3 and err == f"error: {error[1]}\n" and out == whole[1].rsplit("\n", 2)[0] + "\n"

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
            seeds = range(5, 5 + len(values))
            want = [getattr(pt, f) for pt, f in zip(_scan_points(cfg, values, seeds), fields)]
            assert _probe_differences(cfg, fields, values, seeds) == want


    def test_readme_scan_builds_5_stacks_and_validates_only_its_range_ends(self, monkeypatch):
        run_scan(SweepConfig(bisect=True, **README_SCAN))  # the family's two constant states are validated once, here
        builds, ends, singles = [], [], []
        matrix = states.StateSpec.matrix
        monkeypatch.setattr(
            scan, "_checked", lambda mat, dims, scale: ends.append((mat.shape, scale)) or _checked(mat, dims, scale)
        )
        monkeypatch.setattr(
            states.StateSpec, "matrix", lambda spec, values=None: builds.append(len(values)) or matrix(spec, values)
        )
        monkeypatch.setattr(states, "validate_density", lambda *args: singles.append(args))
        run_scan(SweepConfig(bisect=True, **README_SCAN))
        # p = 0 and p = 1 are built together and checked one at a time; the 100 grid states and the
        # 37 probes of the two bisection rounds, all in [0, 1], are only built
        assert builds == [2, _CHUNK, 100 - _CHUNK, 28, 9] and sum(builds[1:]) == 137
        assert ends == [((9, 9), scan._CERT_MARGIN)] * 2 and singles == []


def per_value_stacks(cfg, values, seeds):
    """Oracle for _validated_stacks: each state built and validated on its own, a stack of one."""
    for value, seed in zip(values, seeds):
        rho = _point_spec(cfg, value, seed).build()
        yield rho.dims, rho.mat[None]


class TestAffineScan:
    """isotropic over x and both mixtures over p are affine in the swept parameter: a scan
    builds each stack in one broadcast and skips validation once its two range ends pass it
    at half the tolerances; anything else keeps the per-value path."""

    @pytest.mark.parametrize("name", TestLockstepBisection.SCANS)
    @pytest.mark.parametrize("base_seed", [0, 7])
    def test_rows_and_onsets_are_bitwise_the_per_value_scan(self, monkeypatch, name, base_seed):
        spec = TestLockstepBisection.SCANS[name]
        got = run_scan(SweepConfig(bisect=True, **spec), base_seed)
        monkeypatch.setattr(scan, "_validated_stacks", per_value_stacks)
        assert repr(got) == repr(run_scan(SweepConfig(bisect=True, **spec), base_seed))

    @pytest.mark.parametrize(
        "family, fixed, param, lo, hi, certified",
        [
            ("bennett_mix", {}, "p", 0.0, 1.0, True),
            ("rho_a_mix", {"a": 0.5}, "p", 0.0, 1.0, True),
            ("isotropic", {"d": 4}, "x", -1.0 / 15.0, 1.0, True),
            ("bennett_mix", {}, "p", 0.0, 1.5, False),  # past its domain
            ("isotropic", {"d": 3}, "x", -0.2, 1.0, False),  # past its positivity range
            ("isotropic", {"d": 3}, "x", 0.0, 1.2, False),
            ("rho_a_mix", {"p": 0.3}, "a", 0.05, 0.95, False),  # not affine in a
            ("random_density", {}, "d", 2.0, 4.0, False),
            ("random_pure", {}, "d", 2.0, 4.0, False),
        ],
    )
    def test_which_scans_are_certified(self, family, fixed, param, lo, hi, certified):
        cfg = SweepConfig(family=family, fixed=fixed, param_name=param, lo=lo, hi=hi, points=3)
        assert (cfg.certified_dims is not None) is certified

    def test_a_scan_past_the_domain_prints_its_first_chunk_and_names_the_value(self, capsys, monkeypatch):
        argv = ["scan", "--family", "bennett_mix", "--scan-param", "p", "--range", "0:1.5", "--points", "100"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and len(out.splitlines()) == 1 + _CHUNK
        assert err == "error: p=1.0151515151515151 outside [0, 1]\n"
        monkeypatch.setattr(scan, "_validated_stacks", per_value_stacks)
        assert run_cli(capsys, argv) == (code, out, err)

    def test_isotropic_past_its_positivity_range_falls_back(self, capsys, monkeypatch):
        argv = ["scan", "--family", "isotropic", "--d", "3", "--scan-param", "x", "--range", "0:1.2", "--points", "12"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == ""
        assert err == "error: x=1.0909090909090908 outside positivity range [-0.125, 1]\n"
        monkeypatch.setattr(scan, "_validated_stacks", per_value_stacks)
        assert run_cli(capsys, argv) == (code, out, err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "bennett_mix", "--scan-param", "p", "--range", "0:1", "--points", "100", "--bisect",
             "--tol", "1e-6"],
            ["--family", "isotropic", "--d", "4", "--scan-param", "x", "--range", "0:1", "--points", "150", "--bisect"],
            ["--family", "rho_a_mix", "--a", "0.5", "--scan-param", "p", "--range", "0:1", "--points", "20",
             "--bisect"],
        ],
    )
    def test_a_failing_certificate_keeps_the_output(self, capsys, monkeypatch, argv):
        certified = run_cli(capsys, ["scan", *argv])
        monkeypatch.setattr(scan, "_CERT_MARGIN", -1.0)  # no trace deviation is below a negative tolerance
        ends, singles = [], []
        monkeypatch.setattr(scan, "_checked", lambda mat, dims, scale: ends.append(scale) or _checked(mat, dims, scale))
        monkeypatch.setattr(states, "validate_density", lambda *args: singles.append(args) or validate_density(*args))
        assert run_cli(capsys, ["scan", *argv]) == certified and certified[0] == 0
        assert ends == [-1.0] and len(singles) > 1  # the first end fails, then every state is validated on its own

    def test_an_end_that_is_not_its_own_validated_state_fails_the_certificate(self, monkeypatch):
        # bennett_mix with an antisymmetric part of 1e-12 in A: it passes validation, which stores
        # the symmetric part, so a raw stack would not be the validated one
        a = states.bennett_rho().mat.copy()
        a[0, 1] += 1e-12
        a[1, 0] -= 1e-12

        def make(p):
            return (1.0 - p) * a + p * states._qutrit_pplus().mat, Dims(3, 3)

        monkeypatch.setitem(states._FAMILIES, "bennett_mix", (("p",), make, "p"))
        cfg = SweepConfig(bisect=True, **README_SCAN)
        got = run_scan(cfg)
        assert cfg.certified_dims is None
        monkeypatch.setattr(scan, "_validated_stacks", per_value_stacks)
        assert repr(got) == repr(run_scan(SweepConfig(bisect=True, **README_SCAN)))

    @pytest.mark.parametrize(
        "spec",
        [
            dict(family="rho_a_mix", fixed={"p": 0.3}, param_name="a", lo=0.05, hi=0.95, points=20),
            dict(family="random_density", fixed={}, param_name="d", lo=2.0, hi=4.0, points=3),
            dict(family="random_pure", fixed={}, param_name="d", lo=2.0, hi=4.0, points=3),
        ],
    )
    def test_other_scans_build_each_value_with_its_seed(self, monkeypatch, spec):
        cfg, built = SweepConfig(**spec), []
        point_spec, matrix = scan._point_spec, states.StateSpec.matrix

        def single(spec, values=None):
            assert values is None, "a broadcast build"
            return matrix(spec)

        monkeypatch.setattr(scan, "_point_spec", lambda cfg, value, seed: built.append((value, seed)) or point_spec(cfg, value, seed))
        monkeypatch.setattr(states.StateSpec, "matrix", single)
        result = run_scan(cfg, base_seed=4)
        assert cfg.certified_dims is None
        assert built == [(pt.param, 4 + i) for i, pt in enumerate(result.points)]
        monkeypatch.setattr(scan, "_validated_stacks", per_value_stacks)
        assert repr(run_scan(SweepConfig(**spec), base_seed=4)) == repr(result)

    def test_probes_outside_the_range_are_built_one_by_one(self, monkeypatch):
        cfg = SweepConfig(family="bennett_mix", fixed={}, param_name="p", lo=0.2, hi=0.8, points=3)
        values, fields = [0.1, 0.5, 0.55, 0.9, 0.3], ["nonlinear_d", "bell_d", "bell_d", "nonlinear_d", "bell_d"]
        assert cfg.certified_dims is not None
        built = []
        point_spec = scan._point_spec
        monkeypatch.setattr(scan, "_point_spec", lambda cfg, value, seed: built.append(value) or point_spec(cfg, value, seed))
        got = _probe_differences(cfg, fields, values, [5] * 5), _scan_points(cfg, values, [5] * 5)
        # a call with a value outside [lo, hi] builds every value on its own, one spec each
        assert built == values * 2
        monkeypatch.setattr(scan, "_validated_stacks", per_value_stacks)
        assert repr(got) == repr((_probe_differences(cfg, fields, values, [5] * 5), _scan_points(cfg, values, [5] * 5)))


def oracle_rows(cfg, values, seeds):
    """Oracle for _scan_points: the rows from every pair's kernel columns (witness._reports), each
    state's Gram matrices all solved, built and validated as the scan builds them."""
    rows = []
    for dims, stack in scan._validated_stacks(cfg, values, seeds):
        cols = _reports(stack, dims)
        figures = (
            _nonlinear_d(cols.nonlinear_max),
            _bell_d(np.divide(cols.bell_max, cols.c, out=np.zeros_like(cols.c), where=cols.live)),
            _bound(cols.raw, dims, False),
            _negativities(stack, dims),
        )
        rows += zip(*(f.tolist() for f in figures))
    return [scan.ScanPoint(value, *row) for value, row in zip(values, rows)]


def oracle_crossings(points):
    """The first crossing of each detection difference in a list of rows, as (lo, hi, None): a
    bracket whose probes solve every pair."""
    crossings = {}
    for prev, pt in zip([None, *points], points):
        for field in ("nonlinear_d", "bell_d"):
            if field not in crossings and getattr(pt, field) > TAU_DETECT:
                crossings[field] = (None if prev is None else prev.param, pt.param, None)
    return crossings


def assert_all_pairs_scan(cfg, base_seed):
    """run_scan gives the all-pairs oracle's rows bitwise and the thresholds of the serial bisection
    that solves every pair.  Each of that bisection's probes is among the solved ones with its
    decision: a violating probe with its difference, a non-violating one with at most it, the largest
    over fewer pairs.  Returns the crossings of the scan's grid."""
    values = _grid_values(cfg, 0, cfg.points)
    oracle = oracle_rows(cfg, values, range(base_seed, base_seed + cfg.points))
    with pytest.MonkeyPatch.context() as mp:
        rounds = probe_calls(mp)
        result = run_scan(cfg, base_seed)
        solved = {(field, value, seed): d for call in rounds for field, value, seed, d in call}
        rounds.clear()
        serial = serial_thresholds(cfg, base_seed, oracle_crossings(oracle))
    assert repr(result.points) == repr(oracle)
    assert exact((result.nonlinear, result.bell)) == exact(serial)
    for ((field, value, seed, d),) in rounds:
        got = solved[field, value, seed]
        assert got == d if d > TAU_DETECT else got <= d <= TAU_DETECT
    return grid_crossings(cfg, base_seed)


class TestPrunedSolves:
    """The scan solves only the pairs that can set a figure it prints or a decision it takes: each
    grid state the Gram matrices whose upper bound reaches the state's best lower bound
    (scan._bell_ratios), and on a certified scan each probe the pairs its bracket keeps
    (scan._bracket_pairs).  Its rows and thresholds are those of the all-pairs solve."""

    AFFINE = {  # certified affine scans, (family, fixed, param): the domain of param
        ("bennett_mix", (), "p"): (0.0, 1.0),
        ("rho_a_mix", (("a", 0.2),), "p"): (0.0, 1.0),
        ("rho_a_mix", (("a", 0.5),), "p"): (0.0, 1.0),
        ("rho_a_mix", (("a", 0.9),), "p"): (0.0, 1.0),
        ("isotropic", (("d", 3),), "x"): (-1.0 / 8.0, 1.0),
        ("isotropic", (("d", 4),), "x"): (-1.0 / 15.0, 1.0),
    }

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(AFFINE)), st.data())
    def test_rows_and_decisions_are_the_all_pairs_ones(self, key, data):
        low, high = self.AFFINE[key]
        lo = data.draw(st.floats(low, 0.5 * (low + high)), "lo")
        hi = data.draw(st.floats(0.5 * (low + high), high, exclude_min=True), "hi")
        points = data.draw(st.integers(5, 60), "points")
        tol = 10.0 ** -data.draw(st.integers(3, 9), "-log10 tol")
        family, fixed, param = key
        cfg = SweepConfig(family, dict(fixed), param, lo, hi, points, bisect=True, bisect_tol=tol)
        assert cfg.certified_dims is not None
        assert_all_pairs_scan(cfg, 3)

    def test_readme_scan_solves_324_gram_matrices_and_2_or_3_pairs_per_probe(self, monkeypatch):
        cfg = SweepConfig(bisect=True, **README_SCAN)
        crossings = assert_all_pairs_scan(cfg, 0)
        assert {f: crossing[2] for f, crossing in crossings.items()} == {"nonlinear_d": (0, 8), "bell_d": (0, 4, 8)}
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: shapes.append(np.shape(a)) or eigvalsh(a, *args))
        for _ in _scan_chunks(cfg, 0, {}):
            pass
        # 100 grid states: 900 partial transposes, and 3.24 Gram matrices per state in place of 9
        assert sum(np.prod(shape[:-2]) for shape in shapes if shape[-2:] == (4, 4)) == 900
        assert sum(np.prod(shape[:-2]) for shape in shapes if shape[-2:] == (3, 3)) == 324

    def test_a_bracket_keeps_the_maximal_pair_of_either_end(self):
        # on p in [0.5, 0.8] the largest bell_max / c is pair 0's at p = 0.5 and pair 4's at p = 0.8;
        # pair 0 crosses first and sets the onset
        cfg = SweepConfig("bennett_mix", {}, "p", 0.5, 0.8, 2, bisect=True, bisect_tol=1e-9)
        reach = []
        _scan_points(cfg, [0.5, 0.8], [0, 1], reach)
        assert [int(np.argmax(r[1])) for r in reach] == [0, 4]
        assert scan._bracket_pairs(cfg, reach[0][1], reach[1][1]) == (0, 4, 8)
        crossings = assert_all_pairs_scan(cfg, 0)
        assert crossings["bell_d"][2] == (0, 4, 8)
        assert abs(run_scan(cfg).bell.value - 0.57603) < 1e-5

    def test_a_pair_live_at_one_end_only_is_kept(self, monkeypatch):
        # (1 - p) |00><00| + p P_+ on two qutrits: at p = 0 only the pairs with 0 in alpha and in beta
        # (0, 1, 3 and 4) carry weight; pairs 2, 5, 6 and 7 are live at the bracket's upper end only,
        # where they do not violate, and stay, with 0, 4 and 8, which do; 1 and 3 are quiet at both
        product = np.zeros((9, 9))
        product[0, 0] = 1.0
        pplus = states._qutrit_pplus().mat

        def make(p):
            return (1.0 - p) * product + p * pplus, Dims(3, 3)

        monkeypatch.setitem(states._FAMILIES, "product_mix", (("p",), make, "p"))
        cfg = SweepConfig("product_mix", {}, "p", 0.0, 0.5, 6, bisect=True, bisect_tol=1e-6)
        assert cfg.certified_dims == Dims(3, 3)
        crossings = assert_all_pairs_scan(cfg, 0)
        assert crossings["nonlinear_d"][:3] == (0.0, 0.1, (0, 2, 4, 5, 6, 7, 8))

    @pytest.mark.parametrize("spec", [README_SCAN, dict(family="rho_a_mix", fixed={"p": 0.3}, param_name="a",
                                                         lo=0.05, hi=0.95, points=100)], ids=["readme", "rho_a_mix_over_a"])
    def test_a_scan_validated_state_by_state_solves_every_pair(self, monkeypatch, spec):
        # rho_a_mix is not affine in a, so its scan builds and validates each state on its own and its
        # brackets keep all 9 pairs; so does the README scan once its range ends cannot certify it
        monkeypatch.setattr(scan, "_CERT_MARGIN", -1.0)
        cfg = SweepConfig(bisect=True, **spec)
        assert cfg.certified_dims is None
        reach = []
        _scan_points(cfg, _grid_values(cfg, 0, 2), [0, 1], reach)
        assert scan._bracket_pairs(cfg, *(r[1] for r in reach)) is None
        crossings = grid_crossings(cfg, 0)
        assert all(crossing[2] is None for crossing in crossings.values())
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: shapes.append(np.shape(a)) or eigvalsh(a, *args))
        # rho_a_mix's differences fall with a, so it bisects an onset given by hand
        _thresholds(cfg, 0, crossings if spec is README_SCAN else {"bell_d": (0.5, 0.6, None)})
        assert shapes and all(shape[1] == 9 for shape in shapes)


def with_fault(mat, kind):
    """A copy of a valid real state with one fault that validation rejects."""
    mat = mat.copy()
    if kind == "nan":
        mat[0, 0] = np.nan
    elif kind == "hermiticity":
        mat[0, 1] += 1e-6
    elif kind == "trace":
        mat *= 1.0 + 1e-6
    else:  # the smallest eigenvalue moved to -1e-6, the trace kept
        lam, vec = np.linalg.eigh(mat)
        mat += (lam[0] + 1e-6) * (np.outer(vec[:, -1], vec[:, -1]) - np.outer(vec[:, 0], vec[:, 0]))
    return mat


def raised(call):
    """(type, message) of the error call() raises."""
    with pytest.raises(ValueError) as info:  # StateValidationError is a ValueError
        call()
    return type(info.value), str(info.value)


def captured(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestValueByValueScan:
    """A scan off the affine path builds and checks each value on its own, in grid order:
    with one faulty state and one build error in its grid it raises what the first
    failing value raises alone, after the rows of the chunks already completed."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 150), st.sampled_from(("nan", "hermiticity", "trace", "psd")), st.data())
    def test_the_first_failing_value_raises_its_own_error(self, points, kind, data):
        k, j = data.draw(st.integers(0, points - 1), "fault at"), data.draw(st.integers(0, points - 1), "build error at")
        cfg = SweepConfig(family="rho_a_mix", fixed={"p": 0.3}, param_name="a", lo=0.05, hi=0.95, points=points)
        grid, make = _grid_values(cfg, 0, points), states._FAMILIES["rho_a_mix"][1]

        def family(a, p):
            if grid.index(a) == j:
                raise ValueError(f"no state at a={a}")
            mat, dims = make(a, p)
            return (with_fault(mat, kind) if grid.index(a) == k else mat), dims

        argv = ["scan", "--family", "rho_a_mix", "--p", "0.3", "--scan-param", "a", "--range", "0.05:0.95",
                "--points", str(points)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(states._FAMILIES, "rho_a_mix", (("a", "p"), family, "p"))
            got = raised(lambda: run_scan(cfg)), captured(argv)
            mp.setattr(scan, "_validated_stacks", per_value_stacks)
            want = raised(lambda: run_scan(cfg)), captured(argv)
        assert got == want
        error, (code, out, err) = want
        first = min(j, k)
        assert (error[0] is ValueError and error[1].startswith("no state")) == (j <= k)
        assert code == 3 and err == f"error: {error[1]}\n"
        rows = first // _CHUNK * _CHUNK  # the chunk that holds the first failing value prints nothing
        assert len(out.splitlines()) == (rows and 1 + rows)


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
