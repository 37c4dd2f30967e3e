"""The README commands against golden outputs in tests/data, and the README's
library examples against the values their comments state.

The golden files are the outputs of the README commands, of the README scan
at --tol 1e-12 and of a 2-point scan of the README family.  Keys, headers,
row counts, integers and strings must match exactly; floats match to 1e-10,
so that another BLAS build or Python version does not fail the suite on
rounding.  The scans' threshold lines match byte for byte.  For selftest the check names, tags and the
summary line are pinned, not the rounding-level gaps in the details.
"""

import json
import re
from pathlib import Path

import pytest

from entwit.cli import main

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-10


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def assert_same(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= FLOAT_TOL, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def assert_same_csv(got: str, want: str, int_columns: int = 0):
    assert "\r" not in got and got.endswith("\n")
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    for row, (g, w) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), row
        assert g_cells[:int_columns] == w_cells[:int_columns], row
        for col, (gc, wc) in enumerate(zip(g_cells[int_columns:], w_cells[int_columns:]), start=int_columns):
            assert abs(float(gc) - float(wc)) <= FLOAT_TOL, (row, col, gc, wc)


def test_detect(capsys):
    out = run(capsys, ["detect", "--family", "isotropic", "--d", "3", "--x", "0.5"])
    assert_same(json.loads(out), json.loads((DATA / "detect.json").read_text()))


def test_bound_and_subspaces_csv(capsys, tmp_path):
    csv_path = tmp_path / "subspaces.csv"
    out = run(capsys, ["bound", "--family", "max_entangled", "--d", "3", "--csv", str(csv_path)])
    assert_same(json.loads(out), json.loads((DATA / "bound.json").read_text()))
    assert_same_csv(csv_path.read_text(), (DATA / "subspaces.csv").read_text(), int_columns=4)


def assert_same_scan(capsys, argv, golden):
    """The scan's CSV rows to 1e-10 and its threshold line byte for byte; returns that line."""
    csv_text, _, last = run(capsys, ["scan", *argv]).rstrip("\n").rpartition("\n")
    want_csv, _, want_last = (DATA / golden).read_text().rstrip("\n").rpartition("\n")
    assert_same_csv(csv_text + "\n", want_csv + "\n")
    assert last == want_last
    return last


def test_bennett_mix_scan_and_bisection(capsys):
    # the onsets are bisected on decisions far from rounding (their roots decide them): byte for byte
    last = assert_same_scan(
        capsys,
        ["--family", "bennett_mix", "--scan-param", "p", "--range", "0:1", "--points", "100", "--bisect", "--tol", "1e-6"],
        "scan_bennett_mix.txt",
    )
    assert json.loads(last)["nonlinear"]["threshold"] == pytest.approx(0.18220, abs=1e-5)
    assert json.loads(last)["bell"]["threshold"] == pytest.approx(0.57603, abs=1e-5)


def test_two_point_bennett_mix_bisection(capsys):
    # brackets as wide as the range, whose solved probes also decide far from rounding
    assert_same_scan(
        capsys,
        ["--family", "bennett_mix", "--scan-param", "p", "--range", "0:1", "--points", "2", "--bisect", "--tol", "1e-9"],
        "scan_bennett_mix_2_points.txt",
    )


def test_bennett_mix_bisection_at_tol_1e_12(capsys):
    # both onsets solve probes inside their roots' margins, 5 nonlinear and 3 Bell
    assert_same_scan(
        capsys,
        ["--family", "bennett_mix", "--scan-param", "p", "--range", "0:1", "--points", "100", "--bisect", "--tol", "1e-12"],
        "scan_bennett_mix_tol_1e-12.txt",
    )


def test_selftest_literal_min(capsys):
    out = run(capsys, ["selftest", "--literal-min"])
    want = (DATA / "selftest.txt").read_text()

    def checks(text):
        lines = text.splitlines()
        return [line.split(":", 1)[0] for line in lines[:-1]], lines[-1]

    assert checks(out) == checks(want)


def test_library_examples():
    # every python block, run in one namespace
    namespace = {}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        exec(block, namespace)
    assert namespace["entangled"] is True
    assert abs(namespace["top"].nonlinear_max - 1.8) < 1e-12
    rep = namespace["rep"]
    assert abs(rep.bound - 1 / 3) < 1e-12 and abs(rep.negativity - 1 / 3) < 1e-12
