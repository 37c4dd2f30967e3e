"""Top-level package surface: everything in __all__ resolves and works, and
each command loads only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entwit

SRC = Path(entwit.__file__).parent


def fresh(code: str):
    """The JSON that `code` prints as its last line, run in a new interpreter on this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith(('entwit', 'numpy')))))"
FRONT = ["entwit", "entwit.cli", "entwit.generators", "entwit.qstate", "entwit.states", "entwit.witness"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["detect", "--family", "isotropic", "--d", "3", "--x", "0.5"], []),
        (["bound", "--family", "max_entangled", "--d", "3"], ["entwit.cren"]),
    ],
    ids=["detect", "bound"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, extra):
    # detect loads no cren, scan or search; bound adds cren only
    loaded = fresh(f"import entwit.cli; entwit.cli.main({argv!r}); {LOADED}")
    assert [m for m in loaded if m.startswith("entwit")] == sorted(FRONT + extra)


def test_import_entwit_loads_no_numpy():
    assert fresh(f"import entwit; {LOADED}") == ["entwit"]


def test_importing_the_kernel_builds_no_pauli_table():
    # the correlation table is built on its first use, not at import
    built = fresh("import json, entwit.witness as w; print(json.dumps(w._sigma_real.cache_info().currsize))")
    assert built == 0


def test_cli_re_exports_the_scan_api_from_its_home():
    names = ("SCAN_HEADER", "ScanPoint", "ScanResult", "SweepConfig", "Threshold", "run_scan", "scan_csv")
    same = fresh(
        "import json, entwit.cli, entwit.scan; "
        f"print(json.dumps([getattr(entwit.cli, n) is getattr(entwit.scan, n) for n in {names!r}]))"
    )
    assert same == [True] * len(names)


def test_every_root_name_is_its_home_modules_object():
    same = fresh(
        "import importlib, json, entwit; "
        "print(json.dumps({n: getattr(entwit, n) is getattr(importlib.import_module('entwit.' + m), n) "
        "for m, names in entwit._API.items() for n in names}))"
    )
    assert sorted(same) == sorted(set(entwit.__all__) - {"__version__"})
    assert all(same.values()), [name for name, ok in same.items() if not ok]
    assert set(entwit.__all__) <= set(dir(entwit))


def test_no_module_imports_the_cli():
    # `python -m entwit.cli` runs the cli as __main__; an import of entwit.cli would compile it twice
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):  # from .cli import x, from . import cli, from entwit import cli
                mods = {node.module} | {f"{node.module}.{a.name}" if node.module else a.name for a in node.names}
            else:
                mods = {a.name for a in node.names} if isinstance(node, ast.Import) else set()
            assert not mods & {"cli", "entwit.cli"}, path


def test_all_names_resolve():
    for name in entwit.__all__:
        assert getattr(entwit, name, None) is not None, name


def test_end_to_end_through_top_level():
    rho = entwit.isotropic(3, 0.5)
    flag, reports = entwit.detect_entanglement(rho)
    assert flag and len(reports) == 9
    rep = entwit.cren_lower_bound(rho)
    assert abs(rep.bound - (4.0 * 0.5 - 1.0) / 3.0) < 1e-8
    assert entwit.__version__ == "0.1.0"


def test_array_holders_compare_by_identity_and_hash():
    # a dataclass that holds arrays compares by identity: == on two equal states
    # would otherwise compare their arrays and raise, and hash() would fail
    pair = entwit.GeneratorPair(0, 1, 3)
    rho = entwit.isotropic(3, 0.5)
    psi = entwit.random_pure(entwit.Dims(3, 3), 0)
    triad = entwit.triad_from_rotation(entwit.rotation_zyz(0.1, 0.2, 0.3))
    e = [1.0, 0.0, 0.0]
    holders = [
        (rho, entwit.isotropic(3, 0.5)),
        (psi, entwit.random_pure(entwit.Dims(3, 3), 0)),
        (entwit.schmidt(psi), entwit.schmidt(psi)),
        (triad, entwit.triad_from_rotation(entwit.rotation_zyz(0.1, 0.2, 0.3))),
        (entwit.embed_observable(pair, e), entwit.embed_observable(pair, e)),
        (entwit.BellSettings(pair, pair, e, e, e, e), entwit.BellSettings(pair, pair, e, e, e, e)),
    ]
    for one, twin in holders:
        assert one == one and one != twin and one in {one} and twin not in {one}
        assert hash(one) == hash(one) != hash(twin)
    # settings and projections that hold them compare field by field, each held object by identity
    settings = entwit.WitnessSettings(pair, pair, triad, triad)
    assert settings == entwit.WitnessSettings(pair, pair, triad, triad) and settings in {settings}
    assert settings != entwit.WitnessSettings(pair, pair, triad, holders[3][1])
    projected = entwit.project_state(rho, pair, pair)
    assert projected == entwit.ProjectedState(projected.c, projected.rho_ab) and projected in {projected}
    assert projected != entwit.project_state(rho, pair, pair)
