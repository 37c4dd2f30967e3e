"""Tests of the benchmark's own parts: tracer, reference, inputs, statistics.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import numpy as np
import pytest

import entwit
import entwit.cli
import reference
import run
import tracer
import worker


@pytest.fixture
def tr():
    t = tracer.Tracer()
    t.install()
    t.enabled = True
    yield t
    t.uninstall()


def _names(t):
    return [span[tracer.NAME] for span in t.spans]


def test_one_direct_call_records_one_span(tr):
    rho = entwit.isotropic(3, 0.5)
    tr.spans.clear()
    entwit.negativity(rho)
    assert _names(tr) == ["qstate.negativity"]
    entwit.cli.negativity(rho)  # the same wrapper, bound in another namespace
    assert _names(tr) == ["qstate.negativity"] * 2


def test_installing_twice_does_not_double_count(tr):
    again = tracer.Tracer()
    again.install()
    again.enabled = True
    tr.install()
    rho = entwit.isotropic(3, 0.5)
    tr.spans.clear()
    entwit.cren_lower_bound(rho)
    assert _names(tr).count("cren.cren_lower_bound") == 1
    assert _names(tr).count("qstate.negativity") == 1
    assert _names(tr).count("witness.subspace_report") == 9
    assert again.spans == []
    again.uninstall()


def test_wrapper_is_bound_in_every_namespace_and_restored(tr):
    wrapped = entwit.cren.cren_lower_bound
    assert getattr(wrapped, "__bench_traced__", False)
    assert entwit.cren_lower_bound is wrapped and entwit.cli.cren_lower_bound is wrapped
    assert entwit.witness.validate_density is entwit.states.validate_density is entwit.qstate.validate_density
    assert getattr(entwit.states.StateSpec.build, "__bench_traced__", False)
    assert tr.missing == []
    tr.uninstall()
    for fn in (entwit.cren_lower_bound, entwit.cli.cren_lower_bound, entwit.states.StateSpec.build,
               entwit.witness.minimize, entwit.qstate.validate_density):
        assert not getattr(fn, "__bench_traced__", False)


def test_self_time_excludes_child_spans(tr):
    tr.spans.clear()
    entwit.cren_lower_bound(entwit.isotropic(3, 0.5))
    agg = tr.aggregate()["layers"]
    root = agg["cren.cren_lower_bound"]
    children = agg["witness.subspace_reports"]["incl_s"] + agg["qstate.negativity"]["incl_s"]
    assert root["self_s"] == pytest.approx(root["incl_s"] - children, abs=1e-9)
    assert agg["witness.subspace_reports"]["counts"] == {"subspaces": 9, "nonempty": 9, "violating": 3}


def test_covered_merges_overlapping_children():
    span = ["p", None, 0.0, 10.0, None, 0]
    kids = [["a", span, 1.0, 4.0, None, 1], ["b", span, 3.0, 5.0, None, 2], ["c", span, 9.0, 12.0, None, 1]]
    assert tracer._covered(span, kids) == pytest.approx(5.0)


def test_scan_counts_states_probes_and_pool_threads(tr):
    cfg = entwit.cli.SweepConfig(
        family="isotropic", fixed={"d": 3}, param_name="x",
        lo=0.1, hi=0.4, points=7, bisect=True, bisect_tol=1e-3,
    )
    tr.spans.clear()
    res = entwit.cli.run_scan(cfg, threads=2)
    agg = tr.aggregate()
    probes = agg["scan_states"] - len(res.points)
    assert agg["layers"]["cli.run_scan"]["counts"] == {"grid_points": 7}
    assert agg["layers"]["states.build"]["calls"] == agg["scan_states"]
    assert probes > 0
    assert 1 <= agg["scan_threads"] <= 2
    metrics = run.layer_metrics(agg, 1)
    assert metrics["cli.scan.states_per_op"] == 7 + probes


# Values computed by the seed code (cren_lower_bound) on BoundLargeD(seed=1).
SEED_CODE_SEED1 = {
    "ginibre_4x4": (0.0013944668094551342, 0.0676555722532423),
    "ginibre_8x8": (8.120488408686859e-15, 0.020191811442003185),
    "pure_8x8": (3.8134199011470793, 0.6695477444748505),
    "ginibre_6x12": (-5.684341886080802e-15, 0.030288009619737943),
    "ginibre_12x12": (5.167583532800729e-15, 0.01477369526349997),
    "ginibre_16x16": (7.579122514774402e-15, 0.01038952655766181),
}


def test_reference_reproduces_seed_code_values():
    wl = worker.BoundLargeD(1, ".")
    for (label, m, n, _), rho in zip(wl.CYCLE, wl.states):
        if label in SEED_CODE_SEED1:
            got = reference.bound_and_negativity(rho.mat, m, n)
            assert got == pytest.approx(SEED_CODE_SEED1[label], abs=1e-9)


def test_reference_closed_forms_match_program():
    rho = worker.OptimizerCheck(3, ".").states[0]
    nonlinear, bell = reference.closed_forms(rho.mat, 3, 3)
    reports = entwit.subspace_reports(rho)
    assert nonlinear == pytest.approx([r.nonlinear_max for r in reports], abs=1e-12)
    assert bell == pytest.approx([r.bell_max for r in reports], abs=1e-12)


def test_inputs_depend_only_on_the_seed():
    a, b, c = (worker.BoundLargeD(s, ".") for s in (4, 4, 5))
    assert all(np.array_equal(x.mat, y.mat) for x, y in zip(a.states, b.states))
    assert not np.array_equal(a.states[0].mat, c.states[0].mat)


def test_bound_cycle_subspace_count():
    wl = worker.BoundLargeD(1, ".")
    assert wl.expected_subspaces(7) == 6 * 6 + 28 * 28 * 2 + 15 * 66 + 66 * 66 * 2 + 120 * 120


def test_percentile_interpolates_between_ranks():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.percentile(list(range(11)), 90) == pytest.approx(9.0)
