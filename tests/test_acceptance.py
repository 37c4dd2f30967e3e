"""End-to-end acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one summary line per
criterion with the measured values next to their targets.  Each criterion
asserts at its stated tolerance; none of them is scaled down.
"""

import math
import time

import numpy as np

from entwit.cli import SweepConfig, run_scan
from entwit.cren import cren_lower_bound, pure_sum_identity
from entwit.generators import GeneratorPair, embed_observable, generator_matrix
from entwit.qstate import Dims, partial_transpose, pure_negativity, validate_density
from entwit.search import OptimizerConfig, optimize_settings
from entwit.states import (
    isotropic,
    max_entangled,
    pure_from_schmidt,
    random_density,
)
from entwit.witness import TAU_DETECT, detect_entanglement


def _line(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_c01_bennett_mixture_thresholds():
    t0 = time.time()
    cfg = SweepConfig(
        family="bennett_mix", fixed={}, param_name="p",
        lo=0.0, hi=1.0, points=100, bisect=True, bisect_tol=1e-6,
    )
    result = run_scan(cfg)
    dt = time.time() - t0
    nl, bl = result.nonlinear.value, result.bell.value
    ok = (
        result.nonlinear.status == "ok"
        and result.bell.status == "ok"
        and abs(nl - 0.18221) <= 5e-5
        and abs(bl - 0.57602) <= 5e-5
        and dt < 30.0
    )
    _line(ok, "C1 tiles-mixture thresholds", f"nonlinear {nl:.6f} (0.18221±5e-5), bell {bl:.6f} (0.57602±5e-5), {dt:.1f}s (<30s)")
    assert ok


def test_c02_weakly_inseparable_mixture():
    cfg = SweepConfig(
        family="rho_a_mix", fixed={"a": 0.236}, param_name="p",
        lo=1e-3, hi=1.0, points=100, bisect=True, bisect_tol=1e-4,
    )
    result = run_scan(cfg)
    nl_flags = [pt.nonlinear_d > TAU_DETECT for pt in result.points]
    all_fire = all(nl_flags) and abs(result.points[0].param - 1e-3) < 1e-15
    # whole-region nonlinear violation means there is no crossing to bisect
    no_crossing = result.nonlinear.status == "no threshold in range"
    bell_ok = result.bell.status == "ok" and abs(result.bell.value - 0.26) <= 0.01
    shape_ok = result.points[0].bell_d < 0.0 < result.points[-1].bell_d
    ok = all_fire and no_crossing and bell_ok and shape_ok
    _line(
        ok,
        "C2 weakly-inseparable mixture",
        f"nonlinear fires at p=1e-3 and all 100 grid points ({all_fire}), "
        f"bell threshold {result.bell.value:.4f} (0.26±0.01), bell curve crosses zero ({shape_ok})",
    )
    assert ok


def test_c03_isotropic_thresholds():
    out = {}
    for d, lo, hi in ((3, 0.1, 0.4), (4, 0.1, 0.3)):
        cfg = SweepConfig(
            family="isotropic", fixed={"d": d}, param_name="x",
            lo=lo, hi=hi, points=31, bisect=True, bisect_tol=1e-6,
        )
        out[d] = run_scan(cfg).nonlinear.value
    ok = abs(out[3] - 0.25) <= 1e-5 and abs(out[4] - 0.2) <= 1e-5
    _line(ok, "C3 isotropic thresholds", f"d=3: {out[3]:.7f} (0.25±1e-5), d=4: {out[4]:.7f} (0.2±1e-5)")
    assert ok


def test_c04_isotropic_bound_formula():
    worst = 0.0
    for x in (0.3, 0.5, 0.75, 1.0):
        got = cren_lower_bound(isotropic(3, x)).bound
        worst = max(worst, abs(got - (4.0 * x - 1.0) / 3.0))
    ok = worst < 1e-8
    _line(ok, "C4 isotropic bound formula", f"max |bound - (4x-1)/3| = {worst:.2e} (<1e-8) over x in {{0.3,0.5,0.75,1.0}}")
    assert ok


def test_c05_pure_state_exactness():
    rng = np.random.default_rng(505)
    worst_bound = worst_identity = 0.0
    for trial in range(100):
        d = 3 if trial % 2 == 0 else 4
        mu = rng.dirichlet(np.ones(d))
        psi = pure_from_schmidt(mu, d)
        rho = psi.projector()
        # the closed form of a projector that keeps its vector, and the kernel on its matrix alone
        for state in (rho, validate_density(rho.mat, rho.dims)):
            worst_bound = max(worst_bound, abs(cren_lower_bound(state).bound - pure_negativity(psi)))
        lhs, rhs = pure_sum_identity(psi)
        worst_identity = max(worst_identity, abs(lhs - rhs))
    ok = worst_bound < 1e-8 and worst_identity < 1e-9
    _line(
        ok,
        "C5 pure-state exactness",
        f"max |bound - pure_negativity| = {worst_bound:.2e} (<1e-8), "
        f"max trace-norm identity gap = {worst_identity:.2e} (<1e-9), 100 states d in {{3,4}}",
    )
    assert ok


def test_c06_two_qubit_reduction():
    pair = GeneratorPair(0, 1, 2)
    cfg = OptimizerConfig(restarts=4, seed=606, step_tol=1e-5)
    worst = 0.0
    for trial in range(100):
        rho = random_density(Dims(2, 2), 4, seed=60600 + trial)
        lam = np.linalg.eigvalsh(partial_transpose(rho))[0]
        _, v = optimize_settings(rho, pair, pair, "nonlinear", cfg)
        worst = max(worst, abs(v - (1.0 - 4.0 * lam)))
    vec = np.zeros(4, dtype=complex)
    vec[1], vec[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    singlet = validate_density(np.outer(vec, vec.conj()), Dims(2, 2))
    tight = OptimizerConfig(restarts=8, seed=607, step_tol=1e-7)
    _, v_nl = optimize_settings(singlet, pair, pair, "nonlinear", tight)
    _, v_bl = optimize_settings(singlet, pair, pair, "bell", tight)
    ok = worst < 1e-4 and abs(v_nl - 3.0) < 1e-5 and abs(v_bl - 2.0 * math.sqrt(2.0)) < 1e-5
    _line(
        ok,
        "C6 two-qubit reduction",
        f"max |optimizer - (1-4*lambda_min)| = {worst:.2e} (<1e-4) over 100 states; "
        f"singlet nonlinear {v_nl:.7f} (3±1e-5), singlet bell {v_bl:.7f} (2*sqrt(2)±1e-5)",
    )
    assert ok


def _random_separable(rng, m, n):
    k = 1 + int(rng.integers(10))
    weights = rng.dirichlet(np.ones(k))
    mat = np.zeros((m * n, m * n), dtype=complex)
    for w in weights:
        va = rng.normal(size=m) + 1j * rng.normal(size=m)
        vb = rng.normal(size=n) + 1j * rng.normal(size=n)
        prod = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        mat += w * np.outer(prod, prod.conj())
    return validate_density(mat, Dims(m, n))


def test_c07_no_false_positives():
    rng = np.random.default_rng(707)
    dims_pool = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]
    detections = 0
    worst_bound = -np.inf
    for trial in range(200):
        m, n = dims_pool[trial % len(dims_pool)]
        rho = _random_separable(rng, m, n)
        flag, _ = detect_entanglement(rho)
        detections += int(flag)
        worst_bound = max(worst_bound, cren_lower_bound(rho).bound)
    ok = detections == 0 and worst_bound <= 1e-9
    _line(
        ok,
        "C7 no false positives",
        f"{detections} detections over 200 separable states (want 0), max bound {worst_bound:.2e} (<=1e-9)",
    )
    assert ok


def test_c08_closed_form_vs_optimizer():
    from entwit.generators import so_generators
    from entwit.witness import bell_max, nonlinear_max

    pairs = [p for p, _ in so_generators(3)]
    cfg = OptimizerConfig(restarts=4, seed=808, step_tol=1e-5)
    worst_nl = worst_bl = 0.0
    for trial in range(50):
        rho = random_density(Dims(3, 3), 9, seed=80800 + trial)
        for alpha in pairs:
            for beta in pairs:
                _, v = optimize_settings(rho, alpha, beta, "nonlinear", cfg)
                worst_nl = max(worst_nl, abs(v - nonlinear_max(rho, alpha, beta)))
                _, v = optimize_settings(rho, alpha, beta, "bell", cfg)
                worst_bl = max(worst_bl, abs(v - bell_max(rho, alpha, beta)))
    ok = worst_nl < 1e-4 and worst_bl < 1e-4
    _line(
        ok,
        "C8 closed form vs optimizer",
        f"worst nonlinear gap {worst_nl:.2e}, worst bell gap {worst_bl:.2e} (<1e-4), 50 states x 9 subspaces",
    )
    assert ok


def _chsh_tilde_operator(settings):
    def tilde(pair, vec):
        ell = generator_matrix(pair)
        return ell @ embed_observable(pair, vec).mat @ ell.conj().T

    a1, a2 = tilde(settings.alpha, settings.a1), tilde(settings.alpha, settings.a2)
    b1, b2 = tilde(settings.beta, settings.b1), tilde(settings.beta, settings.b2)
    return np.kron(a1, b1) + np.kron(a1, b2) + np.kron(a2, b1) - np.kron(a2, b2)


def test_c09_shot_estimator():
    from entwit.witness import estimate_mean_shots

    rho = isotropic(3, 0.5)
    pair = GeneratorPair(0, 1, 3)
    settings, _ = optimize_settings(rho, pair, pair, "bell", OptimizerConfig(restarts=6, seed=909))
    op = _chsh_tilde_operator(settings)
    exact = np.trace(rho.mat @ op).real

    ratios = []
    for rep in range(50):
        _, e1 = estimate_mean_shots(rho, op, 10_000, seed=90900 + rep)
        _, e4 = estimate_mean_shots(rho, op, 40_000, seed=95900 + rep)
        ratios.append(e4 / e1)
    ratio = float(np.mean(ratios))

    hits = 0
    for trial in range(200):
        mean, err = estimate_mean_shots(rho, op, 10_000, seed=99000 + trial)
        hits += int(abs(mean - exact) <= 3.0 * err)
    ok = 0.4 <= ratio <= 0.6 and hits >= 190
    _line(
        ok,
        "C9 shot estimator",
        f"stderr ratio 4e4/1e4 shots = {ratio:.3f} (in [0.4,0.6]), "
        f"{hits}/200 trials within 3 stderr (>=190)",
    )
    assert ok


def test_c10_clip_variant_regression():
    pplus = max_entangled(3).projector()
    # the kernel on the matrix alone; the projector, which keeps its vector, reads the closed form
    kernel = validate_density(pplus.mat, pplus.dims)
    literal = cren_lower_bound(kernel, literal_min=True).bound
    shipped = cren_lower_bound(kernel).bound
    ok = abs(literal) < 1e-12 and abs(shipped - 1.0) < 1e-12 and abs(cren_lower_bound(pplus).bound - 1.0) < 1e-12
    _line(
        ok,
        "C10 clip-variant regression",
        f"clip-below bound {literal:.2e} (target 0), shipped clip-above bound {shipped:.10f} (target 1 = exact CREN)",
    )
    assert ok
