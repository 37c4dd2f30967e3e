"""Command-line front end: detection, bound computation, parameter sweeps,
threshold bisection, and a self-test oracle suite.

Sweeps emit violation-positive differences so that "curve above zero" means
"detected": nonlinear_D = max_ab nonlinear_max - 1, and bell_D =
max_ab (bell_max / c) - 2.  The Bell difference uses the weight-normalized
value because the raw subspace mean is suppressed by c and would never reach
the two-qubit bound on its own (see witness module notes).

Exit codes: 0 success, 2 bad arguments (flags, including a flag the family
does not take, and sweep config), 3 an error raised while building a state
(parameter outside its domain, unreadable state file, invalid matrix, an
allocation larger than memory), 4 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cren import cren_lower_bound, pure_sum_identity, report_to_json
from .generators import GeneratorPair, PAULI, rotation_zyz, triad_from_rotation
from .qstate import Dims, StateValidationError, negativity
from .states import FILE_FAMILY, StateSpec, _FAMILIES, max_entangled, pure_from_schmidt, random_density
from .witness import (
    OptimizerConfig,
    TAU_DETECT,
    WitnessSettings,
    _csv_text,
    bell_max,
    best_report,
    detect_entanglement,
    estimate_mean_shots,
    nonlinear_max,
    nonlinear_normalized,
    optimize_settings,
    project_state,
    reports_to_csv,
)

SCAN_HEADER = "param,nonlinear_D,bell_D,bound,negativity"

# state flag -> (type, help); also the --scan-param choices
_STATE_FLAGS = {
    "d": (int, "local dimension"),
    "x": (float, "isotropic mixing parameter"),
    "p": (float, "mixture weight"),
    "a": (float, "weakly inseparable family parameter"),
}
# every family whose parameters are all state flags, the seed or the rank
_CLI_FAMILIES = tuple(
    family for family, (names, _) in _FAMILIES.items() if set(names) <= {*_STATE_FLAGS, "seed", "rank"}
)


def _family_spec(family: str, flags: dict, seed: int) -> StateSpec:
    """A family's StateSpec from its flag values, --seed (random families) and
    rank d^2; a flag the family does not take, or lacks, is a ValueError naming it."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    names = _FAMILIES[family][0]
    for name in flags:
        if name not in names:
            raise ValueError(f"family {family} does not take --{name}")
    for name in names:
        if name not in flags and name not in ("seed", "rank"):
            raise ValueError(f"family {family} requires --{name}")
    params = dict(flags)
    if "seed" in names:
        params["seed"] = seed
    if "rank" in names:
        params["rank"] = params["d"] ** 2
    return StateSpec(family, params)


@dataclass(frozen=True)
class SweepConfig:
    """One free parameter swept over a grid, everything else held fixed."""

    family: str
    fixed: dict
    param_name: str
    lo: float
    hi: float
    points: int
    bisect: bool = False
    bisect_tol: float = 1e-5

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("range must satisfy lo < hi")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not self.bisect_tol > 0:  # also rejects NaN
            raise ValueError("bisect tolerance must be > 0")
        if self.param_name in self.fixed:
            raise ValueError(f"swept parameter {self.param_name!r} also given as a fixed value")
        _point_spec(self, self.lo, 0)  # flag errors surface here, before any state is built


@dataclass(frozen=True)
class ScanPoint:
    param: float
    nonlinear_d: float
    bell_d: float
    bound: float
    negativity: float


@dataclass(frozen=True)
class Threshold:
    """Bisected detection onset; value is None when the grid shows no
    non-violating -> violating crossing."""

    value: float | None
    status: str  # "ok" or "no threshold in range"


@dataclass(frozen=True)
class ScanResult:
    points: list[ScanPoint]
    nonlinear: Threshold | None
    bell: Threshold | None


def _point_spec(cfg: SweepConfig, value: float, seed: int) -> StateSpec:
    return _family_spec(cfg.family, {**cfg.fixed, cfg.param_name: value}, seed)


def _scan_point(cfg: SweepConfig, value: float, seed: int) -> ScanPoint:
    """Build and evaluate the state at one value; every grid point and bisection probe comes here."""
    rep = cren_lower_bound(_point_spec(cfg, value, seed).build())
    d_nl = max(r.nonlinear_max for r in rep.reports) - 1.0
    # empty subspaces report bell_max = 0 and cannot raise the maximum
    d_bell = max(r.bell_max / r.c if r.bell_max else 0.0 for r in rep.reports) - 2.0
    return ScanPoint(value, d_nl, d_bell, rep.bound, rep.negativity)


def run_scan(cfg: SweepConfig, base_seed: int = 0) -> ScanResult:
    """Evaluate the sweep grid and optionally bisect both detection
    thresholds.  Deterministic for fixed cfg and base_seed."""
    grid = np.linspace(cfg.lo, cfg.hi, cfg.points)
    points = [_scan_point(cfg, float(v), base_seed + i) for i, v in enumerate(grid)]
    nl = bell = None
    if cfg.bisect:
        nl = _bisect_threshold(cfg, base_seed, points, "nonlinear_d")
        bell = _bisect_threshold(cfg, base_seed, points, "bell_d")
    return ScanResult(points, nl, bell)


def _bisect_threshold(cfg: SweepConfig, base_seed: int, points: list[ScanPoint], field: str) -> Threshold:
    """Bisect the first grid crossing of the ScanPoint difference `field`."""
    first = next((i for i, pt in enumerate(points) if getattr(pt, field) > TAU_DETECT), None)
    if first is None or first == 0:
        # nothing violates, or everything does: no crossing inside the range
        return Threshold(None, "no threshold in range")
    lo, hi = points[first - 1].param, points[first].param
    # probe seeds continue past the grid indices so bisection stays
    # deterministic for random families too
    seed = base_seed + cfg.points
    while hi - lo > cfg.bisect_tol:
        mid = 0.5 * (lo + hi)
        if getattr(_scan_point(cfg, mid, seed), field) > TAU_DETECT:
            hi = mid
        else:
            lo = mid
        seed += 1
    return Threshold(0.5 * (lo + hi), "ok")


def scan_csv(result: ScanResult) -> str:
    return _csv_text(
        SCAN_HEADER, ((pt.param, pt.nonlinear_d, pt.bell_d, pt.bound, pt.negativity) for pt in result.points)
    )


def _threshold_doc(t: Threshold | None):
    return None if t is None else {"threshold": t.value, "status": t.status}


# ---------------------------------------------------------------------------
# argument plumbing

def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", metavar="PATH", help="JSON state document to load")
    p.add_argument("--family", choices=_CLI_FAMILIES, help="built-in state family")
    for name, (kind, text) in _STATE_FLAGS.items():
        p.add_argument(f"--{name}", type=kind, help=text)
    p.add_argument("--seed", type=int, default=0, help="seed for random families and checks")


def _flags(args) -> dict:
    return {name: getattr(args, name) for name in _STATE_FLAGS if getattr(args, name) is not None}


def _spec_from_args(parser, args) -> StateSpec:
    if bool(args.state) == bool(args.family):
        parser.error("exactly one of --state or --family is required")
    flags = _flags(args)
    if args.state:
        flags["path"] = args.state
    try:
        return _family_spec(args.family or FILE_FAMILY, flags, args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def _build_state(make, *args):
    """make(*args); an error raised while building a state exits 3."""
    try:
        return make(*args)
    except (StateValidationError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(3) from None


def _emit(doc: dict, json_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_detect(parser, args) -> int:
    rho = _build_state(_spec_from_args(parser, args).build)
    flag, reports = detect_entanglement(rho)
    top = best_report(reports)
    doc = {
        "entangled": flag,
        "best_subspace": {"alpha": [top.alpha.j, top.alpha.k], "beta": [top.beta.j, top.beta.k]},
        "nonlinear_max": top.nonlinear_max,
        "bell_max": top.bell_max,
        "negativity": negativity(rho),
    }
    _emit(doc, args.json)
    return 0


def cmd_bound(parser, args) -> int:
    rho = _build_state(_spec_from_args(parser, args).build)
    rep = cren_lower_bound(rho, literal_min=args.literal_min)
    text = report_to_json(rep)
    doc = json.loads(text)
    _emit(doc, args.json)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(reports_to_csv(rep.reports))
    return 0


def cmd_scan(parser, args) -> int:
    if not args.family or args.state:
        parser.error("scan requires --family and takes no --state")
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        parser.error(f"--range must look like lo:hi, got {args.range!r}")
    fixed = {name: val for name, val in _flags(args).items() if name != args.scan_param}
    try:
        cfg = SweepConfig(
            family=args.family,
            fixed=fixed,
            param_name=args.scan_param,
            lo=lo,
            hi=hi,
            points=args.points,
            bisect=args.bisect,
            bisect_tol=args.tol,
        )
    except ValueError as exc:
        parser.error(str(exc))
    result = _build_state(run_scan, cfg, args.seed)

    text = scan_csv(result)
    sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    if args.bisect:
        print(json.dumps({"nonlinear": _threshold_doc(result.nonlinear), "bell": _threshold_doc(result.bell)}))
    return 0


def _two_qubit_witness_oracle(rho_ab_mat, triad_a, triad_b) -> float:
    def dot(vec):
        return vec[0] * PAULI[0] + vec[1] * PAULI[1] + vec[2] * PAULI[2]

    eye = np.eye(2, dtype=complex)
    a = [dot(triad_a.vector(i)) for i in range(3)]
    b = [dot(triad_b.vector(i)) for i in range(3)]
    corr = np.trace(rho_ab_mat @ (np.kron(a[0], b[0]) + np.kron(a[1], b[1]))).real
    summ = np.trace(rho_ab_mat @ (np.kron(a[2], eye) + np.kron(eye, b[2]))).real
    last = np.trace(rho_ab_mat @ np.kron(a[2], b[2])).real
    return math.hypot(corr, summ) - last


def cmd_selftest(parser, args) -> int:
    rng = np.random.default_rng(args.seed)
    lines = []
    failures = 0

    def check(name: str, ok: bool, detail: str, informational: bool = False) -> None:
        nonlocal failures
        tag = "INFO" if informational else ("PASS" if ok else "FAIL")
        if not ok and not informational:
            failures += 1
        lines.append(f"{tag} {name}: {detail}")

    # reduction identity: embedded witness over c vs plain two-qubit witness
    worst = 0.0
    pair_pool = [GeneratorPair(0, 1, 3), GeneratorPair(0, 2, 3), GeneratorPair(1, 2, 3)]
    for _ in range(20):
        rho = random_density(Dims(3, 3), 9, seed=int(rng.integers(1 << 31)))
        alpha = pair_pool[rng.integers(3)]
        beta = pair_pool[rng.integers(3)]
        s = WitnessSettings(
            alpha,
            beta,
            triad_from_rotation(rotation_zyz(*rng.uniform(0, 2 * np.pi, 3))),
            triad_from_rotation(rotation_zyz(*rng.uniform(0, 2 * np.pi, 3))),
        )
        two_qubit = _two_qubit_witness_oracle(project_state(rho, alpha, beta).rho_ab.mat, s.triad_a, s.triad_b)
        worst = max(worst, abs(two_qubit - nonlinear_normalized(rho, s)))
    check("reduction-identity", worst < 1e-9, f"max |two-qubit - embedded/c| = {worst:.3g} over 20 states")

    # pure-state trace-norm identity
    worst = 0.0
    for _ in range(10):
        mu = rng.dirichlet(np.ones(3))
        lhs, rhs = pure_sum_identity(pure_from_schmidt(mu, 3))
        worst = max(worst, abs(lhs - rhs))
    check("pure-sum-identity", worst < 1e-9, f"max |lhs - rhs| = {worst:.3g} over 10 spectra")

    # closed forms vs numeric settings search
    rho = random_density(Dims(3, 3), 9, seed=args.seed + 1)
    alpha = beta = GeneratorPair(0, 1, 3)
    cfg = OptimizerConfig(restarts=8, seed=args.seed, step_tol=1e-6)
    _, v_nl = optimize_settings(rho, alpha, beta, "nonlinear", cfg)
    _, v_bl = optimize_settings(rho, alpha, beta, "bell", cfg)
    gap_nl = abs(v_nl - nonlinear_max(rho, alpha, beta))
    gap_bl = abs(v_bl - bell_max(rho, alpha, beta))
    check(
        "closed-form-vs-optimizer",
        gap_nl < 1e-4 and gap_bl < 1e-4,
        f"nonlinear gap = {gap_nl:.3g}, bell gap = {gap_bl:.3g}",
    )

    # maximally entangled qutrit bound
    pplus = max_entangled(3).projector()
    shipped = cren_lower_bound(pplus).bound
    check("max-entangled-bound", abs(shipped - 1.0) < 1e-8, f"bound = {shipped:.10g} (exact CREN is 1)")
    if args.literal_min:
        lit = cren_lower_bound(pplus, literal_min=True).bound
        check(
            "max-entangled-bound-literal-min",
            True,
            f"clip-below variant gives {lit:.6g} vs shipped {shipped:.6g}; divergence expected",
            informational=True,
        )

    # finite-shot estimator sanity (statistical, never gates the exit code)
    op = np.kron(PAULI[2], (PAULI[2] + PAULI[0]) / math.sqrt(2.0))
    exact = 1.0 / math.sqrt(2.0)
    shots = 10000
    mean, err = estimate_mean_shots(max_entangled(2).projector(), op, shots, seed=args.seed + 2)
    check(
        "shot-estimate",
        True,
        f"mean = {mean:.6g}, exact = {exact:.6g}, stderr = {err:.3g} ({shots} shots)",
        informational=True,
    )

    for line in lines:
        print(line)
    gated = sum(1 for ln in lines if not ln.startswith("INFO"))
    print(f"{gated} checks gated, {gated - failures} passed, {failures} failed")
    return 4 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwit",
        description="Entanglement detection via two-qubit subspace witnesses and a lower bound on the convex-roof extended negativity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the nonlinear witness over all subspaces")
    _add_state_flags(p)
    p.add_argument("--json", metavar="PATH", help="also write the report to a file")
    p.set_defaults(handler=cmd_detect)

    p = sub.add_parser("bound", help="compute the CREN lower bound")
    _add_state_flags(p)
    p.add_argument("--json", metavar="PATH", help="also write the report to a file")
    p.add_argument("--csv", metavar="PATH", help="write the per-subspace CSV")
    p.add_argument("--literal-min", action="store_true", help="use the clip-below variant X = min(0, d)")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("scan", help="sweep one parameter, emit CSV, optionally bisect thresholds")
    _add_state_flags(p)
    p.add_argument("--scan-param", required=True, choices=tuple(_STATE_FLAGS))
    p.add_argument("--range", required=True, metavar="LO:HI")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--bisect", action="store_true", help="bisect the detection onset of both witnesses")
    p.add_argument("--tol", type=float, default=1e-5, help="bisection tolerance")
    p.add_argument("--csv", metavar="PATH", help="also write the CSV to a file")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--literal-min", action="store_true", help="also report the clip-below bound variant")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(parser, args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
