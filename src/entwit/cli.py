"""Command-line front end: detection, bound computation, parameter sweeps,
threshold bisection, and a self-test oracle suite.  Each handler imports
the modules that only it runs (cren, scan, search), so `entwit detect` loads
none of them and `entwit bound` only cren; the sweep and bisection engine
is entwit.scan, whose API this module re-exports on first access.

Exit codes: 0 success, 2 bad arguments (flags, including a flag the family
does not take, sweep config, including a --range that is not finite or
whose span hi - lo overflows and --bisect over an integer parameter such
as d, and a --json or --csv path that cannot be opened for writing; the
output files are opened, and so emptied, before any state is built) and an
output that cannot be written (a full device: one line on stderr, and what
was already written stays), 3 an error raised while building a state
(parameter outside its domain, unreadable state file, invalid matrix, an
allocation larger than memory), 4 selftest failure.  A reader that closes
stdout early (`entwit scan ... | head`) stops the command at its next write,
quietly and with exit 0; what was already written to a file stays.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .generators import GeneratorPair, PAULI, rotation_zyz, triad_from_rotation
from .qstate import Dims, negativity
from .states import (
    FILE_FAMILY,
    StateSpec,
    _BUILD_ERRORS,
    _FAMILIES,
    _STATE_FLAGS,
    _family_spec,
    isotropic,
    pure_from_schmidt,
    random_density,
)
from .witness import (
    WitnessSettings,
    _csv_text,
    bell_max,
    best_report,
    detect_entanglement,
    estimate_mean_shots,
    nonlinear_max,
    nonlinear_normalized,
    project_state,
    reports_to_csv,
)

# every family whose parameters are all state flags, the seed or the rank
_CLI_FAMILIES = tuple(
    family for family, (names, *_) in _FAMILIES.items() if set(names) <= {*_STATE_FLAGS, "seed", "rank"}
)
# the scan API that entwit.cli re-exports from entwit.scan (__getattr__)
_SCAN_API = ("SCAN_HEADER", "ScanPoint", "ScanResult", "SweepConfig", "Threshold", "run_scan", "scan_csv")


def __getattr__(name: str):
    """The scan API, imported from entwit.scan on first access and then bound
    here, so that `detect` and `bound` never load the scan engine."""
    if name not in _SCAN_API:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import scan

    globals().update((api, getattr(scan, api)) for api in _SCAN_API)
    return globals()[name]


# ---------------------------------------------------------------------------
# argument plumbing

def _seed(text: str) -> int:
    """--seed: a non-negative integer in digits; anything else is a bad argument (exit 2)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", metavar="PATH", help="JSON state document to load")
    p.add_argument("--family", choices=_CLI_FAMILIES, help="built-in state family")
    for name, (kind, text) in _STATE_FLAGS.items():
        p.add_argument(f"--{name}", type=kind, help=text)
    p.add_argument("--seed", type=_seed, default=0, help="seed for random families and checks")


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
    except _BUILD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(3) from None


def _open_outputs(stack: contextlib.ExitStack, *paths):
    """Open each given output path for writing (None stays None), before any
    state is built; a path that cannot be opened exits 2, naming it."""
    files = []
    for path in paths:
        try:
            files.append(path and stack.enter_context(open(path, "w", encoding="utf-8", newline="")))
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            raise SystemExit(2) from None
    return files


def _emit(doc: dict, fh) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_detect(parser, args) -> int:
    spec = _spec_from_args(parser, args)
    with contextlib.ExitStack() as stack:
        (json_fh,) = _open_outputs(stack, args.json)
        rho = _build_state(spec.build)
        flag, reports = detect_entanglement(rho)
        top = best_report(reports)
        doc = {
            "entangled": flag,
            "best_subspace": {"alpha": [top.alpha.j, top.alpha.k], "beta": [top.beta.j, top.beta.k]},
            "nonlinear_max": top.nonlinear_max,
            "bell_max": top.bell_max,
            "negativity": negativity(rho),
        }
        _emit(doc, json_fh)
    return 0


def cmd_bound(parser, args) -> int:
    from .cren import _report_doc, cren_lower_bound

    spec = _spec_from_args(parser, args)
    with contextlib.ExitStack() as stack:
        json_fh, csv_fh = _open_outputs(stack, args.json, args.csv)
        rep = cren_lower_bound(_build_state(spec.build), literal_min=args.literal_min)
        _emit(_report_doc(rep), json_fh)
        if csv_fh:
            csv_fh.write(reports_to_csv(rep.reports))
    return 0


def cmd_scan(parser, args) -> int:
    from .scan import SCAN_HEADER, SweepConfig, _scan_chunks, _threshold_doc, _thresholds

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
    crossings = {}
    chunks = _scan_chunks(cfg, args.seed, crossings)
    header = SCAN_HEADER  # written with the first chunk
    with contextlib.ExitStack() as stack:
        sinks = [sys.stdout, *filter(None, _open_outputs(stack, args.csv))]
        # each chunk's rows go out as soon as it is done; a build error exits 3 after them
        while (chunk := _build_state(next, chunks, None)) is not None:
            text = _csv_text(header, chunk)
            header = None
            for fh in sinks:
                fh.write(text)
                fh.flush()
    if args.bisect:
        nl, bell = _build_state(_thresholds, cfg, args.seed, crossings)
        print(json.dumps({"nonlinear": _threshold_doc(nl), "bell": _threshold_doc(bell)}))
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
    from .cren import cren_lower_bound, pure_sum_identity
    from .search import OptimizerConfig, optimize_settings

    rng = np.random.default_rng(args.seed)
    lines = []

    def check(name: str, ok: bool, detail: str, informational: bool = False) -> None:
        tag = "INFO" if informational else ("PASS" if ok else "FAIL")
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
    pplus = isotropic(3, 1.0)
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
    mean, err = estimate_mean_shots(isotropic(2, 1.0), op, shots, seed=args.seed + 2)
    check(
        "shot-estimate",
        True,
        f"mean = {mean:.6g}, exact = {exact:.6g}, stderr = {err:.3g} ({shots} shots)",
        informational=True,
    )

    for line in lines:
        print(line)
    tags = [line.split(" ", 1)[0] for line in lines]
    gated, failed = len(tags) - tags.count("INFO"), tags.count("FAIL")
    print(f"{gated} checks gated, {gated - failed} passed, {failed} failed")
    return 4 if failed else 0


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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--literal-min", action="store_true", help="also report the clip-below bound variant")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(parser, args)
        sys.stdout.flush()  # a stdout that cannot be written fails here, not at interpreter exit
        return code
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except OSError as exc:
        # an output cannot be written: the reader is gone (exit 0) or the device is
        # full.  What stdout holds is kept if it can be; otherwise stdout goes to
        # devnull, so that the flush at interpreter exit does not fail again
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
