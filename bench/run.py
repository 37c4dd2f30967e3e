"""entwit benchmark: one entry point for every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it give the provenance, each metric by name and unit, and
the fail fraction.  The exit code is 0 only if every op passed its check.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from worker import now, probe, scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "bench", "worker.py")

# The tail percentile of each workload is the highest one with at least 10
# samples beyond it at --seconds 20 on the seed code (2-core host), chosen
# where it falls inside one input's latency group rather than between two.
TAIL_PERCENTILE = {
    "bound_large_d": 65,
    "tiles_scan": 85,
    "optimizer_check": 90,
    "cli_readme": 55,
}
SETUP_RUNS = 3  # set-up is measured this many times per run; the median is reported
STARTUP_RUNS = 3  # interpreter and import start-up probes per traced run
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
LAYER_CALLS = (
    "witness.subspace_report", "qstate.validate_density", "states.build",
    "states.bennett_rho", "qstate.negativity", "generators.so_generators", "witness.minimize",
)
LAYER_SELF = (
    "witness.subspace_report", "witness.subspace_reports", "qstate.validate_density",
    "states.build", "qstate.negativity", "generators.so_generators",
    "cren.cren_lower_bound", "witness.optimize_settings", "cli.run_scan",
)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ENTWIT_THREADS", None)  # the scan runs the default user path
    return env


def spawn_worker(args, env: dict, *extra: str) -> tuple[float, dict]:
    """Spawn one worker; return the monotonic time just before the spawn and its result."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT, *extra,
    ]
    t_spawn = now()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(args, env: dict, *extra: str) -> tuple[float, float, dict]:
    """Raw and host-speed-scaled seconds from spawn to the worker's first timed op.

    Set-up is mostly interpreter start and imports, so it is scaled by the
    process probe, run just before the spawn and by the worker just after set-up.
    """
    before = probe("process")
    t_spawn, res = spawn_worker(args, env, *extra)
    raw = res["t_ready"] - t_spawn
    return raw, scale("process", 1, raw, before, res["probe_s"]), res


def save_samples(args, res: dict) -> str:
    """Write the worker's per-op samples (raw, scaled, probes) under .bench_out."""
    path = os.path.join(ROOT, ".bench_out", f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in res.items() if k != "aggregate"}, fh)
    return os.path.relpath(path, ROOT)


def check_source(env: dict) -> None:
    """Import the program once (this also fills its bytecode cache) and make
    sure it is the checkout's copy, not an installed one."""
    proc = subprocess.run(
        [sys.executable, "-c", "import entwit.cli; print(entwit.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import entwit from {SRC}:\n{proc.stderr[-2000:]}")
    found = os.path.realpath(proc.stdout.strip())
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"entwit imported from {found}, not from {SRC}")


def startup_ms(env: dict) -> dict:
    """Interpreter start and import times, medians over STARTUP_RUNS processes."""
    bare, entwit_ms, cli_ms, scipy_ms = [], [], [], []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import entwit.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e3
                except ValueError:  # the header line
                    continue
        entwit_ms.append(cumulative.get("entwit", 0.0))
        cli_ms.append(cumulative.get("entwit.cli", 0.0))
        scipy_ms.append(cumulative.get("scipy.optimize", 0.0))
    med = statistics.median
    return {
        "startup.python_ms": med(bare),
        "startup.import_entwit_ms": med(entwit_ms),
        "startup.import_cli_ms": med(cli_ms),
        "startup.import_scipy_optimize_ms": med(scipy_ms),
    }


def layer_metrics(agg: dict, ops: int) -> dict:
    """Per-op figures from a traced phase of `ops` ops."""
    layers = agg["layers"]

    def entry(name: str) -> dict:
        return layers.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}})

    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls_per_op"] = entry(name)["calls"] / ops
    for name in LAYER_SELF:
        out[f"{name}.self_ms_per_op"] = entry(name)["self_s"] * 1e3 / ops
    counts = entry("witness.subspace_reports")["counts"]
    subspaces = counts.get("subspaces", 0)
    out["witness.subspaces_per_op"] = subspaces / ops
    out["witness.subspaces_nonempty_ratio"] = counts.get("nonempty", 0) / subspaces if subspaces else 0.0
    out["witness.subspaces_violating_per_op"] = counts.get("violating", 0) / ops
    out["witness.minimize.nfev_per_op"] = entry("witness.minimize")["counts"].get("nfev", 0) / ops
    out["witness.minimize.ms_per_op"] = entry("witness.minimize")["incl_s"] * 1e3 / ops
    grid = entry("cli.run_scan")["counts"].get("grid_points", 0)
    out["cli.scan.states_per_op"] = agg["scan_states"] / ops
    out["cli.scan.probes_per_op"] = (agg["scan_states"] - grid) / ops
    return out


def provenance(args, env: dict) -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    commit = "unknown"
    try:
        git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {k: v for k, v in os.environ.items() if k in THREAD_VARS or k.startswith("OMP_")},
        "ENTWIT_THREADS_cleared": os.environ.get("ENTWIT_THREADS"),
    }


def end_to_end(args, env: dict, info: dict) -> tuple[dict, dict]:
    raw_setups, setups = [], []
    for k in range(SETUP_RUNS):
        raw, scaled, res = setup_time(args, env, *(() if k == SETUP_RUNS - 1 else ("--setup-only",)))
        raw_setups.append(raw)
        setups.append(scaled)
    timed = res["timed"]
    lat, raw = timed["scaled_s"], timed["latencies_s"]
    info["samples_file"] = save_samples(args, res)
    pct = TAIL_PERCENTILE[args.workload]
    info.update(
        samples=len(lat),
        tail_percentile=pct,
        setup_runs_s=setups,
        raw={
            "op_ms_p50": statistics.median(raw) * 1e3 if raw else None,
            "op_ms_tail": percentile(raw, pct) * 1e3 if raw else None,
            "ops_per_s": len(raw) / timed["wall_s"],
            "setup_s": statistics.median(raw_setups),
        },
        scan_threads=res["scan_threads_default"],
        fail_frac=timed["failed"] / timed["attempted"],
        errors=timed["errors"],
    )
    metrics = {
        "op_ms_p50": (statistics.median(lat) * 1e3 if lat else float("nan"), "ms"),
        "op_ms_tail": (percentile(lat, pct) * 1e3 if lat else float("nan"), "ms"),
        "ops_per_s": (len(lat) / sum(lat) if lat else float("nan"), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, timed


def per_layer(args, env: dict, info: dict) -> tuple[dict, dict]:
    _, res = spawn_worker(args, env)
    untraced, traced = res["untraced"], res["traced"]
    info["samples_file"] = save_samples(args, res)
    agg = res["aggregate"]
    ops = traced["attempted"]
    values = layer_metrics(agg, ops)
    values.update(startup_ms(env))
    values["trace.overhead_frac"] = (
        statistics.median(traced["scaled_s"]) / statistics.median(untraced["scaled_s"]) - 1.0
    )
    units = {}
    for name in values:
        if name.endswith("ms_per_op") or name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_ratio") or name.endswith("_frac"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    info.update(
        samples_untraced=len(untraced["latencies_s"]),
        samples_traced=len(traced["latencies_s"]),
        untraced_layers=agg["missing"],
        scan_threads=agg["scan_threads"] or res["scan_threads_default"],
        spans=res["spans_path"],
        errors=untraced["errors"] + traced["errors"],
    )
    if "expected_subspaces" in res:
        info["expected_subspaces_per_op"] = res["expected_subspaces"] / ops
    counted = {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
    }
    info["fail_frac"] = counted["failed"] / counted["attempted"]
    return {name: (val, units[name]) for name, val in values.items()}, counted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = child_env()
    try:
        if not os.path.isfile(os.path.join(SRC, "entwit", "__init__.py")):
            raise RuntimeError(f"no entwit sources under {SRC}; run from the root of a checkout")
        check_source(env)
        info = provenance(args, env)
        metrics, counted = (per_layer if args.trace else end_to_end)(args, env, info)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(json.dumps(info, sort_keys=True))
    notes = {}
    if not args.trace:
        notes = {"op_ms_p50": f"  (n={info['samples']})", "op_ms_tail": f"  (p{info['tail_percentile']}, n={info['samples']})"}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}{notes.get(name, '')}")
    print(f"fail_frac = {info['fail_frac']:.6g} ratio ({counted['failed']} of {counted['attempted']} ops)")
    for err in info["errors"]:
        print(f"FAILED: {err}")
    failed = counted["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": counted["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
