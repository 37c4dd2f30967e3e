"""One benchmark process: set up a workload, warm it up, time it, check it.

Started by run.py, never by hand.  The process start is part of the set-up
it reports: ``t_ready`` is a CLOCK_MONOTONIC reading (shared by every process
on the host) taken just before the first timed op, so run.py subtracts its
own reading from just before the spawn.  The last stdout line is one JSON
object.

Workloads drive the public entwit API in a closed loop with a single caller.
Inputs come from ``--seed`` during set-up only; the program receives built
states, never the seed.  Ops run in whole rounds (a round is the workload's
input cycle) and the clock is read only between rounds, so every run holds
the same mix of inputs.  Every op's output is checked after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

PROBE_REPEATS = {"numpy": 300, "scipy": 1}
# Probe time per thread at the nominal host speed, by probe kind (see README).
PROBE_NOMINAL_S = {"numpy": 5.0e-3, "scipy": 6.0e-3, "process": 60.0e-3}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_numpy() -> None:
    # small-array numpy calls driven from Python, like the per-subspace loop
    import numpy as np

    mat = np.arange(16.0).reshape(4, 4) * (1.0 + 0.5j)
    mat = mat + mat.conj().T
    for _ in range(PROBE_REPEATS["numpy"]):
        np.linalg.eigvalsh(mat)
        (mat * mat.T).sum()


def _probe_scipy() -> None:
    # a Nelder-Mead run on a Python closure, like the settings search
    import math

    from scipy.optimize import minimize

    def objective(x):
        return sum((math.cos(v) - 0.1 * k) ** 2 for k, v in enumerate(x))

    minimize(objective, [0.3] * 6, method="Nelder-Mead", options=dict(maxfev=300, xatol=0.0, fatol=0.0))


def probe(kind: str, threads: int = 1) -> float:
    """Seconds a fixed piece of work of the op's kind takes right now.

    The host's speed drifts by tens of percent over seconds to minutes (a
    shared machine), and the drift reaches CPU time as well as wall time.
    Op times are scaled by threads * PROBE_NOMINAL_S[kind] / probe time,
    measured just before and just after each op, to give ms at the nominal
    host speed.  The probe resembles the op, because code of different kinds
    slows down by different amounts: "numpy" is small numpy calls, "scipy" a
    Nelder-Mead search, "process" starts and ends a bare interpreter.
    A probe runs in as many threads as the op keeps busy: those ops also wait
    on the other cores and on handing over the GIL.
    """
    if kind == "process":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        return time.perf_counter() - t0
    work = _probe_numpy if kind == "numpy" else _probe_scipy
    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    work()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


def scale(kind: str, threads: int, seconds: float, before: float, after: float) -> float:
    """`seconds` at the nominal host speed, given the probes around it."""
    return seconds * 2.0 * threads * PROBE_NOMINAL_S[kind] / (before + after)


class BoundLargeD:
    """cren_lower_bound on a fixed cycle of larger states; one op is one call."""

    # (label, m, n, rank); "schmidt" is a canonical Schmidt-form pure state.
    # The 4x4 state anchors the small end and makes the count odd, so the
    # median falls inside one state's latency group (6x12), not between two.
    CYCLE = (
        ("ginibre_4x4", 4, 4, 16),
        ("ginibre_8x8", 8, 8, 64),
        ("pure_8x8", 8, 8, 1),
        ("ginibre_6x12", 6, 12, 72),
        ("schmidt_12x12", 12, 12, 0),
        ("ginibre_12x12", 12, 12, 144),
        ("ginibre_16x16", 16, 16, 256),
    )
    round_len = len(CYCLE)
    probe_kind, probe_threads = "numpy", 1

    def __init__(self, seed: int, root: str) -> None:
        import numpy as np

        import entwit

        self.entwit = entwit
        rng = np.random.default_rng(seed)
        self.states = []
        for label, m, n, rank in self.CYCLE:
            if label.startswith("schmidt"):
                rho = entwit.pure_from_schmidt(rng.dirichlet(np.ones(m)), m).projector()
            else:
                g = rng.normal(size=(m * n, rank)) + 1j * rng.normal(size=(m * n, rank))
                mat = g @ g.conj().T
                rho = entwit.validate_density(mat / np.trace(mat).real, entwit.Dims(m, n))
            self.states.append(rho)
        self._refs: dict[int, tuple[float, float]] = {}

    def op(self, i: int):
        rho = self.states[i % self.round_len]
        t0 = time.perf_counter()
        rep = self.entwit.cren_lower_bound(rho)
        dt = time.perf_counter() - t0
        return dt, (rep.bound, rep.negativity)

    def check(self, i: int, out) -> str | None:
        k = i % self.round_len
        label, m, n, _ = self.CYCLE[k]
        bound, neg = out
        if label.startswith("schmidt"):
            if abs(bound - neg) > 1e-8:
                return f"{label}: bound {bound!r} != negativity {neg!r} (1e-8)"
            return None
        if k not in self._refs:
            import reference

            self._refs[k] = reference.bound_and_negativity(self.states[k].mat, m, n)
        ref_bound, ref_neg = self._refs[k]
        if abs(bound - ref_bound) > 1e-9 or abs(neg - ref_neg) > 1e-9:
            return f"{label}: bound {bound!r} / negativity {neg!r}, reference {ref_bound!r} / {ref_neg!r} (1e-9)"
        return None

    def expected_subspaces(self, ops: int) -> int:
        """C(m,2)*C(n,2) summed over the states of the first `ops` ops."""
        per = [m * (m - 1) // 2 * (n * (n - 1) // 2) for _, m, n, _ in self.CYCLE]
        return sum(per[i % self.round_len] for i in range(ops))


class TilesScan:
    """The README tiles-mixture scan, in-process; one op is one complete scan."""

    round_len = 1
    POINTS = 100
    # run_scan's default pool size when ENTWIT_THREADS is unset
    probe_kind, probe_threads = "numpy", min(os.cpu_count() or 1, POINTS)

    def __init__(self, seed: int, root: str) -> None:
        import entwit.cli

        # a fixed input: the seed does not enter the README command
        self.cli = entwit.cli
        self.cfg = entwit.cli.SweepConfig(
            family="bennett_mix", fixed={}, param_name="p",
            lo=0.0, hi=1.0, points=self.POINTS, bisect=True, bisect_tol=1e-6,
        )

    def op(self, i: int):
        t0 = time.perf_counter()
        res = self.cli.run_scan(self.cfg)
        dt = time.perf_counter() - t0
        return dt, (res.nonlinear.status, res.nonlinear.value, res.bell.status, res.bell.value)

    def check(self, i: int, out) -> str | None:
        nl_status, nl, bell_status, bell = out
        if nl_status != "ok" or bell_status != "ok":
            return f"threshold status {nl_status!r} / {bell_status!r}"
        if abs(nl - 0.18221) > 5e-5 or abs(bell - 0.57602) > 5e-5:
            return f"onsets {nl!r} (0.18221+-5e-5) / {bell!r} (0.57602+-5e-5)"
        return None


class OptimizerCheck:
    """C8's cross-check: one op runs optimize_settings for "nonlinear" and then
    "bell" on one subspace pair of a full-rank 3x3 state."""

    STATES = 64
    round_len = 9  # the 9 subspace pairs of one state
    probe_kind, probe_threads = "scipy", 1

    def __init__(self, seed: int, root: str) -> None:
        import numpy as np

        import entwit

        self.entwit = entwit
        rng = np.random.default_rng(seed)
        self.states = []
        for _ in range(self.STATES):
            g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            mat = g @ g.conj().T
            self.states.append(entwit.validate_density(mat / np.trace(mat).real, entwit.Dims(3, 3)))
        local = [entwit.GeneratorPair(j, k, 3) for j, k in ((0, 1), (0, 2), (1, 2))]
        self.pairs = [(a, b) for a in local for b in local]
        self.cfg = entwit.OptimizerConfig(restarts=4, seed=808, step_tol=1e-5)
        self._refs: dict[int, tuple] = {}

    def _where(self, i: int) -> tuple[int, int]:
        return (i // self.round_len) % self.STATES, i % self.round_len

    def op(self, i: int):
        s, p = self._where(i)
        rho, (alpha, beta) = self.states[s], self.pairs[p]
        optimize = self.entwit.optimize_settings
        t0 = time.perf_counter()
        _, v_nl = optimize(rho, alpha, beta, "nonlinear", self.cfg)
        _, v_bell = optimize(rho, alpha, beta, "bell", self.cfg)
        dt = time.perf_counter() - t0
        return dt, (v_nl, v_bell)

    def check(self, i: int, out) -> str | None:
        s, p = self._where(i)
        if s not in self._refs:
            import reference

            self._refs[s] = reference.closed_forms(self.states[s].mat, 3, 3)
        ref_nl, ref_bell = self._refs[s][0][p], self._refs[s][1][p]
        v_nl, v_bell = out
        if abs(v_nl - ref_nl) >= 1e-4 or abs(v_bell - ref_bell) >= 1e-4:
            return f"state {s} pair {p}: optimizer {v_nl!r} / {v_bell!r}, closed form {ref_nl!r} / {ref_bell!r} (1e-4)"
        return None


class CliReadme:
    """The README detect and bound commands, one child process at a time."""

    round_len = 2
    probe_kind, probe_threads = "process", 1

    def __init__(self, seed: int, root: str) -> None:
        # a fixed input: the seed does not enter the README commands
        self.tmp = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.csv = os.path.join(self.tmp, "subspaces.csv")
        self.commands = (
            ["detect", "--family", "isotropic", "--d", "3", "--x", "0.5"],
            ["bound", "--family", "max_entangled", "--d", "3", "--csv", self.csv],
        )
        self.root = root
        self.prefix = [sys.executable, "-m", "entwit.cli"]
        self.child_traces: list[dict] = []
        self._trace_path = None

    def trace(self) -> None:
        """Run the following ops through cli_traced.py, which records spans in the child."""
        self._trace_path = os.path.join(self.tmp, "trace.json")
        self.prefix = [sys.executable, os.path.join(HERE, "cli_traced.py"), self._trace_path]

    def op(self, i: int):
        argv = self.commands[i % 2]
        if argv[0] == "bound" and os.path.exists(self.csv):
            os.remove(self.csv)
        t0 = time.perf_counter()
        proc = subprocess.run(self.prefix + argv, cwd=self.root, capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        csv_lines = None
        if argv[0] == "bound" and os.path.exists(self.csv):
            with open(self.csv, encoding="utf-8") as fh:
                csv_lines = len(fh.read().splitlines())
        if self._trace_path is not None and os.path.exists(self._trace_path):
            with open(self._trace_path, encoding="utf-8") as fh:
                self.child_traces.append(json.load(fh))
            os.remove(self._trace_path)
        return dt, (argv[0], proc.returncode, proc.stdout, proc.stderr[-500:], csv_lines)

    def check(self, i: int, out) -> str | None:
        command, code, stdout, stderr, csv_lines = out
        if code != 0:
            return f"{command}: exit code {code}: {stderr.strip()}"
        doc = json.loads(stdout)
        if command == "detect":
            if doc["entangled"] is not True or abs(doc["nonlinear_max"] - 1.8) > 1e-8:
                return f"detect: entangled {doc['entangled']!r}, nonlinear_max {doc['nonlinear_max']!r} (1.8, 1e-8)"
        elif abs(doc["bound"] - 1.0) > 1e-8 or csv_lines != 10:
            return f"bound: {doc['bound']!r} (1, 1e-8), CSV lines {csv_lines!r} (10)"
        return None


WORKLOADS = {
    "bound_large_d": BoundLargeD,
    "tiles_scan": TilesScan,
    "optimizer_check": OptimizerCheck,
    "cli_readme": CliReadme,
}


def timed_phase(wl, seconds: float, first: int) -> dict:
    """Run whole rounds until `seconds` have passed; check every op afterwards.

    A host-speed probe runs between ops, outside the op's own timing.
    """
    latencies, scaled, outputs = [], [], []
    kind, threads = wl.probe_kind, wl.probe_threads
    i = first
    before = probe(kind, threads)
    probes = [before]
    start = now()
    deadline = start + seconds
    while True:
        for _ in range(wl.round_len):
            try:
                dt, out = wl.op(i)
            except Exception:  # an op that raises counts as failed; the run goes on
                dt, out = None, traceback.format_exc(limit=3)
            after = probe(kind, threads)
            probes.append(after)
            if dt is not None:
                latencies.append(dt)
                scaled.append(scale(kind, threads, dt, before, after))
            outputs.append((dt is not None, out))
            before = after
            i += 1
        if now() >= deadline:
            break
    errors = []
    for k, (ran, out) in enumerate(outputs):
        try:
            err = wl.check(first + k, out) if ran else out
        except Exception:  # malformed output fails its op, not the run
            err = traceback.format_exc(limit=3)
        if err is not None:
            errors.append(err)
    return {
        "latencies_s": latencies,
        "scaled_s": scaled,
        "probes_s": probes,
        "wall_s": now() - start,
        "attempted": len(outputs),
        "failed": len(errors),
        "errors": errors[:5],
    }


def peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, args.root)
    try:
        result = run(wl, args)
    finally:
        if isinstance(wl, CliReadme):
            shutil.rmtree(wl.tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(wl, args) -> dict:
    wl.op(0)  # warm-up, part of set-up
    t_ready = now()
    result = {"t_ready": t_ready, "probe_s": probe("process"), "scan_threads_default": TilesScan.probe_threads}
    if args.setup_only:
        return result
    in_children = isinstance(wl, CliReadme)
    if not args.trace:
        result["timed"] = timed_phase(wl, args.seconds, 0)
        result["peak_rss_kb"] = peak_rss_kb(in_children)
        return result

    # untraced first, then traced, half the time each, same op sequence
    import tracer

    result["untraced"] = timed_phase(wl, args.seconds / 2, 0)
    if in_children:
        wl.trace()
        traced = timed_phase(wl, args.seconds / 2, 0)
        agg = tracer.merge([doc["aggregate"] for doc in wl.child_traces])
        spans = {"processes": [doc["spans"] for doc in wl.child_traces]}
    else:
        tr = tracer.Tracer()
        tr.install()
        tr.enabled = True
        traced = timed_phase(wl, args.seconds / 2, 0)
        tr.enabled = False
        agg = tr.aggregate()
        spans = tr.rows()
    result["traced"] = traced
    result["aggregate"] = agg
    if isinstance(wl, BoundLargeD):
        result["expected_subspaces"] = wl.expected_subspaces(traced["attempted"])
    path = os.path.join(args.root, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, **spans}, fh)
    result["spans_path"] = os.path.relpath(path, args.root)
    return result


if __name__ == "__main__":
    sys.exit(main())
