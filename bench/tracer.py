"""Outside-in tracer: spans around the public functions of each entwit module.

The program is not edited.  `Tracer.install` wraps each traced function once
and binds that one wrapper in every ``entwit*`` namespace that holds the
original object, because ``cli``, ``cren``, ``states``, ``witness`` and the
package root re-bind names imported from other modules.  A name that is
already a wrapper is left alone, so installing twice cannot double the call
counts.  A traced name the program no longer has is skipped and listed in
``Tracer.missing``; its metrics then read 0.

Spans stay in memory while the run goes; `rows` gives them to the caller,
which writes them when the run ends.  A span's self time is its duration minus the part of its interval
that its child spans cover.  A span opened on a worker thread whose own
stack is empty takes as parent the innermost open span of the thread that
installed the tracer, which is the thread that handed it the work (the scan
pool, for instance).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# Span record layout: [name, parent span or None, t0, t1, extra dict or None, thread id]
NAME, PARENT, T0, T1, EXTRA, TID = range(6)


def _subspace_counts(reports) -> dict:
    from entwit.witness import TAU_C, TAU_DETECT  # already imported: a dict lookup

    return {
        "subspaces": len(reports),
        "nonempty": sum(1 for r in reports if r.c > TAU_C),
        "violating": sum(1 for r in reports if r.nonlinear_max > 1.0 + TAU_DETECT),
    }


def _nfev(result) -> dict:
    return {"nfev": int(result.nfev)}


def _grid_points(result) -> dict:
    return {"grid_points": len(result.points)}


# (module, attribute path, hook turning the return value into span counts)
TRACED = (
    ("entwit.qstate", "validate_density", None),
    ("entwit.qstate", "negativity", None),
    ("entwit.generators", "so_generators", None),
    ("entwit.witness", "subspace_report", None),
    ("entwit.witness", "subspace_reports", _subspace_counts),
    ("entwit.witness", "optimize_settings", None),
    ("entwit.witness", "minimize", _nfev),
    ("entwit.cren", "cren_lower_bound", None),
    ("entwit.states", "bennett_rho", None),
    ("entwit.states", "StateSpec.build", None),
    ("entwit.cli", "run_scan", _grid_points),
)


def span_name(module: str, attr: str) -> str:
    """'entwit.states', 'StateSpec.build' -> 'states.build'."""
    return module.split(".", 1)[1] + "." + attr.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.missing: list[str] = []
        self._local = threading.local()
        self._home_stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        """A wrapper that records one span per call while the tracer is enabled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            try:
                parent = stack[-1] if stack else tracer._home_stack[-1]
            except IndexError:  # nothing open anywhere: a root span
                parent = None
            span = [name, parent, 0.0, 0.0, None, threading.get_ident()]
            stack.append(span)
            span[T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                span[EXTRA] = hook(result)
            return result

        traced.__bench_traced__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in TRACED once and bind the wrapper everywhere."""
        self._home_stack = self._stack()
        for module_name, attr, hook in TRACED:
            module = importlib.import_module(module_name)
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name, None)
            original = None if owner is None else vars(owner).get(leaf)
            if original is None:
                self.missing.append(span_name(module_name, attr))
                continue
            if getattr(original, "__bench_traced__", False):
                continue
            wrapper = self.wrap(span_name(module_name, attr), original, hook)
            if owner is not module:  # a method: the class is its only namespace
                self._bind(owner, leaf, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "entwit" or mod_name.startswith("entwit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every binding install made."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed counts.

        Also counts `states.build` spans below a `cli.run_scan` span
        (``scan_states``) and the most pool threads one scan built them on
        (``scan_threads``; threads other than the scan's own).
        """
        children: dict[int, list[list]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)
        out: dict[str, dict] = {}
        scan_states = 0
        pool_tids: dict[int, set] = {}  # per run_scan span: threads other than its own
        for span in self.spans:
            name = span[NAME]
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}})
            dur = span[T1] - span[T0]
            entry["calls"] += 1
            entry["incl_s"] += dur
            entry["self_s"] += dur - _covered(span, children.get(id(span), ()))
            for key, val in (span[EXTRA] or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + val
            scan = _ancestor(span, "cli.run_scan") if name == "states.build" else None
            if scan is not None:
                scan_states += 1
                tids = pool_tids.setdefault(id(scan), set())
                if span[TID] != scan[TID]:
                    tids.add(span[TID])
        return {
            "layers": out,
            "scan_states": scan_states,
            "scan_threads": max((len(t) for t in pool_tids.values()), default=0),
            "missing": list(self.missing),
        }

    def rows(self) -> dict:
        """Every span as [name, parent index, t0, t1, counts, thread], ready for JSON."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s[NAME], None if s[PARENT] is None else index[id(s[PARENT])], s[T0], s[T1], s[EXTRA], s[TID]]
            for s in self.spans
        ]
        return {"fields": ["name", "parent", "t0", "t1", "counts", "thread"], "spans": rows}


def merge(aggregates: list[dict]) -> dict:
    """Sum the aggregates of several processes into one."""
    out = {"layers": {}, "scan_states": 0, "scan_threads": 0, "missing": []}
    for agg in aggregates:
        for name, entry in agg["layers"].items():
            into = out["layers"].setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}})
            for key in ("calls", "incl_s", "self_s"):
                into[key] += entry[key]
            for key, val in entry["counts"].items():
                into["counts"][key] = into["counts"].get(key, 0) + val
        out["scan_states"] += agg["scan_states"]
        out["scan_threads"] = max(out["scan_threads"], agg["scan_threads"])
        out["missing"] = sorted(set(out["missing"]) | set(agg["missing"]))
    return out


def _covered(span: list, kids) -> float:
    """Length of the union of the kids' intervals, clipped to the span."""
    lo, hi = span[T0], span[T1]
    total = 0.0
    end = lo
    for t0, t1 in sorted((max(k[T0], lo), min(k[T1], hi)) for k in kids):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def _ancestor(span: list, name: str):
    parent = span[PARENT]
    while parent is not None and parent[NAME] != name:
        parent = parent[PARENT]
    return parent
