"""Parameter sweeps and threshold bisection: the engine behind `entwit scan`.

A scan's unit of work is one kernel stack: up to _STACK_BLOCKS 4x4 blocks
of grid states (1,820 states of 3x3), built, evaluated in one _assess call
and written as one block of rows; a stack that fails to build prints
nothing, after the rows of the stacks before it.  Both detection onsets are
bisected together in speculative rounds, one stacked evaluation each, with
the decisions of a serial bisection (see _thresholds).  A scan over its
family's affine parameter builds each stack in one broadcast, and once its
two range ends pass validation at half the tolerances, the states between
them skip it.

Sweeps emit violation-positive differences so that "curve above zero" means
"detected": nonlinear_D = max_ab nonlinear_max - 1, and bell_D =
max_ab (bell_max / c) - 2.  The Bell difference uses the weight-normalized
value because the raw subspace mean is suppressed by c and would never reach
the two-qubit bound on its own (see witness module notes).

The row kernel, _assess, reads a stack of grid states through one gather of
every pair (witness._gather) and solves every partial transpose; its Bell
column reads only each state's largest bell_max / c, so only the pairs whose
trace bound can reach it solve their Gram matrix (_bell_ratios,
_GRAM_MARGIN).  It also returns each pair's reach: its own difference, or
the bound that stood in for it.  On a certified scan, a probe solves only
its own difference, on the pairs whose reach is not quiet at an end of its
grid bracket (_QUIET, _bracket_pairs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cren import _bound
from .qstate import Dims, _checked, _negativities, _require_integer
from .states import _BUILD_ERRORS, _FAMILIES, _STATE_FLAGS, StateSpec, _family_spec
from .witness import (
    TAU_DETECT,
    _bell_d,
    _bell_maxima,
    _correlations,
    _csv_text,
    _gather,
    _nonlinear_columns,
    _nonlinear_d,
)

SCAN_HEADER = "param,nonlinear_D,bell_D,bound,negativity"


@dataclass(frozen=True)
class SweepConfig:
    """One free parameter swept over a grid, everything else held fixed;
    bisect needs a real-valued parameter, not an integer state flag such as d."""

    family: str
    fixed: dict
    param_name: str
    lo: float
    hi: float
    points: int
    bisect: bool = False
    bisect_tol: float = 1e-5

    def __post_init__(self) -> None:
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):  # the span is inf if lo or hi is
            raise ValueError("range must satisfy lo < hi, with lo, hi and hi - lo finite")
        _require_integer("points", self.points, 2)
        if not self.bisect_tol > 0:  # also rejects NaN
            raise ValueError("bisect tolerance must be > 0")
        if self.param_name in self.fixed:
            raise ValueError(f"swept parameter {self.param_name!r} also given as a fixed value")
        if self.bisect and _STATE_FLAGS.get(self.param_name, (float,))[0] is int:
            raise ValueError(f"--bisect needs a real-valued parameter, and {self.param_name} is an integer")
        _point_spec(self, self.lo, 0)  # flag errors surface here, before any state is built

    @cached_property
    def certified_dims(self) -> Dims | None:
        """The dims of the scan's states if every state in [lo, hi] is
        certified valid as built, else None; checked once, on first use.  The
        swept parameter must be its family's affine one, and both range ends
        must build, pass validation at _CERT_MARGIN times TAU_TR and TAU_PSD
        and be their own validated states.  lambda_min is concave and the
        trace affine in the parameter, and an exactly symmetric A and B give
        an exactly symmetric mix."""
        if _FAMILIES[self.family][2] != self.param_name:
            return None
        try:
            mats, dims = _point_spec(self, self.lo, 0).matrix([self.lo, self.hi])
            valid = np.array([_checked(mat, dims, _CERT_MARGIN) for mat in mats])
        except _BUILD_ERRORS:
            return None
        return dims if valid.dtype == mats.dtype and np.array_equal(valid, mats) else None


class ScanPoint(NamedTuple):
    """One grid point or probe; its fields in order are the scan CSV row."""

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


_FIELDS = ("nonlinear_d", "bell_d")  # the detection differences, in bisection order
_STACK_BLOCKS = 1 << 14  # 4x4 blocks one kernel call may hold (4 MB), so large states stack fewer at a time
_CERT_MARGIN = 0.5  # the range ends certify an affine scan at this fraction of TAU_TR and TAU_PSD, far above rounding


# ---------------------------------------------------------------------------
# the row kernel: the figures of a stack of grid states and their pairs' reach

# Gram bounds.  The smallest eigenvalue of T^T T is at most the geometric mean
# |det T|^{2/3} of the three, so tr - |det T|^{2/3} <= s1^2 + s2^2 <= tr with
# tr = tr(T^T T), and the lower bound is at least 2 tr / 3.  A pair whose
# upper bound tr / c^2 falls below its state's best lower bound by this
# relative margin, far above the rounding of either side, cannot hold the
# state's largest bell_max / c.
_GRAM_MARGIN = 1e-9


def _bell_ratios(blk: np.ndarray, c: np.ndarray, live: np.ndarray) -> np.ndarray:
    """bell_max / c, (N, P), of the raw blocks (N, P, 4, 4) with weights c and
    live mask (N, P); 0 on empty pairs.  Only the live pairs that can hold
    their state's maximum (_GRAM_MARGIN) solve their Gram matrix, as
    witness._bell_maxima does; every other live pair reads its upper bound
    2 sqrt(tr / c^2), below that maximum, so each state's largest ratio is the
    all-pairs one to the last bit."""
    t = _correlations(blk)[..., 1:, 1:]
    (a, b, e), (f, g, h), (i, j, k) = entries = np.ascontiguousarray(np.moveaxis(t, (-2, -1), (0, 1)))
    det = a * (g * k - h * j) - b * (f * k - h * i) + e * (f * j - g * i)
    c2 = np.square(np.where(live, c, 1.0))
    upper = np.square(entries).sum(axis=(0, 1)) / c2
    best = np.where(live, upper - np.cbrt(det * det) / c2, 0.0).max(axis=-1, keepdims=True)
    solve = live & (upper >= best * (1.0 - _GRAM_MARGIN))
    ratio = np.where(live, 2.0 * np.sqrt(upper), 0.0)
    ratio[solve] = _bell_maxima(blk[solve], True) / c[solve]
    return ratio


def _assess(stack: np.ndarray, dims: Dims):
    """The scan row figures of a stack (N, mn, mn) of validated same-dims
    states, nonlinear_D, bell_D, bound and negativity, each (N,), and their
    pairs' reach (N, 2, P): for each detection difference in that order, the
    pair's own difference, or an upper bound on it where the Bell column did
    not solve the pair (_bell_ratios), and +inf on a pair that is not live."""
    blk, c, live = _gather(stack, dims)
    raw, _, nonlinear = _nonlinear_columns(blk, c, live)
    ratio = _bell_ratios(blk, c, live)
    reach = np.where(live[:, None], np.stack([nonlinear - 1.0, ratio - 2.0], axis=1), np.inf)
    figures = _nonlinear_d(nonlinear), _bell_d(ratio), _bound(raw, dims, False), _negativities(stack, dims)
    return figures, reach


# A pair whose reach (_assess) is at most _QUIET at both ends of a grid
# bracket of a certified scan stays there between them.  The bracket's states
# are affine in the parameter, so for a level t, lambda_min of each pair's
# partial transpose shifted by t c / 4 is concave in it and
# sqrt(s1^2 + s2^2) - (1 + t / 2) c convex, and the pair's difference exceeds
# t where the first is negative or the second positive.  The gap to
# TAU_DETECT is far above rounding, so such a pair cannot decide a probe
# (_bracket_pairs).
_QUIET = 0.5 * TAU_DETECT


def _bracket_pairs(cfg: SweepConfig, lo_reach: np.ndarray, hi_reach: np.ndarray) -> tuple | None:
    """The pairs that can decide a probe of one detection difference between
    two neighbouring grid points, from their pair reach for that difference:
    on a certified scan, each pair whose reach exceeds _QUIET at either end
    (a pair not live at an end reads +inf there); else None, every pair."""
    if cfg.certified_dims is None:
        return None
    return tuple(np.flatnonzero(np.maximum(lo_reach, hi_reach) > _QUIET).tolist())


def _grid_values(cfg: SweepConfig):
    """Yield the grid values one at a time, bitwise those of np.linspace(cfg.lo, cfg.hi, cfg.points)."""
    delta, div = cfg.hi - cfg.lo, cfg.points - 1
    step = delta / div
    for i in range(div):
        yield cfg.lo + (i * step if step else i / div * delta)  # linspace's branch for a denormal step
    yield cfg.hi


def _per_stack(dims: Dims) -> int:
    """States of these dims that one stack holds: at most _STACK_BLOCKS blocks, at least one state."""
    return max(1, _STACK_BLOCKS // (math.comb(dims.m, 2) * math.comb(dims.n, 2)))


def _validated_stacks(cfg: SweepConfig, values, seeds):
    """Yield (values, dims, stack) of the validated states at the values,
    built with their seeds, in value order: one stack of at most _per_stack
    states at a time, each read lazily from values and seeds.  On a
    certified scan (SweepConfig.certified_dims), each stack is built in one
    broadcast and not validated again, up to the first stack with a value
    outside [lo, hi].  From there each state is built and validated on its
    own, in value order (StateSpec.build), so the first failing value raises
    its own error, and the states are stacked by dims."""
    dims, points = cfg.certified_dims, zip(values, seeds)
    while dims is not None and (run := list(itertools.islice(points, _per_stack(dims)))):
        run_values = [value for value, _ in run]
        if not all(cfg.lo <= value <= cfg.hi for value in run_values):
            points = itertools.chain(run, points)
            break
        yield run_values, dims, _point_spec(cfg, cfg.lo, 0).matrix(run_values)[0]
    built = ((value, _point_spec(cfg, value, seed).build()) for value, seed in points)
    for dims, run in itertools.groupby(built, key=lambda point: point[1].dims):
        while stack := list(itertools.islice(run, _per_stack(dims))):
            yield [value for value, _ in stack], dims, np.array([rho.mat for _, rho in stack])


def _scan_points(cfg: SweepConfig, values, seeds):
    """Yield the scan rows at the values one validated stack at a time (see
    _validated_stacks), each with the pair reach (N, 2, P) of its points:
    one _assess call per stack."""
    for run, dims, stack in _validated_stacks(cfg, values, seeds):
        figures, reach = _assess(stack, dims)
        yield list(map(ScanPoint, run, *(f.tolist() for f in figures))), reach


def _probe_differences(cfg: SweepConfig, fields, values, seeds, pairs=None) -> list[float]:
    """The detection difference fields[i] ("nonlinear_d" or "bell_d") of the
    probe state at values[i] with seeds[i], built and validated as the grid
    is (see _validated_stacks).  A probe solves its own witness only, on the
    pairs that `pairs` names for its field (_bracket_pairs), or on every
    pair: per stack, one partial-transpose eigensolve of the blocks of its
    nonlinear probes and one Gram eigensolve of the correlation tables of its
    Bell probes; no bound and no negativity.  A violating probe reads its
    difference exactly; a non-violating one, the largest over its pairs."""
    diffs, pairs = [], pairs or {}
    for _, dims, stack in _validated_stacks(cfg, values, seeds):
        nl = np.array([f == "nonlinear_d" for f in fields[len(diffs) : len(diffs) + len(stack)]])
        d = np.empty(len(stack))
        for field, at in zip(_FIELDS, (nl, ~nl)):
            if at.any():
                kept = pairs.get(field)
                blk, c, live = _gather(stack[at], dims, slice(None) if kept is None else list(kept))
                if field == "nonlinear_d":
                    d[at] = _nonlinear_d(_nonlinear_columns(blk, c, live)[2])
                else:  # empty pairs read bell_max = 0 and cannot raise the maximum
                    d[at] = _bell_d(np.divide(_bell_maxima(blk, live), c, out=np.zeros_like(c), where=live))
        diffs += d.tolist()
    return diffs


def _scan_chunks(cfg: SweepConfig, base_seed: int, crossings: dict):
    """Yield the grid's points one validated stack at a time (see
    _scan_points), each stack built and evaluated in full before it is
    yielded; the grid values are made lazily, so a grid of any size streams.
    The first grid crossing of each detection difference goes into
    `crossings` as (last value below, first value above, pairs, *samples),
    pairs being those that can decide a probe between the two
    (_bracket_pairs) and the samples the (value, difference) of those two
    grid points and of the next two: all that bisection needs of the grid
    (see _thresholds)."""
    prev, tails = None, {}
    for chunk, reach in _scan_points(cfg, _grid_values(cfg), range(base_seed, base_seed + cfg.points)):
        for pt, pt_reach in zip(chunk, reach):
            for k, field in enumerate(_FIELDS):
                d = getattr(pt, field)
                if tails.get(field):
                    crossings[field] += ((pt.param, d),)
                    tails[field] -= 1
                elif field not in crossings and d > TAU_DETECT:
                    if prev is None:
                        crossings[field] = (None, pt.param, None, (pt.param, d))
                    else:
                        pairs = _bracket_pairs(cfg, prev_reach[k], pt_reach[k])
                        crossings[field] = (prev.param, pt.param, pairs, (prev.param, getattr(prev, field)), (pt.param, d))
                    tails[field] = 2
            prev, prev_reach = pt, pt_reach
        yield chunk


def _midpoint(lo: float, hi: float, tol: float) -> float | None:
    """The serial bisection's next probe value in (lo, hi), or None once the
    bracket is no wider than tol or its ends are adjacent floats, with no
    midpoint between them."""
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > tol and lo < mid < hi else None


@dataclass
class _Bracket:
    """One onset's bisection: its bracket, the serial steps taken (depth), the
    probes solved off the serial path (waste) and every solved (value,
    difference) sample of its field."""

    lo: float
    hi: float
    samples: list
    pairs: tuple | None = None  # the pairs its probes solve (_bracket_pairs); None for all
    depth: int = 0
    waste: int = 0

    def guess(self) -> float | None:
        """The onset predicted from the samples nearest the bracket, those at
        or above hi (the violating side) first: the inverse quadratic
        interpolation of value against difference at TAU_DETECT through three
        of them, else the secant through two, clamped to [lo, hi]; None
        without two samples of distinct differences."""
        near = sorted(s for s in self.samples if s[0] >= self.hi)
        near += sorted((s for s in self.samples if s[0] <= self.lo), reverse=True)
        for n in (3, 2):
            pts = near[:n]
            if len(pts) == n and len({d for _, d in pts}) == n:
                x = sum(
                    xi * math.prod((TAU_DETECT - dj) / (di - dj) for j, (_, dj) in enumerate(pts) if j != i)
                    for i, (xi, di) in enumerate(pts)
                )
                if math.isfinite(x):
                    return min(max(x, self.lo), self.hi)
        return None

    def path(self, tol: float, cap: int) -> list[tuple[float, bool]]:
        """At most cap serial midpoints from the bracket, each with the
        decision (violating) that the guessed onset gives it: the path a
        serial bisection takes if the guess is right.  Without a guess, one."""
        guess, lo, hi, path = self.guess(), self.lo, self.hi, []
        if guess is None:
            guess, cap = hi, 1  # the one midpoint is decisive whatever its guess
        while len(path) < cap and (mid := _midpoint(lo, hi, tol)) is not None:
            path.append((mid, mid >= guess))
            lo, hi = (lo, mid) if path[-1][1] else (mid, hi)
        return path

    def max_path(self, tol: float) -> int:
        """The longest path this round may lay out: one step, plus twice a
        floor on the onset's serial steps less its waste so far, so that the
        waste stays at most twice the serial steps.  The floor is the steps
        taken plus a lower bound on those left: the halvings of the width
        before it falls to tol or to a few float spacings at its ends."""
        ratio = (self.hi - self.lo) / (2.0 * tol + 8.0 * math.ulp(max(-self.lo, self.hi)))
        left = max(1, int(math.log2(ratio))) if ratio > 1 else 1
        return 1 + max(0, 2 * (self.depth + left) - self.waste)

    def walk(self, path, diffs) -> None:
        """Take the serial steps of a solved path: the solved decision of each
        midpoint, up to and including the first that the guess got wrong."""
        for step, ((mid, guessed), d) in enumerate(zip(path, diffs), 1):
            violating = d > TAU_DETECT
            if violating:  # a violating midpoint becomes hi
                self.hi = mid
            else:
                self.lo = mid
            if violating != guessed:
                break
        self.samples += [(mid, d) for (mid, _), d in zip(path, diffs)]
        self.depth += step
        self.waste += len(path) - step


def _thresholds(cfg: SweepConfig, base_seed: int, crossings: dict):
    """Both bisected thresholds, or (None, None) without cfg.bisect.  The
    decisions are those of a serial bisection of each onset: the probe at
    step k is the bracket's midpoint with seed base_seed + cfg.points + k, so
    the thresholds are bitwise the serial ones.  They are taken in rounds.
    A round predicts each onset from its field's solved samples
    (_Bracket.guess), lays out the serial midpoints toward it
    (_Bracket.path), solves all of them in one _probe_differences call, each
    on the pairs its bracket keeps (_bracket_pairs), which decide as all the
    pairs do, and walks each path with the solved decisions up to its first
    wrong guess; the probes past it are waste.  Each path is capped so that
    an onset's waste stays within twice its serial steps (_Bracket.max_path),
    and each round takes at least one step of every open bracket, so no scan
    solves more than 3 times the serial probes or runs more rounds than the
    serial bisection.  If a round fails to build a state (a scan validated
    one state at a time), the rest runs one level at a time, the shallowest
    brackets' midpoints in one call, so the first serial probe that fails
    raises its own error.  A crossing at the first grid point has no bracket."""
    if not cfg.bisect:
        return None, None
    tol, seed = cfg.bisect_tol, base_seed + cfg.points
    brackets = {f: _Bracket(lo, hi, list(samples), pairs) for f, (lo, hi, pairs, *samples) in crossings.items() if lo is not None}
    speculate = True
    while live := {f: b for f in _FIELDS if (b := brackets.get(f)) and _midpoint(b.lo, b.hi, tol) is not None}:
        if not speculate:
            level = min(b.depth for b in live.values())
            live = {f: b for f, b in live.items() if b.depth == level}
        paths = {f: b.path(tol, b.max_path(tol) if speculate else 1) for f, b in live.items()}
        try:
            diffs = _probe_differences(
                cfg,
                [f for f, path in paths.items() for _ in path],
                [mid for path in paths.values() for mid, _ in path],
                [seed + live[f].depth + k for f, path in paths.items() for k in range(len(path))],
                {f: b.pairs for f, b in live.items()},
            )
        except _BUILD_ERRORS:
            if not speculate:
                raise
            speculate = False
            continue
        for f, path in paths.items():
            live[f].walk(path, diffs[: len(path)])
            diffs = diffs[len(path) :]
    found = {f: Threshold(0.5 * (b.lo + b.hi), "ok") for f, b in brackets.items()}
    return tuple(found.get(f, Threshold(None, "no threshold in range")) for f in _FIELDS)


def run_scan(cfg: SweepConfig, base_seed: int = 0) -> ScanResult:
    """Evaluate the sweep grid one kernel stack at a time (see _scan_chunks)
    and optionally bisect both detection thresholds in speculative rounds
    (see _thresholds): each round predicts the onsets, solves the serial
    midpoints toward them in one stacked call and keeps the serial decisions
    up to the first wrong guess, with a capped waste and, after a failed
    build, one level per round.  The thresholds, probe values and seeds are
    those of a serial bisection.  Deterministic for fixed cfg and base_seed."""
    crossings = {}
    points = [pt for chunk in _scan_chunks(cfg, base_seed, crossings) for pt in chunk]
    return ScanResult(points, *_thresholds(cfg, base_seed, crossings))


def scan_csv(result: ScanResult) -> str:
    return _csv_text(SCAN_HEADER, result.points)


def _threshold_doc(t: Threshold | None):
    return None if t is None else {"threshold": t.value, "status": t.status}
