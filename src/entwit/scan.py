"""Parameter sweeps and threshold bisection: the engine behind `entwit scan`.

A scan's unit of work is one kernel stack: up to _STACK_BLOCKS 4x4 blocks
of grid states (1,820 states of 3x3), built, evaluated in one _assess call
and written as one block of rows; a value that fails to build ends its
stack, whose rows before it are written, and then raises.  Both detection
onsets are bisected with the decisions of a serial bisection (see
_thresholds).  A scan over its family's affine parameter builds each stack
in one broadcast, and once its two range ends pass validation at half the
tolerances, the states between them skip it.  On such a scan each onset is
computed as the root of its bracket's kept pairs (_onsets), and every serial
midpoint farther than a rounding margin from it takes its decision from it
unsolved: the README scan solves no probe.  Every other midpoint is solved,
one per bracket and round, all of a round's in one stacked evaluation.

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
from .qstate import Dims, _checked, _negativities, _require_integer, partial_transpose_mat
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
    own, in value order (StateSpec.build), and the states are stacked by
    dims; a value that fails to build ends the stack it was to join, which
    is yielded with the states before it, and then raises its own error."""
    dims, points = cfg.certified_dims, zip(values, seeds)
    while dims is not None and (run := list(itertools.islice(points, _per_stack(dims)))):
        run_values = [value for value, _ in run]
        if not all(cfg.lo <= value <= cfg.hi for value in run_values):
            points = itertools.chain(run, points)
            break
        yield run_values, dims, _point_spec(cfg, cfg.lo, 0).matrix(run_values)[0]
    stack = []
    for value, seed in points:
        try:
            rho = _point_spec(cfg, value, seed).build()
        except _BUILD_ERRORS:
            if stack:
                yield _stacked(stack)
            raise
        if stack and (rho.dims != stack[0][1].dims or len(stack) == _per_stack(rho.dims)):
            yield _stacked(stack)
            stack = []
        stack.append((value, rho))
    if stack:
        yield _stacked(stack)


def _stacked(states):
    """(values, dims, stack) of a list of (value, validated state) of one dims."""
    return [value for value, _ in states], states[0][1].dims, np.array([rho.mat for _, rho in states])


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
    `crossings` as (last value below, first value above, pairs), pairs being
    those that can decide a probe between the two (_bracket_pairs): all that
    bisection needs of the grid (see _thresholds).  A crossing at the first
    grid point reads (None, its value, None)."""
    prev = None  # (point, reach) of the last point before the stack
    for chunk, reach in _scan_points(cfg, _grid_values(cfg), range(base_seed, base_seed + cfg.points)):
        for k, field in enumerate(_FIELDS):
            if field in crossings:  # one search per stack until the crossing is found
                continue
            at = next((i for i, pt in enumerate(chunk) if getattr(pt, field) > TAU_DETECT), None)
            if at is None:
                continue
            below = (chunk[at - 1], reach[at - 1]) if at else prev
            if below is None:
                crossings[field] = (None, chunk[at].param, None)
            else:
                crossings[field] = (below[0].param, chunk[at].param, _bracket_pairs(cfg, below[1][k], reach[at][k]))
        prev = chunk[-1], reach[-1]
        yield chunk


# Onsets.  On a certified bracket [lo, hi] whose kept pairs (_bracket_pairs)
# are live at both ends, write s = (t - lo) / (hi - lo) and each pair's level
# for a detection difference: lambda_min of its partial transpose shifted by
# TAU_DETECT c / 4 (nonlinear), or (1 + TAU_DETECT / 2) c - sqrt(s1^2 + s2^2)
# (Bell).  The level is concave in s (see _QUIET) and the pair violates
# exactly where it is negative; the bracket's lower end does not violate, so
# every level is positive at s = 0, and the onset V is the smallest root over
# the kept pairs.  A concave level lies above its chords and below its
# tangents, so a pair with level g0 at s = 0 and root r reads at least
# g0 (r - s) / r before r and at most -g0 (s - r) / r after it: at a
# distance e from V, some level reads at most -g e / V or every level at
# least g e / V, g the smallest level at s = 0.  A probe's level is computed
# to a few tens of ulps on states of trace 1 (the build, a 4x4 or 3x3
# eigensolve's backward error, the level test), and the computed V is the
# root of levels moved by as little (the ends' builds, the Cholesky factor,
# the whitened eigensolve, Newton's last step), which moves it by as much
# over the same slope g / V.  So a midpoint farther than _ROOT_ERR V / g
# from the computed V, far above both errors, takes the decision V gives
# it, bitwise the serial bisection's; a bracket with g <= _ROOT_ERR has no
# root (_onsets).  In parameter units the margin also takes _ROOT_ULPS float
# spacings of the bracket's ends, which hold the rounding of lo + s (hi - lo)
# and of the window's edges.
_ROOT_ERR = 1e-12
_ROOT_ULPS = 4
# Newton steps toward a Bell onset stop once its interval is no wider than the
# margin or than _NEWTON_STOP times the tolerance (a serial midpoint falls in
# a window of width w with a chance of about 4 w / tol), or after
# _NEWTON_STEPS; a wider window only solves more midpoints, never a wrong one.
_NEWTON_STOP = 1e-3
_NEWTON_STEPS = 8


def _nonlinear_root(blk: np.ndarray, c: np.ndarray):
    """(a, b, margin) of a bracket's nonlinear onset, in s, from its kept
    pairs' raw blocks (2, K, 4, 4) and weights (2, K) at its ends: the onset
    lies in [a, b] (here a = b), and a midpoint farther than margin from it
    is decided by it (see _ROOT_ERR); None if no pair has a root in (0, 1),
    M(0) has no Cholesky factor or its level is not above _ROOT_ERR.  The
    shifted partial transpose M(s) is affine in s; with M(0) = L L^H, the
    level lambda_min M(s) has the sign of 1 + s mu, mu the smallest
    eigenvalue of L^-1 (M(1) - M(0)) L^-H, and lambda_min M(0) =
    1 / ||L^-1||_2^2 >= 1 / ||L^-1||_F^2.  One batched eigensolve."""
    m = partial_transpose_mat(blk, 2, 2) + (0.25 * TAU_DETECT * c)[..., None, None] * np.eye(4)
    try:
        inv = np.linalg.inv(np.linalg.cholesky(m[0]))
    except np.linalg.LinAlgError:
        return None
    g = 1.0 / float(np.square(np.abs(inv)).sum(axis=(-2, -1)).max())
    if g <= _ROOT_ERR:
        return None
    mu = np.linalg.eigvalsh(inv @ (m[1] - m[0]) @ np.swapaxes(inv, -1, -2).conj())[:, 0]
    if not (mu < -1.0).any():
        return None
    root = -1.0 / float(mu.min())
    return root, root, _ROOT_ERR * root / g


def _bell_level(t0, dt, c0, dc, s):
    """The Bell level (1 + TAU_DETECT / 2) c - sqrt(s1^2 + s2^2) of each pair
    at s and its slope in s, from the correlation matrices T = t0 + s dt
    and weights c0 + s dc; sqrt(s1^2 + s2^2) moves at the rate
    sum_k (T v_k).(dt v_k) / sqrt(s1^2 + s2^2) over the Gram matrix's top
    two eigenvectors v_k."""
    t = t0 + s[..., None, None] * dt
    ev, vec = np.linalg.eigh(np.swapaxes(t, -1, -2) @ t)
    top = vec[..., 1:]
    r = np.sqrt(np.maximum(ev[..., 1] + ev[..., 2], 0.0))
    rate = ((t @ top) * (dt @ top)).sum(axis=(-2, -1)) / np.maximum(r, 1e-300)  # rate = 0 where T = 0
    k = 1.0 + 0.5 * TAU_DETECT
    return k * (c0 + s * dc) - r, k * dc - rate


def _bell_root(blk: np.ndarray, c: np.ndarray, enough: float):
    """(a, b, margin) of a bracket's Bell onset, as _nonlinear_root gives
    the nonlinear one, or None if no pair violates at s = 1.  Each pair
    that does takes Newton steps from s = 1: the tangent of a concave level
    meets zero at or past the root, and the chord from s = 0 at or before
    it, so the steps narrow [a, b] until it is no wider than the margin or
    than enough (_NEWTON_STOP)."""
    t = _correlations(blk)[..., 1:, 1:]
    t0, dt, c0, dc = t[0], t[1] - t[0], c[0], c[1] - c[0]
    (level0, level1), (_, slope1) = _bell_level(t0, dt, c0, dc, np.array([[0.0], [1.0]]))
    g, root = float(level0.min()), level1 < 0.0
    if g <= _ROOT_ERR or not root.any():
        return None
    t0, dt, c0, dc, g0 = t0[root], dt[root], c0[root], dc[root], level0[root]
    s, level, slope = np.ones(len(g0)), level1[root], slope1[root]
    for step in range(_NEWTON_STEPS):
        if step:
            level, slope = _bell_level(t0, dt, c0, dc, s)
        s, a = s - level / slope, s * np.minimum(1.0, g0 / np.maximum(g0 - level, g0))
        lower, upper = float(a.min()), float(s.min())
        if upper - lower <= max(_ROOT_ERR * upper / g, enough):
            break
    return lower, upper, _ROOT_ERR * upper / g


def _onsets(cfg: SweepConfig, crossings: dict) -> dict:
    """field -> (a, b, margin) of each certified bracket with a root, in
    parameter units: its onset lies in [a, b], and a value farther than
    margin from [a, b] takes the decision the onset gives it (see
    _ROOT_ERR).  The brackets' ends are built in one broadcast, bitwise
    the grid's states, and their kept pairs read from one gather."""
    ends = {f: (lo, hi, pairs) for f, (lo, hi, pairs) in crossings.items() if lo is not None and pairs}
    if not ends:
        return {}
    stack, dims = _point_spec(cfg, cfg.lo, 0).matrix([t for lo, hi, _ in ends.values() for t in (lo, hi)])
    cols = sorted({pair for _, _, pairs in ends.values() for pair in pairs})
    blk, c, live = _gather(stack, dims, cols)
    onsets = {}
    for k, (field, (lo, hi, pairs)) in enumerate(ends.items()):
        at = np.s_[2 * k : 2 * k + 2], [cols.index(pair) for pair in pairs]
        if not live[at].all():
            continue
        width = hi - lo
        if field == "nonlinear_d":
            root = _nonlinear_root(blk[at], c[at])
        else:
            root = _bell_root(blk[at], c[at], _NEWTON_STOP * cfg.bisect_tol / width)
        if root:
            margin = root[2] * width + _ROOT_ULPS * math.ulp(max(abs(lo), abs(hi)))
            onsets[field] = (lo + root[0] * width, lo + root[1] * width, margin)
    return onsets


def _midpoint(lo: float, hi: float, tol: float) -> float | None:
    """The serial bisection's next probe value in (lo, hi), or None once the
    bracket is no wider than tol or its ends are adjacent floats, with no
    midpoint between them."""
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > tol and lo < mid < hi else None


@dataclass
class _Bracket:
    """One onset's serial bisection: its bracket and the serial steps taken
    (depth).  The window is the values whose decision the bracket's root
    (_onsets) leaves open: the serial midpoints outside it take the root's
    decision unsolved.  A bracket without a root has the window (-inf, inf)."""

    lo: float
    hi: float
    window: tuple
    depth: int = 0

    def advance(self, tol: float) -> float | None:
        """Take the serial steps the root decides, and return the next serial
        midpoint, in the window and to be solved; None once the bracket has
        no midpoint left (_midpoint)."""
        a, b = self.window
        while (mid := _midpoint(self.lo, self.hi, tol)) is not None and not a <= mid <= b:
            self.step(mid, mid > b)
        return mid

    def step(self, mid: float, violating: bool) -> None:
        """The serial step to midpoint mid: a violating midpoint becomes hi, any other lo."""
        if violating:
            self.hi = mid
        else:
            self.lo = mid
        self.depth += 1


def _thresholds(cfg: SweepConfig, base_seed: int, crossings: dict):
    """Both bisected thresholds, or (None, None) without cfg.bisect.  The
    decisions are those of a serial bisection of each onset: the probe at
    step k is the bracket's midpoint with seed base_seed + cfg.points + k, so
    the thresholds are bitwise the serial ones.  They are taken in rounds.
    Each round, every open bracket takes the serial steps its root decides
    (_onsets, _Bracket.advance) and then solves its next midpoint, on the
    pairs the bracket keeps (_bracket_pairs), which decide as all the pairs
    do; the brackets' midpoints go into one _probe_differences call, in
    _FIELDS order.  The README scan's roots decide all its steps: it solves
    no probe.  A bracket without a root solves every midpoint, one level per
    round, so the first probe in level order that fails to build raises its
    own error.  A crossing at the first grid point has no bracket."""
    if not cfg.bisect:
        return None, None
    tol, seed = cfg.bisect_tol, base_seed + cfg.points
    windows = dict.fromkeys(_FIELDS, (-math.inf, math.inf))
    windows.update((f, (a - margin, b + margin)) for f, (a, b, margin) in _onsets(cfg, crossings).items())
    brackets = {f: _Bracket(*crossings[f][:2], windows[f]) for f in _FIELDS if crossings.get(f, (None,))[0] is not None}
    pairs = {f: crossing[2] for f, crossing in crossings.items()}  # the pairs each bracket's probes solve
    while probes := [(f, mid, seed + b.depth) for f, b in brackets.items() if (mid := b.advance(tol)) is not None]:
        diffs = _probe_differences(cfg, *map(list, zip(*probes)), pairs)  # (field, value, seed) columns
        for (f, mid, _), d in zip(probes, diffs):
            brackets[f].step(mid, d > TAU_DETECT)
    found = {f: Threshold(0.5 * (b.lo + b.hi), "ok") for f, b in brackets.items()}
    return tuple(found.get(f, Threshold(None, "no threshold in range")) for f in _FIELDS)


def run_scan(cfg: SweepConfig, base_seed: int = 0) -> ScanResult:
    """Evaluate the sweep grid one kernel stack at a time (see _scan_chunks)
    and optionally bisect both detection thresholds (see _thresholds): on a
    certified bracket the onset's root decides every serial midpoint but
    those within its margin, and every other midpoint is solved, one per
    bracket and round.  The thresholds, and the values and seeds of the
    probes solved, are those of a serial bisection.  Deterministic for fixed
    cfg and base_seed."""
    crossings = {}
    points = [pt for chunk in _scan_chunks(cfg, base_seed, crossings) for pt in chunk]
    return ScanResult(points, *_thresholds(cfg, base_seed, crossings))


def scan_csv(result: ScanResult) -> str:
    return _csv_text(SCAN_HEADER, result.points)


def _threshold_doc(t: Threshold | None):
    return None if t is None else {"threshold": t.value, "status": t.status}
