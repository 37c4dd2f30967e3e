"""Numeric search for measurement settings, an independent check of the
closed-form witness maxima of entwit.witness.

optimize_settings runs a multi-start BFGS ascent with analytic gradients
over rotation frames, each step a body-frame rotation exp([w]x) in a chart
re-centred at every accepted point (_turn, _ascend); every line search
starts from a turn of at most _MAX_TURN radians, the full _MAX_TURN after a
step along which the objective curved up, and a restart leaves the batch
when it stops.  The Bell search climbs over B's two directions only: for
fixed b1, b2 the best a1, a2 are the unit vectors of T(b1 +- b2), in closed
form (_bell_fg).  It reads only the correlation table of a block, never
lambda_min or the Gram eigenvalues, so its agreement with the closed forms
is an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .generators import GeneratorPair, rotation_zyz, triad_from_rotation
from .qstate import DensityMatrix, _require_integer
from .witness import BellSettings, WitnessSettings, _correlations, _pair_block


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget of optimize_settings: `restarts` random starts drawn from
    default_rng(`seed`); a restart stops once its accepted step falls below
    `step_tol` (max-norm of the body-frame rotation step w, radians);
    `max_evals` caps the passes of one call, each of which evaluates every
    restart once, the starts included.  `restarts` and `max_evals` are
    integers >= 1, `seed` an integer >= 0 and `step_tol` a number >= 0 (not
    NaN); anything else raises ValueError naming the field."""

    restarts: int = 32
    seed: int = 0
    step_tol: float = 1e-7
    max_evals: int = 2000

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("max_evals", 1), ("seed", 0)):
            _require_integer(f"OptimizerConfig.{name}", getattr(self, name), low)
        if isinstance(self.step_tol, bool) or not isinstance(self.step_tol, Real) or not self.step_tol >= 0:
            raise ValueError(f"OptimizerConfig.step_tol must be a number >= 0, got {self.step_tol!r}")


_GRAD_TOL = 1e-10  # max-norm of the gradient at which a restart has converged
_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking line search
# max-norm of the first trial step of a line search, in radians of the chart: a turn past pi is an
# alias, and uncapped quasi-Newton steps of 8-1800 rad were halved until one passed.  Objective
# passes per optimizer-benchmark op by cap: 0.25: 43.5, 0.35: 40.0, 0.5: 39.0, 0.75: 39.1, 1: 39.5,
# 1.5: 40.6, 3: 43.5 (mean of seeds 1 and 7); 0.5 sits on a flat stretch, not a sharp minimum
_MAX_TURN = 0.5

# axial vector (q21 - q12, q02 - q20, q10 - q01) of a 3x3 q as q.reshape(9) @ _AXIAL: entry (3i + j, k) is
# -eps_ijk; the same Levi-Civita table transposed flattens the cross-product matrix, [w]x = w @ _AXIAL.T
_AXIAL = -np.cross(np.eye(3)[:, None], np.eye(3)).reshape(9, 3)
_CROSS = np.ascontiguousarray(_AXIAL.T)
_EYE9 = np.eye(3).reshape(9)
_FIRST_TWO = np.eye(2, 3)  # pads a step about the first two body axes to a rotation vector
_QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])  # (d0, d1) @ _QUARTER = (d1, -d0)
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]])
_E_Z = np.array([0.0, 0.0, 1.0])  # A's direction where T(b1 +- b2) = 0, so that every unit vector gives the same value


def _turn(w: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """exp([w]x) @ frames for rotation vectors w (..., 3) and frames (..., 3, 3).

    Rodrigues: exp([w]x) = cos(t) I + sinc(t) [w]x + (1 - cos t)/t^2 w w^T
    with t = |w|.  With u = sin(t/2)/(t/2), sinc(t) = u cos(t/2) and the last
    coefficient is u^2/2, so no term loses digits at small t.  The rows of a
    frame are body axes: the step turns them about the axis sum_k w_k f_k,
    so w is the step in the body frame.
    """
    outer = (w[..., :, None] @ w[..., None, :]).reshape(w.shape[:-1] + (9,))  # w w^T
    tt = (w[..., None, :] @ w[..., :, None])[..., 0]  # |w|^2, shaped (..., 1)
    half = 0.5 * np.sqrt(tt)
    # below t/2 = 1e-300 the quotient is off, but it then scales only terms below rounding
    u = np.sin(half) / np.maximum(half, 1e-300)
    b = 0.5 * u * u
    rot = (1.0 - b * tt) * _EYE9 + (u * np.cos(half)) * (w @ _CROSS) + b * outer
    return rot.reshape(w.shape[:-1] + (3, 3)) @ frames


def _nonlinear_fg(step: np.ndarray, base: np.ndarray, tables: np.ndarray, rs: np.ndarray):
    """Normalized nonlinear witness at the triads exp([w]x) base, its body-frame
    gradient there, and those triads.

    base (R, 2, 3, 3) holds the triads of A and B as rows; step (R, 6) holds
    one rotation vector per side (_turn).  tables is (T, T^T) for the
    correlation matrix T of rho_ab and rs its Bloch vectors (r, s), both
    stacked once per search.  With G = df/dR and q = G R^T, the step w has
    df/dw = axial(q) at w = 0.
    """
    rot = _turn(step.reshape(-1, 2, 3), base)  # (R, 2, 3, 3): rows a_k, then rows b_k
    m = rot @ tables  # rows a_k^T T, then rows (T b_k)^T
    ab = (rot[:, 0] * m[:, 1]).sum(axis=-1)  # a_k^T T b_k
    corr, summ = ab[:, 0] + ab[:, 1], (rot[:, :, 2] * rs).sum(axis=(1, 2))
    h = np.hypot(corr, summ)
    safe = np.where(h > 0.0, h, 1.0)
    g = m[:, ::-1] * (corr / safe)[:, None, None, None]  # df/dA and df/dB
    g[:, :, 2] = (summ / safe)[:, None, None] * rs - m[:, ::-1, 2]
    grad = (g @ np.swapaxes(rot, -1, -2)).reshape(-1, 9) @ _AXIAL
    return h - ab[:, 2], grad.reshape(step.shape), rot


def _bell_sides(b: np.ndarray, t: np.ndarray):
    """Norms (..., 2) and unit vectors (..., 2, 3) of x = T(b1 + b2) and
    y = T(b1 - b2) for directions b (..., 2, 3) as rows; a zero vector's unit
    vector reads 0."""
    xy = (_PLUS_MINUS @ b) @ t.T
    norm = np.sqrt((xy * xy).sum(axis=-1))
    return norm, xy / np.where(norm > 0.0, norm, 1.0)[..., None]


def _bell_fg(step: np.ndarray, base: np.ndarray, t: np.ndarray):
    """|CHSH| of rho_ab maximized over a1 and a2 at the frames exp([w]x) base,
    its body-frame gradient there, and those frames.

    base (R, 2, 3, 3) holds two frames whose third rows are the directions b1
    and b2; step (R, 4) turns each frame about its first two body axes only,
    which move the third row.  t is the correlation matrix T of rho_ab.  For
    fixed b the CHSH value a1^T x + a2^T y, x = T(b1 + b2), y = T(b1 - b2), is
    at most |x| + |y| over unit a1, a2 (Cauchy-Schwarz), reached at a1 = x/|x|
    and a2 = y/|y|.  That maximum has direction gradients T^T (x/|x| +- y/|y|);
    a frame f with direction gradient d has G = e_3 d^T, so its gradient
    axial(G f^T) is (d . f_1, -d . f_0).  Where x or y is 0 its unit vector
    reads 0, a subgradient.
    """
    rot = _turn(step.reshape(-1, 2, 2) @ _FIRST_TWO, base)
    norm, unit = _bell_sides(rot[:, :, 2], t)
    dv = (_PLUS_MINUS @ unit) @ t  # rows T^T (x/|x| + y/|y|), T^T (x/|x| - y/|y|)
    d = (rot[:, :, :2] @ dv[..., None])[..., 0]  # (R, 2, 2): d . f_0, d . f_1
    return norm[:, 0] + norm[:, 1], (d @ _QUARTER).reshape(step.shape), rot


def _ascend(fg, base: np.ndarray, n: int, step_tol: float, max_evals: int):
    """Maximize fg from every row of base at once: BFGS with Armijo
    backtracking in a chart re-centred at each accepted point.

    fg(step, base) maps steps (R, n) in the chart at base (R, ...) to values
    (R,), gradients (R, n) in the chart at the trial points, and the trial
    points; a zero step reads base itself.  Each pass evaluates fg once at
    every running row's trial point; a row that fails the Armijo test halves
    its step, a row that passes moves its base to the trial point, updates
    its inverse Hessian, which carries over to the new chart unchanged, and
    starts a new line search from the quasi-Newton step scaled to a
    max-norm of at most _MAX_TURN, or of exactly _MAX_TURN when f curved up
    along the accepted step (s.y <= 0, so no update).  A row stops when its
    gradient (max-norm) falls below _GRAD_TOL, its accepted step below
    step_tol, or its line search stalls below step_tol; it then writes its
    point and value to the output and leaves the batch, so no row's path
    depends on the others.
    max_evals caps the passes, the one at the starts included.  Returns the
    final points and values.
    """
    values, g, points = fg(np.zeros((len(base), n)), base)
    evals = 1
    rows = np.flatnonzero(np.maximum.reduce(np.abs(g), axis=1) > _GRAD_TOL)  # the rows still climbing
    base, f, g = points[rows], values[rows], g[rows]
    hinv = np.tile(np.eye(n), (len(rows), 1, 1))  # inverse Hessian of -f
    p, step = g, _MAX_TURN / np.maximum(np.maximum.reduce(np.abs(g), axis=1), _MAX_TURN)
    while len(rows) and evals < max_evals:
        sx = step[:, None] * p
        ft, gt, trial = fg(sx, base)
        evals += 1
        ok = ft >= f + _ARMIJO * np.add.reduce(sx * g, axis=1)
        size = np.maximum.reduce(np.abs(sx), axis=1)
        passed = np.count_nonzero(ok)
        if passed:
            y = (g - gt)[:, :, None]
            sy = sx[:, None, :] @ y  # (R, 1, 1)
            # update the rows that passed where the curvature condition holds:
            # H += w u^T + u w^T with u = s / sy, w = (1 + y.Hy / sy) s / 2 - Hy
            upd = ok[:, None, None] & (sy > 0.0)
            inv_sy = upd / np.where(upd, sy, 1.0)
            hy = hinv @ y
            w = (0.5 + 0.5 * (y.transpose(0, 2, 1) @ hy) * inv_sy) * sx[:, :, None] - hy
            wu = w @ (inv_sy * sx[:, None, :])  # an outer product, so u w^T is exactly its transpose
            hinv += wu + wu.transpose(0, 2, 1)
            every = passed == len(rows)  # select per row only where some row failed
            if not every:
                keep = ok[:, None]
                trial = np.where(ok.reshape((-1,) + (1,) * (base.ndim - 1)), trial, base)
                ft, gt = np.where(ok, ft, f), np.where(keep, gt, g)
            base, f, g = trial, ft, gt
            q = (hinv @ g[:, :, None])[:, :, 0]
            # along a step where f curved up (sy <= 0) the update is skipped, so q holds no curvature there
            # and would crawl off a saddle by gradient steps (one Bell restart took 769 passes): the next
            # line search starts from the full _MAX_TURN
            floor = np.where(sy[:, 0, 0] > 0.0, _MAX_TURN, 1e-300)
            turn = _MAX_TURN / np.maximum(np.maximum.reduce(np.abs(q), axis=1), floor)
            done = (size < step_tol) | (np.maximum.reduce(np.abs(g), axis=1) <= _GRAD_TOL)
            if every:
                p, step, stop = q, turn, done
            else:
                p, step = np.where(keep, q, p), np.where(ok, turn, 0.5 * step)
                stop = np.where(ok, done, 0.5 * size < step_tol)
        else:
            step, stop = 0.5 * step, 0.5 * size < step_tol  # a failing row halves its step: its line search stalls
        if np.count_nonzero(stop):
            points[rows[stop]], values[rows[stop]] = base[stop], f[stop]
            run = ~stop
            rows, base, f, g, p, step, hinv = rows[run], base[run], f[run], g[run], p[run], step[run], hinv[run]
    points[rows], values[rows] = base, f
    return points, values


def optimize_settings(
    rho: DensityMatrix,
    alpha: GeneratorPair,
    beta: GeneratorPair,
    kind: str,
    cfg: OptimizerConfig = OptimizerConfig(),
):
    """Multi-start quasi-Newton search over measurement settings.

    kind="nonlinear" maximizes the normalized witness over two same-handed
    triads (two rotation frames) and returns (WitnessSettings, value).
    kind="bell" maximizes |bell_value| and returns (BellSettings, value): it
    climbs over B's two directions b1 and b2, the third rows of two frames,
    and sets A's in closed form, a1 = T(b1 + b2)/|T(b1 + b2)| and
    a2 = T(b1 - b2)/|T(b1 - b2)| (see _bell_fg), or e_z where that vector
    is 0.  The starts are angles drawn uniformly from default_rng(cfg.seed):
    ZYZ angles per triad (rotation_zyz), spherical angles (theta, phi) per
    direction, whose frame has rows e_theta, e_phi and the direction.  All
    restarts climb together by BFGS with analytic gradients in body-frame
    rotation steps, re-centred at every accepted point (see _ascend), so no
    chart pole slows a restart down.  The search reads only the correlation
    table of the compressed block, never the closed forms of the maxima.
    Deterministic for a fixed cfg.
    """
    if kind not in ("nonlinear", "bell"):
        raise ValueError(f"unknown witness kind {kind!r}")
    c, rho_ab = _pair_block(rho, alpha, beta)
    if rho_ab is None:
        raise ValueError("empty subspace: c <= TAU_C")
    corr = _correlations(rho_ab)
    t, r, s = corr[1:, 1:], corr[1:, 0], corr[0, 1:]
    rng = np.random.default_rng(cfg.seed)
    if kind == "nonlinear":
        ang = rng.uniform(0.0, 2.0 * np.pi, (cfg.restarts, 2, 3))
        frames = rotation_zyz(ang[..., 0], ang[..., 1], ang[..., 2])
        tables, rs = np.stack([t, t.T]), np.stack([r, s])
        fg, n = (lambda w, base: _nonlinear_fg(w, base, tables, rs)), 6
    else:
        ang = rng.uniform(0.0, 2.0 * np.pi, (cfg.restarts, 2, 2))
        # (Rz(phi) Ry(theta))^T has third row (sin theta cos phi, sin theta sin phi, cos theta)
        frames = np.swapaxes(rotation_zyz(ang[..., 1], ang[..., 0], 0.0), -1, -2)
        fg, n = (lambda w, base: _bell_fg(w, base, t)), 4

    frames, f = _ascend(fg, frames, n, cfg.step_tol, cfg.max_evals)
    best = frames[int(np.argmax(f))]
    if kind == "nonlinear":
        return WitnessSettings(alpha, beta, *(triad_from_rotation(rot) for rot in best)), float(f.max())
    b = best[:, 2]
    norm, unit = _bell_sides(b, t)
    a = np.where(norm[:, None] > 0.0, unit, _E_Z)
    # the search runs on rho_ab; bell_value on rho carries the weight c
    return BellSettings(alpha, beta, a[0], a[1], b[0], b[1]), float(c * f.max())
