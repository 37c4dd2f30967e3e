"""Two-qubit subspace compression and the Bell / nonlinear entanglement witnesses.

A bipartite state on m x n compresses onto each pair of 2-dim local subspaces
(alpha on A, beta on B) through the generator sandwich (L_a (x) L_b) rho
(L_a (x) L_b)^dag.  The surviving 4x4 block, normalized by its weight c,
is a genuine two-qubit state rho_ab, and every two-qubit separability test
applies to it:

* CHSH Bell test with two measurement directions per side.  The maximum of
  |<B>| over directions is c * 2*sqrt(s1^2 + s2^2) with s1 >= s2 the largest
  singular values of the correlation matrix T_ij = Tr(rho_ab sigma_i (x) sigma_j)
  [R. Horodecki, P. Horodecki, M. Horodecki, Phys. Lett. A 200, 340 (1995)].
  Note the c factor: the raw mean value on rho is suppressed by the subspace
  weight, so threshold detection applies the CHSH bound to the normalized
  compressed state (violation iff bell_max / c > 2).

* Nonlinear witness built from two triads of complementary observables with
  equal handedness.  On a two-qubit state the witness exceeds 1 exactly for
  entangled states, with maximum 1 - 4*lambda_min of the partial transpose
  [S. Yu, N.-L. Liu, Phys. Rev. Lett. 95, 150504 (2005)].  The embedded sum
  term <A3 + B3> is realized as A3 (x) P_beta + P_alpha (x) B3 with P the
  subspace projectors; only that choice makes the normalized witness equal
  the plain two-qubit witness on rho_ab.

Every per-subspace figure comes from one kernel that gathers the blocks of
all subspace pairs at once and solves them in one eigensolve and one SVD.

Measurement settings come from a separate numeric search (optimize_settings):
a multi-start BFGS ascent with analytic gradients over the measurement
angles.  It reads only the correlation table of a block, never lambda_min or
the SVD, so its agreement with the closed forms is an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import (
    GeneratorPair,
    ObservableTriad,
    PAULI,
    _unit_vector,
    embed_observable,
    rotation_zyz,
    so_generators,
    subspace_projector,
    tilde_operator,
    triad_from_rotation,
)
from .qstate import (
    DensityMatrix,
    Dims,
    _hermitian_part,
    partial_transpose_mat,
    validate_density,
)

TAU_C = 1e-12
TAU_DETECT = 1e-8

# signs of the two-party generator sandwich Y (x) Y on a reversed 4x4 block
_YY_SIGNS = np.outer([1.0, -1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0])
_SIGMA_PAIRS = np.array([[np.kron(a, b) for b in (np.eye(2), *PAULI)] for a in (np.eye(2), *PAULI)])


@dataclass(frozen=True)
class WitnessSettings:
    """Measurement settings for the nonlinear witness: one subspace pair plus
    one observable triad per side, both with the same handedness."""

    alpha: GeneratorPair
    beta: GeneratorPair
    triad_a: ObservableTriad
    triad_b: ObservableTriad

    def __post_init__(self) -> None:
        if self.triad_a.orientation != self.triad_b.orientation:
            raise ValueError("witness triads must share orientation")


@dataclass(frozen=True)
class BellSettings:
    """Measurement settings for the Bell test: two independent unit directions
    per side.  The CHSH optimum generally needs non-orthogonal directions on
    one side, so this is deliberately wider than a triad."""

    alpha: GeneratorPair
    beta: GeneratorPair
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            object.__setattr__(self, name, _unit_vector(getattr(self, name), name))


@dataclass(frozen=True)
class ProjectedState:
    """Compression of a state onto one subspace pair: weight c and, when the
    subspace carries weight, the normalized two-qubit state."""

    c: float
    rho_ab: DensityMatrix | None

    @property
    def empty(self) -> bool:
        return self.rho_ab is None


@dataclass(frozen=True)
class SubspaceReport:
    """Per-subspace summary: weight, partial-transpose minimum eigenvalue,
    both witness maxima, the violation d and its clipped value x."""

    alpha: GeneratorPair
    beta: GeneratorPair
    c: float
    lambda_min: float
    bell_max: float
    nonlinear_max: float
    d: float
    x: float


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget of optimize_settings: `restarts` random starts drawn from
    default_rng(`seed`); a restart stops once its accepted step falls below
    `step_tol` (max-norm over the angles, radians); `max_evals` caps the
    batched objective evaluations of one call, each of which evaluates
    every restart."""

    restarts: int = 32
    seed: int = 0
    step_tol: float = 1e-7
    max_evals: int = 2000


def _check_pairs(dims: Dims, alpha: GeneratorPair, beta: GeneratorPair) -> None:
    if alpha.dim != dims.m or beta.dim != dims.n:
        raise ValueError(
            f"pair dims ({alpha.dim},{beta.dim}) do not match state dims ({dims.m},{dims.n})"
        )


# ---------------------------------------------------------------------------
# the subspace kernel: every per-subspace figure starts from _blocks

def _blocks(rho: DensityMatrix, pairs):
    """Weights c >= 0, live mask c > TAU_C and states rho_ab of the (alpha, beta) pairs.

    The sandwich by L (x) L acts on a gathered 4x4 block as Y (x) Y with
    Y = [[0,1],[-1,0]]: a reversal of the block basis with the middle two
    vectors negated, exact in floating point.  Blocks of empty pairs are
    left unnormalized and must not be read.
    """
    n = rho.dims.n
    ja, ka, jb, kb = np.array([(a.j, a.k, b.j, b.k) for a, b in pairs]).T
    rows = np.stack([ka * n + kb, ka * n + jb, ja * n + kb, ja * n + jb], axis=1)
    blk = rho.mat[rows[:, :, None], rows[:, None, :]]
    blk *= _YY_SIGNS
    c = np.maximum(blk[:, 3, 3].real + blk[:, 2, 2].real + blk[:, 1, 1].real + blk[:, 0, 0].real, 0.0)
    live = c > TAU_C
    blk /= np.where(live, c, 1.0)[:, None, None]
    blk += blk.conj().transpose(0, 2, 1)
    blk *= 0.5
    return c, live, blk


def _correlations(rho_ab: np.ndarray) -> np.ndarray:
    """Tr(rho_ab sigma_mu (x) sigma_nu), sigma_0 = I, of one block or a stack:
    T = [..., 1:, 1:] and the Bloch vectors r = [..., 1:, 0], s = [..., 0, 1:]."""
    return np.einsum("...ab,ijba->...ij", rho_ab, _SIGMA_PAIRS).real


def _reports(rho: DensityMatrix, pairs) -> list[SubspaceReport]:
    """Reports of the (alpha, beta) pairs: lambda_min of every partial
    transpose in one eigensolve, every CHSH maximum in one SVD."""
    c, live, blk = _blocks(rho, pairs)
    sv = np.linalg.svd(_correlations(blk)[:, 1:, 1:], compute_uv=False)
    bmax = np.where(live, c * 2.0 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2), 0.0)
    lam = np.where(live, np.linalg.eigvalsh(partial_transpose_mat(blk, 2, 2))[:, 0], 0.0)
    nmax = 1.0 - 4.0 * lam
    d = nmax - 1.0
    cols = zip(*(col.tolist() for col in (c, lam, bmax, nmax, d, np.maximum(0.0, d))))
    return [SubspaceReport(a, b, *row) for (a, b), row in zip(pairs, cols)]


def _pair_block(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair):
    """Weight c and rho_ab of one subspace pair; rho_ab is None when it is empty."""
    _check_pairs(rho.dims, alpha, beta)
    c, live, blk = _blocks(rho, [(alpha, beta)])
    return float(c[0]), (blk[0] if live[0] else None)


def project_state(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair) -> ProjectedState:
    """Compress rho onto the (alpha, beta) subspace pair.

    Returns the weight c = Tr(rho P_alpha (x) P_beta) and the normalized
    two-qubit state on basis (|j l>, |j m>, |k l>, |k m>); an empty subspace
    (c <= TAU_C) is a value, not an error.
    """
    c, rho_ab = _pair_block(rho, alpha, beta)
    return ProjectedState(c=c, rho_ab=None if rho_ab is None else validate_density(rho_ab, Dims(2, 2)))


def _bell_directions(s):
    if isinstance(s, BellSettings):
        return s.a1, s.a2, s.b1, s.b2
    return s.triad_a.vector(0), s.triad_a.vector(1), s.triad_b.vector(0), s.triad_b.vector(1)


def bell_value(rho: DensityMatrix, s) -> float:
    """Mean value of the CHSH operator built from tilde observables.

    Accepts BellSettings or WitnessSettings (which contributes its first two
    triad directions per side).
    """
    a1, a2, b1, b2 = _bell_directions(s)
    ta1, ta2 = (tilde_operator(embed_observable(s.alpha, a)) for a in (a1, a2))
    tb1, tb2 = (tilde_operator(embed_observable(s.beta, b)) for b in (b1, b2))
    op = np.kron(ta1, tb1) + np.kron(ta1, tb2) + np.kron(ta2, tb1) - np.kron(ta2, tb2)
    return float(np.real(np.trace(rho.mat @ op)))


def bell_max(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair) -> float:
    """Largest attainable |bell_value| on this subspace: c * 2*sqrt(s1^2 + s2^2).

    This is the Horodecki CHSH criterion on the compressed state, scaled back
    by the subspace weight; 0 for an empty subspace.  For entanglement
    thresholds compare bell_max / c against 2, not bell_max itself.
    """
    return subspace_report(rho, alpha, beta).bell_max


def nonlinear_value(rho: DensityMatrix, s: WitnessSettings) -> float:
    """Nonlinear witness mean sqrt(<A1B1 + A2B2>^2 + <A3 + B3>^2) - <A3B3>.

    All operators are tilde-conjugated embeddings; the sum term pairs each
    third observable with the other side's subspace projector.
    """
    ta = [tilde_operator(embed_observable(s.alpha, s.triad_a.vector(i))) for i in range(3)]
    tb = [tilde_operator(embed_observable(s.beta, s.triad_b.vector(i))) for i in range(3)]
    pa = subspace_projector(s.alpha)
    pb = subspace_projector(s.beta)
    mat = rho.mat
    t11 = float(np.real(np.trace(mat @ (np.kron(ta[0], tb[0]) + np.kron(ta[1], tb[1])))))
    t3 = float(np.real(np.trace(mat @ (np.kron(ta[2], pb) + np.kron(pa, tb[2])))))
    t33 = float(np.real(np.trace(mat @ np.kron(ta[2], tb[2]))))
    return math.hypot(t11, t3) - t33


def nonlinear_normalized(rho: DensityMatrix, s: WitnessSettings) -> float:
    """nonlinear_value / c; equals the plain two-qubit witness on rho_ab.

    Raises on an empty subspace (nothing to normalize).
    """
    c, rho_ab = _pair_block(rho, s.alpha, s.beta)
    if rho_ab is None:
        raise ValueError("empty subspace: c <= TAU_C")
    return nonlinear_value(rho, s) / c


def nonlinear_max(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair) -> float:
    """Maximum of the normalized nonlinear witness over same-handed triads.

    Equals 1 - 4*lambda_min(rho_ab^{T_A}); above 1 exactly when the compressed
    state is entangled.  Empty subspaces return 1 (no violation possible).
    """
    return subspace_report(rho, alpha, beta).nonlinear_max


def subspace_report(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair) -> SubspaceReport:
    """All per-subspace figures of one pair."""
    _check_pairs(rho.dims, alpha, beta)
    return _reports(rho, [(alpha, beta)])[0]


def subspace_reports(rho: DensityMatrix) -> list[SubspaceReport]:
    """Reports for all subspace pairs in lexicographic (alpha, beta) order."""
    betas = [beta for beta, _ in so_generators(rho.dims.n)]
    return _reports(rho, [(alpha, beta) for alpha, _ in so_generators(rho.dims.m) for beta in betas])


def detect_entanglement(rho: DensityMatrix) -> tuple[bool, list[SubspaceReport]]:
    """True iff some subspace's nonlinear_max exceeds 1 + TAU_DETECT.

    Returns the full report list so callers can pick the witnessing subspace
    with the largest violation for experiment design.
    """
    reports = subspace_reports(rho)
    return any(r.nonlinear_max > 1.0 + TAU_DETECT for r in reports), reports


def best_report(reports: list[SubspaceReport]) -> SubspaceReport:
    """The subspace with the largest nonlinear violation."""
    return max(reports, key=lambda r: r.nonlinear_max)


# ---------------------------------------------------------------------------
# numeric settings search, used as an independent check of the closed forms:
# it reads only the correlation table of the block, never lambda_min or the SVD

_GRAD_TOL = 1e-10  # max-norm of the gradient at which a restart has converged
_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking line search


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ri,ri->r", u, v)


def _zyz_gradient(ang: np.ndarray, rot: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient over ZYZ angles (..., 3) of a function with df/dR = g at R = rot.

    dR/dt1 = Gz R, dR/dt2 = K(t1) R and dR/dt3 = R Gz, with Gz the generator
    of Rz and K(t1) = Rz(t1) Gy Rz(t1)^T the rotated generator of Ry.
    """
    rows = g @ np.swapaxes(rot, -1, -2)  # g_k . R_l
    cols = np.swapaxes(g, -1, -2) @ rot  # g^T R
    ca, sa = np.cos(ang[..., 0]), np.sin(ang[..., 0])
    out = np.empty_like(ang)
    out[..., 0] = rows[..., 1, 0] - rows[..., 0, 1]
    out[..., 1] = ca * (rows[..., 0, 2] - rows[..., 2, 0]) + sa * (rows[..., 1, 2] - rows[..., 2, 1])
    out[..., 2] = cols[..., 0, 1] - cols[..., 1, 0]
    return out


def _nonlinear_fg(x: np.ndarray, t: np.ndarray, r: np.ndarray, s: np.ndarray):
    """Normalized nonlinear witness and its gradient at ZYZ angles x (R, 6).

    Rows of Rzyz(x[:, :3]) and Rzyz(x[:, 3:]) are the triads of A and B;
    t is the correlation matrix of rho_ab and r, s its Bloch vectors.
    """
    ang = x.reshape(len(x), 2, 3)
    rot = rotation_zyz(ang[..., 0], ang[..., 1], ang[..., 2])
    a, b = rot[:, 0], rot[:, 1]
    at = a @ t  # rows a_k^T T
    bt = b @ t.T  # rows (T b_k)^T
    corr = np.einsum("rkj,rkj->r", a[:, :2], bt[:, :2])
    summ = a[:, 2] @ r + b[:, 2] @ s
    last = _dot(a[:, 2], bt[:, 2])
    h = np.hypot(corr, summ)
    safe = np.where(h > 0.0, h, 1.0)
    w = np.stack([corr / safe, corr / safe, -np.ones_like(h)], axis=1)[:, None, :, None]
    g = np.stack([bt, at], axis=1) * w  # df/dA and df/dB
    g[:, :, 2] += (summ / safe)[:, None, None] * np.stack([r, s])
    return h - last, _zyz_gradient(ang, rot, g).reshape(x.shape)


def _sph(theta, phi) -> np.ndarray:
    """Unit vectors at spherical angles; arrays broadcast to shape (..., 3)."""
    st = np.sin(theta)
    v = np.empty(np.broadcast(theta, phi).shape + (3,))
    v[..., 0] = st * np.cos(phi)
    v[..., 1] = st * np.sin(phi)
    v[..., 2] = np.cos(theta)
    return v


def _bell_fg(x: np.ndarray, t: np.ndarray):
    """|CHSH| of rho_ab and its gradient at spherical angles x (R, 8).

    Angle pairs (theta, phi) give the directions a1, a2, b1, b2 in that order;
    t is the correlation matrix of rho_ab.
    """
    th, ph = x[:, 0::2], x[:, 1::2]
    v = _sph(th, ph)  # (R, 4, 3)
    ct, st, cp, sp = v[..., 2], np.sin(th), np.cos(ph), np.sin(ph)
    ta = v[:, :2] @ t  # rows a_k^T T
    bp, bm = v[:, 2] + v[:, 3], v[:, 2] - v[:, 3]
    val = _dot(ta[:, 0], bp) + _dot(ta[:, 1], bm)
    dv = np.stack([bp @ t.T, bm @ t.T, ta[:, 0] + ta[:, 1], ta[:, 0] - ta[:, 1]], axis=1)
    dv *= np.sign(val)[:, None, None]
    grad = np.empty_like(x)
    grad[:, 0::2] = ct * (cp * dv[..., 0] + sp * dv[..., 1]) - st * dv[..., 2]
    grad[:, 1::2] = st * (cp * dv[..., 1] - sp * dv[..., 0])
    return np.abs(val), grad


def _ascend(fg, x: np.ndarray, step_tol: float, max_evals: int):
    """Maximize fg from every row of x at once: BFGS with Armijo backtracking.

    fg maps angles (R, n) to values (R,) and gradients (R, n).  Each pass
    evaluates fg once at every row's trial point; a row that fails the
    Armijo test halves its step, a row that passes takes it and updates its
    inverse Hessian.  A row stops when its gradient (max-norm) falls below
    _GRAD_TOL, its accepted step below step_tol, or its line search stalls
    below step_tol.  max_evals caps the calls of fg.  Returns the final
    angles and their values.
    """
    x = np.array(x, dtype=float)
    f, g = fg(x)
    evals = 1
    eye = np.eye(x.shape[1])
    hinv = np.broadcast_to(eye, (len(x),) + eye.shape).copy()  # inverse Hessian of -f
    p, step = g.copy(), np.ones(len(x))
    active = np.abs(g).max(axis=1) > _GRAD_TOL
    while active.any() and evals < max_evals:
        trial = x + step[:, None] * p
        ft, gt = fg(trial)
        evals += 1
        ok = active & (ft >= f + _ARMIJO * step * _dot(p, g))
        back = active & ~ok
        step[back] *= 0.5
        active &= ~(back & (step * np.abs(p).max(axis=1) < step_tol))
        if not ok.any():
            continue
        sx, y = trial - x, g - gt
        sy = _dot(sx, y)
        # update the rows that passed where the curvature condition holds
        inv_sy = np.divide(1.0, sy, out=np.zeros_like(sy), where=ok & (sy > 0.0))
        hy = np.einsum("rij,rj->ri", hinv, y)
        hinv -= inv_sy[:, None, None] * (sx[:, :, None] * hy[:, None, :] + hy[:, :, None] * sx[:, None, :])
        hinv += (inv_sy + inv_sy**2 * _dot(y, hy))[:, None, None] * sx[:, :, None] * sx[:, None, :]
        x[ok], f[ok], g[ok] = trial[ok], ft[ok], gt[ok]
        p[ok], step[ok] = np.einsum("rij,rj->ri", hinv[ok], g[ok]), 1.0
        active &= ~(ok & ((np.abs(sx).max(axis=1) < step_tol) | (np.abs(g).max(axis=1) <= _GRAD_TOL)))
    return x, f


def optimize_settings(
    rho: DensityMatrix,
    alpha: GeneratorPair,
    beta: GeneratorPair,
    kind: str,
    cfg: OptimizerConfig = OptimizerConfig(),
):
    """Multi-start quasi-Newton search over measurement settings.

    kind="nonlinear" maximizes the normalized witness over two same-handed
    triads (6 angles, ZYZ per side) and returns (WitnessSettings, value);
    kind="bell" maximizes |bell_value| over four independent directions
    (8 spherical angles) and returns (BellSettings, value).  All restarts,
    drawn uniformly from default_rng(cfg.seed), climb together by BFGS with
    analytic gradients (see _ascend).  The search reads only the correlation
    table of the compressed block, never the closed forms.  Deterministic
    for a fixed cfg.
    """
    c, rho_ab = _pair_block(rho, alpha, beta)
    if rho_ab is None:
        raise ValueError("empty subspace: c <= TAU_C")
    corr = _correlations(rho_ab)
    t, r, s = corr[1:, 1:], corr[1:, 0], corr[0, 1:]
    if kind == "nonlinear":
        fg, nang, scale = (lambda x: _nonlinear_fg(x, t, r, s)), 6, 1.0
    elif kind == "bell":
        # the search runs on rho_ab; bell_value on rho carries the weight c
        fg, nang, scale = (lambda x: _bell_fg(x, t)), 8, c
    else:
        raise ValueError(f"unknown witness kind {kind!r}")

    starts = np.random.default_rng(cfg.seed).uniform(0.0, 2.0 * np.pi, (cfg.restarts, nang))
    x, f = _ascend(fg, starts, cfg.step_tol, cfg.max_evals)
    best = int(np.argmax(f))
    x = x[best]
    if kind == "nonlinear":
        settings = WitnessSettings(
            alpha,
            beta,
            triad_from_rotation(rotation_zyz(*x[:3])),
            triad_from_rotation(rotation_zyz(*x[3:])),
        )
    else:
        settings = BellSettings(alpha, beta, *_sph(x[0::2], x[1::2]))
    return settings, float(scale * f[best])


# ---------------------------------------------------------------------------
# finite-shot simulation of a mean value

def estimate_mean_shots(rho: DensityMatrix, obs: np.ndarray, shots: int, seed=None):
    """Sample the observable in its eigenbasis and return (mean, stderr).

    Outcomes are eigenvalues drawn with Born weights <e_i|rho|e_i>; the mean
    converges to Tr(rho obs) and stderr is the sample standard deviation over
    sqrt(shots).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    w, v = np.linalg.eigh(_hermitian_part(np.asarray(obs, dtype=complex)))
    probs = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho.mat, v))
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(w, size=shots, p=probs)
    mean = float(outcomes.mean())
    stderr = float(outcomes.std(ddof=1) / math.sqrt(shots)) if shots > 1 else 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# CSV serialization of report lists

CSV_HEADER = "alpha_j,alpha_k,beta_l,beta_m,c,lambda_min,bell_max,nonlinear_max,d,x"


def _csv_text(header: str, rows) -> str:
    """The one CSV writer: the header, then each row of numbers at 12
    significant digits (integers print as themselves), LF line endings."""
    lines = [header] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[SubspaceReport]) -> str:
    """CSV text, 12 significant digits, LF line endings."""
    rows = (
        (r.alpha.j, r.alpha.k, r.beta.j, r.beta.k, r.c, r.lambda_min, r.bell_max, r.nonlinear_max, r.d, r.x)
        for r in reports
    )
    return _csv_text(CSV_HEADER, rows)


def csv_rows(text: str) -> list[dict]:
    """Parse reports_to_csv output back into numeric row dicts."""
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    names = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        row = {name: (int(p) if i < 4 else float(p)) for i, (name, p) in enumerate(zip(names, parts))}
        rows.append(row)
    return rows
