"""Two-qubit subspace compression and the Bell / nonlinear entanglement witnesses.

A bipartite state on m x n compresses onto each pair of 2-dim local subspaces
(alpha on A, beta on B) through the generator sandwich (L_a (x) L_b) rho
(L_a (x) L_b)^dag.  The surviving 4x4 block, normalized by its weight c,
is a genuine two-qubit state rho_ab, and every two-qubit separability test
applies to it:

* CHSH Bell test with two measurement directions per side.  The maximum of
  |<B>| over directions is c * 2*sqrt(s1^2 + s2^2) with s1 >= s2 the largest
  singular values of the correlation matrix T_ij = Tr(rho_ab sigma_i (x) sigma_j)
  [R. Horodecki, P. Horodecki, M. Horodecki, Phys. Lett. A 200, 340 (1995)];
  s1^2 + s2^2 is the sum of the two largest eigenvalues of the Gram matrix T^T T.
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

Every per-subspace figure comes from one kernel over a stack of same-dims
states.  It gathers the raw blocks of all subspace pairs of every state at
once, solves them in one eigensolve of their 4x4 partial transposes
(_nonlinear_columns) and one of their 3x3 real Gram matrices T^T T
(_bell_maxima), and returns numpy columns shaped (states, pairs); a scan's
bisection probe runs only the half its bracket reads.  A validated state is
exactly Hermitian, so every gathered block is too.  rho.mat is read as
stored: an exactly real state is gathered, compressed and solved in float64,
which agrees with the complex solve to rounding.  The weight c of a
pair and its empty rule c <= TAU_C are read from the diagonal of the state in
one place (_weights); c divides the columns, never a block.

The bound reads only the raw lambda_min of each pair, and its entry point
(_violations) gathers and solves only the blocks that a purity certificate
leaves open: a Hermitian unit-trace 4x4 X has
lambda_min(X) >= 1/4 - sqrt(3(Tr X^2 - 1/4)/4), which is > 0 iff
Tr X^2 < 1/3, and the partial transpose keeps the purity.  A certified
block's clipped violation is exactly 0.  Every block's purity is summed from
the entries of rho, one party at a time (_purities), so a certified block is
never gathered.  Detection, the scan grid and the SubspaceReport rows read
every lambda_min, so they solve every block.

Measurement settings come from a separate numeric search (optimize_settings):
a multi-start BFGS ascent with analytic gradients over the measurement
angles.  It reads only the correlation table of a block, never lambda_min or
the Gram eigenvalues, so its agreement with the closed forms is an
independent check.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from numbers import Integral, Real

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
    DimensionMismatchError,
    Dims,
    _hermitian_part,
    partial_transpose_mat,
    validate_density,
)

TAU_C = 1e-12
TAU_DETECT = 1e-8

# signs of the two-party generator sandwich Y (x) Y on a reversed 4x4 block
_YY_SIGNS = np.outer([1.0, -1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0])
# Re Tr(X s) = sum_ab (Re X_ab Re s_ba - Im X_ab Im s_ba) for s = sigma_i (x) sigma_j, sigma_0 = I:
# rows 2(4a + b) and 2(4a + b) + 1, column 4i + j, hold Re s_ba and -Im s_ba, so a real matmul of
# blocks viewed as (re, im) pairs gives their tables, 20 times faster than an einsum; real blocks
# need only the even rows.
_SIGMA_REAL = np.array(
    [[np.kron(a, b) for b in (np.eye(2), *PAULI)] for a in (np.eye(2), *PAULI)]
).transpose(3, 2, 0, 1).reshape(16, 16)
_SIGMA_REAL = np.stack([_SIGMA_REAL.real, -_SIGMA_REAL.imag], axis=1).reshape(32, 16)


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
    passes of one call, each of which evaluates every restart once, the
    starts included.  `restarts` and `max_evals` are integers >= 1, `seed`
    an integer >= 0 and `step_tol` a number >= 0 (not NaN); anything else
    raises ValueError naming the field."""

    restarts: int = 32
    seed: int = 0
    step_tol: float = 1e-7
    max_evals: int = 2000

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("max_evals", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"OptimizerConfig.{name} must be an integer >= {low}, got {value!r}")
        if isinstance(self.step_tol, bool) or not isinstance(self.step_tol, Real) or not self.step_tol >= 0:
            raise ValueError(f"OptimizerConfig.step_tol must be a number >= 0, got {self.step_tol!r}")


def _check_pairs(dims: Dims, alpha: GeneratorPair, beta: GeneratorPair) -> None:
    if alpha.dim != dims.m or beta.dim != dims.n:
        raise ValueError(
            f"pair dims ({alpha.dim},{beta.dim}) do not match state dims ({dims.m},{dims.n})"
        )


# ---------------------------------------------------------------------------
# the subspace kernel: every per-subspace figure starts from _blocks

# kernel output: one (N, P) array per figure for N states and P subspace pairs; raw = c * lambda_min
_Columns = namedtuple("_Columns", "c live raw lambda_min bell_max nonlinear_max")


def _pair_index(pairs) -> np.ndarray:
    """The (P, 4) index rows (alpha.j, alpha.k, beta.j, beta.k) of (alpha, beta) pairs."""
    return np.array([(a.j, a.k, b.j, b.k) for a, b in pairs])


def _local_pairs(dim: int) -> np.ndarray:
    """The (C(dim,2), 2) rows (j, k), j < k, of one party's pairs in lexicographic order."""
    return np.array(list(itertools.combinations(range(dim), 2))).reshape(-1, 2)


@functools.cache
def _all_pairs_index(dims: Dims) -> np.ndarray:
    """_pair_index of every subspace pair in lexicographic (alpha, beta) order,
    without building the pairs; built once per dims and read-only."""
    a, b = _local_pairs(dims.m), _local_pairs(dims.n)
    index = np.concatenate([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))], axis=1)
    index.setflags(write=False)
    return index


def _weights(stack: np.ndarray, n: int, index: np.ndarray):
    """Weights c >= 0 and live mask c > TAU_C, both (N, P), of the pairs in
    `index` on a stack (N, mn, mn) of states: the one home of the empty rule.
    c sums the block's diagonal entries of rho in the order (ja, jb),
    (ja, kb), (ka, jb), (ka, kb)."""
    ja, ka, jb, kb = index.T
    diag = np.diagonal(stack, axis1=-2, axis2=-1).real
    c = diag[:, ja * n + jb] + diag[:, ja * n + kb] + diag[:, ka * n + jb] + diag[:, ka * n + kb]
    c = np.maximum(c, 0.0)
    return c, c > TAU_C


def _blocks(stack: np.ndarray, n: int, index: np.ndarray) -> np.ndarray:
    """The raw (unnormalized) blocks, shaped (N, P, 4, 4), of the pairs in
    `index` on a stack (N, mn, mn) of states.

    The sandwich by L (x) L acts on a gathered 4x4 block as Y (x) Y with
    Y = [[0,1],[-1,0]]: a reversal of the block basis with the middle two
    vectors negated.  The gather only reverses, so a block is c rho_ab up to
    the local unitary Z (x) Z (the signs _YY_SIGNS, which _pair_block
    applies), which keeps lambda_min of the partial transpose and the
    singular values of T.
    """
    ja, ka, jb, kb = index.T
    side = stack.shape[-1]
    rows = np.stack([ka * n + kb, ka * n + jb, ja * n + kb, ja * n + jb], axis=1)
    flat = (rows * side)[:, :, None] + rows[:, None, :]  # entry (i, j) of each block in the flattened state
    return np.take(stack.reshape(len(stack), side * side), flat, axis=1)


def _correlations(rho_ab: np.ndarray) -> np.ndarray:
    """Tr(rho_ab sigma_mu (x) sigma_nu), sigma_0 = I, of one real or complex block
    or a stack: T = [..., 1:, 1:] and the Bloch vectors r = [..., 1:, 0], s = [..., 0, 1:]."""
    flat = rho_ab.reshape(-1, 16)
    if np.iscomplexobj(flat):
        return (flat.view(np.float64) @ _SIGMA_REAL).reshape(rho_ab.shape)
    return (flat @ _SIGMA_REAL[0::2]).reshape(rho_ab.shape)


def _lambda_min(blk: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose of each 4x4 block of a stack."""
    return np.linalg.eigvalsh(partial_transpose_mat(blk, 2, 2))[..., 0]


def _nonlinear_columns(blk: np.ndarray, c: np.ndarray, live: np.ndarray):
    """raw lambda_min, lambda_min = raw / c (the one division by c) and
    nonlinear_max of raw blocks (..., 4, 4) with weights c and live mask (...),
    in one eigensolve; an empty pair reads 0, 0 and 1."""
    raw = np.where(live, _lambda_min(blk), 0.0)
    lam = raw / np.where(live, c, 1.0)
    return raw, lam, 1.0 - 4.0 * lam


def _bell_maxima(blk: np.ndarray, live: np.ndarray) -> np.ndarray:
    """CHSH maxima of raw blocks (..., 4, 4), which carry c; 0 on empty pairs.
    s1^2 + s2^2 of each correlation matrix T is the sum of the two largest
    eigenvalues of the Gram matrix T^T T, from one real symmetric eigensolve;
    the sum is clamped at 0, which a zero T reaches up to rounding."""
    t = _correlations(blk)[..., 1:, 1:]
    ev = np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t)
    return np.where(live, 2.0 * np.sqrt(np.maximum(ev[..., 1] + ev[..., 2], 0.0)), 0.0)


def _reports(stack: np.ndarray, n: int, index: np.ndarray) -> _Columns:
    """Columns of the pairs in `index` on a stack of states, from one gather
    of their raw blocks: both witnesses of every pair."""
    c, live = _weights(stack, n, index)
    blk = _blocks(stack, n, index)
    raw, lam, nonlinear = _nonlinear_columns(blk, c, live)
    return _Columns(c, live, raw, lam, _bell_maxima(blk, live), nonlinear)


# Purity certificate.  A Hermitian 4x4 X with Tr X = 1 and purity p = Tr X^2
# has lambda_min(X) >= 1/4 - sqrt(3(p - 1/4)/4): the other three eigenvalues
# sum to 1 - lambda, so p >= lambda^2 + (1 - lambda)^2/3.  The bound is > 0
# iff p < 1/3, and it needs no positivity of X.  The partial transpose only
# permutes entries, so rho_ab^{T_A} has the purity of rho_ab.  Below
# 1/3 - 1e-9 the bound is at least 1.5e-9, far above the ~1e-15 error of a
# 4x4 eigvalsh, so such a block's violation is exactly 0 without solving it.
_PURITY_CERT = 1.0 / 3.0 - 1e-9


def _purities(stack: np.ndarray, dims: Dims) -> np.ndarray:
    """Raw purities q = sum |blk|^2 of the unnormalized gathered blocks of
    every subspace pair, (N, P) in _all_pairs_index order, read from a stack
    (N, mn, mn) of states without gathering a block: the block of (alpha,
    beta) holds the entries +-rho[(a,b),(a',b')] for a, a' in alpha and b, b'
    in beta, so q is a four-term sum per party over |rho|^2, first over
    alpha's (a, a'), then over beta's (b, b')."""
    m, n = dims.m, dims.n
    ja, ka = _local_pairs(m).T
    jb, kb = _local_pairs(n).T
    w = np.square(stack.real) + np.square(stack.imag) if np.iscomplexobj(stack) else np.square(stack)
    w = w.reshape(-1, m, n, m, n).transpose(0, 1, 3, 2, 4)  # axes (a, a', b, b')
    wa = w[:, ja, ja] + w[:, ja, ka] + w[:, ka, ja] + w[:, ka, ka]
    q = wa[..., jb, jb] + wa[..., jb, kb] + wa[..., kb, jb] + wa[..., kb, kb]
    return q.reshape(len(stack), -1)


def _violations(stack: np.ndarray, dims: Dims) -> np.ndarray:
    """Raw lambda_min, (N, P) in _all_pairs_index order, on a stack of states.
    Only the live blocks the purity certificate leaves open are gathered and
    solved; every other pair reads 0, which the bound clips to 0 as it does
    the positive value in the full _reports columns."""
    index = _all_pairs_index(dims)
    c, live = _weights(stack, dims.n, index)
    raw = np.zeros_like(c)
    solve = live & (_purities(stack, dims) >= _PURITY_CERT * c**2)
    cols = np.flatnonzero(solve.any(axis=0))
    if cols.size:
        raw[solve] = _lambda_min(_blocks(stack, dims.n, index[cols])[solve[:, cols]])
    return raw


def _report_rows(rho: DensityMatrix, pairs) -> list[SubspaceReport]:
    """SubspaceReport rows of one state's (alpha, beta) pairs."""
    cols = _reports(rho.mat[None], rho.dims.n, _pair_index(pairs))
    d = cols.nonlinear_max[0] - 1.0
    table = (cols.c[0], cols.lambda_min[0], cols.bell_max[0], cols.nonlinear_max[0], d, np.maximum(0.0, d))
    return [SubspaceReport(a, b, *row) for (a, b), row in zip(pairs, zip(*(col.tolist() for col in table)))]


def _pair_block(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair):
    """Weight c and rho_ab of one subspace pair; rho_ab is None when it is empty."""
    _check_pairs(rho.dims, alpha, beta)
    stack, index = rho.mat[None], _pair_index([(alpha, beta)])
    (c,), (live,) = _weights(stack, rho.dims.n, index)
    return float(c[0]), (_blocks(stack, rho.dims.n, index)[0, 0] / c[0] * _YY_SIGNS if live[0] else None)


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
    _check_pairs(rho.dims, s.alpha, s.beta)
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
    _check_pairs(rho.dims, s.alpha, s.beta)
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
    return _report_rows(rho, [(alpha, beta)])[0]


def subspace_reports(rho: DensityMatrix) -> list[SubspaceReport]:
    """Reports for all subspace pairs in lexicographic (alpha, beta) order."""
    betas = [beta for beta, _ in so_generators(rho.dims.n)]
    return _report_rows(rho, [(alpha, beta) for alpha, _ in so_generators(rho.dims.m) for beta in betas])


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
# it reads only the correlation table of the block, never lambda_min or the Gram eigenvalues

_GRAD_TOL = 1e-10  # max-norm of the gradient at which a restart has converged
_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking line search

# flattened Rz(t), Ry(t), Rz(t) of the ZYZ factors as cos(t) * _ZYZ[0] + sin(t) * _ZYZ[1] + _ZYZ[2]
_ZYZ = np.array([[[1, 0, 0, 0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0, 0, 0, 0]],
                 [[0, -1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0]],
                 [[0, 0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 1]]], float)
# axial vector (q21 - q12, q02 - q20, q10 - q01) of a 3x3 q as q.reshape(9) @ _AXIAL: entry (3i + j, k) is -eps_ijk
_AXIAL = -np.cross(np.eye(3)[:, None], np.eye(3)).reshape(9, 3)
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]])


def _nonlinear_fg(x: np.ndarray, t: np.ndarray, r: np.ndarray, s: np.ndarray):
    """Normalized nonlinear witness and its gradient at ZYZ angles x (R, 6).

    Rows of Rzyz(x[:, :3]) and Rzyz(x[:, 3:]) are the triads of A and B;
    t is the correlation matrix of rho_ab and r, s its Bloch vectors.  With
    G = df/dR and q = G R^T, an angle that turns R as dR/dt = [v]_x R has
    df/dt = v . axial(q); the ZYZ angles turn about e_z, Rz(t1) e_y and
    Rz(t1) Ry(t2) e_z, columns of the first factor and of the first two.
    """
    ang = x.reshape(-1, 2, 3)
    cos, sin = np.cos(ang), np.sin(ang)
    fac = (cos[..., None] * _ZYZ[0] + sin[..., None] * _ZYZ[1] + _ZYZ[2]).reshape(-1, 2, 3, 3, 3)
    head = fac[:, :, 0] @ fac[:, :, 1]
    rot = head @ fac[:, :, 2]  # (R, 2, 3, 3): rows a_k, then rows b_k
    m = rot @ np.stack([t, t.T])  # rows a_k^T T, then rows (T b_k)^T
    ab = (rot[:, 0] * m[:, 1]).sum(axis=-1)  # a_k^T T b_k
    rs = np.stack([r, s])
    corr, summ = ab[:, 0] + ab[:, 1], (rot[:, :, 2] * rs).sum(axis=(1, 2))
    h = np.hypot(corr, summ)
    safe = np.where(h > 0.0, h, 1.0)
    g = m[:, ::-1] * (corr / safe)[:, None, None, None]  # df/dA and df/dB
    g[:, :, 2] = (summ / safe)[:, None, None] * rs - m[:, ::-1, 2]
    axial = (g @ np.swapaxes(rot, -1, -2)).reshape(-1, 2, 1, 9) @ _AXIAL
    axes = np.concatenate([fac[:, :, 0][..., [2, 1]], head[..., 2:]], axis=-1)
    return h - ab[:, 2], (axial @ axes).reshape(x.shape)


def _sph(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Unit vectors (..., k, 3) at the k spherical angle pairs (theta, phi)
    of the last axis, from the cosines and sines of the angles."""
    return np.stack([sin[..., 0::2] * cos[..., 1::2], sin[..., 0::2] * sin[..., 1::2], cos[..., 0::2]], axis=-1)


def _bell_fg(x: np.ndarray, t: np.ndarray):
    """|CHSH| of rho_ab and its gradient at spherical angles x (R, 8).

    Angle pairs (theta, phi) give the directions a1, a2, b1, b2 in that order;
    t is the correlation matrix of rho_ab.
    """
    cos, sin = np.cos(x), np.sin(x)
    ct, st, cp, sp = cos[:, 0::2], sin[:, 0::2], cos[:, 1::2], sin[:, 1::2]
    v = _sph(cos, sin)  # (R, 4, 3)
    m = (_PLUS_MINUS @ v.reshape(-1, 2, 2, 3)) @ np.stack([t, t.T])  # rows (a1 +- a2)^T T, (T (b1 +- b2))^T
    val = (v[:, :2] * m[:, 1]).sum(axis=(1, 2))
    dv = m[:, ::-1].reshape(-1, 4, 3) * np.sign(val)[:, None, None]
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
    below step_tol.  max_evals caps the passes, the one at the starts
    included.  A pass selects each row's update by np.where over the whole
    batch, not by indexing.  Returns the final angles and their values.
    """
    x = np.asarray(x, dtype=float)
    f, g = fg(x)
    evals = 1
    hinv = np.tile(np.eye(x.shape[1]), (len(x), 1, 1))  # inverse Hessian of -f
    p, step = g, np.ones(len(x))
    active = np.abs(g).max(axis=1) > _GRAD_TOL
    while active.any() and evals < max_evals:
        sx = step[:, None] * p
        trial = x + sx
        ft, gt = fg(trial)
        evals += 1
        ok = active & (ft >= f + _ARMIJO * (sx * g).sum(axis=1))
        size = np.abs(sx).max(axis=1)
        stop = 0.5 * size < step_tol  # a failing row halves its step: its line search stalls
        if ok.any():
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
            keep = ok[:, None]
            x, f, g = np.where(keep, trial, x), np.where(ok, ft, f), np.where(keep, gt, g)
            p = np.where(keep, (hinv @ g[:, :, None])[:, :, 0], p)
            stop = np.where(ok, (size < step_tol) | (np.abs(g).max(axis=1) <= _GRAD_TOL), stop)
        active &= ~stop
        step = np.where(ok, 1.0, 0.5 * step)
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
    if kind not in ("nonlinear", "bell"):
        raise ValueError(f"unknown witness kind {kind!r}")
    c, rho_ab = _pair_block(rho, alpha, beta)
    if rho_ab is None:
        raise ValueError("empty subspace: c <= TAU_C")
    corr = _correlations(rho_ab)
    t, r, s = corr[1:, 1:], corr[1:, 0], corr[0, 1:]
    if kind == "nonlinear":
        fg, nang, scale = (lambda x: _nonlinear_fg(x, t, r, s)), 6, 1.0
    else:
        # the search runs on rho_ab; bell_value on rho carries the weight c
        fg, nang, scale = (lambda x: _bell_fg(x, t)), 8, c

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
        settings = BellSettings(alpha, beta, *_sph(np.cos(x), np.sin(x)))
    return settings, float(scale * f[best])


# ---------------------------------------------------------------------------
# finite-shot simulation of a mean value

def estimate_mean_shots(rho: DensityMatrix, obs: np.ndarray, shots: int, seed=None):
    """Sample the observable in its eigenbasis and return (mean, stderr).

    Outcomes are eigenvalues drawn with Born weights <e_i|rho|e_i>; the mean
    converges to Tr(rho obs) and stderr is the sample standard deviation over
    sqrt(shots).  shots must be an integer >= 1 (not a bool) and obs Hermitian
    of the state's shape (else DimensionMismatchError).
    """
    if isinstance(shots, bool) or not isinstance(shots, Integral) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != rho.mat.shape:
        raise DimensionMismatchError(f"observable of shape {obs.shape} does not match the state's {rho.mat.shape}")
    w, v = np.linalg.eigh(_hermitian_part(obs))
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


def _csv_text(header: str | None, rows) -> str:
    """The one CSV writer: the header (None for a continuation), then each row
    of numbers at 12 significant digits (integers print as themselves), LF
    line endings."""
    lines = [] if header is None else [header]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[SubspaceReport]) -> str:
    """CSV text, 12 significant digits, LF line endings."""
    rows = (
        (r.alpha.j, r.alpha.k, r.beta.j, r.beta.k, r.c, r.lambda_min, r.bell_max, r.nonlinear_max, r.d, r.x)
        for r in reports
    )
    return _csv_text(CSV_HEADER, rows)
