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
(_bell_maxima), and returns numpy columns shaped (states, pairs).  A
validated state is exactly Hermitian, so every gathered block is too.
rho.mat is read as stored: an exactly real state is gathered, compressed and
solved in float64, which agrees with the complex solve to rounding.  The
weight c of a pair and its empty rule c <= TAU_C are read from the diagonal
of the state in one place (_weights); c divides the columns, never a block.

The bound reads only the raw lambda_min of each pair, and its entry point
(_violations) gathers only the blocks that the purity certificate leaves
open and solves only those of them that the diagonal rule does not settle;
both rules are explained at their constants, _PURITY_CERT and _OFF_DIAGONAL.
A rank-one state (DensityMatrix.vec) skips the kernel: _pure_violations
reads each raw lambda_min as minus the modulus of a 2x2 minor of its
coefficient matrix.
Detection, the scan grid and the SubspaceReport rows read every lambda_min,
so they solve every block.  The scan grid's Bell column reads only each
state's largest bell_max / c, so it solves the Gram matrices of only the
pairs whose trace bound can reach it (_bell_ratios, _GRAM_MARGIN); a scan's
bisection probe runs only the half its bracket reads, on the pairs its
bracket keeps (cli._bracket_pairs).  Every block gather, of all pairs or of
one, reads its block rows from _pair_rows, built once per dims, and every
weight comes from _weights in the same order; one pair sits at its
_pair_position.
The detection rule lives beside TAU_DETECT: detect_entanglement and the CLI
scan both test the differences _nonlinear_d and _bell_d against it.

Measurement settings come from a separate numeric search (optimize_settings):
a multi-start BFGS ascent with analytic gradients over rotation frames, each
step a body-frame rotation exp([w]x) in a chart re-centred at every accepted
point (_turn, _ascend); every line search starts from a turn of at most
_MAX_TURN radians, the full _MAX_TURN after a step along which the objective
curved up, and a restart leaves the batch when it stops.  The Bell search
climbs over B's two directions only: for fixed b1, b2 the best a1, a2 are
the unit vectors of T(b1 +- b2), in closed form (_bell_fg).  It reads only
the correlation table of a block, never lambda_min or the Gram eigenvalues,
so its agreement with the closed forms is an independent check.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .generators import (
    GeneratorPair,
    ObservableTriad,
    PAULI,
    _unit_vector,
    embed_observable,
    rotation_zyz,
    subspace_projector,
    tilde_operator,
    triad_from_rotation,
)
from .qstate import (
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    _hermitian_part,
    _require_integer,
    partial_transpose_mat,
    validate_density,
)

TAU_C = 1e-12
TAU_DETECT = 1e-8  # a state is detected iff its detection difference (_nonlinear_d, _bell_d) exceeds it


def _nonlinear_d(nonlinear_max: np.ndarray) -> np.ndarray:
    """nonlinear_D of each state from its (N, P) nonlinear maxima."""
    return nonlinear_max.max(axis=1) - 1.0


def _bell_d(bell_max: np.ndarray, c: np.ndarray, live: np.ndarray) -> np.ndarray:
    """bell_D of each state from its (N, P) CHSH maxima, which carry c."""
    # empty subspaces report bell_max = 0 and cannot raise the maximum
    return np.divide(bell_max, c, out=np.zeros_like(c), where=live).max(axis=1) - 2.0


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


@dataclass(frozen=True, eq=False)  # holds arrays: identity equality and hash
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


# the per-subspace figures in field order: the keys after alpha and beta of each
# bound-document row, and the CSV columns after the four generator labels
_FIGURES = tuple(f.name for f in fields(SubspaceReport))[2:]


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


# ---------------------------------------------------------------------------
# the subspace kernel: every per-subspace figure starts from _blocks

# kernel output: one (N, P) array per figure for N states and P subspace pairs; raw = c * lambda_min
_Columns = namedtuple("_Columns", "c live raw lambda_min bell_max nonlinear_max")


@functools.cache
def _local_pairs(dim: int) -> np.ndarray:
    """The (C(dim,2), 2) rows (j, k), j < k, of one party's pairs in lexicographic
    order; built once per dim and read-only, like _pair_rows."""
    pairs = np.array(list(itertools.combinations(range(dim), 2))).reshape(-1, 2)
    pairs.setflags(write=False)
    return pairs


@functools.cache
def _pair_rows(dims: Dims) -> np.ndarray:
    """The (P, 4) state rows (ka kb, ka jb, ja kb, ja jb) of the block of every
    subspace pair ((ja, ka), (jb, kb)), in lexicographic (alpha, beta) order:
    the gather order of _blocks, and read right to left the diagonal positions
    whose sum _weights takes (_corner_rows).  The one source of block rows:
    built once per dims and read-only, so no kernel call rebuilds them."""
    n = dims.n
    ja, ka = _local_pairs(dims.m).T[:, :, None]  # (C(m,2), 1) each
    jb, kb = _local_pairs(n).T[:, None, :]  # (1, C(n,2)) each
    rows = np.stack([ka * n + kb, ka * n + jb, ja * n + kb, ja * n + jb], axis=-1).reshape(-1, 4)
    rows.setflags(write=False)
    return rows


def _pair_position(dims: Dims, alpha: GeneratorPair, beta: GeneratorPair) -> int:
    """The position of the (alpha, beta) pair in _pair_rows(dims); a pair of
    other dims than the state's raises ValueError."""
    if alpha.dim != dims.m or beta.dim != dims.n:
        raise ValueError(
            f"pair dims ({alpha.dim},{beta.dim}) do not match state dims ({dims.m},{dims.n})"
        )
    # a party's pair (j, k) comes after the C(dim, 2) - C(dim - j, 2) pairs with a smaller first entry
    a = math.comb(dims.m, 2) - math.comb(dims.m - alpha.j, 2) + alpha.k - alpha.j - 1
    b = math.comb(dims.n, 2) - math.comb(dims.n - beta.j, 2) + beta.k - beta.j - 1
    return a * math.comb(dims.n, 2) + b


@functools.cache
def _corner_rows(dims: Dims) -> np.ndarray:
    """_pair_rows(dims) read right to left and transposed: the (4, P) state
    rows (ja jb), (ja kb), (ka jb), (ka kb) of every pair, one contiguous row
    per corner, so that one np.take gathers them.  They are the diagonal
    positions of each block, which _weights sums in this order, and the
    entries of the coefficient matrix whose 2x2 minor _pure_violations takes.
    Built once per dims and read-only."""
    corners = np.ascontiguousarray(_pair_rows(dims)[:, ::-1].T)
    corners.setflags(write=False)
    return corners


def _weights(stack: np.ndarray, dims: Dims, i: int | None = None):
    """Weights c >= 0 and live mask c > TAU_C on a stack (N, mn, mn) of states,
    both (N, P) in _pair_rows order, or (N, 1) for the pair at position i
    alone: the one home of the empty rule.  c sums the block's diagonal
    entries of rho in the order (ja, jb), (ja, kb), (ka, jb), (ka, kb)."""
    corners = _corner_rows(dims) if i is None else _corner_rows(dims)[:, i : i + 1]
    # one take along the first axis of the diagonals' transpose, (4, P, N): numpy gathers
    # along it faster than along the last axis, for one state and for a scan's stack
    g = np.take(np.diagonal(stack, axis1=-2, axis2=-1).real.T, corners, axis=0)
    c = np.maximum((g[0] + g[1] + g[2] + g[3]).T, 0.0, order="C")
    return c, c > TAU_C


def _blocks(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The raw (unnormalized) blocks, shaped (N, P, 4, 4), of the pairs whose
    rows of _pair_rows are `rows` on a stack (N, mn, mn) of states.

    The sandwich by L (x) L acts on a gathered 4x4 block as Y (x) Y with
    Y = [[0,1],[-1,0]]: a reversal of the block basis with the middle two
    vectors negated.  The gather only reverses, so a block is c rho_ab up to
    the local unitary Z (x) Z (the signs _YY_SIGNS, which _pair_block
    applies), which keeps lambda_min of the partial transpose and the
    singular values of T.
    """
    side = stack.shape[-1]
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
    _bell_maxima does; every other live pair reads its upper bound
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


def _reports(stack: np.ndarray, dims: Dims, i: int | None = None) -> _Columns:
    """Columns of every pair on a stack of states, or of the pair at position
    i of _pair_rows alone, from one gather of their raw blocks: both
    witnesses of every pair."""
    c, live = _weights(stack, dims, i)
    rows = _pair_rows(dims)
    blk = _blocks(stack, rows if i is None else rows[i : i + 1])
    raw, lam, nonlinear = _nonlinear_columns(blk, c, live)
    return _Columns(c, live, raw, lam, _bell_maxima(blk, live), nonlinear)


# Purity certificate.  A Hermitian 4x4 X with Tr X = 1 and purity p = Tr X^2
# has lambda_min(X) >= 1/4 - sqrt(3(p - 1/4)/4): the other three eigenvalues
# sum to 1 - lambda, so p >= lambda^2 + (1 - lambda)^2/3.  The bound is > 0
# iff p < 1/3, and it needs no positivity of X.  The partial transpose only
# permutes entries, so rho_ab^{T_A} has the purity of rho_ab [K. Zyczkowski,
# P. Horodecki, A. Sanpera, M. Lewenstein, Phys. Rev. A 58, 883 (1998)].
# Below 1/3 - 1e-9 the bound is at least 1.5e-9, far above the ~1e-15 error
# of a 4x4 eigvalsh, so such a block's clipped violation is exactly 0 without
# solving it, and the bound equals the all-blocks solve to the last bit.  The
# purities are summed from the entries of rho (_purities), so a certified
# block is never gathered.
_PURITY_CERT = 1.0 / 3.0 - 1e-9


def _purities(stack: np.ndarray, dims: Dims) -> np.ndarray:
    """Raw purities q = sum |blk|^2 of the unnormalized gathered blocks of
    every subspace pair, (N, P) in _pair_rows order, read from a stack
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


# Diagonal rule.  A block whose 12 off-diagonal entries are all exactly zero is
# its own partial transpose, and LAPACK returns the diagonal of a diagonal
# input as its eigenvalues, unrounded, unless it rescales the input, which it
# does only below about 1e-146 or above 1e146; a live block holds an entry of
# at least c/4 > TAU_C/4.  So such a block reads lambda_min as its smallest
# diagonal entry, to the last bit.  The test is for exact zeros, so it adds no
# tolerance.  In Schmidt form, and for P_+, most live blocks are such rank-one
# product blocks, whose purity c^2 the certificate cannot pass.
_OFF_DIAGONAL = np.flatnonzero(~np.eye(4, dtype=bool))


def _violations(stack: np.ndarray, dims: Dims) -> np.ndarray:
    """Raw lambda_min, (N, P) in _pair_rows order, on a stack of states.
    Only the live blocks the purity certificate leaves open are gathered, and
    of those only the ones with a nonzero off-diagonal entry are solved: an
    exactly diagonal block reads the minimum of its diagonal.  Every other
    pair reads 0, which the bound clips to 0 as it does the positive value in
    the full _reports columns."""
    c, live = _weights(stack, dims)
    raw = np.zeros_like(c)
    solve = live & (_purities(stack, dims) >= _PURITY_CERT * c**2)
    cols = np.flatnonzero(solve.any(axis=0))
    if cols.size:
        blk = _blocks(stack, _pair_rows(dims)[cols])[solve[:, cols]]
        diagonal = ~blk.reshape(-1, 16)[:, _OFF_DIAGONAL].any(axis=1)  # exact zeros, no magnitude test
        if diagonal.any():
            lam = np.diagonal(blk, axis1=-2, axis2=-1).real.min(axis=-1)
            if not diagonal.all():
                lam[~diagonal] = _lambda_min(blk[~diagonal])
        else:
            lam = _lambda_min(blk)
        raw[solve] = lam
    return raw


def _pure_violations(rho: DensityMatrix) -> np.ndarray:
    """Raw lambda_min, (1, P) in _pair_rows order, of a rank-one state, in
    closed form from its vector rho.vec.  Its block of the pair ((ja, ka),
    (jb, kb)) is rank one, made from the 2x2 submatrix of the coefficient
    matrix A on rows ja, ka and columns jb, kb; the partial transpose of a
    rank-one two-qubit block has lambda_min = -|det| of that submatrix, the
    minor K_ab of K = Lambda^2 A.  An empty pair (_weights) reads 0, as in
    the kernel."""
    a00, a01, a10, a11 = np.take(rho.vec, _corner_rows(rho.dims))  # the entries (ja, jb) ... (ka, kb) of A
    _, live = _weights(rho.mat[None], rho.dims)
    return np.where(live, -np.abs(a00 * a11 - a01 * a10), 0.0)


def _report_rows(rho: DensityMatrix, pairs, i: int | None = None) -> tuple[_Columns, list[SubspaceReport]]:
    """Kernel columns and SubspaceReport rows of one state's (alpha, beta)
    pairs: every pair, or the one at position i of _pair_rows."""
    cols = _reports(rho.mat[None], rho.dims, i)
    d = cols.nonlinear_max[0] - 1.0
    table = (cols.c[0], cols.lambda_min[0], cols.bell_max[0], cols.nonlinear_max[0], d, np.maximum(0.0, d))
    return cols, [SubspaceReport(a, b, *row) for (a, b), row in zip(pairs, zip(*(col.tolist() for col in table)))]


def _pair_block(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair):
    """Weight c and rho_ab of one subspace pair; rho_ab is None when it is empty."""
    i = _pair_position(rho.dims, alpha, beta)
    stack, rows = rho.mat[None], _pair_rows(rho.dims)[i : i + 1]
    (c,), (live,) = _weights(stack, rho.dims, i)
    return float(c[0]), (_blocks(stack, rows)[0, 0] / c[0] * _YY_SIGNS if live[0] else None)


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
    _pair_position(rho.dims, s.alpha, s.beta)
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
    _pair_position(rho.dims, s.alpha, s.beta)
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
    return _report_rows(rho, [(alpha, beta)], _pair_position(rho.dims, alpha, beta))[1][0]


def _all_reports(rho: DensityMatrix) -> tuple[_Columns, list[SubspaceReport]]:
    """_report_rows of every subspace pair, in _pair_rows order; rows share one GeneratorPair per local pair."""
    alphas, betas = ([GeneratorPair(*jk, dim) for jk in _local_pairs(dim).tolist()] for dim in (rho.dims.m, rho.dims.n))
    return _report_rows(rho, [(a, b) for a in alphas for b in betas])


def subspace_reports(rho: DensityMatrix) -> list[SubspaceReport]:
    """Reports for all subspace pairs in lexicographic (alpha, beta) order."""
    return _all_reports(rho)[1]


def detect_entanglement(rho: DensityMatrix) -> tuple[bool, list[SubspaceReport]]:
    """True iff the state's nonlinear_D (_nonlinear_d) exceeds TAU_DETECT.

    Returns the full report list so callers can pick the witnessing subspace
    with the largest violation for experiment design.
    """
    cols, reports = _all_reports(rho)
    return bool(_nonlinear_d(cols.nonlinear_max)[0] > TAU_DETECT), reports


def best_report(reports: list[SubspaceReport]) -> SubspaceReport:
    """The subspace with the largest nonlinear violation."""
    return max(reports, key=lambda r: r.nonlinear_max)


# ---------------------------------------------------------------------------
# numeric settings search, used as an independent check of the closed forms:
# it reads only the correlation table of the block, never lambda_min or the Gram eigenvalues

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


# ---------------------------------------------------------------------------
# finite-shot simulation of a mean value

def estimate_mean_shots(rho: DensityMatrix, obs: np.ndarray, shots: int, seed=None):
    """Sample the observable in its eigenbasis and return (mean, stderr).

    Outcomes are eigenvalues drawn with Born weights <e_i|rho|e_i>; the mean
    converges to Tr(rho obs) and stderr is the sample standard deviation over
    sqrt(shots).  shots must be an integer >= 1 (not a bool) and obs Hermitian
    of the state's shape (else DimensionMismatchError).
    """
    _require_integer("shots", shots, 1)
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

CSV_HEADER = ",".join(("alpha_j", "alpha_k", "beta_l", "beta_m", *_FIGURES))


def _csv_text(header: str | None, rows) -> str:
    """The one CSV writer: the header (None for a continuation), then each row
    of numbers at 12 significant digits (integers print as themselves), LF
    line endings."""
    lines = [] if header is None else [header]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[SubspaceReport]) -> str:
    """CSV text, 12 significant digits, LF line endings."""
    rows = ((r.alpha.j, r.alpha.k, r.beta.j, r.beta.k, *(getattr(r, f) for f in _FIGURES)) for r in reports)
    return _csv_text(CSV_HEADER, rows)
