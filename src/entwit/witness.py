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
states, with three entries.  _gather returns the raw blocks, weights c and
live masks of whole pair columns: every pair, or the positions it is given.
Its callers (detection, the SubspaceReport rows, the literal-min bound and
entwit.scan) solve every gathered block, in one eigensolve of their 4x4
partial transposes (_nonlinear_columns) and, for the Bell witness, one of
their 3x3 real Gram matrices T^T T (_bell_maxima).  _violations, the
default bound's entry, reads only the raw lambda_min of each pair: it
gathers and solves only the blocks that the purity certificate leaves open,
a rule explained at its constant, _PURITY_CERT.
_pure_violations skips the kernel for a rank-one state (DensityMatrix.vec):
each raw lambda_min is minus the modulus of a 2x2 minor of its coefficient
matrix.

Columns are numpy arrays shaped (states, pairs).  A validated state is
exactly Hermitian, so every gathered block is too.  rho.mat is read as
stored: an exactly real state is gathered, compressed and solved in float64,
which agrees with the complex solve to rounding.  Block rows come from one
(4, P) table, _pair_rows, built once per dims; a pair's column is its
_pair_position.  The weight c of a pair and its empty rule c <= TAU_C are
read from the diagonal of the state in one place (_weights); c divides the
columns, never a block.
The detection rule lives beside TAU_DETECT: detect_entanglement and the
scan both test the differences _nonlinear_d and _bell_d against it.

Measurement settings that reach these maxima come from a separate numeric
search, entwit.search, which reads only the correlation table of a block
(_correlations) as an independent check of the closed forms.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .generators import (
    GeneratorPair,
    ObservableTriad,
    PAULI,
    _local_pairs,
    _unit_vector,
    embed_observable,
    subspace_projector,
    tilde_operator,
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


def _bell_d(ratio: np.ndarray) -> np.ndarray:
    """bell_D of each state from its (N, P) ratios bell_max / c, 0 on empty pairs."""
    return ratio.max(axis=1) - 2.0


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


# ---------------------------------------------------------------------------
# the subspace kernel: every per-subspace figure starts from _blocks

# kernel output: one (N, P) array per figure for N states and P subspace pairs; raw = c * lambda_min
_Columns = namedtuple("_Columns", "c live raw lambda_min bell_max nonlinear_max")


@functools.cache
def _pair_rows(dims: Dims) -> np.ndarray:
    """The (4, P) state rows (ja jb), (ja kb), (ka jb), (ka kb) of the block of
    every subspace pair ((ja, ka), (jb, kb)), in lexicographic (alpha, beta)
    order: the diagonal positions that _weights sums, the entries of the
    coefficient matrix whose minor _pure_violations takes and, bottom to top,
    the gather order of _blocks.  The one table of block rows: built once per
    dims, C-contiguous (one np.take per corner row) and read-only."""
    n = dims.n
    ja, ka = _local_pairs(dims.m).T[:, :, None]  # (C(m,2), 1) each
    jb, kb = _local_pairs(n).T[:, None, :]  # (1, C(n,2)) each
    rows = np.stack([ja * n + jb, ja * n + kb, ka * n + jb, ka * n + kb]).reshape(4, -1)
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


def _weights(stack: np.ndarray, dims: Dims):
    """Weights c >= 0 and live mask c > TAU_C on a stack (N, mn, mn) of states,
    both (N, P) in _pair_rows order: the one home of the empty rule.  c sums
    the block's diagonal entries of rho in the order of the rows of _pair_rows."""
    # one take along the first axis of the diagonals' transpose, (4, P, N): numpy gathers
    # along it faster than along the last axis, for one state and for a scan's stack
    g = np.take(np.diagonal(stack, axis1=-2, axis2=-1).real.T, _pair_rows(dims), axis=0)
    c = np.maximum((g[0] + g[1] + g[2] + g[3]).T, 0.0, order="C")
    return c, c > TAU_C


def _blocks(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The raw (unnormalized) blocks, shaped (N, K, 4, 4), of the K pairs whose
    columns of _pair_rows are `rows`, (4, K), on a stack (N, mn, mn) of states,
    each gathered in the order of the rows bottom to top.

    The sandwich by L (x) L acts on a gathered 4x4 block as Y (x) Y with
    Y = [[0,1],[-1,0]]: a reversal of the block basis with the middle two
    vectors negated.  The gather only reverses, so a block is c rho_ab up to
    the local unitary Z (x) Z (the signs _YY_SIGNS, which _pair_block
    applies), which keeps lambda_min of the partial transpose and the
    singular values of T.
    """
    side = stack.shape[-1]
    rows = rows[::-1].T  # (K, 4), the Y (x) Y gather order
    flat = (rows * side)[:, :, None] + rows[:, None, :]  # entry (i, j) of each block in the flattened state
    return np.take(stack.reshape(len(stack), side * side), flat, axis=1)


def _gather(stack: np.ndarray, dims: Dims, cols=slice(None)):
    """The raw blocks (N, K, 4, 4), weights c and live mask (N, K) of the K
    pairs at positions cols of _pair_rows (all of them by default) on a stack
    (N, mn, mn) of states: the kernel's one gather of whole pair columns."""
    c, live = _weights(stack, dims)
    return _blocks(stack, _pair_rows(dims)[:, cols]), c[:, cols], live[:, cols]


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


def _reports(stack: np.ndarray, dims: Dims, cols=slice(None)) -> _Columns:
    """Columns of the pairs at positions cols of _pair_rows (every pair by
    default) on a stack of states, from one gather of their raw blocks
    (_gather): both witnesses of each pair."""
    blk, c, live = _gather(stack, dims, cols)
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


def _violations(stack: np.ndarray, dims: Dims) -> np.ndarray:
    """Raw lambda_min, (N, P) in _pair_rows order, on a stack of states.
    Only the live blocks the purity certificate leaves open are gathered and
    solved, in one eigensolve.  Every other pair reads 0, which the bound
    clips to 0 as it does the positive value in the full _reports columns."""
    c, live = _weights(stack, dims)
    raw = np.zeros_like(c)
    solve = live & (_purities(stack, dims) >= _PURITY_CERT * c**2)
    cols = np.flatnonzero(solve.any(axis=0))
    if cols.size:
        raw[solve] = _lambda_min(_blocks(stack, _pair_rows(dims)[:, cols])[solve[:, cols]])
    return raw


def _pure_violations(rho: DensityMatrix) -> np.ndarray:
    """Raw lambda_min, (1, P) in _pair_rows order, of a rank-one state, in
    closed form from its vector rho.vec.  Its block of the pair ((ja, ka),
    (jb, kb)) is rank one, made from the 2x2 submatrix of the coefficient
    matrix A on rows ja, ka and columns jb, kb; the partial transpose of a
    rank-one two-qubit block has lambda_min = -|det| of that submatrix, the
    minor K_ab of K = Lambda^2 A.  An empty pair (_weights) reads 0, as in
    the kernel."""
    a00, a01, a10, a11 = np.take(rho.vec, _pair_rows(rho.dims))  # the entries (ja, jb) ... (ka, kb) of A
    _, live = _weights(rho.mat[None], rho.dims)
    return np.where(live, -np.abs(a00 * a11 - a01 * a10), 0.0)


def _report_rows(rho: DensityMatrix, pairs, cols=slice(None)) -> tuple[_Columns, list[SubspaceReport]]:
    """Kernel columns and SubspaceReport rows of one state's (alpha, beta)
    pairs, those at positions cols of _pair_rows (every pair by default)."""
    kernel = _reports(rho.mat[None], rho.dims, cols)
    d = kernel.nonlinear_max[0] - 1.0
    table = (kernel.c[0], kernel.lambda_min[0], kernel.bell_max[0], kernel.nonlinear_max[0], d, np.maximum(0.0, d))
    return kernel, [SubspaceReport(a, b, *row) for (a, b), row in zip(pairs, zip(*(col.tolist() for col in table)))]


def _pair_block(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair):
    """Weight c and rho_ab of one subspace pair; rho_ab is None when it is empty."""
    blk, c, live = _gather(rho.mat[None], rho.dims, [_pair_position(rho.dims, alpha, beta)])
    return float(c[0, 0]), (blk[0, 0] / c[0, 0] * _YY_SIGNS if live[0, 0] else None)


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
    return _report_rows(rho, [(alpha, beta)], [_pair_position(rho.dims, alpha, beta)])[1][0]


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
