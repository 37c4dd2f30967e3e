"""Validated bipartite quantum states and the spectral primitives built on them.

Conventions used throughout the package: party A has dimension ``m``, party B
has dimension ``n``, and the composite index is row-major, ``|i,a> -> i*n + a``
with 0-based labels.  The negativity normalizer is ``M = min(m, n)``.  All
tolerances are absolute: TAU_HERM bounds the Hermiticity deviation (raised
only by _hermitian_part, which also rejects NaN and infinite entries), TAU_TR
the trace of a density matrix and the squared norm of a vector (the same sum,
so a vector validate_pure accepts has a projector validate_density accepts),
TAU_PSD the smallest eigenvalue, which validation bounds by one Cholesky
factorization of rho + TAU_PSD I and eigensolves only to name a failing
state's eigenvalue.  Each state is checked on its own: _checked holds every
density matrix check and alone decides a state's arithmetic (float64 when
exactly real, else complex128); DensityMatrix.mat stores it and every
consumer reads it as stored.

The negativity solves rho^{T_A} whole, in one eigensolve of a stack
(_negativities); a rank-one state, which DensityMatrix.vec reads off the
matrix to rounding (_rank_one_vector), reads pure_negativity instead,
however it was made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

# Validation tolerances.  The Cholesky factorization of rho + TAU_PSD I that
# decides the PSD check is backward stable: its decision can differ from the
# exact one only where lambda_min is within about side * 1e-16 * ||rho|| of
# -TAU_PSD, under 1e-13 for unit-trace states up to 256x256 and so far below
# TAU_PSD (N. J. Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., ch. 10).
TAU_HERM = 1e-10
TAU_TR = 1e-10
TAU_PSD = 1e-9
_HALVE_FROM = 2.0**1022  # _hermitian_part halves a matrix with an entry of this modulus before its sums
_TRACE_SCALE = 2.0**-64  # _checked sums the trace at this scale (side < 2**64 entries of at most 2**1024)
_SQUARE_FROM = 2.0**500  # validate_pure sums the squares of a vector with an entry of this modulus at a smaller scale

# Rank-one read (_rank_one_vector).  A state is read as v v^dag, with v =
# rho[:, j] / sqrt(rho_jj) and j its largest diagonal entry, when no entry of
# rho - v v^dag exceeds _RANK_ONE_TOL.  An O(side) test runs first: column j
# must have |rho_ij|^2 = rho_ii rho_jj to within _RANK_ONE_DIAG * rho_jj
# (rho_ii + rho_jj).  rho is the Gram matrix of some vectors g_i, and by
# Cauchy-Schwarz the equality holds on every i only when each g_i is parallel
# to g_j, that is at rank one, so a dense state fails it before v v^dag is
# formed.  The entries of an outer product and of its division by a trace
# are rounded by a few eps relative, which moves either side of the equality
# by about 4 eps rho_ii rho_jj, far inside the 64 eps.  A matrix within delta
# of a rank-one one moves it by at most about 2 delta (rho_ii + rho_jj), so
# the test passes every matrix within 32 eps rho_jj < 7.2e-15 of rank one;
# the entrywise test then bounds the deviation, and within _RANK_ONE_TOL the
# closed forms on v agree with the kernel on rho as Weyl's inequality allows
# (README, tolerance table).
_RANK_ONE_DIAG = 64 * np.finfo(float).eps
_RANK_ONE_TOL = 1e-14


class StateValidationError(ValueError):
    """Base class for every rejected state input."""


class DimensionMismatchError(StateValidationError):
    """Matrix or vector size does not match the declared dims."""


class NotHermitianError(StateValidationError):
    """Hermiticity violated beyond TAU_HERM."""


class TraceError(StateValidationError):
    """Trace deviates from 1 beyond TAU_TR."""


class NotPositiveError(StateValidationError):
    """An eigenvalue lies below -TAU_PSD."""


def _require_integer(name: str, value, low: int | None = None, error: type[Exception] = ValueError) -> None:
    """The one integer-argument rule: an integer (numpy's too, never a bool), >= low if
    low is given; else raise error naming it.  A plain int skips the slow Integral check."""
    integer = type(value) is int or not isinstance(value, bool) and isinstance(value, Integral)
    if not integer or low is not None and value < low:
        raise error(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")


@dataclass(frozen=True)
class Dims:
    """Local dimensions (m, n) of a bipartite system: integers, both at least 2."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _require_integer("party dimension m", self.m, 2, DimensionMismatchError)
        _require_integer("party dimension n", self.n, 2, DimensionMismatchError)

    @property
    def total(self) -> int:
        return self.m * self.n


@dataclass(frozen=True, eq=False)  # holds arrays: identity equality and hash
class DensityMatrix:
    """A validated mixed state: unit trace, positive semidefinite and exactly
    Hermitian, since validate_density stores the Hermitian part of its input
    (mat == mat.conj().T to the last bit).  mat is read-only, in the dtype
    _checked chose for this state alone.  vec, computed on first read, is
    the read-only vector v with mat = v v^dag to rounding when the state is
    rank one (_rank_one_vector), and None otherwise: the bound and the
    negativity read a rank-one state off v in closed form
    (witness._pure_violations, pure_negativity), however it was made."""

    dims: Dims
    mat: np.ndarray

    @cached_property
    def vec(self) -> np.ndarray | None:
        return _rank_one_vector(self.mat)


@dataclass(frozen=True, eq=False)  # holds arrays: identity equality and hash
class PureState:
    """A unit-norm state vector on the composite space."""

    dims: Dims
    vec: np.ndarray

    def projector(self) -> DensityMatrix:
        """Rank-1 density matrix |psi><psi| of this vector."""
        return validate_density(np.outer(self.vec, self.vec.conj()), self.dims)


@dataclass(frozen=True, eq=False)  # holds arrays: identity equality and hash
class SchmidtDecomposition:
    """Schmidt data of a pure state.

    ``coefficients`` holds the squared Schmidt coefficients mu_i (probabilities,
    nonincreasing, summing to 1); the columns of ``basis_a`` / ``basis_b`` are
    the local Schmidt vectors, so psi = sum_i sqrt(mu_i) |a_i>|b_i>.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 of a matrix or a stack of them, once every entry is checked
    finite and each M Hermitian to TAU_HERM.  An M with an entry of modulus
    _HALVE_FROM or more, which no state has, is checked and summed on its
    halves M/2 and M^dag/2, whose difference and sum no finite M overflows;
    below it the sum is formed whole, since halving rounds subnormal entries."""
    peak = np.max(np.abs(mat))  # NaN or inf if an entry is, inf also if a complex modulus passes float64
    if not np.isfinite(peak) and not np.isfinite(mat).all():
        raise StateValidationError("matrix has NaN or infinite entries")
    adj, unit = mat.conj().swapaxes(-1, -2), 1.0
    if peak >= _HALVE_FROM:
        mat, adj, unit = mat / 2.0, adj / 2.0, 2.0
    dev = unit * float(np.max(np.abs(mat - adj)))  # a Python float: beyond float64 it reads inf
    if dev > TAU_HERM:
        raise NotHermitianError(f"Hermiticity deviation {dev:.3e} exceeds {TAU_HERM}")
    return (mat + adj) * (0.5 * unit)


def _checked(mat: np.ndarray, dims: Dims, scale: float = 1.0) -> np.ndarray:
    """The one density matrix check: the Hermitian part (M + M^dag)/2 of a
    candidate (m*n, m*n) matrix in the row-major product basis, in float64
    when no imaginary part is nonzero, else in complex128 (an exactly real
    state is factorized and solved in real arithmetic, which agrees with the
    complex one to rounding).  `scale` multiplies TAU_TR and TAU_PSD; the scan
    certifies a range of an affine family by its two ends at scale 1/2.

    The checks, in order: shape (DimensionMismatchError), finite entries
    (StateValidationError) and Hermiticity to TAU_HERM (NotHermitianError),
    both in _hermitian_part, trace to TAU_TR (TraceError), smallest
    eigenvalue against -TAU_PSD (NotPositiveError).  Positivity is one
    Cholesky factorization of M + TAU_PSD I; only when it fails does an
    eigensolve find the eigenvalue the message prints.
    """
    mat = np.asarray(mat)
    mat = mat.astype(float if mat.dtype.kind in "biuf" else complex, copy=False)  # bool, int, float: no complex step
    if np.iscomplexobj(mat) and not mat.imag.any():
        mat = np.ascontiguousarray(mat.real)
    side = dims.total
    if mat.shape != (side, side):
        raise DimensionMismatchError(f"expected {side}x{side} matrix for dims {dims.m}x{dims.n}, got {mat.shape}")
    herm = _hermitian_part(mat)
    # |Tr M - 1| at the power-of-two scale _TRACE_SCALE, where no finite M overflows the sum and
    # no bit above the subnormal range changes; scaled back in Python floats, an overflow reads inf
    tr_dev = float(abs((np.diagonal(mat) * _TRACE_SCALE).sum() - _TRACE_SCALE)) / _TRACE_SCALE
    tau_psd = scale * TAU_PSD
    if tr_dev > scale * TAU_TR:
        raise TraceError(f"trace deviates from 1 by {tr_dev:.3e}")
    try:
        np.linalg.cholesky(herm + tau_psd * np.eye(side))
    except np.linalg.LinAlgError:  # the eigensolve decides, and names the eigenvalue
        lam_min = np.linalg.eigvalsh(herm)[0]
        if lam_min < -tau_psd:
            raise NotPositiveError(f"minimum eigenvalue {lam_min:.3e} below -{tau_psd}") from None
    return herm


def _rank_one_vector(mat: np.ndarray) -> np.ndarray | None:
    """The read-only v = mat[:, j] / sqrt(mat_jj), j the largest diagonal
    entry, of a validated state that is v v^dag to _RANK_ONE_TOL, else None;
    the O(side) test on column j runs first (see _RANK_ONE_DIAG)."""
    diag = np.diagonal(mat).real
    j = int(np.argmax(diag))
    col = mat[:, j]
    sq = np.square(col.real) + np.square(col.imag) if np.iscomplexobj(col) else np.square(col)
    if (np.abs(sq - diag * diag[j]) > _RANK_ONE_DIAG * diag[j] * (diag + diag[j])).any():
        return None
    vec = col / np.sqrt(diag[j])
    if np.abs(mat - np.outer(vec, vec.conj())).max() > _RANK_ONE_TOL:
        return None
    vec.setflags(write=False)
    return vec


def validate_density(mat: np.ndarray, dims: Dims) -> DensityMatrix:
    """Check a candidate (m*n, m*n) matrix (_checked: shape, finite entries,
    Hermiticity, trace, positivity, in that order) and wrap its Hermitian
    part (M + M^dag)/2, read-only and in the arithmetic _checked chose, as a
    DensityMatrix, so every validated state is exactly Hermitian."""
    herm = _checked(mat, dims)
    herm.setflags(write=False)
    return DensityMatrix(dims, herm)


def validate_pure(vec: np.ndarray, dims: Dims) -> PureState:
    """Check the length and the squared norm (the trace of its projector) of a state vector."""
    vec = np.array(vec, dtype=complex).ravel()
    if vec.shape != (dims.total,):
        raise DimensionMismatchError(f"expected vector of length {dims.total}, got {vec.shape}")
    if not np.isfinite(vec).all():
        raise StateValidationError("vector has NaN or infinite entries")
    # sum |v|^2 whole, or at the power-of-two scale 2**-540 once an entry reaches _SQUARE_FROM, where no
    # finite v overflows a square or the sum and the norm is past 2**500; scaled back in Python floats,
    # an overflow reads inf
    scale = 2.0**-540 if np.abs(vec.view(float)).max() >= _SQUARE_FROM else 1.0
    w = vec * scale
    sq_dev = abs(float(np.sum(np.square(w.real) + np.square(w.imag))) / scale / scale - 1.0)
    if sq_dev > TAU_TR:
        raise StateValidationError(f"squared norm deviates from 1 by {sq_dev:.3e}")
    vec.setflags(write=False)
    return PureState(dims, vec)


def partial_transpose_mat(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose party A's indices of a raw matrix or a stack of them: ((i,a),(j,b)) -> ((j,a),(i,b))."""
    return np.ascontiguousarray(mat.reshape(-1, m, n, m, n).swapaxes(1, 3).reshape(mat.shape))


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Partial transpose rho^{T_A}; Hermitian with trace 1, but possibly not PSD."""
    return partial_transpose_mat(rho.mat, rho.dims.m, rho.dims.n)


def trace_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    The input is symmetrized before the eigensolve; non-finite entries and
    deviations from Hermiticity beyond TAU_HERM are rejected, not hidden.
    """
    herm = _hermitian_part(np.asarray(h, dtype=complex))
    return float(np.sum(np.abs(np.linalg.eigvalsh(herm))))


def _negativities(mats: np.ndarray, dims: Dims) -> np.ndarray:
    """negativity of each validated state of a real or complex stack (..., mn, mn),
    from one eigensolve of their partial transposes."""
    lam = np.linalg.eigvalsh(partial_transpose_mat(mats, dims.m, dims.n))
    return 2.0 * np.where(lam < 0.0, -lam, 0.0).sum(axis=-1) / (min(dims.m, dims.n) - 1)


def negativity(rho: DensityMatrix) -> float:
    """Entanglement negativity (||rho^{T_A}||_tr - 1) / (min(m,n) - 1).

    It is computed as -2 (sum of the negative eigenvalues of rho^{T_A}) /
    (min(m,n) - 1), the same value at unit trace, so a trace that validation
    accepts up to TAU_TR away from 1 adds nothing: PPT states read 0, never
    below.  Equals 1 on a maximally entangled pair for any local dimension.
    A rank-one state (rho.vec) reads pure_negativity instead.
    """
    if rho.vec is not None:
        return pure_negativity(PureState(rho.dims, rho.vec))
    return float(_negativities(rho.mat, rho.dims))


def schmidt(psi: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the m x n coefficient matrix.

    Returns squared Schmidt coefficients sorted nonincreasing; the
    reconstruction sum_i sqrt(mu_i) |a_i>|b_i> reproduces the input vector.
    """
    m, n = psi.dims.m, psi.dims.n
    coeff = psi.vec.reshape(m, n)
    u, s, vh = np.linalg.svd(coeff)
    k = min(m, n)
    # column i of basis_b is row i of vh, unconjugated: the decomposition is
    # psi_(i,a) = sum_i s_i U[i_row,i] Vh[i,a]; both bases stay square unitary
    return SchmidtDecomposition(
        coefficients=np.asarray(s[:k] ** 2, dtype=float),
        basis_a=u,
        basis_b=vh.T,
    )


def pure_negativity(psi: PureState) -> float:
    """Closed-form negativity of a pure state from the singular values s_i of
    its m x n coefficient matrix (the Schmidt coefficients sqrt(mu_i)), the
    one home of the pure-state negativity (negativity() returns it for a
    rank-one state).

    Equals (2/(M-1)) * sum_{i<j} s_i s_j, which is 2 ||K||_tr/(M-1) for K
    the matrix of 2x2 minors of the coefficient matrix, and agrees with the
    eigensolve of the projector's partial transpose to rounding.
    """
    s = np.linalg.svd(psi.vec.reshape(psi.dims.m, psi.dims.n), compute_uv=False)
    cross = (s.sum() ** 2 - np.square(s).sum()) / 2.0
    return float(2.0 * cross / (min(psi.dims.m, psi.dims.n) - 1))


def realignment_value(rho: DensityMatrix) -> float:
    """Trace norm of the realigned matrix R(rho), entry ((i,j),(a,b)) = rho_((i,a),(j,b)).

    A value above 1 certifies entanglement (the CCNR criterion), including
    some PPT entangled states the negativity misses.
    """
    m, n = rho.dims.m, rho.dims.n
    r = rho.mat.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    return float(np.linalg.svd(r, compute_uv=False).sum())


def to_json(rho: DensityMatrix) -> str:
    """Serialize to the interchange document {"dims":[m,n],"re":[[...]],"im":[[...]]}."""
    doc = {
        "dims": [rho.dims.m, rho.dims.n],
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }
    return json.dumps(doc)


def _parse_json(text: str) -> tuple[np.ndarray, Dims]:
    """The matrix and two integral dims (2.0 is fine, 2.9 an error) of a JSON
    document, not yet validated; re and im are 2-D, of one shape and of numbers."""
    try:
        doc = json.loads(text)
        dims, parts = doc["dims"], (doc["re"], doc["im"])
        re, im = (np.asarray(part, dtype=float) for part in parts)
        if re.ndim != 2 or re.shape != im.shape:  # never broadcast one part against the other
            raise ValueError(f"re {re.shape} and im {im.shape} must be matrices of one shape")
        # JSON numbers only: asarray reads "0.5" as 0.5, true as 1 and null as NaN
        if not {type(v) for part in parts for row in part for v in row} <= {int, float}:
            raise ValueError("re and im entries must be numbers")
    # ValueError: not JSON, a ragged matrix or the shapes; RecursionError: nesting deeper than the decoder's stack;
    # OverflowError: an integer entry past the float range
    except (KeyError, TypeError, ValueError, RecursionError, OverflowError) as exc:
        raise StateValidationError(f"malformed state document: {exc}") from exc
    if not (isinstance(dims, list) and len(dims) == 2
            and all(type(v) is int or type(v) is float and v.is_integer() for v in dims)):
        raise StateValidationError(f"malformed state document: dims must be two integers, got {dims!r}")
    mat = re.astype(complex)
    mat.imag = im  # not re + 1j * im, whose 0 * inf makes an infinite im entry a NaN real part, with a warning
    return mat, Dims(int(dims[0]), int(dims[1]))


def from_json(text: str) -> DensityMatrix:
    """Parse and validate a state from the JSON interchange document."""
    return validate_density(*_parse_json(text))
