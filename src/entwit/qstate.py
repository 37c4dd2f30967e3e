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
state's eigenvalue.  validate_densities holds every density matrix check and
alone decides a state's arithmetic (float64 when exactly real, else
complex128); DensityMatrix.mat stores it and every consumer reads it as stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Dims:
    """Local dimensions (m, n) of a bipartite system; both at least 2."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise DimensionMismatchError(f"party dimensions must be >= 2, got {self.m}x{self.n}")

    @property
    def total(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class DensityMatrix:
    """A validated mixed state: unit trace, positive semidefinite and exactly
    Hermitian, since validate_density stores the Hermitian part of its input
    (mat == mat.conj().T to the last bit).  mat is read-only, in the dtype
    validate_densities chose."""

    dims: Dims
    mat: np.ndarray


@dataclass(frozen=True)
class PureState:
    """A unit-norm state vector on the composite space."""

    dims: Dims
    vec: np.ndarray

    def projector(self) -> DensityMatrix:
        """Rank-1 density matrix |psi><psi| of this vector."""
        return validate_density(np.outer(self.vec, self.vec.conj()), self.dims)


@dataclass(frozen=True)
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
    finite and each M Hermitian to TAU_HERM."""
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix has NaN or infinite entries")
    adj = mat.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(mat - adj))
    if dev > TAU_HERM:
        raise NotHermitianError(f"Hermiticity deviation {dev:.3e} exceeds {TAU_HERM}")
    return (mat + adj) / 2.0


def validate_densities(mats: np.ndarray, dims: Dims) -> np.ndarray:
    """Check every candidate density matrix of a stack (N, m*n, m*n) in the
    row-major product basis and return their Hermitian parts (M + M^dag)/2,
    in float64 when no imaginary part of the stack is nonzero, else in
    complex128: an exactly real stack is factorized and solved in real
    arithmetic, which agrees with the complex one to rounding.

    Each state is checked as on its own, in this order: shape
    (DimensionMismatchError), finite entries (StateValidationError),
    Hermiticity to TAU_HERM (NotHermitianError), trace to TAU_TR (TraceError),
    smallest eigenvalue against -TAU_PSD (NotPositiveError).  Positivity is
    one batched Cholesky factorization of M + TAU_PSD I; only when it fails
    does one eigensolve find the first failing state and the eigenvalue its
    message prints.  A state's figures do not depend on the rest of the stack,
    so a stack raises the error, message included, its first failing state
    raises alone.
    """
    mats = np.asarray(mats)
    mats = mats.astype(float if mats.dtype.kind in "biuf" else complex, copy=False)  # bool, int, float: no complex step
    if np.iscomplexobj(mats) and not mats.imag.any():
        mats = np.ascontiguousarray(mats.real)
    side = dims.total
    if mats.shape[1:] != (side, side):
        raise DimensionMismatchError(f"expected {side}x{side} matrix for dims {dims.m}x{dims.n}, got {mats.shape[1:]}")
    finite = np.isfinite(mats).all(axis=(1, 2))
    # the states before the first non-finite one take the other checks
    head = mats[: int(np.argmin(finite)) if not finite.all() else len(mats)]
    adj = head.conj().swapaxes(-1, -2)
    herm_dev = np.abs(head - adj).max(axis=(1, 2), initial=0.0)
    herm = (head + adj) / 2.0
    tr_dev = np.abs(np.trace(head, axis1=1, axis2=2) - 1.0)
    faults = (herm_dev > TAU_HERM) | (tr_dev > TAU_TR)
    first = int(np.argmax(faults)) if faults.any() else len(head)
    try:  # the states before the first other fault, all positive definite after the shift
        np.linalg.cholesky(herm[:first] + TAU_PSD * np.eye(side))
    except np.linalg.LinAlgError:  # some state fails: the eigensolve names the first and its eigenvalue
        lam_min = np.linalg.eigvalsh(herm[:first])[:, 0]
        bad = np.flatnonzero(lam_min < -TAU_PSD)
        if bad.size:
            raise NotPositiveError(f"minimum eigenvalue {lam_min[bad[0]]:.3e} below -{TAU_PSD}") from None
    if first < len(mats):
        _hermitian_part(mats[first])  # its non-finite entries or its Hermiticity, if either fails
        raise TraceError(f"trace deviates from 1 by {tr_dev[first]:.3e}")
    return herm


def validate_density(mat: np.ndarray, dims: Dims) -> DensityMatrix:
    """Check a candidate (m*n, m*n) matrix, as the one-state case of
    validate_densities (same checks, order and errors), and wrap its
    Hermitian part (M + M^dag)/2, read-only and in the arithmetic
    validate_densities chose, as a DensityMatrix, so every validated state
    is exactly Hermitian."""
    herm = validate_densities(np.asarray(mat)[None], dims)[0]
    herm.setflags(write=False)
    return DensityMatrix(dims, herm)


def validate_pure(vec: np.ndarray, dims: Dims) -> PureState:
    """Check the length and the squared norm (the trace of its projector) of a state vector."""
    vec = np.array(vec, dtype=complex).ravel()
    if vec.shape != (dims.total,):
        raise DimensionMismatchError(f"expected vector of length {dims.total}, got {vec.shape}")
    if not np.isfinite(vec).all():
        raise StateValidationError("vector has NaN or infinite entries")
    sq_dev = abs(np.sum(vec * vec.conj()) - 1.0)
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
    in one eigensolve; the partial transpose of an exactly Hermitian M is exactly Hermitian."""
    lam = np.linalg.eigvalsh(partial_transpose_mat(mats, dims.m, dims.n))
    return 2.0 * np.where(lam < 0.0, -lam, 0.0).sum(axis=-1) / (min(dims.m, dims.n) - 1)


def negativity(rho: DensityMatrix) -> float:
    """Entanglement negativity (||rho^{T_A}||_tr - 1) / (min(m,n) - 1).

    It is computed as -2 (sum of the negative eigenvalues of rho^{T_A}) /
    (min(m,n) - 1), the same value at unit trace, so a trace that validation
    accepts up to TAU_TR away from 1 adds nothing: PPT states read 0, never
    below.  Equals 1 on a maximally entangled pair for any local dimension.
    """
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
    """Closed-form negativity of a pure state from its Schmidt spectrum.

    Equals (2/(M-1)) * sum_{i<j} sqrt(mu_i mu_j) and agrees with
    negativity(psi.projector()).
    """
    mu = schmidt(psi).coefficients
    big_m = min(psi.dims.m, psi.dims.n)
    roots = np.sqrt(np.clip(mu, 0.0, None))
    cross = (roots.sum() ** 2 - mu.sum()) / 2.0
    return float(2.0 * cross / (big_m - 1))


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
    """The matrix and two integral dims (2.0 is fine, 2.9 an error) of a JSON document, not yet validated."""
    try:
        doc = json.loads(text)
        dims = doc["dims"]
        mat = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: not JSON, or a ragged matrix
        raise StateValidationError(f"malformed state document: {exc}") from exc
    if not (isinstance(dims, list) and len(dims) == 2
            and all(type(v) is int or type(v) is float and v.is_integer() for v in dims)):
        raise StateValidationError(f"malformed state document: dims must be two integers, got {dims!r}")
    return mat, Dims(int(dims[0]), int(dims[1]))


def from_json(text: str) -> DensityMatrix:
    """Parse and validate a state from the JSON interchange document."""
    return validate_density(*_parse_json(text))
