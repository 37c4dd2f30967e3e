"""Validated bipartite quantum states and the spectral primitives built on them.

Conventions used throughout the package: party A has dimension ``m``, party B
has dimension ``n``, and the composite index is row-major, ``|i,a> -> i*n + a``
with 0-based labels.  The negativity normalizer is ``M = min(m, n)``.  All
tolerances are absolute: TAU_HERM bounds the Hermiticity deviation (checked
only in _hermitian_part), TAU_TR the trace of a density matrix and the squared
norm of a vector (the same sum, so a vector validate_pure accepts has a
projector validate_density accepts), TAU_PSD the smallest eigenvalue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Validation tolerances.  Double precision eigensolves on matrices up to
# 81x81 lose at most ~3 digits, so the PSD check is one order looser.
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
    """A validated mixed state: Hermitian, unit trace, positive semidefinite."""

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 for an eigensolve, once M is checked Hermitian to TAU_HERM."""
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > TAU_HERM:
        raise NotHermitianError(f"Hermiticity deviation {dev:.3e} exceeds {TAU_HERM}")
    return (mat + mat.conj().T) / 2.0


def validate_density(mat: np.ndarray, dims: Dims) -> DensityMatrix:
    """Check a candidate matrix and wrap it as a DensityMatrix.

    Parameters
    ----------
    mat : array_like, shape (m*n, m*n)
        Candidate density matrix in the row-major product basis.
    dims : Dims
        Local dimensions.

    Raises
    ------
    DimensionMismatchError, StateValidationError, NotHermitianError, TraceError, NotPositiveError
        One distinct error per violated invariant, in that check order; a NaN
        or infinite entry raises the plain StateValidationError.
    """
    mat = np.asarray(mat, dtype=complex)
    side = dims.total
    if mat.shape != (side, side):
        raise DimensionMismatchError(f"expected {side}x{side} matrix for dims {dims.m}x{dims.n}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix has NaN or infinite entries")
    herm = _hermitian_part(mat)
    tr_dev = abs(np.trace(mat) - 1.0)
    if tr_dev > TAU_TR:
        raise TraceError(f"trace deviates from 1 by {tr_dev:.3e}")
    lam_min = float(np.linalg.eigvalsh(herm)[0])
    if lam_min < -TAU_PSD:
        raise NotPositiveError(f"minimum eigenvalue {lam_min:.3e} below -{TAU_PSD}")
    return DensityMatrix(dims, _frozen(mat))


def validate_pure(vec: np.ndarray, dims: Dims) -> PureState:
    """Check the length and the squared norm (the trace of its projector) of a state vector."""
    vec = np.asarray(vec, dtype=complex).ravel()
    if vec.shape != (dims.total,):
        raise DimensionMismatchError(f"expected vector of length {dims.total}, got {vec.shape}")
    if not np.isfinite(vec).all():
        raise StateValidationError("vector has NaN or infinite entries")
    sq_dev = abs(np.sum(vec * vec.conj()) - 1.0)
    if sq_dev > TAU_TR:
        raise StateValidationError(f"squared norm deviates from 1 by {sq_dev:.3e}")
    return PureState(dims, _frozen(vec))


def partial_transpose_mat(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose party A's indices of a raw matrix or a stack of them: ((i,a),(j,b)) -> ((j,a),(i,b))."""
    return np.ascontiguousarray(mat.reshape(-1, m, n, m, n).swapaxes(1, 3).reshape(mat.shape))


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Partial transpose rho^{T_A}; Hermitian with trace 1, but possibly not PSD."""
    return partial_transpose_mat(rho.mat, rho.dims.m, rho.dims.n)


def trace_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    The input is symmetrized before the eigensolve; deviations from
    Hermiticity beyond TAU_HERM are rejected rather than hidden.
    """
    herm = _hermitian_part(np.asarray(h, dtype=complex))
    return float(np.sum(np.abs(np.linalg.eigvalsh(herm))))


def negativity(rho: DensityMatrix) -> float:
    """Entanglement negativity (||rho^{T_A}||_tr - 1) / (min(m,n) - 1).

    Zero exactly on PPT states; equals 1 on a maximally entangled pair for
    any local dimension.
    """
    big_m = min(rho.dims.m, rho.dims.n)
    return (trace_norm(partial_transpose(rho)) - 1.0) / (big_m - 1)


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


def from_json(text: str) -> DensityMatrix:
    """Parse and validate a state from the JSON interchange document."""
    try:
        doc = json.loads(text)
        dims = Dims(int(doc["dims"][0]), int(doc["dims"][1]))
        mat = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        raise StateValidationError(f"malformed state document: {exc}") from exc
    return validate_density(mat, dims)
