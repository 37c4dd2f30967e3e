"""Independent numpy reference for the outputs the benchmark checks.

It shares no code with entwit: all C(m,2)*C(n,2) two-qubit blocks are
gathered with one fancy index and solved in batch, and the negativity comes
from singular values rather than an eigensolve.  The generator sandwich of
the program is a local orthogonal rotation of each block, which changes
neither the partial-transpose spectrum nor the singular values of the
correlation matrix, so it is left out here.
"""

from __future__ import annotations

import numpy as np

TAU_C = 1e-12  # subspace weight at or below which a block counts as empty

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI).reshape(3, 3, 4, 4)


def blocks(mat: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights c and raw 4x4 blocks of every subspace pair, lexicographic order.

    Block rows are |j l>, |j q>, |k l>, |k q> for alpha = (j, k), beta = (l, q).
    """
    j, k = np.triu_indices(m, 1)
    l, q = np.triu_indices(n, 1)
    rows_a = np.stack([j, j, k, k], axis=1)
    rows_b = np.stack([l, q, l, q], axis=1)
    idx = (rows_a[:, None, :] * n + rows_b[None, :, :]).reshape(-1, 4)
    blk = np.asarray(mat)[idx[:, :, None], idx[:, None, :]]
    c = np.real(np.einsum("pii->p", blk))
    return c, blk


def _lambda_min_pt(norm: np.ndarray) -> np.ndarray:
    pt = norm.reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(-1, 4, 4)
    return np.linalg.eigvalsh((pt + pt.conj().transpose(0, 2, 1)) / 2.0)[:, 0]


def closed_forms(mat: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per subspace pair: nonlinear maximum 1 - 4*lambda_min and c-weighted Bell maximum.

    Empty pairs give (1, 0), as in the program.
    """
    c, blk = blocks(mat, m, n)
    nonlinear = np.ones(len(c))
    bell = np.zeros(len(c))
    live = c > TAU_C
    norm = blk[live] / c[live, None, None]
    nonlinear[live] = 1.0 - 4.0 * _lambda_min_pt(norm)
    t = np.real(np.einsum("pab,ijba->pij", norm, _PAULI_PAIRS))
    sv = np.linalg.svd(t, compute_uv=False)
    bell[live] = c[live] * 2.0 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
    return nonlinear, bell


def bound_and_negativity(mat: np.ndarray, m: int, n: int) -> tuple[float, float]:
    """CREN lower bound (clip above, X = max(0, d)) and negativity of an m x n state."""
    c, blk = blocks(mat, m, n)
    live = c > TAU_C
    lam = _lambda_min_pt(blk[live] / c[live, None, None])
    x = np.maximum(0.0, -4.0 * lam)
    big_m = min(m, n)
    bound = (float(np.sum(c[live] * (x / 2.0 + 1.0))) - (m - 1) * (n - 1)) / (big_m - 1)
    pt = np.asarray(mat).reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)
    neg = (float(np.linalg.svd(pt, compute_uv=False).sum()) - 1.0) / (big_m - 1)
    return bound, neg
