"""Measurable lower bound on the convex-roof extended negativity (CREN).

CREN extends the negativity to mixed states through the convex roof: the
minimum average pure-state negativity over all ensemble decompositions.  For
a pure state it is just the negativity; the convex-roof minimization itself
is intractable and deliberately not implemented here.  What is implemented is
a lower bound assembled entirely from two-qubit subspace data:

    bound = (1/(M-1)) * sum_ab max(0, -2 lambda_ab)

with M = min(m, n) and lambda_ab the smallest eigenvalue of the partial
transpose of the raw (unnormalized) block of subspace pair ab; each term is
c_ab X_ab/2 with X_ab = max(0, d_ab) the clipped nonlinear witness violation.
The paper's form (1/(M-1)) * [ sum_ab |c_ab| (X_ab/2 + 1) - (m-1)(n-1) ] is
this sum plus a trace bias, as sum_ab c_ab = (m-1)(n-1) Tr rho; without it,
separable states (all X = 0) land at exactly 0.  For pure states in canonical
Schmidt form the bound is tight: it collapses to the negativity through the
trace-norm identity sum_ab ||(L (x) L) psi-projector^{T_A} (L (x) L)||_tr
= (m-1)(n-1) + 2 sum_{i<j} sqrt(mu_i mu_j).

On any pure state psi, with m x n coefficient matrix A and K = Lambda^2 A the
C(m,2) x C(n,2) matrix of its 2x2 minors, pair ab's raw lambda_min is
-|K_ab|, so bound = 2 ||K||_l1/(M-1), while the negativity, which is CREN on
pure states, is 2 ||K||_tr/(M-1).  The entrywise l1 norm is at least the
trace norm and equals it only when K is diagonal up to permutations and
phases, as in Schmidt form; elsewhere the bound exceeds CREN.  A state that
is rank one to rounding is read in these closed forms from the vector its
matrix determines (DensityMatrix.vec; witness._pure_violations,
qstate.pure_negativity), however it was made: a projector, validate_density,
from_json or a CLI family.  Every other state takes the kernel.

The bound reads a subspace only through lambda_ab, so a block whose partial
transpose is provably positive adds exactly 0 and needs no eigenvalue.  The
default bound (witness._violations) therefore skips every block that the
purity certificate proves positive and reads every exactly diagonal block
off its diagonal, and it equals the all-blocks solve to the last bit; both
rules are explained at witness._PURITY_CERT and witness._OFF_DIAGONAL.

A literal clip-below variant (X = min(0, d)) is kept behind a flag for
comparison; it discards every violation and degenerates to 0 on the
maximally entangled state, which is why the shipped bound clips above.  It
reads every d, so it solves every block, as do the per-subspace rows.
The bound document is one dict, built in _report_doc: report_to_json dumps
it compact and `entwit bound` prints and writes it indented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .generators import so_generators
from .qstate import (
    DensityMatrix,
    Dims,
    PureState,
    _negativities,
    negativity,
    partial_transpose,
    trace_norm,
)
from .witness import (
    _FIGURES,
    SubspaceReport,
    _bell_ratios,
    _blocks,
    _nonlinear_columns,
    _nonlinear_d,
    _pair_rows,
    _pure_violations,
    _violations,
    _weights,
    subspace_reports,
)


@dataclass(frozen=True)
class CrenBoundReport:
    """The bound, the plain negativity for comparison, and the state they were
    assembled from.  The bound reads only the raw lambda_min of each pair; the
    per-subspace rows, with their Bell maxima, are built on the first read of
    `reports`."""

    bound: float
    negativity: float
    m_normalizer: int
    rho: DensityMatrix = field(repr=False, compare=False)

    @cached_property
    def reports(self) -> list[SubspaceReport]:
        return subspace_reports(self.rho)


def _bound(raw, dims: Dims, literal_min: bool):
    """The bound from the raw lambda_min of each pair on the last axis, one
    bound per leading index: each pair adds c X/2 = max(0, -2 raw), or
    min(0, -2 raw) for literal_min.  Empty pairs read raw = 0 and add 0."""
    clip = np.minimum if literal_min else np.maximum
    return clip(0.0, -2.0 * raw).sum(axis=-1) / (min(dims.m, dims.n) - 1)


def _assess(stack: np.ndarray, dims: Dims):
    """The scan row figures of a stack (N, mn, mn) of validated same-dims
    states, nonlinear_D, bell_D, bound and negativity, each (N,), and their
    pairs' reach (N, 2, P): for each detection difference in that order, the
    pair's own difference (_nonlinear_d, _bell_d), or an upper bound on it
    where the Bell column did not solve the pair (_bell_ratios), and +inf on
    a pair that is not live."""
    c, live = _weights(stack, dims)
    blk = _blocks(stack, _pair_rows(dims))
    raw, _, nonlinear = _nonlinear_columns(blk, c, live)
    ratio = _bell_ratios(blk, c, live)
    reach = np.where(live[:, None], np.stack([nonlinear - 1.0, ratio - 2.0], axis=1), np.inf)
    figures = _nonlinear_d(nonlinear), ratio.max(axis=1) - 2.0, _bound(raw, dims, False), _negativities(stack, dims)
    return figures, reach


def cren_lower_bound(rho: DensityMatrix, literal_min: bool = False) -> CrenBoundReport:
    """Assemble the bound from all subspace pairs in lexicographic order.

    The default bound solves only the blocks the purity certificate leaves
    open; for a rank-one state (rho.vec) it solves none, since the bound and
    the negativity read it in closed form (see the module docstring).
    literal_min=True swaps the violation clip to X = min(0, d), which reads
    every violation and so solves every block; it is only useful for
    comparing against the clip-above default.
    """
    stack = rho.mat[None]
    if literal_min:
        c, live = _weights(stack, rho.dims)
        raw = _nonlinear_columns(_blocks(stack, _pair_rows(rho.dims)), c, live)[0]
    elif rho.vec is not None:
        raw = _pure_violations(rho)
    else:
        raw = _violations(stack, rho.dims)
    return CrenBoundReport(
        bound=float(_bound(raw, rho.dims, literal_min)[0]),
        negativity=negativity(rho),
        m_normalizer=min(rho.dims.m, rho.dims.n),
        rho=rho,
    )


def pure_sum_identity(psi: PureState) -> tuple[float, float]:
    """Both sides of the pure-state trace-norm identity.

    lhs sums ||(L_a (x) L_b) |psi><psi|^{T_A} (L_a (x) L_b)^dag||_tr over all
    subspace pairs with full-size matrices (no 4x4 shortcut, so it is an
    independent route); rhs = (m-1)(n-1) + 2 sum_{i<j} sqrt(mu_i mu_j) from
    the Schmidt spectrum, the first term being the total block weight
    (m-1)(n-1) Tr rho.  Requires canonical Schmidt form sum_i sqrt(mu_i) |ii>.
    """
    m, n = psi.dims.m, psi.dims.n
    coeff = psi.vec.reshape(m, n)
    off = coeff.copy()
    big_m = min(m, n)
    for i in range(big_m):
        off[i, i] = 0.0
    if np.max(np.abs(off)) > 1e-10:
        raise ValueError("state is not in canonical Schmidt form")
    mu = np.abs(np.diagonal(coeff)[:big_m]) ** 2

    pt = partial_transpose(psi.projector())
    lhs = 0.0
    for _, la in so_generators(m):
        for _, lb in so_generators(n):
            ll = np.kron(la, lb)
            lhs += trace_norm(ll @ pt @ ll.conj().T)

    roots = np.sqrt(mu)
    cross = (roots.sum() ** 2 - mu.sum()) / 2.0
    rhs = (m - 1) * (n - 1) + 2.0 * cross
    return float(lhs), float(rhs)


def _report_doc(report: CrenBoundReport) -> dict:
    """The one bound document: {"bound":..., "negativity":..., "m":..., "subspaces":[...]}."""
    return {
        "bound": report.bound,
        "negativity": report.negativity,
        "m": report.m_normalizer,
        "subspaces": [
            {"alpha": [r.alpha.j, r.alpha.k], "beta": [r.beta.j, r.beta.k], **{f: getattr(r, f) for f in _FIGURES}}
            for r in report.reports
        ],
    }


def report_to_json(report: CrenBoundReport) -> str:
    """The bound document (_report_doc) as compact JSON."""
    return json.dumps(_report_doc(report))
