"""Property tests.

Local basis permutations and local diagonal phases are local unitaries, so
they map the set of subspace pairs onto itself and leave every per-subspace
figure, the bound, the detection verdict and the negativity unchanged.  This
guards the index bookkeeping of the batched block gather.

The settings search maximizes over measurable settings, so it can never
beat the closed-form maxima; a search that does has a wrong objective.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from entwit.cren import cren_lower_bound
from entwit.generators import so_generators
from entwit.qstate import Dims, negativity, validate_density
from entwit.search import OptimizerConfig, optimize_settings
from entwit.witness import (
    bell_max,
    detect_entanglement,
    nonlinear_max,
    subspace_reports,
)


@st.composite
def transformed_states(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 4))
    rank = draw(st.integers(1, m * n))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a real state is solved in real arithmetic and its phase-rotated twin in
    # complex arithmetic, so the property also compares the two paths
    g = rng.normal(size=(m * n, rank)) + (0.0 if real else 1j) * rng.normal(size=(m * n, rank))
    # drop local basis vectors from the support so that some subspaces are empty
    keep_a = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    keep_b = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    keep_a[draw(st.integers(0, m - 1))] = keep_b[draw(st.integers(0, n - 1))] = True
    g *= np.kron(keep_a, keep_b)[:, None]
    mat = g @ g.conj().T
    return _moved(draw, rng, mat / np.trace(mat).real, Dims(m, n))


def _moved(draw, rng, mat, dims):
    """The state of mat, its image under a drawn local permutation with local
    diagonal phases, and the two permutations."""
    m, n = dims.m, dims.n
    perm_a = draw(st.permutations(range(m)))
    perm_b = draw(st.permutations(range(n)))
    phase_a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
    phase_b = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    # U |i> = phase_i |perm(i)> on each side
    u_a = np.zeros((m, m), dtype=complex)
    u_a[perm_a, range(m)] = phase_a
    u_b = np.zeros((n, n), dtype=complex)
    u_b[perm_b, range(n)] = phase_b
    u = np.kron(u_a, u_b)
    rho = validate_density(mat, dims)
    moved = validate_density(u @ rho.mat @ u.conj().T, dims)
    return rho, moved, perm_a, perm_b


@st.composite
def sparse_transformed_states(draw):
    """A Schmidt-form pure state mixed with a diagonal state and with a random
    state on one product of 2-dim local subspaces, up to 9 x 9: exactly sparse,
    so the local permutation moves many exact zeros."""
    m = draw(st.integers(2, 9))
    n = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(m, n)
    mu = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.8)  # some Schmidt coefficients exactly 0
    mu[0] += 1.0 - mu.sum()
    coeff = np.zeros((m, n))
    coeff[range(k), range(k)] = np.sqrt(mu)
    diag = rng.dirichlet(np.ones(m * n)) * (rng.random(m * n) < 0.5)
    diag[0] += 1.0 - diag.sum()
    a, b = rng.choice(m, 2, replace=False), rng.choice(n, 2, replace=False)
    nodes = (a[:, None] * n + b[None, :]).ravel()
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    local = np.zeros((m * n, m * n), dtype=complex)
    local[nodes[:, None], nodes[None, :]] = g @ g.conj().T / np.sum(np.abs(g) ** 2)
    use = draw(st.lists(st.booleans(), min_size=3, max_size=3).filter(any))
    weights = rng.dirichlet(np.ones(3)) * use
    weights /= weights.sum()
    mat = weights[0] * np.outer(coeff.ravel(), coeff.ravel()) + weights[1] * np.diag(diag) + weights[2] * local
    return _moved(draw, rng, mat, Dims(m, n))


def _figures(rho, perm_a=None, perm_b=None):
    out = {}
    for r in subspace_reports(rho):
        key = (r.alpha.j, r.alpha.k, r.beta.j, r.beta.k)
        if perm_a is not None:
            key = (*sorted((perm_a[key[0]], perm_a[key[1]])), *sorted((perm_b[key[2]], perm_b[key[3]])))
        out[key] = (r.c, r.lambda_min, r.nonlinear_max, r.bell_max)
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(transformed_states())
def test_local_permutations_and_phases_leave_every_figure_unchanged(case):
    rho, moved, perm_a, perm_b = case
    before = _figures(rho, perm_a, perm_b)
    after = _figures(moved)
    assert before.keys() == after.keys()
    for key, figures in before.items():
        assert np.max(np.abs(np.subtract(figures, after[key]))) < 1e-10, key
    assert abs(cren_lower_bound(rho).bound - cren_lower_bound(moved).bound) < 1e-10
    assert detect_entanglement(rho)[0] == detect_entanglement(moved)[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sparse_transformed_states())
def test_negativity_and_bound_survive_local_permutations_and_phases(case):
    # the moved state is complex and its basis is renumbered
    rho, moved = case[:2]
    assert abs(negativity(moved) - negativity(rho)) < 1e-12
    assert abs(cren_lower_bound(rho).bound - cren_lower_bound(moved).bound) < 1e-10


@st.composite
def states_and_pairs(draw):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    rank = draw(st.integers(1, m * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(m * n, rank)) + 1j * rng.normal(size=(m * n, rank))
    mat = g @ g.conj().T
    rho = validate_density(mat / np.trace(mat).real, Dims(m, n))
    alpha = draw(st.sampled_from([p for p, _ in so_generators(m)]))
    beta = draw(st.sampled_from([p for p, _ in so_generators(n)]))
    return rho, alpha, beta


@settings(max_examples=20, deadline=None, derandomize=True)
@given(states_and_pairs(), st.integers(0, 2**16))
def test_settings_search_reaches_but_never_beats_the_closed_forms(case, seed):
    rho, alpha, beta = case
    cfg = OptimizerConfig(restarts=4, seed=seed, step_tol=1e-5)
    for kind, closed in (("nonlinear", nonlinear_max), ("bell", bell_max)):
        _, value = optimize_settings(rho, alpha, beta, kind, cfg)
        gap = value - closed(rho, alpha, beta)
        assert gap <= 1e-9, (kind, gap)
        assert gap > -1e-4, (kind, gap)
