"""CREN lower bound: worked values, pure-state tightness, PPT null results."""

import csv
import dataclasses
import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entwit import witness
from entwit.cren import (
    _bound,
    cren_lower_bound,
    pure_sum_identity,
    report_to_json,
)
from entwit.generators import GeneratorPair, _local_pairs
from entwit.qstate import (
    TAU_HERM,
    TAU_TR,
    DensityMatrix,
    Dims,
    PureState,
    _negativities,
    from_json,
    negativity,
    partial_transpose,
    pure_negativity,
    to_json,
    validate_density,
    validate_pure,
)
from entwit.states import (
    StateSpec,
    example1_mixture,
    example2_mixture,
    isotropic,
    max_entangled,
    pure_from_schmidt,
    random_density,
    random_pure,
)
from entwit.witness import (
    TAU_C,
    _PURITY_CERT,
    _blocks,
    _gather,
    _pair_corners,
    _pair_position,
    _pair_rows,
    _pure_violations,
    _purities,
    _reports,
    _violations,
    _weights,
    reports_to_csv,
    subspace_reports,
)


def all_pairs_index(dims: Dims) -> np.ndarray:
    """Oracle for the pair order of _pair_rows: (alpha.j, alpha.k, beta.j, beta.k) of every pair, lexicographic."""
    local_a, local_b = (list(itertools.combinations(range(dim), 2)) for dim in (dims.m, dims.n))
    return np.array([(*a, *b) for a in local_a for b in local_b])


def eight_gather_purities(stack: np.ndarray, dims: Dims) -> np.ndarray:
    """Oracle for _purities: the raw purity of every pair's block, (N, P), from
    eight fancy gathers of |rho|^2 laid out as (a, a', b, b'), four over
    alpha's corners, then four over beta's, each summed left to right."""
    m, n = dims.m, dims.n
    ja, ka = _local_pairs(m).T
    jb, kb = _local_pairs(n).T
    w = np.square(stack.real) + np.square(stack.imag) if np.iscomplexobj(stack) else np.square(stack)
    w = w.reshape(-1, m, n, m, n).transpose(0, 1, 3, 2, 4)
    wa = w[:, ja, ja] + w[:, ja, ka] + w[:, ka, ja] + w[:, ka, ka]
    q = wa[..., jb, jb] + wa[..., jb, kb] + wa[..., kb, jb] + wa[..., kb, kb]
    return q.reshape(len(stack), -1)


def kernel(rho) -> tuple[float, float]:
    """The kernel's bound and negativity of rho's matrix, called directly, so
    that a rank-one state, which cren_lower_bound reads in closed form, is
    solved block by block and eigenvalue by eigenvalue: the closed form's oracle."""
    bound = float(_bound(_violations(rho.mat[None], rho.dims), rho.dims, literal_min=False)[0])
    return bound, float(_negativities(rho.mat, rho.dims))


def bound_from_rows(rows, dims: Dims, literal_min: bool = False) -> float:
    """The paper's formula (sum_ab |c| (X/2 + 1) - (m-1)(n-1)) / (M-1), rebuilt
    from subspace rows that carry "c" and "d" entries, such as parsed CSV rows:
    an oracle independent of the shipped plain sum of raw-block terms."""
    clip = min if literal_min else max
    total = sum(abs(row["c"]) * (clip(0.0, row["d"]) / 2.0 + 1.0) for row in rows)
    return (total - (dims.m - 1) * (dims.n - 1)) / (min(dims.m, dims.n) - 1)


class TestMaxEntangledQutrits:
    def test_bound_is_one_by_independent_assembly(self):
        # oracle: slice each 4x4 block out of P+ directly, eigensolve its
        # partial transpose, and assemble the bound by hand
        rho = max_entangled(3).projector()
        total = 0.0
        pairs = [(0, 1), (0, 2), (1, 2)]
        for aj, ak in pairs:
            for bl, bm in pairs:
                idx = [3 * aj + bl, 3 * aj + bm, 3 * ak + bl, 3 * ak + bm]
                blk = rho.mat[np.ix_(idx, idx)]
                c = np.trace(blk).real
                pt = blk.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
                lam = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0] / c
                x = max(0.0, -4.0 * lam)
                total += c * (x / 2.0 + 1.0)
        hand = (total - 4.0) / 2.0
        assert abs(hand - 1.0) < 1e-12
        rep = cren_lower_bound(rho)
        for value in (rep.bound, rep.negativity, *kernel(rho)):
            assert abs(value - 1.0) < 1e-12
        assert rep.m_normalizer == 3


class TestLazyRows:
    def test_rows_are_built_on_first_read_and_match_subspace_reports(self):
        rho = random_density(Dims(3, 4), 12, seed=5)
        rep = cren_lower_bound(rho)
        assert "reports" not in vars(rep)  # the bound never built them
        rows = rep.reports
        assert rep.reports is rows
        assert rows == subspace_reports(rho)
        # the paper's formula from the rows' c and d gives the bound up to rounding
        assert abs(rep.bound - bound_from_rows([{"c": r.c, "d": r.d} for r in rows], rho.dims)) < 1e-12


def assert_bitwise_full_solve(rho) -> None:
    """The kernel's bound (_violations) skips the eigensolve of every block the
    purity certificate proves positive; the oracle solves every block, and
    both must agree to the last bit,
    solving the stack the bound solves (rho.mat as stored), as must the
    literal_min bound, which solves every block.  cren_lower_bound returns the
    kernel's bound to the last bit on a state that is not rank one and within
    1e-13 on one that is, which it reads in closed form.  Pair by pair,
    _violations holds the oracle's raw lambda_min on every block it does not
    certify and reads 0 on the rest, whose raw lambda_min is positive or, if
    empty, 0."""
    stack, dims = rho.mat[None], rho.dims
    cols = _reports(stack, dims)
    raw = _violations(stack, dims)
    want = float(_bound(cols.raw, dims, literal_min=False)[0])
    assert repr(float(_bound(raw, dims, literal_min=False)[0])) == repr(want)
    literal = cren_lower_bound(rho, literal_min=True).bound
    assert repr(literal) == repr(float(_bound(cols.raw, dims, literal_min=True)[0]))
    bound = cren_lower_bound(rho).bound
    if rho.vec is None:
        assert repr(bound) == repr(want)
    else:
        assert abs(bound - want) <= 1e-13
    solved = cols.live & (_purities(stack, dims) >= _PURITY_CERT * cols.c**2)
    assert raw[solved].tobytes() == cols.raw[solved].tobytes()
    assert not raw[~solved].any() and np.all(cols.raw[~solved] >= 0.0)


@st.composite
def noisy_states(draw):
    """Random states validated from a matrix that carries anti-Hermitian noise
    of up to 0.9 TAU_HERM (zero on the diagonal): validation accepts them and
    stores the Hermitian part, which differs from the noiseless matrix."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = random_density(Dims(m, n), draw(st.integers(1, m * n)), seed=int(rng.integers(2**32))).mat
    k = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
    noise = k - k.conj().T
    np.fill_diagonal(noise, 0.0)
    noise *= draw(st.floats(0.0, 0.45)) * TAU_HERM / np.abs(noise).max()
    return validate_density(mat + noise, Dims(m, n))


class TestCertifiedSolve:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(noisy_states())
    def test_state_level_purity_is_the_raw_block_purity(self, rho):
        # oracle: gather every raw block of the stored matrix by hand; the
        # kernel's block is that block with its basis reversed, unnormalized
        n = rho.dims.n
        ja, ka, jb, kb = all_pairs_index(rho.dims).T
        rows = np.stack([ja * n + jb, ja * n + kb, ka * n + jb, ka * n + kb], axis=1)
        raw = rho.mat[rows[:, :, None], rows[:, None, :]]
        want = np.sum(np.abs(raw) ** 2, axis=(1, 2))
        q = _purities(rho.mat[None], rho.dims)
        assert np.all(np.abs(q[0] - want) <= 1e-13 * want)
        c, live = _weights(rho.mat[None], rho.dims)
        assert np.all(np.abs(c[0] - np.trace(raw, axis1=1, axis2=2).real) <= 1e-15)
        assert np.array_equal(live, c > TAU_C)
        assert np.array_equal(_blocks(rho.mat[None], _pair_rows(rho.dims))[0], raw[:, ::-1, ::-1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_purities_are_bitwise_the_eight_gather_formula(self, m, n, count, real, seed):
        # one take per party through _pair_corners, summed in corner order, adds the same
        # entries in the same order as the eight gathers, on a stack of states of any rank,
        # stored in complex128 or, when exactly real, in float64; a state alone reads its row
        dims = Dims(m, n)
        rng = np.random.default_rng(seed)
        states = [random_density(dims, int(rng.integers(1, m * n + 1)), seed=int(rng.integers(2**32))) for _ in range(count)]
        if real:
            states = [validate_density(rho.mat.real, dims) for rho in states]
        stack = np.stack([rho.mat for rho in states])
        assert stack.dtype == (np.float64 if real else np.complex128)
        q = _purities(stack, dims)
        assert q.shape == (count, math.comb(m, 2) * math.comb(n, 2))
        assert q.tobytes() == eight_gather_purities(stack, dims).tobytes()
        for i, rho in enumerate(states):
            assert _purities(rho.mat[None], dims).tobytes() == q[i : i + 1].tobytes()

    def test_pair_corners_are_built_once_and_read_only(self):
        corners = _pair_corners(5)
        assert _pair_corners(5) is corners
        assert not corners.flags.writeable and corners.flags.c_contiguous
        with pytest.raises(ValueError):
            corners[0, 0] = 1
        # each local pair's corners (j, j), (j, k), (k, j), (k, k) on the flattened (a, a') axis, d = 5
        j, k = np.array(list(itertools.combinations(range(5), 2))).T
        assert corners.tolist() == np.stack([5 * j + j, 5 * j + k, 5 * k + j, 5 * k + k]).tolist()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(3, 6), st.integers(3, 6), st.integers(0, 2**32 - 1))
    def test_weights_are_bitwise_the_gather_through_the_pair_rows(self, m, n, seed):
        # one gather of the four diagonal entries of each block through _pair_rows sums them
        # in the order of four gathers through its rows, read top to bottom, so
        # c and the live mask are bitwise that formula's, for all pairs of a stack and for each
        # pair alone.  The stack holds a pure state, a full-rank one and a diagonal one on the
        # row a = 0 of the coefficient grid, whose pairs without a = 0 are empty, with an entry
        # -1e-12 that validation accepts at (m-1, n-1), whose pairs' weights clip at 0
        dims = Dims(m, n)
        w = np.zeros(m * n)
        w[:n] = np.random.default_rng(seed).dirichlet(np.ones(n))
        w[-1] = -1e-12
        diagonal = validate_density(np.diag(w / w.sum()), dims)
        stack = np.stack([random_density(dims, rank, seed=seed).mat for rank in (1, m * n)] + [diagonal.mat])
        rows = _pair_rows(dims)
        diag = np.diagonal(stack, axis1=-2, axis2=-1).real
        want = np.maximum(diag[:, rows[0]] + diag[:, rows[1]] + diag[:, rows[2]] + diag[:, rows[3]], 0.0)
        c, live = _weights(stack, dims)
        assert c.tobytes() == want.tobytes() and np.array_equal(live, want > TAU_C)
        assert (c == 0.0).any() and not live.all()
        for i in range(rows.shape[1]):
            _, one, one_live = _gather(stack, dims, [i])
            assert one.tobytes() == want[:, i : i + 1].tobytes() and np.array_equal(one_live, live[:, i : i + 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(noisy_states())
    def test_bound_equals_the_full_solve_on_noisy_states(self, rho):
        assert_bitwise_full_solve(rho)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.integers(2, 6), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_bound_equals_the_full_solve_on_random_states(self, m, n, frac, seed):
        rank = 1 + round(frac * (m * n - 1))
        assert_bitwise_full_solve(random_density(Dims(m, n), rank, seed=seed))

    def test_bound_equals_the_full_solve_on_the_families(self):
        grid = np.linspace(0.0, 1.0, 41)
        states = [isotropic(3, x) for x in np.linspace(-1.0 / 8.0, 1.0, 41)]
        states += [example1_mixture(p) for p in grid]
        states += [example2_mixture(a, p) for a in (0.2, 0.5, 0.8) for p in grid[::4]]
        states.append(pure_from_schmidt([0.5, 0.3, 0.2], 3).projector())
        # supported on |00>, |01>, |12>: most subspaces are empty
        keep = np.isin(np.arange(12), [0, 1, 6])
        mat = random_density(Dims(3, 4), 12, seed=2).mat * np.outer(keep, keep)
        states.append(validate_density(mat / np.trace(mat).real, Dims(3, 4)))
        # defect (a): rounding inside a subspace of weight 2e-11 reads as a violation
        mat = np.zeros((9, 9), dtype=complex)
        mat[0, 0] = 1.0 - 2e-11
        mat[4, 4] = mat[8, 8] = 1e-11
        mat[4, 8] = mat[8, 4] = 5e-10
        states.append(validate_density(mat, Dims(3, 3)))
        for rho in states:
            assert_bitwise_full_solve(rho)

    @pytest.mark.parametrize("m, n, rank, solved", [
        (6, 12, 72, 0),
        (8, 8, 1, 784),
        (4, 4, 16, 1),
        (8, 8, 64, 0),
        (16, 16, 256, 0),
        (16, 16, 2, 14400),
    ])
    def test_blocks_passed_to_the_eigensolver(self, monkeypatch, m, n, rank, solved):
        # the kernel's bound (_violations; cren_lower_bound reads a pure state in closed form)
        # on the benchmark's shapes: a full-rank Ginibre state of side 64 and up has every block
        # certified and calls no eigensolver; at 4x4 one block stays open; a pure state
        # violates on every block, so all C(8,2)^2 = 784 are solved, and so does a rank-2
        # 16x16 state, whose C(16,2)^2 = 14,400 blocks are all open, in one eigensolve
        blocks = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            if np.shape(a)[-2:] == (4, 4):
                blocks.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a)

        rho = random_density(Dims(m, n), rank, seed=11)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _violations(rho.mat[None], rho.dims)
        assert blocks == ([solved] if solved else [])
        monkeypatch.undo()
        assert_bitwise_full_solve(rho)

    @pytest.mark.parametrize("d, rank, gathered", [(16, 256, []), (8, 1, [784])])
    def test_blocks_gathered(self, monkeypatch, d, rank, gathered):
        # a certified block is never gathered by the kernel's bound: a full-rank
        # 16x16 state gathers none of its 14,400 blocks, a pure 8x8 state all 784
        # in one call
        calls = []
        blocks = witness._blocks

        def counting(stack, rows):
            calls.append(len(stack) * rows.shape[1])
            return blocks(stack, rows)

        rho = random_density(Dims(d, d), rank, seed=11)
        monkeypatch.setattr(witness, "_blocks", counting)
        _violations(rho.mat[None], rho.dims)
        assert calls == gathered


@st.composite
def local_schmidt_states(draw):
    """A Schmidt-form pure state on d x d, d = 2..8, some coefficients zero,
    under a random local permutation with random diagonal phases on each side:
    (D_a P_a (x) D_b P_b) sum_i sqrt(mu_i) |ii>.  Most of its live blocks are
    exactly diagonal rank-one product blocks, with purity c^2."""
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.dirichlet(np.ones(d)) * (rng.random(d) < 0.8)
    mu[0] += mu.sum() == 0.0
    coeff = pure_from_schmidt(mu / mu.sum(), d).vec.reshape(d, d)
    ua, ub = (np.exp(2j * np.pi * rng.random(d))[:, None] * np.eye(d)[rng.permutation(d)] for _ in "ab")
    vec = (ua @ coeff @ ub.T).reshape(-1)
    return validate_density(np.outer(vec, vec.conj()), Dims(d, d))


@st.composite
def product_diagonal_states(draw):
    """A state diagonal in the product basis, m, n = 2..6, some weights zero:
    every block is exactly diagonal."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.full(m * n, 0.3)) * (rng.random(m * n) < 0.7)
    w[0] += w.sum() == 0.0
    return validate_density(np.diag(w / w.sum()), Dims(m, n))


def lambda_min_calls(monkeypatch, rho):
    """The stack shapes that cren_lower_bound(rho) passes to witness._lambda_min."""
    shapes = []
    solve = witness._lambda_min
    monkeypatch.setattr(witness, "_lambda_min", lambda blk: shapes.append(blk.shape) or solve(blk))
    cren_lower_bound(rho)
    monkeypatch.undo()
    return shapes


class TestDiagonalBlocks:
    """States full of blocks whose 12 off-diagonal entries are exact zeros:
    the bound solves every block the purity certificate leaves open in one
    eigensolve and equals the full solve to the last bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(local_schmidt_states())
    def test_schmidt_states_under_local_permutations_and_phases(self, rho):
        assert_bitwise_full_solve(rho)
        rep = cren_lower_bound(rho)
        # the bound stays exact: local permutations and diagonal phases keep every block's spectrum
        assert abs(rep.bound - rep.negativity) < 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(product_diagonal_states())
    def test_product_basis_diagonal_states(self, rho):
        assert_bitwise_full_solve(rho)
        assert cren_lower_bound(rho).bound == 0.0

    def test_isotropic_and_max_entangled_grids(self):
        for d in range(2, 6):
            for x in np.linspace(-1.0 / (d * d - 1.0), 1.0, 21):
                assert_bitwise_full_solve(isotropic(d, x))
        for d in range(2, 17):
            # complex P_+ from the vector and the float64 family build
            for rho in (max_entangled(d).projector(), isotropic(d, 1.0)):
                assert_bitwise_full_solve(rho)

    @pytest.mark.parametrize("tiny", [1e-300, 1e-300j, 5e-324])
    def test_a_tiny_off_diagonal_entry_is_solved(self, monkeypatch, tiny):
        # validation keeps the tiny entry, and the open block is solved
        mat = np.diag([0.7, 0.1, 0.1, 0.1]).astype(type(tiny))
        mat[0, 3], mat[3, 0] = tiny, np.conj(tiny)
        rho = validate_density(mat, Dims(2, 2))
        assert rho.mat[0, 3] == tiny
        assert lambda_min_calls(monkeypatch, rho) == [(1, 4, 4)]
        assert_bitwise_full_solve(rho)

    @pytest.mark.parametrize("dims", [Dims(2, 2), Dims(3, 4)])
    def test_a_negative_diagonal_entry_that_validation_accepts(self, dims):
        # -1e-12 lies within TAU_PSD; eigvalsh returns it as the diagonal block's lambda_min
        w = np.zeros(dims.total)
        w[:4] = [0.6, 0.4 + 1e-12, -1e-12, 0.0]
        rho = validate_density(np.diag(w), dims)
        assert_bitwise_full_solve(rho)
        raw = _violations(rho.mat[None], dims)
        assert raw.min() == -1e-12
        assert np.linalg.eigvalsh(partial_transpose(rho))[0] == -1e-12
        if dims == Dims(2, 2):
            assert cren_lower_bound(rho).bound == 2e-12

    @pytest.mark.parametrize("make, open_blocks", [
        (lambda: pure_from_schmidt(np.random.default_rng(19).dirichlet(np.ones(12)), 12).projector(), 1386),
        (lambda: max_entangled(16).projector(), 3480),
        (lambda: isotropic(16, 1.0), 3480),
        (lambda: isotropic(16, 0.5), 3480),
        (lambda: random_density(Dims(8, 8), 1, seed=11), 784),
        (lambda: random_density(Dims(5, 7), 3, seed=4), None),
    ], ids=["schmidt_12", "max_entangled_16", "pplus_16_float64", "isotropic_16", "pure_8x8", "rank3_5x7"])
    def test_eigvalsh_sees_the_open_blocks_and_the_whole_partial_transpose(self, monkeypatch, make, open_blocks):
        # the kernel, called directly (cren_lower_bound reads a rank-one state in closed form):
        # one eigensolve of every block the purity certificate leaves open, then the negativity's
        # one eigensolve of the whole partial transpose
        rho = make()
        stack, dims = rho.mat[None], rho.dims
        c, live = _weights(stack, dims)
        solved = int(np.sum(live & (_purities(stack, dims) >= _PURITY_CERT * c**2)))
        assert solved == open_blocks if open_blocks is not None else solved > 0
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(np.shape(a)) or eigvalsh(a))
        _violations(stack, dims)
        _negativities(rho.mat, dims)
        monkeypatch.undo()
        assert shapes == [(solved, 4, 4), (dims.total, dims.total)]
        assert_bitwise_full_solve(rho)

    def test_a_schmidt_basis_mixture_takes_one_block_solve_and_one_whole_solve(self, monkeypatch):
        # two Schmidt-form states on 8 x 8, mixed: rank two, so cren_lower_bound takes the kernel;
        # the 28 blocks with alpha = beta and the 28 * 2 * 6 live blocks that share one index are
        # left open and solved together, and the negativity solves the whole partial transpose
        rng = np.random.default_rng(31)
        mix = sum(0.5 * pure_from_schmidt(rng.dirichlet(np.ones(8)), 8).projector().mat for _ in range(2))
        rho = validate_density(mix, Dims(8, 8))
        assert rho.vec is None
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(np.shape(a)) or eigvalsh(a))
        rep = cren_lower_bound(rho)
        monkeypatch.undo()
        assert shapes == [(28 + 28 * 2 * 6, 4, 4), (64, 64)]
        assert_bitwise_full_solve(rho)
        assert rep.negativity == float(_negativities(rho.mat, rho.dims)) > 0.0


class TestIsotropicBound:
    def test_matches_linear_form_above_threshold(self):
        for x in (0.3, 0.5, 1.0):
            rep = cren_lower_bound(isotropic(3, x))
            assert abs(rep.bound - (4.0 * x - 1.0) / 3.0) < 1e-8

    def test_zero_below_threshold(self):
        assert abs(cren_lower_bound(isotropic(3, 0.2)).bound) < 1e-9
        assert abs(cren_lower_bound(isotropic(3, 0.25)).bound) < 1e-9


class TestPureSumIdentity:
    def test_product_state(self):
        lhs, rhs = pure_sum_identity(pure_from_schmidt([1.0], 3))
        assert abs(lhs - 4.0) < 1e-12 and abs(rhs - 4.0) < 1e-12

    def test_flat_spectrum(self):
        lhs, rhs = pure_sum_identity(max_entangled(3))
        assert abs(lhs - 6.0) < 1e-12 and abs(rhs - 6.0) < 1e-12

    def test_random_spectra(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            d = 3 if trial % 2 == 0 else 4
            mu = rng.dirichlet(np.ones(d))
            lhs, rhs = pure_sum_identity(pure_from_schmidt(mu, d))
            assert abs(lhs - rhs) < 1e-9

    def test_rejects_rotated_states(self):
        with pytest.raises(ValueError):
            pure_sum_identity(random_pure(Dims(3, 3), seed=4))

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (4, 2)])
    def test_non_square_schmidt_forms(self, m, n):
        # the block weights sum to (m-1)(n-1) Tr rho, which is not (M-1)^2 when m != n
        k = min(m, n)
        product = np.zeros((m, n))
        product[0, 0] = 1.0
        assert pure_sum_identity(validate_pure(product.ravel(), Dims(m, n))) == ((m - 1) * (n - 1), (m - 1) * (n - 1))
        rng = np.random.default_rng(23)
        for _ in range(20):
            coeff = np.zeros((m, n))
            coeff[range(k), range(k)] = np.sqrt(rng.dirichlet(np.ones(k)))
            lhs, rhs = pure_sum_identity(validate_pure(coeff.ravel(), Dims(m, n)))
            assert abs(lhs - rhs) < 1e-9


class TestPureExactness:
    def test_bound_equals_negativity_in_schmidt_form(self):
        rng = np.random.default_rng(29)
        for trial in range(30):
            d = 3 if trial % 2 == 0 else 4
            mu = rng.dirichlet(np.ones(d))
            psi = pure_from_schmidt(mu, d)
            rho = psi.projector()
            for bound in (cren_lower_bound(rho).bound, kernel(rho)[0]):
                assert abs(bound - pure_negativity(psi)) < 1e-8

    def test_cren_pure_worked_values(self):
        # CREN of a pure state is its negativity
        assert pure_negativity(pure_from_schmidt([1.0], 2)) == 0.0
        assert abs(pure_negativity(max_entangled(2)) - 1.0) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: off Schmidt form the all-pairs sum exceeds CREN; random_pure d=4, seed 0 reads 1.7803",
)
def test_bound_is_at_most_cren_on_a_pure_state_off_schmidt_form():
    """CREN of a pure state is its negativity, 0.6668 here; a lower bound may not exceed it."""
    rep = cren_lower_bound(random_pure(Dims(4, 4), 0).projector())
    assert rep.bound <= rep.negativity + 1e-12


class TestPptNullResult:
    def test_ppt_states_get_no_positive_bound(self):
        # PPT survives compression, so every subspace violation is zero and
        # so is each term of the assembled bound
        rng = np.random.default_rng(47)
        dims_cycle = [(2, 2), (2, 3), (3, 3)]
        collected = 0
        attempts = 0
        while collected < 100 and attempts < 3000:
            attempts += 1
            m, n = dims_cycle[attempts % 3]
            raw = random_density(Dims(m, n), m * n, seed=int(rng.integers(1 << 31)))
            w = rng.uniform(0.5, 0.95)
            mat = (1.0 - w) * raw.mat + w * np.eye(m * n) / (m * n)
            rho = validate_density(mat, Dims(m, n))
            if np.linalg.eigvalsh(partial_transpose(rho))[0] < 0.0:
                continue
            collected += 1
            rep = cren_lower_bound(rho)
            assert rep.bound <= 1e-9
            assert all(r.x == 0.0 for r in rep.reports)
        assert collected == 100, f"only {collected} PPT samples in {attempts} attempts"


class TestTraceDeviation:
    @pytest.mark.parametrize("d", [3, 6, 12, 16])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_maximally_mixed_state_off_unit_trace_has_zero_bound(self, d, sign):
        # validation accepts a trace within TAU_TR of 1; the paper's form
        # sum_ab c (X/2 + 1) - (m-1)(n-1) reads that deviation times
        # (m-1)(n-1)/(M-1) as a bound (1.3e-9 at d = 16), the plain sum of
        # per-pair terms does not
        rho = validate_density(np.eye(d * d) / (d * d) * (1.0 + sign * 0.9 * TAU_TR), Dims(d, d))
        assert abs(cren_lower_bound(rho).bound) <= 1e-12
        assert_bitwise_full_solve(rho)


class TestMixtureMonotonicity:
    def test_bound_nondecreasing_in_p(self):
        grid = np.linspace(0.0, 1.0, 100)
        vals = [cren_lower_bound(example1_mixture(p)).bound for p in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9
        assert abs(vals[0]) < 1e-9  # PPT start
        assert abs(vals[-1] - 1.0) < 1e-12  # ends at P+


class TestRebuild:
    def test_componentwise_rebuild_matches(self):
        rng = np.random.default_rng(61)
        for rho in (
            random_density(Dims(3, 3), 9, seed=3),
            random_density(Dims(2, 4), 8, seed=4),
            example1_mixture(0.5),
        ):
            rep = cren_lower_bound(rho)
            big_m = rep.m_normalizer
            total = sum(r.c * (r.x / 2.0 + 1.0) for r in rep.reports if r.c > 1e-12)
            hand = (total - (rho.dims.m - 1) * (rho.dims.n - 1)) / (big_m - 1)
            assert abs(hand - rep.bound) < 1e-12

    def test_csv_round_trip_rebuild(self):
        for rho, dims in (
            (example1_mixture(0.4), Dims(3, 3)),
            (random_density(Dims(2, 4), 8, seed=8), Dims(2, 4)),
        ):
            rep = cren_lower_bound(rho)
            reader = csv.DictReader(io.StringIO(reports_to_csv(rep.reports)))
            got = bound_from_rows([{name: float(v) for name, v in row.items()} for row in reader], dims)
            assert abs(got - rep.bound) < 1e-12


class TestLiteralMinVariant:
    def test_discards_the_violation(self):
        pplus = max_entangled(3).projector()
        assert abs(cren_lower_bound(pplus, literal_min=True).bound) < 1e-12
        for bound in (cren_lower_bound(pplus).bound, kernel(pplus)[0]):
            assert abs(bound - 1.0) < 1e-12

    def test_never_exceeds_the_default(self):
        rng = np.random.default_rng(71)
        for seed in range(10):
            rho = random_density(Dims(3, 3), 5, seed=seed)
            assert (
                cren_lower_bound(rho, literal_min=True).bound
                <= cren_lower_bound(rho).bound + 1e-12
            )

    def test_solves_no_gram_matrix(self):
        """The literal bound reads only the raw lambda_min of every pair: one
        eigensolve of the 4x4 partial transposes, no CHSH Gram matrix."""
        rho = random_density(Dims(3, 4), 6, seed=3)
        with mock.patch.object(witness, "_bell_maxima", wraps=witness._bell_maxima) as gram, \
                mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
            bound = cren_lower_bound(rho, literal_min=True).bound
        assert gram.call_count == 0
        shapes = [call.args[0].shape[-2:] for call in eig.call_args_list]  # the negativity solves its own
        assert shapes.count((4, 4)) == 1 and (3, 3) not in shapes
        assert repr(bound) == repr(float(_bound(_reports(rho.mat[None], rho.dims).raw, rho.dims, True)[0]))


class TestJsonReport:
    def test_document_shape(self):
        rep = cren_lower_bound(isotropic(3, 0.5))
        doc = json.loads(report_to_json(rep))
        assert set(doc) == {"bound", "negativity", "m", "subspaces"}
        assert doc["m"] == 3 and len(doc["subspaces"]) == 9
        assert abs(doc["bound"] - rep.bound) < 1e-15
        first = doc["subspaces"][0]
        assert first["alpha"] == [0, 1] and first["beta"] == [0, 1]
        assert set(first) == {"alpha", "beta", "c", "lambda_min", "bell_max", "nonlinear_max", "d", "x"}


def random_vector(m: int, n: int, seed: int) -> np.ndarray:
    """A unit complex Gaussian vector on m x n."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
    return vec / np.linalg.norm(vec)


def minors_oracle(psi: PureState) -> np.ndarray:
    """K = Lambda^2 A: every 2x2 minor of the coefficient matrix A, rows and
    columns in lexicographic pair order, one determinant at a time."""
    a = psi.vec.reshape(psi.dims.m, psi.dims.n)
    return np.array([
        [np.linalg.det(a[np.ix_(rows, cols)]) for cols in itertools.combinations(range(psi.dims.n), 2)]
        for rows in itertools.combinations(range(psi.dims.m), 2)
    ])


@st.composite
def local_schmidt_pure(draw):
    """A Schmidt-form pure state on m x n, m, n = 2..8, some coefficients zero,
    under a random local permutation with random phases on each side."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(m, n)
    mu = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.8)
    mu[0] += mu.sum() == 0.0
    coeff = np.zeros((m, n), dtype=complex)
    coeff[range(k), range(k)] = np.sqrt(mu / mu.sum())
    coeff *= np.exp(2j * np.pi * rng.random(m))[:, None] * np.exp(2j * np.pi * rng.random(n))
    return validate_pure(coeff[rng.permutation(m)][:, rng.permutation(n)], Dims(m, n))


@st.composite
def rank_one_matrices(draw):
    """A rank-one density matrix v v^dag / |v|^2 on m x n, m, n = 2..8, of a
    complex, a real or a sparse vector (about 60% of its entries exactly 0,
    the moduli of the others spanning six decades), validated from the outer
    product or read back from its JSON document."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["complex", "real", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = m * n
    if kind == "sparse":
        vec = 10.0 ** rng.uniform(-6.0, 0.0, side) * np.exp(2j * np.pi * rng.random(side)) * (rng.random(side) >= 0.6)
        vec[rng.integers(side)] = 1.0
    else:
        vec = rng.normal(size=side) + (0.0 if kind == "real" else 1j * rng.normal(size=side))
    rho = validate_density(np.outer(vec, vec.conj()) / np.vdot(vec, vec).real, Dims(m, n))
    return from_json(to_json(rho)) if draw(st.booleans()) else rho


def eigvalsh_shapes(call, rho) -> list:
    """The shapes that call(rho) passes to np.linalg.eigvalsh."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(np.shape(a)) or eigvalsh(a))
        call(rho)
    return shapes


class TestPureClosedForm:
    """A rank-one state, however it was made, reads the bound and the
    negativity in closed form from the 2x2 minors K of the coefficient matrix
    of the vector its matrix determines (DensityMatrix.vec); the kernel,
    called directly on the same matrix, is the oracle."""

    @staticmethod
    def assert_matches_the_kernel(rho):
        assert rho.vec is not None
        rep, (bound, neg) = cren_lower_bound(rho), kernel(rho)
        assert abs(rep.bound - bound) <= 1e-13
        assert abs(rep.negativity - neg) <= 1e-13
        return rep

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(rank_one_matrices())
    def test_rank_one_matrices(self, rho):
        # complex, real and sparse, direct and through JSON: read as rank one, no eigensolve
        assert eigvalsh_shapes(cren_lower_bound, rho) == []
        self.assert_matches_the_kernel(rho)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_random_pure_states(self, m, n, seed):
        self.assert_matches_the_kernel(validate_pure(random_vector(m, n, seed), Dims(m, n)).projector())

    @pytest.mark.parametrize("make", [
        lambda: random_pure(Dims(8, 8), 0).projector(),
        lambda: from_json(to_json(pure_from_schmidt(np.random.default_rng(12).dirichlet(np.ones(12)), 12).projector())),
    ], ids=["pure_8x8", "schmidt_12_state_file"])
    def test_named_states(self, make):
        self.assert_matches_the_kernel(make())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(local_schmidt_pure())
    def test_schmidt_forms_under_local_permutations_and_phases(self, psi):
        # K is diagonal up to permutations and phases, so the bound is the negativity
        rep = self.assert_matches_the_kernel(psi.projector())
        assert abs(rep.bound - rep.negativity) <= 1e-13

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(2, 16))
    def test_max_entangled(self, d):
        rep = self.assert_matches_the_kernel(max_entangled(d).projector())
        assert abs(rep.bound - 1.0) <= 1e-13 and abs(rep.negativity - 1.0) <= 1e-13

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_a_pair_of_weight_at_most_tau_c_reads_zero(self, m, n, seed):
        assume(m * n > 4)
        rng = np.random.default_rng(seed)
        (ja, ka), (jb, kb) = np.sort(rng.choice(m, 2, replace=False)), np.sort(rng.choice(n, 2, replace=False))
        a = random_vector(m, n, seed).reshape(m, n)
        block = np.ix_([ja, ka], [jb, kb])
        a[block] = 0.0
        a /= np.linalg.norm(a)
        # entries below 2.4e-7 in modulus: the pair's weight is below 4 * 2.4e-7^2 < TAU_C
        a[block] = 2.4e-7 * rng.uniform(0.1, 1.0, (2, 2)) * np.exp(2j * np.pi * rng.random((2, 2)))
        psi = validate_pure(a / np.linalg.norm(a), Dims(m, n))
        rho = psi.projector()
        pair = _pair_position(rho.dims, GeneratorPair(int(ja), int(ka), m), GeneratorPair(int(jb), int(kb), n))
        c, live = _weights(rho.mat[None], rho.dims)
        assert c[0, pair] <= TAU_C and not live[0, pair]
        assert minors_oracle(psi).reshape(-1)[pair] != 0.0
        raw, kernel_raw = _pure_violations(rho), _violations(rho.mat[None], rho.dims)
        assert raw[0, pair] == kernel_raw[0, pair] == 0.0
        assert np.abs(raw - kernel_raw).max() <= 1e-13
        self.assert_matches_the_kernel(rho)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 2))
    def test_rank_one_matrices_from_every_source_skip_the_kernel_and_mixtures_take_it(self, m, n, seed):
        dims, side = Dims(m, n), m * n
        rho = validate_pure(random_vector(m, n, seed), dims).projector()
        other = validate_pure(random_vector(m, n, seed + 1), dims).projector()
        sources = [rho, validate_density(rho.mat, dims), from_json(to_json(rho)), random_density(dims, 1, seed=seed)]
        if m == n:  # the CLI's pure families
            mu = np.random.default_rng(seed).dirichlet(np.ones(m)).tolist()
            specs = [("random_pure", {"d": m, "seed": seed % 1000}), ("max_entangled", {"d": m}),
                     ("schmidt_pure", {"mu": mu, "d": m})]
            sources += [StateSpec(family, params).build() for family, params in specs]
        for state in sources:
            assert state.vec is not None
            assert eigvalsh_shapes(cren_lower_bound, state) == eigvalsh_shapes(negativity, state) == []
        for state in (validate_density(0.5 * rho.mat + 0.5 * other.mat, dims), random_density(dims, 2, seed=seed)):
            assert state.vec is None
            bound_shapes = eigvalsh_shapes(cren_lower_bound, state)
            assert bound_shapes[-1] == (side, side) and bound_shapes[0][-2:] == (4, 4)
            assert eigvalsh_shapes(negativity, state) == [(side, side)]

    @pytest.mark.parametrize("m, n", [(3, 3), (2, 5), (4, 4)])
    def test_a_mixture_with_weight_1e_12_takes_the_kernel(self, m, n):
        # (1 - 1e-12) |psi><psi| + 1e-12 I / mn is 1e-12 / mn from rank one on the diagonal, far
        # above _RANK_ONE_TOL: it is solved, and the bound and negativity are the kernel's bitwise
        psi = random_vector(m, n, 5)
        mat = (1.0 - 1e-12) * np.outer(psi, psi.conj()) + 1e-12 * np.eye(m * n) / (m * n)
        rho = validate_density(mat, Dims(m, n))
        assert rho.vec is None
        assert eigvalsh_shapes(negativity, rho) == [(m * n, m * n)]
        rep, (bound, neg) = cren_lower_bound(rho), kernel(rho)
        assert (repr(rep.bound), repr(rep.negativity)) == (repr(bound), repr(neg))
        assert abs(rep.negativity - pure_negativity(validate_pure(psi, Dims(m, n)))) < 1e-11

    def test_a_state_that_is_not_rank_one_is_rejected_without_an_outer_product(self, monkeypatch):
        # the O(side) test on the largest diagonal entry's column rejects each of them
        states = [random_density(Dims(4, 4), rank, seed=3) for rank in (2, 16)]
        states += [random_density(Dims(16, 16), 256, seed=3), isotropic(3, 0.5), example1_mixture(0.5)]
        psi = random_vector(3, 3, 5)
        states.append(validate_density((1.0 - 1e-12) * np.outer(psi, psi.conj()) + 1e-12 * np.eye(9) / 9, Dims(3, 3)))
        monkeypatch.setattr(np, "outer", lambda *args: pytest.fail("np.outer called"))
        assert [rho.vec for rho in states] == [None] * len(states)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 2))
    def test_the_vector_is_derived_read_only_and_cached(self, m, n, seed):
        vec = random_vector(m, n, seed)
        rho = PureState(Dims(m, n), vec).projector()  # the dataclass holds the caller's writable array
        mat, rep = rho.mat.copy(), cren_lower_bound(rho)
        # v = rho[:, j] / sqrt(rho_jj) is the vector up to the phase of its entry j
        j = int(np.argmax(np.abs(vec)))
        assert np.abs(rho.vec - vec * np.exp(-1j * np.angle(vec[j]))).max() <= 1e-15
        assert [f.name for f in dataclasses.fields(DensityMatrix)] == ["dims", "mat"]
        vec[:] = random_vector(m, n, seed + 1)
        assert rho.vec is rho.vec and not rho.vec.flags.writeable and not np.shares_memory(rho.vec, vec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.vec = None
        assert "vec" not in repr(rho)
        assert np.array_equal(rho.mat, mat)
        again = cren_lower_bound(rho)
        assert (again.bound, again.negativity) == (rep.bound, rep.negativity)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_bound_and_negativity_are_norms_of_the_minors(self, m, n, seed):
        # bound = 2 ||K||_l1 / (M-1) and negativity = 2 ||K||_tr / (M-1), in closed form and by the kernel
        psi = validate_pure(random_vector(m, n, seed), Dims(m, n))
        k, half = minors_oracle(psi), (min(m, n) - 1) / 2.0
        rep = cren_lower_bound(psi.projector())
        for bound, neg in ((rep.bound, rep.negativity), kernel(psi.projector())):
            assert abs(bound - np.abs(k).sum() / half) <= 1e-12
            assert abs(neg - np.linalg.svd(k, compute_uv=False).sum() / half) <= 1e-12

    def test_off_schmidt_form_the_bound_exceeds_the_negativity(self):
        # ROADMAP item 2: ||K||_l1 > ||K||_tr when K is not diagonal
        rho = random_pure(Dims(4, 4), 0).projector()
        rep = cren_lower_bound(rho)
        for bound, neg in ((rep.bound, rep.negativity), kernel(rho)):
            assert (round(bound, 4), round(neg, 4)) == (1.7803, 0.6668)
