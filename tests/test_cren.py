"""CREN lower bound: worked values, pure-state tightness, PPT null results."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwit import witness
from entwit.cren import (
    _bound,
    cren_lower_bound,
    pure_sum_identity,
    report_to_json,
)
from entwit.qstate import (
    TAU_HERM,
    TAU_TR,
    Dims,
    partial_transpose,
    pure_negativity,
    validate_density,
)
from entwit.states import (
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
    _all_pairs_index,
    _blocks,
    _purities,
    _reports,
    _weights,
    reports_to_csv,
    subspace_reports,
)


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
        assert abs(rep.bound - 1.0) < 1e-12
        assert abs(rep.negativity - 1.0) < 1e-12
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


def assert_bitwise_full_solve(rho):
    """The bound skips the eigensolve of every block the purity certificate
    proves positive; the oracle solves every block, and both must agree to
    the last bit, in both clips, solving the stack the bound solves (rho.mat
    as stored)."""
    cols = _reports(rho.mat[None], rho.dims.n, _all_pairs_index(rho.dims))
    for literal_min in (False, True):
        rep = cren_lower_bound(rho, literal_min=literal_min)
        assert rep.bound == float(_bound(cols.raw, rho.dims, literal_min)[0])


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
        n, index = rho.dims.n, _all_pairs_index(rho.dims)
        ja, ka, jb, kb = index.T
        rows = np.stack([ja * n + jb, ja * n + kb, ka * n + jb, ka * n + kb], axis=1)
        raw = rho.mat[rows[:, :, None], rows[:, None, :]]
        want = np.sum(np.abs(raw) ** 2, axis=(1, 2))
        q = _purities(rho.mat[None], rho.dims)
        assert np.all(np.abs(q[0] - want) <= 1e-13 * want)
        c, live = _weights(rho.mat[None], n, index)
        assert np.all(np.abs(c[0] - np.trace(raw, axis1=1, axis2=2).real) <= 1e-15)
        assert np.array_equal(live, c > TAU_C)
        assert np.array_equal(_blocks(rho.mat[None], n, index)[0], raw[:, ::-1, ::-1])

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

    @pytest.mark.parametrize("m, n, rank, solved", [(6, 12, 72, 0), (8, 8, 1, 784)])
    def test_blocks_passed_to_the_eigensolver(self, monkeypatch, m, n, rank, solved):
        # a full-rank Ginibre state has every block certified; a pure state
        # violates on every block, so all C(8,2)^2 = 784 are solved
        blocks = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            if np.shape(a)[-2:] == (4, 4):
                blocks.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a)

        rho = random_density(Dims(m, n), rank, seed=11)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        cren_lower_bound(rho)
        assert sum(blocks) == solved
        monkeypatch.undo()
        assert_bitwise_full_solve(rho)

    @pytest.mark.parametrize("d, rank, gathered", [(16, 256, []), (8, 1, [784])])
    def test_blocks_gathered(self, monkeypatch, d, rank, gathered):
        # a certified block is never gathered: a full-rank 16x16 state gathers
        # none of its 14,400 blocks, a pure 8x8 state all 784 in one call
        calls = []
        blocks = witness._blocks

        def counting(stack, n, index):
            calls.append(len(stack) * len(index))
            return blocks(stack, n, index)

        rho = random_density(Dims(d, d), rank, seed=11)
        monkeypatch.setattr(witness, "_blocks", counting)
        cren_lower_bound(rho)
        assert calls == gathered


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


class TestPureExactness:
    def test_bound_equals_negativity_in_schmidt_form(self):
        rng = np.random.default_rng(29)
        for trial in range(30):
            d = 3 if trial % 2 == 0 else 4
            mu = rng.dirichlet(np.ones(d))
            psi = pure_from_schmidt(mu, d)
            rep = cren_lower_bound(psi.projector())
            assert abs(rep.bound - pure_negativity(psi)) < 1e-8

    def test_cren_pure_worked_values(self):
        # CREN of a pure state is its negativity
        assert pure_negativity(pure_from_schmidt([1.0], 2)) == 0.0
        assert abs(pure_negativity(max_entangled(2)) - 1.0) < 1e-12


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
        rho = max_entangled(3).projector()
        assert abs(cren_lower_bound(rho, literal_min=True).bound) < 1e-12
        assert abs(cren_lower_bound(rho).bound - 1.0) < 1e-12

    def test_never_exceeds_the_default(self):
        rng = np.random.default_rng(71)
        for seed in range(10):
            rho = random_density(Dims(3, 3), 5, seed=seed)
            assert (
                cren_lower_bound(rho, literal_min=True).bound
                <= cren_lower_bound(rho).bound + 1e-12
            )


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
