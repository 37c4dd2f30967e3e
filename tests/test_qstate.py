import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwit.qstate import (
    TAU_HERM,
    TAU_PSD,
    TAU_TR,
    Dims,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    StateValidationError,
    TraceError,
    _negativities,
    from_json,
    negativity,
    partial_transpose,
    partial_transpose_mat,
    pure_negativity,
    realignment_value,
    schmidt,
    to_json,
    trace_norm,
    validate_densities,
    validate_density,
    validate_pure,
)
from entwit.states import _isotropic


def rand_pure_vec(rng, size):
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def rand_density_mat(rng, side, rank=None):
    rank = rank or side
    g = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def max_entangled_vec(d):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


class TestValidateDensity:
    def test_maximally_mixed_two_qubits(self):
        rho = validate_density(np.eye(4) / 4, Dims(2, 2))
        assert rho.dims == Dims(2, 2)

    def test_pure_projector_diag(self):
        validate_density(np.diag([1.0, 0, 0, 0]), Dims(2, 2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveError):
            validate_density(np.diag([2.0, -1.0, 0, 0]), Dims(2, 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.eye(5) / 5, Dims(2, 2))

    def test_nonhermitian_rejected(self):
        mat = np.eye(4) / 4
        mat = mat.astype(complex)
        mat[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            validate_density(mat, Dims(2, 2))

    def test_bad_trace_rejected(self):
        with pytest.raises(TraceError):
            validate_density(np.eye(4) / 2, Dims(2, 2))

    def test_small_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Dims(1, 3)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, where, bad):
        # NaN fails every comparison: without a finiteness check it passes the
        # other checks on the diagonal and reaches the eigensolver off it
        mat = (np.eye(4) / 4).astype(complex)
        mat[where] = bad
        mat[where[::-1]] = bad
        with pytest.raises(StateValidationError, match="NaN or infinite"):
            validate_density(mat, Dims(2, 2))

    def test_non_finite_pure_vector_rejected(self):
        with pytest.raises(StateValidationError, match="NaN or infinite"):
            validate_pure([np.nan, 0.0, 0.0, 0.0], Dims(2, 2))

    def test_matrix_is_readonly(self):
        rho = validate_density(np.eye(4) / 4, Dims(2, 2))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 9.0


def one_state_checks(mat, dims):
    """Oracle: the checks of one state written out in order (shape, finite
    entries, Hermiticity, trace, smallest eigenvalue); returns (M + M^dag)/2."""
    side = dims.total
    if mat.shape != (side, side):
        raise DimensionMismatchError(f"expected {side}x{side} matrix for dims {dims.m}x{dims.n}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix has NaN or infinite entries")
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > TAU_HERM:
        raise NotHermitianError(f"Hermiticity deviation {dev:.3e} exceeds {TAU_HERM}")
    tr_dev = abs(np.trace(mat) - 1.0)
    if tr_dev > TAU_TR:
        raise TraceError(f"trace deviates from 1 by {tr_dev:.3e}")
    herm = (mat + mat.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(herm)[0])
    if lam_min < -TAU_PSD:
        raise NotPositiveError(f"minimum eigenvalue {lam_min:.3e} below -{TAU_PSD}")
    return herm


def first_error(check, mats, dims):
    """(type, message) of the first state of `mats` that `check` rejects, or None."""
    for mat in mats:
        try:
            check(mat, dims)
        except StateValidationError as exc:
            return type(exc), str(exc)
    return None


def add_fault(rng, mat, kind):
    """`mat` with one fault that the checks must reject; a matrix that is
    already not finite fails the first check and is returned as it is."""
    if not np.isfinite(mat).all():
        return mat
    mat = mat.copy()
    side = len(mat)
    i, j = rng.integers(side, size=2)
    if kind in ("nan", "inf"):
        mat[i, j] = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
    elif kind == "hermiticity":
        mat[0, 1] += rng.uniform(10.0, 1e4) * TAU_HERM  # (1, 0) keeps its value
    elif kind == "trace":
        mat *= 1.0 + rng.uniform(10.0, 1e4) * TAU_TR * rng.choice([-1.0, 1.0])
    else:  # an eigenvalue moved below -TAU_PSD, trace kept
        lam, vec = np.linalg.eigh(mat)
        shift = lam[0] + rng.uniform(10.0, 1e4) * TAU_PSD
        mat -= shift * np.outer(vec[:, 0], vec[:, 0].conj())
        mat += shift * np.outer(vec[:, -1], vec[:, -1].conj())
    return mat


FAULTS = ("nan", "inf", "hermiticity", "trace", "psd")


@st.composite
def faulty_stacks(draw):
    """A stack of valid states (each within TAU_HERM of Hermitian) into which
    some states carry one fault, or two at once."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        mat = rand_density_mat(rng, m * n, int(rng.integers(1, m * n + 1)))
        anti = rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape)
        anti -= anti.conj().T
        np.fill_diagonal(anti, 0.0)
        mats.append(mat + anti * (0.4 * TAU_HERM / np.abs(anti).max()))
    for kinds in draw(st.lists(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2, unique=True), max_size=3)):
        k = draw(st.integers(0, len(mats) - 1))
        for kind in sorted(kinds, key=lambda kind: kind in ("nan", "inf")):  # finite faults first
            mats[k] = add_fault(rng, mats[k], kind)
    return Dims(m, n), mats


class TestValidateStack:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(faulty_stacks())
    def test_a_stack_passes_or_fails_as_its_states_do_one_by_one(self, case):
        dims, mats = case
        want = first_error(one_state_checks, mats, dims)
        assert first_error(validate_density, mats, dims) == want
        if want is None:
            got = validate_densities(np.array(mats), dims)
            assert got.tobytes() == np.array([one_state_checks(mat, dims) for mat in mats]).tobytes()
            assert got.tobytes() == np.array([validate_density(mat, dims).mat for mat in mats]).tobytes()
        else:
            with pytest.raises(StateValidationError) as info:
                validate_densities(np.array(mats), dims)
            assert (type(info.value), str(info.value)) == want

    @pytest.mark.parametrize("kinds", [(kind,) for kind in FAULTS] + [("trace", "psd"), ("nan", "hermiticity")])
    def test_each_fault_is_caught_behind_valid_states(self, kinds):
        # valid states, then the faulty one, then one more of each fault: only the first faulty state speaks
        rng = np.random.default_rng(len(kinds))
        dims = Dims(3, 3)
        mats = [rand_density_mat(rng, 9, rank) for rank in (1, 4, 9)]
        bad = mats[1]
        for kind in sorted(kinds, key=lambda kind: kind in ("nan", "inf")):
            bad = add_fault(rng, bad, kind)
        later = [add_fault(rng, mats[0], kind) for kind in FAULTS]
        stack = np.array(mats + [bad] + later)
        want = first_error(one_state_checks, [bad], dims)
        assert want is not None
        with pytest.raises(StateValidationError) as info:
            validate_densities(stack, dims)
        assert (type(info.value), str(info.value)) == want

    def test_shape_and_empty_stack(self):
        with pytest.raises(DimensionMismatchError, match=r"got \(4, 4\)"):
            validate_densities(np.zeros((2, 4, 4)), Dims(3, 3))
        assert validate_densities(np.zeros((0, 9, 9)), Dims(3, 3)).shape == (0, 9, 9)

    def test_an_exactly_real_stack_is_returned_real(self):
        # the input decides: no nonzero imaginary part gives float64, one nonzero entry complex128;
        # a validated DensityMatrix stores what validate_densities returns, read-only
        dims = Dims(2, 3)
        mats = np.stack([np.eye(6, dtype=complex) / 6, np.diag(np.arange(6.0)) / 15])
        got = validate_densities(mats, dims)
        assert got.dtype == np.float64 and np.array_equal(got, mats.real)
        one = np.diag([1, 0, 0, 0, 0, 0])
        for form in (one, one.tolist(), one.astype(float), one.astype(np.complex64), one.astype(complex)):
            rho = validate_density(form, dims)
            assert rho.mat.dtype == np.float64 and not rho.mat.flags.writeable and np.array_equal(rho.mat, one)
        mats[1, 4, 5], mats[1, 5, 4] = 1e-3j, -1e-3j
        assert validate_densities(mats, dims).dtype == np.complex128
        # complex64 with a nonzero imaginary part is promoted to complex128
        c64 = np.diag([0.5, 0.25, 0.25, 0, 0, 0]).astype(np.complex64)
        c64[0, 1], c64[1, 0] = 0.125j, -0.125j
        rho = validate_density(c64, dims)
        assert rho.mat.dtype == np.complex128 and not rho.mat.flags.writeable
        assert np.array_equal(rho.mat, c64)


def near_boundary_state(rng, d):
    """A d*d x d*d state with smallest eigenvalue -TAU_PSD (1 +- delta),
    log-uniform delta in [1e-6, 1], in a random unitary basis; returns the
    matrix and that constructed eigenvalue."""
    side = d * d
    lam = -TAU_PSD * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 0.0))
    rest = rng.uniform(0.1, 1.0, side - 1)
    spec = np.concatenate([[lam], rest * (1.0 - lam) / rest.sum()])
    u, _ = np.linalg.qr(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)))
    return (u * spec) @ u.conj().T, lam


class TestPositivityByFactorization:
    """validate_densities decides positivity by one Cholesky factorization of
    M + TAU_PSD I and eigensolves only to name a failing state; the decision
    must be the eigenvalue rule lambda_min >= -TAU_PSD wherever lambda_min is
    not within rounding of -TAU_PSD (here at least 1e-15 away)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_accepts_exactly_the_states_at_or_above_minus_tau_psd(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            dims = Dims(d, d)
            mats, lams = zip(*(near_boundary_state(rng, d) for _ in range(int(rng.integers(1, 5)))))
            for mat, lam in zip(mats, lams):
                err = first_error(validate_density, [mat], dims)
                assert (err is None) == (lam >= -TAU_PSD)
                # a failing state raises today's NotPositiveError, its eigenvalue in the message
                assert err == first_error(one_state_checks, [mat], dims)
            failing = [k for k, lam in enumerate(lams) if lam < -TAU_PSD]
            if not failing:
                assert validate_densities(np.array(mats), dims).tobytes() == np.array(
                    [one_state_checks(mat, dims) for mat in mats]
                ).tobytes()
                continue
            with pytest.raises(NotPositiveError) as info:
                validate_densities(np.array(mats), dims)
            assert str(info.value) == first_error(one_state_checks, [mats[failing[0]]], dims)[1]


class TestValidatePure:
    """validate_pure and validate_density share TAU_TR: the squared norm of a
    vector is the trace of its projector, so the two checks agree."""

    @pytest.mark.parametrize(
        "scale, accepted",
        [
            (np.sqrt(1.0 + 0.9 * TAU_TR), True),
            (np.sqrt(1.0 - 0.9 * TAU_TR), True),
            (1.0 + 6e-11, False),  # squared norm 1 + 1.2e-10: the projector's trace fails TAU_TR
            (np.sqrt(1.0 - 1.2e-10), False),
        ],
    )
    def test_squared_norm_boundary(self, scale, accepted):
        vec = np.zeros(4, dtype=complex)
        vec[0] = scale
        if accepted:
            assert validate_pure(vec, Dims(2, 2)).projector().dims == Dims(2, 2)
        else:
            with pytest.raises(StateValidationError, match="squared norm deviates"):
                validate_pure(vec, Dims(2, 2))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1), st.floats(-3 * TAU_TR, 3 * TAU_TR))
    def test_accepted_vector_has_valid_projector(self, m, n, seed, sq_dev):
        vec = rand_pure_vec(np.random.default_rng(seed), m * n) * np.sqrt(1.0 + sq_dev)
        try:
            psi = validate_pure(vec, Dims(m, n))
        except StateValidationError:
            return
        psi.projector()  # runs validate_density; raises TraceError if the checks disagree


class TestPartialTranspose:
    def test_product_state_transposes_party_a(self):
        rng = np.random.default_rng(3)
        rho_a = rand_density_mat(rng, 3)
        rho_b = rand_density_mat(rng, 2)
        rho = validate_density(np.kron(rho_a, rho_b), Dims(3, 2))
        expected = np.kron(rho_a.T, rho_b)
        assert np.max(np.abs(partial_transpose(rho) - expected)) < 1e-14
        # still PSD: transposing one factor of a product preserves the spectrum
        assert np.linalg.eigvalsh(expected)[0] > -1e-12

    def test_bell_state_spectrum(self):
        v = max_entangled_vec(2)
        rho = validate_density(np.outer(v, v.conj()), Dims(2, 2))
        lam = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))
        assert np.allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_and_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = validate_density(rand_density_mat(rng, 6), Dims(2, 3))
            pt = partial_transpose(rho)
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-14
            assert abs(np.trace(pt) - 1.0) < 1e-13
            back = pt.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
            assert np.array_equal(back, np.asarray(rho.mat))


class TestTraceNorm:
    def test_diag_pm_one(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_any_density_matrix_is_one(self):
        rng = np.random.default_rng(5)
        for side in (4, 6, 9):
            rho = rand_density_mat(rng, side)
            assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_partial_transpose_of_bell_pair(self):
        v = max_entangled_vec(2)
        rho = validate_density(np.outer(v, v.conj()), Dims(2, 2))
        assert trace_norm(partial_transpose(rho)) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, where, bad):
        h = np.eye(2, dtype=complex)
        h[where] = h[where[::-1]] = bad
        with pytest.raises(StateValidationError, match="NaN or infinite"):
            trace_norm(h)
        with pytest.raises(StateValidationError, match="NaN or infinite"):
            trace_norm(np.full((2, 2), bad))

    def test_pt_trace_norm_at_least_one(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            rho = validate_density(rand_density_mat(rng, 9), Dims(3, 3))
            tn = trace_norm(partial_transpose(rho))
            assert tn >= 1.0 - 1e-12
            lam_min = np.linalg.eigvalsh(partial_transpose(rho))[0]
            if lam_min >= -1e-12:
                assert tn == pytest.approx(1.0, abs=1e-11)


class TestNegativity:
    def test_separable_is_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho_a = rand_density_mat(rng, 3)
            rho_b = rand_density_mat(rng, 3)
            rho = validate_density(np.kron(rho_a, rho_b), Dims(3, 3))
            assert abs(negativity(rho)) < 1e-9

    def test_bell_pair_is_one(self):
        v = max_entangled_vec(2)
        rho = validate_density(np.outer(v, v.conj()), Dims(2, 2))
        assert negativity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_max_entangled_oracle(self):
        # independent oracle: eigensolve the 9x9 partial transpose directly
        v = max_entangled_vec(3)
        mat = np.outer(v, v.conj())
        pt = mat.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
        lam = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
        assert np.abs(lam).sum() == pytest.approx(3.0, abs=1e-12)
        rho = validate_density(mat, Dims(3, 3))
        assert negativity(rho) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("trace", [1.0 - 9e-11, 1.0, 1.0 + 9e-11])
    def test_maximally_mixed_and_separable_isotropic_read_exactly_zero(self, trace):
        # the trace-norm form (||rho^T_A||_tr - 1) / (M - 1) read Tr rho - 1 as
        # negativity: -4.5e-11 here at trace 1 - 9e-11, and -1.1e-16 on isotropic(2, 0.3)
        for mat, dims in [(np.eye(9) / 9, Dims(3, 3)), (np.eye(6) / 6, Dims(2, 3)), _isotropic(2, 0.3)]:
            rho = validate_density(trace * mat, dims)
            assert negativity(rho) == 0.0
            assert _negativities(rho.mat[None], dims).tolist() == [0.0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(2, 4), st.integers(2, 4), st.integers(1, 4), st.booleans(),
        st.floats(-9e-11, 9e-11), st.integers(0, 2**32 - 1),
    )
    def test_ppt_states_never_read_below_zero(self, m, n, terms, real, trace_dev, seed):
        # separable mixtures of product states are PPT; a trace off by up to
        # TAU_TR must not move their negativity below 0, in either arithmetic
        rng = np.random.default_rng(seed)
        mat = np.zeros((m * n, m * n), dtype=complex)
        for w in rng.dirichlet(np.ones(terms)):
            local = []
            for side in (m, n):
                v = rng.normal(size=side) + (0.0 if real else 1j) * rng.normal(size=side)
                local.append(np.outer(v, v.conj()) / np.vdot(v, v).real)
            mat += w * np.kron(*local)
        rho = validate_density((1.0 + trace_dev) * mat, Dims(m, n))
        assert 0.0 <= negativity(rho) < 1e-12
        assert (_negativities(rho.mat[None], rho.dims) >= 0.0).all()

    def test_min_dim_normalizer_for_swapped_dims(self):
        rng = np.random.default_rng(23)
        vec = rand_pure_vec(rng, 6)
        rho23 = validate_density(np.outer(vec, vec.conj()), Dims(2, 3))
        swapped = vec.reshape(2, 3).T.reshape(6)
        rho32 = validate_density(np.outer(swapped, swapped.conj()), Dims(3, 2))
        assert negativity(rho23) == pytest.approx(negativity(rho32), abs=1e-10)


def symmetrized_negativities(mats, dims):
    """The negativity, -2 (sum of the negative eigenvalues) / (M - 1), with
    each partial transpose Hermitized, (M + M^dag)/2, before its eigensolve."""
    pt = partial_transpose_mat(mats, dims.m, dims.n)
    herm = (pt + pt.conj().swapaxes(-1, -2)) / 2.0
    lam = np.linalg.eigvalsh(herm)
    return 2.0 * np.where(lam < 0.0, -lam, 0.0).sum(axis=-1) / (min(dims.m, dims.n) - 1)


def noisy_inputs(rng, k, noise=0.0):
    """Four k x k density matrices of ranks 1, 2, k and k^2, exactly Hermitian,
    plus anti-Hermitian noise with max |M - M^dag| = noise."""
    mats = []
    for rank in (1, 2, k, k * k):
        mat = rand_density_mat(rng, k * k, rank)
        mat = (mat + mat.conj().T) / 2.0  # exactly Hermitian: entry (j, i) is the conjugate of (i, j)
        g = rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape)
        anti = g - g.conj().T
        np.fill_diagonal(anti, 0.0)
        mats.append(mat + anti * (noise / np.abs(2.0 * anti).max()))
    return Dims(k, k), mats


def negativity_stack(rng, k):
    """The stored matrices of four validated k x k states of ranks 1, 2, k and k^2."""
    dims, mats = noisy_inputs(rng, k)
    return dims, np.stack([validate_density(mat, dims).mat for mat in mats])


class TestNegativityEigensolve:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_bitwise_the_symmetrized_solve_on_exactly_hermitian_states(self, k):
        dims, mats = negativity_stack(np.random.default_rng(k), k)
        assert all(np.array_equal(mat, mat.conj().T) for mat in mats)
        got = _negativities(mats, dims)
        assert got.tobytes() == symmetrized_negativities(mats, dims).tobytes()
        singles = [negativity(validate_density(mat, dims)) for mat in mats]
        assert np.array(singles).tobytes() == got.tobytes()


class TestHermitianInvariant:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_noisy_input_is_stored_as_its_hermitian_part(self, k):
        # an input within TAU_HERM of Hermitian is accepted, and the state
        # keeps (M + M^dag)/2 to the last bit: exactly Hermitian, and a fixed
        # point of validation and of the JSON round trip
        dims, mats = noisy_inputs(np.random.default_rng(100 + k), k, noise=0.9 * TAU_HERM)
        for mat in mats:
            assert not np.array_equal(mat, mat.conj().T)
            rho = validate_density(mat, dims)
            assert rho.mat.tobytes() == ((mat + mat.conj().T) / 2.0).tobytes()
            assert np.array_equal(rho.mat, rho.mat.conj().T)
            assert np.array_equal(validate_density(rho.mat, dims).mat, rho.mat)
            again = from_json(to_json(rho))
            assert np.array_equal(again.mat, rho.mat) and to_json(again) == to_json(rho)


class TestSchmidt:
    def test_bell_state(self):
        psi = validate_pure(max_entangled_vec(2), Dims(2, 2))
        assert np.allclose(schmidt(psi).coefficients, [0.5, 0.5], atol=1e-12)

    def test_product_basis_state(self):
        vec = np.zeros(4, dtype=complex)
        vec[1] = 1.0  # |01>
        psi = validate_pure(vec, Dims(2, 2))
        assert np.allclose(schmidt(psi).coefficients, [1.0, 0.0], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(31)
        for m, n in [(2, 2), (3, 3), (2, 4), (4, 3)]:
            psi = validate_pure(rand_pure_vec(rng, m * n), Dims(m, n))
            dec = schmidt(psi)
            k = min(m, n)
            assert len(dec.coefficients) == k
            assert dec.coefficients.sum() == pytest.approx(1.0, abs=1e-10)
            assert all(np.diff(dec.coefficients) <= 1e-15)
            rebuilt = np.zeros(m * n, dtype=complex)
            for i in range(k):
                rebuilt += np.sqrt(dec.coefficients[i]) * np.kron(dec.basis_a[:, i], dec.basis_b[:, i])
            assert np.linalg.norm(rebuilt - psi.vec) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            psi = validate_pure(rand_pure_vec(rng, 9), Dims(3, 3))
            u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            rotated = validate_pure(np.kron(u, v) @ psi.vec, Dims(3, 3))
            assert np.allclose(
                schmidt(psi).coefficients, schmidt(rotated).coefficients, atol=1e-10
            )


class TestPureNegativity:
    def test_product_state(self):
        vec = np.zeros(9, dtype=complex)
        vec[2] = 1.0
        assert pure_negativity(validate_pure(vec, Dims(3, 3))) == 0.0

    def test_qutrit_max_entangled(self):
        psi = validate_pure(max_entangled_vec(3), Dims(3, 3))
        assert pure_negativity(psi) == pytest.approx(1.0, abs=1e-12)

    def test_matches_projector_negativity(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            m, n = rng.integers(2, 5, size=2)
            psi = validate_pure(rand_pure_vec(rng, m * n), Dims(int(m), int(n)))
            assert abs(pure_negativity(psi) - negativity(psi.projector())) < 1e-9


class TestRealignment:
    def test_pure_product_is_one(self):
        rng = np.random.default_rng(43)
        for m, n in [(2, 2), (3, 3), (2, 3)]:
            a = rand_pure_vec(rng, m)
            b = rand_pure_vec(rng, n)
            vec = np.kron(a, b)
            rho = validate_density(np.outer(vec, vec.conj()), Dims(m, n))
            assert realignment_value(rho) == pytest.approx(1.0, abs=1e-10)

    def test_bell_pair_is_two(self):
        v = max_entangled_vec(2)
        rho = validate_density(np.outer(v, v.conj()), Dims(2, 2))
        assert realignment_value(rho) == pytest.approx(2.0, abs=1e-12)

    def test_entry_convention(self):
        # R(rho)[(i,j),(a,b)] = rho[(i,a),(j,b)], checked entry by entry
        rng = np.random.default_rng(47)
        rho = validate_density(rand_density_mat(rng, 6), Dims(2, 3))
        r = np.asarray(rho.mat).reshape(2, 3, 2, 3).transpose(0, 2, 1, 3).reshape(4, 9)
        for i in range(2):
            for j in range(2):
                for a in range(3):
                    for b in range(3):
                        assert r[i * 2 + j, a * 3 + b] == rho.mat[i * 3 + a, j * 3 + b]


class TestJsonRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(53)
        rho = validate_density(rand_density_mat(rng, 6), Dims(2, 3))
        again = from_json(to_json(rho))
        assert again.dims == rho.dims
        assert np.max(np.abs(np.asarray(again.mat) - np.asarray(rho.mat))) < 1e-15

    def test_malformed_document(self):
        with pytest.raises(StateValidationError):
            from_json("{\"dims\": [2, 2]}")
        with pytest.raises(StateValidationError):
            from_json("not json")

    @pytest.mark.parametrize("dims", [[2.9, 2], [2, 2, 7], [2], "22", ["2", "2"], [True, 2], None])
    def test_dims_must_be_two_integers(self, dims):
        # no truncation of 2.9, no ignored third entry, no string read digit by digit
        doc = {"dims": dims, "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        with pytest.raises(StateValidationError, match="malformed state document: dims must be two integers"):
            from_json(json.dumps(doc))

    def test_integral_float_dims_are_read(self):
        doc = {"dims": [2.0, 2], "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        assert from_json(json.dumps(doc)).dims == Dims(2, 2)

    def test_ragged_matrix_is_malformed(self):
        doc = {"dims": [2, 2], "re": [[0.25, 0.0, 0.0, 0.0], [0.25]], "im": np.zeros((4, 4)).tolist()}
        with pytest.raises(StateValidationError, match="malformed state document"):
            from_json(json.dumps(doc))

    def test_invalid_state_in_document(self):
        doc = {"dims": [2, 2], "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
        with pytest.raises(TraceError):
            from_json(json.dumps(doc))
