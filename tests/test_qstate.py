import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwit.qstate import (
    TAU_TR,
    Dims,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    StateValidationError,
    TraceError,
    from_json,
    negativity,
    partial_transpose,
    pure_negativity,
    realignment_value,
    schmidt,
    to_json,
    trace_norm,
    validate_density,
    validate_pure,
)


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

    def test_min_dim_normalizer_for_swapped_dims(self):
        rng = np.random.default_rng(23)
        vec = rand_pure_vec(rng, 6)
        rho23 = validate_density(np.outer(vec, vec.conj()), Dims(2, 3))
        swapped = vec.reshape(2, 3).T.reshape(6)
        rho32 = validate_density(np.outer(swapped, swapped.conj()), Dims(3, 2))
        assert negativity(rho23) == pytest.approx(negativity(rho32), abs=1e-10)


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

    def test_invalid_state_in_document(self):
        doc = {"dims": [2, 2], "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
        with pytest.raises(TraceError):
            from_json(json.dumps(doc))
