"""State family constructors: worked values, symmetries, detection thresholds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwit.qstate import (
    DensityMatrix,
    Dims,
    NotPositiveError,
    validate_density,
    negativity,
    partial_transpose,
    pure_negativity,
    realignment_value,
    schmidt,
    to_json,
)
from entwit.states import (
    _BUILD_ERRORS,
    _FAMILIES,
    StateSpec,
    _isotropic,
    _qutrit_pplus,
    bennett_rho,
    example1_mixture,
    example2_mixture,
    isotropic,
    max_entangled,
    pure_from_schmidt,
    random_density,
    random_pure,
    rho_a,
)
from entwit.witness import detect_entanglement


def ket(d, i):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


class TestMaxEntangled:
    def test_bell_state(self):
        psi = max_entangled(2)
        want = (np.kron(ket(2, 0), ket(2, 0)) + np.kron(ket(2, 1), ket(2, 1))) / math.sqrt(2)
        assert np.max(np.abs(psi.vec - want)) < 1e-15

    def test_flat_schmidt_spectrum(self):
        mu = schmidt(max_entangled(3)).coefficients
        assert np.max(np.abs(mu - 1.0 / 3.0)) < 1e-12

    def test_unit_pure_negativity_every_d(self):
        for d in (2, 3, 4, 5):
            assert abs(pure_negativity(max_entangled(d)) - 1.0) < 1e-12

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            max_entangled(1)
        # a non-integral d is named, for P_+'s one build too, not failed inside numpy
        for make in (max_entangled, lambda d: isotropic(d, 0.5)):
            for d in (1, 3.0, 2.5, True):
                with pytest.raises(ValueError, match="d must be an integer >= 2, got"):
                    make(d)


class TestIsotropic:
    def test_endpoints(self):
        assert np.max(np.abs(isotropic(3, 0.0).mat - np.eye(9) / 9.0)) < 1e-15
        assert np.max(np.abs(isotropic(3, 1.0).mat - max_entangled(3).projector().mat)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pplus_is_one_float64_build(self, d):
        # oracle: the complex build, P_+ as the outer product of the complex vector sum_i |ii> / sqrt(d);
        # the isotropic raw matrix, the max_entangled family matrix and the mixtures' P_+ are float64
        # and equal its real part bit for bit
        vec = np.zeros(d * d, dtype=complex)
        vec[:: d + 1] = 1.0 / math.sqrt(d)
        pplus = np.outer(vec, vec.conj())
        for x in (-1.0 / (d * d - 1), 0.0, 0.5, 1.0):
            old = x * pplus + (1.0 - x) * np.eye(d * d) / (d * d)
            assert not old.imag.any()
            got = [_isotropic(d, x)[0]]
            if x == 1.0:
                got.append(StateSpec("max_entangled", {"d": d}).matrix()[0])
                got += [_qutrit_pplus().mat] if d == 3 else []
            for mat in got:
                assert mat.dtype == np.float64 and mat.tobytes() == np.ascontiguousarray(old.real).tobytes()

    def test_ppt_boundary(self):
        # the family turns NPT exactly at x = 1/(d+1)
        rho = isotropic(3, 0.25)
        lam = np.linalg.eigvalsh(partial_transpose(rho))[0]
        assert abs(lam) < 1e-10

    def test_positivity_range_enforced(self):
        with pytest.raises(ValueError):
            isotropic(3, 1.0 + 1e-6)
        with pytest.raises(ValueError):
            isotropic(3, -1.0 / 8.0 - 1e-6)
        isotropic(3, -1.0 / 8.0)  # boundary itself is a state

    def test_validates_the_mixture_with_one_factorization(self, monkeypatch):
        # P_+ is built in float64 with no check of its own; only the mixture is validated, on its own:
        # one Cholesky factorization decides positivity, and no eigensolve runs
        calls = {"cholesky": [], "eigvalsh": []}
        for name, shapes in calls.items():
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, real=real, shapes=shapes: shapes.append(np.shape(a)) or real(a))
        for d, x in itertools.product((2, 3, 8), (0.5, 1.0)):  # x = 1 is the rank-one P_+ itself
            calls["cholesky"].clear()
            rho = isotropic(d, x)
            assert calls == {"cholesky": [(d * d, d * d)], "eigvalsh": []}
            pplus = np.outer(max_entangled(d).vec, max_entangled(d).vec.conj())
            assert np.array_equal(rho.mat, x * pplus + (1.0 - x) * np.eye(d * d) / (d * d))
        # a failing state takes one eigensolve more, which names its eigenvalue
        calls["cholesky"].clear()
        with pytest.raises(NotPositiveError, match=r"minimum eigenvalue -5\.000e-01"):
            validate_density(np.diag([1.5, -0.5, 0.0, 0.0]), Dims(2, 2))
        assert calls == {"cholesky": [(4, 4)], "eigvalsh": [(4, 4)]}

    def test_nan_parameter_is_named(self):
        # NaN fails every comparison, so the domain check is written to let only in-range values pass
        with pytest.raises(ValueError, match="x=nan"):
            isotropic(3, float("nan"))

    def test_twirl_invariance(self):
        # U (x) U* twirling is the defining symmetry of the family
        rng = np.random.default_rng(3)
        rho = isotropic(3, 0.6)
        for _ in range(5):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u, _ = np.linalg.qr(g)
            big = np.kron(u, u.conj())
            assert np.max(np.abs(big @ rho.mat @ big.conj().T - rho.mat)) < 1e-9


def tiles_second_path():
    """Rebuild the five UPB vectors straight from their formulas."""
    z, o, t = ket(3, 0), ket(3, 1), ket(3, 2)
    s = 1 / math.sqrt(2)
    return [
        np.kron(z, s * (z - o)),
        np.kron(s * (z - o), t),
        np.kron(t, s * (o - t)),
        np.kron(s * (o - t), z),
        np.kron(z + o + t, z + o + t) / 3.0,
    ]


class TestBennettRho:
    def test_upb_orthonormality(self):
        xs = tiles_second_path()
        for i, a in enumerate(xs):
            for j, b in enumerate(xs):
                assert abs(np.vdot(a, b) - (1.0 if i == j else 0.0)) < 1e-14

    def test_matches_independent_rebuild(self):
        mat = np.eye(9, dtype=complex)
        for xi in tiles_second_path():
            mat -= np.outer(xi, xi.conj())
        assert np.max(np.abs(bennett_rho().mat - mat / 4.0)) < 1e-14

    def test_ppt_but_realignment_entangled(self):
        rho = bennett_rho()
        assert np.linalg.eigvalsh(partial_transpose(rho))[0] > -1e-12
        assert realignment_value(rho) > 1.0

    def test_built_once_and_read_only(self):
        rho = bennett_rho()
        assert bennett_rho() is rho
        assert not rho.mat.flags.writeable
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0


class TestExample1Mixture:
    def test_mixes_the_constant_states_afresh(self):
        mix = example1_mixture(0.3)
        want = 0.7 * bennett_rho().mat + 0.3 * max_entangled(3).projector().mat
        assert np.array_equal(mix.mat, want)
        assert example1_mixture(0.3) is not mix and not mix.mat.flags.writeable

    def test_endpoints(self):
        assert np.max(np.abs(example1_mixture(0.0).mat - bennett_rho().mat)) < 1e-15
        assert np.max(np.abs(example1_mixture(1.0).mat - max_entangled(3).projector().mat)) < 1e-15

    def test_detection_threshold_bracketing(self):
        det_hi, _ = detect_entanglement(example1_mixture(0.2))
        det_lo, _ = detect_entanglement(example1_mixture(0.15))
        assert det_hi and not det_lo

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            example1_mixture(-0.01)
        with pytest.raises(ValueError):
            example1_mixture(1.01)


class TestRhoA:
    def test_valid_state_at_grid(self):
        for a in (0.05, 0.236, 0.9):
            rho = rho_a(a)
            assert abs(np.trace(rho.mat).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.mat)[0] > -1e-12

    def test_realignment_peaks_near_printed_value(self):
        grid = np.arange(0.20, 0.30, 0.001)
        vals = [realignment_value(rho_a(a)) for a in grid]
        best = grid[int(np.argmax(vals))]
        assert abs(best - 0.236) < 1.5e-3
        assert max(vals) > 1.0

    def test_ppt_at_peak(self):
        # bound entangled: PPT yet realignment-positive (measured lambda_min
        # of the partial transpose is ~ -4e-18 at a = 0.236)
        rho = rho_a(0.236)
        assert np.linalg.eigvalsh(partial_transpose(rho))[0] > -1e-12
        assert abs(negativity(rho)) < 1e-12

    def test_range_enforced(self):
        for a in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                rho_a(a)


class TestExample2Mixture:
    def test_p_zero_is_rho_a(self):
        assert np.max(np.abs(example2_mixture(0.4, 0.0).mat - rho_a(0.4).mat)) < 1e-15

    def test_mixes_the_validated_rho_a(self):
        # the mixture reads the raw rho_a, which is real symmetric and so bitwise its validated Hermitian part
        for a, p in ((0.05, 0.3), (0.236, 0.01), (0.9, 0.7)):
            want = validate_density((1.0 - p) * rho_a(a).mat + p * max_entangled(3).projector().mat, Dims(3, 3))
            assert example2_mixture(a, p).mat.tobytes() == want.mat.tobytes()

    def test_tiny_admixture_detected(self):
        det, _ = detect_entanglement(example2_mixture(0.236, 0.01))
        assert det

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            example2_mixture(0.236, 1.2)
        with pytest.raises(ValueError):
            example2_mixture(1.2, 0.5)


class TestRandomStates:
    def test_deterministic_per_seed(self):
        a = random_density(Dims(3, 3), 4, seed=17)
        b = random_density(Dims(3, 3), 4, seed=17)
        assert np.array_equal(a.mat, b.mat)
        pa = random_pure(Dims(2, 3), seed=5)
        pb = random_pure(Dims(2, 3), seed=5)
        assert np.array_equal(pa.vec, pb.vec)

    def test_rank_one_is_pure(self):
        rho = random_density(Dims(2, 2), 1, seed=1)
        assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-10

    def test_full_rank_has_positive_spectrum(self):
        rho = random_density(Dims(2, 3), 6, seed=2)
        assert np.linalg.eigvalsh(rho.mat)[0] > 0.0

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            random_density(Dims(2, 2), 0, seed=0)
        with pytest.raises(ValueError):
            random_density(Dims(2, 2), 5, seed=0)

    @pytest.mark.parametrize("rank", [2.0, True, "2", None])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(ValueError, match=f"rank must be an integer, got {rank!r}"):
            random_density(Dims(2, 2), rank, seed=0)
        assert random_density(Dims(2, 2), np.int64(2), seed=0).mat.shape == (4, 4)


class TestPureFromSchmidt:
    def test_worked_examples(self):
        psi = pure_from_schmidt([1.0], 2)
        assert abs(psi.vec[0] - 1.0) < 1e-15 and np.max(np.abs(psi.vec[1:])) == 0.0
        bell = pure_from_schmidt([0.5, 0.5], 2)
        assert np.max(np.abs(bell.vec - max_entangled(2).vec)) < 1e-15

    def test_schmidt_round_trip(self):
        rng = np.random.default_rng(23)
        for d in (3, 4):
            mu = rng.dirichlet(np.ones(d))
            psi = pure_from_schmidt(mu, d)
            got = schmidt(psi).coefficients
            assert np.max(np.abs(got - np.sort(mu)[::-1])) < 1e-12

    def test_invalid_spectra_rejected(self):
        with pytest.raises(ValueError):
            pure_from_schmidt([0.6, 0.6], 2)
        with pytest.raises(ValueError):
            pure_from_schmidt([1.2, -0.2], 2)
        with pytest.raises(ValueError):
            pure_from_schmidt([0.2] * 5, 3)
        for mu in ([float("nan"), 0.5], [float("nan")], [1.0, float("nan")]):
            with pytest.raises(ValueError, match="nan"):
                pure_from_schmidt(mu, 3)

    @pytest.mark.parametrize("d", [2.0, True, 1, "2"])
    def test_d_must_be_an_integer_of_at_least_2(self, d):
        with pytest.raises(ValueError, match=f"d must be an integer >= 2, got {d!r}"):
            pure_from_schmidt([1.0], d)


# JSON values for a spec parameter: null, bools, small, huge and out-of-range integers, any
# float (NaN and inf included), floats in [0, 1], short strings (no path separator, so a
# json_file path names nothing outside the working directory) and short lists of these
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.sampled_from([2**63, -(2**63), 10**400, -(10**400)]),
    st.floats(),
    st.floats(0.0, 1.0),
    st.text(st.characters(exclude_characters="/\\"), max_size=4),
)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=6))
# d and rank: 2 to 5, as an int or an integral float, or not an integer at all; an integral
# float such as 150.0 would be read as d = 150 and allocate gigabytes
SIZES = st.one_of(st.integers(2, 5), st.integers(2, 5).map(float), st.sampled_from([2.5, "3", True, None, [3]]))
# in-domain values of the other parameters, so that some documents build
VALID = {
    "x": st.floats(0.0, 1.0),
    "p": st.floats(0.0, 1.0),
    "a": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "seed": st.integers(0, 2**70),
    "mu": st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.75, 0.0], [1, 0]]),
}


@st.composite
def spec_documents(draw):
    """A JSON state spec: a family from the table or junk (non-strings included),
    with the family's parameters, sometimes one missing or one extra; or a
    document that is not a JSON object: such a spec's pairs as a list, or a
    scalar or a list."""
    family = draw(st.one_of(st.sampled_from(sorted(_FAMILIES)), st.sampled_from(["werner", "", 3, None, ["x"], 2.5])))
    keys = set(_FAMILIES[family][0]) if isinstance(family, str) and family in _FAMILIES else set()
    keys ^= draw(st.sets(st.sampled_from(["d", "x", "seed", "mu", "junk"]), max_size=1))
    values = {k: SIZES if k in ("d", "rank") else st.one_of(VALID[k], JSON_VALUES) if k in VALID else JSON_VALUES
              for k in sorted(keys)}
    doc = {"family": family, **{k: draw(value) for k, value in values.items()}}
    return draw(st.one_of(st.just(doc), st.just([list(item) for item in doc.items()]), JSON_VALUES))


class TestStateSpec:
    def test_each_family_builds(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(to_json(isotropic(2, 0.5)))
        cases = [
            ({"family": "isotropic", "d": 3, "x": 0.3}, isotropic(3, 0.3).mat),
            ({"family": "max_entangled", "d": 2}, max_entangled(2).projector().mat),
            ({"family": "bennett_mix", "p": 0.2}, example1_mixture(0.2).mat),
            ({"family": "rho_a_mix", "a": 0.236, "p": 0.1}, example2_mixture(0.236, 0.1).mat),
            ({"family": "random_pure", "d": 2, "seed": 9}, random_pure(Dims(2, 2), 9).projector().mat),
            ({"family": "random_density", "d": 2, "rank": 3, "seed": 9}, random_density(Dims(2, 2), 3, 9).mat),
            ({"family": "random_density", "d": 3.0, "rank": 9.0, "seed": 1}, random_density(Dims(3, 3), 9, 1).mat),
            ({"family": "schmidt_pure", "mu": [0.5, 0.5], "d": 2}, pure_from_schmidt([0.5, 0.5], 2).projector().mat),
            ({"family": "json_file", "path": str(path)}, isotropic(2, 0.5).mat),
        ]
        for doc, want in cases:
            got = StateSpec.from_dict(doc).build()
            assert np.max(np.abs(got.mat - want)) < 1e-14, doc["family"]

    @pytest.mark.parametrize("doc, match", [
        ({"family": "werner", "d": 3}, "unknown family 'werner'"),
        ({"family": "isotropic", "d": 3}, "needs params"),
        ({"d": 3, "x": 0.3}, "needs a 'family' key"),
        ({"family": "isotropic", "d": 3, "x": 0.3, "p": 1}, "needs params"),
        ({"family": "random_pure", "d": 2.5, "seed": 0}, "d must be an integer"),
        ({"family": "random_density", "d": 2, "rank": 2.5, "seed": 0}, "rank must be an integer"),
        # a bool or a string is not a number, even where it would convert to one
        ({"family": "isotropic", "d": True, "x": 0.5}, "d must be an integer, got True"),
        ({"family": "isotropic", "d": 3, "x": "0.5"}, "x must be a real number, got '0.5'"),
        ({"family": "random_pure", "d": 3, "seed": True}, "seed must be an integer >= 0, got True"),
        ({"family": "random_density", "d": 3, "rank": 9, "seed": [1, 2]}, r"seed must be an integer >= 0, got \[1, 2\]"),
        ({"family": "random_pure", "d": 3, "seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"family": "schmidt_pure", "d": 2, "mu": ["0.5", "0.5"]}, "mu entry must be a real number, got '0.5'"),
        ({"family": "schmidt_pure", "d": 2, "mu": [True, False]}, "mu entry must be a real number, got True"),
        ({"family": "schmidt_pure", "d": 2, "mu": 0.5}, "mu must be a list of real numbers, got 0.5"),
        # each of these escaped _BUILD_ERRORS as a TypeError or an OverflowError
        ({"family": ["x"]}, r"unknown family \['x'\]"),
        ({"family": "random_pure", "d": 3, "seed": "abc"}, "seed must be an integer >= 0, got 'abc'"),
        ({"family": "random_pure", "d": 3, "seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"family": "isotropic", "d": 3, "x": 10**400}, "x must be a real number within the float range"),
        ({"family": "schmidt_pure", "d": 2, "mu": [10**400, 0]}, "mu entry must be a real number within"),
        ({"family": "json_file", "path": 5}, "path must be a string, got 5"),
        # a document that is not a JSON object, a list of its pairs included
        (5, "state spec must be a JSON object, got 5"),
        (None, "state spec must be a JSON object, got None"),
        ([1, 2], r"state spec must be a JSON object, got \[1, 2\]"),
        ([["family", "isotropic"], ["d", 3], ["x", 0.5]], r"state spec must be a JSON object, got \[\['family'"),
    ], ids=[
        "unknown-family", "missing-param", "no-family", "extra-param", "fractional-d", "fractional-rank",
        "bool-d", "string-x", "bool-seed", "list-seed", "negative-seed", "string-mu",
        "bool-mu", "scalar-mu", "list-family", "string-seed", "fractional-seed", "huge-x",
        "huge-mu", "int-path", "int-document", "null-document", "list-document", "pairs-document",
    ])
    def test_bad_specs_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            StateSpec.from_dict(doc).build()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec_documents())
    def test_any_document_builds_or_raises_a_build_error(self, doc):
        try:
            rho = StateSpec.from_dict(doc).build()
        except _BUILD_ERRORS:
            return
        assert isinstance(rho, DensityMatrix)


# an affine family's swept parameter and a strategy for its other parameters and in-domain values
AFFINE = {
    "isotropic": ("x", st.integers(2, 5).flatmap(
        lambda d: st.tuples(st.just({"d": d}), st.lists(st.floats(-1.0 / (d * d - 1.0), 1.0), min_size=1, max_size=9))
    )),
    "bennett_mix": ("p", st.tuples(st.just({}), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))),
    "rho_a_mix": ("p", st.tuples(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(lambda a: {"a": a}),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9),
    )),
}


class TestBroadcastBuild:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(AFFINE)).flatmap(lambda f: st.tuples(st.just(f), AFFINE[f][1])))
    def test_broadcast_stack_is_bitwise_the_per_value_matrices(self, case):
        family, (fixed, values) = case
        name = AFFINE[family][0]
        single = [StateSpec(family, {**fixed, name: v}).matrix() for v in values]
        stack, dims = StateSpec(family, {**fixed, name: values[0]}).matrix(values)
        assert dims == single[0][1] and stack.dtype == single[0][0].dtype == np.float64
        assert stack.tobytes() == np.array([mat for mat, _ in single]).tobytes()
        # the states of these families are exactly symmetric, so each is its own validated state
        assert np.array_equal(stack, stack.swapaxes(1, 2))

    @pytest.mark.parametrize("family, params, values, first, message", [
        ("bennett_mix", {"p": 0.5}, [0.2, 1.5], 1.5, "p=1.5 outside [0, 1]"),
        ("bennett_mix", {"p": 0.5}, [0.2, -0.25, 2.0, 0.5], -0.25, "p=-0.25 outside [0, 1]"),
        ("rho_a_mix", {"a": 0.5, "p": 0.5}, [0.1, math.nan, 7.0], math.nan, "p=nan outside [0, 1]"),
        ("rho_a_mix", {"a": 0.5, "p": 0.5}, [1.0151515151515151], 1.0151515151515151,
         "p=1.0151515151515151 outside [0, 1]"),
        ("isotropic", {"d": 3, "x": 0.5}, [0.2, math.nan], math.nan, "x=nan outside positivity range [-0.125, 1]"),
        ("isotropic", {"d": 3, "x": 0.5}, [1.0, -0.5, 3.0], -0.5, "x=-0.5 outside positivity range [-0.125, 1]"),
    ])
    def test_a_value_outside_the_domain_fails_the_stack_naming_that_value(self, family, params, values, first, message):
        # the stack's message names its first failing value, as that value's single build does
        with pytest.raises(ValueError) as err:
            StateSpec(family, params).matrix(values)
        assert str(err.value) == message
        with pytest.raises(ValueError) as single:
            StateSpec(family, {**params, AFFINE[family][0]: first}).matrix()
        assert str(single.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: isotropic(3, 2), "x=2 outside positivity range [-0.125, 1]"),
        (lambda: example1_mixture(np.float64(1.5)), "p=1.5 outside [0, 1]"),
        (lambda: example2_mixture(0.5, -1), "p=-1 outside [0, 1]"),
        (lambda: _isotropic(2, np.asarray(1.5)), "x=1.5 outside positivity range [-0.3333333333333333, 1]"),
    ])
    def test_a_single_value_is_named_as_given(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("family, params", [
        ("max_entangled", {"d": 3}), ("random_density", {"d": 2, "rank": 4, "seed": 0}),
    ])
    def test_only_an_affine_family_takes_values(self, family, params):
        with pytest.raises(ValueError, match="no affine parameter"):
            StateSpec(family, params).matrix([0.5])
