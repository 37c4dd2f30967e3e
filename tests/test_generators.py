import numpy as np
import pytest

from entwit.generators import (
    EmbeddedObservable,
    GeneratorPair,
    ObservableTriad,
    embed_observable,
    rotation_zyz,
    so_generators,
    subspace_projector,
    tilde_operator,
    triad_from_rotation,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_dim2_single_generator():
    gens = so_generators(2)
    assert len(gens) == 1
    pair, ell = gens[0]
    assert (pair.j, pair.k) == (0, 1)
    assert np.array_equal(ell, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_lexicographic_order_and_count():
    gens = so_generators(3)
    assert [(p.j, p.k) for p, _ in gens] == [(0, 1), (0, 2), (1, 2)]
    for dim in range(2, 7):
        assert len(so_generators(dim)) == dim * (dim - 1) // 2
    with pytest.raises(ValueError):
        so_generators(1)
    with pytest.raises(ValueError, match="dim must be an integer >= 2, got 3.0"):
        so_generators(3.0)


def test_generator_algebra_exact():
    for dim in (2, 3, 4):
        for pair, ell in so_generators(dim):
            assert np.array_equal(ell.T, -ell)
            proj = subspace_projector(pair)
            assert np.array_equal(ell @ ell.T, proj)
            assert np.array_equal(ell.T @ ell, proj)
            assert np.array_equal(proj @ proj, proj)


def test_bad_pair_rejected():
    with pytest.raises(ValueError):
        GeneratorPair(1, 1, 3)
    with pytest.raises(ValueError):
        GeneratorPair(0, 3, 3)
    with pytest.raises(ValueError):
        GeneratorPair(-1, 1, 3)
    # non-integers, bools included, are rejected here, not deep inside an index
    for j, k, dim in ((0.5, 1, 3), (0, 1.0, 3), (0, 1, 3.0), (False, True, 3), (0, 1, np.float64(3))):
        with pytest.raises(ValueError, match="must be an integer"):
            GeneratorPair(j, k, dim)
    assert GeneratorPair(np.int64(0), np.int8(1), 3).k == 1


def test_embed_z_on_qubit_is_sigma_z():
    obs = embed_observable(GeneratorPair(0, 1, 2), np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(obs.mat, SZ)


def test_embed_x_on_qutrit_pair_02():
    obs = embed_observable(GeneratorPair(0, 2, 3), np.array([1.0, 0.0, 0.0]))
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 2] = expect[2, 0] = 1.0
    assert np.array_equal(obs.mat, expect)


def test_embed_spectrum_and_hermiticity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        pair = GeneratorPair(1, 3, 4)
        obs = embed_observable(pair, a)
        assert np.max(np.abs(obs.mat - obs.mat.conj().T)) < 1e-15
        lam = np.sort(np.linalg.eigvalsh(obs.mat))
        assert np.allclose(lam, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_embed_rejects_non_unit_vector():
    with pytest.raises(ValueError):
        embed_observable(GeneratorPair(0, 1, 2), np.array([1.0, 1.0, 0.0]))


def test_embedded_triad_blocks_anticommute():
    rng = np.random.default_rng(9)
    pair = GeneratorPair(0, 2, 3)
    rows = np.ix_([pair.j, pair.k], [pair.j, pair.k])
    for _ in range(10):
        triad = triad_from_rotation(rotation_zyz(*rng.uniform(0, 2 * np.pi, 3)))
        blocks = [embed_observable(pair, triad.vector(i)).mat[rows] for i in range(3)]
        for i in range(3):
            for j in range(3):
                anti = blocks[i] @ blocks[j] + blocks[j] @ blocks[i]
                expect = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
                assert np.max(np.abs(anti - expect)) < 1e-12


def test_triad_orientation_signs():
    assert triad_from_rotation(np.eye(3)).orientation == 1
    swapped = np.eye(3)[[1, 0, 2]]
    assert triad_from_rotation(swapped).orientation == -1


def test_orientation_matches_pauli_product():
    # mu = -i (a1.sigma)(a2.sigma)(a3.sigma) must be the frame handedness
    rng = np.random.default_rng(13)
    for _ in range(50):
        rot = rotation_zyz(*rng.uniform(0, 2 * np.pi, 3))
        if rng.random() < 0.5:
            rot = rot[[1, 0, 2]]  # flip handedness half the time
        triad = triad_from_rotation(rot)
        mats = [a[0] * SX + a[1] * SY + a[2] * SZ for a in (triad.rot)]
        prod = -1j * mats[0] @ mats[1] @ mats[2]
        assert np.max(np.abs(prod - triad.orientation * np.eye(2))) < 1e-12


def test_triad_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        triad_from_rotation(np.ones((3, 3)))
    with pytest.raises(ValueError):
        ObservableTriad(np.eye(3) + 1e-6)


def test_rotation_zyz_is_proper_and_matches_composition():
    rng = np.random.default_rng(17)

    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1]])

    def ry(t):
        return np.array([[np.cos(t), 0, np.sin(t)], [0, 1, 0], [-np.sin(t), 0, np.cos(t)]])

    for _ in range(20):
        t1, t2, t3 = rng.uniform(-np.pi, np.pi, 3)
        r = rotation_zyz(t1, t2, t3)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-14
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(r - rz(t1) @ ry(t2) @ rz(t3))) < 1e-13


def test_tilde_flips_sigma_z_on_qubit():
    pair = GeneratorPair(0, 1, 2)
    obs = embed_observable(pair, np.array([0.0, 0.0, 1.0]))
    tilde = tilde_operator(obs)
    # oracle: explicit product [[0,1],[-1,0]] sz [[0,-1],[1,0]]
    oracle = np.array([[0.0, 1.0], [-1.0, 0.0]]) @ SZ @ np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(tilde, oracle)
    assert np.array_equal(tilde, -SZ)


def test_tilde_support_spectrum_hermiticity():
    rng = np.random.default_rng(19)
    pair = GeneratorPair(1, 2, 4)
    outside = [i for i in range(4) if i not in (pair.j, pair.k)]
    for _ in range(10):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        obs = embed_observable(pair, a)
        tilde = tilde_operator(obs)
        assert np.max(np.abs(tilde - tilde.conj().T)) < 1e-12
        assert np.max(np.abs(tilde[outside, :])) == 0.0
        assert np.max(np.abs(tilde[:, outside])) == 0.0
        lam = np.sort(np.linalg.eigvalsh(tilde))
        assert np.allclose(lam, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_nan_directions_and_frames_are_rejected():
    # every comparison with NaN is False, so the unit checks are written to fail on it
    with pytest.raises(ValueError, match="unit 3-vector"):
        embed_observable(GeneratorPair(0, 1, 2), np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="orthonormal"):
        ObservableTriad(np.full((3, 3), np.nan))


def test_nan_rotation_is_rejected_before_the_svd():
    with pytest.raises(ValueError, match="expected an orthogonal 3x3 matrix"):
        triad_from_rotation(np.full((3, 3), np.nan))
    bad = np.eye(3)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="expected an orthogonal 3x3 matrix"):
        triad_from_rotation(bad)


def test_subspace_projector_placement():
    proj = subspace_projector(GeneratorPair(0, 1, 3))
    assert np.array_equal(proj, np.diag([1.0, 1.0, 0.0]))


def test_embedded_observable_is_plain_value():
    pair = GeneratorPair(0, 1, 2)
    obs = embed_observable(pair, np.array([0.0, 0.0, 1.0]))
    assert isinstance(obs, EmbeddedObservable)
    assert obs.pair == pair
