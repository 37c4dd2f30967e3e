"""Subspace compression, witness values, closed-form maxima, shot sampling.

The load-bearing check is the reduction identity: the full-matrix witness
evaluated through embedded tilde operators, divided by the subspace weight,
must coincide with the plain two-qubit witness computed independently on the
compressed state.  Everything else (closed forms, optimizer, detection)
leans on that equivalence.
"""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwit import search, witness
from entwit.generators import (
    GeneratorPair,
    PAULI,
    generator_matrix,
    rotation_zyz,
    so_generators,
    triad_from_rotation,
)
from entwit.qstate import (
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    NotHermitianError,
    StateValidationError,
    negativity,
    partial_transpose,
    partial_transpose_mat,
    validate_density,
)
from entwit.scan import _bell_ratios
from entwit.search import OptimizerConfig, _bell_fg, _nonlinear_fg, optimize_settings
from entwit.states import bennett_rho, example1_mixture, random_density, rho_a
from entwit.witness import (
    BellSettings,
    CSV_HEADER,
    TAU_C,
    TAU_DETECT,
    WitnessSettings,
    _PURITY_CERT,
    _Columns,
    _bell_d,
    _correlations,
    _gather,
    _pair_position,
    _pair_rows,
    _reports,
    _sigma_real,
    _violations,
    bell_max,
    bell_value,
    best_report,
    detect_entanglement,
    estimate_mean_shots,
    nonlinear_max,
    nonlinear_normalized,
    nonlinear_value,
    project_state,
    reports_to_csv,
    subspace_report,
    subspace_reports,
)

ID2 = np.eye(2, dtype=complex)


def ket(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def max_ent(d):
    v = sum(np.kron(ket(d, i), ket(d, i)) for i in range(d)) / math.sqrt(d)
    return validate_density(np.outer(v, v.conj()), Dims(d, d))


def isotropic(d, x):
    mat = x * max_ent(d).mat + (1.0 - x) * np.eye(d * d) / (d * d)
    return validate_density(mat, Dims(d, d))


def rand_density(rng, m, n, rank=None):
    d = m * n
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return validate_density(mat, Dims(m, n))


def all_pairs_index(dims):
    """Oracle for the pair order of _pair_rows: (alpha.j, alpha.k, beta.j, beta.k) of every pair, in so_generators order."""
    return np.array([(a.j, a.k, b.j, b.k) for a, _ in so_generators(dims.m) for b, _ in so_generators(dims.n)])


def rand_triads(rng, alpha, beta, improper=False):
    ra = rotation_zyz(*rng.uniform(0, 2 * np.pi, 3))
    rb = rotation_zyz(*rng.uniform(0, 2 * np.pi, 3))
    if improper:
        # flip one row on each side; orientations stay equal
        ra = ra * np.array([[1.0], [1.0], [-1.0]])
        rb = rb * np.array([[1.0], [1.0], [-1.0]])
    return WitnessSettings(alpha, beta, triad_from_rotation(ra), triad_from_rotation(rb))


def pauli_dot(vec):
    return vec[0] * PAULI[0] + vec[1] * PAULI[1] + vec[2] * PAULI[2]


def two_qubit_nonlinear(rho_ab_mat, triad_a, triad_b):
    """Plain two-qubit witness from raw Pauli algebra, no embeddings."""
    a = [pauli_dot(triad_a.vector(i)) for i in range(3)]
    b = [pauli_dot(triad_b.vector(i)) for i in range(3)]
    corr = np.trace(rho_ab_mat @ (np.kron(a[0], b[0]) + np.kron(a[1], b[1]))).real
    summ = np.trace(rho_ab_mat @ (np.kron(a[2], ID2) + np.kron(ID2, b[2]))).real
    last = np.trace(rho_ab_mat @ np.kron(a[2], b[2])).real
    return math.hypot(corr, summ) - last


def two_qubit_chsh(rho_ab_mat, a1, a2, b1, b2):
    op = (
        np.kron(pauli_dot(a1), pauli_dot(b1))
        + np.kron(pauli_dot(a1), pauli_dot(b2))
        + np.kron(pauli_dot(a2), pauli_dot(b1))
        - np.kron(pauli_dot(a2), pauli_dot(b2))
    )
    return np.trace(rho_ab_mat @ op).real


# Scalar negated objectives of the settings search, one start at a time:
# the reference for the batched objectives and their gradients.
def _nonlinear_objective(t, r, s):
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t.tolist()
    r0, r1, r2 = r.tolist()
    s0, s1, s2 = s.tolist()
    cos, sin, hypot = math.cos, math.sin, math.hypot

    def neg(x):
        ca, sa = cos(x[0]), sin(x[0])
        cb, sb = cos(x[1]), sin(x[1])
        cg, sg = cos(x[2]), sin(x[2])
        a10, a11, a12 = ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb
        a20, a21, a22 = sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb
        a30, a31, a32 = -sb * cg, sb * sg, cb
        ca, sa = cos(x[3]), sin(x[3])
        cb, sb = cos(x[4]), sin(x[4])
        cg, sg = cos(x[5]), sin(x[5])
        b10, b11, b12 = ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb
        b20, b21, b22 = sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb
        b30, b31, b32 = -sb * cg, sb * sg, cb
        u0 = a10 * t00 + a11 * t10 + a12 * t20
        u1 = a10 * t01 + a11 * t11 + a12 * t21
        u2 = a10 * t02 + a11 * t12 + a12 * t22
        v0 = a20 * t00 + a21 * t10 + a22 * t20
        v1 = a20 * t01 + a21 * t11 + a22 * t21
        v2 = a20 * t02 + a21 * t12 + a22 * t22
        w0 = a30 * t00 + a31 * t10 + a32 * t20
        w1 = a30 * t01 + a31 * t11 + a32 * t21
        w2 = a30 * t02 + a31 * t12 + a32 * t22
        corr = u0 * b10 + u1 * b11 + u2 * b12 + v0 * b20 + v1 * b21 + v2 * b22
        summ = a30 * r0 + a31 * r1 + a32 * r2 + b30 * s0 + b31 * s1 + b32 * s2
        last = w0 * b30 + w1 * b31 + w2 * b32
        return -(hypot(corr, summ) - last)

    return neg


def _bell_objective(t, c):
    """Minus c times the CHSH value maximized over a1 and a2 at the directions b1
    and b2 of spherical angles x = (theta1, phi1, theta2, phi2):
    -c (|T(b1 + b2)| + |T(b1 - b2)|)."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t.tolist()
    cos, sin = math.cos, math.sin

    def neg(x):
        st, ct = sin(x[0]), cos(x[0])
        b10, b11, b12 = st * cos(x[1]), st * sin(x[1]), ct
        st, ct = sin(x[2]), cos(x[2])
        b20, b21, b22 = st * cos(x[3]), st * sin(x[3]), ct
        norms = []
        for u0, u1, u2 in ((b10 + b20, b11 + b21, b12 + b22), (b10 - b20, b11 - b21, b12 - b22)):
            norms.append(math.sqrt(
                (t00 * u0 + t01 * u1 + t02 * u2) ** 2
                + (t10 * u0 + t11 * u1 + t12 * u2) ** 2
                + (t20 * u0 + t21 * u1 + t22 * u2) ** 2
            ))
        return -(norms[0] + norms[1]) * c

    return neg


# The settings search as it was written before it climbed in rotation frames:
# ZYZ and spherical angles with their own gradients, einsum row dots and
# boolean-mask updates.  It is the reference for the shipped _ascend,
# _nonlinear_fg and _bell_fg, which climb in a chart re-centred at every
# accepted point and must reach the same best values in fewer evaluations.
# The Bell oracle climbs the same reduced objective as _bell_fg, A's
# directions in closed form, over the spherical angles of b1 and b2.
def _oracle_dot(u, v):
    return np.einsum("ri,ri->r", u, v)


def _oracle_zyz_gradient(ang, rot, g):
    rows = g @ np.swapaxes(rot, -1, -2)
    cols = np.swapaxes(g, -1, -2) @ rot
    ca, sa = np.cos(ang[..., 0]), np.sin(ang[..., 0])
    out = np.empty_like(ang)
    out[..., 0] = rows[..., 1, 0] - rows[..., 0, 1]
    out[..., 1] = ca * (rows[..., 0, 2] - rows[..., 2, 0]) + sa * (rows[..., 1, 2] - rows[..., 2, 1])
    out[..., 2] = cols[..., 0, 1] - cols[..., 1, 0]
    return out


def _oracle_nonlinear_fg(x, t, r, s):
    ang = x.reshape(len(x), 2, 3)
    rot = rotation_zyz(ang[..., 0], ang[..., 1], ang[..., 2])
    a, b = rot[:, 0], rot[:, 1]
    at = a @ t
    bt = b @ t.T
    corr = np.einsum("rkj,rkj->r", a[:, :2], bt[:, :2])
    summ = a[:, 2] @ r + b[:, 2] @ s
    last = _oracle_dot(a[:, 2], bt[:, 2])
    h = np.hypot(corr, summ)
    safe = np.where(h > 0.0, h, 1.0)
    w = np.stack([corr / safe, corr / safe, -np.ones_like(h)], axis=1)[:, None, :, None]
    g = np.stack([bt, at], axis=1) * w
    g[:, :, 2] += (summ / safe)[:, None, None] * np.stack([r, s])
    return h - last, _oracle_zyz_gradient(ang, rot, g).reshape(x.shape)


def _oracle_sph(theta, phi):
    st = np.sin(theta)
    v = np.empty(np.broadcast(theta, phi).shape + (3,))
    v[..., 0] = st * np.cos(phi)
    v[..., 1] = st * np.sin(phi)
    v[..., 2] = np.cos(theta)
    return v


def _oracle_bell_fg(x, t):
    th, ph = x[:, 0::2], x[:, 1::2]
    v = _oracle_sph(th, ph)
    ct, st, cp, sp = v[..., 2], np.sin(th), np.cos(ph), np.sin(ph)
    xp, xm = (v[:, 0] + v[:, 1]) @ t.T, (v[:, 0] - v[:, 1]) @ t.T
    np_, nm = np.sqrt(_oracle_dot(xp, xp)), np.sqrt(_oracle_dot(xm, xm))
    up = xp / np.where(np_ > 0.0, np_, 1.0)[:, None]
    um = xm / np.where(nm > 0.0, nm, 1.0)[:, None]
    dv = np.stack([(up + um) @ t, (up - um) @ t], axis=1)
    grad = np.empty_like(x)
    grad[:, 0::2] = ct * (cp * dv[..., 0] + sp * dv[..., 1]) - st * dv[..., 2]
    grad[:, 1::2] = st * (cp * dv[..., 1] - sp * dv[..., 0])
    return np_ + nm, grad


def _oracle_ascend(fg, x, step_tol, max_evals):
    x = np.array(x, dtype=float)
    f, g = fg(x)
    evals = 1
    eye = np.eye(x.shape[1])
    hinv = np.broadcast_to(eye, (len(x),) + eye.shape).copy()
    p, step = g.copy(), np.ones(len(x))
    active = np.abs(g).max(axis=1) > search._GRAD_TOL
    while active.any() and evals < max_evals:
        trial = x + step[:, None] * p
        ft, gt = fg(trial)
        evals += 1
        ok = active & (ft >= f + search._ARMIJO * step * _oracle_dot(p, g))
        back = active & ~ok
        step[back] *= 0.5
        active &= ~(back & (step * np.abs(p).max(axis=1) < step_tol))
        if not ok.any():
            continue
        sx, y = trial - x, g - gt
        sy = _oracle_dot(sx, y)
        inv_sy = np.divide(1.0, sy, out=np.zeros_like(sy), where=ok & (sy > 0.0))
        hy = np.einsum("rij,rj->ri", hinv, y)
        hinv -= inv_sy[:, None, None] * (sx[:, :, None] * hy[:, None, :] + hy[:, :, None] * sx[:, None, :])
        hinv += (inv_sy + inv_sy**2 * _oracle_dot(y, hy))[:, None, None] * sx[:, :, None] * sx[:, None, :]
        x[ok], f[ok], g[ok] = trial[ok], ft[ok], gt[ok]
        p[ok], step[ok] = np.einsum("rij,rj->ri", hinv[ok], g[ok]), 1.0
        active &= ~(ok & ((np.abs(sx).max(axis=1) < step_tol) | (np.abs(g).max(axis=1) <= search._GRAD_TOL)))
    return x, f


def _zyz_frames(x):
    """The two triads of ZYZ angle rows x (R, 6), as optimize_settings starts them."""
    ang = x.reshape(len(x), 2, 3)
    return rotation_zyz(ang[..., 0], ang[..., 1], ang[..., 2])


def _spherical_frames(x):
    """The frames of spherical angle rows x (R, 2k), pairs (theta, phi), whose
    third rows are the directions, as optimize_settings starts them."""
    ang = x.reshape(len(x), -1, 2)
    return np.swapaxes(rotation_zyz(ang[..., 1], ang[..., 0], 0.0), -1, -2)


def _oracle_expm(w):
    """exp([w]x) of rotation vectors w (..., 3) by its Taylor series, summed to 60 terms."""
    cross = np.zeros(w.shape[:-1] + (3, 3))
    cross[..., 0, 1], cross[..., 0, 2], cross[..., 1, 2] = -w[..., 2], w[..., 1], -w[..., 0]
    cross -= np.swapaxes(cross, -1, -2)
    term = out = np.broadcast_to(np.eye(3), cross.shape)
    for k in range(1, 60):
        term = term @ cross / k
        out = out + term
    return out


class TestProjection:
    def test_max_entangled_matched_subspace(self):
        rho = max_ent(3)
        p = project_state(rho, GeneratorPair(0, 1, 3), GeneratorPair(0, 1, 3))
        assert abs(p.c - 2.0 / 3.0) < 1e-12
        # the compressed state is again maximally entangled
        assert abs(negativity(p.rho_ab) - 1.0) < 1e-12

    def test_empty_subspace_is_a_value(self):
        mat = np.zeros((6, 6), dtype=complex)
        mat[2, 2] = 1.0  # |0,2><0,2| on 2x3
        rho = validate_density(mat, Dims(2, 3))
        p = project_state(rho, GeneratorPair(0, 1, 2), GeneratorPair(0, 1, 3))
        assert p.empty and p.rho_ab is None and p.c == 0.0

    def test_block_against_full_sandwich(self):
        # oracle: form (L (x) L) rho (L (x) L)^dag as full 12x12 matrices and
        # slice, instead of the 4x4 shortcut
        rng = np.random.default_rng(11)
        rho = rand_density(rng, 3, 4)
        for alpha, la in so_generators(3):
            for beta, lb in so_generators(4):
                ll = np.kron(la, lb)
                sigma = ll @ rho.mat @ ll.conj().T
                idx = [
                    alpha.j * 4 + beta.j,
                    alpha.j * 4 + beta.k,
                    alpha.k * 4 + beta.j,
                    alpha.k * 4 + beta.k,
                ]
                blk = sigma[np.ix_(idx, idx)]
                p = project_state(rho, alpha, beta)
                assert np.max(np.abs(p.rho_ab.mat * p.c - blk)) < 1e-12
                off = np.delete(np.delete(sigma, idx, axis=0), idx, axis=1)
                assert np.max(np.abs(off)) < 1e-12

    def test_weights_sum_to_dimension_count(self):
        rng = np.random.default_rng(5)
        for m, n in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            rho = rand_density(rng, m, n)
            total = sum(r.c for r in subspace_reports(rho))
            assert abs(total - (m - 1) * (n - 1)) < 1e-10

    def test_dims_mismatch_rejected(self):
        rho = max_ent(3)
        with pytest.raises(ValueError):
            project_state(rho, GeneratorPair(0, 1, 2), GeneratorPair(0, 1, 3))

    def test_mean_values_reject_pairs_of_other_dims(self):
        # a 4-dim pair on a 3x3 state used to fail inside numpy's matmul
        rho, p3, p4 = max_ent(3), GeneratorPair(0, 1, 3), GeneratorPair(0, 1, 4)
        e, triad = np.array([1.0, 0.0, 0.0]), triad_from_rotation(np.eye(3))
        for alpha, beta in ((p4, p3), (p3, p4)):
            with pytest.raises(ValueError, match="pair dims .* do not match state dims"):
                bell_value(rho, BellSettings(alpha, beta, e, e, e, e))
            with pytest.raises(ValueError, match="pair dims .* do not match state dims"):
                bell_value(rho, WitnessSettings(alpha, beta, triad, triad))
            with pytest.raises(ValueError, match="pair dims .* do not match state dims"):
                nonlinear_value(rho, WitnessSettings(alpha, beta, triad, triad))


class TestRealArithmetic:
    """An exactly real state is stored in float64, so its compression and its
    settings search run in real arithmetic.  They agree with the complex path,
    taken by a DensityMatrix that holds the same matrix as complex128."""

    STATES = {"tiles": bennett_rho, "rho_a": lambda: rho_a(0.3), "bennett_mix": lambda: example1_mixture(0.4)}
    PAIRS = [(GeneratorPair(0, 1, 3), GeneratorPair(0, 1, 3)), (GeneratorPair(0, 2, 3), GeneratorPair(1, 2, 3))]

    def real_and_complex(self, name):
        rho = self.STATES[name]()
        assert rho.mat.dtype == np.float64
        return rho, DensityMatrix(rho.dims, rho.mat.astype(np.complex128))

    @pytest.mark.parametrize("name", STATES)
    def test_projection_matches_the_complex_path(self, name):
        rho, twin = self.real_and_complex(name)
        for alpha, _ in so_generators(3):
            for beta, _ in so_generators(3):
                p, q = project_state(rho, alpha, beta), project_state(twin, alpha, beta)
                assert p.c == q.c and p.empty == q.empty
                if not p.empty:  # the block of the complex path is exactly real too, so both are stored real
                    assert np.max(np.abs(p.rho_ab.mat - q.rho_ab.mat)) <= 1e-15

    @pytest.mark.parametrize("kind", ["nonlinear", "bell"])
    @pytest.mark.parametrize("name", ["tiles", "rho_a"])
    def test_settings_search_matches_the_complex_path(self, name, kind):
        rho, twin = self.real_and_complex(name)
        for alpha, beta in self.PAIRS:
            _, value = optimize_settings(rho, alpha, beta, kind, TestOptimizer.CFG)
            _, twin_value = optimize_settings(twin, alpha, beta, kind, TestOptimizer.CFG)
            assert abs(value - twin_value) <= 1e-9


class TestKernel:
    """The batched kernel against a per-pair oracle that forms each generator
    sandwich as a full-size matrix product and solves every block on its own.

    The report figures do not change under a local unitary on a block, so a
    wrong basis order or sign in the gather shows only in rho_ab."""

    @staticmethod
    def oracle(rho, alpha, beta):
        n = rho.dims.n
        ll = np.kron(generator_matrix(alpha), generator_matrix(beta))
        idx = [alpha.j * n + beta.j, alpha.j * n + beta.k, alpha.k * n + beta.j, alpha.k * n + beta.k]
        blk = (ll @ rho.mat @ ll.T)[np.ix_(idx, idx)]
        c = np.trace(blk).real
        if c <= TAU_C:
            return max(c, 0.0), 0.0, 0.0, 1.0, None
        norm = blk / c
        pt = norm.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        lam = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0]
        t = np.array([[np.trace(norm @ np.kron(PAULI[i], PAULI[j])).real for j in range(3)] for i in range(3)])
        sv = np.linalg.svd(t, compute_uv=False)
        return c, lam, c * 2.0 * math.hypot(sv[0], sv[1]), 1.0 - 4.0 * lam, norm

    @pytest.mark.parametrize(
        "m, n, rank, support, stride",
        [
            (2, 2, 4, None, 1),
            (3, 3, 2, None, 1),
            (3, 5, 15, None, 1),
            (5, 4, 20, None, 1),
            (3, 4, 3, [0, 1, 5], 1),
            (6, 12, 72, None, 11),  # every 11th of the 990 pairs
            (12, 12, 144, None, 43),  # every 43rd of the 4356 pairs
        ],
    )
    def test_reports_match_per_pair_oracle(self, m, n, rank, support, stride):
        rng = np.random.default_rng(100 * m + n)
        mat = rand_density(rng, m, n, rank).mat
        if support is not None:  # zero rows and columns: some subspaces are empty
            keep = np.isin(np.arange(m * n), support)
            mat = mat * np.outer(keep, keep)
            mat /= np.trace(mat).real
        rho = validate_density(mat, Dims(m, n))
        reports = subspace_reports(rho)
        assert [(r.alpha, r.beta) for r in reports] == [
            (a, b) for a, _ in so_generators(m) for b, _ in so_generators(n)
        ]
        for r in reports[::stride]:
            c, lam, bmax, nmax, norm = self.oracle(rho, r.alpha, r.beta)
            want = (c, lam, bmax, nmax, nmax - 1.0, max(0.0, nmax - 1.0))
            single = subspace_report(rho, r.alpha, r.beta)
            for got in (r, single):
                fields = (got.c, got.lambda_min, got.bell_max, got.nonlinear_max, got.d, got.x)
                assert np.max(np.abs(np.subtract(fields, want))) < 1e-12
            rho_ab = project_state(rho, r.alpha, r.beta).rho_ab
            assert (rho_ab is None) == (norm is None)
            if norm is not None:
                assert np.max(np.abs(rho_ab.mat - norm)) < 1e-12
        if support is not None:
            assert any(r.c == 0.0 and r.nonlinear_max == 1.0 for r in reports)

    def test_subspace_reports_read_the_cached_index(self, monkeypatch):
        # the kernel gets every pair (no positions), and no single-pair position is computed
        seen, real = [], witness._reports

        def spy(stack, dims, cols=slice(None)):
            seen.append((dims, cols))
            return real(stack, dims, cols)

        monkeypatch.setattr(witness, "_reports", spy)
        monkeypatch.setattr(witness, "_pair_position", lambda *args: pytest.fail("_pair_position called"))
        rho = rand_density(np.random.default_rng(5), 3, 4)
        reports = subspace_reports(rho)
        assert seen == [(rho.dims, slice(None))]
        keys = [[r.alpha.j, r.alpha.k, r.beta.j, r.beta.k] for r in reports]
        assert keys == all_pairs_index(rho.dims).tolist()
        assert all(type(v) is int for key in keys for v in key)  # Python ints, so the rows serialize to JSON
        assert json.loads(json.dumps(keys)) == keys
        # the rows share one GeneratorPair per local pair
        assert len({id(r.alpha) for r in reports}) == 3 and len({id(r.beta) for r in reports}) == 6

    def test_pair_rows_are_built_once_and_read_only(self):
        rows = _pair_rows(Dims(3, 4))
        assert _pair_rows(Dims(3, 4)) is rows
        assert not rows.flags.writeable and rows.flags.c_contiguous
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        # each pair's corner rows (ja jb), (ja kb), (ka jb), (ka kb) in the state, n = 4
        ja, ka, jb, kb = all_pairs_index(Dims(3, 4)).T
        assert rows.tolist() == np.stack([4 * ja + jb, 4 * ja + kb, 4 * ka + jb, 4 * ka + kb]).tolist()

    def test_correlations_are_bitwise_the_pauli_table_formula(self):
        # the table is built on first use, once, read-only; the correlations of complex and
        # real blocks are bitwise one matmul with the table of the Pauli products,
        # rebuilt here: rows 2(4a + b) and 2(4a + b) + 1, column 4i + j, hold Re and -Im of
        # entry (b, a) of sigma_i (x) sigma_j
        table = _sigma_real()
        assert _sigma_real() is table and not table.flags.writeable and table.shape == (32, 16)
        sig = [np.eye(2), *PAULI]
        s = np.array([[np.kron(a, b) for b in sig] for a in sig]).transpose(3, 2, 0, 1).reshape(16, 16)
        want = np.stack([s.real, -s.imag], axis=1).reshape(32, 16)
        assert table.tobytes() == want.tobytes()
        blk = rand_density(np.random.default_rng(3), 3, 4).mat[:4, :4]
        for x in (blk, blk.real.copy()):
            flat = x.reshape(-1, 16)
            raw = flat.view(np.float64) @ want if np.iscomplexobj(x) else flat @ want[0::2]
            assert _correlations(x).tobytes() == raw.reshape(4, 4).tobytes()
            assert _correlations(np.stack([x, 2.0 * x])).tobytes() == np.stack([raw, 2.0 * raw]).reshape(2, 4, 4).tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 36), st.integers(0, 2**32 - 1))
    def test_single_pair_queries_read_their_row_of_the_pair_table(self, m, n, rank, seed):
        # a pair's position in _pair_rows is its so_generators position, and the single-pair
        # report and weight are bitwise its row of the all-pairs report
        rho = rand_density(np.random.default_rng(seed), m, n, min(rank, m * n))
        reports = subspace_reports(rho)
        pairs = [(a, b) for a, _ in so_generators(m) for b, _ in so_generators(n)]
        assert [(r.alpha, r.beta) for r in reports] == pairs
        for k, (alpha, beta) in enumerate(pairs):
            assert _pair_position(rho.dims, alpha, beta) == k
            single = subspace_report(rho, alpha, beta)
            for name in witness._FIGURES:
                assert repr(getattr(single, name)) == repr(getattr(reports[k], name)), name
            assert repr(project_state(rho, alpha, beta).c) == repr(reports[k].c)
        # every single-pair entry point rejects a pair of other dims, in either slot
        alpha, beta = pairs[0]
        e, triad = np.array([1.0, 0.0, 0.0]), triad_from_rotation(np.eye(3))
        wrong = [(GeneratorPair(0, 1, m + 1), beta), (alpha, GeneratorPair(0, 1, n + 1))]
        if m != n:
            wrong.append((GeneratorPair(0, 1, n), GeneratorPair(0, 1, m)))
        for a, b in wrong:
            calls = [
                lambda: project_state(rho, a, b),
                lambda: subspace_report(rho, a, b),
                lambda: bell_max(rho, a, b),
                lambda: nonlinear_max(rho, a, b),
                lambda: optimize_settings(rho, a, b, "nonlinear", OptimizerConfig(restarts=1)),
                lambda: optimize_settings(rho, a, b, "bell", OptimizerConfig(restarts=1)),
                lambda: nonlinear_normalized(rho, WitnessSettings(a, b, triad, triad)),
                lambda: nonlinear_value(rho, WitnessSettings(a, b, triad, triad)),
                lambda: bell_value(rho, WitnessSettings(a, b, triad, triad)),
                lambda: bell_value(rho, BellSettings(a, b, e, e, e, e)),
            ]
            for call in calls:
                with pytest.raises(ValueError, match=r"pair dims \(\d,\d\) do not match state dims"):
                    call()

    @pytest.mark.parametrize("m, n, with_empty", [(3, 3, False), (4, 4, False), (3, 5, False), (3, 4, True)])
    def test_stacked_columns_equal_per_state_columns(self, m, n, with_empty):
        rng = np.random.default_rng(7 * m + n)
        states = [rand_density(rng, m, n, rank) for rank in (1, 2, m * n, m * n)]
        if with_empty:  # supported on |00>, |01>, |12>: most subspaces are empty
            keep = np.isin(np.arange(m * n), [0, 1, n + 2])
            mat = rand_density(rng, m, n).mat * np.outer(keep, keep)
            states.insert(1, validate_density(mat / np.trace(mat).real, Dims(m, n)))
        npairs = _pair_rows(Dims(m, n)).shape[1]
        stacked = _reports(np.stack([rho.mat for rho in states]), Dims(m, n))
        for k, rho in enumerate(states):
            single = _reports(rho.mat[None], Dims(m, n))
            for name in _Columns._fields:
                got, want = getattr(stacked, name), getattr(single, name)
                assert got.shape == (len(states), npairs) and want.shape == (1, npairs)
                assert np.array_equal(got[k], want[0]), name
            # the columns are the rows subspace_reports builds
            reports = subspace_reports(rho)
            assert [r.c for r in reports] == stacked.c[k].tolist()
            assert [r.bell_max for r in reports] == stacked.bell_max[k].tolist()
            assert [r.nonlinear_max for r in reports] == stacked.nonlinear_max[k].tolist()
        if with_empty:
            assert not stacked.live[1].all() and stacked.live[0].all()
            assert np.all(stacked.bell_max[1][~stacked.live[1]] == 0.0)


    @pytest.mark.parametrize("m, n, with_empty", [(3, 3, False), (4, 4, False), (3, 5, False), (3, 4, True)])
    def test_bell_ratios_solve_only_the_pairs_that_can_hold_the_maximum(self, m, n, with_empty):
        # the largest bell_max / c of each state is the all-pairs one to the last bit; a solved pair
        # reads its own ratio bitwise, a skipped one an upper bound below its state's maximum
        rng = np.random.default_rng(5 * m + n)
        states = [rand_density(rng, m, n, rank) for rank in (1, 2, m * n)] + [isotropic(m, 0.4)] * (m == n)
        if with_empty:  # supported on |00>, |01>, |12>: most subspaces are empty
            keep = np.isin(np.arange(m * n), [0, 1, n + 2])
            mat = rand_density(rng, m, n).mat * np.outer(keep, keep)
            states.append(validate_density(mat / np.trace(mat).real, Dims(m, n)))
        stack, dims = np.stack([rho.mat for rho in states]), Dims(m, n)
        cols = _reports(stack, dims)
        blk, c, live = _gather(stack, dims)
        ratio = _bell_ratios(blk, c, live)
        exact = np.divide(cols.bell_max, c, out=np.zeros_like(c), where=live)
        assert np.array_equal(_bell_d(ratio), _bell_d(exact))
        solved, top = ratio == exact, np.broadcast_to(ratio.max(axis=1, keepdims=True), ratio.shape)
        assert np.all(ratio[~solved] >= exact[~solved] * (1.0 - 1e-12)) and np.all(ratio[~solved] < top[~solved])
        assert np.all(ratio[~live] == 0.0) and solved.sum() < live.sum()


def unit_trace_hermitian(rng, spectrum):
    """U diag(spectrum) U^dag for a random unitary U; Hermitian to the last bit."""
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    x = (u * np.asarray(spectrum)) @ u.conj().T
    return (x + x.conj().T) / 2.0


@st.composite
def certificate_cases(draw):
    """Hermitian 4x4 matrices of unit trace, PSD or not: either I/4 plus a
    traceless part of Frobenius norm s (purity 1/4 + s^2, crossing the
    threshold near s = 0.289), or one eigenvalue t near 0 with the other
    three near (1 - t)/3, which puts the purity within ~1e-8 of 1/3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        h -= np.trace(h).real / 4.0 * np.eye(4)
        return np.eye(4) / 4.0 + draw(st.floats(0.0, 0.6)) * h / np.linalg.norm(h)
    t = draw(st.floats(-1e-8, 1e-8))
    a, b = draw(st.floats(-1e-5, 1e-5)), draw(st.floats(-1e-5, 1e-5))
    rest = (1.0 - t) / 3.0
    return unit_trace_hermitian(rng, [t, rest + a, rest + b, rest - a - b])


def certified(x):
    """Whether the bound settles the one block of x, read as a 2x2 state,
    without gathering it: that block is x itself up to signs, so it has x's
    purity."""
    with mock.patch.object(witness, "_blocks", wraps=witness._blocks) as gather:
        _violations(np.asarray(x, dtype=complex)[None], Dims(2, 2))
    return not gather.called


class TestPurityCertificate:
    """A block whose purity lies below _PURITY_CERT has a positive definite
    partial transpose, so the bound neither gathers nor solves it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(certificate_cases())
    def test_certified_blocks_have_positive_partial_transposes(self, x):
        purity = float(np.sum(np.abs(x) ** 2))
        is_certified = certified(x)
        assert is_certified == (purity < _PURITY_CERT)
        # the lemma, p >= lambda^2 + (1 - lambda)^2/3, holds for X and for its
        # partial transpose, which has X's purity
        for y in (x, partial_transpose_mat(x, 2, 2)):
            lam = np.linalg.eigvalsh(y)[0]
            assert purity >= lam**2 + (1.0 - lam) ** 2 / 3.0 - 1e-12
            if is_certified:
                assert lam > 0.0

    def test_threshold_edge(self):
        # with t = 3e-9 the purity is 1/3 - 2e-9 (certified); with t = 1e-9
        # it is 1/3 - 6.7e-10, inside the margin (solved)
        rng = np.random.default_rng(5)
        for t, want in ((3e-9, True), (1e-9, False), (0.0, False), (-1e-9, False)):
            x = unit_trace_hermitian(rng, [t] + [(1.0 - t) / 3.0] * 3)
            assert certified(x) is want, t
        assert certified(np.eye(4) / 4.0)
        assert not certified(max_ent(2).mat)


def c_coefficient(rho: DensityMatrix, alpha: GeneratorPair, beta: GeneratorPair) -> float:
    """Subspace weight through the partially transposed state.

    Tr((L (x) L) rho^{T_A} (L (x) L)) equals project_state's c because the
    double sandwich collapses to the diagonal projector P_alpha (x) P_beta,
    which the partial transpose leaves fixed.  Kept as a genuinely independent
    full-matrix code path for cross-checks.
    """
    _pair_position(rho.dims, alpha, beta)
    ll = np.kron(generator_matrix(alpha), generator_matrix(beta))
    return float(np.real(np.trace(ll @ partial_transpose(rho) @ ll)))


class TestCCoefficient:
    def test_matches_projection_weight(self):
        rng = np.random.default_rng(23)
        for m, n in [(2, 3), (3, 3), (3, 4)]:
            rho = rand_density(rng, m, n)
            for alpha, _ in so_generators(m):
                for beta, _ in so_generators(n):
                    assert abs(c_coefficient(rho, alpha, beta) - project_state(rho, alpha, beta).c) < 1e-12


class TestReductionIdentity:
    def test_full_matrix_equals_two_qubit(self):
        rng = np.random.default_rng(101)
        dims = [(2, 2), (2, 3), (3, 3), (3, 4)]
        for trial in range(500):
            m, n = dims[trial % len(dims)]
            rho = rand_density(rng, m, n)
            alphas = so_generators(m)
            betas = so_generators(n)
            alpha = alphas[rng.integers(len(alphas))][0]
            beta = betas[rng.integers(len(betas))][0]
            s = rand_triads(rng, alpha, beta, improper=bool(trial % 7 == 0))
            p = project_state(rho, alpha, beta)
            lhs = two_qubit_nonlinear(p.rho_ab.mat, s.triad_a, s.triad_b)
            rhs = nonlinear_normalized(rho, s)
            assert abs(lhs - rhs) < 1e-9

    def test_bell_value_reduces_the_same_way(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            rho = rand_density(rng, 3, 3)
            alpha = GeneratorPair(*sorted(rng.choice(3, 2, replace=False)), 3)
            beta = GeneratorPair(*sorted(rng.choice(3, 2, replace=False)), 3)
            vecs = rng.normal(size=(4, 3))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            s = BellSettings(alpha, beta, *vecs)
            p = project_state(rho, alpha, beta)
            lhs = two_qubit_chsh(p.rho_ab.mat, *vecs) * p.c
            assert abs(lhs - bell_value(rho, s)) < 1e-9

    def test_witness_settings_feed_bell_value(self):
        # WitnessSettings contributes its first two directions per side
        rng = np.random.default_rng(33)
        rho = rand_density(rng, 3, 3)
        alpha = beta = GeneratorPair(0, 2, 3)
        s = rand_triads(rng, alpha, beta)
        bells = BellSettings(
            alpha, beta,
            s.triad_a.vector(0), s.triad_a.vector(1),
            s.triad_b.vector(0), s.triad_b.vector(1),
        )
        assert abs(bell_value(rho, s) - bell_value(rho, bells)) < 1e-12

    def test_empty_subspace_value_and_normalization(self):
        mat = np.zeros((9, 9), dtype=complex)
        mat[2, 2] = 1.0  # |0,2><0,2|
        rho = validate_density(mat, Dims(3, 3))
        alpha, beta = GeneratorPair(0, 1, 3), GeneratorPair(0, 1, 3)
        s = rand_triads(np.random.default_rng(0), alpha, beta)
        assert nonlinear_value(rho, s) == 0.0
        with pytest.raises(ValueError):
            nonlinear_normalized(rho, s)


class TestClosedForms:
    def test_nonlinear_max_dominates_sampled_settings(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            rho = rand_density(rng, 3, 3)
            alpha = beta = GeneratorPair(0, 1, 3)
            top = nonlinear_max(rho, alpha, beta)
            for _ in range(25):
                s = rand_triads(rng, alpha, beta)
                assert nonlinear_normalized(rho, s) <= top + 1e-9

    def test_bell_max_dominates_sampled_settings(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            rho = rand_density(rng, 3, 3)
            alpha = beta = GeneratorPair(1, 2, 3)
            top = bell_max(rho, alpha, beta)
            for _ in range(25):
                vecs = rng.normal(size=(4, 3))
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                s = BellSettings(alpha, beta, *vecs)
                assert abs(bell_value(rho, s)) <= top + 1e-9

    def test_two_qubit_closed_forms_against_direct_eigensolve(self):
        rng = np.random.default_rng(55)
        pair = GeneratorPair(0, 1, 2)
        for _ in range(50):
            rho = rand_density(rng, 2, 2)
            pt = rho.mat.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
            lam = np.linalg.eigvalsh(pt)[0]
            assert abs(nonlinear_max(rho, pair, pair) - (1.0 - 4.0 * lam)) < 1e-12
            t = np.array(
                [
                    [np.trace(rho.mat @ np.kron(PAULI[i], PAULI[j])).real for j in range(3)]
                    for i in range(3)
                ]
            )
            sv = np.linalg.svd(t, compute_uv=False)
            assert abs(bell_max(rho, pair, pair) - 2.0 * math.hypot(sv[0], sv[1])) < 1e-12

    def test_singlet_maxima(self):
        v = (np.kron(ket(2, 0), ket(2, 1)) - np.kron(ket(2, 1), ket(2, 0))) / math.sqrt(2)
        rho = validate_density(np.outer(v, v.conj()), Dims(2, 2))
        pair = GeneratorPair(0, 1, 2)
        assert abs(nonlinear_max(rho, pair, pair) - 3.0) < 1e-12
        assert abs(bell_max(rho, pair, pair) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_empty_subspace_maxima(self):
        mat = np.zeros((9, 9), dtype=complex)
        mat[2, 2] = 1.0
        rho = validate_density(mat, Dims(3, 3))
        alpha = beta = GeneratorPair(0, 1, 3)
        assert nonlinear_max(rho, alpha, beta) == 1.0
        assert bell_max(rho, alpha, beta) == 0.0


class TestOptimizer:
    CFG = OptimizerConfig(restarts=6, seed=9, step_tol=1e-6)

    def test_agrees_with_closed_forms(self):
        rng = np.random.default_rng(66)
        rho = rand_density(rng, 3, 3)
        for alpha, beta in [
            (GeneratorPair(0, 1, 3), GeneratorPair(0, 1, 3)),
            (GeneratorPair(0, 2, 3), GeneratorPair(1, 2, 3)),
        ]:
            s_nl, v_nl = optimize_settings(rho, alpha, beta, "nonlinear", self.CFG)
            assert abs(v_nl - nonlinear_max(rho, alpha, beta)) < 1e-4
            # returned settings replay to the reported value through the
            # independent full-matrix route
            assert abs(nonlinear_normalized(rho, s_nl) - v_nl) < 1e-9
            s_bl, v_bl = optimize_settings(rho, alpha, beta, "bell", self.CFG)
            assert abs(v_bl - bell_max(rho, alpha, beta)) < 1e-4
            assert abs(abs(bell_value(rho, s_bl)) - v_bl) < 1e-9

    @staticmethod
    def objectives(kind, rng):
        """Batched frame objective, scalar angle oracle, angle count and the
        frames of angle rows, on a random table."""
        t, r, s = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        tables = np.stack([t, t.T])
        if kind == "nonlinear":
            rs = np.stack([r, s])
            return (lambda w, base: _nonlinear_fg(w, base, tables, rs)), _nonlinear_objective(t, r, s), 6, _zyz_frames
        return (lambda w, base: _bell_fg(w, base, t)), _bell_objective(t, 1.0), 4, _spherical_frames

    @pytest.mark.parametrize("kind", ["nonlinear", "bell"])
    def test_batched_objective_matches_scalar_oracle(self, kind):
        """At a zero step the frame objective reads its base, whose value is the
        scalar oracle's at the angles the base was built from; a nonzero step
        turns each frame by exp([w]x) and reads the turned frames."""
        rng = np.random.default_rng(31)
        fg, neg, nang, frames = self.objectives(kind, rng)
        x = rng.uniform(-2 * np.pi, 4 * np.pi, (32, nang))
        base = frames(x)
        values, _, at = fg(np.zeros((32, nang)), base)
        assert np.array_equal(at, base)
        assert np.max(np.abs(values + np.array([neg(row) for row in x]))) < 1e-14
        w = rng.uniform(-2.0, 2.0, (32, nang))
        values, _, at = fg(w, base)
        axes = w.reshape(32, -1, 3) if kind == "nonlinear" else np.pad(w.reshape(32, 2, 2), ((0, 0), (0, 0), (0, 1)))
        assert np.max(np.abs(at - _oracle_expm(axes) @ base)) < 1e-14
        assert np.max(np.abs(at @ np.swapaxes(at, -1, -2) - np.eye(3))) < 1e-14
        assert np.max(np.abs(values - fg(np.zeros((32, nang)), at)[0])) < 1e-14

    @pytest.mark.parametrize("kind", ["nonlinear", "bell"])
    def test_gradient_matches_central_differences(self, kind):
        """The gradient is the derivative in the chart at the point it is read:
        at the base for a zero step, at the trial frames for a nonzero one."""
        rng = np.random.default_rng(32)
        fg, _, nang, frames = self.objectives(kind, rng)
        base = frames(rng.uniform(0, 2 * np.pi, (16, nang)))
        for w in (np.zeros((16, nang)), rng.uniform(-1.0, 1.0, (16, nang))):
            _, grad, at = fg(w, base)
            h = 1e-6
            for i in range(nang):
                e = np.zeros(nang)
                e[i] = h
                central = (fg(np.tile(e, (16, 1)), at)[0] - fg(np.tile(-e, (16, 1)), at)[0]) / (2 * h)
                assert np.max(np.abs(central - grad[:, i])) < 1e-6, i

    def test_single_evaluation_returns_the_best_start(self):
        rng = np.random.default_rng(66)
        rho = rand_density(rng, 3, 3)
        alpha, beta = GeneratorPair(0, 1, 3), GeneratorPair(1, 2, 3)
        cfg = OptimizerConfig(restarts=5, seed=3, max_evals=1)
        p = project_state(rho, alpha, beta)
        sig = [ID2, *PAULI]
        table = np.array([[np.trace(p.rho_ab.mat @ np.kron(a, b)).real for b in sig] for a in sig])
        s_nl, v_nl = optimize_settings(rho, alpha, beta, "nonlinear", cfg)
        assert abs(nonlinear_normalized(rho, s_nl) - v_nl) < 1e-9
        neg = _nonlinear_objective(table[1:, 1:], table[1:, 0], table[0, 1:])
        starts = np.random.default_rng(3).uniform(0, 2 * np.pi, (5, 6))
        assert abs(v_nl - max(-neg(x) for x in starts)) < 1e-12
        s_bl, v_bl = optimize_settings(rho, alpha, beta, "bell", cfg)
        assert abs(abs(bell_value(rho, s_bl)) - v_bl) < 1e-9
        neg = _bell_objective(table[1:, 1:], p.c)
        starts = np.random.default_rng(3).uniform(0, 2 * np.pi, (5, 4))
        assert abs(v_bl - max(-neg(x) for x in starts)) < 1e-12

    @pytest.mark.parametrize("kind", ["nonlinear", "bell"])
    def test_chart_search_matches_the_angle_oracle_in_fewer_calls(self, kind):
        """From the same starts, the re-centred frame chart reaches the best
        value of the angle-chart loop on every table and seed, and its
        evaluations summed over 50 tables and 3 seeds are at most 0.85 of
        the loop's: the ZYZ and spherical charts slow down near their poles."""
        rng = np.random.default_rng(1212 if kind == "nonlinear" else 1213)
        nang = 6 if kind == "nonlinear" else 4
        calls = {"chart": 0, "oracle": 0}

        def spy(name, fg):
            def counted(*args):
                calls[name] += 1
                return fg(*args)

            return counted

        worst = 0.0
        for _ in range(50):
            t, r, s = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            tables = np.stack([t, t.T])
            if kind == "nonlinear":
                rs = np.stack([r, s])
                new, old = (lambda w, base: _nonlinear_fg(w, base, tables, rs)), (lambda x: _oracle_nonlinear_fg(x, t, r, s))
                frames = _zyz_frames
            else:
                new, old = (lambda w, base: _bell_fg(w, base, t)), (lambda x: _oracle_bell_fg(x, t))
                frames = _spherical_frames
            for seed in (0, 808, 9):
                starts = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (4, nang))
                _, f_new = search._ascend(spy("chart", new), frames(starts), nang, 1e-5, 2000)
                _, f_old = _oracle_ascend(spy("oracle", old), starts, 1e-5, 2000)
                worst = max(worst, abs(f_new.max() - f_old.max()))
        assert worst < 1e-9
        assert calls["chart"] <= 0.85 * calls["oracle"], calls

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["nonlinear", "bell"]), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_each_row_climbs_as_it_would_alone(self, kind, starts, seed):
        """A restart leaves the batch when it stops, and no row's path depends on
        the others: each row of a batched climb is bitwise that row climbed alone."""
        rng = np.random.default_rng(seed)
        fg, _, nang, frames = self.objectives(kind, rng)
        base = frames(rng.uniform(0.0, 2.0 * np.pi, (starts, nang)))
        points, values = search._ascend(fg, base, nang, 1e-5, 2000)
        for i in range(starts):
            point, value = search._ascend(fg, base[i : i + 1], nang, 1e-5, 2000)
            assert np.array_equal(point[0], points[i]) and value[0] == values[i], i

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**16))
    def test_bell_settings_take_a_in_closed_form(self, state_seed, a, b, seed):
        """The Bell search climbs over b1 and b2 only and returns a1, a2 as the
        normalized T(b1 + b2) and T(b1 - b2), T read here from the projected
        state by Pauli traces; the settings replay to the value, which is bell_max."""
        rho = rand_density(np.random.default_rng(state_seed), 3, 3)
        alpha, beta = (GeneratorPair(*jk, 3) for jk in (((0, 1), (0, 2), (1, 2))[i] for i in (a, b)))
        s, value = optimize_settings(rho, alpha, beta, "bell", OptimizerConfig(restarts=4, seed=seed, step_tol=1e-5))
        assert abs(abs(bell_value(rho, s)) - value) < 1e-9
        rho_ab = project_state(rho, alpha, beta).rho_ab.mat
        t = np.array([[np.trace(rho_ab @ np.kron(p, q)).real for q in PAULI] for p in PAULI])
        for got, u in ((s.a1, s.b1 + s.b2), (s.a2, s.b1 - s.b2)):
            x = t @ u
            assert np.max(np.abs(got - x / np.linalg.norm(x))) < 1e-9
        assert abs(value - bell_max(rho, alpha, beta)) < 1e-6

    def test_a_step_along_which_f_curves_up_starts_the_next_search_at_the_cap(self):
        """An accepted step with s.y <= 0 skips the BFGS update, which would leave
        the next quasi-Newton step a bare gradient step on a stretch where f curves
        up; the next line search starts from the full _MAX_TURN instead.  On
        f = |x|^2 / 2 in a flat chart every step curves up: after the first step,
        the gradient, every trial step has max-norm _MAX_TURN (at commit ce2a75c
        they doubled from 1e-4)."""
        sizes = []

        def fg(step, base):
            sizes.append(np.abs(step).max())
            x = base + step
            return 0.5 * (x * x).sum(axis=1), x, x

        search._ascend(fg, np.array([[1e-4, -5e-5]]), 2, 1e-5, 8)
        assert sizes[:2] == [0.0, 1e-4] and len(sizes) == 8
        assert max(abs(size - search._MAX_TURN) for size in sizes[2:]) < 1e-15

    @staticmethod
    def bench_state(seed, index):
        """State `index` of the optimizer benchmark's cycle on `seed`."""
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        mat = g @ g.conj().T
        return validate_density(mat / np.trace(mat).real, Dims(3, 3))

    @pytest.mark.parametrize(
        "kind, index, pair, cap",
        [("bell", 44, ((0, 1), (1, 2)), 49), ("nonlinear", 27, ((0, 1), (0, 2)), 100)],
    )
    def test_worst_benchmark_searches_leave_their_saddles(self, kind, index, pair, cap):
        """The optimizer benchmark's longest searches on seed 1, at its budget.  On
        state 44, (0,1)x(1,2), T has singular values 0.433, 0.041 and 0.029; one
        Bell restart reaches a saddle at 0.86712, where f curves up by only about
        0.4% per pass; had line searches there not started from the full
        _MAX_TURN, it would take 769 gradient steps to leave it (no Bell search
        of commit ce2a75c took more than 49 passes on seeds 1 and 7).  State 27, (0,1)x(0,2), took that
        commit's nonlinear search 207 passes."""
        rho = self.bench_state(1, index)
        alpha, beta = (GeneratorPair(*jk, 3) for jk in pair)
        name = "_nonlinear_fg" if kind == "nonlinear" else "_bell_fg"
        with mock.patch.object(search, name, wraps=getattr(search, name)) as spy:
            _, value = optimize_settings(rho, alpha, beta, kind, self.C8_CFG)
        assert spy.call_count <= cap, spy.call_count
        closed = nonlinear_max(rho, alpha, beta) if kind == "nonlinear" else bell_max(rho, alpha, beta)
        assert abs(value - closed) < 1e-9

    C8_CFG = OptimizerConfig(restarts=4, seed=808, step_tol=1e-5)

    @staticmethod
    def search_steps(rho, cfg):
        """Every step optimize_settings passes to the objective, over the 9 pairs
        of a 3x3 state and both kinds."""
        pairs = [p for p, _ in so_generators(3)]
        steps = []
        for kind, name in (("nonlinear", "_nonlinear_fg"), ("bell", "_bell_fg")):
            with mock.patch.object(search, name, wraps=getattr(search, name)) as spy:
                for alpha, beta in itertools.product(pairs, pairs):
                    optimize_settings(rho, alpha, beta, kind, cfg)
            steps += [call.args[0] for call in spy.call_args_list]
        return steps

    def test_no_trial_step_turns_past_the_cap(self):
        """Every line search starts from a step of max-norm at most _MAX_TURN and
        only halves it.  On the optimizer benchmark's first three states
        (default_rng(0)), uncapped quasi-Newton steps reached 17-197 rad."""
        rng = np.random.default_rng(0)
        for _ in range(3):
            turn = max(np.abs(step).max() for step in self.search_steps(rand_density(rng, 3, 3), self.C8_CFG))
            assert 0.0 < turn <= search._MAX_TURN, turn

    def test_passes_over_c8_states_fall_with_the_cap(self):
        """Objective passes over the first 4 of C8's states x 9 pairs x both kinds, at
        C8's config.  The parent commit 234d2be, whose line searches started from
        the uncapped quasi-Newton step, made 2078; the cap must save at least 5%."""
        rhos = [random_density(Dims(3, 3), 9, seed=80800 + trial) for trial in range(4)]
        passes = sum(len(self.search_steps(rho, self.C8_CFG)) for rho in rhos)
        assert passes <= 0.95 * 2078, passes

    def test_search_reaches_the_closed_form_where_the_angle_chart_stalled(self):
        """State 17 of the optimizer benchmark's cycle (default_rng(0)), pair
        (0,1)x(1,2), at the benchmark's budget: the ZYZ-angle search stopped
        4.3e-7 below nonlinear_max there; the frame chart has no pole to stall at."""
        rng = np.random.default_rng(0)
        for _ in range(18):
            g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        mat = g @ g.conj().T
        rho = validate_density(mat / np.trace(mat).real, Dims(3, 3))
        alpha, beta = GeneratorPair(0, 1, 3), GeneratorPair(1, 2, 3)
        cfg = OptimizerConfig(restarts=4, seed=808, step_tol=1e-5)
        _, value = optimize_settings(rho, alpha, beta, "nonlinear", cfg)
        assert abs(nonlinear_max(rho, alpha, beta) - value) < 1e-9

    @pytest.mark.parametrize("kind", ["nonlinear", "bell"])
    def test_max_evals_counts_objective_calls(self, kind):
        rho = rand_density(np.random.default_rng(66), 3, 3)
        alpha, beta = GeneratorPair(0, 1, 3), GeneratorPair(1, 2, 3)
        name = "_nonlinear_fg" if kind == "nonlinear" else "_bell_fg"
        with mock.patch.object(search, name, wraps=getattr(search, name)) as spy:
            optimize_settings(rho, alpha, beta, kind, OptimizerConfig(restarts=4, seed=1, max_evals=3))
        assert spy.call_count == 3

    @pytest.mark.parametrize("kind", ["nonlinear", "bell"])
    def test_zero_table_stops_after_the_starts(self, kind):
        """The maximally mixed state compresses to I/4: T = 0 and r = s = 0, so
        the gradient vanishes at every start and the search makes one call."""
        rho = validate_density(np.eye(9) / 9.0, Dims(3, 3))
        pair = GeneratorPair(0, 2, 3)
        name = "_nonlinear_fg" if kind == "nonlinear" else "_bell_fg"
        with mock.patch.object(search, name, wraps=getattr(search, name)) as spy:
            settings, value = optimize_settings(rho, pair, pair, kind, OptimizerConfig(restarts=5, seed=4))
        assert spy.call_count == 1
        assert value == 0.0
        first = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, (5, 6 if kind == "nonlinear" else 4))[0]
        if kind == "nonlinear":
            got, want = settings.triad_a.rot, rotation_zyz(*first[:3])
        else:
            th, ph = first[:2]
            got, want = settings.b1, [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
            assert settings.a1.tolist() == settings.a2.tolist() == [0.0, 0.0, 1.0]  # T(b1 +- b2) = 0: e_z
        assert np.max(np.abs(got - np.asarray(want))) < 1e-15

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0),
            ("restarts", -1),
            ("restarts", 2.5),
            ("step_tol", float("nan")),
            ("seed", -1),
            ("max_evals", 0),
            ("step_tol", -1e-3),
        ],
    )
    def test_config_rejects_budgets_that_crash_or_never_stop(self, field, value):
        with pytest.raises(ValueError, match=f"OptimizerConfig.{field}"):
            OptimizerConfig(**{field: value})

    def test_config_takes_numpy_integers_and_a_zero_step_tol(self):
        cfg = OptimizerConfig(restarts=np.int64(3), seed=np.uint8(2), step_tol=0, max_evals=np.int32(5))
        assert cfg.restarts == 3 and cfg.step_tol == 0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(77)
        rho = rand_density(rng, 2, 3)
        alpha, beta = GeneratorPair(0, 1, 2), GeneratorPair(1, 2, 3)
        cfg = OptimizerConfig(restarts=3, seed=42)
        s1, v1 = optimize_settings(rho, alpha, beta, "nonlinear", cfg)
        s2, v2 = optimize_settings(rho, alpha, beta, "nonlinear", cfg)
        assert v1 == v2
        assert np.array_equal(s1.triad_a.rot, s2.triad_a.rot)

    def test_rejects_bad_inputs(self):
        rho = max_ent(3)
        pair = GeneratorPair(0, 1, 3)
        with pytest.raises(ValueError):
            optimize_settings(rho, pair, pair, "chsh-prime")
        mat = np.zeros((9, 9), dtype=complex)
        mat[2, 2] = 1.0
        empty = validate_density(mat, Dims(3, 3))
        with pytest.raises(ValueError, match="empty subspace"):
            optimize_settings(empty, pair, pair, "nonlinear")
        # the kind is checked before the block is built, so an empty subspace
        # does not hide a kind that could never run
        with pytest.raises(ValueError, match="unknown witness kind 'chsh'"):
            optimize_settings(empty, pair, pair, "chsh")


class TestLocalUnitaryCovariance:
    def test_block_unitary_on_a_side_preserves_maxima(self):
        rng = np.random.default_rng(88)
        rho = rand_density(rng, 3, 3)
        alpha = beta = GeneratorPair(0, 2, 3)
        # random unitary supported on span{|0>,|2>} of side A
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        u = np.eye(3, dtype=complex)
        u[np.ix_([0, 2], [0, 2])] = q
        big = np.kron(u, np.eye(3))
        rot = validate_density(big @ rho.mat @ big.conj().T, Dims(3, 3))
        assert abs(nonlinear_max(rot, alpha, beta) - nonlinear_max(rho, alpha, beta)) < 1e-9
        assert abs(bell_max(rot, alpha, beta) - bell_max(rho, alpha, beta)) < 1e-9
        assert abs(project_state(rot, alpha, beta).c - project_state(rho, alpha, beta).c) < 1e-12


class TestDetection:
    def test_product_state_clean(self):
        mat = np.zeros((9, 9), dtype=complex)
        mat[4, 4] = 1.0  # |1,1><1,1|
        rho = validate_density(mat, Dims(3, 3))
        flag, reports = detect_entanglement(rho)
        assert not flag
        assert all(r.nonlinear_max <= 1.0 + TAU_DETECT for r in reports)

    def test_isotropic_above_threshold(self):
        flag, reports = detect_entanglement(isotropic(3, 0.3))
        assert flag
        top = best_report(reports)
        assert top.nonlinear_max > 1.0 + TAU_DETECT
        assert top.d == top.nonlinear_max - 1.0
        assert top.x == top.d

    def test_isotropic_below_threshold(self):
        flag, _ = detect_entanglement(isotropic(3, 0.2))
        assert not flag

    def test_one_kernel_call_decides_through_nonlinear_d(self, monkeypatch):
        # the flag is _nonlinear_d > TAU_DETECT on the columns of the one kernel call; at
        # nonlinear_max = fl(1 + TAU_DETECT) the difference is 9.99999993922529e-09, not detected
        calls, real = [], witness._reports
        rho = validate_density(np.eye(4) / 4, Dims(2, 2))
        for value, want in ((1.0 + TAU_DETECT, False), (np.nextafter(1.0 + TAU_DETECT, 2.0), True), (1.0, False)):
            def fake(stack, dims, cols=slice(None), value=value):
                calls.append(cols)
                return real(stack, dims, cols)._replace(nonlinear_max=np.array([[value]]))

            monkeypatch.setattr(witness, "_reports", fake)
            calls.clear()
            flag, reports = detect_entanglement(rho)
            assert flag is want and len(calls) == 1 and reports[0].nonlinear_max == value

    @pytest.mark.xfail(
        strict=True,
        reason="defect (a), ROADMAP item 3: rounding at TAU_PSD, amplified by 1/c on a pair of weight 2e-11, "
        "reads nonlinear_max 101",
    )
    def test_rounding_in_a_near_empty_subspace_is_not_detected(self):
        """(1 - 2e-11)|00><00| + 1e-11(|11><11| + |22><22|) + 5e-10(|11><22| + h.c.)
        passes validation, and its bound and negativity are 5e-10: no witness may
        call it entangled on the strength of its (1,2)x(1,2) pair, where c = 2e-11."""
        mat = np.zeros((9, 9))
        mat[0, 0] = 1.0 - 2e-11
        mat[4, 4] = mat[8, 8] = 1e-11
        mat[4, 8] = mat[8, 4] = 5e-10
        flag, _ = detect_entanglement(validate_density(mat, Dims(3, 3)))
        assert flag is False

    def test_report_count_and_order(self):
        rng = np.random.default_rng(9)
        rho = rand_density(rng, 3, 4)
        reports = subspace_reports(rho)
        assert len(reports) == 3 * 6
        keys = [(r.alpha.j, r.alpha.k, r.beta.j, r.beta.k) for r in reports]
        assert keys == sorted(keys)

    def test_x_clips_at_zero(self):
        rng = np.random.default_rng(14)
        rho = rand_density(rng, 3, 3)
        for r in subspace_reports(rho):
            assert r.x == max(0.0, r.d)
            assert abs(r.nonlinear_max - (1.0 - 4.0 * r.lambda_min)) < 1e-12


class TestShotEstimator:
    def test_identity_observable_has_no_variance(self):
        rho = max_ent(2)
        mean, err = estimate_mean_shots(rho, np.eye(4), 100, seed=1)
        assert mean == 1.0 and err == 0.0

    def test_singlet_zz_is_deterministic(self):
        v = (np.kron(ket(2, 0), ket(2, 1)) - np.kron(ket(2, 1), ket(2, 0))) / math.sqrt(2)
        rho = validate_density(np.outer(v, v.conj()), Dims(2, 2))
        mean, err = estimate_mean_shots(rho, np.kron(PAULI[2], PAULI[2]), 500, seed=2)
        assert abs(mean + 1.0) < 1e-12 and err == 0.0

    def test_mean_converges_to_trace(self):
        rng = np.random.default_rng(31)
        rho = rand_density(rng, 2, 2)
        obs = np.kron(PAULI[0], PAULI[1])
        exact = np.trace(rho.mat @ obs).real
        mean, err = estimate_mean_shots(rho, obs, 40000, seed=3)
        assert err > 0.0
        assert abs(mean - exact) < 5.0 * err

    def test_stderr_scales_like_inverse_root_shots(self):
        rng = np.random.default_rng(41)
        rho = rand_density(rng, 2, 2)
        obs = np.kron(PAULI[2], PAULI[0])
        ratios = []
        for rep in range(20):
            _, e1 = estimate_mean_shots(rho, obs, 10000, seed=100 + rep)
            _, e4 = estimate_mean_shots(rho, obs, 40000, seed=200 + rep)
            ratios.append(e4 / e1)
        assert 0.4 < float(np.mean(ratios)) < 0.6

    def test_input_validation(self):
        rho = max_ent(2)
        with pytest.raises(NotHermitianError):
            estimate_mean_shots(rho, np.diag([1.0, 1j, 0, 0]), 10)
        with pytest.raises(ValueError):
            estimate_mean_shots(rho, np.eye(4), 0)
        for shots in (2.5, 10.0, True):
            with pytest.raises(ValueError, match="shots must be an integer"):
                estimate_mean_shots(rho, np.eye(4), shots)
        for obs in (np.eye(2), np.eye(9), np.ones(4)):
            with pytest.raises(DimensionMismatchError):
                estimate_mean_shots(rho, obs, 10)
        assert estimate_mean_shots(rho, np.eye(4), np.int64(3), seed=1) == (1.0, 0.0)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observable_rejected(self, where, bad):
        # NaN passes every comparison against TAU_HERM and used to reach eigh
        obs = np.eye(4, dtype=complex)
        obs[where] = obs[where[::-1]] = bad
        with pytest.raises(StateValidationError, match="NaN or infinite"):
            estimate_mean_shots(max_ent(2), obs, 10, seed=1)

    def test_single_shot_has_zero_stderr(self):
        rho = max_ent(2)
        mean, err = estimate_mean_shots(rho, np.kron(PAULI[2], PAULI[2]), 1, seed=4)
        assert err == 0.0 and mean in (-1.0, 1.0)


def csv_rows(text: str) -> list[dict]:
    """Parse reports_to_csv output back into numeric row dicts."""
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    names = CSV_HEADER.split(",")
    return [
        {name: (int(p) if i < 4 else float(p)) for i, (name, p) in enumerate(zip(names, line.split(",")))}
        for line in lines[1:]
    ]


class TestCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(71)
        rho = rand_density(rng, 3, 3)
        reports = subspace_reports(rho)
        text = reports_to_csv(reports)
        assert text.startswith(CSV_HEADER + "\n")
        assert "\r" not in text and text.endswith("\n")
        rows = csv_rows(text)
        assert len(rows) == len(reports)
        for row, rep in zip(rows, reports):
            assert (row["alpha_j"], row["alpha_k"]) == (rep.alpha.j, rep.alpha.k)
            assert (row["beta_l"], row["beta_m"]) == (rep.beta.j, rep.beta.k)
            for name, val in [
                ("c", rep.c),
                ("lambda_min", rep.lambda_min),
                ("bell_max", rep.bell_max),
                ("nonlinear_max", rep.nonlinear_max),
                ("d", rep.d),
                ("x", rep.x),
            ]:
                assert abs(row[name] - val) <= 1e-11 * max(1.0, abs(val))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            csv_rows("a,b,c\n1,2,3\n")


class TestSettingsValidation:
    def test_witness_triads_must_share_orientation(self):
        pair = GeneratorPair(0, 1, 2)
        proper = triad_from_rotation(np.eye(3))
        improper = triad_from_rotation(np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            WitnessSettings(pair, pair, proper, improper)
        WitnessSettings(pair, pair, improper, improper)  # equal handedness ok

    def test_bell_vectors_must_be_unit(self):
        pair = GeneratorPair(0, 1, 2)
        e = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            BellSettings(pair, pair, e, e, e, 2.0 * e)
