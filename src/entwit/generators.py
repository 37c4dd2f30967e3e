"""Antisymmetric two-level generators, embedded qubit observables, tilde operators.

Each generator L = |j><k| - |k><j| (0-based, j < k) selects a 2-dimensional
local subspace; L L^dag is the projector onto it.  A unit vector a in R^3
(to TAU_UNIT) embeds as the observable a.sigma on that subspace, and the
"tilde" conjugation L A L^dag by the generator of A's own pair rotates it
inside the subspace (flipping x and z, leaving the +-1 block spectrum intact).
A party's pairs (j, k) have one lexicographic enumeration, _local_pairs,
which so_generators and the subspace kernel (entwit.witness) both read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qstate import _require_integer

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

TAU_UNIT = 1e-12  # deviation allowed from a unit direction and from an orthonormal frame


@dataclass(frozen=True)
class GeneratorPair:
    """Index pair (j, k) of integers (not bools), 0 <= j < k < dim, identifying one local subspace."""

    j: int
    k: int
    dim: int

    def __post_init__(self) -> None:
        for name in ("j", "k", "dim"):
            _require_integer(f"GeneratorPair.{name}", getattr(self, name))
        if not (0 <= self.j < self.k < self.dim):
            raise ValueError(f"need 0 <= j < k < dim, got j={self.j} k={self.k} dim={self.dim}")


@dataclass(frozen=True, eq=False)  # holds arrays: identity equality and hash
class ObservableTriad:
    """Orthonormal frame in R^3 whose rows a1, a2, a3 define three complementary
    qubit observables a_i.sigma; orientation is the frame handedness."""

    rot: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rot, dtype=float)
        if rot.shape != (3, 3) or not np.max(np.abs(rot @ rot.T - np.eye(3))) <= TAU_UNIT:  # also rejects NaN
            raise ValueError(f"triad rows must be orthonormal to {TAU_UNIT}")
        rot = rot.copy()
        rot.setflags(write=False)
        object.__setattr__(self, "rot", rot)

    @property
    def orientation(self) -> int:
        return 1 if np.linalg.det(self.rot) > 0 else -1

    def vector(self, i: int) -> np.ndarray:
        """Row i (0-based) of the frame."""
        return self.rot[i]


@dataclass(frozen=True, eq=False)  # holds arrays: identity equality and hash
class EmbeddedObservable:
    """A qubit observable a.sigma living on one 2-dim subspace of a larger party."""

    pair: GeneratorPair
    mat: np.ndarray


def generator_matrix(pair: GeneratorPair) -> np.ndarray:
    """The antisymmetric generator |j><k| - |k><j| as a dense real matrix."""
    mat = np.zeros((pair.dim, pair.dim))
    mat[pair.j, pair.k] = 1.0
    mat[pair.k, pair.j] = -1.0
    return mat


@functools.cache
def _local_pairs(dim: int) -> np.ndarray:
    """The (C(dim,2), 2) rows (j, k), j < k, of one party's pairs in lexicographic
    order: the one enumeration of local pairs.  Built once per dim and read-only."""
    pairs = np.stack(np.triu_indices(dim, 1), axis=-1)
    pairs.setflags(write=False)
    return pairs


def so_generators(dim: int) -> list[tuple[GeneratorPair, np.ndarray]]:
    """All dim(dim-1)/2 generators in lexicographic (j, k) order (_local_pairs)."""
    _require_integer("dim", dim, 2)
    return [(p, generator_matrix(p)) for p in (GeneratorPair(j, k, dim) for j, k in _local_pairs(dim).tolist())]


def subspace_projector(pair: GeneratorPair) -> np.ndarray:
    """Diagonal projector onto span{|j>, |k>}; equals L L^dag exactly."""
    mat = np.zeros((pair.dim, pair.dim))
    mat[pair.j, pair.j] = 1.0
    mat[pair.k, pair.k] = 1.0
    return mat


def _unit_vector(a, name: str = "observable direction") -> np.ndarray:
    """A read-only float copy of a, which must be a unit 3-vector to TAU_UNIT."""
    a = np.array(a, dtype=float)
    if a.shape != (3,) or not abs(np.linalg.norm(a) - 1.0) <= TAU_UNIT:  # also rejects NaN
        raise ValueError(f"{name} must be a unit 3-vector")
    a.setflags(write=False)
    return a


def embed_observable(pair: GeneratorPair, a: np.ndarray) -> EmbeddedObservable:
    """Place the 2x2 block a.sigma at rows/columns (j, k), zero elsewhere.

    The vector must be unit length; the output is Hermitian with block
    eigenvalues +-1.
    """
    a = _unit_vector(a)
    mat = np.zeros((pair.dim, pair.dim), dtype=complex)
    mat[pair.j, pair.j] = a[2]
    mat[pair.j, pair.k] = a[0] - 1j * a[1]
    mat[pair.k, pair.j] = a[0] + 1j * a[1]
    mat[pair.k, pair.k] = -a[2]
    return EmbeddedObservable(pair, mat)


def triad_from_rotation(rot: np.ndarray) -> ObservableTriad:
    """Wrap a 3x3 orthogonal matrix (rows = observable directions) as a triad."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3) or not np.max(np.abs(rot @ rot.T - np.eye(3))) <= 1e-10:  # also rejects NaN
        raise ValueError("expected an orthogonal 3x3 matrix")
    # re-orthonormalize so the TAU_UNIT triad invariant holds for inputs
    # that are only 1e-10 orthogonal
    u, _, vt = np.linalg.svd(rot)
    return ObservableTriad(u @ vt)


def rotation_zyz(t1, t2, t3) -> np.ndarray:
    """Proper rotation Rz(t1) Ry(t2) Rz(t3); covers SO(3) as angles range freely.

    Angle arrays broadcast: the result has shape (..., 3, 3).
    """
    ca, sa = np.cos(t1), np.sin(t1)
    cb, sb = np.cos(t2), np.sin(t2)
    cg, sg = np.cos(t3), np.sin(t3)
    rot = np.empty(np.broadcast(ca, cb, cg).shape + (3, 3))
    rot[..., 0, 0] = ca * cb * cg - sa * sg
    rot[..., 0, 1] = -ca * cb * sg - sa * cg
    rot[..., 0, 2] = ca * sb
    rot[..., 1, 0] = sa * cb * cg + ca * sg
    rot[..., 1, 1] = -sa * cb * sg + ca * cg
    rot[..., 1, 2] = sa * sb
    rot[..., 2, 0] = -sb * cg
    rot[..., 2, 1] = sb * sg
    rot[..., 2, 2] = cb
    return rot


def tilde_operator(obs: EmbeddedObservable) -> np.ndarray:
    """Conjugated observable L A L^dag, L the generator of A's own pair; same support as A."""
    ell = generator_matrix(obs.pair)
    return ell @ obs.mat @ ell.conj().T
