"""Constructors for the reference state families plus seeded random states.

Families covered: maximally entangled and isotropic states in any local
dimension, the 3x3 tiles UPB bound entangled state [C. H. Bennett et al.,
Phys. Rev. Lett. 82, 5385 (1999)] and its mixture with the maximally
entangled projector, the weakly inseparable 3x3 family of
[P. Horodecki, Phys. Lett. A 232, 333 (1997)] and its mixture, canonical
Schmidt-form pure states, Ginibre random states, and a state read from a
JSON document.

One table, _FAMILIES, names each family with its parameter names and its
constructor.  A StateSpec is a family plus a parameter dict (as it arrives
from CLI flags or a JSON spec); it is checked against the table and built
through it, and the CLI takes its --family choices and its flag rule from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .qstate import (
    DensityMatrix,
    Dims,
    PureState,
    TAU_TR,
    from_json,
    validate_density,
    validate_pure,
)


def _ket(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def max_entangled(d: int) -> PureState:
    """Sum_i |ii> / sqrt(d)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return validate_pure(vec, Dims(d, d))


def isotropic(d: int, x: float) -> DensityMatrix:
    """(1-x)/d^2 * I + x P_+; positive exactly for x in [-1/(d^2-1), 1]."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    lo = -1.0 / (d * d - 1.0)
    if x < lo - 1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"x={x} outside positivity range [{lo}, 1]")
    mat = x * max_entangled(d).projector().mat + (1.0 - x) * np.eye(d * d) / (d * d)
    return validate_density(mat, Dims(d, d))


def _tiles_vectors() -> list[np.ndarray]:
    z, o, t = (_ket(3, i) for i in range(3))
    s = 1.0 / math.sqrt(2.0)
    return [
        np.kron(z, s * (z - o)),
        np.kron(s * (z - o), t),
        np.kron(t, s * (o - t)),
        np.kron(s * (o - t), z),
        np.kron(z + o + t, z + o + t) / 3.0,
    ]


def bennett_rho() -> DensityMatrix:
    """Bound entangled state complementary to the 3x3 tiles UPB.

    rho = (I_9 - sum_i |xi_i><xi_i|) / 4 with the five product vectors of the
    unextendible product basis; each vector is unit norm as written.  PPT by
    construction, entangled by the realignment criterion.
    """
    mat = np.eye(9, dtype=complex)
    for xi in _tiles_vectors():
        mat -= np.outer(xi, xi.conj())
    return validate_density(mat / 4.0, Dims(3, 3))


def example1_mixture(p: float) -> DensityMatrix:
    """(1-p) * bennett_rho + p * P_+ on two qutrits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    mat = (1.0 - p) * bennett_rho().mat + p * max_entangled(3).projector().mat
    return validate_density(mat, Dims(3, 3))


def rho_a(a: float) -> DensityMatrix:
    """Weakly inseparable two-qutrit family, parameter 0 < a < 1.

    Diagonal weight a everywhere except the (2,0)/(2,2) corner, the P_+
    coherence pattern at weight a, a 2x2 block mixing |20> and |22> with
    diagonal (1+a)/2 and off-diagonal sqrt(1-a^2)/2, all over 8a+1.
    Row-major ordering |00>, |01>, ..., |22>.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"a={a} outside (0, 1)")
    mat = a * np.eye(9, dtype=complex)
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            if i != j:
                mat[i, j] = a
    root = math.sqrt(1.0 - a * a) / 2.0
    mat[6, 6] = (1.0 + a) / 2.0
    mat[8, 8] = (1.0 + a) / 2.0
    mat[6, 8] = root
    mat[8, 6] = root
    return validate_density(mat / (8.0 * a + 1.0), Dims(3, 3))


def example2_mixture(a: float, p: float) -> DensityMatrix:
    """(1-p) * rho_a(a) + p * P_+ on two qutrits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    mat = (1.0 - p) * rho_a(a).mat + p * max_entangled(3).projector().mat
    return validate_density(mat, Dims(3, 3))


def random_pure(dims: Dims, seed=None) -> PureState:
    """Haar-like random pure state: normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
    return validate_pure(v / np.linalg.norm(v), dims)


def random_density(dims: Dims, rank: int, seed=None) -> DensityMatrix:
    """Ginibre random state G G^dag / Tr, with G of shape (mn, rank)."""
    if not 1 <= rank <= dims.total:
        raise ValueError(f"rank={rank} outside [1, {dims.total}]")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dims.total, rank)) + 1j * rng.normal(size=(dims.total, rank))
    mat = g @ g.conj().T
    return validate_density(mat / np.trace(mat).real, dims)


def pure_from_schmidt(mu, d: int) -> PureState:
    """Canonical Schmidt-form state sum_i sqrt(mu_i) |ii> on d x d."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or len(mu) > d:
        raise ValueError("mu must be a 1-d spectrum with length <= d")
    if np.any(mu < 0.0) or abs(mu.sum() - 1.0) > TAU_TR:
        raise ValueError("mu must be nonnegative and sum to 1")
    vec = np.zeros(d * d, dtype=complex)
    for i, w in enumerate(mu):
        vec[i * d + i] = math.sqrt(w)
    return validate_pure(vec, Dims(d, d))


def _read(name: str, value):
    """d and rank must be integral (3.0 is fine, 2.5 an error, never a truncation);
    x, p and a are reals; seed, mu and path pass as given."""
    if name in ("d", "rank"):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(float(value))
    return float(value) if name in ("x", "p", "a") else value


# the family of a state read from a JSON document (the CLI's --state PATH)
FILE_FAMILY = "json_file"

# family -> (parameter names, constructor called with them as keywords)
_FAMILIES = {
    "isotropic": (("d", "x"), isotropic),
    "max_entangled": (("d",), lambda d: max_entangled(d).projector()),
    "bennett_mix": (("p",), example1_mixture),
    "rho_a_mix": (("a", "p"), example2_mixture),
    "random_pure": (("d", "seed"), lambda d, seed: random_pure(Dims(d, d), seed).projector()),
    "random_density": (("d", "rank", "seed"), lambda d, rank, seed: random_density(Dims(d, d), rank, seed)),
    "schmidt_pure": (("mu", "d"), lambda mu, d: pure_from_schmidt(mu, d).projector()),
    FILE_FAMILY: (("path",), lambda path: from_json(Path(path).read_text(encoding="utf-8"))),
}


@dataclass(frozen=True)
class StateSpec:
    """A named family plus its parameters, as parsed from CLI flags or JSON."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {sorted(_FAMILIES)}")
        want = set(_FAMILIES[self.family][0])
        if set(self.params) != want:
            raise ValueError(f"family {self.family!r} needs params {sorted(want)}, got {sorted(self.params)}")

    @classmethod
    def from_dict(cls, doc: dict) -> "StateSpec":
        doc = dict(doc)
        family = doc.pop("family", None)
        if family is None:
            raise ValueError("state spec needs a 'family' key")
        return cls(family=family, params=doc)

    def build(self) -> DensityMatrix:
        names, make = _FAMILIES[self.family]
        return make(**{name: _read(name, self.params[name]) for name in names})
