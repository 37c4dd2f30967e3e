"""Constructors for the reference state families plus seeded random states.

Families covered: maximally entangled and isotropic states in any local
dimension, the 3x3 tiles UPB bound entangled state [C. H. Bennett et al.,
Phys. Rev. Lett. 82, 5385 (1999)] and its mixture with the maximally
entangled projector, the weakly inseparable 3x3 family of
[P. Horodecki, Phys. Lett. A 232, 333 (1997)] and its mixture, canonical
Schmidt-form pure states, Ginibre random states, and a state read from a
JSON document.

One table, _FAMILIES, names each family with its parameter names and its raw
constructor, which checks the parameters' domain (the error names the value)
and returns the unvalidated matrix and its dims; the public family functions
validate that one state.  A StateSpec is a family plus a parameter dict (as
from CLI flags or a JSON spec), checked against the table; it gives the raw
matrix (matrix, which the scan validates a stack at a time) or the validated
state (build).  The CLI takes its --family choices and flag rule from the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .qstate import (
    DensityMatrix,
    Dims,
    PureState,
    TAU_TR,
    _parse_json,
    validate_density,
    validate_pure,
)


def max_entangled(d: int) -> PureState:
    """Sum_i |ii> / sqrt(d)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return validate_pure(vec, Dims(d, d))


def _projector(psi: PureState) -> tuple[np.ndarray, Dims]:
    """|psi><psi|, not yet validated, and its dims."""
    return np.outer(psi.vec, psi.vec.conj()), psi.dims


def _isotropic(d: int, x: float) -> tuple[np.ndarray, Dims]:
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    lo = -1.0 / (d * d - 1.0)
    if not lo - 1e-12 <= x <= 1.0 + 1e-12:  # also rejects NaN
        raise ValueError(f"x={x} outside positivity range [{lo}, 1]")
    pplus, dims = _projector(max_entangled(d))
    return x * pplus + (1.0 - x) * np.eye(d * d) / (d * d), dims


def isotropic(d: int, x: float) -> DensityMatrix:
    """(1-x)/d^2 * I + x P_+; positive exactly for x in [-1/(d^2-1), 1]."""
    return validate_density(*_isotropic(d, x))


# the two constant states of the mixtures, each built and validated once, on first use
@cache
def _bennett() -> DensityMatrix:
    z, o, t = np.eye(3)
    s = 1.0 / math.sqrt(2.0)
    tiles = [np.kron(z, s * (z - o)), np.kron(s * (z - o), t), np.kron(t, s * (o - t)), np.kron(s * (o - t), z)]
    mat = np.eye(9)
    for xi in tiles + [np.kron(z + o + t, z + o + t) / 3.0]:
        mat -= np.outer(xi, xi)
    return validate_density(mat / 4.0, Dims(3, 3))


_qutrit_pplus = cache(lambda: max_entangled(3).projector())


def bennett_rho() -> DensityMatrix:
    """Bound entangled state complementary to the 3x3 tiles UPB.

    rho = (I_9 - sum_i |xi_i><xi_i|) / 4 with the five product vectors of the
    unextendible product basis; each vector is unit norm as written.  PPT by
    construction, entangled by the realignment criterion.  Built and validated
    once, on first use; every call returns that one read-only state.
    """
    return _bennett()


def _example1_mixture(p: float) -> tuple[np.ndarray, Dims]:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return (1.0 - p) * _bennett().mat + p * _qutrit_pplus().mat, Dims(3, 3)


def example1_mixture(p: float) -> DensityMatrix:
    """(1-p) * bennett_rho + p * P_+ on two qutrits."""
    return validate_density(*_example1_mixture(p))


def _rho_a(a: float) -> tuple[np.ndarray, Dims]:
    if not 0.0 < a < 1.0:
        raise ValueError(f"a={a} outside (0, 1)")
    mat = a * np.eye(9)
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            if i != j:
                mat[i, j] = a
    root = math.sqrt(1.0 - a * a) / 2.0
    mat[6, 6] = (1.0 + a) / 2.0
    mat[8, 8] = (1.0 + a) / 2.0
    mat[6, 8] = root
    mat[8, 6] = root
    # times the reciprocal, as numpy divides a complex array by a real: the
    # entries do not depend on the dtype the matrix is built in
    return mat * (1.0 / (8.0 * a + 1.0)), Dims(3, 3)


def rho_a(a: float) -> DensityMatrix:
    """Weakly inseparable two-qutrit family, parameter 0 < a < 1.

    Diagonal weight a everywhere except the (2,0)/(2,2) corner, the P_+
    coherence pattern at weight a, a 2x2 block mixing |20> and |22> with
    diagonal (1+a)/2 and off-diagonal sqrt(1-a^2)/2, all over 8a+1.
    Row-major ordering |00>, |01>, ..., |22>.
    """
    return validate_density(*_rho_a(a))


def _example2_mixture(a: float, p: float) -> tuple[np.ndarray, Dims]:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    # raw rho_a is real symmetric, so it is bitwise its validated Hermitian part
    return (1.0 - p) * _rho_a(a)[0] + p * _qutrit_pplus().mat, Dims(3, 3)


def example2_mixture(a: float, p: float) -> DensityMatrix:
    """(1-p) * rho_a(a) + p * P_+ on two qutrits."""
    return validate_density(*_example2_mixture(a, p))


def random_pure(dims: Dims, seed=None) -> PureState:
    """Haar-like random pure state: normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
    return validate_pure(v / np.linalg.norm(v), dims)


def _random_density(dims: Dims, rank: int, seed=None) -> tuple[np.ndarray, Dims]:
    if not 1 <= rank <= dims.total:
        raise ValueError(f"rank={rank} outside [1, {dims.total}]")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dims.total, rank)) + 1j * rng.normal(size=(dims.total, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real, dims


def random_density(dims: Dims, rank: int, seed=None) -> DensityMatrix:
    """Ginibre random state G G^dag / Tr, with G of shape (mn, rank)."""
    return validate_density(*_random_density(dims, rank, seed))


def pure_from_schmidt(mu, d: int) -> PureState:
    """Canonical Schmidt-form state sum_i sqrt(mu_i) |ii> on d x d."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or len(mu) > d:
        raise ValueError("mu must be a 1-d spectrum with length <= d")
    if not (np.all(mu >= 0.0) and abs(mu.sum() - 1.0) <= TAU_TR):  # also rejects NaN
        raise ValueError(f"mu must be nonnegative and sum to 1, got {mu.tolist()}")
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

# family -> (parameter names, raw constructor taking them as keywords)
_FAMILIES = {
    "isotropic": (("d", "x"), _isotropic),
    "max_entangled": (("d",), lambda d: _projector(max_entangled(d))),
    "bennett_mix": (("p",), _example1_mixture),
    "rho_a_mix": (("a", "p"), _example2_mixture),
    "random_pure": (("d", "seed"), lambda d, seed: _projector(random_pure(Dims(d, d), seed))),
    "random_density": (("d", "rank", "seed"), lambda d, rank, seed: _random_density(Dims(d, d), rank, seed)),
    "schmidt_pure": (("mu", "d"), lambda mu, d: _projector(pure_from_schmidt(mu, d))),
    FILE_FAMILY: (("path",), lambda path: _parse_json(Path(path).read_text(encoding="utf-8"))),
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

    def matrix(self) -> tuple[np.ndarray, Dims]:
        """The family's raw matrix and its dims: the parameter checks run, the matrix is not validated."""
        names, make = _FAMILIES[self.family]
        return make(**{name: _read(name, self.params[name]) for name in names})

    def build(self) -> DensityMatrix:
        """The validated state."""
        return validate_density(*self.matrix())
