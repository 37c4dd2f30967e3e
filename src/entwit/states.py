"""Constructors for the reference state families plus seeded random states.

Families covered: maximally entangled and isotropic states in any local
dimension, the 3x3 tiles UPB bound entangled state [C. H. Bennett et al.,
Phys. Rev. Lett. 82, 5385 (1999)] and its mixture with the maximally
entangled projector, the weakly inseparable 3x3 family of
[P. Horodecki, Phys. Lett. A 232, 333 (1997)] and its mixture, canonical
Schmidt-form pure states, Ginibre random states, and a state read from a
JSON document.

One table, _FAMILIES, names each family with its parameter names, its raw
constructor, which checks the parameters' domain (the error names the value)
and returns the unvalidated matrix and its dims, and its affine parameter t,
if any: isotropic in x and both mixtures in p are (1-t) A + t B entry by
entry, for exactly symmetric float64 A and B.  Such a constructor takes t as
a number or an (N, 1, 1) array, so N states are one broadcast, bitwise the N
single builds.  The public family functions validate one state.  A StateSpec
is a family plus a parameter dict (as from CLI flags or a JSON spec), checked
against the table; it gives the raw matrix or stack (matrix, whose stacks
the scan takes unchecked once its two range ends certify them) or the state
validated on its own (build, as the scan builds every other value).
The CLI and the scan take their --family choices and flag rule from the
table (_family_spec, with the flags of _STATE_FLAGS).  P_+ is
built in one place, _isotropic, in float64: the max_entangled family is its
x = 1 case, and the mixtures share that state validated once (_qutrit_pplus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .qstate import (
    DensityMatrix,
    Dims,
    PureState,
    TAU_TR,
    _parse_json,
    _require_integer,
    validate_density,
    validate_pure,
)


def max_entangled(d: int) -> PureState:
    """Sum_i |ii> / sqrt(d)."""
    _require_integer("d", d, 2)
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return validate_pure(vec, Dims(d, d))


def _projector(psi: PureState) -> tuple[np.ndarray, Dims]:
    """|psi><psi|, not yet validated, and its dims."""
    return np.outer(psi.vec, psi.vec.conj()), psi.dims


def _outside(lo: float, t, hi: float):
    """None if lo <= t <= hi for a number t or for every entry of an array t;
    otherwise t itself, or the first entry of the array that is not (NaN
    included), so that an error names one value."""
    inside = np.asarray((lo <= t) & (t <= hi))
    if inside.all():
        return None
    return t if inside.ndim == 0 else np.asarray(t).flat[np.argmin(inside)].item()


def _isotropic(d: int, x: float) -> tuple[np.ndarray, Dims]:
    """The one build of P_+, in float64 (x = 1 gives P_+ bitwise, as 1.0 P + 0.0 = P): the
    real part, to the last bit, of a build from the complex max_entangled vector."""
    _require_integer("d", d, 2)
    lo = -1 / (d * d - 1)  # divided as exact integers: from d = 2**512 on, d * d is past the float range
    if (bad := _outside(lo - 1e-12, x, 1.0 + 1e-12)) is not None:
        raise ValueError(f"x={bad} outside positivity range [{lo}, 1]")
    vec = np.zeros(d * d)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return x * np.outer(vec, vec) + (1.0 - x) * np.eye(d * d) / (d * d), Dims(d, d)


def isotropic(d: int, x: float) -> DensityMatrix:
    """(1-x)/d^2 * I + x P_+; positive exactly for x in [-1/(d^2-1), 1]."""
    return validate_density(*_isotropic(d, x))


# the two constant states of the mixtures, each built and validated once, on first use
@cache
def bennett_rho() -> DensityMatrix:
    """Bound entangled state complementary to the 3x3 tiles UPB.

    rho = (I_9 - sum_i |xi_i><xi_i|) / 4 with the five product vectors of the
    unextendible product basis; each vector is unit norm as written.  PPT by
    construction, entangled by the realignment criterion.  Built and validated
    once, on first use; every call returns that one read-only state.
    """
    z, o, t = np.eye(3)
    s = 1.0 / math.sqrt(2.0)
    tiles = [np.kron(z, s * (z - o)), np.kron(s * (z - o), t), np.kron(t, s * (o - t)), np.kron(s * (o - t), z)]
    mat = np.eye(9)
    for xi in tiles + [np.kron(z + o + t, z + o + t) / 3.0]:
        mat -= np.outer(xi, xi)
    return validate_density(mat / 4.0, Dims(3, 3))


_qutrit_pplus = cache(lambda: isotropic(3, 1.0))


def _example1_mixture(p: float) -> tuple[np.ndarray, Dims]:
    if (bad := _outside(0.0, p, 1.0)) is not None:
        raise ValueError(f"p={bad} outside [0, 1]")
    return (1.0 - p) * bennett_rho().mat + p * _qutrit_pplus().mat, Dims(3, 3)


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
    if (bad := _outside(0.0, p, 1.0)) is not None:
        raise ValueError(f"p={bad} outside [0, 1]")
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
    _require_integer("rank", rank)
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
    _require_integer("d", d, 2)
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
    """d, rank and seed are integers, read exactly however large, or integral reals
    (3.0 is fine, 2.5 an error, never a truncation), and seed is >= 0; x, p and a
    are reals within the float range, and mu is a list of them; path is a string.
    A bool or a string is never a number.  Any other value is a ValueError naming
    the parameter."""
    if name == "path":
        if not isinstance(value, str):
            raise ValueError(f"path must be a string, got {value!r}")
        return value
    if name == "mu":
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"mu must be a list of real numbers, got {value!r}")
        return [_read("mu entry", v) for v in value]
    integral = name in ("d", "rank", "seed")
    kind = ("an integer >= 0" if name == "seed" else "an integer") if integral else "a real number"
    if isinstance(value, bool) or not isinstance(value, Real) or integral and (
        not isinstance(value, Integral) and not float(value).is_integer() or name == "seed" and value < 0
    ):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if integral:
        return int(value)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{name} must be a real number within the float range") from None


# the family of a state read from a JSON document (the CLI's --state PATH)
FILE_FAMILY = "json_file"

# family -> (parameter names, raw constructor taking them as keywords, affine parameter or None)
_FAMILIES = {
    "isotropic": (("d", "x"), _isotropic, "x"),
    "max_entangled": (("d",), lambda d: _isotropic(d, 1.0), None),
    "bennett_mix": (("p",), _example1_mixture, "p"),
    "rho_a_mix": (("a", "p"), _example2_mixture, "p"),
    "random_pure": (("d", "seed"), lambda d, seed: _projector(random_pure(Dims(d, d), seed)), None),
    "random_density": (("d", "rank", "seed"), lambda d, rank, seed: _random_density(Dims(d, d), rank, seed), None),
    "schmidt_pure": (("mu", "d"), lambda mu, d: _projector(pure_from_schmidt(mu, d)), None),
    FILE_FAMILY: (("path",), lambda path: _parse_json(Path(path).read_text(encoding="utf-8")), None),
}


@dataclass(frozen=True)
class StateSpec:
    """A named family plus its parameters, as parsed from CLI flags or JSON."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
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

    def matrix(self, values=None) -> tuple[np.ndarray, Dims]:
        """The family's raw matrix and its dims: the parameter checks run, the matrix is not validated.
        Given `values` of the family's affine parameter, which replace its own, the raw stack
        (N, mn, mn) of their states from one broadcast, bitwise the N single matrices."""
        names, make, affine = _FAMILIES[self.family]
        args = {name: _read(name, self.params[name]) for name in names}
        if values is not None:
            if affine is None:
                raise ValueError(f"family {self.family!r} has no affine parameter")
            args[affine] = np.reshape(np.asarray(values, dtype=float), (-1, 1, 1))
        return make(**args)

    def build(self) -> DensityMatrix:
        """The validated state."""
        return validate_density(*self.matrix())


_BUILD_ERRORS = (ValueError, OSError, MemoryError)  # a state build's errors, StateValidationError included

# state flag -> (type, help); also the --scan-param choices
_STATE_FLAGS = {
    "d": (int, "local dimension"),
    "x": (float, "isotropic mixing parameter"),
    "p": (float, "mixture weight"),
    "a": (float, "weakly inseparable family parameter"),
}


def _family_spec(family: str, flags: dict, seed: int) -> StateSpec:
    """A family's StateSpec from its flag values, --seed (random families) and
    rank d^2; a flag the family does not take, or lacks, is a ValueError naming it."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    names = _FAMILIES[family][0]
    for name in flags:
        if name not in names:
            raise ValueError(f"family {family} does not take --{name}")
    for name in names:
        if name not in flags and name not in ("seed", "rank"):
            raise ValueError(f"family {family} requires --{name}")
    params = dict(flags)
    if "seed" in names:
        params["seed"] = seed
    if "rank" in names:
        params["rank"] = params["d"] ** 2
    return StateSpec(family, params)
