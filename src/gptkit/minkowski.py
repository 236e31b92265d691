"""Flat-spacetime geometry and group algebra in 1 + n dimensions.

The metric is diag(-1, +1, ..., +1) with the first coordinate temporal and
units in which the speed of light is 1.  Transformations between inertial
frames are pairs (a, L) acting as x -> L x + a, with L preserving the
metric.  The module provides the canonical boost taking the rest momentum
(m, 0, ..., 0) to an arbitrary on-shell momentum, the group element that
returns a (position, momentum) pair to its rest reference, and the induced
spatial rotation that element reduces to.

Lorentz inverses are always computed through the exact relation
L^-1 = eta L^t eta, never by general matrix inversion, so the group
structure survives to machine precision.

The kernels take leading sample axes: a stack of points, momenta, frame
changes or transforms is processed as one array, with one BLAS product
per sample, so a stacked result equals the one-sample result bit for bit.
A single sample is the stack with no leading axis.  The seeded samplers
follow numpy's `size` convention: None draws one sample, an int draws a
stack, each random variable as one array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .rotations import dots, norms, sample_special_orthogonal

DEFAULT_TOL = 1e-9


def metric(n: int) -> np.ndarray:
    """Minkowski metric diag(-1, +1, ..., +1) on R^(1+n)."""
    eta = np.eye(n + 1)
    eta[0, 0] = -1.0
    return eta


def _identities(shape: tuple, dim: int) -> np.ndarray:
    return np.broadcast_to(np.eye(dim), shape + (dim, dim)).copy()


def apply_lorentz(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """lam @ v for matrices (..., d, d) and vectors (..., d), broadcast over
    leading sample axes; one BLAS matrix-vector product per sample."""
    return (np.asarray(lam, dtype=float) @ np.asarray(v, dtype=float)[..., None])[..., 0]


def minkowski_norm2(p: np.ndarray) -> float | np.ndarray:
    """p . eta . p for a 1+n vector; an array of them for leading sample axes."""
    v = np.asarray(p, dtype=float)
    out = -v[..., 0] ** 2 + dots(v[..., 1:], v[..., 1:])
    return float(out) if v.ndim == 1 else out


def interval(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Signed squared interval -(y0-x0)^2 + sum (yi-xi)^2, over any leading
    sample axes of the two points."""
    dx = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    if dx.ndim < 1:
        raise ValueError("spacetime points must be vectors")
    return minkowski_norm2(dx)


def is_lorentz(lam: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Does L^t eta L = eta hold within tol, for every matrix of a stack?"""
    m = np.asarray(lam, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    eta = metric(m.shape[-1] - 1)
    return bool(np.max(np.abs(np.swapaxes(m, -1, -2) @ eta @ m - eta)) <= tol)


def is_proper_orthochronous(lam: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Lorentz, determinant +1, and no time reversal (L00 >= 1), for every
    matrix of a stack."""
    m = np.asarray(lam, dtype=float)
    return (
        is_lorentz(m, tol)
        and bool(np.all(np.abs(np.linalg.det(m) - 1.0) <= tol))
        and bool(np.all(m[..., 0, 0] >= 1.0 - tol))
    )


def lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """eta L^t eta, over any leading sample axes."""
    m = np.asarray(lam, dtype=float)
    eta = metric(m.shape[-1] - 1)
    return eta @ np.swapaxes(m, -1, -2) @ eta


@dataclass(frozen=True)
class PoincareTransform:
    """Pair (a, L): translation vector plus Lorentz matrix, acting x -> Lx + a.

    Both may carry the same leading sample axes, (..., 1+n) and
    (..., 1+n, 1+n): a stack of transforms, which every function below
    acts on sample by sample.
    """

    translation: np.ndarray
    lorentz: np.ndarray

    def __post_init__(self):
        a = np.array(self.translation, dtype=float)
        m = np.array(self.lorentz, dtype=float)
        if a.ndim < 1 or m.shape != a.shape + a.shape[-1:]:
            raise ValueError("translation and Lorentz matrix dimensions must match")
        a.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "translation", a)
        object.__setattr__(self, "lorentz", m)

    @property
    def n(self) -> int:
        return self.translation.shape[-1] - 1


def identity_transform(n: int) -> PoincareTransform:
    return PoincareTransform(np.zeros(n + 1), np.eye(n + 1))


def apply_poincare(p: PoincareTransform, x: np.ndarray) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != p.translation.shape:
        raise ValueError("point dimension does not match the transformation")
    return apply_lorentz(p.lorentz, v) + p.translation


def apply_to_pair(p: PoincareTransform, b: np.ndarray, q: np.ndarray):
    """Action on a (position, momentum) pair: (a + L b, L q).

    Momenta are translation-insensitive; only the Lorentz part acts on them.
    """
    return apply_poincare(p, b), apply_lorentz(p.lorentz, q)


def compose(second: PoincareTransform, first: PoincareTransform) -> PoincareTransform:
    """second o first = (a2 + L2 a1, L2 L1)."""
    if second.n != first.n:
        raise ValueError("cannot compose transformations of different dimension")
    return PoincareTransform(
        second.translation + apply_lorentz(second.lorentz, first.translation),
        second.lorentz @ first.lorentz,
    )


def inverse(p: PoincareTransform) -> PoincareTransform:
    inv = lorentz_inverse(p.lorentz)
    return PoincareTransform(-apply_lorentz(inv, p.translation), inv)


@dataclass(frozen=True)
class MassiveMomentum:
    """On-shell momentum: p.eta.p = -m^2 with positive energy and m > 0.

    `vector` may carry leading sample axes, (..., 1+n), all of one mass;
    construction fails if any of them is off the mass shell, tested in
    units of the mass: |(p/m).eta.(p/m) + 1| <= 1e-6 + 1e-12 gamma^2, where
    gamma^2 = (p0/m)^2 is the size of the two terms that cancel, so rounding
    at large gamma passes and a spacelike vector still fails.
    """

    vector: np.ndarray
    mass: float

    def __post_init__(self):
        v = np.array(self.vector, dtype=float)
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not np.all(v[..., 0] > 0):
            raise ValueError("energy component must be positive")
        u = v / self.mass
        if not np.all(np.abs(minkowski_norm2(u) + 1.0) <= 1e-6 + 1e-12 * u[..., 0] ** 2):
            raise ValueError("momentum is off the mass shell")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def n(self) -> int:
        return self.vector.shape[-1] - 1

    @property
    def spatial(self) -> np.ndarray:
        return self.vector[..., 1:]


def rest_momentum(mass: float, n: int) -> MassiveMomentum:
    v = np.zeros(n + 1)
    v[0] = mass
    return MassiveMomentum(v, mass)


def momentum_from_spatial(mass: float, spatial: np.ndarray) -> MassiveMomentum:
    """The on-shell momentum with spatial part p: energy m sqrt(1 + u.u) of
    u = p/m, so no power of the mass can overflow or underflow."""
    if not mass > 0:
        raise ValueError("mass must be positive")
    s = np.asarray(spatial, dtype=float)
    u = s / mass
    return MassiveMomentum(np.concatenate([[mass * float(np.sqrt(1.0 + u @ u))], s]), mass)


def boost_x(p_first_axis: float | np.ndarray, mass: float, n: int) -> np.ndarray:
    """Pure boost along the first spatial axis parametrized by momentum.

    The closed form of `_boost` at u = (p/m) e1, so it equals
    standard_boost(momentum_from_spatial(mass, p e1)) bit for bit, negating
    the momentum argument yields the inverse boost exactly, and no power of
    the mass can overflow or underflow.  An array of momenta gives a stack
    of boosts.
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    p = np.asarray(p_first_axis, dtype=float)
    u = np.zeros(p.shape + (n,))
    u[..., 0] = p / mass
    return _boost(u)


def spatial_rotation(o: np.ndarray) -> np.ndarray:
    """The (1+n) matrix fixing time and acting as the n x n block o on space,
    over any leading sample axes."""
    o = np.asarray(o, dtype=float)
    n = o.shape[-1]
    out = _identities(o.shape[:-2], n + 1)
    out[..., 1:, 1:] = o
    return out


def _boost(u: np.ndarray) -> np.ndarray:
    """The pure boost taking the rest frame to velocity parameter u = p/m.

    The closed form of Weinberg, QFT I, eq. 2.5.24: with gamma =
    sqrt(1 + u.u), L00 = gamma, L0i = Li0 = u_i and
    Lij = delta_ij + u_i u_j / (1 + gamma).  u is dimensionless, so no power
    of a mass can overflow or underflow; the result is Lorentz to rounding
    for any u, and u = 0 gives the identity exactly.  Leading sample axes of
    u, (..., n), give a stack (..., 1+n, 1+n).  Every pure boost of the
    module is built here.
    """
    gamma = np.sqrt(1.0 + dots(u, u))
    out = _identities(gamma.shape, u.shape[-1] + 1)
    out[..., 0, 0] = gamma
    out[..., 0, 1:] = out[..., 1:, 0] = u
    out[..., 1:, 1:] += u[..., :, None] * u[..., None, :] / (1.0 + gamma)[..., None, None]
    return out


def standard_boost(p: MassiveMomentum) -> np.ndarray:
    """Canonical transformation taking the rest momentum (m, 0, ..., 0) to p:
    the closed-form boost `_boost` at u = p_spatial/m.  A stack of momenta
    gives a stack of boosts.
    """
    return _boost(p.spatial / p.mass)


def little_group_element(
    a: np.ndarray, x: np.ndarray, lam: np.ndarray, p: MassiveMomentum
) -> PoincareTransform:
    """Group element fixing the pair (0, p_rest) built from a frame change.

    Composition of: the standard boost from rest launched at x, the frame
    change (a shifted copy of lam), and the inverse standard boost of the
    transformed momentum.  The pair (0, p_rest) travels to (x, p), then to
    (x + a, lam p), then back to (0, p_rest), so the result lies in the
    stabilizer of the rest pair: a pure spatial rotation.

    Stacks of a, x, lam and p give a stack of elements.  Every frame change
    in the stack must be proper orthochronous within `DEFAULT_TOL`.
    """
    lam = np.asarray(lam, dtype=float)
    if not is_proper_orthochronous(lam):
        raise ValueError("frame change must be proper orthochronous")
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    boost_p = standard_boost(p)
    moved = MassiveMomentum(apply_lorentz(lam, p.vector), p.mass)
    boost_moved_inv = lorentz_inverse(standard_boost(moved))
    first = PoincareTransform(x, boost_p)
    middle = PoincareTransform(x + a - apply_lorentz(lam, x), lam)
    last = PoincareTransform(-apply_lorentz(boost_moved_inv, x + a), boost_moved_inv)
    return compose(last, compose(middle, first))


def wigner_rotation(lam: np.ndarray, p: MassiveMomentum) -> np.ndarray:
    """Spatial rotation induced on internal labels by a frame change.

    Lambda_rest(lam p)^-1 . lam . Lambda_rest(p): fixes the time axis and its
    spatial block is special orthogonal.  Pure rotations come back unchanged;
    boosts collinear with p give the identity.  Stacks of lam and p give a
    stack of rotations.
    """
    lam = np.asarray(lam, dtype=float)
    moved = MassiveMomentum(apply_lorentz(lam, p.vector), p.mass)
    return lorentz_inverse(standard_boost(moved)) @ lam @ standard_boost(p)


def rotation_block_angle(w: np.ndarray) -> float:
    """Rotation angle of a (1+3) little-group output via acos((tr - 1)/2) of
    its spatial block, argument clamped."""
    arg = (float(np.trace(np.asarray(w, dtype=float)[1:, 1:])) - 1.0) / 2.0
    return float(np.arccos(np.clip(arg, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# Seeded samplers for property suites
# ---------------------------------------------------------------------------


def random_proper_orthochronous(
    n: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Haar-like rotation times a boost of rapidity uniform in [-1.5, 1.5]
    along a Gaussian direction; a stack of `size` of them for an int.

    Each variable is drawn as one array for the whole stack: the rotations,
    then the directions, then the rapidities.  The boost is the closed form
    `_boost` at u = sinh(rapidity) times the unit direction, so at n = 1 it
    uses the direction's sign: a direction of -1 flips the rapidity's.
    """
    shape = () if size is None else (size,)
    rotation = spatial_rotation(sample_special_orthogonal(n, rng, size))
    direction = rng.standard_normal(shape + (n,))
    rapidity = rng.uniform(-1.5, 1.5, size)
    unit = direction / norms(direction)[..., None]
    return rotation @ _boost(np.sinh(rapidity)[..., None] * unit)


def random_poincare(
    n: int, rng: np.random.Generator, size: int | None = None
) -> PoincareTransform:
    """Translation uniform in [-5, 5]^(1+n), drawn first, with a
    random_proper_orthochronous Lorentz part."""
    shape = () if size is None else (size,)
    translation = rng.uniform(-5.0, 5.0, shape + (n + 1,))
    return PoincareTransform(translation, random_proper_orthochronous(n, rng, size))


def random_momentum(
    mass: float, n: int, rng: np.random.Generator, size: int | None = None
) -> MassiveMomentum:
    """The rest momentum moved by random_proper_orthochronous."""
    lam = random_proper_orthochronous(n, rng, size)
    return MassiveMomentum(apply_lorentz(lam, rest_momentum(mass, n).vector), mass)


def transforms_to_json(transforms: list[PoincareTransform]) -> str:
    """Log a transform list as a JSON array of {a, Lambda}, row-major matrices.

    A stacked transform in the list contributes one entry per sample.
    """
    doc = []
    for t in transforms:
        dim = t.n + 1
        translations = t.translation.reshape(-1, dim).tolist()
        matrices = t.lorentz.reshape(-1, dim, dim).tolist()
        doc.extend({"a": a, "Lambda": lam} for a, lam in zip(translations, matrices))
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
