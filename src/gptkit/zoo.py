"""Constructors for the example theories, with their symmetry transformations.

The zoo covers classical simplex systems ("bit", "trit", ...), regular
polygon systems and Euclidean ball systems (the d = 3 case reproduces qubit
statistics).  Theories are addressable by name: "bit", "simplex:N",
"polygon:N", "ball:d", and "boxworld", which names polygon:4, one half of a
maximally nonlocal box pair (Barrett, PRA 75, 032304 (2007)); its two
binary observables per site are `core.binary_measurements` of it.  The
nonlocal box state is not stored: it is the optimizer of the CHSH
functional over the maximal tensor product.

Degenerate zero-dimensional systems (a single state) are representable in
the core containers but every constructor here rejects them.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Ball,
    BallEffects,
    Polytope,
    PolytopeEffects,
    TheorySpec,
    unit_effect,
    zero_effect,
)
from .rotations import circle_point, norms

DEFAULT_NORM_TOL = 1e-9


def _circle(ks, m: int, radius: float) -> np.ndarray:
    """Points radius * (cos, sin)(2 pi k / m), one row per k."""
    return radius * np.array([circle_point(k, m) for k in ks])


def polygon_rotation(sides: int, j: int) -> np.ndarray:
    """Rotation by j * (2 pi / N) in the two reduced coordinates.

    Periodic in j with period N and satisfies the inverse pairing of j with
    (N - j) mod N; a quarter turn is a signed permutation.
    """
    c, s = circle_point(j, sides)
    out = np.eye(3)
    out[1:, 1:] = [[c, -s], [s, c]]
    return out


def polygon_theory(sides: int) -> TheorySpec:
    """Regular polygon system: N pure states on a circle of radius sqrt(sec(pi/N)).

    The stored reversibles generate the dihedral group D_N (Janotta,
    Gogolin, Barrett & Brunner, NJP 13, 063024 (2011)): the rotation by
    2 pi / N and the mirror y -> -y, which fixes the vertex at angle 0.
    Even N ships the N extremal effects at half the vertex vectors rotated by
    half a step; odd N ships N extremal effects aligned with the vertices,
    scaled by 1/(1 + r^2), together with their complements.  Both conventions
    realize the full normalized effect set.  Coordinates come from
    `circle_point`, so zeros are 0.0 and mirror and antipodal coordinates
    are exact negatives, which keeps the exact simplex's integers small.
    """
    if sides < 3:
        raise ValueError("polygon systems need at least 3 sides")
    radius = float(np.sqrt(1.0 / np.cos(np.pi / sides)))
    ones = np.ones((sides, 1))
    states = np.hstack([ones, _circle(range(1, sides + 1), sides, radius)])
    if sides % 2 == 0:
        extremal = 0.5 * np.hstack([ones, _circle(range(1, 2 * sides, 2), 2 * sides, radius)])
        generators = np.vstack([zero_effect(2), unit_effect(2), extremal])
    else:
        scale = 1.0 / (1.0 + radius**2)
        # u - c is exact (Sterbenz: c's first entry lies in [1/2, 1]), so
        # each pair sums to the unit exactly; u - e would round
        complements = unit_effect(2) - scale * states
        extremal = unit_effect(2) - complements
        generators = np.vstack([zero_effect(2), unit_effect(2), extremal, complements])
    return TheorySpec(
        name=f"polygon:{sides}",
        dim=2,
        states=Polytope(states),
        effects=PolytopeEffects(generators),
        reversibles=(polygon_rotation(sides, 1), np.diag([1.0, 1.0, -1.0])),
        effect_convention="all-normalized",
    )


def _simplex_points(n: int) -> np.ndarray:
    """Unit-circumradius regular n-simplex vertices in R^n, centroid at 0."""
    basis = np.eye(n + 1)
    centred = basis - np.full((n + 1, n + 1), 1.0 / (n + 1))
    # orthonormal basis of the sum-zero hyperplane from consecutive differences
    diffs = [basis[j + 1] - basis[j] for j in range(n)]
    ortho: list[np.ndarray] = []
    for d in diffs:
        v = d.copy()
        for q in ortho:
            v -= (v @ q) * q
        ortho.append(v / np.linalg.norm(v))
    q = np.array(ortho)
    return np.sqrt((n + 1) / n) * centred @ q.T


def _permutation_map(states: np.ndarray, perm: np.ndarray) -> np.ndarray:
    z = states.T  # states as columns
    p = np.zeros_like(z)
    for i, t in enumerate(perm):
        p[t, i] = 1.0
    return z @ p.T @ np.linalg.inv(z)


def classical_simplex(n: int) -> TheorySpec:
    """Classical system with n + 1 perfectly distinguishable outcomes.

    The pure states form a regular n-simplex with centroid at the origin and
    circumradius 1; the n + 1 extremal effects form the dual basis, so they
    sum to the unit effect and pair with the states as a Kronecker delta.
    The shipped effect set is the hull of that single distinguishing
    measurement (a restricted convention: for n >= 2 it is a proper subset of
    all normalized effects).
    """
    if n < 1:
        raise ValueError("a classical system needs at least two outcomes")
    if n == 1:
        states = np.array([[1.0, -1.0], [1.0, 1.0]])
        extremal = 0.5 * states
        reversibles: tuple[np.ndarray, ...] = (np.diag([1.0, -1.0]),)
    else:
        pts = _simplex_points(n)
        states = np.hstack([np.ones((n + 1, 1)), pts])
        extremal = np.hstack([np.full((n + 1, 1), 1.0 / (n + 1)), pts * (n / (n + 1))])
        swap = np.arange(n + 1)
        swap[[0, 1]] = [1, 0]
        cycle = np.roll(np.arange(n + 1), 1)
        reversibles = (
            _permutation_map(states, swap),
            _permutation_map(states, cycle),
        )
    generators = np.vstack([zero_effect(n), unit_effect(n), extremal])
    return TheorySpec(
        name="bit" if n == 1 else f"simplex:{n}",
        dim=n,
        states=Polytope(states),
        effects=PolytopeEffects(generators),
        reversibles=reversibles,
        effect_convention="restricted",
    )


def euclidean_ball(d: int) -> TheorySpec:
    """Theory whose states fill the unit d-ball; pure states are the sphere.

    Extremal effects are half the pure-state vectors, and the reversible maps
    are the special-orthogonal rotations of the reduced coordinates.  The
    stored generators are the quarter-turns of the coordinate planes, each
    the signed permutation e_i -> e_j, e_j -> -e_i (i < j), so every entry
    is exactly -1.0, 0.0 or 1.0; Haar-like samples are
    `minkowski.spatial_rotation(sample_special_orthogonal(d, rng, size))`.
    d = 3 reproduces the qubit: the pairing of an extremal effect with a pure
    state is (1 + cos)/2 of the angle between their axes.
    """
    if d < 1:
        raise ValueError("ball systems need dimension at least 1")
    if d == 1:
        reversibles: tuple[np.ndarray, ...] = (np.eye(2),)
    else:
        gens = []
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                quarter_turn = np.eye(d + 1)
                quarter_turn[i, i] = quarter_turn[j, j] = 0.0
                quarter_turn[j, i], quarter_turn[i, j] = 1.0, -1.0
                gens.append(quarter_turn)
        reversibles = tuple(gens)
    return TheorySpec(
        name=f"ball:{d}",
        dim=d,
        states=Ball(d),
        effects=BallEffects(d),
        reversibles=reversibles,
        effect_convention="all-normalized",
    )


def sample_ball_state(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Random ball state (1, r): a Gaussian direction, then a radius
    uniform^(1/d), so r is uniform in the d-ball; a stack of `size` of them
    for an int."""
    shape = () if size is None else (size,)
    v = rng.standard_normal(shape + (d,))
    v = v / norms(v)[..., None]
    v = v * np.expand_dims(rng.uniform(size=size) ** (1.0 / d), -1)
    return np.concatenate([np.ones(shape + (1,)), v], axis=-1)


def sample_ball_effect(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Random normalized effect (e0, e) with 0 <= e0 +- ||e|| <= 1; a stack
    of `size` of them for an int."""
    shape = () if size is None else (size,)
    s = 0.5 * rng.uniform(size=size)
    e0 = rng.uniform(s, 1.0 - s)
    v = rng.standard_normal(shape + (d,))
    v = v * np.expand_dims(s / norms(v), -1)
    return np.concatenate([np.expand_dims(e0, -1), v], axis=-1)


def density_to_gpt(r) -> np.ndarray:
    """Map a Bloch vector, three components of norm at most 1, to the ball:3
    state (1, r)."""
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,):
        raise ValueError("a Bloch vector has exactly three components")
    if np.linalg.norm(vec) > 1.0 + DEFAULT_NORM_TOL:
        raise ValueError("Bloch vector norm exceeds 1")
    return np.concatenate([[1.0], vec])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def theory_names() -> list[str]:
    return ["bit", "simplex:N", "polygon:N", "ball:d", "boxworld"]


_THEORIES: dict[str, TheorySpec] = {}


def get_theory(name: str) -> TheorySpec:
    """The zoo theory called `name`.  Theories are frozen, so each name is
    built once and the instance is shared, and "boxworld" is the instance
    of "polygon:4"; an unknown name raises KeyError and is not cached."""
    theory = _THEORIES.get(name)
    if theory is None:
        theory = _THEORIES[name] = _build_theory(name)
    return theory


def _build_theory(name: str) -> TheorySpec:
    if name == "bit":
        return classical_simplex(1)
    if name == "boxworld":
        return get_theory("polygon:4")
    if ":" in name:
        kind, _, arg = name.partition(":")
        size = int(arg)
        if kind == "simplex":
            return classical_simplex(size)
        if kind == "polygon":
            return polygon_theory(size)
        if kind == "ball":
            return euclidean_ball(size)
    raise KeyError(f"unknown theory name: {name!r}")
