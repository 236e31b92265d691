"""Constructors for the example theories, with their symmetry transformations.

The zoo covers classical simplex systems ("bit", "trit", ...), regular
polygon systems, Euclidean ball systems (the d = 3 case reproduces qubit
statistics), and the polygon-4 system used as one half of a maximally
nonlocal box pair.  Theories are addressable by name: "bit", "simplex:N",
"polygon:N", "ball:d", "boxworld".

Degenerate zero-dimensional systems (a single state) are representable in
the core containers but every constructor here rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .minkowski import spatial_rotation
from .rotations import plane_rotation, rotation_between, sample_special_orthogonal

DEFAULT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class PolygonParams:
    """Geometry of a regular polygon system: side count, circumradius, step angle."""

    sides: int
    radius: float
    step: float


def polygon_params(sides: int) -> PolygonParams:
    if sides < 3:
        raise ValueError("polygon systems need at least 3 sides")
    radius = float(np.sqrt(1.0 / np.cos(np.pi / sides)))
    return PolygonParams(sides, radius, 2.0 * np.pi / sides)


def polygon_rotation(sides: int, j: int) -> np.ndarray:
    """Rotation by j * (2 pi / N) in the two reduced coordinates.

    Periodic in j with period N and satisfies the inverse pairing of j with
    (N - j) mod N.
    """
    theta = 2.0 * np.pi * j / sides
    out = np.eye(3)
    out[1:, 1:] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return out


def polygon_theory(sides: int) -> TheorySpec:
    """Regular polygon system: N pure states on a circle of radius sqrt(sec(pi/N)).

    Even N ships the N extremal effects at half the vertex vectors rotated by
    half a step; odd N ships N extremal effects aligned with the vertices,
    scaled by 1/(1 + r^2), together with their complements.  Both conventions
    realize the full normalized effect set.
    """
    p = polygon_params(sides)
    idx = np.arange(sides)
    state_angles = 2.0 * np.pi * (idx + 1) / sides
    states = np.column_stack(
        [np.ones(sides), p.radius * np.cos(state_angles), p.radius * np.sin(state_angles)]
    )
    if sides % 2 == 0:
        eff_angles = (2.0 * idx + 1) * np.pi / sides
        extremal = 0.5 * np.column_stack(
            [np.ones(sides), p.radius * np.cos(eff_angles), p.radius * np.sin(eff_angles)]
        )
        generators = np.vstack([zero_effect(2), unit_effect(2), extremal])
    else:
        scale = 1.0 / (1.0 + p.radius**2)
        extremal = scale * states
        complements = unit_effect(2) - extremal
        generators = np.vstack([zero_effect(2), unit_effect(2), extremal, complements])
    return TheorySpec(
        name=f"polygon:{sides}",
        dim=2,
        states=Polytope(states),
        effects=PolytopeEffects(generators),
        reversibles=(polygon_rotation(sides, 1),),
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
    stored generators are quarter-turn coordinate-plane rotations; Haar-like
    samples come from `sample_ball_rotations`.  d = 3 reproduces the qubit:
    the pairing of an extremal effect with a pure state is (1 + cos)/2 of the
    angle between their axes.
    """
    if d < 1:
        raise ValueError("ball systems need dimension at least 1")
    if d == 1:
        reversibles: tuple[np.ndarray, ...] = (np.eye(2),)
    else:
        gens = []
        for i in range(d):
            for j in range(i + 1, d):
                gens.append(spatial_rotation(plane_rotation(d, i, j, np.pi / 2)))
        reversibles = tuple(gens)
    return TheorySpec(
        name=f"ball:{d}",
        dim=d,
        states=Ball(d),
        effects=BallEffects(d),
        reversibles=reversibles,
        effect_convention="all-normalized",
    )


def ball_rotation_to(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Reversible ball map taking the pure state along `source` to `target`."""
    return spatial_rotation(rotation_between(source, target))


def sample_ball_rotations(d: int, count: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return list(spatial_rotation(sample_special_orthogonal(d, rng, count)))


def sample_ball_state(d: int, rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform() ** (1.0 / d)
    return np.concatenate([[1.0], v])


def sample_ball_effect(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random normalized effect (e0, e) with 0 <= e0 +- ||e|| <= 1."""
    s = 0.5 * rng.uniform()
    e0 = rng.uniform(s, 1.0 - s)
    v = rng.standard_normal(d)
    v *= s / np.linalg.norm(v)
    return np.concatenate([[e0], v])


@dataclass(frozen=True)
class BlochVector:
    """Expansion coefficients of a qubit density matrix in the Pauli basis."""

    r: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.r, dtype=float)
        if vec.shape != (3,):
            raise ValueError("a Bloch vector has exactly three components")
        if np.linalg.norm(vec) > 1.0 + DEFAULT_NORM_TOL:
            raise ValueError("Bloch vector norm exceeds 1")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "r", vec)


def density_to_gpt(r) -> np.ndarray:
    """Map a Bloch vector to the ball:3 state (1, r)."""
    vec = r.r if isinstance(r, BlochVector) else np.asarray(r, dtype=float)
    if np.linalg.norm(vec) > 1.0 + DEFAULT_NORM_TOL:
        raise ValueError("Bloch vector norm exceeds 1")
    return np.concatenate([[1.0], vec])


@dataclass(frozen=True)
class BoxWorld:
    """Polygon-4 local system plus the hooks for building the nonlocal box.

    `measurements` are the two binary observables per site, each a pair of
    extremal effects summing to the unit effect.  The maximally nonlocal box
    state itself is not hard-coded anywhere: it is obtained operationally as
    the optimizer of the CHSH functional over the maximal tensor product.
    """

    local: TheorySpec
    measurements: tuple[tuple[np.ndarray, np.ndarray], ...]
    measurement_indices: tuple[tuple[int, int], ...]


def box_world_pair() -> BoxWorld:
    local = polygon_theory(4)
    extremal = local.effects.generators[2:]  # rows after zero and unit
    pairs = ((0, 2), (1, 3))
    measurements = tuple((extremal[i].copy(), extremal[j].copy()) for i, j in pairs)
    return BoxWorld(local=local, measurements=measurements, measurement_indices=pairs)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def theory_names() -> list[str]:
    return ["bit", "simplex:N", "polygon:N", "ball:d", "boxworld"]


def get_theory(name: str) -> TheorySpec:
    if name == "bit":
        return classical_simplex(1)
    if name == "boxworld":
        return box_world_pair().local
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


# ---------------------------------------------------------------------------
# Exact (symbolic) constructors, used by the exact verification paths
# ---------------------------------------------------------------------------


def exact_polygon(sides: int):
    """Polygon states and effect generators with exact symbolic entries.

    Returns (states, effects) as lists of sympy column vectors; pairings of
    these simplify to exact rationals for the small side counts where the
    trigonometric values have closed forms.
    """
    import sympy as sp

    if sides < 3:
        raise ValueError("polygon systems need at least 3 sides")
    r = sp.sqrt(1 / sp.cos(sp.pi / sides))
    states = [
        sp.Matrix(
            [
                1,
                r * sp.cos(2 * sp.pi * (i + 1) / sides),
                r * sp.sin(2 * sp.pi * (i + 1) / sides),
            ]
        )
        for i in range(sides)
    ]
    if sides % 2 == 0:
        effects = [
            sp.Matrix(
                [
                    sp.Rational(1, 2),
                    r * sp.cos((2 * i + 1) * sp.pi / sides) / 2,
                    r * sp.sin((2 * i + 1) * sp.pi / sides) / 2,
                ]
            )
            for i in range(sides)
        ]
    else:
        scale = 1 / (1 + r**2)
        effects = [scale * s for s in states]
    return states, effects


def exact_classical_simplex(n: int):
    """Simplex states and dual-basis effects with exact symbolic entries."""
    import sympy as sp

    if n < 1:
        raise ValueError("a classical system needs at least two outcomes")
    basis = [sp.Matrix([1 if k == i else 0 for k in range(n + 1)]) for i in range(n + 1)]
    centroid = sp.Matrix([sp.Rational(1, n + 1)] * (n + 1))
    centred = [b - centroid for b in basis]
    diffs = [basis[j + 1] - basis[j] for j in range(n)]
    ortho = sp.GramSchmidt(diffs, orthonormal=True)
    scale = sp.sqrt(sp.Rational(n + 1, n))
    points = [sp.Matrix([scale * (q.dot(x)) for q in ortho]) for x in centred]
    states = [sp.Matrix([1, *p]) for p in points]
    effects = [
        sp.Matrix([sp.Rational(1, n + 1), *(sp.Rational(n, n + 1) * p)]) for p in points
    ]
    return states, effects
