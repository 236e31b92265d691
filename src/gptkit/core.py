"""Vector-space machinery for finite-dimensional operational theories.

A system of dimension d lives in R^(d+1).  States carry a leading 1, the
unit effect is (1, 0, ..., 0), effects act through the Euclidean dot
product, and transformations are (d+1)x(d+1) real matrices.  Two state-space
shapes are supported: convex polytopes given by their vertices and unit
Euclidean balls centred at the origin of the last d coordinates.

All containers are immutable after construction and every operation is a
pure function, so concurrent read-only use is safe.  The one memo, a
theory's `binary_measurements` listing, is built from the theory alone, so
two threads that build it at once store equal listings.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from . import lp
from .rotations import deterministic_sphere_points

DEFAULT_TOL = 1e-9

# a ball is discretized at these fixed sphere points: its extreme states,
# and its extremal effects (1, v)/2
BALL_STATE_COUNT = 200
BALL_EFFECT_COUNT = 64
# a ball's binary measurements are antipodal effect pairs along this many
# fixed directions
BALL_MEASUREMENT_COUNT = 6


def _frozen_array(a, dims: int) -> np.ndarray:
    out = np.array(a, dtype=float)
    if out.ndim != dims:
        raise ValueError(f"expected a {dims}-dimensional array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("entries must be finite")
    out.setflags(write=False)
    return out


def unit_effect(dim: int) -> np.ndarray:
    """The effect giving probability 1 on every state: (1, 0, ..., 0)."""
    u = np.zeros(dim + 1)
    u[0] = 1.0
    return u


def zero_effect(dim: int) -> np.ndarray:
    return np.zeros(dim + 1)


def state_from_point(tilde: Sequence[float]) -> np.ndarray:
    """Lift a point of the reduced state set to a full state vector."""
    return np.concatenate([[1.0], np.asarray(tilde, dtype=float)])


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many states, one per row of `vertices`; the
    rows are read as its extreme points (`is_pure`, `is_reversible`)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.vertices, 2)
        if v.shape[0] == 0:
            raise ValueError("a polytope needs at least one vertex")
        if np.max(np.abs(v[:, 0] - 1.0)) > 0:
            raise ValueError("state vertices must have first entry exactly 1")
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1] - 1


@dataclass(frozen=True)
class Ball:
    """Unit Euclidean ball in the last `dim` coordinates."""

    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")


ConvexSet = Union[Polytope, Ball]


@dataclass(frozen=True)
class PolytopeEffects:
    """Effect space given as the convex hull of generator rows.

    The generator list always contains the unit effect and the zero effect.
    """

    generators: np.ndarray

    def __post_init__(self):
        g = _frozen_array(self.generators, 2)
        d = g.shape[1] - 1
        has_unit = np.any(np.all(np.abs(g - unit_effect(d)) < 1e-12, axis=1))
        has_zero = np.any(np.all(np.abs(g) < 1e-12, axis=1))
        if not (has_unit and has_zero):
            raise ValueError("effect generators must include the unit and zero effects")
        object.__setattr__(self, "generators", g)

    @property
    def dim(self) -> int:
        return self.generators.shape[1] - 1


@dataclass(frozen=True)
class BallEffects:
    """Dual of the unit ball: hull of zero, unit, and (1, v)/2 for unit v."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")


EffectSpace = Union[PolytopeEffects, BallEffects]


@dataclass(frozen=True)
class TheorySpec:
    """A complete single-system theory: states, effects, reversible maps.

    `effect_convention` records whether the model ships every normalized
    effect ("all-normalized") or a restricted generating set ("restricted");
    no global choice is imposed across the zoo.  Construction rejects
    effects that leave [0, 1] on the states: hull generators through
    `is_normalized_effect`, the ball dual through its least pairing
    `_effect_floor` with the extreme states.
    """

    name: str
    dim: int
    states: ConvexSet
    effects: EffectSpace
    reversibles: tuple[np.ndarray, ...] = field(default_factory=tuple)
    effect_convention: str = "all-normalized"

    def __post_init__(self):
        state_dim = self.states.dim if isinstance(self.states, (Polytope, Ball)) else -1
        if state_dim != self.dim or self.effects.dim != self.dim:
            raise ValueError("state and effect spaces must share the theory dimension")
        revs = tuple(_frozen_array(m, 2) for m in self.reversibles)
        for m in revs:
            if m.shape != (self.dim + 1, self.dim + 1):
                raise ValueError("reversible generators must be (d+1)x(d+1)")
        object.__setattr__(self, "reversibles", revs)
        if isinstance(self.effects, PolytopeEffects):
            if not is_normalized_effect(self, self.effects.generators):
                raise ValueError("an effect generator leaves [0, 1] on the state space")
        elif _effect_floor(self, self.extreme_states()).min() < -DEFAULT_TOL:
            raise ValueError("ball-dual effects need the states inside the unit ball")

    @property
    def unit(self) -> np.ndarray:
        return unit_effect(self.dim)

    @property
    def zero(self) -> np.ndarray:
        return zero_effect(self.dim)

    def extreme_states(self) -> np.ndarray:
        """Vertices for polytopes; (1, v) at `BALL_STATE_COUNT` fixed sphere
        points for balls.

        With `effect_rows`, the only place a ball is discretized.
        """
        if isinstance(self.states, Polytope):
            return self.states.vertices
        return _sphere_states(self.dim, BALL_STATE_COUNT)

    def effect_rows(self) -> np.ndarray:
        """The effect space's generators without the zero effect.

        Polytope effect spaces keep their stored order.  Ball effect spaces
        list the `BALL_EFFECT_COUNT` extremal effects (1, v)/2 at fixed sphere
        points, then the unit.
        """
        if isinstance(self.effects, PolytopeEffects):
            gens = self.effects.generators
            return gens[np.linalg.norm(gens, axis=1) > 1e-12]
        return np.vstack([0.5 * _sphere_states(self.dim, BALL_EFFECT_COUNT), self.unit])

    def extremal_effects(self) -> np.ndarray:
        """`effect_rows` without the unit effect."""
        rows = self.effect_rows()
        return rows[np.abs(rows - self.unit).max(axis=1) > 1e-12]


def _sphere_states(dim: int, count: int) -> np.ndarray:
    return np.hstack([np.ones((count, 1)), deterministic_sphere_points(dim, count)])


def _dedupe_rows(rows: np.ndarray) -> np.ndarray:
    first = {}  # rows keyed at 12 decimals, first occurrence kept, in order
    for row in rows:
        first.setdefault(tuple(np.round(row, 12)), row)
    return np.array(list(first.values()))


def binary_measurements(theory: TheorySpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two-outcome measurements (e, u - e) available in the theory.

    Polytope effect spaces are scanned for extremal pairs summing to the
    unit effect; classical systems without such pairs fall back to
    coarse-grainings of their distinguishing measurement.  Ball effect
    spaces return antipodal extremal pairs along `BALL_MEASUREMENT_COUNT`
    fixed directions, each distinct direction once (`ball:1` has two).

    The pairs are listed on a theory's first call and kept on the theory.
    Their arrays are read-only and each call returns a new list, so no
    caller can change what the next one gets.
    """
    pairs = vars(theory).get("_binary_measurements")
    if pairs is None:
        pairs = _binary_measurement_pairs(theory)
        for pair in pairs:
            for effect in pair:
                effect.setflags(write=False)
        object.__setattr__(theory, "_binary_measurements", pairs)
    return list(pairs)


def _binary_measurement_pairs(theory: TheorySpec) -> list[tuple[np.ndarray, np.ndarray]]:
    u = theory.unit
    if isinstance(theory.effects, BallEffects):
        effects = _dedupe_rows(0.5 * _sphere_states(theory.dim, BALL_MEASUREMENT_COUNT))
        return [(e, u - e) for e in effects]
    ext = theory.extremal_effects()
    pairs = []
    used = set()
    sums_to_unit = np.abs(ext[:, None] + ext[None] - u).max(-1) <= 1e-10
    for i, j in np.argwhere(sums_to_unit).tolist():  # row by row: the greedy i < j scan
        if i < j and i not in used and j not in used:
            pairs.append((ext[i].copy(), ext[j].copy()))
            used.update((i, j))
    if pairs:
        return pairs
    # restricted classical effect sets: coarse-grain the partition measurement
    if np.abs(ext.sum(axis=0) - u).max() <= 1e-10:
        n = len(ext)
        for r in range(1, n // 2 + 1):
            for subset in itertools.combinations(range(n), r):
                plus = ext[list(subset)].sum(axis=0)
                pairs.append((plus, u - plus))
    return pairs


def probability(effect: np.ndarray, state: np.ndarray) -> float:
    """Outcome probability: the Euclidean dot product of effect and state.

    The raw value is returned unclamped; clipping is a reporting concern.
    """
    e = np.asarray(effect, dtype=float)
    z = np.asarray(state, dtype=float)
    if e.shape != z.shape or e.ndim != 1:
        raise ValueError(f"effect/state length mismatch: {e.shape} vs {z.shape}")
    return float(e @ z)


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    margin: float
    detail: str = ""


def validate_state(
    space: ConvexSet,
    v: np.ndarray,
    tol: float = DEFAULT_TOL,
    exact: bool = False,
) -> MembershipReport:
    """Membership test for a candidate state vector.

    Polytopes are decided by hull membership: the margin is the l1 residual
    of the best convex decomposition, and the state is a member when it is
    at most `tol`, on both paths; the exact path computes the margin exactly
    from the given floats.  Balls are decided analytically via the norm of
    the reduced part.
    """
    vec = np.asarray(v, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != space.dim + 1:
        return MembershipReport(False, float("inf"), "dimension mismatch")
    if not np.all(np.isfinite(vec)):
        return MembershipReport(False, float("inf"), "non-finite entries")
    if abs(vec[0] - 1.0) > tol:
        return MembershipReport(False, abs(vec[0] - 1.0), "first entry must be 1")
    if isinstance(space, Ball):
        norm = float(np.linalg.norm(vec[1:]))
        if norm <= 1.0 + tol:
            return MembershipReport(True, max(0.0, norm - 1.0), "inside ball")
        return MembershipReport(False, norm - 1.0, "outside ball")
    res = lp.hull_membership(space.vertices, vec, tol=tol, exact=exact)
    detail = "convex combination found" if res.member else "outside hull"
    return MembershipReport(res.member, res.margin, detail)


def is_pure(space: ConvexSet, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Is `v` an extreme point of the state space?

    Raises ValueError when `v` is not a member at all.
    """
    report = validate_state(space, v, tol)
    if not report.member:
        raise ValueError(f"not a state of the space: {report.detail}")
    vec = np.asarray(v, dtype=float)
    if isinstance(space, Ball):
        return abs(float(np.linalg.norm(vec[1:])) - 1.0) <= tol
    dists = np.max(np.abs(space.vertices - vec), axis=1)
    return bool(np.min(dists) <= tol)


def _pairing_range(space: ConvexSet, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest pairing of each row (last axis, any leading axes)
    with the states of `space`: a scan of a polytope's vertices by np.einsum,
    as `symmetry` multiplies, so no BLAS call is made; r0 -+ ||r reduced|| on a ball."""
    if isinstance(space, Ball):
        r = np.linalg.norm(rows[..., 1:], axis=-1)
        return rows[..., 0] - r, rows[..., 0] + r
    values = np.einsum("...i,vi->...v", rows, space.vertices)
    return values.min(axis=-1), values.max(axis=-1)


def _effect_floor(theory: TheorySpec, rows: np.ndarray) -> np.ndarray:
    """Least pairing of each row with the theory's `effect_rows`, closed for
    a ball's: the unit gives r0, the effects (1, v)/2 half the ball's least."""
    if isinstance(theory.effects, PolytopeEffects):
        return (rows @ theory.effect_rows().T).min(axis=-1)
    return np.minimum(rows[..., 0], 0.5 * _pairing_range(Ball(theory.dim), rows)[0])


def is_normalized_effect(theory: TheorySpec, e: np.ndarray) -> bool:
    """Does `e` give values in [0, 1], within `DEFAULT_TOL`, on the whole
    state space?

    `e` is one effect or a stack of them, one per row; a stack passes only
    if every row does.  Each row's range on the state space is its
    `_pairing_range`: at the vertices of a polytope, exact on a ball.
    """
    vec = np.asarray(e, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != theory.dim + 1:
        raise ValueError("effect has the wrong length for this theory")
    lo, hi = _pairing_range(theory.states, vec)
    return bool(np.min(lo) >= -DEFAULT_TOL and np.max(hi) <= 1.0 + DEFAULT_TOL)


def apply_map(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    mat = np.asarray(m, dtype=float)
    vec = np.asarray(v, dtype=float)
    if mat.shape[1] != vec.shape[0]:
        raise ValueError("matrix/vector dimension mismatch")
    return mat @ vec


def _row_permutation(rows: np.ndarray, moved: np.ndarray, tol: float) -> np.ndarray | None:
    """`perm` with moved[i] = rows[perm[i]] entrywise within `tol`, one to
    one, or None.  A moved row that matches two rows matches none, and the
    first moved row without a unique match ends the search."""
    perm = []
    for r in moved:
        match = np.flatnonzero(np.abs(rows - r).max(axis=1) <= tol)
        if len(match) != 1:
            return None
        perm.append(int(match[0]))
    return np.array(perm) if len(set(perm)) == len(rows) else None


# pairs times rays in one block of the adjacency test: 0.5 MB per word of a
# tight set.  Unblocked, polygon:8^2 peaked 48 MB higher and ran slower.
_PAIR_BLOCK = 1 << 16


def _extreme_rays(rows: np.ndarray, tol: float) -> np.ndarray:
    """The extreme rays of the cone {x : rows @ x >= 0}, each scaled to a
    largest entry of magnitude 1, by double description (Motzkin, Raiffa,
    Thompson & Thrall 1953; Fukuda & Prodon, LNCS 1120, 91 (1996)).

    The cone starts as that of the first dim independent rows: its rays are
    the columns of their inverse.  The other rows then cut it in order.  A
    ray is tight on a row when |row . ray| <= tol and below it when
    row . ray < -tol.  A row drops the rays below it and adds, for each
    adjacent pair of a ray above and a ray below, their combination on the
    row.  The pair is adjacent when it shares at least dim - 2 tight rows and
    no third ray is tight on all of them (Fukuda & Prodon's combinatorial
    test).  Tight sets are bit rows of 64-bit words, and the rays below are
    paired one at a time with every ray above.  Rows of rank below dim leave
    a line in the cone, and raise ValueError.
    """
    count, dim = rows.shape
    basis = []
    for i in range(count):
        if np.linalg.matrix_rank(rows[basis + [i]]) > len(basis):
            basis.append(i)
            if len(basis) == dim:
                break
    else:
        raise ValueError("the product effects do not bound a polytope")
    # bit i of flags[i] marks row i
    flags = np.packbits(np.eye(count, 64 * -(-count // 64), dtype=bool), axis=1).view(np.uint64)
    rays = np.linalg.inv(rows[basis]).T
    rays /= np.abs(rays).max(axis=1, keepdims=True)
    tight = np.bitwise_or.reduce(flags[basis]) ^ flags[basis]  # all basis rows but its own
    for k in sorted(set(range(count)) - set(basis)):
        side = rays @ rows[k]
        above, below = side > tol, side < -tol
        tight[~(above | below)] |= flags[k]
        up = np.flatnonzero(above)
        tight_up = tight[up]
        new_rays, new_tight = [rays[~below]], [tight[~below]]
        step = max(1, _PAIR_BLOCK // len(tight))
        for n in np.flatnonzero(below):
            common = tight_up & tight[n]
            pairs = np.flatnonzero(np.bitwise_count(common).sum(axis=1) >= dim - 2)
            common = common[pairs]
            # rays tight on all of a pair's common rows, a block of pairs at a time
            holders = np.concatenate([
                ((tight[None] & block[:, None]) == block[:, None]).all(axis=2).sum(axis=1)
                for block in np.split(common, range(step, len(common), step))
            ])
            p = up[pairs[holders == 2]]
            combined = side[p, None] * rays[n] - side[n] * rays[p]
            new_rays.append(combined / np.abs(combined).max(axis=1, keepdims=True))
            new_tight.append(common[holders == 2] | flags[k])
        rays, tight = np.vstack(new_rays), np.vstack(new_tight)
    return rays


def is_reversible(theory: TheorySpec, m: np.ndarray) -> bool:
    """Is `m` a reversible transformation of the theory?  Singular maps
    report False.  An affine bijection permutes a polytope's vertices, so a
    polytope map is reversible iff it permutes the distinct vertices within
    `DEFAULT_TOL`; one of the ball fixes its centre, so a ball map is
    reversible iff it is 1 (+) O(d): first row and column e0, block
    orthogonal.  No LP is solved.
    """
    mat = np.asarray(m, dtype=float)
    if mat.shape != (theory.dim + 1, theory.dim + 1):
        raise ValueError("transformation has the wrong shape for this theory")
    if abs(np.linalg.det(mat)) <= DEFAULT_TOL:
        return False
    if isinstance(theory.states, Polytope):
        vertices = _dedupe_rows(theory.states.vertices)
        moved = np.einsum("ij,vj->vi", mat, vertices)
        return _row_permutation(vertices, moved, DEFAULT_TOL) is not None
    e0, block = unit_effect(theory.dim), mat[1:, 1:]
    deviations = (mat[0] - e0, mat[:, 0] - e0, block.T @ block - np.eye(theory.dim))
    return all(np.max(np.abs(x)) <= DEFAULT_TOL for x in deviations)


def convex_mix(weighted: Iterable[tuple[float, np.ndarray]]) -> np.ndarray:
    """Form the mixture sum_j q_j zeta_j of states with probabilities q_j,
    which must be nonnegative and sum to 1 within `DEFAULT_TOL`."""
    pairs = [(float(q), np.asarray(z, dtype=float)) for q, z in weighted]
    if not pairs:
        raise ValueError("empty mixture")
    weights = np.array([q for q, _ in pairs])
    if weights.min() < -DEFAULT_TOL:
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > DEFAULT_TOL:
        raise ValueError(f"mixture weights sum to {weights.sum()}, not 1")
    return sum(q * z for q, z in pairs)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def theory_to_dict(theory: TheorySpec) -> dict:
    if isinstance(theory.states, Polytope):
        states = {"kind": "polytope", "vertices": theory.states.vertices.tolist()}
    else:
        states = {"kind": "ball", "d": theory.states.dim}
    if isinstance(theory.effects, PolytopeEffects):
        effects = {"kind": "hull", "generators": theory.effects.generators.tolist()}
    else:
        effects = {"kind": "ball-dual", "d": theory.effects.dim}
    return {
        "name": theory.name,
        "d": theory.dim,
        "states": states,
        "effects": effects,
        "reversibles": [m.tolist() for m in theory.reversibles],
        "effect_convention": theory.effect_convention,
    }


def theory_to_json(theory: TheorySpec) -> str:
    """Canonical JSON form; matrices are nested row-major lists."""
    return json.dumps(theory_to_dict(theory), sort_keys=True, separators=(",", ":"))


def theory_from_dict(doc: dict) -> TheorySpec:
    if doc["states"]["kind"] == "polytope":
        states: ConvexSet = Polytope(np.array(doc["states"]["vertices"]))
    else:
        states = Ball(int(doc["states"]["d"]))
    if doc["effects"]["kind"] == "hull":
        effects: EffectSpace = PolytopeEffects(np.array(doc["effects"]["generators"]))
    else:
        effects = BallEffects(int(doc["effects"]["d"]))
    return TheorySpec(
        name=doc["name"],
        dim=int(doc["d"]),
        states=states,
        effects=effects,
        reversibles=tuple(np.array(m) for m in doc.get("reversibles", [])),
        effect_convention=doc.get("effect_convention", "all-normalized"),
    )


def theory_from_json(text: str) -> TheorySpec:
    return theory_from_dict(json.loads(text))
