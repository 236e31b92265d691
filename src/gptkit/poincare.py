"""Momentum-labelled states, frame-change invariance, and representation checks.

A classical-momentum state pairs an on-shell momentum label with an internal
finite-dimensional state; the pairing against a momentum-labelled effect
carries a Kronecker factor on the labels (labels agreeing within a tolerance
multiply the internal dot product, anything else gives exactly zero - the
continuum delta is rendered as exact label agreement).

Frame changes act on the label through their Lorentz part and on the
internal vectors through an assigned representation.  Effects transform with
the transpose inverse of the state map: that is the unique linear choice
keeping every outcome probability invariant.

The pairing, the frame changes, the invariance deviation and the detector
experiment take leading sample axes, as the `minkowski` kernels do, with one
BLAS product per sample: a stack equals one-sample calls bit for bit.

Representation checking is extensional: group elements are sampled (or
enumerated), composed, and the assigned maps compared.  Every check ends in a
`CheckRow`: the worst measured deviation over its samples against a
tolerance, which alone decides whether it passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .core import Ball, validate_state
from .minkowski import MassiveMomentum, PoincareTransform, apply_lorentz, spatial_rotation
from .rotations import dots, norms, rotation_between, sample_special_orthogonal
from .zoo import polygon_rotation, polygon_theory

DEFAULT_P_TOL = 1e-9

DETECTOR_RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class ClassicalMomentumState:
    momentum: MassiveMomentum
    internal: np.ndarray

    def __post_init__(self):
        v = np.array(self.internal, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "internal", v)


class ClassicalMomentumEffect(ClassicalMomentumState):
    """A momentum-labelled effect: stored as a state is, moved by
    `transform_classical` through the transpose inverse of the state map."""


@dataclass(frozen=True)
class RepMap:
    """Assignment of internal linear maps to group elements.

    `state_map` gives the action on states; effects always move by its
    transpose inverse, so every pairing is preserved identically.
    """

    state_map: Callable[[Any], np.ndarray]

    def state(self, g) -> np.ndarray:
        return np.asarray(self.state_map(g), dtype=float)

    def effect(self, g) -> np.ndarray:
        return np.swapaxes(np.linalg.inv(self.state(g)), -1, -2)


@dataclass(frozen=True)
class GroupSample:
    """Finite slice of a group: elements, composition rule, identity.

    The elements are hashable and the slice is closed under `compose`: the
    composite of any two elements is again one of `elements`.
    """

    elements: tuple
    compose: Callable[[Any, Any], Any]
    identity: Any


def classical_pairing(
    effect: ClassicalMomentumEffect,
    state: ClassicalMomentumState,
) -> float | np.ndarray:
    """Kronecker label agreement, labels within `DEFAULT_P_TOL` entrywise,
    times the internal dot product; an array of them for leading sample
    axes."""
    if effect.internal.shape[-1] != state.internal.shape[-1]:
        raise ValueError("effect and state internals belong to different theories")
    gap = np.max(np.abs(effect.momentum.vector - state.momentum.vector), axis=-1)
    out = np.where(gap > DEFAULT_P_TOL, 0.0, dots(effect.internal, state.internal))
    return float(out) if out.ndim == 0 else out


def transform_classical(
    p: PoincareTransform, z: ClassicalMomentumState, rep: RepMap
) -> ClassicalMomentumState:
    """(label, internal) -> (Lambda label, R internal), of the type of `z`.

    R is `rep.effect(p)`, the transpose inverse of the state map, for a
    `ClassicalMomentumEffect` and `rep.state(p)` for a state.  The label moves
    first, so a frame change that is not Lorentz fails on the mass shell.
    """
    moved = MassiveMomentum(apply_lorentz(p.lorentz, z.momentum.vector), z.momentum.mass)
    r = rep.effect(p) if isinstance(z, ClassicalMomentumEffect) else rep.state(p)
    return type(z)(moved, apply_lorentz(r, z.internal))


def invariance_deviation(pairs, element, rep: RepMap) -> float:
    """Worst change of an outcome probability under the frame change.

    Accepts (effect, state) pairs either as momentum-labelled objects (the
    label moves along with the frame) or as bare internal vectors, whose
    maps are looked up once and applied to the stacked pairs.
    """
    if pairs and not isinstance(pairs[0][1], ClassicalMomentumState):
        e, z = (np.array(side, dtype=float) for side in zip(*pairs))
        after = dots(apply_lorentz(rep.effect(element), e), apply_lorentz(rep.state(element), z))
        return float(np.max(np.abs(after - dots(e, z))))
    worst = 0.0
    for effect, state in pairs:
        before = classical_pairing(effect, state)
        state2 = transform_classical(element, state, rep)
        effect2 = transform_classical(element, effect, rep)
        after = classical_pairing(effect2, state2)
        worst = np.maximum(worst, np.max(np.abs(after - before)))
    return float(worst)


@dataclass(frozen=True)
class CheckRow:
    """One verified fact: the worst deviation measured over `samples` trials
    against `tolerance`.  `labels` (such as n, N, k) ride along in the row.
    """

    check: str
    samples: int
    worst_deviation: float
    tolerance: float
    labels: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """The one place a row's pass is decided; a NaN deviation fails."""
        return bool(self.worst_deviation <= self.tolerance)

    def as_dict(self) -> dict:
        """The labels plus {check, samples, worst_deviation, tolerance, pass},
        which no label can override."""
        return {
            **self.labels,
            "check": self.check,
            "samples": self.samples,
            "worst_deviation": float(self.worst_deviation),
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def check_representation(
    sample: GroupSample, rep: RepMap, tol: float = 1e-10
) -> CheckRow:
    """Extensional homomorphism test over all ordered element pairs.

    Verifies R(identity) = 1 and R(g2) R(g1) = R(g2 o g1) and reports the
    worst matrix deviation.  Each element's map is looked up once; a
    composite outside `sample.elements` raises ValueError.  A trivial
    assignment passes this law; telling it apart takes a check of what the
    maps do (see `toy_discrete_spacetime`).
    """
    maps = {g: rep.state(g) for g in sample.elements}
    ident = rep.state(sample.identity)
    worst = np.max(np.abs(ident - np.eye(ident.shape[0])))
    for g1 in sample.elements:
        for g2 in sample.elements:
            composite = sample.compose(g2, g1)
            if composite not in maps:
                raise ValueError(f"composite {composite!r} is not in the group sample")
            worst = np.maximum(worst, np.max(np.abs(maps[g2] @ maps[g1] - maps[composite])))
    return CheckRow("representation-law", len(sample.elements) ** 2, float(worst), tol)


def rotation_rep(n: int) -> RepMap:
    """Fundamental action of spatial rotations on internal vectors of size 1+n.

    Valid for frame changes whose Lorentz part is a pure rotation; the matrix
    itself is the internal map (the dimension-n internal space rides in the
    last n slots).  Orthogonality makes the effect action the same matrix.
    A stack of frame changes gives a stack of maps.
    """

    def state_map(p: PoincareTransform) -> np.ndarray:
        lam = p.lorentz
        e0 = np.eye(lam.shape[-1])[0]
        if np.max(np.abs(lam[..., 0, :] - e0)) > 1e-9 or np.max(np.abs(lam[..., 0] - e0)) > 1e-9:
            raise ValueError("rotation representation applied to a non-rotation")
        return lam

    return RepMap(state_map=state_map)


def trivial_rep(dim: int) -> RepMap:
    return RepMap(state_map=lambda g: np.eye(dim))


# ---------------------------------------------------------------------------
# Detector sphere
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorSphereResult:
    weights: np.ndarray
    before: np.ndarray
    after: np.ndarray
    worst_deviation: float
    total_before: float | np.ndarray


def detector_effects(detectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted extremal effects along detector axes that sum to the unit.

    Weights solve the (least-squares) system  sum_i w_i (1, v_i)/2 = u;
    detector layouts whose residual exceeds the limit are rejected.
    """
    dirs = np.asarray(detectors, dtype=float)
    count, dim = dirs.shape
    design = 0.5 * np.hstack([np.ones((count, 1)), dirs]).T  # (1+dim, count)
    target = np.zeros(dim + 1)
    target[0] = 1.0
    weights, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.max(np.abs(design @ weights - target)))
    if residual > DETECTOR_RESIDUAL_LIMIT:
        raise ValueError(
            f"detector set cannot resolve the unit effect (residual {residual:.3g})"
        )
    effects = weights[:, None] * 0.5 * np.hstack([np.ones((count, 1)), dirs])
    return effects, weights


def detector_sphere_experiment(
    internal_state: np.ndarray,
    detectors: np.ndarray,
    rotation: np.ndarray,
) -> DetectorSphereResult:
    """Detection distribution before and after a rigid frame rotation.

    The state and the detector effects transform with the same rotation, so
    the distribution is unchanged; the result carries both distributions and
    the worst pointwise deviation.  Stacks of states and rotations share one
    detector set; the deviation is then the worst over the stack.
    """
    z = np.asarray(internal_state, dtype=float)
    effects, weights = detector_effects(detectors)
    before = apply_lorentz(effects, z)
    block = spatial_rotation(rotation)
    # orthogonal: transpose inverse = itself
    after = apply_lorentz(effects @ np.swapaxes(block, -1, -2), apply_lorentz(block, z))
    total = before.sum(axis=-1)
    return DetectorSphereResult(
        weights=weights,
        before=before,
        after=after,
        worst_deviation=float(np.max(np.abs(after - before))),
        total_before=float(total) if total.ndim == 0 else total,
    )


# ---------------------------------------------------------------------------
# Toy discrete spacetime
# ---------------------------------------------------------------------------


def toy_translation_rep(sides: int) -> RepMap:
    """Lattice translation by k steps acts as the rotation by k (2 pi / N)."""
    return RepMap(state_map=lambda k: polygon_rotation(sides, int(k)))


def toy_discrete_spacetime(sides: int, shift: int, tol: float = 1e-12) -> list[CheckRow]:
    """Wire lattice translations to polygon rotations, `toy_translation_rep`,
    and verify everything.

    Returns three rows labelled with N and k:
    `toy-spacetime-homomorphism` (the assigned rotations compose additively,
    checked exhaustively mod N), `toy-spacetime-invariance` (all outcome
    probabilities unchanged, and the pure states permuted by k steps) and
    `toy-spacetime-nontrivial` (the generator, one lattice step, moves each
    pure state onto the next one).  A trivial wiring leaves each state in
    place and so reads the largest coordinate gap between neighbouring
    vertices (0.5 to 2.4 for N = 3 ... 12) on the last row.
    """
    if sides < 3:
        raise ValueError("toy model needs a polygon with at least 3 sides")
    rep = toy_translation_rep(sides)
    sample = GroupSample(
        elements=tuple(range(sides)),
        compose=lambda k1, k2: (k1 + k2) % sides,
        identity=0,
    )
    law = check_representation(sample, rep, tol)
    theory = polygon_theory(sides)
    states = theory.states.vertices
    effects = theory.effect_rows()
    pairs = [(e, z) for e in effects for z in states]
    invariance = np.max([invariance_deviation(pairs, k, rep) for k in range(sides)])

    def shift_residual(k: int) -> float:
        return float(np.max(np.abs(states @ rep.state(k).T - np.roll(states, -k, axis=0))))

    labels = {"N": sides, "k": shift}
    return [
        CheckRow("toy-spacetime-homomorphism", law.samples, law.worst_deviation, tol, labels),
        CheckRow(
            "toy-spacetime-invariance",
            sides,
            float(np.maximum(invariance, shift_residual(shift))),
            tol,
            labels,
        ),
        CheckRow("toy-spacetime-nontrivial", sides, shift_residual(1), tol, labels),
    ]


# ---------------------------------------------------------------------------
# Ball orbit reconstruction
# ---------------------------------------------------------------------------


def orbit_ball_reconstruction(
    n: int,
    seed_direction: np.ndarray,
    rotation_count: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> list[CheckRow]:
    """Rotate a pure ball state around and verify the orbit geometry.

    Returns one row per property, each its own measured deviation against
    `tol` and labelled with n: the orbit stays on the unit sphere
    (`ball-orbit-pure`, norm - 1), convex mixtures of orbit points stay
    inside the ball (`ball-orbit-hull-inside`, the membership margin), any
    target direction is reachable with a constructed rotation
    (`ball-orbit-transitive`, |O r - target|), rotated extremal effects
    (1, v)/2 keep reduced norm 1/2 and so stay normalized extremal effects
    (`ball-orbit-effects-extremal`), and antipodal pairs are perfectly
    distinguished by half their own vectors (`ball-orbit-distinguishability`,
    Gram matrix - 1).
    """
    r = np.asarray(seed_direction, dtype=float)
    if not abs(np.linalg.norm(r) - 1.0) <= 1e-9:
        raise ValueError("seed direction must be a unit vector")
    rng = np.random.default_rng(seed)
    ball = Ball(n)

    orbit = sample_special_orthogonal(n, rng, rotation_count) @ r
    pure_dev = np.max(np.abs(norms(orbit) - 1.0))

    hull_dev = 0.0
    for _ in range(20):
        w = rng.dirichlet(np.ones(4))
        idx = rng.integers(len(orbit), size=4)
        mix = sum(wi * orbit[i] for wi, i in zip(w, idx))
        state = np.concatenate([[1.0], mix])
        hull_dev = np.maximum(hull_dev, validate_state(ball, state).margin)

    targets = orbit[:20]
    transitive_dev = np.max(np.abs(apply_lorentz(rotation_between(r, targets), r) - targets))

    # the effects (1, v)/2 have first entry exactly 1/2
    effect_dev = np.max(np.abs(norms(0.5 * orbit) - 0.5))

    plus = np.concatenate([[1.0], r])
    minus = np.concatenate([[1.0], -r])
    gram = np.array(
        [
            [0.5 * plus @ plus, 0.5 * plus @ minus],
            [0.5 * minus @ plus, 0.5 * minus @ minus],
        ]
    )
    dist_dev = np.max(np.abs(gram - np.eye(2)))

    mixture = 0.5 * plus + 0.5 * minus
    hull_dev = np.maximum(hull_dev, validate_state(ball, mixture).margin)

    labels = {"n": n}
    return [
        CheckRow("ball-orbit-pure", rotation_count, pure_dev, tol, labels),
        # 20 orbit mixtures and the antipodal one
        CheckRow("ball-orbit-hull-inside", 21, hull_dev, tol, labels),
        CheckRow("ball-orbit-transitive", len(targets), transitive_dev, tol, labels),
        CheckRow("ball-orbit-effects-extremal", rotation_count, effect_dev, tol, labels),
        CheckRow("ball-orbit-distinguishability", 1, dist_dev, tol, labels),
    ]
