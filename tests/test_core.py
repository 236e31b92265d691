import numpy as np
import pytest

from gptkit import core, lp
from gptkit.core import (
    BALL_EFFECT_COUNT,
    BALL_STATE_COUNT,
    Ball,
    BallEffects,
    MembershipReport,
    Polytope,
    PolytopeEffects,
    TheorySpec,
    _pairing_range,
    apply_map,
    binary_measurements,
    convex_mix,
    is_normalized_effect,
    is_pure,
    is_reversible,
    probability,
    state_from_point,
    theory_from_dict,
    theory_from_json,
    theory_to_dict,
    theory_to_json,
    unit_effect,
    validate_state,
    zero_effect,
)
from gptkit.minkowski import spatial_rotation
from gptkit.rotations import deterministic_sphere_points, sample_special_orthogonal
from gptkit.zoo import (
    classical_simplex,
    euclidean_ball,
    get_theory,
    polygon_rotation,
    polygon_theory,
)

BIT = classical_simplex(1)
BALL3 = euclidean_ball(3)
ZOO_POLYTOPES = (
    ["bit", "boxworld"]
    + [f"simplex:{k}" for k in range(1, 5)]
    + [f"polygon:{k}" for k in range(3, 13)]
)


def test_probability_bit_distinguishes():
    zeta0 = np.array([1.0, -1.0])
    eps0 = 0.5 * np.array([1.0, -1.0])
    assert probability(eps0, zeta0) == 1.0
    assert probability(eps0, np.array([1.0, 1.0])) == 0.0


def test_probability_unit_effect_is_one():
    for theory in (BIT, polygon_theory(5), BALL3):
        for state in theory.extreme_states():
            assert abs(probability(theory.unit, state) - 1.0) < 1e-12


def test_probability_bloch_antipodal_is_zero():
    eps = 0.5 * state_from_point([0.0, 0.0, 1.0])
    zeta = state_from_point([0.0, 0.0, -1.0])
    assert abs(probability(eps, zeta)) < 1e-15


def test_probability_rejects_length_mismatch():
    with pytest.raises(ValueError):
        probability(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("exact", [False, True])
def test_validate_state_bit(exact):
    assert validate_state(BIT.states, np.array([1.0, 0.0]), exact=exact).member
    report = validate_state(BIT.states, np.array([1.0, 2.0]), exact=exact)
    assert not report.member
    assert report.margin > 0.1


def test_validate_state_ball_boundary():
    report = validate_state(BALL3.states, np.array([1.0, 0.6, 0.0, 0.8]))
    assert report.member
    assert report.margin <= 1e-12  # unit norm: on the boundary


def test_validate_state_shape_and_finite_guards():
    assert not validate_state(BIT.states, np.array([1.0, 0.0, 0.0])).member
    assert not validate_state(BALL3.states, np.array([1.0, np.nan, 0.0, 0.0])).member
    assert isinstance(validate_state(BIT.states, np.array([2.0, 0.0])), MembershipReport)


def test_is_pure():
    assert is_pure(BIT.states, np.array([1.0, -1.0]))
    assert not is_pure(BIT.states, np.array([1.0, 0.0]))
    v = np.full(3, 1.0 / np.sqrt(3.0))
    assert is_pure(BALL3.states, state_from_point(v))
    with pytest.raises(ValueError):
        is_pure(BIT.states, np.array([1.0, 3.0]))


def test_is_normalized_effect():
    # extremal ball effect: half of a pure state vector
    assert is_normalized_effect(BALL3, 0.5 * np.array([1.0, 0.6, 0.0, 0.8]))
    assert is_normalized_effect(BIT, BIT.unit)
    assert is_normalized_effect(BALL3, BALL3.unit)
    assert not is_normalized_effect(BIT, np.array([1.0, 1.0]))  # gives 2 on one state
    # a stack of effects, one per row, passes only if every row does
    ball_rows = [0.5 * np.array([1.0, 0.6, 0.0, 0.8]), BALL3.unit, BALL3.zero]
    assert is_normalized_effect(BALL3, np.array(ball_rows))
    assert not is_normalized_effect(BALL3, np.array(ball_rows + [[0.5, 0.6, 0.0, 0.0]]))
    assert is_normalized_effect(BIT, BIT.effects.generators)
    assert not is_normalized_effect(BIT, np.array([BIT.unit, [1.0, 1.0]]))
    with pytest.raises(ValueError, match="wrong length"):
        is_normalized_effect(BIT, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="wrong length"):
        is_normalized_effect(BALL3, np.zeros(3))


def test_construction_rejects_a_generator_outside_the_unit_interval():
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        TheorySpec(
            name="bad-bit",
            dim=1,
            states=BIT.states,
            effects=PolytopeEffects([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
        )
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        TheorySpec(
            name="bad-disc",
            dim=2,
            states=Ball(2),
            effects=PolytopeEffects([[0, 0, 0], [1, 0, 0], [0.5, 0.6, 0]]),
        )
    disc = TheorySpec(
        name="disc",
        dim=2,
        states=Ball(2),
        effects=PolytopeEffects([[0, 0, 0], [1, 0, 0], [0.5, 0.5, 0]]),
    )
    assert disc.effect_rows().shape == (2, 3)
    # ball-dual effects: polygon:4's vertices lie at radius 2^(1/4), where
    # (1, v)/2 goes negative
    square = get_theory("polygon:4").states
    with pytest.raises(ValueError, match="inside the unit ball"):
        TheorySpec(name="bad", dim=2, states=square, effects=BallEffects(2))
    inscribed = Polytope(square.vertices * [1.0, 2.0**-0.25, 2.0**-0.25])
    assert TheorySpec(name="inscribed", dim=2, states=inscribed, effects=BallEffects(2)).dim == 2


def test_apply_map_bit_reflection_swaps_states():
    reflection = BIT.reversibles[0]
    assert np.allclose(apply_map(reflection, np.array([1.0, -1.0])), [1.0, 1.0])
    assert np.allclose(apply_map(np.eye(2), np.array([1.0, 0.3])), [1.0, 0.3])


def test_apply_map_rotation_about_z_by_pi():
    rot = np.eye(4)
    rot[1:3, 1:3] = [[-1.0, 0.0], [0.0, -1.0]]
    out = apply_map(rot, state_from_point([1.0, 0.0, 0.0]))
    assert np.allclose(out, state_from_point([-1.0, 0.0, 0.0]))


def test_is_reversible(monkeypatch):
    # a ball map is decided without the ball discretization: it is
    # reversible iff it is 1 (+) O(d)
    listed = TheorySpec.extreme_states

    def no_ball_listing(theory):
        if isinstance(theory.states, Ball):
            raise AssertionError("the ball discretization was read")
        return listed(theory)

    monkeypatch.setattr(TheorySpec, "extreme_states", no_ball_listing)
    assert is_reversible(BIT, BIT.reversibles[0])
    assert not is_reversible(BIT, np.diag([1.0, 0.0]))  # singular: reports False
    for m in spatial_rotation(sample_special_orthogonal(3, np.random.default_rng(5), 3)):
        assert is_reversible(BALL3, m)
    assert is_reversible(BALL3, np.diag([1.0, -1.0, 1.0, 1.0]))  # a reflection
    shear = np.eye(4)
    shear[1, 2] = 0.4
    assert not is_reversible(BALL3, shear)
    moves_the_centre = np.eye(4)
    moves_the_centre[1, 0] = 0.1
    assert not is_reversible(BALL3, moves_the_centre)


def _maps_vertices_into_the_hull(vertices, m):
    """The rule `is_reversible` replaced: m and m^-1 carry every vertex
    into the hull, decided by hull LPs."""
    if abs(np.linalg.det(m)) <= 1e-9:
        return False
    inv = np.linalg.inv(m)
    return all(lp.hull_membership(vertices, g @ v, tol=1e-9).member
               for g in (m, inv) for v in vertices)


def test_is_reversible_permutes_vertices_without_an_lp(monkeypatch):
    cases = []  # (vertices, theory, map, expected)
    for name in ZOO_POLYTOPES:
        theory = get_theory(name)
        gens = list(theory.reversibles)
        maps = [np.eye(theory.dim + 1)] + gens + [g @ h for g in gens for h in gens]
        cases += [(theory, m, True) for m in maps]
        for g in gens:
            cases += [(theory, g + 1e-3, False),
                      (theory, 0.9 * g + 0.1 * np.eye(theory.dim + 1), False)]
    doubled = TheorySpec("doubled-bit", 1, Polytope([[1, -1], [1, 1], [1, -1]]),
                         BIT.effects)
    cases += [(doubled, np.eye(2), True), (doubled, BIT.reversibles[0], True)]
    for theory, m, expected in cases:
        assert _maps_vertices_into_the_hull(theory.states.vertices, m) == expected

    def no_lp(*args, **kwargs):
        raise AssertionError("is_reversible solved an LP")

    monkeypatch.setattr(lp, "hull_membership", no_lp)
    monkeypatch.setattr(core, "validate_state", no_lp)
    for theory, m, expected in cases:
        assert is_reversible(theory, m) == expected
    # rows are read as extreme points: a listed edge midpoint must move to a
    # listed row, which the quarter turn of the square does not do
    square = get_theory("polygon:4")
    with_midpoint = np.vstack([square.states.vertices,
                               square.states.vertices[:2].mean(axis=0)])
    padded = TheorySpec("padded-square", 2, Polytope(with_midpoint), square.effects)
    assert not is_reversible(padded, square.reversibles[0])


def test_pairing_range_on_polytopes_is_the_vertex_scan():
    rng = np.random.default_rng(41)
    for name in ZOO_POLYTOPES:
        states = get_theory(name).states
        rows = rng.standard_normal((3, 7, states.dim + 1))
        lo, hi = _pairing_range(states, rows)
        assert lo.shape == hi.shape == (3, 7)
        for index in np.ndindex(3, 7):
            values = [np.einsum("i,i->", rows[index], v) for v in states.vertices]
            assert lo[index] == min(values) and hi[index] == max(values)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pairing_range_on_balls_is_reached_and_never_passed(d):
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((20, d + 1))
    lo, hi = _pairing_range(Ball(d), rows)
    reduced = rows[:, 1:]
    toward = reduced / np.linalg.norm(reduced, axis=1, keepdims=True)
    assert np.allclose(lo, rows[:, 0] - np.sum(reduced * toward, axis=1), rtol=0, atol=1e-12)
    assert np.allclose(hi, rows[:, 0] + np.sum(reduced * toward, axis=1), rtol=0, atol=1e-12)
    sample = rng.standard_normal((20_000, d))
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    values = rows[:, :1] + reduced @ sample.T
    assert np.all(values >= lo[:, None] - 1e-12)
    assert np.all(values <= hi[:, None] + 1e-12)


def test_an_effect_pair_that_misses_the_unit_is_no_measurement():
    # e + f misses the unit by 1e-7 in its first entry; numpy's default
    # rtol of 1e-5 would read that as a sum to the unit
    leaky = TheorySpec("leaky-bit", 1, Polytope([[1, -1], [1, 1]]), PolytopeEffects(
        [[0, 0], [1, 0], [0.4, 0.3], [0.6 - 1e-7, -0.3]]))
    assert binary_measurements(leaky) == []


def test_convex_mix():
    z0, z1 = np.array([1.0, -1.0]), np.array([1.0, 1.0])
    assert np.allclose(convex_mix([(0.5, z0), (0.5, z1)]), [1.0, 0.0])
    assert np.allclose(convex_mix([(1.0, z0)]), z0)
    with pytest.raises(ValueError):
        convex_mix([(0.7, z0), (0.7, z1)])
    with pytest.raises(ValueError):
        convex_mix([(-0.1, z0), (1.1, z1)])


def test_trit_equal_mixture_is_centroid():
    trit = polygon_theory(3)
    states = trit.states.vertices
    mix = convex_mix([(1.0 / 3.0, s) for s in states])
    assert np.allclose(mix, [1.0, 0.0, 0.0], atol=1e-12)


def test_zoo_probabilities_stay_in_range():
    theories = [BIT, classical_simplex(3), polygon_theory(4), polygon_theory(7), BALL3]
    for theory in theories:
        for eff in theory.effect_rows():
            for state in theory.extreme_states():
                p = probability(eff, state)
                assert -1e-12 <= p <= 1.0 + 1e-12


def test_probability_is_bilinear_in_mixtures():
    rng = np.random.default_rng(11)
    theory = polygon_theory(6)
    states = theory.states.vertices
    effects = theory.effect_rows()
    for _ in range(50):
        w = rng.dirichlet(np.ones(len(states)))
        eff = effects[rng.integers(len(effects))]
        mixed = convex_mix(list(zip(w, states)))
        direct = probability(eff, mixed)
        split = sum(q * probability(eff, s) for q, s in zip(w, states))
        assert abs(direct - split) < 1e-12


def test_reversible_maps_preserve_purity():
    for theory in (polygon_theory(5), BIT):
        for m in theory.reversibles:
            assert is_reversible(theory, m)
            for v in theory.states.vertices:
                assert is_pure(theory.states, apply_map(m, v), tol=1e-9)
    rot = spatial_rotation(sample_special_orthogonal(3, np.random.default_rng(2)))
    for v in BALL3.extreme_states():
        assert is_pure(BALL3.states, apply_map(rot, v), tol=1e-9)


def test_rescaling_leaves_probabilities_unchanged():
    # replacing states by L z and effects by (L^-1)^T e preserves all pairings
    rng = np.random.default_rng(3)
    theory = polygon_theory(5)
    for _ in range(20):
        scale = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if abs(np.linalg.det(scale)) < 1e-3:
            continue
        inv_t = np.linalg.inv(scale).T
        for eff in theory.effect_rows():
            for state in theory.states.vertices:
                before = probability(eff, state)
                after = probability(inv_t @ eff, scale @ state)
                assert abs(before - after) < 1e-10


def test_theory_json_round_trip():
    for theory in (BIT, polygon_theory(5), BALL3):
        text = theory_to_json(theory)
        back = theory_from_json(text)
        assert theory_to_json(back) == text
        assert back.name == theory.name
        assert back.effect_convention == theory.effect_convention


def test_polytope_requires_leading_one():
    with pytest.raises(ValueError):
        Polytope(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        Ball(-1)
    assert zero_effect(2).tolist() == [0.0, 0.0, 0.0]


def test_zero_dimensional_theory_is_representable():
    # a single-state system fits in the containers even though the zoo
    # constructors refuse to build one
    from gptkit.core import PolytopeEffects, TheorySpec

    trivial = TheorySpec(
        name="point",
        dim=0,
        states=Polytope(np.array([[1.0]])),
        effects=PolytopeEffects(np.array([[0.0], [1.0]])),
    )
    assert probability(trivial.unit, np.array([1.0])) == 1.0


# LP row order fixes the HiGHS and exact-simplex bits that the CHSH scans
# compare against the full scan, so the row lists are pinned entry for entry
POLYTOPE_NAMES = ["bit", "simplex:2", "simplex:3", "polygon:3", "polygon:4", "polygon:5",
                  "polygon:6", "polygon:8", "boxworld"]
BALL_NAMES = ["ball:1", "ball:2", "ball:3", "ball:4"]


def _shuffled_bit():
    # generators with the zero in the middle and the unit last
    doc = theory_to_dict(BIT)
    zero, unit, first, second = doc["effects"]["generators"]
    doc["effects"]["generators"] = [first, zero, second, unit]
    return theory_from_dict(doc)


def _polytope_theories():
    return [get_theory(name) for name in POLYTOPE_NAMES] + [_shuffled_bit()]


def test_effect_rows_are_the_nonzero_generators_in_order():
    for theory in _polytope_theories():
        gens = theory.effects.generators
        expected = np.array([g for g in gens if np.any(g != 0.0)])
        assert theory.effect_rows().tobytes() == expected.tobytes()
        assert theory.effect_rows().shape == expected.shape
    assert _shuffled_bit().effect_rows()[-1].tolist() == [1.0, 0.0]


def test_ball_effect_rows_are_the_fixed_sphere_effects_then_the_unit():
    assert BALL_EFFECT_COUNT == 64
    for name in BALL_NAMES:
        theory = get_theory(name)
        points = deterministic_sphere_points(theory.dim, 64)
        expected = np.vstack([0.5 * np.hstack([np.ones((64, 1)), points]), theory.unit])
        assert theory.effect_rows().shape == (65, theory.dim + 1)
        assert theory.effect_rows().tobytes() == expected.tobytes()


def test_extremal_effects_are_the_effect_rows_without_the_unit():
    for theory in _polytope_theories() + [get_theory(name) for name in BALL_NAMES]:
        rows = theory.effect_rows()
        expected = np.array([r for r in rows if not np.array_equal(r, theory.unit)])
        assert theory.extremal_effects().tobytes() == expected.tobytes()
        assert len(theory.extremal_effects()) == len(rows) - 1


def test_ball_extreme_states_are_the_fixed_sphere_points():
    assert BALL_STATE_COUNT == 200
    for name in BALL_NAMES:
        theory = get_theory(name)
        states = theory.extreme_states()
        assert states.shape == (200, theory.dim + 1)
        assert np.array_equal(states[:, 1:], deterministic_sphere_points(theory.dim, 200))
        assert np.all(states[:, 0] == 1.0)
