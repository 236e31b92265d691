import math

import numpy as np
import pytest

from gptkit import poincare
from gptkit.core import MembershipReport
from gptkit.minkowski import (
    MassiveMomentum,
    PoincareTransform,
    identity_transform,
    random_momentum,
    random_proper_orthochronous,
    rest_momentum,
    wigner_rotation,
)
from gptkit.poincare import (
    CheckRow,
    ClassicalMomentumEffect,
    ClassicalMomentumState,
    GroupSample,
    RepMap,
    check_representation,
    classical_pairing,
    detector_effects,
    detector_sphere_experiment,
    invariance_deviation,
    orbit_ball_reconstruction,
    rotation_rep,
    toy_discrete_spacetime,
    toy_translation_rep,
    transform_classical,
    trivial_rep,
)
from gptkit.rotations import sample_special_orthogonal
from gptkit.zoo import (
    polygon_rotation,
    sample_ball_effect,
    sample_ball_state,
)


def _rotation_transform(n, rng):
    lam = np.eye(n + 1)
    lam[1:, 1:] = sample_special_orthogonal(n, rng)
    return PoincareTransform(np.zeros(n + 1), lam)


def by_check(rows):
    return {row.check: row for row in rows}


class StateMapOnEffects(RepMap):
    """A wrong effect action: effects move by the state map itself."""

    def effect(self, g):
        return self.state(g)


def test_classical_pairing_momentum_measurement():
    rng = np.random.default_rng(30)
    p = rest_momentum(1.0, 3)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(10):
        z = ClassicalMomentumState(p, sample_ball_state(3, rng))
        e = ClassicalMomentumEffect(p, u)
        assert abs(classical_pairing(e, z) - 1.0) < 1e-12


def test_classical_pairing_distinguishes_labels():
    p = rest_momentum(1.0, 3)
    q = random_momentum(1.0, 3, np.random.default_rng(31))
    z = ClassicalMomentumState(p, np.array([1.0, 0.0, 0.0, 1.0]))
    e = ClassicalMomentumEffect(q, np.array([1.0, 0.0, 0.0, 0.0]))
    assert classical_pairing(e, z) == 0.0


def test_classical_pairing_bit_internals():
    p = rest_momentum(1.0, 3)
    z = ClassicalMomentumState(p, np.array([1.0, -1.0]))
    e = ClassicalMomentumEffect(p, 0.5 * np.array([1.0, -1.0]))
    assert classical_pairing(e, z) == 1.0
    bad = ClassicalMomentumEffect(p, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        classical_pairing(bad, z)


def test_transform_classical_identity():
    p = rest_momentum(1.0, 3)
    z = ClassicalMomentumState(p, np.array([1.0, 0.2, 0.0, 0.5]))
    out = transform_classical(identity_transform(3), z, rotation_rep(3))
    assert np.allclose(out.momentum.vector, p.vector)
    assert np.allclose(out.internal, z.internal)


def test_transform_classical_rotation_acts_fundamentally():
    rng = np.random.default_rng(32)
    n = 3
    p = random_momentum(1.0, n, rng)
    r = rng.standard_normal(n)
    r /= np.linalg.norm(r)
    z = ClassicalMomentumState(p, np.concatenate([[1.0], r]))
    g = _rotation_transform(n, rng)
    out = transform_classical(g, z, rotation_rep(n))
    block = g.lorentz[1:, 1:]
    assert np.allclose(out.momentum.vector, g.lorentz @ p.vector)
    assert np.allclose(out.internal, np.concatenate([[1.0], block @ r]))


def test_transform_classical_translation_leaves_everything():
    p = rest_momentum(1.0, 3)
    z = ClassicalMomentumState(p, np.array([1.0, 0.3, 0.1, 0.0]))
    shift = PoincareTransform(np.array([1.0, 2.0, 3.0, 4.0]), np.eye(4))
    out = transform_classical(shift, z, trivial_rep(4))
    assert np.allclose(out.momentum.vector, p.vector)
    assert np.allclose(out.internal, z.internal)


def test_invariance_under_rotations_on_ball_internals():
    rng = np.random.default_rng(33)
    for n in (2, 3, 4):
        rep = rotation_rep(n)
        rest = rest_momentum(1.0, n)
        for _ in range(200):
            state = ClassicalMomentumState(rest, sample_ball_state(n, rng))
            effect = ClassicalMomentumEffect(rest, sample_ball_effect(n, rng))
            g = _rotation_transform(n, rng)
            assert invariance_deviation([(effect, state)], g, rep) <= 1e-10


def test_invariance_fails_for_mismatched_effect_rep():
    shear = np.eye(4)
    shear[1, 2] = 0.7
    broken = StateMapOnEffects(state_map=lambda g: shear)
    state = np.array([1.0, 0.5, 0.3, 0.0])
    effect = np.array([0.5, 0.2, 0.0, 0.1])
    assert not invariance_deviation([(effect, state)], None, broken) <= 1e-10
    # the transpose-inverse default on the same shear restores invariance
    fixed = RepMap(state_map=lambda g: shear)
    assert invariance_deviation([(effect, state)], None, fixed) <= 1e-10


def test_invariance_deviation_measures_the_worst_change():
    shear = np.eye(4)
    shear[1, 2] = 0.7
    broken = StateMapOnEffects(state_map=lambda g: shear)
    state = np.array([1.0, 0.5, 0.3, 0.0])
    effect = np.array([0.5, 0.2, 0.0, 0.1])
    before = effect @ state
    after = (shear @ effect) @ (shear @ state)
    worst = invariance_deviation([(effect, state), (effect, effect)], None, broken)
    assert worst >= abs(after - before) > 0.0
    fixed = RepMap(state_map=lambda g: shear)
    assert invariance_deviation([(effect, state)], None, fixed) <= 1e-15


@pytest.mark.parametrize("sides", range(3, 9))
def test_toy_report_carries_measured_deviation(sides):
    rows = toy_discrete_spacetime(sides, 2 % sides, tol=1e-12)
    invariance = by_check(rows)["toy-spacetime-invariance"]
    assert 0.0 <= invariance.worst_deviation <= 1e-12
    assert invariance.passed


def test_invariance_trivial_rep():
    state = np.array([1.0, 0.1, 0.2, 0.3])
    effect = np.array([0.5, 0.0, 0.0, 0.2])
    assert invariance_deviation([(effect, state)], None, trivial_rep(4)) <= 1e-12


def test_check_representation_toy_translations():
    sides = 7
    sample = GroupSample(
        elements=tuple(range(sides)),
        compose=lambda a, b: (a + b) % sides,
        identity=0,
    )
    report = check_representation(sample, toy_translation_rep(sides), tol=1e-12)
    assert report.passed
    assert report.samples == sides * sides


def test_check_representation_passes_trivial_rep():
    # the law alone cannot tell a trivial assignment apart
    sample = GroupSample(elements=(0, 1, 2), compose=lambda a, b: (a + b) % 3, identity=0)
    report = check_representation(sample, trivial_rep(3), tol=1e-12)
    assert report.passed
    assert report.worst_deviation == 0.0


def test_nan_deviations_fail():
    nan_rep = RepMap(state_map=lambda g: np.full((3, 3), np.nan))
    sample = GroupSample(elements=(0, 1, 2), compose=lambda a, b: (a + b) % 3, identity=0)
    report = check_representation(sample, nan_rep, tol=1e-10)
    assert np.isnan(report.worst_deviation)
    assert not report.passed
    pairs = [(np.array([0.5, 0.0, 0.5]), np.array([1.0, 0.3, 0.4]))]
    assert np.isnan(invariance_deviation(pairs, 0, nan_rep))
    assert not invariance_deviation(pairs, 0, nan_rep) <= 1e-10


def test_check_representation_off_by_one_fails():
    sides = 6
    sample = GroupSample(
        elements=tuple(range(sides)),
        compose=lambda a, b: (a + b) % sides,
        identity=0,
    )
    skewed = RepMap(state_map=lambda k: polygon_rotation(sides, int(k) + 1))
    report = check_representation(sample, skewed, tol=1e-10)
    assert not report.passed


def test_check_representation_looks_each_map_up_once(monkeypatch):
    sides = 6
    calls = []

    def counting(n, k):
        calls.append(k)
        return polygon_rotation(n, k)

    monkeypatch.setattr(poincare, "polygon_rotation", counting)
    sample = GroupSample(
        elements=tuple(range(sides)),
        compose=lambda a, b: (a + b) % sides,
        identity=0,
    )
    report = check_representation(sample, toy_translation_rep(sides), tol=1e-12)
    assert report.passed
    assert report.samples == sides * sides
    assert len(calls) <= sides + 1


def test_check_representation_rejects_an_open_sample():
    sample = GroupSample(elements=(0, 1, 2), compose=lambda a, b: a + b, identity=0)
    with pytest.raises(ValueError, match="not in the group sample"):
        check_representation(sample, trivial_rep(3))


def test_check_report_json():
    row = CheckRow("representation-law", 4, np.float64(2e-13), 1e-12, {"N": 5, "k": 2})
    doc = row.as_dict()
    assert doc == {
        "check": "representation-law",
        "samples": 4,
        "worst_deviation": 2e-13,
        "tolerance": 1e-12,
        "pass": True,
        "N": 5,
        "k": 2,
    }
    assert type(doc["worst_deviation"]) is float
    # pass is derived from the columns, never stored
    assert not CheckRow("law", 4, 2e-12, 1e-12).as_dict()["pass"]
    assert CheckRow("law", 4, 1e-12, 1e-12).passed
    for bad in (math.nan, math.inf):
        row = CheckRow("law", 4, bad, 1e-12)
        assert not row.passed and row.as_dict()["pass"] is False


def test_detector_effects_antipodal_pair():
    detectors = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    effects, weights = detector_effects(detectors)
    assert np.allclose(weights, [1.0, 1.0])
    assert np.allclose(effects.sum(axis=0), [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    result = detector_sphere_experiment(
        np.array([1.0, 0.0, 0.0, 1.0]), detectors, np.eye(3)
    )
    assert np.allclose(result.before, [1.0, 0.0], atol=1e-12)


def test_detector_effects_reject_unbalanced_sets():
    detectors = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        detector_effects(detectors)


# Regression values: six axis-aligned detectors, state along +z, computed
# once from the pairing formula w * (1 + v.z)/2 with weights 1/3.
SIX_DETECTOR_DISTRIBUTION = [1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 3, 0.0]


def test_detector_sphere_six_axis_regression():
    detectors = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    state = np.array([1.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(34)
    rotation = sample_special_orthogonal(3, rng)
    result = detector_sphere_experiment(state, detectors, rotation)
    assert np.allclose(result.weights, np.full(6, 1.0 / 3.0), atol=1e-12)
    assert np.allclose(result.before, SIX_DETECTOR_DISTRIBUTION, atol=1e-12)
    assert result.worst_deviation <= 1e-10
    assert abs(result.total_before - 1.0) < 1e-12


def test_detector_sphere_invariance_many_rotations():
    rng = np.random.default_rng(35)
    detectors = np.vstack([np.eye(3), -np.eye(3)])
    for _ in range(50):
        state = sample_ball_state(3, rng)
        rotation = sample_special_orthogonal(3, rng)
        result = detector_sphere_experiment(state, detectors, rotation)
        assert result.worst_deviation <= 1e-10
        assert abs(result.total_before - 1.0) < 1e-12


def test_toy_discrete_spacetime_five_two():
    rows = toy_discrete_spacetime(5, 2)
    assert [row.check for row in rows] == [
        "toy-spacetime-homomorphism",
        "toy-spacetime-invariance",
        "toy-spacetime-nontrivial",
    ]
    assert all(row.labels == {"N": 5, "k": 2} and row.passed for row in rows)
    assert by_check(rows)["toy-spacetime-nontrivial"].passed
    assert by_check(rows)["toy-spacetime-homomorphism"].worst_deviation <= 1e-12


def test_toy_discrete_spacetime_identity_shift():
    rows = toy_discrete_spacetime(5, 5)  # k = N acts as the identity
    assert all(row.passed for row in rows)


@pytest.mark.parametrize("sides", range(3, 13))
def test_toy_homomorphism_exhaustive(sides):
    rep = toy_translation_rep(sides)
    for k1 in range(sides):
        for k2 in range(sides):
            lhs = rep.state(k1) @ rep.state(k2)
            rhs = polygon_rotation(sides, k1 + k2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_little_group_internal_maps_compose():
    rng = np.random.default_rng(36)
    for _ in range(100):
        p = random_momentum(1.0, 3, rng)
        lam1 = random_proper_orthochronous(3, rng)
        lam2 = random_proper_orthochronous(3, rng)
        moved = MassiveMomentum(lam1 @ p.vector, p.mass)
        lhs = wigner_rotation(lam2, moved) @ wigner_rotation(lam1, p)
        rhs = wigner_rotation(lam2 @ lam1, p)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_little_group_internal_map_reduces_for_rotations():
    rng = np.random.default_rng(37)
    for _ in range(100):
        p = random_momentum(1.0, 3, rng)
        rot = np.eye(4)
        rot[1:, 1:] = sample_special_orthogonal(3, rng)
        w = wigner_rotation(rot, p)
        assert np.max(np.abs(w - rot)) < 1e-10


def test_orbit_ball_reconstruction():
    rows = orbit_ball_reconstruction(3, np.array([0.0, 0.0, 1.0]))
    assert [row.check for row in rows] == [
        "ball-orbit-pure",
        "ball-orbit-hull-inside",
        "ball-orbit-transitive",
        "ball-orbit-effects-extremal",
        "ball-orbit-distinguishability",
    ]
    assert all(row.passed and row.labels == {"n": 3} for row in rows)
    assert all(0.0 <= row.worst_deviation <= row.tolerance == 1e-10 for row in rows)
    # each property is its own deviation against tol, so a tighter tol fails
    # the rows whose deviation exceeds it
    tight = orbit_ball_reconstruction(3, np.array([0.0, 0.0, 1.0]), tol=1e-16)
    assert [row.passed for row in tight] == [row.worst_deviation <= 1e-16 for row in rows]
    assert not all(row.passed for row in tight)


def test_orbit_worst_deviation_counts_the_hull_margin(monkeypatch):
    monkeypatch.setattr(
        poincare, "validate_state", lambda space, v: MembershipReport(True, 0.25)
    )
    rows = by_check(orbit_ball_reconstruction(3, np.array([0.0, 0.0, 1.0])))
    hull = rows.pop("ball-orbit-hull-inside")
    assert hull.worst_deviation == 0.25 and not hull.passed
    assert all(row.passed for row in rows.values())


def test_orbit_ball_reconstruction_other_dimensions():
    e1 = np.array([1.0, 0.0])
    assert all(row.passed for row in orbit_ball_reconstruction(2, e1, rotation_count=50))
    # SO(1) holds the identity only, which keeps -1 where it is
    assert all(row.passed for row in orbit_ball_reconstruction(1, np.array([-1.0])))
    e4 = np.zeros(4)
    e4[0] = 1.0
    assert all(row.passed for row in orbit_ball_reconstruction(4, e4, rotation_count=50))
    for bad in ([0.0, 0.0, 0.5], [np.nan, 0.0, 1.0]):
        with pytest.raises(ValueError):
            orbit_ball_reconstruction(3, np.array(bad))


def test_classical_pairing_is_bilinear_in_internals():
    rng = np.random.default_rng(39)
    p = rest_momentum(1.0, 3)
    for _ in range(50):
        z1 = sample_ball_state(3, rng)
        z2 = sample_ball_state(3, rng)
        e = sample_ball_effect(3, rng)
        q = rng.uniform()
        mixed = ClassicalMomentumState(p, q * z1 + (1 - q) * z2)
        eff = ClassicalMomentumEffect(p, e)
        split = q * classical_pairing(eff, ClassicalMomentumState(p, z1)) + (
            1 - q
        ) * classical_pairing(eff, ClassicalMomentumState(p, z2))
        assert abs(classical_pairing(eff, mixed) - split) < 1e-12


def test_effect_transform_uses_transpose_inverse():
    rng = np.random.default_rng(38)
    n = 3
    rep = rotation_rep(n)
    rest = rest_momentum(1.0, n)
    effect = ClassicalMomentumEffect(rest, sample_ball_effect(n, rng))
    g = _rotation_transform(n, rng)
    moved = transform_classical(g, effect, rep)
    assert type(moved) is ClassicalMomentumEffect
    # for rotations the transpose inverse is the rotation itself
    assert np.allclose(moved.internal, g.lorentz @ effect.internal, atol=1e-12)
    # a shear tells the two actions apart: a state with the same internal
    # vector moves by the shear, the effect by its transpose inverse
    shear = np.eye(n + 1)
    shear[1, 2] = 0.7
    sheared = RepMap(state_map=lambda g: shear)
    frame = identity_transform(n)
    state = ClassicalMomentumState(rest, effect.internal)
    moved_state = transform_classical(frame, state, sheared)
    moved_effect = transform_classical(frame, effect, sheared)
    assert type(moved_state) is ClassicalMomentumState
    assert np.allclose(moved_state.internal, shear @ effect.internal)
    assert np.allclose(moved_effect.internal, np.linalg.inv(shear).T @ effect.internal)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_kernels_equal_per_sample_calls(n):
    rng = np.random.default_rng(40 + n)
    count = 9
    rep = rotation_rep(n)
    labels = np.array([random_momentum(1.0, n, rng).vector for _ in range(count)])
    effect_labels = labels.copy()
    effect_labels[0] = labels[1]  # one pair whose labels disagree pairs to 0
    internals = np.array([sample_ball_state(n, rng) for _ in range(count)])
    effect_internals = np.array([sample_ball_effect(n, rng) for _ in range(count)])
    lams = np.array([_rotation_transform(n, rng).lorentz for _ in range(count)])
    frames = PoincareTransform(np.zeros((count, n + 1)), lams)
    state = ClassicalMomentumState(MassiveMomentum(labels, 1.0), internals)
    effect = ClassicalMomentumEffect(MassiveMomentum(effect_labels, 1.0), effect_internals)
    moved_state = transform_classical(frames, state, rep)
    moved_effect = transform_classical(frames, effect, rep)
    before = classical_pairing(effect, state)
    after = classical_pairing(moved_effect, moved_state)
    effect_maps = rep.effect(frames)
    assert before[0] == 0.0
    for i in range(count):
        frame = PoincareTransform(np.zeros(n + 1), lams[i])
        z = ClassicalMomentumState(MassiveMomentum(labels[i], 1.0), internals[i])
        e = ClassicalMomentumEffect(MassiveMomentum(effect_labels[i], 1.0), effect_internals[i])
        z2 = transform_classical(frame, z, rep)
        e2 = transform_classical(frame, e, rep)
        single = classical_pairing(e, z)
        assert type(single) is float and before[i] == single
        assert after[i] == classical_pairing(e2, z2)
        assert np.array_equal(moved_state.momentum.vector[i], z2.momentum.vector)
        assert np.array_equal(moved_state.internal[i], z2.internal)
        assert np.array_equal(moved_effect.momentum.vector[i], e2.momentum.vector)
        assert np.array_equal(moved_effect.internal[i], e2.internal)
        assert np.array_equal(effect_maps[i], rep.effect(frame))
    assert invariance_deviation([(effect, state)], frames, rep) == np.max(np.abs(after - before))

    # a frame change that is not Lorentz moves one label off the mass shell
    skewed = lams.copy()
    skewed[4] *= 1.1
    with pytest.raises(ValueError, match="mass shell"):
        transform_classical(PoincareTransform(np.zeros((count, n + 1)), skewed), state, rep)
    # a NaN frame change is not rejected by the rotation test: it reaches the maps
    nan_frames = lams.copy()
    nan_frames[2] = np.nan
    maps = rep.state(PoincareTransform(np.zeros((count, n + 1)), nan_frames))
    assert np.isnan(maps[2]).all() and np.array_equal(maps[3], lams[3])

    if n == 3:
        detectors = np.vstack([np.eye(3), -np.eye(3)])
        rotations = lams[:, 1:, 1:]
        stacked = detector_sphere_experiment(internals, detectors, rotations)
        singles = [
            detector_sphere_experiment(internals[i], detectors, rotations[i])
            for i in range(count)
        ]
        assert np.array_equal(stacked.before, [r.before for r in singles])
        assert np.array_equal(stacked.after, [r.after for r in singles])
        assert np.array_equal(stacked.total_before, [r.total_before for r in singles])
        assert all(type(r.total_before) is float for r in singles)
        assert stacked.worst_deviation == max(r.worst_deviation for r in singles)
