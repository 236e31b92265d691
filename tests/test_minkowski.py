import json

import numpy as np
import pytest

from gptkit.minkowski import (
    MassiveMomentum,
    PoincareTransform,
    apply_poincare,
    apply_to_pair,
    boost_x,
    compose,
    identity_transform,
    interval,
    inverse,
    is_lorentz,
    is_proper_orthochronous,
    little_group_element,
    lorentz_inverse,
    metric,
    minkowski_norm2,
    momentum_from_spatial,
    random_momentum,
    random_poincare,
    random_proper_orthochronous,
    rest_momentum,
    rotation_block_angle,
    standard_boost,
    transforms_to_json,
    wigner_rotation,
)
from gptkit.rotations import (
    rotation_between,
    sample_special_orthogonal,
)


def test_interval_examples():
    zero = np.zeros(4)
    assert interval(zero, np.array([1.0, 1.0, 0.0, 0.0])) == 0.0  # lightlike
    assert interval(zero, np.array([1.0, 0.0, 0.0, 0.0])) == -1.0  # timelike
    assert interval(zero, np.array([0.0, 2.0, 0.0, 0.0])) == 4.0


def test_interval_invariance_under_random_transforms():
    rng = np.random.default_rng(100)
    for n in (2, 3, 4):
        for _ in range(100):
            p = random_poincare(n, rng)
            x = rng.uniform(-3, 3, n + 1)
            y = rng.uniform(-3, 3, n + 1)
            before = interval(x, y)
            after = interval(apply_poincare(p, x), apply_poincare(p, y))
            assert abs(before - after) < 1e-9


def test_lorentz_classification():
    assert is_lorentz(np.eye(4))
    assert is_proper_orthochronous(np.eye(4))
    time_reversal = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert is_lorentz(time_reversal)
    assert not is_proper_orthochronous(time_reversal)
    space_inversion = np.diag([1.0, -1.0, -1.0, -1.0])
    assert is_lorentz(space_inversion)
    assert not is_proper_orthochronous(space_inversion)
    boost = boost_x(1.0, 1.0, 3)  # gamma = sqrt(2)
    assert is_lorentz(boost)
    assert is_proper_orthochronous(boost)
    assert not is_lorentz(np.eye(3) * 2.0)


def test_apply_poincare():
    n = 3
    a = np.array([1.0, 2.0, 3.0, 4.0])
    p = PoincareTransform(a, np.eye(n + 1))
    x = np.array([0.5, -1.0, 0.0, 2.0])
    assert np.allclose(apply_poincare(p, x), x + a)
    rot = np.eye(4)
    rot[1:, 1:] = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    pr = PoincareTransform(np.zeros(4), rot)
    out = apply_poincare(pr, np.array([7.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out, [7.0, 0.0, 1.0, 0.0])  # rotations fix time


def test_action_on_pairs_ignores_translation_for_momentum():
    rng = np.random.default_rng(5)
    p = random_poincare(3, rng)
    b = rng.uniform(-2, 2, 4)
    q = rng.uniform(-2, 2, 4)
    b2, q2 = apply_to_pair(p, b, q)
    assert np.allclose(b2, p.lorentz @ b + p.translation)
    assert np.allclose(q2, p.lorentz @ q)


def test_compose_and_inverse():
    rng = np.random.default_rng(6)
    n = 3
    p = random_poincare(n, rng)
    round_trip = compose(p, inverse(p))
    assert np.max(np.abs(round_trip.translation)) < 1e-10
    assert np.max(np.abs(round_trip.lorentz - np.eye(n + 1))) < 1e-10
    t1 = PoincareTransform(np.array([1.0, 0, 0, 0]), np.eye(4))
    t2 = PoincareTransform(np.array([0.0, 2, 0, 0]), np.eye(4))
    assert np.allclose(compose(t2, t1).translation, [1.0, 2.0, 0.0, 0.0])


def test_compose_associativity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = (random_poincare(3, rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.max(np.abs(left.translation - right.translation)) < 1e-9
        assert np.max(np.abs(left.lorentz - right.lorentz)) < 1e-9


def test_boost_x():
    assert np.allclose(boost_x(0.0, 1.0, 3), np.eye(4))
    s = boost_x(1.0, 1.0, 3)
    rest = rest_momentum(1.0, 3)
    moved = s @ rest.vector
    assert np.allclose(moved, [np.sqrt(2.0), 1.0, 0.0, 0.0], atol=1e-12)
    # negating the momentum argument inverts the boost
    assert np.max(np.abs(s @ boost_x(-1.0, 1.0, 3) - np.eye(4))) < 1e-10
    assert np.max(np.abs(np.linalg.inv(s) - boost_x(-1.0, 1.0, 3))) < 1e-10
    with pytest.raises(ValueError):
        boost_x(1.0, 0.0, 3)


def test_boost_x_rejects_a_nan_zero_or_negative_mass():
    for mass in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="mass must be positive"):
            boost_x(1.0, mass, 1)


def test_rotation_to_axis():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(rotation_between(e1, e1), np.eye(3))
    block = rotation_between(e1, -e1)
    assert np.allclose(block @ e1, -e1, atol=1e-12)
    assert abs(np.linalg.det(block) - 1.0) < 1e-12
    # rotation by pi in the (1,2) plane
    assert np.allclose(block, np.diag([-1.0, -1.0, 1.0]))
    b2 = rotation_between(e1, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(b2 @ e1, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.max(np.abs(b2.T @ b2 - np.eye(3))) < 1e-12
    with pytest.raises(ValueError):
        rotation_between(e1, np.array([0.0, 0.5, 0.0]))


def test_standard_boost_maps_rest_to_target():
    rest = rest_momentum(1.0, 3)
    assert np.allclose(standard_boost(rest), np.eye(4))
    p = MassiveMomentum(np.array([np.sqrt(2.0), 0.0, 1.0, 0.0]), 1.0)
    lam = standard_boost(p)
    assert np.max(np.abs(lam @ rest.vector - p.vector)) < 1e-10
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = random_momentum(1.0, 3, rng)
        lam_q = standard_boost(q)
        assert is_proper_orthochronous(lam_q, 1e-9)
        assert np.max(np.abs(lam_q @ rest.vector - q.vector)) < 1e-9


def test_standard_boost_one_spatial_dimension():
    p = momentum_from_spatial(1.0, np.array([-2.0]))
    lam = standard_boost(p)
    assert is_proper_orthochronous(lam, 1e-9)
    assert np.max(np.abs(lam @ rest_momentum(1.0, 1).vector - p.vector)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_boost_closed_form_across_scales(n):
    # 2^-664 ~ 1.3e-200 and 2^664 ~ 7.7e199 square to 0 and to inf, and as
    # powers of two they scale u = p/m exactly, so each momentum is on shell
    rng = np.random.default_rng(17)
    axes = np.vstack([np.eye(n), -np.eye(n)])
    generic = rng.standard_normal((6, n))
    generic /= np.linalg.norm(generic, axis=1, keepdims=True)
    eta = metric(n)
    for mass in (2.0**-664, 1e-3, 1.0, 1e3, 2.0**664):
        rest = rest_momentum(mass, n)
        assert np.array_equal(standard_boost(rest), np.eye(n + 1))
        for speed in (1e-12, 1e-6, 1.0, 1e3, 1e6):
            # beyond |u| ~ 1e5 the rounding of gamma^2 alone can exceed the
            # 1e-6 shell test, so only the axes stay on shell there
            u = speed * (axes if speed > 1e3 else np.vstack([axes, generic]))
            gamma = np.sqrt(1.0 + np.sum(u * u, axis=1))
            p = MassiveMomentum(mass * np.column_stack([gamma, u]), mass)
            boosts = standard_boost(p)
            defect = np.swapaxes(boosts, -1, -2) @ eta @ boosts - eta
            assert np.all(np.max(np.abs(defect), axis=(1, 2)) <= 1e-12 * gamma**2)
            moved = boosts @ rest.vector
            assert np.all(np.abs(moved - p.vector) <= 1e-12 * mass * gamma[:, None])


def test_mass_shell_is_tested_in_units_of_the_mass():
    # E = 10 m at rest is off shell however small m is
    with pytest.raises(ValueError, match="mass shell"):
        MassiveMomentum(np.array([1e-3, 0.0, 0.0, 0.0]), 1e-4)
    # m^2 overflows, p/m does not
    huge = MassiveMomentum(np.array([1e200, 0.0, 0.0, 0.0]), 1e200)
    assert np.array_equal(standard_boost(huge), np.eye(4))
    # E^2 and |p|^2 near 1e10 cancel to 1, leaving rounding of order 1e-6
    for spatial in ([1e5, 0.0, 0.0], [0.0, 3e5, 4e5]):
        assert np.array_equal(momentum_from_spatial(1.0, spatial).spatial, spatial)
    # the energy is built from p/m too
    energy = momentum_from_spatial(1e200, [0.0, 3e200, 4e200]).vector[0]
    assert abs(energy / (np.sqrt(26.0) * 1e200) - 1.0) <= 1e-15
    assert momentum_from_spatial(1e-200, [0.0, 0.0, 0.0]).vector[0] == 1e-200
    # a spacelike vector at the same gamma is still off the shell
    with pytest.raises(ValueError, match="mass shell"):
        MassiveMomentum(np.array([1e5, 1e5, 1.0, 0.0]), 1.0)


def test_mass_shell_preserved():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        for _ in range(100):
            p = random_momentum(1.0, n, rng)
            lam = random_proper_orthochronous(n, rng)
            assert abs(minkowski_norm2(lam @ p.vector) + 1.0) < 1e-9


def test_massive_momentum_validation():
    with pytest.raises(ValueError):
        MassiveMomentum(np.array([1.0, 1.0, 0.0, 0.0]), 1.0)  # lightlike
    with pytest.raises(ValueError):
        MassiveMomentum(np.array([-1.0, 0.0, 0.0, 0.0]), 1.0)  # negative energy
    with pytest.raises(ValueError):
        rest_momentum(-1.0, 3)
    # NaN fails every bound instead of slipping past it
    for vector, mass in (
        ([np.nan, 0.3, 0.0, 0.0], 1.0),
        ([np.sqrt(1.09), np.nan, 0.0, 0.0], 1.0),
        ([1.0, 0.0, 0.0, 0.0], np.nan),
    ):
        with pytest.raises(ValueError):
            MassiveMomentum(np.array(vector), mass)


def test_rotation_from_e1_rejects_nan_and_minus_e1_in_so1():
    e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    for bad in (np.array([np.nan, 0.0, 1.0]), np.vstack([e3, [0.0, np.nan, 1.0], e3])):
        with pytest.raises(ValueError, match="unit vector"):
            rotation_between(e1, bad)
    plus = np.array([1.0])
    assert np.array_equal(rotation_between(plus, plus), [[1.0]])
    for bad in (np.array([-1.0]), np.array([[1.0], [-1.0]])):
        with pytest.raises(ValueError, match="SO\\(1\\)"):
            rotation_between(plus, bad)


def test_rotation_between_in_so1_is_the_identity_or_nothing():
    minus, plus = np.array([-1.0]), np.array([1.0])
    for source in (minus, plus):
        assert np.array_equal(rotation_between(source, source), [[1.0]])
    assert np.array_equal(rotation_between(minus, np.array([[-1.0], [-1.0]])), [[[1.0]], [[1.0]]])
    for source, target in ((plus, minus), (minus, plus), (minus, np.array([[-1.0], [1.0]]))):
        with pytest.raises(ValueError, match="SO\\(1\\)"):
            rotation_between(source, target)
    with pytest.raises(ValueError, match="unit vector"):
        rotation_between(np.array([np.nan]), minus)


# 0, tiny angles, generic ones and angles just short of a half-turn
_ANGLES = np.concatenate(
    [[0.0], 10.0 ** np.arange(-13.0, -3.0), [0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
     np.pi - 10.0 ** np.arange(-4.0, -13.0, -1.0), [np.pi]]
)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rotation_between_is_exact_at_every_angle(n):
    rng = np.random.default_rng(70 + n)
    randoms = rng.standard_normal((3, n))
    for s in np.vstack([np.eye(n)[:1], randoms / np.linalg.norm(randoms, axis=1, keepdims=True)]):
        u = rng.standard_normal(n)
        u -= (u @ s) * s
        u /= np.linalg.norm(u)
        targets = np.cos(_ANGLES)[:, None] * s + np.sin(_ANGLES)[:, None] * u
        sources = np.broadcast_to(s, targets.shape)
        for a, b in ((sources, targets), (targets, sources)):
            stacked = rotation_between(a, b)
            assert np.array_equal(stacked, [rotation_between(x, y) for x, y in zip(a, b)])
            assert np.max(np.abs((stacked @ a[:, :, None])[:, :, 0] - b)) <= 1e-14
            gram = np.swapaxes(stacked, -1, -2) @ stacked
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-14
            assert np.max(np.abs(np.linalg.det(stacked) - 1.0)) <= 1e-14
        # a single source broadcasts against the stack of targets
        assert np.array_equal(rotation_between(s, targets), rotation_between(sources, targets))
        # directions at the edge of the unit tolerance still give rotations
        edge = rotation_between((1.0 + 9e-10) * s, (1.0 - 9e-10) * targets)
        assert np.max(np.abs(np.swapaxes(edge, -1, -2) @ edge - np.eye(n))) <= 1e-14
        assert np.max(np.abs(edge @ s - targets)) <= 1e-14


def test_little_group_element_identity_case():
    p = rest_momentum(1.0, 3)
    g = little_group_element(np.zeros(4), np.zeros(4), np.eye(4), p)
    assert np.max(np.abs(g.translation)) < 1e-12
    assert np.max(np.abs(g.lorentz - np.eye(4))) < 1e-12


def test_little_group_element_fixes_rest_pair():
    rng = np.random.default_rng(10)
    origin = np.zeros(4)
    rest = rest_momentum(1.0, 3)
    for _ in range(200):
        a = rng.uniform(-2, 2, 4)
        x = rng.uniform(-2, 2, 4)
        lam = random_proper_orthochronous(3, rng)
        p = random_momentum(1.0, 3, rng)
        g = little_group_element(a, x, lam, p)
        b2, q2 = apply_to_pair(g, origin, rest.vector)
        assert np.max(np.abs(b2)) < 1e-9
        assert np.max(np.abs(q2 - rest.vector)) < 1e-9


def test_little_group_element_reduces_to_rotation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rot = np.eye(4)
        from gptkit.rotations import sample_special_orthogonal

        rot[1:, 1:] = sample_special_orthogonal(3, rng)
        a = rng.uniform(-2, 2, 4)
        x = rng.uniform(-2, 2, 4)
        p = random_momentum(1.0, 3, rng)
        g = little_group_element(a, x, rot, p)
        assert np.max(np.abs(g.translation)) < 1e-9
        assert np.max(np.abs(g.lorentz - rot)) < 1e-9


def test_little_group_element_rejects_improper_frames():
    with pytest.raises(ValueError):
        little_group_element(
            np.zeros(4), np.zeros(4), np.diag([-1.0, 1, 1, 1]), rest_momentum(1.0, 3)
        )


def test_wigner_rotation_properties():
    rng = np.random.default_rng(12)
    eta = metric(3)
    for _ in range(100):
        lam = random_proper_orthochronous(3, rng)
        p = random_momentum(1.0, 3, rng)
        w = wigner_rotation(lam, p)
        assert np.max(np.abs(w.T @ eta @ w - eta)) < 1e-9
        assert abs(np.linalg.det(w) - 1.0) < 1e-9
        assert np.max(np.abs(w[0] - np.array([1.0, 0, 0, 0]))) < 1e-9
        assert np.max(np.abs(w[:, 0] - np.array([1.0, 0, 0, 0]))) < 1e-9


def test_wigner_rotation_collinear_boost_is_identity():
    direction = np.array([0.6, 0.0, 0.8])
    p = momentum_from_spatial(1.0, 0.7 * direction)
    lam = standard_boost(momentum_from_spatial(1.0, 1.3 * direction))
    w = wigner_rotation(lam, p)
    assert np.max(np.abs(w - np.eye(4))) < 1e-10


def test_wigner_rotation_of_pure_rotation_is_itself():
    rng = np.random.default_rng(13)
    from gptkit.rotations import sample_special_orthogonal

    for _ in range(50):
        rot = np.eye(4)
        rot[1:, 1:] = sample_special_orthogonal(3, rng)
        p = random_momentum(1.0, 3, rng)
        w = wigner_rotation(rot, p)
        assert np.max(np.abs(w - rot)) < 1e-9


# Regression constant: rotation angle for perpendicular boosts with
# gamma1 = gamma2 = sqrt(2), computed once from the matrix product; it agrees
# with the closed form tan(theta) = sinh(h1) sinh(h2) / (cosh(h1) + cosh(h2))
# = 1/(2 sqrt(2)), i.e. theta = acos(2 sqrt(2) / 3).
PERPENDICULAR_SQRT2_ANGLE = 0.33983690945412165


def test_wigner_rotation_perpendicular_boosts_regression():
    m = 1.0
    p = momentum_from_spatial(m, np.array([1.0, 0.0, 0.0]))  # boost 1 along x
    lam = standard_boost(momentum_from_spatial(m, np.array([0.0, 1.0, 0.0])))
    w = wigner_rotation(lam, p)
    angle = rotation_block_angle(w)
    assert abs(angle - PERPENDICULAR_SQRT2_ANGLE) < 1e-9
    assert abs(angle - np.arccos(2.0 * np.sqrt(2.0) / 3.0)) < 1e-12
    assert angle > 1e-3  # genuinely nontrivial


def test_little_group_composition_law():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = rng.uniform(-2, 2, 4)
        a2 = rng.uniform(-2, 2, 4)
        x = rng.uniform(-2, 2, 4)
        lam1 = random_proper_orthochronous(3, rng)
        lam2 = random_proper_orthochronous(3, rng)
        p = random_momentum(1.0, 3, rng)
        moved = MassiveMomentum(lam1 @ p.vector, p.mass)
        left = compose(
            little_group_element(a2, x + a, lam2, moved),
            little_group_element(a, x, lam1, p),
        )
        right = little_group_element(a + a2, x, lam2 @ lam1, p)
        assert np.max(np.abs(left.translation - right.translation)) < 1e-8
        assert np.max(np.abs(left.lorentz - right.lorentz)) < 1e-8


def test_boost_then_standard_boost_consistency():
    # standard_boost(lam p) on the rest vector equals lam standard_boost(p) on it
    rng = np.random.default_rng(15)
    rest = rest_momentum(1.0, 3).vector
    for _ in range(100):
        lam = random_proper_orthochronous(3, rng)
        p = random_momentum(1.0, 3, rng)
        moved = MassiveMomentum(lam @ p.vector, 1.0)
        lhs = standard_boost(moved) @ rest
        rhs = lam @ (standard_boost(p) @ rest)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_lorentz_inverse_identity():
    rng = np.random.default_rng(16)
    lam = random_proper_orthochronous(4, rng)
    assert np.max(np.abs(lorentz_inverse(lam) @ lam - np.eye(5))) < 1e-12


def test_transforms_json_log():
    t = identity_transform(2)
    text = transforms_to_json([t])
    assert '"a":[0.0,0.0,0.0]' in text
    assert '"Lambda"' in text


# ---------------------------------------------------------------------------
# Batched kernels against one-sample-at-a-time references
#
# The _ref_* functions below are the scalar kernels and samplers as they were
# before the kernels took a leading sample axis, kept verbatim in plain numpy
# so the batched forms have an independent reference.
# ---------------------------------------------------------------------------


def _ref_rotation_taking_first_axis(d):
    n = d.shape[0]
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = d - e1
    if np.linalg.norm(v) < 1e-12:
        return np.eye(n)
    h1 = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    w = e1 - (e1 @ d) * d
    if np.linalg.norm(w) < 1e-8:
        k = int(np.argmin(np.abs(d)))
        w = np.zeros(n)
        w[k] = 1.0
        w = w - (w @ d) * d
    h2 = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    return h2 @ h1


def _ref_rotation_between(s, t):
    """The closed form of rotation_between for one pair, as scalar code."""
    n = s.shape[0]
    s, t = s / np.linalg.norm(s), t / np.linalg.norm(t)
    c = float(s @ t)
    flip = c < 0
    if flip:
        a = np.zeros(n)
        a[int(np.argmin(np.abs(s)))] = 1.0
        a = a - (a @ s) * s
        a = a / np.sqrt(a @ a)
        half_turn = np.eye(n) - 2.0 * (np.outer(s, s) + np.outer(a, a))
        s, c = -s, -c
    k = np.outer(t, s) - np.outer(s, t)
    r = np.eye(n) + k + (k @ k) / (1.0 + c)
    return r @ half_turn if flip else r


def _ref_lorentz_inverse(m):
    return metric(m.shape[0] - 1) @ m.T @ metric(m.shape[0] - 1)


def _ref_boost_x(p, mass, n):
    gamma = float(np.sqrt(p**2 + mass**2) / mass)
    out = np.eye(n + 1)
    out[0, 0] = out[1, 1] = gamma
    out[0, 1] = out[1, 0] = p / mass
    return out


def _ref_rotation_to_axis(d):
    out = np.eye(d.shape[0] + 1)
    out[1:, 1:] = _ref_rotation_taking_first_axis(d)
    return out


def _ref_standard_boost(vector, mass):
    n = vector.shape[0] - 1
    spatial = vector[1:]
    norm = float(np.linalg.norm(spatial))
    if norm < 1e-14:
        return np.eye(n + 1)
    if n == 1:
        return _ref_boost_x(float(spatial[0]), mass, 1)
    q = _ref_rotation_to_axis(spatial / norm)
    return q @ _ref_boost_x(norm, mass, n) @ _ref_lorentz_inverse(q)


def _ref_compose(second, first):
    return (second[0] + second[1] @ first[0], second[1] @ first[1])


def _ref_little_group_element(a, x, lam, vector, mass):
    boost_p = _ref_standard_boost(vector, mass)
    boost_moved_inv = _ref_lorentz_inverse(_ref_standard_boost(lam @ vector, mass))
    first = (x, boost_p)
    middle = (x + a - lam @ x, lam)
    last = (-(boost_moved_inv @ (x + a)), boost_moved_inv)
    return _ref_compose(last, _ref_compose(middle, first))


def _ref_wigner_rotation(lam, vector, mass):
    moved_inv = _ref_lorentz_inverse(_ref_standard_boost(lam @ vector, mass))
    return moved_inv @ lam @ _ref_standard_boost(vector, mass)


def _ref_sample_special_orthogonal(n, rng):
    if n == 1:
        return np.eye(1)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _ref_random_proper_orthochronous(n, rng, max_rapidity=1.5):
    rotation = np.eye(n + 1)
    rotation[1:, 1:] = _ref_sample_special_orthogonal(n, rng)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    rapidity = rng.uniform(-max_rapidity, max_rapidity)
    # the closed-form boost, with the operations of minkowski._boost
    u = np.sinh(rapidity) * direction
    gamma = np.sqrt(1.0 + u @ u)
    s = np.eye(n + 1)
    s[0, 0] = gamma
    s[0, 1:] = s[1:, 0] = u
    s[1:, 1:] += np.outer(u, u) / (1.0 + gamma)
    return rotation @ s


def _ref_product_frame(n, rng, max_rapidity=1.5):
    """The frame change built as a rotation-boost-rotation product: a boost
    along e1 conjugated by the Householder rotation taking e1 to the
    direction.  At n = 1 that rotation is the identity, so the direction's
    sign is not used."""
    rotation = np.eye(n + 1)
    rotation[1:, 1:] = _ref_sample_special_orthogonal(n, rng)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    rapidity = rng.uniform(-max_rapidity, max_rapidity)
    q = _ref_rotation_to_axis(direction) if n > 1 else np.eye(2)
    s = np.eye(n + 1)
    s[0, 0] = s[1, 1] = np.cosh(rapidity)
    s[0, 1] = s[1, 0] = np.sinh(rapidity)
    return rotation @ (q @ s @ _ref_lorentz_inverse(q))


def _ref_random_poincare(n, rng):
    translation = rng.uniform(-5.0, 5.0, n + 1)
    return translation, _ref_random_proper_orthochronous(n, rng)


def _ref_random_momentum(mass, n, rng):
    return _ref_random_proper_orthochronous(n, rng) @ rest_momentum(mass, n).vector


def _edge_momenta(n, rng, mass=1.0):
    """Random momenta plus zero spatial momentum and momenta along +e1 and -e1."""
    e1 = np.eye(n)[0]
    spatial = [rng.uniform(-2, 2, n) for _ in range(12)] + [np.zeros(n), 0.8 * e1, -0.8 * e1]
    spatial += [1e-15 * e1, -3.0 * e1, 0.5 * (-e1 + 1e-10 * np.eye(n)[-1])]
    return np.array([np.concatenate([[np.sqrt(mass**2 + s @ s)], s]) for s in spatial])


def _edge_frames(n, rng, count):
    """Random frame changes, the identity and boosts along +e1 and -e1."""
    frames = [_ref_random_proper_orthochronous(n, rng) for _ in range(count - 3)]
    frames += [np.eye(n + 1), _ref_boost_x(0.7, 1.0, n), _ref_boost_x(-1.1, 1.0, n)]
    return np.array(frames)


def _assert_matches(batched, references, bitwise_expected=False):
    references = np.array(references)
    assert batched.shape == references.shape
    assert np.max(np.abs(batched - references)) <= 1e-13
    if bitwise_expected:
        assert np.array_equal(batched, references)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_kernels_match_scalar_references(n):
    rng = np.random.default_rng(40 + n)
    e1 = np.eye(n)[0]
    if n == 1:  # SO(1) holds no rotation taking e1 to -e1
        dirs = np.array([e1])
    else:
        near_minus_e1 = -e1 + 1e-10 * np.eye(n)[1]
        dirs = np.vstack([rng.standard_normal((10, n)), near_minus_e1])
        dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True), e1, -e1])
    # the rotations take no squares (only the boosts' gamma does, where a
    # stacked square and libm pow may round apart), so they agree bit for bit
    _assert_matches(
        rotation_between(e1, dirs),
        [_ref_rotation_between(e1, d) for d in dirs],
        bitwise_expected=True,
    )
    _assert_matches(
        rotation_between(dirs, dirs[::-1]),
        [_ref_rotation_between(s, t) for s, t in zip(dirs, dirs[::-1])],
        bitwise_expected=True,
    )

    vectors = _edge_momenta(n, rng)
    count = len(vectors)
    momenta = MassiveMomentum(vectors, 1.0)
    boosts = standard_boost(momenta)
    _assert_matches(boosts, [_ref_standard_boost(v, 1.0) for v in vectors])
    # exact zero spatial momentum gives the identity; 1e-15 a boost within
    # 2e-15 of it
    speed = np.linalg.norm(vectors[:, 1:], axis=1)
    at_rest, near_rest = speed == 0.0, (speed > 0.0) & (speed < 1e-14)
    assert at_rest.sum() == near_rest.sum() == 1
    assert np.array_equal(boosts[at_rest], [np.eye(n + 1)])
    assert np.max(np.abs(boosts[near_rest] - np.eye(n + 1))) <= 2e-15

    lam = _edge_frames(n, rng, count)
    a = rng.uniform(-2, 2, (count, n + 1))
    x = rng.uniform(-2, 2, (count, n + 1))
    g = little_group_element(a, x, lam, momenta)
    refs = [_ref_little_group_element(*args, 1.0) for args in zip(a, x, lam, vectors)]
    _assert_matches(g.translation, [t for t, _ in refs])
    _assert_matches(g.lorentz, [m for _, m in refs])
    _assert_matches(
        wigner_rotation(lam, momenta),
        [_ref_wigner_rotation(m, v, 1.0) for m, v in zip(lam, vectors)],
    )
    # a batch of one is the scalar call
    single = little_group_element(a[0], x[0], lam[0], MassiveMomentum(vectors[0], 1.0))
    assert np.array_equal(single.lorentz, g.lorentz[0])
    assert np.array_equal(single.translation, g.translation[0])


def test_batches_with_one_bad_sample_raise():
    rng = np.random.default_rng(50)
    n = 3
    vectors = _edge_momenta(n, rng)
    lam = _edge_frames(n, rng, len(vectors))
    a = np.zeros((len(vectors), n + 1))
    momenta = MassiveMomentum(vectors, 1.0)
    # time reversal has determinant -1; total inversion has +1 but L00 = -1
    for bad in (np.diag([-1.0, 1.0, 1.0, 1.0]), -np.eye(4)):
        improper = lam.copy()
        improper[4] = bad
        with pytest.raises(ValueError, match="proper orthochronous"):
            little_group_element(a, a, improper, momenta)
        with pytest.raises(ValueError, match="energy"):
            wigner_rotation(improper, momenta)
    off_shell = vectors.copy()
    off_shell[7, 0] += 0.5
    with pytest.raises(ValueError, match="mass shell"):
        MassiveMomentum(off_shell, 1.0)
    not_a_number = vectors.copy()
    not_a_number[7, 2] = np.nan
    with pytest.raises(ValueError, match="mass shell"):
        MassiveMomentum(not_a_number, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_special_orthogonal_equals_draws_in_a_row(n):
    stacked_rng = np.random.default_rng(60)
    loop_rng = np.random.default_rng(60)
    stacked = sample_special_orthogonal(n, stacked_rng, 25)
    looped = np.array([_ref_sample_special_orthogonal(n, loop_rng) for _ in range(25)])
    assert np.array_equal(stacked, looped)
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state
    if n == 1:  # SO(1) draws nothing
        assert stacked_rng.bit_generator.state == np.random.default_rng(60).bit_generator.state


class _Replay:
    """Stands in for a generator: each draw returns a copy of the next value."""

    def __init__(self, *values):
        self._values = iter(values)

    def standard_normal(self, *_):
        return np.copy(next(self._values))

    uniform = standard_normal


def _frame_draws(n, rng, size):
    """random_proper_orthochronous's arrays for one stack, in its order:
    Gaussian matrices (none for SO(1)), boost directions, rapidities."""
    gauss = (rng.standard_normal((size, n, n)),) if n > 1 else ()
    return (*gauss, rng.standard_normal((size, n)), rng.uniform(-1.5, 1.5, size))


def _ref_frames(n, draws):
    """Scalar reference frame changes built from one stack's _frame_draws."""
    return np.array([_ref_random_proper_orthochronous(n, _Replay(*d)) for d in zip(*draws)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_samplers_draw_the_reference_numbers(n):
    # one sample (size=None) draws what the scalar references draw
    rng = np.random.default_rng(70 + n)
    ref_rng = np.random.default_rng(70 + n)
    for _ in range(10):
        p = random_poincare(n, rng)
        translation, lam = _ref_random_poincare(n, ref_rng)
        assert np.array_equal(p.translation, translation)
        assert np.array_equal(p.lorentz, lam)
        assert np.array_equal(
            random_proper_orthochronous(n, rng), _ref_random_proper_orthochronous(n, ref_rng)
        )
        assert np.array_equal(
            random_momentum(1.3, n, rng).vector, _ref_random_momentum(1.3, n, ref_rng)
        )
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # a stack draws each variable as one array, then builds each sample as
    # the scalar reference does
    size = 9
    stack_rng = np.random.default_rng(80 + n)
    ref_rng = np.random.default_rng(80 + n)
    p = random_poincare(n, stack_rng, size)
    translation = ref_rng.uniform(-5.0, 5.0, (size, n + 1))
    assert np.array_equal(p.translation, translation)
    assert np.array_equal(p.lorentz, _ref_frames(n, _frame_draws(n, ref_rng, size)))
    q = random_momentum(1.3, n, stack_rng, size)
    assert q.vector.shape == (size, n + 1)
    rest = rest_momentum(1.3, n).vector
    assert np.array_equal(q.vector, _ref_frames(n, _frame_draws(n, ref_rng, size)) @ rest)
    assert stack_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_frames_equal_the_rotation_boost_rotation_product(n):
    size = 400
    frames = random_proper_orthochronous(n, np.random.default_rng(90 + n), size)
    draws = list(_frame_draws(n, np.random.default_rng(90 + n), size))
    if n == 1:
        # SO(1) holds no rotation taking e1 to -e1, so the product boosts
        # along +e1 whatever the direction: a direction of -1 flips the
        # rapidity's sign instead
        assert {-1.0, 1.0} == set(np.sign(draws[0][:, 0]))
        draws[1] = draws[1] * np.sign(draws[0][:, 0])
    products = np.array([_ref_product_frame(n, _Replay(*d)) for d in zip(*draws)])
    assert np.max(np.abs(frames - products)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boost_x_is_the_standard_boost_along_the_first_axis(n):
    rng = np.random.default_rng(100 + n)
    e1 = np.eye(n)[0]
    for mass in (1e-200, 1.0, 1e200):
        momenta = mass * np.concatenate([rng.uniform(-3.0, 3.0, 7), [0.0, 1e-15, -1e6]])
        boosts = boost_x(momenta, mass, n)
        vectors = np.array([momentum_from_spatial(mass, p * e1).vector for p in momenta])
        assert np.array_equal(boosts, standard_boost(MassiveMomentum(vectors, mass)))
        assert np.array_equal(lorentz_inverse(boosts), boost_x(-momenta, mass, n))
        for p, boost in zip(momenta, boosts):
            assert np.array_equal(boost_x(p, mass, n), boost)
            assert np.array_equal(boost, standard_boost(momentum_from_spatial(mass, p * e1)))
            assert np.array_equal(lorentz_inverse(boost), boost_x(-p, mass, n))


# ---------------------------------------------------------------------------
# The CLI suites draw each variable as one array per stack
# ---------------------------------------------------------------------------


def test_minkowski_suite_logs_the_reference_draws(tmp_path, monkeypatch):
    from gptkit import cli

    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 20)  # 50 samples: stacks of 20, 20 and 10
    log = tmp_path / "transforms.json"
    args = ["--n", "3", "--seed", "7", "--samples", "50", "--log-transforms", str(log)]
    assert cli.main(["minkowski-checks", *args]) == 0
    rng = np.random.default_rng(7)
    expected = []
    for size in (20, 20, 10):
        translations = rng.uniform(-5.0, 5.0, (size, 4))
        frames = _frame_draws(3, rng, size)
        rng.uniform(-3, 3, (size, 4))
        rng.uniform(-3, 3, (size, 4))
        _frame_draws(3, rng, size)  # the momenta
        for draws in zip(translations, *frames):
            translation, lam = _ref_random_poincare(3, _Replay(*draws))
            expected.append({"a": translation.tolist(), "Lambda": lam.tolist()})
    assert json.loads(log.read_text()) == expected


def test_little_group_suite_draws_the_reference_samples(monkeypatch):
    from gptkit import cli, minkowski

    calls = []
    real = minkowski.little_group_element

    def recording(a, x, lam, p):
        calls.append((np.array(a), np.array(x), np.array(lam), p.vector))
        return real(a, x, lam, p)

    monkeypatch.setattr(minkowski, "little_group_element", recording)
    n, samples = 3, 30
    cli.little_group_suite(n, 1.0, samples, 9, 1e-9)
    rng = np.random.default_rng(9)
    rest = rest_momentum(1.0, n).vector

    def point():
        return rng.uniform(-2, 2, (samples, n + 1))

    def frames():
        return _ref_frames(n, _frame_draws(n, rng, samples))

    a, x, lam, p = point(), point(), frames(), frames() @ rest
    first = (a, x, lam, p)
    rot = np.array([np.eye(n + 1)] * samples)
    rot[:, 1:, 1:] = [
        _ref_sample_special_orthogonal(n, _Replay(g))
        for g in rng.standard_normal((samples, n, n))
    ]
    a, x, p = point(), point(), frames() @ rest
    second = (a, x, rot, p)
    a, a2, x = point(), point(), point()
    lam1, lam2, p = frames(), frames(), frames() @ rest
    moved = np.array([m @ v for m, v in zip(lam1, p)])
    # the composition loop calls (a2, x + a, lam2, moved), then (a, x, lam1, p),
    # then (a + a2, x, lam2 lam1, p)
    expected = [
        first,
        second,
        (a2, x + a, lam2, moved),
        (a, x, lam1, p),
        (a + a2, x, np.array([m2 @ m1 for m2, m1 in zip(lam2, lam1)]), p),
    ]
    assert len(calls) == 5
    for call, arrays in zip(calls, expected):
        for got, want in zip(call, arrays):
            assert np.array_equal(got, want)


def _sample(t, i):
    """Sample i of a stacked PoincareTransform."""
    return PoincareTransform(t.translation[i], t.lorentz[i])


def _reference_minkowski_rows(n, mass, stacks, seed, tol):
    """minkowski_suite's stacks, checked sample by sample with scalar calls."""
    from gptkit import minkowski

    rng = np.random.default_rng(seed)
    eta = minkowski.metric(n)
    worst = {"interval": 0.0, "shell": 0.0, "lorentz": 0.0, "assoc": 0.0, "boost": 0.0}
    for size in stacks:
        ps = minkowski.random_poincare(n, rng, size)
        xs = rng.uniform(-3, 3, (size, n + 1))
        ys = rng.uniform(-3, 3, (size, n + 1))
        qs = minkowski.random_momentum(mass, n, rng, size)
        for i, (x, y, q) in enumerate(zip(xs, ys, qs.vector)):
            p = _sample(ps, i)
            moved = minkowski.interval(
                minkowski.apply_poincare(p, x), minkowski.apply_poincare(p, y)
            )
            worst["interval"] = np.maximum(
                worst["interval"], abs(minkowski.interval(x, y) - moved)
            )
            shell = abs(minkowski.minkowski_norm2(p.lorentz @ q / mass) + 1.0)
            worst["shell"] = np.maximum(worst["shell"], shell)
            defect = np.max(np.abs(p.lorentz.T @ eta @ p.lorentz - eta))
            worst["lorentz"] = np.maximum(worst["lorentz"], defect)
    for size in stacks:
        stacked = [minkowski.random_poincare(n, rng, size) for _ in range(3)]
        for i in range(size):
            a, b, c = (_sample(t, i) for t in stacked)
            left = minkowski.compose(minkowski.compose(a, b), c)
            right = minkowski.compose(a, minkowski.compose(b, c))
            worst["assoc"] = np.max([
                worst["assoc"],
                np.max(np.abs(left.translation - right.translation)),
                np.max(np.abs(left.lorentz - right.lorentz)),
            ])
    for size in stacks:
        for p_mag in mass * rng.uniform(0.0, 2.0, size):
            s = minkowski.boost_x(p_mag, mass, n) @ minkowski.boost_x(-p_mag, mass, n)
            worst["boost"] = np.maximum(worst["boost"], np.max(np.abs(s - np.eye(n + 1))))
    return list(worst.values())


def _reference_little_group_rows(n, mass, stacks, seed, tol):
    """little_group_suite's stacks, checked sample by sample with scalar calls."""
    from gptkit import minkowski

    rng = np.random.default_rng(seed)
    rest = minkowski.rest_momentum(mass, n)
    eta = minkowski.metric(n)
    axis = np.eye(n + 1)[0]
    worst_fix = worst_so = worst_rotation = worst_comp = 0.0

    def point(size):
        return rng.uniform(-2, 2, (size, n + 1))

    def momenta(size):
        return [MassiveMomentum(v, mass) for v in random_momentum(mass, n, rng, size).vector]

    for size in stacks:
        a_s, x_s = point(size), point(size)
        lams, ps = random_proper_orthochronous(n, rng, size), momenta(size)
        for a, x, lam, p in zip(a_s, x_s, lams, ps):
            g = minkowski.little_group_element(a, x, lam, p)
            b2, q2 = minkowski.apply_to_pair(g, np.zeros(n + 1), rest.vector)
            worst_fix = np.max(
                [worst_fix, np.max(np.abs(b2)), np.max(np.abs((q2 - rest.vector) / mass))]
            )
            w = minkowski.wigner_rotation(lam, p)
            worst_so = np.max([
                worst_so,
                np.max(np.abs(w.T @ eta @ w - eta)),
                abs(float(np.linalg.det(w)) - 1.0),
                np.max(np.abs(w[0] - axis)),
                np.max(np.abs(w[:, 0] - axis)),
            ])
    for size in stacks:
        rots = minkowski.spatial_rotation(sample_special_orthogonal(n, rng, size))
        a_s, x_s, ps = point(size), point(size), momenta(size)
        for rot, a, x, p in zip(rots, a_s, x_s, ps):
            g = minkowski.little_group_element(a, x, rot, p)
            worst_rotation = np.max([
                worst_rotation, np.max(np.abs(g.translation)), np.max(np.abs(g.lorentz - rot))
            ])
    for size in stacks:
        a_s, a2_s, x_s = point(size), point(size), point(size)
        lam1s = random_proper_orthochronous(n, rng, size)
        lam2s = random_proper_orthochronous(n, rng, size)
        ps = momenta(size)
        for a, a2, x, lam1, lam2, p in zip(a_s, a2_s, x_s, lam1s, lam2s, ps):
            moved = MassiveMomentum(lam1 @ p.vector, mass)
            left = minkowski.compose(
                minkowski.little_group_element(a2, x + a, lam2, moved),
                minkowski.little_group_element(a, x, lam1, p),
            )
            right = minkowski.little_group_element(a + a2, x, lam2 @ lam1, p)
            worst_comp = np.max([
                worst_comp,
                np.max(np.abs(left.translation - right.translation)),
                np.max(np.abs(left.lorentz - right.lorentz)),
            ])
    return [worst_fix, worst_rotation, worst_so, worst_comp]


def _reference_invariance_rows(n, mass, stacks, seed, tol):
    """invariance_suite's stacks, checked sample by sample with single-sample calls."""
    from gptkit import minkowski, poincare, zoo

    rng = np.random.default_rng(seed)
    rep = poincare.rotation_rep(n)
    rest = minkowski.rest_momentum(mass, n)
    worst_pairing = 0.0
    for size in stacks:
        states = zoo.sample_ball_state(n, rng, size)
        effects = zoo.sample_ball_effect(n, rng, size)
        rotations = sample_special_orthogonal(n, rng, size)
        for internal, effect_internal, rotation in zip(states, effects, rotations):
            state = poincare.ClassicalMomentumState(rest, internal)
            effect = poincare.ClassicalMomentumEffect(rest, effect_internal)
            lam = np.eye(n + 1)
            lam[1:, 1:] = rotation
            g = PoincareTransform(np.zeros(n + 1), lam)
            before = poincare.classical_pairing(effect, state)
            after = poincare.classical_pairing(
                poincare.transform_classical(g, effect, rep),
                poincare.transform_classical(g, state, rep),
            )
            worst_pairing = np.maximum(worst_pairing, abs(after - before))
    worst = [worst_pairing]
    if n == 3:
        detectors = np.vstack([np.eye(3), -np.eye(3)])
        worst_det = worst_total = 0.0
        for size in stacks:
            states = zoo.sample_ball_state(3, rng, size)
            rotations = sample_special_orthogonal(3, rng, size)
            for state, rotation in zip(states, rotations):
                result = poincare.detector_sphere_experiment(state, detectors, rotation)
                worst_det = np.maximum(worst_det, result.worst_deviation)
                worst_total = np.maximum(worst_total, abs(result.total_before - 1.0))
        worst += [worst_det, worst_total]
    seedling = np.eye(n)[-1]
    orbit = poincare.orbit_ball_reconstruction(
        n, seedling, rotation_count=sum(stacks), seed=seed, tol=tol / 10
    )
    return worst + [np.max([row.worst_deviation for row in orbit])]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_suites_across_chunk_boundaries_match_reference_loops(monkeypatch, n):
    from gptkit import cli

    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 7)  # 20 samples: stacks of 7, 7 and 6
    for suite, reference in (
        (cli.minkowski_suite, _reference_minkowski_rows),
        (cli.little_group_suite, _reference_little_group_rows),
        (cli.invariance_suite, _reference_invariance_rows),
    ):
        rows = suite(n, 1.3, 20, 21 + n, 1e-9)
        assert [row.samples for row in rows] == [20] * len(rows)
        assert [row.worst_deviation for row in rows] == reference(n, 1.3, (7, 7, 6), 21 + n, 1e-9)
        assert all(row.passed for row in rows)
