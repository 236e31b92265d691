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
    rotation_to_axis,
    standard_boost,
    transforms_to_json,
    wigner_rotation,
)
from gptkit.rotations import (
    rotation_between,
    rotation_taking_first_axis,
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


def test_rotation_to_axis():
    n = 3
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(rotation_to_axis(e1), np.eye(n + 1))
    q = rotation_to_axis(-e1)
    block = q[1:, 1:]
    assert np.allclose(block @ e1, -e1, atol=1e-12)
    assert abs(np.linalg.det(block) - 1.0) < 1e-12
    # rotation by pi in the (1,2) plane
    assert np.allclose(block, np.diag([-1.0, -1.0, 1.0]))
    q2 = rotation_to_axis(np.array([0.0, 1.0, 0.0]))
    b2 = q2[1:, 1:]
    assert np.allclose(b2 @ e1, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.max(np.abs(b2.T @ b2 - np.eye(3))) < 1e-12
    with pytest.raises(ValueError):
        rotation_to_axis(np.array([0.0, 0.5, 0.0]))


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


def test_rotation_taking_first_axis_rejects_nan_and_minus_e1_in_so1():
    e3 = np.array([0.0, 0.0, 1.0])
    for bad in (np.array([np.nan, 0.0, 1.0]), np.vstack([e3, [0.0, np.nan, 1.0], e3])):
        with pytest.raises(ValueError, match="unit vector"):
            rotation_taking_first_axis(bad)
    assert np.array_equal(rotation_taking_first_axis(np.array([1.0])), [[1.0]])
    for bad in (np.array([-1.0]), np.array([[1.0], [-1.0]])):
        with pytest.raises(ValueError, match="SO\\(1\\)"):
            rotation_taking_first_axis(bad)


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
    # the Householder rotations take no squares (only the boosts' gamma
    # does, where a stacked square and libm pow may round apart), so they
    # agree bit for bit
    _assert_matches(
        rotation_taking_first_axis(dirs),
        [_ref_rotation_taking_first_axis(d) for d in dirs],
        bitwise_expected=True,
    )

    vectors = _edge_momenta(n, rng)
    count = len(vectors)
    momenta = MassiveMomentum(vectors, 1.0)
    boosts = standard_boost(momenta)
    _assert_matches(boosts, [_ref_standard_boost(v, 1.0) for v in vectors])
    at_rest = np.linalg.norm(vectors[:, 1:], axis=1) < 1e-14
    assert at_rest.sum() == 2 and np.array_equal(boosts[at_rest], [np.eye(n + 1)] * 2)

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


# ---------------------------------------------------------------------------
# The CLI suites draw what the per-sample loops drew, chunk by chunk
# ---------------------------------------------------------------------------


def test_minkowski_suite_logs_the_reference_draws(tmp_path):
    from gptkit.cli import main

    log = tmp_path / "transforms.json"
    args = ["--n", "3", "--seed", "7", "--samples", "50", "--log-transforms", str(log)]
    assert main(["minkowski-checks", *args]) == 0
    rng = np.random.default_rng(7)
    expected = []
    for _ in range(50):
        translation, lam = _ref_random_poincare(3, rng)
        expected.append({"a": translation.tolist(), "Lambda": lam.tolist()})
        rng.uniform(-3, 3, 4)
        rng.uniform(-3, 3, 4)
        _ref_random_momentum(1.0, 3, rng)
    assert json.loads(log.read_text()) == expected


def test_little_group_suite_draws_the_reference_samples(monkeypatch):
    from gptkit import cli, minkowski

    calls = []
    real = minkowski.little_group_element

    def recording(a, x, lam, p, tol=minkowski.DEFAULT_TOL):
        calls.append((np.array(a), np.array(x), np.array(lam), p.vector))
        return real(a, x, lam, p, tol)

    monkeypatch.setattr(minkowski, "little_group_element", recording)
    n, samples = 3, 30
    cli.little_group_suite(n, 1.0, samples, 9, 1e-9)
    rng = np.random.default_rng(9)

    def point():
        return rng.uniform(-2, 2, n + 1)

    def frame():
        return _ref_random_proper_orthochronous(n, rng)

    def momentum():
        return _ref_random_momentum(1.0, n, rng)

    first = [(point(), point(), frame(), momentum()) for _ in range(samples)]
    second = []
    for _ in range(samples):
        rot = np.eye(n + 1)
        rot[1:, 1:] = _ref_sample_special_orthogonal(n, rng)
        second.append((point(), point(), rot, momentum()))
    third = [(point(), point(), point(), frame(), frame(), momentum()) for _ in range(samples)]
    # the composition loop calls (a2, x + a, lam2, moved), then (a, x, lam1, p)
    expected = [
        first,
        second,
        [(a2, x + a, lam2) for a, a2, x, _, lam2, _ in third],
        [(a, x, lam1, p) for a, _, x, lam1, _, p in third],
    ]
    assert len(calls) == 5
    for call, samples_drawn in zip(calls, expected):
        for got, want in zip(call, zip(*samples_drawn)):
            assert np.array_equal(got, np.array(want))


def _reference_minkowski_rows(n, mass, samples, seed, tol):
    """minkowski_suite's checks as a per-sample loop over scalar calls."""
    from gptkit import minkowski

    rng = np.random.default_rng(seed)
    eta = minkowski.metric(n)
    worst = {"interval": 0.0, "shell": 0.0, "lorentz": 0.0, "assoc": 0.0, "boost": 0.0}
    for _ in range(samples):
        p = minkowski.random_poincare(n, rng)
        x = rng.uniform(-3, 3, n + 1)
        y = rng.uniform(-3, 3, n + 1)
        moved = minkowski.interval(
            minkowski.apply_poincare(p, x), minkowski.apply_poincare(p, y)
        )
        worst["interval"] = np.maximum(worst["interval"], abs(minkowski.interval(x, y) - moved))
        q = minkowski.random_momentum(mass, n, rng)
        shell = abs(minkowski.minkowski_norm2(p.lorentz @ q.vector) + mass**2)
        worst["shell"] = np.maximum(worst["shell"], shell)
        defect = np.max(np.abs(p.lorentz.T @ eta @ p.lorentz - eta))
        worst["lorentz"] = np.maximum(worst["lorentz"], defect)
    for _ in range(samples):
        a, b, c = (minkowski.random_poincare(n, rng) for _ in range(3))
        left = minkowski.compose(minkowski.compose(a, b), c)
        right = minkowski.compose(a, minkowski.compose(b, c))
        worst["assoc"] = np.max([
            worst["assoc"],
            np.max(np.abs(left.translation - right.translation)),
            np.max(np.abs(left.lorentz - right.lorentz)),
        ])
    for _ in range(samples):
        p_mag = rng.uniform(0.0, 2.0)
        s = minkowski.boost_x(p_mag, mass, n) @ minkowski.boost_x(-p_mag, mass, n)
        worst["boost"] = np.maximum(worst["boost"], np.max(np.abs(s - np.eye(n + 1))))
    return list(worst.values())


def _reference_little_group_rows(n, mass, samples, seed, tol):
    """little_group_suite's checks as a per-sample loop over scalar calls."""
    from gptkit import minkowski

    rng = np.random.default_rng(seed)
    rest = minkowski.rest_momentum(mass, n)
    eta = minkowski.metric(n)
    axis = np.eye(n + 1)[0]
    worst_fix = worst_so = worst_rotation = worst_comp = 0.0
    for _ in range(samples):
        a = rng.uniform(-2, 2, n + 1)
        x = rng.uniform(-2, 2, n + 1)
        lam = minkowski.random_proper_orthochronous(n, rng)
        p = minkowski.random_momentum(mass, n, rng)
        g = minkowski.little_group_element(a, x, lam, p)
        b2, q2 = minkowski.apply_to_pair(g, np.zeros(n + 1), rest.vector)
        worst_fix = np.max([worst_fix, np.max(np.abs(b2)), np.max(np.abs(q2 - rest.vector))])
        w = minkowski.wigner_rotation(lam, p)
        worst_so = np.max([
            worst_so,
            np.max(np.abs(w.T @ eta @ w - eta)),
            abs(float(np.linalg.det(w)) - 1.0),
            np.max(np.abs(w[0] - axis)),
            np.max(np.abs(w[:, 0] - axis)),
        ])
    for _ in range(samples):
        rot = np.eye(n + 1)
        rot[1:, 1:] = sample_special_orthogonal(n, rng)
        a = rng.uniform(-2, 2, n + 1)
        x = rng.uniform(-2, 2, n + 1)
        p = minkowski.random_momentum(mass, n, rng)
        g = minkowski.little_group_element(a, x, rot, p)
        worst_rotation = np.max([
            worst_rotation, np.max(np.abs(g.translation)), np.max(np.abs(g.lorentz - rot))
        ])
    for _ in range(samples):
        a = rng.uniform(-2, 2, n + 1)
        a2 = rng.uniform(-2, 2, n + 1)
        x = rng.uniform(-2, 2, n + 1)
        lam1 = minkowski.random_proper_orthochronous(n, rng)
        lam2 = minkowski.random_proper_orthochronous(n, rng)
        p = minkowski.random_momentum(mass, n, rng)
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


def _reference_invariance_rows(n, mass, samples, seed, tol):
    """invariance_suite's checks as a per-sample loop over single-sample calls."""
    from gptkit import minkowski, poincare, zoo

    rng = np.random.default_rng(seed)
    rep = poincare.rotation_rep(n)
    rest = minkowski.rest_momentum(mass, n)
    worst_pairing = 0.0
    for _ in range(samples):
        state = poincare.ClassicalMomentumState(rest, zoo.sample_ball_state(n, rng))
        effect = poincare.ClassicalMomentumEffect(rest, zoo.sample_ball_effect(n, rng))
        lam = np.eye(n + 1)
        lam[1:, 1:] = sample_special_orthogonal(n, rng)
        g = PoincareTransform(np.zeros(n + 1), lam)
        before = poincare.classical_pairing(effect, state)
        after = poincare.classical_pairing(
            poincare.transform_classical_effect(g, effect, rep),
            poincare.transform_classical(g, state, rep),
        )
        worst_pairing = np.maximum(worst_pairing, abs(after - before))
    worst = [worst_pairing]
    if n == 3:
        detectors = np.vstack([np.eye(3), -np.eye(3)])
        worst_det = worst_total = 0.0
        for _ in range(samples):
            state = zoo.sample_ball_state(3, rng)
            rotation = sample_special_orthogonal(3, rng)
            result = poincare.detector_sphere_experiment(state, detectors, rotation)
            worst_det = np.maximum(worst_det, result.worst_deviation)
            worst_total = np.maximum(worst_total, abs(result.total_before - 1.0))
        worst += [worst_det, worst_total]
    seedling = np.eye(n)[-1]
    orbit = poincare.orbit_ball_reconstruction(
        n, seedling, rotation_count=samples, seed=seed, tol=tol / 10
    )
    return worst + [orbit.worst_deviation]


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
        assert [row.worst_deviation for row in rows] == reference(n, 1.3, 20, 21 + n, 1e-9)
        assert all(row.passed for row in rows)
