import math

import numpy as np
import pytest

from gptkit.core import (
    binary_measurements,
    is_normalized_effect,
    is_pure,
    is_reversible,
    probability,
    validate_state,
)
from gptkit.minkowski import spatial_rotation
from gptkit.zoo import (
    classical_simplex,
    density_to_gpt,
    euclidean_ball,
    get_theory,
    polygon_rotation,
    polygon_theory,
    sample_ball_effect,
    sample_ball_state,
)
from gptkit.rotations import (
    circle_point,
    deterministic_sphere_points,
    rotation_between,
    sample_special_orthogonal,
)
from symbolic_theories import exact_classical_simplex, exact_polygon

# 2x2 quantum oracle: density matrices in the Pauli expansion
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _rho(r):
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * _SX + r[1] * _SY + r[2] * _SZ)


def _radius(theory):
    return float(np.linalg.norm(theory.states.vertices[0, 1:]))


def test_polygon_params():
    assert abs(_radius(polygon_theory(4)) - 2.0**0.25) < 1e-12
    assert _radius(polygon_theory(3)) > 1.0
    assert abs(_radius(polygon_theory(4096)) - 1.0) < 1e-6
    with pytest.raises(ValueError):
        polygon_theory(2)


def test_trit_effect_state_orthogonality():
    trit = polygon_theory(3)
    extremal = trit.effects.generators[2:5]
    assert abs(probability(extremal[0], trit.states.vertices[1])) < 1e-15


def test_polygon_rotation_permutes_states():
    theory = polygon_theory(5)
    rot2 = polygon_rotation(5, 2)
    assert np.allclose(rot2 @ theory.states.vertices[0], theory.states.vertices[2], atol=1e-12)


@pytest.mark.parametrize("sides", range(3, 13))
def test_polygon_rotation_identities(sides):
    theory = polygon_theory(sides)
    states = theory.states.vertices
    extremal = theory.effects.generators[2 : 2 + sides]
    for j in range(sides):
        rot = polygon_rotation(sides, j)
        for i in range(sides):
            assert np.allclose(rot @ states[i], states[(i + j) % sides], atol=1e-12)
            assert np.allclose(rot @ extremal[i], extremal[(i + j) % sides], atol=1e-12)
        if sides % 2 == 1:
            bars = theory.effects.generators[2 + sides :]
            for i in range(sides):
                assert np.allclose(rot @ bars[i], bars[(i + j) % sides], atol=1e-12)
        inverse = polygon_rotation(sides, (sides - j) % sides)
        assert np.allclose(rot @ inverse, np.eye(3), atol=1e-12)
    assert np.allclose(polygon_rotation(sides, 0), np.eye(3))
    assert np.allclose(polygon_rotation(sides, sides), np.eye(3), atol=1e-12)


def _within_ulps(x: float, value, ulps: int) -> bool:
    import sympy as sp

    exact = sp.N(value, 50)
    return abs(sp.Float(x, 50) - exact) <= ulps * math.ulp(float(exact))


@pytest.mark.parametrize("sides", range(3, 13))
def test_polygon_coordinates_match_sympy_and_keep_zeros(sides):
    theory = polygon_theory(sides)
    exact_states, exact_effects = exact_polygon(sides)
    blocks = [(theory.states.vertices, exact_states)]
    if sides % 2 == 0:
        blocks.append((theory.extremal_effects(), exact_effects))
    for rows, exact_rows in blocks:
        assert len(rows) == len(exact_rows)
        for row, exact_row in zip(rows, exact_rows):
            for x, value in zip(row, exact_row):
                if value == 0:
                    assert x == 0.0 and not np.signbit(x)
                else:
                    assert _within_ulps(x, value, 4)


def _mirrored(rows: np.ndarray) -> np.ndarray:
    # y -> -y, with + 0.0 writing a mirrored zero as 0.0
    return rows * np.array([1.0, 1.0, -1.0]) + 0.0


@pytest.mark.parametrize("sides", range(3, 13))
def test_polygon_vertices_are_bitwise_mirrors_and_antipodes(sides):
    theory = polygon_theory(sides)
    # row k holds the vertex at angle 2 pi k / N
    vertices = np.roll(theory.states.vertices, 1, axis=0)
    for k in range(sides):
        assert vertices[-k % sides].tobytes() == _mirrored(vertices[k]).tobytes()
    if sides % 2 == 0:
        half = sides // 2
        assert np.array_equal(vertices[half:, 1:], -vertices[:half, 1:])
        effects = theory.extremal_effects()
        assert effects[::-1].tobytes() == _mirrored(effects).tobytes()
        assert np.array_equal(effects[half:, 1:], -effects[:half, 1:])


@pytest.mark.parametrize("sides", [4, 8, 12])
def test_polygon_quarter_turn_is_a_signed_permutation(sides):
    theory = polygon_theory(sides)
    rot = polygon_rotation(sides, sides // 4)
    assert set(rot.ravel().tolist()) <= {0.0, 1.0, -1.0}
    for rows in (theory.states.vertices, theory.extremal_effects()):
        turned = np.einsum("ij,kj->ki", rot, rows)
        assert turned.tobytes() == np.roll(rows, -(sides // 4), axis=0).tobytes()


@pytest.mark.parametrize("sides", range(3, 9))
def test_polygon_generators_close_to_the_dihedral_group(sides):
    # the stored rotation and mirror generate D_N: 2N maps, N of them
    # mirrors, each a reversible permuting the vertices in its own way
    theory = polygon_theory(sides)
    vertices = theory.states.vertices
    group = [np.eye(3)]
    for m in group:  # grows while it is read
        for g in theory.reversibles:
            h = g @ m
            if not any(np.abs(h - k).max() <= 1e-9 for k in group):
                group.append(h)
        assert len(group) <= 2 * sides
    assert len(group) == 2 * sides
    assert sum(np.linalg.det(h) < 0 for h in group) == sides
    perms = set()
    for h in group:
        assert is_reversible(theory, h)
        gaps = np.abs(np.einsum("ij,vj->vi", h, vertices)[:, None] - vertices[None]).max(axis=-1)
        assert gaps.min(axis=1).max() <= 1e-9
        perms.add(tuple(gaps.argmin(axis=1).tolist()))
    assert len(perms) == 2 * sides


def test_odd_polygon_complements_are_normalized():
    for sides in (3, 5, 7, 9, 11):
        theory = polygon_theory(sides)
        bars = theory.effects.generators[2 + sides :]
        assert len(bars) == sides
        for e in bars:
            assert is_normalized_effect(theory, e)


def test_polygon_converges_to_disk():
    # Hausdorff distance between the 64-gon state set and the unit disk
    radius = _radius(polygon_theory(64))
    out = radius - 1.0  # vertices poke out of the disk
    inr = 1.0 - radius * np.cos(np.pi / 64)  # edge midpoints fall short
    assert max(out, inr) < 0.01


def test_classical_simplex_bit_matches_closed_form():
    bit = classical_simplex(1)
    assert bit.states.vertices.tolist() == [[1.0, -1.0], [1.0, 1.0]]
    extremal = bit.effects.generators[2:]
    assert extremal.tolist() == [[0.5, -0.5], [0.5, 0.5]]
    assert bit.reversibles[0].tolist() == [[1.0, 0.0], [0.0, -1.0]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_classical_simplex_delta_and_unit_partition(n):
    theory = classical_simplex(n)
    states = theory.states.vertices
    extremal = theory.effects.generators[2:]
    gram = extremal @ states.T
    assert np.allclose(gram, np.eye(n + 1), atol=1e-12)
    assert np.allclose(extremal.sum(axis=0), theory.unit, atol=1e-12)
    for v in states:
        assert is_pure(theory.states, v)


def test_simplex_2_matches_trit_delta_property():
    simplex = classical_simplex(2)
    trit = polygon_theory(3)
    for theory in (simplex, trit):
        extremal = theory.effects.generators[2:5]
        gram = extremal @ theory.states.vertices.T
        assert np.allclose(gram, np.eye(3), atol=1e-12)


def test_simplex_permutations_are_reversible():
    theory = classical_simplex(3)
    states = theory.states.vertices
    swap, cycle = theory.reversibles
    assert np.allclose(swap @ states[0], states[1], atol=1e-12)
    assert np.allclose(cycle @ states[0], states[1], atol=1e-12)
    assert np.allclose(cycle @ states[3], states[0], atol=1e-12)


def test_ball_pairing_matches_cosine_rule():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.standard_normal(3)
        z /= np.linalg.norm(z)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        eff = 0.5 * np.concatenate([[1.0], v])
        state = np.concatenate([[1.0], z])
        assert abs(probability(eff, state) - 0.5 * (1.0 + z @ v)) < 1e-12


def test_ball_dim_one_is_a_segment():
    seg = euclidean_ball(1)
    assert validate_state(seg.states, np.array([1.0, 0.7])).member
    assert not validate_state(seg.states, np.array([1.0, 1.2])).member
    with pytest.raises(ValueError):
        euclidean_ball(0)


def test_ball_rotations_act_transitively():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        m = spatial_rotation(rotation_between(a, b))
        moved = m @ np.concatenate([[1.0], a])
        assert np.max(np.abs(moved - np.concatenate([[1.0], b]))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ball_quarter_turns_are_signed_permutations(d):
    ball = euclidean_ball(d)
    assert len(ball.reversibles) == d * (d - 1) // 2
    for m in ball.reversibles:
        assert set(m.ravel().tolist()) <= {0.0, 1.0, -1.0}
        assert is_reversible(ball, m)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sample_ball_rotations_equal_draws_in_a_row(d):
    # Haar-like ball maps: a stack of SO(d) draws lifted to 1 (+) O, each a
    # reversible map of ball:d and equal to the same draws made one by one
    rotations = spatial_rotation(sample_special_orthogonal(d, np.random.default_rng(9), 6))
    rng = np.random.default_rng(9)
    for m in rotations:
        expected = np.eye(d + 1)
        expected[1:, 1:] = sample_special_orthogonal(d, rng)
        assert np.array_equal(m, expected)
        assert is_reversible(euclidean_ball(d), m)
    assert rotations.shape == (6, d + 1, d + 1)


def _ref_sample_ball_state(d, rng):
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    v *= rng.uniform() ** (1.0 / d)
    return np.concatenate([[1.0], v])


def _ref_sample_ball_effect(d, rng):
    s = 0.5 * rng.uniform()
    e0 = rng.uniform(s, 1.0 - s)
    v = rng.standard_normal(d)
    v *= s / np.linalg.norm(v)
    return np.concatenate([[e0], v])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ball_samplers_draw_the_reference_numbers(d):
    rng = np.random.default_rng(30 + d)
    ref_rng = np.random.default_rng(30 + d)
    for _ in range(40):
        assert np.array_equal(sample_ball_state(d, rng), _ref_sample_ball_state(d, ref_rng))
        assert np.array_equal(sample_ball_effect(d, rng), _ref_sample_ball_effect(d, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # a stack draws each variable as one array
    states = sample_ball_state(d, rng, 50)
    directions = ref_rng.standard_normal((50, d))
    radii = ref_rng.uniform(size=50) ** (1.0 / d)
    expected = directions / np.linalg.norm(directions, axis=1, keepdims=True) * radii[:, None]
    assert states.shape == (50, d + 1) and np.all(states[:, 0] == 1.0)
    assert np.max(np.abs(states[:, 1:] - expected)) <= 1e-15
    effects = sample_ball_effect(d, rng, 50)
    s = 0.5 * ref_rng.uniform(size=50)
    assert np.array_equal(effects[:, 0], ref_rng.uniform(s, 1.0 - s))
    assert np.max(np.abs(np.linalg.norm(effects[:, 1:], axis=1) - s)) <= 1e-15
    assert np.all(effects[:, 0] - s >= 0.0) and np.all(effects[:, 0] + s <= 1.0)
    ref_rng.standard_normal((50, d))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _largest_gap_degrees(points):
    angles = np.sort(np.arctan2(points[:, 1], points[:, 0]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2.0 * np.pi]))
    return np.degrees(np.max(gaps))


@pytest.mark.parametrize("count", [8, 64, 200])
def test_circle_discretization_is_even(count):
    points = deterministic_sphere_points(2, count)
    assert points.shape == (count, 2)
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-15
    assert abs(_largest_gap_degrees(points) - 360.0 / count) <= 1e-9
    assert np.array_equal(points[count // 2 :], -points[: count // 2])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12, 360])
def test_circle_point_is_exact_under_reflections(m):
    for k in range(-m, 2 * m):
        c, s = circle_point(k, m)
        theta = 2.0 * math.pi * k / m
        # the reference rounds 2 pi k / m, off by up to about 2e-15 at |k| < 2 m
        assert abs(c - math.cos(theta)) <= 1e-14 and abs(s - math.sin(theta)) <= 1e-14
        assert not np.signbit(c) or c != 0.0
        assert not np.signbit(s) or s != 0.0
        assert circle_point(-k, m) == (c, -s)
        if m % 2 == 0:
            assert circle_point(k + m // 2, m) == (-c, -s)
        if m % 4 == 0:
            assert circle_point(m // 4 - k, m) == (s, c)
    if m % 8 == 0:
        assert circle_point(m // 8, m) == (math.sqrt(0.5), math.sqrt(0.5))


def test_density_to_gpt():
    assert density_to_gpt(np.zeros(3)).tolist() == [1.0, 0.0, 0.0, 0.0]
    pure = density_to_gpt(np.array([0.0, 0.0, 1.0]))
    assert is_pure(euclidean_ball(3).states, pure)
    with pytest.raises(ValueError):
        density_to_gpt(np.array([0.0, 0.0, 1.5]))
    with pytest.raises(ValueError, match="norm exceeds 1"):
        density_to_gpt(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="three components"):
        density_to_gpt(np.array([0.0, 1.0]))


def test_bloch_pairing_matches_quantum_trace():
    rng = np.random.default_rng(42)
    for _ in range(100):
        r = rng.standard_normal(3)
        r /= np.linalg.norm(r)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        p_gpt = probability(0.5 * np.concatenate([[1.0], v]), density_to_gpt(r))
        p_quantum = float(np.trace(_rho(r) @ _rho(v)).real)
        assert abs(p_gpt - p_quantum) < 1e-12


def test_box_world_measurements_partition_unity():
    box = get_theory("boxworld")
    assert box.name == "polygon:4"
    measurements = binary_measurements(box)
    extremal = box.extremal_effects()
    assert len(measurements) == 2
    for (e_plus, e_minus), (i, j) in zip(measurements, ((0, 2), (1, 3))):
        assert e_plus.tobytes() == extremal[i].tobytes()
        assert e_minus.tobytes() == extremal[j].tobytes()
        assert np.allclose(e_plus + e_minus, box.unit, atol=1e-12)
    assert len(box.states.vertices) == 4
    z = box.states.vertices
    assert not np.allclose(z[0], 0.5 * (z[1] + z[3]))


def test_registry_lookup():
    assert get_theory("bit").dim == 1
    assert get_theory("polygon:6").dim == 2
    assert get_theory("ball:4").dim == 4
    assert get_theory("simplex:2").dim == 2
    assert get_theory("boxworld").name == "polygon:4"
    with pytest.raises(KeyError):
        get_theory("spekkens")
    with pytest.raises(ValueError):
        classical_simplex(0)


def test_get_theory_shares_one_instance_per_name():
    from gptkit import zoo

    assert get_theory("polygon:5") is get_theory("polygon:5")
    assert get_theory("ball:3") is get_theory("ball:3")
    assert get_theory("polygon:5") is not get_theory("polygon:6")
    for _ in range(2):
        with pytest.raises(KeyError):
            get_theory("spekkens")
    assert "spekkens" not in zoo._THEORIES


def test_box_world_is_the_polygon_4_instance(monkeypatch):
    # one theory under both names, whichever is asked for first, so a scan
    # that names both builds it once and stacks their LPs together
    from gptkit import zoo

    for first, second in (("boxworld", "polygon:4"), ("polygon:4", "boxworld")):
        monkeypatch.setattr(zoo, "_THEORIES", {})
        assert get_theory(first) is get_theory(second)
        assert sorted(zoo._THEORIES) == ["boxworld", "polygon:4"]


def test_exact_polygon_trit_is_exactly_orthogonal():
    import sympy as sp

    states, effects = exact_polygon(3)
    for i in range(3):
        for j in range(3):
            val = sp.simplify(effects[i].dot(states[j]))
            assert val == (1 if i == j else 0)


def test_exact_simplex_delta_for_small_sizes():
    import sympy as sp

    for n in (1, 2, 3, 4, 5, 6):
        states, effects = exact_classical_simplex(n)
        for i in range(n + 1):
            for j in range(n + 1):
                val = sp.nsimplify(sp.simplify(effects[i].dot(states[j])))
                assert val == (1 if i == j else 0)
