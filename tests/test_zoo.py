import numpy as np
import pytest

from gptkit.core import (
    is_normalized_effect,
    is_pure,
    probability,
    validate_state,
)
from gptkit.zoo import (
    BlochVector,
    ball_rotation_to,
    box_world_pair,
    classical_simplex,
    density_to_gpt,
    euclidean_ball,
    exact_classical_simplex,
    exact_polygon,
    get_theory,
    polygon_params,
    polygon_rotation,
    polygon_theory,
    sample_ball_rotations,
)
from gptkit.rotations import sample_special_orthogonal

# 2x2 quantum oracle: density matrices in the Pauli expansion
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _rho(r):
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * _SX + r[1] * _SY + r[2] * _SZ)


def test_polygon_params():
    p4 = polygon_params(4)
    assert abs(p4.radius - 2.0**0.25) < 1e-12
    assert polygon_params(3).radius > 1.0
    assert abs(polygon_params(4096).radius - 1.0) < 1e-6
    with pytest.raises(ValueError):
        polygon_params(2)


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


def test_odd_polygon_complements_are_normalized():
    for sides in (3, 5, 7, 9, 11):
        theory = polygon_theory(sides)
        bars = theory.effects.generators[2 + sides :]
        assert len(bars) == sides
        for e in bars:
            assert is_normalized_effect(theory, e)


def test_polygon_converges_to_disk():
    # Hausdorff distance between the 64-gon state set and the unit disk
    p = polygon_params(64)
    out = p.radius - 1.0  # vertices poke out of the disk
    inr = 1.0 - p.radius * np.cos(np.pi / 64)  # edge midpoints fall short
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
        m = ball_rotation_to(a, b)
        moved = m @ np.concatenate([[1.0], a])
        assert np.max(np.abs(moved - np.concatenate([[1.0], b]))) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sample_ball_rotations_equal_draws_in_a_row(d):
    rng = np.random.default_rng(9)
    for m in sample_ball_rotations(d, 6, seed=9):
        expected = np.eye(d + 1)
        expected[1:, 1:] = sample_special_orthogonal(d, rng)
        assert np.array_equal(m, expected)
    assert sample_ball_rotations(d, 0) == []


def test_density_to_gpt():
    assert density_to_gpt(np.zeros(3)).tolist() == [1.0, 0.0, 0.0, 0.0]
    pure = density_to_gpt(np.array([0.0, 0.0, 1.0]))
    assert is_pure(euclidean_ball(3).states, pure)
    with pytest.raises(ValueError):
        density_to_gpt(np.array([0.0, 0.0, 1.5]))
    with pytest.raises(ValueError):
        BlochVector(np.array([1.0, 1.0, 1.0]))


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
    box = box_world_pair()
    assert box.local.name == "polygon:4"
    for e_plus, e_minus in box.measurements:
        assert np.allclose(e_plus + e_minus, box.local.unit, atol=1e-12)
    assert len(box.local.states.vertices) == 4
    z = box.local.states.vertices
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
