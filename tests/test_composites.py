import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from gptkit import composites, lp
from gptkit.composites import (
    BALL_MEASUREMENT_COUNT,
    ChshScenario,
    JointState,
    _chsh_objectives,
    _product_rows,
    _scenario_rows,
    ball_measurement,
    binary_measurements,
    chsh_value,
    correlator,
    enumerate_deterministic_chsh,
    in_max_tensor,
    is_separable,
    load_scenarios,
    marginal,
    max_tensor_vertices,
    maximize_chsh,
    no_signalling_check,
    product_state,
    rows_to_csv,
    run_scenarios,
    singlet_state,
    tensor,
    two_qubit_gpt,
)
from gptkit.core import (
    BALL_EFFECT_COUNT,
    BallEffects,
    _binary_measurement_pairs,
    theory_from_dict,
    theory_to_dict,
)
from gptkit.rotations import deterministic_sphere_points
from gptkit.symmetry import product_maximum, row_symmetries, symmetry_classes
from gptkit.zoo import (
    classical_simplex,
    euclidean_ball,
    get_theory,
    polygon_theory,
    sample_ball_state,
)

from chsh_reference import full_scan_chsh, kron_objective

BIT = classical_simplex(1)
BOX = get_theory("boxworld")
BOX_MEASUREMENTS = binary_measurements(BOX)
BALL3 = euclidean_ball(3)

# 4x4 quantum oracle in the Pauli basis
_SG = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _rho2(r_a, r_b, t):
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho += r_a[i] * np.kron(_SG[i], np.eye(2))
        rho += r_b[i] * np.kron(np.eye(2), _SG[i])
        for j in range(3):
            rho += t[i, j] * np.kron(_SG[i], _SG[j])
    return rho / 4.0


def _effect_op(v):
    return 0.5 * (np.eye(2, dtype=complex) + sum(v[k] * _SG[k] for k in range(3)))


def test_tensor_is_a_major():
    z0 = np.array([1.0, -1.0])
    assert tensor(z0, z0).tolist() == [1.0, -1.0, -1.0, 1.0]


def test_tensor_kron_identity_on_random_draws():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = rng.standard_normal(3)
        y = rng.standard_normal(4)
        e = rng.standard_normal(3)
        f = rng.standard_normal(4)
        lhs = tensor(e, f) @ tensor(x, y)
        rhs = (e @ x) * (f @ y)
        assert abs(lhs - rhs) < 1e-12


def test_unit_pairing_on_products():
    rng = np.random.default_rng(22)
    for _ in range(20):
        za = sample_ball_state(3, rng)
        zb = sample_ball_state(3, rng)
        phi = product_state(za, zb, BALL3, BALL3)
        assert abs(phi.pair_product(BALL3.unit, BALL3.unit) - 1.0) < 1e-12


def test_marginal_round_trip():
    rng = np.random.default_rng(23)
    za = sample_ball_state(3, rng)
    zb = sample_ball_state(3, rng)
    phi = product_state(za, zb, BALL3, BALL3)
    assert np.array_equal(marginal(phi, "a"), za)
    assert np.array_equal(marginal(phi, "b"), zb)
    with pytest.raises(ValueError):
        marginal(phi, "c")


def test_joint_state_validation():
    with pytest.raises(ValueError):
        JointState(np.ones(5), BIT, BIT)  # wrong length
    bad = 2.0 * tensor(BIT.states.vertices[0], BIT.states.vertices[0])
    with pytest.raises(ValueError):
        JointState(bad, BIT, BIT)
    for non_finite in ([np.nan, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            JointState(non_finite, BIT, BIT)
    unchecked = JointState(bad, BIT, BIT, check=False)
    assert not in_max_tensor(unchecked)


@pytest.mark.parametrize("exact", [False, True])
def test_product_states_are_separable(exact):
    phi = product_state(BIT.states.vertices[0], BIT.states.vertices[1], BIT, BIT)
    verdict = is_separable(phi, exact=exact)
    assert verdict.status == "separable"
    assert verdict.weights is not None


def test_mixtures_of_products_are_separable():
    rng = np.random.default_rng(24)
    local = polygon_theory(4)
    states = local.states.vertices
    for _ in range(5):
        weights = rng.dirichlet(np.ones(5))
        vec = sum(
            w * tensor(states[rng.integers(4)], states[rng.integers(4)])
            for w in weights
        )
        phi = JointState(vec, local, local)
        assert is_separable(phi).status == "separable"


def test_ball_local_mixed_products_separable_at_resolution():
    rng = np.random.default_rng(25)
    za = np.concatenate([[1.0], 0.5 * rng.standard_normal(3)])
    za[1:] *= 0.5 / np.linalg.norm(za[1:])
    zb = za.copy()
    phi = product_state(za, zb, BALL3, BALL3)
    verdict = is_separable(phi)
    assert verdict.status == "separable"
    assert verdict.resolution == 200


def test_exact_flag_leaves_a_ball_hull_on_the_float_path(monkeypatch):
    def no_exact_lp(*args, **kwargs):
        raise AssertionError("a discretized hull reached the rational simplex")

    monkeypatch.setattr(lp, "exact_linprog", no_exact_lp)
    verdict = is_separable(singlet_state(), exact=True)
    assert verdict.status == "inconclusive"
    assert verdict.resolution == 200
    assert str(verdict) == str(is_separable(singlet_state()))


BALL_SIDE_PAIRS = [("ball:3", "polygon:4"), ("ball:2", "bit"), ("polygon:3", "ball:2")]


@pytest.mark.parametrize("names", BALL_SIDE_PAIRS, ids=["x".join(p) for p in BALL_SIDE_PAIRS])
def test_exact_flag_leaves_a_ball_side_chsh_on_the_float_path(names, monkeypatch):
    local_a, local_b = (get_theory(name) for name in names)
    expected = maximize_chsh(local_a, local_b)

    def no_exact_lp(*args, **kwargs):
        raise AssertionError("a ball side's CHSH relaxation reached the rational simplex")

    monkeypatch.setattr(lp, "exact_linprog", no_exact_lp)
    result = maximize_chsh(local_a, local_b, exact=True)
    assert result.value == expected.value
    assert result.measurement_choice == expected.measurement_choice
    assert np.array_equal(result.witness.vector, expected.witness.vector)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_a_single_assignment_builds_no_symmetry_group(exact, monkeypatch):
    def no_group(*args, **kwargs):
        raise AssertionError("a single assignment built a symmetry group")

    monkeypatch.setattr(composites, "row_symmetries", no_group)
    # the two box-world scenarios of perfbench's `exact` workload, one measurement a side
    docs = [
        {"local_a": "polygon:4", "local_b": "polygon:4",
         "measurements_a": ma, "measurements_b": mb}
        for ma, mb in (([[0, 2]], [[0, 2]]), ([[2, 0]], [[1, 3]]))
    ]
    assert [row["chsh_value"] for row in run_scenarios(docs, exact=exact)] == [2.0, 2.0]
    assert maximize_chsh(BIT, BIT, exact=exact).value == 2.0


def test_deterministic_strategy_oracle():
    assert enumerate_deterministic_chsh() == 2.0


def test_maximize_chsh_classical_bit():
    result = maximize_chsh(BIT, BIT)
    assert abs(result.value - enumerate_deterministic_chsh()) < 1e-9
    exact = maximize_chsh(BIT, BIT, exact=True)
    assert abs(exact.value - 2.0) < 1e-12


def test_chsh_value_over_deterministic_product_states():
    # evaluating the scenario on the four deterministic product states
    # reproduces the 16-assignment enumeration bound
    meas = binary_measurements(BIT)[0]
    best = -np.inf
    for za in BIT.states.vertices:
        for zb in BIT.states.vertices:
            scenario = ChshScenario(
                meas, meas, meas, meas, product_state(za, zb, BIT, BIT)
            )
            best = max(best, chsh_value(scenario))
    assert abs(best - enumerate_deterministic_chsh()) < 1e-12


def _binary_measurements_by_pairs(theory):
    """binary_measurements' polytope scan, one np.allclose per (i, j) pair."""
    ext, u = theory.extremal_effects(), theory.unit
    pairs, used = [], set()
    for i in range(len(ext)):
        for j in range(i + 1, len(ext)):
            if i not in used and j not in used and np.allclose(ext[i] + ext[j], u, atol=1e-10):
                pairs.append((ext[i], ext[j]))
                used.update((i, j))
    return pairs


@pytest.mark.parametrize("name", ["bit", "simplex:1", "simplex:2", "simplex:3", "simplex:4"]
                         + [f"polygon:{n}" for n in (3, 4, 5, 6, 7, 8, 9, 12)] + ["boxworld"])
def test_binary_measurements_match_a_per_pair_scan(name):
    theory = get_theory(name)
    reference = _binary_measurements_by_pairs(theory)
    got = binary_measurements(theory)
    if reference:
        assert len(got) == len(reference)
        for (e, f), (e_ref, f_ref) in zip(got, reference):
            assert np.array_equal(e, e_ref) and np.array_equal(f, f_ref)
    else:  # the simplices' coarse-grained measurements
        assert name.startswith("simplex") or name == "bit"
        assert all(np.allclose(e + f, theory.unit) for e, f in got)


def test_maximize_chsh_box_world_reaches_four():
    result = maximize_chsh(BOX, BOX, BOX_MEASUREMENTS, BOX_MEASUREMENTS)
    assert abs(result.value - 4.0) < 1e-7
    assert in_max_tensor(result.witness)
    assert no_signalling_check(result.witness)
    verdict = is_separable(result.witness, exact=True)
    assert verdict.status == "entangled"
    assert verdict.margin > 1e-6


def test_maximize_chsh_ball_locals_with_resolution():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    meas = [
        ball_measurement(z),
        ball_measurement(x),
        ball_measurement(-(z + x) / np.sqrt(2.0)),
        ball_measurement((x - z) / np.sqrt(2.0)),
    ]
    result = maximize_chsh(BALL3, BALL3, meas[:2], meas[2:])
    # the singlet is feasible and reaches 2 sqrt(2) at these angles; the
    # algebraic no-signalling ceiling of 4 cannot be exceeded
    assert result.value >= 2.0 * np.sqrt(2.0) - 1e-6
    assert result.value <= 4.0 + 1e-9


# Regression constant: CHSH optimum for polygon-3 locals, computed once via
# the max-tensor LP.  The trit is a classical system, so the optimum sits at
# the deterministic bound.
POLYGON3_CHSH = 2.0


def test_maximize_chsh_polygon3_regression():
    result = maximize_chsh(polygon_theory(3), polygon_theory(3))
    assert 2.0 - 1e-9 <= result.value <= 4.0 + 1e-9
    assert abs(result.value - POLYGON3_CHSH) < 1e-7


def test_classical_locals_kill_entanglement():
    simplex = classical_simplex(2)
    result = maximize_chsh(simplex, simplex)
    assert result.value <= 2.0 + 1e-9
    for vertex in max_tensor_vertices(simplex, simplex):
        phi = JointState(vertex, simplex, simplex, check=False)
        assert is_separable(phi).status == "separable"


# both scans are cached so the tests below share their LPs
@functools.cache
def _reference(name_a, name_b, exact):
    return full_scan_chsh(get_theory(name_a), get_theory(name_b), exact=exact)


def _full_scan(name_a, name_b, exact):
    """The reference optimum and every assignment's LP value."""
    best, solutions = _reference(name_a, name_b, exact)
    return best, {key: sol.value for key, sol in solutions.items()}


@functools.cache
def _counted_optimum(name_a, name_b, exact):
    """maximize_chsh and the number of objectives it solved: one per row of a
    HiGHS stack (`lp._solve_highs`), one per exact LP."""
    solve_highs, solve_exact = lp._solve_highs, lp.exact_linprog
    calls = []

    def counted_highs(costs, *args):
        calls.append(len(costs))
        return solve_highs(costs, *args)

    def counted_exact(*args, **kwargs):
        calls.append(1)
        return solve_exact(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_highs", counted_highs)
        patch.setattr(lp, "exact_linprog", counted_exact)
        result = maximize_chsh(get_theory(name_a), get_theory(name_b), exact=exact)
    return result, sum(calls)


REFERENCE_CASES = [
    ("polygon:3", "polygon:3", False),
    ("polygon:4", "polygon:4", False),
    ("polygon:6", "polygon:6", False),
    ("simplex:2", "simplex:2", False),
    ("bit", "bit", False),
    ("bit", "polygon:4", False),
    ("ball:3", "polygon:4", False),
    ("polygon:5", "polygon:5", False),
    ("polygon:8", "polygon:8", False),
    ("polygon:4", "polygon:4", True),
    ("bit", "polygon:4", True),
]


def _first_within_tie(solutions):
    """The first assignment in row-major order within 1e-9 of the best value."""
    top = max(sol.value for sol in solutions.values())
    return next(key for key, sol in solutions.items() if sol.value >= top - 1e-9)


def _assert_full_scan_winner(result, solutions, meas_a, meas_b, exact):
    """`result` is the full scan's winner: the first assignment in row-major
    order within 1e-9 of the best.

    A winner solved alone, on the exact path or as a one-row HiGHS stack (the
    only class of its pass), is that assignment's LP solution bit for bit.
    One from a warm stack may end at another vertex of a degenerate optimum:
    its value is the reference's within 1e-12, and its witness is feasible
    and reaches that value within 1e-9.  Feasible means in the maximal tensor
    product for polytopes; a ball side's rows are its K = 64 effects, an
    outer relaxation, so there the witness is checked on the LP's own rows.
    """
    local_a, local_b = result.witness.local_a, result.witness.local_b
    choice = _first_within_tie(solutions)
    assert result.measurement_choice == choice
    reference = solutions[choice]

    def repeats(key):
        return key[0] == key[1] or key[2] == key[3]

    representatives = set(_class_representatives(local_a, local_b, meas_a, meas_b).values())
    if exact or sum(repeats(rep) == repeats(choice) for rep in representatives) == 1:
        assert result.value == reference.value
        assert result.witness.vector.tobytes() == reference.x.tobytes()
        return
    assert abs(result.value - reference.value) <= 1e-12
    a0, a1, b0, b1 = choice
    scenario = ChshScenario(meas_a[a0], meas_a[a1], meas_b[b0], meas_b[b1], result.witness)
    assert abs(chsh_value(scenario) - reference.value) <= 1e-9
    if isinstance(local_a.effects, BallEffects) or isinstance(local_b.effects, BallEffects):
        rows = _product_rows(_scenario_rows(local_a, meas_a), _scenario_rows(local_b, meas_b))
        assert (rows @ result.witness.vector).min() >= -1e-9
    else:
        assert in_max_tensor(result.witness)


@pytest.mark.parametrize("name_a, name_b, exact", REFERENCE_CASES)
def test_maximize_chsh_equals_the_full_scan(name_a, name_b, exact):
    # one LP per symmetry class returns the first assignment in row-major
    # order within 1e-9 of the full scan's maximum, with that assignment's
    # LP solution
    result, _ = _counted_optimum(name_a, name_b, exact)
    _, solutions = _reference(name_a, name_b, exact)
    meas_a = binary_measurements(get_theory(name_a))
    meas_b = binary_measurements(get_theory(name_b))
    _assert_full_scan_winner(result, solutions, meas_a, meas_b, exact)
    choices = np.array(list(itertools.product(
        range(len(meas_a)), range(len(meas_a)), range(len(meas_b)), range(len(meas_b))
    )))
    kron = np.array([
        kron_objective(meas_a[a0], meas_a[a1], meas_b[b0], meas_b[b1])
        for a0, a1, b0, b1 in choices
    ])
    assert _chsh_objectives(meas_a, meas_b, choices).tobytes() == kron.tobytes()
    if exact:
        exact_kron = np.array([
            kron_objective(meas_a[a0], meas_a[a1], meas_b[b0], meas_b[b1], exact=True)
            for a0, a1, b0, b1 in choices
        ])
        assert (_chsh_objectives(meas_a, meas_b, choices, exact=True) == exact_kron).all()


# LPs solved with one LP per symmetry class
PER_CLASS_LPS = {
    ("polygon:5", "polygon:5"): 4,
    ("polygon:8", "polygon:8"): 4,
    ("ball:3", "polygon:4"): 15,  # ball:3 keeps no symmetry
    ("polygon:3", "polygon:3"): 2,
    ("polygon:6", "polygon:6"): 1,
    ("polygon:4", "polygon:4"): 1,
    ("simplex:2", "simplex:2"): 2,
    ("bit", "bit"): 1,
}


@pytest.mark.parametrize(
    "name_a, name_b, per_assignment",
    # LPs solved with one LP per assignment that the two passes reach
    [
        ("polygon:5", "polygon:5", 400),
        ("polygon:8", "polygon:8", 144),
        ("ball:3", "polygon:4", 60),
        # best = 2: the repeated settings are solved too
        ("polygon:6", "polygon:6", 36),
        ("polygon:4", "polygon:4", 4),
        ("polygon:3", "polygon:3", 81),
        ("simplex:2", "simplex:2", 81),
        ("bit", "bit", 1),
    ],
)
def test_maximize_chsh_skips_repeated_settings_above_two(name_a, name_b, per_assignment):
    classes = PER_CLASS_LPS[name_a, name_b]
    assert classes <= per_assignment
    assert _counted_optimum(name_a, name_b, False)[1] == classes


def _class_representatives(local_a, local_b, meas_a, meas_b):
    """Each assignment's class representative, classes formed within each pass."""
    group_a = row_symmetries(local_a, _scenario_rows(local_a, meas_a))
    group_b = row_symmetries(local_b, _scenario_rows(local_b, meas_b))
    choices = np.array(list(itertools.product(
        range(len(meas_a)), range(len(meas_a)), range(len(meas_b)), range(len(meas_b))
    )))
    objectives = _chsh_objectives(meas_a, meas_b, choices)
    distinct = (choices[:, 0] != choices[:, 1]) & (choices[:, 2] != choices[:, 3])
    representative = {}
    for batch in (np.flatnonzero(distinct), np.flatnonzero(~distinct)):
        classes = symmetry_classes(objectives[batch], group_a, group_b)
        for j, i in zip(batch, batch[classes]):
            representative[tuple(choices[j])] = tuple(choices[i])
    return representative


def test_maximize_chsh_builds_one_row_group_for_equal_sides(monkeypatch):
    built = []
    build = composites.row_symmetries

    def recording(theory, rows):
        built.append(theory.name)
        return build(theory, rows)

    monkeypatch.setattr(composites, "row_symmetries", recording)
    pentagon = get_theory("polygon:5")
    pairs = binary_measurements(pentagon)
    both = maximize_chsh(pentagon, pentagon)
    assert built == ["polygon:5"]
    # a pair of non-extremal effects adds a scenario row on side B only, so
    # side B's group is built for its own rows
    half = (0.5 * pentagon.unit, 0.5 * pentagon.unit)
    more = maximize_chsh(pentagon, pentagon, pairs, pairs + [half])
    assert built == ["polygon:5"] * 3
    assert abs(more.value - both.value) <= 1e-9


def test_row_symmetries_drop_generators_that_move_the_rows():
    # ball:3's quarter-turns do not permute its K = 64 sphere points
    ball = get_theory("ball:3")
    rows = _scenario_rows(ball, binary_measurements(ball))
    assert len(ball.reversibles) == 3
    assert len(row_symmetries(ball, rows)) == 1
    # a hexagon from JSON with an off-angle turn before its 60-degree one
    # and its mirror: the off-angle turn moves each extremal effect nearest
    # to the next, so only the row check drops it, and the 60-degree turn
    # and the mirror close to the twelve elements of D_6
    doc = theory_to_dict(get_theory("polygon:6"))
    c, s = np.cos(0.6), np.sin(0.6)
    doc["reversibles"].insert(0, [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    hexagon = theory_from_dict(doc)
    rows = _scenario_rows(hexagon, binary_measurements(hexagon))
    group = row_symmetries(hexagon, rows)
    assert len(hexagon.reversibles) == 3 and len(group) == 12
    for g in group:
        gaps = np.abs((rows @ g)[:, None, :] - rows[None, :, :]).max(axis=-1)
        assert gaps.min(axis=1).max() <= 1e-9
    result = maximize_chsh(hexagon, hexagon)
    _, solutions = full_scan_chsh(hexagon, hexagon)
    meas = binary_measurements(hexagon)
    _assert_full_scan_winner(result, solutions, meas, meas, False)


def test_symmetry_classes_confirm_every_key_match():
    # entries rounded to 9 decimals only find candidates: 1e-11 apart is
    # another LP, 1e-13 apart joins the class
    c = np.arange(9.0) / 7.0
    identity = np.eye(3)[None]
    objectives = np.array([c, c + 1e-11, c + 1e-13, -c])
    assert symmetry_classes(objectives, identity, identity).tolist() == [0, 1, 0, 3]



def _classes_keyed_row_by_row(objectives, group_a, group_b):
    """symmetry_classes with one np.round call per row and per image."""
    def key(v):
        return (np.round(v, 9) + 0.0).tobytes()

    shape = (group_a.shape[1], group_b.shape[1])
    images, candidates = {}, {}
    classes = np.empty(len(objectives), dtype=int)
    for j, c in enumerate(objectives):
        classes[j] = next((i for i in candidates.get(key(c), ())
                           if (np.abs(images[i] - c).max(axis=1) <= 1e-12).any()), j)
        if classes[j] == j:
            images[j] = np.einsum("aki,kl,blm->abim", group_a, c.reshape(shape),
                                  group_b).reshape(-1, c.size)
            for k in {key(image) for image in images[j]}:
                candidates.setdefault(k, []).append(j)
    return classes


@pytest.mark.parametrize("name_a, name_b", [
    ("polygon:5", "polygon:5"), ("polygon:8", "polygon:8"), ("ball:3", "polygon:4"),
    ("polygon:6", "polygon:6"), ("simplex:3", "simplex:3"),
])
def test_symmetry_classes_keyed_by_block_match_row_by_row_keys(name_a, name_b):
    local_a, local_b = get_theory(name_a), get_theory(name_b)
    meas_a, meas_b = binary_measurements(local_a), binary_measurements(local_b)
    group_a = row_symmetries(local_a, _scenario_rows(local_a, meas_a))
    group_b = row_symmetries(local_b, _scenario_rows(local_b, meas_b))
    choices = np.indices((len(meas_a),) * 2 + (len(meas_b),) * 2).reshape(4, -1).T
    objectives = _chsh_objectives(meas_a, meas_b, choices)
    got = symmetry_classes(objectives, group_a, group_b)
    assert got.tolist() == _classes_keyed_row_by_row(objectives, group_a, group_b).tolist()
    assert len(set(got.tolist())) < len(got)  # the group joins some rows


@pytest.mark.parametrize("name", ["polygon:4", "polygon:5", "bit", "simplex:2", "ball:3"])
def test_binary_measurements_are_listed_once_and_read_only(name):
    theory = get_theory(name)
    first, second = binary_measurements(theory), binary_measurements(theory)
    assert first is not second and len(first) == len(second) > 0
    fresh = _binary_measurement_pairs(theory)
    for (e, f), (e2, f2), (e3, f3) in zip(first, second, fresh):
        assert e is e2 and f is f2  # the kept listing
        assert not e.flags.writeable and not f.flags.writeable
        assert e.tobytes() == e3.tobytes() and f.tobytes() == f3.tobytes()
        with pytest.raises(ValueError):
            e[0] = 0.5
    first.clear()  # a caller's list is its own
    assert len(binary_measurements(theory)) == len(second)

@pytest.mark.parametrize("name_a, name_b, exact", REFERENCE_CASES)
def test_symmetry_classes_share_their_optimum(name_a, name_b, exact):
    local_a, local_b = get_theory(name_a), get_theory(name_b)
    representative = _class_representatives(
        local_a, local_b, binary_measurements(local_a), binary_measurements(local_b)
    )
    _, values = _full_scan(name_a, name_b, exact)
    assert representative.keys() == values.keys()
    for key, rep in representative.items():
        assert rep <= key and representative[rep] == rep
        assert abs(values[key] - values[rep]) <= 1e-12


def test_symmetry_classes_on_a_measurement_subset():
    # two of polygon:8's four measurement pairs a side: the constraint rows
    # keep all eight rotations, but most of them move the chosen pairs, so
    # the classes come from the objectives and not from the group alone
    octagon = get_theory("polygon:8")
    ext = octagon.extremal_effects()
    meas_a = [(ext[0], ext[4]), (ext[1], ext[5])]
    meas_b = [(ext[0], ext[4]), (ext[2], ext[6])]
    representative = _class_representatives(octagon, octagon, meas_a, meas_b)
    _, solutions = full_scan_chsh(octagon, octagon, meas_a, meas_b)
    for key, rep in representative.items():
        assert abs(solutions[key].value - solutions[rep].value) <= 1e-12
    assert len(set(representative.values())) < len(representative)
    result = maximize_chsh(octagon, octagon, meas_a, meas_b)
    _assert_full_scan_winner(result, solutions, meas_a, meas_b, False)


@pytest.mark.parametrize(
    "name_a, name_b, exact, slack",
    # every polygon:4 pair sums to the unit exactly, so exact pivoting keeps
    # a repeated setting at most 2 (1.9999999999999998 at most)
    [("polygon:4", "polygon:4", True, 0.0), ("ball:3", "polygon:4", False, 1e-9)],
)
def test_repeated_settings_reach_at_most_two(name_a, name_b, exact, slack):
    # a0 = a1 or b0 = b1 gives S = 2 E(a0, b0), and |E| <= 1 on the maximal
    # tensor product: the premise of skipping those assignments
    _, values = _full_scan(name_a, name_b, exact)
    repeated = [v for (a0, a1, b0, b1), v in values.items() if a0 == a1 or b0 == b1]
    assert repeated and max(repeated) <= 2.0 + slack


@pytest.mark.parametrize("exact", [False, True])
def test_box_world_product_vertices_are_separable(exact):
    # a rank-1 vertex of the maximal tensor product is a product of local
    # vertices; Fraction(float) rounding must not push it out of the hull
    square = get_theory("polygon:4")
    vertices = max_tensor_vertices(square, square)
    products = [v for v in vertices if np.linalg.matrix_rank(v.reshape(3, 3), tol=1e-9) == 1]
    assert len(products) == 16
    for v in products:
        verdict = is_separable(JointState(v, square, square), exact=exact)
        assert verdict.status == "separable"


def test_separable_states_respect_chsh_bound():
    rng = np.random.default_rng(26)
    local = BOX
    states = local.states.vertices
    meas = BOX_MEASUREMENTS
    for _ in range(20):
        w = rng.dirichlet(np.ones(6))
        vec = sum(
            wi * tensor(states[rng.integers(4)], states[rng.integers(4)]) for wi in w
        )
        scenario = ChshScenario(
            meas[0], meas[1], meas[0], meas[1], JointState(vec, local, local)
        )
        assert chsh_value(scenario) <= 2.0 + 1e-9


def test_in_max_tensor_examples():
    phi = product_state(BIT.states.vertices[0], BIT.states.vertices[0], BIT, BIT)
    assert in_max_tensor(phi)
    doubled = JointState(2.0 * phi.vector, BIT, BIT, check=False)
    assert not in_max_tensor(doubled)


def test_no_signalling_examples():
    phi = product_state(BOX.states.vertices[0], BOX.states.vertices[2], BOX, BOX)
    assert no_signalling_check(phi)
    corrupted = phi.vector.copy()
    corrupted[-1] += 0.1
    assert not no_signalling_check(JointState(corrupted, BOX, BOX, check=False))


def test_no_signalling_on_all_box_world_vertices():
    vertices = max_tensor_vertices(BOX, BOX)
    assert len(vertices) > 0
    for v in vertices:
        phi = JointState(v, BOX, BOX, check=False)
        assert no_signalling_check(phi)
        assert in_max_tensor(phi)


def test_min_subset_of_max():
    # anything separable also lies in the maximal tensor product
    rng = np.random.default_rng(27)
    for local in (BIT, polygon_theory(5)):
        states = local.states.vertices
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            vec = sum(
                wi * tensor(states[rng.integers(len(states))], states[rng.integers(len(states))])
                for wi in w
            )
            phi = JointState(vec, local, local)
            assert is_separable(phi).status == "separable"
            assert in_max_tensor(phi)


def _loop_in_max_tensor(phi, tol=1e-9, k=BALL_EFFECT_COUNT):
    """Reference: the per-row loop form of in_max_tensor for ball sides."""

    def rows(theory):  # extremal effects plus the unit, zero dropped
        if isinstance(theory.effects, BallEffects):
            ext = 0.5 * np.hstack([np.ones((k, 1)), deterministic_sphere_points(theory.dim, k)])
        else:
            ext = np.array([g for g in theory.effects.generators if np.linalg.norm(g) > 1e-12])
        if not any(np.allclose(row, theory.unit, atol=1e-12) for row in ext):
            ext = np.vstack([ext, theory.unit])
        return ext

    def min_ball(m):
        return 0.5 * (float(m[0]) - float(np.linalg.norm(m[1:])))

    mat = phi.matrix
    if abs(mat[0, 0] - 1.0) > tol:
        return False
    a_ball = isinstance(phi.local_a.effects, BallEffects)
    b_ball = isinstance(phi.local_b.effects, BallEffects)
    assert a_ball or b_ball
    if not b_ball:
        return all(min_ball(mat @ eb) >= -tol and (mat @ eb)[0] >= -tol for eb in rows(phi.local_b))
    if not a_ball:
        return all(min_ball(ea @ mat) >= -tol and (ea @ mat)[0] >= -tol for ea in rows(phi.local_a))
    for w in deterministic_sphere_points(phi.local_b.dim, k):
        if min_ball(mat @ (0.5 * np.concatenate([[1.0], w]))) < -tol:
            return False
    for v in deterministic_sphere_points(phi.local_a.dim, k):
        if min_ball((0.5 * np.concatenate([[1.0], v])) @ mat) < -tol:
            return False
    return (
        min_ball(mat @ phi.local_b.unit) >= -tol and min_ball(phi.local_a.unit @ mat) >= -tol
    )


@pytest.mark.parametrize(
    "names",
    [("ball:3", "polygon:4"), ("polygon:4", "ball:3"), ("ball:3", "ball:3"), ("ball:2", "bit")],
)
def test_in_max_tensor_ball_sides_match_loop_reference(names):
    rng = np.random.default_rng(29)
    a, b = (get_theory(name) for name in names)
    states_a, states_b = a.extreme_states(), b.extreme_states()
    verdicts = []
    for _ in range(200):
        w = rng.dirichlet(np.ones(3))
        picks = zip(rng.integers(len(states_a), size=3), rng.integers(len(states_b), size=3))
        vec = sum(wi * tensor(states_a[i], states_b[j]) for wi, (i, j) in zip(w, picks))
        vec = vec + rng.uniform(0.0, 0.6) * rng.standard_normal(vec.shape)
        vec[0] = 1.0
        phi = JointState(vec, a, b, check=False)
        verdict = in_max_tensor(phi)
        assert verdict == _loop_in_max_tensor(phi)
        swapped = JointState(phi.matrix.T.reshape(-1), b, a, check=False)
        assert in_max_tensor(swapped) == verdict
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)  # both verdicts are exercised


def test_in_max_tensor_two_qubit_states():
    rng = np.random.default_rng(30)
    paulis = (np.eye(2, dtype=complex),) + _SG
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        bloch = np.array(
            [[np.trace(rho @ np.kron(p, q)).real for q in paulis] for p in paulis]
        )
        phi = two_qubit_gpt(bloch[1:, 0], bloch[0, 1:], bloch[1:, 1:])
        assert in_max_tensor(phi)
        assert no_signalling_check(phi)
    for c in (1.001, 1.5, 3.0):
        mat = np.zeros((4, 4))
        mat[0, 0] = 1.0
        mat[1:, 1:] = -c * np.eye(3)
        phi = JointState(mat.reshape(-1), BALL3, BALL3, check=False)
        assert not in_max_tensor(phi)
        assert not no_signalling_check(phi)


@pytest.mark.parametrize(
    "name",
    ["bit", "simplex:2", "simplex:3", "polygon:3", "polygon:4", "polygon:5", "polygon:8",
     "boxworld", "ball:1", "ball:2", "ball:3", "ball:4"],
)
def test_binary_measurements_sum_to_unit(name):
    # the identity no_signalling_check rests on: far marginals see only the unit
    theory = get_theory(name)
    pairs = binary_measurements(theory)
    assert pairs
    for e, f in pairs:
        assert np.max(np.abs(e + f - theory.unit)) <= 1e-10


@pytest.mark.parametrize(
    "name", ["polygon:3", "polygon:4", "polygon:5", "polygon:6", "polygon:7", "polygon:8", "polygon:9"]
)
def test_polygon_measurement_pairs_sum_to_the_unit_exactly(name):
    # even polygons' antipodal effect coordinates are exact negatives, and odd
    # polygons' effects are u minus their complements, so the exact paths see
    # pairs that sum to the unit with no rounding left over
    theory = get_theory(name)
    for e, f in binary_measurements(theory):
        assert [Fraction(x) + Fraction(y) for x, y in zip(e, f)] == [1, 0, 0]


@pytest.mark.parametrize("name", ["polygon:3", "polygon:4", "polygon:5"])
def test_exact_single_setting_chsh_stays_at_most_two(name):
    # one setting a side gives S = 2 E(a, b) <= 2 on the exact path;
    # test_single_setting_scans_read_separable covers polygon:6 and polygon:8
    p = get_theory(name)
    pairs = binary_measurements(p)
    for a, b in itertools.product(pairs, repeat=2):
        assert maximize_chsh(p, p, [a], [b], exact=True).value <= 2.0


def test_singlet_pairings_match_quantum_oracle():
    rng = np.random.default_rng(28)
    phi = singlet_state()
    for _ in range(100):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        ea, _ = ball_measurement(a)
        eb, _ = ball_measurement(b)
        p_gpt = phi.pair_product(ea, eb)
        assert abs(p_gpt - 0.25 * (1.0 - a @ b)) < 1e-12
        rho = _rho2(np.zeros(3), np.zeros(3), -np.eye(3))
        p_quantum = float(np.trace(rho @ np.kron(_effect_op(a), _effect_op(b))).real)
        assert abs(p_gpt - p_quantum) < 1e-12


def test_two_qubit_gpt_pairings_match_oracle_generally():
    rng = np.random.default_rng(29)
    for _ in range(20):
        # random physical two-qubit state from a random pure 4-vector mixture
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        rho = np.outer(amps, amps.conj())
        r_a = np.array([np.trace(rho @ np.kron(_SG[i], np.eye(2))).real for i in range(3)])
        r_b = np.array([np.trace(rho @ np.kron(np.eye(2), _SG[j])).real for j in range(3)])
        t = np.array(
            [
                [np.trace(rho @ np.kron(_SG[i], _SG[j])).real for j in range(3)]
                for i in range(3)
            ]
        )
        phi = two_qubit_gpt(r_a, r_b, t)
        for _ in range(5):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
            ea, _ = ball_measurement(a)
            eb, _ = ball_measurement(b)
            p_quantum = float(np.trace(rho @ np.kron(_effect_op(a), _effect_op(b))).real)
            assert abs(phi.pair_product(ea, eb) - p_quantum) < 1e-10


def test_two_qubit_gpt_trivial_correlations():
    phi = two_qubit_gpt(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    mixed = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(phi.vector, tensor(mixed, mixed))


def test_two_qubit_gpt_rejects_nonphysical():
    with pytest.raises(ValueError):
        two_qubit_gpt(np.zeros(3), np.zeros(3), np.eye(3))  # T = +I has no state
    with pytest.raises(ValueError):
        two_qubit_gpt(np.zeros(2), np.zeros(3), np.zeros((3, 3)))


def test_singlet_chsh_reaches_tsirelson():
    phi = singlet_state()
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    scenario = ChshScenario(
        ball_measurement(z),
        ball_measurement(x),
        ball_measurement(-(z + x) / np.sqrt(2.0)),
        ball_measurement((x - z) / np.sqrt(2.0)),
        phi,
    )
    value = chsh_value(scenario)
    assert abs(value - 2.0 * np.sqrt(2.0)) < 1e-12
    # correlators match the quantum oracle E(a, b) = -a.b
    for a, b in itertools.product((z, x), ((z + x) / np.sqrt(2.0),)):
        e = correlator(phi, ball_measurement(a), ball_measurement(b))
        assert abs(e - (-(a @ b))) < 1e-12


def test_singlet_separability_is_inconclusive_at_k_but_chsh_certifies():
    phi = singlet_state()
    verdict = is_separable(phi)
    assert verdict.status == "inconclusive"
    assert verdict.resolution == 200
    assert verdict.margin > 0.05  # far outside the discretized separable set


def test_chsh_rejects_malformed_measurements():
    phi = singlet_state()
    good = ball_measurement(np.array([0.0, 0.0, 1.0]))
    bad = (good[0], good[0])
    scenario = ChshScenario(bad, good, good, good, phi)
    with pytest.raises(ValueError):
        chsh_value(scenario)


@pytest.mark.parametrize("direction", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]])
def test_ball_measurement_rejects_a_direction_without_a_unit_vector(direction):
    with pytest.raises(ValueError, match="nonzero and finite"):
        ball_measurement(np.array(direction))


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_ball_measurement_accepts_directions_whose_square_leaves_the_float_range(scale):
    # v . v underflows to 0 at 1e-170 and overflows at 1e160
    for direction in ([scale, 0.0, 0.0], [scale, -scale, 2.0 * scale]):
        e, f = ball_measurement(np.array(direction))
        v = np.array(direction) / scale
        assert np.abs(2.0 * e - np.concatenate([[1.0], v / np.linalg.norm(v)])).max() <= 1e-15
        assert np.abs(e + f - np.array([1.0, 0.0, 0.0, 0.0])).max() == 0.0


def test_a_pair_that_misses_the_unit_by_1e_7_is_rejected(monkeypatch):
    # the miss is in coordinate 0, where the unit reads 1: np.allclose's
    # default rtol of 1e-5 would let it pass a check at 1e-9
    square = get_theory("polygon:4")
    ext = square.extremal_effects()
    j = next(j for j in range(len(ext)) if np.array_equal(ext[0] + ext[j], square.unit))
    off = (ext[0] + 1e-7 * square.unit, ext[j])
    phi = product_state(square.states.vertices[0], square.states.vertices[1], square, square)
    with pytest.raises(ValueError, match="unit effect"):
        chsh_value(ChshScenario(off, off, (ext[0], ext[j]), (ext[0], ext[j]), phi))

    class OffUnit(type(square)):
        def extremal_effects(self):
            moved = super().extremal_effects().copy()
            moved[0, 0] += 1e-7
            return moved

    fields = {f.name: getattr(square, f.name) for f in dataclasses.fields(square)}
    monkeypatch.setattr(composites, "get_theory", lambda name: OffUnit(**fields))
    with pytest.raises(ValueError, match="unit effect"):
        run_scenarios([{"local_a": "polygon:4", "local_b": "polygon:4",
                        "measurements_a": [[0, j]]}])


def test_binary_measurements_for_restricted_classical_sets():
    pairs = binary_measurements(classical_simplex(2))
    assert len(pairs) == 3
    u = classical_simplex(2).unit
    for plus, minus in pairs:
        assert np.allclose(plus + minus, u, atol=1e-12)


def test_scenario_round_trip_and_csv():
    docs = load_scenarios('[{"id": "box", "local_a": "polygon:4", "local_b": "polygon:4"}]')
    [row] = run_scenarios(docs)
    assert row["scenario_id"] == "box"
    assert abs(row["chsh_value"] - 4.0) < 1e-6
    text = rows_to_csv([row])
    lines = text.strip().split("\n")
    assert lines[0] == "scenario_id,local_a,local_b,chsh_value,separability_verdict"
    assert lines[1].startswith("box,polygon:4,polygon:4,")


def test_scenario_with_explicit_vector():
    vec = tensor(BIT.states.vertices[0], BIT.states.vertices[1]).tolist()
    [row] = run_scenarios([{"id": "prod", "local_a": "bit", "local_b": "bit", "joint_vector": vec}])
    assert row["separability_verdict"] == "separable"
    assert abs(row["chsh_value"]) <= 2.0 + 1e-9


def test_explicit_vector_rows_keep_the_hull_verdict():
    # the scan rule would read `entangled` for two squares (S* = 4 > P = 2)
    # and K = 64 for balls; a given vector is decided by is_separable
    square = get_theory("polygon:4")
    product = tensor(square.states.vertices[0], square.states.vertices[1])
    pr_box = np.array([1.0, 0, 0, 0, 1, 1, 0, 1, -1])
    singlet = singlet_state().vector
    for name, vector, verdict in [("polygon:4", product, "separable"),
                                  ("polygon:4", pr_box, "entangled"),
                                  ("ball:3", singlet, "inconclusive-at-K=200 ")]:
        doc = {"local_a": name, "local_b": name, "joint_vector": vector.tolist()}
        printed = run_scenarios([doc])[0]["separability_verdict"]
        local = get_theory(name)
        assert printed.startswith(verdict)
        assert printed == str(is_separable(JointState(vector, local, local)))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("name", ["polygon:6", "polygon:8"])
def test_single_setting_scans_read_separable(monkeypatch, name, exact):
    # S* = 2 E(a, b) <= 2 is reached by a product of vertices whichever
    # optimal vertex the LP returns, so every row reads separable; on the
    # exact path the unrounded optimum stays at most 2 as well
    values = []
    real = composites.maximize_chsh

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        values.append(result.value)
        return result

    monkeypatch.setattr(composites, "maximize_chsh", recording)
    n = len(binary_measurements(get_theory(name)))  # pair i is (i, i + n)
    for i, j in itertools.product(range(n), repeat=2):
        [row] = run_scenarios([{"local_a": name, "local_b": name,
                                "measurements_a": [[i, i + n]], "measurements_b": [[j, j + n]]}],
                              exact=exact)
        assert (row["chsh_value"], row["separability_verdict"]) == (2.0, "separable")
    assert len(values) == n * n
    if exact:
        assert max(values) <= 2.0


def test_simplex_single_setting_rows_read_separable_above_two(monkeypatch):
    # the exact optimum of simplex:2's coarse-grained pairs is 2.0000000000000004,
    # 4e-16 above its product maximum; the 1e-9 width reads it separable.
    # These pairs are not extremal effects, so no scenario file can name
    # them: each row's pairs are handed to run_scenarios as its defaults
    simplex = get_theory("simplex:2")
    pairs = binary_measurements(simplex)
    for a, b in itertools.product(pairs, repeat=2):
        assert maximize_chsh(simplex, simplex, [a], [b], exact=True).value == 2.0000000000000004
        sides = iter([[a], [b]])
        monkeypatch.setattr(composites, "binary_measurements", lambda theory: next(sides))
        [row] = run_scenarios([{"local_a": "simplex:2", "local_b": "simplex:2"}], exact=True)
        assert row["separability_verdict"] == "separable"


def _loop_product_maximum(local_a, local_b, meas_a, meas_b, choice):
    """Reference: the best of every pair of extreme states, a ball side
    replaced by the closed form c0 + ||c reduced||, one state at a time."""
    a0, a1, b0, b1 = choice
    c = kron_objective(meas_a[a0], meas_a[a1], meas_b[b0], meas_b[b1])
    c = c.reshape(local_a.dim + 1, local_b.dim + 1)
    ball_a, ball_b = (isinstance(t.effects, BallEffects) for t in (local_a, local_b))
    best = -np.inf
    for sa in local_a.extreme_states():
        if ball_b:
            v = sa @ c
            best = max(best, v[0] + np.linalg.norm(v[1:]))
            continue
        for sb in local_b.extreme_states():
            v = c @ sb
            best = max(best, v[0] + np.linalg.norm(v[1:]) if ball_a else sa @ v)
    return best


@pytest.mark.parametrize(
    "name_a, name_b",
    [("polygon:5", "polygon:4"), ("bit", "simplex:2"), ("ball:3", "polygon:4"),
     ("polygon:4", "ball:2"), ("ball:2", "ball:3")],
)
def test_product_maximum_matches_a_loop_over_products(name_a, name_b):
    local_a, local_b = get_theory(name_a), get_theory(name_b)
    meas_a, meas_b = binary_measurements(local_a), binary_measurements(local_b)
    rng = np.random.default_rng(31)
    for _ in range(5):
        choice = (*rng.integers(len(meas_a), size=2), *rng.integers(len(meas_b), size=2))
        p = product_maximum(local_a, local_b, meas_a, meas_b, choice)
        assert abs(p - _loop_product_maximum(local_a, local_b, meas_a, meas_b, choice)) <= 1e-12


def test_ball_scan_verdicts_compare_the_optimum_with_the_product_maximum():
    # ball:2 x bit: a product reaches the optimum 2, a definite verdict
    [row] = run_scenarios([{"local_a": "ball:2", "local_b": "bit"}])
    assert row["separability_verdict"] == "separable"
    # ball:3 x polygon:4: S* is the K = 64 relaxation's optimum, above every
    # product, so the verdict is inconclusive at that K with margin S* - P
    ball, square = get_theory("ball:3"), get_theory("polygon:4")
    optimum = maximize_chsh(ball, square)
    meas_a, meas_b = binary_measurements(ball), binary_measurements(square)
    p = _loop_product_maximum(ball, square, meas_a, meas_b, optimum.measurement_choice)
    [row] = run_scenarios([{"local_a": "ball:3", "local_b": "polygon:4"}])
    assert row["separability_verdict"] == (
        f"inconclusive-at-K={BALL_EFFECT_COUNT} (margin {optimum.value - p:.3g})")
    assert optimum.value - p > 0.5


def test_ball_measurements_list_each_direction_once():
    # ball:1's sphere points repeat +-1: two distinct settings, one value
    ball1 = get_theory("ball:1")
    assert [e.tolist() for e, _ in binary_measurements(ball1)] == [[0.5, 0.5], [0.5, -0.5]]
    assert maximize_chsh(ball1, ball1).value == 2.0
    for name in ("ball:2", "ball:3"):
        ball = get_theory(name)
        points = deterministic_sphere_points(ball.dim, BALL_MEASUREMENT_COUNT)
        expected = 0.5 * np.hstack([np.ones((BALL_MEASUREMENT_COUNT, 1)), points])
        pairs = binary_measurements(ball)
        assert np.array_equal(np.array([e for e, _ in pairs]), expected)
        assert all(np.array_equal(f, ball.unit - e) for e, f in pairs)


def test_max_tensor_vertices_bit_pair_are_products():
    vertices = max_tensor_vertices(BIT, BIT)
    assert len(vertices) == 4
    products = [
        tensor(a, b)
        for a in BIT.states.vertices
        for b in BIT.states.vertices
    ]
    for v in vertices:
        assert any(np.max(np.abs(v - p)) < 1e-9 for p in products)


def test_max_tensor_vertices_reject_locals_qhull_cannot_take():
    with pytest.raises(ValueError, match="polytope locals"):
        max_tensor_vertices(BIT, BALL3)
    # a flat state space: the effect (0, 0, 1) vanishes on every state, so
    # no point is strictly inside its product facets
    flat = theory_from_dict({
        "name": "flat",
        "d": 2,
        "states": {"kind": "polytope", "vertices": [[1, -1, 0], [1, 1, 0]]},
        "effects": {
            "kind": "hull",
            "generators": [[0, 0, 0], [1, 0, 0], [0.5, -0.5, 0], [0.5, 0.5, 0], [0, 0, 1]],
        },
        "effect_convention": "restricted",
        "reversibles": [],
    })
    with pytest.raises(ValueError, match="not interior"):
        max_tensor_vertices(flat, BIT)


def _brute_force_vertices(local_a, local_b, tol=1e-9):
    """Reference: solve every choice of dim - 1 product facets plus the
    normalization row, and keep the feasible, distinct solutions."""
    ext_a = local_a.extremal_effects()
    ext_b = local_b.extremal_effects()
    rows = np.einsum("ai,bj->abij", ext_a, ext_b).reshape(len(ext_a) * len(ext_b), -1)
    norm_row = tensor(local_a.unit, local_b.unit)
    dim = rows.shape[1]
    vertices = []
    for combo in itertools.combinations(range(len(rows)), dim - 1):
        system = np.vstack([norm_row, rows[list(combo)]])
        rhs = np.zeros(dim)
        rhs[0] = 1.0
        if abs(np.linalg.det(system)) < 1e-10:
            continue
        candidate = np.linalg.solve(system, rhs)
        if (rows @ candidate).min() < -tol:
            continue
        if not any(np.max(np.abs(candidate - v)) < 1e-7 for v in vertices):
            vertices.append(candidate)
    return np.array(vertices)


@pytest.mark.parametrize("name", ["bit", "simplex:2", "polygon:4"])
def test_max_tensor_vertices_match_brute_force(name):
    local = get_theory(name)
    vertices = max_tensor_vertices(local, local)
    reference = _brute_force_vertices(local, local)
    assert vertices.shape == reference.shape
    gaps = np.max(np.abs(vertices[:, None, :] - reference[None, :, :]), axis=-1)
    assert np.all(gaps.min(axis=0) <= 1e-9) and np.all(gaps.min(axis=1) <= 1e-9)
    assert np.array_equal(max_tensor_vertices(local, local), vertices)


@pytest.mark.parametrize(
    "name, count", [("polygon:3", 9), ("polygon:4", 24), ("polygon:5", 135)]
)
def test_max_tensor_vertices_reach_the_chsh_optimum(name, count):
    # a linear objective peaks at a vertex, so the best vertex over every
    # measurement assignment is the LP scan's optimum
    local = get_theory(name)
    vertices = max_tensor_vertices(local, local)
    assert len(vertices) == count
    meas = binary_measurements(local)
    choices = np.array(list(itertools.product(range(len(meas)), repeat=4)))
    objectives = _chsh_objectives(meas, meas, choices)
    best = np.max(vertices @ objectives.T)
    assert abs(best - maximize_chsh(local, local).value) <= 1e-9


def test_max_tensor_vertices_of_polygon_6_are_certified_vertices():
    # each row meets every product facet, and its tight facets with the
    # normalization row have rank dim: a vertex, with no reference enumeration
    local = get_theory("polygon:6")
    vertices = max_tensor_vertices(local, local)
    assert len(vertices) == 552
    assert len(np.unique(np.round(vertices, 9), axis=0)) == 552
    rows = _product_rows(local.extremal_effects(), local.extremal_effects())
    norm_row = tensor(local.unit, local.unit)
    slack = vertices @ rows.T
    assert slack.min() >= -1e-9
    for vertex_slack in slack:
        system = np.vstack([norm_row, rows[np.abs(vertex_slack) <= 1e-9]])
        assert np.linalg.matrix_rank(system) == rows.shape[1]


@pytest.mark.parametrize("name", ["polygon:4", "polygon:5"])
def test_max_tensor_vertices_are_clean_and_sorted(name):
    local = get_theory(name)
    vertices = max_tensor_vertices(local, local)
    # an exact zero comes back as 0.0, not as rounding noise or -0.0
    assert not np.any((np.abs(vertices) > 0) & (np.abs(vertices) < 1e-12))
    assert not np.any(np.signbit(vertices[vertices == 0]))
    keys = [tuple(row) for row in np.round(vertices, 9)]
    assert keys == sorted(keys)


@pytest.mark.parametrize("effects", [
    [[0, 0], [1, 0], [0.5, 0.5]],  # one effect besides the unit: a line in the cone
    [[0, 0], [1, 0], [0.3, 0.3], [0.9, 0.1]],  # the unit outside their cone: a ray at x_0 < 0
])
def test_max_tensor_vertices_reject_an_unbounded_product(effects):
    restricted = theory_from_dict({
        "name": "restricted",
        "d": 1,
        "states": {"kind": "polytope", "vertices": [[1, -1], [1, 1]]},
        "effects": {"kind": "hull", "generators": effects},
        "effect_convention": "restricted",
        "reversibles": [],
    })
    with pytest.raises(ValueError, match="do not bound a polytope"):
        max_tensor_vertices(restricted, BIT)
