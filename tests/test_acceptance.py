"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s) and enforces
its runtime budget.  Expected values come from independent oracles computed
in this module: exact rational/symbolic arithmetic, 2x2 and 4x4 quantum
trace oracles, and the 16-strategy enumeration.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import sympy as sp

from gptkit import cli, composites, minkowski, poincare, zoo
from gptkit.rotations import sample_special_orthogonal
from symbolic_theories import exact_polygon

_RESULTS = []


class criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        line = f"{status} criterion-{self.number} ({elapsed:.2f}s / {self.budget_s:.0f}s): {self.label}"
        print(line)
        _RESULTS.append(line)
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.number} exceeded its budget"
        return False


# --- quantum oracles -------------------------------------------------------

_SG = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _rho1(r):
    return 0.5 * (np.eye(2, dtype=complex) + sum(r[k] * _SG[k] for k in range(3)))


def _rho_singlet():
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho -= np.kron(_SG[i], _SG[i])
    return rho / 4.0


def _effect_op(v):
    return 0.5 * (np.eye(2, dtype=complex) + sum(v[k] * _SG[k] for k in range(3)))


def test_criterion_1_classical_distinguishability():
    with criterion(1, "bit and 3-gon distinguishability, exact arithmetic", 1.0):
        # bit: entries are rational, so plain Fractions decide it exactly
        bit_states = [(Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1))]
        bit_effects = [
            (Fraction(1, 2), Fraction(-1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        ]
        for i, e in enumerate(bit_effects):
            for j, z in enumerate(bit_states):
                value = e[0] * z[0] + e[1] * z[1]
                assert value == (1 if i == j else 0)
        # 3-gon: entries are algebraic; pairings simplify to exact rationals
        states, effects = exact_polygon(3)
        for i in range(3):
            for j in range(3):
                value = sp.simplify(effects[i].dot(states[j]))
                assert value == (1 if i == j else 0)
        total = sp.simplify(sum(effects, start=sp.zeros(3, 1)) - sp.Matrix([1, 0, 0]))
        assert total == sp.zeros(3, 1)


def test_criterion_2_polygon_symmetry():
    with criterion(2, "polygon rotation identities, N in 3..12, 1e-12", 5.0):
        for sides in range(3, 13):
            theory = zoo.polygon_theory(sides)
            states = theory.states.vertices
            extremal = theory.effects.generators[2 : 2 + sides]
            bars = theory.effects.generators[2 + sides :]
            for j in range(sides):
                rot = zoo.polygon_rotation(sides, j)
                inv = zoo.polygon_rotation(sides, (sides - j) % sides)
                assert np.max(np.abs(rot @ inv - np.eye(3))) <= 1e-12
                for i in range(sides):
                    assert (
                        np.max(np.abs(rot @ states[i] - states[(i + j) % sides])) <= 1e-12
                    )
                    assert (
                        np.max(np.abs(rot @ extremal[i] - extremal[(i + j) % sides]))
                        <= 1e-12
                    )
                    if sides % 2 == 1:
                        assert (
                            np.max(np.abs(rot @ bars[i] - bars[(i + j) % sides]))
                            <= 1e-12
                        )


def test_criterion_3_bloch_consistency():
    with criterion(3, "ball:3 pairing vs 2x2 quantum trace, 1000 pairs, 1e-12", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            p_gpt = float(0.5 * np.concatenate([[1.0], v]) @ zoo.density_to_gpt(r))
            p_quantum = float(np.trace(_rho1(r) @ _rho1(v)).real)
            assert abs(p_gpt - p_quantum) <= 1e-12
            assert abs(p_gpt - 0.5 * (1.0 + r @ v)) <= 1e-12


def test_criterion_4_box_world_chsh():
    with criterion(4, "CHSH: polygon:4 -> 4 (exact LP), bit -> 2 vs enumeration", 60.0):
        box = zoo.get_theory("boxworld")
        measurements = composites.binary_measurements(box)
        best = composites.maximize_chsh(box, box, measurements, measurements, exact=True)
        assert abs(best.value - 4.0) <= 1e-6
        bit = zoo.classical_simplex(1)
        bit_best = composites.maximize_chsh(bit, bit, exact=True)
        oracle = composites.enumerate_deterministic_chsh()
        assert oracle == 2.0
        assert abs(bit_best.value - 2.0) <= 1e-9
        assert abs(bit_best.value - oracle) <= 1e-9


def test_criterion_5_tsirelson_point_and_entanglement():
    with criterion(5, "singlet CHSH = 2*sqrt(2) vs 4x4 oracle; entangled at K=200", 60.0):
        phi = composites.singlet_state()
        z = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        b0 = -(z + x) / np.sqrt(2.0)
        b1 = (x - z) / np.sqrt(2.0)
        scenario = composites.ChshScenario(
            composites.ball_measurement(z),
            composites.ball_measurement(x),
            composites.ball_measurement(b0),
            composites.ball_measurement(b1),
            phi,
        )
        value = composites.chsh_value(scenario)
        assert abs(value - 2.0 * np.sqrt(2.0)) <= 1e-9
        # cross-check every correlator against the 4x4 quantum oracle
        rho = _rho_singlet()
        for a_dir, b_dir in itertools.product((z, x), (b0, b1)):
            gpt = composites.correlator(
                phi, composites.ball_measurement(a_dir), composites.ball_measurement(b_dir)
            )
            quantum = 0.0
            for sa, sb in itertools.product((1, -1), repeat=2):
                op = np.kron(_effect_op(sa * a_dir), _effect_op(sb * b_dir))
                quantum += sa * sb * float(np.trace(rho @ op).real)
            assert abs(gpt - quantum) <= 1e-9
        # entanglement certificate: discretized LP cannot decompose it, and
        # the CHSH value above the separable bound 2 is the witness
        verdict = composites.is_separable(phi)
        assert verdict.status == "inconclusive"
        assert verdict.resolution == 200
        assert verdict.margin > 0.01
        assert value > 2.0 + 1e-6  # -> certified entangled via the CHSH witness


def test_criterion_6_minkowski_invariance():
    with criterion(6, "interval and mass shell preserved, n in 2..4, 1e-9", 10.0):
        for n in (2, 3, 4):
            rng = np.random.default_rng(500 + n)
            for _ in range(100):
                p = minkowski.random_poincare(n, rng)
                xx = rng.uniform(-3, 3, n + 1)
                yy = rng.uniform(-3, 3, n + 1)
                assert (
                    abs(
                        minkowski.interval(xx, yy)
                        - minkowski.interval(
                            minkowski.apply_poincare(p, xx),
                            minkowski.apply_poincare(p, yy),
                        )
                    )
                    <= 1e-9
                )
                q = minkowski.random_momentum(1.0, n, rng)
                assert abs(minkowski.minkowski_norm2(p.lorentz @ q.vector) + 1.0) <= 1e-9


def test_criterion_7_little_group_suite():
    with criterion(7, "little-group element, rotation reduction, composition", 30.0):
        rng = np.random.default_rng(700)
        n = 3
        rest = minkowski.rest_momentum(1.0, n)
        origin = np.zeros(n + 1)
        eta = minkowski.metric(n)
        axis = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(200):
            a = rng.uniform(-2, 2, n + 1)
            x = rng.uniform(-2, 2, n + 1)
            lam = minkowski.random_proper_orthochronous(n, rng)
            p = minkowski.random_momentum(1.0, n, rng)
            g = minkowski.little_group_element(a, x, lam, p)
            b2, q2 = minkowski.apply_to_pair(g, origin, rest.vector)
            assert np.max(np.abs(b2)) <= 1e-9
            assert np.max(np.abs(q2 - rest.vector)) <= 1e-9
            w = minkowski.wigner_rotation(lam, p)
            assert np.max(np.abs(w.T @ eta @ w - eta)) <= 1e-9
            assert abs(np.linalg.det(w) - 1.0) <= 1e-9
            assert np.max(np.abs(w[0] - axis)) <= 1e-9
            assert np.max(np.abs(w[:, 0] - axis)) <= 1e-9
        for _ in range(100):
            rot = np.eye(n + 1)
            rot[1:, 1:] = sample_special_orthogonal(n, rng)
            a = rng.uniform(-2, 2, n + 1)
            x = rng.uniform(-2, 2, n + 1)
            p = minkowski.random_momentum(1.0, n, rng)
            g = minkowski.little_group_element(a, x, rot, p)
            assert np.max(np.abs(g.translation)) <= 1e-9
            assert np.max(np.abs(g.lorentz - rot)) <= 1e-9
        for _ in range(100):
            a = rng.uniform(-2, 2, n + 1)
            a2 = rng.uniform(-2, 2, n + 1)
            x = rng.uniform(-2, 2, n + 1)
            lam1 = minkowski.random_proper_orthochronous(n, rng)
            lam2 = minkowski.random_proper_orthochronous(n, rng)
            p = minkowski.random_momentum(1.0, n, rng)
            moved = minkowski.MassiveMomentum(lam1 @ p.vector, p.mass)
            left = minkowski.compose(
                minkowski.little_group_element(a2, x + a, lam2, moved),
                minkowski.little_group_element(a, x, lam1, p),
            )
            right = minkowski.little_group_element(a + a2, x, lam2 @ lam1, p)
            assert np.max(np.abs(left.translation - right.translation)) <= 1e-8
            assert np.max(np.abs(left.lorentz - right.lorentz)) <= 1e-8


def test_criterion_8_probability_invariance():
    with criterion(8, "pairing invariance 1e-10; detector sphere 1e-10/1e-12", 10.0):
        for n in (2, 3, 4):
            rng = np.random.default_rng(800 + n)
            rep = poincare.rotation_rep(n)
            rest = minkowski.rest_momentum(1.0, n)
            for _ in range(200):
                state = poincare.ClassicalMomentumState(rest, zoo.sample_ball_state(n, rng))
                effect = poincare.ClassicalMomentumEffect(rest, zoo.sample_ball_effect(n, rng))
                lam = np.eye(n + 1)
                lam[1:, 1:] = sample_special_orthogonal(n, rng)
                g = minkowski.PoincareTransform(np.zeros(n + 1), lam)
                before = poincare.classical_pairing(effect, state)
                after = poincare.classical_pairing(
                    poincare.transform_classical(g, effect, rep),
                    poincare.transform_classical(g, state, rep),
                )
                assert abs(after - before) <= 1e-10
        rng = np.random.default_rng(888)
        detectors = np.vstack([np.eye(3), -np.eye(3)])
        for _ in range(100):
            state = zoo.sample_ball_state(3, rng)
            rotation = sample_special_orthogonal(3, rng)
            result = poincare.detector_sphere_experiment(state, detectors, rotation)
            assert result.worst_deviation <= 1e-10
            assert abs(result.total_before - 1.0) <= 1e-12


def test_criterion_9_toy_spacetime():
    with criterion(9, "lattice translations as polygon rotations, N <= 12", 5.0):
        for sides in range(3, 13):
            rows = poincare.toy_discrete_spacetime(sides, 2 % sides, tol=1e-12)
            rows = {row.check: row for row in rows}
            assert rows["toy-spacetime-homomorphism"].passed
            assert rows["toy-spacetime-homomorphism"].worst_deviation <= 1e-12
            assert rows["toy-spacetime-invariance"].passed
            # the wired representation is not trivial
            assert rows["toy-spacetime-nontrivial"].passed
        fig_rows = poincare.toy_discrete_spacetime(5, 2, tol=1e-12)
        assert all(row.passed for row in fig_rows)


def test_criterion_10_ball_orbits():
    with criterion(10, "orbit purity, effect orbit, antipodal distinguishability", 10.0):
        rows = poincare.orbit_ball_reconstruction(
            3, np.array([0.0, 0.0, 1.0]), rotation_count=100, seed=10, tol=1e-10
        )
        rows = {row.check: row for row in rows}
        assert rows["ball-orbit-pure"].passed
        assert rows["ball-orbit-hull-inside"].passed
        assert rows["ball-orbit-transitive"].passed
        assert rows["ball-orbit-effects-extremal"].passed
        assert rows["ball-orbit-distinguishability"].passed
        assert max(row.worst_deviation for row in rows.values()) <= 1e-10


def test_acceptance_suite_runs_from_cli(capsys):
    # end-to-end: the aggregated report subcommand must exit 0
    code = cli.main(["report", "--samples", "50", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"pass":true' in out


def test_zzz_print_summary():
    print()
    for line in _RESULTS:
        print(line)
    assert all(line.startswith("PASS") for line in _RESULTS)
