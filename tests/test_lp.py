import numpy as np
import pytest
from fractions import Fraction

from gptkit.lp import (
    exact_linprog,
    hull_membership,
    linear_program,
)


def test_exact_linprog_simple_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6  ->  (8/5, 6/5), value 14/5
    status, x, value = exact_linprog(
        [-1, -1],
        a_le=[[1, 2], [3, 1]],
        b_le=[4, 6],
        nonneg=[True, True],
    )
    assert status == "optimal"
    assert -value == Fraction(14, 5)
    assert x == [Fraction(8, 5), Fraction(6, 5)]


def test_exact_linprog_infeasible():
    status, _, _ = exact_linprog(
        [0, 0],
        a_eq=[[1, 1]],
        b_eq=[1],
        a_le=[[-1, -1]],
        b_le=[-3],
        nonneg=[True, True],
    )
    assert status == "infeasible"


def test_exact_linprog_free_variables():
    # min x st x >= -5 with x free
    status, x, value = exact_linprog([1], a_le=[[-1]], b_le=[5], nonneg=[False])
    assert status == "optimal"
    assert value == Fraction(-5)
    assert x == [Fraction(-5)]


def test_exact_linprog_unbounded():
    status, _, _ = exact_linprog([-1], a_le=[[1]], b_le=[10], nonneg=[False])
    # max x with only an upper bound is bounded; flip to an actually unbounded one
    assert status == "optimal"
    status, _, _ = exact_linprog([1], a_le=[[1]], b_le=[10], nonneg=[False])
    assert status == "unbounded"


@pytest.mark.parametrize("exact", [False, True])
def test_hull_membership_square(exact):
    square = np.array(
        [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]]
    )
    inside = np.array([1.0, 0.25, -0.5])
    outside = np.array([1.0, 1.5, 0.0])
    r_in = hull_membership(square, inside, exact=exact)
    assert r_in.member
    assert r_in.weights is not None
    recon = r_in.weights @ square
    assert np.allclose(recon, inside, atol=1e-9)
    r_out = hull_membership(square, outside, exact=exact)
    assert not r_out.member
    assert r_out.margin > 1e-3


def test_exact_membership_matches_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = np.hstack([np.ones((6, 1)), rng.normal(size=(6, 3))])
        w = rng.dirichlet(np.ones(6))
        target_in = w @ pts
        assert hull_membership(pts, target_in, exact=True).member
        assert hull_membership(pts, target_in).member
        target_out = target_in.copy()
        target_out[1] = pts[:, 1].max() + rng.uniform(0.1, 1.0)  # beyond every point
        for target in (target_in, target_out):
            f = hull_membership(pts, target)
            e = hull_membership(pts, target, exact=True)
            assert abs(f.margin - e.margin) < 1e-9
            assert f.member == e.member
        assert not hull_membership(pts, target_out, exact=True).member


def test_linear_program_exact_vs_float():
    # max of a linear functional over a simplex
    c = np.array([1.0, 2.0, 3.0])
    a_eq = np.array([[1.0, 1.0, 1.0]])
    b_eq = np.array([1.0])
    a_ub = -np.eye(3)
    b_ub = np.zeros(3)
    f = linear_program(c, a_eq, b_eq, a_ub, b_ub, maximize=True)
    e = linear_program(c, a_eq, b_eq, a_ub, b_ub, maximize=True, exact=True)
    assert f.status == e.status == "optimal"
    assert abs(f.value - 3.0) < 1e-9
    assert abs(e.value - 3.0) == 0.0


def test_exact_hull_membership_reports_positive_margin():
    pts = np.array([[1.0, 1.0], [1.0, -1.0]])
    res = hull_membership(pts, np.array([1.0, 2.0]), exact=True)
    assert not res.member
    assert res.margin >= 1.0 - 1e-12


def test_exact_linprog_matches_scipy_on_random_bounded_problems():
    from scipy.optimize import linprog as scipy_linprog

    rng = np.random.default_rng(13)
    box = 5.0
    for _ in range(15):
        nv = 4
        c = rng.normal(size=nv)
        a = rng.normal(size=(6, nv))
        interior = rng.uniform(-1, 1, nv)
        b = a @ interior + rng.uniform(0.5, 2.0, 6)  # keeps the set nonempty
        bounds_rows = np.vstack([np.eye(nv), -np.eye(nv)])
        bounds_rhs = np.full(2 * nv, box)
        ref = scipy_linprog(
            c,
            A_ub=np.vstack([a, bounds_rows]),
            b_ub=np.concatenate([b, bounds_rhs]),
            bounds=[(None, None)] * nv,
            method="highs",
        )
        sol = linear_program(
            c,
            a_ub=np.vstack([a, bounds_rows]),
            b_ub=np.concatenate([b, bounds_rhs]),
            exact=True,
        )
        assert ref.success and sol.status == "optimal"
        assert abs(sol.value - ref.fun) < 1e-7
