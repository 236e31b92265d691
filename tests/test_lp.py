import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gptkit import _highs as highs_module, composites, lp as lp_module
from gptkit.lp import (
    exact_linprog,
    hull_membership,
    linear_program,
    linear_programs,
)
from gptkit.zoo import get_theory
from test_composites import REFERENCE_CASES


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


@pytest.mark.parametrize("maximize", [True, False])
def test_exact_linear_program_keeps_a_fraction_objective(monkeypatch, maximize):
    # 1/3 has no float: the exact solver must see it, negated when maximizing
    seen = []
    solve = lp_module.exact_linprog

    def spy(c, **kwargs):
        seen.append(list(c))
        return solve(c, **kwargs)

    monkeypatch.setattr(lp_module, "exact_linprog", spy)
    third = Fraction(1, 3)
    sol = linear_program(np.array([third], dtype=object), a_ub=np.array([[1.0], [-1.0]]),
                         b_ub=np.array([1.0, 1.0]), maximize=maximize, exact=True)
    assert seen == [[-third if maximize else third]]
    assert all(type(v) is Fraction for v in seen[0])
    assert sol.value == (float(third) if maximize else -float(third))


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


def test_exact_linprog_without_rows():
    assert exact_linprog([1], nonneg=[True]) == ("optimal", [Fraction(0)], Fraction(0))
    assert exact_linprog([-1], nonneg=[True])[0] == "unbounded"


def test_exact_linprog_zero_and_dependent_rows():
    # 0.x = 0 constrains nothing; its artificial row is dropped after phase 1
    status, x, value = exact_linprog([1, 1], a_eq=[[0, 0]], b_eq=[0])
    assert (status, x, value) == ("optimal", [Fraction(0), Fraction(0)], Fraction(0))
    # the second row is twice the first: one of them is dropped
    status, x, value = exact_linprog([1, 2], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
    assert (status, x, value) == ("optimal", [Fraction(1), Fraction(0)], Fraction(1))


def test_exact_linprog_mixed_int_and_fraction_inputs():
    # max x/3 + y  st  x + y/2 <= 3/2,  y <= 1,  x, y >= 0  ->  (1, 1), value 4/3
    status, x, value = exact_linprog(
        [Fraction(-1, 3), -1],
        a_le=[[1, Fraction(1, 2)], [0, 1]],
        b_le=[Fraction(3, 2), 1],
    )
    assert status == "optimal"
    assert x == [Fraction(1), Fraction(1)]
    assert value == Fraction(-4, 3)


# ---------------------------------------------------------------------------
# Reference: the dense Fraction tableau, started from one artificial per row
# ---------------------------------------------------------------------------


def _ref_pivot(rows, cost, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [v - f * w for v, w in zip(row, rows[r])]
    if cost[c] != 0:
        f = cost[c]
        for j, w in enumerate(rows[r]):
            cost[j] -= f * w
    basis[r] = c


def _ref_iterate(rows, cost, basis):
    while True:
        entering = next((j for j in range(len(cost) - 1) if cost[j] < 0), -1)
        if entering < 0:
            return "optimal"
        ratio, leaving = None, -1
        for i, row in enumerate(rows):
            if row[entering] > 0:
                r = row[-1] / row[entering]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leaving]):
                    ratio, leaving = r, i
        if leaving < 0:
            return "unbounded"
        _ref_pivot(rows, cost, basis, leaving, entering)


def _reference_linprog(c, a_eq=None, b_eq=None, a_le=None, b_le=None, nonneg=None):
    c = [Fraction(v) for v in c]
    nonneg = [True] * len(c) if nonneg is None else nonneg
    eqs = [([Fraction(v) for v in row], Fraction(b)) for row, b in zip(a_eq or [], b_eq or [])]
    les = [([Fraction(v) for v in row], Fraction(b)) for row, b in zip(a_le or [], b_le or [])]
    col_of = [(j, s) for j in range(len(c)) for s in ((1, -1) if not nonneg[j] else (1,))]
    n_struct, n_le, m = len(col_of), len(les), len(eqs) + len(les)
    art0 = n_struct + n_le
    rows = []
    for i, (row_in, b) in enumerate(eqs + les):
        row = [Fraction(0)] * (art0 + m + 1)
        for k, (j, s) in enumerate(col_of):
            row[k] = s * row_in[j]
        if i >= len(eqs):
            row[n_struct + i - len(eqs)] = Fraction(1)
        row[-1] = b
        if b < 0:
            row = [-v for v in row]
        row[art0 + i] = Fraction(1)
        rows.append(row)
    basis = [art0 + i for i in range(m)]
    cost = [Fraction(0)] * (art0 + m + 1)
    for row in rows:
        for j in list(range(art0)) + [-1]:
            cost[j] -= row[j]
    _ref_iterate(rows, cost, basis)
    if cost[-1] < 0:
        return "infeasible", None, None
    for i in range(m - 1, -1, -1):
        if basis[i] >= art0:
            col = next((j for j in range(art0) if rows[i][j] != 0), -1)
            if col >= 0:
                _ref_pivot(rows, cost, basis, i, col)
            else:
                del rows[i], basis[i]
    rows = [row[:art0] + [row[-1]] for row in rows]
    cost = [s * c[j] for j, s in col_of] + [Fraction(0)] * (n_le + 1)
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            cost = [v - cb * w for v, w in zip(cost, rows[i])]
    if _ref_iterate(rows, cost, basis) == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * len(c)
    for i, b in enumerate(basis):
        if b < n_struct:
            j, s = col_of[b]
            x[j] += s * rows[i][-1]
    return "optimal", x, sum(ci * xi for ci, xi in zip(c, x))


def _coef(rng):
    """A small int, a simple Fraction or a dyadic float."""
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       rng.randint(-6, 6) / 4])


def _random_lp(seed):
    """Seeded LPs of six shapes; each shape tests one path of the tableau."""
    rng = random.Random(seed)
    kind = seed % 6
    nvar = rng.randint(2, 4)
    c = [_coef(rng) for _ in range(nvar)]
    rand_rows = lambda k: [[_coef(rng) for _ in range(nvar)] for _ in range(k)]
    box = [[int(i == j) * s for j in range(nvar)] for i in range(nvar) for s in (1, -1)]
    if kind == 0:  # free and nonneg variables, rows with negative rhs, a box
        return dict(c=c, a_le=rand_rows(3) + box, b_le=[rng.randint(-2, 3) for _ in range(3)]
                    + [3] * len(box), nonneg=[rng.random() < 0.5 for _ in range(nvar)])
    if kind == 1:  # hull-shaped: points^T w + s+ - s- = target, all >= 0
        npts, dim = rng.randint(2, 4), rng.randint(2, 3)
        pts = [[1] + [rng.randint(-2, 2) for _ in range(dim - 1)] for _ in range(npts)]
        a_eq = [[p[i] for p in pts] + [int(i == k) for k in range(dim)]
                + [-int(i == k) for k in range(dim)] for i in range(dim)]
        target = [1] + [_coef(rng) for _ in range(dim - 1)]
        return dict(c=[0] * npts + [1] * (2 * dim), a_eq=a_eq, b_eq=target)
    if kind == 2:  # b = 0 degenerate rows through a point with x_0 = 1, free variables
        point = [1] + [rng.randint(-2, 2) for _ in range(nvar - 1)]
        cone = [row if sum(a * p for a, p in zip(row, point)) <= 0 else [-a for a in row]
                for row in rand_rows(4)]
        return dict(c=c, a_eq=[[1] + [0] * (nvar - 1)], b_eq=[1],
                    a_le=cone + box, b_le=[0] * 4 + [2] * len(box), nonneg=[False] * nvar)
    if kind == 3:  # duplicated and scaled equality rows
        rows = rand_rows(2)
        point = [rng.randint(0, 2) for _ in range(nvar)]
        rows += [rows[0], [2 * v for v in rows[1]]]
        b = [sum(a * p for a, p in zip(row, point)) for row in rows]
        return dict(c=[abs(v) for v in c], a_eq=rows, b_eq=b)
    if kind == 4:  # infeasible: a.x <= b and a.x >= b + 1
        row = rand_rows(1)[0]
        b = rng.randint(-2, 2)
        return dict(c=c, a_le=[row, [-v for v in row]] + rand_rows(1), b_le=[b, -b - 1, 2],
                    nonneg=[rng.random() < 0.5 for _ in range(nvar)])
    # unbounded: few rows over free variables
    return dict(c=c, a_le=rand_rows(rng.randint(1, 2)), b_le=[rng.randint(-1, 2), 1],
                nonneg=[False] * nvar)


def _exactly_feasible(lp, x):
    dot = lambda row: sum(Fraction(a) * v for a, v in zip(row, x))
    nonneg = lp.get("nonneg") or [True] * len(x)
    return (
        all(dot(row) == Fraction(b) for row, b in zip(lp.get("a_eq", []), lp.get("b_eq", [])))
        and all(dot(row) <= Fraction(b) for row, b in zip(lp.get("a_le", []), lp.get("b_le", [])))
        and all(v >= 0 for v, pos in zip(x, nonneg) if pos)
    )


def test_exact_linprog_matches_fraction_reference():
    statuses = []
    for seed in range(54):
        lp = _random_lp(seed)
        status, x, value = exact_linprog(**lp)
        ref_status, _, ref_value = _reference_linprog(**lp)
        assert status == ref_status, (seed, lp)
        assert value == ref_value, (seed, lp)
        if status == "optimal":
            assert isinstance(value, Fraction) and all(isinstance(v, Fraction) for v in x)
            assert _exactly_feasible(lp, x), (seed, lp, x)
            assert sum(Fraction(ci) * xi for ci, xi in zip(lp["c"], x)) == value
        statuses.append(status)
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}


def test_exact_linprog_keeps_the_reference_pivots_from_an_artificial_start():
    # a.x + 2 s = 0 (b = 0, degenerate) and sum(x) + 2 s' = 1 over x, s >= 0:
    # no column reads +e_i, so every row starts on an artificial as in the
    # reference, Bland's rule repeats its pivots and x is equal too.  On a few
    # of these the optimum is not unique and the ratio tie-break decides x.
    for seed in range(300):
        rng = random.Random(seed)
        nvar, k = rng.randint(3, 5), rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(nvar)] for _ in range(k)] + [[1] * nvar]
        lp = dict(
            c=[rng.randint(-3, 2) for _ in range(nvar)] + [0] * len(rows),
            a_eq=[row + [2 * (i == j) for j in range(len(rows))] for i, row in enumerate(rows)],
            b_eq=[0] * k + [1],
        )
        assert exact_linprog(**lp) == _reference_linprog(**lp), (seed, lp)


# ---------------------------------------------------------------------------
# Input types: the same exact values handed over as floats, ints and Fractions
# ---------------------------------------------------------------------------


def _artificial_start_lp(seed, scales):
    """The LPs of the reference-pivot test, each row scaled by one of `scales`
    (none of them 1/2 or 1, so that still no column reads +e_i)."""
    rng = random.Random(seed)
    nvar, k = rng.randint(3, 5), rng.randint(2, 4)
    rows = [[rng.randint(-3, 3) for _ in range(nvar)] for _ in range(k)] + [[1] * nvar]
    s = [rng.choice(scales) for _ in rows]
    return dict(
        c=[rng.choice(scales) * rng.randint(-3, 2) for _ in range(nvar)] + [0] * len(rows),
        a_eq=[[s[i] * v for v in row] + [2 * s[i] * (i == j) for j in range(len(rows))]
              for i, row in enumerate(rows)],
        b_eq=[0] * k + [s[-1]],
    )


def _entries(values, convert):
    return [_entries(v, convert) for v in values] if isinstance(values, list) else convert(values)


def _random_entry(rng):
    def convert(v):
        kinds = [float, np.float64, Fraction] + ([int, np.int64] if v == int(v) else [])
        return rng.choice(kinds)(v)
    return convert


# each converts the nested lists of one argument; the int kinds need integral values
INPUT_KINDS = {
    "float array": lambda v, rng: np.array(_entries(v, float)),
    "int list": lambda v, rng: _entries(v, int),
    "int64 array": lambda v, rng: np.array(_entries(v, int), dtype=np.int64),
    "Fraction object array": lambda v, rng: np.array(_entries(v, Fraction), dtype=object),
    "mixed list": lambda v, rng: _entries(v, _random_entry(rng)),
    "mixed object array": lambda v, rng: np.array(_entries(v, _random_entry(rng)), dtype=object),
}


def test_exact_linprog_reads_every_input_type_alike():
    # the same values as float, int, int64, Fraction and mixed entries, and
    # as a different kind per argument, give the reference's (status, x, value)
    rng = random.Random(5)
    for seed in range(40):
        integral = seed % 2 == 0
        lp = _artificial_start_lp(seed, (2, 3) if integral else (Fraction(1, 4), 0.75, 1.5, 3))
        expected = _reference_linprog(**{k: _entries(v, Fraction) for k, v in lp.items()})
        kinds = [k for k in INPUT_KINDS if integral or "int" not in k]
        for picks in [[kind] * 3 for kind in kinds] + [rng.choices(kinds, k=3) for _ in range(4)]:
            given = {k: INPUT_KINDS[kind](v, rng) for (k, v), kind in zip(lp.items(), picks)}
            got = exact_linprog(**given)
            assert got == expected, (seed, picks)
            assert type(got[2]) is Fraction and all(type(v) is Fraction for v in got[1])


@pytest.mark.parametrize("bad, error", [(float("nan"), ValueError), (float("inf"), OverflowError),
                                        (-float("inf"), OverflowError)])
@pytest.mark.parametrize("where", ["c", "a_eq", "b_eq", "a_le", "b_le"])
@pytest.mark.parametrize("as_array", [False, True])
def test_exact_linprog_rejects_a_non_finite_entry(bad, error, where, as_array):
    lp = dict(c=[1, -1, 0.5], a_eq=[[1, 1, 0], [0, 1, 1]], b_eq=[1, Fraction(1, 2)],
              a_le=[[1, 0, 0]], b_le=[0.75])
    entry = lp[where][-1]
    if isinstance(entry, list):
        entry[1] = bad
    else:
        lp[where][-1] = bad
    if as_array:
        lp = {k: np.array(v, dtype=object if k == "b_eq" else float) for k, v in lp.items()}
    with pytest.raises(error):
        exact_linprog(**lp)


def test_exact_linprog_meets_non_finite_entries_rows_first():
    # every row of a block is read before its right-hand side, and c first
    with pytest.raises(OverflowError):
        exact_linprog([1, 1], a_eq=[[1, 1], [1, np.inf]], b_eq=[np.nan, 1])
    with pytest.raises(ValueError):
        exact_linprog([np.nan, 1], a_le=[[np.inf, 1]], b_le=[1])
    with pytest.raises(ValueError):
        exact_linprog([1, 1], a_eq=[[1, 1]], b_eq=[np.nan], a_le=[[np.inf, 1]], b_le=[1])


def test_exact_hull_membership_rejects_non_finite_points():
    pts = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    for bad, error in ((np.nan, ValueError), (np.inf, OverflowError), (-np.inf, OverflowError)):
        given = pts.copy()
        given[1, 1] = bad
        with pytest.raises(error):
            hull_membership(given, np.array([1.0, 0.5]), exact=True)
        with pytest.raises(error):
            hull_membership(pts, np.array([1.0, bad]), exact=True)
    given = pts.copy()
    given[0, 1], given[2, 1] = np.inf, np.nan  # the first point's inf is met first
    with pytest.raises(OverflowError):
        hull_membership(given, np.array([1.0, 0.5]), exact=True)


# ---------------------------------------------------------------------------
# The exact hull LP's column order
# ---------------------------------------------------------------------------


def _exact_hull_cases():
    """(points, target) of box-world, polygon:5 and random hulls, members and not."""
    square, pentagon = get_theory("polygon:4"), get_theory("polygon:5")
    products = composites._product_rows(square.extreme_states(), square.extreme_states())
    vertices = composites.max_tensor_vertices(square, square)
    ranks = [np.linalg.matrix_rank(v.reshape(3, 3), tol=1e-9) for v in vertices]
    boxes = [v for v, r in zip(vertices, ranks) if r > 1]
    rng = np.random.default_rng(22)
    cases = [(products, v) for v in vertices]
    for k in (2, 3, 4, 6):
        picks = rng.choice(len(products), size=k, replace=False)
        cases.append((products, rng.dirichlet(np.ones(k)) @ products[picks]))
    for box in boxes[:4]:
        p = rng.uniform(0.55, 0.95)
        cases.append((products, p * box + (1 - p) * products[rng.integers(len(products))]))
    centre = vertices.mean(axis=0)
    for v in vertices[::6]:
        cases.append((products, v + rng.uniform(0.1, 0.3) * (v - centre)))
    p5 = pentagon.extreme_states()
    p5_products = composites._product_rows(p5, p5)
    picks = rng.choice(len(p5_products), size=3, replace=False)
    cases.append((p5_products, rng.dirichlet(np.ones(3)) @ p5_products[picks]))
    for _ in range(8):
        npts, dim = int(rng.integers(4, 12)), int(rng.integers(2, 5))
        pts = np.hstack([np.ones((npts, 1)), np.round(rng.normal(size=(npts, dim)), 2)])
        inside = rng.dirichlet(np.ones(npts)) @ pts
        cases += [(pts, inside), (pts, inside + np.r_[0, rng.normal(size=dim)])]
    return cases


def _counting_pivots(monkeypatch):
    count = [0]
    pivot = lp_module._pivot

    def counted(*args):
        count[0] += 1
        return pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", counted)
    return count


def test_exact_hull_lists_points_by_pairing_and_keeps_the_cold_optimum(monkeypatch):
    tol = lp_module.FEASIBILITY_SLACK
    pivots = _counting_pivots(monkeypatch)
    solved = []
    solve = lp_module.exact_linprog

    def recording(c, **kwargs):
        solved.append((kwargs["a_eq"], solve(c, **kwargs)))
        return solved[-1][1]

    totals = {"identity": 0, "pairing": 0}
    members = []
    for pts, target in _exact_hull_cases():
        npts, dim = pts.shape
        eye = np.eye(dim)
        before = pivots[0]
        cold = solve(np.r_[np.zeros(npts), np.ones(2 * dim)],
                     a_eq=np.hstack([pts.T, eye, -eye]), b_eq=target)
        totals["identity"] += pivots[0] - before
        before = pivots[0]
        monkeypatch.setattr(lp_module, "exact_linprog", recording)
        res = hull_membership(pts, target, tol=tol, exact=True)
        monkeypatch.setattr(lp_module, "exact_linprog", solve)
        totals["pairing"] += pivots[0] - before
        a_eq, (status, x, value) = solved[-1]
        assert status == "optimal" and value == cold[2]  # Fraction-equal
        assert res.margin == float(cold[2]) and res.member == (value <= tol)
        # columns by descending p.target, the lower index first on ties
        pairing = np.einsum("ij,j->i", pts, target).tolist()
        order = sorted(range(npts), key=lambda i: (-pairing[i], i))
        assert np.array_equal(a_eq[:, :npts], pts[order].T)
        members.append(res.member)
        if res.member:
            assert res.weights.shape == (npts,) and res.weights.min() >= 0
            assert res.weights[order].tolist() == [float(v) for v in x[:npts]]
            assert np.abs(res.weights @ pts - target).sum() <= tol
    assert any(members) and not all(members)
    assert totals["pairing"] < totals["identity"], totals


def _full_hull_margin(pts, target):
    """The l1 hull LP of `hull_membership`, solved once by HiGHS over every column."""
    from scipy.optimize import linprog as scipy_linprog

    npts, dim = pts.shape
    eye = np.eye(dim)
    res = scipy_linprog(
        np.concatenate([np.zeros(npts), np.ones(2 * dim)]),
        A_eq=np.hstack([pts.T, eye, -eye]),
        b_eq=target,
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return res.fun


def _random_two_qubit_state(rng):
    """Bloch data of a seeded random mixed two-qubit density operator."""
    paulis = (
        np.eye(2),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(complex),
    )
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    bloch = np.array([[np.trace(rho @ np.kron(p, q)).real for q in paulis] for p in paulis])
    return composites.two_qubit_gpt(bloch[1:, 0], bloch[0, 1:], bloch[1:, 1:])


def _column_generation_cases():
    ball = get_theory("ball:3")
    square = get_theory("polygon:4")
    balls = composites._product_rows(ball.extreme_states(), ball.extreme_states())
    werner = [composites.two_qubit_gpt(np.zeros(3), np.zeros(3), -v * np.eye(3)).vector
              for v in (0.2, 0.3, 0.5)]
    rng = np.random.default_rng(11)
    seeded = [_random_two_qubit_state(rng).vector for _ in range(2)]
    for target in werner + [composites.singlet_state().vector] + seeded:
        yield balls, target
    # noisy mixtures of ball:3 x polygon:4 products with the mixed product
    rows = composites._product_rows(ball.extreme_states(), square.extreme_states())
    mixed = np.kron(np.eye(4)[0], np.eye(3)[0])
    rng = np.random.default_rng(12)
    for noise in (0.0, 0.05, 0.1, 0.2, 0.3):
        w = rng.dirichlet(np.ones(4))
        mix = 0.5 * mixed + 0.5 * w @ rows[rng.choice(len(rows), size=4, replace=False)]
        mix[1:] += noise * rng.standard_normal(len(mix) - 1)
        yield rows, mix


def test_column_generation_reaches_the_full_hull_optimum():
    tol = lp_module.FEASIBILITY_SLACK
    members = []
    for pts, target in _column_generation_cases():
        res = hull_membership(pts, target, tol=tol)
        full = _full_hull_margin(pts, target)
        assert abs(res.margin - full) <= 1e-9, (res.margin, full)
        assert res.member == (full <= tol)
        members.append(res.member)
        if res.member:
            assert res.weights.shape == (len(pts),)
            assert res.weights.min() >= -1e-12
            assert np.abs(res.weights @ pts - target).sum() <= tol
    assert any(members) and not all(members)  # both verdicts are exercised


def _record_lp_shapes(monkeypatch):
    shapes = []
    solve = lp_module._solve_highs

    def recording(b_eqs, a_eq, c, lb, ub):
        shapes.append(a_eq.shape)
        return solve(b_eqs, a_eq, c, lb, ub)

    monkeypatch.setattr(lp_module, "_solve_highs", recording)
    return shapes


def test_a_hull_that_fits_the_first_master_is_solved_once(monkeypatch):
    shapes = _record_lp_shapes(monkeypatch)
    square = get_theory("polygon:4").extreme_states()
    pts = composites._product_rows(square, square)  # box world: 16 products, dim 9
    target = np.array([1.0, 0, 0, 0, 1, 1, 0, 1, -1])  # a PR box
    res = hull_membership(pts, target)
    assert not res.member
    assert shapes == [(9, 16 + 2 * 9)]


def test_the_singlet_hull_never_hands_highs_the_full_column_set(monkeypatch):
    shapes = _record_lp_shapes(monkeypatch)
    verdict = composites.is_separable(composites.singlet_state())
    assert verdict.status == "inconclusive"
    assert shapes and max(cols for _, cols in shapes) <= 2000


def test_product_pairing_equals_the_dense_pairing():
    # xa[a] . Y . xb[b] against the einsum over the materialized product rows
    rng = np.random.default_rng(41)
    for na, nb, da, db in [(7, 5, 3, 4), (200, 200, 4, 4), (1, 6, 2, 3), (9, 1, 5, 1)]:
        xa, xb = rng.standard_normal((na, da)), rng.standard_normal((nb, db))
        y = rng.standard_normal(da * db)
        dense = np.einsum("ij,j->i", composites._product_rows(xa, xb), y)
        got = lp_module._product_pairing(xa, xb, y)
        assert got.shape == (na * nb,)
        assert np.abs(got - dense).max() <= 1e-12


def _product_hull_targets(local_a, local_b, rng):
    """Werner-like states (correlations -v on the diagonal) at v = 0.2, 0.5
    and 0.7, and three seeded product mixtures, each also pushed off by noise."""
    rows = composites._product_rows(local_a.extreme_states(), local_b.extreme_states())
    for v in (0.2, 0.5, 0.7):
        mat = np.zeros((local_a.dim + 1, local_b.dim + 1))
        mat[0, 0] = 1.0
        mat[1:, 1:] = -v * np.eye(local_a.dim, local_b.dim)
        yield mat.reshape(-1)
    for _ in range(3):
        picks = rng.choice(len(rows), size=4, replace=False)
        member = rng.dirichlet(np.ones(4)) @ rows[picks]
        yield member
        outside = member.copy()
        outside[1:] += 0.3 * rng.standard_normal(len(member) - 1)
        yield outside


@pytest.mark.parametrize("name_a, name_b", [
    ("ball:3", "ball:3"), ("ball:3", "polygon:4"), ("polygon:5", "polygon:5"),
    ("polygon:4", "polygon:4"),
])
def test_product_hull_matches_the_materialized_hull(name_a, name_b):
    local_a, local_b = get_theory(name_a), get_theory(name_b)
    xa, xb = local_a.extreme_states(), local_b.extreme_states()
    rows = composites._product_rows(xa, xb)
    tol = lp_module.FEASIBILITY_SLACK
    members = []
    for target in _product_hull_targets(local_a, local_b, np.random.default_rng(42)):
        got = lp_module.product_hull_memberships(xa, xb, [target], tol)[0]
        want = hull_membership(rows, target, tol)
        assert got.member == want.member
        assert abs(got.margin - want.margin) <= 1e-12, (got.margin, want.margin)
        if got.member:
            # weights in the materialized rows' a-major order
            assert got.weights.shape == (len(rows),) and got.weights.min() >= -1e-12
            assert np.abs(got.weights @ rows - target).sum() <= tol
        members.append(got.member)
    assert any(members) and not all(members)


def test_a_ball_hull_never_stores_its_products():
    import tracemalloc

    werner = composites.two_qubit_gpt(np.zeros(3), np.zeros(3), -0.5 * np.eye(3))
    composites.is_separable(werner)  # one-time allocations outside the hull
    tracemalloc.start()
    try:
        verdict = composites.is_separable(werner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == "inconclusive"
    # the 40 000 x 16 product rows alone are 5.1 MB
    assert peak < 1_000_000, peak


# ---------------------------------------------------------------------------
# Stacks of hull LPs over one set of points
# ---------------------------------------------------------------------------


def _stack_cases(name):
    """The product states of `name` with itself, and eight seeded targets:
    four product mixtures, each followed by its push off by noise."""
    theory = get_theory(name)
    pts = composites._product_rows(theory.extreme_states(), theory.extreme_states())
    rng = np.random.default_rng(sum(map(ord, name)))
    targets = []
    for _ in range(4):
        picks = rng.choice(len(pts), size=3, replace=False)
        member = rng.dirichlet(np.ones(3)) @ pts[picks]
        outside = member.copy()
        outside[1:] += 0.3 * rng.standard_normal(len(member) - 1)
        targets += [member, outside]
    return pts, np.array(targets)


def _one_hull_at_a_time(pts, target, tol, exact):
    """The hull LP of one target, solved as the stacks' reference: exact,
    cold over the points by descending p.target; float, by column generation
    that hands HiGHS a new master every round."""
    npts, dim = pts.shape
    pairing = np.einsum("ij,j->i", pts, target)
    eye = np.eye(dim)
    if exact:
        order = np.array(sorted(range(npts), key=lambda i: (-pairing[i], i)))
        _, x, value = exact_linprog(np.r_[np.zeros(npts), np.ones(2 * dim)],
                                    a_eq=np.hstack([pts[order].T, eye, -eye]), b_eq=target)
        weights, fun = np.zeros(npts), float(value)
        weights[order] = x[:npts]
        return lp_module.HullMembership(fun <= tol, weights if fun <= tol else None, fun)
    master = np.arange(npts) if npts <= 2 * dim else np.argsort(-pairing, kind="stable")[: 2 * dim]
    while True:
        a_eq = np.hstack([pts[master].T, eye, -eye])
        c = np.r_[np.zeros(len(master)), np.ones(2 * dim)]
        [(_, x, fun, duals)] = lp_module._solve_highs([target], a_eq, c, 0.0, np.inf)
        pricing = np.einsum("ij,j->i", pts, duals)
        pricing[master] = -np.inf
        entering = [i for i in np.argsort(-pricing, kind="stable")[: 2 * dim]
                    if pricing[i] > lp_module.FEASIBILITY_SLACK]
        if not entering:
            weights = np.zeros(npts)
            weights[master] = x[: len(master)]
            return lp_module.HullMembership(fun <= tol, weights if fun <= tol else None, fun)
        master = np.concatenate([master, entering])


def _recorded_exact_margins(monkeypatch):
    """Every exact hull margin computed from here on, as a Fraction, in
    order: the cold solve's and each warm re-solve's."""
    margins = []
    solve, resolve = lp_module.exact_linprog, lp_module._resolve

    def cold(*args, **kwargs):
        result = solve(*args, **kwargs)
        margins.append(result[2])
        return result

    def warm(tableau, block, target):
        resolve(tableau, block, target)
        cost = tableau[2]
        margins.append(Fraction(-cost[0][-1], cost[1]))  # the cost row ends in -c.x

    monkeypatch.setattr(lp_module, "exact_linprog", cold)
    monkeypatch.setattr(lp_module, "_resolve", warm)
    return margins


STACK_PAIRS = ["polygon:3", "polygon:4", "polygon:5", "polygon:6", "polygon:8", "simplex:2"]


@pytest.mark.parametrize("name", STACK_PAIRS)
def test_a_hull_stack_keeps_every_margin_and_verdict(name, monkeypatch):
    # forward and reversed: exact margins Fraction-equal to a cold solve of
    # each LP, float margins within 1e-9 of one call each, same verdicts
    tol = lp_module.FEASIBILITY_SLACK
    pts, targets = _stack_cases(name)
    npts, dim = pts.shape
    eye = np.eye(dim)
    cold = [exact_linprog(np.r_[np.zeros(npts), np.ones(2 * dim)],
                          a_eq=np.hstack([pts.T, eye, -eye]), b_eq=t)[2] for t in targets]
    singles = [hull_membership(pts, t, tol) for t in targets]
    members = [res.member for res in singles]
    assert any(members) and not all(members)
    margins = _recorded_exact_margins(monkeypatch)
    for step in (1, -1):
        margins.clear()
        exact = lp_module.hull_memberships(pts, targets[::step], tol, exact=True)
        assert margins == cold[::step]
        assert [res.margin for res in exact] == [float(m) for m in cold[::step]]
        stack = lp_module.hull_memberships(pts, targets[::step], tol)
        for res, single in zip(stack, singles[::step]):
            assert abs(res.margin - single.margin) <= 1e-9
            assert res.member == single.member
        for target, res in zip(np.vstack([targets[::step]] * 2), exact + stack):
            assert res.member == (res.weights is not None)
            if res.member:  # another optimal decomposition may come back
                assert res.weights.min() >= -1e-12
                assert np.abs(res.weights @ pts - target).sum() <= tol


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", STACK_PAIRS)
def test_a_stack_of_one_is_one_hull_lp_bit_for_bit(name, exact):
    tol = lp_module.FEASIBILITY_SLACK
    pts, targets = _stack_cases(name)
    for target in targets:
        [res] = lp_module.hull_memberships(pts, [target], tol, exact)
        ref = _one_hull_at_a_time(pts, target, tol, exact)
        assert (res.member, res.margin) == (ref.member, ref.margin)
        assert (res.weights is None and ref.weights is None
                or res.weights.tobytes() == ref.weights.tobytes())


def _recorded_highs_lps(run):
    """The arguments of every `_solve_highs` call that `run()` makes."""
    calls = []
    solve = lp_module._solve_highs

    def recording(*args):
        calls.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_solve_highs", recording)
        run()
    return calls


def test_direct_highs_sets_the_options_linprog_sets():
    from scipy.optimize._highspy import _core as highs

    options = highs_module._HIGHS_OPTIONS
    dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    assert options["simplex_strategy"] == dual
    assert options["highs_debug_level"] == highs.HighsDebugLevel.kHighsDebugLevelNone


def _assert_matches_linprog(b_eqs, a_eq, c, lb, ub):
    """Each row of the stack `b_eqs` is the LP's equality right-hand side.
    A one-row stack is solved cold: linprog's x, objective and duals bit
    for bit, both with presolve off.  A longer one is solved warm, and may
    end at another optimal vertex: each row's optimum is linprog's within
    the CHSH tie width 1e-9, at a point that satisfies the LP within the
    check tolerance."""
    from scipy.optimize import linprog as scipy_linprog

    results = lp_module._solve_highs(b_eqs, a_eq, c, lb, ub)
    assert len(results) == len(b_eqs)
    tol = highs_module._HIGHS_CHECK_TOL
    lb, ub = np.broadcast_arrays(lb, ub, c)[:2]  # the bounds may be scalars
    for b_eq, (status, x, fun, duals) in zip(b_eqs, results):
        ref = scipy_linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=np.column_stack([lb, ub]),
                            method="highs", options={"presolve": False})
        assert ref.success and status == "optimal"
        if len(b_eqs) == 1:
            assert x.tobytes() == ref.x.tobytes()
            assert fun == ref.fun
            assert duals.tobytes() == ref.eqlin.marginals.tobytes()
        else:
            assert abs(fun - ref.fun) <= 1e-9
            assert abs(np.dot(c, x) - fun) <= 1e-9
            assert np.all((x >= lb - tol) & (x <= ub + tol))
            assert np.abs(a_eq @ x - b_eq).max() <= tol


# the pairs the scan is checked on against a full scan, and the chsh-float
# benchmark pairs
CHSH_PAIRS = sorted({(a, b) for a, b, _ in REFERENCE_CASES}
                    | {("polygon:5", "polygon:5"), ("polygon:8", "polygon:8")})


@pytest.mark.parametrize("name_a, name_b", CHSH_PAIRS)
def test_direct_highs_matches_linprog_on_chsh_class_lps(name_a, name_b):
    # every class-representative LP of the scan, one stack per pass, solved
    # by both routes
    calls = _recorded_highs_lps(
        lambda: composites.maximize_chsh(get_theory(name_a), get_theory(name_b))
    )
    assert calls
    for args in calls:
        _assert_matches_linprog(*args)


def test_direct_highs_matches_linprog_on_column_generation_masters():
    calls = _recorded_highs_lps(
        lambda: [hull_membership(pts, target) for pts, target in _column_generation_cases()]
    )
    assert len(calls) > len(list(_column_generation_cases()))  # some hulls take rounds
    for args in calls:
        _assert_matches_linprog(*args)


def _recorded_class_lps(name_a, name_b):
    """Every `linear_programs` stack a float scan of the pair solves: its
    arguments and its solutions."""
    stacks = []
    solve = lp_module.linear_programs

    def recording(*args, **kwargs):
        stacks.append((args, kwargs, solve(*args, **kwargs)))
        return stacks[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "linear_programs", recording)
        composites.maximize_chsh(get_theory(name_a), get_theory(name_b))
    return stacks


@pytest.mark.parametrize("name_a, name_b", CHSH_PAIRS)
def test_dual_stacks_reach_the_primal_optimum_of_every_class_lp(name_a, name_b):
    # each class LP's value is linprog's on the primal within 1e-9, and its
    # witness, minus the dual's row duals, meets the primal within the check
    # tolerance at that value
    from scipy.optimize import linprog as scipy_linprog

    tol = highs_module._HIGHS_CHECK_TOL
    stacks = _recorded_class_lps(name_a, name_b)
    assert sum(len(objectives) for (objectives, *_), _, _ in stacks) > 0
    for (objectives, a_eq, b_eq, a_ub, b_ub), kwargs, solutions in stacks:
        assert kwargs == {"maximize": True}
        for c, sol in zip(objectives, solutions):
            ref = scipy_linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                                bounds=(None, None), method="highs")
            assert ref.status == 0 and sol.status == "optimal"
            assert abs(sol.value + ref.fun) <= 1e-9
            assert abs(np.dot(c, sol.x) - sol.value) <= 1e-9
            assert (a_ub @ sol.x - b_ub).max() <= tol
            assert np.abs(a_eq @ sol.x - b_eq).max() <= tol


# (a_ub, b_ub, objective to maximize, linprog's status code) over free x
_NON_OPTIMAL_CASES = {
    # x_0 >= 0 and max x_0: the dual is infeasible and the primal feasible
    "unbounded": (np.array([[-1.0, 0.0]]), np.array([0.0]), np.array([1.0, 0.0]), 3),
    # x_0 >= 1, x_0 <= 0 and max x_0: the dual is unbounded
    "infeasible, dual unbounded": (
        np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 2),
    # the same rows, max x_1: x_1 is in no row, so the dual is infeasible too
    "both infeasible": (
        np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([-1.0, 0.0]), np.array([0.0, 1.0]), 2),
}


@pytest.mark.parametrize("case", sorted(_NON_OPTIMAL_CASES))
def test_dual_statuses_map_to_linprogs_on_the_primal(case):
    from scipy.optimize import linprog as scipy_linprog

    a_ub, b_ub, c, code = _NON_OPTIMAL_CASES[case]
    ref = scipy_linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    assert ref.status == code
    status = {2: "infeasible", 3: "unbounded"}[code]
    assert linear_program(c, a_ub=a_ub, b_ub=b_ub, maximize=True) == lp_module.LpSolution(status)
    # warm, in a stack after an optimal row where there is one: the dual at
    # c = 0 decides between unbounded and infeasible once per stack
    bounded = np.array([-1.0, 0.0])
    stacked = linear_programs(np.array([bounded, c, c]), None, None, a_ub, b_ub, maximize=True)
    assert [sol.status for sol in stacked[1:]] == [status, status]
    assert stacked[0].status == ("optimal" if code == 3 else "infeasible")


@pytest.mark.parametrize("how", ["row", "objective"])
def test_a_witness_that_misses_the_primal_raises(monkeypatch, how):
    # the dual point passes its own check; the x it hands back then misses a
    # primal row, or the value misses c.x, by more than the check tolerance
    solve = lp_module._solve_highs

    def off(b_eqs, *args):
        results = solve(b_eqs, *args)
        if len(b_eqs[0]) != 2:  # only the dual of the LP below
            return results
        # x moves along (1, -1), at right angles to c: c.x stays at the value
        shift = np.array([1e-3, -1e-3]) if how == "row" else 0.0
        return [(status, y, fun + (1e-3 if how == "objective" else 0.0), duals - shift)
                for status, y, fun, duals in results]

    monkeypatch.setattr(lp_module, "_solve_highs", off)
    with pytest.raises(RuntimeError, match="violates"):
        linear_program(np.array([1.0, 1.0]), a_ub=np.eye(2), b_ub=np.ones(2), maximize=True)


def test_no_stack_presolves_and_warm_stacks_run_the_primal_simplex():
    from scipy.optimize._highspy import _core as highs

    warm = highs_module._WARM_OPTIONS
    primal = highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal
    assert highs_module._HIGHS_OPTIONS["presolve"] == warm["presolve"] == "off"
    assert warm["simplex_strategy"] == primal
    assert {**warm, "simplex_strategy": 1} == highs_module._HIGHS_OPTIONS


def test_highs_infinity_is_inf():
    # `_solve_highs` passes infinite bounds as they are
    assert highs_module.highs.kHighsInf == np.inf

def test_direct_highs_reports_infeasible_and_unbounded_as_linprog_does():
    from scipy.optimize import linprog as scipy_linprog

    # max x: x >= 1 and x <= 0 is infeasible; x >= 0 alone is unbounded
    cases = [
        (np.array([[-1.0], [1.0]]), np.array([-1.0, 0.0]), "infeasible", 2),
        (np.array([[-1.0]]), np.array([0.0]), "unbounded", 3),
    ]
    for a_ub, b_ub, status, code in cases:
        sol = linear_program(np.array([1.0]), a_ub=a_ub, b_ub=b_ub, maximize=True)
        assert sol == lp_module.LpSolution(status, None, None)
        ref = scipy_linprog([-1.0], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)], method="highs")
        assert ref.status == code


def test_direct_highs_rejects_malformed_lps():
    with pytest.raises(ValueError):
        linear_program(np.array([np.nan]), a_ub=np.array([[1.0]]), b_ub=np.array([1.0]))
    with pytest.raises(ValueError):
        linear_program(np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([1.0, 2.0]))


def test_a_stacked_solve_reports_unbounded_for_that_row_only():
    # maximize over x <= (1, 1): (1, 1) reaches 2, (-1, 0) is unbounded
    # below in x_0, (0, 1) reaches 1, warm from the unbounded row's basis
    a_ub, b_ub = np.eye(2), np.ones(2)
    solutions = linear_programs(
        np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, 1.0]]), None, None, a_ub, b_ub, maximize=True
    )
    assert [sol.status for sol in solutions] == ["optimal", "unbounded", "optimal"]
    assert solutions[1] == lp_module.LpSolution("unbounded", None, None)
    assert [solutions[0].value, solutions[2].value] == [2.0, 1.0]
    assert solutions[0].x.tolist() == [1.0, 1.0] and solutions[2].x[1] == 1.0


def test_a_stacked_solve_rejects_malformed_stacks():
    a_ub, b_ub = np.eye(2), np.ones(2)
    with pytest.raises(ValueError):
        linear_programs(np.array([[1.0, 1.0], [np.nan, 0.0]]), None, None, a_ub, b_ub)
    with pytest.raises(ValueError):
        linear_programs(np.array([1.0, 1.0]), None, None, a_ub, b_ub)  # not a stack
    with pytest.raises(ValueError):
        linear_programs(np.ones((2, 2)), None, None, a_ub, np.ones(3))
    assert linear_programs(np.empty((0, 2)), None, None, a_ub, b_ub) == []  # empty, not malformed


_SHARED_SCIPY_MODULES = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.optimize, scipy.spatial
from gptkit import _highs, composites, lp
import numpy as np
import scipy.optimize, scipy.spatial
from scipy.optimize._highspy import _core
assert _highs.highs is _core is sys.modules["scipy.optimize._highspy._core"]
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=(0, None),
                             method="highs")
assert res.status == 0 and res.fun == 1.0
square = np.array([[-1.0, 0, -1], [1, 0, -1], [0, -1, -1], [0, 1, -1]])
assert len(scipy.spatial.HalfspaceIntersection(square, np.zeros(2)).intersections) == 4
"""


@pytest.mark.parametrize("order", ["scipy-first", "gptkit-first"])
def test_gptkit_and_scipy_share_the_compiled_modules(order):
    # one module object per extension, whichever of scipy or gptkit loads it
    src = str(Path(lp_module.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", _SHARED_SCIPY_MODULES, order],
                   env={**os.environ, "PYTHONPATH": src}, check=True)


def test_a_module_scipy_does_not_ship_raises_import_error():
    with pytest.raises(ImportError, match="scipy.optimize._no_such_module"):
        highs_module._scipy_extension("scipy.optimize._no_such_module")
    assert "scipy.optimize._no_such_module" not in sys.modules
