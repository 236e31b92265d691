"""Linear-programming backends.

Each problem builds one LP and hands it to one of two solvers:

* floating point: HiGHS's simplex (Huangfu & Hall, Math. Prog. Comp. 10,
  119 (2018)), dual when cold, primal in warm stacks (`_WARM_OPTIONS`), via
  the ``scipy.optimize._highspy._core`` bindings that ``linprog`` calls,
  for interactive-scale runs.  An optimization LP goes to HiGHS as its LP
  dual (`linear_programs`), so LPs that differ only in their objective
  differ only in row bounds: a stack on one model, each solve warm from
  the last optimal basis, and
* exact: a two-phase primal simplex with Bland's rule, used for acceptance
  runs.  Each tableau row, the cost rows included, is kept as Python ints
  over one positive denominator.  It is built straight from the entries'
  exact ``as_integer_ratio()`` (ints, floats, Fractions) over their least
  common denominator: the integers ``Fraction(v)`` gives, with no Fraction
  object per entry.  A pivot is integer multiply-subtract plus one gcd per
  row (Edmonds, J. Res. NBS 71B, 1967); Bland's decisions need only signs
  and cross-multiplied ratios, so no pivoting error enters and the solver
  returns the exact optimum of the LP built from the given floats.  Phase 1
  starts from the LP's own unit columns: a column that reads +e_i after the
  rhs sign flip (the slack of a <= row with b >= 0, a residual of a hull
  row) is row i's first basic column, and artificials go only on the rows
  left over.  Bland's rule ends under any fixed column order (Bland, Math.
  Oper. Res. 2, 103 (1977)), so a caller may choose the order: the exact
  hull LP lists its points by their pairing with the target
  (`hull_membership`).

The float path of `hull_membership` solves its LP by delayed column
generation (Gilbert, SIAM J. Control 4, 61 (1966)).  A restricted master
holds the 2*dim given points with the largest pairing with the target, plus
the 2*dim residual columns, so it is always feasible.  After each HiGHS
solve the equality duals y price every point left out by its reduced cost
-p.y, and the 2*dim most negative ones below -FEASIBILITY_SLACK join the
master.  The loop stops when no point prices below that, so the master
optimum is the optimum over every point.  Points are only ever added, so it
ends after at most npts - 2*dim + 1 solves, and after ceil(npts / 2*dim)
when every round adds a full 2*dim.  An LP with npts <= 2*dim fits in the
first master and is solved once as given.  `product_hull_memberships` runs
the same loop over every product xa (x) xb of two point lists, as
separability needs: a product's pairing with y is xa . Y . xb, Y being y
as a matrix, so a round prices all of them from the two factors, and only
the products that join the master are ever built.

The hull LPs of several targets over the same points differ only in the
right-hand side, and `hull_memberships` solves them as one stack: the
float path shares one master, solving each round's pending targets as one
`_solve_highs` stack, and the exact path re-solves each target from the
last optimal tableau by dual simplex pivots (`_resolve`).

HiGHS itself is reached through `_highs`: its bindings, its options and
the one model-building solver `_solve_highs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._highs import _check, _solve_highs

FEASIBILITY_SLACK = 1e-9


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None


@dataclass(frozen=True)
class HullMembership:
    member: bool
    weights: np.ndarray | None
    margin: float  # l1 residual of the best decomposition; member iff margin <= tol


def _ratios(values) -> list[tuple[int, int]]:
    """Fraction(v)'s numerator and denominator for each entry, without the Fraction."""
    try:
        return [v.as_integer_ratio() for v in values]
    except AttributeError:  # numpy's integer scalars have no as_integer_ratio
        return [Fraction(v).as_integer_ratio() for v in values]


def _int_row(ratios) -> tuple[list[int], int]:
    """The numerators of `ratios` over their least (positive) common denominator."""
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _lowest(row, den) -> tuple[list[int], int]:
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _eliminate(row, den, prow, pden, col) -> tuple[list[int], int]:
    """row - row[col] * prow, where prow reads 1 in column col (prow[col] == pden)."""
    f = row[col]
    return _lowest([v * pden - f * w for v, w in zip(row, prow)], den * pden)


def _pivot(rows, dens, cost, basis, r, c) -> None:
    """Pivot on (r, c); `cost` is the [ints, den] pair of the cost row, updated in place."""
    p = rows[r][c]
    prow, pden = _lowest(rows[r] if p > 0 else [-v for v in rows[r]], abs(p))
    rows[r], dens[r] = prow, pden
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            rows[i], dens[i] = _eliminate(row, dens[i], prow, pden, c)
    if cost[0][c] != 0:
        cost[:] = _eliminate(*cost, prow, pden, c)
    basis[r] = c


def _iterate(rows, dens, cost, basis) -> str:
    ncols = len(cost[0]) - 1
    while True:
        # denominators are positive, so a numerator's sign is its value's sign
        entering = next((j for j in range(ncols) if cost[0][j] < 0), -1)  # Bland: smallest index
        if entering < 0:
            return "optimal"
        leaving, best_a, best_b = -1, 1, 0
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                # the ratio is row[-1] / a, as the row's denominator cancels;
                # compare it with the best so far by cross-multiplying
                lhs, rhs = row[-1] * best_a, best_b * a
                if leaving < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_a, best_b = i, a, row[-1]
        if leaving < 0:
            return "unbounded"
        _pivot(rows, dens, cost, basis, leaving, entering)


def exact_linprog(
    c: Sequence, a_eq=None, b_eq=None, a_le=None, b_le=None, nonneg: Sequence[bool] | None = None
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Minimize c.x subject to a_eq x = b_eq, a_le x <= b_le.

    ``nonneg[j]`` marks x_j >= 0; free variables are split internally.  All
    arithmetic is exact.  Returns (status, x, objective value); an optimal
    one also carries its final tableau (`_Optimum`), from which `_resolve`
    re-solves the LP at another b_eq.
    """
    # c first, then each block's rows before its rhs: the first NaN (ValueError)
    # or inf (OverflowError) in that order raises
    c = _ratios(np.asarray(c, dtype=object).tolist())
    eq, le = (
        [] if a is None else list(zip(
            [_ratios(row) for row in np.atleast_2d(np.asarray(a, dtype=object)).tolist()],
            _ratios(np.atleast_1d(np.asarray(b, dtype=object)).tolist())))
        for a, b in ((a_eq, b_eq), (a_le, b_le))
    )
    n_eq, n_le = len(eq), len(le)
    m, nvar = n_eq + n_le, len(c)
    if nonneg is None:
        nonneg = [True] * nvar

    # column layout: split/plain structural vars, then slacks, then artificials;
    # col_of holds the (var index, sign) of each structural column
    col_of = [(j, sgn) for j in range(nvar) for sgn in ((1,) if nonneg[j] else (1, -1))]
    n_struct = len(col_of)
    art0 = n_struct + n_le
    ints, den = _int_row(c)
    cost_2 = [[sgn * ints[j] for j, sgn in col_of] + [0] * (n_le + 1), den]

    rows, dens = [], []
    for i, (row, b) in enumerate(eq + le):
        ints, den = _int_row(row + [b])
        row = [sgn * ints[j] for j, sgn in col_of] + [0] * n_le + ints[-1:]
        if i >= n_eq:
            row[n_struct - n_eq + i] = den
        if row[-1] < 0:
            row = [-v for v in row]
        rows.append(row)
        dens.append(den)

    # start basis: a column that reads +e_i is row i's basic column (the slack
    # of a <= row with b >= 0, a residual of a hull row); artificials go only
    # on the rows left over
    basis = [-1] * m
    for j, column in enumerate(list(zip(*rows))[:art0]):
        nonzero = [i for i, v in enumerate(column) if v != 0]
        if len(nonzero) == 1:
            i = nonzero[0]
            if column[i] == dens[i] and basis[i] < 0:
                basis[i] = j
    left = [i for i in range(m) if basis[i] < 0]
    for k, i in enumerate(left):
        basis[i] = art0 + k
    for i, row in enumerate(rows):
        art = [0] * len(left)
        if basis[i] >= art0:
            art[basis[i] - art0] = dens[i]
        rows[i] = row[:-1] + art + row[-1:]

    # phase 1: minimize the artificial mass
    cost = [[0] * art0 + [1] * len(left) + [0], 1]
    for i in left:
        cost[:] = _eliminate(*cost, rows[i], dens[i], basis[i])
    _iterate(rows, dens, cost, basis)  # always optimal: the mass is bounded below by 0
    if cost[0][-1] < 0:  # the cost row's last entry is minus the artificial mass
        return "infeasible", None, None

    # drive leftover zero-value artificials out of the basis
    for i in range(m - 1, -1, -1):
        if basis[i] >= art0:
            piv_col = next((j for j in range(art0) if rows[i][j] != 0), -1)
            if piv_col >= 0:
                _pivot(rows, dens, cost, basis, i, piv_col)
            else:
                del rows[i], dens[i], basis[i]

    # phase 2 on the original objective, artificial columns frozen out
    rows = [row[:art0] + row[-1:] for row in rows]
    cost = cost_2
    for i, b in enumerate(basis):
        if cost[0][b] != 0:
            cost[:] = _eliminate(*cost, rows[i], dens[i], b)
    if _iterate(rows, dens, cost, basis) == "unbounded":
        return "unbounded", None, None

    x = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < n_struct:
            j, sgn = col_of[b]
            x[j] += sgn * Fraction(rows[i][-1], dens[i])
    solution = _Optimum(("optimal", x, Fraction(-cost[0][-1], cost[1])))  # cost ends in -c.x
    solution.tableau = rows, dens, cost, basis
    return solution


class _Optimum(tuple):
    """`exact_linprog`'s ("optimal", x, value), with its final tableau
    (rows, dens, cost, basis) in `tableau`, for `_resolve`."""


def _resolve(tableau, block, target) -> None:
    """Move the optimal `tableau` to the optimum of its LP at the equality
    right-hand side `target`.

    ``block[k]`` is the column that read +e_k in the rows as given, at cost
    1: a residual s+ of the hull LP.  The tableau holds B^-1 D A, D the rows
    `exact_linprog` negated, so that block reads B^-1 D, and the new rhs is
    the block times `target`.  Its reduced costs are 1 - y, y = c_B B^-1 D,
    so the new cost entry -c_B B^-1 D target is (reduced cost - 1).target.
    Reduced costs do not depend on the rhs, so the basis stays dual
    feasible, and dual simplex pivots restore primal feasibility under the
    smallest-subscript rule: the row of the lowest-numbered basic column
    below 0 leaves, and the column of least ratio cost_j / -row_j enters, the
    lowest j on ties (Bland's rule on the dual, which cannot cycle).
    """
    rows, dens, cost, basis = tableau
    nums, den = _int_row(_ratios(target))
    for i, row in enumerate(rows):
        rhs = sum(row[j] * t for j, t in zip(block, nums))
        rows[i], dens[i] = _lowest([v * den for v in row[:-1]] + [rhs], dens[i] * den)
    rhs = sum((cost[0][j] - cost[1]) * t for j, t in zip(block, nums))
    cost[:] = _lowest([v * den for v in cost[0][:-1]] + [rhs], cost[1] * den)
    while below := [i for i, row in enumerate(rows) if row[-1] < 0]:
        r = min(below, key=basis.__getitem__)
        _, c = min((Fraction(cost[0][j], -a), j) for j, a in enumerate(rows[r][:-1]) if a < 0)
        _pivot(rows, dens, cost, basis, r, c)


def hull_membership(points: np.ndarray, target: np.ndarray, tol: float = FEASIBILITY_SLACK,
                    exact: bool = False) -> HullMembership:
    """Is `target` a convex combination of the rows of `points`?

    One LP on either backend: minimize the l1 residual sum(s+ + s-) subject
    to  points^T w + s+ - s- = target  over w, s+, s- >= 0.  The optimum is
    the margin, and `target` is a member when margin <= tol.  The exact path
    computes that optimum exactly from the given floats.  Its point columns
    go in descending order of p.target, the order of the float path's first
    master, ties by index: a point that pairs well with the target is likely
    in the support, and Bland's rule, which enters the lowest column first,
    then takes fewer pivots.  The optimum and margin do not depend on the
    order; where the optimal decomposition is not unique the weights may.
    Weights come back in the caller's point order.  The normalization
    constraint rides along in coordinate 0 whenever the points carry a
    leading 1.

    The float path reaches the same optimum by column generation: a
    restricted master over the 2*dim points with the largest p.target, then
    rounds that price every point left out by -p.y against the master's
    equality duals y and add the 2*dim most negative below
    -FEASIBILITY_SLACK, until none is left.  That takes at most
    npts - 2*dim + 1 solves.  With npts <= 2*dim the first master holds
    every point and is solved once.  Member weights have length npts, zero
    outside the final master.  This is `hull_memberships` on a stack of one.
    """
    return hull_memberships(points, [target], tol, exact)[0]


def hull_memberships(points, targets, tol=FEASIBILITY_SLACK, exact=False) -> list[HullMembership]:
    """`hull_membership` of each row of the 2-D `targets` in the hull of
    `points`.  The LPs share their rows and costs and differ only in the
    right-hand side, so the stack is solved warm: margins and verdicts are
    the one-at-a-time ones (exact margins `Fraction`-equal, float ones
    within HiGHS's tolerances), and weights may come from another optimal
    decomposition.  A stack of one is `hull_membership`, bit for bit.

    On the exact path every LP lists the points in the first target's
    order.  The first is solved by `exact_linprog`, and each later one from
    the last optimal tableau by `_resolve`: a new rhs column and a few dual
    simplex pivots when the targets are alike (box world's vertices and
    mixtures take about 3), but about as many as a cold solve, on larger
    integers, when they are far apart.  The float path is
    `_hull_by_column_generation`.
    """
    pts, tgts = np.asarray(points, dtype=float), np.asarray(targets, dtype=float)
    if not exact or not len(tgts):  # an empty stack has no first target to order by
        return _hull_by_column_generation(
            lambda y: np.einsum("ij,j->i", pts, y), pts.__getitem__, tgts, tol)
    npts = len(pts)
    # the columns in the first master's order, largest p.target first; a
    # NaN or -inf pairing keeps the given order, in which a NaN or inf raises
    order = _largest(np.einsum("ij,j->i", pts, tgts[0]), npts, -np.inf)
    if len(order) < npts:
        order = np.arange(npts)
    a_eq, c = _hull_lp(pts[order])
    results = []
    for tgt in tgts:
        if results:
            _resolve(tableau, range(npts, npts + len(tgt)), tgt)
        else:  # feasible, bounded below by 0
            tableau = exact_linprog(c, a_eq=a_eq, b_eq=tgt).tableau
        rows, dens, cost, basis = tableau
        x = np.zeros(len(c))
        for i, b in enumerate(basis):
            x[b] = Fraction(rows[i][-1], dens[i])  # rounded by float()
        weights = np.zeros(npts)
        weights[order] = x[:npts]
        margin = float(Fraction(-cost[0][-1], cost[1]))  # the cost row ends in -c.x
        results.append(HullMembership(margin <= tol, weights if margin <= tol else None, margin))
    return results


def product_hull_memberships(xa, xb, targets, tol=FEASIBILITY_SLACK) -> list[HullMembership]:
    """`hull_memberships`' float path over every product xa[a] (x) xb[b],
    flattened A-major and numbered a * len(xb) + b, without storing those
    len(xa) * len(xb) rows: column generation prices them from the two
    factors (`_product_pairing`) and builds only the ones that enter the
    master.
    """
    xa, xb, tgts = (np.asarray(v, float) for v in (xa, xb, targets))
    return _hull_by_column_generation(
        lambda y: _product_pairing(xa, xb, y),
        lambda idx: np.einsum("ki,kj->kij", xa[idx // len(xb)], xb[idx % len(xb)]).reshape(
            len(idx), -1), tgts, tol)


def _product_pairing(xa, xb, y):
    """Every product xa[a] (x) xb[b] paired with y, a-major: xa[a] . Y . xb[b],
    Y being y as a len(xa[0]) x len(xb[0]) matrix; len(xa) * len(xb) floats."""
    return np.einsum("aj,bj->ab", np.einsum("ai,ij->aj", xa, y.reshape(len(xa[0]), -1)), xb).ravel()


def _hull_by_column_generation(pairing, columns, targets, tol) -> list[HullMembership]:
    """`hull_memberships`' float path over a list of points given by
    pairing(y), every point's p.y, and columns(idx), the points idx as rows.
    Both callers pair by einsum, not @: a matrix product would map BLAS code
    no other LP uses.

    The targets share one master, first the 2*dim points with the largest
    pairing with the first target.  A round solves every target still
    pending as one `_solve_highs` stack on the master, and prices each
    against its duals.  A target that prices no point below
    -FEASIBILITY_SLACK is done; each other one adds its entering points,
    and the next round solves the pending targets on the grown master.
    Columns stay in the master for later targets.
    """
    if not len(targets):
        return []
    width, pricing = 2 * targets.shape[1], pairing(targets[0])
    npts = len(pricing)
    master = np.arange(npts) if npts <= width else _largest(pricing, width, -np.inf)
    results, pending = [None] * len(targets), range(len(targets))
    while len(pending):
        a_eq, c = _hull_lp(columns(master))
        solved = _solve_highs(targets[pending], a_eq, c, 0.0, np.inf)
        listed, grown, waiting = np.zeros(npts, dtype=bool), [master], []
        listed[master] = True
        for k, (status, x, fun, duals) in zip(pending, solved):
            if status != "optimal":  # pragma: no cover - the relaxation is always feasible
                raise RuntimeError(f"membership LP is {status}")
            pricing = pairing(duals)  # minus the reduced costs
            pricing[master] = -np.inf
            entering = _largest(pricing, width, FEASIBILITY_SLACK)
            if entering.size:  # a point that two targets pick enters once
                grown.append(entering[~listed[entering]])
                listed[entering] = True
                waiting.append(k)
            else:
                weights = np.zeros(npts)
                weights[master] = x[: len(master)]
                results[k] = HullMembership(fun <= tol, weights if fun <= tol else None, fun)
        master, pending = np.concatenate(grown), waiting
    return results


def _hull_lp(columns):
    """Rows and costs of the l1 hull LP over the rows of `columns`: minimize
    sum(s+ + s-) subject to columns^T w + s+ - s- = target, all >= 0."""
    eye = np.eye(columns.shape[1])
    return np.hstack([columns.T, eye, -eye]), np.repeat([0.0, 1.0], [len(columns), 2 * len(eye)])


def _largest(values, count, above) -> np.ndarray:
    """Indices of the `count` largest entries above `above`, largest first,
    the lower index first on ties; the picked entries of `values` are
    overwritten.  Repeated argmax, not a sort: numpy's sort kernels are about
    0.2 MB of resident code that no other LP path maps."""
    picked = []
    for _ in range(count):
        i = int(np.argmax(values))
        if not values[i] > above:
            break
        picked.append(i)
        values[i] = -np.inf
    return np.array(picked, dtype=int)


def linear_program(c: np.ndarray, a_eq: np.ndarray | None = None, b_eq: np.ndarray | None = None,
                   a_ub: np.ndarray | None = None, b_ub: np.ndarray | None = None,
                   maximize: bool = False, exact: bool = False) -> LpSolution:
    """Solve an LP over free variables; thin switch between both backends.

    The float path is `linear_programs` on a stack of one row, solved cold.
    """
    if exact:
        # negate the Fractions themselves: a float sign would round them
        cf = [-Fraction(v) if maximize else Fraction(v) for v in np.asarray(c).tolist()]
        status, x, value = exact_linprog(cf, a_eq=a_eq, b_eq=b_eq, a_le=a_ub, b_le=b_ub,
                                         nonneg=[False] * len(cf))
        if status != "optimal":
            return LpSolution(status)
        return LpSolution(status, np.array(x, dtype=float), float(-value if maximize else value))
    return linear_programs([c], a_eq, b_eq, a_ub, b_ub, maximize)[0]


def linear_programs(objectives, a_eq, b_eq, a_ub, b_ub, maximize=False) -> list[LpSolution]:
    """The float path of `linear_program` for each row of the 2-D
    `objectives`, all over the same constraint rows; one solution per row.

    HiGHS solves each LP's dual, one variable per row (mu >= 0 for a_ub,
    lambda free for a_eq): min b_ub.mu - b_eq.lambda subject to
    a_eq^T lambda - a_ub^T mu = c.  As c is its right-hand side, the rows
    are one `_solve_highs` stack that changes only row bounds, each solve
    warm on a basis of n rows, n the number of variables.  The optimum is
    minus the dual's and x minus the dual's row duals; x must meet the
    primal's rows, and c.x the optimum, within the check tolerance
    (`_check`).  At a degenerate optimum a warm x may be another vertex
    than a cold one's.  A stack of one row is solved cold: it is
    `linear_program`'s float path.  Statuses are the primal's: an unbounded
    dual means infeasible, an infeasible one unbounded if the primal is
    feasible, which one dual solve at c = 0 per stack decides (that dual is
    bounded exactly then, by Farkas).
    """
    sign = -1.0 if maximize else 1.0
    costs = sign * np.asarray(objectives, dtype=float)
    n = costs.shape[-1]
    a_ub, b_ub = _rows(a_ub, b_ub, n)
    a_eq, b_eq = _rows(a_eq, b_eq, n)
    a, rhs = np.vstack([a_ub, a_eq]), np.concatenate([b_ub, b_eq])
    s = np.repeat([-1.0, 1.0], [len(b_ub), len(b_eq)])
    dual = (a.T * s, -s * rhs, np.where(s < 0, 0.0, -np.inf), np.inf)
    solutions, feasible = [], None
    for c, (status, _, fun, y) in zip(costs, _solve_highs(costs, *dual)):
        if status == "infeasible" and feasible is None:
            feasible = _solve_highs([np.zeros(n)], *dual)[0][0] == "optimal"
        if status == "optimal":
            _check(-y, -fun, c, a, rhs, len(b_ub), -np.inf, np.inf)
            solutions.append(LpSolution(status, -y, -sign * fun))
        else:
            status = "unbounded" if status == "infeasible" and feasible else "infeasible"
            solutions.append(LpSolution(status))
    return solutions


def _rows(a, b, n):
    """`a` as len(b) rows of n entries (none if `a` is None) and `b` flat."""
    b = np.asarray([] if a is None else b, dtype=float).reshape(-1)
    return np.asarray([] if a is None else a, dtype=float).reshape(len(b), n), b
