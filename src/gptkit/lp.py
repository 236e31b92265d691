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
first master and is solved once as given.  `product_hull_membership` runs
the same loop over every product xa (x) xb of two point lists, as
separability needs: a product's pairing with y is xa . Y . xb, Y being y
as a matrix, so a round prices all of them from the two factors, and only
the products that join the master are ever built.

The one compiled scipy module gptkit calls, the HiGHS bindings, is loaded
here by `_scipy_extension` from scipy's install directory, which the import
system finds without running ``scipy``'s ``__init__``.  A plain import would
first run ``scipy``'s and then ``scipy.optimize``'s ``__init__``, which load
about 500 modules (``scipy.linalg`` and ``scipy.sparse`` among them) and
take most of a second; gptkit calls none of them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


def _scipy_extension(name: str):
    """The compiled scipy module `name`, loaded from its package's directory;
    the ``__init__`` of ``scipy`` and of the packages below it never runs.

    It is registered in ``sys.modules`` under its full name, so a later
    ``import scipy.optimize`` finds the same module object, and a module
    loaded earlier is returned as is.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    package = name.rpartition(".")[0].split(".")
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy_spec.submodule_search_locations[0], *package[1:])]
    )
    if spec is None:
        raise ImportError(f"scipy has no module {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


highs = _scipy_extension("scipy.optimize._highspy._core")

FEASIBILITY_SLACK = 1e-9

# The options ``linprog(method="highs")`` sets, but presolve off: on these
# small LPs it saves little, and its code is about 0.35 MB of resident pages.
# The enum values are written out: reading the enums at import maps 64 KB
# more of the bindings' code, and a test pins them.
_HIGHS_OPTIONS = {
    "presolve": "off",
    "simplex_strategy": 1,  # SimplexStrategy.kSimplexStrategyDual
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": 0,  # HighsDebugLevel.kHighsDebugLevelNone
}
# a stack of more than one solve (`_solve_highs`): 4 is kSimplexStrategyPrimal
_WARM_OPTIONS = {**_HIGHS_OPTIONS, "simplex_strategy": 4}
# linprog's check of an optimal point: 10 * sqrt of its default tol 1e-9
_HIGHS_CHECK_TOL = 10 * math.sqrt(1e-9)


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
    arithmetic is exact.  Returns (status, x, objective value).
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
    return "optimal", x, Fraction(-cost[0][-1], cost[1])  # the cost row ends in -c.x


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
    outside the final master.
    """
    pts, tgt = np.asarray(points, dtype=float), np.asarray(target, dtype=float)
    if not exact:
        return _hull_by_column_generation(
            lambda y: np.einsum("ij,j->i", pts, y), pts.__getitem__, tgt, tol)
    npts = len(pts)
    # the columns in the first master's order, largest p.target first; a
    # NaN or -inf pairing keeps the given order, in which a NaN or inf raises
    order = _largest(np.einsum("ij,j->i", pts, tgt), npts, -np.inf)
    if len(order) < npts:
        order = np.arange(npts)
    a_eq, c = _hull_lp(pts[order])
    _, x, value = exact_linprog(c, a_eq=a_eq, b_eq=tgt)  # feasible, bounded below by 0
    weights = np.zeros(npts)
    weights[order] = x[:npts]  # Fractions, each rounded by float()
    margin = float(value)
    return HullMembership(margin <= tol, weights if margin <= tol else None, margin)


def product_hull_membership(xa, xb, target, tol=FEASIBILITY_SLACK) -> HullMembership:
    """`hull_membership`'s float path over every product xa[a] (x) xb[b],
    flattened A-major and numbered a * len(xb) + b, without storing those
    len(xa) * len(xb) rows: column generation prices them from the two
    factors (`_product_pairing`) and builds only the ones that enter the
    master.
    """
    xa, xb, tgt = (np.asarray(v, float) for v in (xa, xb, target))
    return _hull_by_column_generation(
        lambda y: _product_pairing(xa, xb, y),
        lambda idx: np.einsum("ki,kj->kij", xa[idx // len(xb)], xb[idx % len(xb)]).reshape(
            len(idx), -1), tgt, tol)


def _product_pairing(xa, xb, y):
    """Every product xa[a] (x) xb[b] paired with y, a-major: xa[a] . Y . xb[b],
    Y being y as a len(xa[0]) x len(xb[0]) matrix; len(xa) * len(xb) floats."""
    return np.einsum("aj,bj->ab", np.einsum("ai,ij->aj", xa, y.reshape(len(xa[0]), -1)), xb).ravel()


def _hull_by_column_generation(pairing, columns, tgt, tol) -> HullMembership:
    """`hull_membership`'s float path over a list of points given by
    pairing(y), every point's p.y, and columns(idx), the points idx as rows.
    Both callers pair by einsum, not @: a matrix product would map BLAS code
    no other LP uses."""
    width, pricing = 2 * len(tgt), pairing(tgt)
    npts = len(pricing)
    master = np.arange(npts) if npts <= width else _largest(pricing, width, -np.inf)
    while True:
        a_eq, c = _hull_lp(columns(master))
        [(status, x, fun, duals)] = _solve_highs([tgt], a_eq, c, 0.0, np.inf)
        if status != "optimal":  # pragma: no cover - the relaxation is always feasible
            raise RuntimeError(f"membership LP is {status}")
        pricing = pairing(duals)  # minus the reduced costs
        pricing[master] = -np.inf
        entering = _largest(pricing, width, FEASIBILITY_SLACK)
        if not entering.size:
            break
        master = np.concatenate([master, entering])
    weights = np.zeros(npts)
    weights[master] = x[: len(master)]
    return HullMembership(fun <= tol, weights if fun <= tol else None, fun)


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


def _check(x, fun, c, a, rhs, n_ub, lb, ub) -> None:
    """Raise unless lb <= x <= ub, a x <= rhs in the first n_ub rows and =
    in the rest, and c.x = fun, all within linprog's check tolerance."""
    slack = rhs - np.einsum("ij,j->i", a, x)
    worst = [lb - x, x - ub, -slack[:n_ub], abs(slack[n_ub:]), [abs(np.einsum("i,i", c, x) - fun)]]
    if not np.concatenate(worst).max() <= _HIGHS_CHECK_TOL:
        raise RuntimeError(f"HiGHS's optimum violates the LP by more than {_HIGHS_CHECK_TOL:.2e}")


_NOT_OPTIMAL = {"kInfeasible": "infeasible", "kModelError": "infeasible",
                "kUnbounded": "unbounded"}


def _solve_highs(b_eqs, a_eq, c, lb, ub):
    """Minimize c.x subject to a_eq x = b_eq and lb <= x <= ub, for each
    row b_eq of the 2-D stack `b_eqs`; lb and ub may be scalars.

    Builds linprog(method="highs")'s model once, on one new HiGHS object;
    arrays pass as lists, which the bindings copy about twice as fast, and
    kHighsInf is inf.  No solve presolves (`_HIGHS_OPTIONS`).  A stack of
    one row is solved cold: x, objective and duals are linprog's with
    presolve off, bit for bit.  A longer stack changes only row bounds
    (``changeRowBounds``) and re-solves warm from the last optimal basis
    with `_WARM_OPTIONS`, the primal simplex: the CHSH duals
    `linear_programs` passes have costs b = 0 but one, where the dual
    simplex stalls (`ball:2`^2: 34 941 iterations against 3 216).  A
    degenerate warm optimum may come back at another vertex.  Statuses map
    as in linprog (`_NOT_OPTIMAL`: a model error reads infeasible), any
    status other than optimal, infeasible or unbounded raises, and so does
    an optimum that fails `_check`.  Returns one (status, x, objective, row
    duals) per row, the last three None unless optimal.
    """
    b_eqs, a_eq, c = given = [np.asarray(v, dtype=float) for v in (b_eqs, a_eq, c)]
    if b_eqs.ndim != 2 or b_eqs.shape[1:] + c.shape != a_eq.shape or not all(
        np.isfinite(v).all() for v in given
    ):
        raise ValueError("malformed LP: the right-hand sides are not a stack, the shapes "
                         "do not fit, or an entry is not finite")
    if not len(b_eqs):
        return []
    cols, rows = np.nonzero(a_eq.T)  # column by column, rows ascending
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(c)
    model.num_row_ = model.a_matrix_.num_row_ = len(a_eq)
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = np.cumsum([0] + np.bincount(cols, minlength=len(c)).tolist()).tolist()
    model.a_matrix_.index_ = rows.tolist()
    model.a_matrix_.value_ = a_eq.T[cols, rows].tolist()
    model.col_cost_ = c.tolist()
    model.col_lower_ = np.broadcast_to(lb, c.shape).tolist()
    model.col_upper_ = np.broadcast_to(ub, c.shape).tolist()
    model.row_lower_ = model.row_upper_ = b_eqs[0].tolist()

    solver = highs._Highs()
    for name, value in (_HIGHS_OPTIONS if len(b_eqs) == 1 else _WARM_OPTIONS).items():
        if solver.setOptionValue(name, value) != highs.HighsStatus.kOk:  # pragma: no cover
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
    if solver.passModel(model) == highs.HighsStatus.kError:
        return [("infeasible", None, None, None)] * len(b_eqs)
    results = []
    for k, b_eq in enumerate(b_eqs):
        for i, v in enumerate(b_eq.tolist() if k else []):
            solver.changeRowBounds(i, v, v)
        solver.run()
        status = solver.getModelStatus()
        if status.name in _NOT_OPTIMAL:
            results.append((_NOT_OPTIMAL[status.name], None, None, None))
        elif status != highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"LP failed: HiGHS status {solver.modelStatusToString(status)}")
        else:
            solution = solver.getSolution()
            x = np.array(solution.col_value)
            fun = solver.getInfo().objective_function_value
            _check(x, fun, c, a_eq, b_eq, 0, lb, ub)
            results.append(("optimal", x, fun, np.array(solution.row_dual)))
    return results
