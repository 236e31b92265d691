"""Linear-programming backends.

Each problem builds one LP and hands it to one of two solvers:

* floating point: ``scipy.optimize.linprog`` (HiGHS), used for
  interactive-scale runs, and
* exact: a two-phase primal simplex over ``fractions.Fraction`` with Bland's
  rule, used for acceptance runs.  Float inputs are converted with
  ``Fraction(float)``, which is exact, so the exact solver returns the exact
  optimum of the LP built from the given floats, with no pivoting error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

FEASIBILITY_SLACK = 1e-9


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None


@dataclass(frozen=True)
class HullMembership:
    member: bool
    weights: np.ndarray | None
    margin: float  # l1 residual of the best decomposition; member iff margin <= tol


def _as_fraction_rows(a) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in np.atleast_2d(np.asarray(a, dtype=object))]


def _pivot(rows, cost, basis, r, c) -> None:
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


def _iterate(rows, cost, basis) -> str:
    ncols = len(cost) - 1
    while True:
        entering = -1
        for j in range(ncols):
            if cost[j] < 0:
                entering = j  # Bland: smallest index
                break
        if entering < 0:
            return "optimal"
        ratio = None
        leaving = -1
        for i, row in enumerate(rows):
            if row[entering] > 0:
                r = row[-1] / row[entering]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leaving]):
                    ratio = r
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(rows, cost, basis, leaving, entering)


def exact_linprog(
    c: Sequence,
    a_eq=None,
    b_eq=None,
    a_le=None,
    b_le=None,
    nonneg: Sequence[bool] | None = None,
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Minimize c.x subject to a_eq x = b_eq, a_le x <= b_le.

    ``nonneg[j]`` marks x_j >= 0; free variables are split internally.  All
    arithmetic is exact.  Returns (status, x, objective value).
    """
    c = [Fraction(v) for v in c]
    nvar = len(c)
    if nonneg is None:
        nonneg = [True] * nvar
    rows_in: list[list[Fraction]] = []
    rhs_in: list[Fraction] = []
    n_le = 0
    if a_eq is not None:
        for row, b in zip(_as_fraction_rows(a_eq), np.atleast_1d(b_eq)):
            rows_in.append(row)
            rhs_in.append(Fraction(b))
    if a_le is not None:
        for row, b in zip(_as_fraction_rows(a_le), np.atleast_1d(b_le)):
            rows_in.append(row)
            rhs_in.append(Fraction(b))
            n_le += 1
    m = len(rows_in)
    n_eq = m - n_le

    # column layout: split/plain structural vars, then slacks, then artificials
    col_of: list[tuple[int, int]] = []  # (var index, sign) per structural column
    for j in range(nvar):
        col_of.append((j, +1))
        if not nonneg[j]:
            col_of.append((j, -1))
    n_struct = len(col_of)
    n_total = n_struct + n_le + m

    rows: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(0)] * (n_total + 1)
        for k, (j, sgn) in enumerate(col_of):
            row[k] = sgn * rows_in[i][j]
        if i >= n_eq:
            row[n_struct + (i - n_eq)] = Fraction(1)
        row[-1] = rhs_in[i]
        if row[-1] < 0:
            row = [-v for v in row]
        row[n_struct + n_le + i] = Fraction(1)
        rows.append(row)
    basis = [n_struct + n_le + i for i in range(m)]

    # phase 1: minimize the artificial mass
    cost = [Fraction(0)] * (n_total + 1)
    for row in rows:
        for j in range(n_struct + n_le):
            cost[j] -= row[j]
        cost[-1] -= row[-1]
    status = _iterate(rows, cost, basis)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        return "infeasible", None, None
    if -cost[-1] > 0:
        return "infeasible", None, None

    # drive leftover zero-value artificials out of the basis
    art0 = n_struct + n_le
    for i in range(m - 1, -1, -1):
        if basis[i] >= art0:
            piv_col = next((j for j in range(art0) if rows[i][j] != 0), -1)
            if piv_col >= 0:
                _pivot(rows, cost, basis, i, piv_col)
            else:
                del rows[i]
                del basis[i]

    # phase 2 on the original objective, artificial columns frozen out
    rows = [row[:art0] + [row[-1]] for row in rows]
    cost2 = [Fraction(0)] * (art0 + 1)
    for k, (j, sgn) in enumerate(col_of):
        cost2[k] = sgn * c[j]
    for i, row in enumerate(rows):
        cb = cost2[basis[i]]
        if cb != 0:
            for j in range(art0 + 1):
                cost2[j] -= cb * row[j]
            cost2[basis[i]] = Fraction(0)
    status = _iterate(rows, cost2, basis)
    if status == "unbounded":
        return "unbounded", None, None

    x = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < n_struct:
            j, sgn = col_of[b]
            x[j] += sgn * rows[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", x, value


def hull_membership(
    points: np.ndarray,
    target: np.ndarray,
    tol: float = FEASIBILITY_SLACK,
    exact: bool = False,
) -> HullMembership:
    """Is `target` a convex combination of the rows of `points`?

    One LP on either backend: minimize the l1 residual sum(s+ + s-) subject
    to  points^T w + s+ - s- = target  over w, s+, s- >= 0.  The optimum is
    the margin, and `target` is a member when margin <= tol.  The exact path
    computes that optimum exactly from the given floats.  The normalization
    constraint rides along in coordinate 0 whenever the points carry a
    leading 1.
    """
    pts = np.asarray(points, dtype=float)
    tgt = np.asarray(target, dtype=float)
    npts, dim = pts.shape
    eye = np.eye(dim)
    a_eq = np.hstack([pts.T, eye, -eye])
    c = np.concatenate([np.zeros(npts), np.ones(2 * dim)])
    if exact:
        _, x, value = exact_linprog(c, a_eq=a_eq, b_eq=tgt)  # feasible, bounded below by 0
        weights = np.array([float(v) for v in x[:npts]])
        margin = float(value)
    else:
        res = linprog(c, A_eq=a_eq, b_eq=tgt, bounds=(0, None), method="highs")
        if not res.success:  # pragma: no cover - the relaxation is always feasible
            raise RuntimeError(f"membership LP failed: {res.message}")
        weights = res.x[:npts].copy()
        margin = float(res.fun)
    if margin <= tol:
        return HullMembership(True, weights, margin)
    return HullMembership(False, None, margin)


def linear_program(
    c: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    maximize: bool = False,
    exact: bool = False,
) -> LpSolution:
    """Solve an LP over free variables; thin switch between both backends."""
    obj = np.asarray(c, dtype=float)
    sign = -1.0 if maximize else 1.0
    if exact:
        cf = [sign * Fraction(v) for v in np.asarray(c).tolist()]
        status, x, value = exact_linprog(
            cf,
            a_eq=a_eq,
            b_eq=b_eq,
            a_le=a_ub,
            b_le=b_ub,
            nonneg=[False] * len(cf),
        )
        if status != "optimal":
            return LpSolution(status, None, None)
        return LpSolution(
            "optimal",
            np.array([float(v) for v in x]),
            sign * float(value),
        )
    res = linprog(
        sign * obj,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * obj.shape[0],
        method="highs",
    )
    if res.status == 2:
        return LpSolution("infeasible", None, None)
    if res.status == 3:
        return LpSolution("unbounded", None, None)
    if not res.success:  # pragma: no cover
        raise RuntimeError(f"LP failed: {res.message}")
    return LpSolution("optimal", res.x.copy(), sign * float(res.fun))
