"""The HiGHS backend of `lp`: the compiled bindings, the solver options, and
`_solve_highs`, which builds one model and solves a stack of right-hand
sides on it.

The one compiled scipy module gptkit calls, the HiGHS bindings, is loaded
here by `_scipy_extension` from scipy's install directory, which the import
system finds without running ``scipy``'s ``__init__``.  A plain import would
first run ``scipy``'s and then ``scipy.optimize``'s ``__init__``, which load
about 500 modules (``scipy.linalg`` and ``scipy.sparse`` among them) and
take most of a second; gptkit calls none of them.

This layer is a module of its own to keep `lp.py` below 4 096 tokens:
CPython's parser grows its token array by doubling and allocates a token
for every new slot, so compiling a longer module peaks about 0.2 MB
higher, which a fresh process's peak memory shows.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

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
