"""Reference CHSH scan: one LP for every setting assignment, in row-major order.

This is `maximize_chsh` as it was before it skipped the assignments that
repeat a setting or shared a symmetry class, with one Kronecker-product
objective per LP.  Its optimum follows the same rule: values within 1e-9 of
the best tie, and the first in row-major order wins.  Tests compare the two
bit for bit.
"""

import itertools
from fractions import Fraction

import numpy as np

from gptkit import lp
from gptkit.composites import (
    ChshOptimum,
    JointState,
    _dedupe_rows,
    _product_rows,
    binary_measurements,
    tensor,
)


def kron_objective(a0, a1, b0, b1, exact=False) -> np.ndarray:
    """The CHSH objective as a sum of Kronecker products; with `exact`, an
    object array of Fractions built from the exact effect differences."""
    def diff(pair):
        return np.array([Fraction(e) - Fraction(f) for e, f in zip(*pair)], dtype=object)

    def diff_tensor(a_pair, b_pair):
        if exact:
            return np.kron(diff(a_pair), diff(b_pair))
        return tensor(a_pair[0] - a_pair[1], b_pair[0] - b_pair[1])

    return (
        diff_tensor(a0, b0) + diff_tensor(a0, b1) + diff_tensor(a1, b0) - diff_tensor(a1, b1)
    )


def full_scan_chsh(
    local_a, local_b, measurements_a=None, measurements_b=None, exact=False
):
    """The optimum over every assignment, and each assignment's LP solution.

    The solutions map each assignment (a0, a1, b0, b1) to its LP solution, in
    row-major order.
    """
    meas_a = measurements_a if measurements_a is not None else binary_measurements(local_a)
    meas_b = measurements_b if measurements_b is not None else binary_measurements(local_b)
    rows_a = _dedupe_rows(
        np.vstack([local_a.effect_rows()] + [np.vstack(m) for m in meas_a])
    )
    rows_b = _dedupe_rows(
        np.vstack([local_b.effect_rows()] + [np.vstack(m) for m in meas_b])
    )
    constraint_rows = _product_rows(rows_a, rows_b)
    a_eq = tensor(local_a.unit, local_b.unit).reshape(1, -1)
    b_eq = np.array([1.0])
    a_ub = -constraint_rows
    b_ub = np.zeros(len(constraint_rows))
    solutions = {}
    for ia0, ia1 in itertools.product(range(len(meas_a)), repeat=2):
        for ib0, ib1 in itertools.product(range(len(meas_b)), repeat=2):
            c = kron_objective(meas_a[ia0], meas_a[ia1], meas_b[ib0], meas_b[ib1], exact)
            sol = lp.linear_program(c, a_eq, b_eq, a_ub, b_ub, maximize=True, exact=exact)
            assert sol.status == "optimal"
            solutions[ia0, ia1, ib0, ib1] = sol
    top = max(sol.value for sol in solutions.values())
    choice = next(key for key, sol in solutions.items() if sol.value >= top - 1e-9)
    best = solutions[choice]
    witness = JointState(best.x, local_a, local_b, check=False)
    return ChshOptimum(best.value, witness, choice), solutions
