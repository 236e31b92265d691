"""CHSH objectives over a maximal tensor product, their symmetry classes,
and their best value on product states.

A reversible map g of a local theory that permutes that side's constraint
rows (rows @ g is rows reordered) maps the maximal tensor product onto
itself through X -> ga X gb.T, so the LP with objective C has the same
optimum as the one with ga.T C gb.  `maximize_chsh` solves one LP per class
of objectives related this way.  A polygon's stored rotation and mirror
generate its dihedral group D_N, so its classes are those of D_N x D_N.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import Polytope, TheorySpec, _pairing_range, _row_permutation

# Matrix products here use np.einsum, not @: a CHSH scan makes no BLAS call
# otherwise, and a first one maps about 128 KB more code into the process.


def _chsh_objectives(meas_a, meas_b, choices: np.ndarray, exact: bool = False) -> np.ndarray:
    """CHSH objective of every assignment row (a0, a1, b0, b1) of `choices`.

    Each correlator term is the outer product of the two outcome
    differences, and the terms are summed in the order of S, so every row
    equals the Kronecker-product objective bit for bit (an einsum writes
    +0.0 where the Kronecker product writes -0.0).  With `exact`, the
    differences Fraction(e) - Fraction(f) and every product and sum are
    exact, and the rows are object arrays of Fractions.
    """
    def differences(meas):
        if exact:
            return np.array([[Fraction(x) - Fraction(y) for x, y in zip(e, f)] for e, f in meas],
                            dtype=object)
        return np.array([e - f for e, f in meas], dtype=float)

    da = differences(meas_a)[choices[:, :2]]
    db = differences(meas_b)[choices[:, 2:]]
    width = da.shape[-1] * db.shape[-1]  # spelled out: `choices` may have no rows

    def term(i, j):
        return (da[:, i, :, None] * db[:, j, None, :]).reshape(len(choices), width)

    return term(0, 0) + term(0, 1) + term(1, 0) - term(1, 1)


def row_symmetries(theory: TheorySpec, rows: np.ndarray) -> np.ndarray:
    """The group generated by the theory's reversibles that permute `rows`.

    A generator g is kept when it fixes the unit effect and every row of
    rows @ g matches exactly one row of `rows`, all within 1e-9, with no row
    matched twice; others (a ball's quarter-turns against its K sphere
    points) are dropped.  The kept ones are closed as permutations of row
    indices, so the closure is finite.  Returns the stacked matrices.
    """
    kept = []
    for g in theory.reversibles:
        perm = _row_permutation(rows, np.einsum("ri,ij->rj", rows, g), 1e-9)
        # unit @ g is the first row of g, since the unit effect is (1, 0, ..., 0)
        if perm is not None and np.abs(g[0] - theory.unit).max() <= 1e-9:
            kept.append((perm, g))
    # rows @ m = rows[perm] and rows @ g = rows[p] give rows @ m @ g = rows[p[perm]]
    group = {tuple(range(len(rows))): np.eye(theory.dim + 1)}
    frontier = list(group.items())
    while frontier:
        grown = []
        for perm, m in frontier:
            for p, g in kept:
                key = tuple(p[list(perm)].tolist())
                if key not in group:
                    group[key] = np.einsum("ij,jk->ik", m, g)
                    grown.append((key, group[key]))
        frontier = grown
    return np.array(list(group.values()))


def symmetry_classes(objectives, group_a, group_b) -> np.ndarray:
    """Index of each objective row's class representative.

    Row j joins the first representative i with ga.T C_i gb = C_j within
    1e-12 entrywise, for some ga, gb of the two stacked groups; otherwise it
    represents itself.  Candidates are looked up by the entries rounded to
    9 decimals (-0.0 read as +0.0), and a match is confirmed entrywise
    against the first image of i filed under that key, so a split at a
    rounding edge costs one more LP.  Each block of rows is rounded at
    once, the objectives in one call and each representative's images in
    one.
    """
    def keys(block):
        return [row.tobytes() for row in np.round(block, 9) + 0.0]

    shape = (group_a.shape[1], group_b.shape[1])
    images: dict[int, np.ndarray] = {}
    # key -> the (representative, image index) pairs filed under it, flattened
    # into one tuple: less memory than a list, or a tuple per pair
    candidates: dict[bytes, tuple[int, ...]] = {}
    classes = np.empty(len(objectives), dtype=int)
    for j, (c, key) in enumerate(zip(objectives, keys(objectives))):
        filed = candidates.get(key, ())
        # the image as a one-row block: reducing a 1-D row here instead read
        # about 0.1 MB more peak RSS on perfbench `geometry`
        classes[j] = next(
            (i for i, k in zip(filed[::2], filed[1::2])
             if (np.abs(images[i][k:k + 1] - c).max(axis=1) <= 1e-12).any()),
            j,
        )
        # a representative's images can only join later rows, so the last
        # row of the pass builds none
        if classes[j] == j and j < len(objectives) - 1:
            images[j] = np.einsum(
                "aki,kl,blm->abim", group_a, c.reshape(shape), group_b
            ).reshape(-1, c.size)
            first = {}  # each key's first image index
            for k, image_key in enumerate(keys(images[j])):
                first.setdefault(image_key, k)
            for image_key, k in first.items():
                candidates[image_key] = candidates.get(image_key, ()) + (j, k)
    return classes


def product_maximum(local_a: TheorySpec, local_b: TheorySpec, meas_a, meas_b, choice) -> float:
    """The best CHSH value P of the assignment `choice` (a0, a1, b0, b1) on
    products of extreme states: the greatest `core._pairing_range` on side B
    of the objective paired with each extreme state of side A.  A ball side
    is put on B; of two balls A lists its `extreme_states`, so P is a lower
    bound."""
    c = _chsh_objectives(meas_a, meas_b, np.array([choice])).reshape(local_a.dim + 1, -1)
    if isinstance(local_b.states, Polytope):  # a ball side, if any, is b from here on
        local_a, local_b, c = local_b, local_a, c.T
    m = np.einsum("ai,ij->aj", local_a.extreme_states(), c)
    return float(_pairing_range(local_b.states, m)[1].max())
