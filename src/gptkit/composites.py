"""Bipartite machinery: product states, separability, no-signalling, CHSH.

Joint vectors live in the tensor of the two local spaces and are flattened
A-major: entry (i, j) sits at index i * (d_B + 1) + j.  That convention is
fixed globally; reshaping to a (d_A+1) x (d_B+1) matrix turns the pairing
with a product effect e (x) f into  e . Phi . f.

The separable set is the hull of products of local extreme states; the
maximal set contains every normalized vector that is nonnegative on all
product effects.  A given state's membership in either is one LP, in
floating point or by exact rational pivoting; with a ball local the
separability LP is discretized at K = `core.BALL_STATE_COUNT` and says only
separable or inconclusive-at-K.  A CHSH scan compares its optimum with the
best product state instead (Barrett, PRA 75, 032304 (2007); `run_scenarios`).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import lp
from .core import BALL_EFFECT_COUNT, BALL_STATE_COUNT, DEFAULT_TOL, Ball, BallEffects, Polytope
from .core import TheorySpec, _effect_floor, _extreme_rays
# binary_measurements and its ball count are core's, read here by callers
from .core import BALL_MEASUREMENT_COUNT, _dedupe_rows, binary_measurements  # noqa: F401
from .symmetry import _chsh_objectives, product_maximum, row_symmetries, symmetry_classes
from .zoo import get_theory


def tensor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product in A-major order."""
    return np.kron(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


@dataclass(frozen=True, eq=False)
class JointState:
    """Bipartite state vector with references to both local theories."""

    vector: np.ndarray
    local_a: TheorySpec
    local_b: TheorySpec

    def __init__(self, vector, local_a, local_b, check: bool = True):
        v = np.array(vector, dtype=float)
        da, db = local_a.dim, local_b.dim
        if v.shape != ((da + 1) * (db + 1),):
            raise ValueError("joint vector length must be (d_A+1)(d_B+1)")
        # v[0] is the pairing with the unit (x) unit effect
        if check and not (np.all(np.isfinite(v)) and abs(v[0] - 1.0) <= 1e-9):
            raise ValueError("joint state is not finite and normalized against the unit effects")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "local_a", local_a)
        object.__setattr__(self, "local_b", local_b)

    @property
    def matrix(self) -> np.ndarray:
        return self.vector.reshape(self.local_a.dim + 1, self.local_b.dim + 1)

    def pair_product(self, effect_a: np.ndarray, effect_b: np.ndarray) -> float:
        """(effect_a (x) effect_b) applied to this state."""
        return float(np.asarray(effect_a) @ self.matrix @ np.asarray(effect_b))


def product_state(za: np.ndarray, zb: np.ndarray, a: TheorySpec, b: TheorySpec) -> JointState:
    return JointState(tensor(za, zb), a, b)


def marginal(phi: JointState, side: str) -> np.ndarray:
    """Local reduction by pairing the other side with its unit effect."""
    if side == "a":
        return phi.matrix[:, 0].copy()
    if side == "b":
        return phi.matrix[0, :].copy()
    raise ValueError("side must be 'a' or 'b'")


def _product_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every x_a (x) y_b as a flattened A-major row, a-major over the pairs."""
    return np.einsum("ai,bj->abij", x, y).reshape(len(x) * len(y), -1)


@dataclass(frozen=True)
class SeparabilityVerdict:
    status: str  # "separable" | "entangled" | "inconclusive"
    margin: float
    weights: np.ndarray | None = None
    resolution: int | None = None

    def __str__(self):
        if self.status == "inconclusive":
            return f"inconclusive-at-K={self.resolution} (margin {self.margin:.3g})"
        return self.status


def is_separable(phi: JointState, exact: bool = False) -> SeparabilityVerdict:
    """Decide membership in the hull of products of local extreme states.

    The margin is the l1 residual of the best decomposition, and a margin
    up to `lp.FEASIBILITY_SLACK` (1e-9) is membership on both paths; the
    exact path computes the margin exactly from the given floats.  Polytope
    locals give definite verdicts.
    A ball local contributes the K = `core.BALL_STATE_COUNT` fixed sphere
    states of `extreme_states`, so only "separable" and "inconclusive" can
    be returned, with `resolution` K; the margin is then the distance by
    which the discretized decomposition fails.  A discretized hull is solved
    in floating point even when `exact` is set: its verdict is not definite
    either way, and its K^2 columns are too many for the rational simplex.
    The float path prices the products from the two lists of extreme states
    (`lp.product_hull_memberships`) and never stores the K^2 columns; only
    the exact path, two polytope sides, lists them.  This is `_verdicts`
    on a stack of one.
    """
    return _verdicts(phi.local_a, phi.local_b, [phi.vector], exact)[0]


def _verdicts(local_a, local_b, vectors, exact) -> list[SeparabilityVerdict]:
    """`is_separable` of each joint vector over the two locals, as one
    `lp` stack of hull LPs."""
    discretized = isinstance(local_a.states, Ball) or isinstance(local_b.states, Ball)
    xa, xb = local_a.extreme_states(), local_b.extreme_states()
    if exact and not discretized:
        stack = lp.hull_memberships(_product_rows(xa, xb), vectors, exact=True)
    else:
        stack = lp.product_hull_memberships(xa, xb, vectors)
    resolution = BALL_STATE_COUNT if discretized else None
    return [
        SeparabilityVerdict("separable", res.margin, res.weights, resolution) if res.member
        else SeparabilityVerdict("inconclusive" if discretized else "entangled", res.margin,
                                 None, resolution)
        for res in stack
    ]


def in_max_tensor(phi: JointState) -> bool:
    """Normalization plus nonnegativity on all product effects.

    Both hold within `core.DEFAULT_TOL`.  Two polytope sides are checked on
    every pair of their `effect_rows`.  A ball side is closed analytically
    (`core._effect_floor`) against the other side's `effect_rows`, and each
    of two ball sides against the other's.
    """
    mat = phi.matrix
    if abs(mat[0, 0] - 1.0) > DEFAULT_TOL:
        return False
    a, b = phi.local_a, phi.local_b
    a_ball = isinstance(a.effects, BallEffects)
    floors = [_effect_floor(a, (mat @ b.effect_rows().T).T)] if a_ball else []
    if isinstance(b.effects, BallEffects) or not a_ball:
        floors.append(_effect_floor(b, a.effect_rows() @ mat))
    return all(f.min() >= -DEFAULT_TOL for f in floors)


def no_signalling_check(phi: JointState) -> bool:
    """Marginals of either side must not depend on the other side's choice.

    Every binary measurement (e, u - e) sums to the unit effect, so summing
    the joint outcome probabilities over the far side's outcomes pairs the
    state with e (x) u whatever the far side measured: by linearity no
    marginal can depend on the far setting.  What remains is that the state
    defines valid joint probabilities at all, i.e. membership in the maximal
    tensor product, whose states are no-signalling by construction (Barrett,
    PRA 75, 032304, 2007).
    """
    return in_max_tensor(phi)


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChshScenario:
    """Two binary measurements per site plus a joint state.

    Each measurement is an (effect, complement) pair summing to the local
    unit effect.
    """

    a0: tuple[np.ndarray, np.ndarray]
    a1: tuple[np.ndarray, np.ndarray]
    b0: tuple[np.ndarray, np.ndarray]
    b1: tuple[np.ndarray, np.ndarray]
    state: JointState


def correlator(phi: JointState, a_pair, b_pair) -> float:
    """E(a, b) = p(++) + p(--) - p(+-) - p(-+)."""
    da = np.asarray(a_pair[0]) - np.asarray(a_pair[1])
    db = np.asarray(b_pair[0]) - np.asarray(b_pair[1])
    return float(da @ phi.matrix @ db)


def _check_measurement(pair, unit):
    # the largest entry miss: np.allclose would add its rtol of 1e-5 to it
    if len(pair) != 2 or not np.abs(pair[0] + pair[1] - unit).max() <= DEFAULT_TOL:
        raise ValueError("measurement pair does not sum to the unit effect")


def chsh_value(s: ChshScenario) -> float:
    """S = E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1)."""
    ua = s.state.local_a.unit
    ub = s.state.local_b.unit
    for pair in (s.a0, s.a1):
        _check_measurement(pair, ua)
    for pair in (s.b0, s.b1):
        _check_measurement(pair, ub)
    return (
        correlator(s.state, s.a0, s.b0)
        + correlator(s.state, s.a0, s.b1)
        + correlator(s.state, s.a1, s.b0)
        - correlator(s.state, s.a1, s.b1)
    )


@dataclass(frozen=True)
class ChshOptimum:
    value: float
    witness: JointState
    measurement_choice: tuple[int, int, int, int]  # indices (a0, a1, b0, b1)


def _scenario_rows(theory: TheorySpec, measurements) -> np.ndarray:
    """One side's constraint rows: its effect rows and the scenario's effects.

    The scenario's own measurement effects must be feasibility constraints,
    otherwise a discretized relaxation could hand them negative probabilities.
    """
    effects = [np.vstack(m) for m in measurements]
    return _dedupe_rows(np.vstack([theory.effect_rows()] + effects))


def maximize_chsh(
    local_a: TheorySpec,
    local_b: TheorySpec,
    measurements_a=None,
    measurements_b=None,
    exact: bool = False,
) -> ChshOptimum:
    """Maximize the CHSH functional over the maximal tensor product.

    One LP per symmetry class (`symmetry.symmetry_classes`) of assignments
    of measurements to the four slots.  An assignment that repeats a setting
    (a0 = a1 or b0 = b1) gives S = 2 E(a0, b0) <= 2, as the scenario's own
    effects get valid probabilities, so those are solved only if no other
    beats 2 + 1e-6.  Values within 1e-9 of the best tie, and the first in
    row-major order is returned with its optimizer as a witness state.  Each
    side's constraint rows are its `effect_rows` plus the scenario's
    effects: exact optima for polytopes under exact pivoting (one
    `lp.exact_linprog` per class), an outer relaxation through the
    `core.BALL_EFFECT_COUNT` extremal effects for a ball, solved in floating
    point even when `exact` is set.  On the float path a pass is one
    `lp.linear_programs` stack: HiGHS solves the LP dual, whose right-hand
    side is the objective, so from one class to the next only row bounds
    change and each solve starts warm from the last optimal basis, on a
    basis of (d_A + 1)(d_B + 1) rows.  At a degenerate optimum the witness
    may be any optimal vertex.
    """
    meas_a = measurements_a if measurements_a is not None else binary_measurements(local_a)
    meas_b = measurements_b if measurements_b is not None else binary_measurements(local_b)
    if not meas_a or not meas_b:
        raise ValueError("both sites need at least one binary measurement")
    # a ball side's rows are an outer relaxation, definite in neither
    # arithmetic, and too many rows for the rational simplex
    exact = exact and not any(isinstance(t.effects, BallEffects) for t in (local_a, local_b))
    rows_a = _scenario_rows(local_a, meas_a)
    rows_b = _scenario_rows(local_b, meas_b)
    choices = np.indices((len(meas_a),) * 2 + (len(meas_b),) * 2).reshape(4, -1).T
    if len(choices) == 1:  # one assignment forms no class, so no group is built
        group_a, group_b = np.eye(local_a.dim + 1)[None], np.eye(local_b.dim + 1)[None]
    else:
        group_a = row_symmetries(local_a, rows_a)
        same = local_b is local_a and np.array_equal(rows_a, rows_b)
        group_b = group_a if same else row_symmetries(local_b, rows_b)
    constraint_rows = _product_rows(rows_a, rows_b)
    a_eq = tensor(local_a.unit, local_b.unit).reshape(1, -1)
    b_eq = np.array([1.0])
    a_ub = -constraint_rows
    b_ub = np.zeros(len(constraint_rows))
    objectives = _chsh_objectives(meas_a, meas_b, choices)
    distinct = (choices[:, 0] != choices[:, 1]) & (choices[:, 2] != choices[:, 3])
    solutions: dict[int, lp.LpSolution] = {}
    for batch in (np.flatnonzero(distinct), np.flatnonzero(~distinct)):
        classes = symmetry_classes(objectives[batch], group_a, group_b)
        reps = batch[classes == np.arange(len(batch))]
        if exact:
            # classes are found in float; the exact LP gets the exact objective
            rep_solutions = [
                lp.linear_program(objective, a_eq, b_eq, a_ub, b_ub, maximize=True, exact=True)
                for objective in _chsh_objectives(meas_a, meas_b, choices[reps], exact=True)
            ]
        else:
            rep_solutions = lp.linear_programs(
                objectives[reps], a_eq, b_eq, a_ub, b_ub, maximize=True
            )
        for i, sol in zip(reps, rep_solutions):
            if sol.status != "optimal":  # pragma: no cover - the set is compact
                raise RuntimeError(f"CHSH optimization failed: {sol.status}")
            solutions[int(i)] = sol
        # a repeated setting reaches at most 2; 1e-6 covers HiGHS's 1e-7
        # primal feasibility slack on each of the four correlators, and the
        # 1e-16 by which float effect pairs miss the unit on the exact path
        if solutions and max(s.value for s in solutions.values()) > 2.0 + 1e-6:
            break
    # HiGHS spreads the optima inside one class, warm or cold, by under 1e-12;
    # values within 1e-9 of the best tie, and the first in row-major order wins
    top = max(s.value for s in solutions.values())
    best = min(i for i, s in solutions.items() if s.value >= top - 1e-9)
    sol = solutions[best]
    witness = JointState(sol.x, local_a, local_b, check=False)
    return ChshOptimum(sol.value, witness, tuple(int(i) for i in choices[best]))


def enumerate_deterministic_chsh() -> float:
    """Oracle: best CHSH over the 16 deterministic +-1 assignments."""
    best = -np.inf
    for a0, a1, b0, b1 in itertools.product((-1, 1), repeat=4):
        best = max(best, a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1)
    return float(best)


# ---------------------------------------------------------------------------
# Two-qubit embedding
# ---------------------------------------------------------------------------

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _two_qubit_density(r_a, r_b, t) -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho += r_a[i] * np.kron(_PAULI[i], np.eye(2))
        rho += r_b[i] * np.kron(np.eye(2), _PAULI[i])
        for j in range(3):
            rho += t[i, j] * np.kron(_PAULI[i], _PAULI[j])
    return rho / 4.0


def two_qubit_gpt(r_a, r_b, t) -> JointState:
    """Joint ball:3 state from local Bloch vectors and a correlation matrix.

    The layout is the A-major block matrix ((1, r_b), (r_a, T)); product
    effect pairings then reproduce the quantum probabilities
    (1 + a.r_a + b.r_b + a.T.b)/4.  Inputs whose implied 4x4 density
    operator is not positive semidefinite are rejected.
    """
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    t = np.asarray(t, dtype=float)
    if r_a.shape != (3,) or r_b.shape != (3,) or t.shape != (3, 3):
        raise ValueError("need two Bloch vectors and a 3x3 correlation matrix")
    eigenvalues = np.linalg.eigvalsh(_two_qubit_density(r_a, r_b, t))
    if eigenvalues.min() < -DEFAULT_TOL:
        raise ValueError(
            f"correlation data is non-physical (minimum eigenvalue {eigenvalues.min():.3g})"
        )
    mat = np.empty((4, 4))
    mat[0, 0] = 1.0
    mat[0, 1:] = r_b
    mat[1:, 0] = r_a
    mat[1:, 1:] = t
    ball = get_theory("ball:3")
    return JointState(mat.reshape(-1), ball, ball)


def singlet_state() -> JointState:
    return two_qubit_gpt(np.zeros(3), np.zeros(3), -np.eye(3))


def ball_measurement(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two effects (1, +-v)/2 of the unit vector v along `direction`;
    a zero, NaN or infinite direction has no unit vector and is rejected.
    v is scaled by the power of two nearest below max|v| before the norm is
    taken, so v.v neither underflows nor overflows; the scaling is exact, so
    wherever v.v stays in range the result is that of v / |v| bit for bit."""
    v = np.asarray(direction, dtype=float)
    scale = np.abs(v).max()
    if not 0 < scale < np.inf:
        raise ValueError("measurement direction must be nonzero and finite")
    v = np.ldexp(v, 1 - np.frexp(scale)[1])
    v = v / np.linalg.norm(v)
    return 0.5 * np.concatenate([[1.0], v]), 0.5 * np.concatenate([[1.0], -v])


# ---------------------------------------------------------------------------
# Vertex enumeration for small maximal tensor polytopes
# ---------------------------------------------------------------------------


def max_tensor_vertices(local_a: TheorySpec, local_b: TheorySpec) -> np.ndarray:
    """All vertices of the maximal tensor polytope of two polytope locals.

    The vertices are the extreme rays of the cone of product facets
    (e (x) f) . x >= 0, found by double description (`_extreme_rays`, with
    `core.DEFAULT_TOL` the tight band), each scaled to the normalization
    x_0 = 1.  The product of the local vertex centroids must clear every
    facet by more than that band, and the facets must bound a polytope.
    Coordinates below 1e-12 in magnitude are set to 0.0, so an exact zero is
    never left as rounding noise or -0.0.  The rows come sorted
    lexicographically on their values rounded to 9 decimals.
    """
    if not (isinstance(local_a.states, Polytope) and isinstance(local_b.states, Polytope)):
        raise ValueError("vertex enumeration needs polytope locals")
    rows = _product_rows(local_a.extremal_effects(), local_b.extremal_effects())
    centre = tensor(local_a.states.vertices.mean(axis=0), local_b.states.vertices.mean(axis=0))
    if not (rows @ centre).min() > DEFAULT_TOL:
        raise ValueError("the product of the local centroids is not interior")
    rays = _extreme_rays(rows, DEFAULT_TOL)
    if not rays[:, 0].min() > DEFAULT_TOL:
        raise ValueError("the product effects do not bound a polytope")
    vertices = rays / rays[:, :1]
    vertices[np.abs(vertices) < 1e-12] = 0.0
    return vertices[np.lexsort(np.round(vertices, 9).T[::-1])]


# ---------------------------------------------------------------------------
# Scenario files and CSV emission
# ---------------------------------------------------------------------------


def run_scenarios(docs: list, exact: bool = False) -> list[dict]:
    """Execute scenario documents and produce one CSV-ready row for each.

    Schema: {"id", "local_a", "local_b", optional "measurements_a"/"..._b"
    (index pairs into the extremal effect list), optional "joint_vector"}.
    An explicit vector gets its CHSH value and `is_separable`'s verdict;
    the vectors over one pair of local theories are decided as one stack of
    hull LPs (`lp.hull_memberships`), so their verdicts and exact margins
    are the one-at-a-time ones.  Otherwise `maximize_chsh` finds S*,
    printed to 9 decimals (the precision of its tie rule, a format change),
    and the verdict compares it with `symmetry.product_maximum` P:
    `separable` if S* <= P + 1e-9, else `entangled` for polytopes and, as a
    ball side makes S* an outer relaxation, `inconclusive` at K =
    `core.BALL_EFFECT_COUNT`, with margin S* - P.  Every document is
    checked, in order, before any LP is solved: one that is not an object
    with string locals, an index that is not an in-range int, a joint vector
    that is not a flat list of numbers, or a pair whose effects do not sum
    to the unit effect raises ValueError.
    """
    names = ("local_a", "local_b")
    scenarios, stacks = [], {}
    for doc in docs:
        if not (isinstance(doc, dict) and all(isinstance(doc.get(k), str) for k in names)):
            raise ValueError(f"a scenario must be a JSON object naming local_a and local_b: {doc!r}")
        local_a = get_theory(doc["local_a"])
        local_b = get_theory(doc["local_b"])
        meas_a = _doc_measurements(doc, local_a, "measurements_a")
        meas_b = _doc_measurements(doc, local_b, "measurements_b")
        state = None
        if "joint_vector" in doc:
            vector = doc["joint_vector"]
            if not (isinstance(vector, list) and all(type(x) in (int, float) for x in vector)):
                raise ValueError("joint_vector must be a flat list of numbers")
            try:
                vector = np.array(vector, dtype=float)
            except OverflowError:
                raise ValueError("joint_vector holds an integer beyond float range") from None
            state = JointState(vector, local_a, local_b)
            stacks.setdefault((id(local_a), id(local_b)), []).append(len(scenarios))
        scenarios.append((doc, local_a, local_b, meas_a, meas_b, state))
    verdicts = {}
    for ks in stacks.values():
        _, local_a, local_b, *_ = scenarios[ks[0]]
        vectors = [scenarios[k][-1].vector for k in ks]
        verdicts.update(zip(ks, _verdicts(local_a, local_b, vectors, exact)))
    rows = []
    for k, (doc, local_a, local_b, meas_a, meas_b, state) in enumerate(scenarios):
        if state is not None:
            value = chsh_value(ChshScenario(
                meas_a[0], meas_a[min(1, len(meas_a) - 1)],
                meas_b[0], meas_b[min(1, len(meas_b) - 1)],
                state,
            ))
            verdict = verdicts[k]
        else:
            optimum = maximize_chsh(local_a, local_b, meas_a, meas_b, exact=exact)
            value = optimum.value
            gap = value - product_maximum(local_a, local_b, meas_a, meas_b,
                                          optimum.measurement_choice)
            ball = isinstance(local_a.states, Ball) or isinstance(local_b.states, Ball)
            status = "separable" if gap <= 1e-9 else "inconclusive" if ball else "entangled"
            verdict = SeparabilityVerdict(status, gap,
                                          resolution=BALL_EFFECT_COUNT if ball else None)
        rows.append({
            "scenario_id": doc.get("id", f"{doc['local_a']}x{doc['local_b']}"),
            "local_a": doc["local_a"],
            "local_b": doc["local_b"],
            # 9 decimals: maximize_chsh ties values within 1e-9, so the digits
            # below carry only solver noise (about 3e-14 inside a class)
            "chsh_value": round(value, 9),
            "separability_verdict": str(verdict),
        })
    return rows


def _doc_measurements(doc, theory, key):
    """The binary measurements `doc` gives under `key`, by index pairs into
    the extremal effects of `theory`, else `binary_measurements(theory)`."""
    if key not in doc:
        return binary_measurements(theory)
    ext = theory.extremal_effects()
    pairs = doc[key]
    if not (isinstance(pairs, list) and pairs and all(
        isinstance(pair, list) and len(pair) == 2
        and all(type(i) is int and 0 <= i < len(ext) for i in pair) for pair in pairs
    )):
        raise ValueError(f"{key} must be a nonempty list of index pairs below {len(ext)}")
    measurements = [(ext[i].copy(), ext[j].copy()) for i, j in pairs]
    for measurement in measurements:
        _check_measurement(measurement, theory.unit)
    return measurements


CSV_COLUMNS = ["scenario_id", "local_a", "local_b", "chsh_value", "separability_verdict"]


def rows_to_csv(rows: list[dict], columns=CSV_COLUMNS) -> str:
    """CSV text of `rows` over `columns`; keys outside `columns` are left out."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def load_scenarios(text: str) -> list[dict]:
    doc = json.loads(text)
    return doc if isinstance(doc, list) else [doc]
