"""Workload inputs, program calls and output checks for one repetition.

Each workload has a `prepare` step, run before the clock starts, that turns
the seed into input files and oracle data, and an `execute` step, timed
from the first program call to the last verified output.  Checks use only
numpy and the oracle data, so a traced repetition records spans for the
program's own calls and nothing else.

An operation is one check row, one scenario row or one membership query.
It fails when the program raises, exits with the wrong code, or an output
disagrees with its oracle; byte-identity across repetitions is checked by
the parent from the digests recorded here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gptkit import cli, composites, zoo
from spec import CHSH_FLOAT_SCENARIOS, EXACT_SCENARIOS, KNOWN_DEFECT, MEMBERSHIP_LOCALS

GEOMETRY_SAMPLES = 500
# Four correlators, each within [-1, 1]: box world attains this bound.
ALGEBRAIC_CHSH_BOUND = 4.0
CHSH_TOL = 1e-6
# Box world: the 16 products of local deterministic states plus the 8 PR boxes.
BOX_WORLD_VERTICES = 24
BOX_WORLD_PRODUCT_VERTICES = 16


@dataclass
class Ledger:
    """Operations attempted, failures seen and output digests of one repetition."""

    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    digests: dict[str, list] = field(default_factory=dict)

    def fail(self, kind: str, detail: str) -> None:
        self.failures.append({"kind": kind, "detail": detail})

    def digest(self, key: str, text: str, rows: int) -> None:
        self.digests[key] = [hashlib.sha256(text.encode()).hexdigest(), rows]


def invoke(argv: list[str]) -> tuple[int | None, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, error text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as err:
        return (err.code if isinstance(err.code, int) else 2), buf.getvalue(), str(err)
    except Exception as err:  # the operation failed; record it and go on
        return None, buf.getvalue(), f"{type(err).__name__}: {err}"
    return code, buf.getvalue(), ""


def _parse_rows(text: str):
    try:
        rows = json.loads(text)
    except ValueError:
        return None
    return rows if isinstance(rows, list) else None


# ---------------------------------------------------------------------------
# geometry: `gptkit report`
# ---------------------------------------------------------------------------


def prepare_report(seed: int, workdir: Path) -> dict:
    return {
        "argv": ["report", "--seed", str(seed), "--samples", str(GEOMETRY_SAMPLES)],
        "chsh": {
            "chsh-polygon:4": ALGEBRAIC_CHSH_BOUND,
            "chsh-bit": composites.enumerate_deterministic_chsh(),
        },
    }


def execute_report(prep: dict, ledger: Ledger) -> None:
    code, text, error = invoke(prep["argv"])
    rows = _parse_rows(text)
    if rows is None:
        # nothing to check row by row: count the anchors as failed
        ledger.attempted += len(prep["chsh"])
        for name in prep["chsh"]:
            ledger.fail("report", f"{name}: no report (exit {code}) {error}")
        return
    ledger.attempted += len(rows)
    ledger.digest("report", text, len(rows))
    seen = set()
    for row in rows:
        name = row.get("check")
        seen.add(name)
        if row.get("pass") is not True:
            ledger.fail("report", f"{name}: pass={row.get('pass')} "
                        f"worst={row.get('worst_deviation')} tol={row.get('tolerance')}")
        elif name in prep["chsh"] and not row.get("worst_deviation", 1.0) <= CHSH_TOL:
            ledger.fail("report", f"{name}: off oracle {prep['chsh'][name]} "
                        f"by {row.get('worst_deviation')}")
    for name in prep["chsh"]:
        if name not in seen:
            ledger.attempted += 1
            ledger.fail("report", f"{name}: row missing")
    all_pass = all(row.get("pass") is True for row in rows)
    if code != (0 if all_pass else 1):
        ledger.fail("report", f"exit code {code} does not match the rows ({error})")


# ---------------------------------------------------------------------------
# exact and chsh-float: `gptkit chsh-scan --scenario` over maximize scenarios
# ---------------------------------------------------------------------------


def _verdict_ok(verdict: str) -> bool:
    return verdict in ("separable", "entangled") or verdict.startswith("inconclusive-at-K=")


def prepare_scan(seed: int, workdir: Path, scenarios, exact: bool) -> dict:
    rng = np.random.default_rng(seed)
    docs = []
    for k, i in enumerate(rng.permutation(len(scenarios))):
        local_a, local_b, meas_a, meas_b = scenarios[i]
        doc = {"id": f"max-{seed}-{k}", "local_a": local_a, "local_b": local_b}
        if meas_a is not None:
            doc.update(measurements_a=meas_a, measurements_b=meas_b)
        docs.append(doc)
    path = workdir / "scan.json"
    path.write_text(json.dumps(docs))
    return {
        "argv": ["chsh-scan", "--scenario", str(path), "--format", "json"]
        + (["--exact"] if exact else []),
        "docs": docs,
        "exact": exact,
        "local_bound": composites.enumerate_deterministic_chsh(),
    }


def execute_scan(prep: dict, ledger: Ledger) -> None:
    docs = prep["docs"]
    ledger.attempted += len(docs)
    code, text, error = invoke(prep["argv"])
    rows = _parse_rows(text)
    if code != 0 or rows is None or len(rows) != len(docs):
        for doc in docs:
            ledger.fail("chsh-scan", f"{doc['id']}: exit {code}, "
                        f"{'no rows' if rows is None else len(rows)} ({error})")
        return
    ledger.digest("chsh-scan", text, len(rows))
    local = prep["local_bound"]
    for doc, row in zip(docs, rows):
        value = row.get("chsh_value")
        verdict = str(row.get("separability_verdict"))
        where = f"{doc['id']} {doc['local_a']}x{doc['local_b']}"
        if row.get("scenario_id") != doc["id"]:
            ledger.fail("chsh-scan", f"{where}: row id {row.get('scenario_id')}")
        elif not isinstance(value, float):
            ledger.fail("chsh-scan", f"{where}: S={value!r}")
        elif prep["exact"] and abs(value - local) > CHSH_TOL:
            # S = 2 E(a, b) with one measurement on a side: at most 2, and
            # product states reach it
            ledger.fail("chsh-scan", f"{where}: S={value}, oracle {local}")
        elif not local - CHSH_TOL <= value <= ALGEBRAIC_CHSH_BOUND + CHSH_TOL:
            ledger.fail("chsh-scan", f"{where}: S={value} outside [{local}, 4]")
        elif not _verdict_ok(verdict):
            ledger.fail("chsh-scan", f"{where}: verdict {verdict!r}")
        elif value > local + CHSH_TOL and verdict == "separable":
            ledger.fail("chsh-scan", f"{where}: S={value} > {local} but separable")


# ---------------------------------------------------------------------------
# membership: seeded joint_vector scenarios plus in_max_tensor and
# no_signalling_check on the same states
# ---------------------------------------------------------------------------


def _measurement_diffs(theory) -> tuple[np.ndarray, np.ndarray]:
    """e - (u - e) of the two measurements a joint_vector scenario uses."""
    meas = composites.binary_measurements(theory)
    first, second = meas[0], meas[min(1, len(meas) - 1)]
    return first[0] - first[1], second[0] - second[1]


def _chsh_oracle(matrix: np.ndarray, diffs_a, diffs_b) -> float:
    (a0, a1), (b0, b1) = diffs_a, diffs_b
    return float(a0 @ matrix @ b0 + a0 @ matrix @ b1 + a1 @ matrix @ b0 - a1 @ matrix @ b1)


def prepare_membership(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    theories = {name: zoo.get_theory(name) for name in MEMBERSHIP_LOCALS}
    p5 = theories["polygon:5"].states.vertices
    terms = rng.integers(0, len(p5), size=(3, 2))
    weights = rng.dirichlet(np.ones(3))
    p5_mixture = sum(w * np.kron(p5[i], p5[j]) for w, (i, j) in zip(weights, terms))
    return {
        "theories": theories,
        "path": workdir / "membership.json",
        # indices into the product vertices / PR boxes, resolved after enumeration
        "local_mixtures": [
            (rng.choice(BOX_WORLD_PRODUCT_VERTICES, size=k, replace=False),
             rng.dirichlet(np.ones(k)))
            for k in (2, 3, 4)
        ],
        "pr_mixtures": [
            (int(rng.integers(0, BOX_WORLD_VERTICES - BOX_WORLD_PRODUCT_VERTICES)),
             int(rng.integers(0, BOX_WORLD_PRODUCT_VERTICES)),
             float(rng.uniform(0.55, 0.95)))
            for _ in range(2)
        ],
        "outside": [(int(rng.integers(0, BOX_WORLD_VERTICES)), float(rng.uniform(0.1, 0.3)))
                    for _ in range(2)],
        "p5_mixture": p5_mixture,
        # Werner states: the entangled one goes through the scans and the
        # K=200 hull, the other one only through the membership queries
        "werner": (float(rng.uniform(0.45, 0.95)), float(rng.uniform(0.05, 0.30))),
        "ball_outside": float(rng.uniform(0.1, 0.3)),
        "diffs": {name: _measurement_diffs(t) for name, t in theories.items()},
        "local_bound": composites.enumerate_deterministic_chsh(),
    }


@dataclass
class Probe:
    """One membership input with what the oracles know about it."""

    id: str
    local_a: str
    local_b: str
    vector: np.ndarray
    member: bool
    separable: bool | None  # None: no oracle for the verdict
    scan: bool = True


def _box_world_probes(prep: dict, vertices: np.ndarray, ledger: Ledger) -> list[Probe]:
    ranks = [int(np.linalg.matrix_rank(v.reshape(3, 3), tol=1e-9)) for v in vertices]
    products = [v for v, r in zip(vertices, ranks) if r == 1]
    boxes = [v for v, r in zip(vertices, ranks) if r > 1]
    ledger.attempted += 1
    if (len(vertices), len(products)) != (BOX_WORLD_VERTICES, BOX_WORLD_PRODUCT_VERTICES):
        ledger.fail("max_tensor_vertices", f"{len(vertices)} vertices, {len(products)} products;"
                    f" box world has {BOX_WORLD_VERTICES} and {BOX_WORLD_PRODUCT_VERTICES}")
    probes = []
    # A vertex of the maximal tensor product that is separable is extreme in
    # the separable set, hence a product: rank 1 iff separable.
    for k, (v, r) in enumerate(zip(vertices, ranks)):
        probes.append(Probe(f"v{k:02d}", "polygon:4", "polygon:4", v, True, r == 1))
    if not products or not boxes:
        return probes
    for k, (picks, weights) in enumerate(prep["local_mixtures"]):
        mix = sum(w * products[i % len(products)] for i, w in zip(picks, weights))
        probes.append(Probe(f"loc{k}", "polygon:4", "polygon:4", mix, True, True))
    for k, (box, local, p) in enumerate(prep["pr_mixtures"]):
        mix = p * boxes[box % len(boxes)] + (1 - p) * products[local % len(products)]
        probes.append(Probe(f"pr{k}", "polygon:4", "polygon:4", mix, True, None))
    centre = vertices.mean(axis=0)
    for k, (i, t) in enumerate(prep["outside"]):
        # past a vertex, away from an interior point: outside the polytope
        v = vertices[i % len(vertices)]
        probes.append(Probe(f"out{k}", "polygon:4", "polygon:4", v + t * (v - centre),
                            False, False))
    return probes


def execute_membership(prep: dict, ledger: Ledger) -> None:
    theories = prep["theories"]
    try:
        vertices = composites.max_tensor_vertices(theories["polygon:4"], theories["polygon:4"])
    except Exception as err:  # the operation failed; record it and go on
        ledger.attempted += 1
        ledger.fail("max_tensor_vertices", f"{type(err).__name__}: {err}")
        probes = []
    else:
        probes = _box_world_probes(prep, vertices, ledger)
    probes.append(Probe("p5mix", "polygon:5", "polygon:5", prep["p5_mixture"], True, True))
    for k, v in enumerate(prep["werner"]):
        try:
            state = composites.two_qubit_gpt(np.zeros(3), np.zeros(3), -v * np.eye(3))
        except Exception as err:  # the operation failed; record it and go on
            ledger.attempted += 1
            ledger.fail("two_qubit_gpt", f"werner{k}: {type(err).__name__}: {err}")
            continue
        # Werner states are separable iff v <= 1/3
        probes.append(Probe(f"werner{k}", "ball:3", "ball:3", state.vector, True,
                            None if v <= 1 / 3 else False, scan=k == 0))
    outside = np.eye(4)
    outside[1:, 1:] = -(1.0 + prep["ball_outside"]) * np.eye(3)
    # correlations beyond -1: a product effect pairs negatively
    probes.append(Probe("ball-out", "ball:3", "ball:3", outside.reshape(-1), False, False,
                        scan=False))

    # the Werner state first: its two K=200 hulls then run before any exact
    # LP.  With it last, peak memory depended on the seed (295 or 350 MB).
    scanned = sorted((p for p in probes if p.scan), key=lambda p: p.local_a != "ball:3")
    prep["path"].write_text(json.dumps([
        {"id": p.id, "local_a": p.local_a, "local_b": p.local_b,
         "joint_vector": p.vector.tolist()}
        for p in scanned
    ]))
    scans = {}
    for mode in ("float", "exact"):
        argv = ["chsh-scan", "--scenario", str(prep["path"]), "--format", "json"]
        code, text, error = invoke(argv + (["--exact"] if mode == "exact" else []))
        rows = _parse_rows(text)
        ledger.attempted += len(scanned)
        if code != 0 or rows is None or len(rows) != len(scanned):
            for p in scanned:
                ledger.fail(f"scan-{mode}", f"{p.id}: exit {code}, "
                            f"{'no rows' if rows is None else len(rows)} ({error})")
            continue
        ledger.digest(f"scan-{mode}", text, len(rows))
        scans[mode] = {row.get("scenario_id"): row for row in rows}

    local = prep["local_bound"]
    for p in scanned:
        matrix = p.vector.reshape(theories[p.local_a].dim + 1, theories[p.local_b].dim + 1)
        expected_s = _chsh_oracle(matrix, prep["diffs"][p.local_a], prep["diffs"][p.local_b])
        for mode, rows in scans.items():
            row = rows.get(p.id)
            if row is None:
                ledger.fail(f"scan-{mode}", f"{p.id}: row missing")
                continue
            value = row.get("chsh_value")
            verdict = str(row.get("separability_verdict"))
            if not isinstance(value, float) or abs(value - expected_s) > CHSH_TOL:
                ledger.fail(f"scan-{mode}", f"{p.id}: S={value}, oracle {expected_s}")
            elif not _verdict_ok(verdict):
                ledger.fail(f"scan-{mode}", f"{p.id}: verdict {verdict!r}")
            elif verdict == "separable" and (p.separable is False or value > local + CHSH_TOL):
                ledger.fail(f"scan-{mode}", f"{p.id}: separable, oracle says not (S={value})")
            elif verdict == "entangled" and p.separable is True:
                float_verdict = scans.get("float", {}).get(p.id, {}).get("separability_verdict")
                known = mode == "exact" and float_verdict == "separable"
                ledger.fail(KNOWN_DEFECT if known else f"scan-{mode}",
                            f"{p.id}: entangled, oracle says separable")

    answers = []
    for p in probes:
        a, b = theories[p.local_a], theories[p.local_b]
        for query in (composites.in_max_tensor, composites.no_signalling_check):
            ledger.attempted += 1
            try:
                got = query(composites.JointState(p.vector, a, b))
            except Exception as err:  # the query failed; record it and go on
                ledger.fail(query.__name__, f"{p.id}: {type(err).__name__}: {err}")
                continue
            answers.append(f"{p.id}:{query.__name__}={got}")
            # members of the maximal tensor product are no-signalling; the
            # check rejects non-members outright
            if got != p.member:
                ledger.fail(query.__name__, f"{p.id}: {got}, oracle {p.member}")
    ledger.digest("membership-queries", "\n".join(answers), len(answers))


WORKLOADS = {
    "geometry": (prepare_report, execute_report),
    "exact": (lambda seed, workdir: prepare_scan(seed, workdir, EXACT_SCENARIOS, exact=True),
              execute_scan),
    "chsh-float": (lambda seed, workdir: prepare_scan(seed, workdir, CHSH_FLOAT_SCENARIOS,
                                                      exact=False), execute_scan),
    "membership": (prepare_membership, execute_membership),
}
