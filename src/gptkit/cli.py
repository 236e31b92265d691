"""Command-line front end: verification suites, CHSH scans, zoo exports.

Every subcommand emits a machine-readable report (JSON by default, CSV on
request) and exits 0 only when all its checks pass.  Reports are
deterministic: the same flags and seed give byte-identical output.  Each
check row carries a stable anchor string naming the fact being verified, so
CI output can be traced back to the corresponding property.

Per-check tolerances derive from the base --tol (default 1e-9): group
composition laws are checked at 10x the base, probability invariance at a
tenth of it, and total-probability normalization at a thousandth.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import composites, minkowski, poincare, zoo
from .core import theory_from_json, theory_to_json
from .poincare import CheckRow
from .rotations import special_orthogonal_draws, special_orthogonal_from_gaussian

CHECK_COLUMNS = ["check", "samples", "worst_deviation", "tolerance", "pass"]

# Samples per stack in the geometry suites, so their arrays stay bounded
# for any --samples.
SAMPLE_CHUNK = 256


def _chunks(samples: int):
    """Sizes of the successive stacks that make up `samples`."""
    for start in range(0, samples, SAMPLE_CHUNK):
        yield min(SAMPLE_CHUNK, samples - start)


def _stacked(draws) -> list:
    """Stack per-sample tuples of draws position by position; a position
    holding tuples is stacked the same way, into a list."""
    return [
        _stacked(column) if isinstance(column[0], tuple) else np.array(column)
        for column in zip(*draws)
    ]


def minkowski_suite(
    n: int,
    mass: float,
    samples: int,
    seed: int,
    tol: float,
    log_transforms: str | None = None,
) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    eta = minkowski.metric(n)

    worst_interval = 0.0
    worst_shell = 0.0
    worst_lorentz = 0.0
    transforms = []
    for size in _chunks(samples):
        p_draws, x, y, q_draws = _stacked(
            (
                minkowski.poincare_draws(n, rng),
                rng.uniform(-3, 3, n + 1),
                rng.uniform(-3, 3, n + 1),
                minkowski.proper_orthochronous_draws(n, rng),
            )
            for _ in range(size)
        )
        p = minkowski.poincare_from_draws(*p_draws)
        if log_transforms:
            transforms.append(p)
        dev = np.abs(
            minkowski.interval(x, y)
            - minkowski.interval(minkowski.apply_poincare(p, x), minkowski.apply_poincare(p, y))
        )
        worst_interval = np.maximum(worst_interval, np.max(dev))
        q = minkowski.momentum_from_draws(mass, *q_draws)
        shell = np.abs(
            minkowski.minkowski_norm2(minkowski.apply_lorentz(p.lorentz, q.vector)) + mass**2
        )
        worst_shell = np.maximum(worst_shell, np.max(shell))
        defect = np.max(np.abs(np.swapaxes(p.lorentz, -1, -2) @ eta @ p.lorentz - eta))
        worst_lorentz = np.maximum(worst_lorentz, defect)

    worst_assoc = 0.0
    for size in _chunks(samples):
        a, b, c = (
            minkowski.poincare_from_draws(*draws)
            for draws in _stacked(
                tuple(minkowski.poincare_draws(n, rng) for _ in range(3)) for _ in range(size)
            )
        )
        left = minkowski.compose(minkowski.compose(a, b), c)
        right = minkowski.compose(a, minkowski.compose(b, c))
        worst_assoc = np.max([
            worst_assoc,
            np.max(np.abs(left.translation - right.translation)),
            np.max(np.abs(left.lorentz - right.lorentz)),
        ])

    worst_boost = 0.0
    for size in _chunks(samples):
        p_mag = rng.uniform(0.0, 2.0, size)
        s = minkowski.boost_x(p_mag, mass, n)
        s_inv = minkowski.boost_x(-p_mag, mass, n)
        worst_boost = np.maximum(worst_boost, np.max(np.abs(s @ s_inv - np.eye(n + 1))))

    if log_transforms:
        with open(log_transforms, "w", encoding="utf-8") as fh:
            fh.write(minkowski.transforms_to_json(transforms) + "\n")

    return [
        CheckRow("interval-invariance", samples, worst_interval, tol, {"n": n}),
        CheckRow("mass-shell-preservation", samples, worst_shell, tol, {"n": n}),
        CheckRow("metric-preservation", samples, worst_lorentz, tol, {"n": n}),
        CheckRow("composition-associativity", samples, worst_assoc, tol, {"n": n}),
        CheckRow("boost-inverse-roundtrip", samples, worst_boost, tol, {"n": n}),
    ]


def little_group_suite(n: int, mass: float, samples: int, seed: int, tol: float) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rest = minkowski.rest_momentum(mass, n).vector
    eta = minkowski.metric(n)
    axis = np.zeros(n + 1)
    axis[0] = 1.0
    frame = minkowski.proper_orthochronous_draws

    def point():
        return rng.uniform(-2, 2, n + 1)

    worst_fix = 0.0
    worst_so = 0.0
    for size in _chunks(samples):
        a, x, lam_draws, p_draws = _stacked(
            (point(), point(), frame(n, rng), frame(n, rng)) for _ in range(size)
        )
        lam = minkowski.proper_orthochronous_from_draws(*lam_draws)
        p = minkowski.momentum_from_draws(mass, *p_draws)
        g = minkowski.little_group_element(a, x, lam, p)
        b2, q2 = minkowski.apply_to_pair(g, np.zeros_like(a), rest)
        worst_fix = np.max([worst_fix, np.max(np.abs(b2)), np.max(np.abs(q2 - rest))])
        w = minkowski.wigner_rotation(lam, p)
        worst_so = np.max([
            worst_so,
            np.max(np.abs(np.swapaxes(w, -1, -2) @ eta @ w - eta)),
            np.max(np.abs(np.linalg.det(w) - 1.0)),
            np.max(np.abs(w[..., 0, :] - axis)),
            np.max(np.abs(w[..., :, 0] - axis)),
        ])

    worst_rotation = 0.0
    for size in _chunks(samples):
        gauss, a, x, p_draws = _stacked(
            (special_orthogonal_draws(n, rng), point(), point(), frame(n, rng))
            for _ in range(size)
        )
        rot = minkowski.spatial_rotation(special_orthogonal_from_gaussian(gauss))
        p = minkowski.momentum_from_draws(mass, *p_draws)
        g = minkowski.little_group_element(a, x, rot, p)
        worst_rotation = np.max([
            worst_rotation,
            np.max(np.abs(g.translation)),
            np.max(np.abs(g.lorentz - rot)),
        ])

    worst_comp = 0.0
    for size in _chunks(samples):
        a, a2, x, lam1_draws, lam2_draws, p_draws = _stacked(
            (point(), point(), point(), frame(n, rng), frame(n, rng), frame(n, rng))
            for _ in range(size)
        )
        lam1 = minkowski.proper_orthochronous_from_draws(*lam1_draws)
        lam2 = minkowski.proper_orthochronous_from_draws(*lam2_draws)
        p = minkowski.momentum_from_draws(mass, *p_draws)
        moved = minkowski.MassiveMomentum(minkowski.apply_lorentz(lam1, p.vector), mass)
        left = minkowski.compose(
            minkowski.little_group_element(a2, x + a, lam2, moved),
            minkowski.little_group_element(a, x, lam1, p),
        )
        right = minkowski.little_group_element(a + a2, x, lam2 @ lam1, p)
        worst_comp = np.max([
            worst_comp,
            np.max(np.abs(left.translation - right.translation)),
            np.max(np.abs(left.lorentz - right.lorentz)),
        ])

    return [
        CheckRow("little-group-fixes-rest-pair", samples, worst_fix, tol, {"n": n}),
        CheckRow("pure-rotation-reduction", samples, worst_rotation, tol, {"n": n}),
        CheckRow("induced-rotation-in-so-n", samples, worst_so, tol, {"n": n}),
        CheckRow("little-group-composition-law", samples, worst_comp, 10 * tol, {"n": n}),
    ]


def invariance_suite(n: int, mass: float, samples: int, seed: int, tol: float) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rep = poincare.rotation_rep(n)
    rest = minkowski.rest_momentum(mass, n)

    worst_pairing = 0.0
    for size in _chunks(samples):
        state, effect, gauss = _stacked(
            (
                zoo.sample_ball_state(n, rng),
                zoo.sample_ball_effect(n, rng),
                special_orthogonal_draws(n, rng),
            )
            for _ in range(size)
        )
        lam = minkowski.spatial_rotation(special_orthogonal_from_gaussian(gauss))
        g = minkowski.PoincareTransform(np.zeros((size, n + 1)), lam)
        effect = poincare.ClassicalMomentumEffect(rest, effect)
        state = poincare.ClassicalMomentumState(rest, state)
        deviation = poincare.invariance_deviation([(effect, state)], g, rep)
        worst_pairing = np.maximum(worst_pairing, deviation)

    rows = [CheckRow("pairing-invariance", samples, worst_pairing, tol / 10, {"n": n})]

    if n == 3:
        detectors = np.vstack([np.eye(3), -np.eye(3)])
        worst_det = 0.0
        worst_total = 0.0
        for size in _chunks(samples):
            state, gauss = _stacked(
                (zoo.sample_ball_state(3, rng), special_orthogonal_draws(3, rng))
                for _ in range(size)
            )
            result = poincare.detector_sphere_experiment(
                state, detectors, special_orthogonal_from_gaussian(gauss)
            )
            worst_det = np.maximum(worst_det, result.worst_deviation)
            worst_total = np.maximum(worst_total, np.max(np.abs(result.total_before - 1.0)))
        rows.append(CheckRow("detector-sphere-invariance", samples, worst_det, tol / 10))
        rows.append(CheckRow("detector-sphere-total-probability", samples, worst_total, tol / 1000))

    seedling = np.zeros(n)
    seedling[-1] = 1.0
    orbit = poincare.orbit_ball_reconstruction(
        n, seedling, rotation_count=samples, seed=seed, tol=tol / 10
    )
    rows.append(
        CheckRow("ball-orbit-reconstruction", samples, orbit.worst_deviation, tol / 10, {"n": n})
    )
    return rows


def toy_suite(sides: int, shift: int, tol: float) -> list[CheckRow]:
    _, report = poincare.toy_discrete_spacetime(sides, shift, tol)
    return list(report.rows)


def chsh_rows(locals_name: str, exact: bool, scenario_path: str | None) -> list[dict]:
    if scenario_path:
        with open(scenario_path, "r", encoding="utf-8") as fh:
            docs = composites.load_scenarios(fh.read())
    else:
        docs = [
            {
                "id": f"{locals_name}x{locals_name}",
                "local_a": locals_name,
                "local_b": locals_name,
            }
        ]
    return [composites.run_scenario(doc, exact=exact) for doc in docs]


def zoo_rows() -> list[CheckRow]:
    """Largest entry change of each theory's states, effect generators and
    reversibles over a JSON round trip; a change of shape reads inf."""
    rows = []
    for name in ("bit", "simplex:2", "polygon:3", "polygon:4", "ball:3"):
        theory = zoo.get_theory(name)
        before, after = (
            np.concatenate([t.extreme_states(), t.effect_generators(), *t.reversibles], axis=None)
            for t in (theory, theory_from_json(theory_to_json(theory)))
        )
        gap = np.max(np.abs(after - before)) if after.shape == before.shape else np.inf
        rows.append(CheckRow(f"zoo-roundtrip-{name}", 1, gap, 0.0))
    return rows


def _emit(docs: list[dict], fmt: str, out: str | None, columns=CHECK_COLUMNS) -> None:
    if fmt == "csv":
        text = composites.rows_to_csv(docs, columns)
    else:
        text = json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write report to {out!r}: {err}", file=sys.stderr)
            raise SystemExit(2)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptkit",
        description="Verification suites for convex operational theories and spacetime symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=3, help="spatial dimension (default 3)")
        p.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9, help="base tolerance")
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_zoo = sub.add_parser("zoo", help="export a theory as JSON or list the registry")
    p_zoo.add_argument("--name", type=str, default=None)
    p_zoo.add_argument("--list", action="store_true")
    p_zoo.add_argument("--out", type=str, default=None)

    p_chsh = sub.add_parser("chsh-scan", help="CHSH optimization over named locals")
    p_chsh.add_argument("--locals", type=str, default="polygon:4")
    p_chsh.add_argument("--scenario", type=str, default=None, help="scenario JSON file")
    p_chsh.add_argument("--exact", action="store_true", help="exact rational pivoting")
    p_chsh.add_argument("--out", type=str, default=None)
    p_chsh.add_argument("--format", choices=("json", "csv"), default="csv")

    p_mink = sub.add_parser("minkowski-checks")
    common(p_mink)
    p_mink.add_argument(
        "--log-transforms", type=str, default=None,
        help="also write the sampled transforms as a JSON array of {a, Lambda}",
    )
    for name in ("little-group-checks", "invariance-checks"):
        common(sub.add_parser(name))

    p_toy = sub.add_parser("toy-spacetime", help="lattice-translation representation checks")
    p_toy.add_argument("--N", type=int, default=5)
    p_toy.add_argument("--k", type=int, default=2)
    p_toy.add_argument("--tol", type=float, default=1e-12)
    p_toy.add_argument("--out", type=str, default=None)
    p_toy.add_argument("--format", choices=("json", "csv"), default="json")

    p_rep = sub.add_parser("report", help="run every suite and aggregate")
    common(p_rep)
    p_rep.add_argument("--exact", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    for invalid, message in (
        (not 0 < getattr(args, "tol", 1e-9) < np.inf, "--tol must be positive and finite"),
        (getattr(args, "n", 3) < 1, "--n must be at least 1"),
        (getattr(args, "samples", 1) < 1, "--samples must be at least 1"),
        (not 0 < getattr(args, "mass", 1.0) < np.inf, "--mass must be positive and finite"),
        (getattr(args, "seed", 0) < 0, "--seed must be nonnegative"),
    ):
        if invalid:
            print(f"error: {message}", file=sys.stderr)
            return 2

    if args.command == "zoo":
        if args.list or not args.name:
            _emit([{"name": n} for n in zoo.theory_names()], "json", args.out)
            return 0
        try:
            theory = zoo.get_theory(args.name)
        except (KeyError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        _write(theory_to_json(theory) + "\n", args.out)
        return 0

    if args.command == "chsh-scan":
        try:
            rows = chsh_rows(args.locals, args.exact, args.scenario)
        except (KeyError, ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        _emit(rows, args.format, args.out, composites.CSV_COLUMNS)
        return 0

    if args.command == "minkowski-checks":
        rows = minkowski_suite(
            args.n, args.mass, args.samples, args.seed, args.tol, args.log_transforms
        )
    elif args.command == "little-group-checks":
        rows = little_group_suite(args.n, args.mass, args.samples, args.seed, args.tol)
    elif args.command == "invariance-checks":
        rows = invariance_suite(args.n, args.mass, args.samples, args.seed, args.tol)
    elif args.command == "toy-spacetime":
        try:
            rows = toy_suite(args.N, args.k, args.tol)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    elif args.command == "report":
        rows = []
        for n in (2, 3, 4):
            rows += minkowski_suite(n, args.mass, args.samples, args.seed, args.tol)
        rows += little_group_suite(args.n, args.mass, args.samples, args.seed, args.tol)
        for n in (2, 3, 4):
            rows += invariance_suite(n, args.mass, args.samples, args.seed, args.tol)
        rows += toy_suite(5, 2, 1e-12)
        rows += zoo_rows()
        scan = chsh_rows("polygon:4", args.exact, None) + chsh_rows("bit", args.exact, None)
        for row in scan:
            gap = abs(row["chsh_value"] - (4.0 if row["local_a"] == "polygon:4" else 2.0))
            rows.append(CheckRow(f"chsh-{row['local_a']}", 1, gap, 1e-6))
    else:  # pragma: no cover
        return 2

    _emit([row.as_dict() for row in rows], args.format, args.out)
    return 0 if all(row.passed for row in rows) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
