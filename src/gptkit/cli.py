"""Command-line front end: verification suites, CHSH scans, zoo exports.

Every subcommand emits a machine-readable report (JSON by default, CSV on
request) and exits 0 only when all its checks pass.  Reports are
deterministic: the same flags and seed give byte-identical output.  The
geometry suites work in stacks of up to SAMPLE_CHUNK samples and draw each
random variable as one array per stack, so a seed's sample stream is fixed
by the seed and SAMPLE_CHUNK together.  Each
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
from .rotations import sample_special_orthogonal

CHECK_COLUMNS = ["check", "samples", "worst_deviation", "tolerance", "pass"]

# Samples per stack in the geometry suites, so their arrays stay bounded
# for any --samples; changing it changes the samples a seed draws.
SAMPLE_CHUNK = 256


def _chunks(samples: int):
    """Sizes of the successive stacks that make up `samples`."""
    for start in range(0, samples, SAMPLE_CHUNK):
        yield min(SAMPLE_CHUNK, samples - start)


def _worst(samples: int, measure) -> list:
    """Worst deviation of each row over the stacks that make up `samples`.

    `measure(size)` draws one stack and returns, per row, a list of
    deviation arrays; a row's worst is their largest absolute entry over all
    stacks.  np.max, unlike max(), keeps a NaN from any stack.
    """
    stacks = [[np.max([np.max(np.abs(dev)) for dev in row]) for row in measure(size)]
              for size in _chunks(samples)]
    return list(np.max(stacks, axis=0))


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
    transforms = []

    def invariants(size):
        p = minkowski.random_poincare(n, rng, size)
        x = rng.uniform(-3, 3, (size, n + 1))
        y = rng.uniform(-3, 3, (size, n + 1))
        q = minkowski.random_momentum(mass, n, rng, size)
        if log_transforms:
            transforms.append(p)
        moved = minkowski.interval(minkowski.apply_poincare(p, x), minkowski.apply_poincare(p, y))
        return (
            [minkowski.interval(x, y) - moved],
            [minkowski.minkowski_norm2(minkowski.apply_lorentz(p.lorentz, q.vector) / mass) + 1.0],
            [np.swapaxes(p.lorentz, -1, -2) @ eta @ p.lorentz - eta],
        )

    def associativity(size):
        a, b, c = (minkowski.random_poincare(n, rng, size) for _ in range(3))
        left = minkowski.compose(minkowski.compose(a, b), c)
        right = minkowski.compose(a, minkowski.compose(b, c))
        return ([left.translation - right.translation, left.lorentz - right.lorentz],)

    def boost_roundtrip(size):
        p_mag = mass * rng.uniform(0.0, 2.0, size)
        s = minkowski.boost_x(p_mag, mass, n)
        s_inv = minkowski.boost_x(-p_mag, mass, n)
        return ([s @ s_inv - np.eye(n + 1)],)

    interval, shell, metric = _worst(samples, invariants)
    (assoc,) = _worst(samples, associativity)
    (roundtrip,) = _worst(samples, boost_roundtrip)
    if log_transforms:
        _write(minkowski.transforms_to_json(transforms) + "\n", log_transforms)
    return [
        CheckRow("interval-invariance", samples, interval, tol, {"n": n}),
        CheckRow("mass-shell-preservation", samples, shell, tol, {"n": n}),
        CheckRow("metric-preservation", samples, metric, tol, {"n": n}),
        CheckRow("composition-associativity", samples, assoc, tol, {"n": n}),
        CheckRow("boost-inverse-roundtrip", samples, roundtrip, tol, {"n": n}),
    ]


def little_group_suite(n: int, mass: float, samples: int, seed: int, tol: float) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rest = minkowski.rest_momentum(mass, n).vector
    eta = minkowski.metric(n)
    axis = np.zeros(n + 1)
    axis[0] = 1.0

    def point(size):
        return rng.uniform(-2, 2, (size, n + 1))

    def frame(size):
        return minkowski.random_proper_orthochronous(n, rng, size)

    def momentum(size):
        return minkowski.random_momentum(mass, n, rng, size)

    def fix_and_rotation(size):
        a, x, lam, p = point(size), point(size), frame(size), momentum(size)
        g = minkowski.little_group_element(a, x, lam, p)
        b2, q2 = minkowski.apply_to_pair(g, np.zeros_like(a), rest)
        w = minkowski.wigner_rotation(lam, p)
        in_so = [np.swapaxes(w, -1, -2) @ eta @ w - eta, np.linalg.det(w) - 1.0,
                 w[..., 0, :] - axis, w[..., :, 0] - axis]
        return [b2, (q2 - rest) / mass], in_so

    def pure_rotation(size):
        rot = minkowski.spatial_rotation(sample_special_orthogonal(n, rng, size))
        a, x, p = point(size), point(size), momentum(size)
        g = minkowski.little_group_element(a, x, rot, p)
        return ([g.translation, g.lorentz - rot],)

    def composition(size):
        a, a2, x = point(size), point(size), point(size)
        lam1, lam2, p = frame(size), frame(size), momentum(size)
        moved = minkowski.MassiveMomentum(minkowski.apply_lorentz(lam1, p.vector), mass)
        left = minkowski.compose(
            minkowski.little_group_element(a2, x + a, lam2, moved),
            minkowski.little_group_element(a, x, lam1, p),
        )
        right = minkowski.little_group_element(a + a2, x, lam2 @ lam1, p)
        return ([left.translation - right.translation, left.lorentz - right.lorentz],)

    fix, so = _worst(samples, fix_and_rotation)
    (reduction,) = _worst(samples, pure_rotation)
    (law,) = _worst(samples, composition)
    return [
        CheckRow("little-group-fixes-rest-pair", samples, fix, tol, {"n": n}),
        CheckRow("pure-rotation-reduction", samples, reduction, tol, {"n": n}),
        CheckRow("induced-rotation-in-so-n", samples, so, tol, {"n": n}),
        CheckRow("little-group-composition-law", samples, law, 10 * tol, {"n": n}),
    ]


def invariance_suite(n: int, mass: float, samples: int, seed: int, tol: float) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rep = poincare.rotation_rep(n)
    rest = minkowski.rest_momentum(mass, n)

    def pairing(size):
        state = poincare.ClassicalMomentumState(rest, zoo.sample_ball_state(n, rng, size))
        effect = poincare.ClassicalMomentumEffect(rest, zoo.sample_ball_effect(n, rng, size))
        lam = minkowski.spatial_rotation(sample_special_orthogonal(n, rng, size))
        g = minkowski.PoincareTransform(np.zeros((size, n + 1)), lam)
        return ([poincare.invariance_deviation([(effect, state)], g, rep)],)

    (pairing_dev,) = _worst(samples, pairing)
    rows = [CheckRow("pairing-invariance", samples, pairing_dev, tol / 10, {"n": n})]

    if n == 3:
        detectors = np.vstack([np.eye(3), -np.eye(3)])

        def detector_sphere(size):
            state = zoo.sample_ball_state(3, rng, size)
            result = poincare.detector_sphere_experiment(
                state, detectors, sample_special_orthogonal(3, rng, size)
            )
            return [result.worst_deviation], [result.total_before - 1.0]

        detector_dev, total_dev = _worst(samples, detector_sphere)
        rows.append(CheckRow("detector-sphere-invariance", samples, detector_dev, tol / 10))
        rows.append(CheckRow("detector-sphere-total-probability", samples, total_dev, tol / 1000))

    seedling = np.zeros(n)
    seedling[-1] = 1.0
    orbit = poincare.orbit_ball_reconstruction(
        n, seedling, rotation_count=samples, seed=seed, tol=tol / 10
    )
    orbit_dev = np.max([row.worst_deviation for row in orbit])
    rows.append(CheckRow("ball-orbit-reconstruction", samples, orbit_dev, tol / 10, {"n": n}))
    return rows


def chsh_rows(locals_name: str | None, exact: bool, scenario_path: str | None) -> list[dict]:
    """The scenario file's rows, else those of `locals_name` (default
    polygon:4) facing itself."""
    if scenario_path:
        with open(scenario_path, "r", encoding="utf-8") as fh:
            docs = composites.load_scenarios(fh.read())
    else:
        name = "polygon:4" if locals_name is None else locals_name
        docs = [{"id": f"{name}x{name}", "local_a": name, "local_b": name}]
    return composites.run_scenarios(docs, exact=exact)


def zoo_rows() -> list[CheckRow]:
    """Largest entry change of each theory's states, effect rows and
    reversibles over a JSON round trip; a change of shape reads inf."""
    rows = []
    for name in ("bit", "simplex:2", "polygon:3", "polygon:4", "ball:3"):
        theory = zoo.get_theory(name)
        before, after = (
            np.concatenate([t.extreme_states(), t.effect_rows(), *t.reversibles], axis=None)
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
            print(f"error: cannot write {out!r}: {err}", file=sys.stderr)
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
    which = p_zoo.add_mutually_exclusive_group()
    which.add_argument("--name", type=str, default=None)
    which.add_argument("--list", action="store_true")
    p_zoo.add_argument("--out", type=str, default=None)

    p_chsh = sub.add_parser("chsh-scan", help="CHSH optimization over named locals")
    source = p_chsh.add_mutually_exclusive_group()
    source.add_argument("--locals", type=str, default=None, help="default polygon:4")
    source.add_argument("--scenario", type=str, default=None, help="scenario JSON file")
    p_chsh.add_argument("--exact", action="store_true",
                        help="exact rational pivoting; a ball side stays on the float path")
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
            rows = poincare.toy_discrete_spacetime(args.N, args.k, args.tol)
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
        rows += poincare.toy_discrete_spacetime(5, 2, 1e-12)
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
