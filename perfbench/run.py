"""gptkit benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gptkit is imported from its ``src``.
One client in a closed loop: each repetition of the workload runs in a
fresh single-threaded interpreter (BLAS pools pinned to one thread), and
the next starts when it has ended, until ``--seconds`` have passed.  An
untraced run takes at least five set-up samples.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median wall time of one repetition, first call to last
               verified output
  setup_s      median of ``import gptkit.cli`` plus the first
               ``zoo.get_theory`` of every local the workload uses
  peak_rss_mb  median peak resident memory of a repetition's process
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of tracer.LAYER_METRICS, medians for times, plus
trace.overhead_s, the traced minus the untraced median wall time.  The
spans of the last traced repetition are written to
.perfbench_work/trace/<workload>/spans.csv.

Earlier lines of standard output describe the run; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  Failures of the seed
defect recorded in spec.KNOWN_DEFECT count in `failed` but leave
`correct` true; any other failure, output bytes that differ between two
repetitions of the same input, or counts that differ between two traced
repetitions make it false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import KNOWN_DEFECT, LOCALS
from tracer import COUNT_KINDS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_SETUP_SAMPLES = 5
REP_TIMEOUT_S = 150.0
# never start a repetition that could end past this point of the run
RUN_BUDGET_S = 160.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def repetition(workload: str, seed: int, workdir: Path, *, setup_only=False,
               trace: Path | None = None, run_id: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--src", str(SRC), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--run-id", str(run_id)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"repetition exceeded {REP_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def check_run(reps: list[dict], traced: list[bool]) -> tuple[int, list[dict], list[str]]:
    """Operations attempted, failures, and self-check problems of a run."""
    attempted = sum(rep["attempted"] for rep in reps)
    failures = [f for rep in reps for f in rep["failures"]]
    problems = []
    first = reps[0]["digests"]
    for k, rep in enumerate(reps[1:], start=2):
        for key, (digest, rows) in rep["digests"].items():
            if key in first and first[key][0] != digest:
                failures += [{"kind": "determinism",
                              "detail": f"{key}: repetition {k} output differs from 1"}] * rows
    counted = [rep["layers"] for rep, t in zip(reps, traced) if t]
    for layers in counted[1:]:
        for name, _, _ in LAYER_METRICS:
            if name.rpartition(".")[2] in COUNT_KINDS and layers[name] != counted[0][name]:
                problems.append(f"count {name} differs between traced repetitions: "
                                f"{counted[0][name]} vs {layers[name]}")
    return attempted, failures, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LOCALS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gptkit" / "cli.py").is_file():
        print(f"error: no gptkit sources under {SRC}; run from a gptkit checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = WORK / "trace" / args.workload / "spans.csv"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        # the first interpreter compiles bytecode and warms the file cache
        versions = repetition(args.workload, args.seed, workdir, setup_only=True)["versions"]
        reps: list[dict] = []
        traced: list[bool] = []
        started = time.perf_counter()
        longest = 0.0
        while True:
            elapsed = time.perf_counter() - started
            # a traced run needs a traced and an untraced repetition
            need_more = args.trace and len(set(traced)) < 2
            if reps and not need_more and elapsed >= args.seconds:
                break
            if reps and elapsed + longest > RUN_BUDGET_S:
                break
            trace_this = bool(args.trace) and len(reps) % 2 == 0
            t0 = time.perf_counter()
            reps.append(repetition(args.workload, args.seed, workdir,
                                   trace=spans if trace_this else None, run_id=len(reps)))
            traced.append(trace_this)
            longest = max(longest, time.perf_counter() - t0)
        setups = [rep["setup_s"] for rep, t in zip(reps, traced) if not t]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(repetition(args.workload, args.seed, workdir,
                                     setup_only=True)["setup_s"])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures, problems = check_run(reps, traced)
    walls = [rep["wall_s"] for rep, t in zip(reps, traced) if not t]
    if args.trace:
        layer_reps = [rep["layers"] for rep, t in zip(reps, traced) if t]
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            if name == "trace.overhead_s":
                traced_walls = [rep["wall_s"] for rep, t in zip(reps, traced) if t]
                value = median(traced_walls) - median(walls)
            elif name.rpartition(".")[2] in COUNT_KINDS:
                value = layer_reps[0][name]  # equal in every traced repetition
            else:
                value = median([layers[name] for layers in layer_reps])
            metrics[name] = {"value": value, "unit": unit}
        anchors = next(rep["anchors"] for rep, t in zip(reps, traced) if t)
        print(f"# LP counts per maximize_chsh call: {json.dumps(anchors)}")
    else:
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median([rep["peak_rss_mb"] for rep, t in zip(reps, traced)
                                             if not t]), "unit": "MB"},
        }

    print(f"# workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({sum(traced)} traced), {len(setups)} set-up samples, closed loop, 1 client, "
          f"BLAS threads pinned to 1, nproc {os.cpu_count()}, "
          + ", ".join(f"{k} {v}" for k, v in versions.items()))
    print(f"# wall_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    known = sum(1 for f in failures if f["kind"] == KNOWN_DEFECT)
    print(f"# failed_fraction = {len(failures)}/{attempted} = {len(failures) / attempted:.6g} "
          f"({known} from the recorded seed defect {KNOWN_DEFECT})")
    for failure in sorted({(f["kind"], f["detail"]) for f in failures})[:40]:
        print(f"# FAIL [{failure[0]}] {failure[1]}")
    for problem in problems:
        print(f"# SELF-CHECK {problem}")
    correct = not problems and all(f["kind"] == KNOWN_DEFECT for f in failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
