"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --src SRC --workload NAME --seed N --workdir DIR
                             [--setup-only] [--trace SPANS_CSV --run-id K]

Times set-up (``import gptkit.cli`` plus the first ``zoo.get_theory`` of
every local the workload uses), then runs the workload once, timed from
the first program call to the last verified output, and prints one JSON
object: setup_s, wall_s, peak_rss_mb, attempted, failures, digests and,
when traced, the per-layer metrics.  Only the standard library is loaded
before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from spec import LOCALS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(LOCALS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this CSV file")
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    import gptkit.cli
    from gptkit import zoo

    for name in LOCALS[args.workload]:
        zoo.get_theory(name)
    setup_s = time.perf_counter() - start

    src = Path(args.src).resolve()
    if src not in Path(gptkit.cli.__file__).resolve().parents:
        print(f"gptkit was imported from {gptkit.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.setup_only:
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__,
                              "blas": f"{blas.get('name')} {blas.get('version')}"}
    else:
        import workloads
        from tracer import Tracer

        prepare, execute = workloads.WORKLOADS[args.workload]
        prep = prepare(args.seed, Path(args.workdir))
        ledger = workloads.Ledger()
        tracer = Tracer(args.run_id) if args.trace else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        execute(prep, ledger)
        result["wall_s"] = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
            result["layers"], result["anchors"] = tracer.summarize()
            with open(args.trace, "w", encoding="utf-8") as fh:
                tracer.write_spans(fh)
        result.update(attempted=ledger.attempted, failures=ledger.failures,
                      digests=ledger.digests)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
