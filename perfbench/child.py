"""One workload process: set up, then probe, measure or trace.

    python3 perfbench/child.py --role probe|measure|trace --workload NAME --seed N ...

run.py starts each of these in a fresh interpreter, one at a time, with
``PYTHONPATH`` pointing at the checkout's ``src``. The last line of output
is one JSON object. Its ``ready_at`` is the monotonic clock (system-wide on
Linux) once ``qdistmat.cli`` is imported and the first pass's arguments
are ready, which is where set-up ends.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

from drive import run
from tracing import Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=["probe", "measure", "trace"], required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="measure: CLI time to fill")
    ap.add_argument("--passes", type=int, default=1, help="trace: passes to run")
    ap.add_argument("--baseline-s", type=float, default=0.0,
                    help="trace: untraced CLI time of the same passes")
    ap.add_argument("--trace-file", default=None, help="trace: where to write the spans")
    a = ap.parse_args(argv)

    import qdistmat
    import qdistmat.cli

    if Path(qdistmat.__file__).resolve().parent.parent != SRC:
        print(f"error: imported qdistmat from {qdistmat.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[a.workload]
    passes = workload.make_passes(a.seed)
    first = next(passes)
    result = {"ready_at": time.monotonic(), "backend": qdistmat.kernel_backend}
    if a.role == "probe":
        print(json.dumps(result))
        return 0

    cli = qdistmat.cli.main
    if a.role == "measure":
        out = run(cli, workload, itertools.chain([first], passes), a.seconds)
    else:
        # arguments are generated before the hooks go in, so that input
        # generation leaves no spans
        todo = [first] + [next(passes) for _ in range(a.passes - 1)]
        tracer = Tracer()
        tracer.install()
        try:
            out = run(cli, workload, todo, float("inf"), tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        wall = metrics["trace.wall_s"][0]
        metrics["trace.overhead_frac"] = (wall / a.baseline_s - 1 if a.baseline_s > 0 else 0.0,
                                          "ratio")
        result["metrics"] = metrics
        result["missing"] = tracer.missing
        if a.trace_file:
            tracer.write(a.trace_file)
    result.update(
        passes=out.passes, trees=out.trees, failed=out.failed, cli_s=out.cli_s,
        problems=out.problems,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
