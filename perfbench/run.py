#!/usr/bin/env python3
"""qdistmat benchmark: seeded CLI sweeps, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` as it is, and nothing is built. Workloads and the
layer map are described in perfbench/README.md.

--trace 0: fresh interpreters run the workload as a closed loop until S
seconds of CLI time are spent; nine more, before and after, time set-up.
Metrics: trees_per_s, setup_s, peak_rss_mb.

--trace 1: one untraced workload process, then a traced one running the
same passes. Metrics: per-layer counts and self times.

Output: a provenance line, then one JSON result line. Both are also written
to ``.perfbench/`` at the checkout root, with the span file of a traced run.
A checkout without ``src/qdistmat`` is an error (exit 2, no result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qdistmat"
OUT = ROOT / ".perfbench"
PROBES_BEFORE, PROBES_AFTER = 5, 4
DEADLINE_S = 170


class ChildError(RuntimeError):
    pass


def spawn(deadline: float, *args: str) -> dict:
    """Run child.py in a fresh interpreter and return its result line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {' '.join(args)} ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {' '.join(args)} exited with {proc.returncode}")
    doc = json.loads(lines[-1])
    doc["setup_s"] = doc["ready_at"] - started
    return doc


def probe(deadline: float, common: list[str]) -> float:
    """Set-up time of one fresh interpreter that stops once set up."""
    return spawn(deadline, "--role", "probe", *common)["setup_s"]


def provenance(workload: str, seed: int, trace: int, backend: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": backend,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package's Python sources and built extensions."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".so") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no qdistmat sources at {PACKAGE}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if a.workload not in WORKLOADS:
        print(f"error: unknown workload {a.workload!r}; "
              f"choose from {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    try:
        if a.trace == 0:
            # set-up probes before and after the workload, so that their
            # median spans the run rather than one moment of it
            setups = [probe(deadline, common) for _ in range(PROBES_BEFORE)]
            runs = []
            # a process ends its run rather than repeat a CLI call, so a
            # workload whose passes repeat takes one fresh process per pass
            while not runs or sum(r["cli_s"] for r in runs) < a.seconds:
                left = a.seconds - sum(r["cli_s"] for r in runs)
                runs.append(spawn(deadline, "--role", "measure", "--seconds", repr(left),
                                  *common))
            setups += [probe(deadline, common) for _ in range(PROBES_AFTER)]
            metrics = {
                "trees_per_s": (sum(r["trees"] for r in runs) / sum(r["cli_s"] for r in runs),
                                "1/s"),
                "setup_s": (statistics.median(setups + [r["setup_s"] for r in runs]), "s"),
                "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
            }
        else:
            base = spawn(deadline, "--role", "measure", "--seconds", str(a.seconds), *common)
            traced = spawn(deadline, "--role", "trace", "--passes", str(base["passes"]),
                           "--baseline-s", repr(base["cli_s"]),
                           "--trace-file", str(OUT / f"{a.workload}-seed{a.seed}.spans.jsonl.gz"),
                           *common)
            runs = [base, traced]
            metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
            for layer in traced["missing"]:
                print(f"warning: layer {layer} is missing: none of its functions is bound",
                      file=sys.stderr)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["trees"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        print(f"gate: {p}", file=sys.stderr)
    prov = provenance(a.workload, a.seed, a.trace, runs[-1]["backend"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"provenance": prov, "passes": [r["passes"] for r in runs],
              "missing": runs[-1].get("missing", []),
              "problems": problems, "result": result}
    (OUT / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
