"""Drive the qdistmat CLI in-process and gate every answer it gives.

Each invocation goes through the click entry point with an argument list,
exactly as a shell would pass it; the exit code and the ``--output json``
document are all the benchmark reads back.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from workloads import Invocation, det_digest


@dataclass
class Outcome:
    passes: int = 0
    trees: int = 0
    failed: int = 0
    cli_s: float = 0.0
    problems: list[str] = field(default_factory=list)


def invoke(main, args) -> tuple[int, str]:
    """Run one CLI command; return its exit code and standard output."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            main.main(list(args), prog_name="qdistmat")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, buf.getvalue()


def gate(inv: Invocation, code: int, out: str) -> str | None:
    """Why this answer is wrong, or None when it matches the recorded one."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    try:
        return _mismatch(inv.expect, doc)
    except (AttributeError, KeyError, TypeError):
        return "output does not have the documented shape"


def _mismatch(want: dict, doc: dict) -> str | None:
    if doc["pass"] is not True:
        return "pass is not true"
    if "sha256" in want:  # det: one tree, four determinants
        if doc["tree"]["n"] != want["n"]:
            return f"tree has n={doc['tree']['n']}, expected {want['n']}"
        if len(doc["checks"]) != want["checks"]:
            return f"{len(doc['checks'])} checks, expected {want['checks']}"
        if det_digest(doc["checks"]) != want["sha256"]:
            return "determinant digest differs from the recorded one"
        return None
    for key in ("trees", "checks"):
        if doc[key] != want[key]:
            return f"{key} = {doc[key]}, expected {want[key]}"
    return None


def run(main, workload, passes, seconds: float, tracer=None) -> Outcome:
    """Closed loop: send each invocation only after the previous one is done.

    Runs whole passes from ``passes`` until ``seconds`` of CLI time are
    spent, always at least one. A pass that would repeat a CLI call already
    made in this process ends the run instead: a user repeating a command
    starts a fresh process, and an in-process repeat would let a cache that
    outlives one call answer it. With a tracer, every invocation is a
    ``cli`` span, and on tree-per-call workloads also a ``tree`` span.
    """
    res = Outcome()
    sent: set[tuple[str, ...]] = set()
    for todo in passes:
        if res.passes and (res.cli_s >= seconds or any(inv.args in sent for inv in todo)):
            break
        sent.update(inv.args for inv in todo)
        for inv in todo:
            res.trees += inv.trees
            root = tree = None
            start = perf_counter()
            if tracer is not None:
                root = tracer.open(tracer.name_id("cli"))
                if workload.tree_per_invocation:
                    tree = tracer.begin_tree()
            try:
                code, out = invoke(main, inv.args)
            except Exception:
                code, out = -1, ""
                traceback.print_exc(file=sys.stderr)
            finally:
                if tracer is not None:
                    if tree is not None:
                        tracer.end_tree(tree)
                    tracer.close(root)
            res.cli_s += perf_counter() - start
            problem = gate(inv, code, out)
            if problem is not None:
                # the CLI reports failures per corpus, so the whole call counts
                res.failed += inv.trees
                res.problems.append(f"{' '.join(inv.args)}: {problem}")
        res.passes += 1
    return res
