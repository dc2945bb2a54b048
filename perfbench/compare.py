#!/usr/bin/env python3
"""Compare two result records written by run.py.

    python3 perfbench/compare.py .perfbench/BASE.json .perfbench/NEW.json

Prints every metric of both runs with the relative change. Results from
different kernel backends (or workloads, or trace modes) measure different
programs: comparing them is an error (exit 2), not a regression.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    for key in ("backend", "workload", "trace"):
        a, b = base["provenance"][key], new["provenance"][key]
        if a != b:
            print(f"error: {key} differs ({a} vs {b}); these results do not compare",
                  file=sys.stderr)
            return 2
    for name, m in base["result"]["metrics"].items():
        other = new["result"]["metrics"].get(name)
        if other is None:
            print(f"{name:32s} {m['value']:>14.6g}  (absent in the second run)")
            continue
        a, b = m["value"], other["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name:32s} {a:>14.6g} {b:>14.6g} {m['unit']:>10s} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
