#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Workloads mirror the verification sweeps: bracket-matrix determinants
and permutation-table accumulation, plus the q-distance matrix D_q of one
n = 24 tree, where the compiled kernel overflows and hands the matrix to
the pure one, and the D*_q of the same tree, which the compiled kernel
takes to the end.  Each time is the best of five ``timeit`` repeats, each
repeat long enough for ``Timer.autorange``, per call; a workload so slow
that a repeat is a single call takes the best of nine.  The kernels read matrices and
distance tables as the package stores them, rows of coefficient tuples
and rows of ints.  Build the C extension in place first (a C compiler
and the Python headers are needed); without it only the pure column is
printed:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import random
import timeit

from qdistmat import _kernels
from qdistmat._kernels import pure
from qdistmat.qmatrix import build_dq, build_dq_star
from qdistmat.treekit import all_pairs_distances, random_tree


def best_time(fn, repeat=5):
    """Seconds per call of fn: the best of ``repeat`` autoranged timings.

    When one call fills a repeat, a single slow call decides that repeat,
    so at least nine are taken.
    """
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    if number == 1:
        repeat = max(repeat, 9)
    return min(timer.repeat(repeat=repeat, number=number)) / number


def ms(seconds):
    return f"{seconds * 1e3:.3g}ms"


def make_matrix_workload(rng, count, n, max_weight):
    return [build_dq(random_tree(n, max_weight, rng.getrandbits(63))).rows
            for _ in range(count)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    rng = random.Random(12345)
    scale = 0.2 if args.quick else 1.0

    mats7 = make_matrix_workload(rng, int(150 * scale), 7, 4)
    tree24 = random_tree(24, 4, 0)
    dq24, dq_star24 = build_dq(tree24).rows, build_dq_star(tree24).rows
    dist8 = all_pairs_distances(random_tree(8, 1, 7)).rows
    dist7w = all_pairs_distances(random_tree(7, 4, 9)).rows

    workloads = [
        (f"bareiss_det, {len(mats7)} bracket matrices (n=7, weights<=4)",
         lambda k: [k.bareiss_det(m) for m in mats7]),
        ("bareiss_det, one D_q (n=24, weights<=4)",
         lambda k: k.bareiss_det(dq24)),
        ("bareiss_det, D*_q of the same tree",
         lambda k: k.bareiss_det(dq_star24)),
        ("perm_n_table, n=8 unit tree (40320 perms)",
         lambda k: k.perm_n_table(dist8, 8)),
        ("perm_m_coeffs, n=8 unit tree (40320 perms)",
         lambda k: k.perm_m_coeffs(dist8, 8)),
        ("perm_m_coeffs, n=7 weighted tree (5040 perms)",
         lambda k: k.perm_m_coeffs(dist7w, 7)),
    ]

    columns = [("pure", pure)]
    if _kernels.BACKEND == "compiled":
        # the dispatcher: a matrix the compiled kernel declines is timed
        # with its pure fallback included
        columns.insert(0, ("compiled", _kernels))
    else:
        print("compiled kernels are not built (`python setup.py build_ext "
              "--inplace`); timing the pure kernels only")
    header = f"{'workload':<55}" + "".join(f" {c:>10}" for c, _ in columns)
    if len(columns) == 2:
        header += f" {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, job in workloads:
        times = [best_time(lambda: job(k)) for _, k in columns]
        line = f"{name:<55}" + "".join(f" {ms(t):>10}" for t in times)
        if len(times) == 2:
            line += f" {times[1] / times[0]:>7.3g}x"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
