#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Workloads mirror the verification sweeps: bracket-matrix determinants,
permutation-table accumulation, and raw polynomial products.  Run after
building the C extension in place (a C compiler and the Python headers are
needed):

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import random
import time

from qdistmat._kernels import _speedups, pure
from qdistmat.qmatrix import build_dq
from qdistmat.treekit import all_pairs_distances, random_tree


def best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def make_poly_workload(rng, count, deg):
    pairs = []
    for _ in range(count):
        a = [rng.randint(-99, 99) for _ in range(deg)] + [1]
        b = [rng.randint(-99, 99) for _ in range(deg)] + [1]
        pairs.append((a, b))
    return pairs


def make_matrix_workload(rng, count, n, max_weight):
    mats = []
    for _ in range(count):
        t = random_tree(n, max_weight, rng.getrandbits(63))
        m = build_dq(t)
        mats.append([[list(e.coeffs) for e in row] for row in m.rows])
    return mats


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    if _speedups is None:
        print("compiled kernels are not built; build them with "
              "`python setup.py build_ext --inplace` first")
        return 1

    rng = random.Random(12345)
    scale = 0.2 if args.quick else 1.0

    poly_pairs = make_poly_workload(rng, int(4000 * scale), 24)
    mats7 = make_matrix_workload(rng, int(150 * scale), 7, 4)
    dist8 = all_pairs_distances(random_tree(8, 1, 7)).as_lists()
    dist7w = all_pairs_distances(random_tree(7, 4, 9)).as_lists()

    workloads = [
        (f"poly_mul, {len(poly_pairs)} products of degree-24 polys",
         lambda k: [k.poly_mul(a, b) for a, b in poly_pairs]),
        (f"bareiss_det, {len(mats7)} bracket matrices (n=7, weights<=4)",
         lambda k: [k.bareiss_det(m) for m in mats7]),
        ("perm_n_table, n=8 unit tree (40320 perms)",
         lambda k: k.perm_n_table(dist8, 8)),
        ("perm_m_coeffs, n=8 unit tree (40320 perms)",
         lambda k: k.perm_m_coeffs(dist8, 8)),
        ("perm_m_coeffs, n=7 weighted tree (5040 perms)",
         lambda k: k.perm_m_coeffs(dist7w, 7)),
    ]

    header = f"{'workload':<55} {'compiled':>10} {'pure':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, job in workloads:
        fast = best_of(lambda: job(_speedups))
        # sanity: the compiled path must actually handle the workload
        sample = job(_speedups)
        assert sample is not None
        if isinstance(sample, list):
            assert all(item is not None for item in sample)
        slow = best_of(lambda: job(pure))
        print(f"{name:<55} {fast * 1e3:>8.1f}ms {slow * 1e3:>8.1f}ms "
              f"{slow / fast:>7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
