"""Signed permutation statistics on trees, by brute force.

Two tables per tree, each returned as its generating polynomial
sum_k c_k q^k: the signed histogram of permutation lengths
sum_i d(v_i, v_sigma(i)) (the N-table), and the signed count of bounded
compositions below those distances (the M-table).  The paper's results say
these polynomials are det D*_q and det D_q; ``perm_tables`` takes both
from one sweep over all n! permutations and uses no determinant or matrix
code, so it stays an independent check of the elimination route.  The
compiled sweep reads M off N and one more signed histogram R, by the
identity M = (-1)^n (N - R) / (1 - q)^n (``_kernels.pure.perm_tables``).
On simple trees the tables are therefore ``closedforms.dq_star_simple``
and ``dq_simple``; this module keeps no closed form of its own.
"""

from __future__ import annotations

from . import _kernels
from .polyring import ONE, Poly, qbracket
from .treekit import WeightedTree, all_pairs_distances, as_int

__all__ = [
    "PERM_MAX_N",
    "Permutation",
    "sign",
    "length_on_tree",
    "perm_tables",
    "phi_count_direct",
    "phi_count_poly",
]

PERM_MAX_N = 9


class Permutation:
    """A permutation of 1..n given by its image sequence."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(map(as_int, images))
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        self.images = images

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def sign(p: Permutation) -> int:
    """Parity via cycle decomposition: (-1)^(n - number of cycles)."""
    images = p.images
    n = len(images)
    seen = [False] * (n + 1)
    cycles = 0
    for start in range(1, n + 1):
        if not seen[start]:
            cycles += 1
            v = start
            while not seen[v]:
                seen[v] = True
                v = images[v - 1]
    return -1 if (n - cycles) % 2 else 1


def length_on_tree(p: Permutation, d: tuple) -> int:
    """Tree length of a permutation: sum over i of d(v_i, v_sigma(i)).

    ``d`` is a distance table as ``all_pairs_distances`` returns it.
    """
    return sum(_phi_bounds(p, d))


def perm_tables(t: WeightedTree) -> tuple[Poly, Poly]:
    """Both tables over all n! permutations: sum_k N_{n,k} q^k and sum_k M_{n,k} q^k.

    The M-table sums per-permutation bracket products, whose k-th
    coefficients are exactly the composition counts; phi_count_direct is
    the independent route used to cross-check that equivalence.
    """
    if t.n > PERM_MAX_N:
        raise ValueError(f"permutation sweeps capped at n = {PERM_MAX_N} (n! cost)")
    n_coeffs, m_coeffs = _kernels.perm_tables(all_pairs_distances(t), t.n)
    return Poly(n_coeffs), Poly(m_coeffs)


def _phi_bounds(p: Permutation, d: tuple) -> list[int]:
    # d(v_i, v_sigma(i)) for each i
    if len(p) != len(d):
        raise ValueError(f"permutation of size {len(p)} on table of size {len(d)}")
    return [row[j - 1] for row, j in zip(d, p.images)]


def phi_count_direct(p: Permutation, d: tuple, k: int) -> int:
    """Count compositions x_1+...+x_n = k with 0 <= x_i < d(v_i, v_sigma(i)).

    Dynamic programming over positions; a zero bound (in particular any
    fixed point of the permutation) makes every equation unsatisfiable.
    """
    if k < 0:
        return 0
    bounds = _phi_bounds(p, d)
    if any(b == 0 for b in bounds):
        return 0
    ways = [0] * (k + 1)
    ways[0] = 1
    for b in bounds:
        nxt = [0] * (k + 1)
        for s in range(k + 1):
            total = 0
            for x in range(min(b - 1, s) + 1):
                total += ways[s - x]
            nxt[s] = total
        ways = nxt
    return ways[k]


def phi_count_poly(p: Permutation, d: tuple) -> Poly:
    """Generating polynomial of the composition counts: prod of brackets.

    The k-th coefficient equals phi_count_direct(p, d, k) for every k.
    """
    acc = ONE
    for b in _phi_bounds(p, d):
        acc = acc * qbracket(b)
        if not acc:
            break
    return acc
