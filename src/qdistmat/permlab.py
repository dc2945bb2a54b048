"""Signed permutation statistics on trees, by brute force.

Two tables per tree, each returned as its generating polynomial
sum_k c_k q^k: the signed histogram of permutation lengths
sum_i d(v_i, v_sigma(i)) (the N-table), and the signed count of bounded
compositions below those distances (the M-table).  The paper's results say
these polynomials are det D*_q and det D_q; ``perm_tables`` takes both
from one sweep over all n! permutations and uses no determinant or matrix
code, so it stays an independent check of the elimination route.

The sweep runs in C when the extension ``_speedups`` (``_speedups.c``,
built by ``setup.py`` when a C compiler is present) is importable, and in
Python (``_sweep``) otherwise; ``BACKEND`` names which.  The C sweep reads
M off N and one more signed histogram R, by the identity
M = (-1)^n (N - R) / (1 - q)^n, proved next to the code that uses it in
``_speedups.c``.  It declines, returning None, on any table that does not
fit its 64-bit words, and ``_sweep`` answers instead, so results never
depend on the backend.  On simple trees the tables are therefore
``closedforms.dq_star_simple`` and ``dq_simple``; this module keeps no
closed form of its own.
"""

from __future__ import annotations

import itertools
import operator
from array import array

from .polyring import ONE, Poly, qbracket
from .treekit import WeightedTree, all_pairs_distances, as_int

try:
    from . import _speedups
except ImportError:
    _speedups = None

BACKEND = "compiled" if _speedups is not None else "pure"

__all__ = [
    "BACKEND",
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
    dist, n = all_pairs_distances(t), t.n
    tables = None
    # ``_speedups`` is looked up on every call, so a test may swap it
    if _speedups is not None:
        try:
            tables = _speedups.perm_tables(array("q", itertools.chain.from_iterable(dist)), n)
        except OverflowError:  # a distance of 2^63 or more: decline as well
            pass
    n_coeffs, m_coeffs = tables or _sweep(dist, n)
    return Poly(n_coeffs), Poly(m_coeffs)


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    del coeffs[n:]
    return coeffs


def _perm_signs(n):
    # parity of every permutation of range(n) in itertools.permutations
    # order.  The block of permutations that start with a lists the rest in
    # the order of the permutations of n - 1 elements, and putting a in
    # front costs a transpositions: the parities of n - 1, written out n
    # times, with block a flipped when a is odd.
    signs = b"\x00"
    for m in range(2, n + 1):
        flipped = bytes(s ^ 1 for s in signs)
        signs = b"".join(flipped if a & 1 else signs for a in range(m))
    return signs


def _ones_mul(a, width):
    # a * (1 + q + ... + q^(width-1)) via a sliding window of prefix sums
    m = len(a)
    prefix = [0] * (m + 1)
    acc = 0
    for i, c in enumerate(a):
        acc += c
        prefix[i + 1] = acc
    out = [0] * (m + width - 1)
    for k in range(len(out)):
        hi = k + 1 if k < m else m
        lo = k - width + 1
        out[k] = prefix[hi] - (prefix[lo] if lo > 0 else 0)
    return out


def _sweep(dist, n):
    """Both permutation tables of the n x n table ``dist``, by their definitions.

    ``dist`` is a sequence of rows of plain Python ints, never modified.
    Returns (N, M) as canonical coefficient lists (little-endian by degree,
    the last entry nonzero, the zero polynomial empty), from one sweep over
    the n! permutations p.  N is the signed histogram of the lengths
    L(p) = sum_i d(i, p(i)): entry k is the even-minus-odd count of
    permutations of length k.  M is sum_p sgn(p) prod_i [d(i, p(i))], with
    [d] = 1 + q + ... + q^(d-1); a zero distance kills the term, which
    subsumes the fixed-point rule for distance tables.  A negative
    distance, which would index the histogram from its end, raises
    ValueError, and a table of fewer than n rows raises IndexError.

    The C sweep reads M off a second histogram instead, by the identity
    proved in ``_speedups.c``.  This one stays on the definition, so that
    the parity tests check the identity and the C sweep against it.
    """
    rows = [dist[i] for i in range(n)]  # a short table raises IndexError
    if any(d < 0 for row in rows for d in row[:n]):
        raise ValueError("distances must be nonnegative")
    signs = _perm_signs(n)
    hist = [0] * (sum(max(row[:n]) for row in rows) + 1)
    acc = []
    for odd, p in zip(signs, itertools.permutations(range(n))):
        ds = list(map(operator.getitem, rows, p))
        hist[sum(ds)] += -1 if odd else 1
        if 0 in ds:
            continue
        prod = [1]
        for w in ds:
            if w > 1:
                prod = _ones_mul(prod, w)
        if len(prod) > len(acc):
            acc.extend([0] * (len(prod) - len(acc)))
        if odd:
            for k, c in enumerate(prod):
                acc[k] -= c
        else:
            for k, c in enumerate(prod):
                acc[k] += c
    return _trim(hist), _trim(acc)


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
