"""Matrices over the integer polynomial ring, built from tree distances.

Four constructions: the plain distance matrix, its two q-analogues (bracket
entries and monomial entries), and the all-ones shift used by the rank-one
perturbation determinant, and the tree-congruent form of each of them
that the determinants are taken of.  Minors are taken by
deleting 1-based row and column index sets, matching the
superscript/subscript minor notation.

A matrix is a tuple of rows, each a tuple of entries, and an entry is its
canonical coefficient tuple, the form of ``Poly.coeffs``; the determinant
kernels read the rows as they are stored.  Every entry is a function of
one distance, and a builder makes one tuple per distinct distance and
shares it across the matrix.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable

from .polyring import pack, qbracket, qpower, unpack
from .treekit import WeightedTree, all_pairs_distances

__all__ = [
    "build_d",
    "build_dq",
    "build_dq_star",
    "build_d_plus_xJ",
    "minor",
    "tree_congruent",
]


def _from_distances(t: WeightedTree, f: Callable[[int], tuple]) -> tuple:
    dist = all_pairs_distances(t)
    entry = {x: f(x) for x in set().union(*dist)}
    return tuple(tuple([entry[x] for x in row]) for row in dist)


def build_d(t: WeightedTree) -> tuple:
    """Distance matrix with constant-polynomial entries d(v_i, v_j)."""
    return _from_distances(t, lambda x: (x,) if x else ())


def build_dq(t: WeightedTree) -> tuple:
    """Bracket q-distance matrix: entry (i, j) is [d(v_i, v_j)]."""
    return _from_distances(t, lambda x: qbracket(x).coeffs)


def build_dq_star(t: WeightedTree) -> tuple:
    """Monomial q-distance matrix: entry (i, j) is q^d(v_i, v_j), diagonal 1."""
    return _from_distances(t, lambda x: qpower(x).coeffs)


def build_d_plus_xJ(t: WeightedTree) -> tuple:
    """Distance matrix shifted by x times the all-ones matrix.

    The ring indeterminate plays the role of x here; entries are d + x.
    """
    return _from_distances(t, lambda x: (x, 1))


def tree_congruent(t: WeightedTree, m: tuple, unit: bool = False) -> tuple:
    """C = L M L^T, Graham and Pollak's congruence, for M = D*_q or D_q of t,
    or, with ``unit``, for M = D or D + xJ.

    Root t at r, its smallest label of degree at least 2 (vertex 1 when
    n <= 2).  Each other vertex v has a parent p(v) and the weight w_v of
    the edge (v, p(v)); let c_v = q^(w_v), or c_v = 1 with ``unit``, and

        L = I - sum_(v != r) c_v e_v e_p(v)^T.

    Listed in breadth-first order from r, every parent comes before its
    child, so L is unit lower triangular.  Entry (v, u) of C = L M L^T is
    M_vu - c_v M_p(v)u - c_u M_vp(u) + c_v c_u M_p(v)p(u), the terms with
    a parent of r left out.  When M_rr = 0, as on the diagonal of D_q,
    (1 - c_v) times row r is then subtracted from every row v != r: C
    becomes L'C with L' = I - sum_(v != r) (1 - c_v) e_v e_r^T, unit lower
    triangular as r comes first.  C is computed from the entries of M and
    the parent map alone; on D*_q it is diag(1, 1 - q^(2 w_v)), and on
    D_q an arrowhead: row r is (0, [w_u]), column r is ([w_v]), and the
    rest of the diagonal is -[2 w_v].

    With ``unit`` (every c_v = 1, and L' = I), D becomes the arrowhead
    [[0, w^T], [w, -2 diag(w)]]: f_v(x) = d(v, x) - d(p(v), x) is w_v for
    x outside the subtree of v and -w_v inside it, so entry (v, u), u and
    v not r, is f_v(u) - f_v(p(u)), which is -2 w_v when u = v (v inside,
    p(v) outside) and 0 otherwise (u and p(u) on the same side); entry
    (r, u) is d(r, u) - d(r, p(u)) = w_u, entry (v, r) is w_v by symmetry,
    and (r, r) is 0.  And L 1 = e_r, every row v != r of L summing to
    1 - 1, so L J L^T = e_r e_r^T: C of D + xJ is the same arrowhead with
    x in the root corner.

    Two facts make C a stand-in for M, for every square M of order n:

    - det C = det L' det L det M det L^T = det M.  Exactness does not
      depend on M or the c_v: a wrong multiplier only makes C denser and
      its determinant slower, never different.
    - Deleting rows R and columns S, both sets of non-root leaves, leaves
      the minor as it is.  C = K M L^T with K = L'L, whose row v is
      e_v - c_v e_p(v) - (1 - c_v) e_r.  No non-root leaf is anyone's
      parent, and r is in no deletion set, so K vanishes on the rows
      outside R and the columns in R, and L on the rows outside S and the
      columns in S.  Hence C[R', S'] = K[R', R'] M[R', S'] L[S', S']^T for
      the kept rows R' and columns S', and both outer factors are
      principal submatrices of unit triangular matrices, of determinant 1.

    The entries are computed packed, at q = 2^b (``polyring.pack``), where
    multiplying by c_v = q^(w_v) is a shift by b w_v bits (by 0 with
    ``unit``).  Each entry of C is a signed sum of at most 8 shifted
    entries of M, so its coefficients stay below 8 times the largest of M
    in absolute value, and b is wide enough to read them back.
    """
    n, adj = t.n, t.adjacency()
    root = next((v for v in range(1, n + 1) if len(adj[v]) > 1), 1) - 1
    entries = set(chain.from_iterable(m))
    bits = (8 * max(map(abs, chain.from_iterable(entries)), default=0)).bit_length() + 1
    # 0-based parent of each vertex, and the shift that multiplies by c_v
    parent, shift = [None] * n, [0] * n
    stack = [root]
    while stack:
        v = stack.pop()
        for u, w in adj[v + 1]:
            u -= 1
            if u != root and parent[u] is None:
                parent[u], shift[u] = v, 0 if unit else bits * w
                stack.append(u)
    packed = {e: pack(e, bits) for e in entries}
    rows = [list(map(packed.__getitem__, row)) for row in m]
    rows = [a if p is None else [x - (y << s) for x, y in zip(a, rows[p])]
            for a, p, s in zip(rows, parent, shift)]
    rows = [[x if p is None else x - (a[p] << s) for x, p, s in zip(a, parent, shift)]
            for a in rows]
    top = rows[root]
    if not top[root]:
        rows = [a if v == root else [x - y + (y << s) for x, y in zip(a, top)]
                for v, (a, s) in enumerate(zip(rows, shift))]
    entry = {x: tuple(unpack(x, bits)) for x in set(chain.from_iterable(rows))}
    return tuple(tuple(map(entry.__getitem__, a)) for a in rows)


def minor(m: tuple, rows: Iterable[int], cols: Iterable[int]) -> tuple:
    """Submatrix after deleting 1-based row set and column set of equal size."""
    n = len(m)
    rset, cset = set(rows), set(cols)
    if len(rset) != len(cset):
        raise ValueError("row and column deletion sets must have equal size")
    for idx in rset | cset:
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} out of range 1..{n}")
    if len(rset) == n:
        raise ValueError("cannot delete every row")
    keep_c = [j for j in range(n) if j + 1 not in cset]
    return tuple(tuple([row[j] for j in keep_c])
                 for i, row in enumerate(m) if i + 1 not in rset)
