"""Exact determinants over the integer polynomial ring.

Two routes with different jobs: fraction-free Bareiss elimination is the
production path and cofactor expansion is the small-order oracle.
check_dodgson_identity evaluates both sides of the condensation identity
(the paper's Dodgson rule) with Bareiss determinants of minors:

    det(A) det(A with rows/cols i, j deleted)
        = det(A_{i,i}) det(A_{j,j}) - det(A_{i,j}) det(A_{j,i})

for any two rows and columns i < j, by default the first and last.

A matrix is a tuple of rows of canonical coefficient tuples, as the
``qmatrix`` builders return it.  Bareiss runs in the kernel layer
(``_kernels.bareiss_det``): the compiled C kernel eliminates over
polynomials in 64-bit words, and the pure kernel, which also takes over
when the compiled one would overflow, eliminates over the integers after
Kronecker substitution (``polyring.pack``) at the Hadamard width;
``_kernels.pure.bareiss_det`` gives the method and its proof of
exactness.  The width, and with it the cost, grows with the entries: the
identity suite hands the kernel D*_q and D_q in their tree-congruent
form (``qmatrix.tree_congruent``), which keeps the determinant and the
leaf minors and is far narrower.
"""

from __future__ import annotations

from typing import Optional

from . import _kernels
from .polyring import Poly, _make
from .qmatrix import minor

__all__ = [
    "det_bareiss",
    "det_cofactor",
    "check_dodgson_identity",
    "minor_det",
    "COFACTOR_MAX_ORDER",
]

COFACTOR_MAX_ORDER = 6


def det_bareiss(m: tuple) -> Poly:
    """Exact determinant by fraction-free Bareiss elimination in the kernel layer.

    The compiled kernel eliminates over polynomials.  The pure one
    eliminates Kronecker-packed integers at the Hadamard width
    (``_kernels.pure.bareiss_det``).  The kernel reads the rows of
    coefficient tuples as they are stored; it raises ValueError on an
    empty or non-square matrix.
    """
    return _make(_kernels.bareiss_det(m))


def det_cofactor(m: tuple) -> Poly:
    """Determinant by Laplace expansion along the first row (order <= 6)."""
    if not m or any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square and non-empty")
    if len(m) > COFACTOR_MAX_ORDER:
        raise ValueError(f"cofactor oracle capped at order {COFACTOR_MAX_ORDER}")
    return _cofactor(m)


def _cofactor(rows) -> Poly:
    n = len(rows)
    if n == 1:
        return _make(rows[0][0])
    acc = Poly()
    for j in range(n):
        a = rows[0][j]
        if not a:
            continue
        sub = tuple(row[:j] + row[j + 1 :] for row in rows[1:])
        term = _make(a) * _cofactor(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def minor_det(m: tuple, rows: tuple[int, ...], cols: tuple[int, ...],
              dets: dict) -> Poly:
    """Determinant of m with the 1-based rows and cols deleted (none: m itself).

    ``dets`` holds the determinants already taken on minors of this one
    matrix, keyed by (rows, cols) as sorted tuples; a minor found there is
    not recomputed, and a new one is added.
    """
    key = (tuple(sorted(rows)), tuple(sorted(cols)))
    if key not in dets:
        dets[key] = det_bareiss(minor(m, rows, cols) if rows or cols else m)
    return dets[key]


def check_dodgson_identity(m: tuple, dets: Optional[dict] = None,
                           pair: Optional[tuple[int, int]] = None) -> bool:
    """Evaluate both sides of the condensation identity on a full matrix.

    With m_{R,C} for m without the 1-based rows R and columns C, and i < j
    the ``pair`` (default (1, n), the first and last):

        det(m) det(m_{ij,ij}) = det(m_{i,i}) det(m_{j,j}) - det(m_{i,j}) det(m_{j,i}).

    Uses Bareiss determinants of the matrix and five minors; order must be
    at least 3.  ``dets``, as in ``minor_det``, lets a caller share these
    determinants with other identities on the same matrix.
    """
    n = len(m)
    if n < 3:
        raise ValueError("identity check needs order >= 3")
    i, j = (1, n) if pair is None else pair
    if not 1 <= i < j <= n:
        raise ValueError(f"pair must be 1 <= i < j <= {n}, got {(i, j)}")
    if dets is None:
        dets = {}

    def det(rows, cols):
        return minor_det(m, rows, cols, dets)

    lhs = det((), ()) * det((i, j), (i, j))
    rhs = det((i,), (i,)) * det((j,), (j,)) - det((i,), (j,)) * det((j,), (i,))
    return lhs == rhs
