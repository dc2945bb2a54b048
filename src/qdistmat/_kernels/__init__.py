"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled module (``_speedups``, built from Cython) accelerates the hot
inner loops with machine-word arithmetic and overflow detection; whenever a
computation cannot be carried out safely in 64-bit words it returns None and
the pure-Python kernel takes over, so results never depend on which backend
ran.  Set ``QDISTMAT_PURE=1`` to force the pure backend.

The pure ``bareiss_det`` is a Kronecker-substitution determinant: entries
are evaluated at q = 2^B, where B is chosen so that 2^(B-1) exceeds the
Hadamard bound sqrt(prod_i sum_j ||M_ij||_1^2) on every coefficient of
every minor; one fraction-free integer elimination follows, and the signed
base-2^B digits of the result are the determinant's coefficients.  See
``pure.bareiss_det`` for the proof sketch.
"""

import importlib
import os

from . import pure as _pure

_speedups = None
if os.environ.get("QDISTMAT_PURE") != "1":
    try:
        _speedups = importlib.import_module("._speedups", __name__)
    except ImportError:
        _speedups = None

BACKEND = "compiled" if _speedups is not None else "pure"

__all__ = [
    "BACKEND",
    "poly_mul",
    "poly_exact_div",
    "bareiss_det",
    "perm_n_table",
    "perm_m_coeffs",
]


def poly_mul(a, b):
    if _speedups is not None:
        r = _speedups.poly_mul(a, b)
        if r is not None:
            return r
    return _pure.poly_mul(a, b)


def poly_exact_div(a, b):
    if _speedups is not None:
        r = _speedups.poly_exact_div(a, b)
        if r is not None:
            return r
    return _pure.poly_exact_div(a, b)


def bareiss_det(rows):
    if _speedups is not None:
        r = _speedups.bareiss_det(rows)
        if r is not None:
            return r
    return _pure.bareiss_det(rows)


def perm_n_table(dist, n):
    if _speedups is not None:
        r = _speedups.perm_n_table(dist, n)
        if r is not None:
            return r
    return _pure.perm_n_table(dist, n)


def perm_m_coeffs(dist, n):
    if _speedups is not None:
        r = _speedups.perm_m_coeffs(dist, n)
        if r is not None:
            return r
    return _pure.perm_m_coeffs(dist, n)
