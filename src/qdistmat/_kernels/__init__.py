"""The permutation sweep, compiled or pure.

``perm_tables`` returns both permutation tables of a distance table, the
signed length histogram N and the signed bracket-product sum M, from one
sweep over the n! permutations.  The pure kernel (``pure.perm_tables``)
follows the definitions.  The compiled one (``_speedups``, hand-written C
against the Python C API, built by ``setup.py`` when a C compiler is
present) fills two signed 64-bit histograms, N and
R = sum_p sgn(p) sum_i q^(L(p) - d(i, p(i))), and divides:
M = (-1)^n (N - R) / (1 - q)^n.  See ``pure.perm_tables`` for the proof.
Whenever a table does not fit its machine words it returns None and the
pure kernel takes over, so results never depend on which backend ran.
Set ``QDISTMAT_PURE=1`` to force the pure backend.

Determinants have one route on every backend, ``exactdet.bareiss_det``.
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
    "perm_tables",
]


def perm_tables(dist, n):
    """(N, M) of the n x n table ``dist``: the compiled answer, or else the pure one.

    ``_speedups`` is looked up on every call, so a test or a tracer may
    swap it, or its ``perm_tables``, at run time.
    """
    if _speedups is not None:
        r = _speedups.perm_tables(dist, n)
        if r is not None:
            return r
    return _pure.perm_tables(dist, n)
