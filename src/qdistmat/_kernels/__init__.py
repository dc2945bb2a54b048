"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled module (``_speedups``, hand-written C against the Python C API,
built by ``setup.py`` when a C compiler is present) implements
``bareiss_det`` and ``perm_tables`` with machine-word arithmetic and
overflow detection; whenever a computation cannot be carried out safely in
64-bit words it returns None and the pure-Python kernel takes over, so
results never depend on which backend ran.  Set
``QDISTMAT_PURE=1`` to force the pure backend.

The pure ``bareiss_det`` eliminates over the integers after Kronecker
substitution, at the width the Hadamard bound gives, in one route for
every matrix; ``pure.bareiss_det`` gives the method and its proof of
exactness.

``perm_tables`` returns both permutation tables of a distance table, the
signed length histogram N and the signed bracket-product sum M, from one
sweep over the n! permutations.  The pure kernel follows the definitions;
the compiled one fills two signed integer histograms, N and
R = sum_p sgn(p) sum_i q^(L(p) - d(i, p(i))), and divides:
M = (-1)^n (N - R) / (1 - q)^n.  See ``pure.perm_tables`` for the proof.
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
    "bareiss_det",
    "perm_tables",
]


def _dispatch(name):
    """The kernel ``name``: the compiled one's answer, or else the pure one's.

    ``_speedups`` and its attribute are looked up on every call, so a test
    or a tracer may swap either at run time.
    """
    fallback = getattr(_pure, name)

    def kernel(*args):
        if _speedups is not None:
            r = getattr(_speedups, name)(*args)
            if r is not None:
                return r
        return fallback(*args)

    kernel.__name__ = kernel.__qualname__ = name
    kernel.__doc__ = fallback.__doc__
    return kernel


bareiss_det = _dispatch("bareiss_det")
perm_tables = _dispatch("perm_tables")
