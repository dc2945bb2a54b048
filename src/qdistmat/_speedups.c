/* qdistmat._speedups: the permutation sweep of permlab in 64-bit words.

   perm_tables reads an n x n distance table as one buffer of n*n signed
   64-bit integers, row by row (permlab passes array("q")), sweeps the n!
   permutations once and reads both tables off two signed integer
   histograms, with no polynomial products (see its comment).  It returns
   None whenever the computation cannot be completed safely in machine
   words (a buffer that is not n*n integers, a negative entry, a histogram
   past MAX_SPAN, or an arithmetic step that would wrap); permlab then runs
   its pure sweep, so results are identical whichever backend executes.

   Plain C against the Python C API, with the GCC/Clang overflow builtins.
   Build in place with `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef long long ll;

/* permutation sweep: most vertices, and widest histogram */
#define MAX_PERM_N 12
#define MAX_SPAN (1LL << 22)

#define ADD_OVF(a, b, r) __builtin_saddll_overflow((a), (b), (r))
#define SUB_OVF(a, b, r) __builtin_ssubll_overflow((a), (b), (r))

/* A new list of v[0..n-1]. */
static PyObject *
ll_list(const ll *v, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLongLong(v[i]);
        if (x == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, x);
    }
    return list;
}

static int
trimmed(const ll *buf, int len)
{
    while (len && buf[len - 1] == 0)
        len--;
    return len;
}

/* Lexicographic successor of a[0..n-1]; flips *sign by the parity of the
   step.  0 when a was the last permutation. */
static inline int
next_perm(int *a, int n, int *sign)
{
    int i = n - 2, j = n - 1, t, flips = 1;
    while (i >= 0 && a[i] >= a[i + 1])
        i--;
    if (i < 0)
        return 0;
    while (a[j] <= a[i])
        j--;
    t = a[i]; a[i] = a[j]; a[j] = t;
    for (int lo = i + 1, hi = n - 1; lo < hi; lo++, hi--, flips++) {
        t = a[lo]; a[lo] = a[hi]; a[hi] = t;
    }
    if (flips & 1)
        *sign = -*sign;
    return 1;
}

/* Both permutation tables of the n x n table in the buffer, from one sweep.

   N = sum_s sgn(s) q^L(s), with L(s) = sum_i d(i, s(i)), is the histogram
   hN.  M = sum_s sgn(s) prod_i [d(i, s(i))] needs no bracket products:
   since [d](1 - q) = 1 - q^d,

       (1 - q)^n M = sum_s sgn(s) prod_i (1 - q^d(i,s(i))).

   Expand each product over the set S of rows that take the q-term.  The
   term of (s, S) does not depend on s(i) for a row i outside S, so when
   two or more rows lie outside S, swapping s(i) and s(j) for the two
   smallest of them pairs it with a term of opposite sign.  Only S = all
   rows survives, giving (-1)^n N, and S = all rows but i, giving
   (-1)^(n-1) R with R = sum_s sgn(s) sum_i q^(L(s) - d(i, s(i))).  So
   M = (-1)^n (N - R) / (1 - q)^n = (N - R) / (q - 1)^n, for every table
   of nonnegative integers.  The sweep fills hM with N - R; each of the n
   divisions by q - 1 is a negated prefix sum whose last entry, the
   remainder, must be 0.  Returns (N, M) as two lists, or None. */
static PyObject *
perm_tables(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer table;
    PyObject *result = NULL, *nlist = NULL, *mlist = NULL;
    int n_arg, i, sign = 1;
    if (!PyArg_ParseTuple(args, "y*i:perm_tables", &table, &n_arg))
        return NULL;
    const int n = n_arg;  /* never addressed, so the sweep keeps it in a register */
    ll *nd = NULL, *hist = NULL;
    int *perm = NULL;
    if (n < 1 || n > MAX_PERM_N || table.len != (Py_ssize_t)(n * n) * (Py_ssize_t)sizeof(ll))
        goto done;
    nd = PyMem_Malloc((size_t)(n * n) * sizeof(ll));
    perm = PyMem_Malloc((size_t)n * sizeof(int));
    if (nd == NULL || perm == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(nd, table.buf, (size_t)table.len);
    /* the histograms span 0 .. the sum of the row maxima */
    ll smax = 0;
    for (i = 0; i < n; i++) {
        ll rmax = 0;
        for (int j = 0; j < n; j++) {
            if (nd[i * n + j] < 0)
                goto done;
            if (nd[i * n + j] > rmax)
                rmax = nd[i * n + j];
        }
        if (ADD_OVF(smax, rmax, &smax) || smax > MAX_SPAN)
            goto done;
    }
    hist = PyMem_Calloc(2 * ((size_t)smax + 1), sizeof(ll));
    if (hist == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    ll *hN = hist, *hM = hist + smax + 1;
    for (i = 0; i < n; i++)
        perm[i] = i;
    /* every index lies between 0 and the checked sum of row maxima, and
       every count is at most (n + 1) n! < 2^33 in absolute value */
    do {
        ll s = 0;
        for (i = 0; i < n; i++)
            s += nd[i * n + perm[i]];
        hN[s] += sign;
        hM[s] += sign;
        for (i = 0; i < n; i++)
            hM[s - nd[i * n + perm[i]]] -= sign;
    } while (next_perm(perm, n, &sign));

    int len = (int)smax + 1;
    for (int pass = 0; pass < n && (len = trimmed(hM, len)) > 0; pass++) {
        for (i = 0; i < len; i++) {
            if (SUB_OVF(i ? hM[i - 1] : 0, hM[i], &hM[i]))
                goto done;
        }
        if (hM[--len] != 0)
            goto done;
    }
    if ((nlist = ll_list(hN, trimmed(hN, (int)smax + 1))) != NULL
        && (mlist = ll_list(hM, trimmed(hM, len))) != NULL)
        result = PyTuple_Pack(2, nlist, mlist);

done:
    PyBuffer_Release(&table);
    Py_XDECREF(nlist);
    Py_XDECREF(mlist);
    PyMem_Free(nd);
    PyMem_Free(perm);
    PyMem_Free(hist);
    /* neither a result nor an exception: decline, and the pure sweep runs */
    if (result == NULL && !PyErr_Occurred())
        Py_RETURN_NONE;
    return result;
}

static PyMethodDef speedups_methods[] = {
    {"perm_tables", perm_tables, METH_VARARGS,
     "The N- and M-tables of an n*n int64 distance buffer from one permutation sweep, or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "The compiled permutation sweep: 64-bit histograms, or None.",
    .m_size = -1,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&speedups_module);
}
