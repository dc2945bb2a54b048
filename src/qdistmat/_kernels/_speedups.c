/* The compiled permutation sweep: perm_tables of qdistmat._kernels.pure
   in 64-bit words.

   It sweeps the n! permutations once and reads both tables off two
   signed integer histograms, with no polynomial products (see its
   comment).  It returns None whenever the computation cannot be completed
   safely in machine words (a value that does not fit in 64 bits, a
   histogram past MAX_SPAN, or an arithmetic step that would wrap); the
   caller then runs the pure kernel, so results are identical whichever
   backend executes.  Determinants are not taken here: the one
   elimination is exactdet.bareiss_det, in Python.

   Plain C against the Python C API, with the GCC/Clang overflow builtins.
   Build in place with `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef long long ll;

/* permutation sweep: most vertices, and widest histogram */
#define MAX_PERM_N 12
#define MAX_SPAN (1LL << 22)

#define ADD_OVF(a, b, r) __builtin_saddll_overflow((a), (b), (r))
#define SUB_OVF(a, b, r) __builtin_ssubll_overflow((a), (b), (r))

/* Read items 0..n-1 of seq into out: 0 ok, 1 when a value does not fit in
   64 bits, -1 with an exception set on any other failure. */
static int
seq_to_ll(PyObject *seq, ll *out, Py_ssize_t n)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of integers");
    if (fast == NULL)
        return -1;
    int rc = 0;
    for (Py_ssize_t i = 0; i < n && rc == 0; i++) {
        if (i >= PySequence_Fast_GET_SIZE(fast)) {
            PyErr_SetString(PyExc_IndexError, "sequence index out of range");
            rc = -1;
            break;
        }
        /* held, since converting a non-int may run code that edits seq */
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        int overflow;
        Py_INCREF(item);
        out[i] = PyLong_AsLongLongAndOverflow(item, &overflow);
        Py_DECREF(item);
        if (overflow)
            rc = 1;
        else if (out[i] == -1 && PyErr_Occurred())
            rc = -1;
    }
    Py_DECREF(fast);
    return rc;
}

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

/* Read the n x n table dist into nd[0 .. n*n-1] and each row's maximum
   into nd[n*n + i]: 0 ok, 1 on a value that does not fit in 64 bits or is
   negative, -1 with an exception set. */
static int
table_to_ll(PyObject *dist, ll *nd, int n)
{
    ll *rmax = nd + n * n;
    for (int i = 0; i < n; i++) {
        PyObject *row = PySequence_GetItem(dist, i);
        if (row == NULL)
            return -1;
        int rc = seq_to_ll(row, nd + i * n, n);
        Py_DECREF(row);
        if (rc)
            return rc;
        rmax[i] = 0;
        for (int j = 0; j < n; j++) {
            if (nd[i * n + j] < 0)
                return 1;
            if (nd[i * n + j] > rmax[i])
                rmax[i] = nd[i * n + j];
        }
    }
    return 0;
}

/* Both permutation tables of the n x n table dist, from one sweep.

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
    PyObject *dist, *result = NULL, *nlist = NULL, *mlist = NULL;
    int n_arg, i, sign = 1;
    if (!PyArg_ParseTuple(args, "Oi:perm_tables", &dist, &n_arg))
        return NULL;
    const int n = n_arg;  /* never addressed, so the sweep keeps it in a register */
    if (n < 1 || n > MAX_PERM_N)
        Py_RETURN_NONE;
    ll *nd = PyMem_Malloc((size_t)(n * n + n) * sizeof(ll)), *hist = NULL;
    int *perm = PyMem_Malloc((size_t)n * sizeof(int));
    ll smax = 0;
    if (nd == NULL || perm == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (table_to_ll(dist, nd, n))
        goto done;
    for (i = 0; i < n; i++) {
        if (ADD_OVF(smax, nd[n * n + i], &smax) || smax > MAX_SPAN)
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
    Py_XDECREF(nlist);
    Py_XDECREF(mlist);
    PyMem_Free(nd);
    PyMem_Free(perm);
    PyMem_Free(hist);
    /* neither a result nor an exception: decline, and the pure kernel runs */
    if (result == NULL && !PyErr_Occurred())
        Py_RETURN_NONE;
    return result;
}

static PyMethodDef speedups_methods[] = {
    {"perm_tables", perm_tables, METH_VARARGS,
     "The N- and M-tables of a distance table from one permutation sweep, or None."},
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
