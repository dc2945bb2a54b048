/* Compiled kernels: 64-bit fast paths for the hot loops.

   bareiss_det and perm_tables of qdistmat._kernels.pure.  Each returns
   None whenever the computation cannot be completed safely in machine
   words (a value that does not fit in 64 bits, or an arithmetic step that
   would wrap); the dispatcher then reruns the pure kernel, so results are
   identical whichever backend executes.  perm_tables sweeps the n!
   permutations once and reads both tables off two signed integer
   histograms, with no polynomial products (see its comment).

   Plain C against the Python C API, with the GCC/Clang overflow builtins.
   Build in place with `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

typedef long long ll;

/* workspace ceiling for the elimination kernel, in 8-byte words */
#define MAX_WORKSPACE 4000000L
/* permutation sweep: most vertices, and widest histogram */
#define MAX_PERM_N 12
#define MAX_SPAN (1LL << 22)

#define ADD_OVF(a, b, r) __builtin_saddll_overflow((a), (b), (r))
#define SUB_OVF(a, b, r) __builtin_ssubll_overflow((a), (b), (r))
#define MUL_OVF(a, b, r) __builtin_smulll_overflow((a), (b), (r))

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

/* out = a * b for canonical a, b: 0 ok, 1 overflow */
static int
ll_mul(const ll *a, int la, const ll *b, int lb, ll *out, int *olen)
{
    ll t;
    if (la == 0 || lb == 0) {
        *olen = 0;
        return 0;
    }
    memset(out, 0, (size_t)(la + lb - 1) * sizeof(ll));
    for (int i = 0; i < la; i++) {
        if (a[i] == 0)
            continue;
        for (int j = 0; j < lb; j++) {
            if (MUL_OVF(a[i], b[j], &t) || ADD_OVF(out[i + j], t, &out[i + j]))
                return 1;
        }
    }
    *olen = la + lb - 1;
    return 0;
}

/* a -= b in place (a has room for lb words), then trim: 0 ok, 1 overflow */
static int
ll_sub_into(ll *a, int *la, const ll *b, int lb)
{
    int n = *la;
    if (lb > n) {
        memset(a + n, 0, (size_t)(lb - n) * sizeof(ll));
        n = lb;
    }
    for (int i = 0; i < lb; i++) {
        if (SUB_OVF(a[i], b[i], &a[i]))
            return 1;
    }
    *la = trimmed(a, n);
    return 0;
}

/* out = a / b exactly; a is clobbered as the remainder workspace.
   0 ok; 1 on overflow or when b does not divide a (the caller falls back). */
static int
ll_exactdiv(ll *a, int la, const ll *b, int lb, ll *out, int *olen)
{
    ll t;
    if (la == 0) {
        *olen = 0;
        return 0;
    }
    if (la < lb)
        return 1;
    ll lead = b[lb - 1];
    int nq = la - lb + 1;
    for (int k = nq - 1; k >= 0; k--) {
        ll c = a[k + lb - 1];
        out[k] = 0;
        if (c == 0)
            continue;
        if (lead == -1 && c == LLONG_MIN)
            return 1;
        ll coef = c / lead;
        if (coef * lead != c)
            return 1;
        out[k] = coef;
        for (int j = 0; j < lb; j++) {
            if (MUL_OVF(coef, b[j], &t) || SUB_OVF(a[k + j], t, &a[k + j]))
                return 1;
        }
    }
    for (int j = 0; j < lb - 1 && j < la; j++) {
        if (a[j] != 0)
            return 1;
    }
    *olen = trimmed(out, nq);
    return 0;
}

/* Every kernel leaves through one exit with a result, with an exception
   set, or with neither: then it declines and returns None, and the
   dispatcher reruns the pure kernel. */
static PyObject *
result_or_none(PyObject *result)
{
    if (result == NULL && !PyErr_Occurred())
        Py_RETURN_NONE;
    return result;
}

/* Row i of the matrix frows as a fast sequence, which must have n entries. */
static PyObject *
fast_row(PyObject *frows, Py_ssize_t i, Py_ssize_t n)
{
    PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(frows, i), "expected a row");
    if (row != NULL && PySequence_Fast_GET_SIZE(row) != n) {
        PyErr_SetString(PyExc_ValueError, "matrix is not square");
        Py_CLEAR(row);
    }
    return row;
}

static PyObject *
bareiss_det(PyObject *self, PyObject *rows)
{
    PyObject *frows = PySequence_Fast(rows, "expected a sequence of rows");
    if (frows == NULL)
        return NULL;
    PyObject *result = NULL, *row = NULL;
    ll *ents = NULL;
    int *lens = NULL, *rowidx, *colidx;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(frows), i, j;

    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "empty matrix");
        goto done;
    }
    for (i = 0; i < n; i++) {
        Py_ssize_t L = PyObject_Length(PySequence_Fast_GET_ITEM(frows, i));
        if (L < 0)
            goto done;
        if (L != n) {
            PyErr_SetString(PyExc_ValueError, "matrix is not square");
            goto done;
        }
    }
    lens = PyMem_Malloc((size_t)(n * n + 2 * n) * sizeof(int));
    if (lens == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    rowidx = lens + n * n;
    colidx = rowidx + n;

    /* capacity bound: any minor's degree is at most the sum of row maxima */
    long cap = 0;
    for (i = 0; i < n; i++) {
        if ((row = fast_row(frows, i, n)) == NULL)
            goto done;
        long rowmax = 0;
        for (j = 0; j < n; j++) {
            Py_ssize_t L = PyObject_Length(PySequence_Fast_GET_ITEM(row, j));
            if (L < 0)
                goto done;
            lens[i * n + j] = (int)L;
            if (L - 1 > rowmax)
                rowmax = (long)L - 1;
        }
        cap += rowmax;
        Py_CLEAR(row);
    }
    long stride = cap + 1, tcap = 2 * cap + 1;
    long words = (long)(n * n) * stride + 3 * tcap;
    if (words > MAX_WORKSPACE)
        goto done;
    ents = PyMem_Malloc((size_t)words * sizeof(ll));
    if (ents == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    ll *t1 = ents + n * n * stride, *t2 = t1 + tcap, *t3 = t2 + tcap;

    for (i = 0; i < n; i++) {
        if ((row = fast_row(frows, i, n)) == NULL)
            goto done;
        for (j = 0; j < n; j++) {
            ll *e = ents + (i * n + j) * stride;
            if (seq_to_ll(PySequence_Fast_GET_ITEM(row, j), e, lens[i * n + j]))
                goto done;
            lens[i * n + j] = trimmed(e, lens[i * n + j]);
        }
        Py_CLEAR(row);
    }
    for (i = 0; i < n; i++)
        rowidx[i] = colidx[i] = (int)i;

    /* (r, c) is the entry in row r and column c of the permuted matrix */
#define ENT(r, c) (ents + (rowidx[r] * n + colidx[c]) * stride)
#define LEN(r, c) lens[rowidx[r] * n + colidx[c]]
    int sign = 1, lprev = 0;
    const ll *prev = NULL;
    for (Py_ssize_t k = 0; k < n - 1; k++) {
        /* pivot on the shortest nonzero entry of the trailing block, the
           first in row-major order on ties.  By Sylvester's identity entry
           (i, j) is the minor on rows 0..k-1, i and columns 0..k-1, j, so
           swapping trailing rows or columns is swapping them in the input,
           and every division stays exact. */
        Py_ssize_t pi = k, pj = k;
        int best = 0;
        for (i = k; i < n && best != 1; i++) {
            for (j = k; j < n; j++) {
                int L = LEN(i, j);
                if (L && (best == 0 || L < best)) {
                    best = L;
                    pi = i;
                    pj = j;
                    if (L == 1)
                        break;
                }
            }
        }
        if (best == 0) {
            result = PyList_New(0);
            goto done;
        }
        if (pi != k) {
            int r = rowidx[k];
            rowidx[k] = rowidx[pi];
            rowidx[pi] = r;
            sign = -sign;
        }
        if (pj != k) {
            int c = colidx[k];
            colidx[k] = colidx[pj];
            colidx[pj] = c;
            sign = -sign;
        }
        const ll *piv = ENT(k, k);
        int lp = LEN(k, k);
        for (i = k + 1; i < n; i++) {
            const ll *aik = ENT(i, k);
            int lik = LEN(i, k);
            for (j = k + 1; j < n; j++) {
                int lt1, lt2, lt3;
                /* a_ij <- (a_kk a_ij - a_ik a_kj) / previous pivot */
                if (ll_mul(piv, lp, ENT(i, j), LEN(i, j), t1, &lt1)
                    || ll_mul(aik, lik, ENT(k, j), LEN(k, j), t2, &lt2)
                    || ll_sub_into(t1, &lt1, t2, lt2))
                    goto done;
                if (prev == NULL) {
                    lt3 = lt1;
                    memcpy(t3, t1, (size_t)lt3 * sizeof(ll));
                }
                else if (ll_exactdiv(t1, lt1, prev, lprev, t3, &lt3))
                    goto done;
                if (lt3 > stride)
                    goto done;
                memcpy(ENT(i, j), t3, (size_t)lt3 * sizeof(ll));
                LEN(i, j) = lt3;
            }
        }
        prev = piv;
        lprev = lp;
    }

    ll *det = ENT(n - 1, n - 1);
    int ldet = LEN(n - 1, n - 1);
#undef ENT
#undef LEN
    for (j = 0; sign < 0 && j < ldet; j++) {
        if (det[j] == LLONG_MIN)  /* its negation does not fit */
            goto done;
        det[j] = -det[j];
    }
    result = ll_list(det, ldet);

done:
    Py_XDECREF(row);
    Py_DECREF(frows);
    PyMem_Free(ents);
    PyMem_Free(lens);
    return result_or_none(result);
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
perm_tables(PyObject *self, PyObject *args)
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
    return result_or_none(result);
}

static PyMethodDef speedups_methods[] = {
    {"bareiss_det", bareiss_det, METH_O,
     "Fraction-free elimination determinant, or None on overflow."},
    {"perm_tables", perm_tables, METH_VARARGS,
     "The N- and M-tables of a distance table from one permutation sweep, or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled kernels: 64-bit fast paths for the hot loops, or None.",
    .m_size = -1,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&speedups_module);
}
