"""Exact integer linear algebra: Hermite and Smith normal forms, kernels.

Matrices are plain lists of lists of Python ints.  One elimination, the
Hermite form, serves every call; the Smith form alternates it over rows and
columns.  Entries stay small because every pass reduces modulo its pivots.
Every public call re-verifies its defining identities before returning.
"""

from __future__ import annotations


def _copy(A):
    return [list(row) for row in A]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _shape(A):
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if any(len(r) != cols for r in A):
        raise ValueError("ragged matrix")
    return rows, cols


def matmul(A, B):
    ra, ca = _shape(A)
    rb, cb = _shape(B)
    if ca != rb:
        raise ValueError("shape mismatch")
    out = [[0] * cb for _ in range(ra)]
    for i in range(ra):
        Ai = A[i]
        for k in range(ca):
            a = Ai[k]
            if a:
                Bk = B[k]
                Oi = out[i]
                for j in range(cb):
                    Oi[j] += a * Bk[j]
    return out


def transpose(A):
    rows, cols = _shape(A)
    return [[A[i][j] for i in range(rows)] for j in range(cols)]


def det(A):
    """Fraction-free Bareiss determinant."""
    n, m = _shape(A)
    if n != m:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    M = _copy(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _hnf(H, U):
    """Row-reduce H in place to Hermite normal form, applying every row
    operation to U as well.  Pivots are positive, entries above each pivot
    reduced into [0, pivot)."""
    rows, cols = len(H), len(H[0]) if H else 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # chase the column to a single nonzero entry at row r
        while True:
            nz = [i for i in range(r, rows) if H[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            done = True
            for i in range(r + 1, rows):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if H[i][c]:
                        done = False
            if done:
                break
        if r < rows and H[r][c]:
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1


def hnf(A):
    """Row Hermite normal form: (H, U) with U unimodular and U*A = H.

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    """
    rows, _ = _shape(A)
    H = _copy(A)
    U = _identity(rows)
    _hnf(H, U)
    if matmul(U, A) != H:
        raise AssertionError("HNF verification failed: U*A != H")
    if det(U) not in (1, -1):
        raise AssertionError("HNF verification failed: U not unimodular")
    return H, U


def snf(A):
    """Smith normal form: (U, S, V) with S = U*A*V diagonal, d_i | d_{i+1}.

    Row and column Hermite forms alternate until S is diagonal (Kannan and
    Bachem, SIAM J. Comput. 8(4), 1979); a diagonal that breaks the chain
    gets row j added to row i and goes round again.  The diagonal comes out
    nonnegative because Hermite pivots are positive.
    """
    rows, cols = _shape(A)
    S = _copy(A)
    U = _identity(rows)
    Vt = _identity(cols)  # V transposed: column operations are rows of S^T
    _hnf(S, U)
    while True:
        if any(S[i][j] for i in range(rows) for j in range(cols) if i != j):
            # columns first: a row pass right after a repair undoes it
            T = transpose(S)
            _hnf(T, Vt)
            S = transpose(T)
            _hnf(S, U)
            continue
        d = [S[k][k] for k in range(min(rows, cols))]
        bad = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                    if d[i] and d[j] % d[i]), None)
        if bad is None:
            break
        i, j = bad
        S[i] = [a + b for a, b in zip(S[i], S[j])]
        U[i] = [a + b for a, b in zip(U[i], U[j])]
    V = transpose(Vt)
    if matmul(matmul(U, A), V) != S:
        raise AssertionError("SNF verification failed: U*A*V != S")
    if det(U) not in (1, -1) or det(V) not in (1, -1):
        raise AssertionError("SNF verification failed: transforms not unimodular")
    for k in range(min(rows, cols) - 1):
        d0, d1 = S[k][k], S[k + 1][k + 1]
        if d1 and (d0 == 0 or d1 % d0):
            raise AssertionError("SNF verification failed: divisibility chain broken")
    return U, S, V


def rank(A):
    return sum(1 for row in hnf(A)[0] if any(row))


def kernel_basis(A):
    """Z-basis of the right kernel {v : A*v = 0}, canonicalized by HNF rows."""
    rows, cols = _shape(A)
    if cols == 0:  # also when rows == 0: a list of no rows has no columns
        return []
    H, U = hnf(transpose(A))
    vecs = [U[i] for i in range(cols) if not any(H[i])]
    if not vecs:
        return []
    K, _ = hnf(vecs)
    basis = [tuple(row) for row in K if any(row)]
    for v in basis:
        if any(sum(A[i][j] * v[j] for j in range(cols)) for i in range(rows)):
            raise AssertionError("kernel verification failed: A*v != 0")
    if len(basis) != cols - rank(A):
        raise AssertionError("kernel verification failed: wrong rank")
    return basis


def in_row_span(basis, v):
    """Whether v lies in the integer row span of the given vectors."""
    vec = list(v)
    if not basis:
        return not any(vec)
    H, _ = hnf([list(b) for b in basis])
    for row in H:
        if not any(row):
            continue
        piv = next(j for j, x in enumerate(row) if x)
        if vec[piv] % row[piv]:
            return False
        q = vec[piv] // row[piv]
        if q:
            vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)
