import random

from strata_lab.lattice import (det, hnf, in_row_span, kernel_basis, matmul,
                                rank, snf)

import oracles


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def is_hermite(H):
    pivots = []
    for row in H:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        assert row[j] > 0
        if pivots:
            assert j > pivots[-1][1]
        pivots.append((row, j))
    # entries above each pivot reduced into [0, pivot)
    rows = [r for r, _ in pivots]
    for k, (prow, j) in enumerate(pivots):
        for above, _ in pivots[:k]:
            assert 0 <= above[j] < prow[j]
    return True


def test_hnf_identity():
    I = [[1, 0], [0, 1]]
    H, U = hnf(I)
    assert H == I and U == I


def test_hnf_example():
    H, U = hnf([[2, 4], [1, 2]])
    assert H == [[1, 2], [0, 0]]
    assert matmul(U, [[2, 4], [1, 2]]) == H


def test_hnf_zero_matrix():
    H, U = hnf([[0, 0], [0, 0]])
    assert H == [[0, 0], [0, 0]]
    assert U == [[1, 0], [0, 1]]


def test_hnf_randomized():
    rng = random.Random(19)
    for _ in range(120):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        H, U = hnf(A)
        assert matmul(U, A) == H
        assert det(U) in (1, -1)
        assert is_hermite(H)


def test_snf_gcd_lcm_identity():
    U, S, V = snf([[6, 0], [0, 4]])
    assert [S[0][0], S[1][1]] == [2, 12]


def test_snf_identity():
    I = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    _, S, _ = snf(I)
    assert S == I


def test_snf_antisymmetric_2x2_unimodular():
    _, S, _ = snf([[0, 1], [-1, 0]])
    assert S == [[1, 0], [0, 1]]


def test_snf_randomized():
    rng = random.Random(29)
    for _ in range(100):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        U, S, V = snf(A)
        assert matmul(matmul(U, A), V) == S
        assert det(U) in (1, -1) and det(V) in (1, -1)
        k = min(len(S), len(S[0]))
        diag = [S[i][i] for i in range(k)]
        for i in range(len(S)):
            for j in range(len(S[0])):
                if i != j:
                    assert S[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0


def test_snf_transforms_stay_small():
    # an elimination that never reduces modulo its pivots gives U and V
    # entries of 72 digits here
    A = [[-8, -9, -8, 0, 8], [2, -3, 4, 4, 0], [3, 3, 3, -8, 4], [-5, -5, -9, 1, -3],
         [6, -8, 6, -6, 6]]
    U, S, V = snf(A)
    assert [S[k][k] for k in range(5)] == [1, 1, 1, 2, 860]
    assert all(abs(x) < 10 ** 9 for M in (U, V) for row in M for x in row)


def test_kernel_full_rank_is_empty():
    assert kernel_basis([[0, 1], [-1, 0]]) == []
    # no columns: the only vector is the empty one, and it spans nothing
    assert kernel_basis([]) == []
    assert kernel_basis([[], []]) == []


def test_kernel_of_zero_map_is_standard_basis():
    assert kernel_basis([[0, 0, 0]]) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_single_param_3x3():
    A = [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    assert kernel_basis(A) == [(1, -1, 1)]


def test_kernel_randomized_complete_and_exact():
    rng = random.Random(37)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, rows, cols, -3, 3)
        basis = kernel_basis(A)
        assert len(basis) == cols - rank(A)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        # brute-force agreement within a small box
        box = oracles.kernel_vectors_in_box(A, 2)
        spanned = [v for v in box if in_row_span(basis, v)]
        assert spanned == box


def test_antisymmetric_integer_matrices_have_even_rank():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 5)
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = rng.randint(-3, 3)
                A[j][i] = -A[i][j]
        assert rank(A) % 2 == 0


def test_in_row_span():
    assert in_row_span([(1, -1, 1)], (2, -2, 2))
    assert not in_row_span([(1, -1, 1)], (1, 1, 1))
    assert in_row_span([], (0, 0))
    assert not in_row_span([], (1, 0))


def test_det_examples():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[0, 1], [1, 0]]) == -1
    assert det([]) == 1
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n, -4, 4)
        # expansion by minors as an independent oracle
        def minors_det(M):
            if len(M) == 1:
                return M[0][0]
            total = 0
            for j in range(len(M)):
                sub = [row[:j] + row[j + 1:] for row in M[1:]]
                total += (-1) ** j * M[0][j] * minors_det(sub)
            return total
        assert det(A) == minors_det(A)
