import random

import pytest

from strata_lab.lattice import (_check_hermite, det, hnf, in_row_span, kernel_basis,
                                matmul, rank)

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


def test_hermite_check_rejects_every_broken_condition():
    # hnf's U*A == H and unimodularity checks pass whatever row order H has;
    # only this check certifies that a kernel read off the zero rows is whole
    for H in ([[0, 1], [1, 0]],     # pivot columns fall
              [[1, 0], [1, 1]],     # two pivots in one column
              [[0, 0], [1, 0]],     # zero row first
              [[-1, 0], [0, 1]],    # negative pivot
              [[1, 2], [0, 2]],     # entry above a pivot not below it
              [[1, -1], [0, 2]]):   # entry above a pivot negative
        with pytest.raises(AssertionError, match="Hermite form"):
            _check_hermite(H, 2)
    _check_hermite([[1, 1], [0, 2], [0, 0]], 2)
    _check_hermite([], 0)


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
        assert in_row_span(basis, box) == box


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
    # the spanned vectors come back in input order, from any iterable
    assert in_row_span([(1, -1, 1)], iter([(2, -2, 2), (1, 1, 1), (0, 0, 0), (-1, 1, -1)])) == \
        [(2, -2, 2), (0, 0, 0), (-1, 1, -1)]
    # an empty basis spans only zero vectors
    assert in_row_span([], [(1, 0), (0, 0), (0, -1)]) == [(0, 0)]
    # dependent rows leave a zero row in the Hermite form; 1 is not a multiple of 2
    assert in_row_span([(1, 2), (2, 4)], [(3, 6)]) == [(3, 6)]
    assert in_row_span([(2, 0)], [(1, 0)]) == []
    # a vector that divides at every pivot can still leave a nonzero remainder
    assert in_row_span([(1, 0, 0)], [(1, 0, 1)]) == []


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
