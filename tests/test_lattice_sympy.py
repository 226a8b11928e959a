"""`lattice` against sympy, an independent implementation of the same normal
forms.  The two follow different conventions (sympy's Hermite form is
column-style, its nullspace is rational), so where they differ the test
compares invariants: the row lattice, the rank, the kernel over Q and over Z,
and the determinant."""

import math
import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402

from strata_lab import strat, zoo  # noqa: E402
from strata_lab.lattice import det, hnf, kernel_basis, rank  # noqa: E402

import oracles  # noqa: E402

SEED = 53
EMPTY = [[], [[]], [[], [], []]]  # 0x0, 1x0 and 3x0


def random_matrices(rng, count):
    """Entries in [-5, 5]; one in three is a product through a narrower inner
    dimension, so it is rank-deficient, and some are all zero."""
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 1 / 3:
            inner = rng.randint(0, max(0, min(rows, cols) - 1))
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
            out.append([[sum(left[i][k] * right[k][j] for k in range(inner))
                         for j in range(cols)] for i in range(rows)])
        else:
            out.append([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
    return out


def larger_matrices(rng, count):
    """Square 6x6 matrices and antisymmetric 7x7 ones (the exponent matrices
    of single-parameter quantum affine spaces), entries in [-9, 9]: sizes at
    which an elimination that never reduces modulo its pivots blows up."""
    out = [[[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
           for _ in range(count)]
    for _ in range(count):
        A = [[0] * 7 for _ in range(7)]
        for i in range(7):
            for j in range(i + 1, 7):
                A[i][j] = rng.randint(-9, 9)
                A[j][i] = -A[i][j]
        out.append(A)
    return out


def stratum_matrices():
    """The commutation-exponent matrices `strat.stratum_report` hands to
    `lattice.kernel_basis`, recorded as it makes the calls, one per
    stratum of generic and single-parameter quantum affine n <= 5 whose matrix
    has a row, each with an all-zero row and a copy of its first row appended.
    `strat` keeps only distinct nonzero rows; the two extra rows keep the
    matrices tall, with zero and repeated rows."""
    with oracles.kernel_calls() as seen:
        for build in (zoo.quantum_affine_generic, zoo.quantum_affine_single):
            for p in map(build, range(6)):
                for w in strat.hspec_quantum_affine(p):
                    strat.stratum_report(p, w)
    return [A + [[0] * len(A[0]), list(A[0])] for A in seen]


def to_sympy(A):
    return sympy.Matrix(len(A), len(A[0]) if A else 0, [x for row in A for x in row])


def coordinates(basis, v):
    """Rational coordinates of v in the linearly independent vectors `basis`,
    or None when v is outside their rational span."""
    if not basis:
        return [] if not any(v) else None
    B = sympy.Matrix([list(b) for b in basis]).T
    try:
        sol, free = B.gauss_jordan_solve(sympy.Matrix(list(v)))
    except ValueError:
        return None
    assert free.shape[0] == 0, "basis vectors are dependent"
    return list(sol)


def in_lattice(basis, v):
    c = coordinates(basis, v)
    return c is not None and all(x.is_integer for x in c)


def primitive(column):
    """An integer multiple of a rational vector with coprime entries."""
    den = math.lcm(*(sympy.Rational(x).q for x in column))
    vec = [int(x * den) for x in column]
    g = math.gcd(*vec)
    return [x // g for x in vec]


@pytest.fixture(scope="module")
def matrices():
    print(f"\nlattice vs sympy: seed {SEED}")
    rng = random.Random(SEED)
    return (EMPTY + random_matrices(rng, 150) + larger_matrices(rng, 8)
            + stratum_matrices())


def test_rank_matches_sympy(matrices):
    for A in matrices:
        assert rank(A) == to_sympy(A).rank(), A


def test_hnf_spans_the_row_lattice_of_sympys_hnf(matrices):
    for A in matrices:
        H, _ = hnf(A)
        ours = [row for row in H if any(row)]
        # sympy's form is column-style: the columns of HNF(A^T) are a basis of
        # the lattice spanned by the rows of A
        W = hermite_normal_form(to_sympy(A).T)
        theirs = [list(W.col(j)) for j in range(W.cols) if any(W.col(j))]
        assert len(ours) == len(theirs) == to_sympy(A).rank(), A
        assert all(in_lattice(theirs, row) for row in ours), A
        assert all(in_lattice(ours, col) for col in theirs), A


def test_kernel_basis_matches_sympy_nullspace(matrices):
    for A in matrices:
        M = to_sympy(A)
        basis = kernel_basis(A)
        null = M.nullspace()
        assert len(basis) == len(null) == M.cols - M.rank(), A
        # the same rational span, and the primitive integer multiple of each
        # of sympy's rational vectors lies in the integer span of ours
        assert all(coordinates([list(v) for v in null], b) is not None for b in basis), A
        assert all(in_lattice(basis, primitive(list(v))) for v in null), A


def test_kernel_basis_is_in_hermite_form(matrices):
    # the Hermite form of a lattice is unique, so this pins the one basis the
    # reports print, whichever elimination found it
    for A in matrices:
        assert oracles.is_hermite(kernel_basis(A)), A


def test_det_matches_sympy(matrices):
    square = [A for A in matrices if len(A) == (len(A[0]) if A else 0)]
    assert len(square) > 16
    for A in square:
        # Berkowitz's division-free algorithm, not the fraction-free one of det
        assert det(A) == to_sympy(A).det(method="berkowitz"), A
