import itertools
import random

import pytest

from strata_lab import qdet, zoo
from strata_lab.coeff import Coefficient, ParamContext
from strata_lab.grading import is_homogeneous
from strata_lab.pbw import gen, multiply
from strata_lab.qdet import (det_commutation_scalar, inversions, perm_terms,
                             quantum_determinant, sl_common_value,
                             sl_condition, verify_det_normality)

import oracles


def test_inversions_examples():
    assert inversions((1, 2, 3)) == 0
    assert inversions((2, 1)) == 1
    assert inversions((4, 3, 2, 1)) == 6


def test_inversions_against_brute_force():
    for perm in itertools.permutations(range(1, 5)):
        assert inversions(perm) == oracles.brute_inversions(perm)


def test_inversions_rejects_non_permutations():
    with pytest.raises(ValueError):
        inversions((1, 1, 2))


def test_determinant_n1():
    lam, p = zoo.generic_matrix_data(1)
    det = quantum_determinant(1, lam, p)
    assert det.terms == {(1,): Coefficient.one(p.context)}


def test_determinant_n2_generic():
    lam, p = zoo.generic_matrix_data(2)
    det = quantum_determinant(2, lam, p)
    p21 = Coefficient.symbol(p.context, "p_2_1")
    assert det == (monomial_like(det, (1, 0, 0, 1), Coefficient.one(p.context))
                   + monomial_like(det, (0, 1, 1, 0), -p21))


def monomial_like(_elem, exp, coeff):
    from strata_lab.pbw import Element
    return Element({tuple(exp): coeff})


def test_determinant_single_param_matches_length_formula():
    for n in range(1, 5):
        lam, p = zoo.single_param_matrix_data(n)
        q = Coefficient.symbol(p.context, "q")
        det = quantum_determinant(n, lam, p)
        assert len(det) == len(list(itertools.permutations(range(n))))
        for t in perm_terms(n, p):
            assert t.coefficient == (-q) ** inversions(t.perm)


def test_perm_term_sign_is_length_parity():
    lam, p = zoo.generic_matrix_data(3)
    for t in perm_terms(3, p):
        unit = t.coefficient.as_unit()
        assert unit.sign == (-1) ** inversions(t.perm)


def test_commutation_scalar_telescopes_at_origin():
    lam, p = zoo.generic_matrix_data(2)
    assert det_commutation_scalar(2, lam, p, 1, 1) == Coefficient.one(p.context)


def test_commutation_scalar_single_param_is_one():
    lam, p = zoo.single_param_matrix_data(3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert det_commutation_scalar(3, lam, p, i, j) == Coefficient.one(p.context)


def test_commutation_scalar_generic_12():
    lam, p = zoo.generic_matrix_data(2)
    p21 = Coefficient.symbol(p.context, "p_2_1")
    assert det_commutation_scalar(2, lam, p, 1, 2) == lam * p21 ** 2


def test_det_normality_n2_and_n3():
    for n in (2, 3):
        lam, p = zoo.generic_matrix_data(n)
        report = verify_det_normality(n, lam, p)
        assert report.passed
        assert len(report.identities) == n * n


def test_det_normality_catches_corrupted_scalar(monkeypatch):
    lam, p = zoo.generic_matrix_data(2)

    def drop_lambda(n, lam, p, i, j):
        c = Coefficient.one(p.context)
        for l in range(1, 3):
            c = c * p.entry(j - 1, l - 1) * p.entry(l - 1, i - 1)
        return c

    monkeypatch.setattr(qdet, "det_commutation_scalar", drop_lambda)
    report = verify_det_normality(2, lam, p)
    failed = {(r.i, r.j) for r in report.identities if not r.ok}
    assert (1, 2) in failed
    assert not report.passed


def test_determinant_commutation_via_engine():
    # D X12 and X12 D differ exactly by the tabulated scalar
    lam, p = zoo.generic_matrix_data(2)
    pres = zoo.quantum_matrices(2, 2, lam, p)
    det = quantum_determinant(2, lam, p)
    x12 = gen(pres, "X12")
    mu = det_commutation_scalar(2, lam, p, 1, 2)
    assert multiply(pres, det, x12) == multiply(pres, x12, det).scale(mu)
    assert mu == lam * Coefficient.symbol(p.context, "p_2_1") ** 2


def test_sl_condition_single_param():
    for n in (2, 3, 4):
        lam, p = zoo.single_param_matrix_data(n)
        assert sl_condition(n, lam, p)
        q = Coefficient.symbol(p.context, "q")
        assert sl_common_value(n, lam, p) == q ** (-1 - n)


def test_sl_condition_commutative():
    ctx = ParamContext([])
    one = Coefficient.one(ctx)
    p = zoo.AntisymmetricMatrixSpec(ctx, [[one, one], [one, one]])
    assert sl_condition(2, one, p)


def test_sl_condition_generic_multiparameter_false():
    ctx = ParamContext(["t"])
    t = Coefficient.symbol(ctx, "t")
    p = zoo.AntisymmetricMatrixSpec(ctx, [[Coefficient.one(ctx), t.invert_unit()],
                                          [t, Coefficient.one(ctx)]])
    assert not sl_condition(2, Coefficient.one(ctx), p)


def test_centrality_iff_scalars_one_on_specializations():
    # random unit-monomial parameter data over two symbols, both directions
    rng = random.Random(42)
    ctx = ParamContext(["a", "b"])
    for _ in range(40):
        n = rng.choice([2, 3])
        lam = Coefficient.monomial(ctx, rng.choice([1, -1]),
                                   (rng.randint(-2, 2), rng.randint(-2, 2)))
        upper = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                upper[(i, j)] = Coefficient.monomial(
                    ctx, rng.choice([1, -1]),
                    (rng.randint(-2, 2), rng.randint(-2, 2)))
        p = zoo.AntisymmetricMatrixSpec.from_upper(ctx, n, upper)
        central = sl_condition(n, lam, p)
        scalars_one = all(
            det_commutation_scalar(n, lam, p, i, j) == Coefficient.one(ctx)
            for i in range(1, n + 1) for j in range(1, n + 1))
        assert central == scalars_one


def test_single_param_determinant_is_central_via_engine():
    for n in (2, 3):
        lam, p = zoo.single_param_matrix_data(n)
        pres = zoo.quantum_matrices(n, n, lam, p)
        det = quantum_determinant(n, lam, p)
        for g in range(pres.ngens):
            xg = gen(pres, g)
            assert multiply(pres, det, xg) == multiply(pres, xg, det)


def test_determinant_weight_is_all_ones():
    lam, p = zoo.generic_matrix_data(3)
    pres = zoo.quantum_matrices(3, 3, lam, p)
    det = quantum_determinant(3, lam, p)
    assert is_homogeneous(pres, det) == (1,) * 6
