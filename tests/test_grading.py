import random

import pytest

from strata_lab import zoo
from strata_lab.coeff import Coefficient
from strata_lab.grading import (NormalityCertificate, homogeneous_components,
                                is_homogeneous, scalar_normality_check,
                                weight_of)
from strata_lab.pbw import Element, gen, monomial, multiply, one
from strata_lab.qdet import quantum_determinant


@pytest.fixture(scope="module")
def qa3():
    return zoo.quantum_affine_generic(3)


@pytest.fixture(scope="module")
def m2():
    return zoo.quantum_matrices_generic(2, 2)


def test_weight_examples(qa3):
    assert weight_of(qa3, (1, 0, 1)) == (1, 0, 1)
    w2 = zoo.quantized_weyl_generic(2)
    assert weight_of(w2, (1, 1, 0, 0)) == (0, 0)


def test_determinant_is_homogeneous(m2):
    lam, p = zoo.generic_matrix_data(2)
    det = quantum_determinant(2, lam, p)
    assert set(det.terms) == {(1, 0, 0, 1), (0, 1, 1, 0)}
    assert is_homogeneous(m2, det) == (1, 1, 1, 1)


def test_inhomogeneous_sum(qa3):
    assert is_homogeneous(qa3, gen(qa3, 0) + gen(qa3, 1)) is None
    assert is_homogeneous(qa3, monomial(qa3, (2, 1, 0))) == (2, 1, 0)


def test_homogeneous_components(qa3):
    a = monomial(qa3, (1, 0, 0)) + monomial(qa3, (1, 1, 0))
    comps = homogeneous_components(qa3, a)
    assert set(comps) == {(1, 0, 0), (1, 1, 0)}
    total = Element()
    for part in comps.values():
        total = total + part
    assert total == a
    assert homogeneous_components(qa3, Element()) == {}


def test_same_monomial_coefficients_merge(qa3):
    lam_free = Coefficient.symbol(qa3.context, "q_1_2")  # any symbol works here
    a = monomial(qa3, (1, 0, 0), lam_free - 1) + monomial(qa3, (1, 0, 0))
    comps = homogeneous_components(qa3, a)
    assert set(comps) == {(1, 0, 0)}
    assert comps[(1, 0, 0)] == monomial(qa3, (1, 0, 0), lam_free)


def test_monomial_normality_formula(qa3):
    # mu_i = prod_j q_ij^{-a_j}
    rng = random.Random(31)
    spec = zoo.AntisymmetricMatrixSpec.generic(3)
    for _ in range(20):
        a = tuple(rng.randint(0, 2) for _ in range(3))
        if not any(a):
            continue
        cert = scalar_normality_check(qa3, monomial(qa3, a))
        assert cert is not None and cert.verify(qa3)
        for i in range(3):
            want = Coefficient.one(qa3.context)
            for j in range(3):
                want = want * spec.entry(i, j) ** (-a[j])
            assert cert.mus[i] == want


def test_x12_is_scalar_normal_in_m2(m2):
    # all three commutation cases for X12 are tail-free, so a certificate exists
    cert = scalar_normality_check(m2, gen(m2, "X12"))
    assert cert is not None and cert.verify(m2)


def test_x11_is_not_scalar_normal_in_m2(m2):
    # X22*X11 picks up a tail, so the supports of the two products differ
    assert scalar_normality_check(m2, gen(m2, "X11")) is None


def test_determinant_certificate_matches_scalar_table(m2):
    from strata_lab.qdet import det_commutation_scalar
    lam, p = zoo.generic_matrix_data(2)
    det = quantum_determinant(2, lam, p)
    cert = scalar_normality_check(m2, det)
    assert cert is not None
    for g in range(4):
        i, j = divmod(g, 2)
        assert cert.mus[g] == det_commutation_scalar(2, lam, p, i + 1, j + 1)


def test_identity_certificate(m2):
    cert = scalar_normality_check(m2, one(m2))
    assert cert is not None
    assert all(mu == Coefficient.one(m2.context) for mu in cert.mus)


def test_certificates_multiply(qa3):
    rng = random.Random(8)
    for _ in range(20):
        a = tuple(rng.randint(0, 2) for _ in range(3))
        b = tuple(rng.randint(0, 2) for _ in range(3))
        ca = scalar_normality_check(qa3, monomial(qa3, a))
        cb = scalar_normality_check(qa3, monomial(qa3, b))
        cab = scalar_normality_check(qa3, multiply(qa3, monomial(qa3, a), monomial(qa3, b)))
        assert ca and cb and cab
        for i in range(3):
            assert cab.mus[i] == ca.mus[i] * cb.mus[i]


def test_certificate_reverification_is_exact(m2):
    cert = scalar_normality_check(m2, gen(m2, "X21"))
    assert cert is not None
    assert cert.verify(m2)
    tampered = NormalityCertificate(cert.element,
                                    tuple(mu * 2 for mu in cert.mus))
    assert not tampered.verify(m2)


def test_zero_element_rejected(qa3):
    with pytest.raises(ValueError):
        scalar_normality_check(qa3, Element())


def test_normality_check_multiplies_each_generator_once_per_side(m2, monkeypatch):
    import strata_lab.grading as grading
    sides = []

    def recording_multiply(p, a, b, fuel=None):
        sides.append((a, b))
        return multiply(p, a, b, fuel)

    monkeypatch.setattr(grading, "multiply", recording_multiply)
    c = gen(m2, "X12")
    cert = scalar_normality_check(m2, c)
    gens = [gen(m2, i) for i in range(m2.ngens)]
    assert sides == [pair for g in gens for pair in ((c, g), (g, c))]
    assert cert is not None and cert.verify(m2)
