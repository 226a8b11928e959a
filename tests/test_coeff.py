import math
import random
from fractions import Fraction

import pytest

from strata_lab.coeff import (Coefficient, ContextMismatch, NonUnitDivision,
                              ParamContext, SpecializationError, TooManyDigits,
                              UnitMonomial, check_power_digits)
from strata_lab.dsl import evaluate_expression
from strata_lab.pbw import Presentation

import oracles

CTX = ParamContext(["q", "lam"])
Q = Coefficient.symbol(CTX, "q")
LAM = Coefficient.symbol(CTX, "lam")
ONE = Coefficient.one(CTX)
ZERO = Coefficient.zero(CTX)
SCALARS = Presentation(CTX, [], {})  # no generators: every expression is a coefficient


def read_coefficient(text):
    return evaluate_expression(SCALARS, text).terms.get((), ZERO)


@pytest.mark.parametrize("value,text", [
    (ZERO, "0"),
    (ONE, "1"),
    (-ONE, "-1"),
    (Coefficient.integer(CTX, 7), "7"),
    (Coefficient.integer(CTX, -7), "-7"),
    (Coefficient.integer(CTX, 10 ** 29 + 7), "100000000000000000000000000007"),
    (-(10 ** 29) * Q, "-100000000000000000000000000000*q"),
    (2 - Q ** -1, "-q^-1 + 2"),
    (Q ** -3 * LAM ** 2, "q^-3*lam^2"),
    (-7 * Q * LAM ** -1, "-7*q*lam^-1"),
    (1 - LAM + 3 * Q ** 2 - Q * LAM, "1 - lam - q*lam + 3*q^2"),
    (Q + LAM + 1 + Q * LAM ** -1 + LAM ** 2, "1 + lam + lam^2 + q*lam^-1 + q"),
])
def test_coefficient_text(value, text):
    # factors follow the symbols, (q, lam); terms ascend by exponent tuple; a power
    # or a magnitude of 1 is left out; the first term carries its sign unspaced
    assert str(value) == text
    assert read_coefficient(text) == value


def test_additive_inverse_cancels():
    assert Q + (-Q) == ZERO
    assert not (Q - Q)


def test_opposite_binomials_cancel():
    assert (1 - Q ** 2) + (Q ** 2 - 1) == ZERO


def test_constant_absorption():
    assert (LAM - 1) + 1 == LAM


def test_unit_times_inverse():
    assert Q * Coefficient.symbol(CTX, "q", -1) == ONE


def test_integers_compare_as_constants():
    assert ONE * 3 == 3 and Q != 1 and ZERO == 0
    assert ONE != "1" and ONE != Coefficient.one(ParamContext(["q"]))


def test_leading_term_ratio_needs_a_divisible_leading_term():
    assert (Q * 6 + 1).leading_term_ratio(Q * 3) == 2
    assert (Q * 3).leading_term_ratio(Q * 2) is None
    assert ZERO.leading_term_ratio(Q) is None and Q.leading_term_ratio(ZERO) is None


def test_scale_unit_to_the_zeroth_power_is_the_identity():
    c = LAM - Q
    assert c.scale_unit(UnitMonomial(-1, (1, 2)), 0) == c


def test_difference_of_squares():
    assert (1 - Q) * (1 + Q) == 1 - Q ** 2


def test_antisymmetry_convention():
    ctx = ParamContext(["p_2_1"])
    p21 = Coefficient.symbol(ctx, "p_2_1")
    p12 = Coefficient.symbol(ctx, "p_2_1", -1)
    assert p21 * p12 == Coefficient.one(ctx)


def test_invert_unit_examples():
    assert (-(Q ** 2)).invert_unit() == -Coefficient.symbol(CTX, "q", -2)
    assert ONE.invert_unit() == ONE
    with pytest.raises(NonUnitDivision):
        (1 - Q).invert_unit()
    with pytest.raises(NonUnitDivision):
        (2 * Q).invert_unit()


def test_context_mismatch_rejected():
    other = ParamContext(["q"])
    with pytest.raises(ContextMismatch):
        Q + Coefficient.symbol(other, "q")


def test_specialize_examples():
    assert (1 - Q ** 2).specialize({"q": 2, "lam": 1}) == -3
    assert (Q * Q.invert_unit()).specialize({"q": Fraction(7, 3), "lam": 1}) == 1


def test_specialize_rejects_zero_and_missing():
    with pytest.raises(SpecializationError):
        Q.specialize({"q": 0, "lam": 1})
    with pytest.raises(SpecializationError):
        Q.specialize({"q": 2})


def test_specialize_values_are_plain_rationals():
    # composite assignments like lam = q^-2 must be pre-substituted by the caller
    with pytest.raises((TypeError, ValueError)):
        LAM.specialize({"q": 2, "lam": "q^-2"})


def test_canonical_form_is_insertion_order_independent():
    rng = random.Random(7)
    for _ in range(100):
        pairs = [(tuple(rng.randint(-2, 2) for _ in range(2)), rng.randint(-4, 4))
                 for _ in range(8)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert Coefficient(CTX, pairs) == Coefficient(CTX, shuffled)


def test_no_zero_terms_stored():
    c = Coefficient(CTX, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in c.terms
    assert (Q - Q).terms == {}


def test_ring_axioms_randomized():
    rng = random.Random(21)
    for _ in range(200):
        a = oracles.random_coefficient(CTX, rng, max_terms=8)
        b = oracles.random_coefficient(CTX, rng, max_terms=8)
        c = oracles.random_coefficient(CTX, rng, max_terms=8)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_invert_unit_is_an_involution():
    rng = random.Random(5)
    for _ in range(100):
        u = UnitMonomial(rng.choice([1, -1]),
                         tuple(rng.randint(-3, 3) for _ in range(2)))
        c = u.to_coefficient(CTX)
        assert c.invert_unit().invert_unit() == c
        assert c * c.invert_unit() == ONE


def test_specialize_is_a_ring_homomorphism():
    rng = random.Random(13)
    point = {"q": Fraction(3, 2), "lam": Fraction(-5, 7)}
    for _ in range(100):
        a = oracles.random_coefficient(CTX, rng)
        b = oracles.random_coefficient(CTX, rng)
        assert (a * b).specialize(point) == a.specialize(point) * b.specialize(point)
        assert (a + b).specialize(point) == a.specialize(point) + b.specialize(point)


def test_power_negative_requires_unit():
    assert Q ** -3 == Coefficient.symbol(CTX, "q", -3)
    with pytest.raises(NonUnitDivision):
        (1 + Q) ** -1


def test_monomial_powers_match_repeated_products():
    c = -3 * Q * LAM.invert_unit() ** 2
    want = ONE
    for k in range(6):
        assert c ** k == want
        want = want * c
    assert ZERO ** 0 == ONE and ZERO ** 3 == ZERO


@pytest.mark.parametrize("base", [2, 3, 7, 10, 255, 256, 10 ** 50])
def test_power_digit_bound_never_refuses_a_printable_power(digit_limit, base):
    def printable(k):
        try:
            return len(str(base ** k)) <= digit_limit
        except ValueError:
            return False

    k = int(digit_limit / math.log10(base)) + 2
    while not printable(k):
        k -= 1
    check_power_digits(base, k)  # the largest printable power
    check_power_digits(-base, k)
    with pytest.raises(TooManyDigits, match="more than 4300 digits"):
        check_power_digits(base, 2 * k)


def test_specialize_refuses_powers_too_long_to_print(digit_limit):
    assert (Q ** 100 * LAM ** -100).specialize({"q": 3, "lam": 3}) == 1
    # refused before any power is computed, though the two would cancel
    with pytest.raises(TooManyDigits):
        (Q ** 20000 * LAM ** -20000).specialize({"q": 3, "lam": 3})
    with pytest.raises(TooManyDigits):
        (Q ** -2).specialize({"q": Fraction(1, 3) ** 9000, "lam": 1})


def test_print_parse_round_trip():
    rng = random.Random(3)
    for _ in range(150):
        c = oracles.random_coefficient(CTX, rng, max_terms=5)
        assert read_coefficient(str(c)) == c


def test_parse_coefficient_syntax():
    assert read_coefficient("q^-1") == Coefficient.symbol(CTX, "q", -1)
    assert read_coefficient("(1 - q) * (1 + q)") == 1 - Q ** 2
    assert read_coefficient("-2*q^2 + lam") == LAM - 2 * Q ** 2
    assert read_coefficient("3") == Coefficient.integer(CTX, 3)
