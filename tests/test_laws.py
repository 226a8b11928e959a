"""Laws that hold for any correct engine on a confluent presentation, whatever
its reduction strategy, so they need no oracle: `multiply` is associative,
and the normal form of a concatenation u v is the product of the normal
forms of u and v.  Confluence makes the ordered monomials a basis (Bergman,
Adv. Math. 29, 1978), so the engine's product is the algebra's.

hypothesis draws the words from a fixed seed: at most 4 syllables each, with
exponents 1-2, and at most 8 letters in all the words of one example; a
failure shrinks to a small falsifying example.  A FuelExhausted fails the
test.  The letter bound keeps every example within the default budget: no
word of 8 letters needs more than 38,350 rewrites here (the signed
presentation; every such word was tried, except on the 2x3 matrices, where
70,000 random ones were).  Fuel counts the whole leftmost rewriting tree, so
longer products can exhaust it though their answers are small: on
quantized_weyl_generic(2), x1^3 x2^2 times (x1 x2^2 times y1^3 y2^4) has 30
terms but needs more than 10^6 rewrites."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from strata_lab import zoo  # noqa: E402
from strata_lab.coeff import Coefficient, ParamContext, UnitMonomial  # noqa: E402
from strata_lab.pbw import (Element, Presentation, Rule, diamond_check,  # noqa: E402
                            multiply, normal_form)


def signed_swap_beside_tails():
    """x < y < z with y x = -x y, z x = -x z + x^2 and z y = y z + x y: a sign
    -1 swap with a tail, next to a sign +1 swap with one.  Negating only the
    tails of the sign -1 swaps leaves a presentation that is not confluent."""
    ctx = ParamContext([])
    one = Coefficient.one(ctx)
    return Presentation(ctx, ["x", "y", "z"], {
        (1, 0): Rule(UnitMonomial(-1, ())),
        (2, 0): Rule(UnitMonomial(-1, ()), Element({(2, 0, 0): one})),
        (2, 1): Rule(UnitMonomial(1, ()), Element({(1, 1, 0): one})),
    }, name="signed")


PRESENTATIONS = {
    "weyl2": zoo.quantized_weyl_generic(2),
    "matrices2x2": zoo.quantum_matrices_generic(2, 2),
    "matrices2x3": zoo.quantum_matrices_generic(2, 3),
    "symplectic2": zoo.quantum_symplectic(2),
    "euclidean4": zoo.quantum_euclidean(4),
    "signed": signed_swap_beside_tails(),
}

LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def words(draw, p, count):
    """count words of p, each of at most 4 syllables, cut off where the
    letters of all count words would pass 8."""
    left, out = 8, []
    for _ in range(count):
        word = []
        for g, e in draw(st.lists(st.tuples(st.sampled_from(p.generators),
                                            st.integers(1, 2)), min_size=1, max_size=4)):
            if e > left:
                break
            word.append((g, e))
            left -= e
        out.append(word)
    return out


def test_every_presentation_is_confluent():
    for name, p in PRESENTATIONS.items():
        assert all(r.resolved for r in diamond_check(p)), name


@pytest.mark.parametrize("name", PRESENTATIONS)
@LAWS
@given(data=st.data())
def test_multiply_is_associative(name, data):
    p = PRESENTATIONS[name]
    a, b, c = (normal_form(p, w) for w in data.draw(words(p, 3)))
    assert multiply(p, a, multiply(p, b, c)) == multiply(p, multiply(p, a, b), c)


@pytest.mark.parametrize("name", PRESENTATIONS)
@LAWS
@given(data=st.data())
def test_normal_form_of_a_concatenation_is_the_product(name, data):
    p = PRESENTATIONS[name]
    u, v = data.draw(words(p, 2))
    assert normal_form(p, u + v) == multiply(p, normal_form(p, u), normal_form(p, v))
