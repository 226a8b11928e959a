"""`Coefficient` against sympy, an independent implementation of Laurent
polynomial arithmetic: `+`, `-`, `*` and `**` are compared with
`sympy.expand`, and `specialize` with sympy substitution at nonzero
rationals.  Contexts have 1 to 21 symbols; 21 is the widest context the
benchmark builds."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from strata_lab.coeff import Coefficient, ParamContext, UnitMonomial  # noqa: E402

SEED = 67
CONTEXTS = 40


def random_coefficient(rng, ctx):
    """Up to four terms over at most three symbols each, exponents in [-3, 3];
    one in three is a single term, so the monomial paths are exercised."""
    terms = {}
    for _ in range(1 if rng.random() < 1 / 3 else rng.randint(0, 4)):
        exp = [0] * len(ctx)
        for i in rng.sample(range(len(ctx)), min(3, len(ctx))):
            exp[i] = rng.randint(-3, 3)
        terms[tuple(exp)] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4])
    return Coefficient(ctx, terms)


def random_unit(rng, ctx):
    exp = [rng.randint(-2, 2) for _ in range(len(ctx))]
    return UnitMonomial(rng.choice([1, -1]), tuple(exp)).to_coefficient(ctx)


def to_sympy(c, syms):
    return sympy.Add(*[k * sympy.Mul(*[s ** e for s, e in zip(syms, exp)])
                       for exp, k in c.terms.items()])


def same(expected, got, syms):
    return sympy.expand(expected - to_sympy(got, syms)) == 0


@pytest.fixture(scope="module")
def cases():
    """(context, sympy symbols, rng) triples; two contexts of the extreme sizes."""
    print(f"\nCoefficient vs sympy: seed {SEED}")
    rng = random.Random(SEED)
    out = []
    for size in [1, 21] + [rng.randint(1, 21) for _ in range(CONTEXTS - 2)]:
        ctx = ParamContext([f"q_{i}" for i in range(size)])
        syms = [sympy.Symbol(name) for name in ctx.symbols]
        out.append((ctx, syms, random.Random(rng.random())))
    return out


def test_ring_operations_match_sympy(cases):
    for ctx, syms, rng in cases:
        for _ in range(5):
            a, b = random_coefficient(rng, ctx), random_coefficient(rng, ctx)
            sa, sb = to_sympy(a, syms), to_sympy(b, syms)
            assert same(sa + sb, a + b, syms), (a, b)
            assert same(sa - sb, a - b, syms), (a, b)
            assert same(-sa, -a, syms), a
            assert same(sa * sb, a * b, syms), (a, b)


def test_powers_match_sympy(cases):
    for ctx, syms, rng in cases:
        for _ in range(3):
            a = random_coefficient(rng, ctx)
            for k in range(5):
                assert same(to_sympy(a, syms) ** k, a ** k, syms), (a, k)
            u = random_unit(rng, ctx)
            for k in range(-4, 0):
                assert same(to_sympy(u, syms) ** k, u ** k, syms), (u, k)


def test_specialize_matches_sympy(cases):
    for ctx, syms, rng in cases:
        for _ in range(3):
            a = random_coefficient(rng, ctx)
            values = {name: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                      for name in ctx.symbols}
            expected = to_sympy(a, syms).xreplace(
                {s: sympy.Rational(v.numerator, v.denominator)
                 for s, v in zip(syms, values.values())})
            assert a.specialize(values) == Fraction(int(expected.p), int(expected.q)), (a, values)
