import itertools
import random
import sys
import time
import tracemalloc
import zlib

import pytest

from strata_lab import dsl, pbw, strat, zoo
from strata_lab.coeff import Coefficient, ParamContext, UnitMonomial
from strata_lab.grading import is_homogeneous, weight_of
from strata_lab.pbw import (Element, Fuel, FuelExhausted, NegativeExponent,
                            Presentation, PresentationError, Rule, WordTooLong,
                            diamond_check, gen, hilbert_count, leading_term,
                            monomial, multiply, normal_form, order_key,
                            product)

import oracles
from reversed_digests import SLOW, WORDS, reversed_word_digest


@pytest.fixture(scope="module")
def plane():
    return zoo.quantum_affine_generic(2)


@pytest.fixture(scope="module")
def weyl1():
    return zoo.quantized_weyl_generic(1)


@pytest.fixture(scope="module")
def m2():
    return zoo.quantum_matrices_generic(2, 2)


def test_quantum_plane_swap(plane):
    q = Coefficient.symbol(plane.context, "q_1_2")
    got = normal_form(plane, [("x2", 1), ("x1", 1)])
    assert got == monomial(plane, (1, 1), q.invert_unit())


def test_element_repr_counts_terms(plane):
    assert repr(normal_form(plane, [("x2", 1), ("x1", 1)]) + gen(plane, 0)) == "Element(2 terms)"


def test_scale_by_integers_and_zero(plane):
    x = normal_form(plane, [("x2", 1), ("x1", 1)]) + gen(plane, 0)
    assert x.scale(-1) == -x
    assert x.scale(0) == Element()
    assert x.scale(3) == x + x + x
    assert x.scale(Coefficient.zero(plane.context)) == Element()


def test_weyl_pair_rule(weyl1):
    q1 = Coefficient.symbol(weyl1.context, "q_1")
    got = normal_form(weyl1, [("x1", 1), ("y1", 1)])
    want = monomial(weyl1, (1, 1), q1) + monomial(weyl1, (0, 0))
    assert got == want


def test_matrix_south_east_rule(m2):
    # X22*X11 = p_21 p_12 X11 X22 + (lam - 1) p_21 X12 X21, with p_21 p_12 = 1
    ctx = m2.context
    lam = Coefficient.symbol(ctx, "lam")
    p21 = Coefficient.symbol(ctx, "p_2_1")
    got = normal_form(m2, [("X22", 1), ("X11", 1)])
    want = monomial(m2, (1, 0, 0, 1)) + monomial(m2, (0, 1, 1, 0), (lam - 1) * p21)
    assert got == want


def test_multiply_by_one_is_identity(m2):
    rng = random.Random(2)
    unit = monomial(m2, (0,) * m2.ngens)
    for _ in range(20):
        a = oracles.random_element(m2, rng)
        assert multiply(m2, a, unit) == a
        assert multiply(m2, unit, a) == a


def test_multiply_single_swaps(plane):
    q = Coefficient.symbol(plane.context, "q_1_2")
    x1, x2 = gen(plane, 0), gen(plane, 1)
    assert multiply(plane, x1, x2) == monomial(plane, (1, 1))
    assert multiply(plane, x2, x1) == monomial(plane, (1, 1), q.invert_unit())
    # in every tail-free zoo family each product of two generators is one unit term
    for build in (zoo.quantum_affine_generic, zoo.quantum_affine_single,
                  zoo.quantum_torus_generic, zoo.quantum_torus_single):
        for n in range(5):
            p = build(n)
            for i, j in itertools.product(range(n), repeat=2):
                (exp, c), = multiply(p, gen(p, i), gen(p, j)).terms.items()
                assert exp == tuple((t == i) + (t == j) for t in range(n))
                assert c.is_unit(), (p.name, i, j)


def test_normal_form_idempotent(m2):
    rng = random.Random(11)
    for _ in range(30):
        word = [(rng.randrange(4), 1) for _ in range(rng.randint(0, 5))]
        e = normal_form(m2, word)
        again = Element()
        for exp, c in e.terms.items():
            again = again + normal_form(m2, list(enumerate(exp))).scale(c)
        assert again == e


def test_associativity_randomized(m2):
    rng = random.Random(4)
    for _ in range(60):
        a = oracles.random_element(m2, rng, max_terms=5)
        b = oracles.random_element(m2, rng, max_terms=5)
        c = oracles.random_element(m2, rng, max_terms=5)
        assert multiply(m2, a, multiply(m2, b, c)) == multiply(m2, multiply(m2, a, b), c)


def test_grading_compatibility(m2):
    rng = random.Random(9)
    for _ in range(50):
        ea = oracles.random_monomial_exp(m2, rng)
        eb = oracles.random_monomial_exp(m2, rng)
        prod = multiply(m2, monomial(m2, ea), monomial(m2, eb))
        w = is_homogeneous(m2, prod)
        assert w is not None
        assert w == tuple(a + b for a, b in zip(weight_of(m2, ea), weight_of(m2, eb)))


def test_leading_term_examples(plane, m2):
    e = monomial(plane, (1, 0)) + monomial(plane, (1, 1))
    assert leading_term(plane, e) == ((1, 1), Coefficient.one(plane.context))
    single = monomial(plane, (2, 1))
    assert leading_term(plane, single) == ((2, 1), Coefficient.one(plane.context))
    lam, p = zoo.generic_matrix_data(2)
    from strata_lab.qdet import quantum_determinant
    det = quantum_determinant(2, lam, p)
    exp, c = leading_term(m2, det)
    assert exp == (1, 0, 0, 1) and c == Coefficient.one(m2.context)


def test_leading_term_of_zero_raises(plane):
    with pytest.raises(ValueError):
        leading_term(plane, Element())


def test_leading_exponent_additivity(m2):
    # the testable shadow of the domain property
    rng = random.Random(17)
    for _ in range(80):
        a = oracles.random_element(m2, rng, nonzero=True)
        b = oracles.random_element(m2, rng, nonzero=True)
        ea, ca = leading_term(m2, a)
        eb, cb = leading_term(m2, b)
        prod = multiply(m2, a, b)
        ep, cp = leading_term(m2, prod)
        assert ep == tuple(x + y for x, y in zip(ea, eb))
        ratio = cp.leading_term_ratio(ca * cb)
        assert ratio is not None and cp == (ca * cb) * ratio


def test_hilbert_counts():
    m2 = zoo.quantum_matrices_generic(2, 2)
    assert hilbert_count(m2, 2) == 10
    qa3 = zoo.quantum_affine_generic(3)
    assert hilbert_count(qa3, 2) == 6
    w1 = zoo.quantized_weyl_generic(1)
    assert hilbert_count(w1, 2) == 3
    assert hilbert_count(qa3, 0) == 1
    assert hilbert_count(qa3, -1) == 0


def test_hilbert_rejects_invertible():
    torus = zoo.quantum_torus_generic(2)
    with pytest.raises(PresentationError):
        hilbert_count(torus, 2)


def test_diamond_check_scalar_swaps_commute():
    for n in range(6 + 1):
        p = zoo.quantum_affine_generic(n)
        assert all(r.resolved for r in diamond_check(p))


def test_diamond_check_m2(m2):
    reports = diamond_check(m2)
    assert len(reports) == 4
    assert all(r.resolved for r in reports)
    assert all(r.discrepancy is not None and not r.discrepancy for r in reports)


def test_diamond_check_catches_dropped_tail():
    # deleting one south-east tail of the 3x3 matrix algebra breaks confluence
    p = zoo.quantum_matrices_generic(3, 3)
    rules = dict(p.rules)
    pair = (p.gen_index("X22"), p.gen_index("X11"))
    rules[pair] = Rule(rules[pair].swap, Element())
    broken = Presentation(p.context, p.generators, rules, p.weights, name="corrupt")
    reports = diamond_check(broken)
    assert any(not r.resolved for r in reports)


def test_dropped_tail_at_2x2_stays_confluent():
    # at 2x2 the tail-free system is a pure swap system, hence still confluent;
    # the overlaps only start constraining tails at 3x3
    p = zoo.quantum_matrices_generic(2, 2)
    rules = dict(p.rules)
    rules[(3, 0)] = Rule(rules[(3, 0)].swap, Element())
    still = Presentation(p.context, p.generators, rules, p.weights, name="tailless")
    assert all(r.resolved for r in diamond_check(still))


def test_diamond_check_catches_corrupted_swap():
    from strata_lab.coeff import UnitMonomial
    p = zoo.quantum_matrices_generic(2, 2)
    rules = dict(p.rules)
    old = rules[(2, 0)].swap
    rules[(2, 0)] = Rule(UnitMonomial(old.sign, tuple(2 * e for e in old.exponents)))
    broken = Presentation(p.context, p.generators, rules, p.weights, name="corrupt")
    assert any(not r.resolved for r in diamond_check(broken))


def test_diamond_check_agrees_with_rewriting_in_every_order():
    # an overlap resolves exactly when its word x_k x_j x_i reaches one normal
    # form under every rewriting order, and an unresolved overlap's
    # discrepancy is the difference of two of the forms it reaches
    seed = 71
    print(f"seed {seed}")
    rng = random.Random(seed)
    tailed_confluent = nonconfluent = 0
    for _ in range(300):
        p = oracles.random_tailed_presentation(rng)
        reports = diamond_check(p)
        for r in reports:
            forms = oracles.normal_forms_every_order(p, r.triple)
            assert r.resolved == (len(forms) == 1), (p.rules, r.triple)
            if not r.resolved:
                assert any(r.discrepancy == a - b for a in forms for b in forms if a != b)
        if all(r.resolved for r in reports):
            tailed_confluent += any(rule.tail for rule in p.rules.values())
        else:
            nonconfluent += 1
    assert tailed_confluent and nonconfluent


def test_fuel_exhaustion():
    m2 = zoo.quantum_matrices_generic(2, 2).with_fuel(1)
    with pytest.raises(FuelExhausted):
        normal_form(m2, [("X22", 1), ("X11", 1), ("X21", 1)])


def test_with_fuel_copies_without_rebuilding(m2):
    budgeted = m2.with_fuel(7)
    assert budgeted == m2
    assert budgeted.fuel == 7 and m2.fuel != 7
    assert budgeted._moves is m2._moves


@pytest.mark.parametrize("fuel", [0, -1])
def test_nonpositive_fuel_is_rejected(m2, fuel):
    x = gen(m2, "X11")
    calls = [
        lambda: normal_form(m2, [("X22", 1), ("X11", 1)], fuel=fuel),
        lambda: multiply(m2, x, x, fuel=fuel),
        lambda: m2.with_fuel(fuel),
    ]
    for call in calls:
        with pytest.raises(PresentationError, match="positive"):
            call()


def test_per_call_fuel_is_the_budget(plane, m2):
    word = [("X22", 1), ("X11", 1), ("X21", 1)]
    with pytest.raises(FuelExhausted):
        normal_form(m2, word, fuel=1)
    assert normal_form(m2, word, fuel=None) == normal_form(m2, word)
    # (x1+x2)^2 takes one rewrite, and multiplying it by x1+x2 three more
    a = gen(plane, "x1") + gen(plane, "x2")
    a2 = multiply(plane, a, a, fuel=1)
    a3 = multiply(plane, a2, a, fuel=3)
    budget = Fuel(4)
    assert product(plane, product(plane, a, a, budget), a, budget) == a3
    assert budget.left == 0
    budget = Fuel(3)
    with pytest.raises(FuelExhausted):  # both products draw on one budget
        product(plane, product(plane, a, a, budget), a, budget)


def test_negative_exponent_rejected(plane):
    with pytest.raises(NegativeExponent):
        normal_form(plane, [("x1", -1)])
    with pytest.raises(NegativeExponent):
        monomial(plane, (-1, 0))


# every index is resolved before any exponent is checked, so the last word
# reports its index, not the negative power before it
@pytest.mark.parametrize("word", [[(2, 1)], [(-1, 1)], [(5, 0), ("x1", 1)],
                                  [("x1", -1), (2, 1)]])
def test_generator_indices_out_of_range_are_rejected(plane, word):
    with pytest.raises(PresentationError, match="out of range"):
        normal_form(plane, word)


@pytest.mark.parametrize("inverse_first", [True, False], ids=["tailed pair", "ascending"])
def test_hand_built_negative_powers_are_rejected_before_rewriting(m2, inverse_first):
    # X22^-1 X11 would meet the tailed rule of (X22, X11) at once
    bad = Element({(0, 0, 0, -1): Coefficient.one(m2.context)})
    x11 = gen(m2, "X11")
    fuel = Fuel(5)
    with pytest.raises(NegativeExponent, match="X22"):
        product(m2, *((bad, x11) if inverse_first else (x11, bad)), fuel)
    assert fuel.left == 5


def test_words_past_the_letter_limit_are_rejected_before_expansion(plane):
    with pytest.raises(WordTooLong, match=r"^a word of 100000000000000000001 letters "
                                          r"is longer than the limit of 10000000 letters$"):
        normal_form(plane, [("x2", 10 ** 20), ("x1", 1)])
    with pytest.raises(WordTooLong, match="longer than the limit"):
        normal_form(plane, [("x2", 10 ** 5000)])  # a count too long to print


def test_letter_limit_counts_every_letter(plane, monkeypatch):
    monkeypatch.setattr(pbw, "MAX_WORD_LETTERS", 4)
    assert normal_form(plane, [("x2", 3), ("x1", 1)])
    with pytest.raises(WordTooLong):
        normal_form(plane, [("x2", 4), ("x1", 1)])
    t = zoo.quantum_torus_generic(2)
    assert multiply(t, monomial(t, (2, -1)), gen(t, "x1"))  # four letters in all
    # five letters in the product, then five in one factor
    for exps in ((2, -2), (2, -3)):
        with pytest.raises(WordTooLong):
            multiply(t, monomial(t, exps), gen(t, "x1"))


def test_torus_words_with_inverses():
    t = zoo.quantum_torus_generic(2)
    q = Coefficient.symbol(t.context, "q_1_2")
    # x2 x1^-1 = q_12 x1^-1 x2
    got = normal_form(t, [("x2", 1), ("x1", -1)])
    assert got == monomial(t, (-1, 1), q)
    # x^a x^-a = 1
    a = monomial(t, (2, -1))
    b = monomial(t, (-2, 1))
    prod = multiply(t, a, b)
    assert len(prod) == 1 and next(iter(prod.terms)) == (0, 0)


def test_presentation_validation():
    ctx = ParamContext(["q"])
    with pytest.raises(PresentationError):
        Presentation(ctx, ["x1", "x2"], {})  # missing rule pair
    from strata_lab.coeff import UnitMonomial
    rules = {(1, 0): Rule(UnitMonomial(1, (0,)), Element({(1, 1): Coefficient.one(ctx)}))}
    with pytest.raises(PresentationError):
        Presentation(ctx, ["x1", "x2"], rules, invertible=True)  # tail on invertible pair
    # a tail's powers are checked where the tail enters the engine, by _checked
    rules = {(1, 0): Rule(UnitMonomial(1, (0,)), Element({(-1, 1): Coefficient.one(ctx)}))}
    with pytest.raises(NegativeExponent, match="generator x1$"):
        Presentation(ctx, ["x1", "x2"], rules)
    # a tail term on the swap monomial x1*x2 would write that term twice
    q = Coefficient.symbol(ctx, "q")
    for tail in [{(1, 1): q}, {(1, 1): q, (2, 0): q}]:
        rules = {(1, 0): Rule(UnitMonomial(1, (0,)), Element(tail))}
        with pytest.raises(PresentationError, match=r"tail for \(x2, x1\) has a x1\*x2 term"):
            Presentation(ctx, ["x1", "x2"], rules)


def test_generators_are_all_polynomial_or_all_invertible(plane):
    for flags in [(True, False), (True, True), [False, False], 1]:
        with pytest.raises(PresentationError, match="all polynomial or all invertible"):
            Presentation(plane.context, plane.generators, plane.rules, invertible=flags)


def test_reduction_is_strategy_independent():
    # a confluent presentation must give the same normal form no matter
    # which descending pair is rewritten first
    rng = random.Random(53)
    algebras = [
        zoo.quantum_affine_generic(3),
        zoo.quantum_matrices_generic(2, 2),
        zoo.quantum_matrices_generic(3, 3),
        zoo.quantized_weyl_generic(2),
        zoo.quantum_symplectic(2),
        zoo.quantum_euclidean(5),
    ]
    for p in algebras:
        unit = Coefficient.one(p.context)
        for _ in range(60):
            letters = tuple((rng.randrange(p.ngens), 1)
                            for _ in range(rng.randint(0, 6)))
            expected = normal_form(p, letters)
            assert oracles.reduce_rightmost(p, letters, unit) == expected


def test_order_key_orders_by_degree_then_top_exponent():
    assert order_key((1, 0)) < order_key((1, 1))      # degree dominates
    assert order_key((2, 0)) < order_key((1, 1))      # same degree: top exponent decides
    assert order_key((0, 2)) > order_key((2, 0))
    assert order_key((1, 0, 1)) > order_key((0, 2, 0))


def test_hilbert_count_needs_no_rewriting(monkeypatch):
    import strata_lab.pbw as pbw

    def no_engine(*args, **kwargs):
        raise AssertionError("ordered monomials need no reduction")

    monkeypatch.setattr(pbw, "_reduce", no_engine)
    m3 = zoo.quantum_matrices_generic(3, 3)
    for d in range(8):
        assert hilbert_count(m3, d) == oracles.commutative_count(9, d)
    assert hilbert_count(zoo.quantum_affine_generic(0), 0) == 1
    assert hilbert_count(zoo.quantum_affine_generic(0), 2) == 0


ZOO_FAMILIES = {
    "quantum_affine_generic(3)": lambda: zoo.quantum_affine_generic(3),
    "quantum_affine_single(3)": lambda: zoo.quantum_affine_single(3),
    "quantum_torus_generic(3)": lambda: zoo.quantum_torus_generic(3),
    "quantum_torus_single(3)": lambda: zoo.quantum_torus_single(3),
    "quantum_matrices_generic(3, 3)": lambda: zoo.quantum_matrices_generic(3, 3),
    "quantum_matrices_single(2, 3)": lambda: zoo.quantum_matrices_single(2, 3),
    "quantized_weyl_generic(2)": lambda: zoo.quantized_weyl_generic(2),
    "quantum_symplectic(2)": lambda: zoo.quantum_symplectic(2),
    "quantum_euclidean(4)": lambda: zoo.quantum_euclidean(4),
}


@pytest.mark.parametrize("family", sorted(ZOO_FAMILIES))
def test_fuel_boundary_is_the_leftmost_rewrite_count(family):
    # the engine applies exactly the rules of a plain leftmost-first
    # reduction: its budget suffices at that count and not one below it
    p = ZOO_FAMILIES[family]()
    seed = zlib.crc32(family.encode())
    print(f"seed {seed}")
    rng = random.Random(seed)
    for _ in range(30):
        letters = []
        for _ in range(rng.randint(2, 10)):
            i = rng.randrange(p.ngens)
            letters.append((i, -1 if p.invertible[i] and rng.random() < 0.4 else 1))
        count = oracles.leftmost_rewrites(p, letters)
        want = oracles.reduce_rightmost(p, letters, Coefficient.one(p.context))
        assert normal_form(p, letters, fuel=max(count, 1)) == want, letters
        if count > 1:
            with pytest.raises(FuelExhausted):
                normal_form(p, letters, fuel=count - 1)


OVERLAP_FAMILIES = {
    "quantum_affine_generic(4)": lambda: zoo.quantum_affine_generic(4),  # no tails
    "quantum_euclidean(5)": lambda: zoo.quantum_euclidean(5),
    "quantum_matrices_generic(3, 3)": lambda: zoo.quantum_matrices_generic(3, 3),
    "quantized_weyl_generic(2)": lambda: zoo.quantized_weyl_generic(2),
    "quantum_symplectic(3)": lambda: zoo.quantum_symplectic(3),
}


def _tail_words(rule):
    return [[(g, 1 if e > 0 else -1) for g, e in enumerate(exp) for _ in range(abs(e))]
            for exp in rule.tail.terms]


@pytest.mark.parametrize("family", sorted(OVERLAP_FAMILIES))
def test_overlap_fuel_boundary_is_the_leftmost_rewrite_count(family):
    # an overlap x_k x_j x_i costs the leftmost rewrites of the words both
    # sides hold after their forced first rewrite; at each overlap's count and
    # one below it, every overlap resolves exactly when its count fits
    p = OVERLAP_FAMILIES[family]()
    counts = {}
    for i, j, k in itertools.combinations(range(p.ngens), 3):
        xi, xj, xk = (i, 1), (j, 1), (k, 1)
        words = [[xj, xk, xi], [xk, xi, xj]]
        words += [t + [xi] for t in _tail_words(p.rules[(k, j)])]
        words += [[xk] + t for t in _tail_words(p.rules[(j, i)])]
        counts[(k, j, i)] = sum(oracles.leftmost_rewrites(p, w) for w in words)
    for fuel in sorted({f for c in counts.values() for f in (c, c - 1) if f > 0}):
        reports = diamond_check(p.with_fuel(fuel))
        assert [r.triple for r in reports] == sorted(counts)
        for r in reports:
            fits = counts[r.triple] <= fuel
            assert (r.resolved, r.note) == ((True, "") if fits else (False, "fuel exhausted")), \
                (r.triple, counts[r.triple], fuel)


# Leftmost rewrite counts, derived with oracles.leftmost_rewrites, of every
# generator in reverse order, each squared and each cubed: the sixteen long
# words of the benchmark's rewrite workload.  None: not counted here, because
# the oracle takes about a second on it.
REVERSED_WORD_COUNTS = {
    "quantized_weyl_generic(2)": (lambda: zoo.quantized_weyl_generic(2), 348, 25038),
    "quantized_weyl_generic(3)": (lambda: zoo.quantized_weyl_generic(3), 58382, 197103090),
    "quantum_symplectic(2)": (lambda: zoo.quantum_symplectic(2), 94, 903),
    "quantum_symplectic(3)": (lambda: zoo.quantum_symplectic(3), 4418, 537597),
    "quantum_euclidean(4)": (lambda: zoo.quantum_euclidean(4), 56, 375),
    "quantum_euclidean(5)": (lambda: zoo.quantum_euclidean(5), 1196, 126810),
    "quantum_matrices_generic(2, 3)": (lambda: zoo.quantum_matrices_generic(2, 3), 1612, 124236),
    "quantum_matrices_generic(3, 3)": (lambda: zoo.quantum_matrices_generic(3, 3), 4762834, None),
}


def test_reversed_generator_words_cost_their_leftmost_counts():
    # the memo charges a recurring word's whole count at once, so the budget
    # still runs out exactly one rewrite below the plain leftmost count
    for family, (build, *counts) in REVERSED_WORD_COUNTS.items():
        p = build()
        for power, count in zip((2, 3), counts):
            letters = [(i, 1) for i in reversed(range(p.ngens)) for _ in range(power)]
            if count is not None:
                assert oracles.leftmost_rewrites(p, letters) == count, (family, power)
            if count is None or count > pbw.DEFAULT_FUEL:
                with pytest.raises(FuelExhausted):
                    normal_form(p, letters)
                continue
            got = normal_form(p, letters, fuel=count)
            if count <= 5000:  # the rightmost reducer walks every rewrite
                unit = Coefficient.one(p.context)
                assert got == oracles.reduce_rightmost(p, letters, unit), (family, power)
            with pytest.raises(FuelExhausted):
                normal_form(p, letters, fuel=count - 1)


FAST_WORDS = [w for w in WORDS if w[:2] not in SLOW]


@pytest.mark.parametrize("family, power, budget, digest", FAST_WORDS,
                         ids=[f"{family} power {power}" for family, power, *_ in FAST_WORDS])
def test_reversed_generator_words_keep_their_digests(family, power, budget, digest):
    # the slow two of the sixteen run as tests/reversed_digests.py
    assert reversed_word_digest(family, power, budget) == digest


def test_memo_entries_nest_deeper_than_the_interpreter_stack():
    # y x = x y + 1: in y^2 x^d the word x^a y x^b comes back inside the entry
    # of x^(a-1) y x^(b+1), so entries nest about d deep, and
    # y^2 x^d = x^d y^2 + 2d x^(d-1) y + d(d-1) x^(d-2) in d(d+1) rewrites
    ctx = ParamContext([])
    unit = Coefficient.one(ctx)
    weyl = Presentation(ctx, ["x", "y"], {(1, 0): Rule(swap=UnitMonomial(1, ()),
                                                       tail=Element({(0, 0): unit}))})
    for d in (1, 2, 5, 9):
        letters = [(1, 1), (1, 1)] + [(0, 1)] * d
        assert oracles.leftmost_rewrites(weyl, letters) == d * (d + 1)
    d = sys.getrecursionlimit() + 100
    want = Element({(d, 2): unit, (d - 1, 1): unit * (2 * d),
                    (d - 2, 0): unit * (d * (d - 1))})
    small = [(1, 1), (1, 1)] + [(0, 1)] * 9
    assert oracles.reduce_rightmost(weyl, small, unit) == Element(
        {(9, 2): unit, (8, 1): unit * 18, (7, 0): unit * 72})
    assert normal_form(weyl, [("y", 2), ("x", d)], fuel=d * (d + 1)) == want
    with pytest.raises(FuelExhausted):
        normal_form(weyl, [("y", 2), ("x", d)], fuel=d * (d + 1) - 1)


@pytest.mark.parametrize("n, power, terms", [(2, 3, 22), (3, 2, 55)])
def test_long_tailed_words_match_the_rightmost_reducer(n, power, terms):
    # Weyl generators reversed, each raised to a power: tens of thousands of
    # tail branches
    p = zoo.quantized_weyl_generic(n)
    letters = [(i, 1) for i in reversed(range(p.ngens)) for _ in range(power)]
    got = normal_form(p, [(i, power) for i in reversed(range(p.ngens))])
    assert got == oracles.reduce_rightmost(p, letters, Coefficient.one(p.context))
    assert len(got) == terms


def test_tail_free_runs_cost_one_rewrite_each():
    # x2^k x1 = q^-k x1 x2^k takes k swaps; the closed form charges them at
    # once, so a long word costs no time in k past the length check
    plane = zoo.quantum_affine_single(2)
    k = 20000
    q = Coefficient.symbol(plane.context, "q")
    word = [("x2", k), ("x1", 1)]
    assert normal_form(plane, word, fuel=k) == monomial(plane, (1, k), q ** -k)
    with pytest.raises(FuelExhausted):
        normal_form(plane, word, fuel=k - 1)


def test_swap_signs_survive_every_swap():
    # the zoo's swap units are all positive; flip them: x_j x_i = -q x_i x_j
    from strata_lab.coeff import UnitMonomial
    t = zoo.quantum_torus_generic(3)
    rules = {pair: Rule(UnitMonomial(-r.swap.sign, r.swap.exponents))
             for pair, r in t.rules.items()}
    skew = Presentation(t.context, t.generators, rules, t.weights, invertible=True,
                        name="skew")
    q = Coefficient.symbol(skew.context, "q_1_2")
    got = normal_form(skew, [("x2", 3), ("x1", 1)])
    assert got == monomial(skew, (1, 3, 0), -(q ** -3))
    rng = random.Random(71)
    unit = Coefficient.one(skew.context)
    for _ in range(40):
        letters = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(2, 8))]
        assert normal_form(skew, letters) == oracles.reduce_rightmost(skew, letters, unit), letters


def _signed(ctx, rules):
    """Generators x1 < x2 < ... over ctx, with rules (hi, lo) -> (swap sign,
    swap exponents, tail terms)."""
    n = 1 + max(hi for hi, _ in rules)
    return Presentation(ctx, [f"x{g + 1}" for g in range(n)],
                        {pair: Rule(UnitMonomial(s, e), Element(t))
                         for pair, (s, e, t) in rules.items()})


def test_tails_next_to_negative_swaps_keep_their_own_sign():
    # a tail term is not multiplied by its rule's swap sign: y*x = -x*y + 1,
    # and two confluent three-generator presentations with swaps of sign -1
    # beside tails, against the rightmost reducer
    ctx = ParamContext(["q"])
    one, q = Coefficient.one(ctx), Coefficient.symbol(ctx, "q")
    clifford = _signed(ctx, {(1, 0): (-1, (0,), {(0, 0): one})})
    assert normal_form(clifford, [("x2", 1), ("x1", 1)]) == Element(
        {(1, 1): -one, (0, 0): one})
    linear = _signed(ctx, {(1, 0): (-1, (1,), {(0, 0, 0): one}),
                           (2, 0): (-1, (0,), {(1, 0, 0): one}),
                           (2, 1): (-1, (0,), {(0, 1, 0): one})})
    constant = _signed(ctx, {(1, 0): (-1, (0,), {(0, 0, 0): one}),
                             (2, 0): (-1, (0,), {(0, 0, 0): 2 * one}),
                             (2, 1): (-1, (0,), {(0, 0, 0): q})})
    seed = 29
    print(f"seed {seed}")
    rng = random.Random(seed)
    for p in (clifford, linear, constant):
        assert all(r.resolved for r in diamond_check(p))
        for _ in range(30):
            letters = [(rng.randrange(p.ngens), 1) for _ in range(rng.randint(2, 7))]
            want = oracles.reduce_rightmost(p, letters, one)
            assert normal_form(p, letters) == want, (p.rules, letters)


# -- the closed form of tail-free words ----------------------------------------


def _letters_of(word):
    return [(i, 1 if e > 0 else -1) for i, e in word for _ in range(abs(e))]


def _closed_form_element(p, word, fuel):
    term = pbw._closed_form(p, Coefficient.one(p.context), word, fuel)
    return None if term is None else Element([term])


def _assert_closed_form_is_the_reduction(p, word):
    """The closed form of a tail-free word equals the rightmost reducer's
    answer, and it charges exactly the leftmost rewrite count: the budget
    suffices at that count and not one below it."""
    letters = _letters_of(word)
    count = oracles.leftmost_rewrites(p, letters)
    want = oracles.reduce_rightmost(p, letters, Coefficient.one(p.context))
    budget = Fuel(count + 1)
    assert _closed_form_element(p, word, budget) == want, word
    assert budget.left == 1, (word, count)
    assert normal_form(p, word, fuel=max(count, 1)) == want, word
    budget.left = count - 1
    if count:
        with pytest.raises(FuelExhausted):
            pbw._closed_form(p, Coefficient.one(p.context), word, budget)


def _random_word(p, rng, syllables=6, power=3):
    word = []
    for _ in range(rng.randint(1, syllables)):
        i = rng.randrange(p.ngens)
        e = rng.randint(1, power) * (rng.choice((1, -1)) if p.invertible[i] else 1)
        word.append((i, e))
    return word


@pytest.mark.parametrize("build, n", [(zoo.quantum_torus_generic, n) for n in (2, 3, 4)]
                         + [(zoo.quantum_torus_single, n) for n in (2, 4)])
def test_closed_form_matches_the_oracles_on_torus_words(build, n):
    # repeated generators and inverse letters: x_j^e x_j^-e meets each lower
    # letter twice, so it costs two swaps per lower letter whose units cancel
    p = build(n)
    seed = zlib.crc32(f"{build.__name__}({n})".encode())
    print(f"seed {seed}")
    rng = random.Random(seed)
    for _ in range(60):
        _assert_closed_form_is_the_reduction(p, _random_word(p, rng))
    word = [(1, 1), (1, -1), (0, 1)]
    assert oracles.leftmost_rewrites(p, _letters_of(word)) == 2
    assert normal_form(p, word, fuel=2) == gen(p, 0)
    with pytest.raises(FuelExhausted):
        normal_form(p, word, fuel=1)


def test_closed_form_takes_each_swap_sign_once_per_letter_pair():
    # swaps of sign -1 on two of the three pairs: a pair of syllables x_j^e,
    # x_i^f (j > i) flips the sign |e f| times, so x2^2 x1^3 keeps it and
    # x2^3 x1^3 flips it
    t = zoo.quantum_torus_generic(3)
    rules = {(j, i): Rule(UnitMonomial(-r.swap.sign if j - i == 1 else r.swap.sign,
                                       r.swap.exponents))
             for (j, i), r in t.rules.items()}
    mixed = Presentation(t.context, t.generators, rules, t.weights, invertible=True,
                         name="mixed")
    q = Coefficient.symbol(mixed.context, "q_1_2")
    assert normal_form(mixed, [(1, 2), (0, 3)]) == monomial(mixed, (3, 2, 0), q ** -6)
    assert normal_form(mixed, [(1, 3), (0, 3)]) == monomial(mixed, (3, 3, 0), -(q ** -9))
    seed = 4099
    print(f"seed {seed}")
    rng = random.Random(seed)
    for _ in range(80):
        _assert_closed_form_is_the_reduction(mixed, _random_word(mixed, rng))


@pytest.mark.parametrize("family", ["quantum_matrices_single(2, 3)",
                                    "quantized_weyl_generic(2)", "quantum_euclidean(4)"])
def test_products_mixing_closed_form_and_rewriting_match_the_oracles(family, monkeypatch):
    # some term pairs meet only tail-free rules and are multiplied in closed
    # form, the others are rewritten; one budget pays for both exactly
    p = ZOO_FAMILIES[family]()
    taken = _closed_form_spy(monkeypatch)
    seed = zlib.crc32(family.encode())
    print(f"seed {seed}")
    rng = random.Random(seed)
    for _ in range(25):
        a = oracles.random_element(p, rng, max_terms=3, max_total=2, nonzero=True)
        b = oracles.random_element(p, rng, max_terms=3, max_total=2, nonzero=True)
        want, count = Element(), 0
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                letters = _letters_of(enumerate(ea)) + _letters_of(enumerate(eb))
                want = want + oracles.reduce_rightmost(p, letters, ca * cb)
                count += oracles.leftmost_rewrites(p, letters)
        budget = Fuel(count + 1)
        assert product(p, a, b, budget) == want
        assert budget.left == 1
        if count:
            budget.left = count - 1
            with pytest.raises(FuelExhausted):
                product(p, a, b, budget)
    assert any(taken) and not all(taken)


ONE_TERM_FAMILIES = {
    # family: (builder, largest exponent size, tail-free)
    "quantum_torus_generic(5)": (lambda: zoo.quantum_torus_generic(5), 3, True),
    "quantum_affine_generic(8)": (lambda: zoo.quantum_affine_generic(8), 2, True),
    "quantum_torus_single(4)": (lambda: zoo.quantum_torus_single(4), 3, True),
    "quantized_weyl_generic(2)": (lambda: zoo.quantized_weyl_generic(2), 1, False),
}


@pytest.mark.parametrize("family", sorted(ONE_TERM_FAMILIES))
def test_one_term_products_match_the_word_and_the_oracles(family, monkeypatch):
    # a product of two one-term elements is the normal form of its concatenated
    # word times both coefficients, finished in closed form when the word meets
    # no tail and rewritten otherwise; its budget suffices at the leftmost
    # rewrite count and not one below it, on either path
    build, size, tail_free = ONE_TERM_FAMILIES[family]
    p = build()
    taken = _closed_form_spy(monkeypatch)
    seed = zlib.crc32(family.encode())
    print(f"seed {seed}")
    rng = random.Random(seed)
    for _ in range(30):
        terms = []
        for _ in range(2):
            exps = tuple(rng.randint(-size if inv else 0, size) for inv in p.invertible)
            c = Coefficient.monomial(p.context, rng.choice([-2, -1, 1, 3]),
                                     (rng.randint(-1, 1) for _ in p.context.symbols))
            terms.append((exps, c))
        (ea, ca), (eb, cb) = terms
        word = [(i, e) for exps in (ea, eb) for i, e in enumerate(exps) if e]
        letters = _letters_of(word)
        count = oracles.leftmost_rewrites(p, letters)
        want = oracles.reduce_rightmost(p, letters, ca * cb)
        assert normal_form(p, word, fuel=max(count, 1)).scale(ca * cb) == want, word
        a, b = Element({ea: ca}), Element({eb: cb})
        budget = Fuel(count + 1)
        assert product(p, a, b, budget) == want, word
        assert budget.left == 1
        if count:
            budget.left = count - 1
            with pytest.raises(FuelExhausted):
                product(p, a, b, budget)
    assert all(taken) if tail_free else any(taken) and not all(taken)


@pytest.mark.parametrize("terms", [1, 2], ids=["one term", "two terms"])
def test_product_refusals_keep_their_order(terms, monkeypatch):
    # a factor of the wrong width first, then the right factor's word, then the
    # left's, then the pair's letters; within a word a negative power of a
    # polynomial generator before its length; nothing is charged
    monkeypatch.setattr(pbw, "MAX_WORD_LETTERS", 4)
    plane = zoo.quantum_affine_generic(2)
    one = Coefficient.one(plane.context)

    def element(exps):  # with terms == 2, the unit rides along
        return Element({exps: one, (0,) * len(exps): one} if terms == 2 else {exps: one})

    neg, long, three = element((-1, 1)), element((0, 5)), element((3, 0))
    wide = element((1, 0, 0))
    for a, b, exc, message in [
        (wide, neg, PresentationError, "^element width does not match presentation$"),
        (neg, wide, PresentationError, "^element width does not match presentation$"),
        (neg, long, WordTooLong, "^a word of 5 letters"),
        (long, neg, NegativeExponent, "^negative power of non-invertible generator x1$"),
        (long, three, WordTooLong, "^a word of 5 letters"),
        (neg, three, NegativeExponent, "^negative power of non-invertible generator x1$"),
        (three, three, WordTooLong, "^a word of 6 letters"),
    ]:
        fuel = Fuel(5)
        with pytest.raises(exc, match=message):
            product(plane, a, b, fuel)
        assert fuel.left == 5


def _closed_form_spy(monkeypatch):
    """The list of whether each seed was finished in closed form."""
    taken = []
    closed_form = pbw._closed_form

    def spy(p, c, word, fuel):
        term = closed_form(p, c, word, fuel)
        taken.append(term is not None)
        return term

    monkeypatch.setattr(pbw, "_closed_form", spy)
    return taken


def test_tail_free_words_are_never_rewritten(monkeypatch):
    # the closed form answers every tail-free word, at a cost flat in k past
    # the length check: no letter list is built, nothing is rewritten
    taken = _closed_form_spy(monkeypatch)
    plane, torus = zoo.quantum_affine_generic(2), zoo.quantum_torus_generic(2)
    swap = plane.rules[(1, 0)].swap.to_coefficient(plane.context)
    for k in (10 ** 3, 10 ** 6):
        want = monomial(plane, (1, k), swap ** k)
        assert normal_form(plane, [("x2", k), ("x1", 1)], fuel=k) == want
        assert multiply(plane, monomial(plane, (0, k)), gen(plane, "x1"), fuel=k) == want
        assert not strat.is_central(torus, monomial(torus, (k, -k)))
        assert strat.is_central(torus, monomial(torus, (0, 0)))
    reports = diamond_check(zoo.quantum_affine_generic(5))
    assert len(reports) == 10 and all(r.resolved for r in reports)
    assert len(taken) == 2 * 8 + 2 * 10 and all(taken)


def test_a_long_tail_free_product_costs_its_swaps_exactly(plane):
    # x2^(10^6) * x1 is 10^6 swaps, charged at once
    k = 10 ** 6
    a, x1 = monomial(plane, (0, k)), gen(plane, "x1")
    start = time.perf_counter()
    got = multiply(plane, a, x1, fuel=k)
    with pytest.raises(FuelExhausted):
        multiply(plane, a, x1, fuel=k - 1)
    assert time.perf_counter() - start < 1.0
    swap = plane.rules[(1, 0)].swap.to_coefficient(plane.context)
    assert got == monomial(plane, (1, k), swap ** k)


def test_product_counts_letters_before_building_any(plane):
    # each factor fits the letter limit, the pair does not: refused before
    # either factor's 10^7 letters are built
    tracemalloc.start()
    try:
        with pytest.raises(WordTooLong, match="^a word of 19999998 letters"):
            dsl.evaluate_expression(plane, "x1^9999999*x1^9999999")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak
