import itertools
import random
import zlib

import pytest

from strata_lab import pbw, zoo
from strata_lab.coeff import Coefficient, ParamContext
from strata_lab.grading import is_homogeneous, weight_of
from strata_lab.pbw import (Element, Fuel, FuelExhausted, NegativeExponent,
                            Presentation, PresentationError, Rule, WordTooLong,
                            diamond_check, gen, hilbert_count, leading_term,
                            monomial, multiply, normal_form, one, order_key,
                            product)

import oracles


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


def test_weyl_pair_rule(weyl1):
    q1 = Coefficient.symbol(weyl1.context, "q_1")
    got = normal_form(weyl1, [("x1", 1), ("y1", 1)])
    want = monomial(weyl1, (1, 1), q1) + one(weyl1)
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
    for _ in range(20):
        a = oracles.random_element(m2, rng)
        assert multiply(m2, a, one(m2)) == a
        assert multiply(m2, one(m2), a) == a


def test_multiply_single_swaps(plane):
    q = Coefficient.symbol(plane.context, "q_1_2")
    x1, x2 = gen(plane, 0), gen(plane, 1)
    assert multiply(plane, x1, x2) == monomial(plane, (1, 1))
    assert multiply(plane, x2, x1) == monomial(plane, (1, 1), q.invert_unit())


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
def test_nonpositive_fuel_is_rejected(plane, m2, fuel):
    x = gen(m2, "X11")
    calls = [
        lambda: normal_form(m2, [("X22", 1), ("X11", 1)], fuel=fuel),
        lambda: multiply(m2, x, x, fuel=fuel),
        lambda: diamond_check(m2, fuel=fuel),
        lambda: diamond_check(plane, fuel=fuel),  # no overlap to resolve
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


@pytest.mark.parametrize("word", [[(2, 1)], [(-1, 1)], [(5, 0), ("x1", 1)]])
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
    assert multiply(t, monomial(t, (2, -2)), gen(t, "x1"))
    with pytest.raises(WordTooLong):
        multiply(t, monomial(t, (2, -3)), gen(t, "x1"))


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
        reports = diamond_check(p, fuel=fuel)
        assert [r.triple for r in reports] == sorted(counts)
        for r in reports:
            fits = counts[r.triple] <= fuel
            assert (r.resolved, r.note) == ((True, "") if fits else (False, "fuel exhausted")), \
                (r.triple, counts[r.triple], fuel)


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
    # x2^k x1 = q^-k x1 x2^k takes k swaps; the engine does them in place,
    # so a long word costs time linear in k
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
