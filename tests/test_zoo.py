import itertools
import random
import warnings

import pytest

from strata_lab import zoo
from strata_lab.coeff import Coefficient, ParamContext
from strata_lab.grading import check_homogeneous_rules, weight_of
from strata_lab.pbw import (Element, diamond_check, gen, monomial, multiply,
                            normal_form)
from strata_lab.zoo import AntisymmetricMatrixSpec, BadMatrix


def test_affine_n1_is_commutative_polynomial_ring():
    p = zoo.quantum_affine_generic(1)
    assert p.ngens == 1 and not p.rules
    assert multiply(p, gen(p, 0), gen(p, 0)) == monomial(p, (2,))


def test_affine_all_ones_is_commutative():
    ctx = ParamContext([])
    spec = AntisymmetricMatrixSpec(ctx, 3, {})
    p = zoo.quantum_affine(spec)
    assert all(r.resolved for r in diamond_check(p))
    x1, x3 = gen(p, 0), gen(p, 2)
    assert multiply(p, x3, x1) == multiply(p, x1, x3)


def test_affine_generic_plane_symbols():
    p = zoo.quantum_affine_generic(2)
    assert p.context.symbols == ("q_1_2",)
    assert p.generators == ("x1", "x2")
    assert [tuple(w) for w in p.weights] == [(1, 0), (0, 1)]


def test_matrix_n1_is_polynomial_ring():
    p = zoo.quantum_matrices_generic(1, 1)
    assert p.ngens == 1 and not p.rules


def test_matrix_single_param_convention():
    # below-diagonal p entries equal q, lam = q^-2
    lam, p = zoo.single_param_matrix_data(2)
    q = Coefficient.symbol(p.context, "q")
    assert p.entry(1, 0) == q
    assert p.entry(0, 1) == q.invert_unit()
    assert lam == Coefficient.symbol(p.context, "q", -2)
    pres = zoo.quantum_matrices_single(2, 2)
    assert all(r.resolved for r in diamond_check(pres))
    # X11 X12 = q X12 X11
    got = normal_form(pres, [("X12", 1), ("X11", 1)])
    assert got == monomial(pres, (1, 1, 0, 0), q.invert_unit())


def test_rectangular_row_is_quantum_affine():
    # one row: only the same-row relation case survives
    pres = zoo.quantum_matrices_generic(1, 3)
    p = AntisymmetricMatrixSpec.generic(3, prefix="p", below_diagonal=True,
                                        extra_symbols=("lam",))
    for b in range(3):
        for a in range(b):
            assert pres.rules[(b, a)].swap == p.entry(a, b).as_unit()
            assert not pres.rules[(b, a)].tail


def test_rectangular_embeds_in_square():
    lam, p = zoo.generic_matrix_data(3)
    rect = zoo.quantum_matrices(2, 3, lam, p)
    square = zoo.quantum_matrices(3, 3, lam, p)
    mapping = {rect.gen_index(g): square.gen_index(g) for g in rect.generators}
    rng = random.Random(23)
    for _ in range(40):
        word = [(rng.randrange(rect.ngens), 1) for _ in range(rng.randint(0, 4))]
        small = normal_form(rect, word)
        big = normal_form(square, [(mapping[i], e) for i, e in word])
        lifted = {}
        for exp, c in small.terms.items():
            big_exp = [0] * square.ngens
            for i, e in enumerate(exp):
                big_exp[mapping[i]] = e
            lifted[tuple(big_exp)] = c
        assert Element(lifted) == big


def test_degenerate_lambda_rejected():
    _, p = zoo.generic_matrix_data(2)
    with pytest.raises(BadMatrix, match="lambda must be a unit coefficient"):
        zoo.quantum_matrices(2, 2, Coefficient.zero(p.context), p)


@pytest.mark.parametrize("data", [zoo.generic_matrix_data, zoo.single_param_matrix_data])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3)])
def test_lambda_minus_one_is_confluent_without_a_warning(data, m, n):
    """lambda = -1 is a unit like any other: every overlap resolves, so the
    ordered monomials are a basis (the diamond lemma)."""
    _, p = data(max(m, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pres = zoo.quantum_matrices(m, n, Coefficient.integer(p.context, -1), p)
    assert all(r.resolved for r in diamond_check(pres))


def test_bad_matrix_size_rejected():
    lam, p = zoo.generic_matrix_data(2)
    with pytest.raises(BadMatrix):
        zoo.quantum_matrices(2, 3, lam, p)


def _negative_size_calls():
    calls = []
    for sizes, *builds in zoo.FAMILIES.values():
        for build in filter(None, builds):
            for bad in sizes:
                kwargs = {key: -1 if key == bad else 2 for key in sizes}
                calls.append(pytest.param(build, kwargs, id=f"{build.__name__}({bad}=-1)"))
    lam, p = zoo.generic_matrix_data(2)
    for build in (AntisymmetricMatrixSpec.generic, AntisymmetricMatrixSpec.single,
                  zoo.generic_matrix_data, zoo.single_param_matrix_data):
        calls.append(pytest.param(build, {"n": -1}, id=f"{build.__qualname__}(n=-1)"))
    calls.append(pytest.param(AntisymmetricMatrixSpec,
                              {"context": ParamContext([]), "n": -1, "upper": {}},
                              id="AntisymmetricMatrixSpec(n=-1)"))
    calls.append(pytest.param(zoo.quantum_matrices, {"m": -1, "n": 2, "lam": lam, "p": p},
                              id="quantum_matrices(m=-1)"))
    return calls


@pytest.mark.parametrize("build, kwargs", _negative_size_calls())
def test_negative_sizes_are_rejected(build, kwargs):
    with pytest.raises(zoo.ZooError):
        build(**kwargs)


def _bad_entries():
    ctx = ParamContext(["q"])
    q = Coefficient.symbol(ctx, "q")
    return [pytest.param(ctx, 1, id="int"),
            pytest.param(ctx, Coefficient.integer(ctx, 2) * q, id="2*q"),
            pytest.param(ctx, Coefficient.one(ctx) + q, id="1+q"),
            pytest.param(ctx, Coefficient.zero(ctx), id="0"),
            pytest.param(ctx, Coefficient.symbol(ParamContext(["t"]), "t"),
                         id="other context")]


@pytest.mark.parametrize("ctx, entry", _bad_entries())
def test_spec_rejects_entries_that_are_not_units_over_its_context(ctx, entry):
    with pytest.raises(BadMatrix, match=r"^entry \(1,2\) = .* is not a unit monomial"):
        AntisymmetricMatrixSpec(ctx, 2, {(1, 2): entry})


@pytest.mark.parametrize("pair", [(2, 1), (1, 1), (0, 1), (1, 3)], ids=str)
def test_spec_rejects_bad_index_pairs(pair):
    ctx = ParamContext(["q"])
    with pytest.raises(BadMatrix, match="bad upper index pair"):
        AntisymmetricMatrixSpec(ctx, 2, {pair: Coefficient.symbol(ctx, "q")})


def _assert_antisymmetric(spec):
    one_ = Coefficient.one(spec.context)
    for i in range(spec.n):
        assert spec.entry(i, i) == one_
        for j in range(spec.n):
            assert spec.entry(i, j) * spec.entry(j, i) == one_, (i, j)


@pytest.mark.parametrize("n", range(7))
def test_generic_and_single_specs_are_antisymmetric(n):
    for spec in (AntisymmetricMatrixSpec.generic(n),
                 AntisymmetricMatrixSpec.generic(n, prefix="p", below_diagonal=True),
                 AntisymmetricMatrixSpec.single(n),
                 AntisymmetricMatrixSpec.single(n, upper_exponent=-1)):
        assert spec.n == n
        _assert_antisymmetric(spec)


def test_random_unit_upper_entries_give_an_antisymmetric_spec():
    seed = 1807
    print(f"seed {seed}")
    rng = random.Random(seed)
    ctx = ParamContext(["a", "b", "c"])
    for _ in range(60):
        n = rng.randint(0, 6)
        upper = {(i, j): Coefficient.monomial(ctx, rng.choice((1, -1)),
                                              tuple(rng.randint(-3, 3) for _ in range(3)))
                 for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.8}
        spec = AntisymmetricMatrixSpec(ctx, n, upper)
        _assert_antisymmetric(spec)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert spec.entry(i - 1, j - 1) == upper.get((i, j), Coefficient.one(ctx))


def test_weyl_rules_and_weights():
    p = zoo.quantized_weyl_generic(2)
    ctx = p.context
    q1 = Coefficient.symbol(ctx, "q_1")
    q2 = Coefficient.symbol(ctx, "q_2")
    # x1 y1 -> 1 + q_1 y1 x1
    unit = monomial(p, (0,) * p.ngens)
    got = normal_form(p, [("x1", 1), ("y1", 1)])
    assert got == unit + monomial(p, (1, 1, 0, 0), q1)
    # x2 y2 -> 1 + q_2 y2 x2 + (q_1 - 1) y1 x1
    got = normal_form(p, [("x2", 1), ("y2", 1)])
    want = unit + monomial(p, (0, 0, 1, 1), q2) + monomial(p, (1, 1, 0, 0), q1 - 1)
    assert got == want
    assert weight_of(p, (1, 1, 0, 0)) == (0, 0)  # y1 x1 is invariant
    assert [tuple(w) for w in p.weights] == [(-1, 0), (1, 0), (0, -1), (0, 1)]


def test_weyl_diamond_n3():
    assert all(r.resolved for r in diamond_check(zoo.quantized_weyl_generic(3)))


def test_symplectic_smallest_case():
    p = zoo.quantum_symplectic(1)
    q = Coefficient.symbol(p.context, "q")
    # x1 x1' = q^2 x1' x1 with an empty sum, oriented as x2 x1 -> q^-2 x1 x2
    got = normal_form(p, [("x2", 1), ("x1", 1)])
    assert got == monomial(p, (1, 1), q ** -2)
    assert not p.rules[(1, 0)].tail


def test_symplectic_primed_tail():
    p = zoo.quantum_symplectic(2)
    q = Coefficient.symbol(p.context, "q")
    # pair (x3, x2) is the i = 2 primed pair with one tail term q^{1-2} x1 x4
    rule = p.rules[(2, 1)]
    assert rule.swap == (q ** -2).as_unit()
    assert rule.tail == monomial(p, (1, 0, 0, 1), (q ** -2 - 1) * q ** -1)


def test_euclidean_even_smallest_case_commutes():
    p = zoo.quantum_euclidean(2)
    assert multiply(p, gen(p, 0), gen(p, 1)) == multiply(p, gen(p, 1), gen(p, 0))


def test_euclidean_odd_introduces_square_root():
    p = zoo.quantum_euclidean(3)
    assert p.context.symbols == ("v",)
    v = Coefficient.symbol(p.context, "v")
    # x3 x1 = x1 x3 - (1 - v^2) v^-1 x2^2
    rule = p.rules[(2, 0)]
    assert rule.swap == Coefficient.one(p.context).as_unit()
    assert rule.tail == monomial(p, (0, 2, 0), -(1 - v ** 2) * v ** -1)
    # middle generator has weight zero
    assert p.weights[1] == (0,)


def test_euclidean_even_tail():
    p = zoo.quantum_euclidean(4)
    q = Coefficient.symbol(p.context, "q")
    rule = p.rules[(3, 0)]  # x4 x1, the i = 1 primed pair
    assert rule.tail == monomial(p, (0, 1, 1, 0), -(1 - q ** 2) * q ** -1)
    assert not p.rules[(2, 1)].tail  # i = 2 primed pair has an empty sum


def test_every_rule_is_weight_homogeneous():
    """The promise of the module docstring, for every family at sizes 0..4."""
    for keys, *builds in zoo.FAMILIES.values():
        for build in filter(None, builds):
            for args in itertools.product(range(5), repeat=len(keys)):
                check_homogeneous_rules(build(*args))


def test_torus_generators_are_invertible():
    t = zoo.quantum_torus_generic(2)
    assert all(t.invertible)
    assert multiply(t, monomial(t, (1, 0)), monomial(t, (-1, 0))) == monomial(t, (0, 0))


def test_torus_n0_is_the_coefficient_ring():
    ctx = ParamContext([])
    spec = AntisymmetricMatrixSpec(ctx, 0, {})
    t = zoo.quantum_torus(spec)
    assert t.ngens == 0
    unit = monomial(t, ())
    assert multiply(t, unit, unit) == unit
