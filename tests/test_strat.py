import itertools
import random
import zlib

import pytest

from strata_lab import lattice, zoo
from strata_lab.coeff import Coefficient, ParamContext
from strata_lab.pbw import Presentation, Rule, gen, monomial, multiply
from strata_lab.strat import (GenericityUnverified, HPrime, StratError,
                              brute_force_central_monomials, hspec_quantum_affine,
                              normal_separation_witness, poset_covers,
                              stratification_axioms_check, stratum_report,
                              stratum_torus)

import oracles


def exponent_matrix(p, w):
    """The commutation exponent matrix stratum_report hands to
    lattice.kernel_basis for w, or None when it has no row to hand."""
    with oracles.kernel_calls() as seen:
        stratum_report(p, w)
    assert len(seen) <= 1
    return seen[0] if seen else None


@pytest.fixture(scope="module")
def qa2():
    return zoo.quantum_affine_generic(2)


@pytest.fixture(scope="module")
def qa3s():
    return zoo.quantum_affine_single(3)


def test_hspec_sizes(qa2):
    assert [w.members for w in hspec_quantum_affine(qa2)] == [(), (1,), (2,), (1, 2)]
    qa0 = zoo.quantum_affine_generic(0)
    assert [w.members for w in hspec_quantum_affine(qa0)] == [()]
    qa5 = zoo.quantum_affine_single(5)
    assert len(hspec_quantum_affine(qa5)) == 32


def test_hspec_is_boolean_lattice():
    p = zoo.quantum_affine_generic(3)
    primes = hspec_quantum_affine(p)
    covers = poset_covers(primes)
    # covering relations add exactly one generator
    for a, b in covers:
        assert set(a.members) < set(b.members)
        assert len(b.members) == len(a.members) + 1
    assert len(covers) == 3 * 2 ** 2  # n * 2^(n-1)


@pytest.mark.parametrize("primes", [
    [],
    [HPrime(()), HPrime((1, 2))],
    [HPrime(()), HPrime(())],
    [HPrime(()), HPrime((0,))],
    [HPrime(()), HPrime((1,)), HPrime((2,)), HPrime((2,))],
    [HPrime(()), HPrime((10 ** 9,))],
])
def test_poset_covers_rejects_a_partial_lattice(primes):
    with pytest.raises(StratError):
        poset_covers(primes)


@pytest.mark.parametrize("n", range(6))
def test_poset_covers_match_the_definition(n):
    for p in (zoo.quantum_affine_generic(n), zoo.quantum_affine_single(n)):
        primes = hspec_quantum_affine(p)
        assert poset_covers(primes) == oracles.covers_by_definition(primes)


def test_hspec_requires_affine_shape():
    with pytest.raises(StratError):
        hspec_quantum_affine(zoo.quantized_weyl_generic(1))
    with pytest.raises(StratError):
        hspec_quantum_affine(zoo.quantum_matrices_generic(2, 2))


def test_genericity_guard_rejects_signed_scalars():
    ctx = ParamContext(["q"])
    q = Coefficient.symbol(ctx, "q")
    spec = zoo.AntisymmetricMatrixSpec(ctx, 2, {(1, 2): -q})
    p = zoo.quantum_affine(spec)
    with pytest.raises(GenericityUnverified):
        hspec_quantum_affine(p)
    # the stable primes rest on the parent's genericity, so a stratum whose
    # survivors commute with positive scalars is refused too
    for w in (HPrime(()), HPrime((1,))):
        with pytest.raises(GenericityUnverified):
            stratum_report(p, w)


def test_monomial_prime_oracle_confirms_hspec():
    # every stable prime among monomially-generated candidates is variable-generated
    for n in (1, 2, 3):
        survivors = oracles.stable_prime_monomial_ideals(n)
        expected = set()
        for members in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(n + 1)):
            gens = []
            for i in members:
                e = [0] * n
                e[i] = 1
                gens.append(tuple(e))
            expected.add(tuple(sorted(gens)))
        assert survivors == expected


def test_quotient_presentation(qa2):
    # the witness's quotient is the affine space on the generators outside small
    q = normal_separation_witness(qa2, HPrime((1,)), HPrime((1, 2))).quotient
    assert q.generators == ("x2",)
    assert not q.invertible[0]
    t = stratum_torus(qa2, HPrime((1,)))
    assert t.invertible[0]
    # a quotient and a stratum torus keep their parent's budget
    budgeted = qa2.with_fuel(7)
    assert stratum_torus(budgeted, HPrime((1,))).fuel == 7
    assert normal_separation_witness(budgeted, HPrime((1,)), HPrime((1, 2))).quotient.fuel == 7


def test_stratum_ranks_n2_generic(qa2):
    primes = hspec_quantum_affine(qa2)
    ranks = [stratum_report(qa2, w).center_rank for w in primes]
    assert ranks == [0, 1, 1, 0]


def test_stratum_rank1_is_laurent_in_x2(qa2):
    rep = stratum_report(qa2, HPrime((1,)))
    assert rep.torus_size == 1
    assert stratum_torus(qa2, HPrime((1,))).generators == ("x2",)
    assert rep.center_basis == [(1,)]


def test_stratum_n3_single_param(qa3s):
    rep = stratum_report(qa3s, HPrime(()))
    assert rep.center_rank == 1
    assert rep.center_basis == [(1, -1, 1)]
    assert exponent_matrix(qa3s, HPrime(())) == \
        [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]


def test_ore_product_is_ordered_monomial(qa3s):
    rep = stratum_report(qa3s, HPrime((2,)))
    assert rep.torus_size == 2
    # the surviving generators in ascending order multiply to an ordered monomial
    t = stratum_torus(qa3s, HPrime((2,)))
    assert multiply(t, gen(t, 0), gen(t, 1)) == monomial(t, (1, 1))


def test_brute_force_central_monomials():
    t2 = stratum_torus(zoo.quantum_affine_generic(2), HPrime(()))
    assert brute_force_central_monomials(t2, 2) == [(0, 0)]
    commutative = zoo.quantum_torus(zoo.AntisymmetricMatrixSpec(ParamContext([]), 2, {}))
    box = brute_force_central_monomials(commutative, 1)
    assert box == sorted(itertools.product((-1, 0, 1), repeat=2))
    t3 = stratum_torus(zoo.quantum_affine_single(3), HPrime(()))
    got = brute_force_central_monomials(t3, 2)
    assert got == [(-2, 2, -2), (-1, 1, -1), (0, 0, 0), (1, -1, 1), (2, -2, 2)]


def test_center_basis_matches_brute_force_small():
    for p in (zoo.quantum_affine_generic(3), zoo.quantum_affine_single(3)):
        for w in hspec_quantum_affine(p):
            rep = stratum_report(p, w)
            brute = brute_force_central_monomials(stratum_torus(p, w), 2)
            boxed = [v for v in itertools.product(range(-2, 3), repeat=rep.torus_size)
                     if lattice.in_row_span(rep.center_basis, v)]
            assert sorted(boxed) == brute


def test_rank_bound_and_parity():
    for n in range(5):
        single = zoo.quantum_affine_single(n)
        for w in hspec_quantum_affine(single):
            rep = stratum_report(single, w)
            assert rep.center_rank <= rep.torus_size
            assert rep.center_rank % 2 == rep.torus_size % 2


def test_weight_spaces_of_torus_are_one_dimensional(qa2):
    # distinct torus monomials have distinct weights (graded-simplicity shadow)
    from strata_lab.grading import weight_of
    t = stratum_torus(qa2, HPrime(()))
    seen = {}
    for vec in itertools.product(range(-2, 3), repeat=t.ngens):
        w = weight_of(t, vec)
        assert w not in seen or seen[w] == vec
        seen[w] = vec


def test_witness_smallest_index_and_mu(qa2):
    witness = normal_separation_witness(qa2, HPrime(()), HPrime((1,)))
    assert witness.generator == 1
    q12 = Coefficient.symbol(qa2.context, "q_1_2")
    # c = x1 against x2: x1 x2 = q_12 (x2 x1)
    assert witness.certificate.mus[witness.quotient.gen_index("x2")] == q12
    assert witness.certificate.verify(witness.quotient)


def test_witness_choice_rule():
    p = zoo.quantum_affine_generic(3)
    witness = normal_separation_witness(p, HPrime((2,)), HPrime((1, 2, 3)))
    assert witness.generator == 1  # smallest index in the difference


def test_witness_requires_strict_inclusion(qa2):
    with pytest.raises(StratError):
        normal_separation_witness(qa2, HPrime((1,)), HPrime((1,)))
    with pytest.raises(StratError):
        normal_separation_witness(qa2, HPrime((1,)), HPrime((2,)))


def test_all_witnesses_reverify_n4():
    p = zoo.quantum_affine_single(4)
    primes = hspec_quantum_affine(p)
    for a in primes:
        for b in primes:
            if a.issubset(b) and a != b:
                witness = normal_separation_witness(p, a, b)
                assert witness.certificate.verify(witness.quotient)


def test_locally_closed_witness_n2(qa2):
    report = stratification_axioms_check(qa2)
    by_prime = {w.hprime: w for w in report.locally_closed}
    assert by_prime[HPrime(())].bigger == ((1, 1),)  # <x1 x2>
    assert by_prime[HPrime((1, 2))].bigger == ((0, 0),)  # the whole ring
    assert report.passed


def test_stratification_axioms_up_to_n4():
    for n in range(5):
        p = zoo.quantum_affine_single(n)
        assert stratification_axioms_check(p).passed


def test_exponent_matrix_rows(qa2):
    assert exponent_matrix(qa2, HPrime(())) == [[0, 1], [-1, 0]]
    # one survivor: its only row is zero, so no matrix reaches the lattice
    assert exponent_matrix(qa2, HPrime((1,))) is None


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("n", range(6))
def test_axioms_match_the_definition(n, single):
    p = zoo.quantum_affine_single(n) if single else zoo.quantum_affine_generic(n)
    report = stratification_axioms_check(p)
    closed, open_ok = oracles.locally_closed_by_definition(p)
    assert {w.hprime: (w.bigger, w.ok) for w in report.locally_closed} == closed
    assert report.closure_is_union == oracles.closure_by_definition(p)
    assert report.height_unions_open == open_ok
    assert report.passed


def test_axioms_check_makes_few_containment_calls(monkeypatch):
    """Two containment calls per locally-closed witness, one per prime and
    variable for the closure law, one per prime and height for the height
    law: (2n + 3) 2^n in all, where comparing all pairs of primes takes 4^n."""
    import strata_lab.strat as strat
    calls = 0
    contains = strat._mask_contains

    def counted(a, b):
        nonlocal calls
        calls += 1
        return contains(a, b)

    monkeypatch.setattr(strat, "_mask_contains", counted)
    n = 8
    assert stratification_axioms_check(zoo.quantum_affine_single(n)).passed
    assert calls <= (2 * n + 3) * 2 ** n == 4864


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("n", range(9))
def test_witnesses_have_the_closed_form(n, single):
    """The primes one generator above J meet in the ideal of J's variables and
    the product of every variable outside J; for J = all, in the whole ring.
    This checks the witnesses where the definition oracle is too slow."""
    p = zoo.quantum_affine_single(n) if single else zoo.quantum_affine_generic(n)
    report = stratification_axioms_check(p)
    assert [w.hprime for w in report.locally_closed] == hspec_quantum_affine(p)
    for w in report.locally_closed:
        outside = tuple(0 if i in w.hprime.members else 1 for i in range(1, n + 1))
        units = [tuple(1 if t == i - 1 else 0 for t in range(n)) for i in w.hprime.members]
        if any(outside):
            assert w.bigger == tuple(sorted(units + [outside]))
        else:
            assert w.bigger == ((0,) * n,)
        assert w.ok
    assert report.passed


def test_squarefree_mask_helpers_match_monomial_ideals():
    """The bitmask helpers of stratification_axioms_check against the
    exponent-tuple helpers of the oracle, on random squarefree ideals."""
    from strata_lab.strat import _mask_contains, _mask_meet
    seed = zlib.crc32(b"squarefree mask helpers")
    print(f"seed {seed}")
    rng = random.Random(seed)

    def tuples(width, masks):
        return tuple(sorted(tuple(g >> t & 1 for t in range(width)) for g in masks))

    for trial in range(3000):
        width = trial % 8
        pool = [[], [0]] + [[rng.getrandbits(width) for _ in range(rng.randrange(1, 6))]
                            for _ in range(2)]
        a, b = rng.choice(pool), rng.choice(pool)
        ia, ib = tuples(width, a), tuples(width, b)
        assert tuples(width, _mask_meet(a, b)) == oracles.ideal_meet(ia, ib), (width, a, b)
        assert _mask_contains(a, b) == oracles.ideal_contains(ia, ib), (width, a, b)
        assert _mask_contains(b, a) == oracles.ideal_contains(ib, ia), (width, a, b)


def test_hspec_checks_all_generator_pairs_once(monkeypatch):
    # check_quantum_affine reads each pair's rule once; tail-free unit swaps
    # make every product of two generators one term, so no product is computed
    import strata_lab.pbw as pbw
    import strata_lab.strat as strat
    p = zoo.quantum_affine_generic(4)

    def refuse(*args, **kwargs):
        raise AssertionError("hspec must not rewrite or build quotient presentations")

    monkeypatch.setattr(pbw, "_reduce", refuse)
    monkeypatch.setattr(strat, "_quotient", refuse)
    assert len(hspec_quantum_affine(p)) == 16
    plane = zoo.quantum_affine_generic(2)
    unit = monomial(plane, (0,) * plane.ngens)
    tailed = Presentation(plane.context, plane.generators,
                          {(1, 0): Rule(plane.rules[(1, 0)].swap, unit)})
    with pytest.raises(StratError, match=r"rule \(1, 0\) has a tail"):
        hspec_quantum_affine(tailed)


def test_trivial_center_builds_no_presentation(monkeypatch):
    # a stratum torus is built only for the engine check of kernel monomials;
    # generic strata with no survivor or with two or more have a trivial center
    import strata_lab.strat as strat
    p = zoo.quantum_affine_generic(4)

    def refuse(*args, **kwargs):
        raise AssertionError("a trivial center must not build a quotient presentation")

    monkeypatch.setattr(strat, "_quotient", refuse)
    checked = 0
    for w in hspec_quantum_affine(p):
        if p.ngens - len(w.members) != 1:
            rep = stratum_report(p, w)
            assert (rep.torus_size, rep.center_rank, rep.center_basis) == \
                (p.ngens - len(w.members), 0, [])
            checked += 1
    assert checked == 12


def test_witness_rejects_generators_that_do_not_exist(qa2):
    for small, large in [((), (0,)), ((1,), (1, 5)), ((), (3,))]:
        with pytest.raises(StratError, match="do not exist"):
            normal_separation_witness(qa2, HPrime(small), HPrime(large))
