"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (symbolic equality), with wall-clock bounds where
the criterion states one.
"""

import itertools
import json
import random
import time
import zlib
from math import comb

from strata_lab import lattice, zoo
from strata_lab.cli import run as cli_run
from strata_lab.dsl import parse, print_presentation
from strata_lab.grading import is_homogeneous, weight_of
from strata_lab.pbw import (diamond_check, gen, hilbert_count, leading_term,
                            multiply, normal_form)
from strata_lab.qdet import (quantum_determinant, sl_condition,
                             verify_det_normality)
from strata_lab.strat import (HPrime, brute_force_central_monomials,
                              hspec_quantum_affine, normal_separation_witness,
                              poset_covers, stratification_axioms_check,
                              stratum_report, stratum_torus)

import oracles


def confluence_suite():
    algebras = []
    for n in range(1, 7):
        algebras.append(zoo.quantum_affine_generic(n))
    algebras.append(zoo.quantum_affine_single(6))
    algebras.append(zoo.quantum_matrices_generic(2, 2))
    algebras.append(zoo.quantum_matrices_generic(2, 3))
    algebras.append(zoo.quantum_matrices_generic(3, 3))
    algebras.append(zoo.quantum_matrices_single(3, 3))
    for n in range(1, 4):
        algebras.append(zoo.quantized_weyl_generic(n))
    for n in range(1, 4):
        algebras.append(zoo.quantum_symplectic(n))
    for n in range(2, 6):
        algebras.append(zoo.quantum_euclidean(n))
    return algebras


def test_criterion_1_confluence_suite():
    t0 = time.monotonic()
    total = 0
    for p in confluence_suite():
        reports = diamond_check(p)
        unresolved = [r for r in reports if not r.resolved]
        assert not unresolved, (p.name, unresolved[:3])
        total += len(reports)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS: confluence suite, {total} overlaps resolved "
          f"across {len(confluence_suite())} algebras in {elapsed:.1f}s")


def test_criterion_2_graded_dimensions():
    checked = 0
    for p in confluence_suite():
        for d in range(5):
            assert hilbert_count(p, d) == oracles.commutative_count(p.ngens, d), \
                (p.name, d)
            checked += 1
    m3 = zoo.quantum_matrices_generic(3, 3)
    assert hilbert_count(m3, 4) == 495 == comb(12, 4)
    print(f"\n[criterion 2] PASS: {checked} graded dimensions match the "
          f"commutative counts (3x3 matrices, degree 4: 495)")


def test_criterion_3_determinant_normality():
    t0 = time.monotonic()
    for n in (2, 3):
        lam, p = zoo.generic_matrix_data(n)
        report = verify_det_normality(n, lam, p)
        assert report.passed and len(report.identities) == n * n
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\n[criterion 3] PASS: determinant normality, 4 + 9 symbolic "
          f"identities exact in {elapsed:.1f}s")


def test_criterion_4_determinant_centrality():
    for n in (2, 3):
        lam, p = zoo.single_param_matrix_data(n)
        pres = zoo.quantum_matrices(n, n, lam, p)
        det = quantum_determinant(n, lam, p)
        for g in range(pres.ngens):
            xg = gen(pres, g)
            assert multiply(pres, det, xg) == multiply(pres, xg, det)
        assert sl_condition(n, lam, p)
    lam_g, p_g = zoo.generic_matrix_data(2)
    assert not sl_condition(2, lam_g, p_g)
    print("\n[criterion 4] PASS: single-parameter determinants central for "
          "n = 2, 3; centrality criterion true single-parameter, false generic 2x2")


def test_criterion_5_stable_prime_poset():
    for n in range(6):
        p = zoo.quantum_affine_generic(n)
        primes = hspec_quantum_affine(p)
        assert len(primes) == 2 ** n
        members = {w.members for w in primes}
        for size in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                assert combo in members
        for a, b in poset_covers(primes):
            assert set(a.members) < set(b.members)
            assert len(b.members) == len(a.members) + 1
    for n in (1, 2, 3):
        survivors = oracles.stable_prime_monomial_ideals(n)
        assert len(survivors) == 2 ** n
    print("\n[criterion 5] PASS: 2^n stable primes forming a Boolean lattice "
          "for n <= 5; monomial-candidate oracle agrees for n <= 3")


def test_criterion_6_stratum_centers():
    t0 = time.monotonic()
    strata_checked = 0
    for maker in (zoo.quantum_affine_generic, zoo.quantum_affine_single):
        for n in range(5):
            p = maker(n)
            single = maker is zoo.quantum_affine_single
            for w in hspec_quantum_affine(p):
                rep = stratum_report(p, w)
                assert rep.center_rank <= rep.torus_size
                if single:
                    assert rep.center_rank % 2 == rep.torus_size % 2
                brute = brute_force_central_monomials(stratum_torus(p, w), 3)
                boxed = sorted(lattice.in_row_span(
                    rep.center_basis, itertools.product(range(-3, 4), repeat=rep.torus_size)))
                assert boxed == brute, (p.name, w.members)
                strata_checked += 1
    qa2 = zoo.quantum_affine_generic(2)
    assert [stratum_report(qa2, w).center_rank
            for w in hspec_quantum_affine(qa2)] == [0, 1, 1, 0]
    qa3 = zoo.quantum_affine_single(3)
    rep = stratum_report(qa3, HPrime(()))
    assert rep.center_rank == 1 and rep.center_basis == [(1, -1, 1)]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 6] PASS: {strata_checked} stratum centers equal the "
          f"box-3 engine oracle, ranks bounded with single-parameter parity, "
          f"reference values exact, in {elapsed:.1f}s")


def test_criterion_7_separation_witnesses():
    pairs = 0
    for n in range(6):
        p = zoo.quantum_affine_single(n) if n > 3 else zoo.quantum_affine_generic(n)
        primes = hspec_quantum_affine(p)
        for a in primes:
            for b in primes:
                if set(a.members) < set(b.members):
                    witness = normal_separation_witness(p, a, b)
                    assert witness.generator in set(b.members) - set(a.members)
                    assert witness.certificate.verify(witness.quotient)
                    assert is_homogeneous(
                        witness.quotient, witness.certificate.element) is not None
                    pairs += 1
    print(f"\n[criterion 7] PASS: {pairs} separation witnesses re-verified "
          f"exactly across all comparable pairs, n <= 5")


def test_criterion_8_stratification_topology():
    for n in range(8):
        p = zoo.quantum_affine_single(n)
        report = stratification_axioms_check(p)
        assert report.passed, n
        for witness in report.locally_closed:
            assert witness.ok
    qa2 = zoo.quantum_affine_generic(2)
    rep = stratification_axioms_check(qa2)
    by_prime = {w.hprime: w for w in rep.locally_closed}
    assert by_prime[HPrime(())].bigger == ((1, 1),)
    assert by_prime[HPrime((1, 2))].bigger == ((0, 0),)
    print("\n[criterion 8] PASS: locally-closed witnesses, closure unions, and "
          "open height unions verified for n <= 7")


def engine_law_suite():
    return [
        zoo.quantum_affine_generic(3),
        zoo.quantum_affine_single(6),
        zoo.quantum_matrices_generic(2, 2),
        zoo.quantum_matrices_single(3, 3),
        zoo.quantized_weyl_generic(2),
        zoo.quantum_symplectic(3),
        zoo.quantum_euclidean(4),
        zoo.quantum_euclidean(5),
    ]


def test_criterion_9_engine_laws():
    t0 = time.monotonic()
    for p in engine_law_suite():
        seed = zlib.crc32(p.name.encode())
        print(f"[criterion 9] {p.name}: seed {seed}")
        rng = random.Random(seed)
        for _ in range(400):
            a = oracles.random_element(p, rng)
            b = oracles.random_element(p, rng)
            c = oracles.random_element(p, rng)
            assert multiply(p, a, multiply(p, b, c)) == \
                multiply(p, multiply(p, a, b), c)
        for _ in range(300):
            a = oracles.random_element(p, rng)
            b = oracles.random_element(p, rng)
            c = oracles.random_element(p, rng)
            assert multiply(p, a + b, c) == multiply(p, a, c) + multiply(p, b, c)
            assert multiply(p, c, a + b) == multiply(p, c, a) + multiply(p, c, b)
        for _ in range(300):
            ea = oracles.random_monomial_exp(p, rng)
            eb = oracles.random_monomial_exp(p, rng)
            prod = multiply(p, normal_form(p, list(enumerate(ea))),
                            normal_form(p, list(enumerate(eb))))
            w = is_homogeneous(p, prod)
            assert w == tuple(x + y for x, y in
                              zip(weight_of(p, ea), weight_of(p, eb)))
        # the domain shadow is order-relative: the fixed monomial order is
        # compatible with every rule here except the symplectic primed rule,
        # whose tail is larger in the order, so that family is excluded
        if p.name.startswith("quantum_symplectic"):
            continue
        for _ in range(1000):
            a = oracles.random_element(p, rng, nonzero=True)
            b = oracles.random_element(p, rng, nonzero=True)
            ea, ca = leading_term(p, a)
            eb, cb = leading_term(p, b)
            ep, cp = leading_term(p, multiply(p, a, b))
            assert ep == tuple(x + y for x, y in zip(ea, eb))
            ratio = cp.leading_term_ratio(ca * cb)
            assert ratio is not None and cp == (ca * cb) * ratio
            assert len(ratio.terms) == 1
    elapsed = time.monotonic() - t0
    print(f"\n[criterion 9] PASS: 1000 law trials per algebra "
          f"({len(engine_law_suite())} algebras) plus 1000 leading-exponent "
          f"pairs per order-compatible algebra, all exact, in {elapsed:.1f}s")


def test_criterion_10_cli_contract(tmp_path, capsys):
    # parse/print round trip over the whole zoo
    presentations = [
        zoo.quantum_affine_generic(1), zoo.quantum_affine_generic(4),
        zoo.quantum_affine_single(5), zoo.quantum_torus_generic(3),
        zoo.quantum_torus_single(2), zoo.quantum_matrices_generic(2, 2),
        zoo.quantum_matrices_generic(2, 3), zoo.quantum_matrices_generic(3, 3),
        zoo.quantum_matrices_single(3, 3), zoo.quantized_weyl_generic(1),
        zoo.quantized_weyl_generic(2), zoo.quantized_weyl_generic(3),
        zoo.quantum_symplectic(1), zoo.quantum_symplectic(2),
        zoo.quantum_symplectic(3), zoo.quantum_euclidean(2),
        zoo.quantum_euclidean(3), zoo.quantum_euclidean(4),
        zoo.quantum_euclidean(5),
    ]
    for p in presentations:
        assert parse(print_presentation(p)) == p, p.name

    # deterministic byte-identical reports
    path = tmp_path / "m2.alg"
    path.write_text("use quantum_matrices(m=2, n=2)\n", encoding="utf-8")
    qa_path = tmp_path / "qa3.alg"
    qa_path.write_text("use quantum_affine(n=3)\n", encoding="utf-8")
    for argv in (["verify", str(path)], ["strata", str(qa_path), "--box", "2"],
                 ["qdet", "--n", "3"]):
        outs = []
        for _ in range(2):
            assert cli_run(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        json.loads(outs[0])

    # exit-code contract: 0 success, 1 verification failure, 2 parse error
    from strata_lab.coeff import UnitMonomial
    from strata_lab.pbw import Presentation, Rule
    m2 = zoo.quantum_matrices_generic(2, 2)
    rules = dict(m2.rules)
    old = rules[(2, 0)].swap
    rules[(2, 0)] = Rule(UnitMonomial(old.sign, tuple(2 * e for e in old.exponents)))
    broken = Presentation(m2.context, m2.generators, rules, m2.weights, name="broken")
    bad_path = tmp_path / "broken.alg"
    bad_path.write_text(print_presentation(broken), encoding="utf-8")
    assert cli_run(["verify", str(bad_path)]) == 1
    capsys.readouterr()
    garbled = tmp_path / "garbled.alg"
    garbled.write_text("algebra ???\n", encoding="utf-8")
    assert cli_run(["verify", str(garbled)]) == 2
    capsys.readouterr()
    assert cli_run(["verify", str(path)]) == 0
    capsys.readouterr()
    print("\n[criterion 10] PASS: round-trips over the zoo, byte-identical "
          "reports, exit codes 0/1/2 honored")
