"""Independent oracles and random generators shared by the test modules."""

import itertools
import random
from math import comb

from strata_lab.coeff import Coefficient
from strata_lab.pbw import Element, Presentation, monomial


def commutative_count(ngens: int, degree: int) -> int:
    """Stars and bars: monomials of the given total degree in ngens variables."""
    if ngens == 0:
        return 1 if degree == 0 else 0
    return comb(ngens + degree - 1, degree)


def brute_inversions(perm) -> int:
    vals = list(perm)
    return sum(1 for i in range(len(vals)) for j in range(i + 1, len(vals))
               if vals[i] > vals[j])


def random_coefficient(ctx, rng: random.Random, max_terms: int = 4,
                       exp_range: int = 2) -> Coefficient:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(-exp_range, exp_range) for _ in range(len(ctx)))
        terms[exp] = terms.get(exp, 0) + rng.randint(-5, 5)
    return Coefficient(ctx, terms)


def random_monomial_exp(p: Presentation, rng: random.Random, max_total: int = 2):
    """Exponent vector of small total degree, negative entries only when invertible."""
    exp = [0] * p.ngens
    for _ in range(rng.randint(0, max_total)):
        i = rng.randrange(p.ngens)
        if p.invertible[i] and rng.random() < 0.3:
            exp[i] -= 1
        else:
            exp[i] += 1
    return tuple(exp)


def random_element(p: Presentation, rng: random.Random, max_terms: int = 3,
                   max_total: int = 2, nonzero: bool = False) -> Element:
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exp = random_monomial_exp(p, rng, max_total)
        c = Coefficient.monomial(
            p.context, rng.choice([-2, -1, 1, 2, 3]),
            tuple(rng.randint(-1, 1) for _ in range(len(p.context))))
        terms[exp] = terms.get(exp, Coefficient.zero(p.context)) + c
    e = Element(terms)
    if nonzero and not e:
        return monomial(p, (0,) * p.ngens)
    return e


def kernel_vectors_in_box(A, box: int) -> list[tuple[int, ...]]:
    """All v in [-box, box]^cols with A v = 0, by direct enumeration."""
    if not A:
        raise ValueError("need at least one row; supply the width separately")
    cols = len(A[0])
    out = []
    for v in itertools.product(range(-box, box + 1), repeat=cols):
        if all(sum(a * x for a, x in zip(row, v)) == 0 for row in A):
            out.append(v)
    return sorted(out)


def reduce_rightmost(p: Presentation, letters, coeff) -> Element:
    """Reference reducer rewriting the rightmost descending pair first.

    Independent of the engine's leftmost-first strategy; on a confluent
    presentation both must produce identical normal forms.
    """
    out = {}
    stack = [(coeff, tuple(letters))]
    while stack:
        c, w = stack.pop()
        if not c:
            continue
        k = -1
        for t in range(len(w) - 2, -1, -1):
            if w[t][0] > w[t + 1][0]:
                k = t
                break
        if k < 0:
            exps = [0] * p.ngens
            for idx, s in w:
                exps[idx] += s
            key = tuple(exps)
            prev = out.get(key)
            total = c if prev is None else prev + c
            if total:
                out[key] = total
            elif key in out:
                del out[key]
            continue
        (g, e), (h, f) = w[k], w[k + 1]
        rule = p.rules[(g, h)]
        head, rest = w[:k], w[k + 2:]
        if e == 1 and f == 1:
            stack.append((c.scale_unit(rule.swap), head + ((h, 1), (g, 1)) + rest))
            for texp, tc in rule.tail.terms.items():
                tl = []
                for i, ev in enumerate(texp):
                    tl.extend([(i, 1 if ev > 0 else -1)] * abs(ev))
                stack.append((c * tc, head + tuple(tl) + rest))
        else:
            stack.append((c.scale_unit(rule.swap, e * f),
                          head + ((h, f), (g, e)) + rest))
    return Element(out)


# -- monomial-ideal primeness oracle ------------------------------------------


def monomials_up_to(n: int, degree: int):
    """All exponent vectors in n variables with 1 <= total degree <= degree."""
    out = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            out.append(tuple(exp))
    return out


def is_prime_monomial_ideal(gens: list[tuple[int, ...]], n: int, test_degree: int = 3) -> bool:
    """Product condition on monomials: u*v inside implies u or v inside.

    In a quantum affine space the product of the ideals generated by two
    monomials is the ideal generated by their product, so this is exactly
    stable primeness for monomial ideals; checked over a degree box.
    """
    def contains(exp):
        return any(all(g <= e for g, e in zip(gv, exp)) for gv in gens)

    if contains((0,) * n):
        return False  # not proper
    pool = [(0,) * n] + monomials_up_to(n, test_degree)
    for u in pool:
        for v in pool:
            uv = tuple(a + b for a, b in zip(u, v))
            if sum(uv) > test_degree:
                continue
            if contains(uv) and not contains(u) and not contains(v):
                return False
    return True


def stable_prime_monomial_ideals(n: int, gen_degree: int = 2,
                                 test_degree: int = 3) -> set[tuple[tuple[int, ...], ...]]:
    """Enumerate reduced monomial ideals with generators of bounded degree and
    keep the prime ones; the expected survivors are the variable-generated ideals."""
    pool = monomials_up_to(n, gen_degree)
    survivors = set()
    for r in range(len(pool) + 1):
        for gens in itertools.combinations(pool, r):
            reduced = []
            for g in sorted(gens, key=sum):
                if not any(all(h <= e for h, e in zip(hv, g)) for hv in reduced):
                    reduced.append(g)
            key = tuple(sorted(reduced))
            if key in survivors:
                continue
            if is_prime_monomial_ideal(list(key), n, test_degree):
                survivors.add(key)
    return survivors


def covers_by_definition(primes):
    """Pairs a < b of stable primes (inclusion of members) with nothing strictly
    between, in the order of the given list."""
    def below(a, b):
        return set(a.members) < set(b.members)
    return [(a, b) for a in primes for b in primes
            if below(a, b) and not any(below(a, c) and below(c, b) for c in primes)]


def locally_closed_by_definition(p: Presentation):
    """Checks (a) and (c) of the stratification axioms straight from their
    definitions: intersect over every strictly larger prime, and over every
    prime taller than d.  Returns ({prime: (bigger ideal, locally closed)},
    low-height unions open)."""
    from strata_lab.strat import HPrime, MonomialIdeal, ideal_of
    n = p.ngens
    primes = [HPrime(m) for size in range(n + 1)
              for m in itertools.combinations(range(1, n + 1), size)]
    ideals = {w: ideal_of(p, w) for w in primes}

    def meet(ws):
        out = MonomialIdeal.make(n, [(0,) * n])
        for w in ws:
            out = out.intersect(ideals[w])
        return out

    closed = {}
    for j in primes:
        bigger = meet([k for k in primes if set(j.members) < set(k.members)])
        closed[j] = (bigger, bigger.contains_ideal(ideals[j])
                     and not ideals[j].contains_ideal(bigger))
    open_ok = all(
        (len(j.members) <= d) == (not ideals[j].contains_ideal(
            meet([k for k in primes if len(k.members) > d])))
        for d in range(n + 1) for j in primes)
    return closed, open_ok
