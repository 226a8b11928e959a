"""Independent oracles and random generators shared by the test modules."""

import contextlib
import itertools
import random
from math import comb

from strata_lab import lattice
from strata_lab.coeff import Coefficient, ParamContext
from strata_lab.pbw import Element, Presentation, Rule, monomial


def commutative_count(ngens: int, degree: int) -> int:
    """Stars and bars: monomials of the given total degree in ngens variables."""
    if ngens == 0:
        return 1 if degree == 0 else 0
    return comb(ngens + degree - 1, degree)


def brute_inversions(perm) -> int:
    vals = list(perm)
    return sum(1 for i in range(len(vals)) for j in range(i + 1, len(vals))
               if vals[i] > vals[j])


def det_commutation_scalar(n: int, lam: Coefficient, p, i: int, j: int) -> Coefficient:
    """The scalar mu_ij = lam^(j-i) prod_l p_jl p_li with D * X_ij = mu_ij * X_ij * D."""
    c = lam ** (j - i)
    for l in range(1, n + 1):
        c = c * p.entry(j - 1, l - 1) * p.entry(l - 1, i - 1)
    return c


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


def is_hermite(H) -> bool:
    """Assert that the nonzero rows of H are echelon with positive pivots and
    every entry above a pivot in [0, pivot); zero rows may stand anywhere."""
    pivots = []
    for row in H:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        assert row[j] > 0
        if pivots:
            assert j > pivots[-1][1]
        pivots.append((row, j))
    for k, (prow, j) in enumerate(pivots):
        for above, _ in pivots[:k]:
            assert 0 <= above[j] < prow[j]
    return True


@contextlib.contextmanager
def kernel_calls():
    """The list of matrices handed to lattice.kernel_basis inside the block;
    strat.stratum_report hands it each stratum's commutation exponent matrix
    that has a row."""
    seen = []
    original = lattice.kernel_basis

    def record(A):
        seen.append(A)
        return original(A)

    lattice.kernel_basis = record
    try:
        yield seen
    finally:
        lattice.kernel_basis = original


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


def leftmost_rewrites(p: Presentation, letters) -> int:
    """Number of rule applications in a leftmost-first reduction of a letter word.

    A plain copy of the engine's strategy without coefficients: which words
    are rewritten, and where, depends only on the words, because a nonzero
    coefficient times a swap unit or a tail coefficient is never zero.  So a
    word's count is one plus the counts of the words its rewrite leaves (zero
    for an ordered word), and each distinct word is counted once, children
    first, on an explicit stack.  A word met again inside its own reduction
    has no finite count: ValueError.
    """
    counts = {}  # word -> count, None while the words below it are counted
    stack = [(tuple(letters), None)]
    while stack:
        w, below = stack.pop()
        if below is not None:
            counts[w] = 1 + sum(counts[v] for v in below) if below else 0
            continue
        if w in counts:
            if counts[w] is None:
                raise ValueError("a word recurs inside its own leftmost reduction")
            continue
        below = []
        k = next((t for t in range(len(w) - 1) if w[t][0] > w[t + 1][0]), None)
        if k is not None:
            (g, e), (h, f) = w[k], w[k + 1]
            head, rest = w[:k], w[k + 2:]
            below.append(head + ((h, f), (g, e)) + rest)
            if e == 1 and f == 1:
                for texp in p.rules[(g, h)].tail.terms:
                    tl = []
                    for i, ev in enumerate(texp):
                        tl.extend([(i, 1 if ev > 0 else -1)] * abs(ev))
                    below.append(head + tuple(tl) + rest)
        counts[w] = None
        stack.append((w, below))
        stack.extend((v, None) for v in below)
    return counts[tuple(letters)]


def normal_forms_every_order(p: Presentation, word) -> list[Element]:
    """Every normal form a word of polynomial generators reaches when its
    rewrites run in every possible order.

    A state is a combination of words.  A step picks any word of the state
    and any descending adjacent pair in it, and replaces the pair by its
    rule, swap and tail, as written; the search stops at states whose words
    are all ordered.  It shares no code with the engine's reducer or with the
    two fixed-strategy references above, so agreement is evidence.
    """
    ctx = p.context

    def key(state):
        return frozenset(state.items())

    def add(state, w, c):
        total = state[w] + c if w in state else c
        if total:
            state[w] = total
        else:
            state.pop(w, None)

    start = {tuple(word): Coefficient.one(ctx)}
    seen = {key(start)}
    stack = [start]
    forms = {}
    while stack:
        state = stack.pop()
        steps = [(w, t) for w in state for t in range(len(w) - 1) if w[t] > w[t + 1]]
        if not steps:
            forms[key(state)] = Element(
                {tuple(w.count(g) for g in range(p.ngens)): c for w, c in state.items()})
        for w, t in steps:
            rule = p.rules[(w[t], w[t + 1])]
            head, rest = w[:t], w[t + 2:]
            nxt = dict(state)
            c = nxt.pop(w)
            add(nxt, head + (w[t + 1], w[t]) + rest, c * rule.swap.to_coefficient(ctx))
            for texp, tc in rule.tail.terms.items():
                letters = tuple(g for g, e in enumerate(texp) for _ in range(e))
                add(nxt, head + letters + rest, c * tc)
            if key(nxt) not in seen:
                seen.add(key(nxt))
                stack.append(nxt)
    return list(forms.values())


def random_tailed_presentation(rng: random.Random) -> Presentation:
    """3-4 polynomial generators over 1-2 symbols with random unit swaps of
    either sign; about half of the pairs get a tail of 1-2 terms of degree at
    most 1 with small integer Laurent coefficients, so every rewrite lowers
    (degree, inversions) and every rewriting order terminates."""
    ngens = rng.randint(3, 4)
    ctx = ParamContext([f"t{s}" for s in range(rng.randint(1, 2))])

    def laurent(coeffs):
        return Coefficient.monomial(ctx, rng.choice(coeffs),
                                    tuple(rng.randint(-1, 1) for _ in range(len(ctx))))

    rules = {}
    for j in range(ngens):
        for i in range(j):
            tail = []
            if rng.random() < 0.5:
                for _ in range(rng.randint(1, 2)):
                    g = rng.randrange(-1, ngens)  # -1: the constant term
                    exp = tuple(1 if h == g else 0 for h in range(ngens))
                    tail.append((exp, laurent([-2, -1, 1, 2])))
            rules[(j, i)] = Rule(laurent([-1, 1]).as_unit(), Element(tail))
    return Presentation(ctx, [f"x{g + 1}" for g in range(ngens)], rules)


def random_expression(p: Presentation, rng: random.Random, depth: int = 4):
    """A random DSL expression over p and its expansion into words.

    Returns (text, terms), where terms is a list of (Coefficient, letters)
    pairs whose sum the expression denotes: every product and power is
    expanded into written words, so the words can be reduced independently
    of how the expression is multiplied.
    """
    ctx = p.context
    if depth == 0 or rng.random() < 0.2:
        kind = rng.choice(["gen"] * 6 + ["int", "param"])
        if kind == "gen" or (kind == "param" and not ctx.symbols):
            i = rng.randrange(p.ngens)
            e = rng.choice([1, 1, 2] + ([-1, -2] if p.invertible[i] else []))
            text = p.generators[i] if e == 1 else f"{p.generators[i]}^{e}"
            return text, [(Coefficient.one(ctx), ((i, 1 if e > 0 else -1),) * abs(e))]
        if kind == "int":
            v = rng.choice([1, 2, 3, 5])
            return str(v), [(Coefficient.integer(ctx, v), ())]
        sym = rng.choice(ctx.symbols)
        e = rng.choice([1, -1, 2])
        return f"{sym}^{e}", [(Coefficient.symbol(ctx, sym, e), ())]
    kind = rng.choice(["sum", "difference", "product", "power"])
    a_text, a = random_expression(p, rng, depth - 1)
    if kind == "power":
        k = rng.choice([0, 1, 2, 2, 3])
        terms = [(Coefficient.one(ctx), ())]
        for _ in range(k):
            terms = [(c1 * c2, w1 + w2) for c1, w1 in terms for c2, w2 in a]
        return f"({a_text})^{k}", terms
    b_text, b = random_expression(p, rng, depth - 1)
    if kind == "product":
        return (f"({a_text})*({b_text})",
                [(c1 * c2, w1 + w2) for c1, w1 in a for c2, w2 in b])
    if kind == "sum":
        return f"{a_text} + {b_text}", a + b
    return f"{a_text} - ({b_text})", a + [(-c, w) for c, w in b]


# -- monomial ideals as exponent tuples -----------------------------------------


def monomial_divides(a, b) -> bool:
    """Whether the monomial with exponents a divides the one with exponents b."""
    return all(x <= y for x, y in zip(a, b))


def minimal_generators(gens) -> tuple[tuple[int, ...], ...]:
    """The sorted generators of an ideal that no other generator divides."""
    gens = {tuple(g) for g in gens}
    return tuple(sorted(g for g in gens
                        if not any(h != g and monomial_divides(h, g) for h in gens)))


def ideal_meet(a, b) -> tuple[tuple[int, ...], ...]:
    """Intersection of two monomial ideals: the minimal lcms (componentwise
    maxima) of a generator of each."""
    return minimal_generators(tuple(max(x, y) for x, y in zip(g, h)) for g in a for h in b)


def ideal_contains(a, b) -> bool:
    """Whether the ideal generated by a contains the one generated by b."""
    return all(any(monomial_divides(g, h) for g in a) for h in b)


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
        return ideal_contains(gens, [exp])

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
            key = minimal_generators(gens)
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


def prime_ideals(n: int):
    """Every stable prime of quantum affine n-space, by (size, members), with
    the minimal generators of its ideal: the exponent tuples of its variables."""
    from strata_lab.strat import HPrime
    primes = [HPrime(m) for size in range(n + 1)
              for m in itertools.combinations(range(1, n + 1), size)]
    return {w: minimal_generators(tuple(int(t == i - 1) for t in range(n))
                                  for i in w.members) for w in primes}


def closure_by_definition(p: Presentation) -> bool:
    """Checks (b) of the stratification axioms straight from its definition:
    for every pair of stable primes J, K, the ideal of K contains the ideal
    of J exactly when the members of J are among those of K."""
    ideals = prime_ideals(p.ngens)
    return all(ideal_contains(ideals[k], ideals[j]) == (set(j.members) <= set(k.members))
               for j in ideals for k in ideals)


def locally_closed_by_definition(p: Presentation):
    """Checks (a) and (c) of the stratification axioms straight from their
    definitions: intersect over every strictly larger prime, and over every
    prime taller than d.  Returns ({prime: (minimal generators of the bigger
    ideal, locally closed)}, low-height unions open)."""
    n = p.ngens
    ideals = prime_ideals(n)

    def meet(ws):
        out = ((0,) * n,)
        for w in ws:
            out = ideal_meet(out, ideals[w])
        return out

    closed = {}
    for j in ideals:
        bigger = meet([k for k in ideals if set(j.members) < set(k.members)])
        closed[j] = (bigger, ideal_contains(bigger, ideals[j])
                     and not ideal_contains(ideals[j], bigger))
    open_ok = all(
        (len(j.members) <= d) == (not ideal_contains(
            ideals[j], meet([k for k in ideals if len(k.members) > d])))
        for d in range(n + 1) for j in ideals)
    return closed, open_ok
