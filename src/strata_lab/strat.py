"""Stratification toolkit for quantum affine spaces.

The full torus acts with one-dimensional weight spaces, so every stable ideal
is a monomial ideal and the stable primes are exactly the ideals generated by
subsets of the generators.  Each such prime yields a stratum: quotient to the
quantum affine space on the surviving generators, localize to the quantum
torus, and read the center off the integer kernel of the commutation
exponent matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import lattice
from .grading import NormalityCertificate, scalar_normality_check
from .pbw import Element, Presentation, Rule, gen, monomial, multiply


class StratError(Exception):
    pass


class GenericityUnverified(StratError):
    """Commutation scalars are not in certified torsionfree (positive symbolic) form."""


@dataclass(frozen=True, order=True)
class HPrime:
    """Stable prime of a quantum affine space: the generators it contains (1-based)."""

    members: tuple[int, ...]

    def __post_init__(self):
        m = tuple(sorted(set(self.members)))
        if m != tuple(self.members):
            object.__setattr__(self, "members", m)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def issubset(self, other: "HPrime") -> bool:
        return set(self.members) <= set(other.members)


@dataclass(frozen=True)
class MonomialIdeal:
    """Span of the monomials divisible by one of the generators (exponent tuples)."""

    width: int
    generators: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(width: int, gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != width or any(e < 0 for e in g):
                raise ValueError("bad monomial generator")
        reduced: list[tuple[int, ...]] = []
        for g in sorted(gens, key=lambda g: (sum(g), g)):
            if not any(_divides(h, g) for h in reduced):
                reduced.append(g)
        return MonomialIdeal(width, tuple(sorted(reduced)))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_whole_ring(self) -> bool:
        return any(not any(g) for g in self.generators)

    def contains_monomial(self, exp: Sequence[int]) -> bool:
        exp = tuple(exp)
        return any(_divides(g, exp) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.generators)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        gens = [tuple(max(a, b) for a, b in zip(g, h))
                for g in self.generators for h in other.generators]
        return MonomialIdeal.make(self.width, gens)


def _divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


# -- structural checks ---------------------------------------------------------


def check_quantum_affine(p: Presentation) -> None:
    """Require the shape quantum_affine produces: tail-free swaps, standard grading."""
    n = p.ngens
    if any(p.invertible):
        raise StratError("expected polynomial-kind generators")
    if p.rank != n:
        raise StratError("expected the rank-n grading of a quantum affine space")
    for i, w in enumerate(p.weights):
        if w != tuple(1 if t == i else 0 for t in range(n)):
            raise StratError("expected the standard weight of each generator")
    for pair, rule in p.rules.items():
        if rule.tail:
            raise StratError(f"rule {pair} has a tail; not a quantum affine space")


def check_genericity(p: Presentation) -> None:
    """Certify the commutation group torsionfree: all swaps positive monomials.

    Positive monomials generate a free abelian subgroup of the units, so the
    integer exponent model is exact.  A sign -1 anywhere would add torsion,
    or at least a sign that model cannot see.
    """
    for pair, rule in p.rules.items():
        if rule.swap.sign != 1:
            raise GenericityUnverified(
                f"swap scalar of pair {pair} carries sign -1; torsionfreeness "
                "of the commutation group is not certified")


def domain_shadow_check(p: Presentation) -> bool:
    """Leading-term additivity holds structurally for tail-free unit swaps:
    every product of two generators, in either order, is a single monomial."""
    if any(rule.tail for rule in p.rules.values()):
        return False
    return all(len(multiply(p, gen(p, i), gen(p, j)).terms) == 1
               for i in range(p.ngens) for j in range(p.ngens))


def hspec_quantum_affine(p: Presentation) -> list[HPrime]:
    """All stable primes, ordered by (size, members); the poset is inclusion.

    Each ideal is generated by some of the generators, and check_quantum_affine
    requires the standard weight of each, so each ideal is torus-stable.  Every
    quotient keeps a subset of p's tail-free swaps, so the domain shadow check
    of p, over all ordered generator pairs, covers every quotient.
    """
    check_quantum_affine(p)
    check_genericity(p)
    n = p.ngens
    if not domain_shadow_check(p):
        raise AssertionError("presentation failed the domain shadow check")
    return [HPrime(members) for size in range(n + 1)
            for members in itertools.combinations(range(1, n + 1), size)]


def _check_members(p: Presentation, w: HPrime) -> None:
    if any(not 1 <= i <= p.ngens for i in w.members):
        raise StratError("stable prime indexes generators that do not exist")


def ideal_of(p: Presentation, w: HPrime) -> MonomialIdeal:
    n = p.ngens
    gens = []
    for i in w.members:
        exp = [0] * n
        exp[i - 1] = 1
        gens.append(tuple(exp))
    return MonomialIdeal.make(n, gens)


def poset_covers(primes: Sequence[HPrime]) -> list[tuple[HPrime, HPrime]]:
    """Covering relations of the inclusion poset.

    The stable primes of quantum affine n-space are all 2^n subsets of the
    generators, a Boolean lattice, so a cover adds exactly one generator.
    Any other list of primes is rejected.
    """
    n = len(primes).bit_length() - 1
    if (not primes or len(primes) != 1 << n or len(set(primes)) != len(primes)
            or any(not 1 <= i <= n for w in primes for i in w.members)):
        raise StratError("stable primes are not all subsets of the generators")
    return [(a, HPrime(a.members + (i,)))
            for a in primes for i in range(1, n + 1) if i not in a]


# -- quotients, tori, centers ---------------------------------------------------


def quotient_presentation(p: Presentation, w: HPrime, invertible: bool = False) -> Presentation:
    """Quantum affine space (or torus) on the generators outside w."""
    check_quantum_affine(p)
    _check_members(p, w)
    n = p.ngens
    survivors = [i for i in range(n) if (i + 1) not in w.members]
    rules = {}
    for b in range(len(survivors)):
        for a in range(b):
            rules[(b, a)] = Rule(p.rules[(survivors[b], survivors[a])].swap)
    gens = [p.generators[i] for i in survivors]
    weights = [p.weights[i] for i in survivors]
    kind = "torus" if invertible else "affine"
    name = f"{p.name}_mod_{''.join(str(i) for i in w.members) or '0'}_{kind}"
    return Presentation(p.context, gens, rules, weights, invertible=invertible,
                        rank=p.rank, name=name, fuel=p.fuel)


def stratum_torus(p: Presentation, w: HPrime) -> Presentation:
    """Localization of the quotient at its surviving generators."""
    return quotient_presentation(p, w, invertible=True)


def commutation_exponent_matrix(torus: Presentation) -> list[list[int]]:
    """Rows indexed by (generator, symbol), columns by generators.

    Entry of row (i, t) at column j is the exponent of symbol t in the
    scalar q_ij with x_i x_j = q_ij x_j x_i.
    """
    check_genericity(torus)
    n = torus.ngens
    width = len(torus.context)
    rows = []
    for i in range(n):
        for t in range(width):
            row = []
            for j in range(n):
                if i == j:
                    row.append(0)
                elif i > j:
                    row.append(torus.rules[(i, j)].swap.exponents[t])
                else:
                    row.append(-torus.rules[(j, i)].swap.exponents[t])
            rows.append(row)
    return rows


def is_central(torus: Presentation, e: Element) -> bool:
    return all(multiply(torus, e, gen(torus, i)) == multiply(torus, gen(torus, i), e)
               for i in range(torus.ngens))


def graded_simplicity_shadow(torus: Presentation) -> bool:
    """Distinct monomials carry distinct weights, so every weight space is
    one-dimensional and every nonzero homogeneous element is a unit.

    Structurally: the transpose of the generator weight matrix must have a
    trivial integer kernel.
    """
    if torus.ngens == 0:
        return True
    weight_rows = [list(w) for w in torus.weights]
    return lattice.kernel_basis(lattice.transpose(weight_rows)) == []


@dataclass
class StratumReport:
    """Stratum data for one stable prime of a quantum affine space."""

    hprime: HPrime
    torus: Presentation
    ore_set_generator_product: Element
    exponent_matrix: list[list[int]]
    center_rank: int
    center_basis: list[tuple[int, ...]]
    coefficient_field_note: str = "base field (generic parameters)"

    @property
    def torus_size(self) -> int:
        return self.torus.ngens


def stratum_report(p: Presentation, w: HPrime) -> StratumReport:
    """Quotient, localize, and compute the stratum center as a lattice kernel;
    graded_simplicity_shadow holds, as quotient_presentation checks the weights."""
    torus = stratum_torus(p, w)
    size = torus.ngens
    # The distinct generators in ascending order already form an ordered monomial.
    product = monomial(torus, (1,) * size)
    mat = commutation_exponent_matrix(torus)
    basis = lattice.kernel_basis(mat) if mat else \
        [tuple(1 if j == i else 0 for j in range(size)) for i in range(size)]
    for v in basis:
        if not is_central(torus, monomial(torus, v)):
            raise AssertionError("kernel vector is not central in the torus")
    return StratumReport(w, torus, product, mat, len(basis), [tuple(v) for v in basis])


def brute_force_central_monomials(torus: Presentation, box: int) -> list[tuple[int, ...]]:
    """Engine-level oracle: all exponent vectors in [-box, box]^n whose
    monomials commute with every generator."""
    if box < 0:
        raise ValueError("box must be nonnegative")
    n = torus.ngens
    out = []
    for vec in itertools.product(range(-box, box + 1), repeat=n):
        if is_central(torus, monomial(torus, vec)):
            out.append(vec)
    out.sort()
    return out


# -- separation witnesses --------------------------------------------------------


@dataclass
class SeparationWitness:
    generator: int                     # 1-based index into the ambient generators
    quotient: Presentation             # ambient modulo the smaller prime
    certificate: NormalityCertificate


def normal_separation_witness(p: Presentation, small: HPrime, large: HPrime) -> SeparationWitness:
    """A homogeneous scalar-normal generator separating two comparable primes."""
    if not small.issubset(large) or small == large:
        raise StratError("need a strict inclusion of stable primes")
    _check_members(p, large)
    quotient = quotient_presentation(p, small)
    i = min(set(large.members) - set(small.members))
    pos = quotient.gen_index(p.generators[i - 1])
    cert = scalar_normality_check(quotient, gen(quotient, pos))
    if cert is None:
        raise AssertionError("separating generator failed its normality certificate")
    return SeparationWitness(i, quotient, cert)


# -- stratification topology shadow -----------------------------------------------


@dataclass
class LocallyClosedWitness:
    hprime: HPrime
    bigger: MonomialIdeal
    ok: bool


@dataclass
class StratificationReport:
    locally_closed: list[LocallyClosedWitness]
    closure_is_union: bool
    height_unions_open: bool

    @property
    def passed(self) -> bool:
        return (self.closure_is_union and self.height_unions_open
                and all(w.ok for w in self.locally_closed))


def _mask_meet(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Intersection of two squarefree monomial ideals: the minimal lcms g | h
    of their generators.

    A mask has bit t set when x_{t+1} divides the monomial, so g divides h
    exactly when g & ~h == 0.  After sorting by degree, only an earlier
    generator can divide a later one.
    """
    out: list[int] = []
    for g in sorted({g | h for g in a for h in b}, key=int.bit_count):
        for h in out:
            if not h & ~g:
                break
        else:
            out.append(g)
    return out


def _mask_contains(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether ideal a contains ideal b: each generator of b has a divisor in a."""
    for h in b:
        for g in a:
            if not g & ~h:
                break
        else:
            return False
    return True


def stratification_axioms_check(p: Presentation) -> StratificationReport:
    """Finite-poset shadow of the stratification laws.

    (a) each stratum is locally closed: the intersection of the ideals of the
        primes properly above J strictly contains the ideal of J (whole ring
        for maximal J);
    (b) closures are unions of strata: ideal containment matches poset order;
    (c) unions of low-height strata are open: J has height <= d exactly when
        its ideal fails to contain the intersection over heights > d.  The
        primes form a Boolean lattice, so the height of J is its size.

    Ideals grow with the prime, as (b) verifies, and every prime above J (or
    of height > d) contains one with a single generator more than J (or of
    height d + 1).  So (a) and (c) intersect over those primes only, with the
    same result as over all of them.

    The ideal of a stable prime is generated by its variables, so every
    intersection of such ideals is generated by squarefree monomials (lcms of
    variables).  The checks therefore run on int bitmasks: a prime and a
    squarefree monomial are the sets of their generators (bit i - 1 for x_i),
    divisibility is g & ~h == 0, an lcm is g | h, and an ideal is its list of
    minimal generators.  Containment is still computed from the generators,
    never read off the poset order.  Each witness's `bigger` is turned back
    into a MonomialIdeal of exponent tuples, so the report keeps the type that
    callers and the definition oracle compare, and the bitmasks stay private
    to this check.
    """
    primes = hspec_quantum_affine(p)
    n = p.ngens
    masks = [sum(1 << (i - 1) for i in w.members) for w in primes]
    ideal = {m: [1 << (i - 1) for i in w.members] for w, m in zip(primes, masks)}

    def meet(ms: Iterable[int]) -> list[int]:
        out = [0]
        for m in ms:
            out = _mask_meet(out, ideal[m])
        return out

    witnesses = []
    for w, m in zip(primes, masks):
        bigger = meet(m | 1 << t for t in range(n) if not m >> t & 1)
        ok = _mask_contains(bigger, ideal[m]) and not _mask_contains(ideal[m], bigger)
        witnesses.append(LocallyClosedWitness(w, MonomialIdeal.make(
            n, [tuple(g >> t & 1 for t in range(n)) for g in bigger]), ok))

    closure_ok = all(_mask_contains(ideal[k], ideal[j]) == (not j & ~k)
                     for j in masks for k in masks)

    open_ok = True
    for d in range(n + 1):
        tall = meet(k for k in masks if k.bit_count() == d + 1)
        for j in masks:
            lies_in = _mask_contains(ideal[j], tall)
            if (j.bit_count() <= d) != (not lies_in):
                open_ok = False
    return StratificationReport(witnesses, closure_ok, open_ok)


def central_multiplier_check(torus: Presentation, f: Element, h: Element) -> bool:
    """Multiplying by a nonzero central f must not change centrality of h."""
    if not f:
        raise ValueError("f must be nonzero")
    if not is_central(torus, f):
        raise ValueError("f must be central")
    return is_central(torus, multiply(torus, f, h)) == is_central(torus, h)
