"""Stratification toolkit for quantum affine spaces.

The full torus acts with one-dimensional weight spaces, so every stable ideal
is a monomial ideal and the stable primes are exactly the ideals generated by
subsets of the generators.  Each such prime yields a stratum, whose center is
the Laurent ring on the integer kernel of the commutation exponent matrix of
the surviving generators, read straight off the parent's swaps.  The quantum
torus on the survivors is built only to check each kernel monomial central
with the engine, and for the box search that cross-checks it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence

from . import lattice
from .grading import NormalityCertificate, commutation_products, scalar_normality_check
from .pbw import Element, Presentation, Rule, gen, monomial


# Most stable primes hspec_quantum_affine lists: 2^n for n generators, so
# n <= 12.  At n = 12 the single-parameter `poset`, the slowest command over
# every prime, takes about 4 s.
MAX_STABLE_PRIMES = 4096


class StratError(Exception):
    pass


class GenericityUnverified(StratError):
    """Commutation scalars are not in certified torsionfree (positive symbolic) form."""


@dataclass(frozen=True)
class HPrime:
    """Stable prime of a quantum affine space: the generators it contains (1-based)."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(map(index, self.members)))))

    def issubset(self, other: "HPrime") -> bool:
        return set(self.members) <= set(other.members)


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


def hspec_quantum_affine(p: Presentation) -> list[HPrime]:
    """All stable primes, ordered by (size, members); the poset is inclusion.

    Each ideal is generated by some of the generators, and check_quantum_affine
    requires the standard weight of each, so each ideal is torus-stable.  Its
    rules are tail-free with unit swaps, so every product of two generators is
    one nonzero term and each quotient by generators is again a domain; no
    product is computed to confirm it.
    """
    check_quantum_affine(p)
    check_genericity(p)
    n = p.ngens
    if 2 ** n > MAX_STABLE_PRIMES:
        raise StratError(f"{n} generators give 2^{n} = {2 ** n} stable primes, above the "
                         f"limit {MAX_STABLE_PRIMES}")
    return [HPrime(members) for size in range(n + 1)
            for members in itertools.combinations(range(1, n + 1), size)]


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
            for a in primes for i in range(1, n + 1) if i not in a.members]


# -- quotients, tori, centers ---------------------------------------------------


def _survivors(p: Presentation, w: HPrime) -> list[int]:
    """The 0-based indices of the generators outside w, once every index of w
    is found to name a generator."""
    if any(not 1 <= i <= p.ngens for i in w.members):
        raise StratError("stable prime indexes generators that do not exist")
    return [i for i in range(p.ngens) if i + 1 not in w.members]


def _quotient(p: Presentation, w: HPrime, survivors: list[int],
              invertible: bool) -> Presentation:
    """Quantum affine space (or torus) on the survivors, the generators outside
    w, of a parent the caller has checked."""
    rules = {(b, a): Rule(p.rules[(survivors[b], survivors[a])].swap)
             for b in range(len(survivors)) for a in range(b)}
    kind = "torus" if invertible else "affine"
    name = f"{p.name}_mod_{''.join(str(i) for i in w.members) or '0'}_{kind}"
    return Presentation(p.context, [p.generators[i] for i in survivors], rules,
                        [p.weights[i] for i in survivors], invertible=invertible,
                        name=name).with_fuel(p.fuel)


def stratum_torus(p: Presentation, w: HPrime) -> Presentation:
    """Localization of the quotient at its surviving generators."""
    check_quantum_affine(p)
    return _quotient(p, w, _survivors(p, w), True)


def is_central(torus: Presentation, e: Element) -> bool:
    return all(left == right for left, right in commutation_products(torus, e))


@dataclass
class StratumReport:
    """Stratum data for one stable prime of a quantum affine space."""

    hprime: HPrime
    torus_size: int
    center_rank: int
    center_basis: list[tuple[int, ...]]


def stratum_report(p: Presentation, w: HPrime) -> StratumReport:
    """The stratum center as the lattice kernel of the commutation exponent
    matrix of the survivors, each kernel monomial checked central in the
    stratum torus by the engine.

    The matrix has rows indexed by (survivor i, symbol t) and columns by the
    survivors; its entry at column j is the exponent of t in the scalar q_ij
    with x_i x_j = q_ij x_j x_i, read off the parent's swap.  A zero or
    repeated row does not change the kernel, so only the distinct nonzero
    rows, in first-seen order, are kept.
    """
    check_quantum_affine(p)
    check_genericity(p)
    survivors = _survivors(p, w)
    zero = (0,) * len(p.context)
    rows = {}
    for i in survivors:
        q = [p.rules[(i, j)].swap.exponents if i > j else zero if i == j
             else [-e for e in p.rules[(j, i)].swap.exponents] for j in survivors]
        rows.update(dict.fromkeys(filter(any, zip(*q))))
    size = len(survivors)
    basis = lattice.kernel_basis([list(row) for row in rows]) if rows else \
        [tuple(1 if j == i else 0 for j in range(size)) for i in range(size)]
    if basis:
        torus = _quotient(p, w, survivors, True)
        for v in basis:
            if not is_central(torus, monomial(torus, v)):
                raise AssertionError("kernel vector is not central in the torus")
    return StratumReport(w, size, len(basis), basis)


def brute_force_central_monomials(torus: Presentation, box: int) -> list[tuple[int, ...]]:
    """Engine-level oracle: all exponent vectors in [-box, box]^n whose
    monomials commute with every generator, in increasing order, the order
    itertools.product yields them in."""
    if box < 0:
        raise ValueError("box must be nonnegative")
    return [vec for vec in itertools.product(range(-box, box + 1), repeat=torus.ngens)
            if is_central(torus, monomial(torus, vec))]


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
    _survivors(p, large)  # each index of large, so each of small, names a generator
    check_quantum_affine(p)
    quotient = _quotient(p, small, _survivors(p, small), False)
    i = min(set(large.members) - set(small.members))
    cert = scalar_normality_check(quotient, gen(quotient, p.generators[i - 1]))
    if cert is None:
        raise AssertionError("separating generator failed its normality certificate")
    return SeparationWitness(i, quotient, cert)


# -- stratification topology shadow -----------------------------------------------


@dataclass
class LocallyClosedWitness:
    hprime: HPrime
    bigger: tuple[tuple[int, ...], ...]   # sorted minimal generators, exponent tuples
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
    (b) closures are unions of strata: ideal containment matches poset order.
        The ideal of J is generated by variables, each one a prime, so this
        holds for every pair exactly when the ideal of K holds x_i iff i is in K;
    (c) unions of low-height strata are open: J has height <= d exactly when
        its ideal fails to contain the intersection over heights > d.  The
        primes form a Boolean lattice, so the height of J is its size.

    Ideals grow with the prime, as (b) verifies, and every prime above J (or
    of height > d) contains one with a single generator more than J (or of
    height d + 1).  So (a) and (c) intersect over those primes only, with the
    same result as over all of them.

    Every intersection of these ideals is generated by squarefree monomials
    (lcms of variables), so the checks run on int bitmasks: a prime and a
    squarefree monomial are the sets of their generators (bit i - 1 for x_i),
    divisibility is g & ~h == 0, an lcm is g | h, and an ideal is its list of
    minimal generators.  Containment is computed from the generators, never
    read off the poset order.  No CLI command runs this check; acceptance
    criterion 8 and the `strata` benchmark's `axioms` jobs call it.
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
        witnesses.append(LocallyClosedWitness(
            w, tuple(sorted(tuple(g >> t & 1 for t in range(n)) for g in bigger)), ok))

    closure_ok = all(_mask_contains(ideal[k], [1 << t]) == bool(k >> t & 1)
                     for k in masks for t in range(n))

    open_ok = True
    for d in range(n + 1):
        tall = meet(k for k in masks if k.bit_count() == d + 1)
        for j in masks:
            lies_in = _mask_contains(ideal[j], tall)
            if (j.bit_count() <= d) != (not lies_in):
                open_ok = False
    return StratificationReport(witnesses, closure_ok, open_ok)
