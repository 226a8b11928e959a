"""Rewriting engine for presentations with ordered generators.

A presentation fixes a generator order and, for every descending pair
(hi, lo), a rule  x_hi * x_lo = swap * x_lo * x_hi + tail  whose swap
scalar is a unit monomial and whose tail is already a combination of
ordered monomials.  Elements are sparse maps from exponent vectors to
coefficients; reduction repeatedly rewrites the leftmost descending
adjacent pair of letters, with a fuel bound (a count of rule applications)
guaranteeing termination on arbitrary user input.

Every entry point hands the one reducer, _reduce, seeds: scalar-times-word
pairs (normal_form its word, product one concatenation per term pair,
diamond_check the words each side of an overlap holds after its forced first
rewrite).  Which word is rewritten next, and where, depends only on the
words: a nonzero coefficient times a swap unit or a tail coefficient is never
zero, so the coefficients only ride along (Bergman, The diamond lemma for
ring theory, Adv. Math. 29, 1978).  A pending item carries its coefficient
factored: its seed, the sorted tail coefficients it has picked up, and a sign
and parameter shift that together are the product of its swap units.  A swap
exchanges two letters in place and resumes the scan one letter to the left,
so a run of tail-free swaps costs time linear in its length.  Finished words
are grouped by monomial, seed and tail coefficients, and each group's
coefficient is multiplied out once, after the last rewrite.

Presentations and elements are immutable and normal_form/multiply are pure;
diamond_check reports are sorted by triple, so results do not depend on
evaluation order.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from math import comb
from operator import add, sub
from typing import Mapping, Sequence

from .coeff import Coefficient, ContextMismatch, ParamContext, UnitMonomial

DEFAULT_FUEL = 10 ** 6
MAX_WORD_LETTERS = 10 ** 7  # the longest word the engine expands into letters


class EngineError(Exception):
    """Base class for engine errors."""


class FuelExhausted(EngineError):
    """The rewrite budget ran out; the presentation is suspect."""


class NegativeExponent(EngineError):
    """An inverse letter was used on a non-invertible generator."""


class PresentationError(EngineError):
    """Structurally invalid presentation or element."""


class WordTooLong(EngineError):
    """A word has more letters than MAX_WORD_LETTERS."""


class Element:
    """Sparse combination of ordered monomials: exponent tuple -> Coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, ...], Coefficient] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exp, c in items:
                if not c:
                    continue
                exp = tuple(exp)
                if exp in clean:
                    c = clean[exp] + c
                    if c:
                        clean[exp] = c
                    else:
                        del clean[exp]
                else:
                    clean[exp] = c
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            c0 = out.get(exp)
            c = c if c0 is None else c0 + c
            if c:
                out[exp] = c
            elif exp in out:
                del out[exp]
        res = Element.__new__(Element)
        res.terms = out
        return res

    def __neg__(self) -> "Element":
        res = Element.__new__(Element)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "Element") -> "Element":
        return self.__add__(other.__neg__())

    def scale(self, c) -> "Element":
        """Multiply every coefficient by c (a Coefficient or int)."""
        if isinstance(c, int):
            if c == 0:
                return Element()
            res = Element.__new__(Element)
            res.terms = {e: v * c for e, v in self.terms.items()}
            return res
        if not c:
            return Element()
        return Element({e: v * c for e, v in self.terms.items()})

    def __repr__(self) -> str:
        return f"Element({len(self.terms)} terms)"


@dataclass(frozen=True)
class Rule:
    """x_hi * x_lo = swap * x_lo * x_hi + tail."""

    swap: UnitMonomial
    tail: Element = field(default_factory=Element)


class Presentation:
    """Ordered generators, descending-pair rules, a torus grading, and a fuel bound."""

    __slots__ = ("name", "context", "generators", "invertible", "rules",
                 "weights", "rank", "fuel", "_gen_index", "_moves", "_factors")

    def __init__(self, context: ParamContext, generators: Sequence[str],
                 rules: Mapping[tuple[int, int], Rule],
                 weights: Sequence[Sequence[int]] | None = None,
                 invertible=False, rank: int | None = None,
                 name: str = "A", fuel: int = DEFAULT_FUEL):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generator names")
        n = len(gens)
        if not isinstance(invertible, bool):
            raise PresentationError("generators are all polynomial or all invertible")
        if weights is None:
            weights = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        wts = tuple(tuple(int(x) for x in w) for w in weights)
        if len(wts) != n:
            raise PresentationError("one weight vector per generator required")
        if rank is None:
            rank = len(wts[0]) if n else 0
        if any(len(w) != rank for w in wts):
            raise PresentationError("weight vectors of unequal rank")
        Fuel(fuel)  # rejects a non-positive budget

        need = {(j, i) for j in range(n) for i in range(j)}
        got = set(rules)
        if got != need:
            missing = sorted(need - got)
            extra = sorted(got - need)
            raise PresentationError(f"rule pairs mismatch: missing {missing}, extra {extra}")
        width = len(context)
        for (j, i), rule in rules.items():
            if len(rule.swap.exponents) != width:
                raise PresentationError(f"swap for pair ({j},{i}) has wrong width")
            if rule.tail and invertible:
                raise PresentationError(
                    f"pair ({j},{i}) touches an invertible generator but has a tail")
            for exp, c in rule.tail.terms.items():
                if len(exp) != n:
                    raise PresentationError(f"tail monomial width mismatch in pair ({j},{i})")
                if c.context != context:
                    raise ContextMismatch("tail coefficient over a different context")
                for t, e in enumerate(exp):
                    if e < 0:  # an invertible generator's pairs have no tail
                        raise PresentationError(
                            f"tail of pair ({j},{i}) uses a negative power of {gens[t]}")

        self.name = name
        self.context = context
        self.generators = gens
        self.invertible = (invertible,) * n
        self.rules = dict(rules)
        self.weights = wts
        self.rank = rank
        self.fuel = fuel
        self._gen_index = {g: k for k, g in enumerate(gens)}
        # _moves[hi][lo] = (swap sign, swap exponents, ((factor id, tail letters), ...)),
        # the rule of a descending pair as _reduce applies it and diamond_check
        # seeds it; _factors[id] is the coefficient of that tail term.
        self._moves = [[None] * n for _ in range(n)]
        self._factors = []
        for (j, i), rule in self.rules.items():
            tails = []
            for exp, c in rule.tail.terms.items():
                tails.append((len(self._factors), _letters(self, enumerate(exp))))
                self._factors.append(c)
            self._moves[j][i] = (rule.swap.sign, rule.swap.exponents, tuple(tails))

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def gen_index(self, name: str) -> int:
        try:
            return self._gen_index[name]
        except KeyError:
            raise PresentationError(f"unknown generator {name!r}") from None

    def with_fuel(self, fuel: int) -> "Presentation":
        """A copy with another budget; it shares the already validated fields."""
        Fuel(fuel)  # rejects a non-positive budget
        twin = copy.copy(self)
        twin.fuel = fuel
        return twin

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return (self.name == other.name and self.context == other.context
                and self.generators == other.generators
                and self.invertible == other.invertible
                and self.weights == other.weights
                and self.rules == other.rules)

    def __repr__(self) -> str:
        kind = "invertible" if all(self.invertible) and self.ngens else "polynomial"
        return f"Presentation({self.name}: {self.ngens} {kind} generators)"


# -- reduction core ---------------------------------------------------------


class Fuel:
    """A rewrite budget shared by every reduction of one engine call."""

    __slots__ = ("left",)

    def __init__(self, budget: int):
        if not isinstance(budget, int) or budget <= 0:
            raise PresentationError("fuel must be a positive integer")
        self.left = budget

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise FuelExhausted("rewrite budget exceeded")


def _letters(p: Presentation, syllables) -> list[tuple[int, int]]:
    """The letters of a word of (generator index, exponent) pairs, the only
    way a word enters the engine.  It first checks that each index names a
    generator, that no non-invertible generator has a negative power
    (NegativeExponent) and that there are at most MAX_WORD_LETTERS letters
    (WordTooLong).  Nothing checks a word again, because rewriting keeps it
    valid: a swap only permutes letters; Presentation rejects a tail with a
    negative power of a non-invertible generator; and an inverse letter
    belongs to an invertible generator, on whose pairs Presentation allows
    no tail.
    """
    n = len(p.generators)
    word = [(i, e) for i, e in syllables if e or not 0 <= i < n]  # a bad index stays
    count = 0
    for i, e in word:
        if not 0 <= i < n:
            raise PresentationError(f"generator index {i} out of range")
        if e < 0 and not p.invertible[i]:
            raise NegativeExponent(
                f"negative power of non-invertible generator {p.generators[i]}")
        count += abs(e)
    if count > MAX_WORD_LETTERS:
        try:
            text = str(count)
        except ValueError:  # longer than the interpreter prints
            text = f"about 2^{count.bit_length()}"
        raise WordTooLong(f"a word of {text} letters is longer than the limit of "
                          f"{MAX_WORD_LETTERS} letters")
    out: list[tuple[int, int]] = []
    for i, e in word:
        out.extend([(i, 1 if e > 0 else -1)] * abs(e))
    return out


def _reduce(p: Presentation, seeds: list, fuel: Fuel) -> Element:
    """The normal form of the sum of seeds, (Coefficient, letter list) pairs
    whose lists it takes over.  A pending item (base, factors, sign, shift,
    word, resume) is seeds[base]'s scalar times p._factors[f] for f in the
    sorted tuple factors, times sign * (parameters ** shift), times word, which
    is ordered before position resume.  A rewrite pushes the swapped item, then
    one item per tail term, so the tails are reduced first.
    """
    n = p.ngens
    moves = p._moves
    zero = (0,) * len(p.context)
    pending = []
    for base, (_, letters) in enumerate(seeds):
        pending.append((base, (), 1, zero, letters, 0))
    finished: dict = {}  # (monomial, base, factors) -> {shift: summed sign}
    while pending:
        base, factors, sign, shift, word, resume = pending.pop()
        for k in range(resume, len(word) - 1):
            if word[k][0] > word[k + 1][0]:
                fuel.tick()
                a, b = word[k], word[k + 1]
                usign, uexps, tails = moves[a[0]][b[0]]
                resume = k - 1 if k else 0
                word[k], word[k + 1] = b, a
                # swap^(e*f) with e, f = +-1: the sign is unchanged by the power
                pending.append((base, factors, sign * usign,
                                tuple(map(add if a[1] == b[1] else sub, shift, uexps)),
                                word, resume))
                for fid, letters in tails:
                    pending.append((base, tuple(sorted(factors + (fid,))), sign, shift,
                                    word[:k] + letters + word[k + 2:], resume))
                break
        else:
            exps = [0] * n
            for idx, e in word:
                exps[idx] += e
            key = (tuple(exps), base, factors)
            shifts = finished.get(key)
            if shifts is None:
                finished[key] = {shift: sign}
            else:
                shifts[shift] = shifts.get(shift, 0) + sign
    return _multiply_out(p, [c for c, _ in seeds], finished)


def _multiply_out(p: Presentation, bases: list, finished: dict) -> Element:
    """Sum the finished words: each distinct base * product of factors is
    computed once, extending the longest product already known, and each
    group's shift table is multiplied into it once."""
    unit = {(0,) * len(p.context): 1}
    products: dict = {}
    out: dict = {}
    for (mono, base, factors), shifts in finished.items():
        c = products.get((base, factors))
        if c is None:
            t = len(factors)
            while t and (base, factors[:t]) not in products:
                t -= 1
            c = products[(base, factors[:t])] if t else bases[base]
            for t in range(t, len(factors)):
                c = c * p._factors[factors[t]]
                products[(base, factors[:t + 1])] = c
        if shifts != unit:
            table = Coefficient.__new__(Coefficient)
            table.context, table.terms = p.context, {s: m for s, m in shifts.items() if m}
            c = c * table
        prev = out.get(mono)
        out[mono] = c if prev is None else prev + c
    res = Element.__new__(Element)
    res.terms = {mono: c for mono, c in out.items() if c}
    return res


def normal_form(p: Presentation, word, fuel: int | None = None) -> Element:
    """Reduce a word (list of (generator, exponent) pairs) to its normal form."""
    letters = _letters(p, [(p.gen_index(g) if isinstance(g, str) else int(g), int(e))
                           for g, e in word])
    budget = Fuel(p.fuel if fuel is None else fuel)
    return _reduce(p, [(Coefficient.one(p.context), letters)], budget)


def product(p: Presentation, a: Element, b: Element, fuel: Fuel) -> Element:
    """Reduce every concatenation of a term of a with a term of b, drawing
    on the caller's budget."""
    if any(len(exp) != p.ngens for x in (a, b) for exp in x.terms):
        raise PresentationError("element width does not match presentation")
    right = [(cb, _letters(p, enumerate(eb))) for eb, cb in b.terms.items()]
    seeds = []
    for ea, ca in a.terms.items():
        la = _letters(p, enumerate(ea))
        for cb, lb in right:
            seeds.append((ca * cb, la + lb))
    return _reduce(p, seeds, fuel)


def multiply(p: Presentation, a: Element, b: Element,
             fuel: int | None = None) -> Element:
    """Product of two normal-form elements, again in normal form."""
    return product(p, a, b, Fuel(p.fuel if fuel is None else fuel))


# -- element constructors ----------------------------------------------------


def monomial(p: Presentation, exponents, coeff: Coefficient | None = None) -> Element:
    exp = tuple(int(e) for e in exponents)
    if len(exp) != p.ngens:
        raise PresentationError("exponent width does not match presentation")
    for i, e in enumerate(exp):
        if e < 0 and not p.invertible[i]:
            raise NegativeExponent(f"negative power of {p.generators[i]}")
    if coeff is None:
        coeff = Coefficient.one(p.context)
    return Element({exp: coeff})


def one(p: Presentation) -> Element:
    return monomial(p, (0,) * p.ngens)


def gen(p: Presentation, i) -> Element:
    idx = p.gen_index(i) if isinstance(i, str) else int(i)
    exp = [0] * p.ngens
    exp[idx] = 1
    return monomial(p, exp)


# -- monomial order and leading terms ----------------------------------------


def order_key(exp: Sequence[int]):
    """Graded order, ties broken exponent-lexicographically from the top generator."""
    return (sum(exp), tuple(reversed(exp)))


def leading_term(p: Presentation, a: Element) -> tuple[tuple[int, ...], Coefficient]:
    if not a:
        raise ValueError("zero element has no leading term")
    exp = max(a.terms, key=order_key)
    return exp, a.terms[exp]


# -- diamond lemma check ------------------------------------------------------


@dataclass
class OverlapReport:
    """Result of resolving one overlap word x_k x_j x_i (k > j > i) both ways."""

    triple: tuple[int, int, int]
    resolved: bool
    discrepancy: Element | None
    note: str = ""


def diamond_check(p: Presentation, fuel: int | None = None) -> list[OverlapReport]:
    """Resolve every overlap x_k x_j x_i by both critical reduction orders,
    seeding each side with the words its forced first rewrite leaves: the top
    swap_kj x_j x_k x_i and c t x_i per tail term c t of (k, j), the bottom
    swap_ji x_k x_i x_j and c x_k t per tail term of (j, i)."""
    size = p.fuel if fuel is None else fuel
    Fuel(size)  # rejected even when there is no overlap to resolve
    swaps = {pair: rule.swap.to_coefficient(p.context) for pair, rule in p.rules.items()}
    c = p._factors
    reports = []
    for i, j, k in itertools.combinations(range(p.ngens), 3):
        x_i, x_j, x_k = (i, 1), (j, 1), (k, 1)
        top = [(swaps[k, j], [x_j, x_k, x_i])] + [
            (c[f], t + [x_i]) for f, t in p._moves[k][j][2]]
        bot = [(swaps[j, i], [x_k, x_i, x_j])] + [
            (c[f], [x_k] + t) for f, t in p._moves[j][i][2]]
        budget = Fuel(size)  # one per overlap, the top side drawing first
        try:
            diff = _reduce(p, top, budget) - _reduce(p, bot, budget)
            reports.append(OverlapReport((k, j, i), not diff, diff))
        except FuelExhausted:
            reports.append(OverlapReport((k, j, i), False, None, "fuel exhausted"))
    reports.sort(key=lambda r: r.triple)
    return reports


# -- graded dimension ---------------------------------------------------------


def hilbert_count(p: Presentation, degree: int) -> int:
    """Number of normal monomials of the given total degree.

    An ordered monomial has no descending pair, so reduction fixes it with
    zero rewrites and the count is the commutative one, C(n+d-1, d).  That
    these monomials form a basis rests on confluence: an empty diamond_check
    certifies it (Bergman's diamond lemma).
    """
    if any(p.invertible):
        raise PresentationError("hilbert_count requires polynomial-kind generators")
    if degree < 0:
        return 0
    if p.ngens == 0:
        return 1 if degree == 0 else 0
    return comb(p.ngens + degree - 1, degree)


# -- printing -----------------------------------------------------------------


def monomial_text(p: Presentation, exp: Sequence[int]) -> str:
    factors = []
    for name, e in zip(p.generators, exp):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def format_element(p: Presentation, a: Element) -> str:
    """Human- and parser-readable text; leading terms first."""
    if not a:
        return "0"
    parts = []
    for exp in sorted(a.terms, key=order_key, reverse=True):
        c = a.terms[exp]
        mono = monomial_text(p, exp)
        if len(c.terms) == 1:
            (ce, ci), = c.terms.items()
            body = c._term_text(ce, ci)
            neg = ci < 0
            if body == "1":
                text = mono
            elif mono == "1":
                text = body
            else:
                text = f"{body} * {mono}"
            if not parts:
                parts.append(text if not neg else f"-{text}")
            else:
                parts.append(f"+ {text}" if not neg else f"- {text}")
        else:
            text = f"({c}) * {mono}" if mono != "1" else f"({c})"
            parts.append(text if not parts else f"+ {text}")
    return " ".join(parts)
