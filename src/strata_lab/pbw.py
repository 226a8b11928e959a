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
rewrite).  A tail-free rule only permutes letters, so a seed that meets no
tail is one term, x^a x^b = (prod_{j>i} swap_ji^(a_j b_i)) x^(a+b), charged its
inverted letter pairs (_closed_form); only the others are rewritten, each as a
list of generator indices, one per letter: a tail makes its presentation
polynomial, so every letter is a generator to the first power.  Which word is
rewritten next, and where, depends only on the words: a nonzero coefficient
times a swap unit or a tail coefficient is never zero, so the coefficients
only ride along (Bergman, The diamond lemma for ring theory, Adv. Math. 29,
1978).  A pending item carries its coefficient factored: its seed, the sorted
tail coefficients it has picked up, and a sign and parameter shift that
together are the product of its swap units.  Finished words are grouped by
monomial, seed and tail coefficients, and each group's coefficient is
multiplied out once, after the last rewrite.

A word that comes back to a rewrite with a tail within one call, as words
do in quantum matrices, Weyl, symplectic and Euclidean spaces, is reduced
once more into a memo entry: its groups from coefficient 1 and its leftmost
rewrite count.  Every later visit charges that count to the budget at once
and reuses the groups.  So fuel still counts the rule applications of the
plain leftmost-first reduction, FuelExhausted fires on the same inputs and
budgets, and the answers are the same; only shared subtrees are not walked
again.  Tail-free swaps never touch the memo.

Presentations and elements are immutable and normal_form/multiply are pure;
diamond_check reports are sorted by triple, so results do not depend on
evaluation order.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from math import comb
from operator import add, index
from typing import Mapping, Sequence

from .coeff import Coefficient, ContextMismatch, ParamContext, UnitMonomial, add_terms

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
    """A word has more letters than MAX_WORD_LETTERS; pair is (hi, lo) for a rule's tail."""

    pair = None


class Element:
    """Sparse combination of ordered monomials: exponent tuple -> Coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = add_terms({}, terms) if terms else {}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __add__(self, other: "Element") -> "Element":
        res = Element.__new__(Element)
        res.terms = add_terms(dict(self.terms), other.terms)
        return res

    def __neg__(self) -> "Element":
        res = Element.__new__(Element)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "Element") -> "Element":
        return self.__add__(other.__neg__())

    def scale(self, c) -> "Element":
        """Multiply every coefficient by c (a Coefficient or int).  Laurent
        polynomials over the integers have no zero divisors, so no product of
        nonzero factors needs cleaning."""
        res = Element.__new__(Element)
        res.terms = {e: v * c for e, v in self.terms.items()} if c else {}
        return res

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
                 "weights", "rank", "fuel", "_gen_index", "_moves", "_factors", "_tailed")

    def __init__(self, context: ParamContext, generators: Sequence[str],
                 rules: Mapping[tuple[int, int], Rule],
                 weights: Sequence[Sequence[int]] | None = None,
                 invertible=False, name: str = "A"):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generator names")
        n = len(gens)
        if not isinstance(invertible, bool):
            raise PresentationError("generators are all polynomial or all invertible")
        if weights is None:
            weights = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        wts = tuple(tuple(map(index, w)) for w in weights)
        if len(wts) != n:
            raise PresentationError("one weight vector per generator required")
        rank = len(wts[0]) if n else 0
        if any(len(w) != rank for w in wts):
            raise PresentationError("weight vectors of unequal rank")

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
            if rule.tail and tuple(1 if t in (i, j) else 0 for t in range(n)) in rule.tail.terms:
                raise PresentationError(f"the tail for ({gens[j]}, {gens[i]}) has a "
                                        f"{gens[i]}*{gens[j]} term; it belongs in the swap")

        self.name = name
        self.context = context
        self.generators = gens
        self.invertible = (invertible,) * n
        self.rules = dict(rules)
        self.weights = wts
        self.rank = rank
        self.fuel = DEFAULT_FUEL
        self._gen_index = {g: k for k, g in enumerate(gens)}
        # _moves[hi][lo] = (swap sign, swap exponents, ((factor id, tail word as
        # generator indices), ...)), the rule of a descending pair; _factors[id]
        # is the coefficient of that tail term; bit lo of _tailed[hi] is set when
        # (hi, lo) has a tail.
        self._moves = [[None] * n for _ in range(n)]
        self._factors = []
        self._tailed = [0] * n
        for (j, i), rule in self.rules.items():
            tails = []
            for exp, c in rule.tail.terms.items():
                try:
                    word, _ = _checked(self, enumerate(exp))
                except WordTooLong as exc:
                    exc.pair = (j, i)
                    raise
                tails.append((len(self._factors), [g for g, e in word for _ in range(e)]))
                self._factors.append(c)
                self._tailed[j] |= 1 << i
            self._moves[j][i] = (rule.swap.sign, rule.swap.exponents, tuple(tails))

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def gen_index(self, g) -> int:
        """The index of a generator given by name or by index."""
        if isinstance(g, str):
            try:
                return self._gen_index[g]
            except KeyError:
                raise PresentationError(f"unknown generator {g!r}") from None
        i = index(g)
        if not 0 <= i < len(self.generators):
            raise PresentationError(f"generator index {i} out of range")
        return i

    def with_fuel(self, fuel: int) -> "Presentation":
        """A copy with another budget; it shares the already validated fields."""
        Fuel(fuel)  # rejects a non-positive budget
        twin = copy.copy(self)
        twin.fuel = fuel
        return twin

    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.name == other.name and self.context == other.context
                and self.generators == other.generators
                and self.invertible == other.invertible
                and self.weights == other.weights
                and self.rules == other.rules)


# -- reduction core ---------------------------------------------------------


class Fuel:
    """A rewrite budget shared by every reduction of one engine call."""

    __slots__ = ("left",)

    def __init__(self, budget: int):
        if not isinstance(budget, int) or budget <= 0:
            raise PresentationError("fuel must be a positive integer")
        self.left = budget


def _checked(p: Presentation, pairs) -> tuple[list[tuple[int, int]], int]:
    """A word's (generator index, nonzero exponent) pairs and its number of
    letters, counted, not built: the one check of a word entering the engine,
    tails included (NegativeExponent, then WordTooLong; product checks a term
    pair's total alike), whose indices the caller has range-checked.  Rewriting
    keeps a word valid: swaps only permute letters, tails passed this check, and
    inverse letters meet no tail."""
    word, count = [], 0
    for i, e in pairs:
        if e:
            if e < 0 and not p.invertible[i]:
                raise NegativeExponent(
                    f"negative power of non-invertible generator {p.generators[i]}")
            word.append((i, e))
            count += abs(e)
    if count > MAX_WORD_LETTERS:
        raise _too_long(count)
    return word, count


def _closed_form(p: Presentation, c: Coefficient, word, fuel: Fuel):
    """The one term (exponents, coefficient) of c times a checked word that meets
    only tail-free rules, charging the fuel its inverted letter pairs, the swaps
    of the leftmost reduction; None, charging nothing, when a tail is met (one
    bitmask AND per syllable).  x_j^e before x_i^f, j > i, gives swap_ji^(e f)."""
    n, tailed, moves = p.ngens, p._tailed, p._moves
    reach = 0  # the generators a tail lies below
    for i, _ in word:
        if reach >> i & 1:
            return None
        reach |= tailed[i]
    net, tot = [0] * n, [0] * n  # signed and absolute letter counts so far
    seen = count = 0
    sign, shift = 1, [0] * len(p.context)
    for i, f in word:
        for j in range(i + 1, seen.bit_length()):
            if tot[j]:
                usign, uexps, _ = moves[j][i]
                pairs = tot[j] * abs(f)
                count += pairs
                sign *= usign if pairs & 1 else 1
                for k in itertools.compress(range(len(uexps)), uexps):
                    shift[k] += net[j] * f * uexps[k]
        net[i] += f
        tot[i] += abs(f)
        seen |= 1 << i
    fuel.left -= count
    if fuel.left < 0:
        raise FuelExhausted("rewrite budget exceeded")
    if sign == 1 and not any(shift):
        return tuple(net), c
    term = Coefficient.__new__(Coefficient)
    term.context = p.context
    term.terms = {tuple(map(add, e, shift)): sign * v for e, v in c.terms.items()}
    return tuple(net), term


def _too_long(count: int) -> WordTooLong:
    try:
        text = str(count)
    except ValueError:  # longer than the interpreter prints
        text = f"about 2^{count.bit_length()}"
    return WordTooLong(f"a word of {text} letters is longer than the limit of "
                       f"{MAX_WORD_LETTERS} letters")


def _reduce(p: Presentation, seeds: list, fuel: Fuel) -> Element:
    """The normal form of the sum of seeds, (Coefficient, checked word) pairs; a
    word that meets a tail is expanded into a list of generator indices, one per
    letter, and rewritten.  A pending item (base, factors, sign, shift, word,
    resume) is seeds[base]'s scalar times p._factors[f] for f in the sorted
    tuple factors, times sign * (parameters ** shift), times word, ordered
    before position resume; a rewrite pushes the swapped item, then one per
    tail term, so tails go first.

    The memo (see the module docstring) keeps only the hash of a word at its
    first visit; the next visit opens the word's entry, reduced from coefficient
    1 into finished groups of its own, whose count is the fuel spent until it
    closes.  Entries nest on a stack, not on the interpreter's.
    """
    zero = (0,) * len(p.context)
    pending, done = [], []  # done: the terms _closed_form finishes
    for base, (c, word) in enumerate(seeds):
        term = _closed_form(p, c, word, fuel)
        if term is not None:
            done.append(term)
            continue
        letters = []
        for i, e in word:  # a word that meets a tail has no inverse letter
            letters += [i] * e
        pending.append((base, (), 1, zero, letters, 0))
    if not pending:
        return Element(done)
    n, moves = p.ngens, p._moves
    finished: dict = {}  # (monomial, base, factors) -> {shift: summed sign}
    # seen: the hashes of the words that reached a rewrite with a tail; memo: a
    # word seen again -> (rewrite count, finished groups); entries: the open
    # entries as (word, fuel left, visiting item, outer pending, outer finished).
    seen, memo, entries = set(), {}, []
    while True:
        while pending:
            base, factors, sign, shift, word, resume = pending.pop()
            for k in range(resume, len(word) - 1):
                if word[k] > word[k + 1]:
                    a, b = word[k], word[k + 1]
                    usign, uexps, tails = moves[a][b]
                    if tails:
                        key = tuple(word)
                        mark = hash(key)
                        if mark not in seen:
                            seen.add(mark)
                        else:  # the word came back, or its hash is another's
                            got = memo.get(key)
                            if got is not None:
                                fuel.left -= got[0]
                                if fuel.left < 0:
                                    raise FuelExhausted("rewrite budget exceeded")
                                _absorb(finished, got[1], base, factors, sign, shift)
                                break
                            memo[key] = _OPEN
                            entries.append((key, fuel.left, (base, factors, sign, shift),
                                            pending, finished))
                            pending, finished = [], {}
                            base, factors, sign, shift = 0, (), 1, zero
                    fuel.left -= 1
                    if fuel.left < 0:
                        raise FuelExhausted("rewrite budget exceeded")
                    resume = k - 1 if k else 0
                    word[k], word[k + 1] = b, a
                    pending.append((base, factors, sign * usign, tuple(map(add, shift, uexps)),
                                    word, resume))
                    for fid, letters in tails:
                        fids = tuple(sorted(factors + (fid,))) if factors else (fid,)
                        pending.append((base, fids, sign, shift,
                                        word[:k] + letters + word[k + 2:], resume))
                    break
            else:
                exps = [0] * n
                for idx in word:
                    exps[idx] += 1
                key = (tuple(exps), base, factors)
                shifts = finished.get(key)
                if shifts is None:
                    finished[key] = {shift: sign}
                else:
                    shifts[shift] = shifts.get(shift, 0) + sign
        if not entries:
            return _multiply_out(p, [c for c, _ in seeds], finished, done)
        key, left, item, pending, outer = entries.pop()
        memo[key] = (left - fuel.left, finished)
        _absorb(outer, finished, *item)
        finished = outer


# The memo's entry for a word while its own entry is reduced: a word met again
# below itself is rewritten without end, which no budget pays for.
_OPEN = (float("inf"), {})


def _absorb(finished: dict, groups: dict, base, factors, sign, shift):
    """Add an entry's groups, reduced from coefficient 1, to finished, scaled by
    seeds[base] * factors * sign * (parameters ** shift)."""
    for (mono, _, fs), shifts in groups.items():
        key = (mono, base, tuple(sorted(factors + fs)) if factors else fs)
        table = finished.get(key)
        if table is None:
            table = finished[key] = {}
        for s, m in shifts.items():
            s = tuple(map(add, shift, s))
            table[s] = table.get(s, 0) + sign * m


def _multiply_out(p: Presentation, bases: list, finished: dict, out: list) -> Element:
    """Sum the terms out and the finished words: each distinct base * product
    of factors is computed once, and each group's shift table is multiplied
    into it once."""
    unit = {(0,) * len(p.context): 1}
    products: dict = {}
    for (mono, base, factors), shifts in finished.items():
        c = products.get((base, factors))
        if c is None:
            c = bases[base]
            for f in factors:
                c = c * p._factors[f]
            products[base, factors] = c
        if shifts != unit:
            table = Coefficient.__new__(Coefficient)
            table.context, table.terms = p.context, {s: m for s, m in shifts.items() if m}
            c = c * table
        out.append((mono, c))
    return Element(out)


def normal_form(p: Presentation, word, fuel: int | None = None) -> Element:
    """Reduce a word (list of (generator, exponent) pairs) to its normal form."""
    word, _ = _checked(p, [(p.gen_index(g), index(e)) for g, e in word])
    budget = Fuel(p.fuel if fuel is None else fuel)
    return _reduce(p, [(Coefficient.one(p.context), word)], budget)


def product(p: Presentation, a: Element, b: Element, fuel: Fuel) -> Element:
    """Reduce every concatenation of a term of a with a term of b, drawing
    on the caller's budget.  A term pair whose letters add up past
    MAX_WORD_LETTERS is refused before any letter is built; a pair that meets
    no tail is multiplied in closed form."""
    if any(len(exp) != p.ngens for x in (a, b) for exp in x.terms):
        raise PresentationError("element width does not match presentation")
    right = [(cb, *_checked(p, enumerate(eb))) for eb, cb in b.terms.items()]
    longest = max([k for *_, k in right], default=0)
    seeds = []
    for ea, ca in a.terms.items():
        wa, count = _checked(p, enumerate(ea))
        if count + longest > MAX_WORD_LETTERS:
            raise _too_long(count + longest)
        seeds += [(ca * cb, wa + wb) for cb, wb, _ in right]
    return _reduce(p, seeds, fuel)


def multiply(p: Presentation, a: Element, b: Element,
             fuel: int | None = None) -> Element:
    """Product of two normal-form elements, again in normal form."""
    return product(p, a, b, Fuel(p.fuel if fuel is None else fuel))


# -- element constructors ----------------------------------------------------


def monomial(p: Presentation, exponents, coeff: Coefficient | None = None) -> Element:
    exp = tuple(map(index, exponents))
    if len(exp) != p.ngens:
        raise PresentationError("exponent width does not match presentation")
    for i, e in enumerate(exp):
        if e < 0 and not p.invertible[i]:
            raise NegativeExponent(f"negative power of {p.generators[i]}")
    if coeff is None:
        coeff = Coefficient.one(p.context)
    return Element({exp: coeff})


def gen(p: Presentation, i) -> Element:
    exp = [0] * p.ngens
    exp[p.gen_index(i)] = 1
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


def diamond_check(p: Presentation) -> list[OverlapReport]:
    """Resolve every overlap x_k x_j x_i by both critical reduction orders,
    seeding each side with the words its forced first rewrite leaves: the top
    swap_kj x_j x_k x_i and c t x_i per tail term c t of (k, j), the bottom
    swap_ji x_k x_i x_j and c x_k t per tail term of (j, i)."""
    swaps = {pair: rule.swap.to_coefficient(p.context) for pair, rule in p.rules.items()}
    c = p._factors
    reports = []
    for i, j, k in itertools.combinations(range(p.ngens), 3):
        x_i, x_j, x_k = (i, 1), (j, 1), (k, 1)
        top = [(swaps[k, j], [x_j, x_k, x_i])] + [
            (c[f], [(g, 1) for g in t] + [x_i]) for f, t in p._moves[k][j][2]]
        bot = [(swaps[j, i], [x_k, x_i, x_j])] + [
            (c[f], [x_k] + [(g, 1) for g in t]) for f, t in p._moves[j][i][2]]
        budget = Fuel(p.fuel)  # one per overlap, the top side drawing first
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
