"""Answer oracles that share no code path with the timed library calls.

`Reducer` computes normal forms rightmost-first: a word is folded letter by
letter, and each step multiplies an ordered monomial on the right by one
generator, with the results memoised per reducer.  The engine under test
rewrites the leftmost descending pair of a flat word instead, so agreement
of the two is evidence of a correct answer on a confluent presentation.
`reduce_rightmost` is the plain unmemoised form of the same strategy, used
by the self-test to validate `Reducer` on short words.

`central_in_box` and `kernel_rank` decide stratum centers from the swap
exponents of the ambient presentation, without the engine or the lattice
module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class OracleError(Exception):
    """The oracle cannot decide the case (cycling rules, unsupported input)."""


def _add(out: dict, key, c) -> None:
    prev = out.get(key)
    total = c if prev is None else prev + c
    if total:
        out[key] = total
    elif key in out:
        del out[key]


class Reducer:
    """Memoised rightmost-first normal forms for a polynomial-kind presentation."""

    def __init__(self, p):
        if any(p.invertible):
            raise OracleError("the oracle handles polynomial-kind generators only")
        self.p = p
        self.n = p.ngens
        self.one = None
        self._memo: dict = {}
        self._open: set = set()

    def _unit(self):
        if self.one is None:
            from strata_lab.coeff import Coefficient
            self.one = Coefficient.one(self.p.context)
        return self.one

    def times_gen(self, mono: tuple, i: int) -> dict:
        """Normal form of (ordered monomial) * x_i as {exponents: Coefficient}."""
        key = (mono, i)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        rules = self.p.rules
        above = [j for j in range(i + 1, self.n) if mono[j]]
        grown = list(mono)
        grown[i] += 1
        grown = tuple(grown)
        if all(not rules[(j, i)].tail for j in above):
            c = self._unit()
            for j in above:
                c = c.scale_unit(rules[(j, i)].swap, mono[j])
            out = {grown: c}
        else:
            if key in self._open:
                raise OracleError(f"rules cycle at monomial {mono} times generator {i}")
            self._open.add(key)
            top = above[-1]
            rule = rules[(top, i)]
            lower = list(mono)
            lower[top] -= 1
            lower = tuple(lower)
            out = {}
            for m1, c1 in self.times_gen(lower, i).items():
                c1 = c1.scale_unit(rule.swap)
                for m2, c2 in self.times_gen(m1, top).items():
                    _add(out, m2, c1 * c2)
            for texp, tc in rule.tail.terms.items():
                for m1, c1 in self.times_monomial(lower, texp).items():
                    _add(out, m1, tc * c1)
            self._open.discard(key)
        self._memo[key] = out
        return out

    def times_monomial(self, mono: tuple, exps) -> dict:
        """Normal form of (ordered monomial) * (ordered monomial)."""
        acc = {mono: self._unit()}
        for i, e in enumerate(exps):
            for _ in range(e):
                acc = self._times_letter(acc, i)
        return acc

    def _times_letter(self, acc: dict, i: int) -> dict:
        out: dict = {}
        for m, c in acc.items():
            for m2, c2 in self.times_gen(m, i).items():
                _add(out, m2, c * c2)
        return out

    def word(self, letters, scalar=None) -> dict:
        """Normal form of a word given as (generator index, positive exponent) pairs."""
        acc = {(0,) * self.n: scalar if scalar is not None else self._unit()}
        for i, e in letters:
            if e < 0:
                raise OracleError("negative exponents are not supported")
            for _ in range(e):
                acc = self._times_letter(acc, i)
        return {m: c for m, c in acc.items() if c}

    def product(self, a: dict, b: dict) -> dict:
        """Normal form of the product of two normal-form term maps."""
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                for m, c in self.times_monomial(ma, mb).items():
                    _add(out, m, ca * cb * c)
        return out


def reduce_rightmost(p, letters, coeff) -> dict:
    """Unmemoised reference: rewrite the rightmost descending adjacent pair first."""
    out: dict = {}
    stack = [(coeff, tuple(letters))]
    while stack:
        c, w = stack.pop()
        if not c:
            continue
        k = -1
        for t in range(len(w) - 2, -1, -1):
            if w[t] > w[t + 1]:
                k = t
                break
        if k < 0:
            exps = [0] * p.ngens
            for idx in w:
                exps[idx] += 1
            _add(out, tuple(exps), c)
            continue
        g, h = w[k], w[k + 1]
        rule = p.rules[(g, h)]
        head, rest = w[:k], w[k + 2:]
        stack.append((c.scale_unit(rule.swap), head + (h, g) + rest))
        for texp, tc in rule.tail.terms.items():
            mid = tuple(i for i, e in enumerate(texp) for _ in range(e))
            stack.append((c * tc, head + mid + rest))
    return out


# -- stratum centers ------------------------------------------------------------


def _commutation_columns(p, survivors):
    """Per surviving generator, the stacked swap exponents against every survivor.

    x^v is central in the localized quotient exactly when, for every survivor g,
    sum over survivors i of v_i * e(i, g) vanishes, where x_i x_g = q^e(i,g) x_g x_i.
    """
    cols = []
    for i in survivors:
        vec = []
        for g in survivors:
            if i > g:
                vec.extend(p.rules[(i, g)].swap.exponents)
            elif i < g:
                vec.extend(-e for e in p.rules[(g, i)].swap.exponents)
            else:
                vec.extend(0 for _ in p.context.symbols)
        cols.append(vec)
    return cols


def _weight(cols, v) -> list[int]:
    total = [0] * len(cols[0])
    for vi, col in zip(v, cols):
        if vi:
            for t, x in enumerate(col):
                total[t] += vi * x
    return total


def _survivors(p, members) -> list[int]:
    return [i for i in range(p.ngens) if (i + 1) not in members]


def is_central(p, members, v) -> bool:
    """Whether x^v is central in the torus of the stratum of the given stable prime."""
    cols = _commutation_columns(p, _survivors(p, members))
    return not cols or not any(_weight(cols, v))


def central_in_box(p, members, box: int) -> list[tuple[int, ...]]:
    """Exponent vectors in [-box, box]^k of central monomials of the stratum torus."""
    cols = _commutation_columns(p, _survivors(p, members))
    if not cols:
        return [()]
    return sorted(v for v in itertools.product(range(-box, box + 1), repeat=len(cols))
                  if not any(_weight(cols, v)))


def kernel_rank(p, members) -> int:
    """Rank of the center lattice: nullity of the commutation exponent map, over Q."""
    cols = _commutation_columns(p, _survivors(p, members))
    if not cols:
        return 0
    rows = [[Fraction(cols[c][r]) for c in range(len(cols))] for r in range(len(cols[0]))]
    return len(cols) - _rank(rows)


def _rank(rows) -> int:
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def in_integer_span(basis, v) -> bool:
    """Whether v is an integer combination of linearly independent basis vectors."""
    if not basis:
        return not any(v)
    k = len(basis)
    # Solve sum_j a_j basis_j = v over Q, then require integral a and exact fit.
    rows = [[Fraction(basis[j][t]) for j in range(k)] + [Fraction(v[t])]
            for t in range(len(v))]
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            return False
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] for i in range(r, len(rows))):
        return False
    return all(rows[i][k].denominator == 1 for i in range(r))
