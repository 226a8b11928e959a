"""Exact coefficient arithmetic.

Coefficients are Laurent polynomials with arbitrary-precision integer
coefficients in a fixed, ordered list of parameter symbols.  Division is
supported only by unit monomials (single terms with integer part +1 or -1),
which is all the rewriting rules ever need.

All values are immutable and all operations pure, so they are safe to share
across threads without coordination.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Mapping


class CoeffError(Exception):
    """Base class for coefficient errors."""


class ContextMismatch(CoeffError):
    """Operands live over different parameter contexts."""


class NonUnitDivision(CoeffError):
    """Inversion requested of a coefficient that is not a unit monomial."""


class SpecializationError(CoeffError):
    """Bad assignment passed to specialize()."""


class TooManyDigits(CoeffError):
    """An integer longer than the interpreter prints (sys.get_int_max_str_digits)."""

    def __init__(self, what: str = "coefficient"):
        super().__init__(f"{what} has more than {max_digits()} digits, "
                         "the limit for printing an integer")


# The most digits str() prints; 0, no limit, before Python 3.10.7.
max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def number_text(value: int | Fraction) -> str:
    """str(value), or TooManyDigits when an integer in it is too long to print."""
    try:
        return str(value)
    except ValueError as exc:
        raise TooManyDigits() from exc


def check_power_digits(base: int, k: int) -> None:
    """TooManyDigits when abs(base) ** k, k >= 0, is too long to print, estimated
    from bit lengths and rounded down, so a printable power is never refused."""
    limit = max_digits()
    if limit and k * (abs(base).bit_length() - 1) * 30102 >= limit * 100000:
        raise TooManyDigits()


def sum_text(terms: Mapping[tuple[int, ...], int], names) -> str:
    """Terms, exponent tuple -> nonzero int over names, as a sum the DSL parses,
    in ascending exponent order: "1 - 7*q^-1 + q*x^2", or "0" for no terms."""
    parts = []
    for exp in sorted(terms):
        c = terms[exp]
        factors = [] if c in (1, -1) else [number_text(abs(c))]
        for name, e in zip(names, exp):
            if e:
                factors.append(name if e == 1 else f"{name}^{number_text(e)}")
        text = "*".join(factors) or "1"
        if parts:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
        else:
            parts.append(text if c > 0 else f"-{text}")
    return " ".join(parts) if parts else "0"


def add_terms(out: dict, terms) -> dict:
    """Add terms, a dict or (exponents, value) pairs, into out and return it:
    values at equal exponent tuples sum, and a zero sum or value is dropped."""
    for exp, c in terms.items() if isinstance(terms, dict) else terms:
        if c:
            exp = tuple(exp)
            c0 = out.get(exp)
            if c0 is None:
                out[exp] = c
            elif c0 := c0 + c:
                out[exp] = c0
            else:
                del out[exp]
    return out


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParamContext:
    """Immutable ordered list of parameter symbols.

    Exponent vectors index into the symbol list, so the order is fixed for
    the lifetime of every value built over the context.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str] = ()):
        syms = tuple(symbols)
        for name in syms:
            if not _NAME.match(name):
                raise ValueError(f"bad parameter name {name!r}")
        if len(set(syms)) != len(syms):
            raise ValueError("duplicate parameter names")
        self.symbols = syms
        self._index = {name: k for k, name in enumerate(syms)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamContext) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)


@dataclass(frozen=True)
class UnitMonomial:
    """An invertible coefficient: sign times a monomial in the parameters."""

    sign: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "exponents", tuple(self.exponents))

    def to_coefficient(self, context: ParamContext) -> "Coefficient":
        if len(self.exponents) != len(context):
            raise ContextMismatch("unit monomial width does not match context")
        return Coefficient(context, {self.exponents: self.sign})


class Coefficient:
    """Sparse Laurent polynomial: exponent tuple -> nonzero integer.

    The term map is canonical, so equality of coefficients is equality of
    the maps and the zero coefficient is the empty map.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: ParamContext, terms=None):
        self.context = context
        self.terms = add_terms({}, terms) if terms else {}
        width = len(context)
        for exp in self.terms:  # a dict's keys never cancel, so this sees all of them
            if len(exp) != width:
                raise ValueError("exponent width does not match context")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(context: ParamContext) -> "Coefficient":
        return Coefficient(context)

    @staticmethod
    def one(context: ParamContext) -> "Coefficient":
        return Coefficient(context, {(0,) * len(context): 1})

    @staticmethod
    def integer(context: ParamContext, n: int) -> "Coefficient":
        return Coefficient(context, {(0,) * len(context): n})

    @staticmethod
    def symbol(context: ParamContext, name: str, power: int = 1) -> "Coefficient":
        exp = [0] * len(context)
        exp[context.index(name)] = power
        return Coefficient(context, {tuple(exp): 1})

    @staticmethod
    def monomial(context: ParamContext, coeff: int, exponents) -> "Coefficient":
        return Coefficient(context, {tuple(exponents): coeff})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Coefficient":
        if isinstance(other, int):
            return Coefficient.integer(self.context, other)
        if isinstance(other, Coefficient):
            if other.context != self.context:
                raise ContextMismatch("coefficients over different contexts")
            return other
        raise TypeError(f"cannot combine Coefficient with {type(other).__name__}")

    def __add__(self, other) -> "Coefficient":
        res = Coefficient.__new__(Coefficient)
        res.context = self.context
        res.terms = add_terms(dict(self.terms), self._coerce(other).terms)
        return res

    __radd__ = __add__

    def __neg__(self) -> "Coefficient":
        res = Coefficient.__new__(Coefficient)
        res.context = self.context
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "Coefficient":
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other) -> "Coefficient":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Coefficient":
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                c0 = out.get(exp, 0) + c1 * c2
                if c0:
                    out[exp] = c0
                else:  # out held -c1*c2: every stored term is nonzero
                    del out[exp]
        res = Coefficient.__new__(Coefficient)
        res.context, res.terms = self.context, out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Coefficient":
        if k < 0:
            return self.invert_unit() ** (-k)
        if len(self.terms) == 1:  # a monomial is raised termwise
            (exp, c), = self.terms.items()
            return Coefficient.monomial(self.context, c ** k, (e * k for e in exp))
        res = Coefficient.one(self.context)
        base = self
        while k:
            if k & 1:
                res = res * base
            base = base * base if k > 1 else base
            k >>= 1
        return res

    def scale_unit(self, unit: UnitMonomial, power: int = 1) -> "Coefficient":
        """Multiply by unit**power without the general product; the reference
        oracles use it, the rewriting engine does not."""
        shift = tuple(e * power for e in unit.exponents)
        sign = unit.sign if power % 2 else 1
        res = Coefficient.__new__(Coefficient)
        res.context = self.context
        res.terms = {tuple(map(add, e, shift)): sign * c
                     for e, c in self.terms.items()}
        return res

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Coefficient.integer(self.context, other)
        return (isinstance(other, Coefficient) and self.context == other.context
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.context, frozenset(self.terms.items())))

    def is_unit(self) -> bool:
        if len(self.terms) != 1:
            return False
        return next(iter(self.terms.values())) in (1, -1)

    def as_unit(self) -> UnitMonomial:
        if len(self.terms) != 1:
            raise NonUnitDivision(f"{self} has {len(self.terms)} terms, not 1")
        exp, c = next(iter(self.terms.items()))
        if c not in (1, -1):
            raise NonUnitDivision(f"integer part {c} is not +1 or -1")
        return UnitMonomial(c, exp)

    def invert_unit(self) -> "Coefficient":
        unit = self.as_unit()
        return Coefficient(self.context, {tuple(map(neg, unit.exponents)): unit.sign})

    def leading_term_ratio(self, other: "Coefficient") -> "Coefficient | None":
        """Single-term candidate r with self == r * other, or None.

        Compares the lexicographically largest terms of both operands;
        correct whenever such a single-term ratio exists at all.
        """
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return None
        ea = max(self.terms)
        eb = max(other.terms)
        ca, cb = self.terms[ea], other.terms[eb]
        if ca % cb:
            return None
        return Coefficient.monomial(self.context, ca // cb,
                                    tuple(a - b for a, b in zip(ea, eb)))

    def specialize(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Evaluate at an exact rational point; every symbol must map to a nonzero rational.
        A power too long to print is refused first, even where others cancel it."""
        values = []
        for name in self.context.symbols:
            if name not in assignment:
                raise SpecializationError(f"no value for symbol {name!r}")
            v = Fraction(assignment[name])
            if v == 0:
                raise SpecializationError(f"symbol {name!r} assigned zero; symbols are invertible")
            values.append(v)
        for v, column in zip(values, zip(*self.terms)):  # the largest power of each
            top = max(map(abs, column))
            check_power_digits(v.numerator, top)
            check_power_digits(v.denominator, top)
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = Fraction(c)
            for v, e in zip(values, exp):
                term *= v ** e
            total += term
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return sum_text(self.terms, self.context.symbols)

    def __repr__(self) -> str:
        return f"Coefficient({self})"
