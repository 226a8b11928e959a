"""Presentation DSL: parsing, expression evaluation, and printing, whose text
is returned only after parsing reads it back as the presentation it printed.

Line-oriented source files describe either one explicit presentation

    algebra quantum_plane
    params q_1_2
    generators x1 x2
    rules
    x2 * x1 = q_1_2^-1 * x1 * x2
    weights
    x1 = (1, 0)
    x2 = (0, 1)

or one zoo invocation such as ``use quantum_affine(n=2)``.  Expressions use
integer literals, parameter symbols, generators, ``*``, ``+``, ``-``, ``^``
with integer exponents, and parentheses.  '#' starts a comment.

Tokens are read by one regular expression.  An integer literal is a run of
Unicode decimal digits (str.isdecimal); a name is a Unicode letter or '_'
followed by letters, digits and '_' (str.isalnum); spaces, tabs, carriage
returns and comments lie between tokens, and any other character is an error
at its line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import zoo
from .coeff import (Coefficient, NonUnitDivision, ParamContext, check_power_digits,
                    max_digits, sum_text)
from .pbw import (Element, EngineError, Fuel, NegativeExponent, Presentation,
                  PresentationError, Rule, product)


# Largest product of the size literals of a `use` line.  The generic families
# get one symbol per generator pair, so parse time grows about as the fifth
# power of the size; at 32 the largest family parses in a fraction of a second.
MAX_ZOO_SIZE = 32


class DslError(Exception):
    """Parse or semantic error with source location."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str          # NAME, INT, OP, NEWLINE, EOF
    value: str
    line: int
    col: int


# One alternative per token kind; spaces, tabs, carriage returns and comments
# match with no group and are dropped.  \d is str.isdecimal and \w is
# str.isalnum() or "_", so a \w run may start with a digit that is not decimal,
# such as U+00B2 (superscript two): tokenize checks a name's first character.
_TOKEN = re.compile(r"[ \t\r]+|#[^\n]*|(?P<NEWLINE>\n)|(?P<INT>\d+)|(?P<NAME>\w+)"
                    r"|(?P<OP>[-*+=^(),])")


def tokenize(text: str) -> list[Token]:
    """Tokens of a source text; an integer literal is decimal digits, no more
    of them than int() converts, and a name starts with a letter or '_'."""
    limit = max_digits()  # int() converts as many digits as str() prints
    toks: list[Token] = []
    line, bol, pos = 1, 0, 0  # bol: where the current line begins
    for m in _TOKEN.finditer(text):
        kind, value, at = m.lastgroup, m.group(), m.start()
        if at != pos or kind == "NAME" and not (value[0].isalpha() or value[0] == "_"):
            break  # text[pos] starts no token
        pos = m.end()
        if kind == "INT" and 0 < limit < len(value):
            raise DslError(f"integer literal has {len(value)} digits, above the limit "
                           f"{limit}", line, at - bol + 1)
        if kind:
            toks.append(Token(kind, value, line, at - bol + 1))
        if kind == "NEWLINE":
            line, bol = line + 1, pos
    if pos < len(text):
        raise DslError(f"unexpected character {text[pos]!r}", line, pos - bol + 1)
    toks.append(Token("EOF", "", line, pos - bol + 1))
    return toks


class _Stream:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def accept(self, kind: str, values=None) -> Token | None:
        """The next token, taken, if it is of this kind and its value is in
        values (a tuple, or a string of one-character operators; any value if
        None); None otherwise."""
        t = self.toks[self.i]
        if t.kind == kind and (values is None or t.value in values):
            return self.next()
        return None

    def skip_newlines(self):
        while self.accept("NEWLINE"):
            pass

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise DslError(f"expected {want!r}, found {t.value!r}", t.line, t.col)
        return self.next()

    def at_line_end(self) -> bool:
        return self.peek().kind in ("NEWLINE", "EOF")

    def signed_int(self) -> int:
        sign = self.accept("OP", "+-")
        value = int(self.expect("INT").value)
        return -value if sign and sign.value == "-" else value


# -- expressions ------------------------------------------------------------
#
# The parser evaluates as it reads: every value is an Element over the
# generators it was given, and `*` and `^` multiply with the product it was
# given, so parentheses fix the order of multiplication.


class _ExprParser:
    def __init__(self, stream: _Stream, context: ParamContext, generators,
                 invertible, product):
        self.s = stream
        self.ctx = context
        self.gens = {g: i for i, g in enumerate(generators)}
        self.invertible = invertible
        self.product = product

    def _scalar(self, c: Coefficient) -> Element:
        return Element({(0,) * len(self.gens): c})

    def expr(self) -> Element:
        total = -self._product() if self.s.accept("OP", "-") else self._product()
        while t := self.s.accept("OP", "+-"):
            rhs = self._product()
            total = total + rhs if t.value == "+" else total - rhs
        return total

    def _product(self) -> Element:
        value = self._factor()
        while self.s.accept("OP", "*"):
            value = self.product(value, self._factor())
        return value

    def _factor(self) -> Element:
        if self.s.accept("OP", "-"):
            return -self._factor()
        t = self.s.next()
        if t.kind == "INT":
            k = self._exponent()
            value = int(t.value)
            if k is not None and k < 0 and value not in (1, -1):
                raise DslError(f"cannot invert the integer {value}", t.line, t.col)
            return self._power(self._scalar(Coefficient.integer(self.ctx, value)), k)
        if t.kind == "NAME":
            k = self._exponent()
            if t.value in self.gens:
                idx = self.gens[t.value]
                if k is not None and k < 0 and not self.invertible[idx]:
                    raise NegativeExponent(
                        f"negative power of non-invertible generator {t.value}")
                exp = [0] * len(self.gens)
                exp[idx] = 1
                return self._power(Element({tuple(exp): Coefficient.one(self.ctx)}), k)
            if t.value in self.ctx:
                return self._power(self._scalar(Coefficient.symbol(self.ctx, t.value)), k)
            raise DslError(f"unknown symbol {t.value!r}", t.line, t.col)
        if t.kind == "OP" and t.value == "(":
            inner = self.expr()
            self.s.expect("OP", ")")
            k = self._exponent()
            if k is not None and k < 0:
                raise DslError("cannot invert a parenthesized expression", t.line, t.col)
            return self._power(inner, k)
        raise DslError(f"unexpected token {t.value!r}", t.line, t.col)

    def _power(self, base: Element, k: int | None) -> Element:
        """base^k, k negative only for a unit scalar or an invertible generator.
        Zero or one term in at most one generator, such as 1+q, x1 or 2*x1^2, is
        raised termwise, refused first if a single-term coefficient's integer part
        is too long to print; no rule applies to a power of one generator.
        Anything else is multiplied k times, left to right, as if written out."""
        if k is None:
            return base
        terms = base.terms or {(0,) * len(self.gens): Coefficient.zero(self.ctx)}
        if len(terms) == 1:
            (exp, c), = terms.items()
            if sum(map(bool, exp)) <= 1:
                if len(c.terms) == 1:
                    check_power_digits(next(iter(c.terms.values())), abs(k))
                return Element({tuple(e * k for e in exp): c ** k})
        value = self._scalar(Coefficient.one(self.ctx))
        for _ in range(k):
            value = self.product(value, base)
        return value

    def _exponent(self) -> int | None:
        return self.s.signed_int() if self.s.accept("OP", "^") else None


def _ordered_product(a: Element, b: Element) -> Element:
    """Product without rules: every concatenation of a term of a with a term
    of b must already be in ascending generator order."""
    terms = []
    for ea, ca in a.terms.items():
        top = max((i for i, e in enumerate(ea) if e), default=0)
        for eb, cb in b.terms.items():
            if any(eb[:top]):
                raise PresentationError("rule right-hand side must be in normal form "
                                        "(ascending generator order)")
            terms.append((tuple(x + y for x, y in zip(ea, eb)), ca * cb))
    return Element(terms)


def evaluate_expression(p: Presentation, text: str) -> Element:
    """Parse an expression over a presentation and reduce it to normal form.

    The whole expression is one engine call: its products share one budget
    of p.fuel rewrites."""
    budget = Fuel(p.fuel)
    stream = _Stream(tokenize(text))
    stream.skip_newlines()
    value = _ExprParser(stream, p.context, p.generators, p.invertible,
                        lambda a, b: product(p, a, b, budget)).expr()
    stream.skip_newlines()
    t = stream.peek()
    if t.kind != "EOF":
        raise DslError(f"trailing input {t.value!r}", t.line, t.col)
    return value


# -- presentation files -------------------------------------------------------


_SECTIONS = ("params", "generators", "rules", "weights")


def parse(source: str) -> Presentation:
    """Parse a source file: either one zoo invocation or one explicit presentation."""
    stream = _Stream(tokenize(source))
    stream.skip_newlines()
    if stream.accept("NAME", ("use",)):
        return _parse_zoo_call(stream)
    return _parse_presentation(stream)


def _parse_zoo_call(stream: _Stream) -> Presentation:
    """``use family(key=value, ...)``, checked against zoo.FAMILIES: each size
    keyword is an integer literal, the sizes multiply to at most MAX_ZOO_SIZE,
    and single_param is true or false on a family that has a single-parameter
    variant."""
    fam = stream.expect("NAME")
    if fam.value not in zoo.FAMILIES:
        raise DslError(f"unknown algebra family {fam.value!r}", fam.line, fam.col)
    sizes, generic, single = zoo.FAMILIES[fam.value]
    stream.expect("OP", "(")
    kwargs: dict[str, object] = {}
    volume = 1
    while not stream.accept("OP", ")"):
        if kwargs:
            stream.expect("OP", ",")
        key = stream.expect("NAME")
        stream.expect("OP", "=")
        v = stream.next()
        if key.value in kwargs:
            raise DslError(f"repeated parameter {key.value!r}", key.line, key.col)
        if key.value in sizes:
            if v.kind != "INT":
                raise DslError(f"{key.value} must be an integer literal, found {v.value!r}",
                               v.line, v.col)
            kwargs[key.value] = size = int(v.value)
            volume *= max(size, 1)  # a zero size must not hide a large one
            if volume > MAX_ZOO_SIZE:
                raise DslError(f"{fam.value} sizes multiply to {volume}, "
                               f"above the limit {MAX_ZOO_SIZE}", v.line, v.col)
        elif key.value == "single_param":
            if single is None:
                raise DslError(f"{fam.value} has no single-parameter variant",
                               key.line, key.col)
            if v.kind != "NAME" or v.value not in ("true", "false"):
                raise DslError(f"single_param must be true or false, found {v.value!r}",
                               v.line, v.col)
            kwargs[key.value] = v.value == "true"
        else:
            raise DslError(f"unknown parameter {key.value!r} for {fam.value}",
                           key.line, key.col)
    stream.skip_newlines()
    stream.expect("EOF")
    for size in sizes:
        if size not in kwargs:
            raise DslError(f"{fam.value} needs {size}=<int>", fam.line, fam.col)
    build = single if kwargs.pop("single_param", False) else generic
    return build(**kwargs)  # no size the checks above pass makes a family refuse


def _parse_presentation(stream: _Stream) -> Presentation:
    stream.expect("NAME", "algebra")
    name = stream.expect("NAME").value
    stream.skip_newlines()

    params: list[str] = []
    head = stream.peek()
    if stream.accept("NAME", ("params",)):
        while not stream.at_line_end():
            params.append(stream.expect("NAME").value)
        stream.skip_newlines()
    try:
        context = ParamContext(params)
    except ValueError as exc:  # a repeated name, or one outside [A-Za-z_][A-Za-z0-9_]*
        raise DslError(str(exc), head.line, head.col) from exc

    gen_toks: list[Token] = []
    invertible = False
    if stream.accept("NAME", ("generators",)):
        while not stream.at_line_end():
            gen_toks.append(stream.expect("NAME"))
        if gen_toks and gen_toks[-1].value == "invertible":
            gen_toks.pop()
            invertible = True
        stream.skip_newlines()
    gen_index: dict[str, int] = {}
    for t in gen_toks:
        if t.value in _SECTIONS or t.value in context:
            raise DslError(f"generator name {t.value!r} clashes with a keyword or parameter",
                           t.line, t.col)
        if t.value in gen_index:
            raise DslError(f"duplicate generator name {t.value!r}", t.line, t.col)
        gen_index[t.value] = len(gen_index)
    gens = list(gen_index)
    n = len(gens)

    raw_rules: dict[tuple[int, int], tuple[Element, Token]] = {}
    if stream.accept("NAME", ("rules",)):
        stream.skip_newlines()
        while stream.peek().kind == "NAME" and stream.peek().value not in _SECTIONS:
            lhs_tok = stream.next()
            a = lhs_tok.value
            stream.expect("OP", "*")
            b = stream.expect("NAME").value
            stream.expect("OP", "=")
            if a not in gen_index or b not in gen_index:
                raise DslError(f"rule over unknown generators {a!r}, {b!r}",
                               lhs_tok.line, lhs_tok.col)
            hi, lo = gen_index[a], gen_index[b]
            if hi <= lo:
                raise DslError("rules must rewrite a descending product",
                               lhs_tok.line, lhs_tok.col)
            if (hi, lo) in raw_rules:
                raise DslError(f"duplicate rule for pair ({a}, {b})",
                               lhs_tok.line, lhs_tok.col)
            try:
                element = _ExprParser(stream, context, gens, (invertible,) * n,
                                      _ordered_product).expr()
            except (PresentationError, NegativeExponent) as exc:
                raise DslError(str(exc), lhs_tok.line, lhs_tok.col) from exc
            if not stream.at_line_end():
                t = stream.peek()
                raise DslError(f"trailing input {t.value!r}", t.line, t.col)
            raw_rules[(hi, lo)] = (element, lhs_tok)
            stream.skip_newlines()

    rules: dict[tuple[int, int], Rule] = {}
    for (hi, lo), (element, tok) in raw_rules.items():
        swap_exp = tuple(1 if t in (hi, lo) else 0 for t in range(n))
        swap_coeff = element.terms.get(swap_exp)
        if swap_coeff is None:
            raise DslError(f"rule for ({gens[hi]}, {gens[lo]}) has no "
                           f"{gens[lo]}*{gens[hi]} term", tok.line, tok.col)
        try:
            swap = swap_coeff.as_unit()
        except NonUnitDivision as exc:
            raise DslError(f"swap coefficient {swap_coeff} is not a unit monomial",
                           tok.line, tok.col) from exc
        tail = Element({e: c for e, c in element.terms.items() if e != swap_exp})
        rules[(hi, lo)] = Rule(swap, tail)

    weights = None
    if stream.accept("NAME", ("weights",)):
        stream.skip_newlines()
        wmap: dict[int, tuple[int, ...]] = {}
        while stream.peek().kind == "NAME" and stream.peek().value not in _SECTIONS:
            gtok = stream.expect("NAME")
            if gtok.value not in gen_index:
                raise DslError(f"weight for unknown generator {gtok.value!r}",
                               gtok.line, gtok.col)
            stream.expect("OP", "=")
            stream.expect("OP", "(")
            vec = []  # `()` is the weight in a torus of rank 0
            if not stream.accept("OP", ")"):
                vec.append(stream.signed_int())
                while stream.accept("OP", ","):
                    vec.append(stream.signed_int())
                stream.expect("OP", ")")
            if gen_index[gtok.value] in wmap:
                raise DslError(f"duplicate weight for {gtok.value!r}", gtok.line, gtok.col)
            if wmap and len(vec) != rank:
                raise DslError("weight vectors of unequal rank", gtok.line, gtok.col)
            rank = len(vec)
            wmap[gen_index[gtok.value]] = tuple(vec)
            stream.skip_newlines()
        missing_w = [t for t in gen_toks if gen_index[t.value] not in wmap]
        if missing_w:
            raise DslError(f"missing weights for {[t.value for t in missing_w]}",
                           missing_w[0].line, missing_w[0].col)
        weights = [wmap[i] for i in range(n)]

    stream.skip_newlines()
    stream.expect("EOF")
    try:
        return Presentation(context, gens, rules, weights,
                            invertible=invertible, name=name)
    except EngineError as exc:
        if exc.pair is None:
            raise
        tok = raw_rules[exc.pair][1] if exc.pair in raw_rules else gen_toks[exc.pair[0]]
        raise DslError(str(exc), tok.line, tok.col) from exc


def print_presentation(p: Presentation) -> str:
    """Render a presentation back to DSL source.  Each rule's right side is one
    flat sum over the parameters, then the generators.  The text is returned
    only if parse reads it back as p; otherwise a DslError names the algebra,
    with the parser's own located message when parse refused the text."""
    lines = [f"algebra {p.name}"]
    if p.context.symbols:
        lines.append("params " + " ".join(p.context.symbols))
    if p.ngens:
        gline = "generators " + " ".join(p.generators)
        if all(p.invertible):
            gline += " invertible"
        lines.append(gline)
    if p.ngens >= 2:
        lines.append("rules")
        names = p.context.symbols + p.generators
        for (j, i), rule in sorted(p.rules.items()):
            swap_exp = tuple(1 if t in (i, j) else 0 for t in range(p.ngens))
            rhs = {e + exp: k for exp, c in rule.tail.terms.items() for e, k in c.terms.items()}
            rhs[rule.swap.exponents + swap_exp] = rule.swap.sign
            lines.append(f"{p.generators[j]} * {p.generators[i]} = {sum_text(rhs, names)}")
    if p.ngens:
        lines.append("weights")
        for g, w in zip(p.generators, p.weights):
            lines.append(f"{g} = ({', '.join(str(x) for x in w)})")
    text = "\n".join(lines) + "\n"
    try:
        if parse(text) == p:
            return text
        reason = "the DSL reads the text back as another presentation"
    except DslError as exc:
        reason = str(exc)
    raise DslError(f"algebra {p.name!r} cannot be printed: {reason}")
