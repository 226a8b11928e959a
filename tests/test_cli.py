import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from strata_lab import cli, dsl, lattice, pbw, strat, zoo
from strata_lab.cli import run
from strata_lab.coeff import Coefficient
from strata_lab.dsl import DslError, evaluate_expression, parse, print_presentation
from strata_lab.pbw import Element, FuelExhausted, monomial, normal_form

import oracles


PLANE_FILE = """\
algebra plane
params q
generators x1 x2
rules
x2 * x1 = q^-1 * x1 * x2
weights
x1 = (1, 0)
x2 = (0, 1)
"""


def write(tmp_path, text, name="alg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_of(out):
    return json.loads(out)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- parsing -------------------------------------------------------------------


def test_parse_zoo_call():
    p = parse("use quantum_affine(n=2)\n")
    assert p == zoo.quantum_affine_generic(2)
    assert p.context.symbols == ("q_1_2",)


_RULES = "algebra a\ngenerators x y\nrules\n"


@pytest.mark.parametrize("source,message", [
    ("use quantum_sphere(n=2)", "line 1, col 5: unknown algebra family 'quantum_sphere'"),
    ("use quantum_matrices(m=2)", "line 1, col 5: quantum_matrices needs n=<int>"),
    ("use quantum_affine()", "line 1, col 5: quantum_affine needs n=<int>"),
    ("use quantum_affine(n=2, k=3)", "line 1, col 25: unknown parameter 'k' for quantum_affine"),
    ("use quantum_affine(n=2, n=3)", "line 1, col 25: repeated parameter 'n'"),
    ("use quantum_affine(n=true)", "line 1, col 22: n must be an integer literal, found 'true'"),
    ("use quantum_affine(n=two)", "line 1, col 22: n must be an integer literal, found 'two'"),
    ("use quantum_affine(n=2, single_param=no)",
     "line 1, col 38: single_param must be true or false, found 'no'"),
    ("use quantum_torus(n=2, single_param=1)",
     "line 1, col 37: single_param must be true or false, found '1'"),
    ("use quantized_weyl(n=1, single_param=true)",
     "line 1, col 25: quantized_weyl has no single-parameter variant"),
    ("use quantum_symplectic(n=1, single_param=true)",
     "line 1, col 29: quantum_symplectic has no single-parameter variant"),
    ("use quantum_euclidean(n=2, single_param=true)",
     "line 1, col 28: quantum_euclidean has no single-parameter variant"),
    ("use quantum_affine(n=33)",
     "line 1, col 22: quantum_affine sizes multiply to 33, above the limit 32"),
    ("use quantum_matrices(m=8, n=5)",
     "line 1, col 29: quantum_matrices sizes multiply to 40, above the limit 32"),
    ("use quantum_matrices(m=0, n=1000)",
     "line 1, col 29: quantum_matrices sizes multiply to 1000, above the limit 32"),
    ("use quantum_affine(n=2 # size", "line 1, col 30: expected ',', found '\\n'"),
    ("use quantum_affine(n=2 m=3)", "line 1, col 24: expected ',', found 'm'"),
    # explicit presentations: every error of the generators, rules and weights sections
    ("algebra a\ngenerators x x", "line 2, col 14: duplicate generator name 'x'"),
    ("algebra a\ngenerators x y x\nrules\ny * x = x * y",
     "line 2, col 16: duplicate generator name 'x'"),
    ("algebra a\nparams q\ngenerators x q",
     "line 3, col 14: generator name 'q' clashes with a keyword or parameter"),
    (_RULES + "y * x = 2^-1 * x * y", "line 4, col 9: cannot invert the integer 2"),
    (_RULES + "y * x = (x + y)^-1", "line 4, col 9: cannot invert a parenthesized expression"),
    (_RULES + "y * x = x * y y", "line 4, col 15: trailing input 'y'"),
    (_RULES + "y * x = x * y +", "line 4, col 16: unexpected token '\\n'"),
    (_RULES + "z * x = x * z", "line 4, col 1: rule over unknown generators 'z', 'x'"),
    (_RULES + "x * y = y * x", "line 4, col 1: rules must rewrite a descending product"),
    (_RULES + "y * x = x * y\ny * x = x * y", "line 5, col 1: duplicate rule for pair (y, x)"),
    (_RULES + "y * x = x", "line 4, col 1: rule for (y, x) has no x*y term"),
    (_RULES + "y * x = x * y\nweights\nz = (1)",
     "line 6, col 1: weight for unknown generator 'z'"),
    (_RULES + "y * x = x * y\nweights\nx = (1, 0)\nx = (1, 0)",
     "line 7, col 1: duplicate weight for 'x'"),
    (_RULES + "y * x = x * y\nweights\nx = (1, 0)",
     "line 2, col 14: missing weights for ['y']"),
    (_RULES + "y * x = x * y\nweights\nx = (1, 0)\ny = (1)",
     "line 7, col 1: weight vectors of unequal rank"),
    (_RULES + "y * x = x * y\nweights\nx = (1 2)\ny = (1, 0)",
     "line 6, col 8: expected ')', found '2'"),
    (_RULES + "y * x = x * y\nweights\nx = (1,)\ny = (1)",
     "line 6, col 8: expected 'INT', found ')'"),
    ("algebra a\ngenerators x y\nweights\nx = (1)\ny = (1)",
     "line 2, col 14: missing rule pair (y, x)"),
    ("algebra a\ngenerators x y invertible\nrules\ny * x = x * y + 1",
     "line 4, col 1: rule for (y, x) has a tail, but the generators are invertible"),
    (_RULES + "y * x = x * y + x^10000001",
     "line 4, col 1: a word of 10000001 letters is longer than the limit of 10000000 letters"),
])
def test_rejected_zoo_calls(tmp_path, capsys, source, message):
    code, out = invoke(capsys, "verify", write(tmp_path, source + "\n"))
    assert code == 2
    rep = report_of(out)
    assert rep["status"] == "error"
    assert rep["results"]["message"] == message


@pytest.mark.parametrize("expr,message", [
    ("x1^", "line 1, col 4: expected 'INT', found ''"),
    ("x1^-", "line 1, col 5: expected 'INT', found ''"),
    ("(x1", "line 1, col 4: expected ')', found ''"),
])
def test_rejected_expressions(tmp_path, capsys, expr, message):
    code, out = invoke(capsys, "nf", write(tmp_path, "use quantum_affine(n=2)\n"), expr)
    assert code == 2
    rep = report_of(out)
    assert rep["status"] == "error"
    assert rep["results"]["message"] == message


def test_tokens_follow_the_lexical_rules():
    """Random strings over letters, decimal and other digits, operators, blanks
    and characters no token takes: each token's text sits at its line and
    column and is as long as it can be, an INT is decimal digits, a NAME
    starts with a letter or '_', the gaps between tokens hold only spaces,
    tabs, carriage returns and comments, and an error names the first
    character that no token or gap covers."""
    seed = 23
    print(f"seed {seed}")
    rng = random.Random(seed)
    alphabet = "ax_Z09*+-=^(), \t\r\x0b#\n\u00b2\u00bd\u216b\u0663\u03be\u00e9."
    for _ in range(8000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        starts = [0]  # offset of each line's first character
        starts += [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        try:
            toks = dsl.tokenize(text)
        except DslError as exc:
            at = starts[exc.line - 1] + exc.col - 1
            assert str(exc) == (f"line {exc.line}, col {exc.col}: "
                                f"unexpected character {text[at]!r}"), text
            toks = dsl.tokenize(text[:at])  # all before it is covered
            bad = text[at]
            assert not (bad in " \t\r\n#*+-=^()," or bad.isdecimal() or bad.isalpha()
                        or bad == "_"), text
            assert "#" not in text[starts[exc.line - 1]:at], text
            last = toks[-2] if len(toks) > 1 else None
            if last and starts[last.line - 1] + last.col - 1 + len(last.value) == at:
                assert not (last.kind == "NAME" and bad.isalnum()), text
            continue
        pos = 0
        for t in toks:
            at = starts[t.line - 1] + t.col - 1
            head, _, _ = text[pos:at].partition("#")
            assert set(head) <= set(" \t\r"), text
            assert text[at:at + len(t.value)] == t.value, text
            pos = at + len(t.value)
            follow = text[pos:pos + 1]
            if t.kind == "INT":
                assert t.value.isdecimal() and not follow.isdecimal(), text
            elif t.kind == "NAME":
                assert t.value[0].isalpha() or t.value[0] == "_", text
                assert all(c.isalnum() or c == "_" for c in t.value), text
                assert not (follow.isalnum() or follow == "_"), text
            elif t.kind == "OP":
                assert t.value in "*+-=^(),", text
            else:
                assert (t.kind, t.value) in (("NEWLINE", "\n"), ("EOF", "")), text
        assert toks[-1].kind == "EOF" and pos == len(text), text


@pytest.mark.parametrize("sources,build", [
    (["use quantum_affine(n=3)", "use quantum_affine(n=3, single_param=false)"],
     lambda: zoo.quantum_affine_generic(3)),
    (["use quantum_affine(single_param=true, n=3)"], lambda: zoo.quantum_affine_single(3)),
    (["use quantum_torus(n=2, single_param=false)"], lambda: zoo.quantum_torus_generic(2)),
    (["use quantum_torus(n=2, single_param=true)"], lambda: zoo.quantum_torus_single(2)),
    (["use quantum_matrices(m=2, n=3)", "use quantum_matrices(n=3, m=2, single_param=false)"],
     lambda: zoo.quantum_matrices_generic(2, 3)),
    (["use quantum_matrices(m=2, n=3, single_param=true)"],
     lambda: zoo.quantum_matrices_single(2, 3)),
    (["use quantized_weyl(n=2)"], lambda: zoo.quantized_weyl_generic(2)),
    (["use quantum_symplectic(n=2)"], lambda: zoo.quantum_symplectic(2)),
    (["use quantum_euclidean( n = 3 )  # odd"], lambda: zoo.quantum_euclidean(3)),
    (["use quantum_matrices(m=4, n=8)"], lambda: zoo.quantum_matrices_generic(4, 8)),
])
def test_accepted_zoo_calls_match_the_constructors(sources, build):
    for source in sources:
        assert parse(source + "\n") == build()


@pytest.mark.parametrize("source,generators", [
    ("use quantum_affine(n=0)", 0),
    ("use quantum_affine(n=0, single_param=true)", 0),
    ("use quantum_torus(n=0)", 0),
    ("use quantum_torus(n=0, single_param=true)", 0),
    ("use quantum_matrices(m=0, n=0)", 0),
    ("use quantum_matrices(m=0, n=3)", 0),
    ("use quantum_matrices(m=2, n=0, single_param=true)", 0),
    ("use quantized_weyl(n=0)", 0),
    ("use quantum_symplectic(n=0)", 0),
    ("use quantum_euclidean(n=0)", 0),
    ("use quantum_euclidean(n=1)", 1),
])
def test_every_family_accepts_its_smallest_size(tmp_path, capsys, source, generators):
    path = write(tmp_path, source + "\n")
    code, out = invoke(capsys, "verify", path)
    assert code == 0
    assert report_of(out)["status"] == "ok"
    p = parse(source + "\n")
    assert p.ngens == generators
    printed = print_presentation(p)
    assert parse(printed) == p
    # the grading's rank is read off the weights, which printed source keeps
    printed_path = write(tmp_path, printed, "printed.txt")
    for command in ("weights", "eigencheck"):
        _, out = invoke(capsys, command, path, "0")
        _, again = invoke(capsys, command, printed_path, "0")
        assert report_of(out)["results"] == report_of(again)["results"]


def test_parse_explicit_file():
    p = parse(PLANE_FILE)
    assert p.generators == ("x1", "x2")
    q = Coefficient.symbol(p.context, "q")
    assert normal_form(p, [("x2", 1), ("x1", 1)]) == monomial(p, (1, 1), q.invert_unit())
    assert [tuple(w) for w in p.weights] == [(1, 0), (0, 1)]


def test_parse_missing_rule_pair():
    bad = "algebra a\nparams q\ngenerators x1 x2 x3\nrules\nx2 * x1 = x1 * x2\n"
    with pytest.raises(DslError, match="missing rule pair"):
        parse(bad)


def test_a_presentation_refusal_naming_no_pair_is_not_located(monkeypatch):
    # the DSL's own checks leave Presentation only refusals that name a rule
    # pair; one that names none leaves parse as it was raised
    def refuse(*args, **kwargs):
        raise pbw.PresentationError("no pair named")

    monkeypatch.setattr(dsl, "Presentation", refuse)
    with pytest.raises(pbw.PresentationError) as info:
        parse(PLANE_FILE)
    assert type(info.value) is pbw.PresentationError and info.value.pair is None


def test_parse_unknown_symbol():
    bad = PLANE_FILE.replace("q^-1", "r^-1")
    with pytest.raises(DslError, match="unknown symbol"):
        parse(bad)


def test_parse_non_unit_swap():
    bad = PLANE_FILE.replace("q^-1 * x1 * x2", "(1 + q) * x1 * x2")
    with pytest.raises(DslError, match="not a unit"):
        parse(bad)


def test_parse_rejects_unnormalized_tail():
    bad = PLANE_FILE.replace("q^-1 * x1 * x2", "q^-1 * x2 * x1")
    with pytest.raises(DslError, match="normal form"):
        parse(bad)


def test_parse_error_carries_location():
    try:
        parse("algebra a\nparams q\ngenerators x1 x2\nrules\nx2 * x1 = ^\n")
    except DslError as exc:
        assert exc.line == 5
    else:
        pytest.fail("expected a DslError")


@pytest.mark.parametrize("rhs", ["q^-1 * x2 * x1",
                                 "q^-1 * (x2 + x1) * x1",
                                 "q^-1 * x1 * x2 + x1^-1",
                                 "q^-1 * x1 * x2 + 2 * x2^-2 * x1"])
def test_rule_errors_point_at_the_rule(rhs):
    # out-of-order products and negative powers of polynomial generators are
    # reported at the start of the rule they appear in
    with pytest.raises(DslError) as info:
        parse(PLANE_FILE.replace("q^-1 * x1 * x2", rhs))
    assert (info.value.line, info.value.col) == (5, 1)
    message = str(info.value)
    assert message.startswith("line 5, col 1: ")
    assert "normal form" in message or "negative power" in message


EXPRESSION_ALGEBRAS = {
    "quantum_affine_generic(3)": lambda: zoo.quantum_affine_generic(3),
    "quantum_affine_single(3)": lambda: zoo.quantum_affine_single(3),
    "quantum_torus_generic(3)": lambda: zoo.quantum_torus_generic(3),
    "quantum_torus_single(2)": lambda: zoo.quantum_torus_single(2),
    "quantum_matrices_generic(2, 2)": lambda: zoo.quantum_matrices_generic(2, 2),
    "quantum_matrices_single(2, 3)": lambda: zoo.quantum_matrices_single(2, 3),
    "quantized_weyl_generic(2)": lambda: zoo.quantized_weyl_generic(2),
    "quantum_symplectic(2)": lambda: zoo.quantum_symplectic(2),
    "quantum_euclidean(4)": lambda: zoo.quantum_euclidean(4),
}


@pytest.mark.parametrize("family", sorted(EXPRESSION_ALGEBRAS))
def test_expressions_match_the_rightmost_reducer(family):
    # the DSL multiplies as it parses; the oracle expands every written word
    # and reduces each one rightmost-first
    p = EXPRESSION_ALGEBRAS[family]()
    seed = zlib.crc32(family.encode())
    print(f"seed {seed}")
    rng = random.Random(seed)
    checked = 0
    while checked < 40:
        text, terms = oracles.random_expression(p, rng)
        if len(terms) > 64 or max(len(w) for _, w in terms) > 8:
            continue
        want = Element()
        for c, w in terms:
            want = want + oracles.reduce_rightmost(p, w, c)
        assert evaluate_expression(p, text) == want, text
        checked += 1


def test_round_trip_all_zoo_presentations():
    presentations = [
        zoo.quantum_affine_generic(1),
        zoo.quantum_affine_generic(3),
        zoo.quantum_affine_single(4),
        zoo.quantum_torus_generic(3),
        zoo.quantum_torus_single(2),
        zoo.quantum_matrices_generic(2, 2),
        zoo.quantum_matrices_generic(2, 3),
        zoo.quantum_matrices_single(3, 3),
        zoo.quantized_weyl_generic(1),
        zoo.quantized_weyl_generic(3),
        zoo.quantum_symplectic(1),
        zoo.quantum_symplectic(3),
        zoo.quantum_euclidean(2),
        zoo.quantum_euclidean(3),
        zoo.quantum_euclidean(5),
    ]
    for p in presentations:
        assert parse(print_presentation(p)) == p, p.name


def test_printed_rules_are_flat_sums():
    # terms ascend by exponent, the parameters' before the generators'
    weyl = print_presentation(zoo.quantized_weyl_generic(2)).splitlines()
    assert "x2 * y2 = 1 - y1*x1 + q_2*y2*x2 + q_1*y1*x1" in weyl
    assert "x2 * x1 = q_1^-1*gam_1_2^-1*x1*x2" in weyl
    euclid = print_presentation(zoo.quantum_euclidean(5)).splitlines()
    assert "x5 * x1 = -v^-2*x2*x4 + x1*x5 - v*x3^2 + v^2*x2*x4 + v^3*x3^2" in euclid


def test_round_trip_hand_built_presentations():
    # rules the zoo never builds: tail coefficients of several terms, negative
    # parameter powers, integers above 1, constant tail terms, invertible tori
    from strata_lab.coeff import ParamContext, UnitMonomial
    from strata_lab.pbw import Presentation, Rule
    seed = 19
    print(f"seed {seed}")
    rng = random.Random(seed)
    for trial in range(60):
        ctx = ParamContext(["q", "lam", "t_2"][:rng.randint(0, 3)])
        n = rng.randint(2, 4)
        invertible = trial % 4 == 0
        rules = {}
        for j in range(n):
            for i in range(j):
                swap = UnitMonomial(rng.choice([1, -1]),
                                    tuple(rng.randint(-3, 3) for _ in ctx.symbols))
                tail = {}
                while not invertible and rng.random() < 0.6:
                    exp = tuple(rng.randint(0, 2) for _ in range(n))
                    if exp != tuple(1 if t in (i, j) else 0 for t in range(n)):
                        tail[exp] = Coefficient(ctx, [
                            (tuple(rng.randint(-2, 2) for _ in ctx.symbols),
                             rng.choice([1, -1, 2, -7, 10 ** 20]))
                            for _ in range(rng.randint(1, 3))])
                rules[(j, i)] = Rule(swap, Element(tail))
        rank = rng.randint(0, 2)
        weights = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
        p = Presentation(ctx, [f"x{k}" for k in range(1, n + 1)], rules, weights,
                         invertible=invertible, name=f"hand_{trial}")
        text = print_presentation(p)
        assert parse(text) == p, text


@pytest.mark.parametrize("params, gens, bad", [
    ([], ["x", "invertible"], "invertible"),  # read as the invertible flag
    ([], ["x", "weights"], "weights"),        # a section keyword
    (["q"], ["q", "x"], "q"),                 # read as the parameter
    ([], ["x y", "z"], "x y"),                # two names
])
def test_printer_refuses_names_the_parser_cannot_read_back(params, gens, bad):
    from strata_lab.coeff import ParamContext, UnitMonomial
    from strata_lab.pbw import Presentation, Rule
    ctx = ParamContext(params)
    p = Presentation(ctx, gens, {(1, 0): Rule(UnitMonomial(1, (0,) * len(params)))})
    located = {  # what the parser says of the printed text, where it says it
        "invertible": "line 4, col 1: rule over unknown generators 'invertible', 'x'",
        "weights": "line 2, col 14: generator name 'weights' clashes with a keyword or "
                   "parameter",
        "q": "line 3, col 12: generator name 'q' clashes with a keyword or parameter",
        "x y": "line 4, col 7: expected '=', found 'y'",
    }[bad]
    with pytest.raises(DslError) as info:
        print_presentation(p)
    assert str(info.value) == f"algebra 'A' cannot be printed: {located}"
    # the same names elsewhere still read back
    ok = Presentation(ctx, ["invertible", "x"], p.rules)
    assert parse(print_presentation(ok)) == ok
    for name, reason in [("my algebra", "line 1, col 12: expected 'EOF', found 'algebra'"),
                         ("x#1", "the DSL reads the text back as another presentation"),
                         ("", "line 1, col 9: expected 'NAME', found '\\n'")]:
        with pytest.raises(DslError) as info:
            print_presentation(Presentation(ctx, ok.generators, p.rules, name=name))
        assert str(info.value) == f"algebra {name!r} cannot be printed: {reason}"


# A tail that brings z*x*y back inside its own reduction (z*x*y -> z*z*y ->
# z*x*y, each by a tail), and a tail of higher degree than its rule, under
# which the leftmost reduction of y*x*x never ends.
ENDLESS = {
    "recurring": ("algebra recurring\ngenerators x y z\nrules\ny * x = x*y\n"
                  "z * x = x*z + z^2\nz * y = y*z + x*y\n", "z*x*y"),
    "growing": ("algebra growing\ngenerators x y\nrules\ny * x = x*y + x^3*y^2\n", "y*x*x"),
}


@pytest.mark.parametrize("name", sorted(ENDLESS))
def test_endless_reductions_exhaust_every_budget(tmp_path, capsys, name):
    text, word = ENDLESS[name]
    p = parse(text)
    letters = [(p.gen_index(g), 1) for g in word.split("*")]
    for fuel in (1, 2, 10, 100, 1000):
        with pytest.raises(FuelExhausted):
            normal_form(p, letters, fuel=fuel)
        code, out = invoke(capsys, "nf", write(tmp_path, text), word, "--fuel", str(fuel))
        assert code == 1 and report_of(out)["status"] == "fail", fuel
    if name == "recurring":
        with pytest.raises(ValueError, match="recurs"):
            oracles.leftmost_rewrites(p, letters)
        with pytest.raises(FuelExhausted):  # found at once, whatever the budget
            normal_form(p, letters)


# -- subcommands -----------------------------------------------------------------


def test_verify_ok_exit_0(tmp_path, capsys):
    path = write(tmp_path, "use quantum_matrices(m=2, n=2)\n")
    code, out = invoke(capsys, "verify", path)
    assert code == 0
    rep = report_of(out)
    assert rep["status"] == "ok"
    assert rep["results"]["confluent"] is True
    assert rep["results"]["triples"] == 4


def test_verify_nonconfluent_exit_1(tmp_path, capsys):
    # 2x2 quantum matrices with one commutation scalar corrupted
    from strata_lab.coeff import UnitMonomial
    from strata_lab.pbw import Presentation, Rule
    p = zoo.quantum_matrices_generic(2, 2)
    rules = dict(p.rules)
    old = rules[(2, 0)].swap
    rules[(2, 0)] = Rule(UnitMonomial(old.sign, tuple(2 * e for e in old.exponents)))
    broken = Presentation(p.context, p.generators, rules, p.weights, name="broken")
    text = print_presentation(broken)
    path = write(tmp_path, text)
    code, out = invoke(capsys, "verify", path)
    assert code == 1
    rep = report_of(out)
    assert rep["status"] == "fail"
    assert rep["results"]["unresolved"]
    assert rep["inputs_digest"] == sha256(text)


def test_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "algebra ???\n")
    code, out = invoke(capsys, "verify", path)
    assert code == 2
    assert report_of(out)["status"] == "error"
    assert report_of(out)["inputs_digest"] == sha256("algebra ???\n")


def test_usage_error_exit_2(capsys):
    assert run(["no-such-command"]) == 2


def test_nf_terms(tmp_path, capsys):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "x2*x1")
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["terms"] == [{"coeff": "q_1_2^-1", "monomial": [1, 1]}]
    code, out = invoke(capsys, "nf", path, "x2*-x1")
    assert code == 0
    assert report_of(out)["results"]["terms"] == [{"coeff": "-q_1_2^-1", "monomial": [1, 1]}]


def test_nf_specialize(tmp_path, capsys):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "x2*x1", "--specialize", "q_1_2=2")
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["terms"][0]["value"] == "1/2"


def test_hilbert_command(tmp_path, capsys):
    path = write(tmp_path, "use quantum_matrices(m=2, n=2)\n")
    code, out = invoke(capsys, "hilbert", path, "--degree", "2")
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["counts"][-1] == {
        "degree": 2, "count": 10, "commutative_count": 10}


def test_qdet_and_sl_commands(capsys):
    code, out = invoke(capsys, "qdet", "--n", "2", "--single-param")
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["terms"] == [
        {"coeff": "1", "monomial": [1, 0, 0, 1]},
        {"coeff": "-q", "monomial": [0, 1, 1, 0]},
    ]
    code, out = invoke(capsys, "qdet-verify", "--n", "2")
    assert code == 0 and report_of(out)["results"]["passed"] is True
    code, out = invoke(capsys, "sl-check", "--n", "2", "--single-param")
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["central"] is True and rep["results"]["common_value"] == "q^-3"
    code, out = invoke(capsys, "sl-check", "--n", "2")
    assert report_of(out)["results"]["central"] is False


@pytest.mark.parametrize("command", ["qdet", "qdet-verify", "sl-check"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_matrix_size_below_one_is_a_usage_error(capsys, command, n):
    assert run([command, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n: must be positive" in captured.err


@pytest.mark.parametrize("command", ["qdet", "qdet-verify", "sl-check"])
@pytest.mark.parametrize("n", ["6", str(10 ** 6)])
def test_matrix_size_above_the_zoo_bound_is_a_usage_error(capsys, command, n):
    # the bound of `use quantum_matrices(m=n, n=n)`: n*n <= dsl.MAX_ZOO_SIZE
    start = time.perf_counter()
    assert run([command, "--n", n]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--n: n*n must be at most {dsl.MAX_ZOO_SIZE}, got n = {n}" in captured.err


@pytest.mark.parametrize("argv,option,text", [
    (["qdet", "--n", "abc"], "--n", "abc"),
    (["hilbert", "FILE", "--degree", "x"], "--degree", "x"),
    (["strata", "FILE", "--box", "2.5"], "--box", "2.5"),
])
def test_non_integer_option_names_the_bad_text(tmp_path, capsys, argv, option, text):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    assert run([path if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected an integer, got '{text}'" in captured.err
    assert "_matrix_size" not in captured.err and "_nonnegative" not in captured.err


def test_weights_and_eigencheck(tmp_path, capsys):
    path = write(tmp_path, "use quantum_affine(n=3)\n")
    code, out = invoke(capsys, "weights", path, "x1*x3")
    rep = report_of(out)
    assert rep["results"]["terms"] == [{"monomial": [1, 0, 1], "weight": [1, 0, 1]}]
    code, out = invoke(capsys, "eigencheck", path, "x1 + x2")
    rep = report_of(out)
    assert rep["results"]["homogeneous"] is False and rep["results"]["weight"] is None


def test_normalcheck(tmp_path, capsys):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "normalcheck", path, "x1")
    rep = report_of(out)
    assert rep["results"]["scalar_normal"] is True
    assert rep["results"]["mus"]["x2"] == "q_1_2"


@pytest.mark.parametrize("expr", ["0", "x1-x1"])
def test_normalcheck_rejects_zero_as_usage_error(tmp_path, capsys, expr):
    text = "use quantum_affine(n=2)\n"
    code, out = invoke(capsys, "normalcheck", write(tmp_path, text), expr)
    rep = report_of(out)
    assert code == 2 and rep["status"] == "error"
    assert rep["results"]["message"] == (
        f"normalcheck needs a nonzero element; {expr!r} is zero")
    assert rep["inputs_digest"] == sha256(text)


@pytest.mark.parametrize("params,message", [
    ("q q", "duplicate parameter names"),
    ("\u03be", "bad parameter name '\u03be'"),  # the tokenizer reads any letter
], ids=["repeated", "not ascii"])
def test_bad_parameter_names_are_usage_errors(tmp_path, capsys, params, message):
    text = f"algebra a\nparams {params}\ngenerators x1\n"
    code, out = invoke(capsys, "verify", write(tmp_path, text))
    rep = report_of(out)
    assert code == 2 and rep["status"] == "error"
    assert rep["results"]["message"] == f"line 2, col 1: {message}"
    assert rep["inputs_digest"] == sha256(text)


def test_hspec_strata_center_witness(tmp_path, capsys):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "hspec", path)
    rep = report_of(out)
    assert rep["results"]["count"] == 4
    code, out = invoke(capsys, "strata", path, "--box", "2")
    assert code == 0
    rep = report_of(out)
    ranks = [s["center_rank"] for s in rep["results"]["strata"]]
    assert ranks == [0, 1, 1, 0]
    assert all(s["box_check"] for s in rep["results"]["strata"])
    code, out = invoke(capsys, "center", path, "--hprime", "1")
    rep = report_of(out)
    assert rep["results"]["center_rank"] == 1 and rep["results"]["torus_size"] == 1
    code, out = invoke(capsys, "witness", path, "--from", "", "--to", "1")
    rep = report_of(out)
    assert rep["results"]["generator"] == 1
    assert rep["results"]["mus"]["x2"] == "q_1_2"


def test_poset_json_and_dot(tmp_path, capsys):
    path1 = write(tmp_path, "use quantum_affine(n=1)\n", "qa1.txt")
    code, out = invoke(capsys, "poset", path1, "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 1 and out.count("label=") == 2

    path2 = write(tmp_path, "use quantum_affine(n=2)\n", "qa2.txt")
    code, out = invoke(capsys, "poset", path2)
    rep = report_of(out)
    assert len(rep["results"]["nodes"]) == 4
    assert len(rep["results"]["edges"]) == 4  # diamond
    ranks = {tuple(n["hprime"]): n["center_rank"] for n in rep["results"]["nodes"]}
    assert ranks == {(): 0, (1,): 1, (2,): 1, (1, 2): 0}

    path0 = write(tmp_path, "use quantum_affine(n=0)\n", "qa0.txt")
    code, out = invoke(capsys, "poset", path0, "--dot")
    assert code == 0
    assert out.count("label=") == 1 and "->" not in out


@pytest.mark.parametrize("name,graph_id", [
    ("node", '"node"'), ("Graph", '"Graph"'), ("STRICT", '"STRICT"'), ("edge", '"edge"'),
    ("digraph", '"digraph"'), ("subGraph", '"subGraph"'), ("nodes", "nodes"),
])
def test_poset_dot_quotes_a_keyword_graph_id(tmp_path, capsys, name, graph_id):
    # DOT keywords are matched in any letter case, and a graph ID equal to one
    # must be quoted; any other DSL name stays bare, as every golden has it
    path = write(tmp_path, f"algebra {name}\nparams q\ngenerators x y\nrules\n"
                           "y * x = q * x * y\n")
    code, out = invoke(capsys, "poset", path, "--dot")
    assert code == 0
    assert out.startswith(f"digraph {graph_id} {{\n")


@pytest.mark.parametrize("argv", [
    ["nf", "use quantized_weyl(n=2)\n", "(y1*x1*y2*x2)^3*(x2*y2*x1*y1)^3", "--fuel", "5",
     "--specialize", "q_1=abc"],
    ["qdet", None, "--n", "5", "--specialize", "q=abc"],
], ids=["nf over budget", "qdet"])
def test_a_bad_specialize_value_is_refused_before_the_engine_runs(tmp_path, capsys, argv):
    command, source, *rest = argv
    code, out = invoke(capsys, command, *([write(tmp_path, source)] if source else []), *rest)
    assert code == 2
    rep = report_of(out)
    assert (rep["status"], rep["results"]["message"]) == ("error", "bad rational 'abc'")


@pytest.mark.parametrize("single", [False, True], ids=["generic", "single"])
@pytest.mark.parametrize("argv,checks", [
    (["strata"], 2),              # hspec, then one pass over every prime
    (["poset"], 2),
    (["strata", "--box", "1"], 18),  # and one stratum torus per prime for the box
    (["center", "--hprime", "1,2,3"], 1),
    (["witness", "--from", "1", "--to", "1,2"], 1),
], ids=["strata", "poset", "strata --box", "center", "witness"])
def test_each_entry_point_checks_the_parent_once(tmp_path, capsys, monkeypatch,
                                                  argv, checks, single):
    path = write(tmp_path, f"use quantum_affine(n=4, single_param={str(single).lower()})\n")
    calls = []
    check = strat.check_quantum_affine
    monkeypatch.setattr(strat, "check_quantum_affine", lambda p: calls.append(p) or check(p))
    code, out = invoke(capsys, argv[0], path, *argv[1:])
    assert code == 0
    assert len(calls) == checks
    if argv[0] == "center":  # the prime's one survivor gives a nonempty center
        assert report_of(out)["results"]["center_rank"] == 1


def test_one_pass_solves_each_distinct_exponent_matrix_once(tmp_path, capsys):
    # single-parameter n = 6: a stratum's matrix depends only on its size, and
    # strata of 0 or 1 survivors have no row, so 5 kernels, where one call of
    # stratum_report per prime solves 57
    p = zoo.quantum_affine_single(6)
    path = write(tmp_path, "use quantum_affine(n=6, single_param=true)\n")
    with oracles.kernel_calls() as seen:
        code, _ = invoke(capsys, "strata", path)
    assert code == 0
    assert len(seen) == 5
    with oracles.kernel_calls() as seen:
        for w in strat.hspec_quantum_affine(p):
            strat.stratum_report(p, w)
    assert len(seen) == 57


def test_box_check_takes_one_hermite_form_per_stratum(tmp_path, capsys, monkeypatch):
    # strata --box reduces every box point of a stratum against one Hermite
    # form of its center basis: one hnf call more per stable prime
    path = write(tmp_path, "use quantum_affine(n=3, single_param=true)\n")
    calls = []
    hnf = lattice.hnf
    monkeypatch.setattr(lattice, "hnf", lambda A: calls.append(A) or hnf(A))
    counts = []
    for box in ([], ["--box", "1"]):
        calls.clear()
        code, _ = invoke(capsys, "strata", path, *box)
        assert code == 0
        counts.append(len(calls))
    assert counts[1] - counts[0] == 8


def test_reports_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "use quantum_matrices(m=2, n=2)\n")
    code1, out1 = invoke(capsys, "verify", path)
    code2, out2 = invoke(capsys, "verify", path)
    assert out1 == out2 and code1 == code2 == 0
    code1, out1 = invoke(capsys, "qdet", "--n", "3")
    code2, out2 = invoke(capsys, "qdet", "--n", "3")
    assert out1 == out2


def test_fuel_flag_and_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "use quantum_matrices(m=2, n=2)\n")
    code, out = invoke(capsys, "nf", path, "X22*X11*X21", "--fuel", "1")
    assert code == 1
    assert report_of(out)["status"] == "fail"
    assert report_of(out)["inputs_digest"] == sha256("use quantum_matrices(m=2, n=2)\n")
    monkeypatch.setenv("STRATA_LAB_FUEL", "1")
    code, out = invoke(capsys, "nf", path, "X22*X11*X21")
    assert code == 1
    monkeypatch.setenv("STRATA_LAB_FUEL", "not-a-number")
    assert run(["nf", path, "x1"]) == 2
    capsys.readouterr()
    monkeypatch.delenv("STRATA_LAB_FUEL")
    code, out = invoke(capsys, "nf", path, "X22*X11*X21")
    assert code == 0


def test_fuel_env_is_read_only_by_file_commands(tmp_path, capsys, monkeypatch):
    # qdet takes no budget, so a bad value does not stop it; verify still rejects it
    monkeypatch.setenv("STRATA_LAB_FUEL", "abc")
    code, out = invoke(capsys, "qdet", "--n", "2")
    assert code == 0
    assert report_of(out)["status"] == "ok"
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    assert run(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("strata-lab: bad STRATA_LAB_FUEL value: "
                            "invalid literal for int() with base 10: 'abc'\n")


def test_expression_has_one_budget(tmp_path, capsys):
    # each X22*X11 takes one rewrite; the sum of two needs two from one budget
    path = write(tmp_path, "use quantum_matrices(m=2, n=2)\n")
    code, out = invoke(capsys, "nf", path, "X22*X11", "--fuel", "1")
    assert code == 0
    code, out = invoke(capsys, "nf", path, "X22*X11 + X22*X11", "--fuel", "1")
    assert code == 1
    assert report_of(out)["results"]["message"] == "rewrite budget exceeded"


def test_explicit_fuel_wins_over_a_bad_env_value(tmp_path, capsys, monkeypatch):
    # the variable is read only when --fuel is absent
    monkeypatch.setenv("STRATA_LAB_FUEL", "abc")
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "verify", path, "--fuel", "10")
    assert code == 0
    assert report_of(out)["status"] == "ok"
    assert run(["verify", path]) == 2


@pytest.mark.parametrize("command", ["qdet", "qdet-verify", "sl-check"])
def test_matrix_commands_take_no_fuel(capsys, command):
    # they build their own presentation, so a budget would have nothing to bound
    code, out = invoke(capsys, command, "--n", "2", "--fuel", "1")
    assert code == 2
    assert out == ""


def test_wrong_algebra_kind_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "use quantum_torus(n=2)\n")
    code, out = invoke(capsys, "hilbert", path, "--degree", "2")
    assert code == 2
    assert report_of(out)["status"] == "error"
    code, out = invoke(capsys, "nf", path, "x1^-1")
    assert code == 0  # inverses are fine on a torus
    path2 = write(tmp_path, "use quantum_affine(n=2)\n", "qa.txt")
    code, out = invoke(capsys, "nf", path2, "x1^-1")
    assert code == 2  # but not on a polynomial generator


def test_genericity_failure_exit_1(tmp_path, capsys):
    signed = """\
algebra signed
params q
generators x1 x2
rules
x2 * x1 = -q * x1 * x2
weights
x1 = (1, 0)
x2 = (0, 1)
"""
    path = write(tmp_path, signed)
    code, out = invoke(capsys, "hspec", path)
    assert code == 1
    assert report_of(out)["status"] == "fail"


def test_hilbert_certifies_confluence(tmp_path, capsys):
    # 3x3 quantum matrices with the X22*X11 tail dropped: the ordered monomials
    # are still counted, but they are no basis, so the counts are not dimensions
    from strata_lab.pbw import Element, Presentation, Rule
    p = zoo.quantum_matrices_generic(3, 3)
    rules = dict(p.rules)
    pair = (p.gen_index("X22"), p.gen_index("X11"))
    rules[pair] = Rule(rules[pair].swap, Element())
    broken = Presentation(p.context, p.generators, rules, p.weights, name="corrupt")
    text = print_presentation(broken)
    path = write(tmp_path, text)
    code, out = invoke(capsys, "verify", path)
    assert code == 1
    code, out = invoke(capsys, "hilbert", path, "--degree", "2")
    assert code == 1
    rep = report_of(out)
    assert rep["status"] == "fail"
    assert rep["results"]["matches"] is False
    assert rep["results"]["message"] == "presentation is not confluent"
    assert rep["inputs_digest"] == sha256(text)


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    code, out = invoke(capsys, "verify", str(tmp_path))
    assert code == 2
    assert report_of(out)["status"] == "error"
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"algebra caf\xe9\n")
    code, out = invoke(capsys, "verify", str(path))
    assert code == 2
    rep = report_of(out)
    assert rep["status"] == "error"
    assert rep["inputs_digest"] == sha256("")


LONG = "1" * 5000


@pytest.mark.parametrize("source,argv,message", [
    pytest.param(f"use quantum_affine(n={LONG})", ["verify"],
                 "line 1, col 22: integer literal has 5000 digits, above the limit 4300",
                 id="zoo size"),
    pytest.param("use quantum_affine(n=2)", ["nf", f"x1^{LONG}"],
                 "line 1, col 4: integer literal has 5000 digits, above the limit 4300",
                 id="exponent"),
    pytest.param("use quantum_affine(n=2)", ["nf", LONG],
                 "line 1, col 1: integer literal has 5000 digits, above the limit 4300",
                 id="bare"),
    pytest.param("use quantum_affine(n=\u00b2)", ["verify"],
                 "line 1, col 22: unexpected character '\u00b2'", id="superscript size"),
    pytest.param("use quantum_affine(n=2)", ["nf", "x1^\u00b2"],
                 "line 1, col 4: unexpected character '\u00b2'", id="superscript exponent"),
])
def test_literals_int_cannot_read_are_parse_errors(tmp_path, capsys, digit_limit,
                                                   source, argv, message):
    code, out = invoke(capsys, argv[0], write(tmp_path, source + "\n"), *argv[1:])
    assert code == 2
    rep = report_of(out)
    assert rep["status"] == "error"
    assert rep["results"]["message"] == message


# A power of a parenthesized expression is repeated multiplication, so the
# power here is small: (2*x1)^20000 fails the same way after about 30 s.
@pytest.mark.parametrize("argv", [["3^10000*x1"], ["(10^2200*x1)^2"],
                                  ["q_1_2^5000*x1", "--specialize", "q_1_2=10"]],
                         ids=["literal power", "parenthesized power", "specialized"])
def test_coefficients_too_long_to_print_fail(tmp_path, capsys, digit_limit, argv):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, *argv)
    assert code == 1
    rep = report_of(out)
    assert rep["status"] == "fail"
    assert rep["results"]["message"] == ("coefficient has more than 4300 digits, "
                                         "the limit for printing an integer")


@pytest.mark.parametrize("value,status", [
    ("1e4299", "ok"), ("0.001e4302", "ok"),  # 4300 digits: printable
    ("1e4300", "fail"), ("1_0e4_300", "fail"), ("1e-4300", "fail"),
], ids=["1e4299", "0.001e4302", "1e4300", "underscores", "1e-4300"])
def test_specialize_values_too_long_to_print_fail(tmp_path, capsys, digit_limit,
                                                  value, status):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "q_1_2*x1", "--specialize", f"q_1_2={value}")
    rep = report_of(out)
    assert (code, rep["status"]) == ((0, "ok") if status == "ok" else (1, "fail"))
    if status == "ok":
        assert rep["results"]["terms"][0]["value"] == "1" + "0" * 4299


def test_specialize_value_of_an_unused_symbol_is_checked(tmp_path, capsys, digit_limit):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "x1", "--specialize", "q_1_2=2,r=1e4400")
    rep = report_of(out)
    assert (code, rep["status"]) == (1, "fail")
    assert rep["results"]["message"] == ("coefficient has more than 4300 digits, "
                                         "the limit for printing an integer")


def test_specialize_literal_too_long_is_a_usage_error(tmp_path, capsys, digit_limit):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "x1", "--specialize", f"q_1_2={LONG}")
    assert code == 2
    rep = report_of(out)
    assert rep["status"] == "error"
    assert rep["results"]["message"] == f"bad rational {LONG!r}"


def test_parameter_exponents_too_long_to_print_fail(tmp_path, capsys, digit_limit):
    # ten factors q_1_2^(10^4299) make an exponent of 4301 digits
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "*".join([f"q_1_2^1{'0' * 4299}"] * 10) + "*x1")
    assert code == 1
    rep = report_of(out)
    assert rep["status"] == "fail"
    assert rep["results"]["message"] == ("coefficient has more than 4300 digits, "
                                         "the limit for printing an integer")


# A monomial exponent and a weight are not coefficients, and no producer counts
# their digits; the envelope refuses every integer it cannot print.
WEIGHTED = "algebra a\ngenerators x\nweights\nx = (9)"


@pytest.mark.parametrize("source,argv", [
    ("use quantum_affine(n=2)", ["nf", f"(x1^{'9' * 4300})^9"]),
    (WEIGHTED, ["weights", f"x^{'9' * 4300}"]),
    (WEIGHTED, ["eigencheck", f"x^{'9' * 4300}"]),
], ids=["monomial exponent", "weights", "eigencheck"])
def test_result_integers_too_long_to_print_fail(tmp_path, capsys, digit_limit, source, argv):
    code, out = invoke(capsys, argv[0], write(tmp_path, source + "\n"), *argv[1:])
    assert code == 1
    rep = report_of(out)
    assert rep["status"] == "fail"
    assert rep["results"]["message"] == ("an integer in the results has more than 4300 "
                                         "digits, the limit for printing an integer")


@pytest.mark.parametrize("family,expr,letters", [
    ("quantum_affine(n=2)", "x2^99999999999999999999*x1", 99999999999999999999),
    ("quantum_affine(n=2)", "x2^9999999999*x1", 9999999999),
    ("quantum_torus(n=2)", "x1^-99999999999999999999*x2", 99999999999999999999),
])
def test_words_past_the_letter_limit_fail(tmp_path, capsys, family, expr, letters):
    path = write(tmp_path, f"use {family}\n")
    code, out = invoke(capsys, "nf", path, expr)
    assert code == 1
    rep = report_of(out)
    assert rep["status"] == "fail"
    assert rep["results"]["message"] == (f"a word of {letters} letters is longer "
                                         "than the limit of 10000000 letters")


def test_products_past_the_letter_limit_fail(tmp_path, capsys, monkeypatch):
    # each factor fits the limit, their concatenation does not
    monkeypatch.setattr(pbw, "MAX_WORD_LETTERS", 100)
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "x1^60*x1^60")
    assert code == 1
    rep = report_of(out)
    assert rep["status"] == "fail"
    assert rep["results"]["message"] == ("a word of 120 letters is longer "
                                         "than the limit of 100 letters")
    code, out = invoke(capsys, "nf", path, "x1^50*x1^50")
    assert code == 0
    assert report_of(out)["results"]["terms"] == [{"coeff": "1", "monomial": [100, 0]}]


def test_a_million_swaps_fit_a_budget_of_a_million(tmp_path, capsys):
    # x2^1000000*x1 is one closed-form product of 10^6 letter swaps
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "nf", path, "x2^1000000*x1")
    assert code == 0
    assert report_of(out)["results"]["terms"] == [
        {"coeff": "q_1_2^-1000000", "monomial": [1, 1000000]}]
    code, out = invoke(capsys, "nf", path, "x2^1000000*x1", "--fuel", "999999")
    assert code == 1
    assert report_of(out)["results"]["message"] == "rewrite budget exceeded"


@pytest.mark.parametrize("from_set,to_set", [("", "0"), ("1", "1,5"), ("", "3")])
def test_witness_rejects_missing_generators(tmp_path, capsys, from_set, to_set):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, "witness", path, "--from", from_set, "--to", to_set)
    assert code == 2
    rep = report_of(out)
    assert rep["status"] == "error"
    assert "do not exist" in rep["results"]["message"]


@pytest.mark.parametrize("argv", [("hilbert", "--degree", "-3"), ("strata", "--box", "-1")])
def test_negative_sizes_are_usage_errors(tmp_path, capsys, argv):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code, out = invoke(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("degree", ["10001", "1" + "0" * 29])
def test_degree_above_the_limit_is_a_usage_error(tmp_path, capsys, degree):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    code = run(["hilbert", path, "--degree", degree])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--degree: must be at most {cli.MAX_DEGREE}, got {degree}" in captured.err
    code, out = invoke(capsys, "hilbert", path, "--degree", str(cli.MAX_DEGREE))
    assert code == 0
    assert report_of(out)["results"]["counts"][-1]["degree"] == cli.MAX_DEGREE


@pytest.mark.parametrize("n,argv,message", [
    (13, ["hspec"], "13 generators give 2^13 = 8192 stable primes, above the limit 4096"),
    (32, ["strata"], "32 generators give 2^32 = 4294967296 stable primes, above the limit 4096"),
    (13, ["poset", "--dot"],
     "13 generators give 2^13 = 8192 stable primes, above the limit 4096"),
    (3, ["strata", "--box", "8"],
     "--box 8 on 3 generators searches (2*8+2)^3 points, above the limit 5000"),
    (7, ["strata", "--box", "1"],
     "--box 1 on 7 generators searches (2*1+2)^7 points, above the limit 5000"),
    (3, ["strata", "--box", "100000"],
     "--box 100000 on 3 generators searches (2*100000+2)^3 points, above the limit 5000"),
    # both limits broken: the prime count is refused first
    (13, ["strata", "--box", "1"],
     "13 generators give 2^13 = 8192 stable primes, above the limit 4096"),
])
def test_enumerations_above_their_limits_are_refused(tmp_path, capsys, n, argv, message):
    path = write(tmp_path, f"use quantum_affine(n={n})\n")
    code, out = invoke(capsys, argv[0], path, *argv[1:])
    assert code == 2
    rep = report_of(out)
    assert rep["status"] == "error"
    assert rep["results"]["message"] == message


def test_strata_checks_the_grading_before_the_box(tmp_path, capsys):
    # the box limit is broken too; the parent's refusal comes first
    path = write(tmp_path, "use quantized_weyl(n=1)\n")
    code, out = invoke(capsys, "strata", path, "--box", "100000")
    assert code == 2
    assert report_of(out)["results"]["message"] == \
        "expected the rank-n grading of a quantum affine space"


def test_twelve_generators_have_the_most_stable_primes(tmp_path, capsys):
    code, out = invoke(capsys, "hspec", write(tmp_path, "use quantum_affine(n=12)\n"))
    assert code == 0
    assert report_of(out)["results"]["count"] == strat.MAX_STABLE_PRIMES == 2 ** 12


# -- one parser per process ------------------------------------------------------


def fresh_process_env():
    """The environment for a child `python` that imports this strata_lab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_parser_is_not_built_at_import():
    probe = "import strata_lab.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=fresh_process_env(), timeout=60)
    assert (out.returncode, out.stdout) == (0, "0\n")


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    for argv in (["verify", path], ["nf", path, "x2*x1"], ["qdet", "--n", "2"],
                 ["hspec", path], ["nf", path]):
        run(argv)
    capsys.readouterr()
    # the top-level parser and one per subcommand, all built by the first call
    assert len(built) == 1 + len(cli.COMMANDS)


def test_fuel_env_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    # each X22*X11 takes one rewrite, so the sum needs a budget of two
    path = write(tmp_path, "use quantum_matrices(m=2, n=2)\n")
    monkeypatch.setenv("STRATA_LAB_FUEL", "1")
    code, out = invoke(capsys, "nf", path, "X22*X11 + X22*X11")
    assert code == 1
    assert report_of(out)["results"]["message"] == "rewrite budget exceeded"
    monkeypatch.delenv("STRATA_LAB_FUEL")
    code, out = invoke(capsys, "nf", path, "X22*X11 + X22*X11")
    assert code == 0
    assert report_of(out)["status"] == "ok"


def test_shared_parser_gives_the_bytes_of_a_fresh_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    env = fresh_process_env()
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    run(["verify", path])
    capsys.readouterr()
    codes = []
    for argv in (["nf", path], ["--help"], ["nf", path, "x2*x1"]):
        code = run(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "strata_lab.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [2, 0, 0]


# -- inputs that used to run without bound -----------------------------------------


def _capped():
    # the unfixed computations grow without bound; keep the child small
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# A power of one term in one generator is raised termwise.  Multiplied out one
# factor at a time, (x1)^k cost time quadratic in k (1.3 s at k = 4000), and
# (2*x1)^20000 ran about 34 s before its coefficient was refused as too long
# to print (Python 3.11.7).
@pytest.mark.parametrize("argv,monomial", [
    (["(1)^999999999999*x1"], [1, 0]),
    (["(x1)^200000"], [200000, 0]),
    (["3^9999999999*x1"], None),
    (["(2*x1)^20000"], None),
    (["q_1_2^100000000*x1", "--specialize", "q_1_2=3"], None),
], ids=["unit power", "generator power", "literal power", "term power",
        "specialized power"])
def test_large_scalar_powers_finish(tmp_path, argv, monomial):
    path = write(tmp_path, "use quantum_affine(n=2)\n")
    env = {**fresh_process_env(), "PYTHONINTMAXSTRDIGITS": "4300"}
    out = subprocess.run([sys.executable, "-m", "strata_lab.cli", "nf", path, *argv],
                         capture_output=True, text=True, env=env, timeout=10,
                         preexec_fn=_capped)
    rep = report_of(out.stdout)
    assert (out.returncode, rep["status"]) == ((0, "ok") if monomial else (1, "fail"))
    if monomial:
        assert rep["results"]["terms"] == [{"coeff": "1", "monomial": monomial}]
    else:
        assert rep["results"]["message"] == ("coefficient has more than 4300 digits, "
                                             "the limit for printing an integer")


# Fraction("1e100000000") builds ten to that power: unchecked, `nf` took 12 s
# at 1e10000000 and ran past 25 s at 1e100000000 (Python 3.11.7).  The exponent
# is refused before Fraction runs, and a zero mantissa is zero, which
# specialize rejects as a usage error.
@pytest.mark.parametrize("value,code", [
    ("1e100000000", 1), ("-1e100000000", 1), ("1e-100000000", 1), ("0e100000000", 2),
])
@pytest.mark.parametrize("argv,symbol", [
    (["nf", "-", "q_1_2*x1"], "q_1_2"),
    (["qdet", "--n", "2"], "lam"),
], ids=["nf", "qdet"])
def test_specialize_exponents_finish(argv, symbol, value, code):
    env = {**fresh_process_env(), "PYTHONINTMAXSTRDIGITS": "4300"}
    out = subprocess.run([sys.executable, "-m", "strata_lab.cli", *argv,
                          "--specialize", f"{symbol}={value},p_2_1=2"],
                         input="use quantum_affine(n=2)\n", capture_output=True, text=True,
                         env=env, timeout=10, preexec_fn=_capped)
    rep = report_of(out.stdout)
    assert (out.returncode, rep["status"]) == (code, "fail" if code == 1 else "error")
    assert rep["results"]["message"] == (
        "coefficient has more than 4300 digits, the limit for printing an integer"
        if code == 1 else f"symbol {symbol!r} assigned zero; symbols are invertible")
