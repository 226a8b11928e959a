"""Command-line interface: subcommand dispatch and JSON/DOT report emission.

Exit codes: 0 success, 1 verification failure (non-confluent presentation,
failed identity, exhausted rewrite budget), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, dsl, qdet, strat, zoo
from .coeff import CoeffError, SpecializationError, TooManyDigits, max_digits, number_text
from .grading import is_homogeneous, scalar_normality_check, weight_of
from .lattice import in_row_span
from .pbw import (DEFAULT_FUEL, EngineError, NegativeExponent, PresentationError,
                  diamond_check, hilbert_count, order_key)


class Command(NamedTuple):
    """A subcommand.  A "file" command reads a presentation and takes --fuel,
    and its handler gets the Presentation; a "matrix" command takes --n and
    --single-param, and its handler gets the (lam, p) quantum matrix data."""

    input: str
    handler: Callable
    help: str
    citations: list[str]


class CliFailure(Exception):
    """Verification failure carrying a partial result payload."""

    def __init__(self, message: str, results=None):
        super().__init__(message)
        self.results = results or {}


def _rational(text: str) -> Fraction:
    """Fraction(text), or TooManyDigits when it is too long to print.  An exponent
    past max_digits() by more than the mantissa's length is refused before Fraction
    computes its power of ten; a zero mantissa is zero at any exponent."""
    mantissa, e, exponent = text.lower().partition("e")
    if e and max_digits() and abs(int(exponent)) > max_digits() + len(mantissa):
        if Fraction(f"{mantissa}e{exponent[0]}0"):  # Fraction checks the syntax, exponent < 100
            raise TooManyDigits()
        return Fraction(0)
    value = Fraction(text)
    number_text(value)  # a value too long to print is refused, used or not
    return value


def _parse_specialize(arg: str | None) -> dict[str, Fraction] | None:
    if not arg:
        return None
    out = {}
    for piece in arg.split(","):
        if "=" not in piece:
            raise dsl.DslError(f"bad specialization {piece!r}; expected sym=rational")
        name, value = piece.split("=", 1)
        try:
            out[name.strip()] = _rational(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise dsl.DslError(f"bad rational {value!r}") from exc
    return out


def _term_list(element, specialize=None) -> list[dict]:
    terms = []
    for exp in sorted(element.terms, key=order_key, reverse=True):
        entry = {"monomial": list(exp), "coeff": str(element.terms[exp])}
        if specialize is not None:
            entry["value"] = number_text(element.terms[exp].specialize(specialize))
        terms.append(entry)
    return terms


def _hprime_arg(text: str) -> strat.HPrime:
    text = text.strip()
    if not text:
        return strat.HPrime(())
    try:
        return strat.HPrime(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise dsl.DslError(f"bad generator subset {text!r}") from exc


def _stratum_record(report: strat.StratumReport) -> dict:
    return {
        "hprime": list(report.hprime.members),
        "center_rank": report.center_rank,
        "center_basis": [list(v) for v in report.center_basis],
        "torus_size": report.torus_size,
        "citations": COMMANDS["strata"].citations,
    }


def emit_dot(primes, ranks, name) -> str:
    """DOT digraph of the inclusion poset; edges are covering relations."""
    def node_id(w):
        return "n" + "_".join(str(i) for i in w.members) if w.members else "n0"

    def label(w):
        return "{" + ",".join(str(i) for i in w.members) + "} rank " + str(ranks[w])

    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for w in primes:
        lines.append(f'  {node_id(w)} [label="{label(w)}"];')
    for a, b in strat.poset_covers(primes):
        lines.append(f"  {node_id(a)} -> {node_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommand handlers -------------------------------------------------------


def _cmd_verify(args, p):
    reports = diamond_check(p)
    unresolved = [{"triple": [p.generators[t] for t in r.triple], "note": r.note}
                  for r in reports if not r.resolved]
    results = {"algebra": p.name, "triples": len(reports),
               "unresolved": unresolved, "confluent": not unresolved}
    if unresolved:
        raise CliFailure("presentation is not confluent", results)
    return results


def _cmd_nf(args, p):
    element = dsl.evaluate_expression(p, args.expr)
    spec = _parse_specialize(args.specialize)
    return {"algebra": p.name, "expr": args.expr,
            "terms": _term_list(element, spec), "zero": not element}


def _cmd_hilbert(args, p):
    counts = []
    for d in range(args.degree + 1):
        count = hilbert_count(p, d)  # the commutative count, C(n+d-1, d)
        counts.append({"degree": d, "count": count, "commutative_count": count})
    # The counted ordered monomials are a basis, so the counts are graded
    # dimensions, exactly when every overlap resolves.
    confluent = all(r.resolved for r in diamond_check(p))
    results = {"algebra": p.name, "counts": counts, "matches": confluent}
    if not confluent:
        raise CliFailure("presentation is not confluent", results)
    return results


def _cmd_qdet(args, matrix):
    det = qdet.quantum_determinant(args.n, *matrix)
    spec = _parse_specialize(args.specialize)
    return {"n": args.n, "single_param": args.single_param,
            "terms": _term_list(det, spec)}


def _cmd_qdet_verify(args, matrix):
    report = qdet.verify_det_normality(args.n, *matrix)
    results = {"n": args.n, "single_param": args.single_param,
               "identities": [{"i": r.i, "j": r.j, "ok": r.ok} for r in report.identities],
               "passed": report.passed}
    if not report.passed:
        raise CliFailure("determinant normality failed", results)
    return results


def _cmd_sl_check(args, matrix):
    common = qdet.sl_common_value(args.n, *matrix)
    return {"n": args.n, "single_param": args.single_param, "central": common is not None,
            "common_value": str(common) if common is not None else None}


def _cmd_weights(args, p):
    element = dsl.evaluate_expression(p, args.expr)
    w = is_homogeneous(p, element)
    terms = [{"monomial": list(exp), "weight": list(weight_of(p, exp))}
             for exp in sorted(element.terms, key=order_key, reverse=True)]
    return {"algebra": p.name, "expr": args.expr, "terms": terms,
            "homogeneous": w is not None,
            "weight": list(w) if w is not None else None}


def _cmd_eigencheck(args, p):
    results = _cmd_weights(args, p)
    del results["terms"]  # _envelope sorts keys, so the bytes are unchanged
    return results


def _cmd_normalcheck(args, p):
    element = dsl.evaluate_expression(p, args.expr)
    if not element:  # a certificate needs a leading term
        raise dsl.DslError(f"normalcheck needs a nonzero element; {args.expr!r} is zero")
    cert = scalar_normality_check(p, element)
    results = {"algebra": p.name, "expr": args.expr, "scalar_normal": cert is not None}
    if cert is not None:
        results["mus"] = {g: str(mu) for g, mu in zip(p.generators, cert.mus)}
    return results


def _cmd_hspec(args, p):
    primes = strat.hspec_quantum_affine(p)
    return {"algebra": p.name, "count": len(primes),
            "hprimes": [list(w.members) for w in primes]}


def _cmd_strata(args, p):
    primes = strat.hspec_quantum_affine(p)
    records = []
    ok = True
    for w in primes:
        report = strat.stratum_report(p, w)
        record = _stratum_record(report)
        if args.box:
            brute = strat.brute_force_central_monomials(report.torus, args.box)
            span = [v for v in product(range(-args.box, args.box + 1),
                                       repeat=report.torus_size)
                    if in_row_span(report.center_basis, v)]
            record["box_check"] = span == brute
            ok = ok and record["box_check"]
        records.append(record)
    results = {"algebra": p.name, "strata": records}
    if not ok:
        raise CliFailure("stratum center box check failed", results)
    return results


def _cmd_center(args, p):
    w = _hprime_arg(args.hprime)
    report = strat.stratum_report(p, w)
    return {"algebra": p.name, **_stratum_record(report)}


def _cmd_witness(args, p):
    small = _hprime_arg(args.from_set)
    large = _hprime_arg(args.to_set)
    witness = strat.normal_separation_witness(p, small, large)
    q = witness.quotient
    return {"algebra": p.name, "from": list(small.members), "to": list(large.members),
            "generator": witness.generator,
            "mus": {g: str(mu) for g, mu in zip(q.generators, witness.certificate.mus)}}


def _cmd_poset(args, p):
    primes = strat.hspec_quantum_affine(p)
    ranks = {w: strat.stratum_report(p, w).center_rank for w in primes}
    if args.dot:
        return emit_dot(primes, ranks, name=p.name)
    covers = strat.poset_covers(primes)
    return {"algebra": p.name,
            "nodes": [{"hprime": list(w.members), "center_rank": ranks[w]}
                      for w in primes],
            "edges": [[list(a.members), list(b.members)] for a, b in covers]}


_CENTERS = "stratum centers are Laurent polynomial rings of rank at most the torus rank"

# Every subcommand, in the order `--help` lists them.
COMMANDS = {
    "verify": Command("file", _cmd_verify, "diamond-lemma confluence check",
                      ["confluence of the descending-pair rules certifies the "
                       "ordered-monomial basis"]),
    "nf": Command("file", _cmd_nf, "normal form of an expression",
                  ["normal forms in the ordered-monomial basis"]),
    "hilbert": Command("file", _cmd_hilbert, "graded dimensions up to a degree",
                       ["graded dimension matches the commutative polynomial count"]),
    "qdet": Command("matrix", _cmd_qdet, "qdet for n x n quantum matrices",
                    ["signed permutation-sum quantum determinant"]),
    "qdet-verify": Command("matrix", _cmd_qdet_verify, "qdet-verify for n x n quantum matrices",
                           ["quantum determinant normality law"]),
    "sl-check": Command("matrix", _cmd_sl_check, "sl-check for n x n quantum matrices",
                        ["quantum determinant centrality criterion"]),
    "weights": Command("file", _cmd_weights, "weights of the terms of an expression",
                       ["torus weights realize the grading"]),
    "eigencheck": Command("file", _cmd_eigencheck, "homogeneity (eigenvector) check",
                          ["homogeneous elements are the torus eigenvectors"]),
    "normalcheck": Command("file", _cmd_normalcheck, "scalar normality certificate",
                           ["scalar normality certificates for torus eigenvectors"]),
    "hspec": Command("file", _cmd_hspec, "torus-stable prime poset of a quantum affine space",
                     ["finite poset of torus-stable primes of a quantum affine space"]),
    "strata": Command("file", _cmd_strata, "all stratum reports",
                      ["strata localize to quantum tori", _CENTERS]),
    "center": Command("file", _cmd_center, "one stratum report", [_CENTERS]),
    "witness": Command("file", _cmd_witness, "normal separation witness",
                       ["normal separation across comparable torus-stable primes"]),
    "poset": Command("file", _cmd_poset, "stable-prime poset (JSON or DOT)",
                     ["stratification topology of the finite stable-prime poset"]),
}

# Exception types and the status and exit code they report, first match
# first: an unverified genericity is a failure although other strat errors
# are usage errors, and the usage errors include subclasses of EngineError
# and CoeffError, whose other kinds are failures.
_OUTCOMES = (
    ((CliFailure, strat.GenericityUnverified), "fail", 1),
    ((dsl.DslError, zoo.ZooError, strat.StratError, SpecializationError,
      PresentationError, NegativeExponent, OSError, UnicodeDecodeError), "error", 2),
    ((EngineError, CoeffError), "fail", 1),
)
_REPORTED = tuple(t for types, _, _ in _OUTCOMES for t in types)


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    `run` in the process; `parse_args` returns a fresh Namespace each time."""
    parser = argparse.ArgumentParser(
        prog="strata-lab",
        description="Exact rewriting, determinant laws, and stratification reports "
                    "for q-commutation algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, command in COMMANDS.items():
        cmd = cmds[name] = sub.add_parser(name, help=command.help)
        if command.input == "file":
            cmd.add_argument("--fuel", type=int,
                             help="rewrite-step budget per engine call "
                                  "(default: STRATA_LAB_FUEL, else 10^6)")
            cmd.add_argument("file", help="presentation file, or - for stdin")
        else:
            cmd.add_argument("--n", type=_positive, required=True)
            cmd.add_argument("--single-param", action="store_true")
    for name in ("nf", "weights", "eigencheck", "normalcheck"):
        cmds[name].add_argument("expr")
    cmds["nf"].add_argument("--specialize", help="sym=rat,... exact rational evaluation")
    cmds["qdet"].add_argument("--specialize")
    cmds["hilbert"].add_argument("--degree", type=_nonnegative, default=4)
    cmds["strata"].add_argument("--box", type=_nonnegative, default=0,
                                help="cross-check centers against the engine within this box")
    cmds["center"].add_argument("--hprime", default="",
                                help="comma-separated generator indices")
    cmds["witness"].add_argument("--from", dest="from_set", default="", required=False)
    cmds["witness"].add_argument("--to", dest="to_set", required=True)
    cmds["poset"].add_argument("--dot", action="store_true")
    return parser


def _envelope(command: str, source: str, status: str, results) -> str:
    report = {
        "command": command,
        "version": __version__,
        "inputs_digest": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "status": status,
        "results": results,
        "citations": COMMANDS[command].citations,
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run(argv) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = COMMANDS[args.command]
    if command.input == "file":  # only the file commands take a rewrite budget
        try:
            default_fuel = int(os.environ.get("STRATA_LAB_FUEL") or DEFAULT_FUEL)
        except ValueError as exc:
            sys.stderr.write(f"strata-lab: bad STRATA_LAB_FUEL value: {exc}\n")
            return 2
        if args.fuel is None:
            args.fuel = default_fuel
    source = ""
    try:
        if command.input == "file":
            source = (sys.stdin.read() if args.file == "-"
                      else Path(args.file).read_text(encoding="utf-8"))
            data = dsl.parse(source).with_fuel(args.fuel)
        else:
            source = f"{args.command} n={args.n} single_param={args.single_param}"
            data = (zoo.single_param_matrix_data if args.single_param
                    else zoo.generic_matrix_data)(args.n)
        results = command.handler(args, data)
    except _REPORTED as exc:
        status, code = next((status, code) for types, status, code in _OUTCOMES
                            if isinstance(exc, types))
        results = {**getattr(exc, "results", {}), "message": str(exc)}
        sys.stdout.write(_envelope(args.command, source, status, results))
        return code
    sys.stdout.write(results if isinstance(results, str)  # DOT text goes out as it is
                     else _envelope(args.command, source, "ok", results))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
