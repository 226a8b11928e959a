"""Refusals that no other test reaches: each bad input, the error type it
raises and its message.  The DSL and the CLI's own checks refuse most of
these inputs first, so only direct library calls, and a few CLI usage errors,
reach them."""

import json

import pytest

from strata_lab import cli, lattice, pbw, qdet, strat, zoo
from strata_lab.coeff import Coefficient, ContextMismatch, ParamContext, UnitMonomial
from strata_lab.dsl import DslError, print_presentation
from strata_lab.grading import check_homogeneous_rules, weight_of
from strata_lab.pbw import Element, Presentation, PresentationError, Rule

NONE = ParamContext([])
Q = ParamContext(["q"])


def plane(**kw):
    """Generators x < y with y*x = x*y, a tail and weights as given."""
    context = kw.pop("context", NONE)
    swap = UnitMonomial(1, kw.pop("swap", (0,) * len(context)))
    rule = Rule(swap, kw.pop("tail", Element()))
    return Presentation(context, kw.pop("gens", ["x", "y"]), {(1, 0): rule}, **kw)


def torus():
    return zoo.quantum_torus_generic(2)


def weyl_gamma():
    return zoo.AntisymmetricMatrixSpec.generic(1)


LAM, SPEC = zoo.generic_matrix_data(2)
LAMBDA = "lambda must be a unit coefficient over the parameter context"
UNGRADED = "algebra g\ngenerators x y\nrules\ny * x = x*y + x^2\n"  # x^2 weighs (2, 0)
NOT_GRADED = "the rule for (y, x) is not homogeneous under the weights"


CASES = [
    # coeff
    (lambda: UnitMonomial(2, (0,)), ValueError, "sign must be +1 or -1"),
    (lambda: UnitMonomial(1, (0,)).to_coefficient(NONE), ContextMismatch,
     "unit monomial width does not match context"),
    (lambda: Coefficient(Q, {(1, 0): 1}), ValueError, "exponent width does not match context"),
    (lambda: Coefficient(Q, [((1, 0), 1), ((0,), 2)]), ValueError,
     "exponent width does not match context"),
    (lambda: Coefficient.one(Q) + "q", TypeError, "cannot combine Coefficient with str"),
    # pbw: the Presentation checks the DSL makes first, and element widths
    (lambda: plane(gens=["x", "x"]), PresentationError, "duplicate generator names"),
    (lambda: plane(weights=[(1, 0)]), PresentationError,
     "one weight vector per generator required"),
    (lambda: plane(weights=[(1, 0), (1,)]), PresentationError, "weight vectors of unequal rank"),
    (lambda: plane(context=Q, swap=()), PresentationError, "swap for pair (1,0) has wrong width"),
    (lambda: plane(tail=Element({(1,): Coefficient.one(NONE)})), PresentationError,
     "tail monomial width mismatch in pair (1,0)"),
    (lambda: plane(tail=Element({(1, 0): Coefficient.one(Q)})), ContextMismatch,
     "tail coefficient over a different context"),
    (lambda: plane().gen_index("z"), PresentationError, "unknown generator 'z'"),
    (lambda: pbw.multiply(plane(), Element({(1,): Coefficient.one(NONE)}),
                          pbw.monomial(plane(), (0, 0))),
     PresentationError, "element width does not match presentation"),
    (lambda: pbw.monomial(plane(), (1,)), PresentationError,
     "exponent width does not match presentation"),
    # strat, qdet, zoo
    (lambda: strat.check_quantum_affine(torus()), strat.StratError,
     "expected polynomial-kind generators"),
    (lambda: strat.brute_force_central_monomials(torus(), -1), ValueError,
     "box must be nonnegative"),
    (lambda: qdet.det_commutation_scalar(2, LAM, SPEC, 0, 1), ValueError,
     "indices out of range"),
    # one message for every bad lambda; each id names what its lambda lacks
    pytest.param(lambda: zoo.quantum_matrices(2, 2, Coefficient.one(Q), SPEC), zoo.BadMatrix,
                 LAMBDA,
                 id="<lambda>-BadMatrix-lambda must be a coefficient over the parameter context"),
    pytest.param(lambda: zoo.quantum_matrices(2, 2, 2 * LAM, SPEC), zoo.BadMatrix, LAMBDA,
                 id="<lambda>-BadMatrix-lambda must be a unit monomial"),
    (lambda: zoo.quantized_weyl([], weyl_gamma()), zoo.BadMatrix,
     "need one q parameter per degree"),
    (lambda: zoo.quantized_weyl([Coefficient.one(Q)], weyl_gamma()), zoo.BadMatrix,
     "q parameters must be unit coefficients over the shared context"),
    # CLI usage errors (a DslError): an `error` envelope and exit code 2
    (["nf", "x1", "--specialize", "q"], ("error", 2),
     "bad specialization 'q'; expected sym=rational"),
    (["center", "--hprime", "1,x"], ("error", 2), "bad generator subset '1,x'"),
    # coeff, lattice, grading and dsl refusals that only a library call reaches
    (lambda: Coefficient.symbol(Q, "z"), ValueError, "unknown parameter 'z'"),
    (lambda: lattice.det([[1, 2], [3]]), ValueError, "ragged matrix"),
    (lambda: lattice.matmul([[1, 2]], [[1, 2]]), ValueError, "shape mismatch"),
    (lambda: lattice.det([[1, 2]]), ValueError, "determinant needs a square matrix"),
    (lambda: weight_of(plane(), (1,)), ValueError, "exponent width does not match presentation"),
    (lambda: print_presentation(plane(gens=["x", "y$"])), DslError,
     "algebra 'A' cannot be printed: line 2, col 15: unexpected character '$'"),
    # more CLI usage errors; a zero mantissa with an exponent too long to compute
    # is zero, not TooManyDigits
    (["nf", "x1 x2"], ("error", 2), "line 1, col 4: trailing input 'x2'"),
    (["nf", "x1", "--specialize", "q_1_2=0e99999999"], ("error", 2),
     "symbol 'q_1_2' assigned zero; symbols are invertible"),
    # a generator index is range-checked, and an index or exponent must be integral
    (lambda: pbw.gen(plane(), -1), PresentationError, "generator index -1 out of range"),
    (lambda: pbw.gen(plane(), 2), PresentationError, "generator index 2 out of range"),
    (lambda: pbw.normal_form(plane(), [(0, 1.5)]), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: pbw.monomial(plane(), (0.5, 0)), TypeError,
     "'float' object cannot be interpreted as an integer"),
    # so must a weight, an exponent of a weighed monomial and a prime's member
    (lambda: plane(weights=[(1.5, 0), (0, 1)]), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: weight_of(plane(), (0.5, 2)), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: strat.HPrime((1.0, 2)), TypeError,
     "'float' object cannot be interpreted as an integer"),
    # the rule pairs Presentation alone judges; a refusal of one pair names it as .pair
    (lambda: Presentation(NONE, ["x", "y"], {}), PresentationError, "missing rule pair (y, x)"),
    (lambda: plane(tail=Element({(2, 0): Coefficient.one(NONE)}), invertible=True),
     PresentationError, "rule for (y, x) has a tail, but the generators are invertible"),
    (lambda: Presentation(NONE, ["x", "y"], {(1, 0): Rule(UnitMonomial(1, ())),
                                             (0, 1): Rule(UnitMonomial(1, ()))}),
     PresentationError, "rule pairs [(0, 1)] are not descending generator pairs"),
    # strat: rank n, but weights other than the identity rows
    (lambda: strat.hspec_quantum_affine(zoo.quantum_matrices_generic(2, 2)), strat.StratError,
     "expected the rank-n grading of a quantum affine space"),
    # grading: the weights commands answer only for weights the rules respect
    (lambda: check_homogeneous_rules(plane(tail=Element({(2, 0): Coefficient.one(NONE)}))),
     PresentationError, NOT_GRADED),
    ([UNGRADED, "weights", "y*x"], ("error", 2), NOT_GRADED),
    ([UNGRADED, "eigencheck", "y*x"], ("error", 2), NOT_GRADED),
]

# The rule pair each refusal names, for those that name one.
PAIRS = {"missing rule pair (y, x)": (1, 0),
         "rule for (y, x) has a tail, but the generators are invertible": (1, 0),
         NOT_GRADED: (1, 0)}


@pytest.mark.parametrize("call,error,message", CASES)
def test_refusal_type_and_message(tmp_path, capsys, call, error, message):
    if isinstance(call, list):  # a command line, over quantum_affine(n=2) or a given source
        source, command, *rest = call if "\n" in call[0] else ["use quantum_affine(n=2)\n", *call]
        path = tmp_path / "source.txt"
        path.write_text(source, encoding="utf-8")
        code = cli.run([command, str(path), *rest])
        report = json.loads(capsys.readouterr().out)
        assert (report["status"], code, report["results"]["message"]) == (*error, message)
        return
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
    assert getattr(info.value, "pair", None) == PAIRS.get(message)
