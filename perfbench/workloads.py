"""Seeded job lists for the three workloads, and the code that runs and checks them.

A job is one user-level computation: a short sequence of public library calls,
or one in-process `cli.run(argv)` with stdout captured.  `make_specs` turns a
workload name and a seed into a JSON-serialisable list of job specs; the same
seed gives a byte-identical list.  `Workload` builds the presentations and
inputs the specs name (this is the timed set-up) and the runnable jobs.

Each list is a sequence of rounds.  A round has the same number of jobs of
each kind on every seed and in every round, so differences come from the
drawn words, elements and primes, not from the mix.  A run executes whole
rounds and wraps around at the end of the list; every round has at least
100 jobs, so a per-round 90th percentile has ten samples above it.

Library calls go through module attributes (`pbw.normal_form`, not a local
alias), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from collections import namedtuple
from fractions import Fraction
from math import comb

import oracle

WORKLOADS = ("rewrite", "laws", "strata")

# Per-call rewrite budget of every engine call in `rewrite` (the library's own
# `fuel=` argument, the budget `--fuel` sets).  At this budget eight of the
# sixteen reversed-generator words end in FuelExhausted when the benchmark was
# written; at the default budget of 10**6 the worst two cost 14.5 s and 57 s.
# Keep it fixed so that those cases can leave the failures, not the list.
REWRITE_FUEL = 10_000

# Families with tails, as DSL sources, and the longest random word drawn in
# each.  Words run from 6 letters up to the cap; the caps keep random words
# well inside REWRITE_FUEL (cost grows exponentially with length in these
# families), and longer words are covered by the fixed reversed-generator cases.
TAILED = {
    "weyl2": ("use quantized_weyl(n=2)\n", 10),
    "weyl3": ("use quantized_weyl(n=3)\n", 9),
    "symp2": ("use quantum_symplectic(n=2)\n", 12),
    "symp3": ("use quantum_symplectic(n=3)\n", 11),
    "eucl4": ("use quantum_euclidean(n=4)\n", 12),
    "eucl5": ("use quantum_euclidean(n=5)\n", 10),
    "mat23": ("use quantum_matrices(m=2, n=3)\n", 11),
    "mat33": ("use quantum_matrices(m=3, n=3)\n", 10),
}
PLANE = "use quantum_affine(n=2, single_param=true)\n"

# Every zoo family once, for the confluence jobs of `laws`.
ZOO_TEXTS = [
    "use quantum_affine(n=3)\n", "use quantum_affine(n=4, single_param=true)\n",
    "use quantum_torus(n=3)\n", "use quantum_torus(n=4, single_param=true)\n",
    "use quantum_matrices(m=2, n=2)\n", "use quantum_matrices(m=2, n=2, single_param=true)\n",
    "use quantum_matrices(m=2, n=3)\n", "use quantum_matrices(m=3, n=3)\n",
    "use quantum_matrices(m=3, n=3, single_param=true)\n",
    "use quantized_weyl(n=2)\n", "use quantized_weyl(n=3)\n",
    "use quantum_symplectic(n=2)\n", "use quantum_symplectic(n=3)\n",
    "use quantum_euclidean(n=4)\n", "use quantum_euclidean(n=5)\n",
]

ROUNDS = {"rewrite": 10, "laws": 40, "strata": 10}


def affine_text(n: int, single: bool) -> str:
    return f"use quantum_affine(n={n}{', single_param=true' if single else ''})\n"


# -- job specs -------------------------------------------------------------------


def make_specs(workload: str, seed: int) -> list[dict]:
    """The job list of a workload: a pure function of the name and the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    build = {"rewrite": _rewrite_round, "laws": _laws_round, "strata": _strata_round}[workload]
    specs = []
    for r in range(ROUNDS[workload]):
        rnd = build(rng)
        rng.shuffle(rnd)
        for spec in rnd:
            spec["round"] = r
        specs.extend(rnd)
    for k, spec in enumerate(specs):
        spec["id"] = k
    return specs


def specs_digest(specs) -> str:
    import hashlib
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Generator counts and context widths of the TAILED families, written out so
# that the job lists depend on the seed alone and not on the library.
def _ngens(fam: str) -> int:
    return {"weyl2": 4, "weyl3": 6, "symp2": 4, "symp3": 6, "eucl4": 4, "eucl5": 5,
            "mat23": 6, "mat33": 9}[fam]


def _random_word(rng, n: int, length: int) -> list[int]:
    return [rng.randrange(n) for _ in range(length)]


def _random_monomial(rng, n: int, lo: int, hi: int) -> list[int]:
    exps = [0] * n
    for _ in range(rng.randint(lo, hi)):
        exps[rng.randrange(n)] += 1
    return exps


def _rewrite_round(rng) -> list[dict]:
    jobs = []
    for fam, (_, cap) in TAILED.items():
        n = _ngens(fam)
        for e in (2, 3):
            jobs.append({"kind": "nf_reversed", "fam": fam, "power": e})
        for length in range(6, cap + 1):
            for _ in range(4):
                jobs.append({"kind": "nf_word", "fam": fam,
                             "word": _random_word(rng, n, length)})
        for _ in range(8):
            jobs.append({"kind": "multiply", "fam": fam,
                         "a": _random_element(rng, fam, n), "b": _random_element(rng, fam, n)})
        for _ in range(4):
            terms = [[rng.choice([1, 2, 3, -1, -2]), _random_word(rng, n, rng.randint(3, 6))]
                     for _ in range(rng.randint(1, 3))]
            jobs.append({"kind": "cli_nf", "fam": fam, "terms": terms})
    for k in (250, 500, 1000):
        jobs.append({"kind": "nf_plane", "k": k})
    for k in (6, 8, 10):
        jobs.append({"kind": "dsl_power", "k": k})
    return jobs


def _context_width(fam: str) -> int:
    return {"weyl2": 3, "weyl3": 6, "symp2": 1, "symp3": 1, "eucl4": 1, "eucl5": 1,
            "mat23": 4, "mat33": 4}[fam]


def _random_element(rng, fam: str, n: int) -> list:
    width = _context_width(fam)
    return [[rng.choice([1, 2, -1, 3]), [rng.randint(-1, 1) for _ in range(width)],
             _random_monomial(rng, n, 1, 3)] for _ in range(2)]


def _random_coefficient(rng, width: int, terms: int) -> list:
    return [[[rng.randint(-2, 2) for _ in range(width)], rng.choice([1, -1, 2, -3, 5])]
            for _ in range(terms)]


def _random_point(rng, width: int) -> list[str]:
    return [str(Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 4)))
            for _ in range(width)]


def _laws_round(rng) -> list[dict]:
    return _laws_mix(rng) + _laws_mix(rng)


def _laws_mix(rng) -> list[dict]:
    jobs = [{"kind": "diamond", "text": t} for t in ZOO_TEXTS]
    for n in (2, 3, 4):
        for single in (False, True):
            jobs.append({"kind": "det_normality", "n": n, "single": single})
            jobs.append({"kind": "sl", "n": n, "single": single})
    for single in (False, True):
        for d in range(1, 6):
            jobs.append({"kind": "hilbert", "single": single, "degree": d})
    for n in (2, 3, 4, 5):
        for single in (False, True):
            jobs.append({"kind": "normal_monomial", "n": n, "single": single,
                         "exps": _random_monomial(rng, n, 1, 4), "c": rng.choice([1, 2, -3])})
    for n in (2, 3):
        for single in (False, True):
            jobs.append({"kind": "normal_det", "n": n, "single": single,
                         "unit": rng.choice([1, -1])})
    # Coefficient arithmetic over the widest contexts the zoo builds:
    # quantized Weyl n=3 (6 symbols), generic affine n=5 (10) and n=7 (21).
    for width in (6, 10, 21):
        for _ in range(3):
            jobs.append({"kind": "coeff_mul", "width": width,
                         "a": _random_coefficient(rng, width, 5),
                         "b": _random_coefficient(rng, width, 5),
                         "point": _random_point(rng, width)})
        for _ in range(2):
            jobs.append({"kind": "coeff_pow", "width": width, "k": rng.randint(2, 4),
                         "a": _random_coefficient(rng, width, 3),
                         "point": _random_point(rng, width)})
        jobs.append({"kind": "coeff_specialize", "width": width,
                     "a": _random_coefficient(rng, width, 8), "point": _random_point(rng, width)})
    jobs.append({"kind": "cli_verify", "text": rng.choice(ZOO_TEXTS)})
    jobs.append({"kind": "cli_verify", "text": rng.choice(ZOO_TEXTS)})
    for n in (2, 3):
        jobs.append({"kind": "cli_qdet_verify", "n": n, "single": rng.random() < 0.5})
    jobs.append({"kind": "cli_hilbert", "text": rng.choice(ZOO_TEXTS[:2] + ZOO_TEXTS[4:6]),
                 "degree": rng.randint(2, 4)})
    for _ in range(2):
        n = rng.randint(2, 4)
        jobs.append({"kind": "cli_normalcheck", "n": n, "single": rng.random() < 0.5,
                     "exps": _random_monomial(rng, n, 1, 3)})
    return jobs


def _random_prime(rng, n: int, size: int) -> list[int]:
    return sorted(rng.sample(range(1, n + 1), size))


def _strata_round(rng) -> list[dict]:
    jobs = []
    for n in range(3, 8):
        for single in (False, True):
            base = {"n": n, "single": single}
            jobs.append({"kind": "hspec", **base})
            for size in range(n + 1):
                for members in itertools.combinations(range(1, n + 1), size):
                    jobs.append({"kind": "report", **base, "members": list(members)})
            jobs.append({"kind": "covers", **base})
            # About 1 s at n=6 and 19 s at n=7 when this list was made: n=7 does not fit a run.
            if n <= 6:
                jobs.append({"kind": "axioms", **base})
            jobs.append({"kind": "box", **base, "members": _random_prime(rng, n, n - min(n, 4)),
                         "box": 1})
            large = _random_prime(rng, n, rng.randint(1, n))
            small = sorted(rng.sample(large, rng.randint(0, len(large) - 1)))
            jobs.append({"kind": "witness", **base, "small": small, "large": large})
    for single in (False, True):
        jobs.append({"kind": "cli_hspec", "n": rng.randint(3, 5), "single": single})
        jobs.append({"kind": "cli_strata_box", "n": rng.randint(3, 4), "single": single})
        n = rng.randint(5, 7)
        jobs.append({"kind": "cli_center", "n": n, "single": single,
                     "members": _random_prime(rng, n, rng.randint(0, n))})
        jobs.append({"kind": "cli_poset", "n": rng.randint(3, 5), "single": single})
    return jobs


# -- runnable jobs -----------------------------------------------------------------


class Job:
    """A prepared job: `run()` is timed, `check(result)` is not."""

    __slots__ = ("spec", "run", "check")

    def __init__(self, spec, run, check):
        self.spec = spec
        self.run = run
        self.check = check


CliResult = namedtuple("CliResult", "code text")


def run_cli(argv, stdin_text: str, on_output=None) -> CliResult:
    """One in-process `cli.run(argv)` with the presentation on stdin and stdout captured."""
    from strata_lab import cli
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    finally:
        sys.stdin = old_stdin
    text = out.getvalue()
    if on_output is not None:
        on_output(len(text.encode()))
    return CliResult(code, text)


def _report(res: CliResult):
    """The `results` of a successful CLI report, or None."""
    if res.code != 0:
        return None
    doc = json.loads(res.text)
    return doc["results"] if doc.get("status") == "ok" else None


class Workload:
    """Presentations and inputs built from the specs, plus per-run oracle caches."""

    def __init__(self, name: str, specs: list[dict], hooks=None):
        from strata_lab import dsl
        self.name = name
        self.hooks = hooks
        self.pres = {}
        self._reducers = {}
        self._expected = {}
        self._centers = {}
        self.rounds = [[] for _ in range(max(s["round"] for s in specs) + 1)]
        for spec in specs:
            for text in self._texts_of(spec):
                if text not in self.pres:
                    self.pres[text] = dsl.parse(text)
            self.rounds[spec["round"]].append(getattr(self, "_job_" + spec["kind"])(spec))

    # Presentations the set-up parses once; `laws` parses its own inside each job.
    def _texts_of(self, spec):
        if "fam" in spec:
            return [TAILED[spec["fam"]][0]]
        if spec["kind"] in ("nf_plane", "dsl_power"):
            return [PLANE]
        if self.name == "strata" and "n" in spec:
            return [affine_text(spec["n"], spec["single"])]
        if spec["kind"] in ("normal_monomial", "cli_normalcheck"):
            return [affine_text(spec["n"], spec["single"])]
        return []

    def reducer(self, text) -> oracle.Reducer:
        if text not in self._reducers:
            self._reducers[text] = oracle.Reducer(self.pres[text])
        return self._reducers[text]

    def forget_answers(self) -> None:
        """Drop the oracle caches, so that checked rounds leave no memory behind.

        Stratum centers stay: there is one per stable prime of the ten strata
        presentations, whatever the number of rounds."""
        self._reducers.clear()
        self._expected.clear()

    def expected(self, key, compute):
        """Oracle answer for a key, computed once until the caches are dropped."""
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def _output(self, nbytes):
        if self.hooks is not None:
            self.hooks.count("cli.output_bytes", nbytes)

    def _arith(self):
        if self.hooks is not None:
            return self.hooks.span("coeff.arith")
        return contextlib.nullcontext()

    # -- rewrite ---------------------------------------------------------------

    def _nf_job(self, spec, text, word):
        from strata_lab import pbw
        p = self.pres[text]
        letters = [(i, e) for i, e in word]

        def run():
            return pbw.normal_form(p, letters, fuel=REWRITE_FUEL)

        def check(result):
            want = self.expected(("word", text, tuple(letters)),
                                 lambda: self.reducer(text).word(letters))
            return result.terms == want
        return Job(spec, run, check)

    def _job_nf_word(self, spec):
        return self._nf_job(spec, TAILED[spec["fam"]][0], [(i, 1) for i in spec["word"]])

    def _job_nf_reversed(self, spec):
        text = TAILED[spec["fam"]][0]
        n = _ngens(spec["fam"])
        return self._nf_job(spec, text, [(i, spec["power"]) for i in reversed(range(n))])

    def _job_nf_plane(self, spec):
        return self._nf_job(spec, PLANE, [(1, spec["k"]), (0, 1)])

    def _job_dsl_power(self, spec):
        from strata_lab import dsl
        p = self.pres[PLANE].with_fuel(REWRITE_FUEL)
        k = spec["k"]
        expr = f"(x1+x2)^{k}"

        def run():
            return dsl.evaluate_expression(p, expr)

        def check(result):
            def compute():
                red = self.reducer(PLANE)
                total = {}
                for word in itertools.product((0, 1), repeat=k):
                    for m, c in red.word([(i, 1) for i in word]).items():
                        oracle._add(total, m, c)
                return total
            return result.terms == self.expected(("power", k), compute)
        return Job(spec, run, check)

    def _element(self, p, terms):
        from strata_lab.coeff import Coefficient
        from strata_lab.pbw import Element
        return Element({tuple(m): Coefficient.monomial(p.context, c, u) for c, u, m in terms})

    def _job_multiply(self, spec):
        from strata_lab import pbw
        text = TAILED[spec["fam"]][0]
        p = self.pres[text]
        a, b = self._element(p, spec["a"]), self._element(p, spec["b"])

        def run():
            return pbw.multiply(p, a, b, fuel=REWRITE_FUEL)

        def check(result):
            return result.terms == self.reducer(text).product(a.terms, b.terms)
        return Job(spec, run, check)

    def _job_cli_nf(self, spec):
        from strata_lab.coeff import Coefficient
        text = TAILED[spec["fam"]][0]
        p = self.pres[text]
        parts = []
        for c, word in spec["terms"]:
            body = "*".join(p.generators[i] for i in word)
            parts.append(f"{'- ' if c < 0 else '+ '}{abs(c)}*{body}")
        expr = " ".join(parts).lstrip("+ ")
        argv = ["nf", "-", expr, "--fuel", str(REWRITE_FUEL)]

        def run():
            return run_cli(argv, text, self._output)

        def check(result):
            got = _report(result)
            if got is None:
                return False
            red = self.reducer(text)
            want = {}
            for c, word in spec["terms"]:
                scalar = Coefficient.integer(p.context, c)
                for m, v in red.word([(i, 1) for i in word], scalar).items():
                    oracle._add(want, m, v)
            return {tuple(t["monomial"]): t["coeff"] for t in got["terms"]} == \
                {m: str(v) for m, v in want.items()}
        return Job(spec, run, check)

    # -- laws ------------------------------------------------------------------

    def _job_diamond(self, spec):
        from strata_lab import dsl, pbw
        text = spec["text"]

        def run():
            p = dsl.parse(text)
            return p.ngens, pbw.diamond_check(p)

        def check(result):
            n, reports = result
            return len(reports) == comb(n, 3) and all(r.resolved for r in reports)
        return Job(spec, run, check)

    def _matrix_data(self, n, single):
        from strata_lab import zoo
        return zoo.single_param_matrix_data(n) if single else zoo.generic_matrix_data(n)

    def _job_det_normality(self, spec):
        from strata_lab import qdet
        n, single = spec["n"], spec["single"]

        def run():
            lam, p = self._matrix_data(n, single)
            return qdet.verify_det_normality(n, lam, p)

        def check(report):
            return report.passed and len(report.identities) == n * n
        return Job(spec, run, check)

    def _job_sl(self, spec):
        from strata_lab import qdet
        n, single = spec["n"], spec["single"]

        def run():
            lam, p = self._matrix_data(n, single)
            return qdet.sl_condition(n, lam, p)

        # The standard single-parameter data give SL_q(n), whose determinant is
        # central; independent generic parameters never make it central.
        return Job(spec, run, lambda central: central is single)

    def _job_hilbert(self, spec):
        from strata_lab import dsl, pbw
        text = f"use quantum_matrices(m=3, n=3{', single_param=true' if spec['single'] else ''})\n"
        d = spec["degree"]

        def run():
            return pbw.hilbert_count(dsl.parse(text), d)

        return Job(spec, run, lambda count: count == comb(9 + d - 1, d))

    def _job_normal_monomial(self, spec):
        from strata_lab import dsl, grading, pbw
        from strata_lab.coeff import Coefficient
        text = affine_text(spec["n"], spec["single"])
        ctx = self.pres[text].context
        exps = tuple(spec["exps"])
        scalar = Coefficient.integer(ctx, spec["c"])

        def run():
            p = dsl.parse(text)
            return grading.scalar_normality_check(p, pbw.monomial(p, exps, scalar))

        def check(cert):
            return cert is not None and list(cert.mus) == monomial_mus(self.pres[text], exps)
        return Job(spec, run, check)

    def _job_normal_det(self, spec):
        from strata_lab import grading, qdet, zoo
        n, single = spec["n"], spec["single"]

        def run():
            lam, p = self._matrix_data(n, single)
            pres = zoo.quantum_matrices(n, n, lam, p)
            det = qdet.quantum_determinant(n, lam, p).scale(spec["unit"])
            return grading.scalar_normality_check(pres, det)

        def check(cert):
            if cert is None:
                return False
            lam, p = self._matrix_data(n, single)
            want = [qdet.det_commutation_scalar(n, lam, p, i, j)
                    for i in range(1, n + 1) for j in range(1, n + 1)]
            return list(cert.mus) == want
        return Job(spec, run, check)

    def _coefficient(self, width, terms):
        from strata_lab.coeff import Coefficient, ParamContext
        ctx = ParamContext([f"t{k}" for k in range(width)])
        return Coefficient(ctx, [(tuple(e), c) for e, c in terms])

    def _job_coeff_mul(self, spec):
        a = self._coefficient(spec["width"], spec["a"])
        b = self._coefficient(spec["width"], spec["b"])
        point = [Fraction(v) for v in spec["point"]]

        def run():
            with self._arith():
                return a * b

        return Job(spec, run, lambda r: evaluate(r, point) == evaluate(a, point) * evaluate(b, point))

    def _job_coeff_pow(self, spec):
        a = self._coefficient(spec["width"], spec["a"])
        k = spec["k"]
        point = [Fraction(v) for v in spec["point"]]

        def run():
            with self._arith():
                return a ** k

        return Job(spec, run, lambda r: evaluate(r, point) == evaluate(a, point) ** k)

    def _job_coeff_specialize(self, spec):
        a = self._coefficient(spec["width"], spec["a"])
        point = [Fraction(v) for v in spec["point"]]
        assignment = dict(zip(a.context.symbols, point))

        def run():
            with self._arith():
                return a.specialize(assignment)

        return Job(spec, run, lambda r: r == evaluate(a, point))

    def _job_cli_verify(self, spec):
        text = spec["text"]

        def run():
            return run_cli(["verify", "-"], text, self._output)

        def check(res):
            got = _report(res)
            return got is not None and got["confluent"] and not got["unresolved"]
        return Job(spec, run, check)

    def _job_cli_qdet_verify(self, spec):
        n = spec["n"]
        argv = ["qdet-verify", "--n", str(n)] + (["--single-param"] if spec["single"] else [])

        def run():
            return run_cli(argv, "", self._output)

        def check(res):
            got = _report(res)
            return got is not None and got["passed"] and len(got["identities"]) == n * n
        return Job(spec, run, check)

    def _job_cli_hilbert(self, spec):
        text = spec["text"]
        argv = ["hilbert", "-", "--degree", str(spec["degree"])]

        def run():
            return run_cli(argv, text, self._output)

        def check(res):
            got = _report(res)
            return got is not None and got["matches"] and all(
                c["count"] == c["commutative_count"] for c in got["counts"]) and \
                len(got["counts"]) == spec["degree"] + 1
        return Job(spec, run, check)

    def _job_cli_normalcheck(self, spec):
        text = affine_text(spec["n"], spec["single"])
        p = self.pres[text]
        exps = tuple(spec["exps"])
        expr = "*".join(f"{g}^{e}" for g, e in zip(p.generators, exps) if e)

        def run():
            return run_cli(["normalcheck", "-", expr], text, self._output)

        def check(res):
            got = _report(res)
            want = {g: str(mu) for g, mu in zip(p.generators, monomial_mus(p, exps))}
            return got is not None and got["scalar_normal"] and got["mus"] == want
        return Job(spec, run, check)

    # -- strata ----------------------------------------------------------------

    def _spres(self, spec):
        return self.pres[affine_text(spec["n"], spec["single"])]

    def _job_hspec(self, spec):
        from strata_lab import strat
        p = self._spres(spec)
        want = expected_primes(spec["n"])

        def run():
            return strat.hspec_quantum_affine(p)

        return Job(spec, run, lambda primes: [list(w.members) for w in primes] == want)

    def _job_report(self, spec):
        from strata_lab import strat
        p = self._spres(spec)
        w = strat.HPrime(tuple(spec["members"]))

        def run():
            return strat.stratum_report(p, w)

        def check(report):
            return self.center_ok(p, spec["members"], report.center_rank,
                                  [list(v) for v in report.center_basis])
        return Job(spec, run, check)

    def center_ok(self, p, members, rank, basis) -> bool:
        """Stratum center against the box oracle: central basis, full rank, saturated in the box."""
        members = tuple(members)

        key = (p.name, p.context, members)
        if key not in self._centers:
            self._centers[key] = oracle.kernel_rank(p, members), oracle.central_in_box(p, members, 1)
        want_rank, central = self._centers[key]
        if rank != want_rank or len(basis) != rank:
            return False
        survivors = p.ngens - len(members)
        if any(len(v) != survivors or not oracle.is_central(p, members, v) for v in basis):
            return False
        return all(oracle.in_integer_span(basis, v) for v in central)

    def _job_covers(self, spec):
        from strata_lab import strat
        p = self._spres(spec)
        n = spec["n"]

        def run():
            return strat.poset_covers(strat.hspec_quantum_affine(p))

        def check(covers):
            got = {(a.members, b.members) for a, b in covers}
            return len(got) == len(covers) == n * 2 ** (n - 1) and all(
                set(a) < set(b) and len(b) == len(a) + 1 for a, b in got)
        return Job(spec, run, check)

    def _job_axioms(self, spec):
        from strata_lab import strat
        p = self._spres(spec)

        def run():
            return strat.stratification_axioms_check(p)

        return Job(spec, run, lambda report: report.passed and
                   len(report.locally_closed) == 2 ** spec["n"])

    def _job_box(self, spec):
        from strata_lab import strat
        p = self._spres(spec)
        w = strat.HPrime(tuple(spec["members"]))
        box = spec["box"]

        def run():
            return strat.brute_force_central_monomials(strat.stratum_torus(p, w), box)

        def check(found):
            want = oracle.central_in_box(p, tuple(spec["members"]), box)
            return [tuple(v) for v in found] == want
        return Job(spec, run, check)

    def _job_witness(self, spec):
        from strata_lab import strat
        p = self._spres(spec)
        small, large = strat.HPrime(tuple(spec["small"])), strat.HPrime(tuple(spec["large"]))

        def run():
            return strat.normal_separation_witness(p, small, large)

        def check(wit):
            i = min(set(spec["large"]) - set(spec["small"]))
            survivors = [g for g in range(p.ngens) if (g + 1) not in spec["small"]]
            exps = tuple(1 if g == i - 1 else 0 for g in survivors)
            q = wit.quotient
            return (wit.generator == i and q.generators == tuple(p.generators[g] for g in survivors)
                    and list(wit.certificate.mus) == monomial_mus(q, exps))
        return Job(spec, run, check)

    def _job_cli_hspec(self, spec):
        text = affine_text(spec["n"], spec["single"])
        want = expected_primes(spec["n"])

        def run():
            return run_cli(["hspec", "-"], text, self._output)

        def check(res):
            got = _report(res)
            return got is not None and got["hprimes"] == want and got["count"] == len(want)
        return Job(spec, run, check)

    def _job_cli_strata_box(self, spec):
        text = affine_text(spec["n"], spec["single"])
        p = self.pres[text]

        def run():
            return run_cli(["strata", "-", "--box", "1"], text, self._output)

        def check(res):
            got = _report(res)
            return got is not None and len(got["strata"]) == 2 ** spec["n"] and all(
                r["box_check"] and self.center_ok(p, r["hprime"], r["center_rank"], r["center_basis"])
                for r in got["strata"])
        return Job(spec, run, check)

    def _job_cli_center(self, spec):
        text = affine_text(spec["n"], spec["single"])
        p = self.pres[text]
        argv = ["center", "-", "--hprime", ",".join(map(str, spec["members"]))]

        def run():
            return run_cli(argv, text, self._output)

        def check(res):
            got = _report(res)
            return got is not None and got["hprime"] == spec["members"] and self.center_ok(
                p, spec["members"], got["center_rank"], got["center_basis"])
        return Job(spec, run, check)

    def _job_cli_poset(self, spec):
        text = affine_text(spec["n"], spec["single"])
        p = self.pres[text]
        n = spec["n"]

        def run():
            return run_cli(["poset", "-"], text, self._output)

        def check(res):
            got = _report(res)
            if got is None or len(got["nodes"]) != 2 ** n or len(got["edges"]) != n * 2 ** (n - 1):
                return False
            return all(node["center_rank"] == oracle.kernel_rank(p, tuple(node["hprime"]))
                       for node in got["nodes"])
        return Job(spec, run, check)


# -- independent expected values ---------------------------------------------------


def expected_primes(n: int) -> list[list[int]]:
    """Stable primes of quantum affine n-space: every generator subset, by (size, members)."""
    return [list(c) for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)]


def monomial_mus(p, exps):
    """mu_g with c*x_g = mu_g * x_g*c for c a monomial of a tail-free presentation, from the swaps."""
    from strata_lab.coeff import Coefficient
    out = []
    for g in range(p.ngens):
        mu = Coefficient.one(p.context)
        for j in range(g + 1, p.ngens):
            mu = mu.scale_unit(p.rules[(j, g)].swap, exps[j])
        for i in range(g):
            mu = mu.scale_unit(p.rules[(g, i)].swap, -exps[i])
        out.append(mu)
    return out


def evaluate(c, point) -> Fraction:
    """Exact value of a Laurent polynomial at a rational point, term by term."""
    total = Fraction(0)
    for exps, k in c.terms.items():
        term = Fraction(k)
        for v, e in zip(point, exps):
            term *= v ** e
        total += term
    return total
