"""Line coverage of src/strata_lab by the Tier-1 tests, from the standard library.

    python tests/linecov.py

runs the Tier-1 tests in this process under sys.settrace, recording every
line that runs in a frame of src/strata_lab, and prints each executable line
that never ran.  A line is executable when a statement starts on it and the
compiler emits code for it.  Tests that start a CLI subprocess are not
traced.  The run takes about four times as long as Tier-1 untraced.

Each never-run line must be listed in ALLOWED, keyed by (file, stripped line
text), with the reason it stays.  Only three kinds of line are listed:
self-checks that fire only on a bug (the reason names the mutant that
reaches them), entry-point lines that the console-script step of CI runs,
and branches whose reachability is not decided.  The exit code is 0 when
the tests pass, every never-run line is listed and every listed line is
never run; otherwise 1.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "strata_lab"

SELF_CHECK = "self-check that fires only on a bug; the mutant that reaches it: "
ENTRY = "entry point; CI's console-script step runs it in a subprocess"

ALLOWED = {
    ("cli.py", 'raise CliFailure("determinant normality failed", results)'):
        SELF_CHECK + "qdet.det_commutation_scalar with i and j swapped",
    ("cli.py", 'raise CliFailure("stratum center box check failed", results)'):
        SELF_CHECK + "lattice.in_row_span returning any(vec)",
    ("cli.py", "sys.exit(run(sys.argv[1:]))"): ENTRY,
    ("cli.py", "main()"): ENTRY,
    ("grading.py", 'warnings.warn("proportionality ratio is not a single Laurent term; "'):
        "undecided: c*g and g*c proportional by a scalar of two or more terms; "
        "no zoo family has one, nor had 3,040 random small presentations with tails",
    ("lattice.py", 'raise AssertionError("HNF verification failed: U*A != H")'):
        SELF_CHECK + "hnf's back-substitution not updating U",
    ("lattice.py", 'raise AssertionError("HNF verification failed: U not unimodular")'):
        SELF_CHECK + "_eliminate not dividing by the previous pivot",
    ("lattice.py", 'raise AssertionError("kernel verification failed: A*v != 0")'):
        SELF_CHECK + "kernel_basis taking the rows of U whose H row is nonzero",
    ("lattice.py", 'raise AssertionError("kernel verification failed: wrong rank")'):
        SELF_CHECK + "kernel_basis reading only the first cols - 1 rows of U",
    ("strat.py", 'raise AssertionError("kernel vector is not central in the torus")'):
        SELF_CHECK + "stratum_report dropping its last nonzero exponent row",
    ("strat.py", 'raise AssertionError("separating generator failed its normality certificate")'):
        SELF_CHECK + "scalar_normality_check testing right == left.scale(mu)",
    ("strat.py", "open_ok = False"):
        SELF_CHECK + "stratification_axioms_check meeting the primes of height d, not d + 1",
}


def executable_lines(path: Path) -> set[int]:
    """The lines of path where a statement starts and code is emitted."""
    text = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    emitted, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        emitted.update(line for *_, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & emitted


def traced_run(args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args in this process and the lines that ran, per file
    name of src/strata_lab."""
    ran = {path.name: set() for path in SRC.glob("*.py")}
    prefix = str(SRC) + os.sep

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = ran[name[len(prefix):]]

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    sys.settrace(call)  # no test starts a thread
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def never_run(ran: dict[str, set[int]]) -> dict[tuple[str, int], str]:
    """(file name, line number) -> stripped text of each executable line not in ran."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for number in sorted(executable_lines(path) - ran[path.name]):
            out[path.name, number] = text[number - 1].strip()
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if any(name == "strata_lab" or name.startswith("strata_lab.") for name in sys.modules):
        raise SystemExit("strata_lab was imported before the tracer started")
    status, ran = traced_run(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = never_run(ran)
    unlisted = {key: text for key, text in missed.items() if (key[0], text) not in ALLOWED}
    stale = set(ALLOWED) - {(name, text) for (name, _), text in missed.items()}
    total = sum(len(executable_lines(path)) for path in SRC.glob("*.py"))
    print(f"linecov: {total} executable lines, {len(missed)} never ran, "
          f"{len(missed) - len(unlisted)} of them listed")
    for (name, number), text in sorted(unlisted.items()):
        print(f"never ran, not listed: src/strata_lab/{name}:{number}: {text}")
    for name, text in sorted(stale):
        print(f"listed, but ran or gone: src/strata_lab/{name}: {text}")
    return 1 if status or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
