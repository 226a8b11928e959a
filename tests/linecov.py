"""Line and branch coverage of src/strata_lab by the Tier-1 tests, from the
standard library.

    python tests/linecov.py

runs the Tier-1 tests in this process under sys.settrace, recording every
move from one line to the next in each frame of src/strata_lab, and prints
each executable line that never ran and each branch that did not go both
ways.  A line is executable when a statement starts on it and the compiler
emits code for it.  A branch is an `if`, `elif` or `while` statement whose
condition is not a constant (`while True:` is skipped).  It goes "in" when
control moves from its condition's lines into its body, and "out" on any
other move from those lines, a return included, since falling off the end of
a function makes no line event; a move that an exception causes goes
neither way.  The tool decides statements, not the operands of `and` and
`or`.  Tests that start a CLI subprocess are not traced.  A code object is
traced only until its lines and branches are all decided, and the run takes
about three times as long as Tier-1 untraced; it prints its wall time.

Each never-run line must be listed in ALLOWED, keyed by (file, stripped line
text), with the reason it stays.  A branch that ran but went one way passes
when its untaken side starts on such a listed line (the "in" side at its
body's first line, the "out" side at its `else` or `elif` line); otherwise
it must be listed, keyed by (file, stripped first line of the statement,
untaken side).  Line rows and branch rows alike are of three kinds:
self-checks that fire only on a bug (the reason names the mutant that
reaches them), entry points that the console-script step of CI runs, and
branches whose reachability is not decided.  The exit code is 0 when the
tests pass, every never-run line and one-way branch is listed and every row
is still needed; otherwise 1.
"""

import ast
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "strata_lab"

SELF_CHECK = "self-check that fires only on a bug; the mutant that reaches it: "
ENTRY = "entry point; CI's console-script step runs it in a subprocess"

ALLOWED = {
    ("cli.py", 'raise CliFailure("determinant normality failed", results)'):
        SELF_CHECK + "qdet.det_commutation_scalar with i and j swapped",
    ("cli.py", 'raise CliFailure("stratum center box check failed", results)'):
        SELF_CHECK + "lattice.in_row_span keeping every vector, not only those "
        "that reduce to zero",
    ("cli.py", "sys.exit(run(sys.argv[1:]))"): ENTRY,
    ("cli.py", "main()"): ENTRY,
    ("grading.py", 'warnings.warn("proportionality ratio is not a single Laurent term; "'):
        "undecided: c*g and g*c proportional by a scalar of two or more terms; "
        "no zoo family has one, nor had 3,040 random small presentations with tails",
    ("grading.py", "if right:", "out"):
        "undecided: c*g = g*c = 0 for a generator g needs zero divisors; no test has "
        "them, nor had 209,497 random small elements on 10,520 random 2-3-generator "
        "presentations with degree-2 tails; without the guard max() of no terms raises",
    ("lattice.py", 'raise AssertionError("HNF verification failed: U*A != H")'):
        SELF_CHECK + "hnf's back-substitution not updating U",
    ("lattice.py", 'raise AssertionError("HNF verification failed: U not unimodular")'):
        SELF_CHECK + "_eliminate not dividing by the previous pivot",
    ("lattice.py", 'raise AssertionError("kernel verification failed: A*v != 0")'):
        SELF_CHECK + "kernel_basis taking the rows of U whose H row is nonzero",
    ("lattice.py", 'raise AssertionError("kernel verification failed: wrong rank")'):
        SELF_CHECK + "kernel_basis reading only the first cols - 1 rows of U",
    ("strat.py", 'raise AssertionError("kernel vector is not central in the torus")'):
        SELF_CHECK + "stratum_reports dropping its last nonzero exponent row",
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


class Branch(NamedTuple):
    """An if, elif or while statement: its first line, the lines of its
    condition and of its body, and the first line of its else side, or None."""

    line: int
    test: range
    body: range
    orelse: int | None


def branches(path: Path) -> list[Branch]:
    """The if, elif and while statements of path whose condition is not a constant."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.If, ast.While)) and not isinstance(node.test, ast.Constant):
            out.append(Branch(node.lineno, range(node.lineno, node.test.end_lineno + 1),
                              range(node.body[0].lineno, node.body[-1].end_lineno + 1),
                              node.orelse[0].lineno if node.orelse else None))
    return sorted(out)


def sides(branch: Branch, after: dict[int, set[int]]) -> set[str]:
    """The ways branch went, given the lines each line moved to: "in" into its
    body, "out" anywhere else outside its condition, a return (line 0) included."""
    return {"in" if b in branch.body else "out"
            for a in branch.test for b in after.get(a, ()) if b not in branch.test}


def moved(moves: set[tuple[int, int]]) -> tuple[set[int], dict[int, set[int]]]:
    """The lines that moves reach, and each line -> the lines it moved to."""
    after = defaultdict(set)
    for a, b in moves:
        after[a].add(b)
    return {b for _, b in moves}, after


def settled(moves: set[tuple[int, int]], lines: set[int], branched: list[Branch]) -> bool:
    """Whether moves run each of lines and send each branch of branched both ways."""
    ran, after = moved(moves)
    return lines <= ran and all(len(sides(branch, after)) == 2 for branch in branched)


def traced_run(args) -> tuple[int, dict[str, set[tuple[int, int]]]]:
    """Run pytest with args in this process and the line-to-line moves made in
    frames of src/strata_lab, per file name.  Line 0 stands outside the frame's
    lines: a move from 0 starts the frame or follows an exception, and decides
    nothing; a move to 0 is a return.

    A code object stops being traced once its moves run each executable line it
    holds and send each of its branches both ways: no later move can change
    its verdict.  That is looked at on its 1st, 2nd, 4th, 8th, ... call, so a
    settled code object is traced for at most twice the calls it needed.  A
    comprehension or lambda holds no statement, so it settles on its first call
    and is never traced: its returns, made on the lines of the statement that
    holds it, must not decide that statement."""
    prefix = str(SRC) + os.sep
    files = {path.name: (executable_lines(path), branches(path)) for path in SRC.glob("*.py")}
    codes = {}  # code object -> [calls so far, or -1 once settled, moves, lines, branches]

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        state = codes.get(code)
        if state is None:
            lines, branched = files[code.co_filename[len(prefix):]]
            # the first line is the def's, run in the frame that defines the code
            own = {line for *_, line in code.co_lines()} - {code.co_firstlineno}
            if code.co_name[0] == "<" and code.co_name != "<module>":
                own = set()
            state = codes[code] = [0, set(), lines & own,
                                   [b for b in branched if not own.isdisjoint(b.test)]]
        calls, seen, lines, branched = state
        if calls < 0:
            return None
        state[0] = calls = calls + 1
        if not calls & (calls - 1) and settled(seen, lines, branched):
            state[0] = -1
            return None
        last = 0

        def step(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                seen.add((last, line))
                last = line
            elif event == "return":
                seen.add((last, 0))
            else:  # "exception": the next move is the exception's
                last = 0
            return step

        return step

    sys.settrace(call)  # no test starts a thread
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    moves = {name: set() for name in files}
    for code, (_, seen, _, _) in codes.items():
        moves[code.co_filename[len(prefix):]] |= seen
    return int(status), moves


def never_run(ran: dict[str, set[int]]) -> dict[tuple[str, int], str]:
    """(file name, line number) -> stripped text of each executable line not in ran."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for number in sorted(executable_lines(path) - ran[path.name]):
            out[path.name, number] = text[number - 1].strip()
    return out


def one_way(path: Path, moves: set[tuple[int, int]], listed: set[int]) -> dict[tuple[int, str], str]:
    """(first line, untaken side) -> stripped first line of each branch of path
    that ran but did not go that way, unless that side starts on a line of
    listed.  A branch whose condition never ran is left to the line rows."""
    text = path.read_text(encoding="utf-8").splitlines()
    ran, after = moved(moves)
    out = {}
    for branch in branches(path):
        if ran.isdisjoint(branch.test):
            continue
        for side in {"in", "out"} - sides(branch, after):
            if (branch.body.start if side == "in" else branch.orelse) not in listed:
                out[branch.line, side] = text[branch.line - 1].strip()
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if any(name == "strata_lab" or name.startswith("strata_lab.") for name in sys.modules):
        raise SystemExit("strata_lab was imported before the tracer started")
    start = time.perf_counter()
    status, moves = traced_run(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    seconds = time.perf_counter() - start
    missed = never_run({name: {b for _, b in pairs} for name, pairs in moves.items()})
    unlisted = {key: text for key, text in missed.items() if (key[0], text) not in ALLOWED}
    branch_misses = {}
    for path in sorted(SRC.glob("*.py")):
        listed = {number for (name, number), text in missed.items()
                  if name == path.name and (name, text) in ALLOWED}
        for (number, side), text in one_way(path, moves[path.name], listed).items():
            branch_misses[path.name, number, side] = text
    unlisted_branches = {key: text for key, text in branch_misses.items()
                         if (key[0], text, key[2]) not in ALLOWED}
    needed = ({(name, text) for (name, _), text in missed.items()}
              | {(name, text, side) for (name, _, side), text in branch_misses.items()})
    stale = set(ALLOWED) - needed
    total = sum(len(executable_lines(path)) for path in SRC.glob("*.py"))
    count = sum(len(branches(path)) for path in SRC.glob("*.py"))
    print(f"linecov: traced Tier-1 run took {seconds:.1f} s; "
          "tests that start a CLI subprocess are not traced")
    print(f"linecov: {total} executable lines, {len(missed)} never ran, "
          f"{len(missed) - len(unlisted)} of them listed")
    print(f"linecov: {count} branches, {len(branch_misses)} went one way with no line row "
          f"on the other side, {len(branch_misses) - len(unlisted_branches)} of them listed")
    for (name, number), text in sorted(unlisted.items()):
        print(f"never ran, not listed: src/strata_lab/{name}:{number}: {text}")
    for (name, number, side), text in sorted(unlisted_branches.items()):
        print(f"never went {side}, not listed: src/strata_lab/{name}:{number}: {text}")
    for row in sorted(stale):
        print(f"listed, but ran, went both ways or gone: src/strata_lab/{row[0]}: {row[1:]}")
    return 1 if status or unlisted or unlisted_branches or stale else 0


if __name__ == "__main__":
    sys.exit(main())
