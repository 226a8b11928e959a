"""The coverage tool's allowlist, its notion of an executable line and its
branch rule; the traced run itself is `python tests/linecov.py`, a CI step of
its own.  No test here calls sys.settrace: that run traces these tests too,
and a nested tracer would replace its own."""

import linecov
from linecov import Branch


def test_every_allowlist_row_names_one_line():
    for row, reason in linecov.ALLOWED.items():
        name, text = row[:2]
        path = linecov.SRC / name
        lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines.count(text) == 1, row
        assert reason
        if len(row) == 3:  # a branch row: the first line of a branch, and its untaken side
            assert row[2] in ("in", "out"), row
            assert lines.index(text) + 1 in {b.line for b in linecov.branches(path)}, row


def test_executable_lines_are_statements_with_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n"            # 1
                    '    """Doc."""\n'       # 2: a function docstring is not run
                    "    global y\n"         # 3: no code
                    "    if x:\n"            # 4
                    "        return (1 +\n"  # 5
                    "                x)\n"   # 6: inside the statement of line 5
                    "    else:\n"            # 7: not a statement
                    "        return 0\n",    # 8
                    encoding="utf-8")
    assert linecov.executable_lines(path) == {1, 4, 5, 8}


SAMPLE = ("def f(x, y):\n"     # 1
          "    if x:\n"        # 2
          "        y += 1\n"   # 3
          "    elif (y and\n"  # 4
          "          x > 2):\n"  # 5
          "        y -= 1\n"   # 6
          "    else:\n"        # 7
          "        y = 0\n"    # 8
          "    while y > 0:\n"  # 9
          "        y -= 1\n"   # 10
          "    while True:\n"  # 11: a constant condition decides nothing
          "        return y\n")  # 12


def test_branches_are_the_if_elif_and_while_statements(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert linecov.branches(path) == [
        Branch(2, range(2, 3), range(3, 4), 4),   # the if; its else side is the elif
        Branch(4, range(4, 6), range(6, 7), 8),   # a condition of two lines
        Branch(9, range(9, 10), range(10, 11), None),
    ]


def test_a_branch_goes_in_to_its_body_and_out_anywhere_else():
    branch = Branch(4, range(4, 6), range(6, 7), 8)
    assert linecov.sides(branch, {4: {5}, 5: {6}}) == {"in"}
    assert linecov.sides(branch, {4: {8}}) == {"out"}
    assert linecov.sides(branch, {4: {5}, 5: {9}}) == {"out"}
    assert linecov.sides(branch, {5: {0}}) == {"out"}  # a return
    assert linecov.sides(branch, {4: {5}, 5: {4}}) == set()  # within the condition


def test_one_way_branches_unless_the_untaken_side_is_listed(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # f(1, 0): the if goes in, the elif never runs, the while goes both ways
    moves = {(0, 2), (2, 3), (3, 9), (9, 10), (10, 9), (9, 11), (11, 12), (12, 0)}
    assert linecov.one_way(path, moves, set()) == {(2, "out"): "if x:"}
    assert linecov.one_way(path, moves, {4}) == {}  # the elif line has a line row
    # f(0, 0): every branch goes out only
    moves = {(0, 2), (2, 4), (4, 8), (8, 9), (9, 11), (11, 12), (12, 0)}
    assert linecov.one_way(path, moves, {6}) == {(2, "in"): "if x:",
                                                 (9, "in"): "while y > 0:"}
    # an exception in the if's condition: the move to its handler (from 0) decides nothing
    moves = {(0, 2), (0, 0)}
    assert linecov.one_way(path, moves, {3}) == {(2, "out"): "if x:"}


def test_a_code_object_settles_once_every_line_ran_and_every_branch_went_both_ways():
    branch = Branch(9, range(9, 10), range(10, 11), None)
    moves = {(0, 9), (9, 10), (10, 9)}
    assert not linecov.settled(moves, {9, 10}, [branch])
    assert linecov.settled(moves | {(9, 0)}, {9, 10}, [branch])
    assert not linecov.settled(moves | {(9, 0)}, {9, 10, 12}, [branch])
    assert linecov.settled(set(), set(), [])  # a comprehension: never traced
