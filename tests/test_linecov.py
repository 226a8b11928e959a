"""The line tracer's allowlist and its notion of an executable line; the traced
run itself is `python tests/linecov.py`, a CI step of its own."""

import linecov


def test_every_allowlist_row_names_one_line():
    for (name, text), reason in linecov.ALLOWED.items():
        lines = (linecov.SRC / name).read_text(encoding="utf-8").splitlines()
        assert [line.strip() for line in lines].count(text) == 1, (name, text)
        assert reason


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
