"""No dead surface in the library.

Every top-level function, class and constant of src/strata_lab, and every
public method of a top-level class, is used as an identifier somewhere in
src/ beyond its definition and the package's re-export, or is used in
perfbench/, or has a row in ALLOWED saying why it stays.  A name that only
tests call needs such a row.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "strata_lab"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "dsl.parse_coefficient": "documented API: reads a coefficient over a context",
    "dsl.print_presentation": "documented API: the printer of the parse/print round trip",
    "pbw.leading_term": "documented API; acceptance criterion 9 (leading terms multiply)",
    "grading.NormalityCertificate.verify":
        "acceptance criterion 7 re-verifies each separation witness's certificate",
}


def _uses(paths, imports: bool) -> Counter:
    """Identifiers read in the files: names, attributes and, if imports, the
    names a `from` import brings in."""
    seen = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen[node.attr] += 1
            elif isinstance(node, ast.ImportFrom) and imports:
                seen.update(alias.name for alias in node.names)
    return seen


def _surface(path):
    """(qualified name, identifier) of each top-level definition of a module and
    of each public method of its top-level classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield f"{path.stem}.{target.id}", target.id


def dead_names(src=SRC, perfbench=PERFBENCH) -> list[str]:
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    used = _uses(modules, False) + _uses(sorted(perfbench.glob("*.py")), True)
    return [name for path in modules for name, ident in _surface(path)
            if not used[ident] and name not in ALLOWED]


def test_every_name_is_used_or_allowed():
    assert dead_names() == []


def test_every_allowlist_row_names_a_definition():
    defined = {name for path in SRC.glob("*.py") for name, _ in _surface(path)}
    assert set(ALLOWED) <= defined


def test_a_test_only_helper_is_caught(tmp_path):
    # grading.homogeneous_components was deleted for having no caller but tests
    src = tmp_path / "strata_lab"
    src.mkdir()
    for path in SRC.glob("*.py"):
        (src / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(src / "grading.py", "a", encoding="utf-8") as f:
        f.write("\n\ndef homogeneous_components(p, a):\n    return {}\n")
    assert dead_names(src) == ["grading.homogeneous_components"]
