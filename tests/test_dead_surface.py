"""No dead surface in the library.

Every top-level function, class and constant of src/strata_lab, and every
public method of a top-level class, is used somewhere in src/ beyond its
definition, or is used in perfbench/, or has a row in ALLOWED saying why it
stays.  A name that only tests call needs such a row.

A top-level name counts as used only as a bare name in its own module or in
a module that imports it by name, or as `module.name`; a same-named method
or local elsewhere does not keep it.  A public method counts as used
wherever its identifier is read, as a name or an attribute.
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


def _uses(paths, src) -> tuple[set, Counter]:
    """The (module, name) pairs the files use, a bare name counting for the
    module it is imported from and, in a module of src, for its own module;
    and how often each identifier is read as a name or an attribute."""
    pairs, seen = set(), Counter()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name: (node.module.rpartition(".")[2], alias.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen[node.id] += 1
                if node.id in imported:
                    pairs.add(imported[node.id])
                if path.parent == src:
                    pairs.add((path.stem, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen[node.attr] += 1
                if isinstance(node.value, (ast.Name, ast.Attribute)):
                    module = getattr(node.value, "id", None) or node.value.attr
                    pairs.add((module, node.attr))
    return pairs, seen


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
    pairs, seen = _uses(modules + sorted(perfbench.glob("*.py")), src)
    return [name for path in modules for name, ident in _surface(path)
            if name not in ALLOWED and not (seen[ident] if name.count(".") == 2
                                            else (path.stem, ident) in pairs)]


def test_every_name_is_used_or_allowed():
    assert dead_names() == []


def test_every_allowlist_row_names_a_definition():
    defined = {name for path in SRC.glob("*.py") for name, _ in _surface(path)}
    assert set(ALLOWED) <= defined


def _copy_with(tmp_path, module, text):
    """A copy of the package with text appended to one module."""
    src = tmp_path / "strata_lab"
    src.mkdir()
    for path in SRC.glob("*.py"):
        extra = text if path.stem == module else ""
        (src / path.name).write_text(path.read_text(encoding="utf-8") + extra,
                                     encoding="utf-8")
    return src


def test_a_test_only_helper_is_caught(tmp_path):
    # grading.homogeneous_components was deleted for having no caller but tests
    src = _copy_with(tmp_path, "grading",
                     "\n\ndef homogeneous_components(p, a):\n    return {}\n")
    assert dead_names(src) == ["grading.homogeneous_components"]


def test_a_name_shared_with_a_method_is_caught(tmp_path):
    # pbw.one was deleted: only tests called it, while Coefficient.one kept
    # the identifier `one` in use
    src = _copy_with(tmp_path, "pbw", "\n\ndef one(p):\n    return monomial(p, (0,) * p.ngens)\n")
    assert dead_names(src) == ["pbw.one"]
