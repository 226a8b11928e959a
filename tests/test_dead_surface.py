"""No dead surface in the library.

Every top-level function, class and constant of src/strata_lab, and every
public method of a top-level class, is used somewhere in src/ beyond its
definition, or is used in perfbench/, or has a row in ALLOWED saying why it
stays.  A name that only tests call needs such a row.

A top-level name counts as used only as a bare name in its own module or in
a module that imports it by name, or as `module.name`; a same-named method
or local elsewhere does not keep it.  A public method counts as used
wherever its identifier is read, as a name or an attribute.

Every parameter with a default, of a top-level function or of a public
method or `__init__` of a top-level class, is passed by position or by
keyword at some call of that name in src/ or perfbench/ (`__init__` by its
class name; a call with *args or **kwargs passes every parameter), or has a
row in ALLOWED.

Every attribute a top-level class defines, as a `self.x` store in one of its
methods, a dataclass field or a __slots__ entry, is read as `.x` or as
getattr(_, "x", ...) somewhere in src/ or perfbench/, or has a row in
ALLOWED.  Like the method rule, this rule matches identifiers, not types: a
read of `.x` on any object keeps every attribute named x.
"""

import ast
import math
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "strata_lab"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "dsl.print_presentation": "documented API: the printer of the parse/print round trip",
    "pbw.leading_term": "documented API; acceptance criterion 9 (leading terms multiply)",
    "grading.NormalityCertificate.verify":
        "acceptance criterion 7 re-verifies each separation witness's certificate",
    "pbw.OverlapReport.discrepancy":
        "tests check each overlap's difference against the rewriting oracle",
    "strat.LocallyClosedWitness.bigger":
        "tests check each witness's generators against the definition oracle",
}


def _uses(paths, src) -> tuple[set, Counter, set]:
    """The (module, name) pairs the files use, a bare name counting for the
    module it is imported from and, in a module of src, for its own module;
    how often each identifier is read as a name or an attribute; and the
    identifiers read as an attribute, as `.x` or as getattr(_, "x", ...)."""
    pairs, seen, attrs = set(), Counter(), set()
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
                attrs.add(node.attr)
                if isinstance(node.value, (ast.Name, ast.Attribute)):
                    module = getattr(node.value, "id", None) or node.value.attr
                    pairs.add((module, node.attr))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                attrs.add(node.args[1].value)
    return pairs, seen, attrs


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


def _attributes(path):
    """(qualified name, identifier) of each attribute a top-level class of a
    module defines: a `self.x` store in one of its methods, a field of a
    dataclass, or a __slots__ entry."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ClassDef):
            continue
        fields = any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                     for d in node.decorator_list)
        names = set()
        for item in node.body:
            if fields and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
            elif isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                      for t in item.targets):
                names.update(ast.literal_eval(item.value))
            elif isinstance(item, ast.FunctionDef):
                names.update(store.attr for store in ast.walk(item)
                             if isinstance(store, ast.Attribute)
                             and isinstance(store.ctx, ast.Store)
                             and getattr(store.value, "id", None) == "self")
        for name in sorted(names):
            yield f"{path.stem}.{node.name}.{name}", name


def dead_names(src=SRC, perfbench=PERFBENCH) -> list[str]:
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    pairs, seen, _ = _uses(modules + sorted(perfbench.glob("*.py")), src)
    return [name for path in modules for name, ident in _surface(path)
            if name not in ALLOWED and not (seen[ident] if name.count(".") == 2
                                            else (path.stem, ident) in pairs)]


def unread_attributes(src=SRC, perfbench=PERFBENCH) -> list[str]:
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    _, _, attrs = _uses(modules + sorted(perfbench.glob("*.py")), src)
    return [name for path in modules for name, ident in _attributes(path)
            if name not in ALLOWED and ident not in attrs]


def _calls(paths) -> defaultdict:
    """For each called name, the (positional count, keyword names) of each
    call; a call with *args or **kwargs counts as passing everything."""
    calls = defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                calls[name].append((math.inf if star else len(node.args),
                                    {k.arg for k in node.keywords}))
    return calls


def _defaulted(path):
    """(row, called name, position, parameter) of each parameter with a default
    of a top-level function, or of a public method or __init__ of a top-level
    class.  The position counts the arguments a call passes, so it skips self
    and cls; it is None for a keyword-only parameter."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            found = [(f"{node.name}.{f.name}", node.name if f.name == "__init__" else f.name,
                      f, 0 if any(getattr(d, "id", None) == "staticmethod"
                                  for d in f.decorator_list) else 1)
                     for f in node.body if isinstance(f, ast.FunctionDef)
                     and (f.name == "__init__" or not f.name.startswith("_"))]
        else:
            continue
        for qual, called, f, skip in found:
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield f"{path.stem}.{qual}({arg.arg}=)", called, i - skip, arg.arg
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{qual}({arg.arg}=)", called, None, arg.arg


def unpassed_parameters(src=SRC, perfbench=PERFBENCH) -> list[str]:
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    calls = _calls(modules + sorted(perfbench.glob("*.py")))
    return [row for path in modules for row, called, pos, name in _defaulted(path)
            if row not in ALLOWED and not any(pos is not None and count > pos or name in keywords
                                              for count, keywords in calls[called])]


def test_every_name_is_used_or_allowed():
    assert dead_names() == []


def test_every_defaulted_parameter_is_passed_or_allowed():
    assert unpassed_parameters() == []


def test_every_attribute_is_read_or_allowed():
    assert unread_attributes() == []


def test_every_allowlist_row_names_a_definition():
    defined = {name for path in SRC.glob("*.py") for name, _ in _surface(path)}
    defined |= {row for path in SRC.glob("*.py") for row, *_ in _defaulted(path)}
    defined |= {name for path in SRC.glob("*.py") for name, _ in _attributes(path)}
    assert set(ALLOWED) <= defined


def _copy_with(tmp_path, module, text, after=None):
    """A copy of the package with text inserted into one module after the
    line `after`, or appended to it."""
    src = tmp_path / "strata_lab"
    src.mkdir()
    for path in SRC.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        if path.stem == module:
            source = source.replace(after, after + text, 1) if after else source + text
        (src / path.name).write_text(source, encoding="utf-8")
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


def test_a_parameter_only_tests_pass_is_caught(tmp_path):
    # normal_form's scalar= was deleted: only tests passed it, and
    # normal_form(...).scale(c) gives the same element
    src = _copy_with(tmp_path, "pbw", (
        "\n\ndef scaled_form(p, word, fuel=None, scalar=None):\n"
        "    return normal_form(p, word, fuel)\n"
        "\n\ndef twice(p, word):\n"
        "    return scaled_form(p, word, 10) + scaled_form(p, word)\n"))
    assert unpassed_parameters(src) == ["pbw.scaled_form(scalar=)"]


def test_an_attribute_only_tests_read_is_caught(tmp_path):
    # StratumReport.exponent_matrix was deleted: no caller but tests read it
    after = "    center_basis: list[tuple[int, ...]]\n"
    src = _copy_with(tmp_path, "strat", "    exponent_matrix: list[list[int]]\n", after)
    assert unread_attributes(src) == ["strat.StratumReport.exponent_matrix"]
