"""Every exported name of a library module is read by the package itself, and so
is every field of its records.

A primitive that backs no check goes (ROADMAP item 10), so each name in the
``__all__`` of a library module must be read somewhere in ``src/``: as a name
or an attribute, outside its own definition and outside ``__init__``. A record
field that no check reads is a fact formed for nobody, so each field of a
library ``NamedTuple`` must be read in ``src/`` as an attribute or named by a
string constant, as the Schatten checks name the fields they read through
``getattr``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fusionframes"
MODULES = ("numerics", "fusion", "ovf", "duality", "multipliers", "frames", "instances", "checks")
# the claim-1 bridges that ROADMAP item 10 wires into checks; until then only
# the tests read them
AWAITING_A_CHECK = {"duality.hmbz_dual_check", "duality.fusion_dual_to_ovf"}
# the report schema has no place for a check's detail yet (ROADMAP item 1)
UNREAD_FIELDS = {"checks.CheckResult.detail"}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _reads(tree: ast.AST, skip: set) -> set:
    """Names read as a name or an attribute in ``tree``, outside the top-level
    definitions named in ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_exported_name_is_read_in_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
        if path.stem != "__init__"
    }
    unread = []
    for module in MODULES:
        exports = _exports(trees[module])
        assert exports, module
        for name in exports:
            read = any(
                name in _reads(tree, {name} if other == module else set())
                for other, tree in trees.items()
            )
            if not read and f"{module}.{name}" not in AWAITING_A_CHECK:
                unread.append(f"{module}.{name}")
    assert unread == []


def _record_fields(tree: ast.Module) -> list:
    """``(record, field)`` for each annotated field of each top-level class of
    ``tree`` that derives from ``NamedTuple``."""
    return [
        (node.name, item.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def _field_reads(tree: ast.AST) -> set:
    """Names read as an attribute, and string constants, anywhere in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_record_field_is_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    reads = set().union(*map(_field_reads, trees.values()))
    fields = [
        (f"{module}.{record}.{field}", field)
        for module in MODULES
        for record, field in _record_fields(trees[module])
    ]
    assert fields
    unread = [name for name, field in fields if field not in reads and name not in UNREAD_FIELDS]
    assert unread == []
