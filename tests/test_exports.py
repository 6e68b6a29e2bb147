"""Every exported name of a library module is read by the package itself.

A primitive that backs no check goes (ROADMAP item 10), so each name in the
``__all__`` of a library module must be read somewhere in ``src/``: as a name
or an attribute, outside its own definition and outside ``__init__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fusionframes"
MODULES = ("numerics", "fusion", "ovf", "duality", "multipliers", "frames", "instances", "checks")
# the claim-1 bridges that ROADMAP item 10 wires into checks; until then only
# the tests read them
AWAITING_A_CHECK = {"duality.hmbz_dual_check", "duality.fusion_dual_to_ovf"}


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
