"""Every top-level function, class and ALL-CAPS constant of the package has a
caller in it."""

import ast
import re
from pathlib import Path

import margex

SOURCE = Path(margex.__file__).parent
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _definitions(node):
    """Names a top-level statement defines: a function, a class, or the
    ALL-CAPS targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]


def test_every_definition_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    used = set(vars(margex))
    for tree in trees.values():
        for node in ast.walk(tree):
            # an assignment's own target does not count as a use
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}.{defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in _definitions(node)
        if defined not in used
    ]
    assert unused == []
