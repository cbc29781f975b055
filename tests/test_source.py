"""Every top-level function, class and ALL-CAPS constant of the package has a
caller in it, and every mode a function offers is chosen by some caller."""

import ast
import re
from pathlib import Path

import margex

SOURCE = Path(margex.__file__).parent
PERFBENCH = SOURCE.parents[1] / "perfbench"
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


def _str_defaults(func):
    """(position or None when keyword-only, name) of each parameter of
    ``func`` whose default is a string: a mode switch."""
    positional = func.args.posonlyargs + func.args.args
    pairs = zip(positional[len(positional) - len(func.args.defaults) :], func.args.defaults)
    for arg, default in [*pairs, *zip(func.args.kwonlyargs, func.args.kw_defaults)]:
        if isinstance(default, ast.Constant) and isinstance(default.value, str):
            yield (positional.index(arg) if arg in positional else None), arg.arg


def _passes(call, position, name):
    by_position = position is not None and position < len(call.args)
    return by_position or any(kw.arg == name for kw in call.keywords)


def test_every_mode_switch_is_set_by_a_caller():
    paths = [*sorted(SOURCE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = [
        f"{func.name}.{name}"
        for path, tree in trees.items()
        if path.parent == SOURCE
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for position, name in _str_defaults(func)
        if not any(
            getattr(call.func, "id", getattr(call.func, "attr", None)) == func.name
            and _passes(call, position, name)
            for call in calls
        )
    ]
    assert unset == []


def test_towers_counts_only_in_the_window_kernel():
    # one function decides how tower windows are counted
    tree = ast.parse((SOURCE / "towers.py").read_text())
    callers = [
        getattr(node, "name", f"line {node.lineno}")
        for node in tree.body
        if getattr(node, "name", None) != "_window_counts"
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", getattr(call.func, "id", None)) == "bincount"
    ]
    assert callers == []


def test_towers_splits_and_gates_only_in_one_pass():
    # paint, flagging and Krengel share one split and gate per window
    tree = ast.parse((SOURCE / "towers.py").read_text())
    callers = [
        (getattr(node, "name", f"line {node.lineno}"), call.func.id)
        for node in tree.body
        if getattr(node, "name", None) != "_gate"
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("_painted_split", "_paint_gates")
    ]
    assert callers == []


def test_axis_sums_only_in_the_reduction_kernels():
    # one kernel sums tables onto coordinates; conditional_rows sums its rows
    owners = ("_sum_out", "conditional_rows")
    callers = [
        (path, getattr(node, "name", f"line {node.lineno}"))
        for path in ("measures.py", "extension.py")
        for node in ast.parse((SOURCE / path).read_text()).body
        if getattr(node, "name", None) not in owners
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) == "sum"
        and any(kw.arg == "axis" for kw in call.keywords)
    ]
    assert callers == []
