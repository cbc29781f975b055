"""Every top-level function, class and ALL-CAPS constant of the package has a
caller in it or is exported; every method and every exported name has a caller
in the package or the benchmark, or a stated role; and every option a function
offers is set by some caller, or has a stated role."""

import ast
import re
import types
from pathlib import Path

import margex

SOURCE = Path(margex.__file__).parent
PERFBENCH = SOURCE.parents[1] / "perfbench"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
# public names and options that neither the package nor the benchmark uses,
# each kept for its role: a construction of the paper, the family format the
# README documents, or an entry point
ALLOWED = {
    "choose_eta": "paper construction: the mixing-defect budget of a paint step",
    "inclusion_exclusion_extension": "paper construction: the common extension",
    "inclusion_exclusion_extension.q": "paper construction: the reference measure",
    "fiber_surgery": "paper construction: exact repair of window independence",
    "ProjectionOperator.apply": "README family format: the flat array of target tables",
    "RightInverse.evaluate": "README family format: takes that flat array",
    "main.argv": "entry point: the CLI run in-process, as the tests run it",
}

# the standing budget of source lines, as `wc -l src/margex/*.py` counts them
LINE_BUDGET = 3136

# every memo of the package, with its key and its bound: a cache keeps what
# it holds for the life of the process
CACHES = {
    "extension._structure": ("the shape: alphabet size, domain length, target positions", "6 per process"),
    "rds._head_counts": ("(samples, n, seed)", "maxsize=1"),
}


def _definitions(node):
    """Names a top-level statement defines: a function, a class, or the
    ALL-CAPS targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]


def _methods(tree):
    """``(class, method)`` for each method of a top-level class that is not a dunder."""
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name)
    ]


def _uses(paths):
    """Names and attributes the files read; an assignment's own target is not a use."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _callers():
    """Names the package or the benchmark reads, and the attributes the
    benchmark's ``SPANS`` names as strings to wrap."""
    used = _uses([*SOURCE.glob("*.py"), *PERFBENCH.glob("*.py")])
    layers = ast.parse((PERFBENCH / "layers.py").read_text())
    spans = next(
        n.value for n in layers.body if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "SPANS"
    )
    return used | {path.split(".")[-1] for _, _, path in ast.literal_eval(spans)}


def test_every_definition_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    used = set(vars(margex)) | _uses(SOURCE.glob("*.py"))
    unused = [
        f"{name}.{defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in _definitions(node)
        if defined not in used
    ]
    # a method is never exported on its own: it needs a caller or a role
    callers = _callers()
    unused += [
        f"{name}.{cls}.{method}"
        for name, tree in trees.items()
        for cls, method in _methods(tree)
        if method not in callers and f"{cls}.{method}" not in ALLOWED
    ]
    assert unused == []


def test_every_export_has_a_caller_or_a_role():
    callers = _callers()
    exported = [
        name
        for name, value in vars(margex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert [name for name in exported if name not in callers and name not in ALLOWED] == []
    # the allow list stays short: an entry whose name gained a caller goes
    options = _options()
    assert [name for name in ALLOWED if name not in options and name.split(".")[-1] in callers] == []


def _optional(func):
    """(position or None when keyword-only, name) of each parameter of
    ``func`` that has a default: an option."""
    positional = func.args.posonlyargs + func.args.args
    pairs = zip(positional[len(positional) - len(func.args.defaults) :], func.args.defaults)
    for arg, default in [*pairs, *zip(func.args.kwonlyargs, func.args.kw_defaults)]:
        if default is not None:
            yield (positional.index(arg) if arg in positional else None), arg.arg


def _passes(call, position, name):
    by_position = position is not None and position < len(call.args)
    return by_position or any(kw.arg == name for kw in call.keywords)


def _options():
    """``{"function.option": whether a call in the package or the benchmark
    passes it}`` for each option of a top-level function of the package."""
    paths = [*sorted(SOURCE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {
        f"{func.name}.{name}": any(
            getattr(call.func, "id", getattr(call.func, "attr", None)) == func.name
            and _passes(call, position, name)
            for call in calls
        )
        for path, tree in trees.items()
        if path.parent == SOURCE
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for position, name in _optional(func)
    }


def test_every_option_is_set_by_a_caller():
    # a value no caller chooses is a constant, not an option
    options = _options()
    assert [name for name, is_set in options.items() if not is_set and name not in ALLOWED] == []
    # an option that gained a caller leaves the allow list
    assert [name for name, is_set in options.items() if is_set and name in ALLOWED] == []


def test_every_report_is_its_fields():
    # a result's JSON view is one rule; the two input formats from_dict reads stay as they are
    formats = {"DenseMeasure", "MarginalFamily"}
    by_hand = [
        f"{path.stem}.{node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name not in formats
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "to_dict"
        if not any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_report" for c in ast.walk(item))
    ]
    assert by_hand == []


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


def test_one_walk_glues_the_extension_steps():
    # both extension runs and the replay advance through one step function; the
    # paper's relative product is the only other glue
    owners = {"extension.py": "_advance", "measures.py": "relative_product"}
    callers = [
        (path.name, getattr(node, "name", f"line {node.lineno}"))
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if getattr(node, "name", None) != owners.get(path.name)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", getattr(call.func, "id", None)) == "_glue"
    ]
    assert callers == []


def test_tolerances_are_named_once():
    # every threshold is a constant of the block in measures; only the SVD
    # cuts of extension._structure stay in place, since the pseudo-inverse's
    # bits depend on its cut being np.linalg.pinv's own
    literals = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {
            id(sub)
            for node in tree.body
            if (path.name == "measures.py" and isinstance(node, ast.Assign) and _definitions(node))
            or (path.name == "extension.py" and getattr(node, "name", None) == "_structure")
            for sub in ast.walk(node)
        }
        literals += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3 and id(node) not in exempt
        ]
    assert literals == []


def _cache_bound(node):
    """``"maxsize=..."`` for an ``lru_cache(maxsize=...)`` call, ``""`` for
    any other use of ``functools.cache`` or ``lru_cache``, else ``None``."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lru_cache":
        return "".join(f"{kw.arg}={ast.unparse(kw.value)}" for kw in node.keywords)
    if isinstance(node, ast.alias):
        return "" if node.name in ("cache", "lru_cache") else None
    return "" if getattr(node, "attr", getattr(node, "id", None)) in ("cache", "lru_cache") else None


def test_caches_are_declared():
    # a cache no table names would hold results unseen: each is declared
    # with its key and bound, and an lru_cache's bound is its maxsize
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(node, 'name', f'line {node.lineno}')}"
            for sub in ast.walk(node):
                bound = _cache_bound(sub)
                if bound is not None:
                    found[owner] = max(found.get(owner, ""), bound)
    assert sorted(found) == sorted(CACHES)
    assert [name for name, bound in found.items() if bound and CACHES[name][1] != bound] == []


def test_rds_imports_neither_towers_nor_extension():
    # rds is a leaf over measures: towers makes every transfer map
    names = set()
    for node in ast.walk(ast.parse((SOURCE / "rds.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or "", *(f"{node.module or ''}.{alias.name}" for alias in node.names)}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    assert [name for name in sorted(names) if {"towers", "extension"} & set(name.split("."))] == []


def test_source_stays_within_the_line_budget():
    assert sum(path.read_bytes().count(b"\n") for path in SOURCE.glob("*.py")) <= LINE_BUDGET
