"""Every private helper, every import and every parameter of the package is used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "matchfields"


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree):
    """(name, node) of each module-level private name and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, sub


def _uses(node, skip):
    """Names read, attributes loaded and names imported, outside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, skip)


def test_every_private_name_is_used_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if _is_private(name) and not any(
                name in _uses(other, node) for other in trees.values()
            ):
                unused.append(f"{module}: {name}")
    assert unused == []


def test_every_import_is_used():
    """A module reads each name it imports at module level; __init__.py
    (re-exports) and __future__ imports are exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_parameter_is_read():
    """Each function reads each of its parameters; self, cls and names
    starting with _ are exempt."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            args = func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for param in params:
                if param is None or param.arg in ("self", "cls") or param.arg.startswith("_"):
                    continue
                if param.arg not in read:
                    name = getattr(func, "name", "<lambda>")
                    unread.append(f"{path.name}: {name}({param.arg})")
    assert unread == []


def test_all_is_the_version_and_each_import_once():
    """__all__ lists __version__ and exactly the names __init__.py imports,
    none of them twice."""
    import matchfields

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = matchfields.__all__
    assert len(set(exported)) == len(exported)
    assert sorted(exported) == sorted(["__version__", *imported])


def test_no_floating_point_in_the_package():
    """No verdict may rest on floating point: no float or complex literal, no
    float, complex or round call, math only for its integer functions, and
    every true division has a Fraction(...) call as an operand."""
    integer_math = {"comb", "factorial", "gcd", "isqrt", "lcm", "prod"}

    def is_call_to(node, names):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in names
        )

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where} literal {node.value!r}")
            elif is_call_to(node, {"float", "complex", "round"}):
                found.append(f"{where} call to {node.func.id}")
            elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
                found.append(f"{where} import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [
                    f"{where} from math import {a.name}"
                    for a in node.names
                    if a.name not in integer_math
                ]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if not any(is_call_to(side, {"Fraction"}) for side in (node.left, node.right)):
                    found.append(f"{where} true division")
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                if not is_call_to(node.value, {"Fraction"}):
                    found.append(f"{where} true division")
    assert found == []


def test_the_kernel_size_rule_has_one_owner():
    """The refusals of the kernel's size rule are written in toric.py alone,
    so no second copy of the rule grows back elsewhere."""
    for text in ("slice has", "indices, over the budget"):
        owners = [path.name for path in sorted(SRC.glob("*.py")) if text in path.read_text()]
        assert owners == ["toric.py"], text
