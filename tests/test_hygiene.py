"""Every private helper, every import and every parameter of the package is used."""

import ast
from pathlib import Path

import pytest

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


# The public surface: matchfields.__all__, sorted.  A name leaves it only by
# an edit here.
PUBLIC_NAMES = [
    "ArityTooSmallError", "BettiTable", "BlockStructure", "BudgetExceededError",
    "DGraph", "FAMILIES", "FlatnessReport", "GeneratorTriple", "GroebnerCheck",
    "GroebnerReport", "InvalidColumnsError", "InvalidSubsetError", "KernelSlice",
    "LayerReport", "MatchfieldsError", "Monomial", "MonomialIdeal",
    "NotAGeneratorError", "NotDivisibleError", "NotLinearQuotientsError", "PluckerMap",
    "Polynomial", "QuotientCertificate", "RelabelMap", "TooLargeError",
    "TooSmallError", "UnknownVariableError", "VariableId", "WeightOrder",
    "ZeroPolynomialError", "__version__", "attainable_initial_supports",
    "betti_diagonal_closed_form", "betti_diagonal_table", "betti_from_certificate",
    "betti_from_variable_sets", "betti_oracle", "block_order_compare",
    "check_layer_containment", "colon_by_monomial", "diagonal_lex_sets",
    "diagonal_plucker_map", "flatness_check", "format_plucker_exponents", "generator",
    "generator_triples", "graph_G", "hilbert_dim_rect", "hypergraph_H",
    "image_monomial", "is_cointerval", "is_groebner", "kernel_slice",
    "leading_monomial", "leading_term", "linear_quotients_certificate",
    "matching_ideal", "minor_expand", "plucker_map_from_matching_field",
    "plucker_quadric_gr24", "plucker_variable_name", "reduce", "relabel_f",
    "relabeled_ideal", "s_polynomial", "s_set", "s_set_variables",
    "s_size_closed_form", "sort_generators", "v_layer", "verify_theorem_main",
    "weight_initial_form", "weight_matrix", "xvar", "yvar", "z_layer", "zvar",
    "zy_layer",
]


def _top_level(path):
    """The names a module's own top-level statements define."""
    tree = ast.parse(path.read_text())
    return {name for name, node in _definitions(tree) if node in tree.body}


def test_each_public_name_is_declared_once_in_the_module_that_defines_it():
    """__init__.py star-imports exactly the modules that declare __all__; each
    __all__ lists public top-level definitions of its own module, no name is
    in two, and matchfields.__all__ is __version__ and their concatenation."""
    import importlib

    import matchfields

    init = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    assert all([alias.name for alias in node.names] == ["*"] for node in imports)
    modules = [node.module for node in imports]
    defined = {path.stem: _top_level(path) for path in SRC.glob("*.py")}
    del defined["__init__"]
    assert sorted(modules) == sorted(m for m, names in defined.items() if "__all__" in names)
    exported = []
    for module in modules:
        names = importlib.import_module(f"matchfields.{module}").__all__
        assert [name for name in names if name[0] == "_" or name not in defined[module]] == []
        exported += names
    assert len(set(exported)) == len(exported)
    assert matchfields.__all__ == ["__version__", *exported]
    assert sorted(matchfields.__all__) == PUBLIC_NAMES


def test_the_version_is_written_once():
    """pyproject.toml reads the version from the package."""
    import warnings

    import matchfields

    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(SRC.parents[1] / "pyproject.toml")
    assert config["project"]["version"] == matchfields.__version__
    assert "version" in config["project"]["dynamic"]


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
    for text in ("read {total} indices", "{total} monomials", "over the budget of"):
        owners = [path.name for path in sorted(SRC.glob("*.py")) if text in path.read_text()]
        assert owners == ["toric.py"], text
