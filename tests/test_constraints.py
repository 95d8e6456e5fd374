"""The hard constraints on the package source, checked on its syntax
tree: the standard library is the only import, arithmetic stays in
the integers (no true division, no float literal, no float or Fraction
name), and the brute-force oracle shares no code with the algorithms
it checks."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "reesgor").glob("*.py")
)
INEXACT_NAMES = {"float", "Fraction"}
ALGORITHM_NAMES = {
    "minimalize",
    "leq",
    "colon",
    "is_subset",
    "contains",
    "newton_polyhedron",
    "closure_power",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"analysis.py", "cone.py", "ideals.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names, (path.name, node.lineno, module)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_arithmetic_stays_exact(path):
    for node in ast.walk(_tree(path)):
        where = (path.name, getattr(node, "lineno", None))
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.Div), where
        elif isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), where
        elif isinstance(node, ast.Name):
            assert node.id not in INEXACT_NAMES, where
        elif isinstance(node, ast.Attribute):
            assert node.attr not in INEXACT_NAMES, where
        elif isinstance(node, ast.alias):
            assert node.name.split(".")[-1] not in INEXACT_NAMES, where


def test_the_oracle_is_independent_of_the_algorithms():
    """An agreement between the oracle and the algorithms is evidence
    only if the oracle computes its answers itself: from the package it
    may import the error types, the MonomialIdeal container and the
    frozen value base `_Value` that its Box builds on, and it names no
    algorithmic routine of the ideal or polyhedron code."""
    (path,) = [p for p in SOURCES if p.name == "oracle.py"]
    for node in ast.walk(_tree(path)):
        where = (path.name, getattr(node, "lineno", None))
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = {alias.name for alias in node.names}
            assert node.module == "errors" or (
                node.module == "ideals" and names == {"MonomialIdeal", "_Value"}
            ), where
        elif isinstance(node, ast.Name):
            assert node.id not in ALGORITHM_NAMES, where
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ALGORITHM_NAMES, where


def test_the_column_scan_derives_its_slack_width():
    """`polyhedra._column_scan` takes exactly (rows, bounds): the field
    width of the slacks it packs is derived from them, with its bound
    proved, and can never be passed in as a parameter or a default."""
    (path,) = [p for p in SOURCES if p.name == "polyhedra.py"]
    (scan,) = [
        node
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and node.name == "_column_scan"
    ]
    args = scan.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["rows", "bounds"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)


def _tests_for_bool(node):
    """Is node a call isinstance(x, bool), bool alone or in a tuple?"""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    kinds = node.args[1]
    kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)


def test_the_exact_int_rule_has_one_home():
    """An exponent, dimension or power is an int or an int subclass,
    never a bool. `ideals._exact_int` states that rule, and no other
    package code tests for bool with isinstance, so no copy of the rule
    can drift from it."""
    sites = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if _tests_for_bool(node)
    ]
    (path,) = [p for p in SOURCES if p.name == "ideals.py"]
    home = [
        (path.name, node.lineno)
        for func in _tree(path).body
        if isinstance(func, ast.FunctionDef) and func.name == "_exact_int"
        for node in ast.walk(func)
        if _tests_for_bool(node)
    ]
    assert sites == home
    assert len(home) == 1


def _uses_of(tree, name):
    """(enclosing qualified name, how) for each use of name in tree:
    "builds" for a call of it, "reads" for any other load of the name
    or of an attribute of that name, "imports" for an import of it."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        where = ".".join(scope)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name
        ):
            uses.append((where, "builds"))
            children = node.args + node.keywords
        else:
            if isinstance(node, ast.Name) and node.id == name or (
                isinstance(node, ast.Attribute) and node.attr == name
            ):
                uses.append((where, "reads"))
            elif isinstance(node, ast.alias) and node.name == name:
                uses.append((where, "imports"))
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, scope)

    visit(tree, ())
    return uses


def test_only_the_named_methods_build_the_trusted_marker():
    """`ideals._Minimal` marks vectors that are already the sorted
    minimal generators, which minimalize returns without reading them.
    Its builders are exactly the six whose lemma makes their vectors
    minimal: the kernels of `*` and `&` and the colon pieces, each of
    which runs the dominance step on sums, maxima or clamped
    differences of validated gens, the closure scan's points, which
    have no lower neighbour in the dilate, the unit ideal's zero vector
    and the pure powers' powers of distinct variables, each built once
    its input is checked. minimalize is its only
    reader: a new trusted caller, or a second reader, is a reviewed
    change. The marker it replaced, `_Valid`, is used nowhere."""
    uses = {
        (path.name, where, how)
        for path in SOURCES
        for where, how in _uses_of(_tree(path), "_Minimal")
    }
    assert uses == {
        ("ideals.py", "_product", "builds"),
        ("ideals.py", "_join", "builds"),
        ("ideals.py", "MonomialIdeal.colon", "builds"),
        ("ideals.py", "MonomialIdeal.unit", "builds"),
        ("ideals.py", "MonomialIdeal.pure_powers", "builds"),
        ("ideals.py", "minimalize", "reads"),
        ("polyhedra.py", "", "imports"),
        ("polyhedra.py", "closure_power", "builds"),
    }
    assert not [
        (path.name, use)
        for path in SOURCES
        for use in _uses_of(_tree(path), "_Valid")
    ]


def _only_stores_its_parameters(init):
    """Is the body of init, past a docstring, nothing but statements
    `object.__setattr__(self, "<f>", <f>)`, each f a parameter?"""
    body = init.body
    if isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    stores = {
        f"object.__setattr__(self, {arg.arg!r}, {arg.arg})"
        for arg in init.args.args + init.args.kwonlyargs
    }
    return bool(body) and all(ast.unparse(line) in stores for line in body)


def test_values_take_the_generated_constructor():
    """`ideals._Value` compiles, once per class, the `__init__` that
    stores each argument as its field, so a `_Value` subclass that
    writes that constructor out by hand only repeats it: a class
    defines its own `__init__` when it checks or converts its fields,
    as the four named below do. Compiling the constructor is the
    package's one `exec`."""
    inits = {
        (path.name, node.name): member
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith("_Value") for base in node.bases)
        for member in node.body
        if isinstance(member, ast.FunctionDef) and member.name == "__init__"
    }
    assert set(inits) >= {
        ("ideals.py", "MonomialIdeal"),
        ("polyhedra.py", "HalfSpace"),
        ("polyhedra.py", "FacetSystem"),
        ("cone.py", "ReesCone"),
    }
    assert not [
        key for key, init in inits.items() if _only_stores_its_parameters(init)
    ]
    uses = {
        (path.name, where, how)
        for path in SOURCES
        for where, how in _uses_of(_tree(path), "exec")
    }
    assert uses == {("ideals.py", "_Value.__init_subclass__", "builds")}


def _raised_name(node):
    """The class name a `raise` statement names, or None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def test_every_error_type_is_raised():
    """An exception class that nothing raises is dead public API: each
    class defined in errors.py is named by some `raise` in the
    package."""
    (path,) = [p for p in SOURCES if p.name == "errors.py"]
    defined = {
        node.name for node in _tree(path).body if isinstance(node, ast.ClassDef)
    }
    raised = {
        _raised_name(node)
        for source in SOURCES
        for node in ast.walk(_tree(source))
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert defined
    assert defined <= raised, sorted(defined - raised)


def test_the_export_list_names_exactly_the_imported_public_names():
    """`reesgor.__all__` lists each public name that `__init__.py`
    imports from the package, once, and nothing else: a retired name
    cannot linger in one list after leaving the other."""
    import reesgor

    (path,) = [p for p in SOURCES if p.name == "__init__.py"]
    imported = [
        alias.asname or alias.name
        for node in _tree(path).body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(reesgor.__all__) == len(set(reesgor.__all__))
    assert sorted(reesgor.__all__) == sorted(imported)


def test_every_public_definition_is_used_by_the_package():
    """A public definition that only the tests call is surface with no
    caller. Each public module-level function or class, the names of
    `reesgor.__all__` among them, is read as a name or an attribute by
    package code outside `__init__.py`; each public method of a public
    class is read as an attribute there, so a local variable of the
    same name cannot stand in for it. A private class is exempt, as
    are the methods a library calls on it (argparse calls
    `cli._Parser.error`)."""
    import reesgor

    names, attributes = set(), set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                attributes.add(node.attr)
    unused = []
    for path in SOURCES:
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if node.name not in names | attributes:
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.stem}.{node.name}.{member.name}"
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("_")
                    and member.name not in attributes
                ]
    assert set(reesgor.__all__) <= names | attributes
    assert unused == []


CACHE_NAMES = {"cache", "lru_cache"}


def _is_cache(node, imported):
    """Does the expression name functools.cache or functools.lru_cache?"""
    if isinstance(node, ast.Attribute):
        return (
            node.attr in CACHE_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )
    return isinstance(node, ast.Name) and node.id in imported


def _bounded_to_one(call):
    """Is the cache call lru_cache(1) or lru_cache(maxsize=1)?"""
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value == 1 for s in sizes)


def _cache_uses(tree):
    """For each use of a functools cache in the module, whether it is
    bounded to one entry."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHE_NAMES
    }
    uses = []

    def visit(node):
        if isinstance(node, ast.Call) and _is_cache(node.func, imported):
            uses.append(_bounded_to_one(node))
            children = node.args + node.keywords
        elif _is_cache(node, imported):
            uses.append(False)
            children = []
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(tree)
    return uses


def test_every_memo_is_per_call_or_holds_one_entry():
    """Computed results are cached only by the job memo of
    `ideals._once`, which is dropped with the job: every functools.cache
    or lru_cache in the package, at module level or inside a function
    body, holds at most one entry. The one such cache is the parser's."""
    uses = [
        (path.name, bounded)
        for path in SOURCES
        for bounded in _cache_uses(_tree(path))
    ]
    assert uses == [("cli.py", True)]
