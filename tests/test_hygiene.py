"""Static checks over the package source: no dead imports, no dead helpers.

Every name a module imports is used in that module or re-exported through
its ``__all__``; every module-level private function is referenced
somewhere in the package; every constant in ``config.py`` is read by
another module; every module-level ``_PRIVATE_CONSTANT`` is read
somewhere beyond its own assignment; every name in a module's
``__all__`` is read by the package, its tests or its benchmark, and every
name in the package root's ``__all__`` is taken from the root by one of
them; every public method or property of a package class is read by one
of them; no module reads ``numpy.random``; ``InvariantViolation`` is
raised only by ``config.check`` and four structural sites; and no module
exceeds the token budget.
"""

import re
import tokenize

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "segalsim"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _referenced_names(tree):
    """Names read or written as identifiers or attributes, definitions excluded."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    unused = _imported_names(tree) - _referenced_names(tree) - _exported_names(tree)
    assert not unused, f"{path.name} imports unused names {sorted(unused)}"


def test_every_private_function_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_referenced_names, trees.values()))
    dead = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not dead, f"module-level private functions never referenced: {dead}"


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def _module_constants(tree):
    """Names bound by module-level assignments that look like constants."""
    return {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and _CONSTANT.match(target.id)
    }


def _read_names(tree):
    """Names loaded as identifiers or attributes: assignments do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_config_constant_is_read_elsewhere():
    trees = {path.name: _tree(path) for path in MODULES}
    constants = {name for name in _module_constants(trees["config.py"]) if not name.startswith("_")}
    read = set().union(*(_read_names(tree) for name, tree in trees.items() if name != "config.py"))
    unread = sorted(constants - read)
    assert not unread, f"config.py constants no other module reads: {unread}"


def test_every_private_constant_is_read():
    trees = {path.name: _tree(path) for path in MODULES}
    read = set().union(*map(_read_names, trees.values()))
    dead = [
        f"{name}:{constant}"
        for name, tree in trees.items()
        for constant in sorted(_module_constants(tree))
        if constant.startswith("_") and constant not in read
    ]
    assert not dead, f"module-level private constants never read: {dead}"


def test_every_exported_name_is_read():
    # The package's re-export of a name in __init__.py is not a read of it.
    package = [path for path in MODULES if path.name != "__init__.py"]
    readers = package + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for tree in map(_tree, readers):
        read |= _read_names(tree)
        read |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    unread = [
        f"{path.name}:{name}"
        for path in package
        for name in sorted(_exported_names(_tree(path)) - read)
    ]
    assert not unread, f"exported names nothing reads: {unread}"


def test_every_public_method_is_read():
    # A public method or property of a package class earns its place when
    # the package, its tests or its benchmark read it by attribute name.
    readers = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(_read_names, map(_tree, readers)))
    unread = [
        f"{path.name}:{node.name}.{item.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_") and item.name not in read
    ]
    assert not unread, f"public methods and properties nothing reads: {unread}"


def _numpy_random_reads(tree):
    """Lines that import numpy.random or read ``np.random``/``numpy.random``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[:2] == ["numpy", "random"] or (
                module == ["numpy"] and any(a.name == "random" for a in node.names)
            )
        else:
            hit = (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_random(path):
    # Every stream the package draws is Philox-keyed in _philox; the
    # per-event numpy.random reference lives with the test oracles.
    lines = _numpy_random_reads(_tree(path))
    assert not lines, f"{path.name} reads numpy.random at lines {lines}"


def _readme_python_trees():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]


def test_every_root_name_is_imported_from_the_root():
    # A root re-export earns its place when a caller takes it from the
    # root: ``from segalsim import name`` or ``sg.name``/``segalsim.name``
    # in the README's python blocks, the benchmark or the tests.
    paths = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readers = _readme_python_trees() + [_tree(path) for path in paths]
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "segalsim" and not node.level:
                read |= {a.name for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("sg", "segalsim"):
                    read.add(node.attr)
    # The two error types stay at the root unread: they are the exit-code
    # contract (1 and 2) a caller of run_scenario catches.
    contract = {"ConfigError", "InvariantViolation"}
    unread = sorted(_exported_names(_tree(SRC / "__init__.py")) - read - contract)
    assert not unread, f"segalsim.__all__ names no caller takes from the root: {unread}"


_DECODERS = {"load", "loads", "JSONDecoder"}


def _json_decoder_reads(tree):
    """(enclosing function, line) of each ``json.load``/``loads``/``JSONDecoder``
    read, or import of one of them from ``json``."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                hit = child.module == "json" and any(a.name in _DECODERS for a in child.names)
            else:
                hit = (
                    isinstance(child, ast.Attribute)
                    and child.attr in _DECODERS
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "json"
                )
            if hit:
                sites.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return sites


def test_one_document_decoder():
    # load_document's object hook turns inline generator matrices into
    # arrays as they close; a second decoder would hold every matrix's
    # list tree at once and bypass it.
    sites = [
        (path.name, function, line)
        for path in MODULES
        for function, line in _json_decoder_reads(_tree(path))
    ]
    assert [(name, function) for name, function, _ in sites] == [
        ("parse.py", "load_document")
    ], f"JSON decoded outside parse.load_document: {sites}"


def _class_label_counts(tree):
    """Lines of ``np.bincount`` calls whose first argument reads ``labels``."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "bincount"
            and node.args
            and any(
                (isinstance(n, ast.Name) and n.id == "labels")
                or (isinstance(n, ast.Attribute) and n.attr == "labels")
                for n in ast.walk(node.args[0])
            )
        ):
            lines.append(node.lineno)
    return lines


def test_classes_are_read_in_algebra_only():
    # A commutative algebra's classes are read through its class sums;
    # a bincount over its labels elsewhere would tie that module to how
    # the classes are stored.
    sites = [
        (path.name, line) for path in MODULES for line in _class_label_counts(_tree(path))
    ]
    assert sites and {name for name, _ in sites} == {"algebra.py"}, (
        f"np.bincount over class labels outside algebra.py: {sites}"
    )


def _invariant_raises(tree):
    """Outermost enclosing function of each ``raise InvariantViolation``."""
    functions = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "InvariantViolation":
                    functions.append(function)
            visit(child, function)

    visit(tree, None)
    return functions


def test_numeric_invariants_go_through_check():
    # Every numeric-tolerance invariant is one config.check call, which
    # fails closed on NaN.  The other raises are structural: the algebra's
    # round-off floor on tol, the closure's d^2 bound, a pointer class
    # holding one pointer value, and a report that is not strict JSON.
    sites = sorted(
        (path.name, function) for path in MODULES for function in _invariant_raises(_tree(path))
    )
    assert sites == [
        ("algebra.py", "generate_algebra"),
        ("closure.py", "_gram_schmidt_closure"),
        ("config.py", "check"),
        ("pointer.py", "_pointer_order"),
        ("serialize.py", "emit_report"),
    ], f"raise InvariantViolation outside config.check and the structural sites: {sites}"


# Compiling a module from source holds its tokens, the parser's memo and
# the AST at once, about 0.4 KiB per token under tracemalloc, and the
# freed pages stay resident: the largest module sets the compile's share
# of every run's peak RSS (PYTHONDONTWRITEBYTECODE leaves no bytecode to
# read).  The count leaves out comments and layout tokens.
_MAX_MODULE_TOKENS = 1500
_LAYOUT_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_token_budget(path):
    with path.open(encoding="utf-8") as source:
        count = sum(t.type not in _LAYOUT_TOKENS for t in tokenize.generate_tokens(source.readline))
    assert count <= _MAX_MODULE_TOKENS, f"{path.name} has {count} tokens, over {_MAX_MODULE_TOKENS}"
