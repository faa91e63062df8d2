"""Every public top-level function and class of the package, and every
public method of a public class, has a caller in the package, its scripts
or its benchmark: code that only tests reach goes, or moves into the tests
that use it.  An error class counts as used only where a raise or an
except of the package names it.  A public method has no leading underscore, or is __call__:
unlike the operator dunders, which the package's own operators reach, a
__call__ is an entry point like any named method, so it too needs a caller
that names it.  And no check of the package is an assert statement, which
python -O strips."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "whitenorm"
BENCHMARK = ROOT / "benchmark"
CALLER_DIRS = (PACKAGE, ROOT / "scripts", BENCHMARK)

# name -> why it has no caller that ast can see
EXEMPT = {
    "resolve_y_convention": "the benchmark's SETUP_CODE string calls it; "
    "it goes once the benchmark no longer does",
}


def _public(name):
    return not name.startswith("_") or name == "__call__"


def _public_definitions():
    """(file, qualified name, name) of each public top-level function and
    class, and of each public method of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield path, f"{node.name}.{item.name}", item.name


def _scopes(top):
    """(node, owner) pairs covering a top-level statement: the owner is the
    qualified name of the definition a node sits in, a class's method for
    the nodes of that method, or None."""
    if isinstance(top, ast.ClassDef):
        for item in top.body:
            if isinstance(item, ast.FunctionDef):
                yield item, f"{top.name}.{item.name}"
            else:
                yield item, top.name
    else:
        yield top, top.name if isinstance(top, ast.FunctionDef) else None


def _callers():
    """name -> {(file, qualified name of the definition the reference sits
    in, or None)} over every ast.Name, ast.Attribute and import alias; the
    imports of the package's __init__.py re-export and call nothing, so
    they do not count."""
    callers = {}
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for scope, owner in _scopes(top):
                    for node in ast.walk(scope):
                        if isinstance(node, ast.Name):
                            names = [node.id]
                        elif isinstance(node, ast.Attribute):
                            names = [node.attr]
                        elif isinstance(node, ast.alias) and path != PACKAGE / "__init__.py":
                            names = [node.name.rsplit(".", 1)[-1], node.asname or ""]
                        else:
                            continue
                        for name in names:
                            callers.setdefault(name, set()).add((path, owner))
    return callers


def _uncalled():
    callers = _callers()

    # a reference from inside the definition itself (recursion, a method
    # naming its own class) is no caller
    def inside(ref, path, qualname):
        return ref[0] == path and ref[1] is not None and (ref[1] + ".").startswith(qualname + ".")

    return sorted(qualname for path, qualname, name in _public_definitions()
                  if all(inside(ref, path, qualname) for ref in callers.get(name, ())))


def test_every_public_definition_has_a_caller():
    dead = [name for name in _uncalled() if name not in EXEMPT]
    assert dead == [], f"public definitions that only tests reach: {dead}"


def test_exemptions_are_still_needed():
    # an exemption goes with the code it covers, or once it has a caller
    benchmark = "".join(p.read_text() for p in sorted(BENCHMARK.rglob("*.py")))
    uncalled = _uncalled()
    for name in EXEMPT:
        assert name in uncalled, name
        assert name in benchmark, name


def _raised_or_caught():
    """The names that a raise or an except clause of the package names: the
    class raised (or called to build what is raised) and each class caught."""
    def named(node):
        if isinstance(node, ast.Call):
            return named(node.func)
        if isinstance(node, ast.Tuple):
            return {n for elt in node.elts for n in named(elt)}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        return {node.id} if isinstance(node, ast.Name) else set()

    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= named(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= named(node.type)
    return used


def test_every_error_class_is_raised_or_caught():
    # an import, an annotation or a docstring names a class without using
    # it: an error type that no raise or except names is an outcome no code
    # has, and goes
    classes = [node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    unused = sorted(set(classes) - _raised_or_caught())
    assert classes and unused == [], f"error classes that no raise or except names: {unused}"


def test_no_assert_statements():
    # python -O strips asserts: a check of the package raises its own error
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"
