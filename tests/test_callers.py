"""Every public top-level function and class of the package has a caller in
the package, its scripts or its benchmark: code that only tests reach goes,
or moves into the tests that use it."""

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


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name


def _callers():
    """name -> {(file, top-level definition the reference sits in, or None)}
    over every ast.Name, ast.Attribute and import alias; the imports of the
    package's __init__.py re-export and call nothing, so they do not count."""
    callers = {}
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                for node in ast.walk(top):
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
    return sorted(name for path, name in _public_definitions()
                  if not callers.get(name, set()) - {(path, name)})


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
