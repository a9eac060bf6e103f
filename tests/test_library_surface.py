"""Every module-level function and class of the library has a caller outside
the tests: code that only tests reach belongs beside them (``oracle_streams``
for reference implementations, ``graph_fixtures`` for input graphs)."""

import ast
from pathlib import Path

from test_benchmark_targets import tracing  # noqa: F401  (the fixture)

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "qappoly"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(node) -> set[str]:
    """The names a node reads: plain names, attributes and imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            used.update(part for alias in sub.names for part in alias.name.split("."))
    return used


def _names_used_outside_own_definition(path: Path) -> set[str]:
    """The names the file reads, leaving out each top-level function's and
    class's uses of its own name."""
    used = set()
    for statement in ast.parse(path.read_text()).body:
        names = _names_used(statement)
        if isinstance(statement, DEFINITIONS):
            names.discard(statement.name)
        used |= names
    return used


def test_every_library_definition_has_a_caller_outside_the_tests(tracing):
    callers = ([path for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py")))
    used = set().union(*map(_names_used_outside_own_definition, callers))
    for module_name, attribute, *_ in tracing.TARGETS:
        used.update(module_name.split(".") + attribute.split("."))
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(LIBRARY.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, DEFINITIONS) and node.name not in used]
    assert not unused, unused
