"""The library never imports the test oracle.

``tests/support.py`` is an independent dense-tensor path that the
protocol is checked against; if ``src/biphoton`` imported it (or anything
else under ``tests``) the check would compare the code with itself.
"""

import ast
from pathlib import Path

import biphoton

PACKAGE = Path(biphoton.__file__).parent
TEST_ONLY = {"support", "tests", "conftest"}


def imported_names(source):
    """Every dotted name an ``import`` or ``from ... import`` in ``source`` names."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def names_of_test_code(names):
    return [name for name in names if TEST_ONLY & set(name.strip(".").split("."))]


def test_no_library_module_imports_test_code():
    found = {
        path.name: names_of_test_code(imported_names(path.read_text("utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_imports_are_seen():
    # The check above would pass vacuously if it could not see imports.
    names = imported_names((PACKAGE / "protocol.py").read_text("utf-8"))
    assert {"numpy", "biphoton.statevec.ValidationError"} <= set(names)
    for source in (
        "import support",
        "from support import contract",
        "from tests import support",
        "import tests.support as oracle",
        "from .support import contract",
    ):
        assert names_of_test_code(imported_names(source)), source
