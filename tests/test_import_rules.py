"""The library never imports the test oracle.

``tests/support.py`` is an independent dense-tensor path that the
protocol is checked against; if ``src/biphoton`` imported it (or anything
else under ``tests``) the check would compare the code with itself.

The same AST walk keeps each input rule in one module: ``statevec`` alone
defines the index, real-number and tolerance checks and imports ``numbers``.
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


#: The input rules and the one module that defines each: an index, a real
#: number and a tolerance are decided in ``statevec`` and nowhere else.
RULE_OWNERS = {"_check_int": "statevec.py", "_is_real": "statevec.py",
               "_check_tol": "statevec.py"}


def defined_functions(source):
    """The name of every function defined in ``source``, at any depth."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, defs)}


def test_each_input_rule_has_one_owner():
    definers, numbers_users = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text("utf-8")
        for name in defined_functions(source) & set(RULE_OWNERS):
            definers.setdefault(name, []).append(path.name)
        if any(name.split(".")[0] == "numbers" for name in imported_names(source)):
            numbers_users.append(path.name)
    assert definers == {name: [owner] for name, owner in RULE_OWNERS.items()}
    assert numbers_users == ["statevec.py"]


def test_rule_owners_are_seen():
    # The check above would pass vacuously if it could not see definitions.
    source = "class A:\n    def _is_real(self):\n        def _check_tol(): pass\n"
    assert defined_functions(source) == {"_is_real", "_check_tol"}
    for line in ("import numbers", "from numbers import Real", "import numbers as n"):
        assert [name.split(".")[0] for name in imported_names(line)][0] == "numbers"
