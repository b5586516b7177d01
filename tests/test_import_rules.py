"""The library never imports the test oracle.

``tests/support.py`` is an independent dense-tensor path that the
protocol is checked against; if ``src/biphoton`` imported it (or anything
else under ``tests``) the check would compare the code with itself.

The same AST walk keeps each input rule in one module: ``statevec`` alone
defines the index, real-number and tolerance checks and imports ``numbers``.
It also allows no BLAS-backed call anywhere in the library, nor in the
functions whose results reach report bytes or decide a verdict, and the exports
checks keep every ``__all__`` name alive, with each package re-export the very
object its module defines.
"""

import ast
import importlib
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


#: Calls that numpy may hand to BLAS, whose summation order depends on the
#: kernel; so may ``@``, anything under ``linalg`` and ``einsum`` with ``optimize``.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "outer", "kron"}


def blas_uses(tree):
    """Each ``@``, ``@=``, call named in ``BLAS_CALLS``, ``einsum`` called with
    ``optimize`` and ``linalg`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                found.append("@")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            optimized = any(k.arg == "optimize" for k in node.keywords)
            if name in BLAS_CALLS or name == "einsum" and optimized:
                found.append(ast.unparse(func))
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg") or (
            isinstance(node, ast.Name) and node.id == "linalg"
        ):
            found.append(ast.unparse(node))
    return found


def einsum_calls(tree):
    """``(function, keyword names)`` of each ``einsum`` call in ``tree``, where
    the function is the innermost one around the call, else ``<module>``."""
    def calls(node):
        return [
            call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "attr", getattr(call.func, "id", "")) == "einsum"
        ]

    owner = {}
    for node in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(node, ast.FunctionDef):
            owner.update((id(call), node.name) for call in calls(node))
    return [
        (owner.get(id(call), "<module>"), sorted(k.arg for k in call.keywords))
        for call in calls(tree)
    ]


def test_no_blas_call_in_the_library():
    # A BLAS kernel adds a dot product in its own order, so report bytes and a
    # verdict at the tol margin would move with it.  Every product goes through
    # statevec.complex_product, one complex einsum without ``optimize``.
    found, einsums = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        if uses := blas_uses(tree):
            found[path.name] = uses
        if calls := einsum_calls(tree):
            einsums[path.name] = calls
    assert found == {}
    assert einsums == {"statevec.py": [("complex_product", ["dtype"])]}


#: The functions whose results reach report bytes, by module.
BYTE_PATH = {
    "cli.py": ("load_config", "_norm", "parse_ket", "_complex_entry",
               "_input_components", "_family_from_value", "emit_report",
               "_report_texts", "_layout", "_number", "_family_json", "_listing",
               "_object"),
    "protocol.py": ("run_protocol", "_built_transfer", "_branch_table"),
    "auxprep.py": ("_resource", "_resource_amplitudes", "conjugate_partner"),
    "statevec.py": ("complex_product", "_prune", "_ket", "from_array"),
}
#: The functions whose results decide a verdict, by module; a method by its
#: qualified name.
VERDICT_PATH = {
    "protocol.py": ("oracle_report", "compare_reports", "_validate_input"),
    "statevec.py": ("phase_equal", "_sums", "inner", "norm", "_nonzero",
                    "_phase_match", "_flat_sums", "_lists", "_scaled"),
    "measurement.py": ("TwoPhotonBasis.__post_init__",),
}


def qualified_functions(tree, prefix=""):
    """Every function defined at module or class level in ``tree``, by qualified name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[prefix + node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update(qualified_functions(node, f"{prefix}{node.name}."))
    return found


def blas_uses_along(path):
    """BLAS uses in each function that ``path`` names, after checking it still exists."""
    found = {}
    for module, names in path.items():
        defs = qualified_functions(ast.parse((PACKAGE / module).read_text("utf-8")))
        assert set(names) <= set(defs), module
        for name in names:
            if uses := blas_uses(defs[name]):
                found[f"{module}:{name}"] = uses
    return found


def test_no_blas_call_reaches_report_bytes():
    # The library-wide rule above covers these too; this keeps the byte path's
    # functions named, so a rename that moves the path is seen here.
    assert blas_uses_along(BYTE_PATH) == {}


def test_the_blas_calls_that_bear_on_verdicts_are_these():
    # None: the oracle's projectors, the Gram check and inner/norm all go
    # through complex_product, so no verdict moves with the OpenBLAS kernel.
    assert blas_uses_along(VERDICT_PATH) == {}


def test_blas_uses_are_seen():
    # The check above would pass vacuously if it could not see BLAS calls.
    for source in (
        "x = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.vdot(a, b)",
        "inner(a, b)", "np.matmul(a, b)", "np.tensordot(a, b, 1)",
        "np.einsum('i,i', a, b, optimize=True)",
        "einsum('i,i', a, b, optimize='greedy')",
        "np.multiply.outer(a, b)", "np.kron(a, b)",
        "np.linalg.norm(a)", "linalg.norm(a)",
    ):
        assert len(blas_uses(ast.parse(source))) == 1, source
    for source in (
        "a * b", "np.add(a, b)", "complex_product(a, b)", "a.real",
        "np.einsum('i,i', a, b)", "np.einsum('...k,...k->...', x, y, dtype=complex)",
    ):
        assert blas_uses(ast.parse(source)) == [], source
    source = "def f(x):\n    return np.einsum('k,k', x, x, dtype=complex)\n"
    assert einsum_calls(ast.parse("np.einsum('k,k', x, x)\n" + source)) == [
        ("<module>", []), ("f", ["dtype"])
    ]


SUBMODULES = [
    importlib.import_module(f"biphoton.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem != "__init__"
]


def test_every_exported_name_resolves():
    for module in [biphoton, *SUBMODULES]:
        stale = [name for name in module.__all__ if not hasattr(module, name)]
        assert stale == [], module.__name__


def test_each_package_export_is_its_module_object():
    source = (PACKAGE / "__init__.py").read_text("utf-8")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(biphoton.__all__) - {"__version__"}
    for name in imported:
        owners = [module for module in SUBMODULES if name in module.__all__]
        assert owners, name
        for module in owners:
            assert getattr(module, name) is getattr(biphoton, name), name
