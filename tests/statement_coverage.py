"""Statements of ``src/biphoton`` that no tier-1 test runs.

This runs the tier-1 suite in process under ``sys.settrace`` (no coverage
package is needed) and records every line of ``src/biphoton`` that starts
executing.  A line counts as a statement when the compiled module has
bytecode on it.  Run from the repository root:

    PYTHONPATH=src python tests/statement_coverage.py

It prints each statement that never ran as ``file:line scope: source``,
where the scope is the innermost enclosing function, ``__main__`` inside a
module's ``if __name__ == "__main__":`` block, or ``<module>``.  It exits 1
when the suite fails or when a statement outside ``ALLOWED`` never ran.

pytest does not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "biphoton"

#: (file, scope) pairs whose statements no in-process test can run: the
#: CLI's entry guard.
ALLOWED = {("cli.py", "__main__")}


def statement_lines(code) -> set:
    """The lines that hold bytecode in ``code`` and every code object in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= statement_lines(const)
    return lines


def scopes(tree) -> dict:
    """The scope of each line inside a function or a ``__main__`` block."""
    found = {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            scope = None
            if isinstance(child, defs):
                scope = prefix + child.name
            elif isinstance(child, ast.If) and (
                ast.unparse(child.test) == "__name__ == '__main__'"
            ):
                scope = "__main__"
            if scope:
                for line in range(child.body[0].lineno, child.end_lineno + 1):
                    found[line] = scope
            named = isinstance(child, defs + (ast.ClassDef,))
            visit(child, prefix + child.name + "." if named else prefix)

    visit(tree, "")
    return found


def run_traced(args) -> tuple:
    """pytest's exit code over ``args`` and the executed lines, by file."""
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(str(PACKAGE)):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed


def main() -> int:
    code, executed = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        missing = statement_lines(compile(source, str(path), "exec"))
        missing -= executed.get(str(path), set())
        scope_of = scopes(ast.parse(source))
        text = source.splitlines()
        for line in sorted(missing):
            scope = scope_of.get(line, "<module>")
            allowed = (path.name, scope) in ALLOWED
            unexpected += not allowed
            mark = "  (allowed)" if allowed else ""
            print(f"{path.name}:{line} {scope}: {text[line - 1].strip()}{mark}")
    if code != 0:
        print(f"the suite failed under the trace (pytest exit code {code})")
        return 1
    print(f"{unexpected} statement(s) never run outside the allowlist")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
