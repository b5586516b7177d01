"""Mutants of the input rules, the compile path and the verdict that the
tier-1 suite must kill.

This applies a fixed list of AST mutations, one at a time, to the functions
that decide what input the program accepts, how it builds ``T`` and how it
judges a run, and runs the tier-1 suite against each mutant on a temporary
copy of the repository.  A mutant is killed when the suite fails; one that
passes it survives.  No package beyond pytest (run as a child process) is
needed.  Run from the repository root:

    python tests/mutation_kill.py

The mutations, in source order within each function of ``TARGETS``: every
comparison operator flipped to its negation (``==``/``!=``, ``<``/``>=``,
``is``/``is not``, ...) and moved across its boundary (``>``/``>=``,
``<``/``<=``); every ``raise`` replaced by ``pass``; every nonzero numeric
constant multiplied by 10.  Each mutant runs ``pytest -x -q -p
no:cacheprovider`` in one child process, never two at once.

It prints one line per mutant and each survivor with its location, and exits
1 when the unmutated suite fails, when the list outgrows ``MAX_MUTANTS``, when
the run outlasts ``BUDGET_S``, or when a mutant outside ``ALLOWED`` survives.

pytest does not collect this file.
"""

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "biphoton"

#: The functions mutated, by module: the orthonormality, number, tolerance
#: and index rules, the config reader and the entry reader built on them, the
#: ket grammar, the check that a parity mode's family lies within ``tol`` of
#: the parity projectors, the conjugate partner, the resource amplitudes built
#: from it and their ``AuxState``, the one compiler of ``T`` from those, the
#: verdict and the phase rule it checks each success cell by.
TARGETS = {
    "measurement.py": ("TwoPhotonBasis.__post_init__",),
    "statevec.py": ("_check_int", "_is_real", "_check_tol", "_phase_match"),
    "cli.py": ("_complex_entry", "parse_ket", "read_config", "load_config"),
    "protocol.py": ("_is_parity", "_built_transfer", "compare_reports"),
    "auxprep.py": ("conjugate_partner", "_resource_amplitudes", "_resource"),
}
MAX_MUTANTS = 150
BUDGET_S = 15 * 60

#: Surviving mutants that cannot change behaviour, by the id ``mutants``
#: gives them, each with the reason it is equivalent.
ALLOWED = {
    f"protocol.py:_built_transfer: constant `1` -> `10` (#{k})": (
        "the 1 of a -1 reshape size: numpy reads any negative size as the "
        "one inferred dimension, so -10 gives the shape -1 gives"
    )
    for k in (2, 3)
}

PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BOUNDARIES = {ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Lt: ast.LtE, ast.LtE: ast.Lt}


def functions(tree, prefix=""):
    """Every function in ``tree`` by its qualified name."""
    found = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                found[name] = node
            found.update(functions(node, name + "."))
    return found


def splice(source: bytes, node, text: str) -> bytes:
    """``source`` with ``node``'s span replaced by ``text``."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return source[:begin] + text.encode() + source[end:]


def edits(function):
    """``(node, replacement text, description)`` of each mutation, in order."""
    in_fstrings = {
        id(inner)
        for node in ast.walk(function) if isinstance(node, ast.JoinedStr)
        for inner in ast.walk(node)
    }
    nodes = sorted(
        (node for node in ast.walk(function)
         if id(node) not in in_fstrings and hasattr(node, "lineno")),
        key=lambda node: (node.lineno, node.col_offset),
    )
    for node in nodes:
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for table in (FLIPS, BOUNDARIES):
                    if type(op) in table:
                        mutant = copy.deepcopy(node)
                        mutant.ops[i] = table[type(op)]()
                        yield node, ast.unparse(mutant), (
                            f"`{ast.unparse(node)}` -> `{ast.unparse(mutant)}`"
                        )
        elif isinstance(node, ast.Raise):
            yield node, "pass", f"`raise {ast.unparse(node.exc)[:40]}...` dropped"
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) in (int, float) and node.value != 0
        ):
            scaled = repr(node.value * 10)
            yield node, scaled, f"constant `{node.value!r}` -> `{scaled}`"


def mutants():
    """``(id, module, line, mutated source)`` of every mutant, in a fixed order."""
    found = []
    for module, names in TARGETS.items():
        source = (ROOT / PACKAGE / module).read_bytes()
        defined = functions(ast.parse(source))
        for name in names:
            seen = {}
            for node, text, description in edits(defined[name]):
                seen[description] = seen.get(description, 0) + 1
                ident = f"{module}:{name}: {description} (#{seen[description]})"
                found.append((ident, module, node.lineno, splice(source, node, text)))
    return found


def run_suite(root: Path, timeout: float) -> int:
    """The tier-1 suite's exit code on the tree at ``root``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *PYTEST], cwd=root, env=env, timeout=timeout,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    found = mutants()
    print(f"{len(found)} mutant(s) of {sum(map(len, TARGETS.values()))} function(s)")
    if len(found) > MAX_MUTANTS:
        print(f"more than {MAX_MUTANTS} mutants: narrow TARGETS or the mutations")
        return 1
    stale = set(ALLOWED) - {ident for ident, *_ in found}
    if stale:
        print("allowlist entries that name no mutant:", *sorted(stale), sep="\n  ")
        return 1
    deadline = time.monotonic() + BUDGET_S
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc"
        ))
        try:
            if run_suite(tree, deadline - time.monotonic()) != 0:
                print("the unmutated suite fails: no mutant can be judged")
                return 1
            for k, (ident, module, line, source) in enumerate(found, 1):
                target = tree / PACKAGE / module
                original = target.read_bytes()
                target.write_bytes(source)
                started = time.monotonic()
                try:
                    code = run_suite(tree, deadline - started)
                finally:
                    target.write_bytes(original)
                verdict = "survived" if code == 0 else "killed"
                seconds = time.monotonic() - started
                print(f"[{k}/{len(found)}] {verdict:8} {seconds:5.1f} s  {ident}",
                      flush=True)
                if code == 0:
                    survivors.append((ident, module, line))
        except subprocess.TimeoutExpired:
            print(f"out of time: the run is capped at {BUDGET_S} s")
            return 1
    unexpected = [s for s in survivors if s[0] not in ALLOWED]
    for ident, module, line in survivors:
        note = f"  (allowed: {ALLOWED[ident]})" if ident in ALLOWED else ""
        print(f"survivor {PACKAGE / module}:{line} {ident}{note}")
    print(f"{len(found) - len(survivors)} of {len(found)} killed; "
          f"{len(unexpected)} survivor(s) outside the allowlist")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
