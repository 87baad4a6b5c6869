"""Mutation checks: every mutant in ``tests/mutants.json`` must fail the tests it names.

Usage::

    python tests/run_mutants.py [MUTANT_ID ...]

With no ids, every mutant runs.  ``src/`` and ``tests/`` are copied to a
temporary directory.  The named tests must first pass on the unmutated copy.
Then each mutant replaces its source string, which must occur exactly once
in its file, runs its tests with pytest in a fresh interpreter, and is put
back.  The run exits 1 when :func:`manifest_problems` finds an entry
stranded, when a named test fails on the unmutated copy, or when a
mutant's tests still pass (it survived).  Standard library only; the file
is not named ``test_*``, so pytest does not collect it, and
``tests/test_mutants.py`` calls :func:`manifest_problems` in the test suite.

Each entry of ``tests/mutants.json`` has ``id``, ``file`` (relative to the
repository root), ``find``, ``replace``, ``tests`` (pytest node ids) and
``why`` (one line).  Remove an entry only together with the code it mutates.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MUTANTS = REPO / "tests" / "mutants.json"
FIELDS = ("id", "file", "find", "replace", "tests", "why")
TIMEOUT = 600.0
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def load_mutants() -> list[dict]:
    return json.loads(MUTANTS.read_text(encoding="utf-8"))


def manifest_problems(mutants: list[dict]) -> list[str]:
    """One line per stranded or malformed entry of ``mutants``; none when all are sound.

    An entry must have exactly :data:`FIELDS`, at least one test and an id
    of its own.  Its source string must occur exactly once in its file, and
    every test it names must exist: the file, and the classes and function
    of the node id, found by parsing the file.  A parameter id in brackets
    is not checked here; pytest fails a run that selects none.
    """
    problems, seen, parsed = [], set(), {}
    for mutant in mutants:
        mutant_id = mutant.get("id")
        if sorted(mutant) != sorted(FIELDS) or not mutant["tests"]:
            problems.append(f"{mutant_id!r} needs exactly the fields {FIELDS}")
            continue
        if mutant_id in seen:
            problems.append(f"duplicate id {mutant_id!r}")
        seen.add(mutant_id)
        path = REPO / mutant["file"]
        count = path.read_text(encoding="utf-8").count(mutant["find"]) if path.is_file() else 0
        if count != 1:
            problems.append(
                f"{mutant_id}: source string occurs {count} times in {mutant['file']}, not once"
            )
        problems.extend(
            f"{mutant_id}: names {node_id}, which does not exist"
            for node_id in mutant["tests"] if not _defined(node_id, parsed)
        )
    return problems


def _defined(node_id: str, parsed: dict[str, list | None]) -> bool:
    """Whether the file of a pytest node id defines its classes and function.

    ``parsed`` keeps each file's parsed module body, or None for a missing
    file.  The parameter id in brackets, if any, is not checked.
    """
    file, *names = node_id.split("[", 1)[0].split("::")
    if file not in parsed:
        path = REPO / file
        parsed[file] = ast.parse(path.read_text(encoding="utf-8")).body if path.is_file() else None
    body = parsed[file]
    for name in names:
        body = next((node.body for node in body or ()
                     if isinstance(node, DEFINITIONS) and node.name == name), None)
    return bool(names) and body is not None


def python(root: Path, *args: str) -> subprocess.CompletedProcess:
    """Run Python in ``root``, importing ``sceneplan`` from ``root/src``.

    No bytecode is written, so a mutant that keeps its file's size and
    modification second cannot be masked by a cached copy of the original.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True,
        timeout=TIMEOUT,
    )


def pytest(root: Path, node_ids: list[str], *extra: str) -> subprocess.CompletedProcess:
    return python(root, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line", *extra,
                  *node_ids)


def main(argv: list[str]) -> int:
    mutants = load_mutants()
    problems = manifest_problems(mutants)
    if problems:
        print(f"{MUTANTS}:\n" + "\n".join(problems))
        return 1
    if argv:
        unknown = sorted(set(argv) - {mutant["id"] for mutant in mutants})
        if unknown:
            raise SystemExit(f"unknown mutant id(s): {', '.join(unknown)}")
        mutants = [mutant for mutant in mutants if mutant["id"] in argv]
    with tempfile.TemporaryDirectory(prefix="sceneplan-mutants-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(REPO / name, root / name, ignore=skip)
        shutil.copy2(REPO / "pyproject.toml", root / "pyproject.toml")
        imported = python(root, "-c", "import sceneplan; print(sceneplan.__file__)").stdout
        if not Path(imported.strip()).is_relative_to(root):
            print(f"sceneplan is imported from {imported.strip()!r}, not from the copy")
            return 1
        all_tests = list(dict.fromkeys(t for mutant in mutants for t in mutant["tests"]))
        started = time.perf_counter()
        baseline = pytest(root, all_tests)
        if baseline.returncode != 0:
            print(f"the named tests do not pass on the unmutated copy:\n{baseline.stdout}")
            return 1
        print(f"unmutated: {len(all_tests)} tests pass ({time.perf_counter() - started:.1f} s)")
        survived = errors = 0
        for mutant in mutants:
            path = root / mutant["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant["find"], mutant["replace"]), encoding="utf-8")
            started = time.perf_counter()
            try:
                result = pytest(root, mutant["tests"], "-x")
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - started
            if result.returncode == 1:
                print(f"killed    {mutant['id']} ({seconds:.1f} s)")
            elif result.returncode == 0:
                survived += 1
                print(f"SURVIVED  {mutant['id']} ({seconds:.1f} s): {mutant['why']}")
            else:
                errors += 1
                print(f"ERROR     {mutant['id']}: pytest exited {result.returncode}\n"
                      f"{result.stdout}{result.stderr}")
        print(f"{len(mutants)} mutants: {len(mutants) - survived - errors} killed, "
              f"{survived} survived, {errors} errors")
        return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
