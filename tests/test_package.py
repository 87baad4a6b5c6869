"""The package's one way in: submodule imports, as the README documents them."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sceneplan import cli, dataset, scene
from tests.conftest import FIXTURES, run_interpreter, run_python
from tests.dataset_builder import build_faulty_dataset

REPO = Path(__file__).resolve().parent.parent
KITCHEN = str(FIXTURES / "kitchen.json")
GOLDEN = FIXTURES / "cli_golden"
DEFERRED = ("sceneplan.dataset", "sceneplan.metrics", "sceneplan.porter")


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory, golden_corpus_files) -> dict[str, list[str]]:
    """argv of one call of each command, on inputs whose stdout is in ``cli_golden``."""
    root = tmp_path_factory.mktemp("package")
    build_faulty_dataset(root)
    return {
        "plan": ["plan", "--scene", KITCHEN, "--instruction", "I am tired and want coffee"],
        "route-check": ["route-check", "--scene", KITCHEN,
                        "--triplets", str(FIXTURES / "triplets_valid.jsonl")],
        "validate": ["validate", str(root)],
        "stats": ["stats", str(root)],
        "gen-prompts": ["gen-prompts", "--scene", KITCHEN, "--n", "3", "--seed", "5"],
        "evaluate": ["evaluate", "--predictions", str(golden_corpus_files / "predictions.jsonl"),
                     "--references", str(golden_corpus_files / "references.jsonl")],
    }


def test_importing_the_package_loads_no_submodule():
    script = (
        "import json, sys, sceneplan\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sceneplan.'))))\n"
    )
    assert json.loads(run_python(script).stdout) == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # Without site (-S), no .pth hook has loaded one of these modules before
    # the import, where it would hide that the import loads it too.  Only
    # what the import adds counts.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import sceneplan.cli\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'typing'} & added)))\n"
    )
    assert json.loads(run_interpreter(["-S", "-c", script]).stdout) == []


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("plan", []),
        ("route-check", []),
        ("validate", ["sceneplan.dataset"]),
        ("stats", ["sceneplan.dataset"]),
        ("gen-prompts", ["sceneplan.dataset"]),
        ("evaluate", ["sceneplan.metrics", "sceneplan.porter"]),
    ],
)
def test_each_command_loads_only_the_submodules_it_runs(command_inputs, command, loaded):
    script = (
        "import contextlib, io, json, sys\n"
        "from sceneplan import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main({command_inputs[command]!r})\n"
        f"print(json.dumps([code, sorted(m for m in {DEFERRED!r} if m in sys.modules)]))\n"
    )
    code, modules = json.loads(run_python(script).stdout)
    assert code in (0, 1)
    assert modules == loaded


def test_dataset_error_is_one_class():
    # main catches the class from scene, so it need not import dataset.
    assert dataset.DatasetError is scene.DatasetError


def test_sample_key_is_one_function():
    # evaluate reads record keys with it from scene, without loading dataset.
    assert dataset.sample_key is scene.sample_key


# What a caller outside the package may rely on, as the benchmark's tracer
# does: submodules read as package attributes, the deferred cli names read
# as cli attributes, a function set on cli is the one its command calls, and
# running a command binds none of those names in cli.
_HOOK_CONTRACT = """
import contextlib, io, json, sys
import sceneplan
from sceneplan import cli

report = {
    "submodules": [getattr(sceneplan, name) is sys.modules["sceneplan." + name]
                   for name in ("dataset", "metrics")],
    "cli_names": {name: getattr(cli, name) is getattr(getattr(sceneplan, module), name)
                  for name, module in cli._DEFERRED.items()},
    "bound": {"reads": sorted(set(cli._DEFERRED) & set(vars(cli)))},
    "runs": {},
    "missing": [],
}
for command, name in HOOKED:
    original = getattr(cli, name)
    calls = []

    def wrapper(*args, original=original, calls=calls, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(cli, name, wrapper)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(ARGV[command])
    delattr(cli, name)
    report["runs"][command] = [code, len(calls), out.getvalue()]
    report["bound"][command] = sorted(set(cli._DEFERRED) & set(vars(cli)))
for owner in (sceneplan, cli):
    try:
        owner.no_such_name
    except AttributeError:
        report["missing"].append(owner.__name__)
print(json.dumps(report))
"""

# (command, the deferred name it calls, its exit code, its golden stdout file).
_HOOKED = (
    ("validate", "validate_dataset", 1, "validate_faulty_dataset"),
    ("evaluate", "pair_from_text", 0, "evaluate_golden_corpus"),
    ("stats", "dataset_stats", 0, "stats_faulty_dataset"),
    ("gen-prompts", "generation_prompts", 0, "gen_prompts_kitchen"),
)


def test_hooked_names_resolve_and_a_rebound_function_runs(command_inputs):
    hooked = [(command, name) for command, name, _, _ in _HOOKED]
    argv = {command: command_inputs[command] for command, _ in hooked}
    report = json.loads(run_python(f"ARGV = {argv!r}\nHOOKED = {hooked!r}\n" + _HOOK_CONTRACT).stdout)
    assert report["submodules"] == [True, True]
    assert report["cli_names"] == {name: True for name in cli._DEFERRED}
    assert report["bound"] == {"reads": [], **{command: [] for command, _ in hooked}}
    pairs = json.loads((FIXTURES / "golden_corpus.json").read_text(encoding="utf-8"))["pairs"]
    for command, _, code, golden in _HOOKED:
        calls = len(pairs) if command == "evaluate" else 1
        assert report["runs"][command][:2] == [code, calls], command
        assert report["runs"][command][2] == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")
    assert report["missing"] == ["sceneplan", "sceneplan.cli"]


@pytest.mark.parametrize("command, code, golden", [
    (command, code, golden) for command, _, code, golden in _HOOKED[:2]
])
def test_module_entry_point_prints_the_golden_stdout(command_inputs, command, code, golden):
    # Under ``python -m sceneplan.cli`` the commands run in ``__main__``.
    done = run_interpreter(["-m", "sceneplan.cli", *command_inputs[command]], check=False)
    assert done.returncode == code
    assert done.stdout == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command, module", [
    ("validate", "sceneplan.dataset"),
    ("evaluate", "sceneplan.metrics"),
])
def test_importtime_lists_the_submodule_a_command_loads(command_inputs, command, module):
    done = run_interpreter(["-X", "importtime", "-m", "sceneplan.cli", *command_inputs[command]],
                           check=False)
    assert done.returncode in (0, 1)
    imported = [line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines() if line.startswith("import time:")]
    assert module in imported


def test_a_submodule_attribute_keeps_an_import_error_from_inside():
    # A missing module inside a submodule is an import failure, not a
    # missing attribute of the package.
    script = (
        "import sys, sceneplan\n"
        "sys.modules['sceneplan.porter'] = None\n"
        "try:\n"
        "    sceneplan.metrics\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    assert run_python(script).stdout == "sceneplan.porter\n"


def test_readme_minimal_call_prints_the_coffee_episode():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"A minimal end-to-end call:\n\n```python\n(.*?)```", readme, re.S)
    # The same episode the CLI prints for this scene, instruction and k.
    golden = json.loads(
        (FIXTURES / "cli_golden" / "plan_dump_graph_kitchen_k2.json").read_text(encoding="utf-8")
    )
    expected = [f"{step['index']} {step['text']}" for step in golden["steps"]]
    assert len(expected) == 4
    assert run_python(block, cwd=REPO).stdout.splitlines() == expected


def test_smoke_passes_on_a_copy_of_the_package_outside_the_checkout(tmp_path):
    """``tests/smoke.py`` passes on ``python -m sceneplan.cli`` that imports a copy of ``src/``.

    CI runs the same file on the console script of a fresh ``pip install .``.
    """
    copy = tmp_path / "src" / "sceneplan"
    shutil.copytree(REPO / "src" / "sceneplan", copy, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(copy.parent))

    def python(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)

    imported = python("-c", "import sceneplan; print(sceneplan.__file__)").stdout
    assert Path(imported.strip()).resolve() == (copy / "__init__.py").resolve()
    done = python(str(REPO / "tests" / "smoke.py"), sys.executable, "-m", "sceneplan.cli")
    assert (done.returncode, done.stderr) == (0, "")
