"""The package's one way in: submodule imports, as the README documents them."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from sceneplan import dataset, scene
from tests.conftest import FIXTURES, run_python
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
    # Only what the import adds counts, so a site hook that loads one of
    # these modules before it cannot fail the test.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import sceneplan.cli\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'typing'} & added)))\n"
    )
    assert json.loads(run_python(script).stdout) == []


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
# as cli attributes, and a function set on cli is the one its command calls.
_HOOK_CONTRACT = """
import contextlib, io, json, sys
import sceneplan
from sceneplan import cli

report = {
    "submodules": [getattr(sceneplan, name) is sys.modules["sceneplan." + name]
                   for name in ("dataset", "metrics")],
    "cli_names": [getattr(cli, "validate_dataset") is sceneplan.dataset.validate_dataset,
                  getattr(cli, "pair_from_text") is sceneplan.metrics.pair_from_text],
    "runs": {},
    "missing": [],
}
for command, name in (("validate", "validate_dataset"), ("evaluate", "pair_from_text")):
    original = getattr(cli, name)
    calls = []

    def wrapper(*args, original=original, calls=calls, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(cli, name, wrapper)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(ARGV[command])
    report["runs"][command] = [code, len(calls), out.getvalue()]
for owner in (sceneplan, cli):
    try:
        owner.no_such_name
    except AttributeError:
        report["missing"].append(owner.__name__)
print(json.dumps(report))
"""


def test_hooked_names_resolve_and_a_rebound_function_runs(command_inputs):
    argv = {command: command_inputs[command] for command in ("validate", "evaluate")}
    report = json.loads(run_python(f"ARGV = {argv!r}\n" + _HOOK_CONTRACT).stdout)
    assert report["submodules"] == [True, True]
    assert report["cli_names"] == [True, True]
    validate_code, validate_calls, validate_out = report["runs"]["validate"]
    assert (validate_code, validate_calls) == (1, 1)
    assert validate_out == (GOLDEN / "validate_faulty_dataset.json").read_text(encoding="utf-8")
    evaluate_code, evaluate_calls, evaluate_out = report["runs"]["evaluate"]
    pairs = json.loads((FIXTURES / "golden_corpus.json").read_text(encoding="utf-8"))["pairs"]
    assert (evaluate_code, evaluate_calls) == (0, len(pairs))
    assert evaluate_out == (GOLDEN / "evaluate_golden_corpus.json").read_text(encoding="utf-8")
    assert report["missing"] == ["sceneplan", "sceneplan.cli"]


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
