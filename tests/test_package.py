"""The package's one way in: submodule imports, as the README documents them."""

from __future__ import annotations

import json
import re
from pathlib import Path

from tests.conftest import FIXTURES, run_python

REPO = Path(__file__).resolve().parent.parent


def test_importing_the_package_loads_no_submodule():
    script = (
        "import json, sys, sceneplan\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sceneplan.'))))\n"
    )
    assert json.loads(run_python(script).stdout) == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Only what the import adds counts, so a site hook that loads either
    # module before it cannot fail the test.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import sceneplan.cli\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & added)))\n"
    )
    assert json.loads(run_python(script).stdout) == []


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
