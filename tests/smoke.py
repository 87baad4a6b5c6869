"""Clean-install smoke: run the command line the way an installed package runs.

Usage::

    python tests/smoke.py COMMAND...

``COMMAND...`` starts the command line: ``$VENV/bin/sceneplan`` for an
installed console script, or ``python -m sceneplan.cli`` with the package on
``PYTHONPATH``.  The inputs are written to a temporary directory and every
call runs there, outside the checkout, so ``src/`` cannot be imported from
the working directory.  Each call must exit 0 and print exactly what
``json.dumps(indent=2, sort_keys=True)`` prints.  Every failing call prints
one message, and the run then exits 1.  Standard library only; the file is
not named ``test_*``, so pytest does not collect it.

The calls are those whose input no file in ``tests/fixtures/cli_golden``
holds: ``plan`` without ``--dump-graph``, and the commands that load the
dataset validator and the text metrics.  What the test suite checks in
process is not repeated here.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
COFFEE = ["--instruction", "I am tired and want coffee"]
CALLS = (
    ["plan", "--scene", "dataset/scenes/kitchen-01.json", *COFFEE],
    # 1000 objects, every number a float, on a grid.
    ["plan", "--scene", "large.json", *COFFEE, "--k", "2"],
    ["validate", "dataset"],
    ["stats", "dataset"],
    ["gen-prompts", "--scene", "dataset/scenes/kitchen-01.json", "--n", "2"],
    ["evaluate", "--predictions", "predictions.jsonl", "--references", "references.jsonl"],
)


def write_inputs(root: Path) -> None:
    """A one-scene dataset, a 1000-object scene and two prediction/reference pairs."""
    for name, fixture in [("scenes/kitchen-01.json", "kitchen.json"),
                          ("triplets/train.jsonl", "triplets_valid.jsonl")]:
        (root / "dataset" / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / fixture, root / "dataset" / name)
    rng = random.Random(1)
    names = ["kettle", "mug", "sink", "stove", "kitchen counter", "coffee machine",
             "refrigerator", "cabinet"]
    objects = []
    for i in range(1000):
        x, y = rng.uniform(1.0, 29.0), rng.uniform(1.0, 29.0)
        objects.append({"id": i, "category": names[i % len(names)], "centroid": [x, y, 0.5],
                        "aabb": {"min": [x - 0.2, y - 0.2, 0.0], "max": [x + 0.2, y + 0.2, 1.0]}})
    grid = {"cell_size": 0.5, "origin": [0.0, 0.0], "rows": 60, "cols": 60, "blocked": [0] * 3600}
    (root / "large.json").write_text(
        json.dumps({"scene_id": "large", "objects": objects, "occupancy": grid}), encoding="utf-8"
    )
    records = {
        "predictions.jsonl": [
            {"scene_id": "kitchen-01", "sample_id": 1, "text": "Walk to the kettle and pick it up."},
            {"scene_id": "kitchen-01", "sample_id": 2,
             "text": "Turn 90 degrees left and walk to the sink."},
        ],
        "references.jsonl": [
            {"scene_id": "kitchen-01", "sample_id": 1,
             "texts": ["Walk to the kettle.", "Pick up the kettle."]},
            {"scene_id": "kitchen-01", "sample_id": 2, "text": "Turn left and walk to the sink."},
        ],
    }
    for name, lines in records.items():
        (root / name).write_text("".join(json.dumps(line) + "\n" for line in lines),
                                 encoding="utf-8")


def failure(command: list[str], args: list[str], cwd: Path) -> str | None:
    """Why ``command args`` fails the smoke test in ``cwd``, or None when it passes."""
    done = subprocess.run([*command, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        return f"{' '.join(args)}: exited {done.returncode}\n{done.stderr}"
    try:
        canonical = json.dumps(json.loads(done.stdout), indent=2, sort_keys=True) + "\n"
    except ValueError:
        canonical = None
    if done.stdout != canonical:
        return f"{' '.join(args)}: stdout differs from json.dumps(indent=2, sort_keys=True)"
    return None


def main(command: list[str]) -> int | str:
    if not command:
        return "usage: python tests/smoke.py COMMAND..."
    with tempfile.TemporaryDirectory(prefix="sceneplan-smoke-") as tmp:
        root = Path(tmp)
        write_inputs(root)
        failures = [message for args in CALLS if (message := failure(command, args, root))]
    return "\n".join(failures) if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
