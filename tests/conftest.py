"""Shared fixtures: the kitchen scene and random scene/grid builders."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest

import sceneplan
from sceneplan.engine import GeneratorRequest
from sceneplan.scene import ObjectInstance, OccupancyGrid, SceneModel, load_scene

FIXTURES = Path(__file__).parent / "fixtures"

CATEGORY_POOL = (
    "table", "chair", "lamp", "sofa", "shelf", "plant", "television",
    "cabinet", "rug", "mirror", "desk", "bed", "stool", "bench", "vase",
)


@pytest.fixture(scope="session")
def kitchen_path() -> Path:
    return FIXTURES / "kitchen.json"


@pytest.fixture()
def kitchen(kitchen_path) -> SceneModel:
    return load_scene(kitchen_path)


@pytest.fixture(scope="session")
def golden_corpus_files(tmp_path_factory) -> Path:
    """The metrics golden corpus as prediction and reference JSONL files."""
    root = tmp_path_factory.mktemp("cli-corpus")
    pairs = json.loads((FIXTURES / "golden_corpus.json").read_text(encoding="utf-8"))["pairs"]
    for name, field, pick in [("predictions", "text", "candidate"), ("references", "texts", "references")]:
        (root / f"{name}.jsonl").write_text(
            "".join(
                json.dumps({"scene_id": "g", "sample_id": i, field: pair[pick]}) + "\n"
                for i, pair in enumerate(pairs)
            ),
            encoding="utf-8",
        )
    return root


def make_random_scene(seed: int, n_objects: int | None = None) -> SceneModel:
    """Gridless scene with random centroids; deterministic per seed."""
    rng = random.Random(seed)
    if n_objects is None:
        n_objects = rng.randint(5, 50)
    objects = []
    for oid in range(n_objects):
        cx = rng.uniform(0.0, 10.0)
        cy = rng.uniform(0.0, 10.0)
        cz = rng.uniform(0.0, 3.0)
        hx = rng.uniform(0.05, 0.4)
        hy = rng.uniform(0.05, 0.4)
        hz = rng.uniform(0.05, 0.4)
        objects.append(
            ObjectInstance(
                id=oid,
                category=rng.choice(CATEGORY_POOL),
                centroid=(cx, cy, cz),
                aabb=((cx - hx, cy - hy, cz - hz), (cx + hx, cy + hy, cz + hz)),
            )
        )
    scene = SceneModel(
        scene_id=f"random-{seed}",
        objects=tuple(objects),
        occupancy=None,
        category_vocab_size=len(CATEGORY_POOL),
    )
    scene.validate()
    return scene


def make_random_grid_scene(seed: int) -> SceneModel:
    """Occupancy-grid scene with one boxed target, returned even when blocked cells seal it off.

    Grid sizes span 10x10 to 40x40 with up to 25% blocked cells; the
    target's footprint cells are blocked as well (objects occupy space).
    Callers that need a reachable target skip the sealed worlds.
    """
    rng = random.Random(seed)
    rows = rng.randint(10, 40)
    cols = rng.randint(10, 40)
    cell = 0.5
    blocked = [rng.random() < rng.uniform(0.0, 0.25) for _ in range(rows * cols)]
    # Target box spans 1-3 cells per axis, somewhere strictly inside.
    box_rows = rng.randint(1, 3)
    box_cols = rng.randint(1, 3)
    r0 = rng.randint(1, rows - box_rows - 1)
    c0 = rng.randint(1, cols - box_cols - 1)
    xmin = c0 * cell + 0.1
    ymin = r0 * cell + 0.1
    xmax = (c0 + box_cols) * cell - 0.1
    ymax = (r0 + box_rows) * cell - 0.1
    for row in range(r0, r0 + box_rows):
        for col in range(c0, c0 + box_cols):
            blocked[row * cols + col] = True
    target = ObjectInstance(
        id=0,
        category="crate",
        centroid=((xmin + xmax) / 2, (ymin + ymax) / 2, 0.4),
        aabb=((xmin, ymin, 0.0), (xmax, ymax, 0.8)),
    )
    grid = OccupancyGrid(
        cell_size=cell, origin=(0.0, 0.0), rows=rows, cols=cols, blocked=bytes(blocked)
    )
    scene = SceneModel(
        scene_id=f"grid-{seed}",
        objects=(target,),
        occupancy=grid,
        category_vocab_size=1,
    )
    scene.validate()
    return scene


def scripted_generator(replies: list[str]) -> Callable[[GeneratorRequest], str]:
    """Generator that plays back canned raw replies by step index."""
    def generate(request: GeneratorRequest) -> str:
        if request.step_index > len(replies):
            raise IndexError(f"no scripted reply for step {request.step_index}")
        return replies[request.step_index - 1]

    return generate


def run_python(
    script: str, timeout: float = 30.0, cwd: Path | None = None
) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this ``sceneplan``.

    The interpreter starts in ``cwd``, or in this process's directory.

    Raises ``subprocess.TimeoutExpired`` when it runs longer than ``timeout``
    seconds, and ``CalledProcessError`` when it exits non-zero.
    """
    return run_interpreter(["-c", script], timeout, cwd)


def run_interpreter(
    args: list[str], timeout: float = 30.0, cwd: Path | None = None, check: bool = True
) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this ``sceneplan``.

    As :func:`run_python`; with ``check`` false, a non-zero exit is returned, not raised.
    """
    src = str(Path(sceneplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        check=check,
        timeout=timeout,
    )
