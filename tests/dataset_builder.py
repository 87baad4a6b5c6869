"""Deterministic construction of dataset directories and records for tests.

The scene writers (:func:`scene_to_dict` and :func:`serialize_scene`) are
the inverses of :func:`~sceneplan.scene.load_scene`; a triplet record needs
no writer, since it is already the dict that ``parse_triplet_record``
returns.
:func:`build_faulty_dataset` builds a 50-sample, two-scene dataset: 45
clean samples generated by the rule-based backend and 5 samples with
injected faults, one for each validation finding kind except
step-structure.  Construction is pure arithmetic over fixed tables, so
repeated builds are byte-identical.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from sceneplan.engine import run_episode
from sceneplan.generators import DEFAULT_RULES, RuleBasedGenerator, select_rule
from sceneplan.graph import build_graph
from sceneplan.scene import SceneModel, load_scene

FIXTURES = Path(__file__).parent / "fixtures"
KITCHEN = FIXTURES / "kitchen.json"

CLEAN_FLAVORS = (
    ("I want to feel refreshed", "prepare a cup of coffee"),
    ("I am so thirsty", "make a cup of tea"),
    ("this place is a mess", "tidy up the room"),
    ("please help me get ready for dinner", "assist with the request"),
)

SUFFIXES = (
    "", " today", " right now", " as soon as possible",
    " before the guests arrive", " this evening", " again", " for me",
    " once more", " soon", " honestly", " if you can",
)


def scene_to_dict(scene: SceneModel) -> dict:
    out: dict = {
        "scene_id": scene.scene_id,
        "objects": [
            {
                "id": o.id,
                "category": o.category,
                "centroid": list(o.centroid),
                "aabb": {"min": list(o.aabb[0]), "max": list(o.aabb[1])},
                **({"mask_ref": o.mask_ref} if o.mask_ref is not None else {}),
            }
            for o in scene.objects
        ],
        "category_vocab_size": scene.category_vocab_size,
    }
    if scene.occupancy is not None:
        g = scene.occupancy
        out["occupancy"] = {
            "cell_size": g.cell_size,
            "origin": list(g.origin),
            "rows": g.rows,
            "cols": g.cols,
            "blocked": list(g.blocked),
        }
    return out


def serialize_scene(scene: SceneModel) -> str:
    """Inverse of ``load_scene``: emits JSON that loads back to an equal scene."""
    return json.dumps(scene_to_dict(scene), indent=2)


def _steps_for(scene, instruction: str) -> list[dict]:
    graph = build_graph(scene, k=2)
    episode = run_episode(scene, graph, instruction, RuleBasedGenerator(scene))
    assert episode["terminated_by"] == "end-token"
    steps = episode["steps"]
    return [{**s, "is_final": s["index"] == len(steps)} for s in steps]


def _walled_scene(base: dict) -> dict:
    """Second scene: the base kitchen plus an oven sealed behind blocked cells."""
    scene = json.loads(json.dumps(base))
    scene["scene_id"] = "kitchen-02"
    scene["objects"].append({
        "id": 12,
        "category": "oven",
        "centroid": [0.5, 4.0, 0.45],
        "aabb": {"min": [0.2, 3.7, 0.0], "max": [0.8, 4.3, 0.9]},
    })
    occupancy = scene["occupancy"]
    cols = occupancy["cols"]
    for row in range(8, 12):
        for col in range(5, 9):
            occupancy["blocked"][row * cols + col] = 1
    return scene


def build_faulty_dataset(root: Path) -> dict:
    """Write the dataset under ``root``; returns the fault plan for assertions.

    Layout: 40 clean samples in train.jsonl; 5 clean plus 5 faulty samples
    in val.jsonl.  Expected finding kinds are keyed by sample_id.
    """
    scene = load_scene(KITCHEN)
    base = json.loads(KITCHEN.read_text(encoding="utf-8"))
    scenes_dir = root / "scenes"
    triplets_dir = root / "triplets"
    scenes_dir.mkdir(parents=True)
    triplets_dir.mkdir(parents=True)
    shutil.copy(KITCHEN, scenes_dir / "kitchen-01.json")
    (scenes_dir / "kitchen-02.json").write_text(
        json.dumps(_walled_scene(base), indent=1) + "\n", encoding="utf-8"
    )

    flavor_steps = {}
    for instruction, activity in CLEAN_FLAVORS:
        rule = select_rule(instruction, DEFAULT_RULES)
        assert rule.activity_phrase == activity
        flavor_steps[activity] = _steps_for(scene, instruction)

    records = []
    for i in range(45):
        instruction, activity = CLEAN_FLAVORS[i % len(CLEAN_FLAVORS)]
        suffix = SUFFIXES[i // len(CLEAN_FLAVORS) % len(SUFFIXES)]
        records.append({
            "scene_id": "kitchen-01",
            "sample_id": i + 1,
            "instruction": instruction + suffix,
            "activity": activity,
            "steps": flavor_steps[activity],
        })

    generic_steps = flavor_steps["assist with the request"]
    faults = [
        # unknown-object: a step references an object id the scene lacks.
        {
            "scene_id": "kitchen-01",
            "sample_id": 46,
            "instruction": "I could use something warm to drink",
            "activity": "heat some water",
            "steps": [{"index": 1, "text": "Pick up the item from the shelf.",
                       "object_ids": [99], "is_final": True}],
        },
        # direction-inconsistent: fridge is far off the +y heading at start.
        {
            "scene_id": "kitchen-01",
            "sample_id": 47,
            "instruction": "something in here smells odd",
            "activity": "inspect the refrigerator",
            "steps": [{"index": 1,
                       "text": "Walk straight ahead to the refrigerator and open the refrigerator.",
                       "object_ids": [5], "is_final": True}],
        },
        # unreachable-target: the oven in kitchen-02 is sealed off.
        {
            "scene_id": "kitchen-02",
            "sample_id": 48,
            "instruction": "dinner needs to be warm when they arrive",
            "activity": "preheat the oven",
            "steps": [{"index": 1, "text": "Walk to the oven and preheat the oven.",
                       "object_ids": [12], "is_final": True}],
        },
        # implicitness-violation: the instruction states the activity outright.
        {
            "scene_id": "kitchen-01",
            "sample_id": 49,
            "instruction": "please prepare a cup of coffee for me",
            "activity": "prepare a cup of coffee",
            "steps": generic_steps,
        },
        # unparsed-route: movement verb fragment outside the clause grammar.
        {
            "scene_id": "kitchen-01",
            "sample_id": 50,
            "instruction": "my mug has been sitting out all day",
            "activity": "rinse the mug",
            "steps": [{"index": 1, "text": "Walk quickly toward the sink and rinse the mug.",
                       "object_ids": [3], "is_final": True}],
        },
    ]
    records.extend(faults)

    with open(triplets_dir / "train.jsonl", "w", encoding="utf-8") as fh:
        for record in records[:40]:
            fh.write(json.dumps(record) + "\n")
    with open(triplets_dir / "val.jsonl", "w", encoding="utf-8") as fh:
        for record in records[40:]:
            fh.write(json.dumps(record) + "\n")

    return {
        "records": records,
        "expected_kinds": {
            46: "unknown-object",
            47: "direction-inconsistent",
            48: "unreachable-target",
            49: "implicitness-violation",
            50: "unparsed-route",
        },
    }


def build_clean_dataset(root: Path, count: int = 10) -> list[dict]:
    """Small all-clean dataset directory; returns the written records."""
    scene = load_scene(KITCHEN)
    scenes_dir = root / "scenes"
    triplets_dir = root / "triplets"
    scenes_dir.mkdir(parents=True)
    triplets_dir.mkdir(parents=True)
    shutil.copy(KITCHEN, scenes_dir / "kitchen-01.json")
    records = []
    for i in range(count):
        instruction, activity = CLEAN_FLAVORS[i % len(CLEAN_FLAVORS)]
        suffix = SUFFIXES[i // len(CLEAN_FLAVORS) % len(SUFFIXES)]
        records.append({
            "scene_id": "kitchen-01",
            "sample_id": i + 1,
            "instruction": instruction + suffix,
            "activity": activity,
            "steps": _steps_for(scene, instruction),
        })
    with open(triplets_dir / "train.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return records
