"""Seeded inputs for the sceneplan benchmark: scenes, datasets and evaluate corpora.

Everything here is a pure function of the seed and uses only the standard
library, never the package under test, so the inputs stay the same when the
program changes and the same seed always writes byte-identical files.

Scene geometry is cell-aligned: every box is inset 0.02 m from the cell
borders it covers, so the footprint cells the program derives are exactly
the cells the generator blocked.  Every free cell is connected to cell
(0, 0), where the default start pose lies, so every object the generator
keeps has a reachable adjacent cell; the one exception is the sealed oven of
the validate scenes, whose free ring is walled off on purpose.
"""

from __future__ import annotations

import json
import random
import shutil
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

CELL = 0.25
INSET = 0.02
CLUTTER_DENSITY = 0.06

# Categories the rule backend needs, and the rest of the furniture pool.
RULE_FURNITURE = ("kitchen counter", "sink", "stove", "trash can")
RULE_ITEMS = ("kettle", "mug")
OTHER_FURNITURE = (
    "table", "chair", "cabinet", "shelf", "sofa", "desk", "bed", "dresser",
    "bench", "bookcase", "dishwasher", "microwave",
)
OTHER_ITEMS = (
    "plate", "bowl", "cup", "book", "vase", "lamp", "remote", "bottle",
    "towel", "spoon", "pan", "basket",
)

# Instruction per rule family and the number of steps that rule scripts.
FAMILIES = (
    ("coffee", ("I want to feel refreshed", "I am so tired, I need coffee",
                "help me energize this morning"), 4),
    ("tea", ("I am so thirsty", "a cup of tea would be lovely",
             "I am thirsty after the walk"), 2),
    ("tidy", ("this place is a mess", "the kitchen is dirty",
              "please clean up in here"), 2),
    ("generic", ("please help me get ready for dinner",
                 "my guests arrive in ten minutes",
                 "I can never find anything in this room"), 2),
)

FINDING_KINDS = (
    "unknown-object",
    "direction-inconsistent",
    "unreachable-target",
    "implicitness-violation",
    "step-structure",
    "unparsed-route",
)


@dataclass
class Obj:
    id: int
    category: str
    cells: tuple[int, int, int, int]  # row0, col0, rows, cols
    z: tuple[float, float]  # zmin, zmax

    def to_json(self) -> dict:
        r0, c0, h, w = self.cells
        xmin, xmax = c0 * CELL + INSET, (c0 + w) * CELL - INSET
        ymin, ymax = r0 * CELL + INSET, (r0 + h) * CELL - INSET
        zmin, zmax = self.z
        return {
            "id": self.id,
            "category": self.category,
            "centroid": [round((xmin + xmax) / 2, 4), round((ymin + ymax) / 2, 4),
                         round((zmin + zmax) / 2, 4)],
            "aabb": {"min": [round(xmin, 4), round(ymin, 4), round(zmin, 4)],
                     "max": [round(xmax, 4), round(ymax, 4), round(zmax, 4)]},
        }


@dataclass
class Scene:
    scene_id: str
    rows: int
    cols: int
    blocked: list[bool]
    objects: list[Obj] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "objects": [o.to_json() for o in self.objects],
            "occupancy": {
                "cell_size": CELL,
                "origin": [0.0, 0.0],
                "rows": self.rows,
                "cols": self.cols,
                "blocked": [1 if b else 0 for b in self.blocked],
            },
        }

    def categories(self) -> list[str]:
        return sorted({o.category for o in self.objects})


def _rect_cells(r0: int, c0: int, h: int, w: int):
    for r in range(r0, r0 + h):
        for c in range(c0, c0 + w):
            yield r, c


def make_scene(
    rng: random.Random,
    scene_id: str,
    n_objects: int,
    rows: int,
    cols: int,
    *,
    region: int | None = None,
    sealed_oven: bool = False,
) -> Scene:
    """A furnished room: furniture blocks cells, small items sit on furniture edges.

    With ``region`` the furniture stands within that many cells of the start
    corner and the rest of the grid is open floor.  With ``sealed_oven`` an
    oven is walled into the far corner and a single refrigerator stands low
    on the +x side, far outside the start heading.
    """
    span_rows = min(rows, region) if region else rows
    span_cols = min(cols, region) if region else cols
    blocked = [False] * (rows * cols)
    reserved = [False] * (rows * cols)  # footprints plus a one-cell margin
    objects: list[Obj] = []
    pocket: set[tuple[int, int]] = set()

    def idx(r: int, c: int) -> int:
        return r * cols + c

    def forbidden(r: int, c: int) -> bool:
        if r < 4 and c < 4:
            return True  # start corner stays open
        if sealed_oven and r >= rows - 20 and c >= cols - 20:
            return True  # nothing near the sealed pocket
        return False

    def add(category: str, r0: int, c0: int, h: int, w: int, z: tuple[float, float]) -> Obj:
        obj = Obj(len(objects), category, (r0, c0, h, w), z)
        objects.append(obj)
        return obj

    def place_block(r0: int, c0: int, h: int, w: int) -> None:
        for r, c in _rect_cells(r0, c0, h, w):
            blocked[idx(r, c)] = True
        for r, c in _rect_cells(r0 - 1, c0 - 1, h + 2, w + 2):
            if 0 <= r < rows and 0 <= c < cols:
                reserved[idx(r, c)] = True

    if sealed_oven:
        # 5x5 wall ring; the oven fills the centre cell, its 8 neighbours stay free.
        wr, wc = rows - 8, cols - 8
        for r, c in _rect_cells(wr, wc, 5, 5):
            if r in (wr, wr + 4) or c in (wc, wc + 4):
                blocked[idx(r, c)] = True
            elif (r, c) != (wr + 2, wc + 2):
                pocket.add((r, c))
        blocked[idx(wr + 2, wc + 2)] = True
        add("oven", wr + 2, wc + 2, 1, 1, (0.0, 0.9))
        fr, fc = 1, span_cols - 8
        place_block(fr, fc, 2, 2)
        add("refrigerator", fr, fc, 2, 2, (0.0, 1.8))

    n_furniture = max(len(RULE_FURNITURE) + 2, n_objects // 2 - len(objects))
    n_items = n_objects - len(objects) - n_furniture
    furniture: list[Obj] = []
    attempts = 0
    while len(furniture) < n_furniture and attempts < n_furniture * 200:
        attempts += 1
        h, w = rng.choice(((1, 2), (1, 3), (2, 1), (3, 1), (1, 4), (2, 2), (1, 1)))
        r0 = rng.randint(2, span_rows - h - 2)
        c0 = rng.randint(2, span_cols - w - 2)
        cells = list(_rect_cells(r0, c0, h, w))
        if any(reserved[idx(r, c)] or forbidden(r, c) for r, c in cells):
            continue
        k = len(furniture)
        category = (RULE_FURNITURE[k] if k < len(RULE_FURNITURE)
                    else rng.choice(RULE_FURNITURE + OTHER_FURNITURE))
        place_block(r0, c0, h, w)
        height = rng.choice((0.45, 0.75, 0.9, 1.2))
        furniture.append(add(category, r0, c0, h, w, (0.0, height)))

    for k in range(n_items):
        base = furniture[rng.randrange(len(furniture))]
        r0, c0, h, w = base.cells
        r, c = rng.choice(list(_rect_cells(r0, c0, h, w)))
        category = RULE_ITEMS[k] if k < len(RULE_ITEMS) else rng.choice(RULE_ITEMS + OTHER_ITEMS)
        top = base.z[1]
        add(category, r, c, 1, 1, (top, round(top + rng.choice((0.1, 0.2, 0.3)), 2)))

    for r in range(rows):
        for c in range(cols):
            if (not blocked[idx(r, c)] and not reserved[idx(r, c)]
                    and not forbidden(r, c) and rng.random() < CLUTTER_DENSITY):
                blocked[idx(r, c)] = True

    # Close off every free cell the start corner cannot reach, except the pocket.
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        r, c = queue.popleft()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < rows and 0 <= nc < cols and (nr, nc) not in seen and not blocked[idx(nr, nc)]:
                seen.add((nr, nc))
                queue.append((nr, nc))
    for r in range(rows):
        for c in range(cols):
            if not blocked[idx(r, c)] and (r, c) not in seen and (r, c) not in pocket:
                blocked[idx(r, c)] = True

    def reachable(obj: Obj) -> bool:
        r0, c0, h, w = obj.cells
        return any(
            (r, c) in seen
            for r, c in _rect_cells(r0 - 1, c0 - 1, h + 2, w + 2)
            if 0 <= r < rows and 0 <= c < cols
        )

    kept = [o for o in objects if o.category == "oven" or reachable(o)]
    present = {o.category for o in kept}
    missing = set(RULE_FURNITURE + RULE_ITEMS) - present
    if missing:
        raise RuntimeError(f"{scene_id}: no reachable {sorted(missing)}; change the size class")
    for new_id, obj in enumerate(kept):
        obj.id = new_id
    return Scene(scene_id, rows, cols, blocked, kept)


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


# ------------------------------------------------------------------ plan_mix

# One cycle of plan calls.  Sizes are fixed per slot and only the layout
# follows the seed, so runs on different seeds do the same amount of work.
# Small calls set the median, each on a scene of its own so that the median
# averages over many layouts; the three large calls are 3 of 31, so the
# nearest-rank p95 (30th of 31) is the 750-object call.
PLAN_SMALL = tuple((12 + 28 * i // 22, 20 + 10 * i // 22) for i in range(23))  # (objects, side)
PLAN_MEDIUM = ((200, 60), (200, 60))
PLAN_LARGE = ((500, 80), (750, 90), (1000, 100))
PLAN_QUICK_LARGE = ((150, 40),)
PLAN_SMALL_CALLS = 24
PLAN_MEDIUM_CALLS = 4
DUMP_GRAPH_EVERY = 5


@dataclass(frozen=True)
class PlanCall:
    argv: tuple[str, ...]
    family: str
    steps: int
    objects: int
    k: int
    dump_graph: bool


def make_plan_mix(root: Path, seed: int, kitchen: Path, quick: bool = False) -> list[PlanCall]:
    rng = random.Random(f"plan_mix/{seed}")
    scenes_dir = root / "scenes"
    scenes_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(kitchen, scenes_dir / "kitchen.json")
    kitchen_objects = len(json.loads(kitchen.read_text(encoding="utf-8"))["objects"])
    classes: dict[str, list[tuple[str, int]]] = {"small": [("kitchen.json", kitchen_objects)]}
    sizes = (("small", PLAN_SMALL), ("medium", PLAN_MEDIUM),
             ("large", PLAN_QUICK_LARGE if quick else PLAN_LARGE))
    for cls, specs in sizes:
        for i, (n, side) in enumerate(specs):
            scene = make_scene(rng, f"{cls}-{i}", n, side, side)
            write_json(scenes_dir / f"{cls}-{i}.json", scene.to_json())
            classes.setdefault(cls, []).append((f"{cls}-{i}.json", len(scene.objects)))

    # Families, --k and --dump-graph rotate within each class, so every class
    # sees every family and the large class includes one graph dump.
    slots = []
    for cls, count in (("small", PLAN_SMALL_CALLS), ("medium", PLAN_MEDIUM_CALLS),
                       ("large", len(classes["large"]))):
        for j in range(count):
            name, n_objects = classes[cls][j % len(classes[cls])]
            family, instructions, steps = FAMILIES[j % len(FAMILIES)]
            instruction = instructions[rng.randrange(len(instructions))]
            k = 2 if j % 2 == 0 else 4
            argv = ["plan", "--scene", f"{root.as_posix()}/scenes/{name}", "--instruction",
                    instruction, "--backend", "rules", "--k", str(k)]
            dump = j % DUMP_GRAPH_EVERY == 1
            if dump:
                argv.append("--dump-graph")
            slots.append((cls, (j + 0.5) / count, PlanCall(tuple(argv), family, steps,
                                                           n_objects, k, dump)))
    # Interleave the classes evenly so that any prefix of the cycle has the mix.
    slots.sort(key=lambda slot: slot[1])
    return [call for _, _, call in slots]


# ------------------------------------------------------------- validate_grid

# One scene per dataset, so one validate call per scene.  The grids are
# 60 to 120 cells a side but all of 7200 cells, so that the calls cost about
# the same and the median and p95 call fall among like calls.  The furniture
# stands in a 9 m square at the start corner, so routes stay short and the
# full-grid scans (start pose, nearest free cell) carry much of the cost.
VALIDATE_SHAPES = ((60, 120), (120, 60), (75, 96), (96, 75), (80, 90), (90, 80),
                   (72, 100), (100, 72))
VALIDATE_QUICK_SHAPE = (32, 32)
VALIDATE_REGION = 36
VALIDATE_OBJECTS = 60
STEP_COUNTS = (3, 4, 5, 4)  # about the corpus's 28/44/24% split of 3/4/5 steps
SAMPLES_PER_SCENE = 18
FAULT_EVERY = 6  # one sample in six carries exactly one injected fault

ACTIONS = {
    "kettle": "pick up the kettle",
    "sink": "fill the kettle with water at the sink",
    "stove": "boil the water on the stove",
    "mug": "pour the coffee into the mug",
    "trash can": "empty the trash can",
    "kitchen counter": "wipe down the kitchen counter",
}
ROUTES = (
    "walk to the {cat}",
    "turn 90 degrees left and walk straight ahead and walk to the {cat}",
    "turn 90 degrees right and walk to the {cat}",
    "walk straight ahead and turn 90 degrees left and walk to the {cat}",
    "turn 180 degrees left and walk straight ahead and walk to the {cat}",
)
TAILS = ("", " carefully", ", then wait for a moment", " without spilling anything",
         ", then check that everything looks right")
ACTIVITIES = ("prepare a cup of coffee", "make a cup of tea", "tidy up the room",
              "set up the kitchen for cooking", "get a drink ready")
NEEDS = ("I want to feel refreshed", "I am thirsty after the walk",
         "something smells bad in here", "my guests arrive in ten minutes",
         "I have been on my feet all day", "the little ones are hungry again",
         "it is a slow morning", "we have visitors this afternoon")


def _step_text(rng: random.Random, category: str) -> str:
    route = rng.choice(ROUTES).format(cat=category)
    action = ACTIONS.get(category, f"check the {category}")
    text = f"{route} and {action}{rng.choice(TAILS)}."
    return text[0].upper() + text[1:]


def _clean_record(rng: random.Random, scene: Scene, sample_id: int) -> dict:
    cats = [c for c in scene.categories() if c != "oven"]
    n_steps = STEP_COUNTS[sample_id % len(STEP_COUNTS)]
    steps = []
    for index in range(1, n_steps + 1):
        cat = rng.choice(cats)
        ids = [o.id for o in scene.objects if o.category == cat][:1]
        steps.append({"index": index, "text": _step_text(rng, cat), "object_ids": ids,
                      "is_final": index == n_steps})
    return {
        "scene_id": scene.scene_id,
        "sample_id": sample_id,
        "instruction": rng.choice(NEEDS) + rng.choice(("", " today", " again", " right now")),
        "activity": rng.choice(ACTIVITIES),
        "steps": steps,
    }


def _inject(record: dict, kind: str, scene: Scene) -> None:
    """Give a clean record exactly one finding of ``kind``."""
    steps = record["steps"]
    if kind == "unknown-object":
        steps[0]["object_ids"] = [len(scene.objects) + 1000]
    elif kind == "direction-inconsistent":
        # The refrigerator stands at low y and far +x: about 90 degrees off
        # the start heading (+y), well outside the 30-degree cone.
        fridge = next(o for o in scene.objects if o.category == "refrigerator")
        steps[0]["text"] = "Walk straight ahead to the refrigerator and open the refrigerator."
        steps[0]["object_ids"] = [fridge.id]
    elif kind == "unreachable-target":
        oven = next(o for o in scene.objects if o.category == "oven")
        steps[-1]["text"] = "Walk to the oven and preheat the oven."
        steps[-1]["object_ids"] = [oven.id]
    elif kind == "implicitness-violation":
        record["instruction"] = f"please {record['activity']} for me"
    elif kind == "step-structure":
        steps[-1]["is_final"] = False
    elif kind == "unparsed-route":
        steps[0]["text"] = "Walk quickly toward the sink and rinse the mug."
    else:
        raise ValueError(kind)


@dataclass(frozen=True)
class ValidateCall:
    argv: tuple[str, ...]
    samples: int
    expected: dict[str, dict[str, int]]  # "scene/sample" -> kind -> count


def make_validate_grid(root: Path, seed: int, quick: bool = False) -> list[ValidateCall]:
    rng = random.Random(f"validate_grid/{seed}")
    calls = []
    fault_no = 0
    for d, shape in enumerate(VALIDATE_SHAPES):
        ds = root / f"dataset-{d}"
        rows, cols = VALIDATE_QUICK_SHAPE if quick else shape
        scene = make_scene(rng, f"room-{d}", VALIDATE_OBJECTS, rows, cols,
                           region=VALIDATE_REGION, sealed_oven=True)
        write_json(ds / "scenes" / f"{scene.scene_id}.json", scene.to_json())
        records: list[dict] = []
        expected: dict[str, dict[str, int]] = {}
        for sample_id in range(1, SAMPLES_PER_SCENE + 1):
            record = _clean_record(rng, scene, sample_id)
            if sample_id % FAULT_EVERY == 0:
                kind = FINDING_KINDS[fault_no % len(FINDING_KINDS)]
                fault_no += 1
                _inject(record, kind, scene)
                expected[f"{scene.scene_id}/{sample_id}"] = {kind: 1}
            records.append(record)
        split = len(records) * 3 // 4
        for name, chunk in (("train", records[:split]), ("val", records[split:])):
            path = ds / "triplets" / f"{name}.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(json.dumps(r) + "\n" for r in chunk), encoding="utf-8")
        calls.append(ValidateCall(("validate", ds.as_posix()), len(records), expected))
    return calls


# ----------------------------------------------------------- evaluate_corpus

# Step and reference counts follow fixed patterns, so that every corpus
# costs about the same to score whatever the seed.
EVALUATE_CORPORA = 6
PAIRS_PER_CORPUS = 20
REFERENCE_COUNTS = (1, 3, 2, 4)

# Inflected forms so that every Porter step has something to strip.
INFLECTIONS = {
    "walk": ("walking", "walked", "walks"), "pick": ("picking", "picked"),
    "fill": ("filling", "filled", "fills"), "boil": ("boiling", "boiled", "boils"),
    "pour": ("pouring", "poured", "pours"), "empty": ("emptying", "emptied", "empties"),
    "wipe": ("wiping", "wiped"), "turn": ("turning", "turned", "turns"),
    "carefully": ("careful", "carefulness"), "check": ("checking", "checked"),
    "clean": ("cleaning", "cleaned", "cleanliness"), "open": ("opening", "opened"),
    "quickly": ("quick", "quickness"), "relate": ("relational", "relation"),
    "hope": ("hopeful", "hopefully", "hopefulness"), "adjust": ("adjustment", "adjustable"),
}
EXTRA_PHRASES = ("relate the kettle to the mug", "hope the water is hot",
                 "adjust the stove", "clean the kitchen counter quickly",
                 "open the cabinet", "check the sink carefully")
ALL_CATEGORIES = RULE_FURNITURE + RULE_ITEMS + OTHER_FURNITURE + OTHER_ITEMS


def _sample_text(rng: random.Random, n_steps: int) -> str:
    parts = [rng.choice(ACTIVITIES).capitalize() + "."]
    for i in range(1, n_steps + 1):
        cat = rng.choice(ALL_CATEGORIES)
        step = _step_text(rng, cat)
        if rng.random() < 0.1:
            step = step[:-1] + " and " + rng.choice(EXTRA_PHRASES) + "."
        parts.append(f"Step {i}: {step}")
    return " ".join(parts)


def _perturb(rng: random.Random, text: str) -> str:
    words = text.split()
    out = []
    for word in words:
        bare = word.strip(".,").lower()
        roll = rng.random()
        if bare in INFLECTIONS and roll < 0.5:
            out.append(rng.choice(INFLECTIONS[bare]))
        elif roll < 0.05:
            continue
        elif roll < 0.09:
            out.append(rng.choice(ALL_CATEGORIES).split()[-1])
        else:
            out.append(word)
    return " ".join(out)


@dataclass(frozen=True)
class EvaluateCall:
    argv: tuple[str, ...]
    pairs: int
    predictions: str
    references: str


def make_evaluate_corpus(root: Path, seed: int, quick: bool = False) -> list[EvaluateCall]:
    rng = random.Random(f"evaluate_corpus/{seed}")
    calls = []
    n_pairs = 4 if quick else PAIRS_PER_CORPUS
    for c in range(EVALUATE_CORPORA):
        preds, refs = [], []
        for i in range(1, n_pairs + 1):
            base = _sample_text(rng, STEP_COUNTS[i % len(STEP_COUNTS)])
            n_refs = REFERENCE_COUNTS[i % len(REFERENCE_COUNTS)]
            references = [_perturb(rng, base) for _ in range(n_refs)]
            preds.append({"scene_id": f"corpus-{c}", "sample_id": i, "text": _perturb(rng, base)})
            refs.append({"scene_id": f"corpus-{c}", "sample_id": i, "texts": references})
        pred_path = Path(f"{root.as_posix()}/corpus-{c}/predictions.jsonl")
        ref_path = Path(f"{root.as_posix()}/corpus-{c}/references.jsonl")
        pred_path.parent.mkdir(parents=True, exist_ok=True)
        pred_path.write_text("".join(json.dumps(r) + "\n" for r in preds), encoding="utf-8")
        ref_path.write_text("".join(json.dumps(r) + "\n" for r in refs), encoding="utf-8")
        calls.append(EvaluateCall(
            ("evaluate", "--predictions", pred_path.as_posix(),
             "--references", ref_path.as_posix()),
            n_pairs, pred_path.as_posix(), ref_path.as_posix()))
    return calls
