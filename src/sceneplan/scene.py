"""Scene and dataset data model: object instances, scenes, instruction-plan triplets.

On-disk formats:
  * scene file  -- UTF-8 JSON object, see :func:`load_scene`
  * triplet file -- JSON Lines, one instruction-plan triplet per line,
    see :func:`load_triplets`

All lengths are in meters.  Loaded objects are immutable and safe to share
across workers.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from .textmatch import CategoryMatcher

Vec3 = tuple[float, float, float]


_FREE_RUN = re.compile(rb"\x00+")


class SceneFormatError(ValueError):
    """Syntactically or structurally invalid scene/triplet file."""


class SceneInvariantError(ValueError):
    """Well-formed file whose content violates a scene invariant."""


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box given by its min and max corners."""

    min_corner: Vec3
    max_corner: Vec3


def point_in_aabb(p: Vec3, box: Aabb) -> bool:
    """True iff ``p`` lies inside ``box`` (closed: boundary counts as inside)."""
    return all(box.min_corner[i] <= p[i] <= box.max_corner[i] for i in range(3))


@dataclass(frozen=True)
class ObjectInstance:
    """One labelled object in a scene.

    ``mask_ref`` is an opaque reference to an external segmentation asset;
    the planner itself only consumes the centroid and the bounding box.
    """

    id: int
    category: str
    centroid: Vec3
    aabb: Aabb
    mask_ref: str | None = None

    def validate(self) -> None:
        if self.id < 0:
            raise SceneInvariantError(f"object {self.id}: id must be non-negative")
        if not self.category.split():
            raise SceneInvariantError(f"object {self.id}: empty category")
        if self.category != self.category.lower():
            raise SceneInvariantError(
                f"object {self.id}: category {self.category!r} is not lowercase"
            )
        lo, hi, c = self.aabb.min_corner, self.aabb.max_corner, self.centroid
        if lo[0] > hi[0] or lo[1] > hi[1] or lo[2] > hi[2]:
            raise SceneInvariantError(f"object {self.id}: aabb min exceeds max")
        if not (lo[0] <= c[0] <= hi[0] and lo[1] <= c[1] <= hi[1] and lo[2] <= c[2] <= hi[2]):
            raise SceneInvariantError(f"object {self.id}: centroid outside aabb")


@dataclass(frozen=True)
class OccupancyGrid:
    """2D ground-plane discretization; ``blocked`` is row-major, True = blocked.

    Cell (row, col) spans world x in [origin_x + col*cell, origin_x + (col+1)*cell]
    and world y in [origin_y + row*cell, origin_y + (row+1)*cell].
    """

    cell_size: float
    origin: tuple[float, float]
    rows: int
    cols: int
    blocked: tuple[bool, ...]

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols

    def is_blocked(self, row: int, col: int) -> bool:
        return self.blocked[row * self.cols + col]

    def is_free(self, row: int, col: int) -> bool:
        return self.in_bounds(row, col) and not self.is_blocked(row, col)

    def component_of(self, row: int, col: int) -> int:
        """Label of the cell's free-cell component (see :attr:`component_labels`)."""
        return self.component_labels[row * self.cols + col]

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Grid cell containing world point (x, y); points outside clamp to the edge cell.

        Clamping happens before ``int()``, so a far point whose offset is
        ``inf`` in cell units still lands on the edge.
        """
        col = (x - self.origin[0]) / self.cell_size
        row = (y - self.origin[1]) / self.cell_size
        return int(min(max(row, 0), self.rows - 1)), int(min(max(col, 0), self.cols - 1))

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        return (
            self.origin[0] + (col + 0.5) * self.cell_size,
            self.origin[1] + (row + 0.5) * self.cell_size,
        )

    def contains_point(self, x: float, y: float) -> bool:
        return (
            self.origin[0] <= x <= self.origin[0] + self.cols * self.cell_size
            and self.origin[1] <= y <= self.origin[1] + self.rows * self.cell_size
        )

    @cached_property
    def component_labels(self) -> tuple[int, ...]:
        """Row-major 4-connected free-cell component label per cell, -1 if blocked.

        Two free cells share a label iff a 4-connected path of free cells
        joins them; labels count up from 0 in the row-major order of each
        component's first cell.  Built on first use in the two-pass form of
        Rosenfeld & Pfaltz (1966) over runs of free cells: each row's runs
        are joined by union-find to the runs they overlap in the row above,
        then every run takes its root's label.  Kept in the instance
        ``__dict__``, outside the dataclass fields, so equality, hashing and
        serialization still see only the grid.
        """
        cols = self.cols
        cells = bytes(self.blocked)  # 0 = free, 1 = blocked
        parent: list[int] = []  # union-find forest over runs; a root is its tree's first run
        spans: list[tuple[int, int]] = []  # (start, end) cell indices of each run
        above: list[int] = []  # start col, end col, run, ... of the row above's runs

        def root(run: int) -> int:
            while parent[run] != run:
                parent[run] = run = parent[parent[run]]  # path halving
            return run

        for row_start in range(0, len(cells), cols):
            row: list[int] = []
            i = 0
            for match in _FREE_RUN.finditer(cells, row_start, row_start + cols):
                span = match.span()
                start, end = span[0] - row_start, span[1] - row_start
                link = len(parent)
                parent.append(link)
                spans.append(span)
                # Join the new run and every run above that overlaps
                # [start, end) under the smallest of their roots.
                while i < len(above) and above[i + 1] <= start:
                    i += 3
                j = i
                while j < len(above) and above[j] < end:
                    other = root(above[j + 2])
                    if other < link:
                        parent[link] = other
                        link = other
                    elif other > link:
                        parent[other] = link
                    j += 3
                row += (start, end, link)
            above = row
        labels = [-1] * len(cells)
        label_of: dict[int, int] = {}
        for run, (start, end) in enumerate(spans):
            label = label_of.setdefault(root(run), len(label_of))
            labels[start:end] = [label] * (end - start)
        return tuple(labels)


def ring_cells(rows: int, cols: int, row0: int, col0: int, d: int) -> list[tuple[int, int]]:
    """Cells of a rows x cols grid at Chebyshev distance exactly ``d`` from (row0, col0)."""
    if d == 0:
        return [(row0, col0)]
    cells: list[tuple[int, int]] = []
    col_lo, col_hi = max(col0 - d, 0), min(col0 + d, cols - 1)
    for row in (row0 - d, row0 + d):
        if 0 <= row < rows:
            cells.extend((row, col) for col in range(col_lo, col_hi + 1))
    row_lo, row_hi = max(row0 - d + 1, 0), min(row0 + d - 1, rows - 1)
    for col in (col0 - d, col0 + d):
        if 0 <= col < cols:
            cells.extend((row, col) for row in range(row_lo, row_hi + 1))
    return cells


@dataclass(frozen=True)
class SceneModel:
    """A 3D scene reduced to per-object geometry plus an optional occupancy grid."""

    scene_id: str
    objects: tuple[ObjectInstance, ...]
    occupancy: OccupancyGrid | None = None
    category_vocab_size: int = 0

    def validate(self) -> None:
        seen: set[int] = set()
        for obj in self.objects:
            obj.validate()
            if obj.id in seen:
                raise SceneInvariantError(f"duplicate object id {obj.id}")
            seen.add(obj.id)
        distinct = len({o.category for o in self.objects})
        if self.category_vocab_size < distinct:
            raise SceneInvariantError(
                f"category_vocab_size {self.category_vocab_size} < "
                f"{distinct} distinct categories present"
            )
        if self.occupancy is not None:
            for obj in self.objects:
                if not self.occupancy.contains_point(obj.centroid[0], obj.centroid[1]):
                    raise SceneInvariantError(
                        f"object {obj.id}: centroid projects outside occupancy grid"
                    )

    @cached_property
    def objects_by_id(self) -> Mapping[int, ObjectInstance]:
        """The objects by id, read-only, built on first use.

        Kept in the instance ``__dict__`` like :attr:`category_matcher`.
        """
        return MappingProxyType({o.id: o for o in self.objects})

    def categories(self) -> set[str]:
        return {o.category for o in self.objects}

    @cached_property
    def category_matcher(self) -> CategoryMatcher:
        """The scene's categories indexed for matching in text, built on first use.

        Kept in the instance ``__dict__``, outside the dataclass fields, so
        equality, hashing and serialization still see only the scene.
        """
        return CategoryMatcher(self.categories())

    @cached_property
    def goal_cell_memo(self) -> dict[int, frozenset[tuple[int, int]]]:
        """``route.goal_cells`` by object id, filled on use.

        Kept in the instance ``__dict__`` like :attr:`category_matcher`.
        """
        return {}

    def instances_of(self, category: str) -> list[ObjectInstance]:
        return [o for o in self.objects if o.category == category]


@dataclass(frozen=True)
class PlanStep:
    """One sentence of a step-by-step plan; ``index`` is 1-based."""

    index: int
    text: str
    object_ids: tuple[int, ...] = ()
    is_final: bool = False


@dataclass(frozen=True)
class InstructionPlanTriplet:
    """An implicit instruction, its reasoned activity phrase, and the plan steps."""

    scene_id: str
    instruction: str
    activity: str
    steps: tuple[PlanStep, ...]


@dataclass(frozen=True)
class TripletWarning:
    """Structured diagnostic emitted while loading a triplet file.

    ``kind`` is one of: syntax, unknown-object, implicitness-violation,
    step-structure.  Records with a ``syntax`` warning are rejected; records
    with any other kind are still returned.
    """

    kind: str
    line: int
    detail: str


def _number(raw: object, where: str) -> float:
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise SceneFormatError(f"{where}: expected a number") from None
    if not math.isfinite(value):
        raise SceneFormatError(f"{where}: expected a finite number")
    return value


def _vec3(raw: object, index: int, field: str) -> Vec3:
    """``raw`` as three finite floats, for field ``field`` of ``objects[index]``.

    The locus is formatted only to raise.
    """
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise SceneFormatError(f"objects[{index}]{field}: expected 3 numbers")
    try:
        x, y, z = map(float, raw)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
            return (x, y, z)
    # Some number is bad: check each in turn, so that the first is reported.
    where = f"objects[{index}]{field}"
    return (_number(raw[0], where), _number(raw[1], where), _number(raw[2], where))


def _require(record: dict, key: str, where: str) -> object:
    if key not in record:
        raise SceneFormatError(f"{where}: missing field {key!r}")
    return record[key]


def _object_error(index: int, field: str, problem: str) -> SceneFormatError:
    return SceneFormatError(f"objects[{index}]{field}: {problem}")


def _object_field(record: dict, key: str, index: int, field: str = "") -> object:
    """``record[key]``, where ``record`` is field ``field`` of ``objects[index]``."""
    if key not in record:
        raise _object_error(index, field, f"missing field {key!r}")
    return record[key]


def _parse_object(raw: object, index: int) -> ObjectInstance:
    """``objects[index]`` of a scene file; its locus is formatted only to raise."""
    if not isinstance(raw, dict):
        raise _object_error(index, "", "expected object")
    oid = _object_field(raw, "id", index)
    if not isinstance(oid, int) or isinstance(oid, bool):
        raise _object_error(index, ".id", "expected integer")
    category = _object_field(raw, "category", index)
    if not isinstance(category, str):
        raise _object_error(index, ".category", "expected string")
    centroid = _vec3(_object_field(raw, "centroid", index), index, ".centroid")
    aabb_raw = _object_field(raw, "aabb", index)
    if not isinstance(aabb_raw, dict):
        raise _object_error(index, ".aabb", "expected object with min/max")
    box = Aabb(
        _vec3(_object_field(aabb_raw, "min", index, ".aabb"), index, ".aabb.min"),
        _vec3(_object_field(aabb_raw, "max", index, ".aabb"), index, ".aabb.max"),
    )
    mask_ref = raw.get("mask_ref")
    if mask_ref is not None and not isinstance(mask_ref, str):
        raise _object_error(index, ".mask_ref", "expected string")
    return ObjectInstance(oid, category, centroid, box, mask_ref)


def _parse_occupancy(raw: object) -> OccupancyGrid:
    where = "occupancy"
    if not isinstance(raw, dict):
        raise SceneFormatError(f"{where}: expected object")
    cell_size = _number(_require(raw, "cell_size", where), f"{where}.cell_size")
    if cell_size <= 0:
        raise SceneFormatError(f"{where}.cell_size: must be positive")
    origin_raw = _require(raw, "origin", where)
    if not isinstance(origin_raw, (list, tuple)) or len(origin_raw) != 2:
        raise SceneFormatError(f"{where}.origin: expected 2 numbers")
    origin = tuple(_number(v, f"{where}.origin") for v in origin_raw)
    rows = _require(raw, "rows", where)
    cols = _require(raw, "cols", where)
    if not isinstance(rows, int) or not isinstance(cols, int) or rows <= 0 or cols <= 0:
        raise SceneFormatError(f"{where}.rows/cols: expected positive integers")
    blocked_raw = _require(raw, "blocked", where)
    if not isinstance(blocked_raw, list) or len(blocked_raw) != rows * cols:
        raise SceneFormatError(f"{where}.blocked: expected {rows * cols} flags")
    return OccupancyGrid(
        cell_size=cell_size,
        origin=origin,  # type: ignore[arg-type]
        rows=rows,
        cols=cols,
        blocked=tuple(map(bool, blocked_raw)),
    )


def load_scene(path: str | Path) -> SceneModel:
    """Load and validate a scene file.

    Scene file schema::

        {"scene_id": str,
         "objects": [{"id": int, "category": str, "centroid": [x, y, z],
                      "aabb": {"min": [...], "max": [...]}, "mask_ref": str?}],
         "occupancy": {"cell_size": float, "origin": [x, y], "rows": int,
                       "cols": int, "blocked": [row-major 0/1]}?,
         "category_vocab_size": int?}

    ``category_vocab_size`` defaults to the number of distinct categories
    present.  Raises :class:`SceneFormatError` with a line/field locus on
    syntax problems and :class:`SceneInvariantError` naming the offending
    object id on semantic ones.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SceneFormatError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SceneFormatError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise SceneFormatError(f"{path}: top level must be a JSON object")
    scene_id = _require(data, "scene_id", "scene")
    if not isinstance(scene_id, str):
        raise SceneFormatError("scene_id: expected string")
    objects_raw = _require(data, "objects", "scene")
    if not isinstance(objects_raw, list):
        raise SceneFormatError("objects: expected array")
    objects = tuple(map(_parse_object, objects_raw, itertools.count()))
    occupancy = None
    if data.get("occupancy") is not None:
        occupancy = _parse_occupancy(data["occupancy"])
    vocab = data.get("category_vocab_size")
    if vocab is None:
        vocab = len({o.category for o in objects})
    elif not isinstance(vocab, int):
        raise SceneFormatError("category_vocab_size: expected integer")
    scene = SceneModel(
        scene_id=scene_id,
        objects=objects,
        occupancy=occupancy,
        category_vocab_size=vocab,
    )
    scene.validate()
    return scene


def scene_to_dict(scene: SceneModel) -> dict:
    out: dict = {
        "scene_id": scene.scene_id,
        "objects": [
            {
                "id": o.id,
                "category": o.category,
                "centroid": list(o.centroid),
                "aabb": {"min": list(o.aabb.min_corner), "max": list(o.aabb.max_corner)},
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
            "blocked": [1 if b else 0 for b in g.blocked],
        }
    return out


def serialize_scene(scene: SceneModel) -> str:
    """Inverse of :func:`load_scene`: emits JSON that loads back to an equal scene."""
    return json.dumps(scene_to_dict(scene), indent=2)


def _parse_step(raw: object, where: str) -> PlanStep:
    if not isinstance(raw, dict):
        raise SceneFormatError(f"{where}: expected object")
    index = _require(raw, "index", where)
    text = _require(raw, "text", where)
    if not isinstance(index, int) or not isinstance(text, str):
        raise SceneFormatError(f"{where}: bad index/text types")
    ids_raw = raw.get("object_ids", [])
    if not isinstance(ids_raw, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in ids_raw
    ):
        raise SceneFormatError(f"{where}.object_ids: expected integer array")
    return PlanStep(
        index=index,
        text=text,
        object_ids=tuple(ids_raw),
        is_final=bool(raw.get("is_final", False)),
    )


def parse_triplet_record(data: dict, where: str = "record") -> InstructionPlanTriplet:
    scene_id = _require(data, "scene_id", where)
    instruction = _require(data, "instruction", where)
    activity = _require(data, "activity", where)
    if not all(isinstance(v, str) for v in (scene_id, instruction, activity)):
        raise SceneFormatError(f"{where}: scene_id/instruction/activity must be strings")
    steps_raw = _require(data, "steps", where)
    if not isinstance(steps_raw, list):
        raise SceneFormatError(f"{where}.steps: expected array")
    steps = tuple(
        _parse_step(raw, f"{where}.steps[{i}]") for i, raw in enumerate(steps_raw)
    )
    return InstructionPlanTriplet(scene_id, instruction, activity, steps)  # type: ignore[arg-type]


def triplet_warnings(
    triplet: InstructionPlanTriplet, scene: SceneModel | None, line: int
) -> list[TripletWarning]:
    """Semantic checks for one triplet; violations are reported, never raised."""
    warnings: list[TripletWarning] = []
    if not triplet.steps:
        warnings.append(TripletWarning("step-structure", line, "empty step list"))
    else:
        finals = [s for s in triplet.steps if s.is_final]
        if len(finals) != 1 or not triplet.steps[-1].is_final:
            warnings.append(
                TripletWarning(
                    "step-structure",
                    line,
                    f"expected exactly one final step at the end, found {len(finals)}",
                )
            )
        for pos, step in enumerate(triplet.steps, start=1):
            if step.index != pos:
                warnings.append(
                    TripletWarning(
                        "step-structure",
                        line,
                        f"step at position {pos} has index {step.index}",
                    )
                )
                break
    if scene is not None:
        known = scene.objects_by_id
        for step in triplet.steps:
            for oid in step.object_ids:
                if oid not in known:
                    warnings.append(
                        TripletWarning("unknown-object", line, f"unknown object {oid}")
                    )
    if triplet.activity and triplet.activity.casefold() in triplet.instruction.casefold():
        warnings.append(
            TripletWarning(
                "implicitness-violation",
                line,
                f"instruction literally contains activity {triplet.activity!r}",
            )
        )
    return warnings


def read_jsonl(path: str | Path) -> list[tuple[int, str, dict | SceneFormatError]]:
    """Parse every nonblank line of a JSON Lines file.

    Each entry is (line number, ``path:line`` locus, record).  A line that
    is not a JSON object comes back as the :class:`SceneFormatError` saying
    why, in place of its record, so each caller keeps its own policy: skip
    the line or fail.  An unreadable file raises :class:`OSError`.
    """
    entries: list[tuple[int, str, dict | SceneFormatError]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            record = SceneFormatError(str(exc))
        if not isinstance(record, (dict, SceneFormatError)):
            record = SceneFormatError("record must be a JSON object")
        entries.append((lineno, f"{path}:{lineno}", record))
    return entries


def load_triplets(
    path: str | Path, scene: SceneModel | None = None
) -> tuple[list[InstructionPlanTriplet], list[TripletWarning]]:
    """Load instruction-plan triplets from a JSON Lines file.

    Total over syntactically valid files: records that fail to parse are
    dropped with a ``syntax`` warning, records that parse but violate a
    semantic invariant are returned alongside a structured warning.  Blank
    lines are ignored.
    """
    triplets: list[InstructionPlanTriplet] = []
    warnings: list[TripletWarning] = []
    try:
        entries = read_jsonl(path)
    except OSError as exc:
        raise SceneFormatError(f"{path}: {exc}") from exc
    for lineno, _, data in entries:
        try:
            if isinstance(data, SceneFormatError):
                raise data
            triplet = parse_triplet_record(data)
        except SceneFormatError as exc:
            warnings.append(TripletWarning("syntax", lineno, str(exc)))
            continue
        warnings.extend(triplet_warnings(triplet, scene, lineno))
        triplets.append(triplet)
    return triplets, warnings


def triplet_to_dict(triplet: InstructionPlanTriplet) -> dict:
    return {
        "scene_id": triplet.scene_id,
        "instruction": triplet.instruction,
        "activity": triplet.activity,
        "steps": [
            {
                "index": s.index,
                "text": s.text,
                "object_ids": list(s.object_ids),
                "is_final": s.is_final,
            }
            for s in triplet.steps
        ],
    }
