"""Scene and dataset data model: object instances, scenes, instruction-plan triplets.

On-disk formats:
  * scene file  -- UTF-8 JSON object, see :func:`load_scene`
  * triplet file -- JSON Lines, one instruction-plan triplet per line,
    see :func:`load_triplets`

All lengths are in meters.  Loaded scenes and their objects are named
tuples: their fields cannot be reassigned, and they are safe to share
across workers.  A triplet is a plain dict, as
:func:`parse_triplet_record` returns it.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from collections import namedtuple
from collections.abc import Mapping
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


class ObjectInstance(
    namedtuple("ObjectInstance", "id category centroid aabb mask_ref", defaults=(None,))
):
    """One labelled object in a scene: int ``id``, str ``category``, :data:`Vec3` centroid.

    ``aabb`` is the axis-aligned box as its ``(min corner, max corner)``.
    ``mask_ref`` is an opaque reference to an external segmentation asset;
    the planner itself only consumes the centroid and the bounding box.
    """

    __slots__ = ()

    def validate(self) -> None:
        if self.id < 0:
            raise SceneInvariantError(f"object {self.id}: id must be non-negative")
        if not self.category.split():
            raise SceneInvariantError(f"object {self.id}: empty category")
        if self.category != self.category.lower():
            raise SceneInvariantError(
                f"object {self.id}: category {self.category!r} is not lowercase"
            )
        (lo, hi), c = self.aabb, self.centroid
        if lo[0] > hi[0] or lo[1] > hi[1] or lo[2] > hi[2]:
            raise SceneInvariantError(f"object {self.id}: aabb min exceeds max")
        if not (lo[0] <= c[0] <= hi[0] and lo[1] <= c[1] <= hi[1] and lo[2] <= c[2] <= hi[2]):
            raise SceneInvariantError(f"object {self.id}: centroid outside aabb")


class OccupancyGrid(namedtuple("OccupancyGrid", "cell_size origin rows cols blocked")):
    """2D ground-plane discretization; ``blocked`` is row-major, 1 = blocked, 0 = free.

    Cell (row, col) spans world x in [origin_x + col*cell, origin_x + (col+1)*cell]
    and world y in [origin_y + row*cell, origin_y + (row+1)*cell].
    """

    def is_blocked(self, row: int, col: int) -> int:
        return self.blocked[row * self.cols + col]

    def is_free(self, row: int, col: int) -> bool:
        # In-bounds and not blocked; A* reads ``blocked`` inline instead.
        cols = self.cols
        return 0 <= row < self.rows and 0 <= col < cols and not self.blocked[row * cols + col]

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
        ``__dict__``, outside the tuple fields, so equality, hashing and
        serialization still see only the grid.
        """
        cols = self.cols
        cells = self.blocked
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


class SceneModel(
    namedtuple("SceneModel", "scene_id objects occupancy category_vocab_size", defaults=(None, 0))
):
    """A 3D scene reduced to per-object geometry plus an optional occupancy grid.

    ``objects`` is a tuple of :class:`ObjectInstance` and ``occupancy`` an
    :class:`OccupancyGrid` or None.
    """

    def validate(self) -> None:
        """Raise :class:`SceneInvariantError` if the scene breaks an invariant.

        The whole scene is checked on columns first (see
        :meth:`_holds_on_columns`).  Only when that check fails do the
        objects go through the loop below, so the error still names the
        first faulty object in scene order.
        """
        if self.objects and self._holds_on_columns():
            return
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

    def _holds_on_columns(self) -> bool:
        """True if every invariant holds, checked on whole columns of a nonempty scene.

        Ids are checked by their minimum and their distinct count, the
        categories once each, the boxes by one comparison of the flattened
        vectors and the grid extent by the minimum and maximum of x and y.
        False means that some object is at fault, not which one.
        """
        ids, categories, centroids, boxes, _ = zip(*self.objects)
        if min(ids) < 0 or len(set(ids)) != len(ids):
            return False
        distinct = list(set(categories))
        if (
            self.category_vocab_size < len(distinct)
            or not all(map(str.split, distinct))
            or list(map(str.lower, distinct)) != distinct
        ):
            return False
        mins, maxes = zip(*boxes)
        center = list(itertools.chain.from_iterable(centroids))
        if not (
            all(map(operator.le, itertools.chain.from_iterable(mins), center))
            and all(map(operator.le, center, itertools.chain.from_iterable(maxes)))
        ):
            return False
        grid = self.occupancy
        if grid is None:
            return True
        xs, ys = center[0::3], center[1::3]
        (x0, y0), cell = grid.origin, grid.cell_size
        return (
            x0 <= min(xs) and max(xs) <= x0 + grid.cols * cell
            and y0 <= min(ys) and max(ys) <= y0 + grid.rows * cell
        )

    @cached_property
    def objects_by_id(self) -> Mapping[int, ObjectInstance]:
        """The objects by id, read-only, built on first use.

        Kept in the instance ``__dict__`` like :attr:`category_matcher`.
        """
        return MappingProxyType({o.id: o for o in self.objects})

    @cached_property
    def instances_by_category(self) -> Mapping[str, tuple[ObjectInstance, ...]]:
        """Each category's instances in scene order, read-only, built on first use.

        Kept in the instance ``__dict__`` like :attr:`category_matcher`.
        """
        by_category: dict[str, list[ObjectInstance]] = {}
        for obj in self.objects:
            by_category.setdefault(obj.category, []).append(obj)
        return MappingProxyType({c: tuple(objs) for c, objs in by_category.items()})

    @cached_property
    def category_matcher(self) -> CategoryMatcher:
        """The scene's categories indexed for matching in text, built on first use.

        Kept in the instance ``__dict__``, outside the tuple fields, so
        equality, hashing and serialization still see only the scene.
        """
        return CategoryMatcher(self.instances_by_category)

    @cached_property
    def goal_cell_memo(self) -> dict[int, frozenset[tuple[int, int]]]:
        """``route.goal_cells`` by object id, filled on use.

        Kept in the instance ``__dict__`` like :attr:`category_matcher`.
        """
        return {}

    @cached_property
    def fragment_memo(self) -> dict[str, tuple | None]:
        """``route.parse_fragments``' fragment of each distinct piece of step text, filled on use.

        Kept in the instance ``__dict__`` like :attr:`category_matcher`.
        """
        return {}


# JSON numbers load as exactly these types; a string or a boolean is not a number.
_NUMBER_TYPES = frozenset((int, float))
# The types of an object record's other fields, as JSON loads them when well formed.
_ID_TYPES = frozenset((int,))
_CATEGORY_TYPES = frozenset((str,))
_MASK_REF_TYPES = frozenset((str, type(None)))
_VECTOR_TYPES = frozenset((list,))


def _number(raw: object, where: str) -> float:
    if type(raw) not in _NUMBER_TYPES:
        raise SceneFormatError(f"{where}: expected a number")
    try:
        value = float(raw)  # type: ignore[arg-type]
    except OverflowError:
        raise SceneFormatError(f"{where}: expected a number") from None
    if not math.isfinite(value):
        raise SceneFormatError(f"{where}: expected a finite number")
    return value


def _vec3(raw: object, where: str) -> Vec3:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise SceneFormatError(f"{where}: expected 3 numbers")
    return (_number(raw[0], where), _number(raw[1], where), _number(raw[2], where))


def _require(record: dict, key: str, where: str) -> object:
    if key not in record:
        raise SceneFormatError(f"{where}: missing field {key!r}")
    return record[key]


def _parse_object(raw: object, where: str) -> ObjectInstance:
    if not isinstance(raw, dict):
        raise SceneFormatError(f"{where}: expected object")
    oid = _require(raw, "id", where)
    if not isinstance(oid, int) or isinstance(oid, bool):
        raise SceneFormatError(f"{where}.id: expected integer")
    category = _require(raw, "category", where)
    if not isinstance(category, str):
        raise SceneFormatError(f"{where}.category: expected string")
    centroid = _vec3(_require(raw, "centroid", where), f"{where}.centroid")
    aabb_raw = _require(raw, "aabb", where)
    if not isinstance(aabb_raw, dict):
        raise SceneFormatError(f"{where}.aabb: expected object with min/max")
    box = (
        _vec3(_require(aabb_raw, "min", f"{where}.aabb"), f"{where}.aabb.min"),
        _vec3(_require(aabb_raw, "max", f"{where}.aabb"), f"{where}.aabb.max"),
    )
    mask_ref = raw.get("mask_ref")
    if mask_ref is not None and not isinstance(mask_ref, str):
        raise SceneFormatError(f"{where}.mask_ref: expected string")
    return ObjectInstance(oid, category, centroid, box, mask_ref)


def _parse_objects(records: list) -> tuple[ObjectInstance, ...]:
    """The ``objects`` array of a scene file, every record checked in one pass.

    Each field is gathered into one column, and each column's types are
    checked as a set.  When every number is a float and their sum is
    finite, each vector's tuple is built straight from its JSON list.
    Otherwise, an integer coordinate among them, say, the records go
    through :func:`_parse_object` one by one, which converts each number to
    a float and reports the first fault of the file.
    """
    try:
        ids, categories, centroids, mins, maxes, mask_refs = zip(*[
            (raw["id"], raw["category"], raw["centroid"], raw["aabb"]["min"],
             raw["aabb"]["max"], raw.get("mask_ref"))
            for raw in records
        ])
        vectors = centroids + mins + maxes
        if (
            _ID_TYPES.issuperset(map(type, ids))
            and _CATEGORY_TYPES.issuperset(map(type, categories))
            and _MASK_REF_TYPES.issuperset(map(type, mask_refs))
            and _VECTOR_TYPES.issuperset(map(type, vectors))
            and set(map(len, vectors)) == {3}
        ):
            numbers = list(itertools.chain.from_iterable(vectors))
            if set(map(type, numbers)) == {float} and math.isfinite(sum(numbers)):
                # Finite floats already: a sum of numbers is finite only if
                # each one is, and each vector becomes its tuple as it is.
                boxes = zip(map(tuple, mins), map(tuple, maxes))
                rows = zip(ids, categories, map(tuple, centroids), boxes, mask_refs)
                return tuple(map(tuple.__new__, itertools.repeat(ObjectInstance), rows))
    except (KeyError, TypeError, ValueError):
        # A missing field, a value of the wrong kind or an empty array
        # (nothing to unzip).
        pass
    return tuple(_parse_object(raw, f"objects[{i}]") for i, raw in enumerate(records))


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
    if type(rows) is not int or type(cols) is not int or rows <= 0 or cols <= 0:
        raise SceneFormatError(f"{where}.rows/cols: expected positive integers")
    blocked_raw = _require(raw, "blocked", where)
    if not isinstance(blocked_raw, list) or len(blocked_raw) != rows * cols:
        raise SceneFormatError(f"{where}.blocked: expected {rows * cols} flags")
    try:
        # bytes() takes ints in 0..255, booleans among them, and nothing else.
        blocked = bytes(blocked_raw)
    except (TypeError, ValueError):
        blocked = None
    if blocked is None or blocked.translate(None, b"\x00\x01"):
        bad = next(i for i, flag in enumerate(blocked_raw)
                   if type(flag) not in (int, bool) or flag not in (0, 1))
        raise SceneFormatError(f"{where}.blocked[{bad}]: expected 0, 1, true or false")
    return OccupancyGrid(
        cell_size=cell_size,
        origin=origin,  # type: ignore[arg-type]
        rows=rows,
        cols=cols,
        blocked=blocked,
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

    Numbers are JSON numbers, never strings or booleans; ``rows``, ``cols``
    and ``category_vocab_size`` are integers, and each ``blocked`` flag is
    0, 1, true or false.  ``category_vocab_size`` defaults to the number of
    distinct categories present.  Raises :class:`SceneFormatError` with a
    line/field locus on syntax problems, or with the path alone when the
    JSON nests too deeply or holds an integer longer than ``int()`` may
    convert, and :class:`SceneInvariantError` naming the offending object id
    on semantic ones; every format error comes before any invariant error.
    The object records are checked in one pass over all of them when every
    coordinate is a JSON float; otherwise, or on any miss, they are parsed
    one by one, each number converted to a float, and the first fault in
    file order is reported (see :func:`_parse_objects`).
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
    except (RecursionError, ValueError) as exc:
        # Nested too deeply, or an integer longer than int() may convert.
        raise SceneFormatError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise SceneFormatError(f"{path}: top level must be a JSON object")
    scene_id = _require(data, "scene_id", "scene")
    if not isinstance(scene_id, str):
        raise SceneFormatError("scene_id: expected string")
    objects_raw = _require(data, "objects", "scene")
    if not isinstance(objects_raw, list):
        raise SceneFormatError("objects: expected array")
    objects = _parse_objects(objects_raw)
    occupancy = None
    if data.get("occupancy") is not None:
        occupancy = _parse_occupancy(data["occupancy"])
    vocab = data.get("category_vocab_size")
    if vocab is None:
        vocab = len({o.category for o in objects})
    elif type(vocab) is not int:
        raise SceneFormatError("category_vocab_size: expected integer")
    scene = SceneModel(
        scene_id=scene_id,
        objects=objects,
        occupancy=occupancy,
        category_vocab_size=vocab,
    )
    scene.validate()
    return scene


def _parse_step(raw: object, where: str) -> dict:
    if not isinstance(raw, dict):
        raise SceneFormatError(f"{where}: expected object")
    index = _require(raw, "index", where)
    text = _require(raw, "text", where)
    if not isinstance(index, int) or isinstance(index, bool) or not isinstance(text, str):
        raise SceneFormatError(f"{where}: bad index/text types")
    ids_raw = raw.get("object_ids", [])
    if not isinstance(ids_raw, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in ids_raw
    ):
        raise SceneFormatError(f"{where}.object_ids: expected integer array")
    is_final = raw.get("is_final", False)
    if not isinstance(is_final, bool):
        raise SceneFormatError(f"{where}.is_final: expected true or false")
    return {"index": index, "text": text, "object_ids": list(ids_raw), "is_final": is_final}


def parse_triplet_record(data: dict, where: str = "record") -> dict:
    """The checked record as a new dict of scene_id, instruction, activity and steps.

    Each step holds ``index``, ``text``, ``object_ids`` (default ``[]``) and
    ``is_final`` (default false); other keys, such as ``sample_id``, are
    dropped.  Raises :class:`SceneFormatError` at ``where`` on a bad field.
    """
    scene_id = _require(data, "scene_id", where)
    instruction = _require(data, "instruction", where)
    activity = _require(data, "activity", where)
    if not all(isinstance(v, str) for v in (scene_id, instruction, activity)):
        raise SceneFormatError(f"{where}: scene_id/instruction/activity must be strings")
    steps_raw = _require(data, "steps", where)
    if not isinstance(steps_raw, list):
        raise SceneFormatError(f"{where}.steps: expected array")
    steps = [_parse_step(raw, f"{where}.steps[{i}]") for i, raw in enumerate(steps_raw)]
    return {"scene_id": scene_id, "instruction": instruction, "activity": activity, "steps": steps}


def triplet_warnings(triplet: dict, scene: SceneModel) -> list[tuple[str, str]]:
    """Semantic checks for one triplet as (kind, detail) pairs; reported, never raised.

    ``kind`` is one of: unknown-object, implicitness-violation,
    step-structure.
    """
    warnings: list[tuple[str, str]] = []
    steps = triplet["steps"]
    if not steps:
        warnings.append(("step-structure", "empty step list"))
    else:
        finals = [s for s in steps if s["is_final"]]
        if len(finals) != 1 or not steps[-1]["is_final"]:
            warnings.append((
                "step-structure",
                f"expected exactly one final step at the end, found {len(finals)}",
            ))
        for pos, step in enumerate(steps, start=1):
            if step["index"] != pos:
                warnings.append(
                    ("step-structure", f"step at position {pos} has index {step['index']}")
                )
                break
    known = scene.objects_by_id
    for step in steps:
        for oid in step["object_ids"]:
            if oid not in known:
                warnings.append(("unknown-object", f"unknown object {oid}"))
    activity = triplet["activity"]
    if activity and activity.casefold() in triplet["instruction"].casefold():
        warnings.append((
            "implicitness-violation",
            f"instruction literally contains activity {activity!r}",
        ))
    return warnings


class DatasetError(Exception):
    """A dataset or JSON Lines file that a command cannot use as a whole."""


def sample_key(
    record: dict, where: str, default_sample_id: int | None = None
) -> tuple[str, int]:
    """A record's (scene_id, sample_id): a string and an integer that is not a bool."""
    scene_id = record.get("scene_id")
    sample_id = record.get("sample_id", default_sample_id)
    if not isinstance(scene_id, str):
        raise DatasetError(f"{where}: scene_id must be a string")
    if not isinstance(sample_id, int) or isinstance(sample_id, bool):
        raise DatasetError(f"{where}: sample_id must be an integer")
    return scene_id, sample_id


def read_jsonl(path: str | Path) -> list[tuple[int, str, dict | SceneFormatError]]:
    """Parse every nonblank line of a JSON Lines file.

    Lines end at line feeds only: a JSON string may hold a raw U+2028 or
    another character that :meth:`str.splitlines` would also break at.
    Each entry is (line number, ``path:line`` locus, record).  A line that
    is not a JSON object comes back as the :class:`SceneFormatError` saying
    why, in place of its record, so each caller keeps its own policy: skip
    the line or fail.  An unreadable file raises :class:`OSError`.
    """
    entries: list[tuple[int, str, dict | SceneFormatError]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers json.JSONDecodeError and an integer longer
            # than int() may convert.
            record = SceneFormatError(str(exc))
        if not isinstance(record, (dict, SceneFormatError)):
            record = SceneFormatError("record must be a JSON object")
        entries.append((lineno, f"{path}:{lineno}", record))
    return entries


def load_triplets(
    path: str | Path, scene: SceneModel
) -> tuple[list[dict], list[tuple[int, str, str]]]:
    """Load instruction-plan triplets from a JSON Lines file.

    Total over syntactically valid files: records that fail to parse are
    dropped with a ``syntax`` warning, records that parse but violate a
    semantic invariant are returned alongside the warnings of
    :func:`triplet_warnings`.  Each warning is (line, kind, detail).  Blank
    lines are ignored.
    """
    triplets: list[dict] = []
    warnings: list[tuple[int, str, str]] = []
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
            warnings.append((lineno, "syntax", str(exc)))
            continue
        warnings.extend((lineno, kind, detail) for kind, detail in triplet_warnings(triplet, scene))
        triplets.append(triplet)
    return triplets, warnings
