"""Scene and triplet loading: schema, invariants, round-trip, warnings."""

from __future__ import annotations

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.scene import (
    Aabb,
    InstructionPlanTriplet,
    ObjectInstance,
    OccupancyGrid,
    PlanStep,
    SceneFormatError,
    SceneInvariantError,
    SceneModel,
    load_scene,
    load_triplets,
    parse_triplet_record,
    point_in_aabb,
    scene_to_dict,
    serialize_scene,
    triplet_to_dict,
    triplet_warnings,
)
from tests.conftest import FIXTURES
from tests.oracles import oracle_load_objects, oracle_point_in_box


def _box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> Aabb:
    return Aabb(lo, hi)


def _obj(oid=0, category="table", centroid=(0.5, 0.5, 0.5), box=None) -> ObjectInstance:
    return ObjectInstance(oid, category, centroid, box or _box())


class TestGeometryPrimitives:
    def test_point_in_aabb_matches_oracle_on_lattice(self):
        box = _box((-1.0, 0.0, 0.5), (1.0, 2.0, 1.5))
        for x in (-1.5, -1.0, 0.0, 1.0, 1.5):
            for y in (-0.5, 0.0, 1.0, 2.0, 2.5):
                for z in (0.0, 0.5, 1.0, 1.5, 2.0):
                    p = (x, y, z)
                    assert point_in_aabb(p, box) == oracle_point_in_box(
                        p, box.min_corner, box.max_corner
                    )

    def test_boundary_counts_as_inside(self):
        box = _box()
        assert point_in_aabb((0.0, 0.0, 0.0), box)
        assert point_in_aabb((1.0, 1.0, 1.0), box)
        assert not point_in_aabb((1.0 + 1e-12, 1.0, 1.0), box)


class TestOccupancyGrid:
    GRID = OccupancyGrid(
        cell_size=0.5,
        origin=(-1.0, 2.0),
        rows=4,
        cols=6,
        blocked=tuple([False] * 23 + [True]),
    )

    def test_cell_of_inverts_cell_center(self):
        for row in range(self.GRID.rows):
            for col in range(self.GRID.cols):
                x, y = self.GRID.cell_center(row, col)
                assert self.GRID.cell_of(x, y) == (row, col)

    def test_cell_of_clamps_outside_points(self):
        assert self.GRID.cell_of(-100.0, -100.0) == (0, 0)
        assert self.GRID.cell_of(100.0, 100.0) == (self.GRID.rows - 1, self.GRID.cols - 1)
        # Offsets that overflow to inf in cell units clamp like any other far point.
        assert self.GRID.cell_of(1e308, -1e308) == (0, self.GRID.cols - 1)

    def test_is_free_handles_out_of_bounds(self):
        assert not self.GRID.is_free(-1, 0)
        assert not self.GRID.is_free(0, self.GRID.cols)
        assert self.GRID.is_free(0, 0)
        assert not self.GRID.is_free(3, 5)

    def test_contains_point_uses_full_extent(self):
        assert self.GRID.contains_point(-1.0, 2.0)
        assert self.GRID.contains_point(-1.0 + 6 * 0.5, 2.0 + 4 * 0.5)
        assert not self.GRID.contains_point(-1.1, 2.0)


class TestSceneValidation:
    def test_duplicate_ids_rejected(self):
        scene = SceneModel("s", (_obj(0), _obj(0)), category_vocab_size=5)
        with pytest.raises(SceneInvariantError, match="duplicate object id 0"):
            scene.validate()

    def test_vocab_smaller_than_distinct_categories_rejected(self):
        scene = SceneModel("s", (_obj(0, "a"), _obj(1, "b")), category_vocab_size=1)
        with pytest.raises(SceneInvariantError, match="category_vocab_size"):
            scene.validate()

    def test_centroid_outside_aabb_rejected(self):
        bad = ObjectInstance(0, "table", (5.0, 5.0, 5.0), _box())
        with pytest.raises(SceneInvariantError, match="centroid outside aabb"):
            SceneModel("s", (bad,), category_vocab_size=1).validate()

    def test_centroid_outside_grid_rejected(self):
        grid = OccupancyGrid(0.5, (10.0, 10.0), 2, 2, (False,) * 4)
        scene = SceneModel("s", (_obj(),), occupancy=grid, category_vocab_size=1)
        with pytest.raises(SceneInvariantError, match="outside occupancy grid"):
            scene.validate()

    def test_uppercase_category_rejected(self):
        with pytest.raises(SceneInvariantError, match="not lowercase"):
            _obj(category="Table").validate()

    @pytest.mark.parametrize("category", ["", " ", "\t", "\u00a0"])
    def test_blank_category_rejected(self, category):
        with pytest.raises(SceneInvariantError, match="empty category"):
            _obj(category=category).validate()


class TestSceneIo:
    def test_kitchen_fixture_loads(self, kitchen):
        assert kitchen.scene_id == "kitchen-01"
        assert kitchen.occupancy is not None
        assert len(kitchen.objects) == 12
        assert "kitchen counter" in kitchen.categories()
        assert len(kitchen.instances_of("mug")) == 2

    def test_round_trip_preserves_scene(self, kitchen, tmp_path):
        out = tmp_path / "copy.json"
        out.write_text(serialize_scene(kitchen), encoding="utf-8")
        again = load_scene(out)
        assert scene_to_dict(again) == scene_to_dict(kitchen)
        assert again == kitchen

    def test_id_map_is_cached_read_only_and_outside_equality(self, kitchen, kitchen_path):
        by_id = kitchen.objects_by_id
        assert by_id is kitchen.objects_by_id
        assert dict(by_id) == {o.id: o for o in kitchen.objects}
        with pytest.raises(TypeError):
            by_id[99] = kitchen.objects[0]  # type: ignore[index]
        assert kitchen == load_scene(kitchen_path)

    def test_missing_field_reports_locus(self, tmp_path):
        out = tmp_path / "bad.json"
        out.write_text(
            json.dumps({"scene_id": "x", "objects": [{"id": 0, "category": "a"}]}),
            encoding="utf-8",
        )
        with pytest.raises(SceneFormatError, match=r"objects\[0\]: missing field 'centroid'"):
            load_scene(out)

    def test_invalid_json_reports_position(self, tmp_path):
        out = tmp_path / "bad.json"
        out.write_text("{not json", encoding="utf-8")
        with pytest.raises(SceneFormatError, match=r"bad\.json:1:"):
            load_scene(out)

    @pytest.mark.parametrize(
        "field, value, locus",
        [
            (("occupancy", "cell_size"), None, "occupancy.cell_size"),
            (("occupancy", "cell_size"), "wide", "occupancy.cell_size"),
            (("occupancy", "cell_size"), 10**400, "occupancy.cell_size"),
            (("occupancy", "cell_size"), math.nan, "occupancy.cell_size"),
            (("occupancy", "origin"), [None, 0], "occupancy.origin"),
            (("occupancy", "origin"), [0, math.inf], "occupancy.origin"),
            (("objects", 0, "centroid"), [0, -math.inf, 0], "objects[0].centroid"),
        ],
    )
    def test_numbers_must_be_finite_with_field_locus(
        self, kitchen_path, tmp_path, field, value, locus
    ):
        data = json.loads(kitchen_path.read_text(encoding="utf-8"))
        target = data
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        out = tmp_path / "scene.json"
        out.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SceneFormatError, match=re.escape(locus)):
            load_scene(out)

    def test_vocab_defaults_to_distinct_count(self, tmp_path):
        out = tmp_path / "scene.json"
        out.write_text(
            json.dumps(
                {
                    "scene_id": "s",
                    "objects": [
                        {
                            "id": 0,
                            "category": "table",
                            "centroid": [0, 0, 0],
                            "aabb": {"min": [-1, -1, -1], "max": [1, 1, 1]},
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert load_scene(out).category_vocab_size == 1


# Values that are not a finite number to ``float()``, and some that are.
_ODD_NUMBERS = st.sampled_from(
    ["abc", "", "1.5", " 2 ", "nan", "inf", "-Infinity", math.nan, math.inf, -math.inf,
     10**400, True, None, [1.0], {"x": 1}]
)
_VECTORS = ("centroid", "aabb.min", "aabb.max")
# Three groups drawn equally often, so that each odd number turns up.
_FORMAT_FAULTS = st.one_of(
    st.sampled_from([f"odd number in {vector}" for vector in _VECTORS]),
    st.sampled_from(
        [f"missing {field}" for field in ("id", "category", "centroid", "aabb", "aabb.min", "aabb.max")]
        + [f"{length} numbers in {vector}" for length in (2, 4) for vector in _VECTORS]
    ),
    st.sampled_from(["bool id", "float id", "string id", "non-string category",
                     "non-dict aabb", "non-string mask_ref", "non-dict record"]),
)
_INVARIANT_FAULTS = ("negative id", "duplicate id", "blank category", "uppercase category",
                     "inverted aabb", "centroid outside aabb")


def _slot(record: dict, field: str) -> tuple[dict | None, str]:
    """The dict that holds ``field`` ("id", "aabb.min", ...) and its key; None if gone."""
    *path, key = field.split(".")
    owner = record.get("aabb") if path else record
    return (owner if isinstance(owner, dict) else None), key


@st.composite
def _object_records(draw, format_faults: bool = True):
    """A scene file's object record, with up to two invariant and two format faults."""
    center = [draw(st.floats(-5, 5)) for _ in range(3)]
    half = [draw(st.floats(0, 1)) for _ in range(3)]
    record: dict = {
        "id": draw(st.integers(0, 10**6)),
        "category": draw(st.sampled_from(["mug", "kitchen counter", "t-shirt"])),
        "centroid": center,
        "aabb": {"min": [c - h for c, h in zip(center, half)],
                 "max": [c + h for c, h in zip(center, half)]},
    }
    if draw(st.booleans()):
        record["mask_ref"] = "masks/0.png"
    axis = draw(st.integers(0, 2))
    for fault in draw(st.lists(st.sampled_from(_INVARIANT_FAULTS), max_size=2)):
        if fault == "negative id":
            record["id"] = draw(st.integers(-3, -1))
        elif fault == "duplicate id":
            record["id"] = 7
        elif fault == "blank category":
            record["category"] = draw(st.sampled_from(["", " ", "\t\n"]))
        elif fault == "uppercase category":
            record["category"] = "Mug"
        elif fault == "inverted aabb":
            aabb = record["aabb"]
            aabb["min"][axis], aabb["max"][axis] = aabb["max"][axis] + 1, aabb["min"][axis]
        else:
            record["centroid"][axis] = record["aabb"]["max"][axis] + 0.5
    if not format_faults:
        return record
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2)))):
        fault = draw(_FORMAT_FAULTS)
        if fault == "non-dict record":
            return draw(st.sampled_from([[], "mug", 3, None]))
        owner, key = _slot(record, fault.rsplit(" ", 1)[-1])
        if owner is None:
            continue
        if fault.startswith("missing "):
            owner.pop(key, None)
        elif fault.startswith("odd number"):
            if isinstance(owner.get(key), list) and len(owner[key]) == 3:
                owner[key] = list(owner[key])
                for i in draw(st.sets(st.integers(0, 2), min_size=1)):
                    owner[key][i] = draw(_ODD_NUMBERS)
        elif " numbers in " in fault:
            owner[key] = [0.0] * int(fault.split(" ", 1)[0])
        elif fault == "bool id":
            record["id"] = draw(st.booleans())
        elif fault == "float id":
            record["id"] = 1.0
        elif fault == "string id":
            record["id"] = "1"
        elif fault == "non-string category":
            record["category"] = draw(st.sampled_from([None, 3, ["mug"]]))
        elif fault == "non-dict aabb":
            record["aabb"] = draw(st.sampled_from([[0, 0, 0], "box", None, 1.5]))
        else:
            record["mask_ref"] = draw(st.sampled_from([1, ["a"], {"path": "a"}, False]))
    return record


def _outcome(load):
    try:
        return "loaded", load()
    except (SceneFormatError, SceneInvariantError) as exc:
        return type(exc), str(exc)


class TestObjectParsingAgainstOracle:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        invariant_faulty=st.lists(_object_records(format_faults=False), max_size=2),
        records=st.lists(_object_records(), min_size=1, max_size=3),
    )
    def test_load_scene_raises_what_the_old_parser_raised(self, invariant_faulty, records):
        """Same error type and message as the oracle parser, or an equal scene.

        Records with only invariant faults come first, so a format fault in a
        later record must still win over them.
        """
        records = invariant_faulty + records
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "scene.json"
            path.write_text(json.dumps({"scene_id": "s", "objects": records}), encoding="utf-8")
            got = _outcome(lambda: load_scene(path).objects)
        assert got == _outcome(lambda: oracle_load_objects(records))


def _triplet(steps) -> InstructionPlanTriplet:
    return InstructionPlanTriplet("kitchen-01", "I am tired", "make coffee", tuple(steps))


class TestTripletWarnings:
    def test_clean_fixture_has_no_warnings(self, kitchen, kitchen_path):
        triplets, warnings = load_triplets(FIXTURES / "triplets_valid.jsonl", kitchen)
        assert len(triplets) == 4
        assert warnings == []

    def test_missing_final_step_flagged(self, kitchen):
        t = _triplet([PlanStep(1, "walk"), PlanStep(2, "stop")])
        kinds = [w.kind for w in triplet_warnings(t, kitchen, 1)]
        assert kinds == ["step-structure"]

    def test_final_step_not_last_flagged(self, kitchen):
        t = _triplet([PlanStep(1, "walk", is_final=True), PlanStep(2, "stop")])
        kinds = [w.kind for w in triplet_warnings(t, kitchen, 1)]
        assert kinds == ["step-structure"]

    def test_non_contiguous_indices_flagged(self, kitchen):
        t = _triplet([PlanStep(1, "walk"), PlanStep(3, "stop", is_final=True)])
        kinds = [w.kind for w in triplet_warnings(t, kitchen, 1)]
        assert kinds == ["step-structure"]

    def test_empty_step_list_flagged(self, kitchen):
        kinds = [w.kind for w in triplet_warnings(_triplet([]), kitchen, 1)]
        assert kinds == ["step-structure"]

    def test_unknown_object_id_flagged(self, kitchen):
        t = _triplet([PlanStep(1, "walk", object_ids=(999,), is_final=True)])
        warning = triplet_warnings(t, kitchen, 7)
        assert [w.kind for w in warning] == ["unknown-object"]
        assert warning[0].line == 7
        assert "999" in warning[0].detail

    def test_implicitness_violation_is_case_insensitive(self, kitchen):
        t = InstructionPlanTriplet(
            "kitchen-01",
            "Please Make Coffee for me",
            "make coffee",
            (PlanStep(1, "walk", is_final=True),),
        )
        kinds = [w.kind for w in triplet_warnings(t, kitchen, 1)]
        assert kinds == ["implicitness-violation"]

    def test_without_scene_object_ids_are_not_checked(self):
        t = _triplet([PlanStep(1, "walk", object_ids=(999,), is_final=True)])
        assert triplet_warnings(t, None, 1) == []


class TestTripletIo:
    def test_syntax_failures_keep_later_records(self, tmp_path, kitchen):
        path = tmp_path / "mixed.jsonl"
        good = json.dumps(triplet_to_dict(_triplet([PlanStep(1, "walk", is_final=True)])))
        path.write_text("not json\n" + good + "\n", encoding="utf-8")
        triplets, warnings = load_triplets(path, kitchen)
        assert len(triplets) == 1
        assert [w.kind for w in warnings] == ["syntax"]
        assert warnings[0].line == 1

    def test_blank_lines_ignored(self, tmp_path, kitchen):
        path = tmp_path / "blank.jsonl"
        good = json.dumps(triplet_to_dict(_triplet([PlanStep(1, "walk", is_final=True)])))
        path.write_text("\n" + good + "\n\n", encoding="utf-8")
        triplets, warnings = load_triplets(path, kitchen)
        assert len(triplets) == 1 and warnings == []

    def test_record_round_trip(self):
        t = _triplet([PlanStep(1, "walk to the sink", (3,), True)])
        assert parse_triplet_record(triplet_to_dict(t)) == t
