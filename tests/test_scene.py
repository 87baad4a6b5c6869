"""Scene and triplet loading: schema, invariants, round-trip, warnings."""

from __future__ import annotations

import json
import math
import re

import pytest

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
from tests.oracles import oracle_point_in_box


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
