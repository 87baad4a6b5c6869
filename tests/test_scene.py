"""Scene and triplet loading: schema, invariants, round-trip, warnings."""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.engine import detect_mentions
from sceneplan.route import nearest_instance
from sceneplan.scene import (
    ObjectInstance,
    OccupancyGrid,
    SceneFormatError,
    SceneInvariantError,
    SceneModel,
    load_scene,
    load_triplets,
    parse_triplet_record,
    read_jsonl,
    triplet_warnings,
)
from tests.conftest import CATEGORY_POOL, FIXTURES, make_random_scene
from tests.dataset_builder import scene_to_dict, serialize_scene
from tests.oracles import oracle_find_category_spans, oracle_load_objects


_UNIT_BOX = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def _obj(oid=0, category="table", centroid=(0.5, 0.5, 0.5), box=None) -> ObjectInstance:
    return ObjectInstance(oid, category, centroid, box or _UNIT_BOX)


class TestOccupancyGrid:
    GRID = OccupancyGrid(
        cell_size=0.5,
        origin=(-1.0, 2.0),
        rows=4,
        cols=6,
        blocked=bytes(23) + b"\x01",
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
        bad = ObjectInstance(0, "table", (5.0, 5.0, 5.0), _UNIT_BOX)
        with pytest.raises(SceneInvariantError, match="centroid outside aabb"):
            SceneModel("s", (bad,), category_vocab_size=1).validate()

    def test_centroid_outside_grid_rejected(self):
        grid = OccupancyGrid(0.5, (10.0, 10.0), 2, 2, bytes(4))
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


def _kitchen_with_field(kitchen_path: Path, tmp_path: Path, field: tuple, value) -> Path:
    """A copy of the kitchen scene whose value at the key path ``field`` is ``value``."""
    data = json.loads(kitchen_path.read_text(encoding="utf-8"))
    target = data
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    out = tmp_path / "scene.json"
    out.write_text(json.dumps(data), encoding="utf-8")
    return out


class TestSceneIo:
    def test_kitchen_fixture_loads(self, kitchen):
        assert kitchen.scene_id == "kitchen-01"
        assert kitchen.occupancy is not None
        assert len(kitchen.objects) == 12
        assert "kitchen counter" in kitchen.instances_by_category
        assert len(kitchen.instances_by_category["mug"]) == 2

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

    def test_integer_beyond_the_digit_limit_reports_the_path(self, tmp_path):
        # json.loads raises a plain ValueError here, not a JSONDecodeError.
        huge = "9" * (sys.get_int_max_str_digits() + 1)
        out = tmp_path / "huge.json"
        out.write_text(
            f'{{"scene_id": "s", "objects": [], "category_vocab_size": {huge}}}', encoding="utf-8"
        )
        with pytest.raises(SceneFormatError, match=rf"^{re.escape(str(out))}: Exceeds the limit"):
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
            (("objects", 0, "centroid"), ["0.5", 0.5, 0.5], "objects[0].centroid"),
            (("objects", 0, "aabb", "max"), [9, True, 9], "objects[0].aabb.max"),
            (("occupancy", "cell_size"), "2", "occupancy.cell_size"),
            (("occupancy", "cell_size"), True, "occupancy.cell_size"),
            (("occupancy", "origin"), [False, 0], "occupancy.origin"),
        ],
    )
    def test_numbers_must_be_finite_with_field_locus(
        self, kitchen_path, tmp_path, field, value, locus
    ):
        out = _kitchen_with_field(kitchen_path, tmp_path, field, value)
        with pytest.raises(SceneFormatError, match=re.escape(locus)):
            load_scene(out)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (("occupancy", "rows"), True, "occupancy.rows/cols: expected positive integers"),
            (("occupancy", "cols"), 12.0, "occupancy.rows/cols: expected positive integers"),
            (("category_vocab_size",), True, "category_vocab_size: expected integer"),
            (("occupancy", "blocked", 1), "no", "occupancy.blocked[1]: expected 0, 1, true or false"),
            (("occupancy", "blocked", 2), 2, "occupancy.blocked[2]: expected 0, 1, true or false"),
            (("occupancy", "blocked", 3), 1.0, "occupancy.blocked[3]: expected 0, 1, true or false"),
            (("occupancy", "blocked", 4), None, "occupancy.blocked[4]: expected 0, 1, true or false"),
            (("occupancy", "blocked", 5), [1], "occupancy.blocked[5]: expected 0, 1, true or false"),
            (("occupancy", "blocked", 6), 256, "occupancy.blocked[6]: expected 0, 1, true or false"),
        ],
    )
    def test_counts_and_flags_are_exact(self, kitchen_path, tmp_path, field, value, message):
        out = _kitchen_with_field(kitchen_path, tmp_path, field, value)
        with pytest.raises(SceneFormatError, match=re.escape(message) + "$"):
            load_scene(out)

    def test_boolean_flags_load_as_0_and_1(self, kitchen, kitchen_path, tmp_path):
        flags = json.loads(kitchen_path.read_text(encoding="utf-8"))["occupancy"]["blocked"]
        booleans = [flag == 1 for flag in flags]
        out = _kitchen_with_field(kitchen_path, tmp_path, ("occupancy", "blocked"), booleans)
        assert load_scene(out) == kitchen

    def test_flags_are_kept_as_the_bytes_they_were_checked_as(self, kitchen, kitchen_path):
        flags = json.loads(kitchen_path.read_text(encoding="utf-8"))["occupancy"]["blocked"]
        assert type(kitchen.occupancy.blocked) is bytes
        assert kitchen.occupancy.blocked == bytes(flags)
        assert scene_to_dict(kitchen)["occupancy"]["blocked"] == flags

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


# Values that are not a finite JSON number, and some that ``float()`` would take.
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


def _spoil(record: dict, spoil: str) -> None:
    """Give one object record of a scene file one format fault, in place."""
    if spoil == "bool id":
        record["id"] = True
    elif spoil == "string number":
        record["centroid"][1] = "1.5"
    elif spoil == "huge integer":
        record["aabb"]["min"][0] = 10**400
    elif spoil == "nan":
        record["aabb"]["max"][2] = math.nan
    elif spoil == "two-number vector":
        record["aabb"]["max"] = record["aabb"]["max"][:2]
    elif spoil == "missing aabb.max":
        del record["aabb"]["max"]
    elif spoil == "non-dict aabb":
        record["aabb"] = [0.0, 0.0, 0.0]
    else:
        record["mask_ref"] = 3


_SPOILS = ("bool id", "string number", "huge integer", "nan", "two-number vector",
           "missing aabb.max", "non-dict aabb", "integer mask_ref")


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

    @pytest.mark.parametrize("index", [0, 500, 999])
    @pytest.mark.parametrize("spoil", _SPOILS)
    def test_one_spoiled_record_of_1000_is_reported_as_the_oracle_reports_it(
        self, tmp_path, index, spoil
    ):
        records = scene_to_dict(make_random_scene(3, n_objects=1000))["objects"]
        _spoil(records[index], spoil)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"scene_id": "s", "objects": records}), encoding="utf-8")
        expected = _outcome(lambda: oracle_load_objects(records))
        assert expected[0] is SceneFormatError
        assert _outcome(lambda: load_scene(path).objects) == expected


# A 20 x 20 grid of 0.5 m cells over the 10 m x 10 m floor of make_random_scene.
_FLOOR_GRID = {"cell_size": 0.5, "origin": [0.0, 0.0], "rows": 20, "cols": 20,
               "blocked": [0] * 400}
_WHOLE_SCENE_FAULTS = _INVARIANT_FAULTS + ("centroid outside grid", "vocab too small")


def _break_invariant(records: list[dict], index: int, fault: str) -> None:
    """Give object record ``index`` of a clean, all-float scene file one invariant fault."""
    record = records[index]
    centroid, aabb = record["centroid"], record["aabb"]
    if fault == "negative id":
        record["id"] = -1
    elif fault == "duplicate id":
        record["id"] = records[index - 1 if index else 1]["id"]
    elif fault == "blank category":
        record["category"] = " "
    elif fault == "uppercase category":
        record["category"] = "Mug"
    elif fault == "inverted aabb":
        aabb["min"][0], aabb["max"][0] = aabb["max"][0] + 1.0, aabb["min"][0]
    elif fault == "centroid outside aabb":
        centroid[2] = aabb["max"][2] + 0.5
    elif fault == "centroid outside grid":
        # The whole object moves 15 m along x, so only the grid check fails.
        for vector in (centroid, aabb["min"], aabb["max"]):
            vector[0] += 15.0
    else:
        record["category"] = "zebra rug"


class TestWholeSceneInvariantsAt1000Objects:
    @staticmethod
    def _scene_file(tmp_path: Path, fault: str | None, index: int = 0):
        """A 1000-object scene file with a grid, and its records and vocab size."""
        records = scene_to_dict(make_random_scene(3, n_objects=1000))["objects"]
        # Room for two more categories, so that only "vocab too small" fails the vocab check.
        vocab = len({record["category"] for record in records})
        vocab += 0 if fault == "vocab too small" else 2
        if fault is not None:
            _break_invariant(records, index, fault)
        path = tmp_path / "scene.json"
        path.write_text(
            json.dumps({"scene_id": "s", "objects": records, "occupancy": _FLOOR_GRID,
                        "category_vocab_size": vocab}),
            encoding="utf-8",
        )
        return path, records, vocab

    def test_clean_scene_loads_the_oracle_objects(self, tmp_path):
        path, records, vocab = self._scene_file(tmp_path, None)
        assert {type(v) for r in records for v in r["centroid"] + r["aabb"]["max"]} == {float}
        assert load_scene(path).objects == oracle_load_objects(records, _FLOOR_GRID, vocab)

    def test_integer_coordinates_load_as_the_floats_they_equal(self, tmp_path):
        """Whole-metre boxes written as JSON integers load as their all-float twin does."""
        _, records, vocab = self._scene_file(tmp_path, None)
        for record in records:
            aabb = record["aabb"]
            aabb["min"] = [math.floor(v) for v in aabb["min"]]
            aabb["max"] = [math.ceil(v) for v in aabb["max"]]
        twin = [
            {**r, "aabb": {end: list(map(float, r["aabb"][end])) for end in ("min", "max")}}
            for r in records
        ]
        assert {type(v) for r in records for v in r["aabb"]["min"] + r["aabb"]["max"]} == {int}

        def load(name: str, objects: list[dict]) -> SceneModel:
            path = tmp_path / name
            path.write_text(
                json.dumps({"scene_id": "s", "objects": objects, "occupancy": _FLOOR_GRID,
                            "category_vocab_size": vocab}),
                encoding="utf-8",
            )
            return load_scene(path)

        scene = load("integers.json", records)
        assert scene == load("floats.json", twin)
        assert scene.objects == oracle_load_objects(records, _FLOOR_GRID, vocab)
        # 1 == 1.0, so equality alone would pass integer coordinates.
        assert all(
            type(v) is float
            for obj in scene.objects
            for v in obj.centroid + obj.aabb[0] + obj.aabb[1]
        )

    @pytest.mark.parametrize("index", [0, 500, 999])
    @pytest.mark.parametrize("fault", _WHOLE_SCENE_FAULTS)
    def test_one_faulty_object_of_1000_is_reported_as_the_oracle_reports_it(
        self, tmp_path, index, fault
    ):
        path, records, vocab = self._scene_file(tmp_path, fault, index)
        expected = _outcome(lambda: oracle_load_objects(records, _FLOOR_GRID, vocab))
        assert expected[0] is SceneInvariantError
        assert _outcome(lambda: load_scene(path).objects) == expected


class TestCategoryIndex:
    def test_index_is_cached_read_only_and_outside_equality(self, kitchen, kitchen_path):
        fresh_hash = hash(kitchen)
        index = kitchen.instances_by_category
        assert index is kitchen.instances_by_category
        with pytest.raises(TypeError):
            index["mug"] = ()  # type: ignore[index]
        assert kitchen == load_scene(kitchen_path)
        assert hash(kitchen) == fresh_hash == hash(load_scene(kitchen_path))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_objects=st.integers(1, 60),
        words=st.lists(
            st.sampled_from(CATEGORY_POOL + ("tables", "lamps", "walk", "to", "the")), max_size=8
        ),
        position=st.tuples(st.floats(-2, 12), st.floats(-2, 12)),
    )
    def test_lookups_match_scans_of_the_objects(self, seed, n_objects, words, position):
        """On scenes whose 15 categories mostly repeat, each lookup equals a scan."""
        scene = make_random_scene(seed, n_objects)
        for category in CATEGORY_POOL:
            scanned = tuple(o for o in scene.objects if o.category == category)
            assert scene.instances_by_category.get(category, ()) == scanned
            if not scanned:
                with pytest.raises(ValueError):
                    nearest_instance(scene, category, position)
                continue
            assert nearest_instance(scene, category, position) == min(
                scanned, key=lambda o: (math.dist(position, o.centroid[:2]), o.id)
            )
        text = " ".join(words)
        named = {c for _, c in oracle_find_category_spans(text, {o.category for o in scene.objects})}
        assert detect_mentions(text, scene) == sorted(
            o.id for o in scene.objects if o.category in named
        )


def _triplet(*steps: dict, instruction: str = "I am tired") -> dict:
    """A checked record of ``steps``, each an ``index`` and ``text`` plus any other fields."""
    return parse_triplet_record({
        "scene_id": "kitchen-01",
        "instruction": instruction,
        "activity": "make coffee",
        "steps": list(steps),
    })


WALK = {"index": 1, "text": "walk"}
WALK_FINAL = {**WALK, "is_final": True}


class TestTripletWarnings:
    def test_clean_fixture_has_no_warnings(self, kitchen, kitchen_path):
        triplets, warnings = load_triplets(FIXTURES / "triplets_valid.jsonl", kitchen)
        assert len(triplets) == 4
        assert warnings == []

    def test_missing_final_step_flagged(self, kitchen):
        t = _triplet(WALK, {"index": 2, "text": "stop"})
        kinds = [kind for kind, _ in triplet_warnings(t, kitchen)]
        assert kinds == ["step-structure"]

    def test_final_step_not_last_flagged(self, kitchen):
        t = _triplet(WALK_FINAL, {"index": 2, "text": "stop"})
        kinds = [kind for kind, _ in triplet_warnings(t, kitchen)]
        assert kinds == ["step-structure"]

    def test_non_contiguous_indices_flagged(self, kitchen):
        t = _triplet(WALK, {"index": 3, "text": "stop", "is_final": True})
        kinds = [kind for kind, _ in triplet_warnings(t, kitchen)]
        assert kinds == ["step-structure"]

    def test_empty_step_list_flagged(self, kitchen):
        kinds = [kind for kind, _ in triplet_warnings(_triplet(), kitchen)]
        assert kinds == ["step-structure"]

    def test_unknown_object_id_flagged(self, tmp_path, kitchen):
        t = _triplet({**WALK_FINAL, "object_ids": [999]})
        assert triplet_warnings(t, kitchen) == [("unknown-object", "unknown object 999")]
        path = tmp_path / "unknown.jsonl"
        path.write_text("\n" * 6 + json.dumps(t) + "\n", encoding="utf-8")
        assert load_triplets(path, kitchen) == (
            [t], [(7, "unknown-object", "unknown object 999")]
        )

    def test_implicitness_violation_is_case_insensitive(self, kitchen):
        t = _triplet(WALK_FINAL, instruction="Please Make Coffee for me")
        kinds = [kind for kind, _ in triplet_warnings(t, kitchen)]
        assert kinds == ["implicitness-violation"]


class TestTripletIo:
    def test_syntax_failures_keep_later_records(self, tmp_path, kitchen):
        path = tmp_path / "mixed.jsonl"
        good = json.dumps(_triplet(WALK_FINAL))
        path.write_text("not json\n" + good + "\n", encoding="utf-8")
        triplets, warnings = load_triplets(path, kitchen)
        assert len(triplets) == 1
        assert [(line, kind) for line, kind, _ in warnings] == [(1, "syntax")]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_break_inside_a_string_stays_in_its_record(
        self, tmp_path, kitchen, char
    ):
        # JSON allows these raw in a string; str.splitlines() would also break there.
        lines = (FIXTURES / "triplets_valid.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["instruction"] += char
        lines[0] = json.dumps(first, ensure_ascii=False)
        path = tmp_path / "breaks.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert [lineno for lineno, _, _ in read_jsonl(path)] == list(range(1, len(lines) + 1))
        triplets, warnings = load_triplets(path, kitchen)
        expected, _ = load_triplets(FIXTURES / "triplets_valid.jsonl", kitchen)
        assert warnings == []
        assert triplets[0]["instruction"] == expected[0]["instruction"] + char
        assert triplets[1:] == expected[1:]

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_control_character_fails_only_its_own_line(self, tmp_path, kitchen, char):
        good = json.dumps(_triplet(WALK_FINAL))
        path = tmp_path / "control.jsonl"
        path.write_text(good[:10] + char + good[10:] + "\n" + good + "\n", encoding="utf-8")
        triplets, warnings = load_triplets(path, kitchen)
        assert len(triplets) == 1
        assert [(line, kind) for line, kind, _ in warnings] == [(1, "syntax")]

    def test_crlf_line_ends_are_read(self, tmp_path, kitchen):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes((FIXTURES / "triplets_valid.jsonl").read_bytes().replace(b"\n", b"\r\n"))
        assert load_triplets(path, kitchen) == load_triplets(
            FIXTURES / "triplets_valid.jsonl", kitchen
        )

    def test_blank_lines_ignored(self, tmp_path, kitchen):
        path = tmp_path / "blank.jsonl"
        good = json.dumps(_triplet(WALK_FINAL))
        path.write_text("\n" + good + "\n\n", encoding="utf-8")
        triplets, warnings = load_triplets(path, kitchen)
        assert len(triplets) == 1 and warnings == []

    def test_record_round_trip(self):
        record = {
            "scene_id": "kitchen-01",
            "instruction": "I am tired",
            "activity": "make coffee",
            "steps": [
                {"index": 1, "text": "walk to the sink", "object_ids": [3], "is_final": True}
            ],
        }
        parsed = parse_triplet_record(record)
        assert parsed == record
        assert parsed is not record and parsed["steps"][0] is not record["steps"][0]

    def test_defaults_filled_and_unknown_keys_dropped(self):
        record = {
            "scene_id": "kitchen-01",
            "instruction": "I am tired",
            "activity": "make coffee",
            "sample_id": 7,
            "steps": [{"index": 1, "text": "walk", "note": "extra"}],
        }
        assert parse_triplet_record(record) == {
            "scene_id": "kitchen-01",
            "instruction": "I am tired",
            "activity": "make coffee",
            "steps": [{"index": 1, "text": "walk", "object_ids": [], "is_final": False}],
        }

    def test_bool_step_index_is_rejected(self):
        record = _triplet(WALK_FINAL)
        record["steps"][0]["index"] = True
        with pytest.raises(SceneFormatError, match=re.escape("record.steps[0]: bad index/text")):
            parse_triplet_record(record)

    @pytest.mark.parametrize("value", ["false", 0, 1, None, [], {}])
    def test_non_bool_is_final_is_rejected(self, value):
        # bool() would read "false" and 1 as a final step, and None as not final.
        record = _triplet(WALK, {"index": 2, "text": "stop"})
        record["steps"][1]["is_final"] = value
        with pytest.raises(SceneFormatError, match=re.escape("record.steps[1].is_final")):
            parse_triplet_record(record)

    def test_missing_is_final_means_not_final(self):
        record = _triplet(WALK)
        del record["steps"][0]["is_final"]
        assert parse_triplet_record(record)["steps"][0]["is_final"] is False
