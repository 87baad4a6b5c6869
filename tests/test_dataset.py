"""Dataset loading, validation fault detection, stats arithmetic, prompts."""

from __future__ import annotations

import json
import re

import pytest

from sceneplan import dataset
from sceneplan.dataset import (
    DatasetError,
    FINDING_KINDS,
    ValidationFinding,
    compute_stats,
    dataset_stats,
    generation_prompts,
    load_dataset,
    validate_dataset,
    validate_sample,
)
from sceneplan.route import default_start_pose
from tests.dataset_builder import build_clean_dataset, build_faulty_dataset


@pytest.fixture(scope="module")
def faulty_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("faulty")
    plan = build_faulty_dataset(root)
    return root, plan


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    records = build_clean_dataset(root)
    return root, records


class TestLoadDataset:
    def test_loads_all_samples_and_scenes(self, faulty_dir):
        root, plan = faulty_dir
        samples, scenes = load_dataset(root)
        assert len(samples) == len(plan["records"]) == 50
        assert set(scenes) == {"kitchen-01", "kitchen-02"}
        # File order: the builder writes records[:40] to train, the rest to val.
        assert list(samples) == [(r["scene_id"], r["sample_id"]) for r in plan["records"]]

    def test_sample_ids_come_from_records(self, faulty_dir):
        root, plan = faulty_dir
        samples, _ = load_dataset(root)
        for record in plan["records"]:
            assert (record["scene_id"], record["sample_id"]) in samples

    def test_sample_id_defaults_to_line_number(self, tmp_path, clean_dir):
        clean_root, records = clean_dir
        root = tmp_path / "nolids"
        (root / "scenes").mkdir(parents=True)
        (root / "triplets").mkdir()
        (root / "scenes" / "kitchen-01.json").write_text(
            (clean_root / "scenes" / "kitchen-01.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        stripped = [{k: v for k, v in r.items() if k != "sample_id"} for r in records[:3]]
        (root / "triplets" / "train.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in stripped), encoding="utf-8"
        )
        samples, _ = load_dataset(root)
        assert [sample_id for _, sample_id in samples] == [1, 2, 3]

    def test_missing_scene_file_is_fatal(self, tmp_path):
        root = tmp_path / "ds"
        (root / "triplets").mkdir(parents=True)
        record = {
            "scene_id": "ghost",
            "instruction": "x",
            "activity": "y",
            "steps": [{"index": 1, "text": "z", "is_final": True}],
        }
        (root / "triplets" / "train.jsonl").write_text(
            json.dumps(record) + "\n", encoding="utf-8"
        )
        with pytest.raises(DatasetError, match="ghost"):
            load_dataset(root)

    def test_malformed_record_is_fatal_with_locus(self, tmp_path, clean_dir):
        clean_root, _ = clean_dir
        root = tmp_path / "bad"
        (root / "scenes").mkdir(parents=True)
        (root / "triplets").mkdir()
        (root / "triplets" / "train.jsonl").write_text("{broken\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"train\.jsonl:1"):
            load_dataset(root)

    def test_unparsable_record_names_its_locus_once(self, tmp_path):
        root = tmp_path / "fields"
        (root / "scenes").mkdir(parents=True)
        (root / "triplets").mkdir()
        (root / "triplets" / "train.jsonl").write_text('{"scene_id": 1}\n', encoding="utf-8")
        with pytest.raises(DatasetError) as info:
            load_dataset(root)
        assert str(info.value).count("train.jsonl:1") == 1

    @pytest.mark.parametrize(
        "patch",
        [
            {"scene_id": "../kitchen-01"},
            {"scene_id": "scenes/kitchen-01"},
            {"scene_id": ".."},
            {"scene_id": "."},
            {"sample_id": True},
            {"sample_id": "1"},
        ],
    )
    def test_bad_record_key_is_fatal_with_locus(self, tmp_path, clean_dir, patch):
        clean_root, records = clean_dir
        root = tmp_path / "keys"
        (root / "scenes").mkdir(parents=True)
        (root / "triplets").mkdir()
        scene_text = (clean_root / "scenes" / "kitchen-01.json").read_text(encoding="utf-8")
        (root / "kitchen-01.json").write_text(scene_text, encoding="utf-8")
        (root / "scenes" / "kitchen-01.json").write_text(scene_text, encoding="utf-8")
        record = {**records[0], **patch}
        (root / "triplets" / "train.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"train\.jsonl:1: (scene|sample)_id"):
            load_dataset(root)

    @pytest.mark.parametrize(
        ("train", "val", "drop_ids", "duplicate", "first"),
        [
            ([0, 1], [1], False, r"val\.jsonl:1", r"train\.jsonl:2"),
            ([0, 1, 0], [], False, r"train\.jsonl:3", r"train\.jsonl:1"),
            # Without sample_id, each file numbers its records from 1.
            ([0], [1], True, r"val\.jsonl:1", r"train\.jsonl:1"),
        ],
        ids=["across-splits", "within-a-split", "default-ids"],
    )
    def test_duplicate_key_is_fatal_naming_both_loci(
        self, tmp_path, clean_dir, train, val, drop_ids, duplicate, first
    ):
        clean_root, records = clean_dir
        if drop_ids:
            records = [{k: v for k, v in r.items() if k != "sample_id"} for r in records]
        root = tmp_path / "dupes"
        (root / "scenes").mkdir(parents=True)
        (root / "triplets").mkdir()
        (root / "scenes" / "kitchen-01.json").write_text(
            (clean_root / "scenes" / "kitchen-01.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        for split, picks in (("train", train), ("val", val)):
            (root / "triplets" / f"{split}.jsonl").write_text(
                "".join(json.dumps(records[i]) + "\n" for i in picks), encoding="utf-8"
            )
        with pytest.raises(DatasetError) as info:
            load_dataset(root)
        assert re.fullmatch(
            rf".*{duplicate}: duplicate key \('kitchen-01', \d+\), first at .*{first}",
            str(info.value),
        )

    def test_missing_split_files_fatal(self, tmp_path):
        with pytest.raises(DatasetError, match="no train.jsonl"):
            load_dataset(tmp_path)


class TestValidation:
    def test_clean_dataset_has_no_findings(self, clean_dir):
        root, _ = clean_dir
        assert validate_dataset(root) == []

    def test_exactly_the_injected_faults_detected(self, faulty_dir):
        root, plan = faulty_dir
        findings = validate_dataset(root)
        assert len(findings) == 5
        got = {f.sample_id: f.kind for f in findings}
        assert got == plan["expected_kinds"]

    def test_findings_sorted_by_sample_key(self, faulty_dir):
        root, _ = faulty_dir
        findings = validate_dataset(root)
        keys = [(f.scene_id, f.sample_id) for f in findings]
        assert keys == sorted(keys)

    def test_finding_details_name_the_problem(self, faulty_dir):
        root, _ = faulty_dir
        by_id = {f.sample_id: f for f in validate_dataset(root)}
        assert "99" in by_id[46].detail
        assert "refrigerator" in by_id[47].detail
        assert "oven" in by_id[48].detail
        assert "prepare a cup of coffee" in by_id[49].detail
        assert "quickly" in by_id[50].detail

    def test_validate_sample_clean(self, clean_dir):
        root, _ = clean_dir
        samples, scenes = load_dataset(root)
        key, triplet = next(iter(samples.items()))
        scene = scenes[triplet["scene_id"]]
        assert validate_sample(key, triplet, scene, default_start_pose(scene)) == []

    def test_start_pose_is_found_once_per_scene(self, faulty_dir, monkeypatch):
        root, _ = faulty_dir
        expected = validate_dataset(root)
        calls = []

        def counting_start_pose(scene):
            calls.append(scene.scene_id)
            return default_start_pose(scene)

        monkeypatch.setattr(dataset, "default_start_pose", counting_start_pose)
        assert validate_dataset(root) == expected
        assert sorted(calls) == ["kitchen-01", "kitchen-02"]

    def test_finding_kind_is_constrained(self):
        for build in (
            lambda: ValidationFinding("s", 1, "made-up-kind", "detail"),
            lambda: ValidationFinding(scene_id="s", sample_id=1, kind="made-up-kind", detail="d"),
        ):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert excinfo.type is ValueError
            assert str(excinfo.value) == "unknown finding kind 'made-up-kind'"
        assert "unparsed-route" in FINDING_KINDS


def _synthetic_sample(key_id: int, steps: list[str], activity: str = "do a thing"):
    """A ``(key, triplet)`` item of the dict that :func:`load_dataset` returns."""
    triplet = {
        "scene_id": "kitchen-01",
        "instruction": "a request",
        "activity": activity,
        "steps": [
            {"index": i, "text": text, "object_ids": [], "is_final": i == len(steps)}
            for i, text in enumerate(steps, start=1)
        ],
    }
    return ("kitchen-01", key_id), triplet


class TestStats:
    def test_step_histogram_pinned_example(self, kitchen):
        samples = dict([
            _synthetic_sample(1, ["a"] * 3),
            _synthetic_sample(2, ["b"] * 3),
            _synthetic_sample(3, ["c"] * 4),
            _synthetic_sample(4, ["d"] * 5),
        ])
        stats = compute_stats(samples, {"kitchen-01": kitchen})
        assert stats["step_histogram"] == {"3": 0.5, "4": 0.25, "5": 0.25}
        assert stats["mean_steps"] == 3.75
        assert stats["sample_count"] == 4
        assert stats["scene_count"] == 1
        assert stats["instructions_per_scene"] == 4.0

    def test_mean_words_counts_activity_and_steps(self, kitchen):
        sample = _synthetic_sample(
            1, ["walk to the sink", "turn 90 degrees left"], activity="five words are in here"
        )
        stats = compute_stats(dict([sample]), {"kitchen-01": kitchen})
        assert stats["mean_words"] == 5 + 4 + 4

    def test_verb_histogram_counts_clause_heads(self, kitchen):
        sample = _synthetic_sample(
            1,
            [
                "walk to the sink and turn 90 degrees left",
                "go forward and walk to the stove",
            ],
        )
        stats = compute_stats(dict([sample]), {"kitchen-01": kitchen})
        assert stats["verb_histogram"] == {"walk": 2, "turn": 1, "go": 1}

    def test_action_object_pairs_from_non_route_fragments(self, kitchen):
        sample = _synthetic_sample(
            1, ["polish the kitchen counter and grab the mug", "walk to the sink"]
        )
        stats = compute_stats(dict([sample]), {"kitchen-01": kitchen})
        assert stats["action_object_histogram"] == [
            {"action": "grab", "object": "mug", "count": 1},
            {"action": "polish", "object": "kitchen counter", "count": 1},
        ]

    def test_stats_match_raw_record_arithmetic(self, faulty_dir):
        root, plan = faulty_dir
        stats = dataset_stats(root)
        records = plan["records"]
        n = len(records)
        total_steps = sum(len(r["steps"]) for r in records)
        total_words = sum(
            len(r["activity"].split())
            + sum(len(s["text"].split()) for s in r["steps"])
            for r in records
        )
        assert stats["sample_count"] == n
        assert stats["scene_count"] == 2
        assert stats["mean_steps"] == pytest.approx(total_steps / n, abs=1e-9)
        assert stats["mean_words"] == pytest.approx(total_words / n, abs=1e-9)
        counts: dict[int, int] = {}
        for record in records:
            counts[len(record["steps"])] = counts.get(len(record["steps"]), 0) + 1
        assert stats["step_histogram"] == pytest.approx(
            {str(k): v / n for k, v in counts.items()}, abs=1e-9
        )
        assert sum(stats["step_histogram"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_concatenation_recombines_means(self, kitchen):
        a = dict([_synthetic_sample(1, ["one two", "three"]), _synthetic_sample(2, ["x"] * 4)])
        b = dict([_synthetic_sample(3, ["alpha beta gamma"])])
        scenes = {"kitchen-01": kitchen}
        stats_a = compute_stats(a, scenes)
        stats_b = compute_stats(b, scenes)
        combined = compute_stats(a | b, scenes)
        n_a, n_b = stats_a["sample_count"], stats_b["sample_count"]
        assert combined["mean_steps"] == pytest.approx(
            (stats_a["mean_steps"] * n_a + stats_b["mean_steps"] * n_b) / (n_a + n_b), abs=1e-12
        )
        assert combined["mean_words"] == pytest.approx(
            (stats_a["mean_words"] * n_a + stats_b["mean_words"] * n_b) / (n_a + n_b), abs=1e-12
        )

    def test_empty_dataset_rejected(self, kitchen):
        with pytest.raises(DatasetError, match="no samples"):
            compute_stats({}, {"kitchen-01": kitchen})

    def test_stats_are_json_ready(self, faulty_dir):
        root, _ = faulty_dir
        out = dataset_stats(root)
        json.dumps(out)  # must not raise
        assert list(out["step_histogram"]) == sorted(out["step_histogram"])


class TestGenerationPrompts:
    def test_deterministic_per_seed(self, kitchen):
        assert generation_prompts(kitchen, 5, seed=3) == generation_prompts(kitchen, 5, seed=3)

    def test_prompts_list_full_inventory_and_schema(self, kitchen):
        prompts = generation_prompts(kitchen, 2, seed=0)
        assert len(prompts) == 2
        for prompt in prompts:
            for obj in kitchen.objects:
                assert f"{obj.category} (id {obj.id})" in prompt
            assert '"scene_id"' in prompt
            assert "one JSON object" in prompt
            assert kitchen.scene_id in prompt

    def test_nonpositive_n_rejected(self, kitchen):
        with pytest.raises(ValueError, match="n must be positive"):
            generation_prompts(kitchen, 0)
