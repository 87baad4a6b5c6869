"""CLI contract: JSON stdout, human stderr, documented exit codes."""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import math
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan import cli, engine, route
from sceneplan import graph as graph_module
from sceneplan.cli import _emit, _texts, build_parser, main
from sceneplan.dataset import FINDING_KINDS
from sceneplan.engine import END_TOKEN, SYSTEM_PREAMBLE, run_episode
from sceneplan.generators import DEFAULT_RULES, RuleBasedGenerator
from sceneplan.graph import (
    DEFAULT_K,
    SceneGraph,
    build_graph,
    classify_relation,
    graph_to_dict,
    modulate,
)
from sceneplan.route import AgentPose, adjacent_free_cells, default_start_pose
from sceneplan.scene import ObjectInstance, SceneModel, load_scene
from tests.conftest import FIXTURES, run_python
from tests.oracles import (
    oracle_bfs_length,
    oracle_find_category_spans,
    oracle_knn,
    oracle_modulated_sets,
    oracle_nearest_free_cell,
    oracle_serialize_for_prompt,
)
from tests.dataset_builder import build_clean_dataset, build_faulty_dataset
from tests.test_generators import StubEndpoint

KITCHEN = str(FIXTURES / "kitchen.json")
PLAN = ["plan", "--instruction", "make tea"]
# The endpoint is never contacted: every case using it fails before a request.
LLM_PLAN = PLAN + [
    "--scene", KITCHEN, "--backend", "llm", "--endpoint", "http://localhost:9", "--model", "m"
]


def _run(capsys, argv: list[str]) -> tuple[int, dict | None, str]:
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture(scope="module")
def faulty_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-faulty")
    plan = build_faulty_dataset(root)
    return root, plan


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-clean")
    build_clean_dataset(root)
    return root


@pytest.fixture(scope="module")
def implicit_only_dir(tmp_path_factory):
    """Dataset whose only flaw is one implicitness violation."""
    root = tmp_path_factory.mktemp("cli-implicit")
    records = build_clean_dataset(root)
    generic = next(r for r in records if r["activity"] == "assist with the request")
    violation = {
        "scene_id": "kitchen-01",
        "sample_id": 900,
        "instruction": "please assist with the request now",
        "activity": "assist with the request",
        "steps": generic["steps"],
    }
    path = root / "triplets" / "train.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(violation) + "\n")
    return root


class TestValidateCommand:
    def test_faulty_dataset_reports_and_fails(self, capsys, faulty_dir):
        root, plan = faulty_dir
        code, payload, err = _run(capsys, ["validate", str(root)])
        assert code == 1
        assert payload["count"] == 5
        kinds = {f["sample_id"]: f["kind"] for f in payload["findings"]}
        assert kinds == plan["expected_kinds"]
        assert len(err.strip().splitlines()) == 5

    def test_clean_dataset_passes(self, capsys, clean_dir):
        code, payload, err = _run(capsys, ["validate", str(clean_dir)])
        assert code == 0
        assert payload == {"findings": [], "count": 0, "strict": False}
        assert err == ""

    def test_strict_fails_on_any_finding(self, capsys, faulty_dir):
        root, _ = faulty_dir
        code, payload, _ = _run(capsys, ["validate", str(root), "--strict"])
        assert code == 1
        assert payload["strict"] is True

    def test_implicitness_only_passes_unless_strict(self, capsys, implicit_only_dir):
        code, payload, _ = _run(capsys, ["validate", str(implicit_only_dir)])
        assert code == 0
        assert payload["count"] == 1
        assert payload["findings"][0]["kind"] == "implicitness-violation"
        strict_code, _, _ = _run(capsys, ["validate", str(implicit_only_dir), "--strict"])
        assert strict_code == 1

    def test_out_writes_findings_jsonl(self, capsys, faulty_dir, tmp_path):
        root, _ = faulty_dir
        out = tmp_path / "findings.jsonl"
        _run(capsys, ["validate", str(root), "--out", str(out)])
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 5
        assert all("kind" in json.loads(line) for line in lines)

    def test_out_holds_the_printed_findings_in_order(self, capsys, faulty_dir, clean_dir, tmp_path):
        for root, count in ((faulty_dir[0], 5), (clean_dir, 0)):
            out = tmp_path / f"{root.name}.jsonl"
            _, payload, _ = _run(capsys, ["validate", str(root), "--out", str(out)])
            text = out.read_text(encoding="utf-8")
            findings = payload["findings"]
            assert text == "".join(json.dumps(f, sort_keys=True) + "\n" for f in findings)
            rows = [json.loads(line) for line in text.splitlines()]
            assert len(rows) == count
            for row in rows:
                assert list(row) == ["detail", "kind", "sample_id", "scene_id"]
                assert row["kind"] in FINDING_KINDS

    def test_missing_dataset_fails_with_path(self, capsys, tmp_path):
        ghost = tmp_path / "missing"
        code, _, err = _run(capsys, ["validate", str(ghost)])
        assert code == 1
        assert str(ghost) in err


class TestStatsCommand:
    def test_reports_composition(self, capsys, faulty_dir):
        root, plan = faulty_dir
        code, payload, _ = _run(capsys, ["stats", str(root)])
        assert code == 0
        records = plan["records"]
        assert payload["sample_count"] == len(records)
        assert payload["scene_count"] == 2
        expected_mean = sum(len(r["steps"]) for r in records) / len(records)
        assert payload["mean_steps"] == pytest.approx(expected_mean, abs=1e-9)
        assert set(payload) >= {
            "mean_words",
            "step_histogram",
            "verb_histogram",
            "action_object_histogram",
            "instructions_per_scene",
        }


class TestPlanCommand:
    ARGS = ["plan", "--scene", KITCHEN, "--instruction", "I am tired and want coffee"]

    def test_rules_backend_plans_full_episode(self, capsys):
        code, payload, _ = _run(capsys, self.ARGS)
        assert code == 0
        assert len(payload["steps"]) == 4
        assert payload["terminated_by"] == "end-token"
        assert payload["activity"].startswith("To help you")

    def test_output_is_byte_deterministic(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_dump_graph_snapshots_track_steps(self, capsys):
        code, payload, _ = _run(capsys, self.ARGS + ["--dump-graph"])
        assert code == 0
        snapshots = payload["graph_snapshots"]
        assert len(snapshots) == len(payload["steps"])
        first_weights = {n["id"]: n["weight"] for n in snapshots[0]["nodes"]}
        final_weights = {n["id"]: n["weight"] for n in snapshots[-1]["nodes"]}
        assert first_weights[4] == 2.0  # kettle modulated by step 1
        assert final_weights[4] >= first_weights[4]

    def test_custom_k_and_weight(self, capsys):
        code, payload, _ = _run(capsys, self.ARGS + ["--k", "3", "--w-l", "1.5"])
        assert code == 0
        assert len(payload["steps"]) == 4

    def test_llm_backend_requires_endpoint(self, capsys):
        code, _, err = _run(capsys, self.ARGS + ["--backend", "llm"])
        assert code == 1
        assert "--endpoint" in err

    def test_llm_backend_rejects_start_flags_before_building_a_client(self, capsys, monkeypatch):
        monkeypatch.delenv("SHARP_API_KEY", raising=False)
        code, _, err = _run(capsys, LLM_PLAN + ["--start-x", "1.0", "--start-y", "1.0"])
        assert code == 1
        assert "only to --backend rules" in err
        # An explicit heading of 0 is rejected too, not taken for the default.
        code, _, err = _run(capsys, LLM_PLAN + ["--start-heading", "0"])
        assert code == 1
        assert "only to --backend rules" in err

    def test_unknown_scene_path_fails_and_names_it(self, capsys, tmp_path):
        ghost = tmp_path / "nope.json"
        code, _, err = _run(
            capsys, ["plan", "--scene", str(ghost), "--instruction", "x"]
        )
        assert code == 1
        assert "nope.json" in err

    def test_partial_start_flags_rejected(self, capsys):
        code, _, err = _run(capsys, self.ARGS + ["--start-x", "0.0"])
        assert code == 1
        assert "--start-y" in err


class TestRouteCheckCommand:
    def test_valid_triplets_pass(self, capsys):
        code, payload, _ = _run(
            capsys,
            [
                "route-check",
                "--scene",
                KITCHEN,
                "--triplets",
                str(FIXTURES / "triplets_valid.jsonl"),
            ],
        )
        assert code == 0
        assert payload["all_ok"] is True
        assert len(payload["routes"]) == 4
        verdicts = {
            r["verdict"] for route in payload["routes"] for r in route["reports"]
        }
        assert verdicts == {"ok"}

    def test_line_separator_in_a_string_keeps_records_and_lines(self, capsys, tmp_path):
        # A raw U+2028 is valid inside a JSON string; it used to split the
        # record in two, both syntax errors, and shift later line numbers.
        lines = (FIXTURES / "triplets_valid.jsonl").read_text(encoding="utf-8").split("\n")
        first = json.loads(lines[0])
        first["instruction"] += "\u2028"
        lines[0] = json.dumps(first, ensure_ascii=False)
        path = tmp_path / "separator.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        argv = ["route-check", "--scene", KITCHEN, "--triplets"]
        code, payload, err = _run(capsys, argv + [str(path)])
        expected = _run(capsys, argv + [str(FIXTURES / "triplets_valid.jsonl")])
        assert err == expected[2]
        assert payload["routes"][0]["instruction"] == first["instruction"]
        payload["routes"][0]["instruction"] = expected[1]["routes"][0]["instruction"]
        assert (code, payload) == expected[:2]

    def test_bad_route_fails(self, capsys, tmp_path):
        record = {
            "scene_id": "kitchen-01",
            "instruction": "clean",
            "activity": "clean the room",
            "steps": [
                {"index": 1, "text": "Walk swiftly toward the sink.", "is_final": True}
            ],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, payload, _ = _run(
            capsys, ["route-check", "--scene", KITCHEN, "--triplets", str(path)]
        )
        assert code == 1
        assert payload["all_ok"] is False
        assert payload["routes"][0]["reports"][0]["verdict"] == "unparsed"

    @pytest.mark.parametrize(
        "field,value,locus",
        [("index", True, "steps[0]"), ("is_final", "false", "steps[0].is_final")],
    )
    def test_record_with_mistyped_step_is_dropped(
        self, capsys, tmp_path, field, value, locus
    ):
        record = {
            "scene_id": "kitchen-01",
            "instruction": "clean",
            "activity": "clean the room",
            "steps": [{"index": 1, "text": "Walk to the sink.", "is_final": True}],
        }
        record["steps"][0][field] = value
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, payload, err = _run(
            capsys, ["route-check", "--scene", KITCHEN, "--triplets", str(path)]
        )
        assert (code, payload["routes"]) == (0, [])
        assert err.startswith(f"line 1: syntax: record.{locus}")
        assert err.count("\n") == 1

    def test_category_with_punctuation_is_matched(self, capsys, tmp_path):
        # Categories split into words the way text does, so "t-shirt" in a
        # step names the category "t-shirt" (it used to be unknown-object).
        scene = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
        (stove,) = (o for o in scene["objects"] if o["id"] == 1)
        stove["category"] = "t-shirt"
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene), encoding="utf-8")
        record = {
            "scene_id": scene["scene_id"],
            "instruction": "I need something to wear",
            "activity": "get dressed",
            "steps": [{"index": 1, "text": "Walk to the t-shirt and pick up the t-shirt.",
                       "object_ids": [1], "is_final": True}],
        }
        triplets = tmp_path / "tshirt.jsonl"
        triplets.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, payload, err = _run(
            capsys, ["route-check", "--scene", str(scene_path), "--triplets", str(triplets)]
        )
        assert (code, err) == (0, "")
        (report,) = payload["routes"][0]["reports"]
        assert (report["verdict"], report["clauses"]) == ("ok", ["walk to the t shirt"])


# Byte-exact stdout of stats and route-check on the fixtures and on the
# faulty dataset of tests/dataset_builder.py.  No benchmark workload runs
# stats, so this is its output lock; editing these files changes CLI output.
# plan_llm_requests_kitchen_k4.json holds request bodies, not stdout: the
# prompts that `plan --backend llm` posts.
GOLDEN = FIXTURES / "cli_golden"


COFFEE_PLAN = ["plan", "--scene", KITCHEN, "--instruction", "I am tired and want coffee"]


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("stats_faulty_dataset", ["stats", "{root}"], 0),
        ("route_check_kitchen", ["route-check", "--scene", KITCHEN, "--triplets",
                                 str(FIXTURES / "triplets_valid.jsonl")], 0),
        ("route_check_faulty_kitchen_01",
         ["route-check", "--scene", "{root}/scenes/kitchen-01.json",
          "--triplets", "{root}/triplets/val.jsonl"], 1),
        ("route_check_faulty_kitchen_02",
         ["route-check", "--scene", "{root}/scenes/kitchen-02.json",
          "--triplets", "{root}/triplets/val.jsonl"], 1),
        ("validate_faulty_dataset", ["validate", "{root}"], 1),
        ("plan_dump_graph_kitchen_k2", COFFEE_PLAN + ["--k", "2", "--dump-graph"], 0),
        ("plan_dump_graph_kitchen_k4", COFFEE_PLAN + ["--k", "4", "--dump-graph"], 0),
        ("evaluate_golden_corpus", ["evaluate", "--predictions", "{corpus}/predictions.jsonl",
                                    "--references", "{corpus}/references.jsonl"], 0),
        ("gen_prompts_kitchen", ["gen-prompts", "--scene", KITCHEN, "--n", "3", "--seed", "5"], 0),
    ],
)
def test_stdout_matches_golden_bytes(capsys, faulty_dir, golden_corpus_files, name, argv, code):
    root, _ = faulty_dir
    assert main([arg.format(root=root, corpus=golden_corpus_files) for arg in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_llm_plan_posts_the_golden_request_bodies(capsys, monkeypatch):
    # The prompt bytes lock: every chat-completions body that `plan --backend
    # llm` posts on the kitchen, at k 4 and a w_l that leaves weights like
    # 1.2100000000000002, which render as "1.21".
    monkeypatch.setenv("SHARP_API_KEY", "test-key")
    replies = [
        "You are tired, so brew coffee. Step 1: Walk to the coffee machine.",
        "Step 2: Take a mug from the cabinet.",
        "Step 3: Fill the kettle at the sink and put it on the stove.",
        "Step 4: Pour the coffee into the mugs on the dining table. [END]",
    ]
    with StubEndpoint([{"text": text} for text in replies]) as stub:
        argv = COFFEE_PLAN + ["--k", "4", "--w-l", "1.1", "--backend", "llm",
                              "--endpoint", stub.base_url, "--model", "stub-model"]
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["terminated_by"] == "end-token"
    bodies = json.dumps([request["body"] for request in stub.requests], indent=2, sort_keys=True)
    golden = GOLDEN / "plan_llm_requests_kitchen_k4.json"
    assert bodies + "\n" == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
def test_golden_stdout_is_what_json_dumps_prints(path):
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["route-check", "--scene", KITCHEN, "--triplets", str(FIXTURES / "triplets_valid.jsonl")],
        ["plan", "--scene", KITCHEN, "--instruction", "I am tired and want coffee"],
    ],
    ids=["route-check", "plan"],
)
def test_start_heading_alone_turns_the_default_pose(capsys, argv):
    x, y = default_start_pose(load_scene(KITCHEN)).position
    main(argv + ["--start-heading", "90"])
    heading_only = capsys.readouterr().out
    main(argv + ["--start-heading", "90", "--start-x", repr(x), "--start-y", repr(y)])
    assert heading_only == capsys.readouterr().out
    main(argv)
    assert heading_only != capsys.readouterr().out


def _outcome(encode):
    try:
        return encode()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _emitted(payload, snapshots=None) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload, snapshots)
    return out.getvalue()


def _assert_emits_like_json_dumps(payload):
    assert _outcome(lambda: _emitted(payload)) == _outcome(
        lambda: json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


class TestEmitter:
    """``_emit`` prints what ``json.dumps(indent=2, sort_keys=True, allow_nan=False)`` does."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"w": math.inf},
            {"nodes": [{"id": 1, "weight": -math.inf}]},
            {"steps": [{"ids": [1, 2]}, {"weight": math.nan}]},
            {math.inf: 1},
            [1, {"a": {"b": [math.nan]}}],
        ],
    )
    def test_non_finite_number_is_named(self, payload):
        with pytest.raises(ValueError) as raised:
            _emitted(payload)
        bad = next(v for v in ("nan", "-inf", "inf") if v in repr(payload))
        assert str(raised.value) == f"Out of range float values are not JSON compliant: {bad}"

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [{}, []], "d": [[[]]], "e": [{"x": {}}]},
            [{"a": 1}, {}, {"b": {"c": 2}}, {"d": "}\u0000{"}],
            [{"a": "},\n{"}, {"b": "\x00"}],
            {"t": (1, (2, 3), ()), "b": [True, 1, False, 0], "z": -0.0, "h": 10**40},
            {2: "int", 2.5: "float", True: "bool"},
            {None: [None]},
        ],
    )
    def test_edge_cases_match_json_dumps(self, payload):
        _assert_emits_like_json_dumps(payload)

    def test_texts_split_only_at_the_item_mark(self):
        # The snapshot renderer splits one C call's output at the mark; a
        # mark or a separator inside a string must stay escaped in its text.
        values = ["a\x00b", "x\x00\x00", ", ", "\u2028", "", 1.5, -0.0, 1e16, 10**20, None, True]
        assert _texts(values) == [json.dumps(value) for value in values]
        assert _texts([]) == []
        with pytest.raises(ValueError):
            _texts([1.0, math.nan])


# Categories that JSON must escape, beside plain and repeated ones.
_SNAPSHOT_CATEGORIES = ('say "hi"', "back\\slash", "bell\x07", "café", "line\u2028break",
                        "mug", "mug", "kitchen counter")


@st.composite
def _modulated_graphs(draw) -> tuple[SceneGraph, list[tuple[list[int], float]]]:
    """A graph and one to five ``(mentioned ids, w_l)`` modulation steps.

    Centroids sit on a half-meter lattice, so distances tie, and ``k``
    often reaches ``n - 1`` or beyond.  The ``w_l`` values make products
    with long reprs.
    """
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    objects = []
    for oid in ids:
        centroid = tuple(0.5 * draw(st.integers(0, 2)) for _ in range(3))
        objects.append(ObjectInstance(
            oid, draw(st.sampled_from(_SNAPSHOT_CATEGORIES)), centroid, (centroid, centroid)
        ))
    graph = build_graph(SceneModel("generated", tuple(objects)), k=draw(st.integers(1, 6)))
    steps = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(ids), max_size=3),
                  st.sampled_from([1.1, 0.3, 1e-5, 2.0, 1.0 / 3.0])),
        min_size=1, max_size=5,
    ))
    return graph, steps


def _old_plan_stdout(scene_path: str, instruction: str, k: int) -> str:
    """``plan --dump-graph`` stdout built from ``graph_to_dict`` per step and ``json.dumps``."""
    scene = load_scene(scene_path)
    graph = build_graph(scene, k=k)
    start = AgentPose(default_start_pose(scene).position, 0)
    generator = RuleBasedGenerator(scene, DEFAULT_RULES, start)
    snapshots = []

    def observe(request):
        if request.step_index > 1:
            snapshots.append(graph_to_dict(graph))
        return generator(request)

    episode = run_episode(scene, graph, instruction, observe)
    snapshots.append(graph_to_dict(graph))
    episode["graph_snapshots"] = snapshots
    return json.dumps(episode, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestGraphSnapshots:
    """Snapshots rendered from recorded weights print what ``graph_to_dict`` per step does."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(world=_modulated_graphs())
    def test_rendered_snapshots_match_graph_to_dict_per_step(self, world):
        graph, steps = world
        snapshots = cli._GraphSnapshots(graph)
        expected = []
        for step_index, (mentioned, w_l) in enumerate(steps, start=1):
            modulate(graph, mentioned, w_l=w_l, step_index=step_index)
            snapshots.record()
            expected.append(graph_to_dict(graph))
        # Keys on both sides of "graph_snapshots"; a nested null one stays null.
        payload = {"a": {"graph_snapshots": None}, "k": [1], "z": '"graph_snapshots": null'}
        reference = {**payload, "graph_snapshots": expected}
        assert _emitted(payload, snapshots) == json.dumps(
            reference, indent=2, sort_keys=True
        ) + "\n"

    def test_splice_ignores_the_slot_text_inside_the_instruction(self, capsys):
        instruction = 'make tea\n  "graph_snapshots": null\n  '
        code = main(["plan", "--scene", KITCHEN, "--instruction", instruction, "--dump-graph"])
        assert code == 0
        assert capsys.readouterr().out == _old_plan_stdout(KITCHEN, instruction, DEFAULT_K)

    def test_no_recorded_step_prints_an_empty_list(self, kitchen):
        snapshots = cli._GraphSnapshots(build_graph(kitchen))
        payload = {"a": 1, "z": [2]}
        assert _emitted(payload, snapshots) == json.dumps(
            {**payload, "graph_snapshots": []}, indent=2, sort_keys=True
        ) + "\n"

    def test_large_scene_prints_the_graph_to_dict_document(self, capsys, tmp_path):
        """A 240-object kitchen, the four-step coffee rule, ``--k 4``."""
        code = main(_large_dump_argv(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert len(json.loads(out)["graph_snapshots"]) == 4
        assert out == _old_plan_stdout(str(tmp_path / "scene.json"), _LARGE_INSTRUCTION, 4)

    def test_large_dump_peaks_under_three_times_its_output(self, monkeypatch, tmp_path):
        """``_emit`` holds the printed document about once, not once per stage of building it."""
        emitted = []
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_emit", lambda *args: emitted.append(args))
            assert main(_large_dump_argv(tmp_path)) == 0
        [(payload, snapshots)] = emitted
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                _emit(payload, snapshots)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(json.loads(out.getvalue())["graph_snapshots"]) == 4
        assert peak <= 3 * len(out.getvalue())


_LARGE_INSTRUCTION = "I am tired and want coffee"


def _large_dump_argv(tmp_path: Path, objects: int = 240) -> list[str]:
    """``plan --dump-graph`` argv on a kitchen of ``objects`` objects written to ``tmp_path``."""
    data = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
    rng = random.Random(20)
    categories = sorted({obj["category"] for obj in data["objects"]}) + ["lamp", "plant"]
    for oid in range(len(data["objects"]), objects):
        centroid = [rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 5.0), rng.uniform(0.0, 2.0)]
        data["objects"].append({
            "id": oid, "category": rng.choice(categories), "centroid": centroid,
            "aabb": {"min": [c - 0.05 for c in centroid], "max": [c + 0.05 for c in centroid]},
        })
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(data), encoding="utf-8")
    return ["plan", "--scene", str(scene_path), "--instruction", _LARGE_INSTRUCTION,
            "--k", "4", "--dump-graph"]


class TestPlanComputesWhatItReads:
    """``plan`` ranks and classifies the out-edges it reads, and renders the prompts read."""

    OBJECTS, K = 400, 4

    def _plan(self, capsys, argv: list[str]) -> tuple[dict, int, int]:
        """The printed document, and how many edges were classified and prompts rendered."""
        with mock.patch.object(
            graph_module, "classify_relation", wraps=graph_module.classify_relation
        ) as classified, mock.patch.object(
            engine, "serialize_for_prompt", wraps=engine.serialize_for_prompt
        ) as rendered:
            code, payload, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        return payload, classified.call_count, rendered.call_count

    def test_rules_plan_classifies_only_the_mentioned_sources_and_renders_nothing(
        self, capsys, tmp_path
    ):
        argv = _large_dump_argv(tmp_path, self.OBJECTS)
        assert argv[-3:] == ["--k", str(self.K), "--dump-graph"]
        payload, classified, rendered = self._plan(capsys, argv[:-1])
        sources = {i for record in payload["modulations"] for i in record["mentioned_ids"]}
        assert 0 < len(sources) < self.OBJECTS
        assert classified == len(sources) * self.K
        assert rendered == 0

    def test_dump_graph_classifies_every_edge_once(self, capsys, tmp_path):
        payload, classified, rendered = self._plan(
            capsys, _large_dump_argv(tmp_path, self.OBJECTS)
        )
        assert len(payload["graph_snapshots"][-1]["edges"]) == self.OBJECTS * self.K
        assert classified == self.OBJECTS * self.K
        assert rendered == 0

    def test_a_generator_that_reads_the_context_renders_it_once_per_step(
        self, capsys, tmp_path
    ):
        contexts = []

        def reading_generator(scene, rules, start):
            rules_generator = RuleBasedGenerator(scene, rules, start)

            def generate(request):
                contexts.append(request.system_context)
                assert request.system_context is contexts[-1]
                return rules_generator(request)

            return generate

        with mock.patch.object(cli, "RuleBasedGenerator", reading_generator):
            payload, _, rendered = self._plan(capsys, _large_dump_argv(tmp_path, self.OBJECTS))
        assert rendered == len(payload["steps"]) == len(contexts) == 4
        assert all(context.startswith(SYSTEM_PREAMBLE + "\n") for context in contexts)


class TestEvaluateCommand:
    @staticmethod
    def _write(path, records):
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )

    def test_identity_scores_max(self, capsys, tmp_path):
        preds = tmp_path / "pred.jsonl"
        refs = tmp_path / "ref.jsonl"
        rows = [
            {"scene_id": "s", "sample_id": 1, "text": "walk to the sink please"},
            {"scene_id": "s", "sample_id": 2, "text": "turn left at the stove now"},
        ]
        self._write(preds, rows)
        self._write(refs, rows)
        code, payload, _ = _run(
            capsys, ["evaluate", "--predictions", str(preds), "--references", str(refs)]
        )
        assert code == 0
        assert payload["bleu"] == [1.0, 1.0, 1.0, 1.0]
        assert payload["rouge_l"] == 1.0
        assert payload["pair_count"] == 2
        assert "variants" in payload

    def test_multi_reference_records(self, capsys, tmp_path):
        preds = tmp_path / "pred.jsonl"
        refs = tmp_path / "ref.jsonl"
        self._write(
            preds,
            [
                {"scene_id": "s", "sample_id": 1, "text": "walk to the sink"},
                {"scene_id": "s", "sample_id": 2, "text": "turn left twice"},
            ],
        )
        self._write(
            refs,
            [
                {
                    "scene_id": "s",
                    "sample_id": 1,
                    "texts": ["walk to the sink", "go to the sink"],
                },
                {"scene_id": "s", "sample_id": 2, "texts": ["turn left twice"]},
            ],
        )
        code, payload, _ = _run(
            capsys, ["evaluate", "--predictions", str(preds), "--references", str(refs)]
        )
        assert code == 0
        assert payload["rouge_l"] == 1.0

    def test_key_mismatch_fails(self, capsys, tmp_path):
        preds = tmp_path / "pred.jsonl"
        refs = tmp_path / "ref.jsonl"
        self._write(preds, [{"scene_id": "s", "sample_id": 1, "text": "a b c d"}])
        self._write(
            refs,
            [
                {"scene_id": "s", "sample_id": 1, "text": "a b c d"},
                {"scene_id": "s", "sample_id": 2, "text": "e f g h"},
            ],
        )
        code, _, err = _run(
            capsys, ["evaluate", "--predictions", str(preds), "--references", str(refs)]
        )
        assert code == 1
        assert "missing" in err and "('s', 2)" in err

    def test_duplicate_keys_rejected(self, capsys, tmp_path):
        preds = tmp_path / "pred.jsonl"
        refs = tmp_path / "ref.jsonl"
        row = {"scene_id": "s", "sample_id": 1, "text": "a b"}
        self._write(preds, [row, row])
        self._write(refs, [row])
        code, _, err = _run(
            capsys, ["evaluate", "--predictions", str(preds), "--references", str(refs)]
        )
        assert code == 1
        assert "duplicate key" in err

    def test_record_without_text_rejected(self, capsys, tmp_path):
        preds = tmp_path / "pred.jsonl"
        refs = tmp_path / "ref.jsonl"
        self._write(preds, [{"scene_id": "s", "sample_id": 1, "texts": ["a"]}])
        self._write(refs, [{"scene_id": "s", "sample_id": 1, "text": "a"}])
        code, _, err = _run(
            capsys, ["evaluate", "--predictions", str(preds), "--references", str(refs)]
        )
        assert code == 1
        assert "text field" in err


class TestGenPromptsCommand:
    def test_emits_prompts_and_file(self, capsys, tmp_path):
        out = tmp_path / "prompts.txt"
        code, payload, _ = _run(
            capsys,
            ["gen-prompts", "--scene", KITCHEN, "--n", "3", "--seed", "7", "--out", str(out)],
        )
        assert code == 0
        assert payload["n"] == 3
        assert len(payload["prompts"]) == 3
        text = out.read_text(encoding="utf-8")
        assert "=== PROMPT 1 ===" in text and "=== PROMPT 3 ===" in text

    def test_same_seed_same_prompts(self, capsys):
        argv = ["gen-prompts", "--scene", KITCHEN, "--n", "4", "--seed", "5"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_nonpositive_n_fails(self, capsys):
        code, _, err = _run(capsys, ["gen-prompts", "--scene", KITCHEN, "--n", "0"])
        assert code == 1
        assert "positive" in err


def _kitchen_with_text(tmp_path, old: str, new: str) -> str:
    """The kitchen scene file with its one ``old`` text replaced by ``new``, as written."""
    text = Path(KITCHEN).read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "scene.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


def _kitchen_with(tmp_path, **occupancy) -> str:
    data = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
    data["occupancy"].update(occupancy)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _lenient_scene(tmp_path) -> str:
    """The kitchen with strings and booleans where the schema says numbers."""
    data = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
    data["objects"][0]["centroid"] = ["0.5", True, " 0.5 "]
    data["occupancy"].update(cell_size="2", rows=True, blocked=[0, "no"])
    data["category_vocab_size"] = True
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _evaluate_argv(tmp_path, keys) -> list[str]:
    """Predictions and references with the same records, one per key."""
    path = tmp_path / "records.jsonl"
    path.write_text(
        "".join(
            json.dumps({"scene_id": scene_id, "sample_id": sample_id, "text": "walk to the sink"})
            + "\n"
            for scene_id, sample_id in keys
        ),
        encoding="utf-8",
    )
    return ["evaluate", "--predictions", str(path), "--references", str(path)]


def _deep_json(tmp_path, name: str) -> str:
    path = tmp_path / name
    path.write_text("[" * 100_000 + "\n", encoding="utf-8")
    return str(path)


def _dataset_with_scene_id(tmp_path, scene_id: str) -> list[str]:
    """A dataset whose one record names a scene file outside ``scenes/``."""
    records = build_clean_dataset(tmp_path)
    (tmp_path / "outside.json").write_text(
        (tmp_path / "scenes" / "kitchen-01.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    record = {**records[0], "scene_id": scene_id}
    (tmp_path / "triplets" / "train.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ["validate", str(tmp_path)]


def _blank_category_kitchen(path: Path) -> str:
    """Write the kitchen to ``path`` with its first object's category a single space."""
    data = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
    data["objects"][0]["category"] = " "
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _blank_category_dataset(tmp_path, command: str) -> list[str]:
    """A clean dataset whose kitchen scene has a whitespace-only category."""
    build_clean_dataset(tmp_path)
    _blank_category_kitchen(tmp_path / "scenes" / "kitchen-01.json")
    return [command, str(tmp_path)]


def _dataset_with_first_step(tmp_path, **fields) -> list[str]:
    """A clean dataset whose first record's first step has ``fields`` overwritten."""
    records = build_clean_dataset(tmp_path)
    records[0]["steps"][0].update(fields)
    with open(tmp_path / "triplets" / "train.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)
    return ["validate", str(tmp_path)]


def _far_apart_scene(tmp_path) -> str:
    """Four objects whose centroid differences square past the largest float."""
    objects = []
    for oid, (category, x) in enumerate(
        [("mug", -1.5e200), ("kettle", 1.5e200), ("sink", 0.0), ("tea", 1e199)]
    ):
        centroid = [x, 1e199, 0.0]
        objects.append({
            "id": oid, "category": category, "centroid": centroid,
            "aabb": {"min": centroid, "max": centroid},
        })
    occupancy = {
        "cell_size": 1e200, "origin": [-2e200, -2e200], "rows": 4, "cols": 4, "blocked": [0] * 16,
    }
    path = tmp_path / "scene.json"
    path.write_text(
        json.dumps({"scene_id": "far", "objects": objects, "occupancy": occupancy}),
        encoding="utf-8",
    )
    return str(path)


ROUTE_CHECK = ["route-check", "--triplets", str(FIXTURES / "triplets_valid.jsonl")]

# Inputs that once crashed a command or printed invalid JSON.
HOSTILE_INPUTS = {
    "occupancy-cell-size-null": lambda tmp: PLAN + ["--scene", _kitchen_with(tmp, cell_size=None)],
    "occupancy-origin-null": lambda tmp: PLAN + ["--scene", _kitchen_with(tmp, origin=[None, 0])],
    "occupancy-cell-size-huge-int": lambda tmp: PLAN
    + ["--scene", _kitchen_with(tmp, cell_size=10**400)],
    "scene-nested-too-deeply": lambda tmp: PLAN + ["--scene", _deep_json(tmp, "deep.json")],
    "occupancy-cell-size-string": lambda tmp: PLAN + ["--scene", _kitchen_with(tmp, cell_size="2")],
    "occupancy-rows-bool": lambda tmp: PLAN + ["--scene", _kitchen_with(tmp, rows=True)],
    "occupancy-flag-string": lambda tmp: PLAN
    + ["--scene", _kitchen_with(tmp, blocked=["no"] * 144)],
    "scene-numbers-as-strings-and-booleans": lambda tmp: PLAN + ["--scene", _lenient_scene(tmp)],
    "w-l-nan": lambda tmp: PLAN + ["--scene", KITCHEN, "--w-l", "nan", "--dump-graph"],
    "w-l-inf": lambda tmp: PLAN + ["--scene", KITCHEN, "--w-l", "inf", "--dump-graph"],
    "w-l-overflows-weights": lambda tmp: PLAN + ["--scene", KITCHEN, "--w-l", "1e300"],
    "w-l-overflows-weights-dump-graph": lambda tmp: PLAN
    + ["--scene", KITCHEN, "--w-l", "1e300", "--dump-graph"],
    "w-l-underflows-weights": lambda tmp: PLAN + ["--scene", KITCHEN, "--w-l", "1e-300"],
    "plan-start-x-inf": lambda tmp: PLAN
    + ["--scene", KITCHEN, "--start-x", "inf", "--start-y", "0"],
    "plan-start-y-nan": lambda tmp: PLAN
    + ["--scene", KITCHEN, "--start-x", "0", "--start-y", "nan"],
    "plan-llm-start-finite": lambda tmp: LLM_PLAN + ["--start-x", "1.0", "--start-y", "1.0"],
    "plan-llm-start-x-inf": lambda tmp: LLM_PLAN + ["--start-x", "inf", "--start-y", "0"],
    "plan-llm-start-heading": lambda tmp: LLM_PLAN + ["--start-heading", "90"],
    "route-check-start-x-inf": lambda tmp: ROUTE_CHECK
    + ["--scene", KITCHEN, "--start-x", "inf", "--start-y", "0"],
    "route-check-start-x-nan": lambda tmp: ROUTE_CHECK
    + ["--scene", KITCHEN, "--start-x", "nan", "--start-y", "0"],
    "evaluate-one-pair": lambda tmp: _evaluate_argv(tmp, [("s", 1)]),
    "evaluate-sample-id-list": lambda tmp: _evaluate_argv(tmp, [("s", [1]), ("s", 2)]),
    "evaluate-sample-id-bool": lambda tmp: _evaluate_argv(tmp, [("s", True), ("s", 2)]),
    "evaluate-scene-id-null": lambda tmp: _evaluate_argv(tmp, [(None, 1), ("s", 1)]),
    "evaluate-nested-too-deeply": lambda tmp: [
        "evaluate",
        "--predictions",
        _deep_json(tmp, "deep.jsonl"),
        "--references",
        _deep_json(tmp, "deep.jsonl"),
    ],
    "validate-scene-id-outside-dataset": lambda tmp: _dataset_with_scene_id(tmp, "../outside"),
    "plan-whitespace-category": lambda tmp: PLAN
    + ["--scene", _blank_category_kitchen(tmp / "scene.json")],
    "route-check-whitespace-category": lambda tmp: ROUTE_CHECK
    + ["--scene", _blank_category_kitchen(tmp / "scene.json")],
    "validate-whitespace-category": lambda tmp: _blank_category_dataset(tmp, "validate"),
    "stats-whitespace-category": lambda tmp: _blank_category_dataset(tmp, "stats"),
    "validate-step-index-bool": lambda tmp: _dataset_with_first_step(tmp, index=True),
    "validate-is-final-string": lambda tmp: _dataset_with_first_step(tmp, is_final="false"),
    # json.loads raises a plain ValueError for it, not a JSONDecodeError.
    "plan-integer-beyond-digit-limit": lambda tmp: PLAN + ["--scene", _kitchen_with_text(
        tmp, '"cell_size": 0.5', '"cell_size": ' + "9" * (sys.get_int_max_str_digits() + 1)
    )],
    # classify_relation's distance overflows to inf, which JSON cannot hold.
    "plan-dump-graph-distance-overflows": lambda tmp: [
        "plan", "--scene", _far_apart_scene(tmp), "--instruction", "a cup of tea would be lovely",
        "--k", "2", "--dump-graph",
    ],
}
# The whole stderr of the cases whose message is pinned.
HOSTILE_ERRORS = {
    "plan-dump-graph-distance-overflows":
        "error: Out of range float values are not JSON compliant: inf\n",
}


class TestHostileInputs:
    @pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
    def test_fails_with_one_error_line(self, capsys, tmp_path, case):
        argv = HOSTILE_INPUTS[case](tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        if case in HOSTILE_ERRORS:
            assert captured.err == HOSTILE_ERRORS[case]

    def test_integer_beyond_digit_limit_drops_only_its_triplet_line(self, capsys, tmp_path):
        first = (FIXTURES / "triplets_valid.jsonl").read_text(encoding="utf-8").split("\n")[0]
        huge = "9" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "huge.jsonl"
        path.write_text(f'{first}\n{{"scene_id": {huge}}}\n', encoding="utf-8")
        code, payload, err = _run(
            capsys, ["route-check", "--scene", KITCHEN, "--triplets", str(path)]
        )
        assert (code, len(payload["routes"])) == (0, 1)
        assert err.startswith("line 2: syntax: Exceeds the limit")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [PLAN, ROUTE_CHECK], ids=["plan", "route-check"])
    @pytest.mark.parametrize("x,y", [("1e308", "0"), ("-1e308", "1e308")])
    def test_far_start_keeps_the_contract(self, capsys, command, x, y):
        code = main(command + ["--scene", KITCHEN, f"--start-x={x}", f"--start-y={y}"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "Traceback" not in captured.err
        if captured.out:
            json.loads(captured.out)

    @pytest.mark.parametrize("command", [PLAN, ROUTE_CHECK], ids=["plan", "route-check"])
    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+0", "-0.5", "-inf"])
    def test_negative_start_value_may_be_a_separate_argument(self, capsys, command, value):
        """``--start-y -1e-3`` runs as ``--start-y=-1e-3`` does, on either flag."""
        argv = command + ["--scene", KITCHEN, "--start-heading", "90"]
        for flag, other in (("--start-x", "--start-y=0.5"), ("--start-y", "--start-x=0.5")):
            joined = main(argv + [other, f"{flag}={value}"]), capsys.readouterr()
            separate = main(argv + [other, flag, value]), capsys.readouterr()
            assert separate == joined
            assert "usage:" not in joined[1].err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--instruction", "make tea"],
            PLAN + ["--scene", KITCHEN, "--k", "abc"],
            ["no-such-command"],
            [],
        ],
        ids=["missing-required", "not-an-int", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_1_with_argparse_message(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "error: " in captured.err

    def test_help_exits_0(self, capsys):
        assert main(["plan", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it for every call."""

    def test_calls_in_one_process_match_fresh_calls(self, capsys, monkeypatch, golden_corpus_files):
        route_check = ["route-check", "--scene", KITCHEN, "--triplets",
                       str(FIXTURES / "triplets_valid.jsonl")]
        evaluate = ["evaluate", "--predictions", f"{golden_corpus_files}/predictions.jsonl",
                    "--references", f"{golden_corpus_files}/references.jsonl"]
        calls = [
            (COFFEE_PLAN + ["--dump-graph", "--k", "4"], "plan_dump_graph_kitchen_k4"),
            (["plan", "--instruction", "make tea", "--k", "abc"], None),
            (["--help"], None),
            (COFFEE_PLAN, None),
            (route_check, "route_check_kitchen"),
            (evaluate, "evaluate_golden_corpus"),
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv, _ in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        for (argv, golden), expected in zip(calls, fresh):
            got = run(argv)
            assert got == expected, argv
            if golden is not None:
                assert got[1] == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")
        assert len(built) == 1
        # Sanity of the sequence: the usage error and --help really were
        # those, and a flag of the first call did not carry into the plain plan.
        assert [code for code, _, _ in fresh] == [0, 1, 0, 0, 0, 0]
        assert fresh[1][2].startswith("usage: ") and fresh[2][1].startswith("usage: ")
        plain = json.loads(fresh[3][1])
        assert "graph_snapshots" not in plain
        assert vars(cli._parser().parse_args(COFFEE_PLAN)) == vars(build_parser().parse_args(COFFEE_PLAN))

    def test_a_rebound_command_runs(self, capsys, monkeypatch):
        main(["--help"])  # the parser exists before the command is rebound
        capsys.readouterr()
        seen = []

        def traced_cmd_plan(args):
            seen.append(args.k)
            return 0

        monkeypatch.setattr(cli, "cmd_plan", traced_cmd_plan)
        assert main(COFFEE_PLAN + ["--k", "3"]) == 0
        assert seen == [3]
        assert capsys.readouterr().out == ""

    def test_import_builds_no_parser(self):
        done = run_python(
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import sceneplan.cli as cli\n"
            "print(len(built))\n"
            "cli._parser()\n"
            "print(len(built))\n"
        )
        at_import, after_first_use = map(int, done.stdout.split())
        assert at_import == 0
        assert after_first_use > 0  # the counter sees the parser when it is built


@pytest.fixture()
def restored_collector():
    """Leave the cyclic collector as the test found it, even when the test fails."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("restored_collector")
class TestCollectorPause:
    """``main`` runs a command with the cyclic collector paused, then restores it as found."""

    OUTCOMES = {
        "success": (COFFEE_PLAN, 0),
        "handled-error": (PLAN + ["--scene", str(FIXTURES / "no-such-scene.json")], 1),
        "usage-error": (PLAN, 1),
    }

    def test_the_command_runs_with_the_collector_paused(self, monkeypatch):
        seen = []

        def traced_cmd_stats(args):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setattr(cli, "cmd_stats", traced_cmd_stats)
        gc.enable()
        assert main(["stats", "unused"]) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize("argv, code", OUTCOMES.values(), ids=OUTCOMES)
    def test_the_collector_ends_as_the_caller_left_it(self, capsys, argv, code, enabled):
        threshold = gc.get_threshold()
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is enabled
        assert gc.get_threshold() == threshold

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    def test_an_exception_escaping_main_restores_the_collector(self, monkeypatch, enabled):
        def failing_cmd_stats(args):
            raise RuntimeError("not one of the errors main reports")

        monkeypatch.setattr(cli, "cmd_stats", failing_cmd_stats)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="not one of the errors"):
            main(["stats", "unused"])
        assert gc.isenabled() is enabled

    def test_importing_the_cli_leaves_the_collector_on(self):
        assert run_python("import gc, sceneplan.cli\nprint(gc.isenabled())").stdout == "True\n"


def _garbage_after(argv: list[str]) -> int:
    """How many unreachable objects ``gc.collect()`` frees right after ``main(argv)`` exits 0."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    return gc.collect()


def _evaluate_corpus_argv(tmp_path: Path, count: int) -> list[str]:
    """``evaluate`` argv on ``count`` pairs of varied texts, three references each."""
    rng = random.Random(count)
    words = "walk to the sink kettle turn left right and pick up a mug from stove".split()

    def text() -> str:
        return " ".join(rng.choices(words, k=12))

    def write(name: str, field: str, value) -> str:
        path = tmp_path / f"{name}-{count}.jsonl"
        path.write_text("".join(
            json.dumps({"scene_id": "s", "sample_id": i, field: value()}) + "\n"
            for i in range(count)
        ), encoding="utf-8")
        return str(path)

    return ["evaluate", "--predictions", write("predictions", "text", text),
            "--references", write("references", "texts", lambda: [text() for _ in range(3)])]


class TestCollectorPauseIsSafe:
    """A command leaves no more cyclic garbage on a large input than on a small one.

    While ``main`` pauses the collector, a reference cycle made per object,
    sample, pair, prompt or step would pile up until the command returns.
    Each case first runs the small input once, which builds the parser and
    imports what the command uses, then counts what ``gc.collect()`` frees
    after the small and after the large input.  The count itself is not
    pinned: before Python 3.13 the standard library's indenting JSON
    encoder leaves its closures in a cycle, and from 3.13 nothing is left.
    """

    @staticmethod
    def _argvs(case: str, tmp_path: Path) -> tuple[list[str], list[str]]:
        if case == "plan":
            return COFFEE_PLAN, _large_dump_argv(tmp_path, 1000)
        if case in ("validate", "stats"):
            for count in (1, 18):
                build_clean_dataset(tmp_path / str(count), count)
            return [case, str(tmp_path / "1")], [case, str(tmp_path / "18")]
        if case == "evaluate":
            return _evaluate_corpus_argv(tmp_path, 2), _evaluate_corpus_argv(tmp_path, 100)
        gen_prompts = ["gen-prompts", "--scene", KITCHEN, "--n"]
        return gen_prompts + ["2"], gen_prompts + ["50"]

    @pytest.mark.parametrize("case", ["plan", "validate", "stats", "evaluate", "gen-prompts"])
    def test_garbage_does_not_grow_with_the_input(self, tmp_path, case):
        small, large = self._argvs(case, tmp_path)
        _garbage_after(small)
        assert _garbage_after(small) == _garbage_after(large)

    def test_llm_episodes_of_2_and_8_steps_leave_the_same_garbage(self, monkeypatch):
        monkeypatch.setenv("SHARP_API_KEY", "test-key")

        def replies(steps: int) -> list[dict]:
            return [{"text": f"Step {i}: walk to the kettle."} for i in range(1, steps)] + [
                {"text": f"Step {steps}: pick up the kettle. {END_TOKEN}"}
            ]

        # One endpoint for every call: a new one would leave its own
        # handler class behind, counted after whichever call came next.
        with StubEndpoint() as stub:
            argv = COFFEE_PLAN + ["--backend", "llm", "--endpoint", stub.base_url, "--model", "m"]
            counts = []
            for steps in (2, 2, 8):
                stub.responses = replies(steps)
                counts.append(_garbage_after(argv))
            assert len(stub.requests) == 12
        assert counts[1] == counts[2]


_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=4,
) | st.sampled_from([10**400, -1.0, 0.0, [None, 0]])
_BROKEN = object()  # stands for a line that is not JSON at all
_TEXTS = st.text(alphabet="ab .'!", max_size=12)


@st.composite
def _occupancy_blocks(draw) -> dict:
    """A grid that covers the kitchen, then up to two fields replaced or dropped."""
    rows, cols = draw(st.integers(10, 14)), draw(st.integers(10, 14))
    block = {
        "cell_size": draw(st.floats(0.7, 1.0)),
        "origin": draw(st.lists(st.floats(-3.0, -2.0), min_size=2, max_size=2)),
        "rows": rows,
        "cols": cols,
        "blocked": draw(
            st.lists(st.sampled_from([0] * 7 + [1]), min_size=rows * cols, max_size=rows * cols)
        ),
    }
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(sorted(block)))
        if draw(st.booleans()):
            block[field] = draw(_JUNK)
        else:
            del block[field]
    return block


@st.composite
def _evaluate_files(draw) -> tuple[str, str]:
    """Matching prediction and reference files, then up to two records spoiled."""
    key = st.tuples(st.sampled_from(["s", "t"]), st.integers(0, 2))
    keys = draw(st.lists(key, min_size=1, max_size=4, unique=True))
    predictions = [{"scene_id": s, "sample_id": i, "text": draw(_TEXTS)} for s, i in keys]
    references = [
        {"scene_id": s, "sample_id": i, "texts": draw(st.lists(_TEXTS, min_size=1, max_size=2))}
        for s, i in keys
    ]
    for _ in range(draw(st.integers(0, 2))):
        records = draw(st.sampled_from([predictions, references]))
        index = draw(st.integers(0, len(records) - 1))
        field = draw(st.sampled_from(["scene_id", "sample_id", "text", "texts", None]))
        if field is None:
            records[index] = draw(_JUNK | st.just(_BROKEN))
        elif isinstance(records[index], dict):
            records[index] = {**records[index], field: draw(_JUNK)}
    return tuple(
        "".join(("{" if r is _BROKEN else json.dumps(r)) + "\n" for r in records)
        for records in (predictions, references)
    )


def _spoil(draw, value):
    """``value`` with one subtree, picked at random depth, replaced by junk or removed."""
    if not isinstance(value, (dict, list)) or not value or draw(st.integers(0, 3)) == 0:
        return draw(_JUNK)
    copy = dict(value) if isinstance(value, dict) else list(value)
    key = draw(st.sampled_from(sorted(copy) if isinstance(copy, dict) else range(len(copy))))
    if draw(st.integers(0, 3)) == 0:
        del copy[key]
    else:
        copy[key] = _spoil(draw, copy[key])
    return copy


# Non-empty category strings that name no word; each once hung mention matching.
_BLANK_CATEGORIES = st.sampled_from([" ", "\t", "\u00a0"])


def _spoil_objects(draw, objects):
    """``objects`` spoiled by ``_spoil``, or with one object's category made blank."""
    if isinstance(objects, list) and objects and draw(st.integers(0, 3)) == 0:
        index = draw(st.integers(0, len(objects) - 1))
        if isinstance(objects[index], dict):
            copy = list(objects)
            copy[index] = {**objects[index], "category": draw(_BLANK_CATEGORIES)}
            return copy
    return _spoil(draw, objects)


@st.composite
def _route_check_files(draw) -> tuple[str, str]:
    """The kitchen and its valid triplets, then up to two objects and two records spoiled."""
    scene = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(0, 2))):
        scene["objects"] = _spoil_objects(draw, scene["objects"])
    records = [
        json.loads(line)
        for line in (FIXTURES / "triplets_valid.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(records) - 1))
        if draw(st.integers(0, 3)) == 0:
            records[index] = _BROKEN
        elif records[index] is not _BROKEN:
            records[index] = _spoil(draw, records[index])
    triplets = "".join(("{" if r is _BROKEN else json.dumps(r)) + "\n" for r in records)
    return json.dumps(scene), triplets


@functools.cache
def _clean_records() -> tuple[str, ...]:
    """A small clean dataset's records, as JSON lines, built once."""
    with tempfile.TemporaryDirectory() as tmp:
        return tuple(json.dumps(r) for r in build_clean_dataset(Path(tmp), count=4))


@st.composite
def _validate_files(draw) -> tuple[str, str]:
    """The kitchen and a clean dataset on it, then up to two objects and two records spoiled."""
    scene = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
    # A spoiled scene usually fails to load, so most examples keep it whole
    # and reach the records.
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        scene["objects"] = _spoil_objects(draw, scene["objects"])
    records = [json.loads(line) for line in _clean_records()]
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(records) - 1))
        if draw(st.integers(0, 3)) == 0:
            records[index] = _BROKEN
        elif records[index] is not _BROKEN:
            records[index] = _spoil(draw, records[index])
    triplets = "".join(("{" if r is _BROKEN else json.dumps(r)) + "\n" for r in records)
    return json.dumps(scene), triplets


def _run_isolated(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


class TestFuzzedInputs:
    """Fuzzed files keep the contract: exit 0 with one JSON document, or exit 1."""

    @staticmethod
    def _check(code: int, out: str, err: str) -> None:
        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(block=_occupancy_blocks())
    def test_plan_on_fuzzed_occupancy(self, block):
        data = json.loads(Path(KITCHEN).read_text(encoding="utf-8"))
        data["occupancy"] = block
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene.json"
            scene.write_text(json.dumps(data), encoding="utf-8")
            self._check(*_run_isolated(PLAN + ["--scene", str(scene), "--dump-graph"]))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(files=_route_check_files())
    def test_route_check_on_fuzzed_objects_and_records(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene.json"
            triplets = Path(tmp) / "triplets.jsonl"
            scene.write_text(files[0], encoding="utf-8")
            triplets.write_text(files[1], encoding="utf-8")
            code, out, err = _run_isolated(
                ["route-check", "--scene", str(scene), "--triplets", str(triplets)]
            )
        # A route that fails its check exits 1 with its report on stdout.
        assert code in (0, 1)
        assert "Traceback" not in err
        if out:
            json.loads(out, parse_constant=_reject_constant)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(files=_validate_files())
    def test_validate_on_fuzzed_records(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "scenes").mkdir()
            (Path(tmp) / "triplets").mkdir()
            (Path(tmp) / "scenes" / "kitchen-01.json").write_text(files[0], encoding="utf-8")
            (Path(tmp) / "triplets" / "train.jsonl").write_text(files[1], encoding="utf-8")
            code, out, err = _run_isolated(["validate", tmp])
        # Hard findings exit 1 with the findings report on stdout.
        assert code in (0, 1)
        assert "Traceback" not in err
        if out:
            json.loads(out, parse_constant=_reject_constant)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(files=_evaluate_files())
    def test_evaluate_on_fuzzed_records(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            preds = Path(tmp) / "pred.jsonl"
            refs = Path(tmp) / "ref.jsonl"
            preds.write_text(files[0], encoding="utf-8")
            refs.write_text(files[1], encoding="utf-8")
            self._check(
                *_run_isolated(["evaluate", "--predictions", str(preds), "--references", str(refs)])
            )


# Heading 0 faces +y and a left turn adds 90 degrees; "walk forward"
# advances 1 m along the heading, through furniture and walls alike.
_FORWARD = {0: (0.0, 1.0), 90: (-1.0, 0.0), 180: (0.0, -1.0), 270: (1.0, 0.0)}
_TURNS = {"Turn 90 degrees left": 90, "Turn 90 degrees right": -90}
_STEP_FORMS = (
    "Walk to the {}.",
    "Walk forward and walk to the {}.",
    "Turn 90 degrees left and walk forward and walk to the {}.",
    "Turn 90 degrees right and walk forward and walk forward and walk to the {}.",
)


@st.composite
def _route_worlds(draw) -> tuple[dict, list[dict], tuple[float, float, int]]:
    """A grid scene split by a wall, two or more crates in it, triplets and a start pose.

    Each step names one target, after turns and 1 m moves that can leave the
    pose inside furniture or across the wall.  Crates on either side of the
    wall make the nearest crate, and whether it is reachable, change along a
    route.
    """
    rows, cols = draw(st.integers(6, 12)), draw(st.integers(6, 12))
    cell = 0.5
    n = rows * cols
    flags = draw(st.lists(st.sampled_from([0] * 6 + [1]), min_size=n, max_size=n))
    gap = draw(st.none() | st.integers(0, max(rows, cols) - 1))
    if draw(st.booleans()):
        wall = draw(st.integers(1, cols - 2))
        for row in range(rows):
            flags[row * cols + wall] = int(row != gap)
    else:
        wall = draw(st.integers(1, rows - 2))
        for col in range(cols):
            flags[wall * cols + col] = int(col != gap)
    objects = []
    for oid in range(draw(st.integers(2, 4))):
        category = "crate" if oid < 2 else draw(st.sampled_from(["crate", "barrel"]))
        height, width = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        r0, c0 = draw(st.integers(0, rows - height)), draw(st.integers(0, cols - width))
        for row in range(r0, r0 + height):
            for col in range(c0, c0 + width):
                flags[row * cols + col] = 1
        low = [c0 * cell + 0.1, r0 * cell + 0.1]
        high = [(c0 + width) * cell - 0.1, (r0 + height) * cell - 0.1]
        objects.append({
            "id": oid,
            "category": category,
            "centroid": [(low[0] + high[0]) / 2, (low[1] + high[1]) / 2, 0.4],
            "aabb": {"min": low + [0.0], "max": high + [0.8]},
        })
    scene = {
        "scene_id": "walled",
        "objects": objects,
        "occupancy": {
            "cell_size": cell, "origin": [0.0, 0.0], "rows": rows, "cols": cols, "blocked": flags,
        },
    }
    categories = sorted({obj["category"] for obj in objects})
    records = []
    for _ in range(draw(st.integers(1, 4))):
        texts = draw(st.lists(
            st.builds(str.format, st.sampled_from(_STEP_FORMS), st.sampled_from(categories)),
            min_size=1, max_size=4,
        ))
        records.append({
            "scene_id": "walled",
            "instruction": "tidy up",
            "activity": "tidy up the room",
            "steps": [
                {"index": i, "text": text, "is_final": i == len(texts)}
                for i, text in enumerate(texts, 1)
            ],
        })
    x = draw(st.floats(-0.5, cols * cell + 0.5))
    y = draw(st.floats(-0.5, rows * cell + 0.5))
    heading = draw(st.sampled_from(sorted(_FORWARD)))
    return scene, records, (x, y, heading)


class TestRouteCheckAgainstOracles:
    """``route-check`` verdicts and start cells, recomputed from the oracles alone."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(world=_route_worlds())
    def test_verdicts_and_start_cells_match_the_oracles(self, world):
        scene_data, records, (x, y, start_heading) = world
        judged = []
        real_nearest_free_cell = route.nearest_free_cell

        def recording_nearest_free_cell(grid, position):
            cell = real_nearest_free_cell(grid, position)
            judged.append((position, cell))
            return cell

        with tempfile.TemporaryDirectory() as tmp:
            scene_path = Path(tmp) / "scene.json"
            triplets = Path(tmp) / "triplets.jsonl"
            scene_path.write_text(json.dumps(scene_data), encoding="utf-8")
            triplets.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            with mock.patch.object(route, "nearest_free_cell", recording_nearest_free_cell):
                code, out, _ = _run_isolated(
                    ["route-check", "--scene", str(scene_path), "--triplets", str(triplets),
                     f"--start-x={x!r}", f"--start-y={y!r}", f"--start-heading={start_heading}"]
                )
            # A scene no command has touched: no memo, no component labels.
            fresh = load_scene(scene_path)
        grid = fresh.occupancy
        free = {
            (row, col)
            for row in range(grid.rows)
            for col in range(grid.cols)
            if not grid.blocked[row * grid.cols + col]
        }
        payload = json.loads(out)
        expected_judged = []
        all_ok = True
        assert len(payload["routes"]) == len(records)
        for route_out, record in zip(payload["routes"], records):
            pose, heading = (x, y), start_heading
            assert len(route_out["reports"]) == len(record["steps"])
            for report, step in zip(route_out["reports"], record["steps"]):
                *moves, walk_to = step["text"].rstrip(".").split(" and ")
                for move in moves:
                    if move in _TURNS:
                        heading = (heading + _TURNS[move]) % 360
                    else:
                        dx, dy = _FORWARD[heading]
                        pose = (pose[0] + dx, pose[1] + dy)
                category = walk_to.split()[-1]  # "crate" or "barrel"
                target = min(
                    (obj for obj in fresh.objects if obj.category == category),
                    key=lambda obj: (math.dist(pose, obj.centroid[:2]), obj.id),
                )
                # The pose's cell, clamped to the grid, whose origin is (0, 0).
                col = int(min(max(pose[0] / grid.cell_size, 0), grid.cols - 1))
                row = int(min(max(pose[1] / grid.cell_size, 0), grid.rows - 1))
                start_cell = (row, col)
                if start_cell not in free:
                    start_cell = oracle_nearest_free_cell(grid, pose)
                    expected_judged.append((pose, start_cell))
                goals = adjacent_free_cells(grid, target.aabb)
                unreachable = (
                    start_cell is None or oracle_bfs_length(free, start_cell, goals) is None
                )
                assert report["verdict"] == ("unreachable-target" if unreachable else "ok"), (
                    step["text"], pose, start_cell, target.id
                )
                assert report["final_pose"]["heading"] == heading
                if unreachable:
                    # The pose stays where the check failed.
                    assert tuple(report["final_pose"]["position"]) == pose
                all_ok = all_ok and not unreachable
                pose = tuple(report["final_pose"]["position"])
        assert judged == expected_judged
        assert (code, payload["all_ok"]) == ((0, True) if all_ok else (1, False))


# Categories with duplicates across objects, multi-word names that contain
# another category ("kitchen counter", "counter"), and plural names beside
# their singular ("glass", "glasses").
_PLAN_CATEGORIES = (
    "mug", "glass", "glasses", "box", "counter", "kitchen counter", "trash can", "lamp",
)
# Step words: fillers, every category word, plural and capitalized forms.
_PLAN_WORDS = (
    "walk", "to", "the", "and", "pick", "up", "near", "then", "it",
    "mug", "mugs", "Mug", "glass", "glasses", "box", "boxes", "counter", "counters",
    "kitchen", "Kitchen", "trash", "can", "cans", "lamp", "lamps",
)


@st.composite
def _plan_worlds(draw) -> tuple[dict, int, float, int, list[str], bool]:
    """A scene, ``k``, ``w_l``, ``max_steps``, the step texts, and whether the last one ends.

    Centroids sit on a half-meter lattice, so distance ties are common, and
    object ids are neither contiguous nor in file order.  ``k`` often
    reaches ``n - 1``.  The episode has one step per text: the last reply
    carries ``[END]``, or there are ``max_steps`` texts and the cap ends it.
    """
    n = draw(st.integers(1, 7))
    ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    objects = []
    for oid in ids:
        centroid = [0.5 * draw(st.integers(0, 3)) for _ in range(3)]
        objects.append({
            "id": oid,
            "category": draw(st.sampled_from(_PLAN_CATEGORIES)),
            "centroid": centroid,
            "aabb": {"min": [c - 0.1 for c in centroid], "max": [c + 0.1 for c in centroid]},
        })
    # One scene id for every example: a cache keyed by it would leak across scenes.
    scene = {"scene_id": "generated", "objects": objects}
    k = draw(st.integers(1, 5))
    w_l = draw(st.sampled_from([0.5, 1.5, 2.0, 3.0]))
    max_steps = draw(st.integers(1, 4))
    ends = draw(st.booleans())
    count = draw(st.integers(1, max_steps)) if ends else max_steps
    texts = [" ".join(draw(st.lists(st.sampled_from(_PLAN_WORDS), max_size=8)))
             for _ in range(count)]
    return scene, k, w_l, max_steps, texts, ends


class TestPlanAgainstOracles:
    """``plan --dump-graph`` recomputed step by step from ``tests/oracles.py``."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(world=_plan_worlds())
    def test_episode_snapshots_and_prompts_match_the_oracles(self, world):
        scene_data, k, w_l, max_steps, texts, ends = world
        requests = []

        def recording_generator(scene, rules, start):
            """Stands in for the rules backend: records each request, replies from ``texts``."""

            def generate(request):
                requests.append(request)
                step = request.step_index
                header = "Plan. " if step == 1 else ""
                end = f" {END_TOKEN}" if ends and step == len(texts) else ""
                return f"{header}Step {step}: {texts[step - 1]}{end}"

            return generate

        with tempfile.TemporaryDirectory() as tmp:
            scene_path = Path(tmp) / "scene.json"
            scene_path.write_text(json.dumps(scene_data), encoding="utf-8")
            with mock.patch.object(cli, "RuleBasedGenerator", recording_generator):
                code, out, err = _run_isolated(
                    ["plan", "--scene", str(scene_path), "--instruction", "help me",
                     "--dump-graph", "--k", str(k), f"--w-l={w_l!r}", f"--max-steps={max_steps}"]
                )
            objects = load_scene(scene_path).objects
        assert (code, err) == (0, "")
        payload = json.loads(out)
        by_id = {obj.id: obj for obj in objects}
        categories = {obj.category for obj in objects}
        knn = oracle_knn({obj.id: obj.centroid for obj in objects}, k)
        node_weights = dict.fromkeys(sorted(by_id), 1.0)
        edge_weights = {(i, j): 1.0 for i in sorted(knn) for j in sorted(knn[i])}
        steps, modulations = payload["steps"], payload["modulations"]
        assert payload["activity"] == "Plan."
        assert payload["terminated_by"] == ("end-token" if ends else "step-cap")
        assert [s["text"] for s in steps] == texts
        assert len(requests) == len(steps) == len(modulations) == len(payload["graph_snapshots"])
        for index, (step, modulation, request, snapshot) in enumerate(
            zip(steps, modulations, requests, payload["graph_snapshots"]), start=1
        ):
            assert request.step_index == step["index"] == modulation["step_index"] == index
            # The prompt shows the weights that the steps before this one left.
            assert request.system_context == (
                SYSTEM_PREAMBLE + "\n" + oracle_serialize_for_prompt(objects, k, node_weights)
            )
            named = {c for _, c in oracle_find_category_spans(step["text"], categories)}
            mentioned = sorted(i for i in by_id if by_id[i].category in named)
            assert step["object_ids"] == modulation["mentioned_ids"] == mentioned
            nodes, edges = oracle_modulated_sets(set(mentioned), knn)
            assert modulation["touched_nodes"] == sorted(nodes)
            assert modulation["touched_edges_count"] == len(edges)
            for i in nodes:
                node_weights[i] *= w_l
            for edge in edges:
                edge_weights[edge] *= w_l
            # Each snapshot is the graph after this step's modulation.
            assert snapshot["k"] == k
            assert snapshot["nodes"] == [
                {"id": i, "category": by_id[i].category, "weight": weight}
                for i, weight in node_weights.items()
            ]
            expected_edges = []
            for (i, j), weight in edge_weights.items():
                kind, distance = classify_relation(by_id[i], by_id[j])
                expected_edges.append(
                    {"src": i, "dst": j, "kind": kind, "weight": weight, "distance": distance}
                )
            assert snapshot["edges"] == expected_edges
