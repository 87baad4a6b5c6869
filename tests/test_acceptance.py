"""Acceptance gate: one test per release criterion.

Each test announces its criterion and outcome straight to the terminal
(bypassing capture) so a plain pytest run shows one line per criterion.
All numeric comparisons are against independent oracle implementations
or exact rational arithmetic, never against the code under test.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from sceneplan.cli import main
from sceneplan.dataset import compute_stats, load_dataset
from sceneplan.engine import END_TOKEN, GeneratorRequest, render_history_prompt, run_episode
from sceneplan.generators import (
    AuthError,
    LlmClient,
    MalformedReplyError,
)
from sceneplan.graph import build_graph, knn_ids, modulate
from sceneplan.metrics import evaluate_pairs, pair_from_text
from sceneplan.route import (
    AgentPose,
    RouteClause,
    RouteError,
    UnreachableTargetError,
    adjacent_free_cells,
    apply_clause,
    clauses_to_text,
    default_start_pose,
    footprint_cells,
    parse_route,
    plan_route,
    shortest_cell_path,
    verify_route,
)
from tests.conftest import (
    FIXTURES,
    make_random_grid_scene,
    make_random_scene,
    scripted_generator,
)
from tests.dataset_builder import build_faulty_dataset
from tests.oracles import oracle_bfs_length, oracle_knn, oracle_modulated_sets
from tests.test_generators import StubEndpoint

TOL = 1e-9
KITCHEN = str(FIXTURES / "kitchen.json")


@pytest.fixture()
def announce(capsys):
    """Context manager printing '[acceptance] <criterion>: PASS|FAIL'."""

    @contextmanager
    def gate(criterion: str):
        outcome = "FAIL"
        try:
            yield
            outcome = "PASS"
        finally:
            with capsys.disabled():
                print(f"\n[acceptance] {criterion}: {outcome}")

    return gate


def test_metrics_reproduce_the_golden_corpus(announce):
    with announce("text metrics match frozen golden scores within 1e-9 in under 1s"):
        golden = json.loads((FIXTURES / "golden_corpus.json").read_text(encoding="utf-8"))
        pairs = [pair_from_text(e["candidate"], e["references"]) for e in golden["pairs"]]
        started = time.perf_counter()
        report = evaluate_pairs(pairs)
        elapsed = time.perf_counter() - started
        expected = golden["expected"]
        for got, want in zip(report["bleu"], expected["bleu"]):
            assert got == pytest.approx(want, abs=TOL)
        assert report["rouge_l"] == pytest.approx(expected["rouge_l"], abs=TOL)
        assert report["meteor"] == pytest.approx(expected["meteor"], abs=TOL)
        assert report["cider"] == pytest.approx(expected["cider"], abs=TOL)
        assert elapsed < 1.0

        texts = [e["candidate"] for e in golden["pairs"]]
        identity = evaluate_pairs([pair_from_text(t, [t]) for t in texts])
        assert all(score == 1.0 for score in identity["bleu"])
        assert identity["rouge_l"] == 1.0
        disjoint = evaluate_pairs(
            [
                pair_from_text("alpha beta gamma delta", ["one two three four"]),
                pair_from_text("epsilon zeta eta theta", ["five six seven eight"]),
            ]
        )
        assert all(score == 0.0 for score in disjoint["bleu"])
        assert disjoint["rouge_l"] == 0.0
        assert disjoint["meteor"] == 0.0
        assert disjoint["cider"] == 0.0


def test_modulation_scales_exactly_the_mentioned_neighborhood(announce):
    with announce("graph modulation touches exactly node+KNN sets on 100 random scenes"):
        for seed in range(100):
            scene = make_random_scene(seed, n_objects=3 + seed % 12)
            graph = build_graph(scene)
            neighbors = knn_ids(scene, graph.k)
            rng = Random(seed)
            ids = sorted(graph.weights)
            mentioned = rng.sample(ids, rng.randint(1, min(3, len(ids))))
            touched_nodes, touched_edges = modulate(graph, mentioned, step_index=1)
            nodes, edges = oracle_modulated_sets(set(mentioned), neighbors)
            assert touched_nodes == nodes
            assert touched_edges == edges
            for node_id, weight in graph.weights.items():
                assert weight == (2.0 if node_id in nodes else 1.0)
            for src, out in graph.edges.items():
                for dst in out:
                    assert graph.edge_weights[src] == (2.0 if (src, dst) in edges else 1.0)
            modulate(graph, mentioned, w_l=1.0, step_index=2)
            for node_id, weight in graph.weights.items():
                assert weight == (2.0 if node_id in nodes else 1.0)


def test_knn_matches_brute_force(announce):
    with announce("KNN adjacency matches brute force on 200 scenes for k in {1,2,3,5}"):
        for seed in range(200):
            scene = make_random_scene(1000 + seed, n_objects=6 + seed % 10)
            centroids = {obj.id: obj.centroid for obj in scene.objects}
            for k in (1, 2, 3, 5):
                assert knn_ids(scene, k) == oracle_knn(centroids, k)


def test_progressive_prompting_contract(announce, kitchen):
    with announce("50 scripted episodes: verbatim history, end-marker stripping, 8-step cap"):
        categories = sorted(kitchen.categories())
        for episode_index in range(50):
            rng = Random(episode_index)
            planned = rng.randint(1, 11)
            ends = planned <= 8
            sentences = [
                f"Walk to the {rng.choice(categories)} and inspect it."
                for _ in range(planned)
            ]
            replies = []
            for number, sentence in enumerate(sentences, start=1):
                if number == 1:
                    raw = f"I will handle it, with the following steps: Step 1: {sentence}"
                else:
                    raw = f"Step {number}: {sentence}"
                if ends and number == planned:
                    raw += " [END]"
                replies.append(raw)
            scripted = scripted_generator(replies)
            requests: list[GeneratorRequest] = []

            def generator(request, _scripted=scripted, _requests=requests):
                _requests.append(request)
                return _scripted(request)

            graph = build_graph(kitchen)
            instruction = f"scripted request {episode_index}"
            episode = run_episode(kitchen, graph, instruction, generator)

            expected_steps = min(planned, 8)
            assert len(episode["steps"]) == expected_steps
            assert (episode["terminated_by"] == "end-token") == ends
            for i, step in enumerate(episode["steps"]):
                assert step["text"] == sentences[i]
                assert "[END]" not in step["text"]
            assert requests[0].user_prompt == instruction
            for i, request in enumerate(requests[1:], start=1):
                assert request.step_index == i + 1
                history = [{"index": j + 1, "text": sentences[j]} for j in range(i)]
                assert request.user_prompt == render_history_prompt(
                    instruction, history
                )


def test_routes_round_trip_on_random_grid_worlds(announce):
    with announce("100 random grid worlds: plan re-parses, verifies, lands adjacent, A*==BFS"):
        usable = 0
        seed = 0
        while usable < 100:
            assert seed < 500, "not enough reachable random worlds"
            scene = make_random_grid_scene(seed)
            seed += 1
            grid = scene.occupancy
            crate = scene.objects_by_id[0]
            try:
                start = default_start_pose(scene)
                clauses, end = plan_route(start, 0, scene)
            except (UnreachableTargetError, RouteError):
                continue  # sealed target or blocked start; criterion covers reachable ones
            usable += 1

            goals = adjacent_free_cells(grid, crate.aabb)
            start_cell = grid.cell_of(*start.position)
            free = {
                (row, col)
                for row in range(grid.rows)
                for col in range(grid.cols)
                if grid.is_free(row, col)
            }
            bfs = oracle_bfs_length(free, start_cell, goals)
            if start_cell in goals:
                assert bfs == 0
                assert clauses == [RouteClause("walk", target_category=crate.category)]
            else:
                path = shortest_cell_path(grid, start_cell, goals)
                assert path is not None
                assert len(path) - 1 == bfs

            text = clauses_to_text(clauses)
            assert parse_route(text) == clauses
            report = verify_route([{"index": 1, "text": text}], scene, start)[0]
            assert report["verdict"] == "ok", (scene.scene_id, text, report["detail"])

            pose = start
            for clause in clauses:
                pose = apply_clause(pose, clause, scene)
            assert end == pose
            landing = grid.cell_of(*pose.position)
            footprint = footprint_cells(grid, crate.aabb)
            neighborhood = {
                (row + dr, col + dc)
                for row, col in footprint
                for dr in (-1, 0, 1)
                for dc in (-1, 0, 1)
            }
            assert landing in neighborhood


def test_turn_algebra_is_exact(announce, kitchen):
    with announce("turn algebra holds for every heading, amount, and direction"):

        def turn(pose, degrees, direction):
            return apply_clause(
                pose, RouteClause("turn", degrees, direction), kitchen
            )

        for heading in (0, 90, 180, 270):
            pose = AgentPose(position=(0.25, 0.25), heading=heading)
            for degrees in (90, 180):
                for direction, sign in (("left", 1), ("right", -1)):
                    turned = turn(pose, degrees, direction)
                    assert turned.heading == (heading + sign * degrees) % 360
                    assert turned.position == pose.position
            full_circle = pose
            for _ in range(4):
                full_circle = turn(full_circle, 90, "left")
            assert full_circle == pose
            assert turn(turn(pose, 90, "left"), 90, "left") == turn(pose, 180, "left")
            assert turn(pose, 180, "left") == turn(pose, 180, "right")
            assert turn(turn(pose, 90, "left"), 90, "right") == pose
            assert turn(pose, 90, "right") == turn(
                turn(turn(pose, 90, "left"), 90, "left"), 90, "left"
            )


def test_validator_finds_exactly_the_injected_faults(announce, capsys, tmp_path):
    with announce("validator reports the 5 injected faults by kind; --strict gates exit"):
        plan = build_faulty_dataset(tmp_path)
        code = main(["validate", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 5
        found = {(f["sample_id"], f["kind"]) for f in payload["findings"]}
        assert found == set(plan["expected_kinds"].items())
        assert code == 1
        strict_code = main(["validate", str(tmp_path), "--strict"])
        capsys.readouterr()
        assert strict_code != 0


def test_stats_match_exact_rational_arithmetic(announce, tmp_path):
    with announce("corpus statistics agree with Fraction arithmetic within 1e-9"):
        plan = build_faulty_dataset(tmp_path / "data")
        samples, scenes = load_dataset(tmp_path / "data")
        stats = compute_stats(samples, scenes)
        records = plan["records"]
        n = len(records)

        mean_steps = Fraction(sum(len(r["steps"]) for r in records), n)
        assert abs(stats["mean_steps"] - mean_steps) <= TOL

        def words(record):
            return len(record["activity"].split()) + sum(
                len(step["text"].split()) for step in record["steps"]
            )

        mean_words = Fraction(sum(words(r) for r in records), n)
        assert abs(stats["mean_words"] - mean_words) <= TOL

        scene_ids = {r["scene_id"] for r in records}
        assert abs(stats["instructions_per_scene"] - Fraction(n, len(scene_ids))) <= TOL
        assert stats["sample_count"] == n
        assert stats["scene_count"] == len(scene_ids)

        histogram = Counter(str(len(r["steps"])) for r in records)
        assert set(stats["step_histogram"]) == set(histogram)
        for count, share in stats["step_histogram"].items():
            assert abs(share - Fraction(histogram[count], n)) <= TOL
        assert sum(stats["verb_histogram"].values()) > 0


def test_plan_output_is_byte_reproducible(announce, capsys):
    with announce("plan command emits byte-identical output across runs"):
        argv = [
            "plan",
            "--scene",
            KITCHEN,
            "--instruction",
            "the room is a dirty mess, please tidy it",
            "--dump-graph",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first
        assert first == second


def test_llm_client_survives_a_flaky_endpoint(announce, monkeypatch):
    with announce("llm client retries 5xx, fails fast on auth/malformed, caps concurrency at 4"):
        monkeypatch.setenv("SHARP_API_KEY", "acceptance-key")
        request = GeneratorRequest(system_context="ctx", user_prompt="go", step_index=1)

        def client_for(stub):
            return LlmClient(
                base_url=stub.base_url,
                model_name="stub-model",
                sleep=lambda _: None,
                rng=Random(0),
            )

        with StubEndpoint(
            [
                {"status": 500, "text": "err"},
                {"status": 503, "text": "err"},
                {"status": 200, "text": "Step 1: done. [END]"},
            ]
        ) as stub:
            reply = client_for(stub)(request)
            assert END_TOKEN in reply
            assert reply == "Step 1: done. " + END_TOKEN
            assert len(stub.requests) == 3

        with StubEndpoint([{"status": 401, "text": "denied"}]) as stub:
            with pytest.raises(AuthError):
                client_for(stub)(request)
            assert len(stub.requests) == 1

        with StubEndpoint([{"raw": "this is not json"}]) as stub:
            with pytest.raises(MalformedReplyError):
                client_for(stub)(request)

        with StubEndpoint(delay=0.05) as stub:
            client = client_for(stub)
            threads = [
                threading.Thread(target=lambda: client(request)) for _ in range(10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(stub.requests) == 10
            assert stub.max_in_flight <= 4
