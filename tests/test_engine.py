"""Progressive plan generation: prompts, termination, and graph modulation."""

from __future__ import annotations

import json
import math

import pytest

from sceneplan.engine import (
    END_TOKEN,
    EpisodeError,
    GeneratorRequest,
    detect_mentions,
    parse_activity_header,
    render_history_prompt,
    run_episode,
    strip_step_label,
)
from sceneplan.generators import RuleBasedGenerator
from sceneplan.graph import build_graph
from tests.conftest import make_random_scene, scripted_generator


def _recording(generator):
    requests: list[GeneratorRequest] = []

    def wrapped(request: GeneratorRequest):
        requests.append(request)
        return generator(request)

    return wrapped, requests


def _second_step(kitchen, raw: str, max_steps: int = 8):
    """The episode whose generator answers a plain step 1, then ``raw``."""
    script = ["Plan. Step 1: Walk to the sink.", raw]
    return run_episode(
        kitchen, build_graph(kitchen), "help", scripted_generator(script), max_steps=max_steps
    )


class TestReplyParsing:
    def test_run_episode_strips_all_end_tokens(self, kitchen):
        episode = _second_step(kitchen, f"Step 2: Turn left. {END_TOKEN}")
        assert episode["terminated_by"] == "end-token"
        assert episode["steps"][-1]["text"] == "Turn left."
        noisy = _second_step(kitchen, f"{END_TOKEN} done {END_TOKEN}")
        assert noisy["terminated_by"] == "end-token"
        assert noisy["steps"][-1]["text"] == "done"

    def test_reply_without_token(self, kitchen):
        episode = _second_step(kitchen, "  Step 3: walk.  ", max_steps=2)
        assert episode["terminated_by"] == "step-cap"
        assert episode["steps"][-1]["text"] == "walk."

    def test_end_token_mid_text_ends_the_episode(self, kitchen):
        episode = _second_step(kitchen, f"Step 2: Walk to the mug {END_TOKEN} and rinse it.")
        assert len(episode["steps"]) == 2 and episode["terminated_by"] == "end-token"
        # The token and the space after it go: one space stays between the words.
        assert episode["steps"][-1]["text"] == "Walk to the mug and rinse it."
        assert episode["steps"][-1]["object_ids"] == [2, 7]

    @pytest.mark.parametrize(
        "raw",
        [
            f"Step 2: Turn left. {END_TOKEN}",
            f"Step 2: Turn left.{END_TOKEN}",
            f"Step 2: Turn left.\n{END_TOKEN}\n",
            f"Step 2: Walk to the mug{END_TOKEN} and rinse it. {END_TOKEN}",
            f"{END_TOKEN} Step 2: done  {END_TOKEN}  ",
        ],
    )
    def test_token_at_the_end_of_a_reply_leaves_the_text_as_before(self, kitchen, raw):
        # What dropping every copy of the token gives, when none sits between two spaces.
        expected = strip_step_label(raw.replace(END_TOKEN, "").strip())
        assert _second_step(kitchen, raw)["steps"][-1]["text"] == expected

    def test_strip_step_label_variants(self):
        assert strip_step_label("Step 3: walk to the sink") == "walk to the sink"
        assert strip_step_label("step  12 :   go") == "go"
        assert strip_step_label("No label here") == "No label here"
        assert strip_step_label("Step 1: Step 2: nested") == "Step 2: nested"

    def test_parse_activity_header_with_marker(self):
        activity, stream = parse_activity_header(
            "I will make coffee. Step 1: Walk to the kettle."
        )
        assert activity == "I will make coffee."
        assert stream == "Step 1: Walk to the kettle."

    def test_parse_activity_header_without_marker(self):
        activity, stream = parse_activity_header("I will make coffee later.")
        assert activity == "I will make coffee later."
        assert stream == ""


class TestHistoryPrompt:
    def test_template_shape(self):
        steps = [
            {"index": 1, "text": "Walk to the kettle."},
            {"index": 2, "text": "Fill it at the sink."},
        ]
        prompt = render_history_prompt("I am tired", steps)
        assert prompt == (
            "Q: I am tired. You should answer based on these historical steps: "
            "Step 1: Walk to the kettle. Step 2: Fill it at the sink."
        )

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="history"):
            render_history_prompt("I am tired", [])


class TestMentionDetection:
    def test_all_instances_of_mentioned_categories(self, kitchen):
        ids = detect_mentions("Walk to the kitchen counter and grab the mug", kitchen)
        assert ids == [0, 2, 7]  # the counter plus both mugs

    def test_plural_and_case_insensitive(self, kitchen):
        assert detect_mentions("Wash the MUGS", kitchen) == [2, 7]

    def test_multiword_category_not_double_counted(self, kitchen):
        # "dining table" must not also register a bare-"table" category.
        assert detect_mentions("wipe the dining table", kitchen) == [10]

    def test_no_mentions(self, kitchen):
        assert detect_mentions("do nothing at all", kitchen) == []


class TestRunEpisode:
    def test_prompts_carry_full_history_verbatim(self, kitchen):
        graph = build_graph(kitchen)
        script = [
            "I will help. Step 1: Walk to the kettle.",
            "Step 2: Fill the kettle at the sink.",
            f"Step 3: Boil the water on the stove. {END_TOKEN}",
        ]
        generator, requests = _recording(scripted_generator(script))
        episode = run_episode(kitchen, graph, "I am tired", generator)
        assert requests[0].user_prompt == "I am tired"
        for s, request in enumerate(requests[1:], start=2):
            expected = render_history_prompt("I am tired", episode["steps"][: s - 1])
            assert request.user_prompt == expected
            for prior in episode["steps"][: s - 1]:
                assert prior["text"] in request.user_prompt

    def test_end_token_terminates_and_marks_final(self, kitchen):
        graph = build_graph(kitchen)
        script = [
            "Plan. Step 1: Walk to the sink.",
            f"Step 2: Done. {END_TOKEN}",
            "Step 3: never requested",
        ]
        episode = run_episode(kitchen, build_graph(kitchen), "help", scripted_generator(script))
        assert len(episode["steps"]) == 2
        assert episode["terminated_by"] == "end-token"
        assert all(END_TOKEN not in s["text"] for s in episode["steps"])

    def test_step_cap_bounds_runaway_generators(self, kitchen):
        def runaway(request: GeneratorRequest):
            return f"Step {request.step_index}: keep going forever"

        episode = run_episode(kitchen, build_graph(kitchen), "help", runaway, max_steps=8)
        assert episode["terminated_by"] == "step-cap"
        assert len(episode["steps"]) == 8
        assert [s["index"] for s in episode["steps"]] == list(range(1, 9))

    def test_first_reply_splits_activity_and_step(self, kitchen):
        script = [f"I will tidy up. Step 1: Walk to the trash can. {END_TOKEN}"]
        episode = run_episode(kitchen, build_graph(kitchen), "help", scripted_generator(script))
        assert episode["activity"] == "I will tidy up."
        assert episode["steps"][0]["text"] == "Walk to the trash can."

    def test_first_reply_without_marker_is_all_activity(self, kitchen):
        script = [f"I cannot plan this. {END_TOKEN}"]
        episode = run_episode(kitchen, build_graph(kitchen), "help", scripted_generator(script))
        assert episode["activity"] == "I cannot plan this."
        assert episode["steps"][0]["text"] == ""
        assert episode["steps"][0]["object_ids"] == []

    def test_modulation_once_per_step_and_accumulating(self, kitchen):
        graph = build_graph(kitchen)
        script = [
            "Plan. Step 1: Walk to the kettle.",
            f"Step 2: Walk to the kettle again. {END_TOKEN}",
        ]
        episode = run_episode(kitchen, graph, "help", scripted_generator(script))
        assert len(episode["modulations"]) == len(episode["steps"]) == 2
        assert [m["step_index"] for m in episode["modulations"]] == [1, 2]
        assert episode["steps"][0]["object_ids"] == [4]
        # The kettle node was scaled in both steps: weight w_l squared.
        assert graph.weights[4] == pytest.approx(4.0)

    def test_unmentioned_step_still_records_empty_modulation(self, kitchen):
        graph = build_graph(kitchen)
        script = [f"Plan. Step 1: Think quietly. {END_TOKEN}"]
        episode = run_episode(kitchen, graph, "help", scripted_generator(script))
        assert episode["modulations"] == [
            {"step_index": 1, "mentioned_ids": [], "touched_nodes": [], "touched_edges_count": 0}
        ]
        assert all(w == 1.0 for w in graph.weights.values())

    def test_graph_reserialized_between_steps(self, kitchen):
        graph = build_graph(kitchen)
        script = [
            "Plan. Step 1: Walk to the kettle.",
            f"Step 2: Done. {END_TOKEN}",
        ]
        generator, requests = _recording(scripted_generator(script))
        run_episode(kitchen, graph, "help", generator)
        assert "kettle#4 (w=1)" in requests[0].system_context
        assert "kettle#4 (w=2)" in requests[1].system_context
        # Modulated nodes (weight 2) outrank unmodulated ones in the listing.
        node_lines = [l for l in requests[1].system_context.splitlines() if "(w=" in l]
        boosted = [l for l in node_lines if l.endswith("(w=2)")]
        assert node_lines[: len(boosted)] == boosted
        assert "kettle#4 (w=2)" in boosted

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_episode_changes_only_the_weights(self, kitchen, k):
        # Edges are fixed by build_graph; an episode scales only the two weight dicts.
        generated = make_random_scene(12, n_objects=30)
        first, second, third = sorted(generated.instances_by_category)[:3]
        script = [
            f"Plan. Step 1: Walk to the {first}.",
            f"Step 2: Put the {second} by the {third}. {END_TOKEN}",
        ]
        for scene, generator in (
            (kitchen, RuleBasedGenerator(kitchen)),
            (generated, scripted_generator(script)),
        ):
            graph, fresh = build_graph(scene, k), build_graph(scene, k)
            run_episode(scene, graph, "I am tired and want coffee", generator)
            assert graph.edges == fresh.edges
            assert graph.weights.keys() == graph.categories.keys()
            assert graph.edge_weights.keys() == graph.categories.keys()
            assert graph.weights != fresh.weights
            assert graph.edge_weights != fresh.edge_weights
            assert graph._replace(weights=fresh.weights, edge_weights=fresh.edge_weights) == fresh

    def test_generator_failure_preserves_partial_episode(self, kitchen):
        for failing_step in (1, 2):

            def flaky(request: GeneratorRequest, failing_step=failing_step):
                if request.step_index == failing_step:
                    raise RuntimeError("boom")
                return "Plan. Step 1: Walk to the mug."

            with pytest.raises(EpisodeError, match=f"step {failing_step}") as err:
                run_episode(kitchen, build_graph(kitchen), "help", flaky)
            partial = err.value.partial
            # Plain JSON values only: a tuple or a set would not come back equal.
            assert json.loads(json.dumps(partial)) == partial
            assert "terminated_by" not in partial
            assert partial["activity"] == ("" if failing_step == 1 else "Plan.")
            assert len(partial["steps"]) == len(partial["modulations"]) == failing_step - 1
            for step, record in zip(partial["steps"], partial["modulations"]):
                assert step["text"] == "Walk to the mug."
                assert step["object_ids"] == record["mentioned_ids"] == [2, 7]
                assert step["object_ids"] is not record["mentioned_ids"]

    @pytest.mark.parametrize("reply", [None, b"Step 2: Walk to the mug.", 7])
    def test_non_string_reply_preserves_partial_episode(self, kitchen, reply):
        def wrong_type(request: GeneratorRequest):
            return reply if request.step_index == 2 else "Plan. Step 1: Walk to the sink."

        with pytest.raises(EpisodeError, match="step 2: reply is .*, not str") as err:
            run_episode(kitchen, build_graph(kitchen), "help", wrong_type)
        partial = err.value.partial
        assert [step["text"] for step in partial["steps"]] == ["Walk to the sink."]
        assert len(partial["modulations"]) == 1
        assert isinstance(err.value.__cause__, TypeError)

    def test_config_validation(self, kitchen):
        """Bad settings raise before the generator is first called."""
        generator, requests = _recording(scripted_generator([f"Step 1: go. {END_TOKEN}"]))
        graph = build_graph(kitchen)
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            run_episode(kitchen, graph, "help", generator, max_steps=0)
        for w_l in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="w_l must be positive and finite"):
                run_episode(kitchen, graph, "help", generator, w_l=w_l)
        assert requests == []
        assert all(w == 1.0 for w in graph.weights.values())

    def test_episode_document_shape(self, kitchen):
        script = [f"Plan. Step 1: Walk to the mug. {END_TOKEN}"]
        out = run_episode(kitchen, build_graph(kitchen), "help", scripted_generator(script))
        assert set(out) == {"instruction", "activity", "steps", "modulations", "terminated_by"}
        assert out["instruction"] == "help"
        assert out["activity"] == "Plan."
        assert out["terminated_by"] == "end-token"
        assert out["steps"] == [{"index": 1, "text": "Walk to the mug.", "object_ids": [2, 7]}]
        record = out["modulations"][0]
        assert record["step_index"] == 1
        assert record["mentioned_ids"] == [2, 7]
        assert set(record) == {
            "step_index",
            "mentioned_ids",
            "touched_nodes",
            "touched_edges_count",
        }
