"""Progressive plan generation: one step at a time, conditioned on history.

Each episode iterates generate -> detect mentioned objects -> modulate the
scene graph, so the serialized graph context sent with the next step
reflects what the plan has already touched.  The loop stops when the
generator emits the ``END_TOKEN`` stop token or the step cap is hit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

from .graph import DEFAULT_MODULATION_WEIGHT, SceneGraph, Touched, modulate, serialize_for_prompt
from .scene import PlanStep, SceneModel
from .textmatch import mentioned_categories

END_TOKEN = "[END]"
DEFAULT_MAX_STEPS = 8

SYSTEM_PREAMBLE = (
    "You are a robot assistant planning household tasks step by step. "
    "The scene contains these objects and spatial relations; weights mark "
    "recent focus:"
)

HISTORY_TEMPLATE = "Q: {instruction}. You should answer based on these historical steps: {history}"

_STEP_LABEL = re.compile(r"^\s*step\s+\d+\s*:\s*", re.IGNORECASE)
_STEP1_MARKER = "Step 1:"
# A token with whitespace before it takes the whitespace after it along, so
# "mug [END] and" keeps one space; elsewhere only the token goes.
_STRIP_END = re.compile(r"(?<=\s)" + re.escape(END_TOKEN) + r"\s*|" + re.escape(END_TOKEN))


class EpisodeError(Exception):
    """Generator failure mid-episode; carries the steps completed so far."""

    def __init__(self, message: str, partial: "PlanEpisode"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class GeneratorRequest:
    system_context: str
    user_prompt: str
    step_index: int


# A generator answers a request with the raw reply text, stop token and all.
Generator = Callable[[GeneratorRequest], str]


@dataclass(frozen=True)
class PlanEpisode:
    instruction: str
    activity: str
    steps: tuple[PlanStep, ...]
    modulations: tuple[Touched, ...]  # one per step


def render_history_prompt(instruction: str, history: list[PlanStep] | tuple[PlanStep, ...]) -> str:
    """The step-s prompt (s >= 2): instruction plus all prior steps inline.

    Steps render as "Step <i>: <text>" joined by single spaces, so every
    prior step text appears verbatim in every later prompt.
    """
    if not history:
        raise ValueError("history must be nonempty; step 1 uses the instruction alone")
    rendered = " ".join(f"Step {s.index}: {s.text}" for s in history)
    return HISTORY_TEMPLATE.format(instruction=instruction, history=rendered)


def detect_mentions(step_text: str, scene: SceneModel) -> list[int]:
    """Ids of all instances whose category is named in the text, ascending.

    Matching is case-insensitive, whole-word, and tolerant of plural forms
    ("mugs" matches category "mug"); every instance of a mentioned category
    counts.
    """
    categories = mentioned_categories(step_text, scene.category_matcher)
    return sorted(o.id for o in scene.objects if o.category in categories)


def parse_activity_header(first_reply: str) -> tuple[str, str]:
    """Split the first reply into the activity sentence and the step stream.

    Everything before the first "Step 1:" marker is the reasoned activity;
    with no marker the whole reply is activity and the stream is empty.
    """
    position = first_reply.find(_STEP1_MARKER)
    if position < 0:
        return first_reply.strip(), ""
    return first_reply[:position].strip(), first_reply[position:]


def strip_step_label(text: str) -> str:
    """Drop one leading "Step <i>:" label; generators echo it, storage does not."""
    return _STEP_LABEL.sub("", text, count=1).strip()


def run_episode(
    scene: SceneModel,
    graph: SceneGraph,
    instruction: str,
    generator: Generator,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    w_l: float = DEFAULT_MODULATION_WEIGHT,
) -> PlanEpisode:
    """Run one progressive generation episode over the scene graph.

    A reply containing ``END_TOKEN`` ends the episode and makes its step
    final; every copy of the token is stripped from the step text, and a
    copy between two spaces leaves one.  The graph is modulated in place
    once per generated step (empty mention sets still produce a record), so
    build a fresh graph per episode, as ``cmd_plan`` does.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if not (math.isfinite(w_l) and w_l > 0):
        raise ValueError("w_l must be positive and finite")
    steps: list[PlanStep] = []
    modulations: list[Touched] = []
    activity = ""

    def partial() -> PlanEpisode:
        return PlanEpisode(
            instruction=instruction,
            activity=activity,
            steps=tuple(steps),
            modulations=tuple(modulations),
        )

    for step_index in range(1, max_steps + 1):
        system_context = SYSTEM_PREAMBLE + "\n" + serialize_for_prompt(graph)
        if step_index == 1:
            user_prompt = instruction
        else:
            user_prompt = render_history_prompt(instruction, steps)
        request = GeneratorRequest(
            system_context=system_context,
            user_prompt=user_prompt,
            step_index=step_index,
        )
        try:
            raw = generator(request)
            if not isinstance(raw, str):
                raise TypeError(f"reply is {type(raw).__name__}, not str")
        except Exception as exc:
            raise EpisodeError(
                f"generator failed at step {step_index}: {exc}", partial()
            ) from exc
        saw_end = END_TOKEN in raw
        reply = _STRIP_END.sub("", raw).strip()
        if step_index == 1:
            activity, reply = parse_activity_header(reply)
        text = strip_step_label(reply)
        mentioned = detect_mentions(text, scene)
        steps.append(
            PlanStep(
                index=step_index,
                text=text,
                object_ids=tuple(mentioned),
                is_final=saw_end,
            )
        )
        modulations.append(modulate(graph, mentioned, w_l=w_l, step_index=step_index))
        if saw_end:
            break
    return partial()


def episode_to_dict(episode: PlanEpisode) -> dict:
    """The episode as ``plan`` prints it; it ended on the end token if its last step is final."""
    return {
        "instruction": episode.instruction,
        "activity": episode.activity,
        "steps": [
            {"index": s.index, "text": s.text, "object_ids": list(s.object_ids)}
            for s in episode.steps
        ],
        "terminated_by": "end-token" if episode.steps[-1].is_final else "step-cap",
        "modulations": [
            {
                "step_index": s.index,
                "mentioned_ids": sorted(s.object_ids),
                "touched_nodes": sorted(touched_nodes),
                "touched_edges_count": len(touched_edges),
            }
            for s, (touched_nodes, touched_edges) in zip(
                episode.steps, episode.modulations, strict=True
            )
        ],
    }
