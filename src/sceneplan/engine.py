"""Progressive plan generation: one step at a time, conditioned on history.

Each episode iterates generate -> detect mentioned objects -> modulate the
scene graph, so the serialized graph context sent with the next step
reflects what the plan has already touched.  The loop stops when the
generator emits the ``END_TOKEN`` stop token or the step cap is hit.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable

from .graph import DEFAULT_MODULATION_WEIGHT, SceneGraph, modulate, serialize_for_prompt
from .scene import SceneModel
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
    """Generator failure mid-episode; ``partial`` is the episode document so far.

    It holds the completed steps and their modulation records, and no
    ``terminated_by``.
    """

    def __init__(self, message: str, partial: dict):
        super().__init__(message)
        self.partial = partial


class GeneratorRequest:
    """One step's prompt: the system context text, the user prompt text and the step index.

    ``system_context`` may be given as the scene graph instead of its text,
    as :func:`run_episode` does.  The request then keeps a copy of the
    graph's node weights as they are now, and renders the context from that
    copy the first time :attr:`system_context` is read, so a generator that
    never reads it costs no render.
    """

    __slots__ = ("_context", "_weights", "user_prompt", "step_index")

    def __init__(self, system_context: str | SceneGraph, user_prompt: str, step_index: int):
        self._context = system_context
        self._weights = (
            system_context.weights.copy() if isinstance(system_context, SceneGraph) else None
        )
        self.user_prompt = user_prompt
        self.step_index = step_index

    @property
    def system_context(self) -> str:
        """:data:`SYSTEM_PREAMBLE` and the graph's prompt rendering, under this step's weights."""
        if self._weights is not None:
            rendered = serialize_for_prompt(self._context, self._weights)
            self._context = SYSTEM_PREAMBLE + "\n" + rendered
            self._weights = None
        return self._context


# A generator answers a request with the raw reply text, stop token and all.
Generator = Callable[[GeneratorRequest], str]


def render_history_prompt(instruction: str, history: list[dict]) -> str:
    """The step-s prompt (s >= 2): instruction plus all prior step dicts inline.

    Steps render as "Step <i>: <text>" joined by single spaces, so every
    prior step text appears verbatim in every later prompt.
    """
    if not history:
        raise ValueError("history must be nonempty; step 1 uses the instruction alone")
    rendered = " ".join(f"Step {s['index']}: {s['text']}" for s in history)
    return HISTORY_TEMPLATE.format(instruction=instruction, history=rendered)


def detect_mentions(step_text: str, scene: SceneModel) -> list[int]:
    """Ids of all instances whose category is named in the text, ascending.

    Matching is case-insensitive, whole-word, and tolerant of plural forms
    ("mugs" matches category "mug"); every instance of a mentioned category
    counts.
    """
    by_category = scene.instances_by_category
    categories = mentioned_categories(step_text, scene.category_matcher)
    return sorted(o.id for category in categories for o in by_category[category])


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
) -> dict:
    """Run one progressive generation episode over the scene graph.

    Returns the episode document that ``plan`` prints: ``instruction``,
    ``activity``, ``steps`` as ``{index, text, object_ids}``,
    ``modulations`` as ``{step_index, mentioned_ids, touched_nodes,
    touched_edges_count}`` (one per step) and ``terminated_by``.

    A reply containing ``END_TOKEN`` ends the episode (``terminated_by`` is
    ``"end-token"``, else ``"step-cap"``); every copy of the token is
    stripped from the step text, and a copy between two spaces leaves one.
    The graph is modulated in place once per generated step (empty mention
    sets still produce a record), so build a fresh graph per episode, as
    ``cmd_plan`` does.  Each step's :class:`GeneratorRequest` is given the
    graph and renders its ``system_context`` only when the generator reads it.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if not (math.isfinite(w_l) and w_l > 0):
        raise ValueError("w_l must be positive and finite")
    steps: list[dict] = []
    modulations: list[dict] = []
    episode = {
        "instruction": instruction, "activity": "", "steps": steps, "modulations": modulations
    }
    for step_index in range(1, max_steps + 1):
        if step_index == 1:
            user_prompt = instruction
        else:
            user_prompt = render_history_prompt(instruction, steps)
        request = GeneratorRequest(graph, user_prompt, step_index)
        try:
            raw = generator(request)
            if not isinstance(raw, str):
                raise TypeError(f"reply is {type(raw).__name__}, not str")
        except Exception as exc:
            raise EpisodeError(
                f"generator failed at step {step_index}: {exc}", episode
            ) from exc
        saw_end = END_TOKEN in raw
        reply = _STRIP_END.sub("", raw).strip()
        if step_index == 1:
            episode["activity"], reply = parse_activity_header(reply)
        text = strip_step_label(reply)
        mentioned = detect_mentions(text, scene)
        steps.append({"index": step_index, "text": text, "object_ids": mentioned})
        touched_nodes, touched_edges = modulate(graph, mentioned, w_l=w_l, step_index=step_index)
        modulations.append({
            "step_index": step_index,
            "mentioned_ids": list(mentioned),
            "touched_nodes": sorted(touched_nodes),
            "touched_edges_count": len(touched_edges),
        })
        if saw_end:
            break
    episode["terminated_by"] = "end-token" if saw_end else "step-cap"
    return episode
