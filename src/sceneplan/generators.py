"""Step-generator backends: a chat-completions HTTP client and a rule table.

The LLM client targets any chat-completions endpoint; the rule-based
generator is the deterministic offline baseline used by tests and the
default CLI backend, mapping instruction keywords to an activity and a
fixed step script with object and route slots filled from scene geometry.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
import urllib.parse
from collections import namedtuple
from collections.abc import Callable

from .engine import END_TOKEN, GeneratorRequest
from .route import AgentPose, clauses_to_text, default_start_pose, nearest_instance, plan_route
from .scene import SceneModel
from .textmatch import words_of

API_KEY_ENV = "SHARP_API_KEY"
DEFAULT_IN_FLIGHT_LIMIT = 4
BACKOFF_BASE_SECONDS = 0.5
BACKOFF_FACTOR = 2.0
TEMPERATURE = 0.0

OBJECT_SLOT = "<object>"
ROUTE_SLOT = "<route>"


class LlmError(Exception):
    """Base class for LLM endpoint failures."""


class AuthError(LlmError):
    """Credential rejected or missing; never retried."""


class TransportError(LlmError):
    """Network failure or server error that survived all retries."""


class MalformedReplyError(LlmError):
    """The endpoint answered 200 with a body the client cannot read."""


class LlmClient:
    """Chat-completions client usable as a step generator.

    Retries transport failures and 5xx responses with jittered exponential
    backoff; auth failures and malformed bodies fail immediately.  At most
    ``max_in_flight`` posts are on the wire at once, across threads.
    Each request opens its own connection.
    """

    def __init__(
        self,
        *,
        base_url: str,
        model_name: str,
        timeout: float = 30.0,
        max_retries: int = 3,
        max_in_flight: int = DEFAULT_IN_FLIGHT_LIMIT,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError("timeout must be positive and finite")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.base_url = base_url
        self.model_name = model_name
        self.timeout = timeout
        self.max_retries = max_retries
        # The HTTP stack (urllib.request, http.client, ssl, email) takes
        # tens of milliseconds to import, so only a client loads it.
        import urllib.request

        class _NoRedirect(urllib.request.HTTPRedirectHandler):
            """Follow no redirect: urllib would re-send the ``Authorization``
            header to whatever host a 301/302/303 names, even over plain http."""

            def redirect_request(self, *args, **kwargs) -> None:
                return None

        self._semaphore = threading.Semaphore(max_in_flight)
        self._opener = urllib.request.build_opener(_NoRedirect)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    def __call__(self, request: GeneratorRequest) -> str:
        import http.client
        import urllib.request

        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise AuthError(f"environment variable {API_KEY_ENV} is not set")
        if any(c in "\r\n" or ord(c) > 0xFF for c in api_key):
            raise AuthError(
                f"environment variable {API_KEY_ENV} holds a key"
                " that cannot be sent in an HTTP header"
            )
        url = self.base_url.rstrip("/") + "/chat/completions"
        try:
            scheme = urllib.parse.urlsplit(url).scheme
        except ValueError as exc:
            raise LlmError(f"endpoint is not a valid URL: {self.base_url!r}") from exc
        if scheme not in ("http", "https"):
            raise LlmError(f"endpoint must be an http or https URL: {self.base_url!r}")
        body = {
            "model": self.model_name,
            "temperature": TEMPERATURE,
            "messages": [
                {"role": "system", "content": request.system_context},
                {"role": "user", "content": request.user_prompt},
            ],
        }
        post = urllib.request.Request(
            url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"},
            method="POST",
        )
        attempts = self.max_retries + 1
        last_failure = ""
        for attempt in range(attempts):
            if attempt > 0:
                delay = BACKOFF_BASE_SECONDS * BACKOFF_FACTOR ** (attempt - 1)
                self._sleep(delay * self._rng.uniform(0.5, 1.5))
            try:
                with self._semaphore, self._open(post) as response:
                    status = response.status
                    raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"transport error: {exc}"
                continue
            except ValueError as exc:
                raise LlmError(f"cannot post to {url!r}: {exc}") from exc
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({status})")
            if status >= 500:
                last_failure = f"server error {status}"
                continue
            if status != 200:
                raise LlmError(
                    f"unexpected status {status}: {raw.decode('utf-8', 'replace')[:200]}"
                )
            return self._extract_text(raw)
        raise TransportError(f"{last_failure} after {attempts} attempts")

    def _open(self, post):
        """``self._opener.open``, but a non-2xx reply is returned, not raised:
        ``HTTPError`` has ``.status`` and ``.read()`` like any response."""
        import urllib.error

        try:
            return self._opener.open(post, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            return error

    @staticmethod
    def _extract_text(raw: bytes) -> str:
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise MalformedReplyError(f"response body is not JSON: {exc}") from exc
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedReplyError(
                f"response missing choices[0].message.content: {payload!r:.200}"
            ) from exc
        if not isinstance(text, str):
            raise MalformedReplyError("message content is not a string")
        return text


class ActivityRule(
    namedtuple(
        "ActivityRule", "trigger_keywords activity_phrase required_categories step_templates"
    )
):
    """Keyword-triggered activity with a fixed step script.

    Step s uses step_templates[s-1]; its object slot binds to the s-th
    required category's nearest instance and its route slot to a planned
    route from the agent's tracked pose.
    """

    __slots__ = ()

    def __new__(
        cls,
        trigger_keywords: tuple[str, ...],
        activity_phrase: str,
        required_categories: tuple[str, ...],
        step_templates: tuple[str, ...],
    ) -> ActivityRule:
        if not step_templates:
            raise ValueError("a rule needs at least one step template")
        for keyword in trigger_keywords:
            if keyword != keyword.lower():
                raise ValueError(f"trigger keyword {keyword!r} must be lowercase")
        return super().__new__(
            cls, trigger_keywords, activity_phrase, required_categories, step_templates
        )


class MissingCategoryError(Exception):
    """A rule requires a category the scene does not contain."""


GENERIC_RULE = ActivityRule(
    trigger_keywords=(),
    activity_phrase="assist with the request",
    required_categories=(),
    step_templates=(
        "Survey the scene and identify the objects relevant to the request.",
        "Carry out the request and report completion.",
    ),
)

DEFAULT_RULES = (
    ActivityRule(
        trigger_keywords=("refreshed", "coffee", "tired", "energize"),
        activity_phrase="prepare a cup of coffee",
        required_categories=("kettle", "sink", "stove", "mug"),
        step_templates=(
            "<route> and pick up the <object>.",
            "<route> and fill the kettle with water at the <object>.",
            "<route> and boil the water on the <object>.",
            "<route> and pour the coffee into the <object>.",
        ),
    ),
    ActivityRule(
        trigger_keywords=("tea", "thirsty"),
        activity_phrase="make a cup of tea",
        required_categories=("kettle", "mug"),
        step_templates=(
            "<route> and pick up the <object>.",
            "<route> and pour the tea into the <object>.",
        ),
    ),
    ActivityRule(
        trigger_keywords=("clean", "mess", "dirty", "tidy"),
        activity_phrase="tidy up the room",
        required_categories=("trash can", "kitchen counter"),
        step_templates=(
            "<route> and empty the <object>.",
            "<route> and wipe down the <object>.",
        ),
    ),
)


def _keyword_matches(rule: ActivityRule, instruction_tokens: list[str]) -> int:
    count = 0
    for keyword in rule.trigger_keywords:
        keyword_tokens = words_of(keyword)
        span = len(keyword_tokens)
        if any(
            instruction_tokens[i : i + span] == keyword_tokens
            for i in range(len(instruction_tokens) - span + 1)
        ):
            count += 1
    return count


def select_rule(instruction: str, rules: tuple[ActivityRule, ...]) -> ActivityRule:
    """Rule with most trigger keywords in the instruction; ties keep list order.

    With no keyword matched anywhere, ``GENERIC_RULE`` applies.
    """
    tokens = words_of(instruction)
    best = GENERIC_RULE
    best_count = 0
    for rule in rules:
        count = _keyword_matches(rule, tokens)
        if count > best_count:
            best, best_count = rule, count
    return best


class RuleBasedGenerator:
    """Deterministic generator scripting one episode from an activity rule.

    Tracks the agent pose across steps so each route plan starts where the
    previous one ended.  Instances are episode-confined: create one per
    episode (step 1 re-selects the rule and resets the pose).
    """

    def __init__(
        self,
        scene: SceneModel,
        rules: tuple[ActivityRule, ...] = DEFAULT_RULES,
        start_pose: AgentPose | None = None,
    ):
        if not rules:
            raise ValueError("rules must be nonempty")
        self.scene = scene
        self.rules = rules
        self._start_pose = start_pose if start_pose is not None else default_start_pose(scene)
        self._pose = self._start_pose
        self._rule: ActivityRule | None = None

    def __call__(self, request: GeneratorRequest) -> str:
        step = request.step_index
        if step == 1:
            self._rule = select_rule(request.user_prompt, self.rules)
            self._pose = self._start_pose
        rule = self._rule
        if rule is None:
            raise RuntimeError("step 1 must be generated before later steps")
        if step > len(rule.step_templates):
            raise RuntimeError(
                f"rule {rule.activity_phrase!r} has no template for step {step}"
            )
        raw = f"Step {step}: {self._fill_template(rule, step)}"
        if step == 1:
            raw = ("To help you, the robot assistant will " + rule.activity_phrase
                   + ", with the following steps: " + raw)
        if step == len(rule.step_templates):
            raw += " " + END_TOKEN
        return raw

    def _fill_template(self, rule: ActivityRule, step: int) -> str:
        template = rule.step_templates[step - 1]
        text = template
        if OBJECT_SLOT in template or ROUTE_SLOT in template:
            if step > len(rule.required_categories):
                raise MissingCategoryError(
                    f"rule {rule.activity_phrase!r} has no required category for step {step}"
                )
            category = rule.required_categories[step - 1]
            if category not in self.scene.instances_by_category:
                raise MissingCategoryError(
                    f"category {category!r} absent from scene {self.scene.scene_id}"
                )
            target = nearest_instance(self.scene, category, self._pose.position)
            if ROUTE_SLOT in template:
                clauses, self._pose = plan_route(self._pose, target.id, self.scene)
                text = text.replace(ROUTE_SLOT, clauses_to_text(clauses))
            text = text.replace(OBJECT_SLOT, category)
        text = text.strip()
        if text and text[0].islower():
            text = text[0].upper() + text[1:]
        return text

