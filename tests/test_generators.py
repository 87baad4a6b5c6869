"""LLM endpoint client (against a local stub server) and the rule-based generator."""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sceneplan.engine import END_TOKEN, EpisodeError, GeneratorRequest, run_episode
from sceneplan.generators import (
    BACKOFF_BASE_SECONDS,
    DEFAULT_RULES,
    GENERIC_RULE,
    ActivityRule,
    AuthError,
    LlmClient,
    LlmError,
    MalformedReplyError,
    MissingCategoryError,
    RuleBasedGenerator,
    TransportError,
    select_rule,
)
from sceneplan.graph import build_graph
from sceneplan.route import default_start_pose, verify_route
from tests.conftest import run_python, scripted_generator


class StubEndpoint:
    """Scripted chat-completions endpoint; records requests and concurrency.

    A response spec may set ``delay`` (seconds before replying), ``drop``
    (close the connection without a reply), ``truncate`` (promise more
    body bytes than are sent, then close) or ``location`` (a ``Location``
    header).  GET requests are recorded and answered like POSTs.
    """

    def __init__(self, responses: list[dict] | None = None, delay: float = 0.0):
        self.lock = threading.Lock()
        self.requests: list[dict] = []
        self.responses = list(responses or [])
        self.default = {"status": 200, "text": "Step 1: ok. [END]"}
        self.delay = delay
        self.in_flight = 0
        self.max_in_flight = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with stub.lock:
                    stub.requests.append(
                        {
                            "method": self.command,
                            "path": self.path,
                            "auth": self.headers.get("Authorization"),
                            "content_type": self.headers.get("Content-Type"),
                            "body": body,
                        }
                    )
                    stub.in_flight += 1
                    stub.max_in_flight = max(stub.max_in_flight, stub.in_flight)
                    spec = stub.responses.pop(0) if stub.responses else dict(stub.default)
                try:
                    time.sleep(spec.get("delay", stub.delay))
                finally:
                    # Leave the count before replying: a client that has read
                    # the reply may post again before this thread runs on.
                    with stub.lock:
                        stub.in_flight -= 1
                if spec.get("drop"):
                    return
                if "raw" in spec:
                    payload = spec["raw"].encode("utf-8")
                elif "payload" in spec:
                    payload = json.dumps(spec["payload"]).encode("utf-8")
                else:
                    payload = json.dumps(
                        {"choices": [{"message": {"content": spec.get("text", "")}}]}
                    ).encode("utf-8")
                self.send_response(spec.get("status", 200))
                self.send_header("Content-Type", "application/json")
                if "location" in spec:
                    self.send_header("Location", spec["location"])
                promised = len(payload) + (100 if spec.get("truncate") else 0)
                self.send_header("Content-Length", str(promised))
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST  # noqa: N815 (http.server API)

            def handle(self) -> None:
                try:
                    super().handle()
                except ConnectionError:
                    pass  # the client timed out and hung up before the reply

            def log_message(self, *args) -> None:
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for serve_forever's next poll; the default 0.5 s
        # poll would make every test using the stub wait up to that long.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}/v1"

    def __enter__(self) -> "StubEndpoint":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("SHARP_API_KEY", "test-key-123")
    return "test-key-123"


def _client(stub: StubEndpoint, **kwargs) -> LlmClient:
    sleeps: list[float] = []
    client = LlmClient(
        base_url=stub.base_url,
        model_name="stub-model",
        sleep=sleeps.append,
        rng=random.Random(0),
        **kwargs,
    )
    client.recorded_sleeps = sleeps  # test-only attribute
    return client


REQUEST = GeneratorRequest(system_context="scene", user_prompt="I am tired", step_index=1)


class TestLlmClient:
    def test_success_returns_content_verbatim(self, api_key):
        # The stop token stays in: run_episode detects and strips it.
        with StubEndpoint([{"text": "Step 2: Turn left. [END]"}]) as stub:
            reply = _client(stub)(REQUEST)
        assert type(reply) is str
        assert reply == "Step 2: Turn left. " + END_TOKEN
        sent = stub.requests[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["auth"] == "Bearer test-key-123"
        assert sent["content_type"] == "application/json"
        assert sent["body"]["model"] == "stub-model"
        roles = [m["role"] for m in sent["body"]["messages"]]
        assert roles == ["system", "user"]
        assert sent["body"]["messages"][0]["content"] == "scene"
        assert sent["body"]["messages"][1]["content"] == "I am tired"

    def test_retries_server_errors_with_jittered_backoff(self, api_key):
        script = [{"status": 500}, {"status": 503}, {"text": "Step 1: ok."}]
        with StubEndpoint(script) as stub:
            client = _client(stub, max_retries=3)
            reply = client(REQUEST)
        assert reply == "Step 1: ok."
        assert len(stub.requests) == 3
        sleeps = client.recorded_sleeps
        assert len(sleeps) == 2
        base = BACKOFF_BASE_SECONDS
        assert base * 0.5 <= sleeps[0] <= base * 1.5
        assert base * 2 * 0.5 <= sleeps[1] <= base * 2 * 1.5

    def test_exhausted_retries_raise_transport_error(self, api_key):
        with StubEndpoint([{"status": 500}] * 3) as stub:
            client = _client(stub, max_retries=2)
            with pytest.raises(TransportError, match="after 3 attempts"):
                client(REQUEST)
        assert len(stub.requests) == 3

    def test_auth_rejection_is_immediate(self, api_key):
        with StubEndpoint([{"status": 401, "raw": "{}"}]) as stub:
            client = _client(stub)
            with pytest.raises(AuthError, match="401"):
                client(REQUEST)
        assert len(stub.requests) == 1
        assert client.recorded_sleeps == []

    def test_missing_api_key_fails_before_any_request(self, monkeypatch):
        monkeypatch.delenv("SHARP_API_KEY", raising=False)
        with StubEndpoint() as stub:
            with pytest.raises(AuthError, match="SHARP_API_KEY"):
                _client(stub)(REQUEST)
        assert stub.requests == []

    def test_non_json_body_is_malformed_not_retried(self, api_key):
        with StubEndpoint([{"raw": "not json at all"}]) as stub:
            with pytest.raises(MalformedReplyError, match="not JSON"):
                _client(stub)(REQUEST)
        assert len(stub.requests) == 1

    def test_missing_choices_is_malformed(self, api_key):
        with StubEndpoint([{"payload": {"unexpected": True}}]) as stub:
            with pytest.raises(MalformedReplyError, match="choices"):
                _client(stub)(REQUEST)

    def test_other_client_errors_are_not_retried(self, api_key):
        with StubEndpoint([{"status": 418, "raw": "{}"}]) as stub:
            with pytest.raises(LlmError, match="418"):
                _client(stub)(REQUEST)
        assert len(stub.requests) == 1

    def test_connection_failure_retries_then_raises(self, api_key):
        sleeps: list[float] = []
        client = LlmClient(
            base_url="http://127.0.0.1:9", model_name="stub", max_retries=1, timeout=0.2,
            sleep=sleeps.append, rng=random.Random(0),
        )
        with pytest.raises(TransportError, match="transport error"):
            client(REQUEST)
        assert len(sleeps) == 1

    @pytest.mark.parametrize("spec", [{"drop": True}, {"truncate": True}], ids=["drop", "truncate"])
    def test_broken_reply_retries_then_raises(self, api_key, spec):
        with StubEndpoint([spec] * 2) as stub:
            client = _client(stub, max_retries=1)
            with pytest.raises(TransportError, match="transport error.*after 2 attempts"):
                client(REQUEST)
        assert len(stub.requests) == 2
        assert len(client.recorded_sleeps) == 1

    def test_reply_slower_than_timeout_retries_then_raises(self, api_key):
        with StubEndpoint([{"delay": 0.5}] * 2) as stub:
            client = _client(stub, max_retries=1, timeout=0.05)
            with pytest.raises(TransportError, match="transport error.*after 2 attempts"):
                client(REQUEST)
        assert len(stub.requests) == 2
        assert len(client.recorded_sleeps) == 1

    def test_non_http_endpoint_is_rejected_before_any_request(self, api_key, tmp_path):
        reply = tmp_path / "chat" / "completions"
        reply.parent.mkdir()
        reply.write_text(json.dumps({"choices": [{"message": {"content": "Step 1: ok."}}]}))
        for base_url in (tmp_path.as_uri(), "data:,x", "127.0.0.1:9"):
            sleeps: list[float] = []
            client = LlmClient(base_url=base_url, model_name="m", sleep=sleeps.append)
            with pytest.raises(LlmError, match="http or https"):
                client(REQUEST)
            assert sleeps == []

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, api_key, status):
        with StubEndpoint() as elsewhere:
            target = elsewhere.base_url + "/chat/completions"
            with StubEndpoint([{"status": status, "location": target, "raw": ""}]) as stub:
                client = _client(stub)
                with pytest.raises(LlmError, match=f"unexpected status {status}"):
                    client(REQUEST)
        assert len(stub.requests) == 1
        assert elsewhere.requests == []
        assert client.recorded_sleeps == []

    @pytest.mark.parametrize("key", ["key\r\nX-Injected: 1", "ключ"], ids=["crlf", "non-latin-1"])
    def test_unsendable_api_key_fails_before_any_request(self, monkeypatch, key):
        monkeypatch.setenv("SHARP_API_KEY", key)
        with StubEndpoint() as stub:
            with pytest.raises(AuthError, match="SHARP_API_KEY") as raised:
                _client(stub)(REQUEST)
        assert key not in str(raised.value)
        assert stub.requests == []

    @pytest.mark.parametrize("base_url", ["http://[::1", "http://a..b:9", "http://127.0.0.1:9\n"])
    def test_unusable_endpoint_url_fails_without_retry(self, api_key, base_url):
        sleeps: list[float] = []
        with pytest.raises(LlmError, match="valid URL|cannot post") as raised:
            LlmClient(base_url=base_url, model_name="m", sleep=sleeps.append)(REQUEST)
        assert not isinstance(raised.value, TransportError)
        assert sleeps == []

    def test_in_flight_limit_respected_across_threads(self, api_key):
        with StubEndpoint(delay=0.05) as stub:
            client = _client(stub)
            threads = [
                threading.Thread(target=client, args=(REQUEST,))
                for _ in range(10)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(stub.requests) == 10
            assert stub.max_in_flight <= 4

    def test_tighter_in_flight_limit(self, api_key):
        with StubEndpoint(delay=0.05) as stub:
            client = _client(stub, max_in_flight=2)
            threads = [
                threading.Thread(target=client, args=(REQUEST,))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert stub.max_in_flight <= 2

    def test_config_validation(self):
        for timeout in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="timeout"):
                LlmClient(base_url="x", model_name="m", timeout=timeout)
        with pytest.raises(ValueError, match="max_retries"):
            LlmClient(base_url="x", model_name="m", max_retries=-1)
        with pytest.raises(ValueError, match="max_in_flight"):
            LlmClient(base_url="x", model_name="m", max_in_flight=0)


def test_cli_and_llm_client_import_no_third_party_http_stack():
    script = (
        "import sys, sceneplan.cli\n"
        "from sceneplan.generators import LlmClient\n"
        "LlmClient(base_url='http://127.0.0.1:9', model_name='m')\n"
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))\n"
    )
    assert run_python(script).stdout.strip() == "[]"


def test_cli_import_leaves_the_http_stack_to_the_llm_client():
    # ``import sceneplan.cli`` runs ``sceneplan/__init__``, which imports
    # ``generators``; only constructing an ``LlmClient`` loads the stack.
    script = (
        "import json, sys, sceneplan.cli\n"
        "stack = {'http.client', 'urllib.request', 'ssl', 'email'}\n"
        "print(json.dumps(sorted(stack & set(sys.modules))))\n"
        "from sceneplan.generators import LlmClient\n"
        "LlmClient(base_url='http://127.0.0.1:9', model_name='m')\n"
        "print(json.dumps(sorted(stack & set(sys.modules))))\n"
    )
    before, after = map(json.loads, run_python(script).stdout.splitlines())
    assert before == []
    assert {"http.client", "urllib.request"} <= set(after)


class TestRuleSelection:
    def test_most_keywords_wins(self):
        rule = select_rule("I am tired and want coffee", DEFAULT_RULES)
        assert rule.activity_phrase == "prepare a cup of coffee"

    def test_single_keyword(self):
        assert select_rule("so thirsty", DEFAULT_RULES).activity_phrase == "make a cup of tea"

    def test_tie_keeps_rule_order(self):
        rule = select_rule("coffee or tea", DEFAULT_RULES)
        assert rule.activity_phrase == "prepare a cup of coffee"

    def test_no_keywords_falls_back_to_generic(self):
        assert select_rule("hello there", DEFAULT_RULES) is GENERIC_RULE

    def test_keyword_matching_is_whole_token(self):
        # "energized" is not the keyword token "energize".
        assert select_rule("I feel energized", DEFAULT_RULES) is GENERIC_RULE

    def test_multi_token_keyword_matches_contiguously(self):
        rule = ActivityRule(
            trigger_keywords=("warm milk",),
            activity_phrase="warm some milk",
            required_categories=(),
            step_templates=("Done.",),
        )
        assert select_rule("please get warm milk", (rule,)) is rule
        assert select_rule("warm the milk", (rule,)) is not rule

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="lowercase"):
            ActivityRule(("Coffee",), "x", (), ("Done.",))
        with pytest.raises(ValueError, match="template"):
            ActivityRule((), "x", (), ())


class TestRuleBasedGenerator:
    def test_coffee_episode_structure(self, kitchen):
        episode = run_episode(
            kitchen,
            build_graph(kitchen),
            "I am tired and want coffee",
            RuleBasedGenerator(kitchen),
        )
        assert len(episode["steps"]) == 4
        assert episode["activity"] == (
            "To help you, the robot assistant will prepare a cup of coffee, "
            "with the following steps:"
        )
        assert "pick up the kettle" in episode["steps"][0]["text"]
        assert episode["terminated_by"] == "end-token"

    def test_generated_routes_verify_ok(self, kitchen):
        episode = run_episode(
            kitchen,
            build_graph(kitchen),
            "I am tired and want coffee",
            RuleBasedGenerator(kitchen),
        )
        steps = episode["steps"]
        reports = verify_route(steps, kitchen, default_start_pose(kitchen))
        assert [r["verdict"] for r in reports] == ["ok"] * len(steps)

    def test_generation_is_deterministic(self, kitchen):
        def run() -> list[str]:
            episode = run_episode(
                kitchen,
                build_graph(kitchen),
                "time to clean up this mess",
                RuleBasedGenerator(kitchen),
            )
            return [episode["activity"]] + [s["text"] for s in episode["steps"]]

        assert run() == run()

    def test_step_already_at_its_target_is_a_bare_targeted_move(self, kitchen):
        # Step 2 starts where step 1 ended, next to the kettle.
        kettle_rule = ActivityRule(
            trigger_keywords=("kettle",),
            activity_phrase="boil water",
            required_categories=("kettle", "kettle"),
            step_templates=("<route> and pick up the <object>.",
                            "<route> and put down the <object>."),
        )
        generator = RuleBasedGenerator(kitchen, rules=(kettle_rule,))
        episode = run_episode(kitchen, build_graph(kitchen), "kettle", generator)
        steps = episode["steps"]
        assert steps[0]["text"] != "Walk to the kettle and pick up the kettle."
        assert steps[1]["text"] == "Walk to the kettle and put down the kettle."
        reports = verify_route(steps, kitchen, default_start_pose(kitchen))
        assert [r["verdict"] for r in reports] == ["ok", "ok"]

    def test_generic_rule_needs_no_objects(self, kitchen):
        episode = run_episode(
            kitchen, build_graph(kitchen), "entertain me", RuleBasedGenerator(kitchen)
        )
        assert len(episode["steps"]) == 2
        assert episode["steps"][0]["text"].startswith("Survey the scene")

    def test_missing_category_surfaces_as_episode_error(self, kitchen):
        piano_rule = ActivityRule(
            trigger_keywords=("music",),
            activity_phrase="play some music",
            required_categories=("piano",),
            step_templates=("<route> and play the <object>.",),
        )
        generator = RuleBasedGenerator(kitchen, rules=(piano_rule,))
        with pytest.raises(EpisodeError, match="piano"):
            run_episode(kitchen, build_graph(kitchen), "music please", generator)

    def test_missing_category_direct(self, kitchen):
        piano_rule = ActivityRule(
            trigger_keywords=("music",),
            activity_phrase="play some music",
            required_categories=("piano",),
            step_templates=("<route> and play the <object>.",),
        )
        generator = RuleBasedGenerator(kitchen, rules=(piano_rule,))
        with pytest.raises(MissingCategoryError, match="piano"):
            generator(GeneratorRequest("", "music please", 1))

    def test_later_step_before_first_rejected(self, kitchen):
        generator = RuleBasedGenerator(kitchen)
        with pytest.raises(RuntimeError, match="step 1"):
            generator(GeneratorRequest("", "coffee", 2))

    def test_rules_reply_is_text_ending_in_the_stop_token(self, kitchen):
        generator = RuleBasedGenerator(kitchen)
        replies = [generator(GeneratorRequest("", "make tea", step)) for step in (1, 2)]
        assert [type(reply) for reply in replies] == [str, str]
        assert replies[0].startswith("To help you, the robot assistant will make a cup of tea")
        assert END_TOKEN not in replies[0]
        assert replies[1].startswith("Step 2: ") and replies[1].endswith(" " + END_TOKEN)

    def test_scripted_generator_exhaustion(self):
        generator = scripted_generator(["Step 1: only one"])
        with pytest.raises(IndexError, match="step 2"):
            generator(GeneratorRequest("", "", 2))
