import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dialogforge.backend import (
    AuthError,
    ChatMessage,
    ChatRequest,
    HttpBackend,
    MalformedResponse,
    MockBackend,
    RateLimited,
    ScriptExhausted,
    ServerError,
    Timeout,
    TokenBucket,
    complete_with_retry,
    estimate_tokens,
)

from conftest import user_request


def test_estimate_tokens_empty():
    assert estimate_tokens("") == 0


def test_estimate_tokens_exact_multiple():
    assert estimate_tokens("abcdefgh") == 2


def test_estimate_tokens_rounds_up():
    assert estimate_tokens("abcdefghi") == 3


def test_chat_message_validation():
    ChatMessage("system", "")
    with pytest.raises(ValueError):
        ChatMessage("user", "")
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hi")


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(messages=())
    with pytest.raises(ValueError):
        user_request("hi", max_reply_tokens=0)


# ---------------------------------------------------------------------------
# mock backend
# ---------------------------------------------------------------------------


def staged_request(stage, **slots):
    """A request as the pipeline builds it; the prompt text says nothing, so
    the mock can only answer from ``stage`` and ``slots``."""
    message = ChatMessage("user", "(prompt wording the mock must not read)")
    return ChatRequest((message,), stage=stage, slots=slots)


def test_mock_scripted_playback():
    mock = MockBackend(script=["hello"])
    assert mock.complete(user_request("anything")) == "hello"


def test_mock_strict_script_exhaustion():
    mock = MockBackend(script=["a", "b"], strict=True)
    mock.complete(user_request("x"))
    mock.complete(user_request("x"))
    with pytest.raises(ScriptExhausted):
        mock.complete(user_request("x"))


def test_mock_nonstrict_falls_back_to_rules():
    mock = MockBackend(script=["scripted"], strict=False)
    assert mock.complete(user_request("x")) == "scripted"
    reply = mock.complete(staged_request("doctor", keywords="aspirin"))
    assert "aspirin" in reply


def test_mock_scripted_strict_is_reproducible():
    script = ["one", "two", "three"]
    first = MockBackend(script=script, strict=True)
    second = MockBackend(script=script, strict=True)
    prompts = ["p1", "p2", "p3"]
    replies_a = [first.complete(user_request(p)) for p in prompts]
    replies_b = [second.complete(user_request(p)) for p in prompts]
    assert replies_a == replies_b == script


def test_mock_doctor_reply_embeds_every_keyword():
    rng = random.Random(3)
    vocabulary = ["aspirin", "hypertension", "mri scan", "high blood pressure", "asthma", "lasix"]
    mock = MockBackend()
    for _ in range(20):
        keywords = rng.sample(vocabulary, rng.randint(1, 4))
        request = staged_request("doctor", note="something", keywords=",".join(keywords), history="")
        reply = mock.complete(request)
        assert reply.count("?") == 1
        for keyword in keywords:
            assert keyword in reply


def test_mock_patient_echoes_note_sentences():
    mock = MockBackend()
    request = staged_request(
        "patient",
        note="He takes aspirin every day. He has hypertension. He sleeps well.",
        history="Doctor: Can you tell me about aspirin, hypertension?",
    )
    reply = mock.complete(request)
    assert "He takes aspirin every day." in reply
    assert "He has hypertension." in reply
    assert "sleeps well" not in reply


def test_mock_polish_returns_conversation_unchanged():
    mock = MockBackend()
    request = staged_request(
        "polish",
        keywords="aspirin",
        conversation="Doctor: How are you?\nPatient: Fine, thanks.",
        note="Patient: irrelevant",
    )
    assert mock.complete(request) == "Doctor: How are you?\nPatient: Fine, thanks."


def test_mock_postediting_concatenates():
    mock = MockBackend()
    request = staged_request(
        "postediting",
        conversation="Doctor: q1\nPatient: a1",
        conversation2="Doctor: q2\nPatient: a2",
    )
    assert mock.complete(request) == "Doctor: q1\nPatient: a1\nDoctor: q2\nPatient: a2"


def test_mock_factuality_says_yes():
    mock = MockBackend()
    reply = mock.complete(staged_request("factuality", note="n", conversation="Doctor: q", keywords="a"))
    assert "yes" in reply.lower()


def test_mock_long_style_splits_multi_sentence_turns():
    mock = MockBackend(style="long")
    request = staged_request(
        "polish",
        conversation="Doctor: How are you?\nPatient: I take lasix. My blood pressure is fine.",
    )
    reply = mock.complete(request)
    assert reply.splitlines() == [
        "Doctor: How are you?",
        "Patient: I take lasix.",
        "Patient: My blood pressure is fine.",
    ]


# ---------------------------------------------------------------------------
# retry behavior
# ---------------------------------------------------------------------------


class FlakyBackend:
    def __init__(self, errors, reply="ok"):
        self.errors = list(errors)
        self.reply = reply
        self.attempts = 0

    def complete(self, request):
        self.attempts += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.reply


def test_retry_two_rate_limits_then_success():
    stub = FlakyBackend([RateLimited("429"), RateLimited("429")])
    reply = complete_with_retry(stub, user_request("x"), max_retries=3, base_delay=0.0)
    assert reply == "ok"
    assert stub.attempts == 3


def test_retry_auth_error_is_immediate():
    stub = FlakyBackend([AuthError("401")])
    with pytest.raises(AuthError):
        complete_with_retry(stub, user_request("x"), max_retries=3, base_delay=0.0)
    assert stub.attempts == 1


def test_retry_zero_retries_first_attempt_succeeds():
    stub = FlakyBackend([])
    assert complete_with_retry(stub, user_request("x"), max_retries=0, base_delay=0.0) == "ok"
    assert stub.attempts == 1


def test_retry_malformed_response_not_retried():
    stub = FlakyBackend([MalformedResponse("bad body")])
    with pytest.raises(MalformedResponse):
        complete_with_retry(stub, user_request("x"), max_retries=5, base_delay=0.0)
    assert stub.attempts == 1


def test_retry_exhaustion_reraises():
    stub = FlakyBackend([ServerError("500")] * 4)
    with pytest.raises(ServerError):
        complete_with_retry(stub, user_request("x"), max_retries=2, base_delay=0.0)
    assert stub.attempts == 3


def test_retry_backoff_delays_are_bounded():
    delays = []
    stub = FlakyBackend([Timeout("t")] * 3)
    complete_with_retry(
        stub,
        user_request("x"),
        max_retries=3,
        base_delay=0.25,
        rng=random.Random(0),
        sleep=delays.append,
    )
    assert len(delays) == 3
    for attempt, delay in enumerate(delays):
        assert 0.0 <= delay <= 0.25 * (2 ** attempt)


# ---------------------------------------------------------------------------
# http backend against an in-process stub server
# ---------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        self.server.seen.append(
            {"path": self.path, "headers": dict(self.headers), "body": json.loads(raw)}
        )
        status, payload = (
            self.server.replies.pop(0)
            if self.server.replies
            else (200, json.dumps({"choices": [{"message": {"content": "stub reply"}}]}))
        )
        body = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.seen = []
    server.replies = []
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)


def _endpoint(server):
    host, port = server.server_address
    return f"http://{host}:{port}"


def test_http_parses_stub_content(stub_server):
    stub_server.replies.append(
        (200, json.dumps({"choices": [{"message": {"content": "hello from stub"}}]}))
    )
    backend = HttpBackend(_endpoint(stub_server), "test-model", api_key="k")
    assert backend.complete(user_request("hi")) == "hello from stub"
    request = stub_server.seen[0]
    assert request["path"] == "/chat/completions"
    assert request["headers"]["Authorization"] == "Bearer k"
    assert request["body"]["model"] == "test-model"
    assert request["body"]["messages"] == [{"role": "user", "content": "hi"}]
    assert request["body"]["max_tokens"] == 256


def test_http_sends_only_wire_fields(stub_server):
    from dialogforge.model import GenerationConfig
    from dialogforge.orchestrator import _request
    from dialogforge.prompts import DEFAULT_TEMPLATES

    request = _request(
        DEFAULT_TEMPLATES["doctor"],
        {"note": "He takes aspirin.", "keywords": ["aspirin"], "history": []},
        GenerationConfig(),
    )
    assert request.stage == "doctor" and request.slots
    HttpBackend(_endpoint(stub_server), "m", api_key="k").complete(request)
    body = stub_server.seen[0]["body"]
    assert set(body) == {"model", "messages", "max_tokens", "temperature"}
    assert body["messages"] == [{"role": "user", "content": request.messages[-1].content}]


@pytest.mark.parametrize(
    "status,error",
    [(401, AuthError), (403, AuthError), (429, RateLimited), (500, ServerError), (503, ServerError)],
)
def test_http_status_mapping(stub_server, status, error):
    stub_server.replies.append((status, json.dumps({"error": "nope"})))
    backend = HttpBackend(_endpoint(stub_server), "m", api_key="k")
    with pytest.raises(error):
        backend.complete(user_request("hi"))


def test_http_malformed_json_body(stub_server):
    stub_server.replies.append((200, "this is not json"))
    backend = HttpBackend(_endpoint(stub_server), "m", api_key="k")
    with pytest.raises(MalformedResponse):
        backend.complete(user_request("hi"))


def test_http_missing_choices(stub_server):
    stub_server.replies.append((200, json.dumps({"choices": []})))
    backend = HttpBackend(_endpoint(stub_server), "m", api_key="k")
    with pytest.raises(MalformedResponse):
        backend.complete(user_request("hi"))


def test_http_retry_integration(stub_server):
    body = json.dumps({"choices": [{"message": {"content": "finally"}}]})
    stub_server.replies.extend([(429, "{}"), (429, "{}"), (200, body)])
    backend = HttpBackend(_endpoint(stub_server), "m", api_key="k")
    reply = complete_with_retry(backend, user_request("hi"), max_retries=3, base_delay=0.0)
    assert reply == "finally"
    assert len(stub_server.seen) == 3


def test_http_rejects_bad_endpoint():
    with pytest.raises(ValueError):
        HttpBackend("not a url", "m")


def test_http_rejects_zero_requests_per_minute():
    with pytest.raises(ValueError):
        HttpBackend("http://127.0.0.1:9", "m", requests_per_minute=0)


def test_token_bucket_allows_burst_within_capacity():
    bucket = TokenBucket(per_minute=600000)
    for _ in range(5):
        bucket.acquire()

