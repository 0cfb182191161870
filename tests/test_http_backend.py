"""HttpBackend against a loopback chat-completions endpoint."""
import json
import random
import socket
import threading
from datetime import datetime, timezone

import pytest
import requests

from lexglean import generation
from lexglean.generation import (
    BackendUnavailable,
    CallError,
    ChatRequest,
    HttpBackend,
    RetryPolicy,
    execute,
)
from lexglean.taxonomy import ConfigError, ModelConfig

KEY_VAR = "LEXGLEAN_TEST_KEY"


def _completion(content, finish_reason="stop") -> bytes:
    message = {"role": "assistant", "content": content}
    return json.dumps({"choices": [{"message": message, "finish_reason": finish_reason}]}).encode()


@pytest.fixture(autouse=True)
def loopback_env(monkeypatch):
    """No proxy for the loopback address, and the test key set."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    monkeypatch.setenv(KEY_VAR, "sekrit")


def _request(url):
    model = ModelConfig(
        model_id="m",
        endpoint_url=url,
        api_key_env_var=KEY_VAR,
        temperature=0.7,
        top_p=0.95,
        max_output_tokens=256,
        system_prompt_template="Answer only in {language}.",
        max_retries=2,
    )
    return ChatRequest(
        output_id="m/hau/creative/cw_01",
        model=model,
        system_prompt="Answer only in Hausa.",
        user_prompt="Write a poem in Hausa.",
        prompt_id="cw_01",
        language="hau",
        task_type="creative",
    )


def _policy():
    return RetryPolicy(rng=random.Random(0), sleep=lambda _: None)


def test_ok_reply_carries_body_key_text_and_finish_reason(endpoint, monkeypatch):
    endpoint.replies = [(200, _completion("Ruwa ya yi yawa.", "length"))]
    backend = HttpBackend()

    request = _request(endpoint.url)
    before = datetime.now(timezone.utc)
    response = backend.complete(request)
    assert (response.status, response.text, response.finish_reason) == (200, "Ruwa ya yi yawa.", "length")
    assert before <= datetime.fromisoformat(response.timestamp) <= datetime.now(timezone.utc)
    assert response.latency > 0.0
    headers, body = endpoint.received[0]
    assert body == request.body()
    assert headers["Authorization"] == "Bearer sekrit"

    # The key is read at request time: once its variable is unset, nothing is sent.
    monkeypatch.delenv(KEY_VAR)
    with pytest.raises(ConfigError, match=f"environment variable '{KEY_VAR}' is not set"):
        backend.complete(request)
    assert len(endpoint.received) == 1


def test_each_thread_posts_through_its_own_session(endpoint, monkeypatch):
    used = []  # (thread name, session) per post

    class RecordingSession(requests.Session):
        def post(self, *args, **kwargs):
            used.append((threading.current_thread().name, self))
            return super().post(*args, **kwargs)

    monkeypatch.setattr(requests, "Session", RecordingSession)
    endpoint.replies = [(200, _completion("Ee."))] * 3
    backend = HttpBackend()
    responses = []

    def call():
        responses.append(backend.complete(_request(endpoint.url)))

    worker = threading.Thread(target=call, name="worker")
    worker.start()
    worker.join()
    call()
    call()

    assert [response.text for response in responses] == ["Ee."] * 3
    main = threading.current_thread().name
    assert [name for name, _ in used] == ["worker", main, main]
    (_, worker_session), (_, first), (_, second) = used
    assert first is second  # a thread reuses its own session
    assert worker_session is not first


def test_null_content_reads_as_empty_text(endpoint):
    endpoint.replies = [(200, _completion(None))]
    response = HttpBackend().complete(_request(endpoint.url))
    assert (response.status, response.text) == (200, "")


def test_malformed_payload_is_unavailable(endpoint):
    endpoint.replies = [(200, b"{not json")]
    with pytest.raises(BackendUnavailable, match="unparseable completion payload"):
        HttpBackend().complete(_request(endpoint.url))


@pytest.mark.parametrize(
    "reply",
    [_completion(123), _completion("Ee.", 7), _completion(["Ee."]), _completion(False)],
    ids=["int-content", "int-finish-reason", "list-content", "false-content"],
)
def test_non_string_content_or_finish_reason_is_unavailable(endpoint, reply):
    endpoint.replies = [(200, reply)]
    with pytest.raises(BackendUnavailable, match="unparseable completion payload: .*must be strings or null"):
        HttpBackend().complete(_request(endpoint.url))


@pytest.mark.parametrize(
    "first",
    [(429, b"{}"), (500, b"{}"), (503, b"{}"), None],  # None: the connection is reset
    ids=["429", "500", "503", "reset"],
)
def test_rate_limited_then_ok_through_execute(endpoint, first):
    endpoint.replies = [first, (200, _completion("Daidai."))]
    record = execute(_request(endpoint.url), _policy(), HttpBackend())
    assert record.attempt_count == 2
    assert record.response_text == "Daidai."
    assert len(endpoint.received) == 2


def test_reply_slower_than_the_read_timeout_is_unavailable_and_retried(endpoint, monkeypatch):
    monkeypatch.setattr(generation, "HTTP_TIMEOUT", (5.0, 0.2))
    endpoint.replies = [(200, _completion("Late.")), (200, _completion("Late.")), (200, _completion("Daidai."))]
    endpoint.delays = [1.0, 1.0]
    with pytest.raises(BackendUnavailable, match="timed out"):
        HttpBackend().complete(_request(endpoint.url))

    record = execute(_request(endpoint.url), _policy(), HttpBackend())
    assert record.attempt_count == 2
    assert record.response_text == "Daidai."
    assert len(endpoint.received) == 3


def test_unavailable_every_time_exhausts_the_retries(endpoint):
    endpoint.replies = [(503, b"{}")] * 3
    with pytest.raises(CallError, match=r"cw_01: retries exhausted after 3 attempts \(HTTP 503\)\Z"):
        execute(_request(endpoint.url), _policy(), HttpBackend())
    assert len(endpoint.received) == 3



def _sleeps_before_second_attempt(endpoint, status, retry_after):
    endpoint.replies = [(status, b"{}", {"Retry-After": retry_after}), (200, _completion("Daidai."))]
    sleeps = []
    record = execute(
        _request(endpoint.url), RetryPolicy(rng=random.Random(0), sleep=sleeps.append), HttpBackend()
    )
    assert record.attempt_count == 2
    return sleeps


@pytest.mark.parametrize("status", [429, 503])
def test_retry_after_seconds_replace_the_jittered_backoff(endpoint, status):
    assert _sleeps_before_second_attempt(endpoint, status, "2") == [2.0]


def test_retry_after_date_in_the_past_sleeps_nothing(endpoint):
    assert _sleeps_before_second_attempt(endpoint, 429, "Wed, 21 Oct 2015 07:28:00 GMT") == [0.0]


def test_retry_after_is_capped_at_the_longest_backoff(endpoint):
    assert _sleeps_before_second_attempt(endpoint, 429, "999") == [generation.MAX_BACKOFF] == [60.0]


@pytest.mark.parametrize("value", ["soon", "-5", "1.5", ""])
def test_unusable_retry_after_keeps_the_jittered_backoff(endpoint, value):
    assert _sleeps_before_second_attempt(endpoint, 429, value) == [RetryPolicy(rng=random.Random(0)).backoff(1)]


def test_retry_after_on_another_status_is_ignored(endpoint):
    assert _sleeps_before_second_attempt(endpoint, 500, "2") == [RetryPolicy(rng=random.Random(0)).backoff(1)]


def test_parse_retry_after_reads_delta_seconds_and_all_three_date_formats():
    now = datetime(1994, 11, 6, 8, 49, 30, tzinfo=timezone.utc)
    assert generation.parse_retry_after("120", now) == 120.0
    for date in ("Sun, 06 Nov 1994 08:49:37 GMT", "Sunday, 06-Nov-94 08:49:37 GMT", "Sun Nov  6 08:49:37 1994"):
        assert generation.parse_retry_after(date, now) == 7.0, date
    for value in (None, "", "soon", "-1", "1.5", "Sun, 06 Nov 1994 25:00:00 GMT"):
        assert generation.parse_retry_after(value, now) is None, value


def test_bad_request_is_a_permanent_call_error(endpoint):
    endpoint.replies = [(400, b'{"error": "bad"}')]
    with pytest.raises(CallError, match=r"cw_01: permanent failure, HTTP 400\Z"):
        execute(_request(endpoint.url), _policy(), HttpBackend())
    assert len(endpoint.received) == 1


def test_closed_port_is_unavailable():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(BackendUnavailable):
        HttpBackend().complete(_request(f"http://127.0.0.1:{port}/v1/chat/completions"))
