"""HttpBackend against a loopback chat-completions endpoint."""
import json
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from lexglean.generation import (
    BackendUnavailable,
    CallError,
    ChatRequest,
    HttpBackend,
    RetryPolicy,
    SamplingParams,
    execute,
)


class Endpoint:
    """Replies to each POST with the next scripted (status, body bytes) pair."""

    def __init__(self):
        self.replies: list[tuple[int, bytes]] = []
        self.received: list[tuple[dict, dict]] = []  # (headers, JSON body)
        self.url = ""


def _completion(content, finish_reason="stop") -> bytes:
    message = {"role": "assistant", "content": content}
    return json.dumps({"choices": [{"message": message, "finish_reason": finish_reason}]}).encode()


@pytest.fixture
def endpoint(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    state = Endpoint()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            state.received.append((dict(self.headers), body))
            status, payload = state.replies.pop(0)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        yield state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _request(url, api_key=None):
    return ChatRequest(
        output_id="m/hau/creative/cw_01",
        endpoint_url=url,
        model_id="m",
        api_key=api_key,
        system_prompt="Answer only in Hausa.",
        user_prompt="Write a poem in Hausa.",
        sampling=SamplingParams(0.7, 0.95, 256),
        prompt_id="cw_01",
        language="hau",
        task_type="creative",
        max_retries=2,
    )


def _policy():
    return RetryPolicy(rng=random.Random(0), sleep=lambda _: None)


def test_ok_reply_carries_body_key_text_and_finish_reason(endpoint):
    endpoint.replies = [(200, _completion("Ruwa ya yi yawa.", "length")), (200, _completion("Ee."))]
    backend = HttpBackend()

    with_key = _request(endpoint.url, api_key="sekrit")
    response = backend.complete(with_key)
    assert (response.status, response.text, response.finish_reason) == (200, "Ruwa ya yi yawa.", "length")
    headers, body = endpoint.received[0]
    assert body == with_key.body()
    assert headers["Authorization"] == "Bearer sekrit"

    response = backend.complete(_request(endpoint.url))
    assert response.text == "Ee."
    headers, _ = endpoint.received[1]
    assert "Authorization" not in headers


def test_null_content_reads_as_empty_text(endpoint):
    endpoint.replies = [(200, _completion(None))]
    response = HttpBackend().complete(_request(endpoint.url))
    assert (response.status, response.text) == (200, "")


def test_malformed_payload_is_unavailable(endpoint):
    endpoint.replies = [(200, b"{not json")]
    with pytest.raises(BackendUnavailable, match="unparseable completion payload"):
        HttpBackend().complete(_request(endpoint.url))


def test_rate_limited_then_ok_through_execute(endpoint):
    endpoint.replies = [(429, b"{}"), (200, _completion("Daidai."))]
    record = execute(_request(endpoint.url), _policy(), HttpBackend())
    assert record.attempt_count == 2
    assert record.response_text == "Daidai."
    assert len(endpoint.received) == 2


def test_bad_request_is_a_permanent_call_error(endpoint):
    endpoint.replies = [(400, b'{"error": "bad"}')]
    with pytest.raises(CallError, match=r"cw_01: permanent failure, HTTP 400\Z"):
        execute(_request(endpoint.url), _policy(), HttpBackend())
    assert len(endpoint.received) == 1


def test_closed_port_is_unavailable(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(BackendUnavailable):
        HttpBackend().complete(_request(f"http://127.0.0.1:{port}/v1/chat/completions"))
