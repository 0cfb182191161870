import contextlib
import errno
import io
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from lexglean import data_dir
from lexglean.cli import main as cli_main
from lexglean.generation import MockBackend, load_record, record_files
from lexglean.langid import BuiltinClassifier
from lexglean.taxonomy import load_language_configs, load_model_configs, load_taxonomy

FIXTURES_PATH = data_dir() / "mock_fixtures.json"
SEEDS_DIR = data_dir() / "seeds"


class DiskFull:
    """A file handle whose first write stores half its data and then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        self.write(b"".join(lines))


class MockAborted(RuntimeError):
    """Raised by DyingMockBackend to simulate the process dying mid-batch."""


class DyingMockBackend(MockBackend):
    """A MockBackend that raises MockAborted instead of serving call
    ``fail_after + 1`` (counting every call in ``call_log``), simulating a
    kill at record granularity; ``fail_after = None`` serves every call."""

    def __init__(self, fixtures, *, fail_after=None):
        super().__init__(fixtures)
        self.fail_after = fail_after
        self._gate = threading.Lock()

    def complete(self, request):
        with self._gate:  # held through the call, so no call slips past the count
            if self.fail_after is not None and len(self.call_log) >= self.fail_after:
                raise MockAborted(f"simulated death after {self.fail_after} calls")
            return super().complete(request)


def run_cli(argv):
    """Invoke the CLI in-process, capturing stdout/stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([str(a) for a in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def records_under(out_dir):
    """Every record under a run directory, read as evaluate and filter read them."""
    return [load_record(out_dir, *entry) for entry in record_files(out_dir)]


@pytest.fixture
def prediction_calls(monkeypatch):
    """The grams of every ``BuiltinClassifier._prediction`` call the test makes."""
    calls = []
    real = BuiltinClassifier._prediction

    def counted(self, dots, grams):
        calls.append(grams)
        return real(self, dots, grams)

    monkeypatch.setattr(BuiltinClassifier, "_prediction", counted)
    return calls


@pytest.fixture(scope="session")
def shipped_languages():
    return load_language_configs(data_dir() / "languages.json")


@pytest.fixture(scope="session")
def shipped_models():
    return load_model_configs(data_dir() / "models.json")


@pytest.fixture(scope="session")
def shipped_templates():
    return load_taxonomy(data_dir() / "taxonomy.json")


@pytest.fixture(scope="session")
def mock_run(tmp_path_factory):
    """One full generate + evaluate pass over the shipped mock fixtures.

    Shared by the CLI and acceptance tests; everything downstream of this
    directory is deterministic, so sharing it is safe.
    """
    root = tmp_path_factory.mktemp("mock_run")
    outputs = root / "outputs"
    results = root / "results"
    code, _, err = run_cli(["generate", "--mock", FIXTURES_PATH, "--out", outputs])
    assert code == 0, err
    code, _, err = run_cli(
        [
            "evaluate",
            "--outputs", outputs,
            "--results", results,
            "--reference", f"hau={SEEDS_DIR / 'hau_Latn.txt'}",
            "--reference", f"fon={SEEDS_DIR / 'fon_Latn.txt'}",
        ]
    )
    assert code == 0, err
    return root


class Endpoint:
    """Replies to each POST with the next scripted (status, body bytes) pair,
    or (status, body bytes, {header: value}) to send more headers; a None
    reply closes the connection without sending anything.  The reply to the
    n-th POST waits ``delays[n]`` seconds first, if there is such an entry."""

    def __init__(self):
        self.replies: list[tuple[int, bytes] | tuple[int, bytes, dict[str, str]] | None] = []
        self.delays: list[float] = []
        self.received: list[tuple[dict, dict]] = []  # (headers, JSON body)
        self.url = ""


@pytest.fixture
def endpoint(monkeypatch):
    """A loopback chat-completions endpoint, reached without a proxy."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    state = Endpoint()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            index = len(state.received)
            state.received.append((dict(self.headers), body))
            reply = state.replies.pop(0)
            if index < len(state.delays):
                time.sleep(state.delays[index])
            if reply is None:
                self.close_connection = True
                return
            status, payload, *headers = reply
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in (headers[0] if headers else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True  # the client stopped waiting for a delayed reply

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # serve_forever checks for shutdown() once per poll interval; its default
    # of 0.5 s would make every teardown wait about that long.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        yield state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
