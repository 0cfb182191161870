"""Batch chat-completion calls with retries, rate limiting and resumability.

Each (model, language, prompt) triple gets a stable output id
``<model_id>/<iso_code>/<task_type>/<prompt_id>`` and one JSON record file
``<out_dir>/<model_id>/<iso_code>/<task_type>/<prompt_id>.json``.  Record
files are written atomically (temp file + rename) and never partially;
re-running a batch skips every triple whose record file already exists, so
an interrupted run can simply be restarted.  ``run_batch`` plans one record
directory at a time: it groups the templates by task type and lists each
``<out_dir>/<model_id>/<iso_code>/<task_type>`` once, testing a record path
with ``os.path.exists`` only where the listing cannot answer.

A backend has one method, ``complete(request) -> BackendResponse``, and
stamps each response with its request time and latency.  ``HttpBackend``
posts OpenAI-style chat-completion requests.  A request carries its
``ModelConfig``, which names the API key variable; ``HttpBackend`` reads the
key from that variable at request time, so the key is never held on a
request or written to disk.  ``MockBackend`` serves canned responses keyed
by output id from a fixtures file, stamped with ``MOCK_TIMESTAMP`` and a
latency of 0.0 so its records are byte-stable; it is the workhorse for
offline runs and tests.

A call that fails for good (a non-retryable HTTP status, or retryable
failures past the model's ``max_retries``) raises ``CallError``;
``run_batch`` records its message in the manifest's ``failures`` and goes on
with the other triples.
"""
from __future__ import annotations

import errno
import logging
import os
import random
import stat
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Protocol, Sequence

import requests

from .codec import DataError, decode, json_file_text, loads, parse_record, to_json, write_atomic, write_json
from .taxonomy import (
    ConfigError,
    LanguageConfig,
    ModelConfig,
    PromptTemplate,
    render_prompt,
    render_text,
)

log = logging.getLogger(__name__)

MANIFEST_FILENAME = "manifest.json"

# Timestamp used by the mock backend so record files are byte-reproducible.
MOCK_TIMESTAMP = "1970-01-01T00:00:00+00:00"

BACKOFF_FACTOR = 2.0
MAX_BACKOFF = 60.0  # seconds

# (connect, read) timeouts of one HTTP call, in seconds.
HTTP_TIMEOUT = (10.0, 120.0)

# run_batch keeps at most this many calls per worker thread submitted and
# not yet recorded: one running and one queued behind it.
IN_FLIGHT_PER_WORKER = 2


class BackendUnavailable(RuntimeError):
    """Transport-level failure (timeout, connection error); retryable."""


class CallError(RuntimeError):
    """A call failed for good: a non-retryable status, or retries exhausted."""

    def __init__(self, output_id: str, message: str):
        super().__init__(f"{output_id}: {message}")


@dataclass(frozen=True)
class SamplingParams:
    temperature: float
    top_p: float
    max_output_tokens: int


@dataclass(frozen=True)
class ChatRequest:
    """One fully rendered chat-completion request plus identifying metadata.

    ``model`` supplies the endpoint, the model id, the API key variable, the
    sampling values and the retry budget (``model.max_retries``).
    """

    output_id: str
    model: ModelConfig
    system_prompt: str
    user_prompt: str
    prompt_id: str
    language: str
    task_type: str

    def body(self) -> dict:
        """OpenAI-style chat-completions request body."""
        return {
            "model": self.model.model_id,
            "messages": [
                {"role": "system", "content": self.system_prompt},
                {"role": "user", "content": self.user_prompt},
            ],
            "temperature": self.model.temperature,
            "top_p": self.model.top_p,
            "max_tokens": self.model.max_output_tokens,
        }


@dataclass(frozen=True)
class BackendResponse:
    """One reply, stamped by the backend with when its request went out and
    how long it took."""

    status: int
    timestamp: str
    latency: float
    text: str = ""
    finish_reason: str = ""
    retry_after: float | None = None  # seconds a 429 or 503 asked the client to wait


class Backend(Protocol):
    def complete(self, request: ChatRequest) -> BackendResponse:
        ...


@dataclass(frozen=True)
class GenerationRecord:
    """One persisted API response with enough context to re-evaluate it."""

    output_id: str
    prompt_id: str
    model_id: str
    language: str
    task_type: str
    rendered_prompt: str
    system_prompt: str
    sampling: SamplingParams
    response_text: str
    finish_reason: str
    request_timestamp: str
    latency: float
    attempt_count: int


@dataclass
class RetryPolicy:
    """Exponential backoff with full jitter for retryable failures.

    Retry n sleeps a uniform draw from [0, min(MAX_BACKOFF, base_delay *
    BACKOFF_FACTOR ** (n - 1))] seconds.  How many retries a call gets is
    its model's ``max_retries``; with the default of 5 and a base delay of
    1s a call sleeps at most 31s in all.
    """

    base_delay: float = 1.0
    rng: random.Random = field(default_factory=random.Random, repr=False)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def backoff(self, attempt: int) -> float:
        cap = min(MAX_BACKOFF, self.base_delay * BACKOFF_FACTOR ** (attempt - 1))
        return self.rng.uniform(0.0, cap)


@dataclass
class RunManifest:
    """Progress summary for one batch run."""

    models: list[str]
    languages: list[str]
    expected_calls: int
    completed: set[str] = field(default_factory=set)
    failures: list[tuple[str, str]] = field(default_factory=list)
    new_requests: int = 0

    def to_json_dict(self) -> dict:
        return {
            "models": list(self.models),
            "languages": list(self.languages),
            "expected_calls": self.expected_calls,
            "completed": sorted(self.completed),
            "failures": [list(f) for f in sorted(self.failures)],
        }


def output_id_for(model_id: str, iso_code: str, task_type: str, prompt_id: str) -> str:
    return f"{model_id}/{iso_code}/{task_type}/{prompt_id}"


def record_path(out_dir: str | Path, output_id: str) -> Path:
    """``<out_dir>/<output_id>.json``; a dot in the prompt id stays in the file name."""
    return Path(out_dir, output_id + ".json")


def build_request(
    template: PromptTemplate,
    user_prompt: str,
    model: ModelConfig,
    lang: LanguageConfig,
) -> ChatRequest:
    """Assemble the wire request for ``template`` rendered as ``user_prompt``.

    The request names the model's API key variable, not the key.
    """
    system_prompt = render_text(
        model.system_prompt_template, lang, context=f"system prompt for '{model.model_id}'"
    )
    return ChatRequest(
        output_id=output_id_for(model.model_id, lang.iso_code, template.task_type, template.id),
        model=model,
        system_prompt=system_prompt,
        user_prompt=user_prompt,
        prompt_id=template.id,
        language=lang.iso_code,
        task_type=template.task_type,
    )


def _is_retryable_status(status: int) -> bool:
    return status == 429 or 500 <= status < 600


def execute(request: ChatRequest, policy: RetryPolicy, backend: Backend) -> GenerationRecord:
    """Run one request to completion, retrying 429/5xx/transport failures.

    A retry sleeps the policy's backoff, or the reply's ``retry_after``
    capped at ``MAX_BACKOFF`` when it has one.  Returns a GenerationRecord
    on success.  Raises CallError for a non-retryable HTTP status and once
    the model's ``max_retries`` retries are spent; neither leaves any
    partial state behind.
    """
    model = request.model
    attempt = 0
    while True:
        attempt += 1
        failure: str
        retry_after = None
        try:
            response = backend.complete(request)
        except BackendUnavailable as exc:
            failure = str(exc)
        else:
            if 200 <= response.status < 300:
                return GenerationRecord(
                    output_id=request.output_id,
                    prompt_id=request.prompt_id,
                    model_id=model.model_id,
                    language=request.language,
                    task_type=request.task_type,
                    rendered_prompt=request.user_prompt,
                    system_prompt=request.system_prompt,
                    sampling=SamplingParams(model.temperature, model.top_p, model.max_output_tokens),
                    response_text=response.text,
                    finish_reason=response.finish_reason,
                    request_timestamp=response.timestamp,
                    latency=response.latency,
                    attempt_count=attempt,
                )
            if not _is_retryable_status(response.status):
                raise CallError(request.output_id, f"permanent failure, HTTP {response.status}")
            failure = f"HTTP {response.status}"
            retry_after = response.retry_after
        if attempt > model.max_retries:
            raise CallError(
                request.output_id, f"retries exhausted after {attempt} attempts ({failure})"
            )
        delay = policy.backoff(attempt) if retry_after is None else min(MAX_BACKOFF, retry_after)
        log.debug("retrying %s after %s (sleep %.2fs)", request.output_id, failure, delay)
        policy.sleep(delay)


def parse_retry_after(value: str | None, now: datetime) -> float | None:
    """Seconds to wait by a ``Retry-After`` header (RFC 9110 section 10.2.3):
    delay-seconds, or an HTTP-date less ``now`` and no less than 0.  None for
    an absent or unparseable value."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        date = parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError, OverflowError):
        return None
    if date.tzinfo is None:  # "-0000": HTTP-dates are in UTC
        date = date.replace(tzinfo=timezone.utc)
    return max(0.0, (date - now).total_seconds())


class HttpBackend:
    """OpenAI-style chat-completions over HTTP, one ``requests.Session`` per
    calling thread."""

    def __init__(self):
        self._local = threading.local()

    def complete(self, request: ChatRequest) -> BackendResponse:
        """Post ``request``; an unset key variable is a ConfigError before anything is sent.

        A 2xx reply is parsed with ``codec.loads``: a body it refuses (one
        holding a lone surrogate among them), or one without string or null
        content and finish reason, raises BackendUnavailable.
        """
        model = request.model
        api_key = os.environ.get(model.api_key_env_var)
        if not api_key:
            raise ConfigError(
                f"environment variable '{model.api_key_env_var}' is not set "
                f"(required for model '{model.model_id}')"
            )
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        timestamp = datetime.now(timezone.utc).isoformat()
        started = time.perf_counter()
        try:
            response = session.post(
                model.endpoint_url,
                json=request.body(),
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=HTTP_TIMEOUT,
            )
        except requests.RequestException as exc:
            raise BackendUnavailable(str(exc)) from exc
        latency = time.perf_counter() - started
        if not 200 <= response.status_code < 300:
            retry_after = None
            if response.status_code in (429, 503):
                now = datetime.now(timezone.utc)
                retry_after = parse_retry_after(response.headers.get("Retry-After"), now)
            return BackendResponse(response.status_code, timestamp, latency, retry_after=retry_after)
        try:
            payload = loads(response.content)
            choice = payload["choices"][0]
            text, finish_reason = choice["message"]["content"], choice.get("finish_reason")
            if not all(isinstance(value, (str, type(None))) for value in (text, finish_reason)):
                raise TypeError(
                    "content and finish_reason must be strings or null, got "
                    f"{type(text).__name__} and {type(finish_reason).__name__}"
                )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"unparseable completion payload: {exc}") from exc
        return BackendResponse(response.status_code, timestamp, latency, text or "", finish_reason or "")


@dataclass(frozen=True)
class MockFixture:
    response_text: str = ""
    status_schedule: tuple[int, ...] = (200,)
    finish_reason: str = "stop"

    def __post_init__(self) -> None:
        if not self.status_schedule:
            object.__setattr__(self, "status_schedule", (200,))


def load_mock_fixtures(path: str | Path) -> dict[str, MockFixture]:
    """Load a fixtures file: a JSON map of output_id -> canned response.

    Each canned response is decoded by ``lexglean.codec.decode`` as a
    MockFixture.  A file that is not such a map raises DataError naming it,
    and a bad entry DataError naming the file and ``fixture '<output id>'``.
    """
    path = Path(path)
    try:
        data = loads(path.read_bytes())
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: fixtures file must be a JSON object keyed by output_id")
    name = str(path)  # a Path formats through Python code, which shows over some 10,000 entries
    return {
        output_id: decode(MockFixture, entry, f"{name}: fixture '{output_id}'") for output_id, entry in data.items()
    }


class MockBackend:
    """Deterministic in-process backend serving canned responses.

    Per output id, the nth call returns the nth status in the fixture's
    ``status_schedule`` (the last entry repeats).  Every call is appended to
    ``call_log`` and its start time to ``call_times`` before it runs, which
    makes duplicate-request and rate-limit assertions straightforward in
    tests.
    """

    def __init__(self, fixtures: dict[str, MockFixture]):
        self.fixtures = fixtures
        self.call_log: list[str] = []
        self.call_times: list[float] = []
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> BackendResponse:
        with self._lock:
            self.call_log.append(request.output_id)
            self.call_times.append(time.monotonic())
            attempt = self._attempts.get(request.output_id, 0)
            self._attempts[request.output_id] = attempt + 1
        fixture = self.fixtures.get(request.output_id)
        if fixture is None:
            return BackendResponse(404, MOCK_TIMESTAMP, 0.0)
        status = fixture.status_schedule[min(attempt, len(fixture.status_schedule) - 1)]
        if not 200 <= status < 300:
            return BackendResponse(status, MOCK_TIMESTAMP, 0.0)
        return BackendResponse(status, MOCK_TIMESTAMP, 0.0, fixture.response_text, fixture.finish_reason)


class _RateGate:
    """Serialises request starts per endpoint with a minimum interval."""

    def __init__(self, interval: float):
        self.interval = float(interval)
        self._lock = threading.Lock()
        self._next = 0.0

    def wait(self) -> None:
        if self.interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next - now
            self._next = max(now, self._next) + self.interval
        if delay > 0:
            time.sleep(delay)


def dumps_record(record: GenerationRecord) -> str:
    return json_file_text(to_json(record))


def _list_names(directory: str) -> set[str] | None:
    """The names in ``directory`` that are not symlinks; None for a directory
    that does not exist, an empty set for one that cannot be listed."""
    try:
        with os.scandir(directory) as scan:
            return {entry.name for entry in scan if not entry.is_symlink()}
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError):
        return set()


def run_batch(
    templates: Sequence[PromptTemplate],
    languages: Sequence[LanguageConfig],
    models: Sequence[ModelConfig],
    out_dir: str | Path,
    backend: Backend,
    *,
    parallelism: int = 1,
    policy: RetryPolicy | None = None,
) -> RunManifest:
    """Run the (templates x languages x models) batch into ``out_dir``.

    Already-present record files are skipped, so a partially completed
    directory resumes where it left off and never re-requests a finished
    triple.  Calls go to ``parallelism`` worker threads, at most
    ``IN_FLIGHT_PER_WORKER`` per worker submitted at a time, and each is
    dropped once its result is recorded, so memory grows with
    ``parallelism``, not with the batch.  Per-call failures are recorded in
    the manifest; anything else (config errors, interrupts) aborts the batch
    after letting running calls finish persisting, and sends no queued call.
    """
    out_dir = Path(out_dir)
    policy = policy or RetryPolicy()

    # A triple is done when its record path exists.  Each record directory
    # is listed once: a name listed and not a symlink is a record, and a
    # missing directory holds none.  A symlink, a name the listing lacks (a
    # file system that ignores case) and every name in a directory that
    # cannot be listed are tested with os.path.exists.
    jobs: list[tuple[str, PromptTemplate, LanguageConfig, ModelConfig, Path]] = []
    completed: set[str] = set()
    by_task: dict[str, list[PromptTemplate]] = {}
    for template in sorted(templates, key=lambda t: t.id):
        by_task.setdefault(template.task_type, []).append(template)
    for model in models:
        for lang in languages:
            for task_type, group in by_task.items():
                names = _list_names(os.path.join(out_dir, f"{model.model_id}/{lang.iso_code}/{task_type}"))
                for template in group:
                    output_id = output_id_for(model.model_id, lang.iso_code, task_type, template.id)
                    name = template.id + ".json"
                    if names is not None and (name in names or os.path.exists(record_path(out_dir, output_id))):
                        completed.add(output_id)
                    else:
                        jobs.append((output_id, template, lang, model, record_path(out_dir, output_id)))

    manifest = RunManifest(
        models=[m.model_id for m in models],
        languages=[l.iso_code for l in languages],
        expected_calls=len(templates) * len(languages) * len(models),
        completed=completed,
        new_requests=len(jobs),
    )

    gates = {model.model_id: _RateGate(model.min_request_interval) for model in models}

    def run_one(job: tuple[str, PromptTemplate, LanguageConfig, ModelConfig, Path]) -> str:
        output_id, template, lang, model, path = job
        gates[model.model_id].wait()
        user_prompt = render_prompt(template, lang)
        request = build_request(template, user_prompt, model, lang)
        record = execute(request, policy, backend)
        write_atomic(path, dumps_record(record))
        return output_id

    if jobs:
        executor = ThreadPoolExecutor(max_workers=parallelism)
        queue = iter(jobs)
        futures: dict[Future, str] = {}
        try:
            while True:
                for job in islice(queue, IN_FLIGHT_PER_WORKER * parallelism - len(futures)):
                    futures[executor.submit(run_one, job)] = job[0]
                if not futures:
                    break
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    output_id = futures.pop(future)
                    try:
                        manifest.completed.add(future.result())
                    except CallError as exc:
                        log.debug("call failed: %s", exc)
                        manifest.failures.append((output_id, str(exc)))
        except BaseException:
            # Let running calls finish persisting, drop the queued ones,
            # then surface the abort; the directory stays resumable.
            executor.shutdown(wait=True, cancel_futures=True)
            raise
        executor.shutdown(wait=True)

    manifest.failures.sort()
    write_json(out_dir / MANIFEST_FILENAME, manifest.to_json_dict())
    return manifest


def _json_files(prefix: str, top: bool = False) -> Iterator[str]:
    """The ``*.json`` files under the directory ``prefix`` names, as ``rglob`` finds them.

    ``prefix`` is the directory's path with a trailing separator, or "" for
    the working directory.  Files come in output-id order: each level is
    sorted by what an entry adds to the output id, ``name + "/"`` for a
    directory and the stem for a record file, so every cell's records are one
    run of the walk.  Symlinked directories are not followed, a directory
    whose name ends in ``.json`` is walked rather than read, and the
    top-level manifest is left out.
    """
    try:
        with os.scandir(prefix or ".") as scan:
            entries = sorted(
                scan, key=lambda entry: entry.name + "/" if entry.is_dir() else entry.name.removesuffix(".json")
            )
    except PermissionError:
        return  # rglob skips an unreadable directory too
    for entry in entries:
        if entry.is_dir():
            if not entry.is_symlink():
                yield from _json_files(prefix + entry.name + os.sep)
        elif entry.name.endswith(".json") and not (top and entry.name == MANIFEST_FILENAME):
            yield prefix + entry.name


def record_files(out_dir: str | Path) -> Iterator[tuple[str, str, bytes]]:
    """Every record file under a run directory: its path, the output id the
    path names and its bytes, in output-id order (see ``_json_files``).

    Each file is read with ``os`` calls, not ``open``, which builds a
    buffered reader and checks ``isatty`` per file: one ``os.read`` of
    ``fstat``'s size plus one byte, then further reads until one returns
    ``b""``, so a file that grew after the ``fstat`` is still read whole.
    The bytes and every ``OSError`` text are those of
    ``open(path, "rb").read()``, and the descriptor is closed before the
    record is yielded.  The first buffer is sized from ``fstat``, not from a
    constant, because ``os.read`` shrinks its buffer to the bytes read in
    place, and a record kept sits in what is left of it: a cold ``evaluate``
    of 11,882 short records (median 786 bytes) peaked at 37.9 MB of RSS with
    ``open`` or an ``fstat``-sized read, 38.5 MB with a 4 KiB first read and
    45.2 MB with a 64 KiB one (Python 3.11, Linux).
    """
    top = str(Path(out_dir))
    prefix = "" if top == "." else os.path.join(top, "")
    for path in _json_files(prefix, top=True) if os.path.isdir(top) else ():
        fd = os.open(path, os.O_RDONLY)
        try:
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):  # open() refuses a directory by name; os.read would not name it
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            data = os.read(fd, status.st_size + 1)
            while more := os.read(fd, 8192):
                data += more
        finally:
            os.close(fd)
        yield path, path[len(prefix):-len(".json")], data


def load_record(out_dir: str | Path, path: str, named_id: str, data: bytes) -> GenerationRecord:
    """Parse one of ``record_files``; DataError names a file that is not a
    record, not the ``record_path`` of its ``output_id`` (a copied or
    misplaced file, so also any duplicate id), or whose ``output_id`` is not
    the one its model, language, task type and prompt id make."""
    record = parse_record(GenerationRecord, data, path)
    # The string test settles every ordinary id; Path equality is the rule.
    if record.output_id != named_id and Path(path) != record_path(out_dir, record.output_id):
        raise DataError(
            f"{path}: holds output_id '{record.output_id}', whose record file is "
            f"{record_path(out_dir, record.output_id)} (corrupted run directory)"
        )
    fields_id = output_id_for(record.model_id, record.language, record.task_type, record.prompt_id)
    if record.output_id != fields_id:
        raise DataError(
            f"{path}: holds output_id '{record.output_id}', but its fields make "
            f"'{fields_id}' (corrupted record)"
        )
    return record
