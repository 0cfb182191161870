import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import random
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES_PATH, DyingMockBackend, MockAborted, records_under
from lexglean import generation
from lexglean.codec import DataError, decoder, json_file_text, parse_record
from lexglean.generation import (
    BackendResponse,
    BackendUnavailable,
    CallError,
    ChatRequest,
    GenerationRecord,
    HttpBackend,
    IN_FLIGHT_PER_WORKER,
    MANIFEST_FILENAME,
    MOCK_TIMESTAMP,
    MockBackend,
    MockFixture,
    RetryPolicy,
    SamplingParams,
    build_request,
    dumps_record,
    execute,
    load_mock_fixtures,
    load_record,
    output_id_for,
    record_files,
    record_path,
    run_batch,
)
from lexglean.taxonomy import ConfigError, LanguageConfig, ModelConfig, PromptTemplate, render_prompt

LANG = LanguageConfig(
    name="Hausa",
    iso_code="hau",
    target_lid_label="hau_Latn",
    culture_name="Hausa",
    colonial_language="English",
    tonal_orthography=False,
    word_lists={"word_list_1": ("ruwa", "gona")},
)

MODEL = ModelConfig(
    model_id="test-model",
    endpoint_url="https://example.test/v1/chat/completions",
    api_key_env_var="TEST_MODEL_KEY",
    temperature=0.7,
    top_p=0.95,
    max_output_tokens=256,
    system_prompt_template="Answer only in {language}.",
    max_retries=2,
)

TEMPLATES = [
    PromptTemplate("cw_01", "creative", "poem", "Write a poem in {language}."),
    PromptTemplate("cw_02", "creative", "song", "Write a song in {language}."),
]


def _request(output_id="test-model/hau/creative/cw_01", max_retries=5):
    return ChatRequest(
        output_id=output_id,
        model=dataclasses.replace(MODEL, max_retries=max_retries),
        system_prompt="sys",
        user_prompt="user",
        prompt_id="cw_01",
        language="hau",
        task_type="creative",
    )


class ScriptedBackend:
    """Yields a fixed sequence of responses/exceptions for retry tests."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def complete(self, request):
        step = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        if isinstance(step, Exception):
            raise step
        return step


def _policy():
    sleeps = []
    policy = RetryPolicy(rng=random.Random(0), sleep=sleeps.append)
    return policy, sleeps


def test_output_id_and_record_path(tmp_path):
    output_id = output_id_for("m", "hau", "creative", "cw_01")
    assert output_id == "m/hau/creative/cw_01"
    assert record_path(tmp_path, output_id) == tmp_path / "m" / "hau" / "creative" / "cw_01.json"


def test_build_request_names_key_variable(monkeypatch):
    monkeypatch.setenv("TEST_MODEL_KEY", "sekrit")
    user_prompt = render_prompt(TEMPLATES[0], LANG)
    request = build_request(TEMPLATES[0], user_prompt, MODEL, LANG)
    assert request.model.api_key_env_var == "TEST_MODEL_KEY"
    assert "sekrit" not in repr(request)  # the HTTP backend reads the key at request time
    assert request.output_id == "test-model/hau/creative/cw_01"
    assert (request.prompt_id, request.language, request.task_type) == ("cw_01", "hau", "creative")
    assert request.model.max_retries == 2
    assert request.system_prompt == "Answer only in Hausa."
    body = request.body()
    assert body["model"] == "test-model"
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert body["messages"][1]["content"] == "Write a poem in Hausa."
    assert body["max_tokens"] == 256
    assert body["temperature"] == 0.7 and body["top_p"] == 0.95


def test_build_request_missing_key(monkeypatch):
    monkeypatch.delenv("TEST_MODEL_KEY", raising=False)
    user_prompt = render_prompt(TEMPLATES[0], LANG)
    # building needs no key, so mock runs skip it entirely
    request = build_request(TEMPLATES[0], user_prompt, MODEL, LANG)
    assert request.model.api_key_env_var == "TEST_MODEL_KEY"
    # the HTTP backend refuses it before anything is sent
    with pytest.raises(ConfigError, match="TEST_MODEL_KEY"):
        HttpBackend().complete(request)

def test_backoff_bounds():
    policy = RetryPolicy(base_delay=1.0, rng=random.Random(7))
    for attempt in range(1, 12):
        cap = min(60.0, 2.0 ** (attempt - 1))
        for _ in range(20):
            delay = policy.backoff(attempt)
            assert 0.0 <= delay <= cap


def test_execute_retries_then_succeeds():
    backend = ScriptedBackend(
        [
            BackendResponse(500, MOCK_TIMESTAMP, 0.0),
            BackendResponse(429, MOCK_TIMESTAMP, 0.0),
            BackendUnavailable("boom"),
            BackendResponse(200, "2026-01-02T03:04:05+00:00", 1.5, "daidai", "stop"),
        ]
    )
    policy, sleeps = _policy()
    record = execute(_request(), policy, backend)
    assert record.attempt_count == 4
    assert record.response_text == "daidai"
    # the record carries the stamps of the attempt that succeeded
    assert (record.request_timestamp, record.latency) == ("2026-01-02T03:04:05+00:00", 1.5)
    assert len(sleeps) == 3


def test_execute_permanent_failure_no_retry():
    backend = ScriptedBackend([BackendResponse(403, MOCK_TIMESTAMP, 0.0)])
    policy, sleeps = _policy()
    with pytest.raises(CallError, match=r"cw_01: permanent failure, HTTP 403\Z"):
        execute(_request(), policy, backend)
    assert backend.calls == 1
    assert sleeps == []


def test_execute_exhausts_retries():
    backend = ScriptedBackend([BackendResponse(503, MOCK_TIMESTAMP, 0.0)])
    policy, sleeps = _policy()
    with pytest.raises(CallError, match=r"cw_01: retries exhausted after 3 attempts \(HTTP 503\)\Z"):
        execute(_request(max_retries=2), policy, backend)
    assert backend.calls == 3
    assert len(sleeps) == 2


def test_mock_backend_status_schedule():
    fixtures = {"id": MockFixture("oga", status_schedule=(429, 200))}
    backend = MockBackend(fixtures)
    policy, _ = _policy()
    record = execute(_request("id"), policy, backend)
    assert record.attempt_count == 2
    assert backend.call_log == ["id", "id"]


def test_mock_backend_unknown_id_is_permanent():
    backend = MockBackend({})
    policy, _ = _policy()
    with pytest.raises(CallError, match=r"nope: permanent failure, HTTP 404\Z"):
        execute(_request("nope"), policy, backend)


def test_mock_backend_fail_after_raises_before_logging():
    backend = DyingMockBackend({"id": MockFixture("x")}, fail_after=0)
    with pytest.raises(MockAborted):
        backend.complete(_request("id"))
    assert backend.call_log == []


def test_load_mock_fixtures(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(
        json.dumps(
            {
                "a": {"response_text": "hi"},
                "b": {"response_text": "yo", "status_schedule": [500, 200], "finish_reason": "length"},
            }
        )
    )
    fixtures = load_mock_fixtures(path)
    assert fixtures["a"] == MockFixture("hi", (200,), "stop")
    assert fixtures["b"] == MockFixture("yo", (500, 200), "length")
    path.write_text("[]")
    with pytest.raises(DataError, match="JSON object"):
        load_mock_fixtures(path)


def _fixtures_for(templates, text="Amsa ce mai kyau."):
    fixtures = {}
    for template in templates:
        output_id = output_id_for(MODEL.model_id, LANG.iso_code, template.task_type, template.id)
        fixtures[output_id] = MockFixture(text)
    return fixtures


def test_run_batch_writes_records_and_manifest(tmp_path):
    backend = MockBackend(_fixtures_for(TEMPLATES))
    manifest = run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend, parallelism=2)
    assert manifest.expected_calls == 2
    assert manifest.new_requests == 2
    assert manifest.failures == []
    assert manifest.completed == {
        "test-model/hau/creative/cw_01",
        "test-model/hau/creative/cw_02",
    }

    record = records_under(tmp_path)[0]
    assert record.response_text == "Amsa ce mai kyau."
    assert record.request_timestamp == MOCK_TIMESTAMP
    assert record.latency == 0.0
    assert record.sampling == SamplingParams(0.7, 0.95, 256)

    manifest_data = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
    assert manifest_data["expected_calls"] == 2
    assert manifest_data["completed"] == sorted(manifest.completed)
    assert not list(tmp_path.rglob("*.tmp"))


def test_run_batch_resume_skips_existing(tmp_path):
    backend = MockBackend(_fixtures_for(TEMPLATES))
    run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend)
    first_calls = list(backend.call_log)
    manifest = run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend)
    assert manifest.new_requests == 0
    assert backend.call_log == first_calls  # nothing re-requested
    assert len(manifest.completed) == 2


def test_run_batch_records_failures(tmp_path):
    fixtures = _fixtures_for(TEMPLATES)
    bad_id = "test-model/hau/creative/cw_02"
    fixtures[bad_id] = MockFixture("", status_schedule=(404,))
    backend = MockBackend(fixtures)
    manifest = run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend)
    assert len(manifest.failures) == 1
    assert manifest.failures[0][0] == bad_id
    assert not record_path(tmp_path, bad_id).exists()
    assert record_path(tmp_path, "test-model/hau/creative/cw_01").exists()


def test_run_batch_logs_a_failed_call_below_warning(tmp_path, caplog):
    # ``generate`` prints each failure once from the manifest; a warning
    # from the batch would print it a second time.
    fixtures = _fixtures_for(TEMPLATES[:1])
    fixtures["test-model/hau/creative/cw_01"] = MockFixture("", status_schedule=(400,))
    caplog.set_level(logging.WARNING)
    manifest = run_batch(TEMPLATES[:1], [LANG], [MODEL], tmp_path, MockBackend(fixtures))
    assert [f[0] for f in manifest.failures] == ["test-model/hau/creative/cw_01"]
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_run_batch_respects_model_retry_budget(tmp_path):
    # model allows 2 retries; a schedule needing a 4th attempt must fail
    fixtures = _fixtures_for(TEMPLATES[:1])
    output_id = "test-model/hau/creative/cw_01"
    fixtures[output_id] = MockFixture("late", status_schedule=(500, 500, 500, 200))
    backend = MockBackend(fixtures)
    policy, _ = _policy()
    manifest = run_batch(TEMPLATES[:1], [LANG], [MODEL], tmp_path, backend, policy=policy)
    assert [f[0] for f in manifest.failures] == [output_id]
    assert len(backend.call_log) == 3  # 1 + max_retries


def test_run_batch_abort_leaves_resumable_dir(tmp_path):
    backend = DyingMockBackend(_fixtures_for(TEMPLATES), fail_after=1)
    with pytest.raises(MockAborted):
        run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend, parallelism=1)
    written = [p for p in tmp_path.rglob("*.json") if p.name != MANIFEST_FILENAME]
    assert len(written) == 1

    backend.fail_after = None
    manifest = run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend)
    assert len(manifest.completed) == 2
    assert sorted(backend.call_log) == sorted(
        ["test-model/hau/creative/cw_01", "test-model/hau/creative/cw_02"]
    )


def _serial_batch(templates, languages, models, backend):
    """Record bytes by output id and manifest bytes of a batch run one call
    at a time, in a plain loop."""
    records = {}
    for model in models:
        for lang in languages:
            for template in sorted(templates, key=lambda t: t.id):
                request = build_request(template, render_prompt(template, lang), model, lang)
                records[request.output_id] = dumps_record(execute(request, RetryPolicy(), backend)).encode()
    manifest = {
        "models": [m.model_id for m in models],
        "languages": [l.iso_code for l in languages],
        "expected_calls": len(records),
        "completed": sorted(records),
        "failures": [],
    }
    return records, json_file_text(manifest).encode()


def _batch_files(out_dir):
    return {output_id: data for _, output_id, data in record_files(out_dir)}


@pytest.mark.parametrize("parallelism", [1, 4])
def test_run_batch_keeps_only_a_few_calls_in_flight(
    tmp_path, monkeypatch, shipped_templates, shipped_languages, shipped_models, parallelism
):
    languages = [lang for lang in shipped_languages if lang.iso_code in ("hau", "fon")]
    fixtures = load_mock_fixtures(FIXTURES_PATH)
    records, manifest = _serial_batch(shipped_templates, languages, shipped_models, MockBackend(fixtures))
    assert len(records) == 600
    bound = IN_FLIGHT_PER_WORKER * parallelism

    pending, peaks = set(), []
    real_submit = ThreadPoolExecutor.submit

    def counting_submit(self, fn, *args, **kwargs):
        pending.difference_update([future for future in pending if future.done()])
        future = real_submit(self, fn, *args, **kwargs)
        pending.add(future)
        peaks.append(len(pending))
        return future

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    out = tmp_path / "whole"
    run_batch(shipped_templates, languages, shipped_models, out, MockBackend(fixtures), parallelism=parallelism)
    assert len(peaks) == 600 and max(peaks) <= bound
    assert _batch_files(out) == records
    assert (out / MANIFEST_FILENAME).read_bytes() == manifest

    # Cut short: the calls running when the backend dies finish, no queued
    # one is sent, and a resume asks only for the triples without a record.
    class Counting(DyingMockBackend):
        def complete(self, request):
            attempts.append(request.output_id)
            return super().complete(request)

    attempts = []
    out = tmp_path / "resumed"
    with pytest.raises(MockAborted):
        run_batch(
            shipped_templates, languages, shipped_models, out, Counting(fixtures, fail_after=250),
            parallelism=parallelism,
        )
    assert len(attempts) <= 250 + bound
    written = _batch_files(out)
    assert len(written) == 250 and not (out / MANIFEST_FILENAME).exists()
    assert written == {output_id: records[output_id] for output_id in written}
    backend = MockBackend(fixtures)
    manifest_after = run_batch(shipped_templates, languages, shipped_models, out, backend, parallelism=parallelism)
    assert sorted(backend.call_log) == sorted(set(records) - set(written))
    assert manifest_after.new_requests == 350
    assert _batch_files(out) == records
    assert (out / MANIFEST_FILENAME).read_bytes() == manifest


def _requested_and_completed(templates, languages, models, out_dir):
    """The triples ``run_batch`` requests and those it counts as done, with
    a backend that fails every call, so nothing is written."""
    backend = MockBackend({})
    manifest = run_batch(templates, languages, models, out_dir, backend)
    assert sorted(backend.call_log) == [output_id for output_id, _ in manifest.failures]
    return sorted(backend.call_log), manifest.completed


def test_resume_scan_equals_a_stat_per_triple(tmp_path, monkeypatch):
    templates = [
        PromptTemplate(prompt_id, task, "poem", "Write in {language}.")
        for prompt_id, task in [
            ("cw_01", "creative"), ("cw_02", "creative"), ("cw_03", "creative"), ("cw.1", "creative"),
            ("cw.2", "creative"), ("cw_04", "creative"), ("dg_01", "dialogue"), ("qa_01", "qa"),
        ]
    ]
    languages = [LANG, dataclasses.replace(LANG, iso_code="fon")]
    models = [MODEL, dataclasses.replace(MODEL, model_id="org/model")]
    cell = tmp_path / "test-model/hau/creative"
    cell.mkdir(parents=True)
    (cell / "cw_01.json").write_text("{}")  # a record file
    (cell / "cw_02.json").mkdir()  # a directory named like a record
    (tmp_path / "elsewhere.json").write_text("{}")
    (cell / "cw.1.json").symlink_to(tmp_path / "elsewhere.json")
    (cell / "cw.2.json").symlink_to(tmp_path / "gone.json")  # dangling
    (cell / "cw_03.json.tmp").write_text("{")  # a write cut short; cw_04 was never started
    (tmp_path / "test-model/hau/dialogue").write_text("")  # a file where a directory should be
    (tmp_path / "test-model/hau/qa").mkdir()
    (tmp_path / "test-model/hau/qa/qa_01.json").write_text("{}")
    (tmp_path / "org/model/fon/creative").mkdir(parents=True)  # a model id holding "/"
    (tmp_path / "org/model/fon/creative/cw.2.json").write_text("{}")

    triples = [
        output_id_for(model.model_id, lang.iso_code, template.task_type, template.id)
        for model in models for lang in languages for template in templates
    ]
    by_stat = {output_id for output_id in triples if os.path.exists(os.path.join(tmp_path, output_id + ".json"))}
    assert by_stat == {
        "test-model/hau/creative/cw_01", "test-model/hau/creative/cw_02", "test-model/hau/creative/cw.1",
        "test-model/hau/qa/qa_01", "org/model/fon/creative/cw.2",
    }
    expected = (sorted(set(triples) - by_stat), by_stat)
    assert _requested_and_completed(templates, languages, models, tmp_path) == expected

    # A directory that lists but not every name (a file system that matches
    # names case-insensitively), and one that cannot be listed, fall back to
    # a stat per triple.
    real_scandir = os.scandir

    def shy_scandir(path):
        if os.path.basename(os.path.normpath(path)) == "qa":
            raise PermissionError(13, "Permission denied", path)
        entries = list(real_scandir(path))
        return contextlib.nullcontext([entry for entry in entries if entry.name != "cw_01.json"])

    monkeypatch.setattr(os, "scandir", shy_scandir)
    assert _requested_and_completed(templates, languages, models, tmp_path) == expected


def test_resume_of_a_complete_batch_lists_each_record_directory_once(
    tmp_path, monkeypatch, mock_run, shipped_templates, shipped_languages, shipped_models
):
    out = tmp_path / "outputs"
    shutil.copytree(mock_run / "outputs", out)
    languages = [lang for lang in shipped_languages if lang.iso_code in ("hau", "fon")]
    calls = {"scandir": [], "exists": [], "stat": []}

    def counted(name, real):
        def wrapper(path, *args, **kwargs):
            calls[name].append(os.fspath(path))
            return real(path, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(os, "scandir", counted("scandir", os.scandir))
    monkeypatch.setattr(os.path, "exists", counted("exists", os.path.exists))
    monkeypatch.setattr(os, "stat", counted("stat", os.stat))
    backend = MockBackend({})
    manifest = run_batch(shipped_templates, languages, shipped_models, out, backend)
    monkeypatch.undo()

    assert (manifest.new_requests, len(manifest.completed), backend.call_log) == (0, 600, [])
    directories = {output_id.rpartition("/")[0] for output_id in manifest.completed}
    assert len(directories) == 24
    assert sorted(calls["scandir"]) == sorted(os.path.join(out, directory) for directory in directories)
    assert calls["exists"] == []
    assert len(calls["stat"]) < len(directories)  # creating out_dir and writing the manifest
    assert (out / MANIFEST_FILENAME).read_bytes() == (mock_run / "outputs" / MANIFEST_FILENAME).read_bytes()


def test_cold_batch_requests_in_prompt_id_order(tmp_path, shipped_templates, shipped_languages, shipped_models):
    # Planning groups the templates by task type; each task type's ids are
    # contiguous in id order, so the calls go out as a sort by id sends them.
    languages = [lang for lang in shipped_languages if lang.iso_code in ("hau", "fon")]
    backend = MockBackend(load_mock_fixtures(FIXTURES_PATH))
    run_batch(shipped_templates, languages, shipped_models, tmp_path / "outputs", backend)
    assert backend.call_log == [
        output_id_for(model.model_id, lang.iso_code, template.task_type, template.id)
        for model in shipped_models
        for lang in languages
        for template in sorted(shipped_templates, key=lambda t: t.id)
    ]


def test_cold_batch_creates_each_record_directory_once(
    tmp_path, monkeypatch, mock_run, shipped_templates, shipped_languages, shipped_models
):
    out = tmp_path / "outputs"
    languages = [lang for lang in shipped_languages if lang.iso_code in ("hau", "fon")]
    calls = {"mkdir": [], "stat": []}

    def counted(name, real):
        def wrapper(path, *args, **kwargs):
            calls[name].append(os.fspath(path))
            return real(path, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(os, "mkdir", counted("mkdir", os.mkdir))
    monkeypatch.setattr(os, "stat", counted("stat", os.stat))
    backend = MockBackend(load_mock_fixtures(FIXTURES_PATH))
    manifest = run_batch(shipped_templates, languages, shipped_models, out, backend)
    monkeypatch.undo()

    assert (manifest.new_requests, len(manifest.completed)) == (600, 600)
    directories = {output_id.rpartition("/")[0] for output_id in manifest.completed}
    assert len(directories) == 24
    # A directory is made when the first temp file in it cannot be opened,
    # not once per write.
    assert len(calls["mkdir"]) < 2 * len(directories)
    assert len(calls["stat"]) < len(directories)
    shipped = mock_run / "outputs"
    assert sorted(path.relative_to(out) for path in out.rglob("*")) == sorted(
        path.relative_to(shipped) for path in shipped.rglob("*")
    )
    for path in out.rglob("*.json"):
        assert path.read_bytes() == (shipped / path.relative_to(out)).read_bytes()


def test_rate_gate_spaces_requests(tmp_path):
    model = ModelConfig(
        model_id="test-model",
        endpoint_url=MODEL.endpoint_url,
        api_key_env_var="TEST_MODEL_KEY",
        temperature=0.7,
        top_p=0.95,
        max_output_tokens=256,
        system_prompt_template="x",
        min_request_interval=0.03,
    )
    backend = MockBackend(_fixtures_for(TEMPLATES))
    run_batch(TEMPLATES, [LANG], [model], tmp_path, backend, parallelism=4)
    times = sorted(backend.call_times)
    assert len(times) == 2
    assert times[1] - times[0] >= 0.02


def test_dumps_record_shape():
    record = GenerationRecord(
        output_id="m/hau/creative/cw_01",
        prompt_id="cw_01",
        model_id="m",
        language="hau",
        task_type="creative",
        rendered_prompt="p",
        system_prompt="s",
        sampling=SamplingParams(0.7, 0.95, 256),
        response_text="amsa",
        finish_reason="stop",
        request_timestamp=MOCK_TIMESTAMP,
        latency=0.0,
        attempt_count=1,
    )
    text = dumps_record(record)
    assert text == (
        "{\n"
        '  "attempt_count": 1,\n'
        '  "finish_reason": "stop",\n'
        '  "language": "hau",\n'
        '  "latency": 0.0,\n'
        '  "model_id": "m",\n'
        '  "output_id": "m/hau/creative/cw_01",\n'
        '  "prompt_id": "cw_01",\n'
        '  "rendered_prompt": "p",\n'
        '  "request_timestamp": "1970-01-01T00:00:00+00:00",\n'
        '  "response_text": "amsa",\n'
        '  "sampling": {\n'
        '    "max_output_tokens": 256,\n'
        '    "temperature": 0.7,\n'
        '    "top_p": 0.95\n'
        "  },\n"
        '  "system_prompt": "s",\n'
        '  "task_type": "creative"\n'
        "}\n"
    )
    assert decoder(GenerationRecord)(json.loads(text)) == record


def test_read_records_rejects_duplicates(tmp_path):
    backend = MockBackend(_fixtures_for(TEMPLATES))
    run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend)
    source = record_path(tmp_path, "test-model/hau/creative/cw_01")
    clone = source.with_name("zz_99.json")
    clone.write_text(source.read_text())
    with pytest.raises(ValueError, match="corrupted run directory"):
        records_under(tmp_path)


def test_read_records_compares_dotted_names_with_record_path(tmp_path):
    # A dotted prompt id keeps its dot: ".../cw.1" lives in cw.1.json.
    record = GenerationRecord(
        "m/hau/creative/cw.1", "cw.1", "m", "hau", "creative", "p", "s",
        SamplingParams(0.7, 0.95, 256), "amsa", "stop", MOCK_TIMESTAMP, 0.0, 1,
    )
    path = record_path(tmp_path, record.output_id)
    assert path.name == "cw.1.json"
    path.parent.mkdir(parents=True)
    path.write_text(dumps_record(record), encoding="utf-8")
    assert records_under(tmp_path) == [record]
    path.rename(path.with_name("cw.json"))
    with pytest.raises(DataError, match=r"cw\.json: holds output_id"):
        records_under(tmp_path)


def _write_record(out_dir, output_id, path=None):
    model, language, task, prompt = output_id.split("/")
    record = GenerationRecord(
        output_id, prompt, model, language, task, "p", "s",
        SamplingParams(0.7, 0.95, 256), "amsa", "stop", MOCK_TIMESTAMP, 0.0, 1,
    )
    path = path or record_path(out_dir, output_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_record(record), encoding="utf-8")


def _rglob_records(out_dir, digests):
    """The reader ``record_files`` and ``load_record`` replaced (``rglob`` and
    ``record_path`` equality), with its files sorted in output-id order: by
    their path under ``out_dir`` without the ``.json``."""
    records = []
    paths = sorted(Path(out_dir).rglob("*.json"), key=lambda path: path.relative_to(out_dir).as_posix()[:-5])
    for path in paths:
        if path.name == MANIFEST_FILENAME:
            continue
        data = path.read_bytes()
        record = parse_record(GenerationRecord, data, path)
        if path != record_path(out_dir, record.output_id):
            raise DataError(
                f"{path}: holds output_id '{record.output_id}', whose record file is "
                f"{record_path(out_dir, record.output_id)} (corrupted run directory)"
            )
        digests[record.output_id] = hashlib.sha256(data).hexdigest()
        records.append(record)
    return sorted(records, key=lambda r: r.output_id)


@pytest.mark.parametrize("spelling", ["path", "trailing_separator", "working_directory"])
def test_read_records_walk_finds_what_rglob_finds(tmp_path, monkeypatch, spelling):
    out = tmp_path / "outputs"
    for output_id in ("m/hau/creative/cw.1", "m/hau/creative/cw.2", "m/fon/creative/cw_01",
                      ".hidden/hau/creative/cw_01"):
        _write_record(out, output_id)
    (out / "m/hau/creative/notes.txt").write_text("not a record")
    (out / MANIFEST_FILENAME).write_text('{"models": []}\n')
    # Followed, the link would show each record a second time, misplaced.
    (out / "linked").symlink_to(out / "m", target_is_directory=True)
    out_dir = {"path": out, "trailing_separator": str(out) + os.sep, "working_directory": "."}[spelling]
    if spelling == "working_directory":
        monkeypatch.chdir(out)
        out = Path(".")

    ids = [".hidden/hau/creative/cw_01", "m/fon/creative/cw_01", "m/hau/creative/cw.1", "m/hau/creative/cw.2"]
    files = list(record_files(out_dir))
    assert [(path, output_id) for path, output_id, _ in files] == [
        (str(record_path(out_dir, output_id)), output_id) for output_id in ids
    ]
    old_digests = {}
    assert [load_record(out_dir, *entry) for entry in files] == _rglob_records(out_dir, old_digests)
    assert {output_id: hashlib.sha256(data).hexdigest() for _, output_id, data in files} == old_digests

    # Output-id order puts creative.json (it names "m/hau/creative") before
    # creative/zz.json ("m/hau/creative/zz"), so both readers name
    # creative.json; path-component order would put zz.json first.
    _write_record(out, "m/hau/creative/cw.1", out / "m/hau/creative/zz.json")
    _write_record(out, "m/hau/creative/cw.2", out / "m/hau/creative.json")
    prefix = "" if spelling == "working_directory" else f"{out}{os.sep}"
    message = (
        f"{prefix}m/hau/creative.json: holds output_id 'm/hau/creative/cw.2', whose record file is "
        f"{prefix}m/hau/creative/cw.2.json (corrupted run directory)"
    )
    for read in (lambda: records_under(out_dir), lambda: _rglob_records(out_dir, {})):
        with pytest.raises(DataError) as raised:
            read()
        assert str(raised.value) == message


def test_read_records_walks_into_a_directory_named_like_a_record(tmp_path):
    _write_record(tmp_path, "m/hau/creative/cw_01")
    odd = tmp_path / "m/hau/creative/odd.json"
    odd.mkdir()
    assert [(output_id, data) for _, output_id, data in record_files(tmp_path)] == [
        ("m/hau/creative/cw_01", record_path(tmp_path, "m/hau/creative/cw_01").read_bytes())
    ]
    _write_record(tmp_path, "m/hau/creative/cw_01", odd / "cw_01.json")
    assert [path for path, _, _ in record_files(tmp_path)] == [
        str(record_path(tmp_path, "m/hau/creative/cw_01")), str(odd / "cw_01.json")
    ]
    with pytest.raises(DataError, match=r"odd\.json/cw_01\.json: holds output_id"):
        records_under(tmp_path)


def test_dotted_prompt_ids_get_their_own_record_files(tmp_path):
    templates = [
        PromptTemplate(f"cw.{n}", "creative", "poem", "Write a poem in {language}.")
        for n in (1, 2)
    ]
    backend = MockBackend(_fixtures_for(templates))
    manifest = run_batch(templates, [LANG], [MODEL], tmp_path, backend)
    ids = ["test-model/hau/creative/cw.1", "test-model/hau/creative/cw.2"]
    assert sorted(backend.call_log) == ids
    assert len(manifest.completed) == 2
    assert len({record_path(tmp_path, output_id) for output_id in ids}) == 2
    assert [output_id for _, output_id, _ in record_files(tmp_path)] == ids
    assert [record.output_id for record in records_under(tmp_path)] == ids


def test_read_records_sorted(tmp_path):
    backend = MockBackend(_fixtures_for(TEMPLATES))
    run_batch(TEMPLATES, [LANG], [MODEL], tmp_path, backend)
    files = list(record_files(tmp_path))
    ids = [output_id for _, output_id, _ in files]
    assert ids == sorted(ids)
    assert [load_record(tmp_path, *entry).output_id for entry in files] == ids


@settings(max_examples=40, deadline=None)
@given(st.sets(
    st.tuples(
        st.sampled_from(["m", "m-x", "m.x", "m_x", "mx"]),
        st.sampled_from(["hau", "fon"]),
        st.sampled_from(["creative", "dialogue"]),
        st.sampled_from(["cw", "cw.1", "cw.10", "cw.2", "cw-1", "cw_1", "cw.json"]),
    ),
    min_size=1,
    max_size=25,
))
def test_record_files_walk_in_output_id_order(triples):
    # "-" and "." sort before "/", "_" and letters after it: a path-component
    # walk would put the "m" directory before "m-x" and "m.x".
    ids = sorted(output_id_for(*fields) for fields in triples)
    with tempfile.TemporaryDirectory() as scratch:
        for output_id in ids:
            _write_record(Path(scratch), output_id)
        walked = [output_id for _, output_id, _ in record_files(scratch)]
    assert walked == ids
    cells = [output_id.rsplit("/", 1)[0] for output_id in walked]
    assert len([cell for cell, _ in groupby(cells)]) == len(set(cells))


@pytest.mark.parametrize("size", [0, 1 << 20])
def test_record_files_yield_the_bytes_on_disk(tmp_path, size):
    path = tmp_path / "m/hau/creative/cw_01.json"
    path.parent.mkdir(parents=True)
    path.write_bytes(random.Random(size).randbytes(size))
    assert list(record_files(tmp_path)) == [(str(path), "m/hau/creative/cw_01", path.read_bytes())]


@pytest.mark.parametrize("reported", [0, 10])
def test_record_files_read_past_the_size_fstat_reports(tmp_path, monkeypatch, reported):
    # A file that grew after the fstat is read to its end, as read() reads it.
    path = tmp_path / "m/hau/creative/cw_01.json"
    path.parent.mkdir(parents=True)
    path.write_bytes(random.Random(0).randbytes(100_000))
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_mode=real_fstat(fd).st_mode, st_size=reported))
    assert [data for _, _, data in record_files(tmp_path)] == [path.read_bytes()]


def test_record_files_name_a_directory_as_open_does(tmp_path, monkeypatch):
    # The walk never yields a directory, but one can replace a file after
    # the listing; the error is open()'s, naming the path.
    odd = tmp_path / "m/hau/creative/odd.json"
    odd.mkdir(parents=True)
    monkeypatch.setattr(generation, "_json_files", lambda prefix, top: iter([str(odd)]))
    with pytest.raises(IsADirectoryError) as raised:
        list(record_files(tmp_path))
    with pytest.raises(IsADirectoryError) as opened:
        open(odd, "rb")
    assert str(raised.value) == str(opened.value)


def test_a_closed_walk_leaves_no_file_descriptor_open(tmp_path):
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count descriptors in")
    for output_id in ("m/hau/creative/cw_01", "m/hau/creative/cw_02"):
        _write_record(tmp_path, output_id)
    before = len(os.listdir(fds))
    walk = record_files(tmp_path)
    next(walk)
    walk.close()
    assert len(os.listdir(fds)) == before
