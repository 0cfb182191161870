"""Tests of the benchmark itself: synthesis, gate and span accounting.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import clock
import gate
import pipeline
import run
import spans
import synth

TINY = synth.WorkloadSpec(
    "tiny", replicas=1, topup_replicas=1,
    schedules=(((429, 200), 0.05), ((503, 503, 200), 0.02), ((400,), 0.01)),
)


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(synth.WORKLOADS))
def test_synthesis_is_deterministic_and_seed_sensitive(tmp_path, workload):
    spec = synth.WORKLOADS[workload]
    synth.synthesise(spec, 7, tmp_path / "a")
    synth.synthesise(spec, 7, tmp_path / "b")
    synth.synthesise(spec, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    first = json.loads((tmp_path / "a" / "fixtures.json").read_text(encoding="utf-8"))
    other = json.loads((tmp_path / "c" / "fixtures.json").read_text(encoding="utf-8"))
    assert first.keys() == other.keys()
    changed = sum(first[k]["response_text"] != other[k]["response_text"] for k in first)
    assert changed > len(first) // 2


def test_property_shares_hit_their_targets(tmp_path):
    paper = synth.input_properties(Path(synth.synthesise(synth.WORKLOADS["paper_mix"], 3, tmp_path / "p")["fixtures"]))
    churn = synth.input_properties(Path(synth.synthesise(synth.WORKLOADS["short_churn"], 3, tmp_path / "s")["fixtures"]))

    # 10x the packaged 600 triples, +10% top-up; every call succeeds at once.
    assert paper["records"] == 6600
    assert paper["fon_share"] == 0.5
    assert paper["retry_share"] == paper["failure_share"] == 0.0
    # Only the weak model returns empties (15% of its answers).
    assert 0.05 < paper["empty_share"] < 0.10
    # Fresh sampling: far from the 90% a replicated packaged batch would give.
    assert paper["duplicate_share"] < 0.2
    assert 2.0 < paper["response_mchar"] < 3.5

    # 20x the triples, +10% top-up, short answers, exact schedule shares.
    assert churn["records"] == 13200
    assert churn["retry_share"] == pytest.approx(0.07)
    assert churn["failure_share"] == pytest.approx(0.01)
    assert 0.17 < churn["empty_share"] < 0.23
    assert churn["duplicate_share"] > 0.5
    # One or two seed sentences: well under 200 characters per answer.
    assert churn["response_mchar"] * 1e6 / churn["records"] < 200


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    """An untraced and a traced pass over a 1,200-triple workload."""
    root = tmp_path_factory.mktemp("tiny")
    inputs = synth.synthesise(TINY, 0, root / "inputs")
    jobs = {}
    for traced in (False, True):
        job = dict(inputs, pass_dir=str(root / f"pass-{traced}"), seed=0, trace=traced, seconds=0)
        Path(job["pass_dir"]).mkdir()
        recorder = spans.Recorder() if traced else None
        if traced:
            with spans.installed(recorder):
                timings = pipeline.run_pass(job, recorder)
            timings["table"] = spans.summarise(recorder.spans)
            timings["spans"] = recorder.spans
        else:
            timings = pipeline.run_pass(job)
        jobs[traced] = (job, timings)
    return inputs, jobs


def test_tiny_pass_outputs_pass_the_gate(tiny_pass):
    inputs, jobs = tiny_pass
    untraced_job, timings = jobs[False]
    traced_job, _ = jobs[True]
    pass_dir = Path(untraced_job["pass_dir"])
    assert timings["calls"]["failures"] == round(0.01 * 1200)
    models = inputs["cold_models"] + inputs["topup_models"]
    assert gate.check_generation(pass_dir / "outputs", Path(inputs["fixtures"]), models) == []
    assert gate.check_cold_reevaluate(untraced_job) == []
    # Tracing does not change a single output byte.
    assert gate.compare(gate.digests(pass_dir), gate.digests(Path(traced_job["pass_dir"])), "traced") == []


@pytest.mark.parametrize(
    "relative",
    ["results/evaluations.jsonl", "results/summary.json", "corpus/fon.txt", "reports/efficiency.csv"],
)
def test_flipping_one_output_byte_fails_the_gate(tiny_pass, tmp_path, relative):
    _, jobs = tiny_pass
    job, _ = jobs[False]
    copy = tmp_path / "pass"
    shutil.copytree(job["pass_dir"], copy)
    before = gate.digests(copy)
    target = copy / relative
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    problems = gate.compare(gate.recorded_view(before), gate.recorded_view(gate.digests(copy)), "run")
    assert any(relative in p for p in problems)
    if relative.startswith("results/"):
        assert gate.check_cold_reevaluate(dict(job, pass_dir=str(copy)))


def test_flipping_a_record_byte_fails_the_generation_check(tiny_pass, tmp_path):
    inputs, jobs = tiny_pass
    job, _ = jobs[False]
    outputs = tmp_path / "outputs"
    shutil.copytree(Path(job["pass_dir"]) / "outputs", outputs)
    record = next(p for p in sorted(outputs.rglob("*.json")) if p.name != "manifest.json")
    data = json.loads(record.read_text(encoding="utf-8"))
    data["response_text"] += "x"
    record.write_text(json.dumps(data), encoding="utf-8")
    models = inputs["cold_models"] + inputs["topup_models"]
    assert gate.check_generation(outputs, Path(inputs["fixtures"]), models)


def _union_s(intervals: list[tuple[int, int]]) -> float:
    """Length of the union of nanosecond intervals, in seconds."""
    covered, cursor = 0, None
    for start, end in sorted(intervals):
        if cursor is not None:
            start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered / 1e9


def test_wrapped_self_times_cover_the_stage_but_its_glue(tiny_pass):
    _, jobs = tiny_pass
    traced = jobs[True][1]
    recorded = traced["spans"]
    selfs = spans.self_times(recorded)
    for stage, wall in traced["stage_total_s"].items():
        wrapped = [s for s in recorded if spans.stage_of(s) == stage and not s.name.startswith("stage.")]
        top_level = [s for s in wrapped if s.parent.name == f"stage.{stage}"]
        assert top_level, stage
        self_sum = sum(selfs[id(s)] for s in wrapped)
        # Self times neither double-count nor lose time: together they are
        # the time some wrapped function was running, taken as the plain
        # union of the spans' intervals.
        assert self_sum == pytest.approx(_union_s([(s.start, s.end) for s in wrapped]), abs=1e-6), stage
        # What the wrapped functions leave uncovered is the benchmark's own
        # glue: argument lists, stdout redirection and the calibration
        # handler when it fires outside every wrapped function.
        glue = wall - self_sum
        assert 0 <= glue <= 0.03 * wall + 0.0005 * len(top_level), (stage, wall, self_sum, len(top_level))
    # Every package module shows up as a layer in the trace.
    names = {name for _, name in traced["table"]}
    for layer in ("taxonomy", "generation", "textstats", "langid", "evaluation", "reporting", "cli"):
        assert any(name.startswith(layer + ".") for name in names), layer


def test_layer_metrics_cover_the_declared_names(tiny_pass):
    _, jobs = tiny_pass
    timings = jobs[True][1]
    layers = pipeline.layer_metrics(timings["table"], timings)
    assert set(layers) == set(run.PER_LAYER) - {"trace.overhead_s"}
    assert all(value > 0 for value, _ in layers.values())


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = spans.Span("parent", None, 1)
    parent.start, parent.end = 0, 100
    children = []
    for start, end, thread in ((10, 50, 2), (30, 70, 3), (90, 120, 2)):
        child = spans.Span("child", parent, thread)
        child.start, child.end = start, end
        children.append(child)
    selfs = spans.self_times([parent] + children)
    # Children cover 10-70 and 90-100 of the parent: 70 ns of its 100.
    assert selfs[id(parent)] == pytest.approx(30e-9)


def test_worker_thread_spans_nest_under_the_open_owner_span():
    recorder = spans.Recorder()
    with recorder.span("outer"):
        worker = threading.Thread(target=recorder.wrap("inner", lambda: None))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    inner = next(s for s in recorder.spans if s.name == "inner")
    assert inner.parent is not None and inner.parent.name == "outer"


def test_missing_wrapped_function_is_skipped():
    recorder = spans.Recorder()
    wrapped = (("lexglean.cli", "no_such_function", "cli.gone", None),) + spans.WRAPPED[:1]
    import lexglean.cli
    import lexglean.taxonomy

    original = lexglean.taxonomy.load_taxonomy
    with spans.installed(recorder, wrapped):
        assert lexglean.taxonomy.load_taxonomy is not original
        assert not hasattr(lexglean.cli, "no_such_function")
    assert lexglean.taxonomy.load_taxonomy is original


def test_cpu_seconds_include_waited_for_children():
    busy = "import time\nend = time.process_time() + 0.3\nwhile time.process_time() < end: pass"
    before = clock.cpu_seconds()
    subprocess.run([sys.executable, "-c", busy], check=True, timeout=60)
    assert clock.cpu_seconds() - before >= 0.3


def test_cpu_time_above_wall_time_means_more_than_one_cpu():
    # One CPU: CPU time never exceeds wall time.
    assert not clock.used_more_than_one_cpu(wall_s=8.0, cpu_s=8.0)
    assert not clock.used_more_than_one_cpu(wall_s=0.001, cpu_s=0.004)  # within a clock tick
    # Two workers busy for most of the stage.
    assert clock.used_more_than_one_cpu(wall_s=8.0, cpu_s=12.0)


def test_benchmark_json_declares_what_the_bench_prints():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in declared["workloads"]} == set(synth.WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in declared[section]} == table
