"""One measured pass of the pipeline, run in a process of its own.

Usage: ``python3 perfbench/pipeline.py JOB.json`` where the job file names
the synthesised inputs and a pass directory; the pass writes its outputs
under that directory and its timings to ``<pass dir>/timings.json``.

The pass is a batch job, a closed loop driven by one caller, single-process
and in-process:

1. set-up: load and validate config and taxonomy, load the fixtures, load
   the seed corpora and train the LID profiles;
2. generate, cold: ``run_batch`` into an empty directory;
3. resume: ``run_batch`` again on the complete directory;
4. evaluate, cold, through the CLI with ``--reference`` for every language;
5. top-up: ``run_batch`` for the extra replica models, then re-evaluate;
6. filter, through the CLI;
7. report: every table kind in every format, through the CLI.

``SCHEDULE`` fixes the order, with the repeated stages spread over the pass;
if the pass has measured less than the job's ``seconds`` by then, rounds of
``FILLER`` stages follow until it has.  Every stage is timed in wall
seconds, in CPU seconds and in normalised seconds (see ``clock.py``).  With
``"trace": true`` the package's public functions are wrapped (see
``spans.py``) and the per-layer metrics are derived from the spans.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from lexglean import cli, data_dir, generation, langid, taxonomy  # noqa: E402
from lexglean.reporting import FORMATS, TABLE_KINDS  # noqa: E402

import clock  # noqa: E402
import spans  # noqa: E402

# One generation thread: the mock backend has no latency to overlap, so a
# second thread only adds contention for the interpreter lock and makes
# the generate timings far less repeatable.
PARALLELISM = 1
EXTENSIONS = {"csv": "csv", "latex": "tex", "json": "json"}
STAGES = ("generate", "resume", "evaluate", "topup", "reevaluate", "filter", "report")
# The order of one pass.  Set-up and the stages that leave their inputs as
# they were run several times, spread over the pass so that their median
# samples more than one stretch of the machine's drifting speed; generate,
# evaluate, top-up and re-evaluate run once, as each changes or depends on
# the state the next one sees.
SCHEDULE = (
    "setup", "generate", "setup", "resume", "setup", "evaluate", "setup", "resume",
    "topup", "setup", "reevaluate", "setup", "resume", "filter", "report", "setup",
    "filter", "report", "setup", "filter", "report", "setup", "filter", "resume", "filter",
    "setup",
)
# Stages that leave their inputs as they were, repeated in this order after
# ``SCHEDULE`` until the pass has measured the job's ``seconds``.
FILLER = ("setup", "resume", "filter", "report")
# The stages after generation: every stage but the two that write the records.
OFFLINE = ("resume", "evaluate", "reevaluate", "filter", "report")
# Stages whose work runs on ``run_batch`` worker threads.
GENERATING = ("generate", "resume", "topup")
# The directory each stage writes, flushed (untimed) once the stage is done.
WRITES = {"generate": "outputs", "resume": "outputs", "evaluate": "results", "topup": "outputs",
          "reevaluate": "results", "filter": "corpus", "report": "reports"}


class PipelineFailed(RuntimeError):
    """A CLI stage exited non-zero."""


def fsync_tree(path: Path) -> None:
    """Flush every file under ``path`` to disk.

    The kernel writes dirty pages back about 30 s after they were written,
    which would land in whichever stage runs then; flushing the files a
    stage wrote before the next stage starts keeps that cost out of it.
    """
    for item in sorted(path.rglob("*")) + [path]:
        fd = os.open(item, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def setup(config_dir: Path, fixtures_path: Path):
    languages = taxonomy.load_language_configs(config_dir / "languages.json")
    models = taxonomy.load_model_configs(config_dir / "models.json")
    templates = taxonomy.load_taxonomy(config_dir / "taxonomy.json")
    if not taxonomy.validate_taxonomy(templates).ok:
        raise PipelineFailed(f"{config_dir / 'taxonomy.json'} failed validation")
    fixtures = generation.load_mock_fixtures(fixtures_path)
    langid.train_profiles(langid.load_seed_corpora(data_dir() / "seeds"))
    return templates, languages, {model.model_id: model for model in models}, fixtures


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    if code != 0:
        raise PipelineFailed(f"lexglean {' '.join(map(str, argv))} exited {code}")


def evaluate_argv(config_dir, outputs, results, references: dict[str, str]) -> list:
    argv = ["--config", config_dir, "evaluate", "--outputs", outputs, "--results", results]
    for language, path in sorted(references.items()):
        argv += ["--reference", f"{language}={path}"]
    return argv


def report_all(config_dir, results: Path, reports: Path) -> None:
    for kind in TABLE_KINDS:
        for fmt in FORMATS:
            run_cli(
                ["--config", config_dir, "report", "--results", results, "--kind", kind,
                 "--format", fmt, "--out", reports / f"{kind}.{EXTENSIONS[fmt]}"]
            )


def run_pass(job: dict, recorder: spans.Recorder | None = None) -> dict:
    """Run set-up and phases 2-7 in ``SCHEDULE`` order; return timings and counts."""
    stage = (lambda name: recorder.span(f"stage.{name}")) if recorder else (lambda name: contextlib.nullcontext())
    config_dir, work = Path(job["config_dir"]), Path(job["pass_dir"])
    outputs, results = work / "outputs", work / "results"
    corpus, reports = work / "corpus", work / "reports"
    calls = {"requests": 0, "failures": 0, "calls": 0, "attempts": 0, "records": 0}
    state: dict = {}

    def do_setup():
        state["templates"], state["languages"], state["models"], state["fixtures"] = setup(
            config_dir, Path(job["fixtures"])
        )

    def generate(model_ids: list[str], count: bool = True):
        backend = generation.MockBackend(state["fixtures"])
        policy = generation.RetryPolicy(base_delay=0.0, rng=random.Random(job["seed"]))
        manifest = generation.run_batch(
            state["templates"], state["languages"], [state["models"][m] for m in model_ids],
            outputs, backend, parallelism=PARALLELISM, policy=policy,
        )
        if count:
            calls["calls"] += manifest.new_requests
            calls["attempts"] += len(backend.call_log)
            calls["records"] += manifest.new_requests - len(manifest.failures)
        return manifest

    evaluate = evaluate_argv(config_dir, outputs, results, job["references"])
    actions = {
        "setup": do_setup,
        "generate": lambda: generate(job["cold_models"]),
        "resume": lambda: generate(job["cold_models"], count=not intervals["resume"]),
        "evaluate": lambda: run_cli(evaluate),
        "topup": lambda: generate(job["topup_models"]),
        "reevaluate": lambda: run_cli(evaluate),
        "filter": lambda: run_cli(
            ["--config", config_dir, "filter", "--results", results, "--outputs", outputs,
             "--out", corpus]
        ),
        "report": lambda: report_all(config_dir, results, reports),
    }
    # Per stage run: (start, end, CPU seconds).
    intervals: dict[str, list[tuple[float, float, float]]] = {name: [] for name in actions}
    manifests = {}

    def run_stage(name: str) -> None:
        with clock.pinned() if name in GENERATING else contextlib.nullcontext():
            cpu = clock.cpu_seconds()
            started = time.perf_counter()
            with stage(name):
                result = actions[name]()
            intervals[name].append((started, time.perf_counter(), clock.cpu_seconds() - cpu))
        manifests.setdefault(name, result)
        if name in WRITES:
            fsync_tree(work / WRITES[name])

    with clock.SpeedSampler() as sampler:
        for name in SCHEDULE:
            run_stage(name)
        while sum(end - start for runs in intervals.values() for start, end, _ in runs) < job["seconds"]:
            for name in FILLER:
                run_stage(name)
    seconds = {
        name: [sampler.normalised(start, end) for start, end, _ in runs]
        for name, runs in intervals.items()
    }

    cold, resumed, topup = manifests["generate"], manifests["resume"], manifests["topup"]
    if resumed.new_requests != len(cold.failures):
        raise PipelineFailed(f"resume re-requested {resumed.new_requests} triples")
    for manifest in (cold, topup):
        calls["requests"] += manifest.new_requests
        calls["failures"] += len(manifest.failures)
    cold_records = cold.new_requests - len(cold.failures)
    all_records = cold_records + topup.new_requests - len(topup.failures)
    return {
        "stage_s": {name: statistics.median(values) for name, values in seconds.items()},
        "stage_wall_s": {
            name: statistics.median(end - start for start, end, _ in runs) for name, runs in intervals.items()
        },
        "stage_total_s": {name: sum(end - start for start, end, _ in runs) for name, runs in intervals.items()},
        "multi_cpu": [
            {"stage": name, "wall_s": end - start, "cpu_s": cpu}
            for name, runs in intervals.items()
            for start, end, cpu in runs
            if clock.used_more_than_one_cpu(end - start, cpu)
        ],
        "repeats": {name: len(values) for name, values in seconds.items()},
        "cold_records": cold_records,
        "all_records": all_records,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(timings: dict, times: str = "stage_s") -> dict[str, float]:
    """The end-to-end metrics of one pass, gated or not (see run.py).

    ``times`` picks the stage times: ``"stage_s"`` (normalised, as gated) or
    ``"stage_wall_s"`` (raw wall seconds, printed beside them).
    """
    stage_s, calls = timings[times], timings["calls"]
    return {
        "setup_s": stage_s["setup"],
        "pipeline_s": sum(stage_s[name] for name in STAGES),
        "offline_s": sum(stage_s[name] for name in OFFLINE),
        "generate_rec_per_s": timings["cold_records"] / stage_s["generate"],
        "resume_noop_s": stage_s["resume"],
        "evaluate_rec_per_s": timings["cold_records"] / stage_s["evaluate"],
        "reevaluate_s": stage_s["reevaluate"],
        "filter_rec_per_s": timings["all_records"] / stage_s["filter"],
        "peak_rss_mb": timings["peak_rss_mb"],
        "ok_share": (calls["requests"] - calls["failures"]) / calls["requests"],
        "failed_share": calls["failures"] / calls["requests"],
    }


def layer_metrics(table: dict, timings: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, each with the base it rests on.

    A ``_s`` metric is seconds per pass: a stage run several times counts
    once, with its mean.  Rates and per-call figures pool every call.
    """
    repeats = timings["repeats"]

    def get(name: str, stage: str | None = None) -> spans.Totals:
        return table.get((stage, name), spans.Totals())

    def per_pass(name: str, stages=("setup",) + STAGES, field: str = "total_s") -> float:
        return sum(getattr(get(name, s), field) / repeats[s] for s in stages)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out: dict[str, tuple[float, str]] = {}
    loaders = ("taxonomy.load_taxonomy", "taxonomy.validate_taxonomy",
               "taxonomy.load_language_configs", "taxonomy.load_model_configs")
    out["taxonomy.load_validate_s"] = (
        sum(per_pass(n, ("setup",)) for n in loaders), f"mean of {repeats['setup']} set-ups"
    )
    render, build = get("taxonomy.render_prompt"), get("taxonomy.build_request")
    out["taxonomy.render_us_per_call"] = (
        ratio(1e6 * (render.total_s + build.total_s), render.calls),
        f"render_prompt + build_request, {render.calls} triples",
    )

    execute, dumps = get("generation.execute"), get("generation.dumps_record")
    calls = timings["calls"]
    out["generation.execute_us_per_call"] = (
        ratio(1e6 * execute.total_s, execute.calls), f"{execute.calls} calls"
    )
    out["generation.useful_per_attempt"] = (
        ratio(calls["records"], calls["attempts"]),
        f"{calls['records']} records / {calls['attempts']} attempts",
    )
    out["generation.calls"] = (float(calls["calls"]), "calls made by phases 2, 3 and 5")
    out["generation.dumps_record_us"] = (
        ratio(1e6 * dumps.total_s, dumps.calls), f"{dumps.calls} records dumped"
    )
    out["generation.run_batch_self_s"] = (
        per_pass("generation.run_batch", ("generate",), "self_s"), "cold generate"
    )
    read = get("generation.read_records")
    out["generation.read_records_rec_per_s"] = (
        ratio(read.counts["records"], read.total_s), f"{read.counts['records']} records read"
    )

    textstats_calls = 0
    for metric, name in (
        ("tokenize", "textstats.tokenize"),
        ("segment", "textstats.segment_sentences"),
        ("trigram_profile", "textstats.trigram_profile"),
        ("diacritic", "textstats.diacritic_stats"),
    ):
        totals = get(name)
        textstats_calls += totals.calls
        chars = totals.counts["chars"]
        out[f"textstats.{metric}_mchar_per_s"] = (
            ratio(chars / 1e6, totals.total_s), f"{chars / 1e6:.3f} Mchar in {totals.calls} calls"
        )
    out["textstats.calls"] = (float(textstats_calls), "tokenize + segment + trigram + diacritic")

    train = get("langid.train_profiles")
    out["langid.train_s"] = (ratio(train.total_s, train.calls), f"mean of {train.calls} trainings")
    assess, scores = get("langid.assess"), get("langid.scores")
    out["langid.assess_rec_per_s"] = (
        ratio(assess.calls, assess.total_s), f"{assess.calls} records assessed"
    )
    out["langid.scores_calls"] = (float(scores.calls), "document + sentence scorings")
    out["langid.scores_us_per_call"] = (
        ratio(1e6 * scores.total_s, scores.calls), f"{scores.calls} scorings"
    )

    evaluate_output = get("evaluation.evaluate_output")
    out["evaluation.evaluate_output_self_us"] = (
        ratio(1e6 * evaluate_output.self_s, evaluate_output.calls),
        f"{evaluate_output.calls} records",
    )
    out["evaluation.reference_overlap_s"] = (
        per_pass("evaluation.reference_overlap"), "evaluate + re-evaluate"
    )
    out["evaluation.aggregate_s"] = (per_pass("evaluation.aggregate"), "evaluate + re-evaluate")
    written = get("evaluation.write_evaluations")
    out["evaluation.write_evaluations_mb_per_s"] = (
        ratio(written.counts["bytes"] / 1e6, written.total_s),
        f"{written.counts['bytes'] / 1e6:.2f} MB in {written.calls} writes",
    )
    read_evals = get("evaluation.read_evaluations")
    out["evaluation.read_evaluations_rec_per_s"] = (
        ratio(read_evals.counts["records"], read_evals.total_s),
        f"{read_evals.counts['records']} evaluations read",
    )
    out["evaluation.export_s"] = (
        per_pass("evaluation.filter_usable") + per_pass("evaluation.export_usable_corpus"),
        "filter_usable + export_usable_corpus",
    )
    out["reporting.render_s"] = (
        per_pass("reporting.render_report") + per_pass("reporting.format_condition_table"),
        "render_report + format_condition_table",
    )
    for stage, name in (
        ("evaluate", "cli.evaluate"),
        ("reevaluate", "cli.evaluate"),
        ("filter", "cli.filter"),
        ("report", "cli.report"),
    ):
        out[f"cli.{stage}.self_s"] = (per_pass(name, (stage,), "self_s"), f"cmd_{name[4:]}")
    return out


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if job["trace"]:
        recorder = spans.Recorder()
        with spans.installed(recorder):
            timings = run_pass(job, recorder)
        table = spans.summarise(recorder.spans)
        timings["layers"] = layer_metrics(table, timings)
        timings["stage_self_sum_s"] = {
            name: sum(
                totals.self_s
                for (stage, span_name), totals in table.items()
                if stage == name and not span_name.startswith("stage.")
            )
            for name in ("setup",) + STAGES
        }
    else:
        timings = run_pass(job)
    timings["end_to_end"] = end_to_end(timings)
    timings["end_to_end_wall"] = end_to_end(timings, "stage_wall_s")
    out = Path(job["pass_dir"]) / "timings.json"
    out.write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
