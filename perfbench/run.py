#!/usr/bin/env python3
"""The lexglean pipeline benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_mix --seed 0 --seconds 30 --trace 0

Synthesises the workload from the seed, runs one whole pipeline pass (see
``pipeline.py``) in a fresh process, measuring at least ``--seconds`` of
stages, checks every output (see ``gate.py``) and prints the metrics by
name and unit.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count the gated batches (every
pass plus the packaged golden batch), and ``metrics`` holds the end-to-end
metrics with ``--trace 0`` or the per-layer metrics with ``--trace 1``.  A
traced run measures an untraced and then a traced pass; the per-layer
metrics come from the traced one and ``trace.overhead_s`` is the
difference of their ``offline_s``.

Everything the run writes stays under ``.perfbench_work/`` in the checkout
and is removed at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
# name -> (unit, direction); BENCHMARK.json lists the same names.  Stage
# times are in normalised seconds (norm_s, see clock.py).  setup_s is too,
# but the benchmark format requires the unit "s" for it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "offline_s": ("norm_s", "lower"),
    "resume_noop_s": ("norm_s", "lower"),
    "evaluate_rec_per_s": ("rec/norm_s", "higher"),
    "reevaluate_s": ("norm_s", "lower"),
    "filter_rec_per_s": ("rec/norm_s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("ratio", "higher"),
}
# Printed, not gated (see README.md): the kernel's cost of creating a file
# on this kind of virtual disk drifts several-fold between runs, and
# failed_share is 0 on paper_mix (ok_share is its gated complement).
UNGATED = {
    "pipeline_s": ("norm_s", "lower"),
    "generate_rec_per_s": ("rec/norm_s", "higher"),
    "failed_share": ("ratio", "lower"),
}
# End-to-end metrics that are not times.
COUNTED = ("peak_rss_mb", "ok_share", "failed_share")
PER_LAYER = {
    "taxonomy.load_validate_s": ("s", "lower"),
    "taxonomy.render_us_per_call": ("us", "lower"),
    "generation.execute_us_per_call": ("us", "lower"),
    "generation.useful_per_attempt": ("ratio", "higher"),
    "generation.calls": ("count", "lower"),
    "generation.dumps_record_us": ("us", "lower"),
    "generation.run_batch_self_s": ("s", "lower"),
    "generation.read_records_rec_per_s": ("rec/s", "higher"),
    "textstats.tokenize_mchar_per_s": ("Mchar/s", "higher"),
    "textstats.segment_mchar_per_s": ("Mchar/s", "higher"),
    "textstats.trigram_profile_mchar_per_s": ("Mchar/s", "higher"),
    "textstats.diacritic_mchar_per_s": ("Mchar/s", "higher"),
    "textstats.calls": ("count", "lower"),
    "langid.train_s": ("s", "lower"),
    "langid.assess_rec_per_s": ("rec/s", "higher"),
    "langid.scores_calls": ("count", "lower"),
    "langid.scores_us_per_call": ("us", "lower"),
    "evaluation.evaluate_output_self_us": ("us", "lower"),
    "evaluation.reference_overlap_s": ("s", "lower"),
    "evaluation.aggregate_s": ("s", "lower"),
    "evaluation.write_evaluations_mb_per_s": ("MB/s", "higher"),
    "evaluation.read_evaluations_rec_per_s": ("rec/s", "higher"),
    "evaluation.export_s": ("s", "lower"),
    "reporting.render_s": ("s", "lower"),
    "cli.evaluate.self_s": ("s", "lower"),
    "cli.reevaluate.self_s": ("s", "lower"),
    "cli.filter.self_s": ("s", "lower"),
    "cli.report.self_s": ("s", "lower"),
    "trace.overhead_s": ("norm_s", "lower"),
}


def run_child(job: dict) -> dict:
    """Run one pass in a fresh interpreter and return its timings."""
    pass_dir = Path(job["pass_dir"])
    pass_dir.mkdir(parents=True)
    job_path = pass_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(pass_dir / "stderr.log", "w", encoding="utf-8") as stderr:
        completed = subprocess.run(
            [sys.executable, str(HERE / "pipeline.py"), str(job_path)],
            stdout=subprocess.DEVNULL, stderr=stderr, timeout=150,
        )
    if completed.returncode != 0:
        tail = (pass_dir / "stderr.log").read_text(encoding="utf-8")[-2000:]
        raise SystemExit(f"pass {pass_dir.name} exited {completed.returncode}:\n{tail}")
    return json.loads((pass_dir / "timings.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="least time of stages a pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gate
    import pipeline
    import synth

    if args.workload not in synth.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(synth.WORKLOADS)})")

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work, gate, pipeline, synth)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def measure(args, work: Path, gate, pipeline, synth) -> int:
    inputs = synth.synthesise(synth.WORKLOADS[args.workload], args.seed, work / "inputs")
    pipeline.fsync_tree(work)
    properties = synth.input_properties(Path(inputs["fixtures"]))
    print(f"workload {args.workload}, seed {args.seed}")
    for name, value in properties.items():
        print(f"  input {name} = {value:.6g}")

    problems: list[str] = []
    failed_batches = 0
    passes: dict[bool, dict] = {}
    for traced in [False, True] if args.trace else [False]:
        job = dict(inputs, pass_dir=str(work / f"pass-{'traced' if traced else 'untraced'}"),
                   seed=args.seed, trace=traced, seconds=args.seconds)
        passes[traced] = timings = run_child(job)
        found = gate.digests(Path(job["pass_dir"]))
        pass_problems = [
            f"{entry['stage']}: {entry['cpu_s']:.3f} s of CPU in {entry['wall_s']:.3f} s of wall time; "
            "normalised seconds assume one CPU"
            for entry in timings["multi_cpu"]
        ]
        if not traced:
            reference = found
            outputs = Path(job["pass_dir"]) / "outputs"
            models = inputs["cold_models"] + inputs["topup_models"]
            pass_problems += gate.check_generation(outputs, Path(inputs["fixtures"]), models)
            pass_problems += gate.check_cold_reevaluate(job)
            recorded = gate.recorded_digests(args.workload, args.seed)
            if recorded is None:
                print(f"no recorded digests for seed {args.seed}: outputs are checked against the "
                      "fixtures, a cold evaluate and tests/golden only")
            else:
                pass_problems += gate.compare(recorded, gate.recorded_view(found), "recorded digests")
        else:
            pass_problems += gate.compare(reference, found, "traced pass")
        failed_batches += bool(pass_problems)
        problems += pass_problems

    golden_problems = gate.check_goldens(work / "golden")
    failed_batches += bool(golden_problems)
    problems += golden_problems
    for problem in problems[:50]:
        print(f"FAILED {problem}")

    untraced = passes[False]
    repeats = ", ".join(f"{name} {count}x" for name, count in untraced["repeats"].items())
    measured = sum(untraced["stage_total_s"].values())
    print(f"end-to-end, untraced pass ({measured:.1f} s of stages: {repeats}; medians of repeated stages):")
    for name, (unit, better) in {**END_TO_END, **UNGATED}.items():
        gated = "" if name in END_TO_END else ", not gated"
        raw = ""
        if name not in COUNTED:
            raw = f", raw {untraced['end_to_end_wall'][name]:.6g} {unit.replace('norm_s', 's')} of wall time"
        print(f"  {name} = {untraced['end_to_end'][name]:.6g} {unit} ({better} is better{gated}{raw})")
    metrics: dict[str, dict] = {}
    if args.trace:
        traced_pass = passes[True]
        overhead = traced_pass["end_to_end"]["offline_s"] - untraced["end_to_end"]["offline_s"]
        print("per-layer, traced pass:")
        for name, (unit, better) in PER_LAYER.items():
            if name == "trace.overhead_s":
                value, base = overhead, "traced minus untraced offline_s, in norm_s"
            else:
                value, base = traced_pass["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value:.6g} {unit} ({base})")
        for stage, self_sum in traced_pass["stage_self_sum_s"].items():
            print(f"  stage {stage}: wall {traced_pass['stage_total_s'][stage]:.4f} s, "
                  f"sum of wrapped self times {self_sum:.4f} s")
    else:
        metrics = {name: {"value": untraced["end_to_end"][name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    print(json.dumps(
        {"correct": not problems, "attempted": len(passes) + 1, "failed": failed_batches, "metrics": metrics}
    ))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
