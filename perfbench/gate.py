"""Correctness gate: any mismatch marks a run failed, not slow.

* ``digests`` hashes every output file of a pass.  All passes of a run must
  agree byte for byte, and for a seed listed in ``digests.json`` they must
  match the digests recorded with the baseline.
* ``check_generation`` checks the record files against the fixtures, an
  oracle independent of the program's own reader.
* ``check_cold_reevaluate`` evaluates the grown directory again from cold
  and requires the phase-5 results byte for byte.
* ``check_goldens`` runs the packaged 600-record batch and compares every
  report table with ``tests/golden/`` (read, never written).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pipeline

ROOT = Path(__file__).resolve().parent.parent
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
GOLDEN_DIR = ROOT / "tests" / "golden"

# Files compared against the recorded digests.  ``run_meta.json`` names the
# absolute seeds directory, so it is compared only within a run.
RECORDED = ("outputs", "results/evaluations.jsonl", "results/summary.json",
            "results/summary.csv", "results/overlap.json", "corpus", "reports")
RESULT_FILES = ("evaluations.jsonl", "summary.json", "summary.csv", "overlap.json", "run_meta.json")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(pass_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file of a pass, plus one per output tree."""
    out: dict[str, str] = {}
    for tree in ("outputs", "results", "corpus", "reports"):
        combined = hashlib.sha256()
        for path in sorted((pass_dir / tree).rglob("*")):
            if path.is_file():
                relative = path.relative_to(pass_dir).as_posix()
                out[relative] = _sha256(path)
                combined.update(f"{relative}\0{out[relative]}\n".encode())
        out[tree] = combined.hexdigest()
    return out


def recorded_view(all_digests: dict[str, str]) -> dict[str, str]:
    """The part of ``digests`` that is recorded with the baseline."""
    return {
        key: value
        for key, value in all_digests.items()
        if key in RECORDED or key.startswith(("corpus/", "reports/"))
    }


def compare(expected: dict[str, str], actual: dict[str, str], label: str) -> list[str]:
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            problems.append(f"{label}: {key} differs")
    return problems


def recorded_digests(workload: str, seed: int) -> dict[str, str] | None:
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


def check_generation(outputs: Path, fixtures_path: Path, model_ids: list[str]) -> list[str]:
    """Every 2xx-ending fixture has its record with the served text; no other does."""
    fixtures = json.loads(fixtures_path.read_text(encoding="utf-8"))
    problems = []
    expected_files = set()
    for output_id, fixture in fixtures.items():
        if output_id.split("/")[0] not in model_ids:
            continue
        schedule = fixture["status_schedule"]
        path = outputs.joinpath(*output_id.split("/")).with_suffix(".json")
        if not 200 <= schedule[-1] < 300:
            if path.exists():
                problems.append(f"{output_id}: record written for a failing call")
            continue
        expected_files.add(path)
        if not path.exists():
            problems.append(f"{output_id}: record missing")
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if (record["output_id"], record["response_text"], record["attempt_count"]) != (
            output_id, fixture["response_text"], len(schedule)
        ):
            problems.append(f"{output_id}: record does not match its fixture")
    found = {p for p in outputs.rglob("*.json") if p.name != "manifest.json"}
    problems += [f"{p}: unexpected file" for p in sorted(found - expected_files)]
    return problems


def check_cold_reevaluate(job: dict) -> list[str]:
    """Phase-5 results must equal a cold evaluate of the grown directory."""
    pass_dir = Path(job["pass_dir"])
    cold = pass_dir / "results_cold"
    pipeline.run_cli(
        pipeline.evaluate_argv(job["config_dir"], pass_dir / "outputs", cold, job["references"])
    )
    problems = []
    for name in RESULT_FILES:
        if (pass_dir / "results" / name).read_bytes() != (cold / name).read_bytes():
            problems.append(f"re-evaluate: {name} differs from a cold evaluate")
    return problems


def check_goldens(work: Path) -> list[str]:
    """The packaged 600-record batch must reproduce ``tests/golden`` exactly."""
    from lexglean import data_dir

    outputs, results, reports = work / "outputs", work / "results", work / "reports"
    seeds = data_dir() / "seeds"
    pipeline.run_cli(["generate", "--mock", data_dir() / "mock_fixtures.json", "--out", outputs])
    pipeline.run_cli(
        ["evaluate", "--outputs", outputs, "--results", results,
         "--reference", f"hau={seeds / 'hau_Latn.txt'}", "--reference", f"fon={seeds / 'fon_Latn.txt'}"]
    )
    pipeline.report_all(data_dir(), results, reports)
    golden = sorted(GOLDEN_DIR.glob("*.*"))
    if len(golden) != len(list(reports.iterdir())):
        return [f"golden: {len(golden)} files in {GOLDEN_DIR}, {len(list(reports.iterdir()))} rendered"]
    return [
        f"golden: {path.name} differs"
        for path in golden
        if path.read_bytes() != (reports / path.name).read_bytes()
    ]
