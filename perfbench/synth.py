"""Deterministic, offline synthesis of the benchmark's workload inputs.

``synthesise(spec, seed, work_dir)`` writes a config directory
(``languages.json``, ``models.json``, ``taxonomy.json``) and a mock
fixtures file.  The program under test sees only those files.  The same
``(workload, seed)`` gives byte-identical files; another seed gives other
texts.

Response texts come from the generator functions of
``scripts/make_mock_fixtures.py`` (imported, not copied), drawn from an RNG
seeded by ``(workload, seed, output_id)``, so every replica model gets
freshly sampled texts rather than copies of the packaged 600.
"""
from __future__ import annotations

import importlib.util
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_MODELS = ("gpt-4o-mini", "gemini-2.5-flash")
WEAK_MODEL = "gemini-2.5-flash"


def _load_fixture_generators():
    path = ROOT / "scripts" / "make_mock_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_mock_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload: replicas per base model and the schedule mix."""

    name: str
    replicas: int  # replica indices generated cold (phase 2)
    topup_replicas: int  # extra replica indices added in phase 5 (~10%)
    # Exact shares of fixtures given each non-trivial status schedule.
    schedules: tuple[tuple[tuple[int, ...], float], ...] = ()


WORKLOADS = {
    # 2 base models x 10 replicas x 2 languages x 150 prompts = 6,000 triples.
    "paper_mix": WorkloadSpec("paper_mix", replicas=10, topup_replicas=1),
    # 2 x 20 x 2 x 150 = 12,000 triples with short responses and a seeded
    # mix of retryable and permanent failures.
    "short_churn": WorkloadSpec(
        "short_churn",
        replicas=20,
        topup_replicas=2,
        schedules=(((429, 200), 0.05), ((503, 503, 200), 0.02), ((400,), 0.01)),
    ),
}


def replica_id(base: str, index: int) -> str:
    return f"{base}-r{index:02d}"


def model_ids(spec: WorkloadSpec) -> tuple[list[str], list[str]]:
    """(cold model ids, top-up model ids) in generation order."""
    cold = [replica_id(b, i) for b in BASE_MODELS for i in range(spec.replicas)]
    extra = range(spec.replicas, spec.replicas + spec.topup_replicas)
    topup = [replica_id(b, i) for b in BASE_MODELS for i in extra]
    return cold, topup


def _base_of(model_id: str) -> str:
    return model_id.rsplit("-r", 1)[0]


def _short_response(rng: random.Random, target: list[str], colonial: list[str]) -> tuple[str, str]:
    """Empty, or one or two seed sentences (rarely one colonial-language one)."""
    if rng.random() < 0.2:
        return "", "content_filter"
    lines = [rng.choice(colonial if rng.random() < 0.1 else target) for _ in range(rng.randint(1, 2))]
    return " ".join(lines), "stop"


def synthesise(spec: WorkloadSpec, seed: int, work_dir: Path) -> dict:
    """Write the config directory and fixtures; return their paths and ids."""
    from lexglean import data_dir
    from lexglean.generation import output_id_for
    from lexglean.taxonomy import load_language_configs, load_model_configs, load_taxonomy

    gen = _load_fixture_generators()
    packaged = data_dir()
    config_dir = work_dir / "config"
    config_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(packaged / "languages.json", config_dir / "languages.json")
    shutil.copyfile(packaged / "taxonomy.json", config_dir / "taxonomy.json")

    base_entries = {
        entry["model_id"]: entry
        for entry in json.loads((packaged / "models.json").read_text(encoding="utf-8"))["models"]
    }
    cold, topup = model_ids(spec)
    models_payload = {
        "schema_version": 1,
        "models": [dict(base_entries[_base_of(m)], model_id=m) for m in cold + topup],
    }
    (config_dir / "models.json").write_text(
        json.dumps(models_payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )

    templates = sorted(load_taxonomy(config_dir / "taxonomy.json"), key=lambda t: t.id)
    languages = load_language_configs(config_dir / "languages.json")
    load_model_configs(config_dir / "models.json")  # validates what was written
    seeds = {p.stem: gen.read_lines(p) for p in sorted((packaged / "seeds").glob("*.txt"))}

    fixtures: dict[str, dict] = {}
    for model_id in cold + topup:
        base = _base_of(model_id)
        for lang in languages:
            target = seeds[lang.target_lid_label]
            colonial = seeds[gen.CONTAMINANT_LABELS[lang.colonial_language]]
            for template in templates:
                output_id = output_id_for(model_id, lang.iso_code, template.task_type, template.id)
                rng = random.Random(f"perfbench:{spec.name}:{seed}:{output_id}")
                if spec.schedules:
                    text, finish = _short_response(rng, target, colonial)
                else:
                    prob = gen.switch_prob(base, lang.iso_code, template.task_type)
                    sample = gen.weak_response if base == WEAK_MODEL else gen.strong_response
                    text, finish = sample(rng, target, colonial, prob)
                fixtures[output_id] = {
                    "response_text": text,
                    "finish_reason": finish,
                    "status_schedule": [200],
                }

    # Exact counts, drawn without replacement, so the failure share is the
    # same on every seed.
    ids = sorted(fixtures)
    picker = random.Random(f"perfbench:{spec.name}:{seed}:schedules")
    chosen = picker.sample(ids, sum(round(share * len(ids)) for _, share in spec.schedules))
    start = 0
    for schedule, share in spec.schedules:
        count = round(share * len(ids))
        for output_id in chosen[start : start + count]:
            fixtures[output_id]["status_schedule"] = list(schedule)
        start += count

    fixtures_path = work_dir / "fixtures.json"
    fixtures_path.write_text(
        json.dumps(fixtures, ensure_ascii=False, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {
        "config_dir": str(config_dir),
        "fixtures": str(fixtures_path),
        "cold_models": cold,
        "topup_models": topup,
        "references": {
            lang.iso_code: str(packaged / "seeds" / f"{lang.target_lid_label}.txt")
            for lang in languages
        },
    }


def input_properties(fixtures_path: Path) -> dict:
    """Measured properties of a fixtures file that the workloads vary."""
    from lexglean.textstats import segment_sentences

    fixtures = json.loads(Path(fixtures_path).read_text(encoding="utf-8"))
    texts = [entry["response_text"] for entry in fixtures.values()]
    n = len(texts)
    schedules = [tuple(entry["status_schedule"]) for entry in fixtures.values()]
    return {
        "records": n,
        "response_mchar": sum(len(t) for t in texts) / 1e6,
        "sentences": sum(len(segment_sentences(t)) for t in texts),
        "fon_share": sum(1 for oid in fixtures if oid.split("/")[1] == "fon") / n,
        "empty_share": sum(1 for t in texts if not t) / n,
        "duplicate_share": 1 - len(set(texts)) / n,
        "retry_share": sum(1 for s in schedules if len(s) > 1) / n,
        "failure_share": sum(1 for s in schedules if s[-1] >= 300) / n,
    }
