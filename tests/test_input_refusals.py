"""Every JSON input is read or refused with one ``error:`` line (after
QuickCheck and Hypothesis: Claessen and Hughes 2000, MacIver et al. 2019).

Each reader gets one property test.  It takes a valid input of a small run
(one model, one language and four prompts), mutates it and runs the CLI in
process on a fresh copy of the run.  The mutations: drop a key of an entry,
give it a value of another type or one its validator refuses, nest it
100,000 lists deep, put a lone surrogate, NUL byte, UTF-8 BOM or non-UTF-8
byte in the file, give it a 5,000-digit integer, or cut the file short.

The property: the exit code is a documented one, and on exit 1 or 2 stderr
is exactly one ``error:`` line that starts with the mutated file's path and
every file under the run is as it was.  Exit 3 is a finished ``generate``
whose calls failed, as a model id the fixtures do not know makes them
(the mock answers 404, which is not retried).  A fingerprints file is checked
against the results files it names, so its refusal may start with the path
of the one it disagrees with; its prefix is the results directory.
"""
import codecs
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from lexglean import data_dir
from lexglean.fingerprints import FILENAME, file_digest

from conftest import SEEDS_DIR, run_cli

PROMPTS = ("cg_01", "cw_01", "cw_02", "dl_01")  # cg_01 fills a word list
OUTPUT_IDS = [f"gpt-4o-mini/hau/{task}/{prompt}" for task, prompt in (
    ("constrained", "cg_01"), ("creative", "cw_01"), ("creative", "cw_02"), ("dialogue", "dl_01")
)]
# Command lines, "{run}" standing for the run's directory.
GENERATE = [
    "--config", "{run}/config", "generate", "--taxonomy", "{run}/config/taxonomy.json",
    "--mock", "{run}/fixtures.json", "--out", "{run}/o",
]
EVALUATE = ["evaluate", "--outputs", "{run}/outputs", "--results", "{run}/r"]
REPORT = ["report", "--results", "{run}/results", "--format", "csv", "--kind"]
FILTER = ["filter", "--results", "{run}/results", "--outputs", "{run}/outputs", "--out", "{run}/corpus"]


@dataclass(frozen=True)
class Reader:
    file: str  # relative to the run
    argv: list
    entry: Callable[[Any], dict]  # the entry of the parsed document (of its first line) to mutate
    invalid: tuple | None = None  # a key and a value of the right type that a check refuses
    lines: bool = False  # JSON Lines
    prefix: str | None = None  # what an error line starts with, when not the file's path


READERS = {
    "taxonomy": Reader("config/taxonomy.json", GENERATE, lambda d: d["templates"][0], ("id", "")),
    "languages": Reader("config/languages.json", GENERATE, lambda d: d["languages"][0], ("name", "")),
    "models": Reader("config/models.json", GENERATE, lambda d: d["models"][0], ("top_p", 2)),
    "fixtures": Reader("fixtures.json", GENERATE, lambda d: d[OUTPUT_IDS[0]]),
    "predictions": Reader(
        "predictions.jsonl", EVALUATE + ["--lid", "external:{run}/predictions.jsonl"], lambda d: d, ("doc_conf", 5.0),
        lines=True,
    ),
    "record": Reader(f"outputs/{OUTPUT_IDS[1]}.json", EVALUATE, lambda d: d, ("output_id", OUTPUT_IDS[2])),
    "evaluations": Reader("results/evaluations.jsonl", FILTER, lambda d: d, ("output_id", OUTPUT_IDS[2]), lines=True),
    "summary": Reader("results/summary.json", REPORT + ["full_summary"], lambda d: d["summaries"][0]),
    "overlap": Reader("results/overlap.json", REPORT + ["overlap"], lambda d: d["overlaps"][0]),
    "fingerprints": Reader(f"results/{FILENAME}", FILTER, lambda d: d, prefix="results/"),
}

KINDS = ("drop", "retype", "invalid", "deep", "surrogate", "nul", "bom", "non_utf8", "huge", "truncate")
# Values of every JSON type.  No positive number above 0.01 and no numeric
# string: a model's min_request_interval would make generate sleep that long.
VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, -1, 0.01, -0.5, float("nan"), float("inf"), "nan", "Infinity"]),
    st.text("aé{} ", max_size=4), st.lists(st.text("ab", max_size=2), max_size=2), st.just({}),
)
# A string value that stands for a mutation's JSON text until it is written.
_MARK = "\0mutation"
_TEXTS = {"deep": "[" * 100_000, "surrogate": '"\\ud800"', "huge": "1" * 5000}


def mutated(data: bytes, reader: Reader, kind: str, pick: int, value: Any) -> bytes:
    """The bytes of ``data`` mutated by ``kind``; ``pick`` chooses the key or byte offset."""
    if kind == "bom":
        return codecs.BOM_UTF8 + data
    if kind == "truncate":
        return data[: pick % len(data)]
    if kind in ("nul", "non_utf8"):
        at = pick % (len(data) + 1)
        return data[:at] + (b"\0" if kind == "nul" else b"\xff") + data[at:]
    head, newline, tail = data.partition(b"\n") if reader.lines else (data, b"", b"")
    document = json.loads(head)
    entry = reader.entry(document)
    key = sorted(entry)[pick % len(entry)]
    if kind == "drop":
        del entry[key]
    elif kind == "invalid" and reader.invalid:
        entry[reader.invalid[0]] = reader.invalid[1]
    else:
        entry[key] = value if kind in ("retype", "invalid") else _MARK
    text = json.dumps(document).replace(json.dumps(_MARK), _TEXTS.get(kind, ""))
    return text.encode() + newline + tail


def files(root: Path) -> dict:
    return {path: path.read_bytes() if path.is_file() else None for path in sorted(root.rglob("*"))}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A run of four records with its config, fixtures, external predictions and results."""
    root = tmp_path_factory.mktemp("refusals")
    (root / "config").mkdir()
    for name, key, keep in (("languages.json", "languages", "iso_code"), ("models.json", "models", "model_id")):
        content = json.loads((data_dir() / name).read_text(encoding="utf-8"))
        content[key] = [entry for entry in content[key] if entry[keep] in ("hau", "gpt-4o-mini")]
        (root / "config" / name).write_text(json.dumps(content, indent=2), encoding="utf-8")
    taxonomy = json.loads((data_dir() / "taxonomy.json").read_text(encoding="utf-8"))
    taxonomy["templates"] = [template for template in taxonomy["templates"] if template["id"] in PROMPTS]
    (root / "config" / "taxonomy.json").write_text(json.dumps(taxonomy, indent=2), encoding="utf-8")
    fixtures = json.loads((data_dir() / "mock_fixtures.json").read_text(encoding="utf-8"))
    (root / "fixtures.json").write_text(json.dumps({i: fixtures[i] for i in OUTPUT_IDS}, indent=2), encoding="utf-8")
    rows = [
        {"output_id": i, "doc_label": "hau_Latn", "doc_conf": 0.9, "sentence_labels": [], "sentence_confs": []}
        for i in OUTPUT_IDS
    ]
    (root / "predictions.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    reference = f"--reference=hau={SEEDS_DIR}/hau_Latn.txt"
    for argv in (GENERATE[:-1] + ["{run}/outputs"], EVALUATE[:-1] + ["{run}/results", reference]):
        code, _, err = run_cli([arg.format(run=root) for arg in argv])
        assert code == 0, err
    return root


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), pick=st.integers(0, 1 << 16), value=VALUES)
@example(kind="invalid", pick=0, value=None)
@example(kind="huge", pick=0, value=None)
@example(kind="non_utf8", pick=0, value=None)
def test_a_mutated_input_is_read_or_refused_with_one_error_line(small_run, name, kind, pick, value):
    reader = READERS[name]
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "run"
        shutil.copytree(small_run, root)
        path = root / reader.file
        path.write_bytes(mutated(path.read_bytes(), reader, kind, pick, value))
        if name == "evaluations":  # the fingerprints name the mutated file, so that filter reads it
            content = json.loads((root / "results" / FILENAME).read_text(encoding="utf-8"))
            content["evaluations"] = file_digest(path)
            (root / "results" / FILENAME).write_text(json.dumps(content), encoding="utf-8")
        before = files(root)
        code, _, err = run_cli([arg.format(run=root) for arg in reader.argv])
        assert code in (0, 1, 2) or (code == 3 and reader.argv is GENERATE), err
        if code in (1, 2):
            assert err.startswith(f"error: {root}/{reader.prefix or reader.file}") and err.count("\n") == 1, err
            assert err.endswith("\n")
            assert files(root) == before
