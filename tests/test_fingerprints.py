"""Incremental evaluate and the fingerprints file that ties results to records.

An evaluate into a results directory that holds an earlier evaluate's
results reuses what still holds; whatever it reuses, every results file
(the fingerprints included) must equal a cold evaluate's byte for byte.
"""
import builtins
import dataclasses
import hashlib
import json
import os
import re
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from lexglean import cli, data_dir, evaluation, fingerprints
from lexglean.codec import load_list, parse_record
from lexglean.evaluation import EvaluationRecord, OverlapResult, read_summaries
from lexglean.fingerprints import FILENAME
from lexglean.generation import GenerationRecord, dumps_record, record_path

from conftest import FIXTURES_PATH, SEEDS_DIR, DiskFull, read_evaluations, records_under, run_cli


def references(*languages):
    return [
        option
        for language in languages
        for option in ("--reference", f"{language}={SEEDS_DIR / (language + '_Latn.txt')}")
    ]


REFERENCES = references("hau", "fon")


@pytest.fixture(scope="module")
def run150(tmp_path_factory):
    """Mock run restricted to one model and one language (150 records)."""
    out = tmp_path_factory.mktemp("run150") / "outputs"
    code, _, err = run_cli(
        ["generate", "--mock", FIXTURES_PATH, "--languages", "hau", "--models", "gpt-4o-mini", "--out", out]
    )
    assert code == 0, err
    return out


@pytest.fixture
def outputs(run150, tmp_path):
    copy = tmp_path / "outputs"
    shutil.copytree(run150, copy)
    return copy


def evaluate(outputs, results, *options):
    """Run evaluate; return how many evaluations it reused."""
    code, stdout, err = run_cli(["evaluate", "--outputs", outputs, "--results", results, *options])
    assert code == 0, err
    return int(re.search(r"^reused (\d+) of \d+ evaluations$", stdout, re.M).group(1))


def files(results):
    return {path.name: path.read_bytes() for path in sorted(Path(results).iterdir())}


def assert_equals_cold(outputs, results, *options):
    cold = Path(results).parent / "cold"
    shutil.rmtree(cold, ignore_errors=True)
    assert evaluate(outputs, cold, *options) == 0
    assert files(results) == files(cold)


def count_overlaps(monkeypatch):
    """The keys of the cells whose overlap evaluate computes from here on."""
    keys = []
    original = cli.reference_overlap
    monkeypatch.setattr(cli, "reference_overlap", lambda key, *rest: keys.append(key) or original(key, *rest))
    return keys


def rewrite(outputs, output_id, text):
    path = record_path(outputs, output_id)
    record = parse_record(GenerationRecord, path.read_bytes(), path)
    path.write_text(dumps_record(dataclasses.replace(record, response_text=text)), encoding="utf-8")


def copy_as(source, outputs, model_id):
    """Copy the records under ``source`` into ``outputs`` as the records of ``model_id``."""
    for record in records_under(source):
        _, language, task_type, prompt_id = record.output_id.split("/")
        output_id = f"{model_id}/{language}/{task_type}/{prompt_id}"
        path = record_path(outputs, output_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        copy = dataclasses.replace(record, output_id=output_id, model_id=model_id)
        path.write_text(dumps_record(copy), encoding="utf-8")


# Each example runs three evaluates; shrinking a failure would run hundreds
# more and take minutes, and a smaller random split explains no more.
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.randoms(use_true_random=False))
def test_incremental_evaluate_equals_cold(mock_run, rng):
    records = sorted(records_under(mock_run / "outputs"), key=lambda record: record.output_id)
    ids = [record.output_id for record in records]
    first = set(rng.sample(ids, rng.randint(1, len(ids))))
    with tempfile.TemporaryDirectory() as scratch:
        outputs, results = Path(scratch) / "outputs", Path(scratch) / "results"
        for output_id in sorted(first):
            target = record_path(outputs, output_id)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(record_path(mock_run / "outputs", output_id), target)
        # A reference may name only a language that has records.
        evaluate(outputs, results, *references(*sorted({output_id.split("/")[1] for output_id in first})))
        evaluated = {output_id: record_path(outputs, output_id).read_bytes() for output_id in first}

        for output_id in sorted(set(ids) - first):
            target = record_path(outputs, output_id)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(record_path(mock_run / "outputs", output_id), target)
        for output_id in rng.sample(ids, rng.randint(0, 20)):
            rewrite(outputs, output_id, rng.choice(records).response_text + rng.choice(["", " Ọ̀rọ̀."]))

        unchanged = sum(record_path(outputs, i).read_bytes() == data for i, data in evaluated.items())
        assert evaluate(outputs, results, *REFERENCES) == unchanged
        assert_equals_cold(outputs, results, *REFERENCES)


def test_unchanged_records_are_reused(outputs, tmp_path):
    results = tmp_path / "results"
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    before = files(results)
    assert evaluate(outputs, results, *REFERENCES[:2]) == 150
    assert files(results) == before

    rewrite(outputs, "gpt-4o-mini/hau/creative/cw_01", "Sannu da zuwa.")
    assert evaluate(outputs, results, *REFERENCES[:2]) == 149
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def test_reused_evaluations_are_copied_not_encoded(outputs, tmp_path, monkeypatch):
    results = tmp_path / "results"
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    rewrite(outputs, "gpt-4o-mini/hau/creative/cw_01", "Sannu da zuwa.")
    encoded = []
    original = evaluation.to_json

    def counting_to_json(obj):
        if isinstance(obj, EvaluationRecord):
            encoded.append(obj.output_id)
        return original(obj)

    monkeypatch.setattr(evaluation, "to_json", counting_to_json)
    reused = evaluate(outputs, results, *REFERENCES[:2])
    monkeypatch.undo()
    assert reused == 149
    assert encoded == ["gpt-4o-mini/hau/creative/cw_01"]
    assert len(encoded) == 150 - reused
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def test_each_record_file_is_read_once(outputs, tmp_path, monkeypatch):
    # Changing one record of a cell with a reference makes evaluate parse
    # the cell's unchanged records too, for its overlap: from the bytes it
    # hashed, not from a second read.  Both ways to open a file are counted.
    results = tmp_path / "results"
    reads = Counter()

    def counting(real):
        def counting_open(file, *args, **kwargs):
            if str(file).startswith(str(outputs)):
                reads[str(file)] += 1
            return real(file, *args, **kwargs)
        return counting_open

    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    monkeypatch.setattr(os, "open", counting(os.open))
    for rewritten in (None, "gpt-4o-mini/hau/creative/cw_01"):
        if rewritten:
            rewrite(outputs, rewritten, "Sannu da zuwa.")
        reads.clear()
        evaluate(outputs, results, *REFERENCES[:2])
        assert len(reads) == 150 and set(reads.values()) == {1}
    monkeypatch.undo()
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def test_fingerprints_name_no_path(mock_run, tmp_path):
    results = tmp_path / "results"
    evaluate(mock_run / "outputs", results, *REFERENCES[:2])
    text = (results / FILENAME).read_text(encoding="utf-8")
    assert str(tmp_path) not in text and str(mock_run) not in text and str(SEEDS_DIR) not in text
    content = json.loads(text)
    assert sorted(content) == ["cells", "evaluations", "inputs", "overlap", "summary"]
    assert sum(len(cell["records"]) for cell in content["cells"]) == 600
    fields = ("model_id", "language", "task_type")
    summaries = json.loads((results / "summary.json").read_text(encoding="utf-8"))["summaries"]
    assert [[c[f] for f in fields] for c in content["cells"]] == [[s[f] for f in fields] for s in summaries]
    hau = hashlib.sha256((SEEDS_DIR / "hau_Latn.txt").read_bytes()).hexdigest()
    expected = {"fon": None, "hau": hau}
    assert [c["reference"] for c in content["cells"]] == [expected[c["language"]] for c in content["cells"]]
    assert {c["language"] for c in content["cells"]} == set(expected)
    assert content["inputs"]["config"] == {"lid": "builtin", "threshold": 20, "w_conf": 0.5}


@pytest.mark.parametrize(
    "options",
    [["--w-conf", "0.3"], ["--threshold", "19"]],
    ids=["w_conf", "threshold"],
)
def test_changed_option_evaluates_cold(outputs, tmp_path, options):
    results = tmp_path / "results"
    evaluate(outputs, results)
    assert evaluate(outputs, results, *options) == 0
    assert_equals_cold(outputs, results, *options)
    assert evaluate(outputs, results, *options) == 150


def test_changed_lid_backend_evaluates_cold(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results)
    predictions = tmp_path / "predictions.jsonl"
    with predictions.open("w", encoding="utf-8") as handle:
        for evaluation in read_evaluations(results / "evaluations.jsonl"):
            fidelity = evaluation.fidelity
            row = {
                "output_id": evaluation.output_id,
                "doc_label": fidelity.document_prediction.label,
                "doc_conf": fidelity.document_prediction.confidence,
                "sentence_labels": [p.label for p in fidelity.sentence_predictions],
                "sentence_confs": [p.confidence for p in fidelity.sentence_predictions],
            }
            handle.write(json.dumps(row) + "\n")
    external = ["--lid", f"external:{predictions}"]
    assert evaluate(outputs, results, *external) == 0
    assert_equals_cold(outputs, results, *external)
    assert evaluate(outputs, results) == 0


def test_changed_seed_file_evaluates_cold(outputs, tmp_path):
    results = tmp_path / "results"
    seeds = tmp_path / "seeds"
    shutil.copytree(SEEDS_DIR, seeds)
    builtin = ["--lid", f"builtin:{seeds}"]
    evaluate(outputs, results, *builtin)
    assert evaluate(outputs, results, *builtin) == 150
    with (seeds / "hau_Latn.txt").open("a", encoding="utf-8") as handle:
        handle.write("Yau da safe mun tafi kasuwa tare.\n")
    assert evaluate(outputs, results, *builtin) == 0
    assert_equals_cold(outputs, results, *builtin)


def test_changed_code_evaluates_cold(outputs, tmp_path, monkeypatch):
    results = tmp_path / "results"
    evaluate(outputs, results)
    monkeypatch.setattr(fingerprints, "code_digest", lambda: "0" * 64)
    assert evaluate(outputs, results) == 0


def test_changed_languages_config_evaluates_cold(outputs, tmp_path):
    results = tmp_path / "results"
    config = tmp_path / "config"
    config.mkdir()
    shutil.copyfile(data_dir() / "languages.json", config / "languages.json")
    run = ["--config", config, "evaluate", "--outputs", outputs, "--results", results]
    assert run_cli(run)[0] == 0
    with (config / "languages.json").open("a", encoding="utf-8") as handle:
        handle.write("\n")
    code, stdout, err = run_cli(run)
    assert code == 0, err
    assert "reused 0 of 150 evaluations" in stdout


def test_changed_reference_recomputes_only_overlap(outputs, tmp_path, monkeypatch):
    results = tmp_path / "results"
    reference = tmp_path / "hau.txt"
    shutil.copyfile(SEEDS_DIR / "hau_Latn.txt", reference)
    evaluate(outputs, results, "--reference", f"hau={reference}")
    overlap_before = (results / "overlap.json").read_bytes()

    overlaps = count_overlaps(monkeypatch)
    assert evaluate(outputs, results, "--reference", f"hau={reference}") == 150
    assert overlaps == []

    with reference.open("a", encoding="utf-8") as handle:
        handle.write("Wannan sabon jimla ce a cikin rubutun.\n")
    assert evaluate(outputs, results, "--reference", f"hau={reference}") == 150
    assert len(overlaps) == 6  # every hau cell
    assert (results / "overlap.json").read_bytes() != overlap_before
    assert_equals_cold(outputs, results, "--reference", f"hau={reference}")


def test_deleted_record_recomputes_its_cell(outputs, tmp_path, monkeypatch):
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    record_path(outputs, "gpt-4o-mini/hau/creative/cw_01").unlink()

    overlaps = count_overlaps(monkeypatch)
    assert evaluate(outputs, results, *REFERENCES[:2]) == 149
    assert overlaps == ["gpt-4o-mini/hau/creative"]
    assert "gpt-4o-mini/hau/creative/cw_01" not in (results / "evaluations.jsonl").read_text()
    assert_equals_cold(outputs, results, *REFERENCES[:2])


@pytest.mark.parametrize("name", ["evaluations.jsonl", "overlap.json", "summary.json", FILENAME])
def test_tampered_results_evaluate_cold(outputs, tmp_path, name):
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    path = results / name
    path.write_text(path.read_text(encoding="utf-8").replace("0.", "0.1", 1), encoding="utf-8")
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def test_evaluations_missing_a_line_evaluate_cold(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    path = results / "evaluations.jsonl"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[1:]))
    # The fingerprints are made to name the short file, so only its line
    # count shows that its lines no longer match the listed output ids.
    content = json.loads((results / FILENAME).read_text(encoding="utf-8"))
    content["evaluations"] = fingerprints.file_digest(path)
    (results / FILENAME).write_text(json.dumps(content), encoding="utf-8")
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def test_model_id_prefixing_another_keeps_both_orders(run150, tmp_path, monkeypatch):
    # "-" sorts before "/": overlaps, in key-string order, put "m-x/..."
    # first; summaries, in (model, language, task) order, put "m" first.
    outputs, results = tmp_path / "outputs", tmp_path / "results"
    copy_as(run150, outputs, "m")
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    copy_as(run150, outputs, "m-x")
    rewrite(outputs, "m/hau/creative/cw_01", "Sannu da zuwa.")
    overlaps = count_overlaps(monkeypatch)
    assert evaluate(outputs, results, *REFERENCES[:2]) == 149
    assert overlaps[-1] == "m/hau/creative" and len(overlaps) == 7
    assert_equals_cold(outputs, results, *REFERENCES[:2])
    assert [s.model_id for s in read_summaries(results / "summary.json")] == ["m"] * 6 + ["m-x"] * 6
    keys = [o.key for o in load_list(OverlapResult, results / "overlap.json", "overlaps")]
    assert [key.split("/")[0] for key in keys] == ["m-x"] * 6 + ["m"] * 6


def test_model_id_with_a_slash_keeps_its_cells(run150, tmp_path, monkeypatch):
    # Record files of model "org/m" sit in nested directories; splitting an
    # output id at "/" would name model "org" and language "m".
    outputs, results = tmp_path / "outputs", tmp_path / "results"
    copy_as(run150, outputs, "org/m")
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    rewrite(outputs, "org/m/hau/creative/cw_01", "Sannu da zuwa.")
    overlaps = count_overlaps(monkeypatch)
    assert evaluate(outputs, results, *REFERENCES[:2]) == 149
    assert overlaps == ["org/m/hau/creative"]
    assert_equals_cold(outputs, results, *REFERENCES[:2])
    summaries = read_summaries(results / "summary.json")
    assert {(s.model_id, s.language) for s in summaries} == {("org/m", "hau")}


def flat_records(content):
    """The layout before cells carried their own records: one flat map of
    record digests, and an overlap digest per cell key."""
    return {
        "cells": {"/".join(cell[f] for f in ("model_id", "language", "task_type")): "0" * 64
                  for cell in content["cells"]},
        "evaluations": content["evaluations"],
        "inputs": content["inputs"],
        "overlap": content["overlap"],
        "records": {i: digest for cell in content["cells"] for i, digest in cell["records"].items()},
    }


def top_level_references(content):
    """The layout before cells carried their reference digest: one
    language -> digest map beside the cells."""
    cells = [{f: v for f, v in cell.items() if f != "reference"} for cell in content["cells"]]
    references = {cell["language"]: cell["reference"] for cell in content["cells"] if cell["reference"]}
    return {**content, "cells": cells, "references": references}


@pytest.mark.parametrize("layout", [flat_records, top_level_references], ids=lambda layout: layout.__name__)
def test_fingerprints_of_the_earlier_layout(outputs, tmp_path, layout):
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    content = json.loads((results / FILENAME).read_text(encoding="utf-8"))
    (results / FILENAME).write_text(json.dumps(layout(content), indent=2, sort_keys=True), encoding="utf-8")
    code, _, err = _filter(results, outputs, tmp_path)
    assert code == 1
    assert "not a fingerprints file" in err and "(run 'evaluate' again)" in err
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def _first_cell(**fields):
    return lambda content: content["cells"][0].update(fields)


def _first_digest(content):
    records = content["cells"][0]["records"]
    records[min(records)] = 1


# A cell must own its records: every field of the type it is written with,
# and every output id under the cell's key.
@pytest.mark.parametrize(
    "corrupt",
    [_first_cell(language="fon"), _first_cell(model_id=7), lambda content: content.update(cells={}),
     _first_digest, _first_cell(reference=5)],
    ids=["language_not_its_records", "model_id_not_a_string", "cells_not_a_list", "digest_not_a_string",
         "reference_not_a_string"],
)
def test_a_cell_that_does_not_own_its_records_is_refused(outputs, tmp_path, corrupt):
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    content = json.loads((results / FILENAME).read_text(encoding="utf-8"))
    corrupt(content)
    (results / FILENAME).write_text(json.dumps(content), encoding="utf-8")
    assert _filter(results, outputs, tmp_path) == (
        1, "", f"error: {results / FILENAME}: not a fingerprints file (run 'evaluate' again)\n"
    )
    assert not (tmp_path / "corpus").exists()
    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def test_evaluate_cut_short_leaves_no_fingerprints(outputs, tmp_path, monkeypatch):
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    rewrite(outputs, "gpt-4o-mini/hau/creative/cw_01", "Sannu da zuwa.")

    def crash(*args):
        raise RuntimeError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "write_summaries", crash)
        with pytest.raises(RuntimeError, match="disk full"):
            run_cli(["evaluate", "--outputs", outputs, "--results", results, *REFERENCES[:2]])
    assert not (results / FILENAME).exists()
    assert not list(results.glob("*.tmp"))

    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    assert_equals_cold(outputs, results, *REFERENCES[:2])


def _filter(results, outputs, tmp_path):
    return run_cli(["filter", "--results", results, "--outputs", outputs, "--out", tmp_path / "corpus"])


def test_filter_refuses_a_record_changed_after_evaluate(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results)
    assert _filter(results, outputs, tmp_path)[0] == 0

    rewrite(outputs, "gpt-4o-mini/hau/constrained/cg_02", "Sannu da zuwa.")
    code, _, err = _filter(results, outputs, tmp_path)
    assert code == 1
    assert "error: evaluation gpt-4o-mini/hau/constrained/cg_02 is stale" in err


def test_filter_refuses_an_evaluation_whose_record_was_deleted(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results)
    record_path(outputs, "gpt-4o-mini/hau/dialogue/dl_03").unlink()
    assert _filter(results, outputs, tmp_path) == (
        1, "", f"error: evaluation gpt-4o-mini/hau/dialogue/dl_03 has no record under {outputs}\n"
    )
    assert not (tmp_path / "corpus").exists()


def test_filter_refuses_a_record_the_fingerprints_do_not_list(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results)
    fingerprints = json.loads((results / FILENAME).read_text(encoding="utf-8"))
    (cell,) = [cell for cell in fingerprints["cells"] if "gpt-4o-mini/hau/creative/cw_03" in cell["records"]]
    del cell["records"]["gpt-4o-mini/hau/creative/cw_03"]
    (results / FILENAME).write_text(json.dumps(fingerprints), encoding="utf-8")
    # Its line is still in evaluations.jsonl, which now has one line more
    # than the fingerprints list outputs.
    assert _filter(results, outputs, tmp_path) == (1, "", (
        f"error: {results / 'evaluations.jsonl'} holds 150 evaluations, but {FILENAME} lists 149 outputs "
        "(run 'evaluate' again)\n"
    ))
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("output_id", ["gpt-4o-mini/hau/creative/cw_00", "zz/hau/constrained/cg_02"])
def test_filter_checks_the_record_files_added_after_evaluate(run150, outputs, tmp_path, output_id):
    # Model zz is added after evaluate, so none of its records is exported;
    # a corrupt record file is refused wherever the walk meets it, before
    # the last evaluated record or after it.
    results = tmp_path / "results"
    evaluate(outputs, results)
    copy_as(run150, outputs, "zz")
    path = record_path(outputs, output_id)
    path.write_text("{", encoding="utf-8")
    code, stdout, err = _filter(results, outputs, tmp_path)
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {path}: invalid JSON")
    assert not (tmp_path / "corpus").exists()


def test_filter_refuses_evaluations_the_fingerprints_do_not_describe(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results)
    path = results / "evaluations.jsonl"
    path.write_text(path.read_text(encoding="utf-8").replace("0.", "0.1", 1), encoding="utf-8")
    code, _, err = _filter(results, outputs, tmp_path)
    assert code == 1
    assert f"error: {path} is not the file {FILENAME} describes" in err


@pytest.mark.parametrize("name", ["summary.json", "overlap.json"])
def test_filter_refuses_results_files_the_fingerprints_do_not_describe(outputs, tmp_path, name):
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    path = results / name
    with path.open("ab") as handle:
        handle.write(b"\n")
    assert _filter(results, outputs, tmp_path) == (
        1, "", f"error: {path} is not the file {FILENAME} describes (run 'evaluate' again)\n"
    )
    assert not (tmp_path / "corpus").exists()


def test_filter_without_fingerprints_refuses(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results)
    code, _, err = _filter(results, outputs, tmp_path)
    assert (code, err) == (0, "")
    shutil.rmtree(tmp_path / "corpus")
    (results / FILENAME).unlink()
    assert _filter(results, outputs, tmp_path) == (
        1, "", f"error: no {FILENAME} in {results} (run 'evaluate' again)\n"
    )
    assert not (tmp_path / "corpus").exists()


def test_filter_after_evaluate_cut_short_by_a_full_disk(outputs, tmp_path, monkeypatch):
    # The old evaluations.jsonl stays when its rewrite fails, and it still
    # calls the rewritten record usable Hausa; no fingerprints must mean no
    # corpus.
    results = tmp_path / "results"
    evaluate(outputs, results, *REFERENCES[:2])
    output_id = "gpt-4o-mini/hau/creative/cw_01"
    (old,) = [e for e in read_evaluations(results / "evaluations.jsonl") if e.output_id == output_id]
    assert old.is_valid and old.fidelity.is_target
    english = "The weather was fine this morning, so we walked to the market together. " * 4
    rewrite(outputs, output_id, english)
    real_open = Path.open

    def open_then_fail(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return DiskFull(handle) if self.name == "evaluations.jsonl.tmp" else handle

    with monkeypatch.context() as patch:
        patch.setattr(Path, "open", open_then_fail)
        code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", results, *REFERENCES[:2]])
    assert code == 1
    assert err.startswith("error: ") and "No space left on device" in err
    assert not (results / FILENAME).exists()
    assert not list(results.glob("*.tmp"))
    assert old in read_evaluations(results / "evaluations.jsonl")
    # Nor is any file left that report would show as current.
    assert sorted(path.name for path in results.iterdir()) == ["evaluations.jsonl"]

    code, stdout, err = _filter(results, outputs, tmp_path)
    assert (code, stdout) == (1, "")
    assert f"error: no {FILENAME} in {results} (run 'evaluate' again)" in err
    assert not (tmp_path / "corpus").exists()
    for kind, message in [
        ("efficiency", f"no summary at {results / 'summary.json'} (run 'evaluate' first)"),
        ("overlap", f"no overlap results at {results / 'overlap.json'} (run 'evaluate' with --reference)"),
    ]:
        report = ["report", "--results", results, "--kind", kind, "--format", "csv"]
        assert run_cli(report) == (1, "", f"error: {message}\n")

    assert evaluate(outputs, results, *REFERENCES[:2]) == 0
    assert_equals_cold(outputs, results, *REFERENCES[:2])
    (new,) = [e for e in read_evaluations(results / "evaluations.jsonl") if e.output_id == output_id]
    assert not new.fidelity.is_target


def test_filter_rejects_an_unreadable_fingerprints_file(outputs, tmp_path):
    results = tmp_path / "results"
    evaluate(outputs, results)
    (results / FILENAME).write_text('{"records": {}}', encoding="utf-8")
    code, _, err = _filter(results, outputs, tmp_path)
    assert code == 1
    assert f"error: {results / FILENAME}: not a fingerprints file" in err
