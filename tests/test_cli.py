import dataclasses
import errno
import json
import shutil
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from lexglean import cli, data_dir, fingerprints
from lexglean.cli import main as cli_main
from lexglean.codec import load_list
from lexglean.evaluation import OverlapResult, reference_overlap, reference_profile
from lexglean.fingerprints import FILENAME, file_digest
from lexglean.generation import GenerationRecord, dumps_record, record_files, record_path
from lexglean.textstats import analyze

from conftest import FIXTURES_PATH, SEEDS_DIR, DiskFull, records_under, run_cli


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Mock run restricted to one model and one language (150 records)."""
    out = tmp_path_factory.mktemp("small_run") / "outputs"
    code, _, err = run_cli(
        [
            "generate", "--mock", FIXTURES_PATH,
            "--languages", "hau", "--models", "gpt-4o-mini",
            "--out", out,
        ]
    )
    assert code == 0, err
    return out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli_main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("lexglean ")


@pytest.mark.parametrize(
    "argv, detail",
    [
        ([], "the following arguments are required: command"),
        (["--kind", "velocity", "--format", "csv"], "argument --kind: invalid choice: 'velocity'"),
        (["--kind", "validity", "--format", "pdf"], "argument --format: invalid choice: 'pdf'"),
    ],
    ids=["no_subcommand", "unknown_kind", "unknown_format"],
)
def test_missing_subcommand_is_usage_error(capsys, tmp_path, argv, detail):
    if argv:  # a report flag outside its choices
        argv = ["report", "--results", str(tmp_path), *argv, "--out", str(tmp_path / "table")]
    with pytest.raises(SystemExit) as exc_info:
        cli_main(argv)
    assert exc_info.value.code == 2
    assert detail in capsys.readouterr().err
    assert not (tmp_path / "table").exists()


def test_unknown_language_lists_known(tmp_path):
    code, _, err = run_cli(
        ["generate", "--mock", FIXTURES_PATH, "--languages", "xx", "--out", tmp_path / "o"]
    )
    assert code == 2
    assert "unknown language 'xx'" in err
    assert "fon, hau" in err


def test_unknown_model_lists_known(tmp_path):
    code, _, err = run_cli(
        ["generate", "--mock", FIXTURES_PATH, "--models", "gpt-9", "--out", tmp_path / "o"]
    )
    assert code == 2
    assert "unknown model 'gpt-9'" in err
    assert "gemini-2.5-flash, gpt-4o-mini" in err


def test_no_network_requires_mock(tmp_path, monkeypatch):
    monkeypatch.setenv("NO_NETWORK", "1")
    code, _, err = run_cli(["generate", "--out", tmp_path / "o"])
    assert code == 2
    assert "--mock" in err


def test_invalid_taxonomy_rejected(tmp_path):
    bad = tmp_path / "taxonomy.json"
    bad.write_text(
        json.dumps(
            [
                {
                    "id": "cg_01",
                    "task_type": "constrained",
                    "subtask": "vocabulary",
                    "template": "Use {bogus} in {language}.",
                }
            ]
        )
    )
    code, _, err = run_cli(
        ["generate", "--mock", FIXTURES_PATH, "--taxonomy", bad, "--out", tmp_path / "o"]
    )
    assert code == 2
    assert "taxonomy:" in err


def test_generate_small_run_and_resume(small_run):
    records = records_under(small_run)
    assert len(records) == 150
    assert {r.model_id for r in records} == {"gpt-4o-mini"}
    assert {r.language for r in records} == {"hau"}
    assert {r.task_type for r in records} == {
        "constrained", "creative", "dialogue", "functional", "structured", "topic_switch",
    }

    code, stdout, _ = run_cli(
        [
            "generate", "--mock", FIXTURES_PATH,
            "--languages", "hau", "--models", "gpt-4o-mini",
            "--out", small_run,
        ]
    )
    assert code == 0
    assert "0 new requests, 150 expected" in stdout
    assert "completed 150/150, failed 0" in stdout


def test_generate_exits_3_when_calls_fail(tmp_path):
    fixtures = json.loads(FIXTURES_PATH.read_text(encoding="utf-8"))
    bad_id = "gpt-4o-mini/hau/creative/cw_01"
    fixtures[bad_id]["status_schedule"] = [400]
    fixtures_path = tmp_path / "fixtures.json"
    fixtures_path.write_text(json.dumps(fixtures), encoding="utf-8")
    argv = [
        "generate", "--mock", fixtures_path,
        "--languages", "hau", "--models", "gpt-4o-mini",
        "--out", tmp_path / "o",
    ]

    code, stdout, err = run_cli(argv)
    assert code == 3
    assert "completed 149/150, failed 1" in stdout
    failed_lines = [line for line in err.splitlines() if line.startswith("failed: ")]
    assert failed_lines == [f"failed: {bad_id}: permanent failure, HTTP 400"]
    assert failed_lines[0].count(bad_id) == 1

    fixtures[bad_id]["status_schedule"] = [200]
    fixtures_path.write_text(json.dumps(fixtures), encoding="utf-8")
    code, stdout, err = run_cli(argv)
    assert code == 0, err
    assert "1 new requests, 150 expected" in stdout
    assert "completed 150/150, failed 0" in stdout


@pytest.mark.parametrize("value", ["0", "-5"])
def test_generate_refuses_parallelism_below_one(tmp_path, value):
    out = tmp_path / "o"
    assert run_cli(["generate", "--mock", FIXTURES_PATH, "--out", out, "--parallelism", value]) == (
        2, "", f"error: --parallelism must be at least 1, got {value}\n"
    )
    assert not out.exists()


def test_repeated_selection_requests_each_triple_once(tmp_path):
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        [
            "generate", "--mock", FIXTURES_PATH,
            "--languages", "hau,hau", "--models", "gpt-4o-mini,gpt-4o-mini",
            "--out", out,
        ]
    )
    assert code == 0, err
    assert "150 new requests, 150 expected" in stdout
    assert "completed 150/150, failed 0" in stdout
    assert json.loads((out / "manifest.json").read_text())["expected_calls"] == 150


def test_evaluate_missing_outputs(tmp_path):
    code, _, err = run_cli(
        ["evaluate", "--outputs", tmp_path / "nowhere", "--results", tmp_path / "r"]
    )
    assert code == 1


def test_evaluate_stdout_and_meta(small_run, tmp_path):
    results = tmp_path / "results"
    code, stdout, err = run_cli(
        ["evaluate", "--outputs", small_run, "--results", results]
    )
    assert code == 0, err
    assert "lid backend: builtin:" in stdout
    assert "quality = 0.5*lang_conf + 0.5*(1 - code_switch_rate)" in stdout
    assert "evaluated 150 records into 6 conditions" in stdout
    assert "usable_words_per_call" in stdout

    meta = json.loads((results / "run_meta.json").read_text())
    assert meta["n_records"] == 150
    assert meta["n_conditions"] == 6
    assert meta["validity_threshold"] == 20
    # No --reference given, so no overlap file.
    assert not (results / "overlap.json").exists()


def test_evaluate_bad_lid_backend(small_run, tmp_path):
    code, _, err = run_cli(
        ["evaluate", "--outputs", small_run, "--results", tmp_path / "r", "--lid", "fancy:x"]
    )
    assert code == 2
    assert "unknown --lid backend" in err


def test_evaluate_external_predictions_missing(small_run, tmp_path):
    code, _, err = run_cli(
        [
            "evaluate", "--outputs", small_run, "--results", tmp_path / "r",
            "--lid", f"external:{tmp_path / 'missing.jsonl'}",
        ]
    )
    assert code == 1


def test_evaluate_bad_reference_format(small_run, tmp_path):
    code, _, err = run_cli(
        [
            "evaluate", "--outputs", small_run, "--results", tmp_path / "r",
            "--reference", "hau",
        ]
    )
    assert code == 2
    assert "bad --reference 'hau'" in err


def test_evaluate_refuses_a_repeated_reference_language(small_run, tmp_path):
    # Neither the missing reference nor the missing LID predictions file is
    # read: the flags are refused first.
    argv = [
        "evaluate", "--outputs", small_run, "--results", tmp_path / "r",
        "--lid", f"external:{tmp_path / 'missing.jsonl'}",
        "--reference", f"hau={tmp_path / 'missing.txt'}",
        "--reference", f"hau={SEEDS_DIR / 'hau_Latn.txt'}",
    ]
    assert run_cli(argv) == (2, "", "error: --reference hau given more than once\n")
    assert not (tmp_path / "r").exists()


def test_evaluate_reference_without_records(small_run, tmp_path):
    code, _, err = run_cli(
        [
            "evaluate", "--outputs", small_run, "--results", tmp_path / "r",
            "--reference", f"fon={SEEDS_DIR / 'fon_Latn.txt'}",
        ]
    )
    assert code == 2
    assert "no records for that language" in err
    assert not (tmp_path / "r").exists()


def _empty_reference(inputs):
    path = inputs / "hau.txt"
    path.write_text(" \n\n", encoding="utf-8")
    return path, [], ["--reference", f"hau={path}"]


def _reference_not_utf8(inputs):
    path = inputs / "hau.txt"
    path.write_bytes((SEEDS_DIR / "hau_Latn.txt").read_bytes() + b"\xff\n")
    return path, [], ["--reference", f"hau={path}"]


def _languages_not_utf8(inputs):
    path = inputs / "languages.json"
    path.write_bytes((data_dir() / "languages.json").read_bytes().replace(b"Hausa", b"Hausa\xff", 1))
    return path, ["--config", inputs], []


def _seed_not_utf8(inputs):
    seeds = inputs / "seeds"
    shutil.copytree(SEEDS_DIR, seeds)
    path = seeds / "hau_Latn.txt"
    path.write_bytes(path.read_bytes() + b"\xff\n")
    return path, [], ["--lid", f"builtin:{seeds}"]


@pytest.mark.parametrize(
    "make_input, expected_code",
    [(_empty_reference, 2), (_reference_not_utf8, 1), (_languages_not_utf8, 2), (_seed_not_utf8, 1)],
    ids=["empty_reference", "reference_not_utf8", "languages_not_utf8", "seed_not_utf8"],
)
def test_evaluate_names_an_input_file_it_cannot_use(small_run, tmp_path, make_input, expected_code):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    path, global_flags, flags = make_input(inputs)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run_cli(
        global_flags + ["evaluate", "--outputs", small_run, "--results", tmp_path / "r"] + flags
    )
    assert (code, stdout) == (expected_code, "")
    assert err.startswith(f"error: {path}: "), err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flag, value", [("--w-conf", "1.2"), ("--w-conf", "-0.1"), ("--w-conf", "nan"), ("--threshold", "-3")]
)
def test_evaluate_refuses_a_weight_or_threshold_before_reading_anything(tmp_path, flag, value):
    # An empty run directory, a missing LID predictions file and a missing
    # reference would each be an exit 1 once read.
    (tmp_path / "empty").mkdir()
    code, stdout, err = run_cli([
        "evaluate", "--outputs", tmp_path / "empty", "--results", tmp_path / "r",
        "--lid", f"external:{tmp_path / 'missing.jsonl'}", "--reference", f"hau={tmp_path / 'missing.txt'}",
        flag, value,
    ])
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {flag} must be ") and "nonnegative" in err, err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("results", ["outputs", "outputs/results", "link/results", "outputs/x/../results"])
def test_evaluate_refuses_results_inside_outputs_before_reading_anything(small_run, tmp_path, results):
    # The walk would read the results files as records on the next run.
    # A missing LID predictions file would be an exit 1 once read.
    shutil.copytree(small_run, tmp_path / "outputs")
    (tmp_path / "link").symlink_to(tmp_path / "outputs", target_is_directory=True)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run_cli([
        "evaluate", "--outputs", tmp_path / "outputs", "--results", tmp_path / results,
        "--lid", f"external:{tmp_path / 'missing.jsonl'}",
    ])
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: --results {tmp_path / results} is inside --outputs {tmp_path / 'outputs'}"), err
    assert sorted(tmp_path.rglob("*")) == before


def test_evaluate_accepts_results_beside_outputs_whose_path_extends_it(small_run, tmp_path):
    # The paths are compared by component: "outputs_results" is not inside "outputs".
    outputs = tmp_path / "outputs"
    shutil.copytree(small_run, outputs)
    code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", tmp_path / "outputs_results"])
    assert (code, err) == (0, "")


def test_evaluate_failing_a_check_leaves_existing_results_unchanged(small_run, tmp_path):
    results = tmp_path / "r"
    evaluate = ["evaluate", "--outputs", small_run, "--results", results]
    assert run_cli(evaluate + ["--reference", f"hau={SEEDS_DIR / 'hau_Latn.txt'}"])[0] == 0
    before = {path: path.read_bytes() for path in results.iterdir()}
    code, _, err = run_cli(evaluate + ["--reference", f"yor={SEEDS_DIR / 'yor_Latn.txt'}"])
    assert (code, err) == (2, "error: --reference yor: no records for that language\n")
    assert {path: path.read_bytes() for path in results.iterdir()} == before


def test_evaluate_missing_reference_writes_nothing(small_run, tmp_path):
    missing = tmp_path / "missing.txt"
    code, _, err = run_cli(
        ["evaluate", "--outputs", small_run, "--results", tmp_path / "r", "--reference", f"hau={missing}"]
    )
    assert code == 1
    assert str(missing) in err
    assert not (tmp_path / "r").exists()


def test_evaluate_without_reference_removes_stale_overlap(small_run, tmp_path):
    results = tmp_path / "r"
    evaluate = ["evaluate", "--outputs", small_run, "--results", results]
    report = ["report", "--results", results, "--kind", "overlap", "--format", "csv"]
    code, _, err = run_cli(evaluate + ["--reference", f"hau={SEEDS_DIR / 'hau_Latn.txt'}"])
    assert code == 0, err
    assert (results / "overlap.json").exists()
    assert run_cli(report)[0] == 0

    code, _, err = run_cli(evaluate)
    assert code == 0, err
    assert not (results / "overlap.json").exists()
    code, _, err = run_cli(report)
    assert code == 1
    assert "no overlap results" in err


def test_streamed_overlap_equals_reference_overlap(small_run, tmp_path):
    # Model ids that share a prefix order their cells differently by output
    # id ("m-r00/..." < "m/...") than by (model, language, task).
    outputs = tmp_path / "o"
    records = records_under(small_run)
    for shift, model_id in enumerate(("m", "m-r00")):
        for index, record in enumerate(records):
            for language in ("hau", "fon"):
                _, _, task_type, prompt_id = record.output_id.split("/")
                copy = dataclasses.replace(
                    record,
                    output_id=f"{model_id}/{language}/{task_type}/{prompt_id}",
                    model_id=model_id,
                    language=language,
                    response_text=records[index - shift].response_text,
                )
                path = record_path(outputs, copy.output_id)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(dumps_record(copy), encoding="utf-8")
    references = {code: SEEDS_DIR / f"{code}_Latn.txt" for code in ("fon", "hau")}
    code, _, err = run_cli(
        ["evaluate", "--outputs", outputs, "--results", tmp_path / "r"]
        + [arg for code, path in references.items() for arg in ("--reference", f"{code}={path}")]
    )
    assert code == 0, err

    expected = []
    for code, path in sorted(references.items()):
        reference = reference_profile(path.read_text(encoding="utf-8").splitlines())
        cells = {}
        for record in records_under(outputs):
            if record.language == code:
                key = f"{record.model_id}/{record.language}/{record.task_type}"
                cells.setdefault(key, Counter()).update(analyze(record.response_text).grams)
        expected += [reference_overlap(key, cells[key], reference) for key in sorted(cells)]
    assert expected[0].key.startswith("m-r00/fon/")
    assert {o.key.split("/")[0] for o in expected} == {"m", "m-r00"}
    assert load_list(OverlapResult, tmp_path / "r" / "overlap.json", "overlaps") == expected


def test_evaluate_bad_weight(small_run, tmp_path):
    code, _, err = run_cli(
        ["evaluate", "--outputs", small_run, "--results", tmp_path / "r", "--w-conf", "1.2"]
    )
    assert code == 2
    assert "nonnegative" in err


def test_evaluate_non_default_weight(small_run, tmp_path):
    results = tmp_path / "r"
    code, stdout, err = run_cli(
        ["evaluate", "--outputs", small_run, "--results", results, "--w-conf", "0.3"]
    )
    assert code == 0, err
    formula = "quality = 0.3*lang_conf + 0.7*(1 - code_switch_rate)"
    assert json.loads((results / "run_meta.json").read_text())["quality_formula"] == formula
    assert formula in stdout
    evaluations = {
        row["output_id"]: row
        for row in map(json.loads, (results / "evaluations.jsonl").read_text().splitlines())
    }
    row = evaluations["gpt-4o-mini/hau/creative/cw_01"]
    assert row["fidelity"]["code_switch_rate"] == 1 / 13
    assert row["quality"] == 0.7494478889760179


_PREDICTION_ROW = (
    '{"output_id": "elsewhere", "doc_label": "hau_Latn", "doc_conf": 1.0,'
    ' "sentence_labels": [], "sentence_confs": []}\n'
)


@pytest.mark.parametrize(
    "command, content, detail",
    [
        ("evaluate", _PREDICTION_ROW, "no external prediction (output gpt-4o-mini/hau/constrained/cg_01)"),
        (
            "evaluate",
            '{"output_id": "x", "doc_label": "hau_Latn"}\n',
            "{path}:1: malformed prediction row: missing field 'doc_conf'\n",
        ),
        ("generate", '{"m/hau/creative/cw_01": "amsa"}', "{path}: fixture 'm/hau/creative/cw_01' is not"),
        ("generate", '{"m/hau/creative/cw_01": {', "{path}: invalid JSON"),
        ("generate", '{"m/hau/creative/cw_01": {"status_schedule": [null]}}', "{path}: fixture 'm/hau/creative/cw_01': bad"),
        (
            "generate",
            '{"m/hau/creative/cw_01": {"status_schedule": "503"}}',
            "{path}: fixture 'm/hau/creative/cw_01': bad value: 'status_schedule' must be a list, not str",
        ),
        (
            "evaluate",
            _PREDICTION_ROW.replace('"sentence_labels": []', '"sentence_labels": "ab"').replace("[]", "[1.0, 1.0]"),
            "{path}:1: malformed prediction row: 'sentence_labels' must be a list, not str",
        ),
        (
            "evaluate",
            _PREDICTION_ROW + _PREDICTION_ROW.replace('"elsewhere"', '"x"').replace("1.0", '"nan"'),
            "{path}:2: malformed prediction row: 'doc_conf' must be a finite number, not 'nan'",
        ),
        (
            "evaluate",
            _PREDICTION_ROW.replace("1.0", "5.0"),
            "{path}:1: malformed prediction row: 'doc_conf' must be in [0, 1], not 5.0",
        ),
        (
            "evaluate",
            _PREDICTION_ROW.replace("[]", '["hau_Latn", "hau_Latn"]', 1).replace("[]", "[1, -0.1]"),
            "{path}:1: malformed prediction row: an item of 'sentence_confs' must be in [0, 1], not -0.1",
        ),
        (
            "evaluate",
            _PREDICTION_ROW.replace("1.0", "null"),
            "{path}:1: malformed prediction row: 'doc_conf' must be a finite number, not None",
        ),
    ],
    ids=[
        "prediction_missing", "malformed_prediction_row", "fixture_not_object", "malformed_fixtures",
        "bad_status_schedule", "status_schedule_not_list", "sentence_labels_not_list", "doc_conf_nan",
        "doc_conf_above_one", "sentence_conf_below_zero", "doc_conf_null",
    ],
)
def test_bad_lid_or_fixture_input_is_a_data_error(small_run, tmp_path, command, content, detail):
    path = tmp_path / "input.json"
    path.write_text(content, encoding="utf-8")
    if command == "evaluate":
        argv = ["evaluate", "--outputs", small_run, "--results", tmp_path / "r", "--lid", f"external:{path}"]
    else:
        argv = ["generate", "--mock", path, "--out", tmp_path / "o"]
    code, _, err = run_cli(argv)
    assert code == 1
    assert f"error: {detail.format(path=path)}" in err
    assert not (tmp_path / "r").exists() and not (tmp_path / "o").exists()


def test_filter_requires_evaluate(small_run, tmp_path):
    code, _, err = run_cli(
        ["filter", "--results", tmp_path / "empty", "--outputs", small_run, "--out", tmp_path / "c"]
    )
    assert code == 1
    assert f"error: no fingerprints.json in {tmp_path / 'empty'} (run 'evaluate' again)" in err


def test_directory_named_like_a_record_is_walked_not_read(small_run, tmp_path):
    outputs = tmp_path / "outputs"
    shutil.copytree(small_run, outputs)
    (outputs / "gpt-4o-mini/hau/creative/odd.json").mkdir()
    code, stdout, err = run_cli(["evaluate", "--outputs", outputs, "--results", tmp_path / "results"])
    assert code == 0, err
    assert "evaluated 150 records" in stdout
    code, _, err = run_cli(
        ["filter", "--results", tmp_path / "results", "--outputs", outputs, "--out", tmp_path / "corpus"]
    )
    assert code == 0, err


def test_report_requires_summary(tmp_path):
    code, _, err = run_cli(
        ["report", "--results", tmp_path, "--kind", "validity", "--format", "csv"]
    )
    assert code == 1
    assert "run 'evaluate' first" in err

    code, _, err = run_cli(
        ["report", "--results", tmp_path, "--kind", "overlap", "--format", "csv"]
    )
    assert code == 1
    assert "--reference" in err


def test_mock_results_layout(mock_run):
    results = mock_run / "results"
    for name in ("evaluations.jsonl", "summary.json", "summary.csv", "overlap.json", "run_meta.json"):
        assert (results / name).exists(), name

    meta = json.loads((results / "run_meta.json").read_text())
    assert meta["n_records"] == 600
    assert meta["n_conditions"] == 24
    assert meta["lid_backend"].startswith("builtin:")
    assert "lang_conf" in meta["quality_formula"]

    summary_csv = (results / "summary.csv").read_text()
    assert summary_csv.startswith("model,language,task_type,")
    assert len(summary_csv.splitlines()) == 25

    overlaps = json.loads((results / "overlap.json").read_text())["overlaps"]
    assert len(overlaps) == 24


def test_report_stdout_and_file(mock_run, tmp_path):
    results = mock_run / "results"
    code, stdout, err = run_cli(
        ["report", "--results", results, "--kind", "efficiency", "--format", "csv"]
    )
    assert code == 0, err
    lines = stdout.splitlines()
    assert lines[0] == "model,language,task_type,usable_words_per_call"
    assert len(lines) == 25

    out_file = tmp_path / "tables" / "efficiency.csv"
    code, silent, _ = run_cli(
        [
            "report", "--results", results, "--kind", "efficiency", "--format", "csv",
            "--out", out_file,
        ]
    )
    assert code == 0
    assert silent == ""
    assert out_file.read_text() == stdout


def test_report_cut_short_leaves_the_old_file(mock_run, tmp_path, monkeypatch):
    out_file = tmp_path / "efficiency.csv"
    out_file.write_text("the old report\n", encoding="utf-8")
    real_open = Path.open

    def open_then_fail(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return DiskFull(handle) if "w" in mode else handle

    monkeypatch.setattr(Path, "open", open_then_fail)
    code, stdout, err = run_cli([
        "report", "--results", mock_run / "results", "--kind", "efficiency", "--format", "csv",
        "--out", out_file,
    ])
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.rstrip().endswith("No space left on device")
    assert [path.name for path in tmp_path.iterdir()] == ["efficiency.csv"]
    assert out_file.read_text(encoding="utf-8") == "the old report\n"


def test_report_overlap_kind(mock_run):
    code, stdout, err = run_cli(
        ["report", "--results", mock_run / "results", "--kind", "overlap", "--format", "json"]
    )
    assert code == 0, err
    payload = json.loads(stdout)
    assert payload["kind"] == "overlap"
    assert len(payload["rows"]) == 24
    assert set(payload["rows"][0]) == {"key", "cosine", "memorization_suspect"}


def test_filter_exports_corpus(mock_run, tmp_path):
    corpus_dir = tmp_path / "corpus"
    code, stdout, err = run_cli(
        [
            "filter", "--results", mock_run / "results",
            "--outputs", mock_run / "outputs", "--out", corpus_dir,
        ]
    )
    assert code == 0, err
    for name in ("hau.txt", "fon.txt", "hau.provenance.jsonl", "fon.provenance.jsonl"):
        assert (corpus_dir / name).exists(), name
    assert "total usable words:" in stdout
    assert any(line.startswith("hau: ") and "documents" in line for line in stdout.splitlines())

    provenance = [
        json.loads(line)
        for line in (corpus_dir / "hau.provenance.jsonl").read_text().splitlines()
    ]
    document_count = (corpus_dir / "hau.txt").read_text().count("\n\n") + 1
    assert len(provenance) == document_count


def test_filter_refuses_an_out_holding_a_language_the_results_lack(mock_run, small_run, tmp_path):
    corpus_dir = tmp_path / "corpus"
    code, _, err = run_cli(
        ["filter", "--results", mock_run / "results", "--outputs", mock_run / "outputs", "--out", corpus_dir]
    )
    assert code == 0, err
    before = {path.name: path.read_bytes() for path in corpus_dir.iterdir()}
    assert {"hau.provenance.jsonl", "fon.provenance.jsonl"} <= set(before)

    hau_only = tmp_path / "hau_results"
    code, _, err = run_cli(["evaluate", "--outputs", small_run, "--results", hau_only])
    assert code == 0, err
    code, stdout, err = run_cli(["filter", "--results", hau_only, "--outputs", small_run, "--out", corpus_dir])
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {corpus_dir / 'fon.provenance.jsonl'} is from another run")
    assert {path.name: path.read_bytes() for path in corpus_dir.iterdir()} == before

    code, _, err = run_cli(["filter", "--results", hau_only, "--outputs", small_run, "--out", tmp_path / "hau"])
    assert code == 0, err
    assert sorted(path.name for path in (tmp_path / "hau").iterdir()) == ["hau.provenance.jsonl", "hau.txt"]


def test_filter_min_quality_exports_exactly_the_usable_outputs(mock_run, tmp_path):
    # The expectation comes from the raw JSON lines, not from the package's readers.
    results, outputs = mock_run / "results", mock_run / "outputs"
    lines = (results / "evaluations.jsonl").read_text(encoding="utf-8").splitlines()
    evaluations = [json.loads(line) for line in lines]
    usable = [e for e in evaluations if e["is_valid"] and e["fidelity"]["is_target"]]
    kept = sorted((e for e in usable if e["quality"] >= 0.6), key=lambda e: e["output_id"])
    assert 0 < len(kept) < len(usable)
    corpus_dir = tmp_path / "corpus"
    code, stdout, err = run_cli(
        ["filter", "--results", results, "--outputs", outputs, "--out", corpus_dir, "--min-quality", "0.6"]
    )
    assert code == 0, err
    languages = sorted({e["language"] for e in evaluations})
    assert sorted(path.name for path in corpus_dir.iterdir()) == sorted(
        name for language in languages for name in (f"{language}.txt", f"{language}.provenance.jsonl")
    )
    expected_stdout = []
    for language in languages:
        group = [e for e in kept if e["language"] == language]
        provenance = (corpus_dir / f"{language}.provenance.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in provenance] == [
            {key: e[key] for key in ("output_id", "model_id", "task_type", "word_count", "quality")}
            for e in group
        ]
        texts = [
            json.loads(record_path(outputs, e["output_id"]).read_text(encoding="utf-8"))["response_text"]
            for e in group
        ]
        assert (corpus_dir / f"{language}.txt").read_text(encoding="utf-8") == (
            "\n\n".join(texts) + "\n" if texts else ""
        )
        words = sum(e["word_count"] for e in group)
        expected_stdout.append(f"{language}: {len(group)} documents, {words} words")
    expected_stdout.append(f"total usable words: {sum(e['word_count'] for e in kept)}")
    assert stdout.splitlines() == expected_stdout


@pytest.mark.parametrize("value", ["nan", "-0.1", "1.5"])
def test_filter_refuses_min_quality_outside_the_unit_interval(tmp_path, value):
    # The results directory does not exist: the flag is refused before anything is read.
    corpus_dir = tmp_path / "corpus"
    assert run_cli(
        ["filter", "--results", tmp_path / "results", "--outputs", tmp_path / "outputs",
         "--out", corpus_dir, "--min-quality", value]
    ) == (2, "", f"error: --min-quality must be in [0, 1], got {value}\n")
    assert not corpus_dir.exists()


def test_filter_holds_less_than_its_inputs_in_memory(mock_run, tmp_path):
    # With nothing usable, filter keeps a few fields per output while it
    # reads; it does not hold every parsed record and evaluation at once.
    results, outputs = mock_run / "results", mock_run / "outputs"
    input_bytes = (results / "evaluations.jsonl").stat().st_size + sum(
        len(data) for _, _, data in record_files(outputs)
    )
    tracemalloc.start()
    try:
        code, stdout, err = run_cli([
            "filter", "--results", results, "--outputs", outputs, "--out", tmp_path / "corpus",
            "--min-quality", "1",
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert stdout.splitlines()[-1] == "total usable words: 0"
    assert peak < input_bytes


def test_filter_memory_does_not_grow_with_the_usable_text(small_run, tmp_path):
    # Each usable output is written as the merge reaches it: what filter
    # holds beyond the run's fixed costs is one cell's record files (the
    # walk's), not the corpus, so 20 times the text adds less than the
    # corpus grows by.
    long_run = tmp_path / "long"
    shutil.copytree(small_run, long_run)
    for record in records_under(long_run):
        long_text = " ".join([record.response_text] * 20)
        record_path(long_run, record.output_id).write_text(
            dumps_record(dataclasses.replace(record, response_text=long_text)), encoding="utf-8"
        )
    peaks, corpus_bytes = [], []
    for outputs in (small_run, long_run):
        results, corpus = tmp_path / f"{outputs.name}_results", tmp_path / f"{outputs.name}_corpus"
        code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", results])
        assert code == 0, err
        tracemalloc.start()
        try:
            code, _, err = run_cli(["filter", "--results", results, "--outputs", outputs, "--out", corpus])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, err
        corpus_bytes.append((corpus / "hau.txt").stat().st_size)
    assert corpus_bytes[1] > 15 * corpus_bytes[0]
    assert peaks[1] - peaks[0] < corpus_bytes[1] - corpus_bytes[0]


def test_filter_parses_only_the_records_it_exports(mock_run, tmp_path, monkeypatch):
    # An evaluation is checked against its record by the record file's
    # digest; the record is parsed only when its text goes into the corpus.
    parses = Counter()
    real_parse_record, real_load_record = cli.parse_record, fingerprints.load_record

    def parse_record(cls, *args):
        if cls is GenerationRecord:
            parses["parse_record"] += 1
        return real_parse_record(cls, *args)

    def load_record(*args):
        parses["load_record"] += 1
        return real_load_record(*args)

    monkeypatch.setattr(cli, "parse_record", parse_record)
    monkeypatch.setattr(fingerprints, "load_record", load_record)
    argv = ["filter", "--results", mock_run / "results", "--outputs", mock_run / "outputs"]
    code, stdout, err = run_cli([*argv, "--out", tmp_path / "none", "--min-quality", "1"])
    assert (code, err) == (0, "")
    assert stdout.splitlines()[-1] == "total usable words: 0"
    assert parses == {}

    code, stdout, err = run_cli([*argv, "--out", tmp_path / "corpus"])
    assert (code, err) == (0, "")
    documents = sum(int(line.split()[1]) for line in stdout.splitlines()[:-1])
    assert documents > 0
    assert parses == {"parse_record": documents}


def _truncate(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


def _drop_latency(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["latency"]
    path.write_text(json.dumps(data), encoding="utf-8")


def _copy_to_cw_99(path):
    shutil.copy(path, path.with_name("cw_99.json"))
    return path.with_name("cw_99.json")


@pytest.mark.parametrize(
    "corrupt, detail",
    [(_truncate, "invalid JSON"), (_drop_latency, "missing field 'latency'"), (_copy_to_cw_99, "cw_01")],
    ids=["truncated", "missing_field", "copied"],
)
def test_corrupt_record_is_a_data_error(small_run, tmp_path, corrupt, detail):
    outputs = tmp_path / "outputs"
    shutil.copytree(small_run, outputs)
    record = outputs / "gpt-4o-mini" / "hau" / "creative" / "cw_01.json"
    bad = corrupt(record) or record
    code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", tmp_path / "r"])
    assert code == 1
    assert f"error: {bad}: " in err
    assert detail in err


def test_record_whose_fields_disagree_with_its_id_is_a_data_error(small_run, tmp_path):
    # Read as it stands, the record would make a ghost/hau/dialogue cell of its own.
    outputs, results = tmp_path / "outputs", tmp_path / "results"
    shutil.copytree(small_run, outputs)
    code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", results])
    assert code == 0, err
    summary = (results / "summary.json").read_bytes()
    record = outputs / "gpt-4o-mini" / "hau" / "creative" / "cw_01.json"
    data = json.loads(record.read_text(encoding="utf-8"))
    data.update(model_id="ghost", task_type="dialogue")
    record.write_text(json.dumps(data), encoding="utf-8")
    message = (
        f"error: {record}: holds output_id 'gpt-4o-mini/hau/creative/cw_01', "
        "but its fields make 'ghost/hau/dialogue/cw_01'"
    )

    code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", results])
    assert code == 1
    assert message in err
    assert (results / "summary.json").read_bytes() == summary
    code, _, err = run_cli(["filter", "--results", results, "--outputs", outputs, "--out", tmp_path / "corpus"])
    assert code == 1
    assert message in err
    assert not (tmp_path / "corpus").exists()


def _write_creative(outputs, template, *model_prompt_ids):
    """Write ``template`` as the hau creative record of each (model id, prompt id)."""
    for model_id, prompt_id in model_prompt_ids:
        output_id = f"{model_id}/hau/creative/{prompt_id}"
        record = dataclasses.replace(
            template, output_id=output_id, model_id=model_id, task_type="creative", prompt_id=prompt_id
        )
        record_path(outputs, output_id).parent.mkdir(parents=True, exist_ok=True)
        record_path(outputs, output_id).write_text(dumps_record(record), encoding="utf-8")


def _split_cell_error(outputs):
    return (
        f"error: {record_path(outputs, 'm/hau/creative/zz')}: holds output_id 'm/hau/creative/zz', "
        "out of output-id order after 'm/hau/creative/hau/creative/cw_01' (corrupted run directory)\n"
    )


def test_cell_split_by_another_in_output_id_order_is_a_data_error(small_run, tmp_path):
    # Model "m/hau/creative" puts its record between two of cell
    # m/hau/creative: evaluate scores a cell as its run of the walk ends, so
    # a cell that comes back is refused before anything is written.
    outputs = tmp_path / "outputs"
    (template,) = records_under(small_run)[:1]
    _write_creative(outputs, template, ("m", "cw_01"), ("m/hau/creative", "cw_01"), ("m", "zz"))
    code, stdout, err = run_cli(["evaluate", "--outputs", outputs, "--results", tmp_path / "results"])
    assert (code, stdout, err) == (1, "", _split_cell_error(outputs))
    assert not (tmp_path / "results").exists()


def test_filter_refuses_a_cell_split_by_another(small_run, tmp_path):
    # filter reads the record files through evaluate's walk, so it refuses
    # the split cell as evaluate would, although both evaluated records
    # are unchanged.
    outputs, results, corpus = tmp_path / "outputs", tmp_path / "results", tmp_path / "corpus"
    (template,) = records_under(small_run)[:1]
    _write_creative(outputs, template, ("m", "cw_01"), ("m", "zz"))
    code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", results])
    assert (code, err) == (0, "")
    _write_creative(outputs, template, ("m/hau/creative", "cw_01"))
    code, stdout, err = run_cli(["filter", "--results", results, "--outputs", outputs, "--out", corpus])
    assert (code, stdout, err) == (1, "", _split_cell_error(outputs))
    assert not corpus.exists()


def _truncate_line(lines):
    lines[4] = lines[4][:40] + "\n"


def _repeat_line(lines):
    lines.insert(5, lines[4])


def _swap_lines(lines):
    lines[4], lines[5] = lines[5], lines[4]


def _infinite_word_count(lines):
    data = json.loads(lines[4])
    data["word_count"] = 1e400
    lines[4] = json.dumps(data).replace("Infinity", "1e400") + "\n"


def _append_blank_line(lines):
    lines.append("\n")


def _append_unterminated_line(lines):
    lines.append(lines[-1].rstrip("\n"))


_ONE_LINE_TOO_MANY = f" holds 601 evaluations, but {FILENAME} lists 600 outputs (run 'evaluate' again)"


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (_truncate_line, ":5: invalid JSON"),
        (_repeat_line, _ONE_LINE_TOO_MANY),
        (
            _swap_lines,
            ":5: holds output_id 'gemini-2.5-flash/fon/constrained/cg_06', but fingerprints.json lists "
            "'gemini-2.5-flash/fon/constrained/cg_05' for that line (run 'evaluate' again)",
        ),
        (_infinite_word_count, ":5: bad value"),
        (_append_blank_line, _ONE_LINE_TOO_MANY),
        (_append_unterminated_line, _ONE_LINE_TOO_MANY),
    ],
    ids=["truncated", "repeated", "swapped", "infinite_int", "blank", "unterminated"],
)
def test_corrupt_evaluations_line_is_a_data_error(mock_run, tmp_path, corrupt, detail):
    results = tmp_path / "results"
    shutil.copytree(mock_run / "results", results)
    path = results / "evaluations.jsonl"
    original = path.read_text(encoding="utf-8").splitlines(True)
    lines = list(original)
    corrupt(lines)
    path.write_text("".join(lines), encoding="utf-8")
    # The fingerprints are made to name the corrupt file, so that filter
    # gets as far as reading it.
    content = json.loads((results / FILENAME).read_text(encoding="utf-8"))
    content["evaluations"] = file_digest(path)
    (results / FILENAME).write_text(json.dumps(content), encoding="utf-8")
    code, stdout, err = run_cli(
        ["filter", "--results", results, "--outputs", mock_run / "outputs", "--out", tmp_path / "c"]
    )
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {path}{detail}")
    assert not (tmp_path / "c").exists()
    # evaluate pairs lines with listed outputs by the same rule, and of the
    # same number of lines it keeps only those that name their output.
    reused = sum(map(str.__eq__, original, lines)) if len(lines) == 600 else 0
    _assert_evaluate_ends_cold(mock_run, results, reused)


def _assert_evaluate_ends_cold(mock_run, results, reused=0):
    """An evaluate into ``results`` with ``mock_run``'s options reuses
    ``reused`` evaluations and leaves the files of ``mock_run``'s cold evaluate."""
    references = [f"--reference={code}={SEEDS_DIR / f'{code}_Latn.txt'}" for code in ("hau", "fon")]
    code, stdout, err = run_cli(
        ["evaluate", "--outputs", mock_run / "outputs", "--results", results, *references]
    )
    assert (code, err) == (0, "")
    assert f"reused {reused} of 600 evaluations" in stdout.splitlines()
    cold = {path.name: path.read_bytes() for path in (mock_run / "results").iterdir()}
    assert {path.name: path.read_bytes() for path in results.iterdir()} == cold


def test_filter_refuses_evaluations_that_lack_a_listed_output(mock_run, tmp_path):
    # The fingerprints list an output whose line is gone and are made to
    # name the shortened file: filter refuses it rather than export one
    # document fewer, and evaluate reuses nothing from it.
    results = tmp_path / "results"
    shutil.copytree(mock_run / "results", results)
    path = results / "evaluations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(True)
    kept = [line for line in lines if json.loads(line)["output_id"] != "gemini-2.5-flash/fon/constrained/cg_01"]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept), encoding="utf-8")
    content = json.loads((results / FILENAME).read_text(encoding="utf-8"))
    content["evaluations"] = file_digest(path)
    (results / FILENAME).write_text(json.dumps(content), encoding="utf-8")
    code, stdout, err = run_cli(
        ["filter", "--results", results, "--outputs", mock_run / "outputs", "--out", tmp_path / "corpus"]
    )
    assert (code, stdout) == (1, "")
    assert err == (
        f"error: {path} holds 599 evaluations, but {FILENAME} lists 600 outputs (run 'evaluate' again)\n"
    )
    assert not (tmp_path / "corpus").exists()
    _assert_evaluate_ends_cold(mock_run, results)


@pytest.mark.parametrize("name, kind", [("summary.json", "validity"), ("overlap.json", "overlap")])
def test_corrupt_results_file_is_a_data_error(mock_run, tmp_path, name, kind):
    results = tmp_path / "results"
    shutil.copytree(mock_run / "results", results)
    _truncate(results / name)
    code, _, err = run_cli(["report", "--results", results, "--kind", kind, "--format", "csv"])
    assert code == 1
    assert f"error: {results / name}: invalid JSON" in err


def _write_config_subset(target_dir, iso_codes, model_ids):
    languages = json.loads((data_dir() / "languages.json").read_text())
    models = json.loads((data_dir() / "models.json").read_text())
    languages["languages"] = [l for l in languages["languages"] if l["iso_code"] in iso_codes]
    models["models"] = [m for m in models["models"] if m["model_id"] in model_ids]
    target_dir.mkdir(parents=True, exist_ok=True)
    (target_dir / "languages.json").write_text(json.dumps(languages))
    (target_dir / "models.json").write_text(json.dumps(models))


_HAU_WORD_LISTS = json.loads((data_dir() / "languages.json").read_text())["languages"][0]["word_lists"]


@pytest.mark.parametrize(
    "filename,entry,message",
    [
        ("models.json", [1], "{path}: model entry 0 is not an object"),
        ("languages.json", "hau", "{path}: language entry 0 is not an object"),
        (
            "models.json",
            {"temperature": "warm"},
            "{path}: model entry 0: 'temperature' must be a finite number, not 'warm'",
        ),
        ("models.json", {"top_p": 2}, "model 'gpt-4o-mini': top_p must be in (0, 1]"),
        (
            "languages.json",
            {"word_lists": ["a"]},
            "{path}: language entry 0: 'word_lists' must be an object, not list",
        ),
        ("models.json", {"model_id": ["a"]}, "{path}: model entry 0: 'model_id' must be a string, not list"),
        (
            "languages.json",
            {"word_lists": {**_HAU_WORD_LISTS, "word_list_1": "ruwa, gona"}},
            "{path}: language entry 0: a value of 'word_lists' must be a list, not str",
        ),
        (
            "languages.json",
            {"tonal_orthography": "no"},
            "{path}: language entry 0: 'tonal_orthography' must be true or false, not str",
        ),
        (
            "languages.json",
            {"word_lists": {**_HAU_WORD_LISTS, "word_list_1": ["ruwa", 5]}},
            "{path}: language entry 0: an item of a value of 'word_lists' must be a string, not int",
        ),
        (
            "models.json",
            {"max_output_tokens": float("inf")},
            "{path}: model entry 0: 'max_output_tokens' must be a whole number, not inf",
        ),
        ("models.json", {"max_retries": True}, "{path}: model entry 0: 'max_retries' must be a number, not bool"),
        (
            "models.json",
            {"max_output_tokens": 1024.7},
            "{path}: model entry 0: 'max_output_tokens' must be a whole number, not 1024.7",
        ),
        (
            "models.json",
            {"temperature": float("nan")},
            "{path}: model entry 0: 'temperature' must be a finite number, not nan",
        ),
        (
            "models.json",
            {"temperature": "Infinity"},
            "{path}: model entry 0: 'temperature' must be a finite number, not 'Infinity'",
        ),
        (
            "models.json",
            {"min_request_interval": "NaN"},
            "{path}: model entry 0: 'min_request_interval' must be a finite number, not 'NaN'",
        ),
        ("models.json", {"max_retries": "nan"}, "{path}: model entry 0: 'max_retries' must be a whole number, not 'nan'"),
        ("models.json", {"top_p": None}, "{path}: model entry 0: 'top_p' must be a finite number, not None"),
        ("models.json", {"max_retries": [1]}, "{path}: model entry 0: 'max_retries' must be a whole number, not [1]"),
    ],
    ids=[
        "model_not_object", "language_not_object", "temperature_not_number", "validator_message_kept",
        "word_lists_not_object", "model_id_not_string", "word_list_a_string", "flag_a_string",
        "word_not_a_string", "max_output_tokens_infinite", "retries_a_flag", "max_output_tokens_fraction",
        "temperature_nan", "temperature_infinite", "min_request_interval_nan", "max_retries_nan",
        "top_p_null", "max_retries_list",
    ],
)
def test_bad_config_entry_is_a_usage_error_naming_file_and_entry(tmp_path, filename, entry, message):
    # ``entry`` replaces the first entry, or a dict updates it
    config = tmp_path / "config"
    _write_config_subset(config, {"hau", "fon"}, {"gpt-4o-mini", "gemini-2.5-flash"})
    data = json.loads((config / filename).read_text())
    entries = data[filename.removesuffix(".json")]
    entries[0] = {**entries[0], **entry} if isinstance(entry, dict) else entry
    (config / filename).write_text(json.dumps(data))
    code, _, err = run_cli(
        ["--config", config, "generate", "--mock", FIXTURES_PATH, "--out", tmp_path / "o"]
    )
    assert (code, err) == (2, f"error: {message.format(path=config / filename)}\n")
    assert not (tmp_path / "o").exists()


def test_http_generate_without_key_sends_nothing(tmp_path, monkeypatch, endpoint):
    monkeypatch.delenv("NO_NETWORK", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    config = tmp_path / "config"
    _write_config_subset(config, {"hau"}, {"gpt-4o-mini"})
    models = json.loads((config / "models.json").read_text())
    models["models"][0]["endpoint_url"] = endpoint.url
    (config / "models.json").write_text(json.dumps(models))
    out = tmp_path / "o"
    code, _, err = run_cli(["--config", config, "generate", "--out", out])
    assert code == 2
    assert "environment variable 'OPENAI_API_KEY' is not set" in err
    assert not [p for p in out.rglob("*") if p.is_file()]
    assert endpoint.received == []


def test_config_dir_precedence(tmp_path, monkeypatch):
    env_config = tmp_path / "env_config"
    _write_config_subset(env_config, {"fon"}, {"gemini-2.5-flash"})
    monkeypatch.setenv("LEXGLEAN_CONFIG", str(env_config))

    # The env config only knows fon, so asking for hau must fail ...
    code, _, err = run_cli(
        ["generate", "--mock", FIXTURES_PATH, "--languages", "hau", "--out", tmp_path / "a"]
    )
    assert code == 2
    assert "unknown language 'hau'" in err

    # ... unless --config points back at the full packaged directory.
    out = tmp_path / "b"
    code, stdout, err = run_cli(
        [
            "--config", data_dir(), "generate", "--mock", FIXTURES_PATH,
            "--languages", "hau", "--models", "gpt-4o-mini", "--out", out,
        ]
    )
    assert code == 0, err
    assert len(records_under(out)) == 150


def test_evaluate_reads_only_the_language_config(small_run, tmp_path):
    config = tmp_path / "config"
    config.mkdir()
    shutil.copy(data_dir() / "languages.json", config / "languages.json")
    code, stdout, err = run_cli(
        ["--config", config, "evaluate", "--outputs", small_run, "--results", tmp_path / "r"]
    )
    assert code == 0, err
    assert "evaluated 150 records into 6 conditions" in stdout


# 100,000 nested arrays: json.loads raises RecursionError on it, where other
# invalid JSON raises JSONDecodeError.
_DEEP = "[" * 100_000


def _deep_record_file(tmp_path, small_run):
    outputs = tmp_path / "outputs"
    shutil.copytree(small_run, outputs)
    record = outputs / "gpt-4o-mini" / "hau" / "creative" / "cw_01.json"
    record.write_text(_DEEP)
    argv = ["evaluate", "--outputs", outputs, "--results", tmp_path / "r"]
    return argv, 1, f"error: {record}: invalid JSON: nested too deeply"


def _deep_models_json(tmp_path, small_run):
    config = tmp_path / "config"
    _write_config_subset(config, {"hau"}, {"gpt-4o-mini"})
    (config / "models.json").write_text(_DEEP)
    argv = ["--config", config, "generate", "--mock", FIXTURES_PATH, "--out", tmp_path / "o"]
    return argv, 2, f"error: {config / 'models.json'}: invalid JSON at line 1 column 1: nested too deeply"


def _deep_mock_fixtures(tmp_path, small_run):
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(_DEEP)
    argv = ["generate", "--mock", fixtures, "--out", tmp_path / "o"]
    return argv, 1, f"error: {fixtures}: invalid JSON: nested too deeply"


def _deep_prediction_row(tmp_path, small_run):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(_PREDICTION_ROW + _DEEP + "\n")
    argv = ["evaluate", "--outputs", small_run, "--results", tmp_path / "r", "--lid", f"external:{predictions}"]
    return argv, 1, f"error: {predictions}:2: malformed prediction row: nested too deeply"


def _evaluated(tmp_path, small_run):
    results = tmp_path / "results"
    code, _, err = run_cli(["evaluate", "--outputs", small_run, "--results", results])
    assert code == 0, err
    return results


def _deep_fingerprints(tmp_path, small_run):
    path = _evaluated(tmp_path, small_run) / FILENAME
    path.write_text(_DEEP)
    argv = ["filter", "--results", path.parent, "--outputs", small_run, "--out", tmp_path / "c"]
    return argv, 1, f"error: {path}: invalid JSON: nested too deeply"


def _deep_summary(tmp_path, small_run):
    path = _evaluated(tmp_path, small_run) / "summary.json"
    path.write_text(_DEEP)
    argv = ["report", "--results", path.parent, "--kind", "validity", "--format", "csv"]
    return argv, 1, f"error: {path}: invalid JSON: nested too deeply"


@pytest.mark.parametrize(
    "make_input",
    [
        _deep_record_file, _deep_models_json, _deep_mock_fixtures, _deep_prediction_row, _deep_fingerprints,
        _deep_summary,
    ],
    ids=["record_file", "models_json", "mock_fixtures", "prediction_row", "fingerprints", "summary"],
)
def test_deeply_nested_json_ends_with_one_error_line(small_run, tmp_path, make_input):
    argv, expected_code, expected_line = make_input(tmp_path, small_run)
    before = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    code, stdout, err = run_cli(argv)
    assert code == expected_code
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(expected_line), err
    assert stdout == ""
    assert {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")} == before


# "\\ud800" is legal JSON, but no UTF-8 file can hold the lone surrogate it
# stands for; json.dumps writes it as that escape.
_SURROGATE = "Sannu \ud800"
_REFUSED = "lone surrogate '\\ud800', which UTF-8 cannot encode"


def _surrogate_record_file(tmp_path, small_run):
    outputs = tmp_path / "outputs"
    shutil.copytree(small_run, outputs)
    record = outputs / "gpt-4o-mini" / "hau" / "creative" / "cw_01.json"
    record.write_text(json.dumps({**json.loads(record.read_text()), "response_text": _SURROGATE}))
    argv = ["evaluate", "--outputs", outputs, "--results", tmp_path / "r"]
    return argv, 1, f"error: {record}: invalid JSON: {_REFUSED}"


def _surrogate_languages_json(tmp_path, small_run):
    config = tmp_path / "config"
    _write_config_subset(config, {"hau"}, {"gpt-4o-mini"})
    languages = json.loads((config / "languages.json").read_text())
    languages["languages"][0]["name"] = _SURROGATE
    (config / "languages.json").write_text(json.dumps(languages))
    argv = ["--config", config, "generate", "--mock", FIXTURES_PATH, "--out", tmp_path / "o"]
    return argv, 2, f"error: {config / 'languages.json'}: invalid JSON at line 1 column "


def _surrogate_mock_fixtures(tmp_path, small_run):
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(json.dumps({"gpt-4o-mini/hau/creative/cw_01": {"response_text": _SURROGATE}}))
    argv = ["generate", "--mock", fixtures, "--languages", "hau", "--models", "gpt-4o-mini"]
    argv += ["--out", tmp_path / "o"]
    return argv, 1, f"error: {fixtures}: invalid JSON: {_REFUSED}"


def _surrogate_prediction_row(tmp_path, small_run):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(_PREDICTION_ROW + _PREDICTION_ROW.replace('"elsewhere"', json.dumps(_SURROGATE)))
    argv = ["evaluate", "--outputs", small_run, "--results", tmp_path / "r", "--lid", f"external:{predictions}"]
    return argv, 1, f"error: {predictions}:2: malformed prediction row: {_REFUSED}"


def _surrogate_summary(tmp_path, small_run):
    path = _evaluated(tmp_path, small_run) / "summary.json"
    summaries = json.loads(path.read_text())
    summaries["summaries"][0]["model_id"] = _SURROGATE
    path.write_text(json.dumps(summaries))
    argv = ["report", "--results", path.parent, "--kind", "validity", "--format", "csv"]
    return argv, 1, f"error: {path}: invalid JSON: {_REFUSED}"


@pytest.mark.parametrize(
    "make_input",
    [
        _surrogate_record_file, _surrogate_languages_json, _surrogate_mock_fixtures, _surrogate_prediction_row,
        _surrogate_summary,
    ],
    ids=["record_file", "languages_json", "mock_fixtures", "prediction_row", "summary"],
)
def test_lone_surrogate_is_refused_where_it_is_read(small_run, tmp_path, make_input):
    argv, expected_code, expected_line = make_input(tmp_path, small_run)
    before = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    code, stdout, err = run_cli(argv)
    assert code == expected_code
    assert len(err.splitlines()) == 1 and err.startswith(expected_line) and _REFUSED in err, err
    assert stdout == ""
    assert {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("command", ["evaluate", "filter"])
def test_an_unreadable_record_file_ends_with_one_error_line(small_run, tmp_path, command):
    outputs, results = tmp_path / "outputs", tmp_path / "results"
    shutil.copytree(small_run, outputs)
    if command == "filter":
        _evaluated(tmp_path, outputs)
    dangling = outputs / "gpt-4o-mini" / "hau" / "creative" / "zz.json"
    dangling.symlink_to(tmp_path / "missing.json")
    argv = {
        "evaluate": ["evaluate", "--outputs", outputs, "--results", results],
        "filter": ["filter", "--results", results, "--outputs", outputs, "--out", tmp_path / "corpus"],
    }[command]
    before = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    code, stdout, err = run_cli(argv)
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{dangling}'\n"
    assert stdout == ""
    assert {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")} == before


def test_deeply_nested_fingerprints_leave_nothing_to_reuse(small_run, tmp_path):
    results = _evaluated(tmp_path, small_run)
    cold = {path.name: path.read_bytes() for path in results.iterdir()}
    (results / FILENAME).write_text(_DEEP)
    code, stdout, err = run_cli(["evaluate", "--outputs", small_run, "--results", results])
    assert code == 0, err
    assert "reused 0 of 150 evaluations" in stdout
    assert {path.name: path.read_bytes() for path in results.iterdir()} == cold


def _generate_against(endpoint, tmp_path, monkeypatch, reply):
    """Generate one record from ``endpoint``, which sends ``reply``, with no
    retries; the exit code, stderr, output id and --out directory."""
    monkeypatch.delenv("NO_NETWORK", raising=False)
    monkeypatch.setenv("OPENAI_API_KEY", "sekrit")
    config = tmp_path / "config"
    _write_config_subset(config, {"hau"}, {"gpt-4o-mini"})
    models = json.loads((config / "models.json").read_text())
    models["models"][0].update(endpoint_url=endpoint.url, max_retries=0)
    (config / "models.json").write_text(json.dumps(models))
    taxonomy = json.loads((data_dir() / "taxonomy.json").read_text())
    taxonomy["templates"] = taxonomy["templates"][:1]
    (tmp_path / "taxonomy.json").write_text(json.dumps(taxonomy))
    endpoint.replies = [(200, reply)]
    out = tmp_path / "o"
    code, _, err = run_cli(
        ["--config", config, "generate", "--taxonomy", tmp_path / "taxonomy.json", "--out", out]
    )
    output_id = f"gpt-4o-mini/hau/{taxonomy['templates'][0]['task_type']}/{taxonomy['templates'][0]['id']}"
    return code, err, output_id, out


def test_deeply_nested_completion_is_a_failed_call(tmp_path, endpoint, monkeypatch):
    code, err, output_id, out = _generate_against(endpoint, tmp_path, monkeypatch, _DEEP.encode())
    assert code == 3
    assert "Traceback" not in err
    expected = f"failed: {output_id}: retries exhausted after 1 attempts (unparseable completion payload: "
    assert len(err.splitlines()) == 1 and err.startswith(expected), err
    assert records_under(out) == []


def test_completion_holding_a_lone_surrogate_is_a_failed_call(tmp_path, endpoint, monkeypatch):
    message = {"role": "assistant", "content": _SURROGATE}
    reply = json.dumps({"choices": [{"message": message, "finish_reason": "stop"}]}).encode()
    assert b"\\ud800" in reply
    code, err, output_id, out = _generate_against(endpoint, tmp_path, monkeypatch, reply)
    assert code == 3
    expected = f"failed: {output_id}: retries exhausted after 1 attempts (unparseable completion payload: "
    expected += _REFUSED
    assert len(err.splitlines()) == 1 and err.startswith(expected), err
    assert records_under(out) == []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [failed for failed, _ in manifest["failures"]] == [output_id]


class _FlushFails(DiskFull):
    """A file handle that buffers every write and fails when it flushes, on
    ``flush()`` or on close, as a full disk does."""

    def write(self, data):
        return len(data)

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __exit__(self, *exc_info):
        super().__exit__(*exc_info)
        self.flush()


@pytest.mark.parametrize("failing", [DiskFull, _FlushFails], ids=["write", "flush"])
def test_filter_failing_a_write_leaves_the_previous_corpus(mock_run, tmp_path, monkeypatch, failing):
    corpus = tmp_path / "corpus"
    argv = ["filter", "--results", mock_run / "results", "--outputs", mock_run / "outputs", "--out", corpus]
    code, _, err = run_cli(argv)
    assert code == 0, err
    before = {path.name: path.read_bytes() for path in corpus.iterdir()}
    second = sorted(path.name for path in corpus.glob("*.txt"))[1]
    real_open = Path.open

    def fail_on_the_second_language(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return failing(handle) if self.name == second + ".tmp" else handle

    monkeypatch.setattr(Path, "open", fail_on_the_second_language)
    # A quality threshold changes every language's files, the first one's too.
    code, stdout, err = run_cli(argv + ["--min-quality", "0.6"])
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.rstrip().endswith("No space left on device")
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before


@pytest.mark.parametrize("failing", [DiskFull, _FlushFails], ids=["write", "flush"])
def test_filter_failing_a_write_leaves_no_out_directory_it_created(mock_run, tmp_path, monkeypatch, failing):
    real_open = Path.open

    def fail_on_the_first_file(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return failing(handle) if self.suffix == ".tmp" else handle

    monkeypatch.setattr(Path, "open", fail_on_the_first_file)
    out = tmp_path / "a" / "b"
    code, stdout, err = run_cli(
        ["filter", "--results", mock_run / "results", "--outputs", mock_run / "outputs", "--out", out]
    )
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.rstrip().endswith("No space left on device")
    assert list(tmp_path.iterdir()) == []


def test_evaluate_scores_each_distinct_sentence_once_per_cell(small_run, tmp_path, prediction_calls):
    outputs = tmp_path / "outputs"
    shutil.copytree(small_run, outputs)
    records = records_under(outputs)
    text = "Manoma suna shuka gero. Yara suna wasa a filin makaranta. Ruwan sama ya fara sauka."
    for record in records:
        record_path(outputs, record.output_id).write_text(
            dumps_record(dataclasses.replace(record, response_text=text)), encoding="utf-8"
        )
    code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", tmp_path / "r"])
    assert code == 0, err
    cells = {(r.model_id, r.language, r.task_type) for r in records}
    assert len(cells) > 1
    # One document prediction per record, and the three sentences once in each cell.
    assert len(prediction_calls) == len(records) + 3 * len(cells)
