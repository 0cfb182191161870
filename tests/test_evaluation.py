import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lexglean.codec import decoder, to_json
from lexglean.evaluation import (
    ConditionSummary,
    DEFAULT_W_CONF,
    EvaluationRecord,
    MEMORIZATION_COSINE_THRESHOLD,
    UsableOutput,
    aggregate,
    composite_quality,
    evaluate_output,
    evaluation_line,
    export_usable_corpus,
    is_memorization_suspect,
    read_summaries,
    reference_overlap,
    reference_profile,
    write_summaries,
)
from lexglean.generation import GenerationRecord, SamplingParams
from lexglean.langid import FidelityResult, LidPrediction
from lexglean.taxonomy import LanguageConfig
from lexglean.textstats import analyze

from conftest import DiskFull, read_evaluations

HAUSA = LanguageConfig("Hausa", "hau", "hau_Latn", "Hausa", "English", False)
FONGBE = LanguageConfig("Fongbe", "fon", "fon_Latn", "Fon", "French", True)


def make_record(output_id="m/hau/creative/cw_01", text="ruwa " * 25, language="hau"):
    model_id, language_, task_type, prompt_id = output_id.split("/")
    return GenerationRecord(
        output_id=output_id,
        prompt_id=prompt_id,
        model_id=model_id,
        language=language_,
        task_type=task_type,
        rendered_prompt="p",
        system_prompt="s",
        sampling=SamplingParams(0.7, 0.95, 256),
        response_text=text,
        finish_reason="stop",
        request_timestamp="1970-01-01T00:00:00+00:00",
        latency=0.0,
        attempt_count=1,
    )


def make_fidelity(label="hau_Latn", confidence=0.9, target_confidence=0.9, cs=0.0, target="hau_Latn"):
    return FidelityResult(
        document_prediction=LidPrediction(label, confidence),
        is_target=label == target,
        target_confidence=target_confidence,
        sentence_predictions=(),
        code_switch_rate=cs,
    )


class StaticBackend:
    def __init__(self, result):
        self.result = result

    def assess(self, text, target, output_id=None, seen=None):
        return self.result


def make_eval(output_id, *, word_count=100, valid=True, on_target=True, quality=0.9,
              target_confidence=0.9, cs=0.0, ttr=0.5, hapax=0.6, vocab=50, diacritics=None):
    from lexglean.textstats import DiversityStats

    label = "hau_Latn" if on_target else "eng_Latn"
    model_id, language, task_type, _ = output_id.split("/")
    return EvaluationRecord(
        output_id=output_id,
        model_id=model_id,
        language=language,
        task_type=task_type,
        word_count=word_count,
        is_valid=valid,
        diversity=DiversityStats(word_count, vocab, ttr, int(vocab * hapax), hapax),
        fidelity=FidelityResult(
            LidPrediction(label, 0.9), on_target, target_confidence, (), cs
        ),
        repetition_4gram=0.0,
        repetition_sentence=0.0,
        diacritics=diacritics,
        quality=quality,
    )


# ------------------------------------------------------------- quality

def test_composite_quality_frozen():
    assert composite_quality(0.998, 0.087) == pytest.approx(0.9555, abs=1e-9)
    assert composite_quality(1.0, 0.0) == 1.0
    assert composite_quality(0.0, 1.0) == 0.0


def test_composite_quality_custom_weights():
    assert composite_quality(0.5, 0.2, w_conf=0.7) == pytest.approx(0.7 * 0.5 + 0.3 * 0.8, abs=1e-12)


def test_quality_weights_validation():
    for w_conf in (-0.2, 1.2, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            composite_quality(0.5, 0.5, w_conf)
    assert composite_quality(0.25, 0.5, 0.0) == 0.5
    assert composite_quality(0.25, 0.5, 1.0) == 0.25
    assert DEFAULT_W_CONF == 0.5


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_quality_monotone_in_confidence(low, high, cs):
    low, high = sorted((low, high))
    assert composite_quality(low, cs) <= composite_quality(high, cs) + 1e-12


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_quality_antitone_in_code_switch(conf, low, high):
    low, high = sorted((low, high))
    assert composite_quality(conf, high) <= composite_quality(conf, low) + 1e-12


# ------------------------------------------------------------- memorization

def test_memorization_threshold_is_strict():
    assert not is_memorization_suspect(MEMORIZATION_COSINE_THRESHOLD)
    assert is_memorization_suspect(MEMORIZATION_COSINE_THRESHOLD + 1e-12)
    assert not is_memorization_suspect(0.1)


# ------------------------------------------------------------- evaluate_output

def test_evaluate_output_counts_and_validity():
    backend = StaticBackend(make_fidelity(target_confidence=0.8, cs=0.25))
    record = make_record(text="kalma " * 20)
    result = evaluate_output(record, HAUSA, backend, analysis=analyze(record.response_text))
    assert result.word_count == 20
    assert result.is_valid
    assert result.quality == pytest.approx(0.5 * 0.8 + 0.5 * 0.75)
    assert result.diacritics is None  # Hausa config is not tonal

    record = make_record(text="kalma " * 19)
    short = evaluate_output(record, HAUSA, backend, analysis=analyze(record.response_text))
    assert short.word_count == 19
    assert not short.is_valid


def test_evaluate_output_threshold_override():
    backend = StaticBackend(make_fidelity())
    record = make_record(text="kalma " * 5)
    analysis = analyze(record.response_text)
    assert not evaluate_output(record, HAUSA, backend, analysis=analysis).is_valid
    assert evaluate_output(record, HAUSA, backend, analysis=analysis, threshold=5).is_valid


def test_evaluate_output_tonal_language_gets_diacritics():
    backend = StaticBackend(make_fidelity(label="fon_Latn", target="fon_Latn"))
    record = make_record("m/fon/creative/cw_01", text="àzɔ̌ wà " * 12, language="fon")
    result = evaluate_output(record, FONGBE, backend, analysis=analyze(record.response_text))
    assert result.diacritics is not None
    assert result.diacritics.has_diacritics


# ------------------------------------------------------------- aggregate

def test_aggregate_frozen_percentages():
    records = [
        make_eval(f"m/hau/creative/cw_{i:02d}", valid=i < 23, word_count=100)
        for i in range(25)
    ]
    summary = aggregate(("m", "hau", "creative"), records)
    assert summary.n_outputs == 25
    assert summary.valid_pct == pytest.approx(92.0, abs=1e-9)
    assert summary.avg_words == pytest.approx(100.0)


def test_aggregate_usable_words_per_call():
    records = [
        make_eval("m/hau/creative/cw_01", word_count=100, valid=True, on_target=True),
        make_eval("m/hau/creative/cw_02", word_count=50, valid=True, on_target=True),
        make_eval("m/hau/creative/cw_03", word_count=400, valid=False, on_target=True),
        make_eval("m/hau/creative/cw_04", word_count=400, valid=True, on_target=False),
    ] + [
        make_eval(f"m/hau/creative/cw_{i:02d}", word_count=0, valid=False, on_target=False)
        for i in range(5, 26)
    ]
    summary = aggregate(("m", "hau", "creative"), records)
    assert summary.n_outputs == 25
    assert summary.usable_words_per_call == pytest.approx((100 + 50) / 25, abs=1e-9)


def test_aggregate_sorted_and_permutation_invariant():
    key = ("a", "fon", "creative")
    # Float sums depend on their order: 0.1 + 0.7 + 0.3 != 0.3 + 0.7 + 0.1.
    records = [
        make_eval("a/fon/creative/cw_03", word_count=3, quality=0.1),
        make_eval("a/fon/creative/cw_01", quality=0.7),
        make_eval("a/fon/creative/cw_02", word_count=7, quality=0.3),
    ]
    summary = aggregate(key, records)
    assert (summary.model_id, summary.language, summary.task_type) == key

    rng = random.Random(3)
    for _ in range(5):
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert aggregate(key, shuffled) == summary


def test_aggregate_diacritics_only_when_all_present():
    from lexglean.textstats import DiacriticStats

    stats = DiacriticStats(10, 5, 0.5, True, 0.8)
    with_dia = [
        make_eval("m/fon/creative/cw_01", diacritics=stats),
        make_eval("m/fon/creative/cw_02", diacritics=DiacriticStats(10, 0, 0.0, False, 0.0)),
    ]
    summary = aggregate(("m", "fon", "creative"), with_dia)
    assert summary.diacritic_presence_pct == pytest.approx(50.0)
    assert summary.avg_diacritic_ratio == pytest.approx(0.25)

    mixed = with_dia + [make_eval("m/fon/creative/cw_03", diacritics=None)]
    summary = aggregate(("m", "fon", "creative"), mixed)
    assert summary.diacritic_presence_pct is None
    assert summary.avg_diacritic_ratio is None


# ------------------------------------------------------------- overlap

def cell_overlaps(records, reference_lines):
    """``reference_overlap`` of every model/language/task cell, counted all at once."""
    reference = reference_profile(reference_lines)
    cells = {}
    for record in records:
        key = f"{record.model_id}/{record.language}/{record.task_type}"
        cells.setdefault(key, Counter()).update(analyze(record.response_text).grams)
    return [reference_overlap(key, cells[key], reference) for key in sorted(cells)]


def test_reference_overlap_groups():
    records = [
        make_record("m/hau/creative/cw_01", text="ruwan sama ya sauka a kan gonaki"),
        make_record("m/hau/creative/cw_02", text="ruwan sama ya sauka a kan gidaje"),
        make_record("m/hau/dialogue/dl_01", text="ruwan sama ya sauka"),
    ]
    reference = ["ruwan sama ya sauka a kan gonaki da gidaje"]
    per_condition = cell_overlaps(records, reference)
    assert [o.key for o in per_condition] == ["m/hau/creative", "m/hau/dialogue"]
    assert all(o.memorization_suspect for o in per_condition)


def test_reference_overlap_disjoint_text_not_flagged():
    records = [make_record(text="πολλά γράμματα εδώ")]
    results = cell_overlaps(records, ["ruwan sama ya sauka"])
    assert results[0].cosine == 0.0
    assert not results[0].memorization_suspect


def test_reference_overlap_errors():
    with pytest.raises(ValueError, match="reference corpus is empty"):
        reference_profile(["", "  "])


# ------------------------------------------------------------- filter/export

def usable_output(output_id, text, word_count=3, quality=0.9):
    model_id, language, task_type, _ = output_id.split("/")
    return UsableOutput(output_id, model_id, language, task_type, text, word_count, quality)


def test_export_usable_corpus(tmp_path):
    usable = [
        usable_output("m/hau/creative/cw_01", "Jimla ta farko."),
        usable_output("m/hau/creative/cw_02", "Jimla ta biyu."),
    ]
    totals = export_usable_corpus(usable, tmp_path, ["hau", "fon"])
    assert totals == {"hau": (2, 6), "fon": (0, 0)}
    assert (tmp_path / "hau.txt").read_text() == "Jimla ta farko.\n\nJimla ta biyu.\n"
    assert (tmp_path / "fon.txt").read_text() == ""
    lines = (tmp_path / "hau.provenance.jsonl").read_text().splitlines()
    assert [json.loads(l)["output_id"] for l in lines] == [
        "m/hau/creative/cw_01",
        "m/hau/creative/cw_02",
    ]
    assert (tmp_path / "fon.provenance.jsonl").exists()


def test_export_cut_short_leaves_no_truncated_corpus_file(tmp_path, monkeypatch):
    usable = [
        usable_output(f"m/hau/creative/cw_0{i}", f"Jimla ta {word}.")
        for i, word in enumerate(["farko", "biyu", "uku"], start=1)
    ]
    export_usable_corpus(usable[:1], tmp_path, ["hau"])
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    real_open = Path.open

    def open_then_fail(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return DiskFull(handle) if "w" in mode else handle

    monkeypatch.setattr(Path, "open", open_then_fail)
    with pytest.raises(OSError, match="No space left"):
        export_usable_corpus(usable, tmp_path, ["hau"])
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# ------------------------------------------------------------- persistence

def test_evaluations_roundtrip(tmp_path):
    from lexglean.textstats import DiacriticStats

    records = [
        make_eval("m/hau/creative/cw_02"),
        make_eval("m/fon/creative/cw_01", diacritics=DiacriticStats(10, 5, 0.5, True, 0.7)),
    ]
    path = tmp_path / "evaluations.jsonl"
    path.write_bytes(b"".join(evaluation_line(r) for r in sorted(records, key=lambda r: r.output_id)))
    loaded = list(read_evaluations(path))
    assert loaded == sorted(records, key=lambda r: r.output_id)


def test_evaluations_jsonl_line_is_pinned(tmp_path):
    from lexglean.textstats import DiacriticStats, DiversityStats

    record = EvaluationRecord(
        output_id="m/fon/creative/cw_01",
        model_id="m",
        language="fon",
        task_type="creative",
        word_count=3,
        is_valid=False,
        diversity=DiversityStats(3, 2, 2 / 3, 1, 0.5),
        fidelity=FidelityResult(
            document_prediction=LidPrediction("fon_Latn", 0.5),
            is_target=True,
            target_confidence=0.5,
            sentence_predictions=(LidPrediction("fon_Latn", 0.25), LidPrediction("fra_Latn", 0.75)),
            code_switch_rate=0.5,
        ),
        repetition_4gram=0.0,
        repetition_sentence=0.0,
        diacritics=DiacriticStats(4, 1, 0.25, True, 0.5),
        quality=0.5,
    )
    path = tmp_path / "evaluations.jsonl"
    path.write_bytes(evaluation_line(record))
    assert path.read_text(encoding="utf-8") == (
        '{"diacritics":{"alphabetic_count":4,"combining_mark_count":1,"diacritic_ratio":0.25,'
        '"has_diacritics":true,"tonal_vowel_fraction":0.5},'
        '"diversity":{"hapax_count":1,"hapax_ratio":0.5,"total_tokens":3,'
        '"ttr":0.6666666666666666,"vocab_size":2},'
        '"fidelity":{"code_switch_rate":0.5,"document":{"confidence":0.5,"label":"fon_Latn"},'
        '"is_target":true,"sentences":[{"confidence":0.25,"label":"fon_Latn"},'
        '{"confidence":0.75,"label":"fra_Latn"}],"target_confidence":0.5},'
        '"is_valid":false,"language":"fon","model_id":"m","output_id":"m/fon/creative/cw_01",'
        '"quality":0.5,"repetition_4gram":0.0,"repetition_sentence":0.0,"task_type":"creative",'
        '"word_count":3}\n'
    )
    assert list(read_evaluations(path)) == [record]


def test_summaries_roundtrip(tmp_path):
    summaries = [aggregate(("m", "hau", "creative"), [make_eval("m/hau/creative/cw_01")])]
    path = tmp_path / "summary.json"
    write_summaries(summaries, path)
    assert read_summaries(path) == summaries
    assert path.read_text().endswith("\n")


def test_condition_summary_roundtrip_none_fields():
    summary = aggregate(("m", "hau", "creative"), [make_eval("m/hau/creative/cw_01")])
    assert summary.diacritic_presence_pct is None
    assert decoder(ConditionSummary)(to_json(summary)) == summary
