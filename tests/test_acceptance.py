"""End-to-end acceptance checks.

Each test covers one hard requirement of the pipeline and prints a single
``ACCEPTANCE <name>: PASS`` line when it holds (visible with ``pytest -s``).
They intentionally go through the public entry points (CLI or module API)
rather than poking at internals.
"""
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import FIXTURES_PATH, SEEDS_DIR, DyingMockBackend, MockAborted, records_under, run_cli
from lexglean import data_dir, textstats
from lexglean.evaluation import (
    EvaluationRecord,
    MEMORIZATION_COSINE_THRESHOLD,
    OverlapResult,
    aggregate,
    composite_quality,
    evaluate_output,
    is_memorization_suspect,
    read_summaries,
    reference_profile,
)
from lexglean.generation import (
    GenerationRecord,
    RetryPolicy,
    SamplingParams,
    load_mock_fixtures,
    run_batch,
)
from lexglean.langid import FidelityResult, LidPrediction, load_seed_corpora, train_profiles
from lexglean.reporting import FORMATS, TABLE_KINDS, render_report
from lexglean.taxonomy import (
    LanguageConfig,
    load_language_configs,
    load_model_configs,
    load_taxonomy,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
EXTENSIONS = {"csv": "csv", "latex": "tex", "json": "json"}

TOLERANCE = 1e-9


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def _random_texts(count=100, seed=20240817):
    pool = (
        "abcdefghij KLMNOPqrstuvwxyz0123456789"
        " \t\n\n.,!?…;:()\"'’ʼ-‐"
        "éàñüɔɛčßİʼn"
        "̧̀́̌"
        "αβγδ ابت 汉字 😀"
    )
    rng = random.Random(seed)
    texts = ["", " \t\n ", "...", "á-b"]
    while len(texts) < count:
        texts.append("".join(rng.choice(pool) for _ in range(rng.randint(0, 300))))
    return texts[:count]


def test_metrics_match_independent_oracles():
    started = time.perf_counter()
    texts = _random_texts()
    profiles = []
    for text in texts:
        analysis = textstats.analyze(text)
        token_seq = analysis.tokens
        tokens = list(token_seq)
        assert tokens == oracles.tokenize(text), repr(text)

        sentences = analysis.sentences
        assert sentences == oracles.segment_sentences(text), repr(text)
        for sentence, grams in zip(sentences, analysis.sentence_grams, strict=True):
            assert Counter(grams) == oracles.trigram_counts(sentence), repr(sentence)

        stats = textstats.diversity(token_seq)
        assert stats.total_tokens == len(tokens)
        assert stats.vocab_size == len(set(tokens))
        assert abs(stats.ttr - oracles.ttr(tokens)) < TOLERANCE
        assert abs(stats.hapax_ratio - oracles.hapax_ratio(tokens)) < TOLERANCE

        for n in (1, 2, 3, 4):
            ours = textstats.ngram_repetition(token_seq, n)
            assert abs(ours - oracles.ngram_repetition(tokens, n)) < TOLERANCE

        ours = textstats.sentence_repetition(sentences)
        assert abs(ours - oracles.sentence_repetition(sentences)) < TOLERANCE

        diacritics = textstats.diacritic_stats(text)
        letters, marks, tonal_fraction = oracles.diacritic_counts(text)
        assert diacritics.alphabetic_count == letters
        assert diacritics.combining_mark_count == marks
        assert diacritics.has_diacritics == (marks > 0)
        expected_ratio = marks / letters if letters else 0.0
        assert abs(diacritics.diacritic_ratio - expected_ratio) < TOLERANCE
        assert abs(diacritics.tonal_vowel_fraction - tonal_fraction) < TOLERANCE

        profile = Counter(analysis.grams)
        assert profile == oracles.trigram_counts(text)
        assert len(analysis.grams) == sum(profile.values())
        profiles.append((profile, oracles.trigram_counts(text)))

    for (p1, c1), (p2, c2) in zip(profiles, profiles[1:]):
        assert abs(textstats.cosine(p1, p2) - oracles.cosine(c1, c2)) < TOLERANCE

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    _report("metrics-match-independent-oracles")


class _FixedFidelity:
    def assess(self, text, target, output_id=None, seen=None):
        return FidelityResult(LidPrediction("hau_Latn", 0.9), True, 0.9, (), 0.0)


def _record_with_words(n_words):
    return GenerationRecord(
        output_id="m/hau/creative/cw_01",
        prompt_id="cw_01",
        model_id="m",
        language="hau",
        task_type="creative",
        rendered_prompt="p",
        system_prompt="s",
        sampling=SamplingParams(0.7, 0.95, 256),
        response_text=" ".join(f"kalma{i}" for i in range(n_words)),
        finish_reason="stop",
        request_timestamp="1970-01-01T00:00:00+00:00",
        latency=0.0,
        attempt_count=1,
    )


def test_validity_word_count_boundary():
    lang = LanguageConfig("Hausa", "hau", "hau_Latn", "Hausa", "English", False)
    backend = _FixedFidelity()
    at_threshold, below = (
        evaluate_output(record, lang, backend, analysis=textstats.analyze(record.response_text))
        for record in (_record_with_words(20), _record_with_words(19))
    )
    assert at_threshold.word_count == 20 and at_threshold.is_valid
    assert below.word_count == 19 and not below.is_valid
    _report("validity-boundary-19-vs-20")


def test_builtin_lid_holdout_accuracy():
    started = time.perf_counter()
    corpora = load_seed_corpora(SEEDS_DIR)
    assert sorted(corpora) == ["eng_Latn", "fon_Latn", "fra_Latn", "hau_Latn", "yor_Latn"]
    assert all(len(lines) >= 50 for lines in corpora.values())

    profiles = train_profiles({label: lines[:50] for label, lines in corpora.items()})
    heldout = [
        (label, line)
        for label, lines in corpora.items()
        for line in lines[50:]
        if len(textstats.analyze(line).tokens) >= 30
    ]
    assert len(heldout) >= 30
    assert len({label for label, _ in heldout}) == 5

    backend = profiles

    def predict(label, line):
        return backend.assess(textstats.analyze(line), label).document_prediction

    predictions = [predict(label, line) for label, line in heldout]
    assert predictions == [predict(label, line) for label, line in heldout]  # deterministic

    accuracy = sum(1 for (label, _), p in zip(heldout, predictions) if p.label == label) / len(heldout)
    assert accuracy >= 0.90, f"held-out accuracy {accuracy:.3f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"LID train+classify took {elapsed:.1f}s"
    _report(f"builtin-lid-holdout-accuracy ({accuracy:.0%} on {len(heldout)} sentences)")


def test_mock_batch_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv("NO_NETWORK", "1")
    started = time.perf_counter()
    outputs = tmp_path / "outputs"
    results = tmp_path / "results"
    code, _, err = run_cli(["generate", "--mock", FIXTURES_PATH, "--out", outputs])
    assert code == 0, err
    code, _, err = run_cli(["evaluate", "--outputs", outputs, "--results", results])
    assert code == 0, err
    elapsed = time.perf_counter() - started

    assert len(records_under(outputs)) == 600
    assert len(read_summaries(results / "summary.json")) == 24
    assert elapsed < 30.0, f"mock run took {elapsed:.1f}s"
    _report(f"mock-batch-600-records-24-summaries ({elapsed:.1f}s)")


def _record_files(run_dir):
    return {
        path.relative_to(run_dir)
        for path in Path(run_dir).rglob("*.json")
        if path.name != "manifest.json"
    }


def test_run_is_resumable_after_kill(mock_run, tmp_path):
    fixtures = load_mock_fixtures(FIXTURES_PATH)
    templates = load_taxonomy(data_dir() / "taxonomy.json")
    languages = load_language_configs(data_dir() / "languages.json")
    models = load_model_configs(data_dir() / "models.json")

    baseline_outputs = mock_run / "outputs"
    baseline_files = _record_files(baseline_outputs)
    baseline_summary = (mock_run / "results" / "summary.json").read_bytes()
    assert len(baseline_files) == 600

    for fail_after in (1, 100, 599):
        out = tmp_path / f"kill_{fail_after}" / "outputs"
        backend = DyingMockBackend(fixtures, fail_after=fail_after)
        with pytest.raises(MockAborted):
            run_batch(
                templates, languages, models, out, backend,
                parallelism=8, policy=RetryPolicy(rng=random.Random(0)),
            )
        partial = _record_files(out)
        assert len(partial) == fail_after, f"kill at {fail_after} left {len(partial)} records"
        assert partial <= baseline_files

        backend.fail_after = None
        manifest = run_batch(
            templates, languages, models, out, backend,
            parallelism=8, policy=RetryPolicy(rng=random.Random(0)),
        )
        assert manifest.new_requests == 600 - fail_after
        assert len(manifest.completed) == 600
        assert not manifest.failures

        # No triple was ever requested twice across the kill and the resume.
        assert len(backend.call_log) == 600
        assert len(set(backend.call_log)) == 600

        resumed = _record_files(out)
        assert resumed == baseline_files
        for rel in sorted(resumed):
            assert (out / rel).read_bytes() == (baseline_outputs / rel).read_bytes(), str(rel)

        results = tmp_path / f"kill_{fail_after}" / "results"
        code, _, err = run_cli(["evaluate", "--outputs", out, "--results", results])
        assert code == 0, err
        assert (results / "summary.json").read_bytes() == baseline_summary

    _report("resume-after-kill-1-100-599")


def _full_yield_record(i):
    word_count = 30 + i
    return EvaluationRecord(
        output_id=f"m/hau/creative/cw_{i:02d}",
        model_id="m",
        language="hau",
        task_type="creative",
        word_count=word_count,
        is_valid=True,
        diversity=textstats.DiversityStats(word_count, word_count, 1.0, word_count, 1.0),
        fidelity=FidelityResult(LidPrediction("hau_Latn", 0.9), True, 0.9, (), 0.0),
        repetition_4gram=0.0,
        repetition_sentence=0.0,
        diacritics=None,
        quality=0.95,
    )


def test_efficiency_identity_at_full_yield(mock_run):
    summary = aggregate(("m", "hau", "creative"), [_full_yield_record(i) for i in range(1, 26)])
    assert summary.valid_pct == 100.0 and summary.doc_fidelity_pct == 100.0
    assert abs(summary.usable_words_per_call - summary.avg_words) < TOLERANCE

    summaries = read_summaries(mock_run / "results" / "summary.json")
    full_cells = [s for s in summaries if s.valid_pct == 100.0 and s.doc_fidelity_pct == 100.0]
    assert full_cells, "expected at least one cell with 100% valid and on-target outputs"
    for cell in full_cells:
        assert abs(cell.usable_words_per_call - cell.avg_words) < TOLERANCE, cell
    _report(f"usable-words-equals-avg-words-at-full-yield ({len(full_cells)} real cells)")


def test_efficiency_counts_the_words_filter_exports(mock_run, tmp_path):
    # The paper's efficiency number (usable words per call) and the exported
    # corpus count the same outputs: valid and in the target language.
    code, stdout, err = run_cli([
        "filter", "--results", mock_run / "results", "--outputs", mock_run / "outputs", "--out", tmp_path / "c"
    ])
    assert code == 0, err
    exported = {}
    for line in stdout.splitlines():  # "<lang>: <documents> documents, <words> words"
        if line.endswith(" words"):
            exported[line.split(":")[0]] = int(line.split()[3])
    efficiency = Counter()
    for summary in read_summaries(mock_run / "results" / "summary.json"):
        efficiency[summary.language] += round(summary.usable_words_per_call * summary.n_outputs)
    assert efficiency == exported == {"hau": 20315, "fon": 26135}
    _report("efficiency-words-equal-exported-words")


def test_memorization_flag_straddles_threshold():
    reference = reference_profile(["ruwan sama ya sauka a kan gonakin manoma da gidajen mutane"])

    def mixture_cosine(k):
        diluted = (
            "ruwan sama ya sauka a kan gonakin manoma da gidajen mutane " + "qz xv wj " * k
        )
        return textstats.cosine(Counter(textstats.analyze(diluted).grams), reference)

    cosines = [mixture_cosine(k) for k in range(400)]
    above = [c for c in cosines if c > MEMORIZATION_COSINE_THRESHOLD]
    below = [c for c in cosines if c < MEMORIZATION_COSINE_THRESHOLD]
    assert above and below, "mixture family must straddle the threshold"
    assert all(is_memorization_suspect(c) for c in above)
    assert not any(is_memorization_suspect(c) for c in below)

    assert not is_memorization_suspect(MEMORIZATION_COSINE_THRESHOLD)
    assert is_memorization_suspect(math.nextafter(MEMORIZATION_COSINE_THRESHOLD, 1.0))
    _report("memorization-flag-strict-at-0.15")


def test_quality_score_formula_grid():
    checked = 0
    for i in range(41):
        conf = i / 40
        row = []
        for j in range(25):
            cs = j / 24
            value = composite_quality(conf, cs)
            exact = Fraction(1, 2) * Fraction(conf) + Fraction(1, 2) * (1 - Fraction(cs))
            assert abs(value - float(exact)) < TOLERANCE
            row.append(value)
            checked += 1
        # Monotone non-increasing in the code-switch rate.
        assert all(a >= b - TOLERANCE for a, b in zip(row, row[1:]))
    assert checked >= 1000

    for j in range(25):
        cs = j / 24
        column = [composite_quality(i / 40, cs) for i in range(41)]
        # Monotone non-decreasing in the language confidence.
        assert all(a <= b + TOLERANCE for a, b in zip(column, column[1:]))
    _report(f"quality-formula-grid ({checked} points)")


def test_report_rendering_matches_goldens(mock_run):
    results = mock_run / "results"
    summaries = read_summaries(results / "summary.json")
    overlap_data = json.loads((results / "overlap.json").read_text(encoding="utf-8"))
    overlaps = [
        OverlapResult(o["key"], float(o["cosine"]), bool(o["memorization_suspect"]))
        for o in overlap_data["overlaps"]
    ]

    for kind in TABLE_KINDS:
        for format in FORMATS:
            rendered = render_report(kind, format, summaries, overlaps)
            golden = GOLDEN_DIR / f"{kind}.{EXTENSIONS[format]}"
            assert golden.exists(), f"missing golden {golden}; run scripts/regenerate_goldens.py"
            assert rendered.encode("utf-8") == golden.read_bytes(), golden.name
    _report("report-goldens-byte-identical (18 tables)")
