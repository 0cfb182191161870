"""Per-output scoring, per-condition aggregation and corpus filtering.

An output is *valid* when it has at least ``DEFAULT_VALIDITY_THRESHOLD``
word tokens (inclusive).  The composite quality score is a weighted mean of
the target-language confidence and the inverse code-switch rate::

    quality = w_conf * lang_conf + w_cs * (1 - code_switch_rate)

with weights that must sum to 1 (default 0.5 / 0.5).  Aggregation groups
records by (model, language, task_type) and averages over *all* records in
the cell, valid or not; ``usable_words_per_call`` divides the words of
valid, on-target outputs by the total number of outputs in the cell.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .codec import DataError, json_file_text, load_list, parse_record, to_json
from .generation import GenerationRecord
from .langid import FidelityBackend, FidelityResult
from .taxonomy import LanguageConfig
from .textstats import (
    DiacriticStats,
    DiversityStats,
    cosine,
    diacritic_stats,
    diversity,
    merged_trigram_profile,
    ngram_repetition,
    segment_sentences,
    sentence_repetition,
    tokenize,
)

DEFAULT_VALIDITY_THRESHOLD = 20

# Trigram cosine against a reference corpus above this flags possible
# memorisation / regurgitation.  Strictly greater-than flags.
MEMORIZATION_COSINE_THRESHOLD = 0.15

_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QualityWeights:
    confidence: float = 0.5
    code_switch: float = 0.5

    def __post_init__(self) -> None:
        if self.confidence < 0 or self.code_switch < 0:
            raise ValueError("quality weights must be nonnegative")
        if abs(self.confidence + self.code_switch - 1.0) > _WEIGHT_TOLERANCE:
            raise ValueError(
                f"quality weights must sum to 1, got {self.confidence + self.code_switch!r}"
            )


DEFAULT_QUALITY_WEIGHTS = QualityWeights()


def composite_quality(
    lang_conf: float,
    code_switch: float,
    weights: QualityWeights = DEFAULT_QUALITY_WEIGHTS,
) -> float:
    """Weighted mean of language confidence and inverse code-switch rate."""
    return weights.confidence * lang_conf + weights.code_switch * (1.0 - code_switch)


def is_memorization_suspect(
    cosine_value: float, threshold: float = MEMORIZATION_COSINE_THRESHOLD
) -> bool:
    return cosine_value > threshold


@dataclass(frozen=True)
class EvaluationRecord:
    """All per-output metrics for one generation record."""

    output_id: str
    model_id: str
    language: str
    task_type: str
    word_count: int
    is_valid: bool
    diversity: DiversityStats
    fidelity: FidelityResult
    repetition_4gram: float
    repetition_sentence: float
    diacritics: DiacriticStats | None
    quality: float


def evaluate_output(
    record: GenerationRecord,
    lang: LanguageConfig,
    backend: FidelityBackend,
    *,
    threshold: int = DEFAULT_VALIDITY_THRESHOLD,
    weights: QualityWeights = DEFAULT_QUALITY_WEIGHTS,
) -> EvaluationRecord:
    """Score one generation record against its target language."""
    text = record.response_text
    tokens = tokenize(text)
    word_count = tokens.total
    fidelity = backend.assess(text, lang.target_lid_label, output_id=record.output_id)
    return EvaluationRecord(
        output_id=record.output_id,
        model_id=record.model_id,
        language=record.language,
        task_type=record.task_type,
        word_count=word_count,
        is_valid=word_count >= threshold,
        diversity=diversity(tokens),
        fidelity=fidelity,
        repetition_4gram=ngram_repetition(tokens, 4),
        repetition_sentence=sentence_repetition(segment_sentences(text)),
        diacritics=diacritic_stats(text) if lang.tonal_orthography else None,
        quality=composite_quality(fidelity.target_confidence, fidelity.code_switch_rate, weights),
    )


@dataclass(frozen=True)
class ConditionSummary:
    """Aggregated metrics for one (model, language, task_type) cell."""

    model_id: str
    language: str
    task_type: str
    n_outputs: int
    valid_pct: float
    avg_words: float
    doc_fidelity_pct: float
    avg_ttr: float
    avg_hapax: float
    avg_vocab: float
    avg_code_switch: float
    avg_lang_conf: float
    avg_quality: float
    usable_words_per_call: float
    diacritic_presence_pct: float | None
    avg_diacritic_ratio: float | None


def aggregate(records: Iterable[EvaluationRecord]) -> list[ConditionSummary]:
    """Summarise records per (model, language, task_type), sorted by that key.

    Records inside a cell are reduced in output-id order, which makes the
    result independent of input ordering down to the last bit.
    """
    cells: dict[tuple[str, str, str], list[EvaluationRecord]] = {}
    for record in records:
        cells.setdefault((record.model_id, record.language, record.task_type), []).append(record)

    summaries: list[ConditionSummary] = []
    for key in sorted(cells):
        cell = sorted(cells[key], key=lambda r: r.output_id)
        n = len(cell)
        n_valid = sum(1 for r in cell if r.is_valid)
        n_target = sum(1 for r in cell if r.fidelity.is_target)
        usable_words = sum(r.word_count for r in cell if r.is_valid and r.fidelity.is_target)
        has_diacritics = all(r.diacritics is not None for r in cell)
        summaries.append(
            ConditionSummary(
                model_id=key[0],
                language=key[1],
                task_type=key[2],
                n_outputs=n,
                valid_pct=100.0 * n_valid / n,
                avg_words=sum(r.word_count for r in cell) / n,
                doc_fidelity_pct=100.0 * n_target / n,
                avg_ttr=sum(r.diversity.ttr for r in cell) / n,
                avg_hapax=sum(r.diversity.hapax_ratio for r in cell) / n,
                avg_vocab=sum(r.diversity.vocab_size for r in cell) / n,
                avg_code_switch=sum(r.fidelity.code_switch_rate for r in cell) / n,
                avg_lang_conf=sum(r.fidelity.target_confidence for r in cell) / n,
                avg_quality=sum(r.quality for r in cell) / n,
                usable_words_per_call=usable_words / n,
                diacritic_presence_pct=(
                    100.0 * sum(1 for r in cell if r.diacritics.has_diacritics) / n
                    if has_diacritics
                    else None
                ),
                avg_diacritic_ratio=(
                    sum(r.diacritics.diacritic_ratio for r in cell) / n
                    if has_diacritics
                    else None
                ),
            )
        )
    return summaries


@dataclass(frozen=True)
class OverlapResult:
    key: str
    cosine: float
    memorization_suspect: bool


def reference_overlap(
    generated: Sequence[GenerationRecord],
    reference_corpus: Sequence[str],
    granularity: str = "per_condition",
) -> list[OverlapResult]:
    """Trigram-cosine overlap of generated text against a reference corpus.

    ``granularity`` is "per_condition" (one result per model/language/task
    cell) or "per_output".  A cosine strictly above
    MEMORIZATION_COSINE_THRESHOLD marks the group as a memorisation suspect.
    """
    reference_lines = [line for line in reference_corpus if line.strip()]
    if not reference_lines:
        raise ValueError("reference corpus is empty")
    reference_profile = merged_trigram_profile(reference_lines)

    groups: dict[str, list[GenerationRecord]] = {}
    if granularity == "per_condition":
        for record in generated:
            key = f"{record.model_id}/{record.language}/{record.task_type}"
            groups.setdefault(key, []).append(record)
    elif granularity == "per_output":
        for record in generated:
            groups.setdefault(record.output_id, []).append(record)
    else:
        raise ValueError(f"unknown granularity '{granularity}'")

    results = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r.output_id)
        profile = merged_trigram_profile(r.response_text for r in members)
        value = cosine(profile, reference_profile)
        results.append(OverlapResult(key, value, is_memorization_suspect(value)))
    return results


def filter_usable(
    pairs: Sequence[tuple[GenerationRecord, EvaluationRecord]],
    min_quality: float | None = None,
) -> list[tuple[GenerationRecord, EvaluationRecord]]:
    """The valid, on-target pairs (above ``min_quality`` if given), sorted by output id."""
    seen: set[str] = set()
    kept: list[tuple[GenerationRecord, EvaluationRecord]] = []
    for generation, evaluation in pairs:
        if generation.output_id != evaluation.output_id:
            raise ValueError(
                f"record/evaluation mismatch: {generation.output_id} vs {evaluation.output_id}"
            )
        if generation.output_id in seen:
            raise ValueError(
                f"duplicate output_id '{generation.output_id}' (corrupted run directory)"
            )
        seen.add(generation.output_id)
        if not (evaluation.is_valid and evaluation.fidelity.is_target):
            continue
        if min_quality is not None and evaluation.quality < min_quality:
            continue
        kept.append((generation, evaluation))
    kept.sort(key=lambda pair: pair[0].output_id)
    return kept


def export_usable_corpus(
    usable: Sequence[tuple[GenerationRecord, EvaluationRecord]],
    out_dir: str | Path,
    languages: Sequence[str],
) -> dict[str, tuple[int, int]]:
    """Write one text file per language plus a provenance JSONL sidecar.

    Documents are separated by a blank line.  A language with no usable
    outputs still gets an (empty) corpus file.  Returns (documents, words)
    per language.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_language: dict[str, list[tuple[GenerationRecord, EvaluationRecord]]] = {}
    for pair in usable:
        by_language.setdefault(pair[0].language, []).append(pair)
    totals: dict[str, tuple[int, int]] = {}
    for language in sorted(set(languages) | set(by_language)):
        group = by_language.get(language, [])
        text_path = out_dir / f"{language}.txt"
        sidecar_path = out_dir / f"{language}.provenance.jsonl"
        body = "\n\n".join(generation.response_text for generation, _ in group)
        text_path.write_text(body + "\n" if body else "", encoding="utf-8")
        with sidecar_path.open("w", encoding="utf-8") as handle:
            for generation, evaluation in group:
                handle.write(
                    json.dumps(
                        {
                            "output_id": generation.output_id,
                            "model_id": generation.model_id,
                            "task_type": generation.task_type,
                            "word_count": evaluation.word_count,
                            "quality": evaluation.quality,
                        },
                        ensure_ascii=False,
                        sort_keys=True,
                    )
                    + "\n"
                )
        totals[language] = (len(group), sum(evaluation.word_count for _, evaluation in group))
    return totals


def write_evaluations(records: Sequence[EvaluationRecord], path: str | Path) -> None:
    """Persist evaluation records as JSONL, sorted by output id."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.output_id)
    with path.open("w", encoding="utf-8") as handle:
        for record in ordered:
            handle.write(
                json.dumps(to_json(record), ensure_ascii=False, sort_keys=True, separators=(",", ":"))
                + "\n"
            )


def read_evaluations(path: str | Path) -> list[EvaluationRecord]:
    """Load ``evaluations.jsonl``; a bad or repeated line raises DataError naming it."""
    path = Path(path)
    records: dict[str, EvaluationRecord] = {}
    with path.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            record = parse_record(EvaluationRecord, line, path, lineno)
            if records.setdefault(record.output_id, record) is not record:
                raise DataError(
                    f"{path}:{lineno}: duplicate output_id '{record.output_id}' (corrupted run directory)"
                )
    return list(records.values())


def write_summaries(summaries: Sequence[ConditionSummary], path: str | Path) -> None:
    """Persist full-precision condition summaries as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_file_text({"summaries": [to_json(s) for s in summaries]}), encoding="utf-8")


def read_summaries(path: str | Path) -> list[ConditionSummary]:
    return load_list(ConditionSummary, Path(path), "summaries")
