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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .generation import GenerationRecord
from .langid import FidelityBackend, FidelityResult
from .taxonomy import LanguageConfig
from .textstats import (
    DiacriticStats,
    DiversityStats,
    TrigramProfile,
    cosine,
    diacritic_stats,
    diversity,
    ngram_repetition,
    segment_sentences,
    sentence_repetition,
    tokenize,
    trigrams,
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

    def to_json_dict(self) -> dict:
        diacritics = None
        if self.diacritics is not None:
            diacritics = {
                "alphabetic_count": self.diacritics.alphabetic_count,
                "combining_mark_count": self.diacritics.combining_mark_count,
                "diacritic_ratio": self.diacritics.diacritic_ratio,
                "has_diacritics": self.diacritics.has_diacritics,
                "tonal_vowel_fraction": self.diacritics.tonal_vowel_fraction,
            }
        return {
            "output_id": self.output_id,
            "model_id": self.model_id,
            "language": self.language,
            "task_type": self.task_type,
            "word_count": self.word_count,
            "is_valid": self.is_valid,
            "diversity": {
                "total_tokens": self.diversity.total_tokens,
                "vocab_size": self.diversity.vocab_size,
                "ttr": self.diversity.ttr,
                "hapax_count": self.diversity.hapax_count,
                "hapax_ratio": self.diversity.hapax_ratio,
            },
            "fidelity": self.fidelity.to_json_dict(),
            "repetition_4gram": self.repetition_4gram,
            "repetition_sentence": self.repetition_sentence,
            "diacritics": diacritics,
            "quality": self.quality,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EvaluationRecord":
        div = data["diversity"]
        dia = data.get("diacritics")
        return cls(
            output_id=data["output_id"],
            model_id=data["model_id"],
            language=data["language"],
            task_type=data["task_type"],
            word_count=int(data["word_count"]),
            is_valid=bool(data["is_valid"]),
            diversity=DiversityStats(
                int(div["total_tokens"]),
                int(div["vocab_size"]),
                float(div["ttr"]),
                int(div["hapax_count"]),
                float(div["hapax_ratio"]),
            ),
            fidelity=FidelityResult.from_json_dict(data["fidelity"]),
            repetition_4gram=float(data["repetition_4gram"]),
            repetition_sentence=float(data["repetition_sentence"]),
            diacritics=None
            if dia is None
            else DiacriticStats(
                int(dia["alphabetic_count"]),
                int(dia["combining_mark_count"]),
                float(dia["diacritic_ratio"]),
                bool(dia["has_diacritics"]),
                float(dia["tonal_vowel_fraction"]),
            ),
            quality=float(data["quality"]),
        )


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

    def to_json_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "language": self.language,
            "task_type": self.task_type,
            "n_outputs": self.n_outputs,
            "valid_pct": self.valid_pct,
            "avg_words": self.avg_words,
            "doc_fidelity_pct": self.doc_fidelity_pct,
            "avg_ttr": self.avg_ttr,
            "avg_hapax": self.avg_hapax,
            "avg_vocab": self.avg_vocab,
            "avg_code_switch": self.avg_code_switch,
            "avg_lang_conf": self.avg_lang_conf,
            "avg_quality": self.avg_quality,
            "usable_words_per_call": self.usable_words_per_call,
            "diacritic_presence_pct": self.diacritic_presence_pct,
            "avg_diacritic_ratio": self.avg_diacritic_ratio,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConditionSummary":
        dia_pct = data.get("diacritic_presence_pct")
        dia_ratio = data.get("avg_diacritic_ratio")
        return cls(
            model_id=data["model_id"],
            language=data["language"],
            task_type=data["task_type"],
            n_outputs=int(data["n_outputs"]),
            valid_pct=float(data["valid_pct"]),
            avg_words=float(data["avg_words"]),
            doc_fidelity_pct=float(data["doc_fidelity_pct"]),
            avg_ttr=float(data["avg_ttr"]),
            avg_hapax=float(data["avg_hapax"]),
            avg_vocab=float(data["avg_vocab"]),
            avg_code_switch=float(data["avg_code_switch"]),
            avg_lang_conf=float(data["avg_lang_conf"]),
            avg_quality=float(data["avg_quality"]),
            usable_words_per_call=float(data["usable_words_per_call"]),
            diacritic_presence_pct=None if dia_pct is None else float(dia_pct),
            avg_diacritic_ratio=None if dia_ratio is None else float(dia_ratio),
        )


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

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "cosine": self.cosine,
            "memorization_suspect": self.memorization_suspect,
        }


def _merged_profile(texts: Iterable[str]) -> TrigramProfile:
    """One trigram profile over several texts; integer counts, so summing is exact."""
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(trigrams(text))
    return TrigramProfile(dict(counts), sum(counts.values()))


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
    reference_profile = _merged_profile(reference_lines)

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
        profile = _merged_profile(r.response_text for r in members)
        value = cosine(profile, reference_profile)
        results.append(OverlapResult(key, value, is_memorization_suspect(value)))
    return results


@dataclass(frozen=True)
class UsableEntry:
    output_id: str
    model_id: str
    language: str
    task_type: str
    text: str
    word_count: int
    quality: float


@dataclass
class UsableCorpus:
    """Valid, on-target outputs selected for corpus export."""

    entries: list[UsableEntry]

    @property
    def total_words(self) -> int:
        return sum(entry.word_count for entry in self.entries)

    def by_language(self) -> dict[str, list[UsableEntry]]:
        out: dict[str, list[UsableEntry]] = {}
        for entry in self.entries:
            out.setdefault(entry.language, []).append(entry)
        return out


def filter_usable(
    pairs: Sequence[tuple[GenerationRecord, EvaluationRecord]],
    min_quality: float | None = None,
) -> UsableCorpus:
    """Keep outputs that are valid and on-target (and above ``min_quality``)."""
    seen: set[str] = set()
    entries: list[UsableEntry] = []
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
        entries.append(
            UsableEntry(
                output_id=generation.output_id,
                model_id=generation.model_id,
                language=generation.language,
                task_type=generation.task_type,
                text=generation.response_text,
                word_count=evaluation.word_count,
                quality=evaluation.quality,
            )
        )
    entries.sort(key=lambda e: e.output_id)
    return UsableCorpus(entries)


def export_usable_corpus(
    corpus: UsableCorpus, out_dir: str | Path, languages: Sequence[str]
) -> dict[str, int]:
    """Write one text file per language plus a provenance JSONL sidecar.

    Documents are separated by a blank line.  A language with no usable
    outputs still gets an (empty) corpus file.  Returns words per language.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_language = corpus.by_language()
    totals: dict[str, int] = {}
    for language in sorted(set(languages) | set(by_language)):
        entries = by_language.get(language, [])
        text_path = out_dir / f"{language}.txt"
        sidecar_path = out_dir / f"{language}.provenance.jsonl"
        body = "\n\n".join(entry.text for entry in entries)
        text_path.write_text(body + "\n" if body else "", encoding="utf-8")
        with sidecar_path.open("w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(
                    json.dumps(
                        {
                            "output_id": entry.output_id,
                            "model_id": entry.model_id,
                            "task_type": entry.task_type,
                            "word_count": entry.word_count,
                            "quality": entry.quality,
                        },
                        ensure_ascii=False,
                        sort_keys=True,
                    )
                    + "\n"
                )
        totals[language] = sum(entry.word_count for entry in entries)
    return totals


def write_evaluations(records: Sequence[EvaluationRecord], path: str | Path) -> None:
    """Persist evaluation records as JSONL, sorted by output id."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.output_id)
    with path.open("w", encoding="utf-8") as handle:
        for record in ordered:
            handle.write(
                json.dumps(record.to_json_dict(), ensure_ascii=False, sort_keys=True, separators=(",", ":"))
                + "\n"
            )


def read_evaluations(path: str | Path) -> list[EvaluationRecord]:
    path = Path(path)
    records = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(EvaluationRecord.from_json_dict(json.loads(line)))
    return records


def write_summaries(summaries: Sequence[ConditionSummary], path: str | Path) -> None:
    """Persist full-precision condition summaries as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"summaries": [s.to_json_dict() for s in summaries]}
    path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_summaries(path: str | Path) -> list[ConditionSummary]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [ConditionSummary.from_json_dict(entry) for entry in data["summaries"]]
