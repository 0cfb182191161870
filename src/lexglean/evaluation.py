"""Per-output scoring, per-condition aggregation and usable-corpus export.

An output is *valid* when it has at least ``DEFAULT_VALIDITY_THRESHOLD``
word tokens (inclusive).  The composite quality score is a weighted mean of
the target-language confidence and the inverse code-switch rate::

    quality = w_conf * lang_conf + (1 - w_conf) * (1 - code_switch_rate)

with ``w_conf`` in [0, 1] (default 0.5).  Aggregation summarises one
(model, language, task_type) cell and averages over *all* its records,
valid or not; ``usable_words_per_call`` divides the words of valid,
on-target outputs by the total number of outputs in the cell.
"""
from __future__ import annotations

import contextlib
import json
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .codec import atomic_writer, json_file_text, load_list, to_json, write_atomic
from .generation import GenerationRecord
from .langid import FidelityBackend, FidelityResult
from .taxonomy import LanguageConfig
from .textstats import (
    DiacriticStats,
    DiversityStats,
    TextAnalysis,
    cosine,
    diacritic_stats,
    diversity,
    merged_trigram_profile,
    ngram_repetition,
    sentence_repetition,
)

DEFAULT_VALIDITY_THRESHOLD = 20

# Trigram cosine against a reference corpus above this flags possible
# memorisation / regurgitation.  Strictly greater-than flags.
MEMORIZATION_COSINE_THRESHOLD = 0.15

DEFAULT_W_CONF = 0.5


def composite_quality(lang_conf: float, code_switch: float, w_conf: float = DEFAULT_W_CONF) -> float:
    """Weighted mean of language confidence and inverse code-switch rate."""
    if not 0.0 <= w_conf <= 1.0:
        raise ValueError(f"quality weights must be nonnegative: w_conf {w_conf!r} is not in [0, 1]")
    return w_conf * lang_conf + (1.0 - w_conf) * (1.0 - code_switch)


def is_memorization_suspect(cosine_value: float) -> bool:
    return cosine_value > MEMORIZATION_COSINE_THRESHOLD


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
    analysis: TextAnalysis,
    threshold: int = DEFAULT_VALIDITY_THRESHOLD,
    w_conf: float = DEFAULT_W_CONF,
    seen: dict | None = None,
) -> EvaluationRecord:
    """Score one generation record against its target language.

    ``analysis`` is ``textstats.analyze(record.response_text)``; ``seen`` is
    the backend's memo of the sentences it has scored (see ``langid``).
    """
    tokens = analysis.tokens
    word_count = len(tokens)
    fidelity = backend.assess(analysis, lang.target_lid_label, output_id=record.output_id, seen=seen)
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
        repetition_sentence=sentence_repetition(analysis.sentences),
        diacritics=diacritic_stats(record.response_text) if lang.tonal_orthography else None,
        quality=composite_quality(fidelity.target_confidence, fidelity.code_switch_rate, w_conf),
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


def aggregate(key: tuple[str, str, str], records: Iterable[EvaluationRecord]) -> ConditionSummary:
    """Summarise the records of the (model, language, task_type) cell ``key``.

    Records are reduced in output-id order, which makes the result
    independent of input ordering down to the last bit.
    """
    cell = sorted(records, key=lambda r: r.output_id)
    n = len(cell)
    n_valid = sum(1 for r in cell if r.is_valid)
    n_target = sum(1 for r in cell if r.fidelity.is_target)
    usable_words = sum(r.word_count for r in cell if r.is_valid and r.fidelity.is_target)
    has_diacritics = all(r.diacritics is not None for r in cell)
    return ConditionSummary(
        *key,
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


@dataclass(frozen=True)
class OverlapResult:
    key: str
    cosine: float
    memorization_suspect: bool


def reference_profile(reference_corpus: Sequence[str]) -> Counter[str]:
    """Merged trigram profile of the nonblank lines of a reference corpus."""
    reference_lines = [line for line in reference_corpus if line.strip()]
    if not reference_lines:
        raise ValueError("reference corpus is empty")
    return merged_trigram_profile(reference_lines)


def reference_overlap(
    key: str, counts: Mapping[str, int], reference: Mapping[str, int]
) -> OverlapResult:
    """Trigram-cosine overlap of one cell's generated text against a reference.

    ``counts`` are the trigram counts of every response in the
    model/language/task cell named by ``key``.  A cosine strictly above
    MEMORIZATION_COSINE_THRESHOLD marks the cell as a memorisation suspect.
    """
    value = cosine(counts, reference)
    return OverlapResult(key, value, is_memorization_suspect(value))


def export_usable_corpus(
    usable: Iterable[tuple[tuple[str, str, str], EvaluationRecord, str]],
    out_dir: str | Path,
    languages: Sequence[str],
) -> dict[str, tuple[int, int]]:
    """Write one text file per language plus a provenance JSONL sidecar.

    ``usable`` yields each usable output as its (model, language, task) cell
    key, its evaluation and its record's text, in output-id order, which the
    files keep; the key's language is one of ``languages`` and routes the
    output, and its model and task go into the provenance line.  Every file
    is opened before the first output is taken and each output is written as
    it comes, so no text is held after it is written.  Documents are
    separated by a blank line and a corpus file that is not empty ends in a
    newline.  A language with no usable outputs still gets an (empty) corpus
    file.  Every file is flushed before any is renamed into place, so a
    failed write, or an error raised by ``usable``, leaves ``out_dir`` as it
    was: the directories the export created for it are removed again.
    Returns (documents, words) per language.
    """
    out_dir = Path(out_dir)
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]  # innermost first
    try:
        with contextlib.ExitStack() as writers:
            files = {
                language: [
                    writers.enter_context(atomic_writer(out_dir / f"{language}{suffix}"))
                    for suffix in (".txt", ".provenance.jsonl")
                ]
                for language in sorted(languages)
            }
            totals = dict.fromkeys(files, (0, 0))
            for (model_id, language, task_type), evaluation, text in usable:
                corpus, provenance = files[language]
                documents, words = totals[language]
                corpus.write((b"\n\n" if documents else b"") + text.encode("utf-8"))
                provenance.write(json.dumps(
                    {
                        "output_id": evaluation.output_id,
                        "model_id": model_id,
                        "task_type": task_type,
                        "word_count": evaluation.word_count,
                        "quality": evaluation.quality,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                ).encode("utf-8") + b"\n")
                totals[language] = (documents + 1, words + evaluation.word_count)
            for corpus, provenance in files.values():
                if corpus.tell():
                    corpus.write(b"\n")
                corpus.flush()  # a full disk fails here, before any file is renamed
                provenance.flush()
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    return totals


def names_its_output(line: bytes, output_id: str) -> bool:
    """Whether ``line`` is a whole ``evaluations.jsonl`` line (see
    ``evaluation_line``) whose ``output_id`` field is ``output_id``."""
    field = b'"output_id":' + encode_basestring(output_id).encode("utf-8")  # as json.dumps writes it
    return line.endswith(b"}\n") and field in line


def evaluation_line(record: EvaluationRecord) -> bytes:
    """The ``evaluations.jsonl`` line of one evaluation record."""
    return json.dumps(
        to_json(record), ensure_ascii=False, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def write_summaries(summaries: Sequence[ConditionSummary], path: str | Path) -> None:
    """Persist full-precision condition summaries as JSON, atomically."""
    write_atomic(Path(path), json_file_text({"summaries": [to_json(s) for s in summaries]}))


def read_summaries(path: str | Path) -> list[ConditionSummary]:
    return load_list(ConditionSummary, Path(path), "summaries")
