"""Language identification and target-language fidelity scoring.

Two interchangeable classifier backends are provided:

* ``BuiltinClassifier`` -- nearest-profile classification over character
  trigram profiles trained from small seed corpora (one ``<label>.txt``
  file per label, one sentence per line).  It is a deterministic,
  dependency-free stand-in, not a state-of-the-art identifier.
* ``ExternalPredictionsClassifier`` -- pass-through adapter for label and
  confidence columns produced by an external tool, keyed by output id.

Both expose ``assess(analysis, target, output_id=...)``, taking the
``textstats.analyze`` result of the output, and return a ``FidelityResult``
with a document-level prediction, per-sentence predictions and a
sentence-level code-switch rate.  Each backend has its own target-confidence
rule; one builder derives the rest from the predictions.  The builtin
backend scores from the grams it is handed; the external one ignores them.

A score is the cosine ``dot / (norm * ref_norm)`` of integer trigram counts.
``LanguageProfileSet.dot`` gets every label's dot from one sum: a table
built on first use maps each gram to all labels' reference counts, each
shifted into its own bit field of one Python int.  The fields are wide enough
that no sum carries from one into the next, and integer sums do not depend on
their order, so each unpacked dot, and each score, equals the per-label
computation exactly.

The dot is linear in the counts, so when the sentences tile the document
(see ``textstats``) the document's packed dot is the sum of the sentence
dots plus the dots of the cross grams between neighbours: the same multiset
of grams, summed in another order.  ``BuiltinClassifier`` sums it that way
and computes it directly only when the sentences do not tile.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .codec import JSON_KEY, DataError
from .textstats import TextAnalysis, merged_trigram_profile, norm

UNKNOWN_LABEL = "und"

# Sentences shorter than this after normalisation inherit the document-level
# prediction instead of being classified on their own.
MIN_SENTENCE_CHARS = 3


class BackendError(RuntimeError):
    """A classifier backend could not produce a prediction for an output."""


@dataclass(frozen=True)
class LidPrediction:
    label: str
    confidence: float


@dataclass(frozen=True)
class FidelityResult:
    """Document- and sentence-level language fidelity for one output."""

    document_prediction: LidPrediction = field(metadata={JSON_KEY: "document"})
    is_target: bool
    target_confidence: float
    sentence_predictions: tuple[LidPrediction, ...] = field(metadata={JSON_KEY: "sentences"})
    code_switch_rate: float


def _fidelity_result(
    target: str, document: LidPrediction, confidence: float, sentences: Sequence[LidPrediction]
) -> FidelityResult:
    """The fidelity of an output with these predictions and target confidence.

    It is on target when the document label is ``target``; its code-switch
    rate is the share of sentences labelled otherwise (0.0 without any).
    """
    switched = sum(1 for p in sentences if p.label != target)
    rate = switched / len(sentences) if sentences else 0.0
    return FidelityResult(document, document.label == target, confidence, tuple(sentences), rate)


class LanguageProfileSet:
    """Trained trigram profiles (trigram -> count), one per language label.

    Labels are kept sorted so that score ties resolve to the
    lexicographically smallest label.
    """

    def __init__(self, profiles: Mapping[str, Mapping[str, int]]):
        if not profiles:
            raise ValueError("profile set needs at least one language")
        for label, counts in profiles.items():
            if not counts:
                raise ValueError(f"profile for '{label}' is empty")
        self.labels: list[str] = sorted(profiles)
        self.profiles: dict[str, Mapping[str, int]] = {l: profiles[l] for l in self.labels}
        self._norms: list[float] = [norm(self.profiles[l]) for l in self.labels]

    @cached_property
    def _packed(self) -> tuple[dict[str, int], int]:
        """A table mapping each gram to all labels' reference counts, one bit
        field per label, and the field width; built on first use.

        The dot of ``n`` grams with one label is at most ``n * max_count``,
        and ``max_count`` is below 2**max_count.bit_length().  ``dot`` sums
        the grams of one text, and a text has fewer than 2**63 grams (no
        Python string is longer), so with fields of
        ``max_count.bit_length() + 64`` bits no field's sum carries into the
        next, and the packed sum holds every label's dot exactly.  A
        document dot summed from its sentences sums the document's own
        grams, so the same bound holds.
        """
        max_count = max(max(counts.values()) for counts in self.profiles.values())
        bits = max_count.bit_length() + 64
        packed: dict[str, int] = {}
        for index, label in enumerate(self.labels):
            for gram, count in self.profiles[label].items():
                packed[gram] = packed.get(gram, 0) + (count << (bits * index))
        return packed, bits

    def dot(self, grams: Iterable[str]) -> int:
        """Every label's dot product with the counts of ``grams``, packed."""
        return sum(map(self._packed[0].get, grams, repeat(0)))

    def cosines(self, dots: int, norm: float) -> list[float]:
        """Unpack packed dots into each label's cosine with a profile of this norm."""
        bits = self._packed[1]
        mask = (1 << bits) - 1
        out = []
        for ref_norm in self._norms:
            dot = dots & mask
            dots >>= bits
            out.append(dot / (norm * ref_norm) if dot else 0.0)
        return out


def load_seed_corpora(seeds_dir: str | Path) -> dict[str, list[str]]:
    """Read ``<label>.txt`` seed files (one sentence per line) from a directory."""
    seeds_dir = Path(seeds_dir)
    files = sorted(seeds_dir.glob("*.txt"))
    if not files:
        raise ValueError(f"no seed files (*.txt) in {seeds_dir}")
    corpora: dict[str, list[str]] = {}
    for path in files:
        lines = [
            line.strip()
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        corpora[path.stem] = lines
    return corpora


def train_profiles(seed_corpora: Mapping[str, Sequence[str]]) -> LanguageProfileSet:
    """Build one merged trigram profile per label from seed documents."""
    profiles: dict[str, Counter[str]] = {}
    for label in sorted(seed_corpora):
        documents = [doc for doc in seed_corpora[label] if doc.strip()]
        if not documents:
            raise ValueError(f"seed corpus for '{label}' has no nonempty documents")
        profiles[label] = merged_trigram_profile(documents)
    return LanguageProfileSet(profiles)


def _prediction(
    profile_set: LanguageProfileSet, dots: int, grams: list[str]
) -> tuple[LidPrediction, list[float]]:
    """Best label for these grams, whose packed dot is ``dots``, with its
    softmax confidence, plus the softmax over all labels.

    No grams map to ('und', 0.0) and an empty softmax.
    """
    if not grams:
        return LidPrediction(UNKNOWN_LABEL, 0.0), []
    scores = profile_set.cosines(dots, norm(Counter(grams)))
    peak = max(scores)
    best = scores.index(peak)  # first index wins ties -> smallest label
    exps = [math.exp(s - peak) for s in scores]
    denom = sum(exps)
    return LidPrediction(profile_set.labels[best], exps[best] / denom), [e / denom for e in exps]


class BuiltinClassifier:
    """Fidelity assessment backed by the trigram nearest-profile classifier."""

    def __init__(self, profile_set: LanguageProfileSet):
        self.profile_set = profile_set

    def assess(
        self, analysis: TextAnalysis, target: str, output_id: str | None = None
    ) -> FidelityResult:
        dot = self.profile_set.dot
        sentence_dots = [dot(grams) for grams in analysis.sentence_grams]
        if analysis.cross_grams is None:
            document_dot = dot(analysis.grams)
        else:
            document_dot = sum(sentence_dots, dot(analysis.cross_grams))
        document, probs = _prediction(self.profile_set, document_dot, analysis.grams)
        labels = self.profile_set.labels
        target_confidence = probs[labels.index(target)] if probs and target in labels else 0.0

        # A sentence's gram count equals its normalised length, so short
        # sentences are recognised from their grams.
        sentence_predictions = [
            document
            if len(grams) < MIN_SENTENCE_CHARS
            else _prediction(self.profile_set, dots, grams)[0]
            for grams, dots in zip(analysis.sentence_grams, sentence_dots)
        ]
        return _fidelity_result(target, document, target_confidence, sentence_predictions)


def load_external_predictions(
    path: str | Path,
) -> dict[str, tuple[LidPrediction, tuple[LidPrediction, ...]]]:
    """Load externally produced predictions from a JSONL file.

    Each row needs ``output_id``, ``doc_label``, ``doc_conf`` and parallel
    ``sentence_labels`` / ``sentence_confs`` arrays; it maps the output id
    to the (document, sentences) predictions.  A malformed row or a
    repeated output id raises DataError naming ``path:line``.
    """
    path = Path(path)
    bundles = {}
    with path.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                row = json.loads(line)
                output_id = row["output_id"]
                if not isinstance(output_id, str):
                    raise TypeError(f"output_id must be a string, got {output_id!r}")
                doc = LidPrediction(str(row["doc_label"]), float(row["doc_conf"]))
                labels = row["sentence_labels"]
                confs = row["sentence_confs"]
                if len(labels) != len(confs):
                    raise ValueError("sentence_labels and sentence_confs differ in length")
                sentences = tuple(
                    LidPrediction(str(l), float(c)) for l, c in zip(labels, confs)
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: malformed prediction row: {exc}") from exc
            if output_id in bundles:
                raise DataError(f"{path}:{lineno}: duplicate output_id '{output_id}'")
            bundles[output_id] = (doc, sentences)
    return bundles


class ExternalPredictionsClassifier:
    """Pass-through fidelity assessment from pre-computed predictions.

    Labels and confidences are reproduced exactly as ingested; only
    ``is_target`` and the code-switch rate are derived from them.  The
    target confidence is the document confidence when the predicted label
    is the target, else 0.0 (per-label mass is not available in the file).
    """

    def __init__(
        self, predictions: Mapping[str, tuple[LidPrediction, tuple[LidPrediction, ...]]]
    ):
        self.predictions = dict(predictions)

    def assess(
        self, analysis: TextAnalysis, target: str, output_id: str | None = None
    ) -> FidelityResult:
        if output_id not in self.predictions:
            raise BackendError(f"no external prediction (output {output_id})")
        document, sentences = self.predictions[output_id]
        target_confidence = document.confidence if document.label == target else 0.0
        return _fidelity_result(target, document, target_confidence, sentences)


class FidelityBackend(Protocol):
    def assess(
        self, analysis: TextAnalysis, target: str, output_id: str | None = None
    ) -> FidelityResult:
        ...

