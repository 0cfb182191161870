"""Language identification and target-language fidelity scoring.

Two interchangeable classifier backends are provided:

* ``BuiltinClassifier`` -- nearest-profile classification over character
  trigram profiles trained from small seed corpora (one ``<label>.txt``
  file per label, one sentence per line).  It is a deterministic,
  dependency-free stand-in, not a state-of-the-art identifier.
* ``ExternalPredictionsClassifier`` -- pass-through adapter for label and
  confidence columns produced by an external tool, keyed by output id.

Both expose ``assess(text, target, output_id=...)`` returning a
``FidelityResult`` with a document-level prediction, per-sentence
predictions and a sentence-level code-switch rate.

A score is the cosine ``dot / (norm * ref_norm)`` of integer trigram counts.
``LanguageProfileSet.scores`` gets every label's dot from one sum: a table
built on first use maps each gram to all labels' reference counts, each
shifted into its own bit field of one Python int.  The fields are wide enough
that no sum carries from one into the next, and integer sums do not depend on
their order, so each unpacked dot, and each score, equals the per-label
computation exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import mul
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .codec import JSON_KEY
from .textstats import TrigramProfile, merged_trigram_profile, segment_sentences, trigram_profile

UNKNOWN_LABEL = "und"

# Sentences shorter than this after normalisation inherit the document-level
# prediction instead of being classified on their own.
MIN_SENTENCE_CHARS = 3


class BackendError(RuntimeError):
    """A classifier backend could not produce a prediction for an output."""

    def __init__(self, message: str, output_id: str | None = None):
        super().__init__(message if output_id is None else f"{message} (output {output_id})")
        self.output_id = output_id


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


class LanguageProfileSet:
    """Trained trigram profiles, one per language label.

    Labels are kept sorted so that score ties resolve to the
    lexicographically smallest label.
    """

    def __init__(self, profiles: Mapping[str, TrigramProfile]):
        if not profiles:
            raise ValueError("profile set needs at least one language")
        for label, profile in profiles.items():
            if profile.total == 0:
                raise ValueError(f"profile for '{label}' is empty")
        self.labels: list[str] = sorted(profiles)
        self.profiles: dict[str, TrigramProfile] = {l: profiles[l] for l in self.labels}
        self._norms: list[float] = [self.profiles[l].norm() for l in self.labels]
        self._packed: tuple[dict[str, int], int] | None = None

    def _pack(self) -> tuple[dict[str, int], int]:
        """Map each gram to all labels' reference counts, one bit field per label.

        Returns the table and the field width.  A profile's dot with one
        label is at most ``total * max_count``, where ``total`` is its gram
        count and ``max_count`` is below 2**max_count.bit_length().  A text
        has fewer than 2**63 grams (no Python string is longer) and
        ``scores`` rejects profiles with 2**64 or more, so with fields of
        ``max_count.bit_length() + 64`` bits no field's sum carries into the
        next, and the packed sum holds every label's dot exactly.
        """
        max_count = max(max(p.counts.values()) for p in self.profiles.values())
        bits = max_count.bit_length() + 64
        packed: dict[str, int] = {}
        for index, label in enumerate(self.labels):
            for gram, count in self.profiles[label].counts.items():
                packed[gram] = packed.get(gram, 0) + (count << (bits * index))
        return packed, bits

    def scores(self, profile: TrigramProfile) -> list[float]:
        """Cosine similarity of ``profile`` against every label, in label order."""
        if profile.total == 0:
            return [0.0 for _ in self.labels]
        if profile.total >> 64:
            raise ValueError("profile has 2**64 or more grams; its dot products could overflow")
        if self._packed is None:
            self._packed = self._pack()
        packed, bits = self._packed
        counts = profile.counts
        dots = sum(map(mul, map(packed.get, counts, repeat(0)), counts.values()))
        mask = (1 << bits) - 1
        norm = profile.norm()
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
    profiles: dict[str, TrigramProfile] = {}
    for label in sorted(seed_corpora):
        documents = [doc for doc in seed_corpora[label] if doc.strip()]
        if not documents:
            raise ValueError(f"seed corpus for '{label}' has no nonempty documents")
        profiles[label] = merged_trigram_profile(documents)
    return LanguageProfileSet(profiles)


def _softmax(scores: Sequence[float]) -> list[float]:
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    denom = sum(exps)
    return [e / denom for e in exps]


def _classify_profile(
    profile: TrigramProfile, profile_set: LanguageProfileSet
) -> tuple[LidPrediction, list[float]]:
    """Best label with its softmax confidence, plus the softmax over all labels.

    An empty profile maps to ('und', 0.0) and an empty softmax.
    """
    if profile.total == 0:
        return LidPrediction(UNKNOWN_LABEL, 0.0), []
    scores = profile_set.scores(profile)
    best = scores.index(max(scores))  # first index wins ties -> smallest label
    probs = _softmax(scores)
    return LidPrediction(profile_set.labels[best], probs[best]), probs


def classify(text: str, profile_set: LanguageProfileSet) -> LidPrediction:
    """Predict the language of a text; empty text maps to ('und', 0.0)."""
    return _classify_profile(trigram_profile(text), profile_set)[0]


class BuiltinClassifier:
    """Fidelity assessment backed by the trigram nearest-profile classifier."""

    name = "builtin"

    def __init__(self, profile_set: LanguageProfileSet):
        self.profile_set = profile_set

    def assess(self, text: str, target: str, output_id: str | None = None) -> FidelityResult:
        labels = self.profile_set.labels
        document, probs = _classify_profile(trigram_profile(text), self.profile_set)
        target_confidence = probs[labels.index(target)] if probs and target in labels else 0.0

        # A sentence's gram count equals its normalised length, so short
        # sentences are recognised from the profile itself.
        sentence_predictions: list[LidPrediction] = []
        for sentence in segment_sentences(text):
            profile = trigram_profile(sentence)
            if profile.total < MIN_SENTENCE_CHARS:
                sentence_predictions.append(document)
            else:
                sentence_predictions.append(_classify_profile(profile, self.profile_set)[0])
        if sentence_predictions:
            switched = sum(1 for p in sentence_predictions if p.label != target)
            code_switch_rate = switched / len(sentence_predictions)
        else:
            code_switch_rate = 0.0

        return FidelityResult(
            document_prediction=document,
            is_target=document.label == target,
            target_confidence=target_confidence,
            sentence_predictions=tuple(sentence_predictions),
            code_switch_rate=code_switch_rate,
        )


@dataclass(frozen=True)
class PredictionBundle:
    document: LidPrediction
    sentences: tuple[LidPrediction, ...]


def load_external_predictions(path: str | Path) -> dict[str, PredictionBundle]:
    """Load externally produced predictions from a JSONL file.

    Each row needs ``output_id``, ``doc_label``, ``doc_conf`` and parallel
    ``sentence_labels`` / ``sentence_confs`` arrays.  Malformed rows raise
    ValueError with the line number; duplicate output ids are rejected.
    """
    path = Path(path)
    bundles: dict[str, PredictionBundle] = {}
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                output_id = row["output_id"]
                doc = LidPrediction(str(row["doc_label"]), float(row["doc_conf"]))
                labels = row["sentence_labels"]
                confs = row["sentence_confs"]
                if len(labels) != len(confs):
                    raise ValueError("sentence_labels and sentence_confs differ in length")
                sentences = tuple(
                    LidPrediction(str(l), float(c)) for l, c in zip(labels, confs)
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed prediction row: {exc}") from exc
            if output_id in bundles:
                raise ValueError(f"{path}:{lineno}: duplicate output_id '{output_id}'")
            bundles[output_id] = PredictionBundle(doc, sentences)
    return bundles


class ExternalPredictionsClassifier:
    """Pass-through fidelity assessment from pre-computed predictions.

    Labels and confidences are reproduced exactly as ingested; only
    ``is_target`` and the code-switch rate are derived from them.  The
    target confidence is the document confidence when the predicted label
    is the target, else 0.0 (per-label mass is not available in the file).
    """

    name = "external"

    def __init__(self, predictions: Mapping[str, PredictionBundle]):
        self.predictions = dict(predictions)

    def assess(self, text: str, target: str, output_id: str | None = None) -> FidelityResult:
        if output_id is None:
            raise BackendError("external predictions need an output id")
        bundle = self.predictions.get(output_id)
        if bundle is None:
            raise BackendError("no external prediction", output_id=output_id)
        document = bundle.document
        if bundle.sentences:
            switched = sum(1 for p in bundle.sentences if p.label != target)
            code_switch_rate = switched / len(bundle.sentences)
        else:
            code_switch_rate = 0.0
        return FidelityResult(
            document_prediction=document,
            is_target=document.label == target,
            target_confidence=document.confidence if document.label == target else 0.0,
            sentence_predictions=bundle.sentences,
            code_switch_rate=code_switch_rate,
        )


class FidelityBackend(Protocol):
    name: str

    def assess(self, text: str, target: str, output_id: str | None = None) -> FidelityResult:
        ...

