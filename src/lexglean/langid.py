"""Language identification and target-language fidelity scoring.

Two interchangeable classifier backends are provided:

* ``BuiltinClassifier`` -- nearest-profile classification over character
  trigram profiles trained from small seed corpora (one ``<label>.txt``
  file per label, one sentence per line).  It is a deterministic,
  dependency-free stand-in, not a state-of-the-art identifier.
  ``train_profiles`` returns it, holding its trained profiles.
* ``ExternalPredictionsClassifier`` -- pass-through adapter for label and
  confidence columns produced by an external tool, keyed by output id.
  ``load_external_predictions`` returns it, holding the rows it read; each
  row is read by ``codec.parse_record``, so a bad one is refused naming
  ``<path>:<line>`` by the codec's one rule, and an output without a row
  names the file and the output id.

Both expose ``assess(analysis, target, output_id=..., seen=...)``, taking
the ``textstats.analyze`` result of the output, and return a
``FidelityResult`` with a document-level prediction, per-sentence
predictions and a sentence-level code-switch rate.  Each backend has its own
target-confidence rule; one builder derives the rest from the predictions.
The builtin backend scores from the grams it is handed and memoises its
sentences in ``seen``; the external one ignores both.

A score is the cosine ``dot / (norm * ref_norm)`` of integer trigram counts.
``BuiltinClassifier.dot`` gets every label's dot from one sum: a table
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

``BuiltinClassifier.assess(..., seen=)`` takes a memo of the sentences
already scored: each sentence string of ``analysis.sentences`` maps to its
packed dot and its prediction.  ``cli.score_cell`` passes one memo per
model/language/task cell (without one, ``assess`` keeps one for the call),
so a sentence the cell repeats is counted, dotted and softmaxed once.  It is
exact: a sentence's grams are a function of its string alone (``textstats``
proves this for sentences that tile the document, and the others get their
own ``findall``), so its dot and its prediction are too.  A sentence of
fewer than ``MIN_SENTENCE_CHARS`` grams takes the prediction of each
document it is in, so the memo holds None for it, not a prediction.  The
one sentence of a one-sentence document has the document's grams and dot,
so it takes the document prediction with no second scoring, and goes into
the memo with that prediction, not with None.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .codec import JSON_KEY, DataError, parse_record
from .textstats import TextAnalysis, merged_trigram_profile, norm

UNKNOWN_LABEL = "und"

# Sentences shorter than this after normalisation inherit the document-level
# prediction instead of being classified on their own.
MIN_SENTENCE_CHARS = 3


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


class BuiltinClassifier:
    """Fidelity assessment by nearest trigram profile (trigram -> count),
    one trained profile per language label.

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

    def _prediction(self, dots: int, grams: list[str]) -> tuple[LidPrediction, list[float]]:
        """Best label for these grams, whose packed dot is ``dots``, with its
        softmax confidence, plus the softmax over all labels.

        No grams map to ('und', 0.0) and an empty softmax.
        """
        if not grams:
            return LidPrediction(UNKNOWN_LABEL, 0.0), []
        scores = self.cosines(dots, norm(Counter(grams)))
        peak = max(scores)
        best = scores.index(peak)  # first index wins ties -> smallest label
        exps = [math.exp(s - peak) for s in scores]
        denom = sum(exps)
        return LidPrediction(self.labels[best], exps[best] / denom), [e / denom for e in exps]

    def assess(
        self, analysis: TextAnalysis, target: str, output_id: str | None = None, seen: dict | None = None
    ) -> FidelityResult:
        """The fidelity of the analysed output; ``seen`` maps each sentence
        already scored to its packed dot and its prediction, or None for a
        short sentence (see the module docstring)."""
        seen = {} if seen is None else seen
        dot = self.dot
        single = analysis.cross_grams == []  # one sentence, which has the document's grams
        # A sentence's gram count equals its normalised length, so short
        # sentences are recognised from their grams; they are memoised with
        # None, for each document's own prediction.
        entries = []
        for sentence, grams in zip(analysis.sentences, analysis.sentence_grams):
            entry = seen.get(sentence)
            if entry is None:
                dots = dot(grams)
                own = None if single or len(grams) < MIN_SENTENCE_CHARS else self._prediction(dots, grams)[0]
                entry = seen[sentence] = (dots, own)
            entries.append(entry)
        if analysis.cross_grams is None:
            document_dot = dot(analysis.grams)
        else:
            document_dot = sum((dots for dots, _ in entries), dot(analysis.cross_grams))
        document, probs = self._prediction(document_dot, analysis.grams)
        target_confidence = probs[self.labels.index(target)] if probs and target in self.labels else 0.0
        if single and len(analysis.grams) >= MIN_SENTENCE_CHARS:
            seen[analysis.sentences[0]] = (document_dot, document)
        sentence_predictions = [document if own is None else own for _, own in entries]
        return _fidelity_result(target, document, target_confidence, sentence_predictions)


def load_seed_corpora(seeds_dir: str | Path) -> dict[str, list[str]]:
    """Read ``<label>.txt`` seed files (one sentence per line) from a directory;
    a file without a nonempty line is refused naming it."""
    seeds_dir = Path(seeds_dir)
    files = sorted(seeds_dir.glob("*.txt"))
    if not files:
        raise ValueError(f"no seed files (*.txt) in {seeds_dir}")
    corpora: dict[str, list[str]] = {}
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8: {exc}") from exc
        corpora[path.stem] = [line.strip() for line in text.splitlines() if line.strip()]
        if not corpora[path.stem]:
            raise ValueError(f"{path}: seed corpus has no nonempty documents")
    return corpora


def train_profiles(seed_corpora: Mapping[str, Sequence[str]]) -> BuiltinClassifier:
    """The builtin classifier over one merged trigram profile per label of the seed documents."""
    profiles: dict[str, Counter[str]] = {}
    for label in sorted(seed_corpora):
        documents = [doc for doc in seed_corpora[label] if doc.strip()]
        if not documents:
            raise ValueError(f"seed corpus for '{label}' has no nonempty documents")
        profiles[label] = merged_trigram_profile(documents)
    return BuiltinClassifier(profiles)


@dataclass(frozen=True)
class _PredictionRow:
    """One row of an external predictions file."""

    output_id: str
    doc_label: str
    doc_conf: float
    sentence_labels: tuple[str, ...]
    sentence_confs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sentence_labels) != len(self.sentence_confs):
            raise ValueError("sentence_labels and sentence_confs differ in length")
        confs = [("'doc_conf'", self.doc_conf)] + [("an item of 'sentence_confs'", c) for c in self.sentence_confs]
        for name, conf in confs:
            if not 0.0 <= conf <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], not {conf!r}")


def load_external_predictions(path: str | Path) -> ExternalPredictionsClassifier:
    """The external backend over the predictions of a JSONL file.

    Each row, decoded by ``lexglean.codec``, needs ``output_id``,
    ``doc_label``, ``doc_conf`` and parallel ``sentence_labels`` /
    ``sentence_confs`` lists, every confidence in [0, 1]; it maps the output
    id to the (document, sentences) predictions.  A row is read by
    ``codec.parse_record``, so a malformed one raises DataError naming
    ``path:line`` (``<path>:<line>: missing field 'doc_conf'``), as does a
    repeated output id.
    """
    path, bundles = Path(path), {}
    with path.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            row = parse_record(_PredictionRow, line, path, lineno)
            if row.output_id in bundles:
                raise DataError(f"{path}:{lineno}: duplicate output_id '{row.output_id}'")
            sentences = tuple(map(LidPrediction, row.sentence_labels, row.sentence_confs))
            bundles[row.output_id] = (LidPrediction(row.doc_label, row.doc_conf), sentences)
    return ExternalPredictionsClassifier(bundles, path)


class ExternalPredictionsClassifier:
    """Pass-through fidelity assessment from pre-computed predictions.

    Labels and confidences are reproduced exactly as ingested; only
    ``is_target`` and the code-switch rate are derived from them.  The
    target confidence is the document confidence when the predicted label
    is the target, else 0.0 (per-label mass is not available in the file).
    An output the file has no row for raises DataError naming the file.
    """

    def __init__(self, predictions: Mapping[str, tuple[LidPrediction, tuple[LidPrediction, ...]]], path: Path):
        self.predictions, self.path = predictions, path

    def assess(
        self, analysis: TextAnalysis, target: str, output_id: str | None = None, seen: dict | None = None
    ) -> FidelityResult:
        if output_id not in self.predictions:
            raise DataError(f"{self.path}: no external prediction (output {output_id})")
        document, sentences = self.predictions[output_id]
        target_confidence = document.confidence if document.label == target else 0.0
        return _fidelity_result(target, document, target_confidence, sentences)


class FidelityBackend(Protocol):
    def assess(
        self, analysis: TextAnalysis, target: str, output_id: str | None = None, seen: dict | None = None
    ) -> FidelityResult:
        ...

