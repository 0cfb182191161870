"""Independent reference implementations of the text metrics.

These are deliberately written along different lines than the package code
(regex over a character-class string instead of a scanner, whole-vocabulary
cosine instead of the sparse loop) so that agreement between the two is
meaningful.  Kept naive and slow on purpose.
"""
from __future__ import annotations

import math
import re
import unicodedata

from lexglean.langid import MIN_SENTENCE_CHARS, FidelityResult, LidPrediction

APOSTROPHES = {"'", "’", "ʼ"}
HYPHENS = {"-", "‐"}
TERMINATORS = {".", "!", "?", "…"}
TONE_MARKS = {"̀", "́", "̂", "̌", "̄"}
VOWELS = set("aeiouɛɔ")

_TOKEN_CLASSES = re.compile(r"[LMA]+(?:H[LMA]+)*")
_SENTENCE = re.compile(r"[^.!?…]*[.!?…]+|[^.!?…]+")


def _char_class(ch: str) -> str:
    category = unicodedata.category(ch)
    if category.startswith("L"):
        return "L"
    if category.startswith("M"):
        return "M"
    if ch in APOSTROPHES:
        return "A"
    if ch in HYPHENS:
        return "H"
    return "O"


def tokenize(text: str) -> list[str]:
    normalized = unicodedata.normalize("NFC", text).casefold()
    classes = "".join(_char_class(ch) for ch in normalized)
    return [
        unicodedata.normalize("NFC", normalized[m.start() : m.end()])
        for m in _TOKEN_CLASSES.finditer(classes)
    ]


def segment_sentences(text: str) -> list[str]:
    out = []
    for line in text.split("\n"):
        for match in _SENTENCE.finditer(line):
            piece = match.group().strip()
            if piece:
                out.append(piece)
    return out


def ttr(tokens: list[str]) -> float:
    return len(set(tokens)) / len(tokens) if tokens else 0.0


def hapax_ratio(tokens: list[str]) -> float:
    if not tokens:
        return 0.0
    vocab = set(tokens)
    hapaxes = sum(1 for t in vocab if tokens.count(t) == 1)
    return hapaxes / len(vocab)


def ngram_repetition(tokens: list[str], n: int) -> float:
    grams = ["\x1f".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    if not grams:
        return 0.0
    return 1.0 - len(set(grams)) / len(grams)


def sentence_repetition(sentences: list[str]) -> float:
    if not sentences:
        return 0.0
    normalized = [s.strip().casefold() for s in sentences]
    return 1.0 - len(set(normalized)) / len(normalized)


def diacritic_counts(text: str) -> tuple[int, int, float]:
    """(letters, marks in U+0300..U+036F, tonal vowel fraction)."""
    decomposed = unicodedata.normalize("NFD", text)
    letters = sum(1 for ch in decomposed if unicodedata.category(ch).startswith("L"))
    marks = sum(
        1
        for ch in decomposed
        if unicodedata.category(ch).startswith("M") and 0x0300 <= ord(ch) <= 0x036F
    )
    # Cluster the decomposition into (base letter, trailing marks) pairs.
    clusters: list[tuple[str, list[str]]] = []
    for ch in decomposed:
        if unicodedata.category(ch).startswith("M"):
            if clusters and clusters[-1][0] is not None:
                clusters[-1][1].append(ch)
        elif unicodedata.category(ch).startswith("L"):
            clusters.append((ch, []))
        else:
            clusters.append((None, []))  # breaks any pending base
    vowels = [c for c in clusters if c[0] is not None and c[0].casefold() in VOWELS]
    toned = sum(1 for base, trailing in vowels if any(m in TONE_MARKS for m in trailing))
    fraction = toned / len(vowels) if vowels else 0.0
    return letters, marks, fraction


def trigram_counts(text: str) -> dict[str, int]:
    normalized = unicodedata.normalize("NFC", text).casefold()
    collapsed = re.sub(r"\s+", " ", normalized).strip()
    if not collapsed:
        return {}
    padded = f" {collapsed} "
    counts: dict[str, int] = {}
    for i in range(len(padded) - 2):
        gram = padded[i : i + 3]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def cosine(p: dict[str, int], q: dict[str, int]) -> float:
    if not p or not q:
        return 0.0
    vocabulary = set(p) | set(q)
    dot = sum(p.get(g, 0) * q.get(g, 0) for g in vocabulary)
    if dot == 0:
        return 0.0
    norm_p = math.sqrt(sum(v * v for v in p.values()))
    norm_q = math.sqrt(sum(v * v for v in q.values()))
    return dot / (norm_p * norm_q)


def assess(text: str, target: str, profiles: dict[str, dict[str, int]]) -> FidelityResult:
    """The builtin LID fidelity scored in two passes, as it was before the
    one-pass ``analyze``: the document and then each segmented sentence,
    each from its own trigram counts, each label's cosine on its own."""
    labels = sorted(profiles)
    reference_norms = [math.sqrt(sum(v * v for v in profiles[l].values())) for l in labels]

    def predict(counts):
        if not counts:
            return LidPrediction("und", 0.0), []
        norm = math.sqrt(sum(v * v for v in counts.values()))
        scores = []
        for label, reference_norm in zip(labels, reference_norms):
            dot = sum(c * profiles[label].get(g, 0) for g, c in counts.items())
            scores.append(dot / (norm * reference_norm) if dot else 0.0)
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        denom = sum(exps)
        probs = [e / denom for e in exps]
        best = scores.index(peak)
        return LidPrediction(labels[best], probs[best]), probs

    document, probs = predict(trigram_counts(text))
    target_confidence = probs[labels.index(target)] if probs and target in labels else 0.0
    sentences = []
    for sentence in segment_sentences(text):
        counts = trigram_counts(sentence)
        short = sum(counts.values()) < MIN_SENTENCE_CHARS
        sentences.append(document if short else predict(counts)[0])
    switched = sum(1 for p in sentences if p.label != target)
    rate = switched / len(sentences) if sentences else 0.0
    return FidelityResult(document, document.label == target, target_confidence, tuple(sentences), rate)
