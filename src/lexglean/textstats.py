"""Deterministic Unicode text statistics.

Everything downstream (validity checks, diversity scores, language
identification, overlap detection) is built on the small set of rules pinned
here.  The exact definitions matter for reproducibility, so changes to any
of them are breaking:

* tokenize: NFC-normalise, case-fold, then take maximal runs of Unicode
  letters, combining marks and apostrophes; a hyphen joins a run only when
  it sits between two run characters.  Digits and punctuation are dropped.
  The tokens come back as a plain tuple of strings.
* segment_sentences: split on ``.``, ``!``, ``?``, ``…`` and newline runs;
  a run of terminators stays attached to its sentence; sentences are
  trimmed and empties dropped.
* trigrams: NFC-normalise, case-fold, collapse whitespace runs to a single
  space, strip, pad with one leading and one trailing space, then take every
  overlapping character trigram.  A profile is a plain ``Counter`` of
  trigram -> count in order of first occurrence; ``norm`` and ``cosine``
  take any such mapping.
* diacritic counts use NFD decomposition and the combining-diacritics block
  U+0300..U+036F; tone marks are grave, acute, circumflex, caron, macron.

``analyze`` is the one entry point for the first three rules: it gives
everything the evaluator needs from a text -- tokens, sentences, document
grams and each sentence's grams -- from one NFC + case-fold of the text, one
segmentation of the raw text and one trigram ``findall`` over the padded
document; each sentence is normalised on its own only to find it in the
document.  ``tests/oracles.py`` restates the rules independently, and the
tests compare ``analyze`` with it.

The per-character work runs in C.  Tokens and ``diacritic_stats`` map the
text through a code point table with ``str.translate`` (an entry is filled
from ``unicodedata`` the first time its code point is seen): the token table
keeps run characters and hyphens and turns the rest into spaces, the
diacritic table maps each character to a class letter.  One compiled regex,
or ``str.count``, over the result does the rest.  Sentences and trigrams are
one compiled regex each.

``analyze`` equals the rules applied to the text and to each sentence on its
own, although it takes most sentence grams from the document's grams:

* A sentence's grams are those of ``" " + collapsed_sentence + " "``, where
  ``collapsed_sentence`` is the sentence normalised and collapsed by the
  trigram rule.  Where that padded string occurs in the padded document, its
  grams are the slice of the document's grams that starts at the same
  offset, since the grams of a substring are a slice of the grams.
  ``analyze`` looks for each sentence just after the previous one.  A
  sentence that is not there (normalising a slice need not give a slice of
  the normalised text, and abutting sentences such as ``"a.b"`` have no
  space between them), and every sentence after it, gets its own
  ``findall``.
* The sentences *tile* the document when each is found there and the last
  ends the document.  The document's grams are then the sentences' grams
  plus one *cross gram* between each pair of neighbours (the last character
  of one, a space, the first of the next), which ``analyze`` returns so a
  caller can sum per-sentence quantities that are linear in the counts.
"""
from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

APOSTROPHES = frozenset({"'", "’", "ʼ"})
HYPHENS = frozenset({"-", "‐"})

# Tone marks relevant to the target orthographies: grave, acute, circumflex,
# caron, macron.
TONE_MARKS = frozenset({"̀", "́", "̂", "̌", "̄"})

# Vowel letters, including the open vowels used by Gbe orthographies.
VOWELS = frozenset("aeiouɛɔ")

_COMBINING_LO = 0x0300
_COMBINING_HI = 0x036F


@dataclass(frozen=True)
class DiversityStats:
    total_tokens: int
    vocab_size: int
    ttr: float
    hapax_count: int
    hapax_ratio: float


@dataclass(frozen=True)
class DiacriticStats:
    alphabetic_count: int
    combining_mark_count: int
    diacritic_ratio: float
    has_diacritics: bool
    tonal_vowel_fraction: float


class _ClassTable(dict):
    """Code point -> one-character class, for ``str.translate``.

    Each entry is computed from ``unicodedata`` the first time its code point
    is seen, so the table only ever holds the characters met so far.
    """

    def __init__(self, classify: Callable[[str], str]):
        super().__init__()
        self._classify = classify

    def __missing__(self, codepoint: int) -> str:
        value = self[codepoint] = self._classify(chr(codepoint))
        return value


def _token_class(ch: str) -> str:
    """The character itself for a run character (letter, mark, apostrophe) or
    a hyphen, a space for the rest."""
    if unicodedata.category(ch)[0] in "LM" or ch in APOSTROPHES or ch in HYPHENS:
        return ch
    return " "


def _diacritic_class(ch: str) -> str:
    """``V`` vowel letter, ``L`` other letter, ``T`` tone mark, ``m`` other
    U+0300..U+036F mark, ``n`` any other mark, a space for the rest."""
    category = unicodedata.category(ch)[0]
    if category == "L":
        return "V" if ch.casefold() in VOWELS else "L"
    if category == "M":
        if ch in TONE_MARKS:
            return "T"
        return "m" if _COMBINING_LO <= ord(ch) <= _COMBINING_HI else "n"
    return " "


def _decomposed_classes(ch: str) -> str:
    """The classes of the characters of ``ch``'s NFD decomposition, in order."""
    return "".join(map(_diacritic_class, unicodedata.normalize("NFD", ch)))


_TOKEN_CLASSES = _ClassTable(_token_class)
_DIACRITIC_CLASSES = _ClassTable(_decomposed_classes)
_TOKEN_RUN = re.compile(r"[^ \-‐]+(?:[\-‐][^ \-‐]+)*")
_SENTENCE = re.compile(r"[^.!?…\n]*[.!?…]+|[^.!?…\n]+")
_TONED_VOWEL = re.compile(r"V[mn]*T")
_TRIGRAM = re.compile(r"(?=(...))", re.S)


def _tokens(normalized: str) -> tuple[str, ...]:
    """Tokens of an NFC-normalised, case-folded text, each re-normalised to NFC.

    The class table keeps run characters and hyphens as themselves, so the
    regex matches are the tokens; without a hyphen they are the
    space-separated chunks.
    """
    kept = normalized.translate(_TOKEN_CLASSES)
    runs = _TOKEN_RUN.findall(kept) if "-" in kept or "‐" in kept else kept.split()
    return tuple(map(unicodedata.normalize, repeat("NFC"), runs))


def segment_sentences(text: str) -> list[str]:
    """Split a text into trimmed sentences, keeping terminator runs attached."""
    return [sentence for sentence in map(str.strip, _SENTENCE.findall(text)) if sentence]


def diversity(tokens: Sequence[str]) -> DiversityStats:
    """Type-token ratio and hapax statistics for a token sequence.

    Note the hapax ratio is hapax_count / vocab_size (share of the
    vocabulary seen once), not hapax_count / total_tokens.
    """
    total = len(tokens)
    if total == 0:
        return DiversityStats(0, 0, 0.0, 0, 0.0)
    counts = Counter(tokens)
    vocab = len(counts)
    hapax = sum(1 for c in counts.values() if c == 1)
    return DiversityStats(total, vocab, vocab / total, hapax, hapax / vocab)


def ngram_repetition(tokens: Sequence[str], n: int = 4) -> float:
    """1 - unique/total token n-grams; 0.0 when fewer than n tokens."""
    if n < 1:
        raise ValueError(f"n-gram size must be >= 1, got {n}")
    total = len(tokens) - n + 1
    if total <= 0:
        return 0.0
    unique = len(set(zip(*(tokens[i:] for i in range(n)))))
    return 1.0 - unique / total


def sentence_repetition(sentences: Sequence[str]) -> float:
    """1 - unique/total sentences, comparing case-folded and trimmed forms."""
    if not sentences:
        return 0.0
    normalized = [s.strip().casefold() for s in sentences]
    return 1.0 - len(set(normalized)) / len(normalized)


def diacritic_stats(text: str) -> DiacriticStats:
    """Combining-mark counts over the NFD decomposition of a text.

    ``diacritic_ratio`` is marks per base letter; ``tonal_vowel_fraction``
    is the share of vowel letters carrying at least one tone mark.

    Each character is mapped to the classes of its own decomposition, with
    no NFD pass over the text.  The result is the same: the text's NFD is
    the characters' decompositions, joined, with canonical reordering, which
    only permutes the marks within a run of marks.  The counts do not depend
    on order, and ``V[mn]*T`` matches once for each vowel whose run of marks
    holds a tone mark, in any order.
    """
    classes = text.translate(_DIACRITIC_CLASSES)
    vowel_count = classes.count("V")
    alphabetic = vowel_count + classes.count("L")
    marks = classes.count("T") + classes.count("m")
    toned_vowels = len(_TONED_VOWEL.findall(classes))

    ratio = marks / alphabetic if alphabetic else 0.0
    tonal_fraction = toned_vowels / vowel_count if vowel_count else 0.0
    return DiacriticStats(alphabetic, marks, ratio, marks > 0, tonal_fraction)


def _collapse(normalized: str) -> str:
    """Whitespace runs collapsed to one space, stripped, padded with one space."""
    return f" {' '.join(normalized.split())} "


def trigrams(text: str) -> list[str]:
    """Every overlapping character trigram of the normalised, space-padded text."""
    return _TRIGRAM.findall(_collapse(unicodedata.normalize("NFC", text).casefold()))


def merged_trigram_profile(texts: Iterable[str]) -> Counter[str]:
    """One trigram profile over several texts, as if counted over each in turn."""
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(trigrams(text))
    return counts


class TextAnalysis(NamedTuple):
    """What the evaluator needs from one text; see ``analyze``."""

    tokens: tuple[str, ...]
    sentences: list[str]
    grams: list[str]
    sentence_grams: list[list[str]]
    cross_grams: list[str] | None  # None unless the sentences tile the document


def analyze(text: str) -> TextAnalysis:
    """The tokens, ``segment_sentences`` and ``trigrams`` of the text and the
    ``trigrams`` of each sentence, in one pass (see the module docstring for
    why each sentence's grams are its own)."""
    normalized = unicodedata.normalize("NFC", text).casefold()
    padded = _collapse(normalized)
    grams = _TRIGRAM.findall(padded)
    sentences = segment_sentences(text)
    sentence_grams = []
    cross_grams: list[str] = []
    tiled = True
    position = 0  # where the next sentence starts while the sentences tile
    for sentence in sentences:
        needle = _collapse(unicodedata.normalize("NFC", sentence).casefold())
        tiled = tiled and padded.startswith(needle, position)
        if tiled:
            if position:
                cross_grams.append(grams[position - 1])
            end = position + len(needle) - 2
            sentence_grams.append(grams[position:end])
            position = end + 1
        else:
            sentence_grams.append(_TRIGRAM.findall(needle))
    tiled = tiled and position == len(padded) - 1
    return TextAnalysis(
        _tokens(normalized), sentences, grams, sentence_grams, cross_grams if tiled else None
    )


def norm(counts: Mapping[str, int]) -> float:
    """Euclidean norm of a trigram count vector."""
    values = counts.values()
    return math.sqrt(sum(map(mul, values, values)))


def cosine(p: Mapping[str, int], q: Mapping[str, int]) -> float:
    """Cosine similarity of two trigram count vectors; 0.0 if either is empty."""
    if not p or not q:
        return 0.0
    small, large = (p, q) if len(p) <= len(q) else (q, p)
    dot = sum(map(mul, small.values(), map(large.get, small, repeat(0))))
    if dot == 0:
        return 0.0
    return dot / (norm(p) * norm(q))
