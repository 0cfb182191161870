"""Deterministic Unicode text statistics.

Everything downstream (validity checks, diversity scores, language
identification, overlap detection) is built on the small set of rules pinned
here.  The exact definitions matter for reproducibility, so changes to any
of them are breaking:

* tokenize: NFC-normalise, case-fold, then take maximal runs of Unicode
  letters, combining marks and apostrophes; a hyphen joins a run only when
  it sits between two run characters.  Digits and punctuation are dropped.
* segment_sentences: split on ``.``, ``!``, ``?``, ``…`` and newline runs;
  a run of terminators stays attached to its sentence; sentences are
  trimmed and empties dropped.
* trigram_profile: NFC-normalise, case-fold, collapse whitespace runs to a
  single space, strip, pad with one leading and one trailing space, then
  count every overlapping character trigram.
* diacritic counts use NFD decomposition and the combining-diacritics block
  U+0300..U+036F; tone marks are grave, acute, circumflex, caron, macron.

The per-character work runs in C.  ``tokenize`` and ``diacritic_stats`` map
the text through a code point -> class table with ``str.translate`` (an entry
is filled from ``unicodedata`` the first time its code point is seen), then
run one compiled regex, or ``str.count``, over the class string; it has the
text's length, so match offsets index the text.  Sentences and trigrams are
one compiled regex each.  The results follow the rules above exactly;
``tests/oracles.py`` restates them independently.
"""
from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

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
class TokenSequence:
    """Tokens extracted from one text plus the original character count."""

    tokens: tuple[str, ...]
    source_char_count: int

    @property
    def total(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


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


@dataclass
class TrigramProfile:
    """Bag of overlapping character trigrams with the total count."""

    counts: dict[str, int]
    total: int

    def norm(self) -> float:
        counts = self.counts.values()
        return math.sqrt(sum(map(mul, counts, counts)))


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
    """``a`` for a run character (letter, mark, apostrophe), ``-`` for a hyphen."""
    if unicodedata.category(ch)[0] in "LM" or ch in APOSTROPHES:
        return "a"
    return "-" if ch in HYPHENS else " "


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


_TOKEN_CLASSES = _ClassTable(_token_class)
_DIACRITIC_CLASSES = _ClassTable(_diacritic_class)
_TOKEN_RUN = re.compile(r"a+(?:-a+)*")
_SENTENCE = re.compile(r"[^.!?…\n]*[.!?…]+|[^.!?…\n]+")
_TONED_VOWEL = re.compile(r"V[mn]*T")
_TRIGRAM = re.compile(r"(?=(...))", re.S)


def tokenize(text: str) -> TokenSequence:
    """Split a text into word tokens.

    The text is NFC-normalised and case-folded first; each token is
    re-normalised so token content is itself NFC.
    """
    normalized = unicodedata.normalize("NFC", text).casefold()
    classes = normalized.translate(_TOKEN_CLASSES)
    tokens = tuple(
        unicodedata.normalize("NFC", normalized[start:end])
        for start, end in map(re.Match.span, _TOKEN_RUN.finditer(classes))
    )
    return TokenSequence(tokens, len(text))


def segment_sentences(text: str) -> list[str]:
    """Split a text into trimmed sentences, keeping terminator runs attached."""
    return [sentence for sentence in map(str.strip, _SENTENCE.findall(text)) if sentence]


def diversity(tokens: TokenSequence | Sequence[str]) -> DiversityStats:
    """Type-token ratio and hapax statistics for a token sequence.

    Note the hapax ratio is hapax_count / vocab_size (share of the
    vocabulary seen once), not hapax_count / total_tokens.
    """
    toks = list(tokens)
    total = len(toks)
    if total == 0:
        return DiversityStats(0, 0, 0.0, 0, 0.0)
    counts = Counter(toks)
    vocab = len(counts)
    hapax = sum(1 for c in counts.values() if c == 1)
    return DiversityStats(total, vocab, vocab / total, hapax, hapax / vocab)


def ngram_repetition(tokens: TokenSequence | Sequence[str], n: int = 4) -> float:
    """1 - unique/total token n-grams; 0.0 when fewer than n tokens."""
    if n < 1:
        raise ValueError(f"n-gram size must be >= 1, got {n}")
    toks = list(tokens)
    total = len(toks) - n + 1
    if total <= 0:
        return 0.0
    unique = len(set(zip(*(toks[i:] for i in range(n)))))
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
    """
    classes = unicodedata.normalize("NFD", text).translate(_DIACRITIC_CLASSES)
    vowel_count = classes.count("V")
    alphabetic = vowel_count + classes.count("L")
    marks = classes.count("T") + classes.count("m")
    toned_vowels = len(_TONED_VOWEL.findall(classes))

    ratio = marks / alphabetic if alphabetic else 0.0
    tonal_fraction = toned_vowels / vowel_count if vowel_count else 0.0
    return DiacriticStats(alphabetic, marks, ratio, marks > 0, tonal_fraction)


def trigrams(text: str) -> list[str]:
    """Every overlapping character trigram of the normalised, space-padded text."""
    normalized = unicodedata.normalize("NFC", text).casefold()
    collapsed = " ".join(normalized.split())
    if not collapsed:
        return []
    return _TRIGRAM.findall(f" {collapsed} ")


def trigram_profile(text: str) -> TrigramProfile:
    """Character trigram counts of the normalised, space-padded text."""
    grams = trigrams(text)
    return TrigramProfile(dict(Counter(grams)), len(grams))


def merge_profiles(profiles: Iterable[TrigramProfile]) -> TrigramProfile:
    """Sum several trigram profiles into one."""
    counts: Counter[str] = Counter()
    for profile in profiles:
        counts.update(profile.counts)
    return TrigramProfile(dict(counts), sum(counts.values()))


def cosine(p: TrigramProfile, q: TrigramProfile) -> float:
    """Cosine similarity of two trigram count vectors; 0.0 if either is empty."""
    if not p.counts or not q.counts:
        return 0.0
    small, large = (p, q) if len(p.counts) <= len(q.counts) else (q, p)
    counts = small.counts
    dot = sum(map(mul, counts.values(), map(large.counts.get, counts, repeat(0))))
    if dot == 0:
        return 0.0
    return dot / (p.norm() * q.norm())
