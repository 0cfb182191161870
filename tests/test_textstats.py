import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from lexglean.textstats import (
    DiversityStats,
    TrigramProfile,
    cosine,
    diacritic_stats,
    diversity,
    merge_profiles,
    ngram_repetition,
    segment_sentences,
    sentence_repetition,
    tokenize,
    trigram_profile,
)

import oracles


# ---------------------------------------------------------------- tokenize

TOKENIZE_CASES = [
    ("Ba̰rka da rana!", ("ba̰rka", "da", "rana")),
    ("RUWA da GONA", ("ruwa", "da", "gona")),
    ("mai-gida ce", ("mai-gida", "ce")),
    ("a--b", ("a", "b")),
    ("-a b-", ("a", "b")),
    ("ba'a da ba’a da baʼa", ("ba'a", "da", "ba’a", "da", "baʼa")),
    ("12 goats, 3 cows.", ("goats", "cows")),
    ("a1b", ("a", "b")),
    ("", ()),
    ("   \n\t ", ()),
    ("é vé", ("é", "vé")),  # NFC applied inside tokens
]


@pytest.mark.parametrize("text,expected", TOKENIZE_CASES)
def test_tokenize_cases(text, expected):
    assert tokenize(text).tokens == expected


def test_tokenize_source_char_count():
    text = "Ruwa 123!"
    seq = tokenize(text)
    assert seq.source_char_count == len(text)
    assert seq.total == len(seq) == 1
    assert list(seq) == ["ruwa"]


def test_tokenize_hyphen_needs_both_sides():
    # hyphen glues only between run characters; edges and doubles split
    assert tokenize("well-known").tokens == ("well-known",)
    assert tokenize("well- known").tokens == ("well", "known")
    assert tokenize("well -known").tokens == ("well", "known")
    assert tokenize("a‐b").tokens == ("a‐b",)


# ------------------------------------------------------- segment_sentences

SEGMENT_CASES = [
    ("A b. C d? E", ["A b.", "C d?", "E"]),
    ("one\n\ntwo", ["one", "two"]),
    ("Hi!! Bye.", ["Hi!!", "Bye."]),
    ("Wait… go.", ["Wait…", "go."]),
    ("", []),
    ("...", ["..."]),
    ("line one\nline two.", ["line one", "line two."]),
]


@pytest.mark.parametrize("text,expected", SEGMENT_CASES)
def test_segment_sentences_cases(text, expected):
    assert segment_sentences(text) == expected


# ---------------------------------------------------------------- counts

def test_diversity_frozen():
    stats = diversity(["a", "b", "a", "c"])
    assert stats == DiversityStats(4, 3, 0.75, 2, pytest.approx(2 / 3))


def test_diversity_empty():
    assert diversity([]) == DiversityStats(0, 0, 0.0, 0, 0.0)


def test_diversity_accepts_token_sequence():
    assert diversity(tokenize("ruwa ruwa gona")).vocab_size == 2


def test_ngram_repetition_frozen():
    tokens = ["a", "b", "c", "d", "a", "b", "c", "d"]
    assert ngram_repetition(tokens, 4) == pytest.approx(0.2)


def test_ngram_repetition_short_input():
    assert ngram_repetition(["a", "b"], 4) == 0.0
    assert ngram_repetition([], 1) == 0.0


def test_ngram_repetition_bad_n():
    with pytest.raises(ValueError):
        ngram_repetition(["a"], 0)


def test_sentence_repetition_frozen():
    assert sentence_repetition(["Hi.", "Hi.", "Bye."]) == pytest.approx(1 / 3)
    assert sentence_repetition(["Hi.", " hi. "]) == 0.5
    assert sentence_repetition([]) == 0.0


# ---------------------------------------------------------------- diacritics

def test_diacritic_stats_tonal():
    stats = diacritic_stats("kó kò kô")
    assert stats.alphabetic_count == 6
    assert stats.combining_mark_count == 3
    assert stats.diacritic_ratio == 0.5
    assert stats.has_diacritics
    assert stats.tonal_vowel_fraction == 1.0


def test_diacritic_stats_plain():
    stats = diacritic_stats("sannu da zuwa")
    assert stats.combining_mark_count == 0
    assert not stats.has_diacritics
    assert stats.tonal_vowel_fraction == 0.0


def test_diacritic_stats_non_tonal_marks():
    # dot-below marks count toward the ratio but are not tone marks
    stats = diacritic_stats("ọmọ")
    assert stats.alphabetic_count == 3
    assert stats.combining_mark_count == 2
    assert stats.diacritic_ratio == pytest.approx(2 / 3)
    assert stats.tonal_vowel_fraction == 0.0


def test_diacritic_stats_empty():
    stats = diacritic_stats("")
    assert stats.diacritic_ratio == 0.0
    assert stats.tonal_vowel_fraction == 0.0


# ---------------------------------------------------------------- trigrams

def test_trigram_profile_frozen():
    profile = trigram_profile("ab")
    assert profile.counts == {" ab": 1, "ab ": 1}
    assert profile.total == 2


def test_trigram_profile_collapses_whitespace():
    assert trigram_profile("  a \n b ").counts == trigram_profile("a b").counts


def test_trigram_profile_empty():
    profile = trigram_profile(" \n ")
    assert profile.counts == {}
    assert profile.total == 0


def test_merge_profiles():
    merged = merge_profiles([trigram_profile("ab"), trigram_profile("ab")])
    assert merged.counts == {" ab": 2, "ab ": 2}
    assert merged.total == 4


def test_cosine_frozen():
    p = TrigramProfile({"abc": 1}, 1)
    q = TrigramProfile({"abc": 1, "bcd": 1}, 2)
    assert cosine(p, q) == pytest.approx(0.7071067811865475, abs=1e-12)


def test_cosine_empty_and_disjoint():
    empty = TrigramProfile({}, 0)
    p = TrigramProfile({"abc": 2}, 2)
    q = TrigramProfile({"xyz": 5}, 5)
    assert cosine(empty, p) == 0.0
    assert cosine(p, empty) == 0.0
    assert cosine(p, q) == 0.0


def test_cosine_self_is_one():
    p = trigram_profile("ruwan sama ya sauka")
    assert cosine(p, p) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- properties

token_texts = st.text(
    alphabet=st.sampled_from(
        list("abcdefghij \n\t.!?…'-AEO") + ["́", "é", "ɔ", "’", "‐"]
        # tone marks (combining and precomposed), open vowels in both cases,
        # a mark outside U+0300..U+036F and a letter outside the BMP
        + ["̀", "̌", "à", "ǒ", "ē", "ɛ", "Ɛ", "Ɔ", "᷄", "𝐚"]
    ),
    max_size=80,
)


@given(token_texts)
def test_tokens_are_clean(text):
    for token in tokenize(text):
        assert token
        assert token == unicodedata.normalize("NFC", token)
        assert not any(ch.isspace() for ch in token)
        assert not token.startswith(tuple("-‐"))
        assert not token.endswith(tuple("-‐"))


@given(token_texts)
def test_tokenize_matches_oracle(text):
    assert list(tokenize(text)) == oracles.tokenize(text)


@given(token_texts)
def test_segment_matches_oracle(text):
    assert segment_sentences(text) == oracles.segment_sentences(text)


@given(token_texts)
@example("a᷄̀ Ọ́ ɛ̌")  # tone mark after a mark outside the combining block
def test_diacritic_stats_matches_oracle(text):
    stats = diacritic_stats(text)
    letters, marks, fraction = oracles.diacritic_counts(text)
    assert stats.alphabetic_count == letters
    assert stats.combining_mark_count == marks
    assert stats.tonal_vowel_fraction == fraction


@given(token_texts)
def test_trigram_profile_matches_oracle(text):
    profile = trigram_profile(text)
    expected = oracles.trigram_counts(text)
    assert profile.counts == expected
    assert profile.total == sum(expected.values())


@given(st.lists(st.sampled_from("abcde"), max_size=50))
def test_diversity_bounds(tokens):
    stats = diversity(tokens)
    assert 0.0 <= stats.ttr <= 1.0
    assert 0.0 <= stats.hapax_ratio <= 1.0
    assert stats.hapax_count <= stats.vocab_size <= stats.total_tokens


@given(st.lists(st.sampled_from("abcde"), max_size=50), st.randoms())
def test_diversity_permutation_invariant(tokens, rng):
    shuffled = list(tokens)
    rng.shuffle(shuffled)
    assert diversity(shuffled) == diversity(tokens)


@given(st.lists(st.sampled_from("abc"), max_size=40), st.integers(1, 6))
def test_ngram_repetition_bounds(tokens, n):
    value = ngram_repetition(tokens, n)
    assert 0.0 <= value < 1.0 or value == 0.0


@given(token_texts, token_texts)
def test_cosine_symmetric(a, b):
    p, q = trigram_profile(a), trigram_profile(b)
    assert cosine(p, q) == pytest.approx(cosine(q, p), abs=1e-12)
    assert -1e-12 <= cosine(p, q) <= 1.0 + 1e-12
