import json
import math
import unicodedata
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from lexglean import data_dir
from lexglean.codec import DataError, from_json, to_json
from lexglean.langid import (
    BackendError,
    BuiltinClassifier,
    ExternalPredictionsClassifier,
    FidelityResult,
    LanguageProfileSet,
    LidPrediction,
    MIN_SENTENCE_CHARS,
    UNKNOWN_LABEL,
    load_external_predictions,
    load_seed_corpora,
    train_profiles,
)
from lexglean.textstats import analyze, cosine, norm, segment_sentences

import oracles

SEEDS = data_dir() / "seeds"


@pytest.fixture(scope="module")
def shipped_profiles():
    return train_profiles(load_seed_corpora(SEEDS))


def test_load_seed_corpora_labels():
    corpora = load_seed_corpora(SEEDS)
    assert sorted(corpora) == ["eng_Latn", "fon_Latn", "fra_Latn", "hau_Latn", "yor_Latn"]
    for label, lines in corpora.items():
        assert len(lines) >= 50, label
        assert all(line == line.strip() and line for line in lines)


def test_load_seed_corpora_missing_dir(tmp_path):
    with pytest.raises(ValueError, match="no seed files"):
        load_seed_corpora(tmp_path)


def test_train_profiles_rejects_empty_corpus():
    with pytest.raises(ValueError, match="'xx'"):
        train_profiles({"xx": ["", "  "]})


def test_profile_set_rejects_empty_profile():
    with pytest.raises(ValueError, match="empty"):
        LanguageProfileSet({"xx": {}})


def predict(text, profile_set):
    """The document prediction for ``text``; it does not depend on the target."""
    return BuiltinClassifier(profile_set).assess(analyze(text), UNKNOWN_LABEL).document_prediction


def test_classify_shipped_sentences(shipped_profiles):
    assert predict("Manoma suna shuka gero da dawa a gonakinsu lokacin damina.", shipped_profiles).label == "hau_Latn"
    assert predict("Les enfants jouent dans la cour de l'école chaque matin.", shipped_profiles).label == "fra_Latn"
    assert predict("The farmers plant maize and beans in their fields.", shipped_profiles).label == "eng_Latn"


def test_classify_empty(shipped_profiles):
    prediction = predict("", shipped_profiles)
    assert prediction == LidPrediction(UNKNOWN_LABEL, 0.0)


def test_tie_breaks_to_smallest_label():
    profile = {" aa": 1, "aa ": 1}
    profiles = LanguageProfileSet({"bbb": profile, "aaa": profile})
    assert predict("aa", profiles).label == "aaa"


def test_confidence_is_softmax_at_winner():
    set_ = train_profiles({"xx": ["aaaa aaaa"], "yy": ["zzzz zzzz"]})
    text = "aaaa"
    query = oracles.trigram_counts(text)
    scores = [cosine(query, set_.profiles[label]) for label in set_.labels]
    exps = [math.exp(s - max(scores)) for s in scores]
    expected = exps[scores.index(max(scores))] / sum(exps)
    assert predict(text, set_).confidence == pytest.approx(expected, abs=1e-12)


def test_assess_document_and_sentences(shipped_profiles):
    backend = BuiltinClassifier(shipped_profiles)
    text = (
        "Manoma suna shuka gero da dawa a gonakinsu lokacin damina. "
        "The farmers plant maize and beans in their fields. "
        "Yara suna wasa a filin makaranta da safe."
    )
    result = backend.assess(analyze(text), "hau_Latn")
    assert result.document_prediction.label == "hau_Latn"
    assert result.is_target
    assert len(result.sentence_predictions) == 3
    assert result.sentence_predictions[1].label == "eng_Latn"
    assert result.code_switch_rate == pytest.approx(1 / 3)
    # target confidence is the softmax mass on the target label
    probs_sum = result.document_prediction.confidence
    assert 0.0 < result.target_confidence <= probs_sum + 1e-12


def test_assess_all_target(shipped_profiles):
    backend = BuiltinClassifier(shipped_profiles)
    result = backend.assess(
        analyze(
            "Yara suna wasa a filin makaranta da safe. Malami yana koyar da darasin lissafi a aji."
        ),
        "hau_Latn",
    )
    assert result.code_switch_rate == 0.0


def test_assess_empty_text(shipped_profiles):
    backend = BuiltinClassifier(shipped_profiles)
    result = backend.assess(analyze(""), "hau_Latn")
    assert result.document_prediction == LidPrediction(UNKNOWN_LABEL, 0.0)
    assert not result.is_target
    assert result.target_confidence == 0.0
    assert result.sentence_predictions == ()
    assert result.code_switch_rate == 0.0


def test_short_sentence_inherits_document_prediction(shipped_profiles):
    backend = BuiltinClassifier(shipped_profiles)
    text = "Manoma suna shuka gero da dawa a gonakinsu lokacin damina. A."
    assert len("a.") < MIN_SENTENCE_CHARS
    result = backend.assess(analyze(text), "hau_Latn")
    assert result.sentence_predictions[-1] == result.document_prediction


lid_texts = st.text(
    alphabet=st.sampled_from(list("aeinorstudgk ’'.!?\n") + ["ɛ", "ɔ", "ɗ", "ƙ", "é", "̀", "Ẹ"]),
    max_size=120,
)


def _packed_cosines(profiles, query):
    """Every label's cosine with ``query``, through the packed dot."""
    return profiles.cosines(profiles.dot(Counter(query).elements()), norm(query))


@given(lid_texts)
def test_scores_equal_cosine_exactly(shipped_profiles, text):
    profile = Counter(analyze(text).grams)
    expected = [cosine(profile, shipped_profiles.profiles[l]) for l in shipped_profiles.labels]
    assert _packed_cosines(shipped_profiles, profile) == expected


def test_scores_exact_with_huge_counts():
    # Reference counts this large need wide fields in the packed dot table.
    profiles = LanguageProfileSet(
        {
            "aaa": {" ab": 2**40, "ab ": 3},
            "bbb": {" ab": 1, "xyz": 2**40 - 1},
            "ccc": {"ab ": 7},
        }
    )
    query = {" ab": 2**20, "ab ": 5, "xyz": 9}
    expected = [cosine(query, profiles.profiles[l]) for l in profiles.labels]
    assert _packed_cosines(profiles, query) == expected
    assert expected[0] > 0 and expected[1] > 0 and expected[2] > 0


@given(lid_texts)
def test_assess_sentences_follow_document_or_classify(shipped_profiles, text):
    backend = BuiltinClassifier(shipped_profiles)
    result = backend.assess(analyze(text), "hau_Latn")
    sentences = segment_sentences(text)
    assert len(result.sentence_predictions) == len(sentences)
    for sentence, prediction in zip(sentences, result.sentence_predictions):
        normalized = unicodedata.normalize("NFC", sentence).casefold()
        normalized_length = len(" ".join(normalized.split()))
        if normalized_length < MIN_SENTENCE_CHARS:
            assert prediction == result.document_prediction
        else:
            assert prediction == predict(sentence, shipped_profiles)


@given(lid_texts)
@example("Manoma suna shuka gero. The farmers plant maize.\nYara suna wasa!")  # tiles
@example("a.b")  # abutting sentences: the document dot is computed directly
@example("Da. Da. Da.")  # a sentence repeated later in the text
@example("gero\tda.\n\ndawa")
@example("é. ̀da")  # a sentence that starts with a combining mark
@example("")
@example(" \n ")
def test_assess_equals_two_pass_oracle(shipped_profiles, text):
    profiles = shipped_profiles.profiles
    backend = BuiltinClassifier(shipped_profiles)
    for target in ("hau_Latn", "eng_Latn"):
        assert backend.assess(analyze(text), target) == oracles.assess(text, target, profiles)


def test_unknown_target_label(shipped_profiles):
    backend = BuiltinClassifier(shipped_profiles)
    result = backend.assess(analyze("Manoma suna shuka gero da dawa a gonakinsu."), "zzz_Latn")
    assert not result.is_target
    assert result.target_confidence == 0.0


def test_fidelity_result_json_roundtrip():
    result = FidelityResult(
        document_prediction=LidPrediction("hau_Latn", 0.9),
        is_target=True,
        target_confidence=0.9,
        sentence_predictions=(LidPrediction("hau_Latn", 0.8), LidPrediction("eng_Latn", 0.7)),
        code_switch_rate=0.5,
    )
    assert from_json(FidelityResult, to_json(result)) == result


def _write_predictions(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_external_predictions_roundtrip(tmp_path):
    path = tmp_path / "preds.jsonl"
    _write_predictions(
        path,
        [
            {
                "output_id": "m/hau/creative/cw_01",
                "doc_label": "hau_Latn",
                "doc_conf": 0.97,
                "sentence_labels": ["hau_Latn", "eng_Latn"],
                "sentence_confs": [0.96, 0.88],
            }
        ],
    )
    backend = ExternalPredictionsClassifier(load_external_predictions(path))
    result = backend.assess("ignored", "hau_Latn", output_id="m/hau/creative/cw_01")
    assert result.document_prediction == LidPrediction("hau_Latn", 0.97)
    assert result.target_confidence == 0.97
    assert result.code_switch_rate == 0.5
    off_target = backend.assess("ignored", "fon_Latn", output_id="m/hau/creative/cw_01")
    assert off_target.target_confidence == 0.0
    assert not off_target.is_target


def test_external_predictions_missing_output(tmp_path):
    path = tmp_path / "preds.jsonl"
    _write_predictions(
        path,
        [
            {
                "output_id": "a",
                "doc_label": "x",
                "doc_conf": 1.0,
                "sentence_labels": [],
                "sentence_confs": [],
            }
        ],
    )
    backend = ExternalPredictionsClassifier(load_external_predictions(path))
    with pytest.raises(BackendError, match=r"\Ano external prediction \(output b\)\Z"):
        backend.assess("t", "x", output_id="b")
    with pytest.raises(BackendError, match=r"\Ano external prediction \(output None\)\Z"):
        backend.assess("t", "x")


def test_external_predictions_malformed_rows(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        '{"output_id": "a", "doc_label": "x", "doc_conf": 1.0, '
        '"sentence_labels": ["x"], "sentence_confs": []}\n'
    )
    with pytest.raises(ValueError, match=r"preds\.jsonl:1: malformed"):
        load_external_predictions(path)
    path.write_text("not json\n")
    with pytest.raises(ValueError, match=":1: malformed"):
        load_external_predictions(path)
    path.write_text('{"output_id": ["a"], "doc_label": "x", "doc_conf": 1.0, "sentence_labels": [], "sentence_confs": []}\n')
    with pytest.raises(DataError, match=":1: malformed prediction row: output_id must be a string"):
        load_external_predictions(path)


def test_external_predictions_duplicate(tmp_path):
    path = tmp_path / "preds.jsonl"
    row = {
        "output_id": "a",
        "doc_label": "x",
        "doc_conf": 1.0,
        "sentence_labels": [],
        "sentence_confs": [],
    }
    _write_predictions(path, [row, row])
    with pytest.raises(ValueError, match="duplicate output_id"):
        load_external_predictions(path)


def test_external_predictions_empty_sentences_rate(tmp_path):
    path = tmp_path / "preds.jsonl"
    _write_predictions(
        path,
        [
            {
                "output_id": "a",
                "doc_label": "hau_Latn",
                "doc_conf": 0.5,
                "sentence_labels": [],
                "sentence_confs": [],
            }
        ],
    )
    backend = ExternalPredictionsClassifier(load_external_predictions(path))
    assert backend.assess("t", "hau_Latn", output_id="a").code_switch_rate == 0.0
