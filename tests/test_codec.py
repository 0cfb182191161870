import json
import re
import types
import typing
from dataclasses import dataclass, fields, is_dataclass

import pytest
from hypothesis import example, given, strategies as st

from lexglean.codec import (
    DataError, atomic_writer, decoder, json_file_text, loads, parse_record, to_json, write_json,
)
from lexglean.evaluation import ConditionSummary, EvaluationRecord, OverlapResult
from lexglean.generation import GenerationRecord, MockFixture, SamplingParams
from lexglean.langid import FidelityResult, LidPrediction
from lexglean.taxonomy import LanguageConfig, render_text

CODEC_CLASSES = (GenerationRecord, EvaluationRecord, ConditionSummary, FidelityResult, OverlapResult)

_SCALARS = {
    str: st.text(max_size=8),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(),
}


def _strategy(hint):
    """Values of a field type, built from the same hints the codec reads."""
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return st.builds(hint, *[_strategy(hints[f.name]) for f in fields(hint)])
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return st.none() | _strategy(inner)
    if origin is tuple:
        return st.lists(_strategy(args[0]), max_size=4).map(tuple)
    return _SCALARS[hint]


@pytest.mark.parametrize("cls", CODEC_CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_roundtrip_through_json_text(cls, data):
    value = data.draw(_strategy(cls))
    assert decoder(cls)(json.loads(json.dumps(to_json(value)))) == value


def test_declared_json_keys():
    result = FidelityResult(LidPrediction("hau_Latn", 0.5), True, 0.5, (LidPrediction("eng_Latn", 1.0),), 1.0)
    assert to_json(result) == {
        "document": {"label": "hau_Latn", "confidence": 0.5},
        "is_target": True,
        "target_confidence": 0.5,
        "sentences": [{"label": "eng_Latn", "confidence": 1.0}],
        "code_switch_rate": 1.0,
    }


def test_absent_optional_key_reads_as_none():
    summary = ConditionSummary("m", "hau", "creative", 1, *[1.0] * 10, None, None)
    data = to_json(summary)
    del data["diacritic_presence_pct"], data["avg_diacritic_ratio"]
    assert decoder(ConditionSummary)(data) == summary


def test_numbers_are_coerced_booleans_are_not():
    sampling = decoder(SamplingParams)({"temperature": 1, "top_p": "0.5", "max_output_tokens": 256.0})
    assert sampling == SamplingParams(1.0, 0.5, 256)
    assert type(sampling.temperature) is float and type(sampling.max_output_tokens) is int
    for value in (1, "no", None):
        message = rf"\A'memorization_suspect' must be true or false, not {type(value).__name__}\Z"
        with pytest.raises(TypeError, match=message):
            decoder(OverlapResult)({"key": "k", "cosine": 0, "memorization_suspect": value})
    cases = [
        ({"max_output_tokens": True}, TypeError, "'max_output_tokens' must be a number, not bool"),
        ({"temperature": False}, TypeError, "'temperature' must be a number, not bool"),
        ({"max_output_tokens": 1024.7}, ValueError, "'max_output_tokens' must be a whole number, not 1024.7"),
        ({"top_p": None}, ValueError, "'top_p' must be a finite number, not None"),
        ({"max_output_tokens": []}, ValueError, "'max_output_tokens' must be a whole number, not []"),
        ({"temperature": {}}, ValueError, "'temperature' must be a finite number, not {}"),
    ]
    for override, error, message in cases:
        with pytest.raises(error, match=rf"\A{re.escape(message)}\Z"):
            decoder(SamplingParams)({**to_json(sampling), **override})
    with pytest.raises(TypeError, match=r"\Aan item of 'status_schedule' must be a number, not bool\Z"):
        decoder(MockFixture)({"status_schedule": [True, 200]})
    with pytest.raises(ValueError, match="must be a whole number"):
        decoder(SamplingParams)({**to_json(sampling), "max_output_tokens": float("inf")})


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), "nan", "NaN", "Infinity", "-inf"], ids=repr
)
def test_a_float_field_refuses_nan_and_the_infinities(value):
    message = rf"\A'confidence' must be a finite number, not {re.escape(repr(value))}\Z"
    with pytest.raises(ValueError, match=message):
        decoder(LidPrediction)({"label": "x", "confidence": value})
    assert decoder(LidPrediction)({"label": "x", "confidence": "1e308"}).confidence == 1e308


# A JSON number too large for a float reads as an infinity.
@pytest.mark.parametrize(
    "literal, value", [("1e400", "inf"), ("-1e400", "-inf"), ("NaN", "nan"), ("Infinity", "inf")]
)
def test_a_non_finite_json_number_is_a_bad_value(literal, value):
    raw = f'{{"label": "x", "confidence": {literal}}}'.encode()
    message = rf"\Ap\.json: 'confidence' must be a finite number, not {value}\Z"
    with pytest.raises(DataError, match=message):
        parse_record(LidPrediction, raw, "p.json")


def test_decode_errors():
    with pytest.raises(KeyError, match="label"):
        decoder(LidPrediction)({"confidence": 0.5})
    with pytest.raises(TypeError, match=r"\A'label' must be a string, not int\Z"):
        decoder(LidPrediction)({"label": 5, "confidence": 0.5})
    with pytest.raises(ValueError):
        decoder(LidPrediction)({"label": "x", "confidence": "high"})
    with pytest.raises(TypeError):
        decoder(FidelityResult)({"document": None})


def test_a_non_object_is_refused_naming_its_type():
    # With defaults, ``key in data`` on a string would be a substring test.
    for data, name in (("abc", "str"), ([], "list"), (None, "NoneType")):
        with pytest.raises(TypeError, match=rf"\Aexpected an object, not {name}\Z"):
            decoder(MockFixture)(data)
    with pytest.raises(TypeError, match=r"\Aexpected an object, not list\Z"):
        decoder(FidelityResult)({"document": ["hau_Latn", 1.0]})


LANGUAGE_ENTRY = {
    "name": "Hausa", "iso_code": "hau", "target_lid_label": "hau_Latn", "colonial_language": "English",
    "tonal_orthography": False,
}


def test_absent_key_takes_the_field_default():
    assert decoder(MockFixture)({}) == MockFixture("", (200,), "stop")
    assert decoder(MockFixture)({"status_schedule": []}).status_schedule == (200,)
    language = decoder(LanguageConfig)(LANGUAGE_ENTRY)
    assert language.word_lists == {} and language.culture_name == "Hausa"
    assert render_text("{language_culture}", language) == "Hausa"
    assert decoder(LanguageConfig)(LANGUAGE_ENTRY).word_lists is not language.word_lists  # default_factory
    with pytest.raises(KeyError, match="tonal_orthography"):
        decoder(LanguageConfig)({key: v for key, v in LANGUAGE_ENTRY.items() if key != "tonal_orthography"})


def test_lists_and_mappings_are_strict_and_name_the_key():
    language = decoder(LanguageConfig)({**LANGUAGE_ENTRY, "word_lists": {"word_list_1": ["ruwa", "gona"]}})
    assert language.word_lists == {"word_list_1": ("ruwa", "gona")}
    cases = [
        ({"word_lists": ["a"]}, "'word_lists' must be an object, not list"),
        ({"word_lists": {"word_list_1": "ruwa, gona"}}, "a value of 'word_lists' must be a list, not str"),
        ({"word_lists": {"word_list_1": ["ruwa", 5]}}, "an item of a value of 'word_lists' must be a string, not int"),
        ({"tonal_orthography": "no"}, "'tonal_orthography' must be true or false, not str"),
    ]
    for override, message in cases:
        with pytest.raises(TypeError, match=rf"\A{re.escape(message)}\Z"):
            decoder(LanguageConfig)({**LANGUAGE_ENTRY, **override})
    with pytest.raises(TypeError, match=r"\A'status_schedule' must be a list, not str\Z"):
        decoder(MockFixture)({"status_schedule": "503"})


def test_unsupported_types_rejected_on_first_use():
    @dataclass
    class Listed:
        items: list[str]

    @dataclass
    class Either:
        value: int | str

    with pytest.raises(TypeError, match="unsupported"):
        to_json(Listed(["a"]))
    with pytest.raises(TypeError, match="unsupported"):
        decoder(Either)({"value": 1})
    with pytest.raises(TypeError, match="not a dataclass"):
        decoder(dict)({})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"label": "x", "confid', "invalid JSON"),
        ('{"label": "x"}', "missing field 'confidence'"),
        ('{"label": "x", "confidence": null}', "'confidence' must be a finite number, not None"),
        ("[1, 2]", "expected an object, not list"),
    ],
)
def test_parse_record_names_the_source(text, message):
    with pytest.raises(DataError, match=message) as exc_info:
        parse_record(LidPrediction, text.encode(), "run/evaluations.jsonl", 7)
    assert str(exc_info.value).startswith("run/evaluations.jsonl:7: ")
    with pytest.raises(DataError) as exc_info:
        parse_record(LidPrediction, text.encode(), "run/m/hau/t/p.json")
    assert str(exc_info.value).startswith("run/m/hau/t/p.json: ")


def test_parse_record_reports_an_infinite_int_as_bad_value():
    raw = b'{"temperature": 0.7, "top_p": 0.95, "max_output_tokens": 1e400}'
    with pytest.raises(DataError, match=r"^run/m/hau/t/p\.json: 'max_output_tokens' must be a whole number, not inf\Z"):
        parse_record(SamplingParams, raw, "run/m/hau/t/p.json")


@given(st.lists(st.text(st.characters(blacklist_categories=()), max_size=8), max_size=3))
@example(["Sannu \ud800"])
@example(["\\ud800", "\\uD800"])  # an escaped backslash, then "ud800": no surrogate
@example(["\ud83d\ude00"])  # a valid pair, escaped as two \u escapes
@example(["\ud83d", "\ude00"])
@example(["한국어"])  # UTF-8 lead byte 0xED, no surrogate
def test_loads_refuses_exactly_the_documents_that_hold_a_lone_surrogate(strings):
    """Whether the strings are escaped ("\\ud800" or "\\uD800") or encoded
    as lax UTF-8, UTF-16 or UTF-32 bytes, loads agrees with json.loads unless
    the value holds a string UTF-8 cannot encode, which it refuses."""
    escaped = json.dumps(strings)
    upper = re.sub(r"\\u([0-9a-f]{4})", lambda match: "\\u" + match[1].upper(), escaped)
    text = json.dumps(strings, ensure_ascii=False)
    raw = [text.encode(encoding, "surrogatepass") for encoding in ("utf-8", "utf-16", "utf-32-le")]
    for document in (escaped, escaped.encode(), upper, upper.encode(), escaped.encode("utf-16-be"), *raw):
        value = json.loads(document)
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(json.JSONDecodeError, match="^lone surrogate '"):
                loads(document)
        else:
            assert loads(document) == value


def test_atomic_writer_that_raises_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "summary.json"
    target.write_bytes(b"old\n")
    with pytest.raises(OSError, match="disk full"):
        with atomic_writer(target) as handle:
            handle.write(b"new, cut ")
            raise OSError("disk full")
    assert target.read_bytes() == b"old\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["summary.json"]

    with atomic_writer(target) as handle:
        handle.write(b"new\n")
    assert target.read_bytes() == b"new\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["summary.json"]


def test_write_json_writes_json_file_text(tmp_path):
    # Enough entries for several blocks of chunks, non-ASCII kept.
    data = {"cells": [{"records": {f"m/yor/creative/cw_{i:05d}": "ọ̀" * (i % 3)}, "n": i} for i in range(5000)]}
    data["inputs"] = {"w_conf": 0.5, "empty": {}, "none": None}
    write_json(tmp_path / "f.json", data)
    assert (tmp_path / "f.json").read_text(encoding="utf-8") == json_file_text(data)
    write_json(tmp_path / "g.json", {})
    assert (tmp_path / "g.json").read_text(encoding="utf-8") == "{}\n"
