import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from lexglean import data_dir
from lexglean.taxonomy import (
    ConfigError,
    LanguageConfig,
    ModelConfig,
    PromptTemplate,
    TASK_TYPES,
    load_language_configs,
    load_model_configs,
    load_taxonomy,
    placeholders_in,
    render_prompt,
    render_text,
    validate_taxonomy,
)

HAUSA = LanguageConfig(
    name="Hausa",
    iso_code="hau",
    target_lid_label="hau_Latn",
    culture_name="Hausa",
    colonial_language="English",
    tonal_orthography=False,
    word_lists={"word_list_1": ("ruwa", "gona", "kasuwa")},
)


def test_shipped_taxonomy_loads_and_validates(shipped_templates):
    assert len(shipped_templates) == 150
    report = validate_taxonomy(shipped_templates)
    assert report.ok
    assert Counter(t.task_type for t in shipped_templates) == {task: 25 for task in TASK_TYPES}


def test_shipped_taxonomy_cg01_render(shipped_languages):
    templates = {t.id: t for t in load_taxonomy(data_dir() / "taxonomy.json")}
    hausa = next(l for l in shipped_languages if l.iso_code == "hau")
    rendered = render_prompt(templates["cg_01"], hausa)
    assert rendered == (
        "Write a short paragraph in Hausa using ALL of the following words: "
        "ruwa, gona, kasuwa, gida, rana, abinci. Do not use any English words."
    )


def test_load_taxonomy_bare_array(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(
        json.dumps(
            [{"id": "cw_01", "task_type": "creative", "subtask": "poem", "template": "Write in {language}."}]
        )
    )
    templates = load_taxonomy(path)
    assert placeholders_in(templates[0].template_text) == ["language"]


def test_load_taxonomy_wrapped_bad_version(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps({"schema_version": 2, "templates": []}))
    with pytest.raises(ConfigError, match="schema_version"):
        load_taxonomy(path)


def test_load_taxonomy_empty(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text("[]")
    with pytest.raises(ConfigError, match="no templates"):
        load_taxonomy(path)


def test_load_taxonomy_duplicate_id(tmp_path):
    entry = {"id": "cw_01", "task_type": "creative", "subtask": "poem", "template": "x"}
    path = tmp_path / "tax.json"
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(ConfigError, match="entries 0 and 1"):
        load_taxonomy(path)


def test_load_taxonomy_missing_field(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps([{"id": "cw_01", "task_type": "creative"}]))
    with pytest.raises(ConfigError, match="missing field"):
        load_taxonomy(path)


TEMPLATE_ENTRY = {"id": "cw_01", "task_type": "creative", "subtask": "poem", "template": "x"}


@pytest.mark.parametrize(
    "entry,detail",
    [
        ("cw_02", ": expected an object, not str"),
        ({**TEMPLATE_ENTRY, "id": 2}, ": 'id' must be a string, not int"),
        ({**TEMPLATE_ENTRY, "id": ""}, ": 'id' must be nonempty"),
        ({"id": "cw_02", "task_type": "creative", "subtask": "poem"}, ": missing field 'template'"),
    ],
    ids=["not_object", "id_not_string", "id_empty", "missing_field"],
)
def test_load_taxonomy_bad_entry_names_file_and_entry(tmp_path, entry, detail):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps([TEMPLATE_ENTRY, entry]))
    with pytest.raises(ConfigError) as exc_info:
        load_taxonomy(path)
    assert str(exc_info.value) == f"{path}: template entry 1{detail}"


def test_load_taxonomy_invalid_json_reports_position(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text('[\n  {"id": }\n]')
    with pytest.raises(ConfigError, match=r"line 2 column"):
        load_taxonomy(path)


def test_validate_flags_problems():
    templates = [
        PromptTemplate("zz_01", "mystery", "s", "x"),
        PromptTemplate("cw_02", "creative", "s", "{bogus}"),
        PromptTemplate("cg_03", "creative", "s", "x"),
    ]
    report = validate_taxonomy(templates)
    assert not report.ok
    assert report.issues == [
        "zz_01: unknown task_type 'mystery'",
        "cw_02: unknown placeholder '{bogus}'",
        "zz_01: id prefix does not match task_type 'mystery'",
        "cg_03: id prefix does not match task_type 'creative'",
    ]


def test_render_text_word_list_join():
    out = render_text("Use: {word_list_1}.", HAUSA)
    assert out == "Use: ruwa, gona, kasuwa."


def test_render_text_unknown_placeholder():
    with pytest.raises(ConfigError, match=r"template 'cg_99'.*\{gibberish\}"):
        render_text("{gibberish}", HAUSA, context="template 'cg_99'")


def test_render_text_missing_word_list():
    with pytest.raises(ConfigError, match="word_list_7"):
        render_text("{word_list_7}", HAUSA)


def test_placeholders_in_order():
    assert placeholders_in("{b} and {a} and {b}") == ["b", "a", "b"]


def test_language_config_validation():
    with pytest.raises(ConfigError, match="iso_code"):
        LanguageConfig("Hausa", "", "hau_Latn", "Hausa", "English", False)
    with pytest.raises(ConfigError, match="bad word list name"):
        LanguageConfig(
            "Hausa", "hau", "hau_Latn", "Hausa", "English", False, word_lists={"words": ("a",)}
        )


@pytest.mark.parametrize(
    "override,message",
    [
        ({"temperature": -0.1}, "temperature"),
        ({"top_p": 0.0}, "top_p"),
        ({"top_p": 1.5}, "top_p"),
        ({"max_output_tokens": 0}, "max_output_tokens"),
        ({"max_retries": -1}, "max_retries"),
        ({"min_request_interval": -0.5}, "min_request_interval"),
    ],
)
def test_model_config_validation(override, message):
    base = dict(
        model_id="m",
        endpoint_url="https://example.test/v1",
        api_key_env_var="EXAMPLE_KEY",
        temperature=0.7,
        top_p=0.95,
        max_output_tokens=1024,
        system_prompt_template="Speak {language}.",
    )
    base.update(override)
    with pytest.raises(ConfigError, match=message):
        ModelConfig(**base)


def test_shipped_language_configs(shipped_languages):
    codes = [l.iso_code for l in shipped_languages]
    assert codes == ["hau", "fon"]
    fon = shipped_languages[1]
    assert fon.tonal_orthography
    assert fon.colonial_language == "French"
    assert set(fon.word_lists) == {f"word_list_{i}" for i in range(1, 6)}


def test_shipped_model_configs(shipped_models):
    ids = [m.model_id for m in shipped_models]
    assert ids == ["gpt-4o-mini", "gemini-2.5-flash"]
    for model in shipped_models:
        assert model.temperature == 0.7
        assert model.top_p == 0.95
        assert model.max_output_tokens == 1024
        assert "{language}" in model.system_prompt_template


def test_duplicate_language_rejected(tmp_path):
    entry = {
        "name": "Hausa",
        "iso_code": "hau",
        "target_lid_label": "hau_Latn",
        "colonial_language": "English",
        "tonal_orthography": False,
    }
    path = tmp_path / "languages.json"
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(ConfigError, match=r"duplicate language 'hau' \(entries 0 and 1\)"):
        load_language_configs(path)


def test_duplicate_model_rejected(tmp_path):
    entry = {
        "model_id": "m",
        "endpoint_url": "https://example.test",
        "api_key_env_var": "K",
        "temperature": 0.7,
        "top_p": 0.9,
        "max_output_tokens": 10,
        "system_prompt_template": "s",
    }
    path = tmp_path / "models.json"
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(ConfigError, match=r"duplicate model 'm' \(entries 0 and 1\)"):
        load_model_configs(path)


@given(
    st.lists(
        st.sampled_from(["{language}", "{language_culture}", "{colonial_language}", "{word_list_1}", "plain "]),
        max_size=8,
    )
)
def test_render_resolves_all_known_placeholders(parts):
    rendered = render_text("".join(parts), HAUSA)
    assert "{" not in rendered and "}" not in rendered
