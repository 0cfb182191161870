import pytest

from lexglean.evaluation import ConditionSummary, OverlapResult
from lexglean.reporting import (
    FORMATS,
    TABLE_KINDS,
    format_condition_table,
    render_report,
)


def make_summary(model, language, task_type, **overrides):
    fields = dict(
        model_id=model,
        language=language,
        task_type=task_type,
        n_outputs=25,
        valid_pct=92.0,
        avg_words=100.0,
        doc_fidelity_pct=96.0,
        avg_ttr=0.55,
        avg_hapax=0.4,
        avg_vocab=60.0,
        avg_code_switch=0.05,
        avg_lang_conf=0.31,
        avg_quality=0.63,
        usable_words_per_call=88.8,
        diacritic_presence_pct=None,
        avg_diacritic_ratio=None,
    )
    fields.update(overrides)
    return ConditionSummary(**fields)


SUMMARIES = [
    make_summary("modelB", "hau", "creative", valid_pct=92.0, avg_words=100.0),
    make_summary("modelA", "fon", "topic_switch", valid_pct=48.0, avg_words=55.5),
]

OVERLAPS = [
    OverlapResult("m/hau/creative", 0.8421, True),
    OverlapResult("m/fon/dialogue", 0.05, False),
]


def test_validity_csv_frozen():
    text = render_report("validity", "csv", SUMMARIES)
    assert text == (
        "model,language,task_type,n_outputs,valid_pct,avg_words\n"
        "modelA,fon,topic_switch,25,48.0,55.5\n"
        "modelB,hau,creative,25,92.0,100.0\n"
    )


def test_validity_latex_frozen():
    text = render_report("validity", "latex", SUMMARIES)
    assert text == (
        "\\begin{tabular}{lllrrr}\n"
        "\\toprule\n"
        "Model & Language & Task & N & Valid\\% & Words \\\\\n"
        "\\midrule\n"
        "modelA & fon & topic\\_switch & 25 & 48.0 & 55.5 \\\\\n"
        "modelB & hau & creative & 25 & 92.0 & 100.0 \\\\\n"
        "\\bottomrule\n"
        "\\end{tabular}\n"
    )


def test_diversity_json_frozen():
    summary = make_summary("m1", "hau", "creative", avg_ttr=0.5554, avg_hapax=0.425)
    text = render_report("diversity", "json", [summary])
    assert text == (
        "{\n"
        '  "kind": "diversity",\n'
        '  "rows": [\n'
        "    {\n"
        '      "model": "m1",\n'
        '      "language": "hau",\n'
        '      "task_type": "creative",\n'
        '      "avg_ttr": 0.555,\n'
        '      "avg_hapax": 0.425,\n'
        '      "avg_vocab": 60.0\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )


def test_efficiency_columns():
    text = render_report("efficiency", "csv", SUMMARIES)
    assert text.splitlines()[0] == "model,language,task_type,usable_words_per_call"
    assert text.splitlines()[1] == "modelA,fon,topic_switch,88.8"


def test_full_summary_none_renders_empty():
    text = render_report("full_summary", "csv", [SUMMARIES[0]])
    assert text.splitlines()[1].endswith(",,")

    latex = render_report("full_summary", "latex", [SUMMARIES[0]])
    assert " &  &  \\\\" in latex

    import json

    payload = json.loads(render_report("full_summary", "json", [SUMMARIES[0]]))
    assert payload["rows"][0]["diacritic_presence_pct"] is None


def test_overlap_csv_frozen():
    text = render_report("overlap", "csv", overlaps=OVERLAPS)
    assert text == (
        "key,cosine,memorization_suspect\n"
        "m/fon/dialogue,0.0500,false\n"
        "m/hau/creative,0.8421,true\n"
    )


def test_overlap_latex_booleans_and_rules():
    text = render_report("overlap", "latex", overlaps=OVERLAPS)
    assert "\\toprule" in text and "\\midrule" in text and "\\bottomrule" in text
    assert "m/fon/dialogue & 0.0500 & false \\\\" in text
    assert "m/hau/creative & 0.8421 & true \\\\" in text


def test_overlap_json_keeps_booleans():
    import json

    payload = json.loads(render_report("overlap", "json", overlaps=OVERLAPS))
    assert payload["kind"] == "overlap"
    assert payload["rows"][0] == {
        "key": "m/fon/dialogue",
        "cosine": 0.05,
        "memorization_suspect": False,
    }


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize("format", FORMATS)
def test_every_combination_renders(kind, format):
    text = render_report(kind, format, SUMMARIES, OVERLAPS)
    assert text.endswith("\n")
    assert "\r" not in text


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize("format", FORMATS)
def test_rendering_is_deterministic_and_order_free(kind, format):
    first = render_report(kind, format, SUMMARIES, OVERLAPS)
    assert render_report(kind, format, SUMMARIES, OVERLAPS) == first
    assert render_report(kind, format, list(reversed(SUMMARIES)), list(reversed(OVERLAPS))) == first


def test_format_condition_table():
    text = format_condition_table(SUMMARIES)
    lines = text.split("\n")
    assert lines[0].startswith("model  ")
    assert "usable_words_per_call" in lines[0]
    assert len(lines) == 3
    assert all(line == line.rstrip() for line in lines)
    assert "topic_switch" in lines[1]
