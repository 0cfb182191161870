"""Report tables over condition summaries and overlap results.

Six table kinds (validity, fidelity, diversity, efficiency, full_summary,
overlap) can each be rendered as CSV, LaTeX or JSON by
``render_report(kind, format, summaries, overlaps)``, which takes one of
``TABLE_KINDS`` and one of ``FORMATS`` (the ``report`` command's flags
check both).  Each summary column is listed once, with the one table
besides ``full_summary`` that shows it (the model, language and task
columns are in every table), and each cell is read from the summary or
overlap result by the column's field name.  Rows are always sorted by
(model, language, task_type) and every number is formatted with a fixed
precision, so rendering the same inputs twice produces byte-identical
output.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from .evaluation import ConditionSummary, OverlapResult

TABLE_KINDS = ("validity", "fidelity", "diversity", "efficiency", "full_summary", "overlap")
FORMATS = ("csv", "latex", "json")


@dataclass(frozen=True)
class _Column:
    key: str  # a field of ConditionSummary or OverlapResult
    header: str
    latex_header: str
    align: str
    decimals: int | None  # None -> not numeric (string/int/bool passthrough)
    kind: str = ""  # the one summary table, besides full_summary, that shows it; "" -> every table


_SUMMARY_COLUMNS = (
    _Column("model_id", "model", "Model", "l", None),
    _Column("language", "language", "Language", "l", None),
    _Column("task_type", "task_type", "Task", "l", None),
    _Column("n_outputs", "n_outputs", "N", "r", None, "validity"),
    _Column("valid_pct", "valid_pct", "Valid\\%", "r", 1, "validity"),
    _Column("avg_words", "avg_words", "Words", "r", 1, "validity"),
    _Column("doc_fidelity_pct", "doc_fidelity_pct", "Fidelity\\%", "r", 1, "fidelity"),
    _Column("avg_ttr", "avg_ttr", "TTR", "r", 3, "diversity"),
    _Column("avg_hapax", "avg_hapax", "Hapax", "r", 3, "diversity"),
    _Column("avg_vocab", "avg_vocab", "Vocab", "r", 1, "diversity"),
    _Column("avg_code_switch", "avg_code_switch", "CS", "r", 3, "fidelity"),
    _Column("avg_lang_conf", "avg_lang_conf", "LangConf", "r", 3, "fidelity"),
    _Column("avg_quality", "avg_quality", "Quality", "r", 3, "full_summary"),
    _Column("usable_words_per_call", "usable_words_per_call", "Words/Call", "r", 1, "efficiency"),
    _Column("diacritic_presence_pct", "diacritic_presence_pct", "Diacritics\\%", "r", 1, "full_summary"),
    _Column("avg_diacritic_ratio", "avg_diacritic_ratio", "DiaRatio", "r", 3, "full_summary"),
)

_OVERLAP_COLUMNS = (
    _Column("key", "key", "Group", "l", None),
    _Column("cosine", "cosine", "Cosine", "r", 4),
    _Column("memorization_suspect", "memorization_suspect", "Suspect", "l", None),
)


def _cell_value(value, column: _Column):
    """JSON-facing value: floats rounded to the column precision."""
    if value is None:
        return None
    if column.decimals is not None:
        return round(float(value), column.decimals)
    return value


def _cell_text(value, column: _Column) -> str:
    """CSV/LaTeX-facing value as a string."""
    if value is None:
        return ""
    if column.decimals is not None:
        return f"{float(value):.{column.decimals}f}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _latex_escape(text: str) -> str:
    return text.replace("_", "\\_").replace("%", "\\%").replace("&", "\\&")


def _render_csv(columns: Sequence[_Column], rows: Sequence) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([column.header for column in columns])
    for row in rows:
        writer.writerow([_cell_text(getattr(row, column.key), column) for column in columns])
    return buffer.getvalue()


def _render_latex(columns: Sequence[_Column], rows: Sequence) -> str:
    lines = [
        "\\begin{tabular}{" + "".join(column.align for column in columns) + "}",
        "\\toprule",
        " & ".join(column.latex_header for column in columns) + " \\\\",
        "\\midrule",
    ]
    for row in rows:  # a number's text holds none of the escaped characters
        lines.append(" & ".join(_latex_escape(_cell_text(getattr(row, c.key), c)) for c in columns) + " \\\\")
    lines.append("\\bottomrule")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _render_json(kind: str, columns: Sequence[_Column], rows: Sequence) -> str:
    payload = {
        "kind": kind,
        "rows": [
            {column.header: _cell_value(getattr(row, column.key), column) for column in columns}
            for row in rows
        ],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _sorted_summaries(summaries: Sequence[ConditionSummary]) -> list[ConditionSummary]:
    return sorted(summaries, key=lambda s: (s.model_id, s.language, s.task_type))


def render_report(
    kind: str,
    format: str,
    summaries: Sequence[ConditionSummary] = (),
    overlaps: Sequence[OverlapResult] = (),
) -> str:
    """Render one report table, ``kind`` of TABLE_KINDS in ``format`` of
    FORMATS, to a string (including trailing newline)."""
    if kind == "overlap":
        columns: Sequence[_Column] = _OVERLAP_COLUMNS
        rows: Sequence = sorted(overlaps, key=lambda o: o.key)
    else:
        columns = [c for c in _SUMMARY_COLUMNS if c.kind in ("", kind) or kind == "full_summary"]
        rows = _sorted_summaries(summaries)
    if format == "csv":
        return _render_csv(columns, rows)
    if format == "latex":
        return _render_latex(columns, rows)
    return _render_json(kind, columns, rows)


def format_condition_table(summaries: Sequence[ConditionSummary]) -> str:
    """Fixed-width text table for terminal output."""
    headers = [column.header for column in _SUMMARY_COLUMNS]
    table = [headers] + [
        [_cell_text(getattr(row, column.key), column) for column in _SUMMARY_COLUMNS]
        for row in _sorted_summaries(summaries)
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() for line in table]
    return "\n".join(lines)
