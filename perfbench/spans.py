"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions where each caller module
binds them (``lexglean.cli.evaluate_output``, ``lexglean.langid.trigram_profile``
and so on), so nothing under ``src/`` changes.  Each call becomes a span:
name, start, end, parent, thread and work counts.  Spans stay in memory;
``summarise`` derives self time afterwards by subtracting the part of a
span's interval that its children cover.

``run_batch`` runs its calls on worker threads.  A span opened on a thread
whose own stack is empty takes as parent the innermost open span of the
thread that created the recorder, so worker spans become children of
``run_batch``.

A wrapped name the package no longer has is skipped: its time then shows as
its caller's self time and the run goes on.
"""
from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def _chars(args, kwargs, result):
    return {"chars": len(args[0])}


def _sentences(args, kwargs, result):
    return {"chars": len(args[0]), "sentences": len(result)}


def _records_in(args, kwargs, result):
    return {"records": len(args[0])}


def _records_out(args, kwargs, result):
    return {"records": len(result)}


def _one_record(args, kwargs, result):
    return {"records": 1}


def _written_bytes(args, kwargs, result):
    return {"records": len(args[0]), "bytes": os.path.getsize(args[1])}


def _dumped(args, kwargs, result):
    return {"chars": len(result)}


def _assessed(args, kwargs, result):
    return {"records": 1, "chars": len(args[1]), "sentences": len(result.sentence_predictions)}


# (module, attribute or Class.method, span name, work counter).  A function
# imported by name into several modules is wrapped in each of them.
WRAPPED = (
    ("lexglean.taxonomy", "load_taxonomy", "taxonomy.load_taxonomy", None),
    ("lexglean.taxonomy", "validate_taxonomy", "taxonomy.validate_taxonomy", None),
    ("lexglean.taxonomy", "load_language_configs", "taxonomy.load_language_configs", None),
    ("lexglean.taxonomy", "load_model_configs", "taxonomy.load_model_configs", None),
    ("lexglean.cli", "load_language_configs", "taxonomy.load_language_configs", None),
    ("lexglean.cli", "load_model_configs", "taxonomy.load_model_configs", None),
    ("lexglean.generation", "render_prompt", "taxonomy.render_prompt", None),
    ("lexglean.generation", "build_request", "taxonomy.build_request", None),
    ("lexglean.generation", "load_mock_fixtures", "generation.load_mock_fixtures", _records_out),
    ("lexglean.generation", "run_batch", "generation.run_batch", None),
    ("lexglean.generation", "execute", "generation.execute", None),
    ("lexglean.generation", "dumps_record", "generation.dumps_record", _dumped),
    ("lexglean.cli", "read_records", "generation.read_records", _records_out),
    ("lexglean.evaluation", "tokenize", "textstats.tokenize", _chars),
    ("lexglean.evaluation", "segment_sentences", "textstats.segment_sentences", _sentences),
    ("lexglean.langid", "segment_sentences", "textstats.segment_sentences", _sentences),
    ("lexglean.evaluation", "trigram_profile", "textstats.trigram_profile", _chars),
    ("lexglean.langid", "trigram_profile", "textstats.trigram_profile", _chars),
    ("lexglean.evaluation", "diacritic_stats", "textstats.diacritic_stats", _chars),
    ("lexglean.langid", "load_seed_corpora", "langid.load_seed_corpora", None),
    ("lexglean.cli", "load_seed_corpora", "langid.load_seed_corpora", None),
    ("lexglean.langid", "train_profiles", "langid.train_profiles", None),
    ("lexglean.cli", "train_profiles", "langid.train_profiles", None),
    ("lexglean.langid", "BuiltinClassifier.assess", "langid.assess", _assessed),
    ("lexglean.langid", "LanguageProfileSet.scores", "langid.scores", None),
    ("lexglean.cli", "evaluate_output", "evaluation.evaluate_output", _one_record),
    ("lexglean.cli", "aggregate", "evaluation.aggregate", None),
    ("lexglean.cli", "reference_overlap", "evaluation.reference_overlap", _records_in),
    ("lexglean.cli", "write_evaluations", "evaluation.write_evaluations", _written_bytes),
    ("lexglean.cli", "write_summaries", "evaluation.write_summaries", None),
    ("lexglean.cli", "read_evaluations", "evaluation.read_evaluations", _records_out),
    ("lexglean.cli", "filter_usable", "evaluation.filter_usable", _records_in),
    ("lexglean.cli", "export_usable_corpus", "evaluation.export_usable_corpus", None),
    ("lexglean.cli", "read_summaries", "evaluation.read_summaries", None),
    ("lexglean.cli", "render_report", "reporting.render_report", None),
    ("lexglean.cli", "format_condition_table", "reporting.format_condition_table", None),
    ("lexglean.cli", "main", "cli.main", None),
    ("lexglean.cli", "cmd_evaluate", "cli.evaluate", None),
    ("lexglean.cli", "cmd_filter", "cli.filter", None),
    ("lexglean.cli", "cmd_report", "cli.report", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "counts")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter_ns()
        self.end = 0
        self.counts: dict | None = None


class Recorder:
    """Keeps every span in memory; one recorder per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._owner = threading.get_ident()
        self._stacks: dict[int, list[Span]] = defaultdict(list)

    def _open(self, name: str) -> Span:
        thread = threading.get_ident()
        stack = self._stacks[thread]
        if stack:
            parent = stack[-1]
        else:
            owner_stack = self._stacks[self._owner]
            parent = owner_stack[-1] if owner_stack else None
        span = Span(name, parent, thread)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stacks[span.thread].pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        opened = self._open(name)
        try:
            yield opened
        finally:
            self._close(opened)

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            opened = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(opened)
            if counter is not None:
                try:
                    opened.counts = counter(args, kwargs, result)
                except (IndexError, KeyError, TypeError, AttributeError, OSError):
                    pass  # a changed signature loses this call's counts, not the run
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


@contextmanager
def installed(recorder: Recorder, wrapped=WRAPPED):
    """Wrap every listed function for the duration of the block."""
    restore = []
    try:
        for module_name, attribute, name, counter in wrapped:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            setattr(owner, leaf, recorder.wrap(name, original, counter))
            restore.append((owner, leaf, original))
        yield recorder
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


@dataclass
class Totals:
    """Aggregate of every span with one name (optionally within one stage)."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def _covered_ns(span: Span, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of child intervals, clipped to the span."""
    covered = 0
    cursor = span.start
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds of each span, keyed by ``id(span)``."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {
        id(span): (span.end - span.start - _covered_ns(span, children.get(id(span), []))) / 1e9
        for span in spans
    }


def stage_of(span: Span) -> str | None:
    """Name of the outermost ``stage.*`` span above (or at) ``span``."""
    stage = None
    node: Span | None = span
    while node is not None:
        if node.name.startswith("stage."):
            stage = node.name[len("stage."):]
        node = node.parent
    return stage


def summarise(spans: list[Span]) -> dict[tuple[str | None, str], Totals]:
    """Totals keyed by (stage, name) and by (None, name) across stages."""
    selfs = self_times(spans)
    stages: dict[int, str | None] = {}
    table: dict[tuple[str | None, str], Totals] = defaultdict(Totals)
    for span in spans:
        key = id(span)
        if key not in stages:
            stages[key] = stage_of(span)
        for scope in (stages[key], None):
            totals = table[(scope, span.name)]
            totals.calls += 1
            totals.total_s += (span.end - span.start) / 1e9
            totals.self_s += selfs[key]
            for counter, value in (span.counts or {}).items():
                totals.counts[counter] += value
    return table
