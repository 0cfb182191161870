"""Command line interface: generate, evaluate, filter, report.

Typical offline session::

    lexglean generate --mock fixtures.json --languages all --models all --out outputs/
    lexglean evaluate --outputs outputs/ --results results/
    lexglean filter --results results/ --outputs outputs/ --out corpus/
    lexglean report --results results/ --kind efficiency --format csv

``evaluate`` scores one model/language/task cell at a time
(``score_cell``).  Into a results directory that holds an earlier
evaluate's results it parses only new and changed records and reuses every
evaluation, cell summary and overlap whose inputs are unchanged
(``lexglean.fingerprints``); ``filter`` refuses an evaluation whose record
changed after it was computed.

Configuration directory precedence: ``--config`` flag, then the
``LEXGLEAN_CONFIG`` environment variable, then the packaged defaults.
Setting ``NO_NETWORK=1`` refuses to create an HTTP backend, so only
``--mock`` runs are possible.  API keys are only ever read from the
environment variables named in the model config.
"""
from __future__ import annotations

import argparse
import hashlib
import logging
import os
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Mapping

from . import __version__, data_dir, fingerprints
from .codec import DataError, json_file_text, load_list, parse_record, to_json, write_atomic
from .evaluation import (
    DEFAULT_VALIDITY_THRESHOLD,
    DEFAULT_W_CONF,
    ConditionSummary,
    EvaluationRecord,
    aggregate,
    evaluate_output,
    evaluation_line,
    filter_usable,
    export_usable_corpus,
    read_evaluations,
    read_summaries,
    reference_overlap,
    reference_profile,
    write_evaluations,
    write_summaries,
    OverlapResult,
)
from .generation import (
    GenerationRecord,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    load_mock_fixtures,
    load_record,
    read_records,
    record_files,
    run_batch,
)
from .langid import (
    BackendError,
    BuiltinClassifier,
    ExternalPredictionsClassifier,
    FidelityBackend,
    load_external_predictions,
    load_seed_corpora,
    train_profiles,
)
from .reporting import FORMATS, TABLE_KINDS, ReportSpec, format_condition_table, render_report
from .taxonomy import (
    LanguageConfig,
    load_language_configs,
    load_model_configs,
    load_taxonomy,
    validate_taxonomy,
)
from .textstats import analyze

log = logging.getLogger("lexglean")

EXIT_OK = 0
EXIT_DATA = 1  # missing or corrupt input data
EXIT_USAGE = 2  # bad flags / configuration
EXIT_CALLS_FAILED = 3  # generate: some calls failed; a re-run retries only those


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _resolve_config_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env_value = os.environ.get("LEXGLEAN_CONFIG")
    if env_value:
        return Path(env_value)
    return data_dir()


def _select(available, wanted_csv: str, key, what: str):
    """The named items in first-seen order, each once; ``all`` names every one."""
    by_key = {key(item): item for item in available}
    if wanted_csv.strip().lower() == "all":
        return list(available)
    selected = {}
    for name in [part.strip() for part in wanted_csv.split(",") if part.strip()]:
        if name not in by_key:
            known = ", ".join(sorted(by_key))
            raise CliError(f"unknown {what} '{name}' (known: {known})")
        selected[name] = by_key[name]
    if not selected:
        raise CliError(f"no {what} selected")
    return list(selected.values())


def cmd_generate(args: argparse.Namespace) -> int:
    config_dir = _resolve_config_dir(args.config)
    languages_all = load_language_configs(config_dir / "languages.json")
    models_all = load_model_configs(config_dir / "models.json")
    languages = _select(languages_all, args.languages, lambda l: l.iso_code, "language")
    models = _select(models_all, args.models, lambda m: m.model_id, "model")

    taxonomy_path = Path(args.taxonomy) if args.taxonomy else data_dir() / "taxonomy.json"
    templates = load_taxonomy(taxonomy_path)
    report = validate_taxonomy(templates)
    if not report.ok:
        for issue in report.issues:
            print(f"taxonomy: {issue}", file=sys.stderr)
        raise CliError(f"taxonomy {taxonomy_path} failed validation")

    if args.mock:
        backend = MockBackend(load_mock_fixtures(args.mock))
    elif os.environ.get("NO_NETWORK") == "1":
        raise CliError("NO_NETWORK=1 is set; pass --mock FIXTURES to run offline")
    else:
        backend = HttpBackend()

    policy = RetryPolicy(rng=random.Random(args.seed))
    manifest = run_batch(
        templates,
        languages,
        models,
        args.out,
        backend,
        parallelism=args.parallelism,
        policy=policy,
    )
    done = len(manifest.completed)
    print(f"{manifest.new_requests} new requests, {manifest.expected_calls} expected")
    print(f"completed {done}/{manifest.expected_calls}, failed {len(manifest.failures)}")
    for _, message in manifest.failures:
        print(f"failed: {message}", file=sys.stderr)  # the message starts with the output id
    return EXIT_CALLS_FAILED if manifest.failures else EXIT_OK


def _make_lid_backend(spec: str):
    """The backend, its name for ``run_meta.json`` and a digest of the data it loaded."""
    kind, _, argument = spec.partition(":")
    if kind == "builtin":
        seeds_dirname = argument or str(data_dir() / "seeds")
        corpora = load_seed_corpora(seeds_dirname)
        seed_files = sorted(Path(seeds_dirname).glob("*.txt"))
        return (
            BuiltinClassifier(train_profiles(corpora)),
            f"builtin:{seeds_dirname}",
            fingerprints.files_digest(seed_files),
        )
    if kind == "external":
        if not argument:
            raise CliError("--lid external needs a predictions file: external:<path>")
        backend = ExternalPredictionsClassifier(load_external_predictions(argument))
        return backend, spec, fingerprints.files_digest([Path(argument)])
    raise CliError(f"unknown --lid backend '{spec}' (use builtin:<seeds-dir> or external:<file>)")


def _parse_references(pairs: list[str]) -> dict[str, Path]:
    references: dict[str, Path] = {}
    for pair in pairs:
        language, separator, pathname = pair.partition("=")
        if not separator or not language or not pathname:
            raise CliError(f"bad --reference '{pair}' (expected LANG=PATH)")
        references[language] = Path(pathname)
    return references


Key = tuple[str, str, str]  # (model_id, language, task_type): one cell


def _reusable(results_dir: Path, inputs: dict):
    """What an earlier evaluate into ``results_dir`` left that still holds.

    Returns its fingerprint cells and summaries by cell key, its
    ``evaluations.jsonl`` lines by output id, its overlaps by cell key
    string and its reference digests by language.  All are empty unless the
    fingerprints file was written with the same ``inputs`` (the package
    sources among them, so an old line is what the encoder would write now)
    and every results file is the one it names; anything unreadable counts
    as nothing to reuse.  The lines are matched to the sorted output ids
    the fingerprints list, not parsed.
    """
    summary_path, overlap_path = results_dir / "summary.json", results_dir / "overlap.json"
    try:
        old = fingerprints.read(results_dir)
        if (
            old is not None
            and old.inputs == inputs
            and old.summary == fingerprints.file_digest(summary_path)
            and old.overlap == fingerprints.file_digest(overlap_path)
        ):
            data = (results_dir / "evaluations.jsonl").read_bytes()
            lines = data.splitlines(keepends=True)
            output_ids = sorted(old.records())
            if old.evaluations == hashlib.sha256(data).hexdigest() and len(lines) == len(output_ids):
                return (
                    {cell[:3]: cell for cell in old.cells},
                    {(s.model_id, s.language, s.task_type): s for s in read_summaries(summary_path)},
                    dict(zip(output_ids, lines)),
                    {} if old.overlap is None else {
                        overlap.key: overlap for overlap in load_list(OverlapResult, overlap_path, "overlaps")
                    },
                    old.references,
                )
    except (OSError, ValueError, TypeError):
        pass
    return {}, {}, {}, {}, {}


def score_cell(
    key: Key,
    records: Mapping[str, GenerationRecord | str],
    old_lines: Mapping[str, bytes],
    old_overlap: OverlapResult | None,
    old_summary: ConditionSummary | None,
    *,
    language: LanguageConfig,
    backend: FidelityBackend,
    reference: Counter[str] | None,
    threshold: int,
    w_conf: float,
) -> tuple[dict[str, bytes], OverlapResult | None, ConditionSummary]:
    """Evaluation lines by output id, overlap and summary of one cell.

    ``records`` maps each output id of the cell to its record, or to the
    path of its record file when the file is unchanged since the evaluate
    that wrote ``old_lines``; ``old_lines`` holds the old line of each such
    record.  A record with an old line keeps it.  ``old_summary`` is given
    when no record of the cell changed, and is kept; otherwise the kept
    lines are decoded and the cell aggregated again.  With a ``reference``,
    ``old_overlap`` is kept when given; otherwise every record is parsed and
    the cell's trigrams counted again.
    """
    count_grams = reference is not None and old_overlap is None
    counts: Counter[str] = Counter()
    lines: dict[str, bytes] = {}
    evaluations = []
    for output_id in sorted(records):
        record, line = records[output_id], old_lines.get(output_id)
        if count_grams or line is None:
            if isinstance(record, str):
                with open(record, "rb") as handle:
                    record = parse_record(GenerationRecord, handle.read(), record)
            analysis = analyze(record.response_text)
            if count_grams:
                counts.update(analysis.grams)
        if line is None:
            evaluation = evaluate_output(
                record, language, backend, analysis=analysis, threshold=threshold, w_conf=w_conf,
            )
            line = evaluation_line(evaluation)
            evaluations.append(evaluation)
        elif old_summary is None:
            evaluations.append(parse_record(EvaluationRecord, line, output_id))
        lines[output_id] = line
    overlap = reference_overlap("/".join(key), counts, reference) if count_grams else old_overlap
    return lines, overlap, old_summary or aggregate(evaluations)[0]


def cmd_evaluate(args: argparse.Namespace) -> int:
    languages_path = _resolve_config_dir(args.config) / "languages.json"
    languages = {language.iso_code: language for language in load_language_configs(languages_path)}
    backend, backend_name, lid_digest = _make_lid_backend(args.lid)
    results_dir = Path(args.results)
    inputs = {
        "code": fingerprints.code_digest(),
        "config": {"lid": args.lid.partition(":")[0], "threshold": args.threshold, "w_conf": args.w_conf},
        "languages": fingerprints.files_digest([languages_path]),
        "lid_data": lid_digest,
    }
    old_cells, old_summaries, old_lines, old_overlaps, old_references = _reusable(results_dir, inputs)
    known = {i: (key, digest) for key, cell in old_cells.items() for i, digest in cell.records.items()}

    # Every record file is hashed.  One whose path names an output id that
    # the old fingerprints list with the same digest holds that record, in
    # that cell: it stays a path, parsed only if its cell's overlap has to
    # be counted again.
    cells: dict[Key, dict[str, GenerationRecord | str]] = {}
    digests: dict[str, str] = {}
    for path, output_id, data in record_files(args.outputs):
        digest = hashlib.sha256(data).hexdigest()
        key, old_digest = known.get(output_id, (None, None))
        if digest == old_digest:
            record = path
        else:
            record = load_record(args.outputs, path, output_id, data)
            output_id, key = record.output_id, (record.model_id, record.language, record.task_type)
        digests[output_id] = digest
        cells.setdefault(key, {})[output_id] = record
    if not cells:
        raise CliError(f"no records under {args.outputs}", code=EXIT_DATA)

    # Every reference is read before anything is written, so a bad one
    # leaves the results directory as it was.
    references = {}
    reference_digests = {}
    for code, reference_path in sorted(_parse_references(args.reference).items()):
        reference_bytes = reference_path.read_bytes()
        if not any(key[1] == code for key in cells):
            raise CliError(f"--reference {code}: no records for that language")
        references[code] = reference_profile(reference_bytes.decode("utf-8").splitlines())
        reference_digests[code] = hashlib.sha256(reference_bytes).hexdigest()

    # A cell whose records are all unchanged keeps its old summary and
    # lines, and its old overlap if its reference is unchanged too.  Cells
    # are scored in the order of the overlap results: by language, then by
    # key string.
    lines: dict[str, bytes] = {}
    overlaps = []
    summaries = []
    fingerprint_cells = []
    reused = 0
    for key in sorted(cells, key=lambda key: (key[1], "/".join(key))):
        language = languages.get(key[1])
        records = cells.pop(key)
        if language is None:
            raise CliError(f"record {min(records)}: unknown language '{key[1]}'")
        pairs = {output_id: digests[output_id] for output_id in sorted(records)}
        fingerprint_cells.append(fingerprints.Cell(*key, pairs, fingerprints.cell_digest(key, pairs.items())))
        same = key in old_cells and old_cells[key].digest == fingerprint_cells[-1].digest
        # "" never equals a digest or None: no overlap is kept for a cell
        # without a reference, or whose reference changed.
        kept_overlap = same and old_references.get(key[1], "") == reference_digests.get(key[1])
        kept_lines = {i: old_lines[i] for i, record in records.items() if isinstance(record, str)}
        cell_lines, overlap, summary = score_cell(
            key,
            records,
            kept_lines,
            old_overlaps.get("/".join(key)) if kept_overlap else None,
            old_summaries.get(key) if same else None,
            language=language,
            backend=backend,
            reference=references.get(key[1]),
            threshold=args.threshold,
            w_conf=args.w_conf,
        )
        reused += len(kept_lines)
        lines.update(cell_lines)
        if overlap is not None:
            overlaps.append(overlap)
        summaries.append(summary)
    summaries.sort(key=lambda s: (s.model_id, s.language, s.task_type))
    fingerprint_cells.sort(key=lambda cell: cell[:3])

    # The fingerprints go first and come back last, so a run cut short
    # leaves none and the next evaluate starts cold.
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / fingerprints.FILENAME).unlink(missing_ok=True)
    evaluations_path = results_dir / "evaluations.jsonl"
    write_evaluations(lines, evaluations_path)
    summary_path = results_dir / "summary.json"
    write_summaries(summaries, summary_path)
    write_atomic(results_dir / "summary.csv", render_report(ReportSpec("full_summary", "csv"), summaries))
    overlap_path = results_dir / "overlap.json"
    if overlaps:
        write_atomic(overlap_path, json_file_text({"overlaps": [to_json(o) for o in overlaps]}))
    else:
        overlap_path.unlink(missing_ok=True)  # a stale one would be reported as current

    meta = {
        "lid_backend": backend_name,
        "validity_threshold": args.threshold,
        "quality_formula": (
            f"quality = {args.w_conf:g}*lang_conf"
            f" + {1.0 - args.w_conf:g}*(1 - code_switch_rate)"
        ),
        "n_records": len(digests),
        "n_conditions": len(summaries),
    }
    write_atomic(results_dir / "run_meta.json", json_file_text(meta))
    fingerprints.write(results_dir, fingerprints.Fingerprints(
        inputs, fingerprint_cells, reference_digests,
        fingerprints.file_digest(evaluations_path), fingerprints.file_digest(overlap_path),
        fingerprints.file_digest(summary_path),
    ))

    print(f"lid backend: {backend_name}")
    print(meta["quality_formula"])
    print(f"reused {reused} of {len(digests)} evaluations")
    print(f"evaluated {len(digests)} records into {len(summaries)} conditions")
    print(format_condition_table(summaries))
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    evaluations_path = results_dir / "evaluations.jsonl"
    if not evaluations_path.exists():
        raise CliError(f"no evaluations at {evaluations_path} (run 'evaluate' first)", code=EXIT_DATA)
    evaluations = read_evaluations(evaluations_path)
    # Without fingerprints (results of an older evaluate) nothing ties the
    # evaluations to the record bytes they were computed from.
    recorded = fingerprints.read(results_dir)
    if recorded is None:
        print(
            f"note: no {fingerprints.FILENAME} in {results_dir}; "
            "evaluations are not checked against the records",
            file=sys.stderr,
        )
    elif recorded.evaluations != fingerprints.file_digest(evaluations_path):
        raise CliError(
            f"{evaluations_path} is not the file {fingerprints.FILENAME} describes "
            "(run 'evaluate' again)",
            code=EXIT_DATA,
        )
    digests: dict[str, str] | None = None if recorded is None else {}
    recorded_digests = {} if recorded is None else recorded.records()
    records = {record.output_id: record for record in read_records(args.outputs, digests)}
    pairs = []
    for evaluation in evaluations:
        record = records.get(evaluation.output_id)
        if record is None:
            raise CliError(
                f"evaluation {evaluation.output_id} has no record under {args.outputs}",
                code=EXIT_DATA,
            )
        if digests is not None and recorded_digests.get(record.output_id) != digests[record.output_id]:
            raise CliError(
                f"evaluation {record.output_id} is stale: its record under {args.outputs} is not "
                "the one it was computed from (run 'evaluate' again)",
                code=EXIT_DATA,
            )
        pairs.append((record, evaluation))

    usable = filter_usable(pairs, min_quality=args.min_quality)
    languages = sorted({evaluation.language for evaluation in evaluations})
    totals = export_usable_corpus(usable, args.out, languages)
    for language, (documents, words) in sorted(totals.items()):
        print(f"{language}: {documents} documents, {words} words")
    print(f"total usable words: {sum(words for _, words in totals.values())}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    spec = ReportSpec(args.kind, args.format)
    if args.kind == "overlap":
        overlap_path = results_dir / "overlap.json"
        if not overlap_path.exists():
            raise CliError(
                f"no overlap results at {overlap_path} (run 'evaluate' with --reference)",
                code=EXIT_DATA,
            )
        overlaps = load_list(OverlapResult, overlap_path, "overlaps")
        content = render_report(spec, overlaps=overlaps)
    else:
        summary_path = results_dir / "summary.json"
        if not summary_path.exists():
            raise CliError(f"no summary at {summary_path} (run 'evaluate' first)", code=EXIT_DATA)
        content = render_report(spec, summaries=read_summaries(summary_path))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(content, encoding="utf-8")
    else:
        sys.stdout.write(content)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexglean",
        description="Mine monolingual low-resource-language text from chat-completion endpoints.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="config directory with languages.json and models.json")
    parser.add_argument("--seed", type=int, default=None, help="seed for retry jitter")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="run the prompt batch against a backend")
    p_generate.add_argument("--taxonomy", help="taxonomy JSON (default: packaged)")
    p_generate.add_argument("--languages", default="all", help="comma-separated iso codes or 'all'")
    p_generate.add_argument("--models", default="all", help="comma-separated model ids or 'all'")
    p_generate.add_argument("--out", required=True, help="output run directory")
    p_generate.add_argument("--mock", help="mock fixtures JSON; no network, no API keys")
    p_generate.add_argument("--parallelism", type=int, default=4, help="max in-flight requests")
    p_generate.set_defaults(func=cmd_generate)

    p_evaluate = sub.add_parser("evaluate", help="score a run directory")
    p_evaluate.add_argument("--outputs", required=True, help="run directory from 'generate'")
    p_evaluate.add_argument("--results", required=True, help="results directory to write")
    p_evaluate.add_argument(
        "--lid",
        default="builtin:",
        help="LID backend: builtin:<seeds-dir> (default packaged seeds) or external:<predictions.jsonl>",
    )
    p_evaluate.add_argument(
        "--threshold",
        type=int,
        default=DEFAULT_VALIDITY_THRESHOLD,
        help="minimum word tokens for a valid output",
    )
    p_evaluate.add_argument(
        "--w-conf",
        type=float,
        default=DEFAULT_W_CONF,
        help="weight of language confidence in the quality score (code-switch gets 1 - w)",
    )
    p_evaluate.add_argument(
        "--reference",
        action="append",
        default=[],
        metavar="LANG=PATH",
        help="reference corpus for overlap checking; repeatable",
    )
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_filter = sub.add_parser("filter", help="export the usable corpus")
    p_filter.add_argument("--results", required=True, help="results directory from 'evaluate'")
    p_filter.add_argument("--outputs", required=True, help="run directory from 'generate'")
    p_filter.add_argument("--out", required=True, help="corpus directory to write")
    p_filter.add_argument("--min-quality", type=float, default=None, help="minimum quality score")
    p_filter.set_defaults(func=cmd_filter)

    p_report = sub.add_parser("report", help="render a report table")
    p_report.add_argument("--results", required=True, help="results directory from 'evaluate'")
    p_report.add_argument("--kind", required=True, choices=TABLE_KINDS)
    p_report.add_argument("--format", required=True, choices=FORMATS)
    p_report.add_argument("--out", help="write to file instead of stdout")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DataError, BackendError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
