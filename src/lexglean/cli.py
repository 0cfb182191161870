"""Command line interface: generate, evaluate, filter, report.

Typical offline session::

    lexglean generate --mock fixtures.json --languages all --models all --out outputs/
    lexglean evaluate --outputs outputs/ --results results/
    lexglean filter --results results/ --outputs outputs/ --out corpus/
    lexglean report --results results/ --kind efficiency --format csv

Configuration directory precedence: ``--config`` flag, then the
``LEXGLEAN_CONFIG`` environment variable, then the packaged defaults.
Setting ``NO_NETWORK=1`` refuses to create an HTTP backend, so only
``--mock`` runs are possible.  API keys are only ever read from the
environment variables named in the model config.
"""
from __future__ import annotations

import argparse
import logging
import os
import random
import sys
from collections import Counter
from itertools import groupby
from pathlib import Path

from . import __version__, data_dir
from .codec import DataError, json_file_text, load_list, to_json
from .evaluation import (
    DEFAULT_VALIDITY_THRESHOLD,
    DEFAULT_W_CONF,
    aggregate,
    evaluate_output,
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
    HttpBackend,
    MockBackend,
    RetryPolicy,
    load_mock_fixtures,
    read_records,
    run_batch,
)
from .langid import (
    BackendError,
    BuiltinClassifier,
    ExternalPredictionsClassifier,
    load_external_predictions,
    load_seed_corpora,
    train_profiles,
)
from .reporting import FORMATS, TABLE_KINDS, ReportSpec, format_condition_table, render_report
from .taxonomy import (
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


def _load_run_config(config_dir: Path):
    languages = load_language_configs(config_dir / "languages.json")
    models = load_model_configs(config_dir / "models.json")
    return languages, models


def _select(available, wanted_csv: str, key, what: str):
    by_key = {key(item): item for item in available}
    if wanted_csv.strip().lower() == "all":
        return list(available)
    selected = []
    for name in [part.strip() for part in wanted_csv.split(",") if part.strip()]:
        if name not in by_key:
            known = ", ".join(sorted(by_key))
            raise CliError(f"unknown {what} '{name}' (known: {known})")
        selected.append(by_key[name])
    if not selected:
        raise CliError(f"no {what} selected")
    return selected


def cmd_generate(args: argparse.Namespace) -> int:
    config_dir = _resolve_config_dir(args.config)
    languages_all, models_all = _load_run_config(config_dir)
    languages = _select(languages_all, args.languages, lambda l: l.iso_code, "language")
    models = _select(models_all, args.models, lambda m: m.model_id, "model")

    taxonomy_path = Path(args.taxonomy) if args.taxonomy else data_dir() / "taxonomy.json"
    templates = load_taxonomy(taxonomy_path)
    report = validate_taxonomy(templates)
    if not report.ok:
        for issue in report.issues():
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
    kind, _, argument = spec.partition(":")
    if kind == "builtin":
        seeds_dirname = argument or str(data_dir() / "seeds")
        corpora = load_seed_corpora(seeds_dirname)
        return BuiltinClassifier(train_profiles(corpora)), f"builtin:{seeds_dirname}"
    if kind == "external":
        if not argument:
            raise CliError("--lid external needs a predictions file: external:<path>")
        return ExternalPredictionsClassifier(load_external_predictions(argument)), spec
    raise CliError(f"unknown --lid backend '{spec}' (use builtin:<seeds-dir> or external:<file>)")


def _parse_references(pairs: list[str]) -> dict[str, Path]:
    references: dict[str, Path] = {}
    for pair in pairs:
        language, separator, pathname = pair.partition("=")
        if not separator or not language or not pathname:
            raise CliError(f"bad --reference '{pair}' (expected LANG=PATH)")
        references[language] = Path(pathname)
    return references


def _cell(record) -> tuple[str, str]:
    """Language and ``model/language/task`` key: the order of the overlap results."""
    return record.language, f"{record.model_id}/{record.language}/{record.task_type}"


def cmd_evaluate(args: argparse.Namespace) -> int:
    config_dir = _resolve_config_dir(args.config)
    languages_all, _ = _load_run_config(config_dir)
    languages = {language.iso_code: language for language in languages_all}

    records = read_records(args.outputs)
    if not records:
        raise CliError(f"no records under {args.outputs}", code=EXIT_DATA)

    backend, backend_name = _make_lid_backend(args.lid)

    # Every reference is read before anything is written, so a bad one
    # leaves the results directory as it was.
    references = {}
    for language, reference_path in sorted(_parse_references(args.reference).items()):
        reference_lines = reference_path.read_text(encoding="utf-8").splitlines()
        if not any(record.language == language for record in records):
            raise CliError(f"--reference {language}: no records for that language")
        references[language] = reference_profile(reference_lines)

    # Records are scored one model/language/task cell at a time, so only the
    # open cell's trigram counts are held for the overlap check.
    evaluations = []
    overlaps = []
    for (code, key), cell in groupby(sorted(records, key=_cell), _cell):
        language = languages.get(code)
        if language is None:
            raise CliError(f"record {next(cell).output_id}: unknown language '{code}'")
        reference = references.get(code)
        counts: Counter[str] = Counter()
        for record in cell:
            analysis = analyze(record.response_text)
            evaluations.append(evaluate_output(
                record, language, backend, analysis=analysis,
                threshold=args.threshold, w_conf=args.w_conf,
            ))
            if reference is not None:
                counts.update(analysis.grams)
        if reference is not None:
            overlaps.append(reference_overlap(key, counts, reference))
    summaries = aggregate(evaluations)

    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    write_evaluations(evaluations, results_dir / "evaluations.jsonl")
    write_summaries(summaries, results_dir / "summary.json")
    (results_dir / "summary.csv").write_text(
        render_report(ReportSpec("full_summary", "csv"), summaries), encoding="utf-8"
    )
    overlap_path = results_dir / "overlap.json"
    if overlaps:
        overlap_path.write_text(
            json_file_text({"overlaps": [to_json(o) for o in overlaps]}), encoding="utf-8"
        )
    else:
        overlap_path.unlink(missing_ok=True)  # a stale one would be reported as current

    meta = {
        "lid_backend": backend_name,
        "validity_threshold": args.threshold,
        "quality_formula": (
            f"quality = {args.w_conf:g}*lang_conf"
            f" + {1.0 - args.w_conf:g}*(1 - code_switch_rate)"
        ),
        "n_records": len(records),
        "n_conditions": len(summaries),
    }
    (results_dir / "run_meta.json").write_text(json_file_text(meta), encoding="utf-8")

    print(f"lid backend: {backend_name}")
    print(meta["quality_formula"])
    print(f"evaluated {len(records)} records into {len(summaries)} conditions")
    print(format_condition_table(summaries))
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    evaluations_path = Path(args.results) / "evaluations.jsonl"
    if not evaluations_path.exists():
        raise CliError(f"no evaluations at {evaluations_path} (run 'evaluate' first)", code=EXIT_DATA)
    evaluations = read_evaluations(evaluations_path)
    records = {record.output_id: record for record in read_records(args.outputs)}
    pairs = []
    for evaluation in evaluations:
        record = records.get(evaluation.output_id)
        if record is None:
            raise CliError(
                f"evaluation {evaluation.output_id} has no record under {args.outputs}",
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
    except ValueError as exc:  # TaxonomyError, ConfigError and RenderError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
