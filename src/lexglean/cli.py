"""Command line interface: generate, evaluate, filter, report.

Typical offline session::

    lexglean generate --mock fixtures.json --languages all --models all --out outputs/
    lexglean evaluate --outputs outputs/ --results results/
    lexglean filter --results results/ --outputs outputs/ --out corpus/
    lexglean report --results results/ --kind efficiency --format csv

``generate`` keeps a few calls per worker thread in flight (``run_batch``).
``evaluate`` and ``filter`` read the run and results directories through
``lexglean.fingerprints``, which walks the record files, compares each with
its fingerprint, checks the results files against theirs and says what an
earlier evaluate left that still holds.  Both pair the lines of
``evaluations.jsonl`` with the listed output ids by its one rule
(``fingerprints.lines``): ``evaluate`` copies a kept line unparsed when it
names its output id (``names_its_output``) and scores the record afresh
when it does not, and ``filter`` parses each line and refuses one that
names another output.  ``evaluate`` scores one model/language/task cell at
a time (``score_cell``).  ``filter``'s merge (``usable_outputs``) is a
generator that ``export_usable_corpus`` drains, writing each usable output
as it comes.

An error ends a command with an ``error:`` line and an exit code set by its
class alone: 1 for unreadable or inconsistent data (``DataError`` or an
``OSError``), 2 for bad flags or configuration (``ConfigError`` or any other
``ValueError``).

Configuration directory precedence: ``--config`` flag, then the
``LEXGLEAN_CONFIG`` environment variable, then the packaged defaults.
Setting ``NO_NETWORK=1`` refuses to create an HTTP backend, so only
``--mock`` runs are possible.  API keys are only ever read from the
environment variables named in the model config.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import logging
import os
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import __version__, data_dir, fingerprints
from .codec import DataError, atomic_writer, json_file_text, load_list, parse_record, to_json, write_atomic
from .evaluation import (
    DEFAULT_VALIDITY_THRESHOLD,
    DEFAULT_W_CONF,
    ConditionSummary,
    EvaluationRecord,
    aggregate,
    evaluate_output,
    evaluation_line,
    export_usable_corpus,
    names_its_output,
    read_summaries,
    reference_overlap,
    reference_profile,
    write_summaries,
    OverlapResult,
)
from .generation import (
    GenerationRecord,
    HttpBackend,
    MockBackend,
    load_mock_fixtures,
    run_batch,
)
from .langid import FidelityBackend, load_external_predictions, load_seed_corpora, train_profiles
from .reporting import FORMATS, TABLE_KINDS, format_condition_table, render_report
from .taxonomy import (
    ConfigError,
    LanguageConfig,
    load_language_configs,
    load_model_configs,
    load_taxonomy,
    render_prompt,
    validate_taxonomy,
)
from .textstats import analyze

EXIT_OK = 0
EXIT_DATA = 1  # missing or corrupt input data
EXIT_USAGE = 2  # bad flags / configuration
EXIT_CALLS_FAILED = 3  # generate: some calls failed; a re-run retries only those


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
            raise ConfigError(f"unknown {what} '{name}' (known: {known})")
        selected[name] = by_key[name]
    if not selected:
        raise ConfigError(f"no {what} selected")
    return list(selected.values())


def cmd_generate(args: argparse.Namespace) -> int:
    if args.parallelism < 1:
        raise ConfigError(f"--parallelism must be at least 1, got {args.parallelism}")
    config_dir = _resolve_config_dir(args.config)
    languages_path = config_dir / "languages.json"
    languages_all = load_language_configs(languages_path)
    models_all = load_model_configs(config_dir / "models.json")
    languages = _select(languages_all, args.languages, lambda l: l.iso_code, "language")
    models = _select(models_all, args.models, lambda m: m.model_id, "model")

    taxonomy_path = Path(args.taxonomy) if args.taxonomy else data_dir() / "taxonomy.json"
    templates = load_taxonomy(taxonomy_path)
    report = validate_taxonomy(templates)
    if not report.ok:
        raise ConfigError(f"{taxonomy_path}: " + "; ".join(report.issues))
    try:  # a word list a language lacks stops generate before any call, not mid-batch
        for lang in languages:
            for template in templates:
                render_prompt(template, lang)
    except ConfigError as exc:
        raise ConfigError(f"{languages_path}: {exc}") from exc

    if args.mock:
        backend = MockBackend(load_mock_fixtures(args.mock))
    elif os.environ.get("NO_NETWORK") == "1":
        raise ConfigError("NO_NETWORK=1 is set; pass --mock FIXTURES to run offline")
    else:
        backend = HttpBackend()

    manifest = run_batch(
        templates,
        languages,
        models,
        args.out,
        backend,
        parallelism=args.parallelism,
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
        return train_profiles(corpora), f"builtin:{seeds_dirname}", fingerprints.files_digest(seed_files)
    if kind == "external":
        if not argument:
            raise ConfigError("--lid external needs a predictions file: external:<path>")
        return load_external_predictions(argument), spec, fingerprints.files_digest([Path(argument)])
    raise ConfigError(f"unknown --lid backend '{spec}' (use builtin:<seeds-dir> or external:<file>)")


def _parse_references(pairs: list[str]) -> dict[str, Path]:
    references: dict[str, Path] = {}
    for pair in pairs:
        language, separator, pathname = pair.partition("=")
        if not separator or not language or not pathname:
            raise ConfigError(f"bad --reference '{pair}' (expected LANG=PATH)")
        if language in references:
            raise ConfigError(f"--reference {language} given more than once")
        references[language] = Path(pathname)
    return references


def score_cell(
    cell: fingerprints.Cell,
    old: fingerprints.Cell | None,
    records: Mapping[str, GenerationRecord | tuple[str, bytes]],
    old_lines: Iterator[tuple[str, bytes]],
    old_overlap: OverlapResult | None,
    old_summary: ConditionSummary | None,
    *,
    language: LanguageConfig,
    backend: FidelityBackend,
    reference: Counter[str] | None,
    threshold: int,
    w_conf: float,
) -> tuple[list[bytes], OverlapResult | None, ConditionSummary, int]:
    """Evaluation lines in output-id order, overlap, summary and the number
    of old lines kept, of one cell.

    ``cell`` is the cell's new fingerprint and ``old`` the one the evaluate
    that wrote ``old_lines``, ``old_overlap`` and ``old_summary`` left for
    it, if any.  ``records`` maps each output id of the cell to its record,
    or to the path and bytes of its record file when the file is unchanged
    since that evaluate; such a record keeps its old line, taken from
    ``old_lines`` (that file's (output id, line) pairs, read on from where
    the last cell stopped), when the line names its output id
    (``names_its_output``); one that does not is scored afresh from the
    record.  When the record digests of ``cell`` and ``old``
    are equal the old summary is kept; otherwise the kept lines are decoded
    and the cell aggregated again.  With a ``reference``, the old overlap is
    kept when the reference digests are equal too; otherwise every record is
    parsed and the cell's trigrams counted again.  The LID backend scores each
    distinct sentence of the cell once (one memo per cell).
    """
    same = old is not None and old.records == cell.records
    old_summary = old_summary if same else None
    old_overlap = old_overlap if same and old.reference == cell.reference else None
    count_grams = reference is not None and old_overlap is None
    counts: Counter[str] = Counter()
    lines: list[bytes] = []
    evaluations = []
    reused = 0
    seen: dict = {}
    for output_id in sorted(records):
        record = records[output_id]
        kept = isinstance(record, tuple)
        line = next(line for old_id, line in old_lines if old_id == output_id) if kept else None
        if line is not None and not names_its_output(line, output_id):
            line = None
        if count_grams or line is None:
            if kept:
                record = parse_record(GenerationRecord, record[1], record[0])
            analysis = analyze(record.response_text)
            if count_grams:
                counts.update(analysis.grams)
        if line is None:
            evaluation = evaluate_output(
                record, language, backend, analysis=analysis, threshold=threshold, w_conf=w_conf, seen=seen,
            )
            line = evaluation_line(evaluation)
            evaluations.append(evaluation)
        else:
            reused += 1
            if old_summary is None:
                evaluations.append(parse_record(EvaluationRecord, line, output_id))
        lines.append(line)
    overlap = reference_overlap("/".join(cell[:3]), counts, reference) if count_grams else old_overlap
    return lines, overlap, old_summary or aggregate(cell[:3], evaluations), reused


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not 0.0 <= args.w_conf <= 1.0:
        raise ConfigError(f"--w-conf must be in [0, 1] (both quality weights nonnegative), got {args.w_conf}")
    if args.threshold < 0:
        raise ConfigError(f"--threshold must be nonnegative, got {args.threshold}")
    results_dir = Path(args.results)
    if results_dir.resolve().is_relative_to(Path(args.outputs).resolve()):
        raise ConfigError(
            f"--results {args.results} is inside --outputs {args.outputs}, whose .json files are all "
            "read as records (write the results outside it)"
        )
    reference_paths = _parse_references(args.reference)
    languages_path = _resolve_config_dir(args.config) / "languages.json"
    languages = {language.iso_code: language for language in load_language_configs(languages_path)}
    backend, backend_name, lid_digest = _make_lid_backend(args.lid)
    inputs = {
        "code": fingerprints.code_digest(),
        "config": {"lid": args.lid.partition(":")[0], "threshold": args.threshold, "w_conf": args.w_conf},
        "languages": fingerprints.files_digest([languages_path]),
        "lid_data": lid_digest,
    }
    old_cells, old_summaries, old_overlaps = fingerprints.reusable(results_dir, inputs)

    # Every reference is read before any record: its digest goes into the
    # fingerprint of each cell of its language, its profile into their
    # overlaps.
    references = {}
    for code, reference_path in sorted(reference_paths.items()):
        reference_bytes = reference_path.read_bytes()
        try:
            profile = reference_profile(reference_bytes.decode("utf-8").splitlines())
        except UnicodeDecodeError as exc:
            raise DataError(f"{reference_path}: not UTF-8: {exc}") from exc
        except ValueError as exc:  # an empty corpus
            raise ConfigError(f"{reference_path}: {exc}") from exc
        references[code] = (hashlib.sha256(reference_bytes).hexdigest(), profile)

    # Each cell is scored as its run of the walk ends and its lines go to a
    # spool file, so memory holds the records of one cell.
    fingerprint_cells = []
    summaries = []
    overlaps = []
    reused = 0
    with tempfile.TemporaryFile() as spool:
        with contextlib.closing(fingerprints.lines(results_dir, old_cells.values())) as old_lines:
            for key, digests, records in fingerprints.walk(args.outputs, old_cells.values()):
                if key[1] not in languages:
                    raise ConfigError(f"record {min(records)}: unknown language '{key[1]}'")
                reference_digest, reference = references.get(key[1], (None, None))
                cell = fingerprints.Cell(*key, digests, reference_digest)
                cell_lines, overlap, summary, cell_reused = score_cell(
                    cell,
                    old_cells.get(key),
                    records,
                    old_lines,
                    old_overlaps.get("/".join(key)),
                    old_summaries.get(key),
                    language=languages[key[1]],
                    backend=backend,
                    reference=reference,
                    threshold=args.threshold,
                    w_conf=args.w_conf,
                )
                spool.writelines(cell_lines)
                fingerprint_cells.append(cell)
                summaries.append(summary)
                if overlap is not None:
                    overlaps.append(((key[1], overlap.key), overlap))
                reused += cell_reused
        if not fingerprint_cells:
            raise DataError(f"no records under {args.outputs}")
        # Every check that can fail runs before anything is written, so a
        # failed one leaves the results directory as it was.
        for code in references:
            if not any(cell.language == code for cell in fingerprint_cells):
                raise ConfigError(f"--reference {code}: no records for that language")
        # Summaries and fingerprint cells are written in (model, language,
        # task) order, overlaps by language and then key string.
        summaries.sort(key=lambda s: (s.model_id, s.language, s.task_type))
        overlaps.sort(key=lambda overlap: overlap[0])
        fingerprint_cells.sort(key=lambda cell: cell[:3])

        # The fingerprints and every results file but evaluations.jsonl go
        # first, and the fingerprints come back last: a run cut short leaves
        # no fingerprints, so the next evaluate starts cold and filter
        # refuses the results, and no summary or overlap that report would
        # show as current.
        for name in (fingerprints.FILENAME, "summary.json", "summary.csv", "overlap.json", "run_meta.json"):
            (results_dir / name).unlink(missing_ok=True)
        spool.seek(0)
        with atomic_writer(results_dir / "evaluations.jsonl") as handle:
            shutil.copyfileobj(spool, handle)
    write_summaries(summaries, results_dir / "summary.json")
    write_atomic(results_dir / "summary.csv", render_report("full_summary", "csv", summaries))
    if overlaps:
        overlap_text = json_file_text({"overlaps": [to_json(overlap) for _, overlap in overlaps]})
        write_atomic(results_dir / "overlap.json", overlap_text)

    n_records = sum(len(cell.records) for cell in fingerprint_cells)
    meta = {
        "lid_backend": backend_name,
        "validity_threshold": args.threshold,
        "quality_formula": (
            f"quality = {args.w_conf:g}*lang_conf"
            f" + {1.0 - args.w_conf:g}*(1 - code_switch_rate)"
        ),
        "n_records": n_records,
        "n_conditions": len(summaries),
    }
    write_atomic(results_dir / "run_meta.json", json_file_text(meta))
    fingerprints.write(results_dir, inputs, fingerprint_cells)

    print(f"lid backend: {backend_name}")
    print(meta["quality_formula"])
    print(f"reused {reused} of {n_records} evaluations")
    print(f"evaluated {n_records} records into {len(summaries)} conditions")
    print(format_condition_table(summaries))
    return EXIT_OK


def usable_outputs(
    results_dir: Path, outputs: str, cells: Sequence[fingerprints.Cell], min_quality: float | None
) -> Iterator[tuple[fingerprints.Key, EvaluationRecord, str]]:
    """Each usable output of the results in ``results_dir``, in output-id
    order: its cell key, its evaluation and its record's text.

    Line k of evaluations.jsonl is the evaluation of the k-th listed output
    id, as evaluate reads it (``fingerprints.lines``; ``read`` has counted
    the lines).  The listed ids and the record files under ``outputs`` are
    both in output-id order, so one merge meets each line with its record.
    A record the walk kept as path and bytes is the one its evaluation was
    computed from; one it parsed has changed since, or the fingerprints do
    not list it.  Only a usable output's record is parsed, for its text.
    """
    path = results_dir / fingerprints.RESULTS["evaluations"]
    walk = ((i, key, record) for key, _, records in fingerprints.walk(outputs, cells)
            for i, record in records.items())
    for lineno, (listed_id, line) in enumerate(fingerprints.lines(results_dir, cells), start=1):
        for output_id, key, record in walk:
            if output_id >= listed_id:
                break
        else:
            output_id = None
        if output_id != listed_id:
            raise DataError(f"evaluation {listed_id} has no record under {outputs}")
        if not isinstance(record, tuple):
            raise DataError(
                f"evaluation {output_id} is stale: its record under {outputs} is not "
                "the one it was computed from (run 'evaluate' again)"
            )
        evaluation = parse_record(EvaluationRecord, line, path, lineno)
        if evaluation.output_id != output_id:
            raise DataError(
                f"{path}:{lineno}: holds output_id '{evaluation.output_id}', but {fingerprints.FILENAME} "
                f"lists '{output_id}' for that line (run 'evaluate' again)"
            )
        if evaluation.is_valid and evaluation.fidelity.is_target and not (
            min_quality is not None and evaluation.quality < min_quality
        ):
            yield key, evaluation, parse_record(GenerationRecord, record[1], record[0]).response_text
    for _ in walk:  # a record file past the last evaluation is still checked
        pass


def cmd_filter(args: argparse.Namespace) -> int:
    if args.min_quality is not None and not 0.0 <= args.min_quality <= 1.0:
        raise ConfigError(f"--min-quality must be in [0, 1], got {args.min_quality}")
    results_dir = Path(args.results)
    cells = fingerprints.read(results_dir).cells
    languages = sorted({cell.language for cell in cells})
    # Another run's corpus of a language these results lack would stay
    # beside the new files, which would then read as one run.
    for path in sorted(Path(args.out).glob("*.provenance.jsonl")):
        if path.name.removesuffix(".provenance.jsonl") not in languages:
            raise ConfigError(
                f"{path} is from another run: these results hold no outputs in its language "
                "(filter into a new --out directory)"
            )

    usable = usable_outputs(results_dir, args.outputs, cells, args.min_quality)
    totals = export_usable_corpus(usable, args.out, languages)
    for language, (documents, words) in sorted(totals.items()):
        print(f"{language}: {documents} documents, {words} words")
    print(f"total usable words: {sum(words for _, words in totals.values())}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    if args.kind == "overlap":
        overlap_path = results_dir / "overlap.json"
        if not overlap_path.exists():
            raise DataError(f"no overlap results at {overlap_path} (run 'evaluate' with --reference)")
        overlaps = load_list(OverlapResult, overlap_path, "overlaps")
        content = render_report(args.kind, args.format, overlaps=overlaps)
    else:
        summary_path = results_dir / "summary.json"
        if not summary_path.exists():
            raise DataError(f"no summary at {summary_path} (run 'evaluate' first)")
        content = render_report(args.kind, args.format, read_summaries(summary_path))
    if args.out:
        write_atomic(Path(args.out), content)
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
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
