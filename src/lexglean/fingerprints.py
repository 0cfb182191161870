"""The fingerprints file that ties a results directory to its inputs, and
the walk of a run directory that is checked against it.

``lexglean evaluate`` writes ``fingerprints.json`` into the results
directory after every other results file, and deletes it before rewriting
the first one, so a directory with a fingerprints file holds one complete
evaluate.  The file holds:

* ``inputs``: ``config`` (the LID backend kind, ``--threshold`` and
  ``--w-conf``) and digests of the LID data (the seed files or the external
  predictions file), of ``languages.json`` and of the package's own
  ``*.py`` sources;
* ``cells``: one entry per model/language/task cell, in (model, language,
  task) order, with its ``model_id``, ``language`` and ``task_type`` as
  fields of their own, ``records`` (output id -> digest of its record
  file's bytes) and ``reference`` (digest of its language's
  ``--reference`` file's bytes, ``null`` without one);
* one field per file of ``RESULTS`` (``evaluations``, ``overlap`` and
  ``summary``): the digest of the ``evaluations.jsonl``, ``overlap.json``
  and ``summary.json`` written with it (``null`` when there is no such
  file).

``read`` is the one check of a results directory: it raises DataError
unless the directory has a fingerprints file and every file of ``RESULTS``
is the one it names.  ``evaluations.jsonl`` holds one line per listed
output id, in sorted output-id order, so a later evaluate can tell each
line's output id and cell without parsing it.  The file names no paths and
no times, so the same inputs give the same bytes.

``evaluate`` and ``filter`` read a run directory through this module.
``walk`` reads every record file once, in output-id order, so each
model/language/task cell is one run of it; it is the one place a record
file is compared with its fingerprint.  ``reusable`` is what an earlier
evaluate into the same results directory left that still holds, and
``lines`` pairs the lines of its ``evaluations.jsonl`` with their output
ids.  ``evaluate`` scores one cell at a time as its run of the walk ends
(``lexglean.cli.score_cell``), given the cell's fingerprint and the one the
earlier evaluate left for it: only new and changed records are parsed, and
every evaluation, cell summary and overlap whose inputs are unchanged is
reused.  A cell's lines are spooled to a temporary file, the kept ones read
from the old ``evaluations.jsonl`` alongside, which is in the same order.
So it holds one cell's records at a time, besides one fingerprint entry per
record and one summary and overlap per cell.  Once every record is read and
every check has passed, it removes the fingerprints and every results file
but ``evaluations.jsonl`` before its first write, so a run cut short leaves
no old tables to report.  ``filter`` merges ``evaluations.jsonl`` with the
walk, both in output-id order, and parses a record only when its output is
usable.  It refuses results that ``read`` refuses, an evaluation whose
record changed after it was computed and an ``evaluations.jsonl`` that
lacks the line of an output the fingerprints list.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .codec import DataError, load_list, write_json
from .evaluation import OverlapResult, read_summaries
from .generation import GenerationRecord, load_record, record_files

FILENAME = "fingerprints.json"
# The results files a fingerprints file vouches for, by its field.
RESULTS = {"evaluations": "evaluations.jsonl", "overlap": "overlap.json", "summary": "summary.json"}

Key = tuple[str, str, str]  # (model_id, language, task_type): one cell


def file_digest(path: Path) -> str | None:
    """Digest of a file's bytes, read in blocks; None when there is no such file."""
    digest = hashlib.sha256()
    try:
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 16), b""):
                digest.update(block)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def files_digest(paths: Iterable[Path]) -> str:
    """One digest over the names and bytes of ``paths``, in the order given."""
    digest = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def code_digest() -> str:
    """Digest of the package's ``*.py`` sources, so a code change invalidates old results."""
    return files_digest(sorted(Path(__file__).parent.glob("*.py")))


class Cell(NamedTuple):
    """One model/language/task cell of a fingerprints file."""

    model_id: str
    language: str
    task_type: str
    records: dict[str, str]
    reference: str | None


class Fingerprints(NamedTuple):
    """The content of a fingerprints file; every digest is a sha256 in hex."""

    inputs: dict
    cells: list[Cell]
    evaluations: str | None
    overlap: str | None
    summary: str | None


def write(results_dir: Path, inputs: dict, cells: list[Cell]) -> None:
    """Write the fingerprints file of a results directory (its keys sorted),
    with the digests of the ``RESULTS`` files written before it."""
    digests = {field: file_digest(results_dir / name) for field, name in RESULTS.items()}
    data = {"inputs": inputs, "cells": [cell._asdict() for cell in cells], **digests}
    write_json(results_dir / FILENAME, data)


def read(results_dir: Path) -> Fingerprints:
    """The fingerprints of a results directory, checked against its ``RESULTS`` files.

    A missing file, one that is not JSON, or not an object with the fields
    of ``Fingerprints`` whose cells are objects with the fields of ``Cell``
    whose ``records`` is an object, raises DataError naming it; so does a
    ``RESULTS`` file whose digest is not the one it names.
    """
    path = results_dir / FILENAME
    try:
        data = json.loads(path.read_bytes())
    except FileNotFoundError as exc:
        raise DataError(f"no {FILENAME} in {results_dir} (run 'evaluate' again)") from exc
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc} (run 'evaluate' again)") from exc
    try:
        fingerprints = Fingerprints(**data)
        cells = [Cell(**cell) for cell in fingerprints.cells]
    except TypeError as exc:  # not an object, or a missing or unknown field
        raise DataError(f"{path}: not a fingerprints file: {exc} (run 'evaluate' again)") from exc
    if any(not isinstance(cell.records, dict) for cell in cells):
        raise DataError(f"{path}: not a fingerprints file (run 'evaluate' again)")
    for field, name in RESULTS.items():
        if getattr(fingerprints, field) != file_digest(results_dir / name):
            raise DataError(
                f"{results_dir / name} is not the file {FILENAME} describes (run 'evaluate' again)"
            )
    return fingerprints._replace(cells=cells)


def reusable(results_dir: Path, inputs: dict):
    """What an earlier evaluate into ``results_dir`` left that still holds.

    Returns its fingerprint cells and summaries by cell key and its overlaps
    by cell key string.  All are empty unless ``read`` accepts the
    directory, its fingerprints were written with the same ``inputs`` (the
    package sources among them, so an old line is what the encoder would
    write now) and ``evaluations.jsonl`` has one line per output id they
    list; anything unreadable counts as nothing to reuse.
    """
    summary_path, overlap_path = results_dir / "summary.json", results_dir / "overlap.json"
    try:
        old = read(results_dir)
        if old.inputs == inputs:
            with (results_dir / "evaluations.jsonl").open("rb") as handle:
                count = sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 16), b""))
            if count == sum(len(cell.records) for cell in old.cells):
                return (
                    {cell[:3]: cell for cell in old.cells},
                    {(s.model_id, s.language, s.task_type): s for s in read_summaries(summary_path)},
                    {} if old.overlap is None else {
                        overlap.key: overlap for overlap in load_list(OverlapResult, overlap_path, "overlaps")
                    },
                )
    except (OSError, ValueError, TypeError):
        pass
    return {}, {}, {}


def lines(results_dir: Path, cells: Iterable[Cell]) -> Iterator[tuple[str, bytes]]:
    """The (output id, line) pairs of the ``evaluations.jsonl`` of
    ``results_dir``, which holds one line per output id of ``cells``, in
    sorted order, read one line at a time; the file is opened when the first
    pair is taken."""
    with (results_dir / "evaluations.jsonl").open("rb") as handle:
        yield from zip(sorted(output_id for cell in cells for output_id in cell.records), handle)


def walk(
    out_dir: str, cells: Iterable[Cell]
) -> Iterator[tuple[Key, dict[str, str], dict[str, GenerationRecord | tuple[str, bytes]]]]:
    """The cells of a run directory in output-id order: key, record digests
    by output id and records by output id.

    Every record file is read once and hashed.  A file whose path names an
    output id of ``cells`` (the cells of a fingerprints file) and whose
    digest is the one its cell lists holds that record, in that cell, and
    stays the path and bytes of the file: it is the record the evaluation
    those fingerprints vouch for was computed from, and is parsed only when
    its text is needed.  Every other file is parsed with ``load_record``.
    This is the one place a record file is compared with its fingerprint.
    ``record_files`` walks in output-id order, so each cell is one run of
    it; a record that breaks that order (an id not above the last one, or a
    cell that came before another one) raises DataError naming its file.
    """
    known = {output_id: cell for cell in cells for output_id in cell.records}
    key: Key | None = None
    digests: dict[str, str] = {}
    records: dict[str, GenerationRecord | tuple[str, bytes]] = {}
    seen: set[Key] = set()
    last: str | None = None
    for path, output_id, data in record_files(out_dir):
        digest = hashlib.sha256(data).hexdigest()
        old = known.get(output_id)
        if old is not None and old.records[output_id] == digest:
            record_key, record = old[:3], (path, data)
        else:
            record = load_record(out_dir, path, output_id, data)
            output_id, record_key = record.output_id, (record.model_id, record.language, record.task_type)
        if (last is not None and output_id <= last) or (record_key != key and record_key in seen):
            raise DataError(
                f"{path}: holds output_id '{output_id}', out of output-id order after '{last}' "
                "(corrupted run directory)"
            )
        if record_key != key:
            if records:
                yield key, digests, records
            key, digests, records = record_key, {}, {}
            seen.add(key)
        digests[output_id], records[output_id], last = digest, record, output_id
    if records:
        yield key, digests, records
