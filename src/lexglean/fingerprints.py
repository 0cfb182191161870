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
unless the directory has a fingerprints file, every file of ``RESULTS`` is
the one it names and ``evaluations.jsonl`` holds one line per output id the
cells list (counted in the pass that digests it).  It refuses a ``cells``
that is not a list, and a cell that does not own its records: one whose
``model_id``, ``language`` or ``task_type`` is not a string, whose
``records`` are not string digests keyed by output ids that start with
``<model_id>/<language>/<task_type>/``, or whose ``reference`` is neither a
string nor null.  So ``walk`` files an unchanged record only under the cell
its output id names.  ``evaluations.jsonl`` holds its lines in sorted
output-id order, and one rule, ``lines``, pairs them with output ids for
both commands: line k is the evaluation of the k-th listed output id.  So
a later evaluate can tell each line's output id and cell without parsing
it.  The file names no paths and no times, so the same inputs give the
same bytes.

``evaluate`` and ``filter`` read a run directory through this module.
``walk`` reads every record file once, in output-id order, so each
model/language/task cell is one run of it; it is the one place a record
file is compared with its fingerprint.  ``reusable`` is what an earlier
evaluate into the same results directory left that still holds.
``evaluate`` scores one cell at a time as its run of the walk ends
(``lexglean.cli.score_cell``), given the cell's fingerprint and the one the
earlier evaluate left for it: only new and changed records are parsed, and
every evaluation, cell summary and overlap whose inputs are unchanged is
reused.  A cell's lines are spooled to a temporary file, the kept ones
copied unparsed from the old ``evaluations.jsonl`` alongside, which is in
the same order; a kept line that does not name its output id is scored
afresh instead.  So it holds one cell's records at a time, besides one
fingerprint entry per record and one summary and overlap per cell.  Once
every record is read and every check has passed, it removes the
fingerprints and every results file but ``evaluations.jsonl`` before its
first write, so a run cut short leaves no old tables to report.
``filter`` merges the pairs of ``lines`` with the walk, both in output-id
order, parses each line and parses a record only when its output is
usable; each usable output goes to the corpus files, opened before the
merge starts, as the merge reaches it.  It refuses results that ``read``
refuses, a listed output with no record file, an evaluation whose record
changed after it was computed and a line whose ``output_id`` is not the
one it is paired with, naming ``evaluations.jsonl:<line>``.
``evaluations.jsonl`` is read only here, once by ``read`` and once by
``lines``.
"""
from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .codec import DataError, load_list, loads, write_json
from .evaluation import OverlapResult, read_summaries
from .generation import GenerationRecord, load_record, record_files

FILENAME = "fingerprints.json"
# The results files a fingerprints file vouches for, by its field.
RESULTS = {"evaluations": "evaluations.jsonl", "overlap": "overlap.json", "summary": "summary.json"}

Key = tuple[str, str, str]  # (model_id, language, task_type): one cell


def file_digest(path: Path) -> str | None:
    """Digest of a file's bytes, read in blocks; None when there is no such file."""
    return _digest_and_lines(path)[0]


def _digest_and_lines(path: Path) -> tuple[str | None, int]:
    """Digest of a file's bytes and the number of lines iterating over it
    yields (a last line need not end in a newline), in one pass of blocks;
    (None, 0) when there is no such file."""
    digest, lines, block = hashlib.sha256(), 0, b"\n"
    try:
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 16), b""):
                digest.update(block)
                lines += block.count(b"\n")
    except FileNotFoundError:
        return None, 0
    return digest.hexdigest(), lines + (not block.endswith(b"\n"))


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
    of ``Fingerprints`` whose ``cells`` is a list of objects with the fields
    of ``Cell`` that own their records (see the module docstring), raises
    DataError naming it; so does a ``RESULTS`` file whose digest is not the
    one it names, and an ``evaluations.jsonl`` whose line count is not the
    number of output ids the cells list.
    """
    path = results_dir / FILENAME
    try:
        data = loads(path.read_bytes())
    except FileNotFoundError as exc:
        raise DataError(f"no {FILENAME} in {results_dir} (run 'evaluate' again)") from exc
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc} (run 'evaluate' again)") from exc
    try:
        fingerprints = Fingerprints(**data)
        cells = [Cell(**cell) for cell in fingerprints.cells]
    except TypeError as exc:  # not an object, or a missing or unknown field
        raise DataError(f"{path}: not a fingerprints file: {exc} (run 'evaluate' again)") from exc
    if type(fingerprints.cells) is not list or not all(map(_owns_its_records, cells)):
        raise DataError(f"{path}: not a fingerprints file (run 'evaluate' again)")
    counts = {}
    for field, name in RESULTS.items():
        digest, counts[field] = _digest_and_lines(results_dir / name)
        if getattr(fingerprints, field) != digest:
            raise DataError(
                f"{results_dir / name} is not the file {FILENAME} describes (run 'evaluate' again)"
            )
    listed = sum(len(cell.records) for cell in cells)
    if counts["evaluations"] != listed:
        raise DataError(
            f"{results_dir / RESULTS['evaluations']} holds {counts['evaluations']} evaluations, but {FILENAME} "
            f"lists {listed} outputs (run 'evaluate' again)"
        )
    return fingerprints._replace(cells=cells)


def _owns_its_records(cell: Cell) -> bool:
    """Whether ``cell`` has string key fields, a string or null reference,
    and string record digests keyed by output ids under its key."""
    if any(type(field) is not str for field in cell[:3]) or type(cell.records) is not dict:
        return False
    prefix = "/".join(cell[:3]) + "/"
    return type(cell.reference) in (str, type(None)) and all(
        type(digest) is str and output_id.startswith(prefix) for output_id, digest in cell.records.items()
    )


def reusable(results_dir: Path, inputs: dict):
    """What an earlier evaluate into ``results_dir`` left that still holds.

    Returns its fingerprint cells and summaries by cell key and its overlaps
    by cell key string.  All are empty unless ``read`` accepts the
    directory and its fingerprints were written with the same ``inputs``
    (the package sources among them, so an old line is what the encoder
    would write now); anything unreadable counts as nothing to reuse.
    """
    summary_path, overlap_path = results_dir / "summary.json", results_dir / "overlap.json"
    try:
        old = read(results_dir)
        if old.inputs == inputs:
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
    ``results_dir``: line k goes with the k-th output id of ``cells`` in
    sorted order, unparsed (``read`` has checked there is one line per id).
    The file is read one line at a time and opened when the first pair is
    taken."""
    with (results_dir / RESULTS["evaluations"]).open("rb") as handle:
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
