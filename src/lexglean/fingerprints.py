"""The fingerprints file that ties a results directory to its inputs.

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
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, NamedTuple

from .codec import DataError, write_json

FILENAME = "fingerprints.json"
# The results files a fingerprints file vouches for, by its field.
RESULTS = {"evaluations": "evaluations.jsonl", "overlap": "overlap.json", "summary": "summary.json"}


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
