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
  file's bytes) and ``digest``, a digest of those fields and its sorted
  (output id, record digest) pairs;
* ``references``: language -> digest of its ``--reference`` file's bytes;
* ``evaluations``, ``overlap`` and ``summary``: digests of the
  ``evaluations.jsonl``, ``overlap.json`` and ``summary.json`` written with
  it (``null`` when there is no such file).

``evaluations.jsonl`` holds one line per listed output id, in sorted
output-id order, so a later evaluate can tell each line's output id and
cell without parsing it.  The file names no paths and no times, so the same
inputs give the same bytes.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, NamedTuple

from .codec import DataError, json_file_text, write_atomic

FILENAME = "fingerprints.json"


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


def cell_digest(key: tuple[str, str, str], pairs: Iterable[tuple[str, str]]) -> str:
    """Digest of one cell: its (model, language, task) key and its (output id, record digest) pairs."""
    digest = hashlib.sha256("\0".join(key).encode() + b"\n")
    for output_id, record_digest in pairs:
        digest.update(f"{output_id}\0{record_digest}\n".encode())
    return digest.hexdigest()


class Cell(NamedTuple):
    """One model/language/task cell of a fingerprints file."""

    model_id: str
    language: str
    task_type: str
    records: dict[str, str]
    digest: str


class Fingerprints(NamedTuple):
    """The content of a fingerprints file; every digest is a sha256 in hex."""

    inputs: dict
    cells: list[Cell]
    references: dict[str, str]
    evaluations: str | None
    overlap: str | None
    summary: str | None

    def records(self) -> dict[str, str]:
        """Output id -> record digest over every cell."""
        return {output_id: digest for cell in self.cells for output_id, digest in cell.records.items()}


def write(results_dir: Path, fingerprints: Fingerprints) -> None:
    """Write the fingerprints file of a results directory (its keys sorted)."""
    cells = [cell._asdict() for cell in fingerprints.cells]
    write_atomic(results_dir / FILENAME, json_file_text({**fingerprints._asdict(), "cells": cells}))


def read(results_dir: Path) -> Fingerprints | None:
    """The fingerprints of a results directory; None when it has none.

    A file that is not JSON, or not an object with the fields of
    ``Fingerprints`` whose ``references`` is an object and whose cells are
    objects with the fields of ``Cell`` whose ``records`` is an object,
    raises DataError naming it.
    """
    path = results_dir / FILENAME
    try:
        data = json.loads(path.read_bytes())
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc} (run 'evaluate' again)") from exc
    try:
        fingerprints = Fingerprints(**data)
        cells = [Cell(**cell) for cell in fingerprints.cells]
    except TypeError as exc:  # not an object, or a missing or unknown field
        raise DataError(f"{path}: not a fingerprints file: {exc} (run 'evaluate' again)") from exc
    if not isinstance(fingerprints.references, dict) or any(not isinstance(c.records, dict) for c in cells):
        raise DataError(f"{path}: not a fingerprints file (run 'evaluate' again)")
    return fingerprints._replace(cells=cells)
