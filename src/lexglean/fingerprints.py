"""The fingerprints file that ties a results directory to its inputs.

``lexglean evaluate`` writes ``fingerprints.json`` into the results
directory after every other results file, and deletes it before rewriting
the first one, so a directory with a fingerprints file holds one complete
evaluate.  The file holds:

* ``inputs``: ``config`` (the LID backend kind, ``--threshold`` and
  ``--w-conf``) and digests of the LID data (the seed files or the external
  predictions file), of ``languages.json`` and of the package's own
  ``*.py`` sources;
* ``records``: output id -> digest of its record file's bytes;
* ``cells``: for each ``model/language/task`` cell with a reference, a
  digest of its key, its reference's bytes and its sorted
  (output id, record digest) pairs;
* ``evaluations`` and ``overlap``: digests of the ``evaluations.jsonl`` and
  ``overlap.json`` written with it (``null`` when there is no overlap file).

The file names no paths and no times, so the same inputs give the same
bytes.
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


def cell_digest(key: str, reference_digest: str, pairs: Iterable[tuple[str, str]]) -> str:
    """Digest of one overlap cell: its key, its reference and its (output id, record digest) pairs."""
    digest = hashlib.sha256(f"{key}\0{reference_digest}\n".encode())
    for output_id, record_digest in pairs:
        digest.update(f"{output_id}\0{record_digest}\n".encode())
    return digest.hexdigest()


class Fingerprints(NamedTuple):
    """The content of a fingerprints file; every digest is a sha256 in hex."""

    inputs: dict
    records: dict[str, str]
    cells: dict[str, str]
    evaluations: str | None
    overlap: str | None


def write(results_dir: Path, fingerprints: Fingerprints) -> None:
    """Write the fingerprints file of a results directory (its keys sorted)."""
    write_atomic(results_dir / FILENAME, json_file_text(fingerprints._asdict()))


def read(results_dir: Path) -> Fingerprints | None:
    """The fingerprints of a results directory; None when it has none.

    A file that is not JSON, or not an object with the fields of
    ``Fingerprints`` whose ``inputs``, ``records`` and ``cells`` are
    objects, raises DataError naming it.
    """
    path = results_dir / FILENAME
    try:
        data = json.loads(path.read_bytes())
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        fingerprints = Fingerprints(**data)
    except TypeError as exc:  # not an object, or a missing or unknown field
        raise DataError(f"{path}: not a fingerprints file: {exc}") from exc
    if not all(isinstance(value, dict) for value in fingerprints[:3]):
        raise DataError(f"{path}: not a fingerprints file")
    return fingerprints
