"""JSON codec for the dataclasses the pipeline reads and persists.

Record files, ``evaluations.jsonl``, ``summary.json`` and ``overlap.json``
hold dataclasses as JSON objects with one key per field: the field's name,
or the key a field declares with ``field(metadata={JSON_KEY: ...})``.  The
inputs are read the same way: the entries of ``taxonomy.json``,
``languages.json`` and ``models.json``, the mock fixtures and the rows of an
external LID predictions file.  ``decoder(cls)`` reads every one of these
inputs and records (``parse_record`` and ``load_list`` go through it too),
and ``to_json`` writes a record.  Field types may be ``str``, ``int``,
``float``, ``bool``, a dataclass, ``tuple[X, ...]`` (a JSON list),
``dict[str, X]`` or ``Mapping[str, X]`` (a JSON object) or ``X | None``
(an absent key reads as None).  A field with a default (or a
``default_factory``) takes it when its key is absent; any other absent key
is an error.  Reading converts a number or a numeric string with
``int``/``float`` and takes nothing else on trust: a number field refuses
``true``, ``false``, ``null``, a list and an object, an ``int`` field a
fraction, a ``float`` field NaN and the infinities (``"nan"`` and
``1e400`` among them), a ``str`` field holds only a string, a ``bool``
only ``true`` or ``false``, a tuple only a list, and a dataclass or
mapping only an object.  The error names the key (a number field's too,
as in ``'temperature' must be a finite number, not 'warm'``), but for a
dataclass, which names only the type it got.  Every JSON document the
package reads is parsed by ``loads`` from the file's bytes, so one nested
too deeply for the parser, holding a lone surrogate or an integer past
Python's digit limit, or not in a Unicode encoding, is invalid JSON like
any other (a UTF-8 BOM is read past).  Every reader refuses an entry by one
rule, ``decode`` (``parse_record`` and ``load_list`` share its formatter):
the error names where the entry is read from, then says
``missing field '<key>'``, ``invalid JSON: <parser message>`` or the
decoder's or the dataclass validator's own message.
Every file is written through ``atomic_writer``, so a reader never sees a
partial one.
"""
from __future__ import annotations

import collections.abc
import contextlib
import functools
import itertools
import json
import os
import re
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from math import isfinite
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, NoReturn

JSON_KEY = "json_key"

_Codec = tuple[Callable[[Any], Any], Callable[[Any], Any]]

# What a decoder or loads raise on data that is not a record.
_BAD_DATA = (KeyError, TypeError, ValueError)


class DataError(ValueError):
    """Persisted run data that cannot be read: bad JSON, a missing field or a wrong type."""


def loads(data: str | bytes) -> Any:
    """``json.loads``, but a document nested too deeply for the parser, one
    holding a lone surrogate (``"\\ud800"`` is legal JSON, but no UTF-8 file
    can hold it), bytes in no Unicode encoding and an integer of more digits
    than ``int`` converts (4,300 by default) raise JSONDecodeError, as other
    invalid JSON does.

    Only a document holding a ``\\ud`` or ``\\uD`` escape, or bytes holding
    0xED (the lead byte of an encoded surrogate, which ``json.loads`` lets
    through) or a NUL (UTF-16 and UTF-32 text holds one in each ASCII
    character; UTF-8 JSON holds none), pays for the exact check: encoding
    the parsed value as UTF-8.
    """
    try:
        check = _may_hold_surrogate(data)
        if type(data) is not str:  # decoded as json.loads would, so bytes no caller holds are freed before the parse
            data = data.decode(json.detect_encoding(data), "surrogatepass")
        value = json.loads(data)
        if check:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None
    except UnicodeEncodeError as exc:
        char = exc.object[exc.start]
        where = re.search(f"{char}|\\\\u{ord(char):x}", data, re.IGNORECASE)  # raw or escaped
        message = f"lone surrogate {char!r}, which UTF-8 cannot encode"
        raise json.JSONDecodeError(message, data, where.start()) from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # bytes in no Unicode encoding, or an int past the digit limit
        raise json.JSONDecodeError(str(exc), "", 0) from None
    return value


def _may_hold_surrogate(data: str | bytes) -> bool:
    if type(data) is str:
        return "\\" in data and ("\\ud" in data or "\\uD" in data)
    # An int looked up in bytes is one memchr, several times faster than a
    # one-byte bytes needle; 0x5C is the backslash.
    return 0xED in data or 0 in data or (0x5C in data and (b"\\ud" in data or b"\\uD" in data))


def json_file_text(data: Any) -> str:
    """The text of a JSON file: sorted keys, two-space indents, non-ASCII kept, final newline."""
    return json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def atomic_writer(path: Path) -> Iterator[BinaryIO]:
    """A binary handle on ``<path>.tmp``, renamed over ``path`` when the block ends without error.

    The parent directory is created only when the temp file cannot be
    opened for want of it.  When the block (or the rename) raises, the temp
    file is removed and ``path`` is left as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        handle = tmp.open("wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tmp.open("wb")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through ``atomic_writer``."""
    with atomic_writer(path) as handle:
        handle.write(text.encode("utf-8"))


def write_json(path: Path, data: Any) -> None:
    """Write ``json_file_text(data)`` to ``path`` through ``atomic_writer``,
    encoded a block of chunks at a time, so the whole text is never held."""
    chunks = json.JSONEncoder(ensure_ascii=False, indent=2, sort_keys=True).iterencode(data)
    with atomic_writer(path) as handle:
        while block := "".join(itertools.islice(chunks, 4096)):
            handle.write(block.encode("utf-8"))
        handle.write(b"\n")


def to_json(obj: Any) -> dict:
    """The JSON object of a dataclass instance."""
    return _codec(type(obj))[0](obj)


def decoder(cls: type) -> Callable[[Any], Any]:
    """The function that rebuilds a ``cls`` instance from its JSON object.

    It raises KeyError on a missing field and TypeError or ValueError on a
    value of the wrong type.
    """
    return _codec(cls)[1]


def decode(cls: type, value: Any, where: object, error: type[ValueError] = DataError) -> Any:
    """``decoder(cls)(value)``, but a missing field, a wrong value or a
    failed validation raises ``error`` with a message that starts with ``where``."""
    try:
        return decoder(cls)(value)
    except _BAD_DATA as exc:
        raise _refusal(exc, where, error) from exc


def parse_record(cls: type, raw: bytes, path: object, line: int | None = None) -> Any:
    """Parse the bytes of one JSON document, read from ``path`` (at ``line``), into a ``cls``.

    Every failure raises DataError with a message that starts with the path
    and line.
    """
    try:
        return decoder(cls)(loads(raw))
    except _BAD_DATA as exc:
        raise _refusal(exc, path if line is None else f"{path}:{line}") from exc


def load_list(cls: type, path: Path, key: str) -> list:
    """The ``cls`` instances listed under ``key`` in the JSON file at ``path``; DataError names a bad file."""
    try:
        return list(map(decoder(cls), loads(path.read_bytes())[key]))
    except _BAD_DATA as exc:
        raise _refusal(exc, path) from exc


def _refusal(exc: Exception, where: object, error: type[ValueError] = DataError) -> ValueError:
    """The ``error`` that refuses what raised ``exc`` (a KeyError, TypeError or ValueError) at ``where``."""
    if isinstance(exc, KeyError):
        return error(f"{where}: missing field {exc}")
    if isinstance(exc, json.JSONDecodeError):
        return error(f"{where}: invalid JSON: {exc}")
    return error(f"{where}: {exc}")


# What a str, bool, list or dict value must be, as an error says it.
_EXPECTED = {str: "a string", bool: "true or false", list: "a list", dict: "an object"}


def _refuse(name: str, kind: type, value: Any) -> NoReturn:
    raise TypeError(f"{name} must be {_EXPECTED[kind]}, not {type(value).__name__}")


def _number(kind: type, name: str) -> Callable[[Any], Any]:
    """Decoder of an ``int`` or ``float`` field: a number or a numeric string,
    but not true or false, for an ``int`` not a fraction and for a ``float``
    not NaN or an infinity."""
    number_kind = "a finite number" if kind is float else "a whole number"

    def convert(value: Any) -> Any:
        if type(value) is bool:
            raise TypeError(f"{name} must be a number, not bool")
        try:  # float("warm"), float(None), int(inf) and int("nan") raise as well
            number = kind(value)
            if (kind is float and not isfinite(number)) or (type(value) is float and number != value):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{name} must be {number_kind}, not {value!r}") from None
        return number

    if kind is int:
        return lambda value: value if type(value) is int else convert(value)
    return lambda value: value if type(value) is float and isfinite(value) else convert(value)


def _is_optional(hint: Any) -> bool:
    return typing.get_origin(hint) in (typing.Union, types.UnionType)


def _converters(hint: Any, name: str) -> tuple[Callable[[Any], Any] | None, Callable[[Any], Any]]:
    """Encoder (None when the value is JSON as it is) and decoder for one
    field type; the decoder's errors call the value ``name``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if _is_optional(hint):
        if len(args) != 2 or type(None) not in args:
            raise TypeError(f"unsupported union type {hint}; use X | None")
        encode, decode = _converters(args[0] if args[1] is type(None) else args[1], name)
        encode_some = None if encode is None else lambda value: None if value is None else encode(value)
        return encode_some, lambda value: None if value is None else decode(value)
    if origin is tuple:
        if len(args) != 2 or args[1] is not Ellipsis:
            raise TypeError(f"unsupported tuple type {hint}; use tuple[X, ...]")
        encode, decode = _converters(args[0], f"an item of {name}")
        encode_all = list if encode is None else lambda value: [encode(item) for item in value]
        return encode_all, lambda value: (
            tuple(map(decode, value)) if type(value) is list else _refuse(name, list, value)
        )
    if origin in (dict, collections.abc.Mapping):
        if args[0] is not str:
            raise TypeError(f"unsupported mapping type {hint}; use dict[str, X]")
        encode, decode = _converters(args[1], f"a value of {name}")
        encode_map = dict if encode is None else lambda value: {k: encode(item) for k, item in value.items()}
        return encode_map, lambda value: (
            {key: decode(item) for key, item in value.items()} if type(value) is dict
            else _refuse(name, dict, value)
        )
    if is_dataclass(hint):
        return _codec(hint)
    if hint is int or hint is float:
        return None, _number(hint, name)
    if hint is str or hint is bool:
        return None, lambda value: value if type(value) is hint else _refuse(name, hint, value)
    raise TypeError(f"unsupported field type {hint}")


@functools.cache
def _codec(cls: type) -> _Codec:
    """Encoder and decoder of a dataclass, generated on first use from its type hints.

    The source spells out each field, as ``dataclasses`` does for ``__init__``:
    closures looping over a per-field plan ran 1.4x (decode) to 2x (encode)
    slower on CPython 3.11, enough to show in the ``filter`` stage.  Fields are
    passed positionally, so each must be a positional ``__init__`` parameter.
    """
    if not is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    if any(not f.init or f.kw_only for f in fields(cls)):
        raise TypeError(f"{cls.__name__}: every field must be a positional __init__ parameter")
    hints = typing.get_type_hints(cls)
    namespace: dict[str, Any] = {"cls": cls}
    items, args = [], []
    for index, f in enumerate(fields(cls)):
        key, hint = repr(f.metadata.get(JSON_KEY, f.name)), hints[f.name]
        encode, namespace[f"decode{index}"] = _converters(hint, key)
        namespace[f"encode{index}"] = encode
        items.append(f"{key}: obj.{f.name}" if encode is None else f"{key}: encode{index}(obj.{f.name})")
        value = f"decode{index}(data.get({key}))" if _is_optional(hint) else f"decode{index}(data[{key}])"
        if f.default is not MISSING:
            namespace[f"default{index}"] = f.default
            value = f"{value} if {key} in data else default{index}"
        elif f.default_factory is not MISSING:
            namespace[f"default{index}"] = f.default_factory
            value = f"{value} if {key} in data else default{index}()"
        args.append(value)
    source = (
        f"def encode(obj):\n    return {{{', '.join(items)}}}\n"
        "def decode(data):\n"
        "    if type(data) is not dict:\n"
        "        raise TypeError(f'expected an object, not {type(data).__name__}')\n"
        f"    return cls({', '.join(args)})\n"
    )
    exec(compile(source, f"<codec of {cls.__qualname__}>", "exec"), namespace)
    return namespace["encode"], namespace["decode"]
