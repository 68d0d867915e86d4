"""Line-delimited JSON persistence with provenance headers, and the record codec.

Every artifact file starts with a single header record carrying the schema
name and a content hash of the run configuration, so downstream stages can
verify provenance and outputs stay byte-reproducible.

Artifacts are written to a temporary file beside the target, which then
replaces it: a failed write leaves the previous file, or none, in place.

Records are dataclasses. A record is written as its fields (str-Enums as
their value, nested records as objects) and read back by `load_row`, which
checks each field against its type hint. The config files (model specs and
the corpus config) are read by `load_row` too.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import types
import typing
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

from .errors import SchemaError, StageDependencyError

R = TypeVar("R")


def as_row(obj: Any) -> dict:
    """A dataclass record's fields as a dict; nested records stay objects.

    This is the `default` hook of `canonical_dumps`, which encodes the nested
    records and the str-Enum values in turn.
    """
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    # A record's instance dict holds exactly its fields: records use no slots
    # and no cached properties (tests/test_jsonlio.py checks each written type).
    return vars(obj)


def _as_str(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# JSON decodes to exact types, so `type(value) is int` also turns away a bool.
def _as_bool(value: Any) -> bool:
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _as_int(value: Any) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _as_float(value: Any) -> float:
    if type(value) is float:
        return value
    if type(value) is not int:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _as_object(value: Any) -> dict:
    if type(value) is not dict:
        raise TypeError(f"expected an object, got {value!r}")
    return value


def _as_list(item: Callable[[Any], Any], value: Any) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return [item(v) for v in value]


_CHECKED = {
    str: _as_str, bool: _as_bool, int: _as_int, float: _as_float, dict: _as_object,
    object: lambda value: value,
}


def _converter(hint: Any) -> Callable[[Any], Any]:
    """The function that turns a decoded JSON value into a `hint` value."""
    if hint in _CHECKED:
        return _CHECKED[hint]
    if dataclasses.is_dataclass(hint):
        return functools.partial(load_row, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # only X | None
        (inner,) = (_converter(a) for a in args if a is not type(None))
        return lambda value: None if value is None else inner(value)
    if origin is dict:
        key, item = map(_converter, args)
        return lambda value: {key(k): item(v) for k, v in _as_object(value).items()}
    if origin is list:
        return functools.partial(_as_list, _converter(args[0]))
    return hint  # str-Enums convert by calling the type


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Callable[[Any], Any], bool], ...]:
    """(field name, converter, required) for each field of a record type."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.metadata.get("load") or _converter(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def load_row(cls: type[R], row: dict) -> R:
    """Rebuild a record from a decoded JSON object, checking each field against its hint.

    Supported hints are float, int, bool, str, str-Enums, nested records,
    `dict[K, V]`, `list[X]`, `X | None` and `object` (any JSON value).
    Nothing is coerced: a bool field takes only true or false, an int field
    only an integer, a float field an integer or a float (read as a float),
    a dict field and the row itself only a JSON object, and a list field
    only a JSON list. A field may name its own converter instead, as
    `field(metadata={"load": fn})`. Keys the record does not define are
    ignored; a field with a default may be absent. A malformed row raises
    SchemaError.
    """
    if type(row) is not dict:
        raise SchemaError(f"{cls.__name__} row: expected an object, got {row!r}")
    try:
        kwargs = {}
        for name, convert, required in _plan(cls):
            try:
                value = row[name]
            except KeyError:
                if required:
                    raise
                continue
            try:
                kwargs[name] = convert(value)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{cls.__name__} row: {name}: {exc}") from exc
        return cls(**kwargs)
    except KeyError as exc:
        raise SchemaError(f"{cls.__name__} row: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{cls.__name__} row: {exc}") from exc


def canonical_dumps(obj: Any) -> str:
    """Serialize deterministically: sorted keys, compact separators, records as their fields."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=as_row
    )


def config_hash(obj: Any) -> str:
    """16-hex-char content hash of a JSON-serializable configuration."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()[:16]


def stable_hash64(text: str) -> str:
    """Lowercase hex of a stable 64-bit hash (process-independent)."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def derive_seed(*parts: object) -> int:
    """Stable sub-seed from arbitrary parts, for independent RNG streams."""
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(joined.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[IO[str]]:
    """A text file beside `path` that replaces it on success and is removed on error.

    The bytes reach the disk before the rename, so a crash of the process or
    of the machine leaves either the old file or the whole new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, schema: str, cfg_hash: str, rows: Iterable[Any]) -> int:
    """Write header + rows (dicts or records); returns the number of data rows written."""
    count = 0
    with _replacing(path) as fh:
        fh.write(canonical_dumps({"schema": schema, "config_hash": cfg_hash}) + "\n")
        for row in rows:
            fh.write(canonical_dumps(row) + "\n")
            count += 1
    return count


def _decoded_lines(path: Path) -> Iterator[Any]:
    """Each non-blank line of the file decoded; a line that is not JSON raises SchemaError.

    The file is read in binary, so lines end only at "\\n" and not at every
    character `str.splitlines` breaks on (U+2028, U+2029 and U+0085 are
    written unescaped inside JSON strings), and a line that is not UTF-8 is
    reported like any other line that is not JSON.
    """
    with path.open("rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: line {number} is not JSON (not UTF-8)") from exc
            if line.strip():
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}: line {number} is not JSON ({exc.msg})") from exc


def iter_jsonl(path: str | Path, expect_schema: str) -> tuple[dict, Iterator[dict]]:
    """(header, rows) of a JSONL artifact, the rows decoded one line at a time.

    The header is checked when this is called: StageDependencyError when the
    file is missing, SchemaError when it is empty or its header is absent or
    declares an unexpected schema. A line that is not JSON (a torn or
    hand-edited file) raises SchemaError when the rows reach it. The file is
    closed when the rows are exhausted or raise.
    """
    path = Path(path)
    if not path.exists():
        raise StageDependencyError(f"missing artifact: {path}")
    lines = _decoded_lines(path)
    try:
        header = next(lines, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, expected a header record")
        if not isinstance(header, dict) or "schema" not in header:
            raise SchemaError(f"{path}: first line is not a header record")
        if header["schema"] != expect_schema:
            raise SchemaError(
                f"{path}: schema {header['schema']!r}, expected {expect_schema!r}"
            )
    except BaseException:
        lines.close()
        raise
    return header, lines


def read_jsonl(path: str | Path, expect_schema: str) -> tuple[dict, list[dict]]:
    """Read (header, rows) from a JSONL artifact; raises as `iter_jsonl` does."""
    header, rows = iter_jsonl(path, expect_schema)
    return header, list(rows)


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)
