"""Line-delimited JSON persistence with provenance headers, and the record codec.

Every artifact file starts with a single header record carrying the schema
name and a content hash of the run configuration, so downstream stages can
verify provenance and outputs stay byte-reproducible.

Artifacts are written to a temporary file beside the target, which then
replaces it: a failed write leaves the previous file, or none, in place.

Records are dataclasses. A record is written as its fields (str-Enums as
their value, nested records as objects) and read back by `load_row`, which
checks each field against its type hint with a loader written once per
record type. The config files (model specs and the corpus config) are read
by `load_row` too.
"""
from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import inspect
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
        return _loader(hint)
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


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _value_lines(hint: Any, name: str, env: dict) -> list[str]:
    """Loader source that turns the decoded value `v` of field `name` into a `hint` value.

    A value of the exact type a checked hint takes passes as it is, and any
    other goes to the hint's converter, which converts it or raises. A
    str-Enum value is looked up among the members; a miss calls the type,
    which gives its own error. The objects the lines use are put in `env`
    under names made from the field's.
    """
    if hint is object:
        return []
    if hint in _CHECKED:
        env[f"_check_{name}"] = _CHECKED[hint]
        return [f"if type(v) is not {hint.__name__}:", f"    v = _check_{name}(v)"]
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        env[f"_members_{name}"], env[f"_enum_{name}"] = hint._value2member_map_, hint
        return ["try:", f"    v = _members_{name}[v]",
                "except (KeyError, TypeError):", f"    v = _enum_{name}(v)"]
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # only X | None
        (inner,) = (a for a in typing.get_args(hint) if a is not type(None))
        lines = _value_lines(inner, name, env)
        return ["if v is not None:", *_indented(lines)] if lines else []
    env[f"_convert_{name}"] = _converter(hint)
    return [f"v = _convert_{name}(v)"]


@functools.cache
def _loader(cls: type[R]) -> Callable[[Any], R]:
    """The function that builds a `cls` record from a decoded JSON object.

    It is written as source once per record type, the way `dataclasses`
    writes `__init__`, and does what `cls(**fields)` would: it sets each
    field in order on `object.__new__(cls)` with `object.__setattr__` (as a
    frozen `__init__` does), fills in the defaults, and runs
    `__post_init__`. A type whose `__init__` takes other arguments than its
    fields (an `init=False` field or an `InitVar`) raises TypeError.
    """
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    init = list(inspect.signature(cls.__init__).parameters)[1:]
    if init != names:
        raise TypeError(f"load_row cannot build {cls.__name__}: its __init__ takes {init}, "
                        f"not its fields {names} (an init=False field or an InitVar)")
    hints = typing.get_type_hints(cls)
    env = {"cls": cls, "NAME": cls.__name__, "SchemaError": SchemaError,
           "MISSING": dataclasses.MISSING, "_new": object.__new__, "_set": object.__setattr__}
    body = []
    for f in fields:
        if "load" in f.metadata:
            env[f"_convert_{f.name}"] = f.metadata["load"]
            convert = [f"v = _convert_{f.name}(v)"]
        else:
            convert = _value_lines(hints[f.name], f.name, env)
        if convert:
            convert = ["try:", *_indented(convert),
                       "except (TypeError, ValueError) as exc:",
                       f'    raise SchemaError(f"{{NAME}} row: {f.name}: {{exc}}") from exc']
        if f.default is not dataclasses.MISSING:
            env[f"_default_{f.name}"], default = f.default, f"_default_{f.name}"
        elif f.default_factory is not dataclasses.MISSING:
            env[f"_default_{f.name}"], default = f.default_factory, f"_default_{f.name}()"
        else:
            default = None
        if default is None:
            body += [f"v = row[{f.name!r}]", *convert]
        else:
            body += [f"v = row.get({f.name!r}, MISSING)", "if v is MISSING:", f"    v = {default}",
                     *(["else:", *_indented(convert)] if convert else [])]
        body.append(f"_set(self, {f.name!r}, v)")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = "\n".join([
        "def load(row):",
        "    if type(row) is not dict:",
        '        raise SchemaError(f"{NAME} row: expected an object, got {row!r}")',
        "    self = _new(cls)",
        "    try:",
        *_indented(_indented(body)),
        "    except KeyError as exc:",
        '        raise SchemaError(f"{NAME} row: missing field {exc}") from exc',
        "    except (TypeError, ValueError) as exc:",
        '        raise SchemaError(f"{NAME} row: {exc}") from exc',
        "    return self",
    ])
    exec(source, env)
    load = env["load"]
    load.__qualname__ = f"load_row[{cls.__qualname__}]"
    return load


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
    SchemaError. The loader of each record type is built on first use.
    """
    return _loader(cls)(row)


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=as_row
)


def canonical_dumps(obj: Any) -> str:
    """Serialize deterministically: sorted keys, compact separators, records as their fields."""
    return _ENCODER.encode(obj)


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


_scan_once = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an index


def _decoded_lines(path: Path) -> Iterator[Any]:
    """Each non-blank line of the file decoded; a line that is not JSON raises SchemaError.

    The file is read in binary, so lines end only at "\\n" and not at every
    character `str.splitlines` breaks on (U+2028, U+2029 and U+0085 are
    written unescaped inside JSON strings), and a line that is not UTF-8 is
    reported like any other line that is not JSON. A line that is one JSON
    value from its first character to its "\\n" is decoded by the C scanner
    alone; `json.loads` decodes, or rejects, every other line.
    """
    with path.open("rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: line {number} is not JSON (not UTF-8)") from exc
            try:
                value, end = _scan_once(line, 0)
            except (StopIteration, ValueError):
                end = 0  # no value starts the line, or a malformed one does
            if end and line[end:] in ("\n", ""):
                yield value
            elif line.strip():
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
