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
by `load_row` too. A field's type hint is one of `str`, `bool`, `int`,
`float`, `object` (any JSON value), a str-Enum, a nested record,
`dict[str, V]` (JSON keys are strings; a bare `dict` is any JSON object),
`list[X]` or `X | None`; any other hint is a TypeError when the loader is built.
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
from typing import IO, Any, Callable, Hashable, Iterable, Iterator, TypeVar

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


# What the message of a checked hint says it expected.
_EXPECTED = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
             dict: "an object", list: "a list"}


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _refuse(hint: type, test: str) -> list[str]:
    return [f"if {test}:", f'    raise TypeError(f"expected {_EXPECTED[hint]}, got {{v!r}}")']


def _value_lines(hint: Any, name: str, env: dict) -> list[str]:
    """Loader source that turns the decoded value `v` of field `name` into a `hint` value.

    A checked value is tested inline (JSON decodes to exact types, so an int
    field turns away a bool, and a float field reads an int as a float). A
    str-Enum value is looked up among the members; a miss calls the type,
    which gives its own error. A nested record goes to its loader, and each
    list item or dict value to its `_converter` (a key is a JSON string). The
    objects the lines use are put in `env` under names made from the field's.
    A hint outside the grammar that `load_row` states raises TypeError.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is object:
        return []
    if hint is str:  # a str subclass, such as a str-Enum member, is a string too
        return _refuse(str, "not isinstance(v, str)")
    if hint in (bool, int, dict):
        return _refuse(hint, f"type(v) is not {hint.__name__}")
    if hint is float:
        return ["if type(v) is not float:", *_indented(_refuse(float, "type(v) is not int")),
                "    v = float(v)"]
    if origin is list:
        env[f"_item_{name}"] = _converter(args[0])
        return [*_refuse(list, "type(v) is not list"), f"v = [_item_{name}(x) for x in v]"]
    if origin is dict and args[0] is str:
        env[f"_item_{name}"] = _converter(args[1])
        return [*_refuse(dict, "type(v) is not dict"),
                f"v = {{k: _item_{name}(x) for k, x in v.items()}}"]
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        lines = _value_lines(inner, name, env)
        return ["if v is not None:", *_indented(lines)] if lines else []
    if isinstance(hint, enum.EnumMeta) and issubclass(hint, str):
        env[f"_members_{name}"], env[f"_enum_{name}"] = hint._value2member_map_, hint
        return ["try:", f"    v = _members_{name}[v]",
                "except (KeyError, TypeError):", f"    v = _enum_{name}(v)"]
    if dataclasses.is_dataclass(hint):
        env[f"_load_{name}"] = _loader(hint)
        return [f"v = _load_{name}(v)"]
    raise TypeError(f"unsupported type hint {hint!r}")


@functools.cache
def _converter(hint: Any) -> Callable[[Any], Any]:
    """`convert(v)`: the decoded JSON value `v` as a `hint` value, for container items."""
    env: dict = {}
    lines = _value_lines(hint, "v", env)
    exec("\n".join(["def convert(v):", *_indented(lines), "    return v"]), env)
    return env["convert"]


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
            try:
                convert = _value_lines(hints[f.name], f.name, env)
            except TypeError as exc:
                raise TypeError(f"load_row cannot build {cls.__name__}: "
                                f"field {f.name}: {exc}") from None
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

    A field's type hint is one of `str`, `bool`, `int`, `float`, `object`
    (any JSON value), a str-Enum, a nested record, `dict[str, V]` (JSON keys
    are strings; a bare `dict` is any JSON object), `list[X]` or `X | None`;
    any other hint is a TypeError when the loader is built. Nothing is
    coerced: a bool field takes only true or false, an int field only an
    integer, a float field an integer or a float (read as a float), a dict
    field and the row itself only a JSON object, and a list field only a
    JSON list. A field may name its own converter instead, as
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


def header_line(schema: str, cfg_hash: str) -> str:
    """An artifact's first line: its schema name and the hash of its run configuration."""
    return canonical_dumps({"schema": schema, "config_hash": cfg_hash}) + "\n"


@contextlib.contextmanager
def jsonl_writer(path: str | Path, schema: str, cfg_hash: str) -> Iterator[Callable[[Any], None]]:
    """`write(row)`, which writes one row (a dict or a record) after the header.

    The file replaces `path` when the block ends, and is removed if it raises.
    """
    with _replacing(path) as fh:
        fh.write(header_line(schema, cfg_hash))
        yield lambda row: fh.write(canonical_dumps(row) + "\n")


@contextlib.contextmanager
def keyed_jsonl_writer(path: str | Path, schema: str, cfg_hash: str
                       ) -> Iterator[Callable[[Hashable, Any], int]]:
    """`write(key, row)`, which returns the row's number: the file holds one row
    per key, in order of each key's first row, and that row is the key's last.

    A key's first row goes to an unnamed draft beside `path` as it comes, and
    a later row of the key is held until the block ends, when the draft is
    copied after the header with each held row in place of its key's row. So
    only the key numbers and the rows of repeated keys are held. The file
    replaces `path` when the block ends, and is removed if it raises.
    """
    # Imported here, so that only extract, which writes a draft, loads tempfile. What it
    # imports (shutil and the compression modules) argparse loads in every stage.
    import tempfile

    numbers: dict[Hashable, int] = {}
    later: dict[int, str] = {}  # row number -> the last row of its repeated key

    def write(key: Hashable, row: Any) -> int:
        line = canonical_dumps(row) + "\n"
        new = len(numbers)
        number = numbers.setdefault(key, new)
        if number == new:
            draft.write(line)
        else:
            later[number] = line
        return number

    with _replacing(path) as fh, tempfile.TemporaryFile(
            "w+", encoding="utf-8", newline="\n", dir=Path(path).parent) as draft:
        yield write
        fh.write(header_line(schema, cfg_hash))
        draft.seek(0)
        for number, line in enumerate(draft):
            fh.write(later.get(number, line))


def write_jsonl(path: str | Path, schema: str, cfg_hash: str, rows: Iterable[Any]) -> int:
    """Write header + rows (dicts or records); returns the number of data rows written."""
    count = 0
    with jsonl_writer(path, schema, cfg_hash) as write:
        for row in rows:
            write(row)
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
