import copy
import dataclasses
import functools
import json
import re
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitbench.conformal import ConformalConfig, apply, fit
from elicitbench.corpus import CorpusConfig, GroundTruth, Question, QuestionTemplate, TargetKind
from elicitbench.elicitation import ElicitationRecord, ModelSpec, TransportStatus, VendorParam
from elicitbench.errors import SchemaError, StageDependencyError
from elicitbench.extraction import Outcome, ParsedRecord, Triplet
from elicitbench.jsonlio import as_row, iter_jsonl, load_row, read_jsonl, write_jsonl, write_text
from elicitbench.metrics import ScoredRecord
from elicitbench.synthetic import SyntheticSuiteConfig, make_questions

from helpers import as_columns, make_scored
from oracles import load_row_reference


def _written_records():
    """One instance of every record type that artifacts and config hashes serialize."""
    scored = make_scored(10.0, 8.0, 12.0, truth_value=11.0)
    ((question, _),) = make_questions(SyntheticSuiteConfig(n_questions=1))
    transcript = ElicitationRecord(
        question_id="q", model_id="m", effort="low", tools_enabled=False, raw_text="42",
        request_timestamp="1970-01-01T00:00:00Z", latency_ms=0.0, attempt_count=1,
        transport_status=TransportStatus.OK,
    )
    template = QuestionTemplate(template_id="t", prompt="{sex}?", axes={"sex": ["M"]},
                                kind=TargetKind.PROPORTION, target_column="flag")
    parsed = ParsedRecord(question_id="q", model_id="m", effort="low", tools_enabled=False,
                          dataset_id="d", kind=TargetKind.PROPORTION, outcome=Outcome.VALID,
                          triplet=scored.triplet)
    (columns,) = as_columns([scored])
    return [question, question.truth, scored.triplet, transcript, scored,
            apply(fit([1.0] * 20, 0.05, 15), columns, 0), ConformalConfig(), SyntheticSuiteConfig(),
            template, parsed]


@pytest.mark.parametrize("record", _written_records(), ids=lambda r: type(r).__name__)
def test_as_row_holds_exactly_the_fields(record):
    # as_row returns the instance dict: a slots record or a cached property
    # would drop or add keys in every artifact row
    assert as_row(record).keys() == {f.name for f in dataclasses.fields(record)}


TRANSCRIPT_ROW = {
    "question_id": "q", "model_id": "m", "effort": "low", "tools_enabled": False,
    "raw_text": "42", "request_timestamp": "1970-01-01T00:00:00Z", "latency_ms": 12.5,
    "attempt_count": 2, "transport_status": "ok",
}


@pytest.mark.parametrize("field, value", [
    ("tools_enabled", "false"), ("tools_enabled", 0), ("tools_enabled", None),
    ("attempt_count", 2.9), ("attempt_count", "2"), ("attempt_count", True),
    ("latency_ms", "12"), ("latency_ms", True), ("latency_ms", None),
    ("request_payload", [["model", "x"]]), ("request_payload", []), ("request_payload", "ab"),
])
def test_load_row_does_not_coerce(field, value):
    with pytest.raises(SchemaError, match=f"ElicitationRecord row: {field}: expected"):
        load_row(ElicitationRecord, {**TRANSCRIPT_ROW, field: value})


def test_load_row_reads_an_integer_float_field_as_a_float():
    record = load_row(ElicitationRecord, {**TRANSCRIPT_ROW, "latency_ms": 12})
    assert record.latency_ms == 12.0 and type(record.latency_ms) is float
    assert load_row(ElicitationRecord, TRANSCRIPT_ROW).attempt_count == 2


TEMPLATE_ROW = {"template_id": "t", "prompt": "{sex}?", "axes": {"sex": ["M"]},
                "kind": "proportion", "target_column": "flag"}


@pytest.mark.parametrize("axes, message", [
    ({"sex": {"M": 1}}, "expected a list, got {'M': 1}"),
    ({"sex": "M"}, "expected a list, got 'M'"),
    ([["sex", ["M"]]], "expected an object, got [['sex', ['M']]]"),
], ids=["list_given_an_object", "list_given_a_string", "dict_given_pairs"])
def test_load_row_takes_lists_and_objects_only_as_json_gives_them(axes, message):
    with pytest.raises(SchemaError, match=re.escape(f"QuestionTemplate row: axes: {message}")):
        load_row(QuestionTemplate, {**TEMPLATE_ROW, "axes": axes})
    assert load_row(QuestionTemplate, TEMPLATE_ROW).axes == {"sex": ["M"]}


@pytest.mark.parametrize("row", [[["question_id", "q"]], "q", None], ids=repr)
def test_load_row_takes_only_an_object_as_the_row(row):
    with pytest.raises(SchemaError, match="ElicitationRecord row: expected an object"):
        load_row(ElicitationRecord, row)


def test_object_hint_takes_any_json_value():
    values = {"low": 1, "medium": "m", "high": [None, {"a": True}]}
    assert load_row(VendorParam, {"param": "p", "values": values}).values == values


DATA = Path(__file__).parent / "data"


def _fixture_rows() -> dict[type, list]:
    """Rows of each record type the program reads, taken from the committed fixtures."""
    named = json.loads((DATA / "codec_rows.json").read_text(encoding="utf-8"))
    rows = {cls: named[cls.__name__]
            for cls in (ElicitationRecord, ParsedRecord, Question, ModelSpec)}
    for name in ("scores_fixture.jsonl", "tool_scores_fixture.jsonl"):
        _, score_rows = read_jsonl(DATA / name, "scores.v1")
        for row in score_rows[:40]:
            if row["outcome"] == "valid":
                rows.setdefault(ScoredRecord, []).append(row)
            else:
                rows[ParsedRecord].append(row)
    rows[GroundTruth] = [row["truth"] for row in rows[ScoredRecord] + rows[Question]]
    rows[Triplet] = [row["triplet"] for row in rows[ScoredRecord] + rows[ParsedRecord]
                     if row.get("triplet")]
    rows[CorpusConfig] = [json.loads((DATA / "templates_demo.json").read_text(encoding="utf-8"))]
    return rows


FIXTURE_ROWS = _fixture_rows()
# Values of each JSON type; a mutation puts one of another type than the value it replaces.
JSON_VALUES = [None, True, 0, -3, 2.5, "", "x", [], [1], {}, {"a": 1}]


def _paths(value, path=()):
    """The path of `value` and of every value nested in it, as key and index tuples."""
    yield path
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


def _mutated(row, data):
    """`row` with one drawn change: a field deleted, a value of another JSON type, or an
    unknown enum string; or `row` as it is."""
    row = copy.deepcopy(row)
    path = data.draw(st.sampled_from(list(_paths(row))))
    kind = data.draw(st.sampled_from(["none", "delete", "retype", "unknown_string"]))
    if kind == "none":
        return row
    if not path:  # the row itself
        return data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not dict]))
    *parents, key = path
    container = functools.reduce(lambda value, k: value[k], parents, row)
    if kind == "delete" and type(container) is dict:
        del container[key]
    elif kind == "unknown_string":
        container[key] = "not-a-member"
    else:
        container[key] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(container[key])]))
    return row


def _outcome(load, cls, row):
    try:
        return load(cls, copy.deepcopy(row))
    except Exception as exc:
        return exc


@pytest.mark.parametrize("cls", list(FIXTURE_ROWS), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_row_matches_the_reference_loader(cls, data):
    row = _mutated(data.draw(st.sampled_from(FIXTURE_ROWS[cls])), data)
    got, expected = _outcome(load_row, cls, row), _outcome(load_row_reference, cls, row)
    assert type(got) is type(expected)
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
    else:
        assert got == expected and vars(got) == vars(expected)


@pytest.mark.parametrize("cls", list(FIXTURE_ROWS), ids=lambda cls: cls.__name__)
def test_fixture_rows_load_unchanged(cls):
    # the unmutated rows load, so the mutations above start from records
    for row in FIXTURE_ROWS[cls]:
        assert isinstance(load_row(cls, row), cls)


@dataclass(frozen=True)
class WithInitFalseField:
    a: int
    b: int = field(init=False, default=0)


@dataclass(frozen=True)
class WithInitVar:
    a: int
    scale: InitVar[int] = 1


@pytest.mark.parametrize("cls", [WithInitFalseField, WithInitVar], ids=lambda cls: cls.__name__)
def test_load_row_refuses_a_type_whose_init_takes_other_arguments_than_its_fields(cls):
    # a loader that sets the fields would skip what such an __init__ does
    with pytest.raises(TypeError, match=f"cannot build {cls.__name__}: .*init=False field or an InitVar"):
        load_row(cls, {"a": 1})


@dataclass(frozen=True)
class WithPair:
    pair: tuple[int, int]


@dataclass(frozen=True)
class WithSet:
    tags: set[str]


@dataclass(frozen=True)
class WithUnion:
    either: int | str


@dataclass(frozen=True)
class WithIntKeys:
    names: dict[int, str]


@pytest.mark.parametrize("cls, row", [
    (WithPair, {"pair": [1, "x"]}), (WithSet, {"tags": ["a", 2]}), (WithUnion, {"either": 1}),
    (WithIntKeys, {"names": {"1": "a"}}),
], ids=["tuple_int_int", "set_str", "int_or_str", "dict_int_str"])
def test_load_row_refuses_a_hint_it_cannot_check(cls, row):
    # a hint outside the grammar would load its values unchecked; JSON keys are always strings
    (name,) = row
    with pytest.raises(TypeError, match=f"cannot build {cls.__name__}: field {name}: unsupported"):
        load_row(cls, row)


def test_as_row_rejects_non_records():
    with pytest.raises(TypeError):
        as_row(object())


def _failing_rows():
    yield {"a": 1}
    yield {"a": 2}
    raise RuntimeError("row source failed")


def test_failed_write_jsonl_keeps_the_existing_artifact(tmp_path):
    target = tmp_path / "scores.jsonl"
    write_jsonl(target, "scores.v1", "abc", [{"a": 0}])
    before = target.read_bytes()
    with pytest.raises(RuntimeError):
        write_jsonl(target, "scores.v1", "def", _failing_rows())
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.jsonl"]


def test_failed_write_text_keeps_the_existing_file(tmp_path):
    target = tmp_path / "report.txt"
    write_text(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text(target, "new \ud800\n")  # a lone surrogate cannot be encoded
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        write_jsonl(tmp_path / "out" / "parsed.jsonl", "parsed.v1", "abc", _failing_rows())
    assert list((tmp_path / "out").iterdir()) == []


# Characters str.splitlines breaks on that canonical_dumps leaves unescaped.
LINE_BREAKS_IN_STRINGS = "\u2028\u2029\x85"


def test_read_jsonl_keeps_unicode_line_separators_inside_strings(tmp_path):
    path = tmp_path / "transcript.jsonl"
    row = {"raw_text": f"Estimate: 42{LINE_BREAKS_IN_STRINGS}Lower: 30"}
    write_jsonl(path, "transcript.v1", "abc", [row, {"n": 2}])
    header, rows = read_jsonl(path, "transcript.v1")
    assert header == {"schema": "transcript.v1", "config_hash": "abc"}
    assert rows == [row, {"n": 2}]


class TestIterJsonl:
    @pytest.fixture
    def opened(self, monkeypatch):
        """Every file Path.open opens for reading, to check that it was closed."""
        files = []
        real_open = Path.open

        def spy(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            if mode in ("r", "rb"):
                files.append(fh)
            return fh

        monkeypatch.setattr(Path, "open", spy)
        return files

    def test_missing_file_raises_at_call_time(self, tmp_path):
        with pytest.raises(StageDependencyError):
            iter_jsonl(tmp_path / "absent.jsonl", "scores.v1")

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("\n  \n", "empty file"),
        ("[1]\n", "not a header record"),
        ('{"schema": "parsed.v1"}\n{"a": 1}\n', "expected 'scores.v1'"),
        ('{"schema": "scores.v1"\n', "line 1 is not JSON"),
    ], ids=["empty", "blank lines", "not an object", "other schema", "torn header"])
    def test_bad_header_raises_at_call_time_and_closes(self, tmp_path, opened, text, message):
        path = tmp_path / "scores.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            iter_jsonl(path, "scores.v1")
        assert [fh.closed for fh in opened] == [True]

    def test_rows_skip_blank_lines_and_close_when_exhausted(self, tmp_path, opened):
        path = tmp_path / "scores.jsonl"
        path.write_text('\n{"schema": "scores.v1"}\n{"a": 1}\n\n   \n{"a": 2}\n', encoding="utf-8")
        header, rows = iter_jsonl(path, "scores.v1")
        assert header == {"schema": "scores.v1"}
        assert [fh.closed for fh in opened] == [False]
        assert list(rows) == [{"a": 1}, {"a": 2}]
        assert [fh.closed for fh in opened] == [True]

    def test_line_that_is_not_utf8_raises_when_reached_and_closes(self, tmp_path, opened):
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b'{"schema": "scores.v1"}\n{"a": 1}\n{"a": "\xff\xfe"}\n{"a": 3}\n')
        _, rows = iter_jsonl(path, "scores.v1")
        assert next(rows) == {"a": 1}
        with pytest.raises(SchemaError, match="line 3 is not JSON"):
            next(rows)
        assert [fh.closed for fh in opened] == [True]

    @pytest.mark.parametrize("line", [
        '{"a": 1}\n', '{"a": 1}', '{"a": 1}\r\n', '  {"a": 1}  \n', '{"a": 1}\t\n', '7\n',
        '"s"\n', '[1, {"b": NaN}]\n', '{"a": 1} {"b": 2}\n', '{"a": 1}x\n', '\ufeff{"a": 1}\n',
        '{"a": 1,}\n', '{"a": "\u2028"}\n',
    ], ids=repr)
    def test_a_row_decodes_as_json_loads_decodes_its_line(self, tmp_path, line):
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b'{"schema": "scores.v1"}\n' + line.encode("utf-8"))
        _, rows = iter_jsonl(path, "scores.v1")
        try:
            expected = json.loads(line)
        except json.JSONDecodeError as exc:
            with pytest.raises(SchemaError, match=re.escape(f"line 2 is not JSON ({exc.msg})")):
                list(rows)
        else:
            assert list(rows) == [expected]

    def test_bad_line_raises_when_reached_and_closes(self, tmp_path, opened):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"schema": "scores.v1"}\n{"a": 1}\n{"a": \n{"a": 3}\n', encoding="utf-8")
        _, rows = iter_jsonl(path, "scores.v1")
        assert next(rows) == {"a": 1}
        with pytest.raises(SchemaError, match="line 3 is not JSON"):
            next(rows)
        assert [fh.closed for fh in opened] == [True]
