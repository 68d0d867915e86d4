import dataclasses
import re
from pathlib import Path

import pytest

from elicitbench.conformal import ConformalConfig, apply, fit
from elicitbench.corpus import QuestionTemplate, TargetKind
from elicitbench.elicitation import ElicitationRecord, VendorParam
from elicitbench.errors import SchemaError, StageDependencyError
from elicitbench.extraction import Outcome, ParsedRecord
from elicitbench.jsonlio import as_row, iter_jsonl, load_row, read_jsonl, write_jsonl, write_text
from elicitbench.synthetic import SyntheticSuiteConfig, make_questions

from helpers import make_scored


def _written_records():
    """One instance of every record type that artifacts and config hashes serialize."""
    scored = make_scored(10.0, 8.0, 12.0, truth_value=11.0)
    (question,) = make_questions(SyntheticSuiteConfig(n_questions=1))
    transcript = ElicitationRecord(
        question_id="q", model_id="m", effort="low", tools_enabled=False, raw_text="42",
        request_timestamp="1970-01-01T00:00:00Z", latency_ms=0.0, attempt_count=1,
        transport_status="ok",
    )
    template = QuestionTemplate(template_id="t", prompt="{sex}?", axes={"sex": ["M"]},
                                kind=TargetKind.PROPORTION, target_column="flag")
    parsed = ParsedRecord(question_id="q", model_id="m", effort="low", tools_enabled=False,
                          dataset_id="d", kind=TargetKind.PROPORTION, outcome=Outcome.VALID,
                          triplet=scored.triplet)
    return [question, question.truth, scored.triplet, transcript, scored,
            apply(fit([1.0] * 20, 0.05, 15), scored), ConformalConfig(), SyntheticSuiteConfig(),
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

    def test_bad_line_raises_when_reached_and_closes(self, tmp_path, opened):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"schema": "scores.v1"}\n{"a": 1}\n{"a": \n{"a": 3}\n', encoding="utf-8")
        _, rows = iter_jsonl(path, "scores.v1")
        assert next(rows) == {"a": 1}
        with pytest.raises(SchemaError, match="line 3 is not JSON"):
            next(rows)
        assert [fh.closed for fh in opened] == [True]
