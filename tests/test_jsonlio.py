import dataclasses

import pytest

from elicitbench.conformal import ConformalConfig, apply, fit
from elicitbench.elicitation import ElicitationRecord
from elicitbench.jsonlio import as_row, write_jsonl, write_text
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
    return [question, question.truth, scored.triplet, transcript, scored,
            apply(fit([1.0] * 20, 0.05, 15), scored), ConformalConfig(), SyntheticSuiteConfig()]


@pytest.mark.parametrize("record", _written_records(), ids=lambda r: type(r).__name__)
def test_as_row_holds_exactly_the_fields(record):
    # as_row returns the instance dict: a slots record or a cached property
    # would drop or add keys in every artifact row
    assert as_row(record).keys() == {f.name for f in dataclasses.fields(record)}


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
