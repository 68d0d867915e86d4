"""Shared builders used across test modules."""
from elicitbench.corpus import CIFamily, GroundTruth, TargetKind
from elicitbench.elicitation import ElicitationRecord, TransportStatus
from elicitbench.extraction import Outcome, ParsedRecord, Triplet, Units, extract_triplet
from elicitbench.metrics import ScoreColumns, ScoredRecord, group_by, score_record
from elicitbench.synthetic import SyntheticSuiteConfig, make_questions, respond


def make_triplet(value, lower, upper, kind=TargetKind.CONTINUOUS, **flags):
    units = Units.PERCENT if kind is TargetKind.PROPORTION else Units.DATASET
    return Triplet(value=value, lower=lower, upper=upper, units=units, **flags)


def make_truth_gaussian(value, half=1.0, n=1000):
    return GroundTruth(value=value, lower=value - half, upper=value + half,
                       n=n, family=CIFamily.GAUSSIAN)


def make_truth_binomial(k, n, lower=None, upper=None):
    value = 100.0 * k / n
    if lower is None:
        lower = max(0.0, value - 1.0)
    if upper is None:
        upper = min(100.0, value + 1.0)
    return GroundTruth(value=value, lower=lower, upper=upper, n=n,
                       family=CIFamily.BINOMIAL, k=k)


def make_scored(value, lower, upper, truth_value, kind=TargetKind.CONTINUOUS,
                model="m", effort="low", dataset="d", qid="q"):
    triplet = make_triplet(value, lower, upper, kind=kind)
    truth = (
        make_truth_binomial(round(truth_value * 10), 1000)
        if kind is TargetKind.PROPORTION
        else make_truth_gaussian(truth_value)
    )
    parsed = ParsedRecord(qid, model, effort, False, dataset, kind, Outcome.VALID, triplet=triplet)
    return score_record(parsed, truth)


def scored_suite(config: SyntheticSuiteConfig) -> list[ScoredRecord]:
    """Synthetic questions answered, parsed, and scored through the real modules."""
    records = []
    for q, deviation in make_questions(config, range(config.n_questions)):
        outcome = extract_triplet(respond(config, q, deviation), q.kind)
        if not outcome.valid:
            continue
        parsed = ParsedRecord(q.question_id, config.model_id, config.effort, False,
                              q.dataset_id, q.kind, Outcome.VALID, triplet=outcome.triplet)
        records.append(score_record(parsed, q.truth))
    return records


def as_columns(records) -> list[ScoreColumns]:
    """Scored records as the columns of their (model, effort, dataset) groups,
    in order of first appearance; unlike `report.split_rows`, a repeated
    question is kept."""
    groups = []
    for key, members in group_by(records, lambda r: (r.model_id, r.effort, r.dataset_id)).items():
        groups.append(ScoreColumns(*key))
        for record in members:
            groups[-1].append(record)
    return groups


def answer_at_once(connections, question, spec, level, limiter, headers, backoff_base):
    """A stand-in for `elicitation._elicit_one` that answers without a request."""
    return ElicitationRecord(
        question_id=question.question_id, model_id=spec.model_id, effort=level.value,
        tools_enabled=spec.tool_policy is not None, raw_text="42 (40, 44)",
        request_timestamp="1970-01-01T00:00:00Z", latency_ms=0.0, attempt_count=1,
        transport_status=TransportStatus.OK,
    )


def as_decoded(row):
    """The row loader of `jsonlio.read_jsonl` and `iter_jsonl` that keeps each row as decoded."""
    return row
