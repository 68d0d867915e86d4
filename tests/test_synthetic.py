import dataclasses
from pathlib import Path

import pytest

from elicitbench.conformal import ConformalConfig, calibrate_groups
from elicitbench.corpus import TargetKind
from elicitbench.elicitation import EffortLevel, ModelSpec, build_request
from elicitbench.errors import ConfigError
from elicitbench.extraction import InvalidReason, extract_triplet
from elicitbench.jsonlio import read_jsonl
from elicitbench.metrics import rate
from elicitbench.synthetic import (
    SyntheticSuiteConfig,
    make_questions,
    make_suite,
    respond,
)

from helpers import as_columns, scored_suite


class TestRespond:
    def test_deterministic_per_seed_and_question(self):
        cfg = SyntheticSuiteConfig(n_questions=5, seed=3, noise_sd=2.0, width_shrink=2.0)
        questions = list(make_questions(cfg))
        assert [respond(cfg, *qd) for qd in questions] == [respond(cfg, *qd) for qd in questions]
        other = dataclasses.replace(cfg, seed=4)
        assert respond(other, *questions[0]) != respond(cfg, *questions[0])

    def test_reply_parses_to_labeled_triplet(self):
        cfg = SyntheticSuiteConfig(n_questions=3, seed=1)
        for q, deviation in make_questions(cfg):
            out = extract_triplet(respond(cfg, q, deviation), q.kind)
            assert out.valid
            assert not out.triplet.bounds_reordered

    def test_full_refusal_is_clarification_downstream(self):
        cfg = SyntheticSuiteConfig(n_questions=20, seed=2, refusal_rate=1.0)
        outcomes = [
            extract_triplet(respond(cfg, q, deviation), q.kind)
            for q, deviation in make_questions(cfg)
        ]
        assert all(o.reason is InvalidReason.CLARIFICATION for o in outcomes)

    def test_honest_coverage_with_estimation_noise(self):
        # noise_sd = sigma_true doubles the residual variance, so nominal
        # intervals cover ~2*Phi(z/sqrt(2)) - 1 ~ 0.834 of truths
        covs = []
        for seed in (101, 202, 303):
            cfg = SyntheticSuiteConfig(n_questions=10000, seed=seed, width_shrink=1.0,
                                       noise_sd=5.0)
            records = scored_suite(cfg)
            covs.append(rate(r.covered for r in records))
        for cov in covs:
            assert 0.80 <= cov <= 0.90

    def test_overconfident_coverage(self):
        cfg = SyntheticSuiteConfig(n_questions=10000, seed=7, width_shrink=4.0, noise_sd=5.0)
        records = scored_suite(cfg)
        cov = rate(r.covered for r in records)
        assert 0.24 <= cov <= 0.32

    def test_refusal_rate_concentrates(self):
        cfg = SyntheticSuiteConfig(n_questions=400, seed=5, refusal_rate=0.25)
        outcomes = [
            extract_triplet(respond(cfg, q, deviation), q.kind)
            for q, deviation in make_questions(cfg)
        ]
        refusal_share = sum(not o.valid for o in outcomes) / len(outcomes)
        assert abs(refusal_share - 0.25) <= 0.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSuiteConfig(width_shrink=0.0)
        with pytest.raises(ConfigError):
            SyntheticSuiteConfig(refusal_rate=1.5)


class TestMakeSuite:
    def test_cardinality_and_determinism(self, tmp_path):
        cfg = SyntheticSuiteConfig(n_questions=400, seed=9)
        m1 = make_suite(cfg, tmp_path / "a")
        m2 = make_suite(cfg, tmp_path / "b")
        assert m1["counts"] == {"questions": 400, "records": 400}
        for name in ("corpus.jsonl", "transcript.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_request_payload_is_what_elicit_sends_a_non_reasoning_model(self, tmp_path):
        cfg = SyntheticSuiteConfig(n_questions=30, seed=4, proportion_fraction=0.5, model_id="sim")
        make_suite(cfg, tmp_path)
        _, rows = read_jsonl(tmp_path / "transcript.jsonl", "transcript.v1")
        spec = ModelSpec(model_id="sim", endpoint_url="http://localhost:1/v1", effort_mode=None)
        sent = {q.question_id: build_request(q, spec, EffortLevel.NONE) for q, _ in make_questions(cfg)}
        assert {row["question_id"]: row["request_payload"] for row in rows} == sent
        assert {tuple(payload) for payload in sent.values()} == {("model", "messages", "temperature")}

    def test_different_seed_changes_bytes(self, tmp_path):
        make_suite(SyntheticSuiteConfig(n_questions=10, seed=1), tmp_path / "a")
        make_suite(SyntheticSuiteConfig(n_questions=10, seed=2), tmp_path / "b")
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (
            tmp_path / "b" / "corpus.jsonl"
        ).read_bytes()

    def test_schema_flows_through_whole_pipeline(self, tmp_path):
        # mixed kinds, refusals included: extraction -> metrics -> conformal
        cfg = SyntheticSuiteConfig(n_questions=150, seed=11, proportion_fraction=0.5,
                                   refusal_rate=0.1, width_shrink=2.0, noise_sd=1.0)
        questions = [q for q, _ in make_questions(cfg)]
        kinds = {q.kind for q in questions}
        assert kinds == {TargetKind.PROPORTION, TargetKind.CONTINUOUS}
        for q in questions:
            assert q.truth.lower <= q.truth.value <= q.truth.upper
            if q.kind is TargetKind.PROPORTION:
                assert 0.0 <= q.truth.lower and q.truth.upper <= 100.0
        records = scored_suite(cfg)
        assert 100 < len(records) <= 150
        results = calibrate_groups(as_columns(records), ConformalConfig(seed=0))
        assert len(results) == 1

    def test_proportion_reply_clipped(self):
        cfg = SyntheticSuiteConfig(n_questions=40, seed=13, proportion_fraction=1.0,
                                   width_shrink=0.25, sigma_true=30.0)
        for q, deviation in make_questions(cfg):
            out = extract_triplet(respond(cfg, q, deviation), q.kind)
            assert out.valid
            assert 0.0 <= out.triplet.lower <= out.triplet.upper <= 100.0
