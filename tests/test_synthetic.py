import dataclasses
import errno
import os
import sys
import threading
from pathlib import Path

import pytest

from elicitbench.conformal import ConformalConfig, calibrate_groups
from elicitbench.corpus import TargetKind
from elicitbench.elicitation import EffortLevel, ModelSpec, build_request
from elicitbench.errors import ConfigError
from elicitbench.extraction import InvalidReason, extract_triplet
from elicitbench.jsonlio import read_jsonl
from elicitbench.metrics import rate
from elicitbench.slices import cpu_slices
from elicitbench.synthetic import (
    SyntheticSuiteConfig,
    make_questions,
    make_suite,
    respond,
)

from helpers import as_columns, as_decoded, scored_suite


class TestRespond:
    def test_deterministic_per_seed_and_question(self):
        cfg = SyntheticSuiteConfig(n_questions=5, seed=3, noise_sd=2.0, width_shrink=2.0)
        questions = list(make_questions(cfg, range(cfg.n_questions)))
        assert [respond(cfg, *qd) for qd in questions] == [respond(cfg, *qd) for qd in questions]
        other = dataclasses.replace(cfg, seed=4)
        assert respond(other, *questions[0]) != respond(cfg, *questions[0])

    def test_reply_parses_to_labeled_triplet(self):
        cfg = SyntheticSuiteConfig(n_questions=3, seed=1)
        for q, deviation in make_questions(cfg, range(cfg.n_questions)):
            out = extract_triplet(respond(cfg, q, deviation), q.kind)
            assert out.valid
            assert not out.triplet.bounds_reordered

    def test_full_refusal_is_clarification_downstream(self):
        cfg = SyntheticSuiteConfig(n_questions=20, seed=2, refusal_rate=1.0)
        outcomes = [
            extract_triplet(respond(cfg, q, deviation), q.kind)
            for q, deviation in make_questions(cfg, range(cfg.n_questions))
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
            for q, deviation in make_questions(cfg, range(cfg.n_questions))
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
        _, rows = read_jsonl(tmp_path / "transcript.jsonl", "transcript.v1", as_decoded)
        spec = ModelSpec(model_id="sim", endpoint_url="http://localhost:1/v1", effort_mode=None)
        sent = {q.question_id: build_request(q, spec, EffortLevel.NONE)
                for q, _ in make_questions(cfg, range(cfg.n_questions))}
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
        questions = [q for q, _ in make_questions(cfg, range(cfg.n_questions))]
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
        for q, deviation in make_questions(cfg, range(cfg.n_questions)):
            out = extract_triplet(respond(cfg, q, deviation), q.kind)
            assert out.valid
            assert 0.0 <= out.triplet.lower <= out.triplet.upper <= 100.0


class TestSlices:
    """`make_suite` makes its questions in one slice per CPU, each slice after
    the first in a forked child; the bytes do not depend on the slice count."""

    CONFIG = SyntheticSuiteConfig(n_questions=50, seed=7, width_shrink=4.0, noise_sd=5.0,
                                  refusal_rate=0.1, proportion_fraction=0.3)

    @pytest.mark.parametrize("n_questions, cpus, affinity_call, forks", [
        (50, 1, True, 0), (50, 2, True, 1), (50, 3, True, 2),
        (3, 8, True, 2),  # more CPUs than questions: one question per slice
        (50, 3, False, 2),  # no affinity call on the platform: the CPU count
    ], ids=["1_slice", "2_slices", "3_slices", "more_cpus_than_questions", "cpu_count"])
    def test_bytes_do_not_depend_on_the_slice_count(self, tmp_path, monkeypatch, n_questions,
                                                     cpus, affinity_call, forks):
        config = dataclasses.replace(self.CONFIG, n_questions=n_questions)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = make_suite(config, tmp_path / "serial")
        if affinity_call:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(None) or fork())
        assert make_suite(config, tmp_path / "sliced") == serial
        assert len(forked) == forks
        names = ["corpus.jsonl", "transcript.jsonl"]
        assert sorted(path.name for path in (tmp_path / "sliced").iterdir()) == names
        for name in names:
            assert (tmp_path / "sliced" / name).read_bytes() \
                == (tmp_path / "serial" / name).read_bytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="names a copied file by /proc/self/fd")
    def test_a_failed_join_leaves_both_old_outputs(self, tmp_path, monkeypatch):
        # The corpus joins, the transcript does not: a new corpus beside the old
        # transcript would join silently, as a question id does not depend on the seed.
        make_suite(dataclasses.replace(self.CONFIG, seed=8), tmp_path)
        old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def full_for_a_transcript_part(copy, source):
            def copy_or_refuse(*args):
                if "transcript.jsonl." in os.readlink(f"/proc/self/fd/{args[source]}"):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return copy(*args)

            return copy_or_refuse

        monkeypatch.setattr(os, "sendfile", full_for_a_transcript_part(os.sendfile, 1))
        monkeypatch.setattr(os, "pread", full_for_a_transcript_part(os.pread, 0))
        with pytest.raises(OSError) as raised:
            make_suite(self.CONFIG, tmp_path)
        assert raised.value.errno == errno.ENOSPC
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old

    @pytest.mark.skipif(sys.platform != "linux", reason="names a synced file by /proc/self/fd")
    def test_a_failed_write_with_one_slice_leaves_both_old_outputs(self, tmp_path, monkeypatch):
        # The transcript is written inside the corpus's pass, so it is done first:
        # a new transcript beside the old corpus would join silently.
        make_suite(dataclasses.replace(self.CONFIG, seed=8), tmp_path)
        old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        fsync = os.fsync

        def failing_for_the_corpus(fd):
            if "corpus.jsonl." in os.readlink(f"/proc/self/fd/{fd}"):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_for_the_corpus)
        with pytest.raises(OSError) as raised:
            make_suite(self.CONFIG, tmp_path)
        assert raised.value.errno == errno.EIO
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old

    def test_a_platform_without_fork_gets_one_slice(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        make_suite(self.CONFIG, tmp_path / "serial")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")  # so any fork raises AttributeError
        assert cpu_slices(self.CONFIG.n_questions) == [range(self.CONFIG.n_questions)]
        make_suite(self.CONFIG, tmp_path / "sliced")
        names = ["corpus.jsonl", "transcript.jsonl"]
        assert sorted(path.name for path in (tmp_path / "sliced").iterdir()) == names
        for name in names:
            assert (tmp_path / "sliced" / name).read_bytes() \
                == (tmp_path / "serial" / name).read_bytes()

    def test_a_caller_running_another_thread_gets_one_slice(self, tmp_path, monkeypatch):
        # a forked child would hold none of the other threads (Python 3.12 warns on such a fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def no_fork():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            make_suite(self.CONFIG, tmp_path)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["corpus.jsonl", "transcript.jsonl"]
