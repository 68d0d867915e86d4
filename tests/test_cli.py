import argparse
import dataclasses
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from elicitbench.cli import build_parser, main
from elicitbench.conformal import ConformalConfig, GroupCalibration
from elicitbench.jsonlio import read_jsonl, write_jsonl
from elicitbench.report import FIT_COLUMNS, read_fits, render_fits
from elicitbench.synthetic import SyntheticSuiteConfig

from helpers import as_decoded
from stubserver import StubServer, StubState

DATA = Path(__file__).parent / "data"

# A model spec for the stub server, without its endpoint_url.
STUB_SPEC = {"model_id": "stub", "auth_env_var": "STUB_API_KEY", "max_retries": 0,
             "rate_limit_per_minute": 100000}
# Stands for the stub server's URL in specs written before the server starts, so
# that a check which lets a request through reaches the stub and not a real port.
STUB_URL = "<stub url>"
BAD_URL = "stub: endpoint_url must be an http:// or https:// URL with a host"
BAD_KEY = "holds a line break or a character outside Latin-1"
# API keys that http.client cannot send in a header
BAD_KEYS = {"STUB_KEY_NEWLINE": "secret\n", "STUB_KEY_WIDE": "secret\u2013"}


def run_synthetic_chain(root: Path, seed=7, extra_simulate=(), n=120) -> Path:
    """generate -> simulate -> extract -> score -> calibrate -> report."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "templates.json"
    shutil.copy(DATA / "templates_demo.json", config)
    shutil.copy(DATA / "health_fixture.csv", root / "health_fixture.csv")
    assert main(["generate", "--config", str(config), "--out", str(root / "fixture_corpus.jsonl")]) == 0
    assert (
        main(
            ["simulate", "--n-questions", str(n), "--width-shrink", "3", "--noise", "2.0",
             "--refusal-rate", "0.1", "--seed", str(seed), "--out-dir", str(root / "suite")]
            + list(extra_simulate)
        )
        == 0
    )
    suite = root / "suite"
    assert main(["extract", "--transcript", str(suite / "transcript.jsonl"),
                 "--corpus", str(suite / "corpus.jsonl"),
                 "--out", str(root / "parsed.jsonl")]) == 0
    assert main(["score", "--parsed", str(root / "parsed.jsonl"),
                 "--corpus", str(suite / "corpus.jsonl"),
                 "--out", str(root / "scores.jsonl")]) == 0
    assert main(["calibrate", "--scores", str(root / "scores.jsonl"),
                 "--seed", "1",
                 "--out", str(root / "calibrated.jsonl"),
                 "--fits", str(root / "calibration_fits.tsv")]) == 0
    assert main(["report", "--scores", str(root / "scores.jsonl"),
                 "--calibration", str(root / "calibration_fits.tsv"),
                 "--out-dir", str(root / "report")]) == 0
    return root


ALL_OUTPUTS = [
    "fixture_corpus.jsonl",
    "suite/corpus.jsonl",
    "suite/transcript.jsonl",
    "suite/manifest.json",
    "parsed.jsonl",
    "scores.jsonl",
    "calibrated.jsonl",
    "calibration_fits.tsv",
    "report/summary_by_model_effort.tsv",
    "report/summary_by_model_effort.txt",
    "report/nll_sharpness.tsv",
    "report/baseline_win_rate.tsv",
    "report/coverage_calibration.tsv",
    "report/coverage_calibration.txt",
]


class TestPipeline:
    def test_full_chain_products(self, tmp_path):
        root = run_synthetic_chain(tmp_path / "run")
        for rel in ALL_OUTPUTS:
            assert (root / rel).exists(), rel
        _, scores = read_jsonl(root / "scores.jsonl", "scores.v1", as_decoded)
        outcomes = {r["outcome"] for r in scores}
        assert outcomes == {"valid", "invalid"}
        fits = (root / "calibration_fits.tsv").read_text().splitlines()
        assert any(line.startswith("model\t") for line in fits)

    def test_byte_identical_reruns(self, tmp_path):
        a = run_synthetic_chain(tmp_path / "a")
        b = run_synthetic_chain(tmp_path / "b")
        for rel in ALL_OUTPUTS:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_offline_stages_never_touch_network(self, tmp_path, no_network):
        run_synthetic_chain(tmp_path / "run")

    def test_report_without_calibration_skips_section(self, tmp_path, capsys):
        root = run_synthetic_chain(tmp_path / "run")
        out2 = root / "report2"
        assert main(["report", "--scores", str(root / "scores.jsonl"),
                     "--out-dir", str(out2)]) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.out
        assert (out2 / "summary_by_model_effort.tsv").exists()
        assert (out2 / "baseline_win_rate.tsv").exists()
        assert not (out2 / "coverage_calibration.tsv").exists()

    def test_tool_comparison_section(self, tmp_path):
        root = run_synthetic_chain(tmp_path / "run")
        # second suite with identical questions but worse answers stands in
        # for the tool-enabled run
        tool_root = run_synthetic_chain(tmp_path / "tools", extra_simulate=["--bias", "4.0"])
        out = root / "report_tools"
        assert main(["report", "--scores", str(root / "scores.jsonl"),
                     "--tool-scores", str(tool_root / "scores.jsonl"),
                     "--out-dir", str(out)]) == 0
        lines = [
            line for line in (out / "tool_comparison.tsv").read_text().splitlines()
            if not line.startswith("#")
        ]
        header = lines[0].split("\t")
        assert header[:5] == ["dataset", "n_pairs", "median_ae_base", "median_ae_tools", "win_rate"]
        assert any(line.startswith("(all)") for line in lines[1:])

    def test_tool_comparison_of_runs_that_share_no_key_is_its_header(self, tmp_path):
        # the tool run's model id differs, so no (question, model, effort) is matched
        runs = []
        for name, extra in (("base", []), ("tools", ["--model-id", "other"])):
            suite = tmp_path / name / "suite"
            assert main(["simulate", "--n-questions", "20", "--seed", "1",
                         "--out-dir", str(suite), *extra]) == 0
            runs.append(_scores(suite, tmp_path / name))
        out = tmp_path / "report"
        assert main(["report", "--scores", str(runs[0]), "--tool-scores", str(runs[1]),
                     "--out-dir", str(out)]) == 0
        tsv = (out / "tool_comparison.tsv").read_text().splitlines()
        columns = [line for line in tsv if not line.startswith("#")]
        assert len(columns) == 1 and columns[0].startswith("dataset\tn_pairs\t")
        title, rule, header, closing = (out / "tool_comparison.txt").read_text().splitlines()
        assert header.split() == columns[0].split("\t") and rule == closing

    def test_proportion_baseline_rows(self, tmp_path):
        root = run_synthetic_chain(tmp_path / "run",
                                   extra_simulate=["--proportion-fraction", "0.5"])
        lines = (root / "report" / "baseline_win_rate.tsv").read_text().splitlines()
        assert any("synthetic" in line for line in lines[2:])


class TestGenerateCommand:
    def test_corpus_contents(self, tmp_path):
        config = tmp_path / "templates.json"
        shutil.copy(DATA / "templates_demo.json", config)
        shutil.copy(DATA / "health_fixture.csv", tmp_path / "health_fixture.csv")
        out = tmp_path / "corpus.jsonl"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        header, rows = read_jsonl(out, "corpus.v1", as_decoded)
        assert header["config_hash"]
        assert len(rows) == 4
        fields = {"question_id", "dataset_id", "params", "prompt", "kind", "truth"}
        for row in rows:
            assert set(row) == fields
            assert set(row["truth"]) == {"value", "lower", "upper", "n", "family", "k"}

    def test_table_with_a_byte_order_mark_gives_the_same_corpus(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF
        config = self.write_config(tmp_path, lambda raw: None)
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 0
        table = tmp_path / "health_fixture.csv"
        table.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d.jsonl")]) == 0
        assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "d.jsonl").read_bytes()

    def write_config(self, root: Path, edit) -> Path:
        raw = json.loads((DATA / "templates_demo.json").read_text())
        edit(raw)
        config = root / "templates.json"
        config.write_text(json.dumps(raw))
        shutil.copy(DATA / "health_fixture.csv", root / "health_fixture.csv")
        return config

    @pytest.mark.parametrize(
        "edit",
        [lambda raw: raw.pop("ci_level"),
         lambda raw: raw["datasets"][0].update(column_map={})],
        ids=["no_ci_level", "empty_column_map"],
    )
    def test_default_interval_settings_give_the_same_corpus(self, tmp_path, edit):
        config = self.write_config(tmp_path, edit)
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 0
        shutil.copy(DATA / "templates_demo.json", config)
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d.jsonl")]) == 0
        assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "d.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda raw: raw.update(ci_level=0.9), "ci_level must be 0.95"),
         (lambda raw: raw["datasets"][0].update(column_map={"gender": "sex"}),
          "column_map is not supported")],
        ids=["ci_level_0.9", "column_map"],
    )
    def test_other_interval_settings_are_2(self, tmp_path, capsys, edit, message):
        config = self.write_config(tmp_path, edit)
        capsys.readouterr()
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_question_id_repeated_across_datasets_is_2(self, tmp_path, capsys):
        # question ids hash the template id and params, not the dataset
        config = self.write_config(tmp_path, lambda raw: raw["datasets"].append(
            {**raw["datasets"][0], "dataset_id": "healthcopy"}))
        capsys.readouterr()
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duplicate question id ")
        assert "in datasets healthfix and healthcopy" in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("cut, cells", [(lambda line: line.rsplit(",", 2)[0], 2),
                                            (lambda line: line + ",extra", 5)],
                             ids=["short_rows", "long_rows"])
    def test_row_of_another_width_than_the_header_is_2(self, tmp_path, capsys, cut, cells):
        config = self.write_config(tmp_path, lambda raw: None)
        table = tmp_path / "health_fixture.csv"
        header, *rows = table.read_text(encoding="utf-8").splitlines()
        rows = [cut(row) if i % 2 == 0 else row for i, row in enumerate(rows)]
        table.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{table}: line 2 has {cells} cells, the header 4" in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["datasets"][0]["templates"][0].update(min_group_size=0),
         "smoking-rate: min_group_size must be >= 1"),
        (lambda raw: raw["datasets"][0]["templates"][0].update(axes={}),
         "smoking-rate: at least one parameter axis required"),
        (lambda raw: raw["datasets"][0].update(table="missing.csv"),
         "dataset table not found: {root}/missing.csv"),
    ], ids=["min_group_size_0", "no_axes", "missing_table"])
    def test_template_or_table_it_cannot_use_is_2(self, tmp_path, capsys, edit, message):
        config = self.write_config(tmp_path, edit)
        capsys.readouterr()
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {message.format(root=tmp_path)}\n"
        assert not (tmp_path / "c.jsonl").exists()

    def test_a_table_header_that_repeats_a_column_is_2(self, tmp_path, capsys):
        # "sex,sex,smoked,bmi" would read each row's age group as its sex
        config = self.write_config(tmp_path, lambda raw: None)
        table = tmp_path / "health_fixture.csv"
        header, rest = table.read_text(encoding="utf-8").split("\n", 1)
        table.write_text(header.replace("age_group", "sex") + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {table}: the header names column 'sex' twice\n"
        assert not (tmp_path / "c.jsonl").exists()

    def test_seed_override_changes_sample(self, tmp_path):
        config = tmp_path / "templates.json"
        shutil.copy(DATA / "templates_demo.json", config)
        shutil.copy(DATA / "health_fixture.csv", tmp_path / "health_fixture.csv")
        main(["generate", "--config", str(config), "--out", str(tmp_path / "a.jsonl")])
        main(["generate", "--config", str(config), "--seed", "99",
              "--out", str(tmp_path / "b.jsonl")])
        a = (tmp_path / "a.jsonl").read_bytes()
        b = (tmp_path / "b.jsonl").read_bytes()
        assert a != b


def _demo_config(**edits) -> str:
    """The demo corpus config with top-level keys, or keys of its first template, edited."""
    raw = json.loads((DATA / "templates_demo.json").read_text())
    template = raw["datasets"][0]["templates"][0]
    for key, value in edits.items():
        (raw if key in raw else template)[key] = value
    return json.dumps(raw)


class TestExitCodes:
    def test_missing_artifact_is_3(self, tmp_path, capsys):
        code = main(["extract", "--transcript", str(tmp_path / "nope.jsonl"),
                     "--corpus", str(tmp_path / "nope2.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 3
        assert "nope.jsonl" in capsys.readouterr().err

    def test_bad_config_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        shutil.copy(DATA / "health_fixture.csv", tmp_path / "health_fixture.csv")
        for text, extra, message in [
            ("{not json", [], "invalid JSON"),
            ("[]", ["--seed", "3"], "CorpusConfig row: expected an object, got []"),
            # config values are not coerced, and a count must be at least 1
            (_demo_config(questions_per_dataset=2.9), [],
             "CorpusConfig row: questions_per_dataset: expected an integer, got 2.9"),
            (_demo_config(questions_per_dataset=-1), [], "questions_per_dataset must be >= 1, got -1"),
            (_demo_config(questions_per_dataset=0), [], "questions_per_dataset must be >= 1, got 0"),
            (_demo_config(seed="5"), [], "CorpusConfig row: seed: expected an integer, got '5'"),
            (_demo_config(datasets={}), [], "CorpusConfig row: datasets: expected a list, got {}"),
            (_demo_config(min_group_size=True), [],
             "QuestionTemplate row: min_group_size: expected an integer, got True"),
            (_demo_config(success_value=1), [],
             "QuestionTemplate row: success_value: expected a string, got 1"),
            (_demo_config(axes={"sex": [1, 2]}), [],
             "QuestionTemplate row: axes: expected a string, got 1"),
            (_demo_config(kind="share"), [], "QuestionTemplate row: kind: 'share' is not a valid"),
            # more digits than int() converts
            ('{"seed": ' + "9" * 5000 + "}", [], "invalid JSON ("),
        ]:
            bad.write_text(text)
            capsys.readouterr()
            code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "c.jsonl"), *extra])
            assert code == 2, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, (text, err)
            assert not (tmp_path / "c.jsonl").exists(), text

    def test_generate_without_its_config_file_is_2(self, tmp_path, capsys):
        missing = tmp_path / "templates.json"
        capsys.readouterr()
        assert main(["generate", "--config", str(missing), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize(
        "flag, field",
        [("--width-shrink", "width_shrink"), ("--bias", "bias"), ("--noise", "noise_sd"),
         ("--refusal-rate", "refusal_rate"), ("--sigma-true", "sigma_true"),
         ("--proportion-fraction", "proportion_fraction")],
    )
    def test_simulate_flag_nan_is_2(self, tmp_path, capsys, flag, field):
        capsys.readouterr()
        assert main(["simulate", "--n-questions", "5", flag, "nan",
                     "--out-dir", str(tmp_path / "suite")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ")
        assert not (tmp_path / "suite").exists()

    @pytest.mark.parametrize("stage, flag, message",
                             [("simulate", "--n-questions", "n_questions must be >= 1"),
                              ("calibrate", "--min-cal", "min_cal must be >= 1")])
    def test_count_of_zero_is_2_before_any_file(self, tmp_path, capsys, stage, flag, message):
        root = _small_chain(tmp_path, n=5) if stage == "calibrate" else tmp_path
        argv = {"simulate": ["--out-dir", str(root / "zero")],
                "calibrate": ["--scores", str(root / "scores.jsonl"), "--out",
                              str(root / "zero" / "c.jsonl"), "--fits", str(root / "zero" / "f.tsv")]}
        capsys.readouterr()
        assert main([stage, flag, "0", *argv[stage]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (root / "zero").exists()

    @pytest.mark.parametrize("stage", ["elicit", "extract", "score"])
    def test_corpus_with_a_repeated_question_id_is_2(self, tmp_path, capsys, stage):
        root = _small_chain(tmp_path, n=5)
        corpus = root / "suite" / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        corpus.write_text("\n".join([*lines, lines[1]]) + "\n", encoding="utf-8")
        repeated = json.loads(lines[1])["question_id"]
        argv = {"elicit": ["--models", str(root / "models.json"), "--manifest", str(root / "m.json")],
                "extract": ["--transcript", str(root / "suite" / "transcript.jsonl")],
                "score": ["--parsed", str(root / "parsed.jsonl")]}[stage]
        capsys.readouterr()
        assert main([stage, "--corpus", str(corpus), *argv, "--out", str(root / "again.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {corpus}: question_id {repeated} is repeated\n"
        assert not (root / "again.jsonl").exists()

    @pytest.mark.parametrize("bad", ["transcript_dir", "config_dir", "out_under_a_file",
                                     "out_dir_under_a_file"])
    def test_path_that_cannot_be_read_or_written_is_2(self, tmp_path, capsys, bad):
        root = _small_chain(tmp_path, n=5)
        (root / "a_file").write_text("", encoding="utf-8")
        shutil.copy(DATA / "templates_demo.json", root / "templates.json")
        shutil.copy(DATA / "health_fixture.csv", root / "health_fixture.csv")
        argv = {
            "transcript_dir": ["extract", "--transcript", str(root / "suite"),
                               "--corpus", str(root / "suite" / "corpus.jsonl"),
                               "--out", str(root / "again.jsonl")],
            "config_dir": ["generate", "--config", str(root / "suite"),
                           "--out", str(root / "again.jsonl")],
            "out_under_a_file": ["generate", "--config", str(root / "templates.json"),
                                 "--out", str(root / "a_file" / "again.jsonl")],
            "out_dir_under_a_file": ["report", "--scores", str(root / "scores.jsonl"),
                                     "--out-dir", str(root / "a_file" / "report")],
        }[bad]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (root / "again.jsonl").exists()

    @pytest.mark.parametrize(
        "backoff, max_retries, message",
        [("-1", 1, "backoff_base must be finite and >= 0, got -1.0"),
         ("nan", 1, "backoff_base must be finite and >= 0, got nan"),
         ("inf", 1, "backoff_base must be finite and >= 0, got inf"),
         # 1 s doubled over 40 retries is 2^39 s, more than threading.TIMEOUT_MAX
         ("1", 40, "stub: backoff_base 1.0 with max_retries 40 backs off longer than"),
         # and 2^999999 does not fit a float
         ("1e-300", 10**6, "stub: backoff_base 1e-300 with max_retries 1000000 backs off"),
         ("0", 10**6, None)],
        ids=["negative", "nan", "infinity", "too_long", "too_long_many_retries",
             "zero_many_retries"],
    )
    def test_backoff_that_cannot_be_slept_is_2_before_the_transcript(
            self, tmp_path, monkeypatch, capsys, backoff, max_retries, message):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])
        state = StubState()
        with StubServer(state) as server:
            (tmp_path / "models.json").write_text(json.dumps({"models": [
                {**STUB_SPEC, "endpoint_url": server.url, "max_retries": max_retries}]}))
            argv = ["elicit", "--corpus", str(suite / "corpus.jsonl"),
                    "--models", str(tmp_path / "models.json"), "--efforts", "low",
                    "--out", str(tmp_path / "t.jsonl"), "--manifest", str(tmp_path / "m.json")]
            capsys.readouterr()
            code = main([*argv, "--backoff-base", backoff])
            if message is None:  # no backoff is too long
                assert code == 0
                return
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert not (tmp_path / "t.jsonl").exists()
            # nor is a transcript of this run config appended to on --resume
            assert main([*argv, "--backoff-base", "0"]) == 0
            before = (tmp_path / "t.jsonl").read_bytes()
            assert main([*argv, "--backoff-base", backoff, "--resume"]) == 2
        assert (tmp_path / "t.jsonl").read_bytes() == before
        assert state.requests == 2

    def test_partial_transport_failure_is_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])
        state = StubState(permanent_status=503)
        with StubServer(state) as server:
            models = tmp_path / "models.json"
            models.write_text(json.dumps({
                "models": [{
                    "model_id": "stub", "endpoint_url": server.url,
                    "auth_env_var": "STUB_API_KEY", "max_retries": 0,
                    "rate_limit_per_minute": 100000,
                }]
            }))
            code = main(["elicit", "--corpus", str(suite / "corpus.jsonl"),
                         "--models", str(models), "--efforts", "low",
                         "--backoff-base", "0.01",
                         "--out", str(tmp_path / "t.jsonl"),
                         "--manifest", str(tmp_path / "m.json")])
        assert code == 4
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["counts"]["failed"] == 2

    def test_manifest_decoding_is_what_the_requests_sent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])
        state = StubState()
        with StubServer(state) as server:
            (tmp_path / "models.json").write_text(json.dumps({"models": [
                {**STUB_SPEC, "endpoint_url": server.url}]}))
            assert main(["elicit", "--corpus", str(suite / "corpus.jsonl"),
                         "--models", str(tmp_path / "models.json"), "--efforts", "low",
                         "--out", str(tmp_path / "t.jsonl"),
                         "--manifest", str(tmp_path / "m.json")]) == 0
        decoding = json.loads((tmp_path / "m.json").read_text())["decoding"]
        assert decoding == {"temperature": 0}
        assert len(state.payloads) == 2
        for payload in state.payloads:
            assert {name: payload[name] for name in decoding} == decoding

    def test_ctrl_c_during_elicit_is_130_with_a_manifest_and_resumes(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        assert main(["simulate", "--n-questions", "200", "--seed", "0",
                     "--out-dir", str(suite)]) == 0
        transcript = tmp_path / "t.jsonl"
        # The child installs Python's SIGINT handler itself: a parent that runs
        # in the background may have passed SIGINT on as ignored.
        child = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                 "from elicitbench.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        with StubServer(StubState(delay=0.02)) as server:
            argv = _elicit_argv(tmp_path, suite, server.url, "--efforts", "low",
                                "--concurrency", "2")
            proc = subprocess.Popen([sys.executable, "-c", child, *argv], env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            try:
                deadline = time.monotonic() + 60
                while (not transcript.exists()
                       or len(transcript.read_bytes().splitlines()) < 2):
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
            assert proc.returncode == 130, err
            assert "Traceback" not in err
            assert "--resume" in err and len(err.splitlines()) == 1
            _, rows = read_jsonl(transcript, "transcript.v1", as_decoded)
            assert 0 < len(rows) < 200
            counts = json.loads((tmp_path / "m.json").read_text())["counts"]
            assert counts["ok"] + counts["failed"] == len(rows)
            assert main([*argv, "--resume"]) == 0
        _, rows = read_jsonl(transcript, "transcript.v1", as_decoded)
        keys = [(r["question_id"], r["model_id"], r["effort"], r["tools_enabled"]) for r in rows]
        assert len(keys) == len(set(keys)) == 200
        assert all(r["transport_status"] == "ok" for r in rows)

    def test_ctrl_c_during_simulate_is_130_and_leaves_no_temp_file(self, tmp_path):
        out = tmp_path / "suite"
        child = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                 "from elicitbench.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.Popen(
            [sys.executable, "-c", child, "simulate", "--n-questions", "20000",
             "--out-dir", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not list(out.glob(".corpus.jsonl.*.tmp")):  # the corpus is being written
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130, err
        assert "Traceback" not in err and len(err.splitlines()) == 1, err
        assert not list(out.glob(".*.tmp"))

    def test_elicit_ok_and_scoreable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "3", "--seed", "0", "--out-dir", str(suite)])
        state = StubState(reply="value: 101.5, lower: 95.0, upper: 108.0")
        with StubServer(state) as server:
            models = tmp_path / "models.json"
            models.write_text(json.dumps({
                "models": [{
                    "model_id": "stub", "endpoint_url": server.url,
                    "auth_env_var": "STUB_API_KEY",
                    "rate_limit_per_minute": 100000,
                }]
            }))
            code = main(["elicit", "--corpus", str(suite / "corpus.jsonl"),
                         "--models", str(models), "--efforts", "low,high",
                         "--out", str(tmp_path / "t.jsonl"),
                         "--manifest", str(tmp_path / "m.json")])
        assert code == 0
        assert main(["extract", "--transcript", str(tmp_path / "t.jsonl"),
                     "--corpus", str(suite / "corpus.jsonl"),
                     "--out", str(tmp_path / "parsed.jsonl")]) == 0
        assert main(["score", "--parsed", str(tmp_path / "parsed.jsonl"),
                     "--corpus", str(suite / "corpus.jsonl"),
                     "--out", str(tmp_path / "scores.jsonl")]) == 0
        _, rows = read_jsonl(tmp_path / "scores.jsonl", "scores.v1", as_decoded)
        assert len(rows) == 6
        assert all(r["outcome"] == "valid" for r in rows)

    def test_extract_keeps_the_last_record_of_each_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])

        state = StubState(reply="value: 101.5, lower: 95.0, upper: 108.0", permanent_status=503)
        with StubServer(state) as server:
            argv = _elicit_argv(tmp_path, suite, server.url, "--efforts", "low")
            assert main(argv) == 4
            state.permanent_status = None
            assert main(argv + ["--resume"]) == 0
        _, transcript = read_jsonl(tmp_path / "t.jsonl", "transcript.v1", as_decoded)
        assert [r["transport_status"] for r in transcript] == ["failed", "failed", "ok", "ok"]
        capsys.readouterr()
        assert main(["extract", "--transcript", str(tmp_path / "t.jsonl"),
                     "--corpus", str(suite / "corpus.jsonl"),
                     "--out", str(tmp_path / "parsed.jsonl")]) == 0
        assert "parsed 2 valid, 0 invalid, 0 transport-failed" in capsys.readouterr().out
        _, parsed = read_jsonl(tmp_path / "parsed.jsonl", "parsed.v1", as_decoded)
        # in the answers' order, which need not be the failures' order
        assert [r["question_id"] for r in parsed] == [r["question_id"] for r in transcript[2:]]
        assert [r["outcome"] for r in parsed] == ["valid", "valid"]

    def test_resume_with_other_efforts_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])
        state = StubState()
        with StubServer(state) as server:
            assert main(_elicit_argv(tmp_path, suite, server.url, "--efforts", "low")) == 0
            before = (tmp_path / "t.jsonl").read_bytes()
            capsys.readouterr()
            code = main(_elicit_argv(tmp_path, suite, server.url,
                                     "--efforts", "low,high", "--resume"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot resume" in err
        assert (tmp_path / "t.jsonl").read_bytes() == before
        assert state.requests == 2

    def test_resume_without_a_transcript_runs_the_whole_plan(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])
        state = StubState()
        with StubServer(state) as server:
            assert main(_elicit_argv(tmp_path, suite, server.url, "--efforts", "low,high",
                                     "--out", str(tmp_path / "fresh.jsonl"))) == 0
            assert main(_elicit_argv(tmp_path, suite, server.url, "--efforts", "low,high",
                                     "--resume")) == 0
        assert state.requests == 8
        lines = (tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines[0] == (tmp_path / "fresh.jsonl").read_text(encoding="utf-8").splitlines()[0]
        rows = [json.loads(line) for line in lines[1:]]
        assert [row["transport_status"] for row in rows] == ["ok"] * 4
        counts = json.loads((tmp_path / "m.json").read_text())["counts"]
        assert (counts["requested"], counts["skipped_resume"]) == (4, 0)

    @pytest.mark.parametrize(
        "extra, models, message",
        [(["--efforts", "low,extreme"], None, "unknown effort level 'extreme'"),
         (["--efforts", ""], None, "no effort levels requested"),
         (["--concurrency", "0"], None, "concurrency must be >= 1"),
         ([], {"models": []}, "no model specs configured"),
         ([], [], "models.json must be a JSON object"),
         ([], {"models": {}}, '"models" must be a list'),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "effort_mode": "non_reasoning"}]},
          "effort_mode must be a JSON object"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "tool_policy": "web_search"}]},
          "tool_policy must be a JSON object"),
         (["--efforts", "none"], None, "select no level of any model spec"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": "htp://x/v1"}]}, BAD_URL),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": "not a url"}]}, BAD_URL),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": "https:///v1"}]}, BAD_URL),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": "ftp://x:21/v1"}]}, BAD_URL),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": 5}]},
          "bad model spec 'stub': ModelSpec row: endpoint_url: expected a string, got 5"),
         # config values are not coerced, and a timeout or rate must be above 0
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL, "auth_env_var": 5}]},
          "bad model spec 'stub': ModelSpec row: auth_env_var: expected a string, got 5"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL, "max_retries": 2.9}]},
          "bad model spec 'stub': ModelSpec row: max_retries: expected an integer, got 2.9"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL, "timeout": "60"}]},
          "bad model spec 'stub': ModelSpec row: timeout: expected a number, got '60'"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "timeout": float("nan")}]},
          "bad model spec 'stub': ModelSpec row: timeout: expected a finite number, got nan"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL, "timeout": -1}]},
          "bad model spec 'stub': timeout must be > 0, got -1.0"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL, "timeout": 0}]},
          "bad model spec 'stub': timeout must be > 0, got 0.0"),
         # a socket cannot take a timeout above threading.TIMEOUT_MAX
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL, "timeout": 1e10}]},
          "bad model spec 'stub': timeout must be <= "),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "timeout": float("inf")}]},
          "bad model spec 'stub': ModelSpec row: timeout: expected a finite number, got inf"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "rate_limit_per_minute": float("nan")}]},
          "bad model spec 'stub': ModelSpec row: rate_limit_per_minute: expected a finite number, "
          "got nan"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "effort_mode": {"budgets": {"low": "2000", "medium": 8000,
                                                       "high": 16000}}}]},
          "bad model spec 'stub': TokenBudget row: budgets: expected an integer, got '2000'"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "effort_mode": {"type": "vendor_param", "param": 5, "values": {}}}]},
          "bad model spec 'stub': VendorParam row: param: expected a string, got 5"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "tool_policy": {"type": "web_search", "max_searches": "3"}}]},
          "bad model spec 'stub': WebSearch row: max_searches: expected an integer, got '3'"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "tool_policy": {"type": "websearch"}}]},
          "bad model spec 'stub': unknown tool policy 'websearch'"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "effort_mode": {"type": "thinking"}}]},
          "bad model spec 'stub': unknown effort mode 'thinking'"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL, "max_retries": -1}]},
          "bad model spec 'stub': max_retries must be >= 0"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL},
                          {**STUB_SPEC, "endpoint_url": STUB_URL, "model_id": 7}]},
          "bad model spec models[1]: ModelSpec row: model_id: expected a string, got 7"),
         ([], {"models": ["stub"]},
          "bad model spec models[0]: ModelSpec row: expected an object, got 'stub'"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "auth_env_var": "STUB_KEY_NEWLINE"}]}, BAD_KEY),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "auth_env_var": "STUB_KEY_WIDE"}]}, BAD_KEY),
         # specs share keys, headers and rate limiters by model_id
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL + "/a"},
                          {**STUB_SPEC, "endpoint_url": STUB_URL + "/c", "model_id": "other"},
                          {**STUB_SPEC, "endpoint_url": STUB_URL + "/b",
                           "auth_env_var": "STUB_KEY_B"}]},
          "model_id 'stub' is repeated, in models[0] and models[2]"),
         # a repeated effort level would request every key twice
         (["--efforts", "low,low"], None, "effort level 'low' is repeated"),
         (["--efforts", "low,high,LOW"], None, "effort level 'low' is repeated"),
         # a sleep takes a finite length in [0, threading.TIMEOUT_MAX]
         (["--backoff-base", "-1"], None, "backoff_base must be finite and >= 0, got -1.0"),
         (["--backoff-base", "nan"], None, "backoff_base must be finite and >= 0, got nan"),
         (["--backoff-base", "inf"], None, "backoff_base must be finite and >= 0, got inf"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "rate_limit_per_minute": 1e-9}]},
          "bad model spec 'stub': rate_limit_per_minute must be >= 6.5"),
         ([], {"models": [{**STUB_SPEC, "endpoint_url": STUB_URL,
                           "rate_limit_per_minute": 5e-324}]},
          "bad model spec 'stub': rate_limit_per_minute must be >= 6.5")],
        ids=["unknown_effort", "empty_efforts", "zero_concurrency", "no_specs",
             "top_level_list", "models_not_a_list", "effort_mode_string", "tool_policy_string",
             "nothing_selected", "unknown_scheme", "not_a_url", "no_host", "other_scheme_with_port",
             "not_a_string", "auth_env_var_int", "max_retries_float", "timeout_string",
             "timeout_nan", "timeout_negative", "timeout_zero", "timeout_1e10", "timeout_infinity",
             "rate_nan", "budget_string", "vendor_param_int", "max_searches_string",
             "unknown_tool_policy", "unknown_effort_mode", "max_retries_negative",
             "model_id_int", "spec_string",
             "key_with_newline", "key_outside_latin1", "model_id_repeated",
             "effort_repeated", "effort_repeated_in_another_case", "backoff_negative",
             "backoff_nan", "backoff_infinity", "rate_interval_too_long", "rate_interval_infinite"],
    )
    def test_bad_elicit_config_is_2_before_the_transcript(self, tmp_path, monkeypatch, capsys,
                                                          extra, models, message):
        monkeypatch.setenv("STUB_API_KEY", "k")
        for name, value in BAD_KEYS.items():
            monkeypatch.setenv(name, value)
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])
        state = StubState()
        with StubServer(state) as server:
            argv = _elicit_argv(tmp_path, suite, server.url, *extra)
            if models is not None:
                models_json = json.dumps(models).replace(STUB_URL, server.url)
                (tmp_path / "models.json").write_text(models_json)
            capsys.readouterr()
            code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "t.jsonl").exists()
        assert state.requests == 0

    def test_spec_integer_of_more_digits_than_int_converts_is_2(self, tmp_path, monkeypatch,
                                                                 capsys):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite = tmp_path / "suite"
        main(["simulate", "--n-questions", "2", "--seed", "0", "--out-dir", str(suite)])
        state = StubState()
        with StubServer(state) as server:
            argv = _elicit_argv(tmp_path, suite, server.url)
            models = tmp_path / "models.json"
            models.write_text(models.read_text().replace('"max_retries": 0',
                                                         '"max_retries": ' + "9" * 5000))
            capsys.readouterr()
            code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {models}: invalid JSON (") and "4300" in err
        assert not (tmp_path / "t.jsonl").exists()
        assert state.requests == 0


def _elicit_argv(root: Path, suite: Path, url: str, *extra: str) -> list[str]:
    """Write a one-model spec file for the stub at url; return the elicit argv."""
    models = root / "models.json"
    models.write_text(json.dumps({"models": [{**STUB_SPEC, "endpoint_url": url}]}))
    return ["elicit", "--corpus", str(suite / "corpus.jsonl"), "--models", str(models),
            "--out", str(root / "t.jsonl"), "--manifest", str(root / "m.json"), *extra]


def _scores(suite: Path, out: Path) -> Path:
    """extract -> score of a simulated suite; returns the scores path."""
    assert main(["extract", "--transcript", str(suite / "transcript.jsonl"),
                 "--corpus", str(suite / "corpus.jsonl"),
                 "--out", str(out / "parsed.jsonl")]) == 0
    assert main(["score", "--parsed", str(out / "parsed.jsonl"),
                 "--corpus", str(suite / "corpus.jsonl"),
                 "--out", str(out / "scores.jsonl")]) == 0
    return out / "scores.jsonl"


def _small_chain(root: Path, seed: int = 3, n: int = 40) -> Path:
    """simulate -> extract -> score -> calibrate on a small suite, offline."""
    suite = root / "suite"
    assert main(["simulate", "--n-questions", str(n), "--width-shrink", "2",
                 "--seed", str(seed), "--out-dir", str(suite)]) == 0
    assert main(["extract", "--transcript", str(suite / "transcript.jsonl"),
                 "--corpus", str(suite / "corpus.jsonl"),
                 "--out", str(root / "parsed.jsonl")]) == 0
    assert main(["score", "--parsed", str(root / "parsed.jsonl"),
                 "--corpus", str(suite / "corpus.jsonl"),
                 "--out", str(root / "scores.jsonl")]) == 0
    assert main(["calibrate", "--scores", str(root / "scores.jsonl"),
                 "--out", str(root / "calibrated.jsonl"),
                 "--fits", str(root / "fits.tsv")]) == 0
    return root


def _edit_first_valid_row(path: Path, edit) -> None:
    """Edit the first row whose outcome is valid; transcript rows have none, so the first row."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(rows):
        row = json.loads(line)
        if row.get("outcome", "valid") == "valid":
            edit(row)
            rows[i] = json.dumps(row)
            break
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


class TestMalformedArtifacts:
    """A malformed artifact exits 2 with an error line, not a traceback."""

    def assert_schema_error(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        return err

    def test_score_row_without_nll(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        _edit_first_valid_row(root / "scores.jsonl", lambda row: row.pop("nll"))
        err = self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                        "--out-dir", str(root / "report")], capsys)
        assert "ScoredRecord" in err and "nll" in err

    def test_transcript_row_without_raw_text(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        _edit_first_valid_row(root / "suite" / "transcript.jsonl", lambda row: row.pop("raw_text"))
        err = self.assert_schema_error(["extract", "--transcript", str(root / "suite" / "transcript.jsonl"),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "parsed2.jsonl")], capsys)
        assert "ElicitationRecord" in err and "raw_text" in err

    @pytest.mark.parametrize(
        "field", ["model_id", "effort", "tools_enabled", "outcome", "question_id"])
    def test_parsed_row_without_key_field(self, tmp_path, capsys, field):
        root = _small_chain(tmp_path)
        _edit_first_valid_row(root / "parsed.jsonl", lambda row: row.pop(field))
        err = self.assert_schema_error(["score", "--parsed", str(root / "parsed.jsonl"),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "scores2.jsonl")], capsys)
        assert field in err

    @pytest.mark.parametrize(
        "artifact, stage, flag",
        [("suite/transcript.jsonl", "extract", "--transcript"),
         ("parsed.jsonl", "score", "--parsed")],
        ids=["transcript", "parsed"],
    )
    def test_row_naming_unknown_question(self, tmp_path, capsys, artifact, stage, flag):
        root = _small_chain(tmp_path)
        _edit_first_valid_row(root / artifact, lambda row: row.update(question_id="no-such-q"))
        err = self.assert_schema_error([stage, flag, str(root / artifact),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "again.jsonl")], capsys)
        assert "unknown question no-such-q" in err

    @pytest.mark.parametrize(
        "edit",
        [{"dataset_id": "other"}, {"kind": "proportion"},
         {"dataset_id": "other", "kind": "proportion"}],
        ids=["dataset_id", "kind", "both"],
    )
    def test_parsed_row_disagreeing_with_the_corpus(self, tmp_path, capsys, edit):
        # score scores the parsed row as read; it does not take the corpus's values over
        root = _small_chain(tmp_path)
        edited = {}
        _edit_first_valid_row(root / "parsed.jsonl",
                              lambda row: (edited.update(row), row.update(edit)))
        err = self.assert_schema_error(["score", "--parsed", str(root / "parsed.jsonl"),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "scores2.jsonl")], capsys)
        assert f"question {edited['question_id']}" in err
        assert not (root / "scores2.jsonl").exists()

    def test_corpus_truth_without_a_sample_is_2(self, tmp_path, capsys):
        root = _small_chain(tmp_path, n=5)
        corpus = root / "suite" / "corpus.jsonl"
        _edit_first_valid_row(corpus, lambda row: row["truth"].update(n=0))
        err = self.assert_schema_error(
            ["extract", "--transcript", str(root / "suite" / "transcript.jsonl"),
             "--corpus", str(corpus), "--out", str(root / "again.jsonl")], capsys)
        assert f"{corpus}: row 1: ground truth sample size must be positive" in err
        assert not (root / "again.jsonl").exists()

    @staticmethod
    def mixed_suite(root: Path) -> Path:
        """A simulated suite of two proportion and two continuous questions, extracted."""
        suite = root / "suite"
        assert main(["simulate", "--n-questions", "4", "--proportion-fraction", "0.5",
                     "--seed", "3", "--out-dir", str(suite)]) == 0
        assert main(["extract", "--transcript", str(suite / "transcript.jsonl"),
                     "--corpus", str(suite / "corpus.jsonl"),
                     "--out", str(root / "parsed.jsonl")]) == 0
        return suite

    @staticmethod
    def edit_truth_of_kind(corpus: Path, kind: str, edit) -> int:
        """Edit the truth of the first corpus row of `kind`; returns its row number."""
        header, *rows = corpus.read_text(encoding="utf-8").splitlines()
        number = next(i for i, line in enumerate(rows, 1) if json.loads(line)["kind"] == kind)
        row = json.loads(rows[number - 1])
        edit(row["truth"])
        rows[number - 1] = json.dumps(row)
        corpus.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return number

    @pytest.mark.parametrize("kind, edit, message", [
        ("proportion", lambda truth: truth.update(k=truth["n"] + 1),
         "success count must satisfy 0 <= k <= n"),
        ("proportion", lambda truth: truth.update(value=150.0, lower=150.0, upper=150.0),
         "proportion ground truth must lie in [0, 100]"),
        ("proportion", lambda truth: truth.update(family="gaussian", k=None),
         "a proportion question needs a binomial truth, not a gaussian one"),
        ("continuous", lambda truth: truth.update(value=40.0, lower=30.0, upper=50.0, n=100,
                                                  family="binomial", k=40),
         "a continuous question needs a gaussian truth, not a binomial one"),
    ], ids=["k_above_n", "percent_above_100", "proportion_gaussian", "continuous_binomial"])
    @pytest.mark.parametrize("stage, flag, upstream", [
        ("extract", "--transcript", "suite/transcript.jsonl"),
        ("score", "--parsed", "parsed.jsonl"),
    ], ids=["extract", "score"])
    def test_corpus_truth_its_question_cannot_have_is_2(self, tmp_path, capsys, kind, edit,
                                                          message, stage, flag, upstream):
        corpus = self.mixed_suite(tmp_path) / "corpus.jsonl"
        number = self.edit_truth_of_kind(corpus, kind, edit)
        capsys.readouterr()
        assert main([stage, flag, str(tmp_path / upstream), "--corpus", str(corpus),
                     "--out", str(tmp_path / "again.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {corpus}: row {number}: {message}\n"
        assert not (tmp_path / "again.jsonl").exists()

    def test_transcript_row_with_an_unknown_transport_status(self, tmp_path, capsys):
        # an answered row spelled "OK" is neither "ok" nor "failed", not a transport failure
        root = _small_chain(tmp_path)
        transcript = root / "suite" / "transcript.jsonl"
        _edit_first_valid_row(transcript, lambda row: row.update(transport_status="OK"))
        err = self.assert_schema_error(["extract", "--transcript", str(transcript),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "parsed2.jsonl")], capsys)
        assert f"{transcript}: row 1: ElicitationRecord row: transport_status" in err
        assert "'OK'" in err
        assert not (root / "parsed2.jsonl").exists()

    def test_non_numeric_triplet_value(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        _edit_first_valid_row(root / "parsed.jsonl",
                              lambda row: row["triplet"].update(value="abc"))
        err = self.assert_schema_error(["score", "--parsed", str(root / "parsed.jsonl"),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "scores2.jsonl")], capsys)
        assert "Triplet" in err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "9" * 400],
                             ids=["nan", "infinity", "minus_infinity", "1e999", "400_digits"])
    def test_triplet_number_a_float_cannot_hold(self, tmp_path, capsys, number):
        # Python's JSON reader takes NaN and Infinity, reads 1e999 as inf, and
        # keeps a long integer exact; a float field holds none of them
        root = _small_chain(tmp_path)
        parsed = root / "parsed.jsonl"
        _edit_first_valid_row(parsed, lambda row: row["triplet"].update(value="<number>"))
        header, *rows = parsed.read_text(encoding="utf-8").splitlines()
        row = next(i for i, line in enumerate(rows, 1) if "<number>" in line)
        parsed.write_text("\n".join([header, *rows]).replace('"<number>"', number) + "\n",
                          encoding="utf-8")
        err = self.assert_schema_error(["score", "--parsed", str(parsed),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "scores2.jsonl")], capsys)
        assert err.startswith(f"error: {parsed}: row {row}: Triplet row: value: "
                              "expected a finite number, got ")
        assert not (root / "scores2.jsonl").exists()

    @pytest.mark.parametrize(
        "triplet, truth",
        [({"value": 1e200, "lower": 0.0, "upper": 2e200}, None),  # the square overflows
         ({"value": 0.0, "lower": 0.0, "upper": 0.0}, 1e150)],  # the quotient is inf
        ids=["square_overflows", "quotient_is_inf"],
    )
    def test_valid_row_whose_nll_is_not_finite(self, tmp_path, capsys, triplet, truth):
        root = _small_chain(tmp_path)
        parsed, corpus = root / "parsed.jsonl", root / "suite" / "corpus.jsonl"
        header, *rows = parsed.read_text(encoding="utf-8").splitlines()
        number, row = next((i, json.loads(line)) for i, line in enumerate(rows, 1)
                           if '"outcome":"valid"' in line and '"kind":"continuous"' in line)
        row["triplet"].update(triplet)
        rows[number - 1] = json.dumps(row)
        parsed.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        if truth is not None:
            lines = corpus.read_text(encoding="utf-8").splitlines()
            for i, line in enumerate(lines[1:], 1):
                question = json.loads(line)
                if question["question_id"] == row["question_id"]:
                    question["truth"].update(value=truth, lower=truth, upper=truth)
                    lines[i] = json.dumps(question)
            corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = self.assert_schema_error(["score", "--parsed", str(parsed), "--corpus", str(corpus),
                                        "--out", str(root / "scores2.jsonl")], capsys)
        assert err.startswith(f"error: {parsed}: row {number}: question {row['question_id']}: "
                              "the NLL of value ")
        assert err.endswith(" is not a finite number\n")
        assert not (root / "scores2.jsonl").exists()

    def test_empty_fits_file(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        (root / "fits.tsv").write_text("", encoding="utf-8")
        self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                  "--calibration", str(root / "fits.tsv"),
                                  "--out-dir", str(root / "report")], capsys)

    def test_fits_of_only_their_comment_lines(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        lines = (root / "fits.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        (root / "fits.tsv").write_text("".join(line for line in lines if line.startswith("#")),
                                       encoding="utf-8")
        err = self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                        "--calibration", str(root / "fits.tsv"),
                                        "--out-dir", str(root / "report")], capsys)
        assert "empty file, expected a calibration fits table" in err
        assert not (root / "report").exists()

    def test_non_numeric_fits_cell(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        lines = (root / "fits.tsv").read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("model\t"))
        cells = lines[header + 1].split("\t")
        cells[lines[header].split("\t").index("n_cal")] = "x"
        lines[header + 1] = "\t".join(cells)
        (root / "fits.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                  "--calibration", str(root / "fits.tsv"),
                                  "--out-dir", str(root / "report")], capsys)

    def test_torn_last_line(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        scores = root / "scores.jsonl"
        scores.write_bytes(scores.read_bytes()[:-40])
        err = self.assert_schema_error(["report", "--scores", str(scores),
                                        "--out-dir", str(root / "report")], capsys)
        last = len(scores.read_text(encoding="utf-8").splitlines())
        assert str(scores) in err and f"line {last} is not JSON" in err

    @pytest.mark.parametrize(
        "artifact, stage, flag, out",
        [("suite/transcript.jsonl", "extract", "--transcript", "parsed.jsonl"),
         ("parsed.jsonl", "score", "--parsed", "scores.jsonl")],
        ids=["transcript", "parsed"],
    )
    def test_torn_middle_line_keeps_the_existing_output(self, tmp_path, capsys,
                                                        artifact, stage, flag, out):
        # score writes while it reads: the torn line is reached after rows were written
        root = _small_chain(tmp_path)
        lines = (root / artifact).read_text(encoding="utf-8").splitlines(keepends=True)
        middle = len(lines) // 2
        lines[middle] = lines[middle][: len(lines[middle]) // 2] + "\n"
        (root / artifact).write_text("".join(lines), encoding="utf-8")
        before = (root / out).read_bytes()
        err = self.assert_schema_error([stage, flag, str(root / artifact),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / out)], capsys)
        assert f"{root / artifact}: line {middle + 1} is not JSON" in err
        assert (root / out).read_bytes() == before
        assert not list(root.glob(f".{out}.*.tmp"))

    def test_byte_that_is_not_utf8(self, tmp_path, capsys):
        root = _small_chain(tmp_path)
        scores = root / "scores.jsonl"
        good = scores.read_bytes()
        scores.write_bytes(good + b"\xff\xfe\n")
        err = self.assert_schema_error(["report", "--scores", str(scores),
                                        "--out-dir", str(root / "report")], capsys)
        last = scores.read_bytes().count(b"\n")
        assert f"{scores}: line {last} is not JSON" in err
        scores.write_bytes(good)

        config = tmp_path / "templates.json"
        config.write_bytes((DATA / "templates_demo.json").read_bytes().replace(b"smoking", b"smok\xffing"))
        table = tmp_path / "health_fixture.csv"
        table.write_bytes((DATA / "health_fixture.csv").read_bytes() + b"\xff\n")
        err = self.assert_schema_error(["generate", "--config", str(config),
                                        "--out", str(tmp_path / "c.jsonl")], capsys)
        assert f"{config}: not UTF-8" in err
        shutil.copy(DATA / "templates_demo.json", config)
        err = self.assert_schema_error(["generate", "--config", str(config),
                                        "--out", str(tmp_path / "c.jsonl")], capsys)
        assert f"{table}: not UTF-8" in err

        models = tmp_path / "models.json"
        models.write_bytes(b'{"models": [{"model_id": "st\xffub", "endpoint_url": "http://localhost"}]}')
        err = self.assert_schema_error(["elicit", "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--models", str(models), "--out", str(tmp_path / "t.jsonl"),
                                        "--manifest", str(tmp_path / "m.json")], capsys)
        assert f"{models}: not UTF-8" in err
        assert not (tmp_path / "t.jsonl").exists()

        fits = root / "fits.tsv"
        with fits.open("ab") as fh:
            fh.write(b"# \xff\n")
        err = self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                        "--calibration", str(fits),
                                        "--out-dir", str(root / "report")], capsys)
        assert f"{fits}: not UTF-8" in err

    def test_integer_of_more_digits_than_int_converts(self, tmp_path, capsys):
        # the JSON reader converts an integer literal with int(), which takes
        # at most 4,300 digits
        root = _small_chain(tmp_path)
        transcript = root / "suite" / "transcript.jsonl"
        header, first, *rows = transcript.read_text(encoding="utf-8").splitlines()
        first = json.dumps({**json.loads(first), "latency_ms": "<n>"}).replace('"<n>"', "9" * 5000)
        transcript.write_text("\n".join([header, first, *rows]) + "\n", encoding="utf-8")
        err = self.assert_schema_error(["extract", "--transcript", str(transcript),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "parsed2.jsonl")], capsys)
        assert err.startswith(f"error: {transcript}: line 2 is not JSON (")
        assert "4300" in err
        assert not (root / "parsed2.jsonl").exists()

    @pytest.mark.parametrize(
        "artifact, stage, flag, field, value",
        [("parsed.jsonl", "score", "--parsed", "tools_enabled", "false"),
         ("suite/transcript.jsonl", "extract", "--transcript", "tools_enabled", "false"),
         ("suite/transcript.jsonl", "extract", "--transcript", "attempt_count", 2.9),
         ("suite/transcript.jsonl", "extract", "--transcript", "latency_ms", "12")],
        ids=["parsed_tools_enabled", "transcript_tools_enabled", "attempt_count", "latency_ms"],
    )
    def test_field_of_another_type(self, tmp_path, capsys, artifact, stage, flag, field, value):
        # the record codec does not coerce: "false" is not read as true, nor 2.9 as 2
        root = _small_chain(tmp_path)
        _edit_first_valid_row(root / artifact, lambda row: row.update({field: value}))
        err = self.assert_schema_error([stage, flag, str(root / artifact),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "again.jsonl")], capsys)
        assert f"{field}" in err and repr(value) in err

    @pytest.mark.parametrize("field", ["model_id", "effort", "dataset_id"])
    def test_invalid_score_row_without_key_field(self, tmp_path, capsys, field):
        root = _small_chain(tmp_path)

        def unscore(row):
            row.update(outcome="invalid")
            row.pop(field)

        _edit_first_valid_row(root / "scores.jsonl", unscore)
        err = self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                        "--out-dir", str(root / "report")], capsys)
        assert f"ParsedRecord row: missing field {field!r}" in err

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda row: row.update(triplet=None), "outcome 'valid' without a triplet"),
         (lambda row: row.update(outcome="invalid", reason="no_numbers"),
          "outcome 'invalid' with a triplet"),
         (lambda row: row.update(outcome="maybe"), "outcome: 'maybe' is not a valid Outcome")],
        ids=["valid_without_triplet", "invalid_with_triplet", "unknown_outcome"],
    )
    def test_parsed_row_with_a_bad_outcome(self, tmp_path, capsys, edit, message):
        root = _small_chain(tmp_path)
        _edit_first_valid_row(root / "parsed.jsonl", edit)
        err = self.assert_schema_error(["score", "--parsed", str(root / "parsed.jsonl"),
                                        "--corpus", str(root / "suite" / "corpus.jsonl"),
                                        "--out", str(root / "scores2.jsonl")], capsys)
        assert f"ParsedRecord row: {message}" in err

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda path: path.write_text(path.read_text(encoding="utf-8") + "[1]\n", encoding="utf-8"),
          "ParsedRecord row: expected an object, got [1]"),
         (lambda path: _edit_first_valid_row(path, lambda row: row.update(outcome="maybe")),
          "ParsedRecord row: outcome: 'maybe' is not a valid Outcome")],
        ids=["row_not_an_object", "unknown_outcome"],
    )
    def test_score_row_that_is_not_a_record(self, tmp_path, capsys, edit, message):
        root = _small_chain(tmp_path)
        edit(root / "scores.jsonl")
        err = self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                        "--out-dir", str(root / "report")], capsys)
        assert message in err

    @pytest.mark.parametrize("fits_from", ["another run", "no scores hash"])
    def test_fits_not_fitted_on_these_scores(self, tmp_path, capsys, fits_from):
        root = _small_chain(tmp_path / "a")
        fits = root / "fits.tsv"
        if fits_from == "another run":
            fits = _small_chain(tmp_path / "b", seed=4) / "fits.tsv"
        else:
            lines = fits.read_text(encoding="utf-8").splitlines()
            fits.write_text("\n".join(line for line in lines
                                      if not line.startswith("# scores_config_hash")) + "\n")
        err = self.assert_schema_error(["report", "--scores", str(root / "scores.jsonl"),
                                        "--calibration", str(fits),
                                        "--out-dir", str(root / "report")], capsys)
        assert "not fitted on these scores" in err


class TestRefusedRows:
    """Every stage reports a row that its record refuses as `error: <file>:
    row <n>: <message>`, counting data rows from 1, and writes nothing."""

    @staticmethod
    def refuse(path: Path, number: int) -> dict:
        """Give row `number` of an artifact a question_id that is not a string; returns the row."""
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        row = {**json.loads(rows[number - 1]), "question_id": 7}
        rows[number - 1] = json.dumps(row)
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return row

    @pytest.mark.parametrize("stage, artifact", [
        ("elicit", "corpus"), ("extract", "corpus"), ("score", "corpus"),
        ("extract", "transcript"), ("elicit --resume", "transcript"), ("score", "parsed"),
        ("calibrate", "scores"), ("report", "scores"), ("report --tool-scores", "scores"),
    ], ids=["elicit-corpus", "extract-corpus", "score-corpus", "extract-transcript",
            "resume-transcript", "score-parsed", "calibrate-scores", "report-scores",
            "report-tool_scores"])
    def test_refused_row_is_2_and_names_its_file_and_row(self, tmp_path, monkeypatch, capsys,
                                                           stage, artifact):
        monkeypatch.setenv("STUB_API_KEY", "k")
        suite, out = tmp_path / "suite", tmp_path / "out"
        out.mkdir()
        assert main(["simulate", "--n-questions", "6", "--refusal-rate", "0.5", "--seed", "3",
                     "--out-dir", str(suite)]) == 0
        base_scores = _scores(suite, tmp_path)
        inputs = {"corpus": suite / "corpus.jsonl", "transcript": suite / "transcript.jsonl",
                  "parsed": tmp_path / "parsed.jsonl", "scores": tmp_path / "edited.jsonl"}
        shutil.copy(base_scores, inputs["scores"])
        state = StubState()
        with StubServer(state) as server:
            elicit = _elicit_argv(out, suite, server.url)
            if stage == "elicit --resume":
                assert main(elicit) == 0
                inputs["transcript"] = out / "t.jsonl"
            argv = {
                "elicit": elicit,
                "elicit --resume": [*elicit, "--resume"],
                "extract": ["extract", "--transcript", inputs["transcript"],
                            "--corpus", inputs["corpus"], "--out", out / "parsed.jsonl"],
                "score": ["score", "--parsed", inputs["parsed"], "--corpus", inputs["corpus"],
                          "--out", out / "scores.jsonl"],
                "calibrate": ["calibrate", "--scores", inputs["scores"],
                              "--out", out / "calibrated.jsonl", "--fits", out / "fits.tsv"],
                "report": ["report", "--scores", inputs["scores"], "--out-dir", out / "report"],
                "report --tool-scores": ["report", "--scores", base_scores,
                                         "--tool-scores", inputs["scores"],
                                         "--out-dir", out / "report"],
            }[stage]
            path = inputs[artifact]
            row = self.refuse(path, 3)
            record = {"corpus": "Question", "transcript": "ElicitationRecord",
                      "parsed": "ParsedRecord"}.get(artifact)
            if record is None:
                record = "ScoredRecord" if row["outcome"] == "valid" else "ParsedRecord"
            written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
            requests = state.requests
            capsys.readouterr()
            assert main([str(arg) for arg in argv]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: row 3: {record} row: question_id: expected a string, got 7\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written
        assert state.requests == requests


class TestReportInputs:
    @pytest.mark.parametrize("bad_input", ["fits of other scores", "torn tool scores"])
    def test_bad_input_leaves_every_report_file_as_it_was(self, tmp_path, capsys, bad_input):
        a = _small_chain(tmp_path / "a")
        b = _small_chain(tmp_path / "b", seed=4)
        out = tmp_path / "report"
        assert main(["report", "--scores", str(a / "scores.jsonl"), "--calibration", str(a / "fits.tsv"),
                     "--tool-scores", str(a / "scores.jsonl"), "--out-dir", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        fits, tool_scores = b / "fits.tsv", b / "scores.jsonl"
        if bad_input == "fits of other scores":
            fits = a / "fits.tsv"
        else:
            lines = tool_scores.read_text(encoding="utf-8").splitlines(keepends=True)
            tool_scores = tmp_path / "torn_scores.jsonl"
            tool_scores.write_text("".join(lines[:-1]) + lines[-1][:20], encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--scores", str(b / "scores.jsonl"), "--calibration", str(fits),
                     "--tool-scores", str(tool_scores), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestUnicodeLineSeparators:
    def test_extract_parses_a_reply_holding_them(self, tmp_path):
        # canonical_dumps writes U+2028, U+2029 and U+0085 unescaped, and
        # str.splitlines would break the row apart at each of them
        suite = tmp_path / "suite"
        assert main(["simulate", "--n-questions", "20", "--seed", "3", "--out-dir", str(suite)]) == 0
        transcript = suite / "transcript.jsonl"
        header, rows = read_jsonl(transcript, "transcript.v1", as_decoded)
        first = rows[0]
        first.update(raw_text="Estimate: 42\u2028Lower bound: 30\u2029Upper bound: 50\x85",
                     transport_status="ok", failure_reason=None)
        write_jsonl(transcript, "transcript.v1", header["config_hash"], rows)
        assert main(["extract", "--transcript", str(transcript),
                     "--corpus", str(suite / "corpus.jsonl"),
                     "--out", str(tmp_path / "parsed.jsonl")]) == 0
        _, parsed = read_jsonl(tmp_path / "parsed.jsonl", "parsed.v1", as_decoded)
        (row,) = [r for r in parsed if r["question_id"] == first["question_id"]]
        assert row["outcome"] == "valid"
        assert [row["triplet"][k] for k in ("value", "lower", "upper")] == [42.0, 30.0, 50.0]


class TestOddIdsInTables:
    """Ids reach the TSV tables as cells, which end at a tab or a "\\n"."""

    def scores(self, root: Path, model_id: str) -> Path:
        suite = root / "suite"
        assert main(["simulate", "--n-questions", "60", "--seed", "3", "--model-id", model_id,
                     "--out-dir", str(suite)]) == 0
        return _scores(suite, root)

    def assert_round_trips_through_the_fits(self, root: Path, model_id: str):
        scores = self.scores(root, model_id)
        fits = root / "fits.tsv"
        assert main(["calibrate", "--scores", str(scores), "--out",
                     str(root / "calibrated.jsonl"), "--fits", str(fits)]) == 0
        assert main(["report", "--scores", str(scores), "--calibration", str(fits),
                     "--out-dir", str(root / "report")]) == 0
        scores_hash = read_jsonl(scores, "scores.v1", as_decoded)[0]["config_hash"]
        assert [fit.model for fit in read_fits(fits, scores_hash)] == [model_id]
        text = (root / "report" / "coverage_calibration.tsv").read_text(encoding="utf-8")
        assert [line.split("\t")[0] for line in text.split("\n")[3:-1]] == [model_id]

    def test_a_line_separator_in_an_id_round_trips_through_the_fits(self, tmp_path):
        self.assert_round_trips_through_the_fits(tmp_path, "m\u2028x")

    def test_a_hash_at_the_start_of_an_id_round_trips_through_the_fits(self, tmp_path):
        # only the lines before the fits header are comments
        self.assert_round_trips_through_the_fits(tmp_path, "#m")

    def test_a_tab_in_an_id_is_2_before_any_file(self, tmp_path, capsys):
        scores = self.scores(tmp_path, "m\tx")
        capsys.readouterr()
        assert main(["calibrate", "--scores", str(scores), "--out",
                     str(tmp_path / "calibrated.jsonl"), "--fits", str(tmp_path / "fits.tsv")]) == 2
        assert "TSV cell 'm\\tx' holds a tab or a line break" in capsys.readouterr().err
        assert not (tmp_path / "calibrated.jsonl").exists() and not (tmp_path / "fits.tsv").exists()
        assert main(["report", "--scores", str(scores), "--out-dir", str(tmp_path / "report")]) == 2
        assert "TSV cell 'm\\tx'" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


class TestCalibrateRowOrder:
    def test_shuffled_scores_calibrate_identically(self, tmp_path):
        root = _small_chain(tmp_path, n=200)
        header, *rows = (root / "scores.jsonl").read_text(encoding="utf-8").splitlines()
        random.Random(3).shuffle(rows)
        shuffled = root / "shuffled.jsonl"
        shuffled.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert main(["calibrate", "--scores", str(shuffled),
                     "--out", str(root / "calibrated2.jsonl"),
                     "--fits", str(root / "fits2.tsv")]) == 0
        assert (root / "calibrated2.jsonl").read_bytes() == (root / "calibrated.jsonl").read_bytes()
        assert (root / "fits2.tsv").read_bytes() == (root / "fits.tsv").read_bytes()


class TestTransportFailedScoreRows:
    def test_calibrate_and_report_drop_them(self, tmp_path):
        # A failure row beside each scored or invalid row, on its key, and one
        # of a question no other row holds.
        root = _small_chain(tmp_path, n=200)
        header, *rows = (root / "scores.jsonl").read_text(encoding="utf-8").splitlines()
        failure = {"outcome": "transport_failed", "reason": None, "failure_reason": "http status 503"}
        key_fields = ("question_id", "model_id", "effort", "tools_enabled", "dataset_id", "kind")
        lines = [header]
        for row in rows:
            key = {k: json.loads(row)[k] for k in key_fields}
            lines += [row, json.dumps({**key, **failure})]
        lines.append(json.dumps({**key, **failure, "question_id": "unasked"}))
        with_failures = root / "with_failures.jsonl"
        with_failures.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs = {}
        for name, scores in (("clean", root / "scores.jsonl"), ("failures", with_failures)):
            out = root / name
            assert main(["calibrate", "--scores", str(scores), "--out", str(out / "calibrated.jsonl"),
                         "--fits", str(out / "calibration_fits.tsv")]) == 0
            assert main(["report", "--scores", str(scores),
                         "--calibration", str(out / "calibration_fits.tsv"),
                         "--tool-scores", str(scores), "--out-dir", str(out / "report")]) == 0
            outputs[name] = {path.relative_to(out): path.read_bytes()
                             for path in sorted(out.rglob("*")) if path.is_file()}
        assert len(outputs["clean"]) == 12  # calibrated, fits, and 5 tables as TSV and text
        assert outputs["failures"] == outputs["clean"]


class TestRepeatedScoreKeys:
    """A scores file that holds a (question, model, effort, tools) key twice
    exits 2: which of the two rows counted would depend on the row order."""

    @pytest.fixture
    def scores(self, tmp_path):
        """Two suites of the same questions, model and effort, and the rows
        of both in one file, in each order."""
        paths = {}
        for bias in ("0", "4"):
            suite = tmp_path / f"bias{bias}"
            assert main(["simulate", "--n-questions", "60", "--seed", "3", "--bias", bias,
                         "--out-dir", str(suite)]) == 0
            paths[bias] = _scores(suite, suite)
        for first, second in (("0", "4"), ("4", "0")):
            header, *rows = paths[first].read_text(encoding="utf-8").splitlines()
            rows += paths[second].read_text(encoding="utf-8").splitlines()[1:]
            paths[first + second] = tmp_path / f"scores_{first}{second}.jsonl"
            paths[first + second].write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return paths

    @pytest.mark.parametrize("order", ["04", "40"])
    def test_calibrate_is_2(self, tmp_path, capsys, scores, order):
        capsys.readouterr()
        assert main(["calibrate", "--scores", str(scores[order]),
                     "--out", str(tmp_path / "calibrated.jsonl"),
                     "--fits", str(tmp_path / "fits.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scores[order]}: question ") and " is repeated " in err
        assert not (tmp_path / "calibrated.jsonl").exists()

    @pytest.mark.parametrize("order", ["04", "40"])
    @pytest.mark.parametrize("side, level", [("--scores", "base"), ("--tool-scores", "tools")])
    def test_report_with_tool_scores_is_2(self, tmp_path, capsys, scores, order, side, level):
        inputs = {"--scores": scores["0"], "--tool-scores": scores["4"], side: scores[order]}
        capsys.readouterr()
        assert main(["report", *(arg for pair in inputs.items() for arg in map(str, pair)),
                     "--out-dir", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scores[order]}: question ") and " is repeated " in err
        assert not (tmp_path / "report").exists()


    @pytest.mark.parametrize("order", ["04", "40"])
    def test_report_is_2(self, tmp_path, capsys, scores, order):
        capsys.readouterr()
        assert main(["report", "--scores", str(scores[order]),
                     "--out-dir", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scores[order]}: question ") and " is repeated " in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("outcome", ["valid", "invalid"])
    def test_one_repeated_row_is_2_for_calibrate_and_report(self, tmp_path, capsys, outcome):
        # Once, a 50-question suite with one valid row repeated reported n_valid 51.
        suite = tmp_path / "suite"
        assert main(["simulate", "--n-questions", "50", "--seed", "3", "--refusal-rate", "0.3",
                     "--out-dir", str(suite)]) == 0
        header, *rows = _scores(suite, tmp_path).read_text(encoding="utf-8").splitlines()
        repeated = next(row for row in rows if json.loads(row)["outcome"] == outcome)
        scores = tmp_path / "repeated.jsonl"
        scores.write_text("\n".join([header, *rows, repeated]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["calibrate", "--scores", str(scores), "--out", str(tmp_path / "c.jsonl"),
                     "--fits", str(tmp_path / "fits.tsv")]) == 2
        assert main(["report", "--scores", str(scores),
                     "--out-dir", str(tmp_path / "report")]) == 2
        question = json.loads(repeated)["question_id"]
        assert capsys.readouterr().err.splitlines() == 2 * [
            f"error: {scores}: question {question} is repeated for model synthetic, effort low, "
            "tools_enabled False",
        ]
        assert not (tmp_path / "c.jsonl").exists() and not (tmp_path / "report").exists()


class TestTranscriptRowOrder:
    def test_shuffled_transcripts_give_the_same_products(self, tmp_path):
        # elicit writes rows in completion order: nothing downstream may depend on it
        for name, extra in (("base", []), ("tools", ["--bias", "4"])):
            suite = tmp_path / name
            assert main(["simulate", "--n-questions", "300", "--width-shrink", "3",
                         "--noise", "2", "--refusal-rate", "0.1", "--proportion-fraction", "0.3",
                         "--seed", "5", "--out-dir", str(suite), *extra]) == 0
            header, *rows = (suite / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
            random.Random(3).shuffle(rows)
            (suite / "shuffled.jsonl").write_text("\n".join([header, *rows]) + "\n",
                                                  encoding="utf-8")
        for order in ("transcript", "shuffled"):
            out = tmp_path / order
            for name in ("base", "tools"):
                corpus = str(tmp_path / name / "corpus.jsonl")
                assert main(["extract", "--transcript", str(tmp_path / name / f"{order}.jsonl"),
                             "--corpus", corpus, "--out", str(out / f"{name}_parsed.jsonl")]) == 0
                assert main(["score", "--parsed", str(out / f"{name}_parsed.jsonl"),
                             "--corpus", corpus, "--out", str(out / f"{name}_scores.jsonl")]) == 0
            assert main(["calibrate", "--scores", str(out / "base_scores.jsonl"),
                         "--out", str(out / "calibrated.jsonl"), "--fits", str(out / "fits.tsv")]) == 0
            assert main(["report", "--scores", str(out / "base_scores.jsonl"),
                         "--calibration", str(out / "fits.tsv"),
                         "--tool-scores", str(out / "tools_scores.jsonl"),
                         "--out-dir", str(out / "report")]) == 0
        reports = sorted(p.name for p in (tmp_path / "transcript" / "report").iterdir())
        assert len(reports) == 10
        for rel in ["calibrated.jsonl", "fits.tsv", *(f"report/{name}" for name in reports)]:
            assert ((tmp_path / "shuffled" / rel).read_bytes()
                    == (tmp_path / "transcript" / rel).read_bytes()), rel


def _failed(row: dict, reason: str = "http 503") -> dict:
    return {**row, "raw_text": "", "transport_status": "failed", "failure_reason": reason}


def _unanswered(row: dict) -> dict:
    return {**row, "raw_text": "I cannot estimate that."}


class TestExtractRepeatedKeys:
    """An answer of a (question, model, effort, tools) key is written as it is
    parsed. A transport failure of the key is dropped when a later record
    answers it; a key never answered gets its last failure after the answers,
    in the order the keys first failed."""

    def suite(self, tmp_path: Path) -> tuple[Path, list[dict]]:
        suite = tmp_path / "suite"
        assert main(["simulate", "--n-questions", "3", "--seed", "0",
                     "--out-dir", str(suite)]) == 0
        _, rows = read_jsonl(suite / "transcript.jsonl", "transcript.v1", as_decoded)
        return suite, rows

    def extract(self, suite: Path, rows: list[dict], out: Path, capsys):
        """extract of a transcript holding `rows`: its exit code and what it printed."""
        transcript = out.with_suffix(".transcript.jsonl")
        write_jsonl(transcript, "transcript.v1", "h", rows)
        capsys.readouterr()
        code = main(["extract", "--transcript", str(transcript),
                     "--corpus", str(suite / "corpus.jsonl"), "--out", str(out)])
        return code, capsys.readouterr()

    def calibrate(self, suite: Path, parsed: Path, capsys):
        """score and calibrate of `parsed`: calibrate's exit code and what it printed."""
        scores = parsed.with_suffix(".scores.jsonl")
        assert main(["score", "--parsed", str(parsed), "--corpus", str(suite / "corpus.jsonl"),
                     "--out", str(scores)]) == 0
        capsys.readouterr()
        code = main(["calibrate", "--scores", str(scores),
                     "--out", str(parsed.with_suffix(".calibrated.jsonl")),
                     "--fits", str(parsed.with_suffix(".fits.tsv"))])
        return code, capsys.readouterr()

    def test_an_answer_drops_the_failure_of_its_key(self, tmp_path, capsys):
        suite, (a, b, c) = self.suite(tmp_path)
        code, printed = self.extract(suite, [_failed(a), b, a, c], tmp_path / "parsed.jsonl",
                                     capsys)
        assert code == 0
        assert "parsed 3 valid, 0 invalid, 0 transport-failed" in printed.out
        _, parsed = read_jsonl(tmp_path / "parsed.jsonl", "parsed.v1", as_decoded)
        assert [r["question_id"] for r in parsed] == [r["question_id"] for r in (b, a, c)]
        # the same bytes as a transcript without the failure
        assert self.extract(suite, [b, a, c], tmp_path / "once.jsonl", capsys)[0] == 0
        assert ((tmp_path / "parsed.jsonl").read_bytes()
                == (tmp_path / "once.jsonl").read_bytes())

    def test_three_records_of_one_key_between_other_keys(self, tmp_path, capsys):
        suite, (a, b, c) = self.suite(tmp_path)
        a_high = {**a, "effort": "high"}  # another key of the same question
        rows = [_failed(a), b, _failed(a, "timeout"), a_high, c, _unanswered(a)]
        code, printed = self.extract(suite, rows, tmp_path / "parsed.jsonl", capsys)
        assert code == 0
        assert "parsed 3 valid, 1 invalid, 0 transport-failed" in printed.out
        _, parsed = read_jsonl(tmp_path / "parsed.jsonl", "parsed.v1", as_decoded)
        assert ([(r["question_id"], r["effort"]) for r in parsed]
                == [(r["question_id"], r["effort"]) for r in (b, a_high, c, a)])
        assert [r["outcome"] for r in parsed] == ["valid", "valid", "valid", "invalid"]
        assert self.extract(suite, [b, a_high, c, _unanswered(a)], tmp_path / "once.jsonl",
                            capsys)[0] == 0
        assert ((tmp_path / "parsed.jsonl").read_bytes()
                == (tmp_path / "once.jsonl").read_bytes())

    def test_a_key_never_answered_gets_its_last_failure_after_the_answers(self, tmp_path,
                                                                           capsys):
        suite, (a, b, c) = self.suite(tmp_path)
        rows = [_failed(b), _failed(a), c, _failed(a, "timeout"), _failed(b, "http 500")]
        code, printed = self.extract(suite, rows, tmp_path / "parsed.jsonl", capsys)
        assert code == 0
        assert "parsed 1 valid, 0 invalid, 2 transport-failed" in printed.out
        _, parsed = read_jsonl(tmp_path / "parsed.jsonl", "parsed.v1", as_decoded)
        assert ([(r["question_id"], r["outcome"], r["failure_reason"]) for r in parsed]
                == [(c["question_id"], "valid", None),
                    (b["question_id"], "transport_failed", "http 500"),
                    (a["question_id"], "transport_failed", "timeout")])
        assert all(r["triplet"] is None for r in parsed[1:])

    def test_a_failure_after_an_answer_writes_both_rows(self, tmp_path, capsys):
        # elicit does not write this transcript: --resume asks only for keys without an answer
        suite, (a, b, c) = self.suite(tmp_path)
        code, printed = self.extract(suite, [a, b, _failed(a), c], tmp_path / "parsed.jsonl",
                                     capsys)
        assert code == 0
        assert "parsed 3 valid, 0 invalid, 1 transport-failed" in printed.out
        _, parsed = read_jsonl(tmp_path / "parsed.jsonl", "parsed.v1", as_decoded)
        assert ([(r["question_id"], r["outcome"]) for r in parsed]
                == [(a["question_id"], "valid"), (b["question_id"], "valid"),
                    (c["question_id"], "valid"), (a["question_id"], "transport_failed")])
        # where the scores are read, the failure is dropped
        assert self.calibrate(suite, tmp_path / "parsed.jsonl", capsys)[0] == 0
        assert self.extract(suite, [a, b, c], tmp_path / "once.jsonl", capsys)[0] == 0
        assert self.calibrate(suite, tmp_path / "once.jsonl", capsys)[0] == 0
        for suffix in (".calibrated.jsonl", ".fits.tsv"):
            assert ((tmp_path / "parsed.jsonl").with_suffix(suffix).read_bytes()
                    == (tmp_path / "once.jsonl").with_suffix(suffix).read_bytes())

    def test_a_second_answer_of_a_key_makes_calibrate_exit_2(self, tmp_path, capsys):
        suite, (a, b, c) = self.suite(tmp_path)
        code, printed = self.extract(suite, [a, b, _unanswered(a), c],
                                     tmp_path / "parsed.jsonl", capsys)
        assert code == 0
        assert "parsed 3 valid, 1 invalid, 0 transport-failed" in printed.out
        code, printed = self.calibrate(suite, tmp_path / "parsed.jsonl", capsys)
        assert code == 2
        assert printed.err.startswith(f"error: {tmp_path / 'parsed.scores.jsonl'}: "
                                      f"question {a['question_id']} is repeated ")

    def test_an_unknown_question_is_2_and_leaves_no_file(self, tmp_path, capsys):
        suite, (a, b, c) = self.suite(tmp_path)
        out_dir = tmp_path / "out"
        rows = [a, b, {**c, "question_id": "no-such-q"}]
        code, printed = self.extract(suite, rows, out_dir / "parsed.jsonl", capsys)
        assert code == 2
        assert "unknown question no-such-q" in printed.err
        assert sorted(p.name for p in out_dir.iterdir()) == ["parsed.transcript.jsonl"]


class TestFitsRoundTrip:
    def test_report_repeats_fits_in_effort_order_with_flagged_group(self, tmp_path):
        suites = [("alpha", "low", 400), ("alpha", "high", 400), ("beta", "medium", 40)]
        score_lines = []
        for model, effort, n in suites:
            suite = tmp_path / f"{model}-{effort}"
            assert main(["simulate", "--n-questions", str(n), "--width-shrink", "2",
                         "--seed", "3", "--model-id", model, "--effort", effort,
                         "--out-dir", str(suite)]) == 0
            assert main(["extract", "--transcript", str(suite / "transcript.jsonl"),
                         "--corpus", str(suite / "corpus.jsonl"),
                         "--out", str(suite / "parsed.jsonl")]) == 0
            assert main(["score", "--parsed", str(suite / "parsed.jsonl"),
                         "--corpus", str(suite / "corpus.jsonl"),
                         "--out", str(suite / "scores.jsonl")]) == 0
            header, *rows = (suite / "scores.jsonl").read_text(encoding="utf-8").splitlines()
            score_lines += rows
        scores = tmp_path / "scores.jsonl"
        scores.write_text("\n".join([header, *score_lines]) + "\n", encoding="utf-8")
        fits = tmp_path / "fits.tsv"
        assert main(["calibrate", "--scores", str(scores), "--min-cal", "15",
                     "--out", str(tmp_path / "calibrated.jsonl"), "--fits", str(fits)]) == 0
        assert main(["report", "--scores", str(scores), "--calibration", str(fits),
                     "--out-dir", str(tmp_path / "report")]) == 0

        def table(path):
            return [line for line in path.read_text(encoding="utf-8").splitlines()
                    if not line.startswith("#")]

        fit_header, *fit_rows = table(fits)
        report_header, *report_rows = table(tmp_path / "report" / "coverage_calibration.tsv")
        assert report_header == fit_header
        assert [row.split("\t")[:2] for row in fit_rows] == [
            ["alpha", "high"], ["alpha", "low"], ["beta", "medium"]]
        assert report_rows == [fit_rows[1], fit_rows[0], fit_rows[2]]
        flagged = dict(zip(fit_header.split("\t"), fit_rows[2].split("\t")))
        assert (flagged["q_hat"], flagged["coverage_after"]) == ("inf", "")
        assert flagged["flag"] == "insufficient_data"

        text = (tmp_path / "report" / "coverage_calibration.txt").read_text(encoding="utf-8")
        (beta_line,) = [line for line in text.splitlines() if line.lstrip().startswith("beta")]
        cells = beta_line.split()
        assert cells[5] == "inf" and cells[7] == "-"

    def test_fits_columns_are_the_record_fields_and_round_trip(self, tmp_path):
        assert FIT_COLUMNS == tuple(f.name for f in dataclasses.fields(GroupCalibration))
        ok = GroupCalibration("alpha", "low", "synthetic", 120, 280, 1.0 / 3.0, 0.1 + 0.2,
                              0.9571428571428572, "ok", "")
        flagged = GroupCalibration("beta", "medium", "synthetic", 12, 28, math.inf, 0.6428571428571429,
                                   None, "insufficient_data", "quantile_index_exceeds_n_cal")
        (tmp_path / "fits.tsv").write_text(render_fits([ok, flagged], "cfg", "scores"),
                                          encoding="utf-8")
        assert read_fits(tmp_path / "fits.tsv", "scores") == [ok, flagged]

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda header, row: (header[1::-1] + header[2:], row), "fits header ['effort', 'model'"),
         (lambda header, row: (header, row + ["extra"]), "has 11 cells, expected 10")],
        ids=["reordered_header", "extra_cell"],
    )
    def test_fits_of_another_shape_are_2(self, tmp_path, capsys, edit, message):
        root = _small_chain(tmp_path)
        fits = root / "fits.tsv"
        *comments, header, row = fits.read_text(encoding="utf-8").splitlines()
        header, row = edit(header.split("\t"), row.split("\t"))
        fits.write_text("\n".join([*comments, "\t".join(header), "\t".join(row)]) + "\n",
                        encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--scores", str(root / "scores.jsonl"), "--calibration", str(fits),
                     "--out-dir", str(root / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fits}: ") and message in err
        assert not (root / "report").exists()


def _subcommand(name: str) -> argparse.ArgumentParser:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def _options(name: str) -> list[argparse.Action]:
    return [a for a in _subcommand(name)._actions if a.option_strings and a.dest != "help"]


# The flags of each stage that builds a config record, and the flags that name files.
CONFIG_FLAGS = {"simulate": (SyntheticSuiteConfig, {"out_dir"}),
                "calibrate": (ConformalConfig, {"scores", "out", "fits"})}


class TestConfigRecords:
    """A config record states its field names and defaults; the CLI and config files only fill it."""

    @pytest.mark.parametrize("stage", sorted(CONFIG_FLAGS))
    def test_every_flag_is_a_field_of_its_record(self, stage):
        record, files = CONFIG_FLAGS[stage]
        fields = {f.name for f in dataclasses.fields(record)}
        for action in _options(stage):
            assert action.dest in fields | files, action.option_strings

    def _with_record_defaults(self, stage: str) -> list[str]:
        """Every optional flag of a stage, set to its record field's default."""
        record, files = CONFIG_FLAGS[stage]
        defaults = record()
        return [token for action in _options(stage) if action.dest not in files
                for token in (action.option_strings[0], str(getattr(defaults, action.dest)))]

    def test_simulate_without_flags_writes_what_the_record_defaults_write(self, tmp_path):
        assert main(["simulate", "--out-dir", str(tmp_path / "bare")]) == 0
        assert main(["simulate", *self._with_record_defaults("simulate"),
                     "--out-dir", str(tmp_path / "spelled")]) == 0
        names = sorted(p.name for p in (tmp_path / "bare").iterdir())
        assert names == ["corpus.jsonl", "manifest.json", "transcript.jsonl"]
        for name in names:
            assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "spelled" / name).read_bytes()

    def test_calibrate_without_flags_writes_what_the_record_defaults_write(self, tmp_path):
        root = _small_chain(tmp_path)
        assert main(["calibrate", "--scores", str(root / "scores.jsonl"),
                     *self._with_record_defaults("calibrate"),
                     "--out", str(root / "calibrated2.jsonl"), "--fits", str(root / "fits2.tsv")]) == 0
        assert (root / "calibrated2.jsonl").read_bytes() == (root / "calibrated.jsonl").read_bytes()
        assert (root / "fits2.tsv").read_bytes() == (root / "fits.tsv").read_bytes()

    @pytest.mark.parametrize("extra, expected", [([], "6d7e3c13aa118fb8"),
                                                 (["--seed", "5"], "11f25f8f9f120add")])
    def test_generate_config_hash(self, tmp_path, extra, expected):
        shutil.copy(DATA / "templates_demo.json", tmp_path / "templates.json")
        shutil.copy(DATA / "health_fixture.csv", tmp_path / "health_fixture.csv")
        assert main(["generate", "--config", str(tmp_path / "templates.json"), *extra,
                     "--out", str(tmp_path / "corpus.jsonl")]) == 0
        assert read_jsonl(tmp_path / "corpus.jsonl", "corpus.v1", as_decoded)[0]["config_hash"] == expected

    def test_quickstart_config_hashes(self, tmp_path):
        suite = tmp_path / "demo"
        assert main(["simulate", "--n-questions", "400", "--width-shrink", "4", "--noise", "5.0",
                     "--refusal-rate", "0.1", "--seed", "7", "--out-dir", str(suite)]) == 0
        assert main(["extract", "--transcript", str(suite / "transcript.jsonl"),
                     "--corpus", str(suite / "corpus.jsonl"), "--out", str(suite / "parsed.jsonl")]) == 0
        assert main(["score", "--parsed", str(suite / "parsed.jsonl"),
                     "--corpus", str(suite / "corpus.jsonl"), "--out", str(suite / "scores.jsonl")]) == 0
        assert main(["calibrate", "--scores", str(suite / "scores.jsonl"), "--seed", "1",
                     "--out", str(suite / "calibrated.jsonl"),
                     "--fits", str(suite / "calibration_fits.tsv")]) == 0
        assert read_jsonl(suite / "corpus.jsonl", "corpus.v1", as_decoded)[0]["config_hash"] == "d5113e201e9ab5e5"
        fits_header = (suite / "calibration_fits.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert fits_header == "# config_hash: f2609cebd22d70e4"
