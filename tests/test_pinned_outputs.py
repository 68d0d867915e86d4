"""Output bytes pinned across versions, not only across two runs of one version.

`tests/data/scores_fixture.jsonl` holds two groups of a synthetic chain:
alpha/low, which calibrates, and beta/high, which is flagged
(quantile_index_exceeds_n_cal). `tests/data/tool_scores_fixture.jsonl` is a
tool-enabled run of 12 of alpha's questions, so every tool-comparison scope
has at most 12 pairs and its p-value comes from exact enumeration. The
digests below are of what `calibrate` and `report` wrote from these fixtures
with the code of commit e609c96. `TRANSCRIPT_PINNED` holds the digests of
what `simulate`, `extract` and `score` wrote for a 300-question suite with
the code of commit b0d7d8f. A change that alters these bytes on purpose
updates the digests and says why.
"""
import hashlib
from pathlib import Path

from elicitbench.cli import main

DATA = Path(__file__).parent / "data"

PINNED = {
    "calibrated.jsonl": "ef7b57878e3997ed874de73389517a0d2ea7a409299b44b99ddad2e849475d48",
    "calibration_fits.tsv": "a12fb61a079f7cfdb82b4ccb578a62bd5a8c9ea1368b71bff4ded2ef044a0c23",
    "report/baseline_win_rate.tsv": "0831702cee2a981fbedb9c1f6f5e51275c51364046892e38be2564ca6ae9c821",
    "report/baseline_win_rate.txt": "cd84ef03d21de8cbbc075a7a43a587c8f4adf82c66f35bdee95a15cc40add4da",
    "report/coverage_calibration.tsv": "aa0076cbc28373e180eb08093a414e804d73b01b7a09f38335c7ac22d54b9e82",
    "report/coverage_calibration.txt": "d706718230eeeea49b14516d32f7064cb4dee3f9388566692deb0186bef4657d",
    "report/nll_sharpness.tsv": "6a0b3c5c34d755b861e6ffa53ef03cacf0bf2b87dc3c26fcf409458f1663dc8b",
    "report/nll_sharpness.txt": "c76aacb46a7c6f7fe8b2bd4c60c73eeeb09d0f9e15756bcb4246510a420818ca",
    "report/summary_by_model_effort.tsv": "9d99897d857adf4bedec9748c467f694633dac302f2fa07ddd586ca5550f9ae0",
    "report/summary_by_model_effort.txt": "2c07a47aac45ff39f72e24d3a73ee278269d5f12cde627d9358747902cb76675",
    "report/tool_comparison.tsv": "96e24320990a2dedc52404b705f4795307904b0ab204a7cfd57f78b686c49b69",
    "report/tool_comparison.txt": "8648bcf85e806d66104edbacc4d1cd43bdcfcfe10e0bc01fba57addbba04b6ce",
}


def test_calibrate_and_report_bytes_match_the_pinned_digests(tmp_path):
    scores = str(DATA / "scores_fixture.jsonl")
    fits = str(tmp_path / "calibration_fits.tsv")
    assert main(["calibrate", "--scores", scores,
                 "--out", str(tmp_path / "calibrated.jsonl"), "--fits", fits]) == 0
    assert main(["report", "--scores", scores, "--calibration", fits,
                 "--tool-scores", str(DATA / "tool_scores_fixture.jsonl"),
                 "--out-dir", str(tmp_path / "report")]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    assert sorted(digests) == sorted(PINNED)
    changed = [name for name in PINNED if digests[name] != PINNED[name]]
    assert not changed, f"output bytes differ from the pinned digests: {changed}"


TRANSCRIPT_PINNED = {
    "suite/corpus.jsonl": "22a1b925e9700313f50b57bb3587eee130e857a17ab9d0b66e1a9a89a8a7eacc",
    "suite/manifest.json": "c2f52ba3e8d846e196b38308bac6684a94bde9abe895f9b8af5e88b92f678497",
    "suite/transcript.jsonl": "1352389279dbbc804ebe331c344982595da3157a6579bd30461df68243b7d20b",
    "parsed.jsonl": "fcafa03c7cd13786637dbc6938af5f2da835bfeabd99b8f92c636052d22bf200",
    "scores.jsonl": "d8e9568e77e7098751be7ffdf803a5971ffaa474e4feebf2bdc8207d5554598c",
}


def test_simulate_extract_and_score_bytes_match_the_pinned_digests(tmp_path):
    suite = tmp_path / "suite"
    corpus, parsed = str(suite / "corpus.jsonl"), str(tmp_path / "parsed.jsonl")
    assert main(["simulate", "--n-questions", "300", "--width-shrink", "4", "--noise", "5",
                 "--refusal-rate", "0.1", "--proportion-fraction", "0.3", "--seed", "7",
                 "--out-dir", str(suite)]) == 0
    assert main(["extract", "--transcript", str(suite / "transcript.jsonl"), "--corpus", corpus,
                 "--out", parsed]) == 0
    assert main(["score", "--parsed", parsed, "--corpus", corpus,
                 "--out", str(tmp_path / "scores.jsonl")]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    assert sorted(digests) == sorted(TRANSCRIPT_PINNED)
    changed = [name for name in TRANSCRIPT_PINNED if digests[name] != TRANSCRIPT_PINNED[name]]
    assert not changed, f"output bytes differ from the pinned digests: {changed}"
