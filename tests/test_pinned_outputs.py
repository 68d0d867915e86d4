"""Output bytes pinned across versions, not only across two runs of one version.

`tests/data/scores_fixture.jsonl` holds two groups of a synthetic chain:
alpha/low, which calibrates, and beta/high, which is flagged
(quantile_index_exceeds_n_cal). `tests/data/tool_scores_fixture.jsonl` is a
tool-enabled run of 12 of alpha's questions, so every tool-comparison scope
has at most 12 pairs and its p-value comes from exact enumeration. The
digests below are of what `calibrate` and `report` wrote from these fixtures
with the code of commit e609c96. A change that alters these bytes on purpose
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
