"""Each analysis stage holds one decoded row at a time, not its whole input.

The stages run in this process under tracemalloc on a 4,000-question suite.
A traced peak counts only what the stage allocates, so it repeats from run to
run. Holding the file text, its lines and every decoded row, the stages
peaked at about 20 / 17 / 14 / 14 MB on Python 3.11; streaming the rows, at
about 5 / 2 / 5 / 4 MB. Each bound lies between the two.
"""
import tracemalloc

from elicitbench.cli import main

# stage -> bound on its traced peak, in MB (1e6 bytes)
BOUNDS_MB = {"extract": 10.0, "score": 6.0, "calibrate": 9.0, "report": 8.0}


def _traced_peak_mb(argv: list[str]) -> float:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_analysis_stages_stay_under_their_traced_peaks(tmp_path):
    assert main(["simulate", "--n-questions", "4000", "--width-shrink", "4", "--noise", "5",
                 "--refusal-rate", "0.1", "--proportion-fraction", "0.3", "--seed", "7",
                 "--out-dir", str(tmp_path / "suite")]) == 0
    corpus, transcript = (str(tmp_path / "suite" / name) for name in ("corpus.jsonl", "transcript.jsonl"))
    parsed, scores, fits = (str(tmp_path / name) for name in ("parsed.jsonl", "scores.jsonl", "fits.tsv"))
    stages = {
        "extract": ["extract", "--transcript", transcript, "--corpus", corpus, "--out", parsed],
        "score": ["score", "--parsed", parsed, "--corpus", corpus, "--out", scores],
        "calibrate": ["calibrate", "--scores", scores, "--out", str(tmp_path / "calibrated.jsonl"),
                      "--fits", fits],
        "report": ["report", "--scores", scores, "--calibration", fits,
                   "--out-dir", str(tmp_path / "report")],
    }
    peaks = {stage: round(_traced_peak_mb(argv), 2) for stage, argv in stages.items()}
    over = {stage: peak for stage, peak in peaks.items() if peak >= BOUNDS_MB[stage]}
    assert not over, f"traced peaks {peaks} MB, bounds {BOUNDS_MB} MB"
