"""Each stage holds a bounded share of its input, not all of it.

The stages run in this process under tracemalloc. A traced peak counts only
what the stage allocates, so it repeats from run to run.

The analysis stages run on a 4,000-question suite. Holding the file text, its
lines and every decoded row, they peaked at about 20 / 17 / 14 / 14 MB on
Python 3.11; streaming the rows, at about 5 / 2 / 5 / 4 MB. Still holding one
record per row, extract, calibrate and report peaked at about 4.5, 4.5 and
3.7 MB. Holding only (dataset, kind) per corpus question and one shared
string per repeated model, effort and dataset, extract peaked at about 2.9 MB;
holding each group's valid score rows as columns, calibrate and report peak
at about 1.2 and 1.0 MB. Writing each parsed row as it is parsed and holding
only each key's row number, extract peaks at about 1.4 MB; holding the corpus
truths as columns instead of one `GroundTruth` per question, score goes from
about 2.1 to 1.4 MB. `report --tool-scores` of the suite's scores against
themselves peaked at about 3.5 MB while it held a dict per matched question;
merging the row numbers of each level sorted by question, at about 2.0 MB.
Each bound lies between the last two figures of its stage.

`simulate` writes both of its files in one pass over the questions, made one
at a time. Writing the corpus from a list of every question first, it peaked
at about 2.0 MB for 2,000 questions and 7.8 MB for 8,000; now the two peaks
lie about 0.01 MB apart.

The valid score rows of that suite load as 3,568 `ScoredRecord`s.
`report.split_rows` keeps only their columns, but a caller that keeps the
records holds them whole. Built as the frozen `__init__` builds them, with
`object.__setattr__`, they hold about 472 bytes each on Python 3.11: the
field values stay inline in the object. Filling each record's `__dict__`
instead holds about 663 bytes.

`elicit` keeps at most 2 x concurrency requests submitted and unwritten.
Submitting the whole plan at once, it peaked at about 9 MB for 2,100
requests and 22 MB for 8,400; with the window, the two peaks lie about
0.5 MB apart.
"""
import tracemalloc
from typing import Callable

from elicitbench import elicitation
from elicitbench.cli import main
from elicitbench.elicitation import EffortLevel, ModelSpec, run_batch
from elicitbench.jsonlio import load_row, read_jsonl
from elicitbench.metrics import ScoredRecord
from elicitbench.synthetic import SyntheticSuiteConfig, make_questions

from helpers import answer_at_once

# stage -> bound on its traced peak, in MB (1e6 bytes)
BOUNDS_MB = {"extract": 2.0, "score": 1.8, "calibrate": 2.5, "report": 2.0,
             "report --tool-scores": 2.5}
# bound on how much simulate's traced peak may grow from 2,000 to 8,000 questions, in MB
SIMULATE_GROWTH_MB = 1.0
# bound on how much elicit's traced peak may grow from 2,100 to 8,400 requests, in MB
ELICIT_GROWTH_MB = 1.0
# bound on the traced bytes a loaded ScoredRecord holds, its Triplet and GroundTruth included
SCORED_RECORD_BYTES = 480
SUITE_FLAGS = ["--n-questions", "4000", "--width-shrink", "4", "--noise", "5",
               "--refusal-rate", "0.1", "--proportion-fraction", "0.3", "--seed", "7"]


def _traced_peak_mb(run: Callable[[], bool]) -> float:
    """The traced peak of run(), in MB; run() must return true."""
    tracemalloc.start()
    try:
        assert run()
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
        "report --tool-scores": ["report", "--scores", scores, "--calibration", fits,
                                 "--tool-scores", scores, "--out-dir", str(tmp_path / "tools")],
    }
    peaks = {stage: round(_traced_peak_mb(lambda: main(argv) == 0), 2)
             for stage, argv in stages.items()}
    over = {stage: peak for stage, peak in peaks.items() if peak >= BOUNDS_MB[stage]}
    assert not over, f"traced peaks {peaks} MB, bounds {BOUNDS_MB} MB"


def test_simulate_peak_does_not_grow_with_the_suite(tmp_path):
    def simulate(n: int) -> Callable[[], bool]:
        flags = [*SUITE_FLAGS[2:], "--n-questions", str(n), "--out-dir", str(tmp_path / str(n))]
        return lambda: main(["simulate", *flags]) == 0

    assert simulate(1)()  # builds the record encoders before tracing
    small_mb, large_mb = _traced_peak_mb(simulate(2000)), _traced_peak_mb(simulate(8000))
    assert large_mb - small_mb < SIMULATE_GROWTH_MB, \
        f"traced peaks {small_mb:.2f} and {large_mb:.2f} MB"


def test_elicit_peak_does_not_grow_with_the_plan(tmp_path, monkeypatch):
    monkeypatch.setattr(elicitation, "_elicit_one", answer_at_once)
    spec = ModelSpec(model_id="m", endpoint_url="http://127.0.0.1:9/v1")
    efforts = [EffortLevel.LOW, EffortLevel.MEDIUM, EffortLevel.HIGH]

    def elicit(plan: list) -> Callable[[], bool]:
        out = tmp_path / f"{len(plan)}.jsonl"
        return lambda: run_batch(plan, [spec], efforts, concurrency=2, out_path=out,
                                 cfg_hash="h").ok == 3 * len(plan)

    # The questions are made before tracing: only run_batch's own allocations count.
    small, large = ([q for q, _ in make_questions(SyntheticSuiteConfig(n_questions=n))]
                    for n in (700, 2800))
    assert elicit(small[:1])()  # loads the transport and concurrent.futures
    small_mb, large_mb = _traced_peak_mb(elicit(small)), _traced_peak_mb(elicit(large))
    assert large_mb - small_mb < ELICIT_GROWTH_MB, \
        f"traced peaks {small_mb:.2f} and {large_mb:.2f} MB"


def test_loaded_score_records_keep_their_fields_inline(tmp_path):
    suite = tmp_path / "suite"
    assert main(["simulate", *SUITE_FLAGS, "--out-dir", str(suite)]) == 0
    parsed, scores = tmp_path / "parsed.jsonl", tmp_path / "scores.jsonl"
    corpus = str(suite / "corpus.jsonl")
    assert main(["extract", "--transcript", str(suite / "transcript.jsonl"), "--corpus", corpus,
                 "--out", str(parsed)]) == 0
    assert main(["score", "--parsed", str(parsed), "--corpus", corpus, "--out", str(scores)]) == 0
    _, rows = read_jsonl(scores, "scores.v1")
    rows = [row for row in rows if row["outcome"] == "valid"]
    load_row(ScoredRecord, rows[0])  # the loader is built before tracing
    tracemalloc.start()
    try:
        records = [load_row(ScoredRecord, row) for row in rows]
        per_record = tracemalloc.get_traced_memory()[0] / len(records)
    finally:
        tracemalloc.stop()
    assert len(records) == 3568
    assert per_record <= SCORED_RECORD_BYTES, f"{per_record:.0f} bytes per record"
