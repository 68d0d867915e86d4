"""The benchmark's tracer must still find every name it wraps in the package.

bench/trace_stage.py replaces functions where their callers look them up
(module globals and class attributes). Renaming or deleting one of them
breaks `bench/run.py --trace 1`; this test makes that fail here instead.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
from trace_stage import Tracer

tracer = Tracer()
tracer.install()
from elicitbench.cli import main

out = sys.argv[1]
stages = [
    ["generate", "--config", "tests/data/templates_demo.json",
     "--out", out + "/fixture_corpus.jsonl"],
    ["simulate", "--n-questions", "40", "--seed", "2", "--out-dir", out],
    ["extract", "--transcript", out + "/transcript.jsonl", "--corpus", out + "/corpus.jsonl",
     "--out", out + "/parsed.jsonl"],
    ["score", "--parsed", out + "/parsed.jsonl", "--corpus", out + "/corpus.jsonl",
     "--out", out + "/scores.jsonl"],
    ["calibrate", "--scores", out + "/scores.jsonl", "--out", out + "/calibrated.jsonl",
     "--fits", out + "/fits.tsv"],
    ["report", "--scores", out + "/scores.jsonl", "--calibration", out + "/fits.tsv",
     "--tool-scores", out + "/scores.jsonl", "--out-dir", out + "/report"],
]
codes = [main(argv) for argv in stages]
print(json.dumps({"codes": codes, "spans": sorted({span[2] for span in tracer.spans})}))
"""


def test_tracer_installs_and_records_spans(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache files under bench/
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 6
    for name in ("corpus.load_table", "corpus.enumerate_candidates", "corpus.Question.from_dict", "metrics.ScoredRecord.from_dict",
                 "report.split_rows", "report.summary_section",
                 "report.tool_comparison_section", "conformal.fit"):
        assert name in result["spans"], name
