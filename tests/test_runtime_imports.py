"""The offline stages run on the standard library alone.

`requests` is the only runtime dependency, and only `elicit` loads it;
numpy and scipy are test references. A fresh interpreter runs the offline
chain through `main` and then lists the third-party packages it loaded.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHAIN = r"""
import sys
from pathlib import Path

from elicitbench.cli import main

root = Path(sys.argv[1])
for name, extra in (("base", []), ("tools", ["--bias", "3"])):
    run = root / name
    assert main(["simulate", "--n-questions", "200", "--width-shrink", "4", "--noise", "5",
                 "--refusal-rate", "0.1", "--proportion-fraction", "0.3", "--seed", "7",
                 "--out-dir", str(run)] + extra) == 0
    assert main(["extract", "--transcript", str(run / "transcript.jsonl"),
                 "--corpus", str(run / "corpus.jsonl"), "--out", str(run / "parsed.jsonl")]) == 0
    assert main(["score", "--parsed", str(run / "parsed.jsonl"),
                 "--corpus", str(run / "corpus.jsonl"), "--out", str(run / "scores.jsonl")]) == 0
assert main(["calibrate", "--scores", str(root / "base" / "scores.jsonl"),
             "--out", str(root / "calibrated.jsonl"), "--fits", str(root / "fits.tsv")]) == 0
assert main(["report", "--scores", str(root / "base" / "scores.jsonl"),
             "--calibration", str(root / "fits.tsv"),
             "--tool-scores", str(root / "tools" / "scores.jsonl"),
             "--out-dir", str(root / "report")]) == 0
assert (root / "report" / "tool_comparison.tsv").exists()
print([m for m in ("numpy", "scipy", "requests") if m in sys.modules])
"""


def test_offline_chain_loads_no_third_party_package(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHAIN, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
