"""The stages run on the standard library alone.

elicitbench has no runtime dependency; numpy and scipy are test references.
`elicit` talks HTTP through the standard library's `http.client` from
worker threads; it imports `http.client` (with `ssl` and `urllib.request`)
and `concurrent.futures` only when it runs, so the offline stages never load
them. Fresh interpreters run the offline chain, and `elicit` against a local
stub server, through `main` and then list the modules they loaded.

The benchmark loads `tests/oracles.py` by its file path, without `src/` on
the path, so loading it must not import the package.

No module in `src/` imports a name it does not use.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

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
print([m for m in ("numpy", "scipy", "requests", "http.client", "ssl", "urllib.request",
                  "concurrent.futures") if m in sys.modules])
"""

ELICIT = r"""
import json
import os
import sys
from pathlib import Path

from elicitbench.cli import main
from stubserver import StubServer, StubState

root = Path(sys.argv[1])
os.environ["STUB_API_KEY"] = "k"
assert main(["simulate", "--n-questions", "20", "--seed", "7", "--out-dir", str(root)]) == 0
state = StubState(keep_alive=True)
with StubServer(state) as server:
    (root / "models.json").write_text(json.dumps({"models": [{
        "model_id": "stub", "endpoint_url": server.url, "auth_env_var": "STUB_API_KEY",
        "rate_limit_per_minute": 100000}]}))
    assert main(["elicit", "--corpus", str(root / "corpus.jsonl"),
                 "--models", str(root / "models.json"), "--efforts", "low,high",
                 "--out", str(root / "elicited.jsonl"),
                 "--manifest", str(root / "manifest.json")]) == 0
assert state.requests == 40
print([m for m in ("numpy", "scipy", "requests") if m in sys.modules])
"""


def run_child(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_offline_chain_loads_no_third_party_package(tmp_path):
    assert run_child(CHAIN, tmp_path) == "[]"


def test_elicit_loads_no_third_party_package(tmp_path):
    assert run_child(ELICIT, tmp_path) == "[]"


def test_oracles_load_without_importing_the_package():
    code = ("import importlib.util, sys; "
            "spec = importlib.util.spec_from_file_location('oracles', sys.argv[1]); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
            "print('elicitbench' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": ""}
    done = subprocess.run([sys.executable, "-c", code, str(TESTS / "oracles.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _unused_imports(path: Path) -> list[str]:
    """The names `path` imports and never reads (annotations, `TYPE_CHECKING` ones too)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    # the base of an attribute (`typing.get_args`) is a Name node as well
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("elicitbench/*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []
