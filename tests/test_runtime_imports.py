"""The stages run on the standard library alone.

elicitbench has no runtime dependency; numpy and scipy are test references.
`elicit` speaks HTTP/1.1 on the standard library's sockets from worker
threads; it imports its transport and `concurrent.futures` only when it
runs, so the offline stages never load them. Fresh interpreters run the
offline chain, and `elicit` against a local stub server, through `main` and
then list the modules they loaded.

No offline stage loads OpenSSL (`_hashlib` or `ssl`): the package takes its
hash functions from the interpreter's built-in modules, not from `hashlib`,
and only an https route needs TLS. `elicit` against an http stub loads none
of `ssl`, `_ssl`, `_hashlib`, `http.client`, `email` or `urllib.request`;
against an https stub it loads `ssl`. No offline stage loads `multiprocessing`,
`concurrent.futures` or `subprocess`: `simulate` forks its slices with
`os.fork` (`concurrent.futures.process` alone costs about 26 ms and 2.6 MB),
and only `simulate` loads `elicitbench.slices`, the fork code, which would
add about 0.11 MB to every stage's peak RSS.
No stage loads `tempfile`, and `heapq` is
imported only by the code that uses it, so that a stage which does not use
it keeps it out of its memory: only `report --tool-scores` merges rows. Each
stage runs in a fresh `python -S` interpreter, where no site `.pth` file has
loaded them first.

The benchmark loads `tests/oracles.py` by its file path, without `src/` on
the path, so loading it must not import the package.

No module in `src/` imports a name it does not use.
"""
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from elicitbench.cli import main
from stubserver import StubServer, StubState

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


STAGE = r"""
import sys

from elicitbench.cli import main

assert main(sys.argv[1:]) == 0
print(sorted(m for m in ("_hashlib", "ssl", "tempfile", "heapq", "multiprocessing",
                         "concurrent.futures", "subprocess", "elicitbench.slices")
             if m in sys.modules))
"""


def run_child(code, *args, flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_offline_chain_loads_no_third_party_package(tmp_path):
    assert run_child(CHAIN, tmp_path) == "[]"


def test_elicit_loads_no_third_party_package(tmp_path):
    assert run_child(ELICIT, tmp_path) == "[]"


def test_no_offline_stage_loads_openssl_or_tempfile_and_only_the_tool_comparison_heapq(
        tmp_path):
    suite, parsed, scores = tmp_path / "suite", tmp_path / "parsed.jsonl", tmp_path / "scores.jsonl"
    fits = tmp_path / "fits.tsv"
    for name in ("templates_demo.json", "health_fixture.csv"):
        shutil.copy(TESTS / "data" / name, tmp_path / name)
    stages = [
        (["generate", "--config", tmp_path / "templates_demo.json",
          "--out", tmp_path / "corpus.jsonl"], "[]"),
        (["simulate", "--n-questions", "50", "--seed", "7", "--out-dir", suite],
         "['elicitbench.slices']"),
        (["extract", "--transcript", suite / "transcript.jsonl", "--corpus", suite / "corpus.jsonl",
          "--out", parsed], "[]"),
        (["score", "--parsed", parsed, "--corpus", suite / "corpus.jsonl", "--out", scores], "[]"),
        (["calibrate", "--scores", scores, "--out", tmp_path / "calibrated.jsonl", "--fits", fits],
         "[]"),
        (["report", "--scores", scores, "--calibration", fits, "--out-dir", tmp_path / "report"],
         "[]"),
        (["report", "--scores", scores, "--calibration", fits, "--tool-scores", scores,
          "--out-dir", tmp_path / "report"], "['heapq']"),
    ]
    assert [run_child(STAGE, *argv, flags=["-S"]) for argv, _ in stages] \
        == [loaded for _, loaded in stages]


ELICIT_STAGE = r"""
import sys

from elicitbench.cli import main

assert main(sys.argv[1:]) == 0
print(sorted(m for m in ("ssl", "_ssl", "_hashlib", "http.client", "email", "urllib.request")
             if m in sys.modules))
"""


@pytest.mark.parametrize("scheme, loaded", [("http", "[]"), ("https", "['_ssl', 'ssl']")])
def test_only_an_https_route_loads_openssl(tmp_path, monkeypatch, scheme, loaded):
    # The stub runs here: `http.server` imports `http.client` and `email`.
    # A proxy variable would load `urllib.request` for its routes.
    for name in [name for name in os.environ if name.lower().endswith("_proxy")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("SSL_CERT_FILE", str(TESTS / "data" / "tls_ca.pem"))
    assert main(["simulate", "--n-questions", "3", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    state = StubState(keep_alive=True)
    certfile = TESTS / "data" / "tls_localhost.pem" if scheme == "https" else None
    with StubServer(state, certfile=certfile) as server:
        assert server.url.startswith(f"{scheme}://")
        (tmp_path / "models.json").write_text(json.dumps({"models": [{
            "model_id": "stub", "endpoint_url": server.url, "rate_limit_per_minute": 100000}]}))
        argv = ["elicit", "--corpus", tmp_path / "corpus.jsonl", "--models",
                tmp_path / "models.json", "--out", tmp_path / "t.jsonl",
                "--manifest", tmp_path / "m.json"]
        assert run_child(ELICIT_STAGE, *argv, flags=["-S"]) == loaded
    assert state.requests == 9


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
