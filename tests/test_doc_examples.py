"""The examples in the docs run, and their configs load, as the docs give them."""
import json
import re
import shlex
from pathlib import Path

from elicitbench.cli import main
from elicitbench.corpus import corpus_config_from_dict
from elicitbench.elicitation import TokenBudget, VendorParam, WebSearch, model_specs_from_config
from elicitbench.extraction import extract_triplet

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_models_file_example_loads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if '"models"' in b]
    specs = model_specs_from_config(json.loads(block), "README.md")
    assert [s.model_id for s in specs] == ["some-reasoning-model", "budget-model", "plain-model"]
    assert [type(s.effort_mode) for s in specs] == [VendorParam, TokenBudget, type(None)]
    assert specs[0].tool_policy == WebSearch(max_searches=5)
    assert specs[0].timeout == 120.0 and type(specs[0].timeout) is float


def test_demo_corpus_config_loads():
    raw = json.loads((DATA / "templates_demo.json").read_text(encoding="utf-8"))
    config = corpus_config_from_dict(raw, base_dir=DATA)
    (dataset,) = config.datasets
    assert dataset.table == str(DATA / "health_fixture.csv")
    assert [t.template_id for t in dataset.templates] == ["smoking-rate", "mean-bmi"]
    assert (config.seed, config.questions_per_dataset) == (20250810, 4)


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```bash\n(.*?)```", quickstart, re.S)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert command[0] == "elicitbench"
        assert main(command[1:]) == 0, command
    # The report files the README lists; the tool comparison only with --tool-scores.
    (report,) = re.findall(r"`([^`]+)/` then contains", quickstart)
    listed = re.findall(r"^- `(\w+)` - (.*?)(?=^- |\Z)", quickstart, re.M | re.S)
    assert listed
    ran_with_tools = any("--tool-scores" in command for command in commands)
    for name, description in listed:
        expected = ran_with_tools or "--tool-scores" not in description
        for suffix in (".tsv", ".txt"):
            assert (tmp_path / report / f"{name}{suffix}").exists() == expected, name
    # The fits header the README gives is the one calibrate wrote.
    (fits,) = [command[command.index("--fits") + 1] for command in commands if "--fits" in command]
    header = next(line for line in (tmp_path / fits).read_text(encoding="utf-8").splitlines()
                  if not line.startswith("#"))
    assert f"```text\n  {header}\n  ```" in readme


def _readme_section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_parse_examples_parse_as_given():
    # An example may wrap across lines, and names a character it holds as <U+XXXX>.
    section = " ".join(line.strip() for line in _readme_section(
        "Scoring and calibration semantics").splitlines())
    section = re.sub(r"<U\+([0-9A-F]{4})>", lambda m: chr(int(m.group(1), 16)), section)
    found = re.findall(r"`([^`]+)` parses to \(([^)]+)\)(?:, and so does `([^`]+)`)?", section)
    examples = []
    for text, triplet, same in found:
        examples += [(text, triplet), (same, triplet)] if same else [(text, triplet)]
    assert len(examples) == section.count("parses to") + section.count("and so does") > 0
    for text, triplet in examples:
        t = extract_triplet(text, "continuous").triplet
        assert (t.value, t.lower, t.upper) == tuple(float(x) for x in triplet.split(",")), text


def test_readme_layout_lists_every_module():
    (layout,) = re.findall(r"```\n(src/elicitbench/.*?)```", _readme_section("Layout"), re.S)
    listed = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    modules = {path.name for path in (ROOT / "src" / "elicitbench").glob("*.py")}
    assert listed == modules - {"__init__.py"}
