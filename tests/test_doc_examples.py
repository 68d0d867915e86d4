"""The config examples the docs point to load through the config parsers as they stand."""
import json
import re
from pathlib import Path

from elicitbench.corpus import corpus_config_from_dict
from elicitbench.elicitation import TokenBudget, VendorParam, WebSearch, model_specs_from_config

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"


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
