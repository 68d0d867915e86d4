"""Benchmark workloads: seeded inputs, the CLI stage chain, and output checks.

Each check compares a stage's output with a reference computed here, from
the benchmark's own inputs, the parser fixture file and ``tests/oracles.py``;
none of it calls elicitbench code. A check returns failure messages, so an
empty list means the stage's output is right.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import importlib.util
import json
import math
import random
import re
import subprocess
import sys
import urllib.request
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import stub

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "data" / "parser_fixtures.jsonl"
ORACLES = ROOT / "tests" / "oracles.py"
SAMPLE_SIZE = 200  # score rows checked against the oracles per score stage
NLL_RTOL = 1e-9
# calibrate's settings, passed explicitly so the checks need not assume defaults
ALPHA, MIN_CAL = 0.05, 15


def calibrate_args(cal_fraction: float) -> list[str]:
    return ["--alpha", str(ALPHA), "--cal-fraction", str(cal_fraction), "--min-cal", str(MIN_CAL)]


def coverage_tolerance(n_cal: int, n_test: int) -> float:
    """Allowed distance of a group's coverage_after from 1 - alpha.

    0.01 is about six standard errors at 1e5 rows. With fewer rows the
    calibration quantile and the test sample vary more, so the band widens to
    five standard errors and a correct calibration still passes.
    """
    se = math.sqrt(ALPHA * (1 - ALPHA) * (1 / (n_cal + 1) + 1 / n_test))
    return max(0.01, 5 * se)


@dataclass
class Checked:
    """Outcome of one stage's output check.

    ``ops``/``failed_ops`` count operations inside the stage beyond the stage
    invocation itself: one per elicited key, failed when its transport failed.
    """

    failures: list[str] = field(default_factory=list)
    ops: int = 0
    failed_ops: int = 0


@dataclass
class Step:
    stage: str
    argv: list[str]
    check: Callable[[], Checked]


def seed_of(*parts: object) -> int:
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def read_rows(path: Path) -> list[dict]:
    """Data rows of a JSONL artifact (the first line is its header)."""
    with path.open(encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [json.loads(line) for line in lines[1:] if line.strip()]


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


class Artifacts:
    """One chain's artifacts, each parsed once: no stage rewrites another's file."""

    def __init__(self, run: Path):
        self.run = run
        self._memo: dict[str, object] = {}

    def memo(self, key: str, build: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def rows(self, name: str) -> list[dict]:
        return self.memo(name, lambda: read_rows(self.run / name))


@functools.cache
def oracles():
    """tests/oracles.py, loaded from the checkout on first use."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nll_failures(score_rows: list[dict], reference: dict[tuple, tuple], truths: dict[str, dict],
                 seed: int) -> list[str]:
    """Check NLL and coverage of a seeded sample of valid score rows.

    ``reference`` maps (question, model, effort) to the triplet the answer
    text holds; ``truths`` maps question ids to the corpus ground truth.
    """
    o = oracles()
    valid = [r for r in score_rows if r["outcome"] == "valid"]
    sample = random.Random(seed).sample(valid, min(SAMPLE_SIZE, len(valid)))
    failures = []
    for row in sample:
        qid = row["question_id"]
        value, lower, upper = reference[(qid, row["model_id"], row["effort"])]
        truth = truths[qid]
        if row["kind"] == "proportion":
            want = o.nll_binomial_oracle(value, truth["n"], truth["k"])
        else:
            want = o.nll_gaussian_oracle(value, lower, upper, truth["value"])
        if not abs(row["nll"] - want) <= NLL_RTOL * max(1.0, abs(want)):
            failures.append(f"score: nll of {qid} is {row['nll']!r}, oracle gives {want!r}")
        covered = o.coverage_oracle([(lower, upper, truth["value"])]) == 1.0
        if row["covered"] != covered:
            failures.append(f"score: covered of {qid} is {row['covered']}, oracle gives {covered}")
    return failures


def summary_failures(report_dir: Path, score_rows: list[dict], sections: list[str]) -> list[str]:
    """Report files exist, and the summary's counts match the score rows."""
    failures = [f"report: {name}.tsv missing" for name in sections
                if not (report_dir / f"{name}.tsv").exists()]
    if failures:
        return failures
    want: Counter = Counter()
    for row in score_rows:
        if row["outcome"] in ("valid", "invalid"):
            want[(row["model_id"], row["effort"], row["outcome"])] += 1
    for line in read_tsv(report_dir / "summary_by_model_effort.tsv"):
        for outcome in ("valid", "invalid"):
            got = int(line[f"n_{outcome}"])
            expected = want.pop((line["model"], line["effort"], outcome), 0)
            if got != expected:
                failures.append(
                    f"report: n_{outcome} of {line['model']}/{line['effort']} is {got}, "
                    f"score rows give {expected}"
                )
    failures += [f"report: summary lacks {key}" for key, n in want.items() if n]
    return failures


def q_hats(path: Path) -> dict[tuple, str]:
    """q_hat by (model, effort, dataset) from a calibration table."""
    return {(r["model"], r["effort"], r["dataset"]): r["q_hat"] for r in read_tsv(path)}


def fits_match_report(fits: Path, report_dir: Path) -> list[str]:
    """The report's calibration table repeats calibrate's fits."""
    if q_hats(fits) != q_hats(report_dir / "coverage_calibration.tsv"):
        return ["report: coverage_calibration q_hat differs from calibrate's fits"]
    return []


# --------------------------------------------------------------------------
# synthetic: one large (model, effort, dataset) group, no corpus or HTTP work

_CANONICAL = re.compile(r"value: (\S+), lower: (\S+), upper: (\S+)")


class Synthetic:
    """``simulate`` of N questions, then extract, score, calibrate and report."""

    def __init__(self, n_questions: int, seed: int):
        self.n_questions = n_questions
        self.seed = seed

    def setup(self, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        pass

    def steps(self, run: Path) -> list[Step]:
        s = str(run)
        a = Artifacts(run)
        return [
            Step("simulate", ["simulate", "--n-questions", str(self.n_questions),
                              "--width-shrink", "4", "--noise", "5", "--refusal-rate", "0.1",
                              "--proportion-fraction", "0.3", "--seed", str(self.seed),
                              "--out-dir", s], lambda: self.check_simulate(a)),
            Step("extract", ["extract", "--transcript", f"{s}/transcript.jsonl",
                             "--corpus", f"{s}/corpus.jsonl", "--out", f"{s}/parsed.jsonl"],
                 lambda: self.check_extract(a)),
            Step("score", ["score", "--parsed", f"{s}/parsed.jsonl", "--corpus",
                           f"{s}/corpus.jsonl", "--out", f"{s}/scores.jsonl"],
                 lambda: self.check_score(a)),
            Step("calibrate", ["calibrate", "--scores", f"{s}/scores.jsonl", *calibrate_args(0.3),
                               "--seed", str(self.seed), "--out", f"{s}/calibrated.jsonl",
                               "--fits", f"{s}/fits.tsv"], lambda: self.check_calibrate(a)),
            Step("report", ["report", "--scores", f"{s}/scores.jsonl", "--calibration",
                            f"{s}/fits.tsv", "--out-dir", f"{s}/report"],
                 lambda: self.check_report(a)),
        ]

    def _reference(self, a: Artifacts) -> list[tuple[str, tuple | None]]:
        """(question id, triplet or None for a clarification) per transcript row."""
        def build():
            out = []
            for row in a.rows("transcript.jsonl"):
                m = _CANONICAL.fullmatch(row["raw_text"])
                out.append((row["question_id"], tuple(map(float, m.groups())) if m else None))
            return out
        return a.memo("reference", build)

    def check_simulate(self, a: Artifacts) -> Checked:
        n_corpus = len(a.rows("corpus.jsonl"))
        n_transcript = len(a.rows("transcript.jsonl"))
        if n_corpus == n_transcript == self.n_questions:
            return Checked()
        return Checked([f"simulate: {n_corpus} questions and {n_transcript} transcript rows, "
                        f"expected {self.n_questions}"])

    def check_extract(self, a: Artifacts) -> Checked:
        reference = self._reference(a)
        parsed = a.rows("parsed.jsonl")
        if len(parsed) != len(reference):
            return Checked([f"extract: {len(parsed)} rows for {len(reference)} transcript rows"])
        failures = []
        for (qid, triplet), row in zip(reference, parsed):
            if row["question_id"] != qid:
                failures.append(f"extract: row for {row['question_id']} where {qid} was expected")
            elif triplet is None:
                if row["outcome"] != "invalid" or row["reason"] != "clarification":
                    failures.append(f"extract: clarification for {qid} parsed as {row['outcome']}")
            elif row["outcome"] != "valid" or (
                row["triplet"]["value"], row["triplet"]["lower"], row["triplet"]["upper"]
            ) != triplet:
                failures.append(f"extract: {qid} parsed as {row['triplet']}, text holds {triplet}")
        n_invalid = sum(r["outcome"] == "invalid" for r in parsed)
        n_clarify = sum(t is None for _, t in reference)
        if n_invalid != n_clarify:
            failures.append(f"extract: {n_invalid} invalid rows for {n_clarify} clarifications")
        return Checked(failures[:20])

    def check_score(self, a: Artifacts) -> Checked:
        reference = {(qid, "synthetic", "low"): t for qid, t in self._reference(a) if t}
        truths = {q["question_id"]: q["truth"] for q in a.rows("corpus.jsonl")}
        rows = a.rows("scores.jsonl")
        failures = []
        n_valid = sum(r["outcome"] == "valid" for r in rows)
        if n_valid != len(reference):
            failures.append(f"score: {n_valid} valid rows, transcript has {len(reference)} answers")
        failures += nll_failures(rows, reference, truths, seed_of(self.seed, "score-sample"))
        return Checked(failures[:20])

    def check_calibrate(self, a: Artifacts) -> Checked:
        fits = read_tsv(a.run / "fits.tsv")
        n_valid = sum(r["outcome"] == "valid" for r in a.rows("scores.jsonl"))
        n_calibrated = len(a.rows("calibrated.jsonl"))
        failures = []
        if n_calibrated != n_valid:
            failures.append(f"calibrate: {n_calibrated} rows for {n_valid} valid score rows")
        if len(fits) != 1:
            return Checked(failures + [f"calibrate: {len(fits)} groups, expected 1"])
        after = float(fits[0]["coverage_after"] or "nan")
        tolerance = coverage_tolerance(int(fits[0]["n_cal"]), int(fits[0]["n_test"]))
        if not abs(after - (1 - ALPHA)) <= tolerance:
            failures.append(f"calibrate: coverage_after {after} is not within {tolerance:.4f} "
                            f"of {1 - ALPHA}")
        return Checked(failures)

    def check_report(self, a: Artifacts) -> Checked:
        report = a.run / "report"
        failures = summary_failures(
            report, a.rows("scores.jsonl"),
            ["summary_by_model_effort", "nll_sharpness", "baseline_win_rate",
             "coverage_calibration"])
        if not failures:
            failures = fits_match_report(a.run / "fits.tsv", report)
        return Checked(failures)


# --------------------------------------------------------------------------
# survey-grid: tables -> generate -> elicit against the stub -> small groups


@dataclass(frozen=True)
class TableSpec:
    dataset_id: str
    rows: int
    axes: dict[str, list[str]]
    binary: str
    numeric: str
    min_group_size: int
    proportion_prompt: str
    continuous_prompt: str


_AGES = ["18-24", "25-34", "35-49", "50-64", "65plus"]
_SEXES = ["female", "male"]
_ASK_PCT = ("Provide the percentage and a 95% confidence interval as three numbers: "
            "value, lower, upper.")
_ASK_EST = ("Provide your estimate and a 95% confidence interval as three numbers: "
            "value, lower, upper.")
TABLES = [
    TableSpec("census", 2400,
              {"region": [f"r{i}" for i in range(1, 9)], "age_group": _AGES, "sex": _SEXES},
              "employed", "income", 10,
              "What percentage of {sex} residents aged {age_group} in region {region} of "
              "the benchmark census are employed? " + _ASK_PCT,
              "What is the mean income, in thousands, of {sex} residents aged {age_group} "
              "in region {region} of the benchmark census? " + _ASK_EST),
    TableSpec("health", 2000,
              {"state": [f"s{i}" for i in range(1, 9)], "age_group": _AGES, "sex": _SEXES},
              "smoker", "bmi", 10,
              "What percentage of {sex} adults aged {age_group} in state {state} of the "
              "benchmark health survey smoke? " + _ASK_PCT,
              "What is the mean BMI of {sex} adults aged {age_group} in state {state} of "
              "the benchmark health survey? " + _ASK_EST),
    # Small on purpose: its few questions leave every calibration group
    # below min_cal, so calibrate must flag them and pass them through.
    TableSpec("pilot", 300,
              {"site": ["a", "b", "c", "d"], "sex": _SEXES},
              "responded", "score", 15,
              "What percentage of {sex} participants at site {site} of the benchmark "
              "pilot responded? " + _ASK_PCT,
              "What is the mean score of {sex} participants at site {site} of the "
              "benchmark pilot? " + _ASK_EST),
]
QUESTIONS_PER_DATASET = 50
# Half of each group calibrates, so 50 questions leave census and health
# groups the 19 calibration points alpha = 0.05 needs while keeping elicit short.
CAL_FRACTION = 0.5
ZIPF_EXPONENT = 1.2
EFFORTS = ["low", "medium", "high"]
# The tool pass asks at one effort only, to keep the pass short; the tool
# comparison pairs each answer with the base answer at the same effort.
TOOL_EFFORTS = ["high"]
VENDOR_VALUES = {"low": "low", "medium": "medium", "high": "high"}
TOKEN_BUDGETS = {"low": 2000, "medium": 8000, "high": 16000}
UNLIMITED_PER_MINUTE = 600000.0
# The one binding limit: the non-reasoning model's requests arrive faster
# than this, so workers wait in its limiter (and hold their pool slot).
PLAIN_MODEL_PER_MINUTE = 2000.0


def make_table(spec: TableSpec, seed: int) -> list[dict[str, str]]:
    """Seeded rows with Zipf-like axis marginals, so subgroup sizes vary widely."""
    rng = random.Random(seed_of(seed, "table", spec.dataset_id))
    weights = {axis: [1.0 / (k ** ZIPF_EXPONENT) for k in range(1, len(values) + 1)]
               for axis, values in spec.axes.items()}
    rows = []
    for _ in range(spec.rows):
        row = {}
        shift = 0.0
        for axis, values in spec.axes.items():
            index = rng.choices(range(len(values)), weights[axis])[0]
            row[axis] = values[index]
            shift += index / len(values)
        row[spec.binary] = "1" if rng.random() < 0.15 + 0.2 * shift / len(spec.axes) else "0"
        row[spec.numeric] = f"{rng.gauss(25.0 + 10.0 * shift, 6.0):.2f}"
        rows.append(row)
    return rows


def model_specs(url: str) -> list[dict]:
    """Three specs, one per effort mode: 3 + 3 + 1 = 7 model x effort cells."""
    web = {"type": "web_search", "max_searches": 3}
    common = {"endpoint_url": url, "max_retries": 2, "timeout": 30}
    return [
        {"model_id": "vendor-reasoner", **common, "rate_limit_per_minute": UNLIMITED_PER_MINUTE,
         "effort_mode": {"type": "vendor_param", "param": "reasoning_effort",
                         "values": VENDOR_VALUES}, "tool_policy": web},
        {"model_id": "budget-reasoner", **common, "rate_limit_per_minute": UNLIMITED_PER_MINUTE,
         "effort_mode": {"type": "token_budget", "param": "thinking_budget_tokens",
                         "budgets": TOKEN_BUDGETS}, "tool_policy": web},
        {"model_id": "plain-model", **common, "rate_limit_per_minute": PLAIN_MODEL_PER_MINUTE,
         "effort_mode": {"type": "non_reasoning"}},
    ]


def effort_repr(spec: dict, effort: str) -> str:
    """How a model spec expresses an effort level in the request body."""
    mode = spec["effort_mode"]
    if mode["type"] == "vendor_param":
        return str(mode["values"][effort])
    if mode["type"] == "token_budget":
        return str(mode["budgets"][effort])
    return ""


def expected_keys(questions: list[dict], specs: list[dict], tools: bool) -> set[tuple]:
    efforts = TOOL_EFFORTS if tools else EFFORTS
    keys = set()
    for q in questions:
        for spec in specs:
            reasoning = spec["effort_mode"]["type"] != "non_reasoning"
            for effort in (efforts if reasoning else ["none"]):
                keys.add((q["question_id"], spec["model_id"], effort, tools))
    return keys


class SurveyGrid:
    """Corpus from seeded tables, two elicit passes against the stub, small groups."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tables: dict[str, list[dict[str, str]]] = {}
        self.stub: subprocess.Popen | None = None
        self.url = ""
        self.fixtures = stub.load_fixtures(FIXTURES)

    # -- set-up -----------------------------------------------------------

    def setup(self, inputs: Path) -> None:
        """Write tables, corpus config and model specs; start the stub and wait for it."""
        self.close()
        inputs.mkdir(parents=True, exist_ok=True)
        datasets = []
        for spec in TABLES:
            rows = self.tables[spec.dataset_id] = make_table(spec, self.seed)
            with (inputs / f"{spec.dataset_id}.csv").open("w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            common = {"axes": spec.axes, "min_group_size": spec.min_group_size}
            datasets.append({
                "dataset_id": spec.dataset_id,
                "table": f"{spec.dataset_id}.csv",
                "templates": [
                    {"template_id": f"{spec.dataset_id}-rate", "prompt": spec.proportion_prompt,
                     "kind": "proportion", "target_column": spec.binary, **common},
                    {"template_id": f"{spec.dataset_id}-mean", "prompt": spec.continuous_prompt,
                     "kind": "continuous", "target_column": spec.numeric, **common},
                ],
            })
        config = {"seed": self.seed, "questions_per_dataset": QUESTIONS_PER_DATASET,
                  "ci_level": 0.95, "datasets": datasets}
        (inputs / "corpus_config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")

        self.stub = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py")), "--fixtures",
             str(FIXTURES), "--seed", str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"stub did not start: {line!r}")
        base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = f"{base}/v1/chat/completions"
        self.specs = model_specs(self.url)
        self.tool_specs = [s for s in self.specs if "tool_policy" in s]
        (inputs / "models.json").write_text(json.dumps({"models": self.specs}), encoding="utf-8")
        (inputs / "models_tools.json").write_text(
            json.dumps({"models": self.tool_specs}), encoding="utf-8")
        self.stub_stats()  # answers, so the stub is ready
        self.inputs = inputs

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stdin.close()  # the stub stops at end of input
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    def _stub_call(self, path: str, data: bytes | None) -> dict:
        # The stub listens before it prints its port, so the first call connects.
        base = self.url.rsplit("/v1/", 1)[0]
        with urllib.request.urlopen(base + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def stub_stats(self, reset: bool = False) -> dict:
        """The stub's counters; with reset, zero them afterwards."""
        stats = self._stub_call("/stats", None)
        if reset:
            self._stub_call("/reset", b"")
        return stats

    # -- chain ------------------------------------------------------------

    def steps(self, run: Path) -> list[Step]:
        s, i = str(run), str(self.inputs)
        a = Artifacts(run)
        elicit = ["--corpus", f"{s}/corpus.jsonl", "--concurrency", "2",
                  "--backoff-base", "0.01", "--seed", str(self.seed)]
        steps = [
            Step("generate", ["generate", "--config", f"{i}/corpus_config.json",
                              "--out", f"{s}/corpus.jsonl"], lambda: self.check_generate(a)),
        ]
        passes = (("", "models.json", EFFORTS, []),
                  ("_tools", "models_tools.json", TOOL_EFFORTS, ["--tools"]))
        for tag, models, efforts, extra in passes:
            tools = bool(extra)
            steps.append(Step("elicit", ["elicit", *elicit, "--models", f"{i}/{models}",
                                         "--efforts", ",".join(efforts), *extra,
                                         "--out", f"{s}/transcript{tag}.jsonl",
                                         "--manifest", f"{s}/run_manifest{tag}.json"],
                              lambda tag=tag, tools=tools: self.check_elicit(a, tag, tools)))
        for tag in ("", "_tools"):
            steps.append(Step("extract", ["extract", "--transcript", f"{s}/transcript{tag}.jsonl",
                                          "--corpus", f"{s}/corpus.jsonl",
                                          "--out", f"{s}/parsed{tag}.jsonl"],
                              lambda tag=tag: self.check_extract(a, tag)))
        for tag in ("", "_tools"):
            steps.append(Step("score", ["score", "--parsed", f"{s}/parsed{tag}.jsonl",
                                        "--corpus", f"{s}/corpus.jsonl",
                                        "--out", f"{s}/scores{tag}.jsonl"],
                              lambda tag=tag: self.check_score(a, tag)))
        steps.append(Step("calibrate", ["calibrate", "--scores", f"{s}/scores.jsonl",
                                        *calibrate_args(CAL_FRACTION), "--seed", str(self.seed),
                                        "--out", f"{s}/calibrated.jsonl",
                                        "--fits", f"{s}/fits.tsv"],
                          lambda: self.check_calibrate(a)))
        steps.append(Step("report", ["report", "--scores", f"{s}/scores.jsonl", "--calibration",
                                     f"{s}/fits.tsv", "--tool-scores", f"{s}/scores_tools.jsonl",
                                     "--out-dir", f"{s}/report"], lambda: self.check_report(a)))
        return steps

    # -- checks -----------------------------------------------------------

    def _questions(self, a: Artifacts) -> dict[str, dict]:
        return a.memo("questions", lambda: {q["question_id"]: q for q in a.rows("corpus.jsonl")})

    def check_generate(self, a: Artifacts) -> Checked:
        """Counts per dataset and each question's truth, recomputed from the tables."""
        o = oracles()
        failures = []
        questions = list(self._questions(a).values())
        for spec in TABLES:
            cells: dict[tuple, list[dict]] = defaultdict(list)
            for row in self.tables[spec.dataset_id]:
                cells[tuple(row[a] for a in spec.axes)].append(row)
            eligible = sum(2 for members in cells.values() if len(members) >= spec.min_group_size)
            mine = [q for q in questions if q["dataset_id"] == spec.dataset_id]
            if len(mine) != min(QUESTIONS_PER_DATASET, eligible):
                failures.append(f"generate: {spec.dataset_id} has {len(mine)} questions, "
                                f"expected {min(QUESTIONS_PER_DATASET, eligible)}")
            for q in mine:
                members = cells.get(tuple(q["params"][a] for a in spec.axes), [])
                truth = q["truth"]
                n = len(members)
                if q["kind"] == "proportion":
                    k = sum(r[spec.binary] == "1" for r in members)
                    lower, upper = o.wilson_oracle(k, n) if n else (None, None)
                    want = (100.0 * k / n if n else None, lower, upper, n)
                else:
                    values = [float(r[spec.numeric]) for r in members]
                    mean = math.fsum(values) / n if n else 0.0
                    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
                    half = o.Z975 * sd / math.sqrt(n) if n else 0.0
                    want = (mean, mean - half, mean + half, n)
                got = (truth["value"], truth["lower"], truth["upper"], truth["n"])
                if n < spec.min_group_size or not all(
                    math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9) for g, w in zip(got, want)
                ):
                    failures.append(f"generate: truth of {q['question_id']} is {got}, table gives {want}")
        return Checked(failures[:20])

    def _expected_fixture(self, question: dict, spec: dict, effort: str, tools: bool) -> dict:
        key = stub.reply_key(spec["model_id"], effort_repr(spec, effort), question["prompt"], tools)
        return stub.fixture_for(self.fixtures, self.seed, key, question["kind"])

    def check_elicit(self, a: Artifacts, tag: str, tools: bool) -> Checked:
        """Every expected key exactly once, transport ok, carrying its fixture's text.

        Rows are read in file (completion) order and never sorted.
        """
        questions = self._questions(a)
        specs = {s["model_id"]: s for s in (self.tool_specs if tools else self.specs)}
        want = expected_keys(list(questions.values()), list(specs.values()), tools)
        rows = a.rows(f"transcript{tag}.jsonl")
        seen = Counter((r["question_id"], r["model_id"], r["effort"], r["tools_enabled"])
                       for r in rows)
        failures = [f"elicit: key {k} appears {n} times" for k, n in seen.items() if n > 1]
        failures += [f"elicit: key {k} missing" for k in want - set(seen)]
        failures += [f"elicit: unexpected key {k}" for k in set(seen) - want]
        transport_failed = 0
        for r in rows:
            if r["transport_status"] != "ok":
                transport_failed += 1
                failures.append(f"elicit: transport failed for {r['question_id']}/"
                                f"{r['model_id']}/{r['effort']}: {r['failure_reason']}")
                continue
            fixture = self._expected_fixture(questions[r["question_id"]], specs[r["model_id"]],
                                             r["effort"], tools)
            if r["raw_text"] != fixture["raw_text"]:
                failures.append(f"elicit: {r['question_id']}/{r['model_id']}/{r['effort']} "
                                f"got text {r['raw_text']!r}, stub sends fixture line {fixture['line']}")
        return Checked(failures[:20], ops=len(want), failed_ops=transport_failed)

    def check_extract(self, a: Artifacts, tag: str) -> Checked:
        """Each parsed row equals its fixture's expected_outcome."""
        questions = self._questions(a)
        tools = bool(tag)
        specs = {s["model_id"]: s for s in self.specs}
        failures = []
        for row in a.rows(f"parsed{tag}.jsonl"):
            if row["outcome"] == "transport_failed":
                continue  # counted against elicit
            fixture = self._expected_fixture(questions[row["question_id"]], specs[row["model_id"]],
                                             row["effort"], tools)
            want = fixture["expected_outcome"]
            if want["outcome"] == "valid":
                got = {"outcome": row["outcome"], **(row["triplet"] or {})}
                fields = ("outcome", "value", "lower", "upper", "bounds_reordered",
                          "value_outside_interval")
            else:
                got = row
                fields = ("outcome", "reason")
            if any(got.get(f) != want[f] for f in fields):
                failures.append(f"extract: fixture line {fixture['line']} "
                                f"({fixture['raw_text']!r}) parsed as "
                                f"{ {f: got.get(f) for f in fields} }, expected "
                                f"{ {f: want[f] for f in fields} }")
        return Checked(failures[:20])

    def check_score(self, a: Artifacts, tag: str) -> Checked:
        questions = self._questions(a)
        tools = bool(tag)
        specs = {s["model_id"]: s for s in self.specs}
        rows = a.rows(f"scores{tag}.jsonl")
        n_parsed = len(a.rows(f"parsed{tag}.jsonl"))
        failures = [] if len(rows) == n_parsed else [
            f"score: {len(rows)} rows for {n_parsed} parsed rows"]
        reference = {}
        for row in rows:
            if row["outcome"] == "valid":
                want = self._expected_fixture(questions[row["question_id"]],
                                              specs[row["model_id"]], row["effort"],
                                              tools)["expected_outcome"]
                reference[(row["question_id"], row["model_id"], row["effort"])] = (
                    want["value"], want["lower"], want["upper"])
        truths = {qid: q["truth"] for qid, q in questions.items()}
        failures += nll_failures(rows, reference, truths, seed_of(self.seed, "score", tag))
        return Checked(failures[:20])

    def check_calibrate(self, a: Artifacts) -> Checked:
        """Calibrated rows are exactly the valid score rows; flags follow the group sizes.

        Calibrated bytes and q_hat are not pinned: calibrate splits groups in
        file order and elicit writes in completion order.
        """
        o = oracles()
        valid = Counter(
            (r["model_id"], r["effort"], r["dataset_id"], r["question_id"])
            for r in a.rows("scores.jsonl") if r["outcome"] == "valid"
        )
        calibrated = Counter(
            (r["group"]["model_id"], r["group"]["effort"], r["group"]["dataset_id"], r["question_id"])
            for r in a.rows("calibrated.jsonl")
        )
        failures = []
        if calibrated != valid:
            failures.append(f"calibrate: {sum((calibrated - valid).values())} extra and "
                            f"{sum((valid - calibrated).values())} missing rows")
        sizes = Counter(key[:3] for key in valid)
        fits = read_tsv(a.run / "fits.tsv")
        if {(f["model"], f["effort"], f["dataset"]) for f in fits} != set(sizes):
            failures.append("calibrate: fitted groups differ from the valid score groups")
        for f in fits:
            n = sizes[(f["model"], f["effort"], f["dataset"])]
            n_cal = math.floor(CAL_FRACTION * n + 0.5)
            _, m = o.quantile_oracle([0.0] * n_cal, ALPHA)
            flag = "ok" if n_cal >= MIN_CAL and m <= n_cal else "insufficient_data"
            if (int(f["n_cal"]), int(f["n_test"]), f["flag"]) != (n_cal, n - n_cal, flag):
                failures.append(f"calibrate: group {f['model']}/{f['effort']}/{f['dataset']} "
                                f"has n_cal={f['n_cal']} n_test={f['n_test']} flag={f['flag']}, "
                                f"expected {n_cal}, {n - n_cal}, {flag}")
        return Checked(failures[:20])

    def check_report(self, a: Artifacts) -> Checked:
        report = a.run / "report"
        failures = summary_failures(
            report, a.rows("scores.jsonl"),
            ["summary_by_model_effort", "nll_sharpness", "baseline_win_rate",
             "coverage_calibration", "tool_comparison"])
        if not failures:
            failures = fits_match_report(a.run / "fits.tsv", report)
        return Checked(failures)


WORKLOADS = {
    "synthetic-20k": lambda seed: Synthetic(20000, seed),
    "survey-grid": SurveyGrid,
}
