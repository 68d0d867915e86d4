"""Question corpus generation from delimited tables.

Templates enumerate parameter assignments over dataset columns, ground truth
is a derived subgroup statistic (percentage or mean) with a 95% confidence
interval, candidates below a sample-size threshold are dropped, and a
fixed-size corpus is sampled deterministically.
"""
from __future__ import annotations

import csv
import itertools
import math
import random
import string
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from statistics import fmean, stdev
from typing import Sequence

from .errors import ConfigError, InputError, SchemaError
from .jsonlio import derive_seed, load_row, stable_hash64

# Central 95% two-sided normal quantile, frozen for byte-stable outputs.
Z_95 = 1.9599639845400536


class TargetKind(str, Enum):
    PROPORTION = "proportion"
    CONTINUOUS = "continuous"


class CIFamily(str, Enum):
    BINOMIAL = "binomial"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class GroundTruth:
    """Derived target statistic with its confidence interval.

    `value` is in percent for proportions and dataset units otherwise;
    `k` is the success count (proportions only).
    """

    value: float
    lower: float
    upper: float
    n: int
    family: CIFamily
    k: int | None = None

    def __post_init__(self) -> None:
        if not self.lower <= self.value <= self.upper:
            raise InputError(
                f"ground truth {self.value} outside its CI [{self.lower}, {self.upper}]"
            )
        if self.n < 1:
            raise InputError("ground truth sample size must be positive")
        if self.family is CIFamily.BINOMIAL:
            if self.k is None:
                raise InputError("binomial ground truth requires a success count")
            if not 0 <= self.k <= self.n:
                raise InputError("success count must satisfy 0 <= k <= n")
            if not 0.0 <= self.value <= 100.0:
                raise InputError("proportion ground truth must lie in [0, 100]")


@dataclass
class TruthColumns:
    """Ground truths as columns: row i of every column is one `GroundTruth`'s field.

    value, lower and upper are arrays of doubles; n and k stay lists of
    ints, so a count of any size is held as it was read.
    """
    value: array = field(default_factory=partial(array, "d"))
    lower: array = field(default_factory=partial(array, "d"))
    upper: array = field(default_factory=partial(array, "d"))
    n: list[int] = field(default_factory=list)
    family: list[CIFamily] = field(default_factory=list)
    k: list[int | None] = field(default_factory=list)

    def append(self, truth: GroundTruth) -> int:
        """Add a truth; returns its row number."""
        self.value.append(truth.value)
        self.lower.append(truth.lower)
        self.upper.append(truth.upper)
        self.n.append(truth.n)
        self.family.append(truth.family)
        self.k.append(truth.k)
        return len(self.n) - 1

    def __getitem__(self, i: int) -> GroundTruth:
        """Row i as the `GroundTruth` it was added as."""
        return GroundTruth(self.value[i], self.lower[i], self.upper[i], self.n[i],
                           self.family[i], self.k[i])


@dataclass(frozen=True)
class QuestionTemplate:
    """Prompt pattern with named placeholders plus the target definition.

    The fields are the config's template keys. `prompt` is the pattern;
    axis names double as dataset column names;
    `target_column` holds the statistic source: a binary column for
    proportions (a row counts as a success when its cell equals
    `success_value`) or a numeric column for continuous targets.
    """

    template_id: str
    prompt: str
    axes: dict[str, list[str]]
    kind: TargetKind
    target_column: str
    success_value: str = "1"
    min_group_size: int = 500

    def __post_init__(self) -> None:
        if self.min_group_size < 1:
            raise ConfigError(f"{self.template_id}: min_group_size must be >= 1")
        if not self.axes:
            raise ConfigError(f"{self.template_id}: at least one parameter axis required")
        for axis, values in self.axes.items():
            if not values:
                raise ConfigError(f"{self.template_id}: axis {axis!r} has no values")
            if len(set(values)) != len(values):
                raise ConfigError(f"{self.template_id}: axis {axis!r} has duplicate values")
        for placeholder in self.placeholders():
            if placeholder not in self.axes:
                raise ConfigError(
                    f"{self.template_id}: placeholder {{{placeholder}}} has no matching axis"
                )

    def placeholders(self) -> list[str]:
        return [
            name
            for _, name, _, _ in string.Formatter().parse(self.prompt)
            if name is not None
        ]

    def render(self, params: dict[str, str]) -> str:
        return self.prompt.format(**params)


@dataclass(frozen=True)
class Question:
    question_id: str
    dataset_id: str
    params: dict[str, str]
    prompt: str
    kind: TargetKind
    truth: GroundTruth

    from_dict = classmethod(load_row)

    def __post_init__(self) -> None:
        family = CIFamily.BINOMIAL if self.kind is TargetKind.PROPORTION else CIFamily.GAUSSIAN
        if self.truth.family is not family:
            raise InputError(f"a {self.kind.value} question needs a {family.value} truth, "
                             f"not a {self.truth.family.value} one")


def question_id_for(template_id: str, params: dict[str, str]) -> str:
    """Stable 64-bit id: hash of template id plus the sorted-axis assignment."""
    serialized = "|".join(f"{axis}={params[axis]}" for axis in sorted(params))
    return stable_hash64(f"{template_id}|{serialized}")


def proportion_ci(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for k successes of n, in percent, clipped to [0, 100]."""
    if n < 1:
        raise InputError("proportion CI needs n >= 1")
    if not 0 <= k <= n:
        raise InputError(f"need 0 <= k <= n, got k={k}, n={n}")
    z = Z_95
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lower = max(0.0, 100.0 * (center - half))
    upper = min(100.0, 100.0 * (center + half))
    # At p = 0 or 1 the Wilson bound equals the endpoint exactly; snap it so
    # rounding noise cannot push the point estimate outside its own interval.
    if k == 0:
        lower = 0.0
    if k == n:
        upper = 100.0
    return lower, upper


def binomial_truth(k: int, n: int) -> GroundTruth:
    """The truth of a proportion: k successes of n as 100·k/n percent, with its Wilson interval."""
    lower, upper = proportion_ci(k, n)
    return GroundTruth(value=100.0 * k / n, lower=lower, upper=upper, n=n,
                       family=CIFamily.BINOMIAL, k=k)


def continuous_ci(values: Sequence[float]) -> tuple[float, float, float, int]:
    """Mean with a normal-theory 95% CI (z quantile, sample SD with n-1 divisor) of 2+ values."""
    n = len(values)
    mean = fmean(values)
    s = stdev(values)
    half = Z_95 * s / math.sqrt(n)
    return mean, mean - half, mean + half, n


def load_table(path: str | Path) -> list[dict[str, str]]:
    """Read a delimited table (comma or tab, header row required).

    A header that names a column twice, or a row whose number of cells
    differs from the header's, raises SchemaError.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset table not found: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        try:
            first = fh.readline()
            if not first.strip():
                raise InputError(f"{path}: empty dataset")
            delimiter = "\t" if "\t" in first else ","
            fh.seek(0)
            reader = csv.reader(fh, delimiter=delimiter)
            header = next(reader)
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise SchemaError(f"{path}: the header names column {name!r} twice")
            rows = []
            for cells in reader:
                if not cells:
                    continue  # a blank line
                if len(cells) != len(header):
                    raise SchemaError(f"{path}: line {reader.line_num} has {len(cells)} cells, "
                                      f"the header {len(header)}")
                rows.append(dict(zip(header, cells)))
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 ({exc.reason})") from exc
    if not rows:
        raise InputError(f"{path}: no data rows under the header")
    return rows


def _subgroup_truth(
    template: QuestionTemplate, subgroup: list[dict[str, str]]
) -> GroundTruth | None:
    if template.kind is TargetKind.PROPORTION:
        k = sum(1 for row in subgroup if row[template.target_column].strip() == template.success_value)
        return binomial_truth(k, len(subgroup))
    cells = [row[template.target_column].strip() for row in subgroup]
    values = []
    for cell in cells:
        if cell == "":
            continue  # blank cells are treated as missing
        try:
            values.append(float(cell))
        except ValueError:
            raise SchemaError(
                f"{template.template_id}: non-numeric cell {cell!r} in column "
                f"{template.target_column!r}"
            )
    if len(values) < 2:
        return None  # no CI can be formed; the cell is unusable
    mean, lower, upper, n = continuous_ci(values)
    return GroundTruth(value=mean, lower=lower, upper=upper, n=n, family=CIFamily.GAUSSIAN)


def enumerate_candidates(
    template: QuestionTemplate, records: list[dict[str, str]], dataset_id: str
) -> list[Question]:
    """One candidate question per Cartesian-product assignment with a usable subgroup.

    `records` are `load_table`'s rows, so there is at least one. A subgroup is
    the rows, in file order, whose whitespace-stripped cell equals the
    assigned value on every axis. Empty subgroups are skipped, as are
    continuous subgroups with fewer than two numeric values (no CI can be
    formed for them).
    """
    needed = list(template.axes) + [template.target_column]
    for col in needed:
        if col not in records[0]:
            raise SchemaError(f"{template.template_id}: dataset lacks column {col!r}")
    axis_names = list(template.axes)
    subgroups: dict[tuple[str, ...], list[dict[str, str]]] = {}
    for row in records:
        subgroups.setdefault(tuple(row[a].strip() for a in axis_names), []).append(row)
    candidates: list[Question] = []
    for combo in itertools.product(*(template.axes[a] for a in axis_names)):
        params = dict(zip(axis_names, combo))
        subgroup = subgroups.get(tuple(params.values()))
        if not subgroup:
            continue
        truth = _subgroup_truth(template, subgroup)
        if truth is None:
            continue
        candidates.append(
            Question(
                question_id=question_id_for(template.template_id, params),
                dataset_id=dataset_id,
                params=params,
                prompt=template.render(params),
                kind=template.kind,
                truth=truth,
            )
        )
    return candidates


def filter_by_sample_size(candidates: Sequence[Question], min_n: int) -> list[Question]:
    """Keep candidates with ground-truth n >= min_n (inclusive), order preserved."""
    return [c for c in candidates if c.truth.n >= min_n]


def sample_corpus(
    candidates: Sequence[Question], k: int, seed: int
) -> tuple[list[Question], bool]:
    """Uniform sample without replacement, deterministic given the seed.

    Returns (questions, took_all): when k exceeds the candidate pool the whole
    pool is used and took_all is set.
    """
    took_all = k >= len(candidates)
    size = min(k, len(candidates))
    rng = random.Random(seed)
    chosen = rng.sample(range(len(candidates)), size)
    return [candidates[idx] for idx in chosen], took_all


@dataclass
class DatasetConfig:
    dataset_id: str
    table: str
    templates: list[QuestionTemplate]


@dataclass
class CorpusConfig:
    datasets: list[DatasetConfig]
    seed: int = 0
    questions_per_dataset: int = 100

    def __post_init__(self) -> None:
        if not self.questions_per_dataset >= 1:
            raise ConfigError(f"questions_per_dataset must be >= 1, got {self.questions_per_dataset}")

    def to_dict(self) -> dict:
        # The fixed "ci_level" and "column_map" keep corpus config hashes and downstream headers unchanged.
        return {
            "seed": self.seed,
            "questions_per_dataset": self.questions_per_dataset,
            "ci_level": 0.95,
            "datasets": [
                {"dataset_id": ds.dataset_id, "column_map": {}, "templates": ds.templates}
                for ds in self.datasets
            ],
        }


def corpus_config_from_dict(raw: dict, base_dir: str | Path = ".") -> CorpusConfig:
    """Parse the generation config; table paths resolve against base_dir."""
    config = load_row(CorpusConfig, raw)
    if raw.get("ci_level", 0.95) != 0.95:
        raise ConfigError(f"ci_level must be 0.95, got {raw['ci_level']!r}")
    for ds, raw_ds in zip(config.datasets, raw["datasets"]):
        if raw_ds.get("column_map"):
            raise ConfigError(f"{ds.dataset_id}: column_map is not supported")
        ds.table = str(Path(base_dir) / ds.table)
    return config


def generate_corpus(config: CorpusConfig) -> tuple[list[Question], dict]:
    """Enumerate, filter, and sample questions for every configured dataset.

    Pure given (config, tables): repeat runs produce identical corpora. Each
    dataset samples with a sub-seed derived from (seed, dataset_id) so adding
    a dataset never perturbs the others.
    """
    questions: list[Question] = []
    meta: dict = {"datasets": {}}
    dataset_of: dict[str, str] = {}  # question_id -> the dataset it was sampled for
    for ds in config.datasets:
        rows = load_table(ds.table)
        pool: list[Question] = []
        for template in ds.templates:
            cands = enumerate_candidates(template, rows, ds.dataset_id)
            pool.extend(filter_by_sample_size(cands, template.min_group_size))
        sampled, took_all = sample_corpus(
            pool, config.questions_per_dataset, derive_seed(config.seed, ds.dataset_id)
        )
        for q in sampled:
            if q.question_id in dataset_of:
                raise InputError(f"duplicate question id {q.question_id} in datasets "
                                 f"{dataset_of[q.question_id]} and {ds.dataset_id}")
            dataset_of[q.question_id] = ds.dataset_id
        questions.extend(sampled)
        meta["datasets"][ds.dataset_id] = {
            "candidates": len(pool),
            "sampled": len(sampled),
            "took_all": took_all,
        }
    return questions, meta
