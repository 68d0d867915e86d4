"""Report tables: metric rollups, calibration outcomes, baseline and tool comparisons.

Every section is a `Table`, written twice: a machine-readable TSV
(full-precision values, '#' comment header) and an aligned human-readable
text table with rounded values. Sections read a score file as the
`ScoreColumns` of its groups, pool groups with `group_by`, and comparisons
on matched questions take their matches from `blocks`.
"""
from __future__ import annotations

import dataclasses
import itertools
import operator
import typing
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .conformal import GroupCalibration
from .corpus import TargetKind
from .elicitation import EffortLevel
from .errors import SchemaError
from .extraction import Outcome, ParsedRecord
from .jsonlio import load_row
from .metrics import (GroupSummary, ScoreColumns, ScoredRecord, baseline_win_rate, group_by,
                      median_of, rate, summarize_group)
from .stats import rank_biserial, wilcoxon_signed_rank

EFFORT_ORDER = {level.value: rank for rank, level in enumerate(EffortLevel)}


def _group_order(model: str, effort: str, dataset: str) -> tuple:
    """The sort key of a (model, effort, dataset) group: efforts in EffortLevel
    order, an unknown effort after them, by name."""
    return (model, EFFORT_ORDER.get(effort, len(EFFORT_ORDER)), effort, dataset)


@dataclass(frozen=True)
class Table:
    """One report section, written as <name>.tsv and <name>.txt."""
    name: str
    comment: str  # the TSV's comment line
    title: str  # the text table's title
    columns: Sequence[str]
    rows: Sequence[Sequence[object]]
    digits: dict[str, int] = field(default_factory=dict)  # text decimals by column; 3 if absent


def _cell(x: object, empty: str, spec: str) -> str:
    """A cell's text: `empty` for None, a float in format `spec` ("" is its
    repr; an infinite float reads "inf" in either)."""
    if x is None:
        return empty
    if isinstance(x, float):
        return format(x, spec)
    return str(x)


def _tsv_cell(x: object) -> str:
    if isinstance(x, str) and ("\t" in x or "\n" in x or "\r" in x):
        raise SchemaError(f"TSV cell {x!r} holds a tab or a line break, which would split "
                          "its row when the table is read")
    return _cell(x, "", "")


def render_tsv(columns: Sequence[str], rows: Sequence[Sequence[object]],
               comments: Sequence[str] = ()) -> str:
    """The TSV text of a table; a str cell holding a tab, "\\n" or "\\r" raises SchemaError."""
    lines = [f"# {c}" for c in comments]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_tsv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_text(table: Table) -> str:
    columns = table.columns
    formatted = [
        [_cell(v, "-", f".{table.digits.get(col, 3)}f") for col, v in zip(columns, row)]
        for row in table.rows
    ]
    widths = [
        max(len(col), *(len(row[i]) for row in formatted)) if formatted else len(col)
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "-" * len(header)
    body = [
        "  ".join(row[i].rjust(widths[i]) for i in range(len(columns)))
        for row in formatted
    ]
    return "\n".join([table.title, rule, header, rule, *body]) + "\n"


def load_score_row(row: dict) -> ScoredRecord | ParsedRecord:
    """A scores.v1 row as its record: a valid row is a `ScoredRecord`, any
    other (an answer that was not scored) a `ParsedRecord`."""
    if type(row) is dict and row.get("outcome") == "valid":
        return ScoredRecord.from_dict(row)
    return load_row(ParsedRecord, row)


def split_rows(records: Iterable[ScoredRecord | ParsedRecord],
               path: str | Path) -> list[ScoreColumns]:
    """The records of the scores file at `path` (as `load_score_row` loads
    them) as the columns of each (model, effort, dataset) group, in order of
    first appearance.

    A `ScoredRecord` is added to its group's columns; an invalid record
    counts toward its group's n_invalid, and a transport failure is dropped.
    A (question, model, effort, tools) key that a valid or invalid record
    repeats raises SchemaError naming the file: which of the two records
    counted would depend on the row order.
    """
    groups: dict[tuple[str, str, str], ScoreColumns] = {}
    answered: dict[tuple[str, str, bool], set[str]] = {}
    for record in records:
        if isinstance(record, ParsedRecord) and record.outcome is not Outcome.INVALID:
            continue
        questions = answered.setdefault((record.model_id, record.effort, record.tools_enabled),
                                        set())
        if record.question_id in questions:
            raise SchemaError(f"{path}: question {record.question_id} is repeated for model "
                              f"{record.model_id}, effort {record.effort}, "
                              f"tools_enabled {record.tools_enabled}")
        questions.add(record.question_id)
        key = (record.model_id, record.effort, record.dataset_id)
        columns = groups.get(key)
        if columns is None:
            columns = groups[key] = ScoreColumns(*key)
        if isinstance(record, ScoredRecord):
            columns.append(record)
        else:
            columns.n_invalid += 1
    return list(groups.values())


def _group_summaries(groups: Sequence[ScoreColumns], by_dataset: bool) -> list[GroupSummary]:
    pools = group_by(groups, lambda g: (g.model_id, g.effort,
                                        g.dataset_id if by_dataset else "(all)"))
    return [summarize_group(*key, pools[key])
            for key in sorted(pools, key=lambda k: _group_order(*k))]


def summary_section(groups: Sequence[ScoreColumns]) -> Table:
    """Model x effort rollup: invalid%, MdAPE%, plus coverage/NLL/CV columns.

    n_suspect_scale counts percent-kind answers that look like [0,1]
    fractions; they are scored as-is but surfaced here for auditing.
    """
    columns = [
        "model", "effort", "n_valid", "n_invalid", "invalid_pct", "mdape_pct",
        "coverage", "median_nll", "median_cv", "n_suspect_scale",
    ]
    rows = []
    for s in _group_summaries(groups, by_dataset=False):
        rows.append([
            s.model_id, s.effort, s.n_valid, s.n_invalid, 100.0 * s.invalid_rate,
            s.mdape, s.coverage, s.median_nll, s.median_cv, s.n_suspect_scale,
        ])
    return Table("summary_by_model_effort", "summary by model and effort",
                 "Summary by model and effort", columns, rows,
                 digits={"invalid_pct": 1, "mdape_pct": 1, "median_nll": 2})


# The calibration fits table, which calibrate writes and report reads back.
# Its columns are GroupCalibration's fields, and read_fits reads each cell as
# its field's type: an empty cell is a None, and "inf" (the q_hat of a group
# whose quantile index exceeds n_cal) reads back as math.inf.
SCORES_STAMP = "scores_config_hash: {}"  # the fits' comment naming the scores they fit
FIT_COLUMNS = tuple(f.name for f in dataclasses.fields(GroupCalibration))
_CELL_READERS = {
    str: str, int: int, float: float,
    float | None: lambda cell: None if cell == "" else float(cell),
}
_FIT_HINTS = typing.get_type_hints(GroupCalibration)
_FIT_READERS = [_CELL_READERS[_FIT_HINTS[name]] for name in FIT_COLUMNS]


def render_fits(evaluations: Sequence[GroupCalibration], cfg_hash: str, scores_hash: str) -> str:
    """The fits table's text: one row per group, naming the scores they fit."""
    rows = [dataclasses.astuple(ev) for ev in evaluations]
    return render_tsv(FIT_COLUMNS, rows, comments=[
        f"config_hash: {cfg_hash}", SCORES_STAMP.format(scores_hash), "conformal calibration fits",
    ])


def read_fits(path: str | Path, scores_hash: str) -> list[GroupCalibration]:
    """The groups of a fits table, as render_fits wrote them.

    An empty file, fits of other scores than `scores_hash`, a header other
    than FIT_COLUMNS, a row of another width or a cell its field cannot hold
    raises SchemaError.
    """
    try:
        # Rows end only at "\n", as in _decoded_lines: a cell may hold U+2028.
        lines = [line for line in Path(path).read_text(encoding="utf-8").split("\n") if line]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 ({exc.reason})") from exc
    # The comments are the lines before the header; a row may start with "#".
    comments = list(itertools.takewhile(lambda line: line.startswith("#"), lines))
    if "# " + SCORES_STAMP.format(scores_hash) not in comments:
        raise SchemaError(f"{path}: not fitted on these scores ({SCORES_STAMP.format(scores_hash)})")
    lines = lines[len(comments):]
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a calibration fits table")
    header = tuple(lines[0].split("\t"))
    if header != FIT_COLUMNS:
        raise SchemaError(f"{path}: fits header {list(header)}, expected {list(FIT_COLUMNS)}")
    fits = []
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(FIT_COLUMNS):
            raise SchemaError(f"{path}: fits row {line!r} has {len(cells)} cells, "
                              f"expected {len(FIT_COLUMNS)}")
        try:
            fits.append(GroupCalibration(*(read(cell) for read, cell in zip(_FIT_READERS, cells))))
        except ValueError as exc:
            raise SchemaError(f"{path}: malformed fits row {line!r} ({exc!r})") from exc
    return fits


def calibration_section(fits: Sequence[GroupCalibration]) -> Table:
    """Per-group coverage before/after conformal recalibration, from read_fits groups."""
    ordered = sorted(fits, key=lambda ev: _group_order(ev.model, ev.effort, ev.dataset))
    return Table("coverage_calibration", "coverage before/after conformal recalibration",
                 "Coverage before/after conformal recalibration", FIT_COLUMNS,
                 [dataclasses.astuple(ev) for ev in ordered])


def nll_sharpness_section(groups: Sequence[ScoreColumns]) -> Table:
    """Median NLL and CV per (model, effort, dataset)."""
    columns = ["model", "effort", "dataset", "n_valid", "median_nll", "median_cv", "coverage"]
    rows = []
    for s in _group_summaries(groups, by_dataset=True):
        rows.append([s.model_id, s.effort, s.dataset_id, s.n_valid,
                     s.median_nll, s.median_cv, s.coverage])
    return Table("nll_sharpness", "nll and sharpness by model, effort, dataset",
                 "NLL and sharpness by model, effort, dataset", columns, rows)


def baseline_section(groups: Sequence[ScoreColumns]) -> Table:
    """Win rate vs. the constant-50 guess on percent-kind questions, by dataset."""
    answers = [(g, [(g.value[i], g.truth[i]) for i, kind in enumerate(g.kind)
                    if kind is TargetKind.PROPORTION]) for g in groups]
    answers = [(g, pairs) for g, pairs in answers if pairs]
    columns = ["dataset", "model", "n", "win_rate"]
    rows = []
    for dataset, members in sorted(group_by(answers, lambda a: a[0].dataset_id).items()):
        by_model = sorted(group_by(members, lambda a: a[0].model_id).items())
        for model, sub in [("(all)", members), *by_model]:
            pairs = [pair for _, group_pairs in sub for pair in group_pairs]
            rows.append([dataset, model, len(pairs), baseline_win_rate(pairs)])
    return Table("baseline_win_rate", "win rate vs naive 50% baseline (ties lose)",
                 "Win rate vs naive 50% baseline", columns, rows)


Row = tuple[ScoreColumns, int]  # row i of a group's columns


def _in_question_order(level: int, number: int, group: ScoreColumns
                       ) -> Iterator[tuple[str, int, int, int]]:
    """(question_id, level, number, i) of each row i of a group, in question_id order."""
    order = sorted(range(len(group)), key=group.question_id.__getitem__)
    return ((group.question_id[i], level, number, i) for i in order)


def blocks(
    levels: dict[str, Iterable[ScoreColumns]], within: Callable[[ScoreColumns], Hashable]
) -> Iterator[tuple[Hashable, str, dict[str, Row]]]:
    """Rows matched on question across levels, per `within` key of their group.

    `levels` maps a level name to its groups. Yields (`within` key,
    question_id, {level: row}) for each question that has a row at every
    level, in key order and then question_id order, the levels in `levels`
    order. The rows under one key are matched by merging each group's row
    numbers sorted by question, so what is held is those numbers. A second
    row for one (`within` key, question, level) raises SchemaError.
    """
    # Imported here: every stage imports this module, and loading heapq would
    # add to the peak RSS of each, though only a comparison merges.
    import heapq

    names = list(levels)
    keyed = group_by(((level, g) for level, groups in enumerate(levels.values()) for g in groups),
                     lambda pair: within(pair[1]))
    for key in sorted(keyed):
        groups = keyed[key]
        rows = heapq.merge(*(_in_question_order(level, number, g)
                             for number, (level, g) in enumerate(groups)))
        for question_id, same in itertools.groupby(rows, key=operator.itemgetter(0)):
            cell: dict[str, Row] = {}
            for _, level, number, i in same:
                if names[level] in cell:
                    raise SchemaError(f"the {names[level]} records hold question {question_id} "
                                      f"twice for {key}")
                cell[names[level]] = (groups[number][1], i)
            if len(cell) == len(names):
                yield key, question_id, cell


def tool_comparison_section(
    base_groups: Sequence[ScoreColumns], tool_groups: Sequence[ScoreColumns]
) -> Table:
    """Matched-question comparison of tool-enabled vs. baseline absolute errors.

    Pairs match on (question_id, model, effort) between the two runs and
    require a valid triplet on both sides; each pair counts under the base
    row's dataset. The paired test is the Wilcoxon signed rank on AE
    differences (tool minus baseline), with the rank-biserial effect size.
    Win rate is the strict fraction of pairs where tools reduced the error.
    """
    # The (base, tools) absolute errors of every matched pair, and of the pairs
    # of each base dataset, in match order.
    matched: tuple[array, array] = (array("d"), array("d"))
    by_dataset: dict[str, tuple[array, array]] = {}
    for _, _, cell in blocks({"base": base_groups, "tools": tool_groups},
                             within=lambda g: (g.model_id, g.effort)):
        (b, i), (t, j) = cell["base"], cell["tools"]
        base_ae, tools_ae = abs(b.value[i] - b.truth[i]), abs(t.value[j] - t.truth[j])
        scoped = by_dataset.setdefault(b.dataset_id, (array("d"), array("d")))
        for base, tools in (matched, scoped):
            base.append(base_ae)
            tools.append(tools_ae)
    columns = [
        "dataset", "n_pairs", "median_ae_base", "median_ae_tools", "win_rate",
        "wilcoxon_w", "p_value", "rank_biserial", "method",
    ]
    rows = []
    for scope, (base, tools) in [("(all)", matched), *sorted(by_dataset.items())]:
        if not base:
            continue
        diffs = [t - b for b, t in zip(base, tools)]
        result = wilcoxon_signed_rank(diffs)
        rows.append([
            scope, len(base), median_of(base), median_of(tools), rate(d < 0 for d in diffs),
            result.statistic, result.p_value, rank_biserial(diffs),
            result.method_note,
        ])
    return Table("tool_comparison", "tool-enabled vs baseline on matched questions",
                 "Tool-enabled vs baseline (matched questions)", columns, rows)
