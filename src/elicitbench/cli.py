"""Pipeline orchestration: generate, elicit, extract, score, calibrate, report, simulate.

Every stage reads and writes flat files with provenance headers and is
re-runnable: identical inputs produce byte-identical outputs. Exit codes:
0 success, 2 configuration error, malformed input artifact or a path that
cannot be read or written, 3 missing upstream artifact, 4 a run finished
with transport failures, 130 any stage stopped by Ctrl-C (SIGINT).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from . import __version__
from .conformal import ConformalConfig, calibrate_groups
from .corpus import Question, TargetKind, TruthColumns, corpus_config_from_dict, generate_corpus
from .elicitation import (DECODING, BatchResult, EffortLevel, ElicitationRecord, TransportStatus,
                          model_specs_from_config, run_batch)
from .errors import (ConfigError, ElicitBenchError, InputError, SchemaError,
                     StageDependencyError)
from .extraction import Outcome, ParsedRecord, extract_triplet
from .jsonlio import (
    as_row, canonical_dumps, config_hash, iter_jsonl, load_row, read_jsonl, write_jsonl,
    write_text,
)
from .metrics import ScoreColumns, score_record
from .report import (
    baseline_section,
    calibration_section,
    load_score_row,
    nll_sharpness_section,
    read_fits,
    render_fits,
    render_text,
    render_tsv,
    split_rows,
    summary_section,
    tool_comparison_section,
)
from .synthetic import SyntheticSuiteConfig, make_suite

R = TypeVar("R")
K = TypeVar("K")

EXIT_OK = 0
EXIT_PARTIAL_TRANSPORT = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for a Ctrl-C


def _require(path: str | Path, produced_by: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise StageDependencyError(
            f"missing artifact {path} (produce it with `elicitbench {produced_by}`)"
        )
    return path


def _load_json(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason})") from exc
    except ValueError as exc:  # not JSON, or an integer of too many digits for int()
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _corpus_index(path: str | Path, read: Callable, keep: Callable[[Question], K]
                  ) -> tuple[dict, dict[str, K]]:
    """The corpus header and question_id -> keep(question); a repeated
    question_id raises SchemaError.

    `keep` takes only what the stage reads of a question, so the index holds
    no more than that. `read` loads the questions: `iter_jsonl`, or
    `read_jsonl` for `elicit`, which keeps every question anyway
    (`bench/trace_stage.py` times that call).
    """
    header, questions = read(_require(path, "generate (or simulate)"), "corpus.v1",
                             Question.from_dict)
    index: dict[str, K] = {}
    for q in questions:
        if q.question_id in index:
            raise SchemaError(f"{path}: question_id {q.question_id} is repeated")
        index[q.question_id] = keep(q)
    return header, index


def _shared_labels() -> Callable[[Question], tuple[str, TargetKind]]:
    """A question's (dataset_id, kind), one tuple held for each distinct pair."""
    held: dict[tuple[str, TargetKind], tuple[str, TargetKind]] = {}

    def label(q: Question) -> tuple[str, TargetKind]:
        pair = (q.dataset_id, q.kind)
        return held.setdefault(pair, pair)

    return label


def cmd_generate(args: argparse.Namespace) -> int:
    config = corpus_config_from_dict(_load_json(args.config), base_dir=Path(args.config).parent)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    cfg_hash = config_hash(config.to_dict())
    questions, meta = generate_corpus(config)
    write_jsonl(args.out, "corpus.v1", cfg_hash, questions)
    for dataset_id, info in meta["datasets"].items():
        note = " (took all candidates)" if info["took_all"] else ""
        print(f"{dataset_id}: {info['sampled']} questions from {info['candidates']} candidates{note}")
    print(f"wrote {len(questions)} questions to {args.out}")
    return EXIT_OK


def _record_from_flags(cls: type[R], args: argparse.Namespace) -> R:
    """A `cls` from the flags that were given; a flag left out keeps its field default."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{name: value for name, value in vars(args).items() if name in names})


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _record_from_flags(SyntheticSuiteConfig, args)
    manifest = make_suite(config, args.out_dir)
    manifest_path = Path(args.out_dir) / "manifest.json"
    write_text(manifest_path, canonical_dumps(manifest) + "\n")
    print(f"wrote synthetic suite ({manifest['counts']['questions']} questions) to {args.out_dir}")
    return EXIT_OK


def _parse_efforts(raw: str) -> list[EffortLevel]:
    levels = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            level = EffortLevel(token)
        except ValueError:
            raise ConfigError(f"unknown effort level {token!r}")
        if level in levels:
            raise ConfigError(f"effort level {token!r} is repeated")
        levels.append(level)
    if not levels:
        raise ConfigError("no effort levels requested")
    return levels


def cmd_elicit(args: argparse.Namespace) -> int:
    _, questions = _corpus_index(args.corpus, read_jsonl, keep=lambda q: q)
    models_raw = _load_json(args.models)
    specs = model_specs_from_config(models_raw, args.models)
    if not args.tools:
        specs = [dataclasses.replace(s, tool_policy=None) for s in specs]
    levels = _parse_efforts(args.efforts)
    cfg_hash = config_hash(
        {
            "models": models_raw,
            "efforts": [lv.value for lv in levels],
            "tools": bool(args.tools),
        }
    )
    ordered = sorted(questions.values(), key=lambda q: q.question_id)
    result = BatchResult()
    try:
        run_batch(ordered, specs, levels, concurrency=args.concurrency, out_path=args.out,
                  cfg_hash=cfg_hash, resume=args.resume, backoff_base=args.backoff_base,
                  result=result)
        interrupted = False
    except KeyboardInterrupt:
        interrupted = True
    manifest = {
        "config_hash": cfg_hash,
        "seed": args.seed,
        "counts": {
            "requested": result.requested,
            "skipped_resume": result.skipped,
            "ok": result.ok,
            "failed": result.failed,
        },
        "decoding": DECODING,
        "concurrency": args.concurrency,
        "models": [s.model_id for s in specs],
        "efforts": [lv.value for lv in levels],
        "tools": bool(args.tools),
    }
    write_text(args.manifest, canonical_dumps(manifest) + "\n")
    if interrupted:
        print(f"interrupted: {result.ok} ok and {result.failed} failed rows written to "
              f"{args.out}; rerun with --resume to finish the plan", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(
        f"elicited {result.ok} ok, {result.failed} failed, "
        f"{result.skipped} skipped (resume) -> {args.out}"
    )
    return EXIT_PARTIAL_TRANSPORT if result.failed else EXIT_OK


def _corpus_join(args: argparse.Namespace, upstream: str, produced_by: str, record_type: type[R],
                 keep: Callable[[Question], K]) -> tuple[str, Iterator[tuple[R, K]]]:
    """The stage hash, and each upstream row as a `record_type` with keep(its question).

    `upstream` names the stage's input flag and its schema (`transcript`,
    `parsed`). The hash covers the stage and the config hashes of both
    headers. A row of a question that is not in `--corpus` raises
    SchemaError naming the row when the rows reach it.
    """
    path = getattr(args, upstream)

    def joined(row: dict) -> tuple[R, K]:  # runs once the rows are read, after `questions` is set
        record = load_row(record_type, row)
        question = questions.get(record.question_id)
        if question is None:
            raise SchemaError(f"unknown question {record.question_id}")
        return record, question

    header, rows = iter_jsonl(_require(path, produced_by), f"{upstream}.v1", joined)
    corpus_header, questions = _corpus_index(args.corpus, iter_jsonl, keep)
    cfg_hash = config_hash({"stage": args.command, upstream: header.get("config_hash"),
                            "corpus": corpus_header.get("config_hash")})
    return cfg_hash, rows


def cmd_extract(args: argparse.Namespace) -> int:
    label = _shared_labels()
    cfg_hash, joined = _corpus_join(args, "transcript", "elicit (or simulate)", ElicitationRecord,
                                    keep=lambda q: (q.question_id, label(q)))
    counts: Counter[Outcome] = Counter()
    # A resumed transcript holds a key's failed attempts before its answer.
    # An answer is written as it is parsed. A failure is held until a later
    # record of its key answers it; a key never answered gets its last failure
    # after the answers, in the order the keys first failed.
    failed: dict[tuple, tuple] = {}  # key -> its last (failure reason, (dataset, kind))
    causes: dict[tuple, tuple] = {}  # one such tuple shared by every failure that has it

    def parsed_rows() -> Iterator[ParsedRecord]:
        for record, (question_id, pair) in joined:
            key = (question_id, sys.intern(record.model_id), sys.intern(record.effort),
                   record.tools_enabled)
            if record.transport_status is TransportStatus.OK:
                failed.pop(key, None)
                parse = extract_triplet(record.raw_text, pair[1])
                outcome = Outcome.VALID if parse.valid else Outcome.INVALID
                counts[outcome] += 1
                yield ParsedRecord(*key, *pair, outcome=outcome, reason=parse.reason,
                                   triplet=parse.triplet)
            else:
                cause = (record.failure_reason, pair)
                failed[key] = causes.setdefault(cause, cause)
        for key, (reason, pair) in failed.items():
            counts[Outcome.TRANSPORT_FAILED] += 1
            yield ParsedRecord(*key, *pair, outcome=Outcome.TRANSPORT_FAILED,
                               failure_reason=reason)

    write_jsonl(args.out, "parsed.v1", cfg_hash, parsed_rows())
    print(
        f"parsed {counts[Outcome.VALID]} valid, {counts[Outcome.INVALID]} invalid, "
        f"{counts[Outcome.TRANSPORT_FAILED]} transport-failed -> {args.out}"
    )
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    label, truths = _shared_labels(), TruthColumns()
    cfg_hash, joined = _corpus_join(args, "parsed", "extract", ParsedRecord,
                                    keep=lambda q: (label(q), truths.append(q.truth)))
    n_valid = 0

    def score_rows() -> Iterator[dict]:
        nonlocal n_valid
        for number, (record, ((dataset_id, kind), row)) in enumerate(joined, 1):
            if record.dataset_id != dataset_id or record.kind is not kind:
                raise SchemaError(
                    f"{args.parsed}: question {record.question_id} is {record.dataset_id!r} "
                    f"({record.kind.value}) here and {dataset_id!r} ({kind.value}) in the corpus")
            if record.outcome is Outcome.VALID:
                try:
                    scored = score_record(record, truths[row])
                except InputError as exc:
                    raise SchemaError(f"{args.parsed}: row {number}: {exc}") from exc
                n_valid += 1
                yield {"outcome": Outcome.VALID, **as_row(scored)}
            else:
                yield {name: value for name, value in as_row(record).items() if name != "triplet"}

    n_rows = write_jsonl(args.out, "scores.v1", cfg_hash, score_rows())
    print(f"scored {n_valid} valid records of {n_rows} -> {args.out}")
    return EXIT_OK


def _score_groups(path: str) -> tuple[dict, list[ScoreColumns]]:
    """The header of a scores file and the columns of its groups, read row by row."""
    header, records = iter_jsonl(_require(path, "score"), "scores.v1", load_score_row)
    return header, split_rows(records, path)


def cmd_calibrate(args: argparse.Namespace) -> int:
    scores_header, groups = _score_groups(args.scores)
    config = _record_from_flags(ConformalConfig, args)
    cfg_hash = config_hash(
        {
            "stage": "calibrate",
            "scores": scores_header.get("config_hash"),
            "conformal": config,
        }
    )
    results = calibrate_groups(groups, config)
    evaluations = [res.evaluation for res in results]
    # The fits are rendered first: a group they cannot hold writes neither file.
    fits_text = render_fits(evaluations, cfg_hash, scores_header.get("config_hash"))
    write_jsonl(args.out, "calibrated.v1", cfg_hash, (row for res in results for row in res.rows()))
    write_text(args.fits, fits_text)
    flagged = sum(1 for ev in evaluations if ev.flag != "ok")
    print(
        f"calibrated {len(evaluations)} groups ({flagged} flagged insufficient) "
        f"-> {args.out}, {args.fits}"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    # Every input is read and checked before the first file is written.
    scores_header, groups = _score_groups(args.scores)
    fits = tool_groups = None
    if args.calibration:
        fits = read_fits(_require(args.calibration, "calibrate"), scores_header.get("config_hash"))
    if args.tool_scores:
        _, tool_groups = _score_groups(args.tool_scores)

    tables = [summary_section(groups), nll_sharpness_section(groups), baseline_section(groups)]
    if fits is not None:
        tables.append(calibration_section(fits))
    else:
        print("notice: no calibration fits supplied; coverage_calibration section skipped")
    if tool_groups is not None:
        tables.append(tool_comparison_section(groups, tool_groups))

    out_dir = Path(args.out_dir)
    stamp = f"config_hash: {scores_header.get('config_hash')}"
    rendered = [(table.name, render_tsv(table.columns, table.rows, comments=[stamp, table.comment]),
                 render_text(table)) for table in tables]
    for name, tsv, text in rendered:
        write_text(out_dir / f"{name}.tsv", tsv)
        write_text(out_dir / f"{name}.txt", text)
    print(f"report written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elicitbench",
        description="Interval elicitation harness: corpus generation, elicitation, "
        "scoring, and conformal recalibration.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a question corpus from tabular data")
    p.add_argument("--config", required=True, help="corpus config JSON")
    p.add_argument("--out", required=True, help="corpus JSONL output path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_generate)

    # simulate and calibrate take a flag's default from its SyntheticSuiteConfig
    # or ConformalConfig field: a flag left out is absent from the namespace.
    p = sub.add_parser("simulate", help="build a synthetic corpus + transcript suite",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n-questions", type=int)
    p.add_argument("--width-shrink", type=float)
    p.add_argument("--bias", type=float)
    p.add_argument("--noise", type=float, dest="noise_sd", help="estimation noise SD")
    p.add_argument("--refusal-rate", type=float)
    p.add_argument("--sigma-true", type=float)
    p.add_argument("--proportion-fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--model-id")
    p.add_argument("--effort")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("elicit", help="send corpus questions to configured endpoints")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", required=True, help="model specs JSON")
    p.add_argument("--efforts", default="low,medium,high")
    p.add_argument("--tools", action="store_true", help="honor configured web-search policies")
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--backoff-base", type=float, default=0.5)
    p.add_argument("--out", required=True, help="transcript JSONL output path")
    p.add_argument("--manifest", default="run_manifest.json")
    p.set_defaults(func=cmd_elicit)

    p = sub.add_parser("extract", help="parse transcript responses into triplets")
    p.add_argument("--transcript", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("score", help="score parsed triplets against ground truth")
    p.add_argument("--parsed", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate", help="split conformal recalibration per group",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--scores", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--cal-fraction", type=float)
    p.add_argument("--min-cal", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="calibrated records JSONL")
    p.add_argument("--fits", required=True, help="calibration fits TSV")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="emit report tables")
    p.add_argument("--scores", required=True)
    p.add_argument("--calibration", default=None, help="calibration fits TSV (optional)")
    p.add_argument("--tool-scores", default=None, help="scores of a tool-enabled run (optional)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ElicitBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an input path that cannot be read, an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except KeyboardInterrupt:  # the artifact being written is removed, the others are whole
        print(f"interrupted: {args.command} stopped by Ctrl-C", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
