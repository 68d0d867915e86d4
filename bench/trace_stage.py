"""Run one elicitbench CLI stage in this process with spans around each layer.

    PYTHONPATH=src python3 bench/trace_stage.py SPANS.json <stage> [stage args...]

Nothing under src/ changes: each traced function is replaced, before the
stage runs, by a wrapper bound to the name its caller looks up (a module
global such as ``elicitbench.cli.extract_triplet``, or a class attribute such
as ``RateLimiter.acquire``). Spans stay in memory and are written to
SPANS.json when the stage returns. A span's parent is the innermost open span
on its thread; a worker thread's outermost span is parented to the innermost
open span of the main thread, which submitted the work.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

# (module, attribute where the caller looks the name up, span name). The
# span name's first part is the layer, i.e. the module that defines the code.
TARGETS = [
    *(("elicitbench.cli", f"cmd_{stage}", f"cli.{stage}") for stage in
      ("generate", "simulate", "elicit", "extract", "score", "calibrate", "report")),
    ("elicitbench.cli", "read_jsonl", "jsonlio.read_jsonl"),
    ("elicitbench.elicitation", "read_jsonl", "jsonlio.read_jsonl"),
    ("elicitbench.cli", "write_jsonl", "jsonlio.write_jsonl"),
    ("elicitbench.synthetic", "write_jsonl", "jsonlio.write_jsonl"),
    ("elicitbench.cli", "write_text", "jsonlio.write_text"),
    ("elicitbench.cli", "generate_corpus", "corpus.generate_corpus"),
    ("elicitbench.corpus", "load_table", "corpus.load_table"),
    ("elicitbench.corpus", "enumerate_candidates", "corpus.enumerate_candidates"),
    ("elicitbench.corpus", "filter_by_sample_size", "corpus.filter_by_sample_size"),
    ("elicitbench.corpus", "sample_corpus", "corpus.sample_corpus"),
    ("elicitbench.corpus", "Question.from_dict", "corpus.Question.from_dict"),
    ("elicitbench.cli", "make_suite", "synthetic.make_suite"),
    ("elicitbench.synthetic", "make_questions", "synthetic.make_questions"),
    ("elicitbench.synthetic", "respond", "synthetic.respond"),
    ("elicitbench.cli", "run_batch", "elicitation.run_batch"),
    ("elicitbench.elicitation", "RateLimiter.acquire", "elicitation.RateLimiter.acquire"),
    ("requests", "Session.post", "elicitation.Session.post"),
    ("elicitbench.cli", "extract_triplet", "extraction.extract_triplet"),
    ("elicitbench.cli", "score_record", "metrics.score_record"),
    ("elicitbench.metrics", "ScoredRecord.from_dict", "metrics.ScoredRecord.from_dict"),
    ("elicitbench.report", "summarize_group", "metrics.summarize_group"),
    ("elicitbench.report", "baseline_win_rate", "metrics.baseline_win_rate"),
    ("elicitbench.cli", "calibrate_groups", "conformal.calibrate_groups"),
    ("elicitbench.conformal", "split", "conformal.split"),
    ("elicitbench.conformal", "fit", "conformal.fit"),
    ("elicitbench.conformal", "apply", "conformal.apply"),
    ("elicitbench.conformal", "evaluate", "conformal.evaluate"),
    ("elicitbench.cli", "split_rows", "report.split_rows"),
    ("elicitbench.report", "split_rows", "report.split_rows"),
    *(("elicitbench.cli", f"{section}_section", f"report.{section}_section") for section in
      ("summary", "nll_sharpness", "baseline", "calibration", "tool_comparison")),
    ("elicitbench.report", "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank"),
    ("elicitbench.report", "rank_biserial", "stats.rank_biserial"),
]


def _path_arg(args: tuple, kwargs: dict) -> str:
    return args[0] if args else kwargs["path"]


# Counts taken where the work happens: span name -> (args, kwargs, result) -> counts.
COUNTERS = {
    "jsonlio.read_jsonl": lambda a, k, r: {
        "jsonlio.read_jsonl.rows": len(r[1]),
        "jsonlio.read_jsonl.bytes": os.path.getsize(_path_arg(a, k)),
    },
    "jsonlio.write_jsonl": lambda a, k, r: {
        "jsonlio.write_jsonl.rows": r,
        "jsonlio.write_jsonl.bytes": os.path.getsize(_path_arg(a, k)),
    },
    "corpus.load_table": lambda a, k, r: {"corpus.load_table.rows": len(r)},
    "corpus.enumerate_candidates": lambda a, k, r: {
        "corpus.cells": math.prod(len(values) for values in a[0].axes.values()),
    },
    "corpus.filter_by_sample_size": lambda a, k, r: {"corpus.kept": len(r)},
    "extraction.extract_triplet": lambda a, k, r: {"extraction.valid": int(r.valid)},
    "conformal.calibrate_groups": lambda a, k, r: {
        "conformal.groups": len(r),
        "conformal.groups_flagged": sum(g.evaluation.flag != "ok" for g in r),
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._counts_lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if counter is not None:
                counts = counter(args, kwargs, result)
                with self._counts_lock:
                    for key, value in counts.items():
                        self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for module_name, attribute, name in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, leaf = attribute.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, leaf, self.wrap(name, raw))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans: list) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and durations.

    Self time is a span's duration minus the part of its interval that the
    union of its child spans covers, so overlapping children on worker
    threads are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for span_id, _, name, start, end in spans:
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
        entry["durations"].append(end - start)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_stage.py SPANS.json <stage> [stage args...]", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from elicitbench.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
