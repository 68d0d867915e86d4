"""Stage-by-stage benchmark of the elicitbench chain.

    python3 bench/run.py --workload survey-grid --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all

Each CLI stage runs as its own child process (``python -m elicitbench.cli
<stage> ...``), the way a user runs it, so stage times include interpreter
start and imports. The chain is repeated until ``--seconds`` have passed and
every stage's output is checked after each repetition. End-to-end metrics are
medians over the repetitions.

With ``--trace 1`` each repetition is a pair: the untraced chain, then the
same chain with each stage run by ``trace_stage.py``, which records spans
around every module's public functions. The per-layer metrics come from the
traced chain (child rusage from the untraced one) and are medians over pairs.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Artifacts, spans and a result file with the environment
stamp stay under ``.bench_work/<workload>/`` until the next run.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import trace_stage
import workloads

ROOT = workloads.ROOT
WORK = ROOT / ".bench_work"
STAGE_TIMEOUT_S = 60  # the slowest stage takes a few seconds
SETUP_REPEATS = 3
STAGES = ["generate", "simulate", "elicit", "extract", "score", "calibrate", "report"]
# Stages that produce the transcript: simulate, or generate plus the elicit passes.
TRANSCRIPT_STAGES = {"generate", "simulate", "elicit"}

# Stage times are summed into transcript_s and analysis_s: on this kind of
# shared 2-CPU machine one stage child of about a second varies by 15-20%
# from run to run, too much for a per-stage bound; each stage's own median is
# still printed, and is cli.<stage>.wall_s in the traced run.
END_TO_END = {
    "setup_s": "s",
    "transcript_s": "s",
    "analysis_s": "s",
    "chain_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ["cli", "jsonlio", "corpus", "synthetic", "elicitation", "extraction",
          "metrics", "conformal", "report", "stats"]
TIMED = [  # span name -> "<name>.s" (inclusive seconds, summed over calls)
    "jsonlio.read_jsonl", "jsonlio.write_jsonl", "corpus.load_table",
    "corpus.enumerate_candidates", "corpus.sample_corpus", "synthetic.make_suite",
    "elicitation.run_batch", "extraction.extract_triplet", "metrics.score_record",
    "metrics.ScoredRecord.from_dict", "metrics.summarize_group", "conformal.calibrate_groups",
    "conformal.split", "conformal.fit", "report.split_rows", "report.summary_section",
    "report.nll_sharpness_section", "report.baseline_section", "report.calibration_section",
    "report.tool_comparison_section", "stats.wilcoxon_signed_rank",
]
CALLED = [  # span name -> "<name>.calls"
    "corpus.Question.from_dict", "synthetic.respond", "extraction.extract_triplet",
    "metrics.score_record", "metrics.ScoredRecord.from_dict", "metrics.summarize_group",
    "conformal.apply", "report.split_rows", "stats.wilcoxon_signed_rank",
]
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{stage}.{m}": unit for stage in STAGES
       for m, unit in (("self_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("rss_mb", "MB"))},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.s": "s" for name in TIMED},
    **{f"{name}.calls": "count" for name in CALLED},
    "jsonlio.read_jsonl.rows": "count",
    "jsonlio.read_jsonl.mb": "MB",
    "jsonlio.write_jsonl.rows": "count",
    "jsonlio.write_jsonl.mb": "MB",
    "corpus.load_table.rows": "count",
    "corpus.cells": "count",
    "corpus.kept_ratio": "ratio",
    "elicitation.attempts": "count",
    "elicitation.retries": "count",
    "elicitation.ok_ratio": "ratio",
    "elicitation.request_ms.p50": "ms",
    "elicitation.request_ms.p99": "ms",
    "elicitation.request_ms.samples": "count",
    "elicitation.limiter_wait_s": "s",
    "elicitation.stub_busy_s": "s",
    "extraction.valid_ratio": "ratio",
    "conformal.groups": "count",
    "conformal.groups_flagged": "count",
    "conformal.order_sensitive_groups": "count",
    "trace.overhead_s": "s",
}
# Per-layer figures that are not what their name suggests, measured from outside.
CAVEATS = {
    "jsonlio.write_jsonl.s": "includes producing rows when the caller passes a generator "
                             "(simulate's synthetic.respond calls, generate's to_dict calls)",
    "jsonlio.read_jsonl.s": "includes json.loads of every row; file read and decode are one call",
    "elicitation.limiter_wait_s": "time inside RateLimiter.acquire, summed over workers, "
                                  "including its lock",
    "elicitation.stub_busy_s": "the stub's handler time in the traced chain, measured by the stub",
    "cli.import_s": "a fresh interpreter's import elicitbench.cli, timed in that interpreter "
                    "during set-up",
}


@dataclass
class Child:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


@dataclass
class Rep:
    children: list[Child] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    stub_stats: list[dict] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(c.wall_s for c in self.children)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


class Launcher:
    """The small process that starts each stage child; see launcher.py for why."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, stage: str, argv: list[str], log: Path) -> Child:
        request = {"argv": argv, "log": str(log), "env": child_env(), "timeout": STAGE_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        return Child(stage, reply["wall_s"], reply["cpu_s"], reply["rss_mb"], reply["exit_code"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=STAGE_TIMEOUT_S + 10)
        self.proc.stdout.close()


def run_chain(workload, launcher: Launcher, run_dir: Path, traced: bool) -> Rep:
    """One pass over the workload's stages, each checked right after it exits."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    rep = Rep()
    for index, step in enumerate(workload.steps(run_dir)):
        if traced:
            spans = run_dir / f"spans_{index:02d}_{step.stage}.json"
            argv = [sys.executable, str(Path(trace_stage.__file__)), str(spans), *step.argv]
            rep.spans.append(spans)
        else:
            argv = [sys.executable, "-m", "elicitbench.cli", *step.argv]
        if step.stage == "elicit":
            workload.stub_stats(reset=True)
        child = launcher.run(step.stage, argv, run_dir / f"log_{index:02d}_{step.stage}.txt")
        rep.children.append(child)
        if step.stage == "elicit":
            rep.stub_stats.append(workload.stub_stats())
        try:
            checked = step.check()
        except Exception as exc:  # a missing or malformed artifact fails the check, not the run
            checked = workloads.Checked([f"{step.stage}: check raised {exc!r}"])
        if child.exit_code != 0:
            checked.failures.insert(0, f"{step.stage} exited with code {child.exit_code}; "
                                       "chain stopped")
        rep.attempted += 1 + checked.ops
        rep.failed += bool(checked.failures) + checked.failed_ops
        rep.failures += checked.failures
        if child.exit_code != 0:
            break
    return rep


def end_to_end(rep: Rep) -> dict[str, float]:
    walls: dict[str, float] = defaultdict(float)
    for c in rep.children:
        walls[c.stage] += c.wall_s
    out = {f"{stage}_s": walls[stage] for stage in STAGES if stage in walls}
    out["transcript_s"] = sum(walls[s] for s in TRANSCRIPT_STAGES)
    out["analysis_s"] = rep.total_s - out["transcript_s"]
    out["chain_s"] = rep.total_s
    out["peak_rss_mb"] = max(c.rss_mb for c in rep.children)
    return out


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(untraced: Rep, traced: Rep, untraced_dir: Path, traced_dir: Path) -> dict[str, float]:
    names: dict[str, dict] = {}
    counts: dict[str, float] = defaultdict(float)
    for path in traced.spans:
        if not path.exists():
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        for key, value in doc["counts"].items():
            counts[key] += value
        for name, entry in trace_stage.summarize(doc["spans"]).items():
            total = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            for key in ("calls", "s", "self_s"):
                total[key] += entry[key]
            total["durations"] += entry["durations"]

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for stage in STAGES:
        runs = [c for c in untraced.children if c.stage == stage]
        m[f"cli.{stage}.self_s"] = get(f"cli.{stage}", "self_s")
        m[f"cli.{stage}.wall_s"] = sum(c.wall_s for c in runs)
        m[f"cli.{stage}.cpu_s"] = sum(c.cpu_s for c in runs)
        m[f"cli.{stage}.rss_mb"] = max((c.rss_mb for c in runs), default=0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(e["self_s"] for n, e in names.items() if n.split(".")[0] == layer)
    for name in TIMED:
        m[f"{name}.s"] = get(name, "s")
    for name in CALLED:
        m[f"{name}.calls"] = get(name, "calls")
    m["jsonlio.read_jsonl.rows"] = counts["jsonlio.read_jsonl.rows"]
    m["jsonlio.read_jsonl.mb"] = counts["jsonlio.read_jsonl.bytes"] / 1e6
    m["jsonlio.write_jsonl.rows"] = counts["jsonlio.write_jsonl.rows"]
    m["jsonlio.write_jsonl.mb"] = counts["jsonlio.write_jsonl.bytes"] / 1e6
    m["corpus.load_table.rows"] = counts["corpus.load_table.rows"]
    m["corpus.cells"] = counts["corpus.cells"]
    m["corpus.kept_ratio"] = ratio(counts["corpus.kept"], counts["corpus.cells"])

    attempts = sum(s["attempts"] for s in traced.stub_stats)
    keys = ok_keys = 0
    if attempts:
        for path in traced_dir.glob("transcript*.jsonl"):
            rows = workloads.read_rows(path)
            keys += len(rows)
            ok_keys += sum(r["transport_status"] == "ok" for r in rows)
    request_ms = [1000.0 * d for d in names.get("elicitation.Session.post", {}).get("durations", [])]
    m["elicitation.attempts"] = attempts
    m["elicitation.retries"] = attempts - keys
    m["elicitation.ok_ratio"] = ratio(ok_keys, attempts)
    m["elicitation.request_ms.p50"] = percentile(request_ms, 50)
    m["elicitation.request_ms.p99"] = percentile(request_ms, 99)
    m["elicitation.request_ms.samples"] = len(request_ms)
    m["elicitation.limiter_wait_s"] = get("elicitation.RateLimiter.acquire", "s")
    m["elicitation.stub_busy_s"] = sum(s["busy_s"] for s in traced.stub_stats)
    m["extraction.valid_ratio"] = ratio(counts["extraction.valid"],
                                        get("extraction.extract_triplet", "calls"))
    m["conformal.groups"] = counts["conformal.groups"]
    m["conformal.groups_flagged"] = counts["conformal.groups_flagged"]
    fits = [untraced_dir / "fits.tsv", traced_dir / "fits.tsv"]
    before, after = (workloads.q_hats(f) if f.exists() else {} for f in fits)
    m["conformal.order_sensitive_groups"] = sum(before[g] != after.get(g) for g in before)
    m["trace.overhead_s"] = traced.total_s - untraced.total_s
    return m


def not_applicable(m: dict[str, float]) -> dict[str, str]:
    notes = {}
    if not m["corpus.cells"]:
        notes["corpus.kept_ratio"] = "no corpus enumerated (0 cells); reported as 0"
    if not m["elicitation.attempts"]:
        for name in ("elicitation.ok_ratio", "elicitation.request_ms.p50",
                     "elicitation.request_ms.p99"):
            notes[name] = "no HTTP requests; reported as 0"
    if not m["extraction.extract_triplet.calls"]:
        notes["extraction.valid_ratio"] = "no responses parsed; reported as 0"
    return notes


def setup(workload, inputs: Path) -> tuple[float, float]:
    """Build the workload's inputs once; (set-up seconds, import seconds).

    Set-up ends with a fresh interpreter importing elicitbench.cli, which
    fills the bytecode cache before any stage is timed.
    """
    start = time.perf_counter()
    workload.setup(inputs)
    probe = subprocess.run(
        [sys.executable, "-c", "import time; t = time.perf_counter(); import elicitbench.cli; "
                               "print(time.perf_counter() - t)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if probe.returncode != 0:
        raise RuntimeError(f"import elicitbench.cli failed: {probe.stderr.strip()}")
    return elapsed, float(probe.stdout.strip())


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read without running git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env = {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }
    for package in ("numpy", "scipy", "requests"):
        try:
            env[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            env[package] = None
    return env


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)
    launcher = Launcher()
    workload = workloads.WORKLOADS[name](seed)
    try:
        setups = [setup(workload, base / "inputs") for _ in range(SETUP_REPEATS)]
        workloads.oracles()  # load scipy before the clock starts
        deadline = time.perf_counter() + seconds
        reps: list[Rep] = []
        samples: list[dict[str, float]] = []
        while True:
            started = time.perf_counter()
            rep = run_chain(workload, launcher, base / "run", traced=False)
            reps.append(rep)
            if trace:
                traced = run_chain(workload, launcher, base / "traced", traced=True)
                reps.append(traced)
                samples.append(per_layer(rep, traced, base / "run", base / "traced"))
            elif not rep.failures:
                samples.append(end_to_end(rep))
            if reps[-1].failures or rep.failures or (
                    time.perf_counter() + (time.perf_counter() - started) > deadline):
                break
    finally:
        workload.close()
        launcher.close()

    failures = [f for r in reps for f in r.failures]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    stages = median_of(samples) if samples and not trace else {}
    if trace:
        metrics = median_of(samples)
        metrics["cli.import_s"] = statistics.median(i for _, i in setups)
        units = PER_LAYER
    else:
        metrics = {k: stages[k] for k in END_TO_END if k in stages}
        metrics["setup_s"] = statistics.median(s for s, _ in setups)
        units = END_TO_END

    print(f"# workload {name}, seed {seed}, {len(reps)} chains, trace {int(trace)}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not trace:
        print(f"{'setup_s':<16}{metrics['setup_s']:>12.4f} s")
        for stage in STAGES:
            value = stages.get(f"{stage}_s")
            shown = f"{value:>12.4f} s" if value is not None else f"{'not run':>12}"
            print(f"{stage + '_s':<16}{shown}")
        for key in ("transcript_s", "analysis_s", "chain_s"):
            if key in stages:
                print(f"{key:<16}{stages[key]:>12.4f} s")
        if "peak_rss_mb" in stages:
            print(f"{'peak_rss_mb':<16}{stages['peak_rss_mb']:>12.1f} MB")
    else:
        notes = not_applicable(metrics)
        for key in PER_LAYER:
            print(f"{key:<40}{metrics.get(key, 0.0):>14.6g} {PER_LAYER[key]}"
                  + (f"   ({notes[key]})" if key in notes else ""))
        for key, caveat in CAVEATS.items():
            print(f"# {key}: {caveat}")
    print(f"{'failed_share':<16}{failed / max(attempted, 1):>12.4f} ratio "
          f"({failed} failed of {attempted} operations)")

    result = {
        "correct": not failures and bool(samples),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units if k in metrics},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "setups": setups, "samples": samples,
              "failures": failures, "result": result}
    (base / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the stub and the launcher are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    needed = [ROOT / "src" / "elicitbench" / "cli.py", workloads.FIXTURES, workloads.ORACLES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not an elicitbench checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
