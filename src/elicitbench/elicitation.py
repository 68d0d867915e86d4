"""Batch dispatch of corpus questions to chat-completion HTTP endpoints.

One client covers all vendors: a single user message at temperature 0, with
vendor reasoning-effort parameters injected by name from config (or a
thinking-token budget for endpoints without one) and an optional web-search
tool declaration. Transport failures are retried with exponential backoff
and then recorded, never raised; parse problems are downstream's concern.

Requests go over `transport.Connections`, one keep-alive HTTP/1.1
connection per worker thread and endpoint. Only `run_batch` imports the
transport and `concurrent.futures`, so the offline stages load neither.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from .corpus import Question, TargetKind
from .errors import ConfigError, SchemaError
from .jsonlio import canonical_dumps, header_line, iter_jsonl, load_row, read_jsonl

if TYPE_CHECKING:
    from .transport import Connections

DEFAULT_TOKEN_BUDGETS = {"low": 2000, "medium": 8000, "high": 16000}
MAX_WEB_SEARCHES = 5
# The decoding settings of every request; the elicit manifest records them.
DECODING = {"temperature": 0}
# HTTP statuses worth retrying; other 4xx are permanent config problems.
RETRYABLE_STATUSES = {408, 429, 500, 502, 503, 504}

PERCENT_INSTRUCTION = (
    "Provide the percentage and a 95% confidence interval as three numbers: "
    "value, lower, upper."
)
CONTINUOUS_INSTRUCTION = (
    "Provide your estimate and a 95% confidence interval as three numbers: "
    "value, lower, upper."
)


class EffortLevel(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    NONE = "none"  # non-reasoning control


@dataclass(frozen=True)
class VendorParam:
    param: str
    values: dict[str, object]  # effort level -> parameter value

    def __post_init__(self) -> None:
        missing = [lv.value for lv in (EffortLevel.LOW, EffortLevel.MEDIUM, EffortLevel.HIGH)
                   if lv.value not in self.values]
        if missing:
            raise ConfigError(f"vendor effort param {self.param!r} missing levels {missing}")


@dataclass(frozen=True)
class TokenBudget:
    param: str = "thinking_budget_tokens"
    budgets: dict[str, int] = field(  # effort level -> thinking-token budget
        default_factory=lambda: dict(DEFAULT_TOKEN_BUDGETS)
    )

    def __post_init__(self) -> None:
        try:
            low, med, high = (self.budgets[lv] for lv in ("low", "medium", "high"))
        except KeyError as exc:
            raise ConfigError(f"token budgets must define low/medium/high: {exc}") from exc
        if not 0 < low < med < high:
            raise ConfigError(
                f"token budgets must be positive and strictly increasing, got {self.budgets}"
            )


@dataclass(frozen=True)
class WebSearch:
    max_searches: int = MAX_WEB_SEARCHES

    def __post_init__(self) -> None:
        if not 1 <= self.max_searches <= MAX_WEB_SEARCHES:
            raise ConfigError(
                f"web search cap must be in [1, {MAX_WEB_SEARCHES}], got {self.max_searches}"
            )


def _json_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _tagged(name: str, default: str, records: dict[str, type | None]) -> Callable[[object], object]:
    """The loader of field `name`: a JSON object whose "type" (`default` when
    absent) names its record in `records`; a record of None loads as None."""
    def load(raw: object) -> object:
        tagged = _json_object(raw, name)
        tag = tagged.get("type", default)
        if not isinstance(tag, str) or tag not in records:
            raise ConfigError(f"unknown {name.replace('_', ' ')} {tag!r}")
        record = records[tag]
        return None if record is None else load_row(record, tagged)
    return load


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    endpoint_url: str  # checked to be an http(s) URL by run_batch
    auth_env_var: str | None = None
    # None: a non-reasoning model, run at the control level only. The JSON
    # objects of effort_mode and tool_policy name the record they hold by "type".
    effort_mode: VendorParam | TokenBudget | None = field(
        default_factory=TokenBudget, metadata={"load": _tagged("effort_mode", "token_budget", {
            "vendor_param": VendorParam, "token_budget": TokenBudget, "non_reasoning": None})})
    tool_policy: WebSearch | None = field(default=None, metadata={"load": _tagged(
        "tool_policy", "disabled", {"web_search": WebSearch, "disabled": None})})
    max_retries: int = 3
    timeout: float = 60.0
    rate_limit_per_minute: float = 60.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        # Written `not x > 0` so that NaN fails too.
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")
        if not self.timeout <= threading.TIMEOUT_MAX:  # a socket timeout above it overflows
            raise ConfigError(f"timeout must be <= {threading.TIMEOUT_MAX}, got {self.timeout}")
        if not self.rate_limit_per_minute > 0:
            raise ConfigError(f"rate_limit_per_minute must be > 0, got {self.rate_limit_per_minute}")
        # The limiter sleeps up to 60 / rate_limit_per_minute seconds.
        if not 60.0 / self.rate_limit_per_minute <= threading.TIMEOUT_MAX:
            raise ConfigError(f"rate_limit_per_minute must be >= {60.0 / threading.TIMEOUT_MAX}, "
                              f"got {self.rate_limit_per_minute}")

    def levels_for(self, requested: Sequence[EffortLevel]) -> list[EffortLevel]:
        """Non-reasoning specs always run the control level only."""
        if self.effort_mode is None:
            return [EffortLevel.NONE]
        return [lv for lv in requested if lv is not EffortLevel.NONE]


def model_specs_from_config(raw: object, source: str) -> list[ModelSpec]:
    """The specs of a models file: a JSON object with a non-empty "models" list.

    A bad spec's error names its `model_id`, or its index when that is not a string.
    """
    models = _json_object(raw, source).get("models", [])
    if not isinstance(models, list):
        raise ConfigError(f'{source}: "models" must be a list, got {models!r}')
    if not models:
        raise ConfigError(f"{source}: no model specs configured")
    specs = []
    for index, spec in enumerate(models):
        try:
            specs.append(load_row(ModelSpec, spec))
        except (ConfigError, SchemaError) as exc:
            model_id = spec.get("model_id") if isinstance(spec, dict) else None
            name = repr(model_id) if isinstance(model_id, str) else f"models[{index}]"
            raise ConfigError(f"{source}: bad model spec {name}: {exc}") from exc
    # API keys, rate limiters and transcript keys are per model_id.
    first_index: dict[str, int] = {}
    for index, spec in enumerate(specs):
        first = first_index.setdefault(spec.model_id, index)
        if first != index:
            raise ConfigError(f"{source}: model_id {spec.model_id!r} is repeated, "
                              f"in models[{first}] and models[{index}]")
    return specs


class TransportStatus(str, Enum):
    OK = "ok"
    FAILED = "failed"


@dataclass(frozen=True)
class ElicitationRecord:
    question_id: str
    model_id: str
    effort: str
    tools_enabled: bool
    raw_text: str
    request_timestamp: str
    latency_ms: float
    attempt_count: int
    transport_status: TransportStatus
    failure_reason: str | None = None
    request_payload: dict | None = None


def map_effort(spec: ModelSpec, level: EffortLevel) -> dict:
    """Request fragment for one effort level: named param, budget, or nothing.

    The level is one that `ModelSpec.levels_for` chose for the spec.
    """
    mode = spec.effort_mode
    if mode is None:
        return {}
    values = mode.budgets if isinstance(mode, TokenBudget) else mode.values
    return {mode.param: values[level.value]}


def build_request(question: Question, spec: ModelSpec, level: EffortLevel) -> dict:
    """Deterministic chat-completions payload for one question."""
    prompt = question.prompt
    if "value, lower, upper" not in prompt:
        instruction = (
            PERCENT_INSTRUCTION
            if question.kind is TargetKind.PROPORTION
            else CONTINUOUS_INSTRUCTION
        )
        prompt = prompt.rstrip() + " " + instruction
    payload: dict = {
        "model": spec.model_id,
        "messages": [{"role": "user", "content": prompt}],
        **DECODING,
    }
    payload.update(map_effort(spec, level))
    if spec.tool_policy is not None:
        payload["tools"] = [
            {"type": "web_search", "max_searches": spec.tool_policy.max_searches}
        ]
    return payload


class RateLimiter:
    """Serializes request starts to at most rate_per_minute per minute."""

    def __init__(self, rate_per_minute: float):
        self._interval = 60.0 / rate_per_minute
        self._lock = threading.Lock()
        self._next_free = 0.0

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                if now >= self._next_free:
                    self._next_free = now + self._interval
                    return
                wait = self._next_free - now
            time.sleep(wait)


def _auth_headers(spec: ModelSpec) -> dict:
    if not spec.auth_env_var:
        return {}
    token = os.environ.get(spec.auth_env_var)
    if token is None:
        raise ConfigError(
            f"{spec.model_id}: environment variable {spec.auth_env_var!r} is not set"
        )
    if any(c in "\r\n" or ord(c) > 0xFF for c in token):
        raise ConfigError(
            f"{spec.model_id}: environment variable {spec.auth_env_var!r} holds a line "
            "break or a character outside Latin-1, which cannot go in an HTTP header"
        )
    return {"Authorization": f"Bearer {token}"}


def _post_once(
    connections: Connections, spec: ModelSpec, payload: dict, headers: dict
) -> tuple[bool, bool, str]:
    """(ok, retryable, text_or_reason) for a single HTTP attempt."""
    from .transport import HTTPException  # loaded by run_batch

    try:
        status, reply = connections.post(spec.endpoint_url, payload, headers, spec.timeout)
    except (OSError, HTTPException) as exc:
        return False, True, f"transport: {type(exc).__name__}"
    if status != 200:
        return False, status in RETRYABLE_STATUSES, f"http status {status}"
    try:
        text = json.loads(reply)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):  # a null content too: `extract` reads only strings
        return False, True, "malformed response body"
    return True, False, text


def _elicit_one(
    connections: Connections,
    question: Question,
    spec: ModelSpec,
    level: EffortLevel,
    limiter: RateLimiter,
    headers: dict,
    backoff_base: float,
) -> ElicitationRecord:
    payload = build_request(question, spec, level)
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    attempts_allowed = 1 + spec.max_retries  # >= 1: ModelSpec rejects negative retries
    for attempt in range(1, attempts_allowed + 1):
        limiter.acquire()
        started = time.monotonic()
        ok, retryable, text = _post_once(connections, spec, payload, headers)
        latency_ms = 1000.0 * (time.monotonic() - started)
        if ok or not retryable:
            break
        if attempt < attempts_allowed:
            # backoff_base * 2^(attempt-1); 2**(attempt-1) as an int would not fit a float
            time.sleep(math.ldexp(backoff_base, attempt - 1))
    return ElicitationRecord(
        question_id=question.question_id,
        model_id=spec.model_id,
        effort=level.value,
        tools_enabled=spec.tool_policy is not None,
        raw_text=text if ok else "",
        request_timestamp=timestamp,
        latency_ms=latency_ms,
        attempt_count=attempt,
        transport_status=TransportStatus.OK if ok else TransportStatus.FAILED,
        failure_reason=None if ok else text,
        request_payload=payload,
    )


def _answered_key(row: dict) -> tuple | None:
    """The (question, model, effort, tools) key of a transcript row if it was
    answered (transport ok), else None; the row is checked as an `ElicitationRecord`."""
    r = load_row(ElicitationRecord, row)
    return ((r.question_id, r.model_id, r.effort, r.tools_enabled)
            if r.transport_status is TransportStatus.OK else None)


def _done_keys(path: Path, cfg_hash: str) -> set[tuple]:
    """Keys already answered in an existing transcript of this run config, read row by row.

    Every record is written with its line end, so bytes after the last one
    are a torn write: once the header shows this run's config, they are cut
    off, with a warning, and their key is asked again.
    """
    if not path.exists():
        return set()
    header, rows = iter_jsonl(path, "transcript.v1", _answered_key)
    rows.close()
    if header.get("config_hash") != cfg_hash:
        raise ConfigError(
            f"{path}: cannot resume, the transcript was written under config "
            f"{header.get('config_hash')}, this run is {cfg_hash}"
        )
    with path.open("r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        end = size
        while end > 0:  # find the last line end, reading back in blocks
            start = max(0, end - 65536)
            fh.seek(start)
            newline = fh.read(end - start).rfind(b"\n")
            if newline >= 0:
                end = start + newline + 1
                break
            end = start
        if 0 < end < size:  # the header line is whole, since it was read
            fh.truncate(end)
            print(f"warning: {path}: cut {size - end} bytes of a torn last line",
                  file=sys.stderr)
        elif end == 0:  # only the header's line end was torn off
            fh.seek(size)
            fh.write(b"\n")
    _, keys = read_jsonl(path, "transcript.v1", _answered_key)
    return set(keys) - {None}


@dataclass
class BatchResult:
    requested: int = 0
    skipped: int = 0
    ok: int = 0
    failed: int = 0


def run_batch(
    questions: Sequence[Question],
    specs: Sequence[ModelSpec],
    levels: Sequence[EffortLevel],
    concurrency: int,
    out_path: str | Path,
    cfg_hash: str,
    resume: bool = False,
    backoff_base: float = 0.5,
    result: BatchResult | None = None,
) -> BatchResult:
    """Send |questions| x |specs| x |levels per spec| requests.

    At most `concurrency` requests are in flight; each spec gets its own rate
    limiter. Requests start in plan order (question, spec, level), and the
    plan is drawn lazily: at most `2 * concurrency` tasks are submitted and
    not yet written, one running and one queued per worker, and each written
    record lets one more task in. Memory therefore grows with the questions
    and the concurrency, not with the number of requests. Records are
    appended and flushed as they complete (they are self-contained, so write
    order is irrelevant) and failures after retries are recorded, not
    raised. If a task raises or the run is interrupted, the queued tasks are
    dropped and only the running ones finish, unwritten; the counts go into
    `result` as they happen, so a caller that passes one still has them
    after an interrupt. With resume=True,
    planned keys already answered in the existing transcript are skipped and
    counted in `skipped`; a transcript of another config is rejected, and
    the bytes after the last line end of one of this config, a torn write,
    are cut off. A bad concurrency, effort levels that select nothing for
    any spec, an API key that is missing or cannot go in a header, an
    endpoint URL that is not http(s) with a host or cannot go in a request
    line, a proxy that is not http://, or a backoff_base that is not finite
    and >= 0 or whose longest backoff is longer than a sleep can take abort
    before the transcript is opened. Every connection opened
    is closed on return.
    """
    if concurrency < 1:
        raise ConfigError(f"concurrency must be >= 1, got {concurrency}")
    if not 0.0 <= backoff_base < math.inf:  # NaN fails too
        raise ConfigError(f"backoff_base must be finite and >= 0, got {backoff_base}")
    for spec in specs:
        # The longest backoff is backoff_base * 2^(max_retries-1); dividing the bound
        # by 2^(max_retries-1) instead underflows to 0 where the product would overflow.
        if spec.max_retries and backoff_base > math.ldexp(threading.TIMEOUT_MAX,
                                                          1 - spec.max_retries):
            raise ConfigError(
                f"{spec.model_id}: backoff_base {backoff_base} with max_retries "
                f"{spec.max_retries} backs off longer than {threading.TIMEOUT_MAX} s"
            )
    if not any(spec.levels_for(levels) for spec in specs):
        raise ConfigError(
            f"efforts {[lv.value for lv in levels]} select no level of any model spec"
        )
    out_path = Path(out_path)
    headers_by_spec = {spec.model_id: _auth_headers(spec) for spec in specs}
    # Only elicit runs threads and talks HTTP; the offline stages load neither.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    from .transport import Connections

    connections = Connections((spec.model_id, spec.endpoint_url) for spec in specs)

    done = _done_keys(out_path, cfg_hash) if resume else set()
    limiters = {spec.model_id: RateLimiter(spec.rate_limit_per_minute) for spec in specs}
    result = BatchResult() if result is None else result

    def plan():
        """The arguments of each planned `_elicit_one` call, in plan order,
        minus the answered keys; both are counted as they are drawn."""
        for question in questions:
            for spec in specs:
                for level in spec.levels_for(levels):
                    key = (
                        question.question_id,
                        spec.model_id,
                        level.value,
                        spec.tool_policy is not None,
                    )
                    if key in done:
                        result.skipped += 1
                        continue
                    result.requested += 1
                    yield (connections, question, spec, level, limiters[spec.model_id],
                           headers_by_spec[spec.model_id], backoff_base)

    fresh = not (resume and out_path.exists())
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with closing(connections), out_path.open("w" if fresh else "a", encoding="utf-8") as sink:
        if fresh:
            sink.write(header_line("transcript.v1", cfg_hash))
        pool = ThreadPoolExecutor(max_workers=concurrency)
        try:
            tasks = plan()
            # One running and one queued task per worker, so that no worker
            # idles while this thread writes a record.
            pending = {pool.submit(_elicit_one, *args)
                       for args in itertools.islice(tasks, 2 * concurrency)}
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    record = future.result()
                    sink.write(canonical_dumps(record) + "\n")
                    sink.flush()
                    if record.transport_status is TransportStatus.OK:
                        result.ok += 1
                    else:
                        result.failed += 1
                    args = next(tasks, None)
                    if args is not None:
                        pending.add(pool.submit(_elicit_one, *args))
        finally:
            # Nothing is queued here unless a task raised or the run was
            # interrupted: then the queued tasks never start, and the running
            # ones finish.
            pool.shutdown(cancel_futures=True)
    return result
