import base64
import gc
import itertools
import json
import select
import socket
import sys
import time
from pathlib import Path

import pytest

from elicitbench import __version__, elicitation, transport
from elicitbench.cli import main
from elicitbench.corpus import TargetKind
from elicitbench.elicitation import (
    EffortLevel,
    ModelSpec,
    TokenBudget,
    VendorParam,
    WebSearch,
    build_request,
    map_effort,
    run_batch,
)
from elicitbench.errors import ConfigError
from elicitbench.jsonlio import load_row, read_jsonl
from elicitbench.synthetic import SyntheticSuiteConfig, make_questions
from elicitbench.transport import Connections

from helpers import answer_at_once, as_decoded
from stubserver import StubServer, StubState


def spec_for(url, **kwargs):
    defaults = dict(
        model_id="stub-model",
        endpoint_url=url,
        auth_env_var="STUB_API_KEY",
        effort_mode=TokenBudget(),
        max_retries=3,
        timeout=5.0,
        rate_limit_per_minute=100000.0,
    )
    defaults.update(kwargs)
    return ModelSpec(**defaults)


def questions(n=2, seed=0):
    return [q for q, _ in make_questions(SyntheticSuiteConfig(n_questions=n, seed=seed), range(n))]


@pytest.fixture(autouse=True)
def stub_key(monkeypatch):
    monkeypatch.setenv("STUB_API_KEY", "stub-secret")


class TestMapEffort:
    def test_token_budgets(self):
        spec = spec_for("http://x")
        assert map_effort(spec, EffortLevel.LOW) == {"thinking_budget_tokens": 2000}
        assert map_effort(spec, EffortLevel.MEDIUM) == {"thinking_budget_tokens": 8000}
        assert map_effort(spec, EffortLevel.HIGH) == {"thinking_budget_tokens": 16000}

    def test_vendor_param(self):
        spec = spec_for(
            "http://x",
            effort_mode=VendorParam(param="reasoning_effort",
                                    values={"low": "low", "medium": "medium", "high": "high"}),
        )
        assert map_effort(spec, EffortLevel.HIGH) == {"reasoning_effort": "high"}

    def test_non_reasoning_has_empty_fragment(self):
        spec = spec_for("http://x", effort_mode=None)
        assert map_effort(spec, EffortLevel.NONE) == {}

    def test_budgets_must_increase(self):
        with pytest.raises(ConfigError):
            TokenBudget(budgets={"low": 8000, "medium": 8000, "high": 16000})
        with pytest.raises(ConfigError):
            TokenBudget(budgets={"low": -1, "medium": 8, "high": 16})

    def test_web_search_cap(self):
        with pytest.raises(ConfigError):
            WebSearch(max_searches=6)


class TestBuildRequest:
    def test_payload_shape_and_instruction(self):
        q = questions(1)[0]
        spec = spec_for("http://x")
        payload = build_request(q, spec, EffortLevel.LOW)
        assert payload["model"] == "stub-model"
        assert payload["temperature"] == 0
        assert payload["messages"][0]["content"].endswith("value, lower, upper.")
        assert payload["thinking_budget_tokens"] == 2000
        assert "tools" not in payload
        assert payload == build_request(q, spec, EffortLevel.LOW)

    def test_instruction_appended_when_missing(self):
        q = questions(1)[0]
        from dataclasses import replace

        bare = replace(q, prompt="Estimate the thing.")
        payload = build_request(bare, spec_for("http://x"), EffortLevel.LOW)
        assert payload["messages"][0]["content"].endswith(
            "a 95% confidence interval as three numbers: value, lower, upper."
        )

    def test_percent_instruction_for_proportion(self):
        cfg = SyntheticSuiteConfig(n_questions=1, seed=0, proportion_fraction=1.0)
        q, _ = next(make_questions(cfg, range(1)))
        from dataclasses import replace

        bare = replace(q, prompt="Share of people with trait?")
        payload = build_request(bare, spec_for("http://x"), EffortLevel.LOW)
        assert "percentage and a 95% confidence interval" in payload["messages"][0]["content"]

    def test_tool_declaration(self):
        q = questions(1)[0]
        spec = spec_for("http://x", tool_policy=WebSearch(max_searches=5))
        payload = build_request(q, spec, EffortLevel.LOW)
        assert payload["tools"] == [{"type": "web_search", "max_searches": 5}]


class TestModelSpecParsing:
    def test_minimal(self):
        spec = load_row(ModelSpec, {"model_id": "m", "endpoint_url": "http://x"})
        assert isinstance(spec.effort_mode, TokenBudget)
        assert spec.tool_policy is None

    def test_full(self):
        spec = load_row(
            ModelSpec,
            {
                "model_id": "m",
                "endpoint_url": "http://x",
                "auth_env_var": "KEY",
                "effort_mode": {"type": "vendor_param", "param": "effort",
                                "values": {"low": 1, "medium": 2, "high": 3}},
                "tool_policy": {"type": "web_search", "max_searches": 3},
                "max_retries": 1,
                "timeout": 2.5,
                "rate_limit_per_minute": 10,
            },
        )
        assert spec.tool_policy == WebSearch(max_searches=3)

    @pytest.mark.parametrize(
        "mode, expected",
        [({"type": "non_reasoning"}, None),
         ({"type": "token_budget", "budgets": {"low": 1, "medium": 2, "high": 3}},
          TokenBudget(budgets={"low": 1, "medium": 2, "high": 3}))],
        ids=["non_reasoning", "budgets"],
    )
    def test_effort_mode_json_keys(self, mode, expected):
        spec = load_row(ModelSpec, {"model_id": "m", "endpoint_url": "http://x",
                                    "effort_mode": mode})
        assert spec.effort_mode == expected

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            load_row(ModelSpec, {"model_id": "m", "endpoint_url": "http://x",
                                 "effort_mode": {"type": "quantum"}})


class TestRunBatch:
    def test_cardinality(self, tmp_path):
        state = StubState()
        with StubServer(state) as server:
            result = run_batch(
                questions(100), [spec_for(server.url)],
                [EffortLevel.LOW, EffortLevel.MEDIUM, EffortLevel.HIGH],
                concurrency=8, out_path=tmp_path / "t.jsonl", cfg_hash="h",
            )
        assert result.requested == 300
        assert result.ok == 300 and result.failed == 0
        _, rows = read_jsonl(tmp_path / "t.jsonl", "transcript.v1", as_decoded)
        assert len(rows) == 300
        assert {(r["question_id"], r["effort"]) for r in rows} == {
            (q.question_id, lv) for q in questions(100) for lv in ("low", "medium", "high")
        }

    def test_non_reasoning_gets_control_level_only(self, tmp_path):
        state = StubState()
        with StubServer(state) as server:
            result = run_batch(
                questions(4),
                [spec_for(server.url), spec_for(server.url, model_id="plain",
                                                effort_mode=None)],
                [EffortLevel.LOW, EffortLevel.HIGH],
                concurrency=4, out_path=tmp_path / "t.jsonl", cfg_hash="h",
            )
        # 4 x (2 levels) + 4 x (none)
        assert result.requested == 12
        _, rows = read_jsonl(tmp_path / "t.jsonl", "transcript.v1", as_decoded)
        assert sum(1 for r in rows if r["model_id"] == "plain") == 4
        assert all(r["effort"] == "none" for r in rows if r["model_id"] == "plain")

    def test_retry_then_success(self, tmp_path):
        state = StubState(fail_first=2)
        with StubServer(state) as server:
            result = run_batch(
                questions(1), [spec_for(server.url)], [EffortLevel.LOW],
                concurrency=1, out_path=tmp_path / "t.jsonl", cfg_hash="h",
                backoff_base=0.01,
            )
        assert result.ok == 1 and result.failed == 0
        _, rows = read_jsonl(tmp_path / "t.jsonl", "transcript.v1", as_decoded)
        assert rows[0]["attempt_count"] == 3
        assert rows[0]["transport_status"] == "ok"

    def test_exhausted_retries_recorded_not_fatal(self, tmp_path):
        state = StubState(permanent_status=503)
        with StubServer(state) as server:
            result = run_batch(
                questions(1), [spec_for(server.url, max_retries=2)], [EffortLevel.LOW],
                concurrency=1, out_path=tmp_path / "t.jsonl", cfg_hash="h",
                backoff_base=0.01,
            )
        assert result.failed == 1
        _, rows = read_jsonl(tmp_path / "t.jsonl", "transcript.v1", as_decoded)
        assert rows[0]["transport_status"] == "failed"
        assert rows[0]["attempt_count"] == 3  # 1 + max_retries
        assert "503" in rows[0]["failure_reason"]

    def test_permanent_4xx_not_retried(self, tmp_path):
        state = StubState(permanent_status=400)
        with StubServer(state) as server:
            run_batch(
                questions(1), [spec_for(server.url)], [EffortLevel.LOW],
                concurrency=1, out_path=tmp_path / "t.jsonl", cfg_hash="h",
                backoff_base=0.01,
            )
        assert state.requests == 1

    def test_resume_skips_answered(self, tmp_path):
        state = StubState()
        out = tmp_path / "t.jsonl"
        with StubServer(state) as server:
            spec = spec_for(server.url)
            run_batch(questions(3), [spec], [EffortLevel.LOW], 2, out, "h")
            first_requests = state.requests
            result = run_batch(questions(3), [spec], [EffortLevel.LOW], 2, out, "h",
                               resume=True)
        assert first_requests == 3
        assert state.requests == 3  # no new traffic
        assert result.requested == 0 and result.skipped == 3
        _, rows = read_jsonl(out, "transcript.v1", as_decoded)
        assert len(rows) == 3

    def test_resume_counts_only_planned_keys(self, tmp_path):
        state = StubState()
        out = tmp_path / "t.jsonl"
        with StubServer(state) as server:
            spec = spec_for(server.url)
            run_batch(questions(3), [spec], [EffortLevel.LOW, EffortLevel.HIGH], 2, out, "h")
            result = run_batch(questions(3)[:1], [spec], [EffortLevel.LOW], 2, out, "h",
                               resume=True)
        assert state.requests == 6
        assert result.requested == 0 and result.skipped == 1

    def test_resume_retries_failed_keys(self, tmp_path):
        out = tmp_path / "t.jsonl"
        state = StubState(permanent_status=503)
        with StubServer(state) as server:
            spec = spec_for(server.url, max_retries=0)
            run_batch(questions(2), [spec], [EffortLevel.LOW], 1, out, "h",
                      backoff_base=0.01)
        healthy = StubState()
        with StubServer(healthy) as server:
            spec = spec_for(server.url, max_retries=0)
            result = run_batch(questions(2), [spec], [EffortLevel.LOW], 1, out, "h",
                               resume=True, backoff_base=0.01)
        assert result.requested == 2 and result.ok == 2
        _, rows = read_jsonl(out, "transcript.v1", as_decoded)
        ok_keys = {r["question_id"] for r in rows if r["transport_status"] == "ok"}
        assert len(ok_keys) == 2

    def test_missing_api_key_fatal_before_any_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STUB_API_KEY", raising=False)
        state = StubState()
        with StubServer(state) as server:
            with pytest.raises(ConfigError):
                run_batch(questions(2), [spec_for(server.url)], [EffortLevel.LOW],
                          1, tmp_path / "t.jsonl", "h")
        assert state.requests == 0

    def test_zero_backoff_never_overflows(self, tmp_path, monkeypatch):
        # backoff_base * 2**1024 overflows a float even when backoff_base is 0.
        monkeypatch.setattr(elicitation, "_post_once", lambda *args: (False, True, "transport: X"))
        spec = spec_for("http://127.0.0.1:9/v1", max_retries=1100, rate_limit_per_minute=1e12)
        result = run_batch(questions(1), [spec], [EffortLevel.LOW], concurrency=1,
                           out_path=tmp_path / "t.jsonl", cfg_hash="h", backoff_base=0.0)
        assert result.failed == 1
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1101]

    def test_auth_header_sent(self, tmp_path):
        state = StubState()
        with StubServer(state) as server:
            run_batch(questions(1), [spec_for(server.url)], [EffortLevel.LOW],
                      1, tmp_path / "t.jsonl", "h")
        assert state.requests == 1
        (headers,) = state.headers
        assert headers["authorization"] == "Bearer stub-secret"
        assert headers["content-type"] == "application/json"
        assert headers["user-agent"] == f"elicitbench/{__version__}"

    def test_rate_limit_spaces_arrivals(self, tmp_path):
        state = StubState()
        with StubServer(state) as server:
            spec = spec_for(server.url, rate_limit_per_minute=60 / 0.08)  # 80 ms interval
            # A full collection pauses every thread (about 0.1 s once the whole suite has
            # loaded); one between a request's start and its send moves that arrival. When
            # it falls depends on what earlier tests allocated, so it is run here, first.
            gc.collect()
            started = time.monotonic()
            run_batch(questions(4), [spec], [EffortLevel.LOW], concurrency=4,
                      out_path=tmp_path / "t.jsonl", cfg_hash="h")
            elapsed = time.monotonic() - started
        arrivals = sorted(state.arrivals)
        assert len(arrivals) == 4
        assert arrivals[-1] - arrivals[0] >= 3 * 0.08 * 0.75  # generous clock slack
        assert elapsed >= 3 * 0.08 * 0.75

    def test_concurrency_cap(self, tmp_path):
        state = StubState(delay=0.05)
        with StubServer(state) as server:
            run_batch(questions(8), [spec_for(server.url)], [EffortLevel.LOW],
                      concurrency=2, out_path=tmp_path / "t.jsonl", cfg_hash="h")
        assert state.max_active <= 2

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_stops_the_batch_within_the_window(self, tmp_path, monkeypatch, error):
        # At most 2 x concurrency tasks are submitted and unwritten, so a raising
        # task or an interrupt cannot leave the rest of the plan queued behind it.
        calls = itertools.count(1)

        def elicit_one(*args):
            if next(calls) == 5:
                raise error("fifth task")
            return answer_at_once(*args)

        monkeypatch.setattr(elicitation, "_elicit_one", elicit_one)
        out = tmp_path / "t.jsonl"
        with pytest.raises(error, match="fifth task"):
            run_batch(questions(2000), [spec_for("http://127.0.0.1:9/v1")],
                      [EffortLevel.LOW, EffortLevel.MEDIUM, EffortLevel.HIGH],
                      concurrency=2, out_path=out, cfg_hash="h")
        called = next(calls) - 1
        assert called <= len(rows_of(out)) + 2 * 2

    def test_payload_echoed_in_transcript(self, tmp_path):
        state = StubState()
        with StubServer(state) as server:
            run_batch(questions(1), [spec_for(server.url)], [EffortLevel.LOW],
                      1, tmp_path / "t.jsonl", "h")
        _, rows = read_jsonl(tmp_path / "t.jsonl", "transcript.v1", as_decoded)
        payload = rows[0]["request_payload"]
        assert payload["thinking_budget_tokens"] == 2000
        assert payload == state.payloads[0]


PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")
TLS_DATA = Path(__file__).resolve().parent / "data"
STUB_REPLY = "value: 42, lower: 40, upper: 44"
COMPLETION = json.dumps({"choices": [{"message": {"content": STUB_REPLY}}]}).encode()
# a whole HTTP/1.1 reply of COMPLETION, framed by its length
COMPLETED = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(COMPLETION), COMPLETION)


def dead_port():
    """A loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def rows_of(path):
    _, rows = read_jsonl(path, "transcript.v1", as_decoded)
    return rows


class TestTransport:
    @pytest.fixture(autouse=True)
    def no_proxy_environment(self, monkeypatch):
        for name in PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def elicit(self, tmp_path, url, **spec):
        """Exit code of `elicit` on two questions for one model spec at url."""
        suite = tmp_path / "suite"
        assert main(["simulate", "--n-questions", "2", "--seed", "0",
                     "--out-dir", str(suite)]) == 0
        models = tmp_path / "models.json"
        models.write_text(json.dumps({"models": [{
            "model_id": "stub", "endpoint_url": url, "auth_env_var": "STUB_API_KEY",
            "rate_limit_per_minute": 100000, **spec}]}))
        return main(["elicit", "--corpus", str(suite / "corpus.jsonl"),
                     "--models", str(models), "--efforts", "low",
                     "--out", str(tmp_path / "t.jsonl"), "--manifest", str(tmp_path / "m.json"),
                     "--backoff-base", "0.01"])

    def test_each_worker_keeps_one_connection(self, tmp_path):
        state = StubState(keep_alive=True)
        with StubServer(state) as server:
            result = run_batch(questions(24), [spec_for(server.url)], [EffortLevel.LOW],
                               concurrency=2, out_path=tmp_path / "t.jsonl", cfg_hash="h")
        assert result.ok == 24 and state.requests == 24
        assert len(set(state.ports)) <= 2

    def test_every_connection_is_closed_on_return(self, tmp_path):
        # more workers than cores, switching threads often
        state = StubState(keep_alive=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with StubServer(state) as server:
                result = run_batch(questions(200), [spec_for(server.url)], [EffortLevel.LOW],
                                   concurrency=8, out_path=tmp_path / "t.jsonl", cfg_hash="h")
                deadline = time.monotonic() + 10
                while state.closed < len(set(state.ports)) and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
        assert result.ok == 200 and state.requests == 200
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1] * 200
        assert len(set(state.ports)) <= 8
        assert state.closed == len(set(state.ports))

    def test_connections_the_server_closed_are_reopened_without_an_attempt(self, tmp_path):
        # Request starts 20 ms apart: each connection has been idle, and closed,
        # by the time its worker would reuse it.
        state = StubState(close_silently=True)
        with StubServer(state) as server:
            spec = spec_for(server.url, rate_limit_per_minute=3000.0)
            result = run_batch(questions(12), [spec], [EffortLevel.LOW],
                               concurrency=2, out_path=tmp_path / "t.jsonl", cfg_hash="h")
        assert result.ok == 12 and state.requests == 12
        assert len(set(state.ports)) == 12
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1] * 12

    def test_without_poll_an_idle_connection_is_dropped_once_its_peer_closes(self, monkeypatch):
        # select.select stands in where the platform has no select.poll
        monkeypatch.delattr(select, "poll")
        mine, peer = socket.socketpair()
        with mine, peer:
            assert not transport._dropped(mine)
            peer.close()
            assert transport._dropped(mine)

    def test_connection_lost_awaiting_the_reply_counts_an_attempt(self, tmp_path):
        # The second request goes out on the first one's connection, and the
        # server takes it and hangs up: it may have done the work, so it is a
        # counted attempt, retried after the backoff and under the rate limit.
        state = StubState(keep_alive=True, hang_up_on={2})
        with StubServer(state) as server:
            result = run_batch(questions(2), [spec_for(server.url)], [EffortLevel.LOW],
                               concurrency=1, out_path=tmp_path / "t.jsonl", cfg_hash="h",
                               backoff_base=0.01)
        assert result.ok == 2 and state.requests == 3
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1, 2]
        assert state.ports[0] == state.ports[1] != state.ports[2]

    def test_refused_connection_uses_every_attempt_and_exits_4(self, tmp_path):
        url = f"http://127.0.0.1:{dead_port()}/v1/chat/completions"
        assert self.elicit(tmp_path, url, max_retries=2) == 4
        rows = rows_of(tmp_path / "t.jsonl")
        assert [r["attempt_count"] for r in rows] == [3, 3]
        assert all(r["failure_reason"].startswith("transport: ") for r in rows)

    def test_read_timeout_uses_every_attempt_and_exits_4(self, tmp_path):
        state = StubState(delay=0.6)
        with StubServer(state) as server:
            assert self.elicit(tmp_path, server.url, max_retries=1, timeout=0.2) == 4
        rows = rows_of(tmp_path / "t.jsonl")
        assert [r["attempt_count"] for r in rows] == [2, 2]
        assert all(r["failure_reason"].startswith("transport: ") for r in rows)
        assert state.requests == 4

    @pytest.mark.parametrize(
        "body",
        [b"not json", b'{"choices": []}', b'{"choices": [{"message": {}}]}',
         b'{"choices": [{"message": {"content": null}}]}'],
        ids=["not_json", "no_choices", "no_content", "null_content"],
    )
    def test_malformed_reply_uses_every_attempt_and_exits_4(self, tmp_path, body):
        state = StubState(body=body)
        with StubServer(state) as server:
            assert self.elicit(tmp_path, server.url, max_retries=2) == 4
        rows = rows_of(tmp_path / "t.jsonl")
        assert [(r["transport_status"], r["failure_reason"], r["attempt_count"]) for r in rows] \
            == [("failed", "malformed response body", 3)] * 2
        assert state.requests == 6

    @pytest.mark.parametrize("keep_alive, raw, connections", [
        (True, b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               + b"".join(b"%x\r\n%s\r\n" % (len(part), part)
                          for part in (COMPLETION[:9], COMPLETION[9:]))
               + b"0\r\nX-Trailer: 1\r\n\r\n", 1),
        (False, b"HTTP/1.0 200 OK\r\n\r\n" + COMPLETION, 2),
        (True, b"HTTP/1.1 100 Continue\r\n\r\n" + COMPLETED, 1),
        # the server keeps the connection open, but the reply said it would not
        (True, COMPLETED.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"), 2),
        (True, COMPLETED.replace(b"\r\n\r\n", b"\r\n" + b"X-A: 1\r\n" * 99 + b"\r\n"), 1),
    ], ids=["chunked", "http10_until_close", "interim_100", "connection_close", "100_headers"])
    def test_reply_framings_are_read_in_one_attempt(self, tmp_path, keep_alive, raw,
                                                    connections):
        state = StubState(keep_alive=keep_alive, raw=raw)
        with StubServer(state) as server:
            result = run_batch(questions(2), [spec_for(server.url)], [EffortLevel.LOW],
                               concurrency=1, out_path=tmp_path / "t.jsonl", cfg_hash="h",
                               backoff_base=0.01)
        assert result.ok == 2 and state.requests == 2
        rows = rows_of(tmp_path / "t.jsonl")
        assert [(r["attempt_count"], r["raw_text"]) for r in rows] == [(1, STUB_REPLY)] * 2
        assert len(set(state.ports)) == connections

    @pytest.mark.parametrize("raw, reason", [
        (COMPLETED.replace(b"Content-Length: ", b"Content-Length: 1"), "IncompleteRead"),
        (b"garbage\r\n\r\n", "BadStatusLine"),
        (b"HTTP/2 200\r\n\r\n", "UnknownProtocol"),
        (COMPLETED.replace(b"\r\n\r\n", b"\r\n" + b"X-A: 1\r\n" * 100 + b"\r\n"),
         "HTTPException"),
        (COMPLETED.replace(b"\r\n\r\n", b"\r\nX-A: " + b"a" * 65536 + b"\r\n\r\n"),
         "LineTooLong"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "IncompleteRead"),
        (b"", "RemoteDisconnected"),
    ], ids=["truncated_body", "garbage_status", "http2_status", "101_headers",
            "long_header_line", "bad_chunk_size", "no_reply"])
    def test_a_broken_reply_is_a_counted_transport_failure(self, tmp_path, raw, reason):
        # 101 headers (100 and Content-Length) are one too many, and a line over 64 KiB too long
        state = StubState(raw=raw)
        with StubServer(state) as server:
            assert self.elicit(tmp_path, server.url, max_retries=1) == 4
        rows = rows_of(tmp_path / "t.jsonl")
        assert [(r["failure_reason"], r["attempt_count"]) for r in rows] \
            == [(f"transport: {reason}", 2)] * 2
        assert state.requests == 4

    @pytest.fixture
    def trusted_test_ca(self, monkeypatch):
        """The committed test CA, as the default store of each new TLS context."""
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DATA / "tls_ca.pem"))
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)

    def test_https_is_verified_and_kept_alive(self, tmp_path, trusted_test_ca):
        # the certificate names localhost and 127.0.0.1
        state = StubState(keep_alive=True)
        with StubServer(state, certfile=TLS_DATA / "tls_localhost.pem") as server:
            assert server.url.startswith("https://127.0.0.1:")
            assert self.elicit(tmp_path, server.url.replace("127.0.0.1", "localhost")) == 0
            result = run_batch(questions(4), [spec_for(server.url)], [EffortLevel.LOW],
                               concurrency=1, out_path=tmp_path / "batch.jsonl", cfg_hash="h")
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1, 1]
        assert result.ok == 4 and state.requests == 6
        assert len(set(state.ports[2:])) == 1

    def test_a_certificate_for_another_name_is_a_counted_failure(self, tmp_path,
                                                                 trusted_test_ca):
        state = StubState(keep_alive=True)
        with StubServer(state, certfile=TLS_DATA / "tls_other_name.pem") as server:
            assert self.elicit(tmp_path, server.url, max_retries=1) == 4
        rows = rows_of(tmp_path / "t.jsonl")
        assert [(r["failure_reason"], r["attempt_count"]) for r in rows] \
            == [("transport: SSLCertVerificationError", 2)] * 2
        assert state.requests == 0

    @staticmethod
    def fail_first_send(monkeypatch, error, on_reused):
        """Make the first `send` on a reused (or a new) connection raise `error`."""
        send = transport.Connection.send
        failed = []

        def failing_send(conn, *args, **kwargs):
            if (conn.sock is not None) == on_reused and not failed:
                failed.append(error)
                raise error
            return send(conn, *args, **kwargs)

        monkeypatch.setattr(transport.Connection, "send", failing_send)
        return failed

    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_a_failed_send_on_a_reused_connection_is_resent_without_an_attempt(
            self, tmp_path, monkeypatch, error):
        failed = self.fail_first_send(monkeypatch, error, on_reused=True)
        state = StubState(keep_alive=True)
        with StubServer(state) as server:
            result = run_batch(questions(2), [spec_for(server.url)], [EffortLevel.LOW],
                               concurrency=1, out_path=tmp_path / "t.jsonl", cfg_hash="h",
                               backoff_base=0.01)
        assert failed == [error]
        assert result.ok == 2 and state.requests == 2
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1, 1]
        assert state.ports[0] != state.ports[1]  # sent again on a new connection

    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_a_failed_send_on_a_new_connection_is_a_counted_attempt(
            self, tmp_path, monkeypatch, error):
        failed = self.fail_first_send(monkeypatch, error, on_reused=False)
        state = StubState(keep_alive=True)
        with StubServer(state) as server:
            result = run_batch(questions(1), [spec_for(server.url)], [EffortLevel.LOW],
                               concurrency=1, out_path=tmp_path / "t.jsonl", cfg_hash="h",
                               backoff_base=0.01)
        assert failed == [error]
        assert result.ok == 1 and state.requests == 1
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [2]

    def test_http_proxy_gets_the_absolute_target(self, tmp_path, monkeypatch):
        state = StubState()
        with StubServer(state) as server:
            monkeypatch.setenv("HTTP_PROXY", server.base.replace("//", "//user:p%40ss@"))
            assert self.elicit(tmp_path, "http://elicit.invalid/v1/chat/completions") == 0
        assert state.targets == ["http://elicit.invalid/v1/chat/completions"] * 2
        credentials = base64.b64encode(b"user:p@ss").decode()
        for headers in state.headers:
            assert headers["host"] == "elicit.invalid"
            assert headers["proxy-authorization"] == f"Basic {credentials}"
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1, 1]

    def test_all_proxy_serves_a_scheme_without_its_own(self, tmp_path, monkeypatch):
        state = StubState()
        with StubServer(state) as server:
            monkeypatch.setenv("ALL_PROXY", server.base)
            assert self.elicit(tmp_path, "http://elicit.invalid/v1/chat/completions") == 0
        assert state.targets == ["http://elicit.invalid/v1/chat/completions"] * 2

    def test_https_proxy_is_asked_for_a_tunnel(self, tmp_path, monkeypatch):
        state = StubState()
        with StubServer(state) as server:
            monkeypatch.setenv("HTTPS_PROXY", server.base.replace("//", "//user:secret@"))
            assert self.elicit(tmp_path, "https://elicit.invalid/v1", max_retries=0) == 4
        assert state.targets == ["elicit.invalid:443"] * 2
        credentials = base64.b64encode(b"user:secret").decode()
        assert all(h["proxy-authorization"] == f"Basic {credentials}" for h in state.headers)
        assert state.requests == 0  # the tunnel was refused; nothing was posted

    def test_no_proxy_bypasses_a_dead_proxy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{dead_port()}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        state = StubState()
        with StubServer(state) as server:
            assert self.elicit(tmp_path, server.url) == 0
        assert [r["attempt_count"] for r in rows_of(tmp_path / "t.jsonl")] == [1, 1]
        assert state.targets == ["/v1/chat/completions"] * 2

    def test_a_proxy_port_out_of_range_is_2_before_the_transcript(self, tmp_path, monkeypatch,
                                                                   capsys, no_network):
        monkeypatch.setenv("HTTP_PROXY", "http://proxy:99999")
        capsys.readouterr()
        assert self.elicit(tmp_path, "http://elicit.invalid/v1/chat/completions") == 2
        assert "http proxy 'http://proxy:99999': expected http://host[:port]" \
            in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    def test_a_reused_connection_takes_the_timeout_of_its_request(self):
        # two model specs on one endpoint share a worker's connection
        state = StubState(keep_alive=True)
        with StubServer(state) as server:
            connections = Connections([("a", server.url), ("b", server.url)])
            try:
                statuses = [connections.post(server.url, {"model": model}, {}, timeout)[0]
                            for model, timeout in (("a", 5.0), ("b", 7.5))]
                (conn,) = connections._opened
                assert conn.sock.gettimeout() == 7.5
            finally:
                connections.close()
        assert statuses == [200, 200]
        assert len(state.ports) == 2 and len(set(state.ports)) == 1

    def test_proxy_that_is_not_http_is_a_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "socks5://127.0.0.1:1080")
        with pytest.raises(ConfigError, match="socks5"):
            run_batch(questions(1), [spec_for("http://elicit.invalid/v1")], [EffortLevel.LOW],
                      1, tmp_path / "t.jsonl", "h")
        assert not (tmp_path / "t.jsonl").exists()
