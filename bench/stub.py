"""Loopback chat-completions stub for the benchmark, run as its own process.

    python3 bench/stub.py --fixtures tests/data/parser_fixtures.jsonl --seed 3

It prints ``PORT <n>`` once it listens on 127.0.0.1, and stops when its
standard input closes, so it cannot outlive the benchmark. Replies are fixture
texts from the parser corpus, chosen deterministically from a hash of
(model, effort, prompt, tools), so a checker can recompute which fixture
each key must have received. The first attempt of a fixed share of keys gets
a 503 so the client's retry path runs.

HTTP/1.1 keep-alive with Nagle off, and every response goes out in a single
send: a separate header and body write would stall each request behind the
client's delayed ACK and make the stub, not the client, the bottleneck.

``GET /stats`` returns the attempt count and the handler busy time;
``POST /reset`` zeroes them and forgets which keys were already failed once.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

FAIL_FIRST_PER_MILLE = 50  # 5% of keys see one 503 before their answer
# Payload fields through which the benchmark's model specs express effort.
EFFORT_PARAMS = ("reasoning_effort", "thinking_budget_tokens")


def load_fixtures(path: str | Path) -> dict[str, list[dict]]:
    """Fixture rows by question kind, each tagged with its 1-based file line."""
    by_kind: dict[str, list[dict]] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        if line.strip():
            row = json.loads(line)
            row["line"] = number
            by_kind.setdefault(row["kind"], []).append(row)
    return by_kind


def reply_key(model: str, effort: str, prompt: str, tools: bool) -> str:
    return "\x1f".join((model, effort, prompt, "tools" if tools else "plain"))


def _digest(seed: int, key: str) -> bytes:
    return hashlib.blake2b(f"{seed}\x1f{key}".encode("utf-8"), digest_size=16).digest()


def kind_of_prompt(prompt: str) -> str:
    """The benchmark's templates ask for a percentage on proportion questions only."""
    return "proportion" if "percentage" in prompt else "continuous"


def fixture_for(fixtures: dict[str, list[dict]], seed: int, key: str, kind: str) -> dict:
    pool = fixtures[kind]
    return pool[int.from_bytes(_digest(seed, key)[:8], "big") % len(pool)]


def fails_first(seed: int, key: str) -> bool:
    return int.from_bytes(_digest(seed, key)[8:], "big") % 1000 < FAIL_FIRST_PER_MILLE


def key_of_payload(payload: dict) -> tuple[str, str]:
    """(reply key, prompt) for a chat-completions request body."""
    prompt = payload["messages"][0]["content"]
    effort = next((str(payload[p]) for p in EFFORT_PARAMS if p in payload), "")
    return reply_key(payload["model"], effort, prompt, bool(payload.get("tools"))), prompt


class StubState:
    def __init__(self, fixtures: dict[str, list[dict]], seed: int):
        self.fixtures = fixtures
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts = 0
            self.busy_s = 0.0
            self.seen: set[str] = set()

    def answer(self, payload: dict) -> tuple[int, dict]:
        key, prompt = key_of_payload(payload)
        with self.lock:
            self.attempts += 1
            first = key not in self.seen
            self.seen.add(key)
            if first and fails_first(self.seed, key):
                return 503, {"error": "overloaded, retry"}
        text = fixture_for(self.fixtures, self.seed, key, kind_of_prompt(prompt))["raw_text"]
        return 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}

    def stats(self) -> dict:
        with self.lock:
            return {"attempts": self.attempts, "busy_s": self.busy_s}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    state: StubState

    def log_message(self, *args) -> None:
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + data)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        started = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.state.reset()
            self._send(200, {"reset": True})
            return
        try:
            status, reply = self.state.answer(json.loads(body))
        except (ValueError, KeyError, IndexError, TypeError):
            status, reply = 400, {"error": "malformed request"}
        self._send(status, reply)
        with self.state.lock:
            self.state.busy_s += time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    state = StubState(load_fixtures(args.fixtures), args.seed)
    handler = type("BoundHandler", (Handler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
