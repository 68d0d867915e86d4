"""Local chat-completions stub server for elicitation tests.

By default it speaks HTTP/1.0 and closes each connection after its reply.
With `keep_alive` it speaks HTTP/1.1 and keeps connections open; with
`close_silently` it speaks HTTP/1.1 but closes each connection after its
reply without saying so, as a server that drops idle connections does.
`hang_up_on` names requests (counted from 1) that are read and then answered
by closing the connection, as a gateway that drops a slow call does. `body`
is sent as the raw body of every 200 reply, in place of a chat completion
whose content is `reply`, and `raw` as every reply whole (status line,
headers and body), for replies that `http.server` cannot frame: chunked,
interim, truncated or malformed ones. Given a `certfile` (a certificate and
its key), the server speaks TLS.
"""
import json
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubState:
    """Shared, lock-protected record of what the server saw."""

    def __init__(self, reply="value: 42, lower: 40, upper: 44", fail_first=0,
                 fail_status=503, delay=0.0, permanent_status=None,
                 keep_alive=False, close_silently=False, hang_up_on=(), body=None, raw=None):
        self.reply = reply
        self.body = body                  # raw bytes of each 200 reply when set
        self.raw = raw                    # raw bytes of each whole reply when set
        self.fail_first = fail_first      # first N requests fail with fail_status
        self.fail_status = fail_status
        self.permanent_status = permanent_status  # fail every request when set
        self.delay = delay
        self.keep_alive = keep_alive
        self.close_silently = close_silently
        self.hang_up_on = set(hang_up_on)
        self.lock = threading.Lock()
        self.requests = 0
        self.arrivals = []                # monotonic arrival times
        self.active = 0
        self.max_active = 0
        self.payloads = []
        self.headers = []                 # each request's headers, names lower-cased
        self.targets = []                 # each request's target, as sent
        self.ports = []                   # each request's client port: one per connection
        self.closed = 0                   # connections whose handler has finished


class _Handler(BaseHTTPRequestHandler):
    state: StubState = None

    def log_message(self, *args):
        pass

    def _record(self):
        state = self.state
        state.headers.append({k.lower(): v for k, v in self.headers.items()})
        state.targets.append(self.path)
        state.ports.append(self.client_address[1])

    def finish(self):
        super().finish()
        with self.state.lock:
            self.state.closed += 1

    def _send_empty(self, status):
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_CONNECT(self):
        """A proxy that refuses every tunnel, after recording the request."""
        with self.state.lock:
            self._record()
        self._send_empty(405)

    def do_POST(self):
        state = self.state
        with state.lock:
            state.requests += 1
            index = state.requests
            state.arrivals.append(time.monotonic())
            state.active += 1
            state.max_active = max(state.max_active, state.active)
            self._record()
            length = int(self.headers.get("Content-Length", 0))
            state.payloads.append(json.loads(self.rfile.read(length) or b"{}"))
        try:
            if state.delay:
                time.sleep(state.delay)
            if index in state.hang_up_on:
                self.close_connection = True
                return
            if state.permanent_status is not None:
                self._send_empty(state.permanent_status)
                return
            if index <= state.fail_first:
                self._send_empty(state.fail_status)
                return
            if state.raw is not None:
                self.wfile.write(state.raw)
                return
            body = state.body
            if body is None:
                body = json.dumps({"choices": [{"message": {"content": state.reply}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        finally:
            with state.lock:
                state.active -= 1
            if state.close_silently:
                self.close_connection = True


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a client that gave up on a slow reply is expected here


class StubServer:
    def __init__(self, state: StubState, certfile=None):
        http11 = state.keep_alive or state.close_silently
        handler = type("Handler", (_Handler,), {
            "state": state,
            "protocol_version": "HTTP/1.1" if http11 else "HTTP/1.0",
        })
        self.server = _Server(("127.0.0.1", 0), handler)
        if certfile is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(certfile)
            self.server.socket = context.wrap_socket(self.server.socket, server_side=True)
        self.scheme = "http" if certfile is None else "https"
        self.state = state
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def base(self):
        host, port = self.server.server_address
        return f"{self.scheme}://{host}:{port}"

    @property
    def url(self):
        return f"{self.base}/v1/chat/completions"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
