"""Keep-alive HTTP/1.1 connections for `elicit`, on the standard library's sockets.

Only `elicitation.run_batch` imports this module, so the offline stages never
load it. It speaks HTTP/1.1 itself, on `socket`, and does not load the
standard library's HTTP client (with its `email` header parser). `ssl` is
imported on the first https connection and `urllib.request` only where a
proxy can apply (see `_proxy`), so an http route loads no OpenSSL: `ssl` is
the package's only import of it (`jsonlio` hashes without `hashlib`).

Each worker thread keeps one connection per endpoint (scheme, host and port).
`HTTP_PROXY`, `HTTPS_PROXY`, `ALL_PROXY` and `NO_PROXY` are honoured: an http
endpoint is reached through an http proxy with an absolute-form target, an
https endpoint through a CONNECT tunnel. TLS certificates and host names are
always verified against the default CA store. Redirects are not followed.

A request goes out in one send: its head, with the headers the standard
library's client writes, and its body. A reply may be HTTP/1.0 or HTTP/1.1;
interim 1xx replies are skipped, and the body is read chunked, by its
Content-Length, or until the server closes. A reply that breaks the framing
raises a `HTTPException` subclass named as that client names the failure,
with its limits: 64 KiB per status or header line and 100 headers.
"""
from __future__ import annotations

import base64
import json
import os
import select
import socket
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable
from urllib.parse import unquote, urlsplit

from . import __version__
from .errors import ConfigError

if TYPE_CHECKING:
    import ssl

HEADERS = {"Content-Type": "application/json", "User-Agent": f"elicitbench/{__version__}"}
DEFAULT_PORTS = {"http": 80, "https": 443}
MAX_LINE = 65536  # bytes of a status or header line, its line end included
MAX_HEADERS = 100


class HTTPException(Exception):
    """A reply that breaks HTTP/1.x framing; more than 100 headers raise this class itself."""


class BadStatusLine(HTTPException):
    pass


class UnknownProtocol(HTTPException):
    pass


class LineTooLong(HTTPException):
    pass


class IncompleteRead(HTTPException):
    pass


class RemoteDisconnected(ConnectionResetError, BadStatusLine):
    """The server closed the connection before the status line of its reply."""


@dataclass(frozen=True)
class Route:
    """How requests reach one endpoint URL: directly, or through a proxy."""

    endpoint: tuple[str, str, int]  # (scheme, ASCII host, port): one connection per worker each
    dial: tuple[str, int]  # where the socket connects: the endpoint's host or the proxy
    # The request line, with an origin-form target or, through an http proxy, an
    # absolute-form one; then the Host and Accept-Encoding headers.
    head: bytes
    headers: dict[str, str]  # added to each request (credentials of an http proxy)
    tunnel: bytes | None  # https through a proxy: the CONNECT request


def _proxy(scheme: str, host_port: str) -> str | None:
    """The proxy URL for `scheme` that does not bypass `host_port`, or None.

    Outside macOS and Windows, `getproxies` reads only the environment
    variables whose names end in `_proxy`, so `urllib.request` (and the
    libcrypto of its `hashlib`) is imported only when one is set.
    """
    if sys.platform != "darwin" and os.name != "nt" \
            and not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    proxy_url = proxies.get(scheme) or proxies.get("all")
    return None if not proxy_url or proxy_bypass(host_port) else proxy_url


def route_for(url: str) -> Route:
    """The route to `url` under HTTP_PROXY, HTTPS_PROXY, ALL_PROXY and NO_PROXY.

    Raises ConfigError for a `url` that is not http:// or https:// with a host
    and, if any, a valid port, that holds a space or a control character, or
    whose path or query is not ASCII; and for a proxy URL that is not
    http://host[:port].
    """
    try:
        parts = urlsplit(url)
        scheme, host = parts.scheme, parts.hostname
        port = DEFAULT_PORTS[scheme]  # KeyError: not http or https
        port = parts.port or port  # ValueError: a port that is not a number in range
        if host and not host.isascii():  # UnicodeError: not a host name
            host = host.encode("idna").decode("ascii")
    except (KeyError, ValueError):
        host = None
    if not host:
        raise ConfigError(
            f"endpoint_url must be an http:// or https:// URL with a host, got {url!r}"
        )
    # urlsplit drops tabs and line breaks, and strips spaces and control characters
    if any(c <= " " or c == "\x7f" for c in url):
        raise ConfigError(f"endpoint_url must not hold a space or a control character, "
                          f"got {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if not target.isascii():
        raise ConfigError(f"endpoint_url's path and query must be ASCII (percent-encode the "
                          f"rest), got {url!r}")
    name = f"[{host}]" if ":" in host else host  # an IPv6 literal
    host_header = name if port == DEFAULT_PORTS[scheme] else f"{name}:{port}"
    host_port = parts.netloc.rpartition("@")[2]
    proxy_url = _proxy(scheme, host_port)
    if proxy_url is None:
        return Route((scheme, host, port), (host, port), _head(target, host_header), {}, None)
    try:
        proxy = urlsplit(proxy_url if "://" in proxy_url else f"http://{proxy_url}")
        dial = (proxy.hostname, proxy.port or 80)
    except ValueError:  # a port that is not a number in range
        proxy = None
    if proxy is None or proxy.scheme != "http" or not proxy.hostname:
        raise ConfigError(f"{scheme} proxy {proxy_url!r}: expected http://host[:port]")
    auth = {}
    if proxy.username is not None:
        credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
        token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
        auth = {"Proxy-Authorization": f"Basic {token}"}
    if scheme == "https":
        tunnel = "".join(f"{k}: {v}\r\n" for k, v in auth.items())
        return Route((scheme, host, port), dial, _head(target, host_header), {},
                     f"CONNECT {name}:{port} HTTP/1.0\r\n{tunnel}\r\n".encode("latin-1"))
    if not host_port.isascii():
        host_port = host_header
    head = _head(f"http://{host_port}{target}", host_port)
    return Route((scheme, host, port), dial, head, auth, None)


def _head(target: str, host: str) -> bytes:
    return f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n".encode(
        "ascii")


def _dropped(sock: socket.socket) -> bool:
    """True when an idle connection is readable: the server closed it, or sent
    bytes that no request asked for. Either way it cannot carry a request."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class Connection:
    """One HTTP/1.1 connection to the endpoint of a route, opened by the first send.

    `sock` is None while it is closed. `timeout` bounds the connect and each
    read. `tls` gives the TLS context of an https endpoint.
    """

    def __init__(self, route: Route, tls: Callable[[], ssl.SSLContext]) -> None:
        self.route = route
        self.tls = tls
        self.timeout: float | None = None
        self.sock: socket.socket | None = None
        self._buffer = bytearray()  # received and not yet read

    def send(self, data: bytes) -> None:
        if self.sock is None:
            self._connect()
        self.sock.sendall(data)

    def _connect(self) -> None:
        self.sock = socket.create_connection(self.route.dial, self.timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # a platform without TCP_NODELAY
            pass
        scheme, host, _ = self.route.endpoint
        if self.route.tunnel is not None:
            self.sock.sendall(self.route.tunnel)
            if self._status_line()[1] != 200:
                raise OSError("Tunnel connection failed")
            self._header_lines()
        if scheme == "https":
            self.sock = self.tls().wrap_socket(self.sock, server_hostname=host)

    def reply(self) -> tuple[int, bytes]:
        """(status, body) of the reply to the request sent. The connection
        is closed when the reply says so, or ends where the server closed it."""
        status = 100
        while 100 <= status < 200:  # interim replies
            version, status = self._status_line()
            headers = self._header_lines()
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            will_close = "keep-alive" not in connection and "keep-alive" not in headers
        else:
            will_close = "close" in connection
        if status in (204, 304):
            body = b""
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            body = self._chunked()
        else:
            try:
                length = int(headers["content-length"])
            except (KeyError, ValueError):
                length = -1
            if length < 0:
                body, will_close = self._until_closed(), True
            else:
                body = self._exactly(length)
        if will_close or self._buffer:  # the buffer holds bytes no request asked for
            self.close()
        return status, body

    def _fill(self) -> bool:
        """Receive more bytes into the buffer; False when the server has closed."""
        data = self.sock.recv(65536)
        self._buffer += data
        return bool(data)

    def _line(self, what: str) -> bytes:
        """The next line with its line end, or the bytes left when the server closed."""
        buffer, start = self._buffer, 0
        while (end := buffer.find(b"\n", start)) < 0:
            if len(buffer) > MAX_LINE:
                raise LineTooLong(what)
            start = len(buffer)
            if not self._fill():
                end = len(buffer) - 1
                break
        if end >= MAX_LINE:
            raise LineTooLong(what)
        line = bytes(buffer[:end + 1])
        del buffer[:end + 1]
        return line

    def _exactly(self, size: int) -> bytes:
        while len(self._buffer) < size:
            if not self._fill():
                raise IncompleteRead(bytes(self._buffer))
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def _until_closed(self) -> bytes:
        while self._fill():
            pass
        data = bytes(self._buffer)
        self._buffer.clear()
        return data

    def _status_line(self) -> tuple[str, int]:
        line = self._line("status line")
        if not line:
            raise RemoteDisconnected("Remote end closed connection without response")
        words = line.decode("latin-1").split(None, 2)
        version = words[0] if words else ""
        code = words[1] if len(words) > 1 else ""
        if not (version.startswith("HTTP/") and len(code) == 3 and code.isascii()
                and code.isdigit() and code[0] != "0"):
            raise BadStatusLine(repr(line))
        if not version.startswith("HTTP/1."):
            raise UnknownProtocol(version)
        return version, int(code)

    def _header_lines(self) -> dict[str, str]:
        """The reply's headers by lower-case name; the first of a repeated name counts."""
        headers: dict[str, str] = {}
        count = 0
        while (line := self._line("header line")) not in (b"\r\n", b"\n", b""):
            count += 1
            if count > MAX_HEADERS:
                raise HTTPException(f"got more than {MAX_HEADERS} headers")
            name, colon, value = line.decode("latin-1").partition(":")
            if colon:
                headers.setdefault(name.strip().lower(), value.strip())
        return headers

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._line("chunk size")
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise IncompleteRead(b"".join(chunks))
            if size == 0:
                break
            chunks.append(self._exactly(size))
            self._exactly(2)  # the line end after the chunk
        while self._line("trailer line") not in (b"\r\n", b"\n", b""):
            pass
        return b"".join(chunks)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self._buffer.clear()


class Connections:
    """Keep-alive connections to endpoint URLs: one per worker thread and endpoint.

    The routes are worked out when this is made, so a bad endpoint URL or
    proxy setting is a ConfigError, naming its model, before any request.
    Each response is read whole before its connection carries the next
    request. A connection that the server closed while idle is reopened
    before it is used. If sending on a reused connection fails, the server
    had closed it and got no whole request, so the request is sent once more
    on a new one. A connection lost while waiting for the reply raises: the
    server may have taken the request, so the caller counts an attempt. One
    TLS context is made, for the first https connection. `close` closes
    every connection.
    """

    def __init__(self, endpoints: Iterable[tuple[str, str]]) -> None:
        """`endpoints`: (model id, endpoint URL) pairs."""
        self._routes: dict[str, Route] = {}
        for model_id, url in endpoints:
            try:
                self._routes[url] = route_for(url)
            except ConfigError as exc:
                raise ConfigError(f"{model_id}: {exc}") from None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: list[Connection] = []
        self._tls: ssl.SSLContext | None = None

    def _tls_context(self) -> ssl.SSLContext:
        with self._lock:
            if self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
            return self._tls

    def _connection(self, route: Route, timeout: float) -> Connection:
        mine = vars(self._local).setdefault("by_endpoint", {})
        conn = mine.get(route.endpoint)
        if conn is None:
            conn = mine[route.endpoint] = Connection(route, self._tls_context)
            with self._lock:
                self._opened.append(conn)
        if conn.timeout != timeout:  # bounds the connect and each read
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        return conn

    def post(self, url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, bytes]:
        """(status, body) of one POST of `payload` as JSON.

        Raises OSError or HTTPException.
        """
        route = self._routes[url]
        conn = self._connection(route, timeout)
        body = json.dumps(payload).encode("utf-8")
        fields = {"Content-Length": len(body), **HEADERS, **headers, **route.headers}
        request = b"".join((route.head, "".join(f"{k}: {v}\r\n" for k, v in fields.items())
                            .encode("latin-1"), b"\r\n", body))
        if conn.sock is not None and _dropped(conn.sock):
            conn.close()
        reused = conn.sock is not None
        try:
            try:
                conn.send(request)
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                conn.close()
                conn.send(request)
            return conn.reply()
        except BaseException:
            conn.close()
            raise

    def close(self) -> None:
        with self._lock:
            for conn in self._opened:
                conn.close()
