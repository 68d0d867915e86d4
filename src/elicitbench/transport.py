"""Keep-alive HTTP(S) connections for `elicit`, on the standard library.

Only `elicitation.run_batch` imports this module, so the offline stages never
load `http.client`, `ssl` or `urllib.request`. Its `ssl` is the only import
of OpenSSL in the package (`jsonlio` hashes without `hashlib`), so only
`elicit` loads OpenSSL, the TLS it needs.

Each worker thread keeps one connection per endpoint (scheme, host and port).
`HTTP_PROXY`, `HTTPS_PROXY`, `ALL_PROXY` and `NO_PROXY` are honoured: an http
endpoint is reached through an http proxy with an absolute-form target, an
https endpoint through a CONNECT tunnel. TLS certificates and host names are
always verified against the default CA store. Redirects are not followed.
"""
from __future__ import annotations

import base64
import http.client
import json
import select
import socket
import ssl
import threading
from dataclasses import dataclass
from typing import Iterable
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from . import __version__
from .errors import ConfigError

HEADERS = {"Content-Type": "application/json", "User-Agent": f"elicitbench/{__version__}"}
DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass(frozen=True)
class Route:
    """How requests reach one endpoint URL: directly, or through a proxy."""

    endpoint: tuple[str, str, int]  # (scheme, host, port): one connection per worker each
    dial: tuple[str, int]  # where the socket connects: the endpoint's host or the proxy
    target: str  # origin-form, or absolute-form through an http proxy
    headers: dict[str, str]  # added to each request (credentials of an http proxy)
    tunnel_headers: dict[str, str] | None  # https through a proxy: CONNECT headers


def route_for(url: str) -> Route:
    """The route to `url` under HTTP_PROXY, HTTPS_PROXY, ALL_PROXY and NO_PROXY.

    Raises ConfigError for a `url` that is not http:// or https:// with a host
    and, if any, a valid port, and for a proxy URL that is not http://host[:port].
    """
    try:
        parts = urlsplit(url)
        scheme, host = parts.scheme, parts.hostname
        port = DEFAULT_PORTS[scheme]  # KeyError: not http or https
        port = parts.port or port  # ValueError: a port that is not a number in range
    except (KeyError, ValueError):
        host = None
    if not host:
        raise ConfigError(
            f"endpoint_url must be an http:// or https:// URL with a host, got {url!r}"
        )
    host_port = parts.netloc.rpartition("@")[2]
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    proxies = getproxies()
    proxy_url = proxies.get(scheme) or proxies.get("all")
    if not proxy_url or proxy_bypass(host_port):
        return Route((scheme, host, port), (host, port), target, {}, None)
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
        return Route((scheme, host, port), dial, target, {}, auth)
    return Route((scheme, host, port), dial, f"http://{host_port}{target}", auth, None)


def _dropped(sock: socket.socket) -> bool:
    """True when an idle connection is readable: the server closed it, or sent
    bytes that no request asked for. Either way it cannot carry a request."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


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
        self._opened: list[http.client.HTTPConnection] = []
        self._tls: ssl.SSLContext | None = None

    def _connection(self, route: Route, timeout: float) -> http.client.HTTPConnection:
        mine = vars(self._local).setdefault("by_endpoint", {})
        conn = mine.get(route.endpoint)
        if conn is None:
            scheme, host, port = route.endpoint
            if scheme == "https":
                with self._lock:
                    if self._tls is None:
                        self._tls = ssl.create_default_context()
                conn = http.client.HTTPSConnection(*route.dial, context=self._tls)
                if route.tunnel_headers is not None:
                    conn.set_tunnel(host, port, headers=route.tunnel_headers)
            else:
                conn = http.client.HTTPConnection(*route.dial)
            with self._lock:
                self._opened.append(conn)
            mine[route.endpoint] = conn
        if conn.timeout != timeout:  # bounds the connect and each read
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        return conn

    def post(self, url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, bytes]:
        """(status, body) of one POST of `payload` as JSON.

        Raises OSError or http.client.HTTPException.
        """
        route = self._routes[url]
        conn = self._connection(route, timeout)
        body = json.dumps(payload).encode("utf-8")
        headers = {**HEADERS, **headers, **route.headers}
        if conn.sock is not None and _dropped(conn.sock):
            conn.close()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", route.target, body, headers)
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                conn.close()
                conn.request("POST", route.target, body, headers)
            response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            conn.close()
            raise

    def close(self) -> None:
        with self._lock:
            for conn in self._opened:
                conn.close()
