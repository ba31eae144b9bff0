"""HTTP/1.1 over one keep-alive socket: the wire of ``llm.HttpBackend``.

The backend imports this module when a thread opens its first connection,
so a run that the cache answers loads neither it nor ``http.client``.
``http.client`` opens each connection, proxy tunnel and TLS included;
``Connection`` frames the requests and the replies on it.
"""

from __future__ import annotations

import functools
import http.client
import io
import re
import socket
import time
import weakref
from typing import TYPE_CHECKING, BinaryIO
from urllib.parse import SplitResult, urlsplit
from urllib.request import getproxies, proxy_bypass

if TYPE_CHECKING:
    import ssl

_DIGITS_RE = re.compile(r"[0-9]+")
_HEX_RE = re.compile(rb"[0-9A-Fa-f]+")
_STATUS_RE = re.compile(rb"[1-9][0-9][0-9]")
_CONTROL_RE = re.compile(r"[\x00-\x20\x7f]")
# Limits http.client keeps on a reply: bytes per line, and header lines per head.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# The largest reply body read, under any framing; a completion of max_tokens is far smaller.
_MAX_BODY = 4 << 20


class Connection:
    """One keep-alive HTTP/1.1 connection (RFC 9112) that POSTs to ``url``,
    the endpoint as given. ``host`` and ``target`` are its ``Host`` header
    and request target, and ``headers`` the ones after ``Content-Length``,
    in order; the caller has checked them for control characters.

    Making one reads the proxy from the environment (``http_proxy``,
    ``https_proxy``, ``all_proxy``, ``no_proxy``) and builds the request
    head and the ``http.client`` opener; it sends nothing. An ``http``
    endpoint behind a proxy is requested from it by absolute URL, an
    ``https`` one through a CONNECT tunnel, and TLS is verified against the
    system CA store. A malformed proxy variable is a ValueError. The socket
    is opened by the first ``post`` and closed when the connection is
    collected.

    Each request leaves in one ``sendall`` and each reply is read from one
    buffered reader that lasts as long as the socket. A reply line may hold
    65,536 bytes and a head 100 header lines, the limits ``http.client``
    keeps. Interim ``1xx`` replies are skipped. The body is framed by
    chunked coding, by ``Content-Length``, or by the close of the
    connection, and may hold ``_MAX_BODY`` bytes under each. The connection
    is closed after ``Connection: close``, after a reply that is not
    HTTP/1.1 and after a body that ends at the close.

    An exchange must end within ``timeout`` seconds of its start: each send
    and each read on the socket waits only for the time left. Opening the
    connection, tunnel and TLS handshake included, is left to
    ``http.client``, whose ``timeout`` bounds each of its socket operations.
    A failed exchange raises OSError, TimeoutError when the time ran out, or
    ValueError for a framing error or a body over the cap.
    """

    def __init__(self, url: str, host: str, target: str, headers: dict[str, str], timeout: float):
        endpoint = urlsplit(url)
        address = (endpoint.hostname, endpoint.port)
        tunnel = None
        proxies = getproxies()
        proxy = proxies.get(endpoint.scheme) or proxies.get("all")
        if proxy and not proxy_bypass(endpoint.netloc):
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise ValueError(f"proxy {proxy!r} is not an http URL")
            if endpoint.scheme == "http":
                target = endpoint._replace(fragment="").geturl()
                if _CONTROL_RE.search(target):
                    raise ValueError(f"endpoint {url!r} or its headers hold a control character")
                headers = {**headers, **_proxy_auth(proxy_url)}
            else:
                tunnel = (*address, _proxy_auth(proxy_url))
            address = (proxy_url.hostname, proxy_url.port)
        # Every request is _head, the body's length, _tail and the body, in the header order http.client used.
        head = f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\nContent-Length: "
        self._head = head.encode("latin-1")
        self._tail = "".join(f"\r\n{name}: {value}" for name, value in headers.items()).encode("latin-1") + b"\r\n\r\n"
        if endpoint.scheme == "https":
            self._opener = http.client.HTTPSConnection(*address, timeout=timeout, context=_tls_context())
        else:
            self._opener = http.client.HTTPConnection(*address, timeout=timeout)
        if tunnel is not None:
            self._opener.set_tunnel(*tunnel)
        weakref.finalize(self, self._opener.close)
        self._timeout = timeout
        self._socket: _Socket | None = None
        self._reader: BinaryIO | None = None  # the open socket's reader

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = self._socket = None
        self._opener.close()

    def post(self, body: bytes) -> tuple[int, dict[str, str], bytes]:
        """POST body and read the final reply: its status, its headers by
        lower-case name, and its body.

        A connection left open by an earlier request may have been closed by
        the server while idle; it then ends before any reply byte arrives,
        and is reopened and the request sent once more, at once and not
        counted as an attempt.
        """
        message = b"%s%d%s%s" % (self._head, len(body), self._tail, body)
        deadline = time.monotonic() + self._timeout
        reused = self._reader is not None
        try:
            started = self._send(message, deadline)
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            started = b""
        if not started and reused:
            self.close()
            started = self._send(message, deadline)
        if not started:
            raise ConnectionResetError("server closed the connection without a reply")
        reader = self._reader
        while True:
            version, status = _status_line(_read_line(reader))
            headers = _read_headers(reader)
            if status >= 200:
                break
        keep_alive = version == b"HTTP/1.1" and "close" not in _tokens(headers.get("connection", ""))
        coding = headers.get("transfer-encoding")
        length = headers.get("content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None and _tokens(coding)[-1:] == ["chunked"]:
            body = _read_chunked(reader)
            keep_alive = keep_alive and length is None  # both framings at once (RFC 9112 section 6.3)
        elif coding is None and length is not None:
            lengths = set(_tokens(length))
            if len(lengths) != 1 or not _DIGITS_RE.fullmatch(size := lengths.pop()):
                raise ValueError(f"invalid Content-Length {length!r}")
            if int(size) > _MAX_BODY:
                raise ValueError(f"Content-Length {size} is over the {_MAX_BODY}-byte body cap")
            body = _read_exactly(reader, int(size))
        else:
            body = reader.read(_MAX_BODY + 1)
            if len(body) > _MAX_BODY:
                raise ValueError(f"body that ends at the close is over the {_MAX_BODY}-byte cap")
            keep_alive = False
        if not keep_alive:
            self.close()
        return status, headers, body

    def _send(self, message: bytes, deadline: float) -> bytes:
        """Send message, opening the connection first if it is closed; the
        start of the reply, empty when the server closed the connection."""
        if self._reader is None:
            try:
                self._opener.connect()
            except http.client.HTTPException as exc:  # a malformed reply from a proxy to CONNECT
                raise ConnectionError(exc) from exc
            self._socket = _Socket(self._opener.sock)
            self._reader = io.BufferedReader(self._socket)
        self._socket.deadline = deadline
        self._socket.sendall(message)
        return self._reader.peek(1)


class _Socket(io.RawIOBase):
    """The raw stream under a connection's reader: every send and read on
    the socket waits only for the time left before ``deadline``, a
    ``time.monotonic()`` value."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.deadline = 0.0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(self._left())
        return self._sock.recv_into(buffer)

    def sendall(self, data: bytes) -> None:
        self._sock.settimeout(self._left())
        self._sock.sendall(data)

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the exchange ran past its timeout")
        return left


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ValueError("connection closed inside the reply head")
    return line


def _status_line(line: bytes) -> tuple[bytes, int]:
    """The version and status code of a reply's status line."""
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/") or not _STATUS_RE.fullmatch(parts[1]):
        raise ValueError(f"malformed status line {line[:80]!r}")
    return parts[0], int(parts[1])


def _read_headers(reader: BinaryIO) -> dict[str, str]:
    """A header or trailer section, up to its blank line: values by lower-case
    name, a repeated name's values joined by ", " and folded lines unfolded."""
    headers: dict[str, str] = {}
    name = None
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        if line[:1] in (b" ", b"\t") and name is not None:
            headers[name] += " " + line.strip().decode("latin-1")
            continue
        field, colon, value = line.decode("latin-1").partition(":")
        name = field.strip().lower()
        if not colon or not name:
            raise ValueError(f"malformed header line {line[:80]!r}")
        value = value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise ValueError(f"more than {_MAX_HEADERS} header lines")


def _read_chunked(reader: BinaryIO) -> bytes:
    chunks, total = [], 0
    while True:
        field = _read_line(reader).split(b";", 1)[0].strip()
        if not _HEX_RE.fullmatch(field):
            raise ValueError(f"malformed chunk size {field[:80]!r}")
        size = int(field, 16)
        if not size:
            break
        total += size
        if total > _MAX_BODY:
            raise ValueError(f"chunked body is over the {_MAX_BODY}-byte cap")
        chunk = _read_exactly(reader, size + 2)
        if chunk[-2:] != b"\r\n":
            raise ValueError("chunk does not end in CRLF")
        chunks.append(chunk[:-2])
    _read_headers(reader)  # the trailer section
    return b"".join(chunks)


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    # size is at most _MAX_BODY + 2, so one read allocates no more than that
    data = reader.read(size)
    if len(data) != size:
        raise ValueError(f"connection closed after {len(data)} of {size} body bytes")
    return data


def _tokens(value: str) -> list[str]:
    """The lower-case items of a comma-separated header value."""
    return [token.strip().lower() for token in value.split(",")]


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """The client TLS context of every connection in the process: loading the
    system CA store takes tens of milliseconds, so it is built once."""
    import ssl

    return ssl.create_default_context()


def _proxy_auth(proxy_url: SplitResult) -> dict[str, str]:
    """The Proxy-Authorization header for a proxy URL's credentials, if it has any."""
    if proxy_url.username is None:
        return {}
    import base64
    from urllib.parse import unquote

    credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")}
