"""Local chat-completions stub for the http-stub workload.

Answers every POST with a label derived from a SHA-256 of the prompt after
a fixed service delay, and counts requests and accepted TCP connections.
GET /stats returns the counts. Each response leaves in a single write with
Nagle off: a response split over two writes meets the client's delayed ACK
and costs about 40 ms per request.

Run: python3 stub.py   (prints the bound port, then serves)
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LABELS = ("happy", "sad", "neutral", "angry")
# Service time of every POST, in milliseconds.
DELAY_MS = 2.0


def answer(prompt: str) -> str:
    """The stub's label for a prompt."""
    return LABELS[hashlib.sha256(prompt.encode("utf-8")).digest()[0] % len(LABELS)]


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def bump(self, field: str) -> None:
        with self.lock:
            setattr(self, field, getattr(self, field) + 1)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.stats.bump("connections")

    def _reply(self, body: bytes) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        stats = self.server.stats
        with stats.lock:
            body = {"requests": stats.requests, "connections": stats.connections}
        self._reply(json.dumps(body).encode("utf-8"))

    def do_POST(self) -> None:
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.server.delay)
        label = answer(request["messages"][0]["content"])
        self.server.stats.bump("requests")
        self._reply(json.dumps({"choices": [{"message": {"content": label}}]}).encode("utf-8"))

    def log_message(self, format: str, *args) -> None:
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.delay = delay
        self.stats = Stats()


def main() -> None:
    server = StubServer(DELAY_MS / 1000.0)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
