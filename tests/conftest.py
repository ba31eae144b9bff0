from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from textemo.corpus import build_corpus, record_from_object

_ACCEPTANCE_OUTCOMES: dict[str, str] = {}
_ACCEPTANCE_RE = re.compile(r"test_acceptance\.py::(test_c\d+\w*)")


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_RE.search(report.nodeid)
    if not match:
        return
    name = match.group(1)
    if report.when == "call" or (report.when == "setup" and report.skipped):
        outcome = report.outcome.upper()
        if name not in _ACCEPTANCE_OUTCOMES or outcome == "FAILED":
            _ACCEPTANCE_OUTCOMES[name] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_OUTCOMES):
        outcome = _ACCEPTANCE_OUTCOMES[name]
        terminalreporter.write_line(f"{outcome:<8} {name}")

# The canonical sample entry used throughout the tests: one training-set
# utterance with a reference transcription and all eleven ASR outputs.
SAMPLE_ENTRY = {
    "need_prediction": "yes",
    "emotion": "sad",
    "id": "Ses01F_script01_3_M023",
    "speaker": "Ses01_M",
    "Ground truth": "Yeah. I suppose I have been. But it's going from me.",
    "hubertlarge": "ya i suppose i have been bht's going from me",
    "w2v2100": "a i suppose i have been but's going from me",
    "w2v2960": "oh i suppose i have been let's going from me",
    "w2v2960large": "now i suppose i have been bat's going from me",
    "w2v2960largeself": "ar i suppose i have been but's going from me",
    "wavlmplus": "a i spose a habben was going for m",
    "whisperbase": "Yeah",
    "whisperlarge": "Yeah",
    "whispermedium": "Yeah",
    "whispersmall": "Yeah",
    "whispertiny": "Yeah",
}


@pytest.fixture
def sample_entry() -> dict:
    return dict(SAMPLE_ENTRY)


@pytest.fixture
def sample_record(sample_entry):
    return record_from_object(sample_entry, 0)


@pytest.fixture
def sample_corpus_file(tmp_path, sample_entry) -> Path:
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([sample_entry]), encoding="utf-8")
    return path


def make_entry(
    id: str,
    text: str = "well i think so",
    emotion: str | None = "neutral",
    need_prediction: str = "no",
    ground_truth: str | None = None,
    models: dict[str, str] | None = None,
) -> dict:
    """Minimal corpus object for hand-built test corpora."""
    obj: dict = {"need_prediction": need_prediction, "id": id}
    if emotion is not None:
        obj["emotion"] = emotion
    if ground_truth is not None:
        obj["Ground truth"] = ground_truth
    obj.update(models or {"whispertiny": text, "hubertlarge": text + " yes"})
    return obj


@pytest.fixture
def worked_example_corpus():
    """Two consecutive scripts of one conversation: script 04 with 20
    utterances, then script 05 with 3; the third utterance of script 05 is
    the prediction target from the context-window walkthrough."""
    objects = []
    for i in range(20):
        sex = "FM"[i % 2]
        objects.append(make_entry(f"Ses01Z_04_{sex}{i:03d}", text=f"utterance four {i}"))
    for i in range(3):
        sex = "FM"[i % 2]
        objects.append(make_entry(f"Ses01Z_05_{sex}{i:03d}", text=f"utterance five {i}"))
    return build_corpus(objects)


PROXY_ENV_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


def chat_body(content) -> dict:
    """A chat-completions response body carrying ``content``."""
    return {"choices": [{"message": {"content": content}}]}


@dataclass
class Reply:
    """One scripted response. ``close`` drops the connection after it
    without a ``Connection: close`` header, as a server dropping an idle
    keep-alive connection does. ``raw``, when set, is sent as it is in place
    of a response built from ``status``, ``body`` and ``headers``; with
    ``drip``, its body, the part after its head, follows the head one byte
    every ``drip`` seconds, until the client hangs up."""

    status: int = 200
    body: object = field(default_factory=lambda: chat_body("sad"))
    headers: dict = field(default_factory=dict)
    delay: float = 0.0
    close: bool = False
    raw: bytes | None = None
    drip: float = 0.0


@dataclass
class Received:
    """One request as the server read it."""

    method: str
    target: str  # as on the request line: a path, or an absolute URL when sent to a proxy
    url: str  # the absolute URL the client asked for
    headers: object  # http.client.HTTPMessage, case-insensitive
    body: object  # the decoded JSON body


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: LoopbackServer

    def setup(self) -> None:
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_CONNECT(self) -> None:
        """Record a tunnel request and refuse it, since the server speaks no
        TLS: with a 502, or with the scripted reply's ``raw`` bytes."""
        reply = self.server.record(Received(self.command, self.path, self.path, self.headers, None))
        if reply.raw is not None:
            self.wfile.write(reply.raw)
        else:
            self.send_response(502)
            self.send_header("Content-Length", "0")
            self.end_headers()
        self.close_connection = True

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        url = self.path if "://" in self.path else f"http://{self.headers['Host']}{self.path}"
        reply = self.server.record(Received(self.command, self.path, url, self.headers, json.loads(raw)))
        time.sleep(reply.delay)
        if reply.raw is not None and reply.drip:
            head, blank, body = reply.raw.partition(b"\r\n\r\n")
            try:
                self.wfile.write(head + blank)
                for i in range(len(body)):
                    time.sleep(reply.drip)
                    self.wfile.write(body[i : i + 1])
            except OSError:  # the client gave up
                self.close_connection = True
                return
        elif reply.raw is not None:
            self.wfile.write(reply.raw)
        else:
            body = (reply.body if isinstance(reply.body, str) else json.dumps(reply.body)).encode("utf-8")
            self.send_response(reply.status)
            for name, value in reply.headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        self.close_connection = reply.close

    def log_message(self, format: str, *args) -> None:
        pass


class LoopbackServer(ThreadingHTTPServer):
    """A chat-completions server on 127.0.0.1 that answers each POST with the
    next scripted Reply, or with ``default`` once the script runs out, and
    records every request it reads."""

    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.default = Reply()
        self.replies: deque[Reply] = deque()
        self.received: list[Received] = []
        self.connections = 0  # accepted TCP connections
        self.lock = threading.Lock()

    def url(self, path: str = "/v1/chat") -> str:
        return f"http://127.0.0.1:{self.server_address[1]}{path}"

    def script(self, *replies: Reply, default: Reply | None = None) -> None:
        self.replies.extend(replies)
        if default is not None:
            self.default = default

    def record(self, received: Received) -> Reply:
        with self.lock:
            self.received.append(received)
            return self.replies.popleft() if self.replies else self.default


@pytest.fixture
def loopback(monkeypatch):
    """A running LoopbackServer, with the proxy environment cleared and an API key set."""
    for var in PROXY_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    monkeypatch.setenv("TEXTEMO_API_KEY", "test-key")
    server = LoopbackServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
