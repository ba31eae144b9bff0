"""Annotator backends: HTTP chat-completion client, deterministic mock,
response-label normalization, content-addressed caching, retry policy, and
the request fan-out shared by every batch pass.

Requests are fingerprinted by a SHA-256 over (model, prompt, temperature,
max_tokens), and every request is sent at ``TEMPERATURE``. The cache is one
append-only JSON-lines log per directory that maps each fingerprint to the
backend's raw response text, so interrupted batch runs resume without
repeating calls; the run that scores a reply derives its label from the raw
text. A line that does not decode, or whose ``raw_text`` is not a string, is
skipped and its request recomputed.

Wire format (HTTP backend): a chat-completions POST body
``{"model": ..., "messages": [{"role": "user", "content": prompt}],
"temperature": 0.0, "max_tokens": ...}`` whose response carries the text at
``choices[0].message.content``. The API key is read from TEXTEMO_API_KEY,
falling back to OPENAI_API_KEY.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
import weakref
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence, TypeVar
from urllib.parse import urlsplit

from . import BACKEND_MOCK, DEFAULT_ENDPOINT, AuthError, BackendError, log
from .metrics import EVAL_LABELS

# The order MockBackend indexes by hash: changing it changes every mock prediction.
MOCK_LABEL_ORDER = ("happy", "sad", "neutral", "angry")

API_KEY_ENV_VARS = ("TEXTEMO_API_KEY", "OPENAI_API_KEY")

# The sampling temperature of every request: both LLM steps, selection and annotation, are greedy.
TEMPERATURE = 0.0

_LABEL_RE = re.compile(rf"\b({'|'.join(EVAL_LABELS)})\b")
_PUNCT_RE = re.compile(r"[^a-z0-9']+")
_CONTROL_RE = re.compile(r"[\x00-\x20\x7f]")

# The canonical spelling that fingerprints hash: sorted keys, no spaces, ASCII only.
_FINGERPRINT_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True, separators=(",", ":"))
# A cache line's spelling; the log is UTF-8, so text is not escaped to ASCII.
_CACHE_LINE_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)

T = TypeVar("T")
R = TypeVar("R")


class TransportError(BackendError):
    """Network, server or rate-limit failure for a single attempt; retried
    after ``retry_after`` seconds when a 429 named a delay, else with backoff."""

    def __init__(self, message: str, fingerprint: str | None = None, retry_after: float | None = None):
        super().__init__(message, fingerprint)
        self.retry_after = retry_after


class BadRequest(BackendError):
    """A 4xx response that repeating the same request cannot fix; never retried."""


class BackendExhausted(BackendError):
    """All retry attempts failed."""


class CompletionRequest:
    """One annotator call, identified by a content hash of its fields,
    computed once. It is read-only, so the hash cannot go stale."""

    __slots__ = ("model", "prompt", "max_tokens", "_fingerprint")

    def __init__(self, model: str, prompt: str, max_tokens: int = 16):
        for name, value in (("model", model), ("prompt", prompt), ("max_tokens", max_tokens)):
            object.__setattr__(self, name, value)
        # the canonical JSON of the three fields and TEMPERATURE, with the prompt spelled in its place
        head, tail = _fingerprint_frame(model, max_tokens)
        payload = head + encode_basestring_ascii(prompt) + tail
        object.__setattr__(self, "_fingerprint", hashlib.sha256(payload.encode("ascii")).hexdigest())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CompletionRequest is read-only: cannot set {name!r}")

    @property
    def fingerprint(self) -> str:
        return self._fingerprint


@lru_cache(maxsize=64)
def _fingerprint_frame(model: str, max_tokens: int) -> tuple[str, str]:
    """What a fingerprint payload holds before and after its prompt's JSON string."""
    fields = {"model": model, "prompt": "", "temperature": TEMPERATURE, "max_tokens": max_tokens}
    head, tail = _FINGERPRINT_ENCODER.encode(fields).split('"prompt":""')
    return head + '"prompt":', tail


class Completion(NamedTuple):
    """The raw response to a CompletionRequest, and whether the cache answered it."""

    raw_text: str
    from_cache: bool


class Backend(Protocol):
    """An annotator: one raw response text per request, or a BackendError."""

    def send(self, request: CompletionRequest) -> str: ...


def normalize_label(raw: str) -> str | None:
    """Extract a prediction label from a model response.

    Case-folds, strips punctuation, and scans for the four labels as whole
    words; the first occurrence by text position wins. Returns None when no
    label is present.
    """
    cleaned = _PUNCT_RE.sub(" ", raw.casefold())
    match = _LABEL_RE.search(cleaned)
    return match.group(1) if match else None


class RetryPolicy(NamedTuple):
    """Exponential backoff with full jitter: uniform(0, 2**(n-1)) seconds
    after failed attempt n.

    A delay the server asks for (Retry-After) is used instead, capped at
    2**(attempts-1) seconds.
    """

    attempts: int = 5
    sleep: Callable[[float], None] = time.sleep

    def delay(self, attempt: int, retry_after: float | None = None) -> float:
        if retry_after is not None:
            return min(retry_after, 2.0 ** (self.attempts - 1))
        return random.uniform(0.0, 2.0 ** (attempt - 1))


DEFAULT_RETRY = RetryPolicy()


class MockBackend:
    """Deterministic stand-in for the HTTP backend.

    Every request gets a label chosen uniformly from the prediction set by
    hashing (seed, fingerprint), so runs are identical across processes.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def send(self, request: CompletionRequest) -> str:
        digest = hashlib.sha256(f"{self.seed}:{request.fingerprint}".encode("utf-8")).digest()
        return MOCK_LABEL_ORDER[digest[0] % len(MOCK_LABEL_ORDER)]


class HttpBackend:
    """Chat-completions client that speaks HTTP/1.1 over keep-alive sockets.

    This class keeps the chat-completions contract: the API key, the
    endpoint checks, the JSON body, the status mapping and the content
    check. Building one checks the API key and the endpoint and nothing
    more. Each thread makes its own ``httpclient.Connection`` on its first
    request that the cache does not answer, and the first one in the process
    loads ``textemo.httpclient`` and with it ``http.client``, ``ssl`` and
    ``urllib.request``. The connection reads the proxy, makes the request
    head and keeps one socket to the endpoint or to its proxy; each exchange
    on it must end within ``timeout`` seconds. It closes when its thread
    ends or when the backend is collected.
    """

    def __init__(self, endpoint: str = DEFAULT_ENDPOINT, api_key: str | None = None, timeout: float = 60.0):
        if api_key is None:
            for var in API_KEY_ENV_VARS:
                api_key = os.environ.get(var)
                if api_key:
                    break
        if not api_key:
            raise AuthError(f"no API key found in {' or '.join(API_KEY_ENV_VARS)}")
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http or https URL")
        url.port  # a malformed port is a ValueError here, not on the first request
        self.endpoint = endpoint
        self._headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        # the whole URL that a request line can carry: user info too, in an absolute-form request to a proxy
        request_url = url._replace(fragment="").geturl()
        if _CONTROL_RE.search(request_url) or any("\r" in v or "\n" in v for v in self._headers.values()):
            raise ValueError(f"endpoint {endpoint!r} or its headers hold a control character")
        self._timeout = timeout
        self._local = threading.local()  # this thread's connection, as conn

    def send(self, request: CompletionRequest) -> str:
        body = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": TEMPERATURE,
            "max_tokens": request.max_tokens,
        }
        payload = json.dumps(body).encode("utf-8")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            from .httpclient import Connection

            conn = self._local.conn = Connection(self.endpoint, self._headers, self._timeout)
        try:
            status, headers, data = conn.post(payload)
        except (OSError, ValueError) as exc:
            conn.close()
            raise TransportError(f"request failed: {exc}", request.fingerprint) from exc
        if status in (401, 403):
            raise AuthError(f"authentication rejected (HTTP {status})", request.fingerprint)
        if status == 429:
            retry_after = headers.get("retry-after", "").strip()
            # the delta-seconds form (RFC 9110 section 10.2.3); the HTTP-date form is not honoured
            delay = float(retry_after) if retry_after.isascii() and retry_after.isdigit() else None
            raise TransportError("rate limited (HTTP 429)", request.fingerprint, retry_after=delay)
        if status != 200:
            text = data.decode("utf-8", "replace")[:200]
            if 400 <= status < 500 and status != 408:
                raise BadRequest(f"request rejected (HTTP {status}): {text}", request.fingerprint)
            raise TransportError(f"unexpected HTTP {status}: {text}", request.fingerprint)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not str")
            content.encode("utf-8")  # a lone surrogate, decoded from a "\ud800" escape, cannot be cached
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise TransportError(f"malformed response body: {exc}", request.fingerprint) from exc
        return content


def make_backend(kind: str, mock_seed: int, endpoint: str) -> Backend:
    """The backend named by ``kind``, one of BACKEND_KINDS."""
    return MockBackend(seed=mock_seed) if kind == BACKEND_MOCK else HttpBackend(endpoint=endpoint)


class CompletionCache:
    """Persisted map of request fingerprint -> raw response text: an
    append-only log in ``<directory>/completions.jsonl``, one
    ``{"fingerprint": …, "raw_text": …}`` line per store.

    The log is read once when the cache opens; a line that does not decode,
    or whose ``raw_text`` is not a string, is logged and skipped, so its
    request is a miss. Other keys on a line are ignored. The first store
    makes the directory and opens the log for appending, and the descriptor
    stays open until the cache is collected. When the log then ends in a
    torn line, one that an interrupted store left without its newline, the
    first store starts on a new line. Each store appends its line in one write and updates
    the in-memory map, so later lookups in the same process hit. Other
    processes see it when they next open the log.
    Threads sharing the cache take a fingerprint's lock before sending it,
    so one of them sends it and the others wait for its answer; the lock
    lasts until the fingerprint is answered, and a hit takes none. Without a
    directory, the map lives in memory only and ``path`` is None.
    """

    def __init__(self, directory: str | Path | None):
        self._entries: dict[str, str] = {}
        self._locks: dict[str, threading.Lock] = {}  # unanswered fingerprint -> the lock its sender holds
        self._fd: int | None = None  # the log's append descriptor, opened by the first store
        self._append_lock = threading.Lock()
        self.path: Path | None = None if directory is None else Path(directory) / "completions.jsonl"
        if self.path is None:
            return
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return
        for lineno, line in enumerate(blob.splitlines(), start=1):
            try:
                data = json.loads(line.decode("utf-8"))
                raw_text = data["raw_text"]
                if not isinstance(raw_text, str):
                    raise TypeError(f"raw_text is {type(raw_text).__name__}, not str")
                self._entries[data["fingerprint"]] = raw_text
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                log(__name__, "warning", "corrupt cache line %s:%d skipped: %r", self.path, lineno, exc)

    def load(self, fingerprint: str) -> str | None:
        """The cached raw text, or None on a miss."""
        return self._entries.get(fingerprint)

    def store(self, fingerprint: str, raw_text: str) -> None:
        if self.path is not None:
            self._append({"fingerprint": fingerprint, "raw_text": raw_text})
        self._entries[fingerprint] = raw_text

    def _append(self, entry: dict) -> None:
        data = (_CACHE_LINE_ENCODER.encode(entry) + "\n").encode("utf-8")
        with self._append_lock:
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                flags = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)
                self._fd = os.open(self.path, flags, 0o666)
                weakref.finalize(self, os.close, self._fd)
                # a store cut off mid-line left a torn last line: end it, or this line would join it
                if os.lseek(self._fd, 0, os.SEEK_END) > 0:
                    os.lseek(self._fd, -1, os.SEEK_END)
                    if os.read(self._fd, 1) != b"\n":
                        data = b"\n" + data
            os.write(self._fd, data)


def complete(
    request: CompletionRequest,
    backend: Backend,
    cache: CompletionCache | None = None,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> Completion:
    """Resolve a request through the cache, then the backend with retries.

    A TransportError, a 429 included, is retried with exponential backoff,
    and BackendExhausted is raised once the attempt budget is spent; any
    other BackendError, such as AuthError or BadRequest, propagates after one
    attempt. Successful responses are cached before return, without a cache
    in a map for this call alone. A hit takes no lock. A miss takes the
    fingerprint's lock and looks up again, so one thread at a time sends it:
    a duplicate request waits and then hits, or, when the first one failed,
    tries for itself. Once answered, the fingerprint's lock leaves the map.
    """
    fp = request.fingerprint
    if cache is None:
        cache = CompletionCache(None)
    raw = cache.load(fp)
    if raw is not None:
        return Completion(raw_text=raw, from_cache=True)
    with cache._locks.setdefault(fp, threading.Lock()):  # atomic: a str key has no Python-level __eq__
        raw = cache.load(fp)
        from_cache = raw is not None
        if not from_cache:
            raw = _send_with_retries(request, fp, backend, retry)
            cache.store(fp, raw)
        cache._locks.pop(fp, None)
    return Completion(raw_text=raw, from_cache=from_cache)


def _send_with_retries(request: CompletionRequest, fp: str, backend: Backend, retry: RetryPolicy) -> str:
    last_error: BackendError | None = None
    for attempt in range(1, retry.attempts + 1):
        try:
            raw = backend.send(request)
        except TransportError as exc:
            last_error = exc
            log(__name__, "warning", "attempt %d/%d failed: %s", attempt, retry.attempts, exc)
            if attempt < retry.attempts:
                retry.sleep(retry.delay(attempt, exc.retry_after))
            continue
        return raw
    raise BackendExhausted(f"gave up after {retry.attempts} attempts: {last_error}", fp)


def fan_out(fn: Callable[[T], R], items: Sequence[T], concurrency: int) -> list[R | BackendError]:
    """fn over items on up to ``concurrency`` worker threads, results in input order.

    Each worker thread takes the next index from a shared iterator and writes
    its result into that slot. A BackendError takes its item's place in the
    result. AuthError, which every other request would repeat, and any other
    exception stop the workers from starting new items; once the running ones
    finish, the failure of the lowest-index item propagates. An exception in
    the caller while it waits, such as an interrupt, stops them the same way.
    """
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    indices = iter(range(len(items)))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                if isinstance(exc, BackendError) and not isinstance(exc, AuthError):
                    results[i] = exc
                else:  # raised again on the calling thread
                    failures[i] = exc
                    stop.set()

    threads = [threading.Thread(target=work) for _ in range(min(concurrency, len(items)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
    if failures:
        raise failures[min(failures)]
    return results
