from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import random
import re
import socket
import struct
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from textemo.httpclient import _MAX_BODY
from textemo.llm import (
    AuthError,
    BackendExhausted,
    BadRequest,
    CompletionCache,
    CompletionRequest,
    MockBackend,
    RetryPolicy,
    TransportError,
    complete,
    fan_out,
    normalize_label,
)

from conftest import PROXY_ENV_VARS, Reply, ScriptedBackend, chat_body

SAD = json.dumps(chat_body("sad")).encode("utf-8")

# Computed once from the canonical JSON of this exact request; must never
# drift across runs or platforms.
PINNED_FINGERPRINT = "99c47ba85b8818943f4d72244a9522ce21301bcb0fdd00dd39b2427c8904be7d"


def fixture_request(prompt: str = "hello") -> CompletionRequest:
    return CompletionRequest(model="gpt-3.5-turbo", prompt=prompt, max_tokens=16)


class FlakyBackend:
    """Fails a fixed number of times, then answers."""

    def __init__(self, failures: int, exc_type=TransportError, answer: str = "sad"):
        self.remaining = failures
        self.exc_type = exc_type
        self.answer = answer
        self.calls = 0

    def send(self, request: CompletionRequest) -> str:
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc_type("boom", request.fingerprint)
        return self.answer


def no_sleep_policy(attempts: int = 5) -> RetryPolicy:
    return RetryPolicy(attempts=attempts, sleep=lambda _s: None)


class TestFingerprint:
    def test_pinned_value(self):
        assert fixture_request().fingerprint == PINNED_FINGERPRINT

    def test_identical_requests_collide(self):
        assert fixture_request().fingerprint == fixture_request().fingerprint

    def test_any_field_changes_it(self):
        base = fixture_request().fingerprint
        assert CompletionRequest(model="other", prompt="hello").fingerprint != base
        assert fixture_request("hello!").fingerprint != base
        assert CompletionRequest(model="gpt-3.5-turbo", prompt="hello", max_tokens=32).fingerprint != base

    def test_shape(self):
        fp = fixture_request().fingerprint
        assert len(fp) == 64
        assert all(c in "0123456789abcdef" for c in fp)

    def test_a_field_cannot_be_set(self):
        request = fixture_request()
        with pytest.raises(AttributeError, match="CompletionRequest is read-only: cannot set 'prompt'"):
            request.prompt = "changed"
        assert request.prompt == "hello" and request.fingerprint == PINNED_FINGERPRINT

    @pytest.mark.parametrize(
        "prompt",
        ["hello", "", "émotion 情绪", 'say "hi"', "back\\slash", "tab\tnl\ncr\r\x00\x1f\x7f", "line\u2028sep", "lone \ud800"],
        ids=["ascii", "empty", "non-ascii", "quote", "backslash", "controls", "u2028", "lone-surrogate"],
    )
    @pytest.mark.parametrize("temperature", [0.0])
    @pytest.mark.parametrize("model, max_tokens", [("gpt-3.5-turbo", 16), ('m"odèl\\', 128)])
    def test_is_the_sha256_of_the_canonical_json(self, prompt, temperature, model, max_tokens):
        """The cache and the run log are keyed by these bytes, so they may never drift; every
        request is sent at llm.TEMPERATURE, spelled as the float 0.0."""
        fields = {"model": model, "prompt": prompt, "temperature": temperature, "max_tokens": max_tokens}
        payload = json.dumps(fields, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
        request = CompletionRequest(model=model, prompt=prompt, max_tokens=max_tokens)
        assert request.fingerprint == hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestNormalizeLabel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Sad", "sad"),
            ("The emotion is angry.", "angry"),
            ("I cannot determine this.", None),
            ("happy or sad", "happy"),
            ("NEUTRAL!", "neutral"),
            ("unhappy", None),  # whole word only
            ("sadness", None),
            ("  angry  ", "angry"),
            ("", None),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_label(raw) == expected

    @given(st.text(max_size=60))
    def test_idempotent(self, raw):
        once = normalize_label(raw)
        assert normalize_label(once or "") == once


class TestMockBackend:
    def test_deterministic_per_seed_and_fingerprint(self):
        request = fixture_request()
        assert MockBackend(seed=3).send(request) == MockBackend(seed=3).send(request)

    def test_seed_changes_stream(self):
        requests = [fixture_request(f"p{i}") for i in range(64)]
        a = [MockBackend(seed=0).send(r) for r in requests]
        b = [MockBackend(seed=1).send(r) for r in requests]
        assert a != b

    def test_uniform_label_balance(self):
        # 4000 distinct fingerprints: each label lands in [0.20, 0.30]
        backend = MockBackend(seed=0)
        counts = Counter(backend.send(CompletionRequest(model="m", prompt=f"p{i}")) for i in range(4000))
        assert set(counts) == {"happy", "sad", "neutral", "angry"}
        for label, count in counts.items():
            assert 0.20 <= count / 4000 <= 0.30, label


# What an interrupted store leaves: the start of a line, without its newline.
TORN_LINE = f'{{"fingerprint": "{PINNED_FINGERPRINT}", "raw_text": "ha'


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        cache.store("ab" * 32, "Sad.")
        assert cache.load("ab" * 32) == "Sad."
        assert CompletionCache(tmp_path / "cache").load("ab" * 32) == "Sad."

    def test_miss_returns_none(self, tmp_path):
        assert CompletionCache(tmp_path).load("00" * 32) is None

    def test_without_a_directory_the_map_is_in_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = CompletionCache(None)
        request = fixture_request()
        backend = FlakyBackend(failures=0)
        first, second = (complete(request, backend, cache=cache) for _ in range(2))
        assert (first.from_cache, second.from_cache, backend.calls) == (False, True, 1)
        assert cache.path is None and list(tmp_path.iterdir()) == []

    def test_complete_uses_cache(self, tmp_path):
        cache = CompletionCache(tmp_path)
        request = fixture_request()
        backend = ScriptedBackend({request.fingerprint: "neutral"})
        first = complete(request, backend, cache=cache)
        second = complete(request, backend, cache=cache)
        assert first.from_cache is False
        assert second.from_cache is True
        assert second.raw_text == first.raw_text

    def test_cached_result_wins_over_backend_change(self, tmp_path):
        cache = CompletionCache(tmp_path)
        request = fixture_request()
        complete(request, ScriptedBackend({request.fingerprint: "happy"}), cache=cache)
        answer = complete(request, ScriptedBackend({request.fingerprint: "angry"}), cache=cache)
        assert answer.raw_text == "happy"

    @pytest.mark.parametrize(
        "blob",
        [
            '{"raw_text": ',
            '{"normalized_label": "sad"}',
            "[1, 2]",
            "\udcff",
            pytest.param('"sad"', id="bare-string"),
            pytest.param("7", id="bare-number"),
            pytest.param(f'{{"fingerprint": "{PINNED_FINGERPRINT}", "raw_text": "sad\udcff"}}', id="entry-not-utf8"),
            pytest.param(f'{{"fingerprint": "{PINNED_FINGERPRINT}", "raw_text": 5}}', id="raw-text-number"),
            pytest.param(f'{{"fingerprint": "{PINNED_FINGERPRINT}", "raw_text": null}}', id="raw-text-null"),
            pytest.param(f'{{"fingerprint": "{PINNED_FINGERPRINT}", "raw_text": ["sad"]}}', id="raw-text-list"),
            pytest.param(TORN_LINE, id="torn-last-line"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        ],
    )
    def test_corrupt_entry_is_a_miss_and_overwritten(self, tmp_path, caplog, blob):
        request = fixture_request()
        backend = ScriptedBackend({request.fingerprint: "sad"})
        torn = blob == TORN_LINE
        line = blob if torn else blob + "\n"
        (tmp_path / "completions.jsonl").write_bytes(line.encode("utf-8", errors="surrogateescape"))
        with caplog.at_level("WARNING"):
            cache = CompletionCache(tmp_path)
        assert any("corrupt cache line" in message for message in caplog.messages)
        assert cache.load(request.fingerprint) is None
        assert complete(request, backend, cache=cache).from_cache is False
        assert cache.load(request.fingerprint) == "sad"
        # The store after a torn line starts a line of its own, so the next open hits.
        assert complete(request, backend, cache=CompletionCache(tmp_path)).from_cache is True
        assert CompletionCache(tmp_path).load(request.fingerprint) == "sad"

    def test_a_store_after_a_cut_tail_is_read_back(self, tmp_path):
        requests = [fixture_request(f"p{n}") for n in range(3)]
        cache = CompletionCache(tmp_path)
        for request in requests:
            complete(request, MockBackend(), cache=cache)
        del cache
        log = tmp_path / "completions.jsonl"
        log.write_bytes(log.read_bytes()[:-20])  # what a run killed mid-store leaves
        sent = []
        for _ in range(2):
            backend, cache = FlakyBackend(failures=0), CompletionCache(tmp_path)
            for request in requests:
                complete(request, backend, cache=cache)
            sent.append(backend.calls)
        assert sent == [1, 0]

    def test_parent_format_line_is_a_hit_with_a_derived_label(self, tmp_path):
        request = fixture_request()
        line = {
            "attempt_count": 1,
            "fingerprint": request.fingerprint,
            "latency_ms": 3,
            "normalized_label": "joy",
            "raw_text": "Sad.",
        }
        (tmp_path / "completions.jsonl").write_text(json.dumps(line) + "\n", encoding="utf-8")
        backend = ScriptedBackend({request.fingerprint: "angry"})
        completion = complete(request, backend, cache=CompletionCache(tmp_path))
        assert (completion.raw_text, normalize_label(completion.raw_text), completion.from_cache) == ("Sad.", "sad", True)

    def test_store_writes_only_the_entry_files(self, tmp_path):
        cache = CompletionCache(tmp_path)
        cache.store("aa" * 32, "x")
        cache.store("bb" * 32, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["completions.jsonl"]
        lines = (tmp_path / "completions.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [
            {"fingerprint": "aa" * 32, "raw_text": "x"},
            {"fingerprint": "bb" * 32, "raw_text": "x"},
        ]

    @pytest.mark.parametrize("raw_text", ["sad", "émotion 情绪", 'a "quote" and \\', "nl\n\x00\u2028"])
    def test_a_line_is_the_canonical_json_of_its_entry(self, tmp_path, raw_text):
        CompletionCache(tmp_path).store("aa" * 32, raw_text)
        entry = {"fingerprint": "aa" * 32, "raw_text": raw_text}
        expected = json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n"
        assert (tmp_path / "completions.jsonl").read_bytes() == expected.encode("utf-8")

    def test_log_is_opened_once_on_the_first_store(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open

        def counted_open(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counted_open)
        cache = CompletionCache(tmp_path)
        assert not cache.path.exists() and opened == []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:  # eight threads race to make the first store
            fan_out(lambda n: cache.store(f"{n:064x}", "sad"), range(64), concurrency=8)
        finally:
            sys.setswitchinterval(interval)
        assert opened == [cache.path]
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["fingerprint"] for line in lines) == [f"{n:064x}" for n in range(64)]

    def test_caches_sharing_a_directory_append_to_one_log(self, tmp_path):
        first, second = CompletionCache(tmp_path), CompletionCache(tmp_path)
        first.store("aa" * 32, "happy")
        second.store("bb" * 32, "sad")
        assert second.load("aa" * 32) is None  # the log is read only when a cache opens
        third = CompletionCache(tmp_path)
        assert (third.load("aa" * 32), third.load("bb" * 32)) == ("happy", "sad")

    def test_concurrent_stores_keep_every_line(self, tmp_path, caplog):
        cache = CompletionCache(tmp_path)
        requests = [fixture_request(f"prompt {n} " + "x" * n * 50) for n in range(200)]
        fan_out(lambda request: complete(request, MockBackend(), cache=cache), requests, concurrency=4)
        with caplog.at_level("WARNING"):
            reopened = CompletionCache(tmp_path)
        assert not caplog.messages
        assert all(reopened.load(request.fingerprint) is not None for request in requests)

    def test_each_fingerprint_is_sent_once_at_any_thread_count(self, tmp_path):
        class SlowBackend:
            def __init__(self):
                self.sent: list[str] = []

            def send(self, request):
                self.sent.append(request.fingerprint)
                time.sleep(0.05)
                return "sad"

        backend, cache = SlowBackend(), CompletionCache(tmp_path)
        requests = [fixture_request(f"prompt {n % 5}") for n in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            completions = fan_out(lambda request: complete(request, backend, cache=cache), requests, concurrency=8)
        finally:
            sys.setswitchinterval(interval)
        distinct = {request.fingerprint for request in requests}
        assert Counter(backend.sent) == {fp: 1 for fp in distinct}
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["fingerprint"] for line in lines) == sorted(distinct)
        assert sum(not completion.from_cache for completion in completions) == len(distinct)

    def test_a_duplicate_retries_when_the_first_request_fails(self, tmp_path):
        class FailsFirst:
            def __init__(self):
                self.calls = 0

            def send(self, request):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(0.05)
                    raise BadRequest("rejected", request.fingerprint)
                return "sad"

        backend, cache = FailsFirst(), CompletionCache(tmp_path)
        results = fan_out(lambda request: complete(request, backend, cache=cache), [fixture_request()] * 2, 2)
        assert sorted(type(result).__name__ for result in results) == ["BadRequest", "Completion"]
        assert backend.calls == 2
        assert len(cache.path.read_text(encoding="utf-8").splitlines()) == 1

    def test_a_fingerprint_holds_no_lock_once_answered(self):
        cache = CompletionCache(None)
        requests = [fixture_request(f"prompt {n % 5}") for n in range(40)]
        fan_out(lambda request: complete(request, MockBackend(), cache=cache), requests, concurrency=8)
        assert cache._locks == {}
        # the first of two duplicates fails, and the second sends it again
        backend = FlakyBackend(failures=1, exc_type=BadRequest)
        results = fan_out(lambda request: complete(request, backend, cache=cache), [fixture_request()] * 2, 2)
        assert sorted(type(result).__name__ for result in results) == ["BadRequest", "Completion"]
        assert cache._locks == {}

    def test_a_hit_takes_no_lock(self, tmp_path):
        class NoLocks(dict):
            def setdefault(self, key, default=None):
                raise AssertionError(f"a lock was taken for {key}")

        requests = [fixture_request(f"prompt {n}") for n in range(20)]
        cache = CompletionCache(tmp_path)
        fan_out(lambda request: complete(request, MockBackend(), cache=cache), requests, concurrency=4)
        for warm in (cache, CompletionCache(tmp_path)):
            warm._locks = NoLocks()
            completions = fan_out(lambda request: complete(request, MockBackend(), cache=warm), requests, concurrency=4)
            assert all(completion.from_cache for completion in completions)

    def test_leftover_entry_file_is_ignored(self, tmp_path):
        request = fixture_request()
        leftover = tmp_path / f"{request.fingerprint}.json"
        leftover.write_text(json.dumps({"fingerprint": request.fingerprint, "raw_text": "happy"}), encoding="utf-8")
        cache = CompletionCache(tmp_path)
        assert cache.load(request.fingerprint) is None
        assert complete(request, ScriptedBackend({request.fingerprint: "sad"}), cache=cache).raw_text == "sad"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["completions.jsonl", leftover.name])


class TestFanOut:
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_input_order_with_backend_errors_in_place(self, concurrency):
        def square(n):
            if n % 3 == 0:
                raise TransportError(f"item {n}")
            return n * n

        results = fan_out(square, list(range(20)), concurrency)
        for n, result in enumerate(results):
            if n % 3 == 0:
                assert isinstance(result, TransportError) and str(result) == f"item {n}"
            else:
                assert result == n * n

    @pytest.mark.parametrize("exc_type", [AuthError, TypeError])
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_auth_and_other_errors_propagate_and_stop_the_batch(self, exc_type, concurrency):
        started = []

        def fail(n):
            started.append(n)
            time.sleep(0.002)
            raise exc_type(f"item {n}")

        with pytest.raises(exc_type, match="item 0"):
            fan_out(fail, list(range(50)), concurrency)
        assert (started == [0]) if concurrency == 1 else (len(started) < 50)

    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_the_lowest_index_failure_propagates(self, concurrency):
        def fail_first_two(n):
            if n == 0:
                time.sleep(0.02)
            if n < 2:
                raise AuthError(f"item {n}")
            return n

        with pytest.raises(AuthError, match="item 0"):
            fan_out(fail_first_two, list(range(8)), concurrency)

    @pytest.mark.parametrize("concurrency", [2, 3])
    def test_at_most_concurrency_threads_call_fn(self, concurrency):
        idents = set()

        def record(n):
            idents.add(threading.get_ident())
            time.sleep(0.001)
            return n

        assert fan_out(record, list(range(40)), concurrency) == list(range(40))
        assert 1 <= len(idents) <= concurrency

    def test_concurrency_one_runs_every_item_on_one_worker_thread_in_input_order(self):
        order = []

        def record(n):
            order.append(n)
            return threading.get_ident()

        idents = fan_out(record, list(range(5)), 1)
        assert order == list(range(5))
        assert len(set(idents)) == 1 and idents[0] != threading.get_ident()

    def test_every_item_runs_once_under_contention(self):
        calls = Counter()

        def count(n):
            calls[n] += 1
            return -n

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:  # more threads than cores race for the next index
            results = fan_out(count, list(range(3000)), 8)
        finally:
            sys.setswitchinterval(interval)
        assert results == [-n for n in range(3000)]
        assert calls == Counter(range(3000))

    def test_an_interrupt_while_waiting_stops_new_items(self, monkeypatch):
        join = threading.Thread.join
        joins = []

        def interrupted_join(thread, timeout=None):
            if threading.current_thread() is threading.main_thread() and not joins:
                joins.append(thread)
                raise KeyboardInterrupt  # what Ctrl-C does while the caller waits
            return join(thread, timeout)

        started = []  # the thread that started each item
        release = threading.Event()

        def held(n):
            started.append(threading.current_thread())
            release.wait(10)  # no worker takes a second item before the caller has stopped them
            return n

        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            fan_out(held, list(range(200)), 2)
        release.set()
        for worker in set(started):
            join(worker, 10)
            assert not worker.is_alive()
        assert len(started) < 200


class TestRetry:
    def test_auth_error_not_retried(self):
        class DenyBackend:
            calls = 0

            def send(self, request):
                DenyBackend.calls += 1
                raise AuthError("denied", request.fingerprint)

        with pytest.raises(AuthError):
            complete(fixture_request(), DenyBackend(), retry=no_sleep_policy())
        assert DenyBackend.calls == 1

    def test_transport_errors_recovered(self):
        backend = FlakyBackend(failures=2)
        completion = complete(fixture_request(), backend, retry=no_sleep_policy())
        assert completion.raw_text == "sad"
        assert backend.calls == 3

    def test_exhaustion_after_max_attempts(self):
        backend = FlakyBackend(failures=99)
        with pytest.raises(BackendExhausted) as excinfo:
            complete(fixture_request(), backend, retry=no_sleep_policy(attempts=5))
        assert backend.calls == 5
        assert excinfo.value.fingerprint == fixture_request().fingerprint

    def test_rate_limit_also_retries(self):
        backend = FlakyBackend(failures=1, exc_type=functools.partial(TransportError, retry_after=2.0), answer="angry")
        sleeps: list[float] = []
        completion = complete(fixture_request(), backend, retry=RetryPolicy(sleep=sleeps.append))
        assert completion.raw_text == "angry"
        assert sleeps == [2.0]

    def test_backoff_delays_grow_exponentially(self):
        sleeps: list[float] = []
        policy = RetryPolicy(attempts=5, sleep=sleeps.append)
        backend = FlakyBackend(failures=99)
        with pytest.raises(BackendExhausted):
            complete(fixture_request(), backend, retry=policy)
        assert len(sleeps) == 4  # no sleep after the final attempt
        for n, delay in enumerate(sleeps, start=1):
            assert 0.0 <= delay <= 1.0 * 2.0 ** (n - 1)

    def test_default_policy_seeds_no_generator(self, monkeypatch):
        seeds = []
        real_seed = random.Random.seed

        def counted_seed(self, *args, **kwargs):
            seeds.append(args)
            return real_seed(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, "seed", counted_seed)
        completion = complete(fixture_request(), FlakyBackend(failures=0))
        assert completion.raw_text == "sad"
        assert seeds == []

    def test_exhaustion_names_fingerprint_in_message(self):
        backend = FlakyBackend(failures=99)
        with pytest.raises(BackendExhausted, match=fixture_request().fingerprint):
            complete(fixture_request(), backend, retry=no_sleep_policy())


class TestHttpBackend:
    def test_missing_api_key(self, monkeypatch):
        from textemo.llm import HttpBackend

        for var in ("TEXTEMO_API_KEY", "OPENAI_API_KEY"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(AuthError):
            HttpBackend()

    def test_wire_format_and_parsing(self, loopback):
        from textemo.llm import HttpBackend

        endpoint = loopback.url("/v1/chat")
        backend = HttpBackend(endpoint=endpoint, api_key="k")
        request = fixture_request("what emotion?")
        assert backend.send(request) == "sad"
        (received,) = loopback.received
        assert (received.method, received.url) == ("POST", endpoint)
        assert received.body == {
            "model": "gpt-3.5-turbo",
            "messages": [{"role": "user", "content": "what emotion?"}],
            "temperature": 0.0,
            "max_tokens": 16,
        }
        assert received.headers["Authorization"] == "Bearer k"
        assert received.headers["Content-Type"] == "application/json"

    @pytest.mark.parametrize(
        "status,exc",
        [
            (401, AuthError),
            (403, AuthError),
            (429, TransportError),
            (500, TransportError),
            (400, BadRequest),
            (404, BadRequest),
            (422, BadRequest),
        ],
    )
    def test_status_mapping(self, loopback, status, exc):
        from textemo.llm import HttpBackend

        loopback.script(default=Reply(status, body="nope"))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(exc):
            backend.send(fixture_request())

    @pytest.mark.parametrize("content", [None, 7, ["sad"]])
    def test_non_string_content_is_a_malformed_body(self, loopback, tmp_path, content):
        from textemo.llm import HttpBackend

        loopback.script(default=Reply(body=chat_body(content)))
        cache = CompletionCache(tmp_path)
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(BackendExhausted, match="malformed response body: content is"):
            complete(fixture_request(), backend, cache=cache, retry=no_sleep_policy(attempts=2))
        assert not cache.path.exists()

    def test_body_nested_too_deeply_is_a_malformed_body(self, loopback, tmp_path):
        from textemo.llm import HttpBackend

        loopback.script(default=Reply(body="[" * 200_000 + "]" * 200_000))
        cache = CompletionCache(tmp_path)
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(BackendExhausted, match="malformed response body: maximum recursion depth"):
            complete(fixture_request(), backend, cache=cache, retry=no_sleep_policy(attempts=2))
        assert len(loopback.received) == 2
        assert not cache.path.exists()

    @pytest.mark.parametrize("status,posts", [(400, 1), (404, 1), (422, 1), (408, 5), (500, 5), (503, 5)])
    def test_client_errors_posted_once(self, loopback, status, posts):
        from textemo.llm import HttpBackend

        loopback.script(default=Reply(status, body="nope"))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(BadRequest if posts == 1 else BackendExhausted):
            complete(fixture_request(), backend, retry=no_sleep_policy(attempts=5))
        assert len(loopback.received) == posts

    def test_endpoint_must_be_an_http_url(self):
        from textemo.llm import HttpBackend

        with pytest.raises(ValueError, match="not an http or https URL"):
            HttpBackend(endpoint="ftp://example.test/v1/chat", api_key="k")

    def test_line_break_in_a_header_value_is_refused(self, loopback):
        from textemo.llm import HttpBackend

        with pytest.raises(ValueError, match="control character"):
            HttpBackend(endpoint=loopback.url(), api_key="k\r\nX-Injected: 1")
        assert loopback.received == []

    def test_refused_connection_is_a_transport_error(self, loopback):
        from textemo.llm import HttpBackend

        endpoint = loopback.url()
        loopback.shutdown()
        loopback.server_close()  # nothing listens on the port any more
        backend = HttpBackend(endpoint=endpoint, api_key="k")
        with pytest.raises(BackendExhausted, match="request failed"):
            complete(fixture_request(), backend, retry=no_sleep_policy(attempts=2))

    def test_one_keep_alive_connection_per_thread(self, loopback):
        from textemo.llm import HttpBackend

        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        assert [backend.send(fixture_request(f"p{n}")) for n in range(5)] == ["sad"] * 5
        assert loopback.connections == 1
        results = fan_out(backend.send, [fixture_request(f"q{n}") for n in range(30)], concurrency=3)
        assert results == ["sad"] * 30
        assert 2 <= loopback.connections <= 4  # the main thread's, plus one per worker thread

    def test_connection_dropped_while_idle_is_reopened_without_an_attempt(self, loopback, caplog):
        from textemo.llm import HttpBackend

        loopback.script(default=Reply(close=True))  # no Connection: close header
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        sleeps: list[float] = []
        policy = RetryPolicy(sleep=sleeps.append)
        with caplog.at_level("WARNING"):
            completions = [complete(fixture_request(f"p{n}"), backend, retry=policy) for n in range(6)]
        assert [c.raw_text for c in completions] == ["sad"] * 6
        assert len(loopback.received) == 6
        assert loopback.connections == 6
        assert sleeps == []
        assert not [m for m in caplog.messages if "attempt" in m]

    def test_retry_after_delta_seconds_is_slept(self, loopback):
        from textemo.llm import HttpBackend

        loopback.script(Reply(429, body="slow down", headers={"Retry-After": "3"}))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(TransportError, match="rate limited") as excinfo:
            backend.send(fixture_request())
        assert excinfo.value.retry_after == 3.0
        loopback.script(Reply(429, body="slow down", headers={"Retry-After": "3"}))
        sleeps: list[float] = []
        completion = complete(fixture_request(), backend, retry=RetryPolicy(sleep=sleeps.append))
        assert completion.raw_text == "sad"
        assert sleeps == [3.0]

    def test_retry_after_is_capped_at_the_largest_backoff(self, loopback):
        from textemo.llm import HttpBackend

        loopback.script(Reply(429, headers={"Retry-After": "3600"}))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        sleeps: list[float] = []
        policy = RetryPolicy(attempts=3, sleep=sleeps.append)
        assert complete(fixture_request(), backend, retry=policy).raw_text == "sad"
        assert sleeps == [4.0]

    def test_retry_after_http_date_falls_back_to_backoff(self, loopback):
        from textemo.llm import HttpBackend

        loopback.script(Reply(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        sleeps: list[float] = []
        assert complete(fixture_request(), backend, retry=RetryPolicy(sleep=sleeps.append)).raw_text == "sad"
        assert len(sleeps) == 1 and 0.0 <= sleeps[0] <= 1.0

    def test_http_proxy_receives_the_absolute_url(self, loopback, monkeypatch):
        from textemo.llm import HttpBackend

        monkeypatch.setenv("HTTP_PROXY", loopback.url("").replace("://", "://user:p%40ss@"))
        endpoint = "http://api.example.invalid/v1/chat?x=1"
        assert HttpBackend(endpoint=endpoint, api_key="k").send(fixture_request()) == "sad"
        (received,) = loopback.received
        assert received.target == endpoint
        assert received.headers["Host"] == "api.example.invalid"
        assert received.headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_https_endpoint_behind_a_proxy_is_tunnelled(self, loopback, monkeypatch):
        from textemo.llm import HttpBackend

        monkeypatch.setenv("HTTPS_PROXY", loopback.url(""))
        backend = HttpBackend(endpoint="https://api.example.invalid/v1/chat", api_key="k")
        with pytest.raises(TransportError, match="request failed"):
            backend.send(fixture_request())  # the loopback server refuses the tunnel
        (received,) = loopback.received
        assert (received.method, received.target) == ("CONNECT", "api.example.invalid:443")

    def test_no_proxy_bypasses_the_proxy(self, loopback, monkeypatch):
        from textemo.llm import HttpBackend

        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
        assert HttpBackend(endpoint=loopback.url(), api_key="k").send(fixture_request()) == "sad"
        (received,) = loopback.received
        assert received.target == "/v1/chat"

    def test_control_character_in_the_url_sent_to_a_proxy_is_an_error(self, loopback, monkeypatch):
        from textemo.llm import HttpBackend

        monkeypatch.setenv("HTTP_PROXY", loopback.url(""))
        endpoint = "http://us\x01er@api.example.invalid/v1/chat"  # the host and the path are clean
        with pytest.raises(ValueError, match=re.escape(f"endpoint {endpoint!r} or its headers hold a control character")):
            HttpBackend(endpoint=endpoint, api_key="k")
        assert loopback.received == []

    def test_a_malformed_reply_to_connect_is_a_transport_error(self, loopback, monkeypatch):
        import http.client

        from textemo.llm import HttpBackend

        monkeypatch.setenv("HTTPS_PROXY", loopback.url(""))
        loopback.script(Reply(raw=b"not http\r\n\r\n"))
        backend = HttpBackend(endpoint="https://api.example.invalid/v1/chat", api_key="k")
        with pytest.raises(TransportError, match="request failed: not http") as excinfo:
            backend.send(fixture_request())
        assert isinstance(excinfo.value.__cause__.__cause__, http.client.HTTPException)
        (received,) = loopback.received
        assert received.method == "CONNECT"

    def test_backends_share_one_tls_context(self, loopback, monkeypatch):
        import ssl

        from textemo import httpclient
        from textemo.llm import HttpBackend

        built = []
        create_default_context = ssl.create_default_context

        def counted(*args, **kwargs):
            built.append(create_default_context(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ssl, "create_default_context", counted)
        httpclient._tls_context.cache_clear()
        monkeypatch.setenv("HTTPS_PROXY", loopback.url(""))
        for _ in range(3):
            backend = HttpBackend(endpoint="https://api.example.invalid/v1/chat", api_key="k")
            with pytest.raises(TransportError, match="request failed"):
                backend.send(fixture_request())  # the loopback server refuses the tunnel
        assert len(loopback.received) == 3
        assert len(built) == 1

    def test_a_finished_fan_out_closes_its_connections(self, loopback, monkeypatch):
        from textemo.llm import HttpBackend

        opened = []
        create_connection = socket.create_connection

        def recorded(*args, **kwargs):
            opened.append(create_connection(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", recorded)
        loopback.script(default=Reply(delay=0.002))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        for batch in range(2):
            requests = [fixture_request(f"{batch}-{n}") for n in range(8)]
            assert fan_out(backend.send, requests, concurrency=2) == ["sad"] * 8
        assert 2 <= len(opened) <= 4  # one per worker thread of each fan-out
        assert [sock.fileno() for sock in opened] == [-1] * len(opened)

    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_a_kept_connection_that_fails_to_send_is_reopened_without_an_attempt(
        self, loopback, monkeypatch, caplog, error
    ):
        from textemo import httpclient
        from textemo.llm import HttpBackend

        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        assert backend.send(fixture_request("first")) == "sad"
        sendall = httpclient._Socket.sendall
        errors = [error("the server reset the idle connection")]

        def fail_once(sock, data):
            if errors:
                raise errors.pop()
            sendall(sock, data)

        monkeypatch.setattr(httpclient._Socket, "sendall", fail_once)
        sleeps: list[float] = []
        with caplog.at_level("WARNING"):
            completion = complete(fixture_request("second"), backend, retry=RetryPolicy(sleep=sleeps.append))
        assert completion.raw_text == "sad"
        assert (len(loopback.received), loopback.connections) == (2, 2)
        assert sleeps == [] and not caplog.messages

    def test_a_new_connection_closed_without_a_reply_is_a_transport_error(self, loopback):
        from textemo.llm import HttpBackend

        loopback.script(Reply(raw=b"", close=True))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(TransportError, match="server closed the connection without a reply"):
            backend.send(fixture_request())
        assert backend.send(fixture_request()) == "sad"  # on a new connection
        assert (len(loopback.received), loopback.connections) == (2, 2)

    def test_a_new_connection_that_is_reset_costs_an_attempt(self, monkeypatch, caplog):
        from textemo.llm import HttpBackend

        for var in PROXY_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
            monkeypatch.delenv(var.upper(), raising=False)
        # a listener that resets each connection it accepts, with a RST and no reply
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.02)
        resets: list[int] = []
        done = threading.Event()

        def reset_each() -> None:
            while not done.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                conn.close()
                resets.append(1)

        thread = threading.Thread(target=reset_each, daemon=True)
        thread.start()
        try:
            backend = HttpBackend(endpoint=f"http://127.0.0.1:{listener.getsockname()[1]}/v1/chat", api_key="k")
            with caplog.at_level("WARNING"):
                with pytest.raises(BackendExhausted, match=r"gave up after 2 attempts: request failed: \[Errno"):
                    complete(fixture_request(), backend, retry=no_sleep_policy(2))
        finally:
            done.set()
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()
        # unlike a kept connection dropped while idle, it is not sent again at once
        assert len(resets) == 2
        assert [m.partition(": ")[0] for m in caplog.messages] == ["attempt 1/2 failed", "attempt 2/2 failed"]

    def test_request_head_is_the_one_http_client_sent(self, loopback):
        from textemo.llm import HttpBackend

        HttpBackend(endpoint=loopback.url(), api_key="k").send(fixture_request())
        (received,) = loopback.received
        length = str(len(json.dumps(received.body)))
        assert received.headers.items() == [
            ("Host", f"127.0.0.1:{loopback.server_address[1]}"),
            ("Accept-Encoding", "identity"),
            ("Content-Length", length),
            ("Authorization", "Bearer k"),
            ("Content-Type", "application/json"),
        ]

    def test_each_request_is_one_write(self, loopback, monkeypatch):
        from textemo.llm import HttpBackend

        port = loopback.server_address[1]
        writes = []
        for name in ("send", "sendall"):
            real = getattr(socket.socket, name)

            def counted(sock, *args, _real=real, _name=name):
                if sock.getpeername()[1] == port:  # the client's end, not the server's
                    writes.append(_name)
                return _real(sock, *args)

            monkeypatch.setattr(socket.socket, name, counted)
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        assert [backend.send(fixture_request(f"p{n}")) for n in range(3)] == ["sad"] * 3
        assert writes == ["sendall"] * 3

    def test_lone_surrogate_content_is_a_malformed_body(self, loopback, tmp_path):
        from textemo.llm import HttpBackend

        surrogate = Reply(body='{"choices": [{"message": {"content": "\\ud800"}}]}')
        loopback.script(surrogate, surrogate)
        cache = CompletionCache(tmp_path)
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        requests = [fixture_request("first"), fixture_request("second")]
        first, second = fan_out(lambda r: complete(r, backend, cache=cache, retry=no_sleep_policy(2)), requests, 1)
        assert isinstance(first, BackendExhausted) and "malformed response body" in str(first)
        assert second.raw_text == "sad"
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["fingerprint"] for line in lines] == [requests[1].fingerprint]

    @pytest.mark.parametrize(
        "raw, close",
        [
            pytest.param(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"7;note=x\r\n" + SAD[:7] + b"\r\n"
                + b"%x\r\n" % (len(SAD) - 7) + SAD[7:] + b"\r\n"
                + b"0\r\nX-Trailer: 1\r\n\r\n",
                False,
                id="chunked",
            ),
            pytest.param(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + SAD, True, id="http-1.0-to-close"),
            pytest.param(
                b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(SAD) + SAD,
                False,
                id="100-continue",
            ),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (65536 - 10) + b"\r\nContent-Length: %d\r\n\r\n" % len(SAD) + SAD,
                False,
                id="longest-header-line",
            ),
            pytest.param(
                b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: 1\r\n" % n for n in range(99))
                + b"Content-Length: %d\r\n\r\n" % len(SAD) + SAD,
                False,
                id="100-headers",
            ),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: %d\r\n\r\n" % len(SAD) + SAD,
                False,
                id="folded-header-line",
            ),
        ],
    )
    def test_reply_framings_are_read(self, loopback, raw, close):
        from textemo.llm import HttpBackend

        loopback.script(Reply(raw=raw, close=close))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        # the second reply is read where the first one's framing ended
        assert [backend.send(fixture_request(f"p{n}")) for n in range(2)] == ["sad"] * 2
        assert loopback.connections == (2 if close else 1)

    def test_a_dripping_reply_is_cut_at_the_timeout_and_not_cached(self, loopback, tmp_path):
        from textemo.llm import HttpBackend

        # the whole body would take 0.05 s * 47 bytes = 2.35 s
        drip = Reply(raw=b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(SAD) + SAD, drip=0.05)
        loopback.script(drip, drip, drip)
        backend = HttpBackend(endpoint=loopback.url(), api_key="k", timeout=0.5)
        started = time.monotonic()
        with pytest.raises(TransportError, match="request failed"):
            backend.send(fixture_request())
        assert 0.5 <= time.monotonic() - started < 1.5
        cache = CompletionCache(tmp_path)
        with pytest.raises(BackendExhausted, match="request failed"):
            complete(fixture_request(), backend, cache=cache, retry=no_sleep_policy(2))
        assert not cache.path.exists()
        assert backend.send(fixture_request()) == "sad"  # on a new connection
        assert (len(loopback.received), loopback.connections) == (4, 4)

    @pytest.mark.parametrize("call", ["readinto", "sendall"])
    def test_a_socket_past_its_deadline_times_out_before_waiting(self, call):
        from textemo.httpclient import _Socket

        ours, theirs = socket.socketpair()
        with ours, theirs:
            sock = _Socket(ours)
            sock.deadline = time.monotonic() - 1.0
            with pytest.raises(TimeoutError, match="ran past its timeout"):
                sock.readinto(bytearray(1)) if call == "readinto" else sock.sendall(b"x")
            theirs.setblocking(False)
            with pytest.raises(BlockingIOError):
                theirs.recv(1)  # nothing was sent

    def test_connection_close_header_opens_a_new_connection(self, loopback, caplog):
        from textemo.llm import HttpBackend

        raw = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n" % len(SAD) + SAD
        loopback.script(Reply(raw=raw))  # the server leaves the connection open
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        sleeps: list[float] = []
        with caplog.at_level("WARNING"):
            completions = [complete(fixture_request(f"p{n}"), backend, retry=RetryPolicy(sleep=sleeps.append)) for n in range(2)]
        assert [c.raw_text for c in completions] == ["sad"] * 2
        assert (len(loopback.received), loopback.connections) == (2, 2)
        assert sleeps == [] and not caplog.messages

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (len(SAD) + 10) + SAD, id="short-body"),
            pytest.param(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", id="header-line-too-long"),
            pytest.param(b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: 1\r\n" % n for n in range(101)) + b"\r\n", id="101-headers"),
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 5, 6\r\n\r\n" + SAD, id="conflicting-content-lengths"),
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % 10**15 + SAD, id="huge-content-length"),
            pytest.param(b"HTTP/1.1 2000 OK\r\nContent-Length: %d\r\n\r\n" % len(SAD) + SAD, id="malformed-status-line"),
            pytest.param(b"HTTP/1.1 200 OK\r\nX-No-Colon\r\nContent-Length: %d\r\n\r\n" % len(SAD) + SAD, id="header-without-colon"),
            pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n" + SAD + b"\r\n0\r\n\r\n", id="bad-chunk-size"),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n" % len(SAD) + SAD + b"!!0\r\n\r\n",
                id="chunk-without-crlf",
            ),
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Le", id="closed-inside-the-head"),
        ],
    )
    def test_framing_errors_are_transport_errors(self, loopback, raw):
        from textemo.llm import HttpBackend

        loopback.script(Reply(raw=raw, close=True))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(TransportError, match="request failed"):
            backend.send(fixture_request())
        assert backend.send(fixture_request()) == "sad"  # on a new connection
        assert loopback.connections == 2

    def test_a_204_reply_is_a_transport_error_on_a_kept_connection(self, loopback):
        from textemo.llm import HttpBackend

        loopback.script(Reply(raw=b"HTTP/1.1 204 No Content\r\n\r\n"))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(TransportError, match="unexpected HTTP 204"):
            backend.send(fixture_request())
        assert backend.send(fixture_request()) == "sad"
        assert loopback.connections == 1

    # The chunked and to-close bodies would parse as "sad" (JSON allows leading
    # blanks) but for their size; the Content-Length is refused before the body.
    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (_MAX_BODY + 1) + SAD, id="content-length"),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % _MAX_BODY + b" " * _MAX_BODY + b"\r\n"
                + b"%x\r\n" % len(SAD) + SAD + b"\r\n0\r\n\r\n",
                id="chunked",
            ),
            pytest.param(b"HTTP/1.0 200 OK\r\n\r\n" + b" " * _MAX_BODY + SAD, id="to-close"),
        ],
    )
    def test_a_body_over_the_cap_is_a_transport_error_and_not_cached(self, loopback, tmp_path, raw):
        from textemo.llm import HttpBackend

        loopback.script(Reply(raw=raw, close=True), Reply(raw=raw, close=True))
        backend = HttpBackend(endpoint=loopback.url(), api_key="k")
        with pytest.raises(TransportError, match="cap"):
            backend.send(fixture_request())
        cache = CompletionCache(tmp_path)
        with pytest.raises(BackendExhausted, match="cap"):
            complete(fixture_request(), backend, cache=cache, retry=no_sleep_policy(1))
        assert not cache.path.exists()
        assert backend.send(fixture_request()) == "sad"  # on a new connection
        assert loopback.connections == 3
