"""Run one textemo CLI command with spans around its layer calls.

    python3 tracer.py SUMMARY.json -- <textemo arguments>

Public functions are wrapped where their callers look them up (a module
that did ``from .context import build_context`` gets its own name patched).
Spans stay in memory and are summarised into SUMMARY.json when the command
returns: per span name its durations and its self time, which is the
duration minus the part of it that child spans cover. A span opened on a
worker thread with nothing open on that thread is a child of the span open
on the main thread, the call that fanned the work out.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter

perf_counter = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name: str):
        self.name = name
        self.children: list[Span] = []


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.pairs: set[tuple] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = Span(name)
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def summary(self) -> dict:
        names: dict[str, dict] = {}
        for span in self.spans:
            entry = names.setdefault(span.name, {"durations": [], "self_s": 0.0})
            duration = span.end - span.start
            entry["durations"].append(duration)
            entry["self_s"] += duration - _covered(span)
        counts = dict(self.counts, wer_distinct_pairs=len(self.pairs))
        return {"spans": names, "counts": counts}


def _covered(span: Span) -> float:
    """Length of the union of the children's intervals, clipped to span."""
    total, reach = 0.0, span.start
    for child in sorted(span.children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def install(tracer: Tracer) -> None:
    """Patch the program's layer entry points with span wrappers."""
    import textemo.cli as cli
    import textemo.corpus as corpus
    import textemo.experiments as experiments
    import textemo.llm as llm
    import textemo.metrics as metrics
    import textemo.refine as refine
    import textemo.wer as wer

    def patch(owner, attr: str, name: str, on_result=None) -> None:
        if not hasattr(owner, attr):
            print(f"tracer: {owner.__name__}.{attr} not found, {name} not traced", file=sys.stderr)
            return
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), on_result))

    patch(cli, "main", "cli.main")
    patch(corpus, "read_objects", "corpus.load")
    patch(corpus, "build_corpus", "corpus.load")
    patch(wer, "wer_report", "wer.report")
    patch(refine, "refine_record", "refine.refine_record")
    for owner in (cli, experiments):
        patch(owner, "run_experiment", "experiments.run_experiment")
        patch(owner, "write_run_artifacts", "experiments.write_artifacts")
    patch(experiments, "build_context", "context.build")
    patch(experiments, "render", "prompts.render")
    patch(experiments, "load_templates", "prompts.load_templates")
    for owner in (metrics, experiments):
        patch(owner, "evaluate", "metrics.evaluate")

    def completed(completion) -> None:
        tracer.count("complete_misses" if not completion.from_cache else "complete_hits")

    for owner in (refine, experiments):
        patch(owner, "complete", "llm.complete", completed)
    patch(llm.MockBackend, "send", "llm.send")
    patch(llm.HttpBackend, "send", "llm.send")
    patch(llm.CompletionCache, "store", "llm.cache_store")

    def loaded(completion) -> None:
        tracer.count("cache_loads")
        if completion is not None:
            tracer.count("cache_load_hits")

    patch(llm.CompletionCache, "load", "llm.cache_load", loaded)

    fingerprint = llm.CompletionRequest.fingerprint.fget

    def counted_fingerprint(request):
        tracer.count("fingerprints")
        return fingerprint(request)

    llm.CompletionRequest.fingerprint = property(counted_fingerprint)

    edit_distance = wer.edit_distance

    def counted_edit_distance(ref, hyp):
        tracer.count("wer_pairs")
        tracer.pairs.add((tuple(ref), tuple(hyp)))
        return edit_distance(ref, hyp)

    wer.edit_distance = counted_edit_distance


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import textemo.cli

    code = 1
    try:
        code = textemo.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
