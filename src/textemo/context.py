"""Context windows: the utterances preceding a prediction target.

Session mode takes the preceding utterances from the same conversation
(session number + recording letter). Script mode additionally stops at the
script boundary, so a target early in a script gets a short window even when
more history exists in the session. All utterances are usable as context
regardless of their need_prediction flag.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .corpus import CONTEXT_MODES, ENSEMBLE_KEY, MODE_SCRIPT, Corpus, UtteranceRecord, is_blank, select_longest

EMPTY_CONTEXT = "(no prior context)"


class UnknownTextSource(ValueError):
    """text_source names neither 'ensemble' nor any ASR model in the corpus."""


class InvalidTarget(IndexError):
    """Target position outside the corpus."""


class ContextWindow(NamedTuple):
    """Preceding (speaker, text) pairs in conversation order, oldest first."""

    items: list[tuple[str, str]]
    truncated_by_boundary: bool


def source_text(record: UtteranceRecord, text_source: str) -> str | None:
    """Record text under the requested source, or None when the record lacks
    it or it is blank (empty or whitespace only)."""
    text = record.ensemble if text_source == ENSEMBLE_KEY else record.transcriptions.get(text_source)
    return None if is_blank(text) else text


def resolve_text(record: UtteranceRecord, text_source: str) -> str:
    """Record text under the requested source, falling back to the longest
    non-blank transcription when the source is missing or blank; "" when the
    record has no non-blank text."""
    text = source_text(record, text_source)
    return _longest_transcription(record) if text is None else text


def _longest_transcription(record: UtteranceRecord) -> str:
    texts = [(m, t) for m, t in record.transcriptions.items() if not is_blank(t)]
    return select_longest(texts)[1] if texts else ""


def check_text_source(corpus: Corpus, text_source: str) -> None:
    """Raise UnknownTextSource unless text_source is 'ensemble' or an ASR model of the corpus."""
    if text_source != ENSEMBLE_KEY and text_source not in corpus.model_names:
        raise UnknownTextSource(f"unknown text source {text_source!r}: not 'ensemble' or an ASR model in the corpus")


def build_context(
    corpus: Corpus,
    target: int,
    mode: str,
    length: int,
    text_source: str,
) -> ContextWindow:
    """Window of up to `length` utterances preceding `target` in file order.

    The window is a slice of the target's group: its script (script mode)
    or its session (session mode), as grouped once by index_records. It
    holds the last `length` group members before the target, oldest first.
    truncated_by_boundary is set when the group, not the length budget or
    the start of the corpus, capped the window.
    """
    if mode not in CONTEXT_MODES:
        raise ValueError(f"unknown context mode {mode!r}")
    if length < 1:
        raise ValueError("context length must be >= 1")
    if not 0 <= target < len(corpus.records):
        raise InvalidTarget(f"position {target} outside corpus of {len(corpus.records)} records")
    check_text_source(corpus, text_source)

    positions = _window(corpus, target, mode, length)
    truncated = len(positions) < length and target > len(positions)
    items = [(corpus.records[pos].speaker, resolve_text(corpus.records[pos], text_source)) for pos in positions]
    return ContextWindow(items=items, truncated_by_boundary=truncated)


def format_context(window: ContextWindow) -> str:
    """Render a window for the {context} prompt slot."""
    return _joined([_line(speaker, text) for speaker, text in window.items])


class ContextTable:
    """A run's per-record work, done in one pass over the corpus: each
    record's resolve_text under one text source and its context line, the
    count of records that lack the source's text, and the file positions of
    the records flagged need_prediction, the run's targets.

    ``context(target, mode, length)`` equals
    ``format_context(build_context(corpus, target, mode, length, text_source))``
    for a mode in CONTEXT_MODES and a length of at least 1, by joining the
    window's lines made here.
    """

    __slots__ = ("corpus", "texts", "lines", "missing", "targets")

    def __init__(self, corpus: Corpus, text_source: str):
        check_text_source(corpus, text_source)
        self.corpus = corpus
        self.texts: list[str] = []
        self.lines: list[str] = []
        self.missing = 0
        self.targets: list[int] = []
        for record in corpus.records:
            text = source_text(record, text_source)
            if text is None:
                self.missing += 1
                text = _longest_transcription(record)
            self.texts.append(text)
            self.lines.append(_line(record.speaker, text))
            if record.need_prediction:
                self.targets.append(record.file_position)

    def context(self, target: int, mode: str, length: int) -> str:
        lines = self.lines
        return _joined([lines[pos] for pos in _window(self.corpus, target, mode, length)])


def _window(corpus: Corpus, target: int, mode: str, length: int) -> list[int]:
    """File positions of the last `length` members of the target's group before it, oldest first."""
    uid = corpus.records[target].id
    group = corpus.scripts[uid.script_key] if mode == MODE_SCRIPT else corpus.sessions[uid.session_key]
    place = bisect_left(group, target)
    return group[max(0, place - length) : place]


def _line(speaker: str, text: str) -> str:
    return f"Speaker {speaker} says: {text.strip()}"


def _joined(lines: list[str]) -> str:
    return " ".join(lines) if lines else EMPTY_CONTEXT
