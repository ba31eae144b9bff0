"""Transcription refinement: drop uninformatively short ASR outputs, then pick
the best survivor.

The selector is either an LLM asked to choose the most coherent candidate, or
a deterministic longest-text rule. The LLM may only select, never rewrite: its
response is matched against the candidate set and any non-matching response
falls back to the longest candidate. `refine` writes the chosen text to the
record's "ensemble" field in its output file.
"""

from __future__ import annotations

from typing import NamedTuple

from . import DEFAULT_MODEL
from .corpus import UtteranceRecord, is_blank
from .llm import Backend, CompletionCache, CompletionRequest, complete

SELECTION_INSTRUCTION = (
    "You are a text refinement assistant. Choose the most comprehensive and "
    "coherent sentence from the following options. If impossible to decide, "
    "choose the longest option available. Output only the selected sentence "
    "without any additional explanation or phrases."
)

DEFAULT_MIN_LENGTH = 5

SOURCE_LLM = "llm_selected"
SOURCE_LONGEST = "longest_fallback"
SOURCE_ALL_SHORT = "all_short_longest"


class _ConfigFields(NamedTuple):
    min_length: int = DEFAULT_MIN_LENGTH
    length_unit: str = "characters"  # or "tokens"
    selector: str = "llm"  # or "longest_only"


class RefinementConfig(_ConfigFields):
    """Knobs for the filter-and-select refinement pass, checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RefinementConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")
        if self.length_unit not in ("characters", "tokens"):
            raise ValueError(f"unknown length_unit {self.length_unit!r}")
        if self.selector not in ("llm", "longest_only"):
            raise ValueError(f"unknown selector {self.selector!r}")
        return self


class RefinementOutcome(NamedTuple):
    """Result of refining one record; chosen is always one of the candidates."""

    chosen: str
    chosen_source: str


def _length(text: str, unit: str) -> int:
    return len(text) if unit == "characters" else len(text.split())


def _nonblank(record: UtteranceRecord) -> list[tuple[str, str]]:
    """The record's transcriptions that are not blank (empty or whitespace
    only); all of them when every one is blank."""
    texts = [(m, t) for m, t in record.transcriptions.items() if not is_blank(t)]
    return texts if texts else list(record.transcriptions.items())


def filter_transcriptions(record: UtteranceRecord, cfg: RefinementConfig) -> list[tuple[str, str]]:
    """Keep non-blank candidates strictly longer than min_length; if none
    survive, return every non-blank candidate (every candidate when all are
    blank), in record insertion order.
    """
    return _filter(record, cfg)[0]


def _filter(record: UtteranceRecord, cfg: RefinementConfig) -> tuple[list[tuple[str, str]], bool]:
    """filter_transcriptions' candidates, and whether none passed the length filter."""
    nonblank = _nonblank(record)
    kept = [(m, t) for m, t in nonblank if _length(t, cfg.length_unit) > cfg.min_length]
    return (kept, False) if kept else (nonblank, True)


def select_longest(candidates: list[tuple[str, str]]) -> tuple[str, str]:
    """Candidate with the maximum character count; ties broken by model name."""
    if not candidates:
        raise ValueError("no candidates to select from")
    return min(candidates, key=lambda mt: (-len(mt[1]), mt[0]))


def build_refine_prompt(candidates: list[tuple[str, str]]) -> str:
    """Selection instruction plus the candidate texts as a numbered list.

    Newlines inside a candidate are flattened to spaces so the one-candidate-
    per-line framing survives. Model names are withheld to keep the selector
    unbiased.
    """
    lines = [f"{i}. " + text.replace("\n", " ") for i, (_, text) in enumerate(candidates, start=1)]
    return SELECTION_INSTRUCTION + "\n" + "\n".join(lines)


def refine_record(
    record: UtteranceRecord,
    cfg: RefinementConfig,
    backend: Backend | None = None,
    cache: CompletionCache | None = None,
    llm_model: str = DEFAULT_MODEL,
) -> RefinementOutcome:
    """Filter the record's transcriptions and select one; the record is not
    modified.

    With the llm selector, a response that matches a candidate (after trim
    and case-fold) is chosen; anything else falls back to the longest
    candidate. BackendError propagates once retries are exhausted and the
    record is left unrefined.
    """
    candidates, all_short = _filter(record, cfg)

    chosen: tuple[str, str] | None = None
    source = SOURCE_ALL_SHORT if all_short else SOURCE_LONGEST

    if cfg.selector == "llm":
        if backend is None:
            raise ValueError("llm selector requires a backend")
        request = CompletionRequest(
            model=llm_model,
            prompt=build_refine_prompt(candidates),
            temperature=0.0,
            max_tokens=128,
        )
        wanted = complete(request, backend, cache=cache).raw_text.strip().casefold()
        for model, text in candidates:
            if text.strip().casefold() == wanted:
                chosen = (model, text)
                source = SOURCE_LLM
                break

    if chosen is None:
        chosen = select_longest(candidates)

    return RefinementOutcome(chosen=chosen[1], chosen_source=source)
