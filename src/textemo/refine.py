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
from .corpus import UtteranceRecord, is_blank, select_longest
from .llm import Backend, CompletionCache, CompletionRequest, complete

SELECTION_INSTRUCTION = (
    "You are a text refinement assistant. Choose the most comprehensive and "
    "coherent sentence from the following options. If impossible to decide, "
    "choose the longest option available. Output only the selected sentence "
    "without any additional explanation or phrases."
)

SOURCE_LLM = "llm_selected"
SOURCE_LONGEST = "longest_fallback"
SOURCE_ALL_SHORT = "all_short_longest"


class _ConfigFields(NamedTuple):
    min_length: int = 5
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


def filter_transcriptions(record: UtteranceRecord, cfg: RefinementConfig) -> list[tuple[str, str]]:
    """Keep non-blank candidates strictly longer than min_length; if none
    survive, return every non-blank candidate (every candidate when all are
    blank), in record insertion order.
    """
    items = record.transcriptions.items()
    nonblank = [(m, t) for m, t in items if not is_blank(t)] or list(items)
    return [(m, t) for m, t in nonblank if _length(t, cfg.length_unit) > cfg.min_length] or nonblank


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
    candidates = filter_transcriptions(record, cfg)
    if cfg.selector == "llm":
        if backend is None:
            raise ValueError("llm selector requires a backend")
        request = CompletionRequest(model=llm_model, prompt=build_refine_prompt(candidates), max_tokens=128)
        wanted = complete(request, backend, cache=cache).raw_text.strip().casefold()
        for _, text in candidates:
            if text.strip().casefold() == wanted:
                return RefinementOutcome(chosen=text, chosen_source=SOURCE_LLM)
    # the filter keeps only long candidates or every one, so the first tells which
    all_short = _length(candidates[0][1], cfg.length_unit) <= cfg.min_length
    return RefinementOutcome(
        chosen=select_longest(candidates)[1], chosen_source=SOURCE_ALL_SHORT if all_short else SOURCE_LONGEST
    )
