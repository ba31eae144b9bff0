"""Prediction prompt templates and rendering.

Templates live in a plain-text file of records separated by ``--- <name>``
lines; the shipped defaults are the five prompts used by the experiments
(baseline, expert, gambler, cot, cot_fired). Bodies carry three slots,
the ``SLOT_*`` markers of the context, the current speaker and the current
sentence, replaced by pure textual substitution. A doubled brace renders
as a literal brace.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .corpus import read_text

SLOT_CONTEXT = "{context}"
SLOT_SPEAKER = "{current speaker}"
SLOT_SENTENCE = "{current sentence}"

# Each token of a body, as it is spelled in the str.format pattern of the body (see _format_pattern).
# _TOKEN_RE tries them in this order, so a lone brace, last, is one that starts no other token.
_PATTERN_TOKENS = {
    "{{": "{{",
    "}}": "}}",
    SLOT_CONTEXT: "{0}",
    SLOT_SPEAKER: "{1}",
    SLOT_SENTENCE: "{2}",
    "{": "{{",
    "}": "}}",
}
_TOKEN_RE = re.compile("|".join(map(re.escape, _PATTERN_TOKENS)))
_SEPARATOR_RE = re.compile(r"^---\s+(\S+)\s*$")

DEFAULT_TEMPLATE_RESOURCE = "templates.txt"


class EmptySentence(ValueError):
    """The current-sentence slot may not be empty."""


class UnknownTemplate(KeyError):
    """Requested template name is not in the template file."""


class PromptTemplate(NamedTuple):
    name: str
    body: str


def render(template: PromptTemplate, context: str, speaker: str, sentence: str) -> str:
    """Substitute the three slots into the template body.

    Raises EmptySentence when sentence is empty; slot markers disappear even
    for empty context/speaker values.
    """
    if not sentence:
        raise EmptySentence(f"template {template.name!r} rendered with an empty sentence")
    return _format_pattern(template.body).format(context, speaker, sentence)


@lru_cache(maxsize=64)
def _format_pattern(body: str) -> str:
    """The body as a str.format pattern, split once per body: the three
    slots become fields 0, 1 and 2, and every literal brace is doubled."""
    return _TOKEN_RE.sub(lambda m: _PATTERN_TOKENS[m.group(0)], body)


def parse_template_file(text: str) -> dict[str, PromptTemplate]:
    """Parse ``--- <name>`` separated template records."""
    templates: dict[str, PromptTemplate] = {}
    name: str | None = None
    lines: list[str] = []

    def flush() -> None:
        if name is None:
            return
        body = "\n".join(lines).strip()
        if not body:
            raise ValueError(f"template {name!r} has an empty body")
        if name in templates:
            raise ValueError(f"duplicate template name {name!r}")
        templates[name] = PromptTemplate(name=name, body=body)

    for line in text.splitlines():
        sep = _SEPARATOR_RE.match(line)
        if sep:
            flush()
            name = sep.group(1)
            lines = []
        elif name is not None:
            lines.append(line)
        elif line.strip() and not line.lstrip().startswith("#"):
            # Preamble may carry comments and blank lines, nothing else.
            raise ValueError(f"content before the first '--- <name>' separator: {line!r}")
    flush()
    return templates


def load_templates(path: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load templates from a file, or the shipped defaults when path is None.

    A malformed file is a ValueError led by its path.
    """
    if path is None:
        text = resources.files("textemo.data").joinpath(DEFAULT_TEMPLATE_RESOURCE).read_text("utf-8")
    else:
        text = read_text(path)
    try:
        return parse_template_file(text)
    except ValueError as exc:
        raise ValueError(f"{path or DEFAULT_TEMPLATE_RESOURCE}: {exc}") from exc


def get_template(name: str, path: str | Path | None = None) -> PromptTemplate:
    templates = load_templates(path)
    if name not in templates:
        raise UnknownTemplate(f"no template named {name!r}; have {sorted(templates)}")
    return templates[name]
