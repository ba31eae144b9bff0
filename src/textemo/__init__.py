"""Emotion prediction over post-ASR transcripts.

Pipeline stages: corpus loading and id parsing, WER analysis, transcription
refinement, context windowing, prompt rendering, annotator backends, and
evaluation. See the cli module for the batch entry points.

The names below are imported from their stage module on first access
(PEP 562), so ``import textemo`` loads no stage, and a command loads only
the stages it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the wer() function itself stays namespaced (textemo.wer.wer) so the "wer"
# attribute keeps pointing at the submodule
_EXPORTS = {
    "context": ("ContextWindow", "build_context", "format_context"),
    "corpus": ("Corpus", "UtteranceId", "UtteranceRecord", "load_corpus", "parse_id"),
    "llm": (
        "Completion",
        "CompletionCache",
        "CompletionRequest",
        "HttpBackend",
        "MockBackend",
        "complete",
        "normalize_label",
    ),
    "metrics": ("EvalReport", "evaluate"),
    "prompts": ("PromptTemplate", "load_templates", "render"),
    "refine": ("RefinementConfig", "RefinementOutcome", "refine_record"),
    "wer": ("NormalizedTokens", "edit_distance", "normalize", "wer_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
