"""Emotion prediction over post-ASR transcripts.

Pipeline stages: corpus loading and id parsing, WER analysis, transcription
refinement, context windowing, prompt rendering, annotator backends, and
evaluation. See the cli module for the batch entry points.

Names are imported from their stage module (``from textemo.corpus import
load_corpus``), so ``import textemo`` loads no stage, and a command loads
only the stages it runs. The backend and request option values below are
the exception: every CLI process builds the whole parser, which names them,
so they live here rather than in ``textemo.llm``, and a command that sends
no request does not load the backend module. ``BackendError`` and
``AuthError`` live here for the same reason: the CLI catches ``AuthError``
by its class.

The stages log through ``log`` below, which imports ``logging`` with the
first record, so a process that prints no warning never loads it.
"""

__version__ = "0.1.0"

# Annotator backend kinds (``--backend``, and a matrix row's "backend").
BACKEND_HTTP = "http"
BACKEND_MOCK = "mock"  # the default
BACKEND_KINDS = (BACKEND_HTTP, BACKEND_MOCK)
DEFAULT_MODEL = "gpt-3.5-turbo"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
DEFAULT_CONCURRENCY = 4  # request worker threads (``--concurrency``)


class BackendError(Exception):
    """Base class for annotator-backend failures; carries the request fingerprint."""

    def __init__(self, message: str, fingerprint: str | None = None):
        super().__init__(message if fingerprint is None else f"{message} [fingerprint {fingerprint}]")
        self.fingerprint = fingerprint


class AuthError(BackendError):
    """Authentication/authorization failure; never retried."""


# The logging.basicConfig keywords that configure_logging recorded, applied
# by the next record; None once applied.
_log_config: dict | None = None


def configure_logging(**config: object) -> None:
    """Record ``logging.basicConfig`` keywords; ``log`` applies them before its next record."""
    global _log_config
    _log_config = config


def log(name: str, level: str, msg: str, *args: object) -> None:
    """Emit ``msg % args`` on logger ``name`` at ``level`` ("warning" or "error")."""
    global _log_config
    import logging

    if _log_config is not None:
        logging.basicConfig(**_log_config)
        _log_config = None
    getattr(logging.getLogger(name), level)(msg, *args, stacklevel=2)  # the record names log's caller
