"""Experiment orchestration: one prediction run, and the config-driven matrix.

A run walks every record flagged need_prediction, builds its context window,
renders the chosen prompt, resolves it through the annotator backend, and
normalizes the response to a label (falling back to "neutral" when the
response carries no label, counted in fallback_count). Artifacts per run: a
predictions JSON, an eval JSON when truth labels exist, and a line-delimited
JSON run log with one fingerprinted event per prediction. Failed requests, and
targets with no non-blank text to predict from, go to a retry manifest; an
AuthError aborts the run.
"""

from __future__ import annotations

import json
import logging
import os
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple

from . import BACKEND_KINDS, BACKEND_MOCK, DEFAULT_ENDPOINT, DEFAULT_MODEL
from .context import build_context, check_text_source, format_context, resolve_text, source_text
from .corpus import CONTEXT_MODES, MODE_SESSION, Corpus, UtteranceRecord, read_json, write_json
from .llm import (
    DEFAULT_RETRY,
    Backend,
    BackendError,
    CompletionCache,
    CompletionRequest,
    RetryPolicy,
    complete,
    fan_out,
    make_backend,
)
from .metrics import EVAL_LABELS, UA_MACRO_RECALL, EmptyInput, EvalReport, evaluate
from .prompts import PromptTemplate, load_templates, render

logger = logging.getLogger(__name__)

FALLBACK_LABEL = "neutral"
DEFAULT_MATRIX_RESOURCE = "experiment_matrix.json"


class _SpecFields(NamedTuple):
    name: str
    text_source: str
    prompt: str = "baseline"
    context_length: int = 3
    context_mode: str = MODE_SESSION
    backend: str = BACKEND_MOCK
    model: str = DEFAULT_MODEL


class ExperimentSpec(_SpecFields):
    """One experiment: transcription source, prompt, context policy, backend;
    checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentSpec:
        self = super().__new__(cls, *args, **kwargs)
        # the name is joined to the output directory by write_run_artifacts
        if self.name in ("", ".", "..") or any(c in self.name for c in ("/", os.sep, "\0")):
            raise ValueError(f"experiment {self.name!r}: name must be a single path component")
        if self.context_length < 1:
            raise ValueError(f"experiment {self.name!r}: context_length must be >= 1")
        if self.context_mode not in CONTEXT_MODES:
            raise ValueError(f"experiment {self.name!r}: unknown context_mode {self.context_mode!r}")
        if self.backend not in BACKEND_KINDS:
            raise ValueError(f"experiment {self.name!r}: unknown backend {self.backend!r}")
        return self


def load_experiment_config(path: str | Path | None = None) -> list[ExperimentSpec]:
    """Load experiment specs from a JSON config, or the shipped matrix.

    Schema: {"experiments": [{"name", "text_source", "prompt",
    "context_length", "context_mode", "backend", "model"}, ...]}.
    "name" and "text_source" are required, "context_length" is an integer and
    every other field a string. Names must be unique. A malformed config
    raises ValueError naming the row and the key.
    """
    if path is None:
        data = json.loads(resources.files("textemo.data").joinpath(DEFAULT_MATRIX_RESOURCE).read_text("utf-8"))
    else:
        data = read_json(path)
    if isinstance(data, Mapping):
        if "experiments" not in data:
            raise ValueError("experiment config: top-level object has no 'experiments' key")
        data = data["experiments"]
    if not isinstance(data, list):
        raise ValueError("experiment config: 'experiments' must be a JSON array")
    specs = [_spec_from_row(index, row) for index, row in enumerate(data)]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("experiment names must be unique within a config")
    return specs


def _spec_from_row(index: int, row: object) -> ExperimentSpec:
    if not isinstance(row, Mapping):
        raise ValueError(f"experiment row {index}: expected a JSON object")
    for key, value in row.items():
        if key not in ExperimentSpec._fields:
            raise ValueError(f"experiment row {index}: unknown key {key!r}")
        expected = int if key == "context_length" else str
        if type(value) is not expected:  # a JSON true is not a context length
            kind = "an integer" if expected is int else "a string"
            raise ValueError(f"experiment row {index}: key {key!r} must be {kind}")
    for name in ExperimentSpec._fields:
        if name not in ExperimentSpec._field_defaults and name not in row:
            raise ValueError(f"experiment row {index}: required key {name!r} is missing")
    return ExperimentSpec(**row)


class PredictionEvent(NamedTuple):
    """One prediction, as logged."""

    id: str
    fingerprint: str
    prediction: str
    from_cache: bool
    fallback: bool


class RunResult(NamedTuple):
    """Everything a single experiment run produced."""

    spec: ExperimentSpec
    predictions: list[PredictionEvent]
    failures: list[dict]
    eval_report: EvalReport | None

    @property
    def fallback_count(self) -> int:
        return sum(e.fallback for e in self.predictions)

    @property
    def cache_hits(self) -> int:
        return sum(e.from_cache for e in self.predictions)

    @property
    def cache_misses(self) -> int:
        return len(self.predictions) - self.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.predictions) if self.predictions else 0.0


def run_experiment(
    spec: ExperimentSpec,
    corpus: Corpus,
    backend: Backend,
    cache: CompletionCache | None = None,
    retry: RetryPolicy = DEFAULT_RETRY,
    templates: Mapping[str, PromptTemplate] | None = None,
    concurrency: int = 4,
    ua_definition: str = UA_MACRO_RECALL,
) -> RunResult:
    """Predict every need_prediction record and evaluate when truth exists.

    `templates` is a parsed template mapping; None means the shipped ones.
    Without a cache, the run keeps its completions in a map in memory, so it
    sends each fingerprint once.
    """
    if cache is None:
        cache = CompletionCache(None)
    if templates is None:
        templates = load_templates()
    if spec.prompt not in templates:
        raise ValueError(f"experiment {spec.name!r}: unknown template {spec.prompt!r}")
    check_text_source(corpus, spec.text_source)
    template = templates[spec.prompt]
    missing = sum(source_text(rec, spec.text_source) is None for rec in corpus.records)
    if missing:
        logger.warning(
            "experiment %s: %d of %d records have no %r text, falling back to their longest transcription",
            spec.name,
            missing,
            len(corpus.records),
            spec.text_source,
        )

    targets: list[tuple[UtteranceRecord, str]] = []
    failures: list[dict] = []
    for record in corpus.records:
        if not record.need_prediction:
            continue
        if sentence := resolve_text(record, spec.text_source):
            targets.append((record, sentence))
        else:
            error = f"no non-blank {spec.text_source!r} text or transcription to predict from"
            failures.append({"id": record.id.raw, "fingerprint": None, "error": error})

    def predict(target: tuple[UtteranceRecord, str]) -> PredictionEvent:
        record, sentence = target
        window = build_context(corpus, record.file_position, spec.context_mode, spec.context_length, spec.text_source)
        prompt_text = render(template, format_context(window), record.speaker, sentence)
        request = CompletionRequest(model=spec.model, prompt=prompt_text, temperature=0.0, max_tokens=16)
        completion = complete(request, backend, cache=cache, retry=retry)
        label = completion.normalized_label
        return PredictionEvent(
            id=record.id.raw,
            fingerprint=request.fingerprint,
            prediction=label if label is not None else FALLBACK_LABEL,
            from_cache=completion.from_cache,
            fallback=label is None,
        )

    outcomes = fan_out(predict, targets, concurrency)
    predictions: list[PredictionEvent] = []
    truth_pairs: list[tuple[str | None, str]] = []
    for (record, _), outcome in zip(targets, outcomes):
        if isinstance(outcome, BackendError):
            failures.append({"id": record.id.raw, "fingerprint": outcome.fingerprint, "error": str(outcome)})
        else:
            predictions.append(outcome)
            truth_pairs.append((record.emotion, outcome.prediction))

    eval_report: EvalReport | None = None
    if any(truth is not None for truth, _ in truth_pairs):
        try:
            eval_report = evaluate(truth_pairs, ua_definition=ua_definition)
        except EmptyInput:
            logger.warning("experiment %s: truth labels exist but none in the target set", spec.name)

    return RunResult(
        spec=spec,
        predictions=predictions,
        failures=failures,
        eval_report=eval_report,
    )


def write_run_artifacts(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write predictions, eval report, run log, and retry manifest.

    Returns the paths written, keyed by artifact name. Predictions and eval
    files are byte-stable across reruns of the same inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = result.spec.name
    paths: dict[str, Path] = {}

    paths["predictions"] = write_json(
        out / f"{name}.predictions.json", [{"id": e.id, "prediction": e.prediction} for e in result.predictions]
    )
    if result.eval_report is not None:
        paths["eval"] = write_json(out / f"{name}.eval.json", result.eval_report.to_dict())

    log_path = out / f"{name}.log.jsonl"
    with open(log_path, "w", encoding="utf-8") as fh:
        for event in result.predictions:
            fh.write(json.dumps({"event": "prediction", **event._asdict()}, sort_keys=True) + "\n")
        fh.write(
            json.dumps(
                {
                    "event": "summary",
                    "experiment": name,
                    "n_predictions": len(result.predictions),
                    "n_failures": len(result.failures),
                    "fallback_count": result.fallback_count,
                    "cache_hits": result.cache_hits,
                    "cache_misses": result.cache_misses,
                    "cache_hit_rate": result.cache_hit_rate,
                },
                sort_keys=True,
            )
            + "\n"
        )
    paths["log"] = log_path

    if result.failures:
        paths["retry"] = write_json(out / f"{name}.retry.json", result.failures)
    return paths


def run_matrix(
    specs: list[ExperimentSpec],
    corpus: Corpus,
    cache: CompletionCache | None = None,
    out_dir: str | Path | None = None,
    template_file: str | Path | None = None,
    concurrency: int = 4,
    mock_seed: int = 0,
    endpoint: str = DEFAULT_ENDPOINT,
    ua_definition: str = UA_MACRO_RECALL,
) -> list[dict]:
    """Run every spec sequentially against a shared cache and one parse of
    the templates. Without a cache, each row keeps its own map in memory:
    rows may use different backends, and one must not answer for another.

    A template file that does not load stops the matrix before any row
    runs. A row that raises ValueError or BackendError is reported with its
    error and does not abort the rest; anything else, an OSError included,
    propagates. Rows with the http backend post to ``endpoint``. Returns one
    comparison row per spec: per-class F1 and UA.
    """
    templates = load_templates(template_file)
    rows: list[dict] = []
    for spec in specs:
        try:
            backend = make_backend(spec.backend, mock_seed, endpoint)
            result = run_experiment(
                spec,
                corpus,
                backend,
                cache=cache,
                templates=templates,
                concurrency=concurrency,
                ua_definition=ua_definition,
            )
            if out_dir is not None:
                write_run_artifacts(result, out_dir)
            row: dict = {"name": spec.name, "n_predictions": len(result.predictions)}
            if result.eval_report is not None:
                row["ua"] = result.eval_report.ua
                for label, f1 in result.eval_report.per_class_f1.items():
                    row[f"f1_{label}"] = f1
            if result.failures:
                row["n_failures"] = len(result.failures)
            rows.append(row)
        except (ValueError, BackendError) as exc:  # a bad row must not sink the matrix
            logger.error("experiment %s failed: %s", spec.name, exc)
            rows.append({"name": spec.name, "error": str(exc)})
    return rows


def format_matrix_table(rows: list[dict]) -> str:
    header = f"{'experiment':<42}{'UA':>8}" + "".join(f"{'F1 ' + l:>12}" for l in EVAL_LABELS)
    lines = [header]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['name']:<42}  ERROR: {row['error']}")
            continue
        ua = f"{row['ua']:.3f}" if "ua" in row else "-"
        cells = "".join(f"{row['f1_' + l]:>12.3f}" if "f1_" + l in row else f"{'-':>12}" for l in EVAL_LABELS)
        lines.append(f"{row['name']:<42}{ua:>8}" + cells)
    return "\n".join(lines)
