"""Command-line entry points for the batch workflow.

Subcommands mirror the pipeline stages: validate, wer, refine, run, matrix,
evaluate, plus gen-fixture for synthetic test corpora.

Exit codes: 0 success; 1 invalid input (corpus, predictions, config,
templates or option values, printed as ``error: …``), a schema violation
found by validate, or a failed matrix row; 2 I/O error, or a command line
that argparse rejects; 3 authentication failure or requests that failed
after retries. Commands raise, and `main` alone maps exceptions to exit
codes.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

# Commands import the other stage modules, the backend layer `llm` among
# them, in their own bodies, so a process loads only what its subcommand
# runs: a matrix pass starts one `evaluate` process per row, and start-up is
# most of each one's time.
from . import BACKEND_KINDS, BACKEND_MOCK, DEFAULT_CONCURRENCY, DEFAULT_ENDPOINT, DEFAULT_MODEL, AuthError
from . import configure_logging
from . import corpus as corpus_mod

if TYPE_CHECKING:
    from .llm import CompletionCache

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_IO = 2
EXIT_BACKEND = 3

# refine's words for RefinementConfig's values: each table is its option's choices and their translation
_SELECTORS = {"llm": "llm", "longest": "longest_only"}
_UNITS = {"chars": "characters", "tokens": "tokens"}


def _make_cache(args: argparse.Namespace) -> CompletionCache | None:
    """The log in --cache-dir; without one, each run keeps its completions in memory."""
    from .llm import CompletionCache

    return CompletionCache(args.cache_dir) if args.cache_dir else None


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=BACKEND_KINDS, default=BACKEND_MOCK)
    parser.add_argument("--model", default=DEFAULT_MODEL, help="annotator model name")
    _add_request_args(parser)


def _add_request_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--endpoint", default=DEFAULT_ENDPOINT, help="chat-completions URL (http backend)")
    parser.add_argument("--cache-dir", default=None, help="completion cache directory")
    parser.add_argument("--concurrency", type=_at_least_one, default=DEFAULT_CONCURRENCY)
    parser.add_argument("--mock-seed", type=int, default=0)


def _at_least_one(text: str) -> int:
    """argparse type of --concurrency; a failure is a usage error (exit 2)."""
    try:
        value: int | None = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def cmd_validate(args: argparse.Namespace) -> int:
    objects = corpus_mod.read_objects(args.corpus)
    records, violations = corpus_mod.parse_records(objects, strict=True)
    for violation in violations:
        print(f"violation: {violation}")
    if violations:
        print(f"{len(violations)} violation(s) in {len(objects)} record(s)")
        return EXIT_FAILED
    corpus_mod.index_records(records)  # surfaces non-contiguity warnings
    blank = [rec.id.raw for rec in records for text in rec.transcriptions.values() if corpus_mod.is_blank(text)]
    if blank:
        print(f"blank: {len(blank)} transcription(s) are empty or whitespace only, first in {blank[0]}")
    print(f"ok: {len(objects)} record(s)")
    return EXIT_OK


def cmd_wer(args: argparse.Namespace) -> int:
    from . import wer as wer_mod

    report = wer_mod.wer_report(corpus_mod.load_corpus(args.corpus))
    print(report.format_table())
    if report.skipped:
        print(f"skipped: {report.skipped}")
    if args.wer_out:
        Path(args.wer_out).write_text(report.to_csv(), encoding="utf-8")
        print(f"wrote {args.wer_out}")
    return EXIT_OK


def cmd_refine(args: argparse.Namespace) -> int:
    from . import refine as refine_mod
    from .llm import BackendError, CompletionCache, fan_out, make_backend

    objects = corpus_mod.read_objects(args.infile)
    corpus = corpus_mod.build_corpus(objects)
    # an option left out is None, and RefinementConfig gives its default
    given = dict(min_length=args.min_length, length_unit=_UNITS.get(args.unit), selector=_SELECTORS.get(args.selector))
    cfg = refine_mod.RefinementConfig(**{field: value for field, value in given.items() if value is not None})
    backend = cache = None  # the longest selector sends nothing
    if cfg.selector == "llm":
        backend = make_backend(args.backend, args.mock_seed, args.endpoint)
        cache = CompletionCache(args.cache_dir or None)  # in memory without a directory: one candidate list asks once

    outcomes = fan_out(
        lambda record: refine_mod.refine_record(record, cfg, backend=backend, cache=cache, llm_model=args.model),
        corpus.records,
        args.concurrency,
    )
    unrefined: dict[str, str] = {}  # id -> why its selection failed
    sources: Counter[str] = Counter()
    for obj, record, outcome in zip(objects, corpus.records, outcomes):
        if isinstance(outcome, BackendError):
            unrefined[record.id.raw] = str(outcome)
            obj.pop(corpus_mod.ENSEMBLE_KEY, None)  # an earlier refine's choice would be read as this one's
        else:
            obj[corpus_mod.ENSEMBLE_KEY] = outcome.chosen
            sources[outcome.chosen_source] += 1

    corpus_mod.write_corpus(objects, args.outfile)
    refined = len(corpus.records) - len(unrefined)
    print(f"refined {refined}/{len(corpus.records)} record(s) -> {args.outfile}")
    kinds = (refine_mod.SOURCE_LLM, refine_mod.SOURCE_LONGEST, refine_mod.SOURCE_ALL_SHORT)
    print("chosen by: " + ", ".join(f"{kind}={sources[kind]}" for kind in kinds))
    if unrefined:
        print(f"{len(unrefined)} record(s) left unrefined: {unrefined}", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    from .experiments import ExperimentSpec, load_templates, run_experiment, write_run_artifacts
    from .llm import make_backend

    corpus = corpus_mod.load_corpus(args.corpus)
    options = vars(args)  # an option left out is None, and ExperimentSpec gives its default
    spec = ExperimentSpec(**{field: options[field] for field in ExperimentSpec._fields if options[field] is not None})
    result = run_experiment(
        spec,
        corpus,
        make_backend(spec.backend, args.mock_seed, args.endpoint),
        cache=_make_cache(args),
        templates=load_templates(args.template_file),
        concurrency=args.concurrency,
    )
    paths = write_run_artifacts(result, args.out_dir)
    print(
        f"{len(result.predictions)} prediction(s), fallback_count={result.fallback_count}, "
        f"cache_hit_rate={result.cache_hit_rate:.2f}"
    )
    if result.eval_report is not None:
        print(result.eval_report.format_table())
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    if result.failures:
        print(f"{len(result.failures)} record(s) failed; see retry manifest", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    from .experiments import format_matrix_table, load_experiment_config, run_matrix

    rows = run_matrix(
        load_experiment_config(args.config),
        corpus_mod.load_corpus(args.corpus),
        cache=_make_cache(args),
        out_dir=args.out_dir,
        template_file=args.template_file,
        concurrency=args.concurrency,
        mock_seed=args.mock_seed,
        endpoint=args.endpoint,
    )
    print(format_matrix_table(rows))
    if args.out_dir:
        # when every row failed, nothing has created the directory yet
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        summary = corpus_mod.write_json(Path(args.out_dir) / "matrix.json", rows)
        print(f"wrote {summary}")
    failed = [row["name"] for row in rows if "error" in row]
    if failed:
        print(f"{len(failed)} experiment(s) failed: {failed}", file=sys.stderr)
        return EXIT_FAILED
    incomplete = [row["name"] for row in rows if row.get("n_failures")]
    if incomplete:
        print(f"{len(incomplete)} experiment(s) had failed requests: {incomplete}", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import metrics

    corpus = corpus_mod.load_corpus(args.corpus)
    predictions = corpus_mod.read_json(args.predictions)
    _check_prediction_entries(predictions)

    by_id = {rec.id.raw: rec for rec in corpus.records}
    pairs: list[tuple[str | None, str]] = []
    missing = 0
    for entry in predictions:
        rec = by_id.get(entry["id"])
        if rec is None:
            missing += 1
            continue
        pairs.append((rec.emotion, entry["prediction"]))
    if missing:
        print(f"warning: {missing} prediction id(s) not in corpus", file=sys.stderr)
    report = metrics.evaluate(pairs)
    print(report.format_table())
    if args.eval_out:
        corpus_mod.write_json(args.eval_out, report.to_dict())
        print(f"wrote {args.eval_out}")
    return EXIT_OK


def _check_prediction_entries(predictions: object) -> None:
    """Raise ValueError unless a decoded predictions file can be scored.

    It must be a list of objects with a string "id" and a string
    "prediction", and no id may appear twice.
    """
    if not isinstance(predictions, list):
        raise ValueError("predictions file must hold a JSON array")
    for index, entry in enumerate(predictions):
        if not isinstance(entry, dict):
            raise ValueError(f"predictions entry {index}: expected a JSON object")
        for key in ("id", "prediction"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"predictions entry {index}: {key!r} must be a string")
    duplicates = [pid for pid, n in Counter(entry["id"] for entry in predictions).items() if n > 1]
    if duplicates:
        raise ValueError(f"duplicate prediction id(s): {duplicates}")


def cmd_gen_fixture(args: argparse.Namespace) -> int:
    from . import fixtures

    objects = fixtures.generate_corpus(seed=args.seed, n_records=args.records)
    corpus_mod.write_corpus(objects, args.out)
    print(f"wrote {len(objects)} record(s) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="textemo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="strict-mode schema and id-grammar check")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("wer", help="per-model, per-emotion WER report")
    p.add_argument("corpus")
    p.add_argument("--wer-out", default=None, help="write the report as CSV")
    p.set_defaults(func=cmd_wer)

    p = sub.add_parser("refine", help="add the refined 'ensemble' transcription")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--selector", choices=_SELECTORS)
    p.add_argument("--min-length", type=int)
    p.add_argument("--unit", choices=_UNITS)
    _add_backend_args(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("run", help="predict emotions for one experiment")
    p.add_argument("corpus")
    p.add_argument("--name", default="run")
    p.add_argument("--text-source", required=True, help="ASR model name or 'ensemble'")
    p.add_argument("--prompt", default=None)
    p.add_argument("--template-file", default=None)
    p.add_argument("--context-length", type=int, default=None)
    p.add_argument("--context-mode", choices=corpus_mod.CONTEXT_MODES, default=None)
    p.add_argument("--out-dir", default="runs")
    _add_backend_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("matrix", help="run a config of experiments and compare")
    p.add_argument("corpus")
    p.add_argument("--config", default=None, help="experiments JSON (default: shipped matrix)")
    p.add_argument("--template-file", default=None)
    p.add_argument("--out-dir", default=None)
    _add_request_args(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("evaluate", help="score a predictions file against corpus labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--eval-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-fixture", help="write a seeded synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--records", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level="INFO", format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except AuthError as exc:
        print(f"auth error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # SchemaError, JSONDecodeError, UnicodeDecodeError, EmptyInput, bad options
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
