"""What a fresh process imports: the package loads no stage module; the CLI
loads a stage module or the backend layer `textemo.llm` only when a command
runs it, and the HTTP client (`textemo.httpclient`, `http.client`, `ssl`,
`urllib.request`) only when a request goes out; `logging` only when a line
is logged; no command loads `dataclasses`; and an HTTP run works with
`requests` unimportable."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import textemo
from textemo.cli import main
from textemo.fixtures import generate_corpus, write_corpus

DEFERRED = (
    "http.client",
    "ssl",
    "urllib.request",
    "textemo.httpclient",
    "textemo.llm",
    "textemo.experiments",
    "textemo.wer",
    "textemo.refine",
    "textemo.fixtures",
    "dataclasses",
    "logging",
)

PROBE = """
import json, sys
import textemo
stages = [m for m in sys.modules if m.startswith("textemo.")]
import textemo.cli
before = "http.client" in sys.modules
code = textemo.cli.main(sys.argv[1:])
print(json.dumps({"stages_on_package_import": stages, "http_client_on_import": before, "code": code,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (DEFERRED,)


def test_evaluate_process_loads_no_unused_stage(tmp_path):
    corpus = tmp_path / "corpus.json"
    write_corpus(generate_corpus(seed=21, n_records=100), corpus)
    out_dir = tmp_path / "runs"
    assert main(["run", str(corpus), "--name", "demo", "--text-source", "whispertiny", "--out-dir", str(out_dir)]) == 0

    argv = ["evaluate", "--predictions", str(out_dir / "demo.predictions.json"), "--corpus", str(corpus)]
    assert _probe(argv) == {"stages_on_package_import": [], "http_client_on_import": False, "code": 0, "loaded": []}


@pytest.mark.parametrize(
    "command, stages", [("validate", []), ("wer", ["textemo.wer"])], ids=["validate", "wer"]
)
def test_corpus_command_process_loads_only_its_stage(tmp_path, command, stages):
    corpus = tmp_path / "corpus.json"
    write_corpus(generate_corpus(seed=21, n_records=100), corpus)
    assert _probe([command, str(corpus)]) == {
        "stages_on_package_import": [],
        "http_client_on_import": False,
        "code": 0,
        "loaded": stages,
    }


@pytest.mark.parametrize("backend", ["mock", "http"])
def test_run_process_loads_no_http_client(tmp_path, backend):
    """A mock run, and an HTTP run that the cache answers in full, load
    neither the HTTP client nor `dataclasses`."""
    corpus = tmp_path / "corpus.json"
    write_corpus(generate_corpus(seed=21, n_records=100), corpus)
    argv = ["run", str(corpus), "--name", "demo", "--text-source", "whispertiny"]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    if backend == "http":
        # the fingerprint ignores the backend, so a mock run fills the cache
        assert main([*argv, "--out-dir", str(tmp_path / "mock")]) == 0
    # nothing listens on port 9; a request sent there would fail the run
    argv += ["--backend", backend, "--endpoint", "http://127.0.0.1:9/v1/chat/completions"]
    assert _probe([*argv, "--out-dir", str(tmp_path / "probe")], TEXTEMO_API_KEY="k") == {
        "stages_on_package_import": [],
        "http_client_on_import": False,
        "code": 0,
        "loaded": ["textemo.llm", "textemo.experiments"],
    }
    if backend == "http":
        probed, mocked = (tmp_path / out / "demo.predictions.json" for out in ("probe", "mock"))
        assert probed.read_bytes() == mocked.read_bytes()


def test_corpus_import_loads_no_dataclasses():
    probe = "import sys, textemo.corpus; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_a_logged_warning_is_one_formatted_line(tmp_path):
    """The first record loads `logging` and applies the CLI's format to it."""
    objects = generate_corpus(seed=21, n_records=60)
    random.Random(0).shuffle(objects)
    corpus = tmp_path / "shuffled.json"
    write_corpus(objects, corpus)
    argv = [sys.executable, "-c", PROBE, "validate", str(corpus)]
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["loaded"] == ["logging"]
    [line] = proc.stderr.splitlines()
    pattern = r"WARNING textemo\.corpus: records of \d+ script\(s\) are non-contiguous in file order, first \S+"
    assert re.fullmatch(pattern, line), line


def test_http_run_needs_no_requests(tmp_path, loopback):
    corpus = tmp_path / "corpus.json"
    objects = generate_corpus(seed=21, n_records=25)
    write_corpus(objects, corpus)
    out_dir = tmp_path / "runs"
    argv = ["run", str(corpus), "--name", "demo", "--text-source", "whispertiny", "--backend", "http"]
    argv += ["--endpoint", loopback.url(), "--out-dir", str(out_dir), "--concurrency", "2"]
    probe = 'import sys; sys.modules["requests"] = None; import textemo.cli; sys.exit(textemo.cli.main(sys.argv[1:]))'
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    targets = sum(obj["need_prediction"] == "yes" for obj in objects)
    assert len(loopback.received) == targets
    predictions = json.loads((out_dir / "demo.predictions.json").read_text(encoding="utf-8"))
    assert len(predictions) == targets and {p["prediction"] for p in predictions} == {"sad"}


def _probe(argv: list[str], **env: str) -> dict:
    """What a fresh process running the CLI on argv, with env added to its
    environment, imported, and its exit code; the process must print nothing
    to stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=_env(**env), capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stderr == ""
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env(**env: str) -> dict[str, str]:
    """This environment plus env, with the source tree importable."""
    src = str(Path(textemo.__file__).resolve().parents[1])
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
