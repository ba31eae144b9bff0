"""What a fresh process imports: the package loads no stage module, and the
CLI loads stage modules, and `requests`, only when a command runs them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import textemo
from textemo.cli import main
from textemo.fixtures import generate_corpus, write_corpus

DEFERRED = ("requests", "textemo.experiments", "textemo.wer", "textemo.refine", "textemo.fixtures")

PROBE = """
import json, sys
import textemo
stages = [m for m in sys.modules if m.startswith("textemo.")]
import textemo.cli
before = "requests" in sys.modules
code = textemo.cli.main(sys.argv[1:])
print(json.dumps({"stages_on_package_import": stages, "requests_on_import": before, "code": code,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (DEFERRED,)


def test_evaluate_process_loads_no_unused_stage(tmp_path):
    corpus = tmp_path / "corpus.json"
    write_corpus(generate_corpus(seed=21, n_records=25), corpus)
    out_dir = tmp_path / "runs"
    assert main(["run", str(corpus), "--name", "demo", "--text-source", "whispertiny", "--out-dir", str(out_dir)]) == 0

    argv = ["evaluate", "--predictions", str(out_dir / "demo.predictions.json"), "--corpus", str(corpus)]
    src = str(Path(textemo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert probe == {"stages_on_package_import": [], "requests_on_import": False, "code": 0, "loaded": []}
