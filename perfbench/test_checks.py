"""The benchmark's checks pass on the program's real output and catch a
tampered artifact.

    python3 -m pytest perfbench -q     (from the repository root)
"""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import stub  # noqa: E402
from textemo import cli  # noqa: E402
from textemo.refine import SELECTION_INSTRUCTION  # noqa: E402

DATA = HERE.parent / "src" / "textemo" / "data"
TEMPLATES = checks.parse_templates((DATA / "templates.txt").read_text(encoding="utf-8"))
SPEC = {"name": "t", "text_source": "ensemble", "prompt": "baseline", "context_mode": "script",
        "context_length": 5, "model": "gpt-3.5-turbo"}


def textemo(*args) -> None:
    assert cli.main([str(a) for a in args]) == 0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small generated corpus, refined by the program's llm selector."""
    tmp = tmp_path_factory.mktemp("corpus")
    raw = gen.generate(3, sessions=(2,), per_recording=60)
    gen.write(raw, tmp / "raw.json")
    textemo("refine", "--in", tmp / "raw.json", "--out", tmp / "refined.json", "--backend", "mock",
            "--concurrency", 1)
    return tmp, raw, json.loads((tmp / "refined.json").read_text(encoding="utf-8"))


def run_args(tmp: Path, out: Path, *extra) -> list:
    return ["run", tmp / "refined.json", "--name", SPEC["name"], "--text-source", SPEC["text_source"],
            "--prompt", SPEC["prompt"], "--context-mode", SPEC["context_mode"],
            "--context-length", SPEC["context_length"], "--out-dir", out, "--concurrency", 1, *extra]


def other_label(label: str) -> str:
    return next(l for l in checks.SCORED if l != label)


def test_generator_ids_are_valid_and_seeded(tmp_path):
    objects = gen.generate(5, sessions=(1, 2), per_recording=80)
    assert len(objects) == 320
    assert objects == gen.generate(5, sessions=(1, 2), per_recording=80)
    gen.write(objects, tmp_path / "c.json")
    textemo("validate", tmp_path / "c.json")


def test_wer_check_catches_a_tampered_cell(corpus, tmp_path):
    tmp, raw, _ = corpus
    textemo("wer", tmp / "raw.json", "--wer-out", tmp_path / "wer.csv")
    text = (tmp_path / "wer.csv").read_text(encoding="utf-8")
    checks.check_wer(raw, text)
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = f"{float(cells[2]) + 0.0001:.4f}"
    lines[1] = ",".join(cells)
    with pytest.raises(checks.CheckError, match="WER cell"):
        checks.check_wer(raw, "\n".join(lines) + "\n")


def test_refine_check_catches_a_swapped_ensemble(corpus):
    _, raw, refined = corpus
    checks.check_refine(raw, refined, SELECTION_INSTRUCTION, "gpt-3.5-turbo", 0, 5)
    tampered = [dict(obj) for obj in refined]
    record = next(o for o in tampered if len(set(checks.transcriptions(o).values()) - {o["ensemble"]}) > 0)
    record["ensemble"] = next(t for t in checks.transcriptions(record).values() if t != record["ensemble"])
    with pytest.raises(checks.CheckError, match="ensemble"):
        checks.check_refine(raw, tampered, SELECTION_INSTRUCTION, "gpt-3.5-turbo", 0, 5)


def test_mock_and_eval_checks_catch_a_tampered_prediction(corpus, tmp_path):
    tmp, _, refined = corpus
    textemo(*run_args(tmp, tmp_path, "--backend", "mock"))
    predictions = json.loads((tmp_path / "t.predictions.json").read_text(encoding="utf-8"))
    report = json.loads((tmp_path / "t.eval.json").read_text(encoding="utf-8"))
    template = TEMPLATES[SPEC["prompt"]]
    checks.check_prediction_ids(refined, predictions, "t")
    checks.check_eval(refined, predictions, report, "t")
    checks.check_mock_sample(refined, predictions, SPEC, template, 0, random.Random(0), len(predictions))

    scored = {o["id"] for o in refined if o["emotion"] in checks.SCORED}
    victim = next(i for i, p in enumerate(predictions) if p["id"] in scored)
    tampered = [dict(p) for p in predictions]
    tampered[victim]["prediction"] = other_label(tampered[victim]["prediction"])
    with pytest.raises(checks.CheckError):
        checks.check_mock_sample(refined, tampered, SPEC, template, 0, random.Random(0), len(tampered))
    with pytest.raises(checks.CheckError, match="confusion"):
        checks.check_eval(refined, tampered, report, "t")
    with pytest.raises(checks.CheckError, match="need_prediction"):
        checks.check_prediction_ids(refined, predictions + predictions[:1], "t")


def test_stub_check_catches_a_tampered_prediction(corpus, tmp_path, monkeypatch):
    tmp, _, refined = corpus
    server = stub.StubServer(delay=0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("TEXTEMO_API_KEY", "test")
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        textemo(*run_args(tmp, tmp_path, "--backend", "http", "--endpoint", endpoint))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert server.stats.requests > 0 and server.stats.connections >= 1
    predictions = json.loads((tmp_path / "t.predictions.json").read_text(encoding="utf-8"))
    template = TEMPLATES[SPEC["prompt"]]
    checks.check_stub_answers(refined, predictions, SPEC, template, stub.answer)
    predictions[0]["prediction"] = other_label(predictions[0]["prediction"])
    with pytest.raises(checks.CheckError, match="stub said"):
        checks.check_stub_answers(refined, predictions, SPEC, template, stub.answer)


def test_identical_catches_a_differing_warm_file(tmp_path):
    for side, text in (("cold", "a"), ("warm", "b")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "x.predictions.json").write_text(text, encoding="utf-8")
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_identical(tmp_path / "cold", tmp_path / "warm", "*.predictions.json")


@pytest.mark.parametrize("verify", [
    lambda out: checks.check_prediction_ids([], [{"prediction": "sad"}], "t"),
    lambda out: checks.check_wer([], ""),
    lambda out: run.read_json(out / "matrix.json"),
])
def test_a_malformed_artifact_is_a_failed_check(tmp_path, verify):
    class Broken(run.Workload):
        artifacts = ()

    workload = Broken()
    workload.verify = verify
    with pytest.raises(checks.CheckError, match="malformed artifact"):
        run.check_round(workload, tmp_path, tmp_path, None)
