from __future__ import annotations

import json

import pytest

from textemo.corpus import build_corpus
from textemo.experiments import (
    ExperimentSpec,
    format_matrix_table,
    load_experiment_config,
    run_experiment,
    run_matrix,
    write_run_artifacts,
)
from textemo.fixtures import generate_corpus
from textemo.llm import CompletionCache, MockBackend, RetryPolicy, TransportError

from conftest import make_entry


@pytest.fixture
def small_corpus():
    return build_corpus(generate_corpus(seed=11, n_records=30))


def mock_spec(name="exp", **overrides) -> ExperimentSpec:
    defaults = dict(
        name=name,
        text_source="whispertiny",
        prompt="baseline",
        context_length=3,
        context_mode="session",
        backend="mock",
        model="gpt-3.5-turbo",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class CountingBackend(MockBackend):
    """A MockBackend that counts the requests sent to it."""

    def __init__(self):
        super().__init__()
        self.sends = 0

    def send(self, request):
        self.sends += 1
        return super().send(request)


class TestRunExperiment:
    def test_predicts_every_flagged_record(self, small_corpus):
        result = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0))
        flagged = [rec for rec in small_corpus.records if rec.need_prediction]
        assert len(result.predictions) == len(flagged)
        assert [e.id for e in result.predictions] == [r.id.raw for r in flagged]
        assert all(e.prediction in ("neutral", "sad", "happy", "angry") for e in result.predictions)

    def test_deterministic_across_calls(self, small_corpus):
        a = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0))
        b = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0))
        assert [(e.id, e.prediction) for e in a.predictions] == [
            (e.id, e.prediction) for e in b.predictions
        ]

    def test_concurrency_does_not_change_output(self, small_corpus):
        serial = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0), concurrency=1)
        parallel = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0), concurrency=8)
        assert [(e.id, e.prediction) for e in serial.predictions] == [
            (e.id, e.prediction) for e in parallel.predictions
        ]

    def test_eval_report_present_with_labels(self, small_corpus):
        result = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0))
        assert result.eval_report is not None
        assert 0.0 <= result.eval_report.ua <= 1.0

    def test_cache_hits_counted(self, small_corpus, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        cold = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0), cache=cache)
        warm = run_experiment(mock_spec(), small_corpus, MockBackend(seed=0), cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_misses == 0
        assert warm.cache_hit_rate == 1.0

    def test_no_target_with_a_target_class_truth_warns_and_writes_no_eval(self, tmp_path, caplog):
        objects = [make_entry(f"Ses01F_impro01_F{i:03d}", emotion="frustrated", need_prediction="yes") for i in range(3)]
        with caplog.at_level("WARNING"):
            result = run_experiment(mock_spec(), build_corpus(objects), MockBackend(seed=0))
        assert [m for m in caplog.messages if "truth" in m] == [
            "experiment exp: truth labels exist but none in the target set"
        ]
        assert result.eval_report is None and len(result.predictions) == 3
        assert "eval" not in write_run_artifacts(result, tmp_path)
        assert not (tmp_path / "exp.eval.json").exists()

    def test_missing_text_source_warns_once_per_run(self, caplog):
        objects = [
            make_entry(f"Ses01F_impro01_F{i:03d}", need_prediction="yes", models={"hubertlarge": f"line {i}"})
            if i % 2
            else make_entry(f"Ses01F_impro01_F{i:03d}", need_prediction="yes")
            for i in range(40)
        ]
        with caplog.at_level("WARNING"):
            run_experiment(mock_spec(context_length=10), build_corpus(objects), MockBackend(seed=0))
        warnings = [m for m in caplog.messages if "falling back" in m]
        assert len(warnings) == 1
        assert "20 of 40 records have no 'whispertiny' text" in warnings[0]

    def test_unknown_text_source_rejected(self, small_corpus):
        backend = CountingBackend()
        with pytest.raises(ValueError, match="unknown text source"):
            run_experiment(mock_spec(text_source="nosuch"), small_corpus, backend)
        assert backend.sends == 0

    def test_unknown_template_rejected(self, small_corpus):
        backend = CountingBackend()
        with pytest.raises(ValueError, match="unknown template"):
            run_experiment(mock_spec(prompt="nosuch"), small_corpus, backend)
        assert backend.sends == 0

    def test_partial_failure_goes_to_manifest(self, small_corpus):
        class HalfBroken:
            def __init__(self):
                self.n = 0

            def send(self, request):
                self.n += 1
                if self.n % 2 == 0:
                    raise TransportError("unlucky", request.fingerprint)
                return "sad"

        retry = RetryPolicy(attempts=1, sleep=lambda _s: None)
        result = run_experiment(mock_spec(), small_corpus, HalfBroken(), retry=retry, concurrency=1)
        assert result.failures
        assert result.predictions
        assert all(f["fingerprint"] for f in result.failures)
        flagged = sum(1 for rec in small_corpus.records if rec.need_prediction)
        assert len(result.predictions) + len(result.failures) == flagged

    def test_each_request_is_hashed_once(self, small_corpus, tmp_path, monkeypatch):
        import hashlib

        class Constant:  # hashes nothing itself, unlike MockBackend
            def send(self, request):
                return "sad"

        sha256 = hashlib.sha256
        calls = []
        monkeypatch.setattr(hashlib, "sha256", lambda *args: calls.append(1) or sha256(*args))
        cache = CompletionCache(tmp_path / "cache")
        result = run_experiment(mock_spec(), small_corpus, Constant(), cache=cache, concurrency=1)
        assert result.predictions and not result.failures
        assert len(calls) == len(result.predictions)


class TestBlankText:
    @pytest.mark.parametrize("source, blank", [("whispertiny", ""), ("whispertiny", " \t"), ("ensemble", "")])
    def test_blank_target_falls_back_to_longest_non_blank(self, caplog, source, blank):
        class Recording:
            def __init__(self):
                self.prompts: list[str] = []

            def send(self, request):
                self.prompts.append(request.prompt)
                return "sad"

        # a whitespace-only transcription longer than any text must not be chosen
        models = {"whispertiny": "line {}", "hubertlarge": "line {} yes", "w2v2100": " " * 30}
        objects = [
            make_entry(
                f"Ses01F_impro01_F{i:03d}", need_prediction="yes", models={m: t.format(i) for m, t in models.items()}
            )
            for i in range(4)
        ]
        for obj in objects:
            obj["ensemble"] = obj["hubertlarge"]
        objects[2][source] = blank
        backend = Recording()
        with caplog.at_level("WARNING"):
            result = run_experiment(mock_spec(text_source=source), build_corpus(objects), backend, concurrency=1)
        assert len(result.predictions) == 4 and not result.failures
        assert "the sentence line 2 yes from" in backend.prompts[2]
        assert any(f"1 of 4 records have no {source!r} text" in m for m in caplog.messages)


class TestArtifacts:
    def test_files_written(self, small_corpus, tmp_path):
        result = run_experiment(mock_spec(name="demo"), small_corpus, MockBackend(seed=0))
        paths = write_run_artifacts(result, tmp_path)
        predictions = json.loads(paths["predictions"].read_text())
        assert predictions == [{"id": e.id, "prediction": e.prediction} for e in result.predictions]
        assert paths["eval"].exists()
        log_lines = [json.loads(l) for l in paths["log"].read_text().splitlines()]
        assert log_lines[-1]["event"] == "summary"

    def test_log_has_fingerprint_for_every_prediction(self, small_corpus, tmp_path):
        result = run_experiment(mock_spec(name="demo"), small_corpus, MockBackend(seed=0))
        paths = write_run_artifacts(result, tmp_path)
        events = [json.loads(l) for l in paths["log"].read_text().splitlines()]
        logged = {e["id"]: e["fingerprint"] for e in events if e["event"] == "prediction"}
        predictions = json.loads(paths["predictions"].read_text())
        for entry in predictions:
            assert logged.get(entry["id"])

    def test_retry_manifest_written_on_failures(self, small_corpus, tmp_path):
        class Dead:
            def send(self, request):
                raise TransportError("down", request.fingerprint)

        retry = RetryPolicy(attempts=1, sleep=lambda _s: None)
        result = run_experiment(mock_spec(name="dead"), small_corpus, Dead(), retry=retry, concurrency=1)
        paths = write_run_artifacts(result, tmp_path)
        manifest = json.loads(paths["retry"].read_text())
        assert manifest and all(m["fingerprint"] for m in manifest)


class TestMatrix:
    def test_shipped_config_has_thirteen_rows(self):
        specs = load_experiment_config()
        assert len(specs) == 13
        assert len({s.name for s in specs}) == 13

    def test_shipped_config_covers_published_grid(self):
        specs = load_experiment_config()
        grid = [(s.text_source, s.prompt, s.context_length, s.context_mode, s.model) for s in specs]
        assert grid[0] == ("whispertiny", "baseline", 3, "session", "gpt-3.5-turbo")
        assert grid[1] == ("w2v2960largeself", "baseline", 3, "session", "gpt-3.5-turbo")
        assert grid[2] == ("w2v2960largeself", "baseline", 3, "script", "gpt-3.5-turbo")
        assert grid[3] == ("ensemble", "baseline", 3, "session", "gpt-3.5-turbo")
        assert grid[4] == ("ensemble", "baseline", 3, "script", "gpt-3.5-turbo")
        assert grid[5] == ("ensemble", "baseline", 5, "script", "gpt-3.5-turbo")
        assert grid[6] == ("ensemble", "baseline", 10, "script", "gpt-3.5-turbo")
        assert grid[7] == ("ensemble", "baseline", 15, "script", "gpt-3.5-turbo")
        assert grid[8] == ("ensemble", "expert", 10, "script", "gpt-3.5-turbo")
        assert grid[9] == ("ensemble", "gambler", 10, "script", "gpt-3.5-turbo")
        assert grid[10] == ("ensemble", "cot", 10, "script", "gpt-3.5-turbo")
        assert grid[11] == ("ensemble", "cot_fired", 10, "script", "gpt-3.5-turbo")
        assert grid[12] == ("ensemble", "baseline", 10, "script", "gpt-4")

    def test_context_length_sweep_rows(self, small_corpus, tmp_path):
        specs = [
            mock_spec(name=f"ctx{n}", context_length=n, context_mode="script", text_source="whispertiny")
            for n in (5, 10, 15)
        ]
        rows = run_matrix(specs, small_corpus, out_dir=tmp_path)
        assert [r["name"] for r in rows] == ["ctx5", "ctx10", "ctx15"]
        assert all("ua" in r for r in rows)

    def test_empty_config(self, small_corpus):
        assert run_matrix([], small_corpus) == []

    def test_identical_specs_identical_rows(self, small_corpus, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        specs = [mock_spec(name="a"), mock_spec(name="b")]
        rows = run_matrix(specs, small_corpus, cache=cache)
        assert {k: v for k, v in rows[0].items() if k != "name"} == {
            k: v for k, v in rows[1].items() if k != "name"
        }

    def test_failing_row_does_not_abort_others(self, small_corpus):
        specs = [mock_spec(name="bad", text_source="nosuch"), mock_spec(name="good")]
        rows = run_matrix(specs, small_corpus)
        assert "error" in rows[0]
        assert "ua" in rows[1]

    def test_programming_error_propagates(self, small_corpus, monkeypatch):
        def broken(self, request):
            raise TypeError("bug in the backend")

        monkeypatch.setattr(MockBackend, "send", broken)
        with pytest.raises(TypeError, match="bug in the backend"):
            run_matrix([mock_spec(name="one"), mock_spec(name="two")], small_corpus, concurrency=2)

    def test_duplicate_names_rejected(self, tmp_path):
        config = tmp_path / "dupl.json"
        row = {"name": "same", "text_source": "whispertiny"}
        config.write_text(json.dumps({"experiments": [row, row]}))
        with pytest.raises(ValueError, match="unique"):
            load_experiment_config(config)

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../evil", "/abs", "a\0b"])
    def test_name_must_be_one_path_component(self, name):
        with pytest.raises(ValueError, match="single path component"):
            mock_spec(name=name)

    def test_format_table(self, small_corpus):
        rows = run_matrix([mock_spec(name="one")], small_corpus)
        table = format_matrix_table(rows)
        assert "one" in table
        assert "UA" in table
