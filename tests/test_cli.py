from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from textemo.cli import build_parser, main
from textemo.corpus import KNOWN_ASR_MODELS
from textemo.fixtures import generate_corpus, write_corpus

from conftest import Reply, make_entry

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def fixture_corpus(tmp_path) -> Path:
    path = tmp_path / "corpus.json"
    write_corpus(generate_corpus(seed=21, n_records=25), path)
    return path


def corpus_with_repeated_target(tmp_path: Path, copies: int) -> tuple[Path, str, int]:
    """The 25-record fixture with `copies` copies of its first target record
    appended; returns the file, the repeated id and its first position."""
    objects = generate_corpus(seed=21, n_records=25)
    first = next(i for i, obj in enumerate(objects) if obj["need_prediction"] == "yes")
    path = tmp_path / "repeated.json"
    write_corpus(objects + [objects[first]] * copies, path)
    return path, objects[first]["id"], first


@pytest.fixture
def rejecting_session(loopback):
    """A loopback endpoint that answers every POST with HTTP 401 after 2 ms of
    latency, so the other workers get to run; it records the posts."""
    loopback.script(default=Reply(401, body="unauthorized", delay=0.002))
    return loopback


class TestValidate:
    def test_clean_file(self, sample_corpus_file, capsys):
        assert main(["validate", str(sample_corpus_file)]) == 0
        assert "ok: 1 record" in capsys.readouterr().out

    def test_malformed_id_listed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([make_entry("Ses01F_01_F000"), {**make_entry("Ses01_F000")}]))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "violation" in out
        assert "malformed id" in out

    def test_one_malformed_id_per_reason(self, capsys):
        # CI runs the same corpus through the console script against the same file
        assert main(["validate", str(GOLDEN_DIR / "malformed_ids.json")]) == 1
        assert capsys.readouterr().out == (GOLDEN_DIR / "malformed_ids.validate.txt").read_text(encoding="utf-8")

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_duplicate_ids_listed(self, tmp_path, capsys):
        path, raw, first = corpus_with_repeated_target(tmp_path, copies=2)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"violation: record 25, key 'id': duplicate id {raw!r}, first at record {first}",
            f"violation: record 26, key 'id': duplicate id {raw!r}, first at record {first}",
            "2 violation(s) in 27 record(s)",
        ]

    def test_blank_transcriptions_are_counted(self, tmp_path, capsys):
        path = tmp_path / "blank.json"
        objects = [
            make_entry("Ses01F_01_F000"),
            make_entry("Ses01F_01_M001", models={"whispertiny": "", "hubertlarge": "   "}),
            make_entry("Ses01F_01_F002", models={"whispertiny": "fine", "hubertlarge": "\t"}),
        ]
        path.write_text(json.dumps(objects))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "blank: 3 transcription(s) are empty or whitespace only, first in Ses01F_01_M001",
            "ok: 3 record(s)",
        ]

    def test_clean_file_reports_no_blanks(self, sample_corpus_file, capsys):
        assert main(["validate", str(sample_corpus_file)]) == 0
        assert "blank" not in capsys.readouterr().out

    def test_non_contiguous_script_warns(self, tmp_path, capsys, caplog):
        path = tmp_path / "split.json"
        path.write_text(
            json.dumps(
                [
                    make_entry("Ses01F_script01_1_F000"),
                    make_entry("Ses01F_impro02_M000"),
                    make_entry("Ses01F_script01_1_F001"),
                ]
            )
        )
        with caplog.at_level("WARNING"):
            assert main(["validate", str(path)]) == 0
        assert "ok: 3 record(s)" in capsys.readouterr().out
        assert any("non-contiguous" in message for message in caplog.messages)

    def test_strict_rejects_unknown_model(self, tmp_path):
        entry = make_entry("Ses01F_01_F000")
        entry["brandnewasr"] = "hi there"
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps([entry]))
        assert main(["validate", str(path)]) == 1


class TestWer:
    def test_report_and_csv(self, sample_corpus_file, tmp_path, capsys):
        out_csv = tmp_path / "wer.csv"
        assert main(["wer", str(sample_corpus_file), "--wer-out", str(out_csv)]) == 0
        stdout = capsys.readouterr().out
        assert "whispertiny" in stdout
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("model,")
        assert len(lines) == 13  # header + 11 models + counts

    def test_records_it_cannot_score_are_counted(self, tmp_path, sample_entry, capsys):
        path = tmp_path / "corpus.json"
        write_corpus([sample_entry, make_entry("Ses01F_01_F000")], path)  # the second has no ground truth
        assert main(["wer", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "skipped: {'no_ground_truth': 1}"


class TestRefine:
    def test_longest_selector_adds_ensemble(self, tmp_path, sample_entry, capsys):
        infile = tmp_path / "in.json"
        outfile = tmp_path / "out.json"
        infile.write_text(json.dumps([sample_entry]))
        assert main(["refine", "--in", str(infile), "--out", str(outfile), "--selector", "longest"]) == 0
        refined = json.loads(outfile.read_text())
        assert refined[0]["ensemble"] == "now i suppose i have been bat's going from me"
        # untouched keys are preserved
        assert refined[0]["Ground truth"] == sample_entry["Ground truth"]

    def test_a_failed_write_leaves_the_output_file_as_it_was(self, tmp_path, sample_entry, capsys):
        corpus = tmp_path / "x.json"
        sample_entry["whispertiny"] = "\ud800"  # a lone surrogate: it decodes from an escape but UTF-8 cannot hold it
        corpus.write_text(json.dumps([sample_entry]), encoding="utf-8")
        before = corpus.read_bytes()
        argv = ["refine", "--in", str(corpus), "--out", str(corpus), "--selector", "longest"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't encode character '\\ud800'")
        assert corpus.read_bytes() == before

    def test_longest_selector_opens_no_cache(self, tmp_path, fixture_corpus):
        cache = tmp_path / "newcache"
        argv = ["refine", "--in", str(fixture_corpus), "--out", str(tmp_path / "out.json"), "--selector", "longest"]
        assert main(argv + ["--cache-dir", str(cache)]) == 0
        assert not cache.exists()

    def test_llm_selector_with_mock(self, tmp_path, fixture_corpus):
        outfile = tmp_path / "refined.json"
        code = main(
            ["refine", "--in", str(fixture_corpus), "--out", str(outfile), "--selector", "llm", "--backend", "mock"]
        )
        assert code == 0
        refined = json.loads(outfile.read_text())
        assert all("ensemble" in obj for obj in refined)
        for obj in refined:
            candidates = [
                v for k, v in obj.items() if k not in ("need_prediction", "emotion", "id", "speaker", "Ground truth", "ensemble")
            ]
            assert obj["ensemble"] in candidates

    def test_selection_options_left_out_are_none(self):
        args = build_parser().parse_args(["refine", "--in", "a", "--out", "b"])
        assert (args.selector, args.unit, args.min_length) == (None, None, None)

    def test_without_selection_options_it_selects_by_llm_over_five_characters(self, tmp_path, fixture_corpus):
        outputs = []
        for options in ([], ["--selector", "llm", "--min-length", "5", "--unit", "chars"]):
            out = tmp_path / f"refined-{len(options)}.json"
            assert main(["refine", "--in", str(fixture_corpus), "--out", str(out), *options]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_concurrency_does_not_change_output(self, tmp_path, fixture_corpus):
        outputs = []
        for concurrency in ("1", "4"):
            out = tmp_path / f"refined-{concurrency}.json"
            argv = ["refine", "--in", str(fixture_corpus), "--out", str(out), "--concurrency", concurrency]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    @pytest.mark.parametrize("command", ["refine", "run", "matrix"])
    def test_concurrency_below_one_is_a_usage_error(self, tmp_path, fixture_corpus, capsys, command, value):
        argv = {
            "refine": ["refine", "--in", fixture_corpus, "--out", tmp_path / "out.json"],
            "run": ["run", fixture_corpus, "--text-source", "whispertiny", "--out-dir", tmp_path / "runs"],
            "matrix": ["matrix", fixture_corpus, "--out-dir", tmp_path / "matrix"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([str(arg) for arg in argv] + ["--concurrency", value])
        assert excinfo.value.code == 2
        assert "--concurrency: expected an integer of at least 1" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["corpus.json"]

    def test_non_string_cached_raw_text_is_recomputed(self, tmp_path, fixture_corpus):
        cache = tmp_path / "cache"
        argv = ["refine", "--in", str(fixture_corpus), "--selector", "llm", "--backend", "mock"]
        argv += ["--cache-dir", str(cache)]
        assert main(argv + ["--out", str(tmp_path / "cold.json")]) == 0
        log = cache / "completions.jsonl"
        first, *rest = log.read_text(encoding="utf-8").splitlines(keepends=True)
        fingerprint = json.loads(first)["fingerprint"]
        corrupt = json.dumps({"fingerprint": fingerprint, "raw_text": 5})
        log.write_text(corrupt + "\n" + "".join(rest), encoding="utf-8")
        assert main(argv + ["--out", str(tmp_path / "rerun.json")]) == 0
        assert (tmp_path / "rerun.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
        appended = log.read_text(encoding="utf-8").splitlines()[len(rest) + 1 :]
        assert [json.loads(line) for line in appended] == [json.loads(first)]

    def test_records_with_the_same_candidates_send_one_request(self, tmp_path, monkeypatch):
        from textemo.llm import MockBackend

        sent = []
        send = MockBackend.send

        def slow_send(self, request):
            sent.append(request.fingerprint)
            time.sleep(0.05)
            return send(self, request)

        monkeypatch.setattr(MockBackend, "send", slow_send)
        infile = tmp_path / "in.json"
        write_corpus([make_entry("Ses01F_01_F000"), make_entry("Ses01F_01_M000")], infile)
        cache = tmp_path / "cache"
        argv = ["refine", "--in", str(infile), "--out", str(tmp_path / "out.json"), "--cache-dir", str(cache)]
        assert main(argv + ["--concurrency", "4"]) == 0
        assert len(sent) == 1
        assert len((cache / "completions.jsonl").read_text(encoding="utf-8").splitlines()) == 1

    @pytest.mark.parametrize("concurrency", ["1", "4"])
    def test_without_a_cache_dir_records_with_the_same_candidates_send_one_request(
        self, tmp_path, monkeypatch, concurrency
    ):
        from textemo.llm import MockBackend

        sent = []
        send = MockBackend.send

        def slow_send(self, request):
            sent.append(request.fingerprint)
            time.sleep(0.05)
            return send(self, request)

        monkeypatch.setattr(MockBackend, "send", slow_send)
        infile = tmp_path / "in.json"
        write_corpus([make_entry(f"Ses01F_01_{sex}00{n}") for n in range(3) for sex in "FM"], infile)
        argv = ["refine", "--in", str(infile), "--out", str(tmp_path / "out.json"), "--concurrency", concurrency]
        assert main(argv) == 0
        assert len(sent) == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["in.json", "out.json"]

    def test_how_each_record_was_chosen_is_counted(self, tmp_path, monkeypatch, capsys):
        from textemo.llm import MockBackend

        monkeypatch.setattr(MockBackend, "send", lambda self, request: "I think so")
        infile = tmp_path / "in.json"
        objects = [
            make_entry("Ses01F_01_F000", models={"whispertiny": "i think so", "hubertlarge": "i think so yes"}),
            make_entry("Ses01F_01_M001", models={"whispertiny": "well i suppose", "hubertlarge": "i suppose so"}),
            make_entry("Ses01F_01_F002", models={"whispertiny": "no", "hubertlarge": "nah"}),
        ]
        write_corpus(objects, infile)
        assert main(["refine", "--in", str(infile), "--out", str(tmp_path / "out.json")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "chosen by: llm_selected=1, longest_fallback=1, all_short_longest=1"
        )

    def test_a_failed_selection_leaves_its_record_unrefined(self, tmp_path, monkeypatch, capsys):
        from textemo.llm import BadRequest, MockBackend

        send = MockBackend.send
        rejected = []

        def reject_one(self, request):
            if "rejected text" in request.prompt:
                rejected.append(request.fingerprint)
                raise BadRequest("request rejected (HTTP 400)", request.fingerprint)
            return send(self, request)

        monkeypatch.setattr(MockBackend, "send", reject_one)
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        objects = [make_entry("Ses01F_01_F000"), make_entry("Ses01F_01_M001", text="rejected text")]
        # the last two were refined before: the one that refines again gets a new ensemble, the other loses its own
        objects += [make_entry("Ses01F_01_F002", text="well i do"), make_entry("Ses01F_01_M003", text="rejected text too")]
        for obj in objects[2:]:
            obj["ensemble"] = "an earlier choice"
        write_corpus(objects, infile)
        assert main(["refine", "--in", str(infile), "--out", str(outfile), "--concurrency", "1"]) == 3
        out, err = capsys.readouterr()
        assert "refined 2/4 record(s)" in out
        why = [f"request rejected (HTTP 400) [fingerprint {fingerprint}]" for fingerprint in rejected]
        assert err == f"2 record(s) left unrefined: {{'Ses01F_01_M001': '{why[0]}', 'Ses01F_01_M003': '{why[1]}'}}\n"
        refined = json.loads(outfile.read_text(encoding="utf-8"))
        assert [obj.get("ensemble") for obj in refined] == ["well i think so yes", None, "well i do yes", None]

    def test_zero_min_length_is_an_error(self, tmp_path, fixture_corpus, capsys):
        argv = ["refine", "--in", str(fixture_corpus), "--out", str(tmp_path / "out.json"), "--min-length", "0"]
        assert main(argv) == 1
        assert "error: min_length must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestAuthFailure:
    @pytest.mark.parametrize("command", ["run", "refine"])
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_401_stops_the_command(self, tmp_path, rejecting_session, capsys, command, concurrency):
        objects = generate_corpus(seed=21, n_records=200)
        corpus = tmp_path / "corpus.json"
        write_corpus(objects, corpus)
        out_dir = tmp_path / "out"
        if command == "run":
            argv = ["run", str(corpus), "--name", "demo", "--text-source", "whispertiny", "--out-dir", str(out_dir)]
            targets = sum(obj["need_prediction"] == "yes" for obj in objects)
        else:
            argv = ["refine", "--in", str(corpus), "--out", str(out_dir / "refined.json")]
            targets = len(objects)
        argv += ["--backend", "http", "--endpoint", rejecting_session.url(), "--concurrency", str(concurrency)]
        assert main(argv) == 3
        assert "auth error:" in capsys.readouterr().err
        posts = len(rejecting_session.received)
        if concurrency == 1:
            assert posts == 1
        else:
            assert 1 <= posts < targets
        assert not out_dir.exists()  # no predictions, no retry manifest, no refined corpus


class TestRun:
    def test_mock_run_writes_artifacts(self, tmp_path, fixture_corpus, capsys):
        out_dir = tmp_path / "runs"
        code = main(
            [
                "run",
                str(fixture_corpus),
                "--name", "demo",
                "--text-source", "whispertiny",
                "--context-mode", "script",
                "--context-length", "5",
                "--out-dir", str(out_dir),
                "--backend", "mock",
            ]
        )
        assert code == 0
        predictions = json.loads((out_dir / "demo.predictions.json").read_text())
        assert predictions
        assert (out_dir / "demo.eval.json").exists()
        assert (out_dir / "demo.log.jsonl").exists()

    def test_rerun_with_cache_is_identical(self, tmp_path, fixture_corpus):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cache = tmp_path / "cache"
        argv = [
            "run",
            str(fixture_corpus),
            "--name", "demo",
            "--text-source", "whispertiny",
            "--backend", "mock",
            "--cache-dir", str(cache),
        ]
        assert main(argv + ["--out-dir", str(out_a)]) == 0
        assert main(argv + ["--out-dir", str(out_b)]) == 0
        assert (out_a / "demo.predictions.json").read_bytes() == (out_b / "demo.predictions.json").read_bytes()
        warm_log = [json.loads(l) for l in (out_b / "demo.log.jsonl").read_text().splitlines()]
        assert warm_log[-1]["cache_hit_rate"] == 1.0

    def test_malformed_proxy_stops_a_cold_run_only(self, tmp_path, fixture_corpus, loopback, monkeypatch, capsys):
        monkeypatch.setenv("HTTPS_PROXY", "socks5://127.0.0.1:1080")
        cache = tmp_path / "cache"
        argv = ["run", str(fixture_corpus), "--name", "demo", "--text-source", "whispertiny", "--cache-dir", str(cache)]
        http = ["--backend", "http", "--endpoint", f"https://127.0.0.1:{loopback.server_address[1]}/v1/chat"]
        assert main(argv + http + ["--out-dir", str(tmp_path / "cold")]) == 1
        assert "error: proxy 'socks5://127.0.0.1:1080' is not an http URL" in capsys.readouterr().err
        assert loopback.connections == 0
        assert not (tmp_path / "cold").exists() and not (cache / "completions.jsonl").exists()
        # the proxy is read at the first request, so a run that the cache answers in full never reads it
        assert main(argv + ["--out-dir", str(tmp_path / "mock")]) == 0  # the fingerprint ignores the backend
        assert main(argv + http + ["--out-dir", str(tmp_path / "warm")]) == 0
        warm, mock = (tmp_path / out / "demo.predictions.json" for out in ("warm", "mock"))
        assert warm.read_bytes() == mock.read_bytes()

    @pytest.mark.parametrize("stop", ["template-file", "text-source", "matrix-row"])
    def test_stopped_by_bad_input_it_makes_no_cache_dir(self, tmp_path, fixture_corpus, stop):
        (tmp_path / "bad.txt").write_text("garbage\n", encoding="utf-8")
        (tmp_path / "rows.json").write_text('{"experiments": [{"name": "x", "text_source": "nosuch"}]}')
        run = ["run", fixture_corpus, "--out-dir", tmp_path / "runs"]
        argv = {
            "template-file": run + ["--text-source", "whispertiny", "--template-file", tmp_path / "bad.txt"],
            "text-source": run + ["--text-source", "nosuch"],
            "matrix-row": ["matrix", fixture_corpus, "--config", tmp_path / "rows.json"],
        }[stop]
        assert main([str(arg) for arg in argv + ["--cache-dir", tmp_path / "cache"]]) == 1
        assert not (tmp_path / "cache").exists()

    def test_a_cache_dir_that_is_a_file_is_an_io_error(self, tmp_path, fixture_corpus, capsys):
        (tmp_path / "cache").write_text("", encoding="utf-8")
        argv = ["run", str(fixture_corpus), "--text-source", "whispertiny", "--out-dir", str(tmp_path / "runs")]
        assert main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and "Not a directory" in err
        assert not (tmp_path / "runs").exists()

    def test_duplicate_id_is_an_error_and_writes_nothing(self, tmp_path, capsys):
        path, raw, first = corpus_with_repeated_target(tmp_path, copies=1)
        out_dir = tmp_path / "runs"
        assert main(["run", str(path), "--text-source", "whispertiny", "--out-dir", str(out_dir)]) == 1
        assert f"duplicate id {raw!r}, first at record {first}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_name_outside_the_out_dir_is_an_error_and_writes_nothing(self, tmp_path, fixture_corpus, capsys):
        argv = ["run", str(fixture_corpus), "--name", "../evil", "--text-source", "whispertiny"]
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 1
        assert "error: experiment '../evil': name must be a single path component" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [fixture_corpus.name]

    def test_zero_context_length_is_an_error(self, tmp_path, fixture_corpus, capsys):
        argv = ["run", str(fixture_corpus), "--text-source", "whispertiny", "--context-length", "0"]
        assert main(argv + ["--out-dir", str(tmp_path / "runs")]) == 1
        assert "error: experiment 'run': context_length must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [("--context-mode", "foo"), ("--context-length", "abc")])
    def test_unparseable_option_is_a_usage_error(self, tmp_path, fixture_corpus, capsys, option, value):
        argv = ["run", str(fixture_corpus), "--text-source", "whispertiny", "--out-dir", str(tmp_path / "runs")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [option, value])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert main(argv + ["--context-length", "0"]) == 1

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path, fixture_corpus):
        cache = tmp_path / "cache"
        argv = [
            "run",
            str(fixture_corpus),
            "--name", "demo",
            "--text-source", "whispertiny",
            "--backend", "mock",
            "--cache-dir", str(cache),
        ]
        assert main(argv + ["--out-dir", str(tmp_path / "cold")]) == 0
        log = cache / "completions.jsonl"
        first, *rest = log.read_text(encoding="utf-8").splitlines(keepends=True)
        log.write_text('{"raw_text": \n' + "".join(rest), encoding="utf-8")
        assert main(argv + ["--out-dir", str(tmp_path / "rerun")]) == 0
        cold = (tmp_path / "cold" / "demo.predictions.json").read_bytes()
        assert (tmp_path / "rerun" / "demo.predictions.json").read_bytes() == cold
        events = (tmp_path / "rerun" / "demo.log.jsonl").read_text(encoding="utf-8").splitlines()[:-1]
        recomputed = {event["fingerprint"] for event in map(json.loads, events) if not event["from_cache"]}
        assert recomputed == {json.loads(first)["fingerprint"]}
        assert json.loads(log.read_text(encoding="utf-8").splitlines()[-1])["fingerprint"] in recomputed
        assert [p.name for p in cache.iterdir()] == ["completions.jsonl"]

    def test_stored_label_is_ignored_on_a_hit(self, tmp_path, fixture_corpus):
        # lines in the older five-key layout, each carrying a label that its raw text does not say
        cache = tmp_path / "cache"
        argv = [
            "run",
            str(fixture_corpus),
            "--name", "demo",
            "--text-source", "whispertiny",
            "--backend", "mock",
            "--cache-dir", str(cache),
        ]
        assert main(argv + ["--out-dir", str(tmp_path / "cold")]) == 0
        log = cache / "completions.jsonl"
        lines = [
            {**json.loads(line), "normalized_label": "joy", "latency_ms": 7, "attempt_count": 1}
            for line in log.read_text(encoding="utf-8").splitlines()
        ]
        log.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines), encoding="utf-8")
        assert main(argv + ["--out-dir", str(tmp_path / "warm")]) == 0
        cold = (tmp_path / "cold" / "demo.predictions.json").read_bytes()
        assert (tmp_path / "warm" / "demo.predictions.json").read_bytes() == cold
        summary = json.loads((tmp_path / "warm" / "demo.log.jsonl").read_text(encoding="utf-8").splitlines()[-1])
        assert summary["cache_hit_rate"] == 1.0


class TestTargetWithoutText:
    @pytest.mark.parametrize("command", ["run", "matrix"])
    def test_exits_3_with_one_manifest_entry(self, tmp_path, capsys, command):
        objects = generate_corpus(seed=7, n_records=60)
        targets = [obj for obj in objects if obj["need_prediction"] == "yes"]
        targets[0].update(dict.fromkeys(KNOWN_ASR_MODELS & targets[0].keys(), ""))
        path = tmp_path / "corpus.json"
        write_corpus(objects, path)
        out_dir = tmp_path / "runs"
        if command == "run":
            argv = ["run", str(path), "--name", "demo", "--text-source", "whispertiny", "--out-dir", str(out_dir)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"experiments": [{"name": "demo", "text_source": "whispertiny"}]}))
            argv = ["matrix", str(path), "--config", str(config), "--out-dir", str(out_dir)]
        assert main(argv) == 3
        manifest = json.loads((out_dir / "demo.retry.json").read_text())
        assert [(m["id"], m["fingerprint"]) for m in manifest] == [(targets[0]["id"], None)]
        assert "no non-blank 'whispertiny' text" in manifest[0]["error"]
        predictions = json.loads((out_dir / "demo.predictions.json").read_text())
        assert [p["id"] for p in predictions] == [t["id"] for t in targets[1:]]
        assert ("1 record(s) failed" if command == "run" else "had failed requests") in capsys.readouterr().err


class TestMatrix:
    def test_small_config(self, tmp_path, fixture_corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "experiments": [
                        {"name": "ctx5", "text_source": "whispertiny", "context_length": 5, "context_mode": "script"},
                        {"name": "ctx10", "text_source": "whispertiny", "context_length": 10, "context_mode": "script"},
                    ]
                }
            )
        )
        out_dir = tmp_path / "matrix"
        code = main(["matrix", str(fixture_corpus), "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        rows = json.loads((out_dir / "matrix.json").read_text())
        assert [r["name"] for r in rows] == ["ctx5", "ctx10"]

    def test_empty_config(self, tmp_path, fixture_corpus):
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({"experiments": []}))
        assert main(["matrix", str(fixture_corpus), "--config", str(config)]) == 0

    def test_failed_row_exits_1_and_writes_summary(self, tmp_path, fixture_corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"experiments": [{"name": "bad", "text_source": "whispertiny", "prompt": "no-such-template"}]})
        )
        out_dir = tmp_path / "not" / "yet"
        code = main(["matrix", str(fixture_corpus), "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 1
        rows = json.loads((out_dir / "matrix.json").read_text())
        assert [r["name"] for r in rows] == ["bad"]
        assert "error" in rows[0]
        assert "bad" in capsys.readouterr().err

    def test_artifact_write_error_exits_2(self, tmp_path, fixture_corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [{"name": "one", "text_source": "whispertiny"}]}))
        out_dir = tmp_path / "matrix"
        (out_dir / "one.predictions.json").mkdir(parents=True)  # the artifact write fails
        assert main(["matrix", str(fixture_corpus), "--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert "I/O error:" in capsys.readouterr().err
        assert not (out_dir / "matrix.json").exists()

    def test_backend_failures_exit_3_unless_a_row_errored(self, tmp_path, fixture_corpus, monkeypatch, capsys):
        from textemo.llm import BadRequest, MockBackend

        def reject(self, request):
            raise BadRequest("request rejected (HTTP 400)", request.fingerprint)

        monkeypatch.setattr(MockBackend, "send", reject)
        good = {"name": "good", "text_source": "whispertiny"}
        bad = {"name": "bad", "text_source": "whispertiny", "prompt": "no-such-template"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [good]}))
        out_dir = tmp_path / "matrix"
        code = main(["matrix", str(fixture_corpus), "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 3
        rows = json.loads((out_dir / "matrix.json").read_text())
        assert rows[0]["n_failures"] > 0 and "error" not in rows[0]
        assert (out_dir / "good.retry.json").exists()
        assert "good" in capsys.readouterr().err

        config.write_text(json.dumps({"experiments": [good, bad]}))
        assert main(["matrix", str(fixture_corpus), "--config", str(config)]) == 1

    def test_row_name_with_a_slash_stops_before_any_row_runs(self, tmp_path, fixture_corpus, capsys):
        rows = [{"name": "ok", "text_source": "whispertiny"}, {"name": "a/b", "text_source": "whispertiny"}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": rows}))
        out_dir = tmp_path / "matrix"
        assert main(["matrix", str(fixture_corpus), "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert "error: experiment 'a/b': name must be a single path component" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_http_rows_post_to_endpoint(self, tmp_path, fixture_corpus, loopback):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [{"name": "h", "text_source": "whispertiny", "backend": "http"}]}))
        endpoint = loopback.url("/v1/chat")
        argv = ["matrix", str(fixture_corpus), "--config", str(config), "--endpoint", endpoint, "--concurrency", "1"]
        assert main(argv) == 0
        urls = [received.url for received in loopback.received]
        assert urls and set(urls) == {endpoint}

    def test_without_a_cache_dir_a_mock_row_answers_nothing_for_an_http_row(self, tmp_path, fixture_corpus, loopback):
        row = {"text_source": "whispertiny"}
        config = tmp_path / "config.json"
        argv = ["matrix", str(fixture_corpus), "--config", str(config), "--endpoint", loopback.url(), "--concurrency", "1"]
        config.write_text(json.dumps({"experiments": [{"name": "h", "backend": "http", **row}]}))
        assert main(argv + ["--out-dir", str(tmp_path / "alone")]) == 0
        alone = len(loopback.received)
        assert alone > 0
        rows = [{"name": "m", "backend": "mock", **row}, {"name": "h", "backend": "http", **row}]
        config.write_text(json.dumps({"experiments": rows}))
        assert main(argv + ["--out-dir", str(tmp_path / "mixed")]) == 0
        assert len(loopback.received) == 2 * alone
        summaries = [(tmp_path / run / "h.log.jsonl").read_text(encoding="utf-8").splitlines()[-1] for run in ("alone", "mixed")]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"runs": []}, "no 'experiments' key"),
            ({"experiments": ["ctx5"]}, "row 0: expected a JSON object"),
            ([{"name": "a", "text_source": "whispertiny", "temprature": 0.5}], "row 0: unknown key 'temprature'"),
            ([{"name": "a", "text_source": "whispertiny"}, {"text_source": "whispertiny"}], "row 1: required key 'name'"),
            ([{"name": "a"}], "row 0: required key 'text_source'"),
            ([{"name": "a", "text_source": "whispertiny", "context_length": "3"}], "'context_length' must be an integer"),
            ([{"name": "a", "text_source": "whispertiny", "context_mode": "turn"}], "unknown context_mode 'turn'"),
            ([{"name": "a", "text_source": "whispertiny", "backend": "local"}], "unknown backend 'local'"),
            ({"experiments": {}}, "'experiments' must be a JSON array"),
        ],
    )
    def test_malformed_config_is_an_error(self, tmp_path, fixture_corpus, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["matrix", str(fixture_corpus), "--config", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]


class TestEvaluate:
    def test_round_trip_with_run(self, tmp_path, fixture_corpus, capsys):
        out_dir = tmp_path / "runs"
        main(
            [
                "run", str(fixture_corpus),
                "--name", "demo",
                "--text-source", "whispertiny",
                "--out-dir", str(out_dir),
                "--backend", "mock",
            ]
        )
        eval_out = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--predictions", str(out_dir / "demo.predictions.json"),
                "--corpus", str(fixture_corpus),
                "--eval-out", str(eval_out),
            ]
        )
        assert code == 0
        standalone = json.loads(eval_out.read_text())
        from_run = json.loads((out_dir / "demo.eval.json").read_text())
        assert standalone == from_run

    @pytest.mark.parametrize(
        "predictions, message",
        [
            ([{"prediction": "sad"}], "entry 0: 'id'"),
            ([{"id": "Ses01F_01_F000", "prediction": "sad"}, "sad"], "entry 1: expected a JSON object"),
            ([{"id": "Ses01F_01_F000"}], "entry 0: 'prediction'"),
            ({"id": "Ses01F_01_F000", "prediction": "sad"}, "JSON array"),
            (
                [
                    {"id": "Ses01F_01_F000", "prediction": "sad"},
                    {"id": "Ses01F_01_F001", "prediction": "sad"},
                    {"id": "Ses01F_01_F000", "prediction": "happy"},
                ],
                "duplicate prediction id(s): ['Ses01F_01_F000']",
            ),
        ],
    )
    def test_malformed_predictions_rejected(self, tmp_path, capsys, predictions, message):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps([make_entry("Ses01F_01_F000", emotion="sad"), make_entry("Ses01F_01_F001", emotion="sad")])
        )
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(predictions))
        assert main(["evaluate", "--predictions", str(path), "--corpus", str(corpus)]) == 1
        assert message in capsys.readouterr().err

    def test_predictions_outside_the_corpus_are_counted_and_skipped(self, tmp_path, capsys):
        from textemo.metrics import evaluate

        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps([make_entry("Ses01F_01_F000", emotion="sad"), make_entry("Ses01F_01_F001", emotion="angry")])
        )
        predictions = tmp_path / "pred.json"
        entries = [("Ses01F_01_F000", "sad"), ("Ses02F_01_F000", "sad"), ("Ses01F_01_F001", "sad"), ("Ses03M_01_M000", "angry")]
        predictions.write_text(json.dumps([{"id": pid, "prediction": label} for pid, label in entries]))
        eval_out = tmp_path / "eval.json"
        argv = ["evaluate", "--predictions", str(predictions), "--corpus", str(corpus), "--eval-out", str(eval_out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == "warning: 2 prediction id(s) not in corpus\n"
        assert json.loads(eval_out.read_text()) == evaluate([("sad", "sad"), ("angry", "sad")]).to_dict()

    def test_no_scoreable_pairs(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([make_entry("Ses01F_01_F000", emotion="frustration")]))
        predictions = tmp_path / "pred.json"
        predictions.write_text(json.dumps([{"id": "Ses01F_01_F000", "prediction": "sad"}]))
        assert main(["evaluate", "--predictions", str(predictions), "--corpus", str(corpus)]) == 1


class TestGenFixture:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen-fixture", "--out", str(a), "--records", "30", "--seed", "9"]) == 0
        assert main(["gen-fixture", "--out", str(b), "--records", "30", "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_many_records_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        assert main(["gen-fixture", "--out", str(out), "--records", "10000", "--seed", "1"]) == 1
        assert "error: cannot generate 10000 records" in capsys.readouterr().err
        assert not out.exists()

    def test_validates_clean(self, tmp_path):
        path = tmp_path / "gen.json"
        main(["gen-fixture", "--out", str(path), "--records", "40", "--seed", "3"])
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize(
        "option, value, message",
        [
            pytest.param("--records", "-5", "record count must not be negative, got -5", id="negative-records"),
        ],
    )
    def test_values_it_cannot_honour_are_errors(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "gen.json"
        assert main(["gen-fixture", "--out", str(out), option, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_zero_records_is_an_empty_corpus(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        assert main(["gen-fixture", "--out", str(path), "--records", "0"]) == 0
        assert path.read_text(encoding="utf-8") == "[]\n"
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"wrote 0 record(s) to {path}", "ok: 0 record(s)"]


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is not part of its text."""

    @pytest.mark.parametrize("layout", ["array", "lines"])
    def test_corpus_validates(self, tmp_path, capsys, layout):
        objects = generate_corpus(seed=21, n_records=25)
        text = json.dumps(objects) if layout == "array" else "".join(json.dumps(obj) + "\n" for obj in objects)
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "ok: 25 record(s)\n"

    def test_predictions_evaluate(self, tmp_path, fixture_corpus):
        assert main(["run", str(fixture_corpus), "--name", "demo", "--text-source", "whispertiny",
                     "--out-dir", str(tmp_path / "runs")]) == 0
        predictions = tmp_path / "runs" / "demo.predictions.json"
        bom = tmp_path / "bom.predictions.json"
        bom.write_bytes(b"\xef\xbb\xbf" + predictions.read_bytes())
        for path, out in ((predictions, "plain.json"), (bom, "bom.json")):
            argv = ["evaluate", "--predictions", path, "--corpus", fixture_corpus, "--eval-out", tmp_path / out]
            assert main([str(arg) for arg in argv]) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "content",
        [b'[{"id": "Ses01F_impro01_F000",', b"\xff\xfe[]", b"[" * 100_000 + b"]" * 100_000],
        ids=["truncated-array", "not-utf8", "nested-too-deep"],
    )
    @pytest.mark.parametrize(
        "command", ["validate", "wer", "refine", "run", "matrix", "matrix-config", "evaluate"]
    )
    def test_is_an_error(self, tmp_path, fixture_corpus, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = {
            "validate": ["validate", bad],
            "wer": ["wer", bad],
            "refine": ["refine", "--in", bad, "--out", tmp_path / "out.json"],
            "run": ["run", bad, "--text-source", "whispertiny", "--out-dir", tmp_path / "runs"],
            "matrix": ["matrix", bad, "--out-dir", tmp_path / "matrix"],
            "matrix-config": ["matrix", fixture_corpus, "--config", bad],
            "evaluate": ["evaluate", "--predictions", bad, "--corpus", fixture_corpus],
        }[command]
        assert main([str(arg) for arg in argv]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {bad}: ")

    def test_whitespace_only_corpus_is_empty(self, tmp_path, capsys):
        blank = tmp_path / "blank.json"
        blank.write_text(" \n\t\n", encoding="utf-8")
        assert main(["validate", str(blank)]) == 1
        assert capsys.readouterr().err == "error: record 0: file is empty\n"

    @pytest.mark.parametrize("case", ["truncated-json-line", "template-preamble"])
    def test_malformed_file_is_named(self, tmp_path, fixture_corpus, capsys, case):
        bad = tmp_path / "bad.txt"
        content, argv = {
            "truncated-json-line": (b'{"id": "Ses01F_impro01_F000", "whispertiny": "hi"}\n{"id": \n', ["run", bad]),
            "template-preamble": (
                b"stray\n--- baseline\n{current sentence}\n",
                ["run", fixture_corpus, "--template-file", bad],
            ),
        }[case]
        bad.write_bytes(content)
        argv += ["--text-source", "whispertiny", "--out-dir", tmp_path / "runs"]
        assert main([str(arg) for arg in argv]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: ")

    def test_undecodable_template_file_is_named(self, tmp_path, fixture_corpus, capsys):
        bad = tmp_path / "templates.txt"
        bad.write_bytes(b"--- baseline\n\xff\n")
        argv = ["run", fixture_corpus, "--text-source", "whispertiny", "--template-file", bad]
        assert main([str(arg) for arg in argv + ["--out-dir", tmp_path / "runs"]]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: ")
