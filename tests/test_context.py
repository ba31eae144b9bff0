from __future__ import annotations

import random

import pytest

from textemo.context import (
    EMPTY_CONTEXT,
    ContextTable,
    ContextWindow,
    InvalidTarget,
    UnknownTextSource,
    build_context,
    format_context,
)
from textemo.corpus import Corpus, build_corpus
from textemo.fixtures import generate_corpus
from textemo.refine import RefinementConfig, refine_record

from conftest import make_entry


def brute_force_window(corpus: Corpus, target: int, mode: str, length: int) -> list[int]:
    """Independent oracle: filter eligible predecessors, take the last
    `length`. Returns record positions, oldest first."""
    target_rec = corpus.records[target]
    if mode == "script":
        eligible = [
            rec.file_position
            for rec in corpus.records[:target]
            if rec.id.script_key == target_rec.id.script_key
        ]
    else:
        eligible = [
            rec.file_position
            for rec in corpus.records[:target]
            if rec.id.session_key == target_rec.id.session_key
        ]
    return eligible[-length:]


class TestWorkedExample:
    """Script 04 has 20 utterances; the target is utterance 03 of script 05."""

    def test_script_mode_stops_at_boundary(self, worked_example_corpus):
        window = build_context(worked_example_corpus, 22, mode="script", length=3, text_source="whispertiny")
        assert len(window.items) == 2
        assert [text for _, text in window.items] == ["utterance five 0", "utterance five 1"]
        assert window.truncated_by_boundary is True

    def test_session_mode_crosses_script_boundary(self, worked_example_corpus):
        window = build_context(worked_example_corpus, 22, mode="session", length=3, text_source="whispertiny")
        assert [text for _, text in window.items] == [
            "utterance four 19",
            "utterance five 0",
            "utterance five 1",
        ]
        assert window.truncated_by_boundary is False

    def test_first_utterance_empty_window(self, worked_example_corpus):
        for mode in ("script", "session"):
            window = build_context(worked_example_corpus, 0, mode=mode, length=3, text_source="whispertiny")
            assert window.items == []
            assert window.truncated_by_boundary is False


class TestBuildContext:
    def test_length_10_inside_long_script(self):
        objects = [make_entry(f"Ses01F_script02_1_F{i:03d}", text=f"line {i}") for i in range(30)]
        corpus = build_corpus(objects)
        window = build_context(corpus, 25, mode="script", length=10, text_source="whispertiny")
        expect = brute_force_window(corpus, 25, "script", 10)
        assert [t for _, t in window.items] == [f"line {i}" for i in expect]
        assert len(window.items) == 10
        assert window.truncated_by_boundary is False

    def test_session_boundary_respected(self):
        objects = [make_entry("Ses01F_01_F000"), make_entry("Ses02F_01_F000"), make_entry("Ses02F_01_F001")]
        corpus = build_corpus(objects)
        window = build_context(corpus, 2, mode="session", length=3, text_source="whispertiny")
        assert len(window.items) == 1
        assert window.truncated_by_boundary is True

    def test_recording_letter_is_a_session_boundary(self):
        objects = [make_entry("Ses01F_01_F000"), make_entry("Ses01M_01_F000"), make_entry("Ses01M_01_F001")]
        corpus = build_corpus(objects)
        window = build_context(corpus, 2, mode="session", length=3, text_source="whispertiny")
        assert len(window.items) == 1

    def test_unknown_text_source(self, worked_example_corpus):
        with pytest.raises(UnknownTextSource):
            build_context(worked_example_corpus, 5, mode="script", length=3, text_source="nosuchmodel")

    @pytest.mark.parametrize("mode,length,message", [("turn", 3, "unknown context mode 'turn'"), ("script", 0, ">= 1")])
    def test_unknown_mode_or_empty_length(self, worked_example_corpus, mode, length, message):
        with pytest.raises(ValueError, match=message):
            build_context(worked_example_corpus, 5, mode=mode, length=length, text_source="whispertiny")

    def test_ensemble_source_always_allowed(self, worked_example_corpus):
        window = build_context(worked_example_corpus, 2, mode="script", length=2, text_source="ensemble")
        assert len(window.items) == 2  # falls back to longest transcription

    def test_invalid_target(self, worked_example_corpus):
        with pytest.raises(InvalidTarget):
            build_context(worked_example_corpus, 99, mode="script", length=3, text_source="whispertiny")
        with pytest.raises(InvalidTarget):
            build_context(worked_example_corpus, -1, mode="script", length=3, text_source="whispertiny")

    def test_missing_source_falls_back_to_longest(self):
        objects = [
            make_entry("Ses01F_01_F000", models={"hubertlarge": "the long transcription here"}),
            make_entry("Ses01F_01_F001", models={"whispertiny": "hi", "hubertlarge": "hello there"}),
        ]
        corpus = build_corpus(objects)
        window = build_context(corpus, 1, mode="session", length=2, text_source="whispertiny")
        assert window.items[0][1] == "the long transcription here"

    def test_a_fallback_tie_goes_to_the_first_model_name_as_in_refine(self):
        tied = make_entry("Ses01F_01_F000", models={"whispertiny": "bbb ccc", "hubertlarge": "aaa ddd"})
        corpus = build_corpus([tied, make_entry("Ses01F_01_F001")])
        window = build_context(corpus, 1, mode="session", length=1, text_source="ensemble")
        assert window.items[0][1] == "aaa ddd"
        assert ContextTable(corpus, "ensemble").texts[0] == "aaa ddd"
        assert refine_record(corpus.records[0], RefinementConfig(selector="longest_only")).chosen == "aaa ddd"

    def test_need_prediction_does_not_gate_context(self):
        objects = [
            make_entry("Ses01F_01_F000", need_prediction="yes"),
            make_entry("Ses01F_01_F001", need_prediction="no"),
            make_entry("Ses01F_01_M000", need_prediction="yes"),
        ]
        corpus = build_corpus(objects)
        window = build_context(corpus, 2, mode="script", length=5, text_source="whispertiny")
        assert len(window.items) == 2


class TestProperties:
    def _random_corpus(self, seed: int) -> Corpus:
        n = random.Random(seed).randint(2, 120)
        return build_corpus(generate_corpus(seed=seed, n_records=n))

    def test_oracle_equivalence_and_boundary_safety(self):
        rng = random.Random(42)
        for trial in range(60):
            corpus = self._random_corpus(trial)
            for target in range(len(corpus.records)):
                mode = rng.choice(["script", "session"])
                length = rng.choice([1, 2, 3, 5, 10])
                window = build_context(corpus, target, mode=mode, length=length, text_source="whispertiny")
                expect_positions = brute_force_window(corpus, target, mode, length)
                expect_texts = [
                    corpus.records[p].transcriptions["whispertiny"] for p in expect_positions
                ]
                assert [t for _, t in window.items] == expect_texts
                if mode == "script":
                    key = corpus.records[target].id.script_key
                    for p in expect_positions:
                        assert corpus.records[p].id.script_key == key

    def test_oracle_equivalence_on_shuffled_corpora(self, caplog):
        # generated corpora keep each script contiguous; shuffling interleaves
        # scripts and sessions, so a group's positions are far apart
        rng = random.Random(2024)
        for seed in range(25):
            objects = generate_corpus(seed=seed, n_records=rng.randint(2, 90))
            rng.shuffle(objects)
            corpus = build_corpus(objects)
            for target in range(len(corpus.records)):
                for mode in ("script", "session"):
                    for length in range(1, 16):
                        window = build_context(corpus, target, mode=mode, length=length, text_source="whispertiny")
                        expect = brute_force_window(corpus, target, mode, length)
                        assert [t for _, t in window.items] == [
                            corpus.records[p].transcriptions["whispertiny"] for p in expect
                        ]
                        assert [s for s, _ in window.items] == [corpus.records[p].speaker for p in expect]
                        assert window.truncated_by_boundary == (len(expect) < length and target > len(expect))
        assert any("non-contiguous" in m for m in caplog.messages)

    def test_window_size_monotone_in_length(self):
        corpus = self._random_corpus(99)
        for target in range(0, len(corpus.records), 7):
            for mode in ("script", "session"):
                sizes = [
                    len(build_context(corpus, target, mode=mode, length=n, text_source="whispertiny").items)
                    for n in range(1, 12)
                ]
                assert sizes == sorted(sizes)

    def test_script_window_is_suffix_of_session_window(self):
        corpus = self._random_corpus(7)
        for target in range(len(corpus.records)):
            for length in (1, 3, 8):
                script = build_context(corpus, target, mode="script", length=length, text_source="whispertiny")
                session = build_context(corpus, target, mode="session", length=length, text_source="whispertiny")
                k = len(script.items)
                assert session.items[len(session.items) - k :] == script.items


class TestFormatContext:
    def test_two_items(self):
        window = ContextWindow(items=[("Ses01_F", "hello"), ("Ses01_M", "hi")], truncated_by_boundary=False)
        assert format_context(window) == "Speaker Ses01_F says: hello Speaker Ses01_M says: hi"

    def test_empty_window_sentinel(self):
        window = ContextWindow(items=[], truncated_by_boundary=False)
        assert format_context(window) == EMPTY_CONTEXT == "(no prior context)"

    def test_trailing_whitespace_trimmed(self):
        window = ContextWindow(items=[("Ses01_F", "hello  ")], truncated_by_boundary=False)
        assert format_context(window) == "Speaker Ses01_F says: hello"
