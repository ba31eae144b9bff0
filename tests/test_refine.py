from __future__ import annotations

import pytest

from textemo.llm import CompletionRequest, MockBackend
from textemo.refine import (
    SELECTION_INSTRUCTION,
    SOURCE_ALL_SHORT,
    SOURCE_LLM,
    SOURCE_LONGEST,
    RefinementConfig,
    build_refine_prompt,
    filter_transcriptions,
    refine_record,
    select_longest,
)
from textemo.corpus import build_corpus, is_blank, record_from_object
from textemo.fixtures import generate_corpus

from conftest import ScriptedBackend

WHISPER_MODELS = {"whisperbase", "whisperlarge", "whispermedium", "whispersmall", "whispertiny"}

# Longest surviving candidate of the sample entry, verified by character
# count: "now i suppose i have been bat's going from me" is 45 chars.
SAMPLE_LONGEST = "now i suppose i have been bat's going from me"


def make_record(transcriptions: dict[str, str]):
    return record_from_object({"id": "Ses01F_01_F000", **transcriptions}, 0)


class TestFilter:
    def test_sample_entry_drops_the_short_whisper_outputs(self, sample_record):
        kept = filter_transcriptions(sample_record, RefinementConfig())
        assert len(kept) == 6
        assert {model for model, _ in kept} & WHISPER_MODELS == set()

    def test_all_short_returns_everything(self):
        record = make_record({"whispertiny": "Hi", "whisperbase": "Hi"})
        kept = filter_transcriptions(record, RefinementConfig())
        assert kept == [("whispertiny", "Hi"), ("whisperbase", "Hi")]

    def test_single_long_candidate(self):
        record = make_record({"whispertiny": "x" * 100})
        assert filter_transcriptions(record, RefinementConfig()) == [("whispertiny", "x" * 100)]

    def test_strictly_greater_than(self):
        record = make_record({"whispertiny": "12345", "whisperbase": "123456"})
        kept = filter_transcriptions(record, RefinementConfig(min_length=5))
        assert kept == [("whisperbase", "123456")]

    def test_token_unit(self):
        record = make_record({"whispertiny": "one two three", "whisperbase": "one two three four"})
        cfg = RefinementConfig(min_length=3, length_unit="tokens")
        assert filter_transcriptions(record, cfg) == [("whisperbase", "one two three four")]

    def test_monotone_in_min_length(self, sample_record):
        previous = None
        for min_length in range(1, 60):
            kept = filter_transcriptions(sample_record, RefinementConfig(min_length=min_length))
            survivors = [
                (m, t) for m, t in sample_record.transcriptions.items() if len(t) > min_length
            ]
            count = len(survivors) if survivors else len(sample_record.transcriptions)
            assert len(kept) == count
            if previous is not None and survivors:
                assert len(kept) <= previous
            previous = len(kept)


class TestSelectLongest:
    def test_strict_maximum(self):
        assert select_longest([("a", "xx"), ("b", "xxxx")]) == ("b", "xxxx")

    def test_tie_break_by_name_without_priority(self):
        assert select_longest([("b", "xx"), ("a", "xx")]) == ("a", "xx")

    def test_single_candidate(self):
        assert select_longest([("a", "x")]) == ("a", "x")


class TestBuildPrompt:
    def test_contains_instruction_and_candidates(self):
        prompt = build_refine_prompt([("m1", "first option"), ("m2", "second option")])
        assert prompt.startswith(SELECTION_INSTRUCTION)
        assert "1. first option" in prompt
        assert "2. second option" in prompt

    def test_newlines_flattened(self):
        prompt = build_refine_prompt([("m1", "two\nlines")])
        assert "1. two lines" in prompt
        assert prompt.count("\n") == 1  # instruction separator only

    def test_eleven_candidates_eleven_lines(self, sample_record):
        candidates = list(sample_record.transcriptions.items())
        prompt = build_refine_prompt(candidates)
        numbered = [l for l in prompt.splitlines() if l[:1].isdigit()]
        assert len(numbered) == 11


class TestRefineRecord:
    def test_llm_match_is_selected(self, sample_record):
        cfg = RefinementConfig(selector="llm")
        candidates = filter_transcriptions(sample_record, cfg)
        request = CompletionRequest(model="gpt-3.5-turbo", prompt=build_refine_prompt(candidates), max_tokens=128)
        backend = ScriptedBackend({request.fingerprint: candidates[0][1]})
        outcome = refine_record(sample_record, cfg, backend=backend)
        assert outcome.chosen == candidates[0][1]
        assert outcome.chosen_source == SOURCE_LLM

    def test_llm_match_modulo_trim_and_case(self, sample_record):
        cfg = RefinementConfig(selector="llm")
        candidates = filter_transcriptions(sample_record, cfg)
        request = CompletionRequest(model="gpt-3.5-turbo", prompt=build_refine_prompt(candidates), max_tokens=128)
        backend = ScriptedBackend({request.fingerprint: "  " + candidates[1][1].upper() + " \n"})
        outcome = refine_record(sample_record, cfg, backend=backend)
        # chosen is the candidate text itself, not the response
        assert outcome.chosen == candidates[1][1]
        assert outcome.chosen_source == SOURCE_LLM

    def test_non_matching_response_falls_back_to_longest(self, sample_record):
        cfg = RefinementConfig(selector="llm")
        candidates = filter_transcriptions(sample_record, cfg)
        request = CompletionRequest(model="gpt-3.5-turbo", prompt=build_refine_prompt(candidates), max_tokens=128)
        backend = ScriptedBackend({request.fingerprint: "I pick option 2."})
        outcome = refine_record(sample_record, cfg, backend=backend)
        assert outcome.chosen == SAMPLE_LONGEST
        assert outcome.chosen_source == SOURCE_LONGEST

    def test_longest_only_on_sample(self, sample_record):
        cfg = RefinementConfig(selector="longest_only")
        outcome = refine_record(sample_record, cfg)
        assert outcome.chosen == SAMPLE_LONGEST

    def test_longest_only_deterministic(self, sample_record):
        cfg = RefinementConfig(selector="longest_only")
        outcomes = {refine_record(sample_record, cfg).chosen for _ in range(100)}
        assert outcomes == {SAMPLE_LONGEST}

    def test_all_short_source(self):
        record = make_record({"whispertiny": "Hi", "whisperbase": "Heya"})
        outcome = refine_record(record, RefinementConfig(selector="longest_only"))
        assert outcome.chosen == "Heya"
        assert outcome.chosen_source == SOURCE_ALL_SHORT

    @pytest.mark.parametrize("blank", ["", " " * 30, "\n\t "])
    def test_blank_candidate_is_never_chosen_over_text(self, blank):
        record = make_record({"whispertiny": "i am fine thanks", "w2v2100": blank, "whisperbase": "ok"})
        assert filter_transcriptions(record, RefinementConfig()) == [("whispertiny", "i am fine thanks")]
        outcome = refine_record(record, RefinementConfig(selector="longest_only"))
        assert (outcome.chosen, outcome.chosen_source) == ("i am fine thanks", SOURCE_LONGEST)
        prompt = build_refine_prompt(filter_transcriptions(record, RefinementConfig(min_length=20)))
        assert prompt.splitlines()[1:] == ["1. i am fine thanks", "2. ok"]
        assert refine_record(record, RefinementConfig(min_length=20, selector="longest_only")).chosen_source == (
            SOURCE_ALL_SHORT
        )

    def test_all_blank_candidates_are_kept(self):
        record = make_record({"whispertiny": "", "w2v2100": "   "})
        assert filter_transcriptions(record, RefinementConfig()) == [("whispertiny", ""), ("w2v2100", "   ")]
        assert refine_record(record, RefinementConfig(selector="longest_only")).chosen == "   "

    @pytest.mark.parametrize(
        "cfg",
        [
            RefinementConfig(selector="longest_only"),
            RefinementConfig(selector="longest_only", min_length=3, length_unit="tokens"),
            RefinementConfig(selector="llm"),
        ],
        ids=["chars", "tokens-with-min-length-3", "llm-never-matching"],
    )
    def test_all_short_means_no_non_blank_candidate_is_long(self, cfg):
        """The reference checks every non-blank candidate (every candidate when all are blank).
        The llm selector's answer matches no candidate, so every record takes the longest path."""
        backend = ScriptedBackend("no candidate reads like this") if cfg.selector == "llm" else None
        objects = generate_corpus(seed=8, n_records=300, short_rate=0.9)
        for obj in objects[::7]:
            obj["whispertiny"] = " " * 40
        for record in build_corpus(objects).records:
            texts = [t for t in record.transcriptions.values() if not is_blank(t)] or record.transcriptions.values()
            size = len if cfg.length_unit == "characters" else lambda t: len(t.split())
            all_short = all(size(t) <= cfg.min_length for t in texts)
            expected = SOURCE_ALL_SHORT if all_short else SOURCE_LONGEST
            assert refine_record(record, cfg, backend=backend).chosen_source == expected

    def test_chosen_always_a_candidate(self, sample_record):
        # provenance: the selector may not invent text, whatever the response
        cfg = RefinementConfig(selector="llm")
        for seed in range(20):
            backend = MockBackend(seed=seed)  # uniform labels, never a candidate
            outcome = refine_record(sample_record, cfg, backend=backend)
            assert outcome.chosen in sample_record.transcriptions.values()

    def test_llm_requires_backend(self, sample_record):
        with pytest.raises(ValueError, match="backend"):
            refine_record(sample_record, RefinementConfig(selector="llm"))


class TestConfigValidation:
    def test_bad_min_length(self):
        with pytest.raises(ValueError):
            RefinementConfig(min_length=0)

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            RefinementConfig(length_unit="words")

    def test_bad_selector(self):
        with pytest.raises(ValueError, match="unknown selector 'longest'"):
            RefinementConfig(selector="longest")
