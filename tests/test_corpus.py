from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from textemo.corpus import (
    KNOWN_ASR_MODELS,
    MalformedId,
    SchemaError,
    build_corpus,
    load_corpus,
    parse_id,
    parse_records,
    record_from_object,
)
from textemo.fixtures import generate_corpus

from conftest import make_entry


class TestParseId:
    def test_training_style_script_with_subset(self):
        uid = parse_id("Ses01F_script01_3_M023")
        assert uid.session == 1
        assert uid.recording == "F"
        assert uid.dialogue_kind == "script"
        assert uid.dialogue_index == 1
        assert uid.subset == 3
        assert uid.speaker_sex == "M"
        assert uid.utterance_index == 23

    def test_test_style_bare(self):
        uid = parse_id("Ses01Z_01_F000")
        assert uid.session == 1
        assert uid.recording == "Z"
        assert uid.dialogue_kind == "bare"
        assert uid.dialogue_index == 1
        assert uid.subset is None
        assert uid.speaker_sex == "F"
        assert uid.utterance_index == 0

    def test_script_subset_one(self):
        uid = parse_id("Ses01F_script01_1_F000")
        assert (uid.dialogue_kind, uid.dialogue_index, uid.subset) == ("script", 1, 1)
        assert (uid.speaker_sex, uid.utterance_index) == ("F", 0)

    def test_impro(self):
        uid = parse_id("Ses05M_impro08_F123")
        assert (uid.dialogue_kind, uid.dialogue_index, uid.subset) == ("impro", 8, None)

    def test_script_without_subset(self):
        uid = parse_id("Ses02F_script03_M007")
        assert (uid.dialogue_kind, uid.dialogue_index, uid.subset) == ("script", 3, None)

    @pytest.mark.parametrize(
        "raw",
        [
            "Ses01_F000",  # middle segment missing
            "",
            "Ses1F_script01_3_M023",  # 1-digit session
            "Ses06F_script01_3_M023",  # session outside 01..05
            "Ses01f_script01_3_M023",  # lowercase recording letter
            "Ses01F_script1_3_M023",  # 1-digit script index
            "Ses01F_script01_30_M023",  # 2-digit subset
            "Ses01F_impro01_3_M023",  # subset after impro
            "Ses01F_01_3_M023",  # subset after bare
            "Ses01F_script01_3_X023",  # bad sex letter
            "Ses01F_script01_3_M23",  # 2-digit utterance index
            "Ses01F_script01_3_M0234",  # 4-digit utterance index
            "Ses01F_script01_3_3_M023",  # too many segments
            "Ses01F_dialog01_M023",  # unknown middle keyword
            "Ses01F_impro01_F000\n",  # trailing newline
            "Ses01F\n_impro01_F000",  # newline ending the first segment
        ],
    )
    def test_malformed(self, raw):
        with pytest.raises(MalformedId) as excinfo:
            parse_id(raw)
        assert excinfo.value.reason

    def test_reason_pinpoints_segment(self):
        with pytest.raises(MalformedId, match="middle segment"):
            parse_id("Ses01F_dialog01_M023")
        with pytest.raises(MalformedId, match="last segment"):
            parse_id("Ses01F_script01_X023")
        with pytest.raises(MalformedId, match="first segment"):
            parse_id("Xes01F_script01_M023")

    @pytest.mark.parametrize(
        "raw, reason",
        [
            ("", "id is empty"),
            ("Ses01F_impro01_F00é", "id contains non-ASCII characters"),
            ("Ses01F_F000", "expected at least 3 underscore-separated segments"),
            ("Ses01F_script01_3_3_M023", "too many underscore-separated segments"),
            ("Ses1F_script01_M023", "first segment 'Ses1F' must be 'Ses' + 2-digit session + recording letter"),
            ("Ses06F_script01_X023", "session 06 outside 01..05"),
            ("Ses01F_script01_X023", "last segment 'X023' must be F or M followed by a 3-digit index"),
            ("Ses01F_impro01_3_M023", "subset segment is only allowed after a 'scriptNN' segment, got 'impro01'"),
            ("Ses01F_script01_30_M023", "subset segment '30' must be a single digit"),
            ("Ses01F_dialog01_M023", "middle segment 'dialog01' must be 'scriptNN', 'improNN', or 'NN'"),
        ],
    )
    def test_each_reason_is_exact(self, raw, reason):
        with pytest.raises(MalformedId) as excinfo:
            parse_id(raw)
        assert (excinfo.value.raw, excinfo.value.reason) == (raw, reason)
        assert str(excinfo.value) == f"malformed id {raw!r}: {reason}"


class TestScriptKey:
    def test_subsets_share_key(self):
        a = parse_id("Ses01F_script01_1_F000").script_key
        b = parse_id("Ses01F_script01_2_F000").script_key
        assert a == b == "Ses01F/script01"

    def test_bare_key(self):
        assert parse_id("Ses01Z_02_F000").script_key == "Ses01Z/02"

    def test_key_ignores_utterance_part(self):
        a = parse_id("Ses03M_impro02_F001").script_key
        b = parse_id("Ses03M_impro02_M044").script_key
        assert a == b == "Ses03M/impro02"

    def test_recording_letter_distinguishes(self):
        assert parse_id("Ses01F_01_F000").script_key != parse_id("Ses01M_01_F000").script_key


# Strategy over the full id grammar, for the round-trip property.
_id_strings = st.builds(
    lambda ss, letter, kind, di, subset, sex, ui: (
        f"Ses{ss:02d}{letter}_"
        + (
            f"script{di:02d}" + (f"_{subset}" if subset is not None else "")
            if kind == "script"
            else (f"impro{di:02d}" if kind == "impro" else f"{di:02d}")
        )
        + f"_{sex}{ui:03d}"
    ),
    st.integers(1, 5),
    st.sampled_from("ABCFMZ"),
    st.sampled_from(["script", "impro", "bare"]),
    st.integers(0, 99),
    st.one_of(st.none(), st.integers(0, 9)),
    st.sampled_from("FM"),
    st.integers(0, 999),
)


@given(_id_strings)
def test_round_trip(raw):
    parsed = parse_id(raw)
    assert parsed.serialize() == raw
    # subset never survives outside script ids
    if parsed.dialogue_kind != "script":
        assert parsed.subset is None


@given(_id_strings, st.integers(0, 9), st.integers(0, 999), st.sampled_from("FM"))
def test_script_key_invariant_under_subset_and_utterance(raw, subset, ui, sex):
    base = parse_id(raw)
    if base.dialogue_kind != "script":
        return
    variant = parse_id(
        f"Ses{base.session:02d}{base.recording}_script{base.dialogue_index:02d}_{subset}_{sex}{ui:03d}"
    )
    assert variant.script_key == base.script_key


class TestRecordFromObject:
    def test_sample_entry(self, sample_record):
        assert sample_record.emotion == "sad"
        assert sample_record.need_prediction is True
        assert sample_record.ground_truth.startswith("Yeah.")
        assert len(sample_record.transcriptions) == 11
        assert set(sample_record.transcriptions) == set(KNOWN_ASR_MODELS)
        assert sample_record.ensemble is None

    def test_missing_id(self):
        with pytest.raises(SchemaError) as excinfo:
            record_from_object({"whispertiny": "hello"}, 0)
        assert excinfo.value.position == 0
        assert excinfo.value.key == "id"

    def test_ground_truth_key_variants(self):
        for key in ("Ground truth", "ground_truth", "groundtruth"):
            obj = {"id": "Ses01F_01_F000", key: "hi there", "whispertiny": "hi"}
            assert record_from_object(obj, 0).ground_truth == "hi there"

    def test_need_prediction_variants(self):
        base = {"id": "Ses01F_01_F000", "whispertiny": "hi"}
        assert record_from_object({**base, "need_prediction": "yes"}, 0).need_prediction is True
        assert record_from_object({**base, "need_prediction": "no"}, 0).need_prediction is False
        assert record_from_object({**base, "need_prediction": True}, 0).need_prediction is True
        assert record_from_object(base, 0).need_prediction is False
        with pytest.raises(SchemaError):
            record_from_object({**base, "need_prediction": "maybe"}, 0)

    def test_unknown_model_strict_vs_lenient(self):
        obj = {"id": "Ses01F_01_F000", "whispertiny": "hi", "shinynewasr": "hi there"}
        rec = record_from_object(obj, 0, strict=False)
        assert "shinynewasr" in rec.transcriptions
        with pytest.raises(SchemaError, match="unknown ASR model"):
            record_from_object(obj, 0, strict=True)

    def test_no_transcriptions(self):
        with pytest.raises(SchemaError, match="no ASR transcriptions"):
            record_from_object({"id": "Ses01F_01_F000", "emotion": "sad"}, 0)

    def test_speaker_derived_when_missing(self):
        rec = record_from_object({"id": "Ses02F_01_M000", "whispertiny": "hi"}, 0)
        assert rec.speaker == "Ses02_M"

    def test_ensemble_key_is_not_a_transcription(self):
        obj = {"id": "Ses01F_01_F000", "whispertiny": "hi", "ensemble": "hi there"}
        rec = record_from_object(obj, 0, strict=True)
        assert rec.ensemble == "hi there"
        assert "ensemble" not in rec.transcriptions

    def test_malformed_id_becomes_schema_error(self):
        with pytest.raises(SchemaError, match="malformed id"):
            record_from_object({"id": "Ses01_F000", "whispertiny": "hi"}, 4)

    @pytest.mark.parametrize(
        "obj, message",
        [
            (["Ses01F_01_F000"], "record 1: expected a JSON object"),
            ({"id": 7}, "record 1, key 'id': expected a string"),
            ({"emotion": 3}, "record 1, key 'emotion': expected a string or null"),
            ({"Ground truth": None}, "record 1, key 'Ground truth': expected a string"),
            ({"ensemble": ["hi"]}, "record 1, key 'ensemble': expected a string"),
            ({"speaker": 1}, "record 1, key 'speaker': expected a string"),
            (
                {"Ground truth": "hi", "groundtruth": "hi"},
                "record 1, key 'groundtruth': duplicate ground-truth key (also 'Ground truth')",
            ),
        ],
    )
    def test_shape_violations(self, obj, message):
        if isinstance(obj, dict):
            obj = {"id": "Ses01F_01_F001", "whispertiny": "hi", **obj}
        records, violations = parse_records([make_entry("Ses01F_01_F000"), obj])
        assert [rec.id.raw for rec in records] == ["Ses01F_01_F000"]
        assert [str(v) for v in violations] == [message]


class TestLoadCorpus:
    def test_single_sample_entry(self, sample_corpus_file):
        corpus = load_corpus(sample_corpus_file)
        assert len(corpus.records) == 1
        rec = corpus.records[0]
        assert rec.emotion == "sad"
        assert rec.need_prediction is True
        assert len(rec.transcriptions) == 11

    def test_empty_array(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        assert len(load_corpus(path).records) == 0

    def test_a_pretty_printed_single_object_is_an_error_naming_line_1(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(make_entry("Ses01F_01_F000"), indent=2) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 1 is not valid JSON"):
            load_corpus(path)

    def test_single_object_on_one_line_loads_as_json_lines(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(make_entry("Ses01F_01_F000")) + "\n", encoding="utf-8")
        assert [rec.id.raw for rec in load_corpus(path).records] == ["Ses01F_01_F000"]

    def test_json_lines_autodetect(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [
            json.dumps(make_entry("Ses01F_01_F000")),
            json.dumps(make_entry("Ses01F_01_M000")),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert [rec.id.raw for rec in corpus.records] == ["Ses01F_01_F000", "Ses01F_01_M000"]

    def test_json_lines_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n\n" + json.dumps(make_entry("Ses01F_01_F000")) + '\n{"id": "Ses01F_01_M000",\n')
        with pytest.raises(ValueError, match=r"line 4 is not valid JSON"):
            load_corpus(path)

    def test_a_json_line_nested_too_deeply_is_an_error_naming_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(make_entry("Ses01F_01_F000")) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2 is not valid JSON: maximum recursion depth"):
            load_corpus(path)

    def test_json_array_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("\n\n[\n" + json.dumps(make_entry("Ses01F_01_F000")) + ",\n{bad\n]\n")
        with pytest.raises(ValueError, match=r": line 5 column"):
            load_corpus(path)

    def test_json_lines_split_at_line_feeds_only(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        entries = [make_entry("Ses01F_01_F000"), make_entry("Ses01F_01_M000")]
        entries[0]["whispertiny"] = "one\u2028two\x85three"
        path.write_text("\n".join(json.dumps(e, ensure_ascii=False) for e in entries) + "\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.records[0].transcriptions["whispertiny"] == "one\u2028two\x85three"
        assert len(corpus.records) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.json")

    def test_schema_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([make_entry("Ses01F_01_F000"), {"whispertiny": "x"}]))
        with pytest.raises(SchemaError) as excinfo:
            load_corpus(path)
        assert excinfo.value.position == 1

    def test_file_positions_strictly_increase(self, tmp_path):
        objects = [make_entry(f"Ses01F_01_F{i:03d}") for i in range(5)]
        corpus = build_corpus(objects)
        positions = [rec.file_position for rec in corpus.records]
        assert positions == sorted(set(positions)) == list(range(5))


class TestIndex:
    def test_non_contiguous_script_warns(self, caplog):
        objects = [
            make_entry("Ses01F_script01_1_F000"),
            make_entry("Ses01F_impro02_M000"),
            make_entry("Ses01F_script01_1_F001"),
        ]
        with caplog.at_level("WARNING"):
            build_corpus(objects)
        assert any("non-contiguous" in message for message in caplog.messages)

    def test_non_contiguous_scripts_warn_once_per_load(self, caplog):
        objects = [make_entry(f"Ses01F_script0{script}_1_F{i:03d}") for i in range(3) for script in (1, 2, 3)]
        with caplog.at_level("WARNING"):
            build_corpus(objects)
        warnings = [message for message in caplog.messages if "non-contiguous" in message]
        assert len(warnings) == 1
        assert "3 script(s)" in warnings[0] and "Ses01F/script01" in warnings[0]

    def test_repeated_id_names_both_positions(self):
        objects = [make_entry("Ses01F_01_F000"), make_entry("Ses01F_01_M001"), make_entry("Ses01F_01_F000")]
        with pytest.raises(SchemaError) as excinfo:
            build_corpus(objects)
        assert (excinfo.value.position, excinfo.value.key) == (2, "id")
        assert str(excinfo.value) == "record 2, key 'id': duplicate id 'Ses01F_01_F000', first at record 0"

    def test_unknown_models_warn_once_per_corpus(self, caplog):
        objects = [make_entry(f"Ses01F_01_F{i:03d}") for i in range(300)]
        for obj in objects[:120]:
            obj["shinynewasr"] = "well"
        with caplog.at_level("WARNING"):
            corpus = build_corpus(objects)
        assert caplog.messages == ["unknown ASR model(s) shinynewasr kept as transcriptions in 120 of 300 records"]
        assert "shinynewasr" in corpus.model_names


def _set(position: int, key: str, value):
    def mutate(objects):
        objects[position][key] = value

    return mutate


def _strip_transcriptions(objects):
    for key in KNOWN_ASR_MODELS:
        objects[4].pop(key)


def _repeat_target(objects):
    objects.append(dict(next(obj for obj in objects if obj["need_prediction"] == "yes")))


def _repeat_early_then_schema_fault(objects):
    objects[1]["id"] = objects[0]["id"]
    objects[-1]["need_prediction"] = "maybe"


class TestValidateAgreesWithLoad:
    """Every loader raises the first violation parse_records lists; `validate` lists them all, and
    in strict mode also an ASR model name outside the known set, which a load only warns about."""

    @pytest.mark.parametrize(
        "mutate, positions",
        [
            pytest.param(lambda objects: None, [], id="unmutated"),
            pytest.param(_set(3, "id", "Ses01F_script01_F00"), [3], id="malformed-id"),
            pytest.param(_set(5, "whispertiny", 7), [5], id="non-string-transcription"),
            pytest.param(_set(2, "need_prediction", "maybe"), [2], id="bad-need-prediction"),
            pytest.param(_strip_transcriptions, [4], id="no-transcriptions"),
            pytest.param(_set(6, "shinynewasr", "well"), [], id="unknown-model-strict"),
            pytest.param(_repeat_target, [20], id="repeated-id"),
            pytest.param(_repeat_early_then_schema_fault, [19, 1], id="repeat-before-schema-fault"),
        ],
    )
    def test_build_corpus_raises_the_first_listed_violation(self, mutate, positions, caplog):
        objects = generate_corpus(seed=5, n_records=20)
        mutate(objects)
        records, violations = parse_records(objects)
        assert [v.position for v in violations] == positions
        if not violations:
            with caplog.at_level("WARNING"):
                assert build_corpus(objects).records == records
            unknown = [m for m in caplog.messages if m.startswith("unknown ASR model(s)")]
            assert len(unknown) == ("shinynewasr" in objects[6])
            if unknown:
                assert [v.position for v in parse_records(objects, strict=True)[1]] == [6]
            return
        with pytest.raises(SchemaError) as excinfo:
            build_corpus(objects)
        raised, first = excinfo.value, violations[0]
        assert (raised.position, raised.key, str(raised)) == (first.position, first.key, str(first))
