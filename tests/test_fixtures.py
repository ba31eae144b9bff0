from __future__ import annotations

import time
from collections import Counter

import pytest

from textemo.corpus import parse_id, parse_records
from textemo.fixtures import generate_corpus


class TestGenerateCorpus:
    def test_exact_count(self):
        assert len(generate_corpus(seed=0, n_records=50)) == 50

    def test_deterministic_in_seed(self):
        assert generate_corpus(seed=5, n_records=40) == generate_corpus(seed=5, n_records=40)
        assert generate_corpus(seed=5, n_records=40) != generate_corpus(seed=6, n_records=40)

    def test_all_ids_valid_and_unique(self):
        objects = generate_corpus(seed=1, n_records=200)
        ids = [obj["id"] for obj in objects]
        assert len(set(ids)) == len(ids)
        for raw in ids:
            parse_id(raw)  # must not raise

    def test_mixes_id_kinds(self):
        objects = generate_corpus(seed=2, n_records=300)
        kinds = Counter(parse_id(obj["id"]).dialogue_kind for obj in objects)
        assert set(kinds) == {"script", "impro", "bare"}

    def test_loads_strict(self):
        objects = generate_corpus(seed=3, n_records=80)
        assert parse_records(objects, strict=True)[1] == []

    def test_short_outputs_present_for_filter_paths(self):
        objects = generate_corpus(seed=5, n_records=100, short_rate=0.3)
        short = sum(
            1
            for obj in objects
            for key, value in obj.items()
            if key not in ("need_prediction", "emotion", "id", "speaker", "Ground truth")
            and len(value) <= 5
        )
        assert short > 0

    def test_multi_subset_scripts_share_script_key(self):
        objects = generate_corpus(seed=8, n_records=400)
        by_key = Counter()
        subsets_by_key: dict[str, set] = {}
        for obj in objects:
            uid = parse_id(obj["id"])
            by_key[uid.script_key] += 1
            if uid.dialogue_kind == "script":
                subsets_by_key.setdefault(uid.script_key, set()).add(uid.subset)
        assert any(len(subsets) > 1 for subsets in subsets_by_key.values())

    def test_rates_at_the_bounds_are_honoured(self):
        always = generate_corpus(seed=6, n_records=30, need_prediction_rate=1.0, short_rate=0.0)
        never = generate_corpus(seed=6, n_records=30, need_prediction_rate=0.0, short_rate=1.0)
        assert {obj["need_prediction"] for obj in always} == {"yes"}
        assert {obj["need_prediction"] for obj in never} == {"no"}
        assert {obj["whispertiny"] for obj in never} <= {"Yeah", "Hi", "Oh", "Hmm", "Okay"}

    @pytest.mark.parametrize(
        "rates, message",
        [
            pytest.param({"need_prediction_rate": 1.5}, "need_prediction_rate must be within [0, 1], got 1.5", id="rate-above-one"),
            pytest.param({"short_rate": -1.0}, "short_rate must be within [0, 1], got -1.0", id="negative-rate"),
            pytest.param({"short_rate": float("nan")}, "short_rate must be within [0, 1], got nan", id="nan-rate"),
        ],
    )
    def test_a_rate_outside_zero_to_one_is_an_error(self, rates, message):
        with pytest.raises(ValueError) as excinfo:
            generate_corpus(seed=0, n_records=10, **rates)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_raises_once_dialogue_ids_run_out(self, seed):
        # 405 dialogue keys x at most 3 subsets x 8 utterances < 10_000
        start = time.monotonic()
        with pytest.raises(ValueError, match="dialogue"):
            generate_corpus(seed=seed, n_records=10_000)
        assert time.monotonic() - start < 10.0
