from __future__ import annotations

import random
from collections import Counter

import pytest

from textemo.llm import CompletionRequest, MockBackend, normalize_label
from textemo.metrics import (
    EVAL_LABELS,
    EmptyInput,
    emotion_class,
    evaluate,
)


def tally_oracle(pairs):
    """Independent recount: per-class recall via plain counters."""
    kept = [(t, p) for t, p in pairs if t in EVAL_LABELS]
    truth_totals = Counter(t for t, _ in kept)
    correct = Counter(t for t, p in kept if t == p)
    recalls = {t: correct[t] / truth_totals[t] for t in truth_totals}
    ua = sum(recalls.values()) / len(recalls)
    return ua, recalls, len(kept), len(pairs) - len(kept)


class TestEvaluate:
    def test_all_correct(self):
        pairs = [(l, l) for l in EVAL_LABELS for _ in range(3)]
        report = evaluate(pairs)
        assert report.ua == 1.0
        assert all(f1 == 1.0 for f1 in report.per_class_f1.values())
        assert report.n_scored == 12

    def test_hand_derived_two_class_example(self):
        report = evaluate([("neutral", "sad"), ("sad", "sad")])
        assert report.ua == 0.5
        assert report.per_class_f1["neutral"] == 0.0
        assert report.per_class_f1["sad"] == pytest.approx(2 / 3, abs=1e-12)

    def test_matrix_layout(self):
        report = evaluate([("neutral", "sad"), ("sad", "sad"), ("angry", "happy")])
        # rows truth, cols prediction, order neutral/sad/happy/angry
        assert report.confusion[0][1] == 1
        assert report.confusion[1][1] == 1
        assert report.confusion[3][2] == 1
        assert sum(sum(row) for row in report.confusion) == report.n_scored == 3

    def test_exclusions_counted(self):
        pairs = [("sad", "sad"), ("frustration", "sad"), (None, "neutral"), ("excited", "happy")]
        report = evaluate(pairs)
        assert report.n_scored == 1
        assert report.n_excluded == 3

    def test_truth_label_whitespace_and_case_folded(self):
        report = evaluate([(" Sad ", "sad")])
        assert report.n_scored == 1
        assert report.ua == 1.0

    @pytest.mark.parametrize("truth", [None, "", "   ", " SAD ", "Frustration", *EVAL_LABELS])
    def test_a_truth_label_is_kept_exactly_when_its_class_is_a_target(self, truth):
        report = evaluate([(truth, "angry"), ("sad", "sad")])
        kept = emotion_class(truth) in EVAL_LABELS
        assert (report.n_scored, report.n_excluded) == ((2, 0) if kept else (1, 1))
        if kept:
            assert report.confusion[EVAL_LABELS.index(emotion_class(truth))][EVAL_LABELS.index("angry")] == 1

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            evaluate([("frustration", "sad")])
        with pytest.raises(EmptyInput):
            evaluate([])

    def test_invalid_prediction_rejected(self):
        with pytest.raises(ValueError, match="outside the 4-class"):
            evaluate([("sad", "frustration")])

    def test_scripted_mock_pairs_match_tally_oracle(self):
        rng = random.Random(13)
        backend = MockBackend(seed=5)
        pairs = []
        for i in range(100):
            truth = rng.choice(list(EVAL_LABELS) + ["frustration", None])
            raw = backend.send(CompletionRequest(model="m", prompt=f"pair {i}"))
            pairs.append((truth, normalize_label(raw)))
        report = evaluate(pairs)
        ua, recalls, n_scored, n_excluded = tally_oracle(pairs)
        assert report.ua == ua
        assert report.n_scored == n_scored
        assert report.n_excluded == n_excluded
        for i, label in enumerate(EVAL_LABELS):
            row = sum(report.confusion[i])
            if row:
                assert report.confusion[i][i] / row == recalls[label]

    def test_permutation_invariance(self):
        rng = random.Random(3)
        pairs = [(rng.choice(EVAL_LABELS), rng.choice(EVAL_LABELS)) for _ in range(60)]
        a = evaluate(pairs)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        b = evaluate(shuffled)
        assert a.confusion == b.confusion
        assert a.ua == b.ua
        assert a.per_class_f1 == b.per_class_f1

    def test_duplicating_one_class_leaves_ua_unchanged(self):
        rng = random.Random(4)
        pairs = [(rng.choice(EVAL_LABELS), rng.choice(EVAL_LABELS)) for _ in range(40)]
        base = evaluate(pairs)
        duplicated = pairs + [(t, p) for t, p in pairs if t == "sad"] * 3
        assert evaluate(duplicated).ua == pytest.approx(base.ua, abs=1e-12)

    def test_scalars_consistent_with_emitted_matrix(self):
        rng = random.Random(8)
        pairs = [(rng.choice(EVAL_LABELS), rng.choice(EVAL_LABELS)) for _ in range(200)]
        report = evaluate(pairs)
        recalls = []
        for i, label in enumerate(EVAL_LABELS):
            tp = report.confusion[i][i]
            truth_total = sum(report.confusion[i])
            pred_total = sum(row[i] for row in report.confusion)
            recall = tp / truth_total
            precision = tp / pred_total if pred_total else 0.0
            recalls.append(recall)
            expect_f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
            assert abs(report.per_class_f1[label] - expect_f1) <= 1e-12
        assert abs(report.ua - sum(recalls) / len(recalls)) <= 1e-12

    def test_absent_class_excluded_from_ua(self, caplog):
        with caplog.at_level("WARNING"):
            report = evaluate([("sad", "sad"), ("neutral", "neutral")])
        assert report.ua == 1.0
        assert any("absent from truth" in m for m in caplog.messages)

    def test_ua_is_macro_recall_and_says_so(self):
        report = evaluate([("sad", "sad")] * 3 + [("neutral", "sad")])
        assert report.ua == 0.5  # recalls 1 and 0
        assert sum(report.confusion[i][i] for i in range(len(EVAL_LABELS))) / report.n_scored == 0.75  # plain accuracy
        assert report.to_dict()["ua_definition"] == "macro-recall"
        assert report.format_table().splitlines()[-1].startswith("UA (macro-recall) = 0.500")
