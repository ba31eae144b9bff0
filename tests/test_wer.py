from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from textemo.corpus import build_corpus
from textemo.fixtures import generate_corpus
from textemo.wer import (
    EmptyReference,
    distance,
    edit_distance,
    emotion_class,
    normalize,
    wer,
    wer_report,
)

from conftest import SAMPLE_ENTRY, make_entry

GROUND_TRUTH = SAMPLE_ENTRY["Ground truth"]


def brute_force_distance(a, b):
    """Plain recursive Levenshtein, no memoization; the independent oracle."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        brute_force_distance(a[1:], b[1:]) + (a[0] != b[0]),
        brute_force_distance(a[1:], b) + 1,
        brute_force_distance(a, b[1:]) + 1,
    )


def dp_edit_ops(a, b):
    """Full cost matrix plus backtrace with the tie rule (substitution, then
    deletion, then insertion); the oracle for both kernels' results."""
    n, m = len(a), len(b)
    rows = [list(range(m + 1))]
    for i in range(1, n + 1):
        row = [i]
        for j in range(1, m + 1):
            row.append(min(rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]), rows[i - 1][j] + 1, row[j - 1] + 1))
        rows.append(row)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and rows[i][j] == rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            subs += a[i - 1] != b[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and rows[i][j] == rows[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels, ins


def split(ops):
    return ops.substitutions, ops.deletions, ops.insertions


class TestNormalize:
    def test_ground_truth_tokens(self):
        tokens = normalize(GROUND_TRUTH).tokens
        assert list(tokens) == [
            "yeah", "i", "suppose", "i", "have", "been", "but", "it's", "going", "from", "me",
        ]
        assert len(tokens) == 11

    def test_empty(self):
        assert normalize("").tokens == ()

    def test_whitespace_collapse(self):
        assert normalize("A  B").tokens == ("a", "b")

    def test_apostrophe_kept_punctuation_stripped(self):
        assert normalize("but's going, from me!?").tokens == ("but's", "going", "from", "me")

    def test_digits_kept(self):
        assert normalize("route 66").tokens == ("route", "66")

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        tokens = normalize(text).tokens
        assert normalize(" ".join(tokens)).tokens == tokens
        for token in tokens:
            assert token
            assert not any(ch.isspace() for ch in token)

    # "İ" and the Kelvin sign lower to ASCII letters; "ß" and fullwidth digits stay outside [a-z0-9'].
    TRICKY = "İ\u212aßẞ\uff10\uff19é\u00a0\u3000"
    ASCII = string.ascii_letters + string.digits + string.punctuation + " \t\n\r\x0b\x0c\x00\x7f"

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.text(max_size=60),
            st.text(alphabet=ASCII, max_size=60),
            st.text(alphabet=ASCII + TRICKY, max_size=60),
        )
    )
    def test_matches_the_regex_reference(self, text):
        assert list(normalize(text).tokens) == re.sub(r"[^a-z0-9']+", " ", text.lower()).split()

    def test_every_ascii_character(self):
        for code in range(128):
            text = f"a{chr(code)}b"
            assert list(normalize(text).tokens) == re.sub(r"[^a-z0-9']+", " ", text.lower()).split(), code


class TestEditDistance:
    def test_identity(self):
        ops = edit_distance(["a", "b", "c"], ["a", "b", "c"])
        assert (ops.substitutions, ops.deletions, ops.insertions) == (0, 0, 0)

    def test_full_deletion(self):
        ops = edit_distance(["a", "b", "c"], [])
        assert (ops.substitutions, ops.deletions, ops.insertions) == (0, 3, 0)

    def test_full_insertion(self):
        ops = edit_distance([], ["a", "b"])
        assert (ops.substitutions, ops.deletions, ops.insertions) == (0, 0, 2)

    def test_accepts_normalized_tokens(self):
        ops = edit_distance(normalize("a b c"), normalize("a x c"))
        assert (ops.substitutions, ops.deletions, ops.insertions) == (1, 0, 0)

    def test_deterministic_decomposition(self):
        results = {
            (lambda o: (o.substitutions, o.deletions, o.insertions))(
                edit_distance(["a", "b", "c", "d"], ["b", "c", "x"])
            )
            for _ in range(50)
        }
        assert len(results) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=8),
        st.lists(st.sampled_from("abcd"), max_size=8),
    )
    def test_matches_brute_force_oracle(self, a, b):
        assert edit_distance(a, b).total == brute_force_distance(tuple(a), tuple(b))

    def test_exhaustive_small(self):
        # every pair with lengths <= 3 over a 3-symbol alphabet
        import itertools

        seqs = [p for n in range(4) for p in itertools.product("abc", repeat=n)]
        for a in seqs:
            for b in seqs:
                assert edit_distance(a, b).total == brute_force_distance(a, b)

    def test_split_matches_dp_backtrace_exhaustive(self):
        # every pair with lengths <= 4 over 3 symbols, ties included
        import itertools

        seqs = [p for n in range(5) for p in itertools.product("abc", repeat=n)]
        for a in seqs:
            for b in seqs:
                assert split(edit_distance(a, b)) == dp_edit_ops(a, b), (a, b)

    @pytest.mark.parametrize("ref_len", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("hyp_len", [1, 64, 230])
    def test_split_matches_dp_backtrace_long(self, ref_len, hyp_len):
        rng = random.Random(ref_len * 1000 + hyp_len)
        ref = rng.choices(["a", "b", "c", "d"], k=ref_len)
        hyp = [tok if rng.random() < 0.7 else rng.choice("abxy") for tok in ref][:hyp_len]
        hyp += rng.choices("abxy", k=max(0, hyp_len - len(hyp)))
        assert split(edit_distance(ref, hyp)) == dp_edit_ops(ref, hyp)


class TestDistance:
    """The distance-only kernel against the test-side DP oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=12),
        st.lists(st.sampled_from("abcd"), max_size=12),
    )
    def test_matches_edit_distance_short(self, a, b):
        assert distance(a, b) == sum(dp_edit_ops(a, b))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(["yeah", "i", "me", "no", "it's"]), min_size=60, max_size=260),
        st.lists(st.sampled_from(["yeah", "i", "me", "no", "so"]), max_size=260),
    )
    def test_matches_edit_distance_long(self, a, b):
        assert distance(a, b) == sum(dp_edit_ops(a, b))

    @pytest.mark.parametrize("ref_len", [0, 1, 63, 64, 65, 200, 257])
    @pytest.mark.parametrize("hyp_len", [0, 1, 64, 230])
    def test_lengths_across_word_boundaries(self, ref_len, hyp_len):
        rng = random.Random(ref_len * 1000 + hyp_len)
        ref = rng.choices(["a", "b", "c", "d", "e", "f"], k=ref_len)
        hyp = [tok if rng.random() < 0.7 else rng.choice("abcxyz") for tok in ref][:hyp_len]
        hyp += rng.choices("abxy", k=max(0, hyp_len - len(hyp)))
        assert distance(ref, hyp) == sum(dp_edit_ops(ref, hyp))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), max_size=6),
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.lists(st.sampled_from("abc"), max_size=6),
    )
    def test_shared_prefix_and_suffix(self, prefix, x, y, suffix):
        a, b = prefix + x + suffix, prefix + y + suffix
        assert distance(a, b) == sum(dp_edit_ops(a, b))
        assert distance(b, a) == sum(dp_edit_ops(b, a))

    @pytest.mark.parametrize(
        "a,b",
        [
            ("p q", "p x q"),  # the reference is empty after trimming
            ("p x q", "p q"),  # the hypothesis is empty after trimming
            ("p q p q", "p q"),
            ("a a a", "a a"),
            ("a b a", "a b a b a"),
            ("p " * 70 + "x " + "s " * 70, "p " * 70 + "y z " + "s " * 70),
        ],
    )
    def test_trimmed_ends(self, a, b):
        a, b = a.split(), b.split()
        assert distance(a, b) == sum(dp_edit_ops(a, b))
        assert distance(b, a) == sum(dp_edit_ops(b, a))

    def test_exhaustive_small(self):
        # every pair with lengths <= 5 over 3 symbols, against a plain
        # two-row DP; this is the kernel wer_report runs
        import itertools

        seqs = [p for n in range(6) for p in itertools.product("abc", repeat=n)]
        for a in seqs:
            for b in seqs:
                row = list(range(len(b) + 1))
                for i, x in enumerate(a, start=1):
                    prev, row[0] = row[0], i
                    for j, y in enumerate(b, start=1):
                        prev, row[j] = row[j], min(prev + (x != y), row[j] + 1, row[j - 1] + 1)
                assert distance(a, b) == row[-1], (a, b)

    def test_empty_sides(self):
        assert distance([], []) == 0
        assert distance([], ["a", "b"]) == 2
        assert distance(["a", "b", "c"], []) == 3

    def test_repeated_tokens(self):
        cases = [
            (["yeah"] * 300, ["yeah"]),
            (["yeah"], ["yeah"] * 300),
            (["a", "b"] * 120, ["b", "a"] * 130),
            (["no"] * 70 + ["yes"] * 70, ["yes"] * 70 + ["no"] * 70),
        ]
        for a, b in cases:
            assert distance(a, b) == sum(dp_edit_ops(a, b))

    def test_accepts_normalized_tokens(self):
        assert distance(normalize(GROUND_TRUTH), normalize("Yeah")) == 10


class TestWer:
    def test_sample_deletion_heavy(self):
        ref = normalize(GROUND_TRUTH)
        assert wer(ref, normalize("Yeah")) == pytest.approx(10 / 11, abs=1e-9)

    def test_identity_zero(self):
        ref = normalize("hello there friend")
        assert wer(ref, ref) == 0.0

    def test_can_exceed_one(self):
        assert wer(["a"], ["b", "c"]) == 2.0

    def test_empty_reference_raises(self):
        with pytest.raises(EmptyReference):
            wer(normalize("!!!"), normalize("hello"))

    def test_never_negative_random(self):
        rng = random.Random(7)
        words = ["a", "b", "c", "d"]
        for _ in range(200):
            ref = rng.choices(words, k=rng.randint(1, 6))
            hyp = rng.choices(words, k=rng.randint(0, 6))
            assert wer(ref, hyp) >= 0.0


class TestEmotionClass:
    def test_target_labels(self):
        for label in ("neutral", "sad", "happy", "angry"):
            assert emotion_class(label) == label

    def test_other(self):
        assert emotion_class("frustration") == "other"
        assert emotion_class("Surprise") == "other"

    def test_case_insensitive(self):
        assert emotion_class("Sad") == "sad"

    def test_missing(self):
        assert emotion_class(None) is None

    @pytest.mark.parametrize("label", ["", "  ", "\t\n"])
    def test_blank_is_missing(self, label):
        assert emotion_class(label) is None


class TestWerReport:
    def test_single_record(self, sample_entry):
        corpus = build_corpus([sample_entry])
        report = wer_report(corpus)
        assert report.class_counts == {"sad": 1, "overall": 1}
        ref = normalize(GROUND_TRUTH)
        for model, text in sample_entry.items():
            if model in ("need_prediction", "emotion", "id", "speaker", "Ground truth"):
                continue
            cell = report.cells[(model, "sad")]
            assert cell.wer == pytest.approx(wer(ref, normalize(text)))
            assert cell.utterances == 1
            assert report.cells[(model, "overall")].wer == cell.wer

    def test_identity_corpus_all_zero(self):
        objects = [
            make_entry(
                f"Ses01F_01_F{i:03d}",
                emotion=label,
                ground_truth="we are happy to be here",
                models={"whispertiny": "we are happy to be here"},
            )
            for i, label in enumerate(["neutral", "sad", "happy", "angry"])
        ]
        report = wer_report(build_corpus(objects))
        assert report.class_counts["overall"] == 4
        for cls in ("neutral", "sad", "happy", "angry", "overall"):
            assert report.cells[("whispertiny", cls)].wer == 0.0
        assert ("whispertiny", "other") not in report.cells

    def test_micro_average_identity_on_equal_length_refs(self):
        # with equal-length references, micro average == mean of per-utterance WERs
        refs = ["a b c d", "a b c d", "a b c d"]
        hyps = ["a b c d", "x b c d", "x y c d"]
        objects = [
            make_entry(
                f"Ses01F_01_F{i:03d}",
                emotion="happy",
                ground_truth=r,
                models={"whispertiny": h},
            )
            for i, (r, h) in enumerate(zip(refs, hyps))
        ]
        report = wer_report(build_corpus(objects))
        per_utterance = [wer(normalize(r), normalize(h)) for r, h in zip(refs, hyps)]
        assert report.cells[("whispertiny", "happy")].wer == pytest.approx(
            sum(per_utterance) / len(per_utterance)
        )

    def test_skips_counted(self):
        objects = [
            make_entry("Ses01F_01_F000", emotion="sad", ground_truth="hello there you"),
            make_entry("Ses01F_01_F001", emotion=None, ground_truth="hello there you"),
            make_entry("Ses01F_01_F002", emotion="sad", ground_truth=None),
            make_entry("Ses01F_01_F003", emotion="sad", ground_truth="..."),
        ]
        report = wer_report(build_corpus(objects))
        assert report.skipped == {"no_emotion": 1, "no_ground_truth": 1, "empty_reference": 1}
        assert report.class_counts["overall"] == 1

    def test_blank_emotion_is_skipped_like_a_missing_one(self):
        objects = [
            make_entry("Ses01F_01_F000", emotion="sad", ground_truth="hello there you"),
            make_entry("Ses01F_01_F001", emotion="  ", ground_truth="hello there you"),
        ]
        report = wer_report(build_corpus(objects))
        assert report.skipped == {"no_emotion": 1}
        assert report.class_counts == {"sad": 1, "overall": 1}

    def test_other_class_bucket(self):
        objects = [
            make_entry("Ses01F_01_F000", emotion="frustration", ground_truth="oh no not again"),
        ]
        report = wer_report(build_corpus(objects))
        assert report.class_counts == {"other": 1, "overall": 1}

    def test_csv_shape(self, sample_entry):
        report = wer_report(build_corpus([sample_entry]))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "model,neutral,sad,happy,angry,other,overall"
        assert len(lines) == 1 + 11 + 1
        assert lines[-1].startswith("utterances,")

    @pytest.mark.parametrize("seed", [0, 17])
    def test_matches_dp_recomputation_on_generated_corpus(self, seed):
        corpus = build_corpus(generate_corpus(seed=seed, n_records=400))
        report = wer_report(corpus)
        totals: dict[tuple[str, str], list[int]] = {}
        for rec in corpus.records:
            cls = emotion_class(rec.emotion)
            ref = normalize(rec.ground_truth).tokens
            if cls is None or not ref:
                continue
            for model, text in rec.transcriptions.items():
                edits = sum(dp_edit_ops(ref, normalize(text).tokens))
                for bucket in (cls, "overall"):
                    cell = totals.setdefault((model, bucket), [0, 0, 0])
                    cell[0] += edits
                    cell[1] += len(ref)
                    cell[2] += 1
        assert set(report.cells) == set(totals)
        for key, (edits, ref_len, count) in totals.items():
            assert report.cells[key].wer == edits / ref_len
            assert report.cells[key].utterances == count
