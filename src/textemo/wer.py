"""Word-error-rate computation and the per-model, per-emotion aggregate report.

Text is normalized to lowercase tokens before alignment: every character
outside [a-z0-9'] becomes a space, so contractions like "it's" survive as one
token and align against ASR outputs such as "but's". WER is the standard
(S + D + I) / reference-length under a minimum-cost token alignment, and the
report micro-averages within each emotion class (total edits over total
reference tokens).

Both alignment kernels use the bit-vector algorithm of Myers (1999, J. ACM
46(3)) in the Levenshtein form of Hyyrö (2003), which advances a whole DP
column per hypothesis token. `distance` returns only the total; `wer` and
`wer_report` use it. `edit_distance` keeps two vectors per column and
backtraces over them for the S/D/I decomposition.
"""

from __future__ import annotations

import csv
import io
import re
from typing import NamedTuple, Sequence

from .corpus import Corpus
from .metrics import EVAL_LABELS, emotion_class

# Emotion classes of the aggregate report: the 4 target labels, a catch-all
# for every other label, and the all-classes roll-up.
REPORT_CLASSES = EVAL_LABELS + ("other", "overall")

_CLEAN_RE = re.compile(r"[^a-z0-9']+")
# The same cleaning for ASCII text in one str.translate pass, as a table
# indexed by code point: A-Z lowercased, every other character outside
# [a-z0-9'] a space.
_ASCII_CLEAN = "".join(
    c.lower() if c.isupper() else c if c.islower() or c.isdigit() or c == "'" else " " for c in map(chr, range(128))
)


class EmptyReference(ValueError):
    """Reference text normalized to zero tokens; WER is undefined."""


class NormalizedTokens:
    """Lowercase tokens of one normalized text."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple[str, ...]):
        self.tokens = tokens


def _tokenize(text: str) -> list[str]:
    # Non-ASCII text takes the regex: some of it lowers to ASCII ("İ", the Kelvin sign "K").
    if text.isascii():
        return text.translate(_ASCII_CLEAN).split()
    return _CLEAN_RE.sub(" ", text.lower()).split()


def normalize(text: str) -> NormalizedTokens:
    """Lowercase, strip everything outside [a-z0-9'] to spaces, split."""
    return NormalizedTokens(tokens=tuple(_tokenize(text)))


class EditOps(NamedTuple):
    """Substitution/deletion/insertion decomposition of one optimal alignment."""

    substitutions: int
    deletions: int
    insertions: int

    @property
    def total(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def _tokens(value: NormalizedTokens | Sequence[str]) -> Sequence[str]:
    return value.tokens if isinstance(value, NormalizedTokens) else value


def edit_distance(ref: NormalizedTokens | Sequence[str], hyp: NormalizedTokens | Sequence[str]) -> EditOps:
    """Minimum-cost alignment with unit costs, decomposed into S/D/I.

    Ties during backtrace prefer substitution over deletion over insertion,
    so the decomposition is deterministic. The DP columns come from the
    bit-vector recurrence of `_bit_distance`; the backtrace reads two of
    their vectors per column instead of a full matrix of costs.
    """
    a = _tokens(ref)
    b = _tokens(hyp)
    # Equal tokens at either end are matched on an optimal alignment, and
    # trimming them leaves the backtrace's S/D/I counts as they were.
    n, m = len(a), len(b)
    while n and m and a[n - 1] == b[m - 1]:
        n, m = n - 1, m - 1
    k = 0
    while k < n and k < m and a[k] == b[k]:
        k += 1
    a, b, n, m = a[k:n], b[k:m], n - k, m - k
    if not n or not m:
        return EditOps(0, n, m)
    get = _match_masks(a).get
    full = (1 << n) - 1
    # Index j holds column j: bit i-1 of d0s[j] is set where D[i][j] ==
    # D[i-1][j-1], and bit i-1 of vps[j] where D[i][j] == D[i-1][j] + 1.
    vp, vn = full, 0
    d0s, vps = [0], [0]
    for token in b:
        eq = get(token, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = (vn | ~(d0 | vp)) << 1 | 1
        vp = ((d0 & vp) << 1 | ~(d0 | hp)) & full
        vn = hp & d0
        d0s.append(d0)
        vps.append(vp)

    subs = dels = ins = 0
    i, j = n, m
    while i and j:
        bit = 1 << (i - 1)
        if a[i - 1] == b[j - 1]:  # a match is always on an optimal path
            i -= 1
            j -= 1
        elif not d0s[j] & bit:  # D[i][j] == D[i-1][j-1] + 1
            subs += 1
            i -= 1
            j -= 1
        elif vps[j] & bit:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditOps(subs, dels + i, ins + j)


def _match_masks(ref: Sequence[str]) -> dict[str, int]:
    """Token -> bitmask with bit i set where ref[i] is that token."""
    masks: dict[str, int] = {}
    bit = 1
    for token in ref:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def _bit_distance(ref: Sequence[str], masks: dict[str, int], hyp: Sequence[str]) -> int:
    """Levenshtein distance between ref, whose match masks are `masks`, and hyp.

    Equal tokens at either end are matched on an optimal alignment, so they
    are trimmed first. The masks are not rebuilt for the m-token remainder:
    each is shifted right by the prefix length as it is read, and the
    suffix's bits sit above bit m-1. Column j of the DP matrix is held as two
    bit vectors: bit i of vp (vn) is set where D[i+1][j] - D[i][j] is +1
    (-1). Each hypothesis token advances the column in O(1) big-int
    operations. Row 0 is D[0][j] = j, so a +1 is shifted in at the bottom of
    each step, and D[m][n] = n + popcount(vp) - popcount(vn) is read once at
    the end. Bits above m-1 never reach lower ones (carries and shifts only
    move up), so masking vp each step and vn at the end is enough.
    """
    m, n = len(ref), len(hyp)
    k = 0
    while k < m and k < n and ref[k] == hyp[k]:
        k += 1
    while m > k and n > k and ref[m - 1] == hyp[n - 1]:
        m, n = m - 1, n - 1
    hyp = hyp[k:n]
    m, n = m - k, n - k
    if not m or not n:
        return m + n
    full = (1 << m) - 1
    vp, vn = full, 0
    get = masks.get
    for token in hyp:
        eq = get(token, 0) >> k
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = (vn | ~(d0 | vp)) << 1 | 1
        vp = ((d0 & vp) << 1 | ~(d0 | hp)) & full
        vn = hp & d0
    return n + vp.bit_count() - (vn & full).bit_count()


def distance(ref: NormalizedTokens | Sequence[str], hyp: NormalizedTokens | Sequence[str]) -> int:
    """Unit-cost token edit distance; equals edit_distance(ref, hyp).total."""
    a = _tokens(ref)
    return _bit_distance(a, _match_masks(a), _tokens(hyp))


def wer(ref: NormalizedTokens | Sequence[str], hyp: NormalizedTokens | Sequence[str]) -> float:
    """(S + D + I) / |ref|. Raises EmptyReference when ref has no tokens."""
    ref_tokens = _tokens(ref)
    if not ref_tokens:
        raise EmptyReference("reference has no tokens after normalization")
    return distance(ref_tokens, hyp) / len(ref_tokens)


class WerCell(NamedTuple):
    """Micro-averaged WER of one (model, class) pair."""

    wer: float
    utterances: int


class WerReport(NamedTuple):
    """Per-model, per-class WER aggregate over a corpus, and the count of
    records skipped for each reason."""

    cells: dict[tuple[str, str], WerCell]
    class_counts: dict[str, int]
    models: list[str]
    skipped: dict[str, int]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["model", *REPORT_CLASSES])
        for model in self.models:
            row: list[str] = [model]
            for cls in REPORT_CLASSES:
                cell = self.cells.get((model, cls))
                row.append(f"{cell.wer:.4f}" if cell else "")
            writer.writerow(row)
        writer.writerow(["utterances", *[self.class_counts.get(c, 0) for c in REPORT_CLASSES]])
        return buf.getvalue()

    def format_table(self) -> str:
        width = max([len("utterances")] + [len(m) for m in self.models]) + 2
        lines = [" " * width + "".join(f"{c:>10}" for c in REPORT_CLASSES)]
        for model in self.models:
            cells = []
            for cls in REPORT_CLASSES:
                cell = self.cells.get((model, cls))
                cells.append(f"{cell.wer:>10.2f}" if cell else f"{'-':>10}")
            lines.append(f"{model:<{width}}" + "".join(cells))
        counts = "".join(f"{self.class_counts.get(c, 0):>10}" for c in REPORT_CLASSES)
        lines.append(f"{'utterances':<{width}}" + counts)
        return "\n".join(lines)


def wer_report(corpus: Corpus) -> WerReport:
    """Micro-averaged WER per ASR model and emotion class.

    Records missing ground truth or an emotion label are skipped and counted,
    as are records whose reference normalizes to zero tokens. Each reference
    builds its match masks once for all of the record's hypotheses, and
    models that output the same text share one distance.
    """
    tally: dict[tuple[str, str], list[int]] = {}  # (model, class) -> [edits, reference tokens, utterances]
    class_counts: dict[str, int] = {}
    skipped: dict[str, int] = {}

    for rec in corpus.records:
        cls = emotion_class(rec.emotion)
        if rec.ground_truth is None:
            skipped["no_ground_truth"] = skipped.get("no_ground_truth", 0) + 1
            continue
        if cls is None:
            skipped["no_emotion"] = skipped.get("no_emotion", 0) + 1
            continue
        ref = _tokenize(rec.ground_truth)
        if not ref:
            skipped["empty_reference"] = skipped.get("empty_reference", 0) + 1
            continue

        class_counts[cls] = class_counts.get(cls, 0) + 1
        class_counts["overall"] = class_counts.get("overall", 0) + 1
        masks, ref_len = _match_masks(ref), len(ref)
        by_text: dict[str, int] = {}
        for model, hyp_text in rec.transcriptions.items():
            dist = by_text.get(hyp_text)
            if dist is None:
                dist = by_text[hyp_text] = _bit_distance(ref, masks, _tokenize(hyp_text))
            counts = tally.get((model, cls))
            if counts is None:
                counts = tally[model, cls] = [0, 0, 0]
            counts[0] += dist
            counts[1] += ref_len
            counts[2] += 1

    # models in order of first appearance, which is the order their first tally was made
    overall: dict[str, list[int]] = {}
    for (model, _), counts in tally.items():
        overall[model] = [a + b for a, b in zip(overall.get(model, (0, 0, 0)), counts)]
    tally.update(((model, "overall"), counts) for model, counts in overall.items())
    cells = {key: WerCell(wer=edits / ref_len, utterances=n) for key, (edits, ref_len, n) in tally.items()}
    return WerReport(cells=cells, class_counts=class_counts, models=list(overall), skipped=skipped)
