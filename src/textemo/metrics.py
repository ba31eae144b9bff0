"""Prediction scoring: confusion matrix, per-class F1, and unweighted accuracy.

Unweighted accuracy (UA) is macro-averaged recall over the four target
classes, the metric the challenge reports; plain accuracy is the trace of the
confusion matrix over n_scored. A truth label maps to its class by
``emotion_class``, as in the WER report; one outside the target set is
excluded from scoring but counted.
"""

from __future__ import annotations

from typing import NamedTuple

from . import log
from .corpus import is_blank

EVAL_LABELS = ("neutral", "sad", "happy", "angry")

UA_MACRO_RECALL = "macro-recall"  # named in the eval file and the table


def emotion_class(label: str | None) -> str | None:
    """Map an emotion label to a report class; None when the label is missing or blank."""
    if is_blank(label):
        return None
    lowered = label.strip().lower()
    return lowered if lowered in EVAL_LABELS else "other"


class EmptyInput(ValueError):
    """No scoreable pair left after exclusion."""


class EvalReport(NamedTuple):
    """Scores over the 4 target classes.

    confusion rows are truth, columns prediction, both in EVAL_LABELS order.
    """

    confusion: list[list[int]]
    per_class_f1: dict[str, float]
    ua: float
    n_scored: int
    n_excluded: int

    def to_dict(self) -> dict:
        return {"labels": list(EVAL_LABELS), "ua_definition": UA_MACRO_RECALL, **self._asdict()}

    def format_table(self) -> str:
        header = "truth \\ pred" + "".join(f"{l:>9}" for l in EVAL_LABELS)
        lines = [header]
        for i, label in enumerate(EVAL_LABELS):
            lines.append(f"{label:<12}" + "".join(f"{n:>9}" for n in self.confusion[i]))
        lines.append("")
        lines.append("  ".join(f"F1({l})={self.per_class_f1[l]:.3f}" for l in EVAL_LABELS))
        lines.append(f"UA ({UA_MACRO_RECALL}) = {self.ua:.3f}   scored={self.n_scored} excluded={self.n_excluded}")
        return "\n".join(lines)


def evaluate(pairs: list[tuple[str | None, str]]) -> EvalReport:
    """Score (truth, prediction) pairs.

    Pairs whose truth is missing or outside the 4-class set are excluded and
    counted. Predictions must already be normalized into the 4-class set.
    Raises EmptyInput when nothing survives exclusion.
    """
    pos = {label: i for i, label in enumerate(EVAL_LABELS)}
    confusion = [[0] * len(EVAL_LABELS) for _ in EVAL_LABELS]
    n_excluded = 0
    for truth, prediction in pairs:
        if prediction not in pos:
            raise ValueError(f"prediction {prediction!r} outside the 4-class label set")
        truth_key = emotion_class(truth)
        if truth_key not in pos:
            n_excluded += 1
            continue
        confusion[pos[truth_key]][pos[prediction]] += 1
    n_scored = sum(sum(row) for row in confusion)
    if n_scored == 0:
        raise EmptyInput("no pair with a target-class truth label")

    per_class_f1: dict[str, float] = {}
    recalls: list[float] = []
    for i, label in enumerate(EVAL_LABELS):
        tp = confusion[i][i]
        truth_total = sum(confusion[i])
        pred_total = sum(row[i] for row in confusion)
        recall = tp / truth_total if truth_total else None
        precision = tp / pred_total if pred_total else 0.0
        if recall is None:
            log(__name__, "warning", "class %r absent from truth; excluded from UA average", label)
        else:
            recalls.append(recall)
        if precision + (recall or 0.0) == 0.0:
            log(__name__, "warning", "class %r: precision + recall is zero, F1 set to 0", label)
            per_class_f1[label] = 0.0
        else:
            r = recall or 0.0
            per_class_f1[label] = 2 * precision * r / (precision + r)

    return EvalReport(
        confusion=confusion,
        per_class_f1=per_class_f1,
        ua=sum(recalls) / len(recalls),
        n_scored=n_scored,
        n_excluded=n_excluded,
    )
