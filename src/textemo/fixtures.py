"""Seeded synthetic corpus generator.

The real challenge dataset is license-restricted, so tests and demos run on
generated corpora: grammar-valid utterance ids over multi-script sessions,
ground-truth sentences from a small word bank, per-model corruptions of the
ground truth (including the deliberately short outputs that the refinement
filter exists for), and emotion labels drawn from a fixed distribution.
"""

from __future__ import annotations

import random

from .corpus import KIND_BARE, KIND_IMPRO, KIND_SCRIPT, KNOWN_ASR_MODELS, format_id
from .corpus import write_corpus  # noqa: F401 - re-exported for callers

_LABEL_WEIGHTS = {
    "neutral": 0.22,
    "sad": 0.18,
    "happy": 0.18,
    "angry": 0.18,
    "frustration": 0.14,
    None: 0.10,
}

_WORD_BANK = (
    "i you we they it that this what why how well just really maybe never always "
    "think know feel want said told going to be have do did get got see saw come "
    "came back home work day night time thing people life love hate sorry fine "
    "okay sure right wrong good bad great terrible happy glad mad upset tired "
    "money job call phone door car house kid mom dad friend"
).split()

_SHORT_OUTPUTS = ("Yeah", "Hi", "Oh", "Hmm", "Okay")

_KINDS = (KIND_SCRIPT, KIND_IMPRO, KIND_BARE)
_SESSIONS = 5
_LETTERS = "FMZ"
_DIALOGUE_INDICES = 9
# Every (session, letter, kind, index) key names one dialogue, used once.
_DIALOGUE_KEYS = _SESSIONS * len(_LETTERS) * len(_KINDS) * _DIALOGUE_INDICES


def _sentence(rng: random.Random) -> str:
    words = rng.choices(_WORD_BANK, k=rng.randint(4, 12))
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _corrupt(rng: random.Random, truth: str, short_rate: float) -> str:
    if rng.random() < short_rate:
        return rng.choice(_SHORT_OUTPUTS)
    words = truth.rstrip(".").lower().split()
    out = []
    for word in words:
        roll = rng.random()
        if roll < 0.10:
            continue  # dropped word
        if roll < 0.25:
            out.append(rng.choice(_WORD_BANK))
        else:
            out.append(word)
    if not out:
        out = [rng.choice(_WORD_BANK)]
    return " ".join(out)


def generate_corpus(
    seed: int,
    n_records: int,
    need_prediction_rate: float = 0.6,
    short_rate: float = 0.15,
    models: tuple[str, ...] | None = None,
) -> list[dict]:
    """Generate `n_records` corpus objects, deterministic in `seed`.

    Records are grouped into sessions and scripts (mixing script, impro, and
    bare id kinds) and appear in conversation order. Raises ValueError for a
    negative `n_records`, for a rate outside [0, 1], and when the dialogue
    keys run out before `n_records` records are generated.
    """
    if n_records < 0:
        raise ValueError(f"record count must not be negative, got {n_records}")
    for name, rate in (("need_prediction_rate", need_prediction_rate), ("short_rate", short_rate)):
        if not 0 <= rate <= 1:
            raise ValueError(f"{name} must be within [0, 1], got {rate}")
    rng = random.Random(seed)
    labels = list(_LABEL_WEIGHTS)
    probs = list(_LABEL_WEIGHTS.values())
    model_list = list(models) if models else sorted(KNOWN_ASR_MODELS)

    records: list[dict] = []
    used_dialogues: set[tuple[int, str, str, int]] = set()
    while len(records) < n_records:
        if len(used_dialogues) == _DIALOGUE_KEYS:
            raise ValueError(
                f"cannot generate {n_records} records: all {_DIALOGUE_KEYS} dialogue ids "
                f"are used after {len(records)} records (seed {seed})"
            )
        session = rng.randint(1, _SESSIONS)
        letter = rng.choice(_LETTERS)
        kind = rng.choice(_KINDS)
        dialogue_index = rng.randint(1, _DIALOGUE_INDICES)
        if (session, letter, kind, dialogue_index) in used_dialogues:
            continue
        used_dialogues.add((session, letter, kind, dialogue_index))

        # Scripts may split into subsets that share one script key, the way
        # training-set ids do; impro and bare dialogues never do.
        if kind == KIND_SCRIPT and rng.random() < 0.6:
            subsets: list[int | None] = list(range(1, rng.randint(1, 3) + 1))
        else:
            subsets = [None]

        for subset in subsets:
            per_sex_counter = {"F": 0, "M": 0}
            for _ in range(rng.randint(2, 8)):
                if len(records) >= n_records:
                    break
                sex = rng.choice("FM")
                index = per_sex_counter[sex]
                per_sex_counter[sex] += 1
                truth = _sentence(rng)
                label = rng.choices(labels, weights=probs, k=1)[0]
                obj: dict = {
                    "need_prediction": "yes" if rng.random() < need_prediction_rate else "no",
                }
                if label is not None:
                    obj["emotion"] = label
                obj["id"] = format_id(session, letter, kind, dialogue_index, subset, sex, index)
                obj["speaker"] = f"Ses{session:02d}_{sex}"
                obj["Ground truth"] = truth
                for model in model_list:
                    obj[model] = _corrupt(rng, truth, short_rate)
                records.append(obj)
    return records
