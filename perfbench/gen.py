"""Seeded, IEMOCAP-shaped corpus generator for the benchmark.

Where the parameters come from:

- Published: the layout of IEMOCAP (Busso et al., 2008, "IEMOCAP:
  interactive emotional dyadic motion capture database", Language Resources
  and Evaluation 42(4)): five sessions, each a pair of actors recorded in
  scripted and improvised dialogues, 10,039 utterances in all. The label mix
  follows its class shares, in which the four scored classes (neutral, sad,
  happy, angry) make up about 45%. About 65 records per dialogue is the
  release's utterance count over its 151 dialogues.
- The program: the eleven ASR model names (`corpus.KNOWN_ASR_MODELS`) and
  the id grammar.
- Assumed, with no source: the words-per-utterance mix and vocabulary, the
  per-model error rates and short outputs, errors drawn independently per
  model and per word, the turn-taking rate, the improvised/scripted split,
  and the share of unscored records that need a prediction. They set the
  token counts and distinct (reference, hypothesis) pairs that `wer` sees,
  and the prompt and cache-entry sizes, so the figures that rest on them
  (`wer.report_s`, `wer.distinct_pair_ratio`, `refine.self_s`,
  `prompts.render_s`, `cache_mb`) are not known to match the challenge data.

The record count per recording is fixed, so only the text and labels vary
with the seed. The program's own fixture generator cannot be used: it loops
forever once its 405 dialogue keys are spent (seed 1 hangs at 2500 records).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Assumed (substitution, deletion, insertion, short-output) rates per ASR
# model: larger models err less, as their names suggest, but no rate is taken
# from a published table. Whisper models write cased, punctuated text; the
# wav2vec family writes upper case without punctuation, as their CTC heads do.
MODEL_ERRORS = {
    "hubertlarge": (0.08, 0.03, 0.02, 0.04),
    "w2v2100": (0.22, 0.08, 0.04, 0.06),
    "w2v2960": (0.14, 0.05, 0.03, 0.05),
    "w2v2960large": (0.10, 0.04, 0.02, 0.04),
    "w2v2960largeself": (0.07, 0.03, 0.02, 0.04),
    "wavlmplus": (0.12, 0.05, 0.03, 0.05),
    "whisperbase": (0.06, 0.03, 0.01, 0.10),
    "whisperlarge": (0.02, 0.01, 0.01, 0.08),
    "whispermedium": (0.03, 0.02, 0.01, 0.08),
    "whispersmall": (0.04, 0.02, 0.01, 0.09),
    "whispertiny": (0.12, 0.05, 0.03, 0.12),
}
MODELS = sorted(MODEL_ERRORS)

# Label mix after IEMOCAP's class shares (Busso et al., 2008); the four
# scored classes make up 45%.
LABELS = {
    "neutral": 0.17,
    "frustration": 0.18,
    "excited": 0.10,
    "sad": 0.11,
    "happy": 0.06,
    "angry": 0.11,
    "xxx": 0.20,
    "surprise": 0.02,
    "fear": 0.01,
    "other": 0.04,
}
SCORED = ("neutral", "sad", "happy", "angry")
# Assumed share of unscored records that still need a prediction.
OTHER_NEED_PREDICTION_RATE = 0.25

# Whole-utterance ASR outputs; the label words let an LLM selector's answer
# coincide with a candidate now and then.
SHORT_OUTPUTS = ("Yeah", "Oh", "Hmm", "Okay", "Hi", "Neutral", "Happy", "Sad")

WORDS = """
i you we they he she it that this what why how where when who well just really
maybe never always ever still already again now then here there yes no not
think know feel want need mean said told say tell going go went gone come came
back home work day night time thing things people life love hate sorry fine
okay sure right wrong good bad great terrible happy glad mad upset tired angry
money job call phone door car house kid kids mom dad friend friends wife husband
married leave left stay stayed try tried trying talk talking listen look looked
get got give gave take took make made let lets believe understand remember forget
anything everything nothing something somebody nobody everybody anyway because
about with without from into over after before around through only even much
many more most little lot long last first next year years week weeks minute
okay alright actually probably certainly exactly totally absolutely honestly
the a an and or but so if of to in on at for as is was were be been being
have has had do does did can could would should will wont dont cant isnt
""".split()
# Zipf-like weights: earlier words are more frequent.
WEIGHTS = [1.0 / (rank + 8) for rank in range(len(WORDS))]

DIALOGUE_LENGTH = 65


def _sentence(rng: random.Random) -> str:
    # Assumed words per utterance: 25% 1-3, 60% 4-12, 15% 13-25.
    roll = rng.random()
    if roll < 0.25:
        n = rng.randint(1, 3)
    elif roll < 0.85:
        n = rng.randint(4, 12)
    else:
        n = rng.randint(13, 25)
    words = rng.choices(WORDS, weights=WEIGHTS, k=n)
    text = " ".join(words)
    return text[0].upper() + text[1:] + rng.choice(".?!")


def _transcribe(rng: random.Random, truth: str, model: str) -> str:
    p_sub, p_del, p_ins, p_short = MODEL_ERRORS[model]
    if rng.random() < p_short:
        return rng.choice(SHORT_OUTPUTS)
    out = []
    for word in truth.rstrip(".?!").lower().split():
        roll = rng.random()
        if roll < p_del:
            continue
        out.append(rng.choice(WORDS) if roll < p_del + p_sub else word)
        if rng.random() < p_ins:
            out.append(rng.choice(WORDS))
    if not out:
        out = [rng.choice(WORDS)]
    text = " ".join(out)
    if model.startswith("whisper"):
        return text[0].upper() + text[1:] + "."
    return text.upper()


def _dialogue_lengths(rng: random.Random, total: int, count: int) -> list[int]:
    weights = [rng.uniform(0.5, 1.5) for _ in range(count)]
    scale = total / sum(weights)
    lengths = [max(1, int(w * scale)) for w in weights]
    lengths[-1] += total - sum(lengths)
    return lengths


def _dialogues(rng: random.Random, records: int) -> list[str]:
    """Middle id segments of one recording in recording order: improNN
    dialogues, and scriptNN_<d> subsets that share one script, about
    DIALOGUE_LENGTH records each."""
    middles: list[str] = []
    impro = script = 0
    while len(middles) * DIALOGUE_LENGTH < records:
        if rng.random() < 0.7:
            impro += 1
            middles.append(f"impro{impro:02d}")
        else:
            script += 1
            middles += [f"script{script:02d}_{s}" for s in range(1, rng.randint(1, 3) + 1)]
    return middles


def generate(seed: int, sessions: tuple[int, ...], per_recording: int) -> list[dict]:
    """Records of every recording (session x letter F/M) in conversation order."""
    rng = random.Random(seed)
    labels, label_weights = list(LABELS), list(LABELS.values())
    records: list[dict] = []
    for session in sessions:
        for letter in "FM":
            middles = _dialogues(rng, per_recording)
            for middle, length in zip(middles, _dialogue_lengths(rng, per_recording, len(middles))):
                counters = {"F": 0, "M": 0}
                sex = rng.choice("FM")
                for _ in range(length):
                    if rng.random() < 0.8:
                        sex = "M" if sex == "F" else "F"
                    label = rng.choices(labels, weights=label_weights)[0]
                    need = label in SCORED or rng.random() < OTHER_NEED_PREDICTION_RATE
                    truth = _sentence(rng)
                    obj = {
                        "need_prediction": "yes" if need else "no",
                        "emotion": label,
                        "id": f"Ses{session:02d}{letter}_{middle}_{sex}{counters[sex]:03d}",
                        "speaker": f"Ses{session:02d}_{sex}",
                        "Ground truth": truth,
                    }
                    counters[sex] += 1
                    for model in MODELS:
                        obj[model] = _transcribe(rng, truth, model)
                    records.append(obj)
    return records


def write(objects: list[dict], path: str | Path) -> None:
    Path(path).write_text(json.dumps(objects, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
