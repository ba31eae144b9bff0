"""Correctness checks on the pipeline's artifacts.

Each check recomputes the expected output from the corpus with code of its
own (token Levenshtein, brute-force context windows, template rendering,
the mock backend's hash rule) or tests a property the method guarantees. It
never compares against a saved copy of an earlier output. A failed check
raises CheckError.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
from pathlib import Path

SCORED = ("neutral", "sad", "happy", "angry")
REPORT_CLASSES = SCORED + ("other", "overall")
MOCK_LABELS = ("happy", "sad", "neutral", "angry")
RESERVED = {"id", "speaker", "emotion", "need_prediction", "Ground truth", "ensemble"}
EMPTY_CONTEXT = "(no prior context)"

_CLEAN_RE = re.compile(r"[^a-z0-9']+")
_SLOT_RE = re.compile(r"\{\{|\}\}|\{context\}|\{current speaker\}|\{current sentence\}")
_SEPARATOR_RE = re.compile(r"^---\s+(\S+)\s*$")


class CheckError(AssertionError):
    """An artifact disagrees with the independently computed expectation."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def transcriptions(obj: dict) -> dict[str, str]:
    return {k: v for k, v in obj.items() if k not in RESERVED}


# --- WER --------------------------------------------------------------------

def tokens(text: str) -> tuple[str, ...]:
    return tuple(_CLEAN_RE.sub(" ", text.lower()).split())


def levenshtein(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        diag, row[0] = row[0], i
        for j, y in enumerate(b, start=1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (x != y))
    return row[-1]


def check_wer(objects: list[dict], csv_text: str) -> None:
    """Every cell of the WER CSV equals the micro-averaged WER recomputed here."""
    edits: dict[tuple[str, str], int] = {}
    ref_lens: dict[tuple[str, str], int] = {}
    counts = {c: 0 for c in REPORT_CLASSES}
    models: list[str] = []
    memo: dict[tuple, int] = {}
    for obj in objects:
        ref = tokens(obj["Ground truth"])
        if not ref:
            continue
        label = obj["emotion"].strip().lower()
        cls = label if label in SCORED else "other"
        counts[cls] += 1
        counts["overall"] += 1
        for model, text in transcriptions(obj).items():
            if model not in models:
                models.append(model)
            hyp = tokens(text)
            if (ref, hyp) not in memo:
                memo[ref, hyp] = levenshtein(ref, hyp)
            for bucket in (cls, "overall"):
                edits[model, bucket] = edits.get((model, bucket), 0) + memo[ref, hyp]
                ref_lens[model, bucket] = ref_lens.get((model, bucket), 0) + len(ref)

    rows = list(csv.reader(io.StringIO(csv_text)))
    ensure(rows[0] == ["model", *REPORT_CLASSES], f"WER header {rows[0]}")
    ensure([r[0] for r in rows[1:-1]] == models, f"WER models {[r[0] for r in rows[1:-1]]}")
    for row in rows[1:-1]:
        for cls, cell in zip(REPORT_CLASSES, row[1:]):
            key = (row[0], cls)
            want = f"{edits[key] / ref_lens[key]:.4f}" if key in edits else ""
            ensure(cell == want, f"WER cell {key}: {cell!r}, recomputed {want!r}")
    want_counts = ["utterances", *[str(counts[c]) for c in REPORT_CLASSES]]
    ensure(rows[-1] == want_counts, f"WER utterance counts {rows[-1]}, recomputed {want_counts}")


# --- mock backend and prompts -------------------------------------------------

def fingerprint(model: str, prompt: str, max_tokens: int, temperature: float = 0.0) -> str:
    payload = json.dumps(
        {"model": model, "prompt": prompt, "temperature": temperature, "max_tokens": max_tokens},
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def mock_answer(seed: int, fp: str) -> str:
    digest = hashlib.sha256(f"{seed}:{fp}".encode("utf-8")).digest()
    return MOCK_LABELS[digest[0] % len(MOCK_LABELS)]


# --- refine -------------------------------------------------------------------

def check_refine(
    objects: list[dict], refined: list[dict], instruction: str, model: str, mock_seed: int, min_length: int
) -> None:
    """Each ensemble is a candidate that survives the length filter (unless
    all are short); it is the first candidate matching the backend's answer
    to the selection prompt, else the longest survivor."""
    ensure(len(refined) == len(objects), f"refined {len(refined)} records, corpus has {len(objects)}")
    for obj, out in zip(objects, refined):
        candidates = list(transcriptions(obj).items())
        survivors = [(m, t) for m, t in candidates if len(t) > min_length] or candidates
        ensemble = out.get("ensemble")
        where = f"refine {obj['id']}"
        ensure(out["id"] == obj["id"], f"{where}: record order changed")
        ensure(ensemble in dict(candidates).values(), f"{where}: ensemble {ensemble!r} is not a transcription")
        ensure(ensemble in dict(survivors).values(), f"{where}: ensemble {ensemble!r} fails the length filter")
        prompt = instruction + "\n" + "\n".join(
            f"{i}. " + t.replace("\n", " ") for i, (_, t) in enumerate(survivors, start=1)
        )
        answer = mock_answer(mock_seed, fingerprint(model, prompt, max_tokens=128))
        matching = [t for _, t in survivors if t.strip().casefold() == answer]
        longest = min(survivors, key=lambda mt: (-len(mt[1]), mt[0]))[1]
        want = matching[0] if matching else longest
        ensure(ensemble == want, f"{where}: ensemble {ensemble!r}, expected {want!r}")


# --- predictions and evaluation ------------------------------------------------

def check_prediction_ids(objects: list[dict], predictions: list[dict], where: str) -> None:
    """Every need_prediction id is predicted exactly once, and nothing else."""
    want = sorted(o["id"] for o in objects if o["need_prediction"] == "yes")
    got = sorted(p["id"] for p in predictions)
    ensure(got == want, f"{where}: predicted ids differ from the need_prediction ids")


def check_eval(objects: list[dict], predictions: list[dict], report: dict, where: str) -> None:
    """Confusion matrix and macro-recall UA recomputed from the predictions."""
    truth = {o["id"]: o["emotion"].strip().lower() for o in objects}
    confusion = [[0] * len(SCORED) for _ in SCORED]
    excluded = 0
    for p in predictions:
        ensure(p["prediction"] in SCORED, f"{where}: {p['id']} predicted {p['prediction']!r}")
        if truth[p["id"]] not in SCORED:
            excluded += 1
            continue
        confusion[SCORED.index(truth[p["id"]])][SCORED.index(p["prediction"])] += 1
    recalls = [row[i] / sum(row) for i, row in enumerate(confusion) if sum(row)]
    ua = sum(recalls) / len(recalls)
    ensure(report["labels"] == list(SCORED), f"{where}: eval labels {report['labels']}")
    ensure(report["confusion"] == confusion, f"{where}: confusion {report['confusion']}, recomputed {confusion}")
    ensure(report["n_excluded"] == excluded, f"{where}: n_excluded {report['n_excluded']}, recomputed {excluded}")
    ensure(abs(report["ua"] - ua) <= 1e-12, f"{where}: UA {report['ua']}, recomputed {ua}")


# --- context windows and prompt rendering ---------------------------------------

def parse_templates(text: str) -> dict[str, str]:
    templates: dict[str, str] = {}
    name, lines = None, []
    for line in text.splitlines() + ["--- <end>"]:
        sep = _SEPARATOR_RE.match(line)
        if sep:
            if name is not None:
                templates[name] = "\n".join(lines).strip()
            name, lines = sep.group(1), []
        elif name is not None:
            lines.append(line)
    return templates


def _group_key(uid: str, mode: str) -> str:
    parts = uid.split("_")
    return parts[0] if mode == "session" else f"{parts[0]}/{parts[1]}"


def _text(obj: dict, source: str) -> str:
    return obj["ensemble"] if source == "ensemble" else obj[source]


def brute_prompt(objects: list[dict], target: int, spec: dict, template: str) -> str:
    """The prompt for one target: the last `length` same-group predecessors
    found by scanning back to the start of the corpus, rendered into the
    template."""
    mode, source = spec["context_mode"], spec["text_source"]
    key = _group_key(objects[target]["id"], mode)
    window: list[dict] = []
    for pos in range(target - 1, -1, -1):
        if len(window) == spec["context_length"]:
            break
        if _group_key(objects[pos]["id"], mode) == key:
            window.insert(0, objects[pos])
    context = " ".join(f"Speaker {o['speaker']} says: {_text(o, source).strip()}" for o in window)
    values = {
        "{{": "{",
        "}}": "}",
        "{context}": context or EMPTY_CONTEXT,
        "{current speaker}": objects[target]["speaker"],
        "{current sentence}": _text(objects[target], source),
    }
    return _SLOT_RE.sub(lambda m: values[m.group(0)], template)


def check_mock_sample(
    objects: list[dict],
    predictions: list[dict],
    spec: dict,
    template: str,
    mock_seed: int,
    rng: random.Random,
    sample: int,
) -> None:
    """For a sample of targets, the prediction is the mock backend's label
    for the brute-force prompt."""
    position = {o["id"]: i for i, o in enumerate(objects)}
    for p in rng.sample(predictions, min(sample, len(predictions))):
        prompt = brute_prompt(objects, position[p["id"]], spec, template)
        want = mock_answer(mock_seed, fingerprint(spec["model"], prompt, max_tokens=16))
        ensure(p["prediction"] == want, f"{spec['name']} {p['id']}: predicted {p['prediction']!r}, expected {want!r}")


def check_stub_answers(objects: list[dict], predictions: list[dict], spec: dict, template: str, answer) -> None:
    """Every prediction is the stub's answer to the brute-force prompt."""
    position = {o["id"]: i for i, o in enumerate(objects)}
    for p in predictions:
        want = answer(brute_prompt(objects, position[p["id"]], spec, template))
        ensure(p["prediction"] == want, f"{spec['name']} {p['id']}: predicted {p['prediction']!r}, stub said {want!r}")


# --- warm pass ----------------------------------------------------------------

def check_identical(cold: Path, warm: Path, pattern: str) -> None:
    """Files matching pattern are byte-identical between the two directories."""
    names = sorted(p.relative_to(cold) for p in cold.glob(pattern))
    ensure(bool(names), f"no {pattern} artifacts under {cold}")
    ensure(names == sorted(p.relative_to(warm) for p in warm.glob(pattern)), f"{pattern}: file sets differ")
    for name in names:
        ensure((cold / name).read_bytes() == (warm / name).read_bytes(), f"{name} differs between cold and warm")


def check_all_hits(log_path: Path) -> None:
    """The run log's summary reports a cache hit for every prediction."""
    summary = json.loads(log_path.read_text(encoding="utf-8").splitlines()[-1])
    ensure(
        summary["cache_misses"] == 0 and summary["cache_hits"] == summary["n_predictions"] > 0,
        f"{log_path.name}: warm pass was not all cache hits: {summary}",
    )
