"""Corpus loading, utterance-ID parsing, script/session indexing, and the
writers of the program's JSON output files.

The corpus is a JSON array (or newline-delimited JSON) of utterance objects.
Each object carries an utterance id, speaker, optional emotion label, an
optional reference transcription, and one transcription per ASR model::

    {
      "need_prediction": "yes",
      "emotion": "sad",
      "id": "Ses01F_script01_3_M023",
      "speaker": "Ses01_M",
      "Ground truth": "Yeah. I suppose I have been. But it's going from me.",
      "hubertlarge": "ya i suppose i have been bht's going from me",
      ...
    }

Utterance ids follow the grammar ``Ses<DD><L>_<MIDDLE>_<S><III>`` where the
middle segment is ``scriptNN`` (optionally followed by a ``_<d>`` subset),
``improNN``, or a bare ``NN``. All subsets of a script share one script key,
which is the unit used for context windowing.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import NamedTuple

from . import log

# The ASR systems whose outputs appear in the curated corpus.
KNOWN_ASR_MODELS = frozenset(
    {
        "hubertlarge",
        "w2v2100",
        "w2v2960",
        "w2v2960large",
        "w2v2960largeself",
        "wavlmplus",
        "whisperbase",
        "whisperlarge",
        "whispermedium",
        "whispersmall",
        "whispertiny",
    }
)

_GROUND_TRUTH_KEYS = ("Ground truth", "ground_truth", "groundtruth")
# The refined transcription `refine` writes; also a text source name.
ENSEMBLE_KEY = "ensemble"
# Object keys that are not ASR transcriptions.
_NON_TRANSCRIPTION_KEYS = frozenset({"id", "speaker", "emotion", "need_prediction", ENSEMBLE_KEY, *_GROUND_TRUTH_KEYS})

# Context modes: the grouping a context window is sliced from.
MODE_SESSION = "session"
MODE_SCRIPT = "script"
CONTEXT_MODES = (MODE_SESSION, MODE_SCRIPT)

KIND_SCRIPT = "script"
KIND_IMPRO = "impro"
KIND_BARE = "bare"

# The id grammar, one pattern per underscore-separated segment. _ID_RE joins
# them to match a whole id at once; _id_fault matches them one at a time, on
# text it has found to be ASCII, to name the segment that fails.
_HEAD = r"Ses(\d{2})([A-Z])"
_SCRIPT = r"script\d{2}"
_IMPRO = r"impro\d{2}"
_BARE = r"\d{2}"
_SUBSET = r"\d"
_TAIL = r"([FM])(\d{3})"
_ID_RE = re.compile(rf"({_HEAD})_(?:({_SCRIPT})(?:_({_SUBSET}))?|({_IMPRO})|({_BARE}))_{_TAIL}", re.ASCII)


class MalformedId(ValueError):
    """An utterance id string that does not match the id grammar."""

    def __init__(self, raw: str, reason: str):
        super().__init__(f"malformed id {raw!r}: {reason}")
        self.raw = raw
        self.reason = reason


class SchemaError(ValueError):
    """A corpus object that violates the expected schema."""

    def __init__(self, position: int, key: str | None, reason: str):
        where = f"record {position}" + (f", key {key!r}" if key else "")
        super().__init__(f"{where}: {reason}")
        self.position = position
        self.key = key
        self.reason = reason


class UtteranceId(NamedTuple):
    """Parsed structure of an utterance id string; parse_id builds one."""

    session: int
    recording: str
    dialogue_kind: str  # "script", "impro", or "bare"
    dialogue_index: int
    subset: int | None
    speaker_sex: str  # "F" or "M"
    utterance_index: int
    raw: str
    session_key: str  # conversation identity: session number plus recording letter
    script_key: str  # grouping key shared by all subsets and utterances of one script

    def serialize(self) -> str:
        """Reconstruct the original id string byte-for-byte from the parsed fields."""
        return format_id(*self[:7])


def format_id(
    session: int, recording: str, kind: str, dialogue_index: int, subset: int | None, sex: str, index: int
) -> str:
    """The id string of these segments, in UtteranceId's field order."""
    prefix = "" if kind == KIND_BARE else kind  # a script or impro middle starts with its kind's name
    subset_part = "" if subset is None else f"_{subset}"
    return f"Ses{session:02d}{recording}_{prefix}{dialogue_index:02d}{subset_part}_{sex}{index:03d}"


def parse_id(raw: str) -> UtteranceId:
    """Parse an utterance id string.

    Raises MalformedId with a reason naming the failing segment.
    """
    match = _ID_RE.fullmatch(raw)
    if match is None or not 1 <= int(match[2]) <= 5:
        raise MalformedId(raw, _id_fault(raw))
    head, session, recording, script, subset, impro, bare, sex, index = match.groups()
    middle = script or impro or bare  # each kind ends in its 2-digit dialogue index
    kind = KIND_SCRIPT if script else KIND_IMPRO if impro else KIND_BARE
    # Positional, in field order: half the cost of keywords, once per record.
    return UtteranceId(
        int(session), recording, kind, int(middle[-2:]), None if subset is None else int(subset),
        sex, int(index), raw, head, f"{head}/{middle}",
    )


def _id_fault(raw: str) -> str:
    """Why `raw` is not an utterance id: the first rule it breaks, segments read head, tail, middle."""
    if not raw:
        return "id is empty"
    if not raw.isascii():
        return "id contains non-ASCII characters"
    parts = raw.split("_")
    if len(parts) < 3:
        return "expected at least 3 underscore-separated segments"
    if len(parts) > 4:
        return "too many underscore-separated segments"
    head, *middle, tail = parts
    if not (match := re.fullmatch(_HEAD, head)):
        return f"first segment {head!r} must be 'Ses' + 2-digit session + recording letter"
    if not 1 <= int(match[1]) <= 5:
        return f"session {match[1]} outside 01..05"
    if not re.fullmatch(_TAIL, tail):
        return f"last segment {tail!r} must be F or M followed by a 3-digit index"
    if len(middle) == 2:
        if not re.fullmatch(_SCRIPT, middle[0]):
            return f"subset segment is only allowed after a 'scriptNN' segment, got {middle[0]!r}"
        if not re.fullmatch(_SUBSET, middle[1]):
            return f"subset segment {middle[1]!r} must be a single digit"
    # Reached only when every other segment passed, so the lone middle one broke the grammar.
    return f"middle segment {middle[0]!r} must be 'scriptNN', 'improNN', or 'NN'"


class UtteranceRecord(NamedTuple):
    """One corpus entry."""

    id: UtteranceId
    speaker: str
    need_prediction: bool
    emotion: str | None
    ground_truth: str | None
    transcriptions: dict[str, str]
    ensemble: str | None
    file_position: int


class Corpus(NamedTuple):
    """Utterance records in file order, grouped once by script and by session.

    `scripts` and `sessions` map each key to its records' file positions in
    file order; `model_names` is every ASR model name in the corpus. Build
    one with index_records.
    """

    records: list[UtteranceRecord]
    scripts: dict[str, list[int]]
    sessions: dict[str, list[int]]
    model_names: frozenset[str]


def record_from_object(obj: Mapping, position: int, strict: bool = False) -> UtteranceRecord:
    """Build one record from a decoded JSON object.

    Keys other than id/speaker/emotion/need_prediction, the ground-truth key,
    and "ensemble" are treated as ASR-model transcriptions. In strict mode a
    transcription key outside the known model set is a SchemaError; otherwise
    it is accepted, and index_records warns once for the whole corpus.
    """
    if not isinstance(obj, Mapping):
        raise SchemaError(position, None, "expected a JSON object")
    if "id" not in obj:
        raise SchemaError(position, "id", "required key is missing")
    raw_id = obj["id"]
    if not isinstance(raw_id, str):
        raise SchemaError(position, "id", "expected a string")
    try:
        uid = parse_id(raw_id)
    except MalformedId as exc:
        raise SchemaError(position, "id", str(exc)) from exc

    need_prediction = _parse_need_prediction(obj.get("need_prediction"), position)

    emotion = obj.get("emotion")
    if emotion is not None and not isinstance(emotion, str):
        raise SchemaError(position, "emotion", "expected a string or null")

    ground_truth: str | None = None
    seen_gt_key: str | None = None
    for key in _GROUND_TRUTH_KEYS:
        if key in obj:
            if seen_gt_key is not None:
                raise SchemaError(position, key, f"duplicate ground-truth key (also {seen_gt_key!r})")
            value = obj[key]
            if not isinstance(value, str):
                raise SchemaError(position, key, "expected a string")
            ground_truth = value
            seen_gt_key = key

    ensemble = obj.get(ENSEMBLE_KEY)
    if ensemble is not None and not isinstance(ensemble, str):
        raise SchemaError(position, ENSEMBLE_KEY, "expected a string")

    transcriptions: dict[str, str] = {}
    for key, value in obj.items():
        if key in _NON_TRANSCRIPTION_KEYS:
            continue
        if not isinstance(value, str):
            raise SchemaError(position, key, "transcription values must be strings")
        if strict and key not in KNOWN_ASR_MODELS:
            raise SchemaError(position, key, "unknown ASR model name (strict mode)")
        transcriptions[key] = value
    if not transcriptions:
        raise SchemaError(position, None, "record has no ASR transcriptions")

    speaker = obj.get("speaker")
    if speaker is None:
        speaker = f"Ses{uid.session:02d}_{uid.speaker_sex}"
    elif not isinstance(speaker, str):
        raise SchemaError(position, "speaker", "expected a string")

    return UtteranceRecord(uid, speaker, need_prediction, emotion, ground_truth, transcriptions, ensemble, position)


def is_blank(text: str | None) -> bool:
    """A text that is missing, empty or whitespace only; every stage treats it as absent."""
    return not text or text.isspace()


def select_longest(candidates: list[tuple[str, str]]) -> tuple[str, str]:
    """The (model, text) candidate with the most characters; a tie goes to the first model name."""
    return min(candidates, key=lambda mt: (-len(mt[1]), mt[0]))


def _parse_need_prediction(value: object, position: int) -> bool:
    # Curated files use "yes"/"no" strings; plain booleans are accepted too.
    # A missing flag means the record is context-only.
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("yes", "no"):
        return value.lower() == "yes"
    raise SchemaError(position, "need_prediction", f"expected 'yes'/'no' or boolean, got {value!r}")


def parse_records(objects: Iterable[Mapping], strict: bool = False) -> tuple[list[UtteranceRecord], list[SchemaError]]:
    """Parse every object, collecting each violation instead of stopping at
    the first: the schema violations in file order, then a SchemaError for
    each record whose id an earlier record holds, naming both positions.

    A repeated id is a violation because every stage joins records by id.
    """
    records: list[UtteranceRecord] = []
    violations: list[SchemaError] = []
    repeats: list[SchemaError] = []
    first: dict[str, int] = {}
    for position, obj in enumerate(objects):
        try:
            rec = record_from_object(obj, position, strict)
        except SchemaError as exc:
            violations.append(exc)
            continue
        records.append(rec)
        if (earlier := first.setdefault(rec.id.raw, position)) != position:
            repeats.append(SchemaError(position, "id", f"duplicate id {rec.id.raw!r}, first at record {earlier}"))
    return records, violations + repeats


def build_corpus(objects: Iterable[Mapping]) -> Corpus:
    """Parse and index decoded JSON objects; the first violation parse_records lists is raised."""
    records, violations = parse_records(objects)
    if violations:
        raise violations[0]
    return index_records(records)


def index_records(records: list[UtteranceRecord]) -> Corpus:
    """Group parsed records by script and session, warning once about
    non-contiguous scripts and once about ASR model names outside the known set."""
    scripts: dict[str, list[int]] = {}
    sessions: dict[str, list[int]] = {}
    model_names: set[str] = set()
    for rec in records:
        scripts.setdefault(rec.id.script_key, []).append(rec.file_position)
        sessions.setdefault(rec.id.session_key, []).append(rec.file_position)
        model_names.update(rec.transcriptions)
    split = [key for key, positions in scripts.items() if positions[-1] - positions[0] + 1 != len(positions)]
    if split:
        log(
            __name__,
            "warning",
            "records of %d script(s) are non-contiguous in file order, first %s",
            len(split),
            split[0],
        )
    unknown = model_names - KNOWN_ASR_MODELS
    if unknown:
        carrying = sum(not KNOWN_ASR_MODELS.issuperset(rec.transcriptions) for rec in records)
        log(
            __name__,
            "warning",
            "unknown ASR model(s) %s kept as transcriptions in %d of %d records",
            ", ".join(sorted(unknown)),
            carrying,
            len(records),
        )
    return Corpus(records=records, scripts=scripts, sessions=sessions, model_names=frozenset(model_names))


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text, without the byte-order mark it may start with (RFC 8259
    section 8.1 lets a JSON parser ignore one); bytes that do not decode are a
    ValueError led by the path."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_json(path: str | Path, text: str | None = None):
    """A JSON file's value (from `text` if already read); bad or too deeply
    nested JSON is a ValueError led by the path."""
    try:
        return json.loads(read_text(path) if text is None else text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_json(path: str | Path, value) -> Path:
    """Write `value` as indented JSON with sorted keys and a final newline, in UTF-8."""
    path = Path(path)
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_corpus(objects: list[dict], path: str | Path) -> None:
    """Write corpus objects as a JSON array that read_objects reads back, keys in their given order.

    The text is encoded before the file is opened, so a text that UTF-8
    cannot hold (a lone surrogate) is a ValueError that leaves the file as it was.
    """
    Path(path).write_bytes((json.dumps(objects, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))


def read_objects(path: str | Path) -> list[dict]:
    """Read a JSON-array or JSON-lines corpus file (auto-detected).

    JSON lines are split at line feeds alone, since a JSON string may hold
    other line separators (U+2028, U+0085) unescaped; a single object is one
    such line. An error names the line's number in the file, blank lines
    counted.
    """
    text = read_text(path)
    stripped = text.strip()
    if not stripped:
        raise SchemaError(0, None, "file is empty")
    if stripped.startswith("["):
        return read_json(path, text)  # unstripped, so an error's line number is the file's
    objects = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            objects.append(json.loads(line))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
    return objects


def load_corpus(path: str | Path) -> Corpus:
    """Load and index a corpus file.

    Raises OSError for I/O failures and SchemaError for malformed content.
    """
    return build_corpus(read_objects(path))
