r"""Domain types shared across the pipeline, and its one transcript codec.

The types are plain data containers with construction-time validation, all
immutable except :class:`Checklist`, whose covered flags only flip to True.
``format_transcript``/``parse_transcript`` write and read every ``Doctor:``/
``Patient:`` transcript: prompt slots, model replies, the mock's echoes and
the history whose last doctor turn the mock answers. A transcript line ends
only at ``\n``, ``\r\n`` or ``\r``.
``is_canonical`` accepts only text that both write and read unchanged:
``Doctor: ``/``Patient: `` lines joined by ``\n``, whose texts start with no
whitespace, ``*`` or ``_`` and end with no whitespace. ``echoes`` also asks for
one line per turn, so a turn holding a line break cannot pass for two.
"""

import math
import re
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

# The canonical section heading vocabulary, in priority order. Fuzzy header
# matching breaks ties by position in this tuple.
CANONICAL_HEADERS: Tuple[str, ...] = (
    "history of present illness",
    "review of systems",
    "past medical history",
    "medications",
    "chief complaint",
    "past surgical history",
    "disposition",
    "diagnosis",
    "emergency department course",
    "plan",
    "labs",
    "assessment",
    "allergy",
    "gynecologic history",
    "exam",
    "other history",
    "procedures",
    "imaging",
    "immunizations",
    "family history",
    "social history",
)

# Sentinel header for note text that appears before the first detected
# heading; keeps segmentation lossless.
PREAMBLE = "preamble"


class ModelError(ValueError):
    """A domain validation failure."""


def read_text(path: Union[str, Path]) -> str:
    r"""The text of the UTF-8 input file ``path``: universal newlines, and no
    leading byte-order mark. Split it into lines at ``\n`` alone: U+2028,
    U+0085 and form feed may stand inside a line."""
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")


def _squash(text: str) -> str:
    return " ".join(text.lower().split())


# Word tokens: alphanumeric runs, Unicode-aware, underscore excluded.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def words(text: str) -> List[str]:
    """Lowercased word tokens of ``text``."""
    return _WORD_RE.findall(text.lower())


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of ``precision`` and ``recall``; 0 when both are 0."""
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


@dataclass(frozen=True)
class SectionHeader:
    """One of the canonical section headings, or the preamble sentinel."""

    canonical_name: str

    def __post_init__(self):
        name = _squash(self.canonical_name)
        if name not in CANONICAL_HEADERS and name != PREAMBLE:
            raise ModelError(f"not a canonical section header: {self.canonical_name!r}")
        object.__setattr__(self, "canonical_name", name)


@dataclass(frozen=True)
class ClinicalNote:
    """A note to turn into dialogue; building one with a blank id or text
    raises ModelError."""

    id: str
    text: str

    def __post_init__(self):
        if not self.id.strip():
            raise ModelError("note id is blank")
        if not self.text.strip():
            raise ModelError(f"note {self.id!r} has no text")


@dataclass(frozen=True)
class NoteSection:
    """A header-labeled slice of a note.

    ``start``/``end`` are character offsets into the parent note covering the
    header line and the body. ``header_line`` is the raw header line text
    (terminator included, empty for preamble sections), so that
    ``note.text[start:end] == header_line + body`` and concatenating all
    sections in order reproduces the note byte for byte.
    """

    header: SectionHeader
    body: str
    start: int
    end: int
    header_line: str = ""


class Speaker(str, Enum):
    DOCTOR = "doctor"
    PATIENT = "patient"


@dataclass(frozen=True)
class Utterance:
    speaker: Speaker
    text: str

    def __post_init__(self):
        if not isinstance(self.speaker, Speaker):
            object.__setattr__(self, "speaker", Speaker(self.speaker))
        if not isinstance(self.text, str) or not self.text:
            raise ModelError(f"utterance text must be a non-empty string, got {self.text!r}")


@dataclass(frozen=True)
class Dialogue:
    """An ordered conversation attributed to a note.

    ``meta`` holds only what the turns cannot give back and is excluded from
    equality: a section loop's ``checklist``, ``termination`` and
    ``round_keywords``, or the note's ``checklist`` from ``run_full_pipeline``.
    Nothing changes it once the dialogue is built.
    """

    note_id: str
    turns: Tuple[Utterance, ...]
    meta: Dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))


def format_transcript(turns: Sequence[Utterance]) -> str:
    """Render turns one per line as ``Doctor: ...`` / ``Patient: ...``.

    This is the canonical rendering used for prompt history, refinement-pass
    round-trips, and corpus evaluation; :func:`parse_transcript` reads it back.
    """
    return "\n".join(f"{t.speaker.value.capitalize()}: {t.text}" for t in turns)


class Unparseable(ValueError):
    pass


# Speaker tag at line start, tolerating markdown wrappers and list bullets.
_TAG_RE = re.compile(r"^[\s>#*_-]*(doctor|patient)[\s*_]*:\s*(.*)$", re.IGNORECASE)
_SPEAKERS = {"doctor": Speaker.DOCTOR, "patient": Speaker.PATIENT}


def split_lines(text: str) -> List[str]:
    r"""Lines of ``text``, ended only at ``\n``, ``\r\n`` or ``\r``. Unlike
    ``str.splitlines()``, U+2028, U+2029, U+0085, ``\x0b``, ``\x0c`` and
    ``\x1c``-``\x1e`` stay inside a line, and a closing line end leaves a last
    empty line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_transcript(text: str) -> List[Utterance]:
    """Turns from speaker-tagged lines.

    A line opening with ``Doctor:`` or ``Patient:`` (markdown wrappers
    stripped) starts a turn; other non-blank lines, stage directions
    included, continue the current turn. Raises Unparseable when no speaker
    tags are found at all.
    """
    turns: List[Tuple[Speaker, List[str]]] = []
    for line in split_lines(text):
        match = _TAG_RE.match(line)
        if match:
            opening = match.group(2).lstrip("*_ ").rstrip()
            turns.append((_SPEAKERS[match.group(1).lower()], [opening] if opening else []))
        elif turns and line.strip():
            turns[-1][1].append(line.rstrip())
    if not turns:
        raise Unparseable("no speaker tags found")
    out: List[Utterance] = []
    for speaker, lines in turns:
        body = "\n".join(lines).strip()
        out.append(Utterance(speaker, body or "..."))
    return out


_CANONICAL_LINE = r"(?:Doctor|Patient): [^\s*_](?:[^\r\n]*\S)?"
_CANONICAL_RE = re.compile(rf"{_CANONICAL_LINE}(?:\n{_CANONICAL_LINE})*")


def is_canonical(text: str) -> bool:
    """True only where ``format_transcript(parse_transcript(text)) == text``."""
    return _CANONICAL_RE.fullmatch(text) is not None


def echoes(text: str, transcript: str, n_turns: int) -> bool:
    """True only where ``text`` is ``transcript`` and parses back as ``n_turns``
    turns that format to it unchanged. So where ``transcript`` is
    ``format_transcript(turns)`` for ``n_turns`` turns, ``text`` parses back as
    ``turns``."""
    return text.count("\n") == n_turns - 1 and text == transcript and is_canonical(text)


class SemanticGroup(str, Enum):
    DISEASE = "disease"
    DRUG = "drug"
    DEVICE = "device"
    PROCEDURE = "procedure"
    OTHER = "other"

    @classmethod
    def parse(cls, raw: str) -> "SemanticGroup":
        """Map a raw group label to the enum; unknown labels become OTHER."""
        return _GROUP_LABELS.get(raw.strip().lower(), cls.OTHER)


_GROUP_LABELS = {group.value: group for group in SemanticGroup}


def concept_fields(surface: str, cui: str) -> Tuple[str, str]:
    """``(surface, key)`` of a concept: the surface lowercased with its
    whitespace squashed, and its word tokens joined by spaces. A surface with
    no word tokens or an empty CUI raises ModelError."""
    parts = surface.lower().split()
    surface = " ".join(parts)
    # A run of str.isalnum() characters is exactly one _WORD_RE token, so a
    # surface of such runs is its own key, and shares the surface's string.
    key = surface if "".join(parts).isalnum() else " ".join(_WORD_RE.findall(surface))
    if not key:
        raise ModelError(f"concept surface {surface!r} has no word tokens")
    if not cui:
        raise ModelError("concept cui is empty")
    return surface, key


@dataclass(frozen=True, slots=True)
class ConceptEntry:
    """A lexicon concept. ``key``, its surface's word tokens joined by spaces,
    names it: "Heart-Failure" and "heart failure" share one. A surface with no
    word tokens or an empty CUI raises ModelError."""

    surface: str
    cui: str
    semantic_group: SemanticGroup = SemanticGroup.OTHER
    key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.semantic_group, SemanticGroup):
            object.__setattr__(self, "semantic_group", SemanticGroup(self.semantic_group))
        surface, key = concept_fields(self.surface, self.cui)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "key", key)

    @classmethod
    def _from_checked(cls, surface: str, cui: str, group: SemanticGroup, key: str) -> "ConceptEntry":
        """The entry of fields that ``concept_fields`` has already returned
        and checked, built without running ``__post_init__`` again."""
        entry = object.__new__(cls)
        object.__setattr__(entry, "surface", surface)
        object.__setattr__(entry, "cui", cui)
        object.__setattr__(entry, "semantic_group", group)
        object.__setattr__(entry, "key", key)
        return entry


class Checklist:
    """Ordered keyword coverage state for one generation loop.

    Entry order is fixed at construction. Covered flags are monotone: they
    can be set but never cleared, so total coverage only ever grows.
    """

    def __init__(self, entries: Iterable[ConceptEntry]):
        self._entries: Tuple[ConceptEntry, ...] = tuple(entries)
        self._covered: List[bool] = [False] * len(self._entries)

    @property
    def entries(self) -> Tuple[ConceptEntry, ...]:
        return self._entries

    @property
    def covered(self) -> Tuple[bool, ...]:
        return tuple(self._covered)

    def __len__(self) -> int:
        return len(self._entries)

    def mark(self, index: int) -> None:
        self._covered[index] = True

    def uncovered(self) -> List[ConceptEntry]:
        return [e for e, done in zip(self._entries, self._covered) if not done]

    def covered_count(self) -> int:
        return sum(self._covered)


# Each template name, with the slots its caller binds.
STAGE_SLOTS: Dict[str, FrozenSet[str]] = {
    "doctor": frozenset({"note", "keywords", "history"}),
    "patient": frozenset({"note", "history"}),
    "polish": frozenset({"conversation", "note", "keywords"}),
    "hallucination": frozenset({"conversation", "note", "keywords"}),
    "postediting": frozenset({"conversation", "conversation2", "keywords", "note"}),
    "factuality": frozenset({"note", "conversation", "keywords"}),
}
# Every slot some stage binds: a placeholder naming none of them is malformed.
TEMPLATE_SLOTS = frozenset().union(*STAGE_SLOTS.values())

# Matches every ``{{``, with the slot name in group 1 when ``{{name}}``
# follows. A body is valid when every match names a slot its stage binds.
TEMPLATE_SLOT_RE = re.compile(r"\{\{(?:(\w+)\}\})?")


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt text with ``{{slot}}`` placeholders.

    Every ``{{`` in the body must open a slot the template's ``STAGE_SLOTS``
    entry names, so a render with its stage's bindings leaves no placeholder.
    ``pieces`` is the body split at its placeholders: text, slot, ..., text.
    """

    name: str
    body: str
    pieces: Tuple[str, ...] = field(init=False, compare=False, repr=False)
    _slots: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.name not in STAGE_SLOTS:
            raise ModelError(f"unknown template name: {self.name!r}")
        for match in TEMPLATE_SLOT_RE.finditer(self.body):
            if match.group(1) not in TEMPLATE_SLOTS:
                raise ModelError(
                    f"template {self.name!r} has a bad placeholder at offset {match.start()}"
                )
        pieces = tuple(TEMPLATE_SLOT_RE.split(self.body))
        slots = frozenset(pieces[1::2])
        unbound = ", ".join(f"{{{{{slot}}}}}" for slot in sorted(slots - STAGE_SLOTS[self.name]))
        if unbound:
            raise ModelError(f"the {self.name} stage does not bind {unbound}")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_slots", slots)

    def referenced_slots(self) -> frozenset:
        return self._slots


MODES: Tuple[str, ...] = ("short", "long")


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for the generation loop and refinement passes.

    ``keywords_per_turn`` caps how many checklist terms one doctor question
    may target. ``context_budget``, 80 % of ``max_context_tokens``, is the
    estimated prompt size over which the loop trims its history and stops.
    """

    max_rounds: int = 15
    keywords_per_turn: int = 4
    max_context_tokens: int = 4096
    mode: str = "short"
    similarity_threshold: float = 0.85
    concept_threshold: float = 0.7
    temperature: float = 0.7
    max_reply_tokens: int = 256
    enable_factuality: bool = False
    max_retries: int = 3
    retry_base_delay: float = 0.5

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ModelError("max_rounds must be positive")
        if self.keywords_per_turn < 1:
            raise ModelError("keywords_per_turn must be >= 1")
        if self.max_context_tokens < 1:
            raise ModelError("max_context_tokens must be positive")
        if self.max_reply_tokens < 1:
            raise ModelError("max_reply_tokens must be positive")
        for name in ("temperature", "max_retries", "retry_base_delay"):
            value = getattr(self, name)
            # Not ``value < 0``, which lets NaN through.
            if not (math.isfinite(value) and value >= 0):
                raise ModelError(f"{name} must be finite and >= 0, got {value}")
        if self.mode not in MODES:
            raise ModelError(f"mode must be short or long, got {self.mode!r}")
        for name in ("similarity_threshold", "concept_threshold"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ModelError(f"{name} must be in (0, 1]")

    @property
    def context_budget(self) -> float:
        return 0.8 * self.max_context_tokens

    @classmethod
    def for_mode(cls, mode: str, **overrides) -> "GenerationConfig":
        """Config with the per-mode round cap (15 short, 25 long)."""
        defaults = {"mode": mode, "max_rounds": 15 if mode == "short" else 25}
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class EvalReport:
    """Corpus-level metric summary.

    All similarity fields are fractions in [0, 1]; ``len`` is the mean
    utterance count per hypothesis dialogue. The report computes ``concept_f1``,
    the harmonic mean of ``concept_precision`` and ``concept_recall``.
    """

    r1: float
    r2: float
    rl: float
    rlsum: float
    bleu: float
    sbleu: float
    concept_recall: float
    concept_precision: float
    concept_f1: float = field(init=False)
    len: float

    def __post_init__(self):
        object.__setattr__(self, "concept_f1", f1_score(self.concept_precision, self.concept_recall))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "len" and not 0.0 <= value <= 1.0:
                raise ModelError(f"{f.name}={value} outside [0, 1]")
        if self.len < 0:
            raise ModelError("len must be non-negative")

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)
