"""Domain types shared across the pipeline.

Everything here is a plain data container with construction-time validation.
All types are immutable after construction except :class:`Checklist`, whose
covered flags may only ever flip from False to True.
"""

import re
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Dict, Iterable, List, Sequence, Tuple

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
    """Base class for domain validation failures."""


class EmptyNote(ModelError):
    pass


class EmptyId(ModelError):
    pass


class UnknownHeader(ModelError):
    pass


class AlternationError(ModelError):
    pass


def _squash(text: str) -> str:
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class SectionHeader:
    """One of the canonical section headings, or the preamble sentinel."""

    canonical_name: str

    def __post_init__(self):
        name = _squash(self.canonical_name)
        if name not in CANONICAL_HEADERS and name != PREAMBLE:
            raise UnknownHeader(f"not a canonical section header: {self.canonical_name!r}")
        object.__setattr__(self, "canonical_name", name)

    @property
    def is_preamble(self) -> bool:
        return self.canonical_name == PREAMBLE


@dataclass(frozen=True)
class ClinicalNote:
    id: str
    text: str


def validate(note: ClinicalNote) -> None:
    """Raise EmptyId/EmptyNote unless the note satisfies its invariants."""
    if not note.id.strip():
        raise EmptyId("note id is blank")
    if not note.text.strip():
        raise EmptyNote(f"note {note.id!r} has no text")


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


class Provenance(str, Enum):
    RAW = "raw"
    POLISHED = "polished"
    CHECKED = "checked"
    COMBINED = "combined"


@dataclass(frozen=True)
class Utterance:
    speaker: Speaker
    text: str
    round_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "speaker", Speaker(self.speaker))
        if not isinstance(self.text, str) or not self.text:
            raise ModelError(f"utterance text must be a non-empty string, got {self.text!r}")
        if self.round_index < 0:
            raise ModelError("round_index must be >= 0")


@dataclass(frozen=True)
class Dialogue:
    """An ordered conversation attributed to a note.

    ``meta`` carries non-contractual bookkeeping (coverage counts, per-round
    keyword assignments, termination reason) and is excluded from equality.
    Raw dialogues must strictly alternate doctor/patient starting with the
    doctor; refined provenances may relax alternation.
    """

    note_id: str
    turns: Tuple[Utterance, ...]
    provenance: Provenance = Provenance.RAW
    meta: Dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))
        object.__setattr__(self, "provenance", Provenance(self.provenance))
        if self.provenance is Provenance.RAW:
            for i, turn in enumerate(self.turns):
                expected = Speaker.DOCTOR if i % 2 == 0 else Speaker.PATIENT
                if turn.speaker is not expected:
                    raise AlternationError(
                        f"raw dialogue turn {i} is {turn.speaker.value}, expected {expected.value}"
                    )


def format_transcript(turns: Sequence[Utterance]) -> str:
    """Render turns one per line as ``Doctor: ...`` / ``Patient: ...``.

    This is the canonical rendering used for prompt history, refinement-pass
    round-trips, and corpus evaluation.
    """
    return "\n".join(f"{t.speaker.value.capitalize()}: {t.text}" for t in turns)


class SemanticGroup(str, Enum):
    DISEASE = "disease"
    DRUG = "drug"
    DEVICE = "device"
    PROCEDURE = "procedure"
    OTHER = "other"

    @classmethod
    def parse(cls, raw: str) -> "SemanticGroup":
        """Map a raw group label to the enum; unknown labels become OTHER."""
        try:
            return cls(raw.strip().lower())
        except ValueError:
            return cls.OTHER


@dataclass(frozen=True)
class ConceptEntry:
    surface: str
    cui: str
    semantic_group: SemanticGroup = SemanticGroup.OTHER

    def __post_init__(self):
        object.__setattr__(self, "surface", _squash(self.surface))
        object.__setattr__(self, "semantic_group", SemanticGroup(self.semantic_group))
        if not self.surface:
            raise ModelError("concept surface is empty")
        if not self.cui:
            raise ModelError("concept cui is empty")


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

    def is_complete(self) -> bool:
        return all(self._covered)


# Slot names a prompt template may reference.
TEMPLATE_SLOTS = frozenset({"note", "keywords", "history", "conversation", "conversation2"})

# Matches every ``{{``, with the slot name in group 1 when ``{{name}}``
# follows. A body is valid when every match names one of TEMPLATE_SLOTS.
TEMPLATE_SLOT_RE = re.compile(r"\{\{(?:(\w+)\}\})?")

TEMPLATE_NAMES = frozenset(
    {"doctor", "patient", "polish", "hallucination", "postediting", "factuality"}
)


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt text with ``{{slot}}`` placeholders.

    Every ``{{`` in the body must open one of the declared slots, which
    guarantees a fully bound render leaves no placeholder syntax behind.
    """

    name: str
    body: str

    def __post_init__(self):
        if self.name not in TEMPLATE_NAMES:
            raise ModelError(f"unknown template name: {self.name!r}")
        for match in TEMPLATE_SLOT_RE.finditer(self.body):
            if match.group(1) not in TEMPLATE_SLOTS:
                raise ModelError(
                    f"template {self.name!r} has a bad placeholder at offset {match.start()}"
                )

    def referenced_slots(self) -> frozenset:
        return frozenset(match.group(1) for match in TEMPLATE_SLOT_RE.finditer(self.body))


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
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")
        if self.mode not in ("short", "long"):
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
    utterance count per hypothesis dialogue. ``concept_f1`` is always the
    harmonic mean of ``concept_precision`` and ``concept_recall`` (0 when
    either is 0).
    """

    r1: float
    r2: float
    rl: float
    rlsum: float
    bleu: float
    sbleu: float
    concept_recall: float
    concept_precision: float
    concept_f1: float
    len: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "len" and not 0.0 <= value <= 1.0:
                raise ModelError(f"{f.name}={value} outside [0, 1]")
        if self.len < 0:
            raise ModelError("len must be non-negative")
        p, r = self.concept_precision, self.concept_recall
        expected_f1 = 2 * p * r / (p + r) if p > 0 and r > 0 else 0.0
        if abs(self.concept_f1 - expected_f1) > 1e-9:
            raise ModelError(
                f"concept_f1={self.concept_f1} is not the harmonic mean of "
                f"precision={p} and recall={r}"
            )

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)
