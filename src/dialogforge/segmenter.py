"""Split clinical notes into header-labeled sections.

Header candidates are physical lines only. Each line is normalized and
compared to the canonical heading vocabulary by normalized Levenshtein
similarity; an accepted match opens a section that runs to the next match or
the end of the note. Text before the first header becomes a preamble section,
so the emitted sections always cover every byte of the note.
"""

import string
from dataclasses import dataclass
from typing import List, Optional

from .model import (
    CANONICAL_HEADERS,
    PREAMBLE,
    ClinicalNote,
    NoteSection,
    SectionHeader,
    validate,
)

# Lines longer than this after normalization are never header candidates;
# stops body sentences from fuzzy-matching a heading.
MAX_HEADER_CHARS = 60

DEFAULT_THRESHOLD = 0.85

_STRIP_CHARS = string.punctuation + string.whitespace


@dataclass(frozen=True)
class HeaderMatch:
    canonical: SectionHeader
    similarity: float


def normalize_header(line: str) -> str:
    """Lowercase, strip surrounding punctuation (trailing colons included),
    and collapse whitespace runs to single spaces."""
    return " ".join(line.strip(_STRIP_CHARS).lower().split())


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance (insert/delete/substitute, all cost 1)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[len(b)]


def similarity(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def match_header(line: str, threshold: float = DEFAULT_THRESHOLD) -> Optional[HeaderMatch]:
    """Best canonical header for a line, or None below threshold.

    Ties between headers resolve to the earlier entry in the canonical list.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    normalized = normalize_header(line)
    if not normalized or len(normalized) > MAX_HEADER_CHARS:
        return None
    best_name = None
    best_sim = -1.0
    for name in CANONICAL_HEADERS:
        sim = similarity(normalized, name)
        if sim > best_sim:
            best_name, best_sim = name, sim
    if best_sim < threshold:
        return None
    return HeaderMatch(canonical=SectionHeader(best_name), similarity=best_sim)


def segment_note(note: ClinicalNote, threshold: float = DEFAULT_THRESHOLD) -> List[NoteSection]:
    """Scan line by line and emit ordered, disjoint sections covering the
    whole note. A note with no header matches yields one preamble section."""
    validate(note)
    text = note.text

    # (header, header_line_start, body_start) per accepted header line
    marks = []
    offset = 0
    for line in text.splitlines(keepends=True):
        match = match_header(line, threshold)
        if match is not None:
            marks.append((match.canonical, offset, offset + len(line)))
        offset += len(line)

    sections: List[NoteSection] = []
    if not marks or marks[0][1] > 0:
        lead_end = marks[0][1] if marks else len(text)
        sections.append(
            NoteSection(
                header=SectionHeader(PREAMBLE),
                body=text[:lead_end],
                start=0,
                end=lead_end,
            )
        )
    for i, (header, start, body_start) in enumerate(marks):
        end = marks[i + 1][1] if i + 1 < len(marks) else len(text)
        sections.append(
            NoteSection(
                header=header,
                body=text[body_start:end],
                start=start,
                end=end,
                header_line=text[start:body_start],
            )
        )
    return sections
