"""Split clinical notes into header-labeled sections.

Header candidates are physical lines only. Each line is normalized and
compared to the canonical heading vocabulary by normalized Levenshtein
similarity; an accepted match opens a section that runs to the next match or
the end of the note. Text before the first header becomes a preamble section,
so the emitted sections always cover every byte of the note.

Two exact filters keep most lines away from the edit-distance table. A line
equal to a heading name scores 1.0, and no other name can. The distance is
at least the length gap (Ukkonen 1985), so ``1 - gap / longest`` bounds a
heading's similarity from above, in floating point too, as division and
subtraction round monotonically. A heading whose bound is below the
threshold, or no higher than the best score so far, cannot be accepted or
win, and is skipped.
"""

import string
from dataclasses import dataclass
from typing import List, Optional

from .model import CANONICAL_HEADERS, PREAMBLE, ClinicalNote, NoteSection, SectionHeader

# Lines longer than this after normalization are never header candidates;
# stops body sentences from fuzzy-matching a heading.
MAX_HEADER_CHARS = 60

DEFAULT_THRESHOLD = 0.85

_STRIP_CHARS = string.punctuation + string.whitespace

_CANONICAL_NAMES = frozenset(CANONICAL_HEADERS)


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
    The result equals scoring every heading: an exact name is the only 1.0,
    and a heading is skipped only when its length-gap bound, which its score
    cannot exceed, is below ``threshold`` or at most the best score so far.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    normalized = normalize_header(line)
    if not normalized or len(normalized) > MAX_HEADER_CHARS:
        return None
    if normalized in _CANONICAL_NAMES:
        return HeaderMatch(canonical=SectionHeader(normalized), similarity=1.0)
    best_name = None
    best_sim = -1.0
    for name in CANONICAL_HEADERS:
        bound = 1.0 - abs(len(normalized) - len(name)) / max(len(normalized), len(name))
        if bound < threshold or bound <= best_sim:
            continue
        sim = similarity(normalized, name)
        if sim > best_sim:
            best_name, best_sim = name, sim
    if best_sim < threshold:
        return None
    return HeaderMatch(canonical=SectionHeader(best_name), similarity=best_sim)


def segment_note(note: ClinicalNote, threshold: float = DEFAULT_THRESHOLD) -> List[NoteSection]:
    """Scan line by line and emit ordered, disjoint sections covering the
    whole note. Text before the first header match, or the whole note when
    there is none, is a preamble section with an empty ``header_line``."""
    text = note.text

    # (header, header_line_start, body_start) per accepted header line
    marks = []
    offset = 0
    # A line ends only at \n, \r\n or \r, as in model.split_lines. Turning
    # each \r into \n keeps every offset; a \r\n then leaves an empty line
    # between its two characters, and an empty line is never a header.
    for line in text.replace("\r", "\n").split("\n"):
        end = offset + len(line) + 1
        match = match_header(line, threshold) if line else None
        if match is not None:
            body_start = end + 1 if text.startswith("\r\n", end - 1) else end
            marks.append((match.canonical, offset, body_start))
        offset = end
    if not marks or marks[0][1] > 0:
        marks.insert(0, (SectionHeader(PREAMBLE), 0, 0))

    sections: List[NoteSection] = []
    for i, (header, start, body_start) in enumerate(marks):
        end = marks[i + 1][1] if i + 1 < len(marks) else len(text)
        sections.append(NoteSection(header, text[body_start:end], start, end, text[start:body_start]))
    return sections
