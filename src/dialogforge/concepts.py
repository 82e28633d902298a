"""Lexicon-backed medical concept extraction and checklist coverage.

The extractor is a greedy longest-match dictionary tagger over word-boundary
token windows: at each position it tries the widest window first, accepting a
window that matches a lexicon entry either exactly (after normalization) or
by token-set Jaccard similarity at or above the configured threshold. Matched
spans never overlap; repeated concepts are deduplicated by CUI.
"""

import logging
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .model import (
    Checklist,
    ConceptEntry,
    GenerationConfig,
    NoteSection,
    SemanticGroup,
    Utterance,
)

logger = logging.getLogger(__name__)

# Word tokens: alphanumeric runs, Unicode-aware, underscore excluded.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

REPORTABLE_GROUPS = frozenset(
    {SemanticGroup.DISEASE, SemanticGroup.DRUG, SemanticGroup.DEVICE, SemanticGroup.PROCEDURE}
)


class LexiconError(Exception):
    pass


class MalformedRecord(LexiconError):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"malformed lexicon record at line {line_no}: {detail}")


def words(text: str) -> List[str]:
    """Lowercased word tokens of ``text``."""
    return _WORD_RE.findall(text.lower())


class Lexicon:
    """Immutable surface-term dictionary mapping to CUIs and semantic groups.

    Surfaces are keyed by their word tokens joined by spaces, so "heart-failure"
    and "heart failure" are one key; duplicate keys keep the first occurrence.
    Insertion order is the tie-break for approximate matches, whose candidates
    come from an inverted index of token -> entry ids (SimString, Okazaki &
    Tsujii 2010).
    """

    def __init__(self, entries: Iterable[ConceptEntry]):
        # The loop works on locals, not attributes: every command builds the
        # index at start-up.
        kept: List[ConceptEntry] = []
        exact: Dict[str, ConceptEntry] = {}
        postings: Dict[str, List[int]] = {}
        sizes: List[int] = []
        longest = 1
        for entry in entries:
            tokens = words(entry.surface)
            if not tokens:
                raise LexiconError(f"surface {entry.surface!r} has no word tokens")
            key = " ".join(tokens)
            if key in exact:
                logger.warning("duplicate lexicon surface %r ignored", entry.surface)
                continue
            exact[key] = entry
            entry_id = len(kept)
            kept.append(entry)
            token_set = set(tokens)
            sizes.append(len(token_set))
            for token in token_set:
                postings.setdefault(token, []).append(entry_id)
            if len(tokens) > longest:
                longest = len(tokens)
        self._entries = kept
        self._exact = exact
        self._postings = postings
        self._set_sizes = sizes
        self.max_term_tokens = longest

    @property
    def entries(self) -> Tuple[ConceptEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, surface: str) -> bool:
        return " ".join(words(surface)) in self._exact

    def get(self, surface: str) -> Optional[ConceptEntry]:
        return self._exact.get(" ".join(words(surface)))

    def match_window(self, window: Sequence[str], approx_threshold: float) -> Optional[ConceptEntry]:
        """Entry matched by a token window, exact matches taking precedence
        over Jaccard matches; approximate ties go to insertion order.

        ``approx_threshold`` must be in (0, 1]: then every qualifying entry
        shares a token with the window, so the window's postings hold them all.
        """
        exact = self._exact.get(" ".join(window))
        if exact is not None:
            return exact
        window_set = set(window)
        overlaps: Dict[int, int] = {}
        for token in window_set:
            for entry_id in self._postings.get(token, ()):
                overlaps[entry_id] = overlaps.get(entry_id, 0) + 1
        window_size = len(window_set)
        sizes = self._set_sizes
        qualifying = [
            entry_id
            for entry_id, overlap in overlaps.items()
            if overlap / (window_size + sizes[entry_id] - overlap) >= approx_threshold
        ]
        return self._entries[min(qualifying)] if qualifying else None


def load_lexicon(source: Iterable[str]) -> Lexicon:
    """Parse tab-separated ``surface<TAB>cui<TAB>group`` records.

    Blank lines and ``#`` comments are skipped. Unknown groups map to
    ``other``; duplicate surfaces keep the first record and log a warning.
    """
    entries = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedRecord(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        surface, cui, group = (f.strip() for f in fields)
        if not surface or not cui:
            raise MalformedRecord(line_no, "empty surface or cui")
        entries.append(ConceptEntry(surface=surface, cui=cui, semantic_group=SemanticGroup.parse(group)))
    return Lexicon(entries)


@dataclass(frozen=True)
class ConceptMatch:
    """A lexicon hit over token indices [start, end) of the scanned text."""

    start: int
    end: int
    entry: ConceptEntry


def scan_matches(text: str, lexicon: Lexicon, approx_threshold: float) -> List[ConceptMatch]:
    """All greedy longest matches in order, before CUI deduplication."""
    if not 0 < approx_threshold <= 1:
        raise ValueError("approx_threshold must be in (0, 1]")
    tokens = words(text)
    matches: List[ConceptMatch] = []
    i = 0
    while i < len(tokens):
        hit = None
        for width in range(min(lexicon.max_term_tokens, len(tokens) - i), 0, -1):
            entry = lexicon.match_window(tokens[i : i + width], approx_threshold)
            if entry is not None:
                hit = ConceptMatch(i, i + width, entry)
                break
        if hit is not None:
            matches.append(hit)
            i = hit.end
        else:
            i += 1
    return matches


def extract_concepts(text: str, lexicon: Lexicon, approx_threshold: float) -> List[ConceptEntry]:
    """Concepts in first-occurrence order, one per CUI."""
    seen = set()
    out = []
    for match in scan_matches(text, lexicon, approx_threshold):
        if match.entry.cui not in seen:
            seen.add(match.entry.cui)
            out.append(match.entry)
    return out


def filter_semantic_groups(concepts: Sequence[ConceptEntry]) -> List[ConceptEntry]:
    """Keep only disease, drug, device, and procedure entries, in order."""
    return [c for c in concepts if c.semantic_group in REPORTABLE_GROUPS]


def build_checklist(section: NoteSection, lexicon: Lexicon, cfg: GenerationConfig) -> Checklist:
    """Filtered concepts of the section body, in document order, uncovered."""
    concepts = extract_concepts(section.body, lexicon, cfg.concept_threshold)
    return Checklist(filter_semantic_groups(concepts))


def mark_covered(
    checklist: Checklist,
    new_utterances: Sequence[Utterance],
    lexicon: Lexicon,
    cfg: GenerationConfig,
) -> int:
    """Flip uncovered entries mentioned by the new utterances.

    An entry counts as mentioned when its surface occurs verbatim at word
    boundaries or its CUI shows up in the extracted concepts of the utterance
    text (credits lexicon synonyms). Surfaces are checked first; the text is
    tagged only when some open entry is still unmentioned. Returns the number
    of flips.
    """
    if not new_utterances:
        return 0
    blob = "\n".join(u.text for u in new_utterances)
    padded = f" {' '.join(words(blob))} "
    unsaid = []
    flips = 0
    for index, (entry, done) in enumerate(zip(checklist.entries, checklist.covered)):
        if done:
            continue
        phrase = " ".join(words(entry.surface))
        if phrase and f" {phrase} " in padded:
            checklist.mark(index)
            flips += 1
        else:
            unsaid.append(index)
    if unsaid:
        mentioned_cuis = {c.cui for c in extract_concepts(blob, lexicon, cfg.concept_threshold)}
        for index in unsaid:
            if checklist.entries[index].cui in mentioned_cuis:
                checklist.mark(index)
                flips += 1
    return flips
