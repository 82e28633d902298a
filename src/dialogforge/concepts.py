"""Lexicon-backed medical concept extraction and checklist coverage.

The extractor is a greedy longest-match dictionary tagger over word-boundary
token windows: at each position it tries the widest window first, accepting a
window that matches a lexicon entry either exactly (after normalization) or
by token-set Jaccard similarity at or above the configured threshold. Matched
spans never overlap; repeated concepts are deduplicated by CUI.

Most windows cannot match, and the scan skips them without a lookup. Let a
window have ``s`` distinct tokens, ``k`` of them in some entry. An entry of
``e`` distinct tokens shares ``o <= k`` of them, so its Jaccard similarity
``o / (s + e - o)`` is at most ``o / s <= k / s``. Float division rounds
correctly, so it keeps that order: when ``k / s`` is below the threshold, no
entry reaches it. An exact match has ``k == s`` and is never skipped.
"""

import logging
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .model import (
    Checklist,
    ConceptEntry,
    GenerationConfig,
    ModelError,
    NoteSection,
    SemanticGroup,
    Utterance,
    words,
)

logger = logging.getLogger(__name__)

REPORTABLE_GROUPS = frozenset(
    {SemanticGroup.DISEASE, SemanticGroup.DRUG, SemanticGroup.DEVICE, SemanticGroup.PROCEDURE}
)


class LexiconError(Exception):
    pass


class MalformedRecord(LexiconError):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"malformed lexicon record at line {line_no}: {detail}")


class Lexicon:
    """Immutable surface-term dictionary mapping to CUIs and semantic groups.

    Entries are indexed by their ``key``, so "heart-failure" and "heart
    failure" are one key; duplicate keys keep the first occurrence.
    Insertion order is the tie-break for approximate matches, whose candidates
    come from an inverted index of token -> entry ids (SimString, Okazaki &
    Tsujii 2010). ``indexed`` tells a scan which tokens have postings: a
    window whose share ``k / s`` of distinct tokens with postings is below the
    threshold bounds every entry's Jaccard similarity below it, so the scan
    never asks ``match_window`` about it.
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
            if entry.key in exact:
                logger.warning("duplicate lexicon surface %r ignored", entry.surface)
                continue
            exact[entry.key] = entry
            entry_id = len(kept)
            kept.append(entry)
            tokens = entry.key.split(" ")
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

    def indexed(self, tokens: Iterable[str]) -> List[bool]:
        """Whether each token has postings, that is, occurs in some entry."""
        postings = self._postings
        return [token in postings for token in tokens]

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
    ``other``; duplicate surfaces keep the first record and log a warning. A
    record that cannot form a ``ConceptEntry`` raises MalformedRecord.
    """
    return Lexicon(_read_entries(source))


def _read_entries(source: Iterable[str]) -> Iterator[ConceptEntry]:
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedRecord(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        surface, cui, group = fields
        # ConceptEntry squashes the surface's whitespace; parse strips the group.
        try:
            entry = ConceptEntry(surface, cui.strip(), SemanticGroup.parse(group))
        except ModelError as exc:
            raise MalformedRecord(line_no, str(exc)) from exc
        yield entry


@dataclass(frozen=True)
class ConceptMatch:
    """A lexicon hit over token indices [start, end) of the scanned text."""

    start: int
    end: int
    entry: ConceptEntry


def scan_matches(text: str, lexicon: Lexicon, approx_threshold: float) -> List[ConceptMatch]:
    """All greedy longest matches in order, before CUI deduplication. Only
    windows the bound of the module docstring keeps reach ``match_window``."""
    return _scan_tokens(words(text), lexicon, approx_threshold)


def _scan_tokens(tokens: Sequence[str], lexicon: Lexicon, approx_threshold: float) -> List[ConceptMatch]:
    """``scan_matches`` over the word tokens of a text."""
    if not 0 < approx_threshold <= 1:
        raise ValueError("approx_threshold must be in (0, 1]")
    n = len(tokens)
    # A closing True stops the search for the next token with postings at n.
    indexed = lexicon.indexed(tokens) + [True]
    longest = lexicon.max_term_tokens
    matches: List[ConceptMatch] = []
    i = 0
    while i < n:
        # A window with no token that has postings cannot match, so start no
        # further back than ``longest - 1`` tokens before the next one.
        first = indexed.index(True, i)
        if first == n:
            break
        i = max(i, first - longest + 1)
        ends = []
        distinct = set()
        known = 0
        for end in range(i + 1, min(i + longest, n) + 1):
            token = tokens[end - 1]
            if token not in distinct:
                distinct.add(token)
                known += indexed[end - 1]
            if known / len(distinct) >= approx_threshold:
                ends.append(end)
        for end in reversed(ends):
            entry = lexicon.match_window(tokens[i:end], approx_threshold)
            if entry is not None:
                matches.append(ConceptMatch(i, end, entry))
                i = end
                break
        else:
            i += 1
    return matches


def extract_concepts(text: str, lexicon: Lexicon, approx_threshold: float) -> List[ConceptEntry]:
    """Concepts in first-occurrence order, one per CUI."""
    return concepts_of_tokens(words(text), lexicon, approx_threshold)


def concepts_of_tokens(tokens: Sequence[str], lexicon: Lexicon, approx_threshold: float) -> List[ConceptEntry]:
    """``extract_concepts`` over the word tokens of a text."""
    seen = set()
    out = []
    for match in _scan_tokens(tokens, lexicon, approx_threshold):
        if match.entry.cui not in seen:
            seen.add(match.entry.cui)
            out.append(match.entry)
    return out


def filter_semantic_groups(concepts: Sequence[ConceptEntry]) -> List[ConceptEntry]:
    """Keep only disease, drug, device, and procedure entries, in order."""
    return [c for c in concepts if c.semantic_group in REPORTABLE_GROUPS]


def reportable_concepts(text: str, lexicon: Lexicon, cfg: GenerationConfig) -> List[ConceptEntry]:
    """Concepts of ``text`` in the reportable groups, in first-occurrence order."""
    return filter_semantic_groups(extract_concepts(text, lexicon, cfg.concept_threshold))


def build_checklist(section: NoteSection, lexicon: Lexicon, cfg: GenerationConfig) -> Checklist:
    """Filtered concepts of the section body, in document order, uncovered."""
    return Checklist(reportable_concepts(section.body, lexicon, cfg))


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
    tokens = words("\n".join(u.text for u in new_utterances))
    padded = f" {' '.join(tokens)} "
    unsaid = []
    flips = 0
    for index, (entry, done) in enumerate(zip(checklist.entries, checklist.covered)):
        if done:
            continue
        if f" {entry.key} " in padded:
            checklist.mark(index)
            flips += 1
        else:
            unsaid.append(index)
    if unsaid:
        mentioned_cuis = {c.cui for c in concepts_of_tokens(tokens, lexicon, cfg.concept_threshold)}
        for index in unsaid:
            if checklist.entries[index].cui in mentioned_cuis:
                checklist.mark(index)
                flips += 1
    return flips
