"""Lexicon-backed medical concept extraction and checklist coverage.

The extractor is a greedy longest-match dictionary tagger over word-boundary
token windows: at each position it tries the widest window first, accepting a
window that matches a lexicon entry either exactly (after normalization) or
by token-set Jaccard similarity at or above the configured threshold. Matched
spans never overlap; ``scan_matches`` gives each as a ``(start, end, entry)``
tuple over token indices. Repeated concepts are deduplicated by CUI.

Most windows cannot match, and the scan skips them without a lookup. Let a
window have ``s`` distinct tokens, ``k`` of them in some entry. An entry of
``e`` distinct tokens shares ``o <= k`` of them, so its Jaccard similarity
``o / (s + e - o)`` is at most ``o / s <= k / s``. Float division rounds
correctly, so it keeps that order: when ``k / s`` is below the threshold, no
entry reaches it. An exact match has ``k == s`` and is never skipped.

``load_lexicon_file`` keeps a marshal index of the lexicon's columns beside a
lexicon file, read with no parse while its header (format, ``cache_tag``, the
text's SHA-256) matches. It dumps the columns that the parse returns, so the
bytes follow the text and the Python version, and reads back what it wrote.
"""

import contextlib
import hashlib
import logging
import marshal
import os
import stat
import sys
import tempfile
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .model import (
    Checklist,
    ConceptEntry,
    GenerationConfig,
    ModelError,
    NoteSection,
    SemanticGroup,
    Utterance,
    concept_fields,
    read_text,
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


# The index format. Bump it, with the digests tests/test_lexicon_index.py pins,
# when a column or the parse of a line changes, so no older index is read.
_INDEX_FORMAT = 3
INDEX_SUFFIX = ".dialogforge-index"
_INDEX_MAGIC = b"dialogforge-index "
# The columns of a lexicon, in the order the index holds them.
_COLUMNS = (
    "_surfaces", "_cuis", "_groups", "_keys", "_exact", "_postings", "_set_sizes", "max_term_tokens", "_duplicates",
)


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

    The index is columns of strings and ids, as in QuickUMLS (Soldaini &
    Goharian 2016): an entry id's surface, CUI, group label and key, a key ->
    id map, token -> id postings and each key's token set size. ``_columns``
    builds them from the lines ``load_lexicon`` or ``load_lexicon_file`` reads,
    or an index holds them; no ``ConceptEntry`` is built. An id's entry, its
    label made a ``SemanticGroup``, is built once, when a match first returns it.
    """

    def __init__(self, columns: Tuple[object, ...]):
        """The lexicon of the ``_COLUMNS`` in order. It logs a warning for each
        duplicate surface, in order; a wrong count raises ValueError."""
        vars(self).update(zip(_COLUMNS, columns, strict=True))
        self._built: List[Optional[ConceptEntry]] = [None] * len(self._keys)
        for surface in self._duplicates:
            logger.warning("duplicate lexicon surface %r ignored", surface)

    def _entry(self, entry_id: int) -> ConceptEntry:
        """The entry of ``entry_id``, built from its columns on first use."""
        entry = self._built[entry_id]
        if entry is None:
            # Two threads may both find the slot empty and each build the
            # entry. The two are equal and checklists merge by CUI, so it does
            # not matter which one the slot keeps.
            entry = self._built[entry_id] = ConceptEntry._from_checked(
                self._surfaces[entry_id], self._cuis[entry_id], SemanticGroup(self._groups[entry_id]),
                self._keys[entry_id],
            )
        return entry

    @property
    def entries(self) -> Tuple[ConceptEntry, ...]:
        return tuple(self._entry(entry_id) for entry_id in range(len(self._keys)))

    def __len__(self) -> int:
        return len(self._keys)

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
        entry_id = self._exact.get(" ".join(window))
        if entry_id is not None:
            return self._entry(entry_id)
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
        return self._entry(min(qualifying)) if qualifying else None


def load_lexicon(source: Iterable[str]) -> Lexicon:
    """Parse tab-separated ``surface<TAB>cui<TAB>group`` records.

    Blank lines and ``#`` comments are skipped. Unknown groups map to
    ``other``; duplicate surfaces keep the first record and log a warning. A
    record that cannot form a ``ConceptEntry`` raises MalformedRecord. Each
    line is checked and indexed as it is read; no entry is built.
    """
    return Lexicon(_columns(_read_rows(source)))


def load_lexicon_file(path: Union[str, "os.PathLike[str]"]) -> Lexicon:
    """The lexicon of the file ``path``, from ``<path>.dialogforge-index`` when
    its header matches; else parsed, and the index written unless a file there
    does not start as one. A file that cannot be read raises OSError or
    UnicodeDecodeError, one that does not parse LexiconError."""
    text = read_text(path)
    index_path = os.fspath(path) + INDEX_SUFFIX
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    header = _INDEX_MAGIC + f"{_INDEX_FORMAT} {sys.implementation.cache_tag} {digest}\n".encode("ascii")
    try:
        with open(index_path, "rb") as index:
            found = index.read()
    except FileNotFoundError:
        found = b""
    except OSError:
        found = None  # something is there that cannot be read: keep it
    if found and found.startswith(header):
        # A damaged index is parsed over, like a stale one.
        with contextlib.suppress(EOFError, ValueError, TypeError):
            return Lexicon(marshal.loads(found[len(header):]))
    # Dumped as the parse returns them, before ``Lexicon`` logs a warning, the
    # columns' objects have no holder outside them but ``_ONE_CHARACTER``, the
    # same in every process. A tuple bound to a name would be flagged as held.
    data = marshal.dumps(_columns(_read_rows(text.split("\n"))))
    if found is not None and _INDEX_MAGIC.startswith(found[: len(_INDEX_MAGIC)]):
        _write_index(path, index_path, header + data)
    return Lexicon(marshal.loads(data))


def _write_index(path: Union[str, "os.PathLike[str]"], index_path: str, data: bytes) -> None:
    """Write ``data`` to ``index_path`` by ``os.replace`` of a temporary file,
    so no reader sees a torn index, with the mode of the regular lexicon file
    ``path`` (not a FIFO). A failed write is logged at DEBUG alone."""
    temp = None
    try:
        mode = os.stat(path).st_mode
        if not stat.S_ISREG(mode):
            return
        fd, temp = tempfile.mkstemp(prefix=os.path.basename(index_path) + ".", dir=os.path.dirname(index_path))
        with os.fdopen(fd, "wb") as out:
            os.fchmod(out.fileno(), stat.S_IMODE(mode) & 0o666)
            out.write(data)
        os.replace(temp, index_path)
    except OSError as exc:
        logger.debug("lexicon index %s not written: %s", index_path, exc)
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


# marshal writes whether a string is interned, and flags one held twice. Each
# one-character string is kept here as the first interned one of its value, so
# it is both in every process, whatever code the process compiled.
_ONE_CHARACTER: Dict[str, str] = {}


def _one(s: str) -> str:
    return _ONE_CHARACTER.setdefault(s, sys.intern(s)) if len(s) == 1 else s


def _columns(rows: Iterable[Tuple[str, str, str, str]]) -> Tuple[object, ...]:
    """The ``_COLUMNS`` of ``(surface, cui, group label, key)`` rows, in order."""
    surfaces: List[str] = []
    cuis: List[str] = []
    groups: List[str] = []
    keys: List[str] = []
    exact: Dict[str, int] = {}
    postings: Dict[str, List[int]] = {}
    sizes: List[int] = []
    duplicates: List[str] = []
    longest = 1
    for surface, cui, group, key in rows:
        surface, cui, key = _one(surface), _one(cui), _one(key)
        if key in exact:
            duplicates.append(surface)
            continue
        entry_id = exact[key] = len(keys)
        surfaces.append(surface)
        cuis.append(cui)
        groups.append(group)
        keys.append(key)
        tokens = key.split(" ")
        token_set = dict.fromkeys(tokens)  # first-occurrence order, not the hash seed's
        sizes.append(len(token_set))
        for token in token_set:
            postings.setdefault(_one(token), []).append(entry_id)
        longest = max(longest, len(tokens))
    return surfaces, cuis, groups, keys, exact, postings, sizes, longest, duplicates


def _read_rows(source: Iterable[str]) -> Iterator[Tuple[str, str, str, str]]:
    # A file holds few distinct group labels, so each is parsed once.
    groups: Dict[str, str] = {}
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedRecord(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        surface, cui, group = fields
        cui = cui.strip()
        try:
            surface, key = concept_fields(surface, cui)
        except ModelError as exc:
            raise MalformedRecord(line_no, str(exc)) from exc
        parsed = groups.get(group)
        if parsed is None:
            parsed = groups[group] = SemanticGroup.parse(group).value
        yield surface, cui, parsed, key


def scan_matches(
    tokens: Sequence[str], lexicon: Lexicon, approx_threshold: float
) -> List[Tuple[int, int, ConceptEntry]]:
    """All greedy longest matches over word tokens (``words`` of a text) in
    order, before CUI deduplication: each an ``(start, end, entry)`` hit over
    token indices [start, end). Only windows the bound of the module
    docstring keeps reach ``match_window``."""
    if not 0 < approx_threshold <= 1:
        raise ValueError("approx_threshold must be in (0, 1]")
    n = len(tokens)
    # A closing True stops the search for the next token with postings at n.
    indexed = lexicon.indexed(tokens) + [True]
    longest = lexicon.max_term_tokens
    matches = []
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
                matches.append((i, end, entry))
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
    first: Dict[str, ConceptEntry] = {}
    for _, _, entry in scan_matches(tokens, lexicon, approx_threshold):
        first.setdefault(entry.cui, entry)
    return list(first.values())


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
