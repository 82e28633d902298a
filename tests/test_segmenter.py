import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dialogforge.model import CANONICAL_HEADERS, PREAMBLE, ClinicalNote, ModelError, SectionHeader
from dialogforge.segmenter import (
    MAX_HEADER_CHARS,
    HeaderMatch,
    levenshtein,
    match_header,
    normalize_header,
    segment_note,
    similarity,
)

from oracles import oracle_levenshtein, oracle_match_header, oracle_segment_note


def test_normalize_casefold_and_colon():
    assert normalize_header("CHIEF COMPLAINT:") == "chief complaint"


def test_normalize_whitespace_collapse():
    assert normalize_header("  Past   Medical History ") == "past medical history"


def test_normalize_empty():
    assert normalize_header("") == ""


def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "axc") == 1
    assert levenshtein("past medical hist", "past medical history") == 3


def test_match_exact_after_normalization():
    match = match_header("CHIEF COMPLAINT:")
    assert match is not None
    assert match.canonical.canonical_name == "chief complaint"
    assert match.similarity == 1.0


def test_match_fuzzy_truncated_header():
    # distance 3 over max length 20
    match = match_header("past medical hist", threshold=0.85)
    assert match is not None
    assert match.canonical.canonical_name == "past medical history"
    assert abs(match.similarity - 0.85) < 1e-12


def test_match_rejects_long_body_line():
    line = "the patient reports chest pain radiating to the left arm since tuesday"
    assert len(normalize_header(line)) > 60
    assert match_header(line, threshold=0.85) is None


def test_match_rejects_below_threshold():
    assert match_header("totally unrelated words", threshold=0.85) is None
    assert match_header("", threshold=0.85) is None


def test_match_is_deterministic():
    first = match_header("Review of Systems:")
    second = match_header("Review of Systems:")
    assert first == second


def test_match_threshold_validation():
    with pytest.raises(ValueError):
        match_header("plan", threshold=0.0)


def test_segment_two_exact_headers():
    note = ClinicalNote("a", "CHIEF COMPLAINT:\ncough\nMEDICATIONS:\naspirin")
    sections = segment_note(note)
    assert [s.header.canonical_name for s in sections] == ["chief complaint", "medications"]
    assert sections[0].body == "cough\n"
    assert sections[1].body == "aspirin"


def test_segment_no_headers_yields_preamble():
    note = ClinicalNote("a", "free text only")
    sections = segment_note(note)
    assert len(sections) == 1
    assert sections[0].header.canonical_name == PREAMBLE
    assert sections[0].body == "free text only"


def test_segment_preamble_before_first_header():
    note = ClinicalNote("a", "intro line\nASSESSMENT\nstable")
    sections = segment_note(note)
    assert [s.header.canonical_name for s in sections] == ["preamble", "assessment"]
    assert note.text[sections[0].start : sections[0].end] == "intro line\n"
    assert note.text[sections[1].start : sections[1].end] == "ASSESSMENT\nstable"
    assert sections[1].body == "stable"


def test_segment_duplicate_headers_open_new_sections():
    note = ClinicalNote("a", "PLAN:\nrest\nPLAN:\nfluids\n")
    sections = segment_note(note)
    assert [s.header.canonical_name for s in sections] == ["plan", "plan"]
    assert sections[0].body == "rest\n"
    assert sections[1].body == "fluids\n"


def test_segment_requires_valid_note():
    with pytest.raises(ModelError, match="note 'a' has no text"):
        segment_note(ClinicalNote("a", "   "))


# Characters that str.splitlines() ends a line at, but a note line does not.
_INLINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", _INLINE_BREAKS)
def test_segment_ends_a_line_only_at_a_line_end(char):
    note = ClinicalNote("a", f"Cough since Monday.{char}Plan\nrest and fluids")
    sections = segment_note(note)
    assert [(s.header.canonical_name, s.start, s.end) for s in sections] == [(PREAMBLE, 0, 40)]


def _assert_lossless(note, sections):
    rebuilt = "".join(s.header_line + s.body for s in sections)
    assert rebuilt == note.text
    previous_end = 0
    for section in sections:
        assert section.start == previous_end
        assert section.end >= section.start
        assert note.text[section.start : section.end] == section.header_line + section.body
        previous_end = section.end
    assert previous_end == len(note.text)


def test_round_trip_on_fixture_corpus(segment_corpus):
    assert len(segment_corpus) == 20
    for note in segment_corpus:
        _assert_lossless(note, segment_note(note, threshold=0.85))


def test_similarity_symmetric_on_corpus_headers():
    assert similarity("plan", "plan") == 1.0
    assert similarity("", "plan") == 0.0


# --- match_header against the brute-force oracle ----------------------------

_LINE_CHARS = string.ascii_lowercase + string.ascii_uppercase + " :-.#*"
_EDGE_CHARS = string.punctuation + " \t"


@st.composite
def _near_miss_headers(draw):
    """A canonical name after a few typos and case changes, wrapped in
    punctuation, and with its spaces doubled or not."""
    chars = list(draw(st.sampled_from(CANONICAL_HEADERS)))
    for op, at, char in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "substitute", "upper"]),
                st.integers(0, 40),
                st.sampled_from(string.ascii_lowercase + " "),
            ),
            max_size=4,
        )
    ):
        at %= len(chars) + 1
        if op == "insert":
            chars.insert(at, char)
        elif at < len(chars):
            if op == "delete":
                chars.pop(at)
            elif op == "substitute":
                chars[at] = char
            else:
                chars[at] = chars[at].upper()
    line = "".join(chars)
    if draw(st.booleans()):
        line = line.replace(" ", "  ")
    return draw(st.text(_EDGE_CHARS, max_size=3)) + line + draw(st.text(_EDGE_CHARS, max_size=3))


@st.composite
def _lines_near_the_length_cap(draw):
    """A heading padded with words to within two characters of
    MAX_HEADER_CHARS, on either side, once normalized."""
    line = draw(st.sampled_from(CANONICAL_HEADERS))
    target = MAX_HEADER_CHARS + draw(st.integers(-1, 2))
    while len(line) < target:
        line += " " + draw(st.sampled_from(["x", "of", "plan", "history"]))
    return line[:target].rstrip() + draw(st.sampled_from(["", ":", " :"]))


# The head of one heading on the tail of another: near ties between headings.
_blended_headers = st.builds(
    lambda a, b, cut: a[:cut] + b[cut:],
    st.sampled_from(CANONICAL_HEADERS),
    st.sampled_from(CANONICAL_HEADERS),
    st.integers(0, 30),
)

_header_lines = st.one_of(
    st.text(_LINE_CHARS, max_size=30),
    _near_miss_headers(),
    _blended_headers,
    _lines_near_the_length_cap(),
)
_header_thresholds = st.one_of(
    st.sampled_from([0.5, 0.85, 0.9, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True),
)


def _as_pair(match):
    return None if match is None else (match.canonical.canonical_name, match.similarity)


@given(line=_header_lines, threshold=_header_thresholds)
@example(line="past medical hist", threshold=0.85)
@example(line="past mergical history", threshold=0.85)
@example(line="Othial History:", threshold=0.5)
@example(line="past s history", threshold=0.5)  # a later heading wins by under 0.02
@example(line="x" * (MAX_HEADER_CHARS + 1), threshold=0.5)
def test_match_header_equals_the_oracle(line, threshold):
    assert _as_pair(match_header(line, threshold)) == oracle_match_header(line, threshold)


@given(a=st.text("abc ", max_size=8), b=st.text("abc ", max_size=8))
def test_levenshtein_equals_the_oracle(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_match_header_scores_a_heading_whose_bound_equals_the_threshold():
    # Length gap 3 over 20 bounds the score at exactly 0.85, which it reaches.
    expected = HeaderMatch(SectionHeader("past medical history"), 0.85)
    assert match_header("past medical hist", threshold=0.85) == expected
    assert oracle_match_header("past medical hist", 0.85) == ("past medical history", 0.85)


def test_match_header_tie_goes_to_the_earlier_heading():
    # One edit away from "past medical history" and "past surgical history"
    # over 21 characters; the first comes earlier in CANONICAL_HEADERS.
    line = "past mergical history"
    assert similarity(line, "past medical history") == similarity(line, "past surgical history")
    match = match_header(line, threshold=0.85)
    assert match == HeaderMatch(SectionHeader("past medical history"), 1.0 - 2 / 21)
    assert _as_pair(match) == oracle_match_header(line, 0.85)


_note_lines = st.lists(
    st.tuples(
        st.one_of(_header_lines, st.text(_LINE_CHARS + "".join(_INLINE_BREAKS), max_size=20)),
        st.sampled_from(["\n", "\r\n", "\r", ""]),
    ),
    min_size=1,
    max_size=5,
)


@given(lines=_note_lines)
@example(lines=[("Cough since Monday.\u2028Plan", "\n"), ("rest and fluids", "")])
@example(lines=[("PLAN:", "\r\n"), ("", "\r\n"), ("rest", "\r"), ("ASSESSMENT", "\r"), ("stable", "\n")])
def test_segment_note_equals_the_oracle(lines):
    text = "".join(line + end for line, end in lines)
    if not text.strip():
        return
    sections = segment_note(ClinicalNote("a", text), threshold=0.85)
    assert [
        (s.header.canonical_name, s.start, s.end, s.header_line, s.body) for s in sections
    ] == oracle_segment_note(text, 0.85)
