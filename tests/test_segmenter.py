import pytest

from dialogforge.model import PREAMBLE, ClinicalNote, ModelError
from dialogforge.segmenter import (
    levenshtein,
    match_header,
    normalize_header,
    segment_note,
    similarity,
)


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
