import io
import logging
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dialogforge.concepts import (
    Lexicon,
    MalformedRecord,
    build_checklist,
    extract_concepts,
    filter_semantic_groups,
    load_lexicon,
    mark_covered,
    scan_matches,
    words,
)
from dialogforge.model import Checklist, ConceptEntry, GenerationConfig, SemanticGroup, Speaker, Utterance

from conftest import make_section
from oracles import _window_entry, oracle_concept_matches, oracle_mark_covered


def _load(text):
    return load_lexicon(io.StringIO(text))


def test_load_well_formed_record():
    lexicon = _load("diabetes\tC0011849\tdisease\n")
    entry = lexicon.get("diabetes")
    assert entry == ConceptEntry("diabetes", "C0011849", SemanticGroup.DISEASE)


def test_load_casefolds_surface():
    lexicon = _load("ASPIRIN\tC0004057\tdrug\n")
    assert "aspirin" in lexicon
    assert lexicon.get("aspirin").surface == "aspirin"


def test_load_malformed_record_reports_line():
    with pytest.raises(MalformedRecord) as excinfo:
        _load("bad line with two fields\tonly\n")
    assert excinfo.value.line_no == 1


def test_load_skips_comments_and_blanks():
    lexicon = _load("# comment\n\naspirin\tC0004057\tdrug\n")
    assert len(lexicon) == 1


def test_load_duplicate_surface_keeps_first_and_warns(caplog):
    with caplog.at_level(logging.WARNING):
        lexicon = _load("aspirin\tC0004057\tdrug\naspirin\tC9999999\tdrug\n")
    assert lexicon.get("aspirin").cui == "C0004057"
    assert any("duplicate" in r.message for r in caplog.records)


def test_load_unknown_group_maps_to_other():
    lexicon = _load("fish\tC0016163\tvertebrate\n")
    assert lexicon.get("fish").semantic_group is SemanticGroup.OTHER


def test_punctuated_surface_is_keyed_by_its_tokens():
    lexicon = _load("heart-failure\tC0018801\tdisease\n")
    assert lexicon.get("heart-failure").cui == "C0018801"
    assert lexicon.get("Heart failure").cui == "C0018801"
    assert "heart failure" in lexicon


def test_punctuated_surface_matches_exactly_before_reordered_entry():
    entries = [
        ConceptEntry("failure heart congestive", "C1", SemanticGroup.DISEASE),
        ConceptEntry("congestive heart-failure", "C2", SemanticGroup.DISEASE),
    ]
    lexicon = Lexicon(entries)
    text = "congestive heart failure"
    got = [(m.start, m.end, m.entry) for m in scan_matches(text, lexicon, 0.7)]
    assert got == oracle_concept_matches(text, entries, 0.7)
    assert [entry.cui for _, _, entry in got] == ["C2"]


def test_load_duplicate_token_key_keeps_first_and_warns(caplog):
    with caplog.at_level(logging.WARNING):
        lexicon = _load("heart failure\tC1\tdisease\nheart-failure\tC2\tdisease\n")
    assert len(lexicon) == 1
    assert lexicon.get("heart-failure").cui == "C1"
    assert any("duplicate" in r.message for r in caplog.records)


def test_extract_exact_matches_in_order(lexicon, cfg):
    found = extract_concepts("history of diabetes and hypertension", lexicon, cfg.concept_threshold)
    assert [c.surface for c in found] == ["diabetes", "hypertension"]


def test_extract_longest_match_wins(lexicon, cfg):
    text = "type 2 diabetes mellitus"
    found = extract_concepts(text, lexicon, cfg.concept_threshold)
    assert [c.surface for c in found] == ["diabetes mellitus"]
    # brute force over all window matchings agrees
    oracle = oracle_concept_matches(text, lexicon.entries, cfg.concept_threshold)
    assert [(m.start, m.end, m.entry) for m in scan_matches(text, lexicon, cfg.concept_threshold)] == oracle


def test_extract_empty_text(lexicon, cfg):
    assert extract_concepts("", lexicon, cfg.concept_threshold) == []


def test_extract_dedups_by_cui(lexicon, cfg):
    found = extract_concepts("aspirin then aspirin then aspirin", lexicon, cfg.concept_threshold)
    assert [c.surface for c in found] == ["aspirin"]


def test_extract_jaccard_reordered_tokens(lexicon, cfg):
    # token-set similarity 1.0 despite reordering
    found = extract_concepts("failure heart congestive noted", lexicon, cfg.concept_threshold)
    assert found and found[0].cui == "C0018802"


def test_extract_dedup_idempotence_on_doubled_text(lexicon, cfg):
    rng = random.Random(11)
    vocabulary = [e.surface for e in lexicon.entries]
    fillers = ["the", "patient", "notes", "some", "mild", "issues", "today"]
    for _ in range(25):
        parts = rng.sample(vocabulary, rng.randint(1, 4)) + rng.sample(fillers, 3)
        rng.shuffle(parts)
        text = " ".join(parts)
        once = {c.cui for c in extract_concepts(text, lexicon, cfg.concept_threshold)}
        doubled = {c.cui for c in extract_concepts(text + " " + text, lexicon, cfg.concept_threshold)}
        assert once == doubled


def test_scan_matches_spans_never_overlap(lexicon, cfg):
    rng = random.Random(13)
    vocabulary = [e.surface for e in lexicon.entries]
    fillers = ["when", "resting", "at", "home", "for", "two", "weeks"]
    for _ in range(40):
        parts = rng.sample(vocabulary, rng.randint(1, 5)) + rng.sample(fillers, rng.randint(0, 4))
        rng.shuffle(parts)
        text = " ".join(parts)
        matches = scan_matches(text, lexicon, cfg.concept_threshold)
        for left, right in zip(matches, matches[1:]):
            assert left.end <= right.start
        token_count = len(words(text))
        for match in matches:
            assert 0 <= match.start < match.end <= token_count


def test_filter_keeps_reportable_groups_only(lexicon, cfg):
    found = extract_concepts("takes aspirin, avoids fish", lexicon, cfg.concept_threshold)
    filtered = filter_semantic_groups(found)
    assert [c.surface for c in filtered] == ["aspirin"]


def test_filter_empty_and_all_other():
    assert filter_semantic_groups([]) == []
    other_only = [ConceptEntry("fish", "C1", SemanticGroup.OTHER)]
    assert filter_semantic_groups(other_only) == []


def test_filter_is_idempotent(lexicon, cfg):
    found = extract_concepts("aspirin fish pacemaker dialysis cough", lexicon, cfg.concept_threshold)
    once = filter_semantic_groups(found)
    assert filter_semantic_groups(once) == once


def test_build_checklist_document_order(lexicon, cfg):
    section = make_section("takes aspirin for hypertension")
    checklist = build_checklist(section, lexicon, cfg)
    assert [e.surface for e in checklist.entries] == ["aspirin", "hypertension"]
    assert checklist.covered == (False, False)
    # independent presence check: every checklist surface occurs in the body
    for entry in checklist.entries:
        assert entry.surface in section.body


def test_build_checklist_no_hits(lexicon, cfg):
    checklist = build_checklist(make_section("nothing relevant here"), lexicon, cfg)
    assert len(checklist) == 0


def test_build_checklist_dedups_repeats(lexicon, cfg):
    checklist = build_checklist(make_section("aspirin aspirin aspirin"), lexicon, cfg)
    assert [e.surface for e in checklist.entries] == ["aspirin"]


def _utterances(*texts):
    return [Utterance(Speaker.DOCTOR, t, 0) for t in texts]


def test_mark_covered_flips_mentioned_entry(lexicon, cfg):
    checklist = build_checklist(make_section("diabetes and hypertension"), lexicon, cfg)
    flips = mark_covered(checklist, _utterances("Tell me about your diabetes."), lexicon, cfg)
    assert flips == 1
    assert [e.surface for e in checklist.uncovered()] == ["hypertension"]


def test_mark_covered_empty_utterances(lexicon, cfg):
    checklist = build_checklist(make_section("diabetes"), lexicon, cfg)
    assert mark_covered(checklist, [], lexicon, cfg) == 0


def test_mark_covered_credits_synonym_cui(lexicon, cfg):
    checklist = build_checklist(make_section("longstanding hypertension"), lexicon, cfg)
    flips = mark_covered(
        checklist, _utterances("My high blood pressure acts up sometimes."), lexicon, cfg
    )
    assert flips == 1
    assert checklist.is_complete()


def test_mark_covered_requires_word_boundary(lexicon, cfg):
    checklist = build_checklist(make_section("gerd symptoms"), lexicon, cfg)
    mark_covered(checklist, _utterances("the gerdish feeling persists"), lexicon, cfg)
    assert not checklist.is_complete()
    mark_covered(checklist, _utterances("yes, gerd."), lexicon, cfg)
    assert checklist.is_complete()


def test_mark_covered_total_is_non_decreasing(lexicon, cfg):
    rng = random.Random(5)
    vocabulary = [e.surface for e in lexicon.entries if e.semantic_group is not SemanticGroup.OTHER]
    for _ in range(20):
        body = " and ".join(rng.sample(vocabulary, 5))
        checklist = build_checklist(make_section(body), lexicon, cfg)
        last = checklist.covered_count()
        for _ in range(6):
            mention = rng.choice(vocabulary + ["unrelated chatter"])
            mark_covered(checklist, _utterances(f"let us discuss {mention} now"), lexicon, cfg)
            current = checklist.covered_count()
            assert current >= last
            last = current


# Property tests: the indexed matcher against the brute-force linear scan of
# tests/oracles.py. ASCII tokens only, because the oracle tokenizes [a-z0-9]+.
# A small vocabulary makes shared, repeated and reordered tokens common.
_VOCAB = ["a", "b", "c", "d", "ab", "7"]
_SEPARATORS = [" ", "  ", "-", ", ", "_", "/", ". "]

_tokens = st.sampled_from(_VOCAB + ["B", "Cd"])
_window_tokens = st.lists(st.sampled_from(_VOCAB + ["zz"]), max_size=5)
_thresholds = st.one_of(
    st.sampled_from([0.25, 1 / 3, 0.5, 0.6, 2 / 3, 0.7, 0.75, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@st.composite
def _joined(draw, min_size, max_size):
    parts = draw(st.lists(_tokens, min_size=min_size, max_size=max_size))
    text = parts[0] if parts else ""
    for part in parts[1:]:
        text += draw(st.sampled_from(_SEPARATORS)) + part
    return text


@st.composite
def _entries(draw):
    surfaces = draw(st.lists(_joined(1, 4), min_size=1, max_size=8))
    return [
        ConceptEntry(
            surface,
            draw(st.sampled_from(["C1", "C2", "C3", "C4"])),
            draw(st.sampled_from(list(SemanticGroup))),
        )
        for surface in surfaces
    ]


def _entry(surface, cui="C1"):
    return ConceptEntry(surface, cui, SemanticGroup.DISEASE)


@given(entries=_entries(), window=_window_tokens, threshold=_thresholds)
@example(entries=[_entry("a a b")], window=["a", "b"], threshold=1.0)
@example(entries=[_entry("a b", "C1"), _entry("a"), _entry("b, a", "C2")], window=["a", "a"], threshold=0.5)
@example(entries=[_entry("b c a"), _entry("a-b", "C2")], window=["a", "b"], threshold=0.7)
@example(entries=[_entry("a")], window=[], threshold=0.5)
def test_match_window_agrees_with_linear_scan(entries, window, threshold):
    lexicon = Lexicon(entries)
    assert lexicon.match_window(window, threshold) is _window_entry(window, entries, threshold)


@given(entries=_entries(), text=_joined(0, 8), threshold=_thresholds)
@example(entries=[_entry("a b")], text="", threshold=0.7)
@example(entries=[_entry("a a b"), _entry("b-a", "C2")], text="c a b a a b", threshold=0.6)
@example(entries=[_entry("c b a"), _entry("a-b-c", "C2")], text="A. B, c", threshold=1.0)
def test_scan_matches_agrees_with_oracle(entries, text, threshold):
    lexicon = Lexicon(entries)
    got = [(m.start, m.end, m.entry) for m in scan_matches(text, lexicon, threshold)]
    assert got == oracle_concept_matches(text, entries, threshold)


def _flagged_checklist(entries, flags):
    checklist = Checklist(entries)
    for index, flag in enumerate(flags[: len(entries)]):
        if flag:
            checklist.mark(index)
    return checklist


# Checklist entries mix lexicon rows with rows the lexicon lacks; CUIs come
# from four values, so an entry is often a synonym of a tagged row.
@given(
    lexicon_entries=_entries(),
    extra=_entries(),
    flags=st.lists(st.booleans(), max_size=12),
    texts=st.lists(_joined(1, 8), max_size=3),
    threshold=_thresholds,
)
@example(lexicon_entries=[_entry("c")], extra=[_entry("a b")], flags=[], texts=["c"], threshold=0.7)
@example(
    lexicon_entries=[_entry("a b"), _entry("b c", "C2")], extra=[_entry("b c", "C2")],
    flags=[], texts=["a b c"], threshold=1.0,
)
@example(lexicon_entries=[_entry("a")], extra=[_entry("a")], flags=[True], texts=["a"], threshold=0.5)
@example(
    lexicon_entries=[_entry("c")], extra=[_entry("a"), _entry("b 7", "C2")],
    flags=[], texts=["ab b7"], threshold=0.5,
)
@example(lexicon_entries=[_entry("a")], extra=[_entry("a")], flags=[], texts=[], threshold=0.5)
def test_mark_covered_agrees_with_always_tagging_oracle(lexicon_entries, extra, flags, texts, threshold):
    lexicon = Lexicon(lexicon_entries)
    cfg = GenerationConfig(concept_threshold=threshold)
    entries = extra + lexicon_entries[::2]
    utterances = _utterances(*texts)
    got = _flagged_checklist(entries, flags)
    expected = _flagged_checklist(entries, flags)
    flips = mark_covered(got, utterances, lexicon, cfg)
    assert flips == oracle_mark_covered(expected, utterances, lexicon, cfg)
    assert got.covered == expected.covered
