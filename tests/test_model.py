import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dialogforge.model import (
    CANONICAL_HEADERS,
    AlternationError,
    Checklist,
    ClinicalNote,
    ConceptEntry,
    Dialogue,
    EmptyId,
    EmptyNote,
    EvalReport,
    GenerationConfig,
    ModelError,
    PromptTemplate,
    Provenance,
    SectionHeader,
    SemanticGroup,
    Speaker,
    TEMPLATE_SLOTS,
    UnknownHeader,
    Utterance,
    format_transcript,
    validate,
)
from dialogforge.orchestrator import render_prompt

from conftest import make_dialogue
from oracles import oracle_render, oracle_template_slots


def test_canonical_header_count():
    assert len(CANONICAL_HEADERS) == 21
    assert len(set(CANONICAL_HEADERS)) == 21


def test_validate_ok():
    validate(ClinicalNote(id="n1", text="CHIEF COMPLAINT: cough"))


def test_validate_blank_text():
    with pytest.raises(EmptyNote):
        validate(ClinicalNote(id="n1", text="   "))


def test_validate_blank_id():
    with pytest.raises(EmptyId):
        validate(ClinicalNote(id="", text="x"))


def test_section_header_normalization():
    header = SectionHeader("  Chief   COMPLAINT ")
    assert header.canonical_name == "chief complaint"
    assert not header.is_preamble
    assert SectionHeader("preamble").is_preamble


def test_section_header_rejects_unknown():
    with pytest.raises(UnknownHeader):
        SectionHeader("vital signs")


def test_utterance_validation():
    u = Utterance(Speaker.DOCTOR, "hello", 0)
    assert u.speaker is Speaker.DOCTOR
    with pytest.raises(ModelError):
        Utterance(Speaker.DOCTOR, "", 0)
    with pytest.raises(ModelError):
        Utterance(Speaker.DOCTOR, "hi", -1)


def test_raw_dialogue_requires_alternation():
    make_dialogue("q", "a", "q2", "a2")  # fine
    with pytest.raises(AlternationError):
        Dialogue("d", (Utterance(Speaker.PATIENT, "hi", 0),), Provenance.RAW)
    with pytest.raises(AlternationError):
        Dialogue(
            "d",
            (Utterance(Speaker.DOCTOR, "q", 0), Utterance(Speaker.DOCTOR, "q2", 0)),
            Provenance.RAW,
        )


def test_combined_dialogue_relaxes_alternation():
    turns = (Utterance(Speaker.PATIENT, "hi", 0), Utterance(Speaker.PATIENT, "again", 0))
    d = Dialogue("d", turns, Provenance.COMBINED)
    assert len(d.turns) == 2


def test_format_transcript():
    d = make_dialogue("how are you", "fine")
    assert format_transcript(d.turns) == "Doctor: how are you\nPatient: fine"


def test_concept_entry_normalizes_surface():
    entry = ConceptEntry("  ASPIRIN ", "C0004057", SemanticGroup.DRUG)
    assert entry.surface == "aspirin"
    with pytest.raises(ModelError):
        ConceptEntry("x", "", SemanticGroup.DRUG)


def test_semantic_group_parse_unknown_maps_to_other():
    assert SemanticGroup.parse("Disease") is SemanticGroup.DISEASE
    assert SemanticGroup.parse("finding") is SemanticGroup.OTHER


def _entries(n):
    return [ConceptEntry(f"term{i}", f"C{i:07d}", SemanticGroup.DISEASE) for i in range(n)]


def test_checklist_order_and_uncovered():
    checklist = Checklist(_entries(4))
    assert [e.surface for e in checklist.uncovered()] == ["term0", "term1", "term2", "term3"]
    checklist.mark(2)
    assert [e.surface for e in checklist.uncovered()] == ["term0", "term1", "term3"]
    assert checklist.covered_count() == 1
    assert not checklist.is_complete()


def test_checklist_covered_is_monotone_under_random_marks():
    rng = random.Random(7)
    for _ in range(50):
        checklist = Checklist(_entries(6))
        covered_history = [checklist.covered]
        for _ in range(20):
            checklist.mark(rng.randrange(6))
            covered_history.append(checklist.covered)
        for before, after in zip(covered_history, covered_history[1:]):
            assert all(b <= a for b, a in zip(before, after))
            assert sum(before) <= sum(after)


def test_prompt_template_slot_validation():
    PromptTemplate("doctor", "note {{note}} keys {{keywords}}")
    with pytest.raises(ModelError):
        PromptTemplate("doctor", "bad {{noteid}}")
    with pytest.raises(ModelError):
        PromptTemplate("doctor", "dangling {{ brace")
    with pytest.raises(ModelError):
        PromptTemplate("surgeon", "{{note}}")


def test_prompt_template_referenced_slots():
    template = PromptTemplate("polish", "{{conversation}} and {{note}}")
    assert template.referenced_slots() == frozenset({"conversation", "note"})


_BODY_FRAGMENTS = (
    ["{{", "}}", "{", "}", "{{note}}", "{{history}}", "noteid", "a", "é", " ", "\n", "x-y"]
    + sorted(TEMPLATE_SLOTS)
)


@given(body=st.lists(st.sampled_from(_BODY_FRAGMENTS), max_size=12).map("".join))
@example(body="{{{note}}")
@example(body="{{note")
@example(body="{{}}")
@example(body="{{a}b}}")
@example(body="{{note}}{{")
@example(body="{{ brace")
@example(body="}}{{note}}}")
def test_template_slot_scanner_agrees_with_reference(body):
    expected = oracle_template_slots(body, TEMPLATE_SLOTS)
    if expected is None:
        with pytest.raises(ModelError):
            PromptTemplate("doctor", body)
        return
    template = PromptTemplate("doctor", body)
    assert template.referenced_slots() == expected
    values = {slot: "{" + slot.upper() + "}" for slot in TEMPLATE_SLOTS}
    assert render_prompt(template, values) == oracle_render(body, values)


def test_generation_config_defaults_and_validation():
    cfg = GenerationConfig()
    assert cfg.max_rounds == 15
    assert cfg.keywords_per_turn == 4
    assert cfg.max_context_tokens == 4096
    assert GenerationConfig.for_mode("long").max_rounds == 25
    assert GenerationConfig.for_mode("long", max_rounds=3).max_rounds == 3
    with pytest.raises(ModelError):
        GenerationConfig(keywords_per_turn=0)
    with pytest.raises(ModelError):
        GenerationConfig(mode="medium")
    with pytest.raises(ModelError):
        GenerationConfig(similarity_threshold=0.0)


def test_eval_report_ranges():
    report = EvalReport(1.0, 0.5, 0.5, 0.5, 0.2, 0.1, 1.0, 1.0, 1.0, 12.5)
    assert report.as_dict()["r1"] == 1.0
    with pytest.raises(ModelError):
        EvalReport(1.2, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ModelError):
        EvalReport(0, 0, 0, 0, 0, 0, 0, 0, 0, -1)
