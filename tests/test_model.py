import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dialogforge.model import (
    CANONICAL_HEADERS,
    PREAMBLE,
    Checklist,
    ClinicalNote,
    ConceptEntry,
    Dialogue,
    EvalReport,
    GenerationConfig,
    ModelError,
    PromptTemplate,
    SectionHeader,
    SemanticGroup,
    STAGE_SLOTS,
    Speaker,
    TEMPLATE_SLOTS,
    Utterance,
    format_transcript,
    _squash,
    echoes,
    is_canonical,
    parse_transcript,
    words,
)
from dialogforge.orchestrator import UnboundSlot, render_prompt

from conftest import make_dialogue, transcript_texts, turn_lists
from oracles import oracle_render, oracle_template_slots


def test_canonical_header_count():
    assert len(CANONICAL_HEADERS) == 21
    assert len(set(CANONICAL_HEADERS)) == 21


def test_validate_ok():
    ClinicalNote(id="n1", text="CHIEF COMPLAINT: cough")


def test_validate_blank_text():
    with pytest.raises(ModelError, match="note 'n1' has no text"):
        ClinicalNote(id="n1", text="   ")


def test_validate_blank_id():
    with pytest.raises(ModelError, match="note id is blank"):
        ClinicalNote(id="", text="x")


def test_section_header_normalization():
    header = SectionHeader("  Chief   COMPLAINT ")
    assert header.canonical_name == "chief complaint"
    assert header.canonical_name != PREAMBLE
    assert SectionHeader("preamble").canonical_name == PREAMBLE


def test_section_header_rejects_unknown():
    with pytest.raises(ModelError, match="not a canonical section header: 'vital signs'"):
        SectionHeader("vital signs")


def test_utterance_validation():
    u = Utterance(Speaker.DOCTOR, "hello")
    assert u.speaker is Speaker.DOCTOR
    with pytest.raises(ModelError):
        Utterance(Speaker.DOCTOR, "")


def test_utterance_speaker_from_its_value():
    assert Utterance("patient", "hi").speaker is Speaker.PATIENT
    with pytest.raises(ValueError) as raised:
        Utterance("nurse", "hi")
    assert str(raised.value) == "'nurse' is not a valid Speaker"


def test_combined_dialogue_relaxes_alternation():
    turns = (Utterance(Speaker.PATIENT, "hi"), Utterance(Speaker.PATIENT, "again"))
    d = Dialogue("d", turns)
    assert len(d.turns) == 2


def test_format_transcript():
    d = make_dialogue("how are you", "fine")
    assert format_transcript(d.turns) == "Doctor: how are you\nPatient: fine"


def test_concept_entry_normalizes_surface():
    entry = ConceptEntry("  ASPIRIN ", "C0004057", SemanticGroup.DRUG)
    assert entry.surface == "aspirin"
    with pytest.raises(ModelError):
        ConceptEntry("x", "", SemanticGroup.DRUG)


def test_concept_entry_key_is_its_word_tokens():
    entry = ConceptEntry("Heart-Failure", "C1")
    assert entry.key == "heart failure"
    with pytest.raises(ModelError, match="no word tokens"):
        ConceptEntry("---", "C1")


# The key is the word regex's tokens of the squashed surface; a surface of
# str.isalnum() runs skips the regex, which these examples probe.
@given(surface=st.text())
@example(surface="_")
@example(surface="a_b  C")
@example(surface="İstanbul")
@example(surface="x² ³")
@example(surface="cafe\u0301 au lait")
def test_concept_entry_key_is_the_word_tokens_of_its_squashed_surface(surface):
    key = " ".join(words(_squash(surface)))
    if not key:
        with pytest.raises(ModelError, match="no word tokens"):
            ConceptEntry(surface, "C1")
        return
    entry = ConceptEntry(surface, "C1")
    assert (entry.surface, entry.key) == (_squash(surface), key)


def test_concept_entry_group_from_a_label():
    assert ConceptEntry("aspirin", "C1", "drug").semantic_group is SemanticGroup.DRUG
    assert ConceptEntry("aspirin", "C1", SemanticGroup.DRUG).semantic_group is SemanticGroup.DRUG


def test_concept_entry_key_takes_no_part_in_equality_hash_or_repr():
    entry = ConceptEntry("heart-failure", "C1", SemanticGroup.DISEASE)
    twin = ConceptEntry("heart-failure", "C1", SemanticGroup.DISEASE)
    object.__setattr__(twin, "key", "something else")
    assert entry == twin and hash(entry) == hash(twin)
    assert repr(entry) == (
        "ConceptEntry(surface='heart-failure', cui='C1', semantic_group=<SemanticGroup.DISEASE: 'disease'>)"
    )
    assert ConceptEntry("heart-failure", "C1") != ConceptEntry("heart failure", "C1")


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
    assert checklist.uncovered()


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
    # A slot some other stage binds fails when the template is built, not rendered.
    with pytest.raises(ModelError, match=r"^the polish stage does not bind \{\{history\}\}$"):
        PromptTemplate("polish", "{{history}}")


def test_prompt_template_referenced_slots():
    template = PromptTemplate("polish", "{{conversation}} and {{note}}")
    assert template.referenced_slots() == frozenset({"conversation", "note"})


_BODY_FRAGMENTS = (
    ["{{", "}}", "{", "}", "{{note}}", "{{history}}", "noteid", "a", "é", " ", "\n", "x-y"]
    + sorted(TEMPLATE_SLOTS)
)


# Slot values that look like placeholders or regex replacement escapes: a
# render copies them as they are and does not scan them again.
_VALUE_FRAGMENTS = ["{{note}}", "{{", "}}", "{", "\\", "\\1", "\\g<0>", "\\n", "a", "é", "\n"]
_slot_values = st.dictionaries(
    st.sampled_from(sorted(TEMPLATE_SLOTS)), st.lists(st.sampled_from(_VALUE_FRAGMENTS), max_size=4).map("".join)
)


def _assert_renders_as_oracle(template, body, values):
    """``render_prompt`` gives the oracle's text, or, where the oracle finds a
    slot with no value, raises UnboundSlot naming that first one in body order."""
    try:
        expected = oracle_render(body, values)
    except KeyError as missing:
        with pytest.raises(UnboundSlot) as unbound:
            render_prompt(template, values)
        assert unbound.value.slot == missing.args[0]
        return
    assert render_prompt(template, values) == expected


@given(body=st.lists(st.sampled_from(_BODY_FRAGMENTS), max_size=12).map("".join), values=_slot_values)
@example(body="{{{note}}", values={})
@example(body="{{note", values={})
@example(body="{{}}", values={})
@example(body="{{a}b}}", values={})
@example(body="{{note}}{{", values={})
@example(body="{{ brace", values={})
@example(body="}}{{note}}}", values={})
# Adjacent placeholders, one first and one last, values holding placeholders
# and backslashes.
@example(body="{{note}}{{keywords}}", values={"note": "{{keywords}}", "keywords": "\\1\\g<0>\\"})
@example(body="{{note}}", values={"note": "}}{{note}}{{"})
# A repeated slot.
@example(body="a{{history}}b{{history}}", values={"history": "{{note}}\\"})
# The first unbound slot in body order is not the first unbound one sorted.
@example(body="{{note}} {{conversation}} {{note}}", values={})
@example(body="{{keywords}}{{note}}{{conversation}}", values={"keywords": "k"})
def test_template_slot_scanner_agrees_with_reference(body, values):
    for stage, slots in STAGE_SLOTS.items():
        expected = oracle_template_slots(body, slots)
        if expected is None:
            with pytest.raises(ModelError):
                PromptTemplate(stage, body)
            continue
        template = PromptTemplate(stage, body)
        assert template.referenced_slots() == expected
        bound = {slot: values.get(slot, "{" + slot.upper() + "}") for slot in slots}
        _assert_renders_as_oracle(template, body, bound)
        _assert_renders_as_oracle(template, body, values)


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


def test_generation_config_request_settings_bounds():
    # Zero is in range; tests/test_cli.py checks that each value just past
    # a bound ends the command before any note runs.
    cfg = GenerationConfig(temperature=0.0, max_retries=0, retry_base_delay=0.0, max_reply_tokens=1)
    assert (cfg.temperature, cfg.max_retries, cfg.retry_base_delay) == (0.0, 0, 0.0)
    for setting in ({"max_reply_tokens": 0}, {"temperature": -0.1}, {"max_retries": -1}, {"retry_base_delay": -0.5}):
        with pytest.raises(ModelError):
            GenerationConfig(**setting)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["temperature", "retry_base_delay"])
def test_generation_config_rejects_non_finite_request_settings(name, value):
    # NaN compares False with everything, so a plain ``< 0`` check let it in.
    with pytest.raises(ModelError, match=f"{name} must be finite and >= 0"):
        GenerationConfig(**{name: value})


def test_utterance_rejects_non_string_text():
    with pytest.raises(ModelError):
        Utterance(Speaker.DOCTOR, 5)
    with pytest.raises(ModelError):
        Utterance(Speaker.DOCTOR, ["hi"])


def test_eval_report_ranges():
    report = EvalReport(1.0, 0.5, 0.5, 0.5, 0.2, 0.1, 1.0, 1.0, 12.5)
    assert report.as_dict()["r1"] == 1.0
    with pytest.raises(ModelError):
        EvalReport(1.2, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ModelError):
        EvalReport(0, 0, 0, 0, 0, 0, 0, 0, -1)


@pytest.mark.parametrize(
    "precision, recall, f1",
    [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 1.0, 2 / 3), (0.25, 0.75, 0.375)],
)
def test_eval_report_computes_concept_f1(precision, recall, f1):
    report = EvalReport(0, 0, 0, 0, 0, 0, recall, precision, 3)
    assert report.concept_f1 == pytest.approx(f1)
    assert list(report.as_dict()) == [
        "r1", "r2", "rl", "rlsum", "bleu", "sbleu", "concept_recall", "concept_precision", "concept_f1", "len",
    ]
    with pytest.raises(TypeError):
        EvalReport(0, 0, 0, 0, 0, 0, recall, precision, concept_f1=f1, len=3)


# --- transcript codec: line ends ---------------------------------------------

# Characters str.splitlines() breaks at that are not line ends of the codec.
_INLINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", _INLINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in _INLINE_BREAKS])
def test_transcript_round_trip_keeps_an_inline_break(char):
    turns = [Utterance(Speaker.DOCTOR, f"any{char}cough?"), Utterance(Speaker.PATIENT, f"at{char}night")]
    transcript = format_transcript(turns)
    assert parse_transcript(transcript) == turns


def test_parse_transcript_reads_crlf_and_cr_line_ends():
    reply = "Doctor: Any cough?\r\nat night\r\n\r\nPatient: Yes.\rDoctor: Fever?\r\n"
    assert [(t.speaker, t.text) for t in parse_transcript(reply)] == [
        (Speaker.DOCTOR, "Any cough?\nat night"),
        (Speaker.PATIENT, "Yes."),
        (Speaker.DOCTOR, "Fever?"),
    ]


# --- transcript codec: the canonical form ------------------------------------


def _plain(text):
    """A turn text that ``format_transcript`` writes on one line, which reads
    back unchanged: no line end, no whitespace, ``*`` or ``_`` at its start
    and no whitespace at its end."""
    return not ("\n" in text or "\r" in text or text[0].isspace() or text[0] in "*_" or text[-1].isspace())


@given(text=transcript_texts())
@example(text="Doctor: hi\nPatient: there")
@example(text="Doctor: a\u2028b\nPatient: *yes*")
@example(text="Doctor: a \nPatient: b")
@example(text="**Doctor:** a\nPatient: b")
@example(text="Doctor: a\r\nPatient: b")
@example(text="Doctor: a\n\nPatient: b")
@example(text="doctor: a")
def test_a_canonical_text_reads_back_as_itself(text):
    if is_canonical(text):
        assert format_transcript(parse_transcript(text)) == text


@given(turns=turn_lists(), other=transcript_texts(), rendered=st.booleans())
@example(turns=[Utterance(Speaker.DOCTOR, "hi\nPatient: there")], other="", rendered=True)
@example(turns=[Utterance(Speaker.DOCTOR, "hi"), Utterance(Speaker.PATIENT, "there")], other="", rendered=True)
@example(turns=[Utterance(Speaker.DOCTOR, "hi ")], other="Doctor: hi", rendered=False)
def test_echoes_accepts_only_a_reply_that_reads_back_as_its_turns(turns, other, rendered):
    transcript = format_transcript(turns)
    reply = transcript if rendered else other
    if echoes(reply, transcript, len(turns)):
        assert parse_transcript(reply) == turns
    if rendered:
        # Not too strict either: every rendering of one-line plain texts passes.
        assert echoes(reply, transcript, len(turns)) == all(_plain(t.text) for t in turns)


def test_a_turn_holding_a_tagged_line_is_canonical_but_no_echo():
    turns = [Utterance(Speaker.DOCTOR, "hi\nPatient: there")]
    reply = format_transcript(turns)
    assert is_canonical(reply)
    assert len(parse_transcript(reply)) == 2
    assert not echoes(reply, reply, len(turns))


@pytest.mark.parametrize("text", ["", "Doctor:", "Doctor: ", "Doctor:  a", "Doctor: _a", "Doctor: a\t",
                                  "Doctor: a\u2028", "Doctor: a\n", "Doctor: a\rPatient: b", "Nurse: a"])
def test_is_canonical_refuses_what_format_transcript_does_not_write_back(text):
    assert not is_canonical(text)
