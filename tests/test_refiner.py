import logging
import random
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialogforge.backend import ChatMessage, ChatRequest, MockBackend
from dialogforge.concepts import build_checklist
from dialogforge.model import (
    Checklist,
    ClinicalNote,
    Dialogue,
    GenerationConfig,
    Provenance,
    Speaker,
    format_transcript,
)
from dialogforge.orchestrator import run_section_loop
from dialogforge.segmenter import segment_note
from dialogforge.refiner import (
    Unparseable,
    hallucination_check,
    parse_transcript,
    polish,
    postedit_combine,
    run_full_pipeline,
)

from conftest import make_dialogue, make_section
from oracles import oracle_mark_covered


class Recorder:
    """Wraps a backend and keeps every prompt it was sent, and the count of
    requests per stage."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []
        self.stages = Counter()

    def complete(self, request):
        self.prompts.append(request.messages[-1].content)
        self.stages[request.stage] += 1
        return self.inner.complete(request)


def loop_dialogue(lexicon, cfg, body, backend=None):
    section = make_section(body)
    dialogue = run_section_loop(section, lexicon, backend or MockBackend(), cfg, note_id="n")
    return section, dialogue.meta["checklist"], dialogue


# ---------------------------------------------------------------------------
# parse_transcript
# ---------------------------------------------------------------------------


def test_parse_two_turns():
    turns = parse_transcript("Doctor: hi\nPatient: hello")
    assert [(t.speaker, t.text) for t in turns] == [
        (Speaker.DOCTOR, "hi"),
        (Speaker.PATIENT, "hello"),
    ]


def test_parse_markdown_wrapped_tag():
    turns = parse_transcript("**Doctor:** hi")
    assert len(turns) == 1
    assert turns[0].speaker is Speaker.DOCTOR
    assert turns[0].text == "hi"


def test_parse_no_tags_is_unparseable():
    with pytest.raises(Unparseable):
        parse_transcript("no tags at all")


def test_parse_continuation_and_stage_directions():
    text = "Doctor: first line\nsecond line\n(checks chart)\nPatient: ok"
    turns = parse_transcript(text)
    assert turns[0].text == "first line\nsecond line\n(checks chart)"
    assert turns[1].text == "ok"


def test_parse_format_round_trip_on_random_dialogues():
    rng = random.Random(17)
    vocabulary = ["okay", "sure", "tell me more", "it hurts", "since tuesday", "no fever", "it hurts\nat night"]
    echo = MockBackend()
    for _ in range(25):
        texts = [rng.choice(vocabulary) for _ in range(rng.randrange(2, 9))]
        dialogue = make_dialogue(*texts)
        transcript = format_transcript(dialogue.turns)
        assert tuple(parse_transcript(transcript)) == dialogue.turns
        # The short-style mock echoes a conversation slot through the same codec.
        request = ChatRequest((ChatMessage("user", "-"),), stage="polish", slots={"conversation": transcript})
        assert echo.complete(request) == transcript


# ---------------------------------------------------------------------------
# polish / hallucination_check
# ---------------------------------------------------------------------------


def test_polish_identity_pass(lexicon, cfg):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "aspirin and asthma daily")
    polished = polish(dialogue, section.body, checklist, lexicon, MockBackend(), cfg)
    assert polished.turns == dialogue.turns
    assert polished.provenance is Provenance.POLISHED


def test_polish_regression_falls_back_to_input(lexicon, cfg, caplog):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "aspirin and asthma daily")
    assert not checklist.uncovered()
    dropping = MockBackend(script=["Doctor: Tell me about asthma.\nPatient: Sure."])
    with caplog.at_level(logging.WARNING):
        result = polish(dialogue, section.body, checklist, lexicon, dropping, cfg)
    assert result is dialogue
    assert result.provenance is Provenance.RAW
    assert any("dropped keywords" in r.message for r in caplog.records)


def test_polish_accepts_rewrite_that_keeps_keywords(lexicon, cfg):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "aspirin and asthma daily")
    reply = (
        "Doctor: Let's go over your asthma first.\n"
        "Patient: My asthma is fine, and I still take aspirin."
    )
    backend = MockBackend(script=[reply])
    result = polish(dialogue, section.body, checklist, lexicon, backend, cfg)
    assert result.provenance is Provenance.POLISHED
    assert [t.text for t in result.turns] == [
        "Let's go over your asthma first.",
        "My asthma is fine, and I still take aspirin.",
    ]


def test_polish_requires_non_empty_dialogue(lexicon, cfg):
    empty = Dialogue("n", (), Provenance.RAW)
    with pytest.raises(ValueError):
        polish(empty, "body", build_checklist(make_section("x"), lexicon, cfg), lexicon, MockBackend(), cfg)


def test_hallucination_identity(lexicon, cfg):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "metformin for diabetes")
    checked = hallucination_check(dialogue, section.body, checklist, lexicon, MockBackend(), cfg)
    assert checked.turns == dialogue.turns
    assert checked.provenance is Provenance.CHECKED


def test_hallucination_unparseable_reply_keeps_input(lexicon, cfg, caplog):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "metformin for diabetes")
    garbage = MockBackend(script=["nothing that looks like dialogue"])
    with caplog.at_level(logging.WARNING):
        result = hallucination_check(dialogue, section.body, checklist, lexicon, garbage, cfg)
    assert result is dialogue
    assert any("unparseable" in r.message for r in caplog.records)


def test_hallucination_accepts_removal_keeping_keywords(lexicon, cfg):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "metformin for diabetes")
    reply = "Doctor: You take metformin for diabetes, correct?\nPatient: Yes."
    backend = MockBackend(script=[reply])
    result = hallucination_check(dialogue, section.body, checklist, lexicon, backend, cfg)
    assert result.provenance is Provenance.CHECKED
    assert len(result.turns) == 2


# ---------------------------------------------------------------------------
# postedit_combine
# ---------------------------------------------------------------------------


def test_combine_identity_on_empty_left(lexicon, cfg):
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    empty = Dialogue("n", (), Provenance.RAW)
    right = make_dialogue("q", "a", note_id="n")
    assert postedit_combine(empty, right, "body", checklist, lexicon, MockBackend(), cfg) is right


def test_combine_concatenation_mock(lexicon, cfg):
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    left = make_dialogue("q1", "a1", note_id="n")
    right = make_dialogue("q2", "a2", note_id="n")
    combined = postedit_combine(left, right, "body", checklist, lexicon, MockBackend(), cfg)
    assert [t.text for t in combined.turns] == ["q1", "a1", "q2", "a2"]
    assert combined.provenance is Provenance.COMBINED


def test_combine_parse_failure_falls_back_to_concatenation(lexicon, cfg, caplog):
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    left = make_dialogue("q1", "a1", note_id="n")
    right = make_dialogue("q2", "a2", note_id="n")
    backend = MockBackend(script=["not a transcript"])
    with caplog.at_level(logging.WARNING):
        combined = postedit_combine(left, right, "body", checklist, lexicon, backend, cfg)
    assert [t.text for t in combined.turns] == ["q1", "a1", "q2", "a2"]
    assert any("concatenating" in r.message for r in caplog.records)


def covered_checklist(lexicon, cfg, body):
    checklist = build_checklist(make_section(body), lexicon, cfg)
    for index in range(len(checklist)):
        checklist.mark(index)
    return checklist


def test_combine_dropped_keyword_falls_back_to_concatenation(lexicon, cfg, caplog):
    checklist = covered_checklist(lexicon, cfg, "aspirin and asthma")
    left = make_dialogue("Do you take aspirin?", "Yes, aspirin daily.", note_id="n")
    right = make_dialogue("Any asthma?", "My asthma is mild.", note_id="n")
    dropping = MockBackend(script=["Doctor: Any asthma?\nPatient: My asthma is mild."])
    with caplog.at_level(logging.WARNING):
        combined = postedit_combine(left, right, "body", checklist, lexicon, dropping, cfg)
    assert combined.turns == left.turns + right.turns
    assert combined.provenance is Provenance.COMBINED
    assert any("dropped keywords" in r.message and "concatenating" in r.message for r in caplog.records)


def test_combine_accepts_merge_that_keeps_keywords(lexicon, cfg):
    checklist = covered_checklist(lexicon, cfg, "aspirin and asthma")
    left = make_dialogue("Do you take aspirin?", "Yes, aspirin daily.", note_id="n")
    right = make_dialogue("Any asthma?", "My asthma is mild.", note_id="n")
    reply = "Doctor: Do you take aspirin, and is there asthma?\nPatient: Aspirin daily; mild asthma."
    combined = postedit_combine(left, right, "body", checklist, lexicon, MockBackend(script=[reply]), cfg)
    assert [t.text for t in combined.turns] == [
        "Do you take aspirin, and is there asthma?",
        "Aspirin daily; mild asthma.",
    ]
    assert combined.meta["tail_turns"] == 2


def test_combine_long_mode_dropped_tail_keyword_keeps_head(lexicon, caplog):
    cfg = GenerationConfig.for_mode("long")
    checklist = covered_checklist(lexicon, cfg, "aspirin and asthma")
    left = make_dialogue("Do you take aspirin?", "Yes, daily.", "Any asthma?", "Mild asthma.", note_id="n")
    left.meta["tail_turns"] = 2
    right = make_dialogue("Any cough?", "No cough.", note_id="n")
    # The head still says aspirin; the reply loses the tail's asthma.
    reply = "Doctor: Any breathing trouble?\nPatient: Mild.\nDoctor: Any cough?\nPatient: No cough."
    backend = Recorder(MockBackend(script=[reply]))
    with caplog.at_level(logging.WARNING):
        combined = postedit_combine(left, right, "body", checklist, lexicon, backend, cfg)
    assert "Do you take aspirin?" not in backend.prompts[0]
    assert combined.turns == left.turns + right.turns
    assert combined.turns[:2] == left.turns[:2]
    assert combined.meta["tail_turns"] == 2
    assert any("dropped keywords ['asthma']" in r.message for r in caplog.records)


def test_combine_long_mode_guard_counts_the_head(lexicon):
    cfg = GenerationConfig.for_mode("long")
    checklist = covered_checklist(lexicon, cfg, "aspirin and asthma")
    left = make_dialogue("Do you take aspirin?", "Yes, daily.", "Any asthma?", "Mild asthma.", note_id="n")
    left.meta["tail_turns"] = 2
    right = make_dialogue("Any cough?", "No cough.", note_id="n")
    # Aspirin is said only in the unbound head, which the merge keeps.
    reply = "Doctor: Any asthma or cough?\nPatient: Mild asthma, no cough."
    combined = postedit_combine(left, right, "body", checklist, lexicon, MockBackend(script=[reply]), cfg)
    assert combined.turns[:2] == left.turns[:2]
    assert [t.text for t in combined.turns[2:]] == ["Any asthma or cough?", "Mild asthma, no cough."]
    assert combined.meta["tail_turns"] == 2


def test_combine_long_mode_binds_only_tail(lexicon):
    cfg = GenerationConfig.for_mode("long")
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    left = make_dialogue("old question", "old answer", "recent question", "recent answer", note_id="n")
    left.meta["tail_turns"] = 2
    right = make_dialogue("new question", "new answer", note_id="n")
    backend = Recorder(MockBackend())
    combined = postedit_combine(left, right, "body", checklist, lexicon, backend, cfg)
    prompt = backend.prompts[0]
    assert "recent question" in prompt
    assert "old question" not in prompt
    assert [t.text for t in combined.turns] == [
        "old question",
        "old answer",
        "recent question",
        "recent answer",
        "new question",
        "new answer",
    ]
    assert combined.meta["tail_turns"] == 2


def test_combine_short_mode_binds_everything(lexicon):
    cfg = GenerationConfig.for_mode("short")
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    left = make_dialogue("old question", "old answer", "recent question", "recent answer", note_id="n")
    left.meta["tail_turns"] = 2
    right = make_dialogue("new question", "new answer", note_id="n")
    backend = Recorder(MockBackend())
    combined = postedit_combine(left, right, "body", checklist, lexicon, backend, cfg)
    assert "old question" in backend.prompts[0]
    assert len(combined.turns) == 6


# ---------------------------------------------------------------------------
# run_full_pipeline
# ---------------------------------------------------------------------------


def test_pipeline_two_sections_full_coverage(lexicon, cfg, fixture_notes):
    note = fixture_notes[0]  # two productive sections
    backend = MockBackend()
    dialogue = run_full_pipeline(note, lexicon, backend, cfg)
    assert dialogue.provenance is Provenance.COMBINED
    coverage = dialogue.meta["coverage"]
    assert coverage["total"] > 0
    assert coverage["covered"] == coverage["total"]
    text = format_transcript(dialogue.turns).lower()
    for surface in dialogue.meta["keywords"]:
        assert surface in text


def test_pipeline_no_hits_returns_empty_without_calls(lexicon, cfg):
    note = ClinicalNote("p", "just a short narrative with no relevant terms")
    backend = MockBackend()
    dialogue = run_full_pipeline(note, lexicon, backend, cfg)
    assert dialogue.turns == ()
    assert backend.calls == 0
    assert dialogue.meta["coverage"] == {"covered": 0, "total": 0}


def test_pipeline_meta_describes_the_note_not_its_first_section(lexicon):
    note = ClinicalNote(
        "p",
        "CHIEF COMPLAINT:\nasthma today.\nMEDICATIONS:\naspirin daily. lisinopril daily. "
        "metformin daily. atorvastatin daily. albuterol daily. warfarin daily.\n",
    )
    cfg = GenerationConfig(max_rounds=1)
    dialogue = run_full_pipeline(note, lexicon, MockBackend(), cfg)
    keys = {"coverage", "keywords", "uncovered", "checklist"}
    assert set(dialogue.meta) == keys
    assert dialogue.meta["coverage"] == {"covered": 5, "total": 7}
    checklist = dialogue.meta["checklist"]
    assert dialogue.meta["uncovered"] == [e.surface for e in checklist.uncovered()]
    assert len(dialogue.meta["uncovered"]) == 2

    empty = run_full_pipeline(ClinicalNote("q", "no relevant terms"), lexicon, MockBackend(), cfg)
    assert set(empty.meta) == keys
    assert empty.meta["uncovered"] == [] and len(empty.meta["checklist"]) == 0


def test_pipeline_single_section_combine_is_identity(lexicon, cfg):
    note = ClinicalNote("p", "MEDICATIONS:\naspirin daily and metformin nightly\n")
    dialogue = run_full_pipeline(note, lexicon, MockBackend(), cfg)
    assert dialogue.provenance is Provenance.CHECKED
    coverage = dialogue.meta["coverage"]
    assert coverage["covered"] == coverage["total"] == 2


def test_pipeline_long_style_produces_more_turns(lexicon, fixture_notes):
    short_cfg = GenerationConfig.for_mode("short")
    long_cfg = GenerationConfig.for_mode("long")
    short_turns = []
    long_turns = []
    for note in fixture_notes:
        short_turns.append(len(run_full_pipeline(note, lexicon, MockBackend(style="short"), short_cfg).turns))
        long_turns.append(len(run_full_pipeline(note, lexicon, MockBackend(style="long"), long_cfg).turns))
    assert sum(long_turns) / len(long_turns) > sum(short_turns) / len(short_turns)


@pytest.mark.parametrize("mode", ["short", "long"])
def test_pipeline_with_an_executor_map_equals_the_default(lexicon, fixture_notes, mode):
    # A stock executor's map is a valid map_sections: it yields in section
    # order, whatever order the chains finish in.
    cfg = GenerationConfig.for_mode(mode)
    with ThreadPoolExecutor(4) as pool:
        for note in fixture_notes:
            inline = run_full_pipeline(note, lexicon, MockBackend(style=mode), cfg)
            mapped = run_full_pipeline(note, lexicon, MockBackend(style=mode), cfg, None, pool.map)
            assert mapped.turns == inline.turns
            assert mapped.meta["coverage"] == inline.meta["coverage"]


def test_pipeline_combines_sections_left_to_right(lexicon, cfg):
    note = ClinicalNote(
        "p",
        "MEDICATIONS:\ntakes aspirin nightly\nPLAN:\nschedule a colonoscopy\nLABS:\nstart insulin soon\n",
    )
    dialogue = run_full_pipeline(note, lexicon, MockBackend(), cfg)
    text_turns = [t.text.lower() for t in dialogue.turns]

    def first_mention(surface):
        return next(i for i, t in enumerate(text_turns) if surface in t)

    assert first_mention("aspirin") < first_mention("colonoscopy") < first_mention("insulin")


def test_pipeline_every_turn_keeps_a_speaker_tag(lexicon, cfg, fixture_notes):
    for note in fixture_notes:
        dialogue = run_full_pipeline(note, lexicon, MockBackend(), cfg)
        for turn in dialogue.turns:
            assert turn.speaker in (Speaker.DOCTOR, Speaker.PATIENT)
            assert turn.text


def checklist_sizes(note, lexicon, cfg):
    return [len(build_checklist(s, lexicon, cfg)) for s in segment_note(note, cfg.similarity_threshold)]


def _mentions(*surfaces):
    return " ".join(f"The record mentions {s} in passing." for s in surfaces)


@pytest.mark.parametrize("factuality", [False, True])
def test_pipeline_calls_per_stage(lexicon, fixture_notes, factuality):
    cfg = GenerationConfig.for_mode("short", enable_factuality=factuality)
    wide = ClinicalNote(
        "wide",
        "HISTORY OF PRESENT ILLNESS:\n"
        + _mentions("asthma", "pneumonia", "anemia", "migraine", "bronchitis", "hyperlipidemia")
        + "\nMEDICATIONS:\n"
        + _mentions(
            "aspirin", "lisinopril", "metformin", "atorvastatin", "albuterol",
            "warfarin", "amoxicillin", "ibuprofen", "omeprazole",
        )
        + "\nPLAN:\n"
        + _mentions("colonoscopy")
        + "\n",
    )
    assert checklist_sizes(wide, lexicon, cfg) == [6, 9, 1]
    for note in [wide, *fixture_notes]:
        sizes = [k for k in checklist_sizes(note, lexicon, cfg) if k]
        rounds = sum(-(-k // cfg.keywords_per_turn) for k in sizes)
        backend = Recorder(MockBackend())
        run_full_pipeline(note, lexicon, backend, cfg)
        expected = {
            "doctor": rounds,
            "patient": rounds,
            "polish": len(sizes),
            "hallucination": len(sizes),
            "postediting": len(sizes) - 1,
            "factuality": len(sizes) if factuality else 0,
        }
        assert backend.stages == Counter({k: v for k, v in expected.items() if v}), note.id


def test_note_patient_line_is_not_copied_into_dialogue(lexicon, cfg):
    note = ClinicalNote(
        "p",
        "HISTORY OF PRESENT ILLNESS:\n"
        "He takes aspirin daily.\n"
        "Patient: John Doe, seen with his daughter.\n"
        "He has asthma.\n",
    )
    dialogue = run_full_pipeline(note, lexicon, MockBackend(), cfg)
    assert dialogue.turns[0].speaker is Speaker.DOCTOR
    assert not any("John Doe" in t.text for t in dialogue.turns)
    assert dialogue.meta["coverage"] == {"covered": 2, "total": 2}


SHARED_CUI_NOTE = ClinicalNote(
    "shared",
    "ASSESSMENT:\nasthma and hypertension, managed with albuterol and an inhaler\n"
    "PLAN:\ncontinue albuterol, order an echocardiogram\n"
    "MEDICATIONS:\naspirin daily\n",
)


def union_recount(note, dialogue, lexicon, cfg):
    """The note's checklist entries, one per CUI, counted afresh against the
    emitted turns."""
    entries = {}
    for section in segment_note(note, cfg.similarity_threshold):
        for entry in build_checklist(section, lexicon, cfg).entries:
            entries.setdefault(entry.cui, entry)
    recount = Checklist(entries.values())
    oracle_mark_covered(recount, dialogue.turns, lexicon, cfg)
    return recount


@pytest.mark.parametrize("mode", ["short", "long"])
def test_pipeline_counts_a_shared_cui_once(lexicon, mode):
    cfg = GenerationConfig.for_mode(mode)
    assert checklist_sizes(SHARED_CUI_NOTE, lexicon, cfg) == [4, 2, 1]
    dialogue = run_full_pipeline(SHARED_CUI_NOTE, lexicon, MockBackend(style=mode), cfg)
    assert dialogue.meta["coverage"] == {"covered": 6, "total": 6}
    assert dialogue.meta["keywords"] == [
        "asthma", "hypertension", "albuterol", "inhaler", "echocardiogram", "aspirin",
    ]


def test_pipeline_coverage_counts_the_merged_text(lexicon, cfg):
    # A merge that drops a keyword falls back to concatenation, so the
    # record still covers every keyword the sections covered.
    class DroppingMerge(MockBackend):
        def complete(self, request):
            reply = super().complete(request)
            return "Doctor: Anything else?\nPatient: No." if request.stage == "postediting" else reply

    dialogue = run_full_pipeline(SHARED_CUI_NOTE, lexicon, DroppingMerge(), cfg)
    assert dialogue.meta["coverage"] == {"covered": 6, "total": 6}
    assert not union_recount(SHARED_CUI_NOTE, dialogue, lexicon, cfg).uncovered()


_TAG_LINE = re.compile(r"^(Doctor|Patient):\s*", re.MULTILINE)
_LONG_TURN = "Patient:" + " um" * 400


def _drop_keyword(reply, pick, request):
    keywords = [k for k in request.slots.get("keywords", "").split(",") if k]
    surface = keywords[pick % len(keywords)]
    return re.sub(re.escape(surface), "that", reply, flags=re.IGNORECASE)


# Distortions of the rule mock's own rewrite reply.
DISTORTIONS = {
    "keep": lambda reply, pick, request: reply,
    "drop_keyword": _drop_keyword,
    "markdown_tags": lambda reply, pick, request: _TAG_LINE.sub(lambda m: f"**{m.group(1)}:** ", reply),
    "bullet_tags": lambda reply, pick, request: _TAG_LINE.sub(lambda m: f"- {m.group(0)}", reply),
    "missing_tags": lambda reply, pick, request: _TAG_LINE.sub("", reply),
    "some_tags_missing": lambda reply, pick, request: _TAG_LINE.sub("", reply, count=1 + pick % 3),
    "empty_bodies": lambda reply, pick, request: "\n".join(f"{tag}:" for tag in _TAG_LINE.findall(reply)),
    "empty_reply": lambda reply, pick, request: "",
    "oversized": lambda reply, pick, request: "\n".join([reply] * (2 + pick % 4) + [_LONG_TURN]),
    "prose": lambda reply, pick, request: "Sure! Here is the rewritten conversation.",
}


class DistortedRewrites:
    """The rule mock, except that each polish, hallucination and merge reply
    gets the next drawn distortion."""

    def __init__(self, style, distortions):
        self.inner = MockBackend(style=style)
        self.distortions = list(distortions)

    def complete(self, request):
        reply = self.inner.complete(request)
        if request.stage in ("polish", "hallucination", "postediting") and self.distortions:
            kind, pick = self.distortions.pop(0)
            reply = DISTORTIONS[kind](reply, pick, request)
        return reply


@settings(max_examples=40)
@given(
    mode=st.sampled_from(["short", "long"]),
    distortions=st.lists(st.tuples(st.sampled_from(sorted(DISTORTIONS)), st.integers(0, 20)), max_size=9),
)
@example(mode="short", distortions=[("keep", 0)] * 6 + [("drop_keyword", 2), ("drop_keyword", 4)])
@example(mode="long", distortions=[("keep", 0)] * 6 + [("markdown_tags", 0), ("drop_keyword", 0)])
@example(mode="short", distortions=[("oversized", 3)] * 9)
def test_pipeline_coverage_recounts_emitted_turns_under_distorted_rewrites(lexicon, mode, distortions):
    cfg = GenerationConfig.for_mode(mode)
    dialogue = run_full_pipeline(SHARED_CUI_NOTE, lexicon, DistortedRewrites(mode, distortions), cfg)
    recount = union_recount(SHARED_CUI_NOTE, dialogue, lexicon, cfg)
    assert dialogue.meta["coverage"] == {"covered": recount.covered_count(), "total": len(recount)}
    # The rule mock's loop covers every keyword and every rewrite is guarded.
    assert not recount.uncovered()
    assert dialogue.turns[0].speaker is Speaker.DOCTOR
    assert all(turn.text.strip() for turn in dialogue.turns)
