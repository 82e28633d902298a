import logging
import random
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialogforge.backend import ChatMessage, ChatRequest, MockBackend
from dialogforge.concepts import build_checklist, load_lexicon, mark_covered
from dialogforge.model import (
    Checklist,
    ClinicalNote,
    Dialogue,
    GenerationConfig,
    Speaker,
    Utterance,
    format_transcript,
)
from dialogforge.orchestrator import run_section_loop
from dialogforge.segmenter import segment_note
from dialogforge.refiner import (
    Unparseable,
    _keyword_regression,
    hallucination_check,
    parse_transcript,
    polish,
    postedit_combine,
    run_full_pipeline,
)

from conftest import coverage, make_dialogue, make_section, transcript_texts, uncovered
from oracles import oracle_mark_covered, reference_rewrite_pass


class Recorder:
    """Wraps a backend and keeps every prompt it was sent, each request with
    its reply, and the count of requests per stage."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []
        self.seen = []
        self.stages = Counter()

    def complete(self, request):
        self.prompts.append(request.messages[-1].content)
        self.stages[request.stage] += 1
        reply = self.inner.complete(request)
        self.seen.append((request, reply))
        return reply


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
    assert polished is not dialogue  # the rewrite was taken


def test_polish_regression_falls_back_to_input(lexicon, cfg, caplog):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "aspirin and asthma daily")
    assert not checklist.uncovered()
    dropping = MockBackend(script=["Doctor: Tell me about asthma.\nPatient: Sure."])
    with caplog.at_level(logging.WARNING):
        result = polish(dialogue, section.body, checklist, lexicon, dropping, cfg)
    assert result is dialogue
    assert any("dropped keywords" in r.message for r in caplog.records)


def test_polish_accepts_rewrite_that_keeps_keywords(lexicon, cfg):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "aspirin and asthma daily")
    reply = (
        "Doctor: Let's go over your asthma first.\n"
        "Patient: My asthma is fine, and I still take aspirin."
    )
    backend = MockBackend(script=[reply])
    result = polish(dialogue, section.body, checklist, lexicon, backend, cfg)
    assert [t.text for t in result.turns] == [
        "Let's go over your asthma first.",
        "My asthma is fine, and I still take aspirin.",
    ]


def test_polish_reply_that_changes_the_first_speaker_keeps_input(lexicon, cfg, caplog):
    # The question has lost its tag, so the parser drops it: the reply keeps
    # every keyword but would open with the patient.
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "aspirin and asthma daily")
    reply = "Any aspirin or asthma?\nPatient: Aspirin daily, and my asthma is mild."
    with caplog.at_level(logging.WARNING):
        result = polish(dialogue, section.body, checklist, lexicon, MockBackend(script=[reply]), cfg)
    assert result is dialogue
    assert any("changes who speaks first; keeping input" in r.message for r in caplog.records)


def test_polish_requires_non_empty_dialogue(lexicon, cfg):
    empty = Dialogue("n", ())
    with pytest.raises(ValueError):
        polish(empty, "body", build_checklist(make_section("x"), lexicon, cfg), lexicon, MockBackend(), cfg)


def test_hallucination_identity(lexicon, cfg):
    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "metformin for diabetes")
    checked = hallucination_check(dialogue, section.body, checklist, lexicon, MockBackend(), cfg)
    assert checked.turns == dialogue.turns
    assert checked is not dialogue  # the rewrite was taken


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
    assert result is not dialogue
    assert [t.text for t in result.turns] == ["You take metformin for diabetes, correct?", "Yes."]


# ---------------------------------------------------------------------------
# postedit_combine
# ---------------------------------------------------------------------------


def test_combine_identity_on_empty_left(lexicon, cfg):
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    empty = Dialogue("n", ())
    right = make_dialogue("q", "a", note_id="n")
    assert postedit_combine(empty, right, "body", checklist, lexicon, MockBackend(), cfg) is right


def test_combine_concatenation_mock(lexicon, cfg):
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    left = make_dialogue("q1", "a1", note_id="n")
    right = make_dialogue("q2", "a2", note_id="n")
    combined = postedit_combine(left, right, "body", checklist, lexicon, MockBackend(), cfg)
    assert [t.text for t in combined.turns] == ["q1", "a1", "q2", "a2"]


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


def test_combine_long_mode_dropped_tail_keyword_keeps_head(lexicon, caplog):
    cfg = GenerationConfig.for_mode("long")
    checklist = covered_checklist(lexicon, cfg, "aspirin and asthma")
    left = make_dialogue("Do you take aspirin?", "Yes, daily.", "Any asthma?", "Mild asthma.", note_id="n")
    right = make_dialogue("Any cough?", "No cough.", note_id="n")
    # The head still says aspirin; the reply loses the tail's asthma.
    reply = "Doctor: Any breathing trouble?\nPatient: Mild.\nDoctor: Any cough?\nPatient: No cough."
    backend = Recorder(MockBackend(script=[reply]))
    with caplog.at_level(logging.WARNING):
        combined = postedit_combine(left, right, "body", checklist, lexicon, backend, cfg, head=2)
    assert "Do you take aspirin?" not in backend.prompts[0]
    assert combined.turns == left.turns + right.turns
    assert combined.turns[:2] == left.turns[:2]
    assert any("dropped keywords ['asthma']" in r.message for r in caplog.records)


def test_combine_long_mode_guard_counts_the_head(lexicon):
    cfg = GenerationConfig.for_mode("long")
    checklist = covered_checklist(lexicon, cfg, "aspirin and asthma")
    left = make_dialogue("Do you take aspirin?", "Yes, daily.", "Any asthma?", "Mild asthma.", note_id="n")
    right = make_dialogue("Any cough?", "No cough.", note_id="n")
    # Aspirin is said only in the unbound head, which the merge keeps.
    reply = "Doctor: Any asthma or cough?\nPatient: Mild asthma, no cough."
    backend = MockBackend(script=[reply])
    combined = postedit_combine(left, right, "body", checklist, lexicon, backend, cfg, head=2)
    assert combined.turns[:2] == left.turns[:2]
    assert [t.text for t in combined.turns[2:]] == ["Any asthma or cough?", "Mild asthma, no cough."]


def test_combine_long_mode_binds_only_tail(lexicon):
    cfg = GenerationConfig.for_mode("long")
    checklist = build_checklist(make_section("aspirin"), lexicon, cfg)
    left = make_dialogue("old question", "old answer", "recent question", "recent answer", note_id="n")
    right = make_dialogue("new question", "new answer", note_id="n")
    backend = Recorder(MockBackend())
    combined = postedit_combine(left, right, "body", checklist, lexicon, backend, cfg, head=2)
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


# ---------------------------------------------------------------------------
# run_full_pipeline
# ---------------------------------------------------------------------------


def test_pipeline_two_sections_full_coverage(lexicon, cfg, fixture_notes):
    note = fixture_notes[0]  # two productive sections
    backend = MockBackend()
    dialogue = run_full_pipeline(note, lexicon, backend, cfg)
    counts = coverage(dialogue)
    assert counts["total"] > 0
    assert counts["covered"] == counts["total"]
    text = format_transcript(dialogue.turns).lower()
    for entry in dialogue.meta["checklist"].entries:
        assert entry.surface in text


def test_pipeline_no_hits_returns_empty_without_calls(lexicon, cfg):
    note = ClinicalNote("p", "just a short narrative with no relevant terms")
    backend = MockBackend()
    dialogue = run_full_pipeline(note, lexicon, backend, cfg)
    assert dialogue.turns == ()
    assert backend.calls == 0
    assert coverage(dialogue) == {"covered": 0, "total": 0}


def test_pipeline_meta_describes_the_note_not_its_first_section(lexicon):
    note = ClinicalNote(
        "p",
        "CHIEF COMPLAINT:\nasthma today.\nMEDICATIONS:\naspirin daily. lisinopril daily. "
        "metformin daily. atorvastatin daily. albuterol daily. warfarin daily.\n",
    )
    cfg = GenerationConfig(max_rounds=1)
    dialogue = run_full_pipeline(note, lexicon, MockBackend(), cfg)
    assert set(dialogue.meta) == {"checklist"}
    assert coverage(dialogue) == {"covered": 5, "total": 7}
    assert len(uncovered(dialogue)) == 2

    empty = run_full_pipeline(ClinicalNote("q", "no relevant terms"), lexicon, MockBackend(), cfg)
    assert set(empty.meta) == {"checklist"}
    assert uncovered(empty) == [] and len(empty.meta["checklist"]) == 0


def test_pipeline_single_section_combine_is_identity(lexicon, cfg):
    note = ClinicalNote("p", "MEDICATIONS:\naspirin daily and metformin nightly\n")
    backend = Recorder(MockBackend())
    dialogue = run_full_pipeline(note, lexicon, backend, cfg)
    assert backend.stages["hallucination"] == 1 and backend.stages["postediting"] == 0
    assert coverage(dialogue) == {"covered": 2, "total": 2}


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
            assert coverage(mapped) == coverage(inline)


FOUR_SECTION_NOTE = ClinicalNote(
    "p",
    "MEDICATIONS:\ntakes aspirin nightly. Also lisinopril.\n"
    "PLAN:\nschedule a colonoscopy. Recheck in a week.\n"
    "LABS:\nstart insulin soon. Check anemia.\n"
    "ASSESSMENT:\nasthma is stable. Mild migraine.\n",
)


class SqueezedMerges(MockBackend):
    """The rule mock, except that a merge reply says everything in one doctor
    turn and one patient turn, fewer turns than a section may have."""

    def complete(self, request):
        reply = super().complete(request)
        if request.stage != "postediting":
            return reply
        turns = parse_transcript(reply)
        return format_transcript([
            Utterance(speaker, " ".join(t.text for t in turns if t.speaker is speaker))
            for speaker in (Speaker.DOCTOR, Speaker.PATIENT)
        ])


@pytest.mark.parametrize(
    "mode, backend_class",
    [
        pytest.param("short", MockBackend, id="short"),
        pytest.param("long", MockBackend, id="long"),
        pytest.param("long", SqueezedMerges, id="long-squeezed"),
    ],
)
def test_pipeline_merges_bind_the_conversation_by_mode(lexicon, mode, backend_class):
    # Short mode binds the whole conversation so far into every merge. Long
    # mode does so only for the first merge; each later one binds the newest
    # turns of the previous merge's reply, at most as many as that merge's
    # right side had, and keeps the older turns as they are.
    backend = Recorder(backend_class(style=mode))
    dialogue = run_full_pipeline(FOUR_SECTION_NOTE, lexicon, backend, GenerationConfig.for_mode(mode))
    # Sections run in order, so the first hallucination reply is the first
    # section's dialogue.

    def turns(text):
        return tuple(parse_transcript(text))

    so_far = next(turns(reply) for request, reply in backend.seen if request.stage == "hallucination")
    merges = [
        (turns(request.slots["conversation"]), turns(request.slots["conversation2"]), turns(reply))
        for request, reply in backend.seen
        if request.stage == "postediting"
    ]
    assert len(merges) == 3
    previous, partial = None, False
    for bound, right, reply in merges:
        if mode == "short" or previous is None:
            assert bound == so_far
        else:
            previous_right, previous_reply = previous
            assert bound == previous_reply[-min(len(previous_reply), len(previous_right)):]
            assert so_far[len(so_far) - len(bound):] == bound
            partial = partial or len(bound) < len(so_far)
        so_far = so_far[:len(so_far) - len(bound)] + reply
        previous = (right, reply)
    assert dialogue.turns == so_far
    # The plain mock's merge replies outgrow their right side, so long mode
    # leaves older turns unbound; squeezed replies never do.
    assert partial == (mode == "long" and backend_class is MockBackend)


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
    assert coverage(dialogue) == {"covered": 2, "total": 2}


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
    assert coverage(dialogue) == {"covered": 6, "total": 6}
    assert [entry.surface for entry in dialogue.meta["checklist"].entries] == [
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
    assert coverage(dialogue) == {"covered": 6, "total": 6}
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
@example(mode="short", distortions=[("some_tags_missing", 0)])
def test_pipeline_coverage_recounts_emitted_turns_under_distorted_rewrites(lexicon, mode, distortions):
    cfg = GenerationConfig.for_mode(mode)
    dialogue = run_full_pipeline(SHARED_CUI_NOTE, lexicon, DistortedRewrites(mode, distortions), cfg)
    recount = union_recount(SHARED_CUI_NOTE, dialogue, lexicon, cfg)
    assert coverage(dialogue) == {"covered": recount.covered_count(), "total": len(recount)}
    # The rule mock's loop covers every keyword and every rewrite is guarded.
    assert not recount.uncovered()
    assert dialogue.turns[0].speaker is Speaker.DOCTOR
    assert all(turn.text.strip() for turn in dialogue.turns)


# ---------------------------------------------------------------------------
# A reply that echoes its input
# ---------------------------------------------------------------------------


@given(
    stage=st.sampled_from(["polish", "hallucination", "postediting"]),
    conversation=transcript_texts(),
    conversation2=transcript_texts(),
)
@example(stage="polish", conversation="Doctor: hi\nPatient: there", conversation2="")
@example(stage="postediting", conversation="Doctor: a", conversation2="Patient: b")
@example(stage="postediting", conversation="", conversation2="Patient: b")
def test_short_mock_echo_equals_parse_then_format(stage, conversation, conversation2):
    slots = {"conversation": conversation}
    if stage == "postediting":
        slots["conversation2"] = conversation2
    request = ChatRequest((ChatMessage("user", "-"),), stage=stage, slots=slots)
    try:
        expected = format_transcript(parse_transcript(conversation + "\n" + slots.get("conversation2", "")))
    except Unparseable:
        expected = "Okay."
    assert MockBackend().complete(request) == expected


# Turn texts that name fixture keywords, and texts the codec changes or splits.
_ECHO_TEXTS = [
    "Do you take aspirin?",
    "Yes, aspirin daily.",
    "Any asthma?",
    "My asthma is mild.",
    "ok",
    "it hurts\nat night",
    "hi\nPatient: asthma",
    "*asthma* today",
    "aspirin  ",
    "a\u2028b",
]


def _wrap_one_tag(turns, pick):
    reply = format_transcript(turns)
    tags = list(_TAG_LINE.finditer(reply))
    match = tags[pick % len(tags)]
    return reply[: match.start()] + f"**{match.group(1)}:** " + reply[match.end() :]


# Replies to a rewrite pass, made from the turns it bound.
ECHO_REPLIES = {
    "exact_echo": lambda turns, pick: format_transcript(turns),
    "wrapped_tag": _wrap_one_tag,
    "dropped_turn": lambda turns, pick: format_transcript(turns[: pick % len(turns)] + turns[pick % len(turns) + 1 :]),
    "trailing_spaces": lambda turns, pick: "\n".join(line + "  " for line in format_transcript(turns).split("\n")),
    "multi_line_turns": lambda turns, pick: format_transcript(
        [Utterance(t.speaker, f"{t.text}\n(nods)") for t in turns]
    ),
}


@given(
    stage=st.sampled_from(["polish", "hallucination", "postediting"]),
    texts=st.lists(st.sampled_from(_ECHO_TEXTS), min_size=3, max_size=6),
    kind=st.sampled_from(sorted(ECHO_REPLIES)),
    pick=st.integers(0, 20),
)
@example(stage="polish", texts=["Any asthma?", "hi\nPatient: asthma", "ok"], kind="exact_echo", pick=0)
@example(stage="postediting", texts=["Do you take aspirin?", "Yes.", "Any asthma?", "ok"], kind="exact_echo", pick=1)
def test_a_rewrite_gives_the_turns_of_the_parse_and_guard_path(lexicon, stage, texts, kind, pick):
    cfg = GenerationConfig()
    dialogue = make_dialogue(*texts, note_id="n")
    # Credited round by round, as the loop credits them.
    checklist = build_checklist(make_section("aspirin and asthma"), lexicon, cfg)
    for start in range(0, len(dialogue.turns), 2):
        mark_covered(checklist, dialogue.turns[start : start + 2], lexicon, cfg)
    if stage == "postediting":
        split = 2 + pick % (len(texts) - 2)
        head = 1 + pick % (split - 1)
        left, right = Dialogue("n", dialogue.turns[:split]), Dialogue("n", dialogue.turns[split:])
        bound = dialogue.turns[head:]
        reply = ECHO_REPLIES[kind](bound, pick)
        result = postedit_combine(left, right, "body", checklist, lexicon, MockBackend(script=[reply]), cfg, head=head)
        reference = reference_rewrite_pass(
            stage, dialogue, "body", checklist, lexicon, MockBackend(script=[reply]), cfg, None,
            left.turns[head:], right.turns, left.turns[:head],
        )
    else:
        reply = ECHO_REPLIES[kind](dialogue.turns, pick)
        rewrite = polish if stage == "polish" else hallucination_check
        result = rewrite(dialogue, "body", checklist, lexicon, MockBackend(script=[reply]), cfg)
        reference = reference_rewrite_pass(
            stage, dialogue, "body", checklist, lexicon, MockBackend(script=[reply]), cfg, None, dialogue.turns
        )
    assert result.turns == reference.turns


def test_polish_takes_an_unchanged_echo_without_a_false_warning(cfg, caplog):
    # Round by round, "Dal cor" says "cor dal" (C2). Re-scanned as one text,
    # "bex" and "dal" across the round boundary match "bex dal" (C1) first,
    # which takes "dal", so a re-scan of the whole echo would call C2 lost.
    lexicon = load_lexicon(["bex dal\tC1\tdisease\n", "cor dal\tC2\tdisease\n"])
    dialogue = make_dialogue("Any rash?", "Some bex", "Dal cor, then?", "Yes.", note_id="n")
    checklist = Checklist(e for e in lexicon.entries if e.cui == "C2")
    mark_covered(checklist, dialogue.turns[:2], lexicon, cfg)
    assert checklist.covered == (False,)
    mark_covered(checklist, dialogue.turns[2:], lexicon, cfg)
    assert checklist.covered == (True,)
    assert _keyword_regression(checklist, dialogue.turns, lexicon, cfg) == ["cor dal"]
    with caplog.at_level(logging.WARNING):
        polished = polish(dialogue, "body", checklist, lexicon, MockBackend(), cfg)
    assert polished.turns == dialogue.turns
    assert polished is not dialogue
    assert not caplog.records


def test_an_echo_of_the_rule_mock_is_neither_parsed_nor_rescanned(lexicon, cfg, monkeypatch):
    import dialogforge.backend
    import dialogforge.refiner

    def refuse(*args):
        raise AssertionError("an exact echo was parsed or re-scanned")

    section, checklist, dialogue = loop_dialogue(lexicon, cfg, "aspirin and asthma daily")
    for module, name in [
        (dialogforge.backend, "parse_transcript"),
        (dialogforge.refiner, "parse_transcript"),
        (dialogforge.refiner, "_keyword_regression"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    polished = polish(dialogue, section.body, checklist, lexicon, MockBackend(), cfg)
    checked = hallucination_check(polished, section.body, checklist, lexicon, MockBackend(), cfg)
    merged = postedit_combine(checked, dialogue, "body", checklist, lexicon, MockBackend(), cfg, head=1)
    assert checked.turns == dialogue.turns
    assert merged.turns == dialogue.turns + dialogue.turns
