import logging

import pytest

from dialogforge.backend import MockBackend, RateLimited
from dialogforge.concepts import build_checklist
from dialogforge.model import (
    GenerationConfig,
    SemanticGroup,
    Speaker,
    Utterance,
    format_transcript,
)
from dialogforge.orchestrator import (
    LoopState,
    TERMINATE_CHECKLIST_EMPTY,
    TERMINATE_MAX_ROUNDS,
    TERMINATE_TOKEN_BUDGET,
    UnboundSlot,
    factuality_check,
    render_prompt,
    run_round,
    run_section_loop,
    select_keywords,
    should_terminate,
)
from dialogforge.prompts import DEFAULT_TEMPLATES

from conftest import ScriptedBackend, coverage, make_section, uncovered
from oracles import reference_history_view


def reportable_surfaces(lexicon, count):
    """Distinct-CUI reportable surfaces, stable order."""
    seen = set()
    out = []
    for entry in lexicon.entries:
        if entry.semantic_group is SemanticGroup.OTHER:
            continue
        if entry.cui in seen:
            continue
        seen.add(entry.cui)
        out.append(entry.surface)
        if len(out) == count:
            return out
    raise AssertionError(f"lexicon too small for {count} distinct concepts")


def section_with_keywords(surfaces):
    body = " ".join(f"The record mentions {s} in passing." for s in surfaces)
    return make_section(body)


class RecordingMock(MockBackend):
    """A mock that keeps every request it was sent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


class AlwaysRateLimited:
    def complete(self, request):
        raise RateLimited("always 429")


class NeverHelpful:
    """Replies that mention no lexicon concepts at all."""

    def complete(self, request):
        return "Nothing of substance here."


# ---------------------------------------------------------------------------
# render_prompt
# ---------------------------------------------------------------------------


def test_render_doctor_prompt_binds_note_and_keywords():
    rendered = render_prompt(DEFAULT_TEMPLATES["doctor"], {"note": "N", "keywords": "a,b", "history": ""})
    assert "Clinical Note: N" in rendered
    assert "Key Words: a,b" in rendered
    assert "{{" not in rendered


def test_render_missing_binding_raises():
    with pytest.raises(UnboundSlot) as excinfo:
        render_prompt(DEFAULT_TEMPLATES["doctor"], {"note": "N", "keywords": ""})
    assert excinfo.value.slot == "history"


def test_render_empty_keywords_leaves_no_residue():
    rendered = render_prompt(DEFAULT_TEMPLATES["doctor"], {"note": "N", "keywords": "", "history": ""})
    assert "Key Words: \n" in rendered + "\n"
    assert "{{" not in rendered


def test_render_history_as_transcript_lines():
    history = [Utterance(Speaker.DOCTOR, "q"), Utterance(Speaker.PATIENT, "a")]
    rendered = render_prompt(DEFAULT_TEMPLATES["patient"], {"note": "N", "history": format_transcript(history)})
    assert "Doctor: q\nPatient: a" in rendered


# ---------------------------------------------------------------------------
# select_keywords / should_terminate
# ---------------------------------------------------------------------------


def _state(lexicon, cfg, surfaces):
    checklist = build_checklist(section_with_keywords(surfaces), lexicon, cfg)
    assert len(checklist) == len(surfaces)
    return LoopState(checklist=checklist)


def test_select_keywords_caps_at_four(lexicon, cfg):
    state = _state(lexicon, cfg, reportable_surfaces(lexicon, 6))
    assert [e.surface for e in select_keywords(state, cfg)] == reportable_surfaces(lexicon, 4)


def test_select_keywords_fewer_than_cap(lexicon, cfg):
    state = _state(lexicon, cfg, reportable_surfaces(lexicon, 2))
    assert len(select_keywords(state, cfg)) == 2


def test_select_keywords_empty(lexicon, cfg):
    state = _state(lexicon, cfg, reportable_surfaces(lexicon, 1))
    state.checklist.mark(0)
    assert select_keywords(state, cfg) == []


def test_should_terminate_checklist_empty(lexicon, cfg):
    state = _state(lexicon, cfg, reportable_surfaces(lexicon, 1))
    state.checklist.mark(0)
    assert should_terminate(state, cfg) == (True, TERMINATE_CHECKLIST_EMPTY)


def test_should_terminate_max_rounds(lexicon, cfg):
    state = _state(lexicon, cfg, reportable_surfaces(lexicon, 3))
    state.round = cfg.max_rounds
    assert should_terminate(state, cfg) == (True, TERMINATE_MAX_ROUNDS)


def test_should_terminate_token_budget_arithmetic(lexicon, cfg):
    state = _state(lexicon, cfg, reportable_surfaces(lexicon, 3))
    state.token_spend = 3300
    assert 3300 >= 0.8 * 4096
    assert should_terminate(state, cfg) == (True, TERMINATE_TOKEN_BUDGET)
    state.token_spend = 3276
    assert should_terminate(state, cfg) == (False, None)


# ---------------------------------------------------------------------------
# run_round
# ---------------------------------------------------------------------------


def test_run_round_rule_mock_covers_keyword(lexicon, cfg):
    section = section_with_keywords(["aspirin"])
    state = LoopState(checklist=build_checklist(section, lexicon, cfg))
    run_round(state, section, lexicon, MockBackend(), cfg)
    assert not state.checklist.uncovered()
    assert [t.speaker for t in state.history] == [Speaker.DOCTOR, Speaker.PATIENT]
    assert state.round == 1
    assert state.token_spend > 0


def test_run_round_scripted_reply_without_keywords(lexicon, cfg):
    section = section_with_keywords(["aspirin", "asthma"])
    state = LoopState(checklist=build_checklist(section, lexicon, cfg))
    backend = ScriptedBackend(["Nothing to ask.", "Okay then."])
    run_round(state, section, lexicon, backend, cfg)
    assert state.checklist.covered_count() == 0
    assert state.round == 1


def test_run_round_raises_rate_limited_after_its_retries(lexicon):
    cfg = GenerationConfig(max_retries=1, retry_base_delay=0.0)
    section = section_with_keywords(["aspirin"])
    state = LoopState(checklist=build_checklist(section, lexicon, cfg))
    with pytest.raises(RateLimited):
        run_round(state, section, lexicon, AlwaysRateLimited(), cfg)


# ---------------------------------------------------------------------------
# factuality_check
# ---------------------------------------------------------------------------


def test_factuality_complete_when_disabled(lexicon, cfg):
    section = section_with_keywords(["aspirin"])
    checklist = build_checklist(section, lexicon, cfg)
    checklist.mark(0)
    dialogue = run_section_loop(section, lexicon, MockBackend(), cfg)
    assert factuality_check(dialogue, section, checklist, MockBackend(), cfg) == []


def test_factuality_reports_missing_entries(lexicon, cfg):
    section = section_with_keywords(["aspirin", "asthma"])
    checklist = build_checklist(section, lexicon, cfg)
    checklist.mark(0)
    dialogue = run_section_loop(section, lexicon, MockBackend(), cfg)
    missing = factuality_check(dialogue, section, checklist, MockBackend(), cfg)
    assert [e.surface for e in missing] == ["asthma"]


def test_factuality_llm_verdict_no_logs_warning(lexicon, caplog):
    cfg = GenerationConfig(enable_factuality=True)
    section = section_with_keywords(["aspirin"])
    checklist = build_checklist(section, lexicon, cfg)
    checklist.mark(0)
    dialogue = run_section_loop(section, lexicon, MockBackend(), cfg)
    backend = ScriptedBackend(["No, something is missing."])
    with caplog.at_level(logging.WARNING):
        assert factuality_check(dialogue, section, checklist, backend, cfg) == []
    assert any("factuality" in r.message for r in caplog.records)


def test_factuality_unparseable_verdict_treated_complete(lexicon, caplog):
    cfg = GenerationConfig(enable_factuality=True)
    section = section_with_keywords(["aspirin"])
    checklist = build_checklist(section, lexicon, cfg)
    checklist.mark(0)
    dialogue = run_section_loop(section, lexicon, MockBackend(), cfg)
    backend = ScriptedBackend(["hmm."])
    with caplog.at_level(logging.WARNING):
        assert factuality_check(dialogue, section, checklist, backend, cfg) == []
    assert any("unparseable" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# run_section_loop
# ---------------------------------------------------------------------------


def test_loop_five_keywords_two_rounds(lexicon, cfg):
    section = section_with_keywords(reportable_surfaces(lexicon, 5))
    dialogue = run_section_loop(section, lexicon, MockBackend(), cfg, note_id="n")
    assert len(dialogue.turns) == 4
    assert coverage(dialogue) == {"covered": 5, "total": 5}
    assert dialogue.meta["termination"] == TERMINATE_CHECKLIST_EMPTY


def test_loop_empty_checklist_no_backend_calls(lexicon, cfg):
    backend = MockBackend()
    dialogue = run_section_loop(make_section("nothing relevant"), lexicon, backend, cfg)
    assert dialogue.turns == ()
    assert backend.calls == 0
    assert coverage(dialogue) == {"covered": 0, "total": 0}


def test_loop_round_cap_with_unhelpful_script(lexicon):
    cfg = GenerationConfig(max_rounds=1)
    surfaces = reportable_surfaces(lexicon, 8)
    section = section_with_keywords(surfaces)
    script = [f"I want to ask about {', '.join(surfaces[:4])}.", "Sure, go ahead."]
    dialogue = run_section_loop(section, lexicon, ScriptedBackend(script), cfg)
    assert len(dialogue.turns) == 2
    assert dialogue.meta["termination"] == TERMINATE_MAX_ROUNDS
    assert sorted(uncovered(dialogue)) == sorted(surfaces[4:])
    assert coverage(dialogue) == {"covered": 4, "total": 8}


def test_loop_factuality_extra_round_completes_coverage(lexicon):
    cfg = GenerationConfig(max_rounds=1, enable_factuality=True)
    surfaces = reportable_surfaces(lexicon, 8)
    section = section_with_keywords(surfaces)
    backend = RecordingMock()
    dialogue = run_section_loop(section, lexicon, backend, cfg)
    # one capped round, then one remediation round, then one verdict
    assert len(dialogue.turns) == 4
    assert coverage(dialogue) == {"covered": 8, "total": 8}
    assert uncovered(dialogue) == []
    assert [r.stage for r in backend.requests] == ["doctor", "patient", "doctor", "patient", "factuality"]


def test_loop_terminates_within_bound_for_any_backend(lexicon):
    cfg = GenerationConfig(max_rounds=3)
    section = section_with_keywords(reportable_surfaces(lexicon, 6))
    dialogue = run_section_loop(section, lexicon, NeverHelpful(), cfg)
    assert len(dialogue.turns) == 2 * cfg.max_rounds
    assert dialogue.meta["termination"] == TERMINATE_MAX_ROUNDS

    cfg_fact = GenerationConfig(max_rounds=3, enable_factuality=True)
    dialogue = run_section_loop(section, lexicon, NeverHelpful(), cfg_fact)
    assert len(dialogue.turns) <= 2 * (cfg_fact.max_rounds + 1)


def test_loop_token_budget_termination(lexicon):
    cfg = GenerationConfig(max_context_tokens=64)
    surfaces = reportable_surfaces(lexicon, 8)
    section = section_with_keywords(surfaces)
    assert len(section.body) > 64 * 0.8 * 4
    dialogue = run_section_loop(section, lexicon, MockBackend(), cfg)
    assert dialogue.meta["termination"] == TERMINATE_TOKEN_BUDGET
    assert len(dialogue.turns) >= 2


def test_loop_alternation_and_keyword_cap(lexicon, cfg):
    section = section_with_keywords(reportable_surfaces(lexicon, 7))
    dialogue = run_section_loop(section, lexicon, MockBackend(), cfg)
    for i, turn in enumerate(dialogue.turns):
        expected = Speaker.DOCTOR if i % 2 == 0 else Speaker.PATIENT
        assert turn.speaker is expected
    for assigned in dialogue.meta["round_keywords"]:
        assert len(assigned) <= cfg.keywords_per_turn


def test_loop_round_two_prompt_carries_round_one_history(lexicon, cfg):
    section = section_with_keywords(reportable_surfaces(lexicon, 6))
    backend = RecordingMock()
    run_section_loop(section, lexicon, backend, cfg)
    assert len(backend.requests) == 4  # two rounds of doctor + patient
    round_one_question = f"Doctor: Can you tell me about {', '.join(reportable_surfaces(lexicon, 4))}?"
    assert round_one_question in backend.requests[2].messages[-1].content


def test_history_truncation_keeps_opening_round(lexicon):
    from dialogforge.orchestrator import _render_with_budget
    from dialogforge.prompts import DEFAULT_TEMPLATES

    cfg = GenerationConfig(max_context_tokens=200)
    lines = []
    for i in range(4):
        lines.append(f"Doctor: question {i} " + "x" * 60)
        lines.append(f"Patient: answer {i} " + "y" * 60)
    request, view = _render_with_budget(DEFAULT_TEMPLATES["patient"], {"note": "short note"}, lines, cfg)
    rendered = request.messages[-1].content
    assert "question 0" in rendered
    assert "question 1" not in rendered
    assert view[:2] == lines[:2]
    assert len(view) < len(lines)
    assert request.slots["history"] == "\n".join(view)


def test_loop_history_binds_the_reference_view_while_trimmed(lexicon, monkeypatch):
    # Long turns push the loop's prompts over the budget, so each request
    # binds only the lines the trim leaves. The patient's trim starts from the
    # doctor's view: from the whole history it would keep more rounds here.
    from dialogforge import orchestrator

    written = []
    original = orchestrator.format_transcript
    monkeypatch.setattr(orchestrator, "format_transcript", lambda turns: written.append(turns) or original(turns))
    cfg = GenerationConfig(keywords_per_turn=1, max_context_tokens=250, max_rounds=8)
    section = section_with_keywords(reportable_surfaces(lexicon, 2))
    script = []
    for i in range(8):
        script.append(f"Question {i}: " + "tell me more " * (1 + i % 2))
        script.append(f"Answer {i}: " + "it hurts a bit " * (4 - 2 * (i % 2)))
    backend = RecordingMock(script=script)
    dialogue = run_section_loop(section, lexicon, backend, cfg)
    assert [r.stage for r in backend.requests] == ["doctor", "patient"] * 8
    assert len(written) == len(dialogue.turns)  # one transcript line per turn
    trimmed = 0
    for k in range(0, len(dialogue.turns), 2):
        doctor, patient = backend.requests[k : k + 2]
        bindings = {"note": section.body, "keywords": doctor.slots["keywords"]}
        view = reference_history_view(DEFAULT_TEMPLATES["doctor"], bindings, dialogue.turns[:k], cfg)
        assert doctor.slots["history"] == format_transcript(view)
        trimmed += len(view) < k
        view = reference_history_view(
            DEFAULT_TEMPLATES["patient"], {"note": section.body}, view + [dialogue.turns[k]], cfg
        )
        assert patient.slots["history"] == format_transcript(view)
        trimmed += len(view) < k + 1
    assert trimmed == 10  # of the 16 requests


def test_loop_writes_each_turn_once_and_renders_each_request_once(lexicon, cfg, monkeypatch):
    from dialogforge import orchestrator

    calls = {"format_transcript": 0, "render_prompt": 0}
    for name in calls:

        def counted(*args, original=getattr(orchestrator, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(orchestrator, name, counted)
    backend = RecordingMock()
    dialogue = run_section_loop(section_with_keywords(reportable_surfaces(lexicon, 6)), lexicon, backend, cfg)
    assert len(dialogue.turns) == len(backend.requests) == 4
    assert calls == {"format_transcript": 4, "render_prompt": 4}


def test_loop_scripted_determinism(lexicon, cfg):
    section = section_with_keywords(reportable_surfaces(lexicon, 3))
    script = ["Let us cover aspirin, lisinopril, metformin.", "All noted."]

    def run():
        backend = MockBackend(script=list(script))
        return run_section_loop(section, lexicon, backend, cfg)

    first, second = run(), run()
    assert first.turns == second.turns
    assert coverage(first) == coverage(second)


def test_history_truncation_keeps_unanswered_question():
    from dialogforge.orchestrator import _render_with_budget

    cfg = GenerationConfig(max_context_tokens=150)
    lines = ["Doctor: question 0", "Patient: answer 0", "Doctor: question 1 " + "x" * 400]
    request, view = _render_with_budget(DEFAULT_TEMPLATES["patient"], {"note": "n"}, lines, cfg)
    assert view == lines
    assert request.slots["history"].endswith("Doctor: question 1 " + "x" * 400)


def test_loop_patient_prompt_over_budget_keeps_its_question(lexicon):
    cfg = GenerationConfig(max_context_tokens=300)
    section = section_with_keywords(reportable_surfaces(lexicon, 6))
    long_question = "Anything else to add? " + "Please take your time. " * 40
    backend = RecordingMock(
        script=["How are you today?", "Fine.", long_question, "Nothing more."]
    )
    dialogue = run_section_loop(section, lexicon, backend, cfg)
    round_one_patient = backend.requests[3]
    assert f"Doctor: {long_question.strip()}" in round_one_patient.messages[-1].content
    assert round_one_patient.stage == "patient"
    assert round_one_patient.slots["history"].endswith(f"Doctor: {long_question.strip()}")
    assert dialogue.meta["termination"] == TERMINATE_TOKEN_BUDGET


def test_note_key_words_line_does_not_replace_keywords(lexicon, cfg):
    surfaces = reportable_surfaces(lexicon, 6)
    body = section_with_keywords(surfaces[:3]).body + "\nKey Words: none recorded\n"
    body += section_with_keywords(surfaces[3:]).body
    backend = RecordingMock()
    dialogue = run_section_loop(make_section(body), lexicon, backend, cfg)
    assert coverage(dialogue) == {"covered": 6, "total": 6}
    assert len(dialogue.meta["round_keywords"]) == 2  # ceil(6 / 4)
    assert backend.requests[0].slots["keywords"] == ",".join(surfaces[:4])
    assert "none recorded" not in dialogue.turns[0].text
