"""Round-by-round doctor-patient generation driven by a keyword checklist.

Each round renders the doctor prompt with the section body, the next batch of
uncovered keywords, and the running history, then renders the patient prompt
with the updated history. New utterances are checked off against the
checklist, and the loop stops when the checklist empties, the round cap is
reached, or the estimated context size exceeds its budget.
"""

import logging
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .backend import ChatMessage, ChatRequest, complete_with_retry, estimate_tokens, BackendError
from .concepts import Lexicon, build_checklist, mark_covered
from .model import (
    Checklist,
    ConceptEntry,
    Dialogue,
    GenerationConfig,
    NoteSection,
    PromptTemplate,
    Provenance,
    Speaker,
    TEMPLATE_SLOT_RE,
    Utterance,
    format_transcript,
)
from .prompts import DEFAULT_TEMPLATES

logger = logging.getLogger(__name__)

_VERDICT_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)

TERMINATE_CHECKLIST_EMPTY = "checklist_empty"
TERMINATE_MAX_ROUNDS = "max_rounds"
TERMINATE_TOKEN_BUDGET = "token_budget"


class UnboundSlot(KeyError):
    def __init__(self, slot: str):
        self.slot = slot
        super().__init__(f"no binding for template slot {slot!r}")


def _render_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Dialogue):
        return format_transcript(value.turns)
    if isinstance(value, (list, tuple)):
        if not value:
            return ""
        if isinstance(value[0], Utterance):
            return format_transcript(value)
        parts = [v.surface if isinstance(v, ConceptEntry) else str(v) for v in value]
        return ",".join(parts)
    return str(value)


def render_prompt(template: PromptTemplate, bindings: Dict) -> str:
    """Substitute every referenced slot; keyword lists become comma-separated
    text, utterance lists become Doctor:/Patient: transcript lines."""

    def substitute(match):
        slot = match.group(1)
        if slot not in bindings:
            raise UnboundSlot(slot)
        return _render_value(bindings[slot])

    return TEMPLATE_SLOT_RE.sub(substitute, template.body)


@dataclass
class LoopState:
    """Mutable state owned by a single section loop."""

    checklist: Checklist
    history: List[Utterance] = field(default_factory=list)
    round: int = 0
    token_spend: int = 0
    round_keywords: List[List[str]] = field(default_factory=list)


def select_keywords(state: LoopState, cfg: GenerationConfig) -> List[ConceptEntry]:
    """Next batch of uncovered entries, capped at keywords_per_turn."""
    return state.checklist.uncovered()[: cfg.keywords_per_turn]


def should_terminate(state: LoopState, cfg: GenerationConfig) -> Tuple[bool, Optional[str]]:
    if not state.checklist.uncovered():
        return True, TERMINATE_CHECKLIST_EMPTY
    if state.round >= cfg.max_rounds:
        return True, TERMINATE_MAX_ROUNDS
    if state.token_spend >= cfg.context_fill_ratio * cfg.max_context_tokens:
        return True, TERMINATE_TOKEN_BUDGET
    return False, None


def _request(template: PromptTemplate, bindings: Dict, cfg: GenerationConfig) -> ChatRequest:
    """The user request for ``template``: each referenced slot is rendered
    once, the prompt is substituted from those strings (raising UnboundSlot
    for a slot without a binding), and the request carries them as
    ``slots`` with the template name as ``stage``."""
    slots = {s: _render_value(bindings[s]) for s in template.referenced_slots() if s in bindings}
    message = ChatMessage("user", render_prompt(template, slots))
    return ChatRequest((message,), cfg.max_reply_tokens, cfg.temperature, template.name, slots)


def _call(backend, request: ChatRequest, cfg: GenerationConfig, round_index: int) -> str:
    try:
        reply = complete_with_retry(
            backend,
            request,
            max_retries=cfg.max_retries,
            base_delay=cfg.retry_base_delay,
        )
    except BackendError as exc:
        exc.round_index = round_index
        raise
    return reply.strip()


def _render_with_budget(
    template: PromptTemplate,
    bindings: Dict,
    history: List[Utterance],
    cfg: GenerationConfig,
) -> Tuple[ChatRequest, List[Utterance]]:
    """Request with the full history, dropping the oldest complete rounds
    after round 0 while the estimate is over budget. Round 0 and a trailing
    doctor question still awaiting its answer are never dropped."""
    budget = cfg.context_fill_ratio * cfg.max_context_tokens
    view = list(history)
    while True:
        request = _request(template, {**bindings, "history": view}, cfg)
        if estimate_tokens(request.messages[-1].content) <= budget or len(view) < 4:
            return request, view
        del view[2:4]


def run_round(
    state: LoopState,
    section: NoteSection,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
) -> LoopState:
    """One doctor question plus one patient answer, with coverage update."""
    templates = templates or DEFAULT_TEMPLATES
    keywords = select_keywords(state, cfg)
    state.round_keywords.append([k.surface for k in keywords])

    doctor_request, view = _render_with_budget(
        templates["doctor"],
        {"note": section.body, "keywords": keywords},
        state.history,
        cfg,
    )
    doctor_turn = Utterance(Speaker.DOCTOR, _call(backend, doctor_request, cfg, state.round), state.round)
    state.history.append(doctor_turn)
    view.append(doctor_turn)

    patient_request, view = _render_with_budget(
        templates["patient"], {"note": section.body}, view, cfg
    )
    patient_turn = Utterance(Speaker.PATIENT, _call(backend, patient_request, cfg, state.round), state.round)
    state.history.append(patient_turn)

    mark_covered(state.checklist, [doctor_turn, patient_turn], lexicon, cfg)
    state.round += 1
    state.token_spend = estimate_tokens(patient_request.messages[-1].content) + estimate_tokens(patient_turn.text)
    return state


def factuality_check(
    dialogue: Dialogue,
    section: NoteSection,
    checklist: Checklist,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
) -> List[ConceptEntry]:
    """Missing checklist entries, empty when the dialogue is complete.

    The mechanical coverage check decides the result. When it passes and the
    factuality pass is enabled, one advisory backend call asks for a yes/no
    verdict; a "no" or an unparseable reply is logged but never fails the
    dialogue, since the checklist is the testable contract.
    """
    missing = checklist.uncovered()
    if missing:
        return missing
    if not cfg.enable_factuality:
        return []
    templates = templates or DEFAULT_TEMPLATES
    request = _request(
        templates["factuality"],
        {"note": section.body, "conversation": dialogue, "keywords": list(checklist.entries)},
        cfg,
    )
    reply = _call(backend, request, cfg, round_index=-1)
    verdict = _VERDICT_RE.search(reply)
    if verdict is None:
        logger.warning("factuality verdict unparseable for note %r; treating as complete", dialogue.note_id)
    elif verdict.group(1).lower() == "no":
        logger.warning("factuality pass flagged note %r despite full keyword coverage", dialogue.note_id)
    return []


def run_section_loop(
    section: NoteSection,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
    note_id: str = "",
) -> Dialogue:
    """Generate a raw dialogue for one section.

    A section with no filtered concepts yields an empty dialogue without any
    backend calls. When the factuality pass is enabled, entries still missing
    after the main loop get at most one extra targeted round before re-check,
    bounding the loop at max_rounds + 1 rounds.
    """
    checklist = build_checklist(section, lexicon, cfg)
    state = LoopState(checklist=checklist)
    reason = TERMINATE_CHECKLIST_EMPTY
    if checklist.entries:
        while True:
            stop, reason = should_terminate(state, cfg)
            if stop:
                break
            run_round(state, section, lexicon, backend, cfg, templates)

        if cfg.enable_factuality:
            missing = factuality_check(
                Dialogue(note_id, tuple(state.history), Provenance.RAW),
                section,
                checklist,
                backend,
                cfg,
                templates,
            )
            if missing:
                run_round(state, section, lexicon, backend, cfg, templates)
                factuality_check(
                    Dialogue(note_id, tuple(state.history), Provenance.RAW),
                    section,
                    checklist,
                    backend,
                    cfg,
                    templates,
                )

    meta = {
        "coverage": {"covered": checklist.covered_count(), "total": len(checklist)},
        "termination": reason,
        "round_keywords": state.round_keywords,
        "uncovered": [e.surface for e in checklist.uncovered()],
        "checklist": checklist,
        "header": section.header.canonical_name,
    }
    return Dialogue(note_id=note_id, turns=tuple(state.history), provenance=Provenance.RAW, meta=meta)
