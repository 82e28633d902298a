"""Round-by-round doctor-patient generation driven by a keyword checklist.

Each round renders the doctor prompt with the section body, the next batch of
uncovered keywords, and the running history, then renders the patient prompt
with the updated history. New utterances are checked off against the
checklist, and the loop stops when the checklist empties, the round cap is
reached, or the estimated context size exceeds its budget.

Every prompt slot is text from where it is bound: keywords are their surfaces
joined by commas, and a conversation is its ``format_transcript``. The loop
writes each history turn's transcript line once, when the turn is made, and a
prompt binds those lines joined, less any rounds its budget drops.
"""

import logging
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .backend import ChatMessage, ChatRequest, complete_with_retry, estimate_tokens
from .concepts import Lexicon, build_checklist, mark_covered
from .model import (
    Checklist,
    ConceptEntry,
    Dialogue,
    GenerationConfig,
    NoteSection,
    PromptTemplate,
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


def render_prompt(template: PromptTemplate, slots: Dict[str, str]) -> str:
    """The template body with every referenced slot replaced by its text in
    ``slots``; UnboundSlot names the first slot without one."""

    def substitute(match):
        slot = match.group(1)
        if slot not in slots:
            raise UnboundSlot(slot)
        return slots[slot]

    return TEMPLATE_SLOT_RE.sub(substitute, template.body)


@dataclass
class LoopState:
    """Mutable state owned by a single section loop."""

    checklist: Checklist
    history: List[Utterance] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)  # each history turn's transcript line
    round: int = 0
    token_spend: int = 0
    round_keywords: List[List[str]] = field(default_factory=list)

    def add(self, turn: Utterance) -> str:
        """Append ``turn`` to the history, and return its transcript line."""
        self.history.append(turn)
        self.lines.append(format_transcript((turn,)))
        return self.lines[-1]


def select_keywords(state: LoopState, cfg: GenerationConfig) -> List[ConceptEntry]:
    """Next batch of uncovered entries, capped at keywords_per_turn."""
    return state.checklist.uncovered()[: cfg.keywords_per_turn]


def should_terminate(state: LoopState, cfg: GenerationConfig) -> Tuple[bool, Optional[str]]:
    if not state.checklist.uncovered():
        return True, TERMINATE_CHECKLIST_EMPTY
    if state.round >= cfg.max_rounds:
        return True, TERMINATE_MAX_ROUNDS
    if state.token_spend >= cfg.context_budget:
        return True, TERMINATE_TOKEN_BUDGET
    return False, None


def _request(template: PromptTemplate, bindings: Dict[str, str], cfg: GenerationConfig) -> ChatRequest:
    """The user request for ``template`` rendered from the text of
    ``bindings`` (raising UnboundSlot for a slot without one). It carries the
    template name as ``stage`` and the referenced slots' text as ``slots``."""
    slots = {s: bindings[s] for s in template.referenced_slots() if s in bindings}
    message = ChatMessage("user", render_prompt(template, slots))
    return ChatRequest((message,), cfg.max_reply_tokens, cfg.temperature, template.name, slots)


def _call(backend, request: ChatRequest, cfg: GenerationConfig) -> str:
    return complete_with_retry(backend, request, cfg.max_retries, cfg.retry_base_delay).strip()


def _render_with_budget(
    template: PromptTemplate,
    bindings: Dict[str, str],
    lines: List[str],
    cfg: GenerationConfig,
) -> Tuple[ChatRequest, List[str]]:
    """Request with the history ``lines`` bound, dropping the oldest complete
    rounds after round 0 while the estimate is over budget, and the lines it
    bound. Round 0 and a trailing doctor question still awaiting its answer
    are never dropped."""
    view = list(lines)
    while True:
        request = _request(template, {**bindings, "history": "\n".join(view)}, cfg)
        if estimate_tokens(request.messages[-1].content) <= cfg.context_budget or len(view) < 4:
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
    keywords = [k.surface for k in select_keywords(state, cfg)]
    state.round_keywords.append(keywords)

    doctor_request, view = _render_with_budget(
        templates["doctor"], {"note": section.body, "keywords": ",".join(keywords)}, state.lines, cfg
    )
    doctor_turn = Utterance(Speaker.DOCTOR, _call(backend, doctor_request, cfg))
    view.append(state.add(doctor_turn))

    patient_request, view = _render_with_budget(templates["patient"], {"note": section.body}, view, cfg)
    patient_turn = Utterance(Speaker.PATIENT, _call(backend, patient_request, cfg))
    state.add(patient_turn)

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
    keywords = ",".join(e.surface for e in checklist.entries)
    request = _request(
        templates["factuality"],
        {"note": section.body, "conversation": format_transcript(dialogue.turns), "keywords": keywords},
        cfg,
    )
    reply = _call(backend, request, cfg)
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
    """Generate a dialogue for one section, with ``meta`` keeping its
    ``checklist``, ``termination`` reason and ``round_keywords``.

    A section with no filtered concepts yields an empty dialogue without any
    backend calls. When the factuality pass is enabled, entries still missing
    after the main loop get one extra targeted round before the check,
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
            if checklist.uncovered():
                run_round(state, section, lexicon, backend, cfg, templates)
            factuality_check(Dialogue(note_id, state.history), section, checklist, backend, cfg, templates)

    meta = {"checklist": checklist, "termination": reason, "round_keywords": state.round_keywords}
    return Dialogue(note_id, state.history, meta)
