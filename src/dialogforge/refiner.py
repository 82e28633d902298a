"""Refinement passes and pipeline assembly.

Per section: loop output is polished for fluency, then screened against the
note for fabricated content. That chain reads only its own section, so a
caller's ``map_sections`` may run a note's section chains concurrently. The
section dialogues are then folded left to right into one conversation by a
merge pass, on the calling thread. All three passes go through one
guarded rewrite. A reply that ``model.echoes`` the turns sent is its input,
taken with no parse or guard; any other is read with ``parse_transcript``: if
it cannot be parsed back into turns, changes who speaks first, or loses any
previously covered keyword, the pass keeps its input with a warning. For the
merge the input is the concatenation of the two dialogues, so refinement can
never lose coverage. The reported coverage is counted once, on the final turns,
against the note's union checklist.
"""

import logging
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .concepts import Lexicon, mark_covered
from .model import (
    Checklist,
    ClinicalNote,
    ConceptEntry,
    Dialogue,
    GenerationConfig,
    PromptTemplate,
    Unparseable,
    Utterance,
    echoes,
    format_transcript,
    parse_transcript,
)
from .orchestrator import _call, _request, run_section_loop
from .prompts import DEFAULT_TEMPLATES
from .segmenter import segment_note

logger = logging.getLogger(__name__)


def _keyword_regression(
    checklist: Checklist,
    candidate_turns: Sequence[Utterance],
    lexicon: Lexicon,
    cfg: GenerationConfig,
) -> List[str]:
    """Previously covered surfaces that the candidate turns no longer cover."""
    flagged = Checklist(e for e, done in zip(checklist.entries, checklist.covered) if done)
    mark_covered(flagged, candidate_turns, lexicon, cfg)
    return [entry.surface for entry in flagged.uncovered()]


def _rewrite_pass(
    stage: str,
    dialogue: Dialogue,
    note_body: str,
    checklist: Checklist,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]],
    conversation: Sequence[Utterance],
    conversation2: Sequence[Utterance] = (),
    head: Tuple[Utterance, ...] = (),
) -> Dialogue:
    """The one body of polish, hallucination_check and postedit_combine:
    ``head`` plus the reply to the ``stage`` template bound to the
    conversations, note body and checklist: the bound turns if it echoes them,
    else its parse, or ``dialogue`` itself when the reply does not parse,
    changes who speaks first or drops a keyword covered in ``checklist``."""
    template = (templates or DEFAULT_TEMPLATES)[stage]
    bindings = {"conversation": format_transcript(conversation), "conversation2": format_transcript(conversation2)}
    bindings.update(note=note_body, keywords=",".join(e.surface for e in checklist.entries))
    keep = "concatenating turns" if stage == "postediting" else "keeping input"
    reply = _call(backend, _request(template, bindings, cfg), cfg)
    bound = (*conversation, *conversation2)
    # format_transcript(bound), from the slots already formatted.
    transcript = "\n".join(slot for slot in (bindings["conversation"], bindings["conversation2"]) if slot)
    if echoes(reply, transcript, len(bound)):
        return Dialogue(dialogue.note_id, head + bound)
    try:
        turns = head + tuple(parse_transcript(reply))
    except Unparseable:
        problem = "is unparseable"
    else:
        if turns[0].speaker is not dialogue.turns[0].speaker:
            # The parser drops an untagged opening line, and its turn with it.
            problem = "changes who speaks first"
        elif lost := _keyword_regression(checklist, turns, lexicon, cfg):
            problem = f"dropped keywords {lost}"
        else:
            return Dialogue(dialogue.note_id, turns)
    logger.warning("%s reply for note %r %s; %s", template.name, dialogue.note_id, problem, keep)
    return dialogue


def polish(
    dialogue: Dialogue,
    note_body: str,
    checklist: Checklist,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
) -> Dialogue:
    """Fluency rewrite; falls through to the input on parse failure, a changed
    first speaker or any coverage regression."""
    if not dialogue.turns:
        raise ValueError("polish requires a non-empty dialogue")
    return _rewrite_pass(
        "polish", dialogue, note_body, checklist, lexicon, backend, cfg, templates, dialogue.turns
    )


def hallucination_check(
    dialogue: Dialogue,
    note_body: str,
    checklist: Checklist,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
) -> Dialogue:
    """Note-consistency rewrite with the same safeguard as polish."""
    if not dialogue.turns:
        raise ValueError("hallucination_check requires a non-empty dialogue")
    return _rewrite_pass(
        "hallucination", dialogue, note_body, checklist, lexicon, backend, cfg, templates, dialogue.turns
    )


def postedit_combine(
    left: Dialogue,
    right: Dialogue,
    note_body: str,
    checklist: Checklist,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
    head: int = 0,
) -> Dialogue:
    """Merge two section dialogues into one.

    The first ``head`` turns of ``left`` are kept verbatim and not bound into
    the prompt; the rest of ``left`` is bound alongside ``right``. The merge
    is guarded like the other rewrites, with the kept turns counted; when the
    guard refuses the reply, the turns are concatenated verbatim.
    """
    if not left.turns:
        return right
    if not right.turns:
        return left
    concatenation = Dialogue(left.note_id or right.note_id, left.turns + right.turns)
    return _rewrite_pass(
        "postediting", concatenation, note_body, checklist, lexicon, backend, cfg, templates,
        left.turns[head:], right.turns, left.turns[:head],
    )


def run_full_pipeline(
    note: ClinicalNote,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
    map_sections: Callable = map,
) -> Dialogue:
    """Segment, run the loop per section, refine, and combine.

    Each section's loop, polish and hallucination check is one chain.
    ``map_sections(chain, sections)`` runs it on every section and yields the
    results in section order, like the builtin ``map``, which runs them one
    after another; a caller's ``map_sections`` may run them concurrently. The
    merge fold then runs here, left to right.

    In short mode every merge binds the whole conversation so far. In long
    mode a later merge binds only the newest turns the previous merge wrote,
    at most as many as its right side had, and keeps the older ones verbatim.

    The result holds the turns and ``meta["checklist"]``: the note's CUIs once
    each, first section first, marked on the final turns.

    Sections whose checklist is empty are skipped; a note with no concept
    hits anywhere returns an empty dialogue without touching the backend.
    Backend errors propagate so the caller can retry the whole note.
    """
    sections = segment_note(note, cfg.similarity_threshold)

    def refine(section) -> Optional[Tuple[Dialogue, Checklist]]:
        dialogue = run_section_loop(section, lexicon, backend, cfg, templates, note_id=note.id)
        if not dialogue.turns:
            return None
        checklist = dialogue.meta["checklist"]
        dialogue = polish(dialogue, section.body, checklist, lexicon, backend, cfg, templates)
        dialogue = hallucination_check(dialogue, section.body, checklist, lexicon, backend, cfg, templates)
        return dialogue, checklist

    refined = [r for r in map_sections(refine, sections) if r is not None]

    if not refined:
        return Dialogue(note.id, (), {"checklist": Checklist(())})

    # The note's checklist: each CUI once, first section first.
    by_cui: Dict[str, ConceptEntry] = {}
    for _, checklist in refined:
        for entry in checklist.entries:
            by_cui.setdefault(entry.cui, entry)
    union = Checklist(by_cui.values())
    position = {cui: index for index, cui in enumerate(by_cui)}

    combined = refined[0][0]
    head = 0  # the leading turns of ``combined`` that merges keep unbound
    for fold, (dialogue, checklist) in enumerate(refined):
        # The merge guard protects what the folded sections have covered.
        for entry, done in zip(checklist.entries, checklist.covered):
            if done:
                union.mark(position[entry.cui])
        if fold:
            combined = postedit_combine(
                combined, dialogue, note.text, union, lexicon, backend, cfg, templates, head
            )
            if cfg.mode == "long":
                head = max(head, len(combined.turns) - len(dialogue.turns))

    final = Checklist(union.entries)
    mark_covered(final, combined.turns, lexicon, cfg)
    return Dialogue(note.id, combined.turns, {"checklist": final})
