"""Refinement passes and pipeline assembly.

Per section: loop output is polished for fluency, then screened against the
note for fabricated content. Section dialogues are then folded left to right
into one conversation by a merge pass. All three passes go through one
guarded rewrite: if the model reply cannot be parsed back into turns, or any
previously covered keyword disappears from it, the pass keeps its input with
a warning. For the merge the input is the concatenation of the two
dialogues, so refinement can never lose coverage. The reported coverage is
counted once, on the final turns, against the note's union checklist.
"""

import logging
import re
from typing import Dict, List, Optional, Sequence, Tuple

from .concepts import Lexicon, mark_covered
from .model import (
    Checklist,
    ClinicalNote,
    ConceptEntry,
    Dialogue,
    GenerationConfig,
    PromptTemplate,
    Provenance,
    Speaker,
    Utterance,
    validate,
)
from .orchestrator import _call, _request, run_section_loop
from .prompts import DEFAULT_TEMPLATES
from .segmenter import segment_note

logger = logging.getLogger(__name__)


class Unparseable(ValueError):
    pass


# Speaker tag at line start, tolerating markdown wrappers and list bullets.
_TAG_RE = re.compile(r"^[\s>#*_-]*(doctor|patient)[\s*_]*:\s*(.*)$", re.IGNORECASE)


def parse_transcript(text: str) -> List[Utterance]:
    """Turns from speaker-tagged lines.

    A line opening with ``Doctor:`` or ``Patient:`` (markdown wrappers
    stripped) starts a turn; other non-blank lines, stage directions
    included, continue the current turn. Raises Unparseable when no speaker
    tags are found at all.
    """
    turns: List[Tuple[Speaker, List[str]]] = []
    for line in text.splitlines():
        match = _TAG_RE.match(line)
        if match:
            speaker = Speaker(match.group(1).lower())
            opening = match.group(2).lstrip("*_ ").rstrip()
            turns.append((speaker, [opening] if opening else []))
        elif turns and line.strip():
            turns[-1][1].append(line.rstrip())
    if not turns:
        raise Unparseable("no speaker tags found")
    out: List[Utterance] = []
    round_index = 0
    for position, (speaker, lines) in enumerate(turns):
        if position > 0 and speaker is Speaker.DOCTOR:
            round_index += 1
        body = "\n".join(lines).strip()
        out.append(Utterance(speaker, body or "...", round_index))
    return out


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
    dialogue: Dialogue,
    bindings: Dict,
    checklist: Checklist,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    template: PromptTemplate,
    provenance: Provenance,
    head: Tuple[Utterance, ...] = (),
) -> Dialogue:
    """``head`` plus the parsed reply to ``template``, or ``dialogue`` itself
    when the reply does not parse or drops a keyword covered in
    ``checklist``."""
    keep = "concatenating turns" if provenance is Provenance.COMBINED else "keeping input"
    reply = _call(backend, _request(template, bindings, cfg), cfg, round_index=-1)
    try:
        turns = head + tuple(parse_transcript(reply))
    except Unparseable:
        logger.warning("%s reply for note %r is unparseable; %s", template.name, dialogue.note_id, keep)
        return dialogue
    lost = _keyword_regression(checklist, turns, lexicon, cfg)
    if lost:
        logger.warning(
            "%s reply for note %r dropped keywords %s; %s", template.name, dialogue.note_id, lost, keep
        )
        return dialogue
    return Dialogue(dialogue.note_id, turns, provenance, meta=dict(dialogue.meta))


def polish(
    dialogue: Dialogue,
    note_body: str,
    checklist: Checklist,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
) -> Dialogue:
    """Fluency rewrite; falls through to the input on parse failure or any
    coverage regression."""
    if not dialogue.turns:
        raise ValueError("polish requires a non-empty dialogue")
    templates = templates or DEFAULT_TEMPLATES
    bindings = {"conversation": dialogue, "note": note_body, "keywords": list(checklist.entries)}
    return _rewrite_pass(
        dialogue, bindings, checklist, lexicon, backend, cfg, templates["polish"], Provenance.POLISHED
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
    templates = templates or DEFAULT_TEMPLATES
    bindings = {"conversation": dialogue, "note": note_body, "keywords": list(checklist.entries)}
    return _rewrite_pass(
        dialogue, bindings, checklist, lexicon, backend, cfg, templates["hallucination"], Provenance.CHECKED
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
) -> Dialogue:
    """Merge two section dialogues into one.

    In long mode only the most recent segment of the accumulated conversation
    (tracked via ``meta["tail_turns"]``) is bound into the prompt alongside
    the new segment, which keeps merge contexts small on long conversations;
    in short mode the full accumulated conversation is bound. The merge is
    guarded like the other rewrites: if the reply does not parse or drops a
    keyword covered in ``checklist``, the turns are concatenated verbatim.
    """
    if not left.turns:
        return right
    if not right.turns:
        return left
    templates = templates or DEFAULT_TEMPLATES

    head: Tuple[Utterance, ...] = ()
    bound_left = left.turns
    tail = left.meta.get("tail_turns", 0)
    if cfg.mode == "long" and 0 < tail < len(left.turns):
        head = left.turns[:-tail]
        bound_left = left.turns[-tail:]

    concatenation = Dialogue(
        left.note_id or right.note_id, left.turns + right.turns, Provenance.COMBINED, meta=dict(left.meta)
    )
    bindings = {
        "conversation": list(bound_left),
        "conversation2": list(right.turns),
        "keywords": list(checklist.entries),
        "note": note_body,
    }
    merged = _rewrite_pass(
        concatenation, bindings, checklist, lexicon, backend, cfg,
        templates["postediting"], Provenance.COMBINED, head,
    )
    # The merge tail standing in for the newest topic segment next time.
    merged.meta["tail_turns"] = min(len(merged.turns) - len(head), len(right.turns))
    return merged


def _note_meta(checklist: Checklist) -> Dict:
    """The note's bookkeeping, all of it from the recount of the final turns."""
    return {
        "coverage": {"covered": checklist.covered_count(), "total": len(checklist)},
        "keywords": [e.surface for e in checklist.entries],
        "uncovered": [e.surface for e in checklist.uncovered()],
        "checklist": checklist,
    }


def run_full_pipeline(
    note: ClinicalNote,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    templates: Optional[Dict[str, PromptTemplate]] = None,
) -> Dialogue:
    """Segment, run the loop per section, refine, and combine.

    Sections whose checklist is empty are skipped; a note with no concept
    hits anywhere returns an empty dialogue without touching the backend.
    Backend errors propagate so the caller can retry the whole note.
    """
    validate(note)
    sections = segment_note(note, cfg.similarity_threshold)

    refined: List[Tuple[Dialogue, Checklist]] = []
    for section in sections:
        dialogue = run_section_loop(section, lexicon, backend, cfg, templates, note_id=note.id)
        if not dialogue.turns:
            continue
        checklist = dialogue.meta["checklist"]
        dialogue = polish(dialogue, section.body, checklist, lexicon, backend, cfg, templates)
        dialogue = hallucination_check(dialogue, section.body, checklist, lexicon, backend, cfg, templates)
        refined.append((dialogue, checklist))

    if not refined:
        return Dialogue(note.id, (), Provenance.COMBINED, meta=_note_meta(Checklist(())))

    # The note's checklist: each CUI once, first section first.
    by_cui: Dict[str, ConceptEntry] = {}
    for _, checklist in refined:
        for entry in checklist.entries:
            by_cui.setdefault(entry.cui, entry)
    union = Checklist(by_cui.values())
    position = {cui: index for index, cui in enumerate(by_cui)}

    combined = refined[0][0]
    combined.meta.setdefault("tail_turns", len(combined.turns))
    for fold, (dialogue, checklist) in enumerate(refined):
        # The merge guard protects what the folded sections have covered.
        for entry, done in zip(checklist.entries, checklist.covered):
            if done:
                union.mark(position[entry.cui])
        if fold:
            combined = postedit_combine(
                combined, dialogue, note.text, union, lexicon, backend, cfg, templates
            )
    final = Checklist(union.entries)
    mark_covered(final, combined.turns, lexicon, cfg)
    return Dialogue(combined.note_id, combined.turns, combined.provenance, meta=_note_meta(final))
