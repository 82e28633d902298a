"""Refinement passes and pipeline assembly.

Per section: loop output is polished for fluency, then screened against the
note for fabricated content. Section dialogues are then folded left to right
into one conversation. Both rewrite passes are guarded: if the model reply
cannot be parsed back into turns, or any previously covered keyword
disappears from it, the pass falls through to its input with a warning, so
refinement can never lose coverage.
"""

import logging
import re
from typing import Dict, List, Optional, Tuple

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
    candidate_turns: List[Utterance],
    lexicon: Lexicon,
    cfg: GenerationConfig,
) -> List[str]:
    """Previously covered surfaces that the candidate turns no longer cover."""
    fresh = checklist.fresh_copy()
    mark_covered(fresh, candidate_turns, lexicon, cfg)
    return [
        entry.surface
        for entry, was, now in zip(checklist.entries, checklist.covered, fresh.covered)
        if was and not now
    ]


def _rewrite_pass(
    dialogue: Dialogue,
    note_body: str,
    checklist: Checklist,
    lexicon: Lexicon,
    backend,
    cfg: GenerationConfig,
    template: PromptTemplate,
    provenance: Provenance,
) -> Dialogue:
    request = _request(
        template,
        {"conversation": dialogue, "note": note_body, "keywords": list(checklist.entries)},
        cfg,
    )
    reply = _call(backend, request, cfg, round_index=-1)
    try:
        turns = parse_transcript(reply)
    except Unparseable:
        logger.warning("%s reply for note %r is unparseable; keeping input", template.name, dialogue.note_id)
        return dialogue
    lost = _keyword_regression(checklist, turns, lexicon, cfg)
    if lost:
        logger.warning(
            "%s reply for note %r dropped keywords %s; keeping input",
            template.name,
            dialogue.note_id,
            lost,
        )
        return dialogue
    return Dialogue(dialogue.note_id, tuple(turns), provenance, meta=dict(dialogue.meta))


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
    result = dialogue
    for _ in range(cfg.polish_repeats):
        result = _rewrite_pass(
            result, note_body, checklist, lexicon, backend, cfg,
            templates["polish"], Provenance.POLISHED,
        )
    return result


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
    return _rewrite_pass(
        dialogue, note_body, checklist, lexicon, backend, cfg,
        templates["hallucination"], Provenance.CHECKED,
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
    in short mode the full accumulated conversation is bound. If the reply
    does not parse, the turns are concatenated verbatim.
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

    request = _request(
        templates["postediting"],
        {
            "conversation": list(bound_left),
            "conversation2": list(right.turns),
            "keywords": list(checklist.entries),
            "note": note_body,
        },
        cfg,
    )
    reply = _call(backend, request, cfg, round_index=-1)
    try:
        merged = tuple(parse_transcript(reply))
    except Unparseable:
        logger.warning("combine reply for note %r is unparseable; concatenating turns", left.note_id)
        merged = tuple(bound_left) + tuple(right.turns)

    meta = dict(left.meta)
    # The merge tail standing in for the newest topic segment next time.
    meta["tail_turns"] = min(len(merged), len(right.turns))
    return Dialogue(
        note_id=left.note_id or right.note_id,
        turns=head + merged,
        provenance=Provenance.COMBINED,
        meta=meta,
    )


def _union_checklist(checklists: List[Checklist]) -> Checklist:
    seen = set()
    entries: List[ConceptEntry] = []
    for checklist in checklists:
        for entry in checklist.entries:
            if entry.cui not in seen:
                seen.add(entry.cui)
                entries.append(entry)
    return Checklist(entries)


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

    covered = sum(cl.covered_count() for _, cl in refined)
    total = sum(len(cl) for _, cl in refined)
    if not refined:
        return Dialogue(
            note.id, (), Provenance.COMBINED,
            meta={"coverage": {"covered": 0, "total": 0}, "keywords": []},
        )

    union = _union_checklist([cl for _, cl in refined])
    combined = refined[0][0]
    combined.meta.setdefault("tail_turns", len(combined.turns))
    for dialogue, _ in refined[1:]:
        combined = postedit_combine(
            combined, dialogue, note.text, union, lexicon, backend, cfg, templates
        )
    combined.meta["coverage"] = {"covered": covered, "total": total}
    combined.meta["keywords"] = [e.surface for e in union.entries]
    combined.meta["checklist"] = union
    return combined
