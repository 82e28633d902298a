"""Seeded inputs for the benchmark: lexicons, clinical notes and dialogue pairs.

Everything is built from one ``random.Random`` so that the same seed gives
byte-identical files. Shapes (keywords per section of each note, turns per
dialogue) are fixed per workload, so that runs on different seeds do the same
amount of work; the seed picks the contents.

Lexicon surfaces are made of synthetic words that never occur in the filler
text. With the program's default approximate threshold (0.7) and surfaces of
at most three tokens, a window that contains a filler word can never reach the
threshold, so in a note every planted keyword is found exactly and nothing
else is. Where the pipeline lists keywords side by side ("about a, b c"), a
window across two keywords can still match a third entry by its token set;
the output checks accept such a mention only where the brute-force tagger of
``tests/oracles.py`` finds it too, and record it.
"""

import random
from typing import Dict, List, Sequence, Tuple

HEADERS = (
    "CHIEF COMPLAINT",
    "HISTORY OF PRESENT ILLNESS",
    "PAST MEDICAL HISTORY",
    "MEDICATIONS",
    "ASSESSMENT",
    "PLAN",
    "REVIEW OF SYSTEMS",
    "PROCEDURES",
    "IMAGING",
    "FAMILY HISTORY",
)

_SYLLABLES = (
    "ka", "lo", "mi", "zen", "dra", "vel", "tor", "phi", "nex", "sul",
    "bra", "quin", "mo", "rax", "ti", "ven", "cor", "dal", "fe", "gu",
    "pra", "xo", "lum", "zi", "hep", "tro", "vas", "cil", "nor", "bex",
)

# Filler words for note sentences. None can be produced from the syllables
# above by ``_pseudo_word`` (checked at generation time).
_NOTE_FRAMES = (
    "Reports {} since Monday.",
    "History of {} noted.",
    "Started on {} recently.",
    "Denies any {} today.",
    "We discussed {} today.",
    "Records mention {} before.",
    "Asks whether {} matters.",
    "Will review {} soon.",
)

# (surface tokens, reportable) of successive keywords in a note. A fixed cycle
# keeps a note's token count, and so its cost, the same on every seed.
_KEYWORD_SLOTS = ((2, True), (1, True), (3, True), (2, True), (1, False), (2, True), (1, True))

PREAMBLE_LINE = "Seen today for a follow-up visit."

GROUPS = ("disease", "drug", "device", "procedure", "other")
_GROUP_WEIGHTS = (30, 30, 10, 15)
REPORTABLE = frozenset(GROUPS[:4])
# Surface widths of successive lexicon rows: 30 % one token, 50 % two, 20 % three.
_WIDTHS = (1, 2, 2, 3, 1, 2, 1, 2, 3, 2)


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.choice((2, 3, 3, 4))))


def _word_pool(rng: random.Random, count: int, taken: set) -> List[str]:
    pool: List[str] = []
    while len(pool) < count:
        word = _pseudo_word(rng)
        if word not in taken:
            taken.add(word)
            pool.append(word)
    return pool


def _filler_words() -> set:
    words = set()
    for frame in _NOTE_FRAMES:
        words.update(frame.lower().replace(".", "").replace("{}", "").split())
    for header in HEADERS:
        words.update(header.lower().split())
    words.update(PREAMBLE_LINE.lower().replace(".", "").replace("-", " ").split())
    words.update(("doctor", "patient", "can", "you", "tell", "me", "about", "i", "have"))
    return words


Row = Tuple[str, str, str]  # surface, cui, group


def make_lexicon(rng: random.Random, entries: int, synonym_share: float) -> List[Row]:
    """``entries`` rows with 1-3 token surfaces and unique token sets.

    Surface widths and the share of non-reportable ("other") rows follow
    fixed cycles, so every kind of keyword a note asks for exists even in a
    small lexicon. About ``synonym_share`` of the rows reuse the CUI (and
    group) of an earlier row, so that coverage can be credited through a
    synonym.
    """
    if entries < len(_WIDTHS):
        raise ValueError(f"a lexicon needs at least {len(_WIDTHS)} entries")
    taken = _filler_words()
    vocab = _word_pool(rng, max(8, int(entries * 0.9)), taken)
    rows: List[Row] = []
    by_kind: Dict[bool, List[Row]] = {True: [], False: []}
    token_sets = set()
    while len(rows) < entries:
        index = len(rows)
        tokens = rng.sample(vocab, _WIDTHS[index % len(_WIDTHS)])
        key = frozenset(tokens)
        if key in token_sets:
            continue
        token_sets.add(key)
        reportable = index % 7 != 4
        earlier = by_kind[reportable]
        if earlier and rng.random() < synonym_share:
            _, cui, group = rng.choice(earlier)
        else:
            cui = f"C{index:07d}"
            group = rng.choices(GROUPS[:4], weights=_GROUP_WEIGHTS)[0] if reportable else "other"
        row = (" ".join(tokens), cui, group)
        rows.append(row)
        earlier.append(row)
    return rows


def lexicon_text(rows: Sequence[Row]) -> str:
    return "".join(f"{s}\t{c}\t{g}\n" for s, c, g in rows)


def make_note(rng: random.Random, rows: Sequence[Row], shape: Sequence[int]) -> Tuple[str, List[str]]:
    """Note text with one headed section per entry of ``shape``, and the
    surfaces expected in the union checklist (one per reportable CUI, first
    occurrence, in document order)."""
    pools = {}
    for index, (surface, _, group) in enumerate(rows):
        pools.setdefault((len(surface.split()), group in REPORTABLE), []).append(index)
    headers = rng.sample(HEADERS, len(shape))
    lines = []
    if rng.random() < 0.3:
        lines.append(PREAMBLE_LINE)
    expected: List[str] = []
    seen_cuis = set()
    slot = 0
    for header, n_keywords in zip(headers, shape):
        lines.append(f"{header}:")
        sentences = []
        for _ in range(n_keywords):
            surface, cui, group = rows[rng.choice(pools[_KEYWORD_SLOTS[slot % len(_KEYWORD_SLOTS)]])]
            slot += 1
            sentences.append(rng.choice(_NOTE_FRAMES).format(surface))
            if group in REPORTABLE and cui not in seen_cuis:
                seen_cuis.add(cui)
                expected.append(surface)
        lines.append(" ".join(sentences))
    return "\n".join(lines) + "\n", expected


def make_notes(rng: random.Random, rows: Sequence[Row], shapes: Sequence[Sequence[int]], prefix: str) -> List[Dict]:
    notes = []
    for i, shape in enumerate(shapes):
        text, expected = make_note(rng, rows, shape)
        notes.append({"id": f"{prefix}{i}", "text": text, "expected": expected})
    return notes


def turn_lengths(rng: random.Random, count: int, tokens: Tuple[int, int]) -> List[int]:
    """``count`` utterance lengths over [lo, hi], skewed short (cubic spacing,
    mean about lo + (hi - lo) / 4), in seeded order. The sum depends only on
    ``count``, so a dialogue's size does not depend on the seed."""
    lo, hi = tokens
    lengths = [lo + round((hi - lo) * ((i + 0.5) / count) ** 3) for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def _zipf_sampler(rng: random.Random, vocab: Sequence[str]):
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]

    def draw(k: int) -> List[str]:
        return rng.choices(vocab, weights=weights, k=k)

    return draw


def make_pair(
    rng: random.Random,
    vocab: Sequence[str],
    rows: Sequence[Row],
    lengths: Sequence[int],
    concept_rate: float,
) -> Tuple[List[str], List[str]]:
    """(hypothesis turns, reference turns), one reference turn per entry of
    ``lengths`` (its token count before concepts are spliced in). The
    hypothesis perturbs each reference turn: about a fifth of its tokens are
    dropped or replaced and a few are inserted, so that LCS alignments are
    long but not trivial."""
    draw = _zipf_sampler(rng, vocab)
    ref, hyp = [], []
    for length in lengths:
        words = draw(length)
        if rng.random() < concept_rate:
            at = rng.randrange(len(words))
            words[at:at + 1] = rng.choice(rows)[0].split()
        ref.append(" ".join(words))
        out = []
        for word in words:
            roll = rng.random()
            if roll < 0.1:
                continue
            out.append(draw(1)[0] if roll < 0.2 else word)
            if rng.random() < 0.05:
                out.extend(draw(1))
        if rng.random() < concept_rate / 2:
            out.extend(rng.choice(rows)[0].split())
        hyp.append(" ".join(out or words[:1]))
    return hyp, ref


def make_vocab(rng: random.Random, size: int, rows: Sequence[Row]) -> List[str]:
    taken = _filler_words() | {w for s, _, _ in rows for w in s.split()}
    return _word_pool(rng, size, taken)


def dialogue_record(pair_id: str, texts: Sequence[str]) -> Dict:
    speakers = ("doctor", "patient")
    return {"id": pair_id, "turns": [{"speaker": speakers[i % 2], "text": t} for i, t in enumerate(texts)]}
