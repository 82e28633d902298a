"""N-gram and concept-overlap evaluation.

All similarity scores are F1-style fractions in [0, 1]. Tokenization is
lowercase word tokens split on any run of non-alphanumeric characters.

BLEU uses clipped n-gram precisions up to ``MAX_N`` with a documented
smoothing rule: a zero precision at order n is replaced by 1 / (2 * H_n)
where H_n is the hypothesis n-gram count (floored at 1 when the hypothesis
is shorter than n), and the whole score is 0 when the hypothesis has no
unigrams. The brevity penalty is exp(1 - r/h) for hypotheses shorter than
the closest reference, else 1.

The line-union LCS variant (``rouge_lsum``) credits, per line, the token
positions hit by the greedy earliest longest common subsequence against each
opposing line: the alignment whose position tuple is lexicographically
smallest among all maximum-length common subsequences. That canonical choice
makes the score independent of backtrace implementation details.

Every LCS comes from one bit-parallel kernel (Allison & Dix 1986; Hyyrö
2004) in O(n * m / w) word operations: with ``b``'s token position masks, row
``k`` is an int updated by ``u = v & mask; v = ((v + u) | (v - u)) & full``,
and its zero bits below bit ``l`` count LCS(a[:k], b[:l]). ``rouge_lsum``
runs it on both lines reversed, so bit ``m - 1 - j`` of ``rows[n - i]`` is set
exactly when LCS(a[i:], b[j + 1:]) == LCS(a[i:], b[j:]): when the earliest
walk, at target position ``i``, may pass ``b[j]`` without shortening the LCS.

``rouge_lsum`` runs the kernel once per target line against all opposing
lines at once (multiple-pattern packing; Hyyrö, Fredriksson & Navarro, ACM
JEA 2005). Each non-empty opposing line, reversed, gets its own field of one
wide int, with a zero guard bit above it; a token's mask ORs its position
masks at each field's offset, and ``full`` ORs the fields without their guard
bits. The step is unchanged and each field equals its own single-line run:
``u ⊆ v`` inside every field, so ``v - u`` never borrows across a field, and a
carry out of ``v + u`` stops in the zero guard bit, which ``& full`` clears.

Then every line's walk advances at once, one packed step a target token.
Each row is flipped, bit-reversed over whole bytes through a 256-entry byte
table, which puts each line forward, first token lowest, with a zero bit just
above its last token (the guard bit of the line packed after it). At position
``i`` a walk stops at its first position at or after its ``j`` that holds
``a[i]`` or that it may not pass; it hits ``i`` when that stop holds ``a[i]``
and then moves past it, and else stays there. One step does that in every
field: ``run`` sets the positions already passed and those the walk may pass
that do not hold ``a[i]``, and adding each field's lowest bit carries up
through that run to its first zero, the stop, which the sum sets while it
clears the run. The zero bit above each field is a sentinel: a run ends at it
at the latest, so the carry never leaves its field, and a walk that reaches
its line's end stops on it for good. The sum meets ``a[i]``'s flipped mask exactly
at the stops that hold ``a[i]``. A target line costs one kernel run and one
packed step a token, with no walk per line pair.

``evaluate_corpus`` tokenizes each turn's text once: its speaker tag, then
the words of each of its lines. No word token spans a line end, and a line end
stops the context of a case mapping (a final sigma), so these are the lines of
the rendered transcript, and a turn's tokens are its lines' less the tag. The
hypothesis's n-grams of each order 1..``MAX_N`` are listed once, in text
order. ROUGE-1, ROUGE-2 and BLEU count that list against the reference's
counts: the clipped count per order is ``min(hyp, ref)`` summed over n-grams;
``bleu`` clips each n-gram at its largest count in any one reference
(Papineni et al., ACL 2002). Self-BLEU (Zhu et al., SIGIR 2018) scores each
turn against all its siblings, and takes a turn's n-grams as a slice of the
same list: its token span less the tag, so no n-gram across turns counts. An
n-gram a turn holds once is clipped to 1 exactly when another turn holds it,
so a turn's hits are the size of its n-gram set intersected with the n-grams
of two or more turns. Only an n-gram repeated inside a turn needs the largest
count among the other turns, read off the largest count, its turn and the
second largest. Clipped counts are integers, so none of this changes a score.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import exp, log
from operator import or_
from typing import Dict, List, Optional, Sequence, Tuple

from .concepts import Lexicon, concepts_of_tokens, filter_semantic_groups
from .model import Dialogue, EvalReport, GenerationConfig, Utterance, f1_score, split_lines, words

MAX_N = 4  # highest n-gram order of BLEU and Self-BLEU


@dataclass(frozen=True)
class TokenizedText:
    tokens: Tuple[str, ...]


def tokenize(text: str) -> TokenizedText:
    """Lowercase word tokens; digits kept, underscores split."""
    return TokenizedText(tuple(words(text)))


def _ngrams(tokens: Sequence[str], n: int) -> List[Tuple[str, ...]]:
    """The n-grams of ``tokens`` in order, each a tuple of ``n`` tokens."""
    return list(zip(*(tokens[i:] for i in range(n))))


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """Count of each n-gram of ``tokens``."""
    return Counter(_ngrams(tokens, n))


def _clipped(a: Counter, b: Counter) -> int:
    """Matched n-grams: the sum over n-grams of the smaller count."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    matched = 0
    for gram, x in a.items():
        y = get(gram)
        if y:
            matched += x if x < y else y
    return matched


def _rouge_n_score(matched: int, hyp_grams: int, ref_grams: int) -> float:
    """F1 of ``matched`` n-grams out of each side's count; 0 when either side
    has none (a count under 1 is a text shorter than the order)."""
    if hyp_grams < 1 or ref_grams < 1:
        return 0.0
    return f1_score(matched / hyp_grams, matched / ref_grams)


def rouge_n(hyp: TokenizedText, ref: TokenizedText, n: int) -> float:
    """Clipped n-gram overlap F1; 0 when either side has no n-grams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    matched = _clipped(_ngram_counts(hyp.tokens, n), _ngram_counts(ref.tokens, n))
    return _rouge_n_score(matched, len(hyp.tokens) - n + 1, len(ref.tokens) - n + 1)


def _match_masks(b: Sequence[str]) -> Dict[str, int]:
    """Each token of ``b`` mapped to the bitmask of its positions in ``b``."""
    masks: Dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    return masks


def _lcs_rows(a: Sequence[str], masks: Dict[str, int], full: int) -> List[int]:
    """Rows 0..len(a) of the bit-parallel LCS table of ``a`` against ``masks``,
    whose pattern bits are those of ``full``."""
    v = full
    rows = [v]
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    return rows


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    return len(b) - _lcs_rows(a, _match_masks(b), (1 << len(b)) - 1)[-1].bit_count()


def rouge_l(hyp: TokenizedText, ref: TokenizedText) -> float:
    """Whole-text LCS F1; 0 when either side is empty."""
    if not hyp.tokens or not ref.tokens:
        return 0.0
    lcs = _lcs_length(hyp.tokens, ref.tokens)
    return f1_score(lcs / len(hyp.tokens), lcs / len(ref.tokens))


# Bit k of _FLIPPED[b] is bit 7 - k of the byte b.
_FLIPPED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _union_hits(target_lines: List[Tuple[str, ...]], other_lines: List[Tuple[str, ...]]) -> List[int]:
    """Per line of ``target_lines``, the bitmask of its positions hit by the
    earliest LCS against any of ``other_lines``: one packed kernel run a target
    line, then every line's walk at once, one packed step a target token."""
    packed: List[Optional[str]] = []  # the token at each bit; None at a guard bit
    for other in other_lines:
        if other:
            packed += other[::-1]
            packed.append(None)
    size = (len(packed) + 7) // 8  # whole bytes, so that rows flip byte by byte
    masks = _match_masks(packed)
    full = (1 << len(packed)) - 1 ^ masks.pop(None, 0)
    # The same bits flipped over ``size`` bytes: each line forward, with the
    # guard bit of the line after it just above its last token.
    forward = _match_masks([None] * (8 * size - len(packed)) + packed[::-1])
    fields = (1 << 8 * size) - 1 ^ forward.pop(None, 0)
    firsts = fields & ~(fields << 1)  # each line's first token
    # token -> (its flipped mask, the other positions of every line)
    at = {token: (same, fields ^ same) for token, same in forward.items()}
    absent = (0, fields)
    hits_per_line = []
    for target in target_lines:
        hits = 0
        if not masks.keys().isdisjoint(target):
            # Every row flipped by one translate; reversing the bytes puts the
            # rows in target order, so rows[i] is row n - i: bit j of a line
            # is set when the walk may pass b[j] at target position i.
            flipped = b"".join([row.to_bytes(size, "little") for row in _lcs_rows(target[::-1], masks, full)])
            flipped = flipped.translate(_FLIPPED)[::-1]
            rows = [int.from_bytes(flipped[k : k + size], "little") for k in range(0, len(target) * size, size)]
            passed = 0  # each line's positions its walk has gone past
            for i, token in enumerate(target):
                same, other = at.get(token, absent)
                run = rows[i] & other | passed  # passed, or passable without a match
                stop = run + firsts  # sets each line's stop, clears the run below it
                if stop & same:  # a stop holds a[i]
                    hits |= 1 << i
                passed = (run ^ stop) & (run | same)  # the run, and each stop that holds a[i]
        hits_per_line.append(hits)
    return hits_per_line


def rouge_lsum(hyp_lines: Sequence[str], ref_lines: Sequence[str]) -> float:
    """Line-union LCS F1 over one-utterance-per-line renderings."""
    return _lsum_score([tokenize(line).tokens for line in hyp_lines], [tokenize(line).tokens for line in ref_lines])


def _lsum_score(hyp_tokens: List[Tuple[str, ...]], ref_tokens: List[Tuple[str, ...]]) -> float:
    """``rouge_lsum`` from the tokens of each line."""
    hyp_total = sum(len(t) for t in hyp_tokens)
    ref_total = sum(len(t) for t in ref_tokens)
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    recall = sum(h.bit_count() for h in _union_hits(ref_tokens, hyp_tokens)) / ref_total
    precision = sum(h.bit_count() for h in _union_hits(hyp_tokens, ref_tokens)) / hyp_total
    return f1_score(precision, recall)


def _bleu_score(matched: Sequence[int], h: int, r: int) -> float:
    """Smoothed BLEU of an ``h``-token hypothesis that has ``matched[n - 1]``
    clipped n-grams of order n, against a closest reference length ``r``."""
    if h == 0:
        return 0.0
    log_sum = 0.0
    for n, hits in enumerate(matched, start=1):
        total = max(h - n + 1, 1)
        log_sum += log(hits / total if hits else 1.0 / (2 * total))
    score = exp(log_sum / MAX_N)
    return score * exp(1.0 - r / h) if h < r else score


def _sibling_bleu(dialogue: Dialogue, grams: Sequence[Sequence], spans: Sequence[Tuple[int, int]]) -> float:
    """Mean smoothed BLEU of each turn of ``dialogue`` with all the other turns
    as its references. Turn ``t`` holds the tokens ``spans[t]`` of a text
    whose n-grams of order n, in order, are ``grams[n - 1]``."""
    if len(spans) < 2:
        raise ValueError(f"dialogue {dialogue.note_id!r} has {len(spans)} utterance(s); need >= 2")
    hits = [[0] * MAX_N for _ in spans]
    for n, text_grams in enumerate(grams, start=1):
        # a turn shorter than n has no n-gram, so its slice stays empty
        units = [text_grams[start : max(start, end - n + 1)] for start, end in spans]
        sets = [set(unit) for unit in units]
        seen: set = set()
        shared: set = set()  # the n-grams of two or more turns
        for unit_set in sets:
            shared |= unit_set & seen
            seen |= unit_set
        # A turn's n-gram of count 1 is clipped to 1 exactly when another turn
        # holds it. One of count c > 1 is clipped to the largest count among
        # the other turns, read off the largest, its turn and the second.
        repeats = []
        top: Dict[Tuple[str, ...], Tuple[int, int, int]] = {}  # (largest, its turn, second)
        for t, (unit, unit_set) in enumerate(zip(units, sets)):
            hits[t][n - 1] = len(unit_set & shared)
            if len(unit_set) < len(unit):
                counts = [(gram, count) for gram, count in Counter(unit).items() if count > 1 and gram in shared]
                repeats.append((t, counts))
                for gram, count in counts:
                    first, owner, second = top.get(gram, (0, -1, 0))
                    top[gram] = (count, t, first) if count > first else (first, owner, max(second, count))
        for t, counts in repeats:
            for gram, count in counts:
                first, owner, second = top[gram]
                hits[t][n - 1] += min(count, max(second if owner == t else first, 1)) - 1
    lengths = sorted(end - start for start, end in spans)
    scores = []
    for (start, end), unit_hits in zip(spans, hits):
        h = end - start
        # closest other length, ties to the shorter; lengths[k] is the unit's own
        k = bisect_left(lengths, h)
        neighbours = lengths[max(k - 1, 0) : k] + lengths[k + 1 : k + 2]
        r = min((abs(other - h), other) for other in neighbours)[1]
        scores.append(_bleu_score(unit_hits, h, r))
    return sum(scores) / len(scores)


def bleu(hyp: TokenizedText, refs: Sequence[TokenizedText]) -> float:
    """Smoothed corpus-style BLEU of one hypothesis against references."""
    if not refs:
        raise ValueError("refs must be non-empty")
    # the clip of an n-gram is its largest count in any one reference
    matched = [
        _clipped(_ngram_counts(hyp.tokens, n), reduce(or_, (_ngram_counts(ref.tokens, n) for ref in refs)))
        for n in range(1, MAX_N + 1)
    ]
    h = len(hyp.tokens)
    r = min((abs(len(ref.tokens) - h), len(ref.tokens)) for ref in refs)[1]
    return _bleu_score(matched, h, r)


def self_bleu(corpus: Sequence[Dialogue]) -> float:
    """Mean BLEU of each utterance against its dialogue siblings.

    Lower is more diverse. Raises ValueError when any dialogue has fewer
    than two utterances.
    """
    if not corpus:
        raise ValueError("no dialogues to score")
    means = []
    for dialogue in corpus:
        _, tokens, spans = _transcript(dialogue.turns)
        means.append(_sibling_bleu(dialogue, [_ngrams(tokens, n) for n in range(1, MAX_N + 1)], spans))
    return sum(means) / len(means)


def concept_scores(
    hyp_text: str,
    ref_text: str,
    lexicon: Lexicon,
    cfg: GenerationConfig,
) -> Tuple[float, float, float]:
    """(recall, precision, f1) of filtered CUI overlap between two texts."""
    return _concept_overlap(words(hyp_text), words(ref_text), lexicon, cfg)


def _concept_overlap(
    hyp_tokens: Sequence[str],
    ref_tokens: Sequence[str],
    lexicon: Lexicon,
    cfg: GenerationConfig,
) -> Tuple[float, float, float]:
    """``concept_scores`` from the word tokens of each text."""
    threshold = cfg.concept_threshold
    hyp_cuis = {c.cui for c in filter_semantic_groups(concepts_of_tokens(hyp_tokens, lexicon, threshold))}
    ref_cuis = {c.cui for c in filter_semantic_groups(concepts_of_tokens(ref_tokens, lexicon, threshold))}
    overlap = len(hyp_cuis & ref_cuis)
    recall = overlap / len(ref_cuis) if ref_cuis else 0.0
    precision = overlap / len(hyp_cuis) if hyp_cuis else 0.0
    return recall, precision, f1_score(precision, recall)


def evaluate_corpus(
    pairs: Sequence[Tuple[Dialogue, Dialogue]],
    lexicon: Lexicon,
    cfg: GenerationConfig,
) -> EvalReport:
    """Macro-averaged report over (hypothesis, reference) dialogue pairs.

    Dialogues are rendered one utterance per line; self-BLEU is computed over
    the hypothesis corpus and ``len`` is the mean hypothesis utterance count.
    """
    if not pairs:
        raise ValueError("no dialogue pairs to evaluate")
    sums = dict.fromkeys(("r1", "r2", "rl", "rlsum", "bleu", "concept_recall", "concept_precision"), 0.0)
    sbleu = []
    for hyp, ref in pairs:
        hyp_lines, hyp_tokens, spans = _transcript(hyp.turns)
        ref_lines, ref_tokens, _ = _transcript(ref.turns)
        h, r = len(hyp_tokens), len(ref_tokens)
        hyp_grams = [_ngrams(hyp_tokens, n) for n in range(1, MAX_N + 1)]
        matched = [
            _clipped(Counter(grams), _ngram_counts(ref_tokens, n)) for n, grams in enumerate(hyp_grams, start=1)
        ]
        sums["r1"] += _rouge_n_score(matched[0], h, r)
        sums["r2"] += _rouge_n_score(matched[1], h - 1, r - 1)
        sums["rl"] += rouge_l(TokenizedText(hyp_tokens), TokenizedText(ref_tokens))
        sums["rlsum"] += _lsum_score(hyp_lines, ref_lines)
        sums["bleu"] += _bleu_score(matched, h, r)
        recall, precision, _ = _concept_overlap(hyp_tokens, ref_tokens, lexicon, cfg)
        sums["concept_recall"] += recall
        sums["concept_precision"] += precision
        sbleu.append(_sibling_bleu(hyp, hyp_grams, spans))
    count = len(pairs)
    return EvalReport(
        **{name: total / count for name, total in sums.items()},
        sbleu=sum(sbleu) / len(sbleu),
        len=sum(len(hyp.turns) for hyp, _ in pairs) / count,
    )


def _turn_lines(turns: Sequence[Utterance]) -> List[List[Tuple[str, ...]]]:
    r"""The tokens of each line of each turn's rendering by
    ``format_transcript``: the speaker tag, then the words of each line of the
    text. A turn whose text ends in ``\r`` gets an empty line that the
    transcript lacks, where that ``\r`` and the next ``\n`` end one line; an
    empty line adds nothing to any score."""
    by_turn = []
    for turn in turns:
        lines = [tuple(words(line)) for line in split_lines(turn.text)]
        lines[0] = (turn.speaker.value, *lines[0])
        by_turn.append(lines)
    return by_turn


def _transcript(turns: Sequence[Utterance]) -> Tuple[List[Tuple[str, ...]], Tuple[str, ...], List[Tuple[int, int]]]:
    """The token lines of the transcript of ``turns``, its tokens, and each
    turn's span of those tokens less the speaker tag that opens it."""
    by_turn = _turn_lines(turns)
    spans = []
    end = 0
    for lines in by_turn:
        start = end + 1
        end += sum(map(len, lines))
        spans.append((start, end))
    lines = [line for turn in by_turn for line in turn]
    return lines, tuple(chain.from_iterable(lines)), spans


# (heading, EvalReport field) per column of the table, in order.
REPORT_COLUMNS = (
    ("R-1", "r1"), ("R-2", "r2"), ("R-L", "rl"), ("R-L-Sum", "rlsum"),
    ("C-R", "concept_recall"), ("BLEU", "bleu"), ("SBLEU", "sbleu"), ("Len", "len"),
)


def render_report_table(report: EvalReport) -> str:
    """Aligned single-row text table in the standard column order."""
    headings = [heading for heading, _ in REPORT_COLUMNS]
    cells = [f"{getattr(report, name):.{2 if name == 'len' else 4}f}" for _, name in REPORT_COLUMNS]
    widths = [max(len(h), len(c)) for h, c in zip(headings, cells)]
    header = "  ".join(h.ljust(w) for h, w in zip(headings, widths))
    row = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    return f"{header}\n{row}"
