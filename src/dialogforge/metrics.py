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
runs it on both lines reversed, so LCS(a[i:], b[j:]) = (m - j) -
popcount(rows[n - i] & (2**(m - j) - 1)) and each walk step reads one bit.

``rouge_lsum`` runs the kernel once per target line against all opposing
lines at once (multiple-pattern packing; Hyyrö, Fredriksson & Navarro, ACM
JEA 2005). Each non-empty opposing line, reversed, gets its own field of one
wide int, with a zero guard bit above it; a token's mask ORs its position
masks at each field's offset, and ``full`` ORs the fields without their guard
bits. The step is unchanged and each field equals its own single-line run:
``u ⊆ v`` inside every field, so ``v - u`` never borrows across a field, and a
carry out of ``v + u`` stops in the zero guard bit, which ``& full`` clears.
Each walk reads its bit at its field's offset. A walk can hit only target
positions whose token occurs in its line, so a line is skipped once all of
those are hit; that also stops a target line whose reachable positions are
all hit. Lines are walked longest LCS first (read off the last row), which
leaves the fewest to walk; the union of hits does not depend on the order.
The cost is one kernel run over wide ints per target line, not one per line
pair, plus the walks that can still add a hit.

``evaluate_corpus`` tokenizes each transcript line once and derives the rest.
No word token spans a line end, and a line end stops the context of a case
mapping (a final sigma), so a transcript's tokens are its lines' tokens
joined, and a turn's are its rendered line's less the speaker tag that opens
it. Each text's n-grams of each order 1..``MAX_N`` are counted once, one
order at a time, and the clipped count per order, ``min(hyp, ref)`` summed
over n-grams, serves ROUGE-1, ROUGE-2 and BLEU; ``bleu`` clips each n-gram at
its largest count in any one reference (Papineni et al., ACL 2002). Only
Self-BLEU, which scores every utterance against all its siblings, goes
through ``_sibling_bleu``: per n-gram, the largest count, its owner and the
second-largest count give the best count among any utterance's siblings in
O(1), so a dialogue costs O(n-grams), not O(T^2) Counter builds. Clipped
counts are integers, so none of this changes a score.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import exp, log
from operator import or_
from typing import Dict, List, Sequence, Tuple

from .concepts import Lexicon, concepts_of_tokens, filter_semantic_groups
from .model import Dialogue, EvalReport, GenerationConfig, Utterance, f1_score, format_transcript, split_lines, words

MAX_N = 4  # highest n-gram order of BLEU and Self-BLEU


@dataclass(frozen=True)
class TokenizedText:
    tokens: Tuple[str, ...]


def tokenize(text: str) -> TokenizedText:
    """Lowercase word tokens; digits kept, underscores split."""
    return TokenizedText(tuple(words(text)))


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """Count of each n-gram of ``tokens``, as a tuple of ``n`` tokens."""
    return Counter(zip(*(tokens[i:] for i in range(n))))


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


def _earliest_lcs_positions(a: Sequence[str], b: Sequence[str], rows: List[int], offset: int) -> int:
    """Bitmask of the positions in ``a`` of the greedy earliest maximum-length
    alignment, given the rows of ``a[::-1]`` against ``b[::-1]``, whose field
    starts at bit ``offset``. Takes a match whenever the tokens agree (a match
    always starts a maximal alignment); else advances in ``b`` unless that
    shortens the alignment, keeping the earliest ``a`` positions free."""
    n, m = len(a), len(b)
    top = offset + m - 1
    positions = 0
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            positions |= 1 << i
            i += 1
            j += 1
        # LCS(a[i:], b[j + 1:]) == LCS(a[i:], b[j:]) exactly when this bit is set
        elif rows[n - i] >> (top - j) & 1:
            j += 1
        else:
            i += 1
    return positions


def _union_hits(target_lines: List[Tuple[str, ...]], other_lines: List[Tuple[str, ...]]) -> int:
    """Sum over ``target_lines`` of the positions hit by the earliest LCS
    against any of ``other_lines``, from one packed kernel run a target line."""
    fields: List[Tuple[Tuple[str, ...], int, int]] = []  # (line, offset, field mask)
    masks: Dict[str, int] = {}
    lines_with: Dict[str, int] = {}  # token -> bitmask of the fields holding it
    full = offset = 0
    for other in other_lines:
        if not other:
            continue
        line_bit = 1 << len(fields)
        for token, mask in _match_masks(other[::-1]).items():
            masks[token] = masks.get(token, 0) | mask << offset
            lines_with[token] = lines_with.get(token, 0) | line_bit
        field = (1 << len(other)) - 1
        fields.append((other, offset, field))
        full |= field << offset
        offset += len(other) + 1  # the guard bit stays zero
    total = 0
    for target in target_lines:
        at: Dict[str, int] = {}  # token -> bitmask of its target positions
        for i, token in enumerate(target):
            if token in lines_with:
                at[token] = at.get(token, 0) | 1 << i
        # (its positions, the fields holding it) per token with a position not yet hit
        open_tokens = [(positions, lines_with[token]) for token, positions in at.items()]
        pending = 0
        for _, lines in open_tokens:
            pending |= lines
        if not pending:
            continue
        rows = _lcs_rows(target[::-1], masks, full)
        last = rows[-1]
        # longest LCS first: a field's LCS is its line's length less the set
        # bits of its last row
        negated_lcs = [(last >> offset & field).bit_count() - len(other) for other, offset, field in fields]
        order = sorted(range(len(fields)), key=negated_lcs.__getitem__)
        hits = 0
        for k in order:
            if not pending >> k & 1:
                continue
            other, offset, _ = fields[k]
            new = _earliest_lcs_positions(target, other, rows, offset) & ~hits
            if new:
                hits |= new
                open_tokens = [(positions, lines) for positions, lines in open_tokens if positions & ~hits]
                pending = 0
                for _, lines in open_tokens:
                    pending |= lines
                if not pending:
                    break
        total += hits.bit_count()
    return total


def rouge_lsum(hyp_lines: Sequence[str], ref_lines: Sequence[str]) -> float:
    """Line-union LCS F1 over one-utterance-per-line renderings."""
    return _lsum_score([tokenize(line).tokens for line in hyp_lines], [tokenize(line).tokens for line in ref_lines])


def _lsum_score(hyp_tokens: List[Tuple[str, ...]], ref_tokens: List[Tuple[str, ...]]) -> float:
    """``rouge_lsum`` from the tokens of each line."""
    hyp_total = sum(len(t) for t in hyp_tokens)
    ref_total = sum(len(t) for t in ref_tokens)
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    recall = _union_hits(ref_tokens, hyp_tokens) / ref_total
    precision = _union_hits(hyp_tokens, ref_tokens) / hyp_total
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


def _sibling_bleu(units: Sequence[Sequence[str]]) -> List[float]:
    """Smoothed BLEU of each unit with all the other units as its
    references, from one n-gram count per unit and order."""
    hits = [[0] * MAX_N for _ in units]
    for n in range(1, MAX_N + 1):
        counts = [_ngram_counts(unit, n) for unit in units]
        top: Dict[Tuple[str, ...], Tuple[int, int, int]] = {}  # (largest, its unit, second)
        for t, unit_counts in enumerate(counts):
            for gram, count in unit_counts.items():
                first, owner, second = top.get(gram, (0, -1, 0))
                top[gram] = (count, t, first) if count > first else (first, owner, max(second, count))
        for t, unit_counts in enumerate(counts):
            for gram, count in unit_counts.items():
                first, owner, second = top[gram]
                hits[t][n - 1] += min(count, second if owner == t else first)
    lengths = sorted(len(unit) for unit in units)
    scores = []
    for unit, unit_hits in zip(units, hits):
        h = len(unit)
        # closest other length, ties to the shorter; lengths[k] is the unit's own
        k = bisect_left(lengths, h)
        neighbours = lengths[max(k - 1, 0) : k] + lengths[k + 1 : k + 2]
        r = min((abs(other - h), other) for other in neighbours)[1]
        scores.append(_bleu_score(unit_hits, h, r))
    return scores


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
    return _mean_self_bleu(corpus, [[tokenize(turn.text).tokens for turn in d.turns] for d in corpus])


def _mean_self_bleu(corpus: Sequence[Dialogue], units: Sequence[Sequence[Tuple[str, ...]]]) -> float:
    """``self_bleu`` of ``corpus`` from the tokens of each dialogue's turns."""
    dialogue_means = []
    for dialogue, turn_units in zip(corpus, units):
        if len(turn_units) < 2:
            raise ValueError(
                f"dialogue {dialogue.note_id!r} has {len(turn_units)} utterance(s); need >= 2"
            )
        scores = _sibling_bleu(turn_units)
        dialogue_means.append(sum(scores) / len(scores))
    return sum(dialogue_means) / len(dialogue_means)


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
    hyp_units = []
    for hyp, ref in pairs:
        hyp_by_turn = _turn_lines(hyp.turns)
        hyp_lines = [line for turn in hyp_by_turn for line in turn]
        ref_lines = [line for turn in _turn_lines(ref.turns) for line in turn]
        # the speaker tag opens each turn
        hyp_units.append([tuple(chain.from_iterable(turn))[1:] for turn in hyp_by_turn])
        hyp_tokens = tuple(chain.from_iterable(hyp_lines))
        ref_tokens = tuple(chain.from_iterable(ref_lines))
        h, r = len(hyp_tokens), len(ref_tokens)
        matched = [_clipped(_ngram_counts(hyp_tokens, n), _ngram_counts(ref_tokens, n)) for n in range(1, MAX_N + 1)]
        sums["r1"] += _rouge_n_score(matched[0], h, r)
        sums["r2"] += _rouge_n_score(matched[1], h - 1, r - 1)
        sums["rl"] += rouge_l(TokenizedText(hyp_tokens), TokenizedText(ref_tokens))
        sums["rlsum"] += _lsum_score(hyp_lines, ref_lines)
        sums["bleu"] += _bleu_score(matched, h, r)
        recall, precision, _ = _concept_overlap(hyp_tokens, ref_tokens, lexicon, cfg)
        sums["concept_recall"] += recall
        sums["concept_precision"] += precision
    count = len(pairs)
    return EvalReport(
        **{name: total / count for name, total in sums.items()},
        sbleu=_mean_self_bleu([hyp for hyp, _ in pairs], hyp_units),
        len=sum(len(hyp.turns) for hyp, _ in pairs) / count,
    )


def _turn_lines(turns: Sequence[Utterance]) -> List[List[Tuple[str, ...]]]:
    r"""The tokens of each line of each turn's rendering by
    ``format_transcript``. A turn whose text ends in ``\r`` gets an empty line
    that the transcript lacks, where that ``\r`` and the next ``\n`` end one
    line; an empty line adds nothing to any score."""
    return [[tokenize(line).tokens for line in split_lines(format_transcript([turn]))] for turn in turns]


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
