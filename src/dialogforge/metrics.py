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

Self-BLEU counts each utterance's n-grams once. Per n-gram, the largest count,
its owner and the second-largest count give the best count among any
utterance's siblings in O(1): O(n-grams) per dialogue, not O(T^2) Counter
builds, and the clipped counts stay integers, so the scores are unchanged.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from math import exp, log
from typing import Dict, List, Sequence, Set, Tuple

from .concepts import Lexicon, extract_concepts, filter_semantic_groups, words
from .model import Dialogue, EvalReport, GenerationConfig, format_transcript

MAX_N = 4  # highest n-gram order of BLEU and Self-BLEU


class EmptyCorpus(ValueError):
    pass


class TooFewUnits(ValueError):
    pass


@dataclass(frozen=True)
class TokenizedText:
    tokens: Tuple[str, ...]


def tokenize(text: str) -> TokenizedText:
    """Lowercase word tokens; digits kept, underscores split."""
    return TokenizedText(tuple(words(text)))


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(hyp: TokenizedText, ref: TokenizedText, n: int) -> float:
    """Clipped n-gram overlap F1; 0 when either side has no n-grams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hyp_counts = _ngram_counts(hyp.tokens, n)
    ref_counts = _ngram_counts(ref.tokens, n)
    hyp_total = sum(hyp_counts.values())
    ref_total = sum(ref_counts.values())
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    matched = sum((hyp_counts & ref_counts).values())
    return _f1(matched / hyp_total, matched / ref_total)


def _match_masks(b: Sequence[str]) -> Dict[str, int]:
    """Each token of ``b`` mapped to the bitmask of its positions in ``b``."""
    masks: Dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    return masks


def _lcs_rows(a: Sequence[str], masks: Dict[str, int], m: int) -> List[int]:
    """Rows 0..len(a) of the bit-parallel LCS table of ``a`` against ``masks``."""
    full = (1 << m) - 1
    v = full
    rows = [v]
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    return rows


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    return len(b) - _lcs_rows(a, _match_masks(b), len(b))[-1].bit_count()


def rouge_l(hyp: TokenizedText, ref: TokenizedText) -> float:
    """Whole-text LCS F1; 0 when either side is empty."""
    if not hyp.tokens or not ref.tokens:
        return 0.0
    lcs = _lcs_length(hyp.tokens, ref.tokens)
    return _f1(lcs / len(hyp.tokens), lcs / len(ref.tokens))


def _earliest_lcs_positions(
    a: Sequence[str], b: Sequence[str], reversed_masks: Dict[str, int]
) -> Set[int]:
    """Positions in ``a`` of the greedy earliest maximum-length alignment, given
    the match masks of ``b[::-1]``. Takes a match whenever the tokens agree (a
    match always starts a maximal alignment); else advances in ``b`` unless
    that shortens the alignment, keeping the earliest ``a`` positions free."""
    n, m = len(a), len(b)
    rows = _lcs_rows(a[::-1], reversed_masks, m)
    positions: Set[int] = set()
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            positions.add(i)
            i += 1
            j += 1
        # LCS(a[i:], b[j + 1:]) == LCS(a[i:], b[j:]) exactly when this bit is set
        elif rows[n - i] >> (m - j - 1) & 1:
            j += 1
        else:
            i += 1
    return positions


def _union_hits(target_lines: List[Tuple[str, ...]], other_lines: List[Tuple[str, ...]]) -> int:
    opposing = [(other, _match_masks(other[::-1])) for other in other_lines if other]
    total = 0
    for target in target_lines:
        hits: Set[int] = set()
        present = set(target)
        for other, reversed_masks in opposing:
            if not present.isdisjoint(reversed_masks):
                hits |= _earliest_lcs_positions(target, other, reversed_masks)
        total += len(hits)
    return total


def rouge_lsum(hyp_lines: Sequence[str], ref_lines: Sequence[str]) -> float:
    """Line-union LCS F1 over one-utterance-per-line renderings."""
    hyp_tokens = [tokenize(line).tokens for line in hyp_lines]
    ref_tokens = [tokenize(line).tokens for line in ref_lines]
    hyp_total = sum(len(t) for t in hyp_tokens)
    ref_total = sum(len(t) for t in ref_tokens)
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    recall = _union_hits(ref_tokens, hyp_tokens) / ref_total
    precision = _union_hits(hyp_tokens, ref_tokens) / hyp_total
    return _f1(precision, recall)


def _sibling_bleu(units: Sequence[Sequence[str]], scored: int) -> List[float]:
    """Smoothed BLEU of each of the first ``scored`` units with all the other
    units as its references, from one n-gram count per unit and order."""
    hits = [[0] * MAX_N for _ in range(scored)]
    for n in range(1, MAX_N + 1):
        counts = [_ngram_counts(unit, n) for unit in units]
        top: Dict[Tuple[str, ...], Tuple[int, int, int]] = {}  # (largest, its unit, second)
        for t, unit_counts in enumerate(counts):
            for gram, count in unit_counts.items():
                first, owner, second = top.get(gram, (0, -1, 0))
                top[gram] = (count, t, first) if count > first else (first, owner, max(second, count))
        for t in range(scored):
            for gram, count in counts[t].items():
                first, owner, second = top[gram]
                hits[t][n - 1] += min(count, second if owner == t else first)
    lengths = sorted(len(unit) for unit in units)
    scores = []
    for unit, unit_hits in zip(units, hits):
        h = len(unit)
        if h == 0:
            scores.append(0.0)
            continue
        log_sum = 0.0
        for n, matched in enumerate(unit_hits, start=1):
            total = max(h - n + 1, 1)
            log_sum += log(matched / total if matched else 1.0 / (2 * total))
        score = exp(log_sum / MAX_N)
        # closest other length, ties to the shorter; lengths[k] is the unit's own
        k = bisect_left(lengths, h)
        neighbours = lengths[max(k - 1, 0) : k] + lengths[k + 1 : k + 2]
        r = min((abs(other - h), other) for other in neighbours)[1]
        scores.append(score * exp(1.0 - r / h) if h < r else score)
    return scores


def bleu(hyp: TokenizedText, refs: Sequence[TokenizedText]) -> float:
    """Smoothed corpus-style BLEU of one hypothesis against references."""
    if not refs:
        raise ValueError("refs must be non-empty")
    return _sibling_bleu([hyp.tokens, *(ref.tokens for ref in refs)], 1)[0]


def self_bleu(corpus: Sequence[Dialogue]) -> float:
    """Mean BLEU of each utterance against its dialogue siblings.

    Lower is more diverse. Raises TooFewUnits when any dialogue has fewer
    than two utterances.
    """
    if not corpus:
        raise EmptyCorpus("no dialogues to score")
    dialogue_means = []
    for dialogue in corpus:
        if len(dialogue.turns) < 2:
            raise TooFewUnits(
                f"dialogue {dialogue.note_id!r} has {len(dialogue.turns)} utterance(s); need >= 2"
            )
        units = [tokenize(turn.text).tokens for turn in dialogue.turns]
        scores = _sibling_bleu(units, len(units))
        dialogue_means.append(sum(scores) / len(scores))
    return sum(dialogue_means) / len(dialogue_means)


def concept_scores(
    hyp_text: str,
    ref_text: str,
    lexicon: Lexicon,
    cfg: GenerationConfig,
) -> Tuple[float, float, float]:
    """(recall, precision, f1) of filtered CUI overlap between two texts."""
    hyp_cuis = {
        c.cui
        for c in filter_semantic_groups(extract_concepts(hyp_text, lexicon, cfg.concept_threshold))
    }
    ref_cuis = {
        c.cui
        for c in filter_semantic_groups(extract_concepts(ref_text, lexicon, cfg.concept_threshold))
    }
    overlap = len(hyp_cuis & ref_cuis)
    recall = overlap / len(ref_cuis) if ref_cuis else 0.0
    precision = overlap / len(hyp_cuis) if hyp_cuis else 0.0
    return recall, precision, _f1(precision, recall)


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
        raise EmptyCorpus("no dialogue pairs to evaluate")
    sums = {"r1": 0.0, "r2": 0.0, "rl": 0.0, "rlsum": 0.0, "bleu": 0.0, "cr": 0.0, "cp": 0.0}
    for hyp, ref in pairs:
        hyp_text = format_transcript(hyp.turns)
        ref_text = format_transcript(ref.turns)
        hyp_tok = tokenize(hyp_text)
        ref_tok = tokenize(ref_text)
        sums["r1"] += rouge_n(hyp_tok, ref_tok, 1)
        sums["r2"] += rouge_n(hyp_tok, ref_tok, 2)
        sums["rl"] += rouge_l(hyp_tok, ref_tok)
        sums["rlsum"] += rouge_lsum(hyp_text.splitlines(), ref_text.splitlines())
        sums["bleu"] += bleu(hyp_tok, [ref_tok])
        recall, precision, _ = concept_scores(hyp_text, ref_text, lexicon, cfg)
        sums["cr"] += recall
        sums["cp"] += precision
    count = len(pairs)
    mean_recall = sums["cr"] / count
    mean_precision = sums["cp"] / count
    return EvalReport(
        r1=sums["r1"] / count,
        r2=sums["r2"] / count,
        rl=sums["rl"] / count,
        rlsum=sums["rlsum"] / count,
        bleu=sums["bleu"] / count,
        sbleu=self_bleu([hyp for hyp, _ in pairs]),
        concept_recall=mean_recall,
        concept_precision=mean_precision,
        concept_f1=_f1(mean_precision, mean_recall),
        len=sum(len(hyp.turns) for hyp, _ in pairs) / count,
    )


REPORT_COLUMNS = ("R-1", "R-2", "R-L", "R-L-Sum", "C-R", "BLEU", "SBLEU", "Len")


def render_report_table(report: EvalReport) -> str:
    """Aligned single-row text table in the standard column order."""
    values = (
        report.r1,
        report.r2,
        report.rl,
        report.rlsum,
        report.concept_recall,
        report.bleu,
        report.sbleu,
        report.len,
    )
    cells = [f"{v:.4f}" for v in values[:-1]] + [f"{values[-1]:.2f}"]
    widths = [max(len(h), len(c)) for h, c in zip(REPORT_COLUMNS, cells)]
    header = "  ".join(h.ljust(w) for h, w in zip(REPORT_COLUMNS, widths))
    row = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    return f"{header}\n{row}"
