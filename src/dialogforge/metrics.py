"""N-gram and concept-overlap evaluation.

All similarity scores are F1-style fractions in [0, 1]. Tokenization is
lowercase word tokens split on any run of non-alphanumeric characters, with
no stemming unless requested.

BLEU uses clipped n-gram precisions up to ``max_n`` with a documented
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
"""

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from typing import List, Sequence, Set, Tuple

from .concepts import Lexicon, extract_concepts, filter_semantic_groups, words
from .model import Dialogue, EvalReport, GenerationConfig, format_transcript

# Minimal suffix stripper used only when stemming is requested.
_STEM_SUFFIXES = ("ing", "edly", "ed", "es", "s")


class EmptyCorpus(ValueError):
    pass


class TooFewUnits(ValueError):
    pass


@dataclass(frozen=True)
class TokenizedText:
    tokens: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def _stem(token: str) -> str:
    for suffix in _STEM_SUFFIXES:
        if token.endswith(suffix) and len(token) > len(suffix) + 2:
            return token[: -len(suffix)]
    return token


def tokenize(text: str, stemming: bool = False) -> TokenizedText:
    """Lowercase word tokens; digits kept, underscores split."""
    tokens = words(text)
    if stemming:
        tokens = [_stem(t) for t in tokens]
    return TokenizedText(tuple(tokens))


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


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[len(b)]


def rouge_l(hyp: TokenizedText, ref: TokenizedText) -> float:
    """Whole-text LCS F1; 0 when either side is empty."""
    if not hyp.tokens or not ref.tokens:
        return 0.0
    lcs = _lcs_length(hyp.tokens, ref.tokens)
    return _f1(lcs / len(hyp.tokens), lcs / len(ref.tokens))


def _suffix_lcs_table(a: Sequence[str], b: Sequence[str]) -> List[List[int]]:
    # table[i][j] = LCS length of a[i:] and b[j:]
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(len(a) - 1, -1, -1):
        for j in range(len(b) - 1, -1, -1):
            if a[i] == b[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    return table


def _earliest_lcs_positions(a: Sequence[str], b: Sequence[str]) -> Set[int]:
    """Positions in ``a`` of the greedy earliest maximum-length alignment.

    Walks forward taking a match whenever doing so preserves optimality;
    otherwise advances in ``b`` first, which keeps the earliest possible
    ``a`` positions available.
    """
    if not a or not b:
        return set()
    table = _suffix_lcs_table(a, b)
    positions: Set[int] = set()
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j] and table[i][j] == table[i + 1][j + 1] + 1:
            positions.add(i)
            i += 1
            j += 1
        elif table[i][j + 1] >= table[i + 1][j]:
            j += 1
        else:
            i += 1
    return positions


def _union_hits(target_lines: List[Tuple[str, ...]], other_lines: List[Tuple[str, ...]]) -> int:
    total = 0
    for target in target_lines:
        hits: Set[int] = set()
        for other in other_lines:
            hits |= _earliest_lcs_positions(target, other)
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


def bleu(hyp: TokenizedText, refs: Sequence[TokenizedText], max_n: int = 4) -> float:
    """Smoothed corpus-style BLEU of one hypothesis against references."""
    if not refs:
        raise ValueError("refs must be non-empty")
    h = len(hyp.tokens)
    if h == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        hyp_counts = _ngram_counts(hyp.tokens, n)
        hyp_total = sum(hyp_counts.values())
        clipped: Counter = Counter()
        for ref in refs:
            clipped |= hyp_counts & _ngram_counts(ref.tokens, n)
        matched = sum(clipped.values())
        if matched > 0:
            p_n = matched / hyp_total
        else:
            p_n = 1.0 / (2 * max(hyp_total, 1))
        log_sum += log(p_n)
    score = exp(log_sum / max_n)
    # closest reference length; ties go to the shorter reference
    r = min((abs(len(ref.tokens) - h), len(ref.tokens)) for ref in refs)[1]
    if h < r:
        score *= exp(1.0 - r / h)
    return score


def self_bleu(corpus: Sequence[Dialogue], max_n: int = 4) -> float:
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
        tokenized = [tokenize(turn.text) for turn in dialogue.turns]
        scores = []
        for i, unit in enumerate(tokenized):
            others = tokenized[:i] + tokenized[i + 1 :]
            scores.append(bleu(unit, others, max_n))
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
