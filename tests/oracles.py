"""Brute-force reference implementations used to verify the metric suite.

These deliberately avoid the production code paths: clipping is done by
match-and-remove over explicit n-gram lists, LCS lengths come from memoized
recursion on suffixes, union-LCS positions are found by enumerating candidate
position tuples (falling back to a definitional greedy scan when enumeration
would be too large), and concept matching enumerates every non-overlapping
matching before selecting the canonical one. Only suitable for short inputs.
``oracle_mark_covered`` is the exception: it checks only the order of the
coverage checks, so it tags text with the production tagger, which the
concept oracles above verify on their own.
"""

import re
from functools import lru_cache
from itertools import combinations
from math import comb, exp, log

_ASCII_WORD = re.compile(r"[a-z0-9]+")

# Above this many candidate tuples, fall back from enumeration to the greedy
# definitional scan for earliest-LCS positions.
_ENUM_LIMIT = 100_000


def otokenize(text):
    return _ASCII_WORD.findall(text.lower())


def ongrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_rouge_n(hyp_tokens, ref_tokens, n):
    hyp_grams = ongrams(hyp_tokens, n)
    ref_pool = ongrams(ref_tokens, n)
    if not hyp_grams or not ref_pool:
        return 0.0
    ref_total = len(ref_pool)
    matched = 0
    for gram in hyp_grams:
        if gram in ref_pool:
            ref_pool.remove(gram)
            matched += 1
    precision = matched / len(hyp_grams)
    recall = matched / ref_total
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@lru_cache(maxsize=None)
def _lcs(a, b):
    if not a or not b:
        return 0
    if a[0] == b[0]:
        return 1 + _lcs(a[1:], b[1:])
    return max(_lcs(a[1:], b), _lcs(a, b[1:]))


def oracle_lcs_len(a, b):
    return _lcs(tuple(a), tuple(b))


def oracle_rouge_l(hyp_tokens, ref_tokens):
    if not hyp_tokens or not ref_tokens:
        return 0.0
    lcs = oracle_lcs_len(hyp_tokens, ref_tokens)
    precision = lcs / len(hyp_tokens)
    recall = lcs / len(ref_tokens)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(token in it for token in needle)


def _earliest_by_enumeration(a, b, length):
    # combinations() yields position tuples in lexicographic order, so the
    # first witness is the canonical earliest alignment.
    for positions in combinations(range(len(a)), length):
        if _is_subsequence([a[i] for i in positions], b):
            return set(positions)
    raise AssertionError("LCS length without a witnessing subsequence")


def _earliest_by_definition(a, b, length):
    # Repeatedly take the smallest feasible (i, j) pair that still allows an
    # alignment of the required remaining length.
    positions = set()
    i = j = 0
    remaining = length
    while remaining:
        found = False
        for ii in range(i, len(a)):
            for jj in range(j, len(b)):
                if a[ii] == b[jj] and _lcs(a[ii + 1 :], b[jj + 1 :]) >= remaining - 1:
                    positions.add(ii)
                    i, j = ii + 1, jj + 1
                    remaining -= 1
                    found = True
                    break
            if found:
                break
        assert found, "feasible alignment step must exist"
    return positions


def oracle_earliest_positions(a, b):
    """Positions in ``a`` of the lexicographically smallest maximum-length
    common subsequence of ``a`` and ``b``."""
    a = tuple(a)
    b = tuple(b)
    length = _lcs(a, b)
    if length == 0:
        return set()
    if comb(len(a), length) <= _ENUM_LIMIT:
        return _earliest_by_enumeration(a, b, length)
    return _earliest_by_definition(a, b, length)


def oracle_rouge_lsum(hyp_lines, ref_lines):
    hyp_tokens = [otokenize(line) for line in hyp_lines]
    ref_tokens = [otokenize(line) for line in ref_lines]
    hyp_total = sum(len(t) for t in hyp_tokens)
    ref_total = sum(len(t) for t in ref_tokens)
    if hyp_total == 0 or ref_total == 0:
        return 0.0

    def union_hits(targets, others):
        total = 0
        for target in targets:
            hits = set()
            for other in others:
                hits |= oracle_earliest_positions(target, other)
            total += len(hits)
        return total

    recall = union_hits(ref_tokens, hyp_tokens) / ref_total
    precision = union_hits(hyp_tokens, ref_tokens) / hyp_total
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def oracle_bleu(hyp_tokens, refs_tokens, max_n=4):
    h = len(hyp_tokens)
    if h == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        hyp_grams = ongrams(hyp_tokens, n)
        matched = 0
        for gram in set(hyp_grams):
            best = max(ongrams(ref, n).count(gram) for ref in refs_tokens)
            matched += min(hyp_grams.count(gram), best)
        if matched > 0:
            p_n = matched / len(hyp_grams)
        else:
            p_n = 1.0 / (2 * max(len(hyp_grams), 1))
        log_sum += log(p_n)
    score = exp(log_sum / max_n)
    r = min((abs(len(ref) - h), len(ref)) for ref in refs_tokens)[1]
    if h < r:
        score *= exp(1.0 - r / h)
    return score


def oracle_self_bleu(dialogues_texts, max_n=4):
    """dialogues_texts: list of dialogues, each a list of utterance strings."""
    dialogue_means = []
    for texts in dialogues_texts:
        tokenized = [otokenize(t) for t in texts]
        scores = []
        for i, unit in enumerate(tokenized):
            others = tokenized[:i] + tokenized[i + 1 :]
            scores.append(oracle_bleu(unit, others, max_n))
        dialogue_means.append(sum(scores) / len(scores))
    return sum(dialogue_means) / len(dialogue_means)


def _window_entry(window, entries, threshold):
    """The entry a window matches under the documented rules: exact surface
    first, then first-inserted entry with token-set Jaccard >= threshold."""
    joined = " ".join(window)
    for entry in entries:
        if " ".join(otokenize(entry.surface)) == joined:
            return entry
    window_set = set(window)
    for entry in entries:
        entry_set = set(otokenize(entry.surface))
        union = window_set | entry_set
        if union and len(window_set & entry_set) / len(union) >= threshold:
            return entry
    return None


def oracle_concept_matches(text, entries, threshold):
    """Canonical matching chosen among ALL non-overlapping matchings.

    Enumerates every matching, then picks the one whose (start, -width)
    sequence is lexicographically smallest, i.e. leftmost first, then
    longest. Returns a list of (start, end, entry) triples.
    """
    tokens = otokenize(text)
    max_width = max((len(otokenize(e.surface)) for e in entries), default=1)
    memo = {}

    def enumerate_from(i):
        if i >= len(tokens):
            return [[]]
        if i in memo:
            return memo[i]
        options = [rest for rest in enumerate_from(i + 1)]
        for width in range(1, min(max_width, len(tokens) - i) + 1):
            entry = _window_entry(tokens[i : i + width], entries, threshold)
            if entry is not None:
                for rest in enumerate_from(i + width):
                    options.append([(i, i + width, entry)] + rest)
        memo[i] = options
        return options

    sentinel = (len(tokens) + 1, 0)
    return min(
        enumerate_from(0),
        key=lambda m: [(start, -(end - start)) for start, end, _ in m] + [sentinel],
    )


def oracle_concept_cuis(text, entries, threshold, groups=("disease", "drug", "device", "procedure")):
    return {
        entry.cui
        for _, _, entry in oracle_concept_matches(text, entries, threshold)
        if entry.semantic_group.value in groups
    }


def oracle_concept_scores(hyp_text, ref_text, entries, threshold):
    hyp = oracle_concept_cuis(hyp_text, entries, threshold)
    ref = oracle_concept_cuis(ref_text, entries, threshold)
    overlap = len(hyp & ref)
    recall = overlap / len(ref) if ref else 0.0
    precision = overlap / len(hyp) if hyp else 0.0
    if precision + recall == 0:
        return recall, precision, 0.0
    return recall, precision, 2 * precision * recall / (precision + recall)


def oracle_template_slots(body, slots):
    """Scan ``{{``/``}}`` pairs left to right: the text between each ``{{``
    and the next ``}}`` must be one of ``slots``. Returns the set of slot
    names referenced, or None when the body is invalid."""
    found = set()
    idx = 0
    while True:
        idx = body.find("{{", idx)
        if idx < 0:
            return frozenset(found)
        close = body.find("}}", idx)
        slot = body[idx + 2 : close] if close >= 0 else ""
        if slot not in slots:
            return None
        found.add(slot)
        idx = close + 2


def oracle_render(body, values):
    """Replace every ``{{word}}`` with ``values[word]``."""
    return re.sub(r"\{\{(\w+)\}\}", lambda m: values[m.group(1)], body)


def _contains_phrase(tokens, phrase):
    if not phrase or len(phrase) > len(tokens):
        return False
    first = phrase[0]
    for i in range(len(tokens) - len(phrase) + 1):
        if tokens[i] == first and list(tokens[i : i + len(phrase)]) == list(phrase):
            return True
    return False


def oracle_mark_covered(checklist, new_utterances, lexicon, cfg):
    """Always tag the text, then flip each open entry whose CUI was tagged or
    whose surface is said at word boundaries. Returns the number of flips."""
    from dialogforge.concepts import extract_concepts, words

    if not new_utterances:
        return 0
    blob = "\n".join(u.text for u in new_utterances)
    mentioned_cuis = {c.cui for c in extract_concepts(blob, lexicon, cfg.concept_threshold)}
    tokens = words(blob)
    flips = 0
    for index, entry in enumerate(checklist.entries):
        if checklist.covered[index]:
            continue
        if entry.cui in mentioned_cuis or _contains_phrase(tokens, words(entry.surface)):
            checklist.mark(index)
            flips += 1
    return flips
