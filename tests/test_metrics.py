import dataclasses
import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dialogforge.metrics import (
    MAX_N,
    TokenizedText,
    _earliest_lcs_positions,
    _lcs_length,
    _lcs_rows,
    _match_masks,
    _ngram_counts,
    _turn_lines,
    _union_hits,
    bleu,
    concept_scores,
    evaluate_corpus,
    render_report_table,
    rouge_l,
    rouge_lsum,
    rouge_n,
    self_bleu,
    tokenize,
)
from dialogforge.model import Dialogue, EvalReport, GenerationConfig, Speaker, Utterance, format_transcript, split_lines

from conftest import make_dialogue
from oracles import (
    ongrams,
    oracle_bleu,
    oracle_concept_scores,
    oracle_earliest_positions,
    oracle_lcs_len,
    oracle_rouge_l,
    oracle_rouge_lsum,
    oracle_rouge_n,
    oracle_self_bleu,
    otokenize,
    reference_union_hits,
)

VOCAB = ["the", "cat", "sat", "mat", "dog", "ran", "fast", "home", "red", "big", "now", "then"]


def _random_tokens(rng, low=1, high=30):
    return [rng.choice(VOCAB) for _ in range(rng.randint(low, high))]


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_basic():
    assert tokenize("The cat sat.").tokens == ("the", "cat", "sat")


def test_tokenize_digits_and_punctuation():
    assert tokenize("20 mg, BID").tokens == ("20", "mg", "bid")


def test_tokenize_empty():
    assert tokenize("").tokens == ()


def test_tokenize_splits_underscores_and_unicode():
    assert tokenize("x_y naïve").tokens == ("x", "y", "naïve")


# Pieces of turn text where a line's tokens could differ from the
# transcript's: each line end, a separator that ends no line, ``_``, digits,
# letters outside ASCII, letters whose lower case depends on their neighbours
# (final sigma, a dotted capital I that lowers to two characters), leading
# punctuation and text that looks like a speaker tag.
TURN_PIECES = ["\n", "\r\n", "\r", "\u2028", "_", "a_b", "42", "x2", "é", "ß", "ΑΣ", "Σ", "σΣa",
               "İ", "İx", ".", "'", "...", ": ", "Doctor: x", "patient:", " ", "a", "b"]
turn_texts = st.lists(st.sampled_from(TURN_PIECES), min_size=1, max_size=8).map("".join) | st.text(min_size=1)


def turn_lists(min_size=1, texts=turn_texts):
    turn = st.builds(Utterance, st.sampled_from(list(Speaker)), texts)
    return st.lists(turn, min_size=min_size, max_size=5)


@given(turn_lists())
@example([Utterance(Speaker.DOCTOR, "a\r"), Utterance(Speaker.PATIENT, "b")])  # "\r" + "\n" end one line
@example([Utterance(Speaker.PATIENT, "ΑΣ\rΣ"), Utterance(Speaker.DOCTOR, "'Σ\nDoctor: İ")])
def test_turn_lines_derive_the_transcript_and_turn_tokens(turns):
    turn_lines = _turn_lines(turns)
    lines = [line for turn in turn_lines for line in turn]
    transcript = format_transcript(turns)
    assert tuple(chain.from_iterable(lines)) == tokenize(transcript).tokens
    # the lines are the transcript's, but for lines that hold no token
    assert [line for line in lines if line] == [
        tokenize(line).tokens for line in split_lines(transcript) if tokenize(line).tokens
    ]
    for turn, its_lines in zip(turns, turn_lines):
        assert tuple(chain.from_iterable(its_lines)) == (turn.speaker.value, *tokenize(turn.text).tokens)


# ---------------------------------------------------------------------------
# rouge_n / rouge_l
# ---------------------------------------------------------------------------


def test_rouge_n_identity_is_exactly_one():
    text = tokenize("some identical words right here")
    assert rouge_n(text, text, 1) == 1.0
    assert rouge_n(text, text, 2) == 1.0


def test_rouge_1_hand_fixture():
    score = rouge_n(tokenize("the cat sat"), tokenize("the cat ran"), 1)
    assert abs(score - 2 / 3) < 1e-12


def test_rouge_2_disjoint_is_zero():
    assert rouge_n(tokenize("a b"), tokenize("c d"), 2) == 0.0


def test_rouge_n_empty_side_is_zero():
    assert rouge_n(tokenize(""), tokenize("a b"), 1) == 0.0
    assert rouge_n(tokenize("a"), tokenize(""), 1) == 0.0


def test_rouge_1_is_permutation_invariant():
    rng = random.Random(23)
    for _ in range(20):
        hyp = _random_tokens(rng, 2, 12)
        ref = _random_tokens(rng, 2, 12)
        shuffled = hyp[:]
        rng.shuffle(shuffled)
        a = rouge_n(tokenize(" ".join(hyp)), tokenize(" ".join(ref)), 1)
        b = rouge_n(tokenize(" ".join(shuffled)), tokenize(" ".join(ref)), 1)
        assert abs(a - b) < 1e-12


def test_rouge_2_and_l_strictly_decrease_on_reordering():
    ref = tokenize("the quick brown fox jumps")
    reordered = tokenize("jumps fox brown quick the")
    assert rouge_n(reordered, ref, 1) == 1.0
    assert rouge_n(reordered, ref, 2) < rouge_n(ref, ref, 2)
    assert rouge_l(reordered, ref) < rouge_l(ref, ref)


def test_rouge_l_identity_and_fixture():
    text = tokenize("the cat sat")
    assert rouge_l(text, text) == 1.0
    assert abs(rouge_l(tokenize("the cat sat"), tokenize("the cat ran")) - 2 / 3) < 1e-12


def test_rouge_l_empty_is_zero():
    assert rouge_l(tokenize("a"), tokenize("")) == 0.0


# ---------------------------------------------------------------------------
# rouge_lsum
# ---------------------------------------------------------------------------


def test_rouge_lsum_single_line_reduces_to_rouge_l():
    hyp, ref = "the cat sat on a mat", "a cat sat near the mat"
    assert abs(rouge_lsum([hyp], [ref]) - rouge_l(tokenize(hyp), tokenize(ref))) < 1e-12


def test_rouge_lsum_identity_multiline():
    lines = ["the cat sat", "the dog ran home"]
    assert rouge_lsum(lines, lines) == 1.0


def test_rouge_lsum_reordered_lines_fixture_matches_oracle():
    hyp = ["the dog ran home", "the cat sat"]
    ref = ["the cat sat", "the dog ran home"]
    assert abs(rouge_lsum(hyp, ref) - oracle_rouge_lsum(hyp, ref)) < 1e-9


def test_rouge_lsum_empty_is_zero():
    assert rouge_lsum([], ["the cat"]) == 0.0
    assert rouge_lsum([""], [""]) == 0.0


# ---------------------------------------------------------------------------
# bleu
# ---------------------------------------------------------------------------


def test_bleu_identity_is_one():
    text = tokenize("the cat sat on the mat")
    assert bleu(text, [text]) == 1.0


def test_bleu_empty_hypothesis_is_zero():
    assert bleu(tokenize(""), [tokenize("anything at all")]) == 0.0


def test_bleu_hand_fixture():
    # clipped precisions 5/6, 3/5, 2/4, 1/3; brevity penalty 1
    hyp = tokenize("the cat sat on the mat")
    ref = tokenize("the cat sat on a mat")
    expected = (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
    assert abs(expected - (1 / 12) ** 0.25) < 1e-15
    assert abs(bleu(hyp, [ref]) - expected) < 1e-12


def test_bleu_brevity_penalty_applies_when_short():
    import math

    hyp = tokenize("the cat sat on")
    ref = tokenize("the cat sat on the mat")
    # all clipped precisions are 1; penalty exp(1 - 6/4)
    assert abs(bleu(hyp, [ref]) - math.exp(1 - 6 / 4)) < 1e-12


def test_bleu_requires_references():
    with pytest.raises(ValueError):
        bleu(tokenize("a"), [])


def test_bleu_multi_reference_clipping():
    hyp = tokenize("the cat the cat sat here")
    refs = [tokenize("the cat sat here today"), tokenize("the cat naps the cat sat")]
    assert abs(bleu(hyp, refs) - oracle_bleu(list(hyp.tokens), [list(r.tokens) for r in refs])) < 1e-9


# ---------------------------------------------------------------------------
# self_bleu
# ---------------------------------------------------------------------------


def test_self_bleu_identical_utterances_is_one():
    dialogue = make_dialogue(*(["the same words every single time"] * 3))
    assert self_bleu([dialogue]) == 1.0


def test_self_bleu_disjoint_pair_uses_smoothing_floor():
    dialogue = make_dialogue("alpha beta", "gamma delta")
    expected = (1 / 4 * 1 / 2 * 1 / 2 * 1 / 2) ** 0.25
    score = self_bleu([dialogue])
    assert abs(score - expected) < 1e-12
    assert abs(score - oracle_self_bleu([["alpha beta", "gamma delta"]])) < 1e-12


def test_self_bleu_single_utterance_dialogue_rejected():
    with pytest.raises(ValueError, match=r"dialogue 'd' has 1 utterance\(s\); need >= 2"):
        self_bleu([make_dialogue("only one turn")])


def test_self_bleu_lower_for_diverse_corpus():
    repetitive = make_dialogue(*(["we repeat the same thing again"] * 4))
    diverse = make_dialogue(
        "how are you feeling today",
        "my knee aches at night",
        "any fever or chills lately",
        "no just the knee pain",
    )
    assert self_bleu([diverse]) < self_bleu([repetitive])


# ---------------------------------------------------------------------------
# concept_scores
# ---------------------------------------------------------------------------


def test_concept_scores_identity(lexicon, cfg):
    text = "takes aspirin for hypertension"
    assert concept_scores(text, text, lexicon, cfg) == (1.0, 1.0, 1.0)


def test_concept_scores_partial_recall(lexicon, cfg):
    ref = "diabetes, hypertension, aspirin, and an mri-scan"
    hyp = "we discussed diabetes and aspirin only"
    recall, precision, f1 = concept_scores(hyp, ref, lexicon, cfg)
    assert recall == 0.5
    assert precision == 1.0
    assert abs(f1 - 2 / 3) < 1e-12


def test_concept_scores_empty_reference(lexicon, cfg):
    recall, precision, f1 = concept_scores("aspirin here", "nothing clinical", lexicon, cfg)
    assert recall == 0.0
    assert precision == 0.0
    assert f1 == 0.0


def test_concept_scores_hyp_only_other_groups(lexicon, cfg):
    # symptoms are extracted but filtered out of scoring
    recall, precision, f1 = concept_scores("fatigue and cough", "aspirin", lexicon, cfg)
    assert (recall, precision, f1) == (0.0, 0.0, 0.0)


def test_concept_recall_monotone_under_hyp_append(lexicon, cfg):
    rng = random.Random(31)
    surfaces = [e.surface for e in lexicon.entries]
    ref = "diabetes hypertension aspirin dialysis pacemaker"
    hyp = ""
    last = 0.0
    for _ in range(12):
        hyp = (hyp + " " + rng.choice(surfaces)).strip()
        recall, _, _ = concept_scores(hyp, ref, lexicon, cfg)
        assert recall >= last
        last = recall


# ---------------------------------------------------------------------------
# oracle equivalence on randomized pairs
# ---------------------------------------------------------------------------


def test_ngram_metrics_match_oracles_on_random_pairs():
    rng = random.Random(41)
    for _ in range(30):
        hyp_tokens = _random_tokens(rng)
        ref_tokens = _random_tokens(rng)
        hyp = tokenize(" ".join(hyp_tokens))
        ref = tokenize(" ".join(ref_tokens))
        assert abs(rouge_n(hyp, ref, 1) - oracle_rouge_n(hyp_tokens, ref_tokens, 1)) < 1e-9
        assert abs(rouge_n(hyp, ref, 2) - oracle_rouge_n(hyp_tokens, ref_tokens, 2)) < 1e-9
        assert abs(rouge_l(hyp, ref) - oracle_rouge_l(hyp_tokens, ref_tokens)) < 1e-9
        assert abs(bleu(hyp, [ref]) - oracle_bleu(hyp_tokens, [ref_tokens])) < 1e-9

        def lines(tokens):
            return [" ".join(tokens[i : i + 6]) for i in range(0, len(tokens), 6)]

        assert abs(
            rouge_lsum(lines(hyp_tokens), lines(ref_tokens))
            - oracle_rouge_lsum(lines(hyp_tokens), lines(ref_tokens))
        ) < 1e-9


# Alphabets of two to four tokens make alignments long and ties common; the
# examples add a line longer than one 64-bit word.
LETTERS = ("a", "b", "c", "d")
LONG_A = tuple("ab"[i * i % 3 % 2] for i in range(70))
LONG_B = tuple("ba"[i % 5 // 3] for i in range(66))


@st.composite
def token_pair(draw):
    tokens = st.lists(st.sampled_from(LETTERS[: draw(st.integers(2, 4))]), max_size=24)
    return tuple(draw(tokens)), tuple(draw(tokens))


@st.composite
def line_sets(draw):
    alphabet = LETTERS[: draw(st.integers(2, 4))]
    line = st.lists(st.sampled_from(alphabet), max_size=9).map(" ".join)
    return draw(st.lists(line, max_size=5)), draw(st.lists(line, max_size=5))


@st.composite
def dialogue_texts(draw):
    alphabet = LETTERS[: draw(st.integers(2, 4))]
    # a turn with no word tokens is still a valid utterance
    turn = st.lists(st.sampled_from(alphabet), max_size=7).map(lambda t: " ".join(t) or "...")
    return draw(st.lists(st.lists(turn, min_size=2, max_size=6), min_size=1, max_size=3))


@given(st.lists(st.sampled_from(LETTERS), max_size=6), st.integers(1, MAX_N))
@example([], 1)
@example(["a", "b"], MAX_N)  # more than the tokens
def test_ngram_counts_equal_slice_built_counts(tokens, n):
    assert _ngram_counts(tokens, n) == Counter(ongrams(tokens, n))
    assert _ngram_counts(tuple(tokens), n) == Counter(ongrams(tokens, n))


@given(token_pair(), st.lists(st.lists(st.sampled_from(LETTERS), max_size=12), max_size=2))
@example(((), ("a",)), [])
@example((("a", "b", "a", "b"), ("a", "b")), [["b", "a", "b", "a", "b"], ["a", "b", "a"]])  # clip differs by reference
@example((LONG_A, LONG_B), [list(LONG_A[:40]), []])
def test_bleu_matches_oracle_with_one_to_three_references(pair, more_refs):
    hyp, ref = pair
    refs = [list(ref), *more_refs]
    got = bleu(TokenizedText(hyp), [TokenizedText(tuple(r)) for r in refs])
    assert abs(got - oracle_bleu(list(hyp), refs)) < 1e-6


@given(token_pair())
@example((LONG_A, LONG_B))
@example((LONG_A, ()))
def test_lcs_length_matches_oracle(pair):
    a, b = pair
    assert _lcs_length(a, b) == oracle_lcs_len(a, b)
    assert _lcs_length(b, a) == oracle_lcs_len(a, b)


@given(token_pair())
@example((LONG_A, LONG_B))
@example((LONG_B[:20], LONG_A))
def test_earliest_lcs_positions_match_oracle(pair):
    a, b = pair
    rows = _lcs_rows(a[::-1], _match_masks(b[::-1]), (1 << len(b)) - 1)
    positions = _earliest_lcs_positions(a, b, rows, 0)
    assert {i for i in range(len(a)) if positions >> i & 1} == oracle_earliest_positions(a, b)


@given(line_sets())
@example((["", " ".join(LONG_A), "a b"], ["b a b", "", " ".join(LONG_B[:30])]))
def test_rouge_lsum_matches_oracle(lines):
    hyp, ref = lines
    assert abs(rouge_lsum(hyp, ref) - oracle_rouge_lsum(hyp, ref)) < 1e-6


@st.composite
def packed_line_sets(draw):
    alphabet = LETTERS[: draw(st.integers(1, 4))]
    line = st.lists(st.sampled_from(alphabet), max_size=80).map(tuple)
    return draw(st.lists(line, max_size=12)), draw(st.lists(line, max_size=12))


# Fields of 63, 64 and 65 tokens put a guard bit on, and a field across, a
# 64-bit word boundary; fifteen 70-token lines pack into over 1,024 bits.
WORD_EDGE = [LONG_A[:63], LONG_B[:64], LONG_A[:65]]
WIDE = [LONG_A[k:] + LONG_A[:k] for k in range(15)]


@given(packed_line_sets())
@example(([("a", "b"), ("b",)], [(), ()]))
@example(([("a",), ("b",), ()], [("a",), ("a",), ("b",)]))
@example((WORD_EDGE, WORD_EDGE[::-1] + [LONG_B[:40]]))
@example((WIDE[:3] + [LONG_B], WIDE))
def test_packed_union_hits_match_reference(lines):
    targets, others = lines
    assert _union_hits(targets, others) == reference_union_hits(targets, others)
    assert _union_hits(others, targets) == reference_union_hits(others, targets)


@given(dialogue_texts())
@example([["a b a", "a b a", "b b", "a b a"]])  # the largest count held by several turns
@example([["a b a", "b a", "a b b a"]])  # closest lengths 2 and 4 tie for the 3-token turn
@example([["...", "a", " ".join(LONG_A)], ["b", "b"]])
def test_self_bleu_matches_oracle_exactly(dialogues):
    corpus = [make_dialogue(*texts) for texts in dialogues]
    assert self_bleu(corpus) == oracle_self_bleu(dialogues)


def test_concept_scores_match_oracle_on_random_pairs(lexicon, cfg):
    rng = random.Random(43)
    surfaces = [e.surface for e in lexicon.entries]
    fillers = ["feels", "fine", "since", "last", "spring", "overall"]
    for _ in range(20):
        def text():
            parts = rng.sample(surfaces, rng.randint(0, 4)) + rng.sample(fillers, rng.randint(1, 3))
            rng.shuffle(parts)
            return " ".join(parts)

        hyp, ref = text(), text()
        got = concept_scores(hyp, ref, lexicon, cfg)
        want = oracle_concept_scores(hyp, ref, lexicon.entries, cfg.concept_threshold)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9


def test_metric_outputs_stay_in_range():
    rng = random.Random(47)
    for _ in range(40):
        hyp = tokenize(" ".join(_random_tokens(rng, 0, 12)))
        ref = tokenize(" ".join(_random_tokens(rng, 0, 12)))
        values = [
            rouge_n(hyp, ref, 1),
            rouge_n(hyp, ref, 2),
            rouge_l(hyp, ref),
            bleu(hyp, [ref]) if ref.tokens else 0.0,
        ]
        for value in values:
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# evaluate_corpus
# ---------------------------------------------------------------------------


def _sample_pairs():
    hyp1 = make_dialogue(
        "do you still take aspirin every morning",
        "yes aspirin every morning with food",
        "any trouble with your blood pressure",
        "my hypertension is controlled these days",
    )
    ref1 = make_dialogue(
        "do you take aspirin every morning",
        "yes i take aspirin with breakfast",
        "how is your blood pressure",
        "the hypertension is well controlled",
    )
    hyp2 = make_dialogue(
        "tell me about the knee mri scan",
        "the mri scan showed mild swelling",
    )
    ref2 = make_dialogue(
        "what did the mri scan show",
        "the mri scan found mild swelling only",
    )
    hyp3 = make_dialogue(
        "is the metformin helping your diabetes",
        "yes the diabetes numbers look better",
    )
    ref3 = make_dialogue(
        "has metformin improved the diabetes",
        "the diabetes readings improved a lot",
    )
    return [(hyp1, ref1), (hyp2, ref2), (hyp3, ref3)]


def test_evaluate_corpus_identity(lexicon, cfg):
    pairs = [(hyp, hyp) for hyp, _ in _sample_pairs()]
    report = evaluate_corpus(pairs, lexicon, cfg)
    assert report.r1 == report.r2 == report.rl == report.rlsum == 1.0
    assert report.bleu == 1.0
    assert report.concept_recall == 1.0
    assert report.len == pytest.approx(8 / 3)
    assert 0.0 <= report.sbleu <= 1.0


def test_evaluate_corpus_empty_raises():
    with pytest.raises(ValueError, match="no dialogue pairs to evaluate"):
        evaluate_corpus([], None, None)


def test_evaluate_corpus_matches_independent_evaluator(lexicon, cfg):
    pairs = _sample_pairs()
    report = evaluate_corpus(pairs, lexicon, cfg)

    r1 = r2 = rl = rlsum = bleu_sum = cr = cp = 0.0
    for hyp, ref in pairs:
        hyp_text = format_transcript(hyp.turns)
        ref_text = format_transcript(ref.turns)
        hyp_tokens = otokenize(hyp_text)
        ref_tokens = otokenize(ref_text)
        r1 += oracle_rouge_n(hyp_tokens, ref_tokens, 1)
        r2 += oracle_rouge_n(hyp_tokens, ref_tokens, 2)
        rl += oracle_rouge_l(hyp_tokens, ref_tokens)
        rlsum += oracle_rouge_lsum(hyp_text.splitlines(), ref_text.splitlines())
        bleu_sum += oracle_bleu(hyp_tokens, [ref_tokens])
        recall, precision, _ = oracle_concept_scores(
            hyp_text, ref_text, lexicon.entries, cfg.concept_threshold
        )
        cr += recall
        cp += precision
    count = len(pairs)
    sbleu = oracle_self_bleu([[t.text for t in hyp.turns] for hyp, _ in pairs])
    mean_cr, mean_cp = cr / count, cp / count
    harmonic = 2 * mean_cp * mean_cr / (mean_cp + mean_cr) if mean_cp + mean_cr else 0.0

    assert abs(report.r1 - r1 / count) < 1e-6
    assert abs(report.r2 - r2 / count) < 1e-6
    assert abs(report.rl - rl / count) < 1e-6
    assert abs(report.rlsum - rlsum / count) < 1e-6
    assert abs(report.bleu - bleu_sum / count) < 1e-6
    assert abs(report.concept_recall - mean_cr) < 1e-6
    assert abs(report.concept_precision - mean_cp) < 1e-6
    assert abs(report.concept_f1 - harmonic) < 1e-6
    assert abs(report.sbleu - sbleu) < 1e-6
    assert report.len == pytest.approx((4 + 2 + 2) / 3)


def test_evaluate_corpus_rouge_lsum_lines_end_only_at_newlines(lexicon, cfg):
    # U+2028 stays inside its turn's line; splitlines() would cut it in two.
    hyp = make_dialogue("a\u2028b", "c d")
    ref = make_dialogue("b a", "c d")
    hyp_text, ref_text = format_transcript(hyp.turns), format_transcript(ref.turns)
    expected = oracle_rouge_lsum(hyp_text.split("\n"), ref_text.split("\n"))
    assert expected != oracle_rouge_lsum(hyp_text.splitlines(), ref_text.splitlines())
    assert abs(evaluate_corpus([(hyp, ref)], lexicon, cfg).rlsum - expected) < 1e-6


def reference_evaluate_corpus(pairs, lexicon, cfg):
    """``evaluate_corpus`` from the public per-metric functions, each on its
    own tokenization of the rendered transcripts."""
    sums = dict.fromkeys(("r1", "r2", "rl", "rlsum", "bleu", "concept_recall", "concept_precision"), 0.0)
    for hyp, ref in pairs:
        hyp_text = format_transcript(hyp.turns)
        ref_text = format_transcript(ref.turns)
        hyp_tok = tokenize(hyp_text)
        ref_tok = tokenize(ref_text)
        sums["r1"] += rouge_n(hyp_tok, ref_tok, 1)
        sums["r2"] += rouge_n(hyp_tok, ref_tok, 2)
        sums["rl"] += rouge_l(hyp_tok, ref_tok)
        sums["rlsum"] += rouge_lsum(split_lines(hyp_text), split_lines(ref_text))
        sums["bleu"] += bleu(hyp_tok, [ref_tok])
        recall, precision, _ = concept_scores(hyp_text, ref_text, lexicon, cfg)
        sums["concept_recall"] += recall
        sums["concept_precision"] += precision
    count = len(pairs)
    return EvalReport(
        **{name: total / count for name, total in sums.items()},
        sbleu=self_bleu([hyp for hyp, _ in pairs]),
        len=sum(len(hyp.turns) for hyp, _ in pairs) / count,
    )


# Lexicon surfaces among the pieces, so the concept scores are not all 0.
EVAL_PIECES = TURN_PIECES + ["aspirin", "diabetes", "heart failure", "failure heart", "asthma", "mri scan"]
eval_texts = st.lists(st.sampled_from(EVAL_PIECES), min_size=1, max_size=10).map(" ".join)


@given(st.lists(st.tuples(turn_lists(2, eval_texts), turn_lists(0, eval_texts)), min_size=1, max_size=3))
@example([([Utterance(Speaker.DOCTOR, "aspirin\r"), Utterance(Speaker.PATIENT, "Doctor: diabetes")], [])])
def test_evaluate_corpus_equals_the_public_metric_functions(lexicon, turn_pairs):
    pairs = [(Dialogue(f"h{i}", hyp), Dialogue(f"r{i}", ref)) for i, (hyp, ref) in enumerate(turn_pairs)]
    cfg = GenerationConfig()
    assert evaluate_corpus(pairs, lexicon, cfg) == reference_evaluate_corpus(pairs, lexicon, cfg)


def test_render_report_table_column_order(lexicon, cfg):
    report = evaluate_corpus(_sample_pairs(), lexicon, cfg)
    table = render_report_table(report)
    header, row = table.splitlines()
    assert header.split() == ["R-1", "R-2", "R-L", "R-L-Sum", "C-R", "BLEU", "SBLEU", "Len"]
    assert len(row.split()) == 8


# ``evaluate_corpus`` on three seeded pairs, every field pinned by its
# ``repr``: a last-bit drift that the oracles' 1e-6 tolerance lets through
# fails here.
GOLDEN_WORDS = ("the", "pain", "knee", "aspirin", "diabetes", "at", "night", "worse",
                "hypertension", "mri", "scan", "metformin", "daily", "no", "yes")
GOLDEN_REPORT = {
    "r1": "0.7513348044184825",
    "r2": "0.2369396697000337",
    "rl": "0.37536333749642964",
    "rlsum": "0.7289015070347639",
    "bleu": "0.07324002904388102",
    "sbleu": "0.13909425640580483",
    "concept_recall": "0.9333333333333332",
    "concept_precision": "1.0",
    "concept_f1": "0.9655172413793104",
    "len": "5.0",
}


def _golden_pairs():
    rng = random.Random(606)

    def dialogue(note_id, lengths):
        return make_dialogue(*(" ".join(rng.choices(GOLDEN_WORDS, k=k)) for k in lengths), note_id=note_id)

    # turn token counts: a 74- and a 71-token turn, one-token turns, equal lengths
    shapes = [
        ([9, 74, 1, 12, 6, 15], [8, 71, 3, 12, 10]),
        ([1, 5, 5, 22, 5], [4, 6, 1, 20, 7, 7]),
        ([30, 2, 18, 18], [28, 9, 17, 1]),
    ]
    return [(dialogue(f"g{i}", h), dialogue(f"g{i}", r)) for i, (h, r) in enumerate(shapes)]


def test_evaluate_corpus_golden_report(lexicon, cfg):
    report = evaluate_corpus(_golden_pairs(), lexicon, cfg)
    assert {k: repr(v) for k, v in dataclasses.asdict(report).items()} == GOLDEN_REPORT


def test_render_report_table_golden(lexicon, cfg):
    # Each cell padded to its heading, two spaces apart; the last heading
    # keeps its padding.
    assert render_report_table(evaluate_corpus(_golden_pairs(), lexicon, cfg)) == (
        "R-1     R-2     R-L     R-L-Sum  C-R     BLEU    SBLEU   Len \n"
        "0.7513  0.2369  0.3754  0.7289   0.9333  0.0732  0.1391  5.00"
    )
