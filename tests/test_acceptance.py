"""Acceptance suite: one test per release criterion, printing a pass/fail
line each. Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json
import logging
import math
import random
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from dialogforge.backend import AuthError, MockBackend, RateLimited, complete_with_retry
from dialogforge.cli import main
from dialogforge.metrics import bleu, concept_scores, rouge_l, rouge_lsum, rouge_n, self_bleu, tokenize
from dialogforge.model import GenerationConfig, SemanticGroup, Speaker
from dialogforge.orchestrator import run_section_loop
from dialogforge.refiner import polish, run_full_pipeline
from dialogforge.segmenter import match_header, segment_note

from conftest import (
    BLACKHOLE_PROXY,
    LEXICON_PATH,
    NOTES_PATH,
    SUITE_SECONDS,
    coverage,
    make_dialogue,
    make_section,
    uncovered,
    user_request,
)
from oracles import (
    oracle_bleu,
    oracle_concept_scores,
    oracle_rouge_l,
    oracle_rouge_lsum,
    oracle_rouge_n,
    oracle_self_bleu,
)

VOCAB = ["the", "cat", "sat", "mat", "dog", "ran", "fast", "home", "red", "big", "now", "then"]


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)", flush=True)


def _lines(tokens, width=6):
    return [" ".join(tokens[i : i + width]) for i in range(0, len(tokens), width)]


def test_criterion_1_metric_oracle_equivalence(lexicon, cfg):
    with criterion(1, "metric oracle equivalence on 50 randomized pairs and hand fixtures"):
        started = time.perf_counter()
        rng = random.Random(101)
        surfaces = [e.surface for e in lexicon.entries]
        for _ in range(50):
            hyp_tokens = [rng.choice(VOCAB) for _ in range(rng.randint(1, 30))]
            ref_tokens = [rng.choice(VOCAB) for _ in range(rng.randint(1, 30))]
            hyp = tokenize(" ".join(hyp_tokens))
            ref = tokenize(" ".join(ref_tokens))
            assert abs(rouge_n(hyp, ref, 1) - oracle_rouge_n(hyp_tokens, ref_tokens, 1)) < 1e-6
            assert abs(rouge_n(hyp, ref, 2) - oracle_rouge_n(hyp_tokens, ref_tokens, 2)) < 1e-6
            assert abs(rouge_l(hyp, ref) - oracle_rouge_l(hyp_tokens, ref_tokens)) < 1e-6
            assert abs(bleu(hyp, [ref]) - oracle_bleu(hyp_tokens, [ref_tokens])) < 1e-6
            assert (
                abs(
                    rouge_lsum(_lines(hyp_tokens), _lines(ref_tokens))
                    - oracle_rouge_lsum(_lines(hyp_tokens), _lines(ref_tokens))
                )
                < 1e-6
            )
            if len(hyp_tokens) >= 2 and len(ref_tokens) >= 2:
                dialogue = make_dialogue(" ".join(hyp_tokens[:15]), " ".join(ref_tokens[:15]))
                assert (
                    abs(
                        self_bleu([dialogue])
                        - oracle_self_bleu([[t.text for t in dialogue.turns]])
                    )
                    < 1e-6
                )
            hyp_text = " ".join(rng.sample(surfaces, 3))
            ref_text = " ".join(rng.sample(surfaces, 3))
            got = concept_scores(hyp_text, ref_text, lexicon, cfg)
            want = oracle_concept_scores(hyp_text, ref_text, lexicon.entries, cfg.concept_threshold)
            assert all(abs(g - w) < 1e-6 for g, w in zip(got, want))

        # hand-computed fixtures
        assert abs(rouge_n(tokenize("the cat sat"), tokenize("the cat ran"), 1) - 2 / 3) < 1e-9
        assert abs(rouge_l(tokenize("the cat sat"), tokenize("the cat ran")) - 2 / 3) < 1e-9
        assert rouge_n(tokenize("a b"), tokenize("c d"), 2) == 0.0
        fixture = bleu(tokenize("the cat sat on the mat"), [tokenize("the cat sat on a mat")])
        assert abs(fixture - (1 / 12) ** 0.25) < 1e-9
        single = rouge_lsum(["the cat sat on a mat"], ["a cat sat near the mat"])
        assert abs(single - rouge_l(tokenize("the cat sat on a mat"), tokenize("a cat sat near the mat"))) < 1e-9
        disjoint = self_bleu([make_dialogue("alpha beta", "gamma delta")])
        assert abs(disjoint - (1 / 4 * 1 / 2 * 1 / 2 * 1 / 2) ** 0.25) < 1e-9
        recall, precision, _ = concept_scores(
            "we discussed diabetes and aspirin only",
            "diabetes, hypertension, aspirin, and an mri-scan",
            lexicon,
            cfg,
        )
        assert (recall, precision) == (0.5, 1.0)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_metric_identities():
    with criterion(2, "exact identity and disjoint values for ROUGE and BLEU"):
        started = time.perf_counter()
        rng = random.Random(103)
        for _ in range(20):
            tokens = [rng.choice(VOCAB) for _ in range(rng.randint(4, 20))]
            same = tokenize(" ".join(tokens))
            assert rouge_n(same, same, 1) == 1.0
            assert rouge_n(same, same, 2) == 1.0
            assert rouge_l(same, same) == 1.0
            assert rouge_lsum(_lines(tokens), _lines(tokens)) == 1.0
            assert bleu(same, [same]) == 1.0
            left = tokenize(" ".join(rng.sample(["aa", "bb", "cc", "dd"], 3)))
            right = tokenize(" ".join(rng.sample(["ee", "ff", "gg", "hh"], 3)))
            assert rouge_n(left, right, 1) == 0.0
            assert rouge_n(left, right, 2) == 0.0
            assert rouge_l(left, right) == 0.0
            assert rouge_lsum([" ".join(left.tokens)], [" ".join(right.tokens)]) == 0.0
        assert time.perf_counter() - started < 1.0


def test_criterion_3_segmenter_round_trip(segment_corpus):
    with criterion(3, "byte-for-byte segmentation round trip on the 20-note corpus"):
        started = time.perf_counter()
        assert len(segment_corpus) == 20
        for note in segment_corpus:
            sections = segment_note(note, threshold=0.85)
            assert "".join(s.header_line + s.body for s in sections) == note.text
            cursor = 0
            for section in sections:
                assert section.start == cursor
                cursor = section.end
            assert cursor == len(note.text)
        fuzzy = match_header("past medical hist", threshold=0.85)
        assert fuzzy is not None
        assert fuzzy.canonical.canonical_name == "past medical history"
        assert time.perf_counter() - started < 1.0


def _distinct_reportable(lexicon):
    """Reportable surfaces with distinct CUIs, no surface nested in another."""
    chosen = []
    seen = set()
    for entry in lexicon.entries:
        if entry.semantic_group is SemanticGroup.OTHER or entry.cui in seen:
            continue
        tokens = entry.surface.split()
        nested = any(
            " ".join(tokens) in " ".join(other.split()) or " ".join(other.split()) in " ".join(tokens)
            for other in chosen
        )
        if nested:
            continue
        seen.add(entry.cui)
        chosen.append(entry.surface)
    return chosen


_LOOP_DIALOGUES = []


def test_criterion_4_loop_coverage_property(lexicon):
    with criterion(4, "full coverage in exactly ceil(k/4) rounds on 100 random sections"):
        started = time.perf_counter()
        rng = random.Random(107)
        pool = _distinct_reportable(lexicon)
        assert len(pool) >= 12
        _LOOP_DIALOGUES.clear()
        for _ in range(100):
            k = rng.randint(1, 12)
            surfaces = rng.sample(pool, k)
            body = " ".join(f"The chart mentions {s} this visit." for s in surfaces)
            cfg = GenerationConfig(keywords_per_turn=4, max_rounds=math.ceil(k / 4))
            dialogue = run_section_loop(make_section(body), lexicon, MockBackend(), cfg)
            assert coverage(dialogue) == {"covered": k, "total": k}, f"uncovered: {uncovered(dialogue)}"
            rounds = len(dialogue.turns) // 2
            assert rounds == math.ceil(k / 4)
            _LOOP_DIALOGUES.append((dialogue, cfg))
        assert time.perf_counter() - started < 5.0


def test_criterion_5_cap_and_alternation_invariants():
    with criterion(5, "keyword cap and strict alternation on every criterion-4 dialogue"):
        assert _LOOP_DIALOGUES, "criterion 4 must run first"
        for dialogue, cfg in _LOOP_DIALOGUES:
            for i, turn in enumerate(dialogue.turns):
                expected = Speaker.DOCTOR if i % 2 == 0 else Speaker.PATIENT
                assert turn.speaker is expected
            assignments = dialogue.meta["round_keywords"]
            assert len(assignments) == len(dialogue.turns) // 2
            for assigned in assignments:
                assert 0 < len(assigned) <= cfg.keywords_per_turn


def test_criterion_6_refiner_safeguard(lexicon, cfg, caplog):
    with criterion(6, "polish pass-through when a scripted reply drops a keyword"):
        section = make_section("The note covers aspirin. It also covers asthma.")
        dialogue = run_section_loop(section, lexicon, MockBackend(), cfg, note_id="n")
        checklist = dialogue.meta["checklist"]
        assert not checklist.uncovered()
        before = checklist.covered_count()
        dropping = MockBackend(script=["Doctor: Only asthma comes up.\nPatient: Yes, asthma."])
        with caplog.at_level(logging.WARNING):
            result = polish(dialogue, section.body, checklist, lexicon, dropping, cfg)
        assert result is dialogue
        assert checklist.covered_count() == before
        assert any("dropped keywords" in record.message for record in caplog.records)


def test_criterion_7_mode_ordering(lexicon, fixture_notes):
    with criterion(7, "long mode yields a higher mean turn count than short mode"):
        means = {}
        for mode in ("short", "long"):
            cfg = GenerationConfig.for_mode(mode)
            counts = [
                len(run_full_pipeline(note, lexicon, MockBackend(style=mode), cfg).turns)
                for note in fixture_notes
            ]
            means[mode] = sum(counts) / len(counts)
        assert means["long"] > means["short"]


class _CountingStub:
    def __init__(self, errors):
        self.errors = list(errors)
        self.attempts = 0

    def complete(self, request):
        self.attempts += 1
        if self.errors:
            raise self.errors.pop(0)
        return "ok"


def test_criterion_8_backend_robustness():
    with criterion(8, "retry counts: 3 attempts on 429,429,ok and 1 attempt on 401"):
        started = time.perf_counter()
        flaky = _CountingStub([RateLimited("429"), RateLimited("429")])
        assert complete_with_retry(flaky, user_request("x"), max_retries=2, base_delay=0.001) == "ok"
        assert flaky.attempts == 3
        denied = _CountingStub([AuthError("401")])
        with pytest.raises(AuthError):
            complete_with_retry(denied, user_request("x"), max_retries=3, base_delay=0.001)
        assert denied.attempts == 1
        assert time.perf_counter() - started < 2.0


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "byte-identical scripted mock generation across two runs"):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Let us begin.", "Okay."]), encoding="utf-8")
        outputs = []
        for run in range(2):
            out = tmp_path / f"run{run}.jsonl"
            code = main(
                [
                    "generate",
                    "--input",
                    str(NOTES_PATH),
                    "--lexicon",
                    str(LEXICON_PATH),
                    "--out",
                    str(out),
                    "--mock-script",
                    str(script),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0


def test_criterion_10_suite_runtime_without_network():
    with criterion(10, "the suite runs with network blackholed, bounded at 60s by conftest"):
        # The bound itself is enforced by conftest's pytest_sessionfinish.
        assert SUITE_SECONDS == 60.0
        proxies = urllib.request.getproxies()
        assert proxies["http"] == proxies["https"] == BLACKHOLE_PROXY
        assert not urllib.request.proxy_bypass("192.0.2.1")
        assert urllib.request.proxy_bypass("127.0.0.1")
        with pytest.raises(urllib.error.URLError) as raised:
            urllib.request.urlopen("http://192.0.2.1/", timeout=5)
        assert isinstance(raised.value.reason, ConnectionError)
