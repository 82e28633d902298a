"""Span tracing applied from outside the program, and the per-layer metrics
derived from the spans.

``Tracer.install`` wraps the public functions of each module under every name
they are imported as (``orchestrator.mark_covered``, ``refiner.mark_covered``
and ``concepts.mark_covered`` are the same function), plus the ``complete``
method of both backends. A span is named ``layer.function``; its parent is
the innermost open span on the same thread, and it inherits its parent's
item id unless it opens an item itself. Spans are kept in memory and written
as JSONL at the end; ``layer_metrics`` reads that file back.
"""

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from stats import percentile

# (module, function) pairs traced; the module is also the span's layer.
TRACED = {
    "segmenter": ("segment_note",),
    "concepts": ("load_lexicon", "extract_concepts", "build_checklist", "mark_covered"),
    "orchestrator": ("run_section_loop", "run_round", "render_prompt", "factuality_check"),
    "refiner": ("run_full_pipeline", "polish", "hallucination_check", "postedit_combine"),
    "backend": ("complete_with_retry",),
    "metrics": (
        "evaluate_corpus", "rouge_n", "rouge_l", "rouge_lsum", "bleu", "self_bleu",
        "concept_scores", "tokenize",
    ),
    "cli": ("main", "cmd_generate", "cmd_evaluate"),
}
ITEM_SPANS = ("refiner.run_full_pipeline", "metrics.evaluate_corpus")
MODULES = ("model", "prompts", "segmenter", "concepts", "backend", "orchestrator", "refiner", "metrics", "cli")


def _item_id(name: str, args) -> Optional[str]:
    if name == "refiner.run_full_pipeline":
        return args[0].id
    if name == "metrics.evaluate_corpus":
        return args[0][0][0].note_id
    return None


def _attrs(name: str, args, result, estimate_tokens, words) -> Dict:
    """Counts recorded on a finished span."""
    if name == "segmenter.segment_note":
        return {"sections": len(result)}
    if name == "concepts.extract_concepts":
        return {"tokens": len(words(args[0]))}
    if name == "concepts.mark_covered":
        return {"flips": result}
    if name == "orchestrator.run_section_loop":
        return {"rounds": len(result.meta["round_keywords"]), "termination": result.meta["termination"]}
    if name in ("refiner.polish", "refiner.hallucination_check"):
        return {"fallback": result is args[0]}
    if name == "backend.complete":
        prompt = sum(estimate_tokens(m.content) for m in args[1].messages)
        return {"prompt_tokens": prompt, "reply_tokens": estimate_tokens(result)}
    if name == "metrics.tokenize":
        return {"tokens": len(result.tokens)}
    return {}


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = {name: getattr(package, name) for name in MODULES}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []
        self.spans: List[Dict] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        ids = self._ids
        estimate_tokens = self._modules["backend"].estimate_tokens
        words = self._modules["concepts"].words

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            item = _item_id(name, args) if name in ITEM_SPANS else None
            if item is None and parent is not None:
                item = parent["item"]
            span = {
                "id": next(ids),
                "name": name,
                "parent": parent["id"] if parent else None,
                "parent_name": parent["name"] if parent else None,
                "item": item,
                "thread": threading.get_ident(),
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            else:
                span["end"] = time.perf_counter()
                span.update(_attrs(name, args, result, estimate_tokens, words))
                return result
            finally:
                stack.pop()
                spans.append(span)

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        owners = [self._package] + list(self._modules.values())
        for layer, functions in TRACED.items():
            for function in functions:
                original = getattr(self._modules[layer], function)
                wrapper = self._wrap(f"{layer}.{function}", original)
                for owner in owners:
                    if getattr(owner, function, None) is original:
                        self._replace(owner, function, wrapper)
        backend = self._modules["backend"]
        for cls in (backend.HttpBackend, backend.MockBackend):
            self._replace(cls, "complete", self._wrap("backend.complete", cls.complete))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                out.write(json.dumps(span) + "\n")


def read_jsonl(path) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: List[Dict], workers: int, stub_stats: Optional[Dict]) -> Dict[str, float]:
    """Per-layer metrics from one traced phase. Counts and times are per item
    unless the name says otherwise."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"] - child_time[s["id"]]
        s["layer"] = s["name"].split(".", 1)[0]

    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
    items = [s for s in spans if s["name"] in ITEM_SPANS and s["parent_name"] not in ITEM_SPANS]
    n = max(len(items), 1)
    item_time = sum(s["dur"] for s in items) or 1.0
    item_ids = {s["id"] for s in items}

    def total(name, key="dur", where=None):
        return sum(s[key] for s in named[name] if where is None or where(s))

    def count(name, where=None):
        return sum(1 for s in named[name] if where is None or where(s))

    def ratio(a, b):
        return a / b if b else 0.0

    def top_of_layer(layer):
        # Time in a layer, counting nested spans of the same layer once.
        return sum(
            s["dur"] for s in spans
            if s["layer"] == layer and s["item"] is not None and s["id"] not in item_ids
            and (s["parent"] is None or by_id[s["parent"]]["layer"] != layer or s["parent"] in item_ids)
        )

    m: Dict[str, float] = {}
    m["segmenter.segment_note.calls"] = count("segmenter.segment_note") / n
    m["segmenter.segment_note.busy_s"] = total("segmenter.segment_note") / n
    m["segmenter.sections_per_item"] = total("segmenter.segment_note", "sections") / n

    loads = [s["dur"] for s in named["concepts.load_lexicon"]]
    m["concepts.load_lexicon.busy_s"] = statistics.median(loads) if loads else 0.0
    m["concepts.build_checklist.busy_s"] = total("concepts.build_checklist") / n
    is_loop = lambda s: (s["parent_name"] or "").startswith("orchestrator.")
    is_guard = lambda s: (s["parent_name"] or "").startswith("refiner.")
    for part, where in (("loop", is_loop), ("guard", is_guard)):
        m[f"concepts.mark_covered.{part}.calls"] = count("concepts.mark_covered", where) / n
        m[f"concepts.mark_covered.{part}.busy_s"] = total("concepts.mark_covered", where=where) / n
    m["concepts.mark_covered.flips_per_call"] = ratio(
        total("concepts.mark_covered", "flips"), count("concepts.mark_covered")
    )
    extract_s = total("concepts.extract_concepts")
    extract_tokens = total("concepts.extract_concepts", "tokens")
    m["concepts.extract_concepts.busy_s"] = extract_s / n
    m["concepts.extract_concepts.tokens"] = extract_tokens / n
    m["concepts.us_per_token"] = ratio(extract_s, extract_tokens) * 1e6
    m["concepts.item_share"] = top_of_layer("concepts") / item_time

    loops = named["orchestrator.run_section_loop"]
    m["orchestrator.run_section_loop.calls"] = len(loops) / n
    m["orchestrator.run_section_loop.busy_s"] = total("orchestrator.run_section_loop") / n
    m["orchestrator.run_section_loop.self_s"] = total("orchestrator.run_section_loop", "self") / n
    m["orchestrator.rounds_per_section"] = ratio(sum(s.get("rounds", 0) for s in loops), len(loops))
    for reason in ("checklist_empty", "max_rounds", "token_budget"):
        m[f"orchestrator.termination.{reason}"] = ratio(
            sum(1 for s in loops if s.get("termination") == reason), len(loops)
        )
    m["orchestrator.render_prompt.calls"] = count("orchestrator.render_prompt") / n
    m["orchestrator.render_prompt.busy_s"] = total("orchestrator.render_prompt") / n
    m["orchestrator.renders_per_backend_call"] = ratio(
        count("orchestrator.render_prompt"), count("backend.complete_with_retry")
    )

    rewrites = fallbacks = 0
    for fn in ("polish", "hallucination_check", "postedit_combine"):
        name = f"refiner.{fn}"
        m[f"{name}.calls"] = count(name) / n
        m[f"{name}.busy_s"] = total(name) / n
        m[f"{name}.self_s"] = total(name, "self") / n
        if fn != "postedit_combine":
            fell = count(name, lambda s: s.get("fallback"))
            m[f"{name}.fallbacks"] = fell / n
            rewrites += count(name)
            fallbacks += fell
    m["refiner.rewrite_accept_ratio"] = ratio(rewrites - fallbacks, rewrites)

    calls = named["backend.complete_with_retry"]
    requests = named["backend.complete"]
    m["backend.calls"] = len(calls) / n
    for part, parents in (
        ("loop", ("orchestrator.run_round", "orchestrator.factuality_check")),
        ("polish", ("refiner.polish",)),
        ("hallucination", ("refiner.hallucination_check",)),
        ("merge", ("refiner.postedit_combine",)),
    ):
        m[f"backend.calls.{part}"] = sum(1 for s in calls if s["parent_name"] in parents) / n
    m["backend.requests"] = len(requests) / n
    m["backend.retries"] = (len(requests) - len(calls)) / n
    m["backend.rate_limited"] = sum(1 for s in requests if s.get("error") == "RateLimited") / n
    m["backend.errors"] = sum(1 for s in calls if "error" in s) / n
    wait = sum(s["dur"] for s in calls)
    m["backend.wait_s"] = wait / n
    m["backend.item_share"] = wait / item_time
    latencies = [s["dur"] for s in requests]
    m["backend.latency_p50_s"] = statistics.median(latencies) if latencies else 0.0
    m["backend.latency_tail_s"] = percentile(latencies, 95) if latencies else 0.0
    m["backend.backoff_s"] = (wait - sum(latencies)) / n
    m["backend.prompt_tokens"] = sum(s.get("prompt_tokens", 0) for s in requests) / n
    m["backend.reply_tokens"] = sum(s.get("reply_tokens", 0) for s in requests) / n
    if stub_stats:
        m["backend.requests_per_connection"] = ratio(stub_stats["requests"], stub_stats["connections"])
    else:
        m["backend.requests_per_connection"] = 0.0

    for fn in ("rouge_lsum", "rouge_l", "rouge_n", "bleu", "self_bleu", "concept_scores", "tokenize"):
        name = f"metrics.{fn}"
        m[f"{name}.calls"] = count(name) / n
        m[f"{name}.busy_s"] = total(name) / n
        m[f"{name}.self_s"] = total(name, "self") / n
    m["metrics.tokens_per_pair"] = total("metrics.tokenize", "tokens", lambda s: s["parent"] in item_ids) / n
    m["metrics.item_share"] = top_of_layer("metrics") / item_time

    mains = named["cli.main"]
    main_time = sum(s["dur"] for s in mains)
    covered = 0.0
    for main in mains:
        inside = [(s["start"], s["end"]) for s in items if main["start"] <= s["start"] and s["end"] <= main["end"]]
        covered += _union_length(inside)
    m["cli.overhead_s"] = (main_time - covered) / n
    m["cli.worker_busy_ratio"] = ratio(sum(s["dur"] for s in items), workers * main_time)
    return m
