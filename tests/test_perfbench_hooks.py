"""The names the benchmark in ``perfbench/`` patches or reads by name.

``perfbench/tracing.py`` wraps the functions in its ``TRACED`` table and both
backends' ``complete``; ``perfbench/run.py`` times ``cli.run_full_pipeline``
and ``cli.evaluate_corpus``. A rename breaks only the traced benchmark run,
so these checks keep it visible in the unit suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    # tracing.py imports its sibling ``stats`` as a top-level module.
    had_stats = "stats" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_stats:
            sys.modules.pop("stats", None)
    return module


def test_traced_names_resolve(tracing):
    for layer, functions in tracing.TRACED.items():
        module = importlib.import_module(f"dialogforge.{layer}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"{layer}.{function}"
    for name in tracing.MODULES:
        importlib.import_module(f"dialogforge.{name}")


def test_benchmark_entry_points_exist():
    from dialogforge import backend, cli, concepts

    assert callable(cli.main)
    assert callable(cli.run_full_pipeline)
    assert callable(cli.evaluate_corpus)
    assert callable(backend.HttpBackend.complete)
    assert callable(backend.MockBackend.complete)
    assert callable(backend.estimate_tokens)
    assert callable(concepts.words)


def test_tokenize_exposes_tokens():
    from dialogforge import metrics

    assert metrics.tokenize("a b").tokens == ("a", "b")


@pytest.mark.parametrize(
    "mode,options,trims",
    [
        pytest.param("short", {}, 0, id="default"),
        # the factuality pass, and a budget that trims the loop's history once
        pytest.param(
            "long", {"enable_factuality": True, "keywords_per_turn": 1, "max_context_tokens": 200}, 1,
            id="long-factuality-trimmed",
        ),
    ],
)
def test_pipeline_request_carries_the_whole_prompt(lexicon, fixture_notes, monkeypatch, mode, options, trims):
    # ``backend.prompt_tokens`` and ``prompt_tokens_per_item`` are counted
    # from ``request.messages``, so the prompt must travel there in full.
    from dialogforge import orchestrator
    from dialogforge.backend import MockBackend
    from dialogforge.model import GenerationConfig
    from dialogforge.prompts import DEFAULT_TEMPLATES
    from dialogforge.refiner import run_full_pipeline
    from oracles import oracle_render

    requests = []

    class Recording(MockBackend):
        def complete(self, request):
            requests.append(request)
            return super().complete(request)

    renders = []
    render = orchestrator.render_prompt
    monkeypatch.setattr(orchestrator, "render_prompt", lambda *args: renders.append(args) or render(*args))
    cfg = GenerationConfig.for_mode(mode, **options)
    run_full_pipeline(fixture_notes[0], lexicon, Recording(style=mode), cfg)
    assert len(renders) == len(requests) + trims
    stages = {"doctor", "patient", "polish", "hallucination", "postediting"}
    assert {r.stage for r in requests} == stages | ({"factuality"} if cfg.enable_factuality else set())
    for request in requests:
        assert len(request.messages) == 1
        assert all(isinstance(text, str) for text in request.slots.values())
        body = DEFAULT_TEMPLATES[request.stage].body
        assert request.messages[-1].content == oracle_render(body, request.slots)


def test_tracer_reads_hold_on_a_traced_run(tracing, lexicon, fixture_notes):
    # ``_attrs`` reads the results of the traced functions (the section loop's
    # ``meta`` among them). A read that no longer holds fails the traced
    # benchmark only, so run the tracer here over a long-mode note of several
    # sections, with the factuality pass, and over one evaluation.
    import dialogforge
    from dialogforge.backend import MockBackend
    from dialogforge.model import GenerationConfig

    for name in tracing.MODULES:
        importlib.import_module(f"dialogforge.{name}")
    cfg = GenerationConfig.for_mode("long", enable_factuality=True)
    tracer = tracing.Tracer(dialogforge)
    tracer.install()
    try:
        backend = MockBackend(style="long")
        dialogue = dialogforge.refiner.run_full_pipeline(fixture_notes[0], lexicon, backend, cfg)
        dialogforge.metrics.evaluate_corpus([(dialogue, dialogue)], lexicon, cfg)
    finally:
        tracer.remove()
    names = [span["name"] for span in tracer.spans]
    assert names.count("refiner.postedit_combine") >= 1 and "orchestrator.factuality_check" in names
    assert "metrics.evaluate_corpus" in names
    assert [span for span in tracer.spans if "error" in span] == []
    loops = [span for span in tracer.spans if span["name"] == "orchestrator.run_section_loop"]
    assert len(loops) >= 2
    assert all("rounds" in span and "termination" in span for span in loops)
    assert sum(span["rounds"] for span in loops) > 0
