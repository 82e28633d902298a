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


def test_pipeline_request_carries_the_whole_prompt(lexicon, cfg, fixture_notes):
    # ``backend.prompt_tokens`` and ``prompt_tokens_per_item`` are counted
    # from ``request.messages``, so the prompt must travel there in full.
    from dialogforge.backend import MockBackend
    from dialogforge.prompts import DEFAULT_TEMPLATES
    from dialogforge.refiner import run_full_pipeline
    from oracles import oracle_render

    requests = []

    class Recording(MockBackend):
        def complete(self, request):
            requests.append(request)
            return super().complete(request)

    run_full_pipeline(fixture_notes[0], lexicon, Recording(), cfg)
    assert {r.stage for r in requests} == {"doctor", "patient", "polish", "hallucination", "postediting"}
    for request in requests:
        assert len(request.messages) == 1
        body = DEFAULT_TEMPLATES[request.stage].body
        assert request.messages[-1].content == oracle_render(body, request.slots)
