"""``generate --mock`` and ``evaluate`` write the same bytes as the commit
that pinned them.

CI's "Generate output against the base" step builds 150 seed-11 notes and a
2k lexicon with ``perfbench/gen.py`` and compares ``generate --mock`` at the
base commit with HEAD, as a report. Its "Evaluate output against the base"
step scores the three golden generate files against each other, and 36
seed-11 ``eval-long-dialogues``-shaped pairs, each alone and all at once.
Both steps build their inputs with ``write_gen_inputs`` and
``write_eval_inputs`` below. This test makes the same comparisons a gate:
each run's output, stdout table and log lines must hash to the SHA-256
digests in ``tests/data/same_bytes.json``. The inputs are hashed first, so an
edit to the generator shows as an input change, not an output change. The
sizes of the inputs are frozen here, so re-sizing a benchmark workload in
``perfbench/workloads.json`` changes no input.

A change that alters the output on purpose rewrites that file with
``python tests/test_same_bytes.py`` and says so.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import logging
import random
import tempfile
from pathlib import Path

import pytest

from dialogforge import cli

from conftest import DATA_DIR, LEXICON_PATH, NOTES_PATH

DIGESTS_PATH = DATA_DIR / "same_bytes.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The format ``cli.main`` gives its log lines on stderr.
LOG_FORMAT = logging.Formatter("%(levelname)s %(name)s: %(message)s")

BUDGETS = {"default": [], "trimmed": ["--keywords-per-turn", "1", "--max-context-tokens", "250"]}
CONFIGS = [
    "-".join(parts)
    for parts in itertools.product(["data", "gen"], BUDGETS, ["short", "long"], ["w1", "w3"])
]

# The perfbench/gen.py arguments of the inputs. Each value belongs to this
# gate, not to the benchmark: it is what perfbench/workloads.json held for
# gen-mock-cpu and eval-long-dialogues when the digests were pinned, and it
# stays when a workload is re-sized.
GEN_SIZES = {
    "lexicon_entries": 2000,
    "synonym_share": 0.1,
    "note_shapes": [
        [8], [4, 5], [2, 8], [4, 7], [3, 4, 5], [6, 7], [2, 6, 6], [3, 4, 2, 6], [5, 3, 8], [5, 2, 4, 6],
        [2, 3, 4, 3, 6], [7, 4, 8], [4, 3, 5, 2, 6], [6, 5, 4, 6], [3, 5, 4, 2, 8],
    ],
}
EVAL_SIZES = {
    "lexicon_entries": 100,
    "synonym_share": 0.1,
    "vocabulary": 400,
    "turns": [30, 32, 33, 35, 37, 39, 40, 42, 44, 46, 47, 49, 51, 53, 54, 56, 58, 60],
    "batches": 2,
    "tokens_per_turn": (10, 30),
    "concept_rate": 0.4,
}

GOLDEN_DIR = DATA_DIR / "golden"
# Each golden evaluate run: its hypothesis and reference files, on the fixture lexicon.
GOLDEN_RUNS = {
    "short-long": ("generate_short.jsonl", "generate_long.jsonl"),
    "long-short": ("generate_long.jsonl", "generate_short.jsonl"),
    "factuality-short": ("generate_short_factuality.jsonl", "generate_short.jsonl"),
}
PAIRS = [f"p{k}" for k in range(len(EVAL_SIZES["turns"]) * EVAL_SIZES["batches"])]
EVAL_RUNS = [*GOLDEN_RUNS, "all", *PAIRS]
EVAL_INPUTS = ["lexicon.tsv", *(f"{pair}.{side}.jsonl" for pair in ["all", *PAIRS] for side in ("hyp", "ref"))]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _gen():
    """``perfbench/gen.py`` as a module."""
    spec = importlib.util.spec_from_file_location("_perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def write_gen_inputs(directory: Path) -> None:
    """``notes.jsonl`` and ``lexicon.tsv`` in ``directory``: 150 seed-11
    ``gen-mock-cpu``-shaped notes and their lexicon."""
    gen = _gen()
    rng = random.Random(11)
    rows = gen.make_lexicon(rng, GEN_SIZES["lexicon_entries"], GEN_SIZES["synonym_share"])
    (directory / "lexicon.tsv").write_text(gen.lexicon_text(rows), encoding="utf-8")
    notes = gen.make_notes(rng, rows, GEN_SIZES["note_shapes"] * 10, "n")
    (directory / "notes.jsonl").write_text(
        "".join(json.dumps({"id": note["id"], "text": note["text"]}) + "\n" for note in notes), encoding="utf-8"
    )


def write_eval_inputs(directory: Path) -> None:
    """``EVAL_INPUTS`` in ``directory``: the lexicon and 36 seed-11
    ``eval-long-dialogues``-shaped pairs, each pair in its own
    ``p<k>.hyp.jsonl`` and ``p<k>.ref.jsonl``, and all of them together in
    ``all.hyp.jsonl`` and ``all.ref.jsonl``."""
    gen = _gen()
    rng = random.Random(11)
    rows = gen.make_lexicon(rng, EVAL_SIZES["lexicon_entries"], EVAL_SIZES["synonym_share"])
    (directory / "lexicon.tsv").write_text(gen.lexicon_text(rows), encoding="utf-8")
    vocab = gen.make_vocab(rng, EVAL_SIZES["vocabulary"], rows)
    every = {"hyp": [], "ref": []}
    for k, turns in enumerate(EVAL_SIZES["turns"] * EVAL_SIZES["batches"]):
        lengths = gen.turn_lengths(rng, turns, EVAL_SIZES["tokens_per_turn"])
        hyp, ref = gen.make_pair(rng, vocab, rows, lengths, EVAL_SIZES["concept_rate"])
        for side, texts in (("hyp", hyp), ("ref", ref)):
            line = json.dumps(gen.dialogue_record(f"p{k}", texts)) + "\n"
            (directory / f"p{k}.{side}.jsonl").write_text(line, encoding="utf-8")
            every[side].append(line)
    for side, lines in every.items():
        (directory / f"all.{side}.jsonl").write_text("".join(lines), encoding="utf-8")


def _log_digest(records) -> str:
    return _sha256("".join(LOG_FORMAT.format(record) + "\n" for record in records).encode("utf-8"))


def run_config(config: str, gen_dir: Path, out: Path, records) -> dict:
    """Exit code and digests of ``generate --mock`` in ``config``, writing to
    ``out``; ``records()`` gives the log records the run emitted."""
    inputs, budget, mode, workers = config.split("-")
    notes, lexicon = (NOTES_PATH, LEXICON_PATH) if inputs == "data" else (gen_dir / "notes.jsonl", gen_dir / "lexicon.tsv")
    code = cli.main([
        "generate", "--mock", "--mode", mode, *BUDGETS[budget], "--workers", workers[1:],
        "--input", str(notes), "--lexicon", str(lexicon), "--out", str(out),
    ])
    return {"exit": code, "records": _sha256(out.read_bytes()), "log": _log_digest(records())}


def run_eval(run: str, eval_dir: Path, out: Path, records) -> dict:
    """Exit code and digests of ``evaluate`` in ``run``, writing its report to
    ``out``; ``records()`` gives the log records the run emitted."""
    if run in GOLDEN_RUNS:
        (hyp, ref), lexicon = (GOLDEN_DIR / name for name in GOLDEN_RUNS[run]), LEXICON_PATH
    else:
        hyp, ref, lexicon = eval_dir / f"{run}.hyp.jsonl", eval_dir / f"{run}.ref.jsonl", eval_dir / "lexicon.tsv"
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        code = cli.main([
            "evaluate", "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(lexicon), "--out", str(out),
        ])
    return {
        "exit": code, "report": _sha256(out.read_bytes()), "table": _sha256(table.getvalue().encode("utf-8")),
        "log": _log_digest(records()),
    }


def _input_digests(directory: Path, names) -> dict:
    return {name: _sha256((directory / name).read_bytes()) for name in names}


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gen")
    write_gen_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("eval")
    write_eval_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_the_generated_inputs_are_the_pinned_ones(gen_dir, digests):
    assert _input_digests(gen_dir, ("notes.jsonl", "lexicon.tsv")) == digests["inputs"]


@pytest.mark.parametrize("config", CONFIGS)
def test_generate_writes_the_pinned_bytes(config, gen_dir, digests, tmp_path, caplog):
    caplog.set_level(logging.INFO)
    assert run_config(config, gen_dir, tmp_path / "out.jsonl", lambda: caplog.records) == digests["outputs"][config]


def test_the_evaluate_inputs_are_the_pinned_ones(eval_dir, digests):
    assert _input_digests(eval_dir, EVAL_INPUTS) == digests["evaluate"]["inputs"]


@pytest.mark.parametrize("run", EVAL_RUNS)
def test_evaluate_writes_the_pinned_bytes(run, eval_dir, digests, tmp_path, caplog):
    caplog.set_level(logging.INFO)
    got = run_eval(run, eval_dir, tmp_path / "report.json", lambda: caplog.records)
    assert got == digests["evaluate"]["outputs"][run]


def _pin() -> None:
    """Writes the digests of the current tree to ``DIGESTS_PATH``."""
    seen = []
    keep = logging.Handler()
    keep.emit = seen.append
    logging.getLogger().addHandler(keep)
    logging.getLogger().setLevel(logging.INFO)
    with tempfile.TemporaryDirectory() as temp:
        gen_dir, eval_dir = Path(temp, "gen"), Path(temp, "eval")
        gen_dir.mkdir()
        eval_dir.mkdir()
        write_gen_inputs(gen_dir)
        write_eval_inputs(eval_dir)
        pinned = {
            "inputs": _input_digests(gen_dir, ("notes.jsonl", "lexicon.tsv")),
            "outputs": {},
            "evaluate": {"inputs": _input_digests(eval_dir, EVAL_INPUTS), "outputs": {}},
        }
        for config in CONFIGS:
            seen.clear()
            pinned["outputs"][config] = run_config(config, gen_dir, Path(temp, "out.jsonl"), lambda: seen)
        for run in EVAL_RUNS:
            seen.clear()
            pinned["evaluate"]["outputs"][run] = run_eval(run, eval_dir, Path(temp, "report.json"), lambda: seen)
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _pin()
