"""``generate --mock`` writes the same bytes as the commit that pinned them.

CI's "Generate output against the base" step builds 150 seed-11 notes and a
2k lexicon with ``perfbench/gen.py`` and compares ``generate --mock`` at the
base commit with HEAD, as a report. This test makes the same comparison a
gate: each configuration's records and log lines must hash to the SHA-256
digests in ``tests/data/same_bytes.json``. The inputs are hashed first, so an
edit to the generator shows as an input change, not an output change.

A change that alters the output on purpose rewrites that file with
``python tests/test_same_bytes.py`` and says so.
"""

import hashlib
import importlib.util
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_gen_inputs(directory: Path) -> None:
    """``notes.jsonl`` and ``lexicon.tsv`` in ``directory``, built as CI's
    "Generate output against the base" step builds them."""
    spec = importlib.util.spec_from_file_location("_perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    workload = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))["gen-mock-cpu"]
    rng = random.Random(11)
    rows = gen.make_lexicon(rng, workload["lexicon_entries"]["value"], workload["synonym_share"]["value"])
    (directory / "lexicon.tsv").write_text(gen.lexicon_text(rows), encoding="utf-8")
    notes = gen.make_notes(rng, rows, workload["note_shapes"]["value"] * 10, "n")
    (directory / "notes.jsonl").write_text(
        "".join(json.dumps({"id": note["id"], "text": note["text"]}) + "\n" for note in notes), encoding="utf-8"
    )


def run_config(config: str, gen_dir: Path, out: Path, records) -> dict:
    """Exit code and digests of ``generate --mock`` in ``config``, writing to
    ``out``; ``records()`` gives the log records the run emitted."""
    inputs, budget, mode, workers = config.split("-")
    notes, lexicon = (NOTES_PATH, LEXICON_PATH) if inputs == "data" else (gen_dir / "notes.jsonl", gen_dir / "lexicon.tsv")
    code = cli.main([
        "generate", "--mock", "--mode", mode, *BUDGETS[budget], "--workers", workers[1:],
        "--input", str(notes), "--lexicon", str(lexicon), "--out", str(out),
    ])
    log = "".join(LOG_FORMAT.format(record) + "\n" for record in records())
    return {"exit": code, "records": _sha256(out.read_bytes()), "log": _sha256(log.encode("utf-8"))}


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gen")
    write_gen_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_the_generated_inputs_are_the_pinned_ones(gen_dir, digests):
    assert {name: _sha256((gen_dir / name).read_bytes()) for name in ("notes.jsonl", "lexicon.tsv")} == digests["inputs"]


@pytest.mark.parametrize("config", CONFIGS)
def test_generate_writes_the_pinned_bytes(config, gen_dir, digests, tmp_path, caplog):
    caplog.set_level(logging.INFO)
    assert run_config(config, gen_dir, tmp_path / "out.jsonl", lambda: caplog.records) == digests["outputs"][config]


def _pin() -> None:
    """Writes the digests of the current tree to ``DIGESTS_PATH``."""
    seen = []
    keep = logging.Handler()
    keep.emit = seen.append
    logging.getLogger().addHandler(keep)
    logging.getLogger().setLevel(logging.INFO)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        write_gen_inputs(directory)
        pinned = {
            "inputs": {name: _sha256((directory / name).read_bytes()) for name in ("notes.jsonl", "lexicon.tsv")},
            "outputs": {},
        }
        for config in CONFIGS:
            seen.clear()
            pinned["outputs"][config] = run_config(config, directory, directory / "out.jsonl", lambda: seen)
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _pin()
