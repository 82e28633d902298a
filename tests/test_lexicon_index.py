"""The compiled lexicon index: ``Lexicon._to_index`` and ``_from_index``, and
the ``<lexicon>.dialogforge-index`` file that ``load_lexicon_file`` keeps."""

import hashlib
import json
import logging
import marshal
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dialogforge
from dialogforge import concepts
from dialogforge.cli import main
from dialogforge.concepts import (
    INDEX_SUFFIX,
    Lexicon,
    LexiconError,
    extract_concepts,
    load_lexicon,
    load_lexicon_file,
)

from conftest import LEXICON_PATH, NOTES_PATH
from test_concepts import _LINE_WORDS, _lexicon_lines

_CONCEPTS_LOGGER = logging.getLogger("dialogforge.concepts")
# Appended to the fixture lexicon, so that a load logs a duplicate warning.
_DUPLICATE_LINE = "Diabetes\tC9\tdisease\n"
# The SHA-256 of the index payload of the fixture lexicon plus that line, with
# no header: the header holds the cache_tag. marshal's encoding differs
# between Python versions, so the digest does too.
_PAYLOAD_DIGESTS = {
    (3, 10): "410897115dca5b782ace3717e9b7e618948747b3207650d0fc50eb9b3c05b9ea",
    (3, 11): "1fb71bd0275a0e103c6a79b61c971f2475b17e042743e0f7668a1f5579e105e5",
    (3, 12): "1fb71bd0275a0e103c6a79b61c971f2475b17e042743e0f7668a1f5579e105e5",
    (3, 13): "410897115dca5b782ace3717e9b7e618948747b3207650d0fc50eb9b3c05b9ea",
}


def _fixture_lexicon():
    return load_lexicon((LEXICON_PATH.read_text(encoding="utf-8") + _DUPLICATE_LINE).split("\n"))


def _loading(path):
    """``(lexicon or the LexiconError's text, messages logged)`` of one
    ``load_lexicon_file`` call."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    _CONCEPTS_LOGGER.addHandler(handler)
    try:
        outcome = load_lexicon_file(path)
    except LexiconError as exc:
        outcome = str(exc)
    finally:
        _CONCEPTS_LOGGER.removeHandler(handler)
    return outcome, [(r.levelname, r.getMessage()) for r in records]


def test_the_index_holds_every_column_of_its_format():
    # A column added to Lexicon._index must go into _COLUMNS, and
    # _INDEX_FORMAT must be bumped, so that no older index is read.
    lexicon = load_lexicon(["a b\tC1\tdrug\n", "A-B\tC2\tdisease\n"])
    assert concepts._INDEX_FORMAT == 3
    assert sorted(vars(lexicon)) == [
        "_built", "_cuis", "_duplicates", "_exact", "_groups", "_keys", "_postings", "_set_sizes",
        "_surfaces", "max_term_tokens",
    ]
    assert vars(Lexicon._from_index(lexicon._to_index())) == vars(lexicon)


def test_the_fixture_index_is_pinned_to_its_format():
    # The header keys on the format, not on how a line parses: a change to
    # concept_fields, SemanticGroup.parse or the duplicate rule leaves every
    # old index in use unless the format is bumped. JSON, not marshal bytes,
    # so that the digest is the same on every Python version; in the order
    # the index holds its keys, which is part of the format.
    columns = marshal.loads(_fixture_lexicon()._to_index())
    digest = hashlib.sha256(json.dumps(columns).encode("utf-8")).hexdigest()
    pinned = (3, "d1cb48ef0a366a151db1ae76d79d1046fbafa1842cdf74416b870a9aa73a2cf2")
    assert (concepts._INDEX_FORMAT, digest) == pinned, (
        "the index of tests/data/lexicon.tsv plus one duplicate changed: "
        "bump concepts._INDEX_FORMAT together with this digest"
    )


@pytest.mark.skipif(sys.version_info[:2] not in _PAYLOAD_DIGESTS, reason="no payload digest for this Python")
def test_the_fixture_index_payload_is_pinned_per_python_version():
    # The JSON digest above cannot see marshal's back-references; this one
    # pins the bytes a command writes after the header.
    digest = hashlib.sha256(_fixture_lexicon()._to_index()).hexdigest()
    assert (concepts._INDEX_FORMAT, digest) == (3, _PAYLOAD_DIGESTS[sys.version_info[:2]])


# Builds the fixture lexicon's entries by matching its own text, then prints
# the SHA-256 of its index payload.
_BUILT_PAYLOAD = """import hashlib, sys
from dialogforge.concepts import extract_concepts, load_lexicon
text = open(sys.argv[1], encoding="utf-8").read() + sys.argv[2]
lexicon = load_lexicon(text.split("\\n"))
assert extract_concepts(text, lexicon, 0.7)
print(hashlib.sha256(lexicon._to_index()).hexdigest())
"""


def _child_env(seed):
    src = Path(concepts.__file__).resolve().parents[1]
    return {
        **os.environ, "PYTHONHASHSEED": seed,
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
    }


def test_the_index_payload_depends_on_the_lexicon_alone():
    # marshal writes an object with a second reference as a back-reference,
    # so a payload could follow whatever else holds the columns' objects.
    lexicon = _fixture_lexicon()
    payload = lexicon._to_index()
    assert Lexicon._from_index(payload)._to_index() == payload
    # Built entries hold the columns' strings.
    assert extract_concepts(LEXICON_PATH.read_text(encoding="utf-8"), lexicon, 0.7)
    assert lexicon._to_index() == payload
    # Another holder of a column, and of one of its lists.
    held = (lexicon._keys, lexicon._postings["heart"])
    assert lexicon._to_index() == payload
    assert held[0] is lexicon._keys
    digest = hashlib.sha256(payload).hexdigest()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _BUILT_PAYLOAD, str(LEXICON_PATH), _DUPLICATE_LINE],
            capture_output=True, env=_child_env(seed), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == digest


def test_the_index_file_does_not_depend_on_the_hash_seed(tmp_path):
    # Each child process writes the index of its own copy of the fixture
    # lexicon under another hash seed; the bytes must be the same.
    written = []
    for seed in ("0", "1"):
        lexicon = tmp_path / seed / "lexicon.tsv"
        lexicon.parent.mkdir()
        lexicon.write_bytes(LEXICON_PATH.read_bytes())
        code = "import sys; from dialogforge.concepts import load_lexicon_file; load_lexicon_file(sys.argv[1])"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(lexicon)], capture_output=True, env=_child_env(seed), timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
        written.append(lexicon.with_name(lexicon.name + INDEX_SUFFIX).read_bytes())
    assert written[0] == written[1]


def test_the_library_loads_a_lexicon_with_a_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_bytes(LEXICON_PATH.read_bytes())
    bom.write_bytes(b"\xef\xbb\xbf" + LEXICON_PATH.read_bytes())
    expected = dialogforge.load_lexicon_file(plain).entries
    for _ in ("cold", "warm"):
        assert dialogforge.load_lexicon_file(bom).entries == expected
        assert bom.with_name(bom.name + INDEX_SUFFIX).exists()


# Cold, the text is parsed and the index written; warm, the index is read.
@given(
    lines=_lexicon_lines(),
    bom=st.booleans(),
    windows=st.lists(st.lists(st.sampled_from(_LINE_WORDS), min_size=1, max_size=4), max_size=4),
    threshold=st.sampled_from([0.3, 0.5, 0.7, 1.0]),
)
@example(
    lines=["# c\r\n", "\n", "Heart-Failure\tC1\tdisease\n", "heart failure\tC2\tvertebrate\r\n",
           "a_b\tC3\t DRUG \n", "  ASPIRIN \tC4\tdrug\n", "aspirin\tC5\tother"],
    bom=True, windows=[["heart", "failure"], ["a", "b"], ["aspirin"]], threshold=0.5,
)
@example(lines=["aspirin\tC1\tdrug\n", "one\tfield\n"], bom=False, windows=[], threshold=0.7)
def test_a_lexicon_read_from_its_index_is_the_parsed_one(lines, bom, windows, threshold):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "lexicon.tsv"
        path.write_bytes((("\ufeff" if bom else "") + "".join(lines)).encode("utf-8"))
        cold, cold_log = _loading(path)
        index = path.with_name(path.name + INDEX_SUFFIX)
        if isinstance(cold, str):
            # A malformed lexicon raises its error, and no index is written.
            assert cold.startswith("malformed lexicon record at line ")
            assert not index.exists()
            assert _loading(path) == (cold, cold_log)
            return
        assert index.exists()
        with mock.patch.object(concepts, "load_lexicon", side_effect=AssertionError("parsed, not read")):
            warm, warm_log = _loading(path)
        assert warm_log == cold_log
        assert vars(warm) == vars(cold)
        for window in windows:
            assert warm.match_window(window, threshold) == cold.match_window(window, threshold)


def _extract(lexicon, out):
    return main(["extract", "--input", str(NOTES_PATH), "--lexicon", str(lexicon), "--out", str(out)])


@pytest.fixture()
def copied(tmp_path):
    """A copy of the fixture lexicon with one duplicate surface, its index
    path, and the extract output and log of a parse of it."""
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(LEXICON_PATH.read_text(encoding="utf-8") + _DUPLICATE_LINE, encoding="utf-8")
    expected = tmp_path / "expected.jsonl"
    assert _extract(lexicon, expected) == 0
    return lexicon, lexicon.with_name(lexicon.name + INDEX_SUFFIX), expected.read_bytes()


def _run(lexicon, tmp_path, capsys, caplog):
    """Extract output, stderr and log records of one extract run."""
    caplog.clear()
    out = tmp_path / "out.jsonl"
    assert _extract(lexicon, out) == 0
    log = [(r.name, r.levelname, r.getMessage()) for r in caplog.records if r.levelno >= logging.INFO]
    return out.read_bytes(), capsys.readouterr().err, log


_DUPLICATE = [("dialogforge.concepts", "WARNING", "duplicate lexicon surface 'diabetes' ignored")]


def test_a_warm_index_gives_the_records_and_warnings_of_a_parse(copied, tmp_path, capsys, caplog, monkeypatch):
    lexicon, index, expected = copied
    written = index.read_bytes()
    assert written.startswith(f"dialogforge-index {concepts._INDEX_FORMAT} ".encode())
    parses = []
    monkeypatch.setattr(concepts, "load_lexicon", lambda lines: parses.append(1) or load_lexicon(lines))
    assert _run(lexicon, tmp_path, capsys, caplog) == (expected, "", _DUPLICATE)
    assert parses == []
    assert index.read_bytes() == written


def test_a_stale_index_is_parsed_over_and_rewritten(copied, tmp_path, capsys, caplog):
    lexicon, index, _ = copied
    stale = index.read_bytes()
    text = lexicon.read_text(encoding="utf-8")
    edited = text.replace("C0011849", "C0011848")
    assert edited != text and len(edited) == len(text)
    lexicon.write_text(edited, encoding="utf-8")
    fresh = tmp_path / "fresh" / "lexicon.tsv"
    fresh.parent.mkdir()
    fresh.write_text(edited, encoding="utf-8")
    expected = _run(fresh, tmp_path, capsys, caplog)
    assert b"C0011848" in expected[0]
    assert _run(lexicon, tmp_path, capsys, caplog) == expected
    assert index.read_bytes() != stale
    assert index.read_bytes() == fresh.with_name(fresh.name + INDEX_SUFFIX).read_bytes()


def test_a_format_2_index_is_parsed_over_and_rewritten(copied, tmp_path, capsys, caplog, monkeypatch):
    lexicon, index, expected = copied
    written = index.read_bytes()
    assert written.startswith(b"dialogforge-index 3 ")
    index.write_bytes(b"dialogforge-index 2 " + written[len(b"dialogforge-index 3 "):])
    parses = []
    monkeypatch.setattr(concepts, "load_lexicon", lambda lines: parses.append(1) or load_lexicon(lines))
    assert _run(lexicon, tmp_path, capsys, caplog) == (expected, "", _DUPLICATE)
    assert parses == [1]
    assert index.read_bytes() == written


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_a_damaged_index_is_parsed_over_with_no_error(copied, tmp_path, capsys, caplog, damage):
    lexicon, index, expected = copied
    written = index.read_bytes()
    header = written[: written.index(b"\n") + 1]
    index.write_bytes(written[: len(written) // 2] if damage == "truncated" else header + b"\x00garbage")
    assert _run(lexicon, tmp_path, capsys, caplog) == (expected, "", _DUPLICATE)
    assert index.read_bytes() == written


@pytest.mark.parametrize("foreign", [b"", b"not an index\n", b"dialogforge-indeX 1"])
def test_a_file_that_is_not_an_index_is_kept(copied, tmp_path, capsys, caplog, foreign):
    lexicon, index, expected = copied
    index.write_bytes(foreign)
    assert _run(lexicon, tmp_path, capsys, caplog) == (expected, "", _DUPLICATE)
    # An empty file is a start of an index; anything else is someone's file.
    if foreign:
        assert index.read_bytes() == foreign
    else:
        assert index.read_bytes().startswith(b"dialogforge-index ")


@pytest.mark.parametrize("failing", ["mkstemp", "replace"])
def test_an_index_that_cannot_be_written_changes_no_output(copied, tmp_path, capsys, caplog, monkeypatch, failing):
    # Root may write into a read-only directory, so the failure is injected:
    # the temporary file cannot be made, or cannot replace the index.
    lexicon, index, expected = copied
    index.unlink()

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile if failing == "mkstemp" else os, failing, refuse)
    caplog.set_level(logging.DEBUG, logger="dialogforge.concepts")
    for _ in range(2):
        assert _run(lexicon, tmp_path, capsys, caplog) == (expected, "", _DUPLICATE)
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == [f"lexicon index {index} not written: [Errno 13] Permission denied"]
    # No index, and no temporary file left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.jsonl", "lexicon.tsv", "out.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_lexicon_read_from_a_fifo_gets_no_index(tmp_path, capsys, caplog):
    fifo = tmp_path / "lexicon.tsv"
    os.mkfifo(fifo)
    text = LEXICON_PATH.read_bytes()

    def feed():
        with open(fifo, "wb") as writer:
            writer.write(text)

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        records, err, log = _run(fifo, tmp_path, capsys, caplog)
    finally:
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (err, log) == ("", [])
    assert not fifo.with_name(fifo.name + INDEX_SUFFIX).exists()
    expected = tmp_path / "expected.jsonl"
    assert _extract(LEXICON_PATH, expected) == 0
    assert records == expected.read_bytes()


def test_a_malformed_lexicon_writes_no_index(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("aspirin\tC1\tdrug\none\tfield\n", encoding="utf-8")
    for _ in range(2):
        assert _extract(lexicon, tmp_path / "out.jsonl") == 1
        err = capsys.readouterr().err
        assert err == f"error: lexicon {lexicon}: malformed lexicon record at line 2: expected 3 tab-separated fields, got 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lexicon.tsv"]


def test_generate_writes_the_same_records_from_a_warm_index(copied, tmp_path):
    lexicon, index, _ = copied
    index.unlink()
    outputs = []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.jsonl"
        argv = ["generate", "--mock", "--input", str(NOTES_PATH), "--lexicon", str(lexicon), "--out", str(out)]
        assert main(argv) == 0
        assert index.exists()
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[1] == outputs[0]
