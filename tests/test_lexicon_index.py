"""The compiled lexicon index: the ``<lexicon>.dialogforge-index`` file that
``load_lexicon_file`` writes from the columns of a parse and reads back."""

import hashlib
import json
import logging
import marshal
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dialogforge
from dialogforge import concepts
from dialogforge.cli import main
from dialogforge.concepts import INDEX_SUFFIX, LexiconError, load_lexicon, load_lexicon_file

from conftest import LEXICON_PATH, NOTES_PATH
from test_concepts import _LINE_WORDS, _lexicon_lines

_CONCEPTS_LOGGER = logging.getLogger("dialogforge.concepts")
# Appended to the fixture lexicon, so that a load logs a duplicate warning.
_DUPLICATE_LINE = "Diabetes\tC9\tdisease\n"
# The SHA-256 of the index payload of the fixture lexicon plus that line, with
# no header: the header holds the cache_tag. marshal's encoding may differ
# between Python versions, so the digest is pinned per version. With every
# one-character string interned, these four versions write the same bytes.
_PAYLOAD_DIGESTS = {
    (3, 10): "410897115dca5b782ace3717e9b7e618948747b3207650d0fc50eb9b3c05b9ea",
    (3, 11): "410897115dca5b782ace3717e9b7e618948747b3207650d0fc50eb9b3c05b9ea",
    (3, 12): "410897115dca5b782ace3717e9b7e618948747b3207650d0fc50eb9b3c05b9ea",
    (3, 13): "410897115dca5b782ace3717e9b7e618948747b3207650d0fc50eb9b3c05b9ea",
}
# Lines whose strings are one character long: a token of a longer key, a whole
# surface and key, a CUI, and one outside Latin-1.
_ONE_CHARACTER_LINES = "factor 7\tC90\tdrug\nvitamin b\tC91\tdrug\n7\tC92\tdrug\nheparin\t7\tdrug\nω\tC93\tdisease\n"
# A lexicon that holds each of its one-character strings, CUIs both, just once.
_HELD_ONCE_LINES = "heparin\tω\tdrug\naspirin\t7\tdrug\n"


def _payload(path):
    """The index payload that a cold ``load_lexicon_file`` of ``path`` writes."""
    index = path.with_name(path.name + INDEX_SUFFIX)
    index.unlink(missing_ok=True)
    load_lexicon_file(path)
    written = index.read_bytes()
    return written[written.index(b"\n") + 1:]


def _fixture_payload(directory):
    path = directory / "lexicon.tsv"
    path.write_text(LEXICON_PATH.read_text(encoding="utf-8") + _DUPLICATE_LINE, encoding="utf-8")
    return _payload(path)


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


def test_the_index_holds_every_column_of_its_format(tmp_path):
    # A column added to concepts._columns must go into _COLUMNS, and
    # _INDEX_FORMAT must be bumped, so that no older index is read.
    path = tmp_path / "lexicon.tsv"
    path.write_text("a b\tC1\tdrug\nA-B\tC2\tdisease\n", encoding="utf-8")
    cold = load_lexicon_file(path)
    assert concepts._INDEX_FORMAT == 3
    assert sorted(vars(cold)) == [
        "_built", "_cuis", "_duplicates", "_exact", "_groups", "_keys", "_postings", "_set_sizes",
        "_surfaces", "max_term_tokens",
    ]
    assert vars(load_lexicon_file(path)) == vars(cold) == vars(load_lexicon(path.read_text(encoding="utf-8").split("\n")))


def test_the_fixture_index_is_pinned_to_its_format(tmp_path):
    # The header keys on the format, not on how a line parses: a change to
    # concept_fields, SemanticGroup.parse or the duplicate rule leaves every
    # old index in use unless the format is bumped. JSON, not marshal bytes,
    # so that the digest is the same on every Python version; in the order
    # the index holds its keys, which is part of the format.
    columns = marshal.loads(_fixture_payload(tmp_path))
    digest = hashlib.sha256(json.dumps(columns).encode("utf-8")).hexdigest()
    pinned = (3, "d1cb48ef0a366a151db1ae76d79d1046fbafa1842cdf74416b870a9aa73a2cf2")
    assert (concepts._INDEX_FORMAT, digest) == pinned, (
        "the index of tests/data/lexicon.tsv plus one duplicate changed: "
        "bump concepts._INDEX_FORMAT together with this digest"
    )


@pytest.mark.skipif(sys.version_info[:2] not in _PAYLOAD_DIGESTS, reason="no payload digest for this Python")
def test_the_fixture_index_payload_is_pinned_per_python_version(tmp_path):
    # The JSON digest above cannot see marshal's back-references; this one
    # pins the bytes a command writes after the header.
    digest = hashlib.sha256(_fixture_payload(tmp_path)).hexdigest()
    assert (concepts._INDEX_FORMAT, digest) == (3, _PAYLOAD_DIGESTS[sys.version_info[:2]])


# Writes the index of the lexicon argv[1]. With argv[2] "primed", it first
# compiles the constants '7' and 'ω', keeps the log records, and builds and
# holds the entries of the lexicon argv[3]: each may hold a string that the
# index holds.
_WRITE_INDEX = """import logging, sys
if sys.argv[2] == "primed":
    exec("seven, omega = '7', 'ω'")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logging.getLogger().addHandler(handler)
from dialogforge.concepts import extract_concepts, load_lexicon_file
if sys.argv[2] == "primed":
    other = load_lexicon_file(sys.argv[3])
    held = extract_concepts(open(sys.argv[3], encoding="utf-8").read(), other, 0.7)
    assert held and other._keys
load_lexicon_file(sys.argv[1])
"""


def _child_env(seed):
    src = Path(concepts.__file__).resolve().parents[1]
    return {
        **os.environ, "PYTHONHASHSEED": seed,
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
    }


def test_the_index_payload_depends_on_the_lexicon_alone(tmp_path):
    # marshal writes an object with a second reference as a back-reference,
    # and whether a string is interned, so a payload could follow whatever
    # else holds the columns' objects or interned their strings. Each child
    # process writes the index of its own copy of one lexicon.
    other = tmp_path / "other.tsv"
    other.write_text(LEXICON_PATH.read_text(encoding="utf-8") + _ONE_CHARACTER_LINES, encoding="utf-8")
    fixture = LEXICON_PATH.read_text(encoding="utf-8") + _DUPLICATE_LINE + _ONE_CHARACTER_LINES
    for name, text in (("fixture", fixture), ("held-once", _HELD_ONCE_LINES)):
        written = []
        for seed in ("0", "1"):
            for state in ("plain", "primed"):
                lexicon = tmp_path / f"{name}-{seed}-{state}" / "lexicon.tsv"
                lexicon.parent.mkdir()
                lexicon.write_text(text, encoding="utf-8")
                proc = subprocess.run(
                    [sys.executable, "-c", _WRITE_INDEX, str(lexicon), state, str(other)],
                    capture_output=True, env=_child_env(seed), timeout=60,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                written.append(lexicon.with_name(lexicon.name + INDEX_SUFFIX).read_bytes())
        assert written == written[:1] * 4, name


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
        with mock.patch.object(concepts, "_columns", side_effect=AssertionError("parsed, not read")):
            warm, warm_log = _loading(path)
        assert warm_log == cold_log
        assert vars(warm) == vars(cold)
        for window in windows:
            assert warm.match_window(window, threshold) == cold.match_window(window, threshold)


# A line whose surface or CUI holds a one-character string.
_ONE_CHARACTER_LINE = st.builds(
    "{}{}\t{}\tdrug\n".format,
    st.sampled_from(["", "factor ", "vitamin "]),
    st.sampled_from(["7", "b", "x", "é", "ω"]),
    st.sampled_from(["C90", "7"]),
)


@given(lines=_lexicon_lines(), ones=st.lists(_ONE_CHARACTER_LINE, max_size=4), first=st.booleans())
@example(lines=["aspirin\tC1\tdrug\n"], ones=["factor 7\tC90\tdrug\n", "7\t7\tdrug\n", "ω\tC90\tdrug\n"], first=True)
def test_a_cold_payload_is_a_fixed_point_of_marshal(lines, ones, first):
    # A payload dumped from the parse is the one a fresh decode of it dumps:
    # no back-reference or interned flag comes from outside the columns.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "lexicon.tsv"
        path.write_text("".join(ones + lines if first else lines + ones), encoding="utf-8")
        try:
            payload = _payload(path)
        except LexiconError:
            assert not path.with_name(path.name + INDEX_SUFFIX).exists()
            return
        # Outside the assert, which would hold the decoded tuple in a name.
        again = marshal.dumps(marshal.loads(payload))
        assert again == payload


def test_a_cold_load_dumps_once_and_a_warm_load_only_reads(tmp_path, monkeypatch):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(LEXICON_PATH.read_bytes())
    calls = []
    counted = types.SimpleNamespace(
        dumps=lambda value: calls.append("dumps") or marshal.dumps(value),
        loads=lambda data: calls.append("loads") or marshal.loads(data),
    )
    monkeypatch.setattr(concepts, "marshal", counted)
    cold = load_lexicon_file(path)
    assert calls == ["dumps", "loads"]
    calls.clear()
    assert vars(load_lexicon_file(path)) == vars(cold)
    assert calls == ["loads"]


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
    monkeypatch.setattr(concepts, "_columns", lambda rows, parse=concepts._columns: parses.append(1) or parse(rows))
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
    monkeypatch.setattr(concepts, "_columns", lambda rows, parse=concepts._columns: parses.append(1) or parse(rows))
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
