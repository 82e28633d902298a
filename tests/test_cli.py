import argparse
import contextlib
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from dialogforge import cli
from dialogforge.cli import build_parser, load_config_file, main
from dialogforge.backend import MockBackend
from dialogforge.concepts import extract_concepts, filter_semantic_groups
from dialogforge.model import (
    STAGE_SLOTS,
    ClinicalNote,
    Dialogue,
    GenerationConfig,
    Utterance,
    format_transcript,
    parse_transcript,
)

from conftest import DATA_DIR, LEXICON_PATH, NOTES_PATH
from test_refiner import _drop_keyword, union_recount

GOLDEN_DIR = DATA_DIR / "golden"


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


@contextlib.contextmanager
def _serving(handler):
    """The URL of an in-process HTTP server that answers with ``handler``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------


def test_segment_fixture_notes(tmp_path):
    out = tmp_path / "sections.jsonl"
    assert main(["segment", "--input", str(NOTES_PATH), "--out", str(out)]) == 0
    records = _read_jsonl(out)
    n1 = [r for r in records if r["note_id"] == "n1"]
    assert [r["header"] for r in n1] == [
        "chief complaint",
        "history of present illness",
        "medications",
    ]
    for record in records:
        assert record["span"][0] < record["span"][1]


def test_segment_empty_input(tmp_path):
    src = tmp_path / "empty.jsonl"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["segment", "--input", str(src), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_segment_malformed_json_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_text('{"id": "a", "text": "x"}\n{oops\n', encoding="utf-8")
    code = main(["segment", "--input", str(src), "--out", str(tmp_path / "o.jsonl")])
    assert code != 0
    err = capsys.readouterr().err
    assert "line 2" in err


def test_segment_missing_input(tmp_path):
    assert main(["segment", "--input", str(tmp_path / "nope.jsonl")]) != 0


def test_segment_rejects_non_string_note_text(tmp_path, capsys):
    src = tmp_path / "notes.jsonl"
    src.write_text(
        json.dumps({"id": "a", "text": "CHIEF COMPLAINT:\nCough.\n"}) + "\n"
        + json.dumps({"id": "b", "text": ["x"]}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "sections.jsonl"
    assert main(["segment", "--input", str(src), "--out", str(out)]) == 1
    assert f"{src} line 2: note record needs 'id' and a string 'text'" in capsys.readouterr().err
    assert not out.exists()


def test_segment_similarity_threshold_flag_is_read(tmp_path):
    src = tmp_path / "notes.jsonl"
    text = "CHIEF COMPLAINT:\nCough.\nMEDICATONS:\nAspirin daily.\n"
    src.write_text(json.dumps({"id": "t", "text": text}) + "\n", encoding="utf-8")
    headers = []
    for extra in ([], ["--similarity-threshold", "1.0"]):
        out = tmp_path / "sections.jsonl"
        assert main(["segment", "--input", str(src), "--out", str(out), *extra]) == 0
        headers.append([r["header"] for r in _read_jsonl(out)])
    # The typo heading matches "medications" at the default 0.85, and only an
    # exact heading matches at 1.0.
    assert headers == [["chief complaint", "medications"], ["chief complaint"]]


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def test_extract_matches_module_output(tmp_path, lexicon, cfg):
    out = tmp_path / "concepts.jsonl"
    code = main(
        ["extract", "--input", str(NOTES_PATH), "--lexicon", str(LEXICON_PATH), "--out", str(out)]
    )
    assert code == 0
    records = {r["id"]: r for r in _read_jsonl(out)}
    note = ClinicalNote("n2", json.loads(NOTES_PATH.read_text().splitlines()[1])["text"])
    expected = filter_semantic_groups(extract_concepts(note.text, lexicon, cfg.concept_threshold))
    assert [c["cui"] for c in records["n2"]["concepts"]] == [e.cui for e in expected]
    assert all(set(c) == {"surface", "cui", "semantic_group"} for c in records["n2"]["concepts"])


def test_extract_missing_lexicon(tmp_path, capsys):
    code = main(
        ["extract", "--input", str(NOTES_PATH), "--lexicon", str(tmp_path / "none.tsv")]
    )
    assert code != 0
    assert "lexicon" in capsys.readouterr().err


def test_extract_concept_threshold_flag_is_read(tmp_path):
    # "obstructive pulmonary disease" shares 3 of the entry's 4 tokens: a
    # token-set Jaccard of 0.75, the text's only (approximate) match.
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("chronic obstructive pulmonary disease\tC0024117\tdisease\n", encoding="utf-8")
    src = tmp_path / "notes.jsonl"
    src.write_text('{"id": "c", "text": "obstructive pulmonary disease noted"}\n', encoding="utf-8")
    found = []
    for extra in ([], ["--concept-threshold", "0.75"], ["--concept-threshold", "0.8"]):
        out = tmp_path / "concepts.jsonl"
        argv = ["extract", "--input", str(src), "--lexicon", str(lexicon), "--out", str(out), *extra]
        assert main(argv) == 0
        found.append([c["cui"] for c in _read_jsonl(out)[0]["concepts"]])
    assert found == [["C0024117"], ["C0024117"], []]


def test_extract_note_with_no_hits(tmp_path):
    src = tmp_path / "notes.jsonl"
    src.write_text('{"id": "z", "text": "nothing clinical in here"}\n', encoding="utf-8")
    out = tmp_path / "concepts.jsonl"
    assert main(["extract", "--input", str(src), "--lexicon", str(LEXICON_PATH), "--out", str(out)]) == 0
    assert _read_jsonl(out) == [{"id": "z", "concepts": []}]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _generate(tmp_path, *extra, notes=NOTES_PATH):
    out = tmp_path / "dialogues.jsonl"
    code = main(
        [
            "generate",
            "--input",
            str(notes),
            "--lexicon",
            str(LEXICON_PATH),
            "--out",
            str(out),
            *extra,
        ]
    )
    return code, out


def test_generate_mock_full_coverage(tmp_path):
    code, out = _generate(tmp_path, "--mock")
    assert code == 0
    records = _read_jsonl(out)
    assert [r["id"] for r in records] == ["n1", "n2", "n3"]
    for record in records:
        assert record["mode"] == "short"
        assert record["coverage"]["total"] > 0
        assert record["coverage"]["covered"] == record["coverage"]["total"]
        assert all(t["speaker"] in ("doctor", "patient") and t["text"] for t in record["turns"])


def test_generate_scripted_mock_is_byte_identical(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["Let us begin.", "Okay."]), encoding="utf-8")
    code1, out1 = _generate(tmp_path, "--mock-script", str(script))
    first = out1.read_bytes()
    code2, out2 = _generate(tmp_path, "--mock-script", str(script))
    assert code1 == code2 == 0
    assert first == out2.read_bytes()


def test_generate_long_mode_produces_more_turns(tmp_path):
    _, short_out = _generate(tmp_path, "--mock", "--mode", "short")
    short_records = _read_jsonl(short_out)
    _, long_out = _generate(tmp_path, "--mock", "--mode", "long")
    long_records = _read_jsonl(long_out)
    short_mean = sum(len(r["turns"]) for r in short_records) / len(short_records)
    long_mean = sum(len(r["turns"]) for r in long_records) / len(long_records)
    assert long_mean > short_mean
    assert all(r["mode"] == "long" for r in long_records)


def test_generate_workers_preserve_input_order(tmp_path):
    for mode in ("short", "long"):
        code, out = _generate(tmp_path, "--mock", "--mode", mode, "--workers", "1")
        assert code == 0
        serial = out.read_bytes()
        code, out = _generate(tmp_path, "--mock", "--mode", mode, "--workers", "3")
        assert code == 0
        assert [r["id"] for r in _read_jsonl(out)] == ["n1", "n2", "n3"]
        assert out.read_bytes() == serial


@pytest.mark.parametrize(
    "golden, mode, factuality",
    [
        ("generate_short.jsonl", "short", False),
        ("generate_long.jsonl", "long", False),
        ("generate_short_factuality.jsonl", "short", True),
    ],
)
def test_generate_mock_matches_golden_output(tmp_path, golden, mode, factuality):
    extra = ["--mode", mode]
    if factuality:
        config = tmp_path / "factuality.cfg"
        config.write_text("enable_factuality=true\n", encoding="utf-8")
        extra += ["--config", str(config)]
    code, out = _generate(tmp_path, "--mock", *extra)
    assert code == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


_REWRITE_STAGES = ("polish", "hallucination", "postediting")


def _reworded(reply):
    """The mock's transcript reply with "Well, " opening every turn, so that
    every keyword surface stays verbatim."""
    return format_transcript([Utterance(turn.speaker, "Well, " + turn.text) for turn in parse_transcript(reply)])


def _rewriting_mock(monkeypatch, rewrite):
    """``MockBackend.complete`` with each polish, hallucination and postediting
    reply passed through ``rewrite(reply, request)``; the count of rewrites
    done, by stage."""
    complete = MockBackend.complete
    done = Counter()

    def rewriting(self, request):
        reply = complete(self, request)
        if request.stage not in _REWRITE_STAGES:
            return reply
        rewritten = rewrite(reply, request)
        done[request.stage] += rewritten != reply
        return rewritten

    monkeypatch.setattr(MockBackend, "complete", rewriting)
    return done


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("mode", ["short", "long"])
def test_generate_takes_reworded_rewrites_that_keep_every_keyword(tmp_path, monkeypatch, caplog, lexicon, mode):
    # An accepted rewrite that does not echo runs the parse and the keyword
    # guard, and its turns are the record's.
    code, out = _generate(tmp_path, "--mock", "--mode", mode)
    assert code == 0
    echo_records = _read_jsonl(out)
    done = _rewriting_mock(monkeypatch, lambda reply, request: _reworded(reply))
    caplog.clear()
    runs = {}
    for workers in ("1", "3"):
        code, out = _generate(tmp_path, "--mock", "--mode", mode, "--workers", workers)
        assert code == 0
        runs[workers] = out.read_bytes()
    assert runs["1"] == runs["3"]
    assert all(done[stage] for stage in _REWRITE_STAGES)
    assert not any("keeping input" in line or "concatenating turns" in line for line in _warnings(caplog))
    cfg = GenerationConfig.for_mode(mode)
    notes = {record["id"]: ClinicalNote(record["id"], record["text"]) for record in _read_jsonl(NOTES_PATH)}
    records = _read_jsonl(out)
    assert [r["id"] for r in records] == [r["id"] for r in echo_records]
    for record, echo in zip(records, echo_records):
        assert record["turns"] != echo["turns"]
        turns = [Utterance(turn["speaker"], turn["text"]) for turn in record["turns"]]
        recount = union_recount(notes[record["id"]], Dialogue(record["id"], turns), lexicon, cfg)
        assert record["coverage"] == {"covered": recount.covered_count(), "total": len(recount)} == echo["coverage"]


@pytest.mark.parametrize("mode", ["short", "long"])
def test_generate_keeps_a_section_whose_first_rewrite_drops_a_keyword(tmp_path, monkeypatch, caplog, mode):
    code, out = _generate(tmp_path, "--mock", "--mode", mode)
    assert code == 0
    echo_bytes = out.read_bytes()
    done = _rewriting_mock(
        monkeypatch,
        lambda reply, request: _drop_keyword(_reworded(reply), 0, request) if request.stage == "polish" else reply,
    )
    for workers in ("1", "3"):
        caplog.clear()
        done.clear()
        code, out = _generate(tmp_path, "--mock", "--mode", mode, "--workers", workers)
        assert code == 0
        assert out.read_bytes() == echo_bytes
        # One warning for each section's polish, each of which lost a keyword.
        warnings = _warnings(caplog)
        assert len(warnings) == done["polish"] > 0
        assert all(
            line.startswith("polish reply for note ") and " dropped keywords [" in line
            and line.endswith("; keeping input")
            for line in warnings
        )


class _Always401(BaseHTTPRequestHandler):
    posts = 0
    lock = threading.Lock()

    def do_POST(self):
        with _Always401.lock:
            _Always401.posts += 1
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        body = b'{"error": "bad key"}'
        self.send_response(401)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("workers", [1, 3])
def test_generate_http_auth_error_exits_nonzero(tmp_path, capsys, monkeypatch, workers):
    # Eight notes that each need the backend; after the first 401 no note
    # may start, so only the notes already running send a request.
    texts = [json.loads(line)["text"] for line in NOTES_PATH.read_text().splitlines()]
    notes = tmp_path / "notes.jsonl"
    notes.write_text(
        "".join(json.dumps({"id": f"a{i}", "text": texts[i % len(texts)]}) + "\n" for i in range(8)),
        encoding="utf-8",
    )
    monkeypatch.setenv("DIALOGFORGE_API_KEY", "wrong")
    monkeypatch.setattr(_Always401, "posts", 0)
    interval = sys.getswitchinterval()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Always401)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        # Frequent thread switches widen any window between a worker taking
        # a note and another worker recording the failure.
        sys.setswitchinterval(1e-5)
        host, port = server.server_address
        code, _ = _generate(
            tmp_path, "--endpoint", f"http://{host}:{port}", "--workers", str(workers), notes=notes
        )
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert code == 2
    assert "authentication" in capsys.readouterr().err
    assert 1 <= _Always401.posts <= workers


class _RepliesThen401(BaseHTTPRequestHandler):
    """Answers the first ``budget`` posts with one fixed reply, then 401."""

    budget = 0
    posts = 0
    lock = threading.Lock()

    def do_POST(self):
        with _RepliesThen401.lock:
            _RepliesThen401.posts += 1
            answered = _RepliesThen401.posts <= _RepliesThen401.budget
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if answered:
            status, body = 200, b'{"choices": [{"message": {"content": "I see."}}]}'
        else:
            status, body = 401, b'{"error": "bad key"}'
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("workers", [1, 3])
def test_generate_keeps_records_finished_before_an_auth_failure(tmp_path, capsys, monkeypatch, workers):
    from dialogforge import cli

    texts = [json.loads(line)["text"] for line in NOTES_PATH.read_text().splitlines()]
    notes = tmp_path / "notes.jsonl"
    notes.write_text(
        "".join(json.dumps({"id": f"a{i}", "text": texts[i % len(texts)]}) + "\n" for i in range(8)),
        encoding="utf-8",
    )
    finished = []
    pipeline = cli.run_full_pipeline

    def recording_pipeline(note, *args):
        dialogue = pipeline(note, *args)
        finished.append(note.id)
        return dialogue

    monkeypatch.setattr(cli, "run_full_pipeline", recording_pipeline)
    runs = []
    # One round per section: every note needs about 11 requests, so 60
    # replies finish some notes and not all; any reply ends a note, because
    # an unparseable rewrite falls back.
    for budget in (10**6, 60):
        monkeypatch.setattr(_RepliesThen401, "budget", budget)
        monkeypatch.setattr(_RepliesThen401, "posts", 0)
        finished.clear()
        with _serving(_RepliesThen401) as endpoint:
            code, out = _generate(
                tmp_path, "--endpoint", endpoint, "--max-rounds", "1", "--workers", str(workers), notes=notes
            )
        runs.append((code, out.read_bytes().splitlines(keepends=True)))
    (full_code, full), (code, kept) = runs
    assert full_code == 0 and len(full) == 8
    assert code == 2
    assert "authentication failed" in capsys.readouterr().err
    assert 1 <= len(kept) < 8
    assert kept == full[: len(kept)]
    if workers == 1:
        assert [json.loads(line)["id"] for line in kept] == finished


class _CutsOffMetformin(BaseHTTPRequestHandler):
    """Cuts off the chunked reply to every request that names metformin, which
    only note n2 does; answers any other with one fixed reply."""

    def do_POST(self):
        cut = b"Metformin" in self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(200)
        if cut:
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            self.wfile.write(b'40\r\n{"choices": [{')  # 14 of the 64 bytes it announces
            return
        body = b'{"choices": [{"message": {"content": "I see."}}]}'
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("workers", [1, 2])
def test_a_note_whose_replies_are_cut_off_fails_alone(tmp_path, capsys, caplog, workers):
    config = tmp_path / "fast.cfg"
    config.write_text("retry_base_delay=0.0\n", encoding="utf-8")
    with _serving(_CutsOffMetformin) as endpoint:
        code, out = _generate(
            tmp_path, "--endpoint", endpoint, "--config", str(config), "--max-rounds", "1",
            "--workers", str(workers),
        )
    assert code == 1
    assert [record["id"] for record in _read_jsonl(out)] == ["n1", "n3"]
    failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert len(failed) == 1 and failed[0].startswith("note n2 failed: ")
    assert capsys.readouterr().err == ""


def test_generate_writes_no_record_for_a_dialogue_under_two_turns(tmp_path, caplog):
    # The first note has no reportable concept, so its dialogue has no turns.
    src = tmp_path / "notes.jsonl"
    fixture = NOTES_PATH.read_text(encoding="utf-8").splitlines()[0]
    src.write_text(
        json.dumps({"id": "a", "text": "CHIEF COMPLAINT:\nCough."}) + "\n" + fixture + "\n", encoding="utf-8"
    )
    code, out = _generate(tmp_path, "--mock", notes=src)
    assert code == 1
    assert [r["id"] for r in _read_jsonl(out)] == ["n1"]
    warnings = [r.getMessage() for r in caplog.records if "no record" in r.getMessage()]
    assert warnings == ["note a: 0 turn(s); no record written"]
    assert main(["evaluate", "--hyp", str(out), "--ref", str(out), "--lexicon", str(LEXICON_PATH)]) == 0


@pytest.mark.parametrize("rate", ["-5", "0"])
def test_generate_rejects_non_positive_request_rate(tmp_path, capsys, rate):
    code, out = _generate(tmp_path, "--endpoint", "http://127.0.0.1:9", "--requests-per-minute", rate)
    assert code == 1
    assert capsys.readouterr().err == "error: --requests-per-minute must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_generate_rejects_non_positive_workers(tmp_path, capsys, workers):
    code, out = _generate(tmp_path, "--mock", "--workers", workers)
    assert code == 1
    assert capsys.readouterr().err == "error: --workers must be positive\n"
    assert not out.exists()


def test_generate_requires_endpoint_for_http(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DIALOGFORGE_ENDPOINT", raising=False)
    code, _ = _generate(tmp_path)
    assert code != 0
    assert "endpoint" in capsys.readouterr().err


class _Always500(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        body = b'{"error": "boom"}'
        self.send_response(500)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_generate_per_note_failures_exit_nonzero(tmp_path):
    config = tmp_path / "fast.cfg"
    config.write_text("max_retries=0\nretry_base_delay=0.0\n", encoding="utf-8")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Always500)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        code, out = _generate(
            tmp_path,
            "--endpoint",
            f"http://{host}:{port}",
            "--config",
            str(config),
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert code == 1
    assert _read_jsonl(out) == []


@pytest.mark.parametrize(
    "setting",
    [
        "max_retries=-1", "temperature=-1", "max_reply_tokens=0", "retry_base_delay=-1",
        "retry_base_delay=nan", "retry_base_delay=inf", "temperature=nan",
    ],
)
def test_generate_rejects_out_of_range_request_setting_before_any_note(
    tmp_path, capsys, caplog, setting
):
    config = tmp_path / "run.cfg"
    config.write_text(setting + "\n", encoding="utf-8")
    code, out = _generate(tmp_path, "--mock", "--config", str(config))
    assert code == 1
    name = setting.partition("=")[0]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: invalid config: {name} must be")
    assert not [r for r in caplog.records if "failed" in r.getMessage()]
    assert not out.exists()


def test_generate_accepts_prompt_override_directory(tmp_path):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "patient.txt").write_text(
        "Clinical Note: {{note}}\n"
        "Please act as a patient and keep answers short.\n"
        "The History Conversation:\n{{history}}",
        encoding="utf-8",
    )
    code, out = _generate(tmp_path, "--mock", "--prompts", str(prompts))
    assert code == 0
    records = _read_jsonl(out)
    assert len(records) == 3
    for record in records:
        assert record["coverage"]["covered"] == record["coverage"]["total"]


@pytest.mark.parametrize(
    "name, body, problem",
    [
        ("polish.txt", b"Rewrite:\n{{conversation}}\nEarlier:\n{{history}}",
         "the polish stage does not bind {{history}}"),
        ("doctor.txt", b"Ask about {{conversaton}}",
         "template 'doctor' has a bad placeholder at offset 10"),
        ("patient.txt", b"\xff{{note}}\n{{history}}",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["unbound-slot", "bad-placeholder", "undecodable"],
)
def test_generate_rejects_a_bad_prompt_template_before_any_note(tmp_path, capsys, name, body, problem):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / name).write_bytes(body)
    code, out = _generate(tmp_path, "--mock", "--prompts", str(prompts))
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot load prompt templates: {prompts / name}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("layout", ["missing-directory", "misspelled-name"])
def test_generate_rejects_a_missing_prompt_directory_or_an_unknown_template_file(tmp_path, capsys, layout):
    prompts = tmp_path / "prompts"
    if layout == "missing-directory":
        named, problem = prompts, "not a directory"
    else:
        prompts.mkdir()
        named, problem = prompts / "doctr.txt", "unknown template name: 'doctr'"
        named.write_text("Ask about {{keywords}}", encoding="utf-8")
    code, out = _generate(tmp_path, "--mock", "--prompts", str(prompts))
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot load prompt templates: {named}: {problem}\n"
    assert not out.exists()


def test_generate_reports_an_unreadable_prompt_template(tmp_path, capsys, monkeypatch):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    unreadable = prompts / "doctor.txt"
    unreadable.write_text("{{note}}", encoding="utf-8")
    read_text = Path.read_text

    def refuse(self, *args, **kwargs):
        if self == unreadable:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse)
    code, out = _generate(tmp_path, "--mock", "--prompts", str(prompts))
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot load prompt templates: [Errno 13] Permission denied: '{unreadable}'\n"
    assert not out.exists()


def test_generate_binds_every_slot_in_each_stage_table_entry(tmp_path):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    for name, slots in STAGE_SLOTS.items():
        body = "\n".join(f"{slot}: {{{{{slot}}}}}" for slot in sorted(slots))
        (prompts / f"{name}.txt").write_text(body, encoding="utf-8")
    config = tmp_path / "factuality.cfg"
    config.write_text("enable_factuality=true\n", encoding="utf-8")
    for mode in ("short", "long"):
        code, out = _generate(
            tmp_path, "--mock", "--mode", mode, "--config", str(config), "--prompts", str(prompts)
        )
        assert code == 0
        assert [r["id"] for r in _read_jsonl(out)] == ["n1", "n2", "n3"]


# Every template reworded and its slots reordered, sharing no sentence with
# the defaults: the mock must answer from the request stage and slot text.
REWORDED_TEMPLATES = {
    "doctor": "You are the physician. Visit so far:\n{{history}}\n"
    "Raise these topics, word for word: {{keywords}}\nRecord:\n{{note}}\nAsk one question.",
    "patient": "You are the person being seen. Using only this record:\n{{note}}\n"
    "reply briefly to the last question below.\n{{history}}",
    "polish": "Make this exchange sound natural, keeping these terms: {{keywords}}\n"
    "Record:\n{{note}}\nExchange:\n{{conversation}}",
    "hallucination": "Remove what the record does not support.\nRecord:\n{{note}}\n"
    "Terms to keep: {{keywords}}\nExchange:\n{{conversation}}",
    "postediting": "Join the two parts into one exchange, keeping: {{keywords}}\n"
    "Part one:\n{{conversation}}\nPart two:\n{{conversation2}}",
    "factuality": "Does this exchange mention each of {{keywords}}? Give a verdict.\n"
    "Record:\n{{note}}\nExchange:\n{{conversation}}",
}


@pytest.mark.parametrize("mode", ["short", "long"])
def test_generate_mock_ignores_prompt_wording(tmp_path, monkeypatch, mode):
    from dialogforge.backend import MockBackend
    from dialogforge.model import PromptTemplate
    from dialogforge.prompts import DEFAULT_TEMPLATES

    prompts = tmp_path / "prompts"
    prompts.mkdir()
    for name, body in REWORDED_TEMPLATES.items():
        assert PromptTemplate(name, body).referenced_slots() == DEFAULT_TEMPLATES[name].referenced_slots()
        (prompts / f"{name}.txt").write_text(body, encoding="utf-8")

    calls = []
    complete = MockBackend.complete

    def counting_complete(self, request):
        calls.append(request.stage)
        return complete(self, request)

    monkeypatch.setattr(MockBackend, "complete", counting_complete)
    outputs = []
    for extra in ([], ["--prompts", str(prompts)]):
        calls.clear()
        out = tmp_path / f"dialogues{len(outputs)}.jsonl"
        code = main(
            ["generate", "--input", str(NOTES_PATH), "--lexicon", str(LEXICON_PATH),
             "--out", str(out), "--mock", "--mode", mode, *extra]
        )
        assert code == 0
        outputs.append((out.read_bytes(), len(calls)))
    assert outputs[1] == outputs[0]
    assert outputs[0][1] == 32


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_identity_report(tmp_path, capsys):
    _, hyp = _generate(tmp_path, "--mock")
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--hyp",
            str(hyp),
            "--ref",
            str(hyp),
            "--lexicon",
            str(LEXICON_PATH),
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for key in ("r1", "r2", "rl", "rlsum", "bleu", "concept_recall"):
        assert report[key] == pytest.approx(1.0)
    assert report["len"] > 0
    table = capsys.readouterr().out
    assert "R-L-Sum" in table and "SBLEU" in table


def test_evaluate_stdout_without_out_is_the_json_report_alone(tmp_path, capsys):
    _, hyp = _generate(tmp_path, "--mock")
    argv = ["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--lexicon", str(LEXICON_PATH)]
    report_path = tmp_path / "report.json"
    assert main([*argv, "--out", str(report_path)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["r1"] == pytest.approx(1.0)
    assert stdout == report_path.read_text(encoding="utf-8")


def test_evaluate_empty_hyp_file_is_an_error(tmp_path, capsys):
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("", encoding="utf-8")
    code = main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--lexicon", str(LEXICON_PATH)])
    assert code != 0
    assert "evaluation failed" in capsys.readouterr().err


def test_evaluate_single_turn_dialogue_is_an_error(tmp_path, capsys):
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text(
        json.dumps({"id": "a", "turns": [{"speaker": "doctor", "text": "hi"}]}) + "\n",
        encoding="utf-8",
    )
    code = main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--lexicon", str(LEXICON_PATH)])
    assert code != 0
    assert "evaluation failed" in capsys.readouterr().err


def test_evaluate_rejects_non_string_turn_text(tmp_path, capsys):
    good = {"id": "a", "turns": [{"speaker": "doctor", "text": "hi"}, {"speaker": "patient", "text": "ok"}]}
    bad = {"id": "b", "turns": [{"speaker": "doctor", "text": "hi"}, {"speaker": "patient", "text": 5}]}
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    code = main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--lexicon", str(LEXICON_PATH)])
    assert code == 1
    assert f"{hyp} line 2: bad turn record" in capsys.readouterr().err


def test_evaluate_concept_threshold_flag_is_read(tmp_path):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("chronic obstructive pulmonary disease\tC0024117\tdisease\n", encoding="utf-8")

    def write(name, condition):
        path = tmp_path / name
        turns = [{"speaker": "doctor", "text": "Any lung trouble?"}, {"speaker": "patient", "text": condition}]
        path.write_text(json.dumps({"id": "a", "turns": turns}) + "\n", encoding="utf-8")
        return path

    hyp = write("hyp.jsonl", "I have obstructive pulmonary disease.")
    ref = write("ref.jsonl", "I have chronic obstructive pulmonary disease.")
    recalls = []
    for extra in ([], ["--concept-threshold", "0.8"]):
        out = tmp_path / "report.json"
        argv = ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(lexicon), "--out", str(out)]
        assert main([*argv, *extra]) == 0
        recalls.append(json.loads(out.read_text(encoding="utf-8"))["concept_recall"])
    assert recalls == [1.0, 0.0]


def test_evaluate_report_matches_library_evaluator(tmp_path, lexicon, cfg):
    from dialogforge.metrics import evaluate_corpus
    from dialogforge.model import Dialogue, Utterance

    _, hyp_path = _generate(tmp_path, "--mock", "--mode", "short")
    long_out = tmp_path / "long.jsonl"
    main(
        [
            "generate",
            "--input",
            str(NOTES_PATH),
            "--lexicon",
            str(LEXICON_PATH),
            "--out",
            str(long_out),
            "--mock",
            "--mode",
            "long",
        ]
    )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--hyp",
            str(hyp_path),
            "--ref",
            str(long_out),
            "--lexicon",
            str(LEXICON_PATH),
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    cli_report = json.loads(report_path.read_text(encoding="utf-8"))

    def load(path):
        dialogues = []
        for record in _read_jsonl(path):
            turns = tuple(Utterance(t["speaker"], t["text"]) for t in record["turns"])
            dialogues.append(Dialogue(record["id"], turns))
        return dialogues

    refs = {d.note_id: d for d in load(long_out)}
    pairs = [(h, refs[h.note_id]) for h in load(hyp_path)]
    library_report = evaluate_corpus(pairs, lexicon, cfg).as_dict()
    for key, value in library_report.items():
        assert cli_report[key] == pytest.approx(value, abs=1e-6)


TWO_TURNS = [{"speaker": "doctor", "text": "Any cough?"}, {"speaker": "patient", "text": "Yes."}]


@pytest.mark.parametrize(
    "command, ids, message",
    [
        ("segment", [None], "line 1: id must be a non-blank string or an integer, not null"),
        ("segment", [True], "line 1: id must be a non-blank string or an integer, not true"),
        ("segment", [" "], 'line 1: id must be a non-blank string or an integer, not " "'),
        ("segment", ["a", 7, "a"], "line 3: id 'a' is already used on line 1"),
        ("evaluate", ["a", "a"], "line 2: id 'a' is already used on line 1"),
    ],
    ids=["null", "true", "blank", "duplicate-note", "duplicate-reference"],
)
def test_record_ids_are_strings_or_integers_used_once(tmp_path, capsys, command, ids, message):
    src = tmp_path / "records.jsonl"
    body = {"text": "CHIEF COMPLAINT:\nCough.\n"} if command == "segment" else {"turns": TWO_TURNS}
    src.write_text("".join(json.dumps({"id": i, **body}) + "\n" for i in ids), encoding="utf-8")
    if command == "segment":
        argv = ["segment", "--input", str(src)]
    else:
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(json.dumps({"id": "a", "turns": TWO_TURNS}) + "\n", encoding="utf-8")
        argv = ["evaluate", "--hyp", str(hyp), "--ref", str(src), "--lexicon", str(LEXICON_PATH)]
    out = tmp_path / "out.jsonl"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src} {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_records_end_only_at_a_newline(tmp_path, capsys, command, separator):
    # json.dumps(ensure_ascii=False), the writer of every command, leaves these
    # characters raw inside strings; they do not end a record.
    src = tmp_path / "records.jsonl"
    text = f"Cough{separator}at night."
    if command == "segment":
        record = {"id": "a", "text": f"CHIEF COMPLAINT:\n{text}\n"}
        argv = ["segment", "--input", str(src)]
    else:
        turns = [{"speaker": "doctor", "text": "Any cough?"}, {"speaker": "patient", "text": text}]
        record = {"id": "a", "turns": turns}
        argv = ["evaluate", "--hyp", str(src), "--ref", str(src), "--lexicon", str(LEXICON_PATH)]
    src.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert separator in src.read_text(encoding="utf-8")
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command == "segment":
        [section] = [json.loads(line) for line in out.read_text(encoding="utf-8").split("\n") if line]
        assert section["body"] == f"{text}\n"
    else:
        assert json.loads(out.read_text(encoding="utf-8"))["r1"] == pytest.approx(1.0)


# Each command with valid inputs and no --out.
_WRITERS = {
    "segment": ["segment", "--input", str(NOTES_PATH)],
    "extract": ["extract", "--input", str(NOTES_PATH), "--lexicon", str(LEXICON_PATH)],
    "generate": ["generate", "--mock", "--input", str(NOTES_PATH), "--lexicon", str(LEXICON_PATH)],
    "evaluate": [
        "evaluate", "--hyp", str(GOLDEN_DIR / "generate_short.jsonl"),
        "--ref", str(GOLDEN_DIR / "generate_short.jsonl"), "--lexicon", str(LEXICON_PATH),
    ],
}


@pytest.mark.parametrize("command", ["segment", "extract", "generate", "evaluate"])
def test_an_unwritable_out_is_one_error_line(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.jsonl"
    assert main([*_WRITERS[command], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["segment", "extract", "generate", "evaluate"])
def test_a_failed_write_is_one_error_line(capsys, command):
    # /dev/full opens, and every write to it fails with ENOSPC.
    assert main([*_WRITERS[command], "--out", "/dev/full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


def test_a_closed_stdout_is_one_error_line(tmp_path):
    # The output outgrows the pipe's buffer, so writes fail once the reader
    # has gone; the interpreter's flush at exit must not report it again.
    text = json.loads(NOTES_PATH.read_text(encoding="utf-8").splitlines()[0])["text"]
    notes = tmp_path / "notes.jsonl"
    records = (json.dumps({"id": f"a{i}", "text": text}) + "\n" for i in range(2000))
    notes.write_text("".join(records), encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dialogforge", "segment", "--input", str(notes)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command, stage", [
    ("segment", "segment_note"), ("extract", "reportable_concepts"), ("generate", "run_full_pipeline"),
])
def test_each_note_is_flushed_before_the_next_starts(tmp_path, monkeypatch, command, stage):
    # Reads --out as each note's work starts: by then every earlier note's
    # records are in the file, so a run that stops keeps them.
    out = tmp_path / "out.jsonl"
    seen = []
    work = getattr(cli, stage)

    def reading(*args):
        seen.append(out.read_text(encoding="utf-8"))
        return work(*args)

    monkeypatch.setattr(cli, stage, reading)
    assert main([*_WRITERS[command], "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    ids = [json.loads(line)["id"] for line in NOTES_PATH.read_text(encoding="utf-8").splitlines() if line]
    key = "note_id" if command == "segment" else "id"
    assert len(seen) == len(ids) == 3
    assert seen == ["".join(line for line in lines if json.loads(line)[key] in ids[:i]) for i in range(len(ids))]


# Each input of each command, as (argv with "BAD" in its place, what the error calls it).
_GOLDEN_SHORT = str(GOLDEN_DIR / "generate_short.jsonl")
_INPUTS = {
    "segment-notes": (["segment", "--input", "BAD"], ""),
    "extract-notes": (["extract", "--input", "BAD", "--lexicon", str(LEXICON_PATH)], ""),
    "generate-notes": (["generate", "--mock", "--input", "BAD", "--lexicon", str(LEXICON_PATH)], ""),
    "hyp": (["evaluate", "--hyp", "BAD", "--ref", _GOLDEN_SHORT, "--lexicon", str(LEXICON_PATH)], ""),
    "ref": (["evaluate", "--hyp", _GOLDEN_SHORT, "--ref", "BAD", "--lexicon", str(LEXICON_PATH)], ""),
    "lexicon": (["extract", "--input", str(NOTES_PATH), "--lexicon", "BAD"], "lexicon "),
    "config": (["segment", "--input", str(NOTES_PATH), "--config", "BAD"], "config file "),
    "mock-script": (
        ["generate", "--mock-script", "BAD", "--input", str(NOTES_PATH), "--lexicon", str(LEXICON_PATH)],
        "mock script ",
    ),
}


@pytest.mark.parametrize("name", list(_INPUTS))
def test_an_input_that_is_not_utf8_is_one_error_line(tmp_path, capsys, name):
    argv, what = _INPUTS[name]
    bad = tmp_path / "latin1.txt"
    # Read as a whole before it is parsed, so one byte that is not UTF-8 fails any input.
    bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
    out = tmp_path / "out.jsonl"
    assert main([str(bad) if arg == "BAD" else arg for arg in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what}{bad}: 'utf-8' codec can't decode byte 0xe9 ")
    assert err.count("\n") == 1
    assert not out.exists()


# A byte-order mark that an editor writes at the start of a file is not text:
# the fixture lexicon opens with a "#" comment, and a notes file with a "{".
@pytest.mark.parametrize("marked", ["lexicon", "notes"])
@pytest.mark.parametrize("command", ["extract", "generate"])
def test_an_input_that_starts_with_a_byte_order_mark_reads_as_without_one(tmp_path, marked, command):
    plain = {"lexicon": LEXICON_PATH, "notes": NOTES_PATH}
    copy = tmp_path / plain[marked].name
    copy.write_bytes(b"\xef\xbb\xbf" + plain[marked].read_bytes())
    outputs = []
    for paths in (plain, {**plain, marked: copy}):
        out = tmp_path / f"out{len(outputs)}.jsonl"
        argv = [command, "--input", str(paths["notes"]), "--lexicon", str(paths["lexicon"]), "--out", str(out)]
        assert main(argv + (["--mock"] if command == "generate" else [])) == 0
        outputs.append(out.read_bytes())
    assert outputs[0]
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_a_record_the_output_cannot_encode_is_one_error_line(tmp_path, capsys, caplog, to_stdout):
    # "\ud800" is valid JSON, but UTF-8 has no encoding for a lone surrogate:
    # the note that holds one fails alone, and the notes around it are written.
    fixture = [json.loads(line) for line in NOTES_PATH.read_text(encoding="utf-8").splitlines() if line]
    bad = {"id": "n2\ud800", "text": fixture[1]["text"].replace(".", ". \ud800", 1)}
    for command in ("segment", "extract"):
        runs = []
        for name, records in (("bad", [fixture[0], bad, fixture[2]]), ("without", [fixture[0], fixture[2]])):
            notes = tmp_path / f"{name}.jsonl"
            notes.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            out = tmp_path / f"{command}-{name}.out.jsonl"
            argv = [str(notes) if arg == str(NOTES_PATH) else arg for arg in _WRITERS[command]]
            caplog.clear()
            code = main(argv + ([] if to_stdout else ["--out", str(out)]))
            captured = capsys.readouterr()
            failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
            runs.append((code, captured.out if to_stdout else out.read_text(encoding="utf-8"), captured.err, failed))
        (code, written, err, failed), (code_without, written_without, _, _) = runs
        assert (code, code_without) == (1, 0)
        assert "error:" not in err
        assert len(failed) == 1
        assert failed[0].startswith("note n2\ud800 failed: 'utf-8' codec can't encode character '\\ud800'")
        # n1 and n3 are written as in a run without n2
        assert written == written_without
        key = "note_id" if command == "segment" else "id"
        assert {json.loads(line)[key] for line in written.splitlines()} == {"n1", "n3"}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("field", ["text", "id"])
def test_generate_fails_a_note_the_output_cannot_encode_before_its_first_request(
    tmp_path, monkeypatch, caplog, workers, field
):
    from dialogforge.backend import MockBackend

    fixture = [json.loads(line) for line in NOTES_PATH.read_text(encoding="utf-8").splitlines() if line]
    bad = dict(fixture[1])
    bad[field] = bad[field].replace(".", ". \ud800", 1) if field == "text" else bad["id"] + "\ud800"
    requests = []
    complete = MockBackend.complete

    def recording_complete(self, request):
        requests.append(request)
        return complete(self, request)

    monkeypatch.setattr(MockBackend, "complete", recording_complete)
    runs = []
    for name, records in (("bad", [fixture[0], bad, fixture[2]]), ("without", [fixture[0], fixture[2]])):
        notes = tmp_path / f"{name}.jsonl"
        # json.dumps writes the surrogate as the escape "\ud800", which is valid JSON
        notes.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        requests.clear()
        caplog.clear()
        out = tmp_path / f"{name}.out.jsonl"
        code = main(["generate", "--mock", "--workers", str(workers), "--input", str(notes),
                     "--lexicon", str(LEXICON_PATH), "--out", str(out)])
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        runs.append((code, out.read_bytes(), len(requests), failed))
    (code, written, sent, failed), (code_without, written_without, sent_without, _) = runs
    assert (code, code_without) == (1, 0)
    assert len(failed) == 1 and failed[0].startswith(f"note {bad['id']} failed: 'utf-8' codec can't encode")
    # n2 got no request, and the records of n1 and n3 are those of a run without it
    assert sent == sent_without
    assert written == written_without
    assert [json.loads(line)["id"] for line in written.decode("utf-8").splitlines()] == ["n1", "n3"]


@pytest.mark.parametrize("workers", [1, 3])
def test_generate_fails_a_note_whose_reply_the_output_cannot_encode(tmp_path, monkeypatch, caplog, workers):
    from dialogforge.backend import MockBackend

    n2_text = json.loads(NOTES_PATH.read_text(encoding="utf-8").splitlines()[1])["text"]
    complete = MockBackend.complete
    runs = []
    for surrogate in ("", " \ud800"):

        def complete_with(self, request, surrogate=surrogate):
            reply = complete(self, request)
            # Only n2's doctor turns get the lone surrogate.
            return reply + surrogate if request.stage == "doctor" and request.slots["note"] in n2_text else reply

        monkeypatch.setattr(MockBackend, "complete", complete_with)
        caplog.clear()
        out = tmp_path / f"out{len(runs)}.jsonl"
        code = main(["generate", "--mock", "--workers", str(workers), "--input", str(NOTES_PATH),
                     "--lexicon", str(LEXICON_PATH), "--out", str(out)])
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        runs.append((code, out.read_text(encoding="utf-8").splitlines(keepends=True), failed))
    (clean_code, clean, clean_failed), (code, written, failed) = runs
    assert (clean_code, clean_failed, len(clean)) == (0, [], 3)
    assert code == 1
    assert len(failed) == 1 and failed[0].startswith("note n2 failed: 'utf-8' codec can't encode character '\\ud800'")
    # n1 and n3 are written as in the clean run
    assert written == [clean[0], clean[2]]


def test_a_stdout_that_cannot_encode_a_record_keeps_the_records_before_it(tmp_path):
    notes = tmp_path / "notes.jsonl"
    notes.write_text('{"id": "a", "text": "Cough."}\n{"id": "b", "text": "Caf\\u00e9."}\n', encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    env = {
        **os.environ, "PYTHONIOENCODING": "ascii",
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "dialogforge", "segment", "--input", str(notes)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    err = proc.stderr.decode()
    assert err.startswith("error: cannot write stdout: 'ascii' codec can't encode character '\\xe9'")
    assert err.count("\n") == 1
    assert [json.loads(line)["note_id"] for line in proc.stdout.decode().splitlines()] == ["a"]


# Imports the CLI, runs generate --mock and evaluate, and prints the top-level
# names those loaded besides the standard library and dialogforge.
_LOADED_SCRIPT = """
import json, sys
started = set(sys.modules)
from dialogforge.cli import main
out, lexicon, notes = sys.argv[1:]
codes = [
    main(["generate", "--mock", "--input", notes, "--lexicon", lexicon, "--out", out]),
    main(["evaluate", "--hyp", out, "--ref", out, "--lexicon", lexicon]),
]
loaded = {name.partition(".")[0] for name in set(sys.modules) - started}
print(json.dumps({"codes": codes, "foreign": sorted(loaded - sys.stdlib_module_names - {"dialogforge"})}))
"""


def test_generate_mock_and_evaluate_load_only_the_standard_library(tmp_path):
    # Modules the interpreter loads before the script runs (site's .pth
    # hooks) are the environment's, not the program's, so they are left out.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, str(tmp_path / "dialogues.jsonl"), str(LEXICON_PATH), str(NOTES_PATH)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    # evaluate prints its score table first.
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "foreign": []}


def test_evaluate_id_mismatch(tmp_path, capsys):
    _, hyp = _generate(tmp_path, "--mock")
    ref = tmp_path / "refs.jsonl"
    records = _read_jsonl(hyp)
    ref.write_text(json.dumps(records[0]) + "\n", encoding="utf-8")
    code = main(
        ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(LEXICON_PATH)]
    )
    assert code != 0
    err = capsys.readouterr().err
    assert "n2" in err and "n3" in err


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_print_config_applies_mode_default(capsys):
    code = main(["generate", "--input", "x", "--lexicon", "y", "--mode", "long", "--print-config"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max_rounds=25" in out
    assert "mode=long" in out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("keywords_per_turn=2\nmax_rounds=7\n# comment\n", encoding="utf-8")
    code = main(
        [
            "generate",
            "--input",
            "x",
            "--lexicon",
            "y",
            "--config",
            str(config),
            "--keywords-per-turn",
            "3",
            "--print-config",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "keywords_per_turn=3" in out
    assert "max_rounds=7" in out


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"], ids=["U+2028", "U+0085", "form-feed"])
def test_a_config_line_ends_only_at_a_newline(tmp_path, capsys, separator):
    config = tmp_path / "run.cfg"
    config.write_text(f"# keep the default rounds{separator}max_rounds=1\n", encoding="utf-8")
    argv = ["generate", "--input", "x", "--lexicon", "y", "--print-config"]
    assert main(argv) == 0
    defaults = capsys.readouterr().out
    assert main([*argv, "--config", str(config)]) == 0
    assert capsys.readouterr().out == defaults


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("rounds=7\n", encoding="utf-8")
    code = main(["segment", "--input", "x", "--config", str(config)])
    assert code != 0
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["false", "no", "off", "Off"])
def test_config_file_reads_false_no_and_off_as_false(tmp_path, capsys, raw):
    config = tmp_path / "run.cfg"
    config.write_text(f"enable_factuality={raw}\n", encoding="utf-8")
    assert load_config_file(str(config)) == {"enable_factuality": False}
    assert main(["segment", "--input", "x", "--config", str(config), "--print-config"]) == 0
    assert "enable_factuality=False" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "line, message",
    [
        ("max_rounds=seven", "config file {path} line 2: config key max_rounds: cannot parse 'seven'"),
        ("similarity_threshold=high", "config file {path} line 2: config key similarity_threshold: cannot parse 'high'"),
        ("enable_factuality=maybe", "config file {path} line 2: config key enable_factuality: expected a boolean, got 'maybe'"),
        ("max_rounds 7", "config file {path} line 2: expected key=value"),
    ],
)
def test_config_file_line_errors_are_an_error_line(tmp_path, capsys, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"# rounds\n{line}\n", encoding="utf-8")
    assert main(["segment", "--input", str(NOTES_PATH), "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=config)}\n")


@pytest.mark.parametrize("route", ["flag", "config file"])
def test_config_range_error_is_an_error_line(tmp_path, capsys, route):
    if route == "flag":
        extra, message = ["--similarity-threshold", "0"], "similarity_threshold must be in (0, 1]"
    else:
        config = tmp_path / "run.cfg"
        config.write_text("max_rounds=0\n", encoding="utf-8")
        extra, message = ["--config", str(config)], "max_rounds must be positive"
    code = main(["segment", "--input", str(NOTES_PATH), *extra])
    assert code == 1
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"


# Each command takes --config, --print-config and a flag only for the
# settings it reads; a config file may still set every key.
COMMAND_OPTIONS = {
    "segment": ["--input", "--out", "--config", "--print-config", "--similarity-threshold"],
    "extract": ["--input", "--lexicon", "--out", "--config", "--print-config", "--concept-threshold"],
    "generate": [
        "--input", "--lexicon", "--out", "--mock", "--mock-script", "--endpoint", "--model",
        "--requests-per-minute", "--workers", "--prompts", "--config", "--print-config", "--mode",
        "--max-rounds", "--keywords-per-turn", "--similarity-threshold", "--concept-threshold",
        "--max-context-tokens",
    ],
    "evaluate": [
        "--hyp", "--ref", "--lexicon", "--out", "--config", "--print-config", "--concept-threshold",
    ],
}


def _options(parser):
    """Each command's options but ``-h``, in the order they were added."""
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return {
        name: [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }


def test_each_command_takes_flags_only_for_the_settings_it_reads():
    assert _options(build_parser()) == COMMAND_OPTIONS


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_a_parser_built_for_one_command_adds_only_its_arguments(command):
    assert _options(build_parser(command)) == {
        name: options if name == command else [] for name, options in COMMAND_OPTIONS.items()
    }


# main builds only the named command's arguments; help and usage errors read
# as from the parser of every command.
@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["bogus"], ["bogus", "--input", "x"]]
    + [[command, *tail] for command in COMMAND_OPTIONS for tail in (["-h"], [], ["--input"])],
)
def test_main_parses_as_the_parser_of_every_command(capsys, argv):
    outcomes = []
    for parse in (build_parser().parse_args, main):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        outcomes.append((excinfo.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] or outcomes[0][2]


# build_parser reads the terminal width once for all of its formatters; the
# help must read as HelpFormatter writes it when it reads the width itself.
@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS])
def test_help_reads_as_the_default_formatter_writes_it(monkeypatch, capsys, columns, command):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as excinfo:
        main([command, "-h"] if command else ["-h"])
    assert excinfo.value.code == 0
    parser = build_parser(command)
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    for each in (parser, *commands.choices.values()):
        each.formatter_class = argparse.HelpFormatter
    assert capsys.readouterr() == ((commands.choices[command] if command else parser).format_help(), "")


def test_a_parser_build_reads_the_terminal_size_once(monkeypatch):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(args) or size(*args))
    build_parser()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "--input", "x", "--mode", "long"],
        ["extract", "--input", "x", "--lexicon", "y", "--max-rounds", "3"],
        ["evaluate", "--hyp", "x", "--ref", "y", "--lexicon", "z", "--keywords-per-turn", "2"],
    ],
)
def test_commands_reject_settings_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "extract", "evaluate"])
def test_config_file_sets_keys_a_command_has_no_flag_for(tmp_path, capsys, command):
    config = tmp_path / "run.cfg"
    config.write_text("mode=long\nkeywords_per_turn=2\n", encoding="utf-8")
    argv = {
        "segment": ["segment", "--input", "x"],
        "extract": ["extract", "--input", "x", "--lexicon", "y"],
        "evaluate": ["evaluate", "--hyp", "x", "--ref", "y", "--lexicon", "z"],
    }[command]
    assert main([*argv, "--config", str(config), "--print-config"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mode=long" in out and "max_rounds=25" in out and "keywords_per_turn=2" in out
    assert len(out) == 11
