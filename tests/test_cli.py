import contextlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dialogforge.cli import build_parser, main
from dialogforge.concepts import extract_concepts, filter_semantic_groups
from dialogforge.model import ClinicalNote

from conftest import DATA_DIR, LEXICON_PATH, NOTES_PATH

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
    "setting", ["max_retries=-1", "temperature=-1", "max_reply_tokens=0", "retry_base_delay=-1"]
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
    from dialogforge.model import Dialogue, Provenance, Utterance

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
            turns = tuple(
                Utterance(t["speaker"], t["text"], i // 2) for i, t in enumerate(record["turns"])
            )
            dialogues.append(Dialogue(record["id"], turns, Provenance.COMBINED))
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


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("rounds=7\n", encoding="utf-8")
    code = main(["segment", "--input", "x", "--config", str(config)])
    assert code != 0
    assert "unknown key" in capsys.readouterr().err


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


def test_each_command_takes_flags_only_for_the_settings_it_reads():
    (commands,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    options = {
        name: [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    assert options == COMMAND_OPTIONS


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
