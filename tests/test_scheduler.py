"""The request scheduler behind ``generate --workers``: one bound on backend
requests in flight, the earliest note first, and a failure kept to its note."""

import gc
import hashlib
import io
import json
import random
import sys
import threading
import time
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialogforge import cli
from dialogforge.backend import AuthError, BackendError, MalformedResponse, MockBackend, RateLimited
from dialogforge.model import Checklist, ClinicalNote, Dialogue, Speaker, Utterance
from dialogforge.segmenter import segment_note

from conftest import DATA_DIR, LEXICON_PATH, NOTES_PATH

GOLDEN_DIR = DATA_DIR / "golden"
FIXTURE = [json.loads(line) for line in NOTES_PATH.read_text(encoding="utf-8").splitlines()]
MOST_SECTIONS = max(len(segment_note(ClinicalNote(r["id"], r["text"]))) for r in FIXTURE)


def _notes(tmp_path, count):
    path = tmp_path / "notes.jsonl"
    path.write_text(
        "".join(json.dumps({"id": f"a{i}", "text": FIXTURE[i % len(FIXTURE)]["text"]}) + "\n" for i in range(count)),
        encoding="utf-8",
    )
    return path


def _generate(tmp_path, notes, *extra):
    out = tmp_path / "dialogues.jsonl"
    argv = ["generate", "--input", str(notes), "--lexicon", str(LEXICON_PATH), "--out", str(out), "--mock"]
    return cli.main([*argv, *extra]), out.read_bytes()


class _Concurrency:
    """Counts what runs at once; ``enter`` and ``leave`` bracket one run."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = 0
        self.peak = 0
        self.threads = set()

    def enter(self):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
            self.threads.add(threading.current_thread())

    def leave(self):
        with self._lock:
            self.now -= 1


@pytest.mark.parametrize("workers", [2, 3])
def test_requests_in_flight_never_exceed_workers(tmp_path, monkeypatch, workers):
    requests, pipelines = _Concurrency(), _Concurrency()
    complete, pipeline = MockBackend.complete, cli.run_full_pipeline

    def slow_complete(backend, request):
        requests.enter()
        try:
            time.sleep(0.002)
            return complete(backend, request)
        finally:
            requests.leave()

    def counted_pipeline(note, *args):
        pipelines.enter()
        try:
            return pipeline(note, *args)
        finally:
            pipelines.leave()

    monkeypatch.setattr(MockBackend, "complete", slow_complete)
    monkeypatch.setattr(cli, "run_full_pipeline", counted_pipeline)
    notes = _notes(tmp_path, 15)
    serial = _generate(tmp_path, notes, "--workers", "1")
    requests.threads.clear()
    assert _generate(tmp_path, notes, "--workers", str(workers)) == serial
    assert serial[0] == 0
    # Sections run at once, so the bound is reached and never passed.
    assert requests.peak == workers
    assert pipelines.peak <= workers
    # Threads are reused: about the sections of the notes admitted at once,
    # far fewer than the 60 chains that 15 notes run.
    assert len(requests.threads) <= workers * (MOST_SECTIONS + 1)


@pytest.mark.parametrize(
    "golden, mode, factuality",
    [
        ("generate_short.jsonl", "short", False),
        ("generate_long.jsonl", "long", False),
        ("generate_short_factuality.jsonl", "short", True),
    ],
)
def test_generate_with_three_workers_matches_golden_output(tmp_path, golden, mode, factuality):
    extra = ["--mode", mode, "--workers", "3"]
    if factuality:
        config = tmp_path / "factuality.cfg"
        config.write_text("enable_factuality=true\n", encoding="utf-8")
        extra += ["--config", str(config)]
    assert _generate(tmp_path, NOTES_PATH, *extra) == (0, (GOLDEN_DIR / golden).read_bytes())


class _HeldBackend:
    """Records each request as it starts; a request in ``held`` then waits
    until its event is set."""

    def __init__(self, *held):
        self.held = {name: threading.Event() for name in held}
        self.started = []

    def complete(self, request):
        self.started.append(request)
        if request in self.held:
            assert self.held[request].wait(timeout=10)
        return request


def _until(condition):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def test_a_waiting_request_of_an_earlier_note_goes_first():
    backend = _HeldBackend("busy-1", "busy-2")
    with cli._Scheduler(backend, 2) as scheduler:
        lanes = {index: cli._Lane(scheduler, index) for index in (0, 1, 7)}
        threads = []

        def send(index, request):
            thread = threading.Thread(target=scheduler.request, args=(lanes[index], request))
            thread.start()
            threads.append(thread)

        send(0, "busy-1")
        send(0, "busy-2")
        _until(lambda: len(backend.started) == 2)
        # Both slots are taken: note 7 waits first, then note 1.
        send(7, "late")
        _until(lambda: len(scheduler._waiting) == 1)
        send(1, "early")
        _until(lambda: len(scheduler._waiting) == 2)
        backend.held["busy-1"].set()
        _until(lambda: len(backend.started) == 4)
        backend.held["busy-2"].set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert backend.started == ["busy-1", "busy-2", "early", "late"]


def test_a_note_starts_only_while_fewer_than_workers_chains_run():
    # Note a waits for b to start, then runs two chains; b ends once both
    # run. Then c, though a note thread is free, waits for one of a's chains.
    b_started, x, y = threading.Event(), threading.Event(), threading.Event()
    started, running = [], []

    def chain(event):
        running.append(event)
        return event.wait(10)

    def generate(note, lane, map_sections):
        started.append(note)
        if note == "a":
            assert b_started.wait(10)
            return list(map_sections(chain, (x, y)))
        if note == "b":
            b_started.set()
            _until(lambda: len(running) == 2)
            return True
        return note

    with cli._Scheduler(None, 2) as scheduler:
        results = scheduler.map(generate, ["a", "b", "c"])
        _until(lambda: len(started) == 2 and len(running) == 2)
        time.sleep(0.05)
        assert sorted(started) == ["a", "b"]
        x.set()
        _until(lambda: len(started) == 3)
        y.set()
        assert list(results) == [[True, True], True, "c"]


def test_a_note_in_its_merge_fold_counts_as_one_chain():
    # Notes a, b and f fill the three workers. a's sections end and it holds
    # in its fold; once f has started, b runs two chains; f ends then. Though
    # f's note thread is free, c waits until a's fold ends: a counts as one,
    # b as two.
    folding, fold, x, y = (threading.Event() for _ in range(4))
    started, running = [], []

    def chain(event):
        running.append(event)
        return event.wait(10)

    def generate(note, lane, map_sections):
        started.append(note)
        if note == "a":
            sections = list(map_sections(str.upper, ["s"]))
            folding.set()
            assert fold.wait(10)
            return sections
        if note == "b":
            _until(lambda: "f" in started)
            return list(map_sections(chain, (x, y)))
        if note == "f":
            _until(lambda: folding.is_set() and len(running) == 2)
        return note

    with cli._Scheduler(None, 3) as scheduler:
        results = scheduler.map(generate, ["a", "b", "f", "c"])
        _until(lambda: folding.is_set() and len(running) == 2)
        time.sleep(0.05)
        assert sorted(started) == ["a", "b", "f"]
        fold.set()
        _until(lambda: len(started) == 4)
        x.set()
        y.set()
        assert list(results) == [["S"], [True, True], "f", "c"]


def test_a_non_retryable_error_stops_its_note_before_its_slot_is_freed():
    # Request b of the same note waits for the one slot that a holds. a's
    # MalformedResponse marks the note before it frees the slot, so b never
    # reaches the backend.
    backend = _HeldBackend("a")
    complete = backend.complete

    def failing_complete(request):
        complete(request)
        raise MalformedResponse(f"no reply to {request}")

    backend.complete = failing_complete
    errors = {}
    with cli._Scheduler(backend, 1) as scheduler:
        lane = cli._Lane(scheduler, 0)

        def send(request):
            try:
                scheduler.request(lane, request)
            except BackendError as exc:
                errors[request] = exc

        threads = [threading.Thread(target=send, args=(request,)) for request in ("a", "b")]
        threads[0].start()
        _until(lambda: backend.started == ["a"])
        threads[1].start()
        _until(lambda: len(scheduler._waiting) == 1)
        backend.held["a"].set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert backend.started == ["a"]
    assert isinstance(errors["a"], MalformedResponse)
    assert type(errors["b"]) is BackendError and "note stopped after an error" in str(errors["b"])


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_chain_stops_its_note_and_no_other(tmp_path, monkeypatch, workers):
    # The fixture's second note fails at the first request of its second
    # section. Its other sections must send nothing after that.
    owner = {}
    for record in FIXTURE:
        owner[record["text"]] = record["id"]
        for section in segment_note(ClinicalNote(record["id"], record["text"])):
            owner[section.body] = record["id"]
    failing_body = segment_note(ClinicalNote("n2", FIXTURE[1]["text"]))[1].body
    complete = MockBackend.complete
    lock = threading.Lock()
    started = []
    failed = {"on": False}

    def failing_complete(backend, request):
        with lock:
            # A merge binds no note; the failing note never reaches its merge.
            started.append(owner.get(request.slots.get("note"), "merge"))
            fail = failed["on"] and request.slots.get("note") == failing_body
            failed["on"] = failed["on"] and not fail
        time.sleep(0.002)
        if fail:
            raise MalformedResponse("no reply")
        return complete(backend, request)

    scheduler_request = cli._Scheduler.request

    def marking_request(scheduler, lane, request):
        # Recorded once the failure has left the scheduler, which has marked
        # the note by then. A request of the note recorded after the failure
        # passed the gate after the mark, unless the few steps from its gate
        # to its record outlast the failed request's whole unwind.
        try:
            return scheduler_request(scheduler, lane, request)
        except MalformedResponse:
            with lock:
                started.append("failure")
            raise

    monkeypatch.setattr(MockBackend, "complete", failing_complete)
    monkeypatch.setattr(cli._Scheduler, "request", marking_request)
    code, full = _generate(tmp_path, NOTES_PATH, "--workers", str(workers))
    assert code == 0 and "failure" not in started
    started.clear()
    failed["on"] = True
    interval = sys.getswitchinterval()
    try:
        # Frequent thread switches widen any window between the failed request
        # freeing its slot and its note's other chains learning of the error.
        sys.setswitchinterval(1e-5)
        code, kept = _generate(tmp_path, NOTES_PATH, "--workers", str(workers))
    finally:
        sys.setswitchinterval(interval)
    assert code == 1
    after = started[started.index("failure") + 1:]
    assert "n2" in started and "n2" not in after
    records = full.splitlines(keepends=True)
    assert kept.splitlines(keepends=True) == [records[0], records[2]]


def _one_note(tmp_path, text):
    path = tmp_path / "note.jsonl"
    path.write_text(json.dumps({"id": "p", "text": text}) + "\n", encoding="utf-8")
    return path


def test_a_merge_starts_while_a_later_section_still_runs(tmp_path, monkeypatch):
    # The fixture's second note has three sections with concepts. The first
    # request of the last one is held until a merge starts: merge 0 needs
    # only the first two sections, so it goes out while the third chain waits.
    record = FIXTURE[1]
    last = segment_note(ClinicalNote(record["id"], record["text"]))[-1].body
    merging = threading.Event()
    log = []
    complete = MockBackend.complete

    def held_complete(backend, request):
        if request.stage == "postediting":
            log.append("merge")
            merging.set()
        elif request.slots.get("note") == last and "held" not in log:
            log.append("held")
            log.append("released" if merging.wait(10) else "timed out")
        return complete(backend, request)

    notes = _one_note(tmp_path, record["text"])
    serial = _generate(tmp_path, notes, "--workers", "1")
    monkeypatch.setattr(MockBackend, "complete", held_complete)
    assert _generate(tmp_path, notes, "--workers", "2") == serial
    assert serial[0] == 0 and log[:3] == ["held", "merge", "released"]


FOUR_SECTIONS = (
    "MEDICATIONS:\ntakes aspirin nightly. Also lisinopril.\n"
    "PLAN:\nschedule a colonoscopy. Recheck in a week.\n"
    "LABS:\nstart insulin soon. Check anemia.\n"
    "ASSESSMENT:\nasthma is stable. Mild migraine.\n"
)


def test_a_chain_that_fails_while_its_note_merges_fails_the_note(tmp_path, monkeypatch, caplog):
    # Four chains on three workers. The last chain's first request is held
    # until just after the pipeline has failed. The third chain's first
    # request waits until merge 0 and that held request have started, then
    # fails; merge 0 ends once that failure has left the scheduler. The fold
    # then stops at the third section: the note fails with that chain's
    # error, sends nothing more, and ends only after its last chain.
    sections = [section.body for section in segment_note(ClinicalNote("p", FOUR_SECTIONS))]
    assert len(sections) == 4
    merging, held, failed, pipeline_failed = (threading.Event() for _ in range(4))
    lock = threading.Lock()
    log = []
    complete = MockBackend.complete
    request, run, run_note, pipeline = (
        cli._Scheduler.request, cli._Scheduler._run, cli._Scheduler._run_note, cli.run_full_pipeline
    )

    def append(event):
        with lock:
            log.append(event)

    def held_complete(backend, chat):
        section = "merge" if chat.stage == "postediting" else sections.index(chat.slots["note"])
        append(("start", section))
        if section == "merge" and not merging.is_set():
            merging.set()
            assert failed.wait(10)
        elif section == 2:
            assert merging.wait(10) and held.wait(10)
            raise MalformedResponse("the labs chain has no reply")
        elif section == 3 and log.count(("start", 3)) == 1:
            held.set()
            # A little longer, so that a note that did not wait would have ended.
            pipeline_failed.wait(10)
            time.sleep(0.05)
        return complete(backend, chat)

    def marking_request(scheduler, lane, chat):
        try:
            return request(scheduler, lane, chat)
        except MalformedResponse:
            append("failure")
            failed.set()
            raise

    def failing_pipeline(*args):
        try:
            return pipeline(*args)
        except BackendError:
            append("pipeline failed")
            pipeline_failed.set()
            raise

    def ended(original, event):
        def wrapper(*args):
            try:
                return original(*args)
            finally:
                append(event)
        return wrapper

    monkeypatch.setattr(MockBackend, "complete", held_complete)
    monkeypatch.setattr(cli._Scheduler, "request", marking_request)
    monkeypatch.setattr(cli._Scheduler, "_run", ended(run, "chain end"))
    monkeypatch.setattr(cli._Scheduler, "_run_note", ended(run_note, "note end"))
    monkeypatch.setattr(cli, "run_full_pipeline", failing_pipeline)
    assert _generate(tmp_path, _one_note(tmp_path, FOUR_SECTIONS), "--workers", "3") == (1, b"")
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["note p failed: the labs chain has no reply"]
    assert log.index(("start", "merge")) < log.index("failure") < log.index("pipeline failed")
    after = log[log.index("failure") + 1:]
    assert not any(isinstance(event, tuple) for event in after), "a request started after the failure"
    assert log.count("chain end") == 4 and log[-1] == "note end"


class _GateLog(cli._Scheduler):
    """The scheduler, appending to ``log`` under its lock ``"pass"`` as its
    gate admits a request (the request takes a slot) and ``"stop"`` as the
    run stops."""

    def __init__(self, backend, workers, log):
        self._log = log
        super().__init__(backend, workers)

    @property
    def _in_flight(self):
        return self._slots_taken

    @_in_flight.setter
    def _in_flight(self, value):
        if value > getattr(self, "_slots_taken", 0):
            self._log.append("pass")
        self._slots_taken = value

    @property
    def _stop(self):
        return self._stopped_by

    @_stop.setter
    def _stop(self, value):
        if value and not getattr(self, "_stopped_by", None):
            self._log.append("stop")
        self._stopped_by = value


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_write_stops_the_run(tmp_path, monkeypatch, workers):
    # The first record fails to write while later notes wait to start and
    # running notes' sections wait for a slot. The run stops once the error
    # reaches the scheduler, and no request passes the gate after that.
    log = []
    complete = MockBackend.complete

    def slow_complete(backend, request):
        time.sleep(0.003)
        return complete(backend, request)

    def failing_write(out, record):
        log.append("raise")
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(MockBackend, "complete", slow_complete)
    monkeypatch.setattr(cli, "_Scheduler", lambda backend, workers: _GateLog(backend, workers, log))
    monkeypatch.setattr(cli, "_write_record", failing_write)
    interval = sys.getswitchinterval()
    try:
        # Frequent thread switches let more requests reach the gate while
        # the error unwinds to the scheduler.
        sys.setswitchinterval(1e-5)
        with pytest.raises(BrokenPipeError):
            _generate(tmp_path, _notes(tmp_path, 20), "--workers", str(workers))
    finally:
        sys.setswitchinterval(interval)
    assert "stop" in log, "the failed write did not stop the run"
    assert "pass" in log[:log.index("raise")] and log.index("raise") < log.index("stop")
    assert log[log.index("stop"):].count("pass") == 0


def test_a_failed_run_frees_its_scheduler_without_a_gc_pass(tmp_path, monkeypatch):
    # The scheduler keeps the exception that stopped the run; that exception's
    # traceback holds cmd_generate's frame, with the scheduler and the run's
    # inputs. Once the error is handled, they must go at once, not wait in a
    # reference cycle for the collector.
    schedulers = []
    scheduler_class = cli._Scheduler

    def recorded(backend, workers):
        scheduler = scheduler_class(backend, workers)
        schedulers.append(weakref.ref(scheduler))
        return scheduler

    def failing_write(out, record):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_Scheduler", recorded)
    monkeypatch.setattr(cli, "_write_record", failing_write)
    gc.disable()
    try:
        with pytest.raises(BrokenPipeError):
            _generate(tmp_path, NOTES_PATH, "--workers", "1")
        assert schedulers and schedulers[0]() is None
    finally:
        gc.enable()


def test_a_failed_note_frees_its_scheduler_without_a_gc_pass(tmp_path, monkeypatch):
    # A failed chain hands its exception to its note through the lane; that
    # exception's traceback holds the chain's frames, with the lane and the
    # scheduler. Once the note has failed and the run has ended, they must go
    # at once, not wait in a reference cycle for the collector.
    schedulers = []
    scheduler_class = cli._Scheduler
    complete = MockBackend.complete

    def recorded(backend, workers):
        scheduler = scheduler_class(backend, workers)
        schedulers.append(weakref.ref(scheduler))
        return scheduler

    def failing_polish(backend, request):
        if request.stage == "polish":
            raise MalformedResponse("no choices in the reply")
        return complete(backend, request)

    monkeypatch.setattr(cli, "_Scheduler", recorded)
    monkeypatch.setattr(MockBackend, "complete", failing_polish)
    gc.disable()
    try:
        code, _ = _generate(tmp_path, NOTES_PATH, "--workers", "2")
        assert code == 1
        assert schedulers and schedulers[0]() is None
    finally:
        gc.enable()


def test_a_note_refused_after_the_run_stops_is_not_logged_as_failed(tmp_path, monkeypatch, capsys, caplog):
    # Note b's first two chains hold both slots and its third waits at the
    # gate when note a's record fails to write. The run stops and the gate
    # refuses b's request; b did not fail, so only the write error shows.
    schedulers = []
    scheduler_class = cli._Scheduler

    def recorded(backend, workers):
        schedulers.append(scheduler_class(backend, workers))
        return schedulers[-1]

    def held_complete(backend, request):
        _until(lambda: schedulers[0]._stop is not None)
        return "Doctor: Hello."

    def pipeline(note, lexicon, backend, cfg, templates, map_sections):
        if note.id == "a":
            turns = (Utterance(Speaker.DOCTOR, "Any cough?"), Utterance(Speaker.PATIENT, "No."))
            return Dialogue(note.id, turns, {"checklist": Checklist([])})
        return list(map_sections(backend.complete, ["first", "second", "third"]))

    class BrokenStdout(io.StringIO):
        def write(self, text):
            _until(lambda: len(schedulers[0]._waiting) == 1 and schedulers[0]._in_flight == 2)
            raise BrokenPipeError(32, "Broken pipe")

    notes = tmp_path / "notes.jsonl"
    notes.write_text("".join(json.dumps({"id": i, "text": "cough"}) + "\n" for i in "ab"), encoding="utf-8")
    monkeypatch.setattr(cli, "_Scheduler", recorded)
    monkeypatch.setattr(cli, "run_full_pipeline", pipeline)
    monkeypatch.setattr(MockBackend, "complete", held_complete)
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    argv = ["generate", "--mock", "--workers", "2", "--input", str(notes), "--lexicon", str(LEXICON_PATH)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    assert [r.getMessage() for r in caplog.records if "failed" in r.getMessage()] == []


# Distinct notes, so that a request's section body or note text names its note.
POOL = [record["text"] for record in FIXTURE] + [
    "MEDICATIONS:\ntakes aspirin nightly. Also lisinopril.\nPLAN:\nschedule a colonoscopy.\n",
    "CHIEF COMPLAINT:\nasthma today.\nLABS:\nstart insulin soon. Check anemia.\n",
    "ASSESSMENT:\nMild migraine and bronchitis.\n",
]
POOL_OWNER = {}
for _index, _text in enumerate(POOL):
    for _body in [_text] + [section.body for section in segment_note(ClinicalNote("p", _text))]:
        assert POOL_OWNER.setdefault(_body, _index) == _index


class _Faults:
    """What one drawn example does to the mock backend: each request sleeps,
    and may fail, by a digest of its note, stage and slots, so the same
    requests fail on every schedule. ``events`` records each start with the
    note the scheduler runs it for, and each mark of a note or of the run."""

    def __init__(self, salt, failure_rate, kinds):
        self.salt, self.failure_rate, self.kinds = salt, failure_rate, kinds
        self.lock = threading.Lock()
        self.local = threading.local()
        self.events = []
        self.requests = _Concurrency()

    def digest(self, request):
        owner = POOL_OWNER.get(request.slots.get("note"))  # None for a merge, which binds no note
        content = json.dumps([self.salt, owner, request.stage, request.slots], sort_keys=True)
        return int.from_bytes(hashlib.sha256(content.encode()).digest()[:8], "big")

    def complete(self, backend, request, original):
        # Recorded first, so that little runs between the gate and the record.
        with self.lock:
            self.events.append(("start", getattr(self.local, "note", None)))
        digest = self.digest(request)
        self.requests.enter()
        try:
            time.sleep(random.Random(digest).uniform(0, 0.002))
            if digest % 100 < self.failure_rate:
                raise self.kinds[digest // 100 % len(self.kinds)](f"failed: {request.stage}")
            return original(backend, request)
        finally:
            self.requests.leave()

    def request(self, scheduler, lane, request, original):
        self.local.note = lane.index
        try:
            return original(scheduler, lane, request)
        except (AuthError, MalformedResponse) as exc:
            # Recorded once the error has left the scheduler, which has marked
            # the run or the note by then.
            with self.lock:
                self.events.append(("auth", None) if isinstance(exc, AuthError) else ("mark", lane.index))
            raise

    def run(self, scheduler, lane, chain, section, original):
        result = original(scheduler, lane, chain, section)
        if lane.error:  # a chain that ran out of retries marks its note here
            with self.lock:
                self.events.append(("mark", lane.index))
        return result


def _records(output):
    return output.splitlines(keepends=True)


@settings(max_examples=20)
@given(
    picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=4, unique=True),
    workers=st.integers(1, 4),
    salt=st.integers(0, 10**6),
    failure_rate=st.sampled_from([0, 3, 10, 25]),
    auth=st.booleans(),
)
# An AuthError in an early note while later notes still wait to start.
@example(picks=[0, 1, 2, 3], workers=2, salt=1, failure_rate=3, auth=True)
@example(picks=[3, 0, 5, 1], workers=3, salt=3, failure_rate=3, auth=True)
def test_the_scheduler_writes_what_one_worker_writes(
    tmp_path_factory, picks, workers, salt, failure_rate, auth
):
    # AuthError ends the run, and which note reaches one first depends on the
    # schedule, so it is drawn alone; the other failures stay in their note.
    faults = _Faults(salt, failure_rate, [AuthError] if auth else [MalformedResponse, RateLimited])
    tmp_path = tmp_path_factory.mktemp("property")
    notes = tmp_path / "notes.jsonl"
    records = (json.dumps({"id": f"n{i}", "text": POOL[i]}) + "\n" for i in picks)
    notes.write_text("".join(records), encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text("retry_base_delay=0\n", encoding="utf-8")
    complete, request, run = MockBackend.complete, cli._Scheduler.request, cli._Scheduler._run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MockBackend, "complete", lambda backend, r: faults.complete(backend, r, complete))
        patch.setattr(cli._Scheduler, "request", lambda *args: faults.request(*args, request))
        patch.setattr(cli._Scheduler, "_run", lambda *args: faults.run(*args, run))
        serial = _generate(tmp_path, notes, "--workers", "1", "--config", str(config))
        faults.events.clear()
        faults.requests = _Concurrency()
        scheduled = _generate(tmp_path, notes, "--workers", str(workers), "--config", str(config))

    assert scheduled[0] == serial[0]
    if auth:
        # Notes run whole or not at all, so the run wrote a prefix.
        assert _records(serial[1])[:len(_records(scheduled[1]))] == _records(scheduled[1])
    else:
        assert scheduled == serial
    assert faults.requests.peak <= workers
    auth_seen, marked = False, set()
    for kind, note in faults.events:
        if kind == "start":
            assert not auth_seen, "a request started after an AuthError"
            assert note not in marked, f"note {note} sent a request after it was marked"
        elif kind == "auth":
            auth_seen = True
        else:
            marked.add(note)
