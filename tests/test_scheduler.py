"""The request scheduler behind ``generate --workers``: one bound on backend
requests in flight, the earliest note first, and a failure kept to its note."""

import hashlib
import json
import random
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialogforge import cli
from dialogforge.backend import AuthError, BackendError, MalformedResponse, MockBackend, RateLimited
from dialogforge.model import ClinicalNote
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
            return map_sections(chain, (x, y))
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
            sections = map_sections(str.upper, ["s"])
            folding.set()
            assert fold.wait(10)
            return sections
        if note == "b":
            _until(lambda: "f" in started)
            return map_sections(chain, (x, y))
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
