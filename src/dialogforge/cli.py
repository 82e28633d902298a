"""Command-line surface: segment, extract, generate, evaluate.

Datasets are line-delimited JSON. Input notes are ``{"id", "text"}`` records;
generated dialogues are ``{"id", "mode", "turns", "coverage"}`` records where
each turn is ``{"speaker", "text"}``. Configuration precedence is flags over
config file over built-in defaults; the API key is read only from the
``DIALOGFORGE_API_KEY`` environment variable.

segment, extract and generate share one record loop: a note's records are
built and UTF-8-encoded on their own, then flushed in input order, so a note
that fails or cannot be written is logged and skipped alone; exit code 1 says
some note has no record. ``generate --workers N`` keeps at most N backend
requests in flight: a note's sections run concurrently, its merge fold on its
own thread, and a waiting request of an earlier note goes first. With N = 1,
notes and their sections run one after another on the calling thread.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import stat
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from .backend import AuthError, BackendError, ENDPOINT_ENV, HttpBackend, MockBackend
from .concepts import INDEX_FORMAT, Lexicon, LexiconError, load_lexicon, reportable_concepts
from .metrics import evaluate_corpus, render_report_table
from .model import MODES, ClinicalNote, Dialogue, GenerationConfig, ModelError, Utterance
from .prompts import load_templates
from .refiner import run_full_pipeline
from .segmenter import segment_note

logger = logging.getLogger(__name__)

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(GenerationConfig)}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _coerce(name: str, raw: str):
    kind = _CONFIG_FIELDS[name]
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise CliError(f"config key {name}: expected a boolean, got {raw!r}")
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise CliError(f"config key {name}: cannot parse {raw!r}") from None
    return raw


def _read(path: str, what: str = "") -> str:
    """The text of the UTF-8 input file ``path``, or the error ``cannot read
    <what><path>``; ``what`` names the kind of file (``"lexicon "``, say).
    A leading byte-order mark is dropped, so a file reads as it would without one."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what}{path}: {exc}") from exc


def load_config_file(path: str) -> Dict[str, object]:
    """``key=value`` lines; blank lines and ``#`` comments ignored."""
    values: Dict[str, object] = {}
    for line_no, line in enumerate(_read(path, "config file ").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"config file {path} line {line_no}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise CliError(f"config file {path} line {line_no}: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def build_config(args: argparse.Namespace) -> GenerationConfig:
    values: Dict[str, object] = {}
    if args.config:
        values.update(load_config_file(args.config))
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    mode = values.pop("mode", "short")
    try:
        return GenerationConfig.for_mode(mode, **values)
    except ModelError as exc:
        raise CliError(f"invalid config: {exc}") from exc


def _read_records(path: str, field: str, kind: type, shape: str, build: Callable) -> List:
    """``build(id, value)`` per JSONL record: an object with an ``id`` and a
    ``field`` of type ``kind``, else the error ``shape``. An id is a non-blank
    string or an integer (read with ``str``) that no other record of the file
    has. A ModelError from ``build`` is an error naming the record's line."""
    built = []
    id_lines: Dict[str, int] = {}
    # Not splitlines(): ensure_ascii=False leaves U+2028, U+2029 and U+0085 raw in strings.
    for line_no, line in enumerate(_read(path).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path} line {line_no}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CliError(f"{where}: malformed JSON ({exc.msg})") from exc
        if not isinstance(record, dict) or "id" not in record or not isinstance(record.get(field), kind):
            raise CliError(f"{where}: {shape}")
        raw = record["id"]
        if isinstance(raw, bool) or not isinstance(raw, (str, int)) or not str(raw).strip():
            raise CliError(f"{where}: id must be a non-blank string or an integer, not {json.dumps(raw)}")
        record_id = str(raw)
        if record_id in id_lines:
            raise CliError(f"{where}: id {record_id!r} is already used on line {id_lines[record_id]}")
        id_lines[record_id] = line_no
        try:
            built.append(build(record_id, record[field]))
        except ModelError as exc:
            raise CliError(f"{where}: {exc}") from exc
    return built


def _read_notes(path: str) -> List[ClinicalNote]:
    return _read_records(path, "text", str, "note record needs 'id' and a string 'text'", ClinicalNote)


def _read_dialogues(path: str) -> List[Dialogue]:
    def dialogue(dialogue_id: str, turns: List) -> Dialogue:
        try:
            return Dialogue(dialogue_id, [Utterance(turn["speaker"], turn["text"]) for turn in turns])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad turn record ({exc})") from exc

    return _read_records(path, "turns", list, "dialogue record needs 'id' and a list 'turns'", dialogue)


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """``--out`` truncated, or stdout; a file is closed when the block ends.
    Open it only once the inputs are valid."""
    if not path:
        yield sys.stdout
        return
    with _writing(path):
        out = open(path, "w", encoding="utf-8")
    try:
        yield out
        with _writing(out):
            out.close()
    finally:
        with contextlib.suppress(OSError):
            out.close()  # after an error; a no-op once closed


@contextlib.contextmanager
def _writing(out: Union[TextIO, str]) -> Iterator[None]:
    """The ``cannot write`` error of ``out`` (a stream, or the path it is opened
    from): a failed open, write, flush or close, or text the stream cannot
    encode. A stdout that failed with an OSError is pointed at the null device,
    so that the interpreter's flush at exit reports nothing more."""
    try:
        yield
    except (OSError, UnicodeEncodeError) as exc:
        if out is sys.stdout and isinstance(exc, OSError):
            # Skipped for a stream without a descriptor, as under redirect_stdout.
            with contextlib.suppress(OSError):
                fd = out.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        name = "stdout" if out is sys.stdout else out if isinstance(out, str) else out.name
        raise CliError(f"cannot write {name}: {exc}") from exc


def _write_record(out: TextIO, text: str) -> None:
    with _writing(out):
        out.write(text)
        out.flush()


def _write_records(out_path: Optional[str], notes: List[ClinicalNote], records: Callable, map_notes=map) -> int:
    """Writes the dicts ``records(note, ...)`` returns as JSON lines to
    ``out_path`` or stdout, one flushed write a note, in input order: 1 if
    some note has none, else 0. A note fails alone, logged, on a BackendError
    or ValueError, or text UTF-8 cannot encode; an AuthError ends the run."""

    def note_text(note: ClinicalNote, *args) -> str:
        try:
            text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records(note, *args))
            text.encode("utf-8")
            return text
        except AuthError:
            raise
        except (BackendError, ValueError) as exc:
            # The text: a handler that keeps the record would keep the
            # exception, and through its traceback the scheduler.
            logger.error("note %s failed: %s", note.id, str(exc))
            return ""

    missing = 0
    with _output(out_path) as out:
        try:
            for text in map_notes(note_text, notes):
                if text:
                    _write_record(out, text)
                else:
                    missing += 1
        except AuthError as exc:
            raise CliError(f"authentication failed: {exc}", exit_code=2) from exc
    return 1 if missing else 0


INDEX_SUFFIX = ".dialogforge-index"
_INDEX_MAGIC = b"dialogforge-index "


def _load_lexicon_file(path: str) -> Lexicon:
    """The lexicon at ``path``, read from its index ``<path>.dialogforge-index``
    when the index's header matches: the index format, the interpreter's
    ``cache_tag`` (marshal data may change between versions) and the SHA-256
    of the lexicon text. Otherwise the text is parsed, and the index written
    for the next command, unless the index path holds a file this program
    did not write."""
    text = _read(path, "lexicon ")
    index_path = path + INDEX_SUFFIX
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    header = _INDEX_MAGIC + f"{INDEX_FORMAT} {sys.implementation.cache_tag} {digest}\n".encode("ascii")
    try:
        with open(index_path, "rb") as index:
            found = index.read()
    except FileNotFoundError:
        found = b""
    except OSError:
        found = None  # something is there that cannot be read: keep it
    if found and found.startswith(header):
        # A damaged index is parsed over, like a stale one.
        with contextlib.suppress(EOFError, ValueError, TypeError, KeyError):
            return Lexicon.from_index(found[len(header):])
    try:
        lexicon = load_lexicon(text.split("\n"))
    except LexiconError as exc:
        raise CliError(f"lexicon {path}: {exc}") from exc
    # A file there that does not start as an index does is not ours to replace.
    if found is not None and _INDEX_MAGIC.startswith(found[: len(_INDEX_MAGIC)]):
        _write_index(path, index_path, header + lexicon.to_index())
    return lexicon


def _write_index(path: str, index_path: str, data: bytes) -> None:
    """Write ``data`` to ``index_path`` through a temporary file in its
    directory and ``os.replace``, so that no reader sees a torn index; give it
    the mode of the lexicon file ``path``. Only a regular lexicon file gets an
    index: not ``/dev/stdin`` or a FIFO. A write that fails (a read-only
    directory, say) is logged at DEBUG and costs the next command a parse."""
    temp = None
    try:
        mode = os.stat(path).st_mode
        if not stat.S_ISREG(mode):
            return
        fd, temp = tempfile.mkstemp(prefix=os.path.basename(index_path) + ".", dir=os.path.dirname(index_path))
        with os.fdopen(fd, "wb") as out:
            os.fchmod(out.fileno(), stat.S_IMODE(mode) & 0o666)
            out.write(data)
        os.replace(temp, index_path)
    except OSError as exc:
        logger.debug("lexicon index %s not written: %s", index_path, exc)
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


def cmd_segment(args: argparse.Namespace, cfg: GenerationConfig) -> int:
    notes = _read_notes(args.input)

    def sections(note: ClinicalNote) -> List[Dict]:
        return [{
            "note_id": note.id,
            "header": section.header.canonical_name,
            "body": section.body,
            "span": [section.start, section.end],
        } for section in segment_note(note, cfg.similarity_threshold)]

    return _write_records(args.out, notes, sections)


def cmd_extract(args: argparse.Namespace, cfg: GenerationConfig) -> int:
    lexicon = _load_lexicon_file(args.lexicon)
    notes = _read_notes(args.input)

    def concepts(note: ClinicalNote) -> List[Dict]:
        return [{
            "id": note.id,
            "concepts": [
                {"surface": c.surface, "cui": c.cui, "semantic_group": c.semantic_group.value}
                for c in reportable_concepts(note.text, lexicon, cfg)
            ],
        }]

    return _write_records(args.out, notes, concepts)


def _make_backend(args: argparse.Namespace, cfg: GenerationConfig):
    if args.mock_script:
        try:
            script = json.loads(_read(args.mock_script, "mock script "))
        except json.JSONDecodeError as exc:
            raise CliError(f"cannot read mock script {args.mock_script}: {exc}") from exc
        if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
            raise CliError(f"mock script {args.mock_script} must be a JSON list of strings")
        return MockBackend(script=script, style=cfg.mode)
    if args.mock:
        return MockBackend(style=cfg.mode)
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV, "")
    if not endpoint:
        raise CliError(f"no endpoint given; use --endpoint or ${ENDPOINT_ENV}")
    if args.requests_per_minute is not None and not args.requests_per_minute > 0:
        raise CliError("--requests-per-minute must be positive")
    try:
        return HttpBackend(
            endpoint,
            args.model,
            requests_per_minute=args.requests_per_minute,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


class _RunStopped(Exception):
    """A request refused because the run stopped. Its note did not fail, so
    ``generate`` lets it pass unlogged; nothing reads the note's result."""


class _Lane:
    """One admitted note's side of the scheduler: the backend its chains call,
    and the ``map_sections`` that ``run_full_pipeline`` fans chains out by."""

    def __init__(self, scheduler: "_Scheduler", index: int):
        self._scheduler = scheduler
        self.index = index
        self.error: Optional[Exception] = None  # the first error of one of its chains
        self.running = 0

    def complete(self, request):
        return self._scheduler.request(self, request)

    def map(self, chain: Callable, sections: Sequence) -> List:
        """Runs ``chain`` on every section at once and waits for all of them:
        the results in section order, or the note's first error."""
        scheduler = self._scheduler
        with scheduler._cond:
            self.running += len(sections)
        futures = [scheduler._chains.submit(scheduler._run, self, chain, section) for section in sections]
        wait(futures)
        if self.error:
            raise self.error
        return [future.result() for future in futures]


class _Scheduler:
    """Runs notes through ``generate`` under one bound of ``workers`` backend
    requests in flight, and maps them to results in input order.

    A chain is one section's loop, polish and hallucination check; a note's
    ``map_sections`` starts all of its chains at once, each on its own
    thread, and the note's merge fold then runs on the note's thread. Three
    rules share the bound:

    - A request starts only while fewer than ``workers`` are in flight; a
      waiting request of an earlier note (by input index) goes first.
    - Notes are admitted in input order, each only while the admitted notes
      run fewer than ``workers`` chains. A note with no chain running, in its
      fold for one, counts as one, so the fold admits no note.
    - Once the run stops, no request starts and no note is admitted. An
      AuthError stops it, and so does any exception that leaves the ``with``
      block: a failed write, a full disk or a Ctrl-C. A note whose request is
      refused then has not failed, and is not logged as failed. Once a chain
      fails, the other chains of its note start no request. A non-retryable
      error stops them before its slot is freed, one that ran out of retries
      as its chain ends.

    With one worker, notes run inline and one at a time, with no scheduling.
    """

    def __init__(self, backend, workers: int):
        self._backend = backend
        self._workers = workers
        self._cond = threading.Condition()
        self._in_flight = 0
        self._waiting: List[Tuple[int, int]] = []  # (note index, ticket) per waiting request
        self._tickets = itertools.count()
        self._admitted: List[_Lane] = []
        self._next_note = 0
        self._stop: Optional[BaseException] = None  # what stopped the run
        self._notes = ThreadPoolExecutor(workers)
        # A thread starts only when none is idle, so the pool holds about as
        # many threads as chains ever ran together: the sections of the at
        # most ``workers`` notes admitted at once. No chain waits for a thread.
        self._chains = ThreadPoolExecutor(sys.maxsize)

    def __enter__(self) -> "_Scheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._cond:
            self._stop = self._stop or exc
            self._cond.notify_all()
        # Note threads wait for their chains, so they go first.
        self._notes.shutdown(cancel_futures=True)
        self._chains.shutdown()
        # exc's traceback holds the caller's frame, which holds this scheduler;
        # without this, that cycle keeps the run's inputs alive until a GC pass.
        self._stop = None

    def map(self, generate: Callable, notes: List[ClinicalNote]) -> Iterator[Optional[str]]:
        if self._workers == 1:
            return map(generate, notes)
        return self._notes.map(self._run_note, itertools.repeat(generate), range(len(notes)), notes)

    def _run_note(self, generate: Callable, index: int, note: ClinicalNote) -> Optional[str]:
        lane = _Lane(self, index)
        with self._cond:
            self._cond.wait_for(lambda: self._stop or (
                self._next_note == index
                and sum(max(admitted.running, 1) for admitted in self._admitted) < self._workers
            ))
            if self._stop:
                return None
            self._next_note += 1
            self._admitted.append(lane)
            self._cond.notify_all()  # the next note may fit too
        try:
            return generate(note, lane, lane.map)
        finally:
            with self._cond:
                self._admitted.remove(lane)
                lane.error = None  # its traceback holds the lane, which a GC pass would have to free
                self._cond.notify_all()

    def _run(self, lane: _Lane, chain: Callable, section):
        try:
            return chain(section)
        except Exception as exc:
            with self._cond:
                lane.error = lane.error or exc  # which map raises
        finally:
            with self._cond:
                lane.running -= 1
                self._cond.notify_all()

    def request(self, lane: _Lane, request):
        with self._cond:
            ticket = (lane.index, next(self._tickets))
            self._waiting.append(ticket)
            self._cond.wait_for(lambda: self._stop or lane.error or (
                self._in_flight < self._workers and min(self._waiting) == ticket
            ))
            self._waiting.remove(ticket)
            if self._stop or lane.error:
                self._cond.notify_all()
                if isinstance(self._stop, AuthError):
                    raise AuthError(str(self._stop))
                if lane.error:
                    raise BackendError(f"note stopped after an error: {lane.error}")
                raise _RunStopped(str(self._stop))
            self._in_flight += 1
        try:
            return self._backend.complete(request)
        except BackendError as exc:
            # Before the slot is freed. A retryable error stops the chain only
            # once its retries run out, which _run records.
            with self._cond:
                if isinstance(exc, AuthError):
                    self._stop = self._stop or exc
                if not exc.retryable:
                    lane.error = lane.error or exc
            raise
        finally:
            with self._cond:
                self._in_flight -= 1
                self._cond.notify_all()


def cmd_generate(args: argparse.Namespace, cfg: GenerationConfig) -> int:
    if args.workers < 1:
        raise CliError("--workers must be positive")
    lexicon = _load_lexicon_file(args.lexicon)
    backend = _make_backend(args, cfg)
    notes = _read_notes(args.input)
    try:
        templates = load_templates(args.prompts) if args.prompts else None
    except (OSError, ModelError) as exc:
        raise CliError(f"cannot load prompt templates: {exc}") from exc

    def generate(note: ClinicalNote, backend=backend, map_sections=map) -> List[Dict]:
        # Fail a note whose record UTF-8 cannot encode before it costs a backend call.
        note.id.encode("utf-8")
        note.text.encode("utf-8")
        # perfbench times each cli.run_full_pipeline call as a note, set-up until the first: add no work before it.
        dialogue = run_full_pipeline(note, lexicon, backend, cfg, templates, map_sections)
        if len(dialogue.turns) < 2:
            # evaluate refuses a dialogue with fewer than two turns
            logger.warning("note %s: %d turn(s); no record written", note.id, len(dialogue.turns))
            return []
        checklist = dialogue.meta["checklist"]
        return [{
            "id": note.id,
            "mode": cfg.mode,
            "turns": [{"speaker": t.speaker.value, "text": t.text} for t in dialogue.turns],
            "coverage": {"covered": checklist.covered_count(), "total": len(checklist)},
        }]

    try:
        with _Scheduler(backend, args.workers) as scheduler:
            return _write_records(args.out, notes, generate, scheduler.map)
    finally:
        if isinstance(backend, HttpBackend):
            backend.close()  # no request is in flight once the scheduler has exited


def cmd_evaluate(args: argparse.Namespace, cfg: GenerationConfig) -> int:
    lexicon = _load_lexicon_file(args.lexicon)
    hyps = _read_dialogues(args.hyp)
    refs = {d.note_id: d for d in _read_dialogues(args.ref)}
    unmatched = [h.note_id for h in hyps if h.note_id not in refs]
    if unmatched:
        raise CliError(f"hypothesis ids missing from reference file: {', '.join(unmatched)}")
    pairs = [(h, refs[h.note_id]) for h in hyps]
    try:
        report = evaluate_corpus(pairs, lexicon, cfg)
    except ValueError as exc:
        raise CliError(f"evaluation failed: {exc}") from exc
    with _output(args.out) as out:
        _write_record(out, json.dumps(report.as_dict(), ensure_ascii=False, indent=2) + "\n")
    if args.out:
        # Without --out, stdout holds the JSON report alone.
        _write_record(sys.stdout, render_report_table(report) + "\n")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """``--config``, ``--print-config`` and one flag per named config field.

    A command names only the fields it reads; its config file may still set
    any field, because one file serves every command.
    """
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--print-config", action="store_true", help="dump effective config and exit")
    for name in names:
        choices = MODES if name == "mode" else None
        parser.add_argument("--" + name.replace("_", "-"), type=_CONFIG_FIELDS[name], choices=choices)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` given, one with only
    that command's arguments added: each ``add_argument`` builds a help
    formatter, which reads the terminal size. Every command is registered
    either way, so the top-level help and an unknown command's error are the same."""
    parser = argparse.ArgumentParser(
        prog="dialogforge",
        description="Synthesize doctor-patient dialogues from clinical notes and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_segment = sub.add_parser("segment", help="split notes into header-labeled sections")
    if command in (None, "segment"):
        p_segment.add_argument("--input", required=True, help="notes JSONL file")
        p_segment.add_argument("--out", help="sections JSONL file (default stdout)")
        _add_config_flags(p_segment, "similarity_threshold")
        p_segment.set_defaults(func=cmd_segment)

    p_extract = sub.add_parser("extract", help="extract filtered concepts per note")
    if command in (None, "extract"):
        p_extract.add_argument("--input", required=True, help="notes JSONL file")
        p_extract.add_argument("--lexicon", required=True, help="tab-separated lexicon file")
        p_extract.add_argument("--out", help="concepts JSONL file (default stdout)")
        _add_config_flags(p_extract, "concept_threshold")
        p_extract.set_defaults(func=cmd_extract)

    p_generate = sub.add_parser("generate", help="run the full note-to-dialogue pipeline")
    if command in (None, "generate"):
        p_generate.add_argument("--input", required=True, help="notes JSONL file")
        p_generate.add_argument("--lexicon", required=True, help="tab-separated lexicon file")
        p_generate.add_argument("--out", help="dialogues JSONL file (default stdout)")
        p_generate.add_argument("--mock", action="store_true", help="use the rule-generated mock backend")
        p_generate.add_argument("--mock-script", help="JSON list of scripted mock replies")
        p_generate.add_argument("--endpoint", help=f"chat-completions endpoint (or ${ENDPOINT_ENV})")
        p_generate.add_argument("--model", default="gpt-3.5-turbo", help="model name sent to the endpoint")
        p_generate.add_argument(
            "--requests-per-minute", dest="requests_per_minute", type=float, default=None
        )
        p_generate.add_argument("--workers", type=int, default=1, help="backend requests in flight")
        p_generate.add_argument("--prompts", help="directory of <name>.txt prompt template overrides")
        _add_config_flags(
            p_generate, "mode", "max_rounds", "keywords_per_turn",
            "similarity_threshold", "concept_threshold", "max_context_tokens",
        )
        p_generate.set_defaults(func=cmd_generate)

    p_evaluate = sub.add_parser("evaluate", help="score hypothesis dialogues against references")
    if command in (None, "evaluate"):
        p_evaluate.add_argument("--hyp", required=True, help="hypothesis dialogues JSONL file")
        p_evaluate.add_argument("--ref", required=True, help="reference dialogues JSONL file")
        p_evaluate.add_argument("--lexicon", required=True, help="tab-separated lexicon file")
        p_evaluate.add_argument("--out", help="report JSON file (default stdout)")
        _add_config_flags(p_evaluate, "concept_threshold")
        p_evaluate.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no option with a value, so its first
    # non-option argument names the command.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        cfg = build_config(args)
        if args.print_config:
            for field in dataclasses.fields(GenerationConfig):
                print(f"{field.name}={getattr(cfg, field.name)}")
            return 0
        return args.func(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
