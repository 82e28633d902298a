"""Command-line surface: segment, extract, generate, evaluate.

Datasets are line-delimited JSON. Input notes are ``{"id", "text"}`` records;
generated dialogues are ``{"id", "mode", "turns", "coverage"}`` records where
each turn is ``{"speaker", "text"}``. Configuration precedence is flags over
config file over built-in defaults; the API key is read only from the
``DIALOGFORGE_API_KEY`` environment variable.

``generate --workers N`` keeps at most N backend requests in flight. A note's
sections run concurrently and its merge fold on the note's own thread, a
waiting request of an earlier note goes first, and records are still written
in input order. With N = 1, notes and their sections run one after another on
the calling thread.
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from .backend import AuthError, BackendError, ENDPOINT_ENV, HttpBackend, MockBackend
from .concepts import LexiconError, load_lexicon, reportable_concepts
from .metrics import evaluate_corpus, render_report_table
from .model import MODES, ClinicalNote, Dialogue, GenerationConfig, ModelError, Utterance, validate
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


def load_config_file(path: str) -> Dict[str, object]:
    """``key=value`` lines; blank lines and ``#`` comments ignored."""
    values: Dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
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
    if getattr(args, "config", None):
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


def print_effective_config(cfg: GenerationConfig) -> None:
    for field in dataclasses.fields(GenerationConfig):
        print(f"{field.name}={getattr(cfg, field.name)}")


def _read_records(path: str, field: str, kind: type, shape: str) -> Iterator[Tuple[str, str, Dict]]:
    """(``<path> line <n>``, id, record) per JSONL record: an object with an ``id``
    and a ``field`` of type ``kind``, else the error ``shape``. An id is a non-blank
    string or an integer (read with ``str``) that no other record of the file has."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    id_lines: Dict[str, int] = {}
    # Not splitlines(): ensure_ascii=False leaves U+2028, U+2029 and U+0085 raw in strings.
    for line_no, line in enumerate(text.split("\n"), start=1):
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
        yield where, record_id, record


def _read_notes(path: str) -> List[ClinicalNote]:
    notes = []
    for where, note_id, record in _read_records(
        path, "text", str, "note record needs 'id' and a string 'text'"
    ):
        note = ClinicalNote(id=note_id, text=record["text"])
        try:
            validate(note)
        except ValueError as exc:
            raise CliError(f"{where}: {exc}") from exc
        notes.append(note)
    return notes


def _read_dialogues(path: str) -> List[Dialogue]:
    dialogues = []
    for where, dialogue_id, record in _read_records(
        path, "turns", list, "dialogue record needs 'id' and a list 'turns'"
    ):
        try:
            turns = tuple(Utterance(turn["speaker"], turn["text"]) for turn in record["turns"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{where}: bad turn record ({exc})") from exc
        dialogues.append(Dialogue(dialogue_id, turns))
    return dialogues


def _output(path: Optional[str]) -> ContextManager[TextIO]:
    """``--out`` truncated, or stdout. Open it only once the inputs are valid."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _write_record(out: TextIO, record: Dict) -> None:
    out.write(json.dumps(record, ensure_ascii=False) + "\n")


def _load_lexicon_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_lexicon(handle)
    except OSError as exc:
        raise CliError(f"cannot read lexicon {path}: {exc}") from exc
    except LexiconError as exc:
        raise CliError(f"lexicon {path}: {exc}") from exc


def cmd_segment(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    notes = _read_notes(args.input)
    with _output(args.out) as out:
        for note in notes:
            for section in segment_note(note, cfg.similarity_threshold):
                _write_record(out, {
                    "note_id": note.id,
                    "header": section.header.canonical_name,
                    "body": section.body,
                    "span": [section.start, section.end],
                })
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    lexicon = _load_lexicon_file(args.lexicon)
    notes = _read_notes(args.input)
    with _output(args.out) as out:
        for note in notes:
            _write_record(out, {
                "id": note.id,
                "concepts": [
                    {"surface": c.surface, "cui": c.cui, "semantic_group": c.semantic_group.value}
                    for c in reportable_concepts(note.text, lexicon, cfg)
                ],
            })
    return 0


def _make_backend(args: argparse.Namespace, cfg: GenerationConfig):
    if args.mock_script:
        try:
            script = json.loads(Path(args.mock_script).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
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
    - After an AuthError no request starts. Once a chain fails, the other
      chains of its note start no request. A non-retryable error stops them
      before its slot is freed, one that ran out of retries as its chain ends.

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
        self._auth_error: Optional[AuthError] = None
        self._notes = ThreadPoolExecutor(workers)
        # A thread starts only when none is idle, so the pool holds about as
        # many threads as chains ever ran together: the sections of the at
        # most ``workers`` notes admitted at once. No chain waits for a thread.
        self._chains = ThreadPoolExecutor(sys.maxsize)

    def __enter__(self) -> "_Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        # Note threads wait for their chains, so they go first; a failed run
        # starts no further note.
        self._notes.shutdown(cancel_futures=True)
        self._chains.shutdown()

    def map(self, generate: Callable, notes: List[ClinicalNote]) -> Iterator[Optional[Dialogue]]:
        if self._workers == 1:
            return map(generate, notes)
        return self._notes.map(self._run_note, itertools.repeat(generate), range(len(notes)), notes)

    def _run_note(self, generate: Callable, index: int, note: ClinicalNote) -> Optional[Dialogue]:
        lane = _Lane(self, index)
        with self._cond:
            self._cond.wait_for(lambda: self._auth_error or (
                self._next_note == index
                and sum(max(admitted.running, 1) for admitted in self._admitted) < self._workers
            ))
            if self._auth_error:
                return None
            self._next_note += 1
            self._admitted.append(lane)
            self._cond.notify_all()  # the next note may fit too
        try:
            return generate(note, lane, lane.map)
        finally:
            with self._cond:
                self._admitted.remove(lane)
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
            self._cond.wait_for(lambda: self._auth_error or lane.error or (
                self._in_flight < self._workers and min(self._waiting) == ticket
            ))
            self._waiting.remove(ticket)
            if self._auth_error or lane.error:
                self._cond.notify_all()
                if self._auth_error:
                    raise AuthError(str(self._auth_error))
                raise BackendError(f"note stopped after an error: {lane.error}")
            self._in_flight += 1
        try:
            return self._backend.complete(request)
        except BackendError as exc:
            # Before the slot is freed. A retryable error stops the chain only
            # once its retries run out, which _run records.
            with self._cond:
                if isinstance(exc, AuthError):
                    self._auth_error = self._auth_error or exc
                if not exc.retryable:
                    lane.error = lane.error or exc
            raise
        finally:
            with self._cond:
                self._in_flight -= 1
                self._cond.notify_all()


def cmd_generate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise CliError("--workers must be positive")
    cfg = build_config(args)
    lexicon = _load_lexicon_file(args.lexicon)
    backend = _make_backend(args, cfg)
    notes = _read_notes(args.input)
    try:
        templates = load_templates(args.prompts) if args.prompts else None
    except (OSError, ModelError) as exc:
        raise CliError(f"cannot load prompt templates: {exc}") from exc

    def generate(note: ClinicalNote, backend=backend, map_sections=map) -> Optional[Dialogue]:
        """The note's dialogue, or None when it failed."""
        try:
            return run_full_pipeline(note, lexicon, backend, cfg, templates, map_sections)
        except AuthError:
            raise
        except (BackendError, ValueError) as exc:
            logger.error("note %s failed: %s", note.id, exc)
            return None

    missing = 0
    with _output(args.out) as out, _Scheduler(backend, args.workers) as scheduler:
        try:
            # Write each record as it arrives, in input order, so a failed run keeps it.
            for note, dialogue in zip(notes, scheduler.map(generate, notes)):
                if dialogue is not None and len(dialogue.turns) < 2:
                    # evaluate refuses a dialogue with fewer than two turns
                    logger.warning("note %s: %d turn(s); no record written", note.id, len(dialogue.turns))
                    dialogue = None
                if dialogue is None:
                    missing += 1
                    continue
                checklist = dialogue.meta["checklist"]
                _write_record(out, {
                    "id": note.id,
                    "mode": cfg.mode,
                    "turns": [{"speaker": t.speaker.value, "text": t.text} for t in dialogue.turns],
                    "coverage": {"covered": checklist.covered_count(), "total": len(checklist)},
                })
                out.flush()
        except AuthError as exc:
            raise CliError(f"authentication failed: {exc}", exit_code=2) from exc
    return 1 if missing else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
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
        out.write(json.dumps(report.as_dict(), ensure_ascii=False, indent=2) + "\n")
    if args.out:
        # Without --out, stdout holds the JSON report alone.
        print(render_report_table(report))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogforge",
        description="Synthesize doctor-patient dialogues from clinical notes and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_segment = sub.add_parser("segment", help="split notes into header-labeled sections")
    p_segment.add_argument("--input", required=True, help="notes JSONL file")
    p_segment.add_argument("--out", help="sections JSONL file (default stdout)")
    _add_config_flags(p_segment, "similarity_threshold")
    p_segment.set_defaults(func=cmd_segment)

    p_extract = sub.add_parser("extract", help="extract filtered concepts per note")
    p_extract.add_argument("--input", required=True, help="notes JSONL file")
    p_extract.add_argument("--lexicon", required=True, help="tab-separated lexicon file")
    p_extract.add_argument("--out", help="concepts JSONL file (default stdout)")
    _add_config_flags(p_extract, "concept_threshold")
    p_extract.set_defaults(func=cmd_extract)

    p_generate = sub.add_parser("generate", help="run the full note-to-dialogue pipeline")
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
    p_evaluate.add_argument("--hyp", required=True, help="hypothesis dialogues JSONL file")
    p_evaluate.add_argument("--ref", required=True, help="reference dialogues JSONL file")
    p_evaluate.add_argument("--lexicon", required=True, help="tab-separated lexicon file")
    p_evaluate.add_argument("--out", help="report JSON file (default stdout)")
    _add_config_flags(p_evaluate, "concept_threshold")
    p_evaluate.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "print_config", False):
            print_effective_config(build_config(args))
            return 0
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
