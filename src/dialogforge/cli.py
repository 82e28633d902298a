"""Command-line surface: segment, extract, generate, evaluate.

Datasets are line-delimited JSON. Input notes are ``{"id", "text"}`` records;
generated dialogues are ``{"id", "mode", "turns", "coverage"}`` records where
each turn is ``{"speaker", "text"}``. Configuration precedence is flags over
config file over built-in defaults; the API key is read only from the
``DIALOGFORGE_API_KEY`` environment variable.
"""

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .backend import AuthError, BackendError, ENDPOINT_ENV, HttpBackend, MockBackend
from .concepts import LexiconError, extract_concepts, filter_semantic_groups, load_lexicon
from .metrics import evaluate_corpus, render_report_table
from .model import ClinicalNote, Dialogue, GenerationConfig, Provenance, Utterance, validate
from .prompts import load_templates
from .refiner import run_full_pipeline
from .segmenter import segment_note

logger = logging.getLogger(__name__)

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(GenerationConfig)}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


class IdMismatch(CliError):
    pass


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
    return GenerationConfig.for_mode(mode, **values)


def print_effective_config(cfg: GenerationConfig) -> None:
    for field in dataclasses.fields(GenerationConfig):
        print(f"{field.name}={getattr(cfg, field.name)}")


def _read_jsonl(path: str) -> List[Tuple[int, Dict]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append((line_no, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise CliError(f"{path} line {line_no}: malformed JSON ({exc.msg})") from exc
    return records


def _read_notes(path: str) -> List[ClinicalNote]:
    notes = []
    for line_no, record in _read_jsonl(path):
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise CliError(f"{path} line {line_no}: note record needs 'id' and 'text'")
        note = ClinicalNote(id=str(record["id"]), text=str(record["text"]))
        try:
            validate(note)
        except ValueError as exc:
            raise CliError(f"{path} line {line_no}: {exc}") from exc
        notes.append(note)
    return notes


def _read_dialogues(path: str) -> List[Dialogue]:
    dialogues = []
    for line_no, record in _read_jsonl(path):
        if not isinstance(record, dict) or "id" not in record or "turns" not in record:
            raise CliError(f"{path} line {line_no}: dialogue record needs 'id' and 'turns'")
        try:
            turns = tuple(
                Utterance(turn["speaker"], turn["text"], i // 2)
                for i, turn in enumerate(record["turns"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{path} line {line_no}: bad turn record ({exc})") from exc
        dialogues.append(Dialogue(str(record["id"]), turns, Provenance.COMBINED))
    return dialogues


def _open_out(path: Optional[str]):
    if path:
        return open(path, "w", encoding="utf-8")
    return sys.stdout


def _write_records(path: Optional[str], records: List[Dict]) -> None:
    out = _open_out(path)
    try:
        for record in records:
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


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
    records = []
    for note in _read_notes(args.input):
        for section in segment_note(note, cfg.similarity_threshold):
            records.append(
                {
                    "note_id": note.id,
                    "header": section.header.canonical_name,
                    "body": section.body,
                    "span": [section.start, section.end],
                }
            )
    _write_records(args.out, records)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    lexicon = _load_lexicon_file(args.lexicon)
    records = []
    for note in _read_notes(args.input):
        concepts = filter_semantic_groups(extract_concepts(note.text, lexicon, cfg.concept_threshold))
        records.append(
            {
                "id": note.id,
                "concepts": [
                    {"surface": c.surface, "cui": c.cui, "semantic_group": c.semantic_group.value}
                    for c in concepts
                ],
            }
        )
    _write_records(args.out, records)
    return 0


def _make_backend(args: argparse.Namespace, cfg: GenerationConfig):
    if args.mock_script:
        try:
            script = json.loads(Path(args.mock_script).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read mock script {args.mock_script}: {exc}") from exc
        if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
            raise CliError(f"mock script {args.mock_script} must be a JSON list of strings")
        return MockBackend(script=script, strict=False, style=cfg.mode)
    if args.mock:
        return MockBackend(style=cfg.mode)
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV, "")
    if not endpoint:
        raise CliError(f"no endpoint given; use --endpoint or ${ENDPOINT_ENV}")
    try:
        return HttpBackend(
            endpoint,
            args.model,
            requests_per_minute=args.requests_per_minute,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    lexicon = _load_lexicon_file(args.lexicon)
    backend = _make_backend(args, cfg)
    notes = _read_notes(args.input)
    templates = load_templates(args.prompts) if args.prompts else None
    workers = max(1, args.workers)
    auth_failed = threading.Event()

    def generate(note: ClinicalNote) -> Optional[Dialogue]:
        """The note's dialogue, or None when it failed or was never started."""
        if auth_failed.is_set():
            return None
        try:
            return run_full_pipeline(note, lexicon, backend, cfg, templates)
        except AuthError:
            # Set here, not by the reader of the results: by then an idle
            # worker may already have started the next note.
            auth_failed.set()
            raise
        except (BackendError, ValueError) as exc:
            logger.error("note %s failed: %s", note.id, exc)
            return None

    with contextlib.ExitStack() as stack:
        run = map if workers == 1 else stack.enter_context(ThreadPoolExecutor(workers)).map
        try:
            results = list(run(generate, notes))
        except AuthError as exc:
            raise CliError(f"authentication failed: {exc}", exit_code=2) from exc
    failures = results.count(None)

    records = []
    for note, dialogue in zip(notes, results):
        if dialogue is None:
            continue
        records.append(
            {
                "id": note.id,
                "mode": cfg.mode,
                "turns": [{"speaker": t.speaker.value, "text": t.text} for t in dialogue.turns],
                "coverage": dialogue.meta["coverage"],
            }
        )
    _write_records(args.out, records)
    return 1 if failures else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    lexicon = _load_lexicon_file(args.lexicon)
    hyps = _read_dialogues(args.hyp)
    refs = {d.note_id: d for d in _read_dialogues(args.ref)}
    unmatched = [h.note_id for h in hyps if h.note_id not in refs]
    if unmatched:
        raise IdMismatch(f"hypothesis ids missing from reference file: {', '.join(unmatched)}")
    pairs = [(h, refs[h.note_id]) for h in hyps]
    try:
        report = evaluate_corpus(pairs, lexicon, cfg)
    except ValueError as exc:
        raise CliError(f"evaluation failed: {exc}") from exc
    payload = json.dumps(report.as_dict(), ensure_ascii=False, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    print(render_report_table(report))
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--print-config", action="store_true", help="dump effective config and exit")
    parser.add_argument("--mode", choices=["short", "long"], default=None)
    parser.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
    parser.add_argument("--keywords-per-turn", dest="keywords_per_turn", type=int, default=None)
    parser.add_argument(
        "--similarity-threshold", dest="similarity_threshold", type=float, default=None
    )
    parser.add_argument("--concept-threshold", dest="concept_threshold", type=float, default=None)
    parser.add_argument(
        "--max-context-tokens", dest="max_context_tokens", type=int, default=None
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogforge",
        description="Synthesize doctor-patient dialogues from clinical notes and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_segment = sub.add_parser("segment", help="split notes into header-labeled sections")
    p_segment.add_argument("--input", required=True, help="notes JSONL file")
    p_segment.add_argument("--out", help="sections JSONL file (default stdout)")
    _add_config_flags(p_segment)
    p_segment.set_defaults(func=cmd_segment)

    p_extract = sub.add_parser("extract", help="extract filtered concepts per note")
    p_extract.add_argument("--input", required=True, help="notes JSONL file")
    p_extract.add_argument("--lexicon", required=True, help="tab-separated lexicon file")
    p_extract.add_argument("--out", help="concepts JSONL file (default stdout)")
    _add_config_flags(p_extract)
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
    p_generate.add_argument("--workers", type=int, default=1, help="notes run at once")
    p_generate.add_argument("--prompts", help="directory of <name>.txt prompt template overrides")
    _add_config_flags(p_generate)
    p_generate.set_defaults(func=cmd_generate)

    p_evaluate = sub.add_parser("evaluate", help="score hypothesis dialogues against references")
    p_evaluate.add_argument("--hyp", required=True, help="hypothesis dialogues JSONL file")
    p_evaluate.add_argument("--ref", required=True, help="reference dialogues JSONL file")
    p_evaluate.add_argument("--lexicon", required=True, help="tab-separated lexicon file")
    p_evaluate.add_argument("--out", help="report JSON file (default stdout)")
    _add_config_flags(p_evaluate)
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
    except AuthError as exc:
        print(f"error: authentication failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
