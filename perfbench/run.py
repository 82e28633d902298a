"""dialogforge benchmark: three closed-loop batch workloads.

Run from the repository root::

    python3 perfbench/run.py --workload gen-mock-cpu --seed 1 --seconds 35 --trace 0

Workloads (properties and reasons in ``perfbench/workloads.json``):

* ``gen-mock-cpu``: ``generate --mock --mode short --workers 1``; CPU-bound.
* ``gen-http-long``: ``generate --mode long --workers 2`` against the real
  HTTP backend and the stub server in ``stub.py``, run as its own process.
* ``eval-long-dialogues``: ``evaluate`` of one hypothesis/reference pair per
  call.

Each run builds its inputs from ``--seed``, drives ``dialogforge.cli.main``
in-process on one untimed warm-up item, then on a fixed number of batches,
and checks every output outside the timed region. The workload's ``batches``
fill ``run_seconds`` of ``BENCHMARK.json``; another ``--seconds`` scales them.
The count never depends on the program's speed, so every run of a workload
ranks its tail percentile among the same number of items. With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``, with
item times on the CPU-bound workloads scaled by a speed gauge (see ``gauge``).
With ``--trace 1`` it alternates untraced and traced batches (see
``tracing.py``) and reports the per-layer metrics plus the tracing overhead.
The last line of stdout is the result as JSON; a fuller record, with the git
SHA and Python version, and the span file go to ``.perfbench/results/``.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from stats import MIN_BEYOND, beyond, tail  # noqa: E402
from tracing import Tracer, layer_metrics, read_jsonl  # noqa: E402

PROBES_PER_BATCH = 10
# A run that takes this many times --seconds is far slower than its batch
# count was sized for, and fails rather than overrun its time limit.
DEADLINE_FACTOR = 4
PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")
_WORD_RE = re.compile(r"[a-z0-9]+")


class BenchError(Exception):
    pass


class SetupDone(Exception):
    """Raised at the first item to end a set-up probe."""


def value(spec: Dict, key: str):
    return spec[key]["value"]


# ---------------------------------------------------------------------------
# Speed gauge for the CPU-bound workloads
# ---------------------------------------------------------------------------

# The benchmark shares its machine, whose speed swings by up to a factor of
# two over seconds to minutes as other tenants come and go. On a CPU-bound
# workload a fixed pure-Python task, an LCS table and a word count like the
# program's own work, is timed just before and just after each item. Each
# item's time is multiplied by GAUGE_REFERENCE_S / (median gauge time over the
# items within GAUGE_WINDOW of it): the window is a few seconds, long enough
# to smooth the gauge's own jitter and short enough to follow the swings. This
# reports times at the speed of a machine on which the gauge takes
# GAUGE_REFERENCE_S, a round figure near its fastest time on a 2-vCPU VM that
# only sets the scale. The gauge does not depend on the program, so a change
# to the program moves the scaled times as much as the raw ones.
_GAUGE_RNG = random.Random(0)
_GAUGE_A = [_GAUGE_RNG.randrange(40) for _ in range(160)]
_GAUGE_B = [_GAUGE_RNG.randrange(40) for _ in range(160)]
_GAUGE_TEXT = " ".join(f"w{_GAUGE_RNG.randrange(300)}" for _ in range(3000))
GAUGE_REFERENCE_S = 0.005
GAUGE_WINDOW = 4


def gauge() -> float:
    """Seconds the fixed task takes now."""
    start = time.perf_counter()
    prev = [0] * (len(_GAUGE_B) + 1)
    for x in _GAUGE_A:
        cur = [0]
        for j, y in enumerate(_GAUGE_B):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    counts: Dict[str, int] = {}
    for word in _GAUGE_TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    return time.perf_counter() - start


def scale_to_reference(durations: List[float], gauges: List[float], calls: List[Tuple[float, int]]):
    """(item durations, wall time) at the reference speed. ``gauges`` holds
    each item's mean gauge time, ``calls`` each cli.main call's wall time and
    item count, in the order they ran. A call's wall time is scaled by the mean
    scale of its items, or of all items when it has none."""
    scales = [
        GAUGE_REFERENCE_S / statistics.median(gauges[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1])
        for i in range(len(gauges))
    ]
    wall, at = 0.0, 0
    for call_wall, count in calls:
        wall += call_wall * statistics.fmean(scales[at:at + count] or scales)
        at += count
    return [d * k for d, k in zip(durations, scales)], wall


# ---------------------------------------------------------------------------
# Instrumentation that stays on in untraced runs: item boundary and requests
# ---------------------------------------------------------------------------


class ItemClock:
    """Times each call the CLI makes into its per-item function; with
    ``gauged``, also runs the gauge around each one."""

    def __init__(self, cli, name: str):
        self._cli = cli
        self._name = name
        self._original = None
        self._lock = threading.Lock()
        self.gauged = False
        self.durations: List[float] = []
        self.gauges: List[float] = []
        # (wall seconds without the gauge, items) of each cli.main call
        self.calls: List[Tuple[float, int]] = []
        self.gauge_s = 0.0
        self.failures = 0
        self.first_start: Optional[float] = None
        self.probing = False

    def install(self) -> None:
        original = self._original = getattr(self._cli, self._name)

        def timed(*args, **kwargs):
            entered = time.perf_counter()
            with self._lock:
                if self.first_start is None:
                    self.first_start = entered
            if self.probing:
                raise SetupDone()
            before = gauge() if self.gauged else None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                with self._lock:
                    self.failures += 1
                raise
            elapsed = time.perf_counter() - start
            after = gauge() if self.gauged else None
            with self._lock:
                self.durations.append(elapsed)
                if self.gauged:
                    self.gauges.append((before + after) / 2)
                    self.gauge_s += before + after
            return result

        setattr(self._cli, self._name, timed)

    def remove(self) -> None:
        setattr(self._cli, self._name, self._original)


class RequestCounter:
    """Counts backend requests (retries included) and their prompt tokens."""

    def __init__(self, backend_module):
        self._module = backend_module
        self._originals = {}
        self._lock = threading.Lock()
        self.requests = 0
        self.prompt_tokens = 0

    def install(self) -> None:
        estimate = self._module.estimate_tokens
        for cls in (self._module.HttpBackend, self._module.MockBackend):
            original = self._originals[cls] = cls.complete

            def counted(backend, request, _original=original):
                tokens = sum(estimate(m.content) for m in request.messages)
                with self._lock:
                    self.requests += 1
                    self.prompt_tokens += tokens
                return _original(backend, request)

            cls.complete = counted

    def remove(self) -> None:
        for cls, original in self._originals.items():
            cls.complete = original


# ---------------------------------------------------------------------------
# Stub server process
# ---------------------------------------------------------------------------


class Stub:
    def __init__(self, spec: Dict, root: Path):
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "stub.py"),
                "--base-ms", str(value(spec, "stub_base_ms")),
                "--per-token-us", str(value(spec, "stub_per_token_us")),
                "--limit-every", str(value(spec, "stub_limit_every")),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise BenchError("stub server did not start")
        self.url = f"http://127.0.0.1:{line}"

    def stats(self) -> Dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=10) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _tokens(text: str) -> List[str]:
    return _WORD_RE.findall(text.lower())


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class Bench:
    """Shared runner: warm-up, set-up probes, timed batches, checks."""

    item_function = ""
    # Workload key that lists the size classes; a batch holds one item of each.
    sizes_key = ""

    def __init__(self, program, spec: Dict, seed: int, work: Path, root: Path):
        self.program = program
        self.spec = spec
        self.seed = seed
        self.work = work
        self.root = root
        self.rng = random.Random(seed)
        self.workers = spec["workers"]
        self.clock = ItemClock(program.cli, self.item_function)
        self.counter = RequestCounter(program.backend)
        self.problems: List[str] = []
        # Checklist keywords credited through a tagged CUI, not said verbatim.
        self.approximate_credits: List[str] = []
        self.oracles = self.oracle_entries = None
        self.batch_index = 0
        self.stub: Optional[Stub] = None

    # -- hooks ---------------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up_batch(self):
        raise NotImplementedError

    def next_batch(self):
        raise NotImplementedError

    def calls(self, batch) -> List[List[str]]:
        """cli.main argument lists for one batch, one item or more each."""
        raise NotImplementedError

    def check(self, batch, codes: List[int]) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def _write_lexicon(self) -> None:
        spec = self.spec
        self.rows = gen.make_lexicon(self.rng, value(spec, "lexicon_entries"), value(spec, "synonym_share"))
        self.lexicon = self.work / "lexicon.tsv"
        self.lexicon.write_text(gen.lexicon_text(self.rows), encoding="utf-8")

    # -- driving -------------------------------------------------------------
    def _main(self, argv: List[str]):
        """One cli.main call: (exit code, wall seconds without the gauge,
        set-up seconds). The exit code is None for a set-up probe, which stops
        at its first item; set-up is None when no item started."""
        random.seed(self.seed)
        clock = self.clock
        clock.first_start = None
        clock.gauge_s = 0.0
        items_before = len(clock.durations)
        code = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = self.program.cli.main(argv)
            except SetupDone:
                pass
        wall = time.perf_counter() - start - clock.gauge_s
        clock.calls.append((wall, len(clock.durations) - items_before))
        setup = clock.first_start - start if clock.first_start is not None else None
        return code, wall, setup

    def run_batch(self, batch):
        """(wall seconds, set-up samples) of the cli.main calls of one batch."""
        codes, setups = [], []
        wall = 0.0
        for argv in self.calls(batch):
            code, seconds, setup = self._main(argv)
            codes.append(code)
            wall += seconds
            if setup is not None:
                setups.append(setup)
        self.check(batch, codes)
        return wall, setups

    def probe_setup(self, batch) -> List[float]:
        """Set-up times of cli.main calls stopped at their first item."""
        argv = self.calls(batch)[0]
        self.clock.probing = True
        try:
            samples = [self._main(argv)[2] for _ in range(PROBES_PER_BATCH)]
        finally:
            self.clock.probing = False
        if None in samples:
            raise BenchError("set-up probe never reached an item")
        return samples

    def phase(self, batches: int, deadline: float, tracer: Optional[Tracer] = None) -> Dict[str, Dict]:
        """``batches`` timed batches of each mode.

        With a tracer, batches alternate between untraced and traced, so that
        drift in the speed of a shared machine falls on both alike. Set-up is
        probed after every untraced batch, so that its median spans the whole
        phase rather than one moment.
        """
        modes = ("untraced", "traced") if tracer else ("untraced",)
        out = {
            mode: {"batches": 0, "items": 0, "failed": 0, "wall": 0.0, "durations": [], "gauges": [],
                   "calls": [], "setups": [], "requests": 0, "prompt_tokens": 0}
            for mode in modes
        }
        stub_delta = None
        clock = self.clock
        started = time.perf_counter()
        for index in range(batches * len(modes)):
            mode = modes[index % len(modes)]
            acc = out[mode]
            batch = self.next_batch()
            clock.durations, clock.gauges, clock.calls, clock.failures = [], [], [], 0
            requests0, tokens0 = self.counter.requests, self.counter.prompt_tokens
            if mode == "traced":
                stats0 = self.stub.stats() if self.stub else None
                self._swap(tracer.install)
            try:
                wall, setups = self.run_batch(batch)
            finally:
                if mode == "traced":
                    self._swap(tracer.remove)
            if mode == "traced" and self.stub:
                stats1 = self.stub.stats()
                delta = {k: stats1[k] - stats0[k] for k in stats1}
                stub_delta = {k: delta[k] + (stub_delta or {}).get(k, 0) for k in delta}
            acc["batches"] += 1
            acc["items"] += len(clock.durations) + clock.failures
            acc["failed"] += clock.failures
            acc["wall"] += wall
            acc["durations"] += clock.durations
            acc["gauges"] += clock.gauges
            acc["calls"] += clock.calls
            acc["requests"] += self.counter.requests - requests0
            acc["prompt_tokens"] += self.counter.prompt_tokens - tokens0
            if mode == "untraced":
                acc["setups"] += setups + self.probe_setup(batch)
            if time.perf_counter() - started > deadline:
                raise BenchError(f"{index + 1} batches took over {deadline:.0f} s")
        if tracer:
            out["traced"]["stub"] = stub_delta
        if clock.gauged:
            acc = out["untraced"]
            acc["raw_durations"], acc["raw_wall"] = acc["durations"], acc["wall"]
            acc["durations"], acc["wall"] = scale_to_reference(acc["durations"], acc["gauges"], acc["calls"])
        return out

    def _swap(self, change: Callable[[], None]) -> None:
        """Apply ``change`` (installing or removing the tracer) beneath the
        item clock and request counter, which must stay outermost."""
        self.counter.remove()
        self.clock.remove()
        change()
        self.clock.install()
        self.counter.install()

    def run(self, batches: int, deadline: float, traced: bool, spans_path: Path) -> Dict[str, Dict]:
        self.prepare()
        self.clock.install()
        self.counter.install()
        tracer = Tracer(self.program.package) if traced else None
        # Traced runs compare raw traced and untraced times.
        self.clock.gauged = value(self.spec, "gauge") and not traced
        try:
            self.run_batch(self.warm_up_batch())
            out = self.phase(batches, deadline, tracer)
            self.final_checks()
        finally:
            self.counter.remove()
            self.clock.remove()
        if tracer:
            tracer.write_jsonl(spans_path)
            out["traced"]["layers"] = layer_metrics(read_jsonl(spans_path), self.workers, out["traced"]["stub"])
        return out

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()


class GenerateBench(Bench):
    item_function = "run_full_pipeline"
    sizes_key = "note_shapes"

    def prepare(self) -> None:
        spec = self.spec
        self._write_lexicon()
        if spec["backend"] == "http":
            self.config = self.work / "bench.cfg"
            self.config.write_text(f"retry_base_delay={value(spec, 'retry_base_delay')}\n", encoding="utf-8")
            self.stub = Stub(spec, self.root)

    def _batch(self, shapes, tag: str):
        notes = gen.make_notes(self.rng, self.rows, shapes, f"{tag}-n")
        path = self.work / f"{tag}.jsonl"
        _write_jsonl(path, ({"id": n["id"], "text": n["text"]} for n in notes))
        return {"notes": notes, "input": path, "out": self.work / f"{tag}.out.jsonl"}

    def warm_up_batch(self):
        shapes = value(self.spec, "note_shapes")
        return self._batch([shapes[len(shapes) // 2]], "warmup")

    def next_batch(self):
        self.batch_index += 1
        return self._batch(value(self.spec, "note_shapes"), f"b{self.batch_index}")

    def calls(self, batch) -> List[List[str]]:
        argv = [
            "generate", "--input", str(batch["input"]), "--lexicon", str(self.lexicon),
            "--out", str(batch["out"]), "--mode", self.spec["mode"],
            "--workers", str(self.workers),
        ]
        if self.spec["backend"] == "mock":
            argv.append("--mock")
        else:
            argv += ["--endpoint", self.stub.url, "--config", str(self.config)]
        return [argv]

    def check(self, batch, codes: List[int]) -> None:
        notes = batch["notes"]
        if codes != [0]:
            self.problems.append(f"{batch['input'].name}: generate exited with {codes}")
        if not batch["out"].is_file():
            return
        records = [json.loads(line) for line in batch["out"].read_text(encoding="utf-8").splitlines() if line]
        if [r["id"] for r in records] != [n["id"] for n in notes]:
            self.problems.append(f"{batch['input'].name}: not one record per note, in order")
            return
        for record, note in zip(records, notes):
            turns = record["turns"]
            if not turns:
                self.problems.append(f"{note['id']}: no turns")
                continue
            for i, turn in enumerate(turns):
                if turn["speaker"] != ("doctor", "patient")[i % 2] or not turn["text"].strip():
                    self.problems.append(f"{note['id']}: turn {i} breaks alternation or is empty")
                    break
            coverage = record["coverage"]
            if coverage["total"] < 1 or coverage["covered"] != coverage["total"]:
                self.problems.append(f"{note['id']}: coverage {coverage}")
            texts = [t["text"] for t in turns]
            text = " " + " ".join(_tokens(" ".join(texts))) + " "
            unsaid = [s for s in note["expected"] if f" {' '.join(_tokens(s))} " not in text]
            missing = [s for s in unsaid if not self._tagged(s, texts)]
            self.approximate_credits += [f"{note['id']}: {s}" for s in unsaid if s not in missing]
            if missing:
                self.problems.append(f"{note['id']}: checklist concepts not mentioned in the text: {missing}")

    def _tagged(self, surface: str, texts: List[str]) -> bool:
        """Whether the brute-force tagger finds the CUI of ``surface`` in one
        of ``texts``. The program counts a keyword as covered when its surface
        is said verbatim or its CUI is tagged; the tagger matches token sets,
        so "b, a" tags the entry "a b". Each turn is tagged on its own, which
        never credits more than the program does."""
        if self.oracle_entries is None:
            self.oracles = load_oracles(self.root)
            self.oracle_entries = oracle_entries(self.program, self.rows)
        cui = next(c for s, c, _ in self.rows if s == surface)
        threshold = self.program.model.GenerationConfig().concept_threshold
        return any(
            entry.cui == cui
            for text in texts
            for _, _, entry in self.oracles.oracle_concept_matches(text, self.oracle_entries, threshold)
        )

    def final_checks(self) -> None:
        if self.stub is not None:
            seen = self.stub.stats()["requests"]
            if seen != self.counter.requests:
                self.problems.append(f"stub saw {seen} requests, client sent {self.counter.requests}")


class EvaluateBench(Bench):
    item_function = "evaluate_corpus"
    sizes_key = "turns"

    def prepare(self) -> None:
        spec = self.spec
        self._write_lexicon()
        self.vocab = gen.make_vocab(self.rng, value(spec, "vocabulary"), self.rows)

    def _pair(self, n_turns: int, tokens, tag: str, concept_rate: float):
        lengths = gen.turn_lengths(self.rng, n_turns, tokens)
        hyp, ref = gen.make_pair(self.rng, self.vocab, self.rows, lengths, concept_rate)
        files = {}
        for side, texts in (("hyp", hyp), ("ref", ref)):
            files[side] = self.work / f"{tag}.{side}.jsonl"
            _write_jsonl(files[side], [gen.dialogue_record(tag, texts)])
        return {"tag": tag, "hyp": hyp, "ref": ref, "files": files, "out": self.work / f"{tag}.report.json"}

    def _batch(self, turn_counts, tag: str):
        spec = self.spec
        return [
            self._pair(n, value(spec, "tokens_per_turn"), f"{tag}-p{i}", value(spec, "concept_rate"))
            for i, n in enumerate(turn_counts)
        ]

    def warm_up_batch(self):
        turns = value(self.spec, "turns")
        return self._batch([turns[len(turns) // 2]], "warmup")

    def next_batch(self):
        self.batch_index += 1
        return self._batch(value(self.spec, "turns"), f"b{self.batch_index}")

    @staticmethod
    def _argv(pair, lexicon: Path) -> List[str]:
        return [
            "evaluate", "--hyp", str(pair["files"]["hyp"]), "--ref", str(pair["files"]["ref"]),
            "--lexicon", str(lexicon), "--out", str(pair["out"]),
        ]

    def calls(self, batch) -> List[List[str]]:
        return [self._argv(pair, self.lexicon) for pair in batch]

    def check(self, batch, codes: List[int]) -> None:
        for pair, code in zip(batch, codes):
            if code != 0:
                self.problems.append(f"{pair['tag']}: evaluate exited with {code}")
                continue
            report = json.loads(pair["out"].read_text(encoding="utf-8"))
            bad = [k for k, v in report.items() if k != "len" and not 0.0 <= v <= 1.0]
            if bad or report["len"] != len(pair["hyp"]) or not 0 < report["rlsum"] < 1:
                self.problems.append(f"{pair['tag']}: implausible report {report}")

    def final_checks(self) -> None:
        """One small pair through the CLI, against the brute-force oracles."""
        spec = self.spec
        pair = self._pair(value(spec, "oracle_turns"), value(spec, "oracle_tokens_per_turn"), "oracle", 1.0)
        code, _, _ = self._main(self._argv(pair, self.lexicon))
        if code != 0:
            self.problems.append(f"oracle pair: evaluate exited with {code}")
            return
        report = json.loads(pair["out"].read_text(encoding="utf-8"))
        expected = oracle_report(self.root, self.program, self.rows, pair["hyp"], pair["ref"])
        off = {k: (report[k], v) for k, v in expected.items() if abs(report[k] - v) > 1e-6}
        if off:
            self.problems.append(f"oracle pair disagrees with the brute force: {off}")


def load_oracles(root: Path):
    """The brute-force reference implementations in ``tests/oracles.py``."""
    path = root / "tests" / "oracles.py"
    if not path.is_file():
        raise BenchError(f"missing {path.relative_to(root)}")
    loader = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(oracles)
    return oracles


def oracle_entries(program, rows):
    model = program.model
    return [model.ConceptEntry(s, c, model.SemanticGroup.parse(g)) for s, c, g in rows]


def oracle_report(root: Path, program, rows, hyp: List[str], ref: List[str]) -> Dict[str, float]:
    oracles = load_oracles(root)
    entries = oracle_entries(program, rows)

    def lines(texts):
        return [f"{('Doctor', 'Patient')[i % 2]}: {t}" for i, t in enumerate(texts)]

    hyp_lines, ref_lines = lines(hyp), lines(ref)
    hyp_text, ref_text = "\n".join(hyp_lines), "\n".join(ref_lines)
    h, r = oracles.otokenize(hyp_text), oracles.otokenize(ref_text)
    recall, precision, _ = oracles.oracle_concept_scores(hyp_text, ref_text, entries, 0.7)
    return {
        "r1": oracles.oracle_rouge_n(h, r, 1),
        "r2": oracles.oracle_rouge_n(h, r, 2),
        "rl": oracles.oracle_rouge_l(h, r),
        "rlsum": oracles.oracle_rouge_lsum(hyp_lines, ref_lines),
        "bleu": oracles.oracle_bleu(h, [r]),
        "sbleu": oracles.oracle_self_bleu([hyp]),
        "concept_recall": recall,
        "concept_precision": precision,
        "len": len(hyp),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def items_per_s(phase: Dict) -> float:
    return (phase["items"] - phase["failed"]) / phase["wall"]


def end_to_end(phase: Dict, tail_percentile: float) -> Dict[str, float]:
    return {
        "item_latency_p50_s": statistics.median(phase["durations"]),
        "item_latency_tail_s": tail(phase["durations"], tail_percentile),
        "items_per_s": items_per_s(phase),
        "setup_s": statistics.median(phase["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (phase["items"] - phase["failed"]) / phase["items"],
    }


def cost_counts(phase: Dict) -> Dict[str, float]:
    items = phase["items"]
    return {
        "calls_per_item": phase["requests"] / items,
        "prompt_tokens_per_item": phase["prompt_tokens"] / items,
        "error_rate": phase["failed"] / items,
    }


def git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Program:
    """The dialogforge modules, imported from ``src/`` of the checkout."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "dialogforge" / "cli.py").is_file():
            raise BenchError("no src/dialogforge/cli.py here; run from the repository root")
        sys.path.insert(0, str(src))
        self.package = importlib.import_module("dialogforge")
        for name in ("model", "backend", "cli"):
            setattr(self, name, importlib.import_module(f"dialogforge.{name}"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="dialogforge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        bench_spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        spec = workloads[args.workload]
        bench_cls = GenerateBench if spec["command"] == "generate" else EvaluateBench
        batches = max(1, round(value(spec, "batches") * args.seconds / bench_spec["run_seconds"]))
        items = batches * len(value(spec, bench_cls.sizes_key))
        tail_pct = value(spec, "tail_percentile")
        if args.trace:
            # Untraced and traced batches share the run's time.
            batches = (batches + 1) // 2
        elif beyond(items, tail_pct) < MIN_BEYOND:
            raise BenchError(f"{items} items leave fewer than {MIN_BEYOND} beyond p{tail_pct}; raise --seconds")
        program = Program(root)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # The stub is the only server; never route its traffic through a proxy.
    for var in PROXY_VARS:
        os.environ.pop(var, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    results = root / ".perfbench" / "results"
    work = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    spans_path = results / f"{args.workload}-seed{args.seed}.spans.jsonl"
    bench = bench_cls(program, spec, args.seed, work, root)
    try:
        phases = bench.run(batches, DEADLINE_FACTOR * args.seconds, bool(args.trace), spans_path)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    untraced = phases["untraced"]
    e2e = None
    if args.trace:
        traced = phases["traced"]
        computed = dict(traced["layers"])
        computed.update(cost_counts(untraced))
        computed["trace.items_per_s_untraced"] = items_per_s(untraced)
        computed["trace.items_per_s_traced"] = items_per_s(traced)
        computed["trace.overhead"] = items_per_s(untraced) / items_per_s(traced) - 1.0
        wanted = bench_spec["per_layer"]
        attempted = untraced["items"] + traced["items"]
        failed = untraced["failed"] + traced["failed"]
    else:
        e2e = computed = end_to_end(untraced, tail_pct)
        wanted = bench_spec["end_to_end"]
        attempted, failed = untraced["items"], untraced["failed"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "spec": spec,
        "items": untraced["items"],
        "batches": untraced["batches"],
        "tail_percentile": tail_pct,
        "setup_samples": len(untraced["setups"]),
        "wall_s": untraced["wall"],
        "item_durations": untraced["durations"],
        "gauged": bench.clock.gauged,
        "item_durations_unscaled": untraced.get("raw_durations"),
        "wall_s_unscaled": untraced.get("raw_wall"),
        "gauge_s": untraced["gauges"],
        "end_to_end": e2e,
        "counts": cost_counts(untraced),
        "per_layer": computed if args.trace else None,
        "problems": bench.problems,
        "approximate_credits": bench.approximate_credits,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "items", "tail_percentile", "counts", "git_sha", "python")}))
    print(json.dumps({
        "correct": not bench.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
