"""Benchmark of the tla command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Each CLI stage runs as its own child process, one at a time, the way the
README chain runs from a shell (``python -c "from tla.cli import main;
main()" ...`` with ``PYTHONPATH=src``).  CPU time and peak RSS of each stage
come from ``os.wait4`` on that child.  No pools and no concurrent children
are started, so on a small machine the numbers measure the program and not
the scheduler.  Stage times are the child's CPU time scaled to a reference
CPU speed measured while it runs (see ``SpeedProbe``); raw wall and CPU times
are printed beside them.

A run generates seeded inputs, repeats the workload's stage list ("a pass")
while another pass fits in ``--seconds``, checks every output, and prints one
JSON result as its last line of output.  With ``--trace 0`` the metrics are
the end-to-end ones (medians over passes); with ``--trace 1`` the run makes
one child-process pass for CPU times, then untraced and traced in-process
passes for the per-layer numbers and the tracing overhead.  Everything it
writes goes under ``.bench_build/perfbench`` in the working directory.

Workloads (all closed-loop batch jobs with one client):

* ``chain``  -- clean -> identify -> label -> analyze on short mixed-language
  tweets, a share of them with a wrong ``lang`` hint; language identification
  does most of the work.
* ``hinted`` -- clean --skip-bad-lines -> label -> analyze on longer, noisy
  tweets whose language comes from the query; no identification in the chain.
* ``train``  -- train-langid (3,200 texts, 50 trees), then the rest of the
  README chain on a held-out set with the model it just wrote.

Every workload reports every end-to-end metric.  Stages that a workload's
chain does not run are measured on small companion stages that are not part
of its chain: ``chain`` trains a small model for ``train_s``; ``hinted``
trains it and identifies a sample of its cleaned rows with it.  Companion
stages count neither towards ``rows_per_s`` nor ``peak_rss_mib``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("chain", "hinted", "train")
STAGES = ("clean", "identify", "label", "analyze", "train-langid")

LAUNCH = "from tla.cli import main; main()"
PROBE = """\
import sys
import tla.cli as cli
cli.StopwordTable.load_bundled()
for lang in cli.LanguageCode:
    cli.load_bundled_lexicon(lang)
if len(sys.argv) > 1:
    with open(sys.argv[1], "rb") as source:
        cli.ForestPredictor.load(source)
"""

CLEAN_HEADER = ["id", "lang", "text", "tokens"]
LABEL_HEADER = ["id", "lang", "text", "tokens", "label"]
REPORT_HEADER = "Language,Total tweets,Positive Tweets Percentage,Negative Tweets Percentage"
#: Report order and display names of the sixteen languages.
LANGUAGE_NAMES = {
    "en": "English", "es": "Spanish", "fa": "Persian", "fr": "French",
    "hi": "Hindi", "id": "Indonesian", "ja": "Japanese", "nl": "Dutch",
    "pt": "Portuguese", "ro": "Romanian", "ru": "Russian", "sv": "Swedish",
    "th": "Thai", "tr": "Turkish", "ur": "Urdu", "zh": "Chinese",
}

#: Figures from ROADMAP's Baseline, shown beside measurements, never a gate.
ROADMAP_BASELINE = {
    "train_s": {"low": 5.8, "high": 10.0},
    "identify_rows_per_s": {"low": 4000, "high": 5000},
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and model settings of the workloads."""

    chain_rows: int
    hinted_rows: int
    heldout_rows: int
    sample_rows: int
    model_args: tuple  # the identifier chain and train use
    companion_args: tuple  # the small companion model
    setup_probes: int
    wrong_hint_share: float = 0.2
    bad_line_share: float = 0.02


FULL = Sizes(
    chain_rows=16_000,
    hinted_rows=24_000,
    heldout_rows=6_000,
    sample_rows=3_200,
    model_args=("--synthetic", "200", "--seed", "42", "--trees", "50"),
    companion_args=("--synthetic", "25", "--seed", "42", "--trees", "10"),
    setup_probes=9,
)
#: Used by the self-test: every code path, seconds instead of minutes.
TINY = Sizes(
    chain_rows=160,
    hinted_rows=320,
    heldout_rows=160,
    sample_rows=64,
    model_args=("--synthetic", "10", "--seed", "42", "--trees", "5"),
    companion_args=("--synthetic", "5", "--seed", "42", "--trees", "3"),
    setup_probes=2,
)


# -- child processes -------------------------------------------------------

#: Within a pass, a stage runs again until its runs take this long together.
MIN_STAGE_WALL_S = 0.8

#: CPU time of one probe unit on an uncontended vCPU of the machine this
#: benchmark was tuned on (Intel Xeon, 2 vCPUs, Python 3.11): the speed that
#: scaled times are reported at.
PROBE_UNIT_S = 0.00045


def _probe_unit() -> int:
    counts: dict = {}
    total = 0
    for i in range(2000):
        key = str(i % 500)
        counts[key] = counts.get(key, 0) + 1
        total += len(key) * i
    return total


class SpeedProbe:
    """Samples the speed of the benchmark's CPU while a child runs on it.

    On the machine this benchmark was tuned on, each vCPU switches on its own,
    on a scale of seconds, between two speeds about 2x apart (the physical
    cores are shared), which moved raw stage times by 20-35% between runs.
    A thread on the same CPU as the child times a fixed unit of Python work in
    thread CPU time every few milliseconds (about 10% of the CPU); the mean
    unit time over the child's life says how fast the CPU ran for it.  Each
    child is also started on whichever CPU is fastest at that moment (see
    ``move_to_fastest_cpu``), so the scaling mostly has little to correct.
    The child is pinned to that one CPU: a stage that used several cores
    would not get them here.
    """

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            _probe_unit()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(0.004):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, seconds: float) -> float:
        """``seconds`` of CPU time as they would read at ``PROBE_UNIT_S`` speed."""
        return seconds * PROBE_UNIT_S * len(self.samples) / sum(self.samples)


#: The CPUs this process may run on when it starts.
ALLOWED_CPUS = tuple(sorted(os.sched_getaffinity(0)))


def move_to_fastest_cpu() -> int:
    """Pin this thread, and the threads and children it starts next, to the
    allowed CPU that runs a few probe units fastest right now."""
    timings = {}
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        units = []
        for _ in range(5):
            start = time.thread_time()
            _probe_unit()
            units.append(time.thread_time() - start)
        timings[cpu] = statistics.median(units)
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


@dataclass
class Measured:
    code: int
    wall: float
    cpu: float  # user + system seconds
    maxrss_kib: int
    stderr: str
    scaled: float = 0.0  # cpu, scaled to the reference CPU speed


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TLA_DATA_DIR")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list, work: Path) -> Measured:
    """Run ``python <args>`` to completion; time it and read its rusage."""
    err_path = work / "stderr.txt"
    move_to_fastest_cpu()
    with open(err_path, "wb") as err, SpeedProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Measured(proc.returncode, wall, cpu, usage.ru_maxrss,
                    err_path.read_text(encoding="utf-8", errors="replace"), probe.scale(cpu))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- output checks ---------------------------------------------------------


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], [r for r in rows[1:] if r]


def check_rows(path: Path, header: list, ids: list, langs: Optional[list] = None) -> list:
    """The CSV has ``header`` and exactly the expected ids (and langs) in order."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    got_header, rows = read_csv(path)
    if got_header != header:
        return [f"{path.name}: header {got_header!r}"]
    if len(rows) != len(ids):
        return [f"{path.name}: {len(rows)} rows, expected {len(ids)}"]
    if [r[0] for r in rows] != ids:
        return [f"{path.name}: ids differ from the generated records"]
    if langs is not None and [r[1] for r in rows] != langs:
        return [f"{path.name}: lang column differs from the input"]
    bad = [r for r in rows if len(r) != len(header) or r[1] not in LANGUAGE_NAMES]
    return [f"{path.name}: {len(bad)} malformed rows"] if bad else []


def check_labeled(out_dir: Path, expected_lang: dict) -> list:
    """Per-language files hold every row once, under its language, labeled."""
    seen: dict = {}
    problems = []
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = read_csv(path)
        if header != LABEL_HEADER:
            problems.append(f"{path.name}: header {header!r}")
            continue
        for row in rows:
            if len(row) != 5 or row[1] != path.stem or row[4] not in ("Positive", "Negative"):
                problems.append(f"{path.name}: malformed row {row[:1]!r}")
                break
            seen[row[0]] = row[1]
    if seen != expected_lang:
        problems.append(f"{out_dir.name}: {len(seen)} labeled rows, expected "
                        f"{len(expected_lang)} with the identified languages")
    return problems


def truncated_pct(part: int, total: int) -> str:
    whole, hundredths = divmod(10000 * part // total, 100)
    return str(whole) if hundredths == 0 else f"{whole}.{hundredths:02d}".rstrip("0")


def recount(out_dir: Path) -> str:
    """The analyze CSV report, recomputed from the label files."""
    counts: dict = {}
    for path in sorted(out_dir.glob("*.csv")):
        for row in read_csv(path)[1]:
            pos, neg = counts.get(row[1], (0, 0))
            counts[row[1]] = (pos + 1, neg) if row[4] == "Positive" else (pos, neg + 1)
    lines = [REPORT_HEADER]
    for code, name in LANGUAGE_NAMES.items():
        if code in counts:
            pos, neg = counts[code]
            total = pos + neg
            lines.append(f"{name},{total},{truncated_pct(pos, total)},{truncated_pct(neg, total)}")
    return "\n".join(lines) + "\n"


def check_report(report: Path, out_dir: Path) -> list:
    if not report.is_file():
        return [f"{report.name}: missing"]
    if report.read_text(encoding="utf-8") != recount(out_dir):
        return [f"{report.name}: differs from the recount of {out_dir.name}/"]
    return []


def check_model(path: Path) -> list:
    if not path.is_file() or path.read_bytes()[:4] != b"TLAM":
        return [f"{path.name}: missing or not a model file"]
    return []


def lang_column(path: Path) -> dict:
    return {row[0]: row[1] for row in read_csv(path)[1]}


# -- workloads -------------------------------------------------------------


@dataclass
class Stage:
    """One CLI invocation of a pass and how to judge its output."""

    name: str
    argv: object  # argument list, or a callable giving it when the stage starts
    rows: int  # rows the stage processes, for its rows/s (0: no rows/s metric)
    in_chain: bool  # counts towards rows_per_s and peak_rss_mib
    outputs: list  # files and directories it writes
    check: Callable[[], list]
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    name: str
    stages: list
    data: object  # gen.Generated: the chain's input file and its ground truth
    setup_model: Optional[Path]  # the model the chain's identify stage loads
    accuracy: Callable[[], float]
    relabeled: Callable[[], int]


class FixtureError(Exception):
    pass


def build_model(args: tuple, work: Path) -> Path:
    """The identifier model for chain, built once per source tree and cached."""
    key = hashlib.sha256((source_digest() + " ".join(args)).encode()).hexdigest()[:16]
    path = BUILD / f"model-{key}.tlam"
    if not path.is_file():
        tmp = BUILD / f"{path.name}.tmp"
        done = spawn(["-c", LAUNCH, "train-langid", *args, "--output", str(tmp)], work)
        if done.code != 0 or check_model(tmp):
            raise FixtureError(f"building the model fixture failed: {done.stderr.strip()}")
        tmp.replace(path)
    return path


def accuracy_of(path: Path, truth: dict) -> Callable[[], float]:
    def accuracy() -> float:
        predicted = lang_column(path)
        return sum(1 for k, v in truth.items() if predicted.get(k) == v) / len(truth)
    return accuracy


def relabeled_of(before: Path, after: Path) -> Callable[[], int]:
    def relabeled() -> int:
        old = lang_column(before)
        return sum(1 for k, v in lang_column(after).items() if old.get(k) != v)
    return relabeled


def make_workload(name: str, seed: int, sizes: Sizes, work: Path) -> Workload:
    import gen

    def cli(*args) -> list:
        return ["-c", LAUNCH, *map(str, args)]

    def label_analyze(source: Path, expected_lang: Callable[[], dict]):
        labeled, report = work / "labeled", work / "report.csv"
        return [
            Stage("label", cli("label", "--input", source, "--out-dir", labeled), valid,
                  True, [labeled], lambda: check_labeled(labeled, expected_lang())),
            Stage("analyze", lambda: cli("analyze", "--format", "csv", "--output", report,
                                         "--input", *sorted(labeled.glob("*.csv"))),
                  valid, True, [report], lambda: check_report(report, labeled)),
        ]

    clean, ident = work / "clean.csv", work / "identified.csv"
    small = work / "small.tlam"
    train_small = Stage("train-langid", cli("train-langid", *sizes.companion_args,
                                            "--output", small),
                        0, False, [small],
                        lambda: check_model(small))

    if name in ("chain", "train"):
        rows = sizes.chain_rows if name == "chain" else sizes.heldout_rows
        data = gen.short_tweets(work / f"{name}.jsonl", rows, seed, sizes.wrong_hint_share)
        ids, valid = list(data.truth), data.valid
        if name == "chain":
            model = build_model(sizes.model_args, work)
            first = []
        else:
            model = work / "model.tlam"
            first = [Stage("train-langid", cli("train-langid", *sizes.model_args,
                                               "--output", model),
                           0, True, [model],
                           lambda: check_model(model))]
        stages = first + [
            Stage("clean", cli("clean", "--input", data.path, "--output", clean), data.lines,
                  True, [clean],
                  lambda: check_rows(clean, CLEAN_HEADER, ids, list(data.hints.values()))),
            Stage("identify", cli("identify", "--model", model, "--input", clean,
                                  "--output", ident), valid, True, [ident],
                  lambda: check_rows(ident, CLEAN_HEADER, ids)),
            *label_analyze(ident, lambda: lang_column(ident)),
        ]
        if name == "chain":
            stages.append(train_small)
        return Workload(name, stages, data, model,
                        accuracy_of(ident, data.truth), relabeled_of(clean, ident))

    data = gen.long_tweets(work / "hinted.jsonl", sizes.hinted_rows, seed, sizes.bad_line_share)
    ids, valid = list(data.truth), data.valid
    sample = work / "sample.csv"
    sample_truth = dict(list(data.truth.items())[: sizes.sample_rows])

    def write_sample():
        with open(clean, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[: sizes.sample_rows + 1]
        with open(sample, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)

    stages = [
        Stage("clean", cli("clean", "--skip-bad-lines", "--input", data.path, "--output", clean),
              data.lines, True, [clean],
              lambda: check_rows(clean, CLEAN_HEADER, ids, list(data.hints.values()))),
        *label_analyze(clean, lambda: data.hints),
        train_small,
        Stage("identify", cli("identify", "--model", small, "--input", sample,
                              "--output", ident), len(sample_truth), False, [sample, ident],
              lambda: check_rows(ident, CLEAN_HEADER, list(sample_truth)),
              prepare=write_sample),
    ]
    return Workload(name, stages, data, None,
                    accuracy_of(ident, sample_truth), relabeled_of(sample, ident))


# -- running ---------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def digests(stage: Stage) -> dict:
    files = []
    for out in stage.outputs:
        files.extend(sorted(out.glob("*")) if out.is_dir() else [out])
    return {f.name: sha256_file(f) for f in files if f.is_file()}


def run_stage(stage: Stage, work: Path, tally: Tally, first_digests: dict,
              runner: Callable[[Stage], Measured], after_stage=None) -> Optional[Measured]:
    for out in stage.outputs:
        remove(out)
    if stage.prepare is not None:
        stage.prepare()
    done = runner(stage)
    if after_stage is not None:
        after_stage(stage, work)
    problems = [] if done.code == 0 else [f"exit code {done.code}: {done.stderr.strip()[-300:]}"]
    if not problems:
        problems = stage.check()
    if not problems:
        outputs = digests(stage)
        expected = first_digests.setdefault(stage.name, outputs)
        if outputs != expected:
            problems = ["output bytes differ from the first run of this stage"]
    return done if tally.record(stage.name, problems) else None


def argv_of(stage: Stage) -> list:
    return stage.argv() if callable(stage.argv) else stage.argv


def child_runner(work: Path) -> Callable[[Stage], Measured]:
    return lambda stage: spawn(argv_of(stage), work)


def run_passes(workload: Workload, work: Path, seconds: float, tally: Tally,
               first_digests: dict, after_stage=None) -> list:
    """Repeat the stage list while another pass still fits in ``seconds``.

    Within a pass a stage runs again until its runs add up to
    ``MIN_STAGE_WALL_S``, so short stages give more than one sample.
    """
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = {}
        for stage in workload.stages:
            runs = []
            while sum(r.wall for r in runs) < MIN_STAGE_WALL_S:
                done = run_stage(stage, work, tally, first_digests, child_runner(work),
                                 after_stage)
                if done is None:
                    return passes
                runs.append(done)
            results[stage.name] = runs
        passes.append(results)
        took = time.perf_counter() - pass_start
        if time.perf_counter() - start + took > seconds:
            return passes


def measure_setup(workload: Workload, probes: int, work: Path, tally: Tally) -> list:
    args = ["-c", PROBE] + ([str(workload.setup_model)] if workload.setup_model else [])
    times = []
    for _ in range(probes):
        done = spawn(args, work)
        if tally.record("setup", [] if done.code == 0 else [done.stderr.strip()[-300:]]):
            times.append(done.scaled)
    return times


def end_to_end(workload: Workload, passes: list, setup: list) -> dict:
    """Medians of scaled stage times (see SpeedProbe) over all runs of a stage;
    the chain's time is the sum of its stages' medians within each pass."""
    median = statistics.median
    chain = [s for s in workload.stages if s.in_chain]

    def scaled(name: str, pass_: Optional[dict] = None) -> float:
        runs = pass_[name] if pass_ is not None else [r for p in passes for r in p[name]]
        return median(r.scaled for r in runs)

    metrics = {"rows_per_s": (median(workload.data.lines / sum(scaled(s.name, p) for s in chain)
                                     for p in passes), "rows/s")}
    for stage in workload.stages:
        if stage.name != "train-langid":
            metrics[f"{stage.name}_rows_per_s"] = (stage.rows / scaled(stage.name), "rows/s")
    metrics["train_s"] = (scaled("train-langid"), "s")
    metrics["peak_rss_mib"] = (
        median(max(r.maxrss_kib for s in chain for r in p[s.name]) for p in passes) / 1024,
        "MiB")
    metrics["setup_s"] = (median(setup), "s")
    metrics["identify_accuracy"] = (workload.accuracy(), "ratio")
    return metrics


def per_pass(passes: list) -> dict:
    """Wall, CPU and scaled seconds and peak RSS of every run, per stage and pass."""
    return {name: {field: [[getattr(r, field) for r in p[name]] for p in passes]
                   for field in ("wall", "cpu", "scaled", "maxrss_kib")}
            for name in (passes[0] if passes else {})}


def machine_record(workload: Workload, digest: str) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest,
        "inputs": [workload.data.describe()],
    }


def baseline_view(metrics: dict) -> dict:
    return {name: {"measured": metrics[name][0], "roadmap_baseline": ref}
            for name, ref in ROADMAP_BASELINE.items() if name in metrics}


def traced_run(workload: Workload, work: Path, tally: Tally,
               first_digests: dict) -> tuple[dict, list]:
    """One untraced child pass for CPU times, then untraced and traced in-process
    passes; returns the per-layer metrics and the layers the program lacks."""
    import tla.cli
    import tracing

    child = {}
    for stage in workload.stages:
        done = run_stage(stage, work, tally, first_digests, child_runner(work))
        if done is None:
            return {}, []
        child[stage.name] = done

    def in_process(tracer=None) -> Callable[[Stage], Measured]:
        def runner(stage: Stage) -> Measured:
            move_to_fastest_cpu()
            sink = io.StringIO()
            if tracer is not None:
                tracer.stage = stage.name
                root = tracer.open(f"cli.{stage.name}")
            start = time.perf_counter()
            try:
                code = tla.cli.run(argv_of(stage)[2:], stdout=sink, stderr=sink)
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(root)
            return Measured(code, wall, 0.0, 0, sink.getvalue())
        return runner

    def one_pass(tracer=None) -> Optional[dict]:
        walls = {}
        for stage in workload.stages:
            done = run_stage(stage, work, tally, first_digests, in_process(tracer))
            if done is None:
                return None
            walls[stage.name] = done.wall
        return walls

    cwd = os.getcwd()
    os.chdir(work)  # as for the child processes: no tla.conf is picked up
    try:
        with tracing.PeakAlloc() as fit_alloc:
            warm = one_pass()
        if warm is None or (plain := one_pass()) is None:
            return {}, []
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = one_pass(tracer)
        finally:
            tracer.uninstall()
    finally:
        os.chdir(cwd)
    if traced is None:
        return {}, []
    tracer.write(work / "spans.jsonl")
    metrics = layer_metrics(workload, tracer, child, plain, traced, fit_alloc.peak_bytes)
    injected = workload.data.bad_lines
    bad = metrics.get("ingest.bad_lines", (injected,))[0]
    tally.record("clean", [] if bad == injected else
                 [f"ingest counted {bad} bad lines, {injected} were injected"])
    broken = [f"{name} counts: {error}" for name, error in sorted(tracer.broken.items())]
    return metrics, tracer.absent + broken


def layer_metrics(workload: Workload, tracer, child: dict, plain: dict, traced: dict,
                  fit_peak_bytes: Optional[int]) -> dict:
    rows = workload.data.valid
    busy, counted, metrics = tracer.busy, tracer.counted, {}

    def put(name, value, unit):
        if value is not None:
            metrics[name] = (value, unit)

    def ratio(num, den):
        return num / den if den else None

    def hooked(layer: str) -> bool:
        """The layer was traced and its counting hook still fits the program."""
        return layer not in tracer.absent and layer not in tracer.broken

    identify_calls = tracer.calls("langid.vectorize", {"identify"})
    put("ingest.read_jsonl.busy_s", busy("ingest.read_jsonl", "clean"), "s")
    lines = counted("ingest.lines", "clean")
    if lines:  # read_jsonl still pulls lines from its source as a generator
        items = counted("ingest.read_jsonl.items", "clean")
        put("ingest.rows_per_s", ratio(items, busy("ingest.read_jsonl", "clean")), "rows/s")
        put("ingest.bad_lines", lines - items, "count")
    put("preprocess.preprocess_tweet.busy_s", busy("preprocess.preprocess_tweet", "clean"), "s")
    if hooked("preprocess.preprocess_tweet"):
        put("preprocess.tokens_per_row",
            ratio(counted("preprocess.tokens", "clean"),
                  tracer.calls("preprocess.preprocess_tweet", {"clean"})), "tokens/row")
    put("preprocess.load_bundled.s", busy("preprocess.load_bundled"), "s")
    put("langid.load_model.s", busy("langid.load_model", "identify"), "s")
    for fn in ("normalize_for_langid", "vectorize", "predict_language"):
        put(f"langid.{fn}.busy_s", busy(f"langid.{fn}", "identify"), "s")
    if hooked("langid.vectorize"):
        ngrams = counted("langid.ngrams", "identify")
        put("langid.ngrams_per_row", ratio(ngrams, identify_calls), "ngrams/row")
        put("langid.vocab_hit_ratio", ratio(counted("langid.ngram_hits", "identify"), ngrams),
            "ratio")
    put("langid.relabeled_rows", workload.relabeled(), "count")
    put("synth.synthetic_corpus.s", busy("synth.synthetic_corpus", "train-langid"), "s")
    for fn in ("fit_vectorizer", "fit_forest", "save_model"):
        put(f"langid.{fn}.s", busy(f"langid.{fn}", "train-langid"), "s")
    if fit_peak_bytes is not None:
        put("langid.fit_forest.peak_alloc_mib", fit_peak_bytes / 2**20, "MiB")
    if busy("langid.save_model", "train-langid") is not None and hooked("langid.save_model"):
        for name, unit in (("vocab_size", "count"), ("tree_nodes", "count"),
                           ("model_bytes", "bytes")):
            put(f"langid.{name}", counted(f"langid.{name}", "train-langid"), unit)
    put("sentiment.load_bundled_lexicon.s", busy("sentiment.load_bundled_lexicon", "label"), "s")
    put("sentiment.label_sentiment.busy_s", busy("sentiment.label_sentiment", "label"), "s")
    if hooked("sentiment.label_sentiment"):
        put("sentiment.lexicon_hit_ratio",
            ratio(counted("sentiment.hits", "label"), counted("sentiment.tokens", "label")),
            "ratio")
        put("sentiment.tie_share",
            ratio(counted("sentiment.ties", "label"),
                  tracer.calls("sentiment.label_sentiment", {"label"})), "ratio")
    validate = tracer.calls("corpus.validate_tweet", {"clean", "label", "analyze"})
    if busy("corpus.validate_tweet") is not None:
        put("corpus.validate_tweet.calls_per_row", validate / rows, "calls/row")
    put("corpus.validate_tweet.busy_s", busy("corpus.validate_tweet"), "s")
    put("corpus.write_dataset_csv.busy_s", busy("corpus.write_dataset_csv", "label"), "s")
    if busy("corpus.write_dataset_csv", "label") is not None and hooked(
            "corpus.write_dataset_csv"):
        put("corpus.bytes_written", counted("corpus.bytes_written", "label"), "bytes")
    put("corpus.read_dataset_csv.busy_s", busy("corpus.read_dataset_csv", "analyze"), "s")
    put("analyze.aggregate_dataset.busy_s", busy("analyze.aggregate_dataset", "analyze"), "s")
    put("analyze.render_report.busy_s", busy("analyze.render_report", "analyze"), "s")
    roots = {s[1][4:]: s for s in tracer.spans if s[4] is None and s[1].startswith("cli.")}
    for stage in STAGES:
        put(f"cli.{stage}.self_s", tracer.self_time(roots[stage]), "s")
        put(f"cli.{stage}.cpu_s", child[stage].cpu, "s")
        put(f"trace.{stage}.overhead_s", traced[stage] - plain[stage], "s")
    return metrics


def main(argv=None, sizes: Sizes = FULL, after_stage=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "tla" / "cli.py").is_file():
        print(f"error: no tla sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BUILD / ns.workload
    remove(work)
    work.mkdir(parents=True)
    tally, first_digests = Tally(), {}
    started = time.perf_counter()
    try:
        workload = make_workload(ns.workload, ns.seed, sizes, work)
    except FixtureError as exc:
        tally.record("train-langid", [str(exc)])
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1
    passes, metrics, absent = [], {}, []
    if ns.trace:
        metrics, absent = traced_run(workload, work, tally, first_digests)
    else:
        passes = run_passes(workload, work, ns.seconds, tally, first_digests, after_stage)
        setup = measure_setup(workload, sizes.setup_probes, work, tally)
        if passes and setup:
            metrics = end_to_end(workload, passes, setup)

    correct = tally.failed == 0 and bool(metrics)
    detail = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "seconds_used": time.perf_counter() - started,
        "machine": machine_record(workload, source_digest()),
        "roadmap_baseline": baseline_view(metrics),
        "passes": per_pass(passes),
        "absent_layers": absent,
        "problems": tally.problems,
    }
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
