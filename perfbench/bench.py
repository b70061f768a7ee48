"""Measurement loop behind run.py: end-to-end rounds and the traced run.

Imported by run.py only after it has capped BLAS threads and put the
program's ``src`` directory on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import codedcomp
from codedcomp import (
    assignment_source,
    concrete_assignment,
    monte_carlo,
    parse_config,
    success_table,
    train,
)
from codedcomp import cli

import checks
import kernel
import replay
from workloads import DATA_TAG, WORKLOADS, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
PARSE_REPEATS = 20
# Nominal kernel times that define a reference second (kernel.py).
KERNEL_REF_S = 0.05
PROCESS_REF_S = 0.25

# Share of BLAS work in each kind of workload's calibration kernel.  When
# the core is shared, interpreted Python slows down about 1.8x, BLAS about
# 1.1x and a training main call about 1.17x (2-vCPU virtual machine); a
# 90% BLAS kernel slows down as training does.  The other workloads are
# interpreted Python with small NumPy calls.
BLAS_SHARE = {"train": 0.9}

# The library call each CLI subcommand makes, by its name in codedcomp.cli.
MAIN_CALL = {"simulate": "monte_carlo", "train": "train", "enumerate": "success_table"}


class Ledger:
    """Counts operations attempted and failed; a failure is an exception,
    a non-zero exit or a failed output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn):
        self.attempted += 1
        try:
            result, errors = fn()
        except Exception:  # one failed operation must not end the benchmark
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return None
        if errors:
            self.failed += 1
            for error in errors:
                print(f"FAILED {label}: {error}", file=sys.stderr)
            return None
        return result


class Context:
    """One run's inputs: the workload, its parsed configs and the dataset."""

    def __init__(self, args) -> None:
        workload = WORKLOADS[args.workload]
        self.workload = smoke(workload) if args.smoke else workload
        self.smoke = args.smoke
        self.seed = args.seed
        self.kind = self.workload.kind
        self.commands = self.workload.commands
        self.configs = [parse_config(c.config(self.seed)) for c in self.commands]
        self.references = checks.load_references()
        self.dataset = None
        if self.kind == "train":
            self.dataset = _dataset(self.configs[0])
        self.out = OUT / f"{self.workload.name}-{self.seed}-{os.getpid()}"

    def check(self, cmd, values) -> list[str]:
        return checks.check_reference(
            cmd, self.seed, values, self.references
        ) + checks.check_values(cmd, values, statistical=not self.smoke)


def _dataset(cfg):
    """The training dataset, drawn as the CLI draws it."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, DATA_TAG)))
    s = cfg.train
    return codedcomp.generate_dataset(s.samples, s.dim, rng, noise_std=s.noise_std)


def main_call(ctx: Context):
    """The library calls the CLI commands make, untraced.

    Returns (work done, seconds, parsed values per command).
    """
    values, work = [], 0
    start = time.perf_counter()
    for cfg in ctx.configs:
        if ctx.kind == "simulate":
            result = monte_carlo(assignment_source(cfg), cfg.q, cfg.model(), cfg.trials, cfg.seed)
            values.append(checks.from_monte_carlo(result))
            work += cfg.trials
        elif ctx.kind == "train":
            s = cfg.train
            result = train(
                ctx.dataset, assignment_source(cfg), cfg.q, cfg.model(),
                s.eta, s.iterations, cfg.seed,
            )
            values.append({**checks.from_train(result), "theta": result.theta})
            work += s.iterations
        else:
            table = success_table(concrete_assignment(cfg), cfg.q)
            values.append(table)
            work += sum(total for _, _, total in table)
    elapsed = time.perf_counter() - start
    if ctx.kind == "enumerate":
        values = [checks.from_success_table(t) for t in values]
    return work, elapsed, values


def traced_call(ctx: Context, tracer):
    """The same calls replayed with spans.  Returns (seconds, values)."""
    values = []
    start = time.perf_counter()
    for cfg in ctx.configs:
        if ctx.kind == "simulate":
            values.append(replay.replay_monte_carlo(tracer, cfg))
        elif ctx.kind == "train":
            values.append(replay.replay_train(tracer, cfg, ctx.dataset))
        else:
            values.append(replay.replay_success_table(tracer, cfg))
    elapsed = time.perf_counter() - start
    if ctx.kind == "enumerate":
        values = [[row for row in rows if row[1]] for rows in values]
    return elapsed, values


def _agree(ctx: Context, what: str, got, want) -> list[str]:
    return [
        f"{cmd.name}: {what} differs from the CLI output"
        for cmd, g, w in zip(ctx.commands, got, want)
        if not checks.same(w, g)
    ]


# --------------------------------------------------------------- processes


def run_cli(ctx: Context, cmd):
    """One CLI command in a fresh process; returns (wall s, peak MB, values)."""
    out_dir = ctx.out / cmd.name
    out_dir.mkdir(parents=True, exist_ok=True)
    peak_file = ctx.out / "peak_kb"
    argv = [sys.executable, str(HERE / "cli_child.py"), str(peak_file)]
    argv += cmd.argv(ctx.seed, str(out_dir))
    start = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        err = done.stderr.decode(errors="replace").strip()
        raise RuntimeError(f"exit {done.returncode}: {err[-500:]}")
    peak_mb = int(peak_file.read_text(encoding="ascii")) / 1024.0
    return wall, peak_mb, checks.read_output(cmd, out_dir)


def setup_probe(ctx: Context) -> float:
    """Seconds from spawning a fresh process to the workload being ready."""
    argv = [sys.executable, str(HERE / "probe.py"), ctx.workload.name, str(ctx.seed)]
    if ctx.smoke:
        argv.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    _, err = proc.communicate()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"probe exit {proc.returncode}: {err.decode(errors='replace')[-500:]}")
    return ready


# ------------------------------------------------------------- end to end


class Clock:
    """Turns measured seconds into reference seconds (see kernel.py).

    A calibration kernel runs between groups of timed intervals.  An
    interval is scaled by ``reference_s`` over the mean of the kernel times
    just before and just after it.
    """

    def __init__(self, kernel, reference_s: float) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.kernels = [kernel()]
        self.raw: dict[str, list[tuple[float, int]]] = {}

    def note(self, metric: str, seconds: float | None) -> None:
        """Note an interval since the last kernel (None if it failed)."""
        if seconds is not None:
            self.raw.setdefault(metric, []).append((seconds, len(self.kernels) - 1))

    def tick(self) -> None:
        self.kernels.append(self.kernel())

    def reference_seconds(self, metric: str) -> list[float]:
        k = self.kernels
        return [
            seconds * self.reference_s / statistics.mean(k[i : i + 2])
            for seconds, i in self.raw.get(metric, [])
        ]


def measure(ctx: Context, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Rounds of probe, CLI commands and main call until time is up."""
    ledger.run("warm-up probe", lambda: (setup_probe(ctx), []))
    share = BLAS_SHARE.get(ctx.kind, 0.0)
    fresh = Clock(lambda: kernel.process_kernel(share), PROCESS_REF_S)
    inproc = Clock(lambda: kernel.calibration_kernel(share), KERNEL_REF_S)
    peaks, work = [], 0
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        fresh.note("setup_s", ledger.run("setup probe", lambda: (setup_probe(ctx), [])))
        cli_values, walls, round_peaks = [], [], []
        for cmd in ctx.commands:
            done = ledger.run(f"cli {cmd.name}", lambda: _cli_checked(ctx, cmd))
            if done is not None:
                walls.append(done[0])
                round_peaks.append(done[1])
                cli_values.append(done[2])
        complete = len(walls) == len(ctx.commands)
        fresh.note("wall_s", sum(walls) if complete else None)
        if complete:
            peaks.append(max(round_peaks))
        fresh.tick()

        def call():
            work, elapsed, values = main_call(ctx)
            errors = [e for cmd, v in zip(ctx.commands, values) for e in ctx.check(cmd, v)]
            if len(cli_values) == len(values):
                errors += _agree(ctx, "library call", values, cli_values)
            return (work, elapsed), errors

        inproc.tick()
        done = ledger.run("main call", call)
        if done is not None:
            work = done[0]
        inproc.note("main_s", None if done is None else done[1])
        inproc.tick()
    values = {
        "work_per_s": [work / t for t in inproc.reference_seconds("main_s")],
        "wall_s": fresh.reference_seconds("wall_s"),
        "setup_s": fresh.reference_seconds("setup_s"),
        "peak_rss_mb": peaks,
    }
    units = {"work_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {
        name: {"value": statistics.median(v), "unit": units[name]}
        for name, v in values.items()
        if v
    }
    raw = {name: [t for t, _ in pairs] for c in (fresh, inproc) for name, pairs in c.raw.items()}
    return metrics, {
        "reference": values,
        "raw": raw,
        "process_kernel_s": fresh.kernels,
        "calibration_kernel_s": inproc.kernels,
    }


def _cli_checked(ctx: Context, cmd):
    wall, rss, values = run_cli(ctx, cmd)
    return (wall, rss, values), ctx.check(cmd, values)


# ------------------------------------------------------------------ traced


def traced_cli(ctx: Context, tracer, cmd):
    """One CLI command run in this process, with its output time measured.

    cli.write is the time from the main library call's return to the CLI's
    return: formatting rows and writing the files.
    """
    out_dir = ctx.out / f"traced-{cmd.name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    name = MAIN_CALL[cmd.sub]
    real = getattr(cli, name)
    marks = []

    def wrapped(*a, **k):
        s = tracer.begin("cli.call")
        result = real(*a, **k)
        tracer.finish(s)
        marks.append(tracer.begin("cli.write"))
        return result

    setattr(cli, name, wrapped)
    try:
        top = tracer.begin("cli.main")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cmd.argv(ctx.seed, str(out_dir)))
        if len(marks) == 1:
            tracer.finish(marks[0])
        tracer.finish(top)
    finally:
        setattr(cli, name, real)
    if code != 0 or len(marks) != 1:
        raise RuntimeError(f"cli.main exit {code}, {len(marks)} calls to {name}")
    size = sum(p.stat().st_size for p in out_dir.iterdir())
    tracer.count("cli.bytes_written", size)
    values = checks.read_output(cmd, out_dir)
    return values, ctx.check(cmd, values)


def measure_traced(ctx: Context, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    tracer = replay.Tracer()
    for _ in range(PARSE_REPEATS):
        for cmd in ctx.commands:
            s = tracer.begin("config.parse")
            parse_config(cmd.config(ctx.seed))
            tracer.finish(s)
    cli_values = [
        ledger.run(f"traced cli {c.name}", lambda: traced_cli(ctx, tracer, c))
        for c in ctx.commands
    ]
    untraced, traced = [], []
    start = time.perf_counter()
    reps = 0
    while reps < 1 or time.perf_counter() - start < seconds:
        reps += 1

        def plain():
            _, elapsed, values = main_call(ctx)
            untraced.append(elapsed)
            return values, []

        values = ledger.run("main call", plain)

        def replayed():
            if ctx.kind == "train":
                s = tracer.begin("regression.dataset")
                _dataset(ctx.configs[0])
                tracer.finish(s)
            elapsed, got = traced_call(ctx, tracer)
            traced.append(elapsed)
            errors = [e for cmd, v in zip(ctx.commands, got) for e in ctx.check(cmd, v)]
            if values is not None:
                errors += _agree(ctx, "traced replay", got, values)
            if None not in cli_values:
                errors += _agree(ctx, "traced replay", got, cli_values)
            return got, errors

        ledger.run("traced replay", replayed)
    # Each replay is compared with the untraced call just before it, so a
    # change in machine speed between reps cancels.
    ratios = [t / u for t, u in zip(traced, untraced)]
    overhead = statistics.median(ratios) - 1 if ratios else 0.0
    tracer.save(OUT / f"{ctx.workload.name}-{ctx.seed}-spans.npz")
    return layer_metrics(tracer, reps, overhead), {"untraced_s": untraced, "traced_s": traced}


def layer_metrics(tracer, reps: int, overhead: float) -> dict:
    """Per-layer metrics from the spans and counts of ``reps`` replays.

    Times are means per span; counts are per replay.  A layer the workload
    does not run reports 0.
    """
    stats = tracer.stats()
    counts = tracer.counts

    def mean(name, scale):
        s = stats.get(name)
        return s["total_ns"] / s["spans"] / scale if s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    trial_spans = [s for n, s in stats.items() if n.startswith("simulate.trial.")]
    trials = sum(s["spans"] for s in trial_spans)
    iteration = stats.get("regression.iteration")
    msgs = counts["decoding.msgs_ingested"]
    metrics = {
        "config.parse_us": (mean("config.parse", 1e3), "us"),
        "schemes.build_us": (mean("schemes.build", 1e3), "us"),
        "schemes.tasks_per_build": (
            ratio(counts["schemes.tasks"], counts["schemes.builds"]),
            "count",
        ),
        "schemes.builds": (counts["schemes.builds"] / reps, "count"),
        "latency.sample_us": (mean("latency.sample", 1e3), "us"),
        "simulate.order_us": (mean("simulate.order", 1e3), "us"),
        **{
            f"simulate.trial_us.{scheme}": (mean(f"simulate.trial.{scheme}", 1e3), "us")
            for scheme in ("rcs", "uc-mmc", "mcc", "gc")
        },
        "simulate.self_us": (ratio(sum(s["self_ns"] for s in trial_spans), trials) / 1e3, "us"),
        "simulate.trials": (counts["simulate.trials"] / reps, "count"),
        "simulate.incomplete_trials": (counts["simulate.incomplete_trials"] / reps, "count"),
        **{
            f"decoding.ingest_us.{rule}": (mean(f"decoding.ingest.{rule}", 1e3), "us")
            for rule in ("peel", "mds", "threshold")
        },
        "decoding.msgs_ingested": (msgs / reps, "count"),
        "decoding.msgs_per_trial": (ratio(msgs, trials), "count"),
        "decoding.redundant_frac": (ratio(counts["decoding.redundant"], msgs), "ratio"),
        "decoding.recovered_per_trial": (ratio(counts["decoding.recovered"], trials), "count"),
        "decoding.pending_peak": (counts["decoding.pending_peak"], "count"),
        "enumeration.vector_us": (mean("enumeration.vector", 1e3), "us"),
        "enumeration.vectors": (counts["enumeration.vectors"] / reps, "count"),
        "enumeration.success_frac": (
            ratio(counts["enumeration.successful"], counts["enumeration.vectors"]),
            "ratio",
        ),
        "enumeration.total_vectors_ms": (
            stats.get("enumeration.total_vectors", {"total_ns": 0})["total_ns"] / reps / 1e6,
            "ms",
        ),
        "regression.dataset_ms": (mean("regression.dataset", 1e6), "ms"),
        "regression.gram_ms": (mean("regression.gram", 1e6), "ms"),
        "regression.loss_us": (mean("regression.loss", 1e3), "us"),
        "regression.step_us": (mean("regression.step", 1e3), "us"),
        "regression.self_us": (
            iteration["self_ns"] / iteration["spans"] / 1e3 if iteration else 0.0,
            "us",
        ),
        "regression.iterations": (counts["regression.iterations"] / reps, "count"),
        "cli.write_ms": (stats.get("cli.write", {"total_ns": 0})["total_ns"] / 1e6, "ms"),
        "cli.bytes_written": (counts["cli.bytes_written"], "bytes"),
        **{k: (v, "count") for k, v in code_size().items()},
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ------------------------------------------------------------- environment


def code_size() -> dict:
    lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"code.src_lines": lines, "code.exported_names": len(codedcomp.__all__)}


def src_digest() -> str:
    """Identifies the program's source where no git revision is available."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    revision = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        revision = done.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "src_sha256": src_digest(),
        "machine": platform.machine(),
        **code_size(),
    }


# -------------------------------------------------------------------- main


def run(args) -> int:
    ledger = Ledger()
    ctx = Context(args)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    ctx.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, samples = measure_traced(ctx, args.seconds, ledger)
        else:
            metrics, samples = measure(ctx, args.seconds, ledger)
    finally:
        shutil.rmtree(ctx.out, ignore_errors=True)
    failed_frac = ledger.failed / max(ledger.attempted, 1)
    for name, m in metrics.items():
        unit = f"{ctx.workload.work_unit}/s" if name == "work_per_s" else m["unit"]
        print(f"{name:<30} {m['value']:>16.6g} {unit}")
    print(f"{'failed_frac':<30} {failed_frac:>16.6g} ratio ({ledger.failed}/{ledger.attempted})")
    record = {
        "workload": ctx.workload.name,
        "seed": ctx.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": ctx.smoke,
        "env": env,
        "metrics": metrics,
        "samples": samples,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
    }
    (OUT / f"{ctx.workload.name}-{ctx.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0
