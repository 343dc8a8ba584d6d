"""Benchmark of the extremeforms command-line interface.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan-r4 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each command runs as users run it: ``python -m extremeforms ...`` in a fresh
interpreter, one child process at a time, with ``PYTHONPATH`` pointing at
this checkout's ``src``. A run first makes an uncounted warm-up pass that
compiles the ``.pyc`` files and fills the OS file cache. It repeats the
workload's command sequence for ``--seconds``, each pass in a fresh working
directory with a fresh ``--cache-dir``. ``setup_s`` (a fresh interpreter
importing the package's modules) is sampled before and after the passes and
between commands throughout them. Every command's exit code, stdout and
artifact are checked; a mismatch counts as a failed command and does not stop
the run.

``--trace 0`` reports the end-to-end metrics, each the median over the passes
that ran to the end.
``--trace 1`` alternates untraced passes with passes whose commands run under
``trace_cli.py`` and reports the per-layer metrics, each the median over the
traced passes. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the per-command times, and the
environment. See README.md for the workloads and what each metric moves.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, Outcome, check_step, load_reference, masked
from workloads import REFERENCE_PATH, sha256

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
TRACE_CLI = BENCH_DIR / "trace_cli.py"

RUN_DEADLINE_S = 170  # a run kills what is still running after this
SETUP_SAMPLES = 3   # before and again after the passes
SETUP_EVERY_S = 2.0  # and one before a command if this long since the last
IMPORTTIME_SAMPLES = 3
EPSILON_S = 1e-3  # clock slack allowed when checking span nesting

# What setup_s imports: the CLI and every module its handlers import.
SETUP_MODULES = ("extremeforms.cli", "extremeforms.search",
                 "extremeforms.storage", "extremeforms.constants",
                 "extremeforms.grothendieck")
# Modules whose cumulative import time is reported, by metric suffix.
IMPORT_METRICS = {"extremeforms": "package", "extremeforms.cli": "cli",
                  "extremeforms.core": "core", "extremeforms.search": "search",
                  "extremeforms.storage": "storage",
                  "extremeforms.constants": "constants",
                  "extremeforms.grothendieck": "grothendieck",
                  "numpy": "numpy"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

SPAN_LAYERS = ("cli.main", "search.extreme_points",
               "search.planar_extreme_points", "search.is_extreme",
               "search.brute_force_vertices", "storage.write_extreme_set",
               "storage.read_extreme_set", "storage.cache_store",
               "storage.cache_load", "constants.bh_constant",
               "constants.maximize_convex", "grothendieck.kg_lower_bound")

PER_LAYER = {
    "process.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in SPAN_LAYERS},
    "search.extreme_points.calls": "count",
    "search.bases": "count",
    "search.ms_per_basis": "ms",
    "search.points": "count",
    "search.sign_systems": "count",
    "core.FormVector.calls": "count",
    "core.FormVector.init_s": "s",
    "storage.bytes_written": "bytes",
    "storage.bytes_read": "bytes",
    "storage.cache_hit_ratio": "ratio",
    "constants.f_lambda.calls_per_point": "ratio",
    "constants.f_lambda.total_s": "s",
    "grothendieck.inner_sphere_max.calls": "count",
    "grothendieck.inner_sphere_max.self_s": "s",
    **{f"setup.import.{short}_s": "s" for short in IMPORT_METRICS.values()},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(cache: Path) -> dict:
    """Environment of every command: this checkout's package, our cache."""

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["EXTREMEFORMS_CACHE"] = str(cache)
    return env


def run_child(cmd, cwd: Path, env: dict, logs: Path,
              deadline: float) -> dict:
    """Run one process to completion; wall time, exit code, peak RSS, output.

    ``os.wait4`` reaps the child so its own resource usage (peak RSS) is
    read per command. A timer kills a command still running at ``deadline``
    (a ``time.perf_counter`` value); ``killed`` says whether it did.
    """

    logs.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logs / "stdout", logs / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(0.0, deadline - start), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "end": end, "wall": end - start,
            "exit_code": proc.returncode, "killed": killed.is_set(),
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace")}


def python_c(code: str, env: dict, cwd: Path, deadline: float,
             extra=()) -> dict:
    return run_child([sys.executable, *extra, "-c", code], cwd, env,
                     cwd / "logs", deadline)


def import_statement() -> str:
    return "import " + ", ".join(SETUP_MODULES)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(steps, seed, reference, pass_dir: Path, traced: bool,
             deadline: float, record=None, before_command=None) -> list:
    """Run every step once in a fresh directory; one record per command.

    A command killed at the deadline, or never started, marks its record
    ``killed``; ``complete`` tells whether a pass had none.
    """

    work, cache = pass_dir / "work", pass_dir / "cache"
    work.mkdir(parents=True)
    env = child_env(cache)
    outcomes, records = {}, []
    for step in steps:
        if time.perf_counter() >= deadline:
            now = time.perf_counter()
            records.append({"step": step, "start": now, "end": now,
                            "wall": 0.0, "rss_mb": 0.0, "killed": True,
                            "errors": ["not started: the run's deadline "
                                       "passed"]})
            continue
        if before_command is not None:
            before_command()
        argv = [*step.argv, "--cache-dir", str(cache)]
        spans_path = pass_dir / f"{step.name}.spans.json"
        if traced:
            cmd = [sys.executable, str(TRACE_CLI), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "extremeforms", *argv]
        result = run_child(cmd, work, env, pass_dir / "logs", deadline)
        artifact_path = work / step.artifact if step.artifact else None
        artifact = (artifact_path.read_bytes()
                    if artifact_path is not None and artifact_path.is_file()
                    else None)
        outcome = Outcome(result["exit_code"], result["stdout"], artifact)
        if record is not None:
            record(step, outcome)
            errors = []
        else:
            errors = check_step(step, outcome, outcomes, seed, reference)
        if result["killed"]:
            errors.append("killed: the run's deadline passed")
        outcomes[step.name] = outcome
        if traced:
            try:
                result["trace"] = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                errors.append("no trace written")
            else:
                for missing in result["trace"]["missing"]:
                    print(f"warning: {missing} not found, not traced",
                          file=sys.stderr)
        for error in errors:
            print(f"FAIL {step.name}: {error}", file=sys.stderr)
        if errors and result["stderr"]:
            print(result["stderr"][-2000:], file=sys.stderr)
        records.append({"step": step, "errors": errors, **result})
    shutil.rmtree(pass_dir)
    return records


def complete(records) -> bool:
    return not any(rec["killed"] for rec in records)


def pass_metrics(records) -> dict:
    """End-to-end figures of one complete pass, plus per-command times."""

    totals = defaultdict(float)
    for rec in records:
        totals["wall_s"] += rec["wall"]
        totals[rec["step"].metric] += rec["wall"]
    totals["peak_rss_mb"] = max(rec["rss_mb"] for rec in records)
    return dict(totals)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def trace_layers(records) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and any nesting errors.

    A span's self time is its duration minus that of its child spans and of
    the per-point calls aggregated directly under it. ``process.self_s`` is
    the rest of each command's wall time: interpreter start-up, the imports
    before ``cli.main`` and exit. Per step the self times therefore add up
    to the step's wall time; the check is that none of them is negative and
    every span lies inside the command's measured interval.
    """

    self_s, calls = defaultdict(float), defaultdict(int)
    counts = defaultdict(float)
    errors = []
    for rec in records:
        trace = rec.get("trace")
        if trace is None:
            continue
        spans, name = trace["spans"], rec["step"].name
        covered = [0.0] * len(spans)
        top = 0.0
        for span in spans:
            duration = span["end"] - span["start"]
            if span["parent"] is None:
                top += duration
            else:
                covered[span["parent"]] += duration
        for agg_name, parent, n_calls, total, own in trace["aggregates"]:
            if parent is None:
                top += total
            self_s[agg_name] += own
            counts[f"{agg_name}.total_s"] += total
            calls[agg_name] += n_calls
        accounted = sum(agg[4] for agg in trace["aggregates"])
        for index, span in enumerate(spans):
            own = span["end"] - span["start"] - covered[index] - span["agg_s"]
            if own < -EPSILON_S or span["start"] < rec["start"] - EPSILON_S \
                    or span["end"] > rec["end"] + EPSILON_S:
                errors.append(f"{name}: span {span['name']} misnested")
            accounted += own
            self_s[span["name"]] += own
            calls[span["name"]] += 1
            if span["name"] == "search.extreme_points":
                size = span["n"] ** span["m"]
                counts["search.points"] += span["points"]
                counts["search.sign_systems"] += (span["bases"]
                                                  << (size - 1))
                # Pool workers count their bases in their own copy of the
                # tracer, so a span with no bases ran the pool path.
                if span["bases"]:
                    counts["search.bases"] += span["bases"]
                    counts["serial_search_s"] += own
            elif span["name"] == "constants.maximize_convex":
                counts["scanned_points"] += span["points"]
            elif span["name"].startswith("storage."):
                direction = ("written" if span["name"] in (
                    "storage.write_extreme_set", "storage.cache_store")
                    else "read")
                counts[f"storage.bytes_{direction}"] += span.get("bytes", 0)
                counts["cache_hits"] += span.get("hit", False)
        process = rec["wall"] - top
        if process < -EPSILON_S:
            errors.append(f"{name}: spans outlast the process")
        self_s["process"] += process
        if abs(accounted + process - rec["wall"]) > EPSILON_S:
            errors.append(f"{name}: self times do not add up to the wall")
        counts["wall"] += rec["wall"]

    def ratio(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    metrics = {f"{layer}.self_s": self_s[layer] for layer in SPAN_LAYERS}
    metrics.update({
        "process.self_s": self_s["process"],
        "search.extreme_points.calls": calls["search.extreme_points"],
        "search.bases": counts["search.bases"],
        "search.ms_per_basis": ratio(counts["serial_search_s"],
                                     counts["search.bases"], 1000.0),
        "search.points": counts["search.points"],
        "search.sign_systems": counts["search.sign_systems"],
        "core.FormVector.calls": calls["core.FormVector"],
        "core.FormVector.init_s": counts["core.FormVector.total_s"],
        "storage.bytes_written": counts["storage.bytes_written"],
        "storage.bytes_read": counts["storage.bytes_read"],
        "storage.cache_hit_ratio": ratio(counts["cache_hits"],
                                         calls["storage.cache_load"]),
        "constants.f_lambda.calls_per_point": ratio(
            calls["constants.f_lambda"], counts["scanned_points"]),
        "constants.f_lambda.total_s": counts["constants.f_lambda.total_s"],
        "grothendieck.inner_sphere_max.calls":
            calls["grothendieck.inner_sphere_max"],
        "grothendieck.inner_sphere_max.self_s":
            self_s["grothendieck.inner_sphere_max"],
        "trace.wall_s": counts["wall"],
    })
    return metrics, errors


class SetupTimer:
    """``setup_s`` samples spread through a run.

    Each sample is the wall time of a fresh interpreter importing the
    package's modules. A block of samples is taken before the passes and
    another after them, and one more before a command whenever
    ``SETUP_EVERY_S`` has passed since the last sample, so the median
    follows the machine's speed over the whole run.
    """

    def __init__(self, env: dict, cwd: Path, deadline: float):
        self.env, self.cwd, self.deadline = env, cwd, deadline
        self.samples = []
        self.last = 0.0

    def sample(self) -> None:
        result = python_c(import_statement(), self.env, self.cwd,
                          self.deadline)
        if not result["killed"]:
            self.samples.append(result["wall"])
        self.last = time.perf_counter()

    def block(self) -> None:
        for _ in range(SETUP_SAMPLES):
            self.sample()

    def before_command(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()


def import_times(env: dict, cwd: Path, deadline: float) -> dict:
    """Cumulative import time per module, from ``python -X importtime``."""

    samples = defaultdict(list)
    for _ in range(IMPORTTIME_SAMPLES):
        result = python_c(import_statement(), env, cwd, deadline,
                          ("-X", "importtime"))
        for line in result["stderr"].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_METRICS:
                short = IMPORT_METRICS[parts[2].strip()]
                samples[short].append(int(parts[1]) / 1e6)
    return {f"setup.import.{short}_s": statistics.median(samples[short])
            if samples[short] else 0.0 for short in IMPORT_METRICS.values()}


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = sorted((SRC / "extremeforms").glob("*.py"))
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {"commit": commit,
            "source_sha256": sha256(b"".join(p.read_bytes()
                                             for p in sources)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "cpu": cpu}


def median_of(dicts) -> dict:
    keys = {key for d in dicts for key in d}
    return {key: statistics.median(d.get(key, 0.0) for d in dicts)
            for key in sorted(keys)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    steps = WORKLOADS[name](seed, reference)
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    load_start = os.getloadavg()[0]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        env = child_env(run_dir / "cache")
        warm = run_dir / "warm"
        warm.mkdir()
        python_c(import_statement(), env, warm, deadline)
        run_child([sys.executable, "-m", "extremeforms", "enum", "--m", "2",
                   "--n", "2", "--no-cache"], warm, env, warm / "logs",
                  deadline)

        setup = None if trace else SetupTimer(env, warm, deadline)
        if setup is not None:
            setup.block()
        untraced, traced, layer_errors = [], [], []
        started = time.perf_counter()
        # Start another pass only if one more, at the average pace so
        # far, still ends within the measured time.
        while not untraced or (time.perf_counter() - started) \
                * (len(untraced) + 1) / len(untraced) <= seconds \
                and time.perf_counter() < deadline:
            index = len(untraced)
            untraced.append(run_pass(
                steps, seed, reference, run_dir / f"pass{index}", False,
                deadline,
                before_command=None if setup is None else setup.before_command))
            if trace:
                records = run_pass(steps, seed, reference,
                                   run_dir / f"traced{index}", True,
                                   deadline)
                layers, errors = trace_layers(records)
                layers["trace.overhead_s"] = (
                    layers["trace.wall_s"]
                    - sum(rec["wall"] for rec in untraced[-1]))
                traced.append((records, layers))
                layer_errors += errors
        if trace:
            extra = import_times(env, warm, deadline)
        else:
            setup.block()
            extra = ({"setup_s": statistics.median(setup.samples)}
                     if setup.samples else {})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    commands = [rec for records in untraced for rec in records]
    commands += [rec for records, _ in traced for rec in records]
    failed = sum(1 for rec in commands if rec["errors"])
    for error in layer_errors:
        print(f"FAIL trace: {error}", file=sys.stderr)
    # A pass cut short by the deadline would read faster than it ran, so
    # only complete passes count; a run with none reports no time metrics.
    per_pass = median_of([pass_metrics(records) for records in untraced
                          if complete(records)])
    if trace:
        kept = [layers for (records, layers), plain in zip(traced, untraced)
                if complete(records) and complete(plain)]
        metrics = {**median_of(kept), **extra}
        units = PER_LAYER
    else:
        metrics = {**per_pass, **extra}
        units = END_TO_END
    env_record = {**environment(), "workload": name, "seed": seed,
                  "passes": len(untraced), "traced_passes": len(traced),
                  "setup_samples": 0 if setup is None else len(setup.samples),
                  "loadavg_1m_start": load_start,
                  "loadavg_1m_end": os.getloadavg()[0]}
    return {
        "correct": failed == 0 and not layer_errors,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items() if key in metrics},
        "commands": {key: value for key, value in per_pass.items()
                     if key not in END_TO_END},
        "env": env_record,
    }


def report(name: str, result: dict) -> None:
    """Human-readable lines: every metric with its unit, then commands."""

    print(f"== {name}: {result['attempted']} commands, "
          f"{result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"  {key:42s} {metric['value']:14.6f} {metric['unit']}")
    for key, value in result["commands"].items():
        print(f"  command {key:34s} {value:14.6f} s")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")


# ---------------------------------------------------------------------------
# recording references
# ---------------------------------------------------------------------------

def record_reference(name: str, seed: int) -> None:
    """Store digests of one pass's outputs in reference.json.

    Seed-independent stdout and artifacts are stored once; stdout that
    depends on the seed is stored under the seed.
    """

    reference = load_reference()

    def record(step, outcome):
        if step.seeded:
            reference["seeded"].setdefault(str(seed), {})[step.name] = \
                sha256(masked(outcome.stdout))
        else:
            reference["stdout"][step.name] = sha256(masked(outcome.stdout))
        if outcome.artifact is not None:
            reference["artifacts"][step.name] = sha256(outcome.artifact)

    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=WORK))
    try:
        records = run_pass(WORKLOADS[name](seed, reference), seed, reference,
                           run_dir / "pass", False,
                           time.perf_counter() + RUN_DEADLINE_S,
                           record=record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for rec in records:
        if rec.get("exit_code") != rec["step"].exit_code:
            raise SystemExit(f"{rec['step'].name} exited "
                             f"{rec.get('exit_code')}; nothing recorded")
    reference["seeded"] = dict(sorted(reference["seeded"].items(),
                                      key=lambda item: int(item[0])))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests as the "
                             "reference instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "extremeforms" / "__main__.py").is_file():
        print(f"error: no extremeforms package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        for name in names:
            record_reference(name, args.seed)
        return 0

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        report(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{key}": value for name, result in results.items()
                   for key, value in result["metrics"].items()}
    summary = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
