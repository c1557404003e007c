#!/usr/bin/env python3
"""spcelab benchmark: one workload, end-to-end or traced per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {pairs,ensembles,roundtrip} --seed N --seconds S --trace {0,1}

A round is the workload's sequence of ``spcelab`` commands, each in a fresh
interpreter, run one after another from this process.  After two warm-up
imports the run repeats whole rounds for as long as the next one is expected
to end within ``S`` seconds of timed rounds (at least one round; with
``--trace 1`` at least two untraced and two traced rounds), checks every
command's outputs after each round (outside the timed region), and prints as
its last stdout line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  One operation is one
command plus its checks; it fails when the command exits with a code other
than the expected one.

``--trace 0`` reports the end-to-end metrics, medians over rounds:
``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``trials_per_s``, and ``setup_s`` (the
median over every command of the time from spawning the interpreter to an
imported ``spcelab.cli``).  The host is shared and its speed drifts, so
``calibration.py`` is timed before the first command of a round and after
each, and every time is scaled to the reference speed by the samples on
either side of its command; the raw times are in the stderr line.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (see ``tracer.py``), scaled the same
way, plus the tracing overhead.  Run artifacts go to ``.perfbench_out/`` at
the repository root; the traced run keeps its spans there.
"""

import os

# Fixed before anything imports numpy: this process (roundtrip checks) and every
# child inherit it.  nproc is 2 on the reference box; one BLAS thread keeps
# timings from depending on how threads get scheduled.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

#: Fixed work without spcelab, timed between commands (see calibration.py), and
#: about the time it takes on the reference box when that box runs at full speed.
CALIBRATION = [str(HERE / "calibration.py")]
REFERENCE_CALIBRATION_S = 0.25

sys.path[:0] = [str(HERE), str(ROOT / "src")]  # roundtrip checks import spcelab
from tracer import COUNT_METRICS, TIME_METRICS, import_times, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Result:
    """One finished command: harness stamps, child rusage and the child's report."""

    code: int
    spawned: float
    ended: float
    cpu_s: float
    rss_mb: float
    report: dict
    stderr: Path
    spans: Path = None
    scale: float = 1.0  # REFERENCE_CALIBRATION_S over the calibration time around the command

    @property
    def setup_s(self):
        return self.report["imported"] - self.spawned

    @property
    def main_s(self):
        return self.report["main_end"] - self.report["main_start"]


@dataclass
class Round:
    wall_s: float
    results: list
    traced: bool
    calibration: list
    layer: dict = field(default_factory=dict)


def child_env(trace):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    if trace:
        env["PYTHONPROFILEIMPORTTIME"] = "1"
    return env


def spawn(argv, env, log_stem):
    """Run ``python3 argv...`` to completion; returns (exit code, spawn time, end time, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, f"{log_stem}.out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{log_stem}.err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), spawned, time.monotonic(), usage


def run_command(cmd, env, logs, spans_path=None):
    stem = logs / cmd.name
    report_path = logs / f"{cmd.name}.report.json"
    report_path.unlink(missing_ok=True)
    if spans_path is not None:
        env = {**env, "PERFBENCH_SPANS": str(spans_path)}
    code, spawned, ended, usage = spawn([str(CHILD), str(report_path), *cmd.argv], env, stem)
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    return Result(code, spawned, ended, usage.ru_utime + usage.ru_stime, report.get("peak_rss_kb", 0) / 1024,
                  report, Path(f"{stem}.err"), spans_path)


def calibrate(logs):
    """Seconds the host takes for ``CALIBRATION`` right now."""
    code, spawned, ended, _ = spawn(CALIBRATION, child_env(False), logs / "calibration")
    if code != 0:
        raise RuntimeError(f"calibration exited {code}: {CALIBRATION}")
    return ended - spawned


def run_round(commands, work, trace):
    """One round of commands with a calibration sample before the first and after each.

    Each command's ``scale`` compares the mean of the samples on either side
    of it with the reference.  The round's wall time sums the commands' own.
    """
    logs = work / "logs"
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
    env = child_env(trace)
    results, calibration = [], [calibrate(logs)]
    for cmd in commands:
        results.append(run_command(cmd, env, logs, logs / f"{cmd.name}.spans.json" if trace else None))
        calibration.append(calibrate(logs))
    for res, before, after in zip(results, calibration, calibration[1:]):
        res.scale = REFERENCE_CALIBRATION_S / ((before + after) / 2)
    return Round(sum(res.ended - res.spawned for res in results), results, trace, calibration)


def check_round(commands, rnd, tally):
    """Exit codes and output checks of one round; updates the tally in place."""
    for cmd, res in zip(commands, rnd.results):
        tally["attempted"] += 1
        if res.code not in cmd.exit_codes or not res.report:
            tally["failed"] += 1
            tally["errors"].append(f"{cmd.name}: exit {res.code}, expected {cmd.exit_codes}: "
                                   + res.stderr.read_text(errors="replace")[-500:])
            continue
        if not Path(res.report["module"]).resolve().is_relative_to(ROOT / "src"):
            tally["correct"] = False
            tally["errors"].append(f"{cmd.name}: ran {res.report['module']}, not this checkout")
        try:
            cmd.check()
        except Exception:  # any failing check marks the run incorrect, with its traceback
            tally["correct"] = False
            tally["errors"].append(f"{cmd.name}: check failed\n{traceback.format_exc()}")


def scaled_wall_s(rnd):
    return sum((res.ended - res.spawned) * res.scale for res in rnd.results)


def end_to_end(rounds, trials):
    """Medians over rounds; every time is first scaled to the reference host speed by its command's ``scale``."""
    return {
        "wall_s": (statistics.median(map(scaled_wall_s, rounds)), "s"),
        "cpu_s": (statistics.median(sum(res.cpu_s * res.scale for res in r.results) for r in rounds), "s"),
        "setup_s": (statistics.median(res.setup_s * res.scale for r in rounds for res in r.results if res.report),
                    "s"),
        "peak_rss_mb": (statistics.median(max(res.rss_mb for res in r.results) for r in rounds), "MB"),
        "trials_per_s": (statistics.median(trials / sum(res.main_s * res.scale for res in r.results if res.report)
                                           for r in rounds), "1/s"),
    }


def traced_layers(commands, rnd):
    """Per-layer metrics of one traced round, summed over its commands."""
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    imports = {"cli.import_s": [], "purity.import_s": []}
    spans = {}
    for cmd, res in zip(commands, rnd.results):
        if not res.spans.exists():
            continue
        data = json.loads(res.spans.read_text())
        spans[cmd.name] = data["spans"]
        for metric, value in layer_metrics(data["spans"]).items():
            totals[metric] += value * res.scale
        for metric, value in data["counts"].items():
            counts[metric] += value
        found = import_times(res.stderr.read_text(errors="replace"))
        imports["cli.import_s"].append(found.get("spcelab.cli", 0.0) * res.scale)
        imports["purity.import_s"].append(found.get("spcelab.purity", 0.0) * res.scale)
    counts["cli.bytes_written"] = sum(p.stat().st_size for cmd in commands
                                      for p in cmd.out.rglob("*") if p.is_file())
    rnd.layer = {**totals, **{k: statistics.median(v) for k, v in imports.items()}, **counts}
    return spans


def per_layer(rounds, traced_spans_path, spans, tally):
    """Per-layer metrics of the traced rounds; a count that differs between them makes the run incorrect."""
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    metrics = {}
    for name in traced[0].layer:
        values = [r.layer[name] for r in traced]
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("bytes_written") else "count"
        if unit == "count" and len(set(values)) > 1:
            tally["correct"] = False
            tally["errors"].append(f"count {name} differs between traced rounds: {values}")
        metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (statistics.median(map(scaled_wall_s, traced))
                                   - statistics.median(map(scaled_wall_s, untraced)), "s")
    traced_spans_path.write_text(json.dumps(spans, separators=(",", ":")))
    return metrics


def warm_up(env, logs):
    """Fill the page cache with spcelab's .pyc files and the shared libraries it loads."""
    for i in range(2):
        spawn(["-c", "import spcelab.cli"], env, logs / f"warmup{i}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spcelab" / "cli.py").is_file():
        print(f"perfbench: no spcelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    commands = WORKLOADS[args.workload](args.seed, work)
    trials = sum(cmd.trials for cmd in commands)
    warm_up(child_env(False), work / "logs")

    rounds, spans = [], {}
    tally = {"attempted": 0, "failed": 0, "correct": True, "errors": []}
    timed, cycles = 0.0, 0
    min_cycles = 2 if args.trace else 1  # two traced rounds at least, so that their counts can be compared
    while cycles < min_cycles or timed + timed / cycles <= args.seconds:
        for trace in ((False, True) if args.trace else (False,)):
            rnd = run_round(commands, work, trace)
            timed += rnd.wall_s
            check_round(commands, rnd, tally)
            if trace:
                spans = traced_layers(commands, rnd)
            rounds.append(rnd)
        cycles += 1

    if args.trace:
        metrics = per_layer(rounds, OUT_ROOT / f"{args.workload}-s{args.seed}.spans.json", spans, tally)
    else:
        metrics = end_to_end(rounds, trials)
    for error in tally["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                      "timed_s": timed, "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
                      "commands": [cmd.name for cmd in commands], "trials_per_round": trials,
                      "command_wall_s": [[res.ended - res.spawned for res in r.results] for r in rounds],
                      "calibration_s": [r.calibration for r in rounds]}),
          file=sys.stderr)
    if not tally["errors"]:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
