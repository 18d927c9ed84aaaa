#!/usr/bin/env python3
"""bingo-sim benchmark: figure-sweep throughput per named workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig8 --seed 42 --seconds 35 --trace 0

Builds perfbench/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), clears every
BINGO_* variable, and then

  --trace 0  measures set-up time in fresh processes, repeats the workload's
             sweep in fresh processes for --seconds, and reports the medians
             of the end-to-end metrics;
  --trace 1  runs the sweep once untraced and once traced and reports the
             per-layer metrics.

Every job's simulated result is checked against perfbench/reference/.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
The command exits 0 only if every job's result matched the reference.

    python3 perfbench/run.py --record-reference

rewrites the reference digests from the current build (see PROTOCOL.md).
"""

import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORKLOADS = ("fig8", "compute_bound", "memory_bound")
SETUP_REPEATS = 31
# Every child must finish inside this many seconds of the run's start, so
# the whole command stays within its 180 s limit after the build.
RUN_BUDGET_S = 170.0
MAX_THREADS = 4
# Right after a build, sweeps on a 4-vCPU VM ran up to 60 % slower for a
# minute or two, so a run that had to build first spends this long on
# discarded sweeps before it measures.
SETTLE_AFTER_BUILD_S = 90.0


class BenchError(Exception):
    """A failure that leaves no result to report."""


def parse_args(argv):
    """Strictly validated arguments: integers are digits only, in range."""
    if argv == ["--record-reference"]:
        return {"record": True}
    spec = {
        "--workload": None,
        "--seed": (0, 2**32 - 1),
        "--seconds": (1, 600),
        "--trace": (0, 1),
    }
    if len(argv) % 2 != 0:
        raise BenchError("arguments come in --flag value pairs")
    args = {"record": False}
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in spec or flag in args:
            raise BenchError("unknown or repeated argument %r" % flag)
        bounds = spec[flag]
        if bounds is None:
            if not re.fullmatch(r"[a-z0-9_]+", value):
                raise BenchError("malformed %s %r" % (flag, value))
            args[flag] = value
            continue
        if not re.fullmatch(r"[0-9]{1,10}", value):
            raise BenchError("%s expects a non-negative integer, got %r"
                             % (flag, value))
        number = int(value)
        if not bounds[0] <= number <= bounds[1]:
            raise BenchError("%s must be in [%d, %d], got %d"
                             % (flag, bounds[0], bounds[1], number))
        args[flag] = number
    missing = [f for f in spec if f not in args]
    if missing:
        raise BenchError("missing " + ", ".join(missing))
    if args["--workload"] not in WORKLOADS:
        raise BenchError("--workload must be one of " + ", ".join(WORKLOADS))
    return args


def pinned_environment():
    """The caller's environment without any BINGO_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BINGO_")}
    cleared = sorted(k for k in os.environ if k.startswith("BINGO_"))
    return env, cleared


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(env):
    """Configure once, then build incrementally; output goes to stderr.

    Returns the program's path and whether this call (re)built it.
    """
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources not found under %s"
                         % (ROOT / "src"))
    out = build_dir()
    binary = out / "perfbench"
    before = binary.stat().st_mtime_ns if binary.exists() else None
    jobs = str(min(os.cpu_count() or 1, MAX_THREADS))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return binary, binary.stat().st_mtime_ns != before


class Child:
    """Runs the benchmark program with a deadline; never leaves it behind."""

    def __init__(self, binary, env, deadline):
        self.binary = binary
        self.env = env
        self.deadline = deadline

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left

    def run(self, args):
        """Run to completion; return (JSON result, CPU seconds)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.Popen([str(self.binary)] + args, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("benchmark program overran its time budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
        if proc.returncode not in (0, 1):
            raise BenchError("benchmark program exited with %d"
                             % proc.returncode)
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("benchmark program printed no result")
        return json.loads(lines[-1]), cpu

    def setup_seconds(self, args):
        """Spawn-to-ready time of one process that stops before simulating."""
        start = time.perf_counter()
        proc = subprocess.Popen([str(self.binary), "--setup"] + args,
                                env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise BenchError("set-up run failed")
        return elapsed


def metric(value, unit):
    return {"value": value, "unit": unit}


def settle(binary, env, common):
    """Discarded sweeps, so measurement starts on a settled host."""
    child = Child(binary, env, time.monotonic() + SETTLE_AFTER_BUILD_S + 60)
    start = time.monotonic()
    while time.monotonic() - start < SETTLE_AFTER_BUILD_S:
        child.run(["--sweep"] + common)


def timed_run(child, common, seconds):
    """Median end-to-end metrics over fresh-process sweeps."""
    setup = [child.setup_seconds(common) for _ in range(SETUP_REPEATS)]
    reps = []
    failed = attempted = 0
    problems = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        result, cpu = child.run(["--sweep"] + common)
        result["process_s"] = time.monotonic() - rep_start
        result["cpu_s"] = cpu
        reps.append(result)
        attempted += result["attempted"]
        failed += result["failed"]
        problems += result["problems"]
        elapsed = time.monotonic() - start
        typical = statistics.median(r["process_s"] for r in reps)
        if elapsed + typical > seconds:
            break
    quota = reps[0]["input"]["quota_instructions"]
    med = lambda key: statistics.median(r[key] for r in reps)
    cpu = med("cpu_s")
    metrics = {
        "wall_s": metric(med("wall_s"), "s"),
        "cpu_s": metric(cpu, "s"),
        "sim_mcycles_per_s": metric(statistics.median(
            r["simulated_cycles"] / r["wall_s"] / 1e6 for r in reps),
            "Mcycles/s"),
        "cpu_ns_per_instr": metric(cpu * 1e9 / quota, "ns"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    samples = {"sweeps": len(reps), "setups": len(setup),
               "wall_s": [r["wall_s"] for r in reps],
               "cpu_s": [r["cpu_s"] for r in reps]}
    return reps[0], metrics, attempted, failed, problems, samples


def traced_run(child, common):
    """Per-layer metrics: one untraced sweep, then one traced run."""
    untraced, _ = child.run(["--sweep"] + common)
    traced, _ = child.run(["--traced"] + common)
    metrics = dict(untraced["layers"])
    metrics.update(traced["layers"])
    metrics["trace_overhead_frac"] = metric(
        traced["wall_s"] / untraced["wall_s"] - 1.0, "frac")
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    problems = untraced["problems"] + traced["problems"]
    samples = {"untraced_wall_s": untraced["wall_s"],
               "traced_wall_s": traced["wall_s"]}
    return untraced, metrics, attempted, failed, problems, samples


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision(env):
    """(SHA, dirty) of the checkout, or ("unknown", None) outside git."""
    git_env = dict(env, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, env=git_env, capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown", None
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=git_env, capture_output=True, text=True,
                             timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               env=git_env, capture_output=True, text=True,
                               timeout=10).stdout.strip() != ""
        return sha or "unknown", dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def record_reference(binary, env):
    threads = str(min(os.cpu_count() or 1, MAX_THREADS))
    for workload in WORKLOADS:
        out = subprocess.run([str(binary), "--record", "--workload",
                              workload, "--threads", threads],
                             env=env, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            raise BenchError("recording %s failed" % workload)
        path = REFERENCE_DIR / (workload + ".txt")
        path.write_text(
            "# Reference digests of workload %s: one line per job,\n"
            "# <workload seed> <job index> <result digest> <job label>.\n"
            "# Regenerate with: python3 perfbench/run.py --record-reference\n"
            % workload + out.stdout)
        print("wrote", path.relative_to(ROOT))


def main(argv):
    # Turn SIGTERM into SystemExit so the finally clauses stop any child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        args = parse_args(argv)
        env, cleared = pinned_environment()
        binary, rebuilt = build(env)
        if args["record"]:
            record_reference(binary, env)
            return 0
        threads = min(os.cpu_count() or 1, MAX_THREADS)
        workload = args["--workload"]
        common = ["--workload", workload, "--seed", str(args["--seed"]),
                  "--threads", str(threads), "--reference",
                  str(REFERENCE_DIR / (workload + ".txt"))]
        if rebuilt:
            settle(binary, env, common)
        child = Child(binary, env, time.monotonic() + RUN_BUDGET_S)
        if args["--trace"] == 1:
            first, metrics, attempted, failed, problems, samples = \
                traced_run(child, common)
        else:
            first, metrics, attempted, failed, problems, samples = \
                timed_run(child, common, args["--seconds"])
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2

    sha, dirty = git_revision(env)
    provenance = {
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "compiler_and_flags": first["build"], "git_sha": sha,
        "git_dirty": dirty, "bench_seed": first["bench_seed"],
        "workload_seed": first["workload_seed"], "input": first["input"],
        "threads": first["threads"], "bingo_env_cleared": cleared,
        "bingo_env_resolved": first["environment"], "samples": samples,
    }
    print("perfbench %s (trace %d): %d/%d jobs failed, failed_frac %.4g frac"
          % (workload, args["--trace"], failed, attempted,
             failed / attempted))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if args["--trace"] == 1:
        err = metrics["sim.paper_mpki_err"]["value"]
        print(("Baseline LLC MPKI differs from paper Table II by %.1f %% on "
               "average (sim.paper_mpki_err)" % (100 * err) if err else
               "This workload has no Table II baseline job to compare")
              + "; beyond that the timing model is unvalidated.")
    for problem in problems[:20]:
        print("  FAILED " + problem)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
