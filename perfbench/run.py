"""qsnake benchmark: time to an exact verdict for fixed lists of CLI lines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the whole workload (see workloads.py) in order inside
one fresh interpreter, through ``qsnake.cli.main`` only, so every
repetition starts with empty character caches as a CLI user does.  It is
a closed loop with one client: one process at a time, one line after
another.  Repetitions are started until the next one would end after S
seconds, with a floor on their number so that the medians mean something.

``--trace 0`` prints the end-to-end metrics (medians over repetitions):
``verify_s`` from the first line's start to the last verdict, ``setup_s``
from process spawn to ``qsnake.cli`` imported, and ``peak_rss_mb``.
Times are normalized for host speed by a sampler process on the CPU of
the measured one (speed.py).
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of spans.py: each layer's self time and each
subcommand's line time as shares of the traced ``verify`` (a layer the
workload never calls reads 0), exact work counts, the traced and the raw
wall-clock ``verify`` and the tracing overhead.

Correctness: the canonical JSON, exit code and captured output of every
line must be byte-identical across the repetitions of a run, traced or
not, every report must be well formed and every exit code must agree
with the reports' statuses.  Hard-failed checks and lines that exit 2 or
raise are counted in ``failed`` (an errored line counts as one attempted
check) and never stop the run.  The last line of standard output is one
JSON object; progress goes to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
from spans import COUNTS, LAYERS  # noqa: E402
from speed import Sampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3       # untraced repetitions per untraced run
MIN_PAIRS = 2      # (untraced, traced) pairs per traced run
HARD_LIMIT = 140.0  # start nothing that would end later than this

SUBCOMMANDS = sorted({line[0] for lines in WORKLOADS.values()
                      for line in lines})

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {f"{layer}.self_share": "ratio" for layer in LAYERS}
    units.update({name: "count" for name in COUNTS
                  if name != "qchar.snake_repeats"})
    units["qchar.snake_repeat_ratio"] = "ratio"
    units["lattice.window_fill_ratio"] = "ratio"
    units.update({f"cli.line_share.{sub}": "ratio" for sub in SUBCOMMANDS})
    units["trace_overhead_ratio"] = "ratio"
    units["trace_accounted_ratio"] = "ratio"
    units["verify_traced_s"] = "s"
    units["verify_wall_s"] = "s"
    units["host_speed"] = "ratio"
    units["fail_ratio"] = "ratio"
    units["checks"] = "count"
    return units


class BenchError(Exception):
    pass


def spawn(args, timeout):
    """Run child.py in a fresh interpreter and return its raw result."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} ran past {timeout:.0f} s")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"child {args} printed no result")
    result["spawned"] = t0
    result["wall_s"] = wall
    return result


def span_s(rep):
    """Raw seconds from a repetition's first line start to its last end."""
    return rep["spans"][-1][1] - rep["spans"][0][0]


def errored(line):
    """A line that exited 2 or raised: one attempted, failed check."""
    return line["error"] is not None or line["rc"] == 2


class Run:
    """The repetitions of one benchmark run and their verdict checks."""

    def __init__(self, workload, seed, seconds, tmpdir, sampler):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmpdir = tmpdir
        self.sampler = sampler
        self.start = time.perf_counter()
        self.plain = []
        self.traced = []
        self.reference = None
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def timeout(self):
        return max(10.0, HARD_LIMIT + 30.0 - self.elapsed())

    def repetition(self, trace):
        rep = spawn([self.workload, str(self.seed),
                     "1" if trace else "0", self.tmpdir], self.timeout())
        self.normalize(rep)
        digests = [line["digest"] for line in rep["lines"]]
        if self.reference is None:
            self.reference = digests
        for line, want in zip(rep["lines"], self.reference):
            if line["digest"] != want:
                self.correct = False
                print(f"output of {' '.join(line['argv'])} differs from the "
                      "first repetition", file=sys.stderr)
        for line in rep["lines"]:
            self.correct &= line["well_formed"]
            self.attempted += 1 if errored(line) else line["checks"]
            self.failed += 1 if errored(line) else line["fails"]
        (self.traced if trace else self.plain).append(rep)
        print(f"{'traced' if trace else 'plain'} repetition: "
              f"verify {rep['verify_s']:.3f} s (wall {rep['verify_wall_s']:.3f} s,"
              f" host speed {rep['speed']:.3f}), setup {rep['setup_s']:.3f} s",
              file=sys.stderr)
        return rep

    def normalize(self, rep):
        """Add the host-speed-normalized times (speed.py) to rep."""
        sampler = self.sampler
        sampler.read()

        def wall(t0, t1):
            return t1 - t0 - sampler.calibration_seconds(t0, t1)

        start, end = rep["spans"][0][0], rep["spans"][-1][1]
        spawned, ready = rep["spawned"], rep["ready"]
        rep["setup_s"] = wall(spawned, ready) * sampler.speed(spawned, ready)
        rep["speed"] = sampler.speed(start, end)
        rep["verify_wall_s"] = wall(start, end)
        rep["verify_s"] = rep["verify_wall_s"] * rep["speed"]

    def go_on(self, done, floor, unit_s):
        """Start another unit of unit_s seconds?"""
        end = self.elapsed() + unit_s
        if end > HARD_LIMIT:
            return False
        return done < floor or end <= self.seconds


def measure_plain(run):
    walls = []
    while run.go_on(len(walls), MIN_REPS,
                    statistics.median(walls) if walls else 0.0):
        walls.append(run.repetition(False)["wall_s"])
    return {
        "verify_s": statistics.median(r["verify_s"] for r in run.plain),
        "setup_s": statistics.median(r["setup_s"] for r in run.plain),
        "peak_rss_mb": statistics.median(
            r["peak_rss_kb"] for r in run.plain) / 1024.0,
    }


def measure_traced(run):
    walls = []
    while run.go_on(len(walls), MIN_PAIRS,
                    statistics.median(walls) if walls else 0.0):
        order = (False, True) if len(walls) % 2 == 0 else (True, False)
        walls.append(sum(run.repetition(t)["wall_s"] for t in order))
    traced = run.traced
    counts = traced[0]["counts"]
    if any(rep["counts"] != counts for rep in traced[1:]):
        run.correct = False
        print("work counts differ between traced repetitions",
              file=sys.stderr)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = statistics.median(
            rep["self_s"][layer] / span_s(rep) for rep in traced)
    for name in COUNTS:
        if name != "qchar.snake_repeats":
            out[name] = counts[name]
    out["qchar.snake_repeat_ratio"] = _ratio(
        counts["qchar.snake_repeats"], counts["qchar.snake_calls"])
    out["lattice.window_fill_ratio"] = _ratio(
        counts["lattice.window_nnz"], counts["lattice.window_entries"])
    lines = WORKLOADS[run.workload]
    for sub in SUBCOMMANDS:
        out[f"cli.line_share.{sub}"] = statistics.median(
            sum(t1 - t0 for line, (t0, t1) in zip(lines, rep["spans"])
                if line[0] == sub) / span_s(rep) for rep in traced)
    out["verify_traced_s"] = statistics.median(
        rep["verify_s"] for rep in traced)
    out["trace_overhead_ratio"] = out["verify_traced_s"] / statistics.median(
        rep["verify_s"] for rep in run.plain)
    out["trace_accounted_ratio"] = statistics.median(
        rep["accounted"] for rep in traced)
    every = run.plain + traced
    out["verify_wall_s"] = statistics.median(
        rep["verify_wall_s"] for rep in run.plain)
    out["host_speed"] = statistics.median(rep["speed"] for rep in every)
    out["fail_ratio"] = _ratio(run.failed, run.attempted)
    out["checks"] = sum(1 if errored(line) else line["checks"]
                        for line in traced[0]["lines"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def bench(workload, seed, seconds, trace):
    """Measure one run; return the Run and its metric values."""
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with Sampler(os.path.join(tmpdir, "speed.txt")) as sampler:
            run = Run(workload, seed, seconds, tmpdir, sampler)
            values = measure_traced(run) if trace else measure_plain(run)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return run, values


def result(run, values, trace):
    """The JSON object a run prints as its last line."""
    units = per_layer_units() if trace else END_TO_END
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsnake", "cli.py")):
        print(f"error: no qsnake sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        run, values = bench(args.workload, args.seed, args.seconds,
                            args.trace == 1)
    except (BenchError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result(run, values, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
