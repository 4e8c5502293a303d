"""Host speed sampling, so that times survive the host's speed swings.

On a shared 2-vCPU host the speed of pure Python code drifts by up to 3x
within seconds (CPU time drifts with wall time, so this is not
scheduling).  A sampler process therefore times LOOPS runs of a fixed
calibration loop every PERIOD seconds while a run is measured, and every
time the benchmark reports is wall time with the calibration time taken
out, multiplied by the mean host speed over the same interval:

    normalized = (wall - calibration) * mean(REF_S / loop_seconds)

which is the time the same work takes on a host where the loop runs in
REF_S seconds.  Raw wall times and the speed factor stay visible in the
traced run's ``verify_wall_s`` and ``host_speed``.

The sampler is a process of its own, so its speed does not depend on the
heap or the garbage collector of the program measured.  It must run
on the vCPU of the measured process (the speed of the other vCPU does not
track it), so ``Sampler`` pins the calling process, and with it every
process it starts, to one CPU.  The sampler then preempts the measured
process for its loops, which is why their time is taken out.

    python3 perfbench/speed.py FILE

samples until its standard input closes, appending one line
``start seconds`` per sample to FILE (start is ``time.perf_counter()``,
a system-wide monotonic clock on Linux).
"""

import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PERIOD = 0.1
LOOPS = 4
REF_S = 250e-6  # calibration loop seconds at the reference speed


def calibration_loop():
    """Fraction arithmetic and small-dict traffic, like the workloads."""
    x = Fraction(0)
    d = {}
    for i in range(1, 60):
        x += Fraction(i, i + 3)
        d[(i, i % 5)] = d.get((i % 7, i), 0) + i
    return x


def sample(path):
    """Append a sample to path every PERIOD seconds until stdin closes."""
    with open(path, "a") as out:
        due = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for _ in range(LOOPS):
                calibration_loop()
            out.write(f"{t0!r} {(time.perf_counter() - t0) / LOOPS!r}\n")
            out.flush()
            due += PERIOD
            ready, _, _ = select.select(
                [sys.stdin], [], [], max(0.0, due - time.perf_counter()))
            if ready:
                return


class Sampler:
    """The sampler process of one run, on the CPU of the measured process."""

    def __init__(self, path):
        self.path = path
        self.samples = []  # (perf_counter at sample start, loop seconds)
        self._proc = None
        self._affinity = None

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        try:
            self._proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), self.path],
                stdin=subprocess.PIPE)
            deadline = time.perf_counter() + 30
            while not self.read():
                if (self._proc.poll() is not None
                        or time.perf_counter() > deadline):
                    raise RuntimeError("speed sampler took no sample")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        try:
            if self._proc is not None:
                self._proc.stdin.close()
                try:
                    self._proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    self._proc.wait()
        finally:
            os.sched_setaffinity(0, self._affinity)
        return False

    def read(self):
        """Load the samples written so far; return their number."""
        if os.path.exists(self.path):
            with open(self.path) as fh:
                rows = [line.split() for line in fh if line.endswith("\n")]
            self.samples = [(float(t), float(s)) for t, s in rows]
        return len(self.samples)

    def calibration_seconds(self, t0, t1):
        """Loop seconds of the samples started in [t0, t1)."""
        return LOOPS * sum(s for t, s in self.samples if t0 <= t < t1)

    def speed(self, t0, t1):
        """Mean host speed of the samples started in [t0, t1), or of the
        last sample before t0 if none was."""
        inside = [s for t, s in self.samples if t0 <= t < t1]
        if not inside:
            inside = [s for t, s in self.samples if t < t0][-1:]
        return statistics.mean(REF_S / s for s in inside)


if __name__ == "__main__":
    sample(sys.argv[1])
