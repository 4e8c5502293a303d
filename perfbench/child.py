"""One repetition of a workload inside a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE TMPDIR

Calls ``qsnake.cli.main`` on every line of the workload in order,
standard output and error captured and ``--json`` written under TMPDIR;
with TRACE=1 the layer wrappers of spans.py are installed first.  The
last line printed is a JSON object of raw ``time.perf_counter()``
readings (a system-wide monotonic clock on Linux): ``ready`` once
``qsnake.cli`` is imported, so the parent can time set-up from the moment
it spawned this process, and the start and end of every line.  The
parent normalizes them for host speed (speed.py).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import qsnake.cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from workloads import lines_for  # noqa: E402

REPORT_KEYS = {"check", "params", "status", "anchor", "witness"}
STATUSES = {"pass", "fail", "exploratory"}


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qsnake.cli.main(argv)
        except Exception as exc:  # a raising line is counted, not fatal
            rc, error = None, type(exc).__name__
    return rc, error, out.getvalue(), err.getvalue()


def _verdict(argv, rc, error, out, err, path):
    """Check counts and a digest of everything the line produced."""
    text = ""
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
    digest = hashlib.sha256(
        "\0".join([repr(rc), repr(error), out, err, text]).encode()).hexdigest()
    res = {"argv": argv, "rc": rc, "error": error, "digest": digest,
           "checks": 0, "fails": 0, "well_formed": True}
    if error is not None or rc == 2:
        return res
    try:
        reports = json.loads(text)
    except ValueError:
        res["well_formed"] = False
        return res
    ok = isinstance(reports, list) and all(
        isinstance(r, dict) and set(r) == REPORT_KEYS
        and r["status"] in STATUSES for r in reports)
    if ok:
        res["checks"] = len(reports)
        res["fails"] = sum(r["status"] == "fail" for r in reports)
        ok = rc == (1 if res["fails"] else 0)
    res["well_formed"] = ok
    return res


def run(workload, seed, trace, tmpdir):
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    jobs = [(argv, os.path.join(tmpdir, f"line{i}.json"))
            for i, argv in enumerate(lines_for(workload, seed))]
    raw = []
    spans_at = []
    for argv, path in jobs:
        full = argv + ["--json", path]
        t0 = time.perf_counter()
        if tracer is None:
            raw.append(_call(full))
        else:
            raw.append(tracer.line(lambda: _call(full)))
        spans_at.append((t0, time.perf_counter()))
    lines = [_verdict(argv, *got, path) for (argv, path), got in zip(jobs, raw)]
    for _argv, path in jobs:
        if os.path.exists(path):
            os.remove(path)
    result = {
        "ready": READY,
        "spans": spans_at,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "lines": lines,
    }
    if tracer is not None:
        result["self_s"] = tracer.self_s
        result["accounted"] = sum(tracer.self_s.values()) / (
            spans_at[-1][1] - spans_at[0][0])
        result["counts"] = tracer.counts
    return result


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run(argv[0], int(argv[1]), argv[2] == "1", argv[3])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
