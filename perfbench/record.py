"""Record the benchmark's figures and their run-to-run spread.

    python3 perfbench/record.py [--out FILE]

Makes one run per workload at each of the seeds 1-10, one run at a time
and ``run_seconds`` long (from BENCHMARK.json), and prints for every
end-to-end metric the median of the runs and their spread: the distance
between the first and third quartiles of ``statistics.quantiles(values,
n=4)`` as a share of the median.  The raw wall-clock ``verify`` of each
run (median of its repetitions, host speed not taken out) is summarised
beside them.  One traced run per workload, at seed 0, is added and its
per-layer metrics are printed.  ``--out`` writes everything as JSON.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEED = 0


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def flat(result):
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out.update({k: v["value"] for k, v in result["metrics"].items()})
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            r, values = run.bench(workload, seed, seconds, False)
            runs.append({"seed": seed, **flat(run.result(r, values, False)),
                         "verify_wall_s": statistics.median(
                             rep["verify_wall_s"] for rep in r.plain)})
            print(workload, runs[-1], file=sys.stderr, flush=True)
        names = [k for k in runs[0] if k not in
                 ("seed", "correct", "attempted", "failed")]
        r, values = run.bench(workload, TRACE_SEED, seconds, True)
        record["workloads"][workload] = {
            "runs": runs,
            "summary": {k: summary([x[k] for x in runs]) for k in names},
            "traced": {"seed": TRACE_SEED,
                       **flat(run.result(r, values, True))},
        }
        units = dict(run.END_TO_END, verify_wall_s="s")
        for k, s in record["workloads"][workload]["summary"].items():
            print(f"{workload:10s} {k:14s} median {s['median']:.4f} "
                  f"{units[k]} spread {s['spread']:.4f}")
        for k, unit in run.per_layer_units().items():
            print(f"{workload:10s} {k} {values[k]:.6g} {unit} "
                  f"(traced, seed {TRACE_SEED})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
