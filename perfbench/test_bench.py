"""The benchmark's own tests.

    python3 -m pytest perfbench -q

A later speed claim may rest on a work count only if the count repeats
exactly, so two traced repetitions of every workload at one seed must
give identical counts and identical outputs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS

COUNT_SUFFIXES = ("_calls", "_term_pairs", "_entries", "_nnz", "_terms",
                  "_ops", "_repeats", "_dim_max")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload, tmp_path):
    reps = [run.spawn([workload, "5", "1", str(tmp_path)], 170)
            for _ in range(2)]
    first, second = (rep["counts"] for rep in reps)
    assert set(first) == set(spans.COUNTS)
    assert all(name.endswith(COUNT_SUFFIXES) for name in first)
    assert first == second
    assert any(first.values())
    assert ([line["digest"] for line in reps[0]["lines"]]
            == [line["digest"] for line in reps[1]["lines"]])
    for rep in reps:
        assert 0.95 < rep["accounted"] <= 1.0


def test_wrappers_replace_every_binding():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import qsnake.cli  # noqa: F401
    modules = [m for k, m in sys.modules.items() if k.startswith("qsnake.")]
    originals = []
    for modname, names in spans.TRACED.items():
        mod = sys.modules["qsnake." + modname]
        for name in names:
            if "." not in name:
                originals.append(getattr(mod, name))
    wrapped = spans.install(spans.Tracer())
    assert wrapped == [(modname, name)
                       for modname, names in spans.TRACED.items()
                       for name in names]
    assert set(spans.HOOKS) <= set(wrapped)
    for m in modules:
        for key, value in vars(m).items():
            assert not any(value is orig for orig in originals), (m, key)


def test_missing_traced_name_is_an_error(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", {"exactlin": ("no_such_rank",)})
    with pytest.raises(LookupError, match="exactlin.no_such_rank"):
        spans.install(spans.Tracer())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"][1] == "perfbench/run.py"
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fusion",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
