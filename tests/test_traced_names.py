"""The benchmark's traced names must exist in qsnake.

perfbench/spans.py lists in TRACED the functions and methods a traced
benchmark run wraps; a name qsnake no longer defines makes that run
fail.  This test reads TRACED only, loading spans.py by path, and wraps
nothing."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves():
    missing = []
    for modname, names in traced_names().items():
        mod = importlib.import_module("qsnake." + modname)
        for name in names:
            if "." in name:
                # a method must be defined on its class itself
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = getattr(mod, name, None) is not None
            if not found:
                missing.append(f"{modname}.{name}")
    assert not missing, missing
