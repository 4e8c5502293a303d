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


def test_traced_lattice_kernels_are_the_sparse_ones():
    # lattice binds the row-map kernel names the benchmark wraps there to
    # the functions of qsnake.sparse, and _sp_identity to
    # rmat.identity_matrix; only the dense _sp_to_dense is lattice's own
    lattice = importlib.import_module("qsnake.lattice")
    rmat = importlib.import_module("qsnake.rmat")
    names = [name for name in traced_names()["lattice"]
             if name.startswith("_sp_") and name != "_sp_to_dense"]
    bad = [name for name in names
           if getattr(lattice, name).__module__ != "qsnake.sparse"
           and getattr(lattice, name) is not rmat.identity_matrix]
    assert len(names) == 6 and not bad, bad
    assert lattice._sp_identity is rmat.identity_matrix
