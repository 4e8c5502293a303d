"""qsnake modules import only each other's public names, and define
nothing that nothing uses.

Every import statement of src/qsnake, at module level or inside a
function, is read with ast.  A name with a leading underscore is a
module's private helper and must not be imported by another module.  The
command line module parses options and dispatches, so it does not import
numpy; no module imports numpy at module level, so no command line run
loads it (only the dense test oracles do).  The modules import each
other without a cycle.  Every top-level function and class is used
somewhere in src/qsnake outside its own definition, or is wrapped by a
traced benchmark run (perfbench/spans.py TRACED, loaded by path as
test_traced_names does).  No module reads a window's Fraction view, and
none validates with assert, which python -O strips."""

import ast
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from test_golden import ALL_JSON_SHA256

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qsnake"
MODULES = {p.stem for p in SRC.glob("*.py")}

# (importer, source) -> the private names it may import
ALLOWED = {}


def imports():
    """(importer, source module, imported name) for every import; a
    qsnake source is named by its module stem, a plain import by None."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.stem, alias.name, None
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level == 0 and source.startswith("qsnake."):
                    source = source[len("qsnake."):]
                for alias in node.names:
                    if node.level and not source:  # from . import module
                        yield path.stem, alias.name, None
                    else:
                        yield path.stem, source, alias.name


def test_no_private_names_across_modules():
    bad = [f"{imp} imports {src}.{name}" for imp, src, name in imports()
           if src in MODULES and src != imp and name and name[0] == "_"
           and name not in ALLOWED.get((imp, src), ())]
    assert not bad, bad


def test_sparse_imports_only_exactlin():
    # the row-map kernels sit below every module that builds operators
    sources = {src for imp, src, _name in imports() if imp == "sparse"}
    assert sources & MODULES == {"exactlin"}
    assert not [src for src in sources if src.split(".")[0] == "numpy"]


def test_only_rmat_imports_the_symmetry_action():
    # every symmetry check reads rmat.invariance or rmat.weights
    bad = [f"{imp} imports {name}" for imp, _src, name in imports()
           if imp != "rmat" and name in ("chevalley_generators", "site_action")]
    assert not bad, bad


def test_cli_does_not_import_numpy():
    assert not [src for imp, src, _name in imports()
                if imp == "cli" and src.split(".")[0] == "numpy"]


def test_no_module_level_numpy_import():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            bad += [f"{path.stem}: {name}" for name in names
                    if name.split(".")[0] == "numpy"]
    assert not bad, bad


def _without_numpy(code, *argv):
    """Run code in a fresh interpreter in which importing numpy fails."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['numpy'] = None\n"
         + code, *argv], capture_output=True, env=env, timeout=300)


def test_cli_runs_without_numpy():
    out = _without_numpy("import qsnake.cli\n"
                         "assert sys.modules['numpy'] is None")
    assert out.returncode == 0, out.stderr.decode()
    run = "from qsnake.cli import main\nsys.exit(main(sys.argv[1:]))"
    out = _without_numpy(run, "all", "--json", "-", "--seed", "0")
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == ALL_JSON_SHA256
    out = _without_numpy(run, "snail", "--n", "3", "--max-k", "2")
    assert out.returncode == 0, out.stderr.decode()


def test_no_module_reads_the_fraction_view_of_a_window():
    # DensityWindow.matrix stays for the tests and the benchmark's window
    # hook; every check in src/qsnake reads the integer pair
    bad = [f"{path.stem}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
           for node in ast.walk(ast.parse(path.read_text(), str(path)))
           if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert not bad, bad


def test_no_assert_statement():
    bad = [f"{path.stem}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
           for node in ast.walk(ast.parse(path.read_text(), str(path)))
           if isinstance(node, ast.Assert)]
    assert not bad, bad


def test_no_import_cycle():
    graph = {m: set() for m in MODULES}
    for imp, src, _name in imports():
        if src in MODULES and src != imp:
            graph[imp].add(src)
    done, path = set(), []

    def visit(m):
        assert m not in path, " -> ".join(path + [m])
        if m not in done:
            path.append(m)
            for nxt in sorted(graph[m]):
                visit(nxt)
            path.pop()
            done.add(m)

    for m in sorted(graph):
        visit(m)


def test_every_definition_is_used_or_traced():
    spec = importlib.util.spec_from_file_location(
        "traced_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {(mod, name.split(".")[0])
              for mod, names in spans.TRACED.items() for name in names}
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    used = {}  # name -> ids of the definitions whose body uses it
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                used.setdefault(name, set()).add(id(top))
    unused = [f"{mod}.{top.name}" for mod, tree in trees.items()
              for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and not used.get(top.name, set()) - {id(top)}
              and (mod, top.name) not in traced]
    assert not unused, unused
