import hashlib
import importlib.util
import os
import re
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qsnake import cli, loopring, qchar
from qsnake.cli import (
    emit,
    main,
    run_subcommand,
)
from qsnake.lattice import AOperator, seeded_rationals
from qsnake.report import VerificationReport
from qsnake.rmat import h_shift
from qsnake.snail import POLE_ANCHOR, expected_pole_order

ROOT = Path(__file__).resolve().parents[1]


def bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_seeded_rationals_deterministic_and_clear():
    a = seeded_rationals(7, 5, avoid=[0, Fraction(1, 3)])
    b = seeded_rationals(7, 5, avoid=[0, Fraction(1, 3)])
    assert a == b
    assert seeded_rationals(8, 5) != seeded_rationals(9, 5)
    # no half-integer differences among drawn values and avoided ones
    vals = a + [Fraction(0), Fraction(1, 3)]
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            assert (x - y).denominator > 2


def test_seeded_rationals_refuses_more_values_than_free_classes():
    # the 22 classes of 2q mod 1 hold one value each; 0 and 1/3 take two
    assert len(seeded_rationals(3, 20, avoid=[0, Fraction(1, 3)])) == 20
    assert len(set(seeded_rationals(3, 22))) == 22
    with pytest.raises(ValueError, match="21 rationals .* 20 are left"):
        seeded_rationals(3, 21, avoid=[0, Fraction(1, 3)])
    with pytest.raises(ValueError, match="23 rationals .* 22 are left"):
        seeded_rationals(3, 23, avoid=[Fraction(1, 11)])


@pytest.mark.parametrize("L, code", [(20, 0), (21, 2)])
def test_lattice_past_twenty_labels_is_refused(L, code):
    # translation covariance draws L labels clear of 0 and beta: at most
    # 20; a 21st is refused at once instead of drawn for ever
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from qsnake.cli import main; "
         "sys.exit(main())", "lattice", "--L", str(L), "--m", "2"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == code, run.stderr
    if code:
        assert run.stderr == "error: --L must be at most 20 for lattice, got 21\n"


@pytest.mark.parametrize("argv, message", [
    (["lattice", "--L", "21", "--m", "4"],
     "--L must be at most 20 for lattice, got 21"),
    (["all", "--L", "21"], "--L must be at most 20 for lattice, got 21"),
    (["rqkz", "--L", "22"], "--L must be at most 21 for rqkz, got 22"),
])
def test_impossible_label_count_is_refused_before_any_suite(argv, message,
                                                            capsys):
    # lattice draws L labels clear of 0 and beta, rqkz L - 1; these lines
    # used to build every smaller L first, and rqkz --L 22 never ended
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("seed", (0, 1, 7))
def test_all_multiplies_no_fraction_map(seed, monkeypatch, capsys):
    # every operator a line multiplies is an integer (map, s) pair or the
    # image of an integer algebra element: no product sees a Fraction or a
    # RatFun entry, the single-level tower residue included
    from qsnake import sparse
    mul, kinds = sparse.mul, set()

    def checked_mul(a, b):
        kinds.update(type(v) for x in (a, b) for row in x.values()
                     for v in row.values())
        return mul(a, b)

    for name, module in list(sys.modules.items()):
        if name == "qsnake" or name.startswith("qsnake."):
            for key, value in list(vars(module).items()):
                if value is mul:
                    monkeypatch.setattr(module, key, checked_mul)
    assert main(["all", "--seed", str(seed)]) == 0
    assert kinds == {int}, kinds
    capsys.readouterr()


def test_cli_products_stay_in_the_packed_digit_range(monkeypatch, capsys):
    # a slot is one memoryview digit; the character lines and all form no
    # product whose exponent bound leaves it, so none takes the exact path
    def refused(*args):
        raise AssertionError("a CLI product left the packed digit range")

    assert struct.calcsize(loopring._DIGIT) * 8 == loopring.W
    monkeypatch.setattr(loopring, "_max_exponent", refused)
    monkeypatch.setattr(loopring.LaurentCombination, "_mul_exact", refused)
    monkeypatch.setattr(qchar, "_snake_cache", {})  # every product runs
    for line in bench_workloads().lines_for("characters", 0):
        assert main(line) == 0
    assert main(["all", "--seed", "0"]) == 0
    capsys.readouterr()


def test_seeded_rationals_avoid_prefactor_degeneration():
    # drawn as the window difference equations draw them: beta clear of
    # the environment value 0, then the passive sites clear of 0 and beta;
    # both window-shift maps must build with a finite nonzero scalar at
    # every rank up to 5 and up to three passive sites
    for n in range(1, 6):
        h = h_shift(n)
        for seed in range(24):
            beta = seeded_rationals(seed, 1, avoid=[0])[0]
            mus = seeded_rationals(seed + 1, 3, avoid=[0, beta])
            for count in (1, 2, 3):
                for which, lam in ((1, beta), (2, beta - h)):
                    op = AOperator(which, n, lam, mus[:count])
                    assert isinstance(op.prefactor, Fraction), op
                    assert op.prefactor != 0, op


def test_seed_with_a_vanishing_window_is_redrawn(capsys):
    # seed 31 draws beta=2/3 and the window label 1/3 at n=2, L=3, where
    # the normalization vanishes; the suite runs again at seed 1031.  The
    # window is built in the permutation basis, whose trace is read before
    # any row map is made, and the message is the one the row route gave
    assert main(["lattice", "--seed", "31"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "lattice: redrawn seed 31: vanishing normalization: n=2 L=3 N=1 "
        "betas=[Fraction(2, 3)] window=[Fraction(1, 3)] variant=0\n")
    assert "14 checks: 14 pass" in captured.out
    assert captured.out.count("seed=1031)") == 14


def test_snake_monomial_listing(capsys):
    assert main(["qchar", "--n", "2", "--snake-l", "3"]) == 0
    out = capsys.readouterr().out
    monomials = [l for l in out.splitlines() if l.startswith("1 Y[")]
    assert len(monomials) == 21
    assert monomials == sorted(monomials)


def test_pole_single(capsys):
    assert main(["pole", "--n", "2", "--k", "1", "--l", "2"]) == 0
    out = capsys.readouterr().out
    assert "pole order 0" in out
    assert main(["pole", "--n", "3", "--k", "2", "--l", "1"]) == 0
    assert "pole order 1" in capsys.readouterr().out
    # the mode reads --max-k as k, as the sweep does
    assert main(["pole", "--l", "1", "--n", "2", "--max-k", "3"]) == 0
    assert "[pass] pole profile (k=3 l=1 n=2)" in capsys.readouterr().out


def test_pole_sweep(capsys):
    assert main(["pole", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "[pass] pole profile sweep" in out


def test_pole_single_and_sweep_state_one_rule(capsys):
    # the single profile and the sweep read their expected order and
    # their anchor from snail, so they agree at every candidate
    n, k = 3, 2
    (sweep,) = run_subcommand("pole", {"n": n, "k": k})
    for l in range(n + 1):
        (one,) = run_subcommand("pole", {"n": n, "k": k, "l": l})
        assert one.anchor == sweep.anchor == POLE_ANCHOR
        assert one.witness["expected"] == expected_pole_order(l)
        assert one.witness["order"] == sweep.witness["orders"][f"k={k},l={l}"]
        assert one.status == "pass"
    capsys.readouterr()


def test_json_byte_identical(tmp_path):
    p1, p2, p3 = (tmp_path / f"r{i}.json" for i in range(3))
    args = ["lattice", "--L", "2", "--seed", "3"]
    assert main(args + ["--json", str(p1)]) == 0
    assert main(args + ["--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert main(["lattice", "--L", "2", "--seed", "4",
                 "--json", str(p3)]) == 0
    assert p1.read_bytes() != p3.read_bytes()


def test_lattice_two_horizontal_pairs(capsys):
    # the staggered pairs +beta, -beta; a second pair used to be refused
    # as a usage error
    assert main(["lattice", "--N", "2", "--L", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 checks: 6 pass, 0 fail" in out
    assert "[pass] window translation covariance (L=2 N=2" in out


def test_lattice_reaches_twelve_sites(capsys):
    # no window is wider than --m, so the suite reaches L = 12 in well
    # under a second
    assert main(["lattice", "--L", "12"]) == 0
    assert "77 checks: 77 pass" in capsys.readouterr().out


def test_scenario_flags_and_precedence(tmp_path, capsys):
    scn = tmp_path / "scn.txt"
    scn.write_text("# window run\nsnake-l=3\nn=2\n")
    assert main(["qchar", "--scenario", str(scn)]) == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if l.startswith("1 Y[")) == 21
    # explicit flags win over the scenario file, on either side of the
    # subcommand
    for argv in (["qchar", "--scenario", str(scn), "--snake-l", "1"],
                 ["--snake-l=1", "--scenario", str(scn), "qchar"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert sum(1 for l in out.splitlines() if l.startswith("1 Y[")) == 3


def test_usage_errors(tmp_path, capsys):
    assert main(["nosuch"]) == 2
    assert main(["qchar", "--parity", "sideways"]) == 2
    assert main(["all", "--scenario", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("bogus=3\n")
    assert main(["all", "--scenario", str(bad)]) == 2
    noteq = tmp_path / "noteq.txt"
    noteq.write_text("just words\n")
    assert main(["all", "--scenario", str(noteq)]) == 2
    capsys.readouterr()


def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys):
    # the target is opened before any suite runs: no summaries, exit 2
    path = tmp_path / "missing" / "out.json"
    assert main(["pole", "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(path) in err


def test_help_exits_zero(capsys):
    # -h or --help anywhere, even beside a usage error, prints the one
    # usage line, built from the subcommand and flag tables
    for argv in (["--help"], ["-h"], ["pole", "-h"],
                 ["--n", "2", "--help", "snail"], ["nosuch", "--bogus", "-h"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1
        assert out.startswith("usage: qsnake {qchar|census|tsystem|rmatrix|"
                              "lattice|rqkz|pole|snail|all} [--n INT] ")
        for flag in ("--snake-l INT", "--max-k INT", "--parity even|odd",
                     "--json PATH", "--scenario PATH"):
            assert f"[{flag}]" in out


@pytest.mark.parametrize("argv, want", [
    (["pole"], {"command": "pole"}),
    (["--n", "3", "pole"], {"command": "pole", "n": 3}),
    (["pole", "--n=3", "--k", "2"], {"command": "pole", "n": 3, "k": 2}),
    (["--max-k=2", "snail", "--n", "1"],
     {"command": "snail", "max_k": 2, "n": 1}),
    (["qchar", "--shift", "-3", "--snake-l", "2"],
     {"command": "qchar", "shift": -3, "snake_l": 2}),
    (["lattice", "--seed=-1"], {"command": "lattice", "seed": -1}),
    (["pole", "--n", "2", "--n", "3", "--n=1"], {"command": "pole", "n": 1}),
    (["all", "--json", "-"], {"command": "all", "json": "-"}),
    (["all", "--json=out.json", "--json", "-"],
     {"command": "all", "json": "-"}),
    (["qchar", "--parity", "odd", "--parity=even"],
     {"command": "qchar", "parity": "even"}),
    (["all", "--scenario", "a.txt"], {"command": "all", "scenario": "a.txt"}),
])
def test_parse_accepted_forms(argv, want):
    unset = dict.fromkeys(("command", *cli.OPTIONS, "json", "scenario"))
    assert cli.parse(argv) == {**unset, **want}


@pytest.mark.parametrize("argv, message", [
    ([], "missing subcommand: qchar, census, tsystem, rmatrix, lattice, "
         "rqkz, pole, snail, all"),
    (["--n", "2"], "missing subcommand: qchar, census, tsystem, rmatrix, "
                   "lattice, rqkz, pole, snail, all"),
    (["nosuch"], "unknown subcommand 'nosuch'"),
    (["pole", "snail"], "unexpected argument 'snail'"),
    (["pole", "--n", "2", "3"], "unexpected argument '3'"),
    (["pole", "--bogus", "2"], "unknown flag '--bogus'"),
    (["pole", "--max_l", "2"], "unknown flag '--max_l'"),
    (["snail", "--max_k=2"], "unknown flag '--max_k'"),
    (["qchar", "--snake", "3"], "unknown flag '--snake'"),
    (["pole", "-n", "2"], "unknown flag '-n'"),
    (["pole", "--n"], "--n expects a value"),
    (["all", "--json", "--seed", "1"], "--json expects a value"),
    (["pole", "--n", "two"], "--n expects an integer, got 'two'"),
    (["pole", "--n=2.5"], "--n expects an integer, got '2.5'"),
    (["pole", "--n="], "--n expects an integer, got ''"),
    (["qchar", "--parity", "sideways"],
     "--parity must be even or odd, got 'sideways'"),
])
def test_parse_usage_errors(argv, message, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.parse(argv)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_emit_exit_codes(capsys, tmp_path):
    ok = VerificationReport("a", {"n": 2}, "pass", "anchor")
    soft = VerificationReport("b", {"n": 2}, "exploratory", "anchor")
    bad = VerificationReport("c", {"n": 2}, "fail", "anchor")
    assert emit([ok, soft], None) == 0
    assert emit([ok, bad], None) == 1
    out = capsys.readouterr().out
    assert "1 fail" in out
    path = tmp_path / "r.json"
    assert emit([bad], str(path)) == 1
    assert '"status": "fail"' in path.read_text()
    capsys.readouterr()


def test_run_subcommand_unknown():
    with pytest.raises(ValueError):
        run_subcommand("nope", {})


def test_all_narrowed(capsys):
    code = main(["all", "--n", "2", "--max-l", "2", "--max-k", "1",
                 "--L", "2", "--N", "1", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 fail" in out
    # stdout as printed before the suite table replaced the if-chain, with
    # the Yang-Baxter line naming its Kronecker base, the k = 1 fused loop
    # weights line beside the k = 1 rank line and the L = 2 "window in the
    # permutation basis" line
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4105712e2e9912db95e4293439f82918a87733a82c9dfaa312b7893e6e1bde96")
    # every hard family shows up even in the narrowed profile
    for name in ("fundamental closed form", "snake structural trio",
                 "extended t-system recursion", "pairwise snake identity",
                 "kirillov-reshetikhin dimensions", "fibonacci census",
                 "composition completeness", "vertex yang-baxter",
                 "pole profile sweep", "window unit trace",
                 "window in the permutation basis",
                 "window difference equations",
                 "fused loop rank against snake dimension",
                 "fused loop weights against snake character",
                 "tower contraction order"):
        assert name in out, name


def test_all_at_two_pairs_names_the_skipped_family(capsys):
    code = main(["all", "--n", "2", "--max-l", "2", "--max-k", "1",
                 "--L", "2", "--N", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "window difference equations" not in captured.out
    assert "[pass] window unit trace (L=2 N=2" in captured.out
    assert captured.err == ("all: skipped rqkz: the window difference "
                            "equations run at N=1\n")


def test_qchar_l_zero_is_the_l_zero_trio(capsys):
    # 0 is a length, not "unset"
    assert main(["qchar", "--n", "2", "--l", "0"]) == 0
    out = capsys.readouterr().out
    assert "[pass] snake structural trio (max_l=0 n=2)" in out
    assert "2 checks: 2 pass" in out


@pytest.mark.parametrize("argv, message", [
    (["lattice", "--N", "0", "--L", "2"],
     "--N must be at least 1 for lattice, got 0"),
    (["pole", "--k", "0", "--n", "2"],
     "--k must be at least 1 for pole, got 0"),
    (["lattice", "--L", "1"], "--L must be at least 2 for lattice, got 1"),
    (["rqkz", "--L", "1"], "--L must be at least 2 for rqkz, got 1"),
    (["census", "--l", "-3"], "--l must be at least 1 for census, got -3"),
    (["pole", "--l", "5", "--n", "2"], "--l must be in 0..2 for pole, got 5"),
    (["pole", "--l", "-1"], "--l must be in 0..2 for pole, got -1"),
    (["all", "--l", "3", "--k", "1"], "all does not read --l"),
    (["all", "--k", "1"], "all does not read --k"),
    (["all", "--snake-l", "3"], "all does not read --snake-l"),
    (["all", "--parity", "odd"], "all does not read --parity"),
    (["all", "--shift", "2"], "all does not read --shift"),
    (["rqkz", "--m", "7"], "rqkz does not read --m"),
    (["rqkz", "--m", "7", "--k", "9", "--shift", "3"],
     "rqkz does not read --k"),
    (["rmatrix", "--L", "3"], "rmatrix does not read --L"),
    (["lattice", "--max-l", "2"], "lattice does not read --max-l"),
    (["tsystem", "--max-k", "2"], "tsystem does not read --max-k"),
    (["snail", "--m", "3"], "snail does not read --m"),
    (["qchar", "--parity", "odd"], "qchar does not read --parity"),
    (["qchar", "--snake-l", "3", "--k", "1"], "qchar does not read --k"),
    (["pole", "--l", "1", "--max-l", "2"], "pole does not read --max-l"),
    (["qchar", "--n", "2", "--snake-l", "3", "--l", "5"],
     "qchar does not read --l"),
    (["qchar", "--snake-l", "3", "--max-l", "5"],
     "qchar does not read --max-l"),
    (["pole", "--l", "1", "--n", "2", "--max-k", "3", "--L", "2"],
     "pole does not read --L"),
])
def test_value_with_no_checks_is_a_usage_error(argv, message, capsys):
    # each of these used to run a default in its place, print "0 checks"
    # (or a vacuous pass) and exit 0, or fail without naming its flag
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_every_workload_line_resolves_its_options(monkeypatch):
    # the benchmark appends --seed to every line, whether the suite draws
    # from it or not; the builders are stubbed, so no check runs
    workloads = bench_workloads()
    for name, runs in cli.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, tuple(
            (flag, lambda o, run=f"{name} {flag}": [run], table)
            for flag, _builder, table in runs))
    lines = [line for w in workloads.WORKLOADS
             for line in workloads.lines_for(w, 7)]
    ran = []
    for line in lines:
        args = cli.parse(line)
        ran += cli.run_subcommand(args["command"], args)
    assert lines and len(ran) == len(lines)
    assert "qchar snake_l" in ran


def test_all_rejects_scenario_options_it_does_not_read(tmp_path, capsys):
    scn = tmp_path / "scn.txt"
    scn.write_text("max-k=1\nsnake-l=3\n")
    assert main(["all", "--scenario", str(scn)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: all does not read --snake-l\n"


def test_snail_max_k_without_n_bounds_every_rank(capsys):
    # the default ranks 1 and 2 used to keep k=2 whatever --max-k said
    assert main(["snail", "--max-k", "1"]) == 0
    ranks = [l for l in capsys.readouterr().out.splitlines()
             if "fused loop rank" in l]
    assert len(ranks) == 2
    assert all("(k=1 loops=1 n=" in l for l in ranks)


def test_snail_towers_run_at_the_rank_asked_for():
    # the towers and the contraction-order diagram used to be built at
    # rank 2 whatever --n said
    reports = {r.check: r for r in run_subcommand("snail",
                                                  {"n": 3, "max_k": 1})}
    for check in ("tower contraction order",
                  "tower against single-level assembly",
                  "fused window invariance"):
        assert reports[check].params["n"] == 3
        assert reports[check].status == "pass"


def test_rqkz_at_four_sites_passes(capsys):
    # the raising equation failed at m=3 here while it was checked on the
    # default crossing; it now runs on windows crossed from site 1 first
    for seed in range(4):
        assert main(["rqkz", "--L", "4", "--seed", str(seed)]) == 0
        assert "6 checks: 6 pass, 0 fail" in capsys.readouterr().out


def test_a_wrong_factor_character_fails_composition_completeness(
        monkeypatch, capsys):
    # shifting the two-point snake factors keeps every dimension but not
    # the character, so only the character sum can catch it; the failure
    # is a fail report and exit 1, not an exception
    right = qchar.snake_qchar

    def shifted(n, parity, l, shift=0):
        return right(n, parity, l, shift + 2 if l == 2 else shift)

    monkeypatch.setattr(qchar, "snake_qchar", shifted)
    reports = qchar.factor_reports(3, (2,))
    assert [r.witness["violations"] for r in reports] == [[1, 3]]
    assert main(["census", "--n", "2", "--l", "2"]) == 1
    out = capsys.readouterr().out
    assert "[fail] composition completeness (max_l=2 n=2)" in out
    assert "[pass] fibonacci census (max_l=2 n=2)" in out

