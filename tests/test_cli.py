from fractions import Fraction

import pytest

from qsnake.cli import (
    emit,
    main,
    run_subcommand,
    seeded_rationals,
)
from qsnake.report import VerificationReport


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


def test_pole_sweep(capsys):
    assert main(["pole", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "[pass] pole profile sweep" in out


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


def test_scenario_flags_and_precedence(tmp_path, capsys):
    scn = tmp_path / "scn.txt"
    scn.write_text("# window run\nsnake-l=3\nn=2\n")
    assert main(["qchar", "--scenario", str(scn)]) == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if l.startswith("1 Y[")) == 21
    # explicit flags win over the scenario file
    assert main(["qchar", "--scenario", str(scn), "--snake-l", "1"]) == 0
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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


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
    # every hard family shows up even in the narrowed profile
    for name in ("fundamental closed form", "snake structural trio",
                 "extended t-system recursion", "pairwise snake identity",
                 "kirillov-reshetikhin dimensions", "fibonacci census",
                 "composition completeness", "vertex yang-baxter",
                 "pole profile sweep", "window unit trace",
                 "window difference equations",
                 "fused loop rank against snake dimension",
                 "tower contraction order"):
        assert name in out, name
