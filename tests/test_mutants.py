"""Mutants of the mathematics, keyed by the check each one makes fail.

Every row is a small wrong edit of the program, applied by monkeypatch:
a source mutant recompiles one function with one expression replaced,
the others wrap a function's result.  A pass/fail check with no row here
is a check that nothing has yet shown can fail.
"""

import inspect
import math
import textwrap
from fractions import Fraction

import pytest

from qsnake import lattice, permalg, qchar, rmat, snail, sparse
from qsnake.cli import run_subcommand
from qsnake.lattice import rqkz_reports
from qsnake.rmat import rmatrix_reports
from qsnake.snail import pole_reports, snail_reports


def source_mutant(monkeypatch, module, name, old, new):
    """module.name, a function or a "Class.method", recompiled from its
    source with the one occurrence of old replaced by new, in the
    module's namespace."""
    owner, _, attr = name.rpartition(".")
    owner = getattr(module, owner) if owner else module
    src = textwrap.dedent(inspect.getsource(getattr(owner, attr)))
    assert src.count(old) == 1, (name, old)
    scope = {}
    exec(compile(src.replace(old, new), module.__file__, "exec"),
         vars(module), scope)
    monkeypatch.setattr(owner, attr, scope[attr])


def line_plus_beta(monkeypatch):
    # every line's vertex argument p + b instead of p - b
    source_mutant(monkeypatch, lattice, "_strip", "else p - b", "else p + b")


def partner_off_by_one(monkeypatch):
    # the partner line's argument on the antifundamental site b - p - n
    source_mutant(monkeypatch, lattice, "_strip", "b - p - n - 1",
                  "b - p - n")


def outside_power_plus_one(monkeypatch):
    # one outside column too many in the N = 1 fold
    columns = lattice._outside_columns
    monkeypatch.setattr(lattice, "_outside_columns",
                        lambda n, b, k: columns(n, b, k + 1))


def outside_sites_at_one(monkeypatch):
    # the fold puts the outside sites at 1, the environment value at 0
    source_mutant(monkeypatch, lattice, "_outside_columns",
                  "x = -Fraction(b)", "x = 1 - Fraction(b)")


def closed_loop_weight_n(monkeypatch):
    # E closes the loop of a strand it traces with weight n, not n + 1
    source_mutant(monkeypatch, permalg, "trace_last", "delta * t",
                  "(delta - 1) * t")


def cup_cap_loop_weight_n(monkeypatch):
    # the walled product closes a cup-cap loop with weight n, not n + 1
    source_mutant(monkeypatch, permalg, "_walled", "delta * t * u",
                  "(delta - 1) * t * u")


def column_loop_weight_n(monkeypatch):
    # column_partition traces each column's site strand with loop weight n
    source_mutant(monkeypatch, lattice, "column_partition",
                  "permalg.mul(a, b), spec.n + 1)",
                  "permalg.mul(a, b), spec.n)")


def reduction_opposite_edge(monkeypatch):
    # "window reduction" traces the edge strand opposite the site whose
    # label sits at the environment value
    source_mutant(monkeypatch, lattice, "_reduction_residual",
                  "permalg.trace_last if slot else permalg.trace_first",
                  "permalg.trace_first if slot else permalg.trace_last")


def variant_one_site_fundamental(monkeypatch):
    # variant 1 builds its site 1 as a fundamental site
    source_mutant(monkeypatch, lattice, "_strip", '-labels[0], "fbar"',
                  '-labels[0], "f"')


def generators_below_n(monkeypatch):
    # the colour transpositions of nodes 1..n-1 only, none at n = 1; the
    # window and snail suites hold the name invariance too, so it is
    # rebound there
    source_mutant(monkeypatch, rmat, "invariance", "range(1, n + 1)",
                  "range(1, n)")
    for module in (lattice, snail):
        monkeypatch.setattr(module, "invariance", rmat.invariance)


def fbar_slot_undualized(monkeypatch):
    # an antifundamental slot acted on by g, not by its dual -C g^T C
    source_mutant(monkeypatch, rmat, "site_action",
                  'dual if kind == "fbar" else g', "g")


def cross_column_unreversed(monkeypatch):
    # the crossing kernel moves (t, u) to (d-1-u, t): the column digit is
    # not reversed
    source_mutant(monkeypatch, sparse, "cross", "chi * d + d - 1 - t",
                  "chi * d + t")


def crossing_reversed(monkeypatch):
    # every line crosses the window sites in the reverse of its crossing
    source_mutant(monkeypatch, lattice, "_strip",
                  "order = [m - site for site in crossing]",
                  "order = [site - 1 for site in crossing]")


def braid_at_minus_x(monkeypatch):
    # "window exchange relation" braids with P R(-x), on both sides
    source_mutant(monkeypatch, lattice, "lattice_reports",
                  '("f", "f", x, pair)', '("f", "f", -x, pair)')


def fused_shift_plus_one(monkeypatch):
    # every loop pair's vertex one past the loop shift difference
    source_mutant(monkeypatch, snail, "_fusion_chain", "(j - i) * h",
                  "(j - i) * h + 1")


def raising_below_n(monkeypatch):
    # the highest-weight rows killed by the raising maps of nodes 1..n-1
    # only, so the kernel keeps rows that E_n raises; rebound in snail
    source_mutant(monkeypatch, rmat, "highest_weight_rows",
                  "range(1, n + 1)", "range(1, n)")
    monkeypatch.setattr(snail, "highest_weight_rows",
                        rmat.highest_weight_rows)


def kostka_strip_too_wide(monkeypatch):
    # the largest entry's strip may reach one box left of the row below,
    # two boxes in one column; at n = 2 first seen at k = 3, as
    # K((4, 4, 0), (3, 3, 2)) = 2; rebound in snail
    source_mutant(monkeypatch, rmat, "kostka", "range(b, a + 1)",
                  "range(b - 1, a + 1)")
    monkeypatch.setattr(snail, "kostka", rmat.kostka)


def tower_residue_doubled(monkeypatch):
    # the closed tower scaled by twice its residue
    source_mutant(monkeypatch, snail, "_snail_matrix",
                  "sparse.times(pair, res)", "sparse.times(pair, 2 * res)")


def algebra_transposition_negated(monkeypatch):
    # the algebra vertex alpha - beta*(p q): only element-built operators
    # see it, the row-built towers and windows keep rmat's vertices
    source_mutant(monkeypatch, lattice, "_vertex",
                  "s if kind1 == kind2 else -s,",
                  "-(s if kind1 == kind2 else -s),")


def pole_denominator_shifted(monkeypatch):
    # the last denominator family's root one further from the candidate;
    # a numerator mutant cannot fail the sweep, that factor never
    # vanishes at 0
    source_mutant(monkeypatch, snail, "pole_profile",
                  "(j - 1) * (n + 1) + l - 1]",
                  "(j - 1) * (n + 1) + l - 2]")


def rung_root_off_by_one(monkeypatch):
    # each ladder rung's denominator root 1 - Y at 2 - Y
    source_mutant(monkeypatch, rmat, "PrefactorExpr.reduce", "(1 - y, -e)",
                  "(2 - y, -e)")


def character_mutant(monkeypatch, name, old, new):
    """A qchar source mutant, with the snake prefixes built afresh."""
    source_mutant(monkeypatch, qchar, name, old, new)
    monkeypatch.setattr(qchar, "_snake_cache", {})


def chain_reversed(monkeypatch):
    # the fundamental chain listed from its lowest monomial up
    character_mutant(monkeypatch, "_chain", "for j in range(n + 1)]",
                     "for j in reversed(range(n + 1))]")


def snake_without_overshoot(monkeypatch):
    # S_k = S_{k-1} F_{k-1}, without the - S_{k-2} step
    character_mutant(monkeypatch, "snake_qchar",
                     "out = out - prefixes[t - 1]", "out = out")


def pairwise_without_unit(monkeypatch):
    # the staggered products compared with the unbalanced ones, no unit
    character_mutant(monkeypatch, "tsystem_reports",
                     "rhs2 + LaurentCombination.unit()", "rhs2")


def kr_box_too_many(monkeypatch):
    character_mutant(monkeypatch, "kr_qchar", "range(1, k + 1)",
                     "range(1, k + 2)")


def kr_chain_step_three(monkeypatch):
    # box j filled from the chain at shift + 3j instead of shift + 2j
    character_mutant(monkeypatch, "kr_qchar", "shift + 2 * j",
                     "shift + 3 * j")


def product_points_n_plus_three(monkeypatch):
    # the alternating product's points n + 3 apart instead of n + 1
    character_mutant(monkeypatch, "alternating_product",
                     "t * (n + 1)", "t * (n + 3)")


def mutate_factors(monkeypatch, edit):
    """rmat.vertex_chain on edit(factors)."""
    chain_of = rmat.vertex_chain
    monkeypatch.setattr(rmat, "vertex_chain",
                        lambda n, nslots, factors, start=None: chain_of(
                            n, nslots, edit(factors), start))


def mutate_rows(monkeypatch, edit):
    """rmat._vertex_rows with edit(kind1, kind2, rows, s) applied."""
    rows_of = rmat._vertex_rows
    monkeypatch.setattr(rmat, "_vertex_rows",
                        lambda n, k1, k2, x, dw: edit(
                            k1, k2, *rows_of(n, k1, k2, x, dw)))


def argument_edit(slots, change, left_only=False):
    """A factor edit: change(x) for the vertex on slots, on every chain
    or on the Yang-Baxter left-hand sides only."""
    def edit(factors):
        if left_only and factors[:1] and factors[0][3] != (0, 1):
            return factors
        return [(k1, k2, change(x) if at == slots else x, at)
                for k1, k2, x, at in factors]
    return edit


def vertex_edit(kinds, alpha=0, beta=0):
    """A row edit: the vertices of the named kinds (same or mixed) with
    alpha * 1 + beta * B moved by s * (alpha * 1 + beta * B), B = P or K.
    The identity is offset 0 of every row; B's entries are every entry off
    offset 0, and offset 0 on B's diagonal rows, (a, a) of P and
    (a, n - a) of K.  A missing offset 0 (a vanishing weight) is added."""
    def edit(k1, k2, rows, s):
        if (k1 == k2) != (kinds == "same"):
            return rows, s
        d = math.isqrt(len(rows))
        edited = []
        for r, row in enumerate(rows):
            a, b = divmod(r, d)
            diagonal = a == b if kinds == "same" else a + b == d - 1
            entries = {o: w + s * beta if o else w for o, w in row}
            entries[0] = entries.get(0, 0) + s * (
                alpha + (beta if diagonal else 0))
            edited.append(tuple((o, w) for o, w in entries.items() if w))
        return edited, s
    return edit


def diagonal_edit(on):
    """A row edit: s added on the diagonal (offset 0) of each same-kind
    row (a, b) with on(n, a, b), a colour-conserving diagonal map added
    to the vertex."""
    def edit(k1, k2, rows, s):
        if k1 != k2:
            return rows, s
        d = math.isqrt(len(rows))
        edited = []
        for r, row in enumerate(rows):
            entries = dict(row)
            if on(d - 1, *divmod(r, d)):
                entries[0] = entries.get(0, 0) + s
            edited.append(tuple((o, w) for o, w in entries.items() if w))
        return edited, s
    return edit


def same_kind_digit_zero_weight(monkeypatch):
    # a same-kind vertex plus E_00 (x) 1: colour-conserving, not invariant
    mutate_rows(monkeypatch, diagonal_edit(lambda n, a, b: a == 0))


def same_kind_digit_n_weight(monkeypatch):
    # plus E_nn (x) 1, which commutes with E_01 at n >= 2: only the colour
    # transpositions see it
    mutate_rows(monkeypatch, diagonal_edit(lambda n, a, b: a == n))


def same_kind_equal_colours(monkeypatch):
    # plus sum_a E_aa (x) E_aa, which every colour permutation fixes: only
    # E_01 sees it
    mutate_rows(monkeypatch, diagonal_edit(lambda n, a, b: a == b))


def same_kind_digits_n_n(monkeypatch):
    # plus E_nn (x) E_nn: at m = 1 every dominant window row has window
    # digit 0 when it meets a vertex, or line digit 0 in the loop, so no
    # row of the bridge reaches it and only the vertex certificate sees it
    mutate_rows(monkeypatch, diagonal_edit(lambda n, a, b: a == b == n))


def image_weighted_on_digit_n(monkeypatch):
    # every window image plus E_nn on slot 0: colour-conserving and, at
    # n >= 2, commuting with E_01, so of the invariance certificate only
    # the colour transpositions see it
    image = lattice._image

    def weighted(x, variant, d):
        w = d ** (len(next(iter(x))) - 1)
        return sparse.combine((1, image(x, variant, d)), (1, {
            r: {r: 1} for r in range((d - 1) * w, d * w)}))
    monkeypatch.setattr(lattice, "_image", weighted)


def non_dominant_rows_doubled(monkeypatch):
    # vertex_chain doubles each row of its product whose weight, the
    # slots' kinds read off the factors, is not dominant; rebound in
    # every module that holds the name
    chain_of = rmat.vertex_chain

    def doubled(n, nslots, factors, start=None):
        kinds = ["f"] * nslots
        for k1, k2, _x, (p, q) in factors:
            kinds[p], kinds[q] = k1, k2
        w = rmat.weights(n, kinds)
        out, s = chain_of(n, nslots, factors, start)
        return {r: row if list(w[r]) == sorted(w[r], reverse=True) else
                {c: 2 * v for c, v in row.items()}
                for r, row in out.items()}, s
    for module in (rmat, lattice, snail):
        monkeypatch.setattr(module, "vertex_chain", doubled)


def r12_argument_plus_one(monkeypatch):
    mutate_factors(monkeypatch, argument_edit((0, 1), lambda x: x + 1))


def r13_negated_on_the_left(monkeypatch):
    mutate_factors(monkeypatch,
                   argument_edit((0, 2), lambda x: -x, left_only=True))


def mixed_shift_plus_half(monkeypatch):
    mutate_rows(monkeypatch, vertex_edit("mixed", alpha=Fraction(1, 2)))


def same_alpha_plus_s(monkeypatch):
    # (x + 1)*1 + P
    mutate_rows(monkeypatch, vertex_edit("same", alpha=1))


def same_beta_doubled(monkeypatch):
    # x*1 + 2P
    mutate_rows(monkeypatch, vertex_edit("same", beta=1))


def mixed_beta_flipped(monkeypatch):
    # (x + h)*1 + K
    mutate_rows(monkeypatch, vertex_edit("mixed", beta=2))


def characters():
    """The character suites at ranks 2 and 3, snakes of up to 3 points,
    looked up on qchar so that a mutant of a suite itself applies."""
    return (qchar.qchar_fundamental_reports((2, 3))
            + qchar.snake_trio_reports(3) + qchar.tsystem_reports(3)
            + qchar.kr_reports() + qchar.census_reports(3)
            + qchar.factor_reports(3))


def lattice_at(N):
    """lattice at its defaults (n = 2, L <= 3, m <= 3, seed 0), N pairs,
    looked up on lattice so that a mutant of the suite itself applies."""
    return lambda: lattice.lattice_reports(2, 3, N, 3, 0)


def lattice_m1():
    """lattice at n = 2, L <= 3 and m = 1, seed 0."""
    return lattice.lattice_reports(2, 3, 1, 1, 0)


def rqkz_l4():
    return rqkz_reports(2, 4, 1, 0)


def snail_n2():
    """snail at rank 2, k <= 2, seed 0."""
    return snail_reports(2, 2, 0)


def snail_n2_k3():
    """snail --n 2 at its defaults: rank 2, k <= 3, seed 0."""
    return snail_reports(2, 3, 0)


def pole_k2():
    return pole_reports((1, 2))


def rmatrix_n123():
    return rmatrix_reports((1, 2, 3))


# check name -> {mutant: (apply, the run whose reports of the check fail)}
MUTANTS = {
    "fundamental closed form": {
        "chain reversed": (chain_reversed, characters),
    },
    "snake structural trio": {
        "snake without its overshoot step": (snake_without_overshoot,
                                             characters),
    },
    "extended t-system recursion": {
        "snake without its overshoot step": (snake_without_overshoot,
                                             characters),
    },
    "pairwise snake identity": {
        "snake without its overshoot step": (snake_without_overshoot,
                                             characters),
        "pairwise identity without the unit": (pairwise_without_unit,
                                               characters),
    },
    "kirillov-reshetikhin dimensions": {
        "one box too many": (kr_box_too_many, characters),
    },
    "kirillov-reshetikhin t-system": {
        "chain step 3": (kr_chain_step_three, characters),
    },
    "fibonacci census": {
        "product points n + 3 apart": (product_points_n_plus_three,
                                       characters),
    },
    "composition completeness": {
        "snake without its overshoot step": (snake_without_overshoot,
                                             characters),
    },
    "window unit trace": {
        "outside columns to the power k + 1": (outside_power_plus_one,
                                               lattice_at(1)),
        "outside sites folded at 1": (outside_sites_at_one, lattice_at(1)),
        "column traced with loop weight n": (column_loop_weight_n,
                                             lattice_at(1)),
    },
    "window in the permutation basis": {
        "closed loop of weight n": (closed_loop_weight_n, lattice_at(1)),
        "cup-cap loop of weight n": (cup_cap_loop_weight_n, lattice_at(1)),
        "same-kind vertex weighted on digits (n, n)": (same_kind_digits_n_n,
                                                       lattice_m1),
        "same-kind vertex weighted on digit 0": (same_kind_digit_zero_weight,
                                                 lattice_at(1)),
    },
    "window colour conservation": {
        "variant-1 site 1 fundamental": (variant_one_site_fundamental,
                                         lattice_at(1)),
        "fbar slot acted on by g": (fbar_slot_undualized, lattice_at(1)),
        "cross without column reversal": (cross_column_unreversed,
                                          lattice_at(1)),
    },
    "window reduction": {
        "outside sites folded at 1": (outside_sites_at_one, lattice_at(1)),
        "reduction traces the opposite edge strand": (reduction_opposite_edge,
                                                      lattice_at(1)),
    },
    "window global invariance": {
        "same-kind vertex weighted on digit 0": (same_kind_digit_zero_weight,
                                                 lattice_at(2)),
        "same-kind vertex weighted on digit n": (same_kind_digit_n_weight,
                                                 lattice_at(2)),
        "same-kind vertex plus its equal-colour projector": (
            same_kind_equal_colours, lattice_at(2)),
        "generators of nodes below n": (generators_below_n, lattice_at(1)),
        "fbar slot acted on by g": (fbar_slot_undualized, lattice_at(1)),
        "image weighted on digit n": (image_weighted_on_digit_n,
                                      lattice_at(1)),
    },
    "window exchange relation": {
        "crossing reversed": (crossing_reversed, lattice_at(1)),
        "braid at -x": (braid_at_minus_x, lattice_at(1)),
    },
    "window translation covariance": {
        "line argument p + b, N = 1": (line_plus_beta, lattice_at(1)),
        "line argument p + b, N = 2": (line_plus_beta, lattice_at(2)),
    },
    "window difference equations": {
        "partner argument b - p - n": (partner_off_by_one, rqkz_l4),
        "cup-cap loop of weight n": (cup_cap_loop_weight_n, rqkz_l4),
        "ladder rung root 1 - Y at 2 - Y": (rung_root_off_by_one, rqkz_l4),
    },
    "fused loop rank against snake dimension": {
        "loop pair argument one past the shift": (fused_shift_plus_one,
                                                  snail_n2),
        "raising maps of nodes below n": (raising_below_n, snail_n2),
        "kostka strip one box too wide": (kostka_strip_too_wide,
                                          snail_n2_k3),
        "same-kind vertex weighted on digit 0": (same_kind_digit_zero_weight,
                                                 snail_n2),
        "generators of nodes below n": (generators_below_n, snail_n2),
    },
    "fused loop weights against snake character": {
        "loop pair argument one past the shift": (fused_shift_plus_one,
                                                  snail_n2),
        "raising maps of nodes below n": (raising_below_n, snail_n2),
        "kostka strip one box too wide": (kostka_strip_too_wide,
                                          snail_n2_k3),
        "same-kind vertex weighted on digit 0": (same_kind_digit_zero_weight,
                                                 snail_n2),
        "generators of nodes below n": (generators_below_n, snail_n2),
    },
    "tower contraction order": {
        "tower residue doubled": (tower_residue_doubled, snail_n2),
    },
    "tower against single-level assembly": {
        "tower residue doubled": (tower_residue_doubled, snail_n2),
        "algebra vertex with its transposition weight negated": (
            algebra_transposition_negated, snail_n2),
    },
    "fused window invariance": {
        "same-kind vertex weighted on digit 0": (same_kind_digit_zero_weight,
                                                 snail_n2),
        "same-kind vertex weighted on digit n": (same_kind_digit_n_weight,
                                                 snail_n2),
        "same-kind vertex plus its equal-colour projector": (
            same_kind_equal_colours, snail_n2),
        "generators of nodes below n": (generators_below_n, snail_n2),
    },
    "pole profile sweep": {
        "last denominator shifted by one": (pole_denominator_shifted,
                                            pole_k2),
    },
    "vertex yang-baxter": {
        "R12 at x-y+1": (r12_argument_plus_one, rmatrix_n123),
        "R13 at -x on the left": (r13_negated_on_the_left, rmatrix_n123),
        "mixed shift off by 1/2": (mixed_shift_plus_half, rmatrix_n123),
    },
    "vertex unitarity": {
        "same-kind alpha + s": (same_alpha_plus_s, rmatrix_n123),
        "vertex_chain doubles its non-dominant rows": (
            non_dominant_rows_doubled, rmatrix_n123),
    },
    "vertex crossing": {
        "same-kind alpha + s": (same_alpha_plus_s, rmatrix_n123),
        "cross without column reversal": (cross_column_unreversed,
                                          rmatrix_n123),
    },
    "singlet vertex rank": {
        "cross without column reversal": (cross_column_unreversed,
                                          rmatrix_n123),
        "mixed beta + s": (mixed_beta_flipped, rmatrix_n123),
        "mixed shift off by 1/2": (mixed_shift_plus_half, rmatrix_n123),
    },
    "antisymmetrizer idempotent": {
        "same-kind alpha + s": (same_alpha_plus_s, rmatrix_n123),
        "same-kind beta 2s": (same_beta_doubled, rmatrix_n123),
    },
}


def failing(reports):
    return {r.check for r in reports if r.status == "fail"}


@pytest.mark.parametrize("check, mutant", [
    (check, mutant) for check, rows in MUTANTS.items() for mutant in rows])
def test_mutant_fails_its_check(monkeypatch, check, mutant):
    apply, run = MUTANTS[check][mutant]
    reports = run()
    assert check in {r.check for r in reports} and check not in failing(
        reports)
    apply(monkeypatch)
    assert check in failing(run())


def test_every_window_check_has_a_mutant():
    # "window in the permutation basis" runs at N = 1 only
    for N, count in ((1, 7), (2, 6)):
        checks = {r.check for r in lattice_at(N)() if r.status != "exploratory"}
        assert len(checks) == count and checks <= MUTANTS.keys(), checks
    assert {r.check for r in rqkz_l4()} <= MUTANTS.keys()


def test_every_snail_and_pole_check_has_a_mutant():
    checks = {r.check for r in snail_n2() + pole_k2()
              if r.status != "exploratory"}
    assert len(checks) == 6 and checks <= MUTANTS.keys(), checks


def test_every_rmatrix_check_has_a_mutant():
    checks = {r.check for r in rmatrix_n123()}
    assert len(checks) == 5 and checks <= MUTANTS.keys(), checks


def test_every_check_has_a_mutant(capsys):
    # every pass/fail check of `all` at seed 0, and the one that only
    # two horizontal pairs reach
    reports = (run_subcommand("all", {"seed": 0})
               + run_subcommand("lattice", {"N": 2}))
    checks = {r.check for r in reports if r.status != "exploratory"}
    assert len(checks) == 27 and checks <= MUTANTS.keys(), (
        checks - MUTANTS.keys())
    capsys.readouterr()


def test_digit_zero_weight_keeps_colour_and_breaks_invariance(monkeypatch):
    # E_00 (x) 1 is diagonal, so every entry still joins equal weights
    same_kind_digit_zero_weight(monkeypatch)
    bad = failing(lattice_at(2)())
    assert "window global invariance" in bad
    assert "window colour conservation" not in bad


def test_digit_n_weight_commutes_with_e01(monkeypatch):
    # E_nn (x) 1 commutes with E_01 at n >= 2: E_01's commutator alone
    # reads 0 on the vertex, the colour transpositions do not
    same_kind_digit_n_weight(monkeypatch)
    for n in (2, 3):
        kinds = ("f", "f")
        a, s = rmat.vertex_chain(n, 2, [(*kinds, 3, (0, 1))])
        e01 = rmat.site_action(n, kinds, {0: {1: 1}})
        assert sparse.diff((sparse.mul(e01, a), s),
                           (sparse.mul(a, e01), s)) == 0
        assert rmat.invariance(n, [(kinds, (a, s))]) != 0
    bad = failing(lattice_at(2)())
    assert "window global invariance" in bad
    assert "window colour conservation" not in bad


def test_equal_colour_projector_commutes_with_the_transpositions(
        monkeypatch):
    # every colour permutation fixes sum_a E_aa (x) E_aa: with E_01 acting
    # as zero the certificate reads 0 on the vertex, with it not
    same_kind_equal_colours(monkeypatch)
    for n in (1, 2, 3):
        ops = [(kinds, rmat.vertex_chain(n, 2, [(*kinds, 3, (0, 1))]))
               for kinds in (("f", "f"), ("fbar", "fbar"))]
        assert all(rmat.invariance(n, [op]) != 0 for op in ops)
        with monkeypatch.context() as m:
            m.setattr(rmat, "site_action", lambda n, kinds, g: {})
            assert rmat.invariance(n, ops) == 0
    assert "window colour conservation" not in failing(lattice_at(2)())


def test_unreached_vertex_edit_fails_the_bridge_by_its_certificate(
        monkeypatch):
    # E_nn (x) E_nn on the same-kind vertex leaves every dominant row of
    # the m = 1 windows as it was, at n = 1..3: the bridge compares them
    # equal, and fails only because the vertex certificate does
    same_kind_digits_n_n(monkeypatch)
    for n in (1, 2, 3):
        bridges = [r for r in lattice.lattice_reports(n, 3, 1, 1, 0)
                   if r.check == "window in the permutation basis"]
        assert len(bridges) == 2 and all(
            r.status == "fail" and all(r.witness.values()) for r in bridges)


def test_image_weight_fails_the_transposition_step_alone(monkeypatch):
    # on every window "window global invariance" reads under the mutant,
    # E_01's commutator is 0 and the certificate is not
    image_weighted_on_digit_n(monkeypatch)
    calls = []
    monkeypatch.setattr(lattice, "invariance", lambda n, ops: calls.append(
        (n, ops)) or rmat.invariance(n, ops))
    assert "window global invariance" in failing(lattice_at(1)())
    windows = [(n, op) for n, ops in calls[1:] for op in ops]  # [0]: vertices
    assert len(windows) == 4
    for n, (kinds, (a, s)) in windows:
        e01 = rmat.site_action(n, kinds, {0: {1: 1}})
        assert sparse.diff((sparse.mul(e01, a), s),
                           (sparse.mul(a, e01), s)) == 0
        assert rmat.invariance(n, [(kinds, (a, s))]) != 0


def test_non_dominant_row_mutant_fails_vertex_unitarity_in_all(monkeypatch,
                                                              capsys):
    # the risk of building only dominant window rows is a kernel defect
    # on the other rows alone: `all` kills vertex_chain's, by "vertex
    # unitarity" on the full two-slot chains, by the towers, and by the
    # bridge's vertex certificate
    non_dominant_rows_doubled(monkeypatch)
    bad = failing(run_subcommand("all", {"seed": 0}))
    assert {"vertex unitarity", "tower contraction order",
            "window in the permutation basis"} <= bad, bad
    capsys.readouterr()


def test_algebra_vertex_mutant_fails_the_single_level_check_alone(
        monkeypatch):
    # the towers are built on rows, so of the tower checks only the
    # single-level residue, an algebra level, reads lattice._vertex
    algebra_transposition_negated(monkeypatch)
    for n in (1, 2, 3):
        assert failing(snail.snail_wellformed_reports(n, 0)) == {
            "tower against single-level assembly"}, n


def test_kr_chain_step_fails_the_kr_t_system_alone(monkeypatch):
    kr_chain_step_three(monkeypatch)
    assert failing(characters()) == {"kirillov-reshetikhin t-system"}


def test_line_argument_mutant_fails_translation_alone_at_two_pairs(
        monkeypatch):
    line_plus_beta(monkeypatch)
    for N in (1, 2):
        moved = [r for r in lattice_at(N)()
                 if r.check == "window translation covariance"]
        assert len(moved) == 2 and all(
            r.status == "fail" and r.witness["moved"] > 0 for r in moved)
    assert failing(lattice_at(2)()) == {"window translation covariance"}


def test_partner_mutant_fails_every_equation_and_no_window_check(
        monkeypatch):
    partner_off_by_one(monkeypatch)
    assert failing(lattice_at(1)() + lattice_at(2)()) == set()
    equations = rqkz_l4()
    assert len(equations) == 6
    assert all(r.status == "fail" for r in equations)


def reduction_lengths():
    """The strip lengths of the "window reduction" reports of lattice at
    its defaults, through the module's own binding of lattice_reports."""
    return [r.params["L"] for r in lattice.lattice_reports(2, 3, 1, 3, 0)
            if r.check == "window reduction"]


def test_window_reduction_runs_once_per_strip_length():
    assert reduction_lengths() == [2, 3]


def test_a_skipped_reduction_fails_the_count(monkeypatch):
    # the guard mtop >= 2 made mtop > 2 drops the L = 2 reduction while
    # every report that runs still passes: only the count sees it
    source_mutant(monkeypatch, lattice, "lattice_reports",
                  "if mtop >= 2:\n            resid = Fraction(0)\n"
                  "            cases = 0",
                  "if mtop > 2:\n            resid = Fraction(0)\n"
                  "            cases = 0")
    assert failing(lattice.lattice_reports(2, 3, 1, 3, 0)) == set()
    assert reduction_lengths() == [3]
