import sys
from fractions import Fraction

import numpy as np
import pytest

from qsnake import snail, sparse
from qsnake.exactlin import RatFun, _frac_rank, contract, echelon, matrix_rank
from qsnake.lattice import (
    AOperator,
    LatticeSpec,
    _sp_to_dense,
    a_residue_closed,
    a_residue_parts,
    density_matrix,
    embed_pair,
    max_abs_diff,
    seeded_rationals,
)
from qsnake.qchar import SnakeSpec, module_dim, snake_qchar
from qsnake.report import jsonable
from qsnake.rmat import (
    antisym_fusion,
    chevalley_generators,
    h_shift,
    identity_matrix,
    k_matrix,
    permutation_matrix,
    vertex_matrix,
)
from qsnake.snail import (
    SnailSpec,
    _snail_matrix,
    _tower_scalar,
    contraction_order_check,
    fusion_matrix,
    fusion_operator,
    l1_fusion_check,
    loop_kinds,
    loop_points,
    pole_profile,
    singlet_insertion_check,
    snail_operator,
    snail_wellformed_reports,
    snake_rank_check,
)


def dense(sp, n, slots):
    """A sparse row map on `slots` coordinates as a dense array."""
    return _sp_to_dense(sp, (n + 1) ** slots)


def axes_by_label(t, order):
    labels = [l.label for l in t.legs]
    return np.transpose(t.data, [labels.index(x) for x in order])


# ---------------------------------------------------------------------------
# loop bookkeeping

def test_loop_kinds():
    assert loop_kinds(2, 3) == ["fbar", "f", "fbar"]
    assert loop_kinds(3, 4) == ["fbar", "f", "fbar", "f"]
    assert loop_kinds(1, 5) == ["f"] * 5


def test_loop_points_minimal_snake():
    for n, l in ((2, 5), (3, 3), (1, 3), (4, 5)):
        s = SnakeSpec(n, loop_points(n, l))
        assert s.is_snake()
        assert s.is_minimal()


def test_snailspec_validation():
    with pytest.raises(ValueError):
        SnailSpec(0, 1, 2, [Fraction(1, 3)])
    with pytest.raises(ValueError):
        SnailSpec(2, 0, 2, [Fraction(1, 3)])
    with pytest.raises(ValueError):
        SnailSpec(2, 1, 1, [])
    with pytest.raises(ValueError):
        SnailSpec(2, 1, 3, [Fraction(1, 3)])


def test_snailspec_shifts():
    mu = Fraction(2, 7)
    spec = SnailSpec(2, 2, 2, [mu])
    assert spec.loops == 3
    assert loop_kinds(spec.n, spec.loops) == ["fbar", "f", "fbar"]
    h = h_shift(2)
    assert spec.loop_shifts() == [mu - h, mu - 2 * h, mu - 3 * h]


# ---------------------------------------------------------------------------
# pole profiles

def test_pole_profile_examples():
    assert pole_profile(2, 1, 0)[1] == 1
    assert pole_profile(2, 1, 2)[1] == 0
    assert pole_profile(3, 2, 1)[1] == 1


def test_pole_profile_invariant():
    for n in (2, 3, 4):
        for k in (1, 2):
            for l in range(0, n + 1):
                _, order = pole_profile(n, k, l)
                assert order == (1 if l in (0, 1) else 0), (n, k, l)


def test_pole_profile_validation():
    with pytest.raises(ValueError):
        pole_profile(2, 0, 0)
    with pytest.raises(ValueError):
        pole_profile(2, 1, 3)


# ---------------------------------------------------------------------------
# fused loop products

def test_fusion_two_loops():
    f2 = dense(fusion_matrix(2, 2), 2, 2)
    assert max_abs_diff(f2, 3 * dense(identity_matrix(9), 2, 2)
                        - dense(k_matrix(2), 2, 2)) == 0
    assert _frac_rank(f2) == 8
    f2a = dense(fusion_matrix(1, 2), 1, 2)
    assert max_abs_diff(
        f2a, dense(vertex_matrix(1, "f", "f", Fraction(1)), 1, 2)) == 0
    assert _frac_rank(f2a) == 3


def test_fusion_operator_legs():
    t = fusion_operator(2, 3)
    assert [l.label for l in t.legs] == [
        "a1_out", "a2_out", "a3_out", "a1_in", "a2_in", "a3_in"]
    assert all(l.dim == 3 for l in t.legs)


def test_fusion_three_loop_rank():
    t = fusion_operator(2, 3)
    rank = matrix_rank(t, ["a1_out", "a2_out", "a3_out"],
                       ["a1_in", "a2_in", "a3_in"])
    assert rank == 21
    assert module_dim(snake_qchar(2, "odd", 3)) == 21


def test_fusion_lex_equals_reversed():
    # the shift pattern satisfies the difference condition, so the
    # lexicographic and fully reversed pair orders agree
    for n in (1, 2):
        h = h_shift(n)
        kinds = loop_kinds(n, 3)
        (k1, k2, k3) = kinds
        v12 = embed_pair(dense(vertex_matrix(n, k1, k2, h), n, 2),
                         (0, 1), 3, n)
        v13 = embed_pair(dense(vertex_matrix(n, k1, k3, 2 * h), n, 2),
                         (0, 2), 3, n)
        v23 = embed_pair(dense(vertex_matrix(n, k2, k3, h), n, 2),
                         (1, 2), 3, n)
        assert max_abs_diff(v12 @ v13 @ v23, v23 @ v13 @ v12) == 0
        assert max_abs_diff(dense(fusion_matrix(n, 3), n, 3),
                            v12 @ v13 @ v23) == 0


def test_fusion_exchange_covariance():
    # permuting the first two loop spaces and swapping their data turns
    # the lexicographic product into the rearranged order below
    n = 2
    h = h_shift(n)
    k1, k2, k3 = loop_kinds(n, 3)
    p = embed_pair(dense(permutation_matrix(n), n, 2), (0, 1), 3, n)
    lhs = p @ dense(fusion_matrix(n, 3), n, 3) @ p
    rhs = (embed_pair(dense(vertex_matrix(n, k2, k1, h), n, 2), (0, 1), 3, n)
           @ embed_pair(dense(vertex_matrix(n, k1, k3, 2 * h), n, 2),
                        (1, 2), 3, n)
           @ embed_pair(dense(vertex_matrix(n, k2, k3, h), n, 2),
                        (0, 2), 3, n))
    assert max_abs_diff(lhs, rhs) == 0


def test_snake_rank_reports():
    # (3, 3) is the 1024-dim fused product of five loops at rank 3
    frozen = {(2, 1): 3, (1, 1): 2, (1, 2): 4, (2, 2): 21, (3, 3): 780}
    for (n, k), dim in frozen.items():
        rep = snake_rank_check(n, k)
        assert rep.status == "pass", rep.summary()
        assert rep.witness["rank"] == dim
        assert rep.witness["snake_dim"] == dim


def test_snake_rank_at_four_snake_points():
    # (2, 4): the 2,187-dim fused product of seven loops
    rep = snake_rank_check(2, 4)
    assert rep.status == "pass", rep.summary()
    assert rep.witness == {"rank": 987, "snake_dim": 987}


def test_snake_rank_reads_the_fused_product():
    # the check ranks the integer chain; fusion_matrix is that chain
    # over its scale, so both have the check's rank
    for n, k in ((2, 3), (3, 2)):
        l = 2 * k - 1
        rank = len(echelon(fusion_matrix(n, l).values()))
        assert rank == snake_rank_check(n, k).witness["rank"]


def test_singlet_insertion_exploratory():
    rep = singlet_insertion_check(2, 3)
    assert rep.status == "exploratory"
    assert not rep.is_hard_fail()
    assert set(rep.witness) == {"pair_1_2", "pair_2_3"}
    for v in rep.witness.values():
        assert set(v) == {"K.F", "F.K"}


# ---------------------------------------------------------------------------
# the residue tower

def test_snail_agrees_with_single_lowering_assembly():
    mu2 = Fraction(2, 7)
    spec = SnailSpec(2, 1, 2, [mu2])
    assert max_abs_diff(dense(_snail_matrix(spec), 2, 2),
                        dense(a_residue_closed(2, [mu2]), 2, 2)) == 0


def test_tower_check_against_the_formal_lowering_residue():
    # the suite's right side is the lowering level at a formal line
    # parameter, scaled by its scalar and reduced entrywise to the residue
    # at the pole; it must equal the one-level tower at every rank
    for n in range(1, 6):
        for seed in (0, 1):
            reports = {r.check: r for r in snail_wellformed_reports(n, seed)}
            rep = reports["tower against single-level assembly"]
            assert rep.status == "pass", rep.summary()


def inserted_tower(spec):
    """The closed tower with its output line kept as a loop: a
    permutation against one extra coordinate is appended and both are
    closed by the trace.  A on the new coordinate equals tr(A P), so the
    result must equal the tower itself."""
    n, m = spec.n, spec.m
    d = n + 1
    mat = sparse.mul(sparse.extend(_snail_matrix(spec), d),
                     sparse.embed(permutation_matrix(n), (m - 1, m), m + 1, d))
    return sparse.ptrace(mat, m - 1, m + 1, d)


def chain_tower_reference(spec):
    """The tower assembled on one layout of m + 2k - 1 slots, as an
    oracle for the iterated level steps: (direct, inserted).

    Passive site j = 2..m sits on slot m-j, the level-t line on slot
    m-2+t and the output line on the last slot.  The left chains of all
    levels collect descending over levels, K.CR ascending, and every loop
    is traced only at the end; the inserted form first appends a
    permutation against one extra slot and traces the output line too."""
    n, m, mus = spec.n, spec.m, spec.mus
    d = n + 1
    nsl = m + spec.loops
    js = list(range(2, m + 1))
    left = right = identity_matrix(d ** nsl)
    for t, nu in enumerate(spec.loop_shifts(), 1):
        ins = m - 2 + t
        cl = cr = identity_matrix(d ** nsl)
        if t % 2 == 0:  # raising
            for j in js:
                v = vertex_matrix(n, "f", "f", nu - mus[j - 2])
                cl = sparse.mul(cl, sparse.embed(v, (ins, m - j), nsl, d))
            for j in reversed(js):
                v = vertex_matrix(n, "f", "f", mus[j - 2] - nu)
                cr = sparse.mul(cr, sparse.embed(v, (m - j, ins), nsl, d))
            ks = sparse.embed(k_matrix(n), (ins, ins + 1), nsl, d)
        else:  # lowering
            for j in reversed(js):
                v = vertex_matrix(n, "f", "fbar", mus[j - 2] - nu)
                cl = sparse.mul(cl, sparse.embed(v, (m - j, ins), nsl, d))
            for j in js:
                v = vertex_matrix(n, "f", "fbar", nu - mus[j - 2])
                cr = sparse.mul(cr, sparse.embed(v, (m - j, ins), nsl, d))
            ks = sparse.embed(k_matrix(n), (ins + 1, ins), nsl, d)
        left = sparse.mul(cl, left)
        right = sparse.mul(right, sparse.mul(ks, cr))
    big = sparse.mul(left, right)
    _, res = _tower_scalar(spec)
    out = []
    for inserted in (False, True):
        x, slots = big, nsl
        if inserted:
            x = sparse.mul(sparse.extend(x, d),
                           sparse.embed(permutation_matrix(n),
                                        (nsl - 1, nsl), nsl + 1, d))
            slots += 1
        for slot in range(slots - 2, m - 2, -1):
            x = sparse.ptrace(x, slot, slots, d)
            slots -= 1
        out.append(sparse.scale(x, res))
    return out


def test_snail_matches_chain_tower_reference():
    mus = [Fraction(2, 7), Fraction(5, 9)]
    cases = ([(1, k, m) for k in (1, 2, 3) for m in (2, 3)]
             + [(2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3)]
             + [(3, 1, 2), (3, 2, 2)])
    for n, k, m in cases:
        spec = SnailSpec(n, k, m, mus[:m - 1])
        direct, inserted = chain_tower_reference(spec)
        assert _snail_matrix(spec) == direct, (n, k, m)
        assert inserted_tower(spec) == inserted, (n, k, m)


def test_snail_reach_inserted_and_invariant():
    # towers past the reach of the chain layout: the inserted realization
    # agrees, and every diagonal symmetry generator commutes
    mus = [Fraction(2, 7), Fraction(5, 9)]
    for n, k, m in ((2, 4, 2), (2, 5, 2), (3, 3, 2), (2, 3, 3)):
        spec = SnailSpec(n, k, m, mus[:m - 1])
        x = _snail_matrix(spec)
        assert x
        assert inserted_tower(spec) == x, (n, k, m)
        for gens in chevalley_generators(n):
            for g in gens:
                tot = sparse.site_sum([g] * m, n + 1)
                assert sparse.mul(tot, x) == sparse.mul(x, tot), (n, k, m)


def test_snail_operator_legs():
    spec = SnailSpec(2, 1, 2, [Fraction(2, 7)])
    t = snail_operator(spec)
    assert [l.label for l in t.legs] == ["s2_out", "s1_out", "s2_in", "s1_in"]


def test_snail_insertion_realization():
    for k in (1, 2):
        spec = SnailSpec(2, k, 2, [Fraction(2, 7)])
        direct = dense(_snail_matrix(spec), 2, 2)
        inserted = dense(inserted_tower(spec), 2, 2)
        assert max_abs_diff(direct, inserted) == 0


def test_snail_global_invariance():
    one = dense(identity_matrix(3), 2, 1)
    for k in (1, 2):
        spec = SnailSpec(2, k, 2, [Fraction(2, 7)])
        x = dense(_snail_matrix(spec), 2, 2)
        for e, f, h in chevalley_generators(2):
            for g in (dense(e, 2, 1), dense(f, 2, 1), dense(h, 2, 1)):
                tot = (embed_pair(np.kron(g, one), (0, 1), 2, 2)
                       + embed_pair(np.kron(one, g), (0, 1), 2, 2))
                assert max_abs_diff(tot @ x, x @ tot) == 0


def test_snail_three_site_window():
    spec = SnailSpec(2, 1, 3, [Fraction(2, 7), Fraction(5, 9)])
    x = _snail_matrix(spec)
    assert max(x) < 27 and max(max(row) for row in x.values()) < 27
    assert max_abs_diff(dense(x, 2, 3),
                        dense(inserted_tower(spec), 2, 3)) == 0


def test_one_level_tower_residue_is_the_lowering_residue():
    # the k=1 tower scalar is the lowering prefactor shifted by -(n+1)/2,
    # so both residues sit at the same pole and agree
    mus = [Fraction(2, 7), Fraction(5, 9)]
    for n in range(1, 6):
        for m in (2, 3):
            res, _chain = a_residue_parts(n, mus[:m - 1])
            _, tower_res = _tower_scalar(SnailSpec(n, 1, m, mus[:m - 1]))
            assert res == tower_res != 0, (n, m)


def test_snail_pole_collision():
    # equal passive parameters push the pole order past one
    mu = Fraction(2, 7)
    with pytest.raises(ArithmeticError, match="pole order"):
        snail_operator(SnailSpec(2, 1, 3, [mu, mu]))


def test_snail_contraction_order_independence():
    # rebuild the one-level tower as a labeled diagram; two pairing
    # orders must contract to the same tensor as the sparse assembly
    from qsnake.exactlin import tensor_from_matrix
    from qsnake.snail import _tower_scalar

    mu2 = Fraction(2, 7)
    spec = SnailSpec(2, 1, 2, [mu2])
    h = h_shift(2)
    nu = mu2 - h
    _, res = _tower_scalar(spec)
    clmat = vertex_matrix(2, "f", "fbar", mu2 - nu)
    crmat = vertex_matrix(2, "f", "fbar", nu - mu2)
    cr = tensor_from_matrix(crmat, ["cr_s2", "cr_al"], ["s2_in", "al_in"],
                            [3, 3])
    ks = tensor_from_matrix(k_matrix(2), ["k_o", "k_al"],
                            ["o_in", "k_al_in"], [3, 3])
    cl = tensor_from_matrix(clmat, ["s2_out", "cl_al"],
                            ["cl_s2_in", "cl_al_in"], [3, 3])
    pairings = [
        ("cr_al", "k_al_in"),
        ("k_al", "cl_al_in"),
        ("cr_s2", "cl_s2_in"),
        ("cl_al", "al_in"),
    ]
    want = axes_by_label(snail_operator(spec),
                         ["s2_out", "s1_out", "s2_in", "s1_in"])
    for order in (pairings, pairings[::-1]):
        got = contract([cr, ks, cl], order)
        arr = axes_by_label(got, ["s2_out", "k_o", "s2_in", "o_in"]) * res
        assert max_abs_diff(arr, want) == 0


@pytest.mark.parametrize("n", [1, 3])
def test_contraction_order_check_at_rank(n, monkeypatch):
    spec = SnailSpec(n, 1, 2, [Fraction(2, 7)])
    rep = contraction_order_check(spec)
    assert rep.status == "pass" and rep.params["n"] == n
    # a diagram whose residue is off by 2 must fail against the assembly;
    # the assembled operator reads _tower_scalar too, so only the check's
    # own call is doubled
    tower_scalar = snail._tower_scalar

    def doubled_in_the_check(spec):
        red, res = tower_scalar(spec)
        if sys._getframe(1).f_code.co_name == "contraction_order_check":
            res = 2 * res
        return red, res

    monkeypatch.setattr(snail, "_tower_scalar", doubled_in_the_check)
    rep = contraction_order_check(spec)
    assert rep.status == "fail"
    assert rep.witness["residual_forward"] != 0
    assert rep.witness["residual_reversed"] != 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contraction_order_check_catches_miswiring(n, monkeypatch):
    # the check's diagram sits on slots (s2, o, al): CR and CL on (s2, al),
    # K on (o, al), al traced.  K on (s2, al), or the fresh line o traced
    # in place of the loop, must fail in both association orders
    spec = SnailSpec(n, 1, 2, [Fraction(2, 7)])
    embed, ptrace = sparse.embed, sparse.ptrace

    def k_on_the_site(mat, slots, nslots, d):
        return embed(mat, (0, 2) if slots == (1, 2) else slots, nslots, d)

    def fresh_line_traced(a, slot, nslots, d):
        return ptrace(a, 1 if slot == 2 else slot, nslots, d)

    for name, mutant in (("embed", k_on_the_site),
                         ("ptrace", fresh_line_traced)):
        with monkeypatch.context() as m:
            m.setattr(sparse, name, mutant)
            rep = contraction_order_check(spec)
        assert rep.status == "fail", name
        assert rep.witness["residual_forward"] != 0
        assert rep.witness["residual_reversed"] != 0
    assert contraction_order_check(spec).status == "pass"


# ---------------------------------------------------------------------------
# the rank-2 fused window relation

def test_l1_fusion_check_reports():
    spec = LatticeSpec(2, 2, 1, [0, Fraction(2, 7)], [Fraction(3, 11)])
    rep = l1_fusion_check(2, spec, 2)
    assert rep.status == "exploratory"
    assert not rep.is_hard_fail()
    # the left side is exactly antisymmetric on the pair and its rank is
    # bounded by the dual dimension times the remaining window
    assert rep.witness["symmetric_part"] == 0
    assert rep.witness["lhs_rank"] <= rep.witness["rank_bound"] == 3
    spec3 = LatticeSpec(2, 3, 1, [0, Fraction(2, 7), Fraction(5, 9)],
                        [Fraction(3, 11)])
    rep3 = l1_fusion_check(2, spec3, 3)
    assert rep3.status == "exploratory"
    assert rep3.witness["symmetric_part"] == 0
    assert rep3.witness["lhs_rank"] <= rep3.witness["rank_bound"] == 9


def test_l1_fusion_validation():
    spec = LatticeSpec(3, 2, 1, [0, 0], [Fraction(3, 11)])
    with pytest.raises(ValueError):
        l1_fusion_check(3, spec, 2)
    spec2 = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    with pytest.raises(ValueError):
        l1_fusion_check(2, spec2, 3)


# ---------------------------------------------------------------------------
# the sparse row map contract

def assert_sparse_contract(sp, dim):
    """No stored zero, no empty row, every index below dim."""
    for r, row in sp.items():
        assert 0 <= r < dim and row, r
        for c, v in row.items():
            assert 0 <= c < dim and v != 0, (r, c)


def test_sparse_row_map_contract():
    mu2, mu3 = Fraction(2, 7), Fraction(5, 9)
    spec = LatticeSpec(2, 3, 1, [0, mu2, mu3], [Fraction(3, 11)])
    for m in (1, 2, 3):
        for variant in (0, 1):
            win = density_matrix(spec, m, [Fraction(1, 4), mu2, mu3][:m],
                                 variant)
            assert_sparse_contract(win.matrix, 3 ** m)
    beta = Fraction(3, 11)
    h = h_shift(2)
    d0 = density_matrix(spec, 3, [beta, mu2, mu3], 0, (1, 3, 2))
    d1 = density_matrix(spec, 3, [h - beta, mu2, mu3], 1)
    assert_sparse_contract(AOperator(1, 2, beta, [mu2, mu3])(d0).matrix, 27)
    assert_sparse_contract(AOperator(2, 2, beta - h, [mu2, mu3])(d1).matrix,
                           27)
    for k, m, mus in ((1, 2, [mu2]), (2, 2, [mu2]), (1, 3, [mu2, mu3])):
        tower = SnailSpec(2, k, m, mus)
        assert_sparse_contract(_snail_matrix(tower), 3 ** m)
        assert_sparse_contract(inserted_tower(tower), 3 ** m)
    assert_sparse_contract(a_residue_closed(2, [mu2]), 9)
    assert_sparse_contract(a_residue_closed(2, [mu2, mu3]), 27)
    for n, l in ((1, 3), (2, 1), (2, 3), (3, 3)):
        assert_sparse_contract(fusion_matrix(n, l), (n + 1) ** l)
    # the vertex constructors, where a diagonal entry vanishes too: same
    # kinds at 0 and -1, mixed kinds at -h and 1 - h, over Q and Q(x)
    x = RatFun.x()
    for n in (1, 2, 3):
        d = n + 1
        h = h_shift(n)
        args = (Fraction(0), Fraction(-1), -h, 1 - h, Fraction(2, 7), x,
                RatFun.const(-1), RatFun.const(-h), -x - RatFun.const(h))
        for k1 in ("f", "fbar"):
            for k2 in ("f", "fbar"):
                for arg in args:
                    assert_sparse_contract(vertex_matrix(n, k1, k2, arg),
                                           d * d)
        assert_sparse_contract(k_matrix(n), d * d)
        assert_sparse_contract(permutation_matrix(n), d * d)
        for gens in chevalley_generators(n):
            for g in gens:
                assert_sparse_contract(g, d)


def dense_l1_reference(spec, m):
    """The fused window witnesses from dense products, as an oracle."""
    d = 3
    lam = spec.mus[1]
    rest = [spec.mus[j] for j in range(2, m)]
    win = dense(density_matrix(spec, m, [lam - 1, lam] + rest, 0).matrix,
                2, m)
    lhs = embed_pair(dense(vertex_matrix(2, "f", "f", Fraction(-1)), 2, 2),
                     (m - 1, m - 2), m, 2) @ win
    sym = (dense(identity_matrix(9), 2, 2)
           + dense(permutation_matrix(2), 2, 2)) / 2
    sym_part = max(abs(x) for x in
                   (embed_pair(sym, (m - 1, m - 2), m, 2) @ lhs).flat)
    small = dense(density_matrix(spec, m - 1,
                                 [lam - h_shift(2) + 1] + rest, 1).matrix,
                  2, m - 1)
    de_rows, fu_rows = antisym_fusion(2)
    de, fu = dense(de_rows, 2, 2)[:3], dense(fu_rows, 2, 2)[:, :3]
    eye = dense(identity_matrix(d ** (m - 2)), 2, m - 2)
    w = np.full((3, 3), Fraction(0), dtype=object)
    w[2, 0], w[1, 1], w[0, 2] = Fraction(1), Fraction(-1), Fraction(1)

    def transported(wm):
        inv = np.full((3, 3), Fraction(0), dtype=object)
        for a in range(3):
            for b in range(3):
                if wm[a, b] != 0:
                    inv[b, a] = 1 / wm[a, b]
        return np.kron(eye, fu @ inv) @ small @ np.kron(eye, wm @ de)

    rhs = transported(w)
    pairs = list(zip(lhs.flat, rhs.flat))
    ratios = {x / y for x, y in pairs if x != 0 and y != 0}
    mismatch = any((x == 0) != (y == 0) for x, y in pairs)
    return {"residual": max_abs_diff(lhs, rhs),
            "residual_flipped": max_abs_diff(lhs, transported(w[::-1])),
            "constant_ratio": (ratios.pop()
                               if len(ratios) == 1 and not mismatch
                               else None),
            "lhs_rank": _frac_rank(lhs),
            "rank_bound": d ** (m - 1),
            "symmetric_part": sym_part}


def test_l1_fusion_witnesses_match_dense_reference():
    beta = seeded_rationals(61, 1, avoid=[0])[0]
    extra = seeded_rationals(62, 2, avoid=[0, beta])
    for m in (2, 3):
        spec = LatticeSpec(2, m, 1, [Fraction(0)] + extra[:m - 1], [beta])
        got = l1_fusion_check(2, spec, m).witness
        want = dense_l1_reference(spec, m)
        assert got == want
        assert jsonable(got) == jsonable(want)
