from fractions import Fraction

import numpy as np
import pytest

from qsnake.exactlin import _frac_rank, contract, matrix_rank
from qsnake.lattice import (
    LatticeSpec,
    a_residue_closed,
    embed_pair,
    max_abs_diff,
)
from qsnake.qchar import SnakeSpec, module_dim, snake_qchar
from qsnake.rmat import (
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
    fusion_matrix,
    fusion_operator,
    l1_fusion_check,
    loop_kinds,
    loop_points,
    pole_profile,
    singlet_insertion_check,
    snail_operator,
    snake_rank_check,
)


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
    assert spec.loop_kinds() == ["fbar", "f", "fbar"]
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
    f2 = fusion_matrix(2, 2)
    assert max_abs_diff(f2, 3 * identity_matrix(9) - k_matrix(2)) == 0
    assert _frac_rank(f2) == 8
    f2a = fusion_matrix(1, 2)
    assert max_abs_diff(f2a, vertex_matrix(1, "f", "f", Fraction(1))) == 0
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
        v12 = embed_pair(vertex_matrix(n, k1, k2, h), (0, 1), 3, n)
        v13 = embed_pair(vertex_matrix(n, k1, k3, 2 * h), (0, 2), 3, n)
        v23 = embed_pair(vertex_matrix(n, k2, k3, h), (1, 2), 3, n)
        assert max_abs_diff(v12 @ v13 @ v23, v23 @ v13 @ v12) == 0
        assert max_abs_diff(fusion_matrix(n, 3), v12 @ v13 @ v23) == 0


def test_fusion_exchange_covariance():
    # permuting the first two loop spaces and swapping their data turns
    # the lexicographic product into the rearranged order below
    n = 2
    h = h_shift(n)
    k1, k2, k3 = loop_kinds(n, 3)
    p = embed_pair(permutation_matrix(n), (0, 1), 3, n)
    lhs = p @ fusion_matrix(n, 3) @ p
    rhs = (embed_pair(vertex_matrix(n, k2, k1, h), (0, 1), 3, n)
           @ embed_pair(vertex_matrix(n, k1, k3, 2 * h), (1, 2), 3, n)
           @ embed_pair(vertex_matrix(n, k2, k3, h), (0, 2), 3, n))
    assert max_abs_diff(lhs, rhs) == 0


def test_snake_rank_reports():
    # (3, 3) is the 1024-dim fused product of five loops at rank 3
    frozen = {(2, 1): 3, (1, 1): 2, (1, 2): 4, (2, 2): 21, (3, 3): 780}
    for (n, k), dim in frozen.items():
        rep = snake_rank_check(n, k)
        assert rep.status == "pass", rep.summary()
        assert rep.witness["rank"] == dim
        assert rep.witness["snake_dim"] == dim


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
    assert max_abs_diff(_snail_matrix(spec), a_residue_closed(2, [mu2])) == 0


def test_snail_operator_legs():
    spec = SnailSpec(2, 1, 2, [Fraction(2, 7)])
    t = snail_operator(spec)
    assert [l.label for l in t.legs] == ["s2_out", "s1_out", "s2_in", "s1_in"]


def test_snail_insertion_realization():
    for k in (1, 2):
        spec = SnailSpec(2, k, 2, [Fraction(2, 7)])
        direct = _snail_matrix(spec)
        inserted = _snail_matrix(spec, inserted=True)
        assert max_abs_diff(direct, inserted) == 0


def test_snail_global_invariance():
    one = identity_matrix(3)
    for k in (1, 2):
        spec = SnailSpec(2, k, 2, [Fraction(2, 7)])
        x = _snail_matrix(spec)
        for e, f, h in chevalley_generators(2):
            for g in (e, f, h):
                tot = (embed_pair(np.kron(g, one), (0, 1), 2, 2)
                       + embed_pair(np.kron(one, g), (0, 1), 2, 2))
                assert max_abs_diff(tot @ x, x @ tot) == 0


def test_snail_three_site_window():
    spec = SnailSpec(2, 1, 3, [Fraction(2, 7), Fraction(5, 9)])
    x = _snail_matrix(spec)
    assert x.shape == (27, 27)
    assert max_abs_diff(x, _snail_matrix(spec, inserted=True)) == 0


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
