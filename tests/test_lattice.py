import functools
import itertools
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnake import lattice, rmat, sparse
from qsnake.exactlin import RatFun, _frac_rank
from qsnake.lattice import (
    _dense_to_sp,
    _sp_to_dense,
    AOperator,
    DensityWindow,
    LatticeSpec,
    VanishingNormalization,
    a_operator,
    a_prefactor_expr,
    a_residue_closed,
    a_residue_parts,
    colour_conserving,
    column_partition,
    composite_prefactor,
    density_matrix,
    embed_pair,
    lattice_reports,
    level_step,
    max_abs_diff,
    monodromy_matrix,
    ptrace_slot,
    projected_reduction_check,
    reduced_prefactor,
    rqkz_reports,
    seeded_rationals,
    transfer_matrix,
    verify_finite_rqkz,
)
from qsnake.rmat import (
    charge_conj_matrix,
    chevalley_generators,
    h_shift,
    identity_matrix,
    k_matrix,
    permutation_matrix,
    prefactor_reduce,
    vertex_chain,
    vertex_matrix,
)
from qsnake.snail import (SnailSpec, _fusion_chain, _snail_matrix, _tower_scalar,
                          loop_kinds, snail_reports)

GOLDEN = Path(__file__).parent / "golden"

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=7
).filter(lambda q: abs(q.denominator) <= 7)


def seeded_labels(seed, count, taboo=()):
    """Small random rationals avoiding the listed collision values."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        if all(q != t for t in taboo) and q not in out:
            out.append(q)
    return out


def dense(win):
    """A window's sparse row map as a dense array, for the dense oracles."""
    return _sp_to_dense(win.matrix, (win.n + 1) ** win.m)


def exact_chain(n, nslots, factors):
    """vertex_chain's product with its integer scale divided out."""
    chain, scale = vertex_chain(n, nslots, factors)
    return sparse.scale(chain, Fraction(1, scale))


def fraction_chain(n, nslots, factors):
    """The reference vertex product: the vertices embedded and multiplied
    as they are, over Fraction or RatFun entries, clearing no
    denominator."""
    d = n + 1
    return functools.reduce(sparse.mul, (
        sparse.embed(vertex_matrix(n, kind1, kind2, x), slots, nslots, d)
        for kind1, kind2, x, slots in factors), identity_matrix(d ** nslots))


def scalar_matrix(c, dim):
    return np.asarray(
        [[c if i == j else Fraction(0) for j in range(dim)] for i in range(dim)],
        dtype=object,
    )


# ---------------------------------------------------------------------------
# spec validation and helpers

def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0, 1, 1, [0], [0])
    with pytest.raises(ValueError):
        LatticeSpec(2, 2, 1, [0], [0])
    with pytest.raises(ValueError):
        LatticeSpec(2, 1, 2, [0], [0])
    st = LatticeSpec.staggered(2, 2, 4, [0, 0], Fraction(1, 3))
    assert st.betas == [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3),
                        Fraction(-1, 3)]


def test_embed_ptrace_roundtrip():
    # embedding at (0,1) of a two-slot operator is kron with identity
    v = _sp_to_dense(vertex_matrix(2, "f", "f", Fraction(1, 2)), 9)
    emb = embed_pair(v, (0, 1), 3, 2)
    assert max_abs_diff(emb, np.kron(v, _sp_to_dense(identity_matrix(3), 3))) == 0
    # tracing the fresh slot recovers dim * original
    back = ptrace_slot(emb, 2, 3, 2)
    assert max_abs_diff(back, 3 * v) == 0

    # every ordered pair on four slots, reversed ones included (the level
    # chains embed at (m - j, ins)), with an operator that is not
    # symmetric under the swap of its factors: the numpy oracles agree
    # with the sparse kernels, and tracing the other two slots returns
    # d^2 times the operator, its factors swapped when p > q
    rng = random.Random(7)
    for n in (1, 2):
        d = n + 1
        v = np.asarray(
            [[Fraction(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 4))
              for _ in range(d * d)] for _ in range(d * d)], dtype=object)
        swapped = v.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        for p in range(4):
            for q in range(4):
                if p == q:
                    continue
                emb = embed_pair(v, (p, q), 4, n)
                sp = sparse.embed(_dense_to_sp(v), (p, q), 4, d)
                assert max_abs_diff(emb, _sp_to_dense(sp, d ** 4)) == 0
                for slot in range(4):
                    assert max_abs_diff(
                        ptrace_slot(emb, slot, 4, n),
                        _sp_to_dense(sparse.ptrace(sp, slot, 4, d), d ** 3)) == 0
                back, nsl = emb, 4
                for slot in sorted({0, 1, 2, 3} - {p, q}, reverse=True):
                    back = ptrace_slot(back, slot, nsl, n)
                    nsl -= 1
                want = v if p < q else swapped
                assert max_abs_diff(back, d * d * want) == 0


def test_site_sum_matches_kron_sum():
    # one generator per slot, a different one on each, against the dense
    # sum of Kronecker products; a single slot is the generator itself
    one = _sp_to_dense(identity_matrix(3), 3)
    mats = list(chevalley_generators(2)[0])
    e, f, h = (_sp_to_dense(g, 3) for g in mats)
    want = (np.kron(np.kron(e, one), one) + np.kron(np.kron(one, f), one)
            + np.kron(np.kron(one, one), h))
    assert max_abs_diff(_sp_to_dense(sparse.site_sum(mats, 3), 27), want) == 0
    assert max_abs_diff(_sp_to_dense(sparse.site_sum(mats[2:], 3), 3), h) == 0
    assert sparse.site_sum([_dense_to_sp(h - h), _dense_to_sp(e - e)], 3) == {}


def test_dense_to_sp_reads_both_dimensions():
    # a wide array used to be read as its leading square block
    a = np.full((3, 9), Fraction(0), dtype=object)
    a[0, 7] = Fraction(5)
    a[2, 1] = Fraction(1)
    assert _dense_to_sp(a) == {0: {7: 5}, 2: {1: 1}}
    assert _dense_to_sp(a.T) == {7: {0: 5}, 1: {2: 1}}


def test_max_abs_diff_rejects_unequal_shapes():
    a = np.full((2, 2), Fraction(0), dtype=object)
    b = np.full((3, 3), Fraction(0), dtype=object)
    b[2, 2] = Fraction(5)
    with pytest.raises(ValueError, match="shapes"):
        max_abs_diff(a, b)
    with pytest.raises(ValueError, match="shapes"):
        max_abs_diff(b, a)
    assert max_abs_diff(b, np.zeros((3, 3), dtype=object)) == 5


def former_sp_diff(a, b):
    """The former diff kernel, which subtracts every pair of entries."""
    best = Fraction(0)
    for r in set(a) | set(b):
        ra, rb = a.get(r, {}), b.get(r, {})
        for c in set(ra) | set(rb):
            d = abs(ra.get(c, 0) - rb.get(c, 0))
            if d > best:
                best = d
    return best


def test_sp_diff_matches_the_former_formula():
    rng = random.Random(19)

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-4, 4) or 1
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))

    kinds = set()
    for _ in range(400):
        a, b = {}, {}
        for r in range(rng.randint(0, 4)):
            for c in range(rng.randint(0, 5)):
                kind = rng.choice(("equal", "same value", "differ",
                                   "only a", "only b"))
                kinds.add(kind)
                x = entry()
                if kind == "equal":
                    a.setdefault(r, {})[c] = b.setdefault(r, {})[c] = x
                elif kind == "same value":  # an int beside an equal Fraction
                    a.setdefault(r, {})[c] = Fraction(x)
                    b.setdefault(r, {})[c] = int(x) if x == int(x) else x
                elif kind == "differ":
                    a.setdefault(r, {})[c] = x
                    b.setdefault(r, {})[c] = x + entry()
                else:
                    (a if kind == "only a" else b).setdefault(r, {})[c] = x
        got, want = sparse.diff((a, 1), (b, 1)), former_sp_diff(a, b)
        assert got == want and type(got) is Fraction, (a, b)
        assert sparse.diff((b, 1), (a, 1)) == want
    assert kinds == {"equal", "same value", "differ", "only a", "only b"}
    # every difference, none at all included, reads as a Fraction
    m = {0: {1: 2, 3: Fraction(1, 2)}, 4: {0: -1}}
    for a, b, want in ((m, dict(m), 0), ({}, {}, 0), (m, {}, 2)):
        got = sparse.diff((a, 1), (b, 1))
        assert got == want and type(got) is Fraction, (a, b)


def test_pair_diff_is_the_diff_of_the_divided_maps():
    # seeded integer maps with negative entries over unequal, equal and
    # coprime scales, disjoint supports and empty maps: the pair diff is
    # the former diff of the maps divided by their scales
    rng = random.Random(29)
    kinds = set()
    for case in range(300):
        s, t = rng.randint(1, 12), rng.choice((1, 6, rng.randint(1, 30)))
        dim = rng.randint(1, 9)
        a = random_row_map(rng, dim, [rng.randint(-40, 40) for _ in range(5)])
        b = {} if case % 7 == 0 else random_row_map(
            rng, dim, [rng.randint(-40, 40) for _ in range(5)])
        if case % 5 == 0:  # b a multiple of a: equal when t = s * k
            k = rng.randint(1, 3)
            b, t = sparse.scale(a, k), s * k
        if case % 11 == 0:  # disjoint supports: b's rows past a's
            b = {r + dim: row for r, row in b.items()}
        kinds.add(("empty" if not a or not b else "filled",
                   "equal scales" if s == t else "unequal scales",
                   "disjoint" if not a.keys() & b.keys() else "shared"))
        want = former_sp_diff(sparse.scale(a, Fraction(1, s)),
                              sparse.scale(b, Fraction(1, t)))
        got = sparse.diff((a, s), (b, t))
        assert got == want and type(got) is Fraction, (a, s, b, t)
        assert sparse.diff((b, t), (a, s)) == want
    assert {k[1:] for k in kinds if k[0] == "filled"} >= {
        ("equal scales", "shared"), ("unequal scales", "shared"),
        ("unequal scales", "disjoint")}, kinds
    assert any(k[0] == "empty" for k in kinds)
    assert sparse.diff(({0: {0: -3}}, 4), ({0: {0: 3}}, 2)) == Fraction(9, 4)


# ---------------------------------------------------------------------------
# monodromy and transfer

@settings(max_examples=12, deadline=None)
@given(lam=rationals)
def test_monodromy_single_site_is_vertex(lam):
    spec = LatticeSpec(2, 1, 1, [Fraction(1, 5)], [0])
    got = monodromy_matrix(spec, lam)
    # auxiliary slot is the last one; the vertex acts (aux, site)
    want = embed_pair(
        _sp_to_dense(vertex_matrix(2, "f", "f", lam - Fraction(1, 5)), 9),
        (1, 0), 2, 2)
    assert max_abs_diff(got, want) == 0


def test_transfer_single_site_golden():
    spec = LatticeSpec(2, 1, 1, [0], [0])
    got = transfer_matrix(spec, Fraction(1, 2))
    rows = (GOLDEN / "transfer_n2_L1.txt").read_text().strip().splitlines()
    want = np.asarray(
        [[Fraction(x) for x in row.split()] for row in rows], dtype=object)
    assert max_abs_diff(got, want) == 0


@settings(max_examples=8, deadline=None)
@given(lam=rationals)
def test_monodromy_inversion_scalar(lam):
    mus = [Fraction(1, 3), Fraction(-2, 5)]
    spec = LatticeSpec(2, 2, 1, mus, [0])
    t = monodromy_matrix(spec, lam, "T")
    tb = monodromy_matrix(spec, lam, "Tbar")
    c = Fraction(1)
    for mu in mus:
        c *= 1 - (lam - mu) ** 2
    want = scalar_matrix(c, 27)
    assert max_abs_diff(t @ tb, want) == 0
    assert max_abs_diff(tb @ t, want) == 0


def test_transfer_commutation():
    mus = [Fraction(1, 3), Fraction(-2, 5)]
    spec = LatticeSpec(2, 2, 1, mus, [0])
    for lam, nu in ((Fraction(1, 2), Fraction(-1, 7)),
                    (Fraction(2, 9), Fraction(5, 4))):
        t1 = transfer_matrix(spec, lam)
        t2 = transfer_matrix(spec, nu)
        tb = transfer_matrix(spec, nu, "Tbar")
        assert max_abs_diff(t1 @ t2, t2 @ t1) == 0
        assert max_abs_diff(t1 @ tb, tb @ t1) == 0


def test_crossing_relation_on_the_dense_transfer():
    # the antifundamental line at beta - (n+1)/2 is (-1)^L times the
    # fundamental line at beta crossing the sites the other way
    beta = Fraction(2, 7)
    for n in (1, 2, 3):
        for L in (1, 2, 3):
            spec = LatticeSpec(n, L, 1, seeded_labels(n + L, L), [0])
            bar = transfer_matrix(spec, beta - h_shift(n), "T", "fbar")
            back = transfer_matrix(spec, beta, "Tbar", "f")
            assert max_abs_diff(bar, (-1) ** L * back) == 0, (n, L)


def test_rtt_exchange():
    # R_ab(lam-nu) T_a(lam) T_b(nu) = T_b(nu) T_a(lam) R_ab(lam-nu)
    mus = [Fraction(1, 3), Fraction(-2, 5)]
    spec = LatticeSpec(2, 2, 1, mus, [0])
    lam, nu = Fraction(1, 2), Fraction(-1, 7)
    nsl = 4
    ta = monodromy_matrix(spec, lam, aux_slot=2, nslots=nsl)
    tb = monodromy_matrix(spec, nu, aux_slot=3, nslots=nsl)
    r = embed_pair(_sp_to_dense(vertex_matrix(2, "f", "f", lam - nu), 9),
                   (2, 3), nsl, 2)
    assert max_abs_diff(r @ ta @ tb, tb @ ta @ r) == 0


def test_monodromy_direction_validation():
    spec = LatticeSpec(2, 1, 1, [0], [0])
    with pytest.raises(ValueError):
        monodromy_matrix(spec, Fraction(1), direction="sideways")


# ---------------------------------------------------------------------------
# window operators

def test_density_unit_trace():
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    w = seeded_labels(5, 2)
    for variant in (0, 1):
        win = density_matrix(spec, 2, w, variant)
        assert win.trace() == 1
        assert win.variant == variant
        assert win.site_labels == w
    spec3 = LatticeSpec(3, 2, 1, [0, 0], [Fraction(2, 7)])
    assert density_matrix(spec3, 1, [Fraction(1, 5)]).trace() == 1


def test_density_homogeneous_single_site():
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    win = density_matrix(spec, 1, [0], 0)
    assert max_abs_diff(dense(win), scalar_matrix(Fraction(1, 3), 3)) == 0


def test_density_site_kinds():
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    win = density_matrix(spec, 2, [Fraction(1, 4), Fraction(1, 5)], 1)
    assert win.site_kind(1) == "fbar"
    assert win.site_kind(2) == "f"


def test_density_validation():
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    with pytest.raises(ValueError):
        density_matrix(spec, 3, [0, 0, 0])
    with pytest.raises(ValueError):
        density_matrix(spec, 2, [0])
    with pytest.raises(ValueError):
        density_matrix(spec, 2, [0, 0], variant=2)
    # the crossing must order the window sites
    for crossing in ((1,), (1, 1), (1, 3), (0, 1, 2)):
        with pytest.raises(ValueError, match="does not order"):
            density_matrix(spec, 2, [0, 0], crossing=crossing)
    assert density_matrix(spec, 2, [0, 0]).crossing == (2, 1)
    with pytest.raises(ValueError):
        DensityWindow(2, 2, 0, (identity_matrix(9), 1), [0])
    # indices must fit d^m coordinates
    with pytest.raises(ValueError, match="outside"):
        DensityWindow(2, 1, 0, ({0: {3: 1}}, 1), [0])
    with pytest.raises(ValueError, match="outside"):
        DensityWindow(2, 1, 0, ({3: {0: 1}}, 1), [0])
    # the scale is a positive int
    for scale in (0, -3, Fraction(1, 2), 1.0):
        with pytest.raises(ValueError, match="positive int"):
            DensityWindow(2, 1, 0, (identity_matrix(3), scale), [0])


def test_density_vanishing_normalization():
    # single site, label at beta - 1/(n+1), variant 0: the pair is the
    # fundamental line squared, and that line, tr_a R(p - beta) =
    # ((n+1)(p - beta) + 1) times the identity, vanishes
    spec = LatticeSpec(2, 1, 1, [0], [Fraction(3, 11)])
    with pytest.raises(ArithmeticError, match="vanishing normalization"):
        density_matrix(spec, 1, [Fraction(-2, 33)], 0)


def torus_line(n, kinds, params, aux_kind, lam, order, chain):
    """One traced horizontal line of the reference torus, its vertex
    product built by chain.  A fundamental line crosses the slots in
    order, with the vertex R(param - lam); an antifundamental one crosses
    them in reverse, with the mixed vertex at lam - param on fundamental
    slots and the same-kind vertex at param - lam on antifundamental
    ones."""
    L = len(kinds)
    if aux_kind == "f":
        factors = [(kinds[i], "f", params[i] - lam, (i, L)) for i in order]
    else:
        factors = [(kinds[i], "fbar",
                    lam - params[i] if kinds[i] == "f" else params[i] - lam,
                    (i, L)) for i in reversed(order)]
    return sparse.ptrace(chain(n, L + 1, factors), L, L + 1, n + 1)


def integer_chain(n, nslots, factors):
    """vertex_chain's integer product, its scale left out: a line's
    scale cancels when the window is normalized by its own trace."""
    return vertex_chain(n, nslots, factors)[0]


def reference_window(spec, m, labels, variant, crossing,
                     chain=integer_chain):
    """The window from the torus whose antifundamental lines, at
    beta - (n+1)/2, cross the sites in reverse: the construction that
    density_matrix rewrites by vertex crossing into forward lines,
    normalized by its own trace, summed row by row."""
    n, L = spec.n, spec.L
    params = labels[::-1] + [Fraction(0)] * (L - m)
    kinds = ["f"] * L
    if variant == 1:
        params[m - 1], kinds[m - 1] = -labels[0], "fbar"
    order = [m - site for site in crossing] + list(range(m, L))
    t = functools.reduce(sparse.mul, (
        sparse.mul(torus_line(n, kinds, params, "f", b, order, chain),
                   torus_line(n, kinds, params, "fbar", b - h_shift(n), order,
                              chain))
        for b in spec.betas))
    for slot in range(L - 1, m - 1, -1):
        t = sparse.ptrace(t, slot, slot + 1, n + 1)
    return sparse.scale(t, Fraction(1, sparse.trace(t)))


def torus_strip(n, L, N):
    """A staggered strip with window labels clear of the vertex poles:
    (spec, labels, seed)."""
    seed = 10 * n + L + N
    beta = seeded_rationals(seed, 1, avoid=[0])[0]
    labels = seeded_rationals(seed + 1, L, avoid=[0, beta])
    return LatticeSpec.staggered(n, L, N, [0] * L, beta), labels, seed


def crossing_kinds(m, rng):
    """The default, the raising and a random crossing of m sites."""
    return (tuple(range(m, 0, -1)), (1, *range(m, 1, -1)),
            tuple(rng.sample(range(1, m + 1), m)))


def test_density_matrix_matches_the_reverse_crossing_torus():
    # every m, both variants, the default, raising and a random crossing,
    # at N * (n+1)^(L+1) <= 512 coordinates on the traced torus, which
    # leaves out n = 3 at L = 4
    compared = 0
    for n, L, N in itertools.product((1, 2, 3), (1, 2, 3, 4), (1, 2)):
        if N * (n + 1) ** (L + 1) > 512:
            continue
        spec, labels, seed = torus_strip(n, L, N)
        rng = random.Random(seed)
        for m in range(1, L + 1):
            crossings = set(crossing_kinds(m, rng))
            for crossing, variant in itertools.product(sorted(crossings),
                                                       (0, 1)):
                win = density_matrix(spec, m, labels[:m], variant, crossing)
                assert win.matrix == reference_window(
                    spec, m, labels[:m], variant, crossing), (
                        n, L, N, m, crossing, variant)
                compared += 1
    assert compared == 184
    # one five-site strip, an inner site crossed first
    spec, labels, _seed = torus_strip(2, 5, 1)
    win = density_matrix(spec, 3, labels[:3], 1, (2, 1, 3))
    assert win.matrix == reference_window(spec, 3, labels[:3], 1, (2, 1, 3))


def line_pair_map(d, a, c):
    """a*1 + c*P on two slots of dimension d, zeros left out."""
    out = {}
    for x, y in itertools.product(range(d), repeat=2):
        row = {x * d + y: a}
        row[y * d + x] = row.get(y * d + x, 0) + c
        row = {col: v for col, v in row.items() if v}
        if row:
            out[x * d + y] = row
    return out


def test_outside_columns_are_the_traced_column_chain():
    # one outside column of a one-pair strip, _strip's own vertices traced
    # over the site, is c0*1 + c1*P on the two lines over beta^2, and its
    # k-th power is k products of that map; at b = 0 and b = 2/(n+1),
    # c0 = 0
    for n in (1, 2, 3):
        d = n + 1
        for b in (Fraction(0), Fraction(3, 11), Fraction(-2, 7), Fraction(5),
                  Fraction(2, d)):
            spec = LatticeSpec(n, 2, 1, [0, 0], [b])
            c0, c1, s = lattice._outside_columns(n, b, 1)
            assert s == c1 == b.denominator ** 2
            for variant in (0, 1):
                columns = lattice._strip(spec, 1, [Fraction(1, 4)], variant,
                                         None)[3]
                column = lattice._traced_product(n, 3, columns[1:])
                assert column == (line_pair_map(d, c0, c1), s), (n, b)
            power = line_pair_map(d, 1, 0), 1
            for k in range(1, 6):
                power = sparse.scaled_mul(power, column)
                a, c, sk = lattice._outside_columns(n, b, k)
                assert power == (line_pair_map(d, a, c), sk), (n, b, k)


# wall budget of the folded-window comparison below, which takes about 2 s
# on a 2 vCPU Xeon at 2.0 GHz
FOLDED_WINDOW_BUDGET_S = 20


def test_folded_windows_match_the_torus_up_to_five_outside_sites():
    # at N = 1 the outside sites are folded into a*1 + c*P: every window
    # of L = 5 (n = 1, 2) and L = 6 (n = 1), both variants, the default,
    # raising and a random crossing, so k = L - m runs 0..5
    start = time.monotonic()
    compared = 0
    for n, L in ((1, 5), (2, 5), (1, 6)):
        spec, labels, seed = torus_strip(n, L, 1)
        rng = random.Random(seed)
        for m in range(1, L + 1):
            for crossing, variant in itertools.product(
                    sorted(set(crossing_kinds(m, rng))), (0, 1)):
                win = density_matrix(spec, m, labels[:m], variant, crossing)
                assert win.matrix == reference_window(
                    spec, m, labels[:m], variant, crossing), (
                        n, L, m, crossing, variant)
                assert win.norm == column_partition(spec, m, labels[:m],
                                                    variant, crossing)
                compared += 1
    assert compared == 76
    assert time.monotonic() - start < FOLDED_WINDOW_BUDGET_S


def test_one_pair_windows_build_no_chain_on_the_outside(monkeypatch):
    # at N = 1 no chain is wider than the m window slots and the line; at
    # N = 2 the lines keep every site
    widths = []
    chain = lattice.vertex_chain

    def recording(n, nslots, factors, start=None):
        widths.append(nslots)
        return chain(n, nslots, factors, start)

    monkeypatch.setattr(lattice, "vertex_chain", recording)
    for n, L, N in ((1, 4, 1), (2, 4, 1), (2, 3, 2)):
        spec, labels, _seed = torus_strip(n, L, N)
        for m, variant in itertools.product(range(1, L + 1), (0, 1)):
            widths.clear()
            density_matrix(spec, m, labels[:m], variant)
            assert widths and max(widths) == (m + 1 if N == 1 else L + 1), (
                n, L, N, m, variant, widths)


def test_raising_crossing_at_full_width_is_the_default(monkeypatch):
    # at m = L the crossings (1, L, ..., 2) and (L, ..., 1) go once round
    # the closed ring, so the windows agree and the difference equations
    # build only the default pair
    for n in (1, 2):
        for L in (2, 3, 4):
            spec = rqkz_spec(n, L, 10 * L + L)
            labels = [spec.betas[0]] + spec.mus[1:]
            for variant in (0, 1):
                raised = density_matrix(spec, L, labels, variant,
                                        (1, *range(L, 1, -1)))
                assert raised.matrix == density_matrix(
                    spec, L, labels, variant).matrix, (n, L, variant)
    calls = []

    def counted(*args):
        calls.append(args)
        return density_matrix(*args)

    monkeypatch.setattr(lattice, "density_matrix", counted)
    rep = verify_finite_rqkz(rqkz_spec(2, 3, 33), 3)
    assert rep.status == "pass", rep.summary()
    assert len(calls) == 2


def test_seeded_labels_normalize_at_the_first_seeds():
    # labels drawn as the window suite draws them (beta clear of 0, the
    # window labels clear of 0 and beta) and as the difference equations
    # draw them (first label beta or (n+1)/2 - beta): every window, at
    # every m and in both variants, normalizes.  Seeds 0 and 1 are the
    # ones the pinned reports and the benchmark run at; a seed whose
    # draw does vanish is redrawn by the command line (seed 31, test_cli)
    for seed in range(3):
        for n, max_L in ((1, 4), (2, 4), (3, 3)):
            h = h_shift(n)
            for L in range(2, max_L + 1):
                beta = seeded_rationals(seed + L, 1, avoid=[0])[0]
                spec = LatticeSpec(n, L, 1, [Fraction(0)] * L, [beta])
                labels = seeded_rationals(seed + L + 100, L,
                                          avoid=[0, beta])
                for m in range(1, L + 1):
                    for variant in (0, 1):
                        density_matrix(spec, m, labels[:m], variant)
                for m in range(2, L + 1):
                    sd = seed + 10 * L + m
                    beta = seeded_rationals(sd, 1, avoid=[0])[0]
                    mus = seeded_rationals(sd + 1, m - 1, avoid=[0, beta])
                    spec = LatticeSpec(n, L, 1, [Fraction(0)] * L, [beta])
                    density_matrix(spec, m, [beta] + mus, 0)
                    density_matrix(spec, m, [h - beta] + mus, 1)


def test_density_reduction_traced_site_at_env_value():
    # tracing a window site whose label sits at the environment value 0
    # reproduces the independently built smaller window, at either end
    spec = LatticeSpec(2, 3, 1, [0, 0, 0], [Fraction(3, 11)])
    w2, w3 = seeded_labels(11, 2)
    big = density_matrix(spec, 3, [Fraction(0), w2, w3], 0)
    red = ptrace_slot(dense(big), 2, 3, 2)  # site 1 sits on the last slot
    small = density_matrix(spec, 2, [w2, w3], 0)
    assert max_abs_diff(red, dense(small)) == 0

    big = density_matrix(spec, 3, [w2, w3, Fraction(0)], 0)
    red = ptrace_slot(dense(big), 0, 3, 2)  # site m sits on slot 0
    small = density_matrix(spec, 2, [w2, w3], 0)
    assert max_abs_diff(red, dense(small)) == 0

    big = density_matrix(spec, 3, [w2, w3, Fraction(0)], 1)
    red = ptrace_slot(dense(big), 0, 3, 2)
    small = density_matrix(spec, 2, [w2, w3], 1)
    assert max_abs_diff(red, dense(small)) == 0


def test_density_reduction_both_window_sizes():
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    (w,) = seeded_labels(13, 1)
    big = density_matrix(spec, 2, [Fraction(0), w], 0)
    red = ptrace_slot(dense(big), 1, 2, 2)
    small = density_matrix(spec, 1, [w], 0)
    assert max_abs_diff(red, dense(small)) == 0


def test_window_reports_at_one_site_windows():
    # with windows of one site there is no edge site to trace: no window
    # reduction report is emitted, and the other window reports still run
    for max_m, reductions in ((1, 0), (2, 2)):
        reps = lattice_reports(2, 3, 1, max_m, seed=0)
        checks = [r.check for r in reps]
        assert checks.count("window reduction") == reductions
        for r in reps:
            if r.check == "window reduction":
                assert r.witness["cases"] == 3
        for check in ("window unit trace", "window colour conservation",
                      "window global invariance",
                      "window translation covariance"):
            assert checks.count(check) == 2, check
        assert all(r.status == "pass" for r in reps)


def test_density_exchange_braid():
    # window with adjacent labels swapped equals the braid conjugate
    # P.R(x) ... R(-x).P with x the lower-slot label minus the upper one
    spec = LatticeSpec(2, 3, 1, [0, 0, 0], [Fraction(3, 11)])
    w = [Fraction(2, 7), Fraction(5, 9), Fraction(-1, 4)]
    win = density_matrix(spec, 3, w, 0)
    p = _sp_to_dense(permutation_matrix(2), 9)
    for i in (1, 2):
        ws = list(w)
        ws[i - 1], ws[i] = ws[i], ws[i - 1]
        swapped = density_matrix(spec, 3, ws, 0)
        lo = 3 - (i + 1)  # site i+1 occupies the lower slot
        x = w[i] - w[i - 1]
        braid = embed_pair(p @ _sp_to_dense(vertex_matrix(2, "f", "f", x), 9),
                           (lo, lo + 1), 3, 2)
        inv = embed_pair(_sp_to_dense(vertex_matrix(2, "f", "f", -x), 9) @ p,
                         (lo, lo + 1), 3, 2)
        conj = (braid @ dense(win) @ inv) / (1 - x * x)
        assert max_abs_diff(conj, dense(swapped)) == 0


def test_density_exchange_braid_variant1():
    # swapping the two fundamental sites of a variant-1 window
    spec = LatticeSpec(2, 3, 1, [0, 0, 0], [Fraction(3, 11)])
    w = [Fraction(2, 7), Fraction(5, 9), Fraction(-1, 4)]
    win = density_matrix(spec, 3, w, 1)
    swapped = density_matrix(spec, 3, [w[0], w[2], w[1]], 1)
    p = _sp_to_dense(permutation_matrix(2), 9)
    x = w[2] - w[1]
    braid = embed_pair(p @ _sp_to_dense(vertex_matrix(2, "f", "f", x), 9),
                       (0, 1), 3, 2)
    inv = embed_pair(_sp_to_dense(vertex_matrix(2, "f", "f", -x), 9) @ p,
                     (0, 1), 3, 2)
    conj = (braid @ dense(win) @ inv) / (1 - x * x)
    assert max_abs_diff(conj, dense(swapped)) == 0


def dual_action(g):
    c = _sp_to_dense(charge_conj_matrix(g.shape[0] - 1), g.shape[0])
    return -(c @ g.T @ c)


def test_density_global_invariance():
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    w = seeded_labels(17, 2)
    one = _sp_to_dense(identity_matrix(3), 3)
    for variant in (0, 1):
        win = density_matrix(spec, 2, w, variant)
        for e, f, h in chevalley_generators(2):
            for g in (_sp_to_dense(e, 3), _sp_to_dense(f, 3),
                      _sp_to_dense(h, 3)):
                g_last = dual_action(g) if variant == 1 else g
                tot = (embed_pair(np.kron(g, one), (0, 1), 2, 2)
                       + embed_pair(np.kron(one, g_last), (0, 1), 2, 2))
                assert max_abs_diff(tot @ dense(win), dense(win) @ tot) == 0


def test_density_colour_conserving():
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    w = seeded_labels(19, 2)
    for variant in (0, 1):
        assert colour_conserving(density_matrix(spec, 2, w, variant))
    bad = identity_matrix(9)
    bad[0][4] = Fraction(1)  # weight (2,0,0) against (0,2,0)
    assert not colour_conserving(DensityWindow(2, 2, 0, (bad, 1), [0, 0]))


def test_density_translation_covariance():
    # full-strip window: shifting all labels and beta together is inert
    delta = Fraction(4, 13)
    w = [Fraction(2, 7), Fraction(5, 9)]
    a = density_matrix(LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)]), 2, w, 0)
    b = density_matrix(
        LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11) + delta]), 2,
        [x + delta for x in w], 0)
    assert max_abs_diff(dense(a), dense(b)) == 0


# ---------------------------------------------------------------------------
# window-shift scalars

def test_a_prefactor_reduces_rational():
    x = RatFun.x()
    mus = [Fraction(1, 3), Fraction(-2, 5)]
    want1 = RatFun.const(1)
    want2 = RatFun.const(1)
    h = Fraction(3, 2)
    for mu in mus:
        want1 = want1 / ((x - mu + 1) * (mu - x + 1))
        # the rho ladder leaves one extra rational rung per passive site
        want2 = want2 / ((x - mu + h) * (mu - x + h))
    assert prefactor_reduce(a_prefactor_expr(1, 2, mus)) == want1
    assert prefactor_reduce(a_prefactor_expr(2, 2, mus)) == want2


def test_a_prefactor_validation():
    with pytest.raises(ValueError):
        a_prefactor_expr(3, 2, [0])


def test_composite_prefactor_oracle():
    for n, mus in ((2, [Fraction(1, 3), Fraction(-2, 5)]),
                   (3, [Fraction(1, 4)])):
        x = RatFun.x()
        want = RatFun.const(1)
        for mu in mus:
            w = x - mu
            want = want / (w * (w + 1) * (w - 1) * (w - n - 1))
        assert composite_prefactor(n, mus) == want


def test_composite_matches_operator_scalars():
    mus = [Fraction(1, 3), Fraction(-2, 5)]
    lam = Fraction(7, 8)
    for n in range(1, 6):
        h = Fraction(n + 1, 2)
        up = a_operator(1, n, lam, mus)
        down = a_operator(2, n, lam - h, mus)
        assert (up.prefactor * down.prefactor
                == composite_prefactor(n, mus)(lam)), n


# ---------------------------------------------------------------------------
# window-shift operators

def test_a_operator_validation():
    mus = [Fraction(1, 3)]
    with pytest.raises(ValueError):
        a_operator(3, 2, Fraction(1, 2), mus)
    with pytest.raises(ValueError):
        AOperator(1, 2, Fraction(1, 2), [])
    # first argument colliding with a passive site hits a scalar pole
    with pytest.raises(ArithmeticError, match="collide"):
        a_operator(1, 2, mus[0] + 1, mus)
    op = a_operator(1, 2, Fraction(1, 2), mus)
    spec = LatticeSpec(2, 2, 1, [0, 0], [Fraction(3, 11)])
    with pytest.raises(TypeError):
        op(identity_matrix(9))
    wrong_variant = density_matrix(spec, 2, [Fraction(1, 2), mus[0]], 1)
    with pytest.raises(ValueError):
        op(wrong_variant)
    wrong_m = density_matrix(spec, 1, [Fraction(1, 2)], 0)
    with pytest.raises(ValueError):
        op(wrong_m)


def test_a_operator_trace_preserving():
    spec = LatticeSpec(2, 2, 1, [Fraction(3, 11), Fraction(1, 5)],
                       [Fraction(3, 11)])
    beta = spec.betas[0]
    win = density_matrix(spec, 2, [beta, Fraction(1, 5)], 0, (1, 2))
    out = a_operator(1, 2, beta, [Fraction(1, 5)])(win)
    assert out.trace() == 1
    assert out.variant == 1
    assert out.site_labels[0] == Fraction(3, 2) - beta
    assert out.crossing == (1, 2)


def test_finite_rqkz_battery():
    cases = [
        (2, 2, 2, 101),
        (2, 3, 2, 102),
        (2, 3, 3, 103),
        (3, 2, 2, 104),
    ]
    for n, L, m, seed in cases:
        beta = seeded_labels(seed, 1)[0]
        mus = [Fraction(0)] + seeded_labels(seed + 1, L - 1, taboo=[beta])
        spec = LatticeSpec(n, L, 1, mus, [beta])
        rep = verify_finite_rqkz(spec, m)
        assert rep.status == "pass", rep.summary()
        assert rep.witness["eq1_residual"] == 0
        assert rep.witness["eq2_residual"] == 0
        assert rep.check == "window difference equations"
        assert not rep.is_hard_fail()
    # every window size at L = 4, 5, where 3 <= m < L separates the two
    # crossings, drawn as rqkz_reports draws them
    for n in (1, 2):
        for L in (4, 5):
            for m in range(2, L + 1):
                rep = verify_finite_rqkz(rqkz_spec(n, L, 10 * L + m), m)
                assert rep.witness["eq1_residual"] == 0, rep.summary()
                assert rep.witness["eq2_residual"] == 0, rep.summary()


def rqkz_spec(n, L, seed):
    """A one-pair strip whose labels are clear of the vertex poles and
    prefactor collisions, drawn as rqkz_reports draws them."""
    beta = seeded_rationals(seed, 1, avoid=[0])[0]
    mus = [Fraction(0)] + seeded_rationals(seed + 1, L - 1, avoid=[0, beta])
    return LatticeSpec(n, L, 1, mus, [beta])


def test_each_window_equation_fails_in_the_other_crossing():
    # the labels of the first rqkz --L 4 failure, at rank 1: the raising
    # equation holds only on windows crossed from site 1 first, the
    # lowering one only on the default crossing, which ends at site 1
    n, L, m = 1, 4, 3
    beta, mu_rest = Fraction(-11, 5), [Fraction(1, 9), Fraction(4, 3)]
    h = h_shift(n)
    spec = LatticeSpec(n, L, 1, [0] * L, [beta])
    up = AOperator(1, n, beta, mu_rest)
    down = AOperator(2, n, beta - h, mu_rest)
    labels = ([beta] + mu_rest, [h - beta] + mu_rest)
    for crossing, eq1_holds in (((1, 3, 2), True), ((3, 2, 1), False)):
        w0, w1 = (density_matrix(spec, m, labels[v], v, crossing)
                  for v in (0, 1))
        p, q = up.prefactor, down.prefactor
        mat, s = level_step(1, n, beta, mu_rest, w0.pair)
        raised = sparse.scale(mat, p.numerator), s * p.denominator
        mat, s = level_step(2, n, beta - h, mu_rest, w1.pair)
        lowered = sparse.scale(mat, q.numerator), s * q.denominator
        assert (sparse.diff(raised, w1.pair) == 0) == eq1_holds, crossing
        assert (sparse.diff(lowered, w0.pair) == 0) != eq1_holds, crossing
        # each map refuses the crossing its equation fails on
        if eq1_holds:
            assert up(w0).pair == raised
            with pytest.raises(ValueError, match="site 1 last"):
                down(w1)
        else:
            assert down(w1).pair == lowered
            with pytest.raises(ValueError, match="site 1 first"):
                up(w0)


# wall budget of the random window-equation sweep: draws after it is
# spent return without building a strip
SWEEP_BUDGET_S = 30


def test_window_equations_on_random_strips():
    tally = {"run": 0, "vanishing": 0}
    stop = time.monotonic() + SWEEP_BUDGET_S

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 3), L=st.integers(2, 5), data=st.data(),
           seed=st.integers(0, 10 ** 6))
    def sweep(n, L, data, seed):
        m = data.draw(st.integers(2, L), label="m")
        if time.monotonic() > stop:
            return
        try:
            rep = verify_finite_rqkz(rqkz_spec(n, L, seed), m)
        except VanishingNormalization:
            tally["vanishing"] += 1
            return
        tally["run"] += 1
        assert rep.witness["eq1_residual"] == 0, rep.summary()
        assert rep.witness["eq2_residual"] == 0, rep.summary()

    sweep()
    # a vanishing normalization is the only draw skipped, and a rare one
    assert tally["run"] >= 4, tally
    assert tally["vanishing"] * 4 <= tally["run"], tally


def test_vertex_chain_matches_dense_embeddings():
    # the ordered product against products of the dense embed_pair
    # oracle, every prefix of the chain from the empty one up
    for n in (1, 2):
        d = n + 1
        factors = [("f", "f", Fraction(2, 7), (0, 2)),
                   ("f", "fbar", Fraction(-1, 3), (2, 1)),
                   ("fbar", "f", Fraction(5, 4), (1, 0)),
                   ("fbar", "fbar", Fraction(0), (2, 0)),
                   ("f", "f", -h_shift(n), (1, 2))]
        want = scalar_matrix(Fraction(1), d ** 3)
        for k in range(len(factors) + 1):
            if k:
                k1, k2, x, slots = factors[k - 1]
                want = want @ embed_pair(
                    _sp_to_dense(vertex_matrix(n, k1, k2, x), d * d), slots,
                    3, n)
            got = _sp_to_dense(exact_chain(n, 3, factors[:k]), d ** 3)
            assert max_abs_diff(got, want) == 0, (n, k)


def test_reduced_prefactor_is_the_inverse_unitarity_product():
    # each level contributes 1/(c^2 - (x + shift - mu)^2) per passive mu,
    # c = 1 when raising and c = (n+1)/2 when lowering: the inverse
    # unitarity scalars of its two vertices
    rng = random.Random(2024)
    x = RatFun.x()
    for case in range(120):
        n = 1 + case % 5
        mus = seeded_labels(rng.randrange(10 ** 6), rng.randint(1, 3))
        levels = [(rng.choice((1, 2)),
                   Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
                  for _ in range(rng.randint(1, 4))]
        want = RatFun.const(1)
        for which, shift in levels:
            c = 1 if which == 1 else h_shift(n)
            for mu in mus:
                y = x + RatFun.const(shift - mu)
                want = want / (RatFun.const(c * c) - y * y)
        assert reduced_prefactor(n, mus, levels) == want, (n, mus, levels)


def test_finite_rqkz_validation():
    spec = LatticeSpec(2, 2, 2, [0, 0], [Fraction(1, 3), Fraction(-1, 3)])
    with pytest.raises(ValueError):
        verify_finite_rqkz(spec, 2)
    spec1 = LatticeSpec(2, 2, 1, [0, 0], [Fraction(1, 3)])
    with pytest.raises(ValueError):
        verify_finite_rqkz(spec1, 1)
    with pytest.raises(ValueError):
        verify_finite_rqkz(spec1, 3)


def test_a_residue_rank_one():
    # at the pole the chain reads only a one-dimensional functional of
    # the (passive site, consumed line) input pair
    res, chain = a_residue_parts(2, [Fraction(2, 7)])
    assert res != 0
    d = 3
    dim = d ** 3
    dense = np.full((dim, dim), Fraction(0), dtype=object)
    for r, row in chain.items():
        for c, v in row.items():
            dense[r, c] = v * res
    arr = dense.reshape(d, d, d, d, d, d)
    mat = np.transpose(arr, (0, 1, 2, 5, 3, 4)).reshape(dim * d, d * d)
    assert _frac_rank(mat) == 1
    # traced over the consumed line it is the closed residue: the chain's
    # K, the mixed vertex at -(n+1)/2, is -K and its sign is undone
    assert sparse.scale(sparse.ptrace(chain, 1, 3, d), res) == a_residue_closed(
        2, [Fraction(2, 7)])


def test_projected_reduction_exploratory_only():
    spec = LatticeSpec(2, 3, 1, [0, Fraction(1, 5), Fraction(-1, 7)],
                       [Fraction(3, 11)])
    rep = projected_reduction_check(spec, 3)
    assert rep.status == "exploratory"
    assert not rep.is_hard_fail()
    assert "residual" in rep.witness
    with pytest.raises(ValueError):
        projected_reduction_check(spec, 2)


# ---------------------------------------------------------------------------
# fraction-free products against the pure-Fraction reference

def fraction_level_step(which, n, nu, mus, mat):
    """The window-shift level step of level_chain's layout on the
    reference products: CL . mat . K . CR on m+1 slots, the consumed
    slot traced, no scalar."""
    m = len(mus) + 1
    d = n + 1
    kind = "f" if which == 1 else "fbar"
    sites = list(enumerate(mus, 2))
    up = fraction_chain(n, m + 1, [("f", kind, nu - mu, (m - j, m - 1))
                                   for j, mu in sites])
    down = fraction_chain(n, m + 1, [("f", kind, mu - nu, (m - j, m - 1))
                                     for j, mu in reversed(sites)])
    cl, cr = (up, down) if which == 1 else (down, up)
    ks = sparse.embed(k_matrix(n), (m - 1, m), m + 1, d)
    prod = functools.reduce(sparse.mul, (cl, sparse.extend(mat, d), ks, cr))
    return sparse.ptrace(prod, m - 1, m + 1, d)


def entries(mat):
    return [v for row in mat.values() for v in row.values()]


def test_clearing_denominators_is_exact_and_leaves_its_input_alone():
    x = RatFun.x()
    mat = {0: {0: Fraction(1, 6), 2: Fraction(-3, 4)}, 1: {1: 5},
           2: {0: x / 7, 1: Fraction(2)}}
    before = {r: dict(row) for r, row in mat.items()}
    cleared, scale = sparse.integral(mat)
    assert scale == 12
    assert cleared == {0: {0: 2, 2: -9}, 1: {1: 60}, 2: {0: x * 12 / 7, 1: 24}}
    assert [type(v) for v in entries(cleared)] == [int, int, int, RatFun, int]
    assert mat == before and type(mat[0][0]) is Fraction
    # shared maps keep their Fraction entries through the kernels that
    # clear them: the rmat constructors, and a window fed to a level step
    spec = rqkz_spec(2, 2, 22)
    win = density_matrix(spec, 2, [spec.betas[0], spec.mus[1]], 0, (1, 2))
    for shared in (identity_matrix(9), k_matrix(2), win.matrix):
        copy = {r: dict(row) for r, row in shared.items()}
        out, scale = sparse.integral(shared)
        assert out is not shared and shared == copy
        assert all(type(v) is Fraction for v in entries(shared))
        assert all(type(v) is int for v in entries(out))
    window = {r: dict(row) for r, row in win.pair[0].items()}
    level_step(1, 2, spec.betas[0], spec.mus[1:2], win.pair)
    a_operator(1, 2, spec.betas[0], spec.mus[1:2])(win)
    assert win.pair[0] == window
    assert all(type(v) is int for v in entries(win.pair[0]))
    assert all(type(v) is Fraction for v in entries(win.matrix))


def test_clearing_denominators_refuses_inexact_entries():
    # a float, even a whole one, is never truncated through int()
    for bad in (0.5, 2.0, 1e-30, complex(1, 0), "1", None):
        with pytest.raises(TypeError, match="neither rational nor RatFun"):
            sparse.integral({0: {0: Fraction(1, 3), 1: bad}})
    with pytest.raises(TypeError):
        vertex_chain(2, 2, [("f", "f", 0.5, (0, 1))])
    # a map that is not a pair of ints enters a level step through integral
    with pytest.raises(TypeError):
        level_step(2, 1, Fraction(1, 3), [Fraction(2, 7)],
                   sparse.integral({0: {0: 1.0}}))


def test_vertex_chain_equals_the_fraction_reference():
    # random chains with every kind pair, denominators up to 9, the
    # arguments where a vertex diagonal vanishes, and formal arguments
    rng = random.Random(11)
    x = RatFun.x()
    for case in range(90):
        n = 1 + case % 3
        nslots = rng.randint(2, 4)
        args = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)),
                Fraction(0), -h_shift(n), h_shift(n) / 3]
        if case % 5 == 0:
            args.append(x + Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        factors = [(rng.choice(("f", "fbar")), rng.choice(("f", "fbar")),
                    rng.choice(args), tuple(rng.sample(range(nslots), 2)))
                   for _ in range(rng.randint(0, 6))]
        chain, scale = vertex_chain(n, nslots, factors)
        assert scale >= 1 and isinstance(scale, int)
        assert exact_chain(n, nslots, factors) == fraction_chain(
            n, nslots, factors), (n, nslots, factors)
        if not any(isinstance(f[2], RatFun) for f in factors):
            assert all(type(v) is int for v in entries(chain)), factors


def test_density_matrix_equals_the_fraction_reference():
    # every strip with n <= 3, L <= 4, N <= 2, one window size per strip
    # in both variants; the default, raising and random crossings take
    # turns over the strips
    compared = set()
    for index, (n, L, N) in enumerate(
            itertools.product((1, 2, 3), (1, 2, 3, 4), (1, 2))):
        spec, labels, seed = torus_strip(n, L, N)
        m = 1 + index % L
        turn = index % 3
        crossing = crossing_kinds(m, random.Random(seed))[turn]
        for variant in (0, 1):
            win = density_matrix(spec, m, labels[:m], variant, crossing)
            assert win.matrix == reference_window(
                spec, m, labels[:m], variant, crossing, fraction_chain), (
                    n, L, N, m, crossing, variant)
            assert all(type(v) is Fraction for v in entries(win.matrix))
            # the row-summed normalization is the column-summed one
            assert win.norm == column_partition(spec, m, labels[:m],
                                                variant, crossing)
            compared.add((turn, variant))
    assert len(compared) == 6


def test_window_shift_images_equal_the_fraction_reference():
    for n in (1, 2, 3):
        h = h_shift(n)
        for L, m in ((2, 2), (3, 3), (4, 3)):
            spec = rqkz_spec(n, L, 10 * L + m)
            beta, mu_rest = spec.betas[0], spec.mus[1:m]
            raising = (1, *range(m, 1, -1))
            up = a_operator(1, n, beta, mu_rest)
            down = a_operator(2, n, beta - h, mu_rest)
            for op, win in (
                    (up, density_matrix(spec, m, [beta] + mu_rest, 0,
                                        raising)),
                    (down, density_matrix(spec, m, [h - beta] + mu_rest, 1))):
                image = op(win).matrix
                assert image == sparse.scale(fraction_level_step(
                    op.which, n, op.lam1, mu_rest, win.matrix),
                    op.prefactor), (n, L, m, op)
                assert all(type(v) is Fraction for v in entries(image))


def test_snail_towers_equal_the_fraction_reference():
    mus = [Fraction(2, 7), Fraction(5, 9)]
    for n in (1, 2, 3):
        for k in (1, 2):
            for m in (2, 3):
                spec = SnailSpec(n, k, m, mus[:m - 1])
                mat = identity_matrix((n + 1) ** m)
                for t, nu in enumerate(spec.loop_shifts(), 1):
                    mat = fraction_level_step(2 if t % 2 else 1, n, nu,
                                              spec.mus, mat)
                want = sparse.scale(mat, _tower_scalar(spec)[1])
                assert _snail_matrix(spec) == want, (n, k, m)


def test_formal_level_step_equals_the_fraction_reference():
    # a formal line parameter: the lowering level of the tower check on
    # the identity, and a raising level on a window whose denominators
    # scale the RatFun entries
    x = RatFun.x()
    mu = Fraction(2, 7)
    for n in (1, 2):
        spec = rqkz_spec(n, 2, 22)
        win = density_matrix(spec, 2, [spec.betas[0], mu], 0, (1, 2))
        for which, mat in ((2, identity_matrix((n + 1) ** 2)),
                           (1, win.matrix)):
            image, scale = level_step(which, n, x, [mu], sparse.integral(mat))
            assert scale == sparse.integral(mat)[1] and (which == 2 or scale > 1)
            assert sparse.scale(image, Fraction(1, scale)) == (
                fraction_level_step(which, n, x, [mu], mat)), (n, which)


def test_window_residuals_are_fractions():
    # every residual the reports carry is an exact Fraction, never an
    # int left over from the integer products
    reports = (lattice_reports(2, 4, 1, 3, 0) + lattice_reports(1, 3, 2, 3, 1)
               + rqkz_reports(2, 4, 1, 0) + snail_reports(2, 2, 0))

    def residuals(witness):
        for key, v in witness.items():
            if isinstance(v, dict):
                yield from residuals(v)
            elif "residual" in key or key in ("K.F", "F.K", "symmetric_part"):
                yield key, v

    found = [(rep.check, key, v) for rep in reports
             for key, v in residuals(rep.witness)]
    assert len(found) > 20
    assert all(type(v) is Fraction for _check, _key, v in found), [
        f for f in found if type(f[2]) is not Fraction]


def leaves(x):
    """Every scalar inside nested dicts, lists and tuples."""
    if isinstance(x, dict):
        for v in x.values():
            yield from leaves(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from leaves(v)
    else:
        yield x


def test_window_normalizations_are_exact_never_float():
    # a window's trace is an int, so trace / scale would be a float: the
    # norm, column_partition, trace() and every witness figure of the
    # window suites at L <= 4 are ints or Fractions
    for n, L, N in ((1, 4, 1), (2, 4, 1), (2, 3, 2)):
        spec, labels, _seed = torus_strip(n, L, N)
        for m, variant in itertools.product(range(1, L + 1), (0, 1)):
            win = density_matrix(spec, m, labels[:m], variant)
            figures = (win.norm, win.trace(),
                       column_partition(spec, m, labels[:m], variant))
            assert all(type(v) in (int, Fraction) for v in figures), (
                n, L, N, m, variant, figures)
    reports = lattice_reports(2, 4, 1, 4, 0) + rqkz_reports(2, 4, 1, 0)
    figures = [v for rep in reports for v in leaves(rep.witness)
               if not isinstance(v, bool)]
    assert len(figures) > 20
    assert all(type(v) in (int, Fraction) for v in figures), figures


def test_window_suites_hand_the_sparse_kernels_no_fraction(monkeypatch):
    # windows are integer maps over their integer trace, and every check
    # of the window suites compares such pairs: no Fraction reaches the
    # row-map kernels, as a map entry, a scale or a scalar
    calls, offenders = [], []
    for name in ("mul", "ptrace", "scale", "trace", "site_sum", "diff"):
        def wrapped(*args, _kernel=getattr(sparse, name), _name=name):
            calls.append(_name)
            if any(isinstance(v, Fraction) for v in leaves(args)):
                offenders.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(sparse, name, wrapped)
    reports = lattice_reports(2, 4, 1, 4, 1) + rqkz_reports(2, 4, 1, 1)
    assert all(rep.status == "pass" for rep in reports)
    assert set(calls) == {"mul", "ptrace", "scale", "trace", "site_sum",
                          "diff"} and len(calls) > 200
    assert offenders == []


def test_window_checks_fail_on_a_wrong_scale_or_prefactor(monkeypatch):
    # a window scale one past its trace fails "window unit trace", and a
    # window-shift image whose prefactor lost its denominator fails
    # "window difference equations"
    build, shift = lattice.density_matrix, AOperator.__call__

    def off_by_one(*args):
        win = build(*args)
        win.pair = win.pair[0], win.pair[1] + 1
        return win

    def no_denominator(self, win):
        out = shift(self, win)
        assert self.prefactor.denominator > 1
        out.pair = out.pair[0], out.pair[1] // self.prefactor.denominator
        return out

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "density_matrix", off_by_one)
        traces = [rep for rep in lattice_reports(2, 3, 1, 3, 0)
                  if rep.check == "window unit trace"]
    assert len(traces) == 2 and all(rep.status == "fail" for rep in traces)
    assert not any(v for rep in traces for v in rep.witness.values())
    monkeypatch.setattr(AOperator, "__call__", no_denominator)
    equations = rqkz_reports(2, 4, 1, 0)
    assert len(equations) == 6
    assert all(rep.status == "fail" for rep in equations)


# ---------------------------------------------------------------------------
# the structured vertex kernel against the embed-and-multiply route

def embedded_vertex_chain(n, nslots, factors):
    """vertex_chain's former route, kept as its oracle: every vertex map
    built, cleared of denominators, embedded on all d^nslots coordinates
    and multiplied as a general sparse product."""
    d = n + 1
    out = None
    for kind1, kind2, x, slots in factors:
        v, s = sparse.integral(vertex_matrix(n, kind1, kind2, x))
        v = (sparse.embed(v, slots, nslots, d), s)
        out = v if out is None else sparse.scaled_mul(out, v)
    return sparse.integral(identity_matrix(d ** nslots)) if out is None else out


def typed(mat):
    """A row map with each entry's type beside its value."""
    return {r: {c: (v, type(v)) for c, v in row.items()}
            for r, row in mat.items()}


def assert_same_chain(n, nslots, factors):
    got, want = vertex_chain(n, nslots, factors), embedded_vertex_chain(
        n, nslots, factors)
    assert got[1] == want[1] and type(got[1]) is int, (n, nslots, factors)
    assert typed(got[0]) == typed(want[0]), (n, nslots, factors)
    # continued from the pair of a prefix, the chain is the same, and the
    # start pair is left alone
    k = len(factors) // 2
    start = vertex_chain(n, nslots, factors[:k])
    kept = typed(start[0])
    more = vertex_chain(n, nslots, factors[k:], start)
    assert more[1] == got[1] and typed(more[0]) == typed(got[0])
    assert typed(start[0]) == kept


def test_vertex_chain_matches_the_embedded_oracle():
    # seeded chains at n = 1..3 on 2..4 slots: both slot orders, the flip
    # P (same kinds at 0) and -K (mixed kinds at -h) where alpha vanishes,
    # alpha + beta vanishing (x = -1, or x = 1 - h when mixed), negative
    # and fractional arguments, formal and constant RatFun arguments,
    # ints, and the empty chain
    rng = random.Random(17)
    x = RatFun.x()
    seen = set()
    for case in range(240):
        n = 1 + case % 3
        h = h_shift(n)
        nslots = 2 + case // 3 % 3
        points = [Fraction(0), -h, -1, 1 - h, rng.randint(-4, 4),
                  Fraction(rng.randint(-12, 12), rng.randint(1, 9))]
        if case % 4 == 0:
            points += [x + Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                       -x, RatFun.const(0), RatFun.const(-h)]
        factors = [(rng.choice(("f", "fbar")), rng.choice(("f", "fbar")),
                    rng.choice(points), tuple(rng.sample(range(nslots), 2)))
                   for _ in range(rng.randint(0, 5))]
        assert_same_chain(n, nslots, factors)
        seen.add(("empty",) if not factors else ())
        for k1, k2, arg, (p, q) in factors:
            mixed = k1 != k2
            seen.add(("p<q",) if p < q else ("p>q",))
            if isinstance(arg, RatFun):
                seen.add(("ratfun", mixed))
            elif arg == (-h if mixed else 0):
                seen.add(("alpha=0", mixed))
            elif arg < 0 and Fraction(arg).denominator > 1:
                seen.add(("negative fraction", mixed))
    assert seen >= {("empty",), ("p<q",), ("p>q",)} | {
        (kind, mixed) for kind in ("ratfun", "alpha=0", "negative fraction")
        for mixed in (False, True)}, seen


def test_vertex_chain_has_the_oracle_errors():
    for chain in (vertex_chain, embedded_vertex_chain):
        for factors in ([("f", "g", Fraction(1, 3), (0, 1))],
                        [("F", "f", Fraction(1, 3), (0, 1))],
                        [("f", "f", Fraction(1, 3), (1, 1))],
                        [("f", "fbar", Fraction(1, 3), (0, 3))],
                        [("f", "f", Fraction(1, 3), (-1, 0))],
                        [("f", "f", 1, (0, 1)), ("f", "f", 2, (2, 2))]):
            with pytest.raises(ValueError):
                chain(2, 3, factors)
        for bad in (0.5, 2.0, Decimal("0.5"), "1/2"):
            for kinds in (("f", "f"), ("f", "fbar")):
                with pytest.raises(TypeError):
                    chain(2, 3, [(*kinds, bad, (0, 1))])


def test_vertex_chain_builds_no_vertex_map(monkeypatch):
    # a return to building, embedding and multiplying vertex maps fails
    # here loudly; the oracle chains are built before the patch
    n = 2
    spec, labels, _seed = torus_strip(n, 3, 1)
    lines = lattice._strip(spec, 2, labels[:2], 1, None)[2]
    x, y = Fraction(2), Fraction(5)
    ybe = [("f", "fbar", x - y, (0, 1)), ("f", "f", x, (0, 2)),
           ("fbar", "f", y, (1, 2))]
    # the (n, k) = (2, 3) fused product on 5 loops, as _fusion_chain lists it
    kinds = loop_kinds(n, 5)
    fused = [(kinds[i], kinds[j], (j - i) * h_shift(n), (i, j))
             for i in range(5) for j in range(i + 1, 5)]
    want = ([embedded_vertex_chain(n, spec.L + 1, line) for line in lines],
            embedded_vertex_chain(n, 5, fused),
            [embedded_vertex_chain(n, 3, c) for c in (ybe, ybe[::-1])])

    def refuse(*args, **kwargs):
        raise AssertionError("vertex map built in a chain")

    for module, name in ((rmat, "vertex_matrix"), (sparse, "embed"),
                         (sparse, "mul")):
        monkeypatch.setattr(module, name, refuse)
    got = ([vertex_chain(n, spec.L + 1, line) for line in lines],
           _fusion_chain(2, 5),
           [vertex_chain(n, 3, c) for c in (ybe, ybe[::-1])])
    assert got == want


def test_vertex_chain_returns_fresh_maps():
    # the kernel's cached digit table is a tuple, and no returned map
    # shares a dict with a later call
    x = RatFun.x()
    chains = ([], [("f", "fbar", Fraction(1, 3), (1, 0))],
              [("f", "f", Fraction(0), (0, 2)), ("fbar", "f", x, (2, 1)),
               ("f", "fbar", -h_shift(2), (1, 0))])
    for factors in chains:
        first, scale = vertex_chain(2, 3, factors)
        keep = typed(first)
        for r in list(first)[:3]:
            first[r][r] = 99
            first[r][(r + 1) % 27] = -7
        first.pop(next(iter(first)))
        first[99] = {0: 1}
        again, scale2 = vertex_chain(2, 3, factors)
        assert typed(again) == keep and scale2 == scale, factors
    digits = rmat._slot_digits(3, 3, 1, 0)
    assert type(digits) is tuple and all(type(t) is int for t in digits)


def former_level_chain(which, n, nu, mus):
    """Chain parts (CL, K, CR) of one window-shift level on m+1 slots,
    m = len(mus) + 1, each a (map, scale) pair as vertex_chain returns.

    Passive site j = 2..m, parameter mus[j-2], sits on slot m-j, the
    consumed line on slot m-1 and the fresh output line on slot m.  The
    level line crosses the passive sites upward (j = 2..m, vertices at
    nu - mu_j) and downward (j = m..2, vertices at mu_j - nu); both
    vertex kinds and K are symmetric in their two lines.  which=1 is
    the raising level (up, K, down) with same-kind vertices, which=2 the
    lowering one (down, K, up) with mixed vertices."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    m = len(mus) + 1
    kind = "f" if which == 1 else "fbar"
    sites = list(enumerate(mus, 2))
    up = vertex_chain(n, m + 1, [("f", kind, nu - mu, (m - j, m - 1))
                                 for j, mu in sites])
    down = vertex_chain(n, m + 1, [("f", kind, mu - nu, (m - j, m - 1))
                                   for j, mu in reversed(sites)])
    ks = sparse.integral(sparse.embed(k_matrix(n), (m - 1, m), m + 1, n + 1))
    return (up, ks, down) if which == 1 else (down, ks, up)


def former_level_step(which, n, nu, mus, mat):
    """level_step's former route, kept as its oracle: the input extended
    by the fresh line and multiplied as CL . mat . K . CR on m+1 slots
    (former_level_chain), then the consumed slot traced."""
    m = len(mus) + 1
    d = n + 1
    cl, ks, cr = former_level_chain(which, n, nu, mus)
    prod, s = functools.reduce(sparse.scaled_mul, (
        cl, sparse.integral(sparse.extend(mat, d)), ks, cr))
    return sparse.ptrace(prod, m - 1, m + 1, d), s


def test_first_tower_level_skips_the_identity(monkeypatch):
    # on the identity, the first level of every tower, CL . 1 . K . CR is
    # CL . K . CR: the same entries, types and scale, with no extension
    x = RatFun.x()
    mus = [Fraction(2, 7), Fraction(-5, 3)]
    cases = [(which, n, nu, mus[:m - 1], identity_matrix((n + 1) ** m))
             for n in (2, 3) for m in (2, 3) for which in (1, 2)
             for nu in (Fraction(-4, 9), x)]
    want = [former_level_step(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the identity was extended")

    monkeypatch.setattr(sparse, "extend", refuse)
    for case, (image, scale) in zip(cases, want):
        got, s = level_step(*case[:4], sparse.integral(case[4]))
        assert s == scale and typed(got) == typed(image), case[:4]
    assert any(isinstance(v, RatFun) for v in entries(want[-1][0]))
    # the first level of a tower, and inputs that only look like the
    # identity, which still take the full product
    monkeypatch.undo()
    spec = SnailSpec(3, 1, 2, mus[:1])
    image, scale = former_level_step(2, 3, spec.loop_shifts()[0], spec.mus,
                                     identity_matrix(16))
    assert _snail_matrix(spec) == sparse.scale(image,
                                               _tower_scalar(spec)[1] / scale)
    for one in (sparse.scale(identity_matrix(9), Fraction(1, 2)),
                sparse.scale(identity_matrix(9), RatFun.const(1))):
        got, s = level_step(1, 2, Fraction(1, 3), mus[:1],
                            sparse.integral(one))
        image, scale = former_level_step(1, 2, Fraction(1, 3), mus[:1], one)
        assert s == scale and typed(got) == typed(image)


def random_row_map(rng, dim, values):
    """A random sparse row map on dim coordinates, entries from values."""
    out = {}
    for _ in range(rng.randint(0, min(dim, 32))):
        v = rng.choice(values)
        if v != 0:
            out.setdefault(rng.randrange(dim), {})[rng.randrange(dim)] = v
    return out


def test_level_step_matches_the_three_chain_oracle():
    # seeded random maps, not windows: a window conserves weight, so most
    # digit pairs on the consumed slot never occur in one.  Every (n, m,
    # level, nu, entry kind) once, a formal nu up to 64 coordinates.  Ints
    # and Fractions keep entries, types and scale; RatFun entries keep
    # values and scale (a sum whose RatFun terms cancel may stay a RatFun
    # where the oracle's grouping drops them and leaves an int)
    rng = random.Random(23)
    x = RatFun.x()
    seen = set()
    for case in range(144):
        n, m = 1 + case % 3, 1 + case // 3 % 4
        which, formal = 1 + case // 12 % 2, case // 24 % 2 == 1
        kind = ("int", "fraction", "ratfun")[case // 48 % 3]
        if formal and (n + 1) ** m > 64:
            continue
        mus = seeded_labels(case, m - 1)
        q = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        nu = x + q if formal else q
        values = {"int": [rng.randint(-4, 4) for _ in range(6)],
                  "fraction": [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                               for _ in range(6)] + [2, -1],
                  "ratfun": [x - Fraction(rng.randint(-6, 6), 5),
                             RatFun.const(Fraction(3, 2)), 1, Fraction(-2, 3)],
                  }[kind]
        mat = random_row_map(rng, (n + 1) ** m, values)
        before = typed(mat)
        got, s = level_step(which, n, nu, mus, sparse.integral(mat))
        image, scale = former_level_step(which, n, nu, mus, mat)
        assert typed(mat) == before, (n, m, which, nu, kind)
        assert s == scale and type(s) is int, (n, m, which, nu, kind)
        if kind == "ratfun":
            assert got == image, (n, m, which, nu, kind)
        else:
            assert typed(got) == typed(image), (n, m, which, nu, kind)
        seen.add((n, m, which, formal, kind))
    assert {key[:2] for key in seen} == set(itertools.product(
        (1, 2, 3), (1, 2, 3, 4)))
    assert {key[:2] for key in seen if key[3]} == {
        (n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4) if (n + 1) ** m <= 64}
    assert {key[2:] for key in seen} == set(itertools.product(
        (1, 2), (False, True), ("int", "fraction", "ratfun")))


def test_level_step_builds_no_map_on_m_plus_one_slots(monkeypatch):
    # the window-shift maps on rqkz windows at (n, L, m) = (2, 4, 3) and a
    # k = 2 tower at m = 3; a return to extending, embedding K or tracing
    # a slot fails here loudly.  The references are built before the patch
    n, L, m = 2, 4, 3
    h = h_shift(n)
    spec = rqkz_spec(n, L, 10 * L + m)
    beta, mu_rest = spec.betas[0], spec.mus[1:m]
    raising = (1, *range(m, 1, -1))
    cases = [(a_operator(1, n, beta, mu_rest),
              density_matrix(spec, m, [beta] + mu_rest, 0, raising)),
             (a_operator(2, n, beta - h, mu_rest),
              density_matrix(spec, m, [h - beta] + mu_rest, 1))]
    tower = SnailSpec(n, 2, m, seeded_labels(5, m - 1))
    want = [op(win).matrix for op, win in cases], _snail_matrix(tower)

    def refuse(*args, **kwargs):
        raise AssertionError("a map on m+1 slots was built")

    for module, name in ((sparse, "extend"), (sparse, "embed"),
                         (sparse, "ptrace"), (lattice, "k_matrix")):
        monkeypatch.setattr(module, name, refuse)
    got = [op(win).matrix for op, win in cases], _snail_matrix(tower)
    assert got == want
