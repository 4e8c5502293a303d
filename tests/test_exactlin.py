import heapq
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsnake.exactlin import (
    LabeledTensor,
    Leg,
    RatFun,
    _frac_rank,
    _padd,
    _pdiv,
    _pmul,
    _pneg,
    _trim,
    contract,
    echelon,
    matrix_rank,
    pole_order_at,
    ratfun_arith,
    residue_at,
    tensor_from_matrix,
)

X = RatFun.x()


def row_map(mat):
    """A dense matrix as the sparse row map tensor_from_matrix takes."""
    out = {}
    for r, row in enumerate(np.asarray(mat, dtype=object)):
        row = {c: v for c, v in enumerate(row) if v != 0}
        if row:
            out[r] = row
    return out


def lin(a):
    # x - a with integer-cleared coefficients
    return X - RatFun.const(a)


def test_ratfun_arith_examples():
    assert ratfun_arith("mul", 1 / lin(1), lin(1)) == RatFun.const(1)
    assert ratfun_arith("add", 1 / X, -(1 / X)) == RatFun((0,))
    assert ratfun_arith("mul", X + 1, X - 1) == RatFun((-1, 0, 1))
    assert ratfun_arith("neg", X) == RatFun((0, -1))
    with pytest.raises(ZeroDivisionError):
        ratfun_arith("div", X, RatFun((0,)))


def test_ratfun_canonical_form():
    assert RatFun((2, 2), (2,)) == X + 1
    assert RatFun((0, 2), (0, 4)) == RatFun.const(Fraction(1, 2))
    assert RatFun((1,), (0, -1)) == RatFun((-1,), (0, 1))
    assert RatFun((1,), (0, 1)).den[-1] > 0
    f = (X + 1) * (X - 1) / ((X - 1) * (X + 2))
    assert f == (X + 1) / (X + 2)


def test_ratfun_eval():
    f = (X * X + 1) / (X - 2)
    assert f(3) == Fraction(10)
    with pytest.raises(ZeroDivisionError):
        f(2)


def test_pole_order_examples():
    f = 1 / (lin(3) * X * lin(-1) * lin(1))
    assert pole_order_at(f, 0) == 1
    g = 1 / (lin(5) * lin(2) * lin(1) * lin(3))
    assert pole_order_at(g, 0) == 0
    assert pole_order_at(1 / (X * X), 0) == 2
    assert pole_order_at(X * X, 0) == -2
    assert pole_order_at(X + 5, 0) == 0
    with pytest.raises(ValueError):
        pole_order_at(RatFun((0,)), 0)


def test_residue_examples():
    assert residue_at(1 / X, 0) == 1
    f = 1 / (lin(3) * X * lin(-1) * lin(1))
    assert residue_at(f, 0) == Fraction(1, 3)
    assert residue_at(X + 5, 0) == 0
    with pytest.raises(ValueError):
        residue_at(1 / (X * X), 0)


def test_residue_partial_fractions():
    # f = 1/((x-1)(x-2)) = -1/(x-1) + 1/(x-2)
    f = 1 / (lin(1) * lin(2))
    assert residue_at(f, 1) == -1
    assert residue_at(f, 2) == 1


def test_pole_orders_and_residues_at_rational_points():
    # f = c * prod (x - a_i)^e_i with a_i of denominators 2..9, as at the
    # points (n+1)/2 and the seeded rationals the suites call them at
    rng = random.Random(2025)
    simple = 0
    for _ in range(60):
        roots, k = set(), rng.randint(1, 4)
        while len(roots) < k:
            den = rng.randint(2, 9)
            num = rng.choice([v for v in range(-40, 41) if gcd(v, den) == 1])
            roots.add(Fraction(num, den))
        exps = {a: rng.choice((-3, -2, -1, -1, 1, 2, 3)) for a in roots}
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        f = RatFun.const(c)
        for a, e in exps.items():
            for _ in range(abs(e)):
                f = f * lin(a) if e > 0 else f / lin(a)
        for a, e in exps.items():
            assert pole_order_at(f, a) == -e
            assert pole_order_at(f, a + Fraction(1, 97)) == 0
            if e == -1:  # the partial-fraction coefficient of 1/(x - a)
                want = c * prod((a - b) ** eb for b, eb in exps.items()
                                if b != a)
                assert residue_at(f, a) == want
                simple += 1
            elif e < -1:
                with pytest.raises(ValueError):
                    residue_at(f, a)
            else:
                assert residue_at(f, a) == 0
    assert simple >= 20


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


@settings(max_examples=50, deadline=None)
@given(rationals, rationals, rationals)
def test_ratfun_field_axioms(a, b, c):
    f = X + RatFun.const(a)
    g = X * RatFun.const(b) + 1
    h = RatFun.const(c) - X * X
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    if not g.is_zero():
        assert (f / g) * g == f


def dense_contract(ts, pairings):
    """The dense contraction oracle: numpy tensordot and trace over the
    full object arrays, as contract computed before it went sparse."""
    tensors = [(t.legs, t.data) for t in ts]
    seen = {}
    for ti, (legs, _) in enumerate(tensors):
        for l in legs:
            if l.label in seen:
                raise ValueError(f"duplicate leg label {l.label!r}")
            seen[l.label] = ti

    def locate(label):
        for ti, (legs, _) in enumerate(tensors):
            for li, l in enumerate(legs):
                if l.label == label:
                    return ti, li, l
        raise KeyError(f"dangling pairing reference {label!r}")

    pending = list(pairings)
    while pending:
        la, lb = pending.pop(0)
        ta, ia, lega = locate(la)
        tb, ib, legb = locate(lb)
        if {lega.orient, legb.orient} != {"in", "out"}:
            raise ValueError(f"pairing {la!r}-{lb!r} needs one in-leg and one out-leg")
        if lega.dim != legb.dim:
            raise ValueError(f"dimension mismatch on {la!r}-{lb!r}")
        if ta == tb:
            legs, data = tensors[ta]
            data = np.trace(data, axis1=ia, axis2=ib)
            legs = [l for i, l in enumerate(legs) if i not in (ia, ib)]
            tensors[ta] = (legs, data)
        else:
            if ta > tb:
                ta, ia, tb, ib = tb, ib, ta, ia
            legsa, da = tensors[ta]
            legsb, db = tensors[tb]
            data = np.tensordot(da, db, axes=(ia, ib))
            legs = [l for i, l in enumerate(legsa) if i != ia]
            legs += [l for i, l in enumerate(legsb) if i != ib]
            tensors[ta] = (legs, data)
            del tensors[tb]
    # outer product of whatever is left (disconnected diagrams)
    legs, data = tensors[0]
    for morelegs, more in tensors[1:]:
        data = np.tensordot(data, more, axes=0)
        legs = list(legs) + list(morelegs)
    return LabeledTensor(legs, data)


def perm_tensor(labels):
    d = 3
    p = np.zeros((d, d, d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            p[i, j, j, i] = Fraction(1)
    legs = [Leg(labels[0], "out", d), Leg(labels[1], "out", d), Leg(labels[2], "in", d), Leg(labels[3], "in", d)]
    return LabeledTensor(legs, p)


def test_contract_p_squared_is_identity():
    p1 = perm_tensor(["a", "b", "c", "d"])
    p2 = perm_tensor(["c2", "d2", "e", "f"])
    res = contract([p1, p2], [("c", "c2"), ("d", "d2")])
    mat = res.data.reshape(9, 9)
    assert (mat == np.eye(3 * 3, dtype=object)).all()


def test_contract_trace_identity():
    d = 3
    ident = LabeledTensor(
        [Leg("o", "out", d), Leg("i", "in", d)], np.eye(d, dtype=object)
    )
    assert contract([ident], [("o", "i")]).scalar() == 3


def test_contract_singlet_pairing():
    # the singlet vector paired against its dual gives n+1
    d = 3
    s_ket = LabeledTensor(
        [Leg("a", "out", d), Leg("b", "out", d)],
        np.array([[Fraction(int(i + j == d - 1)) for j in range(d)] for i in range(d)], dtype=object),
    )
    s_bra = LabeledTensor(
        [Leg("a2", "in", d), Leg("b2", "in", d)],
        np.array([[Fraction(int(i + j == d - 1)) for j in range(d)] for i in range(d)], dtype=object),
    )
    assert contract([s_ket, s_bra], [("a", "a2"), ("b", "b2")]).scalar() == d


def test_contract_order_independence():
    p1 = perm_tensor(["a", "b", "c", "d"])
    p2 = perm_tensor(["c2", "d2", "e", "f"])
    p3 = perm_tensor(["e2", "f2", "g", "h"])
    pairs = [("c", "c2"), ("d", "d2"), ("e", "e2"), ("f", "f2")]
    res1 = contract([p1, p2, p3], pairs)
    res2 = contract([p1, p2, p3], pairs[::-1])
    res3 = contract([p1, p2, p3], [pairs[2], pairs[0], pairs[3], pairs[1]])
    assert (res1.data == res2.data).all()
    assert (res1.data == res3.data).all()
    assert [l.label for l in res1.legs] == ["a", "b", "g", "h"]


def test_contract_open_legs_follow_the_pairing_order():
    # a pairing appends the later tensor's open legs to the earlier one's
    a = LabeledTensor([Leg("a", "out", 1), Leg("x", "in", 1)], [[1]])
    b = LabeledTensor([Leg("b", "in", 1), Leg("y", "in", 1)], [[1]])
    c = LabeledTensor([Leg("c", "in", 1), Leg("z", "out", 1),
                       Leg("w", "in", 1)], [[[1]]])
    pairs = [("a", "c"), ("z", "b")]
    assert [l.label for l in contract([a, b, c], pairs).legs] == ["x", "w", "y"]
    assert [l.label for l in contract([a, b, c], pairs[::-1]).legs] == ["x", "y", "w"]


def test_contract_errors():
    # the sparse kernel raises what the dense one raised, case by case
    for kernel in (contract, dense_contract):
        assert_contract_errors(kernel)


def assert_contract_errors(kernel):
    p1 = perm_tensor(["a", "b", "c", "d"])
    p2 = perm_tensor(["a2", "b2", "c2", "d2"])
    with pytest.raises(ValueError):
        kernel([p1, p2], [("a", "a2")])  # out against out
    with pytest.raises(ValueError):
        kernel([p1, p2], [("c", "c2")])  # in against in
    with pytest.raises(KeyError):
        kernel([p1], [("a", "zz")])
    with pytest.raises(ValueError, match="duplicate"):
        kernel([p1, perm_tensor(["a", "b2", "c2", "d2"])], [])
    with pytest.raises(KeyError):  # "c" was consumed by the first pairing
        kernel([p1, p2], [("a2", "c"), ("b2", "c")])
    wide = LabeledTensor([Leg("w", "out", 2), Leg("v", "in", 3)],
                         np.full((2, 3), Fraction(0), dtype=object))
    with pytest.raises(ValueError, match="dimension"):
        kernel([p1, wide], [("w", "c")])
    with pytest.raises(ValueError, match="dimension"):
        kernel([wide], [("w", "v")])


# a pool of entries whose sums often cancel: +-1, +-1/2 and, for RatFun
# diagrams, x - 1 against 1 - x and 1/(x + 2) against its negative
FRACTION_POOL = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
RATFUN_POOL = FRACTION_POOL + [X - 1, 1 - X, 1 / (X + 2), -1 / (X + 2)]


def random_diagram(rng, d, pool):
    """One to three tensors, paired legs of dimension d and open ones of
    dimension at most d, with random pairings: traces within a tensor, joins across tensors, legs left
    open and tensors left unconnected.  Returns (tensors, pairings)."""
    ntens = rng.randint(1, 3)
    budget = {2: 8, 3: 6, 4: 5}[d]  # keeps the dense oracle's arrays small
    npairs = rng.randint(0, min(4, budget // 2))
    nopen = rng.randint(0, budget - 2 * npairs)
    legs = [[] for _ in range(ntens)]
    pairings = []
    for p in range(npairs):
        legs[rng.randrange(ntens)].append(Leg(f"o{p}", "out", d))
        legs[rng.randrange(ntens)].append(Leg(f"i{p}", "in", d))
        pairings.append((f"o{p}", f"i{p}") if rng.random() < 0.5
                        else (f"i{p}", f"o{p}"))
    for q in range(nopen):
        legs[rng.randrange(ntens)].append(
            Leg(f"x{q}", rng.choice(["in", "out"]), rng.randint(1, d)))
    tensors = []
    for ls in legs:
        rng.shuffle(ls)
        data = np.full(tuple(l.dim for l in ls), Fraction(0), dtype=object)
        for idx in np.ndindex(data.shape):
            if rng.random() < 0.5:
                data[idx] = rng.choice(pool)
        tensors.append(LabeledTensor(ls, data))
    return tensors, pairings


def assert_same_tensor(got, want):
    assert [l.label for l in got.legs] == [l.label for l in want.legs]
    assert got.data.shape == want.data.shape
    assert all(x == y for x, y in zip(got.data.flat, want.data.flat))


def test_sparse_contract_matches_dense_oracle():
    rng = random.Random(20261018)
    kinds = {"closed": 0, "trace": 0, "outer": 0, "cancel": 0}
    for case in range(80):
        d = (2, 3, 4)[case % 3]
        pool = RATFUN_POOL if case % 2 else FRACTION_POOL
        tensors, pairings = random_diagram(rng, d, pool)
        for order in permutations(pairings):
            want = dense_contract(tensors, order)
            assert_same_tensor(contract(tensors, order), want)
        if not want.legs:
            assert contract(tensors, pairings).scalar() == want.scalar()
            kinds["closed"] += 1
        owner = {l.label: ti for ti, t in enumerate(tensors) for l in t.legs}
        kinds["trace"] += any(owner[a] == owner[b] for a, b in pairings)
        joined = {ti for a, b in pairings for ti in (owner[a], owner[b])}
        kinds["outer"] += len(tensors) > 1 and len(joined) < len(tensors)
        if pool is FRACTION_POOL:
            # an entry that cancels: zero here, nonzero with every input
            # entry replaced by its absolute value
            pos = dense_contract([LabeledTensor(t.legs, abs(t.data))
                                  for t in tensors], order)
            kinds["cancel"] += any(x == 0 and y != 0 for x, y in
                                   zip(want.data.flat, pos.data.flat))
    # the seeded diagrams cover every kind of contraction
    assert min(kinds.values()) >= 3, kinds


def test_contract_cancels_to_an_exact_zero():
    # (1, 1) . (x - 1, 1 - x) sums to zero and is stored as Fraction(0)
    row = LabeledTensor([Leg("o", "out", 2)], np.array([1, 1], dtype=object))
    col = LabeledTensor([Leg("i", "in", 2)],
                        np.array([X - 1, 1 - X], dtype=object))
    got = contract([row, col], [("o", "i")]).scalar()
    assert got == 0 and type(got) is Fraction


def test_contraction_never_goes_dense(monkeypatch):
    # a return to numpy's dense contraction fails here loudly; the dense
    # oracle runs in the tests above, outside this patch
    from qsnake.snail import SnailSpec, contraction_order_check

    def refuse(*args, **kwargs):
        raise AssertionError("dense numpy contraction")

    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(np, "trace", refuse)
    for n in (1, 2, 3):
        spec = SnailSpec(n, 1, 2, [Fraction(2, 7)])
        assert contraction_order_check(spec).status == "pass"
    test_contract_p_squared_is_identity()
    test_contract_trace_identity()
    test_contract_singlet_pairing()
    test_contract_order_independence()
    assert_contract_errors(contract)
    test_contract_cancels_to_an_exact_zero()


def test_matrix_rank_rational_examples():
    d = 3
    ident = tensor_from_matrix(row_map(np.eye(d * d, dtype=object)), ["a", "b"], ["c", "d"], [d, d])
    assert matrix_rank(ident, {"a", "b"}, {"c", "d"}) == 9
    # singlet projector and antisymmetrizer on C^3 x C^3
    s = [[Fraction(int(i + j == d - 1)) for j in range(d)] for i in range(d)]
    flat = [s[i][j] for i in range(d) for j in range(d)]
    proj = np.array([[a * b / d for b in flat] for a in flat], dtype=object)
    t = tensor_from_matrix(row_map(proj), ["a", "b"], ["c", "d"], [d, d])
    assert matrix_rank(t, {"a", "b"}, {"c", "d"}) == 1
    perm = np.zeros((9, 9), dtype=object)
    for i in range(d):
        for j in range(d):
            perm[i * d + j, j * d + i] = Fraction(1)
    anti = (np.eye(9, dtype=object) - perm) * Fraction(1, 2)
    t2 = tensor_from_matrix(row_map(anti), ["a", "b"], ["c", "d"], [d, d])
    assert matrix_rank(t2, {"a", "b"}, {"c", "d"}) == 3


def test_matrix_rank_refuses_ratfun():
    # elimination runs over Q only: a RatFun entry is refused, not ranked
    # over Q(x), by matrix_rank and by echelon alike
    m = np.array([[X, RatFun.const(1)], [RatFun.const(1), X]], dtype=object)
    t = LabeledTensor([Leg("r", "out", 2), Leg("c", "in", 2)], m)
    with pytest.raises(TypeError):
        matrix_rank(t, {"r"}, {"c"})
    for rows in ([{0: X, 1: 1}], [{0: 1, 1: 2}, {0: 3, 1: RatFun.const(1)}]):
        with pytest.raises(TypeError):
            echelon(rows)


def test_echelon_int_rows_give_fractions():
    piv = echelon([{0: 2, 1: 3}, {0: 4, 2: 1}])
    assert piv == {0: {0: 1, 1: Fraction(3, 2)},
                   1: {1: 1, 2: Fraction(-1, 6)}}
    for row in piv.values():
        assert all(type(v) is Fraction for v in row.values())


def det_laplace(mat):
    if not mat:
        return Fraction(1)
    return sum((-1) ** j * mat[0][j]
               * det_laplace([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def rank_by_minors(mat):
    """Largest order of a nonvanishing minor."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if det_laplace([[mat[r][c] for c in cs] for r in rs]):
                    return k
    return 0


sparse_matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.one_of(st.just(Fraction(0)), rationals),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices)
def test_frac_rank_matches_minor_oracle(mat):
    assert _frac_rank(mat) == rank_by_minors(mat)
    rows = [{c: v for c, v in enumerate(row)} for row in mat]
    before = [dict(row) for row in rows]
    piv = echelon(rows)
    assert rows == before
    for p, row in piv.items():
        assert row[p] == 1
        assert min(row) == p
        assert all(row.values())


def fraction_echelon(rows):
    """The Fraction elimination oracle: echelon as it was before it went
    fraction-free, every row normalized at its pivot as it is stored."""
    piv = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        todo = [c for c in row if c in piv]
        heapq.heapify(todo)
        while todo:  # ascending, so a reduction never refills a done column
            c = heapq.heappop(todo)
            f = row.pop(c, 0)
            if not f:  # pushed twice, or cancelled since
                continue
            for j, v in piv[c].items():
                if j == c:
                    continue
                w = row.get(j, 0) - f * v
                if not w:
                    del row[j]
                    continue
                if j not in row and j in piv:
                    heapq.heappush(todo, j)
                row[j] = w
        if row:
            c = min(row)
            inv = Fraction(1) / row[c]
            piv[c] = {j: v * inv for j, v in row.items()}
    return piv


def layout(piv):
    """Pivots and entries in dict order, with each value's type."""
    return [(c, [(j, type(v), v) for j, v in row.items()])
            for c, row in piv.items()]


small_ints = st.integers(-3, 3)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def row_lists(values):
    """Up to six sparse rows on six columns; few distinct values, so
    dependent rows and cancellations are common."""
    return st.lists(st.dictionaries(st.integers(0, 5), values, max_size=6),
                    max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(row_lists(small_ints), row_lists(small_fractions),
                 row_lists(st.one_of(small_ints, small_fractions))))
def test_echelon_matches_fraction_oracle(rows):
    before = [dict(row) for row in rows]
    got = echelon(rows)
    assert rows == before
    assert layout(got) == layout(fraction_echelon(before))


def test_echelon_oracle_sees_cancellation_and_gcds():
    # rows that cancel to zero, and a gcd that is not 1
    cases = [
        [{0: 2, 1: 4}, {0: 3, 1: 6}, {0: 4, 2: 6}],
        [{0: Fraction(2, 3), 1: 1}, {0: 6, 1: Fraction(9, 1), 2: 5}],
    ]
    for rows in cases:
        assert layout(echelon(rows)) == layout(fraction_echelon(rows))
    assert len(echelon(cases[0])) == 2


@pytest.mark.parametrize("bad", [0.5, 0.0, 1j, Decimal(1), "1", np.float64(2), None])
def test_echelon_refuses_inexact_entries(bad):
    with pytest.raises(TypeError):
        echelon([{0: 1, 1: bad}])
    with pytest.raises(TypeError):
        echelon([{0: 1}, {0: bad, 2: 3}])


@pytest.mark.parametrize("bad", [0.5, 0.0, 1j, Decimal(1), "1", np.float64(2)])
def test_ratfun_refuses_inexact_coefficients(bad):
    for num, den in [((bad, 1), (1,)), ((1,), (1, bad)), (bad, (1,)),
                     ((1,), bad), ((1, 2, bad), (3, 4))]:
        with pytest.raises(TypeError):
            RatFun(num, den)


def test_from_roots_is_the_product_of_its_linear_factors():
    # random multisets of fractional roots, multiplicities up to +-3, a
    # root whose multiplicity cancels to 0 and random constants, against
    # the product of (x - r)^k in RatFun arithmetic
    rng = random.Random(38)
    x = RatFun.x()
    for case in range(300):
        pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(rng.randint(0, 5))]
        roots = {r: rng.choice((-3, -2, -1, 1, 2, 3)) for r in pool}
        roots[Fraction(rng.randint(-9, 9), 7)] = 0
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        want = RatFun.const(c)
        for r, k in roots.items():
            for _ in range(abs(k)):
                want = want * (x - r) if k > 0 else want / (x - r)
        got = RatFun.from_roots(c, roots)
        assert (got.num, got.den, hash(got)) == (
            want.num, want.den, hash(want)), (c, roots)
    assert RatFun.from_roots(Fraction(-2, 3), {}) == Fraction(-2, 3)
    assert RatFun.from_roots(1, {2: 1, Fraction(1, 2): -2}) == (
        (x - 2) / (x - Fraction(1, 2)) / (x - Fraction(1, 2)))


@pytest.mark.parametrize("bad", [0.5, 1j, Decimal(1), "1", np.float64(2)])
def test_from_roots_refuses_inexact_roots_and_constants(bad):
    with pytest.raises(TypeError):
        RatFun.from_roots(1, {bad: 1})
    with pytest.raises(TypeError):
        RatFun.from_roots(bad, {1: 1})


def _pdivmod(p, q):
    """Division with remainder over Q, the route RatFun took before it
    divided in Z[x]; kept as the oracle of the integer one."""
    p = [Fraction(c) for c in p]
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    lead = Fraction(q[-1])
    while len(p) >= len(q) and _trim(p):
        d = len(p) - len(q)
        c = p[-1] / lead
        quot[d] = c
        for i, b in enumerate(q):
            p[i + d] -= c * b
        p = list(_trim(p))
    return _trim(quot), _trim(p)


def monic_gcd(p, q):
    """The monic gcd over Q, by Euclid with _pdivmod."""
    p, q = _trim(p), _trim(q)
    while q:
        p, q = q, _pdivmod(p, q)[1]
    return tuple(c / Fraction(p[-1]) for c in p)


def gcd_canonical(num, den):
    """(num, den) by the route over Q with the polynomial gcd always
    taken: the monic gcd divided out over Q, then both sides cleared by
    one common denominator and their joint integer content."""
    num = _trim(num if isinstance(num, (tuple, list)) else (num,))
    den = _trim(den if isinstance(den, (tuple, list)) else (den,))
    if not num:
        return (), (1,)
    g = monic_gcd(num, den)
    if len(g) > 1:
        num, _ = _pdivmod(num, g)
        den, _ = _pdivmod(den, g)
    s = lcm(*(Fraction(c).denominator for c in num + den))
    num = tuple(int(Fraction(c) * s) for c in num)
    den = tuple(int(Fraction(c) * s) for c in den)
    cg = gcd(*num, *den)
    num = tuple(c // cg for c in num)
    den = tuple(c // cg for c in den)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


coefficients = st.one_of(st.integers(-6, 6), small_fractions)
polys = st.lists(coefficients, max_size=4)
constants = st.one_of(st.just(0), st.just(-1), st.just(Fraction(-2, 3)),
                      coefficients).map(lambda c: (c,))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(constants, polys), st.tuples(polys, constants)))
def test_ratfun_constant_side_matches_gcd_route(pair):
    num, den = pair
    assume(_trim(den))
    f = RatFun(num, den)
    assert (f.num, f.den) == gcd_canonical(num, den)
    assert all(type(c) is int for c in f.num + f.den)


def test_ratfun_constant_sides():
    for num, den in [((-4,), (0, 2)), ((0, 0, 6), (-3,)), ((0,), (5, 1)),
                     ((Fraction(1, 2), 1), (Fraction(-3, 4),)),
                     ((Fraction(-2, 3),), (Fraction(4, 9), 2)),
                     ((-6,), (-4,))]:
        f = RatFun(num, den)
        assert (f.num, f.den) == gcd_canonical(num, den)


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_ratfun_matches_the_gcd_route(num, den):
    assume(_trim(den))
    f = RatFun(num, den)
    assert (f.num, f.den) == gcd_canonical(num, den)
    assert all(type(c) is int for c in f.num + f.den)


def test_ratfun_clears_both_sides_by_one_denominator():
    # a Fraction coefficient is cleared once, over numerator and
    # denominator together, so the value is kept
    assert RatFun((Fraction(1, 2),)) == RatFun.const(Fraction(1, 2))
    assert RatFun((1,), (Fraction(1, 3),)) == 3
    assert RatFun((Fraction(1, 2), 1), (Fraction(-3, 4),)) == (
        RatFun((-2, -4), (3,)))
    assert RatFun((1, Fraction(1, 2)), (Fraction(2, 3), 1)) == (
        RatFun((6, 3), (4, 6)))


def test_constant_ratfun_hashes_like_its_fraction():
    for q in (0, 3, -1, Fraction(2, 3), Fraction(-7, 4), 10 ** 30):
        f = RatFun.const(q)
        assert f == q and hash(f) == hash(Fraction(q)) == hash(q)
        assert len({f, q}) == 1
    assert len({RatFun((0,)), RatFun((), (5, 1)), 0}) == 1
    assert hash(RatFun((2,), (4,))) == hash(Fraction(1, 2))


def seeded_poly(rng, deg):
    """Fraction coefficients with a nonzero leading one."""
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
    return cs + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 9))]


def poly_at(p, a):
    return sum(c * a ** i for i, c in enumerate(p))


def test_ratfun_evaluates_as_its_quotient():
    # num and den share a product of linear factors at rational roots, so
    # the gcd cancels something; f(a) is num(a)/den(a) off the poles
    rng = random.Random(25)
    cancelled = evaluated = 0
    for _ in range(300):
        shared = [Fraction(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 2)):
            root = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            shared = _pmul(shared, [-root, Fraction(1)])
        num = _pmul(seeded_poly(rng, rng.randint(0, 3)), shared)
        den = _pmul(seeded_poly(rng, rng.randint(0, 3)), shared)
        f = RatFun(num, den)
        assert all(type(c) is int for c in f.num + f.den)
        assert gcd(*f.num, *f.den) == 1 and f.den[-1] > 0
        cancelled += len(f.den) < len(den)
        for _ in range(3):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            if poly_at(den, a):
                assert f(a) == poly_at(num, a) / poly_at(den, a)
                evaluated += 1
        g = RatFun(seeded_poly(rng, 2), seeded_poly(rng, 1))
        assert ((f * g).num, (f * g).den) == gcd_canonical(
            _pmul(num, g.num), _pmul(den, g.den))
        if g:
            assert ((f / g).num, (f / g).den) == gcd_canonical(
                _pmul(num, g.den), _pmul(den, g.num))
    assert cancelled >= 100 and evaluated >= 800


def test_pdiv_pseudo_divides_and_is_exact_when_q_divides():
    # c*p = quot*q + rem with deg rem < deg q, c dividing a power of q's
    # leading coefficient, and c = 1 when q divides p in Z[x]
    rng = random.Random(7)
    for _ in range(500):
        p = _trim(rng.randint(-9, 9) for _ in range(rng.randint(0, 6)))
        q = _trim(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if not q:
            continue
        quot, rem = _pdiv(p, q)
        assert len(rem) < len(q)
        lhs = _padd(_pmul(quot, q), rem)
        c = lhs[-1] // p[-1] if p else 1
        assert lhs == tuple(c * v for v in p)
        assert q[-1] ** len(p) % c == 0
        assert _pdiv(_pmul(p, q), q) == (p, ())


def test_pgcd_takes_primitive_remainders(monkeypatch):
    # Knuth's pair (TAOCP 2, 4.6.1) is coprime, so no output shows how the
    # remainders grew; record what reaches _pdiv.  Primitive remainders
    # end in 4663x - 6150; unreduced ones reach 2,767,500 here.
    import qsnake.exactlin as exactlin
    seen = []

    def recording_pdiv(p, q):
        seen.extend(abs(c) for c in p + q)
        return _pdiv(p, q)

    monkeypatch.setattr(exactlin, "_pdiv", recording_pdiv)
    p = (-5, 2, 8, -3, -3, 0, 1, 0, 1)
    q = (21, -9, -4, 0, 5, 0, 3)
    f = RatFun(p, q)
    assert (f.num, f.den) == (p, q)
    assert max(seen) == 6150


def test_echelon_cofactors_are_reduced_by_their_gcd(monkeypatch):
    # The returned rows cannot show cofactor growth: a primitive integer
    # row is unique up to sign.  The working row can, so record every
    # integer gcd echelon takes, the one that makes a row primitive too.
    # Each pivot 7 divides the entry it clears, so reduced cofactors
    # never rescale the last row; unreduced ones multiply it by 7^10.
    import qsnake.exactlin as exactlin
    seen = []

    def recording_gcd(*args):
        seen.extend(args)
        return gcd(*args)

    monkeypatch.setattr(exactlin, "gcd", recording_gcd)
    rows = [{i: 7, 10 + i: 1} for i in range(10)]
    rows.append({**{i: 7 * (i + 1) for i in range(10)}, 20: 1})
    piv = echelon(rows)
    assert piv[10] == {10 + i: Fraction(i + 1) for i in range(10)} | {20: -1}
    assert max(abs(v) for v in seen) <= 70  # the largest input entry
