import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnake import loopring
from qsnake.loopring import (
    MAX_EXPONENT,
    ONE,
    CartanData,
    LaurentCombination,
    LoopMonomial,
    a_decompose,
    a_var,
    antidominant_monomials,
    dominant_monomials,
    from_text,
    multiply,
    to_text,
    y_var,
)


def comb(*pairs):
    out = LaurentCombination.zero()
    for m, c in pairs:
        out = out + LaurentCombination.from_monomial(m, c)
    return out


def mono(*triples):
    return LoopMonomial({(i, k): e for i, k, e in triples})


def weight(m, n):
    """Classical weight of a monomial over omega_1..omega_n: each
    Y[i,k]^e contributes e*omega_i."""
    w = [0] * n
    for (i, _k), e in m.exps.items():
        w[i - 1] += e
    return w


def dominant(m):
    return bool(dominant_monomials(LaurentCombination.from_monomial(m)))


def antidominant(m):
    return bool(antidominant_monomials(LaurentCombination.from_monomial(m)))


def test_cartan_matrix():
    c = CartanData(4)
    assert c.neighbours(1) == [2]
    assert c.neighbours(3) == [2, 4]
    assert c.neighbours(4) == [3]


def test_wt_of_a_var_is_simple_root():
    # the weight of A[i,k] is the simple root alpha_i = sum_j a_ji omega_j,
    # a column of the Cartan matrix: 2 on the node, -1 on its neighbours
    for n in (2, 3, 4):
        c = CartanData(n)
        for i in range(1, n + 1):
            col = [2 if j == i else (-1 if abs(i - j) == 1 else 0)
                   for j in range(1, n + 1)]
            for k in range(-3, 4):
                assert weight(a_var(c, i, k), n) == col
    # alpha_1 = 2 omega_1 - omega_2 at n=2
    assert weight(a_var(CartanData(2), 1, 0), 2) == [2, -1]


def test_a_var_examples():
    # A[1,1] at n=2 and A[2,0] at n=3, from the defining product
    assert a_var(CartanData(2), 1, 1) == mono((1, 0, 1), (1, 2, 1), (2, 1, -1))
    assert a_var(CartanData(3), 2, 0) == mono(
        (2, -1, 1), (2, 1, 1), (1, 0, -1), (3, 0, -1)
    )


def test_monomial_weight_basics():
    assert weight(y_var(1, 0), 2) == [1, 0]
    assert weight(ONE, 2) == [0, 0]
    assert weight(mono((2, 1, 1), (1, 2, -1)), 2) == [-1, 1]


def test_dominance():
    assert dominant(mono((1, 0, 1), (2, 3, 1)))
    assert dominant(ONE) and antidominant(ONE)
    assert not dominant(mono((2, 3, -1)))
    assert antidominant(mono((2, 3, -1)))


# the two three-term fundamental characters at n=2, written out by hand
W1_N2 = comb(
    (y_var(1, 0), 1),
    (mono((2, 1, 1), (1, 2, -1)), 1),
    (mono((2, 3, -1)), 1),
)
W2_N2_S3 = comb(
    (y_var(2, 3), 1),
    (mono((1, 4, 1), (2, 5, -1)), 1),
    (mono((1, 6, -1)), 1),
)


def test_multiply_inverse_pair():
    p = comb((mono((2, 3, -1)), 1))
    q = comb((y_var(2, 3), 1))
    assert multiply(p, q) == LaurentCombination.unit()


def test_multiply_fundamental_product_n2():
    prod = multiply(W1_N2, W2_N2_S3)
    assert len(prod) == 9
    assert all(c == 1 for c in prod.terms.values())
    expected = [
        mono((1, 0, 1), (2, 3, 1)),
        mono((1, 0, 1), (1, 4, 1), (2, 5, -1)),
        mono((1, 0, 1), (1, 6, -1)),
        mono((2, 1, 1), (1, 2, -1), (2, 3, 1)),
        mono((2, 1, 1), (1, 2, -1), (1, 4, 1), (2, 5, -1)),
        mono((2, 1, 1), (1, 2, -1), (1, 6, -1)),
        ONE,
        mono((2, 3, -1), (1, 4, 1), (2, 5, -1)),
        mono((2, 3, -1), (1, 6, -1)),
    ]
    assert set(prod.terms) == set(expected)


def test_dominant_monomials_of_product():
    prod = multiply(W1_N2, W2_N2_S3)
    doms = dominant_monomials(prod)
    assert doms == [(ONE, 1), (mono((1, 0, 1), (2, 3, 1)), 1)]
    assert dominant_monomials(W1_N2) == [(y_var(1, 0), 1)]
    assert antidominant_monomials(W1_N2) == [(mono((2, 3, -1)), 1)]
    assert dominant_monomials(LaurentCombination.zero()) == []


def test_a_decompose_examples():
    c2 = CartanData(2)
    a11 = mono((1, 0, 1), (1, 2, 1), (2, 1, -1))
    assert a_decompose(c2, a11) is None
    assert a_decompose(c2, a11.inverse()) == {(1, 1): 1}
    # ratio of the second monomial of the vector character to the first
    ratio = mono((2, 1, 1), (1, 2, -1), (1, 0, -1))
    assert a_decompose(c2, ratio) == {(1, 1): 1}
    assert a_decompose(c2, y_var(1, 0)) is None
    assert a_decompose(c2, ONE) == {}


a_counts = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(st.integers(1, n), st.integers(-6, 6)),
                    st.integers(0, 3), max_size=6),
    st.tuples(st.integers(1, n), st.integers(-9, 9), st.sampled_from((-1, 1)))))


@settings(max_examples=150, deadline=None)
@given(a_counts)
def test_a_decompose_round_trip(case):
    n, counts, (i, k, e) = case
    cartan = CartanData(n)
    m = ONE
    for (j, s), c in counts.items():
        m = m * a_var(cartan, j, s).inverse() ** c
    assert a_decompose(cartan, m) == {u: c for u, c in counts.items() if c}
    assert a_decompose(cartan, m * y_var(i, k, e)) is None


def test_a_decompose_products():
    c3 = CartanData(3)
    m = (a_var(c3, 1, 0) * a_var(c3, 2, 5) * a_var(c3, 2, 5) * a_var(c3, 3, -2)).inverse()
    assert a_decompose(c3, m) == {(1, 0): 1, (2, 5): 2, (3, -2): 1}
    # multiplicative independence: perturbing by one stray variable breaks it
    assert a_decompose(c3, m * y_var(1, 9)) is None


def test_text_roundtrip_and_canonical_form():
    prod = multiply(W1_N2, W2_N2_S3)
    text = to_text(prod)
    assert from_text(text) == prod
    # serialization is canonical: same combination built in another order
    prod2 = multiply(W2_N2_S3, W1_N2)
    assert to_text(prod2) == text
    assert to_text(LaurentCombination.zero()) == ""
    assert from_text("") == LaurentCombination.zero()
    assert from_text("1\n") == LaurentCombination.unit()


def former_to_text(p):
    """The former to_text: every code decoded in full, then sorted."""
    rows = sorted((sorted(m.exps.items()), c) for m, c in p.terms.items())
    return "".join(" ".join([str(c)] + [f"Y[{i},{k}]^{e}" for (i, k), e in exps])
                   + "\n" for exps, c in rows)


def test_text_of_the_unit_and_of_a_subset_of_slots():
    # variables first seen out of canonical order, so their slots are too
    first_seen = [(5, 903), (2, 901), (4, 902), (2, 900), (1, 904)]
    u, v, w, x, t = (y_var(i, k) for i, k in first_seen)
    slot = loopring._SLOTS.slot
    assert (slot[(5, 903)] < slot[(2, 901)] < slot[(4, 902)] < slot[(2, 900)]
            < slot[(1, 904)])
    top = MAX_EXPONENT
    one = LaurentCombination.unit()
    cases = {
        "": LaurentCombination.zero(),
        "1\n": one,
        "3\n": one * 3,
        "-2\n": 1 * one * -2,
        # the slot of w is unused: a strict subset of the table
        "-2\n1 Y[2,900]^1\n3 Y[2,901]^-1 Y[5,903]^2\n":
            comb((ONE, -2), (u ** 2 * v.inverse(), 3), (x, 1)),
        # one used slot
        "2 Y[4,902]^-3\n1 Y[4,902]^1\n": comb((w ** -3, 2), (w, 1)),
        "-1 Y[2,900]^-1 Y[2,901]^-1\n7 Y[2,900]^2 Y[4,902]^1 Y[5,903]^-1\n":
            comb((u.inverse() * w * x ** 2, 7), ((v * x).inverse(), -1)),
        # a row whose pairs are a prefix of another's sorts first
        "1 Y[2,900]^1\n2 Y[2,900]^1 Y[2,901]^1\n": comb((x * v, 2), (x, 1)),
        # trailing zeros (x alone) sort before any later variable; an
        # inner zero (v absent) sorts after v and before w or u
        "2 Y[2,900]^1\n-1 Y[2,900]^1 Y[2,901]^1\n3 Y[2,900]^1 Y[4,902]^1\n"
        "5 Y[2,900]^1 Y[5,903]^1\n":
            comb((x * u, 5), (x * w, 3), (x * v, -1), (x, 2)),
        # -1 before +1 on the same variable, leading and inner
        "1 Y[2,901]^-1\n1 Y[2,901]^-1 Y[5,903]^1\n1 Y[2,901]^1\n":
            comb((v, 1), (v.inverse() * u, 1), (v.inverse(), 1)),
        "-4 Y[2,900]^1 Y[2,901]^-1\n4 Y[2,900]^1 Y[2,901]^1\n":
            comb((x * v, 4), (x * v.inverse(), -4)),
        # the extreme exponents side by side
        f"5\n4 Y[2,900]^-{top} Y[4,902]^{top}\n2 Y[4,902]^-{top}\n"
        f"3 Y[4,902]^-{top} Y[5,903]^{top}\n1 Y[4,902]^{top}\n":
            comb((w ** top, 1), (w ** -top, 2), (w ** -top * u ** top, 3),
                 (x ** -top * w ** top, 4), (ONE, 5)),
        # t sorts first but was seen last
        "1 Y[1,904]^-1\n1 Y[1,904]^1 Y[2,900]^1\n1 Y[2,900]^1\n":
            comb((t * x, 1), (x, 1), (t.inverse(), 1)),
    }
    for want, p in cases.items():
        assert to_text(p) == former_to_text(p) == want
        assert from_text(want) == p


def test_products_cancel_across_coefficient_groups():
    x, y = y_var(1, 0), y_var(2, 1)
    px, py = LaurentCombination.from_monomial(x), LaurentCombination.from_monomial(y)
    plus, minus = px + py, px - py
    # (x + y)(x - y): the xy terms of the two groups of x - y cancel
    diff = plus * minus
    assert diff == minus * plus == comb((x * x, 1), (y * y, -1))
    assert x * y not in diff.terms
    with pytest.raises(KeyError):
        diff.terms[x * y]
    assert diff.coeff(x * y) == 0
    # the same through the int path and through scaled single groups
    assert (3 * plus) * (minus * 2) == comb((x * x, 6), (y * y, -6))
    assert (plus * 3) * (plus * -1) == comb((x * x, -3), (x * y, -6), (y * y, -3))
    # several groups on both sides against the term-by-term product
    p = comb((x, 1), (y, 2), (x * y, -3), (ONE, 2))
    q = comb((x, 2), (y, -4), (x.inverse(), 5), (y.inverse(), 1))
    want = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            want[m1 * m2] = want.get(m1 * m2, 0) + c1 * c2
    assert p * q == LaurentCombination(want) and 0 in want.values()
    products = [diff, p * q, q * p, plus * plus, (plus * 3) * minus]
    # Laurent combinations have no zero divisors: a product is zero only
    # when a factor is, while merges cancel to zero
    zero = LaurentCombination.zero()
    for z in (plus * zero, zero * minus, plus * 0, 0 * minus, zero * zero,
              plus - plus, diff + (-1) * diff, p * q - q * p):
        assert z.is_zero() and z == zero and to_text(z) == ""
        assert x not in z.terms
        products.append(z)
    products += [plus - minus, diff - minus * minus, p + q]
    for r in products:
        assert 0 not in r.terms.values()
        assert type(r.terms._terms) is dict
        assert from_text(to_text(r)) == r
        assert y_var(3, 77) not in r.terms
        with pytest.raises(KeyError):
            r.terms[y_var(3, 77)]


def test_from_text_rejects_bad_variable():
    with pytest.raises(ValueError, match="bad variable X\\[1,0\\]"):
        from_text("1 X[1,0]^1\n")
    with pytest.raises(ValueError, match="bad variable"):
        from_text("2 Y[1,0]^1 Y[2,1^-1\n")


def test_shifted():
    assert W1_N2.shifted(3).coeff(y_var(1, 3)) == 1
    assert W1_N2.shifted(0) == W1_N2
    assert W1_N2.shifted(2).shifted(-2) == W1_N2


monomials = st.builds(
    LoopMonomial,
    st.dictionaries(
        st.tuples(st.integers(1, 2), st.integers(-2, 3)),
        st.integers(-2, 2),
        max_size=3,
    ),
)
combinations = st.builds(
    LaurentCombination,
    st.dictionaries(monomials, st.integers(-3, 3), max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(combinations, combinations)
def test_multiply_commutative(p, q):
    assert multiply(p, q) == multiply(q, p)


@settings(max_examples=40, deadline=None)
@given(combinations, combinations, combinations)
def test_multiply_associative_distributive(p, q, r):
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
    assert multiply(p, q + r) == multiply(p, q) + multiply(p, r)


# ---------------------------------------------------------------------------
# packed monomials against a plain-dict reference model
#
# The reference keeps a monomial as {(i, k): e} without zero exponents and
# a combination as {frozenset of its exponent items: coefficient}.  A
# result the packed form cannot hold (an exponent beyond MAX_EXPONENT)
# must raise OverflowError rather than spill into a neighbouring slot.

VARIABLES = st.tuples(st.integers(1, 6), st.integers(-40, 40))
# mostly small exponents, plus ones large enough that two of them add
# past the digit range and force the exact fallback
EXPONENTS = st.one_of(st.integers(-3, 3),
                      st.integers(-MAX_EXPONENT, MAX_EXPONENT))
exponent_maps = st.dictionaries(VARIABLES, EXPONENTS, max_size=5)
# few variables and exponents, so that equal monomials are drawn often
crowded_maps = st.dictionaries(
    st.sampled_from([(1, 0), (2, -3), (6, 40)]), st.integers(-2, 2),
    max_size=3)
term_lists = st.lists(st.tuples(exponent_maps, st.integers(-3, 3)),
                      max_size=4)


def ref_clean(exps):
    return {v: e for v, e in exps.items() if e}


def ref_mul(a, b):
    out = dict(a)
    for v, e in b.items():
        out[v] = out.get(v, 0) + e
    return ref_clean(out)


def ref_fits(exps):
    return all(abs(e) <= MAX_EXPONENT for e in exps.values())


def ref_key(exps):
    return tuple((i, k, e) for (i, k), e in sorted(exps.items()))


def ref_comb(terms):
    out = {}
    for exps, c in terms:
        key = frozenset(ref_clean(exps).items())
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def as_ref(p):
    return {frozenset(m.exps.items()): c for m, c in p.terms.items()}


def build(terms):
    return comb(*[(LoopMonomial(exps), c) for exps, c in terms])


@settings(max_examples=200, deadline=None)
@given(exponent_maps, exponent_maps)
def test_packed_product_and_inverse_match_reference(a, b):
    ma, mb = LoopMonomial(a), LoopMonomial(b)
    assert ma.exps == ref_clean(a)
    assert ma.inverse().exps == {v: -e for v, e in ref_clean(a).items()}
    assert ma * ma.inverse() == ONE
    want = ref_mul(a, b)
    if ref_fits(want):
        got = ma * mb
        assert got.exps == want
        assert got == LoopMonomial(want)
        assert hash(got) == hash(LoopMonomial(want))
        assert max(map(abs, want.values()), default=0) <= got.bound
    else:
        with pytest.raises(OverflowError):
            ma * mb


@settings(max_examples=100, deadline=None)
@given(exponent_maps, st.integers(-4, 4))
def test_packed_power_matches_reference(a, p):
    want = ref_clean({v: p * e for v, e in a.items()})
    if ref_fits(want):
        assert (LoopMonomial(a) ** p).exps == want
    else:
        with pytest.raises(OverflowError):
            LoopMonomial(a) ** p


@settings(max_examples=200, deadline=None)
@given(crowded_maps, crowded_maps)
def test_packed_equality_and_hash_match_reference(a, b):
    ma, mb = LoopMonomial(a), LoopMonomial(b)
    assert (ma == mb) == (ref_clean(a) == ref_clean(b))
    if ma == mb:
        assert hash(ma) == hash(mb)


@settings(max_examples=100, deadline=None)
@given(st.lists(exponent_maps, max_size=6))
def test_packed_key_order_and_dominance_match_reference(maps):
    monos = [LoopMonomial(a) for a in maps]
    for m, a in zip(monos, maps):
        a = ref_clean(a)
        assert m.key() == ref_key(a)
        assert dominant(m) == all(e > 0 for e in a.values())
        assert antidominant(m) == all(e < 0 for e in a.values())
    got = [m.key() for m in sorted(monos, key=LoopMonomial.key)]
    assert got == sorted(ref_key(ref_clean(a)) for a in maps)


@settings(max_examples=100, deadline=None)
@given(term_lists, term_lists)
def test_packed_combination_product_matches_reference(s, t):
    p, q = build(s), build(t)
    assert as_ref(p) == ref_comb(s)
    want = {}
    overflow = False
    for a, c1 in ref_comb(s).items():
        for b, c2 in ref_comb(t).items():
            m = ref_mul(dict(a), dict(b))
            overflow |= not ref_fits(m)
            key = frozenset(m.items())
            want[key] = want.get(key, 0) + c1 * c2
    if overflow:
        with pytest.raises(OverflowError):
            p * q
    else:
        assert as_ref(p * q) == {k: c for k, c in want.items() if c}
        assert 0 not in (p * q).terms.values()


@settings(max_examples=100, deadline=None)
@given(term_lists, st.integers(-40, 40))
def test_packed_shift_and_text_match_reference(terms, s):
    p = build(terms)
    want = {frozenset(((i, k + s), e) for (i, k), e in key): c
            for key, c in ref_comb(terms).items()}
    assert as_ref(p.shifted(s)) == want
    lines = sorted((ref_key(dict(key)), c) for key, c in ref_comb(terms).items())
    assert to_text(p) == "".join(
        " ".join([str(c)] + [f"Y[{i},{k}]^{e}" for i, k, e in key]) + "\n"
        for key, c in lines)
    assert from_text(to_text(p)) == p


def test_overflow_fallback_is_exact():
    big = MAX_EXPONENT - 1
    a = y_var(1, 0, big)
    b = y_var(1, 0, -big) * y_var(2, 5)
    # the bounds add past the digit range, so the product is recomputed
    # from the decoded exponents
    assert a.bound + b.bound > MAX_EXPONENT
    assert a * b == y_var(2, 5)
    assert (a * b).exps == {(2, 5): 1}
    with pytest.raises(OverflowError):
        a * a
    with pytest.raises(OverflowError):
        a ** 2
    with pytest.raises(OverflowError):
        LoopMonomial({(1, 0): MAX_EXPONENT + 1})
    # a loose bound left by cancellation is tightened, not trusted: twice
    # half fits the digit range, four times half does not
    half = MAX_EXPONENT // 2
    assert 2 * half <= MAX_EXPONENT < 4 * half
    ghost = y_var(3, -7, half) * y_var(3, -7, -half)
    far = y_var(3, -7, 2 * half)
    assert ghost == ONE and ghost.bound == 2 * half
    assert ghost.bound + far.bound > MAX_EXPONENT
    assert ghost * far == far and (ghost * far).exps == {(3, -7): 2 * half}
    # the same at combination level: exact path, tightened path, overflow
    p = LaurentCombination.from_monomial(a) + LaurentCombination.unit()
    q = LaurentCombination.from_monomial(b)
    assert p * q == comb((y_var(2, 5), 1), (b, 1))
    with pytest.raises(OverflowError):
        p * p
    loose = (LaurentCombination.from_monomial(y_var(3, -7, half))
             * LaurentCombination.from_monomial(y_var(3, -7, -half)))
    assert loose == LaurentCombination.unit() and loose._bound == 2 * half
    assert loose * LaurentCombination.from_monomial(far) == comb((far, 1))
