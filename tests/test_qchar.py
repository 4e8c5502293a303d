from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from qsnake.loopring import (
    ONE,
    CartanData,
    LaurentCombination,
    LoopMonomial,
    a_decompose,
    antidominant_monomials,
    dominant_monomials,
    to_text,
    y_var,
)
from qsnake import qchar
from qsnake.qchar import (
    SnakeSpec,
    _fm_chain,
    alternating_product,
    alternating_snake_spec,
    binomial_census_sum,
    composition_factors,
    count_dominant_census,
    fibonacci_tiling,
    fundamental_qchar,
    kr_qchar,
    laurent_divide,
    module_dim,
    neighbouring_snakes,
    node_at,
    snake_qchar,
    snake_trio_reports,
    strip_tilings,
    tsystem_reports,
)
from test_loopring import ref_key


def weyl_dim(n, lam):
    """Independent dimension oracle for sl_{n+1} highest weight sum lam_i omega_i."""
    dim = Fraction(1)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            dim *= Fraction(sum(lam[a - 1 : b]) + (b - a + 1), b - a + 1)
    assert dim.denominator == 1
    return int(dim)


# frozen before running the character code: linear recurrence
# d_{l+1} = (n+1) d_l - d_{l-1} seeded by 1, n+1
SNAKE_DIMS = {
    2: [1, 3, 8, 21, 55, 144, 377],
    3: [1, 4, 15, 56, 209, 780, 2911],
}

# strip tilings by 1- and 2-blocks: T(1)=1, T(2)=2
T_SEQ = [1, 1, 2, 3, 5, 8, 13, 21]


def mono(*triples):
    return LoopMonomial({(i, k): e for i, k, e in triples})


def test_weyl_oracle_sanity():
    assert weyl_dim(2, (1, 0)) == 3
    assert weyl_dim(2, (1, 1)) == 8
    assert weyl_dim(3, (0, 1, 0)) == 6


def test_fundamental_explicit_n2():
    f1 = fundamental_qchar(2, 1, 0)
    assert f1.terms == {
        y_var(1, 0): 1,
        mono((2, 1, 1), (1, 2, -1)): 1,
        mono((2, 3, -1)): 1,
    }
    f2 = fundamental_qchar(2, 2, 0)
    assert f2.terms == {
        y_var(2, 0): 1,
        mono((1, 1, 1), (2, 2, -1)): 1,
        mono((1, 3, -1)): 1,
    }


def test_fundamental_counts_and_errors():
    for n in range(2, 6):
        for node in (1, n):
            c = fundamental_qchar(n, node, 5)
            assert len(c) == n + 1
            assert all(v == 1 for v in c.terms.values())
            assert module_dim(c) == n + 1
    with pytest.raises(ValueError):
        fundamental_qchar(3, 2, 0)


def test_fundamental_weight_reduction():
    for n in (2, 3, 4):
        c = fundamental_qchar(n, 1, 0)
        # each Y[i,k]^e contributes e*omega_i
        wts = []
        for m in c.terms:
            w = [0] * n
            for (i, _k), e in m.exps.items():
                w[i - 1] += e
            wts.append(tuple(w))
        assert len(set(wts)) == n + 1
        # the vector representation: omega_1, omega_{k+1}-omega_k, -omega_n
        coeff_sets = set(wts)
        expect = {tuple(1 if j == 0 else 0 for j in range(n))}
        for k in range(1, n):
            expect.add(tuple((1 if j == k else 0) - (1 if j == k - 1 else 0) for j in range(n)))
        expect.add(tuple(-1 if j == n - 1 else 0 for j in range(n)))
        assert coeff_sets == expect


def test_snake_base_cases():
    assert snake_qchar(2, "even", 0, 0).terms == {ONE: 1}
    assert snake_qchar(2, "even", 1, 4) == fundamental_qchar(2, 1, 4)
    assert snake_qchar(2, "odd", 1, 3) == fundamental_qchar(2, 2, 3)
    assert snake_qchar(3, "odd", 1, 0) == fundamental_qchar(3, 3, 0)


def test_snake_l2_example():
    s = snake_qchar(2, "even", 2, 0)
    assert len(s) == 8
    assert dominant_monomials(s) == [(mono((1, 0, 1), (2, 3, 1)), 1)]
    assert module_dim(s) == 8


def test_snake_dims_oracle():
    for n in (2, 3):
        for l, want in enumerate(SNAKE_DIMS[n]):
            assert module_dim(snake_qchar(n, "even", l, 0)) == want
            assert module_dim(snake_qchar(n, "odd", l, 1 if n == 2 else 0)) == want


def test_snake_special_antispecial_thin():
    for n in (2, 3):
        for parity in ("even", "odd"):
            for l in range(7):
                s = snake_qchar(n, parity, l, 0)
                assert all(c == 1 for c in s.terms.values())
                assert len(dominant_monomials(s)) == 1
                assert len(antidominant_monomials(s)) == 1


def test_extended_t_recursion():
    # the front-peeled three-term identity; snakes grow from the back
    for n in (2, 3):
        for parity, pnext in (("even", "odd"), ("odd", "even")):
            for l in range(1, 5):
                lhs = (fundamental_qchar(n, node_at(n, parity, 0), 0)
                       * snake_qchar(n, pnext, l, n + 1))
                rhs = (snake_qchar(n, parity, l + 1, 0)
                       + snake_qchar(n, parity, l - 1, 2 * (n + 1)))
                assert lhs == rhs


def test_pairwise_extended_t_identity():
    # [S^l(s+n+1)][S^l(s)] with staggered parities factorizes with unit remainder
    for n in (2, 3):
        for parity, pnext in (("even", "odd"), ("odd", "even")):
            for l in range(1, 5):
                lhs = snake_qchar(n, pnext, l, n + 1) * snake_qchar(n, parity, l, 0)
                rhs = (snake_qchar(n, parity, l + 1, 0)
                       * snake_qchar(n, pnext, l - 1, n + 1))
                one = lhs - rhs
                assert one.terms == {ONE: 1}


def test_laurent_divide():
    p = fundamental_qchar(2, 1, 0) * fundamental_qchar(2, 2, 1)
    q = fundamental_qchar(2, 2, 1)
    quot, rem = laurent_divide(p, q)
    assert rem.is_zero()
    assert quot == fundamental_qchar(2, 1, 0)
    quot2, rem2 = laurent_divide(fundamental_qchar(2, 1, 0), q)
    assert not rem2.is_zero()


def test_kr_characters():
    assert kr_qchar(2, 1, 1, 0) == fundamental_qchar(2, 1, 0)
    assert module_dim(kr_qchar(2, 1, 2, 0)) == weyl_dim(2, (2, 0)) == 6
    assert module_dim(kr_qchar(2, 1, 3, 0)) == weyl_dim(2, (3, 0)) == 10
    assert module_dim(kr_qchar(2, 2, 2, 0)) == weyl_dim(2, (0, 2)) == 6
    assert module_dim(kr_qchar(2, 2, 3, 0)) == weyl_dim(2, (0, 3)) == 10
    # at an extremal node the level-k module has the dimension of the
    # k-th symmetric power of the (n+1)-dimensional fundamental
    for node in (1, 3):
        for k in range(5):
            assert module_dim(kr_qchar(3, node, k, 1)) == comb(3 + k, k)
    with pytest.raises(ValueError):
        kr_qchar(3, 2, 2, 0)


def test_kr_t_system_residual():
    for node in (1, 2):
        other = 3 - node
        for k in (1, 2, 3):
            for s in (0, 1):
                lhs = kr_qchar(2, node, k, s) * kr_qchar(2, node, k, s + 2)
                rhs = kr_qchar(2, node, k + 1, s) * kr_qchar(2, node, k - 1, s + 2)
                rhs = rhs + kr_qchar(2, other, k, s + 1)
                assert (lhs - rhs).is_zero()


def test_kr_characters_are_one_row_tableau_sums():
    # an oracle apart from the T-system the report checks: the level-k
    # character at shift s sums, over i_1 <= ... <= i_k, the product over
    # j = 0..k-1 of monomial i_j of the Frenkel-Mukhin lowering chain at
    # shift s + 2j
    for n in range(1, 5):
        for node in {1, n}:
            for k in range(5):
                for s in (0, 1, -3):
                    boxes = [_fm_chain(n, node, s + 2 * j) for j in range(k)]
                    want = {}
                    for row in combinations_with_replacement(range(n + 1), k):
                        m = ONE
                        for j, i in enumerate(row):
                            m = m * boxes[j][i]
                        want[m] = want.get(m, 0) + 1
                    got = kr_qchar(n, node, k, s)
                    assert got == LaurentCombination(want), (n, node, k, s)


def test_snake_characters_are_chain_tuple_sums():
    # an oracle apart from the recursion that appends points: the l-point
    # snake sums, over chain indices (i_1, ..., i_l), the product of
    # monomial i_t of point t's Frenkel-Mukhin lowering chain, leaving
    # out every tuple in which one point takes its last monomial (index
    # n) and the next point its first (index 0); tuples holds (last
    # index, product) of every admitted l-tuple.  Each (n, parity, shift)
    # caches one prefix list, so once the 7-point snake is built, the
    # shorter ones add no cache entry.
    for n in range(1, 5):
        for parity in ("even", "odd"):
            for shift in (0, 3):
                snake_qchar(n, parity, 7, shift)
                cached = {key: len(prefixes)
                          for key, prefixes in qchar._snake_cache.items()}
                tuples = [(None, ONE)]
                for l in range(8):
                    if l:
                        t = l - 1
                        chain = _fm_chain(n, node_at(n, parity, t),
                                          shift + t * (n + 1))
                        tuples = [(i, m * chain[i]) for last, m in tuples
                                  for i in range(n + 1)
                                  if not (last == n and i == 0)]
                    want = {}
                    for _last, m in tuples:
                        want[m] = want.get(m, 0) + 1
                    got = snake_qchar(n, parity, l, shift)
                    assert got == LaurentCombination(want), (n, parity, l, shift)
                assert {key: len(prefixes) for key, prefixes
                        in qchar._snake_cache.items()} == cached
                assert (n, parity, shift) in cached
    assert {len(key) for key in qchar._snake_cache} == {3}


def test_corrupted_prefix_fails_the_tsystem_report(monkeypatch):
    # the report peels the first point while snakes grow from the back,
    # so a wrong cached prefix fails it instead of being re-derived;
    # dropping the dominant monomial of S(odd, 2, 3) keeps every prefix
    # built on it thin
    monkeypatch.setattr(qchar, "_snake_cache", {})
    good = snake_qchar(2, "odd", 2, 3)
    [(top, _c)] = dominant_monomials(good)
    qchar._snake_cache[(2, "odd", 3)][2] = LaurentCombination(
        {m: c for m, c in good.terms.items() if m != top})
    report = tsystem_reports(4, n_values=(2,))[0]
    assert report.check == "extended t-system recursion"
    assert report.status == "fail"
    assert ("even", 2) in report.witness["violations"]


def test_trio_never_sees_a_snake_that_is_not_thin(monkeypatch):
    # the trio reads no thinness of its own: a doubled fundamental makes
    # the first prefix non-thin, and snake_qchar raises before any report
    monkeypatch.setattr(qchar, "_snake_cache", {})
    fundamental = qchar.fundamental_qchar

    def doubled(n, node, shift=0):
        return fundamental(n, node, shift) + fundamental(n, node, shift)

    monkeypatch.setattr(qchar, "fundamental_qchar", doubled)
    with pytest.raises(ArithmeticError):
        snake_trio_reports(2)


def test_cached_characters_are_read_only():
    # snake_qchar hands every caller the combination its cache holds, so
    # no caller may be able to change it; a KR character is read-only too
    for get in (lambda: snake_qchar(2, "even", 3, 0),
                lambda: kr_qchar(2, 1, 2, 0)):
        char = get()
        before = to_text(char)
        m = next(iter(char.terms))
        with pytest.raises(TypeError):
            char.terms[m] = 5
        with pytest.raises(TypeError):
            char.terms[ONE] = 1
        with pytest.raises(TypeError):
            del char.terms[m]
        with pytest.raises(AttributeError):
            char.terms.clear()
        with pytest.raises(AttributeError):
            char.terms = {}
        assert to_text(get()) == before
    # the snake cache hands out one object; KR characters are not cached
    assert snake_qchar(2, "even", 3, 0) is snake_qchar(2, "even", 3, 0)


def test_alternating_product():
    p1 = alternating_product(2, "even", 0, 1)
    assert len(p1) == 9
    assert module_dim(p1) == 9
    p2 = alternating_product(2, "even", 0, 2)
    assert module_dim(p2) == 27
    doms = dominant_monomials(p2)
    assert [m for m, _c in doms] == sorted(
        [
            mono((1, 0, 1), (2, 3, 1), (1, 6, 1)),
            y_var(1, 0),
            y_var(1, 6),
        ],
        key=lambda m: ref_key(m.exps),
    )
    assert all(c == 1 for _m, c in doms)


def test_strip_tilings():
    assert strip_tilings(1) == [()]
    assert strip_tilings(2) == [(), (0,)]
    assert len(strip_tilings(3)) == 3
    for j in range(1, 8):
        assert len(strip_tilings(j)) == fibonacci_tiling(j) == T_SEQ[j]


def test_census_counts():
    for n in (2, 3):
        for l in range(1, 6):
            count, expected = count_dominant_census(n, l)
            assert expected == T_SEQ[l + 1]
            assert count == expected
    # the closed binomial sum lands one index lower; recorded, not asserted
    for l in range(1, 8):
        assert binomial_census_sum(l) == fibonacci_tiling(l)


def test_composition_factors_l1():
    factors = composition_factors(2, "even", 0, 1)
    dims = sorted(module_dim(char) for _t, char in factors)
    assert dims == [1, 8]
    tops = {t for t, _char in factors}
    assert tops == {ONE, mono((1, 0, 1), (2, 3, 1))}


def test_composition_factors_l2():
    factors = composition_factors(2, "even", 0, 2)
    dims = sorted(module_dim(char) for _t, char in factors)
    assert dims == [3, 3, 21]
    assert sum(module_dim(char) for _t, char in factors) == 27


def test_composition_factors_l3_and_n3():
    factors = composition_factors(2, "odd", 1, 3)
    assert len(factors) == 5
    assert sum(module_dim(char) for _t, char in factors) == 3**4
    factors3 = composition_factors(3, "even", 0, 2)
    assert len(factors3) == 3
    assert sum(module_dim(char) for _t, char in factors3) == 4**3


def test_snake_spec_predicates():
    s = SnakeSpec(2, [(1, 0), (2, 3)])
    assert s.is_snake() and s.is_prime() and s.is_minimal()
    m = SnakeSpec(2, [(1, 0), (1, 2)])
    assert m.is_snake() and m.is_prime() and m.is_minimal()
    wide = SnakeSpec(3, [(2, 1), (2, 5)])
    assert wide.is_snake() and wide.is_prime() and not wide.is_minimal()
    far = SnakeSpec(2, [(1, 0), (1, 8)])
    assert far.is_snake() and not far.is_prime()
    bad = SnakeSpec(2, [(1, 0), (2, 1)])
    assert not bad.is_snake()
    with pytest.raises(ValueError):
        SnakeSpec(2, [(1, 1)])  # parity lattice violation
    with pytest.raises(ValueError):
        SnakeSpec(2, [(3, 0)])  # node out of range
    spec = alternating_snake_spec(2, "even", 3, 0)
    assert spec.points == ((1, 0), (2, 3), (1, 6))
    assert spec.is_snake() and spec.is_prime() and spec.is_minimal()


def test_neighbouring_snakes_examples():
    x, y = neighbouring_snakes(SnakeSpec(2, [(1, 0), (2, 3)]))
    assert x.points == () and y.points == ()
    x, y = neighbouring_snakes(SnakeSpec(3, [(2, 1), (1, 4)]))
    assert x.points == () and y.points == ((3, 2),)
    x, y = neighbouring_snakes(SnakeSpec(3, [(1, 0), (1, 2)]))
    assert x.points == () and y.points == ((2, 1),)
    with pytest.raises(ValueError):
        neighbouring_snakes(SnakeSpec(2, [(1, 0), (2, 1)]))
    with pytest.raises(ValueError):
        neighbouring_snakes(SnakeSpec(2, [(1, 0), (1, 8)]))


def test_neighbour_matches_kr_t_system_shape():
    # [W_1(0)][W_1(2)] = [W_1^{(2)}(0)] + [W_2(1)] at n=2
    lhs = kr_qchar(2, 1, 1, 0) * kr_qchar(2, 1, 1, 2)
    rhs = kr_qchar(2, 1, 2, 0) + kr_qchar(2, 2, 1, 1)
    assert lhs == rhs
    _x, y = neighbouring_snakes(SnakeSpec(2, [(1, 0), (1, 2)]))
    assert y.points == ((2, 1),)


def test_q_minus_containment():
    cartan2, cartan3 = CartanData(2), CartanData(3)
    for n, cartan, lmax in ((2, cartan2, 3), (3, cartan3, 2)):
        for l in range(1, lmax + 1):
            s = snake_qchar(n, "even", l, 0)
            [(top, _c)] = dominant_monomials(s)
            for m in s.terms:
                assert a_decompose(cartan, m * top.inverse()) is not None
