import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qsnake import rmat
from qsnake.cli import main
from qsnake.exactlin import RatFun, matrix_rank, tensor_from_matrix
from qsnake.rmat import (
    PrefactorExpr,
    antisym_fusion,
    charge_conj,
    charge_conj_matrix,
    chevalley_generators,
    h_shift,
    identity_matrix,
    k_matrix,
    permutation_matrix,
    prefactor_reduce,
    r_dual_dual,
    r_num,
    rbar_num,
    rmatrix_reports,
    singlet_projector,
    singlet_vector,
    vertex_chain,
    vertex_matrix,
)
from test_mutants import MUTANTS, mutate_rows, vertex_edit

X = RatFun.x()


def dense(rows, dim):
    """A sparse row map on dim coordinates as a dense array, for the
    numpy algebra of these tests."""
    m = np.full((dim, dim), Fraction(0), dtype=object)
    for r, row in rows.items():
        for c, v in row.items():
            m[r, c] = v
    return m


def test_rbar_kinds():
    # the kind names a mixed pair, first line first; every other pair is
    # rejected
    for n in (1, 2):
        lam = Fraction(5, 3)
        for kind in ("f-fbar", "fbar-f"):
            first, second = kind.split("-")
            want = dense(vertex_matrix(n, first, second, lam), (n + 1) ** 2)
            got = rbar_num(n, lam, kind).data.reshape((n + 1) ** 2,
                                                     (n + 1) ** 2)
            assert (got == want).all()
    for kind in ("ff", "f-f", "fbar-fbar"):
        with pytest.raises(ValueError):
            rbar_num(2, Fraction(1), kind)


def test_r_at_zero_is_permutation():
    for n in (2, 3):
        d2 = (n + 1) ** 2
        assert (dense(vertex_matrix(n, "f", "f", Fraction(0)), d2)
                == dense(permutation_matrix(n), d2)).all()


def test_unitarity_polynomial_identity():
    for n in (2, 3):
        d = n + 1
        prod = (dense(vertex_matrix(n, "f", "f", X), d * d)
                @ dense(vertex_matrix(n, "f", "f", -X), d * d))
        want = (1 - X * X)
        for i in range(d * d):
            for j in range(d * d):
                assert prod[i, j] == (want if i == j else RatFun((0,)))


def test_mixed_unitarity_scalar_polynomial():
    # the mixed product is (h^2 - lam^2) times the identity
    for n in (2, 3):
        d = n + 1
        h = h_shift(n)
        prod = (dense(vertex_matrix(n, "f", "fbar", X), d * d)
                @ dense(vertex_matrix(n, "fbar", "f", -X), d * d))
        want = (RatFun.const(h * h) - X * X)
        for i in range(d * d):
            for j in range(d * d):
                assert prod[i, j] == (want if i == j else RatFun((0,)))


# sparse helpers: rows as {row: {col: value}}; vertices have few nonzeros
def sparse_rows(mat):
    out = {}
    m = np.asarray(mat)
    for i in range(m.shape[0]):
        row = {j: m[i, j] for j in range(m.shape[1]) if m[i, j] != 0}
        if row:
            out[i] = row
    return out


def sparse_embed3(mat, p, q, d):
    """Two-site operator on slots p < q of three, as sparse rows."""
    rows = sparse_rows(mat)
    spect = ({0, 1, 2} - {p, q}).pop()
    out = {}
    for r, row in rows.items():
        i, j = divmod(r, d)
        for m in range(d):
            idx = [0, 0, 0]
            idx[p], idx[q], idx[spect] = i, j, m
            rr = (idx[0] * d + idx[1]) * d + idx[2]
            cols = {}
            for c, v in row.items():
                k, l = divmod(c, d)
                jdx = [0, 0, 0]
                jdx[p], jdx[q], jdx[spect] = k, l, m
                cols[(jdx[0] * d + jdx[1]) * d + jdx[2]] = v
            out[rr] = cols
    return out


def sparse_mul(a, b):
    out = {}
    for r, row in a.items():
        acc = {}
        for k, va in row.items():
            for c, vb in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + va * vb
        out[r] = {c: v for c, v in acc.items() if v != 0}
    return out


def sparse_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(k, {}) == b.get(k, {}) for k in keys)


YBE_POINTS = [
    (Fraction(2), Fraction(5)),
    (Fraction(3, 2), Fraction(7, 3)),
    (Fraction(-4, 3), Fraction(9, 5)),
    (Fraction(11, 7), Fraction(-2, 9)),
]


def test_ybe_all_kind_combinations():
    for n in (2, 3):
        d = n + 1
        for k1, k2, k3 in itertools.product(("f", "fbar"), repeat=3):
            for x, y in YBE_POINTS:
                r12 = sparse_embed3(
                    dense(vertex_matrix(n, k1, k2, x - y), d * d), 0, 1, d)
                r13 = sparse_embed3(
                    dense(vertex_matrix(n, k1, k3, x), d * d), 0, 2, d)
                r23 = sparse_embed3(
                    dense(vertex_matrix(n, k2, k3, y), d * d), 1, 2, d)
                lhs = sparse_mul(sparse_mul(r12, r13), r23)
                rhs = sparse_mul(sparse_mul(r23, r13), r12)
                assert sparse_eq(lhs, rhs), (n, k1, k2, k3, x, y)


def dual_action(n, x):
    c = dense(charge_conj_matrix(n), n + 1)
    return -(c @ x.T @ c)


def test_sl_invariance():
    lams = [Fraction(3, 7), Fraction(-5, 2), Fraction(9)]
    for n in (2, 3):
        d = n + 1
        ident = dense(identity_matrix(d), d)
        for lam in lams:
            r = dense(vertex_matrix(n, "f", "f", lam), d * d)
            rb = dense(vertex_matrix(n, "f", "fbar", lam), d * d)
            for e, f, h in chevalley_generators(n):
                for g in (dense(e, d), dense(f, d), dense(h, d)):
                    diag = np.kron(g, ident) + np.kron(ident, g)
                    assert ((r @ diag - diag @ r) == 0).all()
                    diagbar = np.kron(g, ident) + np.kron(ident, dual_action(n, g))
                    assert ((rb @ diagbar - diagbar @ rb) == 0).all()


def partial_transpose_second(mat, d):
    t = np.asarray(mat).reshape(d, d, d, d)
    return t.transpose(0, 3, 2, 1).reshape(d * d, d * d)


def test_crossing_single_scalar():
    # rbar(lam) = -(1 x C) r(-lam-h)^{t2} (1 x C), as a RatFun identity
    for n in (2, 3):
        d = n + 1
        h = h_shift(n)
        oc = np.kron(dense(identity_matrix(d), d),
                     dense(charge_conj_matrix(n), d))
        crossed = oc @ partial_transpose_second(
            dense(vertex_matrix(n, "f", "f", -X - RatFun.const(h)), d * d), d
        ) @ oc
        rb = dense(vertex_matrix(n, "f", "fbar", X), d * d)
        assert ((crossed + rb) == RatFun((0,))).all()


def test_charge_conj():
    for n in (2, 3):
        c = charge_conj(n)
        mat = c.data
        assert ((mat @ mat) == dense(identity_matrix(n + 1), n + 1)).all()
    m2 = charge_conj(2).data
    assert all(m2[i, 2 - i] == 1 for i in range(3))
    # det is the sign of one transposition on three letters
    assert (
        m2[0, 2] * m2[1, 1] * m2[2, 0] == 1
    )  # the antidiagonal term; odd permutation, det -1


def test_singlet_normalization_and_sign():
    for n in (2, 3):
        ket = singlet_vector(n, "fbar-f")
        bra_data = ket.data
        pairing = sum(
            bra_data[i, j] * bra_data[i, j] for i in range(n + 1) for j in range(n + 1)
        )
        assert pairing == n + 1
        assert ket.data[0, n] == 1  # residual sign convention
        proj = singlet_projector(n, "fbar-f")
        mat = proj.data.reshape((n + 1) ** 2, (n + 1) ** 2)
        assert ((mat @ mat) == mat).all()
        assert sum(mat[i, i] for i in range((n + 1) ** 2)) == 1
        assert ((mat * (n + 1)) == dense(k_matrix(n), (n + 1) ** 2)).all()


def test_singlet_invariance():
    for n in (2, 3):
        d = n + 1
        s = singlet_vector(n, "fbar-f").data
        for e, f, h in chevalley_generators(n):
            for g in (dense(e, d), dense(f, d), dense(h, d)):
                # first slot antifundamental, second fundamental
                acted = dual_action(n, g) @ s + s @ g.T
                assert (acted == 0).all()


def test_rbar_at_minus_h():
    for n in (2, 3):
        h = h_shift(n)
        rb = rbar_num(n, -h)
        mat = rb.data.reshape((n + 1) ** 2, (n + 1) ** 2)
        assert ((mat + dense(k_matrix(n), (n + 1) ** 2)) == 0).all()
        t = tensor_from_matrix(sparse_rows(mat), ["a", "b"], ["c", "d"],
                               [n + 1, n + 1])
        assert matrix_rank(t, {"a", "b"}, {"c", "d"}) == 1
    with pytest.raises(ValueError):
        rbar_num(2, Fraction(1), "ff")


def test_r_dual_dual_matches_r():
    for n in (2, 3):
        for lam in (Fraction(0), Fraction(5, 3)):
            a = r_dual_dual(n, lam).data
            b = r_num(n, lam).data
            assert (a == b).all()


def test_antisymmetrizer_rank():
    for n in (2, 3):
        d = n + 1
        rm1 = dense(vertex_matrix(n, "f", "f", Fraction(-1)), d * d)
        pi = rm1 * Fraction(-1, 2)
        assert ((pi @ pi) == pi).all()
        t = tensor_from_matrix(sparse_rows(pi), ["a", "b"], ["c", "d"], [d, d])
        assert matrix_rank(t, {"a", "b"}, {"c", "d"}) == n * (n + 1) // 2


def test_antisym_fusion_factorization():
    for n in (2, 3):
        d = n + 1
        nw = n * (n + 1) // 2
        de_rows, fu_rows = antisym_fusion(n)
        # de is wedge x pair, fu pair x wedge: cut the square arrays down
        assert set(de_rows) == set(range(nw))
        assert {c for row in fu_rows.values() for c in row} == set(range(nw))
        de = dense(de_rows, d * d)[:nw]
        fu = dense(fu_rows, d * d)[:, :nw]
        assert (fu @ de == dense(vertex_matrix(n, "f", "f", Fraction(-1)),
                                 d * d)).all()
        assert ((de @ fu + 2 * dense(identity_matrix(nw), nw)) == 0).all()


def test_prefactor_examples():
    n = 2
    # rho(lam) * rho(-lam) -> 1
    e = PrefactorExpr.rho(n, 0, 1, 1) * PrefactorExpr.rho(n, 0, 1, -1)
    assert prefactor_reduce(e) == RatFun.const(1)
    # rho(lam) * rho(n+1-lam) -> lam(lam-(n+1)) / ((lam-1)(lam-n))
    e2 = PrefactorExpr.rho(n, 0) * PrefactorExpr.rho(n, n + 1, 1, -1)
    got = prefactor_reduce(e2)
    want = (X * (X - (n + 1))) / ((X - 1) * (X - n))
    assert got == want
    # a lone factor survives and is reported
    e3 = PrefactorExpr.rho(n, Fraction(1, 2))
    red = prefactor_reduce(e3)
    assert isinstance(red, PrefactorExpr)
    assert red.surviving() == [(Fraction(1, 2), 1)]


def test_prefactor_mixed_pair_and_confluence():
    n = 2
    h = h_shift(n)
    # the mixed-chain pair rho(lam+h) rho(h-lam), shifts summing to n+1
    pair = PrefactorExpr.rho(n, h) * PrefactorExpr.rho(n, h, 1, -1)
    got = prefactor_reduce(pair)
    y = X + RatFun.const(h)
    assert got == (y * (y - (n + 1))) / ((y - 1) * (y - n))
    # two independent pairs: reduce regardless of assembly order
    parts = [
        PrefactorExpr.rho(n, 0),
        PrefactorExpr.rho(n, 0, 1, -1),
        PrefactorExpr.rho(n, h),
        PrefactorExpr.rho(n, h, 1, -1),
    ]
    acc1 = PrefactorExpr(n)
    for p in parts:
        acc1 = acc1 * p
    acc2 = PrefactorExpr(n)
    for p in reversed(parts):
        acc2 = acc2 * p
    r1, r2 = prefactor_reduce(acc1), prefactor_reduce(acc2)
    assert isinstance(r1, RatFun) and r1 == r2


def test_prefactor_scalar_carry():
    n = 3
    e = PrefactorExpr(n, Fraction(2, 3))
    e = e * PrefactorExpr.rho(n, 1) * PrefactorExpr.rho(n, -1, 1, -1)
    assert prefactor_reduce(e) == RatFun.const(Fraction(2, 3))


def former_reduce(expr):
    """The former PrefactorExpr.reduce, kept as its oracle: move a factor
    one rung down the ladder while a partner of opposite exponent sits
    below it in its class, restarting after every move, each rung a
    RatFun product or quotient.  Returns (rational part, rho factors)."""
    n = expr.n
    step = n + 1
    x = RatFun.x()
    factors = {s: e for s, e in expr.factors.items() if e}
    rational = expr.rational

    def has_partner_below(s, e):
        for t, et in factors.items():
            if t >= s or et * e >= 0:
                continue
            q = (s - t) / step
            if q.denominator == 1:
                return True
        return False

    changed = True
    while changed:
        changed = False
        for s in sorted(factors):
            e = factors.get(s, 0)
            if not e or not has_partner_below(s, e):
                continue
            y = x + RatFun.const(s)
            rung = (y * (y - step)) / ((y - 1) * (y - n))
            if e > 0:
                rational = rational * rung
                factors[s] = e - 1
                factors[s - step] = factors.get(s - step, 0) + 1
            else:
                rational = rational / rung
                factors[s] = e + 1
                factors[s - step] = factors.get(s - step, 0) - 1
            changed = True
            break
    return rational, {s: e for s, e in factors.items() if e}


def class_totals(n, factors):
    """Exponent total of each class of rho shifts congruent mod n+1, the
    classes that cancel left out."""
    out = {}
    for s, e in factors.items():
        out[s % (n + 1)] = out.get(s % (n + 1), 0) + e
    return {c: e for c, e in out.items() if e}


def test_reduce_matches_the_former_greedy_reduce():
    # seeded products of rho factors in two or three classes, exponents
    # +-1 and +-2, behind a rational prefix (lam - c)/(lam + c + 7) * 3/5
    # held as a constant and two roots; a class cancels when its members
    # come in pairs of opposite exponent
    rng = random.Random(23)
    seen = set()
    for trial in range(40):
        n = 1 + trial % 4
        step = n + 1
        bases = rng.sample([Fraction(0), Fraction(1, 2), Fraction(1, 3),
                            Fraction(-2, 5), h_shift(n), Fraction(1)], 3)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        expr = (PrefactorExpr(n, Fraction(3, 5), roots={c: 1})
                * PrefactorExpr(n, 1, roots={-c - 7: -1}))
        assert expr.rational == (X - c) / (X + c + 7) * Fraction(3, 5)
        for base in bases[:rng.randint(2, 3)]:
            for _ in range(rng.randint(1, 2)):
                e = rng.choice((1, -1, 2, -2))
                for j, sign in ((rng.randint(-2, 2), 1),
                                (rng.randint(-2, 2), -1)):
                    expr = expr * PrefactorExpr.rho(
                        n, base + j * step, sign * e)
            if rng.random() < 0.3:  # one unpaired factor in this class
                expr = expr * PrefactorExpr.rho(
                    n, base + rng.randint(-2, 2) * step, rng.choice((1, 2)))
        got, (rational, factors) = expr.reduce(), former_reduce(expr)
        assert (class_totals(n, got.factors) == class_totals(n, factors)
                == class_totals(n, expr.factors))
        if got.is_rational():
            assert not factors and got.rational == rational
        else:
            # one factor per class left, at its lowest shift
            for s in got.factors:
                assert s == min(t for t in expr.factors
                                if (t - s) % step == 0)
        seen.add((n, got.is_rational()))
    assert seen == set(itertools.product((1, 2, 3, 4), (False, True)))


# wall budget of the reduction below, which takes about 0.3 ms on a 2 vCPU
# Xeon at 2.0 GHz with its rungs as root multiplicities; as RatFun
# products it took 4 ms there, and with gcds and quotients over Q 15 s
PREFACTOR_REDUCE_BUDGET_S = 1


def test_reduce_of_classes_that_do_not_cancel_stays_cheap():
    # nine rho factors at n = 2 in four classes, none of which cancels:
    # reduce telescopes each class to its lowest shift, and the rungs
    # multiply into a rational part of degree 37 over degree 37
    n = 2
    expr = PrefactorExpr(n, 1, {
        Fraction(43, 5): -2, Fraction(13, 5): -1, Fraction(19, 2): -2,
        Fraction(21, 2): -1, Fraction(0): 2, Fraction(-17, 2): 1,
        Fraction(3, 2): -2, Fraction(15, 2): -1, Fraction(-15, 2): 1})
    start = time.monotonic()
    got = expr.reduce()
    assert time.monotonic() - start < PREFACTOR_REDUCE_BUDGET_S
    assert got.factors == {Fraction(13, 5): -3, Fraction(-17, 2): -1,
                           Fraction(-15, 2): -3, Fraction(0): 2}
    assert len(got.rational.num) == len(got.rational.den) == 38
    assert class_totals(n, got.factors) == class_totals(
        n, former_reduce(expr)[1])


def typed(mat):
    """A row map with each entry's type beside its value."""
    return {r: {c: (v, type(v)) for c, v in row.items()}
            for r, row in mat.items()}


def test_vertex_matrix_is_the_one_vertex_chain():
    # vertex_matrix reads the rows every chain applies: the one-vertex
    # chain on two slots over its scale, entry types included
    for n in (1, 2, 3, 4):
        h = h_shift(n)
        for (k1, k2), x in itertools.product(
                itertools.product(("f", "fbar"), repeat=2),
                (Fraction(2, 7), Fraction(-3), Fraction(0), -h, 1, X,
                 X + Fraction(1, 3), X - h)):
            chain, s = vertex_chain(n, 2, [(k1, k2, x, (0, 1))])
            want = {r: {c: v if isinstance(v, RatFun) else Fraction(v, s)
                        for c, v in row.items()} for r, row in chain.items()}
            assert typed(vertex_matrix(n, k1, k2, x)) == typed(want), (
                n, k1, k2, x)


def test_the_vertex_is_written_once(monkeypatch):
    # doubling the same-kind rows of the one vertex definition fails the
    # vertex reports and reaches every chain
    factors = [("f", "f", Fraction(1, 3), (0, 2)),
               ("fbar", "f", Fraction(-2, 5), (1, 0))]
    plain, scale = vertex_chain(2, 3, factors[:1])
    assert all(r.status == "pass" for r in rmatrix_reports((2, 3)))
    rows_of = rmat._vertex_rows

    def doubled(n, kind1, kind2, x, dw):
        rows, s = rows_of(n, kind1, kind2, x, dw)
        if kind1 == kind2:
            rows = [tuple((o, 2 * w) for o, w in row) for row in rows]
        return rows, s

    monkeypatch.setattr(rmat, "_vertex_rows", doubled)
    failed = {(r.check, r.params["n"]) for r in rmatrix_reports((2, 3))
              if r.status == "fail"}
    assert {("vertex unitarity", 2), ("vertex unitarity", 3)} <= failed
    assert vertex_chain(2, 3, factors[:1]) == (
        {r: {c: 2 * v for c, v in row.items()} for r, row in plain.items()},
        scale)
    assert vertex_matrix(2, "f", "f", Fraction(0)) == {
        r: {c: 2 * v for c, v in row.items()}
        for r, row in permutation_matrix(2).items()}


# the former decision of "vertex yang-baxter", kept as the oracle of the
# Kronecker point: every entry of the difference lies in span{x^a y^b :
# a, b <= 2, a + b <= 3}, of dimension 8, and the 3x3 grid less its last
# corner is unisolvent for that span
GRID_POINTS = tuple(itertools.product(
    (Fraction(2), Fraction(3, 2), Fraction(-4, 3)),
    (Fraction(5), Fraction(7, 3), Fraction(9, 5))))[:-1]
KIND_TRIPLES = tuple(itertools.product(("f", "fbar"), repeat=3))


def ybe_chain(kinds, x, y):
    """The left-hand side R12(x-y) R13(x) R23(y); reversed, the right."""
    k1, k2, k3 = kinds
    return [(k1, k2, x - y, (0, 1)), (k1, k3, x, (0, 2)),
            (k2, k3, y, (1, 2))]


def grid_violations(n):
    """The kind triples whose two sides differ at some grid point, both
    built by rmat.vertex_chain as it stands."""
    return {kinds for kinds, (x, y) in itertools.product(KIND_TRIPLES,
                                                         GRID_POINTS)
            if rmat.vertex_chain(n, 3, ybe_chain(kinds, x, y))
            != rmat.vertex_chain(n, 3, ybe_chain(kinds, x, y)[::-1])}


@pytest.mark.parametrize("mutant", sorted(MUTANTS["vertex yang-baxter"]))
def test_kronecker_point_flags_what_the_grid_flags(monkeypatch, mutant):
    MUTANTS["vertex yang-baxter"][mutant][0](monkeypatch)
    reports = [r for r in rmatrix_reports((1, 2, 3))
               if r.check == "vertex yang-baxter"]
    assert [r.params["n"] for r in reports] == [1, 2, 3]
    for r in reports:
        want = grid_violations(r.params["n"])
        assert want and r.status == "fail"
        assert set(r.witness["violations"]) == want, (mutant, r.params)


def symbolic_witnesses(n):
    """The unitarity and crossing mismatch counts at the symbolic x."""
    d, h = n + 1, h_shift(n)
    one = dense(identity_matrix(d * d), d * d)

    def at(k1, k2, x):
        return dense(vertex_matrix(n, k1, k2, x), d * d)

    def count(a, b):
        return int((a != b).sum())

    oc = np.kron(dense(identity_matrix(d), d),
                 dense(charge_conj_matrix(n), d))
    crossed = -(oc @ partial_transpose_second(
        at("f", "f", -X - RatFun.const(h)), d) @ oc)
    return {"same_kind_mismatches": count(
                at("f", "f", X) @ at("f", "f", -X), one * (1 - X * X)),
            "mixed_kind_mismatches": count(
                at("f", "fbar", X) @ at("fbar", "f", -X),
                one * (RatFun.const(h * h) - X * X)),
            "mismatches": count(crossed, at("f", "fbar", X))}


def doubled_same(k1, k2, rows, s):
    if k1 != k2:
        return rows, s
    return [tuple((o, 2 * w) for o, w in row) for row in rows], s


@pytest.mark.parametrize("edit", [None, doubled_same,
                                  vertex_edit("same", alpha=1),
                                  vertex_edit("mixed", alpha=Fraction(1, 2))],
                         ids=["none", "doubled same", "same alpha + 1",
                              "mixed shift + 1/2"])
def test_unitarity_and_crossing_count_as_the_symbolic_x(monkeypatch, edit):
    # x = B decides each entry's degree <= 2 polynomial, so the witness
    # counts are those of RatFun.x(), on failing mutants too
    if edit:
        mutate_rows(monkeypatch, edit)
    for r in rmatrix_reports((1, 2, 3)):
        if r.check in ("vertex unitarity", "vertex crossing"):
            want = symbolic_witnesses(r.params["n"])
            assert r.witness == {k: want[k] for k in r.witness}, r.check
            assert (r.status == "pass") == (not any(r.witness.values()))


def test_shifted_same_kind_alpha_fails_unitarity(monkeypatch):
    # (x+1)*1 + P times (1-x)*1 + P is not scalar
    mutate_rows(monkeypatch, vertex_edit("same", alpha=1))
    failed = {(r.check, r.params["n"]) for r in rmatrix_reports((1, 2, 3))
              if r.status == "fail"}
    assert {("vertex unitarity", n) for n in (1, 2, 3)} <= failed


def interpolate(values):
    """Coefficients c0, c1, c2 of the quadratic through values at 0, 1, 2."""
    p0, p1, p2 = values
    c2 = Fraction(p2 - 2 * p1 + p0, 2)
    return p0, p1 - p0 - c2, c2


def test_ybe_coefficients_stay_below_a_quarter_of_the_base():
    # each side's entries, interpolated on {0,1,2}^2 at degree <= 2 in x
    # and in y, have coefficients below B/4, so those of the difference
    # are balanced base-B digits; the interpolant also meets the side at
    # (3, 4), a check of the degrees
    grid = tuple(itertools.product(range(3), repeat=2)) + ((3, 4),)
    for n, kinds, side in itertools.product((1, 2, 3, 4), KIND_TRIPLES,
                                            (1, -1)):
        quarter = Fraction(rmat.kronecker_base(n), 4)
        maps = {pt: vertex_chain(n, 3, ybe_chain(kinds, *pt)[::side])[0]
                for pt in grid}
        for r, c in {(r, c) for m in maps.values() for r in m for c in m[r]}:
            def entry(x, y):
                return maps[x, y].get(r, {}).get(c, 0)
            by_x = [interpolate([entry(x, y) for x in range(3)])
                    for y in range(3)]
            coeffs = [interpolate([row[a] for row in by_x]) for a in range(3)]
            assert all(abs(v) < quarter for cs in coeffs for v in cs)
            assert entry(3, 4) == sum(coeffs[a][b] * 3 ** a * 4 ** b
                                      for a in range(3) for b in range(3))


@pytest.mark.parametrize("n", [1, 5, 6])
def test_rmatrix_reaches_rank(capsys, n):
    assert main(["rmatrix", "--n", str(n)]) == 0
    assert capsys.readouterr().out.endswith(
        "5 checks: 5 pass, 0 fail, 0 exploratory\n")
