"""Rational R-matrices of type A_n and the symbolic prefactor calculus.

Everything acts on concrete coordinate spaces: the fundamental V has
basis e_0..e_n, the antifundamental is carried on the same coordinates
through the dual basis, with the charge conjugation C (index reversal)
mediating between them.  Same-kind vertices are x*1 + P, mixed-kind
vertices are (x + (n+1)/2)*1 - K where K is the rank-1 singlet operator.
Operators are sparse row maps (see sparse); only the labeled tensors,
test wrappers that import numpy when called, hold dense arrays.

The vertex is written once, as the integer rows of _vertex_rows, which
vertex_matrix reads and vertex_chain, the builder of every window, tower
and fused product, applies; rmatrix_reports certifies those rows, at
one integer point per identity (kronecker_base).
The transcendental scalar prefactor rho is never evaluated; it is carried
formally and removed through its two functional relations.
"""

from fractions import Fraction
import functools
import itertools

from . import sparse
from .exactlin import LabeledTensor, Leg, RatFun, echelon, tensor_from_matrix
from .report import VerificationReport


def h_shift(n):
    return Fraction(n + 1, 2)


def identity_matrix(dim):
    one = Fraction(1)
    return {r: {r: one} for r in range(dim)}


def permutation_matrix(n):
    d = n + 1
    return {i * d + j: {j * d + i: Fraction(1)}
            for i in range(d) for j in range(d)}


def k_matrix(n):
    """The rank-1 operator |s><s| with s the invariant pair vector."""
    d = n + 1
    return {i * d + n - i: {k * d + n - k: Fraction(1) for k in range(d)}
            for i in range(d)}


def charge_conj_matrix(n):
    return {i: {n - i: Fraction(1)} for i in range(n + 1)}


def _vertex_rows(n, kind1, kind2, x, dw):
    """(rows, s): the vertex for kinds (kind1, kind2) at x, times s, the
    denominator of its shift (x, or x + (n+1)/2 for mixed kinds; 1 for a
    RatFun), is alpha*1 + beta*B, alpha = s * shift, B = P and beta = s
    for same kinds, B = K and beta = -s for mixed ones.  rows[d*a + b]
    lists row (a, b) as (column offset, weight) pairs, on two slots whose
    place values differ by dw."""
    for k in (kind1, kind2):
        if k not in ("f", "fbar"):
            raise ValueError(f"kind must be 'f' or 'fbar', got {k!r}")
    if not isinstance(x, (int, Fraction, RatFun)):
        raise TypeError(f"argument {x!r} is neither rational nor RatFun")
    d = n + 1
    same = kind1 == kind2
    shift = x if same else x + h_shift(n)
    alpha, s = ((shift, 1) if isinstance(shift, RatFun)
                else (shift.numerator, shift.denominator))
    beta = s if same else -s
    # row (a, b) of the vertex as (column offset, weight), its zeros
    # left out: P swaps the digits, K maps (a, n - a) to all (k, n - k)
    rows = []
    for a, b in itertools.product(range(d), repeat=2):
        if same and a != b:
            row = (((b - a) * dw, beta), (0, alpha))
        elif same or a + b == n:
            row = tuple(((k - a) * dw, alpha + beta if k == a else beta)
                        for k in ((a,) if same else range(d)))
        else:
            row = ((0, alpha),)
        rows.append(tuple((o, w) for o, w in row if w))
    return rows, s


def vertex_matrix(n, kind1, kind2, x):
    """Numerical vertex for the requested pair of kinds.

    Same kinds: x*1 + P.  Mixed kinds: (x + h)*1 - K, h = (n+1)/2.  The
    argument may be a Fraction or a RatFun; entries inherit the type, and
    entries that vanish (x = 0, or x = -h when mixed) are not stored.
    """
    # vertex_chain's rows over their scale, on slot place values n+1 and 1
    rows, s = _vertex_rows(n, kind1, kind2, x, n)
    return {r: {r + o: w if isinstance(w, RatFun) else Fraction(w, s)
                for o, w in row} for r, row in enumerate(rows) if row}


@functools.lru_cache(maxsize=None)
def _slot_digits(d, nslots, p, q):
    """d * (digit on slot p) + (digit on slot q), for every coordinate."""
    wp, wq = d ** (nslots - 1 - p), d ** (nslots - 1 - q)
    return tuple(c // wp % d * d + c // wq % d for c in range(d ** nslots))


def vertex_chain(n, nslots, factors, start=None):
    """Ordered product over factors (kind1, kind2, x, (p, q)) of
    vertex_matrix(n, kind1, kind2, x) at slots (p, q) as (s * product, s);
    (identity, 1) if empty, s the product of the _vertex_rows scales.  The
    map, over ints when every x and start is rational, is built from the
    identity, or the pair start, by each vertex's rows acting directly."""
    d = n + 1
    out, scale = start or ({r: {r: 1} for r in range(d ** nslots)}, 1)
    for kind1, kind2, x, slots in factors:
        p, q = slots
        if p == q or not (0 <= p < nslots and 0 <= q < nslots):
            raise ValueError(f"bad slot pair {slots} for {nslots} slots")
        rows, s = _vertex_rows(n, kind1, kind2, x,
                               d ** (nslots - 1 - p) - d ** (nslots - 1 - q))
        digits = _slot_digits(d, nslots, p, q)
        new = {}
        for r, row in out.items():
            acc = {}
            for c, v in row.items():
                for o, w in rows[digits[c]]:
                    acc[c + o] = acc.get(c + o, 0) + v * w
            if 0 in acc.values():
                acc = {c: w for c, w in acc.items() if w != 0}
            if acc:
                new[r] = acc
        out, scale = new, scale * s
    return out, scale


def _wrap(mat, n, labels=("a", "b")):
    d = n + 1
    a, b = labels
    return tensor_from_matrix(
        mat, [f"{a}_out", f"{b}_out"], [f"{a}_in", f"{b}_in"], [d, d]
    )


def r_num(n, lam, labels=("a", "b")):
    """The numerical same-kind R-matrix lam*1 + P as a labeled tensor."""
    return _wrap(vertex_matrix(n, "f", "f", lam), n, labels)


def charge_conj(n):
    return tensor_from_matrix(charge_conj_matrix(n), ["out"], ["in"], [n + 1])


def singlet_vector(n, side="fbar-f"):
    """The invariant pair vector, normalized so <s|s> = n+1.

    Component on e_0 paired with its conjugate partner is +1; this is the
    residual sign choice, everything downstream is insensitive to it.
    """
    if side not in ("fbar-f", "f-fbar"):
        raise ValueError("side must be 'fbar-f' or 'f-fbar'")
    import numpy as np
    d = n + 1
    vec = np.full((d, d), Fraction(0), dtype=object)
    for i in range(d):
        vec[i, n - i] = Fraction(1)
    k1, k2 = side.split("-")
    return LabeledTensor([Leg(f"{k1}_out", "out", d), Leg(f"{k2}_out", "out", d)], vec)


def singlet_projector(n, side="fbar-f"):
    """(singlet x dual)/(n+1): the rank-1 idempotent onto the pair singlet."""
    if side not in ("fbar-f", "f-fbar"):
        raise ValueError("side must be 'fbar-f' or 'f-fbar'")
    return _wrap({r: {c: v / (n + 1) for c, v in row.items()}
                  for r, row in k_matrix(n).items()}, n)


def rbar_num(n, lam, kind="f-fbar"):
    """Mixed-kind vertex (lam + (n+1)/2)*1 - K as a labeled tensor."""
    if kind not in ("f-fbar", "fbar-f"):
        raise ValueError("rbar acts on a mixed fundamental/antifundamental pair")
    return _wrap(vertex_matrix(n, *kind.split("-"), lam), n)


def r_dual_dual(n, lam):
    """R on two antifundamental spaces: conjugate both legs of r.

    (C x C) r(lam) (C x C), the index relabelling i -> d^2-1-i on rows
    and columns; numerically this lands back on lam*1 + P.
    """
    top = (n + 1) ** 2 - 1
    return _wrap({top - r: {top - c: v for c, v in row.items()}
                  for r, row in vertex_matrix(n, "f", "f", lam).items()}, n)


def antisym_fusion(n):
    """Split r(-1) = P - 1 through the antisymmetric square.

    Returns the row maps (de, fu): de is wedge x pair (nw x d^2), fu is
    pair x wedge, with the wedge pairs a < b in lexicographic order;
    fu . de = r(-1) on V x V and de . fu = -2 on the wedge space.
    """
    d = n + 1
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    one = Fraction(1)
    de = {p: {a * d + b: one, b * d + a: -one}
          for p, (a, b) in enumerate(pairs)}
    fu = {}
    for p, (a, b) in enumerate(pairs):
        fu[a * d + b] = {p: -one}
        fu[b * d + a] = {p: one}
    return de, fu


def chevalley_generators(n):
    """Int triples (e_i, f_i, h_i) of the standard action on V, i = 1..n."""
    return [({i - 1: {i: 1}}, {i: {i - 1: 1}}, {i - 1: {i - 1: 1}, i: {i: -1}})
            for i in range(1, n + 1)]


class PrefactorExpr:
    """Formal product of rho(sign*lam + shift)^exp factors times a RatFun.

    The first functional relation rho(x)rho(-x) = 1 is wired in as the
    canonical form rho(-lam + s) = rho(lam - s)^(-1), so factors are
    stored with positive lam coefficient only.  The second relation
    rho(x)rho(n+1-x) = x(x-(n+1))/((x-1)(x-n)) then acts on factor pairs
    whose shifts differ by exactly n+1 with opposite exponents.
    """

    def __init__(self, n, rational=None, factors=None):
        self.n = int(n)
        self.rational = RatFun.coerce(rational if rational is not None else 1)
        self.factors = {Fraction(shift): int(e)
                        for shift, e in dict(factors or {}).items() if e}

    @staticmethod
    def rho(n, shift=0, power=1, lam_sign=1):
        """A single rho(lam_sign*lam + shift)^power factor."""
        shift = Fraction(shift)
        if lam_sign == 1:
            return PrefactorExpr(n, 1, {shift: power})
        if lam_sign == -1:
            return PrefactorExpr(n, 1, {-shift: -power})
        raise ValueError("lam_sign must be +1 or -1")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFun)):
            return PrefactorExpr(self.n, self.rational * other, self.factors)
        if other.n != self.n:
            raise ValueError("rank mismatch in prefactor product")
        factors = dict(self.factors)
        for s, e in other.factors.items():
            factors[s] = factors.get(s, 0) + e
        return PrefactorExpr(self.n, self.rational * other.rational, factors)

    __rmul__ = __mul__

    def is_rational(self):
        return not self.factors

    def surviving(self):
        return sorted(self.factors.items())

    def reduce(self):
        """Telescope each class of shifts congruent mod n+1 to its lowest
        member by the ladder rho(y)/rho(y-(n+1)) = y(y-(n+1))/((y-1)(y-n))
        of both relations: a class whose exponents sum to zero cancels,
        any other leaves one factor, at its lowest shift."""
        step, x = self.n + 1, RatFun.x()
        classes = {}
        for s, e in self.factors.items():
            classes.setdefault(s % step, {})[s] = e
        rational, factors = self.rational, {}
        for members in classes.values():
            low, top, e = min(members), max(members), 0
            # the rung from y-(n+1) up to y carries every member at y or above
            for y in (top - k * step for k in range((top - low) // step)):
                e += members.get(y, 0)
                y = x + RatFun.const(y)
                rung = (y * (y - step)) / ((y - 1) * (y - self.n))
                for _ in range(abs(e)):
                    rational = rational * rung if e > 0 else rational / rung
            if e + members[low]:
                factors[low] = e + members[low]
        return PrefactorExpr(self.n, rational, factors)

    def __repr__(self):
        parts = [f"({self.rational!r})"]
        for s, e in sorted(self.factors.items()):
            parts.append(f"rho(lam{'+' if s >= 0 else '-'}{abs(s)})^{e}")
        return " * ".join(parts)


def prefactor_reduce(e):
    """Reduce; returns the exact RatFun if every rho cancels, else the
    reduced expression, whose surviving() lists the leftover factors."""
    red = e.reduce()
    return red.rational if red.is_rational() else red


def kronecker_base(n):
    """B, a power of two: Yang-Baxter is decided at (x, y) = (B, B^3),
    unitarity and crossing at x = B.  Either Yang-Baxter side has integer
    polynomial entries of degree <= 2 in x and in y, and no row of
    _vertex_rows has coefficient l1-norm above c = 3n + 7 (|s(x-y)| <= 4,
    |s h| <= n + 1, n + 1 betas of size <= 2), so the difference has 9
    coefficients of size <= 2c^3 < B/2: the balanced base-B digits of its
    value at (B, B^3), x^a y^b -> B^(a+3b), which vanishes iff they all
    do.  Unitarity and crossing entries are univariate of degree <= 2, with
    coefficients in Z/4 of size below B/8."""
    return 1 << (4 * (3 * n + 7) ** 3).bit_length()


def _mismatches(a, b):
    """Number of entries in which two sparse row maps differ."""
    return sum(1 for r in a.keys() | b.keys()
               for c in a.get(r, {}).keys() | b.get(r, {}).keys()
               if a.get(r, {}).get(c, 0) != b.get(r, {}).get(c, 0))


def rmatrix_reports(n_values=(2, 3)):
    """The vertex identities on sparse row maps, the symbolic ones decided
    at the integer point of kronecker_base."""
    reports = []
    for n in n_values:
        d = n + 1
        h = h_shift(n)
        x = kronecker_base(n)
        y = x ** 3

        bad = []
        for k1, k2, k3 in itertools.product(("f", "fbar"), repeat=3):
            # both integer products carry the same three vertex scales
            chain = [(k1, k2, x - y, (0, 1)), (k1, k3, x, (0, 2)),
                     (k2, k3, y, (1, 2))]
            if vertex_chain(n, 3, chain) != vertex_chain(n, 3, chain[::-1]):
                bad.append((k1, k2, k3))
        reports.append(VerificationReport(
            check="vertex yang-baxter",
            params={"n": n, "base": x},
            status="pass" if not bad else "fail",
            anchor="the three-line exchange identity holds identically for "
                   "every kind combination: its fraction-free entries vanish "
                   "at (B, B^3), B above four times the cubed row norm",
            witness={"violations": bad}))

        one = identity_matrix(d * d)
        bad_same = _mismatches(
            sparse.mul(vertex_matrix(n, "f", "f", x),
                       vertex_matrix(n, "f", "f", -x)),
            sparse.scale(one, 1 - x * x))
        bad_mixed = _mismatches(
            sparse.mul(vertex_matrix(n, "f", "fbar", x),
                       vertex_matrix(n, "fbar", "f", -x)),
            sparse.scale(one, h * h - x * x))
        reports.append(VerificationReport(
            check="vertex unitarity",
            params={"n": n},
            status="pass" if bad_same == 0 and bad_mixed == 0 else "fail",
            anchor="opposite-argument products are scalar polynomials, "
                   "quadratic with the expected roots",
            witness={"same_kind_mismatches": bad_same,
                     "mixed_kind_mismatches": bad_mixed}))

        # partial transpose on line 2 conjugated by the index reversal
        # there: entry (a,b; c,e) moves to (a,n-e; c,n-b); crossing says
        # it is then minus the mixed vertex
        crossed = {}
        for r, row in vertex_matrix(n, "f", "f", -x - h).items():
            a, b = divmod(r, d)
            for col, v in row.items():
                c, e = divmod(col, d)
                crossed.setdefault(a * d + n - e, {})[c * d + n - b] = -v
        bad_cross = _mismatches(crossed, vertex_matrix(n, "f", "fbar", x))
        reports.append(VerificationReport(
            check="vertex crossing",
            params={"n": n},
            status="pass" if bad_cross == 0 else "fail",
            anchor="conjugating one line and reflecting the argument about "
                   "the mixed pole turns one kind into the other, with a "
                   "single scalar",
            witness={"mismatches": bad_cross}))

        rbh = vertex_matrix(n, "f", "fbar", -h)
        rank1 = len(echelon(rbh.values()))
        matches_k = rbh == sparse.scale(k_matrix(n), -1)
        reports.append(VerificationReport(
            check="singlet vertex rank",
            params={"n": n},
            status="pass" if rank1 == 1 and matches_k else "fail",
            anchor="the mixed vertex at the crossing point is minus the "
                   "rank-one pairing operator",
            witness={"rank": rank1}))

        pi = sparse.scale(vertex_matrix(n, "f", "f", -1), Fraction(-1, 2))
        idem = sparse.mul(pi, pi) == pi
        rank_pi = len(echelon(pi.values()))
        reports.append(VerificationReport(
            check="antisymmetrizer idempotent",
            params={"n": n},
            status=("pass" if idem and rank_pi == n * (n + 1) // 2
                    else "fail"),
            anchor="the same-kind vertex at minus one is minus twice the "
                   "antisymmetric projector",
            witness={"rank": rank_pi, "expected_rank": n * (n + 1) // 2}))
    return reports
