"""Rational R-matrices of type A_n and the symbolic prefactor calculus.

Everything acts on concrete coordinate spaces: the fundamental V has
basis e_0..e_n, the antifundamental is carried on the same coordinates
through the dual basis, with the charge conjugation C (index reversal)
mediating between them.  Same-kind vertices are x*1 + P, mixed-kind
vertices are (x + (n+1)/2)*1 - K where K is the rank-1 singlet operator.
Operators are sparse row maps (see sparse); only the labeled tensors,
test wrappers that import numpy when called, hold dense arrays.

The vertex is written once, as the integer rows of _vertex_rows, which
vertex_chain, the builder of every window, tower and fused product,
applies; rmatrix_reports certifies vertex_chain itself, at one integer
point per identity (kronecker_base).  vertex_matrix is a test view.
The gl_{n+1} action on slots, the dual on antifundamental ones, is
site_action; weights reads it, invariance its E_01 and S_{n+1}'s,
highest_weight_rows its raising maps.
Crossing is sparse.cross, which gives the dual and K (the crossed flip
P), and which "vertex crossing" certifies against the mixed vertex rows.
The transcendental scalar prefactor rho is never evaluated: a prefactor
is a constant, root multiplicities and rho exponents, reduced through
rho's two functional relations and built into one RatFun at the end."""

from collections import Counter
from fractions import Fraction
import functools
import itertools

from . import sparse
from .exactlin import (LabeledTensor, Leg, RatFun, echelon, primitive_echelon,
                       tensor_from_matrix)
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
    """|s><s|, s the invariant pair vector: the crossed flip P, rank 1."""
    return sparse.cross(permutation_matrix(n), n + 1)


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
    """Int (e_i, f_i, h_i), i = 1..n: the tests' 3n oracle, a traced name."""
    return [({i - 1: {i: 1}}, {i: {i - 1: 1}}, {i - 1: {i - 1: 1}, i: {i: -1}})
            for i in range(1, n + 1)]


def site_action(n, kinds, g, rows=None):
    """The int one-slot map g acting on every slot of a product of the
    given kinds, slot 0 first: the sum over slots of g's action there,
    identity elsewhere, only on the given rows if any.  An "f" slot
    carries g, an "fbar" slot the dual -C g^T C, C the index reversal:
    minus g's crossing, sparse.cross."""
    d, nslots = n + 1, len(kinds)
    dual = sparse.scale(sparse.cross(g, d), -1)
    keep = range(d ** nslots) if rows is None else set(rows)
    terms = []
    for s, kind in enumerate(kinds):
        w = d ** (nslots - 1 - s)
        terms.append((1, {r: {r + (b - a) * w: v for b, v in row.items()}
                          for a, row in (dual if kind == "fbar" else g).items()
                          for hi in range(a * w, d ** nslots, d * w)
                          for r in range(hi, hi + w) if r in keep}))
    return sparse.combine(*terms)


def invariance(n, operators):
    """Largest sparse.diff over the (kinds, (map, s)) items of E_01 * map
    and map * E_01 (site_action), and of map and its relabelling {p[r]:
    {p[c]: v}}, p each adjacent colour transposition sigma on every slot (fbar:
    digit t to n - sigma(n - t)), whose entries are the commutator's.  So
    gl_{n+1} invariance: they conjugate E_01 to each E_ij, [E_ij, E_ji] =
    E_ii - E_jj, and S_{n+1} is in GL_{n+1}.  None unless all n ran."""
    d, swaps, resid = n + 1, range(1, n + 1), Fraction(0)
    acts = {kinds: (site_action(n, kinds, {0: {1: 1}}), [])
            for kinds in {kinds for kinds, _ in operators}}
    for kinds, i in itertools.product(acts, swaps):
        sigma = [*range(i - 1), i, i - 1, *range(i + 1, d)]
        tabs = {"f": sigma, "fbar": [n - t for t in sigma[::-1]]}
        acts[kinds][1].append(functools.reduce(lambda image, kind: [
            c * d + t for c in image for t in tabs[kind]], kinds, [0]))
    for kinds, (a, s) in operators:
        e01, images = acts[kinds]
        resid = max(resid, sparse.diff((sparse.mul(e01, a), s),
                                       (sparse.mul(a, e01), s)), *(
            sparse.diff(({p[r]: {p[c]: v for c, v in row.items()}
                          for r, row in a.items()}, s), (a, s))
            for p in images))
    return resid if len(swaps) == n else None


def weights(n, kinds):
    """Each coordinate's gl_{n+1} weight: one-slot site_action diagonals of
    each E_jj summed over slots; f digit j adds e_j, fbar subtracts e_{n-j}."""
    d = n + 1
    units = {k: [site_action(n, (k,), {j: {j: 1}}) for j in range(d)]
             for k in set(kinds)}
    return [tuple(map(sum, zip(*w))) for w in itertools.product(*(
        [tuple(e.get(a, {}).get(a, 0) for e in units[k]) for a in range(d)]
        for k in kinds))]


def highest_weight_rows(n, kinds, blocks):
    """{c: row}: an integer basis of each block's (coordinates of one
    weight) rows that every raising map site_action(n, kinds, {i: {i - 1:
    1}}), i = 1..n, kills, keyed in the block.  The maps raise to n weights,
    so one echelon of their sum, the identity appended, pivots the kernel;
    the rows go in last first, which keeps its fill-in small."""
    up = site_action(n, kinds, {i: {i - 1: 1} for i in range(1, n + 1)},
                     [c for block in blocks for c in block])
    top, out = (n + 1) ** len(kinds), {}
    for block in blocks:
        for p, row in primitive_echelon([{**up.get(c, {}), top + c: 1}
                                         for c in reversed(block)]).items():
            if p >= top:
                out[p - top] = {c - top: v for c, v in row.items()}
    return out


@functools.lru_cache(maxsize=None)
def kostka(shape, content):
    """The Kostka number K(shape, content): the semistandard tableaux of
    the partition shape with content[i] entries i, so the dimension of
    the weight content in the gl irreducible of highest weight shape
    (Fulton, Young Tableaux, 2.2).  The largest entry fills a horizontal
    strip over a partition rest, shape[i + 1] <= rest[i] <= shape[i];
    entries up to len(content) leave the rows below it empty."""
    if not content or any(shape[len(content):]):
        return int(not any(shape))
    *head, last = content
    return sum(kostka(rest, tuple(head)) for rest in itertools.product(*(
        range(b, a + 1) for a, b in zip(shape, shape[1:] + (0,))))
        if sum(shape) - sum(rest) == last)


class PrefactorExpr:
    """Formal product const * prod (lam - r)^k * prod rho(lam + s)^e: a
    Fraction and the multiplicities roots {r: k} and factors {s: e}, which
    products add; .rational is RatFun.from_roots(const, roots).  The
    first functional relation rho(x)rho(-x) = 1 is wired in as the
    canonical form rho(-lam + s) = rho(lam - s)^(-1), so factors are
    stored with positive lam coefficient only.  The second relation
    rho(x)rho(n+1-x) = x(x-(n+1))/((x-1)(x-n)) then acts on factor pairs
    whose shifts differ by exactly n+1 with opposite exponents."""

    def __init__(self, n, const=1, factors=None, roots=None):
        self.n, self.const = int(n), Fraction(const)
        self.factors, self.roots = ({s: e for s, e in (d or {}).items() if e}
                                    for d in (factors, roots))

    @property
    def rational(self):
        return RatFun.from_roots(self.const, self.roots)

    @staticmethod
    def rho(n, shift=0, power=1, lam_sign=1):
        """A single rho(lam_sign*lam + shift)^power factor."""
        if lam_sign not in (1, -1):
            raise ValueError("lam_sign must be +1 or -1")
        return PrefactorExpr(n, 1, {lam_sign * Fraction(shift):
                                    lam_sign * power})

    def __mul__(self, other):
        if not isinstance(other, PrefactorExpr):
            other = PrefactorExpr(self.n, other)
        if other.n != self.n:
            raise ValueError("rank mismatch in prefactor product")
        factors, roots = Counter(self.factors), Counter(self.roots)
        factors.update(other.factors)
        roots.update(other.roots)
        return PrefactorExpr(self.n, self.const * other.const, factors, roots)

    __rmul__ = __mul__

    def is_rational(self):
        return not self.factors

    def surviving(self):
        return sorted(self.factors.items())

    def reduce(self):
        """Telescope each class of shifts congruent mod n+1 to its lowest
        member by the ladder rho(y)/rho(y-(n+1)) = y(y-(n+1))/((y-1)(y-n))
        of both relations: a class whose exponents sum to zero cancels,
        any other leaves one factor, at its lowest shift.  A rung taken e
        times at y = lam + Y adds e to roots -Y, n+1-Y and -e to 1-Y, n-Y."""
        step, classes = self.n + 1, {}
        for s, e in self.factors.items():
            classes.setdefault(s % step, {})[s] = e
        roots, factors = Counter(self.roots), {}
        for members in classes.values():
            low, top, e = min(members), max(members), 0
            # the rung from y-(n+1) up to y carries every member at y or above
            for y in (top - k * step for k in range((top - low) // step)):
                e += members.get(y, 0)
                for r, mult in ((-y, e), (step - y, e), (1 - y, -e),
                                (self.n - y, -e)):
                    roots[r] += mult
            if e + members[low]:
                factors[low] = e + members[low]
        return PrefactorExpr(self.n, self.const, factors, roots)

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

        # R(x) R(-x) against the identity times (c - x^2) s
        one, bad = vertex_chain(n, 2, [])[0], []
        for k, c in (("f", 1), ("fbar", h * h)):
            prod, s = vertex_chain(n, 2, [("f", k, x, (0, 1)),
                                          (k, "f", -x, (0, 1))])
            bad.append(_mismatches(prod, sparse.scale(one, (c - x * x) * s)))
        reports.append(VerificationReport(
            check="vertex unitarity",
            params={"n": n},
            status="pass" if not any(bad) else "fail",
            anchor="opposite-argument products are scalar polynomials, "
                   "quadratic with the expected roots",
            witness={"same_kind_mismatches": bad[0],
                     "mixed_kind_mismatches": bad[1]}))

        # the crossed same-kind vertex is minus the mixed one, compared
        # cross-multiplied
        (same, s), (mixed, t) = (vertex_chain(n, 2, [(k, "f", arg, (0, 1))])
                                 for k, arg in (("f", -x - h), ("fbar", x)))
        bad_cross = _mismatches(sparse.scale(sparse.cross(same, d), -t),
                                sparse.scale(mixed, s))
        reports.append(VerificationReport(
            check="vertex crossing",
            params={"n": n},
            status="pass" if bad_cross == 0 else "fail",
            anchor="conjugating one line and reflecting the argument about "
                   "the mixed pole turns one kind into the other, with a "
                   "single scalar",
            witness={"mismatches": bad_cross}))

        rbh, s = vertex_chain(n, 2, [("f", "fbar", -h, (0, 1))])
        rank1 = len(echelon(rbh.values()))
        matches_k = rbh == sparse.scale(k_matrix(n), -s)
        reports.append(VerificationReport(
            check="singlet vertex rank",
            params={"n": n},
            status="pass" if rank1 == 1 and matches_k else "fail",
            anchor="the mixed vertex at the crossing point is minus the "
                   "rank-one pairing operator",
            witness={"rank": rank1}))

        # (P - 1)^2 = -2 (P - 1), P - 1 over its scale s
        pm, s = vertex_chain(n, 2, [("f", "f", -1, (0, 1))])
        idem = sparse.mul(pm, pm) == sparse.scale(pm, -2 * s)
        rank_pi = len(echelon(pm.values()))
        reports.append(VerificationReport(
            check="antisymmetrizer idempotent",
            params={"n": n},
            status=("pass" if idem and rank_pi == n * (n + 1) // 2
                    else "fail"),
            anchor="the same-kind vertex at minus one is minus twice the "
                   "antisymmetric projector",
            witness={"rank": rank_pi, "expected_rank": n * (n + 1) // 2}))
    return reports
