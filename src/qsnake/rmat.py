"""Rational R-matrices of type A_n and the symbolic prefactor calculus.

Everything acts on concrete coordinate spaces: the fundamental V has
basis e_0..e_n, the antifundamental is carried on the same coordinates
through the dual basis, with the charge conjugation C (index reversal)
mediating between them.  Same-kind vertices are x*1 + P, mixed-kind
vertices are (x + (n+1)/2)*1 - K where K is the rank-1 singlet operator.
Operators are sparse row maps {row: {col: value}} storing no zero and
no empty row; only the labeled tensors, test wrappers that import numpy
when called, hold dense arrays.
The transcendental scalar prefactor rho is never evaluated; it is carried
formally and removed through its two functional relations.
"""

from fractions import Fraction

from .exactlin import LabeledTensor, Leg, RatFun, tensor_from_matrix


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


def vertex_matrix(n, kind1, kind2, x):
    """Numerical vertex for the requested pair of kinds.

    Same kinds: x*1 + P.  Mixed kinds: (x + h)*1 - K, h = (n+1)/2.  The
    argument may be a Fraction or a RatFun; entries inherit the type, and
    entries that vanish (x = 0, or x = -h when mixed) are not stored.
    """
    for k in (kind1, kind2):
        if k not in ("f", "fbar"):
            raise ValueError(f"kind must be 'f' or 'fbar', got {k!r}")
    if kind1 == kind2:
        base, shift = permutation_matrix(n), x
    else:
        base = {r: {c: -v for c, v in row.items()}
                for r, row in k_matrix(n).items()}
        shift = x + h_shift(n)
    out = {}
    for i in range((n + 1) ** 2):
        row = base.get(i, {})
        row[i] = row.get(i, Fraction(0)) + shift
        row = {c: v for c, v in row.items() if v}
        if row:
            out[i] = row
    return out


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
    """Triples (e_i, f_i, h_i) of the standard action on V, i = 1..n."""
    one = Fraction(1)
    return [({i - 1: {i: one}}, {i: {i - 1: one}},
             {i - 1: {i - 1: one}, i: {i: -one}}) for i in range(1, n + 1)]


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
        clean = {}
        if factors:
            for shift, e in dict(factors).items():
                if e:
                    clean[Fraction(shift)] = int(e)
        self.factors = clean

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
        """Apply the second relation greedily to a fixed point.

        Combining both relations gives the ladder identity
        rho(y)/rho(y-(n+1)) = y(y-(n+1))/((y-1)(y-n)), so any two factors
        with opposite exponents whose shifts differ by a positive integer
        multiple of n+1 contract, one rung at a time.
        """
        step = self.n + 1
        x = RatFun.x()
        factors = {s: e for s, e in self.factors.items() if e}
        rational = self.rational

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
                rung = (y * (y - step)) / ((y - 1) * (y - self.n))
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
        factors = {s: e for s, e in factors.items() if e}
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
    if red.is_rational():
        return red.rational
    return red
