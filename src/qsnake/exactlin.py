"""Exact scalars and labeled tensors.

Two scalar carriers: Fraction for plain rationals and RatFun for univariate
rational functions with integer-coefficient numerator and denominator in
canonical form.  LabeledTensor holds a dense object array with named,
oriented legs; contract pairs in-legs with out-legs over stored entries
only, in any order.  The labeled tensors are test oracles that import
numpy in their bodies; the scalars and echelon never load it.  echelon
eliminates over Q only, fraction-free: rows are cleared to integers once
and divided by their pivots only on return; RatFun entries are refused.
No floating point anywhere: a float entry or coefficient raises TypeError.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm, prod

# polynomials are tuples of coefficients, ascending, no trailing zeros


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(p, q):
    m = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(m)])


def _pneg(p):
    return tuple(-c for c in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _pdivmod(p, q):
    # over Q; q nonzero
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


def _pgcd(p, q):
    p, q = _trim(p), _trim(q)
    while q:
        _, r = _pdivmod(p, q)
        p, q = q, r
    if not p:
        return ()
    inv = 1 / Fraction(p[-1])
    return tuple(c * inv for c in p)  # monic


def _peval(p, a):
    out = Fraction(0)
    for c in reversed(p):
        out = out * a + c
    return out


def _pderiv(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def _clear_denoms(p):
    # integer coefficients; content is reduced jointly with the other side
    if all(type(c) is int for c in p):
        return p
    den = lcm(*[Fraction(c).denominator for c in p])
    return tuple(int(Fraction(c) * den) for c in p)


class RatFun:
    """Univariate rational function, canonical integer-coefficient form.

    Canonical: numerator and denominator coprime over Q, integer contents
    with gcd 1 across the pair, denominator leading coefficient positive.
    A coefficient that is not rational, a float say, raises TypeError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = tuple(num) if isinstance(num, (tuple, list)) else (num,)
        den = tuple(den) if isinstance(den, (tuple, list)) else (den,)
        for c in num + den:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not rational")
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (1,)
            return
        if len(num) > 1 and len(den) > 1:  # a constant is a unit over Q
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
        num = _clear_denoms(num)
        den = _clear_denoms(den)
        cg = gcd(*(abs(c) for c in num), *(abs(c) for c in den))
        num = tuple(c // cg for c in num)
        den = tuple(c // cg for c in den)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        self.num, self.den = num, den

    @staticmethod
    def const(c):
        c = Fraction(c)
        return RatFun((c.numerator,), (c.denominator,))

    @staticmethod
    def x():
        return RatFun((0, 1))

    @staticmethod
    def coerce(v):
        if isinstance(v, RatFun):
            return v
        return RatFun.const(v)

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = RatFun.coerce(other)
        return RatFun(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFun(_pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-RatFun.coerce(other))

    def __rsub__(self, other):
        return RatFun.coerce(other) + (-self)

    def __mul__(self, other):
        other = RatFun.coerce(other)
        return RatFun(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFun.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return RatFun.coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, a):
        a = Fraction(a)
        d = _peval(self.den, a)
        if d == 0:
            raise ZeroDivisionError(f"pole at {a}")
        return _peval(self.num, a) / d

    def __repr__(self):
        def side(p):
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*x")
                else:
                    parts.append(f"{c}*x^{i}")
            return " + ".join(parts)

        if self.den == (1,):
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"


def ratfun_arith(op, f, g=None):
    """Dispatch arithmetic by name; the operators are also available directly."""
    f = RatFun.coerce(f)
    if op == "neg":
        return -f
    g = RatFun.coerce(g)
    if op == "add":
        return f + g
    if op == "mul":
        return f * g
    if op == "div":
        return f / g
    raise ValueError(f"unknown op {op!r}")


def _root_multiplicity(p, a):
    a = Fraction(a)
    mult = 0
    p = tuple(Fraction(c) for c in p)
    while p and _peval(p, a) == 0:
        # synthetic division by (x - a); Horner values b_i = p_i + a*b_{i+1}
        horner = []
        carry = Fraction(0)
        for c in reversed(p):
            carry = c + carry * a
            horner.append(carry)
        p = _trim(reversed(horner[:-1]))
        mult += 1
    return mult


def pole_order_at(f, a):
    """Order of the pole of f at a; 0 if regular nonzero, negative for zeros."""
    if f.is_zero():
        raise ValueError("pole order of the zero function is undefined")
    a = Fraction(a)
    dz = _root_multiplicity(f.den, a)
    if dz:
        return dz  # canonical form: numerator cannot share the root
    return -_root_multiplicity(f.num, a)


def residue_at(f, a):
    """Coefficient of 1/(x-a); requires at most a simple pole."""
    a = Fraction(a)
    order = pole_order_at(f, a)
    if order >= 2:
        raise ValueError(f"pole of order {order} at {a}")
    if order <= 0:
        return Fraction(0)
    return _peval(f.num, a) / _peval(_pderiv(f.den), a)


class Leg:
    __slots__ = ("label", "orient", "dim")

    def __init__(self, label, orient, dim):
        if orient not in ("in", "out"):
            raise ValueError("orientation must be 'in' or 'out'")
        self.label = label
        self.orient = orient
        self.dim = int(dim)

    def __repr__(self):
        return f"Leg({self.label!r}, {self.orient!r}, {self.dim})"


class LabeledTensor:
    """Dense tensor with labeled, oriented legs over an exact scalar field."""

    def __init__(self, legs, data):
        import numpy as np
        self.legs = tuple(legs)
        arr = np.asarray(data, dtype=object)
        if arr.shape != tuple(l.dim for l in self.legs):
            raise ValueError("entry array shape does not match the legs")
        self.data = arr

    def leg_index(self, label):
        for i, l in enumerate(self.legs):
            if l.label == label:
                return i
        raise KeyError(f"no leg labeled {label!r}")

    def scalar(self):
        if self.legs:
            raise ValueError("tensor has open legs")
        return self.data[()]

    def __repr__(self):
        return f"LabeledTensor(legs={[l.label for l in self.legs]})"


def tensor_from_matrix(mat, out_labels, in_labels, dims):
    """Wrap a row map {row: {col: value}} on prod(dims) coordinates.

    Row index factors over out_labels, column index over in_labels.
    """
    import numpy as np
    data = np.full((prod(dims),) * 2, Fraction(0), dtype=object)
    for r, row in mat.items():
        for c, v in row.items():
            data[r, c] = v
    legs = [Leg(l, "out", d) for l, d in zip(out_labels, dims)]
    legs += [Leg(l, "in", d) for l, d in zip(in_labels, dims)]
    return LabeledTensor(legs, data.reshape(tuple(dims) * 2))


def _gather(items):
    """Sum (index, value) pairs by index, dropping zero sums."""
    out = {}
    for key, v in items:
        v = out.pop(key, 0) + v
        if v:
            out[key] = v
    return out


def contract(ts, pairings):
    """Contract a list of tensors along (out-label, in-label) pairings.

    Labels must be unique across the diagram.  Unpaired legs survive in
    the order the pairings merge their tensors: a pairing across two
    tensors appends the later tensor's open legs to the earlier one's, so
    once three tensors keep open legs the order can follow the pairing
    order rather than the order the tensors were given; read legs by
    label.  A closed diagram returns a 0-leg tensor; use .scalar() to
    read it.  Only stored entries {index: value}
    are multiplied: a pairing joins two tensors' entries on the paired
    index, or keeps one tensor's entries whose two indices agree.  The
    result's .data is dense, with Fraction(0) where nothing is stored.
    """
    import numpy as np
    labels = [l.label for t in ts for l in t.legs]
    dup = [x for i, x in enumerate(labels) if x in labels[:i]]
    if dup:
        raise ValueError(f"duplicate leg label {dup[0]!r}")
    tensors = [(list(t.legs), {k: v for k, v in np.ndenumerate(t.data) if v}) for t in ts]

    def locate(label):
        for ti, (legs, _) in enumerate(tensors):
            for li, l in enumerate(legs):
                if l.label == label:
                    return ti, li, l
        raise KeyError(f"dangling pairing reference {label!r}")

    for la, lb in pairings:
        ta, ia, lega = locate(la)
        tb, ib, legb = locate(lb)
        if {lega.orient, legb.orient} != {"in", "out"}:
            raise ValueError(f"pairing {la!r}-{lb!r} needs one in-leg and one out-leg")
        if lega.dim != legb.dim:
            raise ValueError(f"dimension mismatch on {la!r}-{lb!r}")
        if ta == tb:
            legs, ents = tensors[ta]
            keep = [i for i in range(len(legs)) if i not in (ia, ib)]
            ents = _gather((tuple(k[i] for i in keep), v)
                           for k, v in ents.items() if k[ia] == k[ib])
            tensors[ta] = ([legs[i] for i in keep], ents)
        else:
            if ta > tb:
                ta, ia, tb, ib = tb, ib, ta, ia
            legsa, ea = tensors[ta]
            legsb, eb = tensors.pop(tb)
            by_index = {}
            for k, w in eb.items():
                by_index.setdefault(k[ib], []).append((k[:ib] + k[ib + 1:], w))
            ents = _gather((ka[:ia] + ka[ia + 1:] + kb, v * w)
                           for ka, v in ea.items()
                           for kb, w in by_index.get(ka[ia], ()))
            tensors[ta] = (legsa[:ia] + legsa[ia + 1:] + legsb[:ib] + legsb[ib + 1:], ents)
    # outer product of whatever is left (disconnected diagrams)
    legs, ents = tensors[0]
    for morelegs, more in tensors[1:]:
        ents = {ka + kb: v * w for ka, v in ents.items() for kb, w in more.items()}
        legs = legs + morelegs
    data = np.full(tuple(l.dim for l in legs), Fraction(0), dtype=object)
    for k, v in ents.items():
        data[k] = v
    return LabeledTensor(legs, data)


def echelon(rows):
    """Row echelon form of sparse rows {column: value} over Q.

    Returns {pivot column: row scaled to 1 at its pivot}, holding only
    nonzero Fraction entries.  Every returned row is zero left of its
    pivot, so the pivots are the leading columns of the row space and
    their number is the rank.  Only nonzero entries are touched: rows with
    disjoint supports never meet.  The input rows are not modified; an
    entry that is not an int or a Fraction, a float or a RatFun say,
    raises TypeError.

    Elimination is fraction-free: each row is cleared to integers once,
    column c of row r is eliminated against pivot row q as
    (q[c]/g) r - (r[c]/g) q with g = gcd(q[c], r[c]), and pivot rows are
    stored primitive and divided by their pivots only on return.  Each
    row is a nonzero multiple of the one elimination over Q reaches, with
    the same support."""
    piv = {}
    for row in rows:
        for v in row.values():
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"entry {v!r} is not rational")
        row = {c: v for c, v in row.items() if v}
        s = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (s // v.denominator) for c, v in row.items()}
        todo = [c for c in row if c in piv]
        heapq.heapify(todo)
        while todo:  # ascending, so a reduction never refills a done column
            c = heapq.heappop(todo)
            f = row.pop(c, 0)
            if not f:  # pushed twice, or cancelled since
                continue
            prow = piv[c]
            p = prow[c]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, v in prow.items():
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
            g = gcd(*row.values())
            if g != 1:
                row = {j: v // g for j, v in row.items()}
            piv[min(row)] = row
    for c, row in piv.items():
        inv = Fraction(1) / row[c]
        piv[c] = {j: v * inv for j, v in row.items()}
    return piv


def _frac_rank(mat):
    """Exact rank of a 2d array of rationals, by echelon."""
    return len(echelon({j: v for j, v in enumerate(row) if v} for row in mat))


def matrix_rank(t, row_legs, col_legs):
    """Exact rank of the tensor flattened to a row_legs x col_legs matrix.

    Entries must be rational: echelon eliminates over Q and refuses
    RatFun entries with TypeError.
    """
    import numpy as np
    row_legs = list(row_legs)
    col_legs = list(col_legs)
    labels = [l.label for l in t.legs]
    if sorted(row_legs + col_legs) != sorted(labels):
        raise ValueError("row and col legs must partition the tensor legs")
    perm = [t.leg_index(l) for l in row_legs] + [t.leg_index(l) for l in col_legs]
    data = np.transpose(t.data, perm)
    nrow = 1
    for l in row_legs:
        nrow *= t.legs[t.leg_index(l)].dim
    return _frac_rank(data.reshape(nrow, -1))
