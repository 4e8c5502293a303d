"""Sparse row maps, the operator format of every exact check, and the
kernels that multiply, combine, embed, trace, cross and compare them;
combine is the one linear combination, cross the one crossing of every
operator and diff the one comparison of two pairs.

An operator on k slots of dimension d is a row map {row: {col: value}}
on d^k coordinates, storing no zero and no empty row; slot 0 holds a
coordinate's most significant digit.  Values are ints, Fractions or
RatFuns, never floats.  A pair (map, s), s a positive int, stands for
map / s; a density window is such a pair over ints, s its trace.  No
kernel modifies its arguments.
"""

from fractions import Fraction
import itertools
import math

from .exactlin import RatFun


def integral(a):
    """(s * a, s), s the least positive integer clearing a's rational
    entries, which become ints.  a is not modified; an entry neither
    rational nor RatFun, a float say, raises TypeError, never rounded."""
    vals = [v for row in a.values() for v in row.values()]
    for v in vals:
        if not isinstance(v, (int, Fraction, RatFun)):
            raise TypeError(f"entry {v!r} is neither rational nor RatFun")
    s = math.lcm(*(v.denominator for v in vals if not isinstance(v, RatFun)))
    return {r: {c: v * s if isinstance(v, RatFun)
                else v.numerator * (s // v.denominator)
                for c, v in row.items()} for r, row in a.items()}, s


def embed(mat2, slots, nslots, d):
    """Embed a two-slot operator (a row map on d^2 coordinates) at slots
    (p, q), identity elsewhere."""
    p, q = slots
    if p == q or not (0 <= p < nslots and 0 <= q < nslots):
        raise ValueError(f"bad slot pair {slots} for {nslots} slots")
    rest = [s for s in range(nslots) if s != p and s != q]
    wp = d ** (nslots - 1 - p)
    wq = d ** (nslots - 1 - q)
    wrest = [d ** (nslots - 1 - s) for s in rest]
    ent = []
    for r, row in mat2.items():
        a, b = divmod(r, d)
        for col, v in row.items():
            c, e = divmod(col, d)
            ent.append((wp * a + wq * b, wp * c + wq * e, v))
    out = {}
    for digits in itertools.product(range(d), repeat=len(rest)):
        base = sum(w * t for w, t in zip(wrest, digits))
        for ro, co, v in ent:
            out.setdefault(base + ro, {})[base + co] = v
    return out


def mul(a, b):
    out = {}
    for r, arow in a.items():
        acc = {}
        for k, v in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for c, w in brow.items():
                acc[c] = acc.get(c, 0) + v * w
        acc = {c: w for c, w in acc.items() if w != 0}
        if acc:
            out[r] = acc
    return out


def scaled_mul(a, b):
    """Product of two (map, scale) pairs, each standing for map / scale."""
    return mul(a[0], b[0]), a[1] * b[1]


def scale(a, s):
    if s == 0:
        return {}
    return {r: {c: v * s for c, v in row.items()} for r, row in a.items()}


def combine(*terms):
    """The sum of a * x over the terms (a, x), no zero or empty row kept."""
    out = {}
    for a, x in terms:
        for r, row in x.items():
            acc = out.setdefault(r, {})
            for c, v in row.items():
                acc[c] = acc.get(c, 0) + a * v
    return {r: {c: v for c, v in acc.items() if v} if 0 in acc.values()
            else acc for r, acc in out.items() if any(acc.values())}


def times(pair, q):
    """(map * q.numerator, s * q.denominator): the pair (map, s) times q."""
    a, s = pair
    return scale(a, q.numerator), s * q.denominator


def cross(a, d):
    """Partial transpose on the last slot, of dimension d, conjugated
    there by the index reversal C: an entry with last-slot digits (t, u)
    moves to (d-1-u, d-1-t), its value kept as it is."""
    out = {}
    for r, row in a.items():
        rhi, t = divmod(r, d)
        for c, v in row.items():
            chi, u = divmod(c, d)
            out.setdefault(rhi * d + d - 1 - u, {})[chi * d + d - 1 - t] = v
    return out


def ptrace(a, slot, nslots, d):
    """Trace out one slot; the remaining slots keep their order."""
    w = d ** (nslots - 1 - slot)
    out = {}
    for r, row in a.items():
        rhi, rrem = divmod(r, w * d)
        rdig, rlo = divmod(rrem, w)
        rr = rhi * w + rlo
        for c, v in row.items():
            chi, crem = divmod(c, w * d)
            cdig, clo = divmod(crem, w)
            if cdig != rdig:
                continue
            dst = out.setdefault(rr, {})
            cc = chi * w + clo
            nv = dst.get(cc, 0) + v
            if nv == 0:
                dst.pop(cc, None)
            else:
                dst[cc] = nv
    return {r: row for r, row in out.items() if row}


def trace(a):
    """Sum of the diagonal, in the entries' own type (int 0 if none)."""
    return sum(row.get(r, 0) for r, row in a.items())


def extend(a, d):
    """Append one identity slot at the end."""
    out = {}
    for r, row in a.items():
        for t in range(d):
            out[r * d + t] = {c * d + t: v for c, v in row.items()}
    return out


def diff(a, b):
    """Largest absolute entry difference of the pairs (a, s) and (b, t)
    as a Fraction: a * t and b * s compared as they are, the largest
    difference over s * t."""
    (a, s), (b, t) = a, b
    best = 0
    for r in set(a) | set(b):
        ra, rb = a.get(r, {}), b.get(r, {})
        for c in set(ra) | set(rb):
            x, y = ra.get(c, 0) * t, rb.get(c, 0) * s
            if x != y and abs(x - y) > best:  # equal entries never raise best
                best = abs(x - y)
    return Fraction(best, s * t)

