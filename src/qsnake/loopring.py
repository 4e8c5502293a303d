"""Type A_n Cartan data and the Laurent ring of loop weights.

Variables Y[i,k] carry a node index i in 1..n and an integer shift k.
Monomials are finitely supported exponent maps, combinations are integer
linear combinations of monomials.  This ring is the codomain of the
q-character map; everything downstream (snake characters, the dominant
monomial census, composition series) is computed inside it.

Monomials are stored packed (Kronecker substitution, as in Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): each variable owns a one-byte slot (W = 8
bits) of one Python int and holds its exponent there as a signed digit,
-127..127, so the product of two monomials is the sum of their codes.
Products count code sums in C, per pair of coefficient groups; to_text
sorts each code on one bytes key read off its slots in use.  Every
monomial and combination carries a bound on the absolute value of its
exponents; an operation whose bound could leave the digit range is
recomputed exactly from the decoded exponents instead, so neighbouring
slots never alias.  Codes depend on the order in which variables were
first seen; nothing is ordered by them.
"""

from collections import _count_elements
from collections.abc import Mapping
from functools import reduce
from itertools import compress, groupby, product, repeat, starmap
from operator import add, getitem, itemgetter, or_, xor

from .exactlin import echelon

W = 8                     # bits per exponent slot: one byte
_DIGIT = "b"              # memoryview format of one slot: signed 8-bit
_HALF = 1 << (W - 1)
MAX_EXPONENT = _HALF - 1  # exponents lie in -MAX_EXPONENT..MAX_EXPONENT
# the exponent of each to_text key byte: a byte sorts negative exponents
# below positive ones and zero (an absent variable) above both
_EXPONENTS = (*range(-MAX_EXPONENT, 0), *range(1, MAX_EXPONENT + 1), 0)
_KEY_BYTE = bytes.maketrans(bytes(e + _HALF for e in _EXPONENTS),
                            bytes(range(len(_EXPONENTS))))


class CartanData:
    """Node range and adjacency of the type A_n Dynkin diagram."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("rank must be positive")
        self.n = n

    def neighbours(self, i):
        self._check(i)
        return [j for j in (i - 1, i + 1) if 1 <= j <= self.n]

    def _check(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"node {i} out of range 1..{self.n}")


class _Memo(dict):
    """A dict that makes each missing value once, as make(key)."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _SlotTable:
    """The slot of each variable (i, k), assigned in first-seen order.

    ``bias`` holds _HALF in every assigned slot.  Added to a code it turns
    every digit e into e + _HALF, which lies in 1..2^W-1 without carries:
    its top bit is set exactly when e >= 0, and xoring the bias back
    leaves e as a W-bit two's complement number in its slot.
    """

    def __init__(self):
        self.slot = _Memo(self._assign)
        self.variables = []
        self.bias = 0

    def _assign(self, v):
        self.variables.append(v)
        self.bias |= _HALF << (W * (len(self.variables) - 1))
        return len(self.variables) - 1

    def pack(self, exps):
        """(code, bound) of a {(i, k): e} map without zero exponents."""
        code = bound = 0
        for v, e in exps.items():
            if abs(e) > bound:
                bound = abs(e)
            code += e << (W * self.slot[v])
        if bound > MAX_EXPONENT:
            raise OverflowError(
                f"exponent {bound} exceeds the packed range +-{MAX_EXPONENT}")
        return code, bound

    def unpack(self, code):
        """The {(i, k): e} map of a code, in slot order."""
        slots = (code + self.bias) ^ self.bias
        nbytes = -(-slots.bit_length() // W) * (W // 8)
        digits = memoryview(slots.to_bytes(nbytes, "little")).cast(_DIGIT)
        return dict(compress(zip(self.variables, digits), digits))


_SLOTS = _SlotTable()


def _by_coefficient(terms):
    """(c, codes) for each coefficient c of a {code: coefficient} dict."""
    coeffs = set(terms.values())
    if len(coeffs) == 1:  # a thin character: one group, no copy
        return [(coeffs.pop(), terms)]
    ordered = sorted(terms.items(), key=itemgetter(1))
    return [(c, [code for code, _ in g]) for c, g in groupby(ordered, itemgetter(1))]


def _add_into(terms, other, scale):
    """terms += scale * other on {code: coefficient} dicts, dropping zeros."""
    for code, c in other.items():
        if c := terms.get(code, 0) + scale * c:
            terms[code] = c
        else:
            del terms[code]
    return terms


def _max_exponent(codes):
    """Exact largest |exponent| over the given codes."""
    return max((abs(e) for code in codes for e in _SLOTS.unpack(code).values()),
               default=0)


class LoopMonomial:
    """Product of Y[i,k]^e factors, packed into one int ``code``.

    ``bound`` is at least the largest |e|; products add bounds, and once a
    sum could leave the digit range the result is repacked exactly.
    """

    __slots__ = ("code", "bound")

    def __init__(self, exps=None):
        clean = {}
        if exps:
            for key, e in dict(exps).items():
                i, k = key
                if e:
                    clean[(int(i), int(k))] = int(e)
        self.code, self.bound = _SLOTS.pack(clean)

    @classmethod
    def _wrap(cls, code, bound):
        m = object.__new__(cls)
        m.code = code
        m.bound = bound
        return m

    @property
    def exps(self):
        """The exponent map (i, k) -> e, decoded into a fresh dict."""
        return _SLOTS.unpack(self.code)

    def key(self):
        """Canonical sort key: the sorted (i, k, exponent) triples."""
        return tuple((i, k, e) for (i, k), e in sorted(self.exps.items()))

    def __mul__(self, other):
        if not isinstance(other, LoopMonomial):
            return NotImplemented
        bound = self.bound + other.bound
        if bound <= MAX_EXPONENT:
            return LoopMonomial._wrap(self.code + other.code, bound)
        exps = self.exps
        for v, e in other.exps.items():
            exps[v] = exps.get(v, 0) + e
        return LoopMonomial(exps)

    def inverse(self):
        return LoopMonomial._wrap(-self.code, self.bound)

    def __pow__(self, p):
        if self.bound * abs(p) <= MAX_EXPONENT:
            return LoopMonomial._wrap(self.code * p, self.bound * abs(p))
        return LoopMonomial({v: p * e for v, e in self.exps.items()})

    def __eq__(self, other):
        return isinstance(other, LoopMonomial) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        if not self.code:
            return "1"
        return " ".join(f"Y[{i},{k}]^{e}" for (i, k), e in sorted(self.exps.items()))


def y_var(i, k, e=1):
    return LoopMonomial({(i, k): e})


ONE = LoopMonomial()


def a_var(cartan, i, k):
    """The affine simple-root monomial A[i,k] as a LoopMonomial.

    A[i,k] = Y[i,k+1] Y[i,k-1] prod_{j adjacent to i} Y[j,k]^(-1).
    """
    cartan._check(i)
    exps = {(i, k + 1): 1, (i, k - 1): 1}
    for j in cartan.neighbours(i):
        exps[(j, k)] = exps.get((j, k), 0) - 1
    return LoopMonomial(exps)


class Terms(Mapping):
    """Read-only view {LoopMonomial: coefficient} of a combination."""

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms, bound):
        self._terms = terms
        self._bound = bound

    def __getitem__(self, m):
        if not isinstance(m, LoopMonomial):
            raise KeyError(m)
        return self._terms[m.code]

    def __iter__(self):
        bound = self._bound
        for code in self._terms:
            yield LoopMonomial._wrap(code, bound)

    def __len__(self):
        return len(self._terms)

    def values(self):
        return self._terms.values()

    def __repr__(self):
        return f"Terms({dict(self.items())!r})"


class LaurentCombination:
    """Integer combination of loop monomials.

    Held as {code: coefficient} without zeros, plus ``_bound``, at least
    the largest |exponent| of any term.  Instances are never changed after
    construction, so the character caches can hand them out; ``terms`` is
    a read-only view keyed by LoopMonomial.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms=None):
        clean = {}
        bound = 0
        if terms:
            for m, c in dict(terms).items():
                if c:
                    clean[m.code] = int(c)
                    if m.bound > bound:
                        bound = m.bound
        self._terms = clean
        self._bound = bound

    @classmethod
    def _new(cls, terms, bound):
        """Combination over a {code: coeff} dict that has no zero coefficient."""
        p = object.__new__(cls)
        p._terms = terms
        p._bound = bound
        return p

    @property
    def terms(self):
        return Terms(self._terms, self._bound)

    @staticmethod
    def from_monomial(m, c=1):
        return LaurentCombination._new({m.code: int(c)} if c else {}, m.bound)

    @staticmethod
    def unit():
        return LaurentCombination.from_monomial(ONE)

    @staticmethod
    def zero():
        return LaurentCombination._new({}, 0)

    def _merge(self, other, sign):
        return LaurentCombination._new(
            _add_into(dict(self._terms), other._terms, sign),
            max(self._bound, other._bound))

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return LaurentCombination._new(
            {code: -c for code, c in self._terms.items()}, self._bound)

    def __mul__(self, other):
        """Product with an int or a combination: the code sums of each pair
        of coefficient groups are counted in C, then scaled and merged."""
        if isinstance(other, int):
            if not other:
                return LaurentCombination.zero()
            other = LaurentCombination._new({0: other}, 0)
        elif not isinstance(other, LaurentCombination):
            return NotImplemented
        bound = self._bound + other._bound
        if bound > MAX_EXPONENT:
            bound = _max_exponent(self._terms) + _max_exponent(other._terms)
            if bound > MAX_EXPONENT:
                return self._mul_exact(other)
        right = _by_coefficient(other._terms)
        out = {}
        for c1, codes1 in _by_coefficient(self._terms):
            for c2, codes2 in right:
                counts = {}  # not a Counter: absent codes must raise KeyError
                _count_elements(counts, starmap(add, product(codes1, codes2)))
                if c1 * c2 == 1 and not out:  # zeros need a second group pair
                    out = counts
                else:
                    _add_into(out, counts, c1 * c2)
        return LaurentCombination._new(out, bound)

    __rmul__ = __mul__

    def _mul_exact(self, other):
        """Product through the monomials' exact fallback, term by term."""
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return LaurentCombination(out)

    def __eq__(self, other):
        return isinstance(other, LaurentCombination) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __len__(self):
        return len(self._terms)

    def is_zero(self):
        return not self._terms

    def coeff(self, m):
        return self._terms.get(m.code, 0)

    def shifted(self, s):
        """Shift every second index k by s."""
        # the shift is injective on monomials, so no two terms merge
        out = {}
        for code, c in self._terms.items():
            exps = {(i, k + s): e for (i, k), e in _SLOTS.unpack(code).items()}
            out[_SLOTS.pack(exps)[0]] = c
        return LaurentCombination._new(out, self._bound)

    def total(self):
        """Sum of coefficients, i.e. the evaluation at all Y[i,k] = 1.

        For the q-character of a module this is the dimension.
        """
        return sum(self._terms.values())

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = [f"{c}*({m!r})" for m, c in sorted(self.terms.items(), key=lambda t: t[0].key())]
        return " + ".join(parts)


def multiply(p, q):
    return p * q


def _sorted_terms(p, sign):
    """Terms whose exponents, times sign, are all nonnegative, in key order."""
    bias = _SLOTS.bias
    out = [(LoopMonomial._wrap(code, p._bound), c)
           for code, c in p._terms.items() if (sign * code + bias) & bias == bias]
    out.sort(key=lambda t: t[0].key())
    return out


def dominant_monomials(p):
    """Dominant monomials of a combination with their coefficients.

    Deterministic order: lexicographic on the canonical monomial key.
    """
    return _sorted_terms(p, 1)


def antidominant_monomials(p):
    return _sorted_terms(p, -1)


def a_decompose(cartan, m):
    """Write m as prod A[i,k]^(-c_ik) with all c_ik >= 0, or return None.

    The candidate support window is read off from m: a factor A[i,k] can
    contribute only if one of its five variables meets the support of m,
    so k ranges over [kmin-1, kmax+1].  The resulting integer linear
    system has at most one solution (A-monomials are multiplicatively
    independent over any finite window); it is solved exactly over Q by
    echelon form with m's exponents as one extra column, then back
    substitution, and accepted only if integral and nonnegative.
    """
    mexps = m.exps
    if not mexps:
        return {}
    n = cartan.n
    ks = [k for (_i, k) in mexps]
    kmin, kmax = min(ks) - 1, max(ks) + 1
    unknowns = [(i, k) for i in range(1, n + 1) for k in range(kmin, kmax + 1)]
    avars = {u: a_var(cartan, *u).exps for u in unknowns}
    rows = sorted(set(key for a in avars.values() for key in a) | set(mexps))
    # columns: -exponent vectors of the A-monomials, then m's exponents
    rhs = len(unknowns)
    ech = echelon(
        {**{c: -avars[u][r] for c, u in enumerate(unknowns) if r in avars[u]},
         rhs: mexps.get(r, 0)} for r in rows)
    if rhs in ech:
        return None
    sol = {}
    for c in sorted(ech, reverse=True):  # free unknowns stay 0
        sol[c] = ech[c].get(rhs, 0) - sum(
            v * sol.get(j, 0) for j, v in ech[c].items() if c < j < rhs)
    out = {}
    for c, u in enumerate(unknowns):
        x = sol.get(c, 0)
        if x.denominator != 1 or x < 0:
            return None
        if x:
            out[u] = int(x)
    return out


def to_text(p):
    """Serialize a combination, one monomial per line: 'coeff Y[i,k]^e ...'.

    Lines are sorted by the canonical monomial key, so equal combinations
    serialize byte-identically.  Each row sorts on one bytes key: the
    code's slot bytes in use, in variable order, trailing zeros stripped,
    translated by _KEY_BYTE.  Bytes order on these keys is the order on
    (variable, exponent) pair lists: a prefix sorts first, and an absent
    variable after any exponent of it.  Rows are joined from one token
    table per slot, so each token is formatted once.
    """
    terms, bias, variables = p._terms, _SLOTS.bias, _SLOTS.variables
    used = reduce(or_, map(xor, map(add, terms, repeat(bias)), repeat(bias)), 0)
    if not used:  # the zero combination or a multiple of the unit
        return "".join(f"{c}\n" for c in terms.values())
    size = len(variables)
    slots = sorted(compress(range(size), used.to_bytes(size, "little")),
                   key=variables.__getitem__)
    # one pad slot past the table reads zero, so pick gives a tuple even
    # for a single slot; a zero digit is the byte _HALF once biased
    pick, pad = itemgetter(*slots, size), bias | _HALF << (W * size)
    zero = bytes([_HALF])
    rows = sorted((bytes(pick((code + pad).to_bytes(size + 1, "little")))
                   .rstrip(zero).translate(_KEY_BYTE), c) for code, c in terms.items())
    tokens = [_Memo(lambda b, v=variables[s]: f" Y[{v[0]},{v[1]}]^{e}"
                    if (e := _EXPONENTS[b]) else "") for s in slots]
    return "".join([f"{c}{''.join(map(getitem, tokens, key))}\n" for key, c in rows])


def from_text(text):
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        c = int(fields[0])
        exps = {}
        for f in fields[1:]:
            head, e = f.split("^")
            if not (head.startswith("Y[") and head.endswith("]")):
                raise ValueError(f"bad variable {f}")
            i, k = head[2:-1].split(",")
            key = (int(i), int(k))
            exps[key] = exps.get(key, 0) + int(e)
        m = LoopMonomial(exps)
        terms[m] = terms.get(m, 0) + c
    return LaurentCombination(terms)
