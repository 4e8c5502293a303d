"""q-characters of fundamental, Kirillov-Reshetikhin and snake modules.

Characters are plain LaurentCombinations.  Snake characters for the
alternating family (nodes 1, n, 1, n, ... with second-index steps of n+1)
grow by appending points: each family keeps its prefixes, and the next is
the last times the next point's fundamental less the one before.  The
fundamental character at each of the two extremal nodes is one
closed-form chain of monomials, and the Kirillov-Reshetikhin characters
there are one-row tableau sums over that chain.  The dominant monomial
census and the composition-factor decomposition of alternating products
both run over strip tilings by 1- and 2-blocks, which is where the
Fibonacci counts come from.
"""

from fractions import Fraction
from math import comb

from .loopring import (
    ONE,
    CartanData,
    LaurentCombination,
    LoopMonomial,
    a_var,
    antidominant_monomials,
    dominant_monomials,
    y_var,
)
from .report import VerificationReport


class SnakeSpec:
    """Ordered point sequence (i_t, k_t) in the parity lattice, rank n."""

    def __init__(self, n, points):
        self.n = int(n)
        pts = [(int(i), int(k)) for i, k in points]
        for i, k in pts:
            if not 1 <= i <= self.n:
                raise ValueError(f"node {i} out of range 1..{self.n}")
            if (i - k) % 2 != 1:
                raise ValueError(f"point ({i},{k}) not in the parity lattice")
        self.points = tuple(pts)

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, SnakeSpec)
            and self.n == other.n
            and self.points == other.points
        )

    def __repr__(self):
        return f"SnakeSpec(n={self.n}, points={list(self.points)})"

    def is_snake(self):
        return all(
            k2 - k1 >= abs(i2 - i1) + 2
            for (i1, k1), (i2, k2) in zip(self.points, self.points[1:])
        )

    def is_prime(self):
        return all(
            min(i1 + i2, 2 * self.n + 2 - i1 - i2) >= k2 - k1
            for (i1, k1), (i2, k2) in zip(self.points, self.points[1:])
        )

    def is_minimal(self):
        return all(
            k2 - k1 == abs(i2 - i1) + 2
            for (i1, k1), (i2, k2) in zip(self.points, self.points[1:])
        )


def _parity_start(parity):
    if parity == "even":
        return 0
    if parity == "odd":
        return 1
    raise ValueError("parity must be 'even' or 'odd'")


def node_at(n, parity, t):
    """Alternating node pattern: 1 at even positions, n at odd ones."""
    return 1 if (_parity_start(parity) + t) % 2 == 0 else n


def _chain(n, node, shift):
    """The extremal fundamental at (node, shift) as its ordered chain of
    n+1 monomials.  At node 1, monomial j is Y[j+1,shift+j] Y[j,shift+j+1]^-1
    with the factors of nodes 0 and n+1 left out; node n is its image
    under the diagram flip i -> n+1-i.  Each monomial is the one before it
    times an inverse simple root, so chain order is lowering order."""
    if node not in (1, n):
        raise ValueError(f"node must be 1 or {n}")
    return [LoopMonomial({(i if node == 1 else n + 1 - i, shift + k): e
                          for i, k, e in ((j + 1, j, 1), (j, j + 1, -1))
                          if 1 <= i <= n})
            for j in range(n + 1)]


def fundamental_qchar(n, node, shift=0):
    """Closed-formula q-character of the fundamental module at an extremal node.

    Only nodes 1 and n are available; middle-node characters are not
    representable in this family.
    """
    return LaurentCombination(dict.fromkeys(_chain(n, node, shift), 1))


def alternating_snake_spec(n, parity, l, shift=0):
    points = [(node_at(n, parity, t), shift + t * (n + 1)) for t in range(l)]
    return SnakeSpec(n, points)


_snake_cache = {}


def snake_qchar(n, parity, l, shift=0):
    """Character of the l-point alternating snake, grown by appending points.

    Each (n, parity, shift) keeps its list of prefixes: S_0 = 1 and
    S_k = S_{k-1} F_{k-1} - S_{k-2}, where F_t is the fundamental at point
    t (node node_at(n, parity, t), shift + t(n+1)).  The last chain
    monomial of one point times the first of the next is 1, so the
    product overshoots by exactly S_{k-2}.  A prefix must come out thin; a
    coefficient other than 1 is an internal inconsistency and aborts.
    Thinness is checked once per prefix, when it is built.
    """
    if l < 0:
        raise ValueError("snake length must be >= 0")
    _parity_start(parity)
    prefixes = _snake_cache.setdefault((n, parity, shift),
                                       [LaurentCombination.unit()])
    while len(prefixes) <= l:
        t = len(prefixes) - 1
        out = prefixes[t] * fundamental_qchar(n, node_at(n, parity, t),
                                              shift + t * (n + 1))
        if t:
            out = out - prefixes[t - 1]
        if not set(out.terms.values()) <= {1}:
            raise ArithmeticError("snake recursion produced a non-thin prefix")
        prefixes.append(out)
    return prefixes[l]


def _lex_lead(comb, varlist):
    def vector(m):
        exps = m.exps
        return tuple(exps.get(v, 0) for v in varlist)
    return max(comb.terms, key=vector)


def _monomial_shift(comb, varlist):
    # monomial clearing all negative exponents of comb
    rows = [m.exps for m in comb.terms]
    shift = {}
    for v in varlist:
        low = min((exps.get(v, 0) for exps in rows), default=0)
        if low < 0:
            shift[v] = -low
    return LoopMonomial(shift)


def laurent_divide(p, q):
    """Division with remainder, p = quot*q + rem.

    Laurent exponents are first cleared by monomial shifts; inside the
    polynomial ring the lex order is a well order, so the usual
    leading-term division terminates and parks irreducible terms in the
    remainder instead of looping.  Exact divisions come back with
    rem = 0.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero combination")
    if p.is_zero():
        return LaurentCombination.zero(), LaurentCombination.zero()
    varlist = sorted({v for m in list(p.terms) + list(q.terms) for v in m.exps})
    sp = _monomial_shift(p, varlist)
    sq = _monomial_shift(q, varlist)
    work = LaurentCombination.from_monomial(sp) * p
    qq = LaurentCombination.from_monomial(sq) * q
    qlead = _lex_lead(qq, varlist)
    qc = qq.terms[qlead]
    qlead_exps = qlead.exps
    quot = LaurentCombination.zero()
    rem = LaurentCombination.zero()
    while not work.is_zero():
        m = _lex_lead(work, varlist)
        c = work.terms[m]
        exps = m.exps
        reducible = c % qc == 0 and all(
            exps.get(v, 0) >= e for v, e in qlead_exps.items()
        )
        if reducible:
            t = LaurentCombination.from_monomial(m * qlead.inverse(), c // qc)
            quot = quot + t
            work = work - t * qq
        else:
            rem = rem + LaurentCombination.from_monomial(m, c)
            work = work - LaurentCombination.from_monomial(m, c)
    unshift_p = LaurentCombination.from_monomial(sp.inverse())
    return LaurentCombination.from_monomial(sq) * unshift_p * quot, unshift_p * rem


def kr_qchar(n, node, k, shift=0):
    """Kirillov-Reshetikhin character at an extremal node: the one-row
    tableau sum.

    Box j (j = 0..k-1) holds a monomial of the node's fundamental chain
    at shift + 2j, and the chain indices never decrease along the row.
    row[i] sums the boxes filled so far over the fillings whose last
    index is at most i, so each box costs n+1 monomial products.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    chain = _chain(n, node, shift)
    row = [LaurentCombination.unit()] * (n + 1)
    for j in range(1, k + 1):
        acc = LaurentCombination.zero()
        for i, m in enumerate(chain):
            acc = row[i] = acc + row[i] * LaurentCombination.from_monomial(m)
        chain = _chain(n, node, shift + 2 * j)
    return row[-1]


def alternating_product(n, parity, base_shift, l):
    """Product of the l+1 fundamentals along the alternating pattern."""
    if l < 0:
        raise ValueError("l must be >= 0")
    out = LaurentCombination.unit()
    for t in range(l + 1):
        out = out * fundamental_qchar(n, node_at(n, parity, t), base_shift + t * (n + 1))
    return out


def strip_tilings(cells):
    """All tilings of a 1 x cells strip, as sorted tuples of 2-block starts.

    Lexicographic enumeration order; len(...) == T(cells) with T(1)=1,
    T(2)=2.
    """
    out = []

    def go(pos, acc):
        if pos >= cells:
            out.append(tuple(acc))
            return
        go(pos + 1, acc)  # 1-block at pos
        if pos + 1 < cells:
            go(pos + 2, acc + [pos])  # 2-block covering pos, pos+1
        return

    go(0, [])
    out.sort()
    return out


def fibonacci_tiling(j):
    """T(j): tilings of a strip of j cells; T(1)=1, T(2)=2."""
    if j < 0:
        raise ValueError("negative strip length")
    a, b = 1, 1
    for _ in range(j):
        a, b = b, a + b
    return a


def binomial_census_sum(l):
    """The closed binomial sum over interlacing choices, sum_k C(l-k, k)."""
    return sum(comb(l - k, k) for k in range(l // 2 + 1))


def count_dominant_census(n, l):
    """Dominant monomial count of the alternating product vs the tiling count.

    Returns (count, expected).  The count includes multiplicity; expected
    is T(l+1).  The binomial sum evaluates to T(l) instead and is reported
    separately by census_reports rather than asserted.
    """
    prod = alternating_product(n, "even", 0, l)
    count = sum(c for _m, c in dominant_monomials(prod))
    return count, fibonacci_tiling(l + 1)


def composition_factors(n, parity, base_shift, l):
    """Composition series of the alternating product, one (top monomial,
    character) pair per tiling.

    A 2-block cancels the neighbouring anti-dominant/dominant leading
    terms of adjacent factors; the maximal runs of 1-blocks contribute
    snake characters.  factor_reports checks that the factor characters
    sum to the product exactly.
    """
    start = _parity_start(parity)
    factors = []
    for dominoes in strip_tilings(l + 1):
        covered = set()
        for d in dominoes:
            covered.update((d, d + 1))
        runs = []
        t = 0
        while t <= l:
            if t in covered:
                t += 1
                continue
            a = t
            while t + 1 <= l and t + 1 not in covered:
                t += 1
            runs.append((a, t))
            t += 1
        char = LaurentCombination.unit()
        top = ONE
        for a, b in runs:
            pr = "even" if (start + a) % 2 == 0 else "odd"
            char = char * snake_qchar(n, pr, b - a + 1, base_shift + a * (n + 1))
            for t2 in range(a, b + 1):
                top = top * y_var(node_at(n, parity, t2), base_shift + t2 * (n + 1))
        factors.append((top, char))
    return factors


def neighbouring_snakes(s):
    """The two neighbouring point sequences of a prime snake.

    Each consecutive pair contributes one candidate point to each
    neighbour; a candidate whose node coordinate falls outside 1..n (the
    boundary cases of the defining inequalities) contributes nothing.
    """
    if len(s) < 2:
        raise ValueError("need a snake with at least two points")
    if not s.is_snake():
        raise ValueError("input is not a snake")
    if not s.is_prime():
        raise ValueError("input snake is not prime")
    xs = []
    ys = []
    for (i1, k1), (i2, k2) in zip(s.points, s.points[1:]):
        xi, xk = (i1 + k1 + i2 - k2) // 2, (i1 + k1 - i2 + k2) // 2
        yi, yk = (i2 + k2 + i1 - k1) // 2, (i2 + k2 - i1 + k1) // 2
        if 1 <= xi <= s.n:
            xs.append((xi, xk))
        if 1 <= yi <= s.n:
            ys.append((yi, yk))
    return SnakeSpec(s.n, xs), SnakeSpec(s.n, ys)


def module_dim(c):
    """Dimension of the underlying module: the character evaluated at Y -> 1."""
    return c.total()


# ---------------------------------------------------------------------------
# verification reports of the character suites

def _fm_chain(n, node, shift):
    """Extremal fundamental's monomials in lowering order, by the
    Frenkel-Mukhin algorithm.

    An extremal fundamental is minuscule: every monomial has exactly one
    positive variable Y[i,k], and lowering it by A[i,k+1]^-1 gives the
    next monomial, from Y[node,shift] until none is positive."""
    cartan = CartanData(n)
    chain = [y_var(node, shift)]
    pos = [(node, shift)]
    while pos:
        (i, k), = pos
        chain.append(chain[-1] * a_var(cartan, i, k + 1).inverse())
        pos = [v for v, e in chain[-1].exps.items() if e > 0]
    return chain


def qchar_fundamental_reports(n_values=(2, 3, 4, 5)):
    reports = []
    for n in n_values:
        bad = []
        for node in (1, n):
            # in chain order too: kr_qchar fills its boxes in that order
            chain = list(fundamental_qchar(n, node, 0).terms)
            if chain != _fm_chain(n, node, 0):
                bad.append(node)
        reports.append(VerificationReport(
            check="fundamental closed form",
            params={"n": n},
            status="pass" if not bad else "fail",
            anchor="extremal fundamental characters match their closed "
                   "(n+1)-term form term by term",
            witness={"nodes": [1, n], "mismatched": bad}))
    return reports


def snake_trio_reports(max_l, n_values=(2, 3)):
    reports = []
    for n in n_values:
        checked = 0
        bad = []
        for parity in ("even", "odd"):
            for l in range(0, max_l + 1):
                # thin by construction: snake_qchar raises on a non-thin one
                s = snake_qchar(n, parity, l, 0)
                checked += 1
                if not (len(dominant_monomials(s)) == 1
                        == len(antidominant_monomials(s))):
                    bad.append((parity, l))
        reports.append(VerificationReport(
            check="snake structural trio",
            params={"n": n, "max_l": max_l},
            status="pass" if not bad else "fail",
            anchor="alternating snake characters are thin, with a unique "
                   "dominant and a unique anti-dominant monomial",
            witness={"modules": checked, "violations": bad}))
    return reports


def tsystem_reports(max_l, n_values=(2, 3)):
    reports = []
    for n in n_values:
        bad_rec, bad_pair = [], []
        for parity, pnext in (("even", "odd"), ("odd", "even")):
            for l in range(1, max_l + 1):
                tail = snake_qchar(n, pnext, l, n + 1)
                longer = snake_qchar(n, parity, l + 1, 0)
                # peels the first point; the snakes grew from the back
                lhs = fundamental_qchar(n, node_at(n, parity, 0), 0) * tail
                rhs = longer + snake_qchar(n, parity, l - 1, 2 * (n + 1))
                if lhs != rhs:
                    bad_rec.append((parity, l))
                lhs2 = tail * snake_qchar(n, parity, l, 0)
                rhs2 = longer * snake_qchar(n, pnext, l - 1, n + 1)
                if lhs2 != rhs2 + LaurentCombination.unit():
                    bad_pair.append((parity, l))
        reports.append(VerificationReport(
            check="extended t-system recursion",
            params={"n": n, "max_l": max_l},
            status="pass" if not bad_rec else "fail",
            anchor="one more alternating point splits a snake product into "
                   "the two neighbouring truncations",
            witness={"violations": bad_rec}))
        reports.append(VerificationReport(
            check="pairwise snake identity",
            params={"n": n, "max_l": max_l},
            status="pass" if not bad_pair else "fail",
            anchor="staggered equal-length snake products differ from the "
                   "unbalanced ones by exactly the unit",
            witness={"violations": bad_pair}))
    return reports


def kr_reports():
    def weyl_dim(n, lam):
        dim = Fraction(1)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                dim *= Fraction(sum(lam[a - 1:b]) + (b - a + 1), b - a + 1)
        return int(dim)

    dims = {}
    ok = True
    for k, lam in ((2, (2, 0)), (3, (3, 0))):
        got = module_dim(kr_qchar(2, 1, k, 0))
        want = weyl_dim(2, lam)
        dims[f"k={k}"] = {"dim": got, "weyl": want}
        ok = ok and got == want
    ok = ok and dims["k=2"]["dim"] == 6 and dims["k=3"]["dim"] == 10
    bad = []
    for node in (1, 2):
        other = 3 - node
        for k in (1, 2, 3):
            for s in (0, 1):
                lhs = kr_qchar(2, node, k, s) * kr_qchar(2, node, k, s + 2)
                rhs = (kr_qchar(2, node, k + 1, s)
                       * kr_qchar(2, node, k - 1, s + 2)
                       + kr_qchar(2, other, k, s + 1))
                if lhs != rhs:
                    bad.append((node, k, s))
    return [
        VerificationReport(
            check="kirillov-reshetikhin dimensions",
            params={"n": 2},
            status="pass" if ok else "fail",
            anchor="one-node q-string characters total the Weyl dimension "
                   "of the corresponding rectangular weight",
            witness=dims),
        VerificationReport(
            check="kirillov-reshetikhin t-system",
            params={"n": 2, "max_k": 3},
            status="pass" if not bad else "fail",
            anchor="shifted same-node products split into the neighbouring "
                   "q-string classes with zero residual",
            witness={"violations": bad}),
    ]


def census_reports(max_l, n_values=(2, 3)):
    reports = []
    fib_expect = {l: fibonacci_tiling(l + 1) for l in range(1, max_l + 1)}
    for n in n_values:
        counts = {}
        bad = []
        for l in range(1, max_l + 1):
            count, expected = count_dominant_census(n, l)
            counts[f"l={l}"] = count
            if not (count == expected == fib_expect[l]):
                bad.append(l)
        reports.append(VerificationReport(
            check="fibonacci census",
            params={"n": n, "max_l": max_l},
            status="pass" if not bad else "fail",
            anchor="dominant monomials of the alternating product are "
                   "counted by the strip-tiling Fibonacci numbers",
            witness={"counts": counts, "violations": bad}))
    shifts = {f"l={l}": {"binomial_sum": binomial_census_sum(l),
                         "tiling_count": fibonacci_tiling(l + 1)}
              for l in range(1, max_l + 1)}
    reports.append(VerificationReport(
        check="binomial census shift",
        params={"max_l": max_l},
        status="exploratory",
        anchor="the closed binomial sum lands one Fibonacci index below "
               "the census; recorded, not asserted",
        witness=shifts))
    return reports


def factor_reports(max_l, n_values=(2, 3)):
    reports = []
    for n in n_values:
        bad = []
        for l in range(1, max_l + 1):
            prod = alternating_product(n, "even", 0, l)
            factors = composition_factors(n, "even", 0, l)
            tot = LaurentCombination.zero()
            for _top, char in factors:
                tot = tot + char
            dims = sum(module_dim(char) for _top, char in factors)
            if tot != prod or dims != (n + 1) ** (l + 1):
                bad.append(l)
        reports.append(VerificationReport(
            check="composition completeness",
            params={"n": n, "max_l": max_l},
            status="pass" if not bad else "fail",
            anchor="predicted factor characters sum to the alternating "
                   "product with zero remainder and full dimension count",
            witness={"violations": bad}))
    return reports
