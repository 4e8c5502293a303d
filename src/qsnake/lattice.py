"""Finite periodic strip: monodromy and transfer lines, reduced window
operators in two variants, and the rational maps that shift a window
between the variants.

Sites are numbered right to left, site i carrying the vertical parameter
mu_i.  Each horizontal pair combines a fundamental line at beta with an
antifundamental line at beta - (n+1)/2; tracing out everything but a
window of m adjacent sites gives the window operator.  Variant 1 means
the first (rightmost) window line is antifundamental; its displayed site
label is minus its additive line parameter.  Every horizontal line
crosses the window sites in one order, (m, ..., 2, 1) by default, then
the outside sites; by vertex crossing the antifundamental line is a
forward line too (see density_matrix).  The raising window-shift
equation holds on windows crossed (1, m, ..., 2), the lowering one on
the default crossing.  With one horizontal pair the outside sites fold
into a closed-form map on the two lines, and no chain holds them.

Windows and window-shift images are sparse (map, s) pairs (see sparse),
integer row maps over a positive int, a window's own trace, built and
compared fraction-free; slot j of a window carries site m-j, so site 1
sits on the last slot.  A one-pair window is an algebra element (permalg)
made a row map once: of Z[S_m] in variant 0, and in variant 1 of the
walled Brauer algebra B_{m-1,1}(n+1) whose fbar strand is site 1's.  The
window difference equations, "window reduction" and the exchange
relation compare such elements, a window map applied as a level
(element_level, also the towers' single-level residue), an edge site
traced off or a braid multiplied in, and make no row map where they
agree; column_partition sums its columns in Z[S_2].  The row level_step
and AOperator serve the residue towers and the tests, and the rows of
dominant weight (_folded_window), which fix an equivariant window, are
the row side of "window in the permutation basis".  Every other line of
vertices is one rmat.vertex_chain product over ints at rational
arguments.  The window's trace or the map's scalar absorbs the lines'
integer scales.
The dense forms (embed_pair, ptrace_slot, max_abs_diff, monodromy_matrix,
transfer_matrix, their labeled tensors) are the tests' oracles, which no
suite calls; only they load numpy, from their bodies.  All functions are
pure.  The symmetry checks read rmat.invariance and rmat.weights.
"""

from collections import Counter
from fractions import Fraction
import functools
import math
import operator
import random

from . import permalg, sparse
from .exactlin import pole_order_at, residue_at, tensor_from_matrix
from .report import OutOfScope, VerificationReport
from .rmat import (PrefactorExpr, h_shift, identity_matrix, invariance,
                   prefactor_reduce, vertex_chain, weights)
# perfbench/spans.py TRACED wraps these kernels under the names bound here
from .rmat import identity_matrix as _sp_identity
from .sparse import (embed as _sp_embed, extend as _sp_extend, mul as _sp_mul,
                     ptrace as _sp_ptrace, scale as _sp_scale)


# ---------------------------------------------------------------------------
# dense oracles

def _sp_to_dense(a, dim):
    import numpy as np
    m = np.full((dim, dim), Fraction(0), dtype=object)
    for r, row in a.items():
        for c, v in row.items():
            m[r, c] = v
    return m


def _dense_to_sp(mat):
    out = {}
    for r, line in enumerate(mat):
        row = {c: v for c, v in enumerate(line) if v != 0}
        if row:
            out[r] = row
    return out


def embed_pair(mat2, slots, nslots, n):
    """Dense embedding of a dense two-slot operator: its Kronecker
    product with the identity, the axes then put in slot order."""
    import numpy as np
    d = n + 1
    rest = [s for s in range(nslots) if s not in slots]
    if len(rest) != nslots - 2:
        raise ValueError(f"bad slot pair {slots} for {nslots} slots")
    perm = list(np.argsort([*slots, *rest]))
    full = np.kron(np.asarray(mat2, dtype=object),
                   np.eye(d ** len(rest), dtype=object))
    full = full.reshape((d,) * (2 * nslots))
    return full.transpose(perm + [nslots + i for i in perm]).reshape(
        d ** nslots, d ** nslots)


def ptrace_slot(mat, slot, nslots, n):
    """Dense partial trace over one slot's row and column axes."""
    import numpy as np
    d = n + 1
    full = np.asarray(mat, dtype=object).reshape((d,) * (2 * nslots))
    out = np.trace(full, axis1=slot, axis2=nslots + slot)
    return out.reshape(d ** (nslots - 1), d ** (nslots - 1))


def max_abs_diff(a, b):
    """Largest absolute entry difference of two dense arrays of one shape."""
    import numpy as np
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    delta = Fraction(0)
    for x, y in zip(a.flat, b.flat):
        delta = max(delta, abs(x - y))
    return delta


# ---------------------------------------------------------------------------
# strip data

class LatticeSpec:
    """Rank n, L vertical spaces (site i at mu_i, right to left), N
    horizontal pairs at beta_1..beta_N.  All parameters exact rationals."""

    def __init__(self, n, L, N, mus, betas):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("rank must be at least 1")
        self.L = int(L)
        self.N = int(N)
        if self.L < 1 or self.N < 1:
            raise ValueError("need at least one site and one horizontal pair")
        self.mus = [Fraction(x) for x in mus]
        self.betas = [Fraction(x) for x in betas]
        if len(self.mus) != self.L:
            raise ValueError("need one mu per site")
        if len(self.betas) != self.N:
            raise ValueError("need one beta per horizontal pair")

    @classmethod
    def staggered(cls, n, L, N, mus, beta):
        """Alternating +beta, -beta down the horizontal pairs."""
        beta = Fraction(beta)
        return cls(n, L, N, mus, [beta if j % 2 == 0 else -beta for j in range(N)])

    def __repr__(self):
        return (f"LatticeSpec(n={self.n}, L={self.L}, N={self.N}, "
                f"mus={self.mus}, betas={self.betas})")


# ---------------------------------------------------------------------------
# monodromy and transfer (auxiliary line against the full row)

def monodromy_matrix(spec, lam, direction="T", aux_kind="f", aux_slot=None,
                     nslots=None):
    """Dense monodromy with the auxiliary leg open.

    direction "T": factors R_{a,i}(lam - mu_i) ordered i = L..1 left to
    right; "Tbar": factors R_{i,a}(mu_i - lam) ordered i = 1..L.  Site i
    occupies slot i-1; the auxiliary space defaults to a fresh last slot.
    A custom aux_slot/nslots places the line inside a larger product
    space (two-line exchange checks)."""
    n, L = spec.n, spec.L
    d = n + 1
    if nslots is None:
        nslots = L + 1
    if aux_slot is None:
        aux_slot = L
    if direction not in ("T", "Tbar"):
        raise ValueError("direction must be 'T' or 'Tbar'")
    sign, sites = ((1, range(L, 0, -1)) if direction == "T"
                   else (-1, range(1, L + 1)))
    factors = [(aux_kind, "f", sign * (lam - spec.mus[i - 1]),
                (aux_slot, i - 1)) for i in sites]
    mat, s = vertex_chain(n, nslots, factors)
    return _sp_to_dense(sparse.scale(mat, Fraction(1, s)), d ** nslots)


def monodromy(spec, lam, direction="T", aux_kind="f"):
    """Monodromy as a labeled tensor: legs s1..sL and aux, in/out each."""
    mat = _dense_to_sp(monodromy_matrix(spec, lam, direction, aux_kind))
    d = spec.n + 1
    labels = [f"s{i}" for i in range(1, spec.L + 1)] + ["aux"]
    return tensor_from_matrix(mat, [l + "_out" for l in labels],
                              [l + "_in" for l in labels], [d] * (spec.L + 1))


def transfer_matrix(spec, lam, direction="T", aux_kind="f"):
    """Dense transfer operator on the row: auxiliary trace of the
    monodromy."""
    mat = monodromy_matrix(spec, lam, direction, aux_kind)
    return ptrace_slot(mat, spec.L, spec.L + 1, spec.n)


def transfer(spec, lam, direction="T", aux_kind="f"):
    """Transfer operator as a labeled tensor on sites 1..L."""
    mat = _dense_to_sp(transfer_matrix(spec, lam, direction, aux_kind))
    d = spec.n + 1
    labels = [f"s{i}" for i in range(1, spec.L + 1)]
    return tensor_from_matrix(mat, [l + "_out" for l in labels],
                              [l + "_in" for l in labels], [d] * spec.L)


# ---------------------------------------------------------------------------
# window operators

class DensityWindow:
    """Normalized window operator on sites 1..m.

    pair is (map, s), a row map on d^m coordinates over the int s > 0;
    density_matrix's is over ints, s its trace, the sign in the map.  Slot
    j carries site m-j (site 1 last); site_labels are (site 1, ...,
    site m).  variant 1 means site 1 is the antifundamental line.
    crossing orders the sites as every horizontal line crosses them.
    norm is the partition function z of density_matrix, else None, and
    element the pair (x, s) of its algebra element at N = 1, else None."""
    norm = element = None

    def __init__(self, n, m, variant, pair, site_labels, crossing=None):
        self.n = int(n)
        self.m = int(m)
        if variant not in (0, 1):
            raise ValueError("variant must be 0 or 1")
        self.variant = int(variant)
        if not (isinstance(pair[1], int) and pair[1] > 0):
            raise ValueError(f"window scale {pair[1]!r} is not a positive int")
        dim = (self.n + 1) ** self.m
        if not all(0 <= r < dim and all(0 <= c < dim for c in row)
                   for r, row in pair[0].items()):
            raise ValueError("matrix index outside the window")
        self.pair = pair
        self.site_labels = [Fraction(x) for x in site_labels]
        if len(self.site_labels) != self.m:
            raise ValueError("need one label per window site")
        self.crossing = _crossing(self.m, crossing)

    def site_kind(self, i):
        return "fbar" if (self.variant == 1 and i == 1) else "f"

    @property
    def kinds(self):
        """site_kind of each slot, slot 0 (site m) first."""
        return tuple(self.site_kind(self.m - j) for j in range(self.m))

    @property
    def matrix(self):
        """The row map over Fractions, each distinct entry divided once;
        no check reads it, only the tests and the benchmark's window hook."""
        mat, s = self.pair
        frac = {v: Fraction(v, s)
                for v in {v for row in mat.values() for v in row.values()}}
        return {r: {c: frac[v] for c, v in row.items()}
                for r, row in mat.items()}

    def trace(self):
        return Fraction(sparse.trace(self.pair[0]), self.pair[1])

    def __repr__(self):
        return (f"DensityWindow(n={self.n}, m={self.m}, "
                f"variant={self.variant}, labels={self.site_labels}, "
                f"crossing={self.crossing})")


def _crossing(m, crossing):
    """crossing as a tuple ordering the sites 1..m; (m, ..., 1) if None."""
    crossing = tuple(range(m, 0, -1) if crossing is None else crossing)
    if sorted(crossing) != list(range(1, m + 1)):
        raise ValueError(f"crossing {crossing} does not order sites 1..{m}")
    return crossing


class VanishingNormalization(ArithmeticError):
    """A window whose trace before normalization is zero."""


def _traced_product(n, nslots, chains):
    """Product of the vertex_chain pairs of chains on nslots slots, each
    traced over its last slot; a repeated chain is built once."""
    traced = {}
    for c in dict.fromkeys(chains):
        chain, s = vertex_chain(n, nslots, c)
        traced[c] = sparse.ptrace(chain, nslots - 1, nslots, n + 1), s
    return functools.reduce(sparse.scaled_mul, map(traced.get, chains))


def _outside_columns(n, b, k):
    """k outside columns of a one-pair strip at b, each traced over its
    site, as (a, c, s): the map a*1 + c*P on the two lines, over the
    scale s.  An outside site sits at 0 with kind f, so both lines cross
    it at x = -b = alpha/beta; line 1's vertex then line 2's, traced over
    the site, is c0*1 + c1*P over beta^2, with c0 = alpha*(alpha*(n+1) +
    2*beta) and c1 = beta^2.  As P^2 = 1, the k-th power is read off the
    eigenvalues c0 + c1 and c0 - c1, whose powers have equal parity."""
    x = -Fraction(b)
    alpha, beta = x.numerator, x.denominator
    c0, c1 = alpha * (alpha * (n + 1) + 2 * beta), beta * beta
    plus, minus = (c0 + c1) ** k, (c0 - c1) ** k
    return (plus + minus) // 2, (plus - minus) // 2, c1 ** k


def _folded_window(n, m, L, b, rows, starts=None):
    """The unnormalized window of a one-pair strip at b from its two
    lines' window vertices on m + 1 slots, and its scale: a*T1*T2 +
    c*T12, with (a, c) the L - m outside columns (_outside_columns), T_j
    line j traced and T12 line 1 then line 2 on one line slot, traced:
    the row way of "window in the permutation basis", with T1*T2 =
    tr((T1 (x) 1) C2), C2 line 2's chain, and every chain started from
    the identity rows starts (all if None)."""
    a, c, s = _outside_columns(n, b, L - m)
    d = n + 1
    # each line's first m vertices, its line moved from slot L to slot m
    first, second = [tuple(v[:3] + ((v[3][0], m),) for v in row[:m])
                     for row in rows]
    line = vertex_chain(n, m + 1, first, ({r: {r: 1} for r in (
        range(d ** (m + 1)) if starts is None else starts)}, 1))
    once = sparse.extend(sparse.ptrace(line[0], m, m + 1, d), d), line[1]
    t, scale = vertex_chain(n, m + 1, second, once)
    loop = vertex_chain(n, m + 1, second, line)[0] if c else {}
    return sparse.combine((a, sparse.ptrace(t, m, m + 1, d)),
                          (c, sparse.ptrace(loop, m, m + 1, d))), scale * s


def _strip(spec, m, mu_window, variant, crossing=None):
    """A window's validated labels and crossing, then its vertex chains:
    the 2N lines in product order (per pair the line at b, then its
    partner), each on an extra last slot, and the L columns in crossing
    order, the site last and line j on slot j."""
    n, L = spec.n, spec.L
    if not 1 <= m <= L:
        raise ValueError(f"window m={m} does not fit L={L}")
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    labels = [Fraction(x) for x in mu_window]
    if len(labels) != m:
        raise ValueError("need one window label per site")
    crossing = _crossing(m, crossing)
    params = labels[::-1] + [Fraction(0)] * (L - m)
    kinds = ["f"] * L
    if variant == 1:
        params[m - 1], kinds[m - 1] = -labels[0], "fbar"
    order = [m - site for site in crossing] + list(range(m, L))
    lines = [tuple(b - p - n - 1 if partner and i == m - 1 else p - b
                   for i, p in enumerate(params))
             for b in spec.betas for partner in (False, variant == 1)]
    rows = [tuple((kinds[i], "f", xs[i], (i, L)) for i in order)
            for xs in lines]
    columns = [tuple(v[:3] + ((len(rows), j),) for j, v in enumerate(col))
               for col in zip(*rows)]
    return labels, crossing, rows, columns


def _vertex(n, size, factor):
    """A vertex_chain factor (kind1, kind2, x, (p, q)) as an element on
    size strands, and its scale s: alpha + beta*(p q) with rmat's integer
    weights, for mixed kinds the crossed form of alpha*1 + beta*K."""
    kind1, kind2, x, (p, q) = factor
    shift = x if kind1 == kind2 else x + h_shift(n)
    s = shift.denominator
    return permalg.vertex(size, shift.numerator, s if kind1 == kind2 else -s,
                          p, q), s


def _line_window(n, m, L, b, rows):
    """_folded_window's window in the algebra, and its scale: with (a, c)
    as there, a*E(l1)E(l2) + c*E(l1 l2), l_j line j's window vertices on
    the m window strands and the line strand m, E the trace over it.  In
    variant 0 the lines are one and the elements are in Z[S_m]; in
    variant 1 they are in the walled Brauer algebra B_{m-1,1}(n+1) whose
    fbar strand is site 1's, m - 1, crossed there (permalg.mul)."""
    a, c, s = _outside_columns(n, b, L - m)
    walled = (m - 1, n + 1) if any(v[0] == "fbar" for v in rows[0]) else ()
    lines = {}
    for row in dict.fromkeys(rows):
        x, scale = {tuple(range(m + 1)): 1}, 1
        for v in row[:m]:
            e, sv = _vertex(n, m + 1, v[:3] + ((v[3][0], m),))
            x, scale = permalg.mul(x, e, *walled), scale * sv
        lines[row] = x, scale, permalg.trace_last(x, n + 1)
    (l1, s1, once1), (l2, s2, once2) = map(lines.get, rows)
    loop = permalg.trace_last(permalg.mul(l1, l2, *walled), n + 1) if c else {}
    return (permalg.combine((a, permalg.mul(once1, once2, *walled)),
                            (c, loop)), s1 * s2 * s)


def density_matrix(spec, m, mu_window, variant=0, crossing=None):
    """Window operator over m adjacent sites of the strip.

    mu_window lists the displayed labels (site 1, ..., site m); sites
    outside the window sit at the homogeneous point 0.  Every line
    crosses the sites in the order crossing, (m, ..., 2, 1) by default,
    then the outside ones; slot j carries site m-j.  The line at b puts
    (kind_i, f, p_i - b) on site i, p_i its additive parameter; its
    partner has (fbar, f, b - p_i - (n+1)) on the antifundamental site:
    by vertex crossing, (-1)^L times the antifundamental line at
    b - (n+1)/2 crossing the other way, a sign that the normalization to
    unit trace cancels, as do the lines' integer scales.  A vanishing
    normalization raises with the parameters in the message.

    At N = 1 the L - m outside columns fold into a*1 + c*P on the two
    lines, and the window is an algebra element (_line_window): of
    Z[S_m] in variant 0, of B_{m-1,1}(n+1) in crossed form in variant 1.
    Its trace is read before its row map is made, once (_image).  At
    N >= 2 the lines keep every site and the outside sites are traced
    after the row product: there the fold expands into 12 to 24
    permutations of the four lines, which a prototype found exact but 3
    to 10 times slower at m >= 2.  column_partition builds z
    independently: in Z[S_2] at N = 1, on rows at N >= 2; at N = 1
    _dominant_bridge compares the rows of dominant weight on rows."""
    return _window(spec, variant, _strip(spec, m, mu_window, variant,
                                         crossing), spec.N == 1)


def _nonvanishing(spec, z, labels, variant):
    if z == 0:
        raise VanishingNormalization(
            f"vanishing normalization: n={spec.n} L={spec.L} N={spec.N} "
            f"betas={spec.betas} window={labels} variant={variant}")


def _image(x, variant, d):
    """The row map of a window element: permalg.image, crossed on the last
    slot (site 1) in variant 1."""
    t = permalg.image(x, d)
    return sparse.cross(t, d) if variant else t


def _window_element(spec, variant, strip):
    """At N = 1 the window on the strip (_strip) as ((x, z), norm): x its
    element (_line_window) signed so that its trace z is positive."""
    labels, _, rows, _ = strip
    x, scale = _line_window(spec.n, len(labels), spec.L, spec.betas[0], rows)
    z = permalg.trace(x, spec.n + 1)
    _nonvanishing(spec, z, labels, variant)
    pair = (x, z) if z > 0 else (permalg.combine((-1, x)), -z)
    return pair, Fraction(z, scale)


def _window(spec, variant, strip, algebra):
    """density_matrix on the strip (_strip), its window built in the
    algebra if algebra, its element then kept as .element, else on rows."""
    n, L = spec.n, spec.L
    labels, crossing, rows, _ = strip
    m, element = len(labels), None
    if algebra:
        element, norm = _window_element(spec, variant, strip)
        pair = _image(element[0], variant, n + 1), element[1]
    else:
        if spec.N == 1:
            t, scale = _folded_window(n, m, L, spec.betas[0], rows)
        else:
            t, scale = _traced_product(n, L + 1, rows)
            for slot in range(L - 1, m - 1, -1):
                t = sparse.ptrace(t, slot, slot + 1, n + 1)
        z = sparse.trace(t)
        _nonvanishing(spec, z, labels, variant)
        pair = (t, z) if z > 0 else (sparse.scale(t, -1), -z)
        norm = Fraction(z, scale)
    win = DensityWindow(n, m, variant, pair, labels, crossing)
    win.norm, win.element = norm, element
    return win


def _dominant_bridge(spec, strip, win, w):
    """"window in the permutation basis" at N = 1 as (equal, rows): rows
    _folded_window from the identity rows whose window digits x have a
    dominant weight w[x], with every line digit; equal if they are win's,
    and so are, signed, the trace (each dominant diagonal entry times
    its S_{n+1} orbit size) and the norm.  Both commute with the colour
    permutations, the image by construction, the rows where each vertex
    does, so equal dominant rows give equal maps."""
    d = spec.n + 1
    dominant = [x for x, v in enumerate(w) if list(v) == sorted(v)[::-1]]
    t, scale = _folded_window(spec.n, win.m, spec.L, spec.betas[0], strip[2],
                              [x * d + u for x in dominant for u in range(d)])
    z = sum(t.get(x, {}).get(x, 0) * math.factorial(d) // math.prod(
        map(math.factorial, Counter(w[x]).values())) for x in dominant)
    t = sparse.scale(t, -1) if z < 0 else t
    return (all(t.get(x) == win.pair[0].get(x) for x in dominant)
            and (abs(z), Fraction(z, scale)) == (win.pair[1], win.norm)), t


def column_partition(spec, columns):
    """density_matrix's normalization z summed over the columns of its
    strip (_strip), no row line built: tr_H of the product in crossing
    order of C_i = tr_i of slot i's vertices with the 2N lines (H) in
    product order: summed in Z[S_2] at N = 1, every column multiplied in
    (none folded), on rows at N >= 2.  An fbar site takes no walled
    product: tr_s(cross(A) cross(B)) = tr_s(A B) for the crossing on the
    traced strand s."""
    if spec.N != 1:
        t, scale = _traced_product(spec.n, 2 * spec.N + 1, columns)
        return Fraction(sparse.trace(t), scale)
    x, scale = {(0, 1): 1}, 1
    for col in columns:  # its two site vertices (_vertex) on 3 strands
        (a, sa), (b, sb) = (_vertex(spec.n, 3, v) for v in col)
        c = permalg.trace_last(permalg.mul(a, b), spec.n + 1)
        x, scale = permalg.mul(x, c), scale * sa * sb
    return Fraction(permalg.trace(x, spec.n + 1), scale)


def colour_conserving(win, w, *maps):
    """Every stored entry of the window, and of each row map in maps,
    joins two coordinates of equal weight, w = rmat.weights(win.n,
    win.kinds): the window commutes with every E_jj."""
    return all(w[r] == w[c] for a in (win.pair[0], *maps)
               for r, row in a.items() for c in row)


# ---------------------------------------------------------------------------
# window-shift operators between the two variants

def a_prefactor_expr(which, n, mu_rest, shift=0):
    """Symbolic scalar of a window-shift operator, first argument formal.

    which=1 collects rho(lam-mu)rho(mu-lam) over the passive sites with
    the rational normalizers of the fundamental vertices; which=2 the
    reciprocal mixed-vertex pairs.  shift substitutes lam -> lam + shift
    before reduction (used for composites).  With d = mu - shift, a site
    adds rho(lam-d+t)^e rho(d+t-lam)^e = (rho(lam-d+t)/rho(lam-d-t))^e and
    -1/((lam-(d-a))(lam-(d+a))), (e, t, a) = (1, 0, 1) or (-1, h, h - 1)."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    h = h_shift(n)
    e, t, a = (1, 0, 1) if which == 1 else (-1, h, h - 1)
    factors, roots = Counter(), Counter()
    for mu in mu_rest:
        d = Fraction(mu) - Fraction(shift)
        factors[t - d] += e
        factors[-d - t] -= e
        roots[d - a] -= 1
        roots[d + a] -= 1
    return PrefactorExpr(n, (-1) ** len(mu_rest), factors, roots)


def reduced_prefactor(n, mu_rest, levels):
    """Product of the level scalars a_prefactor_expr(which, n, mu_rest,
    shift) over levels [(which, shift), ...], reduced through the rho
    ladder to an explicit rational function of the first argument.  A
    surviving rho factor raises ArithmeticError."""
    red = prefactor_reduce(functools.reduce(operator.mul, (
        a_prefactor_expr(which, n, mu_rest, shift)
        for which, shift in levels)))
    if isinstance(red, PrefactorExpr):
        raise ArithmeticError(
            f"scalar prefactor does not reduce to a rational function: {red!r}")
    return red


def simple_pole_residue(fun, pole, params):
    """Residue of the rational function fun at pole, which must be a
    simple pole; otherwise ArithmeticError names params."""
    order = pole_order_at(fun, pole)
    if order != 1:
        raise ArithmeticError(
            f"pole order {order} != 1 at {pole}; residue undefined. "
            f"parameters: {params}")
    return residue_at(fun, pole)


def level_chain(which, n, nu, mus):
    """vertex_chain factor lists (CL, CR) of one window-shift level.

    Passive site j = 2..m, parameter mus[j-2], sits on slot m-j, the
    consumed line on slot m-1; the fresh line is untouched.  The level
    line crosses the passive sites upward (j = 2..m, at nu - mu_j) and
    downward (j = m..2, at mu_j - nu); both vertex kinds and K are
    symmetric in their two lines.  which=1 is the raising level
    (up, K, down) with same-kind vertices, which=2 the lowering one
    (down, K, up) with mixed vertices."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    m = len(mus) + 1
    kind = "f" if which == 1 else "fbar"
    sites = list(enumerate(mus, 2))
    up = [("f", kind, nu - mu, (m - j, m - 1)) for j, mu in sites]
    down = [("f", kind, mu - nu, (m - j, m - 1)) for j, mu in reversed(sites)]
    return (up, down) if which == 1 else (down, up)


def level_step(which, n, nu, mus, pair):
    """One window-shift level applied to a (map, s) pair on the m window
    slots (a tower starts from vertex_chain(n, m, [])).  The map's last slot
    is the consumed line, the image's the fresh line.  The level traces
    the consumed line of (CL.mat (x) 1).K.(CR (x) 1) on m+1 slots, K
    pairing digit t of the consumed line with n-t of the fresh one: with
    A = CL.mat and B = CR, image entry ((r, f), (c, g)) is the sum over
    k, t of A[(r, t)][(k, n-f)] B[(k, n-g)][(c, t)], which is the product
    cross(A) cross(B) on the m slots.  Returns the pair, no prefactor."""
    m, d = len(mus) + 1, n + 1
    left, right = level_chain(which, n, nu, mus)
    a, s = sparse.scaled_mul(vertex_chain(n, m, left), pair)
    b, sb = vertex_chain(n, m, right)
    return sparse.mul(sparse.cross(a, d), sparse.cross(b, d)), s * sb


def element_level(which, n, nu, mus, x):
    """level_step on a window element, and the level's scale.  The level
    is cross(CL.x) cross(CR), crossed on the line strand m - 1, and
    cross(CR) is CR's crossed vertices in reverse order, as each meets
    the line strand and a site of its own.  The crossing of an element of
    Z[S_m] is the B_{m-1,1}(n+1) element of the same crossed form, so
    only the raising level's right factors and the lowering level's left
    ones take the walled product."""
    m = len(mus) + 1
    left, right = level_chain(which, n, nu, mus)
    scale = 1
    for v in reversed(left):
        e, s = _vertex(n, m, v)
        x = permalg.mul(e, x, *((m - 1, n + 1) if which == 2 else ()))
        scale *= s
    for v in reversed(right):
        e, s = _vertex(n, m, v)
        x = permalg.mul(x, e, *((m - 1, n + 1) if which == 1 else ()))
        scale *= s
    return x, scale


class AOperator:
    """Linear map between the window variants.

    which=1 consumes a variant-0 window whose first site sits at the
    operator's first argument and yields the variant-1 window; which=2
    is the reverse.  The first argument is always the additive parameter
    of the distinguished line; for which=2 the displayed label of that
    line is minus the argument.  which=1 takes windows crossed from site
    1 first, which=2 with site 1 last; the image keeps the crossing."""

    def __init__(self, which, n, lam1, mu_rest):
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        self.which = int(which)
        self.n = int(n)
        self.lam1 = Fraction(lam1)
        self.mu_rest = [Fraction(x) for x in mu_rest]
        self.m = len(self.mu_rest) + 1
        if self.m < 2:
            raise ValueError("need at least one passive site")
        red = reduced_prefactor(self.n, self.mu_rest, [(self.which, 0)])
        try:
            self.prefactor = red(self.lam1)
        except ZeroDivisionError:
            raise ArithmeticError(
                f"prefactor pole at first argument {self.lam1}; "
                f"parameters collide: mu_rest={self.mu_rest}")

    def __call__(self, win):
        if not isinstance(win, DensityWindow):
            raise TypeError("expected a DensityWindow")
        if win.m != self.m:
            raise ValueError(f"window has m={win.m}, operator expects {self.m}")
        want = 0 if self.which == 1 else 1
        if win.variant != want:
            raise ValueError(
                f"which={self.which} consumes variant-{want} windows")
        if win.crossing[(0, -1)[want]] != 1:
            raise ValueError(f"which={self.which} consumes windows crossed "
                             f"with site 1 {('first', 'last')[want]}, got "
                             f"{win.crossing}")
        pair = sparse.times(level_step(self.which, self.n, self.lam1,
                                       self.mu_rest, win.pair), self.prefactor)
        h = h_shift(self.n)
        first = h - self.lam1 if self.which == 1 else self.lam1 + h
        return DensityWindow(self.n, self.m, 1 - want, pair,
                             [first] + self.mu_rest, win.crossing)

    def __repr__(self):
        return (f"AOperator(which={self.which}, n={self.n}, "
                f"lam1={self.lam1}, mu_rest={self.mu_rest})")


def a_operator(which, n, lam1, mu_rest):
    """Window-shift map; see AOperator."""
    return AOperator(which, n, lam1, mu_rest)


def composite_prefactor(n, mu_rest):
    """Scalar of the round trip: raise at lam, lower at lam - (n+1)/2.

    Every rho cancels through the ladder relation; returns the explicit
    rational function of lam."""
    return reduced_prefactor(n, mu_rest, [(1, 0), (2, -h_shift(n))])


def lowering_residue(n, mu_rest):
    """(pole, residue) of the lowering scalar at mu_2 - (n+1)/2."""
    pole = Fraction(mu_rest[0]) - h_shift(n)
    return pole, simple_pole_residue(
        reduced_prefactor(n, mu_rest, [(2, 0)]), pole, f"mu_rest={mu_rest}")


def a_residue_parts(n, mu_rest):
    """Residue data of the lowering map at its simple pole.

    At the pole the passive vertex at site 2 degenerates to minus the
    rank-1 singlet.  Returns (scalar residue, sparse chain product
    CL.K.CR on m+1 slots at the pole, K the mixed vertex at -(n+1)/2)."""
    pole, res = lowering_residue(n, mu_rest)
    m = len(mu_rest) + 1
    cl, cr = level_chain(2, n, pole, mu_rest)
    k = ("f", "fbar", -h_shift(n), (m - 1, m))
    prod, s = vertex_chain(n, m + 1, cl + [k] + cr)
    return res, sparse.scale(prod, Fraction(-1, s))


def a_residue_closed(n, mu_rest):
    """The lowering level step at the pole applied to the identity on the
    m window sites (site m first), scaled by the residue."""
    pole, res = lowering_residue(n, mu_rest)
    ident = identity_matrix((n + 1) ** (len(mu_rest) + 1))
    mat, s = level_step(2, n, pole, mu_rest, sparse.integral(ident))
    return sparse.scale(mat, res / s)


# ---------------------------------------------------------------------------
# finite-strip verification of the two window difference equations

def verify_finite_rqkz(spec, m):
    """Exact check of both window difference equations.

    The window's first vertical is pinned to the horizontal parameter
    beta: the raising map at beta takes the variant-0 window at
    (beta, mu_2..mu_m) to the variant-1 window whose first label is
    (n+1)/2 - beta (eq1), and the lowering map at beta - (n+1)/2 takes
    it back (eq2).  eq1 holds on windows crossed (1, m, ..., 2), eq2 on
    the default crossing (m, ..., 2, 1), and at 3 <= m < L neither in
    the other's; at m = L the two crossings give the same windows, built
    once.  Windows and maps are algebra elements (_window_element,
    _level), each side over its trace.  Equal elements certify equal
    operators, residual 0, and no row map is built; elements that differ
    are compared on their row maps, entry by entry (_shift_residual), as
    where m > n + 1 the image forgets part of an element."""
    if spec.N != 1:
        raise ValueError("finite verification covers one horizontal pair")
    if not 2 <= m <= spec.L:
        raise ValueError(f"window m={m} needs 2 <= m <= L={spec.L}")
    n = spec.n
    h = h_shift(n)
    beta = spec.betas[0]
    mu_rest = [spec.mus[i] for i in range(1, m)]
    labels = ([beta] + mu_rest, [h - beta] + mu_rest)
    d0, d1 = (_window_element(spec, v, _strip(spec, m, labels[v], v))[0]
              for v in (0, 1))
    # at m = L both crossings go once round the closed ring, and each
    # line's trace is cyclic: the raising windows are the default ones
    up0, up1 = (d0, d1) if m == spec.L else (_window_element(spec, v, _strip(
        spec, m, labels[v], v, (1, *range(m, 1, -1))))[0] for v in (0, 1))
    r1 = _shift_residual(1, n, beta, mu_rest, up0, up1)
    r2 = _shift_residual(2, n, beta - h, mu_rest, d1, d0)
    status = "pass" if (r1 == 0 and r2 == 0) else "fail"
    return VerificationReport(
        check="window difference equations",
        params={"n": n, "L": spec.L, "N": spec.N, "m": m, "j": 1,
                "beta": beta, "mu_rest": mu_rest},
        status=status,
        anchor="finite-strip window operators satisfy the raising equation "
               "on windows crossed (1, m, ..., 2) and the lowering equation "
               "on the default crossing (m, ..., 2, 1), exactly",
        witness={"eq1_residual": r1, "eq2_residual": r2,
                 "raised_label": h - beta})


def _shift_residual(which, n, lam1, mu_rest, window, want):
    """The largest entry of the window-shift map at lam1 applied to the
    window pair (x, z), less the pair want (_residual)."""
    q = a_operator(which, n, lam1, mu_rest).prefactor
    x, s = element_level(which, n, lam1, mu_rest, window[0])
    return _residual(n + 1, 2 - which, (x, window[1] * s), want, q)


def _residual(d, variant, pair, want, q=1):
    """sparse.diff of q times the element pair (x, s) and the pair want:
    0 where the elements agree cross-multiplied, no row map built, else
    their images compared (_image), so no report fails on the algebra."""
    (x, s), (y, t) = pair, want
    if not permalg.combine((q.numerator * t, x), (-q.denominator * s, y)):
        return Fraction(0)
    return sparse.diff(sparse.times((_image(x, variant, d), s), q),
                       (_image(y, variant, d), t))


def _reduction_window(spec, m, labels, variant):
    """The default-crossed window's pair, its element's at N = 1."""
    if spec.N == 1:
        return _window_element(spec, variant,
                               _strip(spec, m, labels, variant))[0]
    return density_matrix(spec, m, labels, variant).pair


def _reduction_residual(spec, m, labels, variant, slot, small):
    """"window reduction": the m-window on labels with its edge site on
    slot (0 or m - 1) traced, less the (m-1)-window's pair small.  At
    N = 1 the edge strand is traced in the algebra (it is never the fbar
    strand, so the trace commutes with the crossing) and compared there."""
    x, s = _reduction_window(spec, m, labels, variant)
    d = spec.n + 1
    if spec.N != 1:
        return sparse.diff((sparse.ptrace(x, slot, m, d), s), small)
    edge = permalg.trace_last if slot else permalg.trace_first
    return _residual(d, variant, (edge(x, d), s), small)


def projected_reduction_check(spec, m):
    """Exploratory: singlet-projected variant-1 window against the
    singlet (minus the mixed vertex at -(n+1)/2) times the window with
    the first pair removed.  The residual is recorded, never asserted."""
    if m < 3:
        raise ValueError("needs m >= 3 so a smaller window remains")
    n = spec.n
    d = n + 1
    h = h_shift(n)
    mu2 = spec.mus[1]
    rest = [spec.mus[i] for i in range(2, m)]
    d1, s1 = density_matrix(spec, m, [h - mu2, mu2] + rest, 1).pair
    ksp = vertex_chain(n, m, [("f", "fbar", -h, (m - 1, m - 2))])[0]
    small, s0 = density_matrix(spec, m - 2, rest, 0).pair
    rhs = sparse.mul(ksp, sparse.extend(sparse.extend(small, d), d))
    resid = sparse.diff((sparse.mul(ksp, d1), s1), (rhs, s0))
    return VerificationReport(
        check="singlet-projected window reduction",
        params={"n": n, "L": spec.L, "N": spec.N, "m": m,
                "mu2": mu2, "rest": rest},
        status="exploratory",
        anchor="projected variant-1 window conjectured to drop its first pair",
        witness={"residual": resid})


# ---------------------------------------------------------------------------
# verification reports: windows and their difference equations

_NUMERATORS, _DENOMINATORS = range(-12, 13), range(1, 10)  # of the pool
_CANDIDATE_CLASSES = frozenset(Fraction(2 * a % b, b)
                               for a in _NUMERATORS for b in _DENOMINATORS)
# the most labels one draw holds clear of 0 and a staggering beta
MAX_LABELS = len(_CANDIDATE_CLASSES) - 2


def seeded_rationals(seed, count, avoid=()):
    """Deterministic small rationals clear of the vertex poles.

    Candidates are a/b with a in -12..12 and b in 1..9.  A candidate is
    rejected when its class 2q mod 1 is that of an accepted value or an
    entry of avoid, so no difference is a half-integer: vertex poles
    (+-1, +-(n+1)/2) and prefactor collisions live on such differences
    for every supported rank.  A count above the 22 classes less those
    of avoid raises ValueError.  A window normalization can still vanish
    at a draw: n=2, L=3, beta=2/3 and the label 1/3 (lattice --seed 31)."""
    rng = random.Random(seed)
    taken = {2 * Fraction(v) % 1 for v in avoid}
    left = len(_CANDIDATE_CLASSES - taken)
    if count > left:
        raise ValueError(f"{count} rationals need as many free classes of 2q "
                         f"mod 1; {left} are left")
    out = []
    while len(out) < count:
        a, b = (rng.randint(r[0], r[-1]) for r in (_NUMERATORS, _DENOMINATORS))
        if (c := Fraction(2 * a % b, b)) not in taken:
            out.append(Fraction(a, b))
            taken.add(c)
    return out


def lattice_reports(n, max_L, N, max_m, seed):
    reports = []
    kind_weights = {}  # rmat.weights of each kinds tuple, built once
    # a vertex is affine in its argument: invariant at two, at every one
    vertices = N != 1 or invariance(n, [
        (k, vertex_chain(n, 2, [(*k, x, (0, 1))]))
        for k in (("f", "f"), ("fbar", "f")) for x in (0, 1)]) == 0
    for L in range(2, max_L + 1):
        beta = seeded_rationals(seed + L, 1, avoid=[0])[0]
        spec = LatticeSpec.staggered(n, L, N, [Fraction(0)] * L, beta)
        mtop = min(L, max_m)
        labels = seeded_rationals(seed + L + 100, mtop, avoid=[0, beta])
        top = {}  # the two windows on labels[:mtop], by variant

        traces, colours, bridge = {}, {}, {}
        for m in range(1, mtop + 1):
            for variant in (0, 1):
                key = f"m={m},variant={variant}"
                strip = _strip(spec, m, labels[:m], variant)
                win = _window(spec, variant, strip, N == 1)
                traces[key] = win.trace() == 1 and (
                    win.norm == column_partition(spec, strip[3]))
                if m == mtop:
                    top[variant] = win
                if win.kinds not in kind_weights:
                    kind_weights[win.kinds] = weights(n, win.kinds)
                w, rows = kind_weights[win.kinds], {}
                if N == 1:  # the rows that decide the bridge
                    bridge[key], rows = _dominant_bridge(spec, strip, win, w)
                colours[key] = colour_conserving(win, w, rows)
        reports.append(VerificationReport(
            check="window unit trace",
            params={"n": n, "L": L, "N": N, "seed": seed},
            status="pass" if all(traces.values()) else "fail",
            anchor="closed-strip normalization leaves every window with "
                   "trace one",
            witness=traces))
        if N == 1:
            reports.append(VerificationReport(
                check="window in the permutation basis",
                params={"n": n, "L": L, "N": N, "seed": seed},
                status="pass" if all(bridge.values()) and vertices
                else "fail",
                anchor="each window built in Z[S_m] (variant 0) or in "
                       "B_{m-1,1}(n+1) (variant 1) is the window built on "
                       "rows, with the same normalization",
                witness=bridge))
        reports.append(VerificationReport(
            check="window colour conservation",
            params={"n": n, "L": L, "N": N, "seed": seed},
            status="pass" if all(colours.values()) else "fail",
            anchor="window entries vanish unless row and column weights "
                   "agree",
            witness=colours))

        if mtop >= 2:
            resid = Fraction(0)
            cases = 0
            rest = labels[1:mtop]
            small = {v: _reduction_window(spec, mtop - 1, rest, v)
                     for v in (0, 1)}
            # (variant, labels of the big window, slot of the traced site)
            for variant, big, slot in ((0, [Fraction(0)] + rest, mtop - 1),
                                       (0, rest + [Fraction(0)], 0),
                                       (1, rest + [Fraction(0)], 0)):
                resid = max(resid, _reduction_residual(
                    spec, mtop, big, variant, slot, small[variant]))
                cases += 1
            reports.append(VerificationReport(
                check="window reduction",
                params={"n": n, "L": L, "N": N, "seed": seed},
                status="pass" if resid == 0 else "fail",
                anchor="tracing an edge site whose label sits at the "
                       "environment value reproduces the smaller window",
                witness={"cases": cases, "max_residual": resid}))

        resid = invariance(n, [(win.kinds, win.pair) for win in top.values()])
        reports.append(VerificationReport(
            check="window global invariance",
            params={"n": n, "L": L, "N": N, "m": mtop, "seed": seed},
            status="pass" if resid == 0 else "fail",
            anchor="E_01 commutes with the window, and every adjacent "
                   "colour transposition relabels it to itself, exactly",
            witness={"commutators": (n + 1) * len(top), "max_residual": resid}))

        if mtop >= 2:
            resid = Fraction(0)
            w = labels[:mtop]
            for i in range(1, mtop):
                ws = w[:i - 1] + [w[i], w[i - 1]] + w[i + 1:]
                x, pair = w[i] - w[i - 1], (mtop - i - 1, mtop - i)
                # braid = P R(x), P the vertex at 0: braid W = W' braid iff
                # W' = braid W braid^-1, as braid R(-x) P = 1 - x^2 is not
                # 0: seeded_rationals draws no labels a half-integer apart
                braid = [("f", "f", 0, pair), ("f", "f", x, pair)]
                strip = _strip(spec, mtop, ws, 0)
                if N == 1:  # braid W against W' braid in Z[S_m]
                    (e0, s0), (e1, s1) = (_vertex(n, mtop, v) for v in braid)
                    b, (y, z) = permalg.mul(e0, e1), top[0].element
                    after, z2 = _window_element(spec, 0, strip)[0]
                    resid = max(resid, _residual(
                        n + 1, 0, (permalg.mul(b, y), z * s0 * s1),
                        (permalg.mul(after, b), z2 * s0 * s1)))
                else:
                    resid = max(resid, sparse.diff(sparse.scaled_mul(
                        vertex_chain(n, mtop, braid), top[0].pair),
                        vertex_chain(n, mtop, braid,
                                     _window(spec, 0, strip, False).pair)))
            reports.append(VerificationReport(
                check="window exchange relation",
                params={"n": n, "L": L, "N": N, "m": mtop, "seed": seed},
                status="pass" if resid == 0 else "fail",
                anchor="swapping adjacent window labels conjugates the "
                       "window by the braided vertex",
                witness={"pairs": mtop - 1, "max_residual": resid}))

        # density_matrix at m = L reads nothing of the strip but its rows
        delta = seeded_rationals(seed + L + 200, 1, avoid=[0])[0]
        wfull = seeded_rationals(seed + L + 300, L, avoid=[0, beta])
        shifted_spec = LatticeSpec(n, L, N, [Fraction(0)] * L,
                                   [b + delta for b in spec.betas])
        here, there = (sum(_strip(s, L, w, 0)[2], ()) for s, w in (
            (spec, wfull), (shifted_spec, [x + delta for x in wfull])))
        moved = sum(u != v for u, v in zip(here, there))
        reports.append(VerificationReport(
            check="window translation covariance",
            params={"n": n, "L": L, "N": N, "seed": seed},
            status="pass" if moved == 0 else "fail",
            anchor="shifting all labels and the staggering together leaves "
                   "the full-strip window unchanged",
            witness={"delta": delta, "vertices": len(here), "moved": moved}))
    return reports


def rqkz_reports(n, max_L, N, seed):
    if N != 1:
        raise OutOfScope("the window difference equations run at N=1")
    reports = []
    for L in range(2, max_L + 1):
        for m in range(2, L + 1):
            sd = seed + 10 * L + m
            beta = seeded_rationals(sd, 1, avoid=[0])[0]
            mus = ([Fraction(0)]
                   + seeded_rationals(sd + 1, L - 1, avoid=[0, beta]))
            spec = LatticeSpec(n, L, 1, mus, [beta])
            rep = verify_finite_rqkz(spec, m)
            rep.params["seed"] = sd
            reports.append(rep)
    return reports
