"""Residue tower over the window-shift chain and its fused loop spaces.

The lowering map of the window chain has a simple pole when its line
parameter reaches the second window site.  Taking the residue there and
then alternately raising and lowering, 2k-1 levels in all with the line
parameter stepped down by (n+1)/2 at each level, leaves one operator on
the window.  The tower is built that way: the window-shift level step of
lattice.level_step, applied 2k-1 times to an operator on the m window
slots.  Each level consumes the line the previous one created and closes
it by the trace, and no level holds a map beyond the m window slots.  The
consumed lines (the loops) alternate antifundamental, fundamental, ...;
their positions sit in minimal snake position in the parity lattice,
which ties the construction to the alternating snake characters: the
ordered product of vertex matrices over the loop pairs has rank equal to
the snake dimension, each weight block the weight's snake multiplicity;
its vertices are certified invariant one by one (rmat.invariance), so
only its highest-weight rows are built.

Scalars are handled symbolically: the product of per-level prefactors
reduces through the rho ladder to an explicit rational function whose
residue at the pole folds into the tower's integer (map, s) pair.  The
fused loop product is one rmat.vertex_chain and the single-level residue
one lattice.element_level; RatFun is only a scalar."""

from collections import Counter
from fractions import Fraction
import itertools
import math

from . import permalg, sparse
from .exactlin import (RatFun, echelon, pole_order_at, primitive_echelon,
                       tensor_from_matrix)
from .lattice import (LatticeSpec, density_matrix, element_level, level_step,
                      lowering_residue, projected_reduction_check,
                      reduced_prefactor, seeded_rationals, simple_pole_residue)
from .qchar import module_dim, snake_qchar
from .report import VerificationReport
from .rmat import (h_shift, highest_weight_rows, invariance, kostka,
                   vertex_chain, weights)


def loop_kinds(n, l):
    """Alternating loop kinds, antifundamental first.

    Rank 1 is self-dual, so there every loop stays fundamental."""
    if n == 1:
        return ["f"] * l
    return ["fbar" if t % 2 == 1 else "f" for t in range(1, l + 1)]


def loop_points(n, l):
    """Loop t sits at node n (odd t) or node 1 (even t), column t(n+1)."""
    return [(n if t % 2 == 1 else 1, t * (n + 1)) for t in range(1, l + 1)]


class SnailSpec:
    """Data of the residue tower.

    Rank n, loop parameter k (the tower has 2k-1 level steps), window
    size m, and the passive window parameters mus = (mu_2, ..., mu_m);
    mu_2 anchors the residue.  Level t consumes loop t, which carries the
    additive shift mu_2 - t(n+1)/2, and creates the line level t+1
    consumes."""

    def __init__(self, n, k, m, mus):
        self.n = int(n)
        self.k = int(k)
        self.m = int(m)
        if self.n < 1:
            raise ValueError("rank must be at least 1")
        if self.k < 1:
            raise ValueError("loop parameter must be at least 1")
        if self.m < 2:
            raise ValueError("window needs at least two sites")
        self.mus = [Fraction(x) for x in mus]
        if len(self.mus) != self.m - 1:
            raise ValueError("need the parameters mu_2..mu_m")
        self.loops = 2 * self.k - 1

    def loop_shifts(self):
        h = h_shift(self.n)
        return [self.mus[0] - t * h for t in range(1, self.loops + 1)]

    def __repr__(self):
        return (f"SnailSpec(n={self.n}, k={self.k}, m={self.m}, "
                f"mus={self.mus})")


# ---------------------------------------------------------------------------
# scalar pole bookkeeping

def pole_profile(n, k, l):
    """Product of the four scalar families around one pole candidate, its
    4k linear factors held as root multiplicities and built into one
    RatFun.  The variable is centred on the candidate labelled by l in
    0..n, so the reported order is read off at 0: two denominator families
    each contribute a j=1 zero (at l=0 and l=1 respectively), the
    numerator family never vanishes there.  Returns (f, its order at 0)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not 0 <= l <= n:
        raise ValueError(f"candidate label {l} outside 0..{n}")
    roots = Counter()
    for j in range(1, k + 1):
        roots[j * (n + 1) + l - 1] += 1
        roots.subtract([j * (n + 1) + l, (j - 1) * (n + 1) + l,
                        (j - 1) * (n + 1) + l - 1])
    f = RatFun.from_roots(1, roots)
    return f, pole_order_at(f, Fraction(0))


POLE_ANCHOR = ("the fused weight keeps a simple pole at coincidence for "
               "the first two shifts and none for the rest")


def expected_pole_order(l):
    """A simple pole at the first two candidates l = 0, 1, none after."""
    return 1 if l in (0, 1) else 0


def _tower_scalar(spec):
    """Reduced prefactor of the full tower and its residue at mu_2.

    Per-level scalars multiply with the level shift -t(n+1)/2.  The rho
    factors cancel inside each level, through the first relation on a
    raising level and the ladder on a lowering one; none telescopes
    across levels.  The reduced function must have a simple pole at mu_2
    for the residue to exist."""
    h = h_shift(spec.n)
    red = reduced_prefactor(spec.n, spec.mus, [
        (2 if t % 2 == 1 else 1, -t * h) for t in range(1, spec.loops + 1)])
    return red, simple_pole_residue(red, spec.mus[0], repr(spec))


# ---------------------------------------------------------------------------
# the tower itself

def _snail_matrix(spec):
    """Closed tower as a (map, s) pair on the m window coordinates.

    Starting from the identity on the window, whose last slot is the
    first loop, level t = 1..2k-1 applies lattice.level_step (lowering
    for odd t, raising for even t) at nu = mu_2 - t(n+1)/2.  Each level
    closes the loop it consumes and leaves its fresh line on the last
    slot, where the next level consumes it; the fresh line of the last
    level becomes site 1; sparse.times folds in the tower residue."""
    n = spec.n
    _, res = _tower_scalar(spec)
    pair = vertex_chain(n, spec.m, [])
    for t, nu in enumerate(spec.loop_shifts(), 1):
        pair = level_step(2 if t % 2 == 1 else 1, n, nu, spec.mus, pair)
    return sparse.times(pair, res)


def snail_operator(spec):
    """Closed residue tower as a labeled operator on the window sites.

    Site 1 carries the fresh fundamental line created by the last level;
    sites 2..m are the passive window sites, site m on the first slot."""
    d = spec.n + 1
    labels = [f"s{spec.m - j}" for j in range(spec.m)]
    mat, scale = _snail_matrix(spec)
    return tensor_from_matrix(sparse.scale(mat, Fraction(1, scale)),
                              [s + "_out" for s in labels],
                              [s + "_in" for s in labels], [d] * spec.m)


def contraction_order_check(spec):
    """Close the one-level tower as a diagram on row maps in two
    association orders and compare both against the assembled operator.

    Slots (s2, o, al): CR and CL, the vertices at nu - mu_2 and
    mu_2 - nu, act on the window site and the loop (0, 2), K on the fresh
    line and the loop (1, 2), all three vertex_chain pairs: K is minus
    the mixed vertex at -(n+1)/2, and carries the tower residue.
    (CL K) CR and CL (K CR) are closed over the loop by the partial
    trace; the fresh line o is site 1 of the assembled operator.
    Restricted to k=1, m=2: the smallest closed tower already exercises
    every wiring rule (site leg, loop line, fresh output, trace closure)
    while staying readable as an explicit diagram."""
    if spec.loops != 1 or spec.m != 2:
        raise ValueError("contraction order check runs on the k=1, m=2 tower")
    n = spec.n
    mu2 = spec.mus[0]
    nu = mu2 - h_shift(n)
    _, res = _tower_scalar(spec)
    cr, cl = (vertex_chain(n, 3, [("f", "fbar", x, (0, 2))])
              for x in (nu - mu2, mu2 - nu))
    mk, t = vertex_chain(n, 3, [("f", "fbar", -h_shift(n), (1, 2))])
    kres = sparse.times((mk, t), -res)
    want = _snail_matrix(spec)
    resid = [sparse.diff((sparse.ptrace(x, 2, 3, n + 1), s), want)
             for x, s in (sparse.scaled_mul(sparse.scaled_mul(cl, kres), cr),
                          sparse.scaled_mul(cl, sparse.scaled_mul(kres, cr)))]
    status = "pass" if all(r == 0 for r in resid) else "fail"
    return VerificationReport(
        check="tower contraction order",
        params={"n": n, "k": spec.k, "m": spec.m, "mu2": mu2},
        status=status,
        anchor="closed-diagram value is independent of the contraction order",
        witness={"residual_forward": resid[0], "residual_reversed": resid[1]})


# ---------------------------------------------------------------------------
# fused loop operators

def _fusion_chain(n, l, start=None):
    """(s * fusion_matrix(n, l), s), the integer map and its scale, or
    start times it, start a pair (integer rows, keyed as they come; scale)."""
    if l < 1:
        raise ValueError("need at least one loop")
    h = h_shift(n)
    kinds = loop_kinds(n, l)
    return vertex_chain(n, l, [
        (kinds[i - 1], kinds[j - 1], (j - i) * h, (i - 1, j - 1))
        for i in range(1, l + 1) for j in range(i + 1, l + 1)], start)


def fusion_matrix(n, loop_count):
    """Sparse row map of fusion_operator: lexicographic product over
    loop pairs of the kind-dispatched vertex at the shift difference."""
    mat, s = _fusion_chain(n, int(loop_count))
    return sparse.scale(mat, Fraction(1, s))


def fusion_operator(n, loop_count):
    """Ordered product of vertex matrices over all loop pairs.

    Pair (i, j) with i < j contributes the vertex for the loop kinds at
    argument (j - i)(n+1)/2, the difference of the loop shifts; pairs
    multiply in lexicographic order.  Entries are polynomial, so no
    argument is singular."""
    l = int(loop_count)
    d = n + 1
    labels = [f"a{t}" for t in range(1, l + 1)]
    return tensor_from_matrix(fusion_matrix(n, l),
                              [s + "_out" for s in labels],
                              [s + "_in" for s in labels], [d] * l)


def _fused_pivots(n, kinds):
    """The fused chain's pivot count on each dominant weight block, keyed
    by the weight modulo (1, ..., 1), last part 0.  The chain is
    gl_{n+1}-equivariant, so it maps the highest-weight rows of weight lam
    (rmat.highest_weight_rows) onto its image's: one echelon counts m_lam,
    the image's irreducibles of highest weight lam, weights shifted by the
    fbar slots to partitions, and block mu holds sum m_lam K(lam, mu)."""
    f = kinds.count("fbar")
    wts = [tuple(v + f for v in w) for w in weights(n, kinds)]
    blocks = {}
    for c, w in enumerate(wts):
        if list(w) == sorted(w)[::-1]:
            blocks.setdefault(w, []).append(c)
    start = highest_weight_rows(n, kinds, blocks.values())
    found = Counter(wts[c] for c in primitive_echelon(
        _fusion_chain(n, len(kinds), (start, 1))[0].values()))
    return Counter({tuple(v - mu[n] for v in mu): sum(
        m * kostka(lam, mu) for lam, m in found.items()) for mu in blocks})


def fused_loop_reports(n, k):
    """The fused (2k-1)-loop product's rank against the snake dimension
    (equal, the image carries the alternating snake module), and each
    dominant weight block's pivot count against the weight's multiplicity
    in the snake character, prod Y[i,t]^e weighing sum e * omega_i.

    A coordinate's weight is rmat.weights, +e_j for an f digit j and
    -e_{n-j} for an fbar digit j, modulo (1, ..., 1).  Both reports fail
    unless every distinct loop-pair vertex commutes with E_01 and the
    colour transpositions on its two slots (rmat.invariance), so with
    gl_{n+1}; so then does the product: it is block-diagonal by weight,
    and the transpositions, the Weyl group S_{n+1}, permute the blocks,
    ranks kept.  So only the highest-weight rows are built, the dominant
    blocks' pivot counts follow (_fused_pivots), and the rank sums pivot
    count times Weyl orbit size.  A mismatch is reported, not raised."""
    l = 2 * k - 1
    kinds = loop_kinds(n, l)
    resid = invariance(n, [(v[:2], vertex_chain(n, 2, [(*v, (0, 1))]))
                           for v in {(kinds[i], kinds[j], (j - i) * h_shift(n))
                                     for j in range(l) for i in range(j)}])
    pivots = _fused_pivots(n, kinds)
    rank = sum(c * math.factorial(n + 1) // math.prod(
        map(math.factorial, Counter(w).values())) for w, c in pivots.items())
    char, mult = snake_qchar(n, "odd", l), Counter()
    for m, c in char.terms.items():
        w = [0] * (n + 1)  # node i's exponents at i - 1, then suffix sums
        for (i, _t), e in m.exps.items():
            w[i - 1] += e
        w = tuple(itertools.accumulate(w[::-1]))[::-1]
        if list(w) == sorted(w)[::-1]:
            mult[w] += c
    bad = [[list(w), pivots[w], mult[w]] for w in sorted(pivots | mult)
           if pivots[w] != mult[w]]
    params = {"n": n, "k": k, "loops": l}
    dim = module_dim(char)
    return [VerificationReport(
        check="fused loop rank against snake dimension", params=params,
        status="pass" if rank == dim and resid == 0 else "fail",
        anchor="the fused loop image carries the alternating snake module",
        witness={"rank": rank, "snake_dim": dim}), VerificationReport(
        check="fused loop weights against snake character", params=params,
        status="pass" if not bad and resid == 0 else "fail",
        anchor="each dominant weight block of the fused loop image has the "
               "weight's multiplicity in the alternating snake character",
        witness={"dominant_weights": len(mult), "mismatches": bad,
                 "max_commutator": resid})]


def snake_rank_check(n, k):
    """Rank of the fused (2k-1)-loop product against the snake dimension,
    the first report of fused_loop_reports."""
    return fused_loop_reports(n, k)[0]


def singlet_insertion_check(n, loop_count):
    """Exploratory: singlet insertions on adjacent loop pairs.

    Records the largest entry of K.F and F.K for each adjacent pair (its
    distance from the zero map); a zero means the singlet annihilates the
    fused product from that side; F is _fusion_chain's pair, K minus the
    mixed vertex at -(n+1)/2.  The sandwich identities are not asserted."""
    l = int(loop_count)
    f, s = _fusion_chain(n, l)
    witness = {}
    for t in range(1, l):
        k = vertex_chain(n, l, [("f", "fbar", -h_shift(n), (t - 1, t))])[0]
        witness[f"pair_{t}_{t + 1}"] = {
            "K.F": sparse.diff((sparse.mul(k, f), s), ({}, 1)),
            "F.K": sparse.diff((sparse.mul(f, k), s), ({}, 1))}
    return VerificationReport(
        check="singlet insertions on the fused product",
        params={"n": n, "loops": l},
        status="exploratory",
        anchor="adjacent-pair singlets conjectured to annihilate the fused image stepwise",
        witness=witness)


# ---------------------------------------------------------------------------
# the rank-2 fused window relation at one loop

def l1_fusion_check(n, spec, m):
    """Exploratory finite-strip test of the fused window relation.

    At rank 2 the antisymmetric square of the fundamental is the dual
    space, so P - 1 on the first two window sites can be compared against
    the size-(m-1) window whose first line is antifundamental at the
    midpoint label, transported by epsilon: R maps c on site 1 to (a, b)
    on sites 2 and 1 with the sign of the permutation (a, b, c), identity
    elsewhere, and the right side is -R^T small R.  Records, on integer
    pairs, the residual for both orientations (c or 2 - c), the entry
    ratio when it is constant, and the exact rank of the left side; the
    status is always informational."""
    if (n, spec.n) != (2, 2):
        raise ValueError(f"the fused window relation needs rank 2, got "
                         f"n = {n} and a strip of rank {spec.n}")
    if not 2 <= m <= spec.L:
        raise ValueError(f"window m={m} needs 2 <= m <= L={spec.L}")
    lam = spec.mus[1]
    rest = [spec.mus[j] for j in range(2, m)]
    win, s = density_matrix(spec, m, [lam - 1, lam] + rest, 0).pair
    small, t = density_matrix(spec, m - 1, [lam - h_shift(2) + 1] + rest,
                              1).pair
    # P - 1 and P + 1 on the pair, as integer maps of scale 1
    pm, pp = (vertex_chain(2, m, [("f", "f", x, (m - 1, m - 2))])[0]
              for x in (-1, 1))
    lhs = sparse.mul(pm, win)
    sym_resid = sparse.diff((sparse.mul(pp, lhs), 2 * s), ({}, 1))
    rank = len(echelon(lhs.values()))

    def transported(flip):
        r, rt = {}, {}  # R and -R^T
        for i in range(3 ** (m - 2)):
            for a, b, c in itertools.permutations(range(3)):
                row, col = i * 3 + (2 - c if flip else c), i * 9 + a * 3 + b
                r.setdefault(row, {})[col] = (b - a) * (c - a) * (c - b) // 2
                rt.setdefault(col, {})[row] = -r[row][col]
        return sparse.mul(sparse.mul(rt, small), r)

    rhs = transported(False)
    residual = sparse.diff((lhs, s), (rhs, t))
    residual_flipped = sparse.diff((lhs, s), (transported(True), t))

    # stored entries are nonzero, so equal supports mean no entry vanishes
    # on one side only
    ratios = {Fraction(v * t, rhs[r][c] * s) for r, row in lhs.items()
              for c, v in row.items() if c in rhs.get(r, ())}
    same_support = ({r: row.keys() for r, row in lhs.items()}
                    == {r: row.keys() for r, row in rhs.items()})
    constant = ratios.pop() if (len(ratios) == 1 and same_support) else None

    return VerificationReport(
        check="fused window relation at one loop",
        params={"n": n, "L": spec.L, "N": spec.N, "m": m, "lam": lam},
        status="exploratory",
        anchor="antisymmetrized window pair conjectured to transport to the "
               "antifundamental-first window at the midpoint label",
        witness={"residual": residual,
                 "residual_flipped": residual_flipped,
                 "constant_ratio": constant,
                 "lhs_rank": rank,
                 "rank_bound": 3 ** (m - 1),
                 "symmetric_part": sym_resid})


# ---------------------------------------------------------------------------
# verification reports: pole profiles and the tower suite

def pole_reports(k_values, n_values=(2, 3, 4)):
    reports = []
    for n in n_values:
        orders = {}
        bad = []
        for k in k_values:
            for l in range(0, n + 1):
                orders[f"k={k},l={l}"] = order = pole_profile(n, k, l)[1]
                if order != expected_pole_order(l):
                    bad.append((k, l))
        reports.append(VerificationReport(
            check="pole profile sweep",
            params={"n": n, "k_values": list(k_values)},
            status="pass" if not bad else "fail",
            anchor=POLE_ANCHOR,
            witness={"orders": orders, "violations": bad}))
    return reports


DEFAULT_RANK_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


def snail_wellformed_reports(n, seed):
    """The contraction-order check, then the towers k = 1, 2 at m = 2
    against the single-level residue and gl_{n+1} invariance, all at
    rank n."""
    mu = seeded_rationals(seed + 7, 1, avoid=[0])[0]
    reports = [contraction_order_check(SnailSpec(n, 1, 2, [mu]))]

    towers = {k: _snail_matrix(SnailSpec(n, k, 2, [mu])) for k in (1, 2)}
    # the lowering level's entries are polynomials in its line parameter,
    # so the residue of scalar x level is the scalar's residue times the
    # level at the pole: here in the algebra, on the identity of Z[S_2]
    pole, res = lowering_residue(n, [mu])
    x, s = element_level(2, n, pole, [mu], {(0, 1): 1})
    resid = sparse.diff(towers[1],
                        sparse.times((permalg.image(x, n + 1), s), res))
    reports.append(VerificationReport(
        check="tower against single-level assembly",
        params={"n": n, "k": 1, "m": 2, "mu2": mu, "seed": seed},
        status="pass" if resid == 0 else "fail",
        anchor="the one-level tower equals the directly assembled residue "
               "of the lowering chain",
        witness={"max_residual": resid}))

    resid = invariance(n, [(("f", "f"), pair) for pair in towers.values()])
    reports.append(VerificationReport(
        check="fused window invariance",
        params={"n": n, "k_values": [1, 2], "m": 2, "mu2": mu, "seed": seed},
        status="pass" if resid == 0 else "fail",
        anchor="E_01 commutes with the closed tower, and every adjacent "
               "colour transposition relabels it to itself",
        witness={"max_residual": resid}))
    return reports


def exploratory_reports(seed):
    beta = seeded_rationals(seed + 31, 1, avoid=[0])[0]
    extra = seeded_rationals(seed + 32, 2, avoid=[0, beta])
    reports = []
    spec2 = LatticeSpec(2, 2, 1, [Fraction(0), extra[0]], [beta])
    reports.append(l1_fusion_check(2, spec2, 2))
    spec3 = LatticeSpec(2, 3, 1, [Fraction(0)] + extra, [beta])
    reports.append(l1_fusion_check(2, spec3, 3))
    reports.append(projected_reduction_check(spec3, 3))
    reports.append(singlet_insertion_check(2, 3))
    for rep in reports:
        rep.params["seed"] = seed
    return reports


def snail_reports(n, max_k, seed):
    """The tower suite: fused loop ranks and weights for k = 1..max_k at
    rank n, or at every rank of DEFAULT_RANK_PAIRS when n is None, then the
    well-formedness reports at rank n (2 when n is None) and the
    exploratory ones."""
    ranks = sorted({r for r, _k in DEFAULT_RANK_PAIRS} if n is None
                   else {n})
    return ([rep for r in ranks for k in range(1, max_k + 1)
             for rep in fused_loop_reports(r, k)]
            + snail_wellformed_reports(2 if n is None else n, seed)
            + exploratory_reports(seed))
