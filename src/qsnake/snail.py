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
the snake dimension.

Scalars are handled symbolically: the product of per-level prefactors
reduces through the rho ladder to an explicit rational function whose
residue multiplies the polynomial tensor part evaluated at the pole.
The fused loop product is one rmat.vertex_chain.
"""

from fractions import Fraction

from . import sparse
from .exactlin import (RatFun, echelon, pole_order_at, residue_at,
                       tensor_from_matrix)
from .lattice import (LatticeSpec, density_matrix, level_step,
                      projected_reduction_check, reduced_prefactor,
                      seeded_rationals, simple_pole_residue)
from .qchar import module_dim, snake_qchar
from .report import VerificationReport
from .rmat import (antisym_fusion, chevalley_generators, h_shift,
                   identity_matrix, k_matrix, vertex_chain, vertex_matrix)


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
    """Product of the four scalar families around one pole candidate.

    The variable is centred on the candidate labelled by l in 0..n, so
    the reported order is read off at 0: two denominator families each
    contribute a j=1 zero (at l=0 and l=1 respectively), the numerator
    family never vanishes there.  Returns (f, pole order of f at 0)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not 0 <= l <= n:
        raise ValueError(f"candidate label {l} outside 0..{n}")
    x = RatFun.x()
    f = RatFun.const(1)
    for j in range(1, k + 1):
        f = f * (x - j * (n + 1) - l + 1)
        f = f / (x - j * (n + 1) - l)
        f = f / (x - (j - 1) * (n + 1) - l)
        f = f / (x - (j - 1) * (n + 1) - l + 1)
    return f, pole_order_at(f, Fraction(0))


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
    """Closed tower as a sparse row map on the m window coordinates.

    Starting from the identity on the window, whose last slot is the
    first loop, level t = 1..2k-1 applies lattice.level_step (lowering
    for odd t, raising for even t) at nu = mu_2 - t(n+1)/2.  Each level
    closes the loop it consumes and leaves its fresh line on the last
    slot, where the next level consumes it; the fresh line of the last
    level becomes site 1.  The result is scaled once by the tower
    residue over the levels' integer scales."""
    n = spec.n
    _, res = _tower_scalar(spec)
    pair = sparse.integral(identity_matrix((n + 1) ** spec.m))
    for t, nu in enumerate(spec.loop_shifts(), 1):
        pair = level_step(2 if t % 2 == 1 else 1, n, nu, spec.mus, pair)
    return sparse.scale(pair[0], res / pair[1])


def snail_operator(spec):
    """Closed residue tower as a labeled operator on the window sites.

    Site 1 carries the fresh fundamental line created by the last level;
    sites 2..m are the passive window sites, site m on the first slot."""
    d = spec.n + 1
    labels = [f"s{spec.m - j}" for j in range(spec.m)]
    return tensor_from_matrix(_snail_matrix(spec),
                              [s + "_out" for s in labels],
                              [s + "_in" for s in labels], [d] * spec.m)


def contraction_order_check(spec):
    """Close the one-level tower as a diagram on row maps in two
    association orders and compare both against the assembled operator.

    Slots (s2, o, al): CR and CL, the vertices at nu - mu_2 and
    mu_2 - nu, act on the window site and the loop (0, 2), K on the fresh
    line and the loop (1, 2).  (CL K) CR and CL (K CR) are closed over
    the loop by the partial trace and scaled by the tower residue; the
    fresh line o is site 1 of the assembled operator.
    Restricted to k=1, m=2: the smallest closed tower already exercises
    every wiring rule (site leg, loop line, fresh output, trace closure)
    while staying readable as an explicit diagram."""
    if spec.loops != 1 or spec.m != 2:
        raise ValueError("contraction order check runs on the k=1, m=2 tower")
    n = spec.n
    d = n + 1
    mu2 = spec.mus[0]
    nu = mu2 - h_shift(n)
    _, res = _tower_scalar(spec)
    cr, cl = (sparse.embed(vertex_matrix(n, "f", "fbar", x), (0, 2), 3, d)
              for x in (nu - mu2, mu2 - nu))
    ks = sparse.embed(k_matrix(n), (1, 2), 3, d)
    want = _snail_matrix(spec)
    resid = [sparse.diff((sparse.scale(sparse.ptrace(x, 2, 3, d), res), 1),
                         (want, 1))
             for x in (sparse.mul(sparse.mul(cl, ks), cr),
                       sparse.mul(cl, sparse.mul(ks, cr)))]
    status = "pass" if all(r == 0 for r in resid) else "fail"
    return VerificationReport(
        check="tower contraction order",
        params={"n": n, "k": spec.k, "m": spec.m, "mu2": mu2},
        status=status,
        anchor="closed-diagram value is independent of the contraction order",
        witness={"residual_forward": resid[0], "residual_reversed": resid[1]})


# ---------------------------------------------------------------------------
# fused loop operators

def _fusion_chain(n, l):
    """(s * fusion_matrix(n, l), s), the integer map and its scale."""
    if l < 1:
        raise ValueError("need at least one loop")
    h = h_shift(n)
    kinds = loop_kinds(n, l)
    return vertex_chain(n, l, [
        (kinds[i - 1], kinds[j - 1], (j - i) * h, (i - 1, j - 1))
        for i in range(1, l + 1) for j in range(i + 1, l + 1)])


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


def snake_rank_check(n, k):
    """Rank of the fused (2k-1)-loop product against the snake dimension.

    Equality is the fusion signature: the image of the fused product
    carries the alternating snake module with 2k-1 points.  A mismatch
    is reported, not raised.  The rank is read off the integer map, a
    nonzero multiple of fusion_matrix."""
    l = 2 * k - 1
    rank = len(echelon(_fusion_chain(n, l)[0].values()))
    dim = module_dim(snake_qchar(n, "odd", l))
    status = "pass" if rank == dim else "fail"
    return VerificationReport(
        check="fused loop rank against snake dimension",
        params={"n": n, "k": k, "loops": l},
        status=status,
        anchor="the fused loop image carries the alternating snake module",
        witness={"rank": rank, "snake_dim": dim})


def singlet_insertion_check(n, loop_count):
    """Exploratory: singlet insertions on adjacent loop pairs.

    Records the largest entry of K.F and F.K for each adjacent pair (its
    distance from the zero map); a zero means the singlet annihilates the
    fused product from that side.  The stepwise sandwich identities are
    not asserted anywhere."""
    l = int(loop_count)
    d = n + 1
    f = fusion_matrix(n, l)
    km = k_matrix(n)
    witness = {}
    for t in range(1, l):
        emb = sparse.embed(km, (t - 1, t), l, d)
        witness[f"pair_{t}_{t + 1}"] = {
            "K.F": sparse.diff((sparse.mul(emb, f), 1), ({}, 1)),
            "F.K": sparse.diff((sparse.mul(f, emb), 1), ({}, 1))}
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
    space, so the antisymmetrizing vertex at -1 on the first two window
    sites can be compared against the size-(m-1) window whose first line
    is antifundamental at the midpoint label, transported through the
    antisymmetric fusion maps and the epsilon identification of wedge
    coordinates with dual coordinates.  Records the residual for both
    orientations of the identification, the entry ratio when it is
    constant, and the exact rank of the left side; the status is always
    informational."""
    if n != 2:
        raise ValueError("the fused window relation needs rank 2")
    if not 2 <= m <= spec.L:
        raise ValueError(f"window m={m} needs 2 <= m <= L={spec.L}")
    d = 3
    h = h_shift(2)
    lam = spec.mus[1]
    rest = [spec.mus[j] for j in range(2, m)]
    win = density_matrix(spec, m, [lam - 1, lam] + rest, 0)
    pair = (m - 1, m - 2)
    lhs = sparse.mul(sparse.embed(vertex_matrix(2, "f", "f", Fraction(-1)),
                                  pair, m, d), win.matrix)
    sym = sparse.scale(vertex_matrix(2, "f", "f", 1), Fraction(1, 2))
    sym_resid = sparse.diff(
        (sparse.mul(sparse.embed(sym, pair, m, d), lhs), 1), ({}, 1))
    rank = len(echelon(lhs.values()))

    small = density_matrix(spec, m - 1, [lam - h + 1] + rest, 1)

    def on_pair(x, p, q):
        # a p x q map x on the first pair, the identity on sites m..3:
        # block diagonal, one block per digit string of the other sites
        return {i * p + r: {i * q + c: v for c, v in row.items()}
                for i in range(d ** (m - 2)) for r, row in x.items()}

    de, fu = antisym_fusion(2)
    # wedge pair (a, b) maps to the missing index with the alternating sign:
    # rows are dual indices, columns the wedge pairs (0,1), (0,2), (1,2)
    w = {2: {0: Fraction(1)}, 1: {1: Fraction(-1)}, 0: {2: Fraction(1)}}

    def transported(wmat):
        wmat_inv = {c: {r: 1 / v} for r, row in wmat.items()
                    for c, v in row.items()}
        e_full = on_pair(sparse.mul(fu, wmat_inv), 9, 3)
        r_full = on_pair(sparse.mul(wmat, de), 3, 9)
        return sparse.mul(sparse.mul(e_full, small.matrix), r_full)

    rhs = transported(w)
    residual = sparse.diff((lhs, 1), (rhs, 1))
    # the same identification with the wedge index reversed
    residual_flipped = sparse.diff(
        (lhs, 1), (transported({2 - a: row for a, row in w.items()}), 1))

    # stored entries are nonzero, so equal supports mean no entry vanishes
    # on one side only
    ratios = {lhs[r][c] / rhs[r][c] for r in lhs.keys() & rhs.keys()
              for c in lhs[r].keys() & rhs[r].keys()}
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
                 "rank_bound": d ** (m - 1),
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
                _f, order = pole_profile(n, k, l)
                orders[f"k={k},l={l}"] = order
                if order != (1 if l in (0, 1) else 0):
                    bad.append((k, l))
        reports.append(VerificationReport(
            check="pole profile sweep",
            params={"n": n, "k_values": list(k_values)},
            status="pass" if not bad else "fail",
            anchor="the fused weight keeps a simple pole at coincidence "
                   "for the first two shifts and none for the rest",
            witness={"orders": orders, "violations": bad}))
    return reports


DEFAULT_RANK_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


def snail_rank_reports(pairs=DEFAULT_RANK_PAIRS):
    return [snake_rank_check(n, k) for n, k in pairs]


def snail_wellformed_reports(n, seed):
    """The contraction-order check, then the towers k = 1, 2 at m = 2
    against the single-level residue and the diagonal symmetry, all at
    rank n."""
    mu = seeded_rationals(seed + 7, 1, avoid=[0])[0]
    reports = [contraction_order_check(SnailSpec(n, 1, 2, [mu]))]

    towers = {k: _snail_matrix(SnailSpec(n, k, 2, [mu])) for k in (1, 2)}
    # the lowering level with its line parameter left formal, scaled by
    # its scalar and reduced entrywise to the residue at the pole
    red = reduced_prefactor(n, [mu], [(2, 0)])
    formal, s = level_step(2, n, RatFun.x(), [mu],
                           sparse.integral(identity_matrix((n + 1) ** 2)))
    single = {r: {c: residue_at(red * v, mu - h_shift(n)) / s
                  for c, v in row.items()} for r, row in formal.items()}
    resid = sparse.diff((towers[1], 1), (single, 1))
    reports.append(VerificationReport(
        check="tower against single-level assembly",
        params={"n": n, "k": 1, "m": 2, "mu2": mu, "seed": seed},
        status="pass" if resid == 0 else "fail",
        anchor="the one-level tower equals the directly assembled residue "
               "of the lowering chain",
        witness={"max_residual": resid}))

    resid = Fraction(0)
    for x in towers.values():
        for g in (g for gens in chevalley_generators(n) for g in gens):
            tot = sparse.site_sum([g, g], n + 1)
            resid = max(resid, sparse.diff((sparse.mul(tot, x), 1),
                                           (sparse.mul(x, tot), 1)))
    reports.append(VerificationReport(
        check="fused window invariance",
        params={"n": n, "k_values": [1, 2], "m": 2, "mu2": mu, "seed": seed},
        status="pass" if resid == 0 else "fail",
        anchor="the closed tower commutes with every diagonal symmetry "
               "generator",
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
    """The tower suite: fused loop ranks for k = 1..max_k at rank n, or
    at every rank of DEFAULT_RANK_PAIRS when n is None, then the
    well-formedness reports at rank n (2 when n is None) and the
    exploratory ones."""
    ranks = sorted({r for r, _k in DEFAULT_RANK_PAIRS} if n is None
                   else {n})
    pairs = tuple((r, k) for r in ranks for k in range(1, max_k + 1))
    return (snail_rank_reports(pairs)
            + snail_wellformed_reports(2 if n is None else n, seed)
            + exploratory_reports(seed))
