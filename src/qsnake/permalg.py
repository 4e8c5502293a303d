"""The group ring Z[S_M] of the permutations of M strands, the walled
Brauer algebra B(delta) with one antifundamental strand in crossed form,
and their image as a row map on (n+1)^M coordinates.

An element is a dict {permutation: int} storing no zero, a permutation a
tuple sigma of 0..M-1 that moves the digit on slot j to slot sigma[j].
Its operator P_sigma has entry (r, c) = 1 where r's digit on slot
sigma[j] is c's digit on slot j, so sigma -> P_sigma is a homomorphism
for the composition (sigma tau)[j] = sigma[tau[j]]: products of elements
become sparse.mul products of their images.  Slot 0 holds a coordinate's
most significant digit, as in sparse.  The trace of P_sigma is
delta^(cycles of sigma), delta = n + 1.

An element of B(delta) whose fbar strand is a is stored as its crossing
on a: swapping a's row and column points turns each walled diagram into
a permutation, one to one, so the same keys serve.  Its operator is the
image crossed on slot a (sparse.cross when a is the last slot): a through
strand equates its two digits, and a cup or cap between a and another
strand asks its two digits to sum to n.  The crossing keeps the trace,
and a trace over a strand other than a commutes with it.  mul given a is
the diagram composition, delta per closed loop.  All functions are pure.
"""

import itertools
import operator


def _gather(indices):
    """seq -> tuple(seq[i] for i in indices), indices a permutation."""
    return operator.itemgetter(*indices) if len(indices) > 1 else tuple


def _collect(pairs):
    """The element summing the (permutation, coefficient) pairs."""
    out = {}
    for sigma, t in pairs:
        out[sigma] = out.get(sigma, 0) + t
    return {sigma: t for sigma, t in out.items() if t}


def combine(*terms):
    """The sum of a * x over the terms (a, x)."""
    return _collect((sigma, a * t) for a, x in terms for sigma, t in x.items())


def vertex(size, alpha, beta, i, j):
    """alpha + beta * (i j) on size strands, (i j) the transposition of
    strands i and j."""
    swap = list(range(size))
    swap[i], swap[j] = j, i
    return combine((alpha, {tuple(range(size)): 1}), (beta, {tuple(swap): 1}))


def mul(x, y, a=None, delta=None):
    """The product x * y: in Z[S_M], or, given the fbar strand a, in
    B(delta) on crossed forms.  Where sigma and tau both move a, their
    composition differs from g = sigma tau at three points: column
    tau^-1(a) goes to row a, column a to row sigma(a), and the column g
    sends to a goes on to g(a); if g(a) = a, a closes a loop instead,
    weighted delta."""
    if a is None:
        return _collect((pick(sigma), t * u) for tau, u in y.items()
                        for pick in (_gather(tau),) for sigma, t in x.items())
    return _collect(itertools.chain.from_iterable(
        _walled(x, tau, u, a, delta) for tau, u in y.items()))


def _walled(x, tau, u, a, delta):
    """The terms of x * (u tau) in B(delta), strand a crossed."""
    pick = _gather(tau)
    if tau[a] == a:
        yield from ((pick(sigma), t * u) for sigma, t in x.items())
        return
    back = tau.index(a)
    for sigma, t in x.items():
        g = pick(sigma)
        w = sigma[a]
        if w == a:
            yield g, t * u
            continue
        v, pi = g[a], list(g)
        pi[a], pi[back] = w, a
        if v != a:
            pi[g.index(a)] = v
        yield tuple(pi), (t * u if v != a else delta * t * u)


def trace_last(x, delta):
    """E, the trace over the last strand a: sigma fixing a drops it and
    gains delta, the loop a closes; otherwise a is cut out of its cycle,
    its preimage sent straight to its image."""
    out = []
    for sigma, t in x.items():
        a = len(sigma) - 1
        if sigma[a] == a:
            out.append((sigma[:a], delta * t))
        else:
            p = sigma.index(a)
            out.append((sigma[:p] + (sigma[a],) + sigma[p + 1:a], t))
    return _collect(out)


def trace_first(x, delta):
    """E over strand 0: trace_last, strand 0 relabelled last, j as j - 1."""
    return trace_last({tuple((v - 1) % len(s) for v in s[1:] + s[:1]): t
                       for s, t in x.items()}, delta)


def trace(x, delta):
    """The trace of x's image, sum of t_sigma * delta^(cycles of sigma):
    E applied to each strand in turn."""
    for _ in range(len(next(iter(x), ()))):
        x = trace_last(x, delta)
    return x.get((), 0)


def image(x, d):
    """The row map of x on d^M coordinates.

    Columns go one pattern of equal digits at a time, a pattern written
    as its first-occurrence labels: a column f(pattern), f an injective
    labelling of the blocks by digits, goes under P_sigma to the row
    f(pattern o sigma^-1).  So each pattern sums its permutations by the
    row pattern they give, once, and each of its columns then writes one
    entry per nonzero sum: no (row, column) is written twice."""
    if not x:
        return {}
    size = len(next(iter(x)))
    place = [d ** (size - 1 - k) for k in range(size)]
    inverses = [(_gather(sorted(range(size), key=sigma.__getitem__)), t)
                for sigma, t in x.items()]

    def weights(key, blocks):  # the place values of each block's slots
        return [sum(w for w, b in zip(place, key) if b == j)
                for j in range(blocks)]

    patterns, out = [()], {}
    for _ in range(size):
        patterns = [p + (b,) for p in patterns
                    for b in range(min(d, max(p, default=-1) + 2))]
    for pattern in patterns:
        blocks = max(pattern) + 1
        sums = {}
        for pick, t in inverses:
            key = pick(pattern)
            sums[key] = sums.get(key, 0) + t
        rows = [(weights(key, blocks), v) for key, v in sums.items() if v]
        column = weights(pattern, blocks)
        for digits in itertools.permutations(range(d), blocks):
            c = sum(map(operator.mul, digits, column))
            for w, v in rows:
                out.setdefault(sum(map(operator.mul, digits, w)), {})[c] = v
    return out
