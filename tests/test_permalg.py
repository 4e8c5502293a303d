"""The group ring Z[S_M] and the walled Brauer algebra in crossed form
against the row-map kernels they stand for.

Every identity is checked on the image, the row map on (n+1)^M
coordinates, at M <= 4 strands and n <= 3, so M >= n + 2 occurs (n = 1
at M = 3, 4 and n = 2 at M = 4), where the image forgets part of the
element and only the images can be compared."""

import itertools
import random
from fractions import Fraction

from qsnake import permalg, sparse
from qsnake.rmat import identity_matrix, permutation_matrix, vertex_chain


def random_element(rng, size, terms=6):
    """A nonzero element with small coefficients on random permutations."""
    perms = list(itertools.permutations(range(size)))
    while True:
        x = permalg.combine(*((rng.randint(-3, 3), {rng.choice(perms): 1})
                              for _ in range(terms)))
        if x:
            return x


def cases():
    """(n, size, x, y): two random elements per rank and strand count."""
    rng = random.Random(7)
    for n, size in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        for _ in range(4):
            yield n, size, random_element(rng, size), random_element(rng, size)


def test_the_cases_reach_more_strands_than_the_image_separates():
    assert {(n, size) for n, size, _x, _y in cases()
            if size >= n + 2} == {(1, 3), (1, 4), (2, 4)}


def test_image_is_a_homomorphism():
    for n, size, x, y in cases():
        d = n + 1
        assert permalg.image(permalg.mul(x, y), d) == sparse.mul(
            permalg.image(x, d), permalg.image(y, d)), (n, size, x, y)


def test_trace_last_is_the_partial_trace_of_the_image():
    for n, size, x, _y in cases():
        if size >= 2:
            d = n + 1
            assert permalg.image(permalg.trace_last(x, d), d) == sparse.ptrace(
                permalg.image(x, d), size - 1, size, d), (n, size, x)


def test_trace_is_the_trace_of_the_image():
    for n, size, x, _y in cases():
        d = n + 1
        assert permalg.trace(x, d) == sparse.trace(permalg.image(x, d))
    # the trace of P_sigma is delta^(cycles of sigma)
    assert permalg.trace({(1, 2, 0, 3): 5}, 3) == 5 * 3 ** 2
    assert permalg.trace({(0, 1, 2): 1, (1, 0, 2): -1}, 2) == 8 - 4


def test_vertex_is_the_integer_vertex_chain():
    # alpha + beta*(i j) is vertex_chain's same-kind vertex at alpha/beta,
    # alpha and beta coprime, times its scale beta
    rng = random.Random(11)
    for n, size, x, _y in cases():
        if size < 2:
            continue
        i, j = rng.sample(range(size), 2)
        for alpha, beta in ((0, 1), (-3, 2), (5, 7)):
            chain, scale = vertex_chain(
                n, size, [("f", "f", Fraction(alpha, beta), (i, j))])
            assert scale == beta
            v = permalg.vertex(size, alpha, beta, i, j)
            assert permalg.image(permalg.mul(x, v), n + 1) == sparse.mul(
                permalg.image(x, n + 1), chain), (n, size, x, alpha, beta)


def test_permutations_move_digits_from_slot_j_to_slot_sigma_j():
    for n in (1, 2, 3):
        d = n + 1
        assert permalg.image({(0, 1, 2): 1}, d) == identity_matrix(d ** 3)
        assert permalg.image({(1, 0): 1}, d) == permutation_matrix(n)
    # (1, 2, 0) sends the digits (a, b, c) on slots 0, 1, 2 to (c, a, b)
    row = permalg.image({(1, 2, 0): 1}, 3)
    assert row[2 * 9 + 0 * 3 + 1] == {0 * 9 + 1 * 3 + 2: 1}


def test_image_sums_its_permutations_and_stores_no_zero():
    # the sum of the single permutations' images, entry by entry; where
    # two permutations give one row, as (0 1) and the identity do on
    # columns whose first two digits agree, their coefficients cancel
    for n, size, x, _y in cases():
        d = n + 1
        want = {}
        for sigma, t in x.items():
            for r, row in permalg.image({sigma: 1}, d).items():
                for c, v in row.items():
                    want[r, c] = want.get((r, c), 0) + t * v
        got = permalg.image(x, d)
        assert {(r, c): v for r, row in got.items()
                for c, v in row.items()} == {
            rc: v for rc, v in want.items() if v}, (n, size, x)
        assert all(row for row in got.values())
    img = permalg.image({(0, 1, 2): 1, (1, 0, 2): -1}, 3)
    assert 0 not in img  # the column (0, 0, 0) cancels


def crossed(a, slot, nslots, d):
    """sparse.cross on any slot: the partial transpose there, conjugated
    by the index reversal."""
    w = d ** (nslots - 1 - slot)
    out = {}
    for r, row in a.items():
        t = r // w % d
        for c, v in row.items():
            u = c // w % d
            out.setdefault(r + (d - 1 - u - t) * w, {})[
                c + (d - 1 - t - u) * w] = v
    return out


def test_crossing_any_slot_is_sparse_cross_on_the_last():
    for n, size, x, _y in cases():
        d = n + 1
        img = permalg.image(x, d)
        assert crossed(img, size - 1, size, d) == sparse.cross(img, d)
        for slot in range(size):
            assert crossed(crossed(img, slot, size, d), slot, size, d) == img


def test_walled_product_is_the_operator_product():
    # an element of B(delta) stored crossed on strand a stands for the
    # crossing of its permutations' image on slot a, and mul with a is
    # the product of those operators, on every strand a
    compared = 0
    for n, size, x, y in cases():
        d = n + 1
        for a in range(size):
            def image(z):
                return crossed(permalg.image(z, d), a, size, d)
            assert image(permalg.mul(x, y, a, d)) == sparse.mul(
                image(x), image(y)), (n, size, a, x, y)
            compared += 1
    assert compared == 4 * 3 * (1 + 2 + 3 + 4)
    # (0 1) crossed on strand 1 is K, and K^2 = delta K closes one loop
    assert permalg.mul({(1, 0): 1}, {(1, 0): 1}, 1, 3) == {(1, 0): 3}


def diagram_image(sigma, d):
    """The operator of the walled diagram whose crossing on the last
    strand a is sigma, read off the diagram: sigma joins column point s
    to row point sigma(s), and undoing the crossing swaps a's row and
    column points.  A strand joining a row and a column point equates
    their digits; a cup or cap, two points of one side, asks its two
    digits to sum to n."""
    size = len(sigma)
    a = size - 1

    def point(side, s):  # undo the crossing of strand a
        return ("row" if side == "col" else "col", s) if s == a else (side, s)

    arcs = [(point("col", s), point("row", sigma[s])) for s in range(size)]
    out = {}
    for r, c in itertools.product(itertools.product(range(d), repeat=size),
                                  repeat=2):
        digits = {"row": r, "col": c}
        if all(digits[p][i] == digits[q][j] if p != q
               else digits[p][i] + digits[q][j] == d - 1
               for (p, i), (q, j) in arcs):
            out.setdefault(int("".join(map(str, r)), d), {})[
                int("".join(map(str, c)), d)] = 1
    return out


def test_crossing_commutes_with_the_image():
    # the image of the B_{M-1,1} element whose crossed form is x, read off
    # its diagrams, is sparse.cross of the image of x
    for n, size, x, _y in cases():
        d = n + 1
        want = sparse.combine(*((t, diagram_image(sigma, d))
                                for sigma, t in x.items()))
        assert sparse.cross(permalg.image(x, d), d) == want, (n, size, x)
