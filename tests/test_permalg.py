"""The group ring Z[S_M] against the row-map kernels it stands for.

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


def test_times_vertex_is_the_integer_vertex_chain():
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
            assert permalg.image(permalg.times_vertex(x, alpha, beta, i, j),
                                 n + 1) == sparse.mul(
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
