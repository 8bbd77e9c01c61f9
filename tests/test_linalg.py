"""Exact linear algebra: ranks, kernels, row reduction, Smith form."""

import math
import random
import time
from fractions import Fraction

import pytest

from bqtop.homotopy import Presentation, abelianization
from bqtop.linalg import (PRIME_LIMIT, PrimeField, identity_matrix, is_prime,
                          mat_mul, nullspace, rank, smith_divisors,
                          smith_normal_form, sparse_rref)


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_pivots():
    reduced = sparse_rref(frac_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert reduced == [(0, {0: 1, 1: 2}), (2, {2: 1})]


def test_rank_examples():
    assert rank(frac_rows([[1, 0], [0, 1]])) == 2
    assert rank(frac_rows([[1, 2], [2, 4]])) == 1
    assert rank([]) == 0
    assert rank(frac_rows([[0, 0], [0, 0]])) == 0


def test_rank_mod_p_differs_from_rational():
    f2 = PrimeField(2)
    rows = [[2]]
    assert rank(frac_rows(rows)) == 1
    assert rank([[f2.of(2)]], f2) == 0


def test_nullspace_is_a_kernel_basis():
    rows = frac_rows([[1, 2, 3], [4, 5, 6]])
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) == 0


def test_smith_certificate_small():
    mat = [[2, 4], [6, 8]]
    divisors, u, v, d = smith_normal_form(mat)
    assert list(divisors) == [2, 4]
    assert mat_mul(mat_mul(u, mat), v) == d


def test_smith_certificate_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        divisors, u, v, d = smith_normal_form(mat)
        assert mat_mul(mat_mul(u, mat), v) == d
        # unimodular transforms: determinant checked through Q-rank
        assert rank(frac_rows(u)) == n
        assert rank(frac_rows(v)) == m
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        columns = [dict(enumerate(col)) for col in zip(*mat)]
        assert len(smith_divisors(columns)) == rank(frac_rows(mat))


def det(mat):
    m = frac_rows(mat)
    out = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(out)


def test_smith_entries_stay_small():
    # on this 7 x 8 matrix, swapping each remainder in as the next pivot
    # grew the entries to thousands of digits and did not finish in 100 s
    mat = [[-4, 2, -4, 1, 0, 3, 6, 0], [1, 2, 0, 3, 0, -1, 3, -4],
           [2, -2, -4, 3, 3, -4, 0, -1], [2, -4, -1, 0, 2, 6, 0, -4],
           [-1, 6, 6, -2, 3, 6, 0, 6], [3, 2, 2, 0, 0, 6, 3, 0],
           [0, 0, 1, 6, -4, -1, -4, 0]]
    divisors, u, v, d = smith_normal_form(mat)
    assert mat_mul(mat_mul(u, mat), v) == d
    # the product of the invariant factors is the gcd of the maximal minors
    minors = [det([row[:j] + row[j + 1:] for row in mat]) for j in range(8)]
    assert len(divisors) == 7
    assert math.prod(divisors) == math.gcd(*minors)


def test_cokernel_structure():
    # <a, b | a^2> abelianizes to Z^2 / span{(2,0)} = Z + Z/2
    a, b = ("a", 1), ("b", 1)
    assert abelianization(Presentation(("a", "b"), ((a, a),))) == (1, [2])
    assert abelianization(Presentation(("a", "b", "c"), ())) == (3, [])
    assert abelianization(Presentation(("a", "b"), ((a,), (b,)))) == (0, [])


def test_identity_matrix():
    assert mat_mul(identity_matrix(2), [[7, 8], [9, 10]]) == [[7, 8], [9, 10]]


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.of(7) == 2
    assert f5.mul(f5.of(3), f5.of(4)) == 2
    assert f5.mul(f5.inv(f5.of(3)), f5.of(3)) == f5.one
    vecs = [[f5.of(1), f5.of(2)], [f5.of(2), f5.of(4)]]
    assert rank(vecs, f5) == 1


def test_primality_matches_trial_division_below_1e5():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if trial(n)]


def test_pseudoprimes_are_rejected():
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 3215031751):
        assert not is_prime(n)
        with pytest.raises(ValueError, match="modulus %d is not prime" % n):
            PrimeField(n)


def test_large_prime_is_certified_quickly():
    # trial division up to its square root took about a minute
    start = time.perf_counter()
    assert PrimeField(1000000000000000003).p == 1000000000000000003
    assert time.perf_counter() - start < 1.0


def test_modulus_beyond_the_certified_range_is_rejected():
    # the limit is composite, yet a strong pseudoprime to every base
    assert PRIME_LIMIT == 1287836182261 * 2575672364521
    assert is_prime(PRIME_LIMIT)
    for p in (PRIME_LIMIT, PRIME_LIMIT + 2):
        with pytest.raises(ValueError, match="too large to certify"):
            PrimeField(p)
