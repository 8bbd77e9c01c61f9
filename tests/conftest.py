"""Fixtures shared by the test modules."""

import random

import pytest


@pytest.fixture
def comm_grid(tmp_path):
    """Writer of seeded commutative grids: comm_grid(n) is the path of an
    n x n grid of right (h) and down (d) arrows in which every square
    commutes up to nonzero coefficients drawn from a seeded generator."""
    def write(n, seed=11):
        rng = random.Random(seed)
        lines = ["vertex x%d_%d" % (i, j) for i in range(n) for j in range(n)]
        lines += ["arrow h%d_%d x%d_%d x%d_%d" % (i, j, i, j, i, j + 1)
                  for i in range(n) for j in range(n - 1)]
        lines += ["arrow d%d_%d x%d_%d x%d_%d" % (i, j, i, j, i + 1, j)
                  for i in range(n - 1) for j in range(n)]
        for i in range(n - 1):
            for j in range(n - 1):
                a, b = (rng.choice([-1, 1]) * rng.randint(1, 9) for _ in "ab")
                lines.append("rel %d*h%d_%d*d%d_%d %s %d*d%d_%d*h%d_%d"
                             % (a, i, j, i, j + 1, "-" if b < 0 else "+",
                                abs(b), i, j, i + 1, j))
        path = tmp_path / ("grid%d.bq" % n)
        path.write_text("\n".join(lines) + "\n")
        return str(path)
    return write
