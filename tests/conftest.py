"""Fixtures shared by the test modules."""

import pytest

from oracles import comm_grid_text, square_zero_chain_text


@pytest.fixture
def comm_grid(tmp_path):
    """Writer of seeded commutative grids: comm_grid(n) is the path of an
    n x n grid of right (h) and down (d) arrows in which every square
    commutes up to nonzero coefficients drawn from a seeded generator."""
    def write(n, seed=11):
        path = tmp_path / ("grid%d.bq" % n)
        path.write_text(comm_grid_text(n, n, seed))
        return str(path)
    return write


@pytest.fixture
def square_zero_chain(tmp_path):
    """Writer of radical-square-zero chains: square_zero_chain(n) is the
    path of arrows a0 .. a(n-1) along 0 -> 1 -> ... -> n, every composite
    of two of them zero; with cycle=True the last arrow returns to 0."""
    def write(n, cycle=False):
        path = tmp_path / ("%s%d.bq" % ("cycle" if cycle else "chain", n))
        path.write_text(square_zero_chain_text(n, cycle))
        return str(path)
    return write


# a*b*c ~ d*e, so a*b*c*f ~ d*e*f; the bound is L = 4, and d*e*f*g lies in
# the table while a*b*c*f*g does not: the one class whose closure the
# bound cuts short
BOUND_CAVEAT = """\
arrow a 1 2
arrow b 2 3
arrow c 3 4
arrow d 1 5
arrow e 5 4
arrow f 4 6
arrow g 6 7
rel a*b*c - d*e
rel b*c*f
rel e*f*g
"""


@pytest.fixture
def bound_caveat_quiver(tmp_path):
    """Path of a quiver whose natural classes carry the bound caveat."""
    path = tmp_path / "bound_caveat.bq"
    path.write_text(BOUND_CAVEAT)
    return str(path)
