"""Exact linear algebra used throughout the package.

Two kinds of arithmetic appear:

* field arithmetic over Q or F_p (ints reduced mod p), used for span
  membership, ranks and kernels of coefficient matrices;
* integer arithmetic for Smith normal form, used for homology of chain
  complexes of free abelian groups.

Two sparse kernels do the heavy work.  A vector is a dict
{index: value} holding only nonzero entries.  Over a field the kernel is
right-looking, and `_clear` is its one step: given a pivot entry,
subtract from every other vector holding that index the multiple of the
pivot vector that zeroes it there (a Schur update), with an
index -> holders map so that only vectors that hold the index are
touched.  Three entry points run on it:

* `extend_rref(reduced, rows, field)` is Gauss-Jordan on sparse rows:
  it adds rows to a reduced basis {pivot: row} in place, each new row in
  turn pivoting on its leftmost entry and clearing that column in every
  other row.  `sparse_rref` is the extension of an empty basis; the
  reduced row echelon form is unique, so the result does not depend on
  the order of elimination or on how the rows are split between calls.
  `nullspace` reads the kernel off it, and the semi-normed verifier
  (`algcohom`) reduces each ideal slice with it, the candidates'
  coordinates last.  The path table does not: its slices come from
  normal forms, with the pivot at each row's greatest index (`core`).
* `rank(vectors, field)` counts pivots of rows or columns, dropping each
  pivot vector once its index is cleared.  It picks, within a vector,
  the pivot index held by the fewest other vectors, which keeps fill-in
  low: the Hochschild differentials over Q fill in more, and rank
  slower, under the left-looking rule below.

Over Z the kernel is left-looking: `smith_divisors(columns)` gives the
invariant factors of an integer matrix of sparse columns by the standard
reduction of persistent homology (Chen-Kerber 2011,
Bauer-Kerber-Reininghaus-Wagner 2017), which needs no holder index: each
column is reduced by the pivot columns that share its greatest row, and
a column whose greatest row ends up with a +-1 there becomes a pivot.
Every column operation is unimodular and each pivot splits off an
invariant factor 1; the columns whose greatest entry is not a unit form
a residual, reduced against every pivot and then made dense for the
textbook `smith_normal_form`, which tracks both transforms and asserts
its certificate.

`rank` and `smith_divisors` can leave out given columns without reading
them and report their pivot indices, which is how a chain complex is
ranked with clearing (`complex._ranked`).  A matrix is any sequence of
columns, so a complex can hand over columns that it builds only when
they are read.

An element of Q is a Python int, or a Fraction only when its denominator
is not 1 (`QQ.of` puts a rational in this form).  Most coefficients the
package meets are integers, and int arithmetic is several times cheaper
than Fraction arithmetic, whose every operation normalises by a gcd.
The form is exact because it changes only the Python type, never the
value: Fraction(n) == n with the same hash, and int and Fraction mix
freely in +, - and *.  Plain arithmetic can still give an integral
Fraction (2 * Fraction(1, 2)), so the kernel puts every entry it stores
back into the form: pivot normalisation through `QQ.of`, and `_clear`
wherever a Fraction took part in the update.

Conventions:
* `smith_normal_form(M)` returns (divisors, U, V, D) with U*M*V == D,
  D diagonal, each divisor dividing the next.  The product identity is
  asserted before returning; callers can re-check it cheaply.
* span questions are read off one RREF: a vector lies in a span when
  adding it gives no new pivot, and with the columns reordered so that
  chosen coordinates come last, each other coordinate's row expresses it
  through the chosen ones modulo the span (the semi-normed verifier).
"""

from __future__ import annotations

import operator
from fractions import Fraction


class RationalField:
    """Field operations over Q; an element is an int, or a Fraction whose
    denominator is not 1."""

    zero = 0
    one = 1

    @staticmethod
    def of(n):
        """n as an element: an int when n is integral, else a Fraction."""
        if n.__class__ is int:
            return n
        if n.__class__ is not Fraction:
            n = Fraction(n)
        return n.numerator if n.denominator == 1 else n

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        n, d = a.numerator, a.denominator
        if n == 1 or n == -1:
            return n * d
        return Fraction(d, n)

    def __repr__(self):
        return "QQ"


# Miller-Rabin on the prime bases up to 41 decides primality exactly for
# every n below PRIME_LIMIT, the least strong pseudoprime to all of them
# (Sorenson and Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin, exact for 0 <= n < PRIME_LIMIT: n
    passes base b when b^d = 1 or some b^(2^r d) = -1 mod n, where
    n - 1 = 2^s d with d odd and r < s."""
    if n < 2 or any(n % b == 0 for b in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


class PrimeField:
    """Field operations over F_p, elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 2:
            raise ValueError("modulus must be >= 2")
        if p >= PRIME_LIMIT:
            raise ValueError("modulus %d is too large to certify as prime "
                             "(it must be below %d)" % (p, PRIME_LIMIT))
        if not is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        if n.__class__ is int:
            return n % self.p
        if isinstance(n, Fraction):
            num = n.numerator % self.p
            den = n.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes mod %d" % self.p)
            return num * pow(den, -1, self.p) % self.p
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def _holders(vecs):
    """index -> set of ids of the vectors holding a nonzero there."""
    where = {}
    for k, v in vecs.items():
        for i in v:
            where.setdefault(i, set()).add(k)
    return where


def _clear(vecs, where, k, c, inv, field):
    """Schur update: zero index c in every vector but vecs[k].

    Each other holder v of c loses v[c] * inv times vecs[k], where inv is
    1 / vecs[k][c].  Keeps `where` in step.  Over Q, an update in which a
    Fraction takes part puts the entries it wrote back into int-first
    form; int data never pay for that pass.
    """
    p = getattr(field, "p", None)
    rational = isinstance(field, RationalField)
    piv = vecs[k]
    fractional = None  # whether piv holds a Fraction, found when needed
    for j in list(where[c]):
        if j == k:
            continue
        v = vecs[j]
        f = v[c] * inv
        if p:
            f %= p
        elif rational:
            f = field.of(f)  # an integral f keeps the update in ints
        for i, x in piv.items():
            y = v.get(i)
            y = -f * x if y is None else y - f * x
            if p:
                y %= p
            if y:
                if i not in v:
                    where[i].add(j)
                v[i] = y
            else:
                del v[i]
                where[i].discard(j)
        if not rational:
            continue
        if fractional is None:
            fractional = any(x.__class__ is Fraction for x in piv.values())
        if fractional or f.__class__ is Fraction:
            for i in piv:
                if i in v:
                    v[i] = field.of(v[i])


def _drop(vecs, where, k):
    for i in vecs.pop(k):
        where[i].discard(k)


def _sparse(vectors, field, skip=()):
    """Sparse vectors as {id: {index: field element}}, zeros dropped and
    the ids in `skip` left out unread."""
    out = {}
    for k in range(len(vectors)):
        if k in skip:
            continue
        vec = vectors[k]
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {}
        for i, x in items:
            x = field.of(x)
            if x != field.zero:
                v[i] = x
        out[k] = v
    return out


def extend_rref(reduced, rows, field=QQ):
    """Extend a reduced row echelon form by more rows, in place.

    `reduced` maps each pivot column to its row, a dict with a 1 at the
    pivot and no entry at any other pivot column; `rows` are dicts or
    dense lists.  The old pivots are cleared out of the new rows, each
    nonzero new row in turn pivots on its leftmost entry and clears that
    column in every other row, old rows included, which are updated in
    place.  Afterwards `reduced` is the RREF of the span of both.
    """
    vecs = {~k: v for k, v in _sparse(rows, field).items()}
    new = list(vecs)
    vecs.update(reduced)
    where = _holders(vecs)
    for c in reduced:
        if len(where[c]) > 1:
            _clear(vecs, where, c, c, field.one, field)
    for k in new:
        v = vecs[k]
        if not v:
            continue
        c = min(v)
        if v[c] != field.one:
            inv = field.inv(v[c])
            for i in v:
                v[i] = field.of(inv * v[i])
        _clear(vecs, where, k, c, field.one, field)
        reduced[c] = v


def sparse_rref(rows, field=QQ):
    """Reduced row echelon form of sparse rows, as (pivot, row) pairs.

    `rows` are dicts or dense lists; the nonzero rows of the result come
    as dicts sorted by pivot column, each with a 1 at its pivot.
    """
    reduced = {}
    extend_rref(reduced, rows, field)
    return sorted(reduced.items())


def _fewest_holders(v, where):
    """Index of the nonzero vector v held by the fewest vectors."""
    best = None
    for i in v:
        if best is None or len(where[i]) < len(where[best]):
            best = i
    return best


def rank(vectors, field=QQ, skip=(), pivots=None):
    """Rank over a field of rows or columns, dense lists or sparse dicts.

    Entries are read through `field.of`, so integer matrices can be
    passed as they are.  The vectors at the positions in `skip` are left
    out; when `pivots` is a set, the index of every pivot is added to it.
    """
    vecs = _sparse(vectors, field, skip)
    where = _holders(vecs)
    rk = 0
    for k in list(vecs):
        v = vecs[k]
        if v:
            c = _fewest_holders(v, where)
            _clear(vecs, where, k, c, field.inv(v[c]), field)
            rk += 1
            if pivots is not None:
                pivots.add(c)
        _drop(vecs, where, k)
    return rk


def nullspace(rows, field=QQ):
    """Basis of the right kernel {x : M x = 0}, one vector per free
    column of the RREF, in increasing order, with a 1 there."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced = sparse_rref(rows, field)
    pivots = {c for c, _ in reduced}
    basis = {f: [field.zero] * ncols for f in range(ncols) if f not in pivots}
    for f, v in basis.items():
        v[f] = field.one
    for c, row in reduced:
        for f, x in row.items():
            if f != c:
                basis[f][c] = field.neg(x)
    return list(basis.values())


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    if any(len(r) != k for r in a):
        raise AssertionError("matrix rows of unequal length")
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def smith_normal_form(mat):
    """Smith normal form with transform certificates.

    Returns (divisors, U, V, D) where U*mat*V == D, D is diagonal with
    nonnegative entries d_1 | d_2 | ... and `divisors` lists the nonzero
    diagonal entries.  U and V are products of elementary integer
    operations, hence unimodular.  The certificate product is asserted.
    """
    A = [list(r) for r in mat]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    U = identity_matrix(nr)
    V = identity_matrix(nc)

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        # row_dst += q * row_src
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def col_add(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # deterministic pivot: smallest |entry| in the trailing block, ties
        # by (row, col), picked afresh after every sweep that leaves a
        # remainder.  (Swapping each remainder in as the next pivot instead
        # let entries grow to thousands of digits on 8 x 8 matrices.)
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        p = A[t][t]
        # one sweep over column t, then row t; every remainder left is
        # smaller than |p|, so the next pivot is strictly smaller
        for i in range(t + 1, nr):
            if A[i][t] != 0:
                row_add(i, t, -(A[i][t] // p))
        for j in range(t + 1, nc):
            if A[t][j] != 0:
                col_add(j, t, -(A[t][j] // p))
        if any(A[i][t] for i in range(t + 1, nr)) \
                or any(A[t][j] for j in range(t + 1, nc)):
            continue
        # pivot must divide the whole trailing block before moving on;
        # this is what makes the diagonal a divisor chain.  Adding a bad
        # row to row t leaves a remainder there on the next sweep.
        bad = next((i for i in range(t + 1, nr)
                    if any(A[i][j] % p for j in range(t + 1, nc))), None)
        if bad is not None:
            row_add(t, bad, 1)
            continue
        if p < 0:
            row_negate(t)
        t += 1

    check = mat_mul(mat_mul(U, [list(r) for r in mat]), V)
    if check != A:
        raise AssertionError("SNF certificate U*M*V != D")
    divisors = []
    for i in range(limit):
        d = A[i][i]
        if d != 0:
            if d < 0 or divisors and d % divisors[-1]:
                raise AssertionError("divisor chain broken")
            divisors.append(d)
        else:
            break
    # everything past the first zero must be zero
    if any(A[i][i] for i in range(len(divisors), limit)):
        raise AssertionError("SNF diagonal nonzero past its first zero")
    return divisors, U, V, A


def smith_divisors(columns, skip=(), pivots=None):
    """Nonzero invariant factors of an integer matrix of sparse columns.

    The standard left-looking reduction of persistent homology (Chen-Kerber
    2011, Bauer-Kerber-Reininghaus-Wagner 2017): each column in turn
    loses, by integer column operations, the multiple of the pivot column
    that holds its low (its greatest row) until its low is a row no pivot
    holds.  A low +-1 makes the column a pivot; a column whose low is
    another integer goes to the residual, which is reduced against every
    pivot at the end.  The pivot columns, ordered by their lows, are then
    unit-triangular on the pivot rows, and the residual is zero there, so
    row operations from the pivot rows turn the matrix into
    diag(1, ..., 1, residual) up to unimodular transforms; the residual
    (in practice small) goes through the certified `smith_normal_form`.
    Returns the divisors in chain order, as `smith_normal_form` does.

    `columns` is a sequence of {row: coefficient} dicts, which are not
    changed; rows need only compare with each other.  The columns at the
    positions in `skip` are left out, and never read; when `pivots` is a
    set, the row of every unit pivot is added to it.  The rows of the
    residual are not: on those the reduced matrix need not be unimodular.
    """
    reduced = {}  # low -> its pivot column, +-1 there
    residual = []
    for k in range(len(columns)):
        if k in skip:
            continue
        # a column is copied only once it is to change: a pivot keeps the
        # caller's dict
        v = columns[k]
        owned = 0 in v.values()
        if owned:
            v = {i: x for i, x in v.items() if x}
        while v:
            low = max(v)
            piv = reduced.get(low)
            if piv is None:
                if v[low] == 1 or v[low] == -1:
                    reduced[low] = v
                else:
                    residual.append(v if owned else dict(v))
                break
            if not owned:
                v, owned = dict(v), True
            _subtract(v, piv, v[low] * piv[low])
    if pivots is not None:
        pivots.update(reduced)
    units = [1] * len(reduced)
    for v in residual:
        held = [i for i in v if i in reduced]
        while held:
            low = max(held)
            piv = reduced[low]
            _subtract(v, piv, v[low] * piv[low])
            held = [i for i in v if i in reduced]
    residual = [v for v in residual if v]
    if not residual:
        return units
    rows = sorted({i for v in residual for i in v})
    at = {i: r for r, i in enumerate(rows)}
    dense = [[0] * len(residual) for _ in rows]
    for c, v in enumerate(residual):
        for i, x in v.items():
            dense[at[i]][c] = x
    return units + smith_normal_form(dense)[0]


def _subtract(v, piv, f):
    """v -= f * piv on integer sparse columns, zeros dropped."""
    for i, x in piv.items():
        y = v.get(i, 0) - f * x
        if y:
            v[i] = y
        else:
            del v[i]
