"""The combinatorial cell complex of a bound quiver and its (co)homology.

Cells in dimension n >= 1 are tuples of composable non-identity path
classes such that SOME choice of member representatives has a composite
outside the ideal; the least such composite is stored as the cell's
witness.  The existential reading is forced by class merging: a tuple
can contain a class whose particular representative product vanishes
while another does not, and both name the same cell.

Face maps drop the first class, drop the last, or compose two adjacent
classes: d_i is the class of the product of members i-1 and i in the
split of the least witness into members that the construction recorded
when it grew the cell (the least split in member order).  Any split
gives the same face when every class has members of one length (the
split is then unique), or when the natural classes carry no bound
caveat (they are then closed under composition); only under the bound
caveat could another split give another face.
Cells are grown and their faces found on the table's indices, words and
ends: a composite is looked up by its arrow names in
`PathTable.arrow_index` once per build, and no path object is built.
A layer's face rows are built one face index at a time over the whole
layer, and the simplicial identities are checked on whole-layer lists.
The complex keeps a cell as its key (a vertex in dimension 0, a tuple of
class ids above), the table index of its witness and its face row; a
reader that writes a witness reads its arrow word off the table.
The (co)homology and cup product here serve every such complex.  The
simplicial complex SC of a semi-normed basis is built here too: each
nonzero class holds one basis element, so SC is the complex grown from
that element of each class alone (`members`), its cells the class
tuples whose elements compose to a path outside the ideal.
Boundary of boundary is checked on the face rows when the complex is
made: where a cell's faces satisfy the simplicial identities its terms
cancel in pairs, and only a cell where one fails has its signed sum
formed.  Boundary matrices are sparse integer columns, summed off the
face rows (`FaceColumns`).  (Co)homology ranks them straight off the
rows, building a column only when the ranking reads it; `columns`, the
whole matrices, is built on first read for the readers that need them
(`coboundary`, epsilon/mu and the phi/psi chain maps), so neither
(co)homology nor a command that only lists cells builds it.
Homology over Z comes from their invariant factors (the left-looking
reduction of `smith_divisors`, then a certified Smith normal form of
what is left), over a field from their ranks, and cohomology and cyclic
coefficients by universal coefficients.  The boundaries are ranked from
the top down with clearing (the "twist" of persistent homology,
Chen-Kerber 2011): each one skips the columns on which the one above
pivoted, over Z only its unit pivots, so those columns are never built
and reach neither the elimination nor the residual Smith normal form.
One loop (`_ranked`) does so over Z, Z/m and fields alike.
A monomial ideal needs no complex for its (co)homology: an acyclic
matching (Brown 1989, Forman 1998) collapses the natural complex onto
the quiver's underlying graph, whose vertices and arrows are the only
critical cells, and the cell counts are binomial sums over the nonzero
path lengths (`graph_collapse`); its walk classes are the same.
Nor does a thin input (no path in I, one class per vertex pair): its
complex is the order complex of the vertex poset, counted by chains and
ranked on the order complex of the poset's Stong core
(`thin_core_chains`).  `cellular_chains` picks the collapse, the thin
core or the built complex.  The collapse is taken when every relation
is a single path, and builds no path table: the nonzero paths are
counted by length on the automaton of the tips
(`core.monomial_path_counts`), and those counts are the table's, since
a tip is never an arrow and the table's bound is max(2, M + 1) for M
the longest nonzero length.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .core import DEFAULT_PATH_CAP, enumerate_paths, monomial_path_counts
from .homotopy import natural_homotopy_classes, walk_homotopy_classes
from .linalg import PrimeField, QQ, rank, smith_divisors

__all__ = [
    "CellComplex", "build_complex", "homology", "cohomology",
    "cup_product", "euler_characteristic",
    "homology_of_matrices", "cohomology_of_matrices", "parse_coefficients",
    "HomologyResult", "graph_collapse",
    "thin_core_chains", "cellular_chains",
]


class CellComplex:
    """Graded cells, face maps and integer boundary matrices.

    The complex is kept on table ids: per dimension the cell keys (the
    vertices in quiver order in dimension 0, the sorted class-id tuples
    above) and, for n >= 1, the table index of each cell's witness, so
    n-cell j is `keys[n][j]`, its witness the table's path number
    `witnesses[n][j]`.  `faces[n][j]` (n >= 1) lists the positions
    (d_0, ..., d_n) of its faces among the (n-1)-cells: d_0 drops the
    first entry, d_n the last.  Boundary of boundary is checked on the
    face rows when the complex is made; the cell index and the boundary
    columns are built on first read.
    """

    def __init__(self, table, classes, keys, witnesses, faces, cut_at=None,
                 members=None):
        self.table = table
        self.classes = classes
        # members[cid]: the one table index class cid grew from (None: all)
        self.members = members
        self.variant = classes.variant
        self.caveats = classes.caveats
        # cut_at: the top dimension kept when cells above it were left out
        self.cut_at = cut_at
        if cut_at is not None:
            self.caveats += (
                "cells of dimension > %d were left out (the complex has "
                "%d-cells), so the Euler characteristic is not reported"
                % (cut_at, cut_at + 1),)
        self.keys = keys
        self.witnesses = witnesses  # witnesses[n][j]: table index, n >= 1
        self.faces = faces
        check_faces_square_zero(faces)

    @functools.cached_property
    def cell_index(self):
        """(dimension, key) -> position of the cell in its dimension."""
        return {(n, key): i for n, layer in enumerate(self.keys)
                for i, key in enumerate(layer)}

    @functools.cached_property
    def columns(self):
        """columns[n][j] = {row: coefficient}: the sparse boundary matrix
        delta_n, one column per n-cell, rows indexed by (n-1)-cells."""
        return face_columns(self.faces)

    def counts(self):
        return [len(layer) for layer in self.keys]

    def top_dim(self):
        return len(self.keys) - 1

    def size(self, n):
        return len(self.keys[n]) if 0 <= n <= self.top_dim() else 0

    def boundary(self, n):
        """delta_n as a dense integer matrix (rows C_{n-1}, cols C_n)."""
        mat = [[0] * self.size(n) for _ in range(self.size(n - 1))]
        for j, col in enumerate(self.columns.get(n, ())):
            for i, x in col.items():
                mat[i][j] = x
        return mat

    @property
    def boundaries(self):
        """{n: dense delta_n} for n = 1 .. top, built on each access."""
        return {n: self.boundary(n) for n in self.columns}


def sparse_column(terms):
    """{row: coefficient} summing (row, coefficient) terms, zeros dropped."""
    col = {}
    for r, x in terms:
        col[r] = col.get(r, 0) + x
    return {r: x for r, x in col.items() if x}


class FaceColumns:
    """delta_n of a face complex as a sequence of sparse columns read off
    its face rows: the column of a cell with faces (f_0, ..., f_n) is
    sum (-1)^i f_i, read straight off the row when its faces are distinct.
    A column is built each time it is read, so a ranking that clears it
    never builds it."""

    __slots__ = ("rows", "signs")

    def __init__(self, rows, n):
        self.rows = rows
        self.signs = [(-1) ** i for i in range(n + 1)]

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, k):
        row = self.rows[k]
        col = dict(zip(row, self.signs))
        return (col if len(col) == len(row)
                else sparse_column(zip(row, self.signs)))


def face_columns(faces):
    """{n: sparse columns of delta_n} for n >= 1 from face rows."""
    return {n: [layer[k] for k in range(len(layer))]
            for n, layer in _face_matrices(faces).items()}


def _face_matrices(faces):
    """{n: `FaceColumns` of delta_n} for n >= 1."""
    return {n: FaceColumns(faces[n], n) for n in range(1, len(faces))}


def graph_collapse(quiver, lengths):
    """(counts, columns) of the natural complex of a monomial bound quiver
    with lengths[m] nonzero paths of length m >= 1, collapsed onto its
    underlying graph.

    A monomial ideal has no minimal relation, so the natural classes are
    the single paths, with no caveat, and an n-cell is a tuple (p_1, ...,
    p_n) of non-identity paths whose composite w is a nonzero path.  Its
    n parts cut w, so counts[n] = sum C(|w| - 1, n - 1) over the nonzero
    paths w of length >= 1, and the top dimension is the greatest such
    length.

    Match (a p', p_2, ..., p_n) with (a, p', p_2, ..., p_n) for an arrow a
    and a non-identity p' (Brown 1989; Forman 1998).  The lower cell is
    the face d_1 of the upper, with sign -1, and no other face equals it:
    d_0 has the shorter first entry p', and d_i for i >= 2 keeps the
    arrow a first.  The matching is acyclic: along a V-path the next cell
    matched upward must be a face other than d_1 whose first entry is not
    an arrow, so d_0, and the length of the first entry strictly drops.
    Every cell whose first entry is not an arrow is matched up, and every
    cell of dimension >= 2 that starts with an arrow is matched down, so
    the critical cells are the vertices and the arrows (arrows are never
    in an admissible ideal).  With all 0-cells critical, the Morse
    boundary of an arrow is its cellular one, so the complex has the
    (co)homology of the quiver's graph: `columns` holds one column
    t(a) - s(a) per arrow, in the rows of the vertices, a loop's empty.
    """
    top = max(lengths, default=0)
    counts = [len(quiver.vertices)] + [
        sum(k * math.comb(m - 1, n - 1) for m, k in lengths.items())
        for n in range(1, top + 1)]
    at = quiver.vertex_index
    columns = [{} if a.source == a.target
               else {at[a.target]: 1, at[a.source]: -1}
               for a in quiver.arrows]
    return counts, columns


def thin_core_chains(table, classes):
    """(counts, dims, faces) of a thin bound quiver's complex under the
    class table `classes`: the chains of its vertex poset P by length,
    and the sizes and face rows of the order complex of P's core; None
    when the input is not thin.

    (Q, I) is thin when no table path lies in I, the classes carry no
    caveat and each vertex pair's non-stationary paths form one class.
    No table path in I rules out an oriented cycle, whose powers give
    paths of the bound's length L, and those lie in I and in the table.
    So every path is shorter than L, lies in the table and is nonzero,
    and so is every composite of paths.  Let x < y when a path of length
    >= 1 runs from x to y: with no oriented cycle, a partial order P on
    the vertices.  An n-cell is a tuple of n composable non-identity
    classes whose members compose outside I; as every composite is
    nonzero and a pair holds one class, the n-cells are the chains
    x_0 < ... < x_n of P, the i-th class that of (x_(i-1), x_i).  d_0
    and d_n drop x_0 and x_n, and d_i composes two classes into the one
    of (x_(i-1), x_(i+1)), whatever split is recorded: it drops x_i.  So
    the complex is the order complex Delta(P), and the cells of a
    dimension are counted by one pass in the peel order, the chains
    ending at v being those ending below v, lengthened by v.  A pair
    holds at least one class, and the classes are parallel, so the
    classes are thin exactly when there are as many as vertex pairs with
    a path.

    A beat point x has exactly one lower cover y (then y is the greatest
    point below x) or exactly one upper cover.  In the first case r,
    which sends x to y and fixes the rest, preserves the order and has
    r <= 1, so Delta(r) is homotopic to the identity (order-preserving
    maps f <= g give homotopic maps, Quillen 1978, 1.3); r restricts to
    the identity on P - x, so the inclusion of Delta(P - x) in Delta(P)
    is a homotopy equivalence, and dually for an upper cover (Stong
    1966).
    Removing beat points until none is left reaches the core
    (Barmak-Minian 2008), whose order complex has the (co)homology of
    Delta(P) over every coefficient group.  A cover w < z of P has no
    point between, so no path of length >= 2: the covers are among the
    arrows.  A cover of P - x that P lacks had x alone between its ends,
    so removing x changes the covers only at x's lower and upper covers,
    and only those are looked at again.
    """
    quiver = table.quiver
    if table.in_ideal or classes.caveats or len(classes) != len(
            table.pair_paths):
        return None
    at = quiver.vertex_index
    nv = len(quiver.vertices)
    # below[v], above[v]: the points under and over v, as bit masks
    below, above = [0] * nv, [0] * nv
    lower = [[] for _ in range(nv)]
    for x, y in table.pair_paths:
        if x != y:
            i, j = at[x], at[y]
            below[j] |= 1 << i
            above[i] |= 1 << j
            lower[j].append(i)
    # ending[v][n]: the chains of n + 1 points whose greatest is v
    ending = [None] * nv
    for v in map(at.__getitem__, quiver.peel_order()):
        ending[v] = [1] + list(map(sum, itertools.zip_longest(
            *map(ending.__getitem__, lower[v]), fillvalue=0)))
    counts = list(map(sum, itertools.zip_longest(*ending, fillvalue=0)))
    # the Hasse diagram, then beat points removed off a worklist
    down, up = [set() for _ in range(nv)], [set() for _ in range(nv)]
    for a in quiver.arrows:
        w, z = at[a.source], at[a.target]
        if not above[w] & below[z]:
            up[w].add(z)
            down[z].add(w)
    alive = (1 << nv) - 1
    work = list(range(nv - 1, -1, -1))
    while work:
        x = work.pop()
        lows, highs = down[x], up[x]
        if not alive >> x & 1 or (len(lows) != 1 and len(highs) != 1):
            continue
        alive &= ~(1 << x)
        for w in lows:
            up[w].discard(x)
        for z in highs:
            down[z].discard(x)
        for w in lows:
            for z in highs:
                if not above[w] & below[z] & alive:
                    up[w].add(z)
                    down[z].add(w)
        work += sorted(lows | highs, reverse=True)
    # Delta(core): each layer's chains lengthened by a point above their
    # last, each face found by dropping one point
    points = [x for x in range(nv) if alive >> x & 1]
    over = {x: [y for y in points if above[x] >> y & 1] for x in points}
    layer = [(x,) for x in points]
    dims, faces = {0: len(layer)}, [None]
    while True:
        index = dict(zip(layer, itertools.count()))
        layer = [chain + (y,) for chain in layer for y in over[chain[-1]]]
        if not layer:
            break
        dims[len(faces)] = len(layer)
        faces.append([tuple(index[chain[:i] + chain[i + 1:]]
                            for i in range(len(chain))) for chain in layer])
    check_faces_square_zero(faces)
    return counts, dims, faces


def check_faces_square_zero(faces):
    """Raise AssertionError unless delta delta == 0 for a complex given by
    its face rows.

    `faces[n][j]` lists the indices (d_0, ..., d_n) of the (n-1)-cells that
    are the faces of n-cell j.  Where a cell's faces satisfy the simplicial
    identities d_i d_j = d_(j-1) d_i (i < j), the n(n+1) terms of its
    delta delta cancel in pairs; only a cell where one fails has its
    signed sum formed.  So the check accepts exactly the complexes whose
    boundary columns square to zero, at O(n^2) index reads per cell and
    no arithmetic: each dimension's rows are transposed into face columns
    once, and each identity compares two whole-layer lists.
    """
    columns = [list(zip(*layer)) for layer in faces[1:]]
    for n in range(2, len(faces)):
        below, cols = columns[n - 2], columns[n - 1]
        bad = set()
        # d_i d_j against d_(j-1) d_i for i < j; an empty layer has no
        # columns
        for j in range(1, len(cols)):
            for i in range(j):
                left = list(map(below[i].__getitem__, cols[j]))
                right = list(map(below[j - 1].__getitem__, cols[i]))
                if left != right:
                    bad.update(c for c, (a, b) in enumerate(zip(left, right))
                               if a != b)
        rows = faces[n - 1]
        for c in bad:
            if sparse_column(
                    (f, (-1) ** (i + j))
                    for j, sub in enumerate(map(rows.__getitem__, faces[n][c]))
                    for i, f in enumerate(sub)):
                raise AssertionError("boundary of boundary must vanish")


def build_complex(table, classes, max_dim=None, members=None):
    """Cell complex over a path class table (natural or walk variant).

    Cells of dimension above `max_dim` (>= 0; None keeps them all) are
    left out; when there are any, the complex records the cut and says
    so in its caveats.  Cells are grown as keys and witness table
    indices, and that is what the complex keeps.  Each class grows from
    its nonzero members, or, given `members`, from the one table index
    `members[cid]` alone: the simplicial complex SC of a semi-normed
    basis is the complex grown from the basis elements.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError("maximum cell dimension must be >= 0, got %d"
                         % max_dim)
    words, in_ideal, bound = table.words, table.in_ideal, table.bound
    arrow_index, targets = table.arrow_index, table.targets
    of_index = classes.class_of_index
    source, target = classes.class_source, classes.class_target
    vertices = table.quiver.vertices
    # steps[v]: ((class,), (member,), member's word) for every nonzero
    # member of a 1-cell class at v; a zero member's composites all lie in
    # the ideal
    steps = {v: [] for v in vertices}
    # live[key] = {witness: split}: every nonzero member composite of the
    # class tuple `key`, with the least of its splits into members (all
    # as table indices, so `min` of a record is its least composite)
    live = {}
    for cid in classes.one_cell_classes():
        record = live[(cid,)] = {}
        for j in (classes.class_members[cid] if members is None
                  else (members[cid],)):
            if j not in in_ideal:
                record[j] = (j,)
                steps[source[cid]].append(((cid,), record[j], words[j]))

    # the two helpers' memos: plain dicts, since a functools.cache wrapper
    # made on every call costs more than it saves on small complexes
    extended, middles = {}, {}

    def extensions(w):
        """((class,), (member,), composite) of each one-step extension of
        the nonzero composite w that stays nonzero; past the bound a
        composite lies in the ideal."""
        out = extended.get(w)
        if out is None:
            out = extended[w] = []
            word = words[w]
            for cls, member, member_word in steps[targets[w]]:
                if len(word) + len(member_word) <= bound:
                    c = arrow_index[word + member_word]
                    if c not in in_ideal:
                        out.append((cls, member, c))
        return out

    def middle(i, j):
        """(class,) of the composite of the members i and j of a split."""
        mid = middles.get((i, j))
        if mid is None:
            c = arrow_index[words[i] + words[j]]
            mid = middles[i, j] = (of_index[c],)
        return mid

    keys, witnesses, faces = [list(vertices)], [None], [None]
    below = dict(zip(vertices, itertools.count()))
    top = math.inf if max_dim is None else max_dim
    cut = False
    n = 1
    while live:
        if n > top:
            cut = True
            break
        layer = sorted(live)
        recs = list(map(live.__getitem__, layer))
        wits = list(map(min, recs))
        # d_0 drops the first class, d_n the last (leaving a vertex when
        # n = 1), and d_i composes the members i-1, i of the least
        # witness's split
        if n == 1:
            columns = [[target[cid] for cid, in layer],
                       [source[cid] for cid, in layer]]
        else:
            splits = list(map(dict.__getitem__, recs, wits))
            columns = [[key[1:] for key in layer]]
            for i in range(1, n):
                mids = map(middle, map(operator.itemgetter(i - 1), splits),
                           map(operator.itemgetter(i), splits))
                columns.append([key[:i - 1] + mid + key[i + 1:]
                                for key, mid in zip(layer, mids)])
            columns.append([key[:-1] for key in layer])
        try:
            rows = list(zip(*(map(below.__getitem__, col)
                              for col in columns)))
        except KeyError:
            raise AssertionError("face of a cell must be a cell") from None
        keys.append(layer)
        witnesses.append(wits)
        faces.append(rows)
        if n == top:
            # one nonzero extension tells whether the next layer is empty
            cut = any(extensions(w) for record in recs for w in record)
            break
        # a nonzero composite has a nonzero prefix, so growing the stored
        # composites reaches every nonzero composite of the longer tuples
        grown = {}
        for key, record in zip(layer, recs):
            for w, split in record.items():
                for cls, member, c in extensions(w):
                    longer = key + cls
                    kept = grown.get(longer)
                    if kept is None:
                        grown[longer] = {c: split + member}
                    elif c not in kept or split + member < kept[c]:
                        kept[c] = split + member
        live = grown
        below = dict(zip(layer, itertools.count()))
        n += 1
    return CellComplex(table, classes, keys, witnesses, faces,
                       cut_at=max_dim if cut else None, members=members)


# ---------------------------------------------------------------------------
# (co)homology


@dataclass(frozen=True)
class HomologyResult:
    coeff: str                   # "Z", "Q", "Fp:<p>", "Zmod:<m>"
    kind: str                    # "Z" | "field" | "cyclic"
    groups: tuple
    # kind Z:      entries (free_rank, (divisors...))
    # kind field:  entries dim
    # kind cyclic: entries (orders...), order m standing for a Z/m summand


def parse_coefficients(coeff):
    """Normalize "Z" | "Q" | "Fp:<p>" | "Zmod:<m>" (case-sensitive)."""
    if coeff in ("Z", "Q"):
        return (coeff, None)
    if isinstance(coeff, str) and coeff.startswith("Fp:"):
        p = _modulus(coeff, "Fp:")
        PrimeField(p)  # primality check
        return ("Fp", p)
    if isinstance(coeff, str) and coeff.startswith("Zmod:"):
        m = _modulus(coeff, "Zmod:")
        if m < 2:
            raise ValueError("Zmod modulus must be >= 2")
        return ("Zmod", m)
    raise ValueError("unknown coefficient system %r" % (coeff,))


def _modulus(coeff, prefix):
    try:
        return int(coeff[len(prefix):])
    except ValueError:
        raise ValueError("coefficient system %r needs an integer modulus "
                         "after %r" % (coeff, prefix)) from None


def _ranked(mats, kernel):
    """{n: kernel(mats[n], skip, pivots)} for the boundaries of a complex,
    ranked from the top down with clearing (Chen-Kerber 2011): `skip`
    holds the columns on which the boundary above pivoted, and `kernel`
    adds its own pivot rows to the set `pivots`.  The kernel is
    `smith_divisors` over Z, which records only its unit pivots, or
    `rank` over a field, which records every pivot.

    mats[n] maps degree n to degree n-1 as sparse columns
    {row: coefficient}, one per n-cell, with mats[n - 1] mats[n] == 0.
    Leaving the skipped columns out changes neither the rank nor the
    invariant factors:
    - over a field, the reduced delta_(n+1) pivots on the rows P, and its
      block on P and the pivot columns is triangular with a nonzero
      diagonal, so delta_n delta_(n+1) == 0 writes the columns P of
      delta_n through the others;
    - over Z, a reduced unit pivot column of delta_(n+1) is +-1 at its
      low and zero at every greater row, so delta_n delta_(n+1) == 0
      writes the column of delta_n at that low as an integer combination
      of its columns at lower rows, and by induction on the low every
      skipped column is an integer combination of the kept ones.
    """
    out, pivots = {}, {}
    for n in sorted(mats, reverse=True):
        pivots[n - 1] = set()
        out[n] = kernel(mats[n], pivots.get(n, ()), pivots[n - 1])
    return out


def _betti(dims, ranks, top):
    """dims[n] - ranks[n + 1] - ranks[n] for n = 0 .. top, a missing entry
    counting 0.  From the ranks of a chain complex's boundaries these are
    the free ranks of its homology, from those of a cochain complex's
    differentials its cohomology dimensions."""
    return [dims.get(n, 0) - ranks.get(n + 1, 0) - ranks.get(n, 0)
            for n in range(top + 1)]


def homology_of_matrices(dims, mats, coeff, top):
    """Homology in degrees 0 .. top of an integer chain complex given as
    sparse boundary columns: mats[n][j] = {row in degree n-1: coefficient}.

    The matrices must form a complex, mats[n - 1] mats[n] == 0: the
    ranking clears columns by that identity and does not check it.  Every
    complex the package ranks has been made sure of it: a face complex
    (the cell complexes, SC and the order complex of a thin input's
    core) by `check_faces_square_zero` on its face rows, HC by the
    associativity of its structure table, the quotient HC/eps(SC) by the
    epsilon cochain-map check, which makes eps(SC) a subcomplex, and the
    collapse onto the graph by having one matrix.
    Z/m coefficients read the integral ranking by universal coefficients.
    """
    kind, arg = parse_coefficients(coeff)
    label = coeff if arg is None else "%s:%d" % (kind, arg)
    if kind in ("Q", "Fp"):
        field = QQ if kind == "Q" else PrimeField(arg)
        ranks = _ranked(mats, lambda columns, skip, pivots: rank(
            columns, field, skip, pivots))
        return HomologyResult(label, "field",
                              tuple(_betti(dims, ranks, top)))
    divisors = _ranked(mats, smith_divisors)
    torsion = {n: tuple(d for d in ds if d > 1) for n, ds in divisors.items()}
    integral = [(free, torsion.get(n + 1, ())) for n, free in enumerate(
        _betti(dims, {n: len(ds) for n, ds in divisors.items()}, top))]
    if kind == "Z":
        return HomologyResult(label, "Z", tuple(integral))
    # H_n(Z/m) = H_n (x) Z/m + Tor(H_(n-1), Z/m)
    return HomologyResult(label, "cyclic", tuple(
        tuple(sorted(o for o in [arg] * free + [
            math.gcd(d, arg) for d in tors + torsion.get(n, ())] if o > 1))
        for n, (free, tors) in enumerate(integral)))


def cohomology_of_matrices(dims, mats, coeff, top):
    """Cohomology by universal coefficients over the integral homology.

    Over a field or Z/m, Hom and Ext of the integral homology give the
    same groups as its tensor and Tor terms, so only Z differs from
    homology: H^n = (free part of H_n) + (torsion of H_(n-1)).
    """
    res = homology_of_matrices(dims, mats, coeff, top)
    if res.kind != "Z":
        return res
    tors = [()] + [t for _, t in res.groups]
    return HomologyResult("Z", "Z", tuple(
        (free, tors[n]) for n, (free, _) in enumerate(res.groups)))


def cellular_chains(quiver, sharp=False, cap=DEFAULT_PATH_CAP):
    """(counts, dims, boundary columns, caveats) of a bound quiver's
    complex for (co)homology, under the walk classes when `sharp`, else
    the natural ones, with paths listed up to the bound cap `cap`.

    When every relation is a single path, the ideal is monomial and its
    chains are `graph_collapse`'s, with the nonzero paths counted by
    length on its tips' automaton (`monomial_path_counts`), so no table
    is built.  The counts are the table's.  A path lies in a monomial
    ideal exactly when a tip occurs in it, and a tip is never an arrow
    (relation terms have length >= 2), so the walk starts from all the
    arrows.  Let M be the longest nonzero length.  The table's bound is
    max(2, M + 1): every path of length M + 1 lies in I, and below that
    a longest nonzero path has a nonzero prefix of each length.  So every
    nonzero path lies in the table, and the table's paths of length >= 1
    outside I are exactly the nonzero paths that the walk counts.  On a
    cyclic quiver both refuse, with the same message, exactly when a
    nonzero path of length `cap` exists.
    A monomial ideal's chains are the collapse's under walk classes too,
    as those are then the single paths with no caveat:
    - no ideal row links two paths, so there is no seed and no join;
    - pi_1 is presented on the arrows over a spanning forest, so free;
    - for distinct parallel paths u, v, cancelling the common suffix of
      u v^-1 leaves a nonempty reduced word, which is nontrivial, and
      `word_is_trivial` says False: no pair is undecided.
    Otherwise the path table and the classes are built.  When the input
    is thin under the classes, the counts are its vertex poset's chains
    and the columns those of the order complex of the poset's core
    (`thin_core_chains`), ranked up to the longest chain; else the
    complex is built and ranked off its face rows.
    """
    lengths = monomial_path_counts(quiver, cap)
    if lengths is not None:
        counts, columns = graph_collapse(quiver, lengths)
        return counts, {0: counts[0], 1: len(columns)}, {1: columns}, []
    table = enumerate_paths(quiver, cap)
    classes = (walk_homotopy_classes(table) if sharp
               else natural_homotopy_classes(table))
    thin = thin_core_chains(table, classes)
    if thin is not None:
        counts, dims, faces = thin
        return counts, dims, _face_matrices(faces), []
    cx = build_complex(table, classes)
    counts = cx.counts()
    return (counts, dict(enumerate(counts)), _face_matrices(cx.faces),
            list(cx.caveats))


def homology(cx, coeff="Z"):
    """Homology of a face complex, ranked off its face rows: `cx.columns`
    is not built."""
    return homology_of_matrices(dict(enumerate(cx.counts())),
                                _face_matrices(cx.faces), coeff,
                                top=cx.top_dim())


def cohomology(cx, coeff="Z"):
    """Cohomology of a face complex, ranked off its face rows."""
    return cohomology_of_matrices(dict(enumerate(cx.counts())),
                                  _face_matrices(cx.faces), coeff,
                                  top=cx.top_dim())


def euler_characteristic(cx):
    """Alternating sum of the cell counts; None for a complex cut short
    of its top dimension."""
    if cx.cut_at is not None:
        return None
    return sum((-1) ** n * cx.size(n) for n in range(cx.top_dim() + 1))


# ---------------------------------------------------------------------------
# cup product on cellular cochains

# a p-cochain is a dict {cell key in dimension p: coefficient}; vertex
# keys for p = 0.  Missing keys mean zero.


def cup_product(cx, p, f, q, g):
    """Front-face/back-face cup product of a p- and a q-cochain.

    The front p-face of an n-cell is d_n applied q times, the back q-face
    d_0 applied p times, both read off the face rows.
    """
    n = p + q
    if n > cx.top_dim():
        return {}
    out = {}
    for j, key in enumerate(cx.keys[n]):
        front = back = j
        for m in range(n, p, -1):
            front = cx.faces[m][front][-1]
        for m in range(n, q, -1):
            back = cx.faces[m][back][0]
        v = f.get(cx.keys[p][front], 0) * g.get(cx.keys[q][back], 0)
        if v:
            out[key] = v
    return out


def coboundary(cx, p, f):
    """delta of a p-cochain: (delta f)(c) = f(boundary c), c in dim p+1."""
    if p + 1 > cx.top_dim():
        return {}
    out = {}
    low = cx.keys[p]
    for key, col in zip(cx.keys[p + 1], cx.columns[p + 1]):
        total = sum(x * f.get(low[i], 0) for i, x in col.items())
        if total:
            out[key] = total
    return out
