"""Bound quivers, path enumeration and ideal membership.

A bound quiver is a finite directed multigraph together with an admissible
ideal of its path algebra, given by a finite list of relation vectors.
Paths compose left to right: in the product ``w = a1 a2`` the arrow ``a1``
is traversed first, so ``source(w) = source(a1)`` and
``target(w) = target(a2)``.

The central computed object is a :class:`PathTable`: all paths of length
at most a bound L (the smallest length at which every path is certified to
lie in the ideal, so the quotient algebra sees nothing longer), together
with, for each ordered vertex pair, an exact basis of the ideal's slice on
those paths.  All downstream questions (is this combination of paths in
the ideal, what is dim e_x A e_y, ...) reduce to exact rational linear
algebra against these slices.

The bound grows one length at a time.  A pair's paths are ordered length
first, so a path's pair-local coordinate never moves as L grows, and each
pair keeps one reduced basis that step L extends with
`linalg.extend_rref`.  The basis is stored as sparse rows
{local index: rational}, each with a 1 at its pivot, in ascending pivot
order; like every coefficient here, a rational is an int unless its
denominator is not 1, when it is a Fraction (see `linalg`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .linalg import QQ, extend_rref

DEFAULT_PATH_CAP = 12


class QuiverError(Exception):
    """Base class for structural errors in bound quiver input."""


class MalformedRelation(QuiverError):
    """A relation vector violates the admissibility format.

    Every term must be a path of length >= 2, all terms must be parallel
    (same source and target), and coefficients must be nonzero.
    """


class AdmissibilityError(QuiverError):
    """No nilpotency bound L <= cap certifies the ideal admissible."""


class NotConnectedError(QuiverError):
    """Operation requires a connected underlying graph."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A directed path: the arrow names in traversal order.

    Stationary paths have an empty arrow tuple; `source == target` then.
    """

    source: str
    target: str
    arrows: tuple

    def __len__(self):
        return len(self.arrows)

    @property
    def is_stationary(self):
        return not self.arrows

    def __str__(self):
        if not self.arrows:
            return "e_%s" % self.source
        return "*".join(self.arrows)


def compose(p, q):
    assert p.target == q.source, "paths not composable"
    return Path(p.source, q.target, p.arrows + q.arrows)


@dataclass(frozen=True)
class RelVector:
    """A linear combination of parallel paths, sum of coeff * path.

    Terms are stored sorted by (length, arrow names) so that equal vectors
    compare equal regardless of input order.
    """

    source: str
    target: str
    terms: tuple  # of (Path, rational), coeffs nonzero

    @staticmethod
    def build(terms):
        """terms: iterable of (path, coefficient). Validates parallelism."""
        agg = {}
        for path, coeff in terms:
            agg[path] = agg.get(path, 0) + QQ.of(coeff)
        clean = [(p, QQ.of(c)) for p, c in agg.items() if c != 0]
        if not clean:
            raise MalformedRelation("relation vector is zero")
        src = clean[0][0].source
        tgt = clean[0][0].target
        for p, _ in clean:
            if p.source != src or p.target != tgt:
                raise MalformedRelation(
                    "terms not parallel: %s vs %s" % (clean[0][0], p))
        clean.sort(key=lambda pc: (len(pc[0]), pc[0].arrows))
        return RelVector(src, tgt, tuple(clean))

    def check_admissible_format(self):
        for p, _ in self.terms:
            if len(p) < 2:
                raise MalformedRelation(
                    "relation term %s has length %d < 2" % (p, len(p)))

    def support(self):
        return [p for p, _ in self.terms]

    def __str__(self):
        return format_terms(self.terms)


def format_terms(terms):
    """`c*p + ...` for (path, coefficient) pairs, a coefficient 1 unwritten."""
    return " + ".join("%s*%s" % (c, p) if c != 1 else str(p)
                      for p, c in terms)


class BoundQuiver:
    """Vertices, arrows and relation generators, with declared order."""

    def __init__(self, vertices, arrows, relations=()):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex id")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a)
                            for a in arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow name")
        self.arrow_by_name = {a.name: a for a in self.arrows}
        for a in self.arrows:
            if a.source not in self.vertex_index or a.target not in self.vertex_index:
                raise QuiverError("arrow %s has undeclared endpoint" % a.name)
        self.arrows_from = {v: [] for v in self.vertices}
        self.arrows_to = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_from[a.source].append(a)
            self.arrows_to[a.target].append(a)
        coerced = []
        for rel in relations:
            if not isinstance(rel, RelVector):
                rel = RelVector.build([(self.path(names), c)
                                       for names, c in rel])
            coerced.append(rel)
        self.relations = tuple(coerced)
        for rel in self.relations:
            rel.check_admissible_format()
            for p, _ in rel.terms:
                self._check_path(p)

    def _check_path(self, p):
        at = p.source
        for name in p.arrows:
            a = self.arrow_by_name.get(name)
            if a is None:
                raise QuiverError("unknown arrow %r in path" % name)
            if a.source != at:
                raise QuiverError("path %s breaks at %r" % (p, name))
            at = a.target
        if at != p.target:
            raise QuiverError("path %s does not end at %s" % (p, p.target))

    def path(self, arrow_names, at=None):
        """Build a validated Path from arrow names (stationary needs `at`)."""
        names = tuple(arrow_names)
        if not names:
            assert at is not None, "stationary path needs a vertex"
            return Path(at, at, ())
        for name in names:
            if name not in self.arrow_by_name:
                raise QuiverError("unknown arrow %r" % name)
        src = self.arrow_by_name[names[0]].source
        tgt = self.arrow_by_name[names[-1]].target
        p = Path(src, tgt, names)
        self._check_path(p)
        return p

    def path_vertices(self, p):
        out = [p.source]
        for name in p.arrows:
            out.append(self.arrow_by_name[name].target)
        return out

    def is_acyclic(self):
        """No oriented cycle: peeling off vertices that no remaining arrow
        enters removes every vertex (iterative, so chains of any length
        are fine)."""
        indegree = {v: len(self.arrows_to[v]) for v in self.vertices}
        peeled = [v for v, d in indegree.items() if d == 0]
        for v in peeled:
            for a in self.arrows_from[v]:
                indegree[a.target] -= 1
                if indegree[a.target] == 0:
                    peeled.append(a.target)
        return len(peeled) == len(self.vertices)

    def is_connected(self):
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for a in self.arrows_from[v]:
                if a.target not in seen:
                    seen.add(a.target)
                    stack.append(a.target)
            for a in self.arrows_to[v]:
                if a.source not in seen:
                    seen.add(a.source)
                    stack.append(a.source)
        return len(seen) == len(self.vertices)


def path_sort_key(quiver, p):
    return (len(p), p.arrows, quiver.vertex_index[p.source])


class PathTable:
    """All paths of length <= L plus exact ideal slices per vertex pair.

    Attributes:
        quiver: the BoundQuiver
        bound: L, smallest certified length with every length-L path in I
        paths: all paths of length <= L, sorted by (length, names, source)
        index: path -> position in `paths`
        arrow_index: arrow names -> position in `paths`, paths of length
            >= 1 only (built on first read)
        pair_paths: (x, y) -> list of indices into `paths`
        local: position in `paths` -> position in its pair's list
        ideal_rows: (x, y) -> RREF basis of I(x, y) in pair-local
            coordinates: sparse rows {local index: rational}, each with
            a 1 at its pivot (its least index), in ascending pivot order
        in_ideal: set of indices of member paths
        dims: (x, y) -> dim e_x A e_y
    """

    def __init__(self, quiver, bound, paths, ideal_rows):
        self.quiver = quiver
        self.bound = bound
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}
        self.pair_paths = {}
        self.local = []
        for i, p in enumerate(paths):
            idxs = self.pair_paths.setdefault((p.source, p.target), [])
            self.local.append(len(idxs))
            idxs.append(i)
        self.ideal_rows = ideal_rows
        # in reduced row echelon form a combination of rows has the
        # coefficient of row i at row i's pivot, so a path's unit vector
        # is in the span exactly when it is one of the rows
        self.in_ideal = {self.pair_paths[pair][k]
                         for pair, rows in ideal_rows.items()
                         for row in rows if len(row) == 1 for k in row}
        self.dims = {pair: len(idxs) - len(ideal_rows.get(pair, ()))
                     for pair, idxs in self.pair_paths.items()}

    def pair_of(self, vec_terms):
        srcs = {p.source for p, _ in vec_terms}
        tgts = {p.target for p, _ in vec_terms}
        if len(srcs) != 1 or len(tgts) != 1:
            raise MalformedRelation("terms not parallel")
        return srcs.pop(), tgts.pop()

    def vector_in_ideal(self, terms):
        """Exact membership of sum(coeff * path) in the ideal.

        Paths longer than the bound are members outright and are dropped
        before solving (valid because F^L lies inside the ideal).  The
        rest is reduced by the slice's RREF rows, each pivot entry of the
        vector cleared by its row; a row has no entry at another pivot,
        so one pass over the vector's pivot entries leaves none, and the
        vector is in the slice exactly when nothing is left.
        """
        kept = [(p, QQ.of(c)) for p, c in terms
                if len(p) <= self.bound and c != 0]
        if not kept:
            return True
        pair = self.pair_of(kept)
        vec = {}
        for p, c in kept:
            if p not in self.index:
                self.quiver._check_path(p)  # diagnose: invalid vs just absent
                raise QuiverError("path %s exceeds table bound" % p)
            k = self.local[self.index[p]]
            vec[k] = vec.get(k, 0) + c
        rows = self.pivot_rows.get(pair, {})
        for c in [k for k in vec if k in rows]:
            f = vec[c]
            for k, x in rows[c].items():
                vec[k] = vec.get(k, 0) - f * x
        return not any(vec.values())

    @functools.cached_property
    def arrow_index(self):
        """Arrow-name tuple -> position in `paths`, for the non-stationary
        paths (their arrows determine them)."""
        return {p.arrows: i for i, p in enumerate(self.paths) if p.arrows}

    @functools.cached_property
    def pivot_rows(self):
        """(x, y) -> {pivot: row} over `ideal_rows`."""
        return {pair: {min(row): row for row in rows}
                for pair, rows in self.ideal_rows.items()}

    def path_in_ideal(self, p):
        if len(p) > self.bound:
            return True
        return self.index[p] in self.in_ideal

    def nonzero_paths(self):
        return [p for i, p in enumerate(self.paths) if i not in self.in_ideal]

    def paths_between(self, x, y):
        return [self.paths[i] for i in self.pair_paths.get((x, y), [])]


def _next_paths(quiver, bucket):
    """The one-arrow extensions of a list of paths of one length."""
    return [Path(p.source, a.target, p.arrows + (a.name,))
            for p in bucket for a in quiver.arrows_from[p.target]]


def enumerate_paths(quiver, cap=DEFAULT_PATH_CAP):
    """Find the nilpotency bound and build the PathTable.

    Tries L = 2, 3, ... up to `cap`; L is accepted once every path of
    length exactly L lies in the span of whole products u*g*v fitting in
    length L (vacuously when no such path exists, e.g. one past the
    longest path of an acyclic quiver, so the cap only guards cyclic
    searches).  Raises AdmissibilityError when no L <= cap works.

    Paths are enumerated one length at a time, as L grows.  Pair-local
    coordinates are sorted length first, so a path's coordinate never
    moves as L grows: each pair keeps one reduced basis that step L
    extends by the products whose longest term has length exactly L, and
    a length-L path is certified when its row is a unit vector.  At the
    accepted L the products whose longest term no longer fits are added
    with those terms dropped, which is exact once F^L <= I.
    """
    for rel in quiver.relations:
        rel.check_admissible_format()
    acyclic = quiver.is_acyclic()
    by_len = []
    ending, starting = {}, {}
    local = {}  # arrow names of a nonempty path -> pair-local index
    size = {(v, v): 1 for v in quiver.vertices}

    def grow():
        """Enumerate and index the paths one longer than the last bucket."""
        n = len(by_len)
        bucket = (_next_paths(quiver, by_len[-1]) if by_len
                  else [Path(v, v, ()) for v in quiver.vertices])
        bucket.sort(key=lambda p: p.arrows)
        by_len.append(bucket)
        for p in bucket:
            ending.setdefault((p.target, n), []).append(p)
            starting.setdefault((p.source, n), []).append(p)
            if n:
                pair = (p.source, p.target)
                local[p.arrows] = size.get(pair, 0)
                size[pair] = local[p.arrows] + 1

    basis = {}  # (x, y) -> {pivot: row}, reduced

    def extend(L, truncated):
        """Add the products u*g*v whose longest term has length exactly L,
        or with `truncated` those whose longest term no longer fits in L,
        its terms longer than L dropped."""
        new = {}
        for rel in quiver.relations:
            shortest, longest = len(rel.terms[0][0]), len(rel.terms[-1][0])
            outer = (range(max(0, L - longest + 1), L - shortest + 1)
                     if truncated else [L - longest])
            for s in outer:
                fits = [(p.arrows, c) for p, c in rel.terms
                        if len(p) + s <= L]
                for a in range(s + 1):
                    for u in ending.get((rel.source, a), ()):
                        for v in starting.get((rel.target, s - a), ()):
                            new.setdefault((u.source, v.target), []).append(
                                {local[u.arrows + g + v.arrows]: c
                                 for g, c in fits})
        for pair, rows in new.items():
            extend_rref(basis.setdefault(pair, {}), rows)

    for L in itertools.count(2):
        if L > cap and not acyclic:
            raise AdmissibilityError(
                "no nilpotency bound L <= %d certifies the ideal admissible; "
                "raise the path cap if the quiver is genuinely bounded"
                % cap)
        while len(by_len) <= L:
            grow()
        extend(L, truncated=False)
        # the length-L paths come last in their pairs, so when all of them
        # are pivots their rows are unit vectors
        if all(local[p.arrows] in basis.get((p.source, p.target), ())
               for p in by_len[L]):
            break
    extend(L, truncated=True)
    paths = [p for bucket in by_len[:L + 1] for p in bucket]
    paths.sort(key=lambda p: path_sort_key(quiver, p))
    return PathTable(quiver, L, paths,
                     {pair: [b[c] for c in sorted(b)]
                      for pair, b in basis.items() if b})


@dataclass(frozen=True)
class AlgebraProperties:
    dims: dict
    nilpotency_bound: int
    admissible: bool
    connected: bool
    triangular: bool
    almost_triangular: bool
    schurian: bool
    semi_commutative: bool
    constricted: bool
    euler_characteristic: int
    total_dimension: int


def _pairs_with_paths_beyond(quiver, bound):
    """Vertex pairs joined by some path strictly longer than the bound.

    Only lengths bound+1 .. bound+|Q_0| need checking: a longer walk
    contains a cycle whose removal shortens it by at most |Q_0|, so its
    length can be pumped down into that window without crossing bound.
    """
    limit = bound + len(quiver.vertices)
    ends = {v: {v} for v in quiver.vertices}
    out = set()
    for length in range(1, limit + 1):
        ends = {v: {a.target for u in ts for a in quiver.arrows_from[u]}
                for v, ts in ends.items()}
        if length > bound:
            for v, ts in ends.items():
                for t in ts:
                    out.add((v, t))
    return out


def algebra_properties(table):
    """Dimension table and standard flags of A = kQ/I.

    Semi-commutativity compares ideal membership across every parallel
    pair of paths (stationary paths included).  Paths longer than the
    table bound lie in the ideal outright, so a pair carrying both a
    nonzero path and any longer parallel path is mixed even though the
    table never stores the long one.
    """
    q = table.quiver
    dims = dict(table.dims)
    for x in q.vertices:
        for y in q.vertices:
            dims.setdefault((x, y), 0)
    triangular = q.is_acyclic()
    connected = q.is_connected()
    schurian = all(d <= 1 for d in dims.values())
    semi_commutative = True
    for pair, idxs in table.pair_paths.items():
        flags = {i in table.in_ideal for i in idxs}
        if len(flags) > 1:
            semi_commutative = False
            break
    if semi_commutative:
        long_pairs = _pairs_with_paths_beyond(q, table.bound)
        if any(dims.get(pair, 0) > 0 for pair in long_pairs):
            semi_commutative = False
    constricted = all(dims[(a.source, a.target)] == 1 for a in q.arrows)
    rad = {}
    for (x, y), d in dims.items():
        rad[(x, y)] = d - 1 if x == y else d
    almost_triangular = True
    for x in q.vertices:
        for y in q.vertices:
            if rad[(x, y)] > 0 and rad[(y, x)] > 0:
                almost_triangular = False
    euler = 1 - len(q.vertices) + len(q.arrows)
    return AlgebraProperties(
        dims=dims,
        nilpotency_bound=table.bound,
        admissible=True,
        connected=connected,
        triangular=triangular,
        almost_triangular=almost_triangular,
        schurian=schurian,
        semi_commutative=semi_commutative,
        constricted=constricted,
        euler_characteristic=euler,
        total_dimension=sum(dims.values()),
    )
