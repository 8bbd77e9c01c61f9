"""Bound quivers, path enumeration and ideal membership.

A bound quiver is a finite directed multigraph together with an admissible
ideal of its path algebra, given by a finite list of relation vectors.
Paths compose left to right: in the product ``w = a1 a2`` the arrow ``a1``
is traversed first, so ``source(w) = source(a1)`` and
``target(w) = target(a2)``.

The central computed object is a :class:`PathTable`: all paths of length
at most a bound L (the least length at which every path lies in the
ideal, so the quotient algebra sees nothing longer), together
with, for each ordered vertex pair, an exact basis of the ideal's slice on
those paths.  All downstream questions (is this combination of paths in
the ideal, what is dim e_x A e_y, ...) reduce to exact rational linear
algebra against these slices.  The table keeps each path as its position,
its arrow word and its two ends (`words`, `sources`, `targets`); a
`Path` object per position is built only when a reader asks for `paths`.

The table comes from a Groebner basis of the ideal (Buchberger-Mora;
Mora 1986, Green 1999), kept as rewriting rules tip -> tail: the tip is
the greatest term of an element of I in the `path_sort_key` order
(length, then arrow names) and tip - tail lies in I.  A path in which no
tip occurs is normal; every path p has a normal form NF(p), and p - NF(p)
lies in I.  Overlaps of two tips are resolved shortest overlap word
first, and a bound L is certified once every path of length L reduces
to 0 (reduction by elements of I is a sound certificate of F^L <= I).
The rules then reduce exactly modulo I on the paths of length <= L (see
`enumerate_paths` for why).  The bound reported is the least L >= 2
whose paths all reduce to 0, and each pair's ideal slice has the
reduced basis p - NF(p) over the reducible paths p of length <= L:
sparse rows {table index: rational}, each with a 1 at its pivot p, its
greatest index, kept by pivot in ascending order.  Like every coefficient
here, a rational is an int unless its denominator is not 1, when it is
a Fraction (see `linalg`).

When every relation is a single path, `monomial_path_counts` counts the
nonzero paths by length without a table, on the automaton of the
relations' paths as written: a path holding a relation that holds a
shorter one holds the shorter one too, so the tips need not be minimal.
On a cyclic quiver it refuses as the table does, so `enumerate_paths`
calls it first there and lists no word of an unbounded one.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass

from .linalg import QQ

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
            c = QQ.of(coeff)
            n = len(agg)
            was = agg.setdefault(path, c)  # hashes the path once
            if len(agg) == n:  # the path came before: add up
                agg[path] = QQ.of(was + c)
        clean = [(p, c) for p, c in agg.items() if c != 0]
        if not clean:
            raise MalformedRelation("relation vector is zero")
        src = clean[0][0].source
        tgt = clean[0][0].target
        for p, _ in clean:
            if p.source != src or p.target != tgt:
                raise MalformedRelation(
                    "terms not parallel: %s vs %s" % (clean[0][0], p))
        if len(clean) > 1:
            clean.sort(key=lambda pc: (len(pc[0].arrows), pc[0].arrows))
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
    """Vertices, arrows and relation generators, with declared order.

    `BoundQuiver(vertices, arrows, relations)` checks everything: the
    vertex ids and arrow names are unique, every arrow end is declared,
    and every relation has the admissible format (terms parallel, each of
    length >= 2) with every term a path of the quiver.  Arrows may be
    given as (name, source, target) and relations as lists of (arrow
    names, coefficient).  `BoundQuiver._trusted(vertices, arrows,
    relations)` takes `Arrow`s and `RelVector`s and checks only the arrow
    ends, which indexing the arrows by end needs: `dsl.parse` builds
    through it, having made every one of these checks with a line and
    column.
    """

    def __init__(self, vertices, arrows, relations=()):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise QuiverError("duplicate vertex id")
        arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a)
                       for a in arrows)
        if len({a.name for a in arrows}) != len(arrows):
            raise QuiverError("duplicate arrow name")
        self._index(vertices, arrows, ())
        self.relations = tuple(
            rel if isinstance(rel, RelVector) else
            RelVector.build([(self.path(names), c) for names, c in rel])
            for rel in relations)
        for rel in self.relations:
            rel.check_admissible_format()
            for p, _ in rel.terms:
                self._check_path(p)

    @classmethod
    def _trusted(cls, vertices, arrows, relations):
        """The quiver of parts that `dsl.parse` has checked; only the
        arrow ends are looked at again, by the indexing."""
        quiver = cls.__new__(cls)
        quiver._index(tuple(vertices), tuple(arrows), tuple(relations))
        return quiver

    def _index(self, vertices, arrows, rels):
        """Keep the parts and index the arrows by name and by end, which
        needs every arrow end declared."""
        self.vertices, self.arrows, self.relations = vertices, arrows, rels
        self.vertex_index = {v: i for i, v in enumerate(vertices)}
        self.arrow_by_name = {a.name: a for a in arrows}
        self.arrows_from = out = {v: [] for v in vertices}
        self.arrows_to = into = {v: [] for v in vertices}
        for a in arrows:
            if a.source not in out or a.target not in into:
                raise QuiverError("arrow %s has undeclared endpoint" % a.name)
            out[a.source].append(a)
            into[a.target].append(a)

    def _check_path(self, p):
        if p.source not in self.vertex_index:
            raise QuiverError("unknown vertex %r in path" % p.source)
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
            if at is None:
                raise AssertionError("stationary path needs a vertex")
            return Path(at, at, ())
        for name in names:
            if name not in self.arrow_by_name:
                raise QuiverError("unknown arrow %r" % name)
        src = self.arrow_by_name[names[0]].source
        tgt = self.arrow_by_name[names[-1]].target
        p = Path(src, tgt, names)
        self._check_path(p)
        return p

    def peel_order(self):
        """The vertices removed by peeling off, again and again, those
        that no remaining arrow enters, in the order they go: all of
        them, in an order in which every arrow leads forward, exactly
        when there is no oriented cycle (iterative, so chains of any
        length are fine)."""
        indegree = {v: len(self.arrows_to[v]) for v in self.vertices}
        peeled = [v for v, d in indegree.items() if d == 0]
        for v in peeled:
            for a in self.arrows_from[v]:
                indegree[a.target] -= 1
                if indegree[a.target] == 0:
                    peeled.append(a.target)
        return peeled

    def is_acyclic(self):
        """No oriented cycle: peeling removes every vertex."""
        return len(self.peel_order()) == len(self.vertices)

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


def in_vertex_order(quiver, pairs):
    """The vertex pairs sorted by the quiver's order of their ends."""
    index = quiver.vertex_index
    return sorted(pairs, key=lambda xy: (index[xy[0]], index[xy[1]]))


class PathTable:
    """All paths of length <= L plus exact ideal slices per vertex pair.

    Attributes:
        quiver: the BoundQuiver
        bound: L, the least length >= 2 with every length-L path in I
        words: the arrow names of each path of length <= L, sorted by
            (length, names, source); the stationary paths come first, in
            vertex order, each with the empty word
        sources, targets: the end vertices of each path
        paths: the `Path` of each position (built on first read); a path
            is its position here (see `position`)
        arrow_index: arrow names -> position, paths of length >= 1 only
        pair_paths: (x, y) -> list of positions
        ideal_rows: (x, y) -> reduced basis of I(x, y), one row p - NF(p)
            per reducible path p, as {p: row} in ascending order of p:
            sparse rows {position: rational}, each with a 1 at its pivot
            p (its greatest position, the tip) and its other entries at
            normal paths
        in_ideal: set of positions of member paths
        dims: (x, y) -> dim e_x A e_y
    """

    def __init__(self, quiver, bound, words, nf):
        """Number the `words` (all paths of length <= bound, in table
        order) per pair and write the rows p - NF(p) off `nf`, the normal
        forms of the reducible ones among them, in table order."""
        self.quiver, self.bound, self.words = quiver, bound, words
        nv = len(quiver.vertices)
        rest = words[nv:]
        source = {a.name: a.source for a in quiver.arrows}
        target = {a.name: a.target for a in quiver.arrows}
        self.sources = list(quiver.vertices) + [source[w[0]] for w in rest]
        self.targets = list(quiver.vertices) + [target[w[-1]] for w in rest]
        # the arrows of a path of length >= 1 determine it
        self.arrow_index = dict(zip(rest, itertools.count(nv)))
        pairs = list(zip(self.sources, self.targets))
        pair_paths = {}
        for i, pair in enumerate(pairs):
            pair_paths.setdefault(pair, []).append(i)
        # nf lists the reducible words of the table in table order, so
        # each pair's rows come in ascending pivot order; a normal form
        # holds words of the table that precede its own
        at = self.arrow_index
        rows, in_ideal = {}, set()
        for i, f in zip(map(at.__getitem__, nf), nf.values()):
            if f:
                row = {at[z]: -c for z, c in f.items()}
                row[i] = 1
            else:
                row = {i: 1}
                in_ideal.add(i)
            rows.setdefault(pairs[i], {})[i] = row
        self.pair_paths = pair_paths
        self.ideal_rows, self.in_ideal = rows, in_ideal
        self.dims = {pair: len(idxs) - len(rows.get(pair, ()))
                     for pair, idxs in pair_paths.items()}

    @functools.cached_property
    def paths(self):
        """The `Path` at each position."""
        return list(map(Path, self.sources, self.targets, self.words))

    def vector_in_ideal(self, terms):
        """Exact membership of sum(coeff * path) in the ideal.

        Paths longer than the bound are members outright and are dropped
        before solving (valid because F^L lies inside the ideal).  The
        rest is reduced by the slice's basis rows, each pivot entry of the
        vector cleared by its row; a row has no entry at another pivot,
        so one pass over the vector's pivot entries leaves none, and the
        vector is in the slice exactly when nothing is left.  A term that
        is not a path of the quiver raises QuiverError.
        """
        for p, _ in terms:
            if len(p) > self.bound:
                self.quiver._check_path(p)
        kept = [(p, QQ.of(c)) for p, c in terms
                if len(p) <= self.bound and c != 0]
        if not kept:
            return True
        pairs = {(p.source, p.target) for p, _ in kept}
        if len(pairs) != 1:
            raise MalformedRelation("terms not parallel")
        pair, = pairs
        vec = {}
        for p, c in kept:
            k = self._locate(p)
            vec[k] = vec.get(k, 0) + c
        rows = self.ideal_rows.get(pair, {})
        for c in [k for k in vec if k in rows]:
            f = vec[c]
            for k, x in rows[c].items():
                vec[k] = vec.get(k, 0) - f * x
        return not any(vec.values())

    def position(self, p):
        """Position of the path p, None when p is not one of the table's:
        a path with arrows is found by its arrow names, a stationary one
        at its vertex, and either must have the ends of the table's path
        there."""
        i = (self.arrow_index.get(p.arrows) if p.arrows
             else self.quiver.vertex_index.get(p.source))
        return i if i is not None and (self.sources[i], self.targets[i]) \
            == (p.source, p.target) else None

    def _locate(self, p):
        """`position` of p; QuiverError when p is not a path of the quiver
        or is longer than the bound."""
        i = self.position(p)
        if i is None:
            self.quiver._check_path(p)  # diagnose: invalid vs just absent
            raise QuiverError("path %s exceeds table bound" % p)
        return i


def _word_key(word):
    """`path_sort_key` order on the arrow names of parallel paths."""
    return len(word), word


def _occurs(inner, word):
    n = len(inner)
    return any(word[i:i + n] == inner for i in range(len(word) - n + 1))


class _Rewriting:
    """Rewriting rules tip -> tail for the ideal, grown by Buchberger.

    An element of the path algebra is a dict {arrow names: rational}.  A
    rule stores the monic element tip - tail of I whose greatest term is
    the tip; no tip occurs inside another, so a word is normal when no
    tip occurs in it.  `pairs` queues the overlaps of two tips, shortest
    overlap word first; an overlap of two monomial rules resolves to 0
    and is never queued.  `changes` counts the rules stored, so normal
    forms read off earlier rules can be told stale.
    """

    def __init__(self, quiver):
        self.tails = {}
        self.lengths = []  # the tips' lengths, ascending
        self._holding = {a.name: set() for a in quiver.arrows}
        self.pairs = []
        self._seq = itertools.count()
        self.changes = 0

    def _first_tip(self, w):
        """(start, length) of the first tip in w, shortest tips first;
        None when w is normal."""
        return next(((i, n) for n in self.lengths
                     for i in range(len(w) - n + 1)
                     if w[i:i + n] in self.tails), None)

    def _store(self, tip, tail):
        """Store the rule tip -> tail."""
        self.tails[tip] = tail
        for a in set(tip):
            self._holding[a].add(tip)
        if len(tip) not in self.lengths:
            self.lengths = sorted(self.lengths + [len(tip)])
        self.changes += 1

    def reduce(self, elem):
        """Normal form of an element: its greatest reducible term is
        rewritten at its first tip until no term is reducible."""
        todo = {w: QQ.of(c) for w, c in elem.items() if c}
        out = {}
        while todo:
            w = max(todo, key=_word_key)
            c = todo.pop(w)
            at = self._first_tip(w)
            if at is None:
                out[w] = c
                continue
            i, n = at
            for z, x in self.tails[w[i:i + n]].items():
                z = w[:i] + z + w[i + n:]
                y = QQ.of(todo.get(z, 0) + c * x)
                if y:
                    todo[z] = y
                else:
                    del todo[z]
        return out

    def _drop(self, tip):
        """Remove a rule and return its element tip - tail."""
        tail = self.tails.pop(tip)
        for a in set(tip):
            self._holding[a].discard(tip)
        self.lengths = sorted({len(t) for t in self.tails})
        elem = {w: -c for w, c in tail.items()}
        elem[tip] = 1
        return elem

    def _queue(self, left, right):
        """Queue the overlaps of a suffix of `left` with a prefix of
        `right`."""
        if not (self.tails[left] or self.tails[right]):
            return
        for k in range(1, min(len(left), len(right))):
            if left[-k:] == right[:k]:
                heapq.heappush(self.pairs, (len(left) + len(right) - k,
                                            next(self._seq), left, right, k))

    def add(self, elems):
        """Store the normal forms of elements of I as rules.  A rule whose
        tip holds the new tip gives way, its element going back on the
        worklist, and the new rule's overlaps are queued.

        When there are no rules yet and every element is a single path,
        the paths are stored as they stand, with empty tails, shortest
        first, each one left out that holds a path already stored: so
        only the minimal ones are kept, and two of them have no overlap
        to queue, as it resolves to 0."""
        todo = list(elems)
        if not self.tails and all(len(h) == 1 for h in todo):
            for w in sorted(set().union(*todo), key=_word_key):
                if self._first_tip(w) is None:
                    self._store(w, {})
            return
        while todo:
            h = self.reduce(todo.pop())
            if not h:
                continue
            tip = max(h, key=_word_key)
            inv = QQ.inv(h.pop(tip))
            near = sorted(set().union(*(self._holding[a] for a in tip)),
                          key=_word_key)
            for t in near:
                if _occurs(tip, t):
                    todo.append(self._drop(t))
            self._store(tip, {w: QQ.of(-inv * c) for w, c in h.items()})
            self._queue(tip, tip)
            for t in near:
                if t in self.tails:
                    self._queue(tip, t)
                    self._queue(t, tip)

    def resolve(self, limit):
        """Resolve the queued overlaps whose words have length <= limit:
        the two rewritings of the overlap word differ by an element of I,
        which is stored unless it reduces to 0."""
        while self.pairs and self.pairs[0][0] <= limit:
            _, _, left, right, k = heapq.heappop(self.pairs)
            if left not in self.tails or right not in self.tails:
                continue
            u, v = left[:len(left) - k], right[k:]
            diff = {z + v: x for z, x in self.tails[left].items()}
            for z, x in self.tails[right].items():
                diff[u + z] = diff.get(u + z, 0) - x
            self.add([diff])


def _expand(terms, nf):
    """The sum of c * NF(w) over the (w, c) of `terms`, reading normal
    forms off `nf` (a word missing from it is normal)."""
    out = {}
    for w, c in terms:
        f = nf.get(w)
        for y, x in f.items() if f is not None else ((w, 1),):
            out[y] = out.get(y, 0) + c * x
    return {y: QQ.of(x) for y, x in out.items() if x}


def _normal_forms(rules, bucket, nf):
    """Record the normal forms of a bucket's reducible words in nf, keyed
    by arrow names; normal words are left out.  Shorter paths and earlier
    paths of the bucket must be recorded already.  Filled bucket after
    bucket by length, nf lists the reducible words in table order, which
    `PathTable` reads its ideal rows off.

    A path w = q*a has NF(w) = NF(NF(q)*a).  When q is normal, a tip can
    occur in w only as a suffix, and there is at most one such tip (of
    two suffixes the shorter lies in the longer); rewriting it gives
    words less than w, whose forms are recorded.
    """
    tails, lengths = rules.tails, rules.lengths
    for w in bucket:
        head = nf.get(w[:-1])
        if head is None:
            for n in lengths:
                if n > len(w):
                    break
                tail = tails.get(w[-n:])
                if tail is not None:
                    u = w[:-n]
                    nf[w] = _expand(((u + z, x) for z, x in tail.items()),
                                    nf) if tail else {}
                    break
        elif head:
            a = w[-1:]
            nf[w] = _expand(((z + a, c) for z, c in head.items()), nf)
        else:
            nf[w] = {}


def _unbounded(quiver, cap, witness):
    """The AdmissibilityError of a cyclic quiver with the arrow word
    `witness`, a path of length `cap` outside I (None below a cap of 2,
    where every path is normal)."""
    if witness is None:
        witness = (quiver.arrows[0].name,)[:cap]
    witness = quiver.path(witness, at=quiver.arrows[0].source)
    return AdmissibilityError(
        "no nilpotency bound L <= %d certifies the ideal admissible: "
        "the path %s of length %d does not reduce to 0; raise the "
        "path cap if the quiver is genuinely bounded"
        % (cap, witness, len(witness)))


def enumerate_paths(quiver, cap=DEFAULT_PATH_CAP):
    """Find the nilpotency bound and build the PathTable.

    Paths are enumerated one length at a time as arrow words, each word
    extended by the arrows at its end in name order, so the table is in
    `path_sort_key` order as it grows.  For L = 2, 3, ... the overlaps of
    the rules (`_Rewriting`) with words of length <= L are resolved, and
    L is certified once every path of length L has normal form 0
    (vacuously when there is none, e.g. one past the longest path of an
    acyclic quiver, so the cap only guards cyclic searches).  Raises
    AdmissibilityError, naming a path of length `cap` whose normal form
    is not 0, when no L <= cap works.  A cyclic quiver whose relations
    are single paths is refused first by `monomial_path_counts`, with
    the same error, before any word is listed: a quiver with no relation
    has k^L words of length L on k loops.

    At a certified L the rules already reduce exactly modulo I on the
    paths of length <= L, with words of length >= L read as 0.  With
    every overlap of length <= L resolved, each element of V_L, the span
    of the products u*g*v of rules whose word u*tip*v has length <= L,
    reduces to 0 (Buchberger's criterion, cut at length L).  A length-L
    path P reduced to 0, so P lies in V_L, and so does u*tail*v =
    P - u*(tip - tail)*v for every tip inside P = u*tip*v.  So every
    ambiguity the words of length L add resolves to 0, overlaps past L
    included, and by the diamond lemma (Bergman 1978) the normal forms
    are unique: a path lies in I exactly when it reduces to 0.  The bound
    is the least L' >= 2 whose paths all have normal form 0.
    """
    acyclic = quiver.is_acyclic()
    if not acyclic:
        monomial_path_counts(quiver, cap)
    rules = _Rewriting(quiver)
    rules.add({p.arrows: c for p, c in rel.terms}
              for rel in quiver.relations)
    # the one-letter words of the arrows that can follow each arrow
    follow = {a.name: sorted((b.name,) for b in quiver.arrows_from[a.target])
              for a in quiver.arrows}
    by_len = [[()] * len(quiver.vertices),
              sorted((a.name,) for a in quiver.arrows)]
    nf, seen, done = {}, None, 2

    def refresh(L):
        """Normal forms of all paths of length 2 .. L under the rules."""
        nonlocal seen, done
        if rules.changes != seen:
            nf.clear()
            seen, done = rules.changes, 2
        while done <= L:
            _normal_forms(rules, by_len[done], nf)
            done += 1

    witness = None
    for L in itertools.count(2):
        if L > cap and not acyclic:
            raise _unbounded(quiver, cap, witness)
        while len(by_len) <= L:
            by_len.append([w + b for w in by_len[-1] for b in follow[w[-1]]])
        rules.resolve(L)
        refresh(L)
        witness = next((w for w in by_len[L] if nf.get(w) != {}), None)
        if witness is None:
            break
    bound = next(n for n in range(2, L + 1)
                 if all(nf.get(w) == {} for w in by_len[n]))
    if bound < L:  # the longer words are not in the table
        nf = {w: f for w, f in nf.items() if len(w) <= bound}
    return PathTable(quiver, bound,
                     list(itertools.chain.from_iterable(by_len[:bound + 1])),
                     nf)


def monomial_path_counts(quiver, cap=DEFAULT_PATH_CAP):
    """{m: the number of nonzero paths of length m >= 1} when every
    relation is a single path, with no path table; None otherwise.

    The ideal is then monomial, and a path is nonzero exactly when no
    relation's path, a tip, occurs in it.  The tips are the relations as
    written, minimal or not: a path that holds a tip holding another tip
    holds that other one too, so the minimal tips alone leave the same
    nonzero paths.  These are counted by length on the Ufnarovski graph
    (Ufnarovski 1995), the vertices crossed with the Aho-Corasick
    automaton of the tips (Aho and Corasick 1975): one dynamic program
    over (vertex, state), the state being the longest suffix of the word
    read that is a proper prefix of a tip, for any finite set of tips.  It
    starts from the stationary paths and extends a word by each arrow at
    its end, so it first lists the arrows, all nonzero, as a tip has
    length >= 2.  A tip in the longer word would be a suffix of it, whose
    part before the last arrow is a suffix of the word read and a prefix
    of that tip, so a suffix of its state: the extension is dropped when
    a tip ends the state and the arrow, and by the same argument its
    state is the longest suffix of the state and the arrow that is a
    proper prefix of a tip.  A nonzero path has nonzero prefixes, so the
    walk ends once a length has no word, which happens by itself on an
    acyclic quiver.

    A cyclic quiver is refused as `enumerate_paths` refuses it: with the
    same AdmissibilityError, when a nonzero path of length `cap` exists,
    naming the least such path in table order (arrow names compared one
    by one), found by taking at each step the least arrow after which
    the word still lengthens to `cap`; that path is read off the nonzero
    paths alone, whichever tips are given.
    """
    if any(len(rel.terms) != 1 for rel in quiver.relations):
        return None
    if cap < 2 and not quiver.is_acyclic():
        raise _unbounded(quiver, cap, None)
    tips = {rel.terms[0][0].arrows for rel in quiver.relations}
    # the states: () and every proper prefix of a tip
    prefixes = {tip[:k] for tip in tips for k in range(len(tip))} | {()}
    moves = {}

    def grow(key):
        """(arrow name, key) of each nonzero one-arrow extension."""
        out = moves.get(key)
        if out is None:
            v, state = key
            out = moves[key] = []
            for a in quiver.arrows_from[v]:
                word = state + (a.name,)
                for k in range(len(word) - 1):  # the suffixes of length >= 2
                    if word[k:] in tips:
                        break
                else:
                    for k in range(len(word) + 1):
                        if word[k:] in prefixes:
                            out.append((a.name, (a.target, word[k:])))
                            break
        return out

    # levels[m]: the number of nonzero words of length m at each key
    levels = [dict.fromkeys(((v, ()) for v in quiver.vertices), 1)]
    while True:
        level = {}
        for key, k in levels[-1].items():
            for _, nxt in grow(key):
                level[nxt] = level.get(nxt, 0) + k
        if not level:
            return {m: sum(words.values())
                    for m, words in enumerate(levels) if m}
        levels.append(level)
        if len(levels) == cap + 1 and not quiver.is_acyclic():
            # ahead[m]: the keys at length m + 1 that lengthen to cap
            ahead = [set(level)]
            for shorter in reversed(levels[1:-1]):
                ahead.insert(0, {key for key in shorter if any(
                    nxt in ahead[0] for _, nxt in grow(key))})
            witness, at = [], levels[0]
            for reach in ahead:
                name, nxt = min(move for key in at for move in grow(key)
                                if move[1] in reach)
                witness.append(name)
                at = (nxt,)
            raise _unbounded(quiver, cap, witness)


@dataclass(frozen=True)
class AlgebraProperties:
    dims: dict  # (x, y) -> dim e_x A e_y; a missing pair means 0
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


def algebra_properties(table):
    """Dimension table and standard flags of A = kQ/I.

    A is semi-commutative when no vertex pair carries both a path in I
    and a path outside it (stationary paths and paths longer than the
    table bound included).  A pair carries a path outside I exactly when
    dim e_x A e_y > 0.  The pairs joined by a path in I are the closure
    of the member paths' ends under appending an arrow: a product of a
    member and an arrow is a member, since I is an ideal, and a path
    longer than the bound L has a length-L prefix, which is a member by
    the choice of L.  So A is semi-commutative exactly when no pair of
    that closure has a nonzero dimension; from each source the closure
    is the set of vertices reachable from its members' targets.  With an
    oriented cycle through x there is no closure to search: the pair
    (x, x) carries e_x and the cycle's powers, which lie in I from the
    bound on.  Without one, every arrow leads forward in the peel order,
    so a source's search leaves out the vertices after all of its
    nonzero targets.
    """
    q = table.quiver
    dims = dict(table.dims)
    order = q.peel_order()
    triangular = len(order) == len(q.vertices)
    connected = q.is_connected()
    schurian = all(d <= 1 for d in dims.values())
    ends = {}
    for i in table.in_ideal:
        ends.setdefault(table.sources[i], set()).add(table.targets[i])
    nonzero = {}
    for (x, y), d in dims.items():
        if d:
            nonzero.setdefault(x, set()).add(y)
    position = dict(zip(order, itertools.count()))
    semi_commutative = triangular
    # no vertex after all of x's nonzero targets leads to one, so on a long
    # chain each search stays within a few vertices
    while semi_commutative and ends:
        x, starts = ends.popitem()
        last = max(map(position.__getitem__, nonzero[x]))
        reached = {v for v in starts if position[v] <= last}
        todo = list(reached)
        while todo:
            for a in q.arrows_from[todo.pop()]:
                if a.target not in reached and position[a.target] <= last:
                    reached.add(a.target)
                    todo.append(a.target)
        semi_commutative = not reached & nonzero[x]
    constricted = all(dims[(a.source, a.target)] == 1 for a in q.arrows)
    rad = {(x, y): d - (x == y) for (x, y), d in dims.items()}
    almost_triangular = not any(r > 0 and rad.get((y, x), 0) > 0
                                for (x, y), r in rad.items())
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
