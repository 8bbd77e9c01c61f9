"""Homotopy of bound quivers: minimal relations, path classes, pi_1.

A minimal relation is an ideal member sum(lambda_i w_i) with at least two
terms such that no proper nonempty sub-sum stays in the ideal.  Natural
homotopy is the finest equivalence on paths that merges co-members of
every minimal relation and is closed under two-sided composition (a
congruence).  Walk homotopy additionally inverts arrows: it is natural
homotopy plus the cancellation rules a a^-1 ~ e and a^-1 a ~ e on walks.

Chains of minimal-relation co-members are read off without enumerating
any relation: for each vertex pair (x, y) they are the connected
components of the matroid of W = I(x, y) restricted to the nonzero
paths, found from the fundamental circuits of the table's reduced basis
of W (`relation_components`).  The support search `minimal_relation_supports`
and the exact minimality check `is_minimal_relation` are kept only as an
oracle for tests.

Natural classes are computed on the path table by congruence closure
over one-arrow extensions.  They are exact unless a class holds a member
of the bound length L while a shorter member still extends inside the
table; that class is then named in a caveat.  The same closure, taking
the co-member pairs shortest first, finds the pairs that join two
classes; `pi1_presentation` lists the spanning tree and one relator per
join, since every other co-member relator is a product of conjugates of
those (`_closure`).  Two parallel paths u, v are walk-homotopic exactly
when they are equal in the fundamental groupoid of (Q, I), that is when
the word u v^-1 is trivial in the fundamental group presented by
`pi1_presentation`.  Walk classes start
from the natural classes, whose merges are sound, and decide every
remaining pair of parallel classes on the Tietze-simplified
presentation: the pair merges when the word freely reduces to nothing or
the group is cyclic with the word dead in H_1, and stays apart when H_1
separates it (an SNF certificate) or the group is free.  A pair none of
these decide stays apart and is named in a caveat.

The van Kampen pieces present their groups from the parent's table.
Both pieces are checked convex first, and a convex full subquiver, like
the intersection of two, holds every path between two of its vertices;
so its slices I(x, y), and with them its matroid components and the
joins among them, are the parent's.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass

from .core import (BoundQuiver, NotConnectedError, Path, QuiverError,
                   in_vertex_order)
from .linalg import QQ, nullspace, rank, smith_divisors

DEFAULT_SUPPORT_CAP = 6
MINIMALITY_CHECK_CAP = 12
# relators longer than this are neither deduplicated nor canonicalised
DEDUPE_BOUND = 16


class SupportTooLarge(Exception):
    """Minimality check would need more than 2^cap sub-sum tests."""


class HypothesisViolated(Exception):
    """A decomposition hypothesis fails; carries a human-readable witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class MinimalRelation:
    source: str
    target: str
    terms: tuple  # (Path, int), every proper sub-sum outside I

    def support(self):
        return [p for p, _ in self.terms]

    def __str__(self):
        return " + ".join("%s*%s" % (c, p) for p, c in self.terms)


def is_minimal_relation(table, terms, cap=MINIMALITY_CHECK_CAP):
    """Exact minimality oracle: 2^m - 2 sub-sum membership tests."""
    clean = [(p, QQ.of(c)) for p, c in terms if c != 0]
    m = len(clean)
    if m > cap:
        raise SupportTooLarge(
            "support size %d exceeds the oracle cap %d" % (m, cap))
    if m < 2:
        return False
    if not table.vector_in_ideal(clean):
        return False
    for size in range(1, m):
        for sub in itertools.combinations(clean, size):
            if table.vector_in_ideal(list(sub)):
                return False
    return True


def _pair_vectors_supported_in(table, pair, allowed_local):
    """Basis of {v in I(x,y) : support(v) within allowed local coords},
    as dense vectors whose coordinates follow `pair_paths[pair]`."""
    rows = table.ideal_rows.get(pair)
    if not rows:
        return []
    idxs = table.pair_paths[pair]
    ncols = len(idxs)
    rows = [[row.get(i, 0) for i in idxs] for row in rows.values()]
    forbidden = [j for j in range(ncols) if j not in allowed_local]
    if not forbidden:
        return rows
    # solve sum(c_i row_i)[j] = 0 for all forbidden j
    constraint = [[row[j] for row in rows] for j in forbidden]
    combos = nullspace(constraint, QQ)
    out = []
    for c in combos:
        vec = [0] * ncols
        for ci, row in zip(c, rows):
            if ci != 0:
                vec = [a + ci * b for a, b in zip(vec, row)]
        if any(x != 0 for x in vec):
            out.append(vec)
    return out


def minimal_relation_supports(table, support_cap=DEFAULT_SUPPORT_CAP):
    """Enumerate minimal relations, one per achievable support set.

    For each vertex pair and each set S of nonzero parallel paths with
    2 <= |S| <= support_cap, decides whether a minimal relation with
    support exactly S exists, and if so emits one (primitive integer
    coefficients, positive on the least path).  Existence is decided by
    the split criterion: writing V_T for the ideal vectors supported
    inside T, a vector of support S avoiding every sub-sum exists iff no
    coordinate of S vanishes on all of V_S and no split S = J | S-J has
    dim V_J + dim V_{S-J} = dim V_S.  A witness vector is then found by
    a deterministic Vandermonde sweep and re-certified with the exact
    minimality oracle.

    Returns (relations, warnings): warnings lists vertex pairs whose
    nonzero path count exceeds the cap, in which case larger supports
    were not searched (the enumeration may be incomplete there).

    The search costs a nullspace and up to 2^(|S|-1) split ranks per
    support, so only tests call it, as the oracle for
    `relation_components`.
    """
    relations = []
    warnings = []
    for pair in in_vertex_order(table.quiver, table.pair_paths):
        idxs = table.pair_paths[pair]
        if not table.ideal_rows.get(pair):
            continue
        nonzero_local = [k for k, i in enumerate(idxs) if i not in table.in_ideal]
        if len(nonzero_local) > support_cap:
            warnings.append(
                "pair (%s,%s): %d parallel nonzero paths exceed support cap %d; "
                "supports larger than the cap were not searched"
                % (pair[0], pair[1], len(nonzero_local), support_cap))
        local_paths = [table.paths[i] for i in idxs]
        for size in range(2, min(support_cap, len(nonzero_local)) + 1):
            for S in itertools.combinations(nonzero_local, size):
                sset = set(S)
                vs = _pair_vectors_supported_in(table, pair, sset)
                if not vs:
                    continue
                dim_s = rank(vs, QQ)
                # every coordinate of S must be attainable
                if any(all(v[j] == 0 for v in vs) for j in S):
                    continue
                split_blocks = False
                rest = list(S[1:])
                for jsize in range(1, size):
                    for jpart in itertools.combinations(rest, jsize - 1):
                        J = {S[0]} | set(jpart)
                        comp = sset - J
                        if not comp:
                            continue
                        dj = rank(_pair_vectors_supported_in(table, pair, J), QQ)
                        dc = rank(_pair_vectors_supported_in(table, pair, comp), QQ)
                        if dj + dc == dim_s:
                            split_blocks = True
                            break
                    if split_blocks:
                        break
                if split_blocks:
                    continue
                found = None
                for t in range(1, 1000):
                    cand = [0] * len(idxs)
                    scale = 1
                    for v in vs:
                        cand = [a + scale * b for a, b in zip(cand, v)]
                        scale *= t
                    if any(cand[j] == 0 for j in S):
                        continue
                    terms = [(local_paths[j], cand[j]) for j in S]
                    if is_minimal_relation(table, terms):
                        found = terms
                        break
                if found is None:
                    raise AssertionError("split analysis promised a witness")
                # normalize: primitive integers, positive on the least path
                denom = 1
                for _, c in found:
                    denom = denom * c.denominator // math.gcd(denom,
                                                              c.denominator)
                ints = [c * denom for _, c in found]
                g = 0
                for c in ints:
                    g = math.gcd(g, int(c))
                ints = [int(c) // g for c in ints]
                if ints[0] < 0:
                    ints = [-c for c in ints]
                relations.append(MinimalRelation(
                    pair[0], pair[1],
                    tuple((p, c) for (p, _), c in zip(found, ints))))
    return relations, warnings


def relation_components(table):
    """Co-member groups of the minimal relations, one per matroid component.

    Two paths lie on a chain of minimal relations exactly when they lie in
    one connected component of the matroid whose circuits are the minimal
    supports of W = I(x, y) restricted to the nonzero paths of the pair:
    a minimal relation never crosses a component (its parts in the
    components would be proper sub-sums inside I), and any two elements of
    a connected matroid share a circuit, which is itself a minimal
    relation.  The components come from the fundamental circuits of any
    reduced basis of W, one whose pivot columns each appear in one row
    only (Oxley, Matroid Theory, ch. 4).  The stored rows p - NF(p) are
    one: each links its pivot, the tip p, to the normal paths it touches.
    A zero path's row is its unit vector, and no other row touches its
    column, a tip, so it stays a singleton; unit rows link nothing and
    are skipped.

    Returns the components with at least two paths as ascending lists of
    table indices.  Pairs follow the vertex order and the components of
    one pair are ordered by (size, indices), the order in which
    `minimal_relation_supports` emits single-circuit supports.
    """
    groups = []
    linked = {}
    for pair, rows in table.ideal_rows.items():
        rows = [(tip, row) for tip, row in rows.items() if len(row) > 1]
        if rows:
            linked[pair] = rows
    for pair in in_vertex_order(table.quiver, linked):
        idxs = table.pair_paths[pair]
        parent = dict(zip(idxs, idxs))
        for tip, row in linked[pair]:
            for k in row:
                _union(parent, tip, k)
        comps = {}
        for k in idxs:
            comps.setdefault(_find(parent, k), []).append(k)
        groups += sorted((c for c in comps.values() if len(c) >= 2),
                         key=lambda c: (len(c), c))
    return groups


# ---------------------------------------------------------------------------
# path class tables


class PathClassTable:
    """Partition of the table paths into homotopy classes.

    variant is "natural" or "walk".  Classes know their endpoints, their
    members (sorted table indices), whether they contain a nonzero path,
    whether they contain a stationary path (identity class), and a
    canonical representative (`rep_index`, its `Path` in `class_rep` built
    on first read): the least nonzero member, else the least member.
    """

    def __init__(self, table, variant, parent, caveats=()):
        self.table = table
        self.variant = variant
        self.caveats = tuple(caveats)
        sources, targets = table.sources, table.targets
        in_ideal = table.in_ideal
        # every index's root, by pointer jumping over the forest `parent`
        root = list(parent)
        while (jumped := list(map(root.__getitem__, root))) != root:
            root = jumped
        # the table lists paths in `path_sort_key` order, so numbering the
        # classes as index order first meets them orders them by their
        # least members, and members collected in index order are sorted
        cid_of = dict(zip(dict.fromkeys(root), itertools.count()))
        of = self.class_of_index = list(map(cid_of.__getitem__, root))
        self.class_members = [[] for _ in cid_of]
        for i, cid in enumerate(of):
            self.class_members[cid].append(i)
        # a stationary member has length 0, so it would come first
        firsts = list(map(operator.itemgetter(0), self.class_members))
        self.class_source = list(map(sources.__getitem__, firsts))
        self.class_target = list(map(targets.__getitem__, firsts))
        if (list(map(self.class_source.__getitem__, of)) != sources
                or list(map(self.class_target.__getitem__, of)) != targets):
            raise AssertionError("homotopy class members must be parallel")
        self.class_identity = [not table.words[i] for i in firsts]
        # the least nonzero member, else the least member: the nonzero
        # positions from the last down, so the least one of a class is
        # written last
        nonzero = list(itertools.filterfalse(
            in_ideal.__contains__, range(len(sources) - 1, -1, -1)))
        least = dict(zip(map(of.__getitem__, nonzero), nonzero))
        self.rep_index = list(map(least.get, range(len(cid_of)), firsts))
        self.class_nonzero = list(map(least.__contains__, range(len(cid_of))))

    @functools.cached_property
    def class_rep(self):
        """The representative `Path` of each class."""
        return [self.table.paths[i] for i in self.rep_index]

    def __len__(self):
        return len(self.class_members)

    def class_of(self, path):
        """Class of a path of length <= the bound; QuiverError when it is
        not a path of the quiver or is longer."""
        return self.class_of_index[self.table._locate(path)]

    def one_cell_classes(self):
        """Non-identity classes with a nonzero member, in order."""
        return [cid for cid in range(len(self))
                if self.class_nonzero[cid] and not self.class_identity[cid]]


def _find(parent, i):
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    if rb < ra:
        ra, rb = rb, ra
    parent[rb] = ra
    return True


def _closure(table):
    """Congruence closure of the co-member seeds: (parent, joins, caveats).

    The seeds are the pairs (w_1, w_j) of each matroid component
    w_1 < ... < w_m of `relation_components`.  They are taken shortest
    first, by the length of the longer word w_j, ties in the order of
    the components and then of j, and each is closed before the next is
    taken.  `joins` lists, in that component order, the seeds whose two
    ends were in different classes when taken.

    The fundamental group needs only the relators w_1 w_j^-1 of the
    joins.  Read a relator of a merge x ~ y as x y^-1.  Every merge the
    closure makes is a seed or pairs the one-arrow extensions of two
    classes it merged earlier; in the second case the relator is
    (a r)(a r')^-1 = a (r r'^-1) a^-1 or (r a)(r' a)^-1 = r r'^-1.  The
    merged pairs form a forest with one tree per class, and r r'^-1 is
    the product of the relators along its path from r to r', all made
    earlier.  So, by induction on the order of
    the merges, each merge's relator is a product of conjugates of join
    relators, and so is the relator of a seed that finds its ends
    already in one class, whatever the order of the seeds.  The bound
    caveat does not break this: the table's merges are a subset of the
    true ones, each derived as above, so a dropped seed is still implied.

    Shortest first makes the count of joins least among the subsets of
    the seeds that close to the same partition, when the ideal is
    homogeneous, so that every seed pairs paths of one length.  Then no
    class mixes lengths, and the length-l classes depend only on the
    length-l seeds and on the partition of the shorter paths, which they
    extend.  Every subset that closes to the final partition gives the
    final partition of the paths shorter than l, so its seeds shorter
    than l extend to the same partition P_l of the length-l paths as
    all of them do.  Each length-l seed joins at most two classes, so
    the subset holds at least |P_l| - (the final length-l class count)
    of them, and shortest first keeps exactly that many.

    Van Kampen pieces filter the joins to the pairs inside the piece.
    In a convex piece a merge at a pair inside it derives only from
    merges inside it: when a path a r or r a runs between two vertices
    of the piece, it and r lie in the piece, and a forest path joins
    only members of one vertex pair.  The seeds inside the piece
    are taken in the parent's order, so the joins inside it are those
    the piece's own closure finds.

    Merging two classes merges their one-arrow extensions (Downey, Sethi
    and Tarjan 1980), since closing under composition with any path is
    closing under one arrow at a time.  A class is represented by its
    least table index, a shortest member, whose extensions stand for
    those of every member.  The caveat is `natural_homotopy_classes`'.
    """
    q = table.quiver
    words, arrow_index = table.words, table.arrow_index
    parent = list(range(len(words)))

    @functools.cache
    def extensions(i):
        """{(side, arrow): table index} of path i's one-arrow extensions."""
        w = words[i]
        if len(w) == table.bound:
            return {}
        keys = {(1, a.name): arrow_index[w + (a.name,)]
                for a in q.arrows_from[table.targets[i]]}
        keys.update({(0, a.name): arrow_index[(a.name,) + w]
                     for a in q.arrows_to[table.sources[i]]})
        return keys

    seeds = [(group[0], j) for group in relation_components(table)
             for j in group[1:]]
    joins = []
    # a component lists its members in table order, which is by length,
    # so j is the longer end; the sort is stable, so ties keep their order
    for s in sorted(range(len(seeds)),
                    key=lambda s: len(words[seeds[s][1]])):
        pending = [seeds[s]]
        if _find(parent, pending[0][0]) == _find(parent, pending[0][1]):
            continue
        joins.append(s)
        while pending:
            ra, rb = sorted(_find(parent, i) for i in pending.pop())
            if ra == rb:
                continue
            parent[rb] = ra
            # rb is no shorter than ra, so ra has every extension rb has
            keys = extensions(ra)
            pending.extend((keys[key], j) for key, j in extensions(rb).items())
    caveats = []
    # the table is sorted by length, so its bound-length paths end it; a
    # bound-length root has no extension
    cut = next((i for i in range(bisect.bisect_left(words, table.bound,
                                                    key=len), len(words))
                if parent[i] != i and extensions(_find(parent, i))), None)
    if cut is not None:
        paths = table.paths
        caveats.append(
            "natural class of %s: member %s has the bound length %d, so its "
            "one-arrow extensions lie outside the path table while other "
            "members extend inside it; the partition may be finer than the "
            "true one" % (paths[_find(parent, cut)], paths[cut], table.bound))
    return parent, [seeds[s] for s in sorted(joins)], caveats


def natural_homotopy_classes(table):
    """Congruence closure of the minimal-relation merges.

    The seeds are the co-members of each matroid component of
    `relation_components`, which are exact and need no cap, and `_closure`
    closes them under composition with one arrow at a time.  Classes may
    contain ideal members: an extension can land on a path inside I, and
    such paths carry cell-identification data.

    A class that holds a member of length L (the table bound) while its
    root extends inside the table is cut short: the length-L member's
    extensions leave the table, and through them the true class may merge
    with others.  Without such a class no merge involves a path longer
    than L and the partition is exact; otherwise the first one is named in
    a caveat.
    """
    parent, _, caveats = _closure(table)
    return PathClassTable(table, "natural", parent, caveats)


# ---------------------------------------------------------------------------
# fundamental group presentations


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: words are tuples of (generator, +1/-1)."""

    generators: tuple
    relators: tuple
    base: str = ""


def _word_inverse(word):
    return tuple((g, -s) for g, s in reversed(word))


def free_reduce(word):
    out = []
    for g, s in word:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def spanning_tree(quiver, base):
    """Deterministic BFS tree on the underlying graph.

    Returns (tree_arrow_names, links): links[v] = (arrow name, sign,
    parent) of the tree arrow that reaches v, and None at the base.
    """
    if base not in quiver.vertex_index:
        raise NotConnectedError("unknown base vertex %r" % base)
    # the arrows at each vertex in declaration order, a loop once
    incident = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        for v in {a.source, a.target}:
            incident[v].append(a)
    links = {base: None}
    tree = []
    queue = [base]
    for v in queue:  # grows while it is read, the BFS order
        for a in incident[v]:
            if a.source == v and a.target not in links:
                tree.append(a.name)
                links[a.target] = (a.name, 1, v)
                queue.append(a.target)
            elif a.target == v and a.source not in links:
                tree.append(a.name)
                links[a.source] = (a.name, -1, v)
                queue.append(a.source)
    if len(links) != len(quiver.vertices):
        raise NotConnectedError("quiver is not connected")
    return tree, links


def _tree_walk(links, v):
    """The tree walk from the base to v, read off `spanning_tree` links."""
    word = []
    while links[v] is not None:
        name, sign, v = links[v]
        word.append((name, sign))
    return tuple(reversed(word))


def pi1_presentation(table, base=None):
    """Presentation of the fundamental group of the bound quiver.

    Generators are all arrows; relators are the spanning tree arrows
    (π1(Q, I) is the free group on the arrows modulo the tree and the
    minimal-relation identifications, Martínez-Villa and de la Peña 1983)
    and, for each seed (w_1, w_j) that joins two natural classes (see
    `_closure`), the word w_1 w_j^-1.  The relators of the other seeds
    are products of conjugates of these.
    """
    q = table.quiver
    if base is None:
        if not q.vertices:
            raise QuiverError("the quiver has no vertex, so pi1 has no "
                              "base point")
        base = q.vertices[0]
    tree, _ = spanning_tree(q, base)
    return _presentation(table, q, tree, base, _closure(table)[1])


def _presentation(table, sub, tree, base, joins):
    """The arrows of `sub`, a full subquiver of the table's quiver, over
    the tree relators and the relators of the joins between its
    vertices."""
    relators = [((name, 1),) for name in tree]
    words, inside = table.words, sub.vertex_index
    for first, j in joins:
        if table.sources[first] in inside and table.targets[first] in inside:
            relators.append(free_reduce(
                tuple((a, 1) for a in words[first])
                + tuple((a, -1) for a in reversed(words[j]))))
    return Presentation(tuple(a.name for a in sub.arrows), tuple(relators),
                        base)


def abelianization(pres):
    """(free_rank, torsion divisors) of the abelianized presentation."""
    cols = []
    for rel in pres.relators:
        col = {}
        for g, s in rel:
            col[g] = col.get(g, 0) + s
        cols.append(col)
    divisors = smith_divisors(cols)
    return (len(pres.generators) - len(divisors),
            [d for d in divisors if d > 1])


def _cyclic_canonical(word):
    """Least rotation among the word and its inverse (dedup key), letters
    compared by name and then positive exponent first.  The rotations
    are compared as words of keys (name, -exponent), built once."""
    keyed = tuple((name, -s) for name, s in word)
    inverse = tuple((name, s) for name, s in reversed(word))
    least = min(w[k:] + w[:k] for w in (keyed, inverse)
                for k in range(max(1, len(w))))
    return tuple((name, -t) for name, t in least)


def _cyclic_reduce(word):
    w = free_reduce(word)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = free_reduce(w[1:-1])
    return w


def _substitute(word, g, rep):
    """Free reduction of `word` with each letter g^s replaced by rep^s."""
    out = []
    for name, s in word:
        if name == g:
            out.extend(rep if s == 1 else _word_inverse(rep))
        else:
            out.append((name, s))
    return free_reduce(out)


def simplify_presentation(pres):
    """Tietze simplification preserving the group up to isomorphism.

    Moves, iterated to a fixpoint: free+cyclic reduction; dropping empty
    and (cyclically) duplicate relators of length up to DEDUPE_BOUND;
    eliminating a generator named by a length-1 relator; eliminating a
    generator g via a length-2 relator g^e h^d with h distinct
    (substitute g = h^-de).
    """
    return _tietze(pres)[0]


def _eliminates(word):
    """Whether a relator names a generator to eliminate: g^e, or g^e h^d
    with h distinct."""
    return len(word) == 1 or len(word) == 2 and word[0][0] != word[1][0]


def _tietze(pres):
    """`simplify_presentation` and its substitution map.

    The relators keep their original positions, and an index lists the
    relators each generator occurs in.  No two live relators of length
    up to DEDUPE_BOUND are in one class (rotation and inversion): the
    one at the earlier position stays.  The leading run of one-letter
    relators is eliminated in one step; each later round eliminates a
    generator through the first live relator that `_eliminates` one and
    substitutes only into the relators that hold it, since the others are
    unchanged.  The loop stops when no such relator is left.  The map
    sends each eliminated generator to a freely reduced word in the
    surviving generators that equals it in the group.  Free reduction
    commutes with substitution, so the map is composed once, at the end.
    Each distinct word is canonicalised once per call.
    """
    canonical = functools.cache(_cyclic_canonical)
    rels = {}     # position -> cyclically reduced word, live relators only
    holding = {}  # generator -> positions of the live relators holding it
    first = {}    # canonical form -> position of its live short relator
    ready = []    # heap of positions whose relator may eliminate

    def take(k):
        """Drop relator k and return its word."""
        w = rels.pop(k)
        for name, _ in w:
            holding[name].discard(k)
        if len(w) <= DEDUPE_BOUND:
            del first[canonical(w)]
        return w

    def place(k, w):
        """Make w relator k, unless it is empty or its class has a relator
        at an earlier position; one at a later position is dropped."""
        if not w:
            return
        if len(w) <= DEDUPE_BOUND:
            j = first.get(canonical(w))
            if j is not None and j < k:
                return
            if j is not None:
                take(j)
            first[canonical(w)] = k
        rels[k] = w
        for name, _ in w:
            holding.setdefault(name, set()).add(k)
        if _eliminates(w):
            heapq.heappush(ready, k)

    reduced = [_cyclic_reduce(r) for r in pres.relators]
    # the leading run of one-letter relators g^e (the tree relators of
    # `_presentation`) goes in one step: the heap would pop those
    # positions first, and nothing before them touches them but a
    # repeated g, which empties its relator.  So deleting their letters
    # from the later relators before these are placed leaves what
    # eliminating them one at a time leaves
    tree = {}
    for w in reduced:
        if len(w) != 1:
            break
        tree[w[0][0]] = ()
    order = list(tree.items())
    for k in range(len(tree), len(reduced)):
        w = reduced[k]
        if any(name in tree for name, _ in w):
            w = _cyclic_reduce([x for x in w if x[0] not in tree])
        place(k, w)
    while ready:
        k = heapq.heappop(ready)
        if k not in rels or not _eliminates(rels[k]):
            continue  # an entry left by an earlier word of relator k
        # g^e = 1  =>  g = 1;  g^e h^d = 1  =>  g = h^(-d*e)
        (g, e), *rest = take(k)
        rep = tuple((h, -d * e) for h, d in rest)
        order.append((g, rep))
        changed = [(j, take(j)) for j in sorted(holding.get(g, ()))]
        for j, w in changed:
            place(j, _cyclic_reduce(_substitute(w, g, rep)))
    subst = {}
    for g, rep in reversed(order):
        word = []
        for h, d in rep:
            image = subst.get(h, ((h, 1),))
            word.extend(image if d == 1 else _word_inverse(image))
        subst[g] = free_reduce(word)
    gens = tuple(g for g in pres.generators if g not in subst)
    rels = tuple(canonical(w) if len(w) <= DEDUPE_BOUND else w
                 for _, w in sorted(rels.items()))
    return Presentation(gens, rels, pres.base), subst


# ---------------------------------------------------------------------------
# walk homotopy from the word problem of pi_1


def word_is_trivial(pres, word):
    """Whether `word` is trivial in the group of `pres`: True, False or None.

    True when the word freely reduces to nothing, or when H_1 sees nothing
    of it and the group is cyclic (at most one generator), so H_1 is the
    group.  False when its image in H_1 is nonzero, or when no relator is
    left and the group is free.  The H_1 image is zero exactly when adding
    the word as a relator leaves the cokernel structure unchanged:
    Z^n / R maps onto Z^n / (R + w), and finitely generated abelian groups
    are Hopfian, so equal structures make that map an isomorphism.  None
    means that none of these certificates applies.
    """
    word = free_reduce(word)
    if not word:
        return True
    killed = Presentation(pres.generators, pres.relators + (word,))
    if abelianization(killed) != abelianization(pres):
        return False
    if not pres.relators:
        return False
    if len(pres.generators) <= 1:
        return True
    return None


def _spanning_forest(quiver):
    """Arrows that join different components, in arrow order."""
    parent = list(range(len(quiver.vertices)))
    vx = quiver.vertex_index
    return [a.name for a in quiver.arrows
            if _union(parent, vx[a.source], vx[a.target])]


def walk_homotopy_classes(table):
    """Natural classes merged by the word problem of the fundamental group.

    Parallel paths u, v are walk-homotopic exactly when u v^-1 is trivial
    in pi_1 of (Q, I), presented over a spanning forest (one tree per
    component, so the group is the free product of the components'
    groups).  Each natural class maps, through its representative and the
    Tietze substitution map, to a word in the surviving generators, and
    every pair of parallel classes is decided by `word_is_trivial` against
    one class of each merged group.  Equality in a group is closed under
    composition, so no congruence closure is needed.  A pair left
    undecided stays apart and is named in a caveat.
    """
    q = table.quiver
    parent, joins, caveats = _closure(table)
    nat = PathClassTable(table, "natural", parent, caveats)
    # a spanning forest has no one base point
    pres, subst = _tietze(_presentation(table, q, _spanning_forest(q),
                                        None, joins))
    # the walk classes merge natural ones in the closure's union-find
    words = []
    for cid in range(len(nat)):
        word = []
        for name in table.words[nat.rep_index[cid]]:
            word.extend(subst.get(name, ((name, 1),)))
        words.append(free_reduce(word))
    by_ends = {}
    for cid in range(len(nat)):
        by_ends.setdefault((nat.class_source[cid], nat.class_target[cid]),
                           []).append(cid)
    undecided = []
    for cids in by_ends.values():
        heads = []  # one class of each merged group
        for c in cids:
            for h in heads:
                verdict = word_is_trivial(
                    pres, words[c] + _word_inverse(words[h]))
                if verdict:
                    _union(parent, nat.class_members[h][0],
                           nat.class_members[c][0])
                    break
                if verdict is None:
                    undecided.append((h, c))
            else:
                heads.append(c)
    left = [(h, c) for h, c in undecided
            if _find(parent, nat.class_members[h][0])
            != _find(parent, nat.class_members[c][0])]
    caveats = []
    if left:
        caveats.append(
            "word problem of pi1 undecided for %s: these walk classes are "
            "kept apart, the partition may be finer than true walk homotopy"
            % ", ".join("%s ~ %s" % (nat.class_rep[h], nat.class_rep[c])
                        for h, c in left))
    return PathClassTable(table, "walk", parent, caveats)


# ---------------------------------------------------------------------------
# Van Kampen decomposition


@dataclass(frozen=True)
class VanKampenResult:
    piece1: Presentation
    piece2: Presentation
    intersection: Presentation
    pushout: Presentation
    base: str


def _check_convex(quiver, verts, label):
    vset = set(verts)
    # escape arrow into the outside that can flow back in: not convex
    reach_into = set()  # outside vertices with a directed path into vset
    stack = list(vset)
    while stack:
        for a in quiver.arrows_to[stack.pop()]:
            if a.source not in vset and a.source not in reach_into:
                reach_into.add(a.source)
                stack.append(a.source)
    for a in quiver.arrows:
        if a.source in vset and a.target in reach_into:
            raise HypothesisViolated(
                "%s is not convex: a path leaves through arrow %s and "
                "re-enters" % (label, a.name), witness=a.name)


def van_kampen_pushout(table, v1, v2):
    """Presentations of the two pieces, their intersection and the pushout.

    Requires: V1 and V2 are vertices of the quiver and cover them, both
    full subquivers convex, every nonzero path contained in one piece,
    and the intersection subquiver connected and nonempty.  Each piece
    and the intersection take the parent's joins (`_closure`) between
    their own vertices.  The pushout is the amalgamated free product
    over the intersection's fundamental group, presented on disjoint
    copies of the pieces' arrows with one amalgamation relator per
    non-tree arrow of the intersection.
    """
    q = table.quiver
    for verts, label in ((v1, "V1"), (v2, "V2")):
        for v in verts:
            if v not in q.vertex_index:
                raise QuiverError("unknown vertex %r in %s" % (v, label))
    s1, s2 = set(v1), set(v2)
    v1 = [v for v in q.vertices if v in s1]
    v2 = [v for v in q.vertices if v in s2]
    if s1 | s2 != set(q.vertices):
        raise HypothesisViolated("V1 and V2 do not cover the vertices")
    shared = [v for v in q.vertices if v in s1 and v in s2]
    if not shared:
        raise HypothesisViolated("V1 and V2 have empty intersection")
    _check_convex(q, v1, "Q1")
    _check_convex(q, v2, "Q2")
    target = {a.name: a.target for a in q.arrows}
    for i, word in enumerate(table.words):
        if i in table.in_ideal:
            continue
        verts = {table.sources[i], *map(target.__getitem__, word)}
        if not (verts <= s1 or verts <= s2):
            p = Path(table.sources[i], table.targets[i], word)
            raise HypothesisViolated(
                "nonzero path %s lies in neither piece" % p, witness=str(p))

    def full(verts):
        vset = set(verts)
        return BoundQuiver(verts, [a for a in q.arrows if a.source in vset
                                   and a.target in vset])

    # checked before any presentation: spanning_tree needs it connected
    sub0 = full(shared)
    if not sub0.is_connected():
        raise HypothesisViolated("intersection subquiver is not connected")
    base = shared[0]
    tree0, links0 = spanning_tree(sub0, base)
    sub1, sub2 = full(v1), full(v2)
    joins = _closure(table)[1]
    pres1, pres2 = (_presentation(table, sub, spanning_tree(sub, base)[0],
                                  base, joins) for sub in (sub1, sub2))
    pres0 = _presentation(table, sub0, tree0, base, joins)
    shared_arrows = {a.name for a in sub0.arrows}  # those of both pieces

    def copy2(name):
        return name + "'" if name in shared_arrows else name

    gens = list(pres1.generators) + [copy2(g) for g in pres2.generators]
    rels = list(pres1.relators)
    for r in pres2.relators:
        rels.append(tuple((copy2(g), s) for g, s in r))
    for a in sub0.arrows:
        if a.name in tree0:
            continue
        loop = free_reduce(_tree_walk(links0, a.source) + ((a.name, 1),)
                           + _word_inverse(_tree_walk(links0, a.target)))
        rels.append(free_reduce(
            loop + _word_inverse(tuple((copy2(g), s) for g, s in loop))))
    pushout = Presentation(tuple(gens), tuple(rels), base)
    return VanKampenResult(pres1, pres2, pres0, pushout, base)
