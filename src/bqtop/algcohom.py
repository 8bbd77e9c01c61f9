"""Semi-normed bases, simplicial homology of A, and Hochschild cohomology.

A semi-normed basis of A = kQ/I is a basis containing the identities and
the arrows and closed under multiplication up to scalars: for basis
elements s, s' either s s' = 0 or s s' = lambda * b(s, s') for a unique
basis element.  The finder takes one candidate per nonzero natural
homotopy class (its canonical representative) plus the identities.  This
candidate set succeeds whenever ANY semi-normed basis exists: distinct
basis elements have non-proportional representative paths, and parallel
nonzero paths with proportional images always lie in one natural class
(a two-term combination in the ideal whose single terms are outside it
merges them), so basis elements correspond bijectively to nonzero
classes.

One builder, `verify_semi_normed_basis`, checks the finder's candidates
and user-supplied bases of paths alike and writes the witnesses.  Per
vertex pair it needs the reduced echelon form of the ideal slice with
the candidates' coordinates last: the candidates are independent modulo
the ideal exactly when no pivot lands on one of them, and then the row
of every other path of the pair is its expansion in the basis, so a
product of two basis elements is one lookup.  Where no candidate is a
tip, the candidates are the normal words of the path table's Groebner
basis and the table's tip rows p - NF(p) are that form, so nothing is
eliminated; the natural representatives are always such words when the
counts fit.  Other pairs are reduced once.

From the basis: the simplicial complex SC has SC_0 = vertices and SC_n =
tuples of non-identity basis elements with nonzero product, with an
integer differential (drop first, contract adjacent products through the
structure table, drop last, alternating signs).  The Hochschild cochain
complex has degree-n basis indexed by (composable tuple of non-identity
basis elements, target basis element of the end-to-end slice) -- tuples
are kept even when their product vanishes -- with the standard
differential written through the structure constants.

Each nonzero non-identity natural class holds exactly one basis element
(see `SemiNormedAlgebra`), so a tuple of elements is a tuple of classes,
its product is nonzero exactly when the elements compose to a path
outside the ideal, and a contraction s s' = lambda b lands in the class
of the composite path.  SC is therefore the classifying complex of the
natural classes grown from each class's element alone:
`complex.build_complex` builds it, keyed by the vertices in degree 0 and
by class-id tuples above, and its (co)homology and cup product serve it
too.  epsilon reads a cell's product lambda b off that of its last face
with the one table lookup b * s_n.  The Hochschild complex grows its
tuples one layer at a time through the index `starting[v]`, the
non-identity elements whose source is v: a tuple extends only by the
elements starting where its last element ends.  Its differential is one
loop over the faces of each tuple (the first face s_1 f(s_2 .. s_n), the
contractions of adjacent pairs, the last face f(s_1 .. s_{n-1}) s_n),
each given by its face tuple, its scalar and its left or right factor,
with the face's ends read off the vertices the tuple passes through.

A basis element is its path's table index, listed in
`SemiNormedAlgebra.basis` (the identities first), and a cell is its
position among the complex's keys.  The comparison maps send each basis
vector to at most one basis vector.  phi/psi (simplicial cells vs cells
of the classifying space) and phi-sharp (onto the total variant) do so
with scalar 1: SC and the natural complex share their keys, so phi and
psi look a key up in the other complex, and phi-sharp first maps each
class to its walk class.  They are lists of positions (None for 0) and
are checked as chain maps column by column.  epsilon/mu (simplicial vs
Hochschild cochains) are sparse columns {index: coefficient}, the layout
of the differentials: epsilon sends a cell whose elements t have product
lambda b to the pair (t, b) with scalar lambda, and mu is its partial
inverse with 1 / lambda.  Their identities are read off counts, and
their cochain-map squares off one pass over the rows of HC's
differential, with arithmetic only between two epsilon pairs (see
`epsilon_mu`).  HC's differential squares to zero because the structure
table is unital and associative, which is checked on the composable
triples of basis elements, at the cost of the algebra rather than of the
complex (see `HochschildComplex`); SC's is checked on its face rows, as
a cell complex's.  epsilon(SC) is
then a coordinate subcomplex of HC, and the long exact sequence of the
quotient gives the ranks of the map SH -> HH from three rank sequences.

The basis and all structure constants are computed exactly over the
rationals; choosing a prime field only changes the coefficient
arithmetic of the cochain ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import algebra_properties, in_vertex_order
from .linalg import QQ, PrimeField, extend_rref
from .complex import (build_complex, homology_of_matrices, parse_coefficients,
                      sparse_column)
from .homotopy import natural_homotopy_classes

__all__ = [
    "TriangularRequired", "NoSemiNormedBasis", "FieldMismatch",
    "SemiNormedFailure", "SemiNormedAlgebra", "find_semi_normed_basis",
    "verify_semi_normed_basis", "simplicial_complex",
    "PhiPsiReport", "phi_psi_maps", "hochschild_scalars",
    "HochschildComplex", "hochschild_cup", "EpsilonMuReport", "epsilon_mu",
]


class TriangularRequired(Exception):
    """The operation needs a quiver without oriented cycles."""


class NoSemiNormedBasis(Exception):
    """A downstream construction was asked to run on a failed basis search."""


class FieldMismatch(Exception):
    """Comparison inputs were built over different scalars or algebras."""


@dataclass(frozen=True)
class SemiNormedFailure:
    witnesses: tuple
    classes: object = None  # the natural classes the candidates came from

    @property
    def ok(self):
        return False


class SemiNormedAlgebra:
    """A verified semi-normed basis with its structure table, each basis
    element named by its table index: `basis` lists the vertex indices
    (the identities, in vertex order) and then the other elements in
    ascending order, `product[(i, j)]` is None or (lambda, k), and
    `source`/`target` are the table's lists.

    The non-identity elements meet the nonzero non-identity classes one
    each: every nonzero path w is lambda b for a basis element b, and the
    two-term relation w - lambda b is a circuit, so it seeds w and b into
    one class; two basis elements are never proportional.  The class of
    the composite of two elements is then that of the b in s s' =
    lambda b.  `members[cid]` is the table index of class cid's element.
    """

    def __init__(self, table, classes, basis, product):
        self.table = table
        self.quiver = table.quiver
        self.classes = classes
        self.basis = tuple(basis)
        self.source, self.target = table.sources, table.targets
        self.identity_index = self.quiver.vertex_index
        self.non_identity = self.basis[len(self.identity_index):]
        # vertex -> the non-identity elements that start there
        self.starting = {v: [] for v in self.quiver.vertices}
        for i in self.non_identity:
            self.starting[self.source[i]].append(i)
        self.by_pair = {}
        for i in self.basis:
            self.by_pair.setdefault((self.source[i], self.target[i]),
                                    []).append(i)
        self.product = product
        cids = list(map(classes.class_of_index.__getitem__,
                        self.non_identity))
        if sorted(cids) != classes.one_cell_classes():
            raise AssertionError("a semi-normed basis meets each nonzero "
                                 "non-identity class in one element")
        self.members = dict(zip(cids, self.non_identity))

    @property
    def ok(self):
        return True

    def vertices(self, t):
        """The vertices a nonempty composable tuple passes through."""
        return [self.source[t[0]]] + [self.target[i] for i in t]


def _acyclic_classes(table, classes):
    if not table.quiver.is_acyclic():
        raise TriangularRequired(
            "semi-normed machinery requires a quiver without oriented "
            "cycles")
    return natural_homotopy_classes(table) if classes is None else classes


def find_semi_normed_basis(table, classes=None):
    """The basis of one representative per nonzero natural class, checked
    by `verify_semi_normed_basis`.  The representatives are nonzero and
    distinct and every arrow is a class of its own, so none of its
    pre-checks can fire."""
    classes = _acyclic_classes(table, classes)
    reps = [classes.class_rep[cid] for cid in classes.one_cell_classes()]
    return verify_semi_normed_basis(table, reps, classes)


def verify_semi_normed_basis(table, paths, classes=None):
    """Check a basis of paths (identities implied) with witnesses.

    The basis is in table order: the identities by vertex, then the paths
    by `path_sort_key`.  Each vertex pair needs as many candidates as its
    dimension, and then one reduced echelon form of its ideal slice with
    the candidates' coordinates last, unique for that column order.
    Every pivot lands on a non-candidate path exactly when the
    candidates' images are independent (the count check already asks for
    n - rank I of them), and the row of a non-candidate path p reads
    p = -sum(row[c] * c) mod I, its expansion in the basis.

    When no candidate is a tip, the table's tip rows p - NF(p) are that
    form, and nothing is eliminated.  Their pivots, the tips, avoid the
    candidates and their other entries sit on normal words; the count
    check leaves as many candidates as normal words, so the candidates
    are the normal words and each tip row is a unit on its pivot plus
    candidate entries.  The natural representatives of a pair whose
    counts fit are never tips: each nonzero natural class holds exactly
    one normal word (a tip's row links it to every normal word of its
    normal form, so every nonzero class holds one, and one class with two
    would lower the count), and that word is the class's least nonzero
    member, its representative, since normal-form terms are smaller than
    their tip.  Otherwise the slice is reduced once.

    A product of two basis elements is then one lookup: None past the
    bound, (1, k) on basis element k, and otherwise read off its row,
    None in the ideal, lambda * b with one other entry, and the witness
    "expands with n basis terms" with more.

    A given path that is not a path of the quiver raises QuiverError.
    """
    classes = _acyclic_classes(table, classes)
    q = table.quiver
    witnesses = []
    seen = {}  # the table indices of the given paths, in the given order
    for p in paths:
        if p.is_stationary:
            continue  # identities are always included
        i = table.position(p)
        if i is None:
            # every path of the quiver up to the bound is in the table, so
            # only one past the bound passes: it lies in the ideal
            q._check_path(p)
        if i in seen:
            witnesses.append("duplicate basis path %s" % p)
        elif i is None or i in table.in_ideal:
            witnesses.append("basis path %s lies in the ideal" % p)
        else:
            seen[i] = None
    for a in q.arrows:
        if table.arrow_index[(a.name,)] not in seen:
            witnesses.append("arrow %s missing from the basis" % a.name)
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)

    # identities come first in the table, by vertex
    nv = len(q.vertices)
    sources, targets = table.sources, table.targets
    by_pair = {}
    for i in [*range(nv), *seen]:
        by_pair.setdefault((sources[i], targets[i]), []).append(i)
    # pair -> {pivot: row}, the slice's reduced rows with the candidates
    # last
    reduced = {}
    for pair in in_vertex_order(q, table.dims):
        cands = by_pair.get(pair, [])
        dim = table.dims[pair]
        if len(cands) != dim:
            witnesses.append(
                "pair (%s,%s): %d basis elements for dimension %d"
                % (pair[0], pair[1], len(cands), dim))
            continue
        tips = table.ideal_rows.get(pair, {})
        if not any(i in tips for i in cands):
            reduced[pair] = tips
            continue
        last = set(cands)
        order = [i for i in table.pair_paths[pair] if i not in last]
        free = len(order)
        order += cands
        column = {i: c for c, i in enumerate(order)}
        rref = {}
        extend_rref(rref, [{column[i]: x for i, x in row.items()}
                           for row in tips.values()])
        if any(c >= free for c in rref):
            witnesses.append(
                "pair (%s,%s): images of %s are linearly dependent mod the "
                "ideal" % (pair[0], pair[1], ", ".join(
                    str(table.paths[i]) for i in by_pair[pair])))
            continue
        reduced[pair] = {order[c]: {order[k]: x for k, x in row.items()}
                         for c, row in rref.items()}
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)

    basis = [*range(nv), *sorted(seen)]
    words = table.words
    starting = {}
    for i in basis:
        starting.setdefault(sources[i], []).append(i)
    product = {}
    for i in basis:
        for j in starting[targets[i]]:
            if i < nv or j < nv:
                product[i, j] = (1, j if i < nv else i)
                continue
            k = table.arrow_index.get(words[i] + words[j])
            if k is None:
                product[i, j] = None
            elif k in seen:
                product[i, j] = (1, k)
            else:
                row = reduced[sources[i], targets[j]][k]
                off = [(c, x) for c, x in row.items() if c != k]
                if not off:
                    product[i, j] = None
                elif len(off) == 1:
                    c, x = off[0]
                    product[i, j] = (-x, c)
                else:
                    witnesses.append("product %s * %s expands with %d basis "
                                     "terms" % (table.paths[i], table.paths[j],
                                                len(off)))
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)
    return SemiNormedAlgebra(table, classes, basis, product)


# ---------------------------------------------------------------------------
# simplicial complex of the algebra


def simplicial_complex(algebra):
    """SC_0 = vertices; SC_n = basis tuples with nonzero product, as the
    cell complex of the algebra's classes grown from their basis elements
    alone: the n-cell (c_1, .., c_n) is the tuple of the classes'
    elements, and its middle faces are the classes of the products."""
    if not algebra.ok:
        raise NoSemiNormedBasis("; ".join(algebra.witnesses))
    return build_complex(algebra.table, algebra.classes,
                         members=algebra.members)


# ---------------------------------------------------------------------------
# comparison with the cell complexes


@dataclass(frozen=True)
class PhiPsiReport:
    phi: dict         # degree -> per SC cell, its natural cell's position
    psi: dict         # degree -> per natural cell, its SC cell's position
    phi_sharp: dict   # degree -> per SC cell, its walk cell's position
    phi_chain_map: bool
    psi_chain_map: bool
    iso: bool
    sharp_chain_map: bool
    sharp_epi: bool
    kernel_ranks: tuple


def _chain_map(low, high, dom, cod):
    """The position maps `low` and `high` (degrees n-1, n) commute with
    delta_n: `low` takes each column of `dom` (the domain's) to the column
    of `cod` (the codomain's) at the cell `high` sends it to, or to 0."""
    return all(sparse_column((low[i], x) for i, x in col.items()
                             if low[i] is not None)
               == ({} if r is None else cod[r])
               for col, r in zip(dom, high, strict=True))


def _mutually_inverse(f, g):
    """The position maps f and g are inverse bijections."""
    return (all(r is not None and g[r] == c for c, r in enumerate(f))
            and all(c is not None and f[c] == r for r, c in enumerate(g)))


def phi_psi_maps(algebra, cx_natural, cx_total):
    """The tuple-to-cell maps as positions, with their report.

    SC's cells are keyed by class tuples like the natural cells, so
    phi[n][c] is the position of SC cell c's key among the natural
    n-cells, psi[n][j] that of natural cell j's key among SC's cells, and
    phi_sharp[n][c] that of the walk cell whose classes hold those of
    SC cell c; None for 0.  Vertices map to themselves.  Any input but the
    uncut natural and walk complexes of the algebra's path table, in that
    order, raises ValueError.
    """
    if not algebra.ok:
        raise NoSemiNormedBasis("; ".join(algebra.witnesses))
    a = algebra
    for cx, variant in ((cx_natural, "natural"), (cx_total, "walk")):
        wrong = ("the %s complex as the %s one" % (cx.variant, variant)
                 if cx.variant != variant else
                 "the %s complex cut at dimension %d" % (variant, cx.cut_at)
                 if cx.cut_at is not None else
                 "a %s complex of another path table" % variant
                 if cx.table is not a.table else None)
        if wrong:
            raise ValueError("phi and psi need the uncut natural and walk "
                             "complexes of the algebra's path table, got "
                             + wrong)
    sc = simplicial_complex(a)
    nat, tot = cx_natural, cx_total
    walk = {cid: tot.classes.class_of_index[j] for cid, j in a.members.items()}
    top = max(sc.top_dim(), nat.top_dim(), tot.top_dim())

    def positions(dom, cod, m=None):
        # per degree, the position in cod of each key of dom, its classes
        # read by m
        return {n: [cod.cell_index.get((n, tuple(map(m.__getitem__, key))
                                        if n and m is not None else key))
                    for key in (dom.keys[n] if n <= dom.top_dim() else ())]
                for n in range(top + 1)}

    phi = positions(sc, nat)
    psi = positions(nat, sc)
    sharp = positions(sc, tot, walk)
    chain = [all(_chain_map(f[n - 1], f[n], dom.columns.get(n, []),
                            cod.columns.get(n, []))
                 for n in range(1, top + 1))
             for f, dom, cod in ((phi, sc, nat), (psi, nat, sc),
                                 (sharp, sc, tot))]
    hit = {n: set(layer) - {None} for n, layer in sharp.items()}
    return PhiPsiReport(
        phi, psi, sharp, chain[0], chain[1],
        all(_mutually_inverse(phi[n], psi[n]) for n in phi), chain[2],
        all(None not in sharp[n] and len(hit[n]) == tot.size(n)
            for n in sharp),
        tuple(len(sharp[n]) - len(hit[n]) for n in sharp))


# ---------------------------------------------------------------------------
# Hochschild cochain complex


def _scaled(F, x, step):
    """x times a table entry in F: None when it vanishes, else (scalar,
    element)."""
    if step is None:
        return None
    y = F.of(x * step[0])
    return None if y == F.zero else (y, step[1])


def _check_unital_associative(a, F):
    """Assert that the structure table of `a` is that of a unital
    associative algebra over F.

    Each product s s' = lambda b of two non-identity elements has the ends
    of s s', each identity acts as a unit on the elements at its vertex,
    and (s1 s2) s3 == s1 (s2 s3) in F on every composable triple of
    non-identity elements, each side read off the table as None (zero)
    or (scalar, element).  The triples are walked through `starting`, so
    the cost is that of the table, not of the complex.
    """
    product = a.product
    for s1 in a.non_identity:
        x, y = a.source[s1], a.target[s1]
        if not (product[(a.identity_index[x], s1)] == (1, s1)
                == product[(s1, a.identity_index[y])]):
            raise AssertionError(
                "the differential squares to zero only when the identities "
                "are units, but one of them moves %s" % a.table.paths[s1])
        for s2 in a.starting[y]:
            left = product[(s1, s2)]
            if left is not None and (a.source[left[1]], a.target[left[1]]) \
                    != (x, a.target[s2]):
                p = a.table.paths
                raise AssertionError(
                    "the differential squares to zero only for a graded "
                    "product, but %s * %s lands on %s"
                    % (p[s1], p[s2], p[left[1]]))
            for s3 in a.starting[a.target[s2]]:
                right = product[(s2, s3)]
                lhs = left and _scaled(F, left[0],
                                       product.get((left[1], s3)))
                rhs = right and _scaled(F, right[0],
                                        product.get((s1, right[1])))
                if lhs != rhs:
                    p = a.table.paths
                    raise AssertionError(
                        "the differential squares to zero only for an "
                        "associative product, but (%s * %s) * %s != "
                        "%s * (%s * %s)" % ((p[s1], p[s2], p[s3]) * 2))


def hochschild_scalars(field_label):
    """`parse_coefficients` of a field label that Hochschild cochains can
    take, "Q" or "Fp:<p>"; ValueError on any other."""
    kind, arg = parse_coefficients(field_label)
    if kind not in ("Q", "Fp"):
        raise ValueError("Hochschild scalars must be Q or Fp:<p>")
    return kind, arg


class HochschildComplex:
    """Cochain spaces over the vertex subalgebra and their differential.

    Degree-n basis: pairs (tuple, target) where the tuple lists n
    composable non-identity basis elements (its product may vanish) and
    target is a basis element of the end-to-end slice.  Degree 0 uses the
    empty tuple at each vertex with its identity as target.

    The differential is the reduced bar differential written through the
    structure table: (delta f)(s_1, .., s_n) = s_1 f(s_2, .., s_n) +
    sum_j (-1)^j f(.., s_j s_(j+1), ..) + (-1)^n f(s_1, .., s_(n-1)) s_n.
    It squares to zero for any unital associative table whose products
    have the ends of their factors: in delta delta f each term is a
    product of three factors (cochain values among them) bracketed two
    ways, or two contractions done in either order, and these cancel in
    pairs exactly when the brackets agree.  So instead of multiplying
    the differentials, `_check_unital_associative` checks the table, on
    the composable triples of non-identity elements, at the cost of the
    algebra; that the columns follow the formula is the test suite's
    work.  A table that fails raises AssertionError.
    """

    def __init__(self, algebra, field_label="Q"):
        if not algebra.ok:
            raise NoSemiNormedBasis("; ".join(algebra.witnesses))
        self.algebra = algebra
        kind, arg = hochschild_scalars(field_label)
        self.field_label = field_label
        self.field = QQ if kind == "Q" else PrimeField(arg)
        a = algebra
        q = a.quiver
        for (i, j), step in a.product.items() if kind == "Fp" else ():
            if step is not None and step[0].denominator % arg == 0:
                raise ValueError(
                    "structure constant %s of %s * %s has a denominator "
                    "divisible by p = %d: the rational semi-normed basis "
                    "does not reduce mod %d"
                    % (step[0], a.table.paths[i], a.table.paths[j], arg,
                       arg))
        _check_unital_associative(a, self.field)
        # degree-0 basis: one slot per vertex
        self.bases = [[((), a.identity_index[v]) for v in q.vertices]]
        cur = [(i,) for i in a.non_identity]
        while cur:
            basis = []
            for t in sorted(cur):
                x, y = a.source[t[0]], a.target[t[-1]]
                for v in a.by_pair.get((x, y), []):
                    basis.append((t, v))
            self.bases.append(basis)
            cur = [t + (j,) for t in cur for j in a.starting[a.target[t[-1]]]]
        # pair_index[n]: (tuple, target) -> its position in degree n
        self.pair_index = [{pair: r for r, pair in enumerate(basis)}
                           for basis in self.bases]
        # columns[n][r] = {c: coefficient}: row r of the differential
        # C^{n-1} -> C^n, the same layout as the boundary columns of a
        # chain complex; a coboundary column is a column of the transpose
        self.columns = {n: self._b_columns(n)
                        for n in range(1, len(self.bases))}

    def _b_columns(self, n):
        a = self.algebra
        F = self.field
        upper = self.bases[n]
        col, row = self.pair_index[n - 1], self.pair_index[n]
        # raw rational sums of the face terms, made field elements once
        # per entry at the end
        sums = [{} for _ in upper]
        for t in sorted({t for t, _ in upper}):
            vs = a.vertices(t)
            # (face, scalar, left factor, right factor, face ends): the
            # first face s1 . f(t[1:]), the middle faces contract adjacent
            # pairs through the table, the last face f(t[:-1]) . sn
            faces = [(t[1:], 1, t[0], None, vs[1], vs[n])]
            for j in range(1, n):
                step = a.product[(t[j - 1], t[j])]
                if step is not None:
                    faces.append((t[:j - 1] + (step[1],) + t[j + 1:],
                                  (-1) ** j * step[0], None, None,
                                  vs[0], vs[n]))
            faces.append((t[:-1], (-1) ** n, None, t[-1], vs[0], vs[n - 1]))
            for face, x, left, right, u, v in faces:
                for w in a.by_pair.get((u, v), []):
                    c = col.get((face, w))
                    if c is None:
                        continue
                    if left is not None:
                        step = a.product.get((left, w))
                    elif right is not None:
                        step = a.product.get((w, right))
                    else:
                        step = (1, w)
                    if step is not None:
                        y = x if step[0] == 1 else x * step[0]
                        entries = sums[row[(t, step[1])]]
                        entries[c] = entries.get(c, 0) + y
        of, zero = F.of, F.zero
        return [{c: z for c, y in entries.items() if (z := of(y)) != zero}
                for entries in sums]

    def dims(self):
        return [len(b) for b in self.bases]

    def top_dim(self):
        return len(self.bases) - 1

    def hh_dims(self):
        """Cohomology dimensions per degree, 0 .. top+1."""
        return list(homology_of_matrices(
            dict(enumerate(self.dims())), self.columns, self.field_label,
            self.top_dim() + 1).groups)


def hochschild_cup(hc, p, f, q, g):
    """(f cup g)(t) = f(front p) * g(back q), product in the algebra.

    Cochains are dicts keyed by (tuple, target-element) basis pairs; the
    result is a dict on the degree p+q basis.
    """
    a = hc.algebra
    n = p + q
    if n > hc.top_dim():
        return {}
    out = {}
    for t, v in hc.bases[n]:
        vs = a.vertices(t) if t else [a.source[v]]
        fends, gends = (vs[0], vs[p]), (vs[p], vs[n])
        total = 0
        for w1 in a.by_pair.get(fends, []):
            c1 = f.get((t[:p], w1), 0)
            if not c1:
                continue
            for w2 in a.by_pair.get(gends, []):
                c2 = g.get((t[p:], w2), 0)
                if not c2:
                    continue
                step = a.product.get((w1, w2))
                if step is not None and step[1] == v:
                    total += c1 * c2 * step[0]
        if total:
            out[(t, v)] = total
    return out


# ---------------------------------------------------------------------------
# epsilon / mu


@dataclass(frozen=True)
class EpsilonMuReport:
    eps: dict        # degree -> sparse columns, one per simplicial tuple
    mu: dict         # degree -> sparse columns, one per Hochschild pair
    mu_eps_identity: bool
    eps_cochain_map: bool
    mu_cochain_map: bool
    eps_mu_identity: bool
    schurian: bool
    semi_commutative: bool
    degrees: tuple   # per degree: dict(sh, hh, rank, injective, surjective)
    iso: bool


def epsilon_mu(algebra, sc, hc):
    """Comparison between simplicial and Hochschild cochains over k.

    eps[n][c] = {r: lambda} sends the simplicial cell c, whose classes'
    elements are (s_1, .., s_n), to its basis pair r = ((s_1, .., s_n), b),
    where s_1 .. s_n = lambda b; mu[n][r] = {c: 1 / lambda} is its partial
    inverse, {} on pairs that no tuple reaches.  Both are sparse columns
    on cochain coordinates.  An `sc` grown from other classes or members
    than the algebra's (the classifying complex itself included), or an
    `hc` of another algebra, raises FieldMismatch.

    eps is always a cochain map: every face term of delta(eps f) on
    (s_1, .., s_{n+1}) is a face value of f times the full product
    s_1 .. s_{n+1}.  It sends distinct tuples to nonzero multiples of
    distinct pairs, so eps(SC) is the coordinate subcomplex on the pairs
    that mu reaches, and Q = HC/eps(SC) is HC restricted to the others.
    The long exact sequence of 0 -> SC -> HC -> Q -> 0 gives the rank
    rk_n of SH^n -> HH^n: rk_0 = sh_0, and h^n(Q) = (hh_n - rk_n) +
    (sh_{n+1} - rk_{n+1}).  mu is built as the partial inverse of eps, so
    mu eps is the identity exactly when no two tuples share a pair, and
    eps mu exactly when every pair is reached: both identities are counts.
    mu eps = id and eps being a cochain map are checked first; a failure
    raises AssertionError rather than ranking a non-complex.

    The cochain-map squares are read off the rows of HC's differential in
    one pass.  Write E_n for the degree-n pairs that eps reaches, r(c)
    for the pair of tuple c and lambda_c for its scalar, and hc[r'][p],
    sc[c'][c] for the entries of the two differentials (rows in degree n,
    entries in degree n-1).  On the coordinate vector of a tuple c,
    eps delta = delta eps reads sum_c' sc[c'][c] lambda_c' r(c') =
    lambda_c sum_r' hc[r'][r(c)] r'; r is a bijection onto E, so this
    holds exactly when
      (i)  no row r' outside E_n has an entry at a pair of E_(n-1), and
      (ii) hc[r(c')][r(c)] lambda_c == sc[c'][c] lambda_c' for all c', c
           (a missing entry is 0).
    On the coordinate vector of a pair p, mu delta = delta mu reads
    sum_(r' = r(c') in E_n) hc[r'][p] / lambda_c' c' = [p = r(c)]
    sum_c' sc[c'][c] / lambda_c c', which holds exactly when (ii) holds
    (multiply through by lambda_c lambda_c') and
      (iii) no row in E_n has an entry outside E_(n-1).
    So eps is a cochain map exactly when (i) and (ii) hold, and mu
    exactly when (ii) and (iii) do.  Only (ii) does arithmetic, on the
    entries between two eps pairs; the same pass keeps the rows and
    entries of Q.
    """
    a = algebra
    if (sc.classes is not a.classes or sc.members != a.members
            or hc.algebra is not a):
        raise FieldMismatch(
            "simplicial and Hochschild complexes must come from the same "
            "semi-normed algebra")
    F = hc.field
    props = algebra_properties(a.table)
    top = max(sc.top_dim(), hc.top_dim())
    sc_dims = sc.counts() + [0] * (top + 2 - len(sc.keys))
    hc_dims = hc.dims() + [0] * (top + 2 - len(hc.bases))
    eps, mu = {}, {}
    # reach[n] = {r(c): (c, lambda_c)}, the pairs of E_n
    reach = {}
    # products[c] = (lambda, b) when SC cell c's product is lambda b: the
    # product of its last face d_n times its last element
    products = []
    for n in range(top + 1):
        bidx = hc.pair_index[n] if n <= hc.top_dim() else {}
        eps[n] = []
        mu[n] = [{} for _ in range(hc_dims[n])]
        reach[n] = {}
        before, products = products, []
        for c, key in enumerate(sc.keys[n] if n <= sc.top_dim() else []):
            if n == 0:
                t, lam, b = (), 1, a.identity_index[key]
            else:
                t = tuple(map(a.members.__getitem__, key))
                lam, b = before[sc.faces[n][c][-1]]
                step = a.product[(b, t[-1])]
                lam, b = QQ.of(lam * step[0]), step[1]
            products.append((lam, b))
            r = bidx[(t, b)]
            x = F.of(lam)
            if x == F.zero:
                raise ValueError(
                    "structure constant %s of %s vanishes mod p = %d, so mu "
                    "cannot invert it: the rational semi-normed basis does "
                    "not reduce mod %d"
                    % (lam, " * ".join(str(a.table.paths[i]) for i in t),
                       F.p, F.p))
            eps[n].append({r: x})
            mu[n][r] = {c: F.inv(x)}
            reach[n][r] = (c, x)
    mu_eps = all(len(reach[n]) == len(eps[n]) for n in range(top + 1))
    eps_mu = all(len(reach[n]) == hc_dims[n] for n in range(top + 1))
    # Q keeps the pairs outside eps(SC), as rows and as entries; a pair in
    # eps(SC) keeps its place as an empty row, so that Q stays on HC's
    # coordinates, which the ranking reads its pivots in
    eps_chain = mu_chain = True
    q_columns = {}
    for n, rows in hc.columns.items():
        inside, below = reach[n], reach[n - 1]
        q_rows = q_columns[n] = []
        for r, row in enumerate(rows):
            if r not in inside:
                kept = {p: x for p, x in row.items() if p not in below}
                eps_chain = eps_chain and len(kept) == len(row)    # (i)
                q_rows.append(kept)
                continue
            q_rows.append({})
            c, lam = inside[r]
            got = {}
            for p, x in row.items():
                if p in below:
                    got[p] = F.mul(x, below[p][1])
                else:
                    mu_chain = False                               # (iii)
            want = {}
            for d, k in sc.columns[n][c].items():
                (p,) = eps[n - 1][d]    # r(d)
                want[p] = F.mul(F.of(k), lam)
            if got != want:                                        # (ii)
                eps_chain = mu_chain = False
    if not mu_eps:
        raise AssertionError("mu . epsilon must be the identity")
    if not eps_chain:
        raise AssertionError("epsilon must be a cochain map")
    q_dims = {n: hc_dims[n] - len(reach[n]) for n in range(top + 1)}
    def ranked(dims, columns, top):
        return homology_of_matrices(dims, columns, hc.field_label, top).groups
    sh = ranked(dict(enumerate(sc_dims)), sc.columns, top + 1)
    hh = ranked(dict(enumerate(hc_dims)), hc.columns, top + 1)
    hq = ranked(q_dims, q_columns, top)
    rks = [sh[0]]
    for n in range(top + 1):
        rks.append(sh[n + 1] + hh[n] - rks[n] - hq[n])
    degrees = tuple({"sh": sh[n], "hh": hh[n], "rank": rk,
                     "injective": rk == sh[n], "surjective": rk == hh[n]}
                    for n, rk in enumerate(rks))
    iso = all(d["injective"] and d["surjective"] for d in degrees)
    return EpsilonMuReport(eps, mu, mu_eps, eps_chain, mu_chain, eps_mu,
                           props.schurian, props.semi_commutative,
                           degrees, iso)
