"""Slow reference constructions that the library's fast ones are tested
against.

`rebuilt_path_table` is the path table as it was built before the
per-pair bases were grown one length at a time: for each candidate bound
L it forms every whole product u*g*v that fits in length L, reduces every
vertex pair's span from scratch and tests each length-L path by reducing
its dense unit vector; at the accepted L it rebuilds all slices once more
from the truncated products (longer components dropped).  Its last
step, `truncated_path_table`, is exact at any L with F^(L+1) <= I, so
at a bound certified by normal forms it checks the Groebner table
without a certificate of its own.

`lengthwise_path_table` is the path table as it was built before the
Groebner basis: each pair's reduced basis grown one length at a time by
the products u*g*v whose longest term has length L, until every length-L
path is a pivot.  Its certificate sees a path in I only through whole
products that fit in length L, so it certifies a bound one above the
exact index on two of the differential inputs, and none at all for the
loops x, y bound by x^2 - y^3, x*y and y*x.

`swept_natural_classes` is natural homotopy as it was computed before the
congruence closure: the co-member groups merged, then every factor of
every table path replaced by every other member of its class, in full
passes until one pass merges nothing.

`SortedPathClassTable` is the class table as it was built before the
classes were read off in table order: each class's members sorted by
`path_sort_key`, the classes sorted by their least members, and the
endpoints, identity flag and representative collected over all members.

`FoundPathClassTable` is the class table as it was built before the
roots were found by pointer jumping: `_find` per index (compressing the
forest it is given), the members checked parallel one by one, and each
class's representative found by scanning its members.

`PerPathTable` is the path table as it was numbered before its ideal
rows were read off the reducible words alone: one pass over all table
paths, each looking its word up among the normal forms.

`rowwise_faces_square_zero` is the boundary-of-boundary check on face
rows as it ran before the identities were compared a whole layer at a
time: each cell's faces of faces concatenated into one list and both
sides of every identity picked out of it by two item getters.

`dense_semi_normed_basis` is the semi-normed verifier as it ran before
each vertex pair was reduced once with the candidates last: a rank per
pair for independence, then a dense augmented RREF of the basis images
and the ideal rows for every product of two basis elements.

`reducing_semi_normed_basis` is the semi-normed verifier as it ran
before it read the tip rows of the pairs whose candidates are normal
words: every pair's ideal slice reduced with the candidates last, each
path's expansion stored by path, and every product looked up through
the composed path.

`cocycle_image_degrees` is the comparison of epsilon_mu as it was
computed before the long exact sequence of HC/eps(SC): a basis of the
simplicial cocycles, read off the RREF of each simplicial coboundary,
pushed through eps and ranked together with the Hochschild coboundaries.

`per_matrix_ranked` ranks a chain complex as it was ranked before
clearing: every boundary matrix on its own, with all of its columns
eliminated.

`unit_pivot_smith_divisors` is `smith_divisors` as it ran before the
left-looking reduction: a right-looking elimination that keeps a
row -> holders index, pivots each column on the +-1 entry whose row the
fewest other columns hold, clears that row from every other column, and
repeats until no unit entry is left; the dense residual goes through
`smith_normal_form`.

`check_square_zero` is the check that a complex given by sparse
columns squares to zero as the library ran it before: one sparse
combination of the columns below per column, `Fraction` arithmetic
included.  The cell complexes and SC check their face identities
instead, and HC the associativity of its structure table.
`commuting_squares` is the epsilon/mu cochain-map check as epsilon_mu
ran it before it read the rows of HC's differential in one pass: both
coboundaries transposed into columns by `sparse_transpose`, and
`_commutes` comparing the two sides of every square column by column.

`column_phi_psi_maps` is phi_psi_maps as it ran before the maps became
lists of positions: phi, psi and phi-sharp as 0/1 sparse columns, each
natural class's basis element looked up by `elt_of_class`, the chain-map
squares compared by `_commutes` and the inverse pair by `_is_inverse`,
both through `sparse_apply`.  `sc_cup` is the cup product of SC as it
was before SC became a face complex: front and back faces sliced off
each tuple's key.

`FractionField` is the arithmetic of Q as it was before its elements
became ints wherever integral: every element a Fraction.  Run through the
same elimination kernel, it is the oracle of the int-first form, and the
rebuild-per-L path table reduces its slices with it.

`dense_rref` is the column-by-column dense Gauss-Jordan that the sparse
elimination kernel replaced; the rebuild-per-L path table and the dense
semi-normed verifier reduce with it.

`walked_simplicial`, `walked_hochschild` and `folded_epsilon_mu` build
the simplicial and Hochschild complexes and epsilon/mu as they were built
before the basis was indexed by source vertex: every tuple end tested
against every non-identity element, each simplicial tuple's product
refolded from its first element by `folded_product`, and the Hochschild
differential in three blocks, one per kind of face.

`reenumerated_pushout` is the van Kampen pushout as it was computed
before the pieces read the parent's path table: each piece and the
intersection rebuilt by `bound_full_subquiver` as a bound quiver of its
own, bound by the parent's ideal slice bases, its path table enumerated
again and presented by `pi1_presentation`.  Its convexity check
`swept_convexity_check` finds the outside vertices that reach a piece
by passes over all arrows until one adds none.

`rounds_tietze` is the Tietze simplification as it ran before each
relator was canonicalised once per call: a `changed` flag over rounds,
and every relator's cyclic canonical form recomputed in every round by
comparing `letter_key` lists rotation by rotation.

`rechecked_lift` and `rechecked_deck_group` are the induced cell map
and the deck group as computed before each covering stage took the
report of the one before: each checks the covering (and the Galois
action) again, the deck group lifts the cell map again, cell fibers
scan every cover cell for each base cell, and `vertex_set_incidence`
compares the sets of cells at a vertex (built by `cell_vertex_sets`),
which misses a cell that passes one vertex twice.  `TabledGroupAction`
is the group action with its composition table and inverse search.

`voltage_covers` gives seeded Z/2 and Z/3 voltage covers of the
differential inputs (`voltage_cover`), Galois by construction.

`random_cyclic_quiver` gives seeded small quivers with oriented cycles,
bound by random relations of up to three terms; many are not admissible.

`object_complex` is the cell complex as built before it was kept on
table ids: a `Cell` with its witness `Path` for every cell, the cell
index over all of them, and every composite looked up anew, zero
members included.  `ObjectCellComplex` holds what it built.

`bfs_spanning_tree` is the spanning tree as found before the search read
only the arrows at each vertex and kept parent links: every dequeued
vertex scans all arrows, and each vertex's walk copies its parent's.

`object_path_table` is the path table as `enumerate_paths` built it
before the table was kept as arrow words, ends and indices: a `Path`
per enumerated path, and `ObjectPathTable` numbering the pairs again by
walking the `Path` list.  `nonzero_paths`, `paths_between`,
`class_paths` and `compose` are the `Path` readers the library had on
its tables and paths, which only the tests used.

`pumped_semi_commutative` is semi-commutativity as `algebra_properties`
decided it before the closure of the ideal's member pairs: a scan of the
table's pairs for one whose paths are split between I and its
complement (`flag_scan_semi_commutative`), then, when none is, a search
for a nonzero pair joined by a path past the bound, over the lengths
L+1 .. L+|Q_0| from every vertex (`pairs_with_paths_beyond`).

`all_component_presentation` is the fundamental group presentation as
`pi1_presentation` listed it before it kept only the joins: one relator
w_1 w_j^-1 for every co-member w_j of every matroid component.
`certified_closure` is the congruence closure of the co-member seeds
with a first-in first-out queue and the reason for every union
recorded, so that each dropped seed's relator is written out as a
product of conjugates of the joins' relators.

`comm_grid_text` writes the seeded commutative grids and 2 x n ladders
that the `comm_grid` fixture and the ladder tests use, and
`free_grid_text` the same grids with no relation.

`add_one_by_one` is `_Rewriting.add` as it stored single-path relations
before it stored them directly: one element at a time, each reduced by
the rules already stored.

`rewriting_monomial_path_counts` is `monomial_path_counts` as it ran
before it counted on the relations' paths as written: the relations go
through `_Rewriting.add`, which keeps the minimal ones only, and the
automaton is built on those.

`monomial_collapse` is the collapse of a monomial quiver's complex onto
its graph as `cellular_chains` took it before the route was chosen on
the relations as written: it reads the nonzero path lengths off the
path table, whenever every reduced ideal row is a single path, so it
also takes the ideals that are monomial only after reduction.

`square_zero_chain_text` writes the radical-square-zero chains and
cycles that the `square_zero_chain` fixture and the CI step on the
2,000-arrow chain use.

`differential_quivers` is the input list the differential tests share:
the corpus, the seeded samples, the benchmark's generated quivers and a
few fixed ones.

`column_parse`, `column_parse_morphism` and `column_parse_group` are the
text readers as they ran before a word's column was worked out only for
an error: `column_tokens` finds every token's column as it splits the
line, by a left-to-right `str.index` scan, and keeps a (token, line,
column) tuple per token.

`full_parse_argv` is the command line parsed as `cli.main` parsed it
before a subcommand's words went straight to that subcommand's parser:
the top parser's `parse_args`, which reads every word against its own
options and then hands the subcommand's words to its parser.

`complex_skeleton_dot` is `dot --skeleton` as it was written before it
read the 1-cells off the classes: the natural complex built up to
dimension 1, and an edge per 1-cell labelled by its witness.

`dict_cells_report` is the `cells` report as `cli.main` built it before
each layer of cells was written as one block: the whole report as plain
data, every cell of dimension n >= 1 a `{"classes": [...], "witness":
...}` dict, for `json.dumps` to write.

The library names a path by its table index, in the ideal rows and in
the semi-normed basis alike.  Oracles that work in pair-local positions
(a path's place in its pair's `pair_paths` list) or in element
positions (a basis path's place among the identities and then the
sorted basis paths) are compared through that relabelling:
`local_rows` and `indexed_rows` translate rows each way through
`pair_paths`, and `relabelled_algebra` a structure table through the
basis paths' table indices.
"""

import collections
import functools
import importlib.util
import itertools
import math
import operator
import pathlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from bqtop import BoundQuiver, RelVector, __version__, enumerate_paths
from bqtop.algcohom import (NoSemiNormedBasis, PhiPsiReport,
                            SemiNormedAlgebra, SemiNormedFailure,
                            _acyclic_classes, simplicial_complex)
from bqtop.cli import _build_parser
from bqtop.complex import (build_complex, check_faces_square_zero,
                           euler_characteristic, graph_collapse,
                           parse_coefficients, sparse_column)
from bqtop.coverings import (CellMapReport, DeckReport, NotACovering,
                             NotGalois, QuiverMorphism, _faces_commute,
                             _induced_cell_map, check_covering, check_galois,
                             compose_morphisms)
from bqtop.core import (DEFAULT_PATH_CAP, AdmissibilityError,
                        MalformedRelation, NotConnectedError, Path,
                        PathTable, _normal_forms, _Rewriting, _unbounded,
                        in_vertex_order, path_sort_key)
from bqtop.dsl import _COEFF, ParseError, _build_morphism, parse
from bqtop.homotopy import (HypothesisViolated, PathClassTable, Presentation,
                            VanKampenResult, _cyclic_reduce, _find,
                            _substitute, _union,
                            _word_inverse, free_reduce,
                            natural_homotopy_classes, pi1_presentation,
                            relation_components, walk_homotopy_classes)
from bqtop.linalg import (QQ, PrimeField, extend_rref, rank,
                          smith_normal_form, sparse_rref)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


class FractionField:
    """Field operations over Q, elements are Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(n):
        return Fraction(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return Fraction(1) / a

    def __repr__(self):
        return "QQ(Fraction)"


FRACTIONS = FractionField()


def dense_rref(rows, field):
    """Column-by-column dense Gauss-Jordan, the elimination the dense
    `rref` ran before the sparse kernel.  Returns (rows, pivot columns):
    the nonzero rows of the reduced form come first, then zero rows."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if m[i][c] != field.zero),
                   None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        piv = field.inv(m[r][c])
        m[r] = [field.mul(piv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y))
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _spans(quiver, by_len, max_len, truncate):
    """Term lists of the products u*g*v per vertex pair: whole products
    within max_len, or with truncate=True every product whose shortest
    component fits, its longer components dropped."""
    spans = {}
    paths_to, paths_from = {}, {}
    for bucket in by_len[:max_len + 1]:
        for p in bucket:
            paths_to.setdefault(p.target, []).append(p)
            paths_from.setdefault(p.source, []).append(p)
    for rel in quiver.relations:
        lens = [len(p) for p, _ in rel.terms]
        critical = min(lens) if truncate else max(lens)
        for u in paths_to.get(rel.source, []):
            for v in paths_from.get(rel.target, []):
                if len(u) + critical + len(v) > max_len:
                    continue
                terms = [(compose(compose(u, p), v), c) for p, c in rel.terms
                         if len(u) + len(p) + len(v) <= max_len]
                spans.setdefault((u.source, v.target), []).append(terms)
    return spans


def _dense_slices(quiver, by_len, max_len, spans):
    """Pair-local path lists and dense RREF rows of each pair's span."""
    pair_lists = {}
    for bucket in by_len[:max_len + 1]:
        for p in bucket:
            pair_lists.setdefault((p.source, p.target), []).append(p)
    for plist in pair_lists.values():
        plist.sort(key=lambda p: path_sort_key(quiver, p))
    rows_by_pair = {}
    for pair, termlists in spans.items():
        pos = {p: k for k, p in enumerate(pair_lists[pair])}
        raw = []
        for terms in termlists:
            vec = [Fraction(0)] * len(pos)
            for p, c in terms:
                vec[pos[p]] += c
            raw.append(vec)
        rows = [r for r in dense_rref(raw, FRACTIONS)[0] if any(r)]
        if rows:
            rows_by_pair[pair] = rows
    return rows_by_pair, pair_lists


def _paths_up_to(quiver, n):
    """All paths of length <= n, grouped by length.

    n=None enumerates until a length has no paths (acyclic quivers only).
    """
    by_len = [[Path(v, v, ()) for v in quiver.vertices]]
    while n is None or len(by_len) <= n:
        by_len.append(_next_paths(quiver, by_len[-1]))
        if not by_len[-1]:
            break
    while n is not None and len(by_len) <= n:
        by_len.append([])
    return by_len


def dense_reduces_to_zero(rows, vec):
    """Whether a dense vector lies in the span of dense RREF rows."""
    v = list(vec)
    for row in rows:
        lead = next(k for k, x in enumerate(row) if x != 0)
        if v[lead] != 0:
            f = v[lead]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def rebuilt_path_table(quiver, cap):
    """(bound, paths, {pair: dense RREF rows}, in_ideal, dims) as the
    rebuild-per-L construction gives them; raises AdmissibilityError
    with the message the library gave before normal forms when no
    L <= cap certifies."""
    if quiver.is_acyclic():
        by_len = _paths_up_to(quiver, None)
        cap = max(cap, len(by_len) - 1)
        by_len += [[] for _ in range(cap + 1 - len(by_len))]
    else:
        by_len = _paths_up_to(quiver, cap)
    for L in range(2, cap + 1):
        rows_by_pair, pair_lists = _dense_slices(
            quiver, by_len, L, _spans(quiver, by_len, L, truncate=False))
        if all(dense_reduces_to_zero(
                rows_by_pair.get((p.source, p.target), []),
                [Fraction(q == p) for q in pair_lists[(p.source, p.target)]])
               for p in by_len[L]):
            break
    else:
        raise AdmissibilityError(
            "no nilpotency bound L <= %d certifies the ideal admissible; "
            "raise the path cap if the quiver is genuinely bounded" % cap)
    return (L,) + truncated_path_table(quiver, L, by_len)


def truncated_path_table(quiver, L, by_len=None):
    """(paths, {pair: dense RREF rows}, in_ideal, dims) on the paths of
    length <= L, from the products u*g*v with their terms longer than L
    dropped: the slices of I exactly once F^(L+1) <= I, since I then
    holds what is dropped.  `by_len` lists the paths by length, at least
    up to L, when the caller has them."""
    by_len = by_len or _paths_up_to(quiver, L)
    rows_by_pair, pair_lists = _dense_slices(
        quiver, by_len, L, _spans(quiver, by_len, L, truncate=True))
    paths = sorted((p for bucket in by_len[:L + 1] for p in bucket),
                   key=lambda p: path_sort_key(quiver, p))
    index = {p: i for i, p in enumerate(paths)}
    in_ideal = set()
    dims = {}
    for pair, plist in pair_lists.items():
        rows = rows_by_pair.get(pair, [])
        dims[pair] = len(plist) - len(rows)
        for k, p in enumerate(plist):
            e = [Fraction(j == k) for j in range(len(plist))]
            if rows and dense_reduces_to_zero(rows, e):
                in_ideal.add(index[p])
    return paths, rows_by_pair, in_ideal, dims


def lengthwise_path_table(quiver, cap=12):
    """The PathTable as `enumerate_paths` built it before the Groebner
    basis: length-by-length elimination.

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
    return ObjectPathTable(quiver, L, paths,
                           {pair: dict(sorted(b.items()))
                            for pair, b in basis.items() if b})


def _next_paths(quiver, bucket):
    """The one-arrow extensions of a list of paths of one length."""
    return [Path(p.source, a.target, p.arrows + (a.name,))
            for p in bucket for a in quiver.arrows_from[p.target]]


def local_rows(table):
    """Each pair's ideal rows in the coordinates of the oracles' slices:
    a list in ascending pivot order, each row keyed by the positions of
    its paths in the pair's `pair_paths` list."""
    out = {}
    for pair, rows in table.ideal_rows.items():
        local = {i: k for k, i in enumerate(table.pair_paths[pair])}
        out[pair] = [{local[i]: x for i, x in row.items()}
                     for row in rows.values()]
    return out


def indexed_rows(pair_paths, rows):
    """Rows {pair: {pivot: row}} in the positions of each pair's
    `pair_paths` list, relabelled to the table indices there."""
    out = {}
    for pair, pivoted in rows.items():
        idxs = pair_paths[pair]
        out[pair] = {idxs[c]: {idxs[k]: x for k, x in row.items()}
                     for c, row in pivoted.items()}
    return out


class ObjectPathTable(PathTable):
    """The path table over a list of `Path` objects, numbered by walking
    it, as the library built it before it kept arrow words and ends; its
    rows {pair: {pivot: row}} come in pair-local positions."""

    def __init__(self, quiver, bound, paths, ideal_rows):
        self.quiver = quiver
        self.bound = bound
        self.paths = paths
        self.pair_paths = {}
        for i, p in enumerate(paths):
            self.pair_paths.setdefault((p.source, p.target), []).append(i)
        self.ideal_rows = indexed_rows(self.pair_paths, ideal_rows)
        # no row has an entry at another row's pivot, so a combination of
        # rows has the coefficient of row i at row i's pivot, and a path's
        # unit vector is in the span exactly when it is one of the rows
        self.in_ideal = {c for rows in self.ideal_rows.values()
                         for c, row in rows.items() if len(row) == 1}
        self.dims = {pair: len(idxs) - len(ideal_rows.get(pair, ()))
                     for pair, idxs in self.pair_paths.items()}
        # the views the library's readers take
        self.words = [p.arrows for p in paths]
        self.sources = [p.source for p in paths]
        self.targets = [p.target for p in paths]

    @functools.cached_property
    def arrow_index(self):
        return {p.arrows: i for i, p in enumerate(self.paths) if p.arrows}


class PerPathTable(PathTable):
    """The path table numbered one path at a time, each path's normal form
    looked up in `nf` as it is numbered, as `enumerate_paths` built it
    before the ideal rows were read off the reducible words alone."""

    def __init__(self, quiver, bound, words, nf):
        self.quiver, self.bound, self.words = quiver, bound, words
        rest = words[len(quiver.vertices):]
        source = {a.name: a.source for a in quiver.arrows}
        target = {a.name: a.target for a in quiver.arrows}
        self.sources = list(quiver.vertices) + [source[w[0]] for w in rest]
        self.targets = list(quiver.vertices) + [target[w[-1]] for w in rest]
        pair_paths, rows, in_ideal, later = {}, {}, set(), []
        for i, pair in enumerate(zip(self.sources, self.targets)):
            pair_paths.setdefault(pair, []).append(i)
            f = nf.get(words[i])
            if f is None:
                continue
            row = rows.setdefault(pair, {})[i] = {} if f else {i: 1}
            if f:
                later.append((row, f, i))
            else:
                in_ideal.add(i)
        if later:
            at = {w: i for i, w in enumerate(words)}
            for row, f, i in later:
                for w, c in f.items():
                    row[at[w]] = -c
                row[i] = 1
        self.pair_paths = pair_paths
        self.ideal_rows, self.in_ideal = rows, in_ideal
        self.dims = {pair: len(idxs) - len(rows.get(pair, ()))
                     for pair, idxs in pair_paths.items()}

    @functools.cached_property
    def arrow_index(self):
        nv, n = len(self.quiver.vertices), len(self.words)
        return dict(zip(self.words[nv:], range(nv, n)))


def compose(p, q):
    """The path p followed by the path q."""
    assert p.target == q.source, "paths not composable"
    return Path(p.source, q.target, p.arrows + q.arrows)


def nonzero_paths(table):
    """The table's paths outside the ideal, in table order."""
    return [p for i, p in enumerate(table.paths) if i not in table.in_ideal]


def paths_between(table, x, y):
    """The table's paths from x to y, in table order."""
    return [table.paths[i] for i in table.pair_paths.get((x, y), [])]


def class_paths(classes, cid):
    """The member paths of the class cid, in table order."""
    return [classes.table.paths[i] for i in classes.class_members[cid]]


def object_path_table(quiver, cap=12):
    """The PathTable as `enumerate_paths` built it before it kept arrow
    words: a `Path` per enumerated path, each length sorted by its
    arrows, a dict of pair-local indices for the rows, and the table
    numbered again by `ObjectPathTable`.  The normal forms are the
    library's `_normal_forms`, which reads each bucket's words."""
    for rel in quiver.relations:
        rel.check_admissible_format()
    acyclic = quiver.is_acyclic()
    rules = _Rewriting(quiver)
    rules.add({p.arrows: c for p, c in rel.terms}
              for rel in quiver.relations)
    by_len = [[Path(v, v, ()) for v in quiver.vertices]]
    nf, seen, done = {}, None, 2

    def refresh(L):
        """Normal forms of all paths of length 2 .. L under the rules."""
        nonlocal seen, done
        if rules.changes != seen:
            nf.clear()
            seen, done = rules.changes, 2
        while done <= L:
            _normal_forms(rules, [p.arrows for p in by_len[done]], nf)
            done += 1

    witness = None
    for L in itertools.count(2):
        if L > cap and not acyclic:
            if witness is None:  # below a cap of 2 every path is normal
                a = quiver.arrows[0]
                witness = (Path(a.source, a.target, (a.name,)) if cap >= 1
                           else Path(a.source, a.source, ()))
            raise AdmissibilityError(
                "no nilpotency bound L <= %d certifies the ideal admissible: "
                "the path %s of length %d does not reduce to 0; raise the "
                "path cap if the quiver is genuinely bounded"
                % (cap, witness, len(witness)))
        while len(by_len) <= L:
            bucket = _next_paths(quiver, by_len[-1])
            bucket.sort(key=lambda p: p.arrows)
            by_len.append(bucket)
        rules.resolve(L)
        refresh(L)
        witness = next((p for p in by_len[L] if nf.get(p.arrows) != {}),
                       None)
        if witness is None:
            break
    bound = next(n for n in range(2, L + 1)
                 if all(nf.get(p.arrows) == {} for p in by_len[n]))
    # pair-local indices, needed from length 2 on, where rows live
    size = {(v, v): 1 for v in quiver.vertices}
    for a in quiver.arrows:
        size[a.source, a.target] = size.get((a.source, a.target), 0) + 1
    rows, local = {}, {}
    for bucket in by_len[2:bound + 1]:
        for p in bucket:
            pair = p.source, p.target
            k = local[p.arrows] = size.get(pair, 0)
            size[pair] = k + 1
            f = nf.get(p.arrows)
            if f is not None:
                row = {local[w]: -c for w, c in f.items()} if f else {}
                row[k] = 1
                rows.setdefault(pair, {})[k] = row
    paths = [p for bucket in by_len[:bound + 1] for p in bucket]
    return ObjectPathTable(quiver, bound, paths, rows)


def path_vertices(quiver, p):
    """The vertices a path passes through, from its source to its target
    (the library's `BoundQuiver.path_vertices` before it was removed)."""
    return [p.source] + [quiver.arrow_by_name[name].target
                         for name in p.arrows]


def swept_natural_classes(table):
    """(classes, skipped): the partition of table indices into natural
    classes, as a set of frozensets, that the factor-replacement sweep
    p = uvw -> uv'w (v ~ v') reaches, and whether its final pass skipped a
    replacement because uv'w is longer than the table bound."""
    q = table.quiver
    index = {p: i for i, p in enumerate(table.paths)}
    parent = list(range(len(table.paths)))
    for group in relation_components(table):
        for i in group[1:]:
            _union(parent, group[0], i)
    changed = True
    while changed:
        changed = skipped = False
        members_of = {}
        for i in range(len(table.paths)):
            members_of.setdefault(_find(parent, i), []).append(i)
        for i, p in enumerate(table.paths):
            verts = path_vertices(q, p)
            for a in range(len(p) - 1):
                for b in range(a + 2, len(p) + 1):
                    mid = Path(verts[a], verts[b], p.arrows[a:b])
                    group = members_of.get(_find(parent, index[mid]), ())
                    for j in group:
                        alt = table.paths[j]
                        if alt == mid:
                            continue
                        if len(p) - (b - a) + len(alt) > table.bound:
                            skipped = True
                            continue
                        new = Path(p.source, p.target,
                                   p.arrows[:a] + alt.arrows + p.arrows[b:])
                        if _union(parent, i, index[new]):
                            changed = True
    classes = {}
    for i in range(len(table.paths)):
        classes.setdefault(_find(parent, i), set()).add(i)
    return set(map(frozenset, classes.values())), skipped


def certified_closure(table):
    """(partition, joins, certificates) of the co-member seeds' closure,
    each union recorded with its reason.

    The seeds are taken as `homotopy._closure` takes them, shortest
    first, but each is closed through a first-in first-out queue.  Every
    union is an edge (x, y) of a proof forest on the table indices, made
    for a seed that joins two classes or for the one-arrow extension
    (side, arrow) of an earlier union of the roots r, r'.  A forest edge
    stands for the relator x y^-1, and the edges along the forest path
    from u to v multiply to u v^-1.  An extension edge's relator is
    a (r r'^-1) a^-1 on the left and r r'^-1 on the right.  Expanding
    these recursively writes every edge's relator, and the relator of
    every seed found already joined, as a product of conjugates of the
    join relators: `certificates` maps each such seed (w_1, w_j) to a
    list of factors (conjugator word, join position, sign).
    """
    q = table.quiver
    words, arrow_index = table.words, table.arrow_index
    seeds = [(group[0], j) for group in relation_components(table)
             for j in group[1:]]
    parent = list(range(len(words)))
    forest = {}  # index -> [(neighbour, edge id, sign of the edge from it)]
    edges = []   # (x, y, reason)

    def extensions(i):
        w = words[i]
        if len(w) == table.bound:
            return {}
        keys = {(1, a.name): arrow_index[w + (a.name,)]
                for a in q.arrows_from[table.targets[i]]}
        keys.update({(0, a.name): arrow_index[(a.name,) + w]
                     for a in q.arrows_to[table.sources[i]]})
        return keys

    def union(x, y, reason):
        ra, rb = sorted((_find(parent, x), _find(parent, y)))
        if ra == rb:
            return []
        parent[rb] = ra
        forest.setdefault(x, []).append((y, len(edges), 1))
        forest.setdefault(y, []).append((x, len(edges), -1))
        edges.append((x, y, reason))
        keys = extensions(ra)
        return [(keys[key], j, ("extension", ra, rb) + key)
                for key, j in extensions(rb).items()]

    joins, dropped = [], []
    for s in sorted(range(len(seeds)),
                    key=lambda s: (max(len(words[i]) for i in seeds[s]), s)):
        a, b = seeds[s]
        if _find(parent, a) == _find(parent, b):
            dropped.append(s)
            continue
        joins.append(s)
        queue = collections.deque([(a, b, ("seed", s))])
        while queue:
            queue.extend(union(*queue.popleft()))
    position = {s: k for k, s in enumerate(sorted(joins))}

    def forest_path(u, v):
        """The (edge id, sign) steps of the forest path from u to v."""
        back = {u: None}
        todo = collections.deque([u])
        while v not in back:
            x = todo.popleft()
            for y, e, sign in forest.get(x, ()):
                if y not in back:
                    back[y] = (x, e, sign)
                    todo.append(y)
        steps = []
        while back[v] is not None:
            v, e, sign = back[v]
            steps.append((e, sign))
        return steps[::-1]

    @functools.cache
    def expand(e):
        x, y, reason = edges[e]
        if reason[0] == "seed":
            return (((), position[reason[1]], 1),)
        _, r, r2, side, arrow = reason
        factors = path_product(r, r2)
        if side:  # (r a)(r' a)^-1 = r r'^-1
            return factors
        return tuple((((arrow, 1),) + conj, k, sign)
                     for conj, k, sign in factors)

    def path_product(u, v):
        factors = []
        for e, sign in forest_path(u, v):
            part = expand(e)
            if sign == -1:
                part = tuple((conj, k, -t) for conj, k, t in reversed(part))
            factors.extend(part)
        return tuple(factors)

    classes = {}
    for i in range(len(words)):
        classes.setdefault(_find(parent, i), set()).add(i)
    return (set(map(frozenset, classes.values())),
            [seeds[s] for s in sorted(joins)],
            {seeds[s]: path_product(*seeds[s]) for s in dropped})


def all_component_presentation(table, sub, tree, base):
    """The arrows of `sub` over the tree relators and, for each co-member
    group w_1 < ... < w_m between its vertices, all the words
    w_1 w_j^-1."""
    relators = [((name, 1),) for name in tree]
    words = table.words
    for group in relation_components(table):
        first = group[0]
        if not {table.sources[first], table.targets[first]} \
                <= sub.vertex_index.keys():
            continue
        w1 = tuple((a, 1) for a in words[first])
        for j in group[1:]:
            relators.append(free_reduce(
                w1 + _word_inverse(tuple((a, 1) for a in words[j]))))
    return Presentation(tuple(a.name for a in sub.arrows), tuple(relators),
                        base)


def pairs_with_paths_beyond(quiver, bound):
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


def flag_scan_semi_commutative(table):
    """Whether no pair of the table holds both a member of I and a path
    outside it; paths past the bound are not looked at."""
    semi_commutative = True
    for pair, idxs in table.pair_paths.items():
        flags = {i in table.in_ideal for i in idxs}
        if len(flags) > 1:
            semi_commutative = False
            break
    return semi_commutative


def pumped_semi_commutative(table):
    """Semi-commutativity by the flag scan, then the pumping window."""
    semi_commutative = flag_scan_semi_commutative(table)
    if semi_commutative:
        long_pairs = pairs_with_paths_beyond(table.quiver, table.bound)
        if any(table.dims.get(pair, 0) > 0 for pair in long_pairs):
            semi_commutative = False
    return semi_commutative


def free_grid_text(n):
    """The free n x n grid: the arrows of `comm_grid_text(n, n)` and no
    relation, so its homology is the graph's, H0 = Z and H1 =
    Z^((n-1)^2)."""
    return "".join(line + "\n" for line in comm_grid_text(n, n).splitlines()
                   if not line.startswith("rel "))


def add_one_by_one(add):
    """`_Rewriting.add` as it stored single-path relations before it
    stored them directly: each element goes through `add` alone, the
    last first, so each is reduced by the rules stored before it, and a
    stored path that holds it gives way."""
    def one_by_one(rules, elems):
        for elem in reversed(list(elems)):
            add(rules, [elem])
    return one_by_one


def rewriting_monomial_path_counts(quiver, cap=DEFAULT_PATH_CAP):
    """{m: the number of nonzero paths of length m >= 1} when every
    relation is a single path, None otherwise, on the automaton of the
    minimal relations that `_Rewriting.add` keeps; a cyclic quiver with
    a nonzero path of length `cap` is refused naming the least one."""
    if any(len(rel.terms) != 1 for rel in quiver.relations):
        return None
    if cap < 2 and not quiver.is_acyclic():
        raise _unbounded(quiver, cap, None)
    rules = _Rewriting(quiver)
    rules.add({p.arrows: 1} for rel in quiver.relations for p, _ in rel.terms)
    tips, lengths = rules.tails, rules.lengths
    prefixes = {tip[:k] for tip in tips for k in range(1, len(tip))}
    moves = {}

    def grow(key):
        """(arrow name, key) of each nonzero one-arrow extension."""
        out = moves.get(key)
        if out is None:
            v, state = key
            out = moves[key] = []
            for a in quiver.arrows_from[v]:
                word = state + (a.name,)
                if not any(word[-n:] in tips for n in lengths):
                    out.append((a.name, (a.target, next(
                        (word[k:] for k in range(len(word))
                         if word[k:] in prefixes), ()))))
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


def monomial_collapse(table):
    """(counts, columns) of the natural complex of a monomial bound quiver,
    collapsed onto its underlying graph; None when the ideal is not
    monomial.

    The ideal is monomial when every reduced ideal row is a unit row.  The
    nonzero paths of length >= 1 are read off the table by length, and
    `graph_collapse` gives the counts and the one boundary matrix.
    """
    if any(len(row) != 1 for rows in table.ideal_rows.values()
           for row in rows.values()):
        return None
    words, in_ideal = table.words, table.in_ideal
    nv = len(table.quiver.vertices)
    return graph_collapse(table.quiver, collections.Counter(
        len(words[i]) for i in range(nv, len(words)) if i not in in_ideal))


def square_zero_chain_text(n, cycle=False):
    """The path of arrows a0 .. a(n-1) along 0 -> 1 -> ... -> n, every
    composite of two of them zero; with cycle=True the last arrow
    returns to 0."""
    ends = [(i, i + 1) for i in range(n)]
    if cycle:
        ends[-1] = (n - 1, 0)
    lines = ["arrow a%d %d %d" % (i, s, t) for i, (s, t) in enumerate(ends)]
    lines += ["rel a%d*a%d" % (i, i + 1) for i in range(n - 1)]
    if cycle:
        lines.append("rel a%d*a0" % (n - 1))
    return "\n".join(lines) + "\n"


def comm_grid_text(rows, cols, seed=11):
    """A seeded commutative grid of right (h) and down (d) arrows in which
    every square commutes up to nonzero coefficients drawn from a seeded
    generator; rows = 2 gives a ladder."""
    rng = random.Random(seed)
    lines = ["vertex x%d_%d" % (i, j)
             for i in range(rows) for j in range(cols)]
    lines += ["arrow h%d_%d x%d_%d x%d_%d" % (i, j, i, j, i, j + 1)
              for i in range(rows) for j in range(cols - 1)]
    lines += ["arrow d%d_%d x%d_%d x%d_%d" % (i, j, i, j, i + 1, j)
              for i in range(rows - 1) for j in range(cols)]
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b = (rng.choice([-1, 1]) * rng.randint(1, 9) for _ in "ab")
            lines.append("rel %d*h%d_%d*d%d_%d %s %d*d%d_%d*h%d_%d"
                         % (a, i, j, i, j + 1, "-" if b < 0 else "+",
                            abs(b), i, j, i + 1, j))
    return "\n".join(lines) + "\n"


def checkerboard_text(n, seed=11):
    """The n x n grid of `comm_grid_text` with its commutativity relation
    kept on the squares (i, j) with i + j even and none on the others.
    A free square's two paths are two classes, so the input is not thin,
    and each free square is one summand of H1 = Z^k."""
    lines = comm_grid_text(n, n, seed).splitlines()
    squares = [(i, j) for i in range(n - 1) for j in range(n - 1)]
    cut = len(lines) - len(squares)
    return "\n".join(lines[:cut] + [
        line for (i, j), line in zip(squares, lines[cut:])
        if (i + j) % 2 == 0]) + "\n"


class SortedPathClassTable(PathClassTable):
    """The class table of the partition `parent`, every order sorted."""

    def __init__(self, table, variant, parent, caveats=()):
        self.table = table
        self.variant = variant
        self.caveats = tuple(caveats)
        q = table.quiver
        groups = {}
        for i in range(len(table.paths)):
            groups.setdefault(_find(parent, i), []).append(i)
        keyed = []
        for members in groups.values():
            members.sort(key=lambda i: path_sort_key(q, table.paths[i]))
            keyed.append(members)
        keyed.sort(key=lambda ms: path_sort_key(q, table.paths[ms[0]]))
        self.class_members = keyed
        self.class_of_index = [None] * len(table.paths)
        for cid, members in enumerate(keyed):
            for i in members:
                self.class_of_index[i] = cid
        self.class_source = []
        self.class_target = []
        self.class_nonzero = []
        self.class_identity = []
        self.class_rep = []
        for members in keyed:
            paths = [table.paths[i] for i in members]
            srcs = {p.source for p in paths}
            tgts = {p.target for p in paths}
            assert len(srcs) == 1 and len(tgts) == 1, \
                "homotopy class members must be parallel"
            self.class_source.append(srcs.pop())
            self.class_target.append(tgts.pop())
            nz = [table.paths[i] for i in members if i not in table.in_ideal]
            self.class_nonzero.append(bool(nz))
            self.class_identity.append(any(p.is_stationary for p in paths))
            self.class_rep.append(nz[0] if nz else paths[0])


class FoundPathClassTable(PathClassTable):
    """The class table of the partition `parent`, each index's root found
    by `_find` (which compresses `parent` as it goes), one index at a
    time, and the representatives by a scan of each class's members."""

    def __init__(self, table, variant, parent, caveats=()):
        self.table = table
        self.variant = variant
        self.caveats = tuple(caveats)
        sources, targets = table.sources, table.targets
        in_ideal = table.in_ideal
        cid_of = {}
        self.class_of_index = [cid_of.setdefault(_find(parent, i), len(cid_of))
                               for i in range(len(sources))]
        self.class_members = [[] for _ in cid_of]
        for i, cid in enumerate(self.class_of_index):
            self.class_members[cid].append(i)
        firsts = [members[0] for members in self.class_members]
        self.class_source = [sources[i] for i in firsts]
        self.class_target = [targets[i] for i in firsts]
        assert all(sources[i] == self.class_source[cid]
                   and targets[i] == self.class_target[cid]
                   for i, cid in enumerate(self.class_of_index)), \
            "homotopy class members must be parallel"
        self.class_identity = [not table.words[i] for i in firsts]
        self.rep_index = [
            i if i not in in_ideal
            else next((j for j in members if j not in in_ideal), i)
            for i, members in zip(firsts, self.class_members)]
        self.class_nonzero = [i not in in_ideal for i in self.rep_index]


def relabelled_algebra(table, classes, elements, product):
    """The algebra of the basis paths `elements` (the identities first)
    whose structure table is keyed by their positions there, relabelled
    to the table indices that `SemiNormedAlgebra` takes."""
    at = list(map(table.position, elements))
    return SemiNormedAlgebra(table, classes, at, {
        (at[i], at[j]): None if step is None else (step[0], at[step[1]])
        for (i, j), step in product.items()})


def dense_semi_normed_basis(table, classes, paths):
    """The algebra, or the failure with its witnesses, that the dense
    verifier gives for nonzero, distinct basis paths holding every arrow
    (the pre-checks of `verify_semi_normed_basis` pass on them)."""
    q = table.quiver
    witnesses = []
    by_pair = {}
    for v in q.vertices:
        by_pair.setdefault((v, v), []).append(Path(v, v, ()))
    for p in paths:
        by_pair.setdefault((p.source, p.target), []).append(p)

    index = {p: i for i, p in enumerate(table.paths)}
    rows = local_rows(table)

    def unit(pair, path):
        vec = [Fraction(0)] * len(table.pair_paths[pair])
        vec[table.pair_paths[pair].index(index[path])] = Fraction(1)
        return vec

    for pair in sorted(set(table.dims) | set(by_pair),
                       key=lambda xy: (q.vertex_index[xy[0]],
                                       q.vertex_index[xy[1]])):
        cands = by_pair.get(pair, [])
        dim = table.dims.get(pair, 0)
        if len(cands) != dim:
            witnesses.append(
                "pair (%s,%s): %d basis elements for dimension %d"
                % (pair[0], pair[1], len(cands), dim))
        elif cands:
            vecs = rows.get(pair, []) + [unit(pair, p) for p in cands]
            if rank(vecs, QQ) != len(vecs):
                witnesses.append(
                    "pair (%s,%s): images of %s are linearly dependent mod "
                    "the ideal" % (pair[0], pair[1],
                                   ", ".join(str(p) for p in cands)))
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)
    elements = [Path(v, v, ()) for v in q.vertices]
    elements += sorted(paths, key=lambda p: path_sort_key(q, p))
    elt_pairs = {}
    for i, e in enumerate(elements):
        elt_pairs.setdefault((e.source, e.target), []).append(i)

    def expand(path):
        """Nonzero (element, coefficient) terms of the path's image."""
        pair = (path.source, path.target)
        idxs = elt_pairs[pair]
        cols = [unit(pair, elements[i]) for i in idxs]
        cols += [[row.get(k, Fraction(0))
                  for k in range(len(table.pair_paths[pair]))]
                 for row in rows.get(pair, [])]
        target = unit(pair, path)
        aug = [[col[i] for col in cols] + [target[i]]
               for i in range(len(target))]
        m, pivots = dense_rref(aug, FRACTIONS)
        assert len(cols) not in pivots, "basis must span its slice"
        return [(idxs[c], m[r][-1]) for r, c in enumerate(pivots)
                if c < len(idxs) and m[r][-1] != 0]

    product = {}
    for (i1, e1), (i2, e2) in itertools.product(enumerate(elements),
                                                repeat=2):
        if e1.target != e2.source:
            continue
        key = (i1, i2)
        path = compose(e1, e2)
        if e1.is_stationary:
            product[key] = (Fraction(1), i2)
        elif e2.is_stationary:
            product[key] = (Fraction(1), i1)
        elif table.vector_in_ideal([(path, 1)]):
            product[key] = None
        elif len(terms := expand(path)) != 1:
            witnesses.append("product %s * %s expands with %d basis terms"
                             % (e1, e2, len(terms)))
        else:
            product[key] = (terms[0][1], terms[0][0])
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)
    return relabelled_algebra(table, classes, elements, product)


def reducing_semi_normed_basis(table, paths, classes=None):
    """Check a basis of paths (identities implied) with witnesses.

    Each vertex pair's ideal slice is reduced once, with the candidates'
    coordinates last.  Every pivot then lands on a non-candidate path
    exactly when the candidates' images are independent (the count check
    already asks for n - rank I of them), and the row of a non-candidate
    path p reads p = -sum(row[c] * c) mod I, its expansion in the basis.
    """
    classes = _acyclic_classes(table, classes)
    q = table.quiver
    witnesses = []
    seen = []
    for p in paths:
        if p.is_stationary:
            continue  # identities are always included
        if p in seen:
            witnesses.append("duplicate basis path %s" % p)
            continue
        if table.vector_in_ideal([(p, 1)]):
            witnesses.append("basis path %s lies in the ideal" % p)
            continue
        seen.append(p)
    given = set(seen)
    for a in q.arrows:
        if Path(a.source, a.target, (a.name,)) not in given:
            witnesses.append("arrow %s missing from the basis" % a.name)
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)

    identities = [Path(v, v, ()) for v in q.vertices]
    elements = identities + sorted(seen, key=lambda p: path_sort_key(q, p))
    index = {p: i for i, p in enumerate(elements)}
    position = {p: i for i, p in enumerate(table.paths)}
    by_pair = {}
    for p in identities + seen:
        by_pair.setdefault((p.source, p.target), []).append(p)
    # path -> (lambda, element) for the nonzero paths of the table, and
    # path -> number of basis terms for those with more than one
    expansion, splits = {}, {}
    pairs = set(table.dims) | set(by_pair)
    for pair in sorted(pairs, key=lambda xy: (q.vertex_index[xy[0]],
                                              q.vertex_index[xy[1]])):
        cands = by_pair.get(pair, [])
        dim = table.dims.get(pair, 0)
        if len(cands) != dim:
            witnesses.append(
                "pair (%s,%s): %d basis elements for dimension %d"
                % (pair[0], pair[1], len(cands), dim))
            continue
        if not cands:
            continue
        last = set(cands)
        order = [table.paths[i] for i in table.pair_paths[pair]
                 if table.paths[i] not in last]
        free = len(order)
        order += cands
        at = {position[p]: k for k, p in enumerate(order)}
        reduced = {}
        extend_rref(reduced, [{at[i]: x for i, x in row.items()}
                              for row in table.ideal_rows.get(pair,
                                                              {}).values()])
        if any(c >= free for c in reduced):
            witnesses.append(
                "pair (%s,%s): images of %s are linearly dependent mod the "
                "ideal" % (pair[0], pair[1],
                           ", ".join(str(p) for p in cands)))
            continue
        for p in cands:
            expansion[p] = (1, index[p])
        for k, p in enumerate(order[:free]):
            off = [(c, x) for c, x in reduced[k].items() if c != k]
            if len(off) == 1:
                expansion[p] = (-off[0][1], index[order[off[0][0]]])
            elif off:
                splits[p] = len(off)
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)

    starting = {}
    for e in elements:
        starting.setdefault(e.source, []).append(e)
    product = {}
    for e1 in elements:
        for e2 in starting[e1.target]:
            path = compose(e1, e2)
            if path in splits:
                witnesses.append("product %s * %s expands with %d basis "
                                 "terms" % (e1, e2, splits[path]))
            else:
                product[(index[e1], index[e2])] = expansion.get(path)
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)
    return relabelled_algebra(table, classes, elements, product)


def cocycle_image_degrees(sc, hc, eps):
    """The per-degree ranks of the map SH^n -> HH^n induced by `eps`
    (sparse columns, one per simplicial tuple) and whether it is an
    isomorphism in every degree, as (degrees, iso) in the layout of
    `EpsilonMuReport`: each degree's cocycles Z^n are the kernel of the
    simplicial coboundary, eps(Z^n) is ranked together with the
    Hochschild coboundaries B^n, and the rank of B^n is taken off."""
    F = hc.field
    top = max(sc.top_dim(), hc.top_dim())
    sc_dims = sc.counts() + [0] * (top + 2 - len(sc.keys))
    hc_dims = hc.dims() + [0] * (top + 2 - len(hc.bases))

    def kernel(rows, ncols):
        reduced = sparse_rref(rows, F)
        pivots = {c for c, _ in reduced}
        basis = {f: {f: F.one} for f in range(ncols) if f not in pivots}
        for c, row in reduced:
            for f, x in row.items():
                if f != c:
                    basis[f][c] = F.neg(x)
        return list(basis.values())

    def image(z, n):
        out = {}
        for c, x in z.items():
            for r, y in eps[n][c].items():
                out[r] = F.add(out.get(r, F.zero), F.mul(x, y))
        return out

    # the simplicial coboundary d^n has the rows sc.columns[n + 1], the
    # Hochschild d^(n-1) the rows hc.columns[n]
    cocycles = [kernel(sc.columns.get(n + 1, []), sc_dims[n])
                for n in range(top + 2)]
    rk_hc = {n: rank(rows, F) for n, rows in hc.columns.items()}
    degrees = []
    for n in range(top + 2):
        sh = len(cocycles[n]) - (sc_dims[n - 1] - len(cocycles[n - 1])
                                 if n else 0)
        hh = hc_dims[n] - rk_hc.get(n + 1, 0) - rk_hc.get(n, 0)
        # B^n, spanned by the columns of d^(n-1)
        bnd = {}
        for r, row in enumerate(hc.columns.get(n, [])):
            for c, x in row.items():
                bnd.setdefault(c, {})[r] = x
        images = [image(z, n) for z in cocycles[n]]
        rk = rank(list(bnd.values()) + images, F) - rk_hc.get(n, 0)
        degrees.append({"sh": sh, "hh": hh, "rank": rk,
                        "injective": rk == sh, "surjective": rk == hh})
    iso = all(d["injective"] and d["surjective"] for d in degrees)
    return tuple(degrees), iso


def check_square_zero(columns, field=None,
                      message="boundary of boundary must vanish"):
    """Assert delta_{n-1} delta_n == 0 for sparse boundary columns.

    `columns[n][j]` maps row indices of degree n-1 to coefficients, which
    are integers, or elements of `field` when one is given.  Each column
    costs one sparse combination of the columns it touches.
    """
    for n, cols in columns.items():
        low = columns.get(n - 1)
        if low is None:
            continue
        for col in cols:
            assert not sparse_apply(low, col, field), message


def rowwise_faces_square_zero(faces):
    """Assert delta delta == 0 for a complex given by its face rows, one
    cell at a time: each cell's faces of faces concatenated into one list,
    two item getters picking both sides of every simplicial identity out
    of it, and the signed sum formed where one fails."""
    for n in range(2, len(faces)):
        low = faces[n - 1]
        pairs = [(i, j) for j in range(1, n + 1) for i in range(j)]
        # d_i d_j sits at j n + i in the concatenated rows, d_(j-1) d_i at
        # i n + j - 1
        left = operator.itemgetter(*[j * n + i for i, j in pairs])
        right = operator.itemgetter(*[i * n + j - 1 for i, j in pairs])
        for row in faces[n]:
            flat = [f for d in row for f in low[d]]
            if left(flat) == right(flat):
                continue
            assert not sparse_column(
                (f, (-1) ** (i + j))
                for j, sub in enumerate(map(low.__getitem__, row))
                for i, f in enumerate(sub)), \
                "boundary of boundary must vanish"


def sparse_apply(columns, vec, field=None):
    """The image sum_j vec[j] * columns[j] of a sparse vector, zeros dropped.

    Entries are integers, or elements of `field` when one is given.
    """
    if field is None:
        add, mul, zero = operator.add, operator.mul, 0
    else:
        add, mul, zero = field.add, field.mul, field.zero
    acc = {}
    for j, x in vec.items():
        for i, y in columns[j].items():
            acc[i] = add(acc.get(i, zero), mul(y, x))
    return {i: y for i, y in acc.items() if y != zero}


def _commutes(before, after, d_dom, d_cod, field=None):
    """after . d_dom == d_cod . before, compared column by column.

    `before` and `after` are the maps on the degrees where d_dom (in the
    domain complex) and d_cod (in the codomain complex) start and end.
    All four are sparse columns; entries are integers, or elements of
    `field` when one is given.
    """
    return all(sparse_apply(after, d, field) == sparse_apply(d_cod, f, field)
               for d, f in zip(d_dom, before, strict=True))


def _is_inverse(f, g, field=None):
    """g . f is the identity on the domain of f (sparse columns)."""
    one = 1 if field is None else field.one
    return all(sparse_apply(g, col, field) == {j: one}
               for j, col in enumerate(f))


def elt_of_class(algebra, classes, cid):
    """Basis element whose natural class is cid (ids from `classes`).

    Representative paths are canonical per class, so a found basis hits
    directly; a user-verified basis is resolved through its own class
    table and its class-to-element map (well defined: a verified basis
    meets each class exactly once).
    """
    rep = classes.class_rep[cid]
    i = algebra.table.position(rep)
    if i in algebra.basis:
        return i
    return algebra.members[algebra.classes.class_of(rep)]


def column_phi_psi_maps(algebra, cx_natural, cx_total):
    """Sparse 0/1 columns of the tuple-to-cell maps with their report."""
    if not algebra.ok:
        raise NoSemiNormedBasis("; ".join(algebra.witnesses))
    a = algebra
    sc = simplicial_complex(a)
    nat = cx_natural
    tot = cx_total
    wcl = tot.classes
    phi, psi, sharp = {}, {}, {}
    iso = epi = True
    kernel = []
    top = max(sc.top_dim(), nat.top_dim(), tot.top_dim())
    for n in range(top + 1):
        # SC's cells as the tuples of their classes' elements
        tuples = [t if n == 0 else tuple(map(a.members.__getitem__, t))
                  for t in (sc.keys[n] if n <= sc.top_dim() else [])]
        phi[n], sharp[n] = [], []
        for t in tuples:
            if n == 0:
                key = skey = t
            else:
                key = tuple(a.classes.class_of(a.table.paths[i]) for i in t)
                skey = tuple(wcl.class_of(a.table.paths[i]) for i in t)
            r = nat.cell_index.get((n, key))
            phi[n].append({} if r is None else {r: 1})
            sr = tot.cell_index.get((n, skey))
            sharp[n].append({} if sr is None else {sr: 1})
        # psi: cell tuple of classes -> tuple of the classes' basis elements
        tup_index = {t: i for i, t in enumerate(tuples)}
        psi[n] = []
        for key in nat.keys[n] if n <= nat.top_dim() else ():
            t = key if n == 0 else tuple(
                elt_of_class(a, nat.classes, cid) for cid in key)
            i = tup_index.get(t)
            psi[n].append({} if i is None else {i: 1})
        iso = (iso and len(tuples) == nat.size(n)
               and _is_inverse(phi[n], psi[n]) and _is_inverse(psi[n], phi[n]))
        hit = {r for col in sharp[n] for r in col}
        epi = epi and all(sharp[n]) and len(hit) == tot.size(n)
        kernel.append(len(tuples) - len(hit))  # sharp's columns are 0/1
    phi_ok = psi_ok = sharp_ok = True
    for n in range(1, top + 1):
        d_sc = sc.columns.get(n, [])
        phi_ok = phi_ok and _commutes(phi[n], phi[n - 1], d_sc,
                                      nat.columns.get(n, []))
        psi_ok = psi_ok and _commutes(psi[n], psi[n - 1],
                                      nat.columns.get(n, []), d_sc)
        sharp_ok = sharp_ok and _commutes(sharp[n], sharp[n - 1], d_sc,
                                          tot.columns.get(n, []))
    return PhiPsiReport(phi, psi, sharp, phi_ok, psi_ok, iso,
                        sharp_ok, epi, tuple(kernel))


def sc_cup(sc, p, f, q, g):
    """Front/back cup product of simplicial cochains (dicts on keys).

    Degree-0 cochains are keyed by vertex; the front (back) 0-face of a
    key is the source (target) vertex of its first (last) class.
    """
    n = p + q
    if n > sc.top_dim():
        return {}
    cl = sc.classes
    out = {}
    for t in sc.keys[n]:
        if n == 0:
            val = f.get(t, 0) * g.get(t, 0)
            if val:
                out[t] = val
            continue
        front = t[:p] if p else cl.class_source[t[0]]
        back = t[p:] if q else cl.class_target[t[-1]]
        val = f.get(front, 0) * g.get(back, 0)
        if val:
            out[t] = val
    return out


def sparse_transpose(columns, size):
    """The `size` columns of the transpose of a map given by sparse
    columns; row index i becomes column i."""
    out = [{} for _ in range(size)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            out[i][j] = x
    return out


def commuting_squares(sc, hc, eps, mu):
    """(eps_cochain_map, mu_cochain_map) for the sparse columns `eps` and
    `mu` of epsilon_mu's report, each square compared column by column on
    the transposed coboundaries."""
    F = hc.field
    top = max(sc.top_dim(), hc.top_dim())
    sc_dims = sc.counts() + [0] * (top + 2 - len(sc.keys))
    hc_dims = hc.dims() + [0] * (top + 2 - len(hc.bases))
    d_sc = {n: sparse_transpose(sc.columns.get(n + 1, []), sc_dims[n])
            for n in range(top + 1)}
    d_hc = {n: sparse_transpose(hc.columns.get(n + 1, []), hc_dims[n])
            for n in range(top + 1)}
    return (all(_commutes(eps[n], eps[n + 1], d_sc[n], d_hc[n], F)
                for n in range(top)),
            all(_commutes(mu[n], mu[n + 1], d_hc[n], d_sc[n], F)
                for n in range(top)))


def _holders(vecs):
    """row -> set of ids of the columns holding a nonzero there."""
    where = {}
    for k, v in vecs.items():
        for i in v:
            where.setdefault(i, set()).add(k)
    return where


def _clear_unit(vecs, where, k, c, inv):
    """Zero row c in every column but vecs[k], whose entry there is the
    unit 1 / inv, keeping `where` in step."""
    piv = vecs[k]
    for j in list(where[c]):
        if j == k:
            continue
        v = vecs[j]
        f = v[c] * inv
        for i, x in piv.items():
            y = v.get(i)
            y = -f * x if y is None else y - f * x
            if y:
                if i not in v:
                    where[i].add(j)
                v[i] = y
            else:
                del v[i]
                where[i].discard(j)


def _fewest_unit_holders(v, where):
    """Row of a +-1 entry of v held by the fewest columns; None if v has
    no unit entry."""
    best = None
    for i, x in v.items():
        if (x == 1 or x == -1) and (best is None
                                    or len(where[i]) < len(where[best])):
            best = i
    return best


def unit_pivot_smith_divisors(columns, skip=(), pivots=None):
    """Nonzero invariant factors of an integer matrix of sparse columns,
    by unit pivots chosen by fewest holders and a dense residual."""
    vecs = {}
    for k, col in enumerate(columns):
        if k in skip:
            continue
        v = {i: x for i, x in col.items() if x}
        if v:
            vecs[k] = v
    where = _holders(vecs)
    units = 0
    progress = True
    while progress:
        progress = False
        for k in list(vecs):
            v = vecs[k]
            c = _fewest_unit_holders(v, where)
            if c is not None:
                _clear_unit(vecs, where, k, c, v[c])
                units += 1
                progress = True
                if pivots is not None:
                    pivots.add(c)
            if c is not None or not v:
                for i in vecs.pop(k):
                    where[i].discard(k)
    if not vecs:
        return [1] * units
    rows = sorted(i for i, ks in where.items() if ks)
    at = {i: r for r, i in enumerate(rows)}
    residual = [[0] * len(vecs) for _ in rows]
    for c, v in enumerate(vecs.values()):
        for i, x in v.items():
            residual[at[i]][c] = x
    return [1] * units + smith_normal_form(residual)[0]


def per_matrix_ranked(mats, kernel):
    """`complex._ranked` without clearing: every boundary matrix ranked on
    its own, with all of its columns read."""
    return {n: kernel(mat, (), None) for n, mat in mats.items()}


def folded_product(a, elts):
    """The product of a composable tuple folded through the structure
    table from its first element: None when it vanishes, else (scalar,
    element)."""
    lam = 1
    acc = elts[0]
    for j in elts[1:]:
        step = a.product[(acc, j)]
        if step is None:
            return None
        lam = QQ.of(lam * step[0])
        acc = step[1]
    return lam, acc


def walked_simplicial(a):
    """(keys, columns) of the simplicial complex of the algebra `a`, the
    vertices in degree 0 and the tuples above: each layer grown by testing
    every tuple end against every non-identity element and refolding each
    candidate's product."""
    q = a.quiver
    tuples = [list(q.vertices)]
    layer = [(i,) for i in a.non_identity]
    while layer:
        tuples.append(sorted(layer))
        layer = [t + (j,) for t in layer for j in a.non_identity
                 if a.target[t[-1]] == a.source[j]
                 and folded_product(a, t + (j,)) is not None]
    columns = {}
    vx = {v: i for i, v in enumerate(q.vertices)}
    if len(tuples) > 1:
        columns[1] = [sparse_column([(vx[a.target[i]], 1),
                                     (vx[a.source[i]], -1)])
                      for (i,) in tuples[1]]
    for n in range(2, len(tuples)):
        low = {t: r for r, t in enumerate(tuples[n - 1])}
        cols = []
        for t in tuples[n]:
            terms = [(low[t[1:]], 1)]
            for j in range(1, n):
                step = a.product[(t[j - 1], t[j])]
                contracted = t[:j - 1] + (step[1],) + t[j + 1:]
                terms.append((low[contracted], (-1) ** j))
            terms.append((low[t[:-1]], (-1) ** n))
            cols.append(sparse_column(terms))
        columns[n] = cols
    return tuples, columns


def _three_block_rows(a, F, lower, upper):
    """Rows of the Hochschild differential from the `lower` to the
    `upper` basis: the first face, the middle faces and the last face
    each in a block of its own, the degree-0 faces guarded to identity
    targets."""
    col = {pair: c for c, pair in enumerate(lower)}
    row = {pair: r for r, pair in enumerate(upper)}
    rows = [{} for _ in upper]

    def add(r, c, x):
        y = F.of(rows[r].get(c, F.zero) + x)
        if y != F.zero:
            rows[r][c] = y
        else:
            rows[r].pop(c, None)

    for t in sorted({t for t, _ in upper}):
        rest = t[1:]
        if rest:
            ends = (a.source[rest[0]], a.target[rest[-1]])
        else:
            ends = (a.target[t[0]],) * 2
        for w in a.by_pair.get(ends, []):
            if rest == () and a.table.words[w]:
                continue
            c = col.get((rest, w))
            if c is None:
                continue
            step = a.product.get((t[0], w))
            if step is not None:
                add(row[(t, step[1])], c, step[0])
        for j in range(1, len(t)):
            step = a.product[(t[j - 1], t[j])]
            if step is None:
                continue
            contracted = t[:j - 1] + (step[1],) + t[j + 1:]
            for w in a.by_pair.get((a.source[t[0]], a.target[t[-1]]), []):
                c = col.get((contracted, w))
                if c is not None:
                    add(row[(t, w)], c, (-1) ** j * step[0])
        front = t[:-1]
        if front:
            ends = (a.source[front[0]], a.target[front[-1]])
        else:
            ends = (a.source[t[0]],) * 2
        for w in a.by_pair.get(ends, []):
            if front == () and a.table.words[w]:
                continue
            c = col.get((front, w))
            if c is None:
                continue
            step = a.product.get((w, t[-1]))
            if step is not None:
                add(row[(t, step[1])], c, (-1) ** len(t) * step[0])
    return rows


def walked_hochschild(a, field_label):
    """(field, bases, columns) of the Hochschild complex of `a`, its
    tuples grown by testing every tuple end against every non-identity
    element and its differential in three blocks.  Raises ValueError on
    a structure constant whose denominator p divides."""
    kind, p = parse_coefficients(field_label)
    F = QQ if kind == "Q" else PrimeField(p)
    for (i, j), step in a.product.items() if kind == "Fp" else ():
        if step is not None and step[0].denominator % p == 0:
            raise ValueError(
                "structure constant %s of %s * %s has a denominator "
                "divisible by p = %d: the rational semi-normed basis "
                "does not reduce mod %d"
                % (step[0], a.table.paths[i], a.table.paths[j], p, p))
    bases = [[((), a.identity_index[v]) for v in a.quiver.vertices]]
    cur = [(i,) for i in a.non_identity]
    while cur:
        bases.append([(t, v) for t in sorted(cur)
                      for v in a.by_pair.get((a.source[t[0]],
                                              a.target[t[-1]]), [])])
        cur = [t + (j,) for t in cur for j in a.non_identity
               if a.target[t[-1]] == a.source[j]]
    columns = {n: _three_block_rows(a, F, bases[n - 1], bases[n])
               for n in range(1, len(bases))}
    return F, bases, columns


def folded_epsilon_mu(a, tuples, bases, F):
    """(eps, mu) as sparse columns, each tuple's scalar refolded through
    the structure table.  Raises ValueError on a scalar that vanishes in
    F."""
    top = max(len(tuples), len(bases)) - 1
    eps, mu = {}, {}
    for n in range(top + 1):
        bidx = {pair: r for r, pair in enumerate(bases[n])} \
            if n < len(bases) else {}
        eps[n] = []
        mu[n] = [{} for _ in bidx]
        for c, t in enumerate(tuples[n] if n < len(tuples) else []):
            if n == 0:
                lam, r = 1, bidx[((), a.identity_index[t])]
            else:
                lam, b = folded_product(a, t)
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
    return eps, mu


# ---------------------------------------------------------------------------
# the van Kampen pieces re-enumerated, and the Tietze rounds


def bound_full_subquiver(table, verts):
    """The full subquiver on `verts`, bound by the ideal slice bases of
    the vertex pairs inside it as relation vectors."""
    q = table.quiver
    vset = set(verts)
    rels = []
    for pair in in_vertex_order(q, table.ideal_rows):
        if pair[0] in vset and pair[1] in vset:
            rels += [RelVector.build([(table.paths[i], c)
                                      for i, c in row.items()])
                     for row in table.ideal_rows[pair].values()]
    vertices = [v for v in q.vertices if v in vset]
    arrows = [a for a in q.arrows if a.source in vset and a.target in vset]
    return BoundQuiver(vertices, arrows, rels)


def swept_convexity_check(quiver, verts, label):
    vset = set(verts)
    # escape arrow into the outside that can flow back in: not convex
    reach_into = set()  # outside vertices with a directed path into vset
    changed = True
    while changed:
        changed = False
        for a in quiver.arrows:
            if a.source in vset:
                continue
            if (a.target in vset or a.target in reach_into) \
                    and a.source not in reach_into:
                reach_into.add(a.source)
                changed = True
    for a in quiver.arrows:
        if a.source in vset and a.target not in vset \
                and a.target in reach_into:
            raise HypothesisViolated(
                "%s is not convex: a path leaves through arrow %s and "
                "re-enters" % (label, a.name), witness=a.name)


def reenumerated_pushout(table, v1, v2):
    """The pushout with every piece's path table enumerated again;
    vertices outside the quiver are dropped."""
    q = table.quiver
    v1 = [v for v in q.vertices if v in set(v1)]
    v2 = [v for v in q.vertices if v in set(v2)]
    if set(v1) | set(v2) != set(q.vertices):
        raise HypothesisViolated("V1 and V2 do not cover the vertices")
    shared = [v for v in q.vertices if v in set(v1) and v in set(v2)]
    if not shared:
        raise HypothesisViolated("V1 and V2 have empty intersection")
    swept_convexity_check(q, v1, "Q1")
    swept_convexity_check(q, v2, "Q2")
    for i, p in enumerate(table.paths):
        if i in table.in_ideal:
            continue
        verts = set(path_vertices(q, p))
        if not (verts <= set(v1) or verts <= set(v2)):
            raise HypothesisViolated(
                "nonzero path %s lies in neither piece" % p, witness=str(p))
    sub0 = bound_full_subquiver(table, shared)
    if not sub0.is_connected():
        raise HypothesisViolated("intersection subquiver is not connected")
    base = shared[0]

    def piece(sub):
        sub_table = enumerate_paths(sub, cap=max(12, table.bound + 1))
        return pi1_presentation(sub_table, base=base)

    sub1 = bound_full_subquiver(table, v1)
    sub2 = bound_full_subquiver(table, v2)
    pres1, pres2, pres0 = piece(sub1), piece(sub2), piece(sub0)
    tree0, walk0 = bfs_spanning_tree(sub0, base)
    arrows2 = set(a.name for a in sub2.arrows)
    shared_arrows = set(a.name for a in sub1.arrows) & arrows2

    def copy2(name):
        return name + "'" if name in shared_arrows else name

    gens = list(pres1.generators) + [copy2(g) for g in pres2.generators]
    rels = list(pres1.relators)
    for r in pres2.relators:
        rels.append(tuple((copy2(g), s) for g, s in r))
    for a in sub0.arrows:
        if a.name in tree0:
            continue
        loop = free_reduce(walk0[a.source] + ((a.name, 1),)
                           + _word_inverse(walk0[a.target]))
        rels.append(free_reduce(
            loop + _word_inverse(tuple((copy2(g), s) for g, s in loop))))
    return VanKampenResult(pres1, pres2, pres0,
                           Presentation(tuple(gens), tuple(rels), base), base)


def bfs_spanning_tree(quiver, base):
    """Deterministic BFS tree on the underlying graph, every dequeued
    vertex scanning all arrows in declaration order."""
    if base not in quiver.vertex_index:
        raise NotConnectedError("unknown base vertex %r" % base)
    walk_to = {base: ()}
    tree = []
    queue = [base]
    while queue:
        v = queue.pop(0)
        for a in quiver.arrows:
            if a.source == v and a.target not in walk_to:
                tree.append(a.name)
                walk_to[a.target] = walk_to[v] + ((a.name, 1),)
                queue.append(a.target)
            elif a.target == v and a.source not in walk_to:
                tree.append(a.name)
                walk_to[a.source] = walk_to[v] + ((a.name, -1),)
                queue.append(a.source)
    if len(walk_to) != len(quiver.vertices):
        raise NotConnectedError("quiver is not connected")
    return tree, walk_to


def letter_key(letter):
    name, sign = letter
    return (name, -sign)  # positive exponent preferred


def rotation_canonical(word):
    """Least rotation among the word and its inverse (dedup key)."""
    best = None
    for w in (word, _word_inverse(word)):
        for k in range(max(1, len(w))):
            rot = w[k:] + w[:k]
            if best is None or [letter_key(x) for x in rot] < \
                    [letter_key(x) for x in best]:
                best = rot
    return best


def rounds_tietze(pres, dedupe_bound=16):
    """(simplified presentation, substitution map), canonical forms
    recomputed in every round."""
    gens = list(pres.generators)
    rels = [_cyclic_reduce(r) for r in pres.relators]
    subst = {}

    def eliminate(idx, g, rep):
        gens.remove(g)
        for h in subst:
            subst[h] = _substitute(subst[h], g, rep)
        subst[g] = rep
        return [_cyclic_reduce(_substitute(w, g, rep))
                for k, w in enumerate(rels) if k != idx]

    changed = True
    while changed:
        changed = False
        rels = [r for r in rels if r]
        seen = set()
        dedup = []
        for r in rels:
            if len(r) <= dedupe_bound:
                key = rotation_canonical(r)
                if key in seen:
                    changed = True
                    continue
                seen.add(key)
            dedup.append(r)
        rels = dedup
        for idx, r in enumerate(rels):
            if len(r) == 1:
                rels = eliminate(idx, r[0][0], ())
                changed = True
                break
            if len(r) == 2 and r[0][0] != r[1][0]:
                (g, e), (h, d) = r
                # g^e h^d = 1  =>  g = h^(-d*e)
                rels = eliminate(idx, g, ((h, -d * e),))
                changed = True
                break
    rels = [(rotation_canonical(r) if len(r) <= dedupe_bound else r)
            for r in rels]
    return Presentation(tuple(gens), tuple(rels), pres.base), subst


class TabledGroupAction:
    """GroupAction with its composition and inverse tables."""

    def __init__(self, table, elements):
        self.table = table
        self.quiver = table.quiver
        elems = list(elements)
        if not elems:
            raise ValueError("group action needs at least the identity")
        for g in elems:
            if g.source is not self.quiver or g.target is not self.quiver:
                raise ValueError("group element is not a self-map"
                                 " of the cover quiver")
            if set(g.vertex_map[v] for v in self.quiver.vertices) \
                    != set(self.quiver.vertices):
                raise ValueError("group element is not bijective on vertices")
            if set(g.arrow_map[a.name] for a in self.quiver.arrows) \
                    != set(a.name for a in self.quiver.arrows):
                raise ValueError("group element is not bijective on arrows")
            for rel in self.quiver.relations:
                image = [(g.path_image(w), c) for w, c in rel.terms]
                if not table.vector_in_ideal(image):
                    raise ValueError(
                        "group element does not preserve the ideal:"
                        " relation %s" % rel)
        sigs = [g.signature() for g in elems]
        if len(set(sigs)) != len(sigs):
            raise ValueError("duplicate group elements")
        index = {s: i for i, s in enumerate(sigs)}
        ident = next((i for i, g in enumerate(elems) if g.is_identity()),
                     None)
        if ident is None:
            raise ValueError("group action lacks the identity")
        compose_table = {}
        for i, g in enumerate(elems):
            for j, h in enumerate(elems):
                k = index.get(compose_morphisms(g, h).signature())
                if k is None:
                    raise ValueError("group action is not closed under"
                                     " composition")
                compose_table[(i, j)] = k
        inverse_of = {}
        for i in range(len(elems)):
            j = next((j for j in range(len(elems))
                      if compose_table[(i, j)] == ident
                      and compose_table[(j, i)] == ident), None)
            if j is None:
                raise ValueError("group element has no inverse in the set")
            inverse_of[i] = j
        self.elements = tuple(elems)
        self.identity_index = ident
        self.compose_table = compose_table
        self.inverse_of = inverse_of

    def __len__(self):
        return len(self.elements)


def cell_vertex_sets(cx):
    """Per dimension, the boundary vertices of every cell."""
    out = []
    cl = cx.classes
    for n, layer in enumerate(cx.keys):
        if n == 0:
            out.append([{key} for key in layer])
            continue
        sets = []
        for key in layer:
            vs = {cl.class_source[key[0]]}
            for cid in key:
                vs.add(cl.class_target[cid])
            sets.append(vs)
        out.append(sets)
    return out


def vertex_set_incidence(dom_cx, cod_cx, p, cmap, witnesses):
    dom_sets = cell_vertex_sets(dom_cx)
    cod_sets = cell_vertex_sets(cod_cx)
    top = max(dom_cx.top_dim(), cod_cx.top_dim())
    ok = True
    for xh in dom_cx.table.quiver.vertices:
        x = p.vertex(xh)
        for n in range(top + 1):
            dom_inc = [j for j, vs in enumerate(dom_sets[n])
                       if xh in vs] if n <= dom_cx.top_dim() else []
            cod_inc = {i for i, vs in enumerate(cod_sets[n])
                       if x in vs} if n <= cod_cx.top_dim() else set()
            images = [cmap[n][j] for j in dom_inc] if dom_inc else []
            if len(set(images)) != len(images) or set(images) != cod_inc:
                ok = False
                witnesses.append(
                    "cells at %s do not map bijectively onto cells at %s"
                    " in dimension %d" % (xh, x, n))
    return ok


def rechecked_lift(base_cx, cover_cx, p):
    """The induced cell map, its covering checked again first."""
    rep = check_covering(base_cx.table, cover_cx.table, p)
    if not rep.ok:
        raise NotACovering(rep.witnesses[0] if rep.witnesses
                           else "covering conditions fail")
    if base_cx.variant != cover_cx.variant:
        raise ValueError("complexes use different homotopy variants")
    witnesses = []
    bt, ct = base_cx.table, cover_cx.table
    bcl, ccl = base_cx.classes, cover_cx.classes
    img_cls = [None] * len(ct.paths)
    corr = True
    for i, w in enumerate(ct.paths):
        im = p.path_image(w)
        if len(im) > bt.bound:
            corr = False
            witnesses.append("image of %s exceeds the base table bound" % w)
            continue
        img_cls[i] = bcl.class_of(im)
    by_source = {}
    for i, w in enumerate(ct.paths):
        by_source.setdefault(w.source, []).append(i)
    for xh in ct.quiver.vertices:
        idxs = by_source.get(xh, [])
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                same_up = ccl.class_of_index[i] == ccl.class_of_index[j]
                same_down = img_cls[i] is not None \
                    and img_cls[i] == img_cls[j]
                if same_up != same_down:
                    corr = False
                    witnesses.append(
                        "paths %s and %s from %s are%s together upstairs"
                        " but%s downstairs"
                        % (ct.paths[i], ct.paths[j], xh,
                           "" if same_up else " not",
                           "" if same_down else " not"))
    index = {w: i for i, w in enumerate(ct.paths)}
    cls_map = {cid: img_cls[index[ccl.class_rep[cid]]]
               for cid in range(len(ccl))}
    cell_map, cells_ok = _induced_cell_map(cover_cx, base_cx, p.vertex,
                                           cls_map, witnesses)
    fc = _faces_commute(cover_cx, base_cx, cell_map, witnesses)
    inc = vertex_set_incidence(cover_cx, base_cx, p, cell_map, witnesses)
    fibers = {}
    for n, layer in enumerate(base_cx.keys):
        row = cell_map.get(n, ())
        fibers[n] = {i: tuple(j for j, t in enumerate(row) if t == i)
                     for i in range(len(layer))}
    ok = corr and cells_ok and fc and inc
    return CellMapReport(ok=ok, class_correspondence=corr,
                         cell_map=cell_map, faces_commute=fc,
                         incidence_bijections=inc, cell_fibers=fibers,
                         witnesses=tuple(witnesses), covering=rep)


def rechecked_deck_group(base_cx, cover_cx, p, action, base_point=None):
    """Deck maps, the Galois conditions and the lift checked again first."""
    grep = check_galois(base_cx.table, cover_cx.table, p, action)
    if not grep.galois_ok:
        raise NotGalois(grep.witnesses[0] if grep.witnesses
                        else "conditions fail")
    if not cover_cx.table.quiver.is_connected():
        raise NotGalois("cover quiver is not connected")
    proj = rechecked_lift(base_cx, cover_cx, p)
    witnesses = list(proj.witnesses)
    if base_point is None:
        base_point = base_cx.table.quiver.vertices[0]
    ccl = cover_cx.classes
    maps = []
    autos = True
    compat = True
    for g in action.elements:
        cls_map = {cid: ccl.class_of(g.path_image(ccl.class_rep[cid]))
                   for cid in range(len(ccl))}
        cmap, cok = _induced_cell_map(cover_cx, cover_cx, g.vertex,
                                      cls_map, witnesses)
        perm = all(sorted(row) == list(range(len(row)))
                   for row in cmap.values())
        fok = _faces_commute(cover_cx, cover_cx, cmap, witnesses)
        if not (cok and perm and fok):
            autos = False
            witnesses.append("a group element does not induce a cell"
                             " automorphism")
        for n, row in cmap.items():
            prow = proj.cell_map[n]
            if any(prow[row[j]] != prow[j] for j in range(len(row))
                   if row[j] >= 0):
                compat = False
                witnesses.append("projection is not constant on an orbit"
                                 " in dimension %d" % n)
                break
        maps.append(cmap)
    sigs = [tuple(sorted(m.items())) for m in maps]
    distinct = len(set(sigs)) == len(sigs)
    if not distinct:
        witnesses.append("two group elements induce the same cell map")
    fiber_cells = [i for i, v in enumerate(cover_cx.keys[0])
                   if p.vertex(v) == base_point]
    fiber = tuple(cover_cx.keys[0][i] for i in fiber_cells)
    if fiber_cells:
        orbit = {m[0][fiber_cells[0]] for m in maps}
        transitive = orbit == set(fiber_cells)
    else:
        transitive = False
    if not transitive:
        witnesses.append("deck maps are not transitive on the fiber"
                         " over %s" % base_point)
    ok = proj.ok and autos and compat and distinct and transitive
    return DeckReport(ok=ok, order=len(action), maps=tuple(maps),
                      automorphisms=autos, compatible=compat,
                      distinct=distinct, transitive=transitive,
                      base_point=base_point, fiber=fiber,
                      witnesses=tuple(witnesses))


# inputs of the differential tests


SEED = 20260818


def forward_paths(arrows, max_len=4):
    """Composable arrow chains of length 2..max_len, as (names, src, dst)."""
    by_src = {}
    for name, s, t in arrows:
        by_src.setdefault(s, []).append((name, t))
    layer = [((name,), s, t) for name, s, t in arrows]
    found = []
    for _ in range(max_len - 1):
        nxt = []
        for names, s, t in layer:
            for name2, t2 in by_src.get(t, ()):
                nxt.append((names + (name2,), s, t2))
        found.extend(nxt)
        layer = nxt
    return found


def random_relations(rng, arrows, monomial_only=False):
    paths = forward_paths(arrows)
    rels = []
    if not paths:
        return rels
    for p in rng.sample(paths, min(len(paths), rng.randint(0, 3))):
        rels.append([(list(p[0]), 1)])
    if monomial_only:
        return rels
    by_ends = {}
    for p in paths:
        by_ends.setdefault((p[1], p[2]), []).append(p)
    groups = sorted((g for g in by_ends.values() if len(g) >= 2),
                    key=lambda g: g[0][0])
    rng.shuffle(groups)
    for g in groups[:2]:
        if len(g) >= 3 and rng.random() < 0.3:
            p, q, r = rng.sample(g, 3)
            rels.append([(list(p[0]), 2), (list(q[0]), -1),
                         (list(r[0]), -1)])
        elif rng.random() < 0.8:
            p, q = rng.sample(g, 2)
            rels.append([(list(p[0]), 1), (list(q[0]), -1)])
    return rels


def random_quiver(rng, max_vertices=6, monomial_only=False):
    # arrows only run forward along a fixed vertex order, so the quiver
    # is acyclic; the spanning pass keeps it weakly connected
    n = rng.randint(2, max_vertices)
    vertices = ["v%d" % i for i in range(n)]
    arrows = []
    for j in range(1, n):
        i = rng.randrange(j)
        arrows.append(("a%d" % len(arrows), vertices[i], vertices[j]))
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(n - 1)
        j = rng.randint(i + 1, n - 1)
        arrows.append(("a%d" % len(arrows), vertices[i], vertices[j]))
    rels = random_relations(rng, arrows, monomial_only=monomial_only)
    return BoundQuiver(vertices, arrows, rels)


def random_cyclic_quiver(rng):
    """One vertex with two loops, or a two-cycle, maybe one more arrow,
    bound by 2 to 4 relations: a path of length 2 to 4 beside 0 to 2
    parallel ones, with small coefficients.  Many are not admissible."""
    vertices = ["1", "2"][:rng.randint(1, 2)]
    ends = ([("1", "1")] * 2 if len(vertices) == 1
            else [("1", "2"), ("2", "1")])
    ends += [(rng.choice(vertices), rng.choice(vertices))] * rng.randint(0, 1)
    arrows = [("x%d" % i, s, t) for i, (s, t) in enumerate(ends)]
    walks = forward_paths(arrows)
    rels = []
    for _ in range(rng.randint(2, 4)):
        names, s, t = rng.choice(walks)
        parallel = [w for w in walks if w[1:] == (s, t) and w[0] != names]
        terms = [(list(names), rng.choice([1, -1, 2]))]
        for w in rng.sample(parallel,
                            min(len(parallel), rng.choice([0, 1, 1, 2]))):
            terms.append((list(w[0]), rng.choice([1, -1, 3])))
        rels.append(terms)
    return BoundQuiver(vertices, arrows, rels)


def build_samples(count, monomial_only=False, salt=0):
    rng = random.Random(SEED + salt)
    out = []
    while len(out) < count:
        q = random_quiver(rng, monomial_only=monomial_only)
        out.append((q, enumerate_paths(q)))
    return out


SAMPLES = build_samples(200)
MONOMIAL = build_samples(40, monomial_only=True, salt=1)


def load_bench_workloads():
    path = CORPUS.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def loops(vertices, arrows, rels):
    """A quiver from arrow triples and relations given as strings of
    '+'-joined terms, each an optional '-' and '*'-joined arrow names."""
    terms = [[(t.lstrip("-").split("*"), -1 if t.startswith("-") else 1)
              for t in rel.split("+")] for rel in rels]
    return BoundQuiver(vertices, arrows, terms)


# 1 -> 2 -> 3 (a, b) and 1 -> 4 -> 5 -> 6 -> 3 (c, d, e, f): L = 3, and
# a*b lies in I only through a*b - c*d*e*f with its long term dropped
TRUNCATED = loops(["1", "2", "3", "4", "5", "6"],
                  [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4"),
                   ("d", "4", "5"), ("e", "5", "6"), ("f", "6", "3")],
                  ["a*b+-c*d*e*f", "c*d*e", "d*e*f"])

CYCLIC = [
    loops(["1"], [("x", "1", "1")], ["x*x*x"]),
    loops(["1"], [("x", "1", "1"), ("y", "1", "1")],
          ["x*y+-y*x", "x*x", "y*y"]),
    loops(["u", "v"], [("s", "u", "v"), ("t", "v", "u")], ["s*t", "t*s"]),
    loops(["u", "v"], [("s", "u", "v"), ("t", "v", "u")],
          ["s*t*s", "t*s*t"]),
]


def differential_quivers():
    """The corpus, the seeded samples, the benchmark's generated quivers
    on seeds 3 and 7, the cyclic quivers and TRUNCATED."""
    quivers = [parse(path.read_text())
               for path in sorted(CORPUS.glob("*.bq"))]
    quivers += [q for q, _ in SAMPLES + MONOMIAL]
    bench = load_bench_workloads()
    for seed in (3, 7):
        for gen in bench.GENERATORS.values():
            quivers += [parse(text) for text in gen(seed).values()]
    quivers += CYCLIC + [TRUNCATED]
    assert len(quivers) == 18 + 240 + 2 * (14 + 4) + 4 + 1
    return quivers


def voltage_cover(base, k, voltage):
    """The Z/k voltage cover of `base` with arrow voltages `voltage`.

    Vertex v lifts to v.0 .. v.(k-1); an arrow a: s -> t of voltage g
    lifts to a.i: s.i -> t.(i+g); a relation lifts sheet by sheet.  This
    is the covering of the Z/k-graded bound quiver (Green 1983), and the
    shifts i -> i+j act on it as the Galois group.  Returns (cover,
    projection, shifts), or None when a relation is not homogeneous:
    its terms then lift to paths with different ends.
    """
    def lift(names, i):
        out = []
        for n in names:
            out.append("%s.%d" % (n, i))
            i = (i + voltage[n]) % k
        return out, i

    rels = []
    for rel in base.relations:
        if len({lift(p.arrows, 0)[1] for p, _ in rel.terms}) > 1:
            return None
        rels += [[(lift(p.arrows, i)[0], c) for p, c in rel.terms]
                 for i in range(k)]
    arrows = [("%s.%d" % (a.name, i), "%s.%d" % (a.source, i),
               "%s.%d" % (a.target, (i + voltage[a.name]) % k))
              for i in range(k) for a in base.arrows]
    cover = BoundQuiver(["%s.%d" % (v, i) for i in range(k)
                         for v in base.vertices], arrows, rels)
    proj = QuiverMorphism(
        cover, base, {"%s.%d" % (v, i): v for i in range(k)
                      for v in base.vertices},
        {"%s.%d" % (a.name, i): a.name for i in range(k)
         for a in base.arrows})
    shifts = [QuiverMorphism(
        cover, cover, {"%s.%d" % (v, i): "%s.%d" % (v, (i + j) % k)
                       for i in range(k) for v in base.vertices},
        {"%s.%d" % (a.name, i): "%s.%d" % (a.name, (i + j) % k)
         for i in range(k) for a in base.arrows}) for j in range(k)]
    return cover, proj, shifts


@functools.cache
def voltage_covers():
    """Seeded voltage covers of `differential_quivers()`: per quiver a
    random k in {2, 3} and random voltages in Z/k.  Returns the list of
    (base, k, cover, projection, shifts) and the number of quivers
    skipped for a relation that is not homogeneous."""
    rng = random.Random(SEED + 3)
    covers, skipped = [], 0
    for base in differential_quivers():
        k = rng.choice((2, 3))
        made = voltage_cover(base, k, {a.name: rng.randrange(k)
                                       for a in base.arrows})
        if made is None:
            skipped += 1
        else:
            covers.append((base, k) + made)
    return covers, skipped


@dataclass(frozen=True)
class Cell:
    dim: int
    key: object            # vertex id (dim 0) or tuple of class ids
    witness: Path | None    # least nonzero member composite, None in dim 0


class ObjectCellComplex:
    """The cells, faces, cell index, cut and caveats of `object_complex`."""

    def __init__(self, table, classes, cells, faces, cut_at=None):
        self.caveats = classes.caveats
        self.cut_at = cut_at
        if cut_at is not None:
            self.caveats += (
                "cells of dimension > %d were left out (the complex has "
                "%d-cells), so the Euler characteristic is not reported"
                % (cut_at, cut_at + 1),)
        self.cells = cells
        self.faces = faces
        self.cell_index = {}
        for n, layer in enumerate(cells):
            for i, cell in enumerate(layer):
                self.cell_index[(n, cell.key)] = i
        check_faces_square_zero(faces)

    def counts(self):
        return [len(layer) for layer in self.cells]


def object_complex(table, classes, max_dim=None):
    """Cell complex over a path class table, built with `Cell` objects."""
    if max_dim is not None and max_dim < 0:
        raise ValueError("maximum cell dimension must be >= 0, got %d"
                         % max_dim)
    paths, in_ideal = table.paths, table.in_ideal
    arrow_index = table.arrow_index
    arrows = [p.arrows for p in paths]
    length = [len(a) for a in arrows]
    of_index = classes.class_of_index
    source, target = classes.class_source, classes.class_target
    # steps[v]: (class, member) for every member of a 1-cell class at v
    steps = {v: [] for v in table.quiver.vertices}
    # live[key] = {witness: split}: every nonzero member composite of the
    # class tuple `key`, with the least of its splits into members (all
    # as table indices, so `min` of a record is its least composite)
    live = {}
    for cid in classes.one_cell_classes():
        live[(cid,)] = {}
        for j in classes.class_members[cid]:
            steps[source[cid]].append((cid, j))
            if j not in in_ideal:
                live[(cid,)][j] = (j,)
    cells = [[Cell(0, v, None) for v in table.quiver.vertices]]
    faces = [None]
    top = math.inf if max_dim is None else max_dim

    def grow(live):
        """(key + (class,), composite, split) of each nonzero one-step
        extension of the stored composites."""
        for key, record in live.items():
            for w, split in record.items():
                for cid, j in steps[paths[w].target]:
                    if length[w] + length[j] > table.bound:
                        continue
                    c = arrow_index[arrows[w] + arrows[j]]
                    if c not in in_ideal:
                        yield key + (cid,), c, split + (j,)

    cut = False
    n = 1
    while live:
        if n > top:
            cut = True
            break
        keys = sorted(live)
        below = {c.key: i for i, c in enumerate(cells[-1])}
        layer, rows = [], []
        for key in keys:
            w = min(live[key])
            split = live[key][w]
            layer.append(Cell(n, key, paths[w]))
            # d_0 drops the first class, d_n the last (leaving a vertex
            # when n = 1), and d_i composes the members i-1, i of the
            # least witness's split
            row = [key[1:] or target[key[0]]]
            for i in range(1, n):
                mid = of_index[arrow_index[arrows[split[i - 1]]
                                           + arrows[split[i]]]]
                row.append(key[:i - 1] + (mid,) + key[i + 1:])
            row.append(key[:-1] or source[key[0]])
            face = tuple(map(below.get, row))
            assert None not in face, "face of a cell must be a cell"
            rows.append(face)
        cells.append(layer)
        faces.append(rows)
        if n == top:
            # one nonzero extension tells whether the next layer is empty
            cut = next(grow(live), None) is not None
            break
        # a nonzero composite has a nonzero prefix, so growing the stored
        # composites reaches every nonzero composite of the longer tuples
        grown = {}
        for key, c, ext in grow(live):
            record = grown.setdefault(key, {})
            if c not in record or ext < record[c]:
                record[c] = ext
        live = grown
        n += 1
    return ObjectCellComplex(table, classes, cells, faces,
                             cut_at=max_dim if cut else None)


# ---------------------------------------------------------------------------
# text and argv front ends


def column_tokens(text):
    """Per line: list of (token, line_no, col_no), comments stripped."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = []
        at = 0
        for tok in line.split():
            at = line.index(tok, at)
            toks.append((tok, ln, at + 1))
            at += len(tok)
        if toks:
            out.append(toks)
    return out


def _column_term(tok, ln, col, sign, arrows):
    pieces = tok.split("*")
    coeff = sign
    if pieces and _COEFF.match(pieces[0]):
        try:
            coeff = sign * (QQ.of(pieces[0]) if "/" in pieces[0]
                            else int(pieces[0]))
        except ZeroDivisionError:
            raise ParseError("coefficient %r has a zero denominator"
                             % pieces[0], ln, col) from None
        pieces = pieces[1:]
    if not pieces or any(not p for p in pieces):
        raise ParseError("malformed relation term %r" % tok, ln, col)
    for name in pieces:
        if name not in arrows:
            raise ParseError("unknown arrow %r" % name, ln, col)
    return pieces, coeff


def column_parse(text):
    """`dsl.parse` over `column_tokens`."""
    vertices = []
    vset = set()
    arrows = []
    arrow_names = {}
    rel_lines = []

    def add_vertex(v):
        if v not in vset:
            vset.add(v)
            vertices.append(v)

    for toks in column_tokens(text):
        head, ln, col = toks[0]
        if head == "vertex":
            if len(toks) != 2:
                raise ParseError("vertex takes exactly one id", ln, col)
            v = toks[1][0]
            if v in vset:
                raise ParseError("duplicate vertex %r" % v,
                                 toks[1][1], toks[1][2])
            add_vertex(v)
        elif head == "arrow":
            if len(toks) != 4:
                raise ParseError("arrow takes name, source and target",
                                 ln, col)
            name = toks[1][0]
            if name in arrow_names:
                raise ParseError("duplicate arrow %r" % name,
                                 toks[1][1], toks[1][2])
            arrow_names[name] = (toks[2][0], toks[3][0])
            add_vertex(toks[2][0])
            add_vertex(toks[3][0])
            arrows.append((name, toks[2][0], toks[3][0]))
        elif head == "rel":
            if len(toks) < 2:
                raise ParseError("empty relation", ln, col)
            rel_lines.append(toks)
        else:
            raise ParseError("unknown statement %r" % head, ln, col)

    relations = []
    for toks in rel_lines:
        _, ln, col = toks[0]
        terms = []
        expect_term = True
        sign = 1
        for tok, tl, tc in toks[1:]:
            if expect_term:
                names, coeff = _column_term(tok, tl, tc, sign, arrow_names)
                for k in range(len(names) - 1):
                    if arrow_names[names[k]][1] != arrow_names[names[k + 1]][0]:
                        raise ParseError(
                            "path breaks between %r and %r"
                            % (names[k], names[k + 1]), tl, tc)
                terms.append((Path(arrow_names[names[0]][0],
                                   arrow_names[names[-1]][1], tuple(names)),
                              coeff))
                expect_term = False
            else:
                if tok == "+":
                    sign = 1
                elif tok == "-":
                    sign = -1
                else:
                    raise ParseError("expected + or - between terms, got %r"
                                     % tok, tl, tc)
                expect_term = True
        if expect_term:
            raise ParseError("relation ends with a dangling sign", ln, col)
        try:
            rel = RelVector.build(terms)
            rel.check_admissible_format()
        except MalformedRelation as e:
            raise ParseError(str(e), ln, col) from None
        relations.append(rel)
    return BoundQuiver(vertices, arrows, relations)


def _column_assignments(text, kinds):
    for toks in column_tokens(text):
        head, ln, col = toks[0]
        if head not in kinds:
            raise ParseError("unknown statement %r" % head, ln, col)
        if head == "element":
            if len(toks) != 2:
                raise ParseError("element takes exactly one name", ln, col)
            yield ("element", toks[1][0], None, ln, col)
            continue
        if len(toks) != 4 or toks[2][0] != "->":
            raise ParseError("%s line must read: %s <from> -> <to>"
                             % (head, head), ln, col)
        yield (head, toks[1][0], toks[3][0], ln, col)


def column_parse_morphism(text, source, target):
    """`dsl.parse_morphism` over `column_tokens`."""
    vmap, amap = {}, {}
    last = 1
    for kind, a, b, ln, col in _column_assignments(text, ("vmap", "amap")):
        store = vmap if kind == "vmap" else amap
        if a in store:
            raise ParseError("duplicate %s for %r" % (kind, a), ln, col)
        store[a] = b
        last = ln
    return _build_morphism(source, target, vmap, amap, last)


def column_parse_group(text, quiver):
    """`dsl.parse_group` over `column_tokens`."""
    elements = []
    names = set()
    current = None

    def flush():
        if current is not None:
            elements.append(_build_morphism(quiver, quiver, current[1],
                                            current[2], current[3]))

    for kind, a, b, ln, col in _column_assignments(
            text, ("element", "vmap", "amap")):
        if kind == "element":
            flush()
            if a in names:
                raise ParseError("duplicate element %r" % a, ln, col)
            names.add(a)
            current = (a, {}, {}, ln)
            continue
        if current is None:
            raise ParseError("%s line outside an element block" % kind,
                             ln, col)
        store = current[1] if kind == "vmap" else current[2]
        if a in store:
            raise ParseError("duplicate %s for %r" % (kind, a), ln, col)
        store[a] = b
    flush()
    if not elements:
        raise ParseError("group file declares no elements")
    return elements


def full_parse_argv(argv):
    """The namespace of argv from the top parser's `parse_args`."""
    return _build_parser()[0].parse_args(argv)


def complex_skeleton_dot(table):
    """The DOT text of the 1-skeleton of the natural complex, read off
    `build_complex(..., max_dim=1)`: its vertices, then an edge per
    1-cell labelled by the arrow names of its witness."""
    cx = build_complex(table, natural_homotopy_classes(table), max_dim=1)
    lines = ["digraph quiver {"]
    lines += ['  "%s";' % v for v in cx.keys[0]]
    if cx.top_dim() >= 1:
        cl = cx.classes
        for (cid,), w in zip(cx.keys[1], cx.witnesses[1]):
            lines.append('  "%s" -> "%s" [label="%s"];'
                         % (cl.class_source[cid], cl.class_target[cid],
                            "*".join(table.words[w])))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dict_cells_report(argv):
    """The report of the `cells` command line argv as plain data, each
    cell of dimension n >= 1 a dict of its class ids and witness word."""
    args = full_parse_argv(argv)
    with open(args.file, encoding="utf-8") as fh:
        quiver = parse(fh.read())
    table = (enumerate_paths(quiver) if args.path_cap is None
             else enumerate_paths(quiver, cap=args.path_cap))
    classes = (walk_homotopy_classes(table) if args.sharp
               else natural_homotopy_classes(table))
    cx = build_complex(table, classes, max_dim=args.max_dim)
    cells = {"0": cx.keys[0]}
    for n in range(1, len(cx.keys)):
        cells[str(n)] = [{"classes": list(key),
                          "witness": "*".join(table.words[w])}
                         for key, w in zip(cx.keys[n], cx.witnesses[n])]
    return {
        "schema": "bqtop-report/1",
        "tool": {"name": "bqtop", "version": __version__},
        "command": "cells",
        "input": {"file": args.file, "vertices": len(quiver.vertices),
                  "arrows": len(quiver.arrows),
                  "relations": len(quiver.relations)},
        "config": {"path_cap": args.path_cap},
        "ok": True,
        "result": {"counts": cx.counts(), "cells": cells,
                   "euler_characteristic": euler_characteristic(cx)},
        "caveats": sorted(set(cx.caveats)),
    }
