"""Slow reference constructions that the library's fast ones are tested
against.

`rebuilt_path_table` is the path table as it was built before the
per-pair bases were grown one length at a time: for each candidate bound
L it forms every whole product u*g*v that fits in length L, reduces every
vertex pair's span from scratch and tests each length-L path by reducing
its dense unit vector; at the accepted L it rebuilds all slices once more
from the truncated products (longer components dropped).

`swept_natural_classes` is natural homotopy as it was computed before the
congruence closure: the co-member groups merged, then every factor of
every table path replaced by every other member of its class, in full
passes until one pass merges nothing.

`dense_semi_normed_basis` is the semi-normed verifier as it ran before
each vertex pair was reduced once with the candidates last: a rank per
pair for independence, then a dense augmented RREF of the basis images
and the ideal rows for every product of two basis elements.

`cocycle_image_degrees` is the comparison of epsilon_mu as it was
computed before the long exact sequence of HC/eps(SC): a basis of the
simplicial cocycles, read off the RREF of each simplicial coboundary,
pushed through eps and ranked together with the Hochschild coboundaries.

`FractionField` is the arithmetic of Q as it was before its elements
became ints wherever integral: every element a Fraction.  Run through the
same elimination kernel, it is the oracle of the int-first form, and the
rebuild-per-L path table reduces its slices with it.

`differential_quivers` is the input list the differential tests share:
the corpus, the seeded samples, the benchmark's generated quivers and a
few fixed ones.
"""

import importlib.util
import itertools
import pathlib
import random
import sys
from fractions import Fraction

from bqtop import BoundQuiver, enumerate_paths
from bqtop.algcohom import BasisElement, SemiNormedAlgebra, SemiNormedFailure
from bqtop.core import (AdmissibilityError, Path, _next_paths, compose,
                        path_sort_key)
from bqtop.dsl import parse
from bqtop.homotopy import _find, _union, relation_components
from bqtop.linalg import QQ, rank, rref, sparse_rref

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
        rows = [r for r in rref(raw, FRACTIONS)[0] if any(r)]
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
    with the library's message when no L <= cap certifies."""
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
    return L, paths, rows_by_pair, in_ideal, dims


def swept_natural_classes(table):
    """(classes, skipped): the partition of table indices into natural
    classes, as a set of frozensets, that the factor-replacement sweep
    p = uvw -> uv'w (v ~ v') reaches, and whether its final pass skipped a
    replacement because uv'w is longer than the table bound."""
    q = table.quiver
    parent = list(range(len(table.paths)))
    for group in relation_components(table):
        for p in group[1:]:
            _union(parent, table.index[group[0]], table.index[p])
    changed = True
    while changed:
        changed = skipped = False
        members_of = {}
        for i in range(len(table.paths)):
            members_of.setdefault(_find(parent, i), []).append(i)
        for i, p in enumerate(table.paths):
            verts = q.path_vertices(p)
            for a in range(len(p) - 1):
                for b in range(a + 2, len(p) + 1):
                    mid = Path(verts[a], verts[b], p.arrows[a:b])
                    group = members_of.get(_find(parent, table.index[mid]), ())
                    for j in group:
                        alt = table.paths[j]
                        if alt == mid:
                            continue
                        if len(p) - (b - a) + len(alt) > table.bound:
                            skipped = True
                            continue
                        new = Path(p.source, p.target,
                                   p.arrows[:a] + alt.arrows + p.arrows[b:])
                        if _union(parent, i, table.index[new]):
                            changed = True
    classes = {}
    for i in range(len(table.paths)):
        classes.setdefault(_find(parent, i), set()).add(i)
    return set(map(frozenset, classes.values())), skipped


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

    def unit(pair, path):
        vec = [Fraction(0)] * len(table.pair_paths[pair])
        vec[table.local[table.index[path]]] = Fraction(1)
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
            vecs = table.ideal_rows.get(pair, []) + [unit(pair, p)
                                                      for p in cands]
            if rank(vecs, QQ) != len(vecs):
                witnesses.append(
                    "pair (%s,%s): images of %s are linearly dependent mod "
                    "the ideal" % (pair[0], pair[1],
                                   ", ".join(str(p) for p in cands)))
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)
    elements = [BasisElement(i, Path(v, v, ()), Fraction(1))
                for i, v in enumerate(q.vertices)]
    for p in sorted(paths, key=lambda p: path_sort_key(q, p)):
        elements.append(BasisElement(len(elements), p, Fraction(1)))
    elt_pairs = {}
    for e in elements:
        elt_pairs.setdefault((e.path.source, e.path.target),
                             []).append(e.index)

    def expand(path):
        """Nonzero (element, coefficient) terms of the path's image."""
        pair = (path.source, path.target)
        idxs = elt_pairs[pair]
        cols = [unit(pair, elements[i].path) for i in idxs]
        cols += [[row.get(k, Fraction(0))
                  for k in range(len(table.pair_paths[pair]))]
                 for row in table.ideal_rows.get(pair, [])]
        target = unit(pair, path)
        aug = [[col[i] for col in cols] + [target[i]]
               for i in range(len(target))]
        m, pivots = rref(aug, QQ)
        assert len(cols) not in pivots, "basis must span its slice"
        return [(idxs[c], m[r][-1]) for r, c in enumerate(pivots)
                if c < len(idxs) and m[r][-1] != 0]

    product = {}
    for e1, e2 in itertools.product(elements, repeat=2):
        if e1.path.target != e2.path.source:
            continue
        key = (e1.index, e2.index)
        path = compose(e1.path, e2.path)
        if e1.is_identity:
            product[key] = (Fraction(1), e2.index)
        elif e2.is_identity:
            product[key] = (Fraction(1), e1.index)
        elif table.path_in_ideal(path):
            product[key] = None
        elif len(terms := expand(path)) != 1:
            witnesses.append("product %s * %s expands with %d basis terms"
                             % (e1, e2, len(terms)))
        else:
            product[key] = (terms[0][1], terms[0][0])
    if witnesses:
        return SemiNormedFailure(tuple(witnesses), classes)
    return SemiNormedAlgebra(table, classes, elements, product)


def cocycle_image_degrees(sc, hc, eps):
    """The per-degree ranks of the map SH^n -> HH^n induced by `eps`
    (sparse columns, one per simplicial tuple) and whether it is an
    isomorphism in every degree, as (degrees, iso) in the layout of
    `EpsilonMuReport`: each degree's cocycles Z^n are the kernel of the
    simplicial coboundary, eps(Z^n) is ranked together with the
    Hochschild coboundaries B^n, and the rank of B^n is taken off."""
    F = hc.field
    top = max(sc.top_dim(), hc.top_dim())
    sc_dims = sc.counts() + [0] * (top + 2 - len(sc.tuples))
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


# ---------------------------------------------------------------------------
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
