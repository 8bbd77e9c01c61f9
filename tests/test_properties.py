"""Randomized structural invariants and the monomial family sweep.

Seeded generators (in oracles.py) produce small connected acyclic bound
quivers; every sample is pushed through the full pipeline and checked
against the identities that must hold regardless of the ideal:
boundaries square to zero, Euler counts match Betti numbers, H_1
abelianizes pi_1, the comparison maps satisfy their contracts exactly
under the advertised hypotheses, and monomial ideals collapse the space
onto the graph.
"""

import argparse
import collections
import contextlib
import io
import itertools
import random
from fractions import Fraction

import pytest

from bqtop import (BoundQuiver, GroupAction, HochschildComplex, NotGalois,
                   QuiverMorphism, abelianization, algebra_properties,
                   build_complex, check_galois, cohomology, cup_product,
                   deck_group,
                   enumerate_paths, epsilon_mu, find_semi_normed_basis,
                   homology, lift_complex_map, minimal_relation_supports,
                   natural_homotopy_classes, phi_psi_maps, pi1_presentation,
                   relation_components, simplicial_complex,
                   van_kampen_pushout, verify_semi_normed_basis,
                   walk_homotopy_classes)
from bqtop import algcohom, cli
from bqtop import complex as cellular
from bqtop import core
from bqtop.complex import (check_faces_square_zero, cohomology_of_matrices,
                           face_columns, homology_of_matrices)
from bqtop.core import (AdmissibilityError, NotConnectedError, Path,
                        PathTable, path_sort_key)
from bqtop.dsl import parse, serialize
from bqtop.homotopy import (HypothesisViolated, PathClassTable, Presentation,
                            _closure, _presentation, _spanning_forest,
                            _tietze, _tree_walk, _word_inverse, free_reduce,
                            spanning_tree)
from bqtop.linalg import (QQ, PrimeField, extend_rref, mat_mul, nullspace,
                          rank, smith_divisors, smith_normal_form,
                          sparse_rref)
from oracles import (CORPUS, FRACTIONS, MONOMIAL, SAMPLES, SEED, TRUNCATED,
                     _is_inverse, FoundPathClassTable, PerPathTable,
                     SortedPathClassTable, all_component_presentation,
                     bfs_spanning_tree, certified_closure, class_paths,
                     comm_grid_text, complex_skeleton_dot,
                     compose,
                     check_square_zero,
                     cocycle_image_degrees, column_phi_psi_maps,
                     commuting_squares,
                     dense_reduces_to_zero, dense_rref, dense_semi_normed_basis, differential_quivers,
                     reducing_semi_normed_basis,
                     flag_scan_semi_commutative,
                     folded_epsilon_mu, forward_paths,
                     lengthwise_path_table, load_bench_workloads,
                     local_rows, loops, monomial_collapse,
                     object_complex,
                     unit_pivot_smith_divisors,
                     object_path_table, path_vertices, paths_between,
                     per_matrix_ranked,
                     pumped_semi_commutative,
                     random_cyclic_quiver, random_quiver,
                     reenumerated_pushout, rebuilt_path_table,
                     rotation_canonical, rounds_tietze,
                     rowwise_faces_square_zero, sc_cup,
                     sparse_transpose,
                     swept_natural_classes,
                     truncated_path_table, walked_hochschild,
                     walked_simplicial)

_CPLX = None


def complexes():
    global _CPLX
    if _CPLX is None:
        _CPLX = [(q, t, build_complex(t, natural_homotopy_classes(t)))
                 for q, t in SAMPLES]
    return _CPLX


_PIPE = None


def algebra_pipeline():
    """Semi-normed pipeline over the first 80 samples; failures skipped."""
    global _PIPE
    if _PIPE is None:
        _PIPE = []
        for q, t, cx in complexes()[:80]:
            a = find_semi_normed_basis(t)
            if not a.ok:
                continue
            sc = simplicial_complex(a)
            hc = HochschildComplex(a, "Q")
            _PIPE.append((q, t, cx, a, sc, hc, epsilon_mu(a, sc, hc)))
    return _PIPE


def is_zero(mat):
    return all(x == 0 for row in mat for x in row)


def test_boundary_squares_to_zero():
    for q, t, cx in complexes():
        for n in range(2, cx.top_dim() + 1):
            assert is_zero(mat_mul(cx.boundary(n - 1), cx.boundary(n)))


def test_euler_count_matches_betti_sum():
    for q, t, cx in complexes():
        counts = cx.counts()
        chi = sum((-1) ** n * c for n, c in enumerate(counts))
        betti = homology(cx, "Q").groups
        assert chi == sum((-1) ** n * b for n, b in enumerate(betti))


def test_h1_abelianizes_pi1():
    for q, t, cx in complexes():
        rank, tors = homology(cx, "Z").groups[1]
        ab = abelianization(pi1_presentation(t))
        assert (rank, list(tors)) == (ab[0], list(ab[1]))


def composite_vanishes(low, high, field):
    """The product of two matrices given as sparse columns is zero: each
    column of `high` combines the columns of `low` to nothing."""
    for col in high:
        acc = {}
        for k, b in col.items():
            for i, a in low[k].items():
                acc[i] = field.add(acc.get(i, field.zero), field.mul(a, b))
        if any(x != field.zero for x in acc.values()):
            return False
    return True


def test_semi_normed_pipeline_matches_cells():
    hits = 0
    for q, t, cx, a, sc, hc, rep in algebra_pipeline():
        hits += 1
        assert list(sc.counts()) == list(cx.counts())
        assert homology(sc, "Z").groups == homology(cx, "Z").groups
        for n in sc.columns:
            if n - 1 in sc.columns:
                assert composite_vanishes(sc.columns[n - 1], sc.columns[n],
                                          QQ)
    assert hits >= 40


def test_hochschild_differential_squares_to_zero():
    for q, t, cx, a, sc, hc, rep in algebra_pipeline()[:25]:
        for n in range(2, hc.top_dim() + 1):
            assert composite_vanishes(hc.columns[n - 1], hc.columns[n],
                                      hc.field)


def test_comparison_map_contracts():
    schurian_semi = 0
    for q, t, cx, a, sc, hc, rep in algebra_pipeline():
        assert rep.eps_cochain_map
        assert rep.mu_eps_identity
        if rep.schurian:
            assert rep.mu_cochain_map
        if rep.schurian and rep.semi_commutative:
            schurian_semi += 1
            assert rep.eps_mu_identity
            assert rep.iso
            assert all(d["sh"] == d["hh"] for d in rep.degrees)
    assert schurian_semi >= 5


def test_comparison_flags_are_pinned():
    # the flags as the dense matrix products gave them before the maps
    # became sparse columns
    reps = [rep for *_, rep in algebra_pipeline()]
    assert len(reps) == 79
    assert all(rep.eps_cochain_map and rep.mu_eps_identity for rep in reps)
    assert sum(not rep.mu_cochain_map for rep in reps) == 16
    assert sum(rep.eps_mu_identity for rep in reps) == 18
    assert sum(rep.iso for rep in reps) == 20


def test_phi_psi_reports_are_pinned():
    # natural complex against the walk complex: phi and psi are inverse
    # chain maps, phi-sharp is an onto chain map, so its kernel in degree n
    # is the simplicial count less the walk-cell count
    kernels = []
    for q, t, cx, a, sc, hc, rep in algebra_pipeline():
        tot = build_complex(t, walk_homotopy_classes(t))
        pp = phi_psi_maps(a, cx, tot)
        assert pp.phi_chain_map and pp.psi_chain_map and pp.iso
        assert pp.sharp_chain_map and pp.sharp_epi
        assert pp.kernel_ranks == tuple(
            s - w for s, w in itertools.zip_longest(
                sc.counts(), tot.counts(), fillvalue=0))
        kernels.append(pp.kernel_ranks)
    assert sum(map(sum, kernels)) == 67
    assert sum(any(k) for k in kernels) == 16


def test_monomial_space_is_the_graph():
    for q, t in MONOMIAL:
        supports, _ = minimal_relation_supports(t)
        assert supports == []
        cx = build_complex(t, natural_homotopy_classes(t))
        res = homology(cx, "Z")
        loops = len(q.arrows) - len(q.vertices) + 1
        assert res.groups[0] == (1, ())
        assert res.groups[1] == (loops, ()) if len(res.groups) > 1 \
            else loops == 0
        assert all(g == (0, ()) for g in res.groups[2:])
        ab = abelianization(pi1_presentation(t))
        assert (ab[0], list(ab[1])) == (loops, [])


def test_monomial_collapse_matches_the_built_complex():
    # the collapse onto the graph gives every monomial quiver's counts
    # and (co)homology, cyclic ones included; any other ideal has a
    # minimal relation, and with it a class of two paths
    monomial = 0
    for q in differential_quivers():
        t = enumerate_paths(q)
        collapsed = monomial_collapse(t)
        if collapsed is None:
            assert relation_components(t)
            continue
        monomial += 1
        counts, columns = collapsed
        cx = build_complex(t, natural_homotopy_classes(t))
        assert cx.caveats == ()
        assert counts == cx.counts()
        dims = {0: counts[0], 1: len(columns)}
        for coeff in ("Z", "Q", "Fp:2", "Fp:3", "Zmod:4", "Zmod:6"):
            assert homology_of_matrices(dims, {1: columns}, coeff,
                                        top=len(counts) - 1) \
                == homology(cx, coeff)
            assert cohomology_of_matrices(dims, {1: columns}, coeff,
                                          top=len(counts) - 1) \
                == cohomology(cx, coeff)
    assert monomial == 213


def test_thin_core_matches_the_built_complex():
    # a thin input's complex is the order complex of its vertex poset:
    # the chain counts equal the built cell counts, and the order complex
    # of the core has the built complex's (co)homology
    tables = []
    for q in differential_quivers():
        t = enumerate_paths(q)
        tables += [(t, natural_homotopy_classes(t)),
                   (t, walk_homotopy_classes(t))]
    grids = []
    for n in (4, 5, 6):
        t = enumerate_paths(parse(comm_grid_text(n, n)))
        grids.append((t, natural_homotopy_classes(t)))
    thin, points = collections.Counter(), collections.Counter()
    for t, classes in tables + grids:
        got = cellular.thin_core_chains(t, classes)
        if got is None:
            continue
        thin[classes.variant] += 1
        counts, dims, faces = got
        points[dims[0]] += 1
        cx = build_complex(t, classes)
        assert cx.caveats == ()
        assert counts == cx.counts()
        mats = face_columns(faces)
        for coeff in ("Z", "Q", "Fp:2", "Zmod:4"):
            built = homology(cx, coeff)
            assert homology_of_matrices(dims, mats, coeff,
                                        top=len(counts) - 1) == built
            # over a field or Z/m the cohomology groups are the homology's
            assert cohomology_of_matrices(dims, mats, coeff,
                                          top=len(counts) - 1) \
                == (cohomology(cx, coeff) if coeff == "Z" else built)
    # 70 natural and 76 walk class tables of the differential quivers
    # are thin, and the three grids; every core is a point but those of
    # `cor66_cycle1`, a circle on four points, and `rp2_cover`, the
    # 2-sphere on six, under either classes
    assert thin == {"natural": 73, "walk": 76}
    assert points == {1: 145, 4: 2, 6: 2}
    for t, classes in grids:
        assert cellular.thin_core_chains(t, classes)[1] == {0: 1}


def cli_report(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_monomial_walk_classes_are_the_paths(tmp_path, monkeypatch):
    # under a monomial ideal the walk classes are the natural ones, the
    # single paths, with no caveat; so `--sharp` (co)homology of a quiver
    # whose relations are single paths takes the collapse onto the graph,
    # and its reports equal the built complex's.  A quiver monomial only
    # after reduction builds its complex, whose counts and groups
    # `test_monomial_collapse_matches_the_built_complex` pins to the
    # collapse's
    inputs = []
    for i, q in enumerate(differential_quivers()):
        t = enumerate_paths(q)
        if monomial_collapse(t) is None:
            continue
        walk, nat = walk_homotopy_classes(t), natural_homotopy_classes(t)
        assert walk.class_of_index == nat.class_of_index
        assert all(len(members) == 1 for members in walk.class_members)
        assert walk.caveats == nat.caveats == ()
        path = tmp_path / ("q%03d.bq" % i)
        path.write_text(serialize(q))
        inputs.append(str(path))
    assert len(inputs) == 213
    inputs += [str(path) for path in sorted(CORPUS.glob("*.bq"))
               if monomial_collapse(enumerate_paths(parse(path.read_text())))
               is not None]
    assert len(inputs) == 221
    for path in inputs:
        for cmd in ("homology", "cohomology"):
            for coeff in ("Z", "Q", "Fp:2", "Fp:3", "Zmod:4", "Zmod:6"):
                argv = [cmd, "--sharp", "--coeff", coeff, path]
                collapsed = cli_report(argv)
                with monkeypatch.context() as mp:
                    # with no path count the route builds the complex
                    mp.setattr(cellular, "monomial_path_counts",
                               lambda quiver, cap: None)
                    built = cli_report(argv)
                assert collapsed == built, argv


# The five shapes for the monomial family sweep.  Underlying graphs: two
# trees and three one-loop graphs; every subset of the length >= 2 paths
# generates an admissible monomial ideal (the quivers are acyclic).
FAMILY = [
    ("tree", ["1", "2", "3", "4"],
     [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")]),
    ("tree", ["1", "2", "3", "4", "5"],
     [("a", "1", "2"), ("b", "3", "2"), ("c", "2", "4"), ("d", "2", "5")]),
    ("cycle", ["1", "2", "3", "4"],
     [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4"), ("d", "1", "4")]),
    ("cycle", ["1", "2", "3", "4"],
     [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]),
    ("cycle", ["1", "2", "3"],
     [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")]),
]


def test_monomial_family_tree_detects_vanishing():
    members = 0
    schurian_semi = 0
    for shape, vertices, arrows in FAMILY:
        paths = forward_paths(arrows)
        chi = 1 - len(vertices) + len(arrows)
        for k in range(len(paths) + 1):
            for subset in itertools.combinations(paths, k):
                members += 1
                rels = [[(list(p[0]), 1)] for p in subset]
                t = enumerate_paths(BoundQuiver(vertices, arrows, rels))
                a = find_semi_normed_basis(t)
                assert a.ok
                dims = HochschildComplex(a, "Q").hh_dims()
                assert dims[0] == 1
                if shape == "tree":
                    assert all(d == 0 for d in dims[1:])
                else:
                    assert dims[1] >= 1
                props = algebra_properties(t)
                if props.schurian and props.semi_commutative:
                    schurian_semi += 1
                    assert dims[1] == chi
                    assert all(d == 0 for d in dims[2:])
    assert members == 29
    assert schurian_semi >= 6


def sheeted_cover(base, sheets):
    """Disjoint union of relabeled copies with the cyclic shift action."""
    tag = lambda x, i: "%s_s%d" % (x, i)
    vertices = [tag(v, i) for i in range(sheets) for v in base.vertices]
    arrows = [(tag(a.name, i), tag(a.source, i), tag(a.target, i))
              for i in range(sheets) for a in base.arrows]
    rels = []
    for i in range(sheets):
        for rel in base.relations:
            rels.append([([tag(n, i) for n in p.arrows], c)
                         for p, c in rel.terms])
    cover = BoundQuiver(vertices, arrows, rels)
    vmap = {tag(v, i): v for i in range(sheets) for v in base.vertices}
    amap = {tag(a.name, i): a.name
            for i in range(sheets) for a in base.arrows}
    proj = QuiverMorphism(cover, base, vmap, amap)
    shifts = []
    for k in range(sheets):
        sv = {tag(v, i): tag(v, (i + k) % sheets)
              for i in range(sheets) for v in base.vertices}
        sa = {tag(a.name, i): tag(a.name, (i + k) % sheets)
              for i in range(sheets) for a in base.arrows}
        shifts.append(QuiverMorphism(cover, cover, sv, sa))
    return cover, proj, shifts


def test_disjoint_sheet_covers_random():
    rng = random.Random(SEED + 2)
    for _ in range(12):
        base = random_quiver(rng, max_vertices=4)
        sheets = rng.randint(2, 3)
        cover, proj, shifts = sheeted_cover(base, sheets)
        tb, tc = enumerate_paths(base), enumerate_paths(cover)
        action = GroupAction(tc, shifts)
        rep = check_galois(tb, tc, proj, action)
        assert rep.ok and rep.galois_ok
        assert all(len(f) == sheets for f in rep.vertex_fibers.values())
        assert all(len(f) == sheets for f in rep.arrow_fibers.values())
        cxb = build_complex(tb, natural_homotopy_classes(tb))
        cxc = build_complex(tc, natural_homotopy_classes(tc))
        lift = lift_complex_map(cxb, cxc, rep)
        assert lift.ok
        assert list(cxc.counts()) == [sheets * c for c in cxb.counts()]
        for dim, fibers in lift.cell_fibers.items():
            assert all(len(f) == sheets for f in fibers.values())
        # the sheets are disjoint, so no deck group on a disconnected cover
        with pytest.raises(NotGalois):
            deck_group(cxb, cxc, lift)


def fan_quiver(rng, k):
    """k routes s -> m_i -> t bound by one k-term sum relation."""
    vertices = ["s", "t"] + ["m%d" % i for i in range(1, k + 1)]
    arrows = [("u%d" % i, "s", "m%d" % i) for i in range(1, k + 1)]
    arrows += [("v%d" % i, "m%d" % i, "t") for i in range(1, k + 1)]
    rel = [(["u%d" % i, "v%d" % i], rng.choice([-1, 1]) * rng.randint(1, 9))
           for i in range(1, k + 1)]
    return BoundQuiver(vertices, arrows, [rel])


def ladder_quiver(rng, n):
    """2 x n grid whose every square commutes up to seeded scalars."""
    vertices = ["x%d_%d" % (i, j) for i in range(2) for j in range(n)]
    arrows = [("h%d_%d" % (i, j), "x%d_%d" % (i, j), "x%d_%d" % (i, j + 1))
              for i in range(2) for j in range(n - 1)]
    arrows += [("d%d" % j, "x0_%d" % j, "x1_%d" % j) for j in range(n)]
    rels = [[(["h0_%d" % j, "d%d" % (j + 1)], rng.randint(1, 9)),
             (["d%d" % j, "h1_%d" % j], -rng.randint(1, 9))]
            for j in range(n - 1)]
    return BoundQuiver(vertices, arrows, rels)


def test_relation_components_match_the_support_search():
    # the matroid components of each ideal slice must give exactly the
    # co-member closure of the enumerated minimal relations when the
    # enumeration covered every support; random samples mix monomial
    # relations in, so some slices have zero paths that must stay out
    rng = random.Random(SEED + 2)
    cases = [fan_quiver(rng, k) for k in range(2, 8)]
    cases += [ladder_quiver(rng, n) for n in range(2, 5)]
    tables = [enumerate_paths(q) for q in cases]
    tables += [t for q, t in SAMPLES]
    for t in tables:
        mrs, warnings = minimal_relation_supports(t, support_cap=8)
        assert not warnings  # no pair here has more than 8 nonzero paths
        parent = {p: p for p in t.paths}

        def find(p):
            while parent[p] != p:
                p = parent[p]
            return p
        for mr in mrs:
            for p in mr.support()[1:]:
                parent[find(p)] = find(mr.support()[0])
        closure = {}
        for p in t.paths:
            closure.setdefault(find(p), set()).add(p)
        # classes and presentations are built from these groups alone
        assert ({frozenset(c) for c in closure.values() if len(c) > 1}
                == {frozenset(map(t.paths.__getitem__, g))
                    for g in relation_components(t)})


# ---------------------------------------------------------------------------
# walk classes from the word problem against a capped rewriting search


def bfs_walk_partition(table, node_cap=300):
    """Table paths joined by walk moves that a capped BFS finds: {path: root}.

    Moves on walks (words of (arrow, +-1) from a source vertex): cancel or
    insert an inverse pair, and swap a co-member of a relation component
    for another, read either way.  Every merge is witnessed by a chain of
    moves, so the partition is sound however small the cap.
    """
    q = table.quiver
    swaps = []
    for group in relation_components(table):
        group = [table.paths[i] for i in group]
        for u, v in itertools.permutations(group, 2):
            swaps.append((tuple((a, 1) for a in u.arrows),
                          tuple((a, 1) for a in v.arrows)))
            swaps.append((tuple((a, -1) for a in reversed(u.arrows)),
                          tuple((a, -1) for a in reversed(v.arrows))))
    max_len = 2 * table.bound + 2
    parent = {}

    def find(w):
        while parent[w] != w:
            w = parent[w]
        return w
    starts = [(p.source, tuple((a, 1) for a in p.arrows)) for p in table.paths]
    queue = collections.deque(starts)
    parent.update((w, w) for w in starts)
    while queue:
        walk = queue.popleft()
        src, letters = walk
        at = [src]
        for name, sign in letters:
            a = q.arrow_by_name[name]
            at.append(a.target if sign > 0 else a.source)
        moves = [letters[:i] + letters[i + 2:] for i in range(len(letters) - 1)
                 if letters[i][0] == letters[i + 1][0]
                 and letters[i][1] == -letters[i + 1][1]]
        if len(letters) + 2 <= max_len:
            for pos, v in enumerate(at):
                pairs = [((a.name, 1), (a.name, -1)) for a in q.arrows_from[v]]
                pairs += [((a.name, -1), (a.name, 1)) for a in q.arrows_to[v]]
                moves += [letters[:pos] + pair + letters[pos:]
                          for pair in pairs]
        for lhs, rhs in swaps:
            for pos in range(len(letters) - len(lhs) + 1):
                if letters[pos:pos + len(lhs)] == lhs:
                    moves.append(letters[:pos] + rhs
                                 + letters[pos + len(lhs):])
        for letters2 in moves:
            nb = (src, letters2)
            if nb not in parent:
                if len(parent) >= node_cap:
                    continue
                parent[nb] = nb
                queue.append(nb)
            parent[find(nb)] = find(walk)
    return {p: find(w) for p, w in zip(table.paths, starts)}


def test_walk_classes_contain_the_capped_search_merges():
    # on the seeded samples the exact walk partition must merge every pair
    # the capped search merges, and coarsen the natural partition
    undecided = beyond_natural = 0
    for q, t in SAMPLES:
        walk = walk_homotopy_classes(t)
        nat = natural_homotopy_classes(t)
        undecided += len(walk.caveats)
        oracle = bfs_walk_partition(t)
        beyond_natural += len(set(oracle.values())) < len(nat)
        root_class = {}
        for p in t.paths:
            assert root_class.setdefault(oracle[p], walk.class_of(p)) == \
                walk.class_of(p)
        for cid in range(len(nat)):
            assert len({walk.class_of(p) for p in class_paths(nat, cid)}) == 1
    assert undecided == 0
    # the search merges more than the natural classes on 37 samples
    assert beyond_natural > 0


# ---------------------------------------------------------------------------
# the sparse elimination layer against the dense routines it replaced

def random_int_matrix(rng):
    # units, non-units and zeros, so that unit pivots, fill-in and a
    # residual for the dense Smith form all occur
    values = [0, 0, 0, 1, -1, 1, 2, -2, 3, -4, 6]
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    return [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]


def sparse_columns(mat):
    return [{i: row[j] for i, row in enumerate(mat) if row[j]}
            for j in range(len(mat[0]))]


def test_smith_divisors_match_smith_normal_form():
    rng = random.Random(SEED + 3)
    for _ in range(400):
        mat = random_int_matrix(rng)
        assert (smith_divisors(sparse_columns(mat))
                == smith_normal_form(mat)[0])
    # torsion of a complex: rp2 has H1 = Z/2
    t = enumerate_paths(parse((CORPUS / "rp2.bq").read_text()))
    cx = build_complex(t, natural_homotopy_classes(t))
    for n, cols in cx.columns.items():
        assert smith_divisors(cols) == smith_normal_form(cx.boundary(n))[0]
    assert smith_divisors(cx.columns[2]) == [1, 1, 1, 2]


def abelianization_columns(pres):
    """The relator columns `abelianization` ranks, keyed by generator
    name."""
    cols = []
    for rel in pres.relators:
        col = {}
        for g, e in rel:
            col[g] = col.get(g, 0) + e
        cols.append(col)
    return cols


def cleared_boundaries(cx):
    """(columns, skip, number of rows) of every boundary of cx, top
    down, with the columns that the ranking with clearing skips."""
    out, pivots = [], set()
    for n in range(cx.top_dim(), 0, -1):
        skip, pivots = pivots, set()
        out.append((cx.columns[n], skip, cx.size(n - 1)))
        smith_divisors(cx.columns[n], skip, pivots)
    return out


def test_smith_divisors_match_the_unit_pivot_oracle():
    # the left-looking reduction against the right-looking unit-pivot
    # elimination it replaced and the dense Smith form, on random
    # matrices, on the string-keyed columns of the abelianized pi1, and on
    # every boundary of the natural, walk and simplicial complexes with
    # the columns that clearing leaves out
    rng = random.Random(SEED + 3)
    checked = collections.Counter()

    def agree(columns, skip=(), nrows=None):
        kept = [col for k, col in enumerate(columns) if k not in skip]
        rows = (range(nrows) if nrows is not None
                else sorted({i for col in kept for i in col}))
        dense = [[col.get(i, 0) for col in kept] for i in rows]
        want = smith_normal_form(dense)[0] if rows and kept else []
        pivots = set()
        got = smith_divisors(columns, skip, pivots)
        assert got == unit_pivot_smith_divisors(columns, skip) == want
        # each unit pivot splits off an invariant factor 1
        assert len(pivots) <= got.count(1)
        checked["torsion"] += any(d > 1 for d in got)
        checked["residual"] += len(pivots) < len(got)

    for _ in range(400):
        agree(sparse_columns(random_int_matrix(rng)))
    for q in differential_quivers():
        t = enumerate_paths(q)
        agree(abelianization_columns(pi1_presentation(t)))
        complexes = [build_complex(t, classes) for classes in
                     (natural_homotopy_classes(t), walk_homotopy_classes(t))]
        a = find_semi_normed_basis(t) if q.is_acyclic() else None
        if a is not None and a.ok:
            complexes.append(simplicial_complex(a))
        for cx in complexes:
            for columns, skip, nrows in cleared_boundaries(cx):
                agree(columns, skip, nrows)
                checked["boundaries"] += 1
                checked["cleared"] += bool(skip)
    # rp2's H_1 = Z/2 is one of the boundaries with torsion
    t = enumerate_paths(parse((CORPUS / "rp2.bq").read_text()))
    cx = build_complex(t, natural_homotopy_classes(t))
    assert [smith_divisors(cols, skip) for cols, skip, _ in
            cleared_boundaries(cx)] == [[1, 1, 1, 2], [1, 1]]
    assert checked == {"boundaries": 1667, "cleared": 794, "torsion": 169,
                       "residual": 318}


def test_rank_matches_dense_elimination():
    rng = random.Random(SEED + 4)
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for _ in range(150):
            mat = random_int_matrix(rng)
            rows = [[field.of(x) for x in row] for row in mat]
            want = len(dense_rref(rows, field)[1])
            assert rank(sparse_columns(mat), field) == want
            assert rank(mat, field) == want
            assert rank(rows, field) == want


def test_rref_matches_dense_elimination():
    rng = random.Random(SEED + 5)
    cut = random.Random(SEED + 6)
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for _ in range(150):
            mat = random_int_matrix(rng)
            if field is QQ:
                rows = [[Fraction(x, rng.randint(1, 3)) for x in row]
                        for row in mat]
            else:
                rows = [[field.of(x) for x in row] for row in mat]
            m, pivots = dense_rref(rows, field)
            reduced = sparse_rref(rows, field)
            assert [c for c, _ in reduced] == pivots
            assert [[v.get(j, field.zero) for j in range(len(rows[0]))]
                    for _, v in reduced] == m[:len(pivots)]
            # the kernel read off the dense RREF: one vector per free
            # column, 1 there and minus that column's entries at the pivots
            kernel = []
            for f in range(len(rows[0])):
                if f not in pivots:
                    v = [field.zero] * len(rows[0])
                    v[f] = field.one
                    for r, c in enumerate(pivots):
                        v[c] = field.neg(m[r][f])
                    kernel.append(v)
            assert nullspace(rows, field) == kernel
            # the same form grown in two steps, the rows cut anywhere
            k = cut.randint(0, len(rows))
            grown = {}
            extend_rref(grown, rows[:k], field)
            extend_rref(grown, rows[k:], field)
            assert sorted(grown) == pivots
            assert [[grown[c].get(j, field.zero) for j in range(len(rows[0]))]
                    for c in pivots] == m[:len(pivots)]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.bq")),
                         ids=lambda p: p.stem)
def test_unit_rows_match_reduction_on_corpus_slices(path):
    # membership of a single path read off the RREF against reducing its
    # unit vector by the rows
    t = enumerate_paths(parse(path.read_text()))
    rows_of = local_rows(t)
    for pair, idxs in t.pair_paths.items():
        rows = rows_of.get(pair, [])
        units = {min(row) for row in rows if len(row) == 1}
        dense = [[row.get(j, Fraction(0)) for j in range(len(idxs))]
                 for row in rows]
        for k, i in enumerate(idxs):
            e = [Fraction(0)] * len(idxs)
            e[k] = Fraction(1)
            member = bool(rows) and dense_reduces_to_zero(dense, e)
            assert (k in units) == member
            assert (i in t.in_ideal) == member


# ---------------------------------------------------------------------------
# faces from the recorded split against re-enumeration and backtracking


def oracle_witnesses(table, classes, key):
    """Every nonzero member composite of a class tuple, least first: the
    re-enumeration `build_complex` ran before it recorded composites."""
    outs = class_paths(classes, key[0])
    for cid in key[1:]:
        outs = [compose(w, s) for w in outs for s in class_paths(classes, cid)
                if s.source == w.target and len(w) + len(s) <= table.bound]
    return sorted((w for w in outs if not table.vector_in_ideal([(w, 1)])),
                  key=lambda p: path_sort_key(table.quiver, p))


def oracle_split(table, classes, key, w, at=0):
    """The first split of w[at:] into members of the classes of `key`,
    trying members in class order and backtracking; None if none."""
    if not key:
        return () if at == len(w) else None
    verts = path_vertices(table.quiver, w)
    for s in class_paths(classes, key[0]):
        if s.source == verts[at] and s.arrows == w.arrows[at:at + len(s)]:
            rest = oracle_split(table, classes, key[1:], w, at + len(s))
            if rest is not None:
                return (s,) + rest
    return None


def oracle_faces(table, classes, key, witness):
    """Face keys of a cell, the middle ones along the backtracked split."""
    n = len(key)
    if n == 1:
        return [classes.class_target[key[0]], classes.class_source[key[0]]]
    segs = oracle_split(table, classes, key, witness)
    assert segs is not None, "witness does not factor through classes"
    mids = [classes.class_of(compose(segs[i - 1], segs[i]))
            for i in range(1, n)]
    return ([key[1:]] + [key[:i - 1] + (mids[i - 1],) + key[i + 1:]
                         for i in range(1, n)] + [key[:-1]])


def oracle_layers(table, classes):
    """[(key, witness, face keys)] per dimension >= 1, in cell order."""
    one = classes.one_cell_classes()
    keys = [(cid,) for cid in one]
    layers = []
    while keys:
        wit = {k: oracle_witnesses(table, classes, k) for k in keys}
        layers.append([(k, wit[k][0],
                        oracle_faces(table, classes, k, wit[k][0]))
                       for k in keys])
        keys = sorted({k + (cid,) for k in keys for w in wit[k]
                       for cid in one for s in class_paths(classes, cid)
                       if s.source == w.target
                       and len(w) + len(s) <= table.bound
                       and not table.vector_in_ideal([(compose(w, s), 1)])})
    return layers


def complex_layers(cx):
    return [[(key, cx.table.paths[w], [cx.keys[n - 1][f] for f in row])
             for key, w, row in zip(cx.keys[n], cx.witnesses[n], cx.faces[n])]
            for n in range(1, len(cx.keys))]


def test_faces_match_the_backtracking_oracle(comm_grid):
    tables = [enumerate_paths(parse(path.read_text()))
              for path in sorted(CORPUS.glob("*.bq"))]
    tables += [t for _, t in SAMPLES + MONOMIAL]
    tables.append(enumerate_paths(parse(open(comm_grid(4)).read())))
    compared = 0
    for t in tables:
        for classes in (natural_homotopy_classes(t), walk_homotopy_classes(t)):
            cx = build_complex(t, classes)
            layers = complex_layers(cx)
            assert layers == oracle_layers(t, classes)
            compared += sum(map(len, layers))
    assert len(tables) == 18 + 240 + 1
    assert compared > 5000


def test_id_complex_matches_the_cell_object_builder(comm_grid):
    # the complex kept on table ids against the builder that made a Cell
    # for every cell: keys, witness paths, faces, counts, caveats and the
    # cut, and the cell index, element by element
    quivers = differential_quivers()
    quivers.append(parse(open(comm_grid(4)).read()))
    checked = collections.Counter()
    for q in quivers:
        t = enumerate_paths(q)
        for classes in (natural_homotopy_classes(t), walk_homotopy_classes(t)):
            for max_dim in (None, 0, 1, 2, 3):
                cx = build_complex(t, classes, max_dim)
                old = object_complex(t, classes, max_dim)
                assert cx.keys == [[c.key for c in layer]
                                   for layer in old.cells]
                assert [[t.paths[w] for w in layer]
                        for layer in cx.witnesses[1:]] == [
                    [c.witness for c in layer] for layer in old.cells[1:]]
                assert (cx.faces, cx.counts(), cx.caveats, cx.cut_at) == (
                    old.faces, old.counts(), old.caveats, old.cut_at)
                assert cx.cell_index == old.cell_index
                checked[max_dim, cx.cut_at is not None] += 1
    assert checked == {(None, False): 600, (0, True): 600,
                       (1, False): 242, (1, True): 358,
                       (2, False): 476, (2, True): 124,
                       (3, False): 550, (3, True): 50}


def test_dot_skeleton_matches_the_one_cells_of_the_complex(monkeypatch):
    # `dot --skeleton` lists the nonzero non-identity classes with their
    # least nonzero members; the vertices and 1-cells of the natural
    # complex built up to dimension 1 are the oracle
    args = argparse.Namespace(file=None, skeleton=True)
    edges = 0
    for k, q in enumerate(differential_quivers()):
        t = enumerate_paths(q)
        monkeypatch.setattr(cli, "_load", lambda path, cap, got=(q, t): got)
        dot = cli._dot(args, core.DEFAULT_PATH_CAP)
        assert dot == complex_skeleton_dot(t), k
        edges += dot.count(" -> ")
    assert edges == 2794


# ---------------------------------------------------------------------------
# the path table from a Groebner basis against the rebuild-per-L and the
# length-by-length oracles


# differential_quivers() positions where both oracles certify a bound one
# above the exact index, (exact, theirs)
OVERESTIMATED = {68: (3, 4), 101: (2, 3)}

UNBOUNDED_LOOP = loops(["1"], [("x", "1", "1")], [])


def table_facts(paths, rows_by_pair, in_ideal, dims, cut):
    """(paths, {pair: RREF of its rows}, in_ideal, dims) on the paths of
    length <= cut, to compare with a table whose bound is cut.  The
    paths cut off must be zero: their unit vectors then give pivots past
    every kept coordinate, and no other RREF row reaches them."""
    kept = [p for p in paths if len(p) <= cut]
    assert set(range(len(kept), len(paths))) <= in_ideal
    count = collections.Counter((p.source, p.target) for p in kept)
    spans = {}
    for pair, rows in rows_by_pair.items():
        reduced = [(c, row) for c, row in sparse_rref(rows)
                   if c < count[pair]]
        assert all(max(row) < count[pair] for _, row in reduced)
        if reduced:
            spans[pair] = reduced
    return (kept, spans, in_ideal & set(range(len(kept))),
            {pair: d for pair, d in dims.items() if count[pair]})


def facts_of(t, cut):
    return table_facts(t.paths, local_rows(t), t.in_ideal, t.dims, cut)


def assert_tip_pivots(t):
    """Each row is p - NF(p), kept under p: no zero entries, a 1 at its
    pivot p, the greatest index, the pivots ascending, and no row
    touching another row's pivot (its other entries sit at normal
    paths)."""
    for pair, rows in t.ideal_rows.items():
        tips = list(rows)
        assert tips == sorted(set(tips))
        for tip, row in rows.items():
            assert tip == max(row) and row[tip] == 1 and all(row.values())
            assert not set(row) & set(tips) - {tip}


def test_path_table_matches_the_rebuild_per_bound_oracle():
    bounds = {}
    for k, q in enumerate(differential_quivers()):
        t = enumerate_paths(q)
        assert_tip_pivots(t)
        bound, paths, rows, in_ideal, dims = rebuilt_path_table(q, 12)
        if bound != t.bound:
            bounds[k] = (t.bound, bound)
        assert (facts_of(t, t.bound)
                == table_facts(paths, rows, in_ideal, dims, t.bound))
    assert bounds == OVERESTIMATED
    t = enumerate_paths(TRUNCATED)
    assert t.bound == 3
    assert t.vector_in_ideal([(TRUNCATED.path(["a", "b"]), 1)])
    with pytest.raises(AdmissibilityError) as got:
        enumerate_paths(UNBOUNDED_LOOP, cap=7)
    assert str(got.value) == (
        "no nilpotency bound L <= 7 certifies the ideal admissible: the "
        "path x*x*x*x*x*x*x of length 7 does not reduce to 0; raise the "
        "path cap if the quiver is genuinely bounded")


def test_groebner_table_matches_the_lengthwise_table(comm_grid):
    quivers = differential_quivers()
    assert len(quivers) == 299
    quivers += [parse(open(comm_grid(n)).read()) for n in (4, 5, 6)]
    bounds = {}
    for k, q in enumerate(quivers):
        t, old = enumerate_paths(q), lengthwise_path_table(q)
        if old.bound != t.bound:
            bounds[k] = (t.bound, old.bound)
            # on the old table's own exact membership, every path of the
            # exact bound's length already lies in I
            assert all(i in old.in_ideal for i, p in enumerate(old.paths)
                       if len(p) == t.bound)
        assert facts_of(t, t.bound) == facts_of(old, t.bound)
        assert ([[t.paths[i] for i in g] for g in relation_components(t)]
                == [[old.paths[i] for i in g]
                    for g in relation_components(old)])
        classes = [{frozenset(i for i in members if i < len(t.paths))
                    for members in natural_homotopy_classes(u).class_members}
                   - {frozenset()} for u in (t, old)]
        assert classes[0] == classes[1], k
    assert bounds == OVERESTIMATED


def test_groebner_table_on_cyclic_quivers_matches_the_truncated_products():
    # a certified bound L gives F^(L+1) <= I, so the products u*g*v with
    # their terms past L dropped span the slices exactly: an oracle that
    # needs no certificate of its own, where the lengthwise one often
    # fails or certifies a larger bound
    rng = random.Random(SEED + 17)
    seen = collections.Counter()
    for _ in range(200):
        q = random_cyclic_quiver(rng)
        try:
            t = enumerate_paths(q, cap=6)
        except AdmissibilityError:
            seen["not certified"] += 1
            continue
        assert_tip_pivots(t)
        assert facts_of(t, t.bound) == table_facts(
            *truncated_path_table(q, t.bound), t.bound)
        try:
            old = lengthwise_path_table(q, cap=6)
        except AdmissibilityError:
            seen["certified by normal forms only"] += 1
            continue
        assert facts_of(t, t.bound) == facts_of(old, t.bound)
        seen["lengthwise bound higher" if old.bound > t.bound
             else "same bound"] += 1
    assert seen == {"not certified": 130, "certified by normal forms only": 16,
                    "lengthwise bound higher": 38, "same bound": 16}


def word_table_facts(t):
    """The fields of a path table, with the order of its pair and row
    dicts."""
    return (t.bound, t.paths, t.pair_paths, t.ideal_rows,
            t.in_ideal, t.dims, t.arrow_index, list(t.pair_paths),
            [(pair, [(tip, list(row.items())) for tip, row in rows.items()])
             for pair, rows in t.ideal_rows.items()])


def test_word_table_matches_the_path_object_table(comm_grid):
    quivers = differential_quivers()
    grids = load_bench_workloads().complexes_inputs(17)
    quivers += [parse(text) for text in grids.values()]
    quivers.append(parse(open(comm_grid(4)).read()))
    for k, q in enumerate(quivers):
        assert (word_table_facts(enumerate_paths(q))
                == word_table_facts(object_path_table(q))), k
    # past the cap both name the same path, a stationary one below 1
    for cap, named in ((0, "e_1"), (1, "x"), (2, "x*x"),
                       (7, "*".join("x" * 7))):
        got = []
        for build in (enumerate_paths, object_path_table):
            with pytest.raises(AdmissibilityError) as err:
                build(UNBOUNDED_LOOP, cap=cap)
            got.append(str(err.value))
        assert got[0] == got[1], cap
        assert "the path %s of length %d " % (named, cap) in got[0]


# a 2-cycle bound at L = 2 whose bound is certified only at L = 5, when
# the overlaps resolved there put x0*x1 and x1*x0 in the ideal: the
# normal forms then reach past the bound
PAST_THE_BOUND = """\
arrow x0 1 2
arrow x1 2 1
rel x0*x1 + 2*x0*x1*x0*x1
rel -1*x1*x0 + 2*x1*x0*x1*x0
"""


def test_path_table_matches_the_per_path_numbering(comm_grid, monkeypatch):
    # both tables are numbered off the same normal forms, the library's
    # from the reducible words alone, the oracle's path by path
    built = []

    def both(*args):
        built.append((PathTable(*args), PerPathTable(*args)))
        return built[-1][0]

    monkeypatch.setattr(core, "PathTable", both)
    quivers = differential_quivers()
    grids = load_bench_workloads().complexes_inputs(17)
    quivers += [parse(text) for text in grids.values()]
    quivers += [parse(open(comm_grid(n)).read()) for n in (4, 5)]
    quivers.append(parse(PAST_THE_BOUND))
    rows = [0, 0]
    for k, q in enumerate(quivers):
        built.clear()
        enumerate_paths(q)
        (new, old), = built
        assert ((new.words, new.sources, new.targets) + word_table_facts(new)
                == (old.words, old.sources, old.targets)
                + word_table_facts(old)), k
        rows[0] += len(new.in_ideal)
        rows[1] += sum(len(row) > 1 for pair_rows in new.ideal_rows.values()
                       for row in pair_rows.values())
    assert len(quivers) == 299 + 4 + 2 + 1
    # rows of paths in the ideal, and of paths with a nonzero normal form
    assert rows == [2877 + 2, 1082]
    # the last input, PAST_THE_BOUND, against the table of `Path` objects
    assert new.bound == 2
    assert word_table_facts(new) == word_table_facts(object_path_table(q))


# ---------------------------------------------------------------------------
# natural classes by congruence closure against the factor-replacement sweep


def test_natural_classes_match_the_factor_replacement_sweep(
        comm_grid, bound_caveat_quiver):
    quivers = differential_quivers()
    quivers += [parse(open(comm_grid(n)).read()) for n in (4, 5, 6)]
    quivers.append(parse(open(bound_caveat_quiver).read()))
    with_caveat = []
    for k, q in enumerate(quivers):
        t = enumerate_paths(q)
        nat = natural_homotopy_classes(t)
        classes, skipped = swept_natural_classes(t)
        assert set(map(frozenset, nat.class_members)) == classes, k
        assert bool(nat.caveats) == skipped, k
        if skipped:
            with_caveat.append(k)
    # the bound cuts a closure short only on the fixture built for it
    assert with_caveat == [len(quivers) - 1]


def test_dropped_seeds_are_products_of_conjugates_of_the_joins(
        bound_caveat_quiver):
    # the oracle closes the seeds through a queue, records why each union
    # happened and rebuilds every dropped seed's relator from the joins;
    # pi1 lists the tree and then exactly the joins' relators
    quivers = differential_quivers()
    quivers.append(parse(open(bound_caveat_quiver).read()))
    ladders = [parse(comm_grid_text(2, n)) for n in range(2, 31)]
    grids = [parse(comm_grid_text(n, n)) for n in (4, 5, 6)]
    counts = collections.Counter()
    join_counts = []
    for q in quivers + ladders + grids:
        t = enumerate_paths(q)
        classes, joins, certificates = certified_closure(t)
        join_counts.append(len(joins))
        assert joins == _closure(t)[1]
        assert classes == set(map(frozenset,
                                  natural_homotopy_classes(t).class_members))
        pres = pi1_presentation(t)
        tree = spanning_tree(q, q.vertices[0])[0]
        assert pres.relators[:len(tree)] == tuple(((a, 1),) for a in tree)
        relators = pres.relators[len(tree):]

        def word(i):
            return tuple((a, 1) for a in t.words[i])
        assert relators == tuple(free_reduce(word(a) + _word_inverse(word(b)))
                                 for a, b in joins)
        for (a, b), factors in certificates.items():
            product = []
            for conj, k, sign in factors:
                rel = relators[k] if sign == 1 else _word_inverse(relators[k])
                product += conj + rel + _word_inverse(conj)
            assert (free_reduce(product)
                    == free_reduce(word(a) + _word_inverse(word(b))))
        counts["joins"] += len(joins)
        counts["dropped"] += len(certificates)
        counts["factors"] += sum(map(len, certificates.values()))
    # as many joins as defining relations: n - 1 squares on a 2 x n
    # ladder and (n - 1)^2 on an n x n grid
    assert join_counts[len(quivers):] == ([n - 1 for n in range(2, 31)]
                                          + [9, 16, 25])
    assert counts == {"joins": 682, "dropped": 39364, "factors": 260012}


# ---------------------------------------------------------------------------
# class tables read off in table order against the sorting constructor


def class_table_facts(classes):
    return (classes.class_members, classes.class_of_index,
            classes.class_source, classes.class_target,
            classes.class_nonzero, classes.class_identity, classes.class_rep)


def test_class_tables_in_table_order_match_the_sorting_oracle():
    for k, q in enumerate(differential_quivers()):
        t = enumerate_paths(q)
        assert len(t.arrow_index) == sum(1 for p in t.paths if p.arrows), k
        for i, p in enumerate(t.paths):
            if p.arrows:
                assert t.arrow_index[p.arrows] == i, k
        for classes in (natural_homotopy_classes(t), walk_homotopy_classes(t)):
            # each class rooted at its last member, so that the oracle's
            # union-find groups are not already in table order
            parent = list(range(len(t.paths)))
            for members in classes.class_members:
                for i in members:
                    parent[i] = members[-1]
            old = SortedPathClassTable(t, classes.variant, parent,
                                       classes.caveats)
            assert class_table_facts(classes) == class_table_facts(old), k


def random_forest(rng, groups, size):
    """A parent list over range(size) whose trees are the groups: each a
    random tree rooted at a random member, every member hung below one of
    the two members placed before it, so that the trees run deep."""
    parent = list(range(size))
    for members in groups:
        order = list(members)
        rng.shuffle(order)
        for t in range(1, len(order)):
            parent[order[t]] = order[rng.randrange(max(0, t - 2), t)]
    return parent


def forest_depth(parent):
    depth = 0
    for i in range(len(parent)):
        steps = 0
        while parent[i] != i:
            i, steps = parent[i], steps + 1
        depth = max(depth, steps)
    return depth


def test_class_tables_of_deep_forests_match_both_oracles():
    # pointer jumping against `_find` and against the sorting constructor,
    # on random forests over the natural and walk classes, and on forests
    # that also join two classes with other ends
    rng = random.Random(SEED + 27)
    seen = collections.Counter()
    for k, q in enumerate(differential_quivers()):
        t = enumerate_paths(q)
        for classes in (natural_homotopy_classes(t), walk_homotopy_classes(t)):
            groups = [list(members) for members in classes.class_members]
            ends = list(zip(classes.class_source, classes.class_target))
            apart = [(a, b) for a, b in itertools.combinations(
                range(len(groups)), 2) if ends[a] != ends[b]]
            crossed = apart and rng.random() < 0.25
            if crossed:
                a, b = rng.choice(apart)
                groups[a] += groups.pop(b)
            parent = random_forest(rng, groups, len(t.words))
            depth = forest_depth(parent)
            seen["depth > 1"] += depth > 1
            seen["depth > 2"] += depth > 2
            seen["a root above its least member"] += any(
                parent[i] == i and i != min(members)
                for members in groups for i in members)
            built = []
            for build in (PathClassTable, FoundPathClassTable,
                          SortedPathClassTable):
                try:
                    built.append(build(t, classes.variant, list(parent),
                                       classes.caveats))
                except AssertionError as e:
                    built.append(str(e))
            new, found, old = built
            if crossed:
                assert built == ["homotopy class members must be parallel"] * 3
                seen["not parallel"] += 1
                continue
            assert class_table_facts(new) == class_table_facts(classes), k
            assert class_table_facts(new) == class_table_facts(old), k
            assert (class_table_facts(new), new.rep_index) == (
                class_table_facts(found), found.rep_index), k
    assert seen == {"depth > 1": 69, "depth > 2": 42,
                    "a root above its least member": 194, "not parallel": 156}


def test_position_matches_the_path_dict(comm_grid):
    quivers = differential_quivers()
    quivers.append(parse(open(comm_grid(4)).read()))
    wrong = 0
    for k, q in enumerate(quivers):
        t = enumerate_paths(q)
        index = {p: i for i, p in enumerate(t.paths)}
        for p in t.paths:
            assert t.position(p) == index[p], k
            source, target = (next((v for v in q.vertices if v != end), "?")
                              for end in (p.source, p.target))
            bad = [Path(source, p.target, p.arrows),
                   Path(p.source, target, p.arrows),
                   Path(p.source, p.target, p.arrows + ("?",))]
            if p.arrows:
                bad.append(Path(p.source, p.target, p.arrows[:-1] + ("?",)))
            for b in bad:
                assert t.position(b) is None, (k, b)
            wrong += len(bad)
        assert t.position(Path("?", "?", ())) is None, k
    assert wrong > 25000


def tree_walks(quiver, base):
    """The tree and the walk to every vertex read off its links."""
    tree, links = spanning_tree(quiver, base)
    return tree, {v: _tree_walk(links, v) for v in links}


def test_spanning_tree_matches_the_all_arrow_scan(square_zero_chain):
    # the tree and the walks from every base vertex, or the same error
    def both(quiver, base):
        out = []
        for find in (tree_walks, bfs_spanning_tree):
            try:
                out.append(find(quiver, base))
            except NotConnectedError as e:
                out.append(str(e))
        return out

    for k, q in enumerate(differential_quivers()):
        for base in q.vertices:
            new, old = both(q, base)
            assert new == old, (k, base)
    apart = BoundQuiver(["1", "2", "3"], [("a", "1", "2")])
    assert both(apart, "1") == ["quiver is not connected"] * 2
    assert both(apart, "?") == ["unknown base vertex '?'"] * 2
    with open(square_zero_chain(2000)) as fh:
        chain = parse(fh.read())
    for base in ("0", "1000", "2000"):
        new, old = both(chain, base)
        assert new == old
        assert len(new[0]) == 2000


def square_zero_but(ends, kept, rng):
    """The quiver of arrows with the given ends, declared in a seeded
    order, bound by every composite of two arrows but the pairs of arrow
    numbers in `kept`."""
    order = rng.sample(range(len(ends)), len(ends))
    lines = ["arrow a%d %s %s" % (i, *ends[i]) for i in order]
    lines += ["rel a%d*a%d" % (i, j)
              for i, (_, t) in enumerate(ends)
              for j, (s, _) in enumerate(ends)
              if t == s and (i, j) not in kept]
    return parse("\n".join(lines) + "\n")


def component_order_quivers():
    """Square-zero quivers, some with one composite left nonzero, with
    several strongly connected components in a row: a cycle with a tail
    in and a tail out, two cycles joined by a chain, and chains, some
    with an arrow from near one end to near the other, so that a nonzero
    pair lies far downstream."""
    rng = random.Random(SEED + 33)
    quivers = []

    def add(ends):
        pairs = [(i, j) for i, (_, t) in enumerate(ends)
                 for j, (s, _) in enumerate(ends) if t == s]
        quivers.extend(square_zero_but(ends, kept, rng)
                       for kept in [()] + [(p,) for p in pairs])

    def cycle(name, k):
        return [("%s%d" % (name, i), "%s%d" % (name, (i + 1) % k))
                for i in range(k)]

    def chain(name, start, n, end):
        stops = [start] + ["%s%d" % (name, i) for i in range(1, n)] + [end]
        return list(zip(stops, stops[1:]))

    for k in (2, 3, 4):
        for tin, tout in ((1, 1), (3, 2)):
            for leave in (0, k - 1):
                add(chain("i", "i0", tin, "c0") + cycle("c", k)
                    + chain("o", "c%d" % leave, tout, "end"))
    for k1, m, k2 in ((2, 1, 2), (3, 4, 2), (2, 3, 3)):
        add(cycle("c", k1) + chain("m", "c0", m, "d0") + cycle("d", k2))
    for n in (5, 9):
        add(chain("v", "v0", n, "v%d" % n))
        add(chain("v", "v0", n, "v%d" % n) + [("v0", "v%d" % n)])
        add(chain("v", "v0", n, "v%d" % n) + [("v1", "v%d" % (n - 1))])
    return quivers


def test_semi_commutativity_matches_the_pumping_window(square_zero_chain):
    # the differential inputs (the corpus among them), the
    # radical-square-zero chains and cycles, and square-zero quivers with
    # several strongly connected components in a row; on an n-cycle the
    # table holds the paths of length <= 2, which split no pair, while e_x
    # and the length-n path around do, so a path past the bound decides
    inputs = differential_quivers()
    for n in range(3, 31):
        for cycle in (False, True):
            with open(square_zero_chain(n, cycle=cycle)) as fh:
                inputs.append(parse(fh.read()))
    inputs += component_order_quivers()
    outcomes = collections.Counter()
    for k, q in enumerate(inputs):
        t = enumerate_paths(q)
        got = algebra_properties(t).semi_commutative
        assert got == pumped_semi_commutative(t), k
        outcomes[got, flag_scan_semi_commutative(t)] += 1
    # (flag, flag scan alone): False beside True is a path past the bound
    assert outcomes == {(True, True): 257, (False, False): 171,
                        (False, True): 97}


# ---------------------------------------------------------------------------
# boundary of boundary from face identities against the column check


def accepts(check, arg):
    try:
        check(arg)
    except AssertionError:
        return False
    return True


def test_face_identity_check_agrees_with_the_column_check():
    rng = random.Random(SEED + 16)
    outcomes = collections.Counter()
    for k, q in enumerate(differential_quivers()):
        t = enumerate_paths(q)
        cx = build_complex(t, natural_homotopy_classes(t))
        face_rows = [cx.faces]
        a = find_semi_normed_basis(t) if q.is_acyclic() else None
        if a is not None and a.ok:
            face_rows.append(simplicial_complex(a).faces)
        for faces in face_rows:
            check_faces_square_zero(faces)
            check_square_zero(face_columns(faces))
            if len(faces) < 3:
                continue
            # corrupt one face of one cell: a wrong index, or two faces
            # swapped (of equal parity the column does not change)
            n = rng.randrange(2, len(faces))
            bad = [None] + [list(layer) for layer in faces[1:]]
            c = rng.randrange(len(bad[n]))
            row = list(bad[n][c])
            i, j = rng.sample(range(n + 1), 2)
            if rng.random() < 0.5:
                row[i], row[j] = row[j], row[i]
            else:
                row[i] = rng.randrange(len(bad[n - 1]))
            bad[n][c] = tuple(row)
            got = accepts(check_faces_square_zero, bad)
            assert got == accepts(check_square_zero, face_columns(bad)), k
            outcomes[got] += 1
    assert outcomes == {True: 83, False: 250}


def mutated_faces(rng, faces, move):
    """A copy of the face rows with one face of one cell changed: another
    index put in its place, or two faces of equal parity swapped."""
    n = rng.randrange(2, len(faces))
    bad = [None] + [list(layer) for layer in faces[1:]]
    c = rng.randrange(len(bad[n]))
    row = list(bad[n][c])
    if move == "replace":
        row[rng.randrange(n + 1)] = rng.randrange(len(bad[n - 1]))
    else:
        i, j = rng.choice([(i, j) for i in range(n + 1)
                           for j in range(i + 2, n + 1, 2)])
        row[i], row[j] = row[j], row[i]
    bad[n][c] = tuple(row)
    return bad


def test_face_check_by_layers_matches_the_rowwise_oracle(comm_grid):
    rng = random.Random(SEED + 28)
    quivers = differential_quivers()
    quivers += [parse(open(comm_grid(n)).read()) for n in (4, 5)]
    outcomes = collections.Counter()
    for k, q in enumerate(quivers):
        t = enumerate_paths(q)
        face_rows = [build_complex(t, classes).faces for classes in
                     (natural_homotopy_classes(t), walk_homotopy_classes(t))]
        a = find_semi_normed_basis(t) if q.is_acyclic() else None
        if a is not None and a.ok:
            face_rows.append(simplicial_complex(a).faces)
        for faces in face_rows:
            check_faces_square_zero(faces)
            rowwise_faces_square_zero(faces)
            if len(faces) < 3:
                continue
            for move in ("replace", "swap") * 2:
                bad = mutated_faces(rng, faces, move)
                got = accepts(check_faces_square_zero, bad)
                assert got == accepts(rowwise_faces_square_zero, bad), k
                outcomes[move, got] += 1
    # an equal-parity swap keeps the boundary column, so it is accepted
    # though it breaks the identities
    assert outcomes == {("replace", False): 856, ("replace", True): 178,
                        ("swap", True): 1034}


# ---------------------------------------------------------------------------
# the semi-normed verifier against the per-product dense solve


def semi_normed_facts(algebra):
    if not algebra.ok:
        return False, algebra.witnesses
    return True, algebra.basis, algebra.product


WITNESS_KINDS = ("for dimension", "linearly dependent", "expands with")


def random_user_basis(rng, table):
    """The arrows, then per vertex pair random longer nonzero paths, about
    as many as the pair's dimension asks for, in shuffled order."""
    q = table.quiver
    basis = [q.path([a.name]) for a in q.arrows]
    for (x, y), idxs in table.pair_paths.items():
        longer = [table.paths[i] for i in idxs
                  if len(table.paths[i]) > 1 and i not in table.in_ideal]
        held = sum(1 for a in q.arrows if (a.source, a.target) == (x, y))
        want = table.dims[(x, y)] - held - (x == y) + rng.choice(
            [-1, 0, 0, 0, 0, 1])
        basis += rng.sample(longer, max(0, min(want, len(longer))))
    rng.shuffle(basis)
    return basis


def test_semi_normed_verifier_matches_the_dense_solve_oracle(comm_grid):
    rng = random.Random(SEED + 7)
    quivers = [q for q in differential_quivers() if q.is_acyclic()]
    quivers.append(parse(open(comm_grid(4)).read()))
    outcomes = collections.Counter()
    for q in quivers:
        t = enumerate_paths(q)
        nat = natural_homotopy_classes(t)
        reps = [nat.class_rep[cid] for cid in nat.one_cell_classes()]
        found = find_semi_normed_basis(t, nat)
        assert (semi_normed_facts(found)
                == semi_normed_facts(dense_semi_normed_basis(t, nat, reps)))
        user = random_user_basis(rng, t)
        got = verify_semi_normed_basis(t, user, nat)
        assert (semi_normed_facts(got)
                == semi_normed_facts(dense_semi_normed_basis(t, nat, user)))
        for a in (found, got):
            outcomes["ok"] += a.ok
            for w in () if a.ok else a.witnesses:
                outcomes.update(k for k in WITNESS_KINDS if k in w)
    assert len(quivers) == 18 + 240 + 2 * (14 + 4) + 1 + 1
    # the user bases reach every verdict: counts off, images dependent,
    # a product with several basis terms
    assert outcomes["ok"] > 400
    assert all(outcomes[k] for k in WITNESS_KINDS)


def partition(table, groups):
    """The class table of a partition of the table's path indices."""
    parent = list(range(len(table.paths)))
    for members in groups:
        for i in members:
            parent[i] = members[0]
    return PathClassTable(table, "natural", parent)


PRE_CHECK_KINDS = ("duplicate basis path", "lies in the ideal",
                   "missing from the basis")


def perturbed_user_basis(rng, table):
    """A `random_user_basis`, at times with a path given twice, a path in
    the ideal (a zero path of the table or one past its bound) or an
    arrow left out, so that every pre-check of the verifier fires."""
    q = table.quiver
    basis = random_user_basis(rng, table)
    move = rng.randrange(8)
    if move == 0:
        basis.append(rng.choice(basis))
    elif move == 1 and table.in_ideal:
        basis.append(table.paths[rng.choice(sorted(table.in_ideal))])
    elif move == 2:
        longest = [p for p in table.paths if len(p) == table.bound]
        beyond = [compose(p, q.path([a.name])) for p in longest
                  for a in q.arrows_from[p.target]]
        if beyond:
            basis.insert(rng.randrange(len(basis) + 1), rng.choice(beyond))
    elif move == 3:
        basis.remove(q.path([rng.choice(q.arrows).name]))
    return basis


def reduced_pairs(table, paths):
    """The vertex pairs of nonzero, distinct basis paths whose count fits
    the dimension and that hold a tip: the pairs whose slice the builder
    reduces."""
    held = collections.defaultdict(list)
    for p in paths:
        held[p.source, p.target].append(table.position(p))
    return [pair for pair, dim in table.dims.items()
            if len(held[pair]) + (pair[0] == pair[1]) == dim
            and any(i in table.ideal_rows.get(pair, {}) for i in held[pair])]


def test_semi_normed_builder_matches_the_reducing_oracle(comm_grid,
                                                         monkeypatch):
    """The builder gives the answer of the verifier that reduced every
    vertex pair, on the finder's candidates from four partitions and on
    seeded user bases, and eliminates once on each pair whose count fits
    and that holds a tip candidate, so never on natural classes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return extend_rref(*args)

    monkeypatch.setattr(algcohom, "extend_rref", counted)
    rng = random.Random(SEED + 19)
    quivers = [q for q in differential_quivers() if q.is_acyclic()]
    quivers += [parse(open(comm_grid(n)).read()) for n in (4, 5, 6)]
    # user bases on all but the 5x5 and 6x6 grids, where the oracle's
    # elimination of every pair of a random basis takes seconds
    users = len(quivers) - 2
    outcomes = collections.Counter()
    for n, q in enumerate(quivers):
        t = enumerate_paths(q)
        nat = natural_homotopy_classes(t)

        def pair(i):
            return t.paths[i].source, t.paths[i].target

        def is_tip(i):
            return i in t.ideal_rows.get(pair(i), {})

        groups = [list(m) for m in nat.class_members]
        # finer: a nonzero tip split off its class, so that it becomes the
        # representative of a class of its own
        finer = None
        for k, members in enumerate(groups):
            tips = [i for i in members if is_tip(i) and i not in t.in_ideal]
            if tips:
                rest = [i for i in members if i != tips[0]]
                finer = groups[:k] + [rest, tips[:1]] + groups[k + 1:]
                break
        # reordered: a zero path joins the class of the last of two later
        # representatives of its pair, so that class comes first
        reordered = None
        reps = [nat.class_rep[cid] for cid in nat.one_cell_classes()]
        for z in sorted(t.in_ideal):
            later = [t.position(p) for p in reps
                     if pair(t.position(p)) == pair(z) and t.position(p) > z]
            if len(later) >= 2:
                reordered = [[i for i in m if i != z] for m in groups]
                reordered = [m + [z] if later[-1] in m else m
                             for m in reordered if m]
                break
        # split: every normal word in a class of its own, the tips kept
        # with the least normal word of their class, so that the counts fit
        split = []
        for members in groups:
            normal = [i for i in members
                      if not is_tip(i) and i not in t.in_ideal]
            split.append([i for i in members if i not in normal[1:]])
            split += [[i] for i in normal[1:]]
        if len(split) == len(groups):
            split = None
        for kind, classes in (("natural", nat),
                              ("finer", finer and partition(t, finer)),
                              ("reordered",
                               reordered and partition(t, reordered)),
                              ("split", split and partition(t, split))):
            if classes is None:
                continue
            reps = [classes.class_rep[cid]
                    for cid in classes.one_cell_classes()]
            calls.clear()
            found = find_semi_normed_basis(t, classes)
            assert len(calls) == len(reduced_pairs(t, reps)), kind
            if kind == "natural":
                assert not calls
            assert (semi_normed_facts(found) == semi_normed_facts(
                reducing_semi_normed_basis(t, reps, classes))), kind
            outcomes[kind, found.ok] += 1
            if any(is_tip(t.position(p)) for p in reps):
                outcomes[kind, "tipped"] += 1
        for _ in range(4 if n < users else 0):
            user = perturbed_user_basis(rng, t)
            calls.clear()
            got = verify_semi_normed_basis(t, user, nat)
            expected = reducing_semi_normed_basis(t, user, nat)
            assert semi_normed_facts(got) == semi_normed_facts(expected)
            witnesses = () if got.ok else got.witnesses
            kinds = {k for w in witnesses
                     for k in PRE_CHECK_KINDS + WITNESS_KINDS if k in w}
            assert len(calls) == (0 if kinds & set(PRE_CHECK_KINDS)
                                  else len(reduced_pairs(t, user)))
            outcomes["user", got.ok] += 1
            outcomes.update(("user", k) for k in kinds)
    assert len(quivers) == 295 + 3
    # natural classes fail only on counts, never on a tip; a split leaves
    # two-term tips, which fail on a product
    assert {k: n for k, n in outcomes.items() if k[0] != "user"} == {
        ("natural", True): 278, ("natural", False): 20,
        ("finer", False): 88, ("finer", "tipped"): 88,
        ("reordered", True): 8, ("split", False): 20}
    # the user bases reach every verdict and every witness
    assert outcomes["user", True] + outcomes["user", False] == 4 * users
    assert outcomes["user", True] and outcomes["user", False]
    assert all(outcomes["user", k] for k in PRE_CHECK_KINDS + WITNESS_KINDS)


# ---------------------------------------------------------------------------
# epsilon's induced ranks from HC/eps(SC) against the cocycle images


def test_epsilon_mu_ranks_match_the_cocycle_image_oracle(comm_grid):
    quivers = [q for q in differential_quivers() if q.is_acyclic()]
    quivers.append(parse(open(comm_grid(4)).read()))
    checked = collections.Counter()
    for q in quivers:
        a = find_semi_normed_basis(enumerate_paths(q))
        if not a.ok:
            continue
        sc = simplicial_complex(a)
        for field in ("Q", "Fp:2"):
            try:
                hc = HochschildComplex(a, field)
                rep = epsilon_mu(a, sc, hc)
            except ValueError as e:
                # p divides a structure constant's numerator or denominator
                assert "does not reduce mod 2" in str(e)
                continue
            assert ((rep.degrees, rep.iso)
                    == cocycle_image_degrees(sc, hc, rep.eps))
            checked[field, rep.iso] += 1
    assert checked == {("Q", True): 99, ("Q", False): 177,
                       ("Fp:2", True): 86, ("Fp:2", False): 173}


# ---------------------------------------------------------------------------
# the checks at the cost of the algebra against the whole-complex checks


def test_algebra_checks_match_the_whole_complex_oracles(comm_grid):
    # HC passed the associativity certificate, so its columns square to
    # zero; the one-pass epsilon/mu flags equal the commuting squares, and
    # the identities read off counts equal the column-by-column products
    quivers = [q for q in differential_quivers() if q.is_acyclic()]
    grids = [parse(open(comm_grid(4)).read())]
    checked = collections.Counter()
    for k, q in enumerate(quivers + grids):
        a = find_semi_normed_basis(enumerate_paths(q))
        if not a.ok:
            continue
        sc = simplicial_complex(a)
        for field in ("Q", "Fp:2", "Fp:3"):
            try:
                hc = HochschildComplex(a, field)
                rep = epsilon_mu(a, sc, hc)
            except ValueError:
                continue  # p divides a structure constant
            check_square_zero(hc.columns, hc.field)
            flags = rep.eps_cochain_map, rep.mu_cochain_map
            assert flags == commuting_squares(sc, hc, rep.eps, rep.mu), k
            inverse = _is_inverse
            assert (rep.mu_eps_identity, rep.eps_mu_identity) == (
                all(inverse(rep.eps[n], rep.mu[n], hc.field) for n in rep.eps),
                all(inverse(rep.mu[n], rep.eps[n], hc.field) for n in rep.eps)
            ), k
            checked[field, "grid" if k >= len(quivers) else "dq", flags] += 1
    assert checked == {("Q", "dq", (True, True)): 239,
                       ("Q", "dq", (True, False)): 36,
                       ("Fp:3", "dq", (True, True)): 227,
                       ("Fp:3", "dq", (True, False)): 36,
                       ("Fp:2", "dq", (True, True)): 225,
                       ("Fp:2", "dq", (True, False)): 34,
                       ("Q", "grid", (True, True)): 1}


def test_position_maps_match_the_column_maps(comm_grid):
    # phi, psi and phi-sharp as positions against the 0/1 columns they were
    # kept as: each position is the one key of its column, and the flags
    # and kernel ranks agree; the face-row cup product of SC against the
    # one that sliced each tuple's key
    quivers = [q for q in differential_quivers() if q.is_acyclic()]
    quivers.append(parse(open(comm_grid(4)).read()))
    rng = random.Random(SEED + 25)
    checked = collections.Counter()
    for q in quivers:
        t = enumerate_paths(q)
        a = find_semi_normed_basis(t)
        if not a.ok:
            continue
        nat = build_complex(t, a.classes)
        tot = build_complex(t, walk_homotopy_classes(t))
        got = phi_psi_maps(a, nat, tot)
        want = column_phi_psi_maps(a, nat, tot)
        for name in ("phi", "psi", "phi_sharp"):
            cols, positions = getattr(want, name), getattr(got, name)
            assert cols.keys() == positions.keys()
            for n, layer in cols.items():
                assert all(set(col.values()) <= {1} and len(col) <= 1
                           for col in layer)
                assert positions[n] == [next(iter(col), None)
                                        for col in layer]
        flags = [(getattr(got, f), getattr(want, f)) for f in (
            "phi_chain_map", "psi_chain_map", "iso", "sharp_chain_map",
            "sharp_epi", "kernel_ranks")]
        assert all(x == y for x, y in flags)
        sc = simplicial_complex(a)
        for p, deg in itertools.product(range(4), repeat=2):
            if p + deg > min(3, sc.top_dim()):
                continue
            f = {key: rng.randint(-2, 2) for key in sc.keys[p]}
            g = {key: rng.randint(-2, 2) for key in sc.keys[deg]}
            assert cup_product(sc, p, f, deg, g) == sc_cup(sc, p, f, deg, g)
            checked["cup"] += 1
        checked[tuple(x for x, _ in flags[:5])] += 1
    # every input has all five flags true: the false branches are pinned
    # by the perturbed-position test
    assert checked == {(True,) * 5: 276, "cup": 1536}


def test_associativity_certificate_matches_the_square_zero_oracle():
    # scale one structure constant of two non-identity elements: HC is
    # refused exactly when the columns the formula gives for that table
    # (built by the unchecked oracle) fail to square to zero
    rng = random.Random(SEED + 21)
    outcomes = collections.Counter()
    for q in differential_quivers():
        if not q.is_acyclic():
            continue
        a = find_semi_normed_basis(enumerate_paths(q))
        if not a.ok:
            continue
        pairs = [key for key, step in a.product.items()
                 if step is not None and key[0] in a.non_identity
                 and key[1] in a.non_identity]
        if not pairs:
            continue
        key = rng.choice(pairs)
        lam, b = a.product[key]
        a.product[key] = (QQ.of(lam * rng.choice([2, -1, Fraction(1, 3)])),
                          b)
        accepted = accepts(lambda alg: HochschildComplex(alg, "Q"), a)
        F, _, columns = walked_hochschild(a, "Q")
        assert accepts(lambda cols: check_square_zero(cols, F),
                       columns) == accepted
        outcomes[accepted] += 1
    assert outcomes == {True: 103, False: 52}


# ---------------------------------------------------------------------------
# each complex ranked top-down with clearing against every matrix ranked
# on its own


def cleared_and_per_matrix(compute):
    """compute() as the library runs it, then again with every complex
    ranked matrix by matrix through the oracles."""
    cleared = compute()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cellular, "_ranked", per_matrix_ranked)
        return cleared, compute()


def test_clearing_matches_the_per_matrix_oracle(comm_grid, monkeypatch):
    skipped = collections.Counter()

    def counted_rank(vectors, field, skip=(), pivots=None):
        skipped["rank"] += len(skip)
        return rank(vectors, field, skip, pivots)

    def counted_smith(columns, skip=(), pivots=None):
        skipped["smith"] += len(skip)
        return smith_divisors(columns, skip, pivots)

    monkeypatch.setattr(cellular, "rank", counted_rank)
    monkeypatch.setattr(cellular, "smith_divisors", counted_smith)
    quivers = differential_quivers()
    quivers.append(parse(open(comm_grid(4)).read()))
    checked = collections.Counter()
    for q in quivers:
        t = enumerate_paths(q)
        for classes in (natural_homotopy_classes(t), walk_homotopy_classes(t)):
            cx = build_complex(t, classes)
            got, want = cleared_and_per_matrix(lambda: [
                (homology(cx, c), cohomology(cx, c))
                for c in ("Z", "Q", "Fp:2", "Fp:3", "Zmod:4")])
            assert got == want
            checked["cells", any(tors for _, tors in got[0][0].groups)] += 1
        a = find_semi_normed_basis(t) if q.is_acyclic() else None
        if a is None or not a.ok:
            continue
        sc = simplicial_complex(a)
        got, want = cleared_and_per_matrix(
            lambda: (homology(sc, "Z"), cohomology(sc, "Z")))
        assert got == want
        checked["sc"] += 1
        for field in ("Q", "Fp:2", "Fp:3", "Fp:5"):
            try:
                hc = HochschildComplex(a, field)
            except ValueError:
                continue  # p divides a structure constant's denominator

            def ranked():
                try:
                    rows = [(d["sh"], d["hh"], d["rank"])
                            for d in epsilon_mu(a, sc, hc).degrees]
                except ValueError:
                    rows = None  # a structure constant vanishes mod p
                return hc.hh_dims(), rows
            got, want = cleared_and_per_matrix(ranked)
            assert got == want
            checked[field, got[1] is not None] += 1
    # four complexes have torsion in their integral homology (rp2 among
    # them); a structure constant vanishes mod p on the False rows
    assert checked == {("cells", False): 596, ("cells", True): 4, "sc": 276,
                       ("Q", True): 276, ("Fp:2", True): 259,
                       ("Fp:2", False): 6, ("Fp:3", True): 263,
                       ("Fp:3", False): 8, ("Fp:5", True): 272,
                       ("Fp:5", False): 2}
    assert skipped == {"smith": 30368, "rank": 104944}


# ---------------------------------------------------------------------------
# the composable-tuple walk over elements by source vertex against the
# all-pairs walk, and SC as the complex grown from the basis elements
# against the tuples of basis elements


def element_keys(a, sc):
    """SC's keys per degree, each class tuple as the tuple of its classes'
    elements."""
    return [layer if n == 0 else
            [tuple(map(a.members.__getitem__, key)) for key in layer]
            for n, layer in enumerate(sc.keys)]


def labelled_boundaries(keys, columns):
    """{(n, cell): {face: coefficient}} of a complex given by its keys and
    sparse boundary columns."""
    return {(n, keys[n][j]): {keys[n - 1][i]: x for i, x in col.items()}
            for n, cols in columns.items() for j, col in enumerate(cols)}


def matches_walked_simplicial(a):
    """SC relabelled to element tuples has the cells, boundaries and
    integral homology of the all-pairs walk, and each cell's witness is
    the composite of its elements; returns the relabelled keys."""
    sc = simplicial_complex(a)
    keys = element_keys(a, sc)
    words = a.table.words
    assert all(words[w] == sum((words[a.members[cid]] for cid in key), ())
               for n in range(1, len(keys))
               for key, w in zip(sc.keys[n], sc.witnesses[n]))
    tuples, columns = walked_simplicial(a)
    assert keys[:1] + [sorted(layer) for layer in keys[1:]] == tuples
    assert (labelled_boundaries(keys, sc.columns)
            == labelled_boundaries(tuples, columns))
    assert homology(sc, "Z") == homology_of_matrices(
        dict(enumerate(map(len, tuples))), columns, "Z", len(tuples) - 1)
    return keys


def test_sc_grown_from_the_basis_matches_the_walked_tuples(
        comm_grid, bound_caveat_quiver):
    # the found basis, the basis of each class's last nonzero member and
    # three seeded user bases of each acyclic differential input, the 4x4
    # grid and the bound-caveat quiver
    rng = random.Random(SEED + 28)
    quivers = [q for q in differential_quivers() if q.is_acyclic()]
    quivers += [parse(open(path).read())
                for path in (comm_grid(4), bound_caveat_quiver)]
    checked = collections.Counter()
    for q in quivers:
        t = enumerate_paths(q)
        nat = natural_homotopy_classes(t)
        last = [t.paths[max(itertools.filterfalse(
            t.in_ideal.__contains__, nat.class_members[cid]))]
            for cid in nat.one_cell_classes()]
        algebras = [("found", find_semi_normed_basis(t, nat)),
                    ("last", verify_semi_normed_basis(t, last, nat))]
        algebras += [("user", verify_semi_normed_basis(
            t, random_user_basis(rng, t), nat)) for _ in range(3)]
        for kind, a in algebras:
            if not a.ok:
                continue
            keys = matches_walked_simplicial(a)
            checked[kind] += 1
            checked[kind, "cells"] += sum(map(len, keys))
            # a basis with an element other than its class's representative
            moved = any(a.members[cid] != nat.rep_index[cid]
                        for cid in a.members)
            checked[kind, "moved"] += moved
            checked[kind, "caveat"] += bool(nat.caveats) and moved
    assert checked == {"found": 277, ("found", "cells"): 8630,
                       ("found", "moved"): 0, ("found", "caveat"): 0,
                       "last": 277, ("last", "cells"): 8630,
                       ("last", "moved"): 67, ("last", "caveat"): 1,
                       "user": 592, ("user", "cells"): 6052,
                       ("user", "moved"): 39, ("user", "caveat"): 0}


def test_tuple_walk_matches_the_all_pairs_oracle(comm_grid):
    quivers = [q for q in differential_quivers() if q.is_acyclic()]
    quivers.append(parse(open(comm_grid(4)).read()))
    checked = collections.Counter()
    for q in quivers:
        a = find_semi_normed_basis(enumerate_paths(q))
        if not a.ok:
            continue
        sc = simplicial_complex(a)
        keys = matches_walked_simplicial(a)
        for field in ("Q", "Fp:2"):
            try:
                F, bases, columns = walked_hochschild(a, field)
                eps, mu = folded_epsilon_mu(a, keys, bases, F)
            except ValueError as e:
                # p divides a structure constant's numerator or denominator
                with pytest.raises(ValueError) as got:
                    epsilon_mu(a, sc, HochschildComplex(a, field))
                assert str(got.value) == str(e)
                checked[field, "denominator" if "denominator" in str(e)
                        else "vanishes"] += 1
                continue
            hc = HochschildComplex(a, field)
            assert (hc.bases, hc.columns) == (bases, columns)
            rep = epsilon_mu(a, sc, hc)
            assert (rep.eps, rep.mu) == (eps, mu)
            checked[field, "equal"] += 1
    assert checked == {("Q", "equal"): 276, ("Fp:2", "equal"): 259,
                       ("Fp:2", "denominator"): 11, ("Fp:2", "vanishes"): 6}


# ---------------------------------------------------------------------------
# int-first rationals against the all-Fraction oracle


def int_first(x):
    """Whether x is a rational in int-first form: an int, or a Fraction
    whose denominator is not 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def random_rational_rows(rng):
    """(sparse rows, width): integer and fractional entries, integral
    Fractions among them, and empty rows."""
    values = [1, -1, 2, -3, 6, Fraction(4, 2), Fraction(1, 2),
              Fraction(-3, 2), Fraction(2, 3), Fraction(-5, 4)]
    ncols = rng.randint(1, 8)
    rows = [{j: rng.choice(values) for j in range(ncols)
             if rng.random() < 0.5} for _ in range(rng.randint(1, 8))]
    return rows, ncols


def test_int_first_elimination_matches_the_all_fraction_oracle():
    rng = random.Random(SEED + 7)
    cut = random.Random(SEED + 8)
    fractional = 0
    for _ in range(300):
        rows, ncols = random_rational_rows(rng)
        want = sparse_rref(rows, FRACTIONS)
        got = sparse_rref(rows, QQ)
        assert got == want
        entries = [x for _, row in got for x in row.values()]
        assert all(int_first(x) for x in entries)
        fractional += any(type(x) is Fraction for x in entries)
        # both against the dense column-by-column elimination
        dense = [[Fraction(row.get(j, 0)) for j in range(ncols)]
                 for row in rows]
        m, pivots = dense_rref(dense, FRACTIONS)
        assert [c for c, _ in got] == pivots
        assert [[row.get(j, 0) for j in range(ncols)]
                for _, row in got] == m[:len(pivots)]
        # the same form grown in two steps
        k = cut.randint(0, len(rows))
        grown = {}
        extend_rref(grown, rows[:k])
        extend_rref(grown, rows[k:])
        assert sorted(grown.items()) == want
        assert all(int_first(x) for row in grown.values()
                   for x in row.values())
        for vectors in (rows, sparse_transpose(rows, ncols)):
            assert (rank(vectors, QQ) == rank(vectors, FRACTIONS)
                    == len(pivots))
    assert fractional > 100


def test_int_first_ranks_of_path_table_slices_match_the_all_fraction_oracle():
    # the slices themselves are checked against the rebuild-per-bound
    # oracle, which reduces with all-Fraction arithmetic; ranking their
    # columns pivots on non-unit entries
    ranked = 0
    for q in differential_quivers():
        t = enumerate_paths(q)
        for pair, rows in local_rows(t).items():
            columns = sparse_transpose(rows, len(t.pair_paths[pair]))
            assert (rank(columns, QQ) == rank(columns, FRACTIONS)
                    == len(rows))
            ranked += len(rows) > 1
    assert ranked > 100


def test_vector_membership_matches_extending_a_copy_of_the_slice():
    # the pivot-lookup reduction of `vector_in_ideal` against the copy of
    # the slice's basis it extended before: in the span exactly when the
    # vector adds no pivot
    rng = random.Random(SEED + 9)
    outcomes = collections.Counter()
    for q in differential_quivers():
        t = enumerate_paths(q)
        for pair, rows in local_rows(t).items():
            paths = paths_between(t, *pair)
            for _ in range(3):
                vec = {}
                for row in rows:
                    c = rng.randint(-2, 2)
                    for k, x in row.items():
                        vec[k] = vec.get(k, 0) + c * x
                if rng.random() < 0.5:
                    k = rng.randrange(len(paths))
                    vec[k] = vec.get(k, 0) + Fraction(1, rng.randint(1, 3))
                basis = dict(sparse_rref(rows))
                extend_rref(basis, [vec])
                want = len(basis) == len(rows)
                got = t.vector_in_ideal([(paths[k], c)
                                         for k, c in vec.items()])
                assert got == want
                outcomes[want] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


STORED = ("relations", "ideal rows", "structure constants",
          "hochschild columns", "eps/mu")

# a square commuting up to written fractions, one of them integral
FRACTIONAL_SQUARE = """\
arrow a 1 2
arrow b 2 4
arrow c 1 3
arrow d 3 4
rel 4/2*a*b - 3/6*c*d
"""


def stored_rationals(q):
    """{kind: the Q entries the library stores for q}: its relations'
    coefficients, its path table's ideal rows and, when it has a
    semi-normed basis, its structure constants, Hochschild differential
    and eps/mu columns."""
    t = enumerate_paths(q)
    out = {"relations": [c for rel in q.relations for _, c in rel.terms],
           "ideal rows": [x for rows in t.ideal_rows.values()
                          for row in rows.values() for x in row.values()]}
    if not q.is_acyclic():
        return out
    a = find_semi_normed_basis(t)
    if not a.ok:
        return out
    hc = HochschildComplex(a, "Q")
    rep = epsilon_mu(a, simplicial_complex(a), hc)
    out["structure constants"] = [step[0] for step in a.product.values()
                                  if step is not None]
    out["hochschild columns"] = [x for cols in hc.columns.values()
                                 for col in cols for x in col.values()]
    out["eps/mu"] = [x for maps in (rep.eps, rep.mu)
                     for cols in maps.values()
                     for col in cols for x in col.values()]
    return out


def test_stored_rationals_are_int_first(comm_grid):
    seen = collections.Counter()
    quivers = differential_quivers() + [parse(open(comm_grid(3)).read()),
                                        parse(FRACTIONAL_SQUARE)]
    for q in quivers:
        for kind, entries in stored_rationals(q).items():
            assert all(int_first(x) for x in entries), kind
            for x in entries:
                seen[kind, type(x)] += 1
    # every kind holds both forms somewhere, so no check is vacuous
    assert all(seen[kind, form] for kind in STORED for form in (int, Fraction))



# ---------------------------------------------------------------------------
# van Kampen pieces from the parent table, and Tietze with each relator
# canonicalised once, against the re-enumerated pieces and the rounds


def vertex_splits(rng, vertices):
    """(V1, V2) pairs: every cover of up to 6 vertices by two pieces
    (each vertex in V1, V2 or both), otherwise 40 seeded random ones and
    each vertex against the whole quiver; plus one split that leaves the
    first vertex out."""
    n = len(vertices)
    if n <= 6:
        assigns = list(itertools.product((0, 1, 2), repeat=n))
    else:
        assigns = [tuple(rng.randrange(3) for _ in vertices)
                   for _ in range(40)]
        assigns += [tuple(0 if j == i else 2 for j in range(n))
                    for i in range(n)]
    splits = [([v for v, a in zip(vertices, assign) if a != 1],
               [v for v, a in zip(vertices, assign) if a != 0])
              for assign in assigns]
    return splits + [(vertices[1:], vertices[1:])]


# the kinds of HypothesisViolated text, each counted apart
VIOLATIONS = ("do not cover", "empty intersection", "not convex",
              "neither piece", "not connected")


def pushout_or_error(pushout, table, v1, v2):
    try:
        return pushout(table, v1, v2)
    except HypothesisViolated as e:
        return str(e)


def test_pushout_pieces_match_the_reenumerated_oracle():
    rng = random.Random(SEED + 14)
    outcomes = collections.Counter()
    for q in differential_quivers():
        t = enumerate_paths(q)
        for v1, v2 in vertex_splits(rng, list(q.vertices)):
            got = pushout_or_error(van_kampen_pushout, t, v1, v2)
            assert got == pushout_or_error(reenumerated_pushout, t, v1, v2)
            if isinstance(got, str):
                (kind,) = [k for k in VIOLATIONS if k in got]
                outcomes[kind] += 1
            else:
                outcomes["pushout"] += 1
    assert outcomes == {"pushout": 7894, "not convex": 33120,
                        "neither piece": 7873, "empty intersection": 6441,
                        "not connected": 2165, "do not cover": 299}


def random_presentation(rng):
    """Up to five generators and eight relators of length up to 24, with
    rotations and inverses of earlier relators and short ones among them."""
    gens = tuple("g%d" % i for i in range(rng.randint(1, 5)))
    rels = []
    for _ in range(rng.randint(0, 8)):
        if rels and rng.random() < 0.3:
            w = rng.choice(rels)
            k = rng.randrange(len(w) + 1)
            w = w[k:] + w[:k]
            rels.append(w if rng.random() < 0.5 else tuple(
                (g, -s) for g, s in reversed(w)))
        else:
            length = rng.choice([0, 1, 2, 2, 3, 5, 8, 17, 20, 24])
            rels.append(tuple((rng.choice(gens), rng.choice((1, -1)))
                              for _ in range(length)))
    return Presentation(gens, tuple(rels))


def opening_run_presentation(rng):
    """A `random_presentation` whose relators follow a leading run of
    one-letter relators, like a spanning tree's; in half of the runs a
    letter of the run comes again, repeated or inverted, at a random
    place in it."""
    pres = random_presentation(rng)
    run = rng.sample(pres.generators, rng.randint(1, len(pres.generators)))
    rels = [((g, rng.choice((1, -1))),) for g in run]
    if rng.random() < 0.5:
        k = rng.randrange(len(rels))
        (g, e), = rels[k]
        rels.insert(rng.randint(k + 1, len(rels)),
                    ((g, rng.choice((e, -e))),))
    return Presentation(pres.generators, tuple(rels) + pres.relators)


def tietze_outcomes(presentations):
    """Checks `_tietze` against the rounds oracle on each presentation and
    counts those with a duplicate short input relator, an eliminated
    generator and a long relator left."""
    outcomes = collections.Counter()
    for p in presentations:
        got = _tietze(p)
        assert got == rounds_tietze(p)
        keys = [rotation_canonical(r) for r in p.relators if len(r) <= 16]
        outcomes["duplicates"] += len(set(keys)) < len(keys)
        outcomes["eliminated"] += bool(got[1])
        outcomes["long"] += any(len(r) > 16 for r in got[0].relators)
    return outcomes


def test_tietze_matches_the_rounds_oracle():
    # the presentations with a relator per co-member, as pi1 listed them
    # before it kept only the joins, then the joins' presentations
    every, joins = [], []
    for q in differential_quivers():
        t = enumerate_paths(q)
        vs = q.vertices
        forest = _spanning_forest(q)
        every.append(all_component_presentation(t, q, forest, vs[0]))
        joins.append(_presentation(t, q, forest, vs[0], _closure(t)[1]))
        for v in (vs[0], vs[len(vs) // 2], vs[-1]):
            every.append(all_component_presentation(
                t, q, spanning_tree(q, v)[0], v))
            joins.append(pi1_presentation(t, base=v))
    rng = random.Random(SEED + 15)
    randoms = [random_presentation(rng) for _ in range(3000)]
    assert len(every) == len(joins) == 4 * 299
    assert tietze_outcomes(every + randoms) == {
        "duplicates": 1409, "eliminated": 2916, "long": 242}
    assert tietze_outcomes(joins) == {
        "duplicates": 4, "eliminated": 1188, "long": 0}
    rng = random.Random(SEED + 16)
    assert tietze_outcomes(
        opening_run_presentation(rng) for _ in range(3000)) == {
            "duplicates": 2292, "eliminated": 3000, "long": 4}
