"""Cell complexes, cellular (co)homology, cup products."""

import collections
import contextlib
import copy
import io
import os
import pathlib
import random
import subprocess
import sys

import pytest

from bqtop import cli
from bqtop import complex as cellular
from bqtop.algcohom import find_semi_normed_basis, simplicial_complex
from bqtop.complex import (CellComplex, build_complex, coboundary,
                           cohomology, cohomology_of_matrices, cup_product,
                           euler_characteristic, homology,
                           homology_of_matrices, sparse_column)
from bqtop.core import BoundQuiver, enumerate_paths
from bqtop.dsl import parse
from bqtop.homotopy import (abelianization, natural_homotopy_classes,
                            pi1_presentation, walk_homotopy_classes)
from bqtop.linalg import mat_mul, rank, smith_divisors
from oracles import check_square_zero, load_bench_workloads


def bq(vertices, arrows, rels=()):
    return BoundQuiver(vertices, arrows, rels)


def complexes(quiver, walk=False):
    t = enumerate_paths(quiver)
    classes = (walk_homotopy_classes(t) if walk
               else natural_homotopy_classes(t))
    return t, build_complex(t, classes)


EX1 = bq(["1", "2", "3"],
         [("alpha", "2", "1"), ("beta", "3", "2"), ("gamma", "3", "2")],
         [[(["beta", "alpha"], 1), (["gamma", "alpha"], -1)]])

EX3 = bq(["1", "2", "3", "4", "5", "6"],
         [("alpha", "6", "5"),
          ("beta1", "5", "2"), ("beta2", "5", "3"), ("beta3", "5", "4"),
          ("gamma1", "2", "1"), ("gamma2", "3", "1"), ("gamma3", "4", "1")],
         [[(["alpha", "beta1"], 1)],
          [(["beta1", "gamma1"], 1), (["beta2", "gamma2"], 1),
           (["beta3", "gamma3"], 1)]])

NOSN = bq(["x1", "x2", "x3"],
          [("a1", "x1", "x2"), ("b1", "x1", "x2"),
           ("a2", "x2", "x3"), ("b2", "x2", "x3")],
          [[(["a1", "b2"], 1), (["b1", "b2"], 1), (["b1", "a2"], -1)],
           [(["a1", "a2"], 1), (["b1", "a2"], 1), (["b1", "b2"], -1)]])

RP2 = bq(["1", "2", "3"],
         [("alpha1", "3", "2"), ("beta1", "3", "2"),
          ("alpha2", "2", "1"), ("beta2", "2", "1")],
         [[(["alpha1", "alpha2"], 1), (["beta1", "beta2"], -1)],
          [(["alpha1", "beta2"], 1), (["beta1", "alpha2"], -1)]])


def test_ex1_counts_and_homology():
    _, c = complexes(EX1)
    assert c.counts() == [3, 4, 2]
    assert homology(c, "Z").groups == ((1, ()), (0, ()), (0, ()))
    _, cw = complexes(EX1, walk=True)
    assert cw.counts() == [3, 3, 1]
    assert homology(cw, "Z").groups == ((1, ()), (0, ()), (0, ()))


def test_ex3_cells():
    _, c = complexes(EX3)
    assert c.counts() == [6, 11, 8, 2]
    assert euler_characteristic(c) == 1
    h = homology(c, "Z")
    assert h.groups == ((1, ()), (0, ()), (0, ()), (0, ()))
    _, cw = complexes(EX3, walk=True)
    assert cw.counts() == [6, 11, 8, 2]


def test_ex3_h1_matches_pi1():
    t, c = complexes(EX3)
    h = homology(c, "Z")
    ab = abelianization(pi1_presentation(t))
    assert (h.groups[1][0], list(h.groups[1][1])) == (ab[0], list(ab[1]))


def test_boundary_squares_to_zero():
    for q in (EX1, EX3, NOSN, RP2):
        _, c = complexes(q)
        for n in range(2, c.top_dim() + 1):
            prod = mat_mul(c.boundary(n - 1), c.boundary(n))
            assert all(all(x == 0 for x in row) for row in prod)


def test_corrupted_face_fails_the_boundary_check():
    t, c = complexes(EX3)
    faces = [None] + [list(layer) for layer in c.faces[1:]]
    # the first face of a 2-cell (c1, c2) is c2, from y to z; putting the
    # last face c1 (x to y) there leaves 2y - x - z as the boundary of its
    # boundary, nonzero as the quiver is acyclic
    _, f1, f2 = faces[2][0]
    faces[2][0] = (f2, f1, f2)
    CellComplex(t, c.classes, c.keys, c.witnesses, c.faces)
    with pytest.raises(AssertionError, match="boundary of boundary"):
        CellComplex(t, c.classes, c.keys, c.witnesses, faces)


def test_a_face_outside_the_complex_fails_the_closure_check():
    t, c = complexes(EX3)
    classes = copy.copy(c.classes)
    # every composite of two arrows sent to the class of a stationary
    # path, whose 1-tuple is no 1-cell: every 2-cell's middle face is lost
    classes.class_of_index = [classes.class_of_index[0] if len(w) == 2
                              else cid for w, cid in
                              zip(t.words, c.classes.class_of_index)]
    with pytest.raises(AssertionError, match="face of a cell must be a cell"):
        build_complex(t, classes)


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CORRUPT_UNDER_O = """
import sys
from bqtop.complex import build_complex, check_faces_square_zero
from bqtop.core import enumerate_paths
from bqtop.dsl import parse
from bqtop.homotopy import natural_homotopy_classes

print("optimize", sys.flags.optimize)
t = enumerate_paths(parse(open(sys.argv[1]).read()))
c = build_complex(t, natural_homotopy_classes(t))
faces = [None] + [list(layer) for layer in c.faces[1:]]
_, f1, f2 = faces[2][0]
faces[2][0] = (f2, f1, f2)
check_faces_square_zero(faces)
"""


def test_corrupted_face_fails_the_boundary_check_under_python_O():
    # -O strips assert statements; the check raises AssertionError itself
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_UNDER_O,
         str(CORPUS / "ex3.bq")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.stdout == "optimize 1\n"
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == (
        "AssertionError: boundary of boundary must vanish")


def test_equal_parity_face_swap_passes_the_boundary_check():
    t, c = complexes(EX3)
    faces = [None] + [list(layer) for layer in c.faces[1:]]
    # d_0 and d_2 of a 2-cell (c1, c2) enter its boundary with sign +1, so
    # swapping them breaks the simplicial identities but not the boundary
    d0, d1, d2 = faces[2][0]
    faces[2][0] = (d2, d1, d0)
    below = [faces[1][f] for f in faces[2][0]]
    assert below[1][0] != below[0][0]     # d_0 d_1 = d_0 d_0 fails
    swapped = CellComplex(t, c.classes, c.keys, c.witnesses, faces)
    assert swapped.columns == c.columns
    check_square_zero(swapped.columns)


def eager_columns(faces):
    """The boundary columns as built before they were built on first
    read: one sparse column per cell from its signed faces."""
    return {n: [sparse_column((f, (-1) ** i) for i, f in enumerate(row))
                for row in faces[n]]
            for n in range(1, len(faces))}


def test_boundary_columns_are_built_on_first_read(monkeypatch, tmp_path):
    built = []

    def recording(*args, **kwargs):
        built.append(build_complex(*args, **kwargs))
        return built[-1]

    # `cells` builds its complex in `cli`, (co)homology in `complex`
    monkeypatch.setattr(cli, "build_complex", recording)
    monkeypatch.setattr(cellular, "build_complex", recording)
    src = tmp_path / "rp2.bq"
    src.write_text((CORPUS / "rp2.bq").read_text())
    for argv in (["cells", str(src)], ["dot", "--skeleton", str(src)],
                 ["homology", str(src)], ["cohomology", str(src)]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    # `dot --skeleton` reads the 1-cells off the classes, with no complex,
    # and (co)homology ranks the face rows
    cells, hom, cohom = built
    for cx in (cells, hom, cohom):
        assert "columns" not in cx.__dict__
        assert "cell_index" not in cx.__dict__
        assert cx.columns == eager_columns(cx.faces)
    t = enumerate_paths(parse(src.read_text()))
    cx = build_complex(t, natural_homotopy_classes(t))
    for coeff in ("Z", "Q", "Fp:2", "Zmod:4"):
        homology(cx, coeff)
        cohomology(cx, coeff)
    assert "columns" not in cx.__dict__
    assert cx.columns == eager_columns(cx.faces)


def test_homology_ranks_every_complex_off_its_face_rows(comm_grid,
                                                       monkeypatch):
    # the natural, walk and simplicial complexes over Z, fields and Z/4:
    # each boundary column the ranking keeps is read off its face row
    # once, a cleared one never, and `columns` is not built
    calls, reads = [], collections.defaultdict(list)

    def counted_smith(columns, skip=(), pivots=None):
        calls.append((columns, skip))
        return smith_divisors(columns, skip, pivots)

    def counted_rank(vectors, field, skip=(), pivots=None):
        calls.append((vectors, skip))
        return rank(vectors, field, skip, pivots)

    def reading(layer, k):
        reads[layer].append(k)
        return face_column(layer, k)

    face_column = cellular.FaceColumns.__getitem__
    monkeypatch.setattr(cellular, "smith_divisors", counted_smith)
    monkeypatch.setattr(cellular, "rank", counted_rank)
    monkeypatch.setattr(cellular.FaceColumns, "__getitem__", reading)
    t = enumerate_paths(parse(open(comm_grid(3)).read()))
    complexes = [build_complex(t, natural_homotopy_classes(t)),
                 build_complex(t, walk_homotopy_classes(t)),
                 simplicial_complex(find_semi_normed_basis(t))]
    cleared = 0
    for cx in complexes:
        for coeff in ("Z", "Q", "Fp:2", "Zmod:4"):
            got = homology(cx, coeff), cohomology(cx, coeff)
            assert "columns" not in cx.__dict__
            for layer, skip in calls:
                kept = [k for k in range(len(layer)) if k not in skip]
                assert reads.pop(layer, []) == kept
                cleared += len(skip)
            assert not reads
            dims = dict(enumerate(cx.counts()))
            columns = eager_columns(cx.faces)
            top = cx.top_dim()
            assert got == (homology_of_matrices(dims, columns, coeff, top),
                           cohomology_of_matrices(dims, columns, coeff, top))
            calls.clear()
    assert cleared > 0


def test_cell_index_is_built_on_first_read(comm_grid):
    # (co)homology and the Euler characteristic read the keys and faces
    # only
    mono = load_bench_workloads().complexes_inputs(17)["mono5x5"]
    for text in (mono, open(comm_grid(3)).read()):
        t = enumerate_paths(parse(text))
        cx = build_complex(t, natural_homotopy_classes(t))
        homology(cx, "Z")
        cohomology(cx, "Fp:2")
        euler_characteristic(cx)
        assert "cell_index" not in cx.__dict__
        assert len(cx.cell_index) == sum(cx.counts())


def test_path_objects_are_built_on_first_read(monkeypatch, tmp_path,
                                              comm_grid):
    # cells, homology and cohomology read the table's words, ends and
    # indices, and the classes' representatives as table indices
    tables, classes = [], []

    def recording(built, make):
        def record(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]
        return record

    # cells builds its table and classes in `cli`, (co)homology in
    # `complex`
    for module in (cli, cellular):
        monkeypatch.setattr(module, "enumerate_paths",
                            recording(tables, enumerate_paths))
        monkeypatch.setattr(module, "natural_homotopy_classes",
                            recording(classes, natural_homotopy_classes))
    mono = tmp_path / "mono5x5.bq"
    mono.write_text(load_bench_workloads().complexes_inputs(17)["mono5x5"])
    for src in (str(mono), comm_grid(3)):
        for argv in (["cells", src], ["homology", src],
                     ["cohomology", "--coeff", "Fp:2", src]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    # the monomial grid's homology and cohomology collapse onto its graph,
    # its paths counted on its tips' automaton: no table and no classes
    assert len(tables) == 4
    assert len(classes) == 4
    for t in tables:
        assert "paths" not in t.__dict__
    for nat in classes:
        assert "class_rep" not in nat.__dict__
    for t in tables:
        assert [p.arrows for p in t.paths] == t.words
    for nat in classes:
        assert nat.class_rep == [nat.table.paths[i] for i in nat.rep_index]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.bq")),
                         ids=lambda p: p.stem)
def test_dense_boundaries_match_the_faces(path):
    # the dense view keeps the contract of the old stored matrices:
    # rows C_{n-1}, columns C_n, entry sum of (-1)^i over faces i hitting
    # the row, zero matrices of the right shape outside 1 .. top
    t = enumerate_paths(parse(path.read_text()))
    c = build_complex(t, natural_homotopy_classes(t))
    dense = {}
    for n in range(1, c.top_dim() + 1):
        mat = [[0] * c.size(n) for _ in range(c.size(n - 1))]
        for j, face_row in enumerate(c.faces[n]):
            for i, target in enumerate(face_row):
                mat[target][j] += (-1) ** i
        dense[n] = mat
    assert c.boundaries == dense
    for n in range(c.top_dim() + 2):
        want = dense.get(n, [[0] * c.size(n) for _ in range(c.size(n - 1))])
        assert c.boundary(n) == want


def test_ex3_cup_product_indicators():
    _, c = complexes(EX3)
    paths = c.table.paths
    f = {key: 1 for key, w in zip(c.keys[1], c.witnesses[1])
         if str(paths[w]) == "alpha"}
    g = {key: 1 for key, w in zip(c.keys[1], c.witnesses[1])
         if str(paths[w]) == "beta2"}
    fg = cup_product(c, 1, f, 1, g)
    want = [key for key in c.keys[2]
            if str(c.classes.class_rep[key[0]]) == "alpha"
            and str(c.classes.class_rep[key[1]]) == "beta2"]
    assert sorted(fg) == sorted(want)


def test_cup_product_leibniz():
    _, c = complexes(EX3)
    rng = random.Random(7)
    for _ in range(10):
        f = {key: rng.randint(-3, 3) for key in c.keys[1]}
        g = {key: rng.randint(-3, 3) for key in c.keys[1]}
        lhs = coboundary(c, 2, cup_product(c, 1, f, 1, g))
        rhs = {}
        for k, v in cup_product(c, 2, coboundary(c, 1, f), 1, g).items():
            rhs[k] = rhs.get(k, 0) + v
        for k, v in cup_product(c, 1, f, 2, coboundary(c, 1, g)).items():
            rhs[k] = rhs.get(k, 0) - v
        assert ({k: v for k, v in lhs.items() if v} ==
                {k: v for k, v in rhs.items() if v})


def test_nosn_sphere_vs_point():
    _, c = complexes(NOSN)
    assert c.counts() == [3, 5, 4]
    assert homology(c, "Z").groups == ((1, ()), (0, ()), (1, ()))
    _, cw = complexes(NOSN, walk=True)
    assert cw.counts() == [3, 3, 1]
    assert homology(cw, "Z").groups == ((1, ()), (0, ()), (0, ()))


def test_rp2_all_coefficients():
    _, c = complexes(RP2)
    assert c.counts() == [3, 6, 4]
    assert homology(c, "Z").groups == ((1, ()), (0, (2,)), (0, ()))
    assert cohomology(c, "Z").groups == ((1, ()), (0, ()), (0, (2,)))
    assert homology(c, "Fp:2").groups == (1, 1, 1)
    assert cohomology(c, "Fp:2").groups == (1, 1, 1)
    assert homology(c, "Q").groups == (1, 0, 0)
    assert homology(c, "Zmod:4").groups == ((4,), (2,), (2,))
    assert cohomology(c, "Zmod:4").groups == ((4,), (2,), (2,))


def test_rp2_double_cover_is_a_sphere():
    cover = bq(["x3", "y3", "x2", "y2", "x1", "y1"],
               [("a1x", "x3", "x2"), ("b1x", "x3", "y2"),
                ("a1y", "y3", "y2"), ("b1y", "y3", "x2"),
                ("a2x", "x2", "x1"), ("b2x", "x2", "y1"),
                ("a2y", "y2", "y1"), ("b2y", "y2", "x1")],
               [[(["a1x", "a2x"], 1), (["b1x", "b2y"], -1)],
                [(["a1x", "b2x"], 1), (["b1x", "a2y"], -1)],
                [(["a1y", "a2y"], 1), (["b1y", "b2x"], -1)],
                [(["a1y", "b2y"], 1), (["b1y", "a2x"], -1)]])
    _, c = complexes(cover)
    assert c.counts() == [6, 12, 8]
    assert homology(c, "Z").groups == ((1, ()), (0, ()), (1, ()))
    assert euler_characteristic(c) == 2


CUBE_ARROWS = [("a12", "1", "2"), ("a13", "1", "3"), ("a14", "1", "4"),
               ("a25", "2", "5"), ("a26", "2", "6"),
               ("a36", "3", "6"), ("a37", "3", "7"),
               ("a45", "4", "5"), ("a47", "4", "7"),
               ("a58", "5", "8"), ("a68", "6", "8"), ("a78", "7", "8")]
CUBE_SQUARES = [
    [(["a12", "a25"], 1), (["a14", "a45"], -1)],
    [(["a12", "a26"], 1), (["a13", "a36"], -1)],
    [(["a13", "a37"], 1), (["a14", "a47"], -1)],
    [(["a25", "a58"], 1), (["a26", "a68"], -1)],
    [(["a36", "a68"], 1), (["a37", "a78"], -1)],
    [(["a45", "a58"], 1), (["a47", "a78"], -1)],
]
CUBE_MONOMIALS = [
    [(["a12", "a25", "a58"], 1)], [(["a12", "a26", "a68"], 1)],
    [(["a13", "a36", "a68"], 1)], [(["a13", "a37", "a78"], 1)],
    [(["a14", "a45", "a58"], 1)], [(["a14", "a47", "a78"], 1)],
]
VERTS8 = [str(i) for i in range(1, 9)]


def test_cube_sphere_vs_ball():
    _, hollow = complexes(bq(VERTS8, CUBE_ARROWS,
                             CUBE_SQUARES + CUBE_MONOMIALS))
    assert hollow.counts() == [8, 18, 12]
    assert homology(hollow, "Z").groups == ((1, ()), (0, ()), (1, ()))
    _, solid = complexes(bq(VERTS8, CUBE_ARROWS, CUBE_SQUARES))
    assert solid.counts() == [8, 19, 18, 6]
    assert homology(solid, "Z").groups == \
        ((1, ()), (0, ()), (0, ()), (0, ()))


def test_ker_natural_vs_walk():
    ker = bq(["1", "2", "3", "4", "5", "6"],
             [("a1", "6", "5"), ("a2", "6", "5"), ("b1", "4", "2"),
              ("b2", "5", "2"), ("b3", "5", "3"),
              ("g1", "2", "1"), ("g2", "2", "1")],
             [[(["a1", "b3"], 1), (["a2", "b3"], -1)],
              [(["b1", "g1"], 1), (["b1", "g2"], -1)]])
    _, c = complexes(ker)
    _, cw = complexes(ker, walk=True)
    assert c.counts() == [6, 17, 16, 4]
    assert cw.counts() == [6, 10, 6, 1]
    assert homology(c, "Z").groups[0] == (1, ())
    assert euler_characteristic(c) == 1
    assert euler_characteristic(cw) == 1


def test_monomial_complex_is_the_graph():
    mono = bq(["1", "2", "3", "4"],
              [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
               ("d", "1", "3"), ("e", "2", "4")],
              [[(["a", "b", "c"], 1)]])
    t, c = complexes(mono)
    h = homology(c, "Z")
    assert h.groups[0] == (1, ())
    assert h.groups[1] == (5 - 4 + 1, ())
    for i in range(2, len(h.groups)):
        assert h.groups[i] == (0, ())
    assert abelianization(pi1_presentation(t)) == (2, [])


def test_cyclic_rad_square_zero_circle():
    circ = bq(["u", "v"], [("s", "u", "v"), ("t", "v", "u")],
              [[(["s", "t"], 1)], [(["t", "s"], 1)]])
    _, c = complexes(circ)
    assert c.counts() == [2, 2]
    assert homology(c, "Z").groups == ((1, ()), (1, ()))


def test_only_unit_pivots_clear_over_z():
    # delta_2 = (2, 3)^T and delta_1 = [3, -2] make a chain complex
    # (3*2 - 2*3 = 0) with every group 0.  delta_2 has no unit entry, so
    # its pivot comes from the dense Smith form; clearing column 0 of
    # delta_1 on that pivot would leave [-2] and report H_0 = Z/2
    dims = {0: 1, 1: 2, 2: 1}
    mats = {1: [{0: 3}, {0: -2}], 2: [{0: 2, 1: 3}]}
    check_square_zero(mats)
    for coeff, zero in (("Z", (0, ())), ("Zmod:2", ()), ("Zmod:4", ()),
                        ("Q", 0), ("Fp:2", 0), ("Fp:3", 0)):
        for groups in (homology_of_matrices(dims, mats, coeff, 2).groups,
                       cohomology_of_matrices(dims, mats, coeff, 2).groups):
            assert groups == (zero,) * 3, coeff
