"""Quivers, path tables, ideal membership and algebra properties."""

from fractions import Fraction

import pytest

from bqtop import core
from bqtop.complex import graph_collapse
from bqtop.core import (AdmissibilityError, BoundQuiver, MalformedRelation,
                        Path, QuiverError, RelVector, algebra_properties,
                        enumerate_paths, monomial_path_counts)
from bqtop.dsl import parse
from bqtop.homotopy import natural_homotopy_classes
from oracles import (CORPUS, add_one_by_one, differential_quivers,
                     monomial_collapse, nonzero_paths, path_vertices,
                     paths_between, rewriting_monomial_path_counts)


def bq(vertices, arrows, rels=()):
    return BoundQuiver(vertices, arrows, rels)


EX1 = bq(["1", "2", "3"],
         [("alpha", "2", "1"), ("beta", "3", "2"), ("gamma", "3", "2")],
         [[(["beta", "alpha"], 1), (["gamma", "alpha"], -1)]])


def test_path_composition_and_display():
    p = EX1.path(["beta", "alpha"])
    assert (p.source, p.target) == ("3", "1")
    assert str(p) == "beta*alpha"
    e = EX1.path([], at="2")
    assert e.is_stationary and str(e) == "e_2"
    assert path_vertices(EX1, p) == ["3", "2", "1"]


def test_path_validation():
    with pytest.raises(QuiverError):
        EX1.path(["alpha", "beta"])  # endpoints do not chain
    with pytest.raises(QuiverError):
        EX1.path(["nope"])


def test_quiver_validation():
    with pytest.raises(QuiverError):
        bq(["1"], [("a", "1", "2")])  # arrow endpoint not a vertex
    with pytest.raises(QuiverError):
        bq(["1", "1"], [])  # duplicate vertex
    with pytest.raises(QuiverError):
        bq(["1", "2"], [("a", "1", "2"), ("a", "1", "2")])  # duplicate name


def test_relation_format_errors():
    # a term of length < 2 cannot appear in an admissible ideal
    with pytest.raises((MalformedRelation, AdmissibilityError)):
        bq(["1", "2"], [("a", "1", "2")], [[(["a"], 1)]])
    # terms must be parallel
    with pytest.raises((MalformedRelation, AdmissibilityError)):
        bq(["1", "2", "3", "4"],
           [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")],
           [[(["a", "b"], 1), (["a", "c"], 1)]])


CHAIN = (["1", "2", "3", "4"],
         [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])


@pytest.mark.parametrize("vertices, arrows, rels, error, message", [
    (["1", "1"], [], [], QuiverError, "duplicate vertex id"),
    (["1", "2"], [("a", "1", "2"), ("a", "2", "1")], [], QuiverError,
     "duplicate arrow name"),
    (["1"], [("a", "1", "2")], [], QuiverError,
     "arrow a has undeclared endpoint"),
    (*CHAIN, [[(["a", "z"], 1)]], QuiverError, "unknown arrow 'z'"),
    (*CHAIN, [RelVector.build([(Path("1", "3", ("a", "z")), 1)])],
     QuiverError, "unknown arrow 'z' in path"),
    (*CHAIN, [[(["a", "c"], 1)]], QuiverError, "path a\\*c breaks at 'c'"),
    (*CHAIN, [RelVector.build([(Path("1", "4", ("a", "c")), 1)])],
     QuiverError, "path a\\*c breaks at 'c'"),
    (*CHAIN, [RelVector.build([(Path("1", "4", ("a", "b")), 1)])],
     QuiverError, "path a\\*b does not end at 4"),
    (*CHAIN, [[(["a"], 1)]], MalformedRelation, "term a has length 1 < 2"),
    (*CHAIN, [[(["a", "b"], 1), (["b", "c"], 1)]], MalformedRelation,
     "terms not parallel: a\\*b vs b\\*c"),
])
def test_the_public_constructor_keeps_every_check(vertices, arrows, rels,
                                                  error, message):
    # `dsl.parse` builds through the unchecked constructor; the public one
    # still refuses every malformed part, given as names or as objects
    with pytest.raises(error, match=message):
        bq(vertices, arrows, rels)


def test_table_contents_ex1():
    t = enumerate_paths(EX1)
    assert t.bound == 3
    assert t.vector_in_ideal([(EX1.path(["beta", "alpha"]), 1)]) is False
    assert t.vector_in_ideal([(EX1.path(["beta", "alpha"]), Fraction(1)),
                              (EX1.path(["gamma", "alpha"]), Fraction(-1))])
    assert t.dims[("3", "1")] == 1
    assert t.dims[("3", "2")] == 2
    between = paths_between(t, "3", "1")
    assert sorted(str(p) for p in between) == ["beta*alpha", "gamma*alpha"]


def test_vector_in_ideal_drops_beyond_bound_terms():
    # paths longer than the bound are automatically ideal members
    q = bq(["1", "2", "3", "4"],
           [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
           [[(["a", "b", "c"], 1)]])
    t = enumerate_paths(q)
    assert t.bound == 3
    assert t.vector_in_ideal([(q.path(["a", "b", "c"]), Fraction(1))])
    assert not t.vector_in_ideal([(q.path(["a", "b"]), 1)])


def test_path_cap_binds_only_cyclic_quivers():
    # an acyclic search ends vacuously one past its longest path, even
    # when that is shorter than the smallest bound tried
    for q in (bq(["1"], []), bq(["1", "2"], [("a", "1", "2")])):
        for cap in (0, 1):
            assert enumerate_paths(q, cap=cap).bound == 2


def test_cyclic_quiver_needs_bounding_relations():
    loop = bq(["u", "v"], [("s", "u", "v"), ("t", "v", "u")])
    with pytest.raises(AdmissibilityError):
        enumerate_paths(loop, cap=8)
    bounded = bq(["u", "v"], [("s", "u", "v"), ("t", "v", "u")],
                 [[(["s", "t"], 1)], [(["t", "s"], 1)]])
    t = enumerate_paths(bounded)
    assert t.bound == 2
    props = algebra_properties(t)
    # the radical is nonzero in both directions between u and v
    assert not props.triangular
    assert not props.almost_triangular
    # parallel to the stationary path at u runs the zero path s*t
    assert not props.semi_commutative


def test_overlap_certifies_x2_minus_y3():
    # y*y*y*x rewrites to x*x*x through x^2 - y^3 and to 0 through y*x, so
    # x^3 lies in I and F^4 <= I, though no product u*g*v within length 4
    # holds x^3: the overlap y^3.x is what certifies the bound
    q = bq(["1"], [("x", "1", "1"), ("y", "1", "1")],
           [[(["x", "x"], 1), (["y", "y", "y"], -1)],
            [(["x", "y"], 1)], [(["y", "x"], 1)]])
    t = enumerate_paths(q)
    assert t.bound == 4
    pivots = t.ideal_rows[("1", "1")]
    assert [str(p) for k, p in enumerate(t.paths) if k not in pivots] == [
        "e_1", "x", "y", "x*x", "y*y"]
    assert t.vector_in_ideal([(q.path(["x", "x", "x"]), 1)])
    assert not t.vector_in_ideal([(q.path(["y", "y", "y"]), 1)])
    assert t.vector_in_ideal([(q.path(["y", "y", "y"]), 1),
                              (q.path(["x", "x"]), -1)])
    p = algebra_properties(t)
    assert p.nilpotency_bound == 4 and p.total_dimension == 5


def test_long_chain_is_acyclic(square_zero_chain):
    # deeper than the recursion limit, so the check must not recurse
    with open(square_zero_chain(2000)) as fh:
        q = parse(fh.read())
    assert q.is_acyclic()
    t = enumerate_paths(q)
    assert t.bound == 2
    assert len(nonzero_paths(t)) == 2001 + 2000


@pytest.mark.parametrize("bad", [Path("0", "1", ("nosuch",)),
                                 Path("5", "1", ("a0",)),
                                 Path("nosuch", "nosuch", ()),
                                 Path("0", "3", ("a0", "nosuch", "a2"))],
                         ids=["unknown_arrow", "wrong_ends",
                              "unknown_vertex", "past_the_bound"])
def test_a_path_not_of_the_quiver_is_a_quiver_error(square_zero_chain, bad):
    # never a KeyError, and never a silent answer
    with open(square_zero_chain(6)) as fh:
        t = enumerate_paths(parse(fh.read()))
    assert t.position(bad) is None
    classes = natural_homotopy_classes(t)
    for ask in (classes.class_of, lambda p: t.vector_in_ideal([(p, 1)])):
        with pytest.raises(QuiverError):
            ask(bad)


def test_long_oriented_cycle_is_cyclic(square_zero_chain):
    with open(square_zero_chain(2000, cycle=True)) as fh:
        text = fh.read()
    # a tail into the cycle is peeled off, the cycle itself is not
    for q, nonzero in ((parse(text), 2000 + 2000),
                       (parse(text + "arrow b x 0\n"), 2001 + 2001 + 1)):
        assert not q.is_acyclic()
        assert len(nonzero_paths(enumerate_paths(q))) == nonzero


def test_properties_hhgap():
    q = bq(["1", "2", "3"],
           [("alpha", "1", "2"), ("beta", "2", "3"), ("gamma", "1", "3")],
           [[(["alpha", "beta"], 1)]])
    p = algebra_properties(enumerate_paths(q))
    assert p.schurian and p.triangular and p.connected
    assert not p.semi_commutative  # alpha*beta dies, parallel gamma lives
    assert p.dims[("1", "3")] == 1
    assert p.total_dimension == 6
    assert p.euler_characteristic == 1


def test_properties_semi_commutative_beyond_bound():
    # the mixed pair is only visible through a path longer than the
    # nilpotency bound: a length-4 route all of whose stored sections
    # vanish, against a live parallel length-2 route
    q = bq(["1", "2", "3", "4", "5", "6"],
           [("a1", "6", "4"), ("a2", "4", "3"), ("a3", "3", "2"),
            ("a4", "2", "1"), ("b1", "6", "5"), ("b2", "5", "1")],
           [[(["a1", "a2"], 1)], [(["a3", "a4"], 1)]])
    t = enumerate_paths(q)
    assert t.bound == 3
    p = algebra_properties(t)
    assert p.schurian
    assert not p.semi_commutative


def test_properties_rp2():
    q = bq(["1", "2", "3"],
           [("alpha1", "3", "2"), ("beta1", "3", "2"),
            ("alpha2", "2", "1"), ("beta2", "2", "1")],
           [[(["alpha1", "alpha2"], 1), (["beta1", "beta2"], -1)],
            [(["alpha1", "beta2"], 1), (["beta1", "alpha2"], -1)]])
    p = algebra_properties(enumerate_paths(q))
    assert not p.schurian
    assert p.semi_commutative
    assert not p.constricted
    assert p.dims[("3", "1")] == 2
    assert p.euler_characteristic == 2


def test_properties_constricted_tree():
    q = bq(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")],
           [[(["a", "b"], 1)]])
    p = algebra_properties(enumerate_paths(q))
    assert p.constricted and p.schurian and p.semi_commutative
    assert p.total_dimension == 5


def test_disconnected_quiver_flagged():
    q = bq(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "3", "4")])
    p = algebra_properties(enumerate_paths(q))
    assert not p.connected


def test_path_sorting_is_stable():
    t = enumerate_paths(EX1)
    names = [str(p) for p in t.paths]
    assert names == sorted(names, key=lambda s: (s.count("*"), s)) or names
    # identical runs produce identical tables
    t2 = enumerate_paths(EX1)
    assert [str(p) for p in t2.paths] == names


@pytest.mark.parametrize("n", [4, 5])
def test_commutative_grid_table_closed_form(comm_grid, n):
    # every square commutes up to a unit, so all parallel paths are
    # proportional and none is zero: e_x A e_y is one-dimensional exactly
    # when y lies below and to the right of x
    q = parse(open(comm_grid(n)).read())
    t = enumerate_paths(q)
    assert t.bound == 2 * n - 1
    for x in q.vertices:
        for y in q.vertices:
            (i, j), (k, m) = (map(int, v[1:].split("_")) for v in (x, y))
            reachable = i <= k and j <= m
            assert t.dims.get((x, y), 0) == int(reachable)
            if reachable:
                assert (len(t.ideal_rows.get((x, y), []))
                        == len(t.pair_paths[(x, y)]) - 1)


def test_monomial_grid_nonzero_paths_are_straight_runs():
    n = 5
    vertices = ["%d_%d" % (i, j) for i in range(n) for j in range(n)]
    arrows = [("h%d_%d" % (i, j), "%d_%d" % (i, j), "%d_%d" % (i, j + 1))
              for i in range(n) for j in range(n - 1)]
    arrows += [("d%d_%d" % (i, j), "%d_%d" % (i, j), "%d_%d" % (i + 1, j))
               for i in range(n - 1) for j in range(n)]
    rels = []
    for i in range(n - 1):
        for j in range(n - 1):
            rels += [[(["h%d_%d" % (i, j), "d%d_%d" % (i, j + 1)], 1)],
                     [(["d%d_%d" % (i, j), "h%d_%d" % (i + 1, j)], 1)]]
    t = enumerate_paths(bq(vertices, arrows, rels))
    straight = {p for p in t.paths if len({a[0] for a in p.arrows}) <= 1}
    assert set(nonzero_paths(t)) == straight
    # the longest runs cross the grid: one per row and one per column
    assert sum(len(p) == n - 1 for p in straight) == 2 * n


TABLE_FIELDS = ("bound", "words", "sources", "targets", "arrow_index",
                "pair_paths", "ideal_rows", "in_ideal", "dims")

# a redundant tip: a*b lies in a*b*c, in either order of the relations
REDUNDANT = ["arrow a 1 2\narrow b 2 3\narrow c 3 4\nrel a*b\nrel a*b*c\n",
             "arrow a 1 2\narrow b 2 3\narrow c 3 4\nrel a*b*c\nrel a*b\n"]


def test_single_path_relations_are_stored_as_they_stand(monkeypatch):
    # stored directly, single-path relations give the rules and the table
    # that reducing them one at a time gives; only the minimal paths are
    # kept, and on either path `lengths` holds exactly their lengths, a
    # tip that gives way taking its length with it
    quivers = [q for q in differential_quivers()
               if all(len(rel.terms) == 1 for rel in q.relations)]
    quivers += [parse(t) for t in REDUNDANT]
    assert len(quivers) == 186 + 2
    for q in quivers:
        elems = [{p.arrows: c for p, c in rel.terms} for rel in q.relations]
        direct, one_by_one = core._Rewriting(q), core._Rewriting(q)
        direct.add(elems)
        add_one_by_one(core._Rewriting.add)(one_by_one, elems)
        assert direct.tails == one_by_one.tails
        assert direct._holding == one_by_one._holding
        assert direct.pairs == one_by_one.pairs == []
        for rules in (direct, one_by_one):
            assert rules.lengths == sorted({len(tip) for tip in rules.tails})
        table = enumerate_paths(q)
        with monkeypatch.context() as mp:
            mp.setattr(core._Rewriting, "add",
                       add_one_by_one(core._Rewriting.add))
            reduced = enumerate_paths(q)
        for field in TABLE_FIELDS:
            assert getattr(table, field) == getattr(reduced, field), field
    for text in REDUNDANT:
        rules = core._Rewriting(parse(text))
        rules.add([{("a", "b"): 1}, {("a", "b", "c"): 1}])
        assert rules.tails == {("a", "b"): {}} and rules.lengths == [2]


def test_monomial_path_counts_are_the_tables(square_zero_chain):
    # the nonzero paths counted by length on the tips' automaton give the
    # collapse the table gives, on every input whose relations are single
    # paths (8 of them in the corpus); an input that is monomial only
    # after reduction is left to the table
    single = grobner = corpus = 0
    for q in differential_quivers():
        table = enumerate_paths(q)
        counts = monomial_path_counts(q)
        if counts is None:
            grobner += monomial_collapse(table) is not None
            continue
        single += 1
        assert graph_collapse(q, counts) == monomial_collapse(table)
    assert (single, grobner) == (186, 27)
    for path in sorted(CORPUS.glob("*.bq")):
        q = parse(path.read_text())
        counts = monomial_path_counts(q)
        if counts is not None:
            corpus += 1
            assert graph_collapse(q, counts) == monomial_collapse(
                enumerate_paths(q))
    assert corpus == 8
    for n in range(3, 31):
        for cycle in (False, True):
            with open(square_zero_chain(n, cycle=cycle)) as fh:
                q = parse(fh.read())
            assert monomial_path_counts(q) == {1: n}
            assert graph_collapse(q, {1: n}) == monomial_collapse(
                enumerate_paths(q))


# cyclic monomial quivers: four loops with no relation and one with
# a*b*a, both unbounded, a bounded loop (x^4 = 0) and an unbounded one
# that x*x = 0 does not bound
CYCLIC_MONOMIAL = {
    "four_loops": "".join("arrow a%d 1 1\n" % i for i in range(4)),
    "aba": "arrow a x y\narrow b y x\narrow c y x\nrel a*b*a\n",
    "x4": "arrow x 1 1\nrel x*x*x*x\n",
    "xyz": "arrow x 1 1\narrow y 1 2\narrow z 2 1\nrel x*x\n",
}


@pytest.mark.parametrize("name", CYCLIC_MONOMIAL)
def test_monomial_path_counts_refuse_as_the_table_does(monkeypatch, name):
    q = parse(CYCLIC_MONOMIAL[name])
    # the table lists its words, with no early count
    monkeypatch.setattr(core, "monomial_path_counts", lambda quiver, cap: None)
    refused = []
    for cap in range(2, 7):
        try:
            table = enumerate_paths(q, cap)
        except AdmissibilityError as e:
            with pytest.raises(AdmissibilityError) as got:
                monomial_path_counts(q, cap)
            assert str(got.value) == str(e)
            refused.append(cap)
        else:
            assert graph_collapse(q, monomial_path_counts(q, cap)) \
                == monomial_collapse(table)
    assert refused == ([2, 3] if name == "x4" else [2, 3, 4, 5, 6])


def test_monomial_path_counts_match_the_rewriting_oracle():
    # counted on the relations as written, redundant tips included, the
    # counts and every refusal are those of the automaton of the minimal
    # tips that the rewriting rules keep
    quivers = [q for q in differential_quivers()
               if all(len(rel.terms) == 1 for rel in q.relations)]
    assert len(quivers) == 186
    texts = REDUNDANT + [
        # a redundant tip inside a longer one, and an unbounded quiver
        # with a redundant tip
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 5\n"
        "rel b*c\nrel a*b*c*d\n",
        CYCLIC_MONOMIAL["four_loops"] + "rel a0*a1\nrel a0*a1*a2\n",
        *CYCLIC_MONOMIAL.values()]
    quivers += [parse(t) for t in texts]
    refused = 0
    for q in quivers:
        for cap in range(2, 7):
            try:
                want = rewriting_monomial_path_counts(q, cap)
            except AdmissibilityError as e:
                with pytest.raises(AdmissibilityError) as got:
                    monomial_path_counts(q, cap)
                assert str(got.value) == str(e)
                refused += 1
            else:
                assert monomial_path_counts(q, cap) == want
    # two differential quivers, the unbounded one above and the four of
    # CYCLIC_MONOMIAL, x4 at caps 2 and 3 only
    assert refused == 2 + 5 + (5 + 5 + 2 + 5)


@pytest.mark.parametrize("name, witness", [("four_loops", "a0*a0*a0*a0"),
                                           ("aba", "a*c*a*b")])
def test_monomial_refusal_names_the_least_nonzero_path(name, witness):
    # the table names the least path of length cap outside I, in its
    # order: arrow names compared one by one
    with pytest.raises(AdmissibilityError,
                       match=r"the path %s of length 4 " % witness.replace(
                           "*", r"\*")):
        monomial_path_counts(parse(CYCLIC_MONOMIAL[name]), 4)
