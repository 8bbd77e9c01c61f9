"""Minimal relations, homotopy classes, pi_1 and the pushout."""

import pathlib

import pytest

from bqtop.core import BoundQuiver, QuiverError, enumerate_paths
from bqtop.dsl import parse
from bqtop.homotopy import (HypothesisViolated, Presentation, abelianization,
                            is_minimal_relation, minimal_relation_supports,
                            natural_homotopy_classes, pi1_presentation,
                            relation_components, simplify_presentation,
                            spanning_tree, van_kampen_pushout,
                            walk_homotopy_classes, word_is_trivial)
from oracles import all_component_presentation, class_paths

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

EX1 = BoundQuiver(
    ["1", "2", "3"],
    [("beta", "3", "2"), ("gamma", "3", "2"), ("alpha", "2", "1")],
    [[(["beta", "alpha"], 1), (["gamma", "alpha"], -1)]])

EX3 = BoundQuiver(
    ["1", "2", "3", "4", "5", "6"],
    [("alpha", "6", "5"),
     ("beta1", "5", "2"), ("beta2", "5", "3"), ("beta3", "5", "4"),
     ("gamma1", "2", "1"), ("gamma2", "3", "1"), ("gamma3", "4", "1")],
    [[(["alpha", "beta1"], 1)],
     [(["beta1", "gamma1"], 1), (["beta2", "gamma2"], 1),
      (["beta3", "gamma3"], 1)]])

NOSN = BoundQuiver(
    ["x1", "x2", "x3"],
    [("a1", "x1", "x2"), ("b1", "x1", "x2"),
     ("a2", "x2", "x3"), ("b2", "x2", "x3")],
    [[(["a1", "b2"], 1), (["b1", "b2"], 1), (["b1", "a2"], -1)],
     [(["a1", "a2"], 1), (["b1", "a2"], 1), (["b1", "b2"], -1)]])

VK = BoundQuiver(
    ["1", "2", "3", "4", "5", "6"],
    [("a1", "3", "2"), ("b1", "3", "2"), ("a2", "2", "1"), ("b2", "2", "1"),
     ("d1", "2", "4"), ("d2", "2", "5"), ("e1", "6", "4"), ("e2", "6", "5")],
    [[(["a1", "a2"], 1), (["b1", "b2"], -1)],
     [(["a1", "b2"], 1), (["b1", "a2"], -1)]])

KER = BoundQuiver(
    ["1", "2", "3", "4", "5", "6"],
    [("a1", "6", "5"), ("a2", "6", "5"), ("b1", "4", "2"), ("b2", "5", "2"),
     ("b3", "5", "3"), ("g1", "2", "1"), ("g2", "2", "1")],
    [[(["a1", "b3"], 1), (["a2", "b3"], -1)],
     [(["b1", "g1"], 1), (["b1", "g2"], -1)]])


def support_closure(mrs):
    """Co-member groups of the enumerated supports, joined where they share
    a path, as a set of frozensets of at least two paths."""
    groups = []
    for mr in mrs:
        group = set(mr.support())
        for other in [g for g in groups if g & group]:
            groups.remove(other)
            group |= other
        groups.append(group)
    return {frozenset(g) for g in groups}


def assert_components_are_support_closure(t, mrs):
    # classes and presentations are built from the co-member groups
    # alone, so equal groups mean the search's relations would give the
    # same classes and the same group
    assert ({frozenset(map(t.paths.__getitem__, g))
             for g in relation_components(t)} == support_closure(mrs))


def test_ex1_minimal_relations():
    t = enumerate_paths(EX1)
    mrs, _ = minimal_relation_supports(t)
    assert len(mrs) == 1
    assert sorted(str(p) for p in mrs[0].support()) == \
        ["beta*alpha", "gamma*alpha"]
    ba = EX1.path(["beta", "alpha"])
    ga = EX1.path(["gamma", "alpha"])
    assert is_minimal_relation(t, [(ba, 1), (ga, -1)])
    assert not is_minimal_relation(t, [(ba, 1)])


def test_ex1_natural_vs_walk():
    t = enumerate_paths(EX1)
    nat = natural_homotopy_classes(t)
    b = EX1.path(["beta"])
    g = EX1.path(["gamma"])
    ba = EX1.path(["beta", "alpha"])
    ga = EX1.path(["gamma", "alpha"])
    assert nat.class_of(b) != nat.class_of(g)
    assert nat.class_of(ba) == nat.class_of(ga)
    assert len(nat.one_cell_classes()) == 4
    walk = walk_homotopy_classes(t)
    assert walk.class_of(b) == walk.class_of(g)
    assert len(walk.one_cell_classes()) == 3


def test_ex3_classes():
    t = enumerate_paths(EX3)
    mrs, _ = minimal_relation_supports(t)
    sups = sorted(tuple(sorted(str(p) for p in m.support())) for m in mrs)
    assert sups == [
        ("alpha*beta2*gamma2", "alpha*beta3*gamma3"),
        ("beta1*gamma1", "beta2*gamma2", "beta3*gamma3"),
    ]
    assert_components_are_support_closure(t, mrs)
    nat = natural_homotopy_classes(t)
    bg = [EX3.path(["beta%d" % i, "gamma%d" % i]) for i in (1, 2, 3)]
    assert len({nat.class_of(p) for p in bg}) == 1
    # the class of alpha*beta1*gamma1 contains an ideal member yet is a
    # nonzero class through its live representatives
    ab1g1 = EX3.path(["alpha", "beta1", "gamma1"])
    ab2g2 = EX3.path(["alpha", "beta2", "gamma2"])
    assert nat.class_of(ab1g1) == nat.class_of(ab2g2)
    assert nat.class_nonzero[nat.class_of(ab1g1)]
    assert len(nat.one_cell_classes()) == 11


def test_ex3_walk_equals_natural():
    t = enumerate_paths(EX3)
    nat = natural_homotopy_classes(t)
    walk = walk_homotopy_classes(t)
    assert len(walk.one_cell_classes()) == len(nat.one_cell_classes()) == 11
    for p in t.paths:
        assert (set(map(str, class_paths(nat, nat.class_of(p)))) ==
                set(map(str, class_paths(walk, walk.class_of(p)))))


def test_nosn_minimal_relation_sizes():
    t = enumerate_paths(NOSN)
    mrs, _ = minimal_relation_supports(t)
    # includes a support-4 minimal relation a1a2 + 2 a1b2 - b1a2 + b1b2
    assert sorted(len(m.terms) for m in mrs) == [2, 3, 3, 4]


def test_nosn_classes():
    t = enumerate_paths(NOSN)
    nat = natural_homotopy_classes(t)
    level2 = [p for p in t.paths if len(p) == 2]
    assert len({nat.class_of(p) for p in level2}) == 1
    assert len(nat.one_cell_classes()) == 5
    walk = walk_homotopy_classes(t)
    assert walk.class_of(NOSN.path(["a1"])) == walk.class_of(NOSN.path(["b1"]))
    assert walk.class_of(NOSN.path(["a2"])) == walk.class_of(NOSN.path(["b2"]))
    assert len(walk.one_cell_classes()) == 3


def test_integer_combinations_can_be_minimal():
    tri = BoundQuiver(
        ["s", "m1", "m2", "m3", "t"],
        [("u1", "s", "m1"), ("u2", "s", "m2"), ("u3", "s", "m3"),
         ("v1", "m1", "t"), ("v2", "m2", "t"), ("v3", "m3", "t")],
        [[(["u1", "v1"], 1), (["u2", "v2"], -1)],
         [(["u1", "v1"], 1), (["u3", "v3"], -1)]])
    t = enumerate_paths(tri)
    w1 = tri.path(["u1", "v1"])
    w2 = tri.path(["u2", "v2"])
    w3 = tri.path(["u3", "v3"])
    assert is_minimal_relation(t, [(w1, 2), (w2, -1), (w3, -1)])
    assert is_minimal_relation(t, [(w1, 1), (w2, -1)])


def test_vk_presentation():
    t = enumerate_paths(VK)
    mrs, _ = minimal_relation_supports(t)
    assert len(mrs) == 2
    assert_components_are_support_closure(t, mrs)
    pres = pi1_presentation(t, base="1")
    # 8 arrows - 5 tree arrows + 2 relation relators... the tree kills 5
    # generators, leaving 3, with 5 tree relators and 2 relation relators
    assert len(pres.relators) == 7
    assert abelianization(pres) == (1, [2])
    simp = simplify_presentation(pres)
    assert abelianization(simp) == (1, [2])
    assert (len(simp.generators), len(simp.relators)) in {(2, 1), (3, 1)}
    if len(simp.relators) == 1:
        r = simp.relators[0]
        assert len(r) == 2 and r[0][0] == r[1][0]  # a square g*g


@pytest.mark.parametrize("name, before, after",
                         [("ex3", 8, 7), ("sphere_solid", 18, 13)])
def test_pi1_keeps_only_the_joins(name, before, after):
    # the co-member relators that no join needs go; the tree and the
    # group stay, and so does the simplified presentation
    q = parse((CORPUS / ("%s.bq" % name)).read_text())
    t = enumerate_paths(q)
    base = q.vertices[0]
    tree = spanning_tree(q, base)[0]
    every = all_component_presentation(t, q, tree, base)
    pres = pi1_presentation(t)
    assert (len(every.relators), len(pres.relators)) == (before, after)
    assert pres.relators[:len(tree)] == every.relators[:len(tree)]
    assert set(pres.relators) < set(every.relators)
    assert abelianization(pres) == abelianization(every)
    assert simplify_presentation(pres) == simplify_presentation(every)


def test_vk_pushout():
    t = enumerate_paths(VK)
    res = van_kampen_pushout(t, ["2", "3", "4", "5", "6"], ["1", "2", "3"])
    assert abelianization(res.piece1) == (2, [])
    assert abelianization(res.piece2) == (0, [2])
    assert abelianization(res.intersection) == (1, [])
    assert abelianization(res.pushout) == (1, [2])


def test_vk_degenerate_pushout():
    t = enumerate_paths(VK)
    res = van_kampen_pushout(t, ["1"], ["1", "2", "3", "4", "5", "6"])
    assert abelianization(res.pushout) == (1, [2])


def test_vk_pushout_hypothesis_violation():
    t = enumerate_paths(VK)
    with pytest.raises(HypothesisViolated):
        van_kampen_pushout(t, ["1", "2"], ["2", "3", "4", "5", "6"])


def test_relation_components_follow_the_search_order():
    # every component here is a single circuit, so the components are the
    # enumerated supports, in the order the search emits them
    for quiver in (VK, KER):
        t = enumerate_paths(quiver)
        mrs, _ = minimal_relation_supports(t)
        assert ([[t.paths[i] for i in g] for g in relation_components(t)]
                == [mr.support() for mr in mrs])


def test_ker_class_counts():
    t = enumerate_paths(KER)
    mrs, _ = minimal_relation_supports(t)
    assert len(mrs) == 2
    assert_components_are_support_closure(t, mrs)
    assert len(natural_homotopy_classes(t).one_cell_classes()) == 17
    assert len(walk_homotopy_classes(t).one_cell_classes()) == 10


def test_monomial_has_no_minimal_relations():
    mono = BoundQuiver(["1", "2", "3"],
                       [("a", "1", "2"), ("b", "2", "3")],
                       [[(["a", "b"], 1)]])
    t = enumerate_paths(mono)
    mrs, _ = minimal_relation_supports(t)
    assert mrs == []
    assert_components_are_support_closure(t, mrs)
    walk = walk_homotopy_classes(t)
    assert len(walk) == len(t.paths)  # discrete partition


def test_spanning_tree():
    tree, links = spanning_tree(VK, "1")
    assert len(tree) == 5  # |Q_0| - 1 arrows reach every vertex
    assert set(links) == set(VK.vertices)


def test_rp2_abelianization():
    rp2 = BoundQuiver(
        ["1", "2", "3"],
        [("alpha1", "3", "2"), ("beta1", "3", "2"),
         ("alpha2", "2", "1"), ("beta2", "2", "1")],
        [[(["alpha1", "alpha2"], 1), (["beta1", "beta2"], -1)],
         [(["alpha1", "beta2"], 1), (["beta1", "alpha2"], -1)]])
    t = enumerate_paths(rp2)
    assert abelianization(pi1_presentation(t)) == (0, [2])


# walk classes (all classes, identities included) of every corpus quiver;
# the capped walk BFS that the word-problem decision replaced found the
# same partitions
WALK_CLASS_COUNTS = {
    "cor66_cycle1": 8, "cor66_cycle2": 10, "cor66_cycle3": 8,
    "cor66_tree1": 9, "cor66_tree2": 13, "ex1": 6, "ex3": 18, "hheq": 18,
    "hhgap": 7, "ker": 16, "nosn": 6, "pres1": 8, "pres2": 6, "rp2": 9,
    "rp2_cover": 18, "sphere": 27, "sphere_solid": 27, "vk": 20,
}


def test_walk_class_counts_cover_the_corpus():
    assert sorted(WALK_CLASS_COUNTS) == \
        sorted(p.stem for p in CORPUS.glob("*.bq"))


@pytest.mark.parametrize("name", sorted(WALK_CLASS_COUNTS))
def test_corpus_walk_class_counts(name):
    t = enumerate_paths(parse((CORPUS / (name + ".bq")).read_text()))
    walk = walk_homotopy_classes(t)
    assert len(walk) == WALK_CLASS_COUNTS[name]
    assert walk.caveats == ()


def word(text):
    """'ab' -> a b, 'A' -> a^-1."""
    return tuple((c.lower(), 1 if c.islower() else -1) for c in text)


def test_word_problem_in_a_cyclic_group():
    z2 = Presentation(("a",), (word("aa"),))
    assert word_is_trivial(z2, word("aa")) is True
    assert word_is_trivial(z2, word("aaA")) is False
    assert word_is_trivial(z2, word("a")) is False
    assert word_is_trivial(z2, word("aaaa")) is True


def test_word_problem_in_a_free_group():
    free = Presentation(("a", "b"), ())
    assert word_is_trivial(free, word("aA")) is True
    # [a, b] dies in H_1, but a nonempty reduced word is never trivial in
    # a free group
    assert word_is_trivial(free, word("abAB")) is False


def test_word_problem_left_undecided():
    # (ab)^2 dies in H_1 of Z/2 * Z/2 = <a, b | a^2, b^2>, yet it is not
    # trivial there (ab has infinite order); no certificate applies
    z2z2 = Presentation(("a", "b"), (word("aa"), word("bb")))
    assert word_is_trivial(z2z2, word("abab")) is None
    assert word_is_trivial(z2z2, word("ab")) is False
    assert word_is_trivial(z2z2, word("abBA")) is True


def test_undecided_pairs_stay_apart_and_are_named(monkeypatch):
    import bqtop.homotopy as homotopy
    monkeypatch.setattr(homotopy, "word_is_trivial", lambda pres, w: None)
    t = enumerate_paths(EX1)
    walk = walk_homotopy_classes(t)
    nat = natural_homotopy_classes(t)
    assert len(walk) == len(nat)
    assert walk.class_of(EX1.path(["beta"])) != \
        walk.class_of(EX1.path(["gamma"]))
    (caveat,) = walk.caveats
    assert "beta ~ gamma" in caveat and "truncated" not in caveat


def test_walk_classes_of_a_disconnected_quiver():
    # two copies of ex1: each component gets its own spanning tree, and
    # the word problem decides both
    twin = BoundQuiver(
        ["1", "2", "3", "4", "5", "6"],
        [("beta", "3", "2"), ("gamma", "3", "2"), ("alpha", "2", "1"),
         ("b", "6", "5"), ("g", "6", "5"), ("a", "5", "4")],
        [[(["beta", "alpha"], 1), (["gamma", "alpha"], -1)],
         [(["b", "a"], 1), (["g", "a"], -1)]])
    walk = walk_homotopy_classes(enumerate_paths(twin))
    assert walk.class_of(twin.path(["beta"])) == \
        walk.class_of(twin.path(["gamma"]))
    assert walk.class_of(twin.path(["b"])) == walk.class_of(twin.path(["g"]))
    assert len(walk.one_cell_classes()) == 6
    assert walk.caveats == ()


def test_vk_disconnected_intersection_is_a_hypothesis_violation():
    # both pieces are convex and hold every nonzero path, but no arrow
    # joins the shared vertices 2 and 3; the check comes before any
    # presentation, whose spanning tree needs a connected quiver
    t = enumerate_paths(BoundQuiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4")],
        [[(["a", "c"], 1)], [(["b", "d"], 1)]]))
    with pytest.raises(HypothesisViolated,
                       match="intersection subquiver is not connected"):
        van_kampen_pushout(t, ["1", "2", "3"], ["2", "3", "4"])


def test_vk_unknown_vertex_is_named_with_its_piece():
    t = enumerate_paths(VK)
    with pytest.raises(QuiverError, match="unknown vertex 'zz' in V2"):
        van_kampen_pushout(t, ["2", "3", "4", "5", "6"], ["1", "2", "3", "zz"])
    with pytest.raises(QuiverError, match="unknown vertex '7' in V1"):
        van_kampen_pushout(t, ["7", "1"], ["1", "2", "3", "4", "5", "6"])


def test_tietze_canonicalises_each_distinct_word_once(monkeypatch):
    import bqtop.homotopy as homotopy
    canonical = homotopy._cyclic_canonical
    seen = []
    monkeypatch.setattr(homotopy, "_cyclic_canonical",
                        lambda w: seen.append(w) or canonical(w))
    for quiver in (VK, KER, NOSN, EX3):
        seen.clear()
        simp = simplify_presentation(
            pi1_presentation(enumerate_paths(quiver)))
        assert len(seen) == len(set(seen))
        assert set(simp.relators) <= {canonical(w) for w in seen}
