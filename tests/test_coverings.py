"""Covering verification, induced cell maps, deck transformations.

The projective-plane double cover is pinned from its published
description (verdicts, group order 2, two-to-one cell fibers, sphere
homology upstairs); the hexagon/two-cycle pair and the partial-swap
automorphism were constructed by hand with brute-force orbit checks; the
identity and broken-fiber cases are immediate from the definitions.

The seeded Z/k voltage covers of `oracles.voltage_covers` are Galois by
construction, so every check must hold on them.  The chained checks are
compared with `oracles.rechecked_lift`/`rechecked_deck_group` (which
verify the covering again and count incidences by vertex set) and
`oracles.TabledGroupAction` on the voltage covers, the hand-made cases
below, perturbed projections and subsets of the shift groups.
"""

import functools
import itertools
import pathlib
import random

import pytest

from bqtop.complex import build_complex, euler_characteristic, homology
from bqtop.core import BoundQuiver, QuiverError, enumerate_paths
from bqtop.coverings import (CellMapReport, GroupAction, MalformedMorphism,
                             NotACovering, NotGalois, QuiverMorphism,
                             check_covering, check_galois, compose_morphisms,
                             deck_group, identity_morphism, lift_complex_map)
from bqtop.dsl import parse, parse_group, parse_morphism
from bqtop.homotopy import natural_homotopy_classes
from oracles import (SEED, TabledGroupAction, rechecked_deck_group,
                     rechecked_lift, voltage_covers)


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def bq(vertices, arrows, rels=()):
    return BoundQuiver(vertices, arrows, rels)


def cxof(table):
    return build_complex(table, natural_homotopy_classes(table))


RP2 = bq(["1", "2", "3"],
         [("alpha1", "3", "2"), ("beta1", "3", "2"),
          ("alpha2", "2", "1"), ("beta2", "2", "1")],
         [[(["alpha1", "alpha2"], 1), (["beta1", "beta2"], -1)],
          [(["alpha1", "beta2"], 1), (["beta1", "alpha2"], -1)]])

COVER = bq(["x3", "y3", "x2", "y2", "x1", "y1"],
           [("a1x", "x3", "x2"), ("b1x", "x3", "y2"),
            ("a1y", "y3", "y2"), ("b1y", "y3", "x2"),
            ("a2x", "x2", "x1"), ("b2x", "x2", "y1"),
            ("a2y", "y2", "y1"), ("b2y", "y2", "x1")],
           [[(["a1x", "a2x"], 1), (["b1x", "b2y"], -1)],
            [(["a1x", "b2x"], 1), (["b1x", "a2y"], -1)],
            [(["a1y", "a2y"], 1), (["b1y", "b2x"], -1)],
            [(["a1y", "b2y"], 1), (["b1y", "a2x"], -1)]])

VMAP = {"x3": "3", "y3": "3", "x2": "2", "y2": "2", "x1": "1", "y1": "1"}
AMAP = {"a1x": "alpha1", "b1x": "beta1", "a1y": "alpha1", "b1y": "beta1",
        "a2x": "alpha2", "b2x": "beta2", "a2y": "alpha2", "b2y": "beta2"}

TB = enumerate_paths(RP2)
TC = enumerate_paths(COVER)
P = QuiverMorphism(COVER, RP2, VMAP, AMAP)

SWAP = QuiverMorphism(
    COVER, COVER,
    {"x3": "y3", "y3": "x3", "x2": "y2", "y2": "x2", "x1": "y1", "y1": "x1"},
    {"a1x": "a1y", "a1y": "a1x", "b1x": "b1y", "b1y": "b1x",
     "a2x": "a2y", "a2y": "a2x", "b2x": "b2y", "b2y": "b2x"})


def test_rp2_covering_report():
    rep = check_covering(TB, TC, P)
    assert rep.ok
    assert rep.ideal_preserved and rep.fibers_nonempty
    assert rep.local_bijections and rep.relations_lift
    assert {x: len(f) for x, f in rep.vertex_fibers.items()} == \
        {"1": 2, "2": 2, "3": 2}
    assert {a: len(f) for a, f in rep.arrow_fibers.items()} == \
        {"alpha1": 2, "beta1": 2, "alpha2": 2, "beta2": 2}
    assert rep.witnesses == ()


def test_rp2_galois_report():
    action = GroupAction(TC, [identity_morphism(COVER), SWAP])
    assert len(action) == 2
    rep = check_galois(TB, TC, P, action)
    assert rep.galois_ok and rep.equivariant
    assert rep.vertex_transitive and rep.arrow_transitive
    assert rep.fixed_point_free
    assert rep.group_order == 2


def test_rp2_induced_cell_map():
    cxb, cxc = cxof(TB), cxof(TC)
    assert cxb.counts() == [3, 6, 4]
    assert cxc.counts() == [6, 12, 8]
    assert homology(cxc, "Z").groups == ((1, ()), (0, ()), (1, ()))
    lift = lift_complex_map(cxb, cxc, check_covering(TB, TC, P))
    assert lift.ok and lift.class_correspondence
    assert lift.faces_commute and lift.incidence_bijections
    assert {n: sorted(len(f) for f in fib.values())
            for n, fib in lift.cell_fibers.items()} == \
        {0: [2, 2, 2], 1: [2] * 6, 2: [2] * 4}
    assert euler_characteristic(cxc) == 2 * euler_characteristic(cxb)


def test_rp2_deck_group():
    action = GroupAction(TC, [identity_morphism(COVER), SWAP])
    cxb, cxc = cxof(TB), cxof(TC)
    deck = deck_group(cxb, cxc, lift_complex_map(
        cxb, cxc, check_galois(TB, TC, P, action)))
    assert deck.ok
    assert deck.order == 2
    assert deck.distinct and deck.transitive
    assert deck.base_point == "1"
    assert deck.fiber == ("x1", "y1")


def test_deck_group_of_a_base_without_vertices_is_refused():
    # the empty covering is Galois for the trivial group, but the deck
    # group has no base point to be transitive over
    empty = bq([], [])
    t = enumerate_paths(empty)
    pid = identity_morphism(empty)
    rep = check_galois(t, t, pid, GroupAction(t, [pid]))
    assert rep.galois_ok
    cx = cxof(t)
    lift = lift_complex_map(cx, cx, rep)
    with pytest.raises(NotGalois, match="^the base quiver has no vertex, "
                                        "so the deck group has no base"):
        deck_group(cx, cx, lift)


def test_identity_covering():
    pid = identity_morphism(RP2)
    rep = check_covering(TB, TB, pid)
    assert rep.ok
    assert dict(rep.vertex_fibers) == \
        {"1": ("1",), "2": ("2",), "3": ("3",)}
    cxb = cxof(TB)
    lift = lift_complex_map(cxb, cxb, rep)
    assert lift.ok
    assert all(row == tuple(range(len(row)))
               for row in lift.cell_map.values())
    deck = deck_group(cxb, cxb, lift_complex_map(
        cxb, cxb, check_galois(TB, TB, pid, GroupAction(TB, [pid]))))
    assert deck.ok and deck.order == 1 and deck.transitive


def test_identity_not_galois_on_double_cover():
    small = GroupAction(TC, [identity_morphism(COVER)])
    rep = check_galois(TB, TC, P, small)
    assert rep.ok  # still a covering
    assert not rep.galois_ok
    assert not rep.vertex_transitive
    assert rep.witnesses


def ideal_failure():
    """(base, cover, identity morphism): identical quivers, but downstairs
    only the SUM of the two composites vanishes while upstairs both
    monomials do."""
    verts = ["4", "3", "2", "1"]
    arrows = [("alpha1", "4", "2"), ("alpha2", "2", "1"),
              ("beta1", "4", "3"), ("beta2", "3", "1")]
    base = bq(verts, arrows,
              [[(["alpha1", "alpha2"], 1), (["beta1", "beta2"], 1)]])
    cover = bq(verts, arrows,
               [[(["alpha1", "alpha2"], 1)], [(["beta1", "beta2"], 1)]])
    return base, cover, QuiverMorphism(cover, base, {v: v for v in verts},
                                       {a[0]: a[0] for a in arrows})


def test_ideal_preservation_failure():
    # the cover ideal does not project into the base ideal, so this is
    # not a bound quiver morphism
    base, cover, ident = ideal_failure()
    tb, tc = enumerate_paths(base), enumerate_paths(cover)
    rep = check_covering(tb, tc, ident)
    assert not rep.ok
    assert not rep.ideal_preserved
    # the three covering axioms hold; only morphism validity fails
    assert rep.fibers_nonempty and rep.local_bijections
    assert rep.relations_lift
    assert any("alpha1*alpha2" in w for w in rep.witnesses)
    with pytest.raises(NotACovering):
        lift_complex_map(cxof(tb), cxof(tc), rep)


def test_partial_swap_fails_three_ways():
    # swapping x2/y2 while fixing x1 forces a2x onto b2y, whose projection
    # is beta2, so no such automorphism can commute with p
    half = QuiverMorphism(
        COVER, COVER,
        {"x3": "y3", "y3": "x3", "x2": "y2", "y2": "x2",
         "x1": "x1", "y1": "y1"},
        {"a1x": "a1y", "a1y": "a1x", "b1x": "b1y", "b1y": "b1x",
         "a2x": "b2y", "b2y": "a2x", "b2x": "a2y", "a2y": "b2x"})
    action = GroupAction(TC, [identity_morphism(COVER), half])
    rep = check_galois(TB, TC, P, action)
    assert not rep.equivariant
    assert not rep.vertex_transitive
    assert not rep.fixed_point_free
    assert not rep.galois_ok
    cxb, cxc = cxof(TB), cxof(TC)
    with pytest.raises(NotGalois):
        deck_group(cxb, cxc, lift_complex_map(cxb, cxc, rep))


TWO = bq(["u", "v"], [("s", "u", "v"), ("t", "v", "u")],
         [[(["s", "t"], 1)], [(["t", "s"], 1)]])
HEXA = bq(["u0", "v0", "u1", "v1", "u2", "v2"],
          [("s0", "u0", "v0"), ("t0", "v0", "u1"),
           ("s1", "u1", "v1"), ("t1", "v1", "u2"),
           ("s2", "u2", "v2"), ("t2", "v2", "u0")],
          [[(["s0", "t0"], 1)], [(["t0", "s1"], 1)],
           [(["s1", "t1"], 1)], [(["t1", "s2"], 1)],
           [(["s2", "t2"], 1)], [(["t2", "s0"], 1)]])
PH = QuiverMorphism(HEXA, TWO,
                    {"u0": "u", "u1": "u", "u2": "u",
                     "v0": "v", "v1": "v", "v2": "v"},
                    {"s0": "s", "s1": "s", "s2": "s",
                     "t0": "t", "t1": "t", "t2": "t"})
ROT = QuiverMorphism(HEXA, HEXA,
                     {"u0": "u1", "u1": "u2", "u2": "u0",
                      "v0": "v1", "v1": "v2", "v2": "v0"},
                     {"s0": "s1", "s1": "s2", "s2": "s0",
                      "t0": "t1", "t1": "t2", "t2": "t0"})
ROT2 = compose_morphisms(ROT, ROT)


def test_hexagon_triple_cover():
    t2, t6 = enumerate_paths(TWO), enumerate_paths(HEXA)
    action = GroupAction(t6, [identity_morphism(HEXA), ROT, ROT2])
    rep = check_galois(t2, t6, PH, action)
    assert rep.ok and rep.galois_ok
    assert rep.group_order == 3
    cx2, cx6 = cxof(t2), cxof(t6)
    assert cx2.counts() == [2, 2]
    assert cx6.counts() == [6, 6]
    assert homology(cx6, "Z").groups == ((1, ()), (1, ()))
    lift = lift_complex_map(cx2, cx6, rep)
    assert lift.ok
    assert {n: sorted(len(f) for f in fib.values())
            for n, fib in lift.cell_fibers.items()} == \
        {0: [3, 3], 1: [3, 3]}
    deck = deck_group(cx2, cx6, lift)
    assert deck.ok and deck.order == 3 and deck.transitive
    assert deck.fiber == ("u0", "u1", "u2")
    assert euler_characteristic(cx6) == 3 * euler_characteristic(cx2)


def test_group_closure_enforced():
    t6 = enumerate_paths(HEXA)
    with pytest.raises(ValueError):
        GroupAction(t6, [identity_morphism(HEXA), ROT])


def broken_cover():
    """(cover, projection): the double cover of RP2 without arrow b2y."""
    cover7 = bq(["x3", "y3", "x2", "y2", "x1", "y1"],
                [("a1x", "x3", "x2"), ("b1x", "x3", "y2"),
                 ("a1y", "y3", "y2"), ("b1y", "y3", "x2"),
                 ("a2x", "x2", "x1"), ("b2x", "x2", "y1"),
                 ("a2y", "y2", "y1")],
                [[(["a1x", "b2x"], 1), (["b1x", "a2y"], -1)],
                 [(["a1y", "a2y"], 1), (["b1y", "b2x"], -1)]])
    return cover7, QuiverMorphism(
        cover7, RP2, VMAP, {k: v for k, v in AMAP.items() if k != "b2y"})


def test_broken_cover_fails_locally():
    cover7, p7 = broken_cover()
    t7 = enumerate_paths(cover7)
    rep = check_covering(TB, t7, p7)
    assert not rep.ok
    assert not rep.local_bijections
    assert not rep.relations_lift
    assert rep.fibers_nonempty


def disjoint_sheets():
    """(base, cover, fold, flip): two disjoint copies of pres1 folded onto
    it, and the flip of the copies."""
    pres1 = bq(["1", "2", "3"],
               [("alpha", "2", "1"), ("beta", "3", "2"),
                ("gamma", "3", "2")],
               [[(["beta", "alpha"], 1)]])
    sheets = bq(["1a", "2a", "3a", "1b", "2b", "3b"],
                [("alpha_a", "2a", "1a"), ("beta_a", "3a", "2a"),
                 ("gamma_a", "3a", "2a"),
                 ("alpha_b", "2b", "1b"), ("beta_b", "3b", "2b"),
                 ("gamma_b", "3b", "2b")],
                [[(["beta_a", "alpha_a"], 1)],
                 [(["beta_b", "alpha_b"], 1)]])
    fold = QuiverMorphism(sheets, pres1,
                          {w + s: w for w in "123" for s in "ab"},
                          {n + "_" + s: n
                           for n in ("alpha", "beta", "gamma")
                           for s in "ab"})
    flip = QuiverMorphism(sheets, sheets,
                          {w + s: w + o for w in "123"
                           for s, o in (("a", "b"), ("b", "a"))},
                          {n + "_" + s: n + "_" + o
                           for n in ("alpha", "beta", "gamma")
                           for s, o in (("a", "b"), ("b", "a"))})
    return pres1, sheets, fold, flip


def test_disjoint_sheets_fold():
    pres1, sheets, fold, flip = disjoint_sheets()
    tp, ts = enumerate_paths(pres1), enumerate_paths(sheets)
    action = GroupAction(ts, [identity_morphism(sheets), flip])
    rep = check_galois(tp, ts, fold, action)
    assert rep.galois_ok
    cxp, cxs = cxof(tp), cxof(ts)
    assert cxp.counts() == [3, 4, 1]
    assert cxs.counts() == [6, 8, 2]
    lift = lift_complex_map(cxp, cxs, rep)
    assert lift.ok
    assert all(len(f) == 2 for fib in lift.cell_fibers.values()
               for f in fib.values())
    # the deck group of a disconnected cover is not defined here
    with pytest.raises(NotGalois):
        deck_group(cxp, cxs, lift)


def test_morphism_validation():
    with pytest.raises(MalformedMorphism):
        QuiverMorphism(COVER, RP2, VMAP, dict(AMAP, a1x="alpha2"))
    with pytest.raises(MalformedMorphism):
        QuiverMorphism(COVER, RP2,
                       {k: v for k, v in VMAP.items() if k != "x1"}, AMAP)


# the voltage covers: Galois by construction


@functools.cache
def voltage_cases():
    """Per voltage cover: (k, projection, shifts, base and cover complexes)."""
    cases = []
    for base, k, cover, proj, shifts in voltage_covers()[0]:
        cases.append((k, proj, shifts, cxof(enumerate_paths(base)),
                      cxof(enumerate_paths(cover))))
    return cases


def test_voltage_cover_counts():
    covers, skipped = voltage_covers()
    connected = sum(c[2].is_connected() for c in covers)
    assert (connected, len(covers) - connected, skipped) == (109, 107, 83)


def test_voltage_covers_satisfy_the_covering_theorem():
    for k, proj, shifts, cxb, cxc in voltage_cases():
        rep = check_galois(cxb.table, cxc.table, proj,
                           GroupAction(cxc.table, shifts))
        assert rep.galois_ok, rep.witnesses
        lift = lift_complex_map(cxb, cxc, rep)
        assert lift.ok, lift.witnesses
        assert all(len(f) == k for fibers in lift.cell_fibers.values()
                   for f in fibers.values())
        if cxb.cut_at is None and cxc.cut_at is None:
            assert euler_characteristic(cxc) == \
                k * euler_characteristic(cxb)
        if cxc.table.quiver.is_connected():
            deck = deck_group(cxb, cxc, lift)
            assert deck.ok and deck.order == k
        else:
            with pytest.raises(NotGalois):
                deck_group(cxb, cxc, lift)


# the chained checks against the rechecking oracles

LIFT_FIELDS = ("ok", "class_correspondence", "cell_map", "faces_commute",
               "incidence_bijections", "cell_fibers", "witnesses")
DECK_FIELDS = ("ok", "order", "maps", "automorphisms", "compatible",
               "distinct", "transitive", "base_point", "fiber", "witnesses")
# what follows from the incidence verdict
INCIDENCE_FIELDS = ("ok", "incidence_bijections", "witnesses")


def outcome(fn, *args):
    """The result of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (QuiverError, NotACovering, NotGalois, ValueError) as e:
        return type(e).__name__, str(e)


def fields(report, names, skip=()):
    if isinstance(report, tuple):
        return report
    return {f: getattr(report, f) for f in names if f not in skip}


def repeats_a_vertex(cx):
    cl = cx.classes
    return any(len({cl.class_source[key[0]]}
                   | {cl.class_target[k] for k in key}) <= len(key)
               for layer in cx.keys[1:] for key in layer)


def not_incidence(witnesses):
    return [w for w in witnesses if not w.startswith("cells at ")]


def compare_with_oracle(cxb, cxc, p, elements=None):
    """Assert that the chained checks agree with the oracles; True when
    they differ in the incidence verdict alone."""
    tb, tc = cxb.table, cxc.table
    if elements is None:
        rep = check_covering(tb, tc, p)
    else:
        action = outcome(GroupAction, tc, elements)
        old_action = outcome(TabledGroupAction, tc, elements)
        if isinstance(action, tuple) or isinstance(old_action, tuple):
            assert action == old_action
            return False
        rep = check_galois(tb, tc, p, action)
    lift = outcome(lift_complex_map, cxb, cxc, rep)
    old_lift = outcome(rechecked_lift, cxb, cxc, p)
    flipped = isinstance(lift, CellMapReport) and \
        lift.incidence_bijections != old_lift.incidence_bijections
    skip = INCIDENCE_FIELDS if flipped else ()
    if flipped:
        assert repeats_a_vertex(cxb) or repeats_a_vertex(cxc)
        assert not_incidence(lift.witnesses) == \
            not_incidence(old_lift.witnesses)
    assert fields(lift, LIFT_FIELDS, skip) == \
        fields(old_lift, LIFT_FIELDS, skip)
    if elements is not None and isinstance(lift, CellMapReport):
        deck = outcome(deck_group, cxb, cxc, lift)
        old_deck = outcome(rechecked_deck_group, cxb, cxc, p, old_action)
        skip = ("ok", "witnesses") if flipped else ()
        assert fields(deck, DECK_FIELDS, skip) == \
            fields(old_deck, DECK_FIELDS, skip)
    return flipped


def perturbed(proj, rng):
    """The projection with one cover arrow, then one whole arrow fiber,
    sent to another base arrow between the same vertices."""
    base = proj.target
    parallel = {a.name: [b.name for b in base.arrows_from[a.source]
                         if b.target == a.target and b.name != a.name]
                for a in base.arrows}
    names = sorted(n for n, img in proj.arrow_map.items() if parallel[img])
    if not names:
        return []
    one = rng.choice(names)
    fiber = proj.arrow_map[rng.choice(names)]
    swap = rng.choice(parallel[fiber])
    amaps = [dict(proj.arrow_map, **{one: rng.choice(
                 parallel[proj.arrow_map[one]])}),
             {n: swap if img == fiber else img
              for n, img in proj.arrow_map.items()}]
    return [QuiverMorphism(proj.source, base, proj.vertex_map, amap)
            for amap in amaps]


def test_chained_checks_agree_with_the_oracles_on_voltage_covers():
    rng = random.Random(SEED + 4)
    flips = {"covers": 0, "perturbed": 0, "subsets": 0}
    counts = {"covers": 0, "perturbed": 0, "subsets": 0}
    for k, proj, shifts, cxb, cxc in voltage_cases():
        runs = [("covers", proj, shifts)]
        runs += [("perturbed", p, shifts) for p in perturbed(proj, rng)]
        runs += [("subsets", proj, subset) for r in range(1, k + 1)
                 for subset in itertools.combinations(shifts, r)]
        runs.append(("subsets", proj, shifts + shifts[:1]))
        for kind, p, elements in runs:
            counts[kind] += 1
            flips[kind] += compare_with_oracle(cxb, cxc, p, elements)
    assert counts == {"covers": 216, "perturbed": 210, "subsets": 1240}
    # only covers of quivers with a loop or an oriented cycle have cells
    # through one vertex twice; on two connected covers of the one-vertex
    # quivers of `oracles.CYCLIC` the oracle's vertex sets miss the second
    # incidence (and again on the two subsets of each that form a group)
    assert flips == {"covers": 2, "perturbed": 0, "subsets": 4}


def test_chained_checks_agree_with_the_oracles_on_hand_made_cases():
    cxb, cxc = cxof(TB), cxof(TC)
    ident = identity_morphism(COVER)
    half = QuiverMorphism(
        COVER, COVER,
        {"x3": "y3", "y3": "x3", "x2": "y2", "y2": "x2",
         "x1": "x1", "y1": "y1"},
        {"a1x": "a1y", "a1y": "a1x", "b1x": "b1y", "b1y": "b1x",
         "a2x": "b2y", "b2y": "a2x", "b2x": "a2y", "a2y": "b2x"})
    for elements in ([ident, SWAP], [ident], [ident, half], None):
        assert not compare_with_oracle(cxb, cxc, P, elements)
    pid = identity_morphism(RP2)
    assert not compare_with_oracle(cxb, cxb, pid, [pid])
    t2, t6 = enumerate_paths(TWO), enumerate_paths(HEXA)
    rot = [identity_morphism(HEXA), ROT, ROT2]
    assert not compare_with_oracle(cxof(t2), cxof(t6), PH, rot)
    cover7, p7 = broken_cover()
    assert not compare_with_oracle(cxb, cxof(enumerate_paths(cover7)), p7)
    base, cover, into = ideal_failure()
    assert not compare_with_oracle(cxof(enumerate_paths(base)),
                                   cxof(enumerate_paths(cover)), into)
    pres1, sheets, fold, flip = disjoint_sheets()
    assert not compare_with_oracle(
        cxof(enumerate_paths(pres1)), cxof(enumerate_paths(sheets)), fold,
        [identity_morphism(sheets), flip])
    # the loop's one-cell meets its vertex at both ends: here alone the
    # incidence verdicts differ, and the oracle's is the wrong one
    loop, cycle = (parse((FIXTURES / name).read_text())
                   for name in ("loop.bq", "loop_cycle3.bq"))
    p3 = parse_morphism((FIXTURES / "loop_cycle3.map").read_text(),
                        cycle, loop)
    rotations = parse_group((FIXTURES / "loop_rotations.grp").read_text(),
                            cycle)
    cxl, cx3 = cxof(enumerate_paths(loop)), cxof(enumerate_paths(cycle))
    assert compare_with_oracle(cxl, cx3, p3, rotations)
    lift = lift_complex_map(cxl, cx3, check_galois(
        cxl.table, cx3.table, p3, GroupAction(cx3.table, rotations)))
    assert lift.ok and deck_group(cxl, cx3, lift).ok


def test_group_actions_accept_and_reject_like_the_oracle():
    t6 = enumerate_paths(HEXA)
    ident6 = identity_morphism(HEXA)
    routes = bq(["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "4"),
                 ("c", "1", "3"), ("d", "3", "4")], [[(["a", "b"], 1)]])
    tr = enumerate_paths(routes)
    mirror = QuiverMorphism(routes, routes,
                            {"1": "1", "2": "3", "3": "2", "4": "4"},
                            {"a": "c", "c": "a", "b": "d", "d": "b"})
    sheets = bq(["1a", "1b"], [])
    onto_a = QuiverMorphism(sheets, sheets, {"1a": "1a", "1b": "1a"}, {})
    cases = [
        (t6, []),
        (t6, [ident6, identity_morphism(TWO)]),
        (t6, [ident6, ROT]),
        (t6, [ROT, ROT2]),
        (t6, [ident6, ident6]),
        (t6, [ident6, ROT, ROT2]),
        (t6, [ROT2, ident6, ROT]),
        (tr, [identity_morphism(routes), mirror]),
        (enumerate_paths(sheets), [identity_morphism(sheets), onto_a]),
        (TC, [identity_morphism(COVER), SWAP]),
    ]
    seen = []
    for table, elements in cases:
        got = outcome(GroupAction, table, elements)
        want = outcome(TabledGroupAction, table, elements)
        if isinstance(want, tuple):
            assert got == want
            seen.append(want[1])
        else:
            assert got.elements == want.elements
            seen.append("accepted")
    assert seen == [
        "group action needs at least the identity",
        "group element is not a self-map of the cover quiver",
        "group action is not closed under composition",
        "group action lacks the identity",
        "duplicate group elements",
        "accepted", "accepted",
        "group element does not preserve the ideal: relation a*b",
        "group element is not bijective on vertices",
        "accepted"]
