"""Acceptance gate: eleven pinned scenarios, one verdict line each.

Every test hardcodes the expected values for one scenario from the
corpus, so `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion.  Criterion 1 checks the published figure of nine
two-cells for the three-route fan as what it counts: live
representative pairs (u, v), u and v members of non-identity classes
with u*v outside the ideal.  Two of those pairs, (alpha, beta2*gamma2)
and (alpha, beta3*gamma3), pass through the one merged class of the
two-step routes and so name the same cell.  The test enumerates the
pairs from class members and the ideal alone, then pins the complex to
their eight distinct class pairs, counts (6, 11, 8, 2) and Euler
characteristic 1, matching the homology (Z, 0, 0, 0).
"""

import pathlib
import sys

from bqtop import (GroupAction, HochschildComplex, abelianization,
                   build_complex, check_galois, deck_group, enumerate_paths,
                   epsilon_mu, euler_characteristic, find_semi_normed_basis,
                   homology, lift_complex_map,
                   natural_homotopy_classes, parse, parse_group,
                   parse_morphism, phi_psi_maps, pi1_presentation,
                   simplicial_complex, van_kampen_pushout,
                   verify_semi_normed_basis, walk_homotopy_classes)
from oracles import class_paths, compose

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


def load(name):
    q = parse((CORPUS / (name + ".bq")).read_text())
    return q, enumerate_paths(q)


def groups_z(table, classes):
    return homology(build_complex(table, classes), "Z").groups


def test_acceptance_01_three_route_fan_cell_counts():
    q, t = load("ex3")
    nat = natural_homotopy_classes(t)
    # the three parallel two-step routes fall into one merged class ...
    level2 = [q.path([b, g]) for b, g in
              [("beta1", "gamma1"), ("beta2", "gamma2"),
               ("beta3", "gamma3")]]
    assert len({nat.class_of(p) for p in level2}) == 1
    # ... so the two-cell written through either route is the same cell
    cx = build_complex(t, nat)
    alpha = nat.class_of(q.path(["alpha"]))
    merged = nat.class_of(level2[1])
    pairs = cx.keys[2]
    assert pairs.count((alpha, merged)) == 1
    # enumerate the definition directly: a live representative pair is
    # (u, v) with u, v members of non-identity classes and u*v outside I
    proper = [cid for cid in range(len(nat))
              if not any(p.is_stationary for p in class_paths(nat, cid))]
    live = []
    for a in proper:
        for b in proper:
            for u in class_paths(nat, a):
                for v in class_paths(nat, b):
                    if u.target != v.source or len(u) + len(v) > t.bound:
                        continue
                    if t.position(compose(u, v)) not in t.in_ideal:
                        live.append((a, b))
    # the published figure counts these pairs ...
    assert len(live) == 9
    # ... but a 2-cell is a class pair, and only eight are distinct
    assert set(live) == set(pairs)
    assert tuple(cx.counts()) == (6, 11, 8, 2)
    assert euler_characteristic(cx) == 1


def test_acceptance_02_one_relation_collapses_in_the_total_variant():
    q, t = load("ex1")
    nat = natural_homotopy_classes(t)
    walk = walk_homotopy_classes(t)
    beta, gamma = q.path(["beta"]), q.path(["gamma"])
    assert nat.class_of(beta) != nat.class_of(gamma)
    assert walk.class_of(beta) == walk.class_of(gamma)
    assert build_complex(t, nat).counts()[2] == 2
    assert build_complex(t, walk).counts()[2] == 1


def test_acceptance_03_sphere_space_with_no_semi_normed_basis():
    q, t = load("nosn")
    assert groups_z(t, natural_homotopy_classes(t)) == \
        ((1, ()), (0, ()), (1, ()))
    assert groups_z(t, walk_homotopy_classes(t)) == \
        ((1, ()), (0, ()), (0, ()))
    found = find_semi_normed_basis(t)
    assert not found.ok and len(found.witnesses) > 0


def test_acceptance_04_cube_shell_versus_solid_cube():
    q, t = load("sphere")
    assert groups_z(t, natural_homotopy_classes(t)) == \
        ((1, ()), (0, ()), (1, ()))
    q2, t2 = load("sphere_solid")
    assert groups_z(t2, natural_homotopy_classes(t2)) == \
        ((1, ()), (0, ()), (0, ()), (0, ()))


def test_acceptance_05_fundamental_group_and_pushout():
    q, t = load("vk")
    assert abelianization(pi1_presentation(t)) == (1, [2])
    res = van_kampen_pushout(t, ["2", "3", "4", "5", "6"], ["1", "2", "3"])
    assert abelianization(res.piece1) == (2, [])
    assert abelianization(res.piece2) == (0, [2])
    assert abelianization(res.intersection) == (1, [])
    assert abelianization(res.pushout) == (1, [2])


def test_acceptance_06_two_sheeted_cover_of_the_projective_plane():
    base, tb = load("rp2")
    cover, tc = load("rp2_cover")
    p = parse_morphism((CORPUS / "rp2_morphism.map").read_text(),
                       cover, base)
    action = GroupAction(tc, parse_group(
        (CORPUS / "rp2_group.grp").read_text(), cover))
    rep = check_galois(tb, tc, p, action)
    assert rep.ok and rep.galois_ok and rep.group_order == 2
    cxb = build_complex(tb, natural_homotopy_classes(tb))
    cxc = build_complex(tc, natural_homotopy_classes(tc))
    assert homology(cxb, "Z").groups == ((1, ()), (0, (2,)), (0, ()))
    assert homology(cxc, "Z").groups == ((1, ()), (0, ()), (1, ()))
    lift = lift_complex_map(cxb, cxc, rep)
    assert lift.ok
    assert all(len(f) == 2
               for fibers in lift.cell_fibers.values()
               for f in fibers.values())
    deck = deck_group(cxb, cxc, lift)
    assert deck.ok and deck.order == 2 and deck.transitive
    chi = lambda cx: sum((-1) ** n * c for n, c in enumerate(cx.counts()))
    assert chi(cxc) == 2 * chi(cxb)


def test_acceptance_07_homology_depends_on_the_presentation():
    # identical basis vectors over both ideals: identities, the three
    # arrows, and gamma*alpha as the length-two vector
    out = {}
    for name in ("pres1", "pres2"):
        q, t = load(name)
        a = verify_semi_normed_basis(
            t, [q.path(["alpha"]), q.path(["beta"]), q.path(["gamma"]),
                q.path(["gamma", "alpha"])])
        assert a.ok
        out[name] = homology(simplicial_complex(a), "Z").groups
    assert out["pres1"][1] == (1, ())
    assert out["pres2"][1] == (0, ())


def test_acceptance_08_projection_kernel_ranks_and_chain_isomorphism():
    q, t = load("ker")
    nat = natural_homotopy_classes(t)
    cx = build_complex(t, nat)
    cw = build_complex(t, walk_homotopy_classes(t))
    a = find_semi_normed_basis(t, nat)
    assert a.ok
    rep = phi_psi_maps(a, cx, cw)
    assert rep.phi_chain_map and rep.psi_chain_map and rep.iso
    assert rep.sharp_chain_map and rep.sharp_epi
    assert rep.kernel_ranks == (0, 7, 10, 3)
    assert homology(simplicial_complex(a), "Z").groups == homology(cx, "Z").groups


def test_acceptance_09_cohomology_gap_and_agreement():
    q, t = load("hhgap")
    a = find_semi_normed_basis(t)
    rep = epsilon_mu(a, simplicial_complex(a), HochschildComplex(a, "Q"))
    assert [d["sh"] for d in rep.degrees][:3] == [1, 1, 0]
    assert [d["hh"] for d in rep.degrees] == [1, 1, 1, 0]
    assert not rep.semi_commutative
    assert rep.degrees[2]["surjective"] is False
    assert not rep.iso

    q2, t2 = load("hheq")
    a2 = find_semi_normed_basis(t2)
    rep2 = epsilon_mu(a2, simplicial_complex(a2),
                      HochschildComplex(a2, "Q"))
    assert [d["sh"] for d in rep2.degrees] == [1, 1, 0, 0, 0, 0]
    assert [d["hh"] for d in rep2.degrees] == [1, 1, 0, 0, 0, 0]
    assert rep2.iso


def test_acceptance_10_randomized_invariant_suites():
    import test_properties as props

    props.test_boundary_squares_to_zero()
    props.test_euler_count_matches_betti_sum()
    props.test_h1_abelianizes_pi1()
    props.test_semi_normed_pipeline_matches_cells()
    props.test_hochschild_differential_squares_to_zero()
    props.test_comparison_map_contracts()
    props.test_monomial_space_is_the_graph()
    assert len(props.SAMPLES) >= 200


def test_acceptance_11_monomial_family_tree_criterion():
    import test_properties as props

    props.test_monomial_family_tree_detects_vanishing()
