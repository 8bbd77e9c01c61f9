"""Semi-normed bases, simplicial SC/SH, Hochschild cohomology, epsilon/mu."""

import pathlib
import random
from fractions import Fraction

import pytest

from bqtop.algcohom import (FieldMismatch, HochschildComplex,
                            SemiNormedAlgebra, TriangularRequired, _chain_map,
                            _mutually_inverse, epsilon_mu,
                            find_semi_normed_basis, hochschild_cup,
                            phi_psi_maps, simplicial_complex,
                            verify_semi_normed_basis)
from bqtop.complex import build_complex, cohomology, cup_product, homology
from bqtop.core import BoundQuiver, Path, QuiverError, enumerate_paths
from bqtop.dsl import parse
from bqtop.homotopy import natural_homotopy_classes, walk_homotopy_classes
from oracles import (_commutes, _is_inverse, column_phi_psi_maps,
                     commuting_squares, sparse_transpose)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def setup(vertices, arrows, rels=()):
    t = enumerate_paths(BoundQuiver(vertices, arrows, rels))
    return t, natural_homotopy_classes(t)


def elt_strs(alg, idxs):
    return tuple(str(alg.table.paths[i]) for i in idxs)


def elt(alg, path):
    """The basis element of `alg` at a path, which must be one."""
    i = alg.table.position(path)
    assert i in alg.basis
    return i


def test_pres1_basis_and_sh():
    t, n = setup(["1", "2", "3"],
                 [("alpha", "2", "1"), ("beta", "3", "2"),
                  ("gamma", "3", "2")],
                 [[(["beta", "alpha"], 1)]])
    a = find_semi_normed_basis(t, n)
    assert a.ok
    assert sorted(elt_strs(a, a.basis)) == sorted(
        ["e_1", "e_2", "e_3", "alpha", "beta", "gamma", "gamma*alpha"])
    s = simplicial_complex(a)
    assert s.counts() == [3, 4, 1]
    # SC's keys are class tuples, each class holding one element
    assert [elt_strs(a, map(a.members.__getitem__, key))
            for key in s.keys[2]] == [("gamma", "alpha")]
    assert homology(s, "Z").groups == ((1, ()), (1, ()), (0, ()))


def test_pres2_basis_and_sh():
    t, n = setup(["1", "2", "3"],
                 [("alpha", "2", "1"), ("beta", "3", "2"),
                  ("gamma", "3", "2")],
                 [[(["beta", "alpha"], 1), (["gamma", "alpha"], -1)]])
    a = find_semi_normed_basis(t, n)
    assert a.ok
    assert sorted(elt_strs(a, a.basis)) == sorted(
        ["e_1", "e_2", "e_3", "alpha", "beta", "gamma", "beta*alpha"])
    s = simplicial_complex(a)
    assert s.counts() == [3, 4, 2]
    assert homology(s, "Z").groups == ((1, ()), (0, ()), (0, ()))
    # a user may pick gamma*alpha as the length-2 vector instead
    u = verify_semi_normed_basis(t, [t.quiver.path(["alpha"]),
                                     t.quiver.path(["beta"]),
                                     t.quiver.path(["gamma"]),
                                     t.quiver.path(["gamma", "alpha"])], n)
    assert u.ok
    su = simplicial_complex(u)
    assert su.counts() == [3, 4, 2]
    assert homology(su, "Z").groups == homology(s, "Z").groups


def test_non_unit_structure_constants_in_both_directions():
    # 2*a*c = 3*b*c in A: with a*c in the basis b.c = 2/3 a*c, with b*c
    # in it a.c = 3/2 b*c; a sign or an inversion slip changes either
    t, n = setup(["1", "2", "3"],
                 [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")],
                 [[(["a", "c"], 2), (["b", "c"], -3)]])
    q = t.quiver

    def times(alg, x, y):
        lam, k = alg.product[(elt(alg, q.path([x])), elt(alg, q.path([y])))]
        return lam, str(t.paths[k])

    found = find_semi_normed_basis(t, n)
    assert found.ok
    assert times(found, "b", "c") == (Fraction(2, 3), "a*c")
    assert times(found, "a", "c") == (Fraction(1), "a*c")
    user = verify_semi_normed_basis(
        t, [q.path(["a"]), q.path(["b"]), q.path(["c"]), q.path(["b", "c"])],
        n)
    assert user.ok
    assert times(user, "a", "c") == (Fraction(3, 2), "b*c")
    assert times(user, "b", "c") == (Fraction(1), "b*c")


NOSN_DATA = (["x1", "x2", "x3"],
             [("a1", "x1", "x2"), ("b1", "x1", "x2"),
              ("a2", "x2", "x3"), ("b2", "x2", "x3")],
             [[(["a1", "b2"], 1), (["b1", "b2"], 1), (["b1", "a2"], -1)],
              [(["a1", "a2"], 1), (["b1", "a2"], 1), (["b1", "b2"], -1)]])


def test_nosn_has_no_semi_normed_basis():
    t, n = setup(*NOSN_DATA)
    f = find_semi_normed_basis(t, n)
    assert not f.ok
    assert any("(x1,x3): 1 basis elements for dimension 2" in w
               for w in f.witnesses)


def test_user_basis_path_outside_the_quiver_raises():
    # a hand-built Path skips the checks of quiver.path; an unknown arrow
    # within the bound or past it, a broken path and a wrong end are all
    # named, not a KeyError or a witness "lies in the ideal"
    t = enumerate_paths(parse((CORPUS / "pres1.bq").read_text()))
    q = t.quiver
    arrows = [q.path([a.name]) for a in q.arrows]
    for bad, message in [
            (Path("1", "2", ("nosuch",)), "unknown arrow 'nosuch'"),
            (Path("1", "2", ("nosuch",) * (t.bound + 1)),
             "unknown arrow 'nosuch'"),
            (Path("2", "2", ("alpha", "beta")), "breaks at 'beta'"),
            (Path("2", "3", ("alpha",)), "does not end at 3")]:
        with pytest.raises(QuiverError, match=message):
            verify_semi_normed_basis(t, arrows + [bad])


def test_nosn_user_basis_fails_closure():
    t, n = setup(*NOSN_DATA)
    q = t.quiver
    u = verify_semi_normed_basis(
        t, [q.path(["a1"]), q.path(["b1"]), q.path(["a2"]), q.path(["b2"]),
            q.path(["a1", "a2"]), q.path(["b1", "b2"])], n)
    assert not u.ok
    assert any("b1 * a2 expands with 2" in w for w in u.witnesses)


def test_nosn_user_basis_fails_independence():
    t, n = setup(*NOSN_DATA)
    q = t.quiver
    u = verify_semi_normed_basis(
        t, [q.path(["a1"]), q.path(["b1"]), q.path(["a2"]), q.path(["b2"]),
            q.path(["a1", "a2"]), q.path(["a1", "b2"])], n)
    assert not u.ok
    assert any("linearly dependent" in w for w in u.witnesses)


def ker():
    t, n = setup(["1", "2", "3", "4", "5", "6"],
                 [("a1", "6", "5"), ("a2", "6", "5"), ("b1", "4", "2"),
                  ("b2", "5", "2"), ("b3", "5", "3"),
                  ("g1", "2", "1"), ("g2", "2", "1")],
                 [[(["a1", "b3"], 1), (["a2", "b3"], -1)],
                  [(["b1", "g1"], 1), (["b1", "g2"], -1)]])
    return t, n, find_semi_normed_basis(t, n)


def test_ker_phi_psi():
    t, n, a = ker()
    assert a.ok
    assert len(a.non_identity) == 17
    s = simplicial_complex(a)
    assert s.counts() == [6, 17, 16, 4]
    c = build_complex(t, n)
    cw = build_complex(t, walk_homotopy_classes(t))
    rep = phi_psi_maps(a, c, cw)
    assert rep.phi_chain_map and rep.psi_chain_map and rep.iso
    assert rep.sharp_chain_map and rep.sharp_epi
    assert rep.kernel_ranks == (0, 7, 10, 3)
    assert homology(s, "Z").groups == homology(c, "Z").groups


def hhgap():
    t, n = setup(["1", "2", "3"],
                 [("alpha", "1", "2"), ("beta", "2", "3"),
                  ("gamma", "1", "3")],
                 [[(["alpha", "beta"], 1)]])
    a = find_semi_normed_basis(t, n)
    return a, simplicial_complex(a), HochschildComplex(a, "Q")


def test_hochschild_gap():
    a, s, h = hhgap()
    assert a.ok
    assert s.counts() == [3, 3]
    assert cohomology(s, "Q").groups == (1, 1)
    assert h.dims() == [3, 3, 1]
    assert h.hh_dims() == [1, 1, 1, 0]
    assert HochschildComplex(a, "Fp:5").hh_dims() == [1, 1, 1, 0]
    rep = epsilon_mu(a, s, h)
    assert rep.mu_eps_identity
    assert rep.eps_cochain_map
    assert rep.schurian and rep.mu_cochain_map
    assert not rep.semi_commutative
    assert not rep.eps_mu_identity
    assert rep.degrees[2]["surjective"] is False
    assert [(d["sh"], d["hh"]) for d in rep.degrees[:3]] == \
        [(1, 1), (1, 1), (0, 1)]
    assert not rep.iso


def hheq():
    t, n = setup(["1", "2", "3", "4", "5", "6"],
                 [("a1", "6", "4"), ("a2", "4", "3"), ("a3", "3", "2"),
                  ("a4", "2", "1"), ("b1", "6", "5"), ("b2", "5", "1")],
                 [[(["a1", "a2"], 1)], [(["a3", "a4"], 1)]])
    a = find_semi_normed_basis(t, n)
    return a, simplicial_complex(a), HochschildComplex(a, "Q")


def test_hochschild_equal_without_semicommutativity():
    a, s, h = hheq()
    assert a.ok
    assert h.hh_dims()[:5] == [1, 1, 0, 0, 0]
    assert cohomology(s, "Q").groups == (1, 1, 0)
    rep = epsilon_mu(a, s, h)
    assert rep.schurian
    assert not rep.semi_commutative
    assert rep.mu_eps_identity and rep.eps_cochain_map and rep.mu_cochain_map
    assert not rep.eps_mu_identity
    assert rep.iso


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


def cube():
    t, n = setup([str(i) for i in range(1, 9)], CUBE_ARROWS, CUBE_SQUARES)
    a = find_semi_normed_basis(t, n)
    return a, simplicial_complex(a), HochschildComplex(a, "Q")


def test_cube_incidence_algebra_iso():
    a, s, h = cube()
    assert a.ok
    assert s.counts() == [8, 19, 18, 6]
    assert h.hh_dims()[:4] == [1, 0, 0, 0]
    rep = epsilon_mu(a, s, h)
    assert rep.schurian and rep.semi_commutative
    assert rep.eps_mu_identity and rep.mu_cochain_map
    assert rep.iso


def test_monomial_tree_cycle_spot_checks():
    # radical-square-zero chain: underlying tree, chi = 0
    t, n = setup(["1", "2", "3"],
                 [("a", "1", "2"), ("b", "2", "3")],
                 [[(["a", "b"], 1)]])
    a = find_semi_normed_basis(t, n)
    assert HochschildComplex(a, "Q").hh_dims()[:3] == [1, 0, 0]
    # alternating 4-cycle: underlying circle, chi = 1
    t, n = setup(["1", "2", "3", "4"],
                 [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4"),
                  ("d", "1", "4")])
    a = find_semi_normed_basis(t, n)
    assert HochschildComplex(a, "Q").hh_dims()[:3] == [1, 1, 0]


def eps_apply(em, n, sc, hc, fdict):
    """Push a simplicial cochain through the sparse epsilon columns."""
    cols = sc.keys[n] if n <= sc.top_dim() else []
    out = {}
    for c, t in enumerate(cols):
        for r, lam in em.eps[n][c].items():
            pair = hc.bases[n][r]
            out[pair] = out.get(pair, 0) + Fraction(lam) * fdict.get(t, 0)
    return {pair: s for pair, s in out.items() if s}


@pytest.mark.parametrize("factory", [hheq, cube])
def test_epsilon_preserves_cup_products(factory):
    a, s, h = factory()
    em = epsilon_mu(a, s, h)
    rng = random.Random(11)
    for _ in range(6):
        f = {t: rng.randint(-3, 3) for t in s.keys[1]}
        g = {t: rng.randint(-3, 3) for t in s.keys[1]}
        lhs = eps_apply(em, 2, s, h, cup_product(s, 1, f, 1, g))
        rhs = hochschild_cup(h, 1, eps_apply(em, 1, s, h, f),
                             1, eps_apply(em, 1, s, h, g))
        assert ({k: Fraction(v) for k, v in lhs.items() if v} ==
                {k: Fraction(v) for k, v in rhs.items() if v})


def test_cycle_raises():
    t, n = setup(["u", "v"], [("s", "u", "v"), ("t", "v", "u")],
                 [[(["s", "t"], 1)], [(["t", "s"], 1)]])
    with pytest.raises(TriangularRequired):
        find_semi_normed_basis(t, n)


def test_field_mismatch_raises():
    a1, s1, h1 = hhgap()
    _, s2, h2 = hheq()
    with pytest.raises(FieldMismatch):
        epsilon_mu(a1, s2, h2)


def test_epsilon_mu_refuses_a_complex_other_than_the_algebras_sc():
    # B(Q,I) has SC's table and classes but grows from every member; a
    # user basis of the same table grows SC from other members
    t, n = setup(["1", "2", "3"],
                 [("alpha", "2", "1"), ("beta", "3", "2"),
                  ("gamma", "3", "2")],
                 [[(["beta", "alpha"], 1), (["gamma", "alpha"], -1)]])
    q = t.quiver
    a = find_semi_normed_basis(t, n)
    u = verify_semi_normed_basis(t, [q.path(["alpha"]), q.path(["beta"]),
                                     q.path(["gamma"]),
                                     q.path(["gamma", "alpha"])], n)
    h = HochschildComplex(a, "Q")
    assert epsilon_mu(a, simplicial_complex(a), h).eps_cochain_map
    su = simplicial_complex(u)
    cx = build_complex(t, n)
    assert su.keys == cx.keys == simplicial_complex(a).keys
    for other in (cx, su):
        with pytest.raises(FieldMismatch):
            epsilon_mu(a, other, h)
    assert epsilon_mu(u, su, HochschildComplex(u, "Q")).eps_cochain_map


def test_epsilon_mu_over_a_prime_dividing_a_structure_constant():
    # the basis takes a*b, so c*d = 3/2 a*b, which vanishes mod 3: mu would
    # have to invert 0 there
    t, n = setup(["1", "2", "3", "4"],
                 [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"),
                  ("d", "3", "4")],
                 [[(["a", "b"], 3), (["c", "d"], -2)]])
    a = find_semi_normed_basis(t, n)
    sc = simplicial_complex(a)
    hc = HochschildComplex(a, "Fp:3")
    assert hc.hh_dims() == [1, 1, 1, 0]
    with pytest.raises(ValueError, match=r"^structure constant 3/2 of c \* d "
                                         r"vanishes mod p = 3"):
        epsilon_mu(a, sc, hc)
    for field in ("Q", "Fp:5"):
        assert epsilon_mu(a, sc, HochschildComplex(a, field)).iso


def test_corrupted_sc_differential_fails_the_check():
    t, classes = setup(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = find_semi_normed_basis(t, classes)
    sc = simplicial_complex(alg)
    q = t.quiver
    i = elt(alg, q.path(["a"]))
    j = elt(alg, q.path(["b"]))
    # claim a*b = a: SC composes the basis paths, so its contraction face
    # of (a, b) stays (ab) and SC does not change, but the table is no
    # longer graded and HC refuses it
    alg.product[(i, j)] = (Fraction(1), i)
    again = simplicial_complex(alg)
    assert (again.keys, again.faces) == (sc.keys, sc.faces)
    assert again.faces[2] == [(1, 2, 0)]
    with pytest.raises(AssertionError, match="only for a graded product"):
        HochschildComplex(alg, "Q")


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_corrupted_hochschild_differential_fails_the_check(field):
    t, classes = setup(["1", "2", "3", "4"],
                       [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    alg = find_semi_normed_basis(t, classes)
    HochschildComplex(alg, field)
    q = t.quiver
    i = elt(alg, q.path(["a"]))
    j = elt(alg, q.path(["b"]))
    # claim a*b = 2ab: then (a*b)*c = 2abc but a*(b*c) = abc, and the
    # Hochschild differential squares to zero only for an associative
    # product
    alg.product[(i, j)] = (Fraction(2), alg.product[(i, j)][1])
    with pytest.raises(AssertionError, match="differential squares to zero"):
        HochschildComplex(alg, field)


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_corrupted_hochschild_column_breaks_the_epsilon_square(field):
    a, s, _ = cube()
    h = HochschildComplex(a, field)
    rep = epsilon_mu(a, s, h)
    # double an entry of d^1 between two pairs that epsilon reaches: then
    # delta(eps f) and eps(d f) differ on the simplicial 1-cochain f
    r, c = next((r, c) for r, row in enumerate(h.columns[2]) if rep.mu[2][r]
                for c in row if rep.mu[1][c])
    h.columns[2][r] = {**h.columns[2][r],
                       c: h.field.mul(h.field.of(2), h.columns[2][r][c])}
    with pytest.raises(AssertionError, match="epsilon must be a cochain map"):
        epsilon_mu(a, s, h)


def triangle(field):
    # a*b is parallel to c, so the pair ((c), a*b) lies outside eps(SC)
    # and the pair ((a, b), c) too
    t, n = setup(["1", "2", "3"],
                 [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    a = find_semi_normed_basis(t, n)
    s, h = simplicial_complex(a), HochschildComplex(a, field)
    rep = epsilon_mu(a, s, h)
    assert rep.eps_cochain_map and rep.mu_cochain_map
    return a, s, h, rep


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_entry_from_outside_eps_into_it_breaks_only_mu(field):
    a, s, h, rep = triangle(field)
    # a coboundary from a pair that epsilon misses into one it reaches
    # leaves the epsilon square alone and breaks the mu square
    r, c = next((r, c) for r in range(h.dims()[2]) if rep.mu[2][r]
                for c in range(h.dims()[1]) if not rep.mu[1][c])
    h.columns[2][r] = {**h.columns[2][r], c: h.field.one}
    assert commuting_squares(s, h, rep.eps, rep.mu) == (True, False)
    rep = epsilon_mu(a, s, h)
    assert (rep.eps_cochain_map, rep.mu_cochain_map) == (True, False)


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_entry_from_eps_out_of_it_breaks_epsilon(field):
    a, s, h, rep = triangle(field)
    # a coboundary from a pair that epsilon reaches into one it misses
    r, c = next((r, c) for r in range(h.dims()[2]) if not rep.mu[2][r]
                for c in range(h.dims()[1]) if rep.mu[1][c]
                and c not in h.columns[2][r])
    h.columns[2][r] = {**h.columns[2][r], c: h.field.one}
    assert commuting_squares(s, h, rep.eps, rep.mu) == (False, True)
    with pytest.raises(AssertionError, match="epsilon must be a cochain map"):
        epsilon_mu(a, s, h)


def test_a_table_that_breaks_a_unit_or_the_ends_fails_the_check():
    t, classes = setup(["1", "2", "3", "4"],
                       [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    alg = find_semi_normed_basis(t, classes)
    q = t.quiver
    i = elt(alg, q.path(["a"]))
    j = elt(alg, q.path(["b"]))
    e2 = alg.identity_index["2"]
    for key, wrong in [((i, e2), (2, i)), ((i, j), (1, i))]:
        right = alg.product[key]
        alg.product[key] = wrong
        with pytest.raises(AssertionError,
                           match="differential squares to zero"):
            HochschildComplex(alg, "Q")
        alg.product[key] = right
    HochschildComplex(alg, "Q")


def with_column(cols, k, col):
    """The map `cols` (sparse columns) with column k replaced by `col`."""
    out = list(cols)
    out[k] = col
    return out


def test_column_checks_catch_a_perturbed_epsilon_column():
    a, s, h = cube()
    rep = epsilon_mu(a, s, h)
    F = h.field
    d_sc = sparse_transpose(s.columns[2], s.counts()[1])
    d_hc = sparse_transpose(h.columns[2], h.dims()[1])
    eps, mu = rep.eps[1], rep.mu[1]
    assert _commutes(eps, rep.eps[2], d_sc, d_hc, F)
    assert _commutes(mu, rep.mu[2], d_hc, d_sc, F)
    assert _is_inverse(eps, mu, F) and _is_inverse(mu, eps, F)
    # scale a column whose cochain has a nonzero coboundary, so that one
    # side of each square changes and the other does not
    k, r = next((c, r) for c, col in enumerate(eps) for r in col if d_hc[r])
    bad = with_column(eps, k, {r: 2 * eps[k][r]})
    assert not _commutes(bad, rep.eps[2], d_sc, d_hc, F)
    assert not _is_inverse(bad, mu, F)
    assert not _is_inverse(mu, bad, F)
    bad = with_column(mu, r, {k: 2 * mu[r][k]})
    assert not _commutes(bad, rep.mu[2], d_hc, d_sc, F)
    assert not _is_inverse(eps, bad, F)
    assert not _is_inverse(bad, eps, F)


def test_column_checks_catch_a_perturbed_phi_column():
    # the column form of phi, as the maps were kept before they became
    # positions; twice a cell is a column that no position map can write
    t, n, a = ker()
    s = simplicial_complex(a)
    c = build_complex(t, n)
    rep = column_phi_psi_maps(a, c, build_complex(t, walk_homotopy_classes(t)))
    phi, psi = rep.phi[1], rep.psi[1]
    assert _commutes(phi, rep.phi[0], s.columns[1], c.columns[1])
    assert _is_inverse(phi, psi) and _is_inverse(psi, phi)
    # send arrow 0's tuple to a 1-cell with other ends, then to twice its
    # own cell: each breaks the square and the inverse pair
    (r,) = phi[0]
    other = next(j for j, col in enumerate(c.columns[1])
                 if col != c.columns[1][r])
    for col in ({other: 1}, {r: 2}):
        bad = with_column(phi, 0, col)
        assert not _commutes(bad, rep.phi[0], s.columns[1], c.columns[1])
        assert not _is_inverse(bad, psi)
        assert not _is_inverse(psi, bad)


def test_an_algebra_needs_one_element_per_class():
    # the walk classes of ker merge natural classes, so two basis
    # elements share a class and SC could not be grown from one each
    t, n, a = ker()
    assert sorted(a.members) == n.one_cell_classes()
    with pytest.raises(AssertionError, match="meets each nonzero "
                                             "non-identity class in one"):
        SemiNormedAlgebra(t, walk_homotopy_classes(t), a.basis, a.product)


def test_position_checks_catch_a_perturbed_phi_position():
    t, n, a = ker()
    s = simplicial_complex(a)
    c = build_complex(t, n)
    rep = phi_psi_maps(a, c, build_complex(t, walk_homotopy_classes(t)))
    phi, psi = rep.phi[1], rep.psi[1]
    assert _chain_map(rep.phi[0], phi, s.columns[1], c.columns[1])
    assert _mutually_inverse(phi, psi) and _mutually_inverse(psi, phi)
    # send arrow 0's tuple to a 1-cell with other ends, then to 0: each
    # breaks the square and the inverse pair
    r = phi[0]
    other = next(j for j, col in enumerate(c.columns[1])
                 if col != c.columns[1][r])
    for image in (other, None):
        bad = with_column(phi, 0, image)
        assert not _chain_map(rep.phi[0], bad, s.columns[1], c.columns[1])
        assert not _mutually_inverse(bad, psi)
        assert not _mutually_inverse(psi, bad)


def test_phi_psi_refuses_a_cut_complex():
    # cut at dimension 1, the natural complex of ker lacks the 2- and
    # 3-cells that the simplicial tuples of those degrees map to
    t, n, a = ker()
    cw = build_complex(t, walk_homotopy_classes(t))
    with pytest.raises(ValueError, match="got the natural complex cut at "
                       "dimension 1"):
        phi_psi_maps(a, build_complex(t, n, max_dim=1), cw)
    with pytest.raises(ValueError, match="got the walk complex cut at "
                       "dimension 2"):
        phi_psi_maps(a, build_complex(t, n), build_complex(
            t, walk_homotopy_classes(t), max_dim=2))


def test_phi_psi_refuses_swapped_complexes():
    t, n, a = ker()
    c = build_complex(t, n)
    cw = build_complex(t, walk_homotopy_classes(t))
    with pytest.raises(ValueError, match="got the walk complex as the "
                       "natural one"):
        phi_psi_maps(a, cw, c)
    with pytest.raises(ValueError, match="got the natural complex as the "
                       "walk one"):
        phi_psi_maps(a, c, c)


def test_phi_psi_refuses_complexes_of_another_table():
    # the same quiver enumerated again gives equal complexes on another
    # table, whose class ids the algebra's elements need not share
    t, n, a = ker()
    t2 = enumerate_paths(t.quiver)
    c2 = build_complex(t2, natural_homotopy_classes(t2))
    cw2 = build_complex(t2, walk_homotopy_classes(t2))
    with pytest.raises(ValueError, match="got a natural complex of another "
                       "path table"):
        phi_psi_maps(a, c2, build_complex(t, walk_homotopy_classes(t)))
    with pytest.raises(ValueError, match="got a walk complex of another path "
                       "table"):
        phi_psi_maps(a, build_complex(t, n), cw2)
