"""Semi-normed bases, simplicial homology of A, and Hochschild cohomology.

A semi-normed basis of A = kQ/I is a basis containing the identities and
the arrows and closed under multiplication up to scalars: for basis
elements s, s' either s s' = 0 or s s' = lambda * b(s, s') for a unique
basis element.  The finder takes one candidate per nonzero natural
homotopy class (its canonical representative) plus the identities, and
verifies counts, independence, and closure exactly against the path
table.  This candidate set succeeds whenever ANY semi-normed basis
exists: distinct basis elements have non-proportional representative
paths, and parallel nonzero paths with proportional images always lie in
one natural class (a two-term combination in the ideal whose single
terms are outside it merges them), so basis elements correspond
bijectively to nonzero classes.  A user-supplied basis of paths can be
checked with the same verifier.

From the basis: the simplicial complex SC has SC_0 = vertices and SC_n =
tuples of non-identity basis elements with nonzero product, with an
integer differential (drop first, contract adjacent products through the
structure table, drop last, alternating signs).  The Hochschild cochain
complex has degree-n basis indexed by (composable tuple of non-identity
basis elements, target basis element of the end-to-end slice) -- tuples
are kept even when their product vanishes -- with the standard
differential written through the structure constants.  The comparison
maps phi/psi (simplicial tuples vs cells of the classifying space),
phi-sharp (onto the total variant), and epsilon/mu (simplicial cochains
vs Hochschild cochains) are assembled as matrices with their identity
and chain-map properties checked rather than assumed.

The basis and all structure constants are computed exactly over the
rationals; choosing a prime field only changes the coefficient
arithmetic of the cochain ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import Path, algebra_properties, compose, path_sort_key
from .linalg import QQ, PrimeField, mat_mul, nullspace, rank, solve_in_span
from .complex import (check_square_zero, cohomology_of_matrices,
                      homology_of_matrices, parse_coefficients, sparse_column)
from .homotopy import natural_homotopy_classes

__all__ = [
    "TriangularRequired", "NoSemiNormedBasis", "FieldMismatch",
    "SemiNormedFailure", "SemiNormedAlgebra", "find_semi_normed_basis",
    "verify_semi_normed_basis", "SimplicialSC", "simplicial_complex",
    "sc_cup", "PhiPsiReport", "phi_psi_maps", "HochschildComplex",
    "hochschild_complex", "hochschild_cup", "EpsilonMuReport", "epsilon_mu",
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

    @property
    def ok(self):
        return False


@dataclass(frozen=True)
class BasisElement:
    index: int
    path: Path           # representative path p(v)
    scale: Fraction      # v = scale * image(p(v)); 1 for found bases

    @property
    def is_identity(self):
        return self.path.is_stationary

    def __str__(self):
        return "e_%s" % self.path.source if self.is_identity \
            else str(self.path)


class SemiNormedAlgebra:
    """A verified semi-normed basis with its structure table."""

    def __init__(self, table, classes, elements, product):
        self.table = table
        self.quiver = table.quiver
        self.classes = classes
        self.elements = tuple(elements)
        self.index_by_path = {e.path: e.index for e in self.elements}
        self.identity_index = {e.path.source: e.index
                               for e in self.elements if e.is_identity}
        self.non_identity = tuple(e.index for e in self.elements
                                  if not e.is_identity)
        self.by_pair = {}
        for e in self.elements:
            pair = (e.path.source, e.path.target)
            self.by_pair.setdefault(pair, []).append(e.index)
        self.product = product   # (i, j) -> None or (lambda, k)

    @property
    def ok(self):
        return True

    def source(self, i):
        return self.elements[i].path.source

    def target(self, i):
        return self.elements[i].path.target

    def product_of_tuple(self, elts):
        """Fold a composable tuple through the structure table.

        Returns None when the product vanishes, else (scalar, element).
        """
        lam = Fraction(1)
        acc = elts[0]
        for j in elts[1:]:
            step = self.product[(acc, j)]
            if step is None:
                return None
            lam *= step[0]
            acc = step[1]
        return lam, acc

    def element_class(self, i):
        """Natural class of the element's representative path."""
        return self.classes.class_of(self.elements[i].path)


def _pair_local_vector(table, pair, path):
    idxs = table.pair_paths[pair]
    vec = [Fraction(0)] * len(idxs)
    vec[idxs.index(table.index[path])] = Fraction(1)
    return vec


def _verify_and_build(table, classes, candidate_paths, witnesses):
    """Shared verifier: counts, independence, closure; builds the algebra."""
    q = table.quiver
    # counts and independence per vertex pair (identities always included)
    by_pair = {}
    for v in q.vertices:
        by_pair.setdefault((v, v), []).append(Path(v, v, ()))
    for p in candidate_paths:
        by_pair.setdefault((p.source, p.target), []).append(p)
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
        rows = [list(r) for r in table.ideal_rows.get(pair, [])]
        vecs = rows + [_pair_local_vector(table, pair, p) for p in cands]
        if rank(vecs, QQ) != len(vecs):
            witnesses.append(
                "pair (%s,%s): images of %s are linearly dependent mod the "
                "ideal" % (pair[0], pair[1],
                           ", ".join(str(p) for p in cands)))
    if witnesses:
        return SemiNormedFailure(tuple(witnesses))

    elements = [BasisElement(i, Path(v, v, ()), Fraction(1))
                for i, v in enumerate(q.vertices)]
    ordered = sorted(candidate_paths, key=lambda p: path_sort_key(q, p))
    for p in ordered:
        elements.append(BasisElement(len(elements), p, Fraction(1)))
    elt_pairs = {}
    for e in elements:
        elt_pairs.setdefault((e.path.source, e.path.target),
                             []).append(e.index)

    # expansion solvers per pair: basis images first, ideal rows after
    solver = {}
    for pair, idxs in elt_pairs.items():
        vecs = [_pair_local_vector(table, pair, elements[i].path)
                for i in idxs]
        vecs += [list(r) for r in table.ideal_rows.get(pair, [])]
        solver[pair] = vecs

    def expand(path):
        if len(path) > table.bound or table.path_in_ideal(path):
            return None
        pair = (path.source, path.target)
        coeffs = solve_in_span(solver[pair],
                               _pair_local_vector(table, pair, path), QQ)
        assert coeffs is not None, "basis must span its slice"
        terms = [(elt_pairs[pair][k], c)
                 for k, c in enumerate(coeffs[:len(elt_pairs[pair])])
                 if c != 0]
        if len(terms) != 1:
            return ("split", terms)
        return (Fraction(terms[0][1]), terms[0][0])

    product = {}
    for e1, e2 in itertools.product(elements, repeat=2):
        if e1.path.target != e2.path.source:
            continue
        key = (e1.index, e2.index)
        if e1.is_identity:
            product[key] = (Fraction(1), e2.index)
        elif e2.is_identity:
            product[key] = (Fraction(1), e1.index)
        else:
            got = expand(compose(e1.path, e2.path))
            if isinstance(got, tuple) and got[0] == "split":
                witnesses.append(
                    "product %s * %s expands with %d basis terms"
                    % (e1, e2, len(got[1])))
                continue
            product[key] = got
    if witnesses:
        return SemiNormedFailure(tuple(witnesses))
    return SemiNormedAlgebra(table, classes, elements, product)


def find_semi_normed_basis(table, classes=None):
    """One candidate per nonzero natural class, verified exactly."""
    if not table.quiver.is_acyclic():
        raise TriangularRequired(
            "semi-normed machinery requires a quiver without oriented "
            "cycles")
    if classes is None:
        classes = natural_homotopy_classes(table)
    candidates = [classes.class_rep[cid]
                  for cid in classes.one_cell_classes()]
    return _verify_and_build(table, classes, candidates, [])


def verify_semi_normed_basis(table, paths, classes=None):
    """Check a user-supplied basis (identities implied) with witnesses."""
    if not table.quiver.is_acyclic():
        raise TriangularRequired(
            "semi-normed machinery requires a quiver without oriented "
            "cycles")
    if classes is None:
        classes = natural_homotopy_classes(table)
    witnesses = []
    seen = []
    for p in paths:
        if p.is_stationary:
            continue  # identities are always included
        if p in seen:
            witnesses.append("duplicate basis path %s" % p)
            continue
        if table.path_in_ideal(p):
            witnesses.append("basis path %s lies in the ideal" % p)
            continue
        seen.append(p)
    given = set(seen)
    for a in table.quiver.arrows:
        ap = Path(a.source, a.target, (a.name,))
        if ap not in given:
            witnesses.append("arrow %s missing from the basis" % a.name)
    if witnesses:
        return SemiNormedFailure(tuple(witnesses))
    return _verify_and_build(table, classes, seen, witnesses)


# ---------------------------------------------------------------------------
# simplicial complex of the algebra


class SimplicialSC:
    """SC_0 = vertices; SC_n = basis tuples with nonzero product."""

    def __init__(self, algebra):
        self.algebra = algebra
        a = algebra
        q = a.quiver
        self.tuples = [[(v,) for v in q.vertices]]
        layer = [(i,) for i in a.non_identity]
        while layer:
            self.tuples.append(sorted(layer))
            grown = []
            for t in layer:
                for j in a.non_identity:
                    if a.target(t[-1]) != a.source(j):
                        continue
                    if a.product_of_tuple(t + (j,)) is not None:
                        grown.append(t + (j,))
            layer = grown
        # columns[n][c] = {row: coefficient}, the differential as sparse
        # columns; mats[n] is its dense view for the comparison maps
        self.columns = {}
        vx = {v: i for i, v in enumerate(q.vertices)}
        if len(self.tuples) > 1:
            self.columns[1] = [sparse_column([(vx[a.target(i)], 1),
                                              (vx[a.source(i)], -1)])
                               for (i,) in self.tuples[1]]
        for n in range(2, len(self.tuples)):
            low = {t: r for r, t in enumerate(self.tuples[n - 1])}
            cols = []
            for t in self.tuples[n]:
                terms = [(low[t[1:]], 1)]
                for j in range(1, n):
                    step = a.product[(t[j - 1], t[j])]
                    assert step is not None, \
                        "sub-product of a nonzero product cannot vanish"
                    contracted = t[:j - 1] + (step[1],) + t[j + 1:]
                    terms.append((low[contracted], (-1) ** j))
                terms.append((low[t[:-1]], (-1) ** n))
                cols.append(sparse_column(terms))
            self.columns[n] = cols
        check_square_zero(self.columns)
        self.mats = {}
        for n, cols in self.columns.items():
            mat = [[0] * len(cols) for _ in self.tuples[n - 1]]
            for c, col in enumerate(cols):
                for r, x in col.items():
                    mat[r][c] = x
            self.mats[n] = mat

    def counts(self):
        return [len(layer) for layer in self.tuples]

    def top_dim(self):
        return len(self.tuples) - 1

    def dims_mats(self):
        dims = {n: len(layer) for n, layer in enumerate(self.tuples)}
        return dims, self.mats

    def sh(self, coeff="Z"):
        dims, _ = self.dims_mats()
        return homology_of_matrices(dims, self.columns, coeff,
                                    top=self.top_dim())

    def sh_cochain(self, coeff="Z"):
        dims, _ = self.dims_mats()
        return cohomology_of_matrices(dims, self.columns, coeff,
                                      top=self.top_dim())


def simplicial_complex(algebra):
    if not algebra.ok:
        raise NoSemiNormedBasis("; ".join(algebra.witnesses))
    return SimplicialSC(algebra)


def sc_cup(sc, p, f, q, g):
    """Front/back cup product of simplicial cochains (dicts on tuples).

    Degree-0 cochains are keyed by vertex; the front (back) 0-face of a
    tuple is its source (target) vertex.
    """
    n = p + q
    if n > sc.top_dim():
        return {}
    a = sc.algebra
    out = {}
    for t in sc.tuples[n]:
        if n == 0:
            val = f.get(t[0], 0) * g.get(t[0], 0)
            if val:
                out[t[0]] = val
            continue
        front = t[:p] if p else a.source(t[0])
        back = t[p:] if q else a.target(t[-1])
        val = f.get(front, 0) * g.get(back, 0)
        if val:
            out[t] = val
    return out


# ---------------------------------------------------------------------------
# comparison with the cell complexes


@dataclass(frozen=True)
class PhiPsiReport:
    phi: dict
    psi: dict
    phi_sharp: dict
    phi_chain_map: bool
    psi_chain_map: bool
    iso: bool
    sharp_chain_map: bool
    sharp_epi: bool
    kernel_ranks: tuple


def _chain_square(upper_map, lower_map, d_dom, d_cod):
    """lower_map . d_dom == d_cod . upper_map (integer matrices)."""
    left = mat_mul(lower_map, d_dom) if d_dom and lower_map else []
    right = mat_mul(d_cod, upper_map) if d_cod and upper_map else []
    if not left and not right:
        return True
    if not left or not right:
        return all(all(x == 0 for x in row) for row in (left or right))
    return left == right


def elt_of_class(algebra, classes, cid):
    """Basis element whose natural class is cid (ids from `classes`).

    Representative paths are canonical per class, so a found basis hits
    directly; a user-verified basis is resolved through its own class
    table (well defined: a verified basis meets each class exactly once).
    """
    rep = classes.class_rep[cid]
    i = algebra.index_by_path.get(rep)
    if i is not None:
        return i
    own = algebra.classes.class_of(rep)
    for j in algebra.non_identity:
        if algebra.element_class(j) == own:
            return j
    raise KeyError("no basis element for class %d" % cid)


def phi_psi_maps(algebra, cx_natural, cx_total):
    """Matrices of the tuple-to-cell maps with their verification report."""
    if not algebra.ok:
        raise NoSemiNormedBasis("; ".join(algebra.witnesses))
    a = algebra
    sc = simplicial_complex(a)
    nat = cx_natural
    tot = cx_total
    wcl = tot.classes
    phi, psi, sharp = {}, {}, {}
    phi_ok = psi_ok = iso = sharp_ok = epi = True
    kernel = []
    top = max(sc.top_dim(), nat.top_dim(), tot.top_dim())
    for n in range(top + 1):
        tuples = sc.tuples[n] if n <= sc.top_dim() else []
        ncells = nat.cells[n] if n <= nat.top_dim() else []
        tcells = tot.cells[n] if n <= tot.top_dim() else []
        nidx = {c.key: i for i, c in enumerate(ncells)}
        tidx = {c.key: i for i, c in enumerate(tcells)}
        mat = [[0] * len(tuples) for _ in ncells]
        smat = [[0] * len(tuples) for _ in tcells]
        pmat = [[0] * len(ncells) for _ in tuples]
        for c, t in enumerate(tuples):
            if n == 0:
                key = t[0]
                skey = t[0]
            else:
                key = tuple(a.element_class(i) for i in t)
                skey = tuple(wcl.class_of(a.elements[i].path) for i in t)
            r = nidx.get(key)
            if r is None:
                iso = False
            else:
                mat[r][c] = 1
            sr = tidx.get(skey)
            if sr is None:
                epi = False
            else:
                smat[sr][c] = 1
        # psi: cell tuple of classes -> tuple of the classes' basis elements
        tup_index = {t: i for i, t in enumerate(tuples)}
        for r, cell in enumerate(ncells):
            if n == 0:
                t = (cell.key,)
            else:
                t = tuple(elt_of_class(a, nat.classes, cid)
                          for cid in cell.key)
            i = tup_index.get(t)
            if i is None:
                iso = False
            else:
                pmat[i][r] = 1
        phi[n] = mat
        sharp[n] = smat
        psi[n] = pmat
        if len(tuples) != len(ncells):
            iso = False
        if mat and tuples and ncells:
            ident = all(sum(mat[i][k] * pmat[k][j] for k in range(len(tuples)))
                        == (1 if i == j else 0)
                        for i in range(len(ncells)) for j in range(len(ncells)))
            ident = ident and all(
                sum(pmat[i][k] * mat[k][j] for k in range(len(ncells)))
                == (1 if i == j else 0)
                for i in range(len(tuples)) for j in range(len(tuples)))
            iso = iso and ident
        hit = [r for r in range(len(tcells)) if any(smat[r])]
        if len(hit) != len(tcells):
            epi = False
        kernel.append(len(tuples)
                      - rank([[Fraction(x) for x in row] for row in smat], QQ)
                      if smat and tuples else len(tuples))
    for n in range(1, top + 1):
        d_sc = sc.mats.get(n, [])
        d_nat = nat.boundary(n) if n <= nat.top_dim() else []
        d_tot = tot.boundary(n) if n <= tot.top_dim() else []
        if not _chain_square(phi.get(n, []), phi.get(n - 1, []),
                             d_sc, d_nat):
            phi_ok = False
        if not _chain_square(psi.get(n, []), psi.get(n - 1, []),
                             d_nat, d_sc):
            psi_ok = False
        if not _chain_square(sharp.get(n, []), sharp.get(n - 1, []),
                             d_sc, d_tot):
            sharp_ok = False
    return PhiPsiReport(phi, psi, sharp, phi_ok, psi_ok, iso,
                        sharp_ok, epi, tuple(kernel))


# ---------------------------------------------------------------------------
# Hochschild cochain complex


class HochschildComplex:
    """Cochain spaces over the vertex subalgebra and their differential.

    Degree-n basis: pairs (tuple, target) where the tuple lists n
    composable non-identity basis elements (its product may vanish) and
    target is a basis element of the end-to-end slice.  Degree 0 uses the
    empty tuple at each vertex with its identity as target.
    """

    def __init__(self, algebra, field_label="Q"):
        if not algebra.ok:
            raise NoSemiNormedBasis("; ".join(algebra.witnesses))
        if not algebra.quiver.is_acyclic():
            raise TriangularRequired(
                "Hochschild complex requires a quiver without oriented "
                "cycles")
        self.algebra = algebra
        kind, arg = parse_coefficients(field_label)
        if kind not in ("Q", "Fp"):
            raise ValueError("Hochschild scalars must be Q or Fp:<p>")
        self.field_label = field_label
        self.field = QQ if kind == "Q" else PrimeField(arg)
        a = algebra
        q = a.quiver
        # degree-0 basis: one slot per vertex
        self.bases = [[((), a.identity_index[v]) for v in q.vertices]]
        cur = [(i,) for i in a.non_identity]
        while cur:
            basis = []
            for t in sorted(cur):
                x, y = a.source(t[0]), a.target(t[-1])
                for v in a.by_pair.get((x, y), []):
                    basis.append((t, v))
            self.bases.append(basis)
            nxt = []
            for t in cur:
                for j in a.non_identity:
                    if a.target(t[-1]) == a.source(j):
                        nxt.append(t + (j,))
            cur = nxt
        self.mats = {}
        for n in range(1, len(self.bases)):
            self.mats[n] = self._b_matrix(n)
        # row i of mats[n] is the sparse column of basis element i
        check_square_zero(
            {n: [{k: x for k, x in enumerate(row) if x != self.field.zero}
                 for row in mat] for n, mat in self.mats.items()},
            self.field, "differential squares to zero")

    def _b_matrix(self, n):
        a = self.algebra
        F = self.field
        lower = self.bases[n - 1]
        upper = self.bases[n]
        col = {pair: c for c, pair in enumerate(lower)}
        row = {pair: r for r, pair in enumerate(upper)}
        mat = [[F.of(0)] * len(lower) for _ in upper]

        def add(r, c, x):
            mat[r][c] = F.add(mat[r][c], F.of(x))

        tuples = sorted({t for t, _ in upper})
        for t in tuples:
            # first face: s1 . f(rest)
            rest = t[1:]
            if rest:
                ends = (a.source(rest[0]), a.target(rest[-1]))
            else:
                ends = (a.target(t[0]),) * 2
            for w in a.by_pair.get(ends, []):
                if rest == () and not a.elements[w].is_identity:
                    continue
                c = col.get((rest, w))
                if c is None:
                    continue
                step = a.product.get((t[0], w))
                if step is not None:
                    add(row[(t, step[1])], c, step[0])
            # middle faces: contract adjacent pairs through the table
            for j in range(1, len(t)):
                step = a.product[(t[j - 1], t[j])]
                if step is None:
                    continue
                contracted = t[:j - 1] + (step[1],) + t[j + 1:]
                for w in a.by_pair.get((a.source(t[0]), a.target(t[-1])), []):
                    c = col.get((contracted, w))
                    if c is not None:
                        add(row[(t, w)], c, (-1) ** j * step[0])
            # last face: f(front) . sn
            front = t[:-1]
            if front:
                ends = (a.source(front[0]), a.target(front[-1]))
            else:
                ends = (a.source(t[0]),) * 2
            for w in a.by_pair.get(ends, []):
                if front == () and not a.elements[w].is_identity:
                    continue
                c = col.get((front, w))
                if c is None:
                    continue
                step = a.product.get((w, t[-1]))
                if step is not None:
                    add(row[(t, step[1])], c, (-1) ** len(t) * step[0])
        return mat

    def dims(self):
        return [len(b) for b in self.bases]

    def top_dim(self):
        return len(self.bases) - 1

    def hh_dims(self):
        """Cohomology dimensions per degree, 0 .. top+1."""
        out = []
        for n in range(self.top_dim() + 2):
            dim = len(self.bases[n]) if n <= self.top_dim() else 0
            rk_out = rank(self.mats.get(n + 1, []), self.field)
            rk_in = rank(self.mats.get(n, []), self.field)
            out.append(dim - rk_out - rk_in)
        return out


def hochschild_complex(algebra, field="Q"):
    return HochschildComplex(algebra, field)


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
        if n == 0:
            x = a.elements[v].path.source
            fends = gends = (x, x)
        else:
            fends = ((a.source(t[0]),) * 2 if p == 0
                     else (a.source(t[0]), a.target(t[p - 1])))
            gends = ((a.target(t[-1]),) * 2 if q == 0
                     else (a.source(t[p]), a.target(t[-1])))
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
    eps: dict
    mu: dict
    mu_eps_identity: bool
    eps_cochain_map: bool
    mu_cochain_map: bool
    eps_mu_identity: bool
    schurian: bool
    semi_commutative: bool
    degrees: tuple   # per degree: dict(sh, hh, rank, injective, surjective)
    iso: bool


def _f_mat_mul(F, a, b):
    if not a or not b or not b[0]:
        return []
    out = [[F.of(0)] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for k in range(len(b)):
            x = a[i][k]
            if x == F.zero:
                continue
            for j in range(len(b[0])):
                out[i][j] = F.add(out[i][j], F.mul(x, b[k][j]))
    return out


def _is_identity(F, mat, size):
    if size == 0:
        return True
    if not mat or len(mat) != size or len(mat[0]) != size:
        return False
    for i in range(size):
        for j in range(size):
            want = F.of(1 if i == j else 0)
            if mat[i][j] != want:
                return False
    return True


def _transpose_to_field(F, mat):
    if not mat or not mat[0]:
        return []
    return [[F.of(mat[i][j]) for i in range(len(mat))]
            for j in range(len(mat[0]))]


def epsilon_mu(algebra, sc, hc):
    """Comparison between simplicial and Hochschild cochains over k."""
    if sc.algebra is not algebra or hc.algebra is not algebra:
        raise FieldMismatch(
            "simplicial and Hochschild complexes must come from the same "
            "semi-normed algebra")
    a = algebra
    F = hc.field
    props = algebra_properties(a.table)
    top = max(sc.top_dim(), hc.top_dim())
    eps, mu = {}, {}
    for n in range(top + 1):
        tuples = sc.tuples[n] if n <= sc.top_dim() else []
        basis = hc.bases[n] if n <= hc.top_dim() else []
        bidx = {pair: r for r, pair in enumerate(basis)}
        emat = [[F.of(0)] * len(tuples) for _ in basis]
        mmat = [[F.of(0)] * len(basis) for _ in tuples]
        tidx = {}
        for c, t in enumerate(tuples):
            if n == 0:
                key = ((), a.identity_index[t[0]])
                emat[bidx[key]][c] = F.of(1)
                tidx[key] = c
            else:
                lam, b = a.product_of_tuple(t)
                key = (t, b)
                emat[bidx[key]][c] = F.of(lam)
                tidx[key] = (c, lam)
        for r, pair in enumerate(basis):
            if n == 0:
                c = tidx.get(pair)
                if c is not None:
                    mmat[c][r] = F.of(1)
                continue
            got = tidx.get(pair)
            if got is not None:
                c, lam = got
                mmat[c][r] = F.inv(F.of(lam))
        eps[n] = emat
        mu[n] = mmat
    mu_eps = all(_is_identity(
        F, _f_mat_mul(F, mu[n], eps[n]),
        len(sc.tuples[n]) if n <= sc.top_dim() else 0)
        for n in range(top + 1))
    eps_mu = all(_is_identity(
        F, _f_mat_mul(F, eps[n], mu[n]),
        len(hc.bases[n]) if n <= hc.top_dim() else 0)
        for n in range(top + 1))
    eps_chain = True
    mu_chain = True
    for n in range(top):
        d_up = (_transpose_to_field(F, sc.mats[n + 1])
                if n + 1 <= sc.top_dim() and (n + 1) in sc.mats else [])
        b_up = hc.mats.get(n + 1, []) if n + 1 <= hc.top_dim() else []
        left = _f_mat_mul(F, b_up, eps.get(n, []))
        right = _f_mat_mul(F, eps.get(n + 1, []), d_up)
        if not _same_matrix(F, left, right,
                            len(hc.bases[n + 1]) if n + 1 <= hc.top_dim()
                            else 0,
                            len(sc.tuples[n]) if n <= sc.top_dim() else 0):
            eps_chain = False
        left = _f_mat_mul(F, d_up, mu.get(n, []))
        right = _f_mat_mul(F, mu.get(n + 1, []), b_up)
        if not _same_matrix(F, left, right,
                            len(sc.tuples[n + 1]) if n + 1 <= sc.top_dim()
                            else 0,
                            len(hc.bases[n]) if n <= hc.top_dim() else 0):
            mu_chain = False
    degrees = []
    iso = True
    for n in range(top + 2):
        d_here = (_transpose_to_field(F, sc.mats[n + 1])
                  if n + 1 <= sc.top_dim() and (n + 1) in sc.mats else [])
        d_prev = (_transpose_to_field(F, sc.mats[n])
                  if n <= sc.top_dim() and n in sc.mats else [])
        sc_dim = len(sc.tuples[n]) if n <= sc.top_dim() else 0
        hh_dim_basis = len(hc.bases[n]) if n <= hc.top_dim() else 0
        b_here = hc.mats.get(n + 1, []) if n + 1 <= hc.top_dim() else []
        b_prev = hc.mats.get(n, []) if n <= hc.top_dim() else []
        rk_d_here = rank(d_here, F)
        rk_d_prev = rank(d_prev, F)
        rk_b_here = rank(b_here, F)
        rk_b_prev = rank(b_prev, F)
        sh_n = sc_dim - rk_d_here - rk_d_prev
        hh_n = hh_dim_basis - rk_b_here - rk_b_prev
        # induced map on cohomology classes
        if sc_dim and n <= hc.top_dim():
            cocycles = (nullspace(d_here, F) if d_here
                        else [[F.of(1) if i == j else F.of(0)
                               for i in range(sc_dim)]
                              for j in range(sc_dim)])
            images = []
            for z in cocycles:
                col = [F.of(0)] * hh_dim_basis
                for c, zc in enumerate(z):
                    if zc == F.zero:
                        continue
                    for r in range(hh_dim_basis):
                        col[r] = F.add(col[r], F.mul(eps[n][r][c], zc))
                images.append(col)
            bnd = [[row[c] for row in b_prev] for c in range(
                len(b_prev[0]))] if b_prev and b_prev[0] else []
            base_rank = rank(bnd, F)
            rk = rank(bnd + images, F) - base_rank
        else:
            rk = 0
        injective = rk == sh_n
        surjective = rk == hh_n
        degrees.append({"sh": sh_n, "hh": hh_n, "rank": rk,
                       "injective": injective, "surjective": surjective})
        if not (injective and surjective):
            iso = False
    return EpsilonMuReport(eps, mu, mu_eps, eps_chain, mu_chain, eps_mu,
                           props.schurian, props.semi_commutative,
                           tuple(degrees), iso)


def _same_matrix(F, a, b, nrows, ncols):
    za = a if a else [[F.of(0)] * ncols for _ in range(nrows)]
    zb = b if b else [[F.of(0)] * ncols for _ in range(nrows)]
    if not za and not zb:
        return True
    return za == zb
