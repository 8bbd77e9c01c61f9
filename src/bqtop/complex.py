"""The combinatorial cell complex of a bound quiver and its (co)homology.

Cells in dimension n >= 1 are tuples of composable non-identity path
classes such that SOME choice of member representatives has a composite
outside the ideal; the least such composite is stored as the cell's
witness.  The existential reading is forced by class merging: a tuple
can contain a class whose particular representative product vanishes
while another does not, and both name the same cell.

Face maps drop the first class, drop the last, or multiply two adjacent
classes (the class of the witness sub-composite; composition
compatibility of the class table makes this representative-independent).
Boundary matrices are kept as sparse integer columns.  Homology over Z
comes from their invariant factors (unit-pivot reduction, then a
certified Smith normal form of what is left), over a field from their
ranks, and cohomology and cyclic coefficients by universal coefficients.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import Path, compose
from .linalg import PrimeField, QQ, rank, smith_divisors, smith_normal_form

__all__ = [
    "Cell", "CellComplex", "build_complex", "homology", "cohomology",
    "cup_product", "euler_characteristic", "smith_normal_form",
    "homology_of_matrices", "cohomology_of_matrices", "parse_coefficients",
    "HomologyResult",
]


@dataclass(frozen=True)
class Cell:
    dim: int
    key: object            # vertex id (dim 0) or tuple of class ids
    witness: Path | None    # least nonzero member composite, None in dim 0

    def __str__(self):
        if self.dim == 0:
            return str(self.key)
        return "(" + ", ".join("c%d" % c for c in self.key) + ")"


class CellComplex:
    """Graded cells, face maps and integer boundary matrices."""

    def __init__(self, table, classes, cells, faces):
        self.table = table
        self.classes = classes
        self.variant = classes.variant
        self.caveats = classes.caveats
        self.cells = cells          # list per dimension, dim 0 first
        self.faces = faces          # faces[n][j] = tuple of cell indices
        self.cell_index = {}
        for n, layer in enumerate(cells):
            for i, cell in enumerate(layer):
                self.cell_index[(n, cell.key)] = i
        # columns[n][j] = {row: coefficient}: the sparse boundary matrix
        # delta_n, one column per n-cell, rows indexed by (n-1)-cells
        self.columns = {}
        for n in range(1, len(cells)):
            self.columns[n] = [
                sparse_column((target, (-1) ** i)
                              for i, target in enumerate(face_row))
                for face_row in faces[n]]
        check_square_zero(self.columns)

    def counts(self):
        return [len(layer) for layer in self.cells]

    def top_dim(self):
        return len(self.cells) - 1

    def boundary(self, n):
        """delta_n as a dense integer matrix (rows C_{n-1}, cols C_n)."""
        mat = [[0] * self.size(n) for _ in range(self.size(n - 1))]
        for j, col in enumerate(self.columns.get(n, ())):
            for i, x in col.items():
                mat[i][j] = x
        return mat

    @property
    def boundaries(self):
        """{n: dense delta_n} for n = 1 .. top, built on each access."""
        return {n: self.boundary(n) for n in self.columns}

    def size(self, n):
        return len(self.cells[n]) if 0 <= n <= self.top_dim() else 0


def sparse_column(terms):
    """{row: coefficient} summing (row, coefficient) terms, zeros dropped."""
    col = {}
    for r, x in terms:
        col[r] = col.get(r, 0) + x
    return {r: x for r, x in col.items() if x}


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


def check_square_zero(columns, field=None,
                      message="boundary of boundary must vanish"):
    """Assert delta_{n-1} delta_n == 0 for sparse boundary columns.

    `columns[n][j]` maps row indices of degree n-1 to coefficients, which
    are integers, or elements of `field` when one is given.  Each column
    costs one sparse combination of the columns it touches, so a complex
    of cells with n+1 faces costs O(cells * n^2).
    """
    for n, cols in columns.items():
        low = columns.get(n - 1)
        if low is None:
            continue
        for col in cols:
            assert not sparse_apply(low, col, field), message


def build_complex(table, classes, max_dim=None):
    """Cell complex over a path class table (natural or walk variant)."""
    q = table.quiver
    cells = [[Cell(0, v, None) for v in q.vertices]]
    one_classes = classes.one_cell_classes()
    one_cells = [Cell(1, (cid,), classes.class_rep[cid])
                 for cid in one_classes]
    faces = [None]
    if one_cells:
        cells.append(one_cells)
        # boundary of a 1-cell: target vertex first, then source
        vx = {v: i for i, v in enumerate(q.vertices)}
        faces.append([(vx[classes.class_target[c.key[0]]],
                       vx[classes.class_source[c.key[0]]])
                      for c in one_cells])
    n = 1
    while n <= len(cells) - 1 and (max_dim is None or n < max_dim):
        prev = cells[n]
        nxt = {}
        for cell in prev:
            # a witness of an extended tuple restricts to a witness of the
            # prefix, so extending every stored witness loses nothing
            for w in _witnesses(table, classes, cell):
                for cid in one_classes:
                    if classes.class_source[cid] != w.target:
                        continue
                    for j in classes.class_members[cid]:
                        s = table.paths[j]
                        if len(s) == 0 or len(w) + len(s) > table.bound:
                            continue
                        comp = compose(w, s)
                        if table.index[comp] in table.in_ideal:
                            continue
                        key = cell.key + (cid,)
                        old = nxt.get(key)
                        if old is None or _path_key(q, comp) < _path_key(q, old):
                            nxt[key] = comp
        if not nxt:
            break
        layer = [Cell(n + 1, key, nxt[key]) for key in sorted(nxt)]
        cells.append(layer)
        n += 1
    # face maps for dimensions >= 2
    for m in range(2, len(cells)):
        index = {c.key: i for i, c in enumerate(cells[m - 1])}
        rows = []
        for cell in cells[m]:
            rows.append(tuple(_face_index(table, classes, cell, i, index)
                              for i in range(m + 1)))
        faces.append(rows)
    return CellComplex(table, classes, cells, faces)


def _witnesses(table, classes, cell):
    """All nonzero member composites of the cell's class tuple."""
    q = table.quiver
    outs = [table.paths[i] for i in classes.class_members[cell.key[0]]]
    for cid in cell.key[1:]:
        grown = []
        for w in outs:
            for j in classes.class_members[cid]:
                s = table.paths[j]
                if s.source == w.target and len(w) + len(s) <= table.bound:
                    grown.append(compose(w, s))
        outs = grown
    return sorted((w for w in outs if table.index[w] not in table.in_ideal),
                  key=lambda p: _path_key(q, p))


def _path_key(q, p):
    from .core import path_sort_key
    return path_sort_key(q, p)


def _face_index(table, classes, cell, i, index):
    n = cell.dim
    if i == 0:
        key = cell.key[1:]
    elif i == n:
        key = cell.key[:-1]
    else:
        # multiply classes i-1, i (0-based) along the stored witness
        w = cell.witness
        verts = table.quiver.path_vertices(w)
        # split the witness into per-class segments
        segs = []
        pos = 0
        rem = w
        at = 0
        for cid in cell.key:
            found = None
            for j in classes.class_members[cid]:
                s = table.paths[j]
                if s.arrows == w.arrows[at:at + len(s)] \
                        and s.source == verts[at] and len(s) >= 1:
                    # greedy split may be ambiguous; recurse on the rest
                    found = s
                    if _split_rest(table, classes, cell.key, w, at + len(s),
                                   segs + [s]):
                        break
                    found = None
            assert found is not None, "witness does not factor through classes"
            segs.append(found)
            at += len(found)
        prod = compose(segs[i - 1], segs[i])
        mid = classes.class_of(prod)
        key = cell.key[:i - 1] + (mid,) + cell.key[i + 1:]
    face = index.get(key)
    assert face is not None, "face of a cell must be a cell"
    return face


def _split_rest(table, classes, key, w, at, segs):
    k = len(segs)
    if k == len(key):
        return at == len(w)
    verts = table.quiver.path_vertices(w)
    if at >= len(w):
        return False
    for j in classes.class_members[key[k]]:
        s = table.paths[j]
        if len(s) >= 1 and s.source == verts[at] \
                and s.arrows == w.arrows[at:at + len(s)]:
            if _split_rest(table, classes, key, w, at + len(s), segs + [s]):
                return True
    return False


# ---------------------------------------------------------------------------
# (co)homology


@dataclass(frozen=True)
class HomologyResult:
    coeff: str                   # "Z", "Q", "Fp:<p>", "Zmod:<m>"
    kind: str                    # "Z" | "field" | "cyclic"
    groups: tuple
    # kind Z:      entries (free_rank, (divisors...))
    # kind field:  entries dim
    # kind cyclic: entries (orders...), order m standing for a Z/m summand

    def betti(self, i):
        if i >= len(self.groups):
            return 0
        g = self.groups[i]
        if self.kind == "Z":
            return g[0]
        if self.kind == "field":
            return g
        return len(g)

    def describe(self, i):
        if i >= len(self.groups):
            return "0"
        g = self.groups[i]
        if self.kind == "Z":
            rank, tors = g
            bits = ["Z"] * rank + ["Z/%d" % d for d in tors]
            return " + ".join(bits) if bits else "0"
        if self.kind == "field":
            return "k^%d" % g
        bits = ["Z/%d" % d for d in g]
        return " + ".join(bits) if bits else "0"


def parse_coefficients(coeff):
    """Normalize "Z" | "Q" | "Fp:<p>" | "Zmod:<m>" (case-sensitive)."""
    if coeff in ("Z", "Q"):
        return (coeff, None)
    if isinstance(coeff, str) and coeff.startswith("Fp:"):
        p = int(coeff[3:])
        PrimeField(p)  # primality check
        return ("Fp", p)
    if isinstance(coeff, str) and coeff.startswith("Zmod:"):
        m = int(coeff[5:])
        if m < 2:
            raise ValueError("Zmod modulus must be >= 2")
        return ("Zmod", m)
    raise ValueError("unknown coefficient system %r" % (coeff,))


def _integral_homology(dims, mats, top):
    """List of (free_rank, divisors) for a complex of integer matrices.

    dims[n] is the rank of the degree-n chain group; mats[n] maps degree n
    to degree n-1 as sparse columns {row: coefficient}, one per n-cell.
    """
    out = []
    ranks = {}
    torsions = {}
    for n in range(top + 2):
        mat = mats.get(n)
        if mat and dims.get(n, 0) and dims.get(n - 1, 0):
            divisors = smith_divisors(mat)
            ranks[n] = len(divisors)
            torsions[n] = tuple(d for d in divisors if d > 1)
        else:
            ranks[n] = 0
            torsions[n] = ()
    for n in range(top + 1):
        free = dims.get(n, 0) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        out.append((free, torsions.get(n + 1, ())))
    return out


def _field_dims(dims, mats, top, field):
    out = []
    for n in range(top + 1):
        rk_in = rank(mats.get(n + 1, ()), field)
        rk_out = rank(mats.get(n, ()), field)
        out.append(dims.get(n, 0) - rk_in - rk_out)
    return out


def homology_of_matrices(dims, mats, coeff, top=None):
    """Homology of an integer chain complex given as sparse boundary
    columns: mats[n][j] = {row in degree n-1: coefficient}."""
    if top is None:
        top = max([n for n, d in dims.items() if d], default=0)
    kind, arg = parse_coefficients(coeff)
    if kind == "Z":
        return HomologyResult("Z", "Z",
                              tuple(_integral_homology(dims, mats, top)))
    if kind == "Q":
        return HomologyResult("Q", "field",
                              tuple(_field_dims(dims, mats, top, QQ)))
    if kind == "Fp":
        return HomologyResult("Fp:%d" % arg, "field",
                              tuple(_field_dims(dims, mats, top,
                                                PrimeField(arg))))
    m = arg
    integral = _integral_homology(dims, mats, top + 1)
    groups = []
    for n in range(top + 1):
        free, tors = integral[n]
        prev_tors = integral[n - 1][1] if n >= 1 else ()
        orders = [m] * free
        orders += [math.gcd(d, m) for d in tors]
        orders += [math.gcd(d, m) for d in prev_tors]   # Tor term
        groups.append(tuple(sorted(o for o in orders if o > 1)))
    return HomologyResult("Zmod:%d" % m, "cyclic", tuple(groups))


def cohomology_of_matrices(dims, mats, coeff, top=None):
    """Cohomology: universal coefficients over the integral homology."""
    if top is None:
        top = max([n for n, d in dims.items() if d], default=0)
    kind, arg = parse_coefficients(coeff)
    if kind in ("Q", "Fp"):
        field = QQ if kind == "Q" else PrimeField(arg)
        # field duality: dim H^n = dim H_n
        label = "Q" if kind == "Q" else "Fp:%d" % arg
        return HomologyResult(label, "field",
                              tuple(_field_dims(dims, mats, top, field)))
    integral = _integral_homology(dims, mats, top + 1)
    if kind == "Z":
        groups = []
        for n in range(top + 1):
            free = integral[n][0]
            ext = integral[n - 1][1] if n >= 1 else ()
            groups.append((free, tuple(ext)))
        return HomologyResult("Z", "Z", tuple(groups))
    m = arg
    groups = []
    for n in range(top + 1):
        free, tors = integral[n]
        prev_tors = integral[n - 1][1] if n >= 1 else ()
        orders = [m] * free
        orders += [math.gcd(d, m) for d in tors]        # Hom on torsion
        orders += [math.gcd(d, m) for d in prev_tors]   # Ext term
        groups.append(tuple(sorted(o for o in orders if o > 1)))
    return HomologyResult("Zmod:%d" % m, "cyclic", tuple(groups))


def homology(cx, coeff="Z"):
    dims = {n: cx.size(n) for n in range(cx.top_dim() + 1)}
    return homology_of_matrices(dims, cx.columns, coeff, top=cx.top_dim())


def cohomology(cx, coeff="Z"):
    dims = {n: cx.size(n) for n in range(cx.top_dim() + 1)}
    return cohomology_of_matrices(dims, cx.columns, coeff, top=cx.top_dim())


def euler_characteristic(cx):
    return sum((-1) ** n * cx.size(n) for n in range(cx.top_dim() + 1))


# ---------------------------------------------------------------------------
# cup product on cellular cochains

# a p-cochain is a dict {cell key in dimension p: coefficient}; vertex
# keys for p = 0.  Missing keys mean zero.


def cup_product(cx, p, f, q, g):
    """Front-face/back-face cup product of a p- and a q-cochain."""
    n = p + q
    if n > cx.top_dim():
        return {}
    out = {}
    for cell in cx.cells[n]:
        front = _sub_face(cx, cell, 0, p)
        back = _sub_face(cx, cell, p, n)
        a = f.get(front, 0)
        b = g.get(back, 0)
        v = a * b
        if v:
            out[cell.key] = v
    return out


def _sub_face(cx, cell, start, stop):
    """Key of the front/back sub-tuple, a vertex when start == stop."""
    if cell.dim == 0:
        return cell.key
    if start == stop:
        cls = cx.classes
        if start == 0:
            return cls.class_source[cell.key[0]]
        return cls.class_target[cell.key[start - 1]]
    return cell.key[start:stop]


def coboundary(cx, p, f):
    """delta of a p-cochain: (delta f)(c) = f(boundary c), c in dim p+1."""
    if p + 1 > cx.top_dim():
        return {}
    out = {}
    low = cx.cells[p]
    for cell, col in zip(cx.cells[p + 1], cx.columns[p + 1]):
        total = sum(x * f.get(low[i].key, 0) for i, x in col.items())
        if total:
            out[cell.key] = total
    return out
