"""Covering morphisms of bound quivers and their induced cell maps.

A morphism of bound quivers sends vertices to vertices and arrows to
arrows, respecting endpoints, and must push every relation of its source
into the ideal of its target.  Such a morphism is a covering when three
conditions hold: every fiber is nonempty; at each cover vertex the arrows
leaving (and the arrows entering) map bijectively onto the arrows leaving
(entering) the image vertex; and every relation downstairs lifts, at every
point of the fiber over its source, to a relation upstairs.  The local
arrow bijections give unique path lifting, so the lift of a relation is
forced term by term and the third condition becomes a concrete membership
test in the cover's ideal.

Relation lifting is checked on generator vectors only.  This suffices:
any element of a slice I(x, y) is a combination of products
path * generator * path, each factor lifts uniquely through the local
bijections, and lifting is linear in the terms.

A finite group of ideal-preserving automorphisms of the cover presents a
Galois covering when the projection is constant on orbits, the group acts
transitively on every vertex and arrow fiber, and no non-identity element
fixes a vertex or an arrow.  Verified coverings induce a cellular map of
classifying complexes, sending a cell's tuple of homotopy classes to the
classes of the image paths; each group element likewise induces a cell
automorphism, and together these deck maps certify regularity by acting
transitively on the zero-cell fiber over the base point.

Each stage takes the verified report of the stage before it, so each
fact is verified once: the `CoveringReport` of `check_covering` (or
`check_galois`) records the morphism (and the action), `lift_complex_map`
takes it and records it in its `CellMapReport`, and `deck_group` takes
that.  Incidences are counted by (cell, position), a cell of dimension n
having the n + 1 vertex positions of its class tuple: a cell may pass one
vertex twice, as the loop of a one-vertex quiver does, while each of its
lifts passes two different vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import Path, QuiverError, format_terms


class MalformedMorphism(QuiverError):
    """Vertex or arrow assignment violates the morphism format."""


class NotACovering(Exception):
    """Operation requires a verified covering morphism."""


class NotGalois(Exception):
    """Operation requires a verified Galois covering with connected cover."""


class QuiverMorphism:
    """Vertex and arrow assignment between bound quivers.

    Every source vertex and arrow must be assigned, images must exist in
    the target, and arrow images must connect the image endpoints.
    """

    def __init__(self, source, target, vertex_map, arrow_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.arrow_map = dict(arrow_map)
        for v in source.vertices:
            img = self.vertex_map.get(v)
            if img is None:
                raise MalformedMorphism("vertex %r is not mapped" % v)
            if img not in target.vertex_index:
                raise MalformedMorphism(
                    "vertex %r maps to unknown vertex %r" % (v, img))
        for a in source.arrows:
            img = self.arrow_map.get(a.name)
            if img is None:
                raise MalformedMorphism("arrow %r is not mapped" % a.name)
            b = target.arrow_by_name.get(img)
            if b is None:
                raise MalformedMorphism(
                    "arrow %r maps to unknown arrow %r" % (a.name, img))
            if b.source != self.vertex_map[a.source] \
                    or b.target != self.vertex_map[a.target]:
                raise MalformedMorphism(
                    "arrow %s: image %s does not connect the image"
                    " endpoints (%s, %s)" % (a.name, img,
                                             self.vertex_map[a.source],
                                             self.vertex_map[a.target]))

    def vertex(self, v):
        return self.vertex_map[v]

    def arrow(self, name):
        return self.arrow_map[name]

    def path_image(self, path):
        return Path(self.vertex_map[path.source],
                    self.vertex_map[path.target],
                    tuple(self.arrow_map[n] for n in path.arrows))

    def is_identity(self):
        return self.source is self.target \
            and all(self.vertex_map[v] == v for v in self.source.vertices) \
            and all(self.arrow_map[a.name] == a.name
                    for a in self.source.arrows)

    def signature(self):
        return (tuple(self.vertex_map[v] for v in self.source.vertices),
                tuple(self.arrow_map[a.name] for a in self.source.arrows))


def identity_morphism(quiver):
    return QuiverMorphism(quiver, quiver,
                          {v: v for v in quiver.vertices},
                          {a.name: a.name for a in quiver.arrows})


def compose_morphisms(outer, inner):
    """The morphism applying `inner` first, then `outer`."""
    if inner.target is not outer.source:
        raise MalformedMorphism("morphisms are not composable")
    return QuiverMorphism(
        inner.source, outer.target,
        {v: outer.vertex(inner.vertex(v)) for v in inner.source.vertices},
        {a.name: outer.arrow(inner.arrow(a.name))
         for a in inner.source.arrows})


class GroupAction:
    """Finite group of ideal-preserving automorphisms of a bound quiver.

    Elements are given extensionally as self-morphisms of the table's
    quiver.  Construction verifies that each element is bijective on
    vertices and arrows and maps every relation into the ideal, and that
    the set holds the identity and is closed under composition.  That
    makes it a group: in a finite set of bijections closed under
    composition, every element has a power that is the identity.
    """

    def __init__(self, table, elements):
        self.quiver = table.quiver
        elems = list(elements)
        if not elems:
            raise ValueError("group action needs at least the identity")
        for g in elems:
            if g.source is not self.quiver or g.target is not self.quiver:
                raise ValueError("group element is not a self-map"
                                 " of the cover quiver")
            if set(g.vertex_map[v] for v in self.quiver.vertices) \
                    != set(self.quiver.vertices):
                raise ValueError("group element is not bijective on vertices")
            if set(g.arrow_map[a.name] for a in self.quiver.arrows) \
                    != set(a.name for a in self.quiver.arrows):
                raise ValueError("group element is not bijective on arrows")
            for rel in self.quiver.relations:
                image = [(g.path_image(w), c) for w, c in rel.terms]
                if not table.vector_in_ideal(image):
                    raise ValueError(
                        "group element does not preserve the ideal:"
                        " relation %s" % rel)
        sigs = {g.signature() for g in elems}
        if len(sigs) != len(elems):
            raise ValueError("duplicate group elements")
        if not any(g.is_identity() for g in elems):
            raise ValueError("group action lacks the identity")
        if any(compose_morphisms(g, h).signature() not in sigs
               for g in elems for h in elems):
            raise ValueError("group action is not closed under composition")
        self.elements = tuple(elems)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class CoveringReport:
    """Per-condition verdicts for a covering, optionally Galois, check."""

    ok: bool
    ideal_preserved: bool
    fibers_nonempty: bool
    local_bijections: bool
    relations_lift: bool
    vertex_fibers: dict
    arrow_fibers: dict
    witnesses: tuple
    morphism: QuiverMorphism            # the projection checked
    action: GroupAction | None = None   # the action of a Galois check
    galois_ok: bool | None = None
    equivariant: bool | None = None
    vertex_transitive: bool | None = None
    arrow_transitive: bool | None = None
    fixed_point_free: bool | None = None
    group_order: int | None = None


def _fibers(keys, items, image):
    """{key: tuple of the items whose image is key}, in item order; items
    whose image is no key are left out."""
    out = {k: [] for k in keys}
    for it in items:
        fib = out.get(image(it))
        if fib is not None:
            fib.append(it)
    return {k: tuple(fib) for k, fib in out.items()}


def _check_endpoints(base, cover, p):
    if p.source is not cover.quiver or p.target is not base.quiver:
        raise MalformedMorphism(
            "morphism endpoints do not match the given path tables")


def _lift_path(p, path, at):
    """The unique lift of a base path starting at `at`, or None."""
    names = []
    cur = at
    for name in path.arrows:
        hits = [a for a in p.source.arrows_from[cur]
                if p.arrow_map[a.name] == name]
        if len(hits) != 1:
            return None
        names.append(hits[0].name)
        cur = hits[0].target
    return Path(at, cur, tuple(names))


def check_covering(base, cover, p):
    """Verify that p: cover -> base is a covering morphism.

    base and cover are path tables; p maps the cover quiver to the base
    quiver.  Failures are reported as verdicts with witnesses, never
    raised.
    """
    _check_endpoints(base, cover, p)
    witnesses = []
    ideal_ok = True
    for rel in cover.quiver.relations:
        image = [(p.path_image(w), c) for w, c in rel.terms]
        if not base.vector_in_ideal(image):
            ideal_ok = False
            witnesses.append(
                "cover relation %s maps onto %s, which is outside the"
                " base ideal" % (rel, format_terms(image)))
    vertex_fibers = _fibers(base.quiver.vertices, cover.quiver.vertices,
                            p.vertex)
    arrow_fibers = _fibers([a.name for a in base.quiver.arrows],
                           [b.name for b in cover.quiver.arrows], p.arrow)
    cond1 = True
    for x in base.quiver.vertices:
        if not vertex_fibers[x]:
            cond1 = False
            witnesses.append("empty fiber over vertex %s" % x)
    cond2 = True
    for xh in cover.quiver.vertices:
        x = p.vertex(xh)
        local = (("leaving", cover.quiver.arrows_from[xh],
                  base.quiver.arrows_from[x]),
                 ("entering", cover.quiver.arrows_to[xh],
                  base.quiver.arrows_to[x]))
        for side, mine, theirs in local:
            got = sorted(p.arrow(a.name) for a in mine)
            want = sorted(a.name for a in theirs)
            if got != want:
                cond2 = False
                witnesses.append(
                    "arrows %s %s map to %s, not bijectively onto %s"
                    % (side, xh, got, want))
    cond3 = True
    for rel in base.quiver.relations:
        for xh in vertex_fibers.get(rel.source, ()):
            lifted = []
            for w, c in rel.terms:
                lw = _lift_path(p, w, xh)
                if lw is None:
                    witnesses.append(
                        "term %s of %s has no unique lift at %s"
                        % (w, rel, xh))
                    lifted = None
                    break
                lifted.append((lw, c))
            if lifted is None:
                cond3 = False
                continue
            targets = {lw.target for lw, _ in lifted}
            if len(targets) != 1:
                cond3 = False
                witnesses.append(
                    "terms of %s lift from %s to different endpoints %s"
                    % (rel, xh, sorted(targets)))
            elif not cover.vector_in_ideal(lifted):
                cond3 = False
                witnesses.append(
                    "relation %s lifts at %s to %s, which is outside the"
                    " cover ideal" % (rel, xh, format_terms(lifted)))
    ok = ideal_ok and cond1 and cond2 and cond3
    return CoveringReport(ok=ok, ideal_preserved=ideal_ok,
                          fibers_nonempty=cond1, local_bijections=cond2,
                          relations_lift=cond3, vertex_fibers=vertex_fibers,
                          arrow_fibers=arrow_fibers,
                          witnesses=tuple(witnesses), morphism=p)


def check_galois(base, cover, p, action):
    """Covering check plus the three conditions on the group action."""
    if action.quiver is not cover.quiver:
        raise ValueError("group action does not act on the given cover")
    rep = check_covering(base, cover, p)
    witnesses = list(rep.witnesses)
    # each cover vertex, then each cover arrow, with its accessor
    items = [(v, QuiverMorphism.vertex) for v in cover.quiver.vertices]
    items += [(a.name, QuiverMorphism.arrow) for a in cover.quiver.arrows]
    cond4 = True
    for g in action.elements:
        bad = next((x for x, f in items if f(p, f(g, x)) != f(p, x)), None)
        if bad is not None:
            cond4 = False
            witnesses.append(
                "projection changes along a group element at %s" % bad)

    def transitive(fibers, image, kind):
        ok = True
        for x, fib in fibers.items():
            orbit = {image(g, fib[0]) for g in action.elements} if fib \
                else set()
            if orbit != set(fib):
                ok = False
                witnesses.append(
                    "orbit of %s reaches %d of the %d %s in the fiber"
                    " over %s" % (fib[0], len(orbit), len(fib), kind, x))
        return ok

    cond5v = transitive(rep.vertex_fibers, QuiverMorphism.vertex, "points")
    cond5a = transitive(rep.arrow_fibers, QuiverMorphism.arrow, "arrows")
    cond6 = True
    for g in action.elements:
        fixed = None if g.is_identity() else \
            next((x for x, f in items if f(g, x) == x), None)
        if fixed is not None:
            cond6 = False
            witnesses.append("non-identity group element fixes %s" % fixed)
    galois_ok = rep.ok and cond4 and cond5v and cond5a and cond6
    return replace(rep, witnesses=tuple(witnesses), action=action,
                   galois_ok=galois_ok, equivariant=cond4,
                   vertex_transitive=cond5v, arrow_transitive=cond5a,
                   fixed_point_free=cond6, group_order=len(action))


@dataclass(frozen=True)
class CellMapReport:
    """Induced cellular map of a covering, with its verification."""

    ok: bool
    class_correspondence: bool
    cell_map: dict          # dimension -> tuple, cover cell -> base cell
    faces_commute: bool
    incidence_bijections: bool
    cell_fibers: dict       # dimension -> {base cell: tuple of cover cells}
    witnesses: tuple
    covering: CoveringReport


@dataclass(frozen=True)
class DeckReport:
    """Cell automorphisms induced by a Galois action, with verification."""

    ok: bool
    order: int
    maps: tuple             # per element: {dimension: tuple}
    automorphisms: bool
    compatible: bool        # projection constant on every orbit
    distinct: bool
    transitive: bool        # on the zero-cell fiber over the base point
    base_point: str
    fiber: tuple
    witnesses: tuple


def _induced_cell_map(dom_cx, cod_cx, vertex_fn, cls_map, witnesses):
    cmap = {}
    ok = True
    for n, layer in enumerate(dom_cx.keys):
        row = []
        for key in layer:
            if n == 0:
                image = vertex_fn(key)
            else:
                image = tuple(cls_map.get(c) for c in key)
            idx = cod_cx.cell_index.get((n, image))
            if idx is None:
                ok = False
                witnesses.append(
                    "image of cell %s in dimension %d is not a cell"
                    % (key if n == 0 else "(%s)" % ", ".join(
                        "c%d" % c for c in key), n))
                idx = -1
            row.append(idx)
        cmap[n] = tuple(row)
    return cmap, ok


def _faces_commute(dom_cx, cod_cx, cmap, witnesses):
    ok = True
    for n in range(1, dom_cx.top_dim() + 1):
        for j, face_row in enumerate(dom_cx.faces[n]):
            tgt = cmap[n][j]
            if tgt < 0:
                ok = False
                continue
            cod_row = cod_cx.faces[n][tgt]
            for i, f in enumerate(face_row):
                if cmap[n - 1][f] != cod_row[i]:
                    ok = False
                    witnesses.append(
                        "face %d of cell %d does not commute in"
                        " dimension %d" % (i, j, n))
    return ok


def _incidences(cx, top):
    """vertex -> per dimension up to `top`, the (cell, position) pairs of
    the cells that have the vertex at that position."""
    cl = cx.classes
    out = {v: [[] for _ in range(top + 1)] for v in cx.table.quiver.vertices}
    for n, layer in enumerate(cx.keys):
        for j, key in enumerate(layer):
            if n == 0:
                out[key][0].append((j, 0))
                continue
            out[cl.class_source[key[0]]][n].append((j, 0))
            for pos, cid in enumerate(key, start=1):
                out[cl.class_target[cid]][n].append((j, pos))
    return out


def _incidence_bijections(dom_cx, cod_cx, p, cmap, witnesses):
    top = max(dom_cx.top_dim(), cod_cx.top_dim())
    cod = _incidences(cod_cx, top)
    ok = True
    for xh, at in _incidences(dom_cx, top).items():
        x = p.vertex(xh)
        for n in range(top + 1):
            images = sorted((cmap[n][j], pos) for j, pos in at[n])
            if images != sorted(cod[x][n]):
                ok = False
                witnesses.append(
                    "cells at %s do not map bijectively onto cells at %s"
                    " in dimension %d" % (xh, x, n))
    return ok


def lift_complex_map(base_cx, cover_cx, covering):
    """Induced cellular map of a verified covering, with verification.

    `covering` is the report of `check_covering` or `check_galois` on the
    complexes' path tables; NotACovering is raised unless it holds.
    Checks that the homotopy class partitions correspond through the
    projection fiberwise in both directions, that the induced map
    commutes with all face maps, and that it restricts to a bijection
    between the (cell, position) incidences of each cover vertex and
    those of its image.
    """
    p = covering.morphism
    _check_endpoints(base_cx.table, cover_cx.table, p)
    if not covering.ok:
        raise NotACovering(covering.witnesses[0] if covering.witnesses
                           else "covering conditions fail")
    if base_cx.variant != cover_cx.variant:
        raise ValueError("complexes use different homotopy variants")
    witnesses = []
    bt, ct = base_cx.table, cover_cx.table
    bcl, ccl = base_cx.classes, cover_cx.classes
    img_cls = [None] * len(ct.paths)
    by_source = {}
    corr = True
    for i, w in enumerate(ct.paths):
        by_source.setdefault(w.source, []).append(i)
        im = p.path_image(w)
        if len(im) > bt.bound:
            corr = False
            witnesses.append("image of %s exceeds the base table bound" % w)
            continue
        img_cls[i] = bcl.class_of(im)
    for xh in ct.quiver.vertices:
        idxs = by_source.get(xh, [])
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                same_up = ccl.class_of_index[i] == ccl.class_of_index[j]
                same_down = img_cls[i] is not None \
                    and img_cls[i] == img_cls[j]
                if same_up != same_down:
                    corr = False
                    witnesses.append(
                        "paths %s and %s from %s are%s together upstairs"
                        " but%s downstairs"
                        % (ct.paths[i], ct.paths[j], xh,
                           "" if same_up else " not",
                           "" if same_down else " not"))
    cls_map = {cid: img_cls[i] for cid, i in enumerate(ccl.rep_index)}
    cell_map, cells_ok = _induced_cell_map(cover_cx, base_cx, p.vertex,
                                           cls_map, witnesses)
    fc = _faces_commute(cover_cx, base_cx, cell_map, witnesses)
    inc = _incidence_bijections(cover_cx, base_cx, p, cell_map, witnesses)
    fibers = {}
    for n, layer in enumerate(base_cx.keys):
        row = cell_map.get(n, ())
        fibers[n] = _fibers(range(len(layer)), range(len(row)),
                            row.__getitem__)
    ok = corr and cells_ok and fc and inc
    return CellMapReport(ok=ok, class_correspondence=corr,
                         cell_map=cell_map, faces_commute=fc,
                         incidence_bijections=inc, cell_fibers=fibers,
                         witnesses=tuple(witnesses), covering=covering)


def deck_group(base_cx, cover_cx, lift):
    """Deck maps of a Galois covering at the cell level.

    `lift` is the `lift_complex_map` report of a `check_galois` report;
    NotGalois is raised unless that check held and the cover is
    connected and the base has a vertex.  Builds the cell automorphism
    induced by every group element, then certifies regularity: the maps
    are pairwise distinct, the projection is constant on orbits, and the
    maps act transitively on the zero-cell fiber over the base point, the
    first base vertex.
    """
    rep = lift.covering
    _check_endpoints(base_cx.table, cover_cx.table, rep.morphism)
    if rep.action is None:
        raise NotGalois("the covering was checked without a group action")
    if not rep.galois_ok:
        raise NotGalois(rep.witnesses[0] if rep.witnesses
                        else "conditions fail")
    if not cover_cx.table.quiver.is_connected():
        raise NotGalois("cover quiver is not connected")
    if not base_cx.table.quiver.vertices:
        raise NotGalois("the base quiver has no vertex, so the deck group "
                        "has no base point")
    witnesses = list(lift.witnesses)
    base_point = base_cx.table.quiver.vertices[0]
    ccl = cover_cx.classes
    maps = []
    autos = True
    compat = True
    for g in rep.action.elements:
        # an automorphism preserves path length, so images stay in-table
        cls_map = {cid: ccl.class_of(g.path_image(ccl.class_rep[cid]))
                   for cid in range(len(ccl))}
        cmap, cok = _induced_cell_map(cover_cx, cover_cx, g.vertex,
                                      cls_map, witnesses)
        perm = all(sorted(row) == list(range(len(row)))
                   for row in cmap.values())
        fok = _faces_commute(cover_cx, cover_cx, cmap, witnesses)
        if not (cok and perm and fok):
            autos = False
            witnesses.append("a group element does not induce a cell"
                             " automorphism")
        for n, row in cmap.items():
            prow = lift.cell_map[n]
            if any(prow[row[j]] != prow[j] for j in range(len(row))
                   if row[j] >= 0):
                compat = False
                witnesses.append("projection is not constant on an orbit"
                                 " in dimension %d" % n)
                break
        maps.append(cmap)
    sigs = [tuple(sorted(m.items())) for m in maps]
    distinct = len(set(sigs)) == len(sigs)
    if not distinct:
        witnesses.append("two group elements induce the same cell map")
    fiber_cells = lift.cell_fibers[0][base_cx.cell_index[(0, base_point)]]
    fiber = tuple(cover_cx.keys[0][i] for i in fiber_cells)
    # nonempty: a covering has no empty vertex fiber
    transitive = {m[0][fiber_cells[0]] for m in maps} == set(fiber_cells)
    if not transitive:
        witnesses.append("deck maps are not transitive on the fiber"
                         " over %s" % base_point)
    ok = lift.ok and autos and compat and distinct and transitive
    return DeckReport(ok=ok, order=len(rep.action), maps=tuple(maps),
                      automorphisms=autos, compatible=compat,
                      distinct=distinct, transitive=transitive,
                      base_point=base_point, fiber=fiber,
                      witnesses=tuple(witnesses))
