"""Slow reference constructions that the library's fast ones are tested
against.

`rebuilt_path_table` is the path table as it was built before the
per-pair bases were grown one length at a time: for each candidate bound
L it forms every whole product u*g*v that fits in length L, reduces every
vertex pair's span from scratch and tests each length-L path by reducing
its dense unit vector; at the accepted L it rebuilds all slices once more
from the truncated products (longer components dropped).

`swept_natural_classes` is natural homotopy as it was computed before the
congruence closure: the co-member groups merged, then every factor of
every table path replaced by every other member of its class, in full
passes until one pass merges nothing.
"""

from fractions import Fraction

from bqtop.core import (AdmissibilityError, Path, _paths_up_to, compose,
                        path_sort_key)
from bqtop.homotopy import _find, _union, relation_components
from bqtop.linalg import QQ, rref


def _spans(quiver, by_len, max_len, truncate):
    """Term lists of the products u*g*v per vertex pair: whole products
    within max_len, or with truncate=True every product whose shortest
    component fits, its longer components dropped."""
    spans = {}
    paths_to, paths_from = {}, {}
    for bucket in by_len[:max_len + 1]:
        for p in bucket:
            paths_to.setdefault(p.target, []).append(p)
            paths_from.setdefault(p.source, []).append(p)
    for rel in quiver.relations:
        lens = [len(p) for p, _ in rel.terms]
        critical = min(lens) if truncate else max(lens)
        for u in paths_to.get(rel.source, []):
            for v in paths_from.get(rel.target, []):
                if len(u) + critical + len(v) > max_len:
                    continue
                terms = [(compose(compose(u, p), v), c) for p, c in rel.terms
                         if len(u) + len(p) + len(v) <= max_len]
                spans.setdefault((u.source, v.target), []).append(terms)
    return spans


def _dense_slices(quiver, by_len, max_len, spans):
    """Pair-local path lists and dense RREF rows of each pair's span."""
    pair_lists = {}
    for bucket in by_len[:max_len + 1]:
        for p in bucket:
            pair_lists.setdefault((p.source, p.target), []).append(p)
    for plist in pair_lists.values():
        plist.sort(key=lambda p: path_sort_key(quiver, p))
    rows_by_pair = {}
    for pair, termlists in spans.items():
        pos = {p: k for k, p in enumerate(pair_lists[pair])}
        raw = []
        for terms in termlists:
            vec = [Fraction(0)] * len(pos)
            for p, c in terms:
                vec[pos[p]] += c
            raw.append(vec)
        rows = [r for r in rref(raw, QQ)[0] if any(r)]
        if rows:
            rows_by_pair[pair] = rows
    return rows_by_pair, pair_lists


def dense_reduces_to_zero(rows, vec):
    """Whether a dense vector lies in the span of dense RREF rows."""
    v = list(vec)
    for row in rows:
        lead = next(k for k, x in enumerate(row) if x != 0)
        if v[lead] != 0:
            f = v[lead]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def rebuilt_path_table(quiver, cap):
    """(bound, paths, {pair: dense RREF rows}, in_ideal, dims) as the
    rebuild-per-L construction gives them; raises AdmissibilityError
    with the library's message when no L <= cap certifies."""
    if quiver.is_acyclic():
        by_len = _paths_up_to(quiver, None)
        cap = max(cap, len(by_len) - 1)
        by_len += [[] for _ in range(cap + 1 - len(by_len))]
    else:
        by_len = _paths_up_to(quiver, cap)
    for L in range(2, cap + 1):
        rows_by_pair, pair_lists = _dense_slices(
            quiver, by_len, L, _spans(quiver, by_len, L, truncate=False))
        if all(dense_reduces_to_zero(
                rows_by_pair.get((p.source, p.target), []),
                [Fraction(q == p) for q in pair_lists[(p.source, p.target)]])
               for p in by_len[L]):
            break
    else:
        raise AdmissibilityError(
            "no nilpotency bound L <= %d certifies the ideal admissible; "
            "raise the path cap if the quiver is genuinely bounded" % cap)
    rows_by_pair, pair_lists = _dense_slices(
        quiver, by_len, L, _spans(quiver, by_len, L, truncate=True))
    paths = sorted((p for bucket in by_len[:L + 1] for p in bucket),
                   key=lambda p: path_sort_key(quiver, p))
    index = {p: i for i, p in enumerate(paths)}
    in_ideal = set()
    dims = {}
    for pair, plist in pair_lists.items():
        rows = rows_by_pair.get(pair, [])
        dims[pair] = len(plist) - len(rows)
        for k, p in enumerate(plist):
            e = [Fraction(j == k) for j in range(len(plist))]
            if rows and dense_reduces_to_zero(rows, e):
                in_ideal.add(index[p])
    return L, paths, rows_by_pair, in_ideal, dims


def swept_natural_classes(table):
    """(classes, skipped): the partition of table indices into natural
    classes, as a set of frozensets, that the factor-replacement sweep
    p = uvw -> uv'w (v ~ v') reaches, and whether its final pass skipped a
    replacement because uv'w is longer than the table bound."""
    q = table.quiver
    parent = list(range(len(table.paths)))
    for group in relation_components(table):
        for p in group[1:]:
            _union(parent, table.index[group[0]], table.index[p])
    changed = True
    while changed:
        changed = skipped = False
        members_of = {}
        for i in range(len(table.paths)):
            members_of.setdefault(_find(parent, i), []).append(i)
        for i, p in enumerate(table.paths):
            verts = q.path_vertices(p)
            for a in range(len(p) - 1):
                for b in range(a + 2, len(p) + 1):
                    mid = Path(verts[a], verts[b], p.arrows[a:b])
                    group = members_of.get(_find(parent, table.index[mid]), ())
                    for j in group:
                        alt = table.paths[j]
                        if alt == mid:
                            continue
                        if len(p) - (b - a) + len(alt) > table.bound:
                            skipped = True
                            continue
                        new = Path(p.source, p.target,
                                   p.arrows[:a] + alt.arrows + p.arrows[b:])
                        if _union(parent, i, table.index[new]):
                            changed = True
    classes = {}
    for i in range(len(table.paths)):
        classes.setdefault(_find(parent, i), set()).add(i)
    return set(map(frozenset, classes.values())), skipped
