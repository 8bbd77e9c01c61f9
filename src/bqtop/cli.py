"""Command line front end: parse inputs, dispatch, emit JSON reports.

Reports follow a fixed envelope (schema tag, tool version, input echo,
resolved configuration, result, caveat list) and are serialized with
sorted keys and stable ordering, so identical input and configuration
produce byte-identical output.  No timestamps or absolute paths are
injected.  The report text is written directly by `_report_text`, byte
for byte what `json.dumps(report, indent=2, sort_keys=True)` gives, with
strings going through the C string encoder (with an indent, `json.dumps`
runs its pure-Python encoder).  The `cells` report, the largest, hands
the writer each layer of cells of dimension n >= 1 as one block, which
writes every cell by one fill of a template built for the layer's indent.

The command line is parsed in one argparse pass: words after a known
subcommand go straight to that subcommand's parser, and what it leaves
over is refused as the top parser's `parse_args` refuses it; everything
else (no words, -h, --version, an unknown command) goes through the top
parser.  A bad --coeff or --field value is refused before the input is
read.

Exit codes: 0 when the command computed what it was asked; 1 when a
verdict-style command found its verdict false or a domain precondition
failed (reported in JSON with ok=false); 2 on input errors (syntax,
malformed quivers, unreadable files, bad flag values).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .algcohom import (HochschildComplex, NoSemiNormedBasis,
                       TriangularRequired, find_semi_normed_basis,
                       epsilon_mu, hochschild_scalars, simplicial_complex)
from .complex import (build_complex, cellular_chains, cohomology_of_matrices,
                      euler_characteristic, homology, homology_of_matrices,
                      parse_coefficients)
from .core import (DEFAULT_PATH_CAP, QuiverError, algebra_properties,
                   enumerate_paths)
from .coverings import (GroupAction, NotGalois, check_covering, check_galois,
                        deck_group, lift_complex_map)
from .dsl import ParseError, parse, parse_group, parse_morphism
from .homotopy import (HypothesisViolated, abelianization,
                       natural_homotopy_classes, pi1_presentation,
                       simplify_presentation, van_kampen_pushout,
                       walk_homotopy_classes)

_SCHEMA = "bqtop-report/1"


def _path_cap(text):
    """A --path-cap value: the bound search starts at L = 2, so a smaller
    cap can certify no cyclic quiver and means nothing on an acyclic one."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if cap < 2:
        raise argparse.ArgumentTypeError("must be at least 2, got %d" % cap)
    return cap


@functools.cache
def _build_parser():
    """The top parser and its subcommand parsers by name.

    Built on the first call and kept: in-process callers run main many
    times, and parsing leaves the parsers unchanged."""
    top = argparse.ArgumentParser(
        prog="bqtop",
        description="classifying spaces, fundamental groups and"
                    " cohomology of bound quivers")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, file=True):
        if file:
            p.add_argument("file", help="quiver file")
        p.add_argument("--path-cap", type=_path_cap, default=None,
                       help="bound certification cap, at least 2")
        p.add_argument("--out", default=None, help="write report here")

    common(sub.add_parser("check", help="algebra properties"))

    p = sub.add_parser("cells", help="cells of the classifying complex")
    common(p)
    p.add_argument("--sharp", action="store_true",
                   help="use walk classes (total variant)")
    p.add_argument("--max-dim", type=int, default=None)

    for name in ("homology", "cohomology"):
        p = sub.add_parser(name, help="%s of the classifying complex" % name)
        common(p)
        p.add_argument("--coeff", default="Z",
                       help="Z, Q, Fp:<p> or Zmod:<m>")
        p.add_argument("--sharp", action="store_true")

    p = sub.add_parser("pi1", help="fundamental group presentation")
    common(p)
    p.add_argument("--base", default=None)
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--abelianization", action="store_true")

    p = sub.add_parser("vankampen", help="pushout of two vertex pieces")
    common(p)
    p.add_argument("--v1", nargs="+", required=True)
    p.add_argument("--v2", nargs="+", required=True)

    common(sub.add_parser("simplicial",
                          help="semi-normed basis and simplicial homology"))

    p = sub.add_parser("hochschild", help="Hochschild cohomology dimensions")
    common(p)
    p.add_argument("--field", default="Q", help="Q or Fp:<p>")

    common(sub.add_parser("compare",
                          help="simplicial vs Hochschild with the"
                               " comparison map"))

    p = sub.add_parser("cover", help="verify covering data")
    p.add_argument("action", choices=["verify"])
    p.add_argument("base", help="base quiver file")
    p.add_argument("cover", help="cover quiver file")
    p.add_argument("morphism", help="morphism file")
    p.add_argument("--galois", default=None, help="group file")
    common(p, file=False)

    p = sub.add_parser("dot", help="DOT export of the quiver")
    common(p)
    p.add_argument("--skeleton", action="store_true",
                   help="export the complex 1-skeleton instead")
    return top, sub.choices


def _parse_argv(argv):
    """The namespace `parse_args` gives for argv, in one argparse pass.

    The top parser hands every word after a subcommand to that
    subcommand's parser and reports what it leaves over, so that parser
    is called directly.  Everything else goes through the top parser: no
    words, an unknown command, and a word starting "--=" or "-=".  The
    top parser reads every word against its own options first, and may
    take such a word for an abbreviation of several of -h, --help and
    --version and refuse it as ambiguous.
    """
    top, commands = _build_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None or any(w.startswith(("--=", "-=")) for w in argv):
        return top.parse_args(argv)
    args, extras = sub.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        top.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path, cap):
    quiver = parse(_read(path))
    return quiver, enumerate_paths(quiver, cap)


def _groups_json(res, prefix):
    out = {}
    for i, g in enumerate(res.groups):
        key = "%s%d" % (prefix, i)
        if res.kind == "Z":
            out[key] = [g[0], list(g[1])]
        elif res.kind == "field":
            out[key] = g
        else:
            out[key] = list(g)
    return out


def _word(rel):
    if not rel:
        return "1"
    return "*".join(name if s > 0 else "%s^-1" % name for name, s in rel)


def _presentation_json(pres):
    rank, torsion = abelianization(pres)
    return {
        "base": pres.base,
        "generators": list(pres.generators),
        "relators": [_word(r) for r in pres.relators],
        "abelianization": {"rank": rank, "torsion": list(torsion)},
    }


def _covering_json(rep):
    out = {
        "ok": rep.ok,
        "ideal_preserved": rep.ideal_preserved,
        "fibers_nonempty": rep.fibers_nonempty,
        "local_bijections": rep.local_bijections,
        "relations_lift": rep.relations_lift,
        "vertex_fibers": {x: list(f) for x, f in rep.vertex_fibers.items()},
        "arrow_fibers": {a: list(f) for a, f in rep.arrow_fibers.items()},
        "witnesses": list(rep.witnesses),
    }
    if rep.galois_ok is not None:
        out["galois"] = {
            "ok": rep.galois_ok,
            "equivariant": rep.equivariant,
            "vertex_transitive": rep.vertex_transitive,
            "arrow_transitive": rep.arrow_transitive,
            "fixed_point_free": rep.fixed_point_free,
            "group_order": rep.group_order,
        }
    return out


def _dispatch(args, quiver, cap):
    """Returns (result dict, caveats, ok) of a command on one quiver, with
    paths listed up to the bound cap `cap`."""
    cmd = args.command
    if cmd in ("homology", "cohomology"):
        prefix = "H" if cmd == "homology" else "H^"
        counts, dims, columns, caveats = cellular_chains(quiver, args.sharp,
                                                         cap)
        fn = (homology_of_matrices if cmd == "homology"
              else cohomology_of_matrices)
        res = fn(dims, columns, args.coeff, len(counts) - 1)
        return ({"coefficients": res.coeff,
                 "groups": _groups_json(res, prefix),
                 "counts": counts},
                caveats, True)

    table = enumerate_paths(quiver, cap)
    if cmd == "check":
        props = algebra_properties(table)
        result = {
            "nilpotency_bound": props.nilpotency_bound,
            "admissible": props.admissible,
            "connected": props.connected,
            "triangular": props.triangular,
            "almost_triangular": props.almost_triangular,
            "schurian": props.schurian,
            "semi_commutative": props.semi_commutative,
            "constricted": props.constricted,
            "euler_characteristic": props.euler_characteristic,
            "total_dimension": props.total_dimension,
            "dims": {"%s->%s" % p: d
                     for p, d in sorted(props.dims.items()) if d},
        }
        return result, [], True

    if cmd == "cells":
        classes = (walk_homotopy_classes(table) if args.sharp
                   else natural_homotopy_classes(table))
        cx = build_complex(table, classes, max_dim=args.max_dim)
        cells = {"0": cx.keys[0]}
        for n in range(1, len(cx.keys)):
            cells[str(n)] = functools.partial(
                _cell_list, cx.keys[n], cx.witnesses[n], table.words)
        return ({"counts": cx.counts(), "cells": cells,
                 "euler_characteristic": euler_characteristic(cx)},
                list(cx.caveats), True)

    if cmd == "pi1":
        pres = pi1_presentation(table, base=args.base)
        if args.simplify:
            pres = simplify_presentation(pres)
        result = {
            "base": pres.base,
            "generators": list(pres.generators),
            "relators": [_word(r) for r in pres.relators],
        }
        if args.abelianization:
            rank, torsion = abelianization(pres)
            result["abelianization"] = {"rank": rank,
                                        "torsion": list(torsion)}
        return result, [], True

    if cmd == "vankampen":
        try:
            vk = van_kampen_pushout(table, args.v1, args.v2)
        except HypothesisViolated as e:
            return {"error": str(e)}, [], False
        return ({"piece1": _presentation_json(vk.piece1),
                 "piece2": _presentation_json(vk.piece2),
                 "intersection": _presentation_json(vk.intersection),
                 "pushout": _presentation_json(vk.pushout)},
                [], True)

    if cmd in ("simplicial", "hochschild", "compare"):
        try:
            algebra = find_semi_normed_basis(table)
        except TriangularRequired as e:
            return {"error": str(e)}, [], False
        caveats = list(algebra.classes.caveats)
        if not algebra.ok:
            return {"witnesses": list(algebra.witnesses)}, caveats, False

        if cmd == "simplicial":
            sc = simplicial_complex(algebra)
            res = homology(sc, "Z")
            return ({"basis": [str(table.paths[i]) for i in algebra.basis],
                     "counts": list(sc.counts()),
                     "SH": _groups_json(res, "SH")},
                    caveats, True)

        if cmd == "hochschild":
            hc = HochschildComplex(algebra, args.field)
            return ({"field": args.field, "HH": hc.hh_dims()}, caveats,
                    True)

        # compare
        hc = HochschildComplex(algebra, "Q")
        sc = simplicial_complex(algebra)
        rep = epsilon_mu(algebra, sc, hc)
        return ({"SH": [d["sh"] for d in rep.degrees],
                 "HH": [d["hh"] for d in rep.degrees],
                 "epsilon_iso": rep.iso,
                 "semi_commutative": rep.semi_commutative,
                 "schurian": rep.schurian,
                 "eps_cochain_map": rep.eps_cochain_map,
                 "mu_cochain_map": rep.mu_cochain_map,
                 "mu_eps_identity": rep.mu_eps_identity,
                 "eps_mu_identity": rep.eps_mu_identity,
                 "degrees": [dict(d, degree=i)
                             for i, d in enumerate(rep.degrees)]},
                caveats, True)

    raise AssertionError("unhandled command %r" % cmd)


def _cover(args, cap):
    base_q, base_t = _load(args.base, cap)
    cover_q, cover_t = _load(args.cover, cap)
    p = parse_morphism(_read(args.morphism), cover_q, base_q)
    result = {}
    caveats = []
    if args.galois is not None:
        elements = parse_group(_read(args.galois), cover_q)
        rep = check_galois(base_t, cover_t, p, GroupAction(cover_t, elements))
    else:
        rep = check_covering(base_t, cover_t, p)
    result["covering"] = _covering_json(rep)
    ok = rep.ok
    if rep.ok:
        cxb = build_complex(base_t, natural_homotopy_classes(base_t))
        cxc = build_complex(cover_t, natural_homotopy_classes(cover_t))
        caveats.extend(cxb.caveats)
        caveats.extend(cxc.caveats)
        lift = lift_complex_map(cxb, cxc, rep)
        result["cells"] = {
            "ok": lift.ok,
            "class_correspondence": lift.class_correspondence,
            "faces_commute": lift.faces_commute,
            "incidence_bijections": lift.incidence_bijections,
            "base_counts": cxb.counts(),
            "cover_counts": cxc.counts(),
            "fiber_sizes": {str(n): sorted(len(f) for f in fib.values())
                            for n, fib in lift.cell_fibers.items()},
            "witnesses": list(lift.witnesses),
        }
        ok = ok and lift.ok
        if args.galois is not None:
            ok = ok and rep.galois_ok
            if rep.galois_ok and cover_q.is_connected():
                deck = deck_group(cxb, cxc, lift)
                result["deck"] = {
                    "ok": deck.ok,
                    "order": deck.order,
                    "automorphisms": deck.automorphisms,
                    "compatible": deck.compatible,
                    "distinct": deck.distinct,
                    "transitive": deck.transitive,
                    "base_point": deck.base_point,
                    "fiber": list(deck.fiber),
                    "witnesses": list(deck.witnesses),
                }
                ok = ok and deck.ok
            elif rep.galois_ok:
                result["deck"] = {"skipped": "cover is not connected"}
    return result, caveats, ok


def _dot(args, cap):
    quiver, table = _load(args.file, cap)
    lines = ["digraph quiver {"]
    lines += ['  "%s";' % v for v in quiver.vertices]
    if args.skeleton:
        # the 1-cells: one per nonzero non-identity class, its witness the
        # least nonzero member
        cl = natural_homotopy_classes(table)
        edges = [(cl.class_source[cid], cl.class_target[cid],
                  "*".join(table.words[cl.rep_index[cid]]))
                 for cid in cl.one_cell_classes()]
    else:
        edges = [(a.source, a.target, a.name) for a in quiver.arrows]
    lines += ['  "%s" -> "%s" [label="%s"];' % e for e in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _input_echo(args, quiver):
    if args.command == "cover":
        echo = {"base": args.base, "cover": args.cover,
                "morphism": args.morphism}
        if args.galois is not None:
            echo["group"] = args.galois
        return echo
    return {"file": args.file, "vertices": len(quiver.vertices),
            "arrows": len(quiver.arrows),
            "relations": len(quiver.relations)}


def _cell_list(keys, witnesses, words, nl):
    """A nonempty layer's cells as `json.dumps` writes the list of
    `{"classes": list(key), "witness": "*".join(words[w])}` dicts on a
    line indented `nl`: one template fill per cell (a witness is never
    stationary)."""
    i2, i4, i6 = nl + "  ", nl + "    ", nl + "      "
    cell = ('{' + i4 + '"classes": [' + i6 + '%s' + i4 + '],' + i4
            + '"witness": %s' + i2 + '}')
    sep = "," + i6
    return ("[" + i2 + ("," + i2).join([
        cell % (sep.join(map(str, key)), _quote("*".join(words[w])))
        for key, w in zip(keys, witnesses)]) + nl + "]")


def _report_text(doc):
    """`json.dumps(doc, indent=2, sort_keys=True)`, written directly.

    Containers are dicts with string keys, lists and tuples; strings go
    through the C string encoder, ints, bools and None are written
    inline, a block (a callable leaf, such as a layer of `_cell_list`)
    writes itself given the indent of its line, and any other leaf goes
    to `json.dumps` itself (which raises on a value JSON cannot hold).
    A key that is not a string raises TypeError.  Open containers are
    kept on a stack of (entries, indent, closing) frames, each entry
    being the text before a value and the value.
    """
    parts = []
    put = parts.append
    frames = [(iter((("", doc),)), "\n", "")]
    while frames:
        entries, nl, close = frames[-1]
        for before, value in entries:
            put(before)
            if isinstance(value, str):
                put(_quote(value))
            elif value is None:
                put("null")
            elif value is True:
                put("true")
            elif value is False:
                put("false")
            elif isinstance(value, int):
                put(int.__repr__(value))
            elif isinstance(value, (list, tuple, dict)) and value:
                inner = nl + "  "
                if isinstance(value, dict):
                    keys = sorted(value)
                    seq = [("," + inner + _quote(k) + ": ", value[k])
                           for k in keys]
                    opening, closing = "{", nl + "}"
                else:
                    seq = [("," + inner, v) for v in value]
                    opening, closing = "[", nl + "]"
                seq[0] = (opening + seq[0][0][1:], seq[0][1])
                frames.append((iter(seq), inner, closing))
                break
            elif isinstance(value, (list, tuple)):
                put("[]")
            elif isinstance(value, dict):
                put("{}")
            elif callable(value):
                put(value(nl))
            else:
                put(json.dumps(value))
        else:
            frames.pop()
            put(close)
    return "".join(parts)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_scalars(args):
    """Rejects a bad --coeff or --field value before the input is read."""
    if args.command in ("homology", "cohomology"):
        parse_coefficients(args.coeff)
    elif args.command == "hochschild":
        hochschild_scalars(args.field)


def main(argv=None):
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    cap = DEFAULT_PATH_CAP if args.path_cap is None else args.path_cap
    try:
        _check_scalars(args)
        if args.command == "dot":
            _emit(_dot(args, cap), args.out)
            return 0
        if args.command == "cover":
            quiver = None
            result, caveats, ok = _cover(args, cap)
        else:
            quiver = parse(_read(args.file))
            result, caveats, ok = _dispatch(args, quiver, cap)
        doc = {
            "schema": _SCHEMA,
            "tool": {"name": "bqtop", "version": __version__},
            "command": args.command,
            "input": _input_echo(args, quiver),
            "config": {"path_cap": args.path_cap},
            "ok": ok,
            "result": result,
            "caveats": sorted(set(caveats)),
        }
        _emit(_report_text(doc) + "\n", args.out)
        return 0 if ok else 1
    except ParseError as e:
        print("bqtop: syntax error: %s" % e, file=sys.stderr)
        return 2
    except (QuiverError, NoSemiNormedBasis, NotGalois, OSError,
            ValueError) as e:
        print("bqtop: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
