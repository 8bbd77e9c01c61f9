"""Plain-text formats for quivers, morphisms and group actions.

Quiver files hold one statement per line.  ``vertex <id>`` declares a
vertex; ``arrow <name> <src> <dst>`` declares an arrow, implicitly
declaring endpoints not seen before (in first-use order); ``rel <term>
[+|- <term>]*`` declares a relation, where a term is arrow names joined
by ``*`` in traversal order, optionally prefixed by ``<coeff>*`` with an
integer or ``p/q`` coefficient.  Sign tokens between terms must be
separated by whitespace.  ``#`` starts a comment.

Morphism files hold ``vmap <v> -> <v>`` and ``amap <a> -> <a>`` lines
mapping a source quiver into a target quiver.  Group files hold one
``element <name>`` header per group element, each followed by the
vmap/amap lines of that automorphism.

All syntax and semantic problems raise :class:`ParseError` carrying the
1-based ``line:column`` position of the offending token.
"""

from __future__ import annotations

import re

from .core import BoundQuiver, MalformedRelation, Path, QuiverError, RelVector
from .coverings import QuiverMorphism
from .linalg import QQ

_COEFF = re.compile(r"-?\d+(/\d+)?\Z")


class ParseError(Exception):
    """Syntax or semantic error with a 1-based line:column position."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        if line is None:
            super().__init__(message)
        else:
            super().__init__("%d:%d: %s" % (line, col, message))


def _tokens(text):
    """Per line: list of (token, line_no, col_no), comments stripped."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = []
        at = 0
        for tok in line.split():
            at = line.index(tok, at)
            toks.append((tok, ln, at + 1))
            at += len(tok)
        if toks:
            out.append(toks)
    return out


def _parse_term(tok, ln, col, sign, arrows):
    pieces = tok.split("*")
    coeff = sign
    if pieces and _COEFF.match(pieces[0]):
        try:
            coeff = sign * (QQ.of(pieces[0]) if "/" in pieces[0]
                            else int(pieces[0]))
        except ZeroDivisionError:
            raise ParseError("coefficient %r has a zero denominator"
                             % pieces[0], ln, col) from None
        pieces = pieces[1:]
    if not pieces or any(not p for p in pieces):
        raise ParseError("malformed relation term %r" % tok, ln, col)
    for name in pieces:
        if name not in arrows:
            raise ParseError("unknown arrow %r" % name, ln, col)
    return pieces, coeff


def parse(text):
    """Parse quiver text into a BoundQuiver."""
    vertices = []
    vset = set()
    arrows = []
    arrow_names = {}
    rel_lines = []

    def add_vertex(v):
        if v not in vset:
            vset.add(v)
            vertices.append(v)

    for toks in _tokens(text):
        head, ln, col = toks[0]
        if head == "vertex":
            if len(toks) != 2:
                raise ParseError("vertex takes exactly one id", ln, col)
            v = toks[1][0]
            if v in vset:
                raise ParseError("duplicate vertex %r" % v,
                                 toks[1][1], toks[1][2])
            add_vertex(v)
        elif head == "arrow":
            if len(toks) != 4:
                raise ParseError("arrow takes name, source and target",
                                 ln, col)
            name = toks[1][0]
            if name in arrow_names:
                raise ParseError("duplicate arrow %r" % name,
                                 toks[1][1], toks[1][2])
            arrow_names[name] = (toks[2][0], toks[3][0])
            add_vertex(toks[2][0])
            add_vertex(toks[3][0])
            arrows.append((name, toks[2][0], toks[3][0]))
        elif head == "rel":
            if len(toks) < 2:
                raise ParseError("empty relation", ln, col)
            rel_lines.append(toks)
        else:
            raise ParseError("unknown statement %r" % head, ln, col)

    relations = []
    for toks in rel_lines:
        _, ln, col = toks[0]
        terms = []
        expect_term = True
        sign = 1
        for tok, tl, tc in toks[1:]:
            if expect_term:
                names, coeff = _parse_term(tok, tl, tc, sign, arrow_names)
                for k in range(len(names) - 1):
                    if arrow_names[names[k]][1] != arrow_names[names[k + 1]][0]:
                        raise ParseError(
                            "path breaks between %r and %r"
                            % (names[k], names[k + 1]), tl, tc)
                terms.append((Path(arrow_names[names[0]][0],
                                   arrow_names[names[-1]][1], tuple(names)),
                              coeff))
                expect_term = False
            else:
                if tok == "+":
                    sign = 1
                elif tok == "-":
                    sign = -1
                else:
                    raise ParseError("expected + or - between terms, got %r"
                                     % tok, tl, tc)
                expect_term = True
        if expect_term:
            raise ParseError("relation ends with a dangling sign", ln, col)
        try:
            rel = RelVector.build(terms)
            rel.check_admissible_format()
        except MalformedRelation as e:
            raise ParseError(str(e), ln, col) from None
        relations.append(rel)
    return BoundQuiver(vertices, arrows, relations)


def _fmt_coeff(c):
    return str(c.numerator) if c.denominator == 1 else \
        "%d/%d" % (c.numerator, c.denominator)


def serialize(quiver):
    """Quiver text that parses back to an equal quiver."""
    lines = ["vertex %s" % v for v in quiver.vertices]
    lines += ["arrow %s %s %s" % (a.name, a.source, a.target)
              for a in quiver.arrows]
    for rel in quiver.relations:
        bits = []
        for k, (p, c) in enumerate(rel.terms):
            body = "*".join(p.arrows)
            mag = abs(c)
            term = body if mag == 1 else "%s*%s" % (_fmt_coeff(mag), body)
            if k == 0:
                bits.append(term if c > 0 else "-%s*%s"
                            % (_fmt_coeff(mag), body))
            else:
                bits.append("+" if c > 0 else "-")
                bits.append(term)
        lines.append("rel " + " ".join(bits))
    return "\n".join(lines) + "\n"


def _parse_assignments(text, kinds):
    """Shared vmap/amap line reader; yields (kind, src, dst, ln, col)."""
    for toks in _tokens(text):
        head, ln, col = toks[0]
        if head not in kinds:
            raise ParseError("unknown statement %r" % head, ln, col)
        if head == "element":
            if len(toks) != 2:
                raise ParseError("element takes exactly one name", ln, col)
            yield ("element", toks[1][0], None, ln, col)
            continue
        if len(toks) != 4 or toks[2][0] != "->":
            raise ParseError("%s line must read: %s <from> -> <to>"
                             % (head, head), ln, col)
        yield (head, toks[1][0], toks[3][0], ln, col)


def _build_morphism(source, target, vmap, amap, ln):
    try:
        return QuiverMorphism(source, target, vmap, amap)
    except QuiverError as e:
        raise ParseError(str(e), ln, 1) from None


def parse_morphism(text, source, target):
    """Parse vmap/amap lines into a morphism from source to target."""
    vmap, amap = {}, {}
    last = 1
    for kind, a, b, ln, col in _parse_assignments(text, ("vmap", "amap")):
        store = vmap if kind == "vmap" else amap
        if a in store:
            raise ParseError("duplicate %s for %r" % (kind, a), ln, col)
        store[a] = b
        last = ln
    return _build_morphism(source, target, vmap, amap, last)


def parse_group(text, quiver):
    """Parse element blocks into a list of self-morphisms of quiver."""
    elements = []
    names = set()
    current = None

    def flush():
        if current is not None:
            elements.append(_build_morphism(quiver, quiver, current[1],
                                            current[2], current[3]))

    for kind, a, b, ln, col in _parse_assignments(
            text, ("element", "vmap", "amap")):
        if kind == "element":
            flush()
            if a in names:
                raise ParseError("duplicate element %r" % a, ln, col)
            names.add(a)
            current = (a, {}, {}, ln)
            continue
        if current is None:
            raise ParseError("%s line outside an element block" % kind,
                             ln, col)
        store = current[1] if kind == "vmap" else current[2]
        if a in store:
            raise ParseError("duplicate %s for %r" % (kind, a), ln, col)
        store[a] = b
    flush()
    if not elements:
        raise ParseError("group file declares no elements")
    return elements
