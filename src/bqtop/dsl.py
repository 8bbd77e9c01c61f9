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
1-based ``line:column`` position of the offending token.  Each line is
split into words once; a word's column is worked out only when an error
names it, by scanning the line's words from the left.
"""

from __future__ import annotations

import re

from .core import (Arrow, BoundQuiver, MalformedRelation, Path, QuiverError,
                   RelVector)
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
    """(line_no, line, words) of each line with words, comments stripped."""
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
    return [(ln, line, words) for ln, line in enumerate(lines, start=1)
            if (words := line.split())]


def _at(line, k):
    """(line_no, column) of word k of a `_tokens` line, the column 1-based
    and found by scanning the words left to right."""
    ln, text, words = line
    at = 0
    for word in words[:k]:
        at = text.index(word, at) + len(word)
    return ln, text.index(words[k], at) + 1


def _parse_term(line, k, sign, arrows):
    tok = line[2][k]
    pieces = tok.split("*")
    coeff = sign
    if pieces and _COEFF.match(pieces[0]):
        try:
            coeff = sign * (QQ.of(pieces[0]) if "/" in pieces[0]
                            else int(pieces[0]))
        except ZeroDivisionError:
            raise ParseError("coefficient %r has a zero denominator"
                             % pieces[0], *_at(line, k)) from None
        pieces = pieces[1:]
    if not pieces or "" in pieces:
        raise ParseError("malformed relation term %r" % tok, *_at(line, k))
    for name in pieces:
        if name not in arrows:
            raise ParseError("unknown arrow %r" % name, *_at(line, k))
    return pieces, coeff


def parse(text):
    """Parse quiver text into a BoundQuiver.  Every check the public
    constructor makes is made here, with the offending token's line and
    column, so the quiver is built with no second check."""
    vertices = {}  # in first-use order
    arrows = {}  # name -> Arrow, in declared order
    rel_lines = []
    for line in _tokens(text):
        toks = line[2]
        head = toks[0]
        if head == "vertex":
            if len(toks) != 2:
                raise ParseError("vertex takes exactly one id", *_at(line, 0))
            v = toks[1]
            if v in vertices:
                raise ParseError("duplicate vertex %r" % v, *_at(line, 1))
            vertices[v] = None
        elif head == "arrow":
            if len(toks) != 4:
                raise ParseError("arrow takes name, source and target",
                                 *_at(line, 0))
            name, src, dst = toks[1:]
            if name in arrows:
                raise ParseError("duplicate arrow %r" % name, *_at(line, 1))
            arrows[name] = Arrow(name, src, dst)
            vertices.setdefault(src)
            vertices.setdefault(dst)
        elif head == "rel":
            if len(toks) < 2:
                raise ParseError("empty relation", *_at(line, 0))
            rel_lines.append(line)
        else:
            raise ParseError("unknown statement %r" % head, *_at(line, 0))

    relations = []
    for line in rel_lines:
        toks = line[2]
        terms = []
        expect_term = True
        sign = 1
        for k in range(1, len(toks)):
            if expect_term:
                names, coeff = _parse_term(line, k, sign, arrows)
                for x, y in zip(names, names[1:]):
                    if arrows[x].target != arrows[y].source:
                        raise ParseError("path breaks between %r and %r"
                                         % (x, y), *_at(line, k))
                terms.append((Path(arrows[names[0]].source,
                                   arrows[names[-1]].target, tuple(names)),
                              coeff))
                expect_term = False
            else:
                tok = toks[k]
                if tok == "+":
                    sign = 1
                elif tok == "-":
                    sign = -1
                else:
                    raise ParseError("expected + or - between terms, got %r"
                                     % tok, *_at(line, k))
                expect_term = True
        if expect_term:
            raise ParseError("relation ends with a dangling sign",
                             *_at(line, 0))
        try:
            rel = RelVector.build(terms)
            rel.check_admissible_format()
        except MalformedRelation as e:
            raise ParseError(str(e), *_at(line, 0)) from None
        relations.append(rel)
    return BoundQuiver._trusted(vertices, arrows.values(), relations)


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
    """Shared vmap/amap line reader; yields (kind, src, dst, line), the
    line as `_tokens` gives it."""
    for line in _tokens(text):
        toks = line[2]
        head = toks[0]
        if head not in kinds:
            raise ParseError("unknown statement %r" % head, *_at(line, 0))
        if head == "element":
            if len(toks) != 2:
                raise ParseError("element takes exactly one name",
                                 *_at(line, 0))
            yield ("element", toks[1], None, line)
            continue
        if len(toks) != 4 or toks[2] != "->":
            raise ParseError("%s line must read: %s <from> -> <to>"
                             % (head, head), *_at(line, 0))
        yield (head, toks[1], toks[3], line)


def _build_morphism(source, target, vmap, amap, ln):
    try:
        return QuiverMorphism(source, target, vmap, amap)
    except QuiverError as e:
        raise ParseError(str(e), ln, 1) from None


def parse_morphism(text, source, target):
    """Parse vmap/amap lines into a morphism from source to target."""
    vmap, amap = {}, {}
    last = 1
    for kind, a, b, line in _parse_assignments(text, ("vmap", "amap")):
        store = vmap if kind == "vmap" else amap
        if a in store:
            raise ParseError("duplicate %s for %r" % (kind, a),
                             *_at(line, 0))
        store[a] = b
        last = line[0]
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

    for kind, a, b, line in _parse_assignments(
            text, ("element", "vmap", "amap")):
        if kind == "element":
            flush()
            if a in names:
                raise ParseError("duplicate element %r" % a, *_at(line, 0))
            names.add(a)
            current = (a, {}, {}, line[0])
            continue
        if current is None:
            raise ParseError("%s line outside an element block" % kind,
                             *_at(line, 0))
        store = current[1] if kind == "vmap" else current[2]
        if a in store:
            raise ParseError("duplicate %s for %r" % (kind, a),
                             *_at(line, 0))
        store[a] = b
    flush()
    if not elements:
        raise ParseError("group file declares no elements")
    return elements
