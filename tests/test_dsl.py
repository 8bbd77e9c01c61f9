"""Text formats: quiver files, morphism files, group files."""

import collections
import pathlib
import random
from fractions import Fraction

import pytest

from bqtop.core import BoundQuiver
from bqtop.dsl import ParseError, parse, parse_group, parse_morphism, serialize
from oracles import (column_parse, column_parse_group, column_parse_morphism,
                     differential_quivers)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def test_parse_minimal():
    q = parse("""
# a comment line
vertex 1
arrow a 1 2
arrow b 2 3
rel a*b
""")
    assert q.vertices == ("1", "2", "3")
    assert [a.name for a in q.arrows] == ["a", "b"]
    assert len(q.relations) == 1
    assert str(q.relations[0]) == "a*b"


def test_implicit_vertices_first_use_order():
    q = parse("arrow a 5 3\narrow b 3 9\n")
    assert q.vertices == ("5", "3", "9")


def test_coefficients_and_signs():
    q = parse("""
arrow a 1 2
arrow b 1 2
arrow c 2 3
rel 2*a*c - 3/2*b*c
""")
    rel = q.relations[0]
    coeffs = {str(p): c for p, c in rel.terms}
    assert coeffs == {"a*c": Fraction(2), "b*c": Fraction(-3, 2)}


def test_round_trip_inline():
    text = """vertex 1
vertex 2
vertex 3
arrow a 1 2
arrow b 1 2
arrow c 2 3
rel a*c - b*c
"""
    q = parse(text)
    assert serialize(q) == text
    assert serialize(parse(serialize(q))) == serialize(q)


@pytest.mark.parametrize("name", [
    "ex1", "ex3", "sphere", "sphere_solid", "vk", "rp2", "rp2_cover",
    "pres1", "pres2", "ker", "nosn", "hhgap", "hheq",
    "cor66_tree1", "cor66_tree2", "cor66_cycle1", "cor66_cycle2",
    "cor66_cycle3",
])
def test_corpus_round_trips(name):
    text = (CORPUS / (name + ".bq")).read_text()
    q = parse(text)
    again = parse(serialize(q))
    assert serialize(again) == serialize(q)
    assert again.vertices == q.vertices
    assert [a.name for a in again.arrows] == [a.name for a in q.arrows]
    assert [str(r) for r in again.relations] == [str(r) for r in q.relations]


def test_parse_builds_the_quiver_once(monkeypatch):
    # relation paths come from the arrow endpoints the parser holds, and
    # the quiver is built once, through either constructor
    built = []
    init, trusted = BoundQuiver.__init__, BoundQuiver._trusted.__func__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args, **kwargs):
        built.append(trusted(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(BoundQuiver, "__init__", counting_init)
    monkeypatch.setattr(BoundQuiver, "_trusted", classmethod(counting_trusted))
    q = parse((CORPUS / "rp2.bq").read_text())
    assert built == [q]


def test_parse_builds_what_the_checked_constructor_builds():
    # parsed with its checks made once, a quiver equals the one the public
    # constructor builds, checking everything again, of its parts
    texts = [path.read_text() for path in sorted(CORPUS.glob("*.bq"))]
    texts += [serialize(q) for q in differential_quivers()]
    assert len(texts) == 18 + 299
    for text in texts:
        q = parse(text)
        checked = BoundQuiver(q.vertices, q.arrows, q.relations)
        assert vars(q) == vars(checked), text


def test_vk_corpus_shape():
    q = parse((CORPUS / "vk.bq").read_text())
    assert len(q.vertices) == 6
    assert len(q.arrows) == 8
    assert len(q.relations) == 2


def positioned(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line is not None and err.value.col is not None
    return str(err.value)


def test_error_positions():
    msg = positioned("vertex 1\nvertex 1\n")
    assert msg.startswith("2:8:") and "duplicate" in msg

    msg = positioned("arrow a 1 2\narrow a 1 2\n")
    assert msg.startswith("2:7:") and "duplicate" in msg

    msg = positioned("arrow a 1 2\nrel a*zz\n")
    assert "unknown arrow" in msg

    msg = positioned("arrow a 1 2\narrow b 3 4\nrel a*b\n")
    assert "does not continue" in msg or "chain" in msg or "break" in msg

    msg = positioned("arrow a 1 2\narrow b 2 3\nrel a*b -\n")
    assert msg.startswith("3:") and "dangling sign" in msg

    msg = positioned("arrow a 1 2\narrow b 2 3\nrel a*b + 1/0*a*b\n")
    assert msg.startswith("3:11:") and "zero denominator" in msg

    # admissibility: a bare arrow cannot generate an admissible ideal
    msg = positioned("arrow a 1 2\narrow b 2 3\narrow c 1 3\nrel a*b - c\n")
    assert "length 1" in msg


def test_token_columns():
    # tabs count one column each
    msg = positioned("arrow a 1 2\narrow\t\ta\t1 2\n")
    assert msg.startswith("2:8:") and "duplicate arrow 'a'" in msg
    # repeated spaces
    msg = positioned("arrow a 1 2\narrow b 2 3\nrel   a*b   +   zz\n")
    assert msg.startswith("3:17:") and "unknown arrow 'zz'" in msg
    # a token seen earlier on the line, whole and inside another token
    msg = positioned("arrow a 1 2\narrow b 2 3\nrel a*b + a*b\ta*b\n")
    assert msg.startswith("3:15:") and "got 'a*b'" in msg
    msg = positioned("arrow a 1 2\narrow b 2 3\nrel a*b   b\n")
    assert msg.startswith("3:11:") and "got 'b'" in msg
    # a trailing comment holds no tokens
    msg = positioned("arrow a 1 2 # zz\nrel a*zz # zz\n")
    assert msg.startswith("2:5:") and "unknown arrow 'zz'" in msg
    msg = positioned("arrow a 1 2#3\nrel a*a#a\n")
    assert msg.startswith("2:5:") and "path breaks" in msg
    assert parse("vertex 1 # 2 3\n").vertices == ("1",)


def test_bad_statement_and_arity():
    with pytest.raises(ParseError):
        parse("foo bar\n")
    with pytest.raises(ParseError):
        parse("arrow a 1\n")
    with pytest.raises(ParseError):
        parse("vertex\n")


def test_parse_morphism_roundtrip():
    base = parse((CORPUS / "rp2.bq").read_text())
    cover = parse((CORPUS / "rp2_cover.bq").read_text())
    p = parse_morphism((CORPUS / "rp2_morphism.map").read_text(),
                       cover, base)
    assert p.vertex("x1") == "1"
    assert p.arrow("b2y") == "beta2"


def test_parse_morphism_errors():
    base = parse("arrow alpha 1 2\n")
    cover = parse("arrow a 1 2\n")
    with pytest.raises(ParseError):
        parse_morphism("vmap 1 -> 1\n", cover, base)  # incomplete
    with pytest.raises(ParseError):
        parse_morphism("vmap 1 -> 1\nvmap 1 -> 2\n"
                       "vmap 2 -> 2\namap a -> alpha\n", cover, base)
    with pytest.raises(ParseError):
        parse_morphism("vmap 1 -> 1\nvmap 2 -> 2\namap a -> nope\n",
                       cover, base)


def test_parse_group():
    cover = parse((CORPUS / "rp2_cover.bq").read_text())
    elements = parse_group((CORPUS / "rp2_group.grp").read_text(), cover)
    assert len(elements) == 2
    assert elements[0].is_identity()
    assert elements[1].vertex("x1") == "y1"


def test_parse_group_errors():
    q = parse("arrow a 1 2\n")
    with pytest.raises(ParseError):
        parse_group("vmap 1 -> 1\n", q)  # line outside an element block
    with pytest.raises(ParseError):
        parse_group("", q)
    with pytest.raises(ParseError):
        parse_group("element g\nelement g\n", q)


def fuzzed(rng, text, pool):
    """text with one to three words deleted, inserted or replaced, or a
    line doubled, its words rejoined by random runs of spaces and tabs."""
    lines = [raw.split() for raw in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        words = rng.choice(lines)
        op = rng.randrange(4)
        if op == 0 and words:
            del words[rng.randrange(len(words))]
        elif op == 1:
            words.insert(rng.randint(0, len(words)), rng.choice(pool))
        elif op == 2:
            lines.insert(rng.randint(0, len(lines)), list(words))
        elif words:
            words[rng.randrange(len(words))] = rng.choice(pool)
    gaps = [" ", "  ", "\t", " \t "]
    return "\n".join(rng.choice(["", " ", "\t"])
                     + "".join(w + rng.choice(gaps) for w in words)
                     for words in lines)


def outcome(read, *args):
    """What a reader gives: the error's type, text and position, or the
    value as `shown`."""
    try:
        value = read(*args)
    except Exception as e:
        return (type(e).__name__, str(e), getattr(e, "line", None),
                getattr(e, "col", None))
    if isinstance(value, BoundQuiver):
        return serialize(value)
    return [(m.vertex_map, m.arrow_map)
            for m in (value if isinstance(value, list) else [value])]


ERROR_KINDS = {
    "unknown statement": "unknown statement",
    "takes": "arity",
    "line must read": "arity",
    "duplicate vertex": "duplicate vertex",
    "duplicate arrow": "duplicate arrow",
    "duplicate vmap": "duplicate map",
    "unknown arrow": "unknown arrow",
    "path breaks": "broken path",
    "expected + or -": "bad sign",
    "dangling sign": "dangling sign",
    "zero denominator": "zero denominator",
    "malformed relation term": "malformed term",
    "outside an element block": "outside a block",
}


def test_fuzzed_texts_fail_as_with_columns_of_every_token():
    # every error, and every parsed value, is the one the reader that
    # found each token's column up front gives
    rng = random.Random(29)
    kinds = collections.Counter()

    def compare(new, old, *args):
        got = outcome(new, *args)
        assert got == outcome(old, *args), args[0]
        if isinstance(got, tuple):
            kinds.update(kind for key, kind in ERROR_KINDS.items()
                         if key in got[1])

    for path in sorted(CORPUS.glob("*.bq")):
        text = path.read_text()
        names = [a.name for a in parse(text).arrows]
        pool = sorted(set(text.split())) + [
            "vertex", "arrow", "rel", "+", "-", "zz", "*", "1/0", "-2/3"]
        pool += [rng.choice(["", "2*", "-1*", "1/0*", "3/4*"]) + a
                 + rng.choice(["", "*" + rng.choice(names)])
                 for a in names for _ in range(3)]
        for _ in range(150):
            compare(parse, column_parse, fuzzed(rng, text, pool))

    base = parse((CORPUS / "rp2.bq").read_text())
    cover = parse((CORPUS / "rp2_cover.bq").read_text())
    for name, new, old, args in (
            ("rp2_morphism.map", parse_morphism, column_parse_morphism,
             (cover, base)),
            ("rp2_group.grp", parse_group, column_parse_group, (cover,))):
        text = (CORPUS / name).read_text()
        pool = sorted(set(text.split())) + [
            "element", "vmap", "amap", "->", "zz", "g"]
        for _ in range(600):
            compare(new, old, fuzzed(rng, text, pool), *args)
    assert set(kinds) == set(ERROR_KINDS.values()), kinds
