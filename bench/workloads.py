"""Operation lists, generated inputs and references of the bqtop benchmark.

An operation is one argv for ``bqtop.cli.main``, run from the repository
root, with the exit code it must return and a check of its report.  The
checks use no bqtop code: corpus reports are compared byte for byte with
``tests/golden`` where a snapshot exists and otherwise with the invariants
the test suite asserts (Euler characteristic against the alternating Betti
sum, H1 against the abelianised pi1, universal coefficients, simplicial
against Hochschild).  Generated quivers are checked against closed forms.

A check receives the operation's report and the reports of the whole pass
(keyed by operation id), and returns an error message or None.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd

CORPUS_COMMANDS = {
    "check": ["check"],
    "cells": ["cells"],
    "homology": ["homology"],
    "cohomology": ["cohomology", "--coeff", "Zmod:4"],
    "pi1": ["pi1", "--simplify", "--abelianization"],
    "simplicial": ["simplicial"],
    "hochschild": ["hochschild"],
    "compare": ["compare"],
    "dot": ["dot", "--skeleton"],
}

# quivers without a semi-normed basis: the algebra commands give a verdict
NO_BASIS = ("ex3", "nosn")

# (golden file, exit code, argv): the snapshots of tests/test_cli.py
SNAPSHOTS = [
    ("ex1_cells.json", 0, ["cells", "corpus/ex1.bq"]),
    ("ex3_cells.json", 0, ["cells", "corpus/ex3.bq"]),
    ("sphere_homology.json", 0, ["homology", "corpus/sphere.bq"]),
    ("sphere_solid_homology.json", 0,
     ["homology", "corpus/sphere_solid.bq"]),
    ("rp2_homology.json", 0, ["homology", "corpus/rp2.bq"]),
    ("rp2_cohomology_zmod4.json", 0,
     ["cohomology", "--coeff", "Zmod:4", "corpus/rp2.bq"]),
    ("vk_pi1.json", 0,
     ["pi1", "--simplify", "--abelianization", "corpus/vk.bq"]),
    ("vk_vankampen.json", 0,
     ["vankampen", "corpus/vk.bq",
      "--v1", "2", "3", "4", "5", "6", "--v2", "1", "2", "3"]),
    ("rp2_cover.json", 0,
     ["cover", "verify", "corpus/rp2.bq", "corpus/rp2_cover.bq",
      "corpus/rp2_morphism.map", "--galois", "corpus/rp2_group.grp"]),
    ("pres1_simplicial.json", 0, ["simplicial", "corpus/pres1.bq"]),
    ("pres2_simplicial.json", 0, ["simplicial", "corpus/pres2.bq"]),
    ("nosn_simplicial.json", 1, ["simplicial", "corpus/nosn.bq"]),
    ("ker_compare.json", 0, ["compare", "corpus/ker.bq"]),
    ("hhgap_compare.json", 0, ["compare", "corpus/hhgap.bq"]),
    ("hheq_compare.json", 0, ["compare", "corpus/hheq.bq"]),
    ("hhgap_hochschild.json", 0, ["hochschild", "corpus/hhgap.bq"]),
    ("rp2_cover_check.json", 0, ["check", "corpus/rp2_cover.bq"]),
    ("cor66_tree1_check.json", 0, ["check", "corpus/cor66_tree1.bq"]),
    ("cor66_tree2_check.json", 0, ["check", "corpus/cor66_tree2.bq"]),
    ("cor66_cycle1_check.json", 0, ["check", "corpus/cor66_cycle1.bq"]),
    ("cor66_cycle2_check.json", 0, ["check", "corpus/cor66_cycle2.bq"]),
    ("cor66_cycle3_check.json", 0, ["check", "corpus/cor66_cycle3.bq"]),
    ("ex1_dot.txt", 0, ["dot", "corpus/ex1.bq"]),
    ("rp2_skeleton_dot.txt", 0, ["dot", "--skeleton", "corpus/rp2.bq"]),
]

# Z homology of the total (walk) complex from degree 0 up to the last
# nonzero group, as [rank, torsion], on the corpus quivers whose walk BFS
# ends within half a second; on the other eight it takes 2-10 s.  The BFS
# is truncated on ex1 and pres2, yet its partition there is already the
# true one, so these are the exact answers.
Z, O = [1, []], [0, []]
SHARP_HOMOLOGY = {
    "cor66_cycle1": [Z, Z], "cor66_cycle2": [Z, Z], "cor66_cycle3": [Z, Z],
    "cor66_tree1": [Z], "cor66_tree2": [Z], "ex1": [Z], "hheq": [Z, Z],
    "hhgap": [Z, Z], "pres1": [Z, Z], "pres2": [Z],
}


@dataclass
class Op:
    id: str
    argv: list
    code: int = 0
    golden: str | None = None
    checks: list = field(default_factory=list)


@dataclass
class Workload:
    ops: list
    inputs: dict = field(default_factory=dict)   # generated path -> text


# ---------------------------------------------------------------------------
# report helpers


def euler(counts):
    return sum((-1) ** n * c for n, c in enumerate(counts))


def z_groups(rep, prefix="H", key="groups"):
    """Integral groups of a report as [(rank, torsion tuple)] by degree."""
    g = rep["result"][key]
    return [(g["%s%d" % (prefix, n)][0], tuple(g["%s%d" % (prefix, n)][1]))
            for n in range(len(g))]


def _expect(got, want, what):
    if got != want:
        return "%s: got %r, expected %r" % (what, got, want)
    return None


def _cells_euler(rep, _):
    res = rep["result"]
    return _expect(res["euler_characteristic"], euler(res["counts"]),
                   "euler characteristic against cell counts")


def _betti_euler(rep, _):
    groups = z_groups(rep)
    return _expect(euler([r for r, _ in groups]),
                   euler(rep["result"]["counts"]),
                   "alternating Betti sum against cell counts")


def _connected(rep, _):
    return _expect(z_groups(rep)[0], (1, ()), "H0")


def _h1_is_abelianised_pi1(q):
    def check(rep, reports):
        pi1 = reports.get("%s/pi1" % q)
        if pi1 is None:
            return "pi1 report missing"
        ab = pi1["result"]["abelianization"]
        groups = z_groups(rep)
        h1 = groups[1] if len(groups) > 1 else (0, ())
        return _expect(h1, (ab["rank"], tuple(ab["torsion"])),
                       "H1 against abelianised pi1")
    return check


def _universal_coefficients(q, m):
    """H^n(X; Z/m) = Hom(H_n, Z/m) + Ext(H_{n-1}, Z/m) from the Z report."""
    def check(rep, reports):
        hz = reports.get("%s/homology" % q)
        if hz is None:
            return "homology report missing"
        hz = z_groups(hz)
        want = {}
        for n, (free, tors) in enumerate(hz):
            orders = [m] * free + [gcd(t, m) for t in tors]
            if n + 1 < len(hz):
                want.setdefault(n + 1, []).extend(gcd(t, m) for t in tors)
            want.setdefault(n, []).extend(orders)
        g = rep["result"]["groups"]
        got = [sorted(g["H^%d" % n]) for n in range(len(g))]
        return _expect(got, [sorted(o for o in want[n] if o > 1)
                             for n in range(len(hz))],
                       "Z/%d cohomology by universal coefficients" % m)
    return check


def _skeleton_matches_cells(q):
    def check(out, reports):
        cells = reports.get("%s/cells" % q)
        if cells is None:
            return "cells report missing"
        counts = cells["result"]["counts"] + [0]
        lines = out.splitlines()
        nodes = sum(1 for ln in lines if ln.endswith(";") and "->" not in ln)
        edges = sum(1 for ln in lines if "->" in ln)
        return _expect([nodes, edges], counts[:2],
                       "skeleton nodes and edges against cell counts")
    return check


def _simplicial_euler(rep, _):
    res = rep["result"]
    return _expect(euler([r for r, _ in z_groups(rep, "SH", "SH")]),
                   euler(res["counts"]),
                   "alternating SH Betti sum against simplex counts")


def _pad(xs, n):
    return list(xs) + [0] * (n - len(xs))


def _compare_consistent(q):
    def check(rep, reports):
        res = rep["result"]
        hh, sc = reports.get("%s/hochschild" % q), reports.get(
            "%s/simplicial" % q)
        if hh is None or sc is None:
            return "hochschild or simplicial report missing"
        n = max(len(res["HH"]), len(hh["result"]["HH"]))
        err = _expect(_pad(res["HH"], n), _pad(hh["result"]["HH"], n),
                      "compare HH against hochschild")
        sh = [r for r, _ in z_groups(sc, "SH", "SH")]
        n = max(len(res["SH"]), len(sh))
        err = err or _expect(_pad(res["SH"], n), _pad(sh, n),
                             "compare SH against simplicial ranks")
        if res["epsilon_iso"]:
            n = max(len(res["SH"]), len(res["HH"]))
            err = err or _expect(_pad(res["SH"], n), _pad(res["HH"], n),
                                 "SH against HH under an isomorphism")
        return err
    return check


def _groups_are(want, prefix="H"):
    """Closed-form check of a report's groups, listed from degree 0."""
    def check(rep, _):
        g = rep["result"]["groups"]
        got = [g["%s%d" % (prefix, n)] for n in range(len(g))]
        zero = 0 if isinstance(want[0], int) else O
        return _expect(got, want + [zero] * (len(got) - len(want)), "groups")
    return check


def _trivial_pi1(rep, _):
    res = rep["result"]
    return _expect([res["generators"], res["relators"],
                    res["abelianization"]],
                   [[], [], {"rank": 0, "torsion": []}], "pi1")


# ---------------------------------------------------------------------------
# workloads


def _corpus_names(root):
    return sorted(p.stem for p in (root / "corpus").glob("*.bq"))


def corpus(root, seed, workdir):
    del seed, workdir  # the corpus is fixed
    ops = {}
    for q in _corpus_names(root):
        f = "corpus/%s.bq" % q
        for cmd, argv in CORPUS_COMMANDS.items():
            code = 1 if q in NO_BASIS and cmd in (
                "simplicial", "hochschild", "compare") else 0
            op = Op("%s/%s" % (q, cmd), argv + [f], code)
            if cmd == "cells":
                op.checks.append(_cells_euler)
            elif cmd == "homology":
                op.checks += [_connected, _betti_euler,
                              _h1_is_abelianised_pi1(q)]
            elif cmd == "cohomology":
                op.checks.append(_universal_coefficients(q, 4))
            elif cmd == "simplicial" and code == 0:
                op.checks.append(_simplicial_euler)
            elif cmd == "compare" and code == 0:
                op.checks.append(_compare_consistent(q))
            elif cmd == "dot":
                op.checks.append(_skeleton_matches_cells(q))
            ops[tuple(op.argv)] = op
    for q, groups in SHARP_HOMOLOGY.items():
        op = Op("%s/homology-sharp" % q,
                ["homology", "--sharp", "corpus/%s.bq" % q],
                checks=[_betti_euler, _groups_are(groups)])
        ops[tuple(op.argv)] = op
    for golden, code, argv in SNAPSHOTS:
        op = ops.get(tuple(argv))
        if op is None:
            op = ops[tuple(argv)] = Op("golden/" + golden, argv, code)
        if op.code != code:
            raise ValueError("exit code of %s disagrees with its snapshot"
                             % op.id)
        op.golden = (root / "tests" / "golden" / golden).read_text()
    return Workload(list(ops.values()))


# generated quivers: fixed shapes, seeded coefficients and declaration order


def _coeff(rng):
    return rng.choice([-1, 1]) * rng.randint(1, 9)


def _relation(terms):
    """'rel' line for [(coefficient, path)] with nonzero coefficients."""
    (c, path), rest = terms[0], terms[1:]
    out = ["%d*%s" % (c, path)]
    for c, path in rest:
        out += ["-" if c < 0 else "+", "%d*%s" % (abs(c), path)]
    return "rel " + " ".join(out)


def _quiver_text(rng, vertices, arrows, relations):
    vertices, arrows = list(vertices), list(arrows)
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    lines = ["vertex %s" % v for v in vertices]
    lines += ["arrow %s %s %s" % a for a in arrows]
    return "\n".join(lines + relations) + "\n"


def fan(rng, k):
    """k routes s -> m_i -> t bound by one k-term sum relation."""
    vertices = ["s", "t"] + ["m%d" % i for i in range(1, k + 1)]
    arrows = [("u%d" % i, "s", "m%d" % i) for i in range(1, k + 1)]
    arrows += [("v%d" % i, "m%d" % i, "t") for i in range(1, k + 1)]
    rel = _relation([(_coeff(rng), "u%d*v%d" % (i, i))
                     for i in range(1, k + 1)])
    return _quiver_text(rng, vertices, arrows, [rel])


def grid(rng, m, n, kind):
    """m x n grid of right (h) and down (d) arrows.

    kind 'comm' binds every square by a two-term relation with seeded
    coefficients, 'mono' kills both corner paths of every square, 'free'
    has no relations.
    """
    vertices = ["x%d_%d" % (i, j) for i in range(m) for j in range(n)]
    arrows = [("h%d_%d" % (i, j), "x%d_%d" % (i, j), "x%d_%d" % (i, j + 1))
              for i in range(m) for j in range(n - 1)]
    arrows += [("d%d_%d" % (i, j), "x%d_%d" % (i, j), "x%d_%d" % (i + 1, j))
               for i in range(m - 1) for j in range(n)]
    rels = []
    for i in range(m - 1):
        for j in range(n - 1):
            hd = "h%d_%d*d%d_%d" % (i, j, i, j + 1)
            dh = "d%d_%d*h%d_%d" % (i, j, i + 1, j)
            if kind == "comm":
                rels.append(_relation([(_coeff(rng), hd), (_coeff(rng), dh)]))
            elif kind == "mono":
                rels += ["rel " + hd, "rel " + dh]
    return _quiver_text(rng, vertices, arrows, rels)


def relations_inputs(seed):
    rng = random.Random(seed)
    out = {"fan%d" % k: fan(rng, k) for k in range(2, 10)}
    out.update({"ladder2x%d" % n: grid(rng, 2, n, "comm")
                for n in range(2, 7)})
    out["grid3x3"] = grid(rng, 3, 3, "comm")
    return out


COMPLEX_GRIDS = {"free3x3": (3, 3, "free"), "free3x4": (3, 4, "free"),
                 "mono5x5": (5, 5, "mono"), "mono4x6": (4, 6, "mono")}


def complexes_inputs(seed):
    rng = random.Random(seed)
    return {name: grid(rng, m, n, kind)
            for name, (m, n, kind) in COMPLEX_GRIDS.items()}


def relations(root, seed, workdir):
    inputs = relations_inputs(seed)
    ops = []
    for q in inputs:
        f = "%s/%s.bq" % (workdir, q)
        ops.append(Op("%s/pi1" % q,
                      ["pi1", "--simplify", "--abelianization", f],
                      checks=[_trivial_pi1]))
        ops.append(Op("%s/homology" % q, ["homology", f],
                      checks=[_groups_are([Z])]))
    return Workload(ops, _paths(workdir, inputs))


def complexes(root, seed, workdir):
    inputs = complexes_inputs(seed)
    ops = []
    for q, (m, n, _) in COMPLEX_GRIDS.items():
        f = "%s/%s.bq" % (workdir, q)
        b1 = (m - 1) * (n - 1)

        def chi(rep, _, b1=b1):
            return _expect(rep["result"]["euler_characteristic"], 1 - b1,
                           "euler characteristic")
        ops += [
            Op("%s/cells" % q, ["cells", f], checks=[_cells_euler, chi]),
            Op("%s/homology-Z" % q, ["homology", "--coeff", "Z", f],
               checks=[_groups_are([Z, [b1, []]])]),
            Op("%s/homology-F2" % q, ["homology", "--coeff", "Fp:2", f],
               checks=[_groups_are([1, b1])]),
            Op("%s/cohomology-Z" % q, ["cohomology", "--coeff", "Z", f],
               checks=[_groups_are([Z, [b1, []]], "H^")]),
        ]
    return Workload(ops, _paths(workdir, inputs))


def _paths(workdir, inputs):
    return {"%s/%s.bq" % (workdir, q): text for q, text in inputs.items()}


GENERATORS = {"relations": relations_inputs, "complexes": complexes_inputs}


def _shape(text):
    """Lines of a quiver file without relation coefficients, sorted."""
    out = []
    for line in text.splitlines():
        if line.startswith("rel "):
            terms = [t for t in line.split()[1:] if t not in "+-"]
            line = " ".join(sorted(t.split("*", 1)[1] if t[:1] in "-123456789"
                                   else t for t in terms))
        out.append(line)
    return sorted(out)


def check_generator(name, seed):
    """Error message unless the seed alone fixes the generated files and
    the shapes do not depend on it, or None."""
    gen = GENERATORS.get(name)
    if gen is None:
        return None
    inputs = gen(seed)
    if gen(seed) != inputs:
        return "one seed gave two different sets of input files"
    other = gen(seed + 1)
    if {q: _shape(t) for q, t in other.items()} != {
            q: _shape(t) for q, t in inputs.items()}:
        return "the shapes of the generated quivers depend on the seed"
    return None


WORKLOADS = {"corpus": corpus, "relations": relations, "complexes": complexes}


def build(name, root, seed, workdir):
    """The workload `name` for `seed`; generated inputs go under workdir."""
    return WORKLOADS[name](root, seed, workdir)


def check_op(op, code, out, reports):
    """Error message for one finished operation, or None."""
    if code != op.code:
        return "exit code %r, expected %d" % (code, op.code)
    if op.golden is not None and out != op.golden:
        return "report differs from its golden snapshot"
    rep = out if op.argv[0] == "dot" else reports.get(op.id)
    if rep is None:
        return "no report"
    for check in op.checks:
        try:
            err = check(rep, reports)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            err = "malformed report (%s: %s)" % (type(e).__name__, e)
        if err:
            return err
    return None


def parse_report(op, out):
    if op.argv[0] == "dot" or not out:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None
