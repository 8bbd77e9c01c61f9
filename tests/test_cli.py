"""Command line interface: golden snapshots, exit codes, flag handling."""

import collections
import contextlib
import io
import json
import pathlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from bqtop import cli, core, coverings
from bqtop import complex as cellular
from bqtop.cli import _report_text, main
from bqtop.complex import build_complex, cohomology, homology
from bqtop.core import enumerate_paths
from bqtop.dsl import parse, serialize
from bqtop.homotopy import natural_homotopy_classes, walk_homotopy_classes
from oracles import (CORPUS, checkerboard_text, comm_grid_text,
                     dict_cells_report, differential_quivers,
                     full_parse_argv, load_bench_workloads)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    # golden reports echo corpus paths relative to the repository root
    monkeypatch.chdir(ROOT)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


@pytest.mark.parametrize("golden,expected_code,argv", SNAPSHOTS,
                         ids=[s[0] for s in SNAPSHOTS])
def test_golden_snapshot(golden, expected_code, argv):
    code, out, _ = run_cli(argv)
    assert code == expected_code
    assert out == (GOLDEN / golden).read_text()


def test_golden_snapshots_under_python_O():
    # -O strips assert statements; the package raises its check failures
    # itself, so every snapshot must come out the same, in one process
    script = (
        "import contextlib, io, json, sys\n"
        "from bqtop.cli import main\n"
        "runs = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "json.dump([sys.flags.optimize, runs], sys.stdout)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], cwd=ROOT, env=env,
        input=json.dumps([argv for _, _, argv in SNAPSHOTS]),
        capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    optimize, runs = json.loads(done.stdout)
    assert optimize == 1
    for (golden, code, argv), run in zip(SNAPSHOTS, runs, strict=True):
        assert run == [code, (GOLDEN / golden).read_text()], argv


def test_reports_are_valid_json():
    for name in GOLDEN.glob("*.json"):
        rep = json.loads(name.read_text())
        assert rep["schema"] == "bqtop-report/1"
        assert rep["tool"]["name"] == "bqtop"
        assert isinstance(rep["ok"], bool)


def test_missing_file_exit_2():
    code, out, err = run_cli(["check", "corpus/does_not_exist.bq"])
    assert code == 2
    assert out == ""
    assert err.startswith("bqtop:")


def test_syntax_error_exit_2(tmp_path):
    bad = tmp_path / "bad.bq"
    bad.write_text("arrow a 1 2\nrel a*zz\n")
    code, out, err = run_cli(["cells", str(bad)])
    assert code == 2
    assert err.startswith("bqtop: syntax error:")
    assert "2:" in err


def test_zero_denominator_exit_2(tmp_path):
    # a parse error, not the exit code 1 of a false verdict
    bad = tmp_path / "bad.bq"
    bad.write_text("arrow a 1 2\narrow b 2 3\nrel 1/0*a*b\n")
    code, out, err = run_cli(["check", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("bqtop: syntax error: 3:5:")
    assert "zero denominator" in err


def test_path_cap_env_variable_is_ignored(monkeypatch):
    # --path-cap is the only way to set the cap
    monkeypatch.setenv("BQTOP_PATH_CAP", "many")
    code, out, err = run_cli(["check", "corpus/ex1.bq"])
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["path_cap"] is None


# a radical-square-zero 3-cycle: L = 2 certifies it
SQUARE_ZERO_CYCLE = """\
arrow a 0 1
arrow b 1 2
arrow c 2 0
rel a*b
rel b*c
rel c*a
"""


@pytest.mark.parametrize("cap", ["-3", "0", "1"])
@pytest.mark.parametrize("quiver", ["cycle", "corpus/ex1.bq"])
def test_path_cap_below_two_is_an_input_error(tmp_path, capsys, cap,
                                              quiver):
    # the bound search starts at L = 2: below that a cyclic quiver got a
    # nilpotency error naming a stationary path, an acyclic one no error
    if quiver == "cycle":
        quiver = tmp_path / "cycle.bq"
        quiver.write_text(SQUARE_ZERO_CYCLE)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--path-cap", cap, str(quiver)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --path-cap: must be at least 2, got %s" % cap in err
    assert "nilpotency" not in err
    with pytest.raises(SystemExit) as exc:
        main(["cover", "verify", "corpus/rp2.bq", "corpus/rp2_cover.bq",
              "corpus/rp2_morphism.map", "--path-cap", cap])
    assert exc.value.code == 2
    assert "argument --path-cap" in capsys.readouterr().err


def test_path_cap_two_certifies_the_square_zero_cycle(tmp_path):
    quiver = tmp_path / "cycle.bq"
    quiver.write_text(SQUARE_ZERO_CYCLE)
    code, out, _ = run_cli(["check", "--path-cap", "2", str(quiver)])
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["path_cap"] == 2
    assert rep["result"]["nilpotency_bound"] == 2


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(["check", "corpus/ex1.bq",
                              "--out", str(target)])
    assert code == 0
    assert out == "" and err == ""
    rep = json.loads(target.read_text())
    assert rep["command"] == "check" and rep["ok"]


def test_cover_without_group_skips_galois():
    code, out, _ = run_cli(["cover", "verify", "corpus/rp2.bq",
                            "corpus/rp2_cover.bq",
                            "corpus/rp2_morphism.map"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert "galois" not in rep["result"]["covering"]
    assert rep["result"]["covering"]["ok"] is True


def test_loop_covered_by_the_three_cycle(tmp_path):
    # the circle covers the circle three times: the loop's one-cell meets
    # its vertex at both ends, and each end lifts to a different vertex
    fixtures = "tests/fixtures/"
    code, out, _ = run_cli(["cover", "verify", fixtures + "loop.bq",
                            fixtures + "loop_cycle3.bq",
                            fixtures + "loop_cycle3.map",
                            "--galois", fixtures + "loop_rotations.grp"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    cells = rep["result"]["cells"]
    assert cells["incidence_bijections"] is True and cells["ok"] is True
    assert cells["fiber_sizes"] == {"0": [3], "1": [3]}
    assert rep["result"]["deck"]["ok"] is True
    assert rep["result"]["deck"]["order"] == 3


def test_cover_verify_checks_each_fact_once():
    names = {f.__code__: f.__name__
             for f in (coverings.check_covering, coverings.check_galois,
                       coverings.lift_complex_map, coverings.deck_group)}
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        code, _, _ = run_cli(["cover", "verify", "corpus/rp2.bq",
                              "corpus/rp2_cover.bq", "corpus/rp2_morphism.map",
                              "--galois", "corpus/rp2_group.grp"])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert calls == {"check_covering": 1, "check_galois": 1,
                     "lift_complex_map": 1, "deck_group": 1}


def test_long_chain_homology(square_zero_chain):
    code, out, _ = run_cli(["homology", square_zero_chain(2000)])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["counts"] == [2001, 2000]
    assert rep["result"]["groups"]["H0"] == [1, []]
    assert rep["result"]["groups"]["H1"] == [0, []]


# monomial quivers whose homology and cohomology collapse onto the graph:
# two components, a loop (its boundary column is empty), a lone vertex and
# no vertex at all; the cyclic square-zero chain comes from its fixture
COLLAPSED = {
    "disconnected": "arrow a 1 2\narrow b 2 3\narrow c 4 5\nrel a*b\n",
    "loop": "arrow x 1 1\nrel x*x*x\n",
    "vertex": "vertex 1\n",
    "empty": "",
}
COLLAPSED_H = {
    "disconnected": {"H0": [2, []], "H1": [0, []]},
    "loop": {"H0": [1, []], "H1": [1, []], "H2": [0, []]},
    "vertex": {"H0": [1, []]},
    "empty": {"H0": [0, []]},
    "cycle": {"H0": [1, []], "H1": [1, []]},
}


@pytest.mark.parametrize("coeff", ["Z", "Zmod:4"])
@pytest.mark.parametrize("name", [*COLLAPSED, "cycle"])
def test_collapsed_reports_match_the_built_complex(
        monkeypatch, tmp_path, square_zero_chain, name, coeff):
    if name == "cycle":
        path = square_zero_chain(5, cycle=True)
    else:
        path = tmp_path / ("%s.bq" % name)
        path.write_text(COLLAPSED[name])
        path = str(path)
    t = enumerate_paths(parse(pathlib.Path(path).read_text()))
    cx = build_complex(t, natural_homotopy_classes(t))

    def unbuilt(*args, **kwargs):
        raise AssertionError("a monomial quiver's complex is not built")

    monkeypatch.setattr(cli, "build_complex", unbuilt)
    monkeypatch.setattr(cellular, "build_complex", unbuilt)
    reports = {}
    for cmd, fn, prefix in (("homology", homology, "H"),
                            ("cohomology", cohomology, "H^")):
        code, out, err = run_cli([cmd, "--coeff", coeff, path])
        assert (code, err) == (0, "")
        rep = reports[cmd] = json.loads(out)
        res = fn(cx, coeff)
        assert rep["result"] == json.loads(json.dumps(
            {"coefficients": res.coeff, "counts": cx.counts(),
             "groups": cli._groups_json(res, prefix)}))
        assert rep["caveats"] == list(cx.caveats) == []
    if coeff == "Z":
        assert reports["homology"]["result"]["groups"] == COLLAPSED_H[name]


def test_monomial_homology_skips_classes_and_complex(monkeypatch, tmp_path,
                                                    comm_grid):
    calls = collections.Counter()

    def counted(fn):
        def count(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return count

    # (co)homology builds its table, classes and complex in `complex`
    for fn in (build_complex, natural_homotopy_classes,
               walk_homotopy_classes, enumerate_paths):
        monkeypatch.setattr(cli, fn.__name__, counted(fn))
        monkeypatch.setattr(cellular, fn.__name__, counted(fn))
    grids = load_bench_workloads().complexes_inputs(17)
    mono, free = tmp_path / "mono5x5.bq", tmp_path / "free3x4.bq"
    mono.write_text(grids["mono5x5"])
    free.write_text(grids["free3x4"])
    board = tmp_path / "board4.bq"
    board.write_text(checkerboard_text(4))
    # monomial only after reduction: c*d = 0 makes a*b = 0 too
    reduced = tmp_path / "reduced.bq"
    reduced.write_text("arrow a 1 2\narrow b 2 3\narrow c 1 4\n"
                       "arrow d 4 3\nrel a*b - c*d\nrel c*d\n")
    mono, free, board, reduced = map(str, (mono, free, board, reduced))
    comm, corpus = comm_grid(3), "corpus/pres1.bq"
    table = {"enumerate_paths": 1}
    built = {**table, "build_complex": 1, "natural_homotopy_classes": 1}
    walked = {**table, "build_complex": 1, "walk_homotopy_classes": 1}
    # the commutative grid is thin: its classes, and no complex
    runs = [(["cells", mono], built),
            (["cells", "--sharp", mono], walked),
            (["homology", "--sharp", comm],
             {**table, "walk_homotopy_classes": 1}),
            (["cohomology", "--sharp", comm],
             {**table, "walk_homotopy_classes": 1}),
            (["homology", comm], {**table, "natural_homotopy_classes": 1}),
            (["homology", "--sharp", board], walked),
            (["cohomology", "--sharp", board], walked),
            (["homology", board], built),
            (["homology", reduced], built),
            (["cohomology", "--sharp", reduced], walked)]
    # a quiver whose relations are single paths builds no path table
    for src in (mono, free, corpus):
        runs += [([cmd, *flags, src], {})
                 for cmd in ("homology", "cohomology")
                 for flags in ([], ["--sharp"], ["--coeff", "Fp:2"])]
    for argv, want in runs:
        calls.clear()
        assert run_cli(argv)[0] == 0
        assert calls == want, argv


def test_monomial_homology_refuses_as_the_table_does(monkeypatch, tmp_path):
    # on a cyclic monomial quiver with a nonzero path of the cap's length,
    # the route refuses with the table's message, without the table: at
    # the default cap of 12 the table would list 4^12 paths of four loops
    loops = tmp_path / "loops.bq"
    loops.write_text("".join("arrow a%d 1 1\n" % i for i in range(4)))
    loops = str(loops)
    for cap in ("2", "4", "6"):
        with monkeypatch.context() as mp:
            # the table lists its words, with no early count
            mp.setattr(core, "monomial_path_counts", lambda quiver, cap: None)
            listed = run_cli(["check", "--path-cap", cap, loops])
        assert run_cli(["homology", "--path-cap", cap, loops]) == listed

    def unbuilt(*args, **kwargs):
        raise AssertionError("a single-path quiver's table is not built")

    monkeypatch.setattr(cli, "enumerate_paths", unbuilt)
    monkeypatch.setattr(cellular, "enumerate_paths", unbuilt)
    for cmd in ("homology", "cohomology"):
        assert run_cli([cmd, "--sharp", loops]) == (
            2, "", "bqtop: no nilpotency bound L <= 12 certifies the ideal "
            "admissible: the path %s of length 12 does not reduce to 0; "
            "raise the path cap if the quiver is genuinely bounded\n"
            % "*".join(["a0"] * 12))


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("cmd", ["check", "cells", "pi1", "dot",
                                 "hochschild"])
def test_unbounded_single_path_quiver_is_refused_unlisted(
        monkeypatch, tmp_path, cmd, k):
    # k loops at one vertex have k^12 words of length 12; the table
    # refuses them on their count, before it lists a word
    loops = tmp_path / "loops.bq"
    loops.write_text("".join("arrow a%d 1 1\n" % i for i in range(k)))

    def unlisted(*args, **kwargs):
        raise AssertionError("an unbounded quiver's words are not listed")

    monkeypatch.setattr(core, "_normal_forms", unlisted)
    assert run_cli([cmd, str(loops)]) == (
        2, "", "bqtop: no nilpotency bound L <= 12 certifies the ideal "
        "admissible: the path %s of length 12 does not reduce to 0; "
        "raise the path cap if the quiver is genuinely bounded\n"
        % "*".join(["a0"] * 12))


def test_check_on_a_short_cycle(tmp_path):
    path = tmp_path / "two.bq"
    path.write_text("arrow s u v\narrow t v u\nrel s*t\nrel t*s\n")
    code, out, _ = run_cli(["check", str(path)])
    assert code == 0
    assert json.loads(out)["result"] == {
        "admissible": True, "almost_triangular": False, "connected": True,
        "constricted": True,
        "dims": {"u->u": 1, "u->v": 1, "v->u": 1, "v->v": 1},
        "euler_characteristic": 1, "nilpotency_bound": 2, "schurian": True,
        "semi_commutative": False, "total_dimension": 4,
        "triangular": False}


def test_check_reports_the_exact_nilpotency_bound():
    # the length-by-length certificate reported 3 here (see the fixture)
    code, out, _ = run_cli(["check",
                            "tests/fixtures/overestimated_bound.bq"])
    assert code == 0
    assert json.loads(out)["result"]["nilpotency_bound"] == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


def write_fan(tmp_path, k, seed=7):
    """k routes s -> m_i -> t bound by one k-term sum relation whose
    nonzero coefficients are drawn from a seeded generator."""
    rng = random.Random(seed)
    lines = ["vertex s", "vertex t"]
    lines += ["arrow u%d s m%d" % (i, i) for i in range(1, k + 1)]
    lines += ["arrow v%d m%d t" % (i, i) for i in range(1, k + 1)]
    terms = ["%d*u%d*v%d" % (rng.randint(1, 9), i, i)
             for i in range(1, k + 1)]
    signs = [rng.choice("+-") for _ in terms[1:]]
    lines.append("rel " + " ".join(
        [terms[0]] + [x for pair in zip(signs, terms[1:]) for x in pair]))
    path = tmp_path / ("fan%d.bq" % k)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_seven_route_fan_is_simply_connected(tmp_path):
    # the only minimal relation has seven terms, so every route is
    # homotopic to every other and the space is contractible
    fan = write_fan(tmp_path, 7)
    code, out, _ = run_cli(["pi1", "--simplify", "--abelianization", fan])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["generators"] == []
    assert rep["result"]["relators"] == []
    assert rep["result"]["abelianization"] == {"rank": 0, "torsion": []}
    assert rep["caveats"] == []

    code, out, _ = run_cli(["homology", fan])
    assert code == 0
    rep = json.loads(out)
    groups = rep["result"]["groups"]
    assert groups["H0"] == [1, []]
    assert all(g == [0, []] for n, g in groups.items() if n != "H0")
    assert rep["caveats"] == []


@pytest.mark.parametrize("argv", [
    ["pi1", "corpus/ex1.bq"],
    ["homology", "corpus/ex1.bq"],
    ["cover", "verify", "corpus/rp2.bq", "corpus/rp2_cover.bq",
     "corpus/rp2_morphism.map"],
])
def test_support_cap_flag_is_gone(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--support-cap", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["cells", "--sharp", "corpus/ex1.bq"],
    ["homology", "--sharp", "corpus/ex1.bq"],
    ["cover", "verify", "corpus/rp2.bq", "corpus/rp2_cover.bq",
     "corpus/rp2_morphism.map"],
])
def test_walk_bound_flag_is_gone(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--walk-bound", "8"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["ex1", "pres2"])
def test_sharp_homology_is_exact(name):
    # the total complex is contractible; the walk classes come from the
    # word problem, so the report carries no caveat
    code, out, _ = run_cli(["homology", "--sharp", "corpus/%s.bq" % name])
    assert code == 0
    rep = json.loads(out)
    groups = rep["result"]["groups"]
    assert groups["H0"] == [1, []]
    assert all(g == [0, []] for n, g in groups.items() if n != "H0")
    assert rep["caveats"] == []


def test_sharp_homology_of_the_solid_sphere_is_fast():
    start = time.perf_counter()
    code, out, _ = run_cli(["homology", "--sharp", "corpus/sphere_solid.bq"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["caveats"] == []


MIXED_LENGTH = """\
arrow a 1 2
arrow b 2 3
arrow c 3 4
arrow d 1 5
arrow e 5 4
rel a*b*c - d*e
"""


def test_algebra_commands_carry_natural_class_caveats(tmp_path,
                                                     bound_caveat_quiver):
    # a*b*c ~ d*e gives a*b*c*f ~ d*e*f; the bound L = 4 leaves a*b*c*f
    # without the extension d*e*f*g has, so the natural classes carry the
    # bound caveat; the semi-normed basis exists and is built from them
    code, out, _ = run_cli(["homology", bound_caveat_quiver])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["counts"] == [7, 14, 10, 2]
    caveats = rep["caveats"]
    assert caveats == [
        "natural class of d*e*f: member a*b*c*f has the bound length 4, so "
        "its one-arrow extensions lie outside the path table while other "
        "members extend inside it; the partition may be finer than the "
        "true one"]
    for command in ("simplicial", "hochschild", "compare"):
        code, out, _ = run_cli([command, bound_caveat_quiver])
        assert code == 0, command
        rep = json.loads(out)
        assert rep["ok"] is True, command
        assert rep["caveats"] == caveats, command
    # the same relation of mixed lengths with every path of the quiver
    # inside the table: the closure is exact and nothing is reported
    quiver = tmp_path / "mixed.bq"
    quiver.write_text(MIXED_LENGTH)
    for command in ("homology", "simplicial", "hochschild", "compare"):
        code, out, _ = run_cli([command, str(quiver)])
        assert code == 0, command
        rep = json.loads(out)
        assert rep["ok"] is True, command
        assert rep["caveats"] == [], command


def audited_runs(quiver):
    """(argv, caveats of the objects the command computes) per command."""
    table = enumerate_paths(parse(pathlib.Path(quiver).read_text()))
    nat = natural_homotopy_classes(table)
    walk = walk_homotopy_classes(table)
    runs = [(["check", quiver], []), (["pi1", quiver], [])]
    for command in ("cells", "homology", "cohomology"):
        runs.append(([command, quiver],
                     build_complex(table, nat).caveats))
        runs.append(([command, "--sharp", quiver],
                     build_complex(table, walk).caveats))
    for command in ("simplicial", "hochschild", "compare"):
        runs.append(([command, quiver], nat.caveats))
    return runs


def test_caveats_are_those_of_the_computed_objects(bound_caveat_quiver):
    runs = []
    for path in sorted((ROOT / "corpus").glob("*.bq")):
        runs += audited_runs(str(path.relative_to(ROOT)))
    runs += audited_runs(bound_caveat_quiver)
    runs.append((["vankampen", "corpus/vk.bq", "--v1", "2", "3", "4", "5",
                  "6", "--v2", "1", "2", "3"], []))
    base, cover = (enumerate_paths(parse((ROOT / name).read_text()))
                   for name in ("corpus/rp2.bq", "corpus/rp2_cover.bq"))
    runs.append((["cover", "verify", "corpus/rp2.bq", "corpus/rp2_cover.bq",
                  "corpus/rp2_morphism.map"],
                 [c for t in (base, cover) for c in build_complex(
                     t, natural_homotopy_classes(t)).caveats]))
    reported = 0
    for argv, caveats in runs:
        code, out, _ = run_cli(argv)
        assert code in (0, 1), argv
        assert json.loads(out)["caveats"] == sorted(set(caveats)), argv
        reported += bool(caveats)
    assert len(runs) == 19 * 11 + 2
    # the fixture's six commands that build natural classes
    assert reported == 6


def test_commutative_four_by_four_grid_is_contractible(comm_grid):
    # ~1000 cells: cheap only with sparse boundaries and unit-pivot
    # reduction ahead of the Smith normal form
    grid = comm_grid(4)
    code, out, _ = run_cli(["cells", grid])
    assert code == 0
    assert json.loads(out)["result"]["counts"] == [16, 84, 216, 309, 252,
                                                   110, 20]
    code, out, _ = run_cli(["homology", grid])
    assert code == 0
    groups = json.loads(out)["result"]["groups"]
    assert groups["H0"] == [1, []]
    assert all(g == [0, []] for n, g in groups.items() if n != "H0")
    code, out, _ = run_cli(["pi1", "--simplify", grid])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["generators"] == []
    assert rep["result"]["relators"] == []
    # the comparison maps and the Hochschild differential are sparse
    # columns, so the algebra side costs about as much as the cells
    code, out, _ = run_cli(["compare", grid])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["SH"] == res["HH"] == [1] + [0] * 7
    assert res["epsilon_iso"] is True
    code, out, _ = run_cli(["hochschild", grid])
    assert code == 0
    assert json.loads(out)["result"]["HH"] == [1] + [0] * 7


def test_commutative_five_by_five_grid_is_contractible(comm_grid):
    # ~10 000 cells: cheap only when faces are read off the split of each
    # witness that the construction recorded
    grid = comm_grid(5)
    code, out, _ = run_cli(["cells", grid])
    assert code == 0
    assert json.loads(out)["result"]["counts"] == [25, 200, 800, 1875, 2751,
                                                   2570, 1490, 490, 70]
    code, out, _ = run_cli(["homology", grid])
    assert code == 0
    groups = json.loads(out)["result"]["groups"]
    assert groups["H0"] == [1, []]
    assert all(g == [0, []] for n, g in groups.items() if n != "H0")


@pytest.mark.parametrize("n, free", [(4, 4), (5, 8)])
def test_checkerboard_homology_is_one_circle_per_free_square(
        tmp_path, n, free):
    # the relations sit on the squares with i + j even; each of the
    # other squares keeps its two paths apart and adds one H1 summand
    text = checkerboard_text(n)
    t = enumerate_paths(parse(text))
    for classes in (natural_homotopy_classes(t), walk_homotopy_classes(t)):
        assert cellular.thin_core_chains(t, classes) is None
    path = tmp_path / ("board%d.bq" % n)
    path.write_text(text)
    for coeff, h1 in (("Z", [free, []]), ("Fp:2", free)):
        code, out, _ = run_cli(["homology", "--coeff", coeff, str(path)])
        assert code == 0
        groups = json.loads(out)["result"]["groups"]
        zero = [0, []] if coeff == "Z" else 0
        assert groups["H0"] == ([1, []] if coeff == "Z" else 1)
        assert groups["H1"] == h1
        assert all(g == zero for d, g in groups.items()
                   if d not in ("H0", "H1"))


def test_thin_grids_and_ladders_build_no_complex(monkeypatch, tmp_path):
    # the 7 x 7 grid took 50 s through the built complex and the 2 x 60
    # ladder gave no answer in 60 s; the thin route ranks a point
    def unbuilt(*args, **kwargs):
        raise AssertionError("a thin quiver's complex is not built")

    monkeypatch.setattr(cli, "build_complex", unbuilt)
    monkeypatch.setattr(cellular, "build_complex", unbuilt)
    for name, rows, cols, argvs in [
            ("grid7", 7, 7, [["homology"], ["cohomology"]]),
            ("ladder60", 2, 60, [["homology"], ["cohomology"]]),
            ("grid4", 4, 4, [["homology", "--sharp"]])]:
        path = tmp_path / ("%s.bq" % name)
        path.write_text(comm_grid_text(rows, cols))
        for argv in argvs:
            code, out, err = run_cli(argv + [str(path)])
            assert (code, err) == (0, ""), argv
            rep = json.loads(out)
            counts, groups = rep["result"]["counts"], rep["result"]["groups"]
            prefix = "H^" if argv[0] == "cohomology" else "H"
            assert groups == {"%s%d" % (prefix, d): [int(d == 0), []]
                              for d in range(len(counts))}
            assert rep["caveats"] == []
            if name == "grid7":
                assert sum(counts) == 1150591
            if name == "grid4":
                assert counts == [16, 84, 216, 309, 252, 110, 20]


def test_cells_max_dim():
    code, out, _ = run_cli(["cells", "--max-dim", "0", "corpus/ex1.bq"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["counts"] == [3]
    assert list(rep["result"]["cells"]) == ["0"]
    # the cut drops cells, so the alternating sum of the kept counts is
    # not the Euler characteristic (1) and none is reported
    assert rep["result"]["euler_characteristic"] is None
    assert rep["caveats"] == [
        "cells of dimension > 0 were left out (the complex has 1-cells), "
        "so the Euler characteristic is not reported"]
    code, out, _ = run_cli(["cells", "--max-dim", "1", "corpus/ex1.bq"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["counts"] == [3, 4]
    assert rep["result"]["euler_characteristic"] is None
    assert rep["caveats"] == [
        "cells of dimension > 1 were left out (the complex has 2-cells), "
        "so the Euler characteristic is not reported"]
    # a cut at or above the top dimension drops nothing
    full = run_cli(["cells", "corpus/ex1.bq"])
    assert json.loads(full[1])["result"]["euler_characteristic"] == 1
    for top in ("2", "3"):
        assert run_cli(["cells", "--max-dim", top, "corpus/ex1.bq"]) == full
    code, out, err = run_cli(["cells", "--max-dim", "-3", "corpus/ex1.bq"])
    assert code == 2
    assert out == ""
    assert err == "bqtop: maximum cell dimension must be >= 0, got -3\n"


def test_flags_do_not_leak_between_calls_in_one_process():
    # the parser is built once per process, so every call must start from
    # the defaults again, whatever the previous call set
    flagged = [
        (["homology", "--coeff", "Fp:2", "--sharp", "corpus/rp2.bq"],
         lambda r: r["result"]["coefficients"] == "Fp:2"),
        (["cells", "--max-dim", "1", "corpus/ex1.bq"],
         lambda r: len(r["result"]["counts"]) == 2),
        (["hochschild", "--field", "Fp:5", "corpus/hhgap.bq"],
         lambda r: r["result"]["field"] == "Fp:5"),
        (["check", "--path-cap", "9", "corpus/rp2_cover.bq"],
         lambda r: r["config"]["path_cap"] == 9),
    ]
    defaults = [
        ("rp2_homology.json", ["homology", "corpus/rp2.bq"]),
        ("ex1_cells.json", ["cells", "corpus/ex1.bq"]),
        ("hhgap_hochschild.json", ["hochschild", "corpus/hhgap.bq"]),
        ("rp2_cover_check.json", ["check", "corpus/rp2_cover.bq"]),
    ]
    for _ in range(2):
        for argv, holds in flagged:
            code, out, _ = run_cli(argv)
            assert code == 0 and holds(json.loads(out)), argv
        for golden, argv in defaults:
            code, out, _ = run_cli(argv)
            assert code == 0
            assert out == (GOLDEN / golden).read_text(), argv


SCALED_SQUARE = """\
arrow a 1 2
arrow b 2 4
arrow c 1 3
arrow d 3 4
rel 3*a*b - 2*c*d
"""


def test_hochschild_over_a_prime_dividing_a_structure_constant(tmp_path):
    # the basis takes a*b, so c*d = 3/2 a*b; mod 2 that constant has no
    # value and the rational basis does not reduce
    quiver = tmp_path / "square.bq"
    quiver.write_text(SCALED_SQUARE)
    code, out, err = run_cli(["hochschild", "--field", "Fp:2", str(quiver)])
    assert code == 2
    assert out == ""
    assert err.startswith("bqtop: structure constant 3/2 of c * d")
    assert "p = 2" in err and err.count("\n") == 1
    for field, hh in (("Fp:5", [1, 0, 0, 0]), ("Fp:3", [1, 1, 1, 0])):
        code, out, _ = run_cli(["hochschild", "--field", field, str(quiver)])
        assert code == 0
        assert json.loads(out)["result"]["HH"] == hh


def test_vankampen_unknown_vertex_exit_2():
    code, out, err = run_cli(["vankampen", "corpus/vk.bq", "--v1", "2", "3",
                              "4", "5", "6", "--v2", "1", "2", "3", "zz"])
    assert (code, out) == (2, "")
    assert err == "bqtop: unknown vertex 'zz' in V2\n"


def test_modulus_beyond_the_certified_range_exit_2():
    # 3317044064679887385961981 is composite, yet passes Miller-Rabin on
    # every prime base up to 41
    code, out, err = run_cli(["homology", "--coeff",
                              "Fp:3317044064679887385961981", "corpus/rp2.bq"])
    assert (code, out) == (2, "")
    assert err.startswith("bqtop: modulus 3317044064679887385961981 is too "
                          "large to certify as prime")
    code, out, _ = run_cli(["homology", "--coeff", "Fp:1000000000000000003",
                            "corpus/rp2.bq"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["coefficients"] == "Fp:1000000000000000003"


@pytest.mark.parametrize("coeff,prefix", [("Fp:abc", "Fp:"),
                                          ("Zmod:x", "Zmod:"), ("Fp:", "Fp:")])
def test_non_integer_modulus_exit_2(coeff, prefix):
    code, out, err = run_cli(["homology", "--coeff", coeff, "corpus/rp2.bq"])
    assert (code, out) == (2, "")
    assert err == ("bqtop: coefficient system %r needs an integer modulus "
                   "after %r\n" % (coeff, prefix))


def random_report_value(rng, depth=0):
    """A seeded nested value of the types reports hold, with escapes,
    non-ASCII text, big and negative ints and empty containers."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-10 ** 30, 10 ** 30)
    if kind == 2:
        return "".join(rng.choice('ab"\\/\n\t\x00\x7f\u00e9\u20ac\U0001f600 ')
                       for _ in range(rng.randrange(6)))
    if kind == 3:
        return rng.randrange(-3, 3)
    if kind == 4:
        return rng.choice(["", [], (), {}])
    if kind in (5, 6):
        return [random_report_value(rng, depth + 1)
                for _ in range(rng.randrange(4))]
    if kind == 7:
        return tuple(random_report_value(rng, depth + 1)
                     for _ in range(rng.randrange(3)))
    return {"".join(rng.choice('ab"\\\u00e9') for _ in range(rng.randrange(4))):
            random_report_value(rng, depth + 1)
            for _ in range(rng.randrange(4))}


def test_report_writer_matches_json_dumps():
    goldens = [json.loads(p.read_text())
               for p in sorted(GOLDEN.glob("*.json"))]
    assert len(goldens) == 22
    rng = random.Random(29)
    values = goldens + [random_report_value(rng) for _ in range(3000)]
    for v in values:
        assert _report_text(v) == json.dumps(v, indent=2, sort_keys=True)
    for p in sorted(GOLDEN.glob("*.json")):
        assert _report_text(json.loads(p.read_text())) + "\n" \
            == p.read_text()


def test_report_writer_rejects_what_json_rejects():
    for bad in ({1: "a"}, {"a": [{None: 1}]}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            _report_text(bad)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        _report_text({"a": [Fraction(1, 2)]})
    assert _report_text([1.5, -0.0]) == json.dumps([1.5, -0.0], indent=2)


# a commutative square and a zero composite, with names that JSON escapes
# (a quote, a backslash) and names outside ASCII
ESCAPED_NAMES = """\
arrow a"1 v\\1 w\u00e9
arrow b\u20ac w\u00e9 x\U0001f600
arrow c\\" v\\1 y"
arrow d\U0001f600\u00e9 y" x\U0001f600
arrow e x\U0001f600 z
rel a"1*b\u20ac - c\\"*d\U0001f600\u00e9
rel b\u20ac*e
"""


def test_cells_reports_match_json_dumps_of_the_cell_dicts(
        tmp_path, comm_grid, bound_caveat_quiver):
    escaped = tmp_path / "escaped.bq"
    escaped.write_text(ESCAPED_NAMES, encoding="utf-8")
    files = [str(p.relative_to(ROOT)) for p in sorted(CORPUS.glob("*.bq"))]
    files += [comm_grid(4), bound_caveat_quiver, str(escaped)]
    for k, q in enumerate(differential_quivers()):
        path = tmp_path / ("q%d.bq" % k)
        path.write_text(serialize(q))
        files.append(str(path))
    variants = ([], ["--sharp"], ["--max-dim", "0"], ["--max-dim", "1"],
                ["--max-dim", "2"])
    for f in files:
        for extra in variants:
            argv = ["cells", *extra, f]
            code, out, err = run_cli(argv)
            assert (code, err) == (0, ""), argv
            assert out == json.dumps(dict_cells_report(argv), indent=2,
                                     sort_keys=True) + "\n", argv
    assert len(files) == 18 + 3 + 299
    # the escaped names reach the report, and --out writes the same bytes
    code, out, _ = run_cli(["cells", str(escaped)])
    cells = json.loads(out)["result"]["cells"]
    assert cells["0"] == ["v\\1", "w\u00e9", "x\U0001f600", 'y"', "z"]
    assert [c["witness"] for c in cells["2"]] == [
        'a"1*b\u20ac', 'c\\"*d\U0001f600\u00e9', "d\U0001f600\u00e9*e"]
    target = tmp_path / "cells.json"
    assert run_cli(["cells", str(escaped), "--out", str(target)]) \
        == (0, "", "")
    assert target.read_bytes() == out.encode("utf-8")


@pytest.fixture(params=["", "# no vertex, no arrow\n"],
                ids=["empty", "comment"])
def no_vertex_quiver(request, tmp_path):
    path = tmp_path / "none.bq"
    path.write_text(request.param)
    return str(path)


def test_pi1_of_a_quiver_without_vertices_exit_2(no_vertex_quiver):
    code, out, err = run_cli(["pi1", no_vertex_quiver])
    assert (code, out) == (2, "")
    assert err == "bqtop: the quiver has no vertex, so pi1 has no base point\n"


def test_galois_cover_of_a_quiver_without_vertices_exit_2(no_vertex_quiver,
                                                         tmp_path):
    morphism, group = tmp_path / "none.map", tmp_path / "none.group"
    morphism.write_text("")
    group.write_text("element id\n")
    code, out, err = run_cli(["cover", "verify", no_vertex_quiver,
                              no_vertex_quiver, str(morphism),
                              "--galois", str(group)])
    assert (code, out) == (2, "")
    assert err == ("bqtop: the base quiver has no vertex, so the deck group "
                   "has no base point\n")


def test_sharp_cells_of_a_quiver_without_vertices(no_vertex_quiver):
    code, out, err = run_cli(["cells", "--sharp", no_vertex_quiver])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {
        "cells": {"0": []}, "counts": [0], "euler_characteristic": 0}
    assert run_cli(["cells", no_vertex_quiver]) == (code, out, err)


def test_sharp_homology_of_a_quiver_without_vertices(no_vertex_quiver):
    code, out, err = run_cli(["homology", "--sharp", no_vertex_quiver])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {
        "coefficients": "Z", "counts": [0], "groups": {"H0": [0, []]}}
    assert run_cli(["homology", no_vertex_quiver]) == (code, out, err)


RP2_COVER = ["corpus/rp2.bq", "corpus/rp2_cover.bq", "corpus/rp2_morphism.map"]

ARGVS = [
    [], ["-h"], ["--help"], ["--version"], ["--ver"], ["--version", "check"],
    ["nope"], ["nope", "corpus/ex1.bq"], ["-x", "check", "corpus/ex1.bq"],
    ["--", "check", "corpus/ex1.bq"], ["--path-cap", "3", "check"],
    ["check"], ["check", "corpus/ex1.bq"], ["check", "-h"],
    ["check", "corpus/ex1.bq", "--help"], ["check", "corpus/ex1.bq", "-h"],
    ["check", "corpus/ex1.bq", "--version"],
    ["check", "corpus/ex1.bq", "--ver"],
    ["check", "corpus/ex1.bq", "extra"],
    ["check", "corpus/ex1.bq", "extra", "more", "--nope"],
    ["check", "--", "corpus/ex1.bq"], ["check", "corpus/ex1.bq", "--"],
    ["check", "--", "corpus/ex1.bq", "--out"],
    ["check", "corpus/ex1.bq", "--=x"], ["check", "--", "--=x"],
    ["check", "corpus/ex1.bq", "-=x"], ["check", "-=", "corpus/ex1.bq"],
    ["check", "--path-cap", "9", "corpus/rp2_cover.bq"],
    ["check", "--path-cap=9", "corpus/rp2_cover.bq"],
    ["check", "--path-cap", "1", "corpus/ex1.bq"],
    ["check", "--path", "x", "corpus/ex1.bq"],
    ["check", "--path-cap"], ["check", "corpus/missing.bq"],
    ["cells", "--sharp", "--max-dim", "1", "corpus/ex1.bq"],
    ["cells", "--max-dim", "x", "corpus/ex1.bq"],
    ["cells", "--max", "1", "corpus/ex1.bq", "--sh"],
    ["homology", "corpus/rp2.bq", "--coeff", "Zmod:4"],
    ["homology", "corpus/rp2.bq", "--coe", "Fp:2", "--sharp"],
    ["homology", "corpus/rp2.bq", "--coe", "Fp:2", "--ver"],
    ["homology", "corpus/rp2.bq", "--coeff", "Fp:4"],
    ["homology", "corpus/rp2.bq", "--coeff"],
    ["cohomology", "--coeff=Q", "corpus/rp2.bq"],
    ["pi1", "--simplify", "--abelianization", "corpus/vk.bq"],
    ["pi1", "--base", "3", "--simp", "corpus/vk.bq"],
    ["vankampen", "corpus/vk.bq", "--v1", "2", "3", "4", "5", "6",
     "--v2", "1", "2", "3"],
    ["vankampen", "corpus/vk.bq", "--v1", "2"],
    ["simplicial", "corpus/pres1.bq"], ["simplicial", "corpus/nosn.bq"],
    ["compare", "corpus/hhgap.bq"],
    ["hochschild", "--field", "Fp:5", "corpus/hhgap.bq"],
    ["hochschild", "--fie", "Zmod:4", "corpus/hhgap.bq"],
    ["cover"], ["cover", "check"], ["cover", "check", *RP2_COVER],
    ["cover", "verify", *RP2_COVER],
    ["cover", "verify", *RP2_COVER, "--galois", "corpus/rp2_group.grp"],
    ["cover", "verify", *RP2_COVER, "--gal"],
    ["dot", "corpus/ex1.bq"], ["dot", "--skel", "corpus/rp2.bq"],
    ["dot", "--skeleton", "--skeleton", "corpus/rp2.bq", "-h"],
]


def run_cli_exiting(argv):
    """`run_cli` that also reports argparse's exits, as their code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_argv_dispatch_matches_the_full_parser(monkeypatch, tmp_path):
    # argparse's wording changes between Python versions, so both paths
    # run on this interpreter; --out is read back after each
    report = tmp_path / "report.json"
    argvs = ARGVS + [["check", "corpus/ex1.bq", "--out", str(report)],
                     ["homology", "--out", str(report), "corpus/rp2.bq"]]
    runs = []
    for parse_argv in (cli._parse_argv, full_parse_argv):
        monkeypatch.setattr(cli, "_parse_argv", parse_argv)
        ran = []
        for argv in argvs:
            report.unlink(missing_ok=True)
            got = run_cli_exiting(list(argv))
            ran.append((got, report.read_text() if report.exists()
                        else None))
        runs.append(ran)
    for argv, new, old in zip(argvs, *runs):
        assert new == old, argv
    codes = collections.Counter(got[0] for got, _ in runs[0])
    assert set(codes) == {0, 1, 2}, codes


@pytest.mark.parametrize("argv,message", [
    (["homology", "--coeff", "Fp:4"], "modulus 4 is not prime"),
    (["cohomology", "--coeff", "Zmod:1"], "Zmod modulus must be >= 2"),
    (["homology", "--coeff", "R"], "unknown coefficient system 'R'"),
    (["hochschild", "--field", "Zmod:4"],
     "Hochschild scalars must be Q or Fp:<p>"),
    (["hochschild", "--field", "Fp:x"],
     "coefficient system 'Fp:x' needs an integer modulus after 'Fp:'"),
])
@pytest.mark.parametrize("quiver", ["corpus/rp2.bq", "corpus/nosn.bq",
                                    "cycle", "corpus/missing.bq"])
def test_bad_scalars_are_rejected_before_the_input_is_read(
        monkeypatch, tmp_path, argv, message, quiver):
    # the value is refused before the path table is built, also where the
    # input has a fault of its own (no semi-normed basis, an oriented
    # cycle, no file)
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_paths called")

    if quiver == "cycle":
        quiver = tmp_path / "cycle.bq"
        quiver.write_text(SQUARE_ZERO_CYCLE)
    monkeypatch.setattr(cli, "enumerate_paths", refuse)
    code, out, err = run_cli(argv + [str(quiver)])
    assert (code, out, err) == (2, "", "bqtop: %s\n" % message)


def test_console_entry_point_reads_sys_argv():
    # the installed script calls main() with no argv
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "bqtop.cli"]
    done = subprocess.run(cmd + ["check", "corpus/rp2_cover.bq"], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (GOLDEN / "rp2_cover_check.json").read_text()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: bqtop ")
    assert done.stderr.endswith("error: the following arguments are "
                                "required: command\n")
