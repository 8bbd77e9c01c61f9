"""Benchmark of the bqtop command line, one workload per run.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Closed loop, one client, one thread: each operation is one in-process call
of ``bqtop.cli.main(argv)`` from the repository root, and the next one
starts when it has returned.  A run repeats whole passes over the
workload's operation list for about ``--seconds`` (see NOMINAL_PASS_S),
checks every report of every pass, prints one line per metric and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
``failed`` counts operations that raised or returned another exit code
than expected; a wrong answer lowers ``ok_frac`` and makes ``correct``
false unless spec.json lists it as a seed defect.

--trace 0 reports the end-to-end metrics.  Their times are scaled by the
host-speed probe of probe.py, timed between and during operations and
around each set-up process, so that they do not move with the speed of a
shared host; the unscaled wall times are printed on a text line above the
JSON.  --trace 1 runs untraced and traced passes in turn and reports
per-layer metrics per pass, as medians over the traced passes (see
spans.py), with the tracing overhead.  Workloads, references and seed
defects are described in spec.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
# scaled seconds of one pass of each workload on the seed program.  A
# --trace 0 run makes round(seconds / NOMINAL_PASS_S) passes, at least one
# and within 1.6 times its seconds of wall time, so that the number of
# passes, and with it the operation op_tail_ms lands on, neither follows
# the host's speed nor differs by one between runs of the same code.
NOMINAL_PASS_S = {"corpus": 3.8, "relations": 1.85, "complexes": 4.2}

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def setup(name, seed, workdir):
    """Import bqtop and build the workload, writing its generated inputs."""
    if not (ROOT / "src" / "bqtop" / "cli.py").is_file():
        raise SystemExit("bench: no bqtop sources under %s" % (ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))
    import bqtop.cli
    wl = workloads.build(name, ROOT, seed, workdir.relative_to(ROOT))
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in wl.inputs.items():
        (ROOT / path).write_text(text)
    return bqtop.cli, wl


def measure_setup(name, seed):
    """Median wall time of fresh processes that only set up, in seconds,
    scaled and unscaled."""
    times, scaled = [], []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
                "--workload", name, "--seed", str(seed),
                "--workdir", str(WORK / ("%s-%d-setup%d" % (name, seed, i)))]
        before = probe.probe_median()
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in sleeps of up to 50 ms
        subprocess.run(argv, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        host = (before + probe.probe_median()) / 2
        scaled.append(times[-1] * probe.REF_S / host)
    return statistics.median(scaled), statistics.median(times)


def run_op(cli, argv, sampler=None):
    """One operation: its exit code, report and latency.  With a sampler
    (probe.Sampler), the probes it times during the operation are taken
    out of the latency."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash is a failed operation
            code = "raised %s: %s" % (type(e).__name__, e)
        dt = time.perf_counter() - t0
        if sampler:
            dt -= sampler.spent
    return code, out.getvalue(), dt


def run_scaled_pass(cli, wl, sampler):
    """A pass with the probe timed before the first operation, after each
    one and every probe.INTERVAL_S during one; each latency is scaled by
    the mean of the probes beside and during it (`sampler` takes those).
    Returns the results and the scaled latencies."""
    results, scaled = [], []
    before = probe.probe()
    for op in wl.ops:
        results.append(run_op(cli, op.argv, sampler))
        after = probe.probe()
        host = statistics.mean([before, after] + sampler.times)
        scaled.append(results[-1][2] * probe.REF_S / host)
        before = after
    return results, scaled


class Tally:
    """Outcome counts over all passes, and whether all were as expected."""

    def __init__(self, known_wrong):
        self.known_wrong = known_wrong
        self.attempted = self.failed = self.ok = self.exact = 0
        self.errors = {}

    def add(self, wl, results):
        reports = {op.id: workloads.parse_report(op, out)
                   for op, (_, out, _) in zip(wl.ops, results)}
        for op, (code, out, _) in zip(wl.ops, results):
            self.attempted += 1
            err = workloads.check_op(op, code, out, reports)
            if code != op.code:
                self.failed += 1
            if err is None:
                self.ok += 1
                rep = reports.get(op.id)
                self.exact += not (rep and rep.get("caveats"))
            elif op.id not in self.known_wrong or code != op.code:
                self.errors.setdefault(op.id, err)

    def metrics(self):
        return {"ok_frac": (self.ok / self.attempted, "ratio"),
                "exact_frac": (self.exact / self.attempted, "ratio")}


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * k / len(xs)


def budget(seconds):
    """Iterate while the next pass is expected to end within `seconds`,
    at least once."""
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return


def checked(wl, tally, results, outputs):
    """Tally a pass's results; its outputs, which must equal `outputs`
    when given."""
    tally.add(wl, results)
    got = [r[:2] for r in results]
    if outputs is not None and got != outputs:
        tally.errors.setdefault("repeat", "a pass, traced or not, gave "
                                "other reports than the first pass")
    return got


def latency_metrics(lat):
    """pass_s, op_p50_ms and op_tail_ms of per-pass latency lists, with the
    tail's percentile and sample count."""
    # the median of per-operation medians does not depend on how many
    # passes fitted into the run; the tail is taken over all samples, where
    # it lands among the slowest operations
    op_med = [statistics.median(x) for x in zip(*lat)]
    samples = [x for op_s in lat for x in op_s]
    tail_s, pct = tail(samples)
    return (statistics.median(sum(op_s) for op_s in lat),
            1000 * statistics.median(op_med), 1000 * tail_s,
            pct, len(samples))


def end_to_end(cli, wl, tally, args):
    setup_s, setup_wall = measure_setup(args.workload, args.seed)
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    sampler, scaled, wall, first = probe.Sampler(), [], [], None
    t0 = time.perf_counter()
    while len(scaled) < passes:
        results, op_s = run_scaled_pass(cli, wl, sampler)
        got = checked(wl, tally, results, first)
        first = first or got
        scaled.append(op_s)
        wall.append([r[2] for r in results])
        if time.perf_counter() - t0 > 1.6 * args.seconds:
            break
    pass_s, p50, tail_ms, pct, n = latency_metrics(scaled)
    raw = latency_metrics(wall)
    print("%d passes; op_tail_ms is p%.2f of %d latency samples"
          % (len(scaled), pct, n))
    print("unscaled wall times: setup_s %.6f, pass_s %.6f, op_p50_ms %.6f, "
          "op_tail_ms %.6f" % ((setup_wall,) + raw[:3]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"setup_s": (setup_s, "s"),
           "pass_s": (pass_s, "s"),
           "op_p50_ms": (p50, "ms"),
           "op_tail_ms": (tail_ms, "ms"),
           "peak_rss_mb": (peak, "MB")}
    out.update(tally.metrics())
    return out


def per_layer(cli, wl, tally, args):
    """Untraced and traced passes in turn, both scaled as in end_to_end so
    that the tracing overhead, the difference of their medians, does not
    follow the host's speed.  Per-layer figures are medians over the traced
    passes, in wall time without the probes."""
    sampler = probe.Sampler()
    tracer = spans.Tracer(sampler.clock)
    # a first, untimed pass, so that the first timed one does not pay for
    # what the program sets up lazily
    outputs = checked(wl, tally, run_scaled_pass(cli, wl, sampler)[0], None)
    plain, traced, rows = [], [], []
    for _ in budget(args.seconds):
        results, op_s = run_scaled_pass(cli, wl, sampler)
        got = checked(wl, tally, results, outputs)
        outputs = outputs or got
        plain.append(sum(op_s))
        tracer.reset()
        tracer.install()
        try:
            results, op_s = run_scaled_pass(cli, wl, sampler)
        finally:
            tracer.uninstall()
        checked(wl, tally, results, outputs)
        traced.append(sum(op_s))
        traced_s = sum(r[2] for r in results)
        row = tracer.metrics()
        row["cli.report_bytes"] = (sum(len(o) for _, o in outputs), "count")
        accounted = sum(tracer.self_s.values()) + tracer.counting_s
        row["trace.residue_s"] = (traced_s - accounted, "s")
        row["trace.wall_s"] = (traced_s, "s")
        rows.append(row)
    out = {k: (statistics.median(r[k][0] for r in rows), unit)
           for k, (_, unit) in rows[0].items()}
    traced_s = out.pop("trace.wall_s")[0]
    residue = out["trace.residue_s"][0]
    if not -0.01 * traced_s <= residue <= 0.05 * traced_s:
        tally.errors.setdefault("trace", "self times leave %.4f s of a "
                                "%.4f s traced pass unaccounted"
                                % (residue, traced_s))
    out["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    workdir = pathlib.Path(args.workdir or WORK / ("%s-%d" % (
        args.workload, args.seed)))
    try:
        cli, wl = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        spec = json.loads((HERE / "spec.json").read_text())
        known_wrong = {op for d in spec["seed_defects"] if d["kind"] == "wrong"
                       and d["workload"] == args.workload
                       for op in d["operations"]}
        tally = Tally(known_wrong)
        err = workloads.check_generator(args.workload, args.seed)
        if err:
            tally.errors["generator"] = err
        run_op(cli, wl.ops[0].argv)   # warm-up, neither timed nor counted
        probe.warm_up()
        run = per_layer if args.trace else end_to_end
        metrics = run(cli, wl, tally, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for key, msg in sorted(tally.errors.items()):
        print("WRONG %s: %s" % (key, msg))
    wrong = tally.attempted - tally.ok
    print("%s: %d operations, %d failed, %d wrong or failed (fail_frac %.4f),"
          " %d inexact (inexact_frac %.4f)"
          % (args.workload, tally.attempted, tally.failed, wrong,
             wrong / tally.attempted, tally.attempted - tally.exact,
             1 - tally.exact / tally.attempted))
    for key, (value, unit) in metrics.items():
        print("%-45s %14.6f %s" % (key, value, unit))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
