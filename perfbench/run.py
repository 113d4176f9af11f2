#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer costs of the gDiff
reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload repro|sweep|serve|all \
        [--seed N] [--seconds S] [--trace 0|1]

It builds the `harness` binary and the `perfbench` helper from source
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload and
checks every output. Human-readable results go to stdout; the last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. Workload settings live in
perfbench/config.json; perfbench/README.md explains them.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CONFIG = json.load(open(os.path.join(HERE, "config.json")))
WORKLOADS = ("repro", "sweep", "serve")
# The committed report whose `experiments` section is `harness all` at the
# configured scale and default seed.
REFERENCE = "BENCH_ae21fbc.json"
# Set-ups per run (setup_s is their median) and the fewest repetitions.
SETUP_REPS = 5
MIN_REPS = 2
# repro's set-up: process start plus small profile and pipeline runs.
REPRO_SETUP = (["fig1", "fig8", "fig12", "fig13"], 0.01)
# sweep's set-up: the grid with tiny cells, the engine's fixed cost.
SWEEP_SETUP_CELLS = "warmup=1000;measure=1000"
# Length of the serve load inside the traced run.
TRACED_SERVE_SECONDS = 4
# Every run must end within 180 s; no repetition starts past this point.
RUN_BUDGET_S = 140.0
CHILD_TIMEOUT_S = 170.0
T_START = time.perf_counter()


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    """Builds both binaries; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(os.path.relpath(HERE, ROOT), "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "harness"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(target, "release", "harness"), os.path.join(target, "release", "perfbench")


def kill_group(p):
    """Kills a child's whole process group (sweep workers, the serve
    daemon) and waits until every member has gone."""
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.perf_counter() + 10
    while time.perf_counter() < deadline:
        try:
            os.killpg(p.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(cmd):
    """Runs cmd to completion; returns (exit code, wall s, CPU s, peak RSS MB).

    CPU time and peak RSS come from wait4 and cover the child's own
    waited-for children (sweep workers). CPU time is user + system; the
    kernel leaves time stolen by the hypervisor out of it. The peak RSS is
    `ru_maxrss`: the same high-water mark `/proc/<pid>/status` shows as
    VmHWM, taken at exit.
    """
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL, start_new_session=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (p,))
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    kill_group(p)  # nothing should be left; make sure
    return p.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def helper(perfbench, args):
    """Runs a perfbench subcommand and returns its JSON result."""
    p = subprocess.Popen([perfbench] + args, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(p)
        p.communicate()
        die("perfbench %s timed out" % args[0])
    kill_group(p)
    if p.returncode != 0:
        die("perfbench %s failed: %s" % (args[0], err.strip()))
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs):
    """`median (quartiles q1..q3, n=N)` of a sample."""
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return "%.4f (quartiles %.4f..%.4f, n=%d)" % (q[1] if len(xs) > 1 else xs[0], q[0], q[2], len(xs))


def wall_lines(walls, ops, ops_name):
    """Wall-clock figures: printed, not gated (see README.md)."""
    walls = sorted(walls)
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
    return [
        "  wall_s = %.4f s per repetition (median of %d, quartiles %.4f..%.4f)" % (statistics.median(walls), len(walls), q[0], q[2]),
        "  %s = %.4f 1/s (%d per repetition / median wall)" % (ops_name, ops / statistics.median(walls), ops),
    ]


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_since(start):
    """Share of all CPU time the hypervisor stole since `start`."""
    steal, total = cpu_ticks()
    return (steal - start[0]) / max(1, total - start[1])


def within_budget(next_cost):
    return time.perf_counter() - T_START + next_cost < RUN_BUDGET_S


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(why)

    def merge(self, attempted, failed, errors):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[: max(0, 5 - len(self.errors))])


# ---------------------------------------------------------------------------
# repro: `harness all --scale 0.05 --jobs 1`, the whole-system cost
# ---------------------------------------------------------------------------

def repro_cmd(harness, seed, experiments, scale, out=None):
    cmd = [harness] + experiments + ["--scale", str(scale), "--jobs", str(CONFIG["repro"]["jobs"]), "--seed", str(seed)]
    return cmd + (["--json", out] if out else [])


def reference():
    with open(os.path.join(ROOT, REFERENCE)) as f:
        return json.load(f)["experiments"]


def repro_once(harness, seed, out):
    """One timed `harness all`; returns (wall, cpu, rss, experiments or None)."""
    code, wall, cpu, rss = run_child(repro_cmd(harness, seed, ["all"], CONFIG["repro"]["scale"], out))
    if code != 0 or not os.path.exists(out):
        return wall, cpu, rss, None
    with open(out) as f:
        return wall, cpu, rss, json.load(f).get("experiments")


def check_experiments(tally, got, want, what):
    for name in sorted(want):
        ok = got is not None and got.get(name) == want[name]
        tally.add(ok, "%s: experiment %s differs" % (what, name))


def repro(harness, seed, seconds, work):
    tally = Tally()
    want = reference()

    setup = []
    for _ in range(SETUP_REPS):
        code, _, cpu, _ = run_child(repro_cmd(harness, seed, *REPRO_SETUP))
        if code != 0:
            die("repro set-up run failed with exit code %d" % code)
        setup.append(cpu)

    walls, cpus, rss, first = [], [], [], None
    t0 = time.perf_counter()
    while len(walls) < MIN_REPS or (time.perf_counter() - t0 < seconds and within_budget(walls[-1] * 1.2)):
        wall, cpu, peak, exps = repro_once(harness, seed, os.path.join(work, "repro-%d.json" % len(walls)))
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if first is None:
            first = exps
        # Every repetition must match the first (determinism) and, at the
        # default seed, the committed experiments section.
        check_experiments(tally, exps, want if seed == CONFIG["seed"] else first, "repro rep %d" % len(walls))

    if seed != CONFIG["seed"]:
        exps = repro_once(harness, CONFIG["seed"], os.path.join(work, "repro-reference.json"))[3]
        check_experiments(tally, exps, want, "repro at seed %d" % CONFIG["seed"])

    n_exp = len(want)
    return tally, {
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }, [
        "repro: %d runs of `%s` (%d experiments each)"
        % (len(walls), " ".join(repro_cmd("harness", seed, ["all"], CONFIG["repro"]["scale"])), n_exp),
    ] + wall_lines(walls, n_exp, "experiments_per_s")


# ---------------------------------------------------------------------------
# sweep: `harness sweep --workers 2 --jobs 1` over a fixed 160-cell grid
# ---------------------------------------------------------------------------

def sweep_once(harness, seed, grid, ckpt, out=None):
    cfg = CONFIG["sweep"]
    shutil.rmtree(ckpt, ignore_errors=True)
    cmd = [harness, "sweep", "--grid", grid, "--ckpt", ckpt, "--workers", str(cfg["workers"]),
           "--jobs", str(cfg["jobs"]), "--seed", str(seed)] + (["--out", out] if out else [])
    code, wall, cpu, rss = run_child(cmd)
    cells = None
    if code == 0 and out and os.path.exists(out):
        with open(out) as f:
            cells = {c["id"]: c for c in json.load(f)["cells"]}
    return code, wall, cpu, rss, cells


def in_process_cells(perfbench, seed):
    """A fixed sample of the grid's cells through `run_cell_counts`."""
    got = helper(perfbench, ["cells", "--seed", str(seed)])
    return got["cell_count"], {c["id"]: c for c in got["cells"]}


def sweep_setup_grid():
    """The workload's grid with its cell length replaced by SWEEP_SETUP_CELLS."""
    axes = [a for a in CONFIG["sweep"]["grid"].split(";") if not a.startswith(("warmup=", "measure="))]
    return ";".join(axes + [SWEEP_SETUP_CELLS])


def same_cell(a, b):
    return a is not None and b is not None and all(a.get(k) == v for k, v in b.items())


def sweep(harness, perfbench, seed, seconds, work):
    cfg = CONFIG["sweep"]
    tally = Tally()
    ckpt = os.path.join(work, "ckpt")

    setup = []
    for _ in range(SETUP_REPS):
        code, _, cpu, _, _ = sweep_once(harness, seed, sweep_setup_grid(), ckpt)
        if code != 0:
            die("sweep set-up run failed with exit code %d" % code)
        setup.append(cpu)

    n_cells, expected = in_process_cells(perfbench, seed)
    walls, cpus, rss, first = [], [], [], None
    t0 = time.perf_counter()
    while len(walls) < MIN_REPS or (time.perf_counter() - t0 < seconds and within_budget(walls[-1] * 1.2)):
        out = os.path.join(work, "sweep-%d.json" % len(walls))
        code, wall, cpu, peak, cells = sweep_once(harness, seed, cfg["grid"], ckpt, out)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if first is None:
            first = cells or {}
        # Every cell must match the first repetition's; the sampled ones
        # must also match an in-process run_cell_counts.
        for cid in range(n_cells):
            got = (cells or {}).get(cid)
            ok = same_cell(got, first.get(cid)) and (cid not in expected or same_cell(got, expected[cid]))
            tally.add(ok, "sweep rep %d: cell %d differs or is missing" % (len(walls), cid))
    shutil.rmtree(ckpt, ignore_errors=True)

    mproducers = sum(c["total"] for c in first.values()) / 1e6 if first else 0.0
    return tally, {
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }, [
        "sweep: %d runs of %d cells, grid `%s`, --workers %d --jobs %d"
        % (len(walls), n_cells, cfg["grid"], cfg["workers"], cfg["jobs"]),
    ] + wall_lines(walls, n_cells, "cells_per_s") + [
        "  mproducers_per_s = %.4f M/s (measured producers, warm-up excluded)" % (mproducers / statistics.median(walls)),
    ]


# ---------------------------------------------------------------------------
# serve: a gdiffd daemon under a closed-loop, go-back-N streaming load
# ---------------------------------------------------------------------------

def serve(perfbench, harness, seed, seconds, work, trace=0):
    cfg = CONFIG["serve"]
    r = helper(perfbench, ["serve", "--harness", harness, "--dir", os.path.join(work, "serve"), "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])
    tally = Tally()
    tally.merge(r["attempted"], r["failed"], r["errors"])
    return tally, {
        "setup_s": statistics.median(r["setup_cpu_s"]),
        "cpu_s": r["daemon_cpu_s_per_pass"],
        "peak_rss_mb": r["peak_rss_mb"],
    }, [
        "serve: %d untraced passes x %d sessions (%d at a time), %d chunks of %d records per pass, window %d"
        % (len(r["pass_wall_s"]), r["sessions_per_pass"], cfg["sessions"], r["chunks_per_pass"],
           cfg["chunk"], cfg["window"]),
        "  setup wall = %.4f s (median of %d)" % (statistics.median(r["setup_wall_s"]), len(r["setup_wall_s"])),
    ] + wall_lines(r["pass_wall_s"], r["chunks_per_pass"], "chunks_per_s") + [
        "  daemon cpu_ms_per_chunk = %.4f ms; peak RSS per pass: %s MB"
        % (r["daemon_cpu_s_per_pass"] * 1e3 / r["chunks_per_pass"], quartiles(r["pass_rss_mb"])),
        "  mproducers_per_s = %.4f M/s" % (r["producers"] / sum(r["pass_wall_s"]) / 1e6),
        "  chunk_rtt_p50_ms = %.4f ms, chunk_rtt_p99_ms = %.4f ms (n=%d)"
        % (r["rtt_p50_ms"], r["rtt_p99_ms"], r["rtt_samples"]),
        "  busy_per_chunk = %.4f (%d BUSY / %d CHUNK frames)" % (r["busy"] / max(1, r["chunk_frames"]), r["busy"], r["chunk_frames"]),
    ], r


# ---------------------------------------------------------------------------
# Traced run: per-layer costs
# ---------------------------------------------------------------------------

def traced(harness, perfbench, seed, work):
    """Runs each workload once untraced, then the per-layer suite, and
    derives the metrics that relate the two."""
    scfg, vcfg = CONFIG["sweep"], CONFIG["serve"]
    tally = Tally()

    out = os.path.join(work, "repro.json")
    repro_wall, _, _, exps = repro_once(harness, seed, out)
    if seed == CONFIG["seed"]:
        check_experiments(tally, exps, reference(), "repro")
    else:
        tally.add(exps is not None, "repro run failed")

    ckpt = os.path.join(work, "ckpt")
    code, sweep_wall, _, _, cells = sweep_once(harness, seed, scfg["grid"], ckpt, os.path.join(work, "sweep.json"))
    shutil.rmtree(ckpt, ignore_errors=True)
    tally.add(code == 0 and cells is not None, "sweep run failed")

    s_tally, _, _, srv = serve(perfbench, harness, seed, TRACED_SERVE_SECONDS, work, trace=1)
    tally.merge(s_tally.attempted, s_tally.failed, s_tally.errors)

    lay = helper(perfbench, ["layers", "--dir", os.path.join(work, "layers"), "--seed", str(seed)])
    tally.merge(lay["attempted"], lay["failed"], lay["errors"])
    # The in-process cells must equal the CLI's, all of them.
    for c in lay["cells"]:
        tally.add(same_cell((cells or {}).get(c["id"]), c), "sweep cell %d: CLI differs from run_cell_counts" % c["id"])

    m = dict(lay["metrics"])
    gen_s = m["workloads.gen_ns_per_inst"] * m["workloads.insts_generated.repro"] / 1e9
    m["harness.repro.overhead_s"] = repro_wall - gen_s - lay["experiments_s"]
    m["harness.sweep.overhead_frac"] = 1 - lay["cell_s_total"] / (sweep_wall * scfg["workers"])
    producers_per_chunk = srv["producers"] / max(1, srv["acked"])
    service_us = (m["tracefile.decode_ns_per_inst"] * vcfg["chunk"]
                  + m["serve.feed_ns_per_producer"] * producers_per_chunk) / 1e3
    m["serve.transport_us_per_chunk"] = srv["rtt_p50_ms"] * 1e3 - service_us
    m["serve.busy_per_chunk"] = srv["busy"] / max(1, srv["chunk_frames"])
    # Traced serve passes record a span per pass, session and chunk inside
    # their timed window; untraced ones record nothing.
    traced_pass, untraced_pass = statistics.median(srv["traced_pass_wall_s"]), statistics.median(srv["pass_wall_s"])
    m["obs.trace_overhead_frac"] = traced_pass / untraced_pass - 1

    lines = [
        "traced run (seed %d); spans: %s (%d), %s (%d); dropped %d"
        % (seed, lay["spans"], lay["span_count"], srv["spans"], srv["span_count"],
           lay["spans_dropped"] + srv["spans_dropped"]),
        "  obs.trace_overhead_frac = %.4f: serve pass %.4f s traced vs %.4f s untraced (medians of %d and %d)"
        % (m["obs.trace_overhead_frac"], traced_pass, untraced_pass, len(srv["traced_pass_wall_s"]),
           len(srv["pass_wall_s"])),
        "  repro.wall_s = %.4f s = generation %.4f s + experiments %.4f s + overhead %.4f s"
        % (repro_wall, gen_s, lay["experiments_s"], m["harness.repro.overhead_s"]),
        "  sweep.wall_s = %.4f s; cells %.4f s over %d workers (n=%d, p50 %.3f ms, p99 %.3f ms); overhead_frac %.4f"
        % (sweep_wall, lay["cell_s_total"], scfg["workers"], lay["cell_samples"], m["harness.sweep.cell_ms_p50"],
           m["harness.sweep.cell_ms_p99"], m["harness.sweep.overhead_frac"]),
        "  serve chunk_rtt_p50 = %.1f us = decode+feed %.1f us + transport %.1f us"
        % (srv["rtt_p50_ms"] * 1e3, service_us, m["serve.transport_us_per_chunk"]),
        "  profile.gdiff_conflict_ratio.entries8k = %.6f (base: %d table accesses)"
        % (m["profile.gdiff_conflict_ratio.entries8k"], m["profile.gdiff_table_accesses.entries8k"]),
    ]
    return tally, m, lines


# ---------------------------------------------------------------------------

def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(e["name"], e["unit"]) for e in json.load(f)[kind]]


def result(tally, metrics, kind):
    names = declared(kind)
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        die("metrics not produced: " + ", ".join(missing))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }


def report(title, res, lines, tally):
    print("== %s ==" % title)
    for line in lines:
        print(line)
    for name, v in res["metrics"].items():
        print("  %-44s %.6g %s" % (name, v["value"], v["unit"]))
    print("  failed_frac = %d / %d%s" % (tally.failed, tally.attempted,
                                          "" if not tally.errors else "  (" + "; ".join(tally.errors) + ")"))
    sys.stdout.flush()


def run_workload(name, seed, seconds, trace, harness, perfbench):
    work = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d-%d" % (name, seed, trace, os.getpid()))
    os.makedirs(work, exist_ok=True)
    start = cpu_ticks()
    if trace:
        tally, metrics, lines = traced(harness, perfbench, seed, work)
        metrics["host.steal_frac"] = steal_since(start)
        res = result(tally, metrics, "per_layer")
    else:
        if name == "repro":
            tally, metrics, lines = repro(harness, seed, seconds, work)
        elif name == "sweep":
            tally, metrics, lines = sweep(harness, perfbench, seed, seconds, work)
        else:
            tally, metrics, lines = serve(perfbench, harness, seed, seconds, work)[:3]
        res = result(tally, metrics, "end_to_end")
    lines.append("  host steal during the run = %.4f of all CPU time" % steal_since(start))
    report("%s (seed %d, trace %d)" % (name, seed, trace), res, lines, tally)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=CONFIG["seed"])
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates", "harness"))
            and os.path.isfile(os.path.join(ROOT, "BENCHMARK.json"))):
        die("run from the repository root (Cargo.toml, crates/harness and BENCHMARK.json must be there)", 2)
    if a.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            a.seconds = json.load(f)["run_seconds"]

    harness, perfbench = build()
    global T_START
    T_START = time.perf_counter()
    if a.workload != "all":
        print(json.dumps(run_workload(a.workload, a.seed, a.seconds, a.trace, harness, perfbench)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        T_START = time.perf_counter()
        res = run_workload(w, a.seed, a.seconds, a.trace, harness, perfbench)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({"%s.%s" % (w, k): v for k, v in res["metrics"].items()})
        if a.trace:
            break  # the per-layer suite is the same for every workload
    print(json.dumps(total))


if __name__ == "__main__":
    main()
