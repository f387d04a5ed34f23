#!/usr/bin/env python3
"""End-to-end benchmark of the RSIN reproduction.

    python3 perfbench/run.py --workload omega_sim --seed 1 --seconds 36 --trace 0

Builds the program in Release (outside every timed part), runs one
workload, checks its outputs and prints every metric.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, cpu_s,
setup_s, peak_rss_mb); with --trace 1 they are the per-layer ones,
taken from spans recorded around each call into the library.  The exit
code is 0 only when every check passed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfbench"


# ----------------------------------------------------------- workloads

OMEGA_CONFIGS = ["16/1x16x16 OMEGA/2", "64/1x64x64 OMEGA/1"]
OMEGA_RATIOS = [0.1, 10.0]
OMEGA_RHOS = [0.1, 0.3, 0.5, 0.7, 0.9]
OMEGA_TASKS = 10000

SBUS_CONFIG = "4096/1024x1x1 SBUS/2"
SBUS_RATIO = 0.1
SBUS_RHOS = [0.1, 0.15, 0.2]
SBUS_TASKS = 10000
SBUS_SHARD_CHECK = (0.2, 2000)  # rho, tasks of the 2-shard cell

# Length of one harness process of a simulation run (see run_sim).
SLICE_SECONDS = 3.0

CAMPAIGN = {
    "configs": ["16/16x1x1 SBUS/2", "16/4x4x4 XBAR/2", "16/2x8x8 XBAR/2",
                "8/1x8x8 OMEGA/2"],
    "ratios": [0.1],
    "rho_min": 0.2,
    "rho_max": 0.8,
    "steps": 3,
    "tasks": 20000,
    "replications": 2,
    "jobs": 2,
}
# Set-ups timed after each campaign.  A lone one reads 5 or 7.5 ms
# at random on this host; the fastest of a few is steady.
RESUMES = 3
# Sparse-path cell re-solved at twice its depth (the cheapest one).
CAMPAIGN_DEEP = ("16/2x8x8 XBAR/2", 0.2)


def cell_seeds(workload, seed, count):
    rng = random.Random(f"{workload}/{seed}")
    return [rng.getrandbits(62) + 1 for _ in range(count)]


# ------------------------------------------------------------- helpers

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the harness and rsin_campaign in Release."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(log, "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            code = subprocess.call(
                ["cmake", "-S", str(BENCH), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=out, stderr=subprocess.STDOUT)
            if code != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                fail(f"cmake configure failed (exit {code})")
        code = subprocess.call(
            ["cmake", "--build", str(bdir), "-j", "4", "--target",
             "perfbench_harness", "rsin_campaign"],
            stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"build failed (exit {code}); log in {log}")
    return bdir / "perfbench_harness", \
        bdir / "rsin" / "examples" / "rsin_campaign"


class Child:
    """One finished child process: exit code, wall time from just
    before the spawn, and its own CPU time and peak RSS (wait4).  With
    @p follow = (harness, path), `perfbench_harness follow` times the
    clock loop on the CPU of the child's main thread while it runs;
    clock_ns is the mean of those times."""

    def __init__(self, argv, log, follow=None):
        with open(log, "wb") as out:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, out.fileno(), 2)]
            self.spawn_ns = time.monotonic_ns()
            pid = os.posix_spawn(argv[0], [str(a) for a in argv],
                                 os.environ, file_actions=actions)
            if follow:
                watcher = os.posix_spawn(
                    follow[0], [str(follow[0]), "follow", str(pid),
                                str(follow[1])],
                    os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            self.end_ns = time.monotonic_ns()
            if follow:
                os.waitpid(watcher, 0)
        self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = (self.end_ns - self.spawn_ns) / 1e9
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.output = Path(log).read_text(errors="replace")
        if self.code != 0:
            sys.stderr.write(self.output[-4000:])
            fail(f"{Path(argv[0]).name} exited with {self.code}")
        if follow:
            samples = [float(line.split()[1]) for line in
                       Path(follow[1]).read_text().splitlines()]
            if not samples:
                fail(f"no clock samples for {Path(argv[0]).name}")
            self.clock_ns = statistics.fmean(samples)


# Time of the clock loop (perfbench::clockNs, 4096 dependent
# multiply-xorshift steps) at the development host's full clock: the
# fastest of 1,638 timings of the same chain in a quiet hour, 1.9275 ns
# a step.  For tens of minutes at a time the host runs every vCPU about
# 1.2x slower, the loop and the simulator alike, so every time is
# reported at the full clock: host time x FULL_CLOCK_NS / the loop's
# time measured around the work.
FULL_CLOCK_NS = 7895.0


def at_full_clock(ns, clock_ns):
    return ns * FULL_CLOCK_NS / clock_ns


def per_cell_min(rounds, key):
    """Time of one round at the full clock: the sum over cells of each
    cell's fastest run over the rounds, each run scaled by the clock
    loop timed just before and after it.  Something else on this host
    also slows one vCPU at a time by up to 1.8x, in phases of a
    fraction of a second to tens of seconds; a cell's fastest run over
    many rounds spread across the run is the one such a phase touched
    least, where a mean or a median moves with the share of slow
    phases."""
    n = len(rounds[0][key])
    return sum(min(at_full_clock(r[key][i], r["clock_ns"][i])
                   for r in rounds) for i in range(n)) / 1e9


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def span_index(spans):
    by_name = {}
    for s in spans:
        s["dur"] = (s["end_ns"] - s["start_ns"]) / 1e9
        by_name.setdefault(s["name"], []).append(s)
    return by_name


def total(spans, attr=None):
    if attr is None:
        return sum(s["dur"] for s in spans)
    return sum(s["attrs"].get(attr, 0.0) for s in spans)


# Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def sim_layers(run_spans, run_s):
    """DES / scheduler / workload numbers from SystemSimulation::run (or
    simulate) spans; @p run_s is the time those calls took."""
    omega = [s for s in run_spans if s["attrs"].get("omega")]
    omega_s = total(omega) if omega else 0.0
    fired = total(run_spans, "events_fired")
    done = total(run_spans, "completed_tasks")
    routes = total(omega, "completed_tasks") + total(omega, "rejections")
    return {
        "des.events_fired": fired,
        "des.events_scheduled": total(run_spans, "events_scheduled"),
        "des.host_ns_per_event": run_s * 1e9 / fired if fired else 0.0,
        "des.arena_bytes": max((s["attrs"]["arena_bytes"]
                                for s in run_spans), default=0.0),
        "rsin.run_s": run_s,
        "sched.route_calls": routes,
        "sched.rejections": total(omega, "rejections"),
        "sched.boxes_traversed": round(total(omega, "boxes_traversed")),
        "sched.host_ns_per_route_call":
            omega_s * 1e9 / routes if routes else 0.0,
        "workload.tasks_completed": done,
        "workload.sim_tasks_per_host_s": done / run_s if run_s else 0.0,
    }


# --------------------------------------------------- simulation workloads

def sim_cells(workload, seed):
    if workload == "omega_sim":
        grid = [(c, r, rho) for c in OMEGA_CONFIGS for r in OMEGA_RATIOS
                for rho in OMEGA_RHOS]
        seeds = cell_seeds(workload, seed, len(grid))
        return [("cell", c, r, rho, OMEGA_TASKS, s)
                for (c, r, rho), s in zip(grid, seeds)]
    seeds = cell_seeds(workload, seed, len(SBUS_RHOS) + 1)
    rows = [("cell", SBUS_CONFIG, SBUS_RATIO, rho, SBUS_TASKS, s)
            for rho, s in zip(SBUS_RHOS, seeds)]
    rows.append(("shardcheck", SBUS_CONFIG, SBUS_RATIO,
                 SBUS_SHARD_CHECK[0], SBUS_SHARD_CHECK[1], seeds[-1]))
    return rows


def write_table(path, rows):
    path.write_text("".join("\t".join(str(v) for v in row) + "\n"
                            for row in rows))


def run_sim(workload, args, harness, work):
    """Runs the harness as a sequence of processes ("slices") of about
    SLICE_SECONDS each, until the run's seconds have passed.  Each slice
    is one cold set-up and whole rounds of every cell, so a run samples
    both at about twelve moments.  The first slice also runs the 2-shard
    comparison, outside its timed part."""
    rows = sim_cells(workload, args.seed)
    first_path, cells_path = work / "first.tsv", work / "cells.tsv"
    write_table(first_path, rows)
    write_table(cells_path, [r for r in rows if r[0] == "cell"])
    slices = []
    start = time.monotonic()
    while not slices or time.monotonic() - start < args.seconds:
        left = args.seconds - (time.monotonic() - start)
        out_path = work / f"slice{len(slices)}.json"
        child = Child([harness, "sim", cells_path if slices else first_path,
                       out_path, max(0.0, min(SLICE_SECONDS, left)),
                       args.trace], work / "harness.log")
        data = json.loads(out_path.read_text())
        data["setup_s"] = (data["setup_done_ns"] - child.spawn_ns) / 1e9
        data["rss_mb"] = child.rss_mb
        slices.append(data)
    data = slices[0]
    cells = data["cells"]
    rounds = [r for s in slices for r in s["rounds"]]
    for c in cells:
        rec = c.pop("record")
        c.update(config=rec["config"], rho=rec["rho"], mu_s=rec["mu_s"])
        c["lambda"] = rec["lambda"]
        c["result"] = dict(rec["result"], status=rec["status"],
                           **rec["kernel"])

    failures = checks.sim_status_ok(cells) + \
        checks.rounds_identical(rounds)
    curves = {}
    for c in cells:
        failures += checks.littles_law(c) + checks.throughput(c)
        curves.setdefault(f"{c['config']} ratio={c['ratio']}", []).append(
            (c["rho"], c["result"]["normalized_delay"]))
        if c["network"] == "SBUS":
            failures += checks.sbus_exact(c)
        elif c["rho"] <= 0.1 + 1e-9:
            failures += checks.light_load(c)
    failures += checks.increasing(curves)
    failures += checks.shards_identical(data["shard_checks"])

    # Every round reruns the same cells with the same seeds.
    failed = sum(1 for c in cells if c["result"]["status"] != "ok") * \
        len(rounds)
    attempted = len(cells) * len(rounds)
    result_digest = digest({"cells": cells,
                            "shard_checks": data["shard_checks"]})

    untraced = [r for r in rounds if not r["traced"]]
    if not args.trace:
        metrics = {
            "wall_s": (per_cell_min(untraced, "wall_ns"), "s"),
            "cpu_s": (per_cell_min(untraced, "cpu_ns"), "s"),
            "setup_s": (min(at_full_clock(s["setup_s"], s["setup_clock_ns"])
                            for s in slices), "s"),
            "peak_rss_mb": (max(s["rss_mb"] for s in slices), "MB"),
        }
        return metrics, attempted, failed, failures, result_digest

    spans = span_index(data["spans"])
    traced = [r for r in rounds if r["traced"]]
    run_spans = spans.get("rsin.SystemSimulation::run", [])
    one_round = run_spans[:len(cells)]
    run_s = per_cell_min(traced, "wall_ns")
    layers = sim_layers(one_round, run_s)
    # The set-up's makeSystem calls (no parent span), fastest slice.
    layers["rsin.make_system_s"] = min(
        sum(s["end_ns"] - s["start_ns"] for s in sl["spans"]
            if s["name"] == "rsin.makeSystem" and s["parent"] == 0)
        for sl in slices) / 1e9
    # The first round of each process runs the systems its set-up
    # built, on another CPU; the traced rounds build theirs in place.
    in_place = [r for s in slices for r in s["rounds"][1:]
                if not r["traced"]]
    layers["trace.overhead_share"] = \
        run_s / per_cell_min(in_place, "wall_ns") - 1.0
    save_trace(workload, args.seed, data["spans"])
    return (layer_metrics(layers), attempted, failed, failures,
            result_digest)


def layer_metrics(values):
    """Every per-layer metric with its unit; a layer the workload does
    not cross reads 0."""
    return {k: (values.get(k, 0.0), unit) for k, unit in PER_LAYER.items()}


def save_trace(workload, seed, spans):
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": spans}))
    print(f"trace: {len(spans)} spans written to {path.relative_to(ROOT)}")


# ----------------------------------------------------- campaign workload

def campaign_spec():
    c = CAMPAIGN
    step = (c["rho_max"] - c["rho_min"]) / (c["steps"] - 1)
    return {"configs": c["configs"], "ratios": c["ratios"],
            "replications": c["replications"],
            "rhos": [c["rho_min"] + i * step for i in range(c["steps"])]}


def campaign_args(seed):
    c = CAMPAIGN
    return [";".join(c["configs"]),
            "--ratios", ",".join(str(r) for r in c["ratios"]),
            "--rho-min", c["rho_min"], "--rho-max", c["rho_max"],
            "--steps", c["steps"], "--tasks", c["tasks"],
            "--replications", c["replications"], "--seed", seed,
            "--jobs", c["jobs"]]


def read_ledger(ledger):
    lines = []
    for seg in sorted(ledger.glob("seg-*.jsonl")):
        lines += seg.read_text().splitlines()
    return checks.parse_ledger(lines)


def run_campaign(args, harness, campaign, work):
    spec = campaign_spec()
    base = [campaign] + campaign_args(args.seed)
    runs, resumes = [], []
    failures = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    # Timed work: whole campaigns on fresh ledgers, each followed by
    # RESUMES set-ups (the same invocation on the finished ledger: plan,
    # replay, cache load and export, with no cell to run).  Another
    # campaign starts only if it is due to end within 30% over the run's
    # seconds, so a run makes two or three of them on this host.
    while True:
        ledger = work / f"ledger{len(runs)}"
        runs.append(Child(base + ["--ledger", ledger, "--out",
                                  ledger / "records.json"],
                          work / "campaign.log",
                          follow=(harness, work / "follow.txt")))
        export_text = (ledger / "records.json").read_text()
        export = json.loads(export_text)["records"]
        if len(runs) == 1:
            first_export = export
        failures += checks.records_match(first_export, export,
                                         f"campaign {len(runs)}")
        for _ in range(RESUMES):
            # The set-up and the clock loop after it share one CPU.
            os.sched_setaffinity(0, {cpus[len(resumes) % len(cpus)]})
            resumes.append(Child(base + ["--ledger", ledger, "--out",
                                         ledger / "resume.json"],
                                 work / "resume.log"))
            resumes[-1].clock_ns = float(
                Child([harness, "clock"], work / "clock.log").output)
            os.sched_setaffinity(0, cpus)
            failures += checks.resume_idempotent(
                resumes[-1].output, export_text,
                (ledger / "resume.json").read_text())
        elapsed = time.monotonic() - start
        if args.trace or elapsed + runs[-1].wall_s > 1.3 * args.seconds:
            break
        shutil.rmtree(ledger)

    # Independent solver values, outside the timed part.
    ref_rows = [("staged", "16/16x1x1 SBUS/2", rho, spec["ratios"][0])
                for rho in spec["rhos"]]
    ref_rows.append(("deep", CAMPAIGN_DEEP[0], CAMPAIGN_DEEP[1],
                     spec["ratios"][0]))
    ref_path = work / "reference.tsv"
    write_table(ref_path, ref_rows)
    Child([harness, "reference", ref_path, work / "reference.json"],
          work / "reference.log")
    refs = json.loads((work / "reference.json").read_text())

    ledger_records, torn = read_ledger(ledger)
    failures += torn
    failures += checks.campaign_complete(spec, ledger_records, export)
    failures += checks.sbus_matches_staged(
        export, [r for r in refs if r["kind"] == "staged"])
    failures += checks.chain_within_model_gap(export)
    failures += checks.increasing(checks.analytic_curves(export))
    failures += checks.deeper_solve(
        [r for r in refs if r["kind"] == "deep"][0], export)

    # Every round runs the same plan with the same seeds.
    planned = len(checks.planned_cells(spec))
    attempted = planned * len(runs)
    failed = (planned - sum(1 for r in export if r["status"] == "ok")) * \
        len(runs)
    result_digest = digest(sorted(
        json.dumps({k: v for k, v in r.items() if k != "wall_seconds"},
                   sort_keys=True) for r in export))

    if not args.trace:
        metrics = {
            "wall_s": (min(at_full_clock(r.wall_s, r.clock_ns)
                           for r in runs), "s"),
            "cpu_s": (min(at_full_clock(r.cpu_s, r.clock_ns)
                          for r in runs), "s"),
            "setup_s": (min(at_full_clock(r.wall_s, r.clock_ns)
                            for r in resumes), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
        }
        return metrics, attempted, failed, failures, result_digest

    # Traced in-process replay of the same plan.
    rledger = work / "replay"
    trace_path = work / "replay-trace.json"
    Child([harness, "replay"] + base[1:] +
          ["--ledger", rledger, "--out", rledger / "records.json",
           "--cache-from", ledger / "analysis_cache.txt",
           "--trace-out", trace_path], work / "replay.log")
    traced = json.loads(trace_path.read_text())
    replay_export = json.loads(
        (rledger / "records.json").read_text())["records"]
    failures += checks.records_match(export, replay_export,
                                     "traced replay")
    if traced["cache_mismatches"]:
        failures.append(f"{traced['cache_mismatches']} analytic cells "
                        f"served from the persisted cache differ from "
                        f"the direct solve")

    spans = span_index(traced["spans"])
    solves = spans.get("markov::solveStationary", [])
    dense = [s for s in solves if not s["attrs"]["sparse"]]
    sparse = [s for s in solves if s["attrs"]["sparse"]]
    sims = spans.get("rsin.simulate", [])
    layers = sim_layers(sims, total(sims))
    pool = spans["exec.runCells"][0]
    busy = total(spans.get("exec.cell", []))
    sparse_levels = total(sparse, "levels")
    layers.update({
        "markov.sbus_solve_s": total(spans.get("markov.analyzeSbus", [])),
        "markov.dense_solve_s": total(dense),
        "markov.sparse_solve_s": total(sparse),
        "markov.dense_levels": total(dense, "levels"),
        "markov.sparse_levels": sparse_levels,
        "markov.host_ms_per_sparse_level":
            total(sparse) * 1e3 / sparse_levels if sparse_levels else 0.0,
        "markov.max_truncation_bound":
            max((s["attrs"]["truncation_bound"] for s in solves),
                default=0.0),
        "markov.unconverged_cells":
            sum(1 for s in solves if not s["attrs"]["converged"]),
        "rsin.cache_hits": traced["cache_hits"],
        "rsin.cache_misses": traced["cache_misses"],
        "exec.main_thread_solve_s":
            total(spans["exec.main_thread_analytic"]),
        "exec.pool_busy_s": busy,
        "exec.pool_span_s": pool["dur"],
        "exec.worker_busy_share":
            busy / (pool["dur"] * pool["attrs"]["threads"]),
        "obs.ledger_append_s":
            total(spans.get("obs.LedgerWriter::append", [])),
        "obs.replay_s": total(spans.get("obs.replayLedger", [])),
        "obs.export_s": total(spans.get("obs.RunLog::writeFile", [])),
        "obs.ledger_bytes": sum(p.stat().st_size
                                for p in rledger.glob("seg-*.jsonl")),
        "obs.export_bytes": (rledger / "records.json").stat().st_size,
        "trace.overhead_share":
            traced["wall_ns"] / 1e9 / runs[0].wall_s - 1.0,
    })
    print(f"untraced campaign {runs[0].wall_s:.3f} s, traced replay "
          f"{traced['wall_ns'] / 1e9:.3f} s (host time)")
    save_trace("campaign", args.seed, traced["spans"])
    return (layer_metrics(layers), attempted, failed, failures,
            result_digest)


# ----------------------------------------------------------------- main

WORKLOADS = ("omega_sim", "sbus_many_nets", "campaign")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    harness, campaign = build()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    if args.workload == "campaign":
        metrics, attempted, failed, failures, result_digest = \
            run_campaign(args, harness, campaign, work)
    else:
        metrics, attempted, failed, failures, result_digest = \
            run_sim(args.workload, args, harness, work)

    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    print(f"statistics digest: {result_digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(f"cells attempted {attempted}, failed {failed}, checks "
          f"{'passed' if not failures else 'FAILED'}")
    if not failures:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
