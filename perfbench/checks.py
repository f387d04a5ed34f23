"""Output checks of the end-to-end benchmark.

Every check is a pure function over the program's outputs (parsed
JSON) and returns a list of failure messages; an empty list is a pass.
Each one either computes the expected value apart from the program or
tests a property the method must have.  test_checks.py shows that each
one fails on a perturbed input.
"""

import json
import math

# Relative gap between the lumped XBAR/OMEGA chains and simulation on
# the paper's rho grid (docs/PERF.md, LD-QBD section).
CHAIN_MODEL_GAP = 0.09

# Half-widths reported by the simulator are 95% intervals (1.96
# sigma), but across seeds the delay spreads wider than they say: at
# rho 0.1 only 1-10% of the tasks wait (sd 0.18 against a mean relative
# half-width of 0.29 for 64/1x64x64 OMEGA/1 at ratio 0.1), and the
# campaign's chain cells came within 0.9 of a 1.5-half-width band over
# 40 seeds.  Checks against a reference use 3 half-widths.
CI_FACTOR = 3.0


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a - b)


def sim_status_ok(cells):
    """Every simulated cell measured its full quota."""
    return [f"{c['config']} rho={c['rho']:.2f} ratio={c['ratio']}: "
            f"status {c['result']['status']}"
            for c in cells if c["result"]["status"] != "ok"]


def rounds_identical(rounds):
    """Every round reran every cell with the same seed: the result
    digests must agree bit for bit."""
    failures = []
    for i in range(len(rounds[0]["hash"])):
        seen = {r["hash"][i] for r in rounds}
        if len(seen) != 1:
            failures.append(f"cell {i}: {len(seen)} distinct results "
                            f"over {len(rounds)} reruns")
    return failures


def littles_law(cell):
    """Little's law, E[Nq] = p * lambda * d, from two independent
    estimators: the time-averaged queue length (over the whole run)
    and the mean delay of the measured tasks (after warm-up).

    The queue average also covers the warm-up, whose share w of the
    completions is a delay sample of its own (low after the empty
    start, or high when a burst lands in it), and the tasks still
    queued when the run stops, which near saturation can be a long busy
    period's worth.  The band is w, plus 3% for arrival-count noise,
    plus two of the delay's relative half-widths.  Over 630 cells of 40
    seeds the largest gap, +0.39 for 16/1x16x16 OMEGA/2 at ratio 0.1 and
    rho 0.9, used 58% of its band."""
    res = cell["result"]
    expected = cell["processors"] * cell["lambda"] * res["mean_delay"]
    if expected <= 0:
        return [f"{cell['config']} rho={cell['rho']:.2f}: no delay"]
    gap = res["time_avg_queue"] / expected - 1.0
    warm = cell["warmup_tasks"] / res["completed_tasks"]
    band = warm + 0.03 + 2.0 * res["delay_half_width"] / res["mean_delay"]
    if abs(gap) > band:
        return [f"{cell['config']} rho={cell['rho']:.2f} "
                f"ratio={cell['ratio']}: time-averaged queue "
                f"{res['time_avg_queue']:.6g} vs p*lambda*d "
                f"{expected:.6g} (gap {gap:+.3f}, allowed {band:.3f})"]
    return []


def throughput(cell):
    """Completions per simulated time equal the offered rate p*lambda.
    The run stops with about p*lambda*W tasks still in the system (W
    the mean response time), so the count is compared with
    p*lambda*(T - W); the tolerance is four Poisson standard
    deviations."""
    res = cell["result"]
    rate = cell["processors"] * cell["lambda"]
    expected = rate * (res["simulated_time"] - res["mean_response"])
    if expected <= 0:
        return [f"{cell['config']}: empty run"]
    gap = res["completed_tasks"] / expected - 1.0
    tol = 4.0 / math.sqrt(expected)
    if abs(gap) > tol:
        return [f"{cell['config']} rho={cell['rho']:.2f} "
                f"ratio={cell['ratio']}: {res['completed_tasks']} "
                f"completions vs {expected:.1f} offered "
                f"(gap {gap:+.4f}, allowed {tol:.4f})"]
    return []


def light_load(cell, model_gap=0.10):
    """At rho 0.1 a multistage network rarely blocks, so the simulated
    delay must match the light-load reduction (each processor privately
    connected to all k*r resources) within the reduction's gap plus the
    run's confidence interval."""
    res = cell["result"]
    ref = cell["reference"]["normalized_delay"]
    rel_ci = CI_FACTOR * res["delay_half_width"] / res["mean_delay"]
    gap = _rel(res["normalized_delay"], ref)
    if gap > model_gap + rel_ci:
        return [f"{cell['config']} ratio={cell['ratio']}: light-load "
                f"delay {res['normalized_delay']:.6g} vs reduction "
                f"{ref:.6g} (gap {gap:.3f}, allowed "
                f"{model_gap + rel_ci:.3f})"]
    return []


def sbus_exact(cell):
    """SBUS partitions are independent and identical, so the simulated
    delay must match the exact per-partition chain within the run's
    confidence interval.  With 1024 partitions each measures only about
    ten tasks from an empty start, a bias the interval ignores; at
    10,000 tasks it reached 3.5 half-widths at rho 0.3 and grows with
    rho, so the grid stops at 0.2 (2.2 at most over 40 seeds) and the
    band is 3 half-widths."""
    res = cell["result"]
    ref = cell["reference"]["queueing_delay"]
    tol = CI_FACTOR * res["delay_half_width"]
    if abs(res["mean_delay"] - ref) > tol:
        return [f"{cell['config']} rho={cell['rho']:.2f}: delay "
                f"{res['mean_delay']:.6g} vs exact {ref:.6g} "
                f"(off by {abs(res['mean_delay'] - ref):.4g}, "
                f"allowed {tol:.4g})"]
    return []


def increasing(curves):
    """Delay increases with rho along every curve.  @p curves maps a
    curve name to (rho, delay) pairs."""
    failures = []
    for name, points in sorted(curves.items()):
        pts = sorted(points)
        for (r0, d0), (r1, d1) in zip(pts, pts[1:]):
            if not d1 > d0:
                failures.append(f"{name}: delay {d1:.6g} at rho {r1:.2f}"
                                f" not above {d0:.6g} at rho {r0:.2f}")
    return failures


def shards_identical(shard_checks):
    """A partitioned SBUS run is bit-identical to the serial calendar."""
    failures = []
    for s in shard_checks:
        if s["shards_used"] != 2:
            failures.append(f"{s['config']}: ran on {s['shards_used']} "
                            f"shards, not 2")
        if s["serial"] != s["sharded"]:
            failures.append(f"{s['config']} rho={s['rho']:.2f}: 2-shard "
                            f"result {s['sharded']} differs from serial "
                            f"{s['serial']}")
    return failures


# ------------------------------------------------------------ campaign

def planned_cells(spec):
    """The cells a campaign must produce, computed from its spec alone:
    every replication of every grid point, plus one analytic cell per
    grid point (every configuration of the benchmark's spec has an
    exact model)."""
    cells = []
    for cfg in spec["configs"]:
        for ratio in spec["ratios"]:
            for i in range(len(spec["rhos"])):
                for rep in range(spec["replications"]):
                    cells.append(("run", cfg, ratio, i, rep))
                cells.append(("analytic", cfg, ratio, i, -1))
    return sorted(cells)


def record_identity(rec, rhos):
    idx = min(range(len(rhos)), key=lambda i: abs(rhos[i] - rec["rho"]))
    return (rec["kind"], rec["config"], rec["mu_s"] / rec["mu_n"], idx,
            rec["replication"])


def _identities(records, spec):
    out = []
    for rec in records:
        kind, cfg, ratio, idx, rep = record_identity(rec, spec["rhos"])
        ratio = min(spec["ratios"], key=lambda r: abs(r - ratio))
        out.append((kind, cfg, ratio, idx, rep))
    return sorted(out)


def parse_ledger(lines):
    """Records of a ledger segment's lines; a torn line is an error."""
    records, failures = [], []
    for n, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            records.append((entry["key"], entry["record"]))
        except (ValueError, KeyError):
            failures.append(f"ledger line {n + 1} does not parse")
    return records, failures


def campaign_complete(spec, ledger_records, export_records):
    """Every planned cell is in the ledger and in the export exactly
    once, with status ok."""
    failures = []
    want = planned_cells(spec)
    keys = [k for k, _ in ledger_records]
    if len(set(keys)) != len(keys):
        failures.append(f"ledger repeats {len(keys) - len(set(keys))} "
                        f"keys")
    for label, records in (("ledger", [r for _, r in ledger_records]),
                           ("export", export_records)):
        got = _identities(records, spec)
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = len(got) - len(set(got))
            failures.append(f"{label}: {len(got)} cells for "
                            f"{len(want)} planned ({len(missing)} "
                            f"missing, {extra} repeated)")
        bad = [r for r in records if r["status"] != "ok"]
        if bad:
            failures.append(f"{label}: {len(bad)} cells not ok")
    return failures


def staged_tolerance(rho):
    """Band within which the paper's stage recursion reproduces the
    exact delay: its double-precision cancellation wall makes it read
    low at high rho (tests/test_markov.cpp, SbusSolverAgreement)."""
    return 1e-3 if rho <= 0.3 else 0.15 if rho <= 0.5 else 0.42


def sbus_matches_staged(export_records, staged):
    """SBUS analytic cells (matrix-geometric solver) match Eq. (2)
    solved by stages, an independent method; the stage solution
    approaches the exact delay from below."""
    failures = []
    ref = {(s["config"], round(s["rho"], 9)): s["solution"]
           for s in staged}
    for rec in export_records:
        if rec["kind"] != "analytic" or "SBUS" not in rec["config"]:
            continue
        sol = ref.get((rec["config"], round(rec["rho"], 9)))
        if sol is None:
            failures.append(f"{rec['curve']} rho={rec['rho']:.2f}: no "
                            f"staged reference")
            continue
        d = rec["result"]["mean_delay"]
        tol = staged_tolerance(rec["rho"])
        if _rel(sol["queueing_delay"], d) > tol or \
                sol["queueing_delay"] > d * 1.05:
            failures.append(f"{rec['curve']} rho={rec['rho']:.2f}: "
                            f"delay {d:.6g} vs staged "
                            f"{sol['queueing_delay']:.6g} (allowed "
                            f"{tol:.0e} relative)")
    return failures


def chain_within_model_gap(export_records):
    """Each XBAR/OMEGA chain cell lies within the chain's documented
    model gap plus the confidence interval of the simulation cells of
    the same grid point."""
    failures = []
    sims = {}
    for rec in export_records:
        if rec["kind"] == "run":
            sims.setdefault((rec["config"], round(rec["rho"], 9)),
                            []).append(rec["result"])
    for rec in export_records:
        if rec["kind"] != "analytic" or "SBUS" in rec["config"]:
            continue
        runs = sims.get((rec["config"], round(rec["rho"], 9)), [])
        if not runs:
            failures.append(f"{rec['curve']}: no simulation cells")
            continue
        mean = sum(r["mean_delay"] for r in runs) / len(runs)
        hw = math.sqrt(sum(r["delay_half_width"] ** 2
                           for r in runs)) / len(runs)
        d = rec["result"]["mean_delay"]
        tol = CHAIN_MODEL_GAP * d + CI_FACTOR * hw
        if abs(d - mean) > tol:
            failures.append(f"{rec['curve']} rho={rec['rho']:.2f}: chain"
                            f" {d:.6g} vs simulated {mean:.6g} (allowed "
                            f"{tol:.4g})")
    return failures


def analytic_curves(export_records):
    curves = {}
    for rec in export_records:
        if rec["kind"] == "analytic":
            curves.setdefault(rec["curve"], []).append(
                (rec["rho"], rec["result"]["normalized_delay"]))
    return curves


# Relative change per depth doubling at which the LD-QBD solver stops
# (markov::LdQbdOptions::relTolerance): the iterative solve itself is
# accurate to about this, apart from truncation.
SOLVER_TOLERANCE = 1e-8


def deeper_solve(deep, export_records):
    """A sparse chain cell re-solved at twice the depth moves by no
    more than the truncation bound its own solve reported (plus the
    solver's own tolerance, which the bound does not cover); and the
    re-solve's base answer is the one the campaign exported."""
    failures = []
    base, twice = deep["solution"], deep["twice_depth"]
    match = [r for r in export_records
             if r["kind"] == "analytic" and r["config"] == deep["config"]
             and abs(r["rho"] - deep["rho"]) < 1e-9]
    if len(match) != 1:
        return [f"{deep['config']} rho={deep['rho']}: not exported once"]
    if match[0]["result"]["normalized_delay"] != base["normalized_delay"]:
        failures.append(f"{deep['config']}: campaign exported "
                        f"{match[0]['result']['normalized_delay']!r}, "
                        f"direct solve gives "
                        f"{base['normalized_delay']!r}")
    if deep["backend"] != "sparse":
        failures.append(f"{deep['config']}: solved by {deep['backend']},"
                        f" not the sparse path")
    moved = _rel(twice["normalized_delay"], base["normalized_delay"])
    if not moved <= base["truncation_bound"] + SOLVER_TOLERANCE:
        failures.append(f"{deep['config']} rho={deep['rho']}: twice the "
                        f"depth ({twice['levels_used']} levels) moves the "
                        f"delay by {moved:.3g}, bound "
                        f"{base['truncation_bound']:.3g}")
    return failures


def records_section(export_text):
    """The records array of an export, as bytes on disk."""
    at = export_text.find('"records"')
    return export_text[at:] if at >= 0 else ""


def resume_idempotent(resume_stdout, first_export, resume_export):
    """A resume of a finished ledger runs no cell and re-exports the
    same records byte for byte."""
    failures = []
    if " 0 to run" not in resume_stdout:
        failures.append("resume ran cells: " +
                        resume_stdout.strip().splitlines()[0]
                        if resume_stdout.strip() else "resume: no output")
    a, b = records_section(first_export), records_section(resume_export)
    if not a or a != b:
        failures.append("resume export differs from the first export")
    return failures


def records_match(export_records, other_records, label):
    """Another computation of the campaign (a second invocation, or the
    traced in-process replay) gave the same records, apart from wall
    times."""
    def strip(rec):
        rec = dict(rec)
        rec.pop("wall_seconds", None)
        return json.dumps(rec, sort_keys=True)
    a = sorted(strip(r) for r in export_records)
    b = sorted(strip(r) for r in other_records)
    if a != b:
        diff = len(set(a) ^ set(b))
        return [f"{label} differs from the first campaign in {diff} "
                f"records"]
    return []
