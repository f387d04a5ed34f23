#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks: each check passes on
outputs the program produced and fails on a perturbed copy (a delay
scaled by 1.2, a dropped ledger line, a cell counted twice, a
non-monotone curve, ...).

    python3 perfbench/test_checks.py
"""

import copy
import json
import unittest

import checks

# Cells as the harness reported them (16/1x16x16 OMEGA/2 at 5,000 and
# 10,000 tasks; 4096/1024x1x1 SBUS/2 at 40,000 tasks), trimmed to the
# fields checked.
OMEGA_LIGHT = {
    "config": "16/1x16x16 OMEGA/2", "network": "OMEGA", "processors": 16,
    "ratio": 0.1, "rho": 0.1, "lambda": 0.016666666666666666,
    "warmup_tasks": 500,
    "result": {"status": "ok", "mean_delay": 0.016625402104128825,
               "delay_half_width": 0.0038604449452577377,
               "normalized_delay": 0.0016625402104128825,
               "mean_response": 10.84033381527948,
               "time_avg_queue": 0.004487733405164463,
               "simulated_time": 20427.571622754975,
               "completed_tasks": 5500},
    "reference": {"queueing_delay": 0.016949152542372843,
                  "normalized_delay": 0.0016949152542372844},
}
OMEGA_MID = {
    "config": "16/1x16x16 OMEGA/2", "network": "OMEGA", "processors": 16,
    "ratio": 10, "rho": 0.5, "lambda": 0.47619047619047616,
    "warmup_tasks": 1000,
    "result": {"status": "ok", "mean_delay": 0.9186993572994563,
               "delay_half_width": 0.09219847737492849,
               "normalized_delay": 9.186993572994563,
               "mean_response": 2.017906556663523,
               "time_avg_queue": 7.009592491243487,
               "simulated_time": 1432.661634777478,
               "completed_tasks": 11000},
}
SBUS = {
    "config": "4096/1024x1x1 SBUS/2", "network": "SBUS",
    "processors": 4096, "ratio": 0.1, "rho": 0.3,
    "lambda": 0.014285714285714285, "warmup_tasks": 4000,
    "result": {"status": "ok", "mean_delay": 1.2021729430485408,
               "delay_half_width": 0.048363, "normalized_delay": 0.120217},
    "reference": {"queueing_delay": 1.1603358054436623},
}


def scaled(cell, field, factor):
    out = copy.deepcopy(cell)
    out["result"][field] *= factor
    return out


class SimulationChecks(unittest.TestCase):
    def test_status(self):
        self.assertEqual(checks.sim_status_ok([OMEGA_MID]), [])
        bad = copy.deepcopy(OMEGA_MID)
        bad["result"]["status"] = "saturated"
        self.assertTrue(checks.sim_status_ok([OMEGA_MID, bad]))

    def test_rounds_identical(self):
        rounds = [{"hash": ["a1", "b2"]}, {"hash": ["a1", "b2"]}]
        self.assertEqual(checks.rounds_identical(rounds), [])
        rounds.append({"hash": ["a1", "b3"]})
        self.assertTrue(checks.rounds_identical(rounds))

    def test_littles_law(self):
        for cell in (OMEGA_LIGHT, OMEGA_MID):
            self.assertEqual(checks.littles_law(cell), [])
        # The band allows the warm-up share (9%), 3% and two relative
        # half-widths: 32% for this cell.
        self.assertTrue(checks.littles_law(
            scaled(OMEGA_MID, "time_avg_queue", 1.5)))
        self.assertTrue(checks.littles_law(
            scaled(OMEGA_MID, "mean_delay", 1.5)))

    def test_throughput(self):
        self.assertEqual(checks.throughput(OMEGA_MID), [])
        self.assertTrue(checks.throughput(
            scaled(OMEGA_MID, "completed_tasks", 1.1)))
        self.assertTrue(checks.throughput(
            scaled(OMEGA_MID, "simulated_time", 1.2)))

    def test_light_load(self):
        # The interval of a rho 0.1 run is wide (few tasks wait), so the
        # check resolves a doubled delay, not a 20% one.
        self.assertEqual(checks.light_load(OMEGA_LIGHT), [])
        self.assertTrue(checks.light_load(
            scaled(OMEGA_LIGHT, "normalized_delay", 2.0)))

    def test_sbus_exact(self):
        self.assertEqual(checks.sbus_exact(SBUS), [])
        self.assertTrue(checks.sbus_exact(scaled(SBUS, "mean_delay", 1.2)))

    def test_increasing(self):
        curve = {"c": [(0.1, 0.5), (0.3, 0.9), (0.5, 2.0)]}
        self.assertEqual(checks.increasing(curve), [])
        curve["c"][1] = (0.3, 2.5)
        self.assertTrue(checks.increasing(curve))

    def test_shards_identical(self):
        good = {"config": "x", "rho": 0.2, "serial": "ab", "sharded": "ab",
                "shards_used": 2}
        self.assertEqual(checks.shards_identical([good]), [])
        self.assertTrue(checks.shards_identical(
            [dict(good, sharded="ac")]))
        self.assertTrue(checks.shards_identical(
            [dict(good, shards_used=1)]))


SPEC = {"configs": ["16/16x1x1 SBUS/2", "16/2x8x8 XBAR/2"],
        "ratios": [0.1], "rhos": [0.2, 0.5], "replications": 2}


def record(kind, config, rho, rep, delay, hw=0.0):
    suffix = " (analytic)" if kind == "analytic" else ""
    return {"curve": f"{config} ratio=0.1{suffix}", "config": config,
            "kind": kind, "rho": rho, "mu_n": 1, "mu_s": 0.1,
            "replication": rep, "status": "ok", "wall_seconds": 0.01,
            "result": {"mean_delay": delay, "normalized_delay": delay / 10,
                       "delay_half_width": hw}}


def export():
    recs = []
    for cfg in SPEC["configs"]:
        for rho, d in zip(SPEC["rhos"], (0.4, 2.7)):
            recs.append(record("analytic", cfg, rho, -1, d))
            for rep, wobble in enumerate((0.98, 1.03)):
                recs.append(record("run", cfg, rho, rep, d * wobble,
                                   0.02 * d))
    return recs


def ledger_lines(records):
    return [json.dumps({"key": f"k{i}", "crc32": "0", "record": r})
            for i, r in enumerate(records)]


class CampaignChecks(unittest.TestCase):
    def test_complete(self):
        recs = export()
        ledger, torn = checks.parse_ledger(ledger_lines(recs))
        self.assertEqual(torn, [])
        self.assertEqual(checks.campaign_complete(SPEC, ledger, recs), [])
        # A dropped ledger line.
        self.assertTrue(checks.campaign_complete(SPEC, ledger[1:], recs))
        # A cell counted twice in the export.
        self.assertTrue(checks.campaign_complete(
            SPEC, ledger, recs + [recs[3]]))
        # A cell that did not end ok.
        bad = copy.deepcopy(recs)
        bad[2]["status"] = "truncated"
        self.assertTrue(checks.campaign_complete(SPEC, ledger, bad))

    def test_torn_ledger_line(self):
        lines = ledger_lines(export())
        lines[4] = lines[4][:40]
        self.assertTrue(checks.parse_ledger(lines)[1])

    def test_sbus_matches_staged(self):
        recs = export()
        staged = [{"config": r["config"], "rho": r["rho"],
                   "solution": {"queueing_delay":
                                r["result"]["mean_delay"] * 0.9999}}
                  for r in recs
                  if r["kind"] == "analytic" and "SBUS" in r["config"]]
        self.assertEqual(checks.sbus_matches_staged(recs, staged), [])
        recs[0]["result"]["mean_delay"] *= 1.2
        self.assertTrue(checks.sbus_matches_staged(recs, staged))

    def test_chain_within_model_gap(self):
        recs = export()
        self.assertEqual(checks.chain_within_model_gap(recs), [])
        for r in recs:
            if r["kind"] == "analytic" and "XBAR" in r["config"]:
                r["result"]["mean_delay"] *= 1.2
        self.assertTrue(checks.chain_within_model_gap(recs))

    def test_analytic_increasing(self):
        recs = export()
        self.assertEqual(checks.increasing(checks.analytic_curves(recs)),
                         [])
        recs[0]["result"]["normalized_delay"] = 10.0
        self.assertTrue(checks.increasing(checks.analytic_curves(recs)))

    def test_deeper_solve(self):
        recs = export()
        xbar = [r for r in recs if r["kind"] == "analytic"
                and "XBAR" in r["config"]][0]
        deep = {"config": xbar["config"], "rho": xbar["rho"],
                "backend": "sparse",
                "solution": {"normalized_delay":
                             xbar["result"]["normalized_delay"],
                             "truncation_bound": 1e-6},
                "twice_depth": {"normalized_delay":
                                xbar["result"]["normalized_delay"] *
                                (1 + 1e-7), "levels_used": 16}}
        self.assertEqual(checks.deeper_solve(deep, recs), [])
        moved = copy.deepcopy(deep)
        moved["twice_depth"]["normalized_delay"] *= 1.001
        self.assertTrue(checks.deeper_solve(moved, recs))
        other = copy.deepcopy(deep)
        other["solution"]["normalized_delay"] *= 1.2
        self.assertTrue(checks.deeper_solve(other, recs))

    def test_resume_idempotent(self):
        text = json.dumps({"sweep": {"cells_done": 12},
                           "records": export()}, indent=2)
        again = text.replace('"cells_done": 12', '"cells_done": 0')
        out = "campaign: 12 cells, 12 done, 0 tainted, 0 torn, 0 to run\n"
        self.assertEqual(checks.resume_idempotent(out, text, again), [])
        self.assertTrue(checks.resume_idempotent(
            out.replace(" 0 to run", " 3 to run"), text, again))
        self.assertTrue(checks.resume_idempotent(
            out, text, again.replace('"replication": 1', '"replication": 7',
                                     1)))

    def test_records_match(self):
        recs = export()
        replay = copy.deepcopy(recs)
        for r in replay:
            r["wall_seconds"] = 0.5
        self.assertEqual(checks.records_match(recs, replay, "replay"), [])
        replay[5]["result"]["mean_delay"] *= 1.2
        self.assertTrue(checks.records_match(recs, replay, "replay"))


if __name__ == "__main__":
    unittest.main()
