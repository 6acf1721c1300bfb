#!/usr/bin/env python3
"""Self-test of perfbench/run.py: aggregation, metric names and units,
fingerprint checks and the strict command lines. Only the runner's
command-line test needs a build; it is skipped until run.py has built.

    python3 perfbench/test_run.py
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# The counters a runner result carries (runner.cc readCounters).
RUNNER_COUNTS = [
    "sim.events", "sim.callback_pool_peak", "sim.squashed_entries",
    "parallel.windows", "parallel.cross_events", "parallel.mailbox_spills",
    "scheduler.events_routed", "scheduler.coalesced", "scheduler.migrations",
    "scheduler.rebalances", "fpc.events_handled", "fpc.fpu_passes",
    "fpc.evictions", "memory.events", "memory.cache_hits",
    "memory.cache_misses", "memory.swap_ins", "dram.requests", "dram.bytes",
    "rx.packets_parsed", "rx.drops", "tx.segments", "tx.retransmits",
    "host.commands", "host.completions", "pcie.h2d_bytes", "pcie.d2h_bytes",
    "cpu.busy_cycles", "link.packets", "link.bytes", "link.fault_drops",
    "switch.forwarded", "switch.dropped", "switch.route_misses",
    "load.issued", "load.completed", "load.peak_backlog",
]


def fake_record(window_s=1.0, fingerprint="00000000000000aa", ledger="ok",
                profiled=False, workers=1):
    """A runner result with every field run.py reads."""
    counts = {name: 10 for name in RUNNER_COUNTS}
    counts.update({"scheduler.coalesced": 5, "memory.cache_hits": 3,
                   "memory.cache_misses": 1, "tx.retransmits": 1})
    prof = {}
    if profiled:
        cats = {c for group in run.PROF_GROUPS.values() for c in group}
        prof = {cat: [int(window_s * 1e8), 7] for cat in cats}
    return {
        "workers": workers,
        "phase": {"build_s": 0.1, "establish_s": 0.2, "window_s": window_s,
                  "drain_s": 0.0, "teardown_s": 0.05},
        "run_s": 0.35 + window_s,
        "sim_window_us": 1000.0,
        "mem": {"rss_window_start_mb": 10.0, "rss_window_end_mb": 12.5,
                "peak_rss_mb": 13.0},
        "counts": counts,
        "outputs": {"end_tick": 1},
        "fingerprint": fingerprint,
        "ledger": ledger,
        "prof": prof,
        "worker_ns": {"busy": int(window_s * 4e8), "idle": 0,
                      "barrier": int(window_s * 1e8)},
    }


class Aggregation(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        s = run.summarize(values)
        self.assertEqual(s["median"], 3.0)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertEqual(s["n"], 5)
        self.assertEqual([s["q1"], s["median"], s["q3"]],
                         statistics.quantiles(values, n=4))

    def test_single_sample_has_no_spread(self):
        s = run.summarize([2.5])
        self.assertEqual((s["median"], s["q1"], s["q3"]), (2.5, 2.5, 2.5))

    def test_end_to_end_metrics_are_medians_over_runs(self):
        runs = [fake_record(window_s=w) for w in (1.0, 2.0, 4.0)]
        table = run.metric_table(run.end_to_end_samples(runs),
                                 run.END_TO_END)
        self.assertEqual(set(table), set(run.END_TO_END))
        self.assertAlmostEqual(table["setup_s"]["median"], 0.3)
        self.assertAlmostEqual(table["sim_us_per_wall_s"]["median"], 500.0)
        self.assertAlmostEqual(table["run_s"]["median"], 2.35)

    def test_traced_runs_give_every_per_layer_metric(self):
        untraced = [fake_record(window_s=1.0, workers=2) for _ in range(3)]
        traced = [fake_record(window_s=1.5, profiled=True, workers=2)
                  for _ in range(3)]
        samples = run.per_layer_samples(untraced, traced)
        self.assertEqual(set(samples), set(run.PER_LAYER))
        table = run.metric_table(samples, run.PER_LAYER)
        self.assertAlmostEqual(table["trace.overhead_ratio"]["median"], 1.5)
        self.assertAlmostEqual(table["mem.rss_growth_mb"]["median"], 2.5)
        self.assertAlmostEqual(table["scheduler.coalesce_ratio"]["median"],
                               0.5)
        self.assertAlmostEqual(
            table["memory.tcb_cache_hit_ratio"]["median"], 0.75)
        # 20 categories x 0.1 window each, over 2 workers.
        cats = sum(len(g) for g in run.PROF_GROUPS.values())
        self.assertAlmostEqual(table["trace.coverage"]["median"],
                               cats * 0.1 / 2)
        self.assertAlmostEqual(table["parallel.busy_share"]["median"], 0.2)

    def test_untraced_runs_alone_leave_prof_metrics_out(self):
        samples = run.per_layer_samples([fake_record()], [])
        self.assertNotIn("prof.fpc_s", samples)
        self.assertNotIn("trace.coverage", samples)
        self.assertIn("sim.events", samples)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            self.bench = json.load(f)

    def test_benchmark_json_lists_the_metrics_run_py_reports(self):
        e2e = [(m["name"], m["unit"]) for m in self.bench["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        self.assertEqual(e2e, list(run.END_TO_END.items()))
        self.assertEqual(layers, list(run.PER_LAYER.items()))
        workloads = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(workloads, list(run.WORKLOADS))

    def test_names_and_units_are_well_formed(self):
        names = []
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in self.bench[group]:
                self.assertRegex(entry["name"], NAME)
                names.append(entry["name"])
                if "unit" in entry:
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class Fingerprints(unittest.TestCase):
    EXPECTED = {"echo_mesh": {"*": "aaaa"}, "kv_star": {"1": "bbbb"}}

    def test_recorded_value_must_match(self):
        ok, _ = run.check_fingerprint(self.EXPECTED, "kv_star", 1, "bbbb",
                                      None)
        self.assertTrue(ok)
        ok, note = run.check_fingerprint(self.EXPECTED, "kv_star", 1,
                                         "cccc", None)
        self.assertFalse(ok)
        self.assertIn("bbbb", note)

    def test_unseeded_workload_matches_for_every_seed(self):
        for seed in (0, 7, 2**64 - 1):
            ok, _ = run.check_fingerprint(self.EXPECTED, "echo_mesh", seed,
                                          "aaaa", None)
            self.assertTrue(ok)

    def test_unrecorded_seed_requires_runs_to_agree(self):
        ok, _ = run.check_fingerprint(self.EXPECTED, "kv_star", 9, "dddd",
                                      None)
        self.assertTrue(ok)
        ok, _ = run.check_fingerprint(self.EXPECTED, "kv_star", 9, "dddd",
                                      "dddd")
        self.assertTrue(ok)
        ok, _ = run.check_fingerprint(self.EXPECTED, "kv_star", 9, "eeee",
                                      "dddd")
        self.assertFalse(ok)

    def test_recorded_file_is_well_formed(self):
        expected = run.load_expected()
        self.assertEqual(set(expected), set(run.WORKLOADS))
        for table in expected.values():
            for key, value in table.items():
                self.assertTrue(key == "*" or key.isdigit(), key)
                self.assertRegex(value, r"^[0-9a-f]{16}$")

    def test_corrupted_fingerprint_fails_every_run_and_the_command(self):
        good = fake_record(fingerprint="1111111111111111")
        corrupted = {"bulk_stream": {"*": "2222222222222222"}}
        opts = run.parse_args(["--workload", "bulk_stream", "--seconds",
                               "1"])
        with mock.patch.object(run, "run_once",
                               return_value=(good, "")), \
                mock.patch.object(run, "build_all",
                                  return_value={"release": "x",
                                                "traced": "y"}), \
                mock.patch.object(run, "load_expected",
                                  return_value=corrupted), \
                mock.patch("sys.stdout"), mock.patch("sys.stderr"):
            attempted, failed, _ = run.run_workload(
                opts, "bulk_stream", {"release": "x"}, corrupted,
                time.monotonic(), 1)
            self.assertEqual(failed, attempted)
            self.assertGreaterEqual(attempted, run.MIN_RUNS)
            self.assertEqual(run.main(["--workload", "bulk_stream",
                                       "--seconds", "1"]), 1)

    def test_coverage_above_one_is_flagged(self):
        over = fake_record(profiled=True, workers=1)
        over["prof"]["event_queue"][0] = int(3e9)  # 3 s in a 1 s window
        opts = run.parse_args(["--workload", "kv_star", "--seconds", "1",
                               "--trace", "1"])
        with mock.patch.object(run, "run_once", return_value=(over, "")), \
                mock.patch("sys.stdout"), \
                mock.patch("sys.stderr") as stderr:
            run.run_workload(opts, "kv_star", {"release": "x",
                                               "traced": "y"},
                             {}, time.monotonic(), 1)
        printed = "".join(c.args[0] for c in stderr.write.call_args_list)
        self.assertIn("trace.coverage", printed)
        self.assertIn("exceeds 1.0", printed)

    def test_failed_ledger_fails_the_run(self):
        bad = fake_record(ledger="failed")
        opts = run.parse_args(["--workload", "kv_star", "--seconds", "1"])
        with mock.patch.object(run, "run_once", return_value=(bad, "")), \
                mock.patch("sys.stdout"), mock.patch("sys.stderr"):
            attempted, failed, metrics = run.run_workload(
                opts, "kv_star", {"release": "x"}, {}, time.monotonic(), 1)
        self.assertEqual(failed, attempted)
        self.assertEqual(metrics, {})


class CommandLine(unittest.TestCase):
    def rejects(self, *argv):
        with self.assertRaises(run.UsageError):
            run.parse_args(list(argv))

    def test_accepts_the_benchmark_command_line(self):
        opts = run.parse_args(["--workload", "kv_star", "--seed", "42",
                               "--seconds", "20", "--trace", "1"])
        self.assertEqual((opts["workload"], opts["seed"], opts["seconds"],
                          opts["trace"]), ("kv_star", 42, 20, True))

    def test_rejects_unknown_workload_or_flag(self):
        self.rejects("--workload", "typo")
        self.rejects("--workload", "echo_mesh", "--only", "x")
        self.rejects("--workload", "echo_mesh", "extra")
        self.rejects("--seed", "1")

    def test_rejects_malformed_numbers(self):
        for bad in ("abc", "12x", "-1", "+1", " 1", "1_0", "1.5", "",
                    "99999999999999999999"):
            self.rejects("--workload", "echo_mesh", "--seed", bad)
        self.rejects("--workload", "echo_mesh", "--seconds", "0")
        self.rejects("--workload", "echo_mesh", "--seconds", "601")
        self.rejects("--workload", "echo_mesh", "--trace", "2")
        self.rejects("--workload", "echo_mesh", "--seed", "1", "--seed", "2")
        self.rejects("--workload", "echo_mesh", "--seed")

    def test_bad_command_line_exits_2(self):
        with mock.patch("sys.stderr"):
            self.assertEqual(run.main(["--workload", "typo"]), 2)


RUNNER = run.BUILD_ROOT / "release" / "perfbench_runner"


@unittest.skipUnless(RUNNER.exists(), "runner not built yet: run run.py once")
class RunnerCommandLine(unittest.TestCase):
    def test_bad_input_exits_2_before_running(self):
        nproc = len(os.sched_getaffinity(0))
        for argv in ([], ["--workload", "typo"], ["--only", "x"],
                     ["--workload", "kv_star", "--seed"],
                     ["--workload", "kv_star", "--seed", "12x"],
                     ["--workload", "kv_star", "--seed", "-1"],
                     ["--workload", "kv_star", "--seed",
                      "99999999999999999999"],
                     ["--workload", "kv_star", "--threads", "0"],
                     ["--workload", "kv_star", "--threads", str(nproc + 1)],
                     ["--workload", "echo_mesh", "--threads", "1"]):
            proc = subprocess.run([str(RUNNER), *argv], capture_output=True,
                                  text=True, timeout=30)
            self.assertEqual(proc.returncode, 2, argv)
            self.assertIn("usage:", proc.stderr)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
