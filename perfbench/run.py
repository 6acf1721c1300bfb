#!/usr/bin/env python3
"""End-to-end benchmark of the F4T simulator.

Builds perfbench_runner twice from the sources in the checkout (an
untraced build mirroring the `release` preset, and a traced build with
only the self-profiler compiled in), then repeats whole workload runs,
each in its own process, for about --seconds seconds. Every run's
simulated outputs are checked; metrics are medians over the runs.

    python3 perfbench/run.py --workload echo_mesh|bulk_stream|kv_star|all
        [--seed N] [--seconds N] [--trace 0|1]

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(counts from the untraced build, prof.* from the traced build). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 when every run was correct, 1 when one failed, and 2
for a bad command line. See perfbench/NOTES.md.
"""

import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"
EXPECTED_FILE = BENCH_DIR / "expected.json"

WORKLOADS = ("echo_mesh", "bulk_stream", "kv_star")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
MIN_RUNS = 3
# Stop adding runs past this many seconds, so one invocation stays well
# inside its 180 s limit even on a slow machine.
RUN_CAP_SECONDS = 120
RUN_TIMEOUT_SECONDS = 170

# name -> unit. The order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_us_per_wall_s": "sim_us/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # benchmark phases
    "phase.build_s": "s",
    "phase.establish_s": "s",
    "phase.window_s": "s",
    "phase.drain_s": "s",
    "phase.teardown_s": "s",
    # process memory
    "mem.rss_window_start_mb": "MB",
    "mem.rss_growth_mb": "MB",
    # sim event queue
    "sim.events": "count",
    "sim.events_per_pkt": "events/pkt",
    "sim.wall_ns_per_event": "ns/event",
    "sim.wall_ns_per_pkt": "ns/pkt",
    "sim.callback_pool_peak": "count",
    "sim.squashed_entries": "count",
    "prof.event_queue_s": "s",
    "prof.event_queue_ns_per_event": "ns/event",
    # sim parallel executor
    "parallel.windows": "count",
    "parallel.wall_us_per_window": "us/window",
    "parallel.cross_events": "count",
    "parallel.mailbox_spills": "count",
    "parallel.busy_share": "share",
    "parallel.barrier_wait_share": "share",
    # core scheduler
    "scheduler.events_routed": "count",
    "scheduler.coalesce_ratio": "ratio",
    "scheduler.migrations": "count",
    "scheduler.rebalances": "count",
    "prof.scheduler_s": "s",
    "prof.scheduler_ns_per_routed": "ns/event",
    # core FPC + tcp FPU programs
    "fpc.events_handled": "count",
    "fpc.fpu_passes": "count",
    "fpc.evictions": "count",
    "prof.fpc_s": "s",
    "prof.fpc_ns_per_event": "ns/event",
    # core memory manager + mem
    "memory.events": "count",
    "memory.tcb_cache_hit_ratio": "ratio",
    "memory.swap_ins": "count",
    "dram.requests": "count",
    "dram.bytes": "B",
    "prof.memory_s": "s",
    "prof.memory_ns_per_event": "ns/event",
    # core RX parser + packet generator
    "rx.packets_parsed": "count",
    "rx.drops": "count",
    "tx.segments": "count",
    "tx.retransmit_ratio": "ratio",
    "prof.rx_parse_s": "s",
    "prof.packet_gen_s": "s",
    # core host interface + host + f4t runtime
    "host.commands": "count",
    "host.completions": "count",
    "pcie.h2d_bytes": "B",
    "pcie.d2h_bytes": "B",
    "cpu.busy_cycles": "cycles",
    "prof.host_complex_s": "s",
    "prof.host_complex_ns_per_cmd": "ns/cmd",
    # core timer wheel
    "prof.timer_wheel_s": "s",
    # net link + switch
    "link.packets": "count",
    "link.bytes": "B",
    "link.fault_drops": "count",
    "switch.forwarded": "count",
    "switch.dropped": "count",
    "switch.route_misses": "count",
    "prof.link_switch_s": "s",
    "prof.link_switch_ns_per_pkt": "ns/pkt",
    # load + apps
    "load.issued": "count",
    "load.completed": "count",
    "load.peak_backlog": "count",
    "prof.app_s": "s",
    # the traced run itself
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "share",
}

# prof.<name>_s -> the profiler categories it sums.
PROF_GROUPS = {
    "event_queue": ["event_queue"],
    "scheduler": ["scheduler"],
    "fpc": ["fpc_exec", "fpc_fpu_pass", "fpc_user_send", "fpc_user_recv",
            "fpc_user_connect", "fpc_user_close", "fpc_rx_segment",
            "fpc_timeout"],
    "memory": ["memory"],
    "rx_parse": ["rx_parse"],
    "packet_gen": ["packet_gen"],
    "host_complex": ["host_complex"],
    "timer_wheel": ["timer_wheel"],
    "link_switch": ["link_switch"],
    "app": ["app"],
}

# prof.<group>_ns_per_<op> -> (group, runner count it divides by)
PROF_PER_OP = {
    "prof.event_queue_ns_per_event": ("event_queue", "sim.events"),
    "prof.scheduler_ns_per_routed": ("scheduler", "scheduler.events_routed"),
    "prof.fpc_ns_per_event": ("fpc", "fpc.events_handled"),
    "prof.memory_ns_per_event": ("memory", "memory.events"),
    "prof.host_complex_ns_per_cmd": ("host_complex", "host.commands"),
    "prof.link_switch_ns_per_pkt": ("link_switch", "link.packets"),
}

USAGE = """\
usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds N]
                                [--trace 0|1]
  --workload  echo_mesh | bulk_stream | kv_star | all
  --seed      0..2^64-1 (default 1; only kv_star is seeded)
  --seconds   1..600, time to spend repeating runs (default 20)
  --trace     0: end-to-end metrics, 1: per-layer metrics (default 0)"""


class UsageError(Exception):
    pass


def parse_uint(text, flag, low, high):
    """Strict decimal: ASCII digits only, within [low, high]."""
    if not text or len(text) > 20 or not all("0" <= ch <= "9" for ch in text):
        raise UsageError(f"{flag}: not a whole number: {text!r}")
    value = int(text)
    if not low <= value <= high:
        raise UsageError(f"{flag}: {value} is outside {low}..{high}")
    return value


def parse_args(argv):
    values = {}
    flags = ("--workload", "--seed", "--seconds", "--trace")
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in flags:
            raise UsageError(f"unknown argument {flag!r}")
        if flag in values:
            raise UsageError(f"{flag} given twice")
        if i + 1 >= len(argv):
            raise UsageError(f"{flag} needs a value")
        values[flag] = argv[i + 1]
        i += 2
    if "--workload" not in values:
        raise UsageError("--workload is required")
    workload = values["--workload"]
    if workload not in WORKLOADS and workload != "all":
        raise UsageError(f"unknown workload {workload!r}")
    trace = values.get("--trace", "0")
    if trace not in ("0", "1"):
        raise UsageError(f"--trace: expected 0 or 1, got {trace!r}")
    return {
        "workload": workload,
        "seed": parse_uint(values.get("--seed", str(DEFAULT_SEED)),
                           "--seed", 0, 2**64 - 1),
        "seconds": parse_uint(values.get("--seconds", str(DEFAULT_SECONDS)),
                              "--seconds", 1, 600),
        "trace": trace == "1",
    }


# --- statistics -------------------------------------------------------------

def summarize(values):
    """Median and quartiles (statistics.quantiles, n=4) of the samples."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- fingerprints -------------------------------------------------------------

def load_expected():
    with open(EXPECTED_FILE) as f:
        return json.load(f)


def expected_fingerprint(expected, workload, seed):
    """The recorded fingerprint for (workload, seed), or None.

    An unseeded workload records one value under "*"."""
    table = expected.get(workload, {})
    return table.get("*", table.get(str(seed)))


def check_fingerprint(expected, workload, seed, fingerprint, first_seen):
    """(ok, note) for one run's fingerprint.

    Against the recorded value when there is one; otherwise every run of
    this invocation must agree with the first (determinism)."""
    recorded = expected_fingerprint(expected, workload, seed)
    if recorded is not None:
        if fingerprint == recorded:
            return True, "matches recorded"
        return False, f"expected {recorded}, got {fingerprint}"
    if first_seen is None or fingerprint == first_seen:
        return True, "not recorded for this seed; runs agree"
    return False, f"runs disagree: {first_seen} then {fingerprint}"


# --- building and running -----------------------------------------------------

VARIANTS = {
    "release": ["-DPERFBENCH_PROFILE=OFF"],
    "traced": ["-DPERFBENCH_PROFILE=ON"],
}


def build(variant, env):
    """Configure and build incrementally; returns the runner path."""
    build_dir = BUILD_ROOT / variant
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"] + VARIANTS[variant],
        check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_runner",
         "-j", str(min(4, len(os.sched_getaffinity(0))))],
        check=True, stdout=sys.stderr, env=env)
    return build_dir / "perfbench_runner"


def build_all():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return {variant: build(variant, env) for variant in VARIANTS}


def run_once(runner, workload, seed, timeout):
    """One workload run in its own process: (record or None, error)."""
    cmd = [str(runner), "--workload", workload, "--seed", str(seed)]
    try:
        # Any crash dump the simulator writes lands in the build tree.
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=BUILD_ROOT, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, (f"exit code {proc.returncode}: "
                      f"{proc.stderr.strip()[-400:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no JSON result on stdout"


def repeat(runner, opts, workload, budget, started, expected, state):
    """Repeat runs until @p budget seconds have passed and MIN_RUNS are
    done; check each run and return the correct ones. Counts attempts
    and failures in @p state."""
    records = []
    failures = 0
    begin = time.monotonic()
    while (len(records) + failures < MIN_RUNS
           or time.monotonic() - begin < budget):
        elapsed = time.monotonic() - started
        if elapsed > RUN_CAP_SECONDS and records:
            break
        state["attempted"] += 1
        record, error = run_once(runner, workload, opts["seed"],
                                 RUN_TIMEOUT_SECONDS - elapsed)
        if record is not None:
            ok, note = check_fingerprint(expected, workload, opts["seed"],
                                         record["fingerprint"],
                                         state["first_fingerprint"])
            state["first_fingerprint"] = (state["first_fingerprint"]
                                          or record["fingerprint"])
            state["fingerprint_note"] = note
            if not ok:
                error = "fingerprint mismatch: " + note
            elif record["ledger"] == "failed":
                error = "StreamOracle ledger check failed"
        if not error:
            records.append(record)
            continue
        state["failed"] += 1
        failures += 1
        print(f"perfbench: {workload} run failed: {error}", file=sys.stderr)
        if failures >= MIN_RUNS:
            break
    return records


# --- metrics ------------------------------------------------------------------

def end_to_end_samples(runs):
    return {
        "setup_s": [r["phase"]["build_s"] + r["phase"]["establish_s"]
                    for r in runs],
        "run_s": [r["run_s"] for r in runs],
        "sim_us_per_wall_s": [r["sim_window_us"] / r["phase"]["window_s"]
                              for r in runs],
        "peak_rss_mb": [r["mem"]["peak_rss_mb"] for r in runs],
    }


def prof_ns(record, group):
    return sum(record["prof"][cat][0] for cat in PROF_GROUPS[group])


def per_layer_samples(untraced, traced):
    """Per-layer metric -> samples. Counts and phases from untraced
    runs, prof.* and the executor shares from traced runs."""
    out = {}
    for phase in ("build_s", "establish_s", "window_s", "drain_s",
                  "teardown_s"):
        out["phase." + phase] = [r["phase"][phase] for r in untraced]
    out["mem.rss_window_start_mb"] = [r["mem"]["rss_window_start_mb"]
                                      for r in untraced]
    out["mem.rss_growth_mb"] = [r["mem"]["rss_window_end_mb"]
                                - r["mem"]["rss_window_start_mb"]
                                for r in untraced]
    # The runner names its counters after the metrics they feed.
    for name in PER_LAYER:
        if name in untraced[0]["counts"]:
            out[name] = [r["counts"][name] for r in untraced]

    def per_run(fn, runs=untraced):
        return [fn(r["counts"], r) for r in runs]

    out["sim.events_per_pkt"] = per_run(
        lambda c, r: ratio(c["sim.events"], c["link.packets"]))
    out["sim.wall_ns_per_event"] = per_run(
        lambda c, r: ratio(r["phase"]["window_s"] * 1e9, c["sim.events"]))
    out["sim.wall_ns_per_pkt"] = per_run(
        lambda c, r: ratio(r["phase"]["window_s"] * 1e9, c["link.packets"]))
    out["parallel.wall_us_per_window"] = per_run(
        lambda c, r: ratio(r["phase"]["window_s"] * 1e6,
                           c["parallel.windows"]))
    out["scheduler.coalesce_ratio"] = per_run(
        lambda c, r: ratio(c["scheduler.coalesced"],
                           c["scheduler.events_routed"]))
    out["memory.tcb_cache_hit_ratio"] = per_run(
        lambda c, r: ratio(c["memory.cache_hits"],
                           c["memory.cache_hits"] + c["memory.cache_misses"]))
    out["tx.retransmit_ratio"] = per_run(
        lambda c, r: ratio(c["tx.retransmits"], c["tx.segments"]))

    if traced:
        def capacity_ns(r):
            return r["phase"]["window_s"] * 1e9 * r["workers"]

        for group in PROF_GROUPS:
            out[f"prof.{group}_s"] = [prof_ns(r, group) / 1e9 for r in traced]
        for name, (group, count) in PROF_PER_OP.items():
            out[name] = per_run(
                lambda c, r, g=group, k=count: ratio(prof_ns(r, g), c[k]),
                traced)
        out["parallel.busy_share"] = [
            ratio(r["worker_ns"]["busy"], capacity_ns(r)) for r in traced]
        out["parallel.barrier_wait_share"] = [
            ratio(r["worker_ns"]["idle"] + r["worker_ns"]["barrier"],
                  capacity_ns(r)) for r in traced]
        out["trace.coverage"] = [
            ratio(sum(ns for ns, _ in r["prof"].values()), capacity_ns(r))
            for r in traced]
        out["trace.overhead_ratio"] = [ratio(
            statistics.median(r["phase"]["window_s"] for r in traced),
            statistics.median(r["phase"]["window_s"] for r in untraced))]
    return out


def metric_table(samples, units):
    return {name: dict(summarize(samples[name]), unit=unit)
            for name, unit in units.items() if samples.get(name)}


# --- reporting ----------------------------------------------------------------

def print_table(title, table):
    print(title)
    for name, m in table.items():
        detail = ""
        if m["n"] > 1:
            detail = f"   [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        print(f"  {name:<32} {m['median']:>16.6g} {m['unit']:<10}{detail}")


def run_workload(opts, workload, runners, expected, started, budget):
    state = {"attempted": 0, "failed": 0, "first_fingerprint": None,
             "fingerprint_note": ""}
    share = budget / 2 if opts["trace"] else budget
    untraced = repeat(runners["release"], opts, workload, share, started,
                      expected, state)
    traced = []
    if opts["trace"]:
        traced = repeat(runners["traced"], opts, workload, share, started,
                        expected, state)

    print(f"perfbench {workload} seed={opts['seed']}: {len(untraced)} "
          f"untraced + {len(traced)} traced runs, {state['failed']} of "
          f"{state['attempted']} failed")
    if untraced:
        first = untraced[0]
        outputs = " ".join(f"{k}={v}" for k, v in first["outputs"].items())
        print(f"  simulated outputs: {outputs}")
        print(f"  fingerprint {first['fingerprint']} "
              f"({state['fingerprint_note']}); ledger {first['ledger']}")

    layer_samples = per_layer_samples(untraced, traced) if untraced else {}
    e2e = metric_table(end_to_end_samples(untraced), END_TO_END) \
        if untraced else {}
    layers = metric_table(layer_samples, PER_LAYER)
    print_table("  end to end (untraced build):", e2e)
    print_table("  per layer:", layers)
    over = [c for c in layer_samples.get("trace.coverage", []) if c > 1.0]
    if over:
        print(f"perfbench: WARNING: {workload} trace.coverage "
              f"{max(over):.4f} exceeds 1.0 against "
              f"{traced[0]['workers']} worker(s); the per-layer self "
              "times over-count", file=sys.stderr)
    chosen = layers if opts["trace"] else e2e
    metrics = {name: {"value": m["median"], "unit": m["unit"]}
               for name, m in chosen.items()}
    return state["attempted"], state["failed"], metrics


def main(argv):
    try:
        opts = parse_args(argv)
    except UsageError as error:
        print(f"run.py: {error}\n{USAGE}", file=sys.stderr)
        return 2
    try:
        runners = build_all()
        expected = load_expected()
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as error:
        print(f"perfbench: cannot set up: {error}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if opts["workload"] == "all" else \
        (opts["workload"],)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        a, f, m = run_workload(opts, workload, runners, expected,
                               time.monotonic(), opts["seconds"])
        attempted += a
        failed += f
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
