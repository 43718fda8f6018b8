#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. Builds perfbench/ (the library from src/ plus
the benchmark binary perfbench.cpp) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the binary
in a process of its own and prints one JSON object as the last line of stdout:

  --trace 0  the end-to-end metrics of BENCHMARK.json, from an untraced run
             that measures for S seconds, with its times scaled by the
             host-speed reference timed alongside them;
  --trace 1  the per-layer metrics, from a traced run of the workload's exact
             trial set, checked against an untraced run at the same seed.

Workloads: count-flood, agree-walk, churn-pipeline, local-count (see
BENCHMARK.json for why each is there). --tiny shrinks every workload to a few
hundred nodes and drops the output-quality floors; perfbench/selftest.py uses
it. A failed check prints "correct": false and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("count-flood", "agree-walk", "churn-pipeline", "local-count")
EXACT = ("rounds", "bits_per_node", "frac_decided", "quality_frac")

END_TO_END_UNITS = {
    "trial_s_p50": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "count",
    "bits_per_node": "bit",
    "frac_decided": "frac",
    "quality_frac": "frac",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "sim.place_s": "s",
    "setup.in_trial_s": "s",
    "runner.busy_frac": "frac",
    "runner.trial_s_p50": "s",
    "engine.window_s": "s",
    "engine.recv_s": "s",
    "engine.merge_s": "s",
    "engine.scatter_s": "s",
    "engine.hooks_s": "s",
    "engine.ns_per_msg": "ns",
    "engine.sends": "count",
    "engine.touched": "count",
    "beacon.window_s": "s",
    "beacon.decisions_s": "s",
    "beacon.blacklist_insertions": "count",
    "beacon.beacons_generated": "count",
    "beacon.forged": "count",
    "adversary.walk_forged": "count",
    "agreement.iteration_self_s": "s",
    "agreement.tokens_launched": "count",
    "agreement.answered": "count",
    "agreement.compromised": "count",
    "agreement.answer_ratio": "frac",
    "pipeline.counting_s": "s",
    "pipeline.agreement_s": "s",
    "churn.recount_s": "s",
    "churn.overlay_s": "s",
    "churn.gap_probe_s": "s",
    "churn.finalize_s": "s",
    "local.run_s": "s",
    "obs.trace_overhead_frac": "frac",
    "obs.untraced_spread_frac": "frac",
    "traced.trial_s": "s",
    "unattributed_s": "s",
}

# The host-speed reference's nominal time. The end-to-end times are scaled by
# REF_S / (the reference's median time in the run): they read as seconds on a
# host where the reference takes 1 ms (see perfbench/BASELINE.md).
REF_S = 1e-3

# Spans whose self time is nobody's layer: the runner's per-trial wrapper and
# the benchmark's own span around the protocol call.
UNATTRIBUTED_SPANS = ("trial", "bench.protocol")


def log(msg):
    print(msg, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def drive(binary, args, mode, seconds):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode} ({mode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checks_ok(raw, args):
    problems = []
    if raw["failed"]:
        problems.append(f"{raw['failed']} of {raw['attempted']} trials failed")
    if raw["mismatches"]:
        problems.append(f"{raw['mismatches']} repeated runs changed their fingerprint")
    if not args.tiny and not raw["outputs_ok"]:
        problems.append(f"outputs below the workload's floors: {raw['exact']}")
    for p in problems:
        log(f"CHECK FAILED ({raw['mode']}): {p}")
    return not problems


def end_to_end(raw):
    latency = raw["latency"]
    slow = raw["setup"]["ref_s"] / REF_S
    return {
        "trial_s_p50": statistics.median(latency) / slow,
        "trials_per_s": raw["fan_trials"] / raw["fan_wall"] * slow,
        "setup_s": raw["setup"]["setup_s"] / slow,
        "peak_rss_mb": raw["peak_rss_mb"],
        **{k: raw["exact"][k] for k in EXACT},
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }, len(latency)


def per_layer(plain, traced):
    v = traced["layers"]
    get = lambda key: v.get(key, 0.0)
    m = {
        "graph.build_s": traced["setup"]["graph.build_s"],
        "sim.place_s": traced["setup"]["sim.place_s"],
        "setup.in_trial_s": get("total.bench.setup"),
        "runner.busy_frac": v["runner.busy_frac"],
        "runner.trial_s_p50": v["runner.trial_s_p50"],
        "engine.window_s": get("total.engine.window"),
        "beacon.window_s": get("self.beacon.beaconWindow") + get("self.beacon.continueWindow"),
        "beacon.decisions_s": get("self.beacon.decisions"),
        "agreement.iteration_self_s": get("self.agreement.iteration"),
        "pipeline.counting_s": get("total.pipeline.counting"),
        "pipeline.agreement_s": get("total.pipeline.agreement"),
        "churn.recount_s": get("total.epoch.recount"),
        "churn.overlay_s": get("total.overlay.repair") + get("total.overlay.snapshot"),
        "churn.gap_probe_s": get("total.epoch.gapProbe"),
        "churn.finalize_s": get("total.epoch.finalize"),
        "local.run_s": get("total.local.run"),
        "traced.trial_s": v["total.trial"],
    }
    for name in PER_LAYER_UNITS:
        m.setdefault(name, get(name))
    m["engine.hooks_s"] = (m["engine.window_s"] - m["engine.recv_s"] - m["engine.merge_s"]
                           - m["engine.scatter_s"])
    messages = get("engine.messages")
    m["engine.ns_per_msg"] = m["engine.window_s"] * 1e9 / messages if messages else 0.0
    launched = m["agreement.tokens_launched"]
    m["agreement.answer_ratio"] = m["agreement.answered"] / launched if launched else 0.0
    walls = plain["unit_walls"]
    m["obs.trace_overhead_frac"] = (statistics.median(traced["unit_walls"])
                                    / statistics.median(walls) - 1.0)
    q = statistics.quantiles(walls, n=4) if len(walls) >= 2 else [0.0, 0.0, 0.0]
    m["obs.untraced_spread_frac"] = (q[2] - q[0]) / statistics.median(walls)
    selfs = {k[len("self."):]: x for k, x in v.items() if k.startswith("self.")}
    m["unattributed_s"] = sum(selfs.get(name, 0.0) for name in UNATTRIBUTED_SPANS)
    return m, selfs


def report_layers(m, selfs, traced):
    """Prints the self-time tiling of the traced trial and checks that it adds up."""
    log(f"self time per traced trial, by span ({traced['layers']['traced_trials']:.0f} trials):")
    named = 0.0
    for name, x in sorted(selfs.items()):
        if name in UNATTRIBUTED_SPANS:
            continue
        named += x
        log(f"  {name:24s} {x:.6f} s")
    log(f"  {'unattributed_s':24s} {m['unattributed_s']:.6f} s  (self of "
        f"{' + '.join(UNATTRIBUTED_SPANS)})")
    total = named + m["unattributed_s"]
    wall = m["traced.trial_s"]
    ok = traced["sum_ok"] and abs(total - wall) <= 1e-9 * max(1.0, wall)
    log(f"  sum {total:.6f} s vs traced trial wall {wall:.6f} s: {'OK' if ok else 'MISMATCH'}")
    log(f"  engine.window_s {m['engine.window_s']:.6f} s = recv {m['engine.recv_s']:.6f} + merge "
        f"{m['engine.merge_s']:.6f} + scatter {m['engine.scatter_s']:.6f} + emit/end hooks "
        f"{m['engine.hooks_s']:.6f}")
    resolved = abs(m["obs.trace_overhead_frac"]) > m["obs.untraced_spread_frac"]
    log(f"trace overhead {m['obs.trace_overhead_frac']:+.4f} vs untraced quartile spread "
        f"{m['obs.untraced_spread_frac']:.4f}: {'resolved' if resolved else 'unresolved'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.trace == 0:
        raw = drive(binary, args, "plain", args.seconds)
        correct = checks_ok(raw, args)
        values, samples = end_to_end(raw)
        units = END_TO_END_UNITS
        log(f"{args.workload} seed={args.seed} threads={raw['threads']} n={raw['n']} "
            f"fingerprint={raw['fingerprint']} trial_s_p50 over {samples} trials, "
            f"trials_per_s over {raw['fan_trials']:.0f} trials")
        log(f"one-trial run() walls as measured: min {min(raw['latency']):.6f} s, "
            f"p50 {statistics.median(raw['latency']):.6f} s, max {max(raw['latency']):.6f} s; "
            f"trials_per_s {raw['fan_trials'] / raw['fan_wall']:.6f}, "
            f"setup_s {raw['setup']['setup_s']:.9f} s")
        log(f"host-speed reference: median {raw['setup']['ref_s']:.9f} s against {REF_S} s; "
            f"timing metrics scaled by {REF_S / raw['setup']['ref_s']:.6f}")
    else:
        plain = drive(binary, args, "plain", 0)
        traced = drive(binary, args, "traced", 0)
        correct = all([checks_ok(plain, args), checks_ok(traced, args)])
        for key in ("fingerprint",) + tuple(f"exact.{k}" for k in EXACT):
            a, b = plain, traced
            for part in key.split("."):
                a, b = a[part], b[part]
            if a != b:
                log(f"CHECK FAILED: traced {key} {b!r} != untraced {a!r}")
                correct = False
        values, selfs = per_layer(plain, traced)
        correct = report_layers(values, selfs, traced) and correct
        units = PER_LAYER_UNITS
        raw = traced
        log(f"{args.workload} seed={args.seed} fingerprint={traced['fingerprint']} "
            f"(untraced {plain['fingerprint']})")

    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
