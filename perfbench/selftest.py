#!/usr/bin/env python3
"""Self-test of the repository benchmark, on tiny networks (about 30 seconds).

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it checks
that
  1. every end-to-end metric (--trace 0) and every per-layer metric
     (--trace 1) is printed with the unit BENCHMARK.json declares, and the run
     reports correct = true;
  2. the exact metrics and the fingerprint repeat bit for bit on a rerun at
     the same seed;
  3. they change under another seed, so the seed reaches the workload.
It also checks that an inherited BZC_* observability variable makes the
untraced run refuse to start. Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ("rounds", "bits_per_node", "frac_decided", "quality_frac", "ok_frac")


def run(workload, seed, trace, env=None):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    fingerprint = next((tok.split("=", 1)[1] for line in lines for tok in line.split()
                        if tok.startswith("fingerprint=")), None)
    return proc.returncode, result, fingerprint


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            code, result, fp = run(w, 11, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{w} --trace {trace}: runs and reports correct")
            printed = result["metrics"]
            missing = [m["name"] for m in declared[trace]
                       if printed.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, f"{w} --trace {trace}: every declared metric with its unit"
                  + (f" (missing or wrong unit: {missing})" if missing else ""))
            results[trace] = (printed, fp)
        exact = lambda m: [m[k]["value"] for k in EXACT]
        _, again, fp_again = run(w, 11, 0)
        check(exact(again["metrics"]) == exact(results[0][0]) and fp_again == results[0][1],
              f"{w}: exact metrics and fingerprint repeat at the same seed")
        _, other, fp_other = run(w, 12, 0)
        check(fp_other != results[0][1] and exact(other["metrics"]) != exact(results[0][0]),
              f"{w}: exact metrics and fingerprint change under another seed")
    env = dict(os.environ, BZC_TRACE="selftest-trace.jsonl")
    code, result, _ = run(spec["workloads"][0]["name"], 11, 0, env=env)
    check(code != 0 and result is None, "an inherited BZC_TRACE makes the untraced run refuse")
    check(not os.path.exists(os.path.join(ROOT, "selftest-trace.jsonl")),
          "the refused run wrote no trace file")
    print("selftest passed")


if __name__ == "__main__":
    main()
