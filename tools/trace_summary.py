#!/usr/bin/env python3
"""Validate, summarize and diff BZC_TRACE JSONL trace files (DESIGN.md §12).

Usage:
  trace_summary.py TRACE.jsonl                 # per-trial summary + round table
  trace_summary.py TRACE.jsonl --validate      # schema + reconciliation checks
  trace_summary.py TRACE.jsonl --validate-both OTHER   # validate two files, no diff
  trace_summary.py TRACE.jsonl --diff OTHER    # compare deterministic projections
  trace_summary.py TRACE.jsonl --rounds 40     # widen the per-round table

How many trials appear in a trace: the runner samples the first W trials of
each scenario, where W is ScenarioSpec::traceTrials when set (> 0), else the
process-wide BZC_TRACE_TRIALS (default 1). A spec-level width therefore wins
over the environment for that scenario only — two traces of the same binary
can legitimately disagree on trial counts if one run set BZC_TRACE_TRIALS and
the scenario pins its own width. --diff requires identical trial sets; use
--validate-both when you only need both files to be well-formed (e.g. traces
taken at different widths, where a projection diff is meaningless).

The trace format is one JSON object per line. Per sampled trial:

  {"type":"trial","scenario":...,"trial":N}        header
  {"type":"round", ...}                            one per engine round
  {"type":"span"|"counter"|"mark", ...}            protocol probes
  {"type":"end","events":E,"rounds":R,"messages":M,"bits":B}

Wall-clock fields (ts, dur, recvNs, mergeNs, scatterNs) are the only
nondeterministic payload; --diff strips them (the "deterministic projection")
before comparing, which is exactly the invariant the runtime promises: the
projection is a pure function of the trial at any thread count or pipeline
depth. Exit status: 0 ok, 1 validation failure or projection mismatch.
"""

import argparse
import json
import sys
from pathlib import Path

# Required keys per event type; wall-clock keys listed separately so the
# deterministic projection can strip them uniformly.
SCHEMA = {
    "trial": {"scenario", "trial"},
    "round": {"round", "sends", "touched", "messages", "bits", "idle", "lane"},
    "span": {"name", "round", "lane"},
    "counter": {"name", "round", "lane", "value"},
    "mark": {"name", "round", "lane", "value"},
    "end": {"scenario", "trial", "events", "rounds", "messages", "bits"},
}
WALL_CLOCK_KEYS = {"ts", "dur", "recvNs", "mergeNs", "scatterNs"}


def parse(path: Path):
    """Yields (lineno, obj) for every JSON line; raises on parse failure."""
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{lineno}: not JSON ({e})")
        yield lineno, obj


def split_trials(path: Path):
    """[(header, [events], end)] per trial, in file order. Validates pairing."""
    trials, header, events = [], None, []
    for lineno, obj in parse(path):
        kind = obj.get("type")
        if kind == "trial":
            if header is not None:
                raise ValueError(f"{path}:{lineno}: trial header inside open trial")
            header, events = obj, []
        elif kind == "end":
            if header is None:
                raise ValueError(f"{path}:{lineno}: end line without trial header")
            trials.append((header, events, obj))
            header = None
        else:
            if header is None:
                raise ValueError(f"{path}:{lineno}: event before any trial header")
            events.append(obj)
    if header is not None:
        raise ValueError(f"{path}: unterminated trial {header.get('scenario')}#"
                         f"{header.get('trial')}")
    return trials


def validate(path: Path) -> list:
    """Returns a list of problem strings (empty = valid)."""
    problems = []
    try:
        trials = split_trials(path)
    except ValueError as e:
        return [str(e)]
    if not trials:
        problems.append(f"{path}: no trials (tracing off, or the run sampled 0 trials)")
    for header, events, end in trials:
        tag = f"{header.get('scenario')}#{header.get('trial')}"
        rounds = messages = bits = 0
        last_round_per_lane = {}
        for e in events:
            kind = e.get("type")
            required = SCHEMA.get(kind)
            if required is None:
                problems.append(f"{tag}: unknown event type {kind!r}")
                continue
            missing = required - e.keys()
            if missing:
                problems.append(f"{tag}: {kind} event missing {sorted(missing)}")
                continue
            if kind == "round":
                rounds += 1
                messages += e["messages"]
                bits += e["bits"]
                lane = e["lane"]
                prev = last_round_per_lane.get(lane)
                # Within one engine the round counter only advances; a lane
                # may host several engines back to back (pipeline = counting
                # then agreement; each epoch recount), and each restart
                # re-enters at round 1. Anything else going backward is
                # corruption.
                if prev is not None and e["round"] <= prev and e["round"] != 1:
                    problems.append(
                        f"{tag}: lane {lane} round went {prev} -> {e['round']}")
                last_round_per_lane[lane] = e["round"]
        if end["scenario"] != header["scenario"] or end["trial"] != header["trial"]:
            problems.append(f"{tag}: end line names {end['scenario']}#{end['trial']}")
        for key, got in (("events", len(events)), ("rounds", rounds),
                         ("messages", messages), ("bits", bits)):
            if end[key] != got:
                problems.append(f"{tag}: end.{key}={end[key]} but events sum to {got}")
    return problems


def projection(trials):
    """Deterministic projection: events minus wall-clock keys, per trial."""
    out = []
    for header, events, end in trials:
        proj = [{k: v for k, v in e.items() if k not in WALL_CLOCK_KEYS}
                for e in events]
        out.append(((header["scenario"], header["trial"]), proj, end))
    return out


def diff(path_a: Path, path_b: Path) -> list:
    a = projection(split_trials(path_a))
    b = projection(split_trials(path_b))
    problems = []
    keys_a = [t[0] for t in a]
    keys_b = [t[0] for t in b]
    if keys_a != keys_b:
        problems.append(f"trial sets differ: {keys_a} vs {keys_b}")
        return problems
    for (key, ea, enda), (_, eb, endb) in zip(a, b):
        tag = f"{key[0]}#{key[1]}"
        if len(ea) != len(eb):
            problems.append(f"{tag}: {len(ea)} vs {len(eb)} events")
        for i, (x, y) in enumerate(zip(ea, eb)):
            if x != y:
                problems.append(f"{tag}: first divergence at event {i}:\n  a: {x}\n  b: {y}")
                break
        for key2 in ("rounds", "messages", "bits"):
            if enda[key2] != endb[key2]:
                problems.append(f"{tag}: end.{key2} {enda[key2]} vs {endb[key2]}")
    return problems


def summarize(path: Path, max_rounds: int):
    trials = split_trials(path)
    print(f"# {path}: {len(trials)} traced trial(s)\n")
    for header, events, end in trials:
        tag = f"{header['scenario']}#{header['trial']}"
        print(f"## {tag}: {end['rounds']} rounds, {end['messages']} messages, "
              f"{end['bits']} bits, {end['events']} events")
        spans, counters, marks = {}, {}, {}
        for e in events:
            if e["type"] == "span":
                cnt, total = spans.get(e["name"], (0, 0))
                spans[e["name"]] = (cnt + 1, total + e.get("dur", 0))
            elif e["type"] == "counter":
                counters[e["name"]] = e["value"]  # last value wins
            elif e["type"] == "mark":
                marks[e["name"]] = marks.get(e["name"], 0) + 1
        if spans:
            print("  spans (count, total ms):")
            for name, (cnt, total) in sorted(spans.items()):
                print(f"    {name:28s} {cnt:6d}  {total / 1e6:10.3f}")
        if counters:
            print("  counters (final value):")
            for name, value in sorted(counters.items()):
                print(f"    {name:28s} {value:g}")
        if marks:
            print("  marks (count): " +
                  ", ".join(f"{k}={v}" for k, v in sorted(marks.items())))
        rounds = [e for e in events if e["type"] == "round"]
        if rounds:
            shown = rounds[:max_rounds]
            print(f"  rounds (first {len(shown)} of {len(rounds)}):")
            print(f"    {'round':>7} {'lane':>4} {'sends':>8} {'touched':>8} "
                  f"{'messages':>10} {'bits':>12} {'idle':>4}")
            for r in shown:
                print(f"    {r['round']:>7} {r['lane']:>4} {r['sends']:>8} "
                      f"{r['touched']:>8} {r['messages']:>10} {r['bits']:>12} "
                      f"{r['idle']:>4}")
        print()


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", type=Path)
    ap.add_argument("--validate", action="store_true",
                    help="schema + end-line reconciliation checks only")
    ap.add_argument("--validate-both", type=Path, metavar="OTHER",
                    help="validate TRACE and OTHER without diffing them (use when "
                         "trial widths differ: BZC_TRACE_TRIALS vs a scenario's "
                         "own traceTrials)")
    ap.add_argument("--diff", type=Path, metavar="OTHER",
                    help="compare deterministic projections of two traces (both "
                         "are validated first; trial sets must match exactly)")
    ap.add_argument("--rounds", type=int, default=20,
                    help="rows in the per-round table (default 20)")
    args = ap.parse_args()

    if not args.trace.exists():
        print(f"error: {args.trace} not found", file=sys.stderr)
        return 1

    if args.validate:
        problems = validate(args.trace)
        if problems:
            for p in problems:
                print(f"INVALID: {p}", file=sys.stderr)
            return 1
        trials = split_trials(args.trace)
        total = sum(end["events"] for _, _, end in trials)
        print(f"OK: {args.trace} — {len(trials)} trial(s), {total} events, "
              f"schema and totals reconcile")
        return 0

    if args.validate_both is not None:
        problems = []
        for path in (args.trace, args.validate_both):
            if not path.exists():
                problems.append(f"{path} not found")
            else:
                problems += validate(path)
        if problems:
            for p in problems:
                print(f"INVALID: {p}", file=sys.stderr)
            return 1
        print(f"OK: {args.trace} and {args.validate_both} both validate "
              f"(projections not compared)")
        return 0

    if args.diff is not None:
        problems = validate(args.trace) + validate(args.diff)
        if not problems:
            problems = diff(args.trace, args.diff)
        if problems:
            for p in problems:
                print(f"DIFF: {p}", file=sys.stderr)
            return 1
        print(f"OK: deterministic projections of {args.trace} and {args.diff} "
              f"are identical")
        return 0

    summarize(args.trace, args.rounds)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # | head et al. closing stdout is not an error
        sys.exit(0)
