#!/usr/bin/env python3
"""Validate, diff, report and render run records (BZC_TRACE, DESIGN.md §12).

Usage:
  run_record.py validate FILE...
  run_record.py diff A B
  run_record.py report FILE... [--bench BENCH.json] [--out R.md] [--html R.html] [--check]
  run_record.py blame FILE... [--top K]
  run_record.py chrome FILE > timeline.json

A run record holds one block of JSON lines per sampled trial:

  {"type":"trial","v":2,"scenario":S,"trial":N}              header
  {"type":"round"|"span"|"counter"|"mark",...}                events, buffer order
  {"type":"blame",...,"edges":[...],"totals":{...}}           blame graph
  {"type":"end",...,"events":E,"rounds":R,"messages":M,"bits":B}

validate  schema, header/end pairing and totals, per-lane round order,
          and the blame identities below. Records of any other version
          are refused.
diff      compares the deterministic projections of two records: events
          without their wall-clock keys, blame lines and end totals. Both
          records are validated first.
report    per trial: convergence curves (counter series), phase-time
          attribution (spans) and per-round engine traffic (round lines:
          mean/min/max of each field), plus bench rows (--bench) with
          bootstrap CIs; markdown to --out or stdout, optional --html with
          inline-SVG charts. --check also fails when a section would be empty.
blame     damage by kind, by coalition subset, top-k offenders with their
          HHI concentration, damage by the cause's hop distance to the victim.
chrome    the chrome://tracing / Perfetto timeline: pid = block index, tid =
          lane; spans are X events, counters and rounds C tracks, marks i
          instants, walk marks (BZC_TRACE_FLOW=1) s/f flow arrows.

The runner samples the first W trials of each scenario: W is
ScenarioSpec::traceTrials when set, else BZC_TRACE_TRIALS (default 1). Two
records of one binary can therefore hold different trial sets; diff needs
identical ones.

Blame identities, exact per trial whenever the totals name the subsystem
(recorder and counter increment at the same program point):

  droppedQuery, droppedAnswer, flippedAnswer, misroutedAnswer, strayAnswer,
  forgedAnswer, compromisedSample == the walk.* total of the same name
  beaconForged + relayTampered == beacon.beaconsForged
  relayTampered == beacon.relaysTampered
  relaySuppressed == beacon.relaysSuppressed
  continueSpam == beacon.continuesSpammed
  continueSuppressed == beacon.continuesSuppressed
  blacklistedHonestId + blacklistedFakeId + beacon.untaintedInsertions
      == beacon.blacklistInsertions
  rejoinLineage == churn.byzRejoins

Exit status: 0 ok, 1 invalid record, projection mismatch or failed check.
"""

import argparse
import collections
import json
import sys
from pathlib import Path

VERSION = 2
EVENT_KEYS = {
    "round": {"round", "sends", "touched", "messages", "bits", "idle", "lane"},
    "span": {"name", "round", "lane"},
    "counter": {"name", "round", "lane", "value"},
    "mark": {"name", "round", "lane", "value"},
}
LINE_KEYS = {
    "blame": {"scenario", "trial", "edges", "totals"},
    "end": {"scenario", "trial", "events", "rounds", "messages", "bits"},
}
# The line type each block line must follow: header, events, blame, end.
FOLLOWS = {"blame": "events", "end": "blame"}
WALL_KEYS = {"ts", "dur", "recvNs", "mergeNs", "scatterNs"}
# Round-line fields the report summarises per trial (the last two are wall).
ROUND_FIELDS = ["sends", "touched", "messages", "bits", "recvNs", "scatterNs"]
EDGE_KEYS = {"kind", "subset", "cause", "victim", "count"}

# (edge kinds, totals): the kinds' edge counts sum to the totals; a leading
# "-" subtracts a total (untainted insertions have no edge).
IDENTITIES = [([kind], ["walk." + total]) for kind, total in (
    ("droppedQuery", "droppedQueries"), ("droppedAnswer", "droppedAnswers"),
    ("flippedAnswer", "flippedAnswers"), ("misroutedAnswer", "misroutedAnswers"),
    ("strayAnswer", "strayAnswers"), ("forgedAnswer", "forgedAnswers"),
    ("compromisedSample", "compromisedSamples"))] + [
    (["beaconForged", "relayTampered"], ["beacon.beaconsForged"]),
    (["relayTampered"], ["beacon.relaysTampered"]),
    (["relaySuppressed"], ["beacon.relaysSuppressed"]),
    (["continueSpam"], ["beacon.continuesSpammed"]),
    (["continueSuppressed"], ["beacon.continuesSuppressed"]),
    (["blacklistedHonestId", "blacklistedFakeId"],
     ["beacon.blacklistInsertions", "-beacon.untaintedInsertions"]),
    (["rejoinLineage"], ["churn.byzRejoins"]),
]

# Series the paper's convergence figures are built from; report --check needs
# at least one of them.
CONVERGENCE_SERIES = [
    "beacon.undecidedHonest", "beacon.blacklistInsertions", "beacon.beaconsGenerated",
    "agreement.answered", "agreement.compromised", "agreement.ones",
    "epoch.estimate", "epoch.staleness", "epoch.drift", "churn.liveN",
]
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


class RecordError(ValueError):
    pass


# --- the loader, the validator and the projection ----------------------------

def tag(block):
    return f"{block['header'].get('scenario')}#{block['header'].get('trial')}"


def load(path):
    """The record's blocks in file order: {header, events, blame, end}.
    Raises RecordError on a line that does not parse or is out of place."""
    blocks, block, last = [], None, None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise RecordError(f"{where}: not JSON ({e})")
        kind = obj.get("type")
        if kind == "trial":
            if block is not None:
                raise RecordError(f"{where}: trial header inside open block {tag(block)}")
            if obj.get("v") != VERSION:
                raise RecordError(f"{where}: record version {obj.get('v')!r}; "
                                  f"this tool reads v{VERSION}")
            block, last = {"header": obj, "events": []}, "events"
        elif block is None:
            raise RecordError(f"{where}: {kind!r} line outside a block")
        elif kind in EVENT_KEYS and last == "events":
            block["events"].append(obj)
        elif FOLLOWS.get(kind) == last:
            block[kind], last = obj, kind
            if kind == "end":
                blocks.append(block)
                block = None
        else:
            raise RecordError(f"{where}: {tag(block)}: unexpected {kind!r} line after {last}")
    if block is not None:
        raise RecordError(f"{path}: block {tag(block)} has no end line")
    return blocks


def block_problems(block):
    header = block["header"]
    for kind, keys in LINE_KEYS.items():
        line = block[kind]
        if keys - line.keys():
            return [f"{kind} line missing {sorted(keys - line.keys())}"]
        if (line["scenario"], line["trial"]) != (header.get("scenario"), header.get("trial")):
            return [f"{kind} line names {line['scenario']}#{line['trial']}"]
    problems = []
    sums = {"events": len(block["events"]), "rounds": 0, "messages": 0, "bits": 0}
    last_round = {}
    for e in block["events"]:
        missing = EVENT_KEYS[e["type"]] - e.keys()
        if missing:
            problems.append(f"{e['type']} event missing {sorted(missing)}")
            continue
        if e["type"] != "round":
            continue
        sums["rounds"] += 1
        sums["messages"] += e["messages"]
        sums["bits"] += e["bits"]
        # Within one engine the round counter only advances; a lane may host
        # several engines back to back (pipeline counting then agreement, each
        # epoch recount), each restarting at round 1.
        prev = last_round.get(e["lane"])
        if prev is not None and e["round"] <= prev and e["round"] != 1:
            problems.append(f"lane {e['lane']} round went {prev} -> {e['round']}")
        last_round[e["lane"]] = e["round"]
    for key, got in sums.items():
        if block["end"][key] != got:
            problems.append(f"end.{key}={block['end'][key]} but the events sum to {got}")
    edges, totals = block["blame"]["edges"], block["blame"]["totals"]
    if any(EDGE_KEYS - e.keys() for e in edges):
        return problems + [f"a blame edge misses one of {sorted(EDGE_KEYS)}"]
    by_kind = kind_sums(edges)
    for kinds, keys in IDENTITIES:
        names = [k.lstrip("-") for k in keys]
        if not any(k in totals for k in names):
            continue  # that subsystem did not run in this trial
        lhs = sum(by_kind[k] for k in kinds)
        rhs = sum(-totals.get(k[1:], 0) if k[0] == "-" else totals.get(k, 0) for k in keys)
        if lhs != rhs:
            problems.append(f"{' + '.join(kinds)} edges sum to {lhs}, "
                            f"{' '.join(keys)} totals say {rhs}")
    return problems


def checked(path):
    """(blocks, problems) for one record file; no problems when it is valid."""
    try:
        blocks = load(path)
    except (OSError, RecordError) as e:
        return [], [str(e)]
    if not blocks:
        return [], [f"{path}: no blocks (BZC_TRACE unset, or no trial sampled)"]
    return blocks, [f"{path}: {tag(b)}: {p}" for b in blocks for p in block_problems(b)]


def projection(block):
    """The deterministic part of a block, section by section."""
    return {
        "events": [{k: v for k, v in e.items() if k not in WALL_KEYS} for e in block["events"]],
        "blame edges": block["blame"]["edges"],
        "blame totals": [block["blame"]["totals"], block["blame"].get("victimDist")],
        "end": [block["end"][k] for k in ("events", "rounds", "messages", "bits")],
    }


def diff(a, b):
    """Problem strings naming the first divergence of each section."""
    if [tag(x) for x in a] != [tag(y) for y in b]:
        return [f"trial sets differ: {[tag(x) for x in a]} vs {[tag(y) for y in b]}"]
    problems = []
    for x, y in zip(a, b):
        px, py = projection(x), projection(y)
        for section in px:
            xs, ys = px[section], py[section]
            for i, (u, v) in enumerate(zip(xs, ys)):
                if u != v:
                    problems.append(f"{tag(x)}: {section} diverge at {i}:\n  a: {u}\n  b: {v}")
                    break
            else:
                if len(xs) != len(ys):
                    problems.append(f"{tag(x)}: {section}: {len(xs)} vs {len(ys)} entries")
    return problems


def load_all(paths):
    """Every block of every file; exits 1 if any file is invalid."""
    blocks, problems = [], []
    for path in paths:
        more, found = checked(path)
        blocks += more
        problems += found
    if problems:
        fail("INVALID", problems)
    return blocks


def fail(label, problems):
    for p in problems:
        print(f"{label}: {p}", file=sys.stderr)
    sys.exit(1)


# --- report ------------------------------------------------------------------

def trial_view(block):
    """Counter series [(round, lane, value)] and span totals (count, ns)."""
    series, spans = {}, {}
    for e in block["events"]:
        if e["type"] == "counter":
            series.setdefault(e["name"], []).append((e["round"], e["lane"], e["value"]))
        elif e["type"] == "span":
            count, ns = spans.get(e["name"], (0, 0))
            spans[e["name"]] = (count + 1, ns + e["dur"])
    known = [n for n in CONVERGENCE_SERIES if n in series]
    rest = sorted(n for n in series if n not in CONVERGENCE_SERIES)
    return [(n, series[n]) for n in known + rest], spans


def fmt(x):
    return f"{x:.6g}"


def sparkline(values, width=60):
    if len(values) > width:  # resample to fit
        values = [values[int(i * len(values) / width)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi == lo:
        return SPARK_BLOCKS[3] * len(values)
    return "".join(SPARK_BLOCKS[min(7, int((v - lo) / (hi - lo) * 8))] for v in values)


def svg_chart(title, points, width=660, height=200):
    """Single-series inline-SVG line chart; x = point order (rounds restart
    across epochs and stages), the hover tooltip carries round and lane."""
    pad_l, pad_r, pad_t, pad_b = 56, 12, 28, 22
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    ys = [v for _, _, v in points]
    lo, hi = min(ys), max(ys)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    n = len(points)

    def px(i):
        return pad_l + plot_w * i / max(1, n - 1)

    def py(v):
        return pad_t + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
             f'role="img" aria-label="{title}" '
             'style="background:#ffffff;font-family:system-ui,sans-serif">',
             f'<text x="{pad_l}" y="16" fill="#111827" font-size="13" '
             f'font-weight="600">{title}</text>']
    for frac in (0.0, 0.5, 1.0):
        y = pad_t + plot_h * frac
        parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" y2="{y:.1f}" '
                     'stroke="#e5e7eb" stroke-width="1"/>'
                     f'<text x="{pad_l - 6}" y="{y + 4:.1f}" fill="#6b7280" font-size="11" '
                     f'text-anchor="end">{fmt(hi - (hi - lo) * frac)}</text>')
    poly = " ".join(f"{px(i):.1f},{py(v):.1f}" for i, v in enumerate(ys))
    parts.append(f'<polyline points="{poly}" fill="none" stroke="#1d4ed8" '
                 'stroke-width="2" stroke-linejoin="round"/>')
    if n <= 200:  # hover markers only while sparse enough to hit
        for i, (rnd, lane, v) in enumerate(points):
            parts.append(f'<circle cx="{px(i):.1f}" cy="{py(v):.1f}" r="4" fill="#1d4ed8" '
                         f'fill-opacity="0.15"><title>round {rnd}, lane {lane}: {fmt(v)}'
                         '</title></circle>')
    parts.append(f'<text x="{width - pad_r}" y="{height - 6}" fill="#6b7280" font-size="11" '
                 f'text-anchor="end">{n} samples (point order)</text></svg>')
    return "".join(parts)


def span_rows(spans):
    """(name, count, ms, share of the trial span) by descending time."""
    trial_ns = spans.get("trial", (0, 0))[1]
    for name, (count, ns) in sorted(spans.items(), key=lambda kv: -kv[1][1]):
        yield name, count, f"{ns / 1e6:.3f}", f"{ns / trial_ns:.1%}" if trial_ns > 0 else "–"


def ci_cell(d):
    if not isinstance(d, dict):
        return "–"
    mean, lo, hi = d.get("mean", 0.0), d.get("ci95lo"), d.get("ci95hi")
    if lo is None or hi is None or lo == hi == mean:
        return fmt(mean)
    return f"{fmt(mean)} [{fmt(lo)}, {fmt(hi)}]"


def bench_cells(row):
    wall = row.get("wall_ms")
    return [row["name"], str(row.get("trials", "–")), fmt(wall) if wall is not None else "–",
            ci_cell(row.get("totalRounds")), ci_cell(row.get("totalMessages")),
            ci_cell(row.get("fracDecided"))]


BENCH_HEAD = ["scenario", "trials", "wall ms", "rounds mean [95% CI]", "messages mean",
              "frac decided mean [95% CI]"]


def md_table(head, rows):
    return ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)] + [
        "| " + " | ".join(str(c) for c in row) + " |" for row in rows] + [""]


def html_table(head, rows):
    return ("<table><tr>" + "".join(f"<th>{h}</th>" for h in head) + "</tr>" + "".join(
        "<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows) + "</table>")


def render_markdown(blocks, bench_rows):
    out = ["# Run record report", "",
           f"Traced trials: {len(blocks)}; bench rows: {len(bench_rows)}.", ""]
    for b in blocks:
        end = b["end"]
        series, spans = trial_view(b)
        out += [f"## {tag(b)}: {end['rounds']} rounds, {end['messages']} messages, "
                f"{end['bits']} bits", ""]
        if series:
            out += ["### Convergence curves", ""] + md_table(
                ["series", "samples", "first", "last", "min", "max", "trajectory"],
                [[f"`{name}`", len(vals), fmt(vals[0]), fmt(vals[-1]), fmt(min(vals)),
                  fmt(max(vals)), f"`{sparkline(vals)}`"]
                 for name, vals in ((n, [v for _, _, v in pts]) for n, pts in series)])
        if spans:
            out += ["### Phase-time attribution", ""] + md_table(
                ["span", "count", "total ms", "% of trial"],
                [[f"`{name}`", count, ms, share] for name, count, ms, share in span_rows(spans)])
        rounds = [e for e in b["events"] if e["type"] == "round"]
        if rounds:
            out += ["### Per-round engine traffic", ""] + md_table(
                ["field", "rounds", "mean", "min", "max"],
                [[f"`{key}`", len(vals), fmt(sum(vals) / len(vals)), min(vals), max(vals)]
                 for key, vals in ((k, [e[k] for e in rounds]) for k in ROUND_FIELDS)])
    if bench_rows:
        out += ["## Bench summary", ""] + md_table(BENCH_HEAD, map(bench_cells, bench_rows))
    return "\n".join(out) + "\n"


def render_html(blocks, bench_rows):
    parts = ["<!DOCTYPE html><html><head><meta charset='utf-8'><title>Run record report</title>"
             "<style>body{font-family:system-ui,sans-serif;color:#111827;max-width:960px;"
             "margin:2rem auto;padding:0 1rem;background:#ffffff}"
             "table{border-collapse:collapse;margin:0.75rem 0}"
             "td,th{border:1px solid #e5e7eb;padding:4px 8px;font-size:13px;text-align:left}"
             "th{background:#f9fafb}h2{margin-top:2rem}code{background:#f3f4f6;"
             "padding:1px 4px;border-radius:3px}details{margin:0.5rem 0}"
             "summary{color:#6b7280;cursor:pointer}</style></head><body>"
             "<h1>Run record report</h1>"]
    for b in blocks:
        end = b["end"]
        series, spans = trial_view(b)
        parts.append(f"<h2>{tag(b)}</h2><p>{end['rounds']} rounds, {end['messages']} "
                     f"messages, {end['bits']} bits.</p>")
        for name, pts in series:
            if len(pts) < 2:
                continue
            # The plotted data as a table too (accessibility, colour-blind readers).
            parts.append(svg_chart(name, pts) + f"<details><summary>data: {name}</summary>"
                         + html_table(["round", "lane", "value"],
                                      [[r, lane, fmt(v)] for r, lane, v in pts[:500]])
                         + "</details>")
        if spans:
            parts.append("<h3>Phase-time attribution</h3>" + html_table(
                ["span", "count", "total ms", "% of trial"],
                [[f"<code>{name}</code>", count, ms, share]
                 for name, count, ms, share in span_rows(spans)]))
    if bench_rows:
        parts.append("<h2>Bench summary</h2>" + html_table(BENCH_HEAD,
                                                           map(bench_cells, bench_rows)))
    return "".join(parts) + "</body></html>"


def cmd_report(args):
    blocks = load_all(args.records)
    bench_rows = [json.loads(line) for path in args.bench
                  for line in path.read_text().splitlines() if line.strip()]
    if args.check:
        names = {name for b in blocks for name, _ in trial_view(b)[0]}
        problems = []
        if not names.intersection(CONVERGENCE_SERIES):
            problems.append(f"no convergence series (expected one of {CONVERGENCE_SERIES[:4]}...)")
        if not any(trial_view(b)[1] for b in blocks):
            problems.append("no phase spans: the attribution table would be empty")
        if problems:
            fail("INVALID", problems)
    markdown = render_markdown(blocks, bench_rows)
    if args.out:
        args.out.write_text(markdown)
        print(f"wrote {args.out}")
    else:
        print(markdown, end="")
    if args.html:
        args.html.write_text(render_html(blocks, bench_rows))
        print(f"wrote {args.html}")
    if args.check:
        print(f"OK: {len(blocks)} trial(s) rendered with convergence curves and phase spans")
    return 0


# --- blame -------------------------------------------------------------------

def kind_sums(edges):
    sums = collections.Counter()
    for e in edges:
        sums[e["kind"]] += e["count"]
    return sums


def cmd_blame(args):
    blocks = load_all(args.records)
    edges = [e for b in blocks for e in b["blame"]["edges"]]
    attributed = [e for e in edges if e["cause"] >= 0]
    by_kind = kind_sums(edges)
    rows = collections.Counter(e["kind"] for e in edges)
    print(f"# {len(blocks)} blame graph(s)\n\n## damage by kind")
    print(f"  {'kind':24s} {'edges':>8} {'units':>10}")
    for kind in sorted(by_kind):
        print(f"  {kind:24s} {rows[kind]:>8} {by_kind[kind]:>10}")
    print(f"  {'TOTAL':24s} {len(edges):>8} {sum(by_kind.values()):>10}"
          f"   ({sum(e['count'] for e in attributed)} attributed to a cause)\n")

    by_subset = collections.defaultdict(collections.Counter)
    for e in attributed:
        by_subset[e["subset"]][e["kind"]] += e["count"]
    if by_subset:
        print("## attributed damage by coalition subset (-1 = no plan / unmapped)")
        for subset in sorted(by_subset):
            kinds = ", ".join(f"{k}={v}" for k, v in by_subset[subset].most_common(4))
            print(f"  subset {subset:>2}: {sum(by_subset[subset].values()):>10}   ({kinds})")
        print()

    by_cause = collections.Counter()
    for e in attributed:
        by_cause[e["cause"]] += e["count"]
    if by_cause:
        total = sum(by_cause.values())
        hhi = sum((v / total) ** 2 for v in by_cause.values())
        print(f"## top {args.top} offenders ({len(by_cause)} distinct causes, "
              f"concentration HHI = {hhi:.4f})")
        print(f"  {'cause':>8} {'units':>10} {'share':>8}")
        for cause, units in by_cause.most_common(args.top):
            print(f"  {cause:>8} {units:>10} {units / total:>7.1%}")
        print()

    # Damage by the cause's hop distance to the victim (victimDist is written
    # for sampled trials of scenarios with a placement victim).
    shells = collections.Counter()
    for b in blocks:
        dist = b["blame"].get("victimDist") or []
        for e in b["blame"]["edges"]:
            if 0 <= e["cause"] < len(dist) and dist[e["cause"]] != 0xFFFF:
                shells[dist[e["cause"]]] += e["count"]
    if shells:
        known, cum = sum(shells.values()), 0
        print("## attributed damage vs cause's distance to the victim")
        print(f"  {'hops':>5} {'units':>10} {'share':>8}  cumulative")
        for hops in sorted(shells):
            cum += shells[hops]
            print(f"  {hops:>5} {shells[hops]:>10} {shells[hops] / known:>7.1%}"
                  f"  {cum / known:>7.1%}")
        print()

    lineage = [(e["cause"], e["victim"]) for e in edges if e["kind"] == "rejoinLineage"]
    if lineage:
        print(f"## churn whitewashing lineage ({len(lineage)} rejoins)")
        for old, fresh in lineage[:args.top]:
            print(f"  byz {old if old >= 0 else '?':>8} -> fresh identity {fresh}")
        print()

    totals = collections.Counter()
    for b in blocks:
        totals.update(b["blame"]["totals"])
    if totals:
        print("## protocol-side denominators (AdversaryStats mirrors)")
        for name in sorted(totals):
            print(f"  {name:32s} {totals[name]:>10}")
    return 0


# --- chrome ------------------------------------------------------------------

FLOW = {"walk.launch": {"ph": "s"}, "walk.answer": {"ph": "f", "bp": "e"},
        "walk.drop": {"ph": "f", "bp": "e"}}


def chrome_events(blocks):
    """trace_event objects; timestamps in microseconds."""
    for pid, b in enumerate(blocks):
        yield {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": tag(b)}}
        for e in b["events"]:
            at = {"pid": pid, "tid": e["lane"], "ts": e["ts"] / 1000.0}
            if e["type"] == "round":  # per-round traffic as one counter track
                yield {"ph": "C", "name": "engine.traffic", **at, "args": {
                    "messages": e["messages"], "bits": e["bits"], "touched": e["touched"]}}
            elif e["type"] == "span":
                yield {"ph": "X", "name": e["name"], **at, "dur": e["dur"] / 1000.0,
                       "args": {"round": e["round"]}}
            elif e["type"] == "counter":
                yield {"ph": "C", "name": e["name"], **at, "args": {"value": e["value"]}}
            else:
                # A walk's launch and answer/drop marks share its flow id, so
                # the viewer draws an arrow across rounds and lanes.
                if e["name"] in FLOW:
                    yield {**FLOW[e["name"]], "cat": "walk", "name": "walk",
                           "id": int(e["value"]), **at}
                yield {"ph": "i", "name": e["name"], **at, "s": "t"}


def cmd_chrome(args):
    try:
        blocks = load(args.record)
    except (OSError, RecordError) as e:
        fail("INVALID", [str(e)])
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in chrome_events(blocks))
    sys.stdout.write('{"traceEvents":[\n' + lines + "\n]}\n")
    return 0


# --- main --------------------------------------------------------------------

def cmd_validate(args):
    blocks = load_all(args.records)
    print(f"OK: {len(blocks)} block(s) in {len(args.records)} file(s); schema, totals "
          "and blame identities reconcile")
    return 0


def cmd_diff(args):
    problems = diff(load_all([args.a]), load_all([args.b]))
    if problems:
        fail("DIFF", problems)
    print(f"OK: deterministic projections of {args.a} and {args.b} are identical")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("validate", help="check records; exit 1 on any problem")
    p.add_argument("records", type=Path, nargs="+")
    p.set_defaults(run=cmd_validate)
    p = sub.add_parser("diff", help="compare two records' deterministic projections")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.set_defaults(run=cmd_diff)
    p = sub.add_parser("report", help="markdown/HTML report")
    p.add_argument("records", type=Path, nargs="+")
    p.add_argument("--bench", type=Path, action="append", default=[],
                   help="BENCH_*.json row file (repeatable)")
    p.add_argument("--out", type=Path, help="markdown output (default stdout)")
    p.add_argument("--html", type=Path, help="also write a self-contained HTML report")
    p.add_argument("--check", action="store_true", help="exit 1 when a section is empty")
    p.set_defaults(run=cmd_report)
    p = sub.add_parser("blame", help="damage attribution report")
    p.add_argument("records", type=Path, nargs="+")
    p.add_argument("--top", type=int, default=10, help="rows in the offender list")
    p.set_defaults(run=cmd_blame)
    p = sub.add_parser("chrome", help="chrome://tracing timeline on stdout")
    p.add_argument("record", type=Path)
    p.set_defaults(run=cmd_chrome)
    args = ap.parse_args()
    return args.run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # | head closing stdout is not an error
        sys.exit(0)
