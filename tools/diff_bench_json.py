#!/usr/bin/env python3
"""Diff two directories of BENCH_*.json trajectories (JSON lines, one
ExperimentSummary per line, as emitted by the benches under BZC_OUTPUT=json).

Usage: diff_bench_json.py PREV_DIR CURR_DIR [--strict]

Scenario rows are keyed by summary name. Master seeds and trial counts are
fixed per bench, so with unchanged code every metric reproduces exactly —
any delta is a real behaviour change (intended or not) in the commit range
between the two runs. The report is markdown (suitable for
$GITHUB_STEP_SUMMARY).

Regression verdicts are statistical, not raw point-delta thresholds
(DESIGN.md §13): when both rows carry per-trial "samples" arrays, a shifted
metric gets a two-sided Mann–Whitney U rank-sum test (normal approximation
with tie correction and continuity correction) — a shift only *gates* when
the two trial distributions are distinguishable at --alpha (default 0.01),
not merely different in the mean. Rows without samples (pre-upgrade
artifacts) fall back to bootstrap 95% CI overlap when the distributions
carry ci95lo/ci95hi, then to the legacy mean-delta threshold. wall_ms is
machine-load telemetry with a single sample per row, so it keeps its
relative + absolute noise floor instead.

Exit status is 0 unless --strict is given and a gated regression exists: the
scheduled workflow runs non-strict so an intentional protocol change does
not leave the cron red until the next run re-baselines.
"""

import argparse
import json
import math
import sys
from pathlib import Path

# (json key, pretty name)
KEY_METRICS = [
    ("fracDecided", "frac decided"),
    ("fracWithinWindow", "frac in window"),
    ("totalRounds", "rounds"),
    ("totalMessages", "messages"),
    ("totalBits", "bits"),
]
QUALITY_KEYS = {"fracDecided", "fracWithinWindow"}

# Direction per sampled metric: quality metrics regress when they *drop*,
# cost metrics when they *rise*; meanRatio is an accuracy ratio around 1 with
# no monotone "better" direction, so shifts are reported but never gate.
SAMPLE_METRICS = {
    "fracDecided": "higher",
    "fracWithinWindow": "higher",
    "meanRatio": "neutral",
    "totalRounds": "lower",
    "totalMessages": "lower",
    "totalBits": "lower",
}

# Named extras where *larger* is worse (churn scenarios emit an "extraNames"
# array labelling their positional extras): estimate staleness / drift rising
# between runs is a quality regression even though a fraction-shaped value
# dropping is the usual direction.
LOWER_IS_BETTER_EXTRAS = {"meanStaleness", "maxStaleness", "meanDrift", "maxDrift"}

# wall_ms is machine-load telemetry, not a deterministic metric: two identical
# binaries easily differ by tens of percent on shared CI runners. Treat it as
# lower-is-better but only flag a rise beyond BOTH a relative factor and an
# absolute floor (short rows jitter the hardest in relative terms).
WALL_MS_REL_NOISE = 0.25   # ignore rises under 25%
WALL_MS_ABS_FLOOR = 50.0   # ignore rises under 50 ms either way


def mann_whitney_u(a, b) -> float:
    """Two-sided Mann–Whitney U p-value via the normal approximation with
    average ranks for ties, tie-corrected variance and continuity correction.
    Returns 1.0 for degenerate inputs (empty sides, all values tied)."""
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        return 1.0
    combined = sorted([(v, 0) for v in a] + [(v, 1) for v in b])
    n = n1 + n2
    ranks = [0.0] * n
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and combined[j][0] == combined[i][0]:
            j += 1
        avg_rank = (i + j + 1) / 2.0  # 1-based average rank of the tied block
        t = j - i
        tie_term += t ** 3 - t
        for k in range(i, j):
            ranks[k] = avg_rank
        i = j
    r1 = sum(r for r, (_, g) in zip(ranks, combined) if g == 0)
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if sigma2 <= 0.0:
        return 1.0  # every value tied: the distributions are indistinguishable
    cc = 0.5 if u1 != mu else 0.0  # continuity correction toward the mean
    z = (abs(u1 - mu) - cc) / math.sqrt(sigma2)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def ci_overlap(dist_a, dist_b, allow_degenerate=False):
    """True/False when both distributions carry bootstrap CIs (overlapping
    95% CIs = not distinguishable), None when either lacks them. Point CIs
    (lo == hi) normally mean "single trial, no bootstrap" and return None;
    allow_degenerate treats them as genuine point masses — correct when the
    caller knows ≥ 2 trials fed the bootstrap (identical per-trial values
    legitimately collapse the interval, and the metric is deterministic)."""
    try:
        a_lo, a_hi = dist_a["ci95lo"], dist_a["ci95hi"]
        b_lo, b_hi = dist_b["ci95lo"], dist_b["ci95hi"]
    except (KeyError, TypeError):
        return None
    if not allow_degenerate and a_lo == a_hi and b_lo == b_hi:
        return None  # degenerate CIs (single trial / no bootstrap stream)
    return not (a_hi < b_lo or b_hi < a_lo)


def load_dir(path: Path) -> dict:
    """name -> summary dict, from every BENCH_*.json under path."""
    rows = {}
    for f in sorted(path.glob("**/BENCH_*.json")):
        for line in f.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                print(f"warning: unparseable line in {f}", file=sys.stderr)
                continue
            rows[row["name"]] = row
    return rows


def fmt(x: float) -> str:
    return f"{x:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("prev", type=Path)
    ap.add_argument("curr", type=Path)
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when a gated regression exists")
    ap.add_argument("--quality-drop", type=float, default=0.05,
                    help="legacy mean-delta threshold for rows without samples/CIs")
    ap.add_argument("--alpha", type=float, default=0.01,
                    help="significance level for the Mann–Whitney U verdict")
    args = ap.parse_args()

    prev = load_dir(args.prev) if args.prev.exists() else {}
    curr = load_dir(args.curr)

    if not prev:
        print("## Bench diff\n\nNo previous artifact found — baseline run, nothing to diff.")
        return 0

    changed, added, removed, regressions, verdicts = [], [], [], [], []
    for name, row in sorted(curr.items()):
        if name not in prev:
            added.append(name)
            continue
        old = prev[name]
        deltas = []
        # Sharded rows (bench_t12_scale) carry their engine shard count; a
        # changed shard count is a configuration change worth flagging next to
        # the metric deltas, not a regression — fingerprints stay invariant
        # for the pinned scenarios, so metrics moving *with* an unchanged
        # shard count is the signal to scrutinise.
        old_shards = old.get("shards", 1)
        new_shards = row.get("shards", 1)
        if old_shards != new_shards:
            deltas.append(f"shards: {old_shards} → {new_shards} (config change)")
        # Wall-clock and peak-RSS telemetry (PR 8): reported outside `deltas`
        # so nondeterministic machine noise never marks a scenario "changed",
        # but a wall_ms rise beyond the noise floor still joins the regression
        # list (it gates only under --strict, like the quality metrics).
        a_wall, b_wall = old.get("wall_ms"), row.get("wall_ms")
        if a_wall is not None and b_wall is not None and a_wall > 0:
            rise = b_wall - a_wall
            if rise > WALL_MS_ABS_FLOOR and rise / a_wall > WALL_MS_REL_NOISE:
                regressions.append(
                    f"{name}: wall_ms rose {fmt(a_wall)} → {fmt(b_wall)} "
                    f"({rise / a_wall:+.2%}, noise floor {WALL_MS_REL_NOISE:.0%}/"
                    f"{WALL_MS_ABS_FLOOR:.0f}ms)")
        # Statistical verdict on the sampled metrics: the gate for rows that
        # carry per-trial samples. Falls back to CI overlap, then to the
        # legacy mean-delta threshold, for older artifacts.
        old_samples = old.get("samples", {})
        new_samples = row.get("samples", {})
        stat_tested = set()
        for key, direction in SAMPLE_METRICS.items():
            a_s, b_s = old_samples.get(key), new_samples.get(key)
            if not a_s or not b_s:
                continue
            stat_tested.add(key)
            if a_s == b_s:
                continue  # bit-identical trial distribution: clean by definition
            p = mann_whitney_u(a_s, b_s)
            mean_a = sum(a_s) / len(a_s)
            mean_b = sum(b_s) / len(b_s)
            significant = p < args.alpha
            # MWU is underpowered at nightly trial counts (n=3 vs 3 bottoms
            # out at p≈0.05 two-sided, above any reasonable α), so disjoint
            # bootstrap CIs on the summary distribution are an equal second
            # arm: either test distinguishing the runs makes the shift gate.
            overlap = ci_overlap(old.get(key, {}), row.get(key, {}),
                                 allow_degenerate=min(len(a_s), len(b_s)) >= 2)
            worse = (direction == "higher" and mean_b < mean_a) or \
                    (direction == "lower" and mean_b > mean_a)
            if significant:
                tag = "significant"
            elif overlap is False:
                tag = "disjoint 95% CIs"
            else:
                tag = "within trial noise"
            verdicts.append(f"{name}: {key} {fmt(mean_a)} → {fmt(mean_b)} "
                            f"(MWU p={p:.4g}, {tag})")
            if (significant or overlap is False) and worse:
                why = (f"MWU p={p:.4g} < α={args.alpha}" if significant
                       else f"disjoint 95% CIs, MWU p={p:.4g}")
                regressions.append(
                    f"{name}: {key} regressed {fmt(mean_a)} → {fmt(mean_b)} ({why})")
        for key, pretty in KEY_METRICS:
            a_d, b_d = old.get(key, {}), row.get(key, {})
            a, b = a_d.get("mean"), b_d.get("mean")
            if a is None or b is None or a == b:
                continue
            rel = (b - a) / abs(a) if a else float("inf")
            deltas.append(f"{pretty}: {fmt(a)} → {fmt(b)} ({rel:+.2%})")
            if key in stat_tested:
                continue  # the rank-sum verdict above owns the gate
            if key in QUALITY_KEYS and (a - b) > args.quality_drop:
                # CI-overlap fallback: suppress the legacy threshold when the
                # bootstrap intervals overlap (the drop is within resampling
                # noise); gate when they are disjoint or absent.
                overlap = ci_overlap(a_d, b_d)
                if overlap is True:
                    verdicts.append(f"{name}: {key} dropped {fmt(a)} → {fmt(b)} "
                                    "but 95% CIs overlap — not gated")
                else:
                    if overlap is False:
                        verdicts.append(f"{name}: {key} dropped {fmt(a)} → {fmt(b)} "
                                        "with disjoint 95% CIs")
                    regressions.append(f"{name}: {pretty} dropped {fmt(a)} → {fmt(b)}")
        # Extras are positional in the JSON (slot meaning is bench-defined;
        # for agreement rows slot 0 is fracAgreeing — the metric fracDecided
        # cannot see, since Agreement trials hardwire it to 1.0). Churn rows
        # additionally carry an "extraNames" array labelling the slots.
        # Report every moved slot; for the regression gate treat
        # fraction-shaped slots (both values in [0, 1]) as quality, except
        # named lower-is-better metrics (staleness/drift), which regress
        # when they *rise*. Disjoint bootstrap CIs sharpen the verdict when
        # both sides carry them (extras emit the full distribution field set).
        old_extras = old.get("extras", [])
        names = row.get("extraNames", [])
        for i, slot in enumerate(row.get("extras", [])):
            old_slot = old_extras[i] if i < len(old_extras) else {}
            a = old_slot.get("mean")
            b = slot.get("mean")
            if a is None or b is None or a == b:
                continue
            label = f"extra[{names[i]}]" if i < len(names) else f"extra[{i}]"
            deltas.append(f"{label}: {fmt(a)} → {fmt(b)}")
            regressed = False
            if i < len(names) and names[i] in LOWER_IS_BETTER_EXTRAS:
                regressed = (b - a) > args.quality_drop
            elif 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
                regressed = (a - b) > args.quality_drop
            if regressed:
                if ci_overlap(old_slot, slot) is True:
                    verdicts.append(f"{name}: {label} moved {fmt(a)} → {fmt(b)} "
                                    "but 95% CIs overlap — not gated")
                else:
                    regressions.append(f"{name}: {label} moved {fmt(a)} → {fmt(b)}")
        # Fingerprint inequality alone also counts: extras are outside
        # fingerprint(), and fingerprints can move without shifting any mean.
        if deltas or old.get("combinedFingerprint") != row.get("combinedFingerprint"):
            changed.append((name, deltas))
    removed = sorted(set(prev) - set(curr))

    print("## Bench diff vs previous scheduled run\n")
    print(f"Scenarios: {len(curr)} current, {len(prev)} previous; "
          f"{len(changed)} changed, {len(added)} new, {len(removed)} removed.\n")
    if changed:
        print("### Changed scenarios\n")
        for name, deltas in changed:
            print(f"- **{name}**")
            for d in deltas:
                print(f"  - {d}")
            if not deltas:
                print("  - fingerprint differs but every mean is identical "
                      "(per-trial distribution moved)")
        print()
    if added:
        print("### New scenarios\n")
        for name in added:
            print(f"- {name}")
        print()
    if removed:
        print("### Removed scenarios\n")
        for name in removed:
            print(f"- {name}")
        print()
    if verdicts:
        print(f"### Statistical verdicts (Mann–Whitney U, α={args.alpha:g}; "
              "bootstrap CI overlap)\n")
        for v in verdicts:
            print(f"- {v}")
        print()
    if regressions:
        print("### Regressions (gate under --strict)\n")
        for r in regressions:
            print(f"- {r}")
        print()
    if not (changed or added or removed or verdicts or regressions):
        print("Everything reproduced bit-for-bit.")

    return 1 if (args.strict and regressions) else 0


if __name__ == "__main__":
    sys.exit(main())
