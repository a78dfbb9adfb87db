"""Compare two sets of benchmark records: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the .json records that bench/run.py writes to
.bench_results/.  Runs are paired by workload, trace mode and seed.  For
every workload and every metric of BENCHMARK.json the tool prints each
side's median and quartiles, the share of pairs the change won, and a
verdict:

  improved    the change won at least nine in ten pairs (ties count for
              neither) and the medians differ by more than the parent's
              own interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound, or, with no bound, the change lost nine
              in ten pairs by more than that range;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound and neither side beat every run of the other, or a
              metric without a bound that is neither improved nor worse;
  no worse    otherwise.

Per-layer metrics have no bound and only inform.  The exit code is 1 when
an end-to-end verdict is "worse" or a change run failed a check, so the
tool can gate a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PAIR_SHARE = 0.9


def load_runs(directory: Path) -> dict:
    """{(workload, trace): {seed: record}} for the full-size records."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("size", "full") != "full":
            continue
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(q: tuple) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(parent: list, change: list, better: str, bound) -> tuple:
    """(verdict, pairs won by the change, pairs decided) for paired values."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(1 for g in gains if g > 0)
    lost = sum(1 for g in gains if g < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    spread = pq3 - pq1
    diff = sign * (cmed - pmed)
    n = len(gains)
    if n and won >= PAIR_SHARE * n and diff > spread:
        return "improved", won, n
    if bound is None:
        if n and lost >= PAIR_SHARE * n and -diff > spread:
            return "worse", won, n
        return "unresolved", won, n
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if pmed and spread / abs(pmed) > bound:
        if all_better:
            return "no worse", won, n
        return ("worse" if all_worse else "unresolved"), won, n
    if -diff > bound * abs(pmed):
        return "worse", won, n
    return "no worse", won, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = False
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p_runs = parent.get((wl, trace), {})
            c_runs = change.get((wl, trace), {})
            seeds = sorted(set(p_runs) & set(c_runs))
            if not seeds:
                continue
            failed = [s for s in seeds if not c_runs[s]["correct"]]
            print(f"\n== {wl}, trace {trace}: {len(seeds)} paired runs "
                  f"(seeds {seeds[0]}..{seeds[-1]})")
            if failed:
                bad = True
                print(f"   change failed its checks on seeds {failed}")
            print(f"   {'metric':44s} {'unit':6s} {'parent med [q1, q3]':>30s}"
                  f" {'change med [q1, q3]':>30s} {'ratio':>6s} {'won':>6s}"
                  f"  verdict")
            for m in metrics:
                name = m["name"]
                pv = [p_runs[s]["metrics"][name]["value"] for s in seeds]
                cv = [c_runs[s]["metrics"][name]["value"] for s in seeds]
                v, won, n = verdict(pv, cv, m["better"], m.get("bound"))
                bad |= trace == 0 and v == "worse"
                pq, cq = quartiles(pv), quartiles(cv)
                ratio = f"{cq[1] / pq[1]:.3f}" if pq[1] else "-"
                print(f"   {name:44s} {m['unit']:6s} {_fmt(pq):>30s}"
                      f" {_fmt(cq):>30s} {ratio:>6s} {won:>3d}/{n:<2d}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
