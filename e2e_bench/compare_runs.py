#!/usr/bin/env python3
"""Compares benchmark runs of two commits (or two sets of the same commit).

    python3 e2e_bench/compare_runs.py PARENT CHANGE [--traced]
    python3 e2e_bench/compare_runs.py --same-code A B

Each side is a directory of run records (the JSON files vbatch_bench writes,
which run.py keeps under <build dir>/runs/) or one such file; smoke runs and
Chrome traces are skipped. Runs pair up by (workload, seed).

For every (workload, end-to-end metric) the report gives each side's median
and quartiles, the fraction of pairs the change wins (ties count for
neither), and a verdict against the bound in BENCHMARK.json:
  improved    wins >= 9/10 of the pairs and the medians differ by more than
              the parent's own quartile spread;
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no worse    otherwise.
--traced compares the per-layer metrics of traced runs instead (they have
no bound, so they are never "worse"). --same-code checks that two sets of
runs of one commit agree: "identical" when every seed reads the same (the
modelled metrics), else medians within the bound of each other and each
side's spread within the bound (set-up time: median only). The exit status
is 1 on any "worse" or disagreement.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path, traced):
    """{workload: {metric: {seed: value}}} from run records."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        if f.name.endswith(".trace.json"):
            continue
        with open(f) as fh:
            rec = json.load(fh)
        if "workload" not in rec or rec.get("smoke") or bool(rec.get("traced")) != traced:
            continue
        if not rec.get("correct"):
            print(f"warning: {f} failed its correctness checks", file=sys.stderr)
        w = runs.setdefault(rec["workload"], {})
        for m in rec["metrics"]:
            if m["value"] is not None:
                w.setdefault(m["name"], {})[rec["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def wins(parent, change, higher):
    """Fraction of seed-matched pairs in which the change reads better."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return float("nan")
    better = sum(1 for s in seeds
                 if (change[s] > parent[s] if higher else change[s] < parent[s]))
    return better / len(seeds)


def verdict(p, c, higher, bound):
    p1, pm, p3 = quartiles(list(p.values()))
    _, cm, _ = quartiles(list(c.values()))
    scale = abs(pm) or 1.0
    gain = (cm - pm) / scale if higher else (pm - cm) / scale
    all_better = (min(c.values()) > max(p.values())) if higher else \
        (max(c.values()) < min(p.values()))
    if wins(p, c, higher) >= 0.9 and abs(cm - pm) > p3 - p1 and gain > 0:
        return "improved"
    if bound is None:
        return "-"
    if (p3 - p1) / scale > bound and not all_better:
        return "unresolved"
    return "worse" if -gain > bound else "no worse"


def agree(name, a, b, bound):
    """Medians within the bound; spreads too, except set-up time's, which
    is judged by its median alone."""
    if a == b:
        return "identical"
    if bound is None:
        return "-"
    a1, am, a3 = quartiles(list(a.values()))
    b1, bm, b3 = quartiles(list(b.values()))
    ok = abs(bm - am) / (abs(am) or 1.0) <= bound
    if name != "setup_s":
        ok = ok and (a3 - a1) / (abs(am) or 1.0) <= bound and (b3 - b1) / (abs(bm) or 1.0) <= bound
    return "agree" if ok else "DISAGREE"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="directory (or file) of parent / first-set run records")
    ap.add_argument("change", help="directory (or file) of change / second-set run records")
    ap.add_argument("--same-code", action="store_true")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.traced else spec["end_to_end"]
    parent, change = load(args.parent, args.traced), load(args.change, args.traced)
    bad = 0
    head = "agreement" if args.same_code else "verdict"
    print(f"{'workload':13s} {'metric':28s} {'side':7s} {'q1':>11s} {'median':>11s} "
          f"{'q3':>11s} {'n':>3s}  {'wins':>5s}  {head}")
    for workload in sorted(set(parent) | set(change)):
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            p = parent.get(workload, {}).get(name, {})
            c = change.get(workload, {}).get(name, {})
            if not p or not c:
                print(f"{workload:13s} {name:28s} missing on one side")
                bad += 1
                continue
            bound = m.get("bound")
            v = agree(name, p, c, bound) if args.same_code else verdict(p, c, higher, bound)
            bad += v in ("worse", "DISAGREE")
            for side, vals in (("parent" if not args.same_code else "A", p),
                               ("change" if not args.same_code else "B", c)):
                q1, med, q3 = quartiles(list(vals.values()))
                tail = f"  {wins(p, c, higher):5.2f}  {v}" if side in ("change", "B") else ""
                print(f"{workload:13s} {name:28s} {side:7s} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{len(vals):3d}{tail}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
