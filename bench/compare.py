"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl [--same-code]

Each file holds the records that ``bench/sweep.py`` (or ``run.py --record``)
appends, one per run.  For every end-to-end metric in ``BENCHMARK.json`` the
command prints each side's median and quartiles, the spread (quartile
distance over the median), the pairs the second set won (runs paired by
seed), and a verdict:

- ``better``: every second-set run beats every first-set run; or, with both
  spreads within the bound, the second set wins at least nine tenths of the
  pairs (ties count for neither) and the medians differ by more than the
  first set's quartile distance.
- ``unresolved``: a spread is wider than the metric's bound.
- ``worse``: the second median is worse than the first by more than the bound.
- ``unchanged``: otherwise.

It also checks whether the two sets agree as two runs of the same code
should: every spread within its bound, no second median worse than the
first by more than the bound, every run correct, and exactly equal size
counters for equal seeds.  With ``--same-code`` the exit status is 1 when
they do not agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Untraced records by workload, each list ordered by seed."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return {w: sorted(recs, key=lambda r: r["seed"]) for w, recs in runs.items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else float("inf")


def pairs(a_recs, b_recs, name):
    """(first, second) values of the runs with the same seed."""
    b_by_seed = {r["seed"]: r for r in b_recs}
    return [(a["result"]["metrics"][name]["value"],
             b_by_seed[a["seed"]]["result"]["metrics"][name]["value"])
            for a in a_recs if a["seed"] in b_by_seed]


def compare(first, second, spec, out=print):
    agree = True
    for workload in [w["name"] for w in spec["workloads"]]:
        a_recs, b_recs = first.get(workload, []), second.get(workload, [])
        if len(a_recs) < 2 or len(b_recs) < 2:
            out(f"{workload}: fewer than two runs in a set, skipped")
            agree = False
            continue
        out(f"{workload} ({len(a_recs)} vs {len(b_recs)} runs)")
        out(f"  {'metric':<18} {'first median [q1, q3]':>34} {'second median [q1, q3]':>34}"
            f" {'change':>8} {'won':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a = [r["result"]["metrics"][name]["value"] for r in a_recs]
            b = [r["result"]["metrics"][name]["value"] for r in b_recs]
            qa, qb = summary(a), summary(b)
            worse = sign * (qb[1] - qa[1]) / abs(qa[1])
            paired = pairs(a_recs, b_recs, name)
            won = sum(1 for x, y in paired if sign * (y - x) < 0)
            lost = sum(1 for x, y in paired if sign * (y - x) > 0)
            if all(sign * (y - x) < 0 for y in b for x in a):
                result = "better"
            elif qa[3] > bound or qb[3] > bound:
                result = "unresolved"
            elif (paired and won >= 0.9 * len(paired) and sign * (qb[1] - qa[1]) < 0
                  and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                result = "better"
            elif worse > bound:
                result = "worse"
            else:
                result = "unchanged"
            if qa[3] > bound or qb[3] > bound or worse > bound:
                agree = False
            out(f"  {name:<18} {_fmt(qa):>34} {_fmt(qb):>34} {100 * worse:>+7.1f}%"
                f" {won:>2}/{len(paired):<3}  {result}  (spreads {qa[3]:.3f}, {qb[3]:.3f};"
                f" bound {bound}; {lost} lost)")
        for side, recs in (("first", a_recs), ("second", b_recs)):
            wrong = [r["seed"] for r in recs if not r["result"]["correct"]]
            if wrong:
                agree = False
                out(f"  {side} set: wrong verdicts in the runs with seeds {wrong}")
        b_by_seed = {r["seed"]: r for r in b_recs}
        for r in a_recs:
            other = b_by_seed.get(r["seed"])
            if other is not None and other["counters"] != r["counters"]:
                agree = False
                out(f"  size counters differ for seed {r['seed']}")
    out("the two sets agree" if agree else "the two sets do NOT agree")
    return agree


def _fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="results of the parent (or of the first set)")
    parser.add_argument("second", help="results of the change (or of the second set)")
    parser.add_argument("--same-code", action="store_true",
                        help="exit 1 unless the two sets agree as runs of the same code")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    agree = compare(load(args.first), load(args.second), spec)
    return 0 if agree or not args.same_code else 1


if __name__ == "__main__":
    sys.exit(main())
