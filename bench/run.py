"""Run one seeded workload of the zwreath benchmark and print its metrics.

    python3 bench/run.py --workload roots-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Load is a closed loop with one client in this one process: the next instance
starts only when the previous one has finished.  The run sets up several
times (fresh import, input generation, warm-up), keeping only the last
set-up's program and inputs, and reports the median set-up time.  It then
measures for ``--seconds`` seconds, and at least over the instances whose
size counters it reports.  Every answer is checked against the benchmark's
own reference.

Every reported time is wall-clock time rescaled to a reference host speed:
a fixed pure-Python loop, independent of the program, is timed before and
after each set-up and every quarter second between instances, and times are
multiplied by ``NOMINAL_S`` over its mean time nearby.  The host's speed
drifts by up to 2x over seconds to minutes, and this cancels most of that
drift.  The wall-clock median and the loop's times are printed too.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every instance runs twice, once plain and once under span
wrappers, and the run reports the per-layer metrics, the tracing overhead
(traced minus untraced ``instance_s_p50``), and writes the spans to
``bench/results/trace-<workload>-seed<seed>.json``.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 when every verdict was right, 1 when one was wrong, and
2 when the program cannot be imported (no result is printed then).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from counters import witness_size
from spans import PER_LAYER, Tracer
from workloads import GENERATORS, Runner, generate, import_program

RESULTS = Path(__file__).resolve().parent / "results"


@dataclass(frozen=True)
class Plan:
    """Fixed sizes of one workload; identical on every commit."""

    pool: int      # instances generated from the seed (cycled if a run needs more)
    counted: int   # leading instances whose size counters are reported; always run
    tail: int      # the tail percentile reported as instance_s_tail


PLANS = {
    "roots-small": Plan(pool=1200, counted=48, tail=90),
    "roots-large": Plan(pool=600, counted=24, tail=90),
    "oracle-grid": Plan(pool=8000, counted=120, tail=95),
    "iterated-depth": Plan(pool=600, counted=15, tail=90),
}

SETUPS = 11    # set-ups per run; setup_s is their median
WARMUP = 1     # leading instances run, untimed, in each set-up

# The host's speed drifts by up to 2x over seconds to minutes.  A fixed loop,
# timed around each set-up and every CALIBRATE_EVERY seconds between
# instances, measures it, and every reported time is rescaled to the speed at
# which that loop takes NOMINAL_S.
CALIBRATE_EVERY = 0.25
NOMINAL_S = 0.011

END_TO_END = (
    ("instances_per_s", "1/s"), ("instance_s_p50", "s"), ("instance_s_tail", "s"),
    ("setup_s", "s"), ("peak_rss_mib", "MiB"),
    ("system_equations", "count"), ("witness_terms", "count"),
)


def calibration_loop():
    """Fixed pure-Python work, independent of the program; returns its seconds.

    Scattered reads from a list of about 1 MiB, then a sort.  Its speed
    follows the host's drift more closely than a loop over a small dict
    does, which stays in the cache and speeds up more than the program.
    """
    start = time.perf_counter()
    items = [(i * 2654435761) % 1000003 for i in range(30000)]
    total = 0
    for i in range(30000):
        total += items[(i * 7919) % 30000]
    items.sort()
    return time.perf_counter() - start


def set_up(workload, seed, workdir):
    """Import the program, generate the inputs and warm up.

    Returns the set-up time in reference seconds, the runner and the pool.
    """
    before = calibration_loop()
    start = time.perf_counter()
    zw = import_program()
    pool = generate(workload, seed, PLANS[workload].pool)
    runner = Runner(zw, workload, workdir)
    for inst in pool[:WARMUP]:
        runner.run(inst)
    seconds = time.perf_counter() - start
    after = calibration_loop()
    return seconds * 2 * NOMINAL_S / (before + after), runner, pool


def set_up_repeatedly(workload, seed, workdir):
    """SETUPS set-ups; the median time, and the last set-up's runner and pool.

    Each earlier set-up's program copy and inputs are freed before the next
    one starts, so they do not raise the peak RSS of the run.
    """
    setup_times, runner, pool = [], None, None
    for _ in range(SETUPS):
        runner = pool = None
        gc.collect()
        seconds, runner, pool = set_up(workload, seed, workdir)
        setup_times.append(seconds)
    return statistics.median(setup_times), runner, pool


def measure(runner, pool, plan, seconds, tracer=None):
    """The closed loop.  Returns per-instance times, verdicts and counters."""
    times, traced_times, counted, calibration = [], [], [], []
    attempted, failures, counting = 0, [], 0.0
    start = time.perf_counter()
    deadline = start + seconds
    calibrated = start - CALIBRATE_EVERY
    i = 0
    while i < plan.counted or time.perf_counter() < deadline:
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY:
            calibrated = time.perf_counter()
            calibration.append(calibration_loop())
        inst = pool[i % len(pool)]
        # A traced run times each instance plain and traced, in alternating order.
        passes = (False,) if tracer is None else (False, True) if i % 2 == 0 else (True, False)
        for traced in passes:
            if traced:
                tracer.install(runner.zw)
                try:
                    out, seconds_traced = tracer.instance(i, runner.run, inst)
                finally:
                    tracer.uninstall()
                traced_times.append(seconds_traced)
            else:
                t0 = time.perf_counter()
                out = runner.run(inst)
                times.append(time.perf_counter() - t0)
            attempted += out.attempted
            failures.extend(out.failures)
        if i < plan.counted:
            t0 = time.perf_counter()
            counted.append(runner.counters(inst, out))
            counting += time.perf_counter() - t0
        i += 1
    # The calibration loops and the benchmark's own counters are not timed.
    elapsed = time.perf_counter() - start - sum(calibration) - counting
    return {"times": times, "traced_times": traced_times, "counted": counted,
            "attempted": attempted, "failures": failures, "elapsed": elapsed,
            "scale": NOMINAL_S / statistics.fmean(calibration),
            "calibration": calibration}


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(run, setup_s, plan):
    times, counted, scale = run["times"], run["counted"], run["scale"]
    return {
        "instances_per_s": len(times) / run["elapsed"] / scale,
        "instance_s_p50": statistics.median(times) * scale,
        "instance_s_tail": percentile(times, plan.tail) * scale,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # oracle-grid has no system: its verdict rests on one membership test.
        "system_equations": statistics.fmean(c.get("equations", 1) for c in counted),
        "witness_terms": statistics.fmean(witness_size(c) for c in counted),
    }


def counter_totals(counted):
    totals = {}
    for c in counted:
        for key, value in c.items():
            if key != "ranks":
                totals[key] = max(totals.get(key, 0), value) if key in (
                    "coeff_bits", "exponent_span") else totals.get(key, 0) + value
    return totals


def _line(name, value, unit, note=""):
    print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}".rstrip())


def report_calibration(run):
    cal = run["calibration"]
    print(f"  calibration loop: mean {statistics.fmean(cal) * 1e3:.4g} ms over {len(cal)} samples "
          f"(range {min(cal) * 1e3:.4g} to {max(cal) * 1e3:.4g}); times below are wall-clock "
          f"seconds x {run['scale']:.4g}, the speed at which it takes {NOMINAL_S * 1e3:g} ms")


def report_end_to_end(args, plan, run, metrics):
    times = run["times"]
    tail = metrics["instance_s_tail"] / run["scale"]
    units = dict(END_TO_END)
    print(f"{args.workload}: seed {args.seed}, {len(times)} instances in "
          f"{run['elapsed']:.2f} s, closed loop with one client; wall-clock "
          f"instance_s_p50 {statistics.median(times):.6g} s")
    report_calibration(run)
    for name, value in metrics.items():
        note = ""
        if name == "instance_s_tail":
            note = (f"p{plan.tail} of {len(times)} samples, "
                    f"{sum(t > tail for t in times)} beyond")
        if name == "setup_s":
            note = f"median of {SETUPS} set-ups, each scaled by the loop timed around it"
        if name in ("system_equations", "witness_terms"):
            note = f"mean over the first {plan.counted} instances"
            if args.workload == "oracle-grid":
                note += (", no system: one membership test" if name == "system_equations"
                         else ", terms of e_f")
        _line(name, value, units[name], note)
    failed = len(run["failures"])
    _line("fail_ratio", failed / max(run["attempted"], 1), "",
          f"{failed} of {run['attempted']} operations")


def report_trace(args, run, tracer, metrics):
    untraced = statistics.median(run["times"])
    traced = statistics.median(run["traced_times"])
    print(f"{args.workload}: seed {args.seed}, {tracer.instances} traced instances, "
          f"wall-clock instance_s_p50 untraced {untraced:.6g} s, traced {traced:.6g} s")
    report_calibration(run)
    units = dict(PER_LAYER)
    for name, value in metrics.items():
        _line(name, value, units[name])
    inside = tracer.breakdown("reduction.witness")
    if inside:
        total = sum(inside.values())
        print(f"  inside reduction.witness ({total / 1e9 / tracer.instances:.6g} s per instance): "
              + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in inside.most_common()))
    by_ranks = {}
    for c in run["counted"]:
        if "ranks" in c:
            by_ranks.setdefault(c["ranks"], set()).add(c["equations"])
    if by_ranks:
        print("  system equations by rank list (counted instances): "
              + ", ".join(f"{','.join(map(str, r))}: {'/'.join(map(str, sorted(e)))}"
                          for r, e in sorted(by_ranks.items(), key=lambda kv: (len(kv[0]), kv[0]))))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result as one JSON line to this file")
    args = parser.parse_args(argv)
    plan = PLANS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        try:
            setup_s, runner, pool = set_up_repeatedly(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        tracer = Tracer() if args.trace else None
        run = measure(runner, pool, plan, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(run, setup_s, plan)
        report_end_to_end(args, plan, run, metrics)
    else:
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = (statistics.median(run["traced_times"])
                                       - statistics.median(run["times"]))
        for name, unit in PER_LAYER:
            if unit == "s":
                metrics[name] *= run["scale"]
        report_trace(args, run, tracer, metrics)
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "columns": ["key", "function", "start_ns", "end_ns", "parent", "instance"],
            "spans": tracer.dump(), "per_layer": metrics}))
        print(f"  spans written to {trace_file.relative_to(RESULTS.parent.parent)}")

    failures = run["failures"]
    for message in failures[:10]:
        print(f"wrong: {message}", file=sys.stderr)
    result = {"correct": not failures, "attempted": run["attempted"], "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in (PER_LAYER if args.trace else END_TO_END)}}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "counters": counter_totals(run["counted"]),
                                 "calibration_s": run["calibration"],
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
