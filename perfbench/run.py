"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 40 --trace 0

Run from the repository root.  Every operation is a `pda-press` command
line executed in process through pdapress.cli.main, single-threaded, on
inputs generated from the seed.  Each answer is checked against the
expected value fixed at set-up.  The run repeats timed passes over the
workload's fixed operation list until --seconds would be exceeded and
reports medians over the passes.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, which alternates untraced and traced passes so the tracing
overhead is measured in the same process.  setup_s is the median of
several set-ups (a fresh import of the package, inputs, expected answers
and warm-up) spread over the measured seconds, so that like wall_s it
sees the host over the whole run and not at one instant.  Detailed
results (per-tier rows, disagreeing operations, and with --trace 1 all
spans and counters) are written to
perfbench/work/<workload>-<seed>/result.json.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up samples per untraced run: at least 5, and more where a set-up is
# short, up to about SETUP_SHARE of the measured seconds (25 at most)
SETUP_SAMPLES, SETUP_SHARE = 5, 0.05

END_TO_END = [
    ("wall_s", "s"), ("large_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("output_bytes", "bytes"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["roundtrip", "compare", "small-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="input sizes; tiny is for the smoke test")
    return ap.parse_args(argv)


def find_program() -> None:
    """Put the checkout's source tree on the import path."""
    src = ROOT / "src"
    if not (src / "pdapress" / "cli.py").is_file():
        raise SystemExit(f"error: no pdapress sources under {src}")
    sys.path.insert(0, str(src))


def program_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "pdapress" or k.startswith("pdapress.")}


def set_up_sample(workloads_mod, args, work):
    """Import the package afresh and set up in work; returns (seconds, workload, cli.main).

    A package imported before is put back afterwards, so every timed pass
    runs one copy of the program while each sample still pays a whole
    import and a cold warm-up.
    """
    earlier = program_modules()
    for name in earlier:
        del sys.modules[name]
    t0 = perf_counter()
    main = importlib.import_module("pdapress.cli").main
    wl = set_up(workloads_mod, main, args, work)
    took = perf_counter() - t0
    if earlier:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(earlier)
    return took, wl, main


def run_op(main, op, tracer=None, op_id=0):
    """Run one operation; return (seconds, problem or None, output bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.op = op_id
            root = tracer.begin("cli.main")
        t0 = perf_counter()
        try:
            code = main(op.argv)
        except SystemExit as e:  # argparse rejecting the command line
            code = e.code
        except Exception as e:  # noqa: BLE001 - an escaped error is a failed operation
            code = f"{type(e).__name__}: {e}"
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
    problem = None
    got = out.getvalue().strip()
    if code != op.code:
        problem = f"exit {code!r}, want {op.code}: {err.getvalue().strip()[:200]}"
    elif op.stdout is not None and got != op.stdout:
        problem = f"printed {got[:120]!r}, want {op.stdout[:120]!r}"
    elif op.check is not None:
        try:
            problem = op.check()
        except (OSError, ValueError, KeyError, IndexError) as e:
            problem = f"unreadable output: {type(e).__name__}: {e}"
    size = sum(p.stat().st_size for p in op.outputs if p.exists())
    return elapsed, problem, size


def run_pass(main, workload, tracer=None, first_id=0):
    """One pass: the operations in order, with the probe's requests spread
    evenly between them so their latencies sample the whole pass.  Returns
    per-request seconds (operations first, then the probe), problems, and
    the bytes written by the operations."""
    ops = workload.ops + workload.probe
    n, m = len(workload.ops), len(workload.probe)
    order = sorted(range(n + m), key=lambda k: (k, 0) if k < n else ((k - n) * n // m, 1))
    times, problems, written = [0.0] * len(ops), [], 0
    for k in order:
        t, problem, size = run_op(main, ops[k], tracer, first_id + k)
        times[k] = t
        if k < n:
            written += size
        if problem is not None:
            problems.append(f"{ops[k].tier} {ops[k].verb}: {problem}")
    return times, problems, written


def percentile(values, q):
    """The q-th percentile by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(workloads_mod, main, args, work):
    """Generate inputs and expected answers, then warm up; returns the workload."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    wl = workloads_mod.BUILDERS[args.workload](args.seed, work, args.scale)
    for op in wl.warmup:
        run_op(main, op)
    return wl


def end_to_end(wl, passes, setup_s):
    n = len(wl.ops)
    large = [i for i, op in enumerate(wl.ops) if op.tier == wl.tiers[-1]]
    walls = [sum(times[:n]) for times, _, _ in passes]
    # one latency per request (the probe's where there is one, else the
    # operations'): its median over the passes, so that a host stall hitting
    # a request in one pass does not move the percentiles
    requests = range(n, n + len(wl.probe)) if wl.probe else range(n)
    latency = [statistics.median(times[k] for times, _, _ in passes) for k in requests]
    return {
        "wall_s": statistics.median(walls),
        "large_s": statistics.median(sum(times[i] for i in large) for times, _, _ in passes),
        "op_p50_ms": percentile(latency, 50) * 1e3,
        "op_p90_ms": percentile(latency, 90) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": statistics.median(w for _, _, w in passes),
    }


def group_rows(wl, passes, key):
    """Median seconds per pass spent on each tier (or verb) of the operation list."""
    rows = []
    for group in dict.fromkeys(key(op) for op in wl.ops):
        idx = [i for i, op in enumerate(wl.ops) if key(op) == group]
        rows.append({"group": group, "ops": len(idx),
                     "wall_s": statistics.median(sum(t[i] for i in idx) for t, _, _ in passes)})
    return rows


def traced_metrics(tracing, wl, traced, untraced_walls, traced_walls):
    """Per-layer metrics: medians over traced passes, plus per-tier rows."""
    n, stride = len(wl.ops), len(wl.ops) + len(wl.probe)
    per_pass, tiers = [], {t: [] for t in wl.tiers}
    for k, tracer in enumerate(traced):
        ops = set(range(k * stride, k * stride + n))  # the probe is left out
        m = tracing.derive(tracer.spans, tracer.counts, ops)
        points = []
        for tier in wl.tiers:
            tier_ops = {k * stride + i for i, op in enumerate(wl.ops) if op.tier == tier}
            row = tracing.derive(tracer.spans, tracer.counts, tier_ops)
            tiers[tier].append(row)
            points.append((row["_dp_states"],
                           row["translate.transcript_s"] + row["translate.characteristic_s"]))
        m["translate.scaling_exponent"] = tracing.scaling_exponent(points)
        per_pass.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name, _ in tracing.METRICS if name in per_pass[0]}
    metrics["trace_overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls) - 1)
    rows = [{"tier": t, **{k: statistics.median(r[k] for r in rs) for k in rs[0]}}
            for t, rs in tiers.items()]
    return metrics, rows


def main(argv=None) -> int:
    args = parse_args(argv)
    find_program()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    work = HERE / "work" / f"{args.workload}-{args.seed}{'-tiny' if args.scale == 'tiny' else ''}"
    spare = work.with_name(work.name + "-setup")  # later set-up samples go here
    took, wl, main_cli = set_up_sample(workloads, args, work)
    setup_times = [took]
    samples = min(25, max(SETUP_SAMPLES, round(SETUP_SHARE * args.seconds / took)))
    if args.trace:
        samples = 1  # setup_s is not reported

    def sample_set_up():
        setup_times.append(set_up_sample(workloads, args, spare)[0])

    passes, traced, untraced_walls, traced_walls = [], [], [], []
    measured = perf_counter()
    while True:
        t0 = perf_counter()
        tracer = None
        if args.trace and len(untraced_walls) > len(traced_walls):
            tracer = tracing.Tracer()
            tracer.install()
        try:
            result = run_pass(main_cli, wl, tracer, len(traced) * (len(wl.ops) + len(wl.probe)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        (traced_walls if tracer else untraced_walls).append(sum(result[0][:len(wl.ops)]))
        if tracer is not None:
            traced.append(tracer)
        passes.append(result)
        clock = perf_counter() - t0
        done = perf_counter() - measured
        # the untraced run takes its set-up samples evenly over the seconds
        due = min(samples, 1 + math.ceil((samples - 1) * done / args.seconds))
        while len(setup_times) < due:
            sample_set_up()
        done = perf_counter() - measured
        if done + clock > args.seconds and (not args.trace or traced):
            break
    while len(setup_times) < samples:
        sample_set_up()
    if spare.exists():
        shutil.rmtree(spare)
    setup_s = statistics.median(setup_times)

    attempted = (len(wl.ops) + len(wl.probe)) * len(passes)
    problems = [p for _, probs, _ in passes for p in probs]
    failed = len(problems)
    detail_verbs = []
    if args.trace:
        metrics, rows = traced_metrics(tracing, wl, traced, untraced_walls, traced_walls)
        metrics["error_rate"] = failed / attempted
        units = dict(tracing.METRICS)
    else:
        metrics = end_to_end(wl, passes, setup_s)
        rows = group_rows(wl, passes, lambda op: op.tier)
        detail_verbs = group_rows(wl, passes, lambda op: op.verb)
        units = dict(END_TO_END)

    detail = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "passes": len(passes),
              # a span's op id modulo len(ops) indexes this; the probe comes last
              "ops": [[op.tier, op.verb] for op in wl.ops] + [["probe", op.verb] for op in wl.probe],
              "setup_samples_s": setup_times,
              "metrics": metrics, "tiers": rows, "verbs": detail_verbs,
              "op_seconds": [times for times, _, _ in passes], "disagreements": problems[:50]}
    if args.trace:
        detail["records"] = [t.records() for t in traced]
    (work / "result.json").write_text(json.dumps(detail, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(wl.ops)} operations and {len(wl.probe)} probe requests "
          f"({attempted} answers checked), {failed} disagreeing")
    for line in problems[:20]:
        print(f"  disagreement: {line}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
