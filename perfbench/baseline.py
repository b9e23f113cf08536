"""Record the baseline: ten seeds per workload untraced, one traced run each.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 40

Runs perfbench/run.py once per seed and workload, seed by seed so that
every workload sees the same stretches of the host, then once traced per
workload on the first seed.  Writes perfbench/results/baseline.json: for
each end-to-end metric the median over the seeds, every run's value and
the spread (q3 - q1) / median of statistics.quantiles(values, n=4); the
per-tier and per-verb rows as medians over the seeds; and the traced
run's per-layer metrics with per-tier rows.  Spans and per-operation
times stay in perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    return json.loads((HERE / "work" / f"{workload}-{seed}" / "result.json").read_text())


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def median_rows(runs: list[dict], key: str) -> list[dict]:
    return [{"group": rows[0]["group"], "ops": rows[0]["ops"],
             "wall_s": statistics.median(r["wall_s"] for r in rows)}
            for rows in zip(*(d[key] for d in runs))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            runs[workload].append(run(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: {runs[workload][-1]['metrics']}", flush=True)

    out = {"host": {"python": platform.python_version(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
           "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in names:
        detail = runs[workload]
        traced = run(workload, seeds[0], args.seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": {
                name: {"median": statistics.median(v), "spread": spread(v), "values": v}
                for name in detail[0]["metrics"]
                for v in [[d["metrics"][name] for d in detail]]},
            "passes": [d["passes"] for d in detail],
            "disagreements": [p for d in detail for p in d["disagreements"]],
            "tiers": median_rows(detail, "tiers"),
            "verbs": median_rows(detail, "verbs"),
            "per_layer": {"seed": seeds[0], "passes": traced["passes"],
                          "metrics": traced["metrics"], "tiers": traced["tiers"],
                          "disagreements": traced["disagreements"]},
        }
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for workload, d in out["workloads"].items():
        print(workload, {k: round(v["spread"], 3) for k, v in d["end_to_end"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
