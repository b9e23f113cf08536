"""Smoke test of the benchmark at a tiny scale (well under a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that an untraced and a
traced run print a result line whose metric names and units match
BENCHMARK.json exactly, with every answer correct, and that the traced
layer self times add up to the traced operation time.  It then checks that
a deliberately wrong expected answer is counted in error_rate, and that
the benchmark fails without printing a result when the program's sources
are missing.  Exits 1 on the first group of problems.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def check_result(spec, workload: str, trace: int) -> list[str]:
    out = run(workload, trace)
    if out.returncode != 0:
        return [f"{workload} trace={trace}: exit {out.returncode}: {out.stderr[-300:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{workload} trace={trace}: metrics {got} differ from {want}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: {result['failed']} of "
                        f"{result['attempted']} answers wrong")
    if trace:
        problems += check_accounting(workload)
    return problems


def check_accounting(workload: str) -> list[str]:
    """Layer self times plus cli.unaccounted_s must equal the traced op time."""
    import tracing

    detail = json.loads((HERE / "work" / f"{workload}-{SEED}-tiny" / "result.json").read_text())
    problems = []
    for records in detail["records"]:
        spans = [[s["name"], s["start"], s["end"], s["parent"], s["op"]] for s in records["spans"]]
        counts = [(c["op"], c["name"], c["amount"]) for c in records["counters"]]
        m = tracing.derive(spans, counts, {s[4] for s in spans})
        parts = sum(m[f"{layer}.self_s"] for layer in
                    ("udpda", "translate", "slp", "compare", "reductions", "intexpr"))
        parts += m["decide.glue_s"] + m["cli.unaccounted_s"]
        if abs(parts - m["cli.op_s"]) > 1e-9 * max(1.0, m["cli.op_s"]):
            problems.append(f"{workload}: layer times {parts} != op time {m['cli.op_s']}")
    return problems


def check_wrong_answer() -> list[str]:
    """Flip one expected verdict; the run must report it through error_rate."""
    import run as bench
    import workloads

    build = workloads.BUILDERS["compare"]

    def wrong(seed, work, scale):
        wl = build(seed, work, scale)
        op = next(op for op in wl.ops if op.stdout == "yes")
        op.stdout, op.code = "no", 1
        return wl

    workloads.BUILDERS["compare"] = wrong
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            bench.main(["--workload", "compare", "--seed", str(SEED), "--seconds", "1",
                        "--trace", "1", "--scale", "tiny"])
    finally:
        workloads.BUILDERS["compare"] = build
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if result["failed"] < 1 or result["correct"] or result["metrics"]["error_rate"]["value"] <= 0:
        return [f"a wrong expected answer went unnoticed: {result}"]
    return []


def check_without_program() -> list[str]:
    """In a directory holding only BENCHMARK.json and the benchmark, fail quietly."""
    bare = HERE / "work" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    out = run("small-mix", 0, cwd=bare)
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        return [f"without the program: exit {out.returncode}, printed {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [lambda w=w["name"], t=t: check_result(spec, w, t)
              for w in spec["workloads"] for t in (0, 1)]
    checks += [check_wrong_answer, check_without_program]
    for check in checks:
        problems = check()
        if problems:
            print("\n".join(problems))
            return 1
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
