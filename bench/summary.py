"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/summary.py --seeds 1-10            # end-to-end, all workloads
    python3 bench/summary.py --seeds 1-3 --trace 1   # per-layer
    python3 bench/summary.py --seeds 1-10 --out bench/baseline.json

Each run is a fresh ``bench/run.py`` process, one after the other.  For
each workload and metric it prints the median over runs, the first and
third quartiles, the run count, and the spread (quartile distance over
the median) next to the metric's bound from ``BENCHMARK.json``.  A
traced summary also gives the tracing overhead: the median raw wall time
of a traced pass minus that of an untraced one (both read from the
runs' stderr reports, before any scaling to nominal host speed), when
both are in the same ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr.splitlines()[0] + "\n" if proc.stderr else "")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    raw = re.search(r"^  raw wall_s (\S+) s", proc.stderr, re.M)
    result["raw_wall_s"] = float(raw.group(1))
    return result


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "runs": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the summary into this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    kind = "per_layer" if args.trace else "end_to_end"
    summary = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, s, args.trace) for s in parse_seeds(args.seeds)]
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry = {
            kind: metrics,
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "raw_wall_s_median_traced" if args.trace else "raw_wall_s_median": statistics.median(
                r["raw_wall_s"] for r in runs
            ),
        }
        summary[workload] = entry
        print(f"{workload}: {len(runs)} runs, fail_ratio {entry['fail_ratio']:.4g} "
              f"of {attempted} tasks")
        for name, st in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"  bound {bound}" + ("  SPREAD > bound/3" if st["spread"] > bound / 3 else "")
            print(f"  {name:40s} {st['median']:12.6g} {st['unit']:6s} "
                  f"[{st['q1']:.6g}, {st['q3']:.6g}] n={st['runs']} spread {st['spread']:.3f}{flag}")
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.setdefault("meta", {}).update(
            {
                "commit": git_commit(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "run_seconds": SPEC["run_seconds"],
                f"seeds_{kind}": args.seeds,
            }
        )
        for workload, entry in summary.items():
            merged.setdefault(workload, {}).update(entry)
            both = merged[workload]
            if "raw_wall_s_median" in both and "raw_wall_s_median_traced" in both:
                both["tracing_overhead_s"] = (
                    both["raw_wall_s_median_traced"] - both["raw_wall_s_median"]
                )
        path.write_text(json.dumps(merged, indent=1) + "\n")


if __name__ == "__main__":
    main()
