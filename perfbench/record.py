"""Record a baseline: repeated benchmark runs summarised per workload.

    python3 perfbench/record.py --out perfbench/baseline/BENCH_seed.json

Takes the workloads and ``run_seconds`` from ``BENCHMARK.json``.  Runs
``run.py --trace 0`` on seeds ``FIRST_SEED`` to ``FIRST_SEED + RUNS - 1``,
seed by seed with the workloads interleaved, so that a slow spell of the host
falls on every workload alike; then one traced run per workload on the first
seed.  Writes, per workload and end-to-end metric (plus the printed
``latency_p99_ms`` on decide), the median, the quartiles, their spread as a
share of the median and the number of runs, plus the traced per-layer split.
Runs one benchmark at a time; run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = next(line for line in lines if line.startswith("workload "))
    for line in lines:
        fields = line.split()
        if len(fields) > 3 and fields[1] == "latency_p99_ms":
            result["metrics"]["latency_p99_ms"] = {"value": float(fields[2]), "unit": fields[3]}
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for workload in names:
            runs[workload].append(bench(workload, seed, seconds, 0))
            print(workload, seed, runs[workload][-1]["summary"],
                  {k: round(v["value"], 4) for k, v in runs[workload][-1]["metrics"].items()}, flush=True)
    record = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
              "seconds": seconds, "workloads": {}}
    for workload in names:
        metrics = {}
        for name, first in runs[workload][0]["metrics"].items():
            metrics[name] = {"unit": first["unit"],
                             **summarise([r["metrics"][name]["value"] for r in runs[workload]])}
            print(f"  {workload:<10} {name:<16} median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']:.4f}", flush=True)
        traced = bench(workload, FIRST_SEED, seconds, 1)
        record["workloads"][workload] = {
            "seeds": [seeds[0], seeds[-1]],
            "ops_per_run": [r["attempted"] for r in runs[workload]],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
