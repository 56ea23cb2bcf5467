"""diffield benchmark: one command, three seeded workloads, known answers.

    python3 perfbench/run.py --workload {pipeline,decide,characters}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports the package from the
checkout's ``src`` and writes only under ``perfbench/.work``.

Every sample runs in a fresh interpreter, one at a time: the package keeps
module-level caches that never empty, so a second run in one process would
time cache hits.  All samples of a run repeat the same seeded inputs, under
two hash seeds derived from ``--seed`` in turn, and their reports must be
byte-identical.

With ``--trace 0`` the run starts a fixed number of samples, sized so that
they take about ``--seconds`` at the seed commit's speed (``SAMPLE_SECONDS``),
and prints the end-to-end metrics.

Every time is scaled to a fixed nominal speed: each sample times a fixed
pure-Python computation (``reference.py``) every 0.15 s and multiplies its
times by its mean speed over those probes, so a spell in which the host runs
everything slower cancels.  The unscaled wall times and the host's speed are
printed too, outside the JSON line.  ``run_s`` is the median over the
samples of the timed section's time, ``ops_per_s`` is correct answers per
second of it, and the latency percentiles are taken over every op of every
sample (``pipeline`` has one op per sample).  ``setup_s`` (interpreter start
to first timed op) is the median of at least nine set-ups, each scaled by
the speed measured right after it.

With ``--trace 1`` it checks the tracer against cProfile on a small input
under both hash seeds, then runs untraced and traced samples under each hash
seed, and prints the per-layer metrics of the first traced sample (self
times scaled by its speed), the tracing overhead (traced minus untraced
``run_s``, both built as above) and the shares of the input properties.  Per-layer call counts must not depend on
the hash seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer, an exception or a determinism
mismatch exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

WORKLOADS = ("pipeline", "decide", "characters")
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed on decide only, which runs over a thousand queries: elsewhere the
# 99th percentile would have fewer than ten samples beyond it.
TAIL = ("latency_p99_ms", "ms")
# Wall seconds one sample takes at the seed commit's speed, interpreter
# start included.  A run holds round(--seconds / SAMPLE_SECONDS) samples:
# a faster or slower commit or host changes how long a run takes, not how
# many samples its medians are taken over.
SAMPLE_SECONDS = {"pipeline": 10.0, "decide": 7.0, "characters": 4.0}
MIN_SAMPLES = 2
SETUP_MEASUREMENTS = 9
SAMPLE_TIMEOUT_S = 170


def hash_seeds(seed: int) -> tuple[int, int]:
    """Two PYTHONHASHSEED values derived from the workload seed."""
    return (2 * seed) % 2**32, (2 * seed + 1) % 2**32


def spawn(args: dict, hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC
    started = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sample.py"), json.dumps(args)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"sample {args} failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "reference" in out:
        out["scale"] = statistics.fmean(reference.NOMINAL_S / t for t in out["reference"])
    if "setup_end" in out:
        out["wall_setup_s"] = out["setup_end"] - started
        out["setup_s"] = out["wall_setup_s"] * out["scale"]
    out["hash_seed"] = hash_seed
    return out


def sample_args(workload: str, seed: int, mode: str, trace: bool = False, index: int = 0) -> dict:
    return {"workload": workload, "seed": seed, "mode": mode, "trace": trace, "index": index,
            "workdir": WORKDIR, "jobdir": job_dir(workload, seed)}


def job_dir(workload: str, seed: int) -> str:
    return os.path.join(WORKDIR, f"{workload}-{seed}-{os.getpid()}")


def write_jobs(workload: str, seed: int) -> None:
    """Write the run's job documents once, before its first sample."""
    jobdir = job_dir(workload, seed)
    os.makedirs(jobdir, exist_ok=True)
    for i, job in enumerate(workloads.make_jobs(workload, seed, workloads.JOBS[workload])):
        with open(workloads.job_path(jobdir, i), "w", encoding="utf-8") as handle:
            handle.write(job["doc"])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sample_count(workload: str, seconds: int) -> int:
    return max(MIN_SAMPLES, round(seconds / SAMPLE_SECONDS[workload]))


def run_samples(workload: str, seed: int, seconds: int) -> tuple[list[dict], list[dict]]:
    """A fixed number of samples, then set-up probes."""
    seeds = hash_seeds(seed)
    samples = [spawn(sample_args(workload, seed, "sample", index=k), seeds[k % 2])
               for k in range(sample_count(workload, seconds))]
    setups = list(samples)
    while len(setups) < SETUP_MEASUREMENTS:
        setups.append(spawn(sample_args(workload, seed, "setup"), seeds[len(setups) % 2]))
    return samples, setups


def determinism_problems(samples: list[dict]) -> list[str]:
    """Every sample of a run has the same inputs, so the same reports."""
    first = samples[0]
    problems = []
    for other in samples[1:]:
        for i, (a, b) in enumerate(zip(first["digests"], other["digests"])):
            if a != b:
                problems.append(f"op {i}: report differs between hash seeds {first['hash_seed']} "
                                f"and {other['hash_seed']}")
    return problems


def median_run_s(samples: list[dict], scaled: bool = True) -> float:
    """Median over the samples of the timed section's time."""
    return statistics.median(s["run_s"] * (s["scale"] if scaled else 1.0) for s in samples)


def latencies_ms(samples: list[dict]) -> list[float]:
    """Every op of every sample, scaled, in ms."""
    return [1000.0 * s["scale"] * t for s in samples for t in s["latencies"]]


def end_to_end(samples: list[dict], setups: list[dict]) -> dict[str, float]:
    latencies = latencies_ms(samples)
    run_s = median_run_s(samples)
    correct = min(s["attempted"] - len(s["failures"]) for s in samples)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": run_s,
        "ops_per_s": correct / run_s,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def input_properties(sample: dict) -> dict[str, float]:
    """Shares of the input properties later optimisations key on."""
    families = sample.get("families", [])
    sizes = [k for k in sample.get("table_sizes", []) if k is not None]
    free_only = sum(f in workloads.FREE_ONLY_FAMILIES for f in families)
    out = {"input.free_only_share": free_only / len(families) if families else 0.0}
    for k in (3, *workloads.TABLE_SIZES):  # 3: the witness differences of amalg-check
        out[f"input.table_size.{k}.share"] = sizes.count(k) / len(sizes) if sizes else 0.0
    return out


def traced(workload: str, seed: int) -> tuple[list[dict], dict[str, tuple[float, str]], list[str]]:
    """Tracer checks, then an untraced and a traced sample under each hash seed."""
    seeds = hash_seeds(seed)
    problems = []
    for h in seeds:
        check = spawn(sample_args(workload, seed, "check"), h)
        problems += [f"tracer incomplete under hash seed {h}: {m}" for m in check["mismatches"]]
    samples = []
    for h in seeds:
        for trace in (False, True):
            samples.append(spawn(sample_args(workload, seed, "sample", trace, len(samples)), h))
    plain = [s for s in samples if "layers" not in s]
    with_trace = [s for s in samples if "layers" in s]
    first, second = with_trace
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in first["counts"] if first["counts"][k] != second["counts"].get(k))
        problems.append(f"per-layer call counts differ between hash seeds {seeds}: {diff}")
    # self times are scaled like every other time
    layers = {name: (value * first["scale"] if unit == "s" else value, unit)
              for name, (value, unit) in first["layers"].items()}
    traced_run_s = median_run_s(with_trace)
    layers["traced_run_s"] = (traced_run_s, "s")
    layers["trace_overhead_s"] = (traced_run_s - median_run_s(plain), "s")
    layers.update({k: (v, "ratio") for k, v in input_properties(first).items()})
    print(f"spans written to {os.path.relpath(first['spans'], ROOT)}")
    return samples, layers, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diffield", "__init__.py")):
        print(f"no diffield package under {SRC}: run from the root of a diffield checkout", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)

    if args.workload != "pipeline":
        write_jobs(args.workload, args.seed)
    try:
        if args.trace:
            samples, metrics, problems = traced(args.workload, args.seed)
        else:
            samples, setups = run_samples(args.workload, args.seed, args.seconds)
            units = dict(END_TO_END)
            metrics = {name: (value, units[name]) for name, value in end_to_end(samples, setups).items()}
            problems = []
    finally:
        shutil.rmtree(job_dir(args.workload, args.seed), ignore_errors=True)
    problems += determinism_problems(samples)
    attempted = sum(s["attempted"] for s in samples)
    # Only the first sample checks answers; the others must repeat its reports
    # byte for byte, so a wrong answer there is wrong in every sample.
    failures = samples[0]["failures"]
    failed = len(failures) * len(samples)

    print(f"workload {args.workload}, seed {args.seed}, hash seeds {hash_seeds(args.seed)}, "
          f"{len(samples)} samples of {samples[0]['attempted']} ops")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<52} {value:>14.6g} {unit}")
    if args.workload == "decide" and not args.trace:
        latencies = latencies_ms(samples)
        print(f"{args.workload:<10} {TAIL[0]:<52} {percentile(latencies, 0.99):>14.6g} {TAIL[1]}"
              f" (all {len(latencies)} queries)")
    if not args.trace:
        info = (("wall_run_s (unscaled)", median_run_s(samples, scaled=False), "s"),
                ("wall_setup_s (unscaled)", statistics.median(s["wall_setup_s"] for s in setups), "s"),
                ("host_speed (scale factor)", statistics.median(s["scale"] for s in samples), "x"))
        for name, value, unit in info:
            print(f"{args.workload:<10} {name:<52} {value:>14.6g} {unit}")
    print(f"{args.workload:<10} {'fail_ratio':<52} {failed / attempted:>14.6g} ratio")
    for problem in failures + problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
