"""A growth ladder: run_pipeline at rising bounds, each rung in a fresh process.

    python3 tools/ladder.py                          # every rung, into BENCH_ladder.json
    python3 tools/ladder.py --rungs 2,2 4,3 --out "$TMPDIR/ladder.json"
    python3 tools/ladder.py --src OTHER/src --label before

A rung is ``run_pipeline(bounds=SearchBounds(d, w), seed=1)`` with the
torsor and control bounds at their defaults, at (2, 2), (4, 3), (8, 4),
(12, 6), (16, 8) and (20, 10).  Each rung runs ``--repeat`` times, each time
in a new interpreter that imports the package from ``--src`` (the checkout's
own ``src`` by default), and records the median wall time of the
``run_pipeline`` call.  Every run checks the answer the construction fixes:
the main verdict is ``refuted with certificate chain`` and the control
instance is refused.  Each run then repeats the call from a cold
denominator memo with counters on, for the deterministic counts: tower
calls, free-base searches and corner searches.  The sha256 of the report's
JSON must be the same in every run of a rung; it is recorded, so two labels
can be compared byte for byte.

A rung that passes its time limit (``--limit`` seconds for all its runs) is
recorded with status ``timeout`` and the rungs above it are still run.  The
results go under ``--label`` into the JSON file ``--out``; other labels
already in the file are kept.  Exits 1 when a rung crashes or gives a wrong
answer; a timeout is not a failure.  The ladder is evidence for growth, not
a gate: it checks answers, not times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNGS = ((2, 2), (4, 3), (8, 4), (12, 6), (16, 8), (20, 10))
COUNTED = (("tower", "iter_twisted_branches"), ("tower", "twisted_family"), ("systems", "fixed_candidates"))


def worker(degree: int, window: int) -> dict:
    """One timed run and one counted run of a rung, in this process."""
    import hashlib
    import importlib

    from diffield import SearchBounds, run_pipeline, tower

    def run() -> tuple[float, str, str, str]:
        start = time.perf_counter()
        report = run_pipeline(bounds=SearchBounds(degree, window), seed=1)
        wall = time.perf_counter() - start
        text = json.dumps(report.to_dict(), sort_keys=True, default=repr)
        return wall, hashlib.sha256(text.encode()).hexdigest(), report.verdict, report.control.verdict

    wall, digest, verdict, control = run()
    counts = {}
    for module_name, name in COUNTED:
        module = importlib.import_module(f"diffield.{module_name}")
        key = f"{module_name}.{name}"
        counts[key] = 0

        def counting(*args, _original=getattr(module, name), _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        setattr(module, name, counting)
    tower._denominator_candidates.cache_clear()
    _, again, _, _ = run()
    return {
        "wall_s": wall,
        "report_sha256": digest,
        "verdict": verdict,
        "control": control,
        "counts": counts,
        "counted_report_matches": again == digest,
    }


def problems_of(out: dict) -> list[str]:
    found = []
    if out["verdict"] != "refuted with certificate chain":
        found.append(f"main verdict {out['verdict']!r}")
    if not out["control"].startswith("refused"):
        found.append(f"control verdict {out['control']!r}")
    if not out["counted_report_matches"]:
        found.append("the counted run gave another report")
    return found


def rung(src: Path, degree: int, window: int, repeat: int, limit: float) -> dict:
    entry: dict = {"bounds": [degree, window]}
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", f"{degree},{window}"]
    deadline = time.monotonic() + limit
    runs = []
    for _ in range(repeat):
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=max(left, 0.001))
        except subprocess.TimeoutExpired:
            entry.update(status="timeout", limit_s=limit, completed_runs=len(runs))
            break
        if done.returncode != 0:
            entry.update(status="failed", problems=done.stderr.strip().splitlines()[-1:] or ["no output"])
            return entry
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    if runs:
        problems = [p for out in runs for p in problems_of(out)]
        if len({out["report_sha256"] for out in runs}) > 1:
            problems.append("reports differ between runs")
        entry.update(
            wall_s=round(statistics.median(out["wall_s"] for out in runs), 4),
            wall_s_runs=[round(out["wall_s"], 4) for out in runs],
            report_sha256=runs[0]["report_sha256"],
            counts=runs[0]["counts"],
        )
        entry.setdefault("status", "failed" if problems else "ok")
        if problems:
            entry["problems"] = problems
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", nargs="*", default=[f"{d},{w}" for d, w in RUNGS], help="bounds d,w")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--limit", type=float, default=120.0, help="seconds for all runs of one rung")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*map(int, args.worker.split(",")))))
        return 0
    entries = []
    for text in args.rungs:
        degree, window = map(int, text.split(","))
        entry = rung(args.src.resolve(), degree, window, args.repeat, args.limit)
        print(json.dumps(entry), flush=True)
        entries.append(entry)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("workload", "run_pipeline(bounds=SearchBounds(d, w), seed=1)")
    data.setdefault("runs", {})[args.label] = {
        "recorded": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "repeat": args.repeat,
        "limit_s": args.limit,
        "rungs": entries,
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 1 if any(e["status"] == "failed" for e in entries) else 0


if __name__ == "__main__":
    sys.exit(main())
