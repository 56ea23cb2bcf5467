"""One benchmark sample in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on stdout.  Modes:

* ``sample``: regenerate the run's jobs (run.py wrote their documents before
  the first sample, so file writes stay out of set-up), run the timed section
  once, then, in the run's first sample only, check every answer (after
  timing, so checks never warm the caches being measured).  Later samples
  repeat the same inputs and their reports must be byte-identical to the
  first's (run.py compares the digests), so each of their answers is checked
  through that identity.
  Reports the timed section's time, each op's time (one op per job, or the
  whole pipeline) and the times of the reference computation, which runs
  every ``PROBE_INTERVAL_S`` and is left out of every time reported.
* ``setup``: stop where the timed section would start; measures set-up only,
  then times the reference computation (``reference.py``) for its scale.
* ``check``: run a small input with the tracer and cProfile both on, and
  report the tracer's completeness mismatches and its call counts.

Usage: python3 perfbench/sample.py '<json arguments>'
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

import reference
import workloads

# The pipeline's main search runs at degree 2, window 2 instead of its default
# (4, 3): that keeps both verdicts and all 12 fixed-space calls, and one cold
# sample takes about 10 s instead of 35-56 s, so a run holds repeats.
PIPELINE_BOUNDS = (2, 2)
# A sample times the reference computation every PROBE_INTERVAL_S of wall
# time through its timed section; a set-up probe times it SETUP_PROBES times.
PROBE_INTERVAL_S = 0.15
SETUP_PROBES = 15


class Probe:
    """Times the reference computation while a sample runs.

    Once started, a ``SIGALRM`` handler runs it every ``PROBE_INTERVAL_S``,
    between two bytecodes of whatever is running, so the probes spread evenly
    over the timed section, inside ops too.  ``clock()`` is
    ``time.perf_counter()`` less the time spent in probes; every op, and in a
    traced sample every span, is timed with it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def measure(self, *_signal) -> None:
        start = time.perf_counter()
        self.times.append(reference.time_reference())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer, then time the reference up to ``SETUP_PROBES`` times."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(SETUP_PROBES - len(self.times)):
            self.measure()

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return now - spent

    def clock_ns(self) -> int:
        return int(self.clock() * 1e9)


def main(args: dict) -> dict:
    workload, seed, mode = args["workload"], args["seed"], args["mode"]
    import diffield
    import diffield.cli

    jobs = None
    if workload != "pipeline":
        size = workloads.CHECK_JOBS[workload] if mode == "check" else workloads.JOBS[workload]
        jobs = workloads.make_jobs(workload, seed, size)
        for i, job in enumerate(jobs):
            job["path"] = workloads.job_path(args["jobdir"], i)
    probe = Probe()
    if mode == "setup":
        setup_end = time.monotonic()
        probe.stop()
        return {"setup_end": setup_end, "reference": probe.times}
    tracer = None
    if mode == "check" or args["trace"]:
        from tracer import Tracer

        tracer = Tracer(clock=probe.clock_ns)
        tracer.install()
    if mode == "check":
        return _check(workload, seed, jobs, tracer, diffield)
    setup_end = time.monotonic()
    verify = args["index"] == 0
    probe.start()
    if workload == "pipeline":
        out = _pipeline(seed, diffield, tracer, probe, verify)
    else:
        out = _stream(workload, jobs, diffield, tracer, probe, verify)
    out["setup_end"] = setup_end
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(out["run_s"])
        out["counts"] = tracer.counts()
        out["spans"] = _dump_spans(tracer, args)
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pipeline(seed: int, diffield, tracer, probe: Probe, verify: bool) -> dict:
    if tracer is not None:
        tracer.trace_id = 1
    start = probe.clock()
    report = diffield.run_pipeline(bounds=diffield.SearchBounds(*PIPELINE_BOUNDS), seed=seed)
    run_s = probe.clock() - start
    probe.stop()
    rss = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    problems = _check_pipeline(report, diffield) if verify else None
    return {
        "run_s": run_s,
        "latencies": [run_s],
        "reference": probe.times,
        "failures": [problems] if problems else [],
        "attempted": 1,
        "digests": [hashlib.sha256(payload.encode()).hexdigest()],
        "peak_rss_mb": rss,
    }


def _check_pipeline(report, diffield) -> str | None:
    if report.verdict != "refuted with certificate chain":
        return f"main verdict {report.verdict!r}"
    if report.control is None or report.control.verdict != "refused: instance is ff-decomposable within bounds":
        return f"control verdict {getattr(report.control, 'verdict', None)!r}"
    if report.registry_replayed is not True:
        return "registry certificates did not replay"
    if report.product_identity.get("identity") is not True:
        return "product identity reported false"
    # re-derive wp(a1*a2) = a1 + a2 + 1 over the pipeline's pair presentation
    pres, g = diffield.Presentation.empty().with_free("g")
    pres, _ = pres.with_affine("t1", 1, 1)
    pres, a1 = pres.with_affine("a1", g.in_presentation(pres), g.in_presentation(pres))
    inv = pres.one() / pres.gen("g")
    pres, a2 = pres.with_affine("a2", inv, inv)
    a1 = a1.in_presentation(pres)
    if (a1 * a2).wp() != a1 + a2 + 1:
        return "product identity fails on recomputation"
    return None


def _run_job(job: dict) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["diffield.cli"].main([job["argv"][0], job["path"], *job["argv"][1:]])
    return code, buf.getvalue()


def _stream(workload: str, jobs: list[dict], diffield, tracer, probe: Probe, verify: bool) -> dict:
    outputs = []
    latencies = []
    clock = probe.clock
    start = clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.trace_id = i + 1
        t0 = clock()
        try:
            outputs.append(_run_job(job))
        except Exception as exc:  # an exception is a failed op, reported below
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(clock() - t0)
    run_s = clock() - start
    probe.stop()
    rss = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    failures, digests = [], []
    for job, (code, text) in zip(jobs, outputs):
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        problem = _check_output(workload, job, code, text, diffield) if verify else None
        if problem is not None:
            failures.append(f"{job['family']}: {problem}\n{job['doc']}")
    return {
        "run_s": run_s,
        "latencies": latencies,
        "reference": probe.times,
        "failures": failures,
        "attempted": len(jobs),
        "digests": digests,
        "peak_rss_mb": rss,
        "families": [job["family"] for job in jobs],
        "table_sizes": [job.get("table_size") for job in jobs],
    }


def _check_output(workload: str, job: dict, code, text: str, diffield) -> str | None:
    if code != 0:
        return f"exit code {code}: {text[-300:]}"
    report = json.loads(text[: text.rindex("}") + 1])
    result = report["result"]
    if workload == "decide":
        return workloads.check_decide(job, result, diffield)
    return workloads.check_characters(job, result)


def _check(workload: str, seed: int, jobs, tracer, diffield) -> dict:
    """Small input with tracer and cProfile on; cProfile is the reference."""
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    if workload == "pipeline":
        bounds = diffield.SearchBounds
        diffield.run_pipeline(bounds=bounds(2, 1), torsor_bounds=bounds(2, 1), control_bounds=bounds(1, 1), seed=seed)
    else:
        for job in jobs:
            _run_job(job)
    profile.disable()
    return {
        "mismatches": tracer.completeness_mismatches(pstats.Stats(profile).stats),
        "counts": tracer.counts(),
    }


def _dump_spans(tracer, args: dict) -> str:
    """Write the sample's spans as JSON lines; returns the file's path."""
    path = os.path.join(args["workdir"], f"spans-{args['workload']}-{args['seed']}-{args['index']}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for trace_id, span_id, parent, name, start, end in tracer.spans:
            handle.write(json.dumps({"trace": trace_id, "span": span_id, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
    return path


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
