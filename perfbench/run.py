"""The reesgor benchmark.

    python3 perfbench/run.py --workload {report,gorenstein,corpus}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
src/ directory. One client thread submits jobs in a closed loop: each
job is one in-process call of the reesgor command line, with output
captured and then checked against the pinned answers (workloads.py).

--trace 0 measures the end-to-end metrics, untraced, over whole passes
of the seed's stream until S seconds have passed; times are scaled by
a calibration chunk timed between jobs (see REFERENCE_CHUNK_S).
--trace 1 runs a fixed number of the seed's jobs twice: untraced in a
child process, then with the external tracer (tracer.py) installed in
this one, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines before it
say how many answers were checked, the error rate, where the tail
percentile sits and how fast the machine ran. Spans of a traced run
are written to perfbench/out/spans-<workload>-<seed>.jsonl. See
perfbench/README.md for why the workloads and metrics are what they
are.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import tracer as tr
import workloads as wl

OUT = wl.HERE / "out"

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5

# Jobs in a traced run (the first ones of the seed's stream). Fixed, so
# that every count repeats exactly between two traced runs of a seed.
TRACE_JOBS = {"report": 56, "gorenstein": 192, "corpus": 40}

# The tail percentile of each workload: the highest with at least ten
# samples beyond it in a run of this commit (two passes, or 20 s of
# corpus jobs). Fixed, so that it names the same point of the latency
# distribution however many jobs a run gets through.
TAIL_PERCENTILE = {"report": 89, "gorenstein": 97, "corpus": 87}

# Corpus job seeds made per run; far more than a run can use.
CORPUS_JOBS = 2_000

CHILD_TIMEOUT_S = 150

# The machine the benchmark runs on may be shared, and its speed then
# drifts: the same report job ran at 2.0-3.3 jobs/s in successive 4 s
# windows of one minute, with CPU time equal to wall time. A fixed piece
# of pure-Python work timed between jobs follows that drift; dividing
# by it cut the spread of those windows from 13% to 3%. So every
# end-to-end time is reported in reference seconds: wall seconds scaled
# to a machine on which one calibration chunk takes REFERENCE_CHUNK_S,
# each job by the mean of the chunks timed just before and just after
# it. The raw figures are printed on the line above the result.
REFERENCE_CHUNK_S = 0.006


@dataclass(frozen=True)
class Job:
    argv: List[str]
    check: Callable[[int, str], bool]
    # A run stops only where this changes from one job to the next.
    pass_no: int


@dataclass
class Outcome:
    latencies: List[float]
    failed: int
    elapsed: float
    # calibration[i] was timed before job i, calibration[i + 1] after it.
    calibration: List[float]

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the machine ran."""
        return statistics.mean(self.calibration) / REFERENCE_CHUNK_S

    @property
    def scaled(self) -> List[float]:
        """Job latencies in reference seconds."""
        c = self.calibration
        return [
            t * 2 * REFERENCE_CHUNK_S / (c[i] + c[i + 1])
            for i, t in enumerate(self.latencies)
        ]


def calibration_chunk() -> float:
    """Time one fixed piece of work of the kind reesgor does: tuple
    arithmetic, componentwise comparisons, set and dict traffic."""
    start = perf_counter()
    for _ in range(6):
        vectors = [(i % 7, (i * 3) % 11, (i * 5) % 13) for i in range(400)]
        kept: List[tuple] = []
        for v in sorted(set(vectors), key=lambda w: (sum(w), w)):
            if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
                kept.append(v)
        counts: Dict[tuple, int] = {}
        for v in vectors:
            counts[v] = counts.get(v, 0) + 1
    return perf_counter() - start


def make_jobs(workload: str, seed: int, jobdir: Path) -> List[Job]:
    """The run's inputs: job files written from the seed's stream, or
    corpus seeds."""
    if workload == "corpus":
        return [
            Job(
                ["--json", "--corpus", str(wl.CORPUS_CASES), "--seed", str(s)],
                functools.partial(wl.check_corpus, s),
                i,
            )
            for i, s in enumerate(wl.corpus_seeds(seed, CORPUS_JOBS))
        ]
    jobdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, (pass_no, entry) in enumerate(wl.job_stream(workload, seed)):
        path = jobdir / f"{i:05d}.json"
        path.write_text(json.dumps({"dim": entry["dim"], "gens": entry["gens"]}))
        jobs.append(
            Job(
                ["--json", workload, str(path)],
                functools.partial(wl.check_pooled, entry, workload),
                pass_no,
            )
        )
    return jobs


def setup(workload: str, seed: int, jobdir: Path):
    """Import the program afresh and generate the inputs; returns the
    time both took in reference seconds, the command line module and
    the jobs."""
    for name in [m for m in sys.modules if m.split(".")[0] == "reesgor"]:
        del sys.modules[name]
    before = calibration_chunk()
    start = perf_counter()
    cli = wl.import_cli()
    jobs = make_jobs(workload, seed, jobdir)
    elapsed = perf_counter() - start
    slowdown = (before + calibration_chunk()) / 2 / REFERENCE_CHUNK_S
    return elapsed / slowdown, cli, jobs


def run_jobs(
    cli,
    jobs: List[Job],
    seconds: Optional[float],
    tracer: Optional[tr.Tracer] = None,
) -> Outcome:
    """Closed loop: submit the next job when the previous one returns,
    until `seconds` have passed (or the jobs run out). The run stops
    only between passes, so that every run measures whole passes."""
    latencies: List[float] = []
    failed = 0
    calibration = [calibration_chunk()]
    start = perf_counter()
    for index, job in enumerate(jobs):
        if (
            seconds is not None
            and index > 0
            and job.pass_no != jobs[index - 1].pass_no
            and perf_counter() - start >= seconds
        ):
            break
        if tracer is not None:
            tracer.job = index
        t0 = perf_counter()
        try:
            code, out = wl.call_cli(cli.main, job.argv)
        except Exception:  # noqa: BLE001 - a job that raises is a failure
            code, out = None, ""
        latencies.append(perf_counter() - t0)
        try:
            ok = code is not None and job.check(code, out)
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
        calibration.append(calibration_chunk())
    return Outcome(latencies, failed, perf_counter() - start, calibration)


def tail(latencies: List[float], percentile: int):
    """(value, samples beyond it) of a percentile, interpolated between
    neighbouring samples so that it moves smoothly with them."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    value = cuts[percentile - 1]
    return value, sum(v > value for v in latencies)


def report_lines(workload, seed, outcome: Outcome, pinned: bool) -> None:
    n = len(outcome.latencies)
    percentile = TAIL_PERCENTILE[workload]
    _, beyond = tail(outcome.latencies, percentile)
    check = "pinned answers" if pinned else "self-check verdicts"
    print(
        f"{workload} seed={seed}: {n} jobs in {outcome.elapsed:.2f} s, "
        f"{n} {check} checked, {outcome.failed} failed, "
        f"error_rate={outcome.failed / n:.4f}; "
        f"tail = p{percentile} ({beyond} of {n} samples beyond it)"
    )
    print(
        f"machine slowdown {outcome.slowdown:.3f} over the run; raw: "
        f"{n / sum(outcome.latencies):.4f} jobs/s, "
        f"p50 {statistics.median(outcome.latencies):.4f} s"
    )


def result_line(outcome: Outcome, metrics: Dict[str, tuple]) -> str:
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": len(outcome.latencies),
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def untraced_child(args, count: int) -> float:
    """Wall time of the first `count` jobs run untraced in a fresh
    process, so that nothing the traced pass computes is warm."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
            "--jobs", str(count),
        ],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=wl.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"untraced pass failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    throughput = result["metrics"]["throughput_jobs_per_s"]["value"]
    return result["attempted"] / throughput  # reference seconds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report", "gorenstein", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run exactly this many jobs untraced (the child process
    # of a traced run).
    parser.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    jobdir = OUT / f"jobs-{args.workload}-{args.seed}-{os.getpid()}"
    measured = args.trace == 0 and args.jobs is None
    try:
        setups = []
        for _ in range(SETUP_REPEATS if measured else 1):
            elapsed, cli, jobs = setup(args.workload, args.seed, jobdir)
            setups.append(elapsed)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    pinned = args.workload != "corpus"
    try:
        if args.trace == 0:
            if args.jobs is not None:
                outcome = run_jobs(cli, jobs[: args.jobs], None)
            else:
                outcome = run_jobs(cli, jobs, args.seconds)
            report_lines(args.workload, args.seed, outcome, pinned)
            latencies = outcome.scaled
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "throughput_jobs_per_s": (
                    len(latencies) / sum(latencies), "1/s"),
                "latency_p50_s": (statistics.median(latencies), "s"),
                "latency_tail_s": (
                    tail(latencies, TAIL_PERCENTILE[args.workload])[0], "s"
                ),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "MB",
                ),
            }
        else:
            count = TRACE_JOBS[args.workload]
            untraced = untraced_child(args, count)
            tracer = tr.Tracer()
            with tracer:
                outcome = run_jobs(cli, jobs[:count], None, tracer)
            report_lines(args.workload, args.seed, outcome, pinned)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"{len(tracer.spans)} spans written to {spans_path}")
            values = tr.summarize(
                tracer.spans,
                dict(enumerate(outcome.latencies)),
                threading.get_ident(),
                sum(outcome.scaled) / untraced - 1,
            )
            metrics = {
                name: (values[name], unit)
                for name, unit in tr.PER_LAYER_METRICS
            }
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)
    print(result_line(outcome, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
