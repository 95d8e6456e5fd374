"""Time the benchmark's job pools in this process, one tree or two.

Runs through `cli.main`, in --json form, every pooled `report` and
`gorenstein` job of perfbench/pins/*.jsonl and `--corpus 10 --seed S`
for S = 1000..1059, for the given number of passes, and times each
run with `time.perf_counter`. The pin files are only read; each job is
written to a temporary directory. Prints, per workload, the sum over
runs of each run's least time over the passes.

The package of this checkout (src/reesgor) is copied to a temporary
directory under a neutral name and imported from there. With
--against, the package of another checkout is copied next to it under
a second name of the same length, so the two trees are imported the
same way: a tree imported in place as `reesgor`, next to a copy of the
other, read 0.3-1.3% slower on `report` whichever tree it was. Both
trees run each job in turn, the one that runs first alternating from
job to job and from pass to pass, so that over a pool of an even
number of jobs, as each is, neither tree runs first more often, for
any number of passes: with one order per pass, a tree timed against a
copy of itself read 0.4% slower on `gorenstein` when it ran first in
3 of 5 passes (2 cores, Python 3.11.7). Each line then gives both
sums, the change from the other tree to this one in per cent, to two
decimals, and the number of runs whose exit code or output differed
between the trees (on the last pass). Nothing is checked: the tool
prints and exits 0.

With --runs N, N > 1, the script runs itself N times in turn, each
time in a fresh interpreter with --runs 1 and the same other options,
and prints each run's lines as above. Then one line per workload gives
the median over the runs of the change in per cent, and its quartiles
(without --against, of the sums in seconds), read off those lines.
Runs within one process share its heap, caches and code layout: two
invocations of one comparison, three runs each in one process, gave
disjoint gorenstein quartiles, +0.55..+0.73% and +0.41..+0.50%. A
control is the tree timed against a copy of itself. Run from the root
of the repository:

    python3 tools/pooltime.py --passes 10 --runs 3 --against ../parent
"""

import argparse
import contextlib
import importlib
import io
import json
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "perfbench" / "pins"
CORPUS_SEEDS = range(1000, 1060)
THIS_NAME, OTHER_NAME = "reesgor_this", "reesgor_that"
# a workload's line: its sum for this tree, then its change, if timed
# against another tree
LINE = re.compile(
    r"(\w+): sum over .*?: ([\d.]+) s(?: against .*?\(([-+][\d.]+)%\))?")


def _runs(folder):
    """workload -> argv lists, the pooled jobs' files written to
    folder."""
    runs = {}
    for workload in ("report", "gorenstein"):
        runs[workload] = []
        with open(PINS / f"{workload}.jsonl", encoding="utf-8") as fh:
            for index, line in enumerate(fh):
                entry = json.loads(line)
                path = pathlib.Path(folder) / f"{workload}-{index}.json"
                path.write_text(json.dumps(
                    {"dim": entry["dim"], "gens": entry["gens"]}))
                runs[workload].append(["--json", workload, str(path)])
    runs["corpus"] = [
        ["--json", "--corpus", "10", "--seed", str(seed)]
        for seed in CORPUS_SEEDS
    ]
    return runs


def _timed_run(main, argv):
    """(seconds, (exit code, stdout, stderr)) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return seconds, (code, out.getvalue(), err.getvalue())


def _compare(trees, argvs, passes):
    """(sum of each tree's best times, outputs of each tree's last
    pass) over the runs argvs."""
    best = {name: [float("inf")] * len(argvs) for name in trees}
    outputs = {name: [None] * len(argvs) for name in trees}
    names = list(trees)
    for index in range(passes):
        for job, argv in enumerate(argvs):
            for name in names if (index + job) % 2 == 0 else names[::-1]:
                seconds, output = _timed_run(trees[name], argv)
                best[name][job] = min(best[name][job], seconds)
                outputs[name][job] = output
    return {name: sum(times) for name, times in best.items()}, outputs


def _time(args, parser):
    """One comparison in this process, one line per workload."""
    sources = {"this": (ROOT, THIS_NAME)}
    if args.against is not None:
        sources["against"] = (args.against, OTHER_NAME)
    trees = {}
    with tempfile.TemporaryDirectory() as folder:
        sys.path.insert(0, folder)
        for label, (root, name) in sources.items():
            source = root / "src" / "reesgor"
            if not (source / "__init__.py").is_file():
                parser.error(f"no package at {source}")
            shutil.copytree(source, pathlib.Path(folder) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees[label] = importlib.import_module(f"{name}.cli").main
        for workload, argvs in _runs(folder).items():
            sums, outputs = _compare(trees, argvs, args.passes)
            line = (f"{workload}: sum over {len(argvs)} runs of the best "
                    f"of {args.passes}: {sums['this']:.3f} s")
            if "against" in trees:
                change = 100 * (sums["this"] / sums["against"] - 1)
                differ = sum(a != b for a, b in zip(outputs["this"],
                                                    outputs["against"]))
                line += (f" against {sums['against']:.3f} s "
                         f"({change:+.2f}%), output differs on {differ}")
            print(line, flush=True)


def _repeat(args):
    """args.runs comparisons, each by this script in a fresh
    interpreter with --runs 1, their lines echoed, then the median and
    quartiles per workload of the figures read off those lines."""
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()),
            "--passes", str(args.passes), "--runs", "1"]
    if args.against is not None:
        argv += ["--against", str(args.against)]
    figures = {}
    for _ in range(args.runs):
        run = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(run.stdout, end="", flush=True)
        if run.returncode:
            sys.exit(run.returncode)
        for workload, total, change in LINE.findall(run.stdout):
            figures.setdefault(workload, []).append(float(change or total))
    form = "{:+.2f}%" if args.against is not None else "{:.3f} s"
    for workload, values in figures.items():
        low, median, high = statistics.quantiles(
            values, n=4, method="inclusive")
        print(f"{workload}: median of {args.runs} runs "
              f"{form.format(median)}, quartiles "
              f"{form.format(low)}..{form.format(high)}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=5,
                        help="passes over every pool (default 5)")
    parser.add_argument("--runs", type=int, default=1,
                        help="comparisons, each in a fresh interpreter "
                             "(default 1)")
    parser.add_argument("--against", type=pathlib.Path,
                        help="root of a second checkout to time side by side")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.runs == 1:
        _time(args, parser)
    else:
        _repeat(args)


if __name__ == "__main__":
    main()
