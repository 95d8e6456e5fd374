"""Time the heavy inputs outside the benchmark's pools, one process each.

Runs, through `reesgor.cli.main` in --json form, each heavy input of
the ROADMAP baseline in a subprocess of its own: the r = 8 report of
(x^5, x^2y^2z, xy^2z^2, y^5, z^5), `core --u 3..6` and `iclosure -n
100` on the anchor (x^3, y^3, z^3, xyz), `iclosure -n 250` on
(x^3, y^3, z^3), the README's largest closure, the reports of the
paper's two d = 5 cases (m^2, and the squares with every squarefree
cubic), the report of the r = 34 witness (x^8, x^3y^3z, x^2y^3z^4,
y^7, z^5), which exits 3 past the power horizon, and `gorenstein` on
the pure powers with exponents (3, 5, 7, 11, 13) and (23, 7, 11, 13,
17). Each child imports the package, runs the command with its
standard output going to a file, and reports its own process time for
the command (`time.process_time` around `main`, imports excluded) and
its own peak resident set size, the whole process: `VmHWM` of
/proc/self/status, which exec starts afresh, so it is the child's own
peak. Where that file is absent it falls back to
`resource.getrusage(RUSAGE_SELF).ru_maxrss`, which Linux carries across
fork and exec, so that figure is at least this process's RSS at the
fork. Prints one line per input: exit code, process time, peak RSS and
the sha256 of the standard output, then of standard error.

The last two lines are the cold start: the wall time of a whole fresh
`python -m reesgor --json report JOB` process on the anchor, interpreter
start and imports included, as the median of 11 processes with the
extremes. For the first, the processes write and read their bytecode
under a PYTHONPYCACHEPREFIX folder of their own, with
PYTHONDONTWRITEBYTECODE removed, and one untimed process per tree
fills it first, so every timed process runs from cached bytecode,
whatever `__pycache__` the trees hold and whether the caller's
environment stops bytecode writes. For the second, the processes run
with PYTHONDONTWRITEBYTECODE=1 and an empty PYTHONPYCACHEPREFIX folder
of their own, so each compiles from source every module it imports
that the interpreter has not frozen, the standard library's included:
the price of a first import, and of every import in a checkout whose
bytecode cannot be written.

With --against, the same inputs also run on the package of a second
checkout (its src/reesgor), in a child of its own, the tree that runs
first alternating from round to round (for the cold start, from
process to process), and each line ends with whether the two outputs
matched. Nothing is checked: the tool prints and exits 0. Run from the
root of the repository:

    python3 tools/heavy.py --rounds 3 --against ../parent
"""

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# fresh processes per tree for the cold start
STARTS = 11

R8 = [[5, 0, 0], [2, 2, 1], [1, 2, 2], [0, 5, 0], [0, 0, 5]]
ANCHOR = [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]]
CUBES = [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
R34 = [[8, 0, 0], [3, 3, 1], [2, 3, 4], [0, 7, 0], [0, 0, 5]]
# exponent vectors in five variables with entries up to 2
FIVE = [list(v) for v in itertools.product(range(3), repeat=5)]
M2_FIVE = [v for v in FIVE if sum(v) == 2]
SQUARES_CUBICS_FIVE = [
    v for v in FIVE if sorted(v) in ([0, 0, 0, 0, 2], [0, 0, 1, 1, 1])
]

# name -> (generators, command line after --json, with JOB for the file)
INPUTS = {
    "report r=8": (R8, ["report", "JOB"]),
    **{
        f"core --u {u} anchor": (ANCHOR, ["core", "JOB", "--u", str(u)])
        for u in (3, 4, 5, 6)
    },
    "iclosure -n 100 anchor": (ANCHOR, ["iclosure", "JOB", "-n", "100"]),
    "iclosure -n 250 cubes": (CUBES, ["iclosure", "JOB", "-n", "250"]),
    "report m^2 d=5": (M2_FIVE, ["report", "JOB"]),
    "report squares+cubics d=5": (SQUARES_CUBICS_FIVE, ["report", "JOB"]),
    "report r=34 witness": (R34, ["report", "JOB"]),
    **{
        f"gorenstein {exponents}": (
            [[a if i == j else 0 for i in range(5)]
             for j, a in enumerate(exponents)],
            ["gorenstein", "JOB"],
        )
        for exponents in ((3, 5, 7, 11, 13), (23, 7, 11, 13, 17))
    },
}

# The child: argv is (src folder, stats file, cli arguments...).
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from reesgor.cli import main
start = time.process_time()
code = main(sys.argv[3:])
seconds = time.process_time() - start
sys.stdout.flush()
try:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kb = next(
            int(line.split()[1]) for line in fh if line.startswith("VmHWM:")
        )
except (OSError, StopIteration):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump({"code": code, "seconds": seconds, "peak_kb": peak_kb}, fh)
"""


def _sha256(path):
    """The sha256 of a file, read in blocks of 1 MB. This process never
    holds a whole output: where a child falls back to `ru_maxrss`, its
    peak starts from this process's RSS at the fork, and the 20 MB of
    `iclosure -n 250`, held once, would lift the peak of every later
    row to about 41 MB."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _capture(command, folder, **options):
    """(returncode, stdout sha256, stderr sha256) of one subprocess
    running command with its output going to files in folder."""
    folder = pathlib.Path(folder)
    with open(folder / "out", "wb") as out, open(folder / "err", "wb") as err:
        code = subprocess.run(command, stdout=out, stderr=err, check=False,
                              **options).returncode
    return code, *(_sha256(folder / name) for name in ("out", "err"))


def _run(src, argv, folder):
    """(exit code, process seconds, peak MB, stdout sha256, stderr
    sha256) of one child running the cli on argv."""
    stats = pathlib.Path(folder) / "stats.json"
    _, *digests = _capture(
        [sys.executable, "-c", CHILD, str(src), str(stats), *argv], folder)
    if not stats.is_file():  # the child died before writing its stats
        return None, float("nan"), float("nan"), *digests
    found = json.loads(stats.read_text(encoding="utf-8"))
    stats.unlink()
    return (found["code"], found["seconds"], found["peak_kb"] / 1024,
            *digests)


def _start(src, argv, folder, cached):
    """(wall seconds, exit code, stdout sha256, stderr sha256) of one
    fresh `python -m reesgor` process on argv, importing the package
    from src, run in folder so that its own directory adds no package.
    If cached, its bytecode is cached under folder/pycache; if not, it
    reads no bytecode from folder/empty and writes none."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    if cached:
        env["PYTHONPYCACHEPREFIX"] = str(pathlib.Path(folder) / "pycache")
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PYTHONPYCACHEPREFIX"] = str(pathlib.Path(folder) / "empty")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    start = time.perf_counter()
    result = _capture([sys.executable, "-m", "reesgor", *argv], folder,
                      cwd=folder, env=env)
    return time.perf_counter() - start, *result


def _cold_start(trees, folder, cached):
    """A cold-start line: each tree's median wall time over STARTS
    fresh processes, the tree that starts first alternating, from
    cached bytecode or compiled from source (see `_start`)."""
    job = pathlib.Path(folder) / "job.json"
    job.write_text(json.dumps({"dim": 3, "gens": ANCHOR}))
    argv = ["--json", "report", str(job)]
    if cached:
        for src in trees.values():  # untimed: caches the bytecode
            _start(src, argv, folder, cached)
    runs = {tree: [] for tree in trees}
    for index in range(STARTS):
        order = list(trees)
        if index % 2:
            order.reverse()
        for tree in order:
            runs[tree].append(_start(trees[tree], argv, folder, cached))

    def show(tree):
        times = sorted(1000 * run[0] for run in runs[tree])
        _, code, out, err = runs[tree][-1]
        return (f"median {statistics.median(times):.1f} ms "
                f"({times[0]:.1f}-{times[-1]:.1f}), exit {code}, "
                f"out {out[:12]}, err {err[:12]}")

    how = "bytecode cached" if cached else "compiled from source"
    line = (f"cold start --json report anchor, {STARTS} processes, "
            f"{how}: {show('this')}")
    if "against" in trees:
        same = len({run[1:] for tree in trees for run in runs[tree]}) == 1
        line += (f"; against {show('against')}; "
                 f"output {'same' if same else 'DIFFERS'}")
    return line


def _show(result):
    code, seconds, peak, out, err = result
    return (f"exit {code}, {seconds:.2f} s, {peak:.1f} MB, "
            f"out {out[:12]}, err {err[:12]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=1,
                        help="runs of each input per tree (default 1)")
    parser.add_argument("--against", type=pathlib.Path,
                        help="root of a second checkout to run side by side")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"this": ROOT / "src"}
    if args.against is not None:
        source = args.against.resolve() / "src"
        if not (source / "reesgor" / "__init__.py").is_file():
            parser.error(f"no package at {source / 'reesgor'}")
        trees["against"] = source

    with tempfile.TemporaryDirectory() as folder:
        for name, (gens, command) in INPUTS.items():
            job = pathlib.Path(folder) / "job.json"
            job.write_text(json.dumps({"dim": len(gens[0]), "gens": gens}))
            argv = ["--json"] + [str(job) if a == "JOB" else a for a in command]
            for index in range(args.rounds):
                order = list(trees)
                if index % 2:
                    order.reverse()
                results = {tree: _run(trees[tree], argv, folder)
                           for tree in order}
                line = f"{name}: {_show(results['this'])}"
                if "against" in trees:
                    this, other = results["this"], results["against"]
                    same = (this[0], *this[3:]) == (other[0], *other[3:])
                    line += (f"; against {_show(results['against'])}; "
                             f"output {'same' if same else 'DIFFERS'}")
                print(line, flush=True)
        for cached in (True, False):
            print(_cold_start(trees, folder, cached), flush=True)


if __name__ == "__main__":
    main()
