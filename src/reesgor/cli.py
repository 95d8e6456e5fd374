"""Command line front end.

    reesgor np JOB            facets of the Newton polyhedron
    reesgor iclosure JOB -n N integral closure of the N-th power
    reesgor cone JOB          facet matrix and extreme rays of the cone
    reesgor gorenstein JOB    Gorenstein decision (--fast: closed form)
    reesgor qgor JOB          quasi-Gorenstein colon test
    reesgor cm JOB            Cohen-Macaulay intersection test
    reesgor core JOB --u N    core of the N-th power
    reesgor report JOB        every section at once
    reesgor --corpus N        seeded random self-check, no job needed

JOB is a JSON file; see report.load_job for the format. Output is
human-readable by default, canonical JSON with --json.

Exit codes: 0 success; 1 bad usage, unreadable input, or invalid
ideal data; 2 the requested criterion does not apply to this input;
3 an internal cross-check failed, a certified bound was exceeded or
the run ran out of memory (the computation cannot be trusted and says
so).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Callable, Dict, List, Optional, Tuple

from .analysis import find_pure_power_reduction, quasi_gorenstein_test
from .cone import is_gorenstein_normalization, pure_power_gorenstein_test
from .errors import (
    BudgetExceededError,
    IncompleteSearchError,
    InapplicableError,
    InvariantViolationError,
)
from .ideals import MonomialIdeal
from .oracle import oracle_colon, oracle_intersect
from .polyhedra import closure_power, newton_polyhedron
from .report import (
    build_report,
    closure_section,
    cm_section,
    cone_section,
    core_section,
    facet_section,
    gorenstein_section,
    load_job,
    qgor_section,
    render_human,
    to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INAPPLICABLE = 2
EXIT_UNTRUSTED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our exit table reserves 2
    for inapplicable criteria, so remap to 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# The commands, each stated once: its help line, its one extra option
# (flag and argparse keywords, or None) and the builder (job, args) ->
# section. A builder names its section function when it is called, so
# a wrapper rebound over the module global is the one that runs.
_COMMANDS: Dict[str, Tuple[str, Optional[Tuple[str, Dict]], Callable]] = {
    "np": ("facets of the Newton polyhedron", None,
           lambda job, args: facet_section(job.ideal)),
    "iclosure": ("integral closure of a power",
                 ("-n", dict(type=int, default=1, help="power to close")),
                 lambda job, args: closure_section(job.ideal, args.n)),
    "cone": ("facet matrix and extreme rays of the cone", None,
             lambda job, args: cone_section(job.ideal)),
    "gorenstein": (
        "Gorenstein decision for the normalization",
        ("--fast", dict(action="store_true",
                        help="closed-form test (pure-power ideals only)")),
        lambda job, args: gorenstein_section(job.ideal, args.fast)),
    "qgor": ("quasi-Gorenstein colon test", None,
             lambda job, args: qgor_section(job.ideal, job.reduction)),
    "cm": ("Cohen-Macaulay intersection test", None,
           lambda job, args: cm_section(job.ideal, job.reduction)),
    "core": ("core of a power",
             ("--u", dict(type=int, default=1, help="which power")),
             lambda job, args: core_section(job.ideal, job.reduction, args.u)),
    "report": ("all sections at once", None,
               lambda job, args: build_report(job)),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="reesgor",
        description="Gorenstein and Cohen-Macaulay decisions for "
        "extended Rees algebras of monomial ideals",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit canonical JSON"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --corpus"
    )
    parser.add_argument(
        "--corpus",
        type=int,
        metavar="N",
        help="run the seeded self-check on N random ideals and exit",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, option, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("job", help="path to the job JSON file")
        if option is not None:
            command.add_argument(option[0], **option[1])
    return parser


# The parser `main` reuses, built on its first call rather than at
# import, and held by the cache rather than by a module global rebound
# on first use. The build (mostly argparse looking up each help string
# through gettext) costs about 1.3 ms, which every in-process call paid
# before. Reuse is safe: parse_args fills a new namespace from the
# defaults on every call.
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def _execute(args: argparse.Namespace) -> Tuple[Dict, int]:
    payload = _COMMANDS[args.command][2](load_job(args.job), args)
    # a report whose sections disagree cannot be trusted
    consistency = payload.get("consistency", {})
    untrusted = args.command == "report" and consistency.get("all_ok") is False
    return payload, EXIT_UNTRUSTED if untrusted else EXIT_OK


def classify_failure(exc: Exception) -> int:
    """Map an exception from a command run to the exit code table."""
    if isinstance(exc, InapplicableError):
        return EXIT_INAPPLICABLE
    if isinstance(exc, (MemoryError, InvariantViolationError,
                        IncompleteSearchError, BudgetExceededError)):
        return EXIT_UNTRUSTED
    if isinstance(exc, (ValueError, OSError)):
        return EXIT_USAGE
    raise exc


def main(argv: Optional[List[str]] = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE

    if args.corpus is not None:
        return _corpus_run(args.corpus, args.seed, args.json)
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("reesgor: error: a command or --corpus is needed\n")
        return EXIT_USAGE

    try:
        payload, code = _execute(args)
    except Exception as exc:  # noqa: BLE001 - classified right below
        code = classify_failure(exc)
        reason = "ran out of memory" if isinstance(exc, MemoryError) else exc
        sys.stderr.write(f"reesgor: {reason}\n")
        return code

    if args.json:
        sys.stdout.write(to_json(payload))
    else:
        sys.stdout.write("\n".join(render_human(payload)) + "\n")
    return code


# -------------------------------------------------------------------- #
# seeded self-check


def _random_m_primary(rng: random.Random, dim: int) -> MonomialIdeal:
    gens = []
    for i in range(dim):
        e = [0] * dim
        e[i] = rng.randint(1, 5)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, 3)):
        extra = tuple(rng.randint(0, 5) for _ in range(dim))
        while not any(extra):
            extra = tuple(rng.randint(0, 5) for _ in range(dim))
        gens.append(extra)
    return MonomialIdeal(dim, tuple(gens))


def _corpus_ideals(
    index: int, seed: int
) -> Tuple[MonomialIdeal, MonomialIdeal]:
    """The two random ideals of one self-check case."""
    rng = random.Random(seed * 100003 + index)
    dim = rng.choice((2, 3))
    return _random_m_primary(rng, dim), _random_m_primary(rng, dim)


def corpus_case(index: int, seed: int) -> Dict:
    """One self-check case: random ideals, every cheap cross-check."""
    ideal, other = _corpus_ideals(index, seed)
    failures: List[str] = []

    square = ideal * ideal
    if oracle_colon(square, ideal) != square.colon(ideal).gens:
        failures.append("colon disagrees with the oracle")
    if oracle_intersect(ideal, other) != (ideal & other).gens:
        failures.append("intersection disagrees with the oracle")

    facets = newton_polyhedron(ideal)
    closed = closure_power(ideal, 1, facets)
    for g in closed.gens:
        if not facets.contains_power(g, 1):
            failures.append(f"closure generator {g} outside the polyhedron")
        for j in range(ideal.dim):
            down = g[:j] + (g[j] - 1,) + g[j + 1 :]
            if g[j] > 0 and facets.contains_power(down, 1):
                failures.append(f"closure generator {g} not minimal")
                break

    try:
        gorenstein, _ = is_gorenstein_normalization(ideal, facets)
        if ideal.pure_power_exponents() is not None:
            if pure_power_gorenstein_test(ideal).gorenstein != gorenstein:
                failures.append("fast and full Gorenstein tests disagree")
    except (InvariantViolationError, IncompleteSearchError) as exc:
        failures.append(str(exc))

    try:
        reduction = find_pure_power_reduction(ideal, facets)
        if reduction is not None:
            quasi_gorenstein_test(ideal, reduction)
    except InapplicableError:
        pass
    except InvariantViolationError as exc:
        failures.append(f"quasi-Gorenstein cross-check: {exc}")

    return _record(index, ideal, failures)


def _record(index: int, ideal: MonomialIdeal, failures: List[str]) -> Dict:
    """One self-check result, for a case that returned or one that
    raised."""
    return {
        "index": index,
        "ideal": ideal.to_str(),
        "dim": ideal.dim,
        "ok": not failures,
        "failures": failures,
    }


def _corpus_run(count: int, seed: int, as_json: bool) -> int:
    if count < 1:
        sys.stderr.write("reesgor: error: --corpus needs a positive count\n")
        return EXIT_USAGE
    results = []
    for index in range(count):
        try:
            results.append(corpus_case(index, seed))
        except Exception as exc:  # noqa: BLE001 - recorded, run goes on
            ideal, _ = _corpus_ideals(index, seed)
            failure = f"{type(exc).__name__}: {exc}"
            results.append(_record(index, ideal, [failure]))
    if as_json:
        sys.stdout.write(
            to_json({"corpus": count, "seed": seed, "results": results})
        )
    else:
        for res in results:
            status = "ok" if res["ok"] else "FAIL " + "; ".join(res["failures"])
            sys.stdout.write(
                f"[{res['index']:03d}] d={res['dim']} {res['ideal']} {status}\n"
            )
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_UNTRUSTED
