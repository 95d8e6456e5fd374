"""Workload definitions: job pools, seeded job streams, answer checks.

Every workload is a closed loop with one client: the next job starts
when the previous one has returned. A job is one call of the reesgor
command line, exactly as a user types it.

The `report` and `gorenstein` jobs come from pools frozen in
`pins/<workload>.jsonl`, one line per ideal with the exit code and the
answer fields the program gave when the pool was pinned (see pin.py).
A pool is a set of bases, each four distinct ideals of the same cost:
the relabelings of the variables of one ideal (for d = 2 ideals and
pure powers, which have fewer, topped up with those of the next ideal
in size order). The run seed turns a pool into a stream of passes,
every pass submitting each base once under a variant the seed picks,
and a run stops only between passes. So every run sees the same mix of
small and large inputs whatever the seed, and the spread between runs
comes from the program and the machine, not from the luck of the
draw. The program only ever sees the job files written from that
stream. Jobs inside one stream are distinct ideals, so a cache shared
across jobs gets no hits from repetition.

The `corpus` jobs are `--corpus K --seed s` calls with a fresh s for
every job; their check is the program's own self-check verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins"

Vector = Tuple[int, ...]

# The two inputs the ROADMAP baseline quotes; every report stream
# starts with them, once each.
ANCHORS: Tuple[Dict, ...] = (
    {"dim": 3, "gens": [[0, 0, 3], [0, 3, 0], [1, 1, 1], [3, 0, 0]]},
    {"dim": 2, "gens": [[0, 4], [1, 3], [4, 0]]},
)

# Pure powers whose sweep box is larger than this are left out of the
# gorenstein pool. (3, 5, 7, 11, 13) has a 2.27M-point sweep box and no
# budget in the program stops it, so one such job runs for minutes.
PURE_POWER_MAX_BOX_POINTS = 20_000

CORPUS_CASES = 10

# Strata per pool part: (pool part, number of strata). A round of a pass
# takes one base from each stratum, in this order.
STRATA = {
    "report": (("report2", 6), ("report3", 3)),
    "gorenstein": (("pure", 4), ("random3", 2), ("random4", 2)),
}


# ------------------------------------------------------------------ #
# inputs


def random_m_primary(rng: random.Random, dim: int) -> List[List[int]]:
    """Pure powers of every variable with exponents 1..5, plus up to
    three extra generators with entries 0..5 (not minimalized)."""
    gens = []
    for i in range(dim):
        e = [0] * dim
        e[i] = rng.randint(1, 5)
        gens.append(e)
    for _ in range(rng.randint(0, 3)):
        extra = [rng.randint(0, 5) for _ in range(dim)]
        while not any(extra):
            extra = [rng.randint(0, 5) for _ in range(dim)]
        gens.append(extra)
    return gens


def pure_power_boxes(exps: Sequence[int]) -> Tuple[Vector, Vector]:
    """Search and sweep box of the canonical-module scan for the ideal
    (x_1^a_1, ..., x_d^a_d), computed here in closed form.

    The Newton polyhedron has the single facet <n, x> >= h with
    n_i = L / a_i and h = L (L = lcm, both divided by gcd(n)). The
    lifted cone is simplicial: its rays are e_{d+1} and, for each i,
    the primitive vector along (h e_i, h - n_i). The search box is the
    coordinatewise sum of the rays, the sweep box one more.
    """
    d = len(exps)
    lcm = math.lcm(*exps)
    normal = [lcm // a for a in exps]
    g = math.gcd(*normal)
    normal = [n // g for n in normal]
    h = lcm // g
    box = [0] * (d + 1)
    box[d] = 1
    for i, n in enumerate(normal):
        k = math.gcd(h, h - n)
        box[i] += h // k
        box[d] += (h - n) // k
    return tuple(box), tuple(b + 1 for b in box)


def box_points(box: Sequence[int]) -> int:
    return math.prod(b + 1 for b in box)


def pure_power_rule(exps: Sequence[int]) -> bool:
    """The paper's closed form: with L = lcm(a_i), write sum L / a_i as
    j L + p with 1 <= p <= L; Gorenstein exactly when p = 1."""
    lcm = math.lcm(*exps)
    p = sum(lcm // a for a in exps) % lcm
    return (p or lcm) == 1


def pure_power_exponents(job: Dict) -> Optional[Tuple[int, ...]]:
    d = job["dim"]
    if len(job["gens"]) != d:
        return None
    exps = [0] * d
    for g in job["gens"]:
        support = [i for i, e in enumerate(g) if e]
        if len(support) != 1:
            return None
        exps[support[0]] = g[support[0]]
    return tuple(exps) if all(exps) else None


# ------------------------------------------------------------------ #
# pools and streams


def load_pool(workload: str) -> Dict[str, List[List[Dict]]]:
    """Pinned pool of a workload: pool part -> bases, each base the
    list of its pinned relabelings."""
    bases: Dict[Tuple[str, int], List[Dict]] = {}
    with open(PINS / f"{workload}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            bases.setdefault((entry["part"], entry["base"]), []).append(entry)
    parts: Dict[str, List[List[Dict]]] = {}
    for (part, _), variants in sorted(bases.items()):
        parts.setdefault(part, []).append(
            sorted(variants, key=lambda e: e["variant"])
        )
    return parts


def size_key(job: Dict) -> int:
    """Structural size of an input: the closed-form sweep box of a pure
    power, else the staircase box of the generators."""
    if job["part"] == "pure":
        return box_points(pure_power_boxes(pure_power_exponents(job))[1])
    return math.prod(
        max(g[i] for g in job["gens"]) + 1 for i in range(job["dim"])
    )


def split_strata(bases: List[List[Dict]], count: int) -> List[List[List[Dict]]]:
    ordered = sorted(bases, key=lambda b: (size_key(b[0]), b[0]["gens"]))
    step = len(ordered) / count
    return [
        ordered[round(i * step) : round((i + 1) * step)] for i in range(count)
    ]


def job_stream(workload: str, seed: int, pool=None) -> List[Tuple[int, Dict]]:
    """The seeded order in which a run submits the pool's jobs, as
    (pass, job) pairs.

    Report streams open with the anchors (pass -1). Then pass p
    submits every base once, as its variant (p + offset) mod n with the
    offset drawn per base from the seed. Within a pass each round holds
    one base from every stratum, each stratum shuffled by the seed.
    Every base has the same number of variants, so every pass submits
    the same mix of sizes whatever the seed.
    """
    if workload == "corpus":
        raise ValueError("corpus jobs are seeds, not pooled ideals")
    parts = pool if pool is not None else load_pool(workload)
    rng = random.Random(f"{workload}:{seed}")
    strata = [
        stratum
        for part, count in STRATA[workload]
        for stratum in split_strata(parts[part], count)
    ]
    offsets = {b[0]["base"]: rng.randrange(len(b)) for s in strata for b in s}
    stream = [(-1, b[0]) for b in parts.get("anchor", [])]
    for p in range(max(len(b) for s in strata for b in s)):
        shuffled = [rng.sample(s, len(s)) for s in strata]
        for i in range(max(len(s) for s in shuffled)):
            for s in shuffled:
                if i < len(s) and p < len(s[i]):
                    base = s[i]
                    variant = (p + offsets[base[0]["base"]]) % len(base)
                    stream.append((p, base[variant]))
    return stream


def corpus_seeds(seed: int, count: int) -> List[int]:
    """A fresh program seed for every corpus job of a run."""
    return [seed * 1_000_000 + j for j in range(count)]


# ------------------------------------------------------------------ #
# answers


def import_cli():
    """Import reesgor's command line module from this checkout's src/,
    never from an installed copy. Raises ImportError when the checkout
    holds no program."""
    if not (SRC / "reesgor" / "__init__.py").is_file():
        raise ImportError(f"no reesgor package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import reesgor.cli

    if Path(reesgor.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"reesgor imported from {reesgor.cli.__file__}")
    return reesgor.cli


def call_cli(main, argv: List[str]) -> Tuple[int, str]:
    """Run reesgor's command line in this process, as a user would
    from a shell, and return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    return code, out.getvalue()


def _section(payload: Dict, name: str, pick):
    sec = payload.get(name)
    if not isinstance(sec, dict) or "inapplicable" in sec:
        return "inapplicable"
    return pick(sec)


def gorenstein_answer(sec: Dict) -> List:
    return [sec["gorenstein"], sec["q"], sec["generators"], sec["a_invariant"]]


def report_answer(payload: Dict) -> Dict:
    """The pinned fields of a report. Search certificates (boxes,
    checked ranges) and the wording of inapplicable reasons are not
    pinned: they may change while the answer stays right."""
    return {
        "gorenstein": _section(payload, "gorenstein", gorenstein_answer),
        "gorenstein_fast": _section(
            payload, "gorenstein_fast", lambda s: s["gorenstein"]
        ),
        "invariants": _section(
            payload,
            "invariants",
            lambda s: [
                s["reduction_number"],
                s["nilpotency_index"],
                s["closure_nilpotency_index"],
                s["conductor_exponent"],
            ],
        ),
        "quasi_gorenstein": _section(
            payload,
            "quasi_gorenstein",
            lambda s: [s["quasi_gorenstein"], s["a"], s["u"]],
        ),
        "cohen_macaulay": _section(
            payload, "cohen_macaulay", lambda s: s["cohen_macaulay"]
        ),
        "core": _section(payload, "core", lambda s: s["core"]["gens"]),
        "consistency": _section(payload, "consistency", lambda s: s["all_ok"]),
    }


def answer_of(command: str, stdout: str):
    """The answer fields of one job's output (None when it printed
    nothing to parse)."""
    if not stdout:
        return None
    payload = json.loads(stdout)
    if command == "report":
        return report_answer(payload)
    return gorenstein_answer(payload)


def check_pooled(job: Dict, command: str, code: int, stdout: str) -> bool:
    """A pooled job is right when it exits 0 and its answer equals the
    pinned one. A pure-power Gorenstein verdict must also match the
    paper's p = 1 rule, computed here."""
    if code != 0 or answer_of(command, stdout) != job["answer"]:
        return False
    exps = pure_power_exponents(job)
    if command == "gorenstein" and exps is not None:
        return json.loads(stdout)["gorenstein"] == pure_power_rule(exps)
    return True


def check_corpus(seed: int, code: int, stdout: str) -> bool:
    if code != 0 or not stdout:
        return False
    payload = json.loads(stdout)
    results = payload.get("results", [])
    return (
        payload.get("corpus") == CORPUS_CASES
        and payload.get("seed") == seed
        and len(results) == CORPUS_CASES
        and all(r.get("ok") is True for r in results)
    )
