"""Regenerate the pinned job pools in pins/.

    python3 perfbench/pin.py

Draws each pool from a fixed seed, runs every job once through the
reesgor command line of this checkout and records the exit code and
the answer fields. Run it only when the program's answers are meant
to change; the benchmark then checks every later run against them.
A job that fails while pinning stays in the pool with its exit code,
so the benchmark keeps reporting it as a failure.
"""

from __future__ import annotations

import itertools
import json
import random
import tempfile
from pathlib import Path

import workloads as wl

POOL_SEED = 20131016
# Bases per pass, per pool part (pure powers: per dimension 2..5).
BASES = {
    "report": {"report2": 36, "report3": 18},
    "gorenstein": {"pure": 24, "random3": 48, "random4": 48},
}
VARIANTS = 4
PURE_POWER_MAX_EXPONENT = 24
# Parts whose ideals have too few relabelings to fill a base alone (all
# d = 2 ideals, symmetric pure powers) and whose cost follows the size
# key closely. In the other parts an ideal with fewer than VARIANTS
# relabelings is left out: its neighbours in size order can cost ten
# times as much, which would make one variant of a base unlike another.
MERGED_PARTS = ("report2", "pure")


def canonical(dim, gens):
    from reesgor.ideals import MonomialIdeal

    ideal = MonomialIdeal(dim, tuple(tuple(g) for g in gens))
    return [list(g) for g in ideal.gens]


def relabelings(dim, gens):
    """Every distinct ideal obtained by permuting the variables, in a
    fixed order; the first one names the orbit."""
    found = {
        json.dumps(canonical(dim, [[g[p] for p in perm] for g in gens]))
        for perm in itertools.permutations(range(dim))
    }
    return [json.loads(v) for v in sorted(found)]


def group(rng, part, dim, orbits, count):
    """`count` bases of exactly VARIANTS distinct ideals each: the
    relabelings of one ideal, topped up in MERGED_PARTS with those of
    the next ideals in size order while it has fewer. Bases are drawn
    at random from all that the orbits fill, so no size range is
    favoured."""
    ordered = sorted(
        orbits, key=lambda o: (wl.size_key({"part": part, "dim": dim, "gens": o[0]}), o)
    )
    bases, current = [], []
    for orbit in ordered:
        if part not in MERGED_PARTS:
            current = []
        current += rng.sample(orbit, len(orbit))
        if len(current) >= VARIANTS:
            bases.append(current[:VARIANTS])
            current = []
    return rng.sample(bases, count) if len(bases) >= count else None


def draw_bases(rng, part, dim, draw, count, seen):
    """Draw new orbits with draw() until they fill `count` bases."""
    orbits = []
    while True:
        gens = draw()
        orbit = relabelings(dim, gens)
        key = json.dumps(orbit[0])
        if key in seen:
            continue
        seen.add(key)
        orbits.append(orbit)
        bases = group(rng, part, dim, orbits, count)
        if bases is not None:
            return bases


def pure_drawer(rng, d):
    """Pure powers in d variables with exponents up to the cap and a
    sweep box within PURE_POWER_MAX_BOX_POINTS, in random order."""
    eligible = [
        exps
        for exps in itertools.combinations_with_replacement(
            range(1, PURE_POWER_MAX_EXPONENT + 1), d
        )
        if wl.box_points(wl.pure_power_boxes(exps)[1])
        <= wl.PURE_POWER_MAX_BOX_POINTS
    ]
    order = iter(rng.sample(eligible, len(eligible)))
    return lambda: [
        [a if i == j else 0 for j in range(d)] for i, a in enumerate(next(order))
    ]


def pools():
    """workload -> list of (part, base, variant, dim, gens)."""
    wl.import_cli()
    rng = random.Random(POOL_SEED)
    parts = {"report": [], "gorenstein": []}
    seen = {json.dumps(relabelings(a["dim"], a["gens"])[0]) for a in wl.ANCHORS}
    parts["report"] += [("anchor", a["dim"], [a["gens"]]) for a in wl.ANCHORS]
    for part, dim in (("report2", 2), ("report3", 3)):
        draw = lambda: wl.random_m_primary(rng, dim)  # noqa: E731
        count = BASES["report"][part]
        for base in draw_bases(rng, part, dim, draw, count, seen):
            parts["report"].append((part, dim, base))
    seen = set()
    for dim in range(2, 6):
        count = BASES["gorenstein"]["pure"]
        for base in draw_bases(rng, "pure", dim, pure_drawer(rng, dim), count, seen):
            parts["gorenstein"].append(("pure", dim, base))
    for part, dim in (("random3", 3), ("random4", 4)):
        draw = lambda: wl.random_m_primary(rng, dim)  # noqa: E731
        count = BASES["gorenstein"][part]
        for base in draw_bases(rng, part, dim, draw, count, seen):
            parts["gorenstein"].append((part, dim, base))
    return {
        workload: [
            (part, b, v, dim, gens)
            for b, (part, dim, variants) in enumerate(bases)
            for v, gens in enumerate(variants)
        ]
        for workload, bases in parts.items()
    }


def main() -> int:
    cli_main = wl.import_cli().main

    wl.PINS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "job.json")
        for workload, jobs in pools().items():
            lines = []
            for part, base, variant, dim, gens in jobs:
                Path(path).write_text(json.dumps({"dim": dim, "gens": gens}))
                code, out = wl.call_cli(cli_main, ["--json", workload, path])
                entry = {
                    "part": part, "base": base, "variant": variant,
                    "dim": dim, "gens": gens, "exit": code,
                    "answer": wl.answer_of(workload, out),
                }
                lines.append(json.dumps(entry, separators=(",", ":")))
            (wl.PINS / f"{workload}.jsonl").write_text("\n".join(lines) + "\n")
            print(f"{workload}: {len(lines)} jobs pinned")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
