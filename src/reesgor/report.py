"""Job files and result sections.

A job file is a small JSON object naming one monomial ideal and,
optionally, a candidate reduction:

    {"dim": 2, "gens": [[3, 0], [1, 1], [0, 3]],
     "reduction": [[2, 0], [0, 2]]}

Loading validates shape strictly (unknown keys are errors, a supplied
reduction must sit inside the ideal). The section builders turn each
computation into a plain dict of JSON types with deterministic content,
so serializing the same job twice yields identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from .analysis import (
    a_invariant_consistency,
    analyze_reduction,
    cohen_macaulay_test,
    conductor_exponent,
    core_compute,
    core_matches_power,
    find_pure_power_reduction,
    quasi_gorenstein_test,
)
from .cone import (
    canonical_generators,
    filtration_reduction_number,
    is_gorenstein_normalization,
    lift_halfspaces,
    pure_power_gorenstein_test,
)
from .errors import InapplicableError, NotAReductionError, NotMPrimaryError
from .ideals import MonomialIdeal
from .polyhedra import closure_power, newton_polyhedron

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class JobSpec:
    ideal: MonomialIdeal
    reduction: Optional[MonomialIdeal]


def job_from_dict(data: object) -> JobSpec:
    if not isinstance(data, dict):
        raise ValueError("job file must hold a JSON object")
    allowed = {"dim", "gens", "reduction"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown job keys: {sorted(unknown)}")
    if "dim" not in data or "gens" not in data:
        raise ValueError("job needs 'dim' and 'gens'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    gens = data["gens"]
    if not isinstance(gens, list) or not all(
        isinstance(g, list) for g in gens
    ):
        raise ValueError("'gens' must be a list of exponent lists")
    ideal = MonomialIdeal(dim, tuple(tuple(g) for g in gens))
    reduction = None
    if data.get("reduction") is not None:
        red = data["reduction"]
        if not isinstance(red, list) or not all(
            isinstance(g, list) for g in red
        ):
            raise ValueError("'reduction' must be a list of exponent lists")
        reduction = MonomialIdeal(dim, tuple(tuple(g) for g in red))
        if not reduction.is_subset(ideal):
            raise ValueError("the supplied reduction is not inside the ideal")
    return JobSpec(ideal=ideal, reduction=reduction)


def load_job(path: str) -> JobSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return job_from_dict(data)


# -------------------------------------------------------------------- #
# section builders


def ideal_dict(ideal: MonomialIdeal) -> Dict:
    return {
        "dim": ideal.dim,
        "gens": [list(g) for g in ideal.gens],
        "str": ideal.to_str(),
    }


def facet_section(ideal: MonomialIdeal) -> Dict:
    facets = newton_polyhedron(ideal)
    return {
        "bounded_facets": [
            {"normal": list(f.normal), "offset": f.offset}
            for f in facets.bounded
        ],
        "coordinate_facets": list(facets.coordinate),
        "m_primary": facets.is_m_primary_source(),
    }


def closure_section(ideal: MonomialIdeal, n: int) -> Dict:
    if n < 1:
        raise ValueError("closure power must be at least 1")
    closed = closure_power(ideal, n)
    return {
        "power": n,
        "closure": ideal_dict(closed),
        "already_closed": closed == ideal ** n,
    }


def cone_section(ideal: MonomialIdeal) -> Dict:
    cone = lift_halfspaces(newton_polyhedron(ideal))
    return {
        "matrix": [list(row) for row in cone.matrix],
        "rays": [list(r) for r in cone.rays],
    }


def gorenstein_section(ideal: MonomialIdeal, fast: bool) -> Dict:
    if fast:
        test = pure_power_gorenstein_test(ideal)
        return {
            "method": "pure-power",
            "exponents": list(test.exponents),
            "lcm": test.lcm,
            "quotient": test.quotient,
            "remainder": test.remainder,
            "gorenstein": test.gorenstein,
        }
    gorenstein, data = is_gorenstein_normalization(ideal)
    return {
        "method": "canonical-generators",
        "gorenstein": gorenstein,
        "q": data.q,
        "generators": [list(g) for g in data.generators],
        "generator_count": len(data.generators),
        "a_invariant": data.a_invariant,
        "filtration_reduction_number": filtration_reduction_number(
            data, ideal.dim
        ),
        "search_box": list(data.search_box),
        "sweep_box": list(data.sweep_box),
    }


def qgor_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    verdict = quasi_gorenstein_test(ideal, reduction)
    return {
        "quasi_gorenstein": verdict.quasi_gorenstein,
        "a": verdict.a,
        "u": verdict.u,
        "reduction": ideal_dict(verdict.reduction),
        "reduction_number": verdict.reduction_number,
        "nilpotency_index": verdict.nilpotency_index,
        "checked_range": list(verdict.checked_range),
        "probe_ok": verdict.probe_ok,
    }


def cm_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    verdict = cohen_macaulay_test(ideal, reduction)
    return {
        "cohen_macaulay": verdict.cohen_macaulay,
        "reduction": ideal_dict(verdict.reduction),
        "reduction_number": verdict.reduction_number,
        "first_failure": verdict.first_failure,
    }


def core_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal], u: int
) -> Dict:
    if u < 1:
        raise ValueError("core power u must be at least 1")
    if reduction is None:
        reduction = find_pure_power_reduction(ideal)
        if reduction is None:
            raise InapplicableError(
                "no pure-power reduction for the core ladder"
            )
    core = core_compute(ideal, reduction, u)
    section = {"u": u, "core": ideal_dict(core)}
    try:
        verdict = quasi_gorenstein_test(ideal, reduction)
    except InapplicableError:
        verdict = None
    if verdict is not None and verdict.quasi_gorenstein:
        exponent = ideal.dim * u + verdict.a
        section["power_formula"] = {
            "exponent": exponent,
            "matches": core_matches_power(ideal, reduction, u, verdict.a),
        }
    return section


def consistency_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    rep = a_invariant_consistency(ideal, reduction)
    return {
        "all_ok": rep.all_ok,
        "checks": [
            {
                "name": c.name,
                "applicable": c.applicable,
                "ok": c.ok,
                "expected": c.expected,
                "actual": c.actual,
            }
            for c in rep.checks
        ],
    }


def invariants_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    data = analyze_reduction(ideal, reduction)
    return {
        "reduction": ideal_dict(data.reduction),
        "reduction_number": data.reduction_number,
        "nilpotency_index": data.nilpotency_index,
        "closure_nilpotency_index": data.closure_nilpotency_index,
        "reduction_generator_count": data.generator_count,
        "conductor_exponent": conductor_exponent(ideal),
    }


def build_report(job: JobSpec) -> Dict:
    """One dict with every section, the closure of I^2 and the core of
    I^1 among them; sections whose criterion does not apply to this
    input are embedded as {'inapplicable': reason}."""
    ideal = job.ideal
    out: Dict = {"schema_version": SCHEMA_VERSION, "ideal": ideal_dict(ideal)}
    out["newton"] = facet_section(ideal)
    out["integral_closure"] = closure_section(ideal, 2)

    def guarded(builder, *args) -> Dict:
        try:
            return builder(*args)
        except (InapplicableError, NotMPrimaryError, NotAReductionError) as e:
            return {"inapplicable": str(e)}

    out["cone"] = guarded(cone_section, ideal)
    out["gorenstein"] = guarded(gorenstein_section, ideal, False)
    out["gorenstein_fast"] = guarded(gorenstein_section, ideal, True)
    out["invariants"] = guarded(invariants_section, ideal, job.reduction)
    out["quasi_gorenstein"] = guarded(qgor_section, ideal, job.reduction)
    out["cohen_macaulay"] = guarded(cm_section, ideal, job.reduction)
    out["core"] = guarded(core_section, ideal, job.reduction, 1)
    out["consistency"] = guarded(consistency_section, ideal, job.reduction)
    return out


def to_json(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_human(payload: object, indent: int = 0) -> List[str]:
    """Deterministic plain-text rendering of a result dict."""
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.extend(render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}-")
                lines.extend(render_human(value, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(value)}")
    else:
        lines.append(f"{pad}{_flat(payload)}")
    return lines


def _is_flat(value: object) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return str(value)
