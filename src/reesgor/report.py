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
from dataclasses import dataclass, fields, is_dataclass
from typing import Dict, List, Optional

from .analysis import (
    a_invariant_consistency,
    closure_nilpotency_index,
    cohen_macaulay_test,
    conductor_exponent,
    core_compute,
    find_pure_power_reduction,
    nilpotency_index,
    quasi_gorenstein_test,
    reduction_number,
)
from .cone import (
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


def _exponent_lists(data: Dict, key: str) -> tuple:
    """The generators under data[key], which must be a list of lists."""
    value = data[key]
    if not isinstance(value, list) or not all(
        isinstance(g, list) for g in value
    ):
        raise ValueError(f"'{key}' must be a list of exponent lists")
    return tuple(tuple(g) for g in value)


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
    ideal = MonomialIdeal(dim, _exponent_lists(data, "gens"))
    reduction = None
    if data.get("reduction") is not None:
        red = _exponent_lists(data, "reduction")
        if not red:
            raise ValueError(
                "'reduction' is empty, which is the zero ideal; list its "
                "generators, or give null to search for one"
            )
        reduction = MonomialIdeal(dim, red)
        if not reduction.is_subset(ideal):
            raise ValueError("the supplied reduction is not inside the ideal")
    return JobSpec(ideal=ideal, reduction=reduction)


def load_job(path: str) -> JobSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return job_from_dict(json.load(fh))


# -------------------------------------------------------------------- #
# section builders


def ideal_dict(ideal: MonomialIdeal) -> Dict:
    return {
        "dim": ideal.dim,
        "gens": [list(g) for g in ideal.gens],
        "str": ideal.to_str(),
    }


def _plain(value: object) -> object:
    """A verdict in JSON types: a tuple becomes a list, a MonomialIdeal
    its ideal_dict, and a dataclass the dict of its fields, each entry
    and field converted in turn. So a section's keys are the field
    names of its verdict dataclass (in analysis.py, cone.py or
    polyhedra.py), stated there once: renaming a field renames the key,
    and a builder adds only what its verdict does not store. An int in
    a tuple is copied without a call, since boxes and exponent vectors
    are most of what a report converts."""
    if isinstance(value, tuple):
        return [v if type(v) is int else _plain(v) for v in value]
    if isinstance(value, MonomialIdeal):
        return ideal_dict(value)
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def facet_section(ideal: MonomialIdeal) -> Dict:
    facets = newton_polyhedron(ideal)
    return {
        "bounded_facets": _plain(facets.bounded),
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
    return {"matrix": _plain(cone.matrix), "rays": _plain(cone.rays)}


def gorenstein_section(ideal: MonomialIdeal, fast: bool) -> Dict:
    if fast:
        test = pure_power_gorenstein_test(ideal)
        return {"method": "pure-power", **_plain(test)}
    _, data = is_gorenstein_normalization(ideal)
    return {
        **_plain(data),
        "method": "canonical-generators",
        "generator_count": len(data.generators),
        "filtration_reduction_number": data.a_invariant + ideal.dim - 1,
    }


def qgor_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    return _plain(quasi_gorenstein_test(ideal, reduction))


def cm_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    return _plain(cohen_macaulay_test(ideal, reduction))


def core_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal], u: int
) -> Dict:
    if u < 1:
        raise ValueError("core power u must be at least 1")
    if reduction is None:
        reduction = find_pure_power_reduction(ideal)
        if reduction is None:
            raise InapplicableError(
                "no pure-power reduction to compute the core against"
            )
    core = core_compute(ideal, reduction, u)
    section = {"u": u, "core": ideal_dict(core)}
    verdict = quasi_gorenstein_test(ideal, reduction)
    if verdict.quasi_gorenstein:
        exponent = ideal.dim * u + verdict.a
        section["power_formula"] = {
            "exponent": exponent,
            "matches": core == ideal ** exponent,
        }
    return section


def consistency_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    rep = a_invariant_consistency(ideal, reduction)
    return {**_plain(rep), "all_ok": rep.all_ok}


def invariants_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    """r, s and the closure index s-bar of the ideal relative to the
    reduction (the supplied one, else the pure-power one read off the
    Newton polyhedron), and the conductor exponent.

    With no pure-power reduction, InapplicableError names why. The
    search fails only on several bounded facets or a source that is
    not m-primary: with one bounded facet of an m-primary ideal, every
    vertex, the pure powers among them, lies on that facet, so the
    pure-power candidate is a reduction.
    """
    facets = newton_polyhedron(ideal)
    if reduction is None:
        reduction = find_pure_power_reduction(ideal, facets)
        if reduction is None:
            reason = (
                "the Newton polyhedron has more than one bounded facet"
                if len(facets.bounded) > 1
                else "the ideal is not primary to the maximal ideal"
            )
            raise InapplicableError(f"no pure-power reduction: {reason}")
    r = reduction_number(ideal, reduction)
    return {
        "reduction_number": r,
        "nilpotency_index": nilpotency_index(ideal, reduction, r),
        "closure_nilpotency_index": closure_nilpotency_index(
            ideal, reduction, facets
        ),
        "reduction": ideal_dict(reduction),
        "reduction_generator_count": len(reduction.gens),
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
    """Deterministic plain-text rendering of a result dict: a dict
    entry is labelled "key:", a list item "-", and a nested value that
    is not flat goes on the lines below its label, one level deeper."""
    pad = "  " * indent
    if isinstance(payload, dict):
        items = [(f"{key}:", payload[key]) for key in sorted(payload)]
    elif isinstance(payload, list):
        items = [("-", value) for value in payload]
    else:
        return [f"{pad}{_flat(payload)}"]
    lines: List[str] = []
    for label, value in items:
        if isinstance(value, (dict, list)) and value and not _is_flat(value):
            lines.append(f"{pad}{label}")
            lines.extend(render_human(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {_flat(value)}")
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
