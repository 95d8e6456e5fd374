"""Job files and result sections.

A job file is a small JSON object naming one monomial ideal and,
optionally, a candidate reduction:

    {"dim": 2, "gens": [[3, 0], [1, 1], [0, 3]],
     "reduction": [[2, 0], [0, 2]]}

Loading validates shape strictly (unknown and repeated keys are
errors, a supplied reduction must sit inside the ideal). The section
builders turn each computation into a plain dict of JSON types with
deterministic content, so serializing the same job twice yields
identical bytes.
"""

from __future__ import annotations

import json
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
from .ideals import MonomialIdeal, _Value, _exact_int
from .polyhedra import closure_power, newton_polyhedron

SCHEMA_VERSION = 1


class JobSpec(_Value):
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
    if not _exact_int(dim) or dim < 1:
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


def _refuse_repeated_keys(pairs: List[tuple]) -> Dict:
    """A JSON object as a dict. A key that appears twice raises
    ValueError naming it, where json alone would keep the last value."""
    data: Dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"job file repeats the key '{key}'")
        data[key] = value
    return data


# One decoder for every job file, as json keeps one for json.loads
# without options: `json.load` with a hook builds a decoder and its
# scanner on every call, which took the decoding of a pooled job file
# from 1.7 to 3.5 us (Python 3.11.7).
_DECODER = json.JSONDecoder(object_pairs_hook=_refuse_repeated_keys)


def load_job(path: str) -> JobSpec:
    """The job in the file at path. A repeated key and nesting too deep
    for the json decoder raise ValueError, like any other malformed
    job, rather than letting the last value win or a RecursionError
    escape. A leading byte order mark is refused in the words of
    `json.loads`, which checks it before it calls a decoder; every
    other message is the decoder's."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
        )
    try:
        data = _DECODER.decode(text)
    except RecursionError:
        raise ValueError("job file is nested too deeply") from None
    return job_from_dict(data)


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
    its ideal_dict, and any other `_Value` the dict of its `_fields`,
    each entry and field converted in turn. So a section's keys are the
    field names of its verdict class (in analysis.py, cone.py or
    polyhedra.py), stated there once: renaming a field renames the key,
    and a builder adds only what its verdict does not store. An int in
    a tuple is copied without a call, since boxes and exponent vectors
    are most of what a report converts."""
    if isinstance(value, tuple):
        return [v if type(v) is int else _plain(v) for v in value]
    if isinstance(value, MonomialIdeal):
        return ideal_dict(value)
    if isinstance(value, _Value):
        return {name: _plain(getattr(value, name)) for name in value._fields}
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
        # n passed closure_power's int check: an int subclass is written
        # as the int it equals
        "power": int(n),
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
    core = core_compute(ideal, reduction, u)
    # u passed core_compute's int check, so int(u) converts no refused value
    section = {"u": int(u), "core": ideal_dict(core)}
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
    checks = a_invariant_consistency(ideal, reduction)
    return {"checks": _plain(checks), "all_ok": all(c.ok for c in checks)}


def invariants_section(
    ideal: MonomialIdeal, reduction: Optional[MonomialIdeal]
) -> Dict:
    """r, s and the closure index s-bar of the ideal relative to the
    reduction (the supplied one, else the pure-power one read off the
    Newton polyhedron), and the conductor exponent.

    With no reduction supplied and no pure-power one to find, the
    InapplicableError of find_pure_power_reduction, which names why,
    passes through as the section's reason.
    """
    facets = newton_polyhedron(ideal)
    if reduction is None:
        reduction = find_pure_power_reduction(ideal, facets)
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
    """The payload as `json.dumps(payload, sort_keys=True, indent=2)`
    plus a newline, byte for byte, written in one pass.

    With an indent, json always runs its pure-Python encoder, a chain
    of generators that yields each piece up through every level.
    `_write_json` appends the same pieces to one list instead. It
    writes dicts with str keys, lists, tuples (as lists, as json
    does), str, int, bool and None, the only types a payload holds,
    and raises TypeError for a key that is no str and, naming its type,
    for a value of any other type (a float among them: the package
    computes none) or of a subclass of one of these. A cyclic payload
    raises RecursionError.
    """
    out: List[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _write_json(value: object, newline: str, out: List[str]) -> None:
    """Append value to out as json writes it with sort_keys=True and
    indent=2, `newline` being a newline and the indent of value's own
    level. Pieces are those of json: items separated by "," and a
    newline one level deeper, keys by ": ", and an empty container as
    {} or []. A list of ints is joined in one call: with one piece per
    int, the 282,376 generators of `--json iclosure -n 250` on
    (x^3, y^3, z^3) peaked at 247 MB against 135 MB, and `iclosure -n
    100` on (x^3, y^3, z^3, xyz) at 52 MB against 34 MB
    (`tools/heavy.py`, 2 cores, Python 3.11.7)."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(repr(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            out.append("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        if kind is dict:
            if {*map(type, value)} != {str}:
                raise TypeError("cannot write a dict key that is no str as JSON")
            lead = "{" + inner
            for key in sorted(value):
                out.append(lead + _quote(key) + ": ")
                _write_json(value[key], inner, out)
                lead = "," + inner
            out.append(newline + "}")
        elif {*map(type, value)} == {int}:
            items = ("," + inner).join(map(repr, value))
            out.append("[" + inner + items + newline + "]")
        else:
            lead = "[" + inner
            for item in value:
                out.append(lead)
                _write_json(item, inner, out)
                lead = "," + inner
            out.append(newline + "]")
    else:
        raise TypeError(f"cannot write a value of type {kind.__name__} as JSON")


def render_human(payload: object, indent: int = 0) -> List[str]:
    """Deterministic plain-text rendering of a result dict: a dict
    entry is labelled "key:", a list item "-", and a nested value that
    is not flat goes on the lines below its label, one level deeper.

    payload is a dict or a list: the command line passes a result
    dict, and the recursion below passes only a non-empty dict or
    list. A scalar is always rendered on its label's line."""
    pad = "  " * indent
    if isinstance(payload, dict):
        items = [(f"{key}:", payload[key]) for key in sorted(payload)]
    else:
        items = [("-", value) for value in payload]
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
    if type(value) is bool:
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return str(value)
