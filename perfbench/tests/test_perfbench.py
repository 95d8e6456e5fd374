"""Tests of the benchmark itself: inputs, tracer arithmetic, patching
and the recomputation counts it reports.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

CLI = wl.import_cli()

ANCHOR = wl.ANCHORS[0]  # (x^3, y^3, z^3, xyz)


# ------------------------------------------------------------------ #
# inputs


@pytest.mark.parametrize("workload", ["report", "gorenstein"])
def test_same_seed_same_jobs_and_jobs_distinct(workload):
    first = wl.job_stream(workload, 7)
    assert first == wl.job_stream(workload, 7)
    assert first != wl.job_stream(workload, 8)
    keys = [json.dumps([j["dim"], j["gens"]]) for _, j in first]
    assert len(keys) == len(set(keys))


def test_report_stream_opens_with_the_anchors():
    stream = wl.job_stream("report", 3)
    assert [(p, {"dim": j["dim"], "gens": j["gens"]}) for p, j in stream[:2]] == [
        (-1, a) for a in wl.ANCHORS
    ]


@pytest.mark.parametrize("workload", ["report", "gorenstein"])
def test_every_pass_submits_every_base_once_round_by_round(workload):
    pool = wl.load_pool(workload)
    strata = [
        {b[0]["base"] for b in s}
        for part, count in wl.STRATA[workload]
        for s in wl.split_strata(pool[part], count)
    ]
    bases = sorted(set().union(*strata))
    stream = wl.job_stream(workload, 11)
    passes = sorted({p for p, _ in stream if p >= 0})
    assert passes == [0, 1, 2, 3]
    for p in passes:
        jobs = [j for q, j in stream if q == p]
        assert sorted(j["base"] for j in jobs) == bases
        for stratum, job in zip(strata, jobs):
            assert job["base"] in stratum


def test_corpus_seeds_are_fresh_per_job_and_per_run():
    a, b = wl.corpus_seeds(1, 500), wl.corpus_seeds(2, 500)
    assert len(set(a)) == 500 and not set(a) & set(b)


def test_pure_power_boxes_match_the_program():
    from reesgor import MonomialIdeal, is_gorenstein_normalization

    for exps in [(2, 3), (4, 5, 6), (3, 3, 4, 2)]:
        _, data = is_gorenstein_normalization(MonomialIdeal.pure_powers(exps))
        assert wl.pure_power_boxes(exps) == (data.search_box, data.sweep_box)
    # The input left out of the gorenstein workload.
    sweep = wl.pure_power_boxes((3, 5, 7, 11, 13))[1]
    assert wl.box_points(sweep) == 2_272_725


def test_pure_power_rule():
    assert wl.pure_power_rule((1, 5)) is True
    assert wl.pure_power_rule((1, 1, 1)) is True
    assert wl.pure_power_rule((2, 2)) is False
    assert wl.pure_power_rule((2, 3)) is False


# ------------------------------------------------------------------ #
# tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock)

    def inner(step):
        clock.now += step

    inner_w = tracer.wrap("ideals.inner", inner)

    def failing():
        clock.now += 4
        raise ValueError("escapes its layer")

    failing_w = tracer.wrap("polyhedra.failing", failing)

    def outer():
        clock.now += 1
        inner_w(5)
        clock.now += 2
        inner_w(7)
        try:
            failing_w()
        except ValueError:
            pass
        clock.now += 3

    tracer.wrap("analysis.outer", outer)()
    by_name = {s[4]: s for s in tracer.spans}
    outer_span = by_name["analysis.outer"]
    assert outer_span[7] - outer_span[6] == 22
    assert outer_span[8] == 22 - 5 - 7 - 4
    values = tr.summarize(tracer.spans, {}, threading.get_ident(), 0.0)
    assert values["analysis.self_s"] == 6
    assert values["ideals.self_s"] == 12
    assert values["polyhedra.raised"] == 1
    assert values["analysis.raised"] == 0
    assert values["ideals.raised"] == 0


def test_exception_inside_one_layer_counts_once():
    tracer = tr.Tracer()

    def low():
        raise KeyError("x")

    low_w = tracer.wrap("cone.low", low)
    high_w = tracer.wrap("cone.high", lambda: low_w())
    with pytest.raises(KeyError):
        high_w()
    values = tr.summarize(tracer.spans, {}, threading.get_ident(), 0.0)
    assert values["cone.raised"] == 1


def _bindings():
    """Identity of every attribute of the loaded reesgor modules and of
    the MonomialIdeal class."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "reesgor" and module is not None:
            for attr, value in vars(module).items():
                out[(key, attr)] = id(value)
    cls = sys.modules["reesgor.ideals"].MonomialIdeal
    for attr, value in vars(cls).items():
        out[("MonomialIdeal", attr)] = id(value)
    return out


def _run_anchor(tmp_path, tracer):
    path = tmp_path / "anchor.json"
    path.write_text(json.dumps(ANCHOR))
    tracer.job = 0
    return wl.call_cli(CLI.main, ["--json", "report", str(path)])


def test_every_patched_name_is_restored(tmp_path):
    before = _bindings()
    tracer = tr.Tracer()
    with tracer:
        patched = tracer.patched_names()
        owners = {(getattr(o, "__name__", o), a) for o, a, _ in patched}
        assert ("reesgor.report", "conductor_exponent") in owners
        assert ("reesgor.analysis", "closure_power") in owners
        assert ("reesgor.cone", "extreme_rays") in owners
        assert ("reesgor.ideals", "minimalize") in owners
        assert ("MonomialIdeal", "__mul__") in owners
        assert _bindings() != before
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"dim": 2, "gens": [[2, 0], [0, 3]]}))
        assert wl.call_cli(CLI.main, ["--json", "gorenstein", str(path)])[0] == 0
    assert tracer.spans
    assert _bindings() == before


def test_anchor_reproduces_the_recomputation_counts(tmp_path):
    tracer = tr.Tracer()
    with tracer:
        code, out = _run_anchor(tmp_path, tracer)
    assert code == 0
    pinned = wl.load_pool("report")["anchor"][0][0]
    assert wl.check_pooled(pinned, "report", code, out)
    values = tr.summarize(tracer.spans, {0: 1.0}, threading.get_ident(), 0.0)
    assert values["polyhedra.newton_polyhedron.calls"] == 36
    assert values["polyhedra.extreme_rays.calls"] == 39
    assert values["analysis.is_monomial_reduction.calls"] == 13
    assert values["analysis.reduction_number.calls"] == 8
    assert values["analysis.quasi_gorenstein_test.calls"] == 3
    assert values["cone.is_gorenstein_normalization.calls"] == 2
    assert values["ideals.minimalize.calls"] > 300
    assert 0 < values["ideals.minimalize.keep_ratio"] <= 1


# ------------------------------------------------------------------ #
# contract


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tr.PER_LAYER_METRICS
    )
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {
        "setup_s", "throughput_jobs_per_s", "latency_p50_s",
        "latency_tail_s", "peak_rss_mb",
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.TRACE_JOBS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
